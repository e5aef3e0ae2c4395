//! The online complex-monitoring engine — Algorithm 1 of the paper.
//!
//! At every chronon the engine:
//!
//! 1. receives the CEIs released at that chronon (`η(j)`),
//! 2. folds newly opened EIs into the candidate pool `cands(I)`,
//! 3. selects up to `C_j` resources to probe by repeatedly taking the
//!    policy's minimum-score candidate (`probeEIs`),
//! 4. lets one probe capture *every* active candidate EI on the probed
//!    resource (the `R_ids` intra-resource sharing of Algorithm 1),
//! 5. completes CEIs whose last EI was captured, and
//! 6. expires EIs whose window closed uncaptured — failing their parent CEI
//!    and dropping its siblings from the pool.
//!
//! **Preemption.** A non-preemptive run snapshots, at the start of each
//! chronon, which candidate CEIs have already been probed at least once
//! (`cands⁺`); those EIs are served first, and new CEIs only compete for
//! leftover budget. A preemptive run lets all candidates compete at once.
//! Even non-preemptive runs cannot guarantee completion of a started CEI —
//! when started CEIs alone exceed the budget, some are dropped (Section
//! IV-A).
//!
//! **Observability.** [`OnlineEngine::run_observed`] streams typed
//! [`crate::obs::Event`]s from inside the loop — probes with sharing
//! fan-out, per-EI capture latencies, CEI resolutions, candidate-pool and
//! budget accounting — to any [`crate::obs::Observer`]. The plain
//! [`OnlineEngine::run`] uses [`crate::obs::NoopObserver`], which
//! monomorphizes to the unobserved loop at zero cost.
//!
//! **Cost model.** The candidate pool lives in an incremental per-resource
//! index (`engine::index`): entries are inserted once when their window
//! opens and removed at the exact transition that kills them (capture,
//! expiry, shed, parent resolution, cancellation), expiries visit only the
//! windows closing at the current chronon, and a CEI joins `cands⁺` on its
//! first capture instead of through a pool pass. Per-run CEI and EI state
//! is flat: a one-byte status per CEI, and captured / expired flags
//! indexed by the same dense global EI id as the pool's liveness bitmap,
//! with per-CEI counters. An arrival is a status write, a capture or
//! expiry a flag write and a counter bump, and nothing on the run path
//! allocates per CEI. The window buckets (`starts[t]`, `ends[t]`) are two
//! flat arrays with per-chronon offsets, built by counting sort in
//! sequential passes over the instance, with no per-entry lookup and no
//! sort. For a policy whose
//! candidate order does not depend on time ([`crate::policy::Policy::key_order`]:
//! S-EDF, MRSF), the default [`SelectionStrategy::Incremental`] keeps one
//! heap per phase class across chronons, so per-chronon cost is
//! proportional to the work actually done that chronon — insertions,
//! probes, captures, expiries — not to the size of the whole pool or
//! profile. An opening is keyed only once its phase class is consulted,
//! so one that expires first is never keyed. Other policies (M-EDF, WIC) re-seed one reused heap buffer
//! from the live pool in every phase.
//!
//! **Entry points.** [`OnlineEngine::run_driven_resumable`] is the one
//! implementation of the loop. [`OnlineEngine::run_driven`] calls it
//! without recovery hooks, and [`OnlineEngine::run_observed`] and
//! [`OnlineEngine::run`] call that with no faults and no mutations.
//!
//! **Faults and mutation.** [`OnlineEngine::run_driven`] takes a
//! [`crate::fault::FaultModel`] and a [`MutationSource`]. The profile set
//! is *not* frozen at `run()`: a [`MutationQueue`] compiled with
//! [`ScriptedMutations::compile`] is drained at each chronon start —
//! mid-run CEI registration (release chronon = now), cancellation of live
//! CEIs, and budget reconfiguration — emitting typed
//! [`crate::obs::Event`]s for each drained mutation so churned runs stay
//! replayable byte-for-byte. An empty queue compiles to an inactive source,
//! bit-identical to [`ScriptedMutations::default`]; registration costs
//! O(own EIs) because open windows insert directly into the per-resource
//! index and future windows ride the prebuilt `starts[t]` buckets.

mod index;
mod mutation;
mod runner;

pub use mutation::{Mutation, MutationQueue, MutationSource, ScriptedMutations};
pub use runner::{EngineConfig, OnlineEngine, RunResult, SelectionStrategy};
