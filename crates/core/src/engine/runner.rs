//! The run loop implementing Algorithm 1 (Online Complex Monitoring).

use super::index::{window_buckets, CandidateIndex, PoolEntry};
use super::mutation::{Mutation, MutationSource, ScriptedMutations};
use crate::fault::{FaultConfig, FaultModel, NoFaults};
use crate::model::{CeiId, Chronon, Instance, ResourceId, Schedule};
use crate::obs::{Event, NoopObserver, Observer};
use crate::policy::{Candidate, CeiView, KeyOrder, Policy, PolicyContext, ResourceStats};
use crate::serve::snapshot::{CeiState, EngineSnapshot, NoSnapshots, SnapshotSink};
use crate::stats::{CeiOutcome, RunStats};

/// Min-heap entries for the [`SelectionStrategy::Incremental`] selector:
/// `Reverse((score or order key, cei id, ei index))`.
type ScoreHeap = std::collections::BinaryHeap<std::cmp::Reverse<(i64, u32, u16)>>;

/// Slack of the keyed-heap compaction bound: a class heap is compacted
/// once its length exceeds `2 × live + HEAP_SLACK`.
const HEAP_SLACK: usize = 64;

/// How `probeEIs` finds the minimum-score candidate each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Fresh linear scan per probe — the reference implementation; scores
    /// are always current.
    Scan,
    /// The paper's Appendix-B lazy heap on engine-owned storage. For a
    /// policy with a time-invariant order ([`Policy::key_order`]: S-EDF,
    /// MRSF) one heap per phase class persists across chronons, keyed by
    /// [`Policy::order_key`] and updated only on arrivals, re-keying
    /// captures, and popped copies found dead, out of phase, or stale —
    /// so a chronon costs `O(work · log N)`, not `O(N)`. Arrivals are keyed
    /// lazily: a window opening waits unkeyed in a queue of its phase class
    /// and is keyed only when that class is next consulted, so under Φ(NP)
    /// a fresh opening that expires while the started class spends the
    /// whole budget is never keyed at all. Any other policy
    /// seeds one reused heap buffer per phase from the candidate index with
    /// current scores; a popped entry whose score went stale (a sibling was
    /// captured this chronon) is re-pushed at its current score, and
    /// captures refresh the touched CEIs' live entries. Either way the
    /// schedule, outcomes, and `RunMetrics` equal [`Scan`](Self::Scan)'s —
    /// pinned on the conformance corpus — with zero allocation on the hot
    /// path. Only the selection-step accounting (`heap_pops`) differs. The
    /// default.
    #[default]
    Incremental,
}

/// Execution mode of the online engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Preemptive (`P`): all candidates compete for budget each chronon.
    /// Non-preemptive (`NP`): EIs of already-probed CEIs are served first;
    /// new CEIs only get leftover budget.
    pub preemptive: bool,
    /// Intra-resource probe sharing (Algorithm 1's `R_ids`): one probe
    /// captures every active candidate EI on the probed resource, and no
    /// budget is wasted re-probing it in the same chronon. `true` is the
    /// paper's algorithm; `false` is an ablation where each probe captures
    /// only the EI it was issued for.
    pub share_probes: bool,
    /// Candidate selection data structure.
    pub selection: SelectionStrategy,
}

impl EngineConfig {
    /// Preemptive execution — the paper's `Φ(P)` mode.
    pub fn preemptive() -> Self {
        EngineConfig {
            preemptive: true,
            share_probes: true,
            selection: SelectionStrategy::Incremental,
        }
    }

    /// Non-preemptive execution — the paper's `Φ(NP)` mode.
    pub fn non_preemptive() -> Self {
        EngineConfig {
            preemptive: false,
            share_probes: true,
            selection: SelectionStrategy::Incremental,
        }
    }

    /// Disables intra-resource probe sharing (ablation).
    pub fn without_probe_sharing(mut self) -> Self {
        self.share_probes = false;
        self
    }

    /// Selects candidates through a fresh linear scan per probe (the
    /// reference implementation).
    pub fn with_scan(mut self) -> Self {
        self.selection = SelectionStrategy::Scan;
        self
    }

    /// Sets the candidate selection data structure.
    pub fn with_selection(mut self, selection: SelectionStrategy) -> Self {
        self.selection = selection;
        self
    }

    /// No-op kept for source compatibility: the engine is serial, and one
    /// shard was always exactly the serial engine. Returns `self`
    /// unchanged for any count.
    #[must_use]
    pub fn with_shards(self, _shards: u32) -> Self {
        self
    }

    /// Suffix used in experiment tables: `"(P)"` or `"(NP)"`.
    pub fn label(self) -> &'static str {
        if self.preemptive {
            "(P)"
        } else {
            "(NP)"
        }
    }
}

/// The outcome of one online run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The probes the engine issued.
    pub schedule: Schedule,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Per-CEI outcome, indexed by [`CeiId`].
    pub outcomes: Vec<CeiOutcome>,
}

/// Lifecycle of a CEI inside the engine. Per-EI capture progress lives in
/// the [`CandidateIndex`]'s flat flag arrays, so this is one byte per CEI.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Release chronon not reached yet.
    NotArrived,
    /// Released; its EIs' capture flags are being tracked.
    Active,
    /// Its `required` EIs were captured.
    Captured,
    /// Too many EIs expired uncaptured.
    Failed,
    /// Cancelled mid-run through the mutation API; never resolves.
    Cancelled,
}

/// The online complex-monitoring engine. See the [module docs](crate::engine)
/// for the per-chronon procedure.
pub struct OnlineEngine;

impl OnlineEngine {
    /// Runs `policy` over `instance` in the given mode and returns the
    /// schedule, statistics, and per-CEI outcomes.
    ///
    /// Equivalent to [`run_observed`](Self::run_observed) with a
    /// [`NoopObserver`] — the observer monomorphizes away, so this path
    /// costs exactly what it did before observability existed.
    pub fn run(instance: &Instance, policy: &dyn Policy, config: EngineConfig) -> RunResult {
        Self::run_observed(instance, policy, config, &mut NoopObserver)
    }

    /// Runs `policy` over `instance`, streaming typed [`Event`]s to
    /// `observer` (see [`crate::obs`] for the event vocabulary and
    /// ordering guarantees). The event stream is deterministic: a pure
    /// function of `(instance, policy, config)`.
    ///
    /// Equivalent to [`run_driven`](Self::run_driven) with [`NoFaults`] and
    /// an inactive [`ScriptedMutations::default`] — the disabled fault model
    /// and mutation source monomorphize every fault and mutation branch
    /// away, so this path costs exactly what it did before either existed.
    pub fn run_observed<O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        observer: &mut O,
    ) -> RunResult {
        Self::run_driven(
            instance,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            &mut ScriptedMutations::default(),
            observer,
        )
    }

    /// Runs `policy` over `instance` under a fault model and a mid-run
    /// [`MutationSource`] — a prerecorded
    /// [`MutationQueue`](super::MutationQueue) compiled with
    /// [`ScriptedMutations::compile`], or the live registration feed the
    /// `webmon serve` daemon splices into the loop. Equivalent to
    /// [`run_driven_resumable`](Self::run_driven_resumable) without resume
    /// state or snapshot sink; the fault and mutation semantics are
    /// documented there.
    pub fn run_driven<F: FaultModel, M: MutationSource, O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: &mut F,
        fault_config: FaultConfig,
        mutations: &mut M,
        observer: &mut O,
    ) -> RunResult {
        Self::run_driven_resumable(
            instance,
            policy,
            config,
            faults,
            fault_config,
            mutations,
            observer,
            None,
            &mut NoSnapshots,
        )
    }

    /// The one implementation of the run loop: runs `policy` over
    /// `instance` under a fault model, a mid-run mutation source, and
    /// crash-recovery hooks.
    ///
    /// **Faults.** Per chronon, the engine first advances `faults`,
    /// snapshots each resource's committed outage horizon, and announces
    /// [`Event::ResourceDown`] / [`Event::ResourceUp`] transitions. Down
    /// and backed-off resources are excluded from candidate selection. A
    /// selected probe is then submitted to the model: on failure the engine
    /// emits [`Event::ProbeFailed`] (charging the probe's cost against the
    /// chronon budget iff [`FaultConfig::failures_cost`]), tracks the
    /// resource's consecutive-failure count for retry/backoff, and selects
    /// again; on success the normal capture path runs. Retry attempts (a
    /// probe on a resource with consecutive failures) announce themselves
    /// with [`Event::ProbeRetried`] and respect the optional per-chronon
    /// [`FaultConfig::retry_quota`]. After the natural expiry pass, the
    /// engine sheds CEIs whose remaining uncaptured windows fall entirely
    /// within committed outages ([`Event::CeiShed`]) — under AND/threshold
    /// semantics they are provably doomed, so burning further probes on
    /// them would only starve feasible CEIs. With [`NoFaults`] every fault
    /// branch monomorphizes away.
    ///
    /// **Mutations.** The engine samples [`MutationSource::active`] once at
    /// run start: an inactive source (such as [`ScriptedMutations::default`]
    /// or an empty compiled queue) takes the exact mutation-free fast path.
    /// An active source is drained once per chronon, immediately after
    /// [`Event::ChrononStart`] and before fault announcements, arrivals, and
    /// probing; the drained mutations apply in source order:
    ///
    /// * [`Mutation::Register`] — the CEI activates with release chronon
    ///   `= now` ([`Event::CeiRegistered`]). Windows already closed are
    ///   expired on the spot (if that alone dooms the CEI it fails
    ///   immediately, [`Event::CeiExpired`]); currently-open windows join
    ///   the candidate pool now; future windows ride the prebuilt
    ///   `starts[t]` buckets. Cost is O(own EIs), never O(pool). A *dynamic*
    ///   CEI ([`MutationSource::suppresses_release`]; for a compiled queue,
    ///   any CEI named by a `Register` in it) has its natural release from
    ///   the instance trace suppressed.
    /// * [`Mutation::Cancel`] — a live (or not-yet-released) CEI resolves
    ///   as [`CeiOutcome::Cancelled`] ([`Event::CeiCancelled`]); its
    ///   windows leave the pool through the same incremental-removal path
    ///   captures and expiries use. Pending retry state (failure streaks,
    ///   backoff deadlines) on resources the cancellation emptied is
    ///   dropped, so the per-chronon retry quota is not spent on profiles
    ///   nobody wants anymore.
    /// * [`Mutation::SetBudget`] — replaces the per-chronon budget with a
    ///   uniform value effective **exactly from the next chronon**
    ///   ([`Event::BudgetReconfigured`]); the current chronon keeps the
    ///   budget its `ChrononStart` announced.
    ///
    /// An always-active source that never drains anything and never
    /// suppresses is bit-identical to an inactive one (activity only gates
    /// a per-chronon drain that applies no mutations).
    ///
    /// **Recovery.** The engine offers an [`EngineSnapshot`] to `snapshots`
    /// at every chronon boundary, and `resume` restores a previously
    /// captured snapshot so the loop starts at its boundary chronon instead
    /// of 0. Identity contract (pinned by `tests/tests/recovery.rs`):
    /// capturing a snapshot at boundary `S` during a run and replaying
    /// `resume = Some(snapshot)` with the same instance, policy, config,
    /// fault model state, and per-chronon mutations reproduces chronons
    /// `S..horizon` bit-identically — schedule, stats, outcomes, and event
    /// stream suffix. A declining sink and `resume = None` are bit-identical
    /// to [`run_driven`](Self::run_driven).
    ///
    /// **Determinism.** Every shipped [`FaultModel`] is a pure function of
    /// its seed and parameters, so the run — schedule, event stream, stats
    /// — is a pure function of
    /// `(instance, policy, config, model, fault_config, mutations)`.
    ///
    /// # Panics
    /// Panics if `resume` disagrees with `instance` on CEI count, resource
    /// count, or horizon — a snapshot only resumes the run it was taken
    /// from.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    pub fn run_driven_resumable<F: FaultModel, M: MutationSource, O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: &mut F,
        fault_config: FaultConfig,
        mutations: &mut M,
        observer: &mut O,
        resume: Option<&EngineSnapshot>,
        snapshots: &mut dyn SnapshotSink,
    ) -> RunResult {
        let n_ceis = instance.ceis.len();
        let n_res = instance.n_resources as usize;
        let horizon = instance.epoch.len();

        // The heap selectors re-score a popped entry and re-push it when the
        // stored score went stale; that loop only terminates for policies
        // whose score is a pure function of the visible state. A policy with
        // hidden mutable state ([`Policy::stable_scores`] `== false`, e.g.
        // the `Random` baseline) is pinned to the always-correct `Scan`
        // selector instead.
        let selection = if policy.stable_scores() {
            config.selection
        } else {
            SelectionStrategy::Scan
        };
        // The candidate pool, grouped by resource with incremental removal
        // and live counts, plus every EI's capture flags and static
        // resource. Allocated once and reused for the whole run.
        let mut index = CandidateIndex::new(instance);

        // A declared time-invariant order keeps the heap across chronons.
        let mut keyed = match selection {
            SelectionStrategy::Incremental => policy
                .key_order()
                .map(|order| KeyedHeaps::new(order, config.preemptive, index.n_eis())),
            SelectionStrategy::Scan => None,
        };

        // Bucket EIs by start chronon so each enters the pool exactly when
        // its window opens, and by end chronon so the expiry pass visits
        // only the windows closing now instead of scanning the whole pool.
        // Both buckets keep pool order (see `window_buckets`).
        let (starts, ends) = window_buckets(&instance.ceis, horizon);

        let mut status = vec![Status::NotArrived; n_ceis];
        let mut outcomes = vec![CeiOutcome::Pending; n_ceis];
        let mut schedule = Schedule::new(instance.n_resources, instance.epoch);
        // `probes_available` accumulates the effective per-chronon budget
        // inside the loop: equal to `budget.total_over(horizon)` on
        // unmutated runs, and correct under mid-run `SetBudget`.
        let mut stats = RunStats {
            n_ceis: n_ceis as u64,
            n_eis: index.n_eis() as u64,
            ..Default::default()
        };

        // Mutation state: sampled once so an inactive source keeps the
        // mutation-free paths at one branch per chronon and nothing else.
        // `drained` is the reusable per-chronon drain buffer.
        let mutations_on = mutations.active();
        let mut drained: Vec<Mutation> = Vec::new();
        // A drained `SetBudget` parks here and becomes the override at the
        // next chronon boundary — reconfiguration never applies mid-chronon.
        let mut budget_override: Option<u32> = None;
        let mut pending_budget: Option<u32> = None;

        // Every buffer below is allocated once here and reused for the
        // whole run.
        let mut active_snapshot = vec![0u32; n_res];
        let mut has_update = vec![false; n_res];
        let mut probed_now = vec![false; n_res];
        // Non-preemptive mode's cands⁺ membership, frozen per chronon: a
        // CEI whose first capture lands during chronon t−1 is queued in
        // `newly_started` and flips at the start of chronon t.
        let mut started_snapshot = vec![false; n_ceis];
        let mut newly_started: Vec<CeiId> = Vec::new();
        let mut transitions: Vec<(CeiId, CeiOutcome)> = Vec::new();
        let mut touched: Vec<CeiId> = Vec::new();
        let mut capture_scratch: Vec<PoolEntry> = Vec::new();
        let mut shed_scratch: Vec<(Chronon, u32, u16)> = Vec::new();
        // Engine-owned heap storage for `SelectionStrategy::Incremental`:
        // cleared, never dropped, between phases.
        let mut heap: ScoreHeap = std::collections::BinaryHeap::new();

        // Fault-injection state. `fault_blocked` is always allocated (the
        // selectors index it unconditionally); the rest is sized to zero
        // for a disabled model so NoFaults pays nothing.
        let fault_on = faults.enabled();
        let n_track = if fault_on { n_res } else { 0 };
        // Committed outage horizon per resource, frozen at chronon start so
        // shedding and the event-driven checker see the same state.
        let mut down_snapshot: Vec<Option<Chronon>> = vec![None; n_track];
        // Last horizon announced via ResourceDown (None while up).
        let mut announced: Vec<Option<Chronon>> = vec![None; n_track];
        let mut consec_failures: Vec<u32> = vec![0; n_track];
        let mut next_attempt_at: Vec<Chronon> = vec![0; n_track];
        let mut fault_blocked: Vec<bool> = vec![false; n_res];

        // Restoring a snapshot replaces every piece of cross-chronon state
        // with the captured boundary's; per-chronon scratch stays freshly
        // allocated and is rebuilt by the loop exactly as the original run
        // rebuilt it.
        let resume_at: Chronon = match resume {
            Some(snap) => {
                assert_eq!(snap.status.len(), n_ceis, "snapshot CEI count mismatch");
                assert_eq!(snap.index.len(), n_res, "snapshot resource count mismatch");
                assert_eq!(
                    snap.schedule.horizon(),
                    horizon,
                    "snapshot horizon mismatch"
                );
                assert!(snap.at < horizon, "snapshot boundary beyond the epoch");
                for (i, state) in snap.status.iter().enumerate() {
                    status[i] = match state {
                        CeiState::NotArrived => Status::NotArrived,
                        CeiState::Active { captured, expired } => {
                            assert_eq!(
                                captured.len(),
                                instance.ceis[i].size(),
                                "snapshot capture flags disagree with CEI {i}'s size"
                            );
                            index.restore_flags(CeiId(i as u32), captured, expired);
                            Status::Active
                        }
                        CeiState::Captured => Status::Captured,
                        CeiState::Failed => Status::Failed,
                        CeiState::Cancelled => Status::Cancelled,
                    };
                }
                outcomes.copy_from_slice(&snap.outcomes);
                stats = snap.stats.clone();
                schedule = snap.schedule.clone();
                budget_override = snap.budget_override;
                pending_budget = snap.pending_budget;
                if fault_on {
                    announced.copy_from_slice(&snap.announced);
                    consec_failures.copy_from_slice(&snap.consec_failures);
                    next_attempt_at.copy_from_slice(&snap.next_attempt_at);
                }
                // Refill the per-resource candidate lists in recorded order:
                // shared captures fire in list order, so insertion order is
                // part of the observable state.
                for (r, entries) in snap.index.iter().enumerate() {
                    for &(cei, ei_idx) in entries {
                        let e = PoolEntry {
                            cei: CeiId(cei),
                            ei_idx,
                        };
                        debug_assert_eq!(index.resource(e).index(), r);
                        index.insert(e);
                    }
                }
                for (i, (started, &s)) in started_snapshot.iter_mut().zip(&status).enumerate() {
                    *started = s == Status::Active && index.n_captured(CeiId(i as u32)) > 0;
                }
                // The keyed heaps are not part of the snapshot: their current
                // copies are exactly the live entries, so deferring every
                // live entry restores everything selection can observe.
                if let Some(k) = keyed.as_mut() {
                    for r in 0..n_res {
                        for &e in index.entries(r) {
                            if index.is_live(e) {
                                k.defer(&index, &started_snapshot, e);
                            }
                        }
                    }
                }
                snap.at
            }
            None => 0,
        };

        for t in resume_at..horizon {
            // Offer the boundary state before any of chronon t's work —
            // including the pending-budget promotion just below, which is
            // chronon t's first action and must replay after a restore.
            if snapshots.wants(t) {
                snapshots.accept(snapshot_state(
                    t,
                    instance,
                    &index,
                    &status,
                    &outcomes,
                    &stats,
                    &schedule,
                    budget_override,
                    pending_budget,
                    &announced,
                    &consec_failures,
                    &next_attempt_at,
                ));
            }
            // A budget reconfiguration drained last chronon takes effect
            // exactly now — at the first chronon boundary after its drain.
            if let Some(b) = pending_budget.take() {
                budget_override = Some(b);
            }
            let budget = budget_override.unwrap_or_else(|| instance.budget.at(t));
            stats.probes_available += u64::from(budget);
            observer.on_event(Event::ChrononStart { t, budget });
            let mut retries_used: u32 = 0;

            // CEIs started during the previous chronon join cands⁺; under a
            // keyed order their live entries move to the started heap.
            for id in newly_started.drain(..) {
                if !started_snapshot[id.index()] {
                    started_snapshot[id.index()] = true;
                    if let Some(k) = keyed.as_mut() {
                        k.push_cei(instance, policy, &index, &started_snapshot, id);
                    }
                }
            }

            // -- 0. Drain this chronon's mutations, in queue order, before
            // fault announcements and arrivals so a registration's windows
            // and a cancellation's retry-state cleanup are visible to the
            // whole chronon.
            if mutations_on {
                drained.clear();
                mutations.drain_at(t, &mut drained);
                for &m in &drained {
                    match m {
                        Mutation::Register { cei: id } => {
                            if status[id.index()] != Status::NotArrived {
                                continue; // already live, resolved, or cancelled
                            }
                            let cei = instance.cei(id);
                            // Windows already closed expire on the spot;
                            // open windows (strictly `start < t` — the
                            // `starts[t]` bucket below owns `start == t`)
                            // enter the pool now; future windows ride the
                            // prebuilt buckets. O(own EIs) throughout.
                            for (e, ei) in index.entries_of(id).zip(&cei.eis) {
                                if ei.end < t {
                                    index.mark_expired(e);
                                } else if ei.start < t {
                                    index.insert(e);
                                }
                            }
                            observer.on_event(Event::CeiRegistered { cei: id, at: t });
                            if index.is_doomed(id) {
                                // Registered too late: the already-closed
                                // windows alone make `required` unreachable.
                                let outcome = CeiOutcome::Failed { at: t };
                                status[id.index()] = Status::Failed;
                                outcomes[id.index()] = outcome;
                                stats.record_outcome_of(cei, outcome);
                                observer.on_event(Event::CeiExpired { cei: id, at: t });
                                index.remove_cei(id);
                            } else {
                                status[id.index()] = Status::Active;
                                if let Some(k) = keyed.as_mut() {
                                    k.push_cei(instance, policy, &index, &started_snapshot, id);
                                }
                            }
                        }
                        Mutation::Cancel { cei: id } => {
                            if !matches!(status[id.index()], Status::NotArrived | Status::Active) {
                                continue; // already resolved or cancelled
                            }
                            let outcome = CeiOutcome::Cancelled { at: t };
                            status[id.index()] = Status::Cancelled;
                            outcomes[id.index()] = outcome;
                            stats.record_outcome_of(instance.cei(id), outcome);
                            observer.on_event(Event::CeiCancelled { cei: id, at: t });
                            index.remove_cei(id);
                            // Drop pending retry state on resources the
                            // cancellation emptied: the streak belonged to a
                            // profile nobody wants anymore, and keeping it
                            // would burn backoff delays and the per-chronon
                            // retry quota on dead candidates.
                            if fault_on {
                                for e in index.entries_of(id) {
                                    let r = index.resource(e).index();
                                    if index.live_on(r) == 0 && consec_failures[r] > 0 {
                                        consec_failures[r] = 0;
                                        next_attempt_at[r] = 0;
                                    }
                                }
                            }
                        }
                        Mutation::SetBudget { budget } => {
                            pending_budget = Some(budget);
                            observer.on_event(Event::BudgetReconfigured { t, budget });
                        }
                    }
                }
            }

            if fault_on {
                faults.begin_chronon(t);
                for r in 0..n_res {
                    let id = ResourceId(r as u32);
                    let d = faults.down_until(id);
                    down_snapshot[r] = d;
                    match d {
                        Some(until) => {
                            // Announce new outages and extensions of the
                            // committed horizon; a steady commitment stays
                            // silent.
                            if announced[r] != Some(until) {
                                observer.on_event(Event::ResourceDown {
                                    t,
                                    resource: id,
                                    until,
                                });
                                announced[r] = Some(until);
                            }
                        }
                        None => {
                            if announced[r].take().is_some() {
                                observer.on_event(Event::ResourceUp { t, resource: id });
                            }
                        }
                    }
                    fault_blocked[r] = d.is_some()
                        || t < next_attempt_at[r]
                        || (consec_failures[r] > 0 && fault_config.retry_quota == Some(0));
                }
            }

            // -- 1. Arrivals: η(j) joins cands(η). Dynamic CEIs (named by a
            // `Register` anywhere in the queue) skip their natural release —
            // their registration drain is their release — and a CEI
            // cancelled before its release stays cancelled.
            for &id in instance.released_at(t) {
                if mutations_on && mutations.suppresses_release(id) {
                    continue;
                }
                if status[id.index()] == Status::NotArrived {
                    status[id.index()] = Status::Active;
                }
            }

            // -- 2–4. Amortized tombstone sweep, then EIs whose window
            // opens now join cands(I) (every entry in `starts[t]` has
            // `start == t`, so its resource gains a fresh update for the
            // policy context), then the occupancy snapshot — scores must see
            // the chronon-start occupancy even while captures land
            // mid-probing, matching the legacy scan-once semantics. The live
            // total is frozen after as the candidate-set size selection
            // competes over. Under a keyed order an opening only joins its
            // class's queue: it is keyed when that class is next consulted.
            index.sweep();
            has_update.fill(false);
            for &e in starts.at(t) {
                if status[e.cei.index()] == Status::Active {
                    let r = index.insert(e);
                    has_update[r] = true;
                    if let Some(k) = keyed.as_mut() {
                        k.defer(&index, &started_snapshot, e);
                    }
                }
            }
            active_snapshot.copy_from_slice(index.active_now());
            let pool_size = index.live();
            if let Some(k) = keyed.as_mut() {
                k.compact(instance, policy, &index, &started_snapshot);
            }

            // -- 5. probeEIs: select up to C_j resources by repeated argmin,
            // skipping resources blocked by outages, backoff, or quota.
            probed_now.fill(false);
            let mut used: u32 = 0;
            let mut selection_steps: u32 = 0;
            let phases: &[Option<bool>] = if config.preemptive {
                &[None]
            } else {
                &[Some(true), Some(false)]
            };

            for (class, &phase) in phases.iter().enumerate() {
                let ctx = PolicyContext {
                    now: t,
                    resources: ResourceStats {
                        active_eis: &active_snapshot,
                        has_update: &has_update,
                    },
                };
                // Without a declared key order, the heap selector seeds
                // once per phase with current scores, walking the index in
                // ascending resource order; sibling captures can *lower*
                // M-EDF scores, and a lazily validated heap never
                // re-prioritizes buried entries on its own, so captures
                // refresh the touched CEIs below.
                if selection == SelectionStrategy::Incremental && keyed.is_none() {
                    heap.clear();
                    let snapshot = phase.map(|req| (req, started_snapshot.as_slice()));
                    for r in 0..n_res {
                        for &e in index.entries(r) {
                            if !index.is_live(e) {
                                continue;
                            }
                            if let Some(score) =
                                score_entry(instance, policy, &ctx, &index, &status, e, snapshot)
                            {
                                heap.push(std::cmp::Reverse((score, e.cei.0, e.ei_idx)));
                            }
                        }
                    }
                }
                // A keyed class is consulted only if its phase starts with
                // budget left; only then are its queued openings keyed.
                if let Some(k) = keyed.as_mut() {
                    if used < budget {
                        k.key_deferred(instance, policy, &index, &started_snapshot, class);
                    }
                }

                while used < budget {
                    let remaining = budget - used;
                    let snapshot = phase.map(|req| (req, started_snapshot.as_slice()));
                    let best = match (keyed.as_mut(), selection) {
                        (Some(k), _) => k.pop(
                            instance,
                            policy,
                            &index,
                            &started_snapshot,
                            class,
                            &probed_now,
                            &fault_blocked,
                            remaining,
                            &mut selection_steps,
                        ),
                        (None, SelectionStrategy::Scan) => argmin_candidate(
                            instance,
                            policy,
                            &ctx,
                            &index,
                            &status,
                            &probed_now,
                            &fault_blocked,
                            remaining,
                            snapshot,
                            &mut selection_steps,
                        ),
                        (None, SelectionStrategy::Incremental) => pop_valid(
                            instance,
                            policy,
                            &ctx,
                            &mut heap,
                            &index,
                            &status,
                            &probed_now,
                            &fault_blocked,
                            remaining,
                            snapshot,
                            &mut selection_steps,
                        ),
                    };
                    let Some(best) = best else {
                        break;
                    };

                    // Probe the selected EI's resource; with sharing on, the
                    // probe captures every active candidate EI on that
                    // resource (R_ids).
                    let resource = index.resource(best);
                    let cost = instance.costs.of(resource);

                    // Submit the attempt to the fault model before touching
                    // the schedule: a failed probe never captures and is
                    // never recorded as issued.
                    if fault_on {
                        let ri = resource.index();
                        let attempt = consec_failures[ri];
                        if attempt > 0 {
                            observer.on_event(Event::ProbeRetried {
                                t,
                                resource,
                                attempt,
                            });
                            retries_used += 1;
                        }
                        let succeeded = faults.probe_succeeds(t, resource, attempt);
                        if succeeded {
                            consec_failures[ri] = 0;
                        } else {
                            consec_failures[ri] = attempt + 1;
                            stats.probes_failed += 1;
                            let charged = fault_config.failures_cost;
                            if charged {
                                used += cost;
                                stats.budget_lost += u64::from(cost);
                            }
                            if !charged || cost == 0 {
                                // A failure that consumes no budget must not
                                // re-enter selection this chronon, or the
                                // loop would spin on the same candidate.
                                fault_blocked[ri] = true;
                            }
                            if let Some(backoff) = fault_config.backoff {
                                next_attempt_at[ri] = t.saturating_add(backoff.delay(attempt + 1));
                                fault_blocked[ri] = true;
                            }
                            observer.on_event(Event::ProbeFailed {
                                t,
                                resource,
                                cost,
                                attempt,
                                charged,
                            });
                        }
                        // Once the retry quota is spent, every resource with
                        // a failure streak leaves selection for the chronon.
                        if fault_config.retry_quota.is_some_and(|q| retries_used >= q) {
                            for (blocked, &streak) in fault_blocked.iter_mut().zip(&consec_failures)
                            {
                                if streak > 0 {
                                    *blocked = true;
                                }
                            }
                        }
                        if !succeeded {
                            // The heap consumed this entry on pop; re-seed it
                            // if its resource can still be selected, so both
                            // strategies keep the identical schedule. A
                            // persistent heap keeps it either way (a blocked
                            // one is set aside when popped again).
                            if let Some(k) = keyed.as_mut() {
                                k.push_entry(instance, policy, &index, &started_snapshot, best);
                            } else if selection == SelectionStrategy::Incremental
                                && !fault_blocked[ri]
                            {
                                let snapshot = phase.map(|req| (req, started_snapshot.as_slice()));
                                if let Some(score) = score_entry(
                                    instance, policy, &ctx, &index, &status, best, snapshot,
                                ) {
                                    heap.push(std::cmp::Reverse((score, best.cei.0, best.ei_idx)));
                                }
                            }
                            continue;
                        }
                    }

                    schedule.probe(resource, t);
                    used += cost;
                    stats.probes_used += 1;
                    stats.budget_spent += u64::from(cost);

                    // Announce the probe with its sharing fan-out before the
                    // per-EI capture events. The fan-out is the resource's
                    // live count — every live entry there is capturable.
                    if observer.enabled() {
                        let shared_eis = if config.share_probes {
                            index.live_on(resource.index())
                        } else {
                            1
                        };
                        observer.on_event(Event::ProbeIssued {
                            t,
                            resource,
                            cost,
                            shared_eis,
                        });
                    }

                    touched.clear();
                    if config.share_probes {
                        probed_now[resource.index()] = true;
                        capture_resource(
                            instance,
                            &mut index,
                            &mut capture_scratch,
                            &mut status,
                            resource.index(),
                            t,
                            &mut stats,
                            &mut outcomes,
                            &mut transitions,
                            &mut touched,
                            observer,
                        );
                    } else {
                        capture_single(
                            instance,
                            &mut index,
                            best,
                            &mut status,
                            t,
                            &mut stats,
                            &mut outcomes,
                            observer,
                        );
                        touched.push(best.cei);
                    }

                    // A first capture moves a CEI into cands⁺ from the next
                    // chronon on.
                    if !config.preemptive {
                        newly_started
                            .extend(touched.iter().filter(|id| !started_snapshot[id.index()]));
                    }

                    // Refresh heap priorities of CEIs whose capture state
                    // just changed: push their remaining live entries at
                    // their new (never higher) scores or keys; stale copies
                    // are skipped on pop. The liveness flag restricts the
                    // refresh to entries actually in the pool (an EI whose
                    // window has not opened yet must not enter selection).
                    if let Some(k) = keyed.as_mut() {
                        if k.order.changes_on_capture {
                            for &id in &touched {
                                k.push_cei(instance, policy, &index, &started_snapshot, id);
                            }
                        }
                    } else if selection == SelectionStrategy::Incremental {
                        let snapshot = phase.map(|req| (req, started_snapshot.as_slice()));
                        for id in &touched {
                            for e in index.entries_of(*id) {
                                if !index.is_live(e) || probed_now[index.resource(e).index()] {
                                    continue;
                                }
                                if let Some(score) = score_entry(
                                    instance, policy, &ctx, &index, &status, e, snapshot,
                                ) {
                                    heap.push(std::cmp::Reverse((score, e.cei.0, e.ei_idx)));
                                }
                            }
                        }
                    }
                }
                if let Some(k) = keyed.as_mut() {
                    k.end_phase(class);
                }
            }

            // Post-probing snapshot events. `pool_size` froze the live
            // count the chronon's selection competed over (captures now
            // remove entries as they land); the deferred count — live EIs
            // left unserved once the budget ran out or nothing affordable
            // remained — is whatever is still live, O(1) from the index
            // instead of the legacy pool scan.
            if observer.enabled() {
                observer.on_event(Event::CandidateSet {
                    t,
                    size: pool_size,
                    heap_pops: selection_steps,
                });
                let deferred = index.live();
                if deferred > 0 {
                    observer.on_event(Event::BudgetExhausted { t, deferred });
                }
            }

            // -- 6. Expiry: EIs closing uncaptured at t doom their CEI once
            // fewer than `required` EIs can still be captured (with the
            // paper's AND semantics: on the first expiry). Only the windows
            // closing at t are visited — their bucket keeps pool order.
            transitions.clear();
            for &e in ends.at(t) {
                if !index.is_live(e) {
                    continue; // never entered, captured, or already removed
                }
                debug_assert!(status[e.cei.index()] == Status::Active);
                if index.mark_expired(e) {
                    index.remove(e);
                    if index.is_doomed(e.cei) {
                        transitions.push((e.cei, CeiOutcome::Failed { at: t }));
                    }
                }
            }
            for &(id, outcome) in &transitions {
                if status[id.index()] == Status::Active {
                    status[id.index()] = Status::Failed;
                    outcomes[id.index()] = outcome;
                    stats.record_outcome_of(instance.cei(id), outcome);
                    observer.on_event(Event::CeiExpired { cei: id, at: t });
                    index.remove_cei(id);
                }
            }

            // -- 6b. Graceful degradation: an uncaptured EI whose whole
            // remaining window sits inside a committed outage is
            // unreachable; marking it expired sheds CEIs that can no longer
            // meet their threshold, after the natural pass so a CEI doomed
            // by a real window close always reports CeiExpired, not CeiShed.
            if fault_on {
                // Collect candidates from the down resources' lists, then
                // restore the legacy pool order before the stateful pass.
                shed_scratch.clear();
                for (r, d) in down_snapshot.iter().enumerate() {
                    let Some(until) = *d else {
                        continue;
                    };
                    for e in index.entries(r) {
                        if !index.is_live(*e) {
                            continue;
                        }
                        let ei = instance.cei(e.cei).eis[e.ei_idx as usize];
                        // `end <= t`: the natural expiry pass owns closed
                        // windows (a live entry's window is open anyway).
                        if ei.end > t && until >= ei.end {
                            shed_scratch.push((ei.start, e.cei.0, e.ei_idx));
                        }
                    }
                }
                shed_scratch.sort_unstable();
                transitions.clear();
                for &(_, cei_id, ei_idx) in shed_scratch.iter() {
                    let e = PoolEntry {
                        cei: CeiId(cei_id),
                        ei_idx,
                    };
                    if status[e.cei.index()] != Status::Active {
                        continue;
                    }
                    if index.mark_expired(e) {
                        index.remove(e);
                        if index.is_doomed(e.cei) {
                            transitions.push((e.cei, CeiOutcome::Failed { at: t }));
                        }
                    }
                }
                for &(id, outcome) in &transitions {
                    if status[id.index()] == Status::Active {
                        status[id.index()] = Status::Failed;
                        outcomes[id.index()] = outcome;
                        stats.record_outcome_of(instance.cei(id), outcome);
                        stats.ceis_shed += 1;
                        observer.on_event(Event::CeiShed { cei: id, at: t });
                        index.remove_cei(id);
                    }
                }
            }

            observer.on_event(Event::ChrononEnd {
                t,
                spent: used,
                budget,
            });
        }

        // Any CEI still unresolved at epoch end is recorded as pending so
        // the size histogram sums to n_ceis. This is reached by CEIs the
        // trace never releases inside the epoch (`NotArrived`) and by CEIs
        // whose unreleased-at-expiry EIs never joined the pool, so no
        // expiry event ever doomed them (`Active`).
        for (i, s) in status.iter().enumerate() {
            if matches!(s, Status::Active | Status::NotArrived) {
                stats.record_outcome_of(&instance.ceis[i], CeiOutcome::Pending);
            }
        }

        RunResult {
            schedule,
            stats,
            outcomes,
        }
    }
}

/// Builds the [`EngineSnapshot`] of the boundary of chronon `t`: every
/// piece of cross-chronon state, with the candidate index recorded as live
/// entries in per-resource list order (the order shared captures fire in).
#[allow(clippy::too_many_arguments)]
fn snapshot_state(
    t: Chronon,
    instance: &Instance,
    index: &CandidateIndex,
    status: &[Status],
    outcomes: &[CeiOutcome],
    stats: &RunStats,
    schedule: &Schedule,
    budget_override: Option<u32>,
    pending_budget: Option<u32>,
    announced: &[Option<Chronon>],
    consec_failures: &[u32],
    next_attempt_at: &[Chronon],
) -> EngineSnapshot {
    let n_res = instance.n_resources as usize;
    let mut per_resource: Vec<Vec<(u32, u16)>> = Vec::with_capacity(n_res);
    for r in 0..n_res {
        let mut live = Vec::new();
        for e in index.entries(r) {
            if index.is_live(*e) {
                live.push((e.cei.0, e.ei_idx));
            }
        }
        per_resource.push(live);
    }
    EngineSnapshot {
        at: t,
        status: status
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                Status::NotArrived => CeiState::NotArrived,
                Status::Active => CeiState::Active {
                    captured: index.captured(CeiId(i as u32)).to_vec(),
                    expired: index.expired(CeiId(i as u32)).to_vec(),
                },
                Status::Captured => CeiState::Captured,
                Status::Failed => CeiState::Failed,
                Status::Cancelled => CeiState::Cancelled,
            })
            .collect(),
        outcomes: outcomes.to_vec(),
        stats: stats.clone(),
        schedule: schedule.clone(),
        budget_override,
        pending_budget,
        announced: announced.to_vec(),
        consec_failures: consec_failures.to_vec(),
        next_attempt_at: next_attempt_at.to_vec(),
        index: per_resource,
    }
}

/// The policy's view of a pool entry whose parent is active and whose EI
/// is neither captured nor expired; `None` otherwise.
fn candidate<'a>(
    instance: &'a Instance,
    index: &'a CandidateIndex,
    status: &[Status],
    e: PoolEntry,
) -> Option<Candidate<'a>> {
    if status[e.cei.index()] != Status::Active || !index.is_open(e) {
        return None;
    }
    Some(view(instance, index, e))
}

/// The policy's view of a pool entry, unchecked: the caller knows the entry
/// is capturable (a live entry always is).
fn view<'a>(instance: &'a Instance, index: &'a CandidateIndex, e: PoolEntry) -> Candidate<'a> {
    let cei = instance.cei(e.cei);
    Candidate {
        ei: cei.eis[e.ei_idx as usize],
        ei_index: e.ei_idx as usize,
        cei: CeiView {
            eis: &cei.eis,
            captured: index.captured(e.cei),
            n_captured: index.n_captured(e.cei),
            required: cei.required,
            weight: cei.weight,
            profile_rank: instance.profiles[cei.profile.index()].rank,
        },
    }
}

/// Scores one pool entry if it is live and phase-eligible: parent active,
/// EI uncaptured and unexpired. Returns `None` otherwise.
fn score_entry(
    instance: &Instance,
    policy: &dyn Policy,
    ctx: &PolicyContext<'_>,
    index: &CandidateIndex,
    status: &[Status],
    e: PoolEntry,
    phase: Option<(bool, &[bool])>,
) -> Option<i64> {
    if let Some((required, snapshot)) = phase {
        if snapshot[e.cei.index()] != required {
            return None;
        }
    }
    Some(policy.score(ctx, &candidate(instance, index, status, e)?))
}

/// The current [`Policy::order_key`] of a live pool entry.
fn key_of(instance: &Instance, policy: &dyn Policy, index: &CandidateIndex, e: PoolEntry) -> i64 {
    debug_assert!(index.is_live(e), "only live entries are keyed");
    policy
        .order_key(&view(instance, index, e))
        .expect("a keyed policy keys every candidate")
}

/// Phase class of the started (cands⁺) heap, and of every entry in
/// preemptive mode.
const STARTED: usize = 0;
/// Phase class of the fresh-CEI heap (non-preemptive mode only).
const FRESH: usize = 1;

/// The persistent selection state of a policy with a time-invariant order
/// ([`Policy::key_order`]): one min-heap of `(order key, cei, ei index)` per
/// phase class, kept across chronons, plus one queue per class of openings
/// not keyed yet.
///
/// An opening is *deferred*: it joins its class's queue unkeyed, and is keyed
/// and pushed only when that class is about to pop
/// ([`key_deferred`](Self::key_deferred), at the start of a phase with budget
/// left). Under Φ(NP) the started class usually spends the whole budget, so
/// most fresh openings expire before the fresh class is consulted and are
/// never keyed; a queued entry found dead is dropped.
///
/// Invariant: outside a phase, every live entry has exactly one *current*
/// copy across heaps ∪ queues — queued in its current class (marked in
/// `queued`), or at its current key in the heap of its current class;
/// during a phase, a current copy popped and found ineligible sits in
/// `aside` instead. A cands⁺ join or a re-key leaves an entry queued in its
/// current class where it is (it is keyed at its then-current key when
/// drained) and otherwise pushes a fresh current copy, unmarking the entry
/// so a queued copy in its old class goes stale. Every other copy (dead,
/// out of phase, stale key, unmarked) is discarded when met and dropped by
/// [`compact`](Self::compact). Because key order equals score order and
/// ties break on `(cei, ei index)` as in [`argmin_candidate`], the first
/// eligible current copy popped is the `Scan` argmin; and because only
/// current copies count as selection steps, `heap_pops` is a function of
/// the live state, so a run resumed from a snapshot (which re-defers every
/// live entry) counts exactly what the uninterrupted run counted.
struct KeyedHeaps {
    order: KeyOrder,
    preemptive: bool,
    heaps: [ScoreHeap; 2],
    /// Deferred entries per class, unkeyed; buffers reused across chronons.
    queues: [Vec<PoolEntry>; 2],
    /// Per global EI id: `1 + class` while the entry's current copy waits
    /// in that class's queue, 0 otherwise.
    queued: Vec<u8>,
    /// Current copies popped this phase but blocked or unaffordable;
    /// re-pushed when the phase ends.
    aside: Vec<(i64, u32, u16)>,
}

impl KeyedHeaps {
    fn new(order: KeyOrder, preemptive: bool, n_eis: usize) -> Self {
        KeyedHeaps {
            order,
            preemptive,
            heaps: [ScoreHeap::new(), ScoreHeap::new()],
            queues: [Vec::new(), Vec::new()],
            queued: vec![0; n_eis],
            aside: Vec::new(),
        }
    }

    /// The phase class of a CEI's entries this chronon.
    fn class(&self, started: &[bool], id: CeiId) -> usize {
        if self.preemptive || started[id.index()] {
            STARTED
        } else {
            FRESH
        }
    }

    /// Queues a live entry's current copy, unkeyed, in its class's queue.
    fn defer(&mut self, index: &CandidateIndex, started: &[bool], e: PoolEntry) {
        let class = self.class(started, e.cei);
        self.queued[index.gid(e)] = class as u8 + 1;
        self.queues[class].push(e);
    }

    /// Keys a live entry and pushes its current copy into its class's heap.
    fn push_entry(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        index: &CandidateIndex,
        started: &[bool],
        e: PoolEntry,
    ) {
        self.queued[index.gid(e)] = 0;
        let key = key_of(instance, policy, index, e);
        let class = self.class(started, e.cei);
        self.heaps[class].push(std::cmp::Reverse((key, e.cei.0, e.ei_idx)));
    }

    /// Renews the current copies of a CEI's live entries: on registration,
    /// on joining cands⁺, and after a capture re-keys its siblings. An
    /// entry still queued in its current class keeps its queued copy.
    fn push_cei(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        index: &CandidateIndex,
        started: &[bool],
        id: CeiId,
    ) {
        let queued_here = self.class(started, id) as u8 + 1;
        for e in index.entries_of(id) {
            if index.is_live(e) && self.queued[index.gid(e)] != queued_here {
                self.push_entry(instance, policy, index, started, e);
            }
        }
    }

    /// Whether a queued entry is the current copy of a live entry of
    /// `class`.
    fn is_queued(&self, index: &CandidateIndex, class: usize, e: PoolEntry) -> bool {
        index.is_live(e) && self.queued[index.gid(e)] == class as u8 + 1
    }

    /// Keys every current queued entry of `class` into its heap, dropping
    /// the rest; called when the class is about to pop.
    fn key_deferred(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        index: &CandidateIndex,
        started: &[bool],
        class: usize,
    ) {
        let mut queue = std::mem::take(&mut self.queues[class]);
        for &e in &queue {
            if self.is_queued(index, class, e) {
                self.push_entry(instance, policy, index, started, e);
            }
        }
        queue.clear();
        self.queues[class] = queue;
    }

    /// Whether a heap copy is the current one of a live entry of `class`.
    #[allow(clippy::too_many_arguments)]
    fn is_current(
        &self,
        instance: &Instance,
        policy: &dyn Policy,
        index: &CandidateIndex,
        started: &[bool],
        class: usize,
        (key, cei, ei_idx): (i64, u32, u16),
    ) -> bool {
        let e = PoolEntry {
            cei: CeiId(cei),
            ei_idx,
        };
        index.is_live(e)
            && self.class(started, e.cei) == class
            && (!self.order.changes_on_capture || key_of(instance, policy, index, e) == key)
    }

    /// Pops the minimum eligible entry of `class`: non-current copies are
    /// discarded, and current ones on probed, blocked, or unaffordable
    /// resources are set aside for the rest of the phase (none of those
    /// conditions lifts within a chronon). Each current copy popped counts
    /// as one selection step toward [`Event::CandidateSet`].
    #[allow(clippy::too_many_arguments)]
    fn pop(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        index: &CandidateIndex,
        started: &[bool],
        class: usize,
        probed_now: &[bool],
        blocked: &[bool],
        remaining_budget: u32,
        steps: &mut u32,
    ) -> Option<PoolEntry> {
        while let Some(std::cmp::Reverse(item)) = self.heaps[class].pop() {
            if !self.is_current(instance, policy, index, started, class, item) {
                continue; // dead, out of phase, or superseded by a re-key
            }
            *steps += 1;
            let (_, cei, ei_idx) = item;
            let e = PoolEntry {
                cei: CeiId(cei),
                ei_idx,
            };
            let resource = index.resource(e);
            if probed_now[resource.index()]
                || blocked[resource.index()]
                || instance.costs.of(resource) > remaining_budget
            {
                self.aside.push(item);
                continue;
            }
            return Some(e);
        }
        None
    }

    /// Re-pushes the entries set aside during the phase of `class`.
    fn end_phase(&mut self, class: usize) {
        self.heaps[class].extend(self.aside.drain(..).map(std::cmp::Reverse));
    }

    /// Drops every non-current copy from a class heap or queue whose length
    /// exceeds `2 × live + HEAP_SLACK`. Each copy is dropped at most once,
    /// and a compaction leaves at most `live` copies, so the amortized cost
    /// is O(1) per push.
    fn compact(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        index: &CandidateIndex,
        started: &[bool],
    ) {
        let bound = 2 * index.live() as usize + HEAP_SLACK;
        for class in [STARTED, FRESH] {
            if self.heaps[class].len() > bound {
                let mut heap = std::mem::take(&mut self.heaps[class]);
                heap.retain(|&std::cmp::Reverse(item)| {
                    self.is_current(instance, policy, index, started, class, item)
                });
                self.heaps[class] = heap;
                #[cfg(test)]
                heap_probe::record_compaction(heap_probe::Kind::Heap);
            }
            if self.queues[class].len() > bound {
                let mut queue = std::mem::take(&mut self.queues[class]);
                queue.retain(|&e| self.is_queued(index, class, e));
                self.queues[class] = queue;
                #[cfg(test)]
                heap_probe::record_compaction(heap_probe::Kind::Queue);
            }
        }
        #[cfg(test)]
        {
            let longest = |lens: [usize; 2]| lens[0].max(lens[1]);
            heap_probe::record(
                heap_probe::Kind::Heap,
                longest([self.heaps[0].len(), self.heaps[1].len()]),
                bound,
            );
            heap_probe::record(
                heap_probe::Kind::Queue,
                longest([self.queues[0].len(), self.queues[1].len()]),
                bound,
            );
        }
    }
}

/// Test-only instrumentation of the keyed heaps' and deferred queues'
/// compaction bound.
#[cfg(test)]
mod heap_probe {
    use std::cell::Cell;

    /// Which keyed store a record is about.
    #[derive(Clone, Copy)]
    pub(super) enum Kind {
        Heap = 0,
        Queue = 1,
    }

    /// One store's record: peak length − bound at the start of a chronon's
    /// selection (`None` if no keyed run recorded one), and compactions.
    #[derive(Debug, Default, Clone, Copy)]
    pub(super) struct Probe {
        pub(super) peak_excess: Option<i64>,
        pub(super) compactions: u32,
    }

    thread_local! {
        static PROBES: Cell<[Probe; 2]> = const {
            Cell::new([Probe { peak_excess: None, compactions: 0 }; 2])
        };
    }

    fn update(kind: Kind, f: impl FnOnce(&mut Probe)) {
        PROBES.with(|p| {
            let mut probes = p.get();
            f(&mut probes[kind as usize]);
            p.set(probes);
        });
    }

    /// Records the longest class heap or queue a chronon's selection starts
    /// from, against the compaction bound.
    pub(super) fn record(kind: Kind, len: usize, bound: usize) {
        let excess = len as i64 - bound as i64;
        update(kind, |p| {
            p.peak_excess = Some(p.peak_excess.map_or(excess, |e| e.max(excess)));
        });
    }

    pub(super) fn record_compaction(kind: Kind) {
        update(kind, |p| p.compactions += 1);
    }

    /// Returns and resets the `[heap, queue]` records of this thread.
    pub(super) fn take() -> [Probe; 2] {
        PROBES.with(|p| p.replace([Probe::default(); 2]))
    }
}

/// Scans the index for the minimum-score live candidate. Ties break by
/// `(score, cei id, ei index)` so runs are deterministic regardless of
/// iteration order. Each call counts as one selection step toward
/// [`Event::CandidateSet`].
#[allow(clippy::too_many_arguments)]
fn argmin_candidate(
    instance: &Instance,
    policy: &dyn Policy,
    ctx: &PolicyContext<'_>,
    index: &CandidateIndex,
    status: &[Status],
    probed_now: &[bool],
    blocked: &[bool],
    remaining_budget: u32,
    phase: Option<(bool, &[bool])>,
    steps: &mut u32,
) -> Option<PoolEntry> {
    *steps += 1;
    let mut best: Option<(i64, PoolEntry)> = None;
    for r in 0..probed_now.len() {
        if probed_now[r] {
            continue; // already captured by an earlier probe this chronon
        }
        if blocked[r] {
            continue; // down, backing off, or out of retry quota
        }
        if instance.costs.of(ResourceId(r as u32)) > remaining_budget {
            continue; // unaffordable this chronon (varying-costs extension)
        }
        for e in index.entries(r) {
            if !index.is_live(*e) {
                continue;
            }
            let Some(score) = score_entry(instance, policy, ctx, index, status, *e, phase) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((s, b)) => (score, e.cei.0, e.ei_idx) < (*s, b.cei.0, b.ei_idx),
            };
            if better {
                best = Some((score, *e));
            }
        }
    }
    best.map(|(_, e)| e)
}

/// Pops the minimum-score live candidate from the lazy heap, re-pushing
/// entries whose stored score went stale (a sibling capture this chronon
/// changed it). Tie ordering matches [`argmin_candidate`]. Each pop counts
/// as one selection step toward [`Event::CandidateSet`].
#[allow(clippy::too_many_arguments)]
fn pop_valid(
    instance: &Instance,
    policy: &dyn Policy,
    ctx: &PolicyContext<'_>,
    heap: &mut ScoreHeap,
    index: &CandidateIndex,
    status: &[Status],
    probed_now: &[bool],
    blocked: &[bool],
    remaining_budget: u32,
    phase: Option<(bool, &[bool])>,
    steps: &mut u32,
) -> Option<PoolEntry> {
    while let Some(std::cmp::Reverse((stored, cei, ei_idx))) = heap.pop() {
        *steps += 1;
        let e = PoolEntry {
            cei: CeiId(cei),
            ei_idx,
        };
        let resource = index.resource(e);
        if probed_now[resource.index()] {
            continue; // captured earlier this chronon
        }
        if blocked[resource.index()] {
            continue; // down, backing off, or out of retry quota
        }
        let Some(current) = score_entry(instance, policy, ctx, index, status, e, phase) else {
            continue; // no longer live
        };
        if current != stored {
            heap.push(std::cmp::Reverse((current, cei, ei_idx)));
            continue; // stale score: reinsert at its true priority
        }
        if instance.costs.of(resource) > remaining_budget {
            continue; // unaffordable for the rest of this chronon
        }
        return Some(e);
    }
    None
}

/// Marks every live pool EI on `resource` as captured by the probe at
/// chronon `t`, completing CEIs whose last required EI this was. Liveness
/// implies an active window and an `Active` parent (see `engine::index`),
/// so every live entry on the probed resource is captured and the list
/// empties wholesale: it is swapped out for iteration, cleared with its
/// capacity kept, and swapped back.
#[allow(clippy::too_many_arguments)]
fn capture_resource<O: Observer>(
    instance: &Instance,
    index: &mut CandidateIndex,
    scratch: &mut Vec<PoolEntry>,
    status: &mut [Status],
    resource: usize,
    t: Chronon,
    stats: &mut RunStats,
    outcomes: &mut [CeiOutcome],
    completed: &mut Vec<(CeiId, CeiOutcome)>,
    touched: &mut Vec<CeiId>,
    observer: &mut O,
) {
    completed.clear();
    std::mem::swap(scratch, index.list_mut(resource));
    for e in scratch.iter() {
        if !index.is_live(*e) {
            continue; // tombstone awaiting a sweep
        }
        debug_assert!(
            status[e.cei.index()] == Status::Active,
            "live entry with a resolved parent"
        );
        debug_assert!(index.resource(*e).index() == resource);
        debug_assert!(instance.cei(e.cei).eis[e.ei_idx as usize].is_active(t));
        if index.capture(*e) {
            index.mark_captured(*e, resource);
            stats.eis_captured += 1;
            // The capture latency is the one per-EI fact read from the
            // instance itself; only an observer that wants events pays it.
            if observer.enabled() {
                let start = instance.cei(e.cei).eis[e.ei_idx as usize].start;
                observer.on_event(Event::EiCaptured {
                    t,
                    cei: e.cei,
                    latency: t - start,
                });
            }
            if !touched.contains(&e.cei) {
                touched.push(e.cei);
            }
            // Record completion exactly once: when this capture crosses the
            // threshold (under threshold semantics `meets` stays true for
            // every further capture in the same probe).
            if index.n_captured(e.cei) == index.required(e.cei) {
                completed.push((e.cei, CeiOutcome::Captured { at: t }));
            }
        }
    }
    scratch.clear();
    std::mem::swap(scratch, index.list_mut(resource));
    index.reset_cleared(resource);
    for &(id, outcome) in completed.iter() {
        status[id.index()] = Status::Captured;
        outcomes[id.index()] = outcome;
        stats.record_outcome_of(instance.cei(id), outcome);
        observer.on_event(Event::CeiCompleted { cei: id, at: t });
        // The completed CEI's entries on other resources leave the pool now.
        index.remove_cei(id);
    }
}

/// Ablation path (`share_probes = false`): a probe captures only the EI it
/// was issued for.
#[allow(clippy::too_many_arguments)]
fn capture_single<O: Observer>(
    instance: &Instance,
    index: &mut CandidateIndex,
    entry: PoolEntry,
    status: &mut [Status],
    t: Chronon,
    stats: &mut RunStats,
    outcomes: &mut [CeiOutcome],
    observer: &mut O,
) {
    if status[entry.cei.index()] != Status::Active {
        return;
    }
    if index.capture(entry) {
        index.remove(entry);
        stats.eis_captured += 1;
        if observer.enabled() {
            let start = instance.cei(entry.cei).eis[entry.ei_idx as usize].start;
            observer.on_event(Event::EiCaptured {
                t,
                cei: entry.cei,
                latency: t - start,
            });
        }
        if index.n_captured(entry.cei) == index.required(entry.cei) {
            let outcome = CeiOutcome::Captured { at: t };
            status[entry.cei.index()] = Status::Captured;
            outcomes[entry.cei.index()] = outcome;
            stats.record_outcome_of(instance.cei(entry.cei), outcome);
            observer.on_event(Event::CeiCompleted {
                cei: entry.cei,
                at: t,
            });
            index.remove_cei(entry.cei);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MutationQueue;
    use crate::model::{Budget, CeiId, InstanceBuilder};
    use crate::policy::{MEdf, Mrsf, SEdf};
    use crate::serve::snapshot::SnapshotSink;
    use crate::stats::CeiOutcome;

    fn run_sedf(instance: &Instance) -> RunResult {
        OnlineEngine::run(instance, &SEdf, EngineConfig::preemptive())
    }

    #[test]
    fn single_ei_cei_is_captured() {
        let mut b = InstanceBuilder::new(1, 5, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 3)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 1 });
        // S-EDF probes the moment the window opens.
        assert!(r.schedule.is_probed(crate::model::ResourceId(0), 1));
    }

    #[test]
    fn conjunctive_cei_requires_all_eis() {
        // Two EIs on different resources, same single chronon, budget 1:
        // only one can be probed → the CEI fails.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1), (1, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 0);
        assert_eq!(r.stats.ceis_failed, 1);
        assert_eq!(r.stats.eis_captured, 1);
        assert_eq!(r.outcomes[0], CeiOutcome::Failed { at: 1 });
    }

    #[test]
    fn staggered_windows_allow_full_capture_with_budget_one() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2), (1, 3, 5)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.stats.probes_used, 2);
    }

    #[test]
    fn one_probe_captures_overlapping_eis_on_same_resource() {
        // Two CEIs, each one EI on resource 0, overlapping at chronon 2.
        let mut b = InstanceBuilder::new(1, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2)]);
        b.cei(p, &[(0, 2, 5)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        // S-EDF probes r0 at chronon... EI0 deadline first: probe at 0
        // captures only EI0 (EI1 not open). EI1 captured later. Either way
        // both captured with ≤ 2 probes.
        assert_eq!(r.stats.ceis_captured, 2);
        // With intra-resource sharing a probe at chronon 2 would capture
        // both; S-EDF (earliest deadline) probes at 0, so 2 probes are used.
        assert!(r.stats.probes_used <= 2);
    }

    #[test]
    fn probe_sharing_captures_across_ceis_in_one_chronon() {
        // Both EIs live only at chronon 1 on the same resource: one probe,
        // two captures.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 2);
        assert_eq!(r.stats.probes_used, 1);
    }

    #[test]
    fn budget_zero_captures_nothing() {
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(0));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 0);
        assert_eq!(r.stats.probes_used, 0);
        assert_eq!(r.stats.ceis_failed, 1);
    }

    #[test]
    fn per_chronon_budget_is_respected() {
        let mut b = InstanceBuilder::new(3, 3, Budget::PerChronon(vec![0, 3, 0]));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2)]);
        b.cei(p, &[(1, 0, 2)]);
        b.cei(p, &[(2, 0, 2)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 3);
        assert_eq!(r.schedule.probes_at(1).len(), 3);
        assert!(r.schedule.probes_at(0).is_empty());
        assert!(r.schedule.is_feasible(&inst.budget));
    }

    #[test]
    fn schedule_is_always_feasible() {
        let mut b = InstanceBuilder::new(4, 20, Budget::Uniform(2));
        let p = b.profile();
        for k in 0..6u32 {
            let s = k * 3;
            b.cei(p, &[(k % 4, s, s + 2), ((k + 1) % 4, s + 1, s + 4)]);
        }
        let inst = b.build();
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let r = OnlineEngine::run(&inst, policy, config);
                assert!(r.schedule.is_feasible(&inst.budget));
                assert_eq!(
                    r.stats.ceis_captured + r.stats.ceis_failed,
                    r.stats.n_ceis,
                    "all CEIs resolve by epoch end"
                );
            }
        }
    }

    #[test]
    fn non_preemptive_prioritizes_started_ceis() {
        // CEI A (2 EIs): first EI captured at chronon 0. Its second EI and
        // new CEI B's only EI are both live at chronon 2 on different
        // resources, B with the tighter deadline. NP must finish A first.
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 0), (1, 2, 5)]); // A
        b.cei(p, &[(0, 2, 2)]); // B: tight deadline, S-EDF would pick it
        let inst = b.build();

        let np = OnlineEngine::run(&inst, &SEdf, EngineConfig::non_preemptive());
        // NP: chronon 0 probes r0 (captures A.0 and... B not open yet).
        // Chronon 2: A started → phase 1 probes r1 for A; B expires.
        assert_eq!(np.outcomes[0], CeiOutcome::Captured { at: 2 });
        assert_eq!(np.outcomes[1], CeiOutcome::Failed { at: 2 });

        let p_run = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        // P: chronon 2 S-EDF prefers B (deadline 1 < A's 4); A finishes at 3.
        assert_eq!(p_run.outcomes[1], CeiOutcome::Captured { at: 2 });
        assert_eq!(p_run.outcomes[0], CeiOutcome::Captured { at: 3 });
    }

    #[test]
    fn release_before_window_defers_probing() {
        let mut b = InstanceBuilder::new(1, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei_released(p, 0, &[(0, 4, 5)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        // No probe before the window opens.
        for t in 0..4 {
            assert!(r.schedule.probes_at(t).is_empty());
        }
    }

    #[test]
    fn mrsf_finishes_near_complete_cei_first() {
        // CEI A has 2 EIs (one already capturable at chronon 0); CEI B has 3.
        // At the contended chronon, MRSF sticks with A.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let pa = b.profile();
        b.cei(pa, &[(0, 0, 0), (0, 2, 4)]);
        let pb = b.profile();
        b.cei(pb, &[(1, 2, 4), (1, 5, 6), (1, 7, 8)]);
        let inst = b.build();
        let r = OnlineEngine::run(&inst, &Mrsf, EngineConfig::preemptive());
        // Both can be fully captured here (disjoint resources), but A first.
        assert!(r.outcomes[0].is_captured());
        assert!(r.outcomes[1].is_captured());
    }

    #[test]
    fn without_sharing_one_probe_captures_one_ei() {
        // Two unit CEIs on the same resource at the same chronon, C = 1:
        // with sharing both are captured by one probe; without it, only the
        // selected one.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();

        let shared = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        assert_eq!(shared.stats.ceis_captured, 2);

        let unshared = OnlineEngine::run(
            &inst,
            &SEdf,
            EngineConfig::preemptive().without_probe_sharing(),
        );
        assert_eq!(unshared.stats.ceis_captured, 1);
        assert_eq!(unshared.stats.probes_used, 1);
    }

    #[test]
    fn without_sharing_duplicate_probes_consume_budget() {
        // Same-resource overlap at one chronon with C = 2: the ablation
        // spends both probes on r0 to capture both EIs.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();
        let r = OnlineEngine::run(
            &inst,
            &SEdf,
            EngineConfig::preemptive().without_probe_sharing(),
        );
        assert_eq!(r.stats.ceis_captured, 2);
        // Two selections, but the physical schedule holds one probe.
        assert_eq!(r.stats.probes_used, 2);
        assert_eq!(r.schedule.total_probes(), 1);
    }

    #[test]
    fn threshold_cei_captured_by_subset() {
        // A 1-of-2 CEI whose EIs collide at the same chronon on different
        // resources with C = 1: AND semantics fails it, threshold succeeds.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei_threshold(p, 1, &[(0, 1, 1), (1, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 1 });
    }

    #[test]
    fn threshold_cei_survives_one_expiry() {
        // 2-of-3 with one unreachable window (budget 0 at its only chronon
        // via per-chronon budget): the CEI still completes on the others.
        let mut b = InstanceBuilder::new(
            3,
            10,
            Budget::PerChronon(vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 1]),
        );
        let p = b.profile();
        b.cei_threshold(p, 2, &[(0, 1, 1), (1, 3, 4), (2, 6, 7)]);
        let inst = b.build();
        let r = OnlineEngine::run(&inst, &Mrsf, EngineConfig::preemptive());
        assert!(r.outcomes[0].is_captured(), "outcomes: {:?}", r.outcomes);
        assert_eq!(r.stats.eis_captured, 2);
    }

    #[test]
    fn threshold_cei_fails_once_doomed() {
        // Requires 2 captures; with zero budget the CEI is doomed exactly
        // when the second-to-last window closes.
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(0));
        let p = b.profile();
        b.cei_threshold(p, 2, &[(0, 1, 1), (1, 2, 2), (2, 8, 9)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        // t=1: one expiry, 2 windows possible >= 2 -> alive;
        // t=2: second expiry, 1 possible < 2 -> failed at 2.
        assert_eq!(r.outcomes[0], CeiOutcome::Failed { at: 2 });
    }

    #[test]
    fn weighted_stats_accumulate_utilities() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei_weighted(p, 3.0, &[(0, 0, 1)]);
        b.cei_weighted(p, 1.0, &[(0, 3, 3), (1, 3, 3)]); // fails (C=1)
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert!((r.stats.weight_total - 4.0).abs() < 1e-9);
        assert!((r.stats.weight_captured - 3.0).abs() < 1e-9);
        assert!((r.stats.weighted_completeness() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn utility_weighted_policy_prioritizes_heavy_ceis() {
        use crate::policy::UtilityWeighted;
        // Two identical unit CEIs competing for one probe; the heavy one
        // must win under the utility-weighted policy.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei_weighted(p, 1.0, &[(0, 1, 1)]);
        b.cei_weighted(p, 5.0, &[(1, 1, 1)]);
        let inst = b.build();

        let plain = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        // Tie-break by id: the light CEI wins under the unweighted policy.
        assert!(plain.outcomes[0].is_captured());
        assert!(!plain.outcomes[1].is_captured());

        let weighted = UtilityWeighted::new(SEdf, "U-S-EDF");
        let run = OnlineEngine::run(&inst, &weighted, EngineConfig::preemptive());
        assert!(!run.outcomes[0].is_captured());
        assert!(run.outcomes[1].is_captured());
        assert!(run.stats.weighted_completeness() > plain.stats.weighted_completeness());
    }

    #[test]
    fn varying_costs_constrain_selection() {
        use crate::model::ProbeCosts;
        // r0 costs 2, r1 costs 1; budget 2 per chronon. Both unit CEIs live
        // at chronon 1 only: probing r0 exhausts the budget, so only one of
        // the two can be captured — unless the policy picks r1 first, in
        // which case r0 (cost 2 > remaining 1) is unaffordable.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(1, 1, 1)]);
        let inst = b.build().with_costs(ProbeCosts::per_resource(vec![2, 1]));
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.stats.budget_spent, 2);
        // With uniform costs the same instance captures both.
        let uniform = b_uniform();
        let r2 = run_sedf(&uniform);
        assert_eq!(r2.stats.ceis_captured, 2);

        fn b_uniform() -> Instance {
            let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(2));
            let p = b.profile();
            b.cei(p, &[(0, 1, 1)]);
            b.cei(p, &[(1, 1, 1)]);
            b.build()
        }
    }

    #[test]
    fn unaffordable_resource_is_skipped_not_blocking() {
        use crate::model::ProbeCosts;
        // r0 costs 3 > budget 2 — never probeable; r1 must still be served.
        let mut b = InstanceBuilder::new(2, 4, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 1, 2)]);
        b.cei(p, &[(1, 1, 2)]);
        let inst = b.build().with_costs(ProbeCosts::per_resource(vec![3, 1]));
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert!(r.outcomes[1].is_captured());
        assert!(!r.outcomes[0].is_captured());
    }

    /// A contended multi-EI workload where intra-chronon captures shift
    /// MRSF / M-EDF sibling scores, exercising the heap refresh paths.
    fn contended_instance() -> Instance {
        let mut b = InstanceBuilder::new(5, 30, Budget::Uniform(3));
        let p = b.profile();
        for k in 0..12u32 {
            let s = (k * 2) % 24;
            b.cei(p, &[(k % 5, s, s + 3), ((k + 2) % 5, s + 1, s + 5)]);
        }
        for k in 0..8u32 {
            let s = (k * 3) % 20;
            b.cei(
                p,
                &[
                    (k % 5, s, s + 4),
                    ((k + 1) % 5, s + 1, s + 6),
                    ((k + 3) % 5, s + 2, s + 8),
                ],
            );
        }
        b.build()
    }

    #[test]
    fn unstable_scores_fall_back_to_scan_selection() {
        use crate::policy::RandomPolicy;
        // Regression: `RandomPolicy` re-scores the same candidate to a new
        // value on every call, so the heap selectors' stale-entry re-push
        // loop never terminated (the selection-step counter overflowed).
        // The engine must pin unstable-score policies to `Scan`: the run
        // completes, and the default heap selector produces the `Scan`
        // result bit for bit (same RNG draw sequence ⇒ same schedule).
        let inst = contended_instance();
        for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let scan = OnlineEngine::run(&inst, &RandomPolicy::new(7), base.with_scan());
            let run = OnlineEngine::run(&inst, &RandomPolicy::new(7), base);
            assert_eq!(scan.schedule, run.schedule, "{base:?}: schedules diverge");
            assert_eq!(scan.stats, run.stats);
            assert_eq!(scan.outcomes, run.outcomes);
        }
    }

    #[test]
    fn incremental_is_the_default_selection() {
        assert_eq!(
            EngineConfig::preemptive().selection,
            SelectionStrategy::Incremental
        );
        assert_eq!(
            EngineConfig::non_preemptive().selection,
            SelectionStrategy::Incremental
        );
        assert_eq!(SelectionStrategy::default(), SelectionStrategy::Incremental);
    }

    #[test]
    fn incremental_matches_scan_on_structured_instances() {
        use crate::policy::{MEdf, Wic};
        // Beyond schedule equality, the full event stream — per-probe
        // fan-outs, captures, candidate-set sizes — must match the
        // reference's, except for the strategy-specific selection-step
        // count (`heap_pops`).
        fn masked(events: Vec<Event>) -> Vec<Event> {
            events
                .into_iter()
                .map(|e| match e {
                    Event::CandidateSet { t, size, .. } => Event::CandidateSet {
                        t,
                        size,
                        heap_pops: 0,
                    },
                    other => other,
                })
                .collect()
        }
        let inst = contended_instance();
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
            for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                for variant in [base, base.without_probe_sharing()] {
                    let label = format!("{} {variant:?}", policy.name());
                    let mut scan_events = EventRecorder::default();
                    let scan = OnlineEngine::run_observed(
                        &inst,
                        policy,
                        variant.with_scan(),
                        &mut scan_events,
                    );
                    let mut inc_events = EventRecorder::default();
                    let inc = OnlineEngine::run_observed(&inst, policy, variant, &mut inc_events);
                    assert_eq!(scan.schedule, inc.schedule, "{label}: schedules diverge");
                    assert_eq!(scan.stats, inc.stats, "{label}");
                    assert_eq!(scan.outcomes, inc.outcomes, "{label}");
                    assert_eq!(
                        masked(scan_events.0),
                        masked(inc_events.0),
                        "{label}: event streams diverge"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_lazy_heap_trace_bytes() {
        use crate::obs::JsonlTraceObserver;
        // The full event stream of the contended instance — heap pop
        // counts included — is pinned per policy (P then NP trace bytes).
        const LAZY_HEAP_TRACE_CRC: [(&str, u32); 3] = [
            ("S-EDF", 0x7c12_d674),
            ("MRSF", 0xe672_0df6),
            ("M-EDF", 0x090b_03ae),
        ];
        let inst = contended_instance();
        for (policy, (name, recorded)) in [&SEdf as &dyn Policy, &Mrsf, &MEdf]
            .into_iter()
            .zip(LAZY_HEAP_TRACE_CRC)
        {
            assert_eq!(policy.name(), name);
            let mut bytes = Vec::new();
            for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let mut trace = JsonlTraceObserver::new(Vec::<u8>::new());
                OnlineEngine::run_observed(&inst, policy, base, &mut trace);
                bytes.extend_from_slice(&trace.finish().expect("in-memory write"));
            }
            let crc = webmon_streams::crc32(&bytes);
            assert_eq!(crc, recorded, "{name}: {crc:#010x}");
        }
    }

    /// Mid-run churn over [`contended_instance`]: registrations (one with
    /// an already-open window), cancellations of live CEIs, and budget
    /// changes.
    fn contended_churn() -> MutationQueue {
        let mut q = MutationQueue::new();
        q.register(4, CeiId(3))
            .cancel(3, CeiId(12))
            .cancel(6, CeiId(2))
            .set_budget(8, 2)
            .register(9, CeiId(15))
            .set_budget(14, 3)
            .register(22, CeiId(10));
        q
    }

    #[test]
    fn keyed_heaps_resume_bit_identically_at_every_boundary() {
        use crate::fault::{Backoff, IidFaults};
        use crate::obs::JsonlTraceObserver;
        use crate::serve::snapshot::CaptureAt;
        // The keyed heaps are not in `EngineSnapshot`: a resumed run
        // reseeds them from the index. Because only current copies count
        // as selection steps, resuming at *any* boundary must reproduce
        // the uninterrupted run's trace suffix byte for byte, `heap_pops`
        // included — under faults with backoff (set-aside and re-pushed
        // entries) and churn (registration pushes, cancelled copies).
        let inst = contended_instance();
        let horizon = inst.epoch.len();
        let churn = contended_churn();
        let faults = FaultConfig::charged().with_backoff(Backoff::new(1, 4));
        for policy in [&SEdf as &dyn Policy, &Mrsf] {
            assert!(policy.key_order().is_some(), "{}", policy.name());
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let run = |resume: Option<&EngineSnapshot>, sink: &mut dyn SnapshotSink| {
                    let mut source = ScriptedMutations::compile(&churn, horizon, inst.ceis.len());
                    let mut trace = JsonlTraceObserver::new(Vec::<u8>::new());
                    let result = OnlineEngine::run_driven_resumable(
                        &inst,
                        policy,
                        config,
                        &mut IidFaults::new(0.3, 0x5EED),
                        faults,
                        &mut source,
                        &mut trace,
                        resume,
                        sink,
                    );
                    (result, trace.finish().expect("in-memory write"))
                };
                let mut sink = CaptureAt::new((0..horizon).collect());
                let (full, full_trace) = run(None, &mut sink);
                assert_eq!(sink.taken.len(), horizon as usize);
                let label = format!("{} {}", policy.name(), config.label());
                assert!(full.stats.probes_failed > 0, "{label}: no fault exercised");
                for snap in &sink.taken {
                    let (resumed, trace) = run(Some(snap), &mut NoSnapshots);
                    let first_line = trace.split(|&b| b == b'\n').next().expect("a line");
                    let at = full_trace
                        .windows(first_line.len())
                        .position(|w| w == first_line)
                        .expect("the resumed boundary is in the full trace");
                    assert_eq!(
                        &full_trace[at..],
                        &trace[..],
                        "{label}: resumed at {} diverges",
                        snap.at
                    );
                    assert_eq!(full.schedule, resumed.schedule, "{label} at {}", snap.at);
                    assert_eq!(full.stats, resumed.stats, "{label} at {}", snap.at);
                    assert_eq!(full.outcomes, resumed.outcomes, "{label} at {}", snap.at);
                }
            }
        }
    }

    #[test]
    fn keyed_heap_length_stays_bounded_on_a_long_churned_mrsf_run() {
        // MRSF re-keys every surviving sibling on capture, so stale and
        // dead copies pile up below the heap's top instead of draining
        // through it the way S-EDF's expired deadlines do. Compaction must
        // hold every class heap to `2 × live + HEAP_SLACK` at the start of
        // each chronon's selection.
        let (n_res, horizon) = (12u32, 1500u32);
        let mut b = InstanceBuilder::new(n_res, horizon, Budget::Uniform(2));
        let p = b.profile();
        let mut n_ceis = 0u32;
        for s in (0..horizon - 40).step_by(2) {
            for j in 0..4u32 {
                let r = (s / 2 + j * 5) % n_res;
                b.cei(
                    p,
                    &[
                        (r, s, s + 6 + j),
                        ((r + 1) % n_res, s + 2, s + 14),
                        ((r + 4) % n_res, s + 5, s + 25 + j),
                    ],
                );
                n_ceis += 1;
            }
        }
        let inst = b.build();
        let mut churn = MutationQueue::new();
        for k in (0..n_ceis - 1).step_by(7) {
            let release = (k / 4) * 2;
            churn.cancel(release + 3, CeiId(k));
            churn.register(release.saturating_sub(2), CeiId(k + 1));
        }
        heap_probe::take();
        let run = run_churned(
            &inst,
            &Mrsf,
            EngineConfig::preemptive(),
            &churn,
            &mut NoopObserver,
        );
        let [heap, _] = heap_probe::take();
        let (peak_excess, compactions) = (heap.peak_excess, heap.compactions);
        assert!(run.stats.ceis_cancelled > 0 && run.stats.ceis_captured > 0);
        let peak_excess = peak_excess.expect("MRSF takes the keyed path");
        assert!(
            peak_excess <= 0,
            "a class heap exceeded 2 × live + {HEAP_SLACK} by {peak_excess}"
        );
        // Compaction fires only on a heap past the bound, so without it
        // this run's heap would have outgrown the bound.
        assert!(compactions > 0, "the run never outgrew the bound");
    }

    #[test]
    fn deferred_queue_length_stays_bounded_on_a_long_churned_sedf_np_run() {
        // Under Φ(NP) the started class usually spends the budget, so the
        // fresh class goes unconsulted for long stretches and its queue of
        // unkeyed openings fills with entries that expire there.
        // Compaction must hold every class queue to `2 × live +
        // HEAP_SLACK` at the start of each chronon's selection.
        let (n_res, horizon) = (12u32, 1500u32);
        let mut b = InstanceBuilder::new(n_res, horizon, Budget::Uniform(1));
        let p = b.profile();
        let mut n_ceis = 0u32;
        for s in 0..horizon - 40 {
            for j in 0..3u32 {
                let r = (s + j * 5) % n_res;
                b.cei(
                    p,
                    &[
                        (r, s, s + 2 + j),
                        ((r + 1) % n_res, s + 2, s + 9),
                        ((r + 4) % n_res, s + 5, s + 20 + j),
                    ],
                );
                n_ceis += 1;
            }
        }
        let inst = b.build();
        let mut churn = MutationQueue::new();
        for k in (0..n_ceis - 1).step_by(7) {
            let release = k / 3;
            churn.cancel(release + 3, CeiId(k));
            churn.register(release.saturating_sub(2), CeiId(k + 1));
        }
        heap_probe::take();
        let run = run_churned(
            &inst,
            &SEdf,
            EngineConfig::non_preemptive(),
            &churn,
            &mut NoopObserver,
        );
        let [heap, queue] = heap_probe::take();
        assert!(run.stats.ceis_cancelled > 0 && run.stats.ceis_captured > 0);
        for (name, probe) in [("heap", heap), ("queue", queue)] {
            let peak_excess = probe.peak_excess.expect("S-EDF takes the keyed path");
            assert!(
                peak_excess <= 0,
                "a class {name} exceeded 2 × live + {HEAP_SLACK} by {peak_excess}"
            );
        }
        // Compaction fires only on a queue past the bound, so without it
        // this run's fresh queue would have outgrown the bound.
        assert!(
            queue.compactions > 0,
            "the fresh queue never outgrew the bound"
        );
    }

    /// S-EDF that counts its [`Policy::order_key`] calls.
    #[derive(Default)]
    struct CountingSEdf(std::sync::atomic::AtomicU32);

    impl Policy for CountingSEdf {
        fn name(&self) -> &'static str {
            "S-EDF"
        }

        fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
            SEdf.score(ctx, cand)
        }

        fn key_order(&self) -> Option<KeyOrder> {
            SEdf.key_order()
        }

        fn order_key(&self, cand: &Candidate<'_>) -> Option<i64> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            SEdf.order_key(cand)
        }
    }

    /// Blanks the selection-step accounting, the one output the selection
    /// strategies legitimately disagree on.
    fn without_heap_pops(
        mut metrics: crate::obs::RunMetrics,
        trace: &[u8],
    ) -> (crate::obs::RunMetrics, String) {
        metrics.selection_steps = 0;
        let trace = std::str::from_utf8(trace).expect("JSONL traces are UTF-8");
        let mut masked = String::with_capacity(trace.len());
        let mut rest = trace;
        while let Some(at) = rest.find("\"heap_pops\":") {
            let (head, tail) = rest.split_at(at + "\"heap_pops\":".len());
            masked.push_str(head);
            masked.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        masked.push_str(rest);
        (metrics, masked)
    }

    #[test]
    fn fresh_openings_that_expire_unconsulted_are_never_keyed() {
        use crate::obs::{JsonlTraceObserver, MetricsObserver, Tee};
        // Budget 1, Φ(NP). CEI 0 is a chain of one-chronon windows on
        // resources 0..5: its first probe at chronon 0 starts it, and from
        // chronon 1 to 4 its next window takes the whole budget in the
        // started phase, so the fresh phase is not consulted. CEI k
        // (k = 1..=5) is one fresh window on resource 5 over `k−1..=k`.
        let mut b = InstanceBuilder::new(6, 8, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]);
        for k in 1..=5u32 {
            b.cei(p, &[(5, k - 1, k)]);
        }
        let inst = b.build();
        let config = EngineConfig::non_preemptive();
        let observed = |policy: &dyn Policy, config: EngineConfig| {
            let mut metrics = MetricsObserver::new();
            let mut trace = JsonlTraceObserver::new(Vec::<u8>::new());
            let run = OnlineEngine::run_observed(
                &inst,
                policy,
                config,
                &mut Tee(&mut metrics, &mut trace),
            );
            let (metrics, trace) =
                without_heap_pops(metrics.finish(), &trace.finish().expect("in-memory write"));
            (run, metrics, trace)
        };
        let counting = CountingSEdf::default();
        let (run, metrics, trace) = observed(&counting, config);
        // Keyed: CEI 0's five windows (each in the phase that probes it),
        // CEI 1's and CEI 0's first at chronon 0 (the fresh phase), and
        // CEI 5's at chronon 5, once CEI 0 has completed. CEIs 2–4 open
        // and expire while only the started phase runs; keying every
        // opening would have called `order_key` 10 times.
        assert_eq!(counting.0.into_inner(), 7);
        assert_eq!(run.outcomes[0], CeiOutcome::Captured { at: 4 });
        for k in 2..=4 {
            assert_eq!(run.outcomes[k], CeiOutcome::Failed { at: k as u32 });
        }
        assert_eq!(run.outcomes[5], CeiOutcome::Captured { at: 5 });

        let (scan, scan_metrics, scan_trace) = observed(&SEdf, config.with_scan());
        assert_eq!(run.schedule, scan.schedule);
        assert_eq!(run.stats, scan.stats);
        assert_eq!(run.outcomes, scan.outcomes);
        assert_eq!(metrics, scan_metrics);
        assert_eq!(trace, scan_trace);
    }

    #[test]
    fn shared_probe_crossing_threshold_records_once() {
        // Regression: a 1-of-2 CEI whose two EIs sit on the SAME resource at
        // the same chronon — one probe captures both EIs and crosses the
        // threshold twice-over; the completion must be recorded exactly once.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei_threshold(p, 1, &[(0, 1, 1), (0, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.stats.n_ceis, 1);
        assert_eq!(r.stats.eis_captured, 2);
        let total: u64 = r.stats.by_size.values().map(|b| b.total).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn metrics_observer_totals_match_run_stats() {
        use crate::obs::{MetricsObserver, Observer};
        let mut b = InstanceBuilder::new(4, 30, Budget::Uniform(2));
        let p = b.profile();
        for k in 0..10u32 {
            let s = (k * 2) % 24;
            b.cei(p, &[(k % 4, s, s + 3), ((k + 2) % 4, s + 1, s + 5)]);
        }
        let inst = b.build();
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let mut obs = MetricsObserver::new();
                let r = OnlineEngine::run_observed(&inst, policy, config, &mut obs);
                let m = obs.finish();
                assert_eq!(
                    m.consistency_errors(&r.stats),
                    Vec::<String>::new(),
                    "{} {:?}",
                    policy.name(),
                    config
                );
                assert_eq!(m.chronons, 30);
                assert_eq!(m.budget_utilization.count, 30);
                // The observed run is bit-identical to the unobserved one.
                let plain = OnlineEngine::run(&inst, policy, config);
                assert_eq!(plain.schedule, r.schedule);
                assert_eq!(plain.stats, r.stats);
                assert_eq!(plain.outcomes, r.outcomes);
                // enabled() is what gates the extra accounting scans.
                assert!(obs_enabled_probe(policy, config, &inst));
            }
        }

        fn obs_enabled_probe(policy: &dyn Policy, config: EngineConfig, inst: &Instance) -> bool {
            let mut obs = MetricsObserver::new();
            let enabled = obs.enabled();
            OnlineEngine::run_observed(inst, policy, config, &mut obs);
            enabled
        }
    }

    #[test]
    fn event_stream_orders_probe_before_captures() {
        use crate::obs::{Event, Observer};
        #[derive(Default)]
        struct Recorder(Vec<Event>);
        impl Observer for Recorder {
            fn on_event(&mut self, event: Event) {
                self.0.push(event);
            }
        }

        // Two CEIs overlap on resource 0 at chronon 1: one probe, fan-out 2.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();
        let mut rec = Recorder::default();
        OnlineEngine::run_observed(&inst, &SEdf, EngineConfig::preemptive(), &mut rec);

        let kinds: Vec<&str> = rec.0.iter().map(Event::kind).collect();
        // Chronon 1 contains the probe, then both captures, then both
        // completions (captures are marked in pool order before any CEI is
        // resolved, so a shared probe's captures batch ahead).
        let probe_at = kinds.iter().position(|&k| k == "ProbeIssued").unwrap();
        assert_eq!(
            &kinds[probe_at..probe_at + 5],
            &[
                "ProbeIssued",
                "EiCaptured",
                "EiCaptured",
                "CeiCompleted",
                "CeiCompleted"
            ]
        );
        let Event::ProbeIssued { shared_eis, .. } = rec.0[probe_at] else {
            panic!("not a probe");
        };
        assert_eq!(shared_eis, 2);
        // Every chronon opens and closes exactly once.
        assert_eq!(kinds.iter().filter(|&&k| k == "ChrononStart").count(), 3);
        assert_eq!(kinds.iter().filter(|&&k| k == "ChrononEnd").count(), 3);
        assert_eq!(kinds.iter().filter(|&&k| k == "CandidateSet").count(), 3);
    }

    #[test]
    fn budget_exhausted_reports_deferred_candidates() {
        use crate::obs::{Event, Observer};
        #[derive(Default)]
        struct Exhaustions(Vec<(Chronon, u32)>);
        impl Observer for Exhaustions {
            fn on_event(&mut self, event: Event) {
                if let Event::BudgetExhausted { t, deferred } = event {
                    self.0.push((t, deferred));
                }
            }
        }

        // Three unit CEIs on distinct resources, all live only at chronon 1,
        // budget 1: one is served, two are deferred (and then expire).
        let mut b = InstanceBuilder::new(3, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(1, 1, 1)]);
        b.cei(p, &[(2, 1, 1)]);
        let inst = b.build();
        let mut obs = Exhaustions::default();
        OnlineEngine::run_observed(&inst, &SEdf, EngineConfig::preemptive(), &mut obs);
        assert_eq!(obs.0, vec![(1, 2)]);
    }

    #[test]
    fn stats_size_histogram_sums_to_total() {
        let mut b = InstanceBuilder::new(2, 8, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 1)]);
        b.cei(p, &[(0, 2, 3), (1, 2, 3)]);
        b.cei(p, &[(0, 5, 6), (1, 5, 6)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        let total: u64 = r.stats.by_size.values().map(|b| b.total).sum();
        assert_eq!(total, 3);
    }

    #[derive(Default)]
    struct EventRecorder(Vec<crate::obs::Event>);
    impl crate::obs::Observer for EventRecorder {
        fn on_event(&mut self, event: crate::obs::Event) {
            self.0.push(event);
        }
    }

    fn run_churned(
        inst: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        q: &MutationQueue,
        observer: &mut impl Observer,
    ) -> RunResult {
        OnlineEngine::run_driven(
            inst,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            &mut ScriptedMutations::compile(q, inst.epoch.len(), inst.ceis.len()),
            observer,
        )
    }

    #[test]
    fn empty_queue_is_bit_identical_to_unmutated_run() {
        let mut b = InstanceBuilder::new(3, 12, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 3), (1, 2, 6)]);
        b.cei(p, &[(2, 4, 8)]);
        b.cei(p, &[(0, 7, 10), (2, 9, 11)]);
        let inst = b.build();
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let mut plain = EventRecorder::default();
            let r1 = OnlineEngine::run_observed(&inst, &Mrsf, config, &mut plain);
            let mut churnless = EventRecorder::default();
            let r2 = run_churned(&inst, &Mrsf, config, &MutationQueue::new(), &mut churnless);
            assert_eq!(plain.0, churnless.0);
            assert_eq!(r1.schedule, r2.schedule);
            assert_eq!(r1.stats, r2.stats);
            assert_eq!(r1.outcomes, r2.outcomes);
        }
    }

    #[test]
    fn mid_run_registration_activates_with_release_now() {
        // CEI 1 is dynamic: registered at chronon 4 with one window already
        // open (2..=6) and one future window (6..=9). Nothing is probed for
        // it before the registration; both windows are then captured.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 1)]);
        b.cei(p, &[(0, 2, 6), (1, 6, 9)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.register(4, CeiId(1));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert!(r.schedule.probes_at(2).is_empty());
        assert!(r.schedule.probes_at(3).is_empty());
        assert!(r.schedule.is_probed(ResourceId(0), 4));
        assert!(r.schedule.is_probed(ResourceId(1), 6));
        assert_eq!(r.outcomes[1], CeiOutcome::Captured { at: 6 });
    }

    #[test]
    fn dynamic_single_chronon_cei_registered_at_its_only_chronon() {
        // release == deadline for a dynamic CEI: the window (0, 5, 5)
        // registered exactly at 5 rides the starts[5] bucket (processed
        // after the drain) and is capturable that very chronon.
        let mut b = InstanceBuilder::new(1, 8, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 5, 5)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.register(5, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 5 });
        assert_eq!(r.stats.probes_used, 1);

        // Registered one chronon later the window is already closed: the
        // CEI fails on arrival without ever entering the pool.
        let mut late = MutationQueue::new();
        late.register(6, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &late,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Failed { at: 6 });
        assert_eq!(r.stats.probes_used, 0);
        assert_eq!(r.stats.ceis_failed, 1);
    }

    #[test]
    fn cancellation_before_release_prevents_activation() {
        let mut b = InstanceBuilder::new(1, 8, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 4, 7)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.cancel(2, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Cancelled { at: 2 });
        assert_eq!(r.stats.ceis_cancelled, 1);
        assert_eq!(r.stats.probes_used, 0);
    }

    #[test]
    fn cancelling_a_live_cei_redirects_probes() {
        // Budget 1, S-EDF: CEI 0 (deadline 5) wins resource selection over
        // CEI 1 (deadline 9) at chronon 0 — unless CEI 0 is cancelled in
        // the chronon-0 drain, which frees the probe for CEI 1 immediately.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 5)]);
        b.cei(p, &[(1, 0, 9)]);
        let inst = b.build();
        let baseline = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        assert_eq!(baseline.outcomes[1], CeiOutcome::Captured { at: 1 });
        let mut q = MutationQueue::new();
        q.cancel(0, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Cancelled { at: 0 });
        assert_eq!(r.outcomes[1], CeiOutcome::Captured { at: 0 });
    }

    #[test]
    fn budget_reconfiguration_takes_effect_next_chronon() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 5)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.set_budget(2, 3).set_budget(4, 0);
        let mut rec = EventRecorder::default();
        let r = run_churned(&inst, &SEdf, EngineConfig::preemptive(), &q, &mut rec);
        let starts: Vec<(Chronon, u32)> = rec
            .0
            .iter()
            .filter_map(|e| match e {
                Event::ChrononStart { t, budget } => Some((*t, *budget)),
                _ => None,
            })
            .collect();
        // Drained at 2 → effective at 3; drained at 4 → effective at 5.
        assert_eq!(starts, vec![(0, 1), (1, 1), (2, 1), (3, 3), (4, 3), (5, 0)]);
        assert_eq!(r.stats.probes_available, 1 + 1 + 1 + 3 + 3);
    }

    #[test]
    fn cancellation_clears_pending_retry_state() {
        use crate::fault::{Backoff, IidFaults};
        // Resource 0 always fails. CEI 0 draws a failed probe at chronon 0;
        // the streak and backoff (or a zero retry quota) would then block
        // resource 0 long past CEI 1's window opening at 6. Cancelling
        // CEI 0 at chronon 2 empties the resource, so the retry state is
        // dropped and chronon 6's attempt is a fresh, unannounced one.
        let mut b = InstanceBuilder::new(1, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 3)]);
        b.cei(p, &[(0, 6, 9)]);
        let inst = b.build();
        for fc in [
            FaultConfig::default()
                .free_failures()
                .with_backoff(Backoff::new(8, 16)),
            FaultConfig::default().free_failures().with_retry_quota(0),
        ] {
            let mut q = MutationQueue::new();
            q.cancel(2, CeiId(0));
            let mut faults = IidFaults::new(1.0, 0xBAD);
            let mut rec = EventRecorder::default();
            let r = OnlineEngine::run_driven(
                &inst,
                &Mrsf,
                EngineConfig::preemptive(),
                &mut faults,
                fc,
                &mut ScriptedMutations::compile(&q, inst.epoch.len(), inst.ceis.len()),
                &mut rec,
            );
            assert_eq!(r.outcomes[0], CeiOutcome::Cancelled { at: 2 });
            assert!(
                rec.0.iter().any(|e| matches!(
                    e,
                    Event::ProbeFailed {
                        t: 6,
                        attempt: 0,
                        ..
                    }
                )),
                "chronon-6 attempt must be fresh: {:?}",
                rec.0
            );
            assert!(
                !rec.0
                    .iter()
                    .any(|e| matches!(e, Event::ProbeRetried { .. })),
                "no attempt may announce itself as a retry of the cancelled CEI's streak"
            );
        }
    }

    /// Snapshots the contended instance's S-EDF(P) run at the first
    /// boundary with an `Active` CEI, passes that CEI's flags (`captured`,
    /// `expired`) through `corrupt`, and resumes from the corrupted
    /// snapshot.
    fn resume_corrupted(corrupt: impl FnOnce(&mut Vec<bool>, &mut Vec<bool>)) {
        use crate::serve::snapshot::CaptureAt;
        let inst = contended_instance();
        let run = |resume: Option<&EngineSnapshot>, sink: &mut dyn SnapshotSink| {
            OnlineEngine::run_driven_resumable(
                &inst,
                &SEdf,
                EngineConfig::preemptive(),
                &mut NoFaults,
                FaultConfig::default(),
                &mut ScriptedMutations::default(),
                &mut NoopObserver,
                resume,
                sink,
            )
        };
        let mut sink = CaptureAt::new((0..inst.epoch.len()).collect());
        run(None, &mut sink);
        let mut snap = sink
            .taken
            .into_iter()
            .find(|s| {
                s.status
                    .iter()
                    .any(|c| matches!(c, CeiState::Active { .. }))
            })
            .expect("a boundary with an active CEI");
        let Some(CeiState::Active { captured, expired }) = snap
            .status
            .iter_mut()
            .find(|c| matches!(c, CeiState::Active { .. }))
        else {
            unreachable!("the boundary has an active CEI")
        };
        corrupt(captured, expired);
        run(Some(&snap), &mut NoSnapshots);
    }

    #[test]
    #[should_panic(expected = "disagree with CEI")]
    fn restore_rejects_flags_of_the_wrong_size() {
        resume_corrupted(|captured, expired| {
            captured.push(false);
            expired.push(false);
        });
    }

    #[test]
    #[should_panic(expected = "flag vectors must align")]
    fn restore_rejects_misaligned_flag_vectors() {
        resume_corrupted(|_, expired| {
            expired.push(false);
        });
    }

    #[test]
    #[should_panic(expected = "both captured and expired")]
    fn restore_rejects_an_ei_both_captured_and_expired() {
        resume_corrupted(|captured, expired| {
            captured[0] = true;
            expired[0] = true;
        });
    }

    #[test]
    fn strategies_agree_on_same_chronon_double_transitions() {
        // Chronon 2 lands a shared capture on resource 0 while sibling
        // expiries tombstone entries of the same CEIs; the cancellation
        // then drains at chronon 3 while those tombstones may still be
        // unswept. Incremental selection must stay bit-identical to the
        // always-correct Scan through both.
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 2, 2), (1, 2, 2)]);
        b.cei(p, &[(0, 2, 4), (2, 2, 7)]);
        b.cei(p, &[(1, 3, 6)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.cancel(3, CeiId(1));
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let inc = run_churned(&inst, policy, config, &q, &mut NoopObserver);
                let scan = run_churned(&inst, policy, config.with_scan(), &q, &mut NoopObserver);
                assert_eq!(inc.schedule, scan.schedule, "{}", policy.name());
                assert_eq!(inc.stats, scan.stats, "{}", policy.name());
                assert_eq!(inc.outcomes, scan.outcomes, "{}", policy.name());
            }
        }
    }
}
