//! Allocation budget of the engine's run path.
//!
//! `OnlineEngine::run` keeps every piece of per-CEI and per-EI state in
//! flat arrays sized once at run start, so its allocation *count* must not
//! grow with the number of CEIs: a run over four times the CEIs of a base
//! instance (same resources, horizon, and budget) may allocate only a
//! logarithmic number of extra times, for the doubling growth of heaps and
//! scratch vectors. One allocation per released CEI would add thousands.
//!
//! The counting allocator below keeps its counter per thread, so test
//! threads running concurrently in this binary never leak into each
//! other's counts and every count is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use webmon_core::engine::{EngineConfig, OnlineEngine};
use webmon_core::model::{Budget, Chronon, Instance, InstanceBuilder};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf};
use webmon_testkit::corpus::CorpusRng;

/// The system allocator, counting allocations and reallocations made on
/// the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const N_RESOURCES: u32 = 40;
const HORIZON: Chronon = 200;
const BASE_CEIS: u32 = 1_500;

/// `n_ceis` random CEIs of 1–3 EIs (windows of 0–8 chronons, some with an
/// early release) over [`N_RESOURCES`] resources and [`HORIZON`] chronons,
/// budget 3 per chronon.
fn instance(n_ceis: u32, seed: u64) -> Instance {
    let mut rng = CorpusRng::new(seed);
    let mut b = InstanceBuilder::new(N_RESOURCES, HORIZON, Budget::Uniform(3));
    let p = b.profile();
    for _ in 0..n_ceis {
        let eis: Vec<(u32, Chronon, Chronon)> = (0..rng.range(1, 3))
            .map(|_| {
                let start = rng.below(u64::from(HORIZON)) as Chronon;
                let end = (start + rng.below(9) as Chronon).min(HORIZON - 1);
                (rng.below(u64::from(N_RESOURCES)) as u32, start, end)
            })
            .collect();
        let earliest = eis.iter().map(|&(_, s, _)| s).min().expect("non-empty");
        if rng.chance(30) {
            b.cei_released(p, rng.below(u64::from(earliest) + 1) as Chronon, &eis);
        } else {
            b.cei(p, &eis);
        }
    }
    b.build()
}

/// Allocations of one `OnlineEngine::run` (result included, its drop not).
fn run_allocations(inst: &Instance, policy: &dyn Policy, config: EngineConfig) -> u64 {
    let mut result = None;
    let n = allocations_during(|| result = Some(OnlineEngine::run(inst, policy, config)));
    drop(result);
    n
}

#[test]
fn run_allocations_do_not_grow_with_the_cei_count() {
    let base = instance(BASE_CEIS, 11);
    let big = instance(4 * BASE_CEIS, 11);
    assert_eq!(big.n_resources, base.n_resources);
    assert_eq!(big.epoch, base.epoch);
    // Doubling growth of a buffer reaching `4 × BASE_CEIS` elements costs
    // at most its bit length in reallocations; a few heaps and scratch
    // vectors grow that way.
    let bits = u64::from(u32::BITS - (4 * BASE_CEIS).leading_zeros());
    let slack = 8 * bits;
    let policies: [&dyn Policy; 3] = [&SEdf, &Mrsf, &MEdf];
    for policy in policies {
        for config in [
            EngineConfig::preemptive(),
            EngineConfig::non_preemptive(),
            EngineConfig::non_preemptive().with_scan(),
            EngineConfig::preemptive().without_probe_sharing(),
        ] {
            let label = format!("{} {config:?}", policy.name());
            let small = run_allocations(&base, policy, config);
            assert_eq!(
                small,
                run_allocations(&base, policy, config),
                "{label}: the count is deterministic"
            );
            let large = run_allocations(&big, policy, config);
            assert!(
                large <= small + slack,
                "{label}: {large} allocations on {} CEIs vs {small} on {} (slack {slack})",
                big.ceis.len(),
                base.ceis.len()
            );
        }
    }
}
