//! Boundary-condition tests for interval endpoints: probes exactly at
//! `T_s` and `T_f` (windows are **inclusive** on both ends), single-chronon
//! EIs, epoch-edge windows, release == deadline, and exact-budget
//! feasibility — across the pure capture indicators, `evaluate_schedule` /
//! `evaluate_outcomes`, `ScheduleDiagnostics`, and the live engine.
//!
//! Off-by-one regressions in any of these layers change answers silently
//! (a probe at a window's closing chronon is the canonical victim), so
//! every endpoint case is pinned explicitly.

use webmon_core::diagnostics::ScheduleDiagnostics;
use webmon_core::engine::EngineConfig;
use webmon_core::model::{
    ei_capture_chronon, ei_captured, evaluate_outcomes, evaluate_schedule, Budget, Ei, Epoch,
    Instance, InstanceBuilder, ResourceId, Schedule,
};
use webmon_core::policy::Mrsf;
use webmon_core::stats::CeiOutcome;
use webmon_testkit::checks::{assert_engine_invariants, conformant_run};

const R0: ResourceId = ResourceId(0);

fn one_ei_instance(start: u32, end: u32) -> Instance {
    let mut b = InstanceBuilder::new(1, 12, Budget::Uniform(1));
    let p = b.profile();
    b.cei(p, &[(0, start, end)]);
    b.build()
}

fn schedule_with(probes: &[(u32, u32)]) -> Schedule {
    let mut s = Schedule::new(1, Epoch::new(12));
    for &(r, t) in probes {
        s.probe(ResourceId(r), t);
    }
    s
}

/// A probe exactly at `T_s` captures; one chronon earlier does not.
#[test]
fn probe_at_window_open_captures() {
    let ei = Ei::new(R0, 3, 7);
    assert!(ei_captured(ei, &schedule_with(&[(0, 3)])));
    assert!(!ei_captured(ei, &schedule_with(&[(0, 2)])));
    assert_eq!(ei_capture_chronon(ei, &schedule_with(&[(0, 3)])), Some(3));
    let stats = evaluate_schedule(&one_ei_instance(3, 7), &schedule_with(&[(0, 3)]));
    assert_eq!(stats.ceis_captured, 1);
}

/// A probe exactly at `T_f` captures (inclusive deadline); one chronon
/// later does not.
#[test]
fn probe_at_window_close_captures() {
    let ei = Ei::new(R0, 3, 7);
    assert!(ei_captured(ei, &schedule_with(&[(0, 7)])));
    assert!(!ei_captured(ei, &schedule_with(&[(0, 8)])));
    let inst = one_ei_instance(3, 7);
    let stats = evaluate_schedule(&inst, &schedule_with(&[(0, 7)]));
    assert_eq!(stats.ceis_captured, 1);
    // The capture is dated at the probe chronon, the deadline itself.
    assert_eq!(
        evaluate_outcomes(&inst, &schedule_with(&[(0, 7)]))[0],
        CeiOutcome::Captured { at: 7 }
    );
    assert_eq!(
        evaluate_outcomes(&inst, &schedule_with(&[(0, 8)]))[0],
        CeiOutcome::Failed { at: 7 }
    );
}

/// A single-chronon EI (`T_s == T_f`) is capturable at exactly one chronon.
#[test]
fn single_chronon_window_has_one_live_chronon() {
    let ei = Ei::new(R0, 5, 5);
    assert!(!ei_captured(ei, &schedule_with(&[(0, 4)])));
    assert!(ei_captured(ei, &schedule_with(&[(0, 5)])));
    assert!(!ei_captured(ei, &schedule_with(&[(0, 6)])));
    // The engine finds that one chronon and captures with zero latency.
    let inst = one_ei_instance(5, 5);
    let run = conformant_run(&inst, &Mrsf, EngineConfig::preemptive());
    assert_eq!(run.stats.ceis_captured, 1);
    assert_eq!(run.outcomes[0], CeiOutcome::Captured { at: 5 });
    let diag = ScheduleDiagnostics::compute(&inst, &run.schedule);
    assert_eq!(diag.capture_latencies, vec![0]);
    assert_eq!(diag.missed_eis, 0);
    assert_eq!(diag.wasted_probes, 0);
}

/// Windows touching the epoch edges: an EI opening at chronon 0 and an EI
/// closing at the last chronon are both fully capturable.
#[test]
fn epoch_edge_windows_are_capturable() {
    for (start, end) in [(0, 0), (0, 2), (9, 11), (11, 11)] {
        let inst = one_ei_instance(start, end);
        assert_engine_invariants(&inst);
        let run = conformant_run(&inst, &Mrsf, EngineConfig::preemptive());
        assert_eq!(
            run.stats.ceis_captured, 1,
            "window [{start}, {end}] not captured"
        );
    }
}

/// Release == deadline: the proxy learns of the CEI at the very chronon its
/// only window closes. One probe must still capture it; the failure dating
/// of the unprobed twin lands on that same chronon.
#[test]
fn release_equal_to_deadline_is_satisfiable() {
    let mut b = InstanceBuilder::new(2, 12, Budget::Uniform(1));
    let p = b.profile();
    b.cei_released(p, 6, &[(0, 6, 6)]);
    b.cei_released(p, 6, &[(1, 6, 6)]);
    let inst = b.build();
    assert_engine_invariants(&inst);
    let run = conformant_run(&inst, &Mrsf, EngineConfig::preemptive());
    // Budget 1 serves exactly one of the two simultaneous deadlines.
    assert_eq!(run.stats.ceis_captured, 1);
    assert_eq!(run.stats.ceis_failed, 1);
    let failed = run
        .outcomes
        .iter()
        .find_map(|o| match o {
            CeiOutcome::Failed { at } => Some(*at),
            _ => None,
        })
        .expect("one CEI fails");
    assert_eq!(failed, 6, "failure must date to the closing chronon");
}

/// The dynamic twin of the release == deadline pin: the same single-chronon
/// CEIs *registered mid-run* at the very chronon their only window closes.
/// The registration drain precedes the `starts[t]` bucket, so one probe
/// still captures; registering one chronon too late dooms the CEI at the
/// drain itself (`CeiRegistered` then `CeiExpired` at the drain chronon).
#[test]
fn dynamically_registered_release_equal_to_deadline_is_satisfiable() {
    use webmon_core::engine::MutationQueue;
    use webmon_core::fault::{FaultConfig, NoFaults};
    use webmon_testkit::checks::conformant_driven_run;

    let mut b = InstanceBuilder::new(2, 12, Budget::Uniform(1));
    let p = b.profile();
    b.cei_released(p, 6, &[(0, 6, 6)]);
    b.cei_released(p, 6, &[(1, 6, 6)]);
    let inst = b.build();

    let mut on_time = MutationQueue::new();
    on_time
        .register(6, inst.ceis[0].id)
        .register(6, inst.ceis[1].id);
    let run = conformant_driven_run(
        &inst,
        &Mrsf,
        EngineConfig::preemptive(),
        &mut NoFaults,
        FaultConfig::default(),
        &on_time,
    );
    // Identical to the static pin: budget 1 serves exactly one deadline.
    assert_eq!(run.stats.ceis_captured, 1);
    assert_eq!(run.stats.ceis_failed, 1);
    assert!(run.outcomes.contains(&CeiOutcome::Failed { at: 6 }));

    // One chronon late: the window already closed, both CEIs are doomed at
    // the registration drain itself and dated to that drain chronon.
    let mut late = MutationQueue::new();
    late.register(7, inst.ceis[0].id)
        .register(7, inst.ceis[1].id);
    let run = conformant_driven_run(
        &inst,
        &Mrsf,
        EngineConfig::preemptive(),
        &mut NoFaults,
        FaultConfig::default(),
        &late,
    );
    assert_eq!(run.stats.ceis_captured, 0);
    assert_eq!(run.stats.ceis_failed, 2);
    assert!(run
        .outcomes
        .iter()
        .all(|o| *o == CeiOutcome::Failed { at: 7 }));
}

/// Exact-budget feasibility boundary: `C` probes in a chronon are feasible,
/// `C + 1` are not — for uniform and per-chronon budgets.
#[test]
fn feasibility_is_inclusive_at_the_budget() {
    let mut two = Schedule::new(3, Epoch::new(4));
    two.probe(ResourceId(0), 1);
    two.probe(ResourceId(1), 1);
    assert!(two.is_feasible(&Budget::Uniform(2)));
    assert!(!two.is_feasible(&Budget::Uniform(1)));
    assert!(two.is_feasible(&Budget::PerChronon(vec![0, 2, 0, 0])));
    assert!(!two.is_feasible(&Budget::PerChronon(vec![2, 1, 2, 2])));
    // Chronons past the end of a per-chronon vector have zero budget.
    let mut late = Schedule::new(3, Epoch::new(4));
    late.probe(ResourceId(0), 3);
    assert!(!late.is_feasible(&Budget::PerChronon(vec![1, 1, 1])));
}

/// `with_shards` is a no-op kept for source compatibility: the engine is
/// serial, and a `with_shards(1)` run must be indistinguishable from the
/// default configuration on the same instance.
#[test]
fn single_shard_run_equals_the_default_configuration() {
    let inst = one_ei_instance(3, 7);
    let auto = conformant_run(&inst, &Mrsf, EngineConfig::preemptive());
    let one = conformant_run(&inst, &Mrsf, EngineConfig::preemptive().with_shards(1));
    assert_eq!(auto.schedule, one.schedule);
    assert_eq!(auto.stats, one.stats);
    assert_eq!(auto.outcomes, one.outcomes);
    // Any count leaves the configuration unchanged.
    for shards in [0, 4, 64] {
        assert_eq!(
            EngineConfig::non_preemptive().with_shards(shards),
            EngineConfig::non_preemptive()
        );
    }
}

/// Diagnostics at the endpoints: probes at `T_s` and `T_f` of the same
/// window count one capture (first probe wins) and no waste; a probe one
/// past `T_f` is wasted.
#[test]
fn diagnostics_respect_inclusive_endpoints() {
    let inst = one_ei_instance(3, 7);
    let both_ends = schedule_with(&[(0, 3), (0, 7)]);
    let diag = ScheduleDiagnostics::compute(&inst, &both_ends);
    assert_eq!(diag.capture_latencies, vec![0], "earliest probe captures");
    assert_eq!(diag.missed_eis, 0);
    assert_eq!(diag.wasted_probes, 0, "a probe at T_f serves the window");

    let past_close = schedule_with(&[(0, 8)]);
    let diag = ScheduleDiagnostics::compute(&inst, &past_close);
    assert_eq!(diag.missed_eis, 1);
    assert_eq!(diag.wasted_probes, 1, "a probe at T_f + 1 serves nothing");

    let at_close = schedule_with(&[(0, 7)]);
    let diag = ScheduleDiagnostics::compute(&inst, &at_close);
    assert_eq!(diag.capture_latencies, vec![4], "latency is T_f - T_s");
    assert_eq!(diag.wasted_probes, 0);
}
