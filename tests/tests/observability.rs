//! Golden cross-checks for the observability layer: the in-run
//! [`MetricsObserver`] totals must equal the post-hoc values computed from
//! [`RunStats`] and [`ScheduleDiagnostics`] — for preemptive and
//! non-preemptive configs, and identically under a 4-worker pool.
//!
//! The determinism contract of the parallel layer extends to `RunMetrics`:
//! the merged metrics of an experiment cell are bit-identical for every
//! worker count.

use webmon_core::diagnostics::ScheduleDiagnostics;
use webmon_core::engine::{EngineConfig, OnlineEngine};
use webmon_core::obs::{replay_metrics, JsonlTraceObserver, MetricsObserver, RunMetrics};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf};
use webmon_sim::parallel::{par_map_with, serial};
use webmon_sim::{
    ChurnSpec, Experiment, ExperimentConfig, FaultSpec, PolicyKind, PolicySpec, Scenario, TraceSpec,
};
use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

/// The shared fixture: a contended mid-size workload (same shape as the
/// parallel-determinism golden tests).
fn config() -> ExperimentConfig {
    ExperimentConfig {
        n_resources: 60,
        horizon: 300,
        budget: 2,
        workload: WorkloadConfig {
            n_profiles: 25,
            rank: RankSpec::UpTo { k: 4, beta: 0.5 },
            resource_alpha: 0.3,
            length: EiLength::Window(4),
            distinct_resources: true,
            max_ceis: Some(800),
            no_intra_resource_overlap: false,
        },
        trace: TraceSpec::Poisson { lambda: 6.0 },
        noise: None,
        repetitions: 6,
        seed: 0xDE7E,
    }
}

/// Metrics totals equal the post-hoc `RunStats` and `ScheduleDiagnostics`
/// values on every fixture instance, both engine modes, driven through an
/// explicit 4-worker pool.
#[test]
fn metrics_totals_match_post_hoc_values_under_pool() {
    let exp = serial(|| Experiment::materialize(config()));
    for engine_cfg in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            let runs = par_map_with(4, exp.workloads().iter().collect(), |_, w| {
                let mut observer = MetricsObserver::new();
                let run =
                    OnlineEngine::run_observed(&w.instance, policy, engine_cfg, &mut observer);
                (run, observer.finish(), w)
            });
            for (run, metrics, w) in runs {
                let label = format!("{}{}", policy.name(), engine_cfg.label());
                let errs = metrics.consistency_errors(&run.stats);
                assert!(errs.is_empty(), "{label}: {errs:?}");

                let diag = ScheduleDiagnostics::compute(&w.instance, &run.schedule);
                assert_eq!(
                    metrics.probes_issued,
                    diag.probes_per_resource
                        .iter()
                        .map(|&c| u64::from(c))
                        .sum::<u64>(),
                    "{label}: probe totals diverged from diagnostics"
                );
                // The engine only probes to serve live candidates, so the
                // post-hoc capture set is exactly the engine's: same mass
                // (capture-latency histogram), same missed EIs, no waste.
                assert_eq!(
                    metrics.capture_latency.count,
                    diag.capture_latencies.len() as u64,
                    "{label}: capture-latency mass diverged"
                );
                assert_eq!(
                    metrics.capture_latency.sum,
                    diag.capture_latencies.iter().map(|&l| u64::from(l)).sum(),
                    "{label}: capture-latency sum diverged"
                );
                assert_eq!(
                    diag.missed_eis as u64,
                    w.instance.total_eis() as u64 - metrics.eis_captured,
                    "{label}: missed EIs diverged"
                );
                assert_eq!(diag.wasted_probes, 0, "{label}: engine wasted probes");
                assert!(run.schedule.is_feasible(&w.instance.budget));
            }
        }
    }
}

/// An observed run is the same run: schedule, stats, and outcomes are
/// bit-identical to the unobserved engine.
#[test]
fn observation_does_not_perturb_the_run() {
    let exp = serial(|| Experiment::materialize(config()));
    let w = &exp.workloads()[0];
    for engine_cfg in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
        let plain = OnlineEngine::run(&w.instance, &Mrsf, engine_cfg);
        let mut observer = MetricsObserver::new();
        let observed = OnlineEngine::run_observed(&w.instance, &Mrsf, engine_cfg, &mut observer);
        assert_eq!(plain.schedule, observed.schedule);
        assert_eq!(plain.stats, observed.stats);
        assert_eq!(plain.outcomes, observed.outcomes);
    }
}

/// Experiment-cell `RunMetrics` are covered by the PR-1 determinism
/// contract: the pooled aggregate equals the serial one bit for bit.
#[test]
fn aggregate_metrics_are_worker_count_invariant() {
    let baseline = serial(|| {
        let exp = Experiment::materialize(config());
        exp.run_spec(PolicySpec::p(PolicyKind::Mrsf))
    });
    let exp = Experiment::materialize(config());
    let pooled = exp.run_spec(PolicySpec::p(PolicyKind::Mrsf));
    assert_eq!(baseline.metrics, pooled.metrics);
    for (p, b) in pooled.repetitions.iter().zip(&baseline.repetitions) {
        assert_eq!(p.metrics, b.metrics, "per-repetition metrics diverged");
    }
    let manual = RunMetrics::merged(pooled.repetitions.iter().map(|o| &o.metrics));
    assert_eq!(pooled.metrics, manual, "merge order drifted");
}

/// The trace is the exact run it scores: for every scenario shape (plain,
/// faulted, churned, churned + faulted) and both modes, replaying the
/// rep-0 trace of `trace_scenario` reproduces rep 0's metrics of
/// `run_scenario` bit for bit.
#[test]
fn scenario_traces_replay_to_the_scored_metrics() {
    let exp = Experiment::materialize(config());
    let fault = FaultSpec::iid(0.3, 0x5EED);
    let churn = ChurnSpec::new(0.3, 0.2, 0x5EED);
    let scenarios = [
        Scenario::default(),
        Scenario::default().with_fault(fault),
        Scenario::default().with_churn(churn),
        Scenario::default().with_churn(churn).with_fault(fault),
    ];
    for scenario in scenarios {
        for spec in [
            PolicySpec::p(PolicyKind::Mrsf),
            PolicySpec::np(PolicyKind::Mrsf),
        ] {
            let agg = exp.run_scenario(spec, scenario);
            let (trace, _) = exp.trace_scenario(spec, scenario, 0, Vec::new()).unwrap();
            let replayed = replay_metrics(std::str::from_utf8(&trace).unwrap()).unwrap();
            assert_eq!(
                replayed, agg.repetitions[0].metrics,
                "{} under {scenario:?}",
                agg.label
            );
        }
    }
}

/// The JSONL trace is a faithful, reproducible transcript: re-tracing the
/// same repetition yields byte-identical output, and the event count in the
/// stream matches what the observer reports.
#[test]
fn jsonl_trace_is_reproducible() {
    let exp = serial(|| Experiment::materialize(config()));
    let spec = PolicySpec::p(PolicyKind::MEdf);
    let (a, n_a) = exp.trace_spec(spec, 0, Vec::new()).unwrap();
    let (b, n_b) = exp.trace_spec(spec, 0, Vec::new()).unwrap();
    assert_eq!(a, b, "trace bytes diverged between identical runs");
    assert_eq!(n_a, n_b);
    assert_eq!(a.iter().filter(|&&c| c == b'\n').count() as u64, n_a);

    // The trace agrees with the metrics of the same run.
    let w = &exp.workloads()[0];
    let policy = spec.kind.build(exp.config().seed);
    let mut observer = MetricsObserver::new();
    OnlineEngine::run_observed(
        &w.instance,
        policy.as_ref(),
        spec.engine_config(),
        &mut observer,
    );
    let metrics = observer.finish();
    let text = String::from_utf8(a).unwrap();
    let probes = text
        .lines()
        .filter(|l| l.contains("\"ProbeIssued\""))
        .count();
    assert_eq!(probes as u64, metrics.probes_issued);
    let _ = JsonlTraceObserver::new(Vec::new()); // link-check the export
}
