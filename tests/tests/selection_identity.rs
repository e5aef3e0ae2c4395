//! Bit-identity of the incremental selection path.
//!
//! The default selector ([`SelectionStrategy::Incremental`]) is the
//! paper's Appendix-B lazy heap on engine-owned storage; `Scan` is the
//! always-correct reference. The heap must be *observationally
//! invisible*: over the whole conformance corpus, in every policy × mode
//! cell, with and without fault injection, `Incremental` reproduces the
//! `Scan` output bit for bit — the schedule, the `RunStats`/outcomes, the
//! merged `RunMetrics`, and the raw JSONL trace bytes — except for the
//! selection-step accounting (`CandidateSet.heap_pops` and
//! `RunMetrics::selection_steps`), which counts heap pops under one
//! strategy and full scans under the other.
//!
//! The heap's own accounting is pinned too: the CRC-32 of its corpus
//! digests (trace bytes, `heap_pops` included, plus metric counters) was
//! recorded while the retired per-phase lazy-heap selector still existed
//! and produced the identical bytes, so any change to pop order or count
//! fails here. The digest is also pinned under parallel execution (jobs 1
//! vs 4), so the worker pool cannot reorder the incremental bookkeeping.

use webmon_core::engine::{EngineConfig, OnlineEngine, SelectionStrategy};
use webmon_core::fault::{FaultConfig, IidFaults};
use webmon_core::model::Instance;
use webmon_core::obs::{JsonlTraceObserver, MetricsObserver, RunMetrics, Tee};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_core::RunResult;
use webmon_sim::parallel::par_map_with;
use webmon_streams::record::crc32;
use webmon_testkit::checks::without_selection_steps;
use webmon_testkit::corpus::{conformance_cases, small_instance, BASE_CASES};

/// CRC-32 of the faultless 60-case digest ([`digest_crc`]), recorded when
/// the per-phase lazy-heap selector and `Incremental` produced it byte for
/// byte.
const CORPUS_DIGEST_CRC: u32 = 0x3117_993b;

/// CRC-32 of the faultless digest over the whole base corpus
/// ([`BASE_CASES`] cases), recorded the same way.
const BASE_CORPUS_DIGEST_CRC: u32 = 0x103c_0553;

/// CRC-32 of the 120-case digest at i.i.d. fault rate 0.3, recorded the
/// same way.
const FAULTED_DIGEST_CRC: u32 = 0x1bba_33d2;

/// The four paper policies of the identity grid.
fn policies() -> [(&'static str, Box<dyn Policy>); 4] {
    [
        ("S-EDF", Box::new(SEdf)),
        ("MRSF", Box::new(Mrsf)),
        ("M-EDF", Box::new(MEdf)),
        ("W-IC", Box::new(Wic::paper())),
    ]
}

/// Both execution modes with the given selection strategy.
fn configs(strategy: SelectionStrategy) -> [EngineConfig; 2] {
    [
        EngineConfig::preemptive().with_selection(strategy),
        EngineConfig::non_preemptive().with_selection(strategy),
    ]
}

/// One fully observed run: result + merged metrics + raw JSONL trace bytes.
/// A positive `fault_rate` drives the run through an i.i.d. fault model
/// seeded with `seed`.
fn observed(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    fault_rate: f64,
    seed: u64,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let mut metrics = MetricsObserver::new();
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let result = {
        let mut tee = Tee(&mut metrics, &mut trace);
        if fault_rate > 0.0 {
            OnlineEngine::run_faulted(
                instance,
                policy,
                config,
                &mut IidFaults::new(fault_rate, seed),
                FaultConfig::charged(),
                &mut tee,
            )
        } else {
            OnlineEngine::run_observed(instance, policy, config, &mut tee)
        }
    };
    assert_eq!(trace.write_errors(), 0);
    let bytes = trace.finish().expect("Vec<u8> sink cannot fail");
    (result, metrics.finish(), bytes)
}

/// `Incremental` vs `Scan` on the first `cases` corpus instances: every
/// output identical once selection-step accounting is masked out.
fn assert_matches_scan(cases: u64, fault_rate: f64) {
    for seed in 0..cases {
        let instance = small_instance(seed, false);
        for (name, policy) in &policies() {
            for (scan, incr) in configs(SelectionStrategy::Scan)
                .into_iter()
                .zip(configs(SelectionStrategy::Incremental))
            {
                let label = format!("seed {seed}: {name} {} rate {fault_rate}", scan.label());
                let (a, a_metrics, a_trace) =
                    observed(&instance, policy.as_ref(), scan, fault_rate, seed);
                let (b, b_metrics, b_trace) =
                    observed(&instance, policy.as_ref(), incr, fault_rate, seed);
                assert_eq!(a.schedule, b.schedule, "{label}: schedule");
                assert_eq!(a.stats, b.stats, "{label}: stats");
                assert_eq!(a.outcomes, b.outcomes, "{label}: outcomes");
                let (a_metrics, a_trace) = without_selection_steps(a_metrics, &a_trace);
                let (b_metrics, b_trace) = without_selection_steps(b_metrics, &b_trace);
                assert_eq!(a_metrics, b_metrics, "{label}: RunMetrics");
                assert_eq!(a_trace, b_trace, "{label}: JSONL trace bytes");
            }
        }
    }
}

/// Tentpole identity: `Incremental` vs the `Scan` reference over the full
/// corpus, 4 policies × P/NP — schedule, stats, outcomes, `RunMetrics`,
/// and trace bytes, modulo selection-step accounting.
#[test]
fn incremental_matches_scan_semantics_on_the_corpus() {
    assert_matches_scan(conformance_cases(), 0.0);
}

/// The identity survives fault injection at a nonzero rate: failed probes,
/// retries, outages, and shedding drive the incremental index through its
/// removal paths and the heap through its re-seed path.
#[test]
fn incremental_matches_scan_under_faults() {
    assert_matches_scan(conformance_cases().min(120), 0.3);
}

/// Digest of the `Incremental` output over a slice of the corpus, computed
/// on a worker pool: per-case trace bytes and metric counters, in case
/// order.
fn corpus_digest(jobs: usize, cases: u64, fault_rate: f64) -> Vec<(Vec<u8>, String)> {
    par_map_with(jobs, (0..cases).collect(), |_, seed| {
        let instance = small_instance(seed, false);
        let mut bytes = Vec::new();
        let mut summary = String::new();
        for (name, policy) in &policies() {
            for config in configs(SelectionStrategy::Incremental) {
                let (result, metrics, trace) =
                    observed(&instance, policy.as_ref(), config, fault_rate, seed);
                bytes.extend_from_slice(&trace);
                summary.push_str(&format!(
                    "{name}/{}: probes {} steps {} captured {} pool-max {}\n",
                    config.label(),
                    metrics.probes_issued,
                    metrics.selection_steps,
                    result.stats.ceis_captured,
                    metrics.candidate_set.max,
                ));
            }
        }
        (bytes, summary)
    })
}

/// CRC-32 of a digest: each case's trace bytes, then its summary, in case
/// order.
fn digest_crc(digest: &[(Vec<u8>, String)]) -> u32 {
    let mut all = Vec::new();
    for (bytes, summary) in digest {
        all.extend_from_slice(bytes);
        all.extend_from_slice(summary.as_bytes());
    }
    crc32(&all)
}

/// The determinism contract extends to the incremental path: the corpus
/// digest (trace bytes, `heap_pops` included, + metric counters) is
/// identical on 1 worker and on 4, and equals the recorded lazy-heap
/// digest.
#[test]
fn corpus_digest_is_jobs_invariant_and_strategy_invariant() {
    let cases = conformance_cases().min(60);
    let incr_1 = corpus_digest(1, cases, 0.0);
    let incr_4 = corpus_digest(4, cases, 0.0);
    assert_eq!(incr_1, incr_4, "jobs 1 vs jobs 4 digests differ");
    assert_eq!(
        digest_crc(&incr_1),
        CORPUS_DIGEST_CRC,
        "Incremental digest differs from the recorded lazy-heap digest"
    );
}

/// The heap's trace bytes over the whole base corpus — every policy ×
/// mode, `heap_pops` included — reproduce the recorded lazy-heap digest.
#[test]
fn incremental_is_bit_identical_to_lazy_heap_on_the_corpus() {
    let digest = corpus_digest(2, BASE_CASES, 0.0);
    assert_eq!(
        digest_crc(&digest),
        BASE_CORPUS_DIGEST_CRC,
        "Incremental corpus digest differs from the recorded lazy-heap digest"
    );
}

/// Under fault injection the heap's accounting — re-seeds of failed
/// probes included — still reproduces the recorded lazy-heap digest.
#[test]
fn incremental_matches_lazy_heap_under_faults() {
    let digest = corpus_digest(2, conformance_cases().min(120), 0.3);
    assert_eq!(
        digest_crc(&digest),
        FAULTED_DIGEST_CRC,
        "faulted Incremental digest differs from the recorded lazy-heap digest"
    );
}
