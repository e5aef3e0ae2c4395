//! Bit-identity of the incremental selection path.
//!
//! The default selector ([`SelectionStrategy::Incremental`]) is the
//! paper's Appendix-B lazy heap on engine-owned storage — persistent keyed
//! heaps for S-EDF and MRSF, whose candidate order does not depend on time,
//! and a per-phase heap for M-EDF and W-IC; `Scan` is the always-correct
//! reference. The heap must be *observationally invisible*: over the
//! whole conformance corpus, in every policy × mode cell, with and without
//! fault injection, `Incremental` reproduces the `Scan` output bit for bit
//! — the schedule, the `RunStats`/outcomes, the merged `RunMetrics`, and
//! the raw JSONL trace bytes — except for the selection-step accounting
//! (`CandidateSet.heap_pops` and `RunMetrics::selection_steps`), which
//! counts heap pops under one strategy and full scans under the other.
//!
//! The heap's own accounting is pinned too, one CRC-32 per policy over its
//! corpus digests (trace bytes, `heap_pops` included, plus metric
//! counters), so any change to pop order or count fails here and names
//! the policy that moved. The M-EDF and W-IC constants date from the
//! retired per-phase lazy-heap selector; the S-EDF and MRSF ones were
//! re-recorded when their heaps became persistent and `heap_pops` started
//! counting valid pops only. The digest is also pinned under parallel
//! execution (jobs 1 vs 4), so the worker pool cannot reorder the
//! incremental bookkeeping.

use webmon_core::engine::{EngineConfig, OnlineEngine, ScriptedMutations, SelectionStrategy};
use webmon_core::fault::{FaultConfig, IidFaults};
use webmon_core::model::Instance;
use webmon_core::obs::{JsonlTraceObserver, MetricsObserver, RunMetrics, Tee};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_core::RunResult;
use webmon_sim::parallel::par_map_with;
use webmon_streams::record::crc32;
use webmon_testkit::checks::without_selection_steps;
use webmon_testkit::corpus::{conformance_cases, small_instance, BASE_CASES};

/// Per-policy CRC-32s ([`digest_crc`]) of the faultless 60-case digest,
/// in [`policies`] order.
const CORPUS_DIGEST_CRC: [u32; 4] = [0x2388_17af, 0xf5c3_3c96, 0x48b2_fd7e, 0xea69_0d24];

/// Per-policy CRC-32s of the faultless digest over the whole base corpus
/// ([`BASE_CASES`] cases).
const BASE_CORPUS_DIGEST_CRC: [u32; 4] = [0x6585_1909, 0xa9a0_af34, 0x00ef_8256, 0x0112_40cd];

/// Per-policy CRC-32s of the 120-case digest at i.i.d. fault rate 0.3.
const FAULTED_DIGEST_CRC: [u32; 4] = [0x43f0_2934, 0x3a5e_91ae, 0x82ca_459f, 0x4017_82a9];

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
            OnlineEngine::run_driven(
                instance,
                policy,
                config,
                &mut IidFaults::new(fault_rate, seed),
                FaultConfig::charged(),
                &mut ScriptedMutations::default(),
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

/// Per-policy digest of the `Incremental` output over a slice of the
/// corpus, computed on a worker pool: for every case, in case order, one
/// `(trace bytes, metric counters)` pair per policy in [`policies`] order.
fn corpus_digest(jobs: usize, cases: u64, fault_rate: f64) -> Vec<Vec<(Vec<u8>, String)>> {
    par_map_with(jobs, (0..cases).collect(), |_, seed| {
        let instance = small_instance(seed, false);
        policies()
            .iter()
            .map(|(name, policy)| {
                let mut bytes = Vec::new();
                let mut summary = String::new();
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
                (bytes, summary)
            })
            .collect()
    })
}

/// Per-policy CRC-32 of a digest: each case's trace bytes, then its
/// summary, in case order.
fn digest_crc(digest: &[Vec<(Vec<u8>, String)>]) -> [u32; 4] {
    let mut all: [Vec<u8>; 4] = Default::default();
    for case in digest {
        for (sink, (bytes, summary)) in all.iter_mut().zip(case) {
            sink.extend_from_slice(bytes);
            sink.extend_from_slice(summary.as_bytes());
        }
    }
    all.map(|bytes| crc32(&bytes))
}

/// Compares each policy's digest CRC with its recorded constant, naming
/// every policy that moved.
fn assert_digest(digest: &[Vec<(Vec<u8>, String)>], recorded: [u32; 4], what: &str) {
    let actual = digest_crc(digest);
    let moved: Vec<String> = policies()
        .iter()
        .zip(actual.iter().zip(recorded))
        .filter(|(_, (a, r))| **a != *r)
        .map(|((name, _), (a, r))| format!("{name}: {a:#010x} (recorded {r:#010x})"))
        .collect();
    assert!(moved.is_empty(), "{what} moved for {}", moved.join(", "));
}

/// The determinism contract extends to the incremental path: the corpus
/// digest (trace bytes, `heap_pops` included, + metric counters) is
/// identical on 1 worker and on 4, and equals the recorded per-policy
/// digests.
#[test]
fn corpus_digest_is_jobs_invariant_and_strategy_invariant() {
    let cases = conformance_cases().min(60);
    let incr_1 = corpus_digest(1, cases, 0.0);
    let incr_4 = corpus_digest(4, cases, 0.0);
    assert_eq!(incr_1, incr_4, "jobs 1 vs jobs 4 digests differ");
    assert_digest(&incr_1, CORPUS_DIGEST_CRC, "Incremental corpus digest");
}

/// The heap's trace bytes over the whole base corpus — every policy ×
/// mode, `heap_pops` included — reproduce the recorded digests.
#[test]
fn incremental_is_bit_identical_to_lazy_heap_on_the_corpus() {
    let digest = corpus_digest(2, BASE_CASES, 0.0);
    assert_digest(&digest, BASE_CORPUS_DIGEST_CRC, "base-corpus digest");
}

/// Under fault injection the heap's accounting — re-pushes of failed
/// probes included — still reproduces the recorded digests.
#[test]
fn incremental_matches_lazy_heap_under_faults() {
    let digest = corpus_digest(2, conformance_cases().min(120), 0.3);
    assert_digest(&digest, FAULTED_DIGEST_CRC, "faulted digest");
}
