//! Section V-D (first part) — runtime of the offline approximation vs the
//! online policies, normalized per EI.
//!
//! Paper setting: synthetic Poisson trace (λ = 20), fixed rank 5, small
//! workloads (100–500 profiles). The paper measured (on a 2006 laptop JVM)
//! offline ≈ 8.6 msec/EI vs online 0.06–0.22 msec/EI — the headline is the
//! *orders-of-magnitude* gap and the per-policy cost ordering
//! `S-EDF ≈ MRSF < M-EDF`, both of which this experiment reproduces.

use crate::Scale;
use webmon_core::offline::LocalRatioConfig;
use webmon_sim::{Experiment, ExperimentConfig, PolicyKind, PolicySpec, Table, TraceSpec};
use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

/// Configuration for one profile-count level. Width-2 EIs (`w = 1`) keep
/// the offline pipeline runnable while still exercising the Prop. 5
/// expansion it must pay for on general instances (2^5 = 32 combination
/// CEIs per rank-5 CEI) — the source of the offline cost the paper
/// measures. Wider paper-baseline EIs (ω = 10) would expand 10^5-fold and
/// not run at all, which is the paper's scalability point taken to its
/// limit.
pub fn config(n_profiles: u32, scale: Scale) -> ExperimentConfig {
    ExperimentConfig {
        n_resources: 1000,
        horizon: 1000,
        budget: 1,
        workload: WorkloadConfig {
            n_profiles,
            rank: RankSpec::Fixed(5),
            resource_alpha: 0.3,
            length: EiLength::Window(1),
            distinct_resources: true,
            max_ceis: None,
            no_intra_resource_overlap: false,
        },
        trace: TraceSpec::Poisson { lambda: 20.0 },
        noise: None,
        repetitions: scale.repetitions().min(3),
        seed: 0x0FD0,
    }
}

/// Runs the offline-vs-online runtime comparison.
///
/// Pinned to one worker ([`webmon_sim::parallel::serial`]) because the
/// offline/online µs/EI columns are wall-clock measurements.
pub fn run(scale: Scale) -> Vec<Table> {
    webmon_sim::parallel::serial(|| run_inner(scale))
}

fn run_inner(scale: Scale) -> Vec<Table> {
    let levels: &[u32] = match scale {
        Scale::Quick => &[50, 100],
        Scale::Paper => &[100, 300, 500],
    };
    let specs = [
        PolicySpec::np(PolicyKind::SEdf),
        PolicySpec::p(PolicyKind::Mrsf),
        PolicySpec::p(PolicyKind::MEdf),
    ];

    let mut t = Table::with_headers(
        "§V-D — runtime per EI, offline approximation vs online policies (µs/EI; Poisson λ=20, rank 5, w=1)",
        &[
            "profiles",
            "CEIs",
            "EIs",
            "Offline-LR",
            "S-EDF(NP)",
            "MRSF(P)",
            "M-EDF(P)",
            "offline/online×",
        ],
    );

    for &m in levels {
        let exp = Experiment::materialize(config(m, scale));
        let (ceis, eis) = exp.mean_sizes();
        let offline = exp.run_local_ratio(LocalRatioConfig::default());
        let online: Vec<f64> = specs
            .iter()
            .map(|&s| exp.run_spec(s).micros_per_ei.mean)
            .collect();
        let fastest = online.iter().cloned().fold(f64::INFINITY, f64::min);
        let ratio = if fastest > 0.0 {
            offline.micros_per_ei.mean / fastest
        } else {
            f64::NAN
        };
        t.push_numeric_row(
            m.to_string(),
            &[
                ceis,
                eis,
                offline.micros_per_ei.mean,
                online[0],
                online[1],
                online[2],
                ratio,
            ],
            2,
        );
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use webmon_core::offline::expand_to_unit;
    use webmon_core::policy::{Candidate, Policy, PolicyContext};
    use webmon_core::{EngineConfig, OnlineEngine};

    /// Counts a policy's deterministic scoring work: score evaluations,
    /// and the EIs of the scored candidates' CEIs (`Σ |η|`), which is what
    /// a multi-EI formula such as M-EDF walks per evaluation.
    struct Counting {
        inner: Box<dyn Policy>,
        evaluations: AtomicU64,
        cei_eis: AtomicU64,
    }

    impl Policy for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            self.cei_eis
                .fetch_add(cand.cei.eis.len() as u64, Ordering::Relaxed);
            self.inner.score(ctx, cand)
        }

        fn stable_scores(&self) -> bool {
            self.inner.stable_scores()
        }
    }

    /// Runs `spec` under `config` on every repetition of `exp`; returns
    /// the summed `(score evaluations, Σ |η| over them)`.
    fn scoring_work(exp: &Experiment, spec: PolicySpec, config: EngineConfig) -> (u64, u64) {
        let counting = Counting {
            inner: spec.kind.build(0),
            evaluations: AtomicU64::new(0),
            cei_eis: AtomicU64::new(0),
        };
        for w in exp.workloads() {
            OnlineEngine::run(&w.instance, &counting, config);
        }
        (
            counting.evaluations.into_inner(),
            counting.cei_eis.into_inner(),
        )
    }

    #[test]
    fn offline_is_slower_than_online() {
        // Deterministic work instead of wall-clock µs/EI (the table keeps
        // the timing): before it schedules anything, the offline pipeline
        // must materialize the Prop. 5 expansion — one unit demand per EI
        // of every combination CEI — while an online policy's whole run
        // costs its score evaluations. The expansion alone must outweigh
        // every online roster policy's evaluations, at every level.
        let specs = [
            PolicySpec::np(PolicyKind::SEdf),
            PolicySpec::p(PolicyKind::Mrsf),
            PolicySpec::p(PolicyKind::MEdf),
        ];
        for m in [50, 100] {
            let exp = Experiment::materialize(config(m, Scale::Quick));
            let cap = LocalRatioConfig::default().max_expanded_ceis;
            let offline: usize = exp
                .workloads()
                .iter()
                .map(|w| {
                    expand_to_unit(&w.instance, cap)
                        .expect("w = 1 expansion fits the cap")
                        .instance
                        .total_eis()
                })
                .sum();
            for spec in specs {
                let (online, _) = scoring_work(&exp, spec, spec.engine_config());
                assert!(
                    offline as u64 > online,
                    "m{m}: offline expansion ({offline} demands) should outweigh {} \
                     ({online} score evaluations)",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn medf_costs_at_least_as_much_as_sedf_under_scan() {
        // τ(Φ): S-EDF and MRSF are O(1) per candidate; M-EDF is O(k) — it
        // walks every EI of the candidate's CEI. Counted deterministically
        // as score evaluations (S-EDF reads only the candidate's own
        // deadline) versus Σ |η| over M-EDF's evaluations. The per-candidate
        // cost only shows when every candidate is re-scored per probe, i.e.
        // under the reference Scan selector — the default incremental heap
        // evaluates far fewer scores — so both columns run Scan. Both also
        // run preemptively: non-preemption's extra per-chronon selection
        // phase is an engine-mode cost that would confound the pure
        // scoring-cost ordering this test pins.
        let exp = Experiment::materialize(config(100, Scale::Quick));
        let scan = EngineConfig::preemptive().with_scan();
        let (sedf, _) = scoring_work(&exp, PolicySpec::p(PolicyKind::SEdf), scan);
        let (medf_evaluations, medf) = scoring_work(&exp, PolicySpec::p(PolicyKind::MEdf), scan);
        assert!(sedf > 0 && medf_evaluations > 0);
        assert!(
            medf as f64 >= sedf as f64 * 0.8,
            "M-EDF ({medf} EI visits) should not be materially cheaper than S-EDF \
             ({sedf} evaluations) in the same (preemptive, Scan) configuration"
        );
    }
}
