//! Online probing policies (Section IV-A).
//!
//! At every chronon, a policy `Φ` looks at the candidate execution intervals
//! `cands(I)` and returns up to `C_j` EIs to probe. The paper classifies
//! policies by how much of the CEI hierarchy they consult:
//!
//! * **Individual-EI level** — only the EI itself: [`SEdf`], [`Wic`].
//! * **Rank level** — the parent CEI's residual complexity: [`Mrsf`].
//! * **Multi-EI level** — all sibling EIs of the parent CEI: [`MEdf`].
//!
//! Policies are *scoring functions*: the engine repeatedly selects the
//! candidate with the minimum score (ties broken deterministically by CEI id
//! then EI index, standing in for the paper's "chooses arbitrarily"). A probe
//! of the selected EI's resource captures every active candidate on that
//! resource, implementing the intra-resource probe sharing of Algorithm 1.

mod m_edf;
mod mrsf;
mod random;
mod round_robin;
mod s_edf;
mod utility;
mod wic;

pub use m_edf::{MEdf, MEdfAbsoluteDeadline};
pub use mrsf::{Mrsf, MrsfExact};
pub use random::RandomPolicy;
pub use round_robin::RoundRobin;
pub use s_edf::SEdf;
pub use utility::UtilityWeighted;
pub use wic::Wic;

use crate::model::{Chronon, Ei};

/// A candidate EI's view of its parent CEI, provided by the engine.
#[derive(Debug, Clone, Copy)]
pub struct CeiView<'a> {
    /// All EIs of the parent CEI (siblings of — and including — the
    /// candidate).
    pub eis: &'a [Ei],
    /// Capture flag per EI, parallel to `eis`.
    pub captured: &'a [bool],
    /// Number of captured EIs (`Σ X(I', S)`), precomputed by the engine so
    /// rank-level policies stay `Θ(1)` per candidate (Appendix B).
    pub n_captured: u16,
    /// Number of EIs required to satisfy the CEI (`|η|` under the paper's
    /// AND semantics; smaller under the §VII threshold extension).
    pub required: u16,
    /// Client utility weight of the CEI (the §VII utility extension;
    /// `1.0` in every paper construct).
    pub weight: f32,
    /// `rank(p)` of the owning profile.
    pub profile_rank: u16,
}

/// A candidate EI offered to the policy for scoring.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The execution interval itself; guaranteed active at `ctx.now`.
    pub ei: Ei,
    /// Index of `ei` within `cei.eis`.
    pub ei_index: usize,
    /// View of the parent CEI.
    pub cei: CeiView<'a>,
}

/// Per-resource aggregates the engine computes once per chronon.
#[derive(Debug, Clone, Copy)]
pub struct ResourceStats<'a> {
    /// Count of active candidate EIs per resource.
    pub active_eis: &'a [u32],
    /// `true` if the resource has an update event at the current chronon.
    /// In the EI encoding, update events coincide with EI window openings,
    /// so this is "some candidate EI on `r` starts now" (WIC's `p_ij`).
    pub has_update: &'a [bool],
}

/// Everything a policy may consult when scoring a candidate.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The current chronon `T_j`.
    pub now: Chronon,
    /// Per-resource aggregates.
    pub resources: ResourceStats<'a>,
}

/// An online probing policy. Implementations must be cheap: `score` runs for
/// every candidate at every selection step (the paper's `τ(Φ)`).
pub trait Policy: Sync {
    /// Short, stable name used in experiment tables (e.g. `"M-EDF"`).
    fn name(&self) -> &'static str;

    /// The full parameterization of this policy instance — equal specs must
    /// score identically. Parameterless policies keep the default (the
    /// name); parameterized ones ([`Wic`]'s stale
    /// utility, [`RandomPolicy`]'s seed)
    /// append their parameters. Feeds the serve journal's configuration
    /// fingerprint, which must refuse recovery under a same-named but
    /// differently-tuned policy.
    fn spec(&self) -> String {
        self.name().to_string()
    }

    /// The priority of probing `cand` at `ctx.now`; the engine picks the
    /// candidate with the **minimum** score. Max-style policies (WIC) negate
    /// their utility.
    fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64;

    /// Whether `score` is a pure function of `(ctx, cand)` — `true` for
    /// every paper policy. The heap selector (`Incremental`) detects stale
    /// heap entries by re-scoring on pop and re-pushing on mismatch, which
    /// only terminates if an unchanged candidate re-scores to the same
    /// value; a policy drawing from hidden mutable state (e.g. the `Random`
    /// baseline) breaks that contract, so the engine falls back to the
    /// always-correct `Scan` selector when this returns `false`.
    fn stable_scores(&self) -> bool {
        true
    }

    /// Declares a time-invariant candidate order: `Some` iff
    /// [`order_key`](Self::order_key) is defined for every candidate.
    /// `None` (the default) keeps the engine's per-phase selection path.
    fn key_order(&self) -> Option<KeyOrder> {
        None
    }

    /// A key whose order equals the score order at *every* context: for
    /// any two candidates active at `ctx.now`,
    /// `score(a) < score(b) ⇔ key(a) < key(b)` and
    /// `score(a) == score(b) ⇔ key(a) == key(b)`. Because the key does not
    /// read `ctx`, the `Incremental` selector can keep one ordered heap
    /// across chronons instead of re-scoring the whole pool per phase.
    /// `Some` exactly when [`key_order`](Self::key_order) is.
    fn order_key(&self, _cand: &Candidate<'_>) -> Option<i64> {
        None
    }
}

/// The declaration behind [`Policy::order_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyOrder {
    /// Whether a candidate's key changes when an EI of its CEI is captured
    /// (MRSF's residual does; S-EDF's deadline does not). The engine
    /// re-keys the surviving siblings after every capture iff this is set.
    pub changes_on_capture: bool,
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared scaffolding for policy unit tests.

    use super::*;
    use crate::model::ResourceId;

    /// Owns the arrays a `PolicyContext` borrows.
    pub struct CtxData {
        pub now: Chronon,
        pub active: Vec<u32>,
        pub updates: Vec<bool>,
    }

    impl CtxData {
        pub fn new(now: Chronon, n_resources: usize) -> Self {
            CtxData {
                now,
                active: vec![0; n_resources],
                updates: vec![false; n_resources],
            }
        }

        pub fn ctx(&self) -> PolicyContext<'_> {
            PolicyContext {
                now: self.now,
                resources: ResourceStats {
                    active_eis: &self.active,
                    has_update: &self.updates,
                },
            }
        }
    }

    pub fn ei(r: u32, s: Chronon, e: Chronon) -> Ei {
        Ei::new(ResourceId(r), s, e)
    }

    /// Scores candidate `idx` of a CEI described by `eis` + `captured`.
    pub fn score_of(
        policy: &dyn Policy,
        ctx: &PolicyContext<'_>,
        eis: &[Ei],
        captured: &[bool],
        idx: usize,
        profile_rank: u16,
    ) -> i64 {
        let cand = Candidate {
            ei: eis[idx],
            ei_index: idx,
            cei: CeiView {
                eis,
                captured,
                n_captured: captured.iter().filter(|&&c| c).count() as u16,
                required: u16::try_from(eis.len()).expect("test CEIs stay u16-sized"),
                weight: 1.0,
                profile_rank,
            },
        };
        policy.score(ctx, &cand)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;

    /// Reproduces the paper's Example 1 (Figure 6): a CEI with four EIs; at
    /// chronon T the policies assign S-EDF = 5, MRSF = 4, M-EDF = 22.
    ///
    /// Layout (T = 10): the candidate EI is active with 5 chronons left; the
    /// three uncaptured siblings are future EIs of lengths 6, 4, and 7.
    /// 5 + 6 + 4 + 7 = 22.
    #[test]
    fn figure6_policy_values() {
        let eis = vec![
            ei(0, 8, 14),  // active at T=10, remaining = 5
            ei(1, 16, 21), // future, |I| = 6
            ei(2, 23, 26), // future, |I| = 4
            ei(3, 28, 34), // future, |I| = 7
        ];
        let captured = vec![false; 4];
        let data = CtxData::new(10, 4);
        let ctx = data.ctx();

        assert_eq!(score_of(&SEdf, &ctx, &eis, &captured, 0, 4), 5);
        assert_eq!(score_of(&Mrsf, &ctx, &eis, &captured, 0, 4), 4);
        assert_eq!(score_of(&MEdf, &ctx, &eis, &captured, 0, 4), 22);
    }

    /// Reproduces the paper's Example 2 (Figure 7): CEI_1 (4 EIs, first two
    /// captured) vs CEI_2 (3 EIs, none captured). At chronon T with C_T = 1:
    /// S-EDF: 5 vs 6 → stick with CEI_1; MRSF: 2 vs 3 → stick with CEI_1;
    /// M-EDF: 19 vs 16 → preempt CEI_1 in favour of CEI_2.
    #[test]
    fn figure7_policy_decisions() {
        // CEI_1: EIs 0 and 1 captured; EI_2 active with 5 chronons left;
        // EI_3 future with |I| = 14. M-EDF = 5 + 14 = 19.
        let cei1 = vec![ei(0, 0, 3), ei(1, 4, 7), ei(2, 8, 16), ei(3, 20, 33)];
        let cap1 = vec![true, true, false, false];
        // CEI_2: EI active with 6 chronons left; futures of lengths 4 and 6.
        // M-EDF = 6 + 4 + 6 = 16.
        let cei2 = vec![ei(4, 10, 17), ei(5, 19, 22), ei(6, 24, 29)];
        let cap2 = vec![false, false, false];

        let data = CtxData::new(12, 7);
        let ctx = data.ctx();

        // S-EDF prefers CEI_1's EI (5 < 6).
        let s1 = score_of(&SEdf, &ctx, &cei1, &cap1, 2, 4);
        let s2 = score_of(&SEdf, &ctx, &cei2, &cap2, 0, 3);
        assert_eq!((s1, s2), (5, 6));
        assert!(s1 < s2);

        // MRSF prefers CEI_1 (2 remaining < 3 remaining).
        let m1 = score_of(&Mrsf, &ctx, &cei1, &cap1, 2, 4);
        let m2 = score_of(&Mrsf, &ctx, &cei2, &cap2, 0, 3);
        assert_eq!((m1, m2), (2, 3));
        assert!(m1 < m2);

        // M-EDF prefers CEI_2 (16 < 19) — preemption.
        let e1 = score_of(&MEdf, &ctx, &cei1, &cap1, 2, 4);
        let e2 = score_of(&MEdf, &ctx, &cei2, &cap2, 0, 3);
        assert_eq!((e1, e2), (19, 16));
        assert!(e2 < e1);
    }

    /// An owned candidate: a CEI's EIs and capture flags plus the scored
    /// EI's index, profile rank, and weight.
    struct OwnedCand {
        eis: Vec<Ei>,
        captured: Vec<bool>,
        idx: usize,
        required: u16,
        rank: u16,
        weight: f32,
    }

    impl OwnedCand {
        fn view(&self) -> Candidate<'_> {
            Candidate {
                ei: self.eis[self.idx],
                ei_index: self.idx,
                cei: CeiView {
                    eis: &self.eis,
                    captured: &self.captured,
                    n_captured: self.captured.iter().filter(|&&c| c).count() as u16,
                    required: self.required,
                    weight: self.weight,
                    profile_rank: self.rank,
                },
            }
        }

        /// A unit-weight AND-semantics CEI with no captures, scored at EI
        /// `idx`; its rank is its size.
        fn plain(eis: Vec<Ei>, idx: usize) -> Self {
            let n = eis.len();
            OwnedCand {
                captured: vec![false; n],
                required: n as u16,
                rank: n as u16,
                weight: 1.0,
                eis,
                idx,
            }
        }

        fn score(&self, policy: &dyn Policy, now: Chronon, n_resources: usize) -> i64 {
            policy.score(&CtxData::new(now, n_resources).ctx(), &self.view())
        }
    }

    /// A random candidate whose scored EI is active at `now`, with random
    /// siblings, captures, threshold, and rank (splitmix64 draws).
    fn random_candidate(state: &mut u64, now: Chronon) -> OwnedCand {
        let mut draw = |n: u32| -> u32 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % u64::from(n)) as u32
        };
        let size = 1 + draw(4) as usize;
        let idx = draw(size as u32) as usize;
        let eis: Vec<Ei> = (0..size)
            .map(|k| {
                let r = draw(6);
                if k == idx {
                    let start = now.saturating_sub(draw(10));
                    ei(r, start, now + draw(30))
                } else {
                    let start = draw(now + 40);
                    ei(r, start, start + draw(20))
                }
            })
            .collect();
        let captured: Vec<bool> = (0..size).map(|k| k != idx && draw(2) == 0).collect();
        let required = 1 + draw(size as u32) as u16;
        OwnedCand {
            eis,
            captured,
            idx,
            required,
            rank: size as u16 + draw(3) as u16,
            weight: 1.0,
        }
    }

    #[test]
    fn declared_order_keys_match_score_order_across_chronons() {
        let declaring: [&dyn Policy; 3] = [&SEdf, &Mrsf, &MrsfExact];
        let mut state = 0x0DE5_u64;
        for now in [0, 1, 9, 64, 1000] {
            for _ in 0..400 {
                let a = random_candidate(&mut state, now);
                let b = random_candidate(&mut state, now);
                for policy in declaring {
                    let key = |c: &OwnedCand| policy.order_key(&c.view()).expect("declared");
                    assert_eq!(
                        a.score(policy, now, 6).cmp(&b.score(policy, now, 6)),
                        key(&a).cmp(&key(&b)),
                        "{} at {now}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn key_order_declarations_agree_with_order_keys() {
        let all: [&dyn Policy; 10] = [
            &SEdf,
            &Mrsf,
            &MrsfExact,
            &MEdf,
            &MEdfAbsoluteDeadline,
            &Wic::paper(),
            &RoundRobin,
            &RandomPolicy::new(3),
            &UtilityWeighted::new(SEdf, "U-S-EDF"),
            &UtilityWeighted::new(Mrsf, "U-MRSF"),
        ];
        let mut state = 7;
        let cand = random_candidate(&mut state, 5);
        for policy in all {
            assert_eq!(
                policy.key_order().is_some(),
                policy.order_key(&cand.view()).is_some(),
                "{}",
                policy.name()
            );
        }
        let declared: Vec<&str> = all
            .iter()
            .filter(|p| p.key_order().is_some())
            .map(|p| p.name())
            .collect();
        assert_eq!(declared, ["S-EDF", "MRSF", "MRSF-Exact"]);
    }

    /// Two candidates whose score order flips between two chronons: no
    /// key that ignores the clock can follow both orders.
    fn assert_order_flips(
        policy: &dyn Policy,
        a: &OwnedCand,
        b: &OwnedCand,
        t0: Chronon,
        t1: Chronon,
    ) {
        assert!(
            a.score(policy, t0, 2) < b.score(policy, t0, 2),
            "{} at {t0}",
            policy.name()
        );
        assert!(
            a.score(policy, t1, 2) > b.score(policy, t1, 2),
            "{} at {t1}",
            policy.name()
        );
    }

    #[test]
    fn utility_weighted_sedf_order_depends_on_the_clock() {
        // Dividing the remaining time by the weight scales the two
        // deadlines' distance from `now` by different factors.
        let a = OwnedCand::plain(vec![ei(0, 0, 10)], 0);
        let b = OwnedCand {
            weight: 2.0,
            ..OwnedCand::plain(vec![ei(1, 0, 16)], 0)
        };
        assert_order_flips(&UtilityWeighted::new(SEdf, "U-S-EDF"), &a, &b, 9, 0);
    }

    #[test]
    fn absolute_deadline_medf_order_depends_on_the_clock() {
        // Each active uncaptured EI shrinks the score by one per chronon,
        // so a CEI with two active EIs overtakes one with a single EI.
        let a = OwnedCand::plain(vec![ei(0, 0, 30)], 0);
        let b = OwnedCand::plain(vec![ei(0, 0, 20), ei(1, 0, 20)], 0);
        assert_order_flips(&MEdfAbsoluteDeadline, &a, &b, 0, 15);
    }

    #[test]
    fn round_robin_order_depends_on_the_clock() {
        // The preferred resource rotates with `now mod n`.
        let a = OwnedCand::plain(vec![ei(0, 0, 9)], 0);
        let b = OwnedCand::plain(vec![ei(1, 0, 9)], 0);
        assert_order_flips(&RoundRobin, &a, &b, 0, 1);
    }
}
