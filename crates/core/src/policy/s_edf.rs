//! Single Interval Early Deadline First (S-EDF).

use super::{Candidate, KeyOrder, Policy, PolicyContext};

/// **S-EDF** — the individual-EI-level representative: prefer the execution
/// interval with the earliest deadline,
/// `S-EDF(I, T) = I.T_f − T + 1` (Section IV-A).
///
/// Modeled on classic EDF scheduling. The paper proves (Prop. 1) that with
/// `rank(P) = 1` and no intra-resource overlap, S-EDF is optimal; with
/// complex CEIs it is blind to the parent's residual work and is dominated
/// by [`Mrsf`](super::Mrsf) and [`MEdf`](super::MEdf).
#[derive(Debug, Clone, Copy, Default)]
pub struct SEdf;

impl Policy for SEdf {
    fn name(&self) -> &'static str {
        "S-EDF"
    }

    #[inline]
    fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
        i64::from(cand.ei.remaining(ctx.now))
    }

    /// The deadline `T_f`: `T_f − T + 1` is the same shift of it at every
    /// chronon, and it never changes on capture.
    fn key_order(&self) -> Option<KeyOrder> {
        Some(KeyOrder {
            changes_on_capture: false,
        })
    }

    #[inline]
    fn order_key(&self, cand: &Candidate<'_>) -> Option<i64> {
        Some(i64::from(cand.ei.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::*;

    #[test]
    fn deadline_counts_remaining_chronons() {
        let eis = vec![ei(0, 2, 9)];
        let cap = vec![false];
        let data = CtxData::new(4, 1);
        assert_eq!(score_of(&SEdf, &data.ctx(), &eis, &cap, 0, 1), 6);
    }

    #[test]
    fn expiring_interval_scores_one() {
        let eis = vec![ei(0, 0, 4)];
        let cap = vec![false];
        let data = CtxData::new(4, 1);
        assert_eq!(score_of(&SEdf, &data.ctx(), &eis, &cap, 0, 1), 1);
    }

    #[test]
    fn tighter_deadline_wins() {
        let eis = vec![ei(0, 0, 3), ei(1, 0, 8)];
        let cap = vec![false, false];
        let data = CtxData::new(1, 2);
        let ctx = data.ctx();
        let a = score_of(&SEdf, &ctx, &eis, &cap, 0, 2);
        let b = score_of(&SEdf, &ctx, &eis, &cap, 1, 2);
        assert!(a < b);
    }

    #[test]
    fn score_ignores_sibling_capture_state() {
        let eis = vec![ei(0, 0, 5), ei(1, 0, 5)];
        let data = CtxData::new(2, 2);
        let ctx = data.ctx();
        let none = score_of(&SEdf, &ctx, &eis, &[false, false], 0, 2);
        let one = score_of(&SEdf, &ctx, &eis, &[false, true], 0, 2);
        assert_eq!(none, one);
    }
}
