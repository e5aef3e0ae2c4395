//! Order statistics for the benchmark's samples.

/// Percentile levels a tail summary may report, highest first.
const TAIL_LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0–100] of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A timing distribution as the benchmark reports it: the median, the
/// highest percentile with at least ten samples beyond it, and the sample
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// `(level, value)` of the highest supported tail percentile; `None`
    /// when fewer than ten samples lie beyond even the median.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let p50 = median(values)?;
    let n = values.len();
    let tail = TAIL_LEVELS
        .iter()
        .find(|&&p| n - rank(n, p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(values, p).expect("nonempty")));
    Some(Summary { n, p50, tail })
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        match self.tail {
            Some((level, value)) => write!(f, ", p{level} {value:.4}")?,
            None => write!(f, ", no tail percentile")?,
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        // Rank 990 leaves exactly ten samples beyond p99.
        assert_eq!(s.tail, Some((99.0, 990.0)));

        // One sample fewer and p99 would leave only nine beyond it.
        let s = summarize(&v[..999]).unwrap();
        assert_eq!(s.tail.map(|t| t.0), Some(95.0));

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail, Some((90.0, 90.0)));

        // Too few samples for any tail beyond the median.
        let s = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
        assert!(summarize(&[]).is_none());
    }
}
