//! Percentiles with their sample counts.

/// Nearest-rank percentile of an ascending slice (`p` in 0–100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// A latency distribution: its median, p90, and the highest percentile of
/// the ladder 50/90/99/99.9 that still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    /// `None` when fewer than 20 samples leave even the median without ten
    /// samples beyond it.
    pub top: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let top = [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, percentile(&sorted, p)));
    Summary {
        samples: n,
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_reports_counts_and_the_deepest_supported_percentile() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.samples, 1000);
        assert_eq!((s.p50, s.p90), (500.0, 900.0));
        // 1000 samples: 1 % is 10 samples beyond p99, 0.1 % is only 1.
        assert_eq!(s.top, Some((99.0, 990.0)));
        assert_eq!(summarize(&vec![1.0; 100]).top.map(|t| t.0), Some(90.0));
        assert_eq!(summarize(&[1.0; 20]).top.map(|t| t.0), Some(50.0));
        assert_eq!(summarize(&[1.0; 19]).top, None);
        assert_eq!(summarize(&vec![1.0; 10_000]).top.map(|t| t.0), Some(99.9));
    }
}
