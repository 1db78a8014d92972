//! Order statistics used by every report: medians, quartiles, and the
//! tail-percentile rule.

/// One metric's summary over the repeats of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric measured once: no spread is known.
    pub fn single(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Median and quartiles of `values`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
/// benchmark driver applies to the ten-seed spread, so a spread computed
/// here and one computed there agree.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Summary::single(v[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated.
        let pos = k * (n + 1);
        let lo = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Summary {
        median: at(2),
        q1: at(1),
        q3: at(3),
        n,
    }
}

/// The highest percentile, capped at 0.99, that still has at least ten
/// samples beyond it in a distribution of `n` samples; `None` when even
/// the median lacks them.
pub fn tail_quantile(n: u64) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(0.99))
}

/// Samples a p99 needs: ten beyond the 99th percentile.
pub const P99_MIN_SAMPLES: u64 = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(1.0 - 10.0 / 999.0));
        assert_eq!(tail_quantile(P99_MIN_SAMPLES), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
    }
}
