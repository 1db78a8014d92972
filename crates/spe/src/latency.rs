//! Latency aggregation for the tail-latency experiments (paper §6.2),
//! and the [`Stamped`] tuple: an owned operator output carrying the
//! origin timestamp of the input that produced it.
//!
//! The sink records every end-to-end sample into a streaming
//! [`Histogram`](flowkv_common::telemetry::Histogram) and summarizes the
//! resulting [`HistogramSnapshot`] — memory stays O(buckets) instead of
//! O(samples), and quantiles carry the histogram's bounded relative
//! error (≤ 1/32). The exact sort-based summary survives under
//! `#[cfg(test)]` as the oracle for that error bound.

use flowkv_common::telemetry::HistogramSnapshot;
use flowkv_common::types::Tuple;

/// A tuple stamped with the wall-clock nanosecond at which it left the
/// source: what an operator's `on_batch` emits per element (count
/// windows, joins), each output with its input's stamp.
///
/// The stamp travels *per tuple*, never per batch — in the exchange it
/// is a field of every [`TupleBatch`](crate::TupleBatch) row — so the
/// sink's [`LatencySummary`] samples true end-to-end latency regardless
/// of how tuples were grouped in flight.
#[derive(Clone, Debug)]
pub struct Stamped {
    /// The data tuple.
    pub tuple: Tuple,
    /// Wall-clock nanoseconds (from the run's epoch) at source departure.
    pub origin: u64,
}

/// Returns the `p`-quantile (0.0–1.0) of `samples` by nearest-rank, or
/// `None` when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p.clamp(0.0, 1.0)) * (samples.len() - 1) as f64).round() as usize;
    Some(samples[rank])
}

/// Summary statistics of a latency distribution (nanoseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median latency.
    pub p50: u64,
    /// 95th-percentile latency — the paper's headline metric.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// 99.9th-percentile latency — the prefetch experiments' metric:
    /// synchronous cold reads land exactly in this tail.
    pub p999: u64,
    /// Maximum latency.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencySummary {
    /// Summarizes a streaming latency histogram.
    ///
    /// `count`, `max`, and `mean` are exact (the histogram tracks them
    /// alongside the buckets); the quantiles inherit the histogram's
    /// bounded relative error.
    pub fn from_histogram(h: &HistogramSnapshot) -> LatencySummary {
        if h.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            count: h.count,
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max,
            mean: h.mean(),
        }
    }

    /// Computes the exact summary, sorting `samples` in place.
    ///
    /// Test-only oracle: production paths summarize via
    /// [`from_histogram`](Self::from_histogram) so the sink never buffers
    /// the full sample vector.
    #[cfg(test)]
    pub fn compute(samples: &mut [u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let idx =
            |p: f64| ((p * (samples.len() - 1) as f64).round() as usize).min(samples.len() - 1);
        LatencySummary {
            count: samples.len() as u64,
            p50: samples[idx(0.50)],
            p95: samples[idx(0.95)],
            p99: samples[idx(0.99)],
            p999: samples[idx(0.999)],
            max: *samples.last().expect("non-empty"),
            mean: samples.iter().map(|&v| v as u128).sum::<u128>() as f64 / samples.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.95), Some(95));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        let mut empty: Vec<u64> = vec![];
        assert_eq!(percentile(&mut empty, 0.5), None);
    }

    #[test]
    fn summary_fields() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        let s = LatencySummary::compute(&mut v);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 501);
        assert_eq!(s.p95, 950);
        assert_eq!(s.p99, 990);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = LatencySummary::compute(&mut []);
        assert_eq!(s, LatencySummary::default());
        let h = flowkv_common::telemetry::Histogram::new();
        assert_eq!(LatencySummary::from_histogram(&h.snapshot()), s);
    }

    #[test]
    fn histogram_summary_tracks_exact_summary() {
        let h = flowkv_common::telemetry::Histogram::new();
        let mut samples: Vec<u64> = (1..=1000).map(|i| i * 37 % 90_000 + 1).collect();
        for &v in &samples {
            h.record(v);
        }
        let approx = LatencySummary::from_histogram(&h.snapshot());
        let exact = LatencySummary::compute(&mut samples);
        assert_eq!(approx.count, exact.count);
        assert_eq!(approx.max, exact.max);
        assert!((approx.mean - exact.mean).abs() < 1e-6);
        for (a, e) in [
            (approx.p50, exact.p50),
            (approx.p95, exact.p95),
            (approx.p99, exact.p99),
        ] {
            let err = a.abs_diff(e) as f64;
            assert!(err <= e as f64 / 32.0 + 1.0, "approx {a} vs exact {e}");
        }
    }

    /// Exact nearest-rank percentile under the same rank rule the
    /// histogram uses (`ceil(q·n)`, 1-indexed).
    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest::proptest! {
        /// The histogram-backed quantiles stay within the histogram's
        /// relative error bound (1/32, plus one unit of integer slack) of
        /// the exact nearest-rank percentiles, and the summary's exact
        /// fields (count, max, mean) match the sort-based oracle.
        #[test]
        fn histogram_quantile_error_is_bounded(
            samples in proptest::collection::vec(0u64..5_000_000, 1..400),
        ) {
            let h = flowkv_common::telemetry::Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let snap = h.snapshot();
            let mut sorted = samples.clone();
            let exact = LatencySummary::compute(&mut sorted);
            let approx = LatencySummary::from_histogram(&snap);
            proptest::prop_assert_eq!(approx.count, exact.count);
            proptest::prop_assert_eq!(approx.max, exact.max);
            proptest::prop_assert!((approx.mean - exact.mean).abs() < 1e-6);
            for q in [0.50, 0.95, 0.99] {
                let e = exact_nearest_rank(&sorted, q);
                let a = snap.quantile(q);
                let tol = e as f64 / 32.0 + 1.0;
                proptest::prop_assert!(
                    (a.abs_diff(e)) as f64 <= tol,
                    "q{}: approx {} vs exact {} (tol {})", q, a, e, tol
                );
            }
        }
    }
}
