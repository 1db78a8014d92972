//! Aggregate and window-function traits (paper §2.1).
//!
//! Everything crosses the store boundary as bytes, so accumulators are
//! serialized too — exactly the situation of a JVM engine persisting
//! state into a native KV store. The two traits mirror Flink's
//! signatures, which is what FlowKV classifies on:
//!
//! - [`AggregateFunction`] (associative + commutative, incremental) →
//!   read-modify-write pattern;
//! - [`ProcessWindowFunction`] (needs the whole tuple list) → append
//!   pattern.

use std::sync::Arc;

use flowkv_common::types::WindowId;

/// An incremental aggregate over serialized accumulators.
///
/// Implementations must be associative and commutative — the property
/// that lets the engine fold tuples in as they arrive and merge session
/// accumulators (paper §2.1, "Read-Modify-Write").
pub trait AggregateFunction: Send + Sync {
    /// A fresh accumulator.
    fn create(&self) -> Vec<u8>;
    /// Folds one value into the accumulator, in place: `acc` is the
    /// buffer the store keeps the aggregate in (lent through
    /// `StateBackend::update_aggregate`), so an aggregate of fixed width
    /// overwrites its bytes and allocates nothing per tuple.
    fn add(&self, acc: &mut Vec<u8>, value: &[u8]);
    /// Merges two accumulators (required for merging session windows).
    fn merge(&self, a: &[u8], b: &[u8]) -> Vec<u8>;
    /// Extracts the final result from the accumulator.
    fn result(&self, acc: &[u8]) -> Vec<u8>;
}

/// A full-list window function: sees every tuple of the window at once.
pub trait ProcessWindowFunction: Send + Sync {
    /// Produces output values for one key's window from its full list of
    /// values, in append order. The values are borrowed — from the
    /// operator's trigger arena or from a store's owned list — so a
    /// function that folds them copies nothing.
    fn process(&self, key: &[u8], window: WindowId, values: &[&[u8]]) -> Vec<Vec<u8>>;
}

/// Counts values; the accumulator is a little-endian `u64`.
pub struct CountAggregate;

impl AggregateFunction for CountAggregate {
    fn create(&self) -> Vec<u8> {
        0u64.to_le_bytes().to_vec()
    }

    fn add(&self, acc: &mut Vec<u8>, _value: &[u8]) {
        set_u64(acc, decode_u64(acc) + 1);
    }

    fn merge(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        (decode_u64(a) + decode_u64(b)).to_le_bytes().to_vec()
    }

    fn result(&self, acc: &[u8]) -> Vec<u8> {
        acc.to_vec()
    }
}

/// Sums little-endian `u64` values.
pub struct SumAggregate;

impl AggregateFunction for SumAggregate {
    fn create(&self) -> Vec<u8> {
        0u64.to_le_bytes().to_vec()
    }

    fn add(&self, acc: &mut Vec<u8>, value: &[u8]) {
        set_u64(acc, decode_u64(acc) + decode_u64(value));
    }

    fn merge(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        (decode_u64(a) + decode_u64(b)).to_le_bytes().to_vec()
    }

    fn result(&self, acc: &[u8]) -> Vec<u8> {
        acc.to_vec()
    }
}

/// Tracks the maximum of little-endian `u64` values.
pub struct MaxAggregate;

impl AggregateFunction for MaxAggregate {
    fn create(&self) -> Vec<u8> {
        0u64.to_le_bytes().to_vec()
    }

    fn add(&self, acc: &mut Vec<u8>, value: &[u8]) {
        set_u64(acc, decode_u64(acc).max(decode_u64(value)));
    }

    fn merge(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        decode_u64(a).max(decode_u64(b)).to_le_bytes().to_vec()
    }

    fn result(&self, acc: &[u8]) -> Vec<u8> {
        acc.to_vec()
    }
}

/// A closure combining two byte slices into a new accumulator.
pub type CombineFn = Arc<dyn Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync>;
/// A closure finishing an accumulator into a result value.
pub type FinishFn = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;
/// A closure producing window outputs from a key's full value list.
pub type ProcessFn = Arc<dyn Fn(&[u8], WindowId, &[&[u8]]) -> Vec<Vec<u8>> + Send + Sync>;

/// Adapts three closures into an [`AggregateFunction`].
pub struct FnAggregate {
    create: Arc<dyn Fn() -> Vec<u8> + Send + Sync>,
    add: CombineFn,
    merge: CombineFn,
    result: FinishFn,
}

impl FnAggregate {
    /// Builds an aggregate from closures; `result` defaults to identity.
    pub fn new(
        create: impl Fn() -> Vec<u8> + Send + Sync + 'static,
        add: impl Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync + 'static,
        merge: impl Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync + 'static,
    ) -> Self {
        FnAggregate {
            create: Arc::new(create),
            add: Arc::new(add),
            merge: Arc::new(merge),
            result: Arc::new(|acc| acc.to_vec()),
        }
    }

    /// Overrides the result extraction.
    pub fn with_result(
        mut self,
        result: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    ) -> Self {
        self.result = Arc::new(result);
        self
    }
}

impl AggregateFunction for FnAggregate {
    fn create(&self) -> Vec<u8> {
        (self.create)()
    }

    fn add(&self, acc: &mut Vec<u8>, value: &[u8]) {
        *acc = (self.add)(acc, value);
    }

    fn merge(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        (self.merge)(a, b)
    }

    fn result(&self, acc: &[u8]) -> Vec<u8> {
        (self.result)(acc)
    }
}

/// Adapts a closure into a [`ProcessWindowFunction`].
pub struct FnProcess {
    f: ProcessFn,
}

impl FnProcess {
    /// Wraps `f`.
    pub fn new(
        f: impl Fn(&[u8], WindowId, &[&[u8]]) -> Vec<Vec<u8>> + Send + Sync + 'static,
    ) -> Self {
        FnProcess { f: Arc::new(f) }
    }
}

impl ProcessWindowFunction for FnProcess {
    fn process(&self, key: &[u8], window: WindowId, values: &[&[u8]]) -> Vec<Vec<u8>> {
        (self.f)(key, window, values)
    }
}

/// Computes the median of little-endian `u64` values — the paper's
/// non-associative aggregate (Q11-Median), forcing the append pattern.
pub struct MedianProcess;

impl ProcessWindowFunction for MedianProcess {
    fn process(&self, _key: &[u8], _window: WindowId, values: &[&[u8]]) -> Vec<Vec<u8>> {
        if values.is_empty() {
            return Vec::new();
        }
        let mut nums: Vec<u64> = values.iter().map(|v| decode_u64(v)).collect();
        // A selection, not a sort: the upper central value lands at
        // `mid` with nothing larger before it.
        let mid = nums.len() / 2;
        let (below, &mut upper, _) = nums.select_nth_unstable(mid);
        let median = if values.len() % 2 == 1 {
            upper
        } else {
            // Midpoint of the two central values, as in NEXMark's median:
            // the lower one is the largest of the half below.
            let lower = *below.iter().max().expect("an even count is at least two");
            lower.midpoint(upper)
        };
        vec![median.to_le_bytes().to_vec()]
    }
}

/// Overwrites `acc` with `n` as a little-endian `u64`.
fn set_u64(acc: &mut Vec<u8>, n: u64) {
    acc.clear();
    acc.extend_from_slice(&n.to_le_bytes());
}

/// Decodes a little-endian `u64`, tolerating short buffers.
pub fn decode_u64(bytes: &[u8]) -> u64 {
    let mut arr = [0u8; 8];
    let n = bytes.len().min(8);
    arr[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(arr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(n: u64) -> Vec<u8> {
        n.to_le_bytes().to_vec()
    }

    #[test]
    fn count_aggregate() {
        let agg = CountAggregate;
        let mut acc = agg.create();
        for _ in 0..5 {
            agg.add(&mut acc, b"x");
        }
        assert_eq!(agg.result(&acc), le(5));
        assert_eq!(agg.merge(&le(3), &le(4)), le(7));
    }

    #[test]
    fn sum_and_max_aggregates() {
        let sum = SumAggregate;
        let mut acc = sum.create();
        sum.add(&mut acc, &le(10));
        sum.add(&mut acc, &le(32));
        assert_eq!(sum.result(&acc), le(42));

        let max = MaxAggregate;
        let mut acc = max.create();
        max.add(&mut acc, &le(10));
        max.add(&mut acc, &le(7));
        assert_eq!(max.result(&acc), le(10));
        assert_eq!(max.merge(&le(3), &le(9)), le(9));
    }

    #[test]
    fn median_odd_and_even() {
        let m = MedianProcess;
        let w = WindowId::new(0, 10);
        let vals = [5u64, 1, 9].map(le);
        assert_eq!(
            m.process(b"k", w, &vals.each_ref().map(Vec::as_slice)),
            vec![le(5)]
        );
        let vals = [4u64, 8, 2, 10].map(le);
        assert_eq!(
            m.process(b"k", w, &vals.each_ref().map(Vec::as_slice)),
            vec![le(6)]
        );
        assert!(m.process(b"k", w, &[]).is_empty());
    }

    proptest::proptest! {
        /// The selection against the sort it replaced: runs of equal
        /// values, the extremes, one value and two.
        #[test]
        fn the_median_by_selection_is_the_median_by_sorting(
            values in proptest::collection::vec(
                proptest::prop_oneof![0u64..4, proptest::prelude::any::<u64>()],
                1..200,
            ),
        ) {
            let encoded: Vec<Vec<u8>> = values.iter().copied().map(le).collect();
            let slices: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let mid = sorted.len() / 2;
            let expect = match sorted.len() % 2 {
                1 => sorted[mid],
                _ => sorted[mid - 1].midpoint(sorted[mid]),
            };
            let got = MedianProcess.process(b"k", WindowId::new(0, 10), &slices);
            proptest::prop_assert_eq!(got, vec![le(expect)]);
        }
    }

    #[test]
    fn fn_adapters() {
        let agg = FnAggregate::new(
            || le(0),
            |a, v| le(decode_u64(a) + decode_u64(v) * 2),
            |a, b| le(decode_u64(a) + decode_u64(b)),
        )
        .with_result(|acc| le(decode_u64(acc) + 1));
        let mut acc = agg.create();
        agg.add(&mut acc, &le(5));
        assert_eq!(agg.result(&acc), le(11));

        let p = FnProcess::new(|_k, _w, vals| vec![le(vals.len() as u64)]);
        assert_eq!(
            p.process(b"k", WindowId::new(0, 1), &[&le(1), &le(2)]),
            vec![le(2)]
        );
    }

    #[test]
    fn decode_u64_tolerates_short_input() {
        assert_eq!(decode_u64(&[1]), 1);
        assert_eq!(decode_u64(&[]), 0);
    }
}
