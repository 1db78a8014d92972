//! Property tests for the interval-join operator: arbitrary two-sided
//! streams, bounds, and bucket widths must match a brute-force join.

use std::sync::Arc;

use flowkv_common::types::{Tuple, MAX_TIMESTAMP};
use flowkv_common::vfs::StdVfs;
use flowkv_spe::join::{tag_left, tag_right, IntervalJoinOperator, IntervalJoinSpec};
use flowkv_spe::memstore::InMemoryBackend;
use flowkv_spe::operator::KeyedOperator;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Row {
    left: bool,
    key: u8,
    ts_step: u8,
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (any::<bool>(), 0u8..4, any::<u8>()).prop_map(|(left, key, ts_step)| Row {
            left,
            key,
            ts_step,
        }),
        1..80,
    )
}

/// Materializes rows as an in-order stream (timestamps are the running
/// sum of small steps, so disorder never occurs).
fn stream(rows: &[Row]) -> Vec<Tuple> {
    let mut ts = 0i64;
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            ts += i64::from(r.ts_step % 16);
            let payload = format!("{}{}", if r.left { "L" } else { "R" }, i);
            let value = if r.left {
                tag_left(payload.as_bytes())
            } else {
                tag_right(payload.as_bytes())
            };
            Tuple::new(vec![r.key], value, ts)
        })
        .collect()
}

fn brute_force(tuples: &[Tuple], lower: i64, upper: i64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for l in tuples.iter().filter(|t| t.value[0] == 0) {
        for r in tuples.iter().filter(|t| t.value[0] == 1) {
            if l.key == r.key
                && r.timestamp >= l.timestamp + lower
                && r.timestamp <= l.timestamp + upper
            {
                let mut v = l.value[1..].to_vec();
                v.push(b'|');
                v.extend_from_slice(&r.value[1..]);
                out.push(v);
            }
        }
    }
    out.sort();
    out
}

fn run_operator(
    tuples: &[Tuple],
    lower: i64,
    upper: i64,
    bucket_ms: i64,
    watermark_every: usize,
) -> Vec<Vec<u8>> {
    let spec = IntervalJoinSpec {
        name: "prop".into(),
        lower,
        upper,
        bucket_ms,
        join: Arc::new(|_k, l: &[u8], r: &[u8]| {
            let mut v = l.to_vec();
            v.push(b'|');
            v.extend_from_slice(r);
            Some(v)
        }),
    };
    let mut op = IntervalJoinOperator::new(
        spec,
        Box::new(InMemoryBackend::new(1 << 20, 8, StdVfs::shared())),
    );
    let mut out = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        op.on_element(t.borrowed(), &mut out).unwrap();
        if (i + 1) % watermark_every.max(1) == 0 {
            // In-order stream: the watermark equals the last timestamp,
            // which never makes future tuples late but does purge.
            op.on_watermark(t.timestamp, &mut out).unwrap();
        }
    }
    op.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
    let mut values: Vec<Vec<u8>> = out.into_iter().map(|t| t.value).collect();
    values.sort();
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn operator_matches_brute_force(
        rows in rows(),
        bound_a in -64i64..64,
        bound_b in -64i64..64,
        bucket in 1i64..64,
        wm_every in 1usize..20,
    ) {
        let (lower, upper) = (bound_a.min(bound_b), bound_a.max(bound_b));
        let tuples = stream(&rows);
        let expected = brute_force(&tuples, lower, upper);
        let got = run_operator(&tuples, lower, upper, bucket, wm_every);
        prop_assert_eq!(got, expected);
    }

    /// Purging never affects results: with or without intermediate
    /// watermarks, an in-order stream joins identically.
    #[test]
    fn purging_is_transparent(rows in rows(), bucket in 1i64..32) {
        let tuples = stream(&rows);
        let with_purges = run_operator(&tuples, -20, 20, bucket, 3);
        let without = run_operator(&tuples, -20, 20, bucket, usize::MAX);
        prop_assert_eq!(with_purges, without);
    }
}
