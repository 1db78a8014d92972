//! Interval joins over two keyed streams (paper §8, future work).
//!
//! An interval join emits `(l, r)` for same-key tuples whose timestamps
//! satisfy `r.ts ∈ [l.ts + lower, l.ts + upper]`. Each side's rows are
//! buffered in the state backend under coarse *bucket* windows keyed by
//! event time; an arriving tuple probes the other side's overlapping
//! buckets with the non-destructive [`peek_values`] read (the API
//! extension this operator motivated) and joins against every match.
//! Buckets are purged once the watermark passes the last instant at
//! which any future tuple could still probe them.
//!
//! Buffered rows are appends and reads are per-key at key-dependent
//! times, so FlowKV classifies the operator's store as
//! append + unaligned read — the same store session windows use.
//!
//! [`peek_values`]: flowkv_common::backend::StateBackend::peek_values

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use flowkv_common::backend::{AggregateKind, OperatorSemantics, StateBackend, WindowKind};
use flowkv_common::codec::{put_len_prefixed, put_varint_i64, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::types::{Timestamp, Tuple, TupleRef, WindowId};

use crate::batch::TupleBatch;
use crate::operator::{KeyedOperator, LateDrops};

/// Tag prefix marking a tuple of the left stream.
pub const LEFT: u8 = 0;
/// Tag prefix marking a tuple of the right stream.
pub const RIGHT: u8 = 1;

/// Combines one left row and one right row into an output value (or
/// filters the pair out with `None`).
pub type JoinFn = Arc<dyn Fn(&[u8], &[u8], &[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// Tags `payload` as a left-stream row for an interval-join stage.
pub fn tag_left(payload: &[u8]) -> Vec<u8> {
    [&[LEFT], payload].concat()
}

/// Tags `payload` as a right-stream row for an interval-join stage.
pub fn tag_right(payload: &[u8]) -> Vec<u8> {
    [&[RIGHT], payload].concat()
}

/// Configuration of one interval-join stage.
#[derive(Clone)]
pub struct IntervalJoinSpec {
    /// Stage name, unique within the job.
    pub name: String,
    /// Relative lower bound: right rows join left row `l` when
    /// `r.ts ≥ l.ts + lower` (usually negative).
    pub lower: i64,
    /// Relative upper bound: `r.ts ≤ l.ts + upper`.
    pub upper: i64,
    /// Width of the buffering buckets in event-time milliseconds.
    pub bucket_ms: i64,
    /// The join function.
    pub join: JoinFn,
}

impl IntervalJoinSpec {
    /// The semantics the state-backend factory sees: buffered appends
    /// read per key at key-dependent times.
    pub fn semantics(&self) -> OperatorSemantics {
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Custom)
    }

    /// Event time after a bucket's end at which it can no longer be
    /// probed by any future tuple.
    fn horizon(&self) -> i64 {
        self.upper.max(-self.lower).max(0)
    }
}

/// A stored row: side tag, timestamp, payload.
fn encode_row(side: u8, ts: Timestamp, payload: &[u8]) -> Vec<u8> {
    let mut v = vec![side];
    put_varint_i64(&mut v, ts);
    v.extend_from_slice(payload);
    v
}

fn decode_row(row: &[u8]) -> Result<(u8, Timestamp, &[u8])> {
    let mut dec = Decoder::new(row);
    let side = dec.take(1, "join row side")?[0];
    let ts = dec.get_varint_i64()?;
    let rest = dec.take(dec.remaining(), "join row payload")?;
    Ok((side, ts, rest))
}

/// The interval-join operator bound to one state-backend partition.
pub struct IntervalJoinOperator {
    spec: IntervalJoinSpec,
    backend: Box<dyn StateBackend>,
    /// Buckets holding live rows, for purge deduplication.
    live_buckets: HashSet<(Vec<u8>, WindowId)>,
    /// Purge schedule: `(purge_at, key, bucket)`.
    purge_timers: BTreeSet<(Timestamp, Vec<u8>, WindowId)>,
    watermark: Timestamp,
    late: LateDrops,
}

impl IntervalJoinOperator {
    /// Creates an operator for `spec` over `backend`.
    pub fn new(spec: IntervalJoinSpec, backend: Box<dyn StateBackend>) -> Self {
        IntervalJoinOperator {
            spec,
            backend,
            live_buckets: HashSet::new(),
            purge_timers: BTreeSet::new(),
            watermark: Timestamp::MIN,
            late: LateDrops::default(),
        }
    }

    /// The bucket window covering `ts`.
    fn bucket_of(&self, ts: Timestamp) -> WindowId {
        let g = self.spec.bucket_ms.max(1);
        let start = ts.div_euclid(g) * g;
        WindowId::new(start, start + g)
    }
}

impl KeyedOperator for IntervalJoinOperator {
    /// Emits the tuple joined with every buffered match, then buffers it.
    /// Its value must start with [`LEFT`] or [`RIGHT`] (see [`tag_left`]
    /// / [`tag_right`]).
    fn on_element(&mut self, tuple: TupleRef<'_>, out: &mut Vec<Tuple>) -> Result<()> {
        if self.late.drops(tuple, self.watermark) {
            return Ok(());
        }
        let (side, payload) = match tuple.value.split_first() {
            Some((&side, rest)) if side == LEFT || side == RIGHT => (side, rest),
            _ => {
                return Err(StoreError::invalid_state(
                    "interval-join input lacks a side tag",
                ))
            }
        };
        let ts = tuple.timestamp;

        // Probe the other side's overlapping buckets. For a left row the
        // matching right timestamps lie in [ts+lower, ts+upper]; for a
        // right row the matching left timestamps lie in [ts−upper,
        // ts−lower].
        let (lo, hi) = if side == LEFT {
            (ts + self.spec.lower, ts + self.spec.upper)
        } else {
            (ts - self.spec.upper, ts - self.spec.lower)
        };
        if lo <= hi {
            let g = self.spec.bucket_ms.max(1);
            let mut bucket_start = lo.div_euclid(g) * g;
            while bucket_start <= hi {
                let bucket = WindowId::new(bucket_start, bucket_start + g);
                for row in self.backend.peek_values(tuple.key, bucket)? {
                    let (other_side, other_ts, other_payload) = decode_row(&row)?;
                    if other_side == side || other_ts < lo || other_ts > hi {
                        continue;
                    }
                    let (l, r) = if side == LEFT {
                        (payload, other_payload)
                    } else {
                        (other_payload, payload)
                    };
                    if let Some(joined) = (self.spec.join)(tuple.key, l, r) {
                        out.push(Tuple::new(tuple.key.to_vec(), joined, ts.max(other_ts)));
                    }
                }
                bucket_start += g;
            }
        }

        // Buffer this row for future probes from the other side.
        let bucket = self.bucket_of(ts);
        self.backend
            .append(tuple.key, bucket, &encode_row(side, ts, payload), ts)?;
        if self.live_buckets.insert((tuple.key.to_vec(), bucket)) {
            let purge_at = bucket.end.saturating_add(self.spec.horizon());
            self.purge_timers
                .insert((purge_at, tuple.key.to_vec(), bucket));
        }
        Ok(())
    }

    /// Advances event time, purging buckets no future tuple can probe.
    fn on_watermark(&mut self, watermark: Timestamp, _out: &mut Vec<Tuple>) -> Result<()> {
        self.watermark = watermark;
        while (self.purge_timers.first()).is_some_and(|(at, ..)| *at <= watermark) {
            let (_, key, bucket) = self.purge_timers.pop_first().expect("checked above");
            self.live_buckets.remove(&(key.clone(), bucket));
            // Fetch-and-remove, discarding: the bucket is expired.
            self.backend.take_values(&key, bucket)?;
        }
        Ok(())
    }

    fn backend_mut(&mut self) -> &mut dyn StateBackend {
        self.backend.as_mut()
    }

    fn dropped_late(&self) -> u64 {
        self.late.count
    }

    fn set_collect_late(&mut self, collect: bool) {
        self.late.collect = collect;
    }

    fn take_late(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.late.kept)
    }

    /// The watermark, the late count and the purge schedule; the live
    /// buckets are the schedule's.
    fn encode_engine_state(&self, buf: &mut Vec<u8>) {
        put_varint_i64(buf, self.watermark);
        put_varint_u64(buf, self.late.count);
        put_varint_u64(buf, self.purge_timers.len() as u64);
        for (purge_at, key, bucket) in &self.purge_timers {
            put_varint_i64(buf, *purge_at);
            put_len_prefixed(buf, key);
            bucket.encode_to(buf);
        }
    }

    fn decode_engine_state(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.watermark = dec.get_varint_i64()?;
        self.late.count = dec.get_varint_u64()?;
        self.purge_timers.clear();
        self.live_buckets.clear();
        for _ in 0..dec.get_varint_u64()? {
            let purge_at = dec.get_varint_i64()?;
            let key = dec.get_len_prefixed()?.to_vec();
            let bucket = WindowId::decode_from(dec)?;
            self.live_buckets.insert((key.clone(), bucket));
            self.purge_timers.insert((purge_at, key, bucket));
        }
        Ok(())
    }

    /// The rows are stably sorted by key so same-key probes and appends
    /// touch the store back to back; stability preserves per-key arrival
    /// order, and tuples of different keys never join, so outputs match
    /// element-at-a-time processing (up to cross-key emission order).
    fn prepare_batch(&mut self, batch: &mut TupleBatch) -> Result<()> {
        if batch.len() > 1 {
            batch.sort_by_key_stable();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::InMemoryBackend;
    use flowkv_common::vfs::StdVfs;

    fn op(lower: i64, upper: i64, bucket_ms: i64) -> IntervalJoinOperator {
        IntervalJoinOperator::new(
            IntervalJoinSpec {
                name: "join".into(),
                lower,
                upper,
                bucket_ms,
                join: Arc::new(|_k, l, r| {
                    let mut v = l.to_vec();
                    v.push(b'|');
                    v.extend_from_slice(r);
                    Some(v)
                }),
            },
            Box::new(InMemoryBackend::new(1 << 20, 8, StdVfs::shared())),
        )
    }

    fn left(key: &str, payload: &str, ts: i64) -> Tuple {
        Tuple::new(key.into(), tag_left(payload.as_bytes()), ts)
    }

    fn right(key: &str, payload: &str, ts: i64) -> Tuple {
        Tuple::new(key.into(), tag_right(payload.as_bytes()), ts)
    }

    #[test]
    fn joins_within_interval_only() {
        let mut o = op(-10, 10, 16);
        let mut out = Vec::new();
        o.on_element(left("k", "l1", 100).borrowed(), &mut out)
            .unwrap();
        // In range (|Δ| ≤ 10).
        o.on_element(right("k", "r1", 105).borrowed(), &mut out)
            .unwrap();
        // Out of range.
        o.on_element(right("k", "r2", 150).borrowed(), &mut out)
            .unwrap();
        // In range, arriving before its left partner.
        o.on_element(right("k", "r3", 92).borrowed(), &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, b"l1|r1".to_vec());
        assert_eq!(out[1].value, b"l1|r3".to_vec());
        // Output timestamp is the max of the pair.
        assert_eq!(out[0].timestamp, 105);
        assert_eq!(out[1].timestamp, 100);
    }

    #[test]
    fn keys_do_not_join_across() {
        let mut o = op(-10, 10, 16);
        let mut out = Vec::new();
        o.on_element(left("a", "l", 100).borrowed(), &mut out)
            .unwrap();
        o.on_element(right("b", "r", 100).borrowed(), &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn each_pair_emits_exactly_once() {
        let mut o = op(0, 100, 32);
        let mut out = Vec::new();
        for i in 0..5 {
            o.on_element(left("k", &format!("l{i}"), i * 10).borrowed(), &mut out)
                .unwrap();
        }
        o.on_element(right("k", "r", 60).borrowed(), &mut out)
            .unwrap();
        // Every left with ts ∈ [r.ts−100, r.ts] = all five.
        assert_eq!(out.len(), 5);
        let mut seen: Vec<Vec<u8>> = out.iter().map(|t| t.value.clone()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 5, "duplicate join outputs");
    }

    #[test]
    fn purge_stops_future_joins_and_bounds_state() {
        let mut o = op(-10, 10, 16);
        let mut out = Vec::new();
        o.on_element(left("k", "old", 100).borrowed(), &mut out)
            .unwrap();
        // Watermark far past the purge horizon of bucket(100).
        o.on_watermark(1_000, &mut out).unwrap();
        assert!(o.live_buckets.is_empty());
        assert!(o.purge_timers.is_empty());
        // A (non-late) right at 1005 would have joined old only if old
        // were still buffered and in range — it is neither.
        o.on_element(right("k", "new", 1_005).borrowed(), &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn asymmetric_bounds() {
        // Right must be 0..=50 ms *after* left.
        let mut o = op(0, 50, 64);
        let mut out = Vec::new();
        o.on_element(left("k", "l", 100).borrowed(), &mut out)
            .unwrap();
        o.on_element(right("k", "early", 95).borrowed(), &mut out)
            .unwrap();
        o.on_element(right("k", "ok", 140).borrowed(), &mut out)
            .unwrap();
        o.on_element(right("k", "late", 151).borrowed(), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, b"l|ok".to_vec());
    }

    #[test]
    fn checkpoint_restore_keeps_buffered_rows() {
        use flowkv_common::scratch::ScratchDir;
        let ckpt = ScratchDir::new("join-ckpt").unwrap();
        let mut a = op(-10, 10, 16);
        let mut out = Vec::new();
        a.on_element(left("k", "l", 100).borrowed(), &mut out)
            .unwrap();
        a.checkpoint(ckpt.path()).unwrap();

        let mut b = op(-10, 10, 16);
        b.restore(ckpt.path()).unwrap();
        let mut out = Vec::new();
        b.on_element(right("k", "r", 105).borrowed(), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, b"l|r".to_vec());
    }
}
