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
use flowkv_common::codec::{put_varint_i64, Decoder};
use flowkv_common::error::Result;
use flowkv_common::types::{Timestamp, Tuple, TupleRef, WindowId};

use crate::batch::TupleBatch;
use crate::latency::Stamped;

/// Tag prefix marking a tuple of the left stream.
pub const LEFT: u8 = 0;
/// Tag prefix marking a tuple of the right stream.
pub const RIGHT: u8 = 1;

/// Combines one left row and one right row into an output value (or
/// filters the pair out with `None`).
pub type JoinFn = Arc<dyn Fn(&[u8], &[u8], &[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// Tags `payload` as a left-stream row for an interval-join stage.
pub fn tag_left(payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(payload.len() + 1);
    v.push(LEFT);
    v.extend_from_slice(payload);
    v
}

/// Tags `payload` as a right-stream row for an interval-join stage.
pub fn tag_right(payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(payload.len() + 1);
    v.push(RIGHT);
    v.extend_from_slice(payload);
    v
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
    dropped_late: u64,
    /// Reused per-element output buffer for
    /// [`IntervalJoinOperator::on_batch`].
    batch_scratch: Vec<Tuple>,
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
            dropped_late: 0,
            batch_scratch: Vec::new(),
        }
    }

    /// The bucket window covering `ts`.
    fn bucket_of(&self, ts: Timestamp) -> WindowId {
        let g = self.spec.bucket_ms.max(1);
        let start = ts.div_euclid(g) * g;
        WindowId::new(start, start + g)
    }

    /// Processes one tagged tuple, emitting joined rows into `out`.
    ///
    /// The tuple's value must start with [`LEFT`] or [`RIGHT`] (see
    /// [`tag_left`] / [`tag_right`]).
    pub fn on_element(&mut self, tuple: TupleRef<'_>, out: &mut Vec<Tuple>) -> Result<()> {
        if tuple.timestamp < self.watermark {
            self.dropped_late += 1;
            return Ok(());
        }
        let (side, payload) = match tuple.value.split_first() {
            Some((&side, rest)) if side == LEFT || side == RIGHT => (side, rest),
            _ => {
                return Err(flowkv_common::StoreError::invalid_state(
                    "interval-join input lacks a side tag".to_string(),
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

    /// Processes one exchange micro-batch, emitting joined rows into
    /// `out` with each input's own origin stamp.
    ///
    /// The rows are stably sorted by key so same-key probes and appends
    /// touch the store back to back; stability preserves per-key arrival
    /// order, and tuples of different keys never join, so outputs match
    /// element-at-a-time processing (up to cross-key emission order).
    pub fn on_batch(&mut self, batch: &mut TupleBatch, out: &mut Vec<Stamped>) -> Result<()> {
        if batch.len() > 1 {
            batch.sort_by_key_stable();
        }
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        for (tuple, origin) in batch.iter() {
            scratch.clear();
            self.on_element(tuple, &mut scratch)?;
            out.extend(scratch.drain(..).map(|tuple| Stamped { tuple, origin }));
        }
        self.batch_scratch = scratch;
        Ok(())
    }

    /// Advances event time, purging buckets no future tuple can probe.
    pub fn on_watermark(&mut self, watermark: Timestamp, _out: &mut Vec<Tuple>) -> Result<()> {
        self.watermark = watermark;
        loop {
            let Some((purge_at, key, bucket)) = self.purge_timers.iter().next().cloned() else {
                return Ok(());
            };
            if purge_at > watermark {
                return Ok(());
            }
            self.purge_timers.remove(&(purge_at, key.clone(), bucket));
            self.live_buckets.remove(&(key.clone(), bucket));
            // Fetch-and-remove, discarding: the bucket is expired.
            self.backend.take_values(&key, bucket)?;
        }
    }

    /// Tuples dropped for arriving behind the watermark.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// The operator's state backend (for flushing and metrics).
    pub fn backend_mut(&mut self) -> &mut dyn StateBackend {
        self.backend.as_mut()
    }

    /// Checkpoints the backend and the engine-side bucket registry.
    pub fn checkpoint(&mut self, dir: &std::path::Path) -> Result<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| flowkv_common::StoreError::io("join checkpoint dir", e))?;
        self.backend.checkpoint(dir)?;
        use flowkv_common::codec::{put_len_prefixed, put_varint_u64};
        let mut buf = Vec::new();
        put_varint_i64(&mut buf, self.watermark);
        put_varint_u64(&mut buf, self.dropped_late);
        put_varint_u64(&mut buf, self.purge_timers.len() as u64);
        for (purge_at, key, bucket) in &self.purge_timers {
            put_varint_i64(&mut buf, *purge_at);
            put_len_prefixed(&mut buf, key);
            bucket.encode_to(&mut buf);
        }
        let mut writer = flowkv_common::logfile::LogWriter::create(dir.join("JOINSTATE"))?;
        writer.append(&buf)?;
        writer.sync()
    }

    /// Restores from a checkpoint written by
    /// [`IntervalJoinOperator::checkpoint`].
    pub fn restore(&mut self, dir: &std::path::Path) -> Result<()> {
        self.backend.restore(dir)?;
        let mut reader = flowkv_common::logfile::LogReader::open(dir.join("JOINSTATE"))?;
        let (_, payload) = reader.next_record()?.ok_or_else(|| {
            flowkv_common::StoreError::invalid_state("empty join checkpoint".to_string())
        })?;
        let mut dec = Decoder::new(&payload);
        self.watermark = dec.get_varint_i64()?;
        self.dropped_late = dec.get_varint_u64()?;
        self.purge_timers.clear();
        self.live_buckets.clear();
        for _ in 0..dec.get_varint_u64()? {
            let purge_at = dec.get_varint_i64()?;
            let key = dec.get_len_prefixed()?.to_vec();
            let bucket = WindowId::decode_from(&mut dec)?;
            self.live_buckets.insert((key.clone(), bucket));
            self.purge_timers.insert((purge_at, key, bucket));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::InMemoryBackend;

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
            Box::new(InMemoryBackend::new(1 << 20, 8)),
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
