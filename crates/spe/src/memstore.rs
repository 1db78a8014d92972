//! The budgeted in-memory state backend.
//!
//! Flink's default state backend keeps windows on the JVM heap; it is
//! fast until state outgrows memory, at which point jobs die (paper
//! Figure 8's crossed bars; §6.1 also attributes in-memory slowdowns to
//! GC pressure at large heaps). This store reproduces the failure mode
//! honestly: a hard byte budget, checked on every write, producing
//! [`StoreError::OutOfMemory`] when exceeded.
//!
//! State lives in two [`WindowMap`]s probed with the borrowed
//! `(key, window)`: a pair's appended values are one [`ValueRun`] —
//! length-prefixed, end to end in one growing allocation — that a drain
//! step or a borrowed take lends slices of, and an aggregate is one
//! buffer an update edits in place. A key is indexed under its window
//! (for the drain) only when its pair is new.
//!
//! What the budget counts is a model of a heap layout, not `size_of` of
//! what the store holds: a pair costs its key plus 48 bytes, each value
//! its bytes plus 24, an aggregate its key and bytes plus 64. A take or
//! a drain step releases a pair's key and overhead whether or not the
//! pair was held.

use std::path::Path;
use std::sync::Arc;

use flowkv::aur::ValueRun;
use flowkv::table::WindowMap;
use flowkv_common::backend::{
    collect_chunk, AggregateKind, AggregateUpdate, KeyFilter, OperatorContext, PairSink,
    StateBackend, StateBackendFactory, StateEntry, ValueSink, WindowChunk, WindowKeys,
};
use flowkv_common::codec::{put_len_prefixed, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::metrics::{OpCategory, RecordTimer, StoreMetrics};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::Vfs;

/// What a pair costs the budget beside its key and values.
const PAIR_OVERHEAD: usize = 48;
/// What a value costs the budget beside its bytes.
const VALUE_OVERHEAD: usize = 24;
/// What an aggregate costs the budget beside its key and bytes.
const AGGREGATE_OVERHEAD: usize = 64;

/// The byte budget and the model bytes charged against it.
struct Budget {
    limit: usize,
    used: usize,
}

impl Budget {
    /// Charges `bytes`; past the limit the charge stays and the write
    /// fails.
    fn charge(&mut self, bytes: usize) -> Result<()> {
        self.used += bytes;
        if self.used > self.limit {
            return Err(StoreError::OutOfMemory {
                requested: self.used,
                budget: self.limit,
            });
        }
        Ok(())
    }

    fn release(&mut self, bytes: usize) {
        self.used = self.used.saturating_sub(bytes);
    }
}

/// One pair's appended values and the value bytes they charged.
#[derive(Default)]
struct List {
    values: ValueRun,
    charged: usize,
}

impl List {
    fn push(&mut self, value: &[u8]) {
        self.values.push(value);
        self.charged += value.len() + VALUE_OVERHEAD;
    }
}

/// An in-memory window-state backend with a hard byte budget.
pub struct InMemoryBackend {
    budget: Budget,
    lists: WindowMap<List>,
    aggregates: WindowMap<Vec<u8>>,
    window_keys: WindowKeys,
    chunk_entries: usize,
    metrics: Arc<StoreMetrics>,
    /// Samples the per-record `append` / `put_aggregate` /
    /// `update_aggregate` timer.
    write_timer: RecordTimer,
    vfs: Arc<dyn Vfs>,
}

impl InMemoryBackend {
    /// Creates a backend bounded at `budget` bytes of state, whose
    /// checkpoint files go through `vfs`.
    pub fn new(budget: usize, chunk_entries: usize, vfs: Arc<dyn Vfs>) -> Self {
        InMemoryBackend {
            budget: Budget {
                limit: budget,
                used: 0,
            },
            lists: WindowMap::default(),
            aggregates: WindowMap::default(),
            window_keys: WindowKeys::default(),
            chunk_entries: chunk_entries.max(1),
            metrics: StoreMetrics::new_shared(),
            write_timer: RecordTimer::default(),
            vfs,
        }
    }

    /// Removes `(key, window)`'s list, releasing its charge — the key and
    /// the pair's overhead even when the pair holds nothing.
    fn remove_list(&mut self, key: &[u8], window: WindowId) -> Option<List> {
        let list = self.lists.remove(key, window);
        let (charged, count) = (list.as_ref()).map_or((0, 0), |l| (l.charged, l.values.count()));
        self.budget.release(key.len() + PAIR_OVERHEAD + charged);
        self.metrics.add_records_read(count);
        list
    }

    fn clear(&mut self) {
        self.lists.clear();
        self.aggregates.clear();
        self.window_keys = WindowKeys::default();
        self.budget.used = 0;
    }
}

impl StateBackend for InMemoryBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], _ts: Timestamp) -> Result<()> {
        let _t = self.write_timer.start(&self.metrics, OpCategory::Write);
        match self.lists.get_mut(key, window) {
            Some(list) => {
                self.budget.charge(value.len() + VALUE_OVERHEAD)?;
                list.push(value);
            }
            None => {
                self.budget.charge(key.len() + PAIR_OVERHEAD)?;
                self.budget.charge(value.len() + VALUE_OVERHEAD)?;
                let mut list = List::default();
                list.push(value);
                self.lists.insert(key, window, list);
                self.window_keys.insert(key, window);
            }
        }
        self.metrics.add_records_written(1);
        Ok(())
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        collect_chunk(|sink| self.drain_window_chunk(window, sink))
    }

    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        let _t = self.metrics.timer(OpCategory::Read);
        let Some(keys) = self.window_keys.next_chunk(window, self.chunk_entries) else {
            return Ok(false);
        };
        for key in keys {
            if let Some(list) = self.remove_list(&key, window) {
                list.values.lend(&mut |value| sink(&key, value))?;
            }
        }
        Ok(true)
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let mut values = Vec::new();
        self.take_values_with(key, window, &mut |value| values.push(value.to_vec()))?;
        Ok(values)
    }

    fn take_values_with(
        &mut self,
        key: &[u8],
        window: WindowId,
        sink: ValueSink<'_>,
    ) -> Result<usize> {
        let _t = self.metrics.timer(OpCategory::Read);
        self.window_keys.remove(key, window);
        let Some(list) = self.remove_list(key, window) else {
            return Ok(0);
        };
        list.values.lend(sink)?;
        Ok(list.values.count() as usize)
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let mut values = Vec::new();
        if let Some(list) = self.lists.get(key, window) {
            list.values.decode_into(&mut values)?;
        }
        self.metrics.add_records_read(values.len() as u64);
        Ok(values)
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let taken = self.aggregates.remove(key, window);
        if let Some(v) = &taken {
            self.budget
                .release(key.len() + v.len() + AGGREGATE_OVERHEAD);
            self.metrics.add_records_read(1);
        }
        Ok(taken)
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        let _t = self.write_timer.start(&self.metrics, OpCategory::Write);
        self.budget
            .charge(key.len() + aggregate.len() + AGGREGATE_OVERHEAD)?;
        if let Some(old) = self.aggregates.insert(key, window, aggregate.to_vec()) {
            self.budget
                .release(key.len() + old.len() + AGGREGATE_OVERHEAD);
        }
        self.metrics.add_records_written(1);
        Ok(())
    }

    fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        update: AggregateUpdate<'_>,
    ) -> Result<()> {
        let _t = self.write_timer.start(&self.metrics, OpCategory::Write);
        // Charged as the take and the put it stands for.
        let after = match self.aggregates.get_mut(key, window) {
            Some(aggregate) => {
                let before = aggregate.len();
                update(aggregate, true);
                self.budget.release(key.len() + before + AGGREGATE_OVERHEAD);
                self.metrics.add_records_read(1);
                aggregate.len()
            }
            None => {
                let mut aggregate = Vec::new();
                update(&mut aggregate, false);
                let after = aggregate.len();
                self.aggregates.insert(key, window, aggregate);
                after
            }
        };
        self.budget.charge(key.len() + after + AGGREGATE_OVERHEAD)?;
        self.metrics.add_records_written(1);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        _kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        let mut entries = Vec::new();
        for (key, window, list) in self.lists.iter() {
            if in_range(key) {
                let mut values = Vec::new();
                list.values.decode_into(&mut values)?;
                entries.push(StateEntry::Values {
                    key: key.to_vec(),
                    window,
                    values,
                });
            }
        }
        for (key, window, value) in self.aggregates.iter() {
            if in_range(key) {
                entries.push(StateEntry::Aggregate {
                    key: key.to_vec(),
                    window,
                    value: value.clone(),
                });
            }
        }
        Ok(entries)
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.metrics)
    }

    fn memory_bytes(&self) -> usize {
        self.budget.used
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.vfs
            .create_dir_all(dir)
            .map_err(|e| StoreError::io_at("mem checkpoint dir", dir, e))?;
        let mut w = LogWriter::create_in(&self.vfs, dir.join("mem.ckpt"))?;
        let mut buf = Vec::new();
        for (key, window, list) in self.lists.iter() {
            buf.clear();
            buf.push(0);
            put_len_prefixed(&mut buf, key);
            window.encode_to(&mut buf);
            put_varint_u64(&mut buf, list.values.count());
            list.values.lend(&mut |v| put_len_prefixed(&mut buf, v))?;
            w.append(&buf)?;
        }
        for (key, window, agg) in self.aggregates.iter() {
            buf.clear();
            buf.push(1);
            put_len_prefixed(&mut buf, key);
            window.encode_to(&mut buf);
            put_len_prefixed(&mut buf, agg);
            w.append(&buf)?;
        }
        w.sync()
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.clear();
        let mut r = LogReader::open_in(&self.vfs, dir.join("mem.ckpt"))?;
        while let Some((_, payload)) = r.next_record()? {
            let mut dec = Decoder::new(&payload);
            let tag = dec.take(1, "mem tag")?[0];
            let key = dec.get_len_prefixed()?;
            let window = WindowId::decode_from(&mut dec)?;
            match tag {
                0 => {
                    let n = dec.get_varint_u64()? as usize;
                    let mut values = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        values.push(dec.get_len_prefixed()?);
                    }
                    for v in &values {
                        self.budget.charge(v.len() + VALUE_OVERHEAD)?;
                    }
                    self.budget.charge(key.len() + PAIR_OVERHEAD)?;
                    let mut list = List::default();
                    values.into_iter().for_each(|v| list.push(v));
                    self.window_keys.insert(key, window);
                    self.lists.insert(key, window, list);
                }
                1 => {
                    let agg = dec.get_len_prefixed()?;
                    self.budget
                        .charge(key.len() + agg.len() + AGGREGATE_OVERHEAD)?;
                    self.aggregates.insert(key, window, agg.to_vec());
                }
                other => {
                    return Err(StoreError::invalid_state(format!(
                        "unknown mem checkpoint tag {other}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.clear();
        Ok(())
    }
}

/// Factory producing [`InMemoryBackend`] instances.
pub struct InMemoryFactory {
    budget_per_partition: usize,
    chunk_entries: usize,
    vfs: Arc<dyn Vfs>,
}

impl InMemoryFactory {
    /// Creates a factory with a per-partition byte budget, whose
    /// backends' checkpoint files go through `vfs`.
    pub fn new(budget_per_partition: usize, vfs: Arc<dyn Vfs>) -> Self {
        InMemoryFactory {
            budget_per_partition,
            chunk_entries: 1024,
            vfs,
        }
    }
}

impl StateBackendFactory for InMemoryFactory {
    fn create(&self, _ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        Ok(Box::new(InMemoryBackend::new(
            self.budget_per_partition,
            self.chunk_entries,
            Arc::clone(&self.vfs),
        )))
    }

    fn name(&self) -> &'static str {
        "inmemory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    #[test]
    fn append_take_roundtrip() {
        let mut b = InMemoryBackend::new(1 << 20, 4, StdVfs::shared());
        b.append(b"k", w(0, 10), b"v1", 1).unwrap();
        b.append(b"k", w(0, 10), b"v2", 2).unwrap();
        assert_eq!(
            b.take_values(b"k", w(0, 10)).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
        assert!(b.take_values(b"k", w(0, 10)).unwrap().is_empty());
        assert_eq!(b.memory_bytes(), 0);
    }

    #[test]
    fn window_chunks_drain() {
        let mut b = InMemoryBackend::new(1 << 20, 3, StdVfs::shared());
        for i in 0..10u32 {
            b.append(format!("k{i}").as_bytes(), w(0, 10), b"v", 0)
                .unwrap();
        }
        let mut total = 0;
        while let Some(chunk) = b.get_window_chunk(w(0, 10)).unwrap() {
            assert!(chunk.len() <= 3);
            total += chunk.len();
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn aggregates_roundtrip() {
        let mut b = InMemoryBackend::new(1 << 20, 4, StdVfs::shared());
        b.put_aggregate(b"k", w(0, 10), b"3").unwrap();
        b.put_aggregate(b"k", w(0, 10), b"7").unwrap();
        assert_eq!(
            b.take_aggregate(b"k", w(0, 10)).unwrap(),
            Some(b"7".to_vec())
        );
        assert_eq!(b.take_aggregate(b"k", w(0, 10)).unwrap(), None);
    }

    #[test]
    fn budget_enforced_like_oom() {
        let mut b = InMemoryBackend::new(256, 4, StdVfs::shared());
        let mut failed = false;
        for i in 0..100u32 {
            if b.append(b"k", w(0, 10), &[0u8; 16], i as i64).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "budget never enforced");
    }

    /// One call of the budget cell's script.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Append(usize, i64, usize),
        Take(usize, i64),
        TakeWith(usize, i64),
        Put(usize, i64, usize),
        Update(usize, i64, usize),
        TakeAggregate(usize, i64),
        Drain(i64),
    }

    /// A seeded script over 6 keys of 5 bytes and 3 windows, values and
    /// aggregates of 0–39 bytes; takes of pairs that hold nothing
    /// included, takes mid-drain not (the engine makes none).
    fn script(seed: u64, len: usize) -> Vec<Op> {
        let mut state = seed;
        let mut next = |n: u64| {
            state = flowkv_common::hash::splitmix64(state);
            (state % n) as usize
        };
        (0..len)
            .map(|_| {
                let (op, k, w, bytes) = (next(20), next(6), next(3) as i64, next(40));
                match op {
                    0..=7 => Op::Append(k, w, bytes),
                    8 => Op::Take(k, w),
                    9 => Op::TakeWith(k, w),
                    10..=12 => Op::Put(k, w, bytes),
                    13..=16 => Op::Update(k, w, bytes),
                    17 => Op::TakeAggregate(k, w),
                    _ => Op::Drain(w),
                }
            })
            .collect()
    }

    fn key(k: usize) -> Vec<u8> {
        format!("key-{k}").into_bytes()
    }

    /// The charge model, independent of the store: a pair's key plus 48
    /// on its first value, a value's bytes plus 24, an aggregate's key
    /// and bytes plus 64; a take or a drain releases a pair's key plus 48
    /// and its values whether or not it holds any, and a put charges
    /// before it releases the aggregate it replaces. Returns, per op, the
    /// highest `used` it checks against the budget (0 for an op that
    /// charges nothing) and `used` after it.
    fn model(ops: &[Op]) -> Vec<(usize, usize)> {
        use std::collections::HashMap;
        let mut lists: HashMap<(usize, i64), Vec<usize>> = HashMap::new();
        let mut aggregates: HashMap<(usize, i64), usize> = HashMap::new();
        let mut used = 0usize;
        let release = |used: &mut usize, k: usize, values: Option<Vec<usize>>| {
            let values: usize = values.unwrap_or_default().iter().map(|v| v + 24).sum();
            *used = used.saturating_sub(key(k).len() + 48 + values);
        };
        let mut out = Vec::new();
        for op in ops {
            let mut checked = 0;
            match *op {
                Op::Append(k, w, bytes) => {
                    if !lists.contains_key(&(k, w)) {
                        used += key(k).len() + 48;
                    }
                    used += bytes + 24;
                    checked = used;
                    lists.entry((k, w)).or_default().push(bytes);
                }
                Op::Take(k, w) | Op::TakeWith(k, w) => {
                    release(&mut used, k, lists.remove(&(k, w)));
                }
                Op::Put(k, w, bytes) => {
                    used += key(k).len() + bytes + 64;
                    checked = used;
                    if let Some(old) = aggregates.insert((k, w), bytes) {
                        used = used.saturating_sub(key(k).len() + old + 64);
                    }
                }
                Op::Update(k, w, bytes) => {
                    let old = aggregates.remove(&(k, w));
                    if let Some(old) = old {
                        used = used.saturating_sub(key(k).len() + old + 64);
                    }
                    let new = old.unwrap_or(0) + bytes;
                    used += key(k).len() + new + 64;
                    checked = used;
                    aggregates.insert((k, w), new);
                }
                Op::TakeAggregate(k, w) => {
                    if let Some(old) = aggregates.remove(&(k, w)) {
                        used = used.saturating_sub(key(k).len() + old + 64);
                    }
                }
                Op::Drain(w) => {
                    let pairs: Vec<usize> = (lists.keys())
                        .filter(|(_, lw)| *lw == w)
                        .map(|(k, _)| *k)
                        .collect();
                    for k in pairs {
                        release(&mut used, k, lists.remove(&(k, w)));
                    }
                }
            }
            out.push((checked, used));
        }
        out
    }

    fn apply(b: &mut InMemoryBackend, op: Op) -> Result<()> {
        let win = |w: i64| WindowId::new(w * 10, w * 10 + 10);
        match op {
            Op::Append(k, w, bytes) => b.append(&key(k), win(w), &vec![7; bytes], 0),
            Op::Take(k, w) => b.take_values(&key(k), win(w)).map(drop),
            Op::TakeWith(k, w) => b.take_values_with(&key(k), win(w), &mut |_| {}).map(drop),
            Op::Put(k, w, bytes) => b.put_aggregate(&key(k), win(w), &vec![7; bytes]),
            Op::Update(k, w, bytes) => {
                let grow = &mut |a: &mut Vec<u8>, _| a.resize(a.len() + bytes, 7);
                b.update_aggregate(&key(k), win(w), grow)
            }
            Op::TakeAggregate(k, w) => b.take_aggregate(&key(k), win(w)).map(drop),
            Op::Drain(w) => {
                while b.drain_window_chunk(win(w), &mut |_, _| {})? {}
                Ok(())
            }
        }
    }

    #[test]
    fn memory_bytes_and_the_out_of_memory_point_follow_the_charge_model() {
        for seed in 0..8 {
            let ops = script(seed, 300);
            let model = model(&ops);
            let mut b = InMemoryBackend::new(usize::MAX, 2, StdVfs::shared());
            for (i, (op, &(_, used))) in ops.iter().zip(&model).enumerate() {
                apply(&mut b, *op).unwrap();
                assert_eq!(b.memory_bytes(), used, "seed {seed}, op {i}: {op:?}");
            }
            // A budget just under each charge the script checks fails at
            // the first op that checks more than it, and not before.
            for &(limit, _) in model.iter().filter(|(checked, _)| *checked > 0) {
                let limit = limit - 1;
                let first = model.iter().position(|(checked, _)| *checked > limit);
                let mut b = InMemoryBackend::new(limit, 2, StdVfs::shared());
                let mut failed = None;
                for (i, op) in ops.iter().enumerate() {
                    if let Err(e) = apply(&mut b, *op) {
                        assert!(matches!(e, StoreError::OutOfMemory { .. }), "{e}");
                        failed = Some(i);
                        break;
                    }
                }
                assert_eq!(failed, first, "seed {seed}, budget {limit}");
            }
        }
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let dir = ScratchDir::new("mem-ckpt").unwrap();
        let mut b = InMemoryBackend::new(1 << 20, 4, StdVfs::shared());
        b.append(b"k", w(0, 10), b"v", 1).unwrap();
        b.put_aggregate(b"a", w(0, 10), b"9").unwrap();
        b.checkpoint(dir.path()).unwrap();
        b.append(b"k", w(0, 10), b"extra", 2).unwrap();
        b.restore(dir.path()).unwrap();
        assert_eq!(b.take_values(b"k", w(0, 10)).unwrap(), vec![b"v".to_vec()]);
        assert_eq!(
            b.take_aggregate(b"a", w(0, 10)).unwrap(),
            Some(b"9".to_vec())
        );
    }
}
