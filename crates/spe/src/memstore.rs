//! The budgeted in-memory state backend.
//!
//! Flink's default state backend keeps windows on the JVM heap; it is
//! fast until state outgrows memory, at which point jobs die (paper
//! Figure 8's crossed bars; §6.1 also attributes in-memory slowdowns to
//! GC pressure at large heaps). This store reproduces the failure mode
//! honestly: a hard byte budget, checked on every write, producing
//! [`StoreError::OutOfMemory`] when exceeded.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use flowkv_common::backend::{
    AggregateKind, AggregateUpdate, KeyFilter, OperatorContext, StateBackend, StateBackendFactory,
    StateEntry, WindowChunk, WindowKeys,
};
use flowkv_common::codec::{put_len_prefixed, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::metrics::{OpCategory, RecordTimer, StoreMetrics};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::Vfs;

type StateKey = (Vec<u8>, WindowId);

/// An in-memory window-state backend with a hard byte budget.
pub struct InMemoryBackend {
    budget: usize,
    used: usize,
    lists: HashMap<StateKey, Vec<Vec<u8>>>,
    aggregates: HashMap<StateKey, Vec<u8>>,
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
            budget,
            used: 0,
            lists: HashMap::new(),
            aggregates: HashMap::new(),
            window_keys: WindowKeys::default(),
            chunk_entries: chunk_entries.max(1),
            metrics: StoreMetrics::new_shared(),
            write_timer: RecordTimer::default(),
            vfs,
        }
    }

    fn charge(&mut self, bytes: usize) -> Result<()> {
        self.used += bytes;
        if self.used > self.budget {
            return Err(StoreError::OutOfMemory {
                requested: self.used,
                budget: self.budget,
            });
        }
        Ok(())
    }

    fn release(&mut self, bytes: usize) {
        self.used = self.used.saturating_sub(bytes);
    }

    fn list_cost(key: &StateKey, values: &[Vec<u8>]) -> usize {
        key.0.len() + 48 + values.iter().map(|v| v.len() + 24).sum::<usize>()
    }
}

impl StateBackend for InMemoryBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], _ts: Timestamp) -> Result<()> {
        let _t = self.write_timer.start(&self.metrics, OpCategory::Write);
        let state_key = (key.to_vec(), window);
        if !self.lists.contains_key(&state_key) {
            // First value of the pair: account the key overhead too.
            self.charge(key.len() + 48)?;
        }
        self.charge(value.len() + 24)?;
        self.lists
            .entry(state_key)
            .or_default()
            .push(value.to_vec());
        self.window_keys.insert(key, window);
        self.metrics.add_records_written(1);
        Ok(())
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let Some(keys) = self.window_keys.next_chunk(window, self.chunk_entries) else {
            return Ok(None);
        };
        let mut chunk: WindowChunk = Vec::with_capacity(keys.len());
        for key in keys {
            let state_key = (key, window);
            let values = self.lists.remove(&state_key).unwrap_or_default();
            self.release(Self::list_cost(&state_key, &values));
            self.metrics.add_records_read(values.len() as u64);
            chunk.push((state_key.0, values));
        }
        Ok(Some(chunk))
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let state_key = (key.to_vec(), window);
        let values = self.lists.remove(&state_key).unwrap_or_default();
        self.release(Self::list_cost(&state_key, &values));
        self.window_keys.remove(key, window);
        self.metrics.add_records_read(values.len() as u64);
        Ok(values)
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let state_key = (key.to_vec(), window);
        let values = self.lists.get(&state_key).cloned().unwrap_or_default();
        self.metrics.add_records_read(values.len() as u64);
        Ok(values)
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let state_key = (key.to_vec(), window);
        match self.aggregates.remove(&state_key) {
            Some(v) => {
                self.release(key.len() + v.len() + 64);
                self.metrics.add_records_read(1);
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        let _t = self.write_timer.start(&self.metrics, OpCategory::Write);
        let state_key = (key.to_vec(), window);
        self.charge(key.len() + aggregate.len() + 64)?;
        if let Some(old) = self.aggregates.insert(state_key, aggregate.to_vec()) {
            self.release(key.len() + old.len() + 64);
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
        let mut held = true;
        let aggregate = self
            .aggregates
            .entry((key.to_vec(), window))
            .or_insert_with(|| {
                held = false;
                Vec::new()
            });
        let before = aggregate.len();
        update(aggregate, held);
        let after = aggregate.len();
        // Charged as the take and the put it stands for.
        if held {
            self.release(key.len() + before + 64);
            self.metrics.add_records_read(1);
        }
        self.charge(key.len() + after + 64)?;
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
        for ((key, window), values) in &self.lists {
            if in_range(key) {
                entries.push(StateEntry::Values {
                    key: key.clone(),
                    window: *window,
                    values: values.clone(),
                });
            }
        }
        for ((key, window), value) in &self.aggregates {
            if in_range(key) {
                entries.push(StateEntry::Aggregate {
                    key: key.clone(),
                    window: *window,
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
        self.used
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.vfs
            .create_dir_all(dir)
            .map_err(|e| StoreError::io_at("mem checkpoint dir", dir, e))?;
        let mut w = LogWriter::create_in(&self.vfs, dir.join("mem.ckpt"))?;
        for ((key, window), values) in &self.lists {
            let mut buf = vec![0u8];
            put_len_prefixed(&mut buf, key);
            window.encode_to(&mut buf);
            put_varint_u64(&mut buf, values.len() as u64);
            for v in values {
                put_len_prefixed(&mut buf, v);
            }
            w.append(&buf)?;
        }
        for ((key, window), agg) in &self.aggregates {
            let mut buf = vec![1u8];
            put_len_prefixed(&mut buf, key);
            window.encode_to(&mut buf);
            put_len_prefixed(&mut buf, agg);
            w.append(&buf)?;
        }
        w.sync()
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.lists.clear();
        self.aggregates.clear();
        self.window_keys = WindowKeys::default();
        self.used = 0;
        let mut r = LogReader::open_in(&self.vfs, dir.join("mem.ckpt"))?;
        while let Some((_, payload)) = r.next_record()? {
            let mut dec = Decoder::new(&payload);
            let tag = dec.take(1, "mem tag")?[0];
            let key = dec.get_len_prefixed()?.to_vec();
            let window = WindowId::decode_from(&mut dec)?;
            match tag {
                0 => {
                    let n = dec.get_varint_u64()? as usize;
                    let mut values = Vec::with_capacity(n);
                    for _ in 0..n {
                        values.push(dec.get_len_prefixed()?.to_vec());
                    }
                    for v in &values {
                        self.charge(v.len() + 24)?;
                    }
                    self.charge(key.len() + 48)?;
                    self.window_keys.insert(&key, window);
                    self.lists.insert((key, window), values);
                }
                1 => {
                    let agg = dec.get_len_prefixed()?.to_vec();
                    self.charge(key.len() + agg.len() + 64)?;
                    self.aggregates.insert((key, window), agg);
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
        self.lists.clear();
        self.aggregates.clear();
        self.window_keys = WindowKeys::default();
        self.used = 0;
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
