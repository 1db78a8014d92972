//! The window-state adapter over the LSM database.
//!
//! Flink's RocksDB state backend encodes `(namespace, key)` composites and
//! maps window operations onto plain KV calls; [`LsmBackend`] does the
//! same. The composite key is the window's order-preserving 16-byte
//! encoding followed by the user key, so all state of one window is a
//! contiguous key range:
//!
//! - `Append` → a merge operand (lazy merging, as RocksDB does),
//! - `Get`/`Put` of aggregates → point `get`/`put` plus a tombstone,
//! - `GetWindow` → a chunked prefix scan with per-key tombstones.
//!
//! None of the paper's semantic-aware optimizations exist here — that is
//! the point of the baseline.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use flowkv_common::backend::{
    AggregateKind, KeyFilter, OperatorContext, StateBackend, StateBackendFactory, StateEntry,
    WindowChunk,
};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{StdVfs, Vfs};

use crate::db::{Db, DbConfig};
use crate::entry::Resolved;

/// Builds the composite key `window ‖ user-key`.
fn composite_key_into(out: &mut Vec<u8>, key: &[u8], window: WindowId) {
    out.clear();
    out.extend_from_slice(&window.to_ordered_bytes());
    out.extend_from_slice(key);
}

/// Smallest key with the window's prefix.
fn window_prefix(window: WindowId) -> Vec<u8> {
    window.to_ordered_bytes().to_vec()
}

/// Exclusive upper bound of the window's key range.
fn window_prefix_end(window: WindowId) -> Vec<u8> {
    let mut bound = window.to_ordered_bytes().to_vec();
    for i in (0..bound.len()).rev() {
        if bound[i] != 0xff {
            bound[i] += 1;
            bound.truncate(i + 1);
            return bound;
        }
    }
    // All bytes were 0xff: fall back to a bound past every 16-byte prefix.
    vec![0xff; 17]
}

/// Window-state backend over [`Db`].
pub struct LsmBackend {
    db: Db,
    chunk_entries: usize,
    /// Scan cursors of windows currently being drained by
    /// [`StateBackend::get_window_chunk`].
    window_cursors: HashMap<WindowId, Vec<u8>>,
    /// Reusable scratch for composite keys, so per-tuple operations
    /// allocate no `Vec<u8>` for the 16-byte-prefixed key.
    key_buf: Vec<u8>,
}

impl LsmBackend {
    /// Opens a backend over a database in `dir`.
    pub fn open(dir: &Path, cfg: DbConfig, chunk_entries: usize) -> Result<Self> {
        Self::open_with_vfs(dir, cfg, chunk_entries, StdVfs::shared())
    }

    /// Opens a backend whose file operations go through `vfs`.
    pub fn open_with_vfs(
        dir: &Path,
        cfg: DbConfig,
        chunk_entries: usize,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        Ok(LsmBackend {
            db: Db::open_with_vfs(dir, cfg, StoreMetrics::new_shared(), vfs)?,
            chunk_entries: chunk_entries.max(1),
            window_cursors: HashMap::new(),
            key_buf: Vec::new(),
        })
    }

    /// Attaches a background I/O ring for block warm-up, routing its
    /// jobs under `tag`.
    pub fn set_ring(&mut self, ring: Arc<IoRing>, tag: u64) {
        self.db.set_ring(ring, tag);
    }

    fn resolved_to_list(resolved: Resolved) -> Vec<Vec<u8>> {
        match resolved {
            Resolved::Absent => Vec::new(),
            Resolved::Value(v) => vec![v],
            Resolved::List(vs) => vs,
        }
    }
}

impl StateBackend for LsmBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], _ts: Timestamp) -> Result<()> {
        let _t = self.db.metrics().timer(OpCategory::Write);
        composite_key_into(&mut self.key_buf, key, window);
        self.db.merge(&self.key_buf, value)
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        let start = self
            .window_cursors
            .get(&window)
            .cloned()
            .unwrap_or_else(|| window_prefix(window));
        let end = window_prefix_end(window);
        let (items, next) = self.db.scan(&start, &end, self.chunk_entries)?;
        if items.is_empty() {
            self.window_cursors.remove(&window);
            return Ok(None);
        }
        let mut chunk: WindowChunk = Vec::with_capacity(items.len());
        for (composite, resolved) in items {
            // Fetch-and-remove: tombstone what we hand out.
            self.db.delete(&composite)?;
            let user_key = composite[16..].to_vec();
            chunk.push((user_key, Self::resolved_to_list(resolved)));
        }
        match next {
            Some(resume) => {
                self.window_cursors.insert(window, resume);
            }
            None => {
                self.window_cursors.remove(&window);
            }
        }
        Ok(Some(chunk))
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        composite_key_into(&mut self.key_buf, key, window);
        let resolved = self.db.get(&self.key_buf)?;
        if !matches!(resolved, Resolved::Absent) {
            self.db.delete(&self.key_buf)?;
        }
        Ok(Self::resolved_to_list(resolved))
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        composite_key_into(&mut self.key_buf, key, window);
        let resolved = self.db.get(&self.key_buf)?;
        Ok(Self::resolved_to_list(resolved))
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        composite_key_into(&mut self.key_buf, key, window);
        match self.db.get(&self.key_buf)? {
            Resolved::Absent => Ok(None),
            Resolved::Value(v) => {
                self.db.delete(&self.key_buf)?;
                Ok(Some(v))
            }
            Resolved::List(_) => Err(StoreError::invalid_state(
                "aggregate key holds merge operands".to_string(),
            )),
        }
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        let _t = self.db.metrics().timer(OpCategory::Write);
        composite_key_into(&mut self.key_buf, key, window);
        self.db.put(&self.key_buf, aggregate)
    }

    fn flush(&mut self) -> Result<()> {
        self.db.flush()
    }

    fn advance_prefetch(&mut self, _stream_time: Timestamp) -> Result<()> {
        // Nothing here anticipates by stream time; the warm-up hints in
        // `warm` carry the schedule. This boundary call only installs
        // whatever the ring finished since the last drain (and re-raises
        // background crash faults promptly).
        self.db.drain_warm()
    }

    fn wants_warm(&self) -> bool {
        self.db.has_ring()
    }

    fn warm(&mut self, pairs: &[(&[u8], WindowId)]) -> Result<()> {
        if pairs.is_empty() || !self.db.has_ring() {
            return Ok(());
        }
        let keys: Vec<Vec<u8>> = pairs
            .iter()
            .map(|(key, window)| {
                let mut composite = Vec::with_capacity(16 + key.len());
                composite.extend_from_slice(&window.to_ordered_bytes());
                composite.extend_from_slice(key);
                composite
            })
            .collect();
        self.db.warm_batch(&keys)
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        _kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        // Full-range scan in resumable chunks; the upper bound is the
        // same sentinel `window_prefix_end` falls back to, which sorts
        // past every 16-byte window prefix.
        let mut entries = Vec::new();
        let mut start = Vec::new();
        let end = vec![0xff; 17];
        loop {
            let (items, next) = self.db.scan(&start, &end, self.chunk_entries)?;
            for (composite, resolved) in items {
                let window = WindowId::from_ordered_bytes(&composite[..16])?;
                let key = composite[16..].to_vec();
                if !in_range(&key) {
                    continue;
                }
                // `put` resolves to `Value` (an aggregate), `merge`
                // operands resolve to `List` (appended values) — the
                // same discrimination `take_aggregate` relies on.
                match resolved {
                    Resolved::Absent => {}
                    Resolved::Value(value) => {
                        entries.push(StateEntry::Aggregate { key, window, value })
                    }
                    Resolved::List(values) => entries.push(StateEntry::Values {
                        key,
                        window,
                        values,
                    }),
                }
            }
            match next {
                Some(resume) => start = resume,
                None => break,
            }
        }
        Ok(entries)
    }

    fn demoted_hint(&mut self, window: WindowId) -> Result<()> {
        // A demotion wave just tombstoned every row of `window`; run the
        // size-triggered compaction check now so the dead range is
        // reclaimed while the touched blocks are still cache-warm,
        // instead of waiting for the next write to trip it.
        self.window_cursors.remove(&window);
        self.db.maybe_compact()
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        self.db.metrics()
    }

    fn memory_bytes(&self) -> usize {
        self.db.memory_bytes()
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.db.checkpoint(dir)
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.window_cursors.clear();
        self.db.restore(dir)
    }

    fn close(&mut self) -> Result<()> {
        self.db.destroy()
    }
}

/// Entries per window chunk of every backend a factory creates.
const CHUNK_ENTRIES: usize = 1024;

/// Factory producing [`LsmBackend`] instances for operator partitions.
pub struct LsmBackendFactory {
    cfg: DbConfig,
    vfs: Arc<dyn Vfs>,
}

impl LsmBackendFactory {
    /// Creates a factory with the given database configuration.
    pub fn new(cfg: DbConfig) -> Self {
        LsmBackendFactory {
            cfg,
            vfs: StdVfs::shared(),
        }
    }

    /// Routes every file operation of produced backends through `vfs`.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }
}

impl StateBackendFactory for LsmBackendFactory {
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        let dir = ctx.partition_dir();
        self.vfs
            .create_dir_all(&dir)
            .map_err(|e| StoreError::io_at("backend dir", &dir, e))?;
        let mut backend = LsmBackend::open_with_vfs(
            &dir,
            self.cfg.clone(),
            CHUNK_ENTRIES,
            Arc::clone(&self.vfs),
        )?;
        if let Some(policy) = ctx.io.as_ref().filter(|p| p.threads > 0) {
            let ring = IoRing::with_telemetry(
                Arc::clone(&self.vfs),
                policy.threads,
                policy.shuffle_seed,
                ctx.telemetry.clone(),
            );
            backend.set_ring(Arc::new(ring), 0);
        }
        Ok(Box::new(backend))
    }

    fn name(&self) -> &'static str {
        "lsm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;

    fn backend(dir: &Path) -> LsmBackend {
        LsmBackend::open(dir, DbConfig::small_for_tests(), 8).unwrap()
    }

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    #[test]
    fn append_take_values_roundtrip() {
        let dir = ScratchDir::new("lsmb-append").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        b.append(b"k", win, b"v1", 5).unwrap();
        b.append(b"k", win, b"v2", 6).unwrap();
        assert_eq!(
            b.take_values(b"k", win).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
        // Fetch-and-remove: second take is empty.
        assert!(b.take_values(b"k", win).unwrap().is_empty());
    }

    #[test]
    fn windows_do_not_interfere() {
        let dir = ScratchDir::new("lsmb-windows").unwrap();
        let mut b = backend(dir.path());
        b.append(b"k", w(0, 100), b"a", 1).unwrap();
        b.append(b"k", w(100, 200), b"b", 101).unwrap();
        assert_eq!(b.take_values(b"k", w(0, 100)).unwrap(), vec![b"a".to_vec()]);
        assert_eq!(
            b.take_values(b"k", w(100, 200)).unwrap(),
            vec![b"b".to_vec()]
        );
    }

    #[test]
    fn aggregate_roundtrip() {
        let dir = ScratchDir::new("lsmb-agg").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        assert_eq!(b.take_aggregate(b"k", win).unwrap(), None);
        b.put_aggregate(b"k", win, b"7").unwrap();
        assert_eq!(b.take_aggregate(b"k", win).unwrap(), Some(b"7".to_vec()));
        assert_eq!(b.take_aggregate(b"k", win).unwrap(), None);
    }

    #[test]
    fn window_chunks_drain_all_keys() {
        let dir = ScratchDir::new("lsmb-chunks").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 1000);
        let other = w(1000, 2000);
        for i in 0..30u32 {
            let key = format!("key-{i:03}");
            b.append(key.as_bytes(), win, b"v", i as i64).unwrap();
            b.append(key.as_bytes(), other, b"x", 1000 + i as i64)
                .unwrap();
        }
        let mut seen = Vec::new();
        while let Some(chunk) = b.get_window_chunk(win).unwrap() {
            assert!(chunk.len() <= 8, "chunk exceeds configured size");
            for (k, vs) in chunk {
                assert_eq!(vs, vec![b"v".to_vec()]);
                seen.push(k);
            }
        }
        assert_eq!(seen.len(), 30);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 30, "duplicate keys across chunks");
        // The other window is untouched.
        assert_eq!(
            b.take_values(b"key-000", other).unwrap(),
            vec![b"x".to_vec()]
        );
    }

    #[test]
    fn checkpoint_restore_preserves_state() {
        let dir = ScratchDir::new("lsmb-ckpt").unwrap();
        let ckpt = ScratchDir::new("lsmb-ckpt-dst").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        b.append(b"k", win, b"v", 1).unwrap();
        b.checkpoint(ckpt.path()).unwrap();
        b.append(b"k", win, b"lost", 2).unwrap();
        b.restore(ckpt.path()).unwrap();
        assert_eq!(b.take_values(b"k", win).unwrap(), vec![b"v".to_vec()]);
    }

    #[test]
    fn warm_hint_serves_take_from_cache() {
        let dir = ScratchDir::new("lsmb-warm").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        for i in 0..200u32 {
            b.put_aggregate(format!("key-{i:03}").as_bytes(), win, &[9u8; 64])
                .unwrap();
        }
        b.flush().unwrap();
        let ring = Arc::new(flowkv_common::ioring::IoRing::new(StdVfs::shared(), 2));
        b.set_ring(Arc::clone(&ring), 0);

        let before = b.metrics().snapshot().bytes_read;
        b.warm(&[(b"key-050", win), (b"key-150", win)]).unwrap();
        ring.wait_idle();
        b.advance_prefetch(0).unwrap();
        let warmed = b.metrics().snapshot().bytes_read;
        assert!(warmed > before, "warm hints scheduled no reads");

        assert_eq!(
            b.take_aggregate(b"key-050", win).unwrap(),
            Some(vec![9u8; 64])
        );
        // The lookup itself read nothing from disk.
        assert_eq!(b.metrics().snapshot().bytes_read, warmed);
    }

    #[test]
    fn factory_wires_ring_from_context() {
        let dir = ScratchDir::new("lsmb-factory-io").unwrap();
        let factory = LsmBackendFactory::new(DbConfig::small_for_tests());
        let ctx = OperatorContext {
            operator: "op".into(),
            partition: 0,
            semantics: flowkv_common::backend::OperatorSemantics::new(
                flowkv_common::backend::AggregateKind::Incremental,
                flowkv_common::backend::WindowKind::Fixed { size: 100 },
            ),
            data_dir: dir.path().to_path_buf(),
            telemetry: None,
            io: Some(flowkv_common::ioring::IoPolicy::with_threads(2)),
        };
        let mut b = factory.create(&ctx).unwrap();
        let win = w(0, 100);
        b.put_aggregate(b"k", win, b"7").unwrap();
        b.flush().unwrap();
        b.warm(&[(b"k", win)]).unwrap();
        b.advance_prefetch(0).unwrap();
        assert_eq!(b.take_aggregate(b"k", win).unwrap(), Some(b"7".to_vec()));
        b.close().unwrap();
    }

    #[test]
    fn factory_creates_partition_dirs() {
        let dir = ScratchDir::new("lsmb-factory").unwrap();
        let factory = LsmBackendFactory::new(DbConfig::small_for_tests());
        let ctx = OperatorContext {
            operator: "op".into(),
            partition: 0,
            semantics: flowkv_common::backend::OperatorSemantics::new(
                flowkv_common::backend::AggregateKind::FullList,
                flowkv_common::backend::WindowKind::Fixed { size: 100 },
            ),
            data_dir: dir.path().to_path_buf(),
            telemetry: None,
            io: None,
        };
        let mut b = factory.create(&ctx).unwrap();
        b.append(b"k", w(0, 100), b"v", 1).unwrap();
        assert_eq!(b.take_values(b"k", w(0, 100)).unwrap(), vec![b"v".to_vec()]);
        assert_eq!(factory.name(), "lsm");
    }
}
