//! The window-state adapter over the hash store.
//!
//! Faster exposes no merge operator and no range scans, so the glue code
//! (which the paper's authors had to write themselves, §6) must:
//!
//! - store the **entire value list** of a `(window, key)` pair as one
//!   record — every `Append()` therefore reads the list, deserializes it,
//!   appends, and rewrites the whole record. This is the read/write
//!   amplification that makes Flink-on-Faster time out on append-pattern
//!   queries (Figure 4);
//! - maintain a **key registry per window** so `GetWindow` can enumerate
//!   keys despite the store being point-access only.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use flowkv_common::backend::{
    AggregateKind, AggregateUpdate, KeyFilter, OperatorContext, StateBackend, StateBackendFactory,
    StateEntry, WindowChunk,
};
use flowkv_common::codec::{put_len_prefixed, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{StdVfs, Vfs};

use crate::db::{HashDb, HashDbConfig};

/// Builds the composite key `window ‖ user-key`.
fn composite_key(key: &[u8], window: WindowId) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + key.len());
    out.extend_from_slice(&window.to_ordered_bytes());
    out.extend_from_slice(key);
    out
}

/// Serializes a list of values into one record payload.
fn encode_list_into(buf: &mut Vec<u8>, values: &[Vec<u8>]) {
    buf.clear();
    for v in values {
        put_len_prefixed(buf, v);
    }
}

/// Parses a record payload back into a list of values.
fn decode_list(data: &[u8]) -> Result<Vec<Vec<u8>>> {
    let mut dec = Decoder::new(data);
    let mut out = Vec::new();
    while !dec.is_empty() {
        out.push(dec.get_len_prefixed()?.to_vec());
    }
    Ok(out)
}

/// Window-state backend over [`HashDb`].
pub struct HashBackend {
    db: HashDb,
    /// Keys appended per window, required because the store cannot scan.
    window_keys: HashMap<WindowId, HashSet<Vec<u8>>>,
    /// Drain state for chunked window reads.
    draining: HashMap<WindowId, Vec<Vec<u8>>>,
    chunk_entries: usize,
    /// Reusable scratch for re-encoding value lists on append, so the
    /// read-modify-write hot path allocates no per-record `Vec<u8>`.
    encode_buf: Vec<u8>,
}

impl HashBackend {
    /// Opens a backend over a store in `dir`.
    pub fn open(dir: &Path, cfg: HashDbConfig, chunk_entries: usize) -> Result<Self> {
        Self::open_with_vfs(dir, cfg, chunk_entries, StdVfs::shared())
    }

    /// Opens a backend performing all file IO through `vfs`.
    pub fn open_with_vfs(
        dir: &Path,
        cfg: HashDbConfig,
        chunk_entries: usize,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let mut backend = HashBackend {
            db: HashDb::open_with_vfs(
                dir,
                cfg,
                flowkv_common::metrics::StoreMetrics::new_shared(),
                vfs,
            )?,
            window_keys: HashMap::new(),
            draining: HashMap::new(),
            chunk_entries: chunk_entries.max(1),
            encode_buf: Vec::new(),
        };
        backend.rebuild_registry()?;
        Ok(backend)
    }

    /// Rebuilds the per-window key registry from live records.
    fn rebuild_registry(&mut self) -> Result<()> {
        self.window_keys.clear();
        self.draining.clear();
        let mut pairs: Vec<(WindowId, Vec<u8>)> = Vec::new();
        self.db.scan_live(|composite, _| {
            if composite.len() >= 16 {
                if let Ok(window) = WindowId::from_ordered_bytes(&composite[..16]) {
                    pairs.push((window, composite[16..].to_vec()));
                }
            }
        })?;
        for (window, key) in pairs {
            self.window_keys.entry(window).or_default().insert(key);
        }
        Ok(())
    }
}

impl StateBackend for HashBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], _ts: Timestamp) -> Result<()> {
        let _t = self.db.metrics().timer(OpCategory::Write);
        let composite = composite_key(key, window);
        // The amplification at the heart of the paper's Faster analysis:
        // read the whole list, extend it, and write the whole list back.
        let mut values = match self.db.read(&composite)? {
            Some(raw) => decode_list(&raw)?,
            None => Vec::new(),
        };
        values.push(value.to_vec());
        encode_list_into(&mut self.encode_buf, &values);
        self.db.upsert(&composite, &self.encode_buf)?;
        self.window_keys
            .entry(window)
            .or_default()
            .insert(key.to_vec());
        Ok(())
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        let pending = match self.draining.get_mut(&window) {
            Some(p) => p,
            None => {
                let Some(keys) = self.window_keys.remove(&window) else {
                    return Ok(None);
                };
                self.draining
                    .entry(window)
                    .or_insert_with(|| keys.into_iter().collect())
            }
        };
        if pending.is_empty() {
            self.draining.remove(&window);
            return Ok(None);
        }
        let take = pending.len().min(self.chunk_entries);
        let batch: Vec<Vec<u8>> = pending.drain(..take).collect();
        if pending.is_empty() {
            self.draining.remove(&window);
        }
        let mut chunk: WindowChunk = Vec::with_capacity(batch.len());
        for key in batch {
            let composite = composite_key(&key, window);
            let values = match self.db.read(&composite)? {
                Some(raw) => decode_list(&raw)?,
                None => Vec::new(),
            };
            self.db.delete(&composite)?;
            chunk.push((key, values));
        }
        if chunk.is_empty() {
            Ok(None)
        } else {
            Ok(Some(chunk))
        }
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        let composite = composite_key(key, window);
        let values = match self.db.read(&composite)? {
            Some(raw) => {
                self.db.delete(&composite)?;
                decode_list(&raw)?
            }
            None => Vec::new(),
        };
        if let Some(keys) = self.window_keys.get_mut(&window) {
            keys.remove(key);
            if keys.is_empty() {
                self.window_keys.remove(&window);
            }
        }
        Ok(values)
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        match self.db.read(&composite_key(key, window))? {
            Some(raw) => decode_list(&raw),
            None => Ok(Vec::new()),
        }
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let _t = self.db.metrics().timer(OpCategory::Read);
        let composite = composite_key(key, window);
        match self.db.read(&composite)? {
            Some(v) => {
                self.db.delete(&composite)?;
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        let _t = self.db.metrics().timer(OpCategory::Write);
        self.db.upsert(&composite_key(key, window), aggregate)
    }

    /// The one thing the paper credits Faster with: a read-modify-write
    /// that rewrites a record of unchanged size where it lies in the
    /// mutable region, with no tombstone and no new record.
    fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        update: AggregateUpdate<'_>,
    ) -> Result<()> {
        let _t = self.db.metrics().timer(OpCategory::Write);
        self.db.rmw(&composite_key(key, window), |current| {
            let mut aggregate = current.map(<[u8]>::to_vec).unwrap_or_default();
            update(&mut aggregate, current.is_some());
            aggregate
        })
    }

    fn flush(&mut self) -> Result<()> {
        self.db.flush()
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        // The store is point-access only, so records carry raw payloads
        // with nothing to tell an encoded value list from an opaque
        // aggregate; `kind` decides, exactly as the engine decides which
        // API to call on this backend.
        let mut raw: Vec<(Vec<u8>, WindowId, Vec<u8>)> = Vec::new();
        self.db.scan_live(|composite, value| {
            if composite.len() >= 16 {
                if let Ok(window) = WindowId::from_ordered_bytes(&composite[..16]) {
                    raw.push((composite[16..].to_vec(), window, value.to_vec()));
                }
            }
        })?;
        let mut entries = Vec::new();
        for (key, window, payload) in raw {
            if !in_range(&key) {
                continue;
            }
            entries.push(match kind {
                AggregateKind::FullList => StateEntry::Values {
                    values: decode_list(&payload)?,
                    key,
                    window,
                },
                AggregateKind::Incremental => StateEntry::Aggregate {
                    key,
                    window,
                    value: payload,
                },
            });
        }
        Ok(entries)
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        self.db.metrics()
    }

    fn memory_bytes(&self) -> usize {
        let registry: usize = self
            .window_keys
            .values()
            .map(|ks| ks.iter().map(|k| k.len() + 48).sum::<usize>())
            .sum();
        self.db.memory_bytes() + registry
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.db.checkpoint(dir)
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.db.restore(dir)?;
        self.rebuild_registry()
    }

    fn close(&mut self) -> Result<()> {
        self.window_keys.clear();
        self.draining.clear();
        self.db.destroy()
    }
}

/// Keys per window chunk of every backend a factory creates.
const CHUNK_ENTRIES: usize = 1024;

/// Factory producing [`HashBackend`] instances for operator partitions.
pub struct HashBackendFactory {
    cfg: HashDbConfig,
    vfs: Arc<dyn Vfs>,
}

impl HashBackendFactory {
    /// Creates a factory with the given store configuration.
    pub fn new(cfg: HashDbConfig) -> Self {
        HashBackendFactory {
            cfg,
            vfs: StdVfs::shared(),
        }
    }

    /// Routes the file IO of every store this factory creates through
    /// `vfs` (fault injection in tests; [`StdVfs`] by default).
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }
}

impl StateBackendFactory for HashBackendFactory {
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        let dir = ctx.partition_dir();
        self.vfs
            .create_dir_all(&dir)
            .map_err(|e| StoreError::io_at("backend dir", &dir, e))?;
        Ok(Box::new(HashBackend::open_with_vfs(
            &dir,
            self.cfg.clone(),
            CHUNK_ENTRIES,
            Arc::clone(&self.vfs),
        )?))
    }

    fn name(&self) -> &'static str {
        "hashkv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;

    fn backend(dir: &Path) -> HashBackend {
        HashBackend::open(dir, HashDbConfig::small_for_tests(), 4).unwrap()
    }

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    #[test]
    fn append_take_roundtrip() {
        let dir = ScratchDir::new("hb-append").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        b.append(b"k", win, b"v1", 1).unwrap();
        b.append(b"k", win, b"v2", 2).unwrap();
        assert_eq!(
            b.take_values(b"k", win).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
        assert!(b.take_values(b"k", win).unwrap().is_empty());
    }

    #[test]
    fn append_amplification_is_real() {
        // Every append rewrites the whole list, so the log grows
        // quadratically with the number of appended values.
        let dir = ScratchDir::new("hb-amp").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        for i in 0..50u32 {
            b.append(b"k", win, &[0u8; 32], i as i64).unwrap();
        }
        // 50 appends of 32 bytes is 1600 payload bytes; the rewrite
        // pattern must have moved far more than that through the store.
        let quadratic_floor: u64 = (1..=50u64).map(|n| n * 33).sum();
        assert!(
            b.db.appended_bytes() > quadratic_floor,
            "appended bytes {} vs expected quadratic blowup {}",
            b.db.appended_bytes(),
            quadratic_floor
        );
    }

    #[test]
    fn window_chunks_drain_all_keys() {
        let dir = ScratchDir::new("hb-chunks").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 1000);
        for i in 0..10u32 {
            b.append(format!("key-{i}").as_bytes(), win, b"v", i as i64)
                .unwrap();
        }
        let mut seen = Vec::new();
        while let Some(chunk) = b.get_window_chunk(win).unwrap() {
            assert!(chunk.len() <= 4);
            for (k, vs) in chunk {
                assert_eq!(vs, vec![b"v".to_vec()]);
                seen.push(k);
            }
        }
        assert_eq!(seen.len(), 10);
        // Drained: nothing remains.
        assert!(b.get_window_chunk(win).unwrap().is_none());
    }

    #[test]
    fn aggregates_roundtrip() {
        let dir = ScratchDir::new("hb-agg").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        b.put_aggregate(b"k", win, b"10").unwrap();
        b.put_aggregate(b"k", win, b"20").unwrap();
        assert_eq!(b.take_aggregate(b"k", win).unwrap(), Some(b"20".to_vec()));
        assert_eq!(b.take_aggregate(b"k", win).unwrap(), None);
    }

    #[test]
    fn checkpoint_restore_rebuilds_registry() {
        let dir = ScratchDir::new("hb-ckpt").unwrap();
        let ckpt = ScratchDir::new("hb-ckpt-dst").unwrap();
        let mut b = backend(dir.path());
        let win = w(0, 100);
        b.append(b"k1", win, b"v", 1).unwrap();
        b.append(b"k2", win, b"v", 2).unwrap();
        b.checkpoint(ckpt.path()).unwrap();
        b.append(b"k3", win, b"v", 3).unwrap();
        b.restore(ckpt.path()).unwrap();
        let mut keys = Vec::new();
        while let Some(chunk) = b.get_window_chunk(win).unwrap() {
            keys.extend(chunk.into_iter().map(|(k, _)| k));
        }
        keys.sort();
        assert_eq!(keys, vec![b"k1".to_vec(), b"k2".to_vec()]);
    }

    #[test]
    fn factory_creates_the_partition_directory_through_its_vfs() {
        use flowkv_common::backend::{AggregateKind, OperatorSemantics, WindowKind};
        use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = ScratchDir::new("hb-factory-vfs").unwrap();
        let plan = FaultPlan::new().with_fault(1, FaultKind::Enospc);
        let vfs = FaultVfs::new(StdVfs::shared(), plan);
        let factory =
            HashBackendFactory::new(HashDbConfig::small_for_tests()).with_vfs(vfs.clone());
        let ctx = OperatorContext {
            operator: "op".into(),
            partition: 1,
            semantics: OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Global),
            data_dir: dir.path().to_path_buf(),
            telemetry: None,
            io: None,
        };
        // The first thing a factory does is make its directory: a full
        // disk says so there, not at some later, unrelated call.
        let err = factory.create(&ctx).err().expect("ENOSPC at op 1");
        assert!(
            matches!(
                &err,
                StoreError::Io {
                    context: "backend dir",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(vfs.fired(), vec![(1, FaultKind::Enospc)]);
        assert!(!ctx.partition_dir().exists());
    }
}
