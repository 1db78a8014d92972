//! The hash store façade: point reads, upserts, and log compaction.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::vfs::Vfs;

use crate::epoch::EpochTable;
use crate::hlog::{HybridLog, Record};
use crate::index::HashIndex;

/// Name of the log file inside a store directory.
const LOG_NAME: &str = "hybrid.log";

/// Tuning knobs of the hash store.
#[derive(Clone, Debug)]
pub struct HashDbConfig {
    /// Size of the mutable in-memory log region.
    pub mem_budget: usize,
    /// Compact when `log_bytes / live_bytes` exceeds this factor.
    pub max_space_amplification: f64,
    /// Do not compact logs smaller than this.
    pub min_compact_bytes: u64,
    /// Initial hash-index capacity.
    pub initial_index_capacity: usize,
}

impl Default for HashDbConfig {
    fn default() -> Self {
        HashDbConfig {
            mem_budget: 4 << 20,
            max_space_amplification: 2.0,
            min_compact_bytes: 8 << 20,
            initial_index_capacity: 1 << 16,
        }
    }
}

impl HashDbConfig {
    /// A configuration scaled down for unit tests.
    pub fn small_for_tests() -> Self {
        HashDbConfig {
            mem_budget: 8 << 10,
            max_space_amplification: 2.0,
            min_compact_bytes: 16 << 10,
            initial_index_capacity: 64,
        }
    }
}

/// A FASTER-style hash key-value store over one directory.
///
/// # Examples
///
/// ```
/// use flowkv_hashkv::{HashDb, HashDbConfig};
/// use flowkv_common::metrics::StoreMetrics;
/// use flowkv_common::scratch::ScratchDir;
/// use flowkv_common::vfs::StdVfs;
///
/// let dir = ScratchDir::new("hashdb-doc").unwrap();
/// let metrics = StoreMetrics::new_shared();
/// let cfg = HashDbConfig::default();
/// let mut db = HashDb::open(dir.path(), cfg, metrics, StdVfs::shared()).unwrap();
/// db.upsert(b"k", b"v").unwrap();
/// assert_eq!(db.read(b"k").unwrap(), Some(b"v".to_vec()));
/// ```
pub struct HashDb {
    dir: PathBuf,
    cfg: HashDbConfig,
    log: HybridLog,
    index: HashIndex,
    epoch: Arc<EpochTable>,
    metrics: Arc<StoreMetrics>,
    live_bytes: u64,
    appended_total: u64,
    vfs: Arc<dyn Vfs>,
}

impl HashDb {
    /// Opens (or creates) a store in `dir`, charging its work to
    /// `metrics` and performing all file IO through `vfs`.
    pub fn open(
        dir: impl AsRef<Path>,
        cfg: HashDbConfig,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)
            .map_err(|e| StoreError::io_at("hashdb dir", &dir, e))?;
        let log_path = dir.join(LOG_NAME);
        let log = if vfs.exists(&log_path) {
            HybridLog::open(&vfs, &log_path, cfg.mem_budget, Arc::clone(&metrics))?
        } else {
            HybridLog::create(&vfs, &log_path, cfg.mem_budget, Arc::clone(&metrics))?
        };
        let mut db = HashDb {
            dir,
            index: HashIndex::with_capacity(cfg.initial_index_capacity),
            cfg,
            log,
            epoch: EpochTable::new(),
            metrics,
            live_bytes: 0,
            appended_total: 0,
            vfs,
        };
        db.rebuild_index()?;
        Ok(db)
    }

    /// Reads the current value of `key`.
    pub fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _guard = self.epoch.protect();
        match self.find(key)? {
            Some((_, record)) => Ok(Some(record.value)),
            None => Ok(None),
        }
    }

    /// Writes `value` for `key`, replacing any existing value.
    pub fn upsert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let _guard = self.epoch.protect();
        let existing = self.find(key)?;
        if let Some((addr, old)) = &existing {
            // The FASTER fast path: mutate the record in the mutable
            // region when sizes match.
            if self.log.try_update_in_place(*addr, value)? {
                return Ok(());
            }
            self.live_bytes = self.live_bytes.saturating_sub(old.encoded_len() as u64);
        }
        let record = Record {
            key: key.to_vec(),
            value: value.to_vec(),
            tombstone: false,
        };
        let addr = self.log.append(&record)?;
        self.appended_total += record.encoded_len() as u64;
        self.live_bytes += record.encoded_len() as u64;
        let log = &self.log;
        self.index.upsert(key, addr, |candidate| {
            log.read(candidate).map(|r| r.key == key).unwrap_or(false)
        });
        self.maybe_compact()
    }

    /// Deletes `key` if present.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        let _guard = self.epoch.protect();
        let log = &self.log;
        let removed = self.index.remove(key, |candidate| {
            log.read(candidate).map(|r| r.key == key).unwrap_or(false)
        });
        if let Some(addr) = removed {
            let old = self.log.read(addr)?;
            self.live_bytes = self.live_bytes.saturating_sub(old.encoded_len() as u64);
            // Tombstones keep crash-recovery replay correct.
            let tombstone = Record {
                key: key.to_vec(),
                value: Vec::new(),
                tombstone: true,
            };
            self.appended_total += tombstone.encoded_len() as u64;
            self.log.append(&tombstone)?;
            self.maybe_compact()?;
        }
        Ok(())
    }

    /// Reads, transforms, and writes back the value of `key` in one call.
    pub fn rmw(&mut self, key: &[u8], f: impl FnOnce(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        let current = self.read(key)?;
        let next = f(current.as_deref());
        self.upsert(key, &next)
    }

    /// Visits every live `(key, value)` pair in unspecified order.
    pub fn scan_live(&self, mut f: impl FnMut(&[u8], &[u8])) -> Result<()> {
        let _guard = self.epoch.protect();
        for addr in self.index.iter_addrs() {
            let record = self.log.read(addr)?;
            f(&record.key, &record.value);
        }
        Ok(())
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Flushes the mutable log region to disk.
    pub fn flush(&mut self) -> Result<()> {
        self.log.flush()
    }

    /// The metrics block charged by this store.
    pub fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The epoch table, exposed for overhead accounting in benchmarks.
    pub fn epoch(&self) -> Arc<EpochTable> {
        Arc::clone(&self.epoch)
    }

    /// Approximate bytes of state held in memory.
    pub fn memory_bytes(&self) -> usize {
        self.log.memory_bytes() + self.index.memory_bytes()
    }

    /// Bytes in the log (live + dead).
    pub fn log_bytes(&self) -> u64 {
        self.log.tail()
    }

    /// Cumulative bytes ever appended by user operations (monotonic
    /// across compactions), used to measure write amplification.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_total
    }

    /// Bytes occupied by live records.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Copies a consistent snapshot of the store into `dst`.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.log.flush()?;
        self.log.sync()?;
        self.vfs
            .create_dir_all(dst)
            .map_err(|e| StoreError::io_at("checkpoint dir", dst, e))?;
        let to = dst.join(LOG_NAME);
        self.vfs
            .copy(self.log.path(), &to)
            .map_err(|e| StoreError::io_at("checkpoint copy", &to, e))?;
        Ok(())
    }

    /// Replaces the store contents with the snapshot in `src`.
    pub fn restore(&mut self, src: &Path) -> Result<()> {
        let from = src.join(LOG_NAME);
        let to = self.dir.join(LOG_NAME);
        self.vfs
            .copy(&from, &to)
            .map_err(|e| StoreError::io_at("restore copy", &from, e))?;
        self.log = HybridLog::open(
            &self.vfs,
            &to,
            self.cfg.mem_budget,
            Arc::clone(&self.metrics),
        )?;
        self.rebuild_index()?;
        Ok(())
    }

    /// Deletes every file of the store.
    pub fn destroy(&mut self) -> Result<()> {
        self.index.clear();
        self.live_bytes = 0;
        let _ = self.vfs.remove_file(&self.dir.join(LOG_NAME));
        self.log = HybridLog::create(
            &self.vfs,
            self.dir.join(LOG_NAME),
            self.cfg.mem_budget,
            Arc::clone(&self.metrics),
        )?;
        let _ = self.vfs.remove_file(&self.dir.join(LOG_NAME));
        Ok(())
    }

    /// Finds the live record for `key`, resolving tag collisions.
    fn find(&self, key: &[u8]) -> Result<Option<(u64, Record)>> {
        for addr in self.index.candidates(key) {
            let record = self.log.read(addr)?;
            if record.key == key && !record.tombstone {
                return Ok(Some((addr, record)));
            }
        }
        Ok(None)
    }

    /// Rebuilds the index by replaying the log oldest-to-newest.
    fn rebuild_index(&mut self) -> Result<()> {
        self.index.clear();
        self.live_bytes = 0;
        let mut entries: Vec<(u64, Vec<u8>, bool, u64)> = Vec::new();
        self.log.scan(|addr, record| {
            entries.push((
                addr,
                record.key.clone(),
                record.tombstone,
                record.encoded_len() as u64,
            ));
        })?;
        for (addr, key, tombstone, len) in entries {
            let log = &self.log;
            if tombstone {
                if let Some(old) = self.index.remove(&key, |candidate| {
                    log.read(candidate).map(|r| r.key == key).unwrap_or(false)
                }) {
                    let old_len = self.log.read(old)?.encoded_len() as u64;
                    self.live_bytes = self.live_bytes.saturating_sub(old_len);
                }
            } else {
                // Walk the candidate chain to subtract a replaced record.
                let prior = self
                    .index
                    .candidates(&key)
                    .find(|a| log.read(*a).map(|r| r.key == key).unwrap_or(false));
                if let Some(p) = prior {
                    let old_len = self.log.read(p)?.encoded_len() as u64;
                    self.live_bytes = self.live_bytes.saturating_sub(old_len);
                }
                self.index.upsert(&key, addr, |candidate| {
                    log.read(candidate).map(|r| r.key == key).unwrap_or(false)
                });
                self.live_bytes += len;
            }
        }
        Ok(())
    }

    /// Rewrites the log with only live records when space amplification
    /// exceeds the configured threshold.
    fn maybe_compact(&mut self) -> Result<()> {
        let tail = self.log.tail();
        if tail < self.cfg.min_compact_bytes {
            return Ok(());
        }
        let amp = tail as f64 / self.live_bytes.max(1) as f64;
        if amp <= self.cfg.max_space_amplification {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Compaction);
        let tmp_path = self.dir.join("hybrid.log.compact");
        let mut new_log = HybridLog::create(
            &self.vfs,
            &tmp_path,
            self.cfg.mem_budget,
            Arc::clone(&self.metrics),
        )?;
        let mut new_index = HashIndex::with_capacity(self.index.len().max(8));
        let addrs: Vec<u64> = self.index.iter_addrs().collect();
        let mut new_live = 0u64;
        for addr in addrs {
            let record = self.log.read(addr)?;
            let new_addr = new_log.append(&record)?;
            self.appended_total += record.encoded_len() as u64;
            new_live += record.encoded_len() as u64;
            let log_ref = &new_log;
            let key = record.key.clone();
            new_index.upsert(&key, new_addr, |candidate| {
                log_ref
                    .read(candidate)
                    .map(|r| r.key == key)
                    .unwrap_or(false)
            });
        }
        new_log.flush()?;
        new_log.sync()?;
        let final_path = self.dir.join(LOG_NAME);
        self.vfs
            .rename(&tmp_path, &final_path)
            .map_err(|e| StoreError::io_at("compaction rename", &final_path, e))?;
        self.log = HybridLog::open(
            &self.vfs,
            &final_path,
            self.cfg.mem_budget,
            Arc::clone(&self.metrics),
        )?;
        self.index = new_index;
        self.live_bytes = new_live;
        self.epoch.bump();
        self.metrics.add_compaction();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn open_small(dir: &Path) -> HashDb {
        let cfg = HashDbConfig::small_for_tests();
        HashDb::open(dir, cfg, Default::default(), StdVfs::shared()).unwrap()
    }

    #[test]
    fn upsert_read_delete() {
        let dir = ScratchDir::new("hdb-basic").unwrap();
        let mut db = open_small(dir.path());
        assert_eq!(db.read(b"k").unwrap(), None);
        db.upsert(b"k", b"v1").unwrap();
        assert_eq!(db.read(b"k").unwrap(), Some(b"v1".to_vec()));
        db.upsert(b"k", b"v2").unwrap();
        assert_eq!(db.read(b"k").unwrap(), Some(b"v2".to_vec()));
        db.delete(b"k").unwrap();
        assert_eq!(db.read(b"k").unwrap(), None);
        assert!(db.is_empty());
    }

    #[test]
    fn many_keys_survive_flushes() {
        let dir = ScratchDir::new("hdb-many").unwrap();
        let mut db = open_small(dir.path());
        for i in 0..2000u32 {
            db.upsert(format!("key-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        assert_eq!(db.len(), 2000);
        for i in (0..2000u32).step_by(41) {
            assert_eq!(
                db.read(format!("key-{i}").as_bytes()).unwrap(),
                Some(i.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn rmw_counts() {
        let dir = ScratchDir::new("hdb-rmw").unwrap();
        let mut db = open_small(dir.path());
        for _ in 0..10 {
            db.rmw(b"counter", |cur| {
                let n = cur
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                (n + 1).to_le_bytes().to_vec()
            })
            .unwrap();
        }
        assert_eq!(
            db.read(b"counter").unwrap(),
            Some(10u64.to_le_bytes().to_vec())
        );
        // Same-size updates take the in-place path: log stays tiny.
        assert!(db.log_bytes() < 200, "log bytes {}", db.log_bytes());
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let dir = ScratchDir::new("hdb-compact").unwrap();
        let mut db = open_small(dir.path());
        // Repeatedly overwrite the same keys with different sizes so the
        // in-place path never applies and garbage accumulates.
        for round in 0..200u32 {
            for key in 0..10u32 {
                let value = vec![round as u8; 100 + (round as usize % 3)];
                db.upsert(format!("k{key}").as_bytes(), &value).unwrap();
            }
        }
        assert!(db.metrics().snapshot().compactions > 0, "never compacted");
        // After the last compaction the log can regrow up to the
        // compaction floor again, but no further.
        assert!(
            db.log_bytes() < 2 * HashDbConfig::small_for_tests().min_compact_bytes,
            "log bytes {} never reclaimed",
            db.log_bytes()
        );
        for key in 0..10u32 {
            assert!(db.read(format!("k{key}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn scan_live_sees_exactly_live_keys() {
        let dir = ScratchDir::new("hdb-scan").unwrap();
        let mut db = open_small(dir.path());
        for i in 0..50u32 {
            db.upsert(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        db.delete(b"k7").unwrap();
        let mut keys = Vec::new();
        db.scan_live(|k, _| keys.push(k.to_vec())).unwrap();
        assert_eq!(keys.len(), 49);
        assert!(!keys.contains(&b"k7".to_vec()));
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let dir = ScratchDir::new("hdb-ckpt").unwrap();
        let ckpt = ScratchDir::new("hdb-ckpt-dst").unwrap();
        let mut db = open_small(dir.path());
        db.upsert(b"a", b"1").unwrap();
        db.delete(b"gone").unwrap();
        db.checkpoint(ckpt.path()).unwrap();
        db.upsert(b"b", b"2").unwrap();
        db.restore(ckpt.path()).unwrap();
        assert_eq!(db.read(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.read(b"b").unwrap(), None);
    }

    #[test]
    fn reopen_replays_log() {
        let dir = ScratchDir::new("hdb-reopen").unwrap();
        {
            let mut db = open_small(dir.path());
            db.upsert(b"a", b"1").unwrap();
            db.upsert(b"b", b"2").unwrap();
            db.delete(b"a").unwrap();
            db.flush().unwrap();
        }
        let db = open_small(dir.path());
        assert_eq!(db.read(b"a").unwrap(), None);
        assert_eq!(db.read(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn epoch_protection_runs_per_operation() {
        let dir = ScratchDir::new("hdb-epoch").unwrap();
        let mut db = open_small(dir.path());
        let before = db.epoch().entry_count();
        db.upsert(b"k", b"v").unwrap();
        db.read(b"k").unwrap();
        db.delete(b"k").unwrap();
        assert!(db.epoch().entry_count() >= before + 3);
    }
}
