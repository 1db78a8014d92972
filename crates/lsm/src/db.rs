//! The LSM database façade: write path, read path, and compaction policy.
//!
//! Everything is synchronous and single-writer, matching the engine's
//! one-store-per-partition deployment (paper §2.1): when the memtable
//! fills, the flush happens inline; when a level overflows, the compaction
//! happens inline. The time those take is charged to the metrics block so
//! the paper's CPU-breakdown figures can be regenerated.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::{IoRing, Lane};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::vfs::Vfs;

use crate::cache::BlockCache;
use crate::compaction::{compact, CompactionParams};
use crate::entry::{Entry, Resolved};
use crate::iter::{EntrySource, MergingIter, VecSource};
use crate::memtable::MemTable;
use crate::sstable::{read_region_in, SstMeta, SstReader};
use crate::version::{Version, MAX_LEVELS};

/// Tuning knobs of the LSM tree.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Flush the memtable when it reaches this many bytes.
    pub write_buffer_bytes: usize,
    /// Data-block target size inside SSTables.
    pub block_size: usize,
    /// Byte capacity of the shared block cache.
    pub block_cache_bytes: usize,
    /// Compact level 0 when it accumulates this many files.
    pub l0_compaction_trigger: usize,
    /// Byte budget of level 1; each deeper level is `level_multiplier`
    /// times larger.
    pub level_base_bytes: u64,
    /// Growth factor between adjacent levels.
    pub level_multiplier: u64,
    /// Split compaction outputs at this file size.
    pub target_file_size: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            write_buffer_bytes: 4 << 20,
            block_size: 4096,
            block_cache_bytes: 8 << 20,
            l0_compaction_trigger: 4,
            level_base_bytes: 16 << 20,
            level_multiplier: 8,
            target_file_size: 2 << 20,
        }
    }
}

impl DbConfig {
    /// A configuration scaled down for unit tests: small buffers force
    /// flushes and compactions with little data.
    pub fn small_for_tests() -> Self {
        DbConfig {
            write_buffer_bytes: 16 << 10,
            block_size: 1024,
            block_cache_bytes: 64 << 10,
            l0_compaction_trigger: 3,
            level_base_bytes: 64 << 10,
            level_multiplier: 4,
            target_file_size: 32 << 10,
        }
    }
}

/// One page of scan results plus the key to resume from, if any.
pub type ScanPage = (Vec<(Vec<u8>, Resolved)>, Option<Vec<u8>>);

/// An LSM-tree key-value store over one directory.
///
/// # Examples
///
/// ```
/// use flowkv_lsm::{Db, DbConfig};
/// use flowkv_lsm::entry::Resolved;
/// use flowkv_common::metrics::StoreMetrics;
/// use flowkv_common::scratch::ScratchDir;
/// use flowkv_common::vfs::StdVfs;
///
/// let dir = ScratchDir::new("lsm-doc").unwrap();
/// let metrics = StoreMetrics::new_shared();
/// let mut db = Db::open(dir.path(), DbConfig::default(), metrics, StdVfs::shared()).unwrap();
/// db.put(b"k", b"v").unwrap();
/// assert_eq!(db.get(b"k").unwrap(), Resolved::Value(b"v".to_vec()));
/// db.merge(b"list", b"a").unwrap();
/// db.merge(b"list", b"b").unwrap();
/// assert_eq!(
///     db.get(b"list").unwrap(),
///     Resolved::List(vec![b"a".to_vec(), b"b".to_vec()])
/// );
/// ```
pub struct Db {
    dir: PathBuf,
    cfg: DbConfig,
    vfs: Arc<dyn Vfs>,
    mem: MemTable,
    version: Version,
    readers: HashMap<u64, SstReader>,
    cache: Arc<BlockCache>,
    metrics: Arc<StoreMetrics>,
    /// Round-robin pointers choosing the next file to push down per level.
    compaction_cursor: Vec<usize>,
    /// Read-ahead lane for block warm-ups, keyed by `(file_no, offset)`
    /// and yielding that key with the block's bytes; without threads
    /// (no warm-ups) until [`Db::set_ring`] attaches a background ring.
    warm: Lane<(u64, u64), WarmBlock>,
}

/// A warmed block: `(file_no, offset, raw bytes)`.
type WarmBlock = (u64, u64, Vec<u8>);

impl Db {
    /// Opens (or creates) a database in `dir`, charging its work to
    /// `metrics` and running every file operation through `vfs`.
    pub fn open(
        dir: impl AsRef<Path>,
        cfg: DbConfig,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)
            .map_err(|e| StoreError::io_at("db create dir", &dir, e))?;
        let version = Version::load(&vfs, &dir)?;
        let cache = BlockCache::new(cfg.block_cache_bytes);
        let mut db = Db {
            dir,
            cfg,
            warm: Lane::inline(Arc::clone(&vfs)),
            vfs,
            mem: MemTable::new(),
            version,
            readers: HashMap::new(),
            cache,
            metrics,
            compaction_cursor: vec![0; MAX_LEVELS],
        };
        for meta in db
            .version
            .levels
            .iter()
            .flatten()
            .cloned()
            .collect::<Vec<_>>()
        {
            db.ensure_reader(&meta)?;
        }
        Ok(db)
    }

    /// Writes a full value for `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.mem.put(key, value);
        self.maybe_flush()
    }

    /// Appends a merge operand to `key` (RocksDB's lazy merging).
    pub fn merge(&mut self, key: &[u8], operand: &[u8]) -> Result<()> {
        self.mem.merge(key, operand);
        self.maybe_flush()
    }

    /// Deletes `key` by writing a tombstone.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.mem.delete(key);
        self.maybe_flush()
    }

    /// Resolves the current state of `key`.
    pub fn get(&mut self, key: &[u8]) -> Result<Resolved> {
        // Install any warm blocks that completed since the last probe so
        // reads inside the same batch as their hint can already hit.
        self.drain_warm()?;
        let mut acc: Option<Entry> = self.mem.get(key).cloned();
        if !acc.as_ref().is_some_and(Entry::is_terminal) {
            'levels: for level in 0..self.version.levels.len() {
                let candidates: Vec<SstMeta> = if level == 0 {
                    self.version.levels[0].clone()
                } else {
                    // Deeper levels have disjoint ranges: at most one file.
                    self.version.levels[level]
                        .iter()
                        .find(|m| m.covers_key(key))
                        .cloned()
                        .into_iter()
                        .collect()
                };
                for meta in candidates {
                    let reader = self.ensure_reader(&meta)?;
                    if let Some(entry) = reader.get(key)? {
                        let newer_is_terminal = acc.as_ref().is_some_and(Entry::is_terminal);
                        debug_assert!(!newer_is_terminal);
                        acc = Some(match acc {
                            None => entry,
                            Some(newer) => Entry::combine(newer, entry),
                        });
                        if acc.as_ref().is_some_and(Entry::is_terminal) {
                            break 'levels;
                        }
                    }
                }
            }
        }
        Ok(match acc {
            Some(entry) => entry.resolve(),
            None => Resolved::Absent,
        })
    }

    /// Scans keys in `[start, end)`, resolving up to `limit` live entries.
    ///
    /// Returns the resolved pairs and, when the limit stopped the scan
    /// early, the key at which to resume.
    pub fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Result<ScanPage> {
        // Snapshot the memtable range (bounded by `end`).
        let mem_pairs: Vec<(Vec<u8>, Entry)> = self
            .mem
            .range(start, end)
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        let mut sources: Vec<Box<dyn EntrySource + '_>> = vec![Box::new(VecSource::new(mem_pairs))];
        // Level 0 newest-first, then deeper levels.
        let metas: Vec<SstMeta> = self
            .version
            .levels
            .iter()
            .flatten()
            .filter(|m| m.overlaps_range(start, end))
            .cloned()
            .collect();
        for meta in &metas {
            self.ensure_reader(meta)?;
        }
        for meta in &metas {
            let reader = self.readers.get(&meta.file_no).expect("ensured above");
            sources.push(Box::new(reader.iter_from(start)));
        }
        let mut merging = MergingIter::new(sources)?;
        let mut out = Vec::new();
        while let Some((key, entry)) = merging.next_combined()? {
            if key.as_slice() >= end {
                break;
            }
            match entry.resolve() {
                Resolved::Absent => continue,
                resolved => {
                    out.push((key.clone(), resolved));
                    if out.len() >= limit {
                        // Resume strictly after the last returned key.
                        let mut resume = key;
                        resume.push(0);
                        let more = resume.as_slice() < end;
                        return Ok((out, more.then_some(resume)));
                    }
                }
            }
        }
        Ok((out, None))
    }

    /// Flushes the memtable to a new level-0 table file.
    pub fn flush(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Write);
        let mem = std::mem::take(&mut self.mem);
        let pairs: Vec<(Vec<u8>, Entry)> = mem.into_sorted().collect();
        let mut next = self.version.next_file_no;
        let outputs = compact(
            &self.vfs,
            MergingIter::new(vec![Box::new(VecSource::new(pairs))])?,
            &self.dir,
            &mut next,
            &CompactionParams {
                // One flush produces one L0 file.
                target_file_size: u64::MAX,
                block_size: self.cfg.block_size,
                bottom: false,
            },
        )?;
        self.version.next_file_no = next;
        for meta in outputs {
            self.metrics.add_bytes_written(meta.size);
            self.ensure_reader(&meta)?;
            self.version.levels[0].insert(0, meta);
        }
        self.metrics.add_flush();
        self.version.save(&self.vfs, &self.dir)?;
        drop(_t);
        self.maybe_compact()
    }

    /// Runs compactions until every level is within its budget.
    pub fn maybe_compact(&mut self) -> Result<()> {
        loop {
            if self.version.levels[0].len() >= self.cfg.l0_compaction_trigger {
                self.compact_l0()?;
                continue;
            }
            let mut compacted = false;
            for level in 1..MAX_LEVELS - 1 {
                if self.version.level_bytes(level) > self.level_limit(level) {
                    self.compact_level(level)?;
                    compacted = true;
                    break;
                }
            }
            if !compacted {
                return Ok(());
            }
        }
    }

    /// Bytes currently buffered in the memtable.
    pub fn memory_bytes(&self) -> usize {
        self.mem.approximate_bytes()
    }

    /// The metrics block charged by this database.
    pub fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The live version (level layout), for inspection in tests.
    pub fn version(&self) -> &Version {
        &self.version
    }

    /// Attaches a background I/O ring; subsequent [`Db::warm_batch`]
    /// calls schedule block reads on it.
    pub fn set_ring(&mut self, ring: Arc<IoRing>) {
        self.warm.attach(ring);
    }

    /// Whether a background ring is attached: the warm lane admits
    /// reads at all.
    pub fn has_ring(&self) -> bool {
        self.warm.admits(0, 0)
    }

    /// Schedules background reads of the uncached blocks a `get` of each
    /// key would touch, walking the same level order as [`Db::get`].
    /// Purely advisory: a warm that fails, arrives late, or races a
    /// compaction is discarded and the foreground read proceeds as if it
    /// never happened. No-op without a ring.
    pub fn warm_batch(&mut self, keys: &[Vec<u8>]) -> Result<()> {
        if !self.has_ring() {
            return Ok(());
        }
        self.drain_warm()?;
        for key in keys {
            if self.mem.get(key).is_some_and(Entry::is_terminal) {
                continue;
            }
            let mut metas: Vec<SstMeta> = self.version.levels[0]
                .iter()
                .filter(|m| m.covers_key(key))
                .cloned()
                .collect();
            for level in 1..self.version.levels.len() {
                if let Some(m) = self.version.levels[level]
                    .iter()
                    .find(|m| m.covers_key(key))
                {
                    metas.push(m.clone());
                }
            }
            for meta in metas {
                let Some((off, len)) = self.ensure_reader(&meta)?.warm_plan(key) else {
                    continue;
                };
                let file_no = meta.file_no;
                if self.warm.covers(&(file_no, off)) {
                    continue;
                }
                let path = self.dir.join(SstMeta::file_name(file_no));
                self.warm.submit(vec![(file_no, off)], len, move |vfs| {
                    Ok((file_no, off, read_region_in(vfs, &path, off, len)?))
                });
            }
        }
        Ok(())
    }

    /// Installs completed warm reads into the block cache. Re-raises a
    /// panic captured by a background job (an injected crash fault) on
    /// the calling thread.
    pub fn drain_warm(&mut self) -> Result<()> {
        let done = self.warm.drain();
        if done.is_empty() {
            return Ok(());
        }
        let live: HashSet<u64> = self.version.all_file_nos().into_iter().collect();
        let mut installed = 0i64;
        let mut wasted = 0u64;
        // A failed warm is only a missed warm: if the foreground
        // actually needs the block, its own read surfaces the error
        // with full context.
        for (file_no, off, raw) in done.into_iter().flatten() {
            // A compaction may have retired the file while the read
            // was in flight; file numbers are never reused, so the
            // stale block could never be read again — drop it.
            if live.contains(&file_no) {
                self.metrics.add_bytes_read(raw.len() as u64 + 4);
                self.cache.insert((file_no, off), Arc::new(raw));
                installed += 1;
            } else {
                wasted += raw.len() as u64;
            }
        }
        self.warm.installed(installed);
        self.warm.waste(wasted);
        Ok(())
    }

    /// Waits out every in-flight warm read and discards the results,
    /// re-raising captured crash-fault panics. Called before operations
    /// that invalidate the file set the reads were planned against.
    fn abandon_warm(&mut self) {
        self.warm.abandon(|_| 0);
    }

    /// Copies a consistent snapshot of the database into `dst`.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        self.vfs
            .create_dir_all(dst)
            .map_err(|e| StoreError::io_at("checkpoint dir", dst, e))?;
        for file_no in self.version.all_file_nos() {
            let name = SstMeta::file_name(file_no);
            let from = self.dir.join(&name);
            let to = dst.join(&name);
            // Hard links make checkpoints cheap; the VFS falls back to
            // copying across filesystems.
            self.vfs
                .link_or_copy(&from, &to)
                .map_err(|e| StoreError::io_at("checkpoint copy", &to, e))?;
        }
        self.version.save(&self.vfs, dst)?;
        Ok(())
    }

    /// Replaces the database contents with the snapshot in `src`.
    pub fn restore(&mut self, src: &Path) -> Result<()> {
        self.abandon_warm();
        self.mem.clear();
        for file_no in self.version.all_file_nos() {
            let _ = self
                .vfs
                .remove_file(&self.dir.join(SstMeta::file_name(file_no)));
            self.cache.evict_file(file_no);
        }
        self.readers.clear();
        let version = Version::load(&self.vfs, src)?;
        for file_no in version.all_file_nos() {
            let name = SstMeta::file_name(file_no);
            let from = src.join(&name);
            let to = self.dir.join(&name);
            self.vfs
                .link_or_copy(&from, &to)
                .map_err(|e| StoreError::io_at("restore copy", &to, e))?;
        }
        self.version = version;
        self.version.save(&self.vfs, &self.dir)?;
        for meta in self
            .version
            .levels
            .iter()
            .flatten()
            .cloned()
            .collect::<Vec<_>>()
        {
            self.ensure_reader(&meta)?;
        }
        Ok(())
    }

    /// Deletes every file of the database.
    pub fn destroy(&mut self) -> Result<()> {
        self.abandon_warm();
        self.mem.clear();
        self.readers.clear();
        for file_no in self.version.all_file_nos() {
            let _ = self
                .vfs
                .remove_file(&self.dir.join(SstMeta::file_name(file_no)));
        }
        let _ = self
            .vfs
            .remove_file(&self.dir.join(crate::version::MANIFEST_NAME));
        self.version = Version::new();
        Ok(())
    }

    fn level_limit(&self, level: usize) -> u64 {
        self.cfg.level_base_bytes * self.cfg.level_multiplier.pow(level as u32 - 1)
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.mem.approximate_bytes() >= self.cfg.write_buffer_bytes {
            self.flush()?;
        }
        Ok(())
    }

    fn ensure_reader(&mut self, meta: &SstMeta) -> Result<&SstReader> {
        if !self.readers.contains_key(&meta.file_no) {
            let reader = SstReader::open(
                &self.vfs,
                &self.dir,
                meta.clone(),
                Arc::clone(&self.cache),
                Arc::clone(&self.metrics),
            )?;
            self.readers.insert(meta.file_no, reader);
        }
        Ok(self.readers.get(&meta.file_no).expect("just inserted"))
    }

    /// Merges all of level 0 plus overlapping level-1 files into level 1.
    fn compact_l0(&mut self) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Compaction);
        let l0: Vec<SstMeta> = self.version.levels[0].clone();
        let smallest = l0
            .iter()
            .map(|m| m.smallest.clone())
            .min()
            .unwrap_or_default();
        let largest = l0
            .iter()
            .map(|m| m.largest.clone())
            .max()
            .unwrap_or_default();
        let l1 = self.version.overlapping_files(1, &smallest, &largest);
        let inputs: Vec<SstMeta> = l0.iter().chain(l1.iter()).cloned().collect();
        self.run_compaction(&inputs, 1)
    }

    /// Pushes one file of `level` down into `level + 1`.
    fn compact_level(&mut self, level: usize) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Compaction);
        let files = &self.version.levels[level];
        if files.is_empty() {
            return Ok(());
        }
        let cursor = self.compaction_cursor[level] % files.len();
        self.compaction_cursor[level] = cursor + 1;
        let victim = files[cursor].clone();
        let below = self
            .version
            .overlapping_files(level + 1, &victim.smallest, &victim.largest);
        let inputs: Vec<SstMeta> = std::iter::once(victim).chain(below).collect();
        self.run_compaction(&inputs, level + 1)
    }

    /// Shared compaction driver: merge `inputs` (ordered newest-first)
    /// into `output_level`, then install the result.
    fn run_compaction(&mut self, inputs: &[SstMeta], output_level: usize) -> Result<()> {
        for meta in inputs {
            self.ensure_reader(meta)?;
        }
        // Tombstones may be dropped only when nothing older can exist:
        // every deeper level is empty (overlapping files at the output
        // level are always part of the inputs).
        let bottom = self.version.is_bottom(output_level);
        let sources: Vec<Box<dyn EntrySource + '_>> = inputs
            .iter()
            .map(|meta| {
                let reader = self.readers.get(&meta.file_no).expect("ensured above");
                Box::new(reader.iter()) as Box<dyn EntrySource + '_>
            })
            .collect();
        let merging = MergingIter::new(sources)?;
        let mut next = self.version.next_file_no;
        let outputs = compact(
            &self.vfs,
            merging,
            &self.dir,
            &mut next,
            &CompactionParams {
                target_file_size: self.cfg.target_file_size,
                block_size: self.cfg.block_size,
                bottom,
            },
        )?;
        let input_bytes: u64 = inputs.iter().map(|m| m.size).sum();
        let output_bytes: u64 = outputs.iter().map(|m| m.size).sum();
        self.metrics.add_bytes_read(input_bytes);
        self.metrics.add_bytes_written(output_bytes);
        self.metrics.add_compaction();

        // Install: drop inputs, add outputs to the target level.
        self.version.next_file_no = next;
        let input_nos: Vec<u64> = inputs.iter().map(|m| m.file_no).collect();
        self.version.remove_files(&input_nos);
        for meta in outputs {
            self.ensure_reader(&meta)?;
            self.version.insert_sorted(output_level, meta);
        }
        self.version.save(&self.vfs, &self.dir)?;
        for no in input_nos {
            self.readers.remove(&no);
            self.cache.evict_file(no);
            let _ = self.vfs.remove_file(&self.dir.join(SstMeta::file_name(no)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn open_small(dir: &Path) -> Db {
        let cfg = DbConfig::small_for_tests();
        Db::open(dir, cfg, Default::default(), StdVfs::shared()).unwrap()
    }

    #[test]
    fn put_get_across_flush() {
        let dir = ScratchDir::new("db-putget").unwrap();
        let mut db = open_small(dir.path());
        for i in 0..500u32 {
            db.put(format!("key-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        for i in (0..500u32).step_by(17) {
            assert_eq!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap(),
                Resolved::Value(i.to_le_bytes().to_vec())
            );
        }
        assert_eq!(db.get(b"missing").unwrap(), Resolved::Absent);
    }

    #[test]
    fn merge_survives_flush_and_compaction() {
        let dir = ScratchDir::new("db-merge").unwrap();
        let mut db = open_small(dir.path());
        for round in 0..10u32 {
            for key in 0..20u32 {
                let k = format!("key-{key:03}");
                db.merge(k.as_bytes(), format!("v{round}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
        }
        for key in 0..20u32 {
            let k = format!("key-{key:03}");
            match db.get(k.as_bytes()).unwrap() {
                Resolved::List(vals) => {
                    let expect: Vec<Vec<u8>> =
                        (0..10).map(|r| format!("v{r}").into_bytes()).collect();
                    assert_eq!(vals, expect, "key {k}");
                }
                other => panic!("expected list, got {other:?}"),
            }
        }
        // Flush-triggered compactions must have run.
        assert!(db.metrics().snapshot().compactions > 0);
    }

    #[test]
    fn delete_hides_value_after_flushes() {
        let dir = ScratchDir::new("db-delete").unwrap();
        let mut db = open_small(dir.path());
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        db.delete(b"k").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Resolved::Absent);
    }

    #[test]
    fn newer_level0_shadows_older() {
        let dir = ScratchDir::new("db-shadow").unwrap();
        let mut db = open_small(dir.path());
        db.put(b"k", b"old").unwrap();
        db.flush().unwrap();
        db.put(b"k", b"new").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Resolved::Value(b"new".to_vec()));
    }

    #[test]
    fn scan_merges_all_sources() {
        let dir = ScratchDir::new("db-scan").unwrap();
        let mut db = open_small(dir.path());
        db.put(b"a", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"c", b"3").unwrap();
        db.flush().unwrap();
        db.put(b"b", b"2").unwrap();
        db.delete(b"c").unwrap();

        let (items, next) = db.scan(b"a", b"z", 100).unwrap();
        assert!(next.is_none());
        let keys: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"b"]);
    }

    #[test]
    fn scan_respects_limit_and_resumes() {
        let dir = ScratchDir::new("db-scanlimit").unwrap();
        let mut db = open_small(dir.path());
        for i in 0..50u32 {
            db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        let (first, resume) = db.scan(b"k", b"l", 20).unwrap();
        assert_eq!(first.len(), 20);
        let resume = resume.expect("should have more");
        let (second, _) = db.scan(&resume, b"l", 100).unwrap();
        assert_eq!(second.len(), 30);
        assert!(first.last().unwrap().0 < second.first().unwrap().0);
    }

    #[test]
    fn reopen_recovers_persisted_state() {
        let dir = ScratchDir::new("db-reopen").unwrap();
        {
            let mut db = open_small(dir.path());
            db.put(b"persisted", b"yes").unwrap();
            db.flush().unwrap();
        }
        let mut db = open_small(dir.path());
        assert_eq!(
            db.get(b"persisted").unwrap(),
            Resolved::Value(b"yes".to_vec())
        );
    }

    #[test]
    fn heavy_writes_spread_over_levels() {
        let dir = ScratchDir::new("db-levels").unwrap();
        let mut db = open_small(dir.path());
        for i in 0..3000u32 {
            db.put(format!("key-{:05}", i % 1000).as_bytes(), &[0u8; 64])
                .unwrap();
        }
        db.flush().unwrap();
        // All data must remain readable regardless of layout.
        for i in 0..1000u32 {
            assert_ne!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap(),
                Resolved::Absent,
                "key {i} lost"
            );
        }
        assert!(db.version().levels[0].len() < DbConfig::small_for_tests().l0_compaction_trigger);
    }

    #[test]
    fn checkpoint_and_restore() {
        let dir = ScratchDir::new("db-ckpt").unwrap();
        let ckpt = ScratchDir::new("db-ckpt-dst").unwrap();
        let mut db = open_small(dir.path());
        db.put(b"a", b"1").unwrap();
        db.checkpoint(ckpt.path()).unwrap();
        db.put(b"b", b"2").unwrap();
        db.flush().unwrap();
        db.restore(ckpt.path()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Resolved::Value(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), Resolved::Absent);
    }

    #[test]
    fn warm_batch_preloads_blocks() {
        let dir = ScratchDir::new("db-warm").unwrap();
        let mut db = open_small(dir.path());
        for i in 0..500u32 {
            db.put(format!("key-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        let ring = Arc::new(flowkv_common::ioring::IoRing::new(2, None, None));
        db.set_ring(Arc::clone(&ring));

        let before = db.metrics().snapshot().bytes_read;
        db.warm_batch(&[b"key-00123".to_vec()]).unwrap();
        ring.wait_idle();
        db.drain_warm().unwrap();
        let warmed = db.metrics().snapshot().bytes_read;
        assert!(warmed > before, "warm read charged no bytes");

        // The foreground read is served entirely from the warmed cache.
        assert_eq!(
            db.get(b"key-00123").unwrap(),
            Resolved::Value(123u32.to_le_bytes().to_vec())
        );
        assert_eq!(db.metrics().snapshot().bytes_read, warmed);
    }

    #[test]
    fn warm_batch_skips_filtered_keys() {
        let dir = ScratchDir::new("db-warm-skip").unwrap();
        let mut db = open_small(dir.path());
        db.put(b"present", b"v").unwrap();
        db.flush().unwrap();
        let ring = Arc::new(flowkv_common::ioring::IoRing::new(1, None, None));
        db.set_ring(Arc::clone(&ring));

        // A key the bloom filter rejects schedules nothing.
        db.warm_batch(&[b"zz-absent".to_vec()]).unwrap();
        assert_eq!(ring.pending(), 0);

        // A second warm of the same block is suppressed while the first
        // is outstanding (or already resident once installed).
        db.warm_batch(&[b"present".to_vec()]).unwrap();
        ring.wait_idle();
        db.drain_warm().unwrap();
        let bytes = db.metrics().snapshot().bytes_read;
        db.warm_batch(&[b"present".to_vec()]).unwrap();
        ring.wait_idle();
        db.drain_warm().unwrap();
        assert_eq!(db.metrics().snapshot().bytes_read, bytes);
    }

    #[test]
    fn restore_discards_inflight_warms() {
        let dir = ScratchDir::new("db-warm-restore").unwrap();
        let ckpt = ScratchDir::new("db-warm-restore-dst").unwrap();
        let mut db = open_small(dir.path());
        db.put(b"a", b"1").unwrap();
        db.checkpoint(ckpt.path()).unwrap();
        for i in 0..200u32 {
            db.put(format!("k{i:04}").as_bytes(), &[7u8; 64]).unwrap();
        }
        db.flush().unwrap();
        let ring = Arc::new(flowkv_common::ioring::IoRing::new(2, None, None));
        db.set_ring(Arc::clone(&ring));
        db.warm_batch(&[b"k0100".to_vec()]).unwrap();
        db.restore(ckpt.path()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Resolved::Value(b"1".to_vec()));
        assert_eq!(db.get(b"k0100").unwrap(), Resolved::Absent);
    }

    #[test]
    fn destroy_removes_files() {
        let dir = ScratchDir::new("db-destroy").unwrap();
        let mut db = open_small(dir.path());
        db.put(b"a", b"1").unwrap();
        db.flush().unwrap();
        db.destroy().unwrap();
        assert_eq!(db.get(b"a").unwrap(), Resolved::Absent);
        let entries: Vec<_> = std::fs::read_dir(dir.path()).unwrap().collect();
        assert!(entries.is_empty(), "files remain: {entries:?}");
    }
}
