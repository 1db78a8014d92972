//! The Read-Modify-Write store (paper §4.3).
//!
//! Incremental aggregates are read and rewritten on *every* tuple
//! arrival, so read-time prediction buys nothing; what matters is O(1)
//! point access without synchronization. The RMW store keeps a hash
//! write buffer of dirty aggregates in front of an in-memory hash index
//! over an append-only value log — structurally a hash KV store, minus
//! the concurrency machinery the paper shows Faster wastes cycles on for
//! single-threaded stream workers. Compaction rewrites the log when
//! space amplification exceeds the MSA, like the AUR store.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::codec::{put_len_prefixed, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::logfile::{record_payload, LogReader, LogWriter, RandomAccessLog};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::registry::ViewValue;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::{StdVfs, Vfs};

/// Tuning knobs of one RMW store instance.
#[derive(Clone, Debug)]
pub struct RmwConfig {
    /// Flush the write buffer at this size.
    pub write_buffer_bytes: usize,
    /// Compact when `total / (total − dead)` exceeds this factor.
    pub max_space_amplification: f64,
}

impl Default for RmwConfig {
    fn default() -> Self {
        RmwConfig {
            write_buffer_bytes: 4 << 20,
            max_space_amplification: 1.5,
        }
    }
}

fn log_file_name(generation: u64) -> String {
    format!("agg_{generation}.rmw")
}

/// Builds the composite key `window ‖ user-key`.
fn composite_key(key: &[u8], window: WindowId) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + key.len());
    out.extend_from_slice(&window.to_ordered_bytes());
    out.extend_from_slice(key);
    out
}

/// Splits a composite key back into `(user-key, window)`.
fn split_composite(composite: &[u8]) -> Result<(Vec<u8>, WindowId)> {
    if composite.len() < 16 {
        return Err(StoreError::invalid_state("rmw composite key too short"));
    }
    let window = WindowId::from_ordered_bytes(&composite[..16])?;
    Ok((composite[16..].to_vec(), window))
}

/// The read-modify-write store for one partition.
pub struct RmwStore {
    dir: PathBuf,
    cfg: RmwConfig,
    /// Dirty aggregates, newest state of each `(window, key)`.
    buffer: HashMap<Vec<u8>, Vec<u8>>,
    buffer_bytes: usize,
    /// On-disk location of each flushed aggregate.
    index: HashMap<Vec<u8>, (u64, u64)>,
    writer: Option<LogWriter>,
    /// Open read handle over the current value log (invalidated when the
    /// generation changes).
    reader: Option<RandomAccessLog>,
    generation: u64,
    total: u64,
    dead: u64,
    /// Reusable scratch for encoding flush records, so steady-state
    /// flushing allocates no per-record `Vec<u8>`s.
    encode_buf: Vec<u8>,
    metrics: Arc<StoreMetrics>,
    vfs: Arc<dyn Vfs>,
}

impl RmwStore {
    /// Opens a store rooted at `dir`, recovering any existing generation.
    pub fn open(dir: &Path, cfg: RmwConfig, metrics: Arc<StoreMetrics>) -> Result<Self> {
        Self::open_with_vfs(dir, cfg, metrics, StdVfs::shared())
    }

    /// Opens a store rooted at `dir`, performing all file IO through `vfs`.
    pub fn open_with_vfs(
        dir: &Path,
        cfg: RmwConfig,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io_at("rmw dir", dir, e))?;
        let mut store = RmwStore {
            dir: dir.to_path_buf(),
            cfg,
            buffer: HashMap::new(),
            buffer_bytes: 0,
            index: HashMap::new(),
            writer: None,
            reader: None,
            generation: 0,
            total: 0,
            dead: 0,
            encode_buf: Vec::new(),
            metrics,
            vfs,
        };
        if let Some(generation) = store.find_generation()? {
            store.generation = generation;
            store.rebuild_from_log()?;
        }
        Ok(store)
    }

    /// Fetches and removes the aggregate of `(key, window)` (paper
    /// Listing 1, `Get(K, W)`).
    pub fn take(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let composite = composite_key(key, window);
        let buffered = self.buffer.remove(&composite);
        if let Some(v) = &buffered {
            self.buffer_bytes = self
                .buffer_bytes
                .saturating_sub(composite.len() + v.len() + 48);
        }
        let disk = match self.index.remove(&composite) {
            Some((offset, len)) => {
                self.dead += len;
                if buffered.is_some() {
                    // The buffered value is newer; the disk copy just
                    // became garbage.
                    None
                } else {
                    let value = self.read_at(offset, len)?;
                    Some(value)
                }
            }
            None => None,
        };
        let result = buffered.or(disk);
        if result.is_some() {
            self.metrics.add_records_read(1);
        }
        drop(_t);
        self.maybe_compact()?;
        Ok(result)
    }

    /// Stores the updated aggregate (paper Listing 1, `Put(K, W, A)`).
    pub fn put(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Write);
        let composite = composite_key(key, window);
        self.buffer_bytes += composite.len() + aggregate.len() + 48;
        if let Some(old) = self.buffer.insert(composite.clone(), aggregate.to_vec()) {
            self.buffer_bytes = self
                .buffer_bytes
                .saturating_sub(composite.len() + old.len() + 48);
        }
        // A flushed copy, if any, is superseded the moment the dirty
        // value exists; it dies at the next flush or take.
        self.metrics.add_records_written(1);
        if self.buffer_bytes >= self.cfg.write_buffer_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes dirty aggregates to the value log.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Write);
        self.ensure_writer()?;
        let dirty = std::mem::take(&mut self.buffer);
        self.buffer_bytes = 0;
        for (composite, aggregate) in dirty {
            self.encode_buf.clear();
            put_len_prefixed(&mut self.encode_buf, &composite);
            put_len_prefixed(&mut self.encode_buf, &aggregate);
            let writer = self.writer.as_mut().expect("ensured above");
            let loc = writer.append(&self.encode_buf)?;
            self.metrics.add_bytes_written(loc.disk_len());
            self.total += loc.disk_len();
            if let Some((_, old_len)) = self.index.insert(composite, (loc.offset, loc.disk_len())) {
                self.dead += old_len;
            }
        }
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        self.metrics.add_flush();
        drop(_t);
        self.maybe_compact()
    }

    /// Copies every live aggregate into `out` for the queryable-state
    /// registry (`flowkv_common::registry`).
    ///
    /// Flushed aggregates are recovered with one sequential pass over
    /// the value log, keeping only records the index still points at and
    /// that no dirty buffer entry shadows; buffered aggregates are then
    /// copied on top. The store's logical state is untouched — at most
    /// the log writer's userspace buffer is flushed so the pass sees
    /// every indexed record.
    pub fn collect_view(
        &mut self,
        out: &mut BTreeMap<(Vec<u8>, WindowId), ViewValue>,
    ) -> Result<()> {
        if !self.index.is_empty() {
            if let Some(w) = self.writer.as_mut() {
                w.flush()?;
            }
            let path = self.dir.join(log_file_name(self.generation));
            if self.vfs.exists(&path) {
                let mut reader = LogReader::open_in(&self.vfs, &path)?;
                while let Some((loc, payload)) = reader.next_record()? {
                    let mut dec = Decoder::new(&payload);
                    let composite = dec.get_len_prefixed()?;
                    let live = self
                        .index
                        .get(composite)
                        .is_some_and(|&(offset, _)| offset == loc.offset);
                    if !live || self.buffer.contains_key(composite) {
                        continue;
                    }
                    let (key, window) = split_composite(composite)?;
                    let aggregate = dec.get_len_prefixed()?.to_vec();
                    out.insert((key, window), ViewValue::Aggregate(aggregate));
                }
            }
        }
        for (composite, aggregate) in &self.buffer {
            let (key, window) = split_composite(composite)?;
            out.insert((key, window), ViewValue::Aggregate(aggregate.clone()));
        }
        Ok(())
    }

    /// Approximate bytes of state held in memory.
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes + self.index.len() * 64
    }

    /// Total bytes in the value log (live + dead), for tests.
    pub fn log_bytes(&self) -> u64 {
        self.total
    }

    /// Number of live aggregates (buffered or flushed).
    pub fn len(&self) -> usize {
        // Buffered entries may shadow flushed ones; count distinct keys.
        let shadowed = self
            .buffer
            .keys()
            .filter(|k| self.index.contains_key(*k))
            .count();
        self.buffer.len() + self.index.len() - shadowed
    }

    /// Returns `true` when no aggregates are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes a self-contained snapshot into `dst`.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        if self.dead > 0 {
            self.compact()?;
        }
        if let Some(w) = self.writer.as_mut() {
            w.sync()?;
        }
        self.vfs
            .create_dir_all(dst)
            .map_err(|e| StoreError::io_at("rmw checkpoint dir", dst, e))?;
        let src = self.dir.join(log_file_name(self.generation));
        if self.vfs.exists(&src) {
            self.vfs
                .copy(&src, &dst.join("agg.rmw"))
                .map_err(|e| StoreError::io_at("rmw checkpoint copy", &src, e))?;
        }
        Ok(())
    }

    /// Replaces the store contents with the snapshot in `src`.
    pub fn restore(&mut self, src: &Path) -> Result<()> {
        self.close()?;
        self.vfs
            .create_dir_all(&self.dir)
            .map_err(|e| StoreError::io_at("rmw dir", &self.dir, e))?;
        self.generation = 0;
        let from = src.join("agg.rmw");
        if self.vfs.exists(&from) {
            self.vfs
                .copy(&from, &self.dir.join(log_file_name(0)))
                .map_err(|e| StoreError::io_at("rmw restore copy", &from, e))?;
            self.rebuild_from_log()?;
        }
        Ok(())
    }

    /// Deletes every file of the store and clears its memory.
    pub fn close(&mut self) -> Result<()> {
        self.buffer.clear();
        self.buffer_bytes = 0;
        self.index.clear();
        self.writer = None;
        self.reader = None;
        let _ = self
            .vfs
            .remove_file(&self.dir.join(log_file_name(self.generation)));
        self.total = 0;
        self.dead = 0;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        if self.reader.is_none() {
            let path = self.dir.join(log_file_name(self.generation));
            self.reader = Some(RandomAccessLog::open_in(&self.vfs, &path)?);
        }
        let log = self.reader.as_mut().expect("opened above");
        let mut aggregate = Vec::new();
        // The index holds the record's length, so a point read is one
        // device read.
        log.read_records(&[(offset, len)], |_, record| {
            let mut dec = Decoder::new(record_payload(record));
            let _composite = dec.get_len_prefixed()?;
            aggregate = dec.get_len_prefixed()?.to_vec();
            Ok(())
        })?;
        self.metrics.add_bytes_read(len);
        Ok(aggregate)
    }

    fn ensure_writer(&mut self) -> Result<()> {
        if self.writer.is_none() {
            let path = self.dir.join(log_file_name(self.generation));
            self.writer = Some(if self.vfs.exists(&path) {
                LogWriter::open_append_in(&self.vfs, &path)?
            } else {
                LogWriter::create_in(&self.vfs, &path)?
            });
        }
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<()> {
        if self.dead == 0 || self.total < self.cfg.write_buffer_bytes as u64 {
            return Ok(());
        }
        let live = self.total - self.dead;
        let amp = if live == 0 {
            f64::INFINITY
        } else {
            self.total as f64 / live as f64
        };
        if amp <= self.cfg.max_space_amplification {
            return Ok(());
        }
        self.compact()
    }

    /// Rewrites the value log keeping only live aggregates.
    fn compact(&mut self) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Compaction);
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        self.writer = None;
        let old_gen = self.generation;
        let new_gen = old_gen + 1;
        let old_path = self.dir.join(log_file_name(old_gen));
        let new_path = self.dir.join(log_file_name(new_gen));
        let mut new_writer = LogWriter::create_in(&self.vfs, &new_path)?;
        let mut new_index = HashMap::with_capacity(self.index.len());
        let mut moved = 0u64;
        if self.vfs.exists(&old_path) {
            let mut old = RandomAccessLog::open_in(&self.vfs, &old_path)?;
            // Deterministic relocation order keeps the new log sequential.
            let mut live: Vec<(Vec<u8>, (u64, u64))> = self.index.drain().collect();
            live.sort_by_key(|(_, (offset, _))| *offset);
            let locations: Vec<(u64, u64)> = live.iter().map(|(_, loc)| *loc).collect();
            let mut composites = live.into_iter().map(|(composite, _)| composite);
            old.read_records(&locations, |_, record| {
                let composite = composites.next().expect("one composite per location");
                let loc = new_writer.append(record_payload(record))?;
                moved += loc.disk_len();
                new_index.insert(composite, (loc.offset, loc.disk_len()));
                Ok(())
            })?;
        }
        new_writer.sync()?;
        let _ = self.vfs.remove_file(&old_path);
        self.generation = new_gen;
        self.index = new_index;
        self.writer = Some(new_writer);
        self.reader = None;
        self.metrics.add_bytes_read(moved);
        self.metrics.add_bytes_written(moved);
        self.metrics.add_compaction();
        self.total = moved;
        self.dead = 0;
        Ok(())
    }

    fn find_generation(&self) -> Result<Option<u64>> {
        let mut best: Option<u64> = None;
        let names = self
            .vfs
            .read_dir_names(&self.dir)
            .map_err(|e| StoreError::io_at("rmw scan", &self.dir, e))?;
        for name in names {
            if let Some(generation) = name
                .strip_prefix("agg_")
                .and_then(|s| s.strip_suffix(".rmw"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                best = Some(best.map_or(generation, |b: u64| b.max(generation)));
            }
        }
        Ok(best)
    }

    /// Rebuilds the index by replaying the value log (last write wins).
    ///
    /// A torn record at the tail (crash mid-flush) is truncated away; the
    /// aggregates it held were not durably flushed and are recovered by
    /// the engine's source replay, as with every store here (paper §8).
    fn rebuild_from_log(&mut self) -> Result<()> {
        self.index.clear();
        self.total = 0;
        self.dead = 0;
        let path = self.dir.join(log_file_name(self.generation));
        if !self.vfs.exists(&path) {
            return Ok(());
        }
        // Truncate any torn tail left by a crash mid-flush.
        LogWriter::open_append_in(&self.vfs, &path)?;
        let mut reader = LogReader::open_in(&self.vfs, &path)?;
        while let Some((loc, payload)) = reader.next_record()? {
            let mut dec = Decoder::new(&payload);
            let composite = dec.get_len_prefixed()?.to_vec();
            self.total += loc.disk_len();
            if let Some((_, old_len)) = self.index.insert(composite, (loc.offset, loc.disk_len())) {
                self.dead += old_len;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;

    fn cfg_small() -> RmwConfig {
        RmwConfig {
            write_buffer_bytes: 1 << 10,
            max_space_amplification: 1.5,
        }
    }

    fn store(dir: &Path) -> RmwStore {
        RmwStore::open(dir, cfg_small(), StoreMetrics::new_shared()).unwrap()
    }

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    #[test]
    fn take_put_cycle() {
        let dir = ScratchDir::new("rmw-cycle").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        assert_eq!(s.take(b"k", win).unwrap(), None);
        // A counter incremented ten times through take/put cycles.
        for _ in 0..10 {
            let n = s
                .take(b"k", win)
                .unwrap()
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .unwrap_or(0);
            s.put(b"k", win, &(n + 1).to_le_bytes()).unwrap();
        }
        assert_eq!(
            s.take(b"k", win).unwrap(),
            Some(10u64.to_le_bytes().to_vec())
        );
        assert_eq!(s.take(b"k", win).unwrap(), None);
    }

    #[test]
    fn windows_are_independent() {
        let dir = ScratchDir::new("rmw-windows").unwrap();
        let mut s = store(dir.path());
        s.put(b"k", w(0, 100), b"a").unwrap();
        s.put(b"k", w(100, 200), b"b").unwrap();
        assert_eq!(s.take(b"k", w(0, 100)).unwrap(), Some(b"a".to_vec()));
        assert_eq!(s.take(b"k", w(100, 200)).unwrap(), Some(b"b".to_vec()));
    }

    #[test]
    fn spills_to_disk_and_reads_back() {
        let dir = ScratchDir::new("rmw-spill").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        for i in 0..200u32 {
            s.put(format!("key-{i}").as_bytes(), win, &[7u8; 32])
                .unwrap();
        }
        assert!(s.metrics.snapshot().flushes > 0, "buffer never flushed");
        for i in (0..200u32).step_by(13) {
            assert_eq!(
                s.take(format!("key-{i}").as_bytes(), win).unwrap(),
                Some(vec![7u8; 32])
            );
        }
    }

    #[test]
    fn buffered_value_shadows_flushed() {
        let dir = ScratchDir::new("rmw-shadow").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        s.put(b"k", win, b"old").unwrap();
        s.flush().unwrap();
        s.put(b"k", win, b"new").unwrap();
        assert_eq!(s.take(b"k", win).unwrap(), Some(b"new".to_vec()));
        assert_eq!(s.take(b"k", win).unwrap(), None);
    }

    #[test]
    fn compaction_bounds_space_amplification() {
        let dir = ScratchDir::new("rmw-compact").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        for round in 0..100u32 {
            for key in 0..20u32 {
                s.put(format!("key-{key}").as_bytes(), win, &round.to_le_bytes())
                    .unwrap();
            }
            s.flush().unwrap();
        }
        assert!(s.metrics.snapshot().compactions > 0, "no compaction ran");
        for key in 0..20u32 {
            assert_eq!(
                s.take(format!("key-{key}").as_bytes(), win).unwrap(),
                Some(99u32.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let dir = ScratchDir::new("rmw-ckpt").unwrap();
        let ckpt = ScratchDir::new("rmw-ckpt-dst").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        s.put(b"a", win, b"1").unwrap();
        s.put(b"gone", win, b"x").unwrap();
        s.flush().unwrap();
        s.take(b"gone", win).unwrap();
        s.checkpoint(ckpt.path()).unwrap();
        s.put(b"b", win, b"2").unwrap();
        s.restore(ckpt.path()).unwrap();
        assert_eq!(s.take(b"a", win).unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.take(b"gone", win).unwrap(), None);
        assert_eq!(s.take(b"b", win).unwrap(), None);
    }

    #[test]
    fn view_sees_buffered_and_flushed_without_consuming() {
        let dir = ScratchDir::new("rmw-view").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        s.put(b"flushed", win, b"old").unwrap();
        s.put(b"shadowed", win, b"stale").unwrap();
        s.flush().unwrap();
        s.put(b"shadowed", win, b"fresh").unwrap();
        s.put(b"dirty", win, b"hot").unwrap();

        let mut view = BTreeMap::new();
        s.collect_view(&mut view).unwrap();
        assert_eq!(view.len(), 3);
        assert_eq!(
            view.get(&(b"flushed".to_vec(), win)),
            Some(&ViewValue::Aggregate(b"old".to_vec()))
        );
        assert_eq!(
            view.get(&(b"shadowed".to_vec(), win)),
            Some(&ViewValue::Aggregate(b"fresh".to_vec()))
        );
        assert_eq!(
            view.get(&(b"dirty".to_vec(), win)),
            Some(&ViewValue::Aggregate(b"hot".to_vec()))
        );

        // Building the view consumed nothing.
        assert_eq!(s.take(b"flushed", win).unwrap(), Some(b"old".to_vec()));
        assert_eq!(s.take(b"shadowed", win).unwrap(), Some(b"fresh".to_vec()));
        assert_eq!(s.take(b"dirty", win).unwrap(), Some(b"hot".to_vec()));
    }

    #[test]
    fn reopen_recovers_with_last_write_wins() {
        let dir = ScratchDir::new("rmw-reopen").unwrap();
        let win = w(0, 100);
        {
            let mut s = store(dir.path());
            s.put(b"k", win, b"v1").unwrap();
            s.flush().unwrap();
            s.put(b"k", win, b"v2").unwrap();
            s.flush().unwrap();
            if let Some(writer) = s.writer.as_mut() {
                writer.sync().unwrap();
            }
        }
        let mut s = store(dir.path());
        assert_eq!(s.take(b"k", win).unwrap(), Some(b"v2".to_vec()));
    }
}
