//! The Read-Modify-Write store (paper §4.3).
//!
//! Incremental aggregates are read and rewritten on *every* tuple
//! arrival, so read-time prediction buys nothing; what matters is O(1)
//! point access without synchronization. The RMW store keeps a hash
//! write buffer of dirty aggregates in front of an in-memory hash index
//! over an append-only value log — structurally a hash KV store, minus
//! the concurrency machinery the paper shows Faster wastes cycles on for
//! single-threaded stream workers. Both are `WindowMap`s, probed with
//! the `(key, window)` a call arrives with; the composite `window ‖ key`
//! exists only inside a log record. The value log is a
//! `GenLog`: rewritten when space amplification exceeds
//! the MSA, like the AUR store's.
//!
//! A tuple costs one probe of the write buffer: [`RmwStore::update`]
//! edits the aggregate where the buffer holds it. A pair that lives only
//! in the log is read and retired as a take would and starts the buffer
//! slot; the compaction and flush checks then run in the order a take
//! and a put run them, so the log receives the same bytes through the
//! same device operations. The call is charged to the write timer, the
//! one read of a flushed pair included; `records_read` and
//! `records_written` both count it, as the two calls would, so the
//! paper's Fig 10 read/write split keeps its meaning in records.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use flowkv_common::backend::AggregateUpdate;
use flowkv_common::codec::{put_len_prefixed, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::logfile::{record_payload, RecordLocation};
use flowkv_common::metrics::{OpCategory, RecordTimer, StoreMetrics};
use flowkv_common::registry::ViewValue;
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::Vfs;

use crate::aur::record::{put_composite, split_composite};
use crate::genlog::GenLog;
use crate::table::WindowMap;

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

/// What a dirty aggregate of `aggregate_len` bytes counts toward the
/// flush threshold.
fn dirty_charge(key: &[u8], aggregate_len: usize) -> usize {
    WindowId::ENCODED_LEN + key.len() + aggregate_len + 48
}

/// The read-modify-write store for one partition.
pub struct RmwStore {
    cfg: RmwConfig,
    /// Dirty aggregates, newest state of each `(key, window)`.
    buffer: WindowMap<Vec<u8>>,
    buffer_bytes: usize,
    /// On-disk location of each flushed aggregate: `(offset, length)`.
    index: WindowMap<(u64, u64)>,
    /// The value log, `agg_<generation>.rmw`.
    log: GenLog,
    /// Reusable scratch for encoding flush records, so steady-state
    /// flushing allocates no per-record `Vec<u8>`s.
    encode_buf: Vec<u8>,
    metrics: Arc<StoreMetrics>,
    /// Samples the per-record `put` / `update` timer.
    write_timer: RecordTimer,
}

impl RmwStore {
    /// Opens a store rooted at `dir`, recovering any existing generation
    /// and performing all file IO through `vfs`.
    pub fn open(
        dir: &Path,
        cfg: RmwConfig,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io_at("rmw dir", dir, e))?;
        let (mut index, mut superseded) = (WindowMap::default(), 0);
        let mut log = GenLog::open(vfs, dir, "agg", "rmw", |loc, payload| {
            superseded += index_record(&mut index, loc, payload)?;
            Ok(())
        })?;
        log.retire(superseded);
        Ok(RmwStore {
            cfg,
            buffer: WindowMap::default(),
            buffer_bytes: 0,
            index,
            log,
            encode_buf: Vec::new(),
            metrics,
            write_timer: RecordTimer::default(),
        })
    }

    /// Fetches and removes the aggregate of `(key, window)` (paper
    /// Listing 1, `Get(K, W)`).
    pub fn take(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let _t = self.metrics.timer(OpCategory::Read);
        let flushed = self.retire_flushed(key, window);
        let mut result = self.buffer.remove(key, window);
        match (&result, flushed) {
            // A buffered value is newer: the disk copy was just garbage.
            (Some(v), _) => self.buffer_bytes -= dirty_charge(key, v.len()),
            (None, Some((offset, len))) => result = Some(self.read_at(offset, len)?),
            (None, None) => {}
        }
        if result.is_some() {
            self.metrics.add_records_read(1);
        }
        drop(_t);
        self.maybe_compact()?;
        Ok(result)
    }

    /// Stores the updated aggregate (paper Listing 1, `Put(K, W, A)`).
    pub fn put(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        {
            let _t = self.write_timer.start(&self.metrics, OpCategory::Write);
            self.buffer_bytes += dirty_charge(key, aggregate.len());
            if let Some(old) = self.buffer.insert(key, window, aggregate.to_vec()) {
                self.buffer_bytes -= dirty_charge(key, old.len());
            }
            // A flushed copy, if any, is superseded the moment the dirty
            // value exists; it dies at the next flush or take.
            self.metrics.add_records_written(1);
        }
        self.flush_if_full()
    }

    /// [`take`](Self::take), `f`, [`put`](Self::put) as one call (see
    /// the module documentation and `StateBackend::update_aggregate`).
    pub fn update(&mut self, key: &[u8], window: WindowId, f: AggregateUpdate<'_>) -> Result<()> {
        {
            let _t = self.write_timer.start(&self.metrics, OpCategory::Write);
            let flushed = match self.retire_flushed(key, window) {
                Some((offset, len)) if self.buffer.get(key, window).is_none() => {
                    Some(self.read_at(offset, len)?)
                }
                _ => None,
            };
            // A new slot starts from the flushed aggregate, charged in
            // full; only then may the pair have held nothing.
            let (held, bytes) = (Cell::new(true), &mut self.buffer_bytes);
            let start = || {
                held.set(flushed.is_some());
                *bytes += dirty_charge(key, flushed.as_ref().map_or(0, Vec::len));
                flushed.unwrap_or_default()
            };
            let (before, after) = self.buffer.upsert(key, window, start, |aggregate| {
                let before = aggregate.len();
                f(aggregate, held.get());
                (before, aggregate.len())
            });
            self.buffer_bytes = self.buffer_bytes + after - before;
            self.metrics.add_records_read(u64::from(held.get()));
            self.metrics.add_records_written(1);
        }
        self.maybe_compact()?;
        self.flush_if_full()
    }

    /// RMW state is written, not anticipatably read: there is nothing to
    /// read ahead (its LSM sibling handles warming instead).
    pub(crate) fn advance_prefetch(&mut self, _stream_time: Timestamp) -> Result<()> {
        Ok(())
    }

    /// Flushes dirty aggregates to the value log.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.len() == 0 {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Write);
        // `(window, key)` order: the log's bytes, and so the device-op
        // sequence of a run, are a function of the input, not of map
        // iteration order.
        let mut dirty: Vec<(&[u8], WindowId, &Vec<u8>)> = self.buffer.iter().collect();
        dirty.sort_unstable_by_key(|&(key, window, _)| (window, key));
        for (key, window, aggregate) in dirty {
            self.encode_buf.clear();
            put_composite(&mut self.encode_buf, key, window);
            put_len_prefixed(&mut self.encode_buf, aggregate);
            let loc = self.log.append(&self.encode_buf)?;
            self.metrics.add_bytes_written(loc.disk_len());
            let at = (loc.offset, loc.disk_len());
            if let Some((_, old_len)) = self.index.insert(key, window, at) {
                self.log.retire(old_len);
            }
        }
        self.buffer.clear();
        self.buffer_bytes = 0;
        self.log.flush()?;
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
        if self.index.len() > 0 {
            self.log.scan(|loc, payload| {
                let mut dec = Decoder::new(payload);
                let (key, window) = split_composite(dec.get_len_prefixed()?)?;
                let at = self.index.get(key, window);
                let live = at.is_some_and(|&(offset, _)| offset == loc.offset);
                if live && self.buffer.get(key, window).is_none() {
                    let aggregate = dec.get_len_prefixed()?.to_vec();
                    out.insert((key.to_vec(), window), ViewValue::Aggregate(aggregate));
                }
                Ok(())
            })?;
        }
        for (key, window, aggregate) in self.buffer.iter() {
            out.insert(
                (key.to_vec(), window),
                ViewValue::Aggregate(aggregate.clone()),
            );
        }
        Ok(())
    }

    /// Approximate bytes of state held in memory.
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes + self.index.len() * 64
    }

    /// Writes a self-contained snapshot into `dst`: the records the index
    /// points at and no others — a take leaves no tombstone in the log,
    /// so a replay of dead records would resurrect them. The live log is
    /// left as it is.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        let mut live: Vec<(u64, u64)> = self.index.iter().map(|(.., &at)| at).collect();
        live.sort_unstable();
        self.log.checkpoint(&live, dst, "agg.rmw")
    }

    /// Replaces the store contents with the snapshot in `src`.
    pub fn restore(&mut self, src: &Path) -> Result<()> {
        self.close()?;
        let (index, mut superseded) = (&mut self.index, 0);
        self.log.restore_from(src, "agg.rmw", |loc, payload| {
            superseded += index_record(index, loc, payload)?;
            Ok(())
        })?;
        self.log.retire(superseded);
        Ok(())
    }

    /// Deletes every file of the store and clears its memory.
    pub fn close(&mut self) -> Result<()> {
        self.buffer.clear();
        self.buffer_bytes = 0;
        self.index.clear();
        self.log.destroy();
        Ok(())
    }

    /// Forgets the flushed copy of `(key, window)` — a take supersedes
    /// it, with or without a buffered value on top — and says where it
    /// was.
    fn retire_flushed(&mut self, key: &[u8], window: WindowId) -> Option<(u64, u64)> {
        let at = self.index.remove(key, window)?;
        self.log.retire(at.1);
        Some(at)
    }

    /// The flush times itself: no timer of the caller may span it.
    fn flush_if_full(&mut self) -> Result<()> {
        if self.buffer_bytes >= self.cfg.write_buffer_bytes {
            self.flush()?;
        }
        Ok(())
    }

    fn read_at(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let mut aggregate = Vec::new();
        // The index holds the record's length, so a point read is one
        // device read.
        self.log
            .reader()?
            .read_records(&[(offset, len)], |_, record| {
                let mut dec = Decoder::new(record_payload(record));
                let _composite = dec.get_len_prefixed()?;
                aggregate = dec.get_len_prefixed()?.to_vec();
                Ok(())
            })?;
        self.metrics.add_bytes_read(len);
        Ok(aggregate)
    }

    /// Compacts when space amplification exceeds the MSA; one write
    /// buffer's worth of log is the floor below which it never does.
    fn maybe_compact(&mut self) -> Result<()> {
        let floor = self.cfg.write_buffer_bytes as u64;
        if self.log.amplified(self.cfg.max_space_amplification, floor) {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the value log keeping only live aggregates.
    fn compact(&mut self) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Compaction);
        // The index moves only once the rewrite is committed: a rewrite
        // that fails leaves it pointing into the log it still describes.
        let mut live: Vec<&mut (u64, u64)> = self.index.iter_mut().map(|(.., at)| at).collect();
        live.sort_unstable();
        let locations: Vec<(u64, u64)> = live.iter().map(|at| **at).collect();
        let mut offsets = vec![0u64; live.len()];
        let staged = self.log.relocate(&locations, |i, offset| {
            offsets[i] = offset;
            Ok(())
        })?;
        self.log.commit(staged)?;
        for (at, offset) in live.into_iter().zip(offsets) {
            at.0 = offset;
        }
        let moved = self.log.total();
        self.metrics.add_bytes_read(moved);
        self.metrics.add_bytes_written(moved);
        self.metrics.add_compaction();
        Ok(())
    }
}

/// Replays one value-log record into `index` at reopen and restore (last
/// write wins), returning the on-disk bytes of the record it supersedes.
/// Aggregates a torn tail held were not durably flushed and are recovered
/// by the engine's source replay, as with every store here (paper §8).
fn index_record(
    index: &mut WindowMap<(u64, u64)>,
    loc: RecordLocation,
    payload: &[u8],
) -> Result<u64> {
    let (key, window) = split_composite(Decoder::new(payload).get_len_prefixed()?)?;
    let old = index.insert(key, window, (loc.offset, loc.disk_len()));
    Ok(old.map_or(0, |(_, len)| len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn cfg_small() -> RmwConfig {
        RmwConfig {
            write_buffer_bytes: 1 << 10,
            max_space_amplification: 1.5,
        }
    }

    fn store(dir: &Path) -> RmwStore {
        RmwStore::open(
            dir,
            cfg_small(),
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        )
        .unwrap()
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
    fn update_edits_a_buffered_aggregate_and_starts_from_a_flushed_one() {
        let dir = ScratchDir::new("rmw-update").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        let mut seen = Vec::new();
        let mut bump = |s: &mut RmwStore, grow: usize| {
            s.update(b"k", win, &mut |agg, held| {
                seen.push((held, agg.clone()));
                agg.resize(agg.len() + grow, 7);
                agg[0] += 1;
            })
            .unwrap();
        };
        // Nothing held: an empty buffer, and what the update leaves is
        // the aggregate.
        bump(&mut s, 4);
        let empty = s.memory_bytes();
        bump(&mut s, 0);
        assert_eq!(s.memory_bytes(), empty);
        bump(&mut s, 2);
        assert_eq!(s.memory_bytes(), empty + 2);
        // Only in the log: read back, retired there, dirty again here.
        s.flush().unwrap();
        assert_eq!((s.buffer.len(), s.log.dead()), (0, 0));
        bump(&mut s, 0);
        assert_eq!((s.buffer.len(), s.index.len()), (1, 0));
        assert!(s.log.dead() > 0);
        assert_eq!(
            seen,
            [
                (false, vec![]),
                (true, vec![8, 7, 7, 7]),
                (true, vec![9, 7, 7, 7]),
                (true, vec![10, 7, 7, 7, 7, 7]),
            ]
        );
        assert_eq!(s.take(b"k", win).unwrap(), Some(vec![11, 7, 7, 7, 7, 7]));
        let m = s.metrics.snapshot();
        assert_eq!((m.records_read, m.records_written), (3 + 1, 4));
        assert_eq!(s.memory_bytes(), 0);
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
        let log = |s: &RmwStore| (s.log.generation(), s.log.total(), s.log.dead());
        let before = log(&s);
        assert!(before.2 > 0, "the taken aggregate is dead: {before:?}");
        s.checkpoint(ckpt.path()).unwrap();
        // The live log is left as it was; the checkpoint holds the one
        // record the index points at.
        assert_eq!(log(&s), before);
        let listed: u64 = s.index.iter().map(|(.., &(_, len))| len).sum();
        let copied = StdVfs.file_len(&ckpt.path().join("agg.rmw")).unwrap();
        assert_eq!((copied, listed), (before.1 - before.2, before.1 - before.2));
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
            s.log.sync().unwrap();
        }
        let mut s = store(dir.path());
        assert_eq!(s.take(b"k", win).unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn no_timer_spans_a_call_into_another_timed_function() {
        // Every write through a file handle sleeps 1 ms. A `put` that
        // fills the buffer triggers the flush, and the flush the
        // compaction — each under its own timer, so a timer held across
        // the call below it would count that millisecond twice.
        use crate::genlog::tests::{assert_no_time_counted_twice, SlowWrites};
        use std::time::{Duration, Instant};
        let dir = ScratchDir::new("rmw-timers").unwrap();
        let vfs = SlowWrites::shared(Duration::from_millis(1));
        let metrics = StoreMetrics::new_shared();
        let mut s = RmwStore::open(dir.path(), cfg_small(), metrics, vfs).unwrap();
        let win = w(0, 100);
        let start = Instant::now();
        for round in 0..12u8 {
            for key in 0..20u32 {
                s.put(format!("key-{key}").as_bytes(), win, &[round; 32])
                    .unwrap();
            }
        }
        for key in 0..20u32 {
            assert!(s
                .take(format!("key-{key}").as_bytes(), win)
                .unwrap()
                .is_some());
        }
        let wall = start.elapsed().as_nanos() as u64;
        let m = s.metrics.snapshot();
        assert!(m.compactions >= 1, "{m:?}");
        assert_no_time_counted_twice(&m, wall);
    }

    /// Puts, takes, flushes and compactions over three windows (one
    /// starting below zero), returning `(generation, length, CRC-32)` of
    /// the value log after each round.
    fn scripted_logs() -> Vec<(u64, usize, u32)> {
        let dir = ScratchDir::new("rmw-pinned").unwrap();
        let mut s = store(dir.path());
        let mut logs = Vec::new();
        for round in 0..6u8 {
            for i in 0..48u32 {
                let k = i * 47 % 48;
                let (key, start) = (format!("key-{k}"), i64::from(k % 3) * 100 - 100);
                if (k + u32::from(round)).is_multiple_of(5) {
                    s.take(key.as_bytes(), w(start, start + 100)).unwrap();
                } else {
                    s.put(key.as_bytes(), w(start, start + 100), &[round; 24])
                        .unwrap();
                }
            }
            s.flush().unwrap();
            let bytes = std::fs::read(s.log.path()).unwrap();
            logs.push((
                s.log.generation(),
                bytes.len(),
                flowkv_common::codec::crc32(&bytes),
            ));
        }
        let m = s.metrics.snapshot();
        assert!(m.flushes > 12 && m.compactions >= 2, "{m:?}");
        logs
    }

    #[test]
    fn a_scripted_run_writes_the_records_the_composite_keyed_maps_wrote() {
        // The figures are those of the store whose buffer and index were
        // hash maps keyed by `window ‖ key`: the same records, in the
        // same order, through every flush and compaction.
        let pinned = [
            (0, 2120, 3497672003),
            (1, 3120, 3025403550),
            (3, 3121, 3753968384),
            (5, 3009, 2903181591),
            (7, 3009, 3821080366),
            (9, 3009, 677520361),
        ];
        assert_eq!(scripted_logs(), pinned);
    }

    #[test]
    fn the_value_log_is_a_function_of_the_calls() {
        // Two stores fed the same calls leave byte-identical logs: a
        // flush writes aggregates in `(window, key)` order, whatever
        // order each store's maps iterate in.
        let log_of = |name: &str| {
            let dir = ScratchDir::new(name).unwrap();
            let mut s = store(dir.path());
            for round in 0..3u8 {
                for key in 0..40u32 {
                    let window = w(i64::from(key % 4) * 100, i64::from(key % 4) * 100 + 100);
                    s.put(format!("key-{key}").as_bytes(), window, &[round; 8])
                        .unwrap();
                }
            }
            s.flush().unwrap();
            assert!(s.metrics.snapshot().flushes > 3);
            std::fs::read(s.log.path()).unwrap()
        };
        let (a, b) = (log_of("rmw-determinism-a"), log_of("rmw-determinism-b"));
        assert!(a == b, "the two logs differ");
    }
}
