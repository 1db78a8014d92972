//! The Append and Unaligned Read store (paper §4.2, Figure 7).
//!
//! Session-style windows trigger per key at unpredictable wall-clock
//! moments, so neither per-window files (too many) nor eager merging
//! (wasted CPU) fit. The AUR store instead:
//!
//! - appends flushed value groups to a single **global data log** and
//!   their locations to an append-only **index log** ([`index_log`]);
//! - keeps one in-memory **table of live windows** ([`table`]) whose
//!   entries hold Figure 7's three memory structures: the **Stat table**
//!   is `ett`/`max_ts`/`disk_bytes`/`disk_records` (updated on every
//!   append via the [`EttPredictor`]), the **write buffer** `buffered`,
//!   the **prefetch buffer** `prefetched` — so an append, a trigger and
//!   each entry of a compaction scan probe once;
//! - on a read miss, performs a **predictive batch read**: one sequential
//!   scan of the index log collects the locations of the requested window
//!   *and* of the `N = ratio × live-windows` windows closest to
//!   triggering, loads them in offset order — one device read per run
//!   of neighbouring records, not one per record — and parks them in
//!   the windows' `prefetched` slots. That read is one body,
//!   [`read_windows`], which a read-ahead runs on the worker's I/O ring
//!   and the serving view for every window on disk;
//! - writes each flush in **predicted-trigger order**, so the windows a
//!   batch read wants together sit together in the data log;
//! - **integrates compaction** with that machinery: dead bytes are
//!   tracked as windows are consumed, and when space amplification
//!   exceeds the configured MSA the store relocates the live byte ranges
//!   of the data log into a new generation — raw record bytes out of
//!   the same extent reads, never decoded (paper §5). Both logs are
//!   [`GenLog`](crate::genlog)s, which own the files' whole life.
//!
//! A consumed window's records stay in the logs until compaction, and
//! re-appending to the same `(key, window)` must not resurrect them: a
//! window's live records are exactly those at or past the data-log offset
//! of its first flush, `first_offset` ([`LiveTable::classify`]). The
//! window also keeps the index-log offset of that first live entry, so
//! every index walk starts at the least of them
//! ([`LiveTable::scan_start`]): the dead head of the log is never read.

pub mod index_log;
mod table;

use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use flowkv_common::backend::ValueSink;
use flowkv_common::codec::Decoder;
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::{IoRing, Lane, PrefetchProbe};
use flowkv_common::logfile::{record_payload, scan_records_in, RandomAccessLog};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::registry::ViewValue;
use flowkv_common::telemetry::{Counter, Histogram, Telemetry};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{StdVfs, Vfs};

use crate::aar::push_view_value;
use crate::ett::{EttObservation, EttPredictor};
use crate::genlog::GenLog;
use crate::table::WindowMap;
use index_log::{IndexEntry, ValueRun};
use table::{LiveTable, Pick};

/// Identifies one window of one key.
type StateKey = (Vec<u8>, WindowId);

/// Tuning knobs of one AUR store instance.
#[derive(Clone, Debug)]
pub struct AurConfig {
    /// Flush the write buffer at this size.
    pub write_buffer_bytes: usize,
    /// Fraction of live windows loaded per predictive batch read.
    pub read_batch_ratio: f64,
    /// Compact when `total / (total − dead)` exceeds this factor.
    pub max_space_amplification: f64,
}

impl Default for AurConfig {
    fn default() -> Self {
        AurConfig {
            write_buffer_bytes: 4 << 20,
            read_batch_ratio: 0.02,
            max_space_amplification: 1.5,
        }
    }
}

/// The one index-log scan (paper §4.2): walks `path` from `start`, up to
/// but never across `limit`, decodes each entry where the scan's read
/// buffer holds it and hands it to `visit`. Returns the on-disk bytes
/// walked. Its callers are the batch read ([`read_windows`]) and the
/// compaction scan.
fn walk_index(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    start: u64,
    limit: u64,
    mut visit: impl FnMut(IndexEntry<'_>),
) -> Result<u64> {
    let mut scanned_bytes = 0u64;
    // Stop *before* crossing the limit: bytes past it may belong to a
    // flush the foreground is writing concurrently, and reading into a
    // half-written record would fail the whole walk as a torn file.
    scan_records_in(vfs, path, start, limit, |loc, payload| {
        scanned_bytes += loc.disk_len();
        visit(IndexEntry::decode(payload)?);
        Ok(())
    })?;
    Ok(scanned_bytes)
}

/// One window as a batch read found it on disk: the values of the live
/// records it found, how many there were and their on-disk bytes — a
/// complete copy only if `found_records` is `pick.disk_records`.
struct WindowRead {
    pick: Pick,
    found_records: u64,
    values: ValueRun,
    bytes: u64,
}

/// The one batch read (paper §4.2): walks the index log at `index` once,
/// from `start` up to `limit`, keeping the live entries of the `picks` —
/// one probe of a map of them per entry — then loads those records
/// through the data-log reader `data` opens, in offset order, neighbours
/// sharing one device read (a window's records stay in append order
/// because offsets grow with appends). Returns each pick's read, in pick
/// order, and the index bytes walked. A miss runs it on the worker
/// thread over the store's cached reader, a read-ahead on the lane over
/// a reader of its own, the serving view through `read_through`.
fn read_windows<D: BorrowMut<RandomAccessLog>>(
    vfs: &Arc<dyn Vfs>,
    index: &Path,
    start: u64,
    limit: u64,
    data: impl FnOnce() -> Result<D>,
    picks: Vec<Pick>,
) -> Result<(Vec<WindowRead>, u64)> {
    let mut slots: WindowMap<(usize, u64)> = WindowMap::default();
    for (slot, pick) in picks.iter().enumerate() {
        slots.insert(&pick.key, pick.window, (slot, pick.first_offset));
    }
    let mut wanted: Vec<(u64, u64, usize)> = Vec::new();
    let scanned = walk_index(vfs, index, start, limit, |entry| {
        match slots.get(entry.key, entry.window) {
            Some(&(slot, first_offset)) if entry.offset >= first_offset => {
                wanted.push((entry.offset, entry.len, slot));
            }
            _ => {}
        }
    })?;
    let mut reads: Vec<WindowRead> = picks
        .into_iter()
        .map(|pick| WindowRead {
            pick,
            found_records: 0,
            values: ValueRun::default(),
            bytes: 0,
        })
        .collect();
    if !wanted.is_empty() {
        wanted.sort_unstable_by_key(|&(offset, ..)| offset);
        let locations: Vec<(u64, u64)> = wanted.iter().map(|&(o, len, _)| (o, len)).collect();
        data()?.borrow_mut().read_records(&locations, |i, record| {
            let read = &mut reads[wanted[i].2];
            read.found_records += 1;
            read.bytes += record.len() as u64;
            read.values.push_record(record_payload(record))
        })?;
    }
    Ok((reads, scanned))
}

/// The append-and-unaligned-read store for one partition.
pub struct AurStore {
    cfg: AurConfig,
    predictor: EttPredictor,
    /// The live windows: Stat table, write buffer and prefetch buffer.
    table: LiveTable,
    /// The data log, `data_<generation>.aurd`: flushed value groups. Its
    /// dead bytes are those of consumed windows.
    data: GenLog,
    /// The index log, `index_<generation>.auri`: one entry per data
    /// record. The two are rewritten together, data committed first, and
    /// on reopen the index's generation decides the pair's.
    index: GenLog,
    /// Largest tuple timestamp appended so far — the store's view of
    /// stream time; windows with ETT at or before it are already due.
    latest_ts: Timestamp,
    /// Reusable scratch for encoding flush records (data payloads and
    /// index entries), so steady-state flushing allocates no per-record
    /// `Vec<u8>`s.
    encode_buf: Vec<u8>,
    metrics: Arc<StoreMetrics>,
    /// Prefetch-accuracy telemetry; `None` keeps the hot path untouched.
    ett_probe: Option<EttProbe>,
    vfs: Arc<dyn Vfs>,
    /// Read-ahead lane keyed by `(key, window)`: without threads until
    /// [`AurStore::with_ring`] attaches the worker's I/O ring
    /// (every read synchronous — the default, and the reference
    /// semantics).
    lane: Lane<StateKey, BatchRead>,
    /// Bumped by close/restore so completions submitted against a
    /// previous incarnation of the store are discarded on arrival.
    epoch: u64,
    /// Prefetch hit/late/timeliness counters; `None` without telemetry.
    prefetch_probe: Option<PrefetchProbe>,
    /// When the next scan for read-ahead candidates can find one the last
    /// scan did not: `None` at the next tick, `Some(t)` once the due bound
    /// reaches `t`. A window becomes a candidate only when a flush puts it
    /// on disk, when a background read lands (its windows may have been
    /// rejected), or when stream time reaches its ETT; every other tick
    /// would walk the whole table to submit nothing.
    next_prefetch_scan: Option<Timestamp>,
}

/// One batch read as [`AurStore::install`] validates it: the generation
/// and epoch it read, and per window what it was planned against.
struct BatchRead {
    generation: u64,
    epoch: u64,
    windows: Vec<WindowRead>,
}

/// Telemetry handles for predicted-vs-actual trigger-time accounting,
/// resolved once at store open so consuming a window costs only atomic
/// updates plus one ring append.
struct EttProbe {
    telemetry: Arc<Telemetry>,
    /// Flight-recorder tag, `operator/p<N>` of the owning partition.
    tag: String,
    /// Histogram of `|actual - predicted|` in event-time milliseconds.
    abs_error_ms: Arc<Histogram>,
    /// Consumed windows that carried a trigger-time estimate.
    observations: Arc<Counter>,
    /// Observations whose estimate was not a safe lower bound.
    unsafe_predictions: Arc<Counter>,
}

impl EttProbe {
    fn new(telemetry: Arc<Telemetry>, tag: &str) -> Self {
        let registry = telemetry.registry();
        EttProbe {
            abs_error_ms: registry.histogram(&format!("store_ett_abs_error_ms{{store={tag}}}")),
            observations: registry.counter(&format!("store_ett_observations_total{{store={tag}}}")),
            unsafe_predictions: registry.counter(&format!(
                "store_ett_unsafe_predictions_total{{store={tag}}}"
            )),
            tag: tag.to_string(),
            telemetry,
        }
    }

    fn observe(&self, window: WindowId, obs: EttObservation, from_prefetch: bool) {
        self.observations.inc();
        self.abs_error_ms.record(obs.abs_error() as u64);
        if !obs.was_safe() {
            self.unsafe_predictions.inc();
        }
        self.telemetry.event(
            "ett",
            &self.tag,
            vec![
                ("window_start", window.start),
                ("window_end", window.end),
                ("predicted", obs.predicted),
                ("actual", obs.actual),
                ("error", obs.error()),
                ("from_prefetch", i64::from(from_prefetch)),
            ],
        );
    }
}

impl AurStore {
    /// Opens a store rooted at `dir`, recovering any existing generation.
    pub fn open(
        dir: &Path,
        cfg: AurConfig,
        predictor: EttPredictor,
        metrics: Arc<StoreMetrics>,
    ) -> Result<Self> {
        Self::open_with_vfs(dir, cfg, predictor, metrics, StdVfs::shared())
    }

    /// Opens a store rooted at `dir`, performing all file IO through `vfs`.
    pub fn open_with_vfs(
        dir: &Path,
        cfg: AurConfig,
        predictor: EttPredictor,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io_at("aur dir", dir, e))?;
        let index = GenLog::open(Arc::clone(&vfs), dir, "index", "auri", None)?;
        let data = GenLog::open(
            Arc::clone(&vfs),
            dir,
            "data",
            "aurd",
            Some(index.generation()),
        )?;
        let mut store = AurStore {
            cfg,
            predictor,
            table: LiveTable::default(),
            data,
            index,
            latest_ts: Timestamp::MIN,
            encode_buf: Vec::new(),
            metrics,
            ett_probe: None,
            lane: Lane::inline(Arc::clone(&vfs)),
            vfs,
            epoch: 0,
            prefetch_probe: None,
            next_prefetch_scan: None,
        };
        store.rebuild_from_index()?;
        Ok(store)
    }

    /// Enables predicted-vs-actual trigger-time telemetry, tagging
    /// metrics and flight events with `tag` (typically `operator/p<N>`).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>, tag: &str) -> Self {
        let probe = PrefetchProbe::new(&telemetry, tag);
        self.lane.set_probe(probe.clone());
        self.prefetch_probe = Some(probe);
        self.ett_probe = Some(EttProbe::new(telemetry, tag));
        self
    }

    /// Attaches the worker's background I/O ring: predictive
    /// batch reads become asynchronous submissions driven by
    /// [`AurStore::advance_prefetch`], and snapshot/compaction index
    /// scans run on the ring's pool.
    pub fn with_ring(mut self, ring: Arc<IoRing>) -> Self {
        self.lane.attach(ring);
        self
    }

    /// Appends `value` for `(key, window)` with tuple timestamp `ts`
    /// (paper Listing 1, `Append(K, V, W, T)`).
    pub fn append(
        &mut self,
        key: &[u8],
        window: WindowId,
        value: &[u8],
        ts: Timestamp,
    ) -> Result<()> {
        {
            let _t = self.metrics.timer(OpCategory::Write);
            self.latest_ts = self.latest_ts.max(ts);
            self.table.append(key, window, value, ts, &self.predictor);
            self.metrics.add_records_written(1);
        }
        // The flush times itself: no timer of this call may span it.
        if self.table.buffer_bytes() >= self.cfg.write_buffer_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Fetches and removes the values of `(key, window)` (paper Listing 1,
    /// `Get(K, W)`): [`AurStore::take_with`], collected.
    pub fn take(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.take_with(key, window, &mut |value| out.push(value.to_vec()))?;
        Ok(out)
    }

    /// The store's one take: removes `(key, window)` and lends `sink` its
    /// values — the prefetched copy's disk records, then the buffered
    /// run — out of the bytes they are held in, which are freed on
    /// return. Returns how many it lent.
    pub fn take_with(
        &mut self,
        key: &[u8],
        window: WindowId,
        sink: ValueSink<'_>,
    ) -> Result<usize> {
        // Land any finished background reads first: a completion parked
        // in the ring's done queue since the last tick can serve this
        // very trigger.
        self.drain_lane();
        let mut lent = 0;
        {
            let _t = self.metrics.timer(OpCategory::Read);
            let from_prefetch = self.load_disk_state(key, window, true)?;
            if let Some(lw) = self.table.consume(key, window) {
                if let (Some(probe), Some(predicted)) = (&self.ett_probe, lw.ett) {
                    let obs = EttObservation {
                        predicted,
                        actual: self.latest_ts,
                    };
                    if from_prefetch {
                        if let Some(p) = &self.prefetch_probe {
                            p.timeliness_ms.record(obs.abs_error() as u64);
                        }
                    }
                    probe.observe(window, obs, from_prefetch);
                }
                self.data.retire(lw.disk_bytes);
                lw.lend(&mut |value| {
                    lent += 1;
                    sink(value);
                })?;
            }
        }
        self.metrics.add_records_read(lent as u64);
        // Compaction (paper §4.2, "Integrated Compaction") doubles as the
        // index-log trimmer: batch reads scan the live region of the
        // index log, so reclaiming dead entries promptly keeps those
        // scans short. One buffer's worth of data is the floor below
        // which rewriting is pointless.
        let floor = self.cfg.write_buffer_bytes as u64;
        if self.data.amplified(self.cfg.max_space_amplification, floor) {
            self.compact()?;
        }
        Ok(lent)
    }

    /// Reads the values of `(key, window)` without consuming them.
    ///
    /// Disk state is loaded through the same predictive-batch-read
    /// machinery as [`AurStore::take`], but the window stays live: its
    /// table entry, disk records, and buffered values all remain, and
    /// the prefetched copy stays in place for the eventual `take`.
    pub fn peek(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        {
            let _t = self.metrics.timer(OpCategory::Read);
            self.load_disk_state(key, window, false)?;
        }
        if let Some(lw) = self.table.get(key, window) {
            out = lw.values()?;
        }
        self.metrics.add_records_read(out.len() as u64);
        Ok(out)
    }

    /// Makes the disk values of `(key, window)`, if it has any, resident
    /// in its `prefetched` slot: a hit (`true`), waiting out a background
    /// read in flight for the window, or a predictive batch read.
    fn load_disk_state(&mut self, key: &[u8], window: WindowId, consuming: bool) -> Result<bool> {
        let on_disk = |s: &Self| {
            let lw = s.table.get(key, window).filter(|lw| lw.disk_records > 0);
            lw.map(|lw| (lw.prefetched.is_some(), lw.ett))
        };
        let Some((mut hit, target_ett)) = on_disk(self) else {
            return Ok(false);
        };
        let inflight = (!hit && !self.lane.is_idle()).then(|| (key.to_vec(), window));
        if let Some(inflight) = inflight.filter(|k| self.lane.covers(k)) {
            // The window fired while its background read was in flight.
            // The pool is already paying for that index walk and extent
            // read: wait for it, as the AAR store and the tier do. The
            // wait is the prefetch-stall share of a sampled batch.
            if let (true, Some(p)) = (consuming, &self.prefetch_probe) {
                p.late.inc();
            }
            let t0 = std::time::Instant::now();
            let read = self.lane.wait_for(&inflight);
            self.land(read, Some((key, window)));
            let stall = t0.elapsed().as_nanos() as i64;
            flowkv_common::trace::instant_here("prefetch_stall", "prefetch", &[("stall", stall)]);
            // A flush that landed under the read fails its install.
            hit = on_disk(self).is_some_and(|(hit, _)| hit);
        }
        if hit {
            self.metrics.add_prefetch_hit();
            if let Some(p) = &self.prefetch_probe {
                p.hits.inc();
            }
        } else {
            self.predictive_batch_read(key, window, target_ett)?;
        }
        Ok(hit)
    }

    /// Holds the prefetch buffer to the lane's byte budget, which both
    /// read paths share: copies with the latest ETT go first, `keep`'s —
    /// the window a read is for — never.
    fn trim_prefetched(&mut self, keep: Option<(&[u8], WindowId)>) {
        let bound = self.lane.budget() as usize;
        for _ in 0..self.table.displace_latest(bound, keep) {
            self.metrics.add_prefetch_eviction();
        }
    }

    /// Flushes the write buffer to the data and index logs.
    pub fn flush(&mut self) -> Result<()> {
        if self.table.buffer_bytes() == 0 {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Write);
        self.next_prefetch_scan = None;
        // Predicted-trigger order: windows that fire together are read
        // together, so they are written side by side — and a run's
        // device-op sequence (and any fault planted in it) replays.
        self.table.flush_each(|key, window, lw| {
            lw.buffered.encode_record_into(&mut self.encode_buf);
            let loc = self.data.append(&self.encode_buf)?;
            let entry = IndexEntry {
                key,
                window,
                max_ts: lw.max_ts,
                offset: loc.offset,
                len: loc.disk_len(),
                count: lw.buffered.count(),
            };
            self.encode_buf.clear();
            entry.encode_to(&mut self.encode_buf);
            let index_loc = self.index.append(&self.encode_buf)?;
            self.metrics
                .add_bytes_written(loc.disk_len() + index_loc.disk_len());
            Ok((loc, index_loc.offset))
        })?;
        self.data.flush()?;
        self.index.flush()?;
        self.metrics.add_flush();
        // The flush extended every resident copy it wrote under.
        self.trim_prefetched(None);
        Ok(())
    }

    /// Copies every live `(key, window)` value list into `out` for the
    /// queryable-state registry (`flowkv_common::registry`).
    ///
    /// The batch read with every window on disk as a pick, run through
    /// the lane and installed nowhere: the table is left as it was. Each
    /// window's disk values come first, then its buffered ones — the
    /// same old-then-new order a `take` serves. Prefetched copies are a
    /// pure cache of disk state and need no special handling.
    pub fn collect_view(
        &mut self,
        out: &mut BTreeMap<(Vec<u8>, WindowId), ViewValue>,
    ) -> Result<()> {
        let mut values = Vec::new();
        let picks = self.table.on_disk();
        let paths = (self.index.flushed_path()?, self.data.flushed_path()?);
        if let (false, (Some(index_path), Some(data_path))) = (picks.is_empty(), paths) {
            let limit = self.index.total();
            let start = self.table.scan_start().unwrap_or(limit);
            let (reads, _) = self
                .lane
                .read_through(move |vfs| {
                    let data = || RandomAccessLog::open_in(vfs, &data_path);
                    read_windows(vfs, &index_path, start, limit, data, picks)
                })
                .map_err(|e| StoreError::io_at("aur view read", self.index.path(), e))?;
            for read in reads {
                read.values.decode_into(&mut values)?;
                for value in values.drain(..) {
                    push_view_value(out, read.pick.key.clone(), read.pick.window, value)?;
                }
            }
        }
        for (key, window, lw) in self.table.iter() {
            lw.buffered.decode_into(&mut values)?;
            for value in values.drain(..) {
                push_view_value(out, key.to_vec(), window, value)?;
            }
        }
        Ok(())
    }

    /// Approximate bytes of state held in memory.
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    /// Total bytes in the data log (live + dead), for tests and benches.
    pub fn data_log_bytes(&self) -> u64 {
        self.data.total()
    }

    /// Dead bytes awaiting compaction, for tests and benches.
    pub fn dead_bytes(&self) -> u64 {
        self.data.dead()
    }

    /// Number of windows currently holding a prefetched copy.
    pub fn prefetched_windows(&self) -> usize {
        self.table.prefetched_windows()
    }

    /// The current log generation (bumped by each compaction).
    pub fn generation(&self) -> u64 {
        self.index.generation()
    }

    /// Writes a self-contained snapshot into `dst`.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        // Not the MSA's call: each window's `first_offset` lives in
        // memory only and a restore rebuilds liveness from the index log
        // alone, so a copy holding dead records would resurrect them. A
        // checkpoint that is a manifest over the live files (ROADMAP
        // item 2) has to persist those offsets before this rewrite can
        // go.
        if self.data.dead() > 0 {
            self.compact()?;
        }
        self.data.checkpoint_to(dst, "data.aurd")?;
        self.index.checkpoint_to(dst, "index.auri")
    }

    /// Replaces the store contents with the snapshot in `src`.
    pub fn restore(&mut self, src: &Path) -> Result<()> {
        self.close()?;
        self.data.restore_from(src, "data.aurd")?;
        self.index.restore_from(src, "index.auri")?;
        self.rebuild_from_index()
    }

    /// Deletes every file of the store and clears its memory.
    pub fn close(&mut self) -> Result<()> {
        // Wait out background reads before yanking the files from under
        // them, and invalidate any completion drained later.
        self.lane
            .abandon(|batch| batch.windows.iter().map(|w| w.bytes).sum());
        self.epoch += 1;
        self.next_prefetch_scan = None;
        self.table = LiveTable::default();
        self.data.destroy();
        self.index.destroy();
        Ok(())
    }

    /// The predictive batch read (paper §4.2): one index-log scan loads
    /// the target window plus the `N` windows closest to triggering into
    /// their `prefetched` slots.
    fn predictive_batch_read(
        &mut self,
        key: &[u8],
        window: WindowId,
        target_ett: Option<Timestamp>,
    ) -> Result<()> {
        self.metrics.add_prefetch_miss();
        let Some(index_path) = self.index.flushed_path()? else {
            return Ok(());
        };

        // Select the N soonest-triggering windows beyond the target,
        // plus every window already due at the target's trigger time.
        let n = (self.cfg.read_batch_ratio * self.table.len() as f64).ceil() as usize;
        // Everything due by the store's view of stream time will be read
        // imminently; load it in this same sequential scan. A read batch
        // ratio of zero disables prefetching entirely (paper §6.4).
        let due_ett = (self.cfg.read_batch_ratio > 0.0)
            .then(|| target_ett.unwrap_or(Timestamp::MIN).max(self.latest_ts));
        // Windows already prefetched are skipped — their data is
        // resident. Windows with an in-flight background read are NOT
        // skipped: this scan is already paying the sequential pass, and
        // deferring to a ring read that may land after the trigger (or
        // be invalidated by a flush or compaction) trades a certain hit
        // for a maybe — the slower completion is simply discarded as
        // wasted at drain time.
        let (mut picks, _, start) = self.table.select_soonest(n, due_ett, |k, w, lw| {
            lw.prefetched.is_some() || (k == key && w == window)
        });
        if let Some(target) = self.table.get(key, window) {
            picks.push(Pick::of(key, window, target));
        }

        // On the worker thread, over the store's cached data-log reader.
        let limit = self.index.total();
        let start = start.unwrap_or(limit);
        let data = &mut self.data;
        let (windows, scanned) = read_windows(
            &self.vfs,
            &index_path,
            start,
            limit,
            || data.reader(),
            picks,
        )?;
        self.metrics.add_bytes_read(scanned);
        if let Some(w) = windows
            .iter()
            .find(|w| w.found_records != w.pick.disk_records)
        {
            let detail = format!(
                "{} of {} records indexed",
                w.found_records, w.pick.disk_records
            );
            return Err(StoreError::corruption(index_path, start, detail));
        }
        self.install(BatchRead {
            generation: self.index.generation(),
            epoch: self.epoch,
            windows,
        });
        self.trim_prefetched(Some((key, window)));
        Ok(())
    }

    /// Drives the background prefetcher (called by the engine at batch
    /// and watermark boundaries): drains finished ring reads into the
    /// windows' `prefetched` slots, then schedules reads for every
    /// window whose ETT-predicted trigger falls within the horizon of
    /// `stream_time`.
    pub fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        self.drain_lane();
        self.submit_prefetch(stream_time)
    }

    /// Validates and installs every finished background read. A failed
    /// one is not a store failure: its windows are simply served by the
    /// synchronous path instead — reads racing a compaction or restore
    /// routinely lose their files mid-scan.
    fn drain_lane(&mut self) {
        let done = self.lane.drain();
        self.land(done, None);
    }

    /// Installs finished background reads, `keep` being the window the
    /// caller is about to serve.
    fn land(
        &mut self,
        done: impl IntoIterator<Item = std::io::Result<BatchRead>>,
        keep: Option<(&[u8], WindowId)>,
    ) {
        for read in done {
            self.next_prefetch_scan = None;
            if let Ok(batch) = read {
                let (installed, wasted) = self.install(batch);
                self.lane.installed(installed);
                self.lane.waste(wasted);
            }
        }
        self.trim_prefetched(keep);
    }

    /// Installs a batch read's windows as prefetched copies, discarding
    /// any whose state moved underneath the read; returns how many it
    /// installed and the bytes it discarded. The checks mirror what can
    /// change between a ring read's submit and its drain: a compaction
    /// or restore (generation/epoch), a consume (table entry gone, or a
    /// later incarnation with another `first_offset`), or a flush adding
    /// records (disk_records advanced).
    fn install(&mut self, batch: BatchRead) -> (i64, u64) {
        let stale = batch.generation != self.index.generation() || batch.epoch != self.epoch;
        let (mut installed, mut wasted) = (0i64, 0u64);
        for w in batch.windows {
            let current = self
                .table
                .get(&w.pick.key, w.pick.window)
                .filter(|_| !stale);
            match current {
                Some(lw)
                    if lw.first_offset == w.pick.first_offset
                        && lw.disk_records == w.pick.disk_records
                        && w.found_records == w.pick.disk_records
                        && lw.prefetched.is_none() =>
                {
                    self.metrics.add_bytes_read(w.bytes);
                    self.table.install(&w.pick.key, w.pick.window, &w.values);
                    installed += 1;
                }
                // Grown, already resident, or consumed under the read —
                // as a hit a synchronous batch made, so nothing was late:
                // a trigger that beats its read waits for it.
                _ => wasted += w.bytes,
            }
        }
        (installed, wasted)
    }

    /// Submits one background read covering every window due within the
    /// prefetch horizon, bounded by the byte budget: the batch read a
    /// miss runs, on the lane, against a consistent snapshot (scan start,
    /// each selected window's `first_offset`, index length). The job
    /// never mutates store state — all bookkeeping commits at drain time
    /// on the worker thread.
    fn submit_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        let lane = &mut self.lane;
        // Nothing to plan for a lane that admits no read at all.
        if self.cfg.read_batch_ratio <= 0.0 || self.table.len() == 0 || !lane.admits(0, 0) {
            return Ok(());
        }
        // One scan in flight per store: each job walks the index, so
        // stacking a fresh submission on every tick while earlier ones
        // are still running multiplies that walk instead of advancing
        // it. The next tick after the drain tops up coverage.
        if !lane.is_idle() {
            return Ok(());
        }
        let due = lane.due(stream_time.max(self.latest_ts));
        if self.next_prefetch_scan.is_some_and(|at| due < at) {
            return Ok(());
        }
        // Buffered values do not disqualify a window: the read covers its
        // disk records, and a flush landing under it fails the install
        // check and is counted as waste.
        let (mut picks, next_due, start) = self
            .table
            .select_soonest(0, Some(due), |_, _, lw| lw.prefetched.is_some());
        self.next_prefetch_scan = Some(next_due);
        let resident = self.table.prefetch_bytes() as u64;
        let mut est_bytes = 0u64;
        let mut admitted = 0;
        for pick in &picks {
            if !lane.admits(resident + est_bytes, pick.disk_bytes) {
                // The rest become admissible as triggers drain the
                // prefetched copies, which no event announces.
                self.next_prefetch_scan = None;
                break;
            }
            est_bytes += pick.disk_bytes;
            admitted += 1;
        }
        picks.truncate(admitted);
        if picks.is_empty() {
            return Ok(());
        }
        // Push buffered log bytes to the files and bound the scan at the
        // current end of the index log, so the background read never
        // races a concurrent foreground flush into a torn tail.
        let Some(index_path) = self.index.flushed_path()? else {
            return Ok(());
        };
        self.data.flush()?;
        let limit = self.index.total();
        let start = start.unwrap_or(limit);
        let data_path = self.data.path();
        let generation = self.index.generation();
        let epoch = self.epoch;
        let keys: Vec<StateKey> = picks.iter().map(|p| (p.key.clone(), p.window)).collect();
        lane.submit(keys, est_bytes, move |vfs| {
            let data = || RandomAccessLog::open_in(vfs, &data_path);
            let (windows, _) = read_windows(vfs, &index_path, start, limit, data, picks)?;
            Ok(BatchRead {
                generation,
                epoch,
                windows,
            })
        });
        Ok(())
    }

    /// Rewrites the data log keeping only live records (byte-range
    /// relocation without decoding, paper §5), and the index log to
    /// match.
    fn compact(&mut self) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Compaction);
        // Every entry from the scan start on, in log order, re-encoded
        // back to back in one allocation by a job on the lane — which
        // can't touch the table, so the worker applies liveness.
        let mut scanned = Vec::new();
        if let (Some(path), Some(start)) = (self.index.flushed_path()?, self.table.scan_start()) {
            let (job_path, limit) = (path.clone(), self.index.total());
            scanned = self
                .lane
                .read_through(move |vfs| {
                    let mut scanned = Vec::new();
                    walk_index(vfs, &job_path, start, limit, |entry| {
                        entry.encode_to(&mut scanned)
                    })?;
                    Ok(scanned)
                })
                .map_err(|e| StoreError::io_at("aur compact scan", &path, e))?;
        }
        let mut live = Vec::new();
        let mut dec = Decoder::new(&scanned);
        while !dec.is_empty() {
            let entry = IndexEntry::decode_from(&mut dec)?;
            if self.table.classify(entry.key, entry.window, entry.offset) {
                live.push(entry);
            }
        }
        let locations: Vec<(u64, u64)> = live.iter().map(|e| (e.offset, e.len)).collect();
        let data = self.data.relocate(&locations, |i, offset| {
            live[i].offset = offset;
            Ok(())
        })?;
        let payloads = live.iter().map(|entry| {
            let mut payload = Vec::new();
            entry.encode_to(&mut payload);
            payload
        });
        let mut entry_offsets = Vec::with_capacity(live.len());
        let index = self.index.replace(payloads, |at| entry_offsets.push(at))?;
        // Data before index: reopening takes the index's generation for
        // both, so a fault between the two renames finds the old pair.
        GenLog::commit([(&mut self.data, data), (&mut self.index, index)])?;
        let moved = self.data.total();
        self.metrics.add_bytes_read(moved);
        self.metrics.add_bytes_written(moved);
        self.metrics.add_compaction();
        // The rewrite dropped every dead record.
        let entries = live.iter().zip(entry_offsets);
        self.table
            .compacted(entries.map(|(e, at)| (e.key, e.window, at)));
        Ok(())
    }

    /// Rebuilds the table and byte accounting from the index log.
    ///
    /// The two logs spill their buffers independently, so a crash
    /// mid-flush may leave data records the index never came to list
    /// (its torn tail is truncated at open) — dead weight for the next
    /// compaction — or index entries whose data records never reached
    /// the file: the index ends at the first of those, before new
    /// appends put other records where they point.
    fn rebuild_from_index(&mut self) -> Result<()> {
        self.table = LiveTable::default();
        self.next_prefetch_scan = None;
        let mut indexed = 0u64;
        let data_len = self.data.total();
        let mut dangling = None;
        self.index.scan(|loc, payload| {
            let entry = IndexEntry::decode(payload)?;
            if dangling.is_some() || entry.offset.saturating_add(entry.len) > data_len {
                dangling.get_or_insert(loc.offset);
                return Ok(());
            }
            self.latest_ts = self.latest_ts.max(entry.max_ts);
            self.table.rebuild_entry(
                entry.key,
                entry.window,
                entry.max_ts,
                entry.len,
                loc.offset,
                &self.predictor,
            );
            indexed += entry.len;
            Ok(())
        })?;
        if let Some(at) = dangling {
            self.index.truncate(at)?;
        }
        self.data.retire(data_len.saturating_sub(indexed));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;

    fn cfg_small() -> AurConfig {
        AurConfig {
            write_buffer_bytes: 1 << 10,
            read_batch_ratio: 0.5,
            max_space_amplification: 1.5,
        }
    }

    fn session_store(dir: &Path, cfg: AurConfig) -> AurStore {
        AurStore::open(
            dir,
            cfg,
            EttPredictor::SessionGap { gap: 100 },
            StoreMetrics::new_shared(),
        )
        .unwrap()
    }

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    /// Whether the window holds a prefetched copy of its disk values.
    fn prefetched(s: &AurStore, key: &[u8], window: WindowId) -> bool {
        s.table
            .get(key, window)
            .is_some_and(|lw| lw.prefetched.is_some())
    }

    #[test]
    fn memory_only_take() {
        let dir = ScratchDir::new("aur-mem").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        s.append(b"k", w(0, 100), b"v1", 10).unwrap();
        s.append(b"k", w(0, 100), b"v2", 20).unwrap();
        assert_eq!(
            s.take(b"k", w(0, 100)).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
        assert!(s.take(b"k", w(0, 100)).unwrap().is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let dir = ScratchDir::new("aur-peek").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        s.append(b"k", w(0, 100), b"v1", 10).unwrap();
        s.flush().unwrap();
        s.append(b"k", w(0, 100), b"v2", 20).unwrap();
        // Repeated peeks see the same complete state.
        for _ in 0..3 {
            assert_eq!(
                s.peek(b"k", w(0, 100)).unwrap(),
                vec![b"v1".to_vec(), b"v2".to_vec()]
            );
        }
        // The eventual take still consumes everything exactly once.
        assert_eq!(
            s.take(b"k", w(0, 100)).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
        assert!(s.take(b"k", w(0, 100)).unwrap().is_empty());
    }

    #[test]
    fn disk_and_memory_combine_in_append_order() {
        let dir = ScratchDir::new("aur-combine").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        s.append(b"k", w(0, 100), b"old", 10).unwrap();
        s.flush().unwrap();
        s.append(b"k", w(0, 100), b"new", 20).unwrap();
        assert_eq!(
            s.take(b"k", w(0, 100)).unwrap(),
            vec![b"old".to_vec(), b"new".to_vec()]
        );
    }

    #[test]
    fn batch_read_prefetches_soonest_windows() {
        let dir = ScratchDir::new("aur-pbr").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        // Ten keys with staggered timestamps, all flushed to disk.
        for i in 0..10i64 {
            let key = format!("key-{i}");
            s.append(key.as_bytes(), w(0, 1000), b"v", 10 * i).unwrap();
        }
        s.flush().unwrap();
        // Reading key-0 must prefetch the other soonest windows too.
        let got = s.take(b"key-0", w(0, 1000)).unwrap();
        assert_eq!(got, vec![b"v".to_vec()]);
        assert!(
            s.prefetched_windows() >= 4,
            "prefetched {} windows",
            s.prefetched_windows()
        );
        let m = s.metrics.snapshot();
        assert_eq!(m.prefetch_misses, 1);
        // The prefetched windows now hit without further misses.
        let got = s.take(b"key-1", w(0, 1000)).unwrap();
        assert_eq!(got, vec![b"v".to_vec()]);
        let m = s.metrics.snapshot();
        assert_eq!(m.prefetch_hits, 1);
        assert_eq!(m.prefetch_misses, 1);
    }

    #[test]
    fn a_wrong_ett_keeps_the_prefetched_copy() {
        let dir = ScratchDir::new("aur-evict").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        for key in [b"a" as &[u8], b"b"] {
            s.append(key, w(0, 1000), b"v1", 10).unwrap();
        }
        s.flush().unwrap();
        // Prefetch both windows by reading `a`.
        s.take(b"a", w(0, 1000)).unwrap();
        assert!(prefetched(&s, b"b", w(0, 1000)));
        // A late tuple for `b` moves its estimate, not its disk records:
        // the copy of those stays.
        s.append(b"b", w(0, 1000), b"v2", 50).unwrap();
        assert!(prefetched(&s, b"b", w(0, 1000)));
        assert_eq!(s.table.get(b"b", w(0, 1000)).unwrap().ett, Some(150));
        // The read serves the copy, then the buffer, without a second miss.
        assert_eq!(
            s.take(b"b", w(0, 1000)).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
        let m = s.metrics.snapshot();
        assert_eq!(
            (m.prefetch_misses, m.prefetch_hits, m.prefetch_evictions),
            (1, 1, 0)
        );
    }

    #[test]
    fn flush_into_prefetched_window_stays_complete() {
        let dir = ScratchDir::new("aur-flushpref").unwrap();
        let mut cfg = cfg_small();
        cfg.read_batch_ratio = 0.1;
        let mut s = session_store(dir.path(), cfg);
        s.append(b"a", w(0, 1000), b"v", 10).unwrap();
        s.append(b"b", w(0, 1000), b"b1", 10).unwrap();
        s.append(b"c", w(0, 1000), b"c1", 500).unwrap();
        s.flush().unwrap();
        // Reading `a` brings the due `b` along and leaves `c`, due later.
        s.take(b"a", w(0, 1000)).unwrap();
        assert!(prefetched(&s, b"b", w(0, 1000)));
        assert!(!prefetched(&s, b"c", w(0, 1000)));
        // A flush under `b`'s resident copy extends it; under `c`, which
        // has none, it only adds a disk record. Either way the read
        // serves first flush, then second.
        s.append(b"b", w(0, 1000), b"b2", 20).unwrap();
        s.append(b"c", w(0, 1000), b"c2", 510).unwrap();
        s.flush().unwrap();
        assert_eq!(
            s.take(b"b", w(0, 1000)).unwrap(),
            vec![b"b1".to_vec(), b"b2".to_vec()]
        );
        assert_eq!(s.metrics.snapshot().prefetch_misses, 1, "`b` was a hit");
        assert_eq!(
            s.take(b"c", w(0, 1000)).unwrap(),
            vec![b"c1".to_vec(), b"c2".to_vec()]
        );
        assert_eq!(s.metrics.snapshot().prefetch_misses, 2);
    }

    #[test]
    fn compaction_reclaims_dead_bytes() {
        let dir = ScratchDir::new("aur-compact").unwrap();
        let mut cfg = cfg_small();
        cfg.read_batch_ratio = 0.0;
        let mut s = session_store(dir.path(), cfg);
        // Write and consume many windows so dead bytes accumulate.
        for round in 0..50i64 {
            for key in 0..5 {
                let k = format!("k{key}");
                s.append(
                    k.as_bytes(),
                    w(round * 10, round * 10 + 10),
                    &[7u8; 64],
                    round,
                )
                .unwrap();
            }
            s.flush().unwrap();
            for key in 0..5 {
                let k = format!("k{key}");
                let vals = s
                    .take(k.as_bytes(), w(round * 10, round * 10 + 10))
                    .unwrap();
                assert_eq!(vals.len(), 1);
            }
        }
        let m = s.metrics.snapshot();
        assert!(m.compactions > 0, "no compaction ran");
        assert!(s.generation() > 0);
        // Dead space is bounded by the MSA after compactions.
        if s.data_log_bytes() >= s.cfg.write_buffer_bytes as u64 {
            let live = s.data_log_bytes() - s.dead_bytes();
            let amp = s.data_log_bytes() as f64 / live.max(1) as f64;
            assert!(amp <= 2.0, "amplification {amp}");
        }
    }

    #[test]
    fn compaction_preserves_unread_windows() {
        let dir = ScratchDir::new("aur-compact-live").unwrap();
        let mut cfg = cfg_small();
        cfg.read_batch_ratio = 0.0;
        cfg.write_buffer_bytes = 256;
        let mut s = session_store(dir.path(), cfg);
        // `keeper` stays live across many consume cycles.
        s.append(b"keeper", w(0, 10_000), b"precious", 1).unwrap();
        s.flush().unwrap();
        for round in 0..100i64 {
            s.append(b"churn", w(round, round + 1), &[0u8; 64], round)
                .unwrap();
            s.flush().unwrap();
            s.take(b"churn", w(round, round + 1)).unwrap();
        }
        assert!(s.metrics.snapshot().compactions > 0);
        assert_eq!(
            s.take(b"keeper", w(0, 10_000)).unwrap(),
            vec![b"precious".to_vec()]
        );
    }

    #[test]
    fn ratio_zero_disables_prefetching() {
        let dir = ScratchDir::new("aur-ratio0").unwrap();
        let mut cfg = cfg_small();
        cfg.read_batch_ratio = 0.0;
        let mut s = session_store(dir.path(), cfg);
        for i in 0..5i64 {
            s.append(format!("k{i}").as_bytes(), w(0, 1000), b"v", i)
                .unwrap();
        }
        s.flush().unwrap();
        for i in 0..5i64 {
            s.take(format!("k{i}").as_bytes(), w(0, 1000)).unwrap();
        }
        let m = s.metrics.snapshot();
        assert_eq!(m.prefetch_hits, 0);
        assert_eq!(m.prefetch_misses, 5);
    }

    /// The paper's Equation 1: with hit ratio `r`, each tuple is read
    /// `1/r` times on average — the price of evicting a prefetched copy
    /// when a tuple arrives for its window, which this store does not pay.
    #[test]
    fn read_amplification_follows_equation_one() {
        // (a) Mechanism: an append leaves the copy, so nothing is re-read.
        let dir = ScratchDir::new("aur-eq1").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        for key in [b"a" as &[u8], b"b"] {
            s.append(key, w(0, 1000), b"v1", 10).unwrap();
        }
        s.flush().unwrap();
        // Reading `a` prefetches `b`; appending to `b` changes no disk
        // record; the later read of `b` is a hit (r = 1: read once).
        s.take(b"a", w(0, 1000)).unwrap();
        s.append(b"b", w(0, 1000), b"v2", 50).unwrap();
        assert_eq!(s.take(b"b", w(0, 1000)).unwrap().len(), 2);
        let m = s.metrics.snapshot();
        assert_eq!(m.prefetch_evictions, 0);
        assert_eq!(m.prefetch_misses, 1, "an append must not force a re-read");

        // (b) The formula itself: mean retries of a geometric process
        // with success probability r is 1/r (sum n·r(1−r)^(n−1) = 1/r).
        for r in [0.5f64, 0.9, 0.93, 0.99] {
            let analytic: f64 = (1..1_000)
                .map(|n| n as f64 * r * (1.0 - r).powi(n - 1))
                .sum();
            assert!(
                (analytic - 1.0 / r).abs() < 1e-6,
                "Eq. 1 mismatch at r = {r}: {analytic} vs {}",
                1.0 / r
            );
        }
    }

    #[test]
    fn view_sees_live_state_and_skips_consumed_windows() {
        let dir = ScratchDir::new("aur-view").unwrap();
        let mut cfg = cfg_small();
        cfg.read_batch_ratio = 0.0;
        let mut s = session_store(dir.path(), cfg);
        s.append(b"live", w(0, 100), b"d1", 10).unwrap();
        s.append(b"gone", w(0, 100), b"x", 10).unwrap();
        s.flush().unwrap();
        s.append(b"live", w(0, 100), b"d2", 20).unwrap();
        s.flush().unwrap();
        s.append(b"live", w(0, 100), b"mem", 30).unwrap();
        // Consume one window so its index entries become a dead prefix.
        s.take(b"gone", w(0, 100)).unwrap();

        let mut view = BTreeMap::new();
        s.collect_view(&mut view).unwrap();
        assert_eq!(view.len(), 1);
        assert_eq!(
            view.get(&(b"live".to_vec(), w(0, 100))),
            Some(&ViewValue::Values(vec![
                b"d1".to_vec(),
                b"d2".to_vec(),
                b"mem".to_vec()
            ]))
        );

        // Building the view consumed nothing and broke no invariants.
        assert_eq!(
            s.take(b"live", w(0, 100)).unwrap(),
            vec![b"d1".to_vec(), b"d2".to_vec(), b"mem".to_vec()]
        );
        assert!(s.take(b"live", w(0, 100)).unwrap().is_empty());
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let dir = ScratchDir::new("aur-ckpt").unwrap();
        let ckpt = ScratchDir::new("aur-ckpt-dst").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        s.append(b"k", w(0, 100), b"v1", 10).unwrap();
        s.append(b"dead", w(0, 100), b"x", 10).unwrap();
        s.flush().unwrap();
        s.take(b"dead", w(0, 100)).unwrap();
        s.checkpoint(ckpt.path()).unwrap();
        s.append(b"k", w(0, 100), b"lost", 20).unwrap();
        s.restore(ckpt.path()).unwrap();
        assert_eq!(s.take(b"k", w(0, 100)).unwrap(), vec![b"v1".to_vec()]);
        assert!(s.take(b"dead", w(0, 100)).unwrap().is_empty());
    }

    #[test]
    fn telemetry_emits_predicted_vs_actual_events() {
        let dir = ScratchDir::new("aur-telemetry").unwrap();
        let telemetry = Telemetry::new_shared();
        let mut s = session_store(dir.path(), cfg_small())
            .with_telemetry(Arc::clone(&telemetry), "median/p0");
        // Session gap 100: appending at ts 10 predicts ETT 110. Stream
        // time then advances to 150 before the take, so actual = 150.
        s.append(b"k", w(0, 1000), b"v", 10).unwrap();
        s.append(b"other", w(0, 1000), b"v", 150).unwrap();
        s.take(b"k", w(0, 1000)).unwrap();

        let events = telemetry.recorder().drain();
        assert_eq!(events.len(), 1);
        let event = &events[0];
        assert_eq!(event.kind, "ett");
        assert_eq!(event.tag, "median/p0");
        let field = |name: &str| {
            event
                .fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(field("predicted"), 110);
        assert_eq!(field("actual"), 150);
        assert_eq!(field("error"), 40);

        let samples = telemetry.registry().snapshot();
        let observations = samples
            .iter()
            .find(|s| s.name == "store_ett_observations_total{store=median/p0}")
            .unwrap();
        assert_eq!(
            observations.value,
            flowkv_common::telemetry::SampleValue::Counter(1)
        );
    }

    #[test]
    fn reopen_recovers_stat_table() {
        let dir = ScratchDir::new("aur-reopen").unwrap();
        {
            let mut s = session_store(dir.path(), cfg_small());
            s.append(b"k", w(0, 100), b"v", 42).unwrap();
            s.flush().unwrap();
            s.data.sync().unwrap();
            s.index.sync().unwrap();
        }
        let mut s = session_store(dir.path(), cfg_small());
        // ETT rebuilt from the persisted max_ts: 42 + gap 100.
        assert_eq!(s.table.get(b"k", w(0, 100)).unwrap().ett, Some(142));
        assert_eq!(s.take(b"k", w(0, 100)).unwrap(), vec![b"v".to_vec()]);
    }

    fn ring_store(dir: &Path) -> (AurStore, Arc<IoRing>) {
        let s = session_store(dir, cfg_small());
        let ring = Arc::new(IoRing::new(2, None, None));
        let s = s.with_ring(ring.clone());
        (s, ring)
    }

    #[test]
    fn async_prefetch_serves_takes_from_buffer() {
        let dir = ScratchDir::new("aur-ring-hit").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        s.append(b"a", w(0, 100), b"v1", 10).unwrap();
        s.append(b"b", w(0, 100), b"v2", 20).unwrap();
        s.flush().unwrap();
        // Both predicted triggers (last ts + gap 100) fall within the
        // default 500 ms horizon of stream time 50: one submission
        // covers both windows.
        s.advance_prefetch(50).unwrap();
        assert!(!s.lane.is_idle());
        ring.wait_idle();
        s.advance_prefetch(50).unwrap();
        assert_eq!(s.prefetched_windows(), 2);
        assert_eq!(s.take(b"a", w(0, 100)).unwrap(), vec![b"v1".to_vec()]);
        assert_eq!(s.take(b"b", w(0, 100)).unwrap(), vec![b"v2".to_vec()]);
    }

    /// One index-log shape every scan must read the same way.
    struct WalkCase {
        name: &'static str,
        /// Lays the shape down on a fresh store; every window is `W`.
        build: fn(&mut AurStore),
        /// What every read path must serve, per key in key order.
        live: &'static [(&'static [u8], &'static [&'static [u8]])],
        /// Entries the walker reports dead ahead of the first live one.
        dead_run: usize,
        /// Whether garbage sits past the index writer's offset, where
        /// only a walk bounded by that offset may go.
        torn_tail: bool,
    }

    const W: WindowId = WindowId { start: 0, end: 100 };

    fn append_flushed(s: &mut AurStore, rows: &[(&[u8], &[u8], Timestamp)]) {
        for &(key, value, ts) in rows {
            s.append(key, W, value, ts).unwrap();
        }
        s.flush().unwrap();
    }

    const WALK_CASES: &[WalkCase] = &[
        WalkCase {
            name: "fresh log",
            build: |s| append_flushed(s, &[(b"a", b"a1", 10), (b"b", b"b1", 20)]),
            live: &[(b"a", &[b"a1"]), (b"b", &[b"b1"])],
            dead_run: 0,
            torn_tail: false,
        },
        WalkCase {
            // Log: b, a (consumed), a again — the dead entry sits behind
            // a live one, so the scan start cannot move past it.
            name: "consumed window re-appended",
            build: |s| {
                append_flushed(s, &[(b"b", b"b1", 10), (b"a", b"a1", 20)]);
                assert_eq!(s.take(b"a", W).unwrap(), vec![b"a1".to_vec()]);
                append_flushed(s, &[(b"a", b"a2", 30)]);
            },
            live: &[(b"a", &[b"a2"]), (b"b", &[b"b1"])],
            dead_run: 0,
            torn_tail: false,
        },
        WalkCase {
            // Log: a (consumed), b (consumed), c, b again.
            name: "dead run at the head",
            build: |s| {
                append_flushed(
                    s,
                    &[(b"a", b"a1", 10), (b"b", b"b1", 20), (b"c", b"c1", 30)],
                );
                assert_eq!(s.take(b"a", W).unwrap(), vec![b"a1".to_vec()]);
                assert_eq!(s.take(b"b", W).unwrap(), vec![b"b1".to_vec()]);
                append_flushed(s, &[(b"b", b"b2", 40)]);
            },
            live: &[(b"b", &[b"b2"]), (b"c", &[b"c1"])],
            dead_run: 2,
            torn_tail: false,
        },
        WalkCase {
            name: "byte limit before a torn tail",
            build: |s| {
                append_flushed(s, &[(b"a", b"a1", 10), (b"b", b"b1", 20)]);
                // Half a record header past the writer's offset: what a
                // scan racing a foreground flush could see.
                use std::io::Write as _;
                let index = s.index.path();
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(index)
                    .unwrap();
                file.write_all(&[0xAB; 5]).unwrap();
            },
            live: &[(b"a", &[b"a1"]), (b"b", &[b"b1"])],
            dead_run: 0,
            torn_tail: true,
        },
    ];

    /// A store holding `case`'s log shape, on a lane of `width` threads.
    fn walk_case_store(
        case: &WalkCase,
        width: usize,
    ) -> (ScratchDir, AurStore, Option<Arc<IoRing>>) {
        let dir = ScratchDir::new("aur-walk").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        (case.build)(&mut s);
        let ring = (width > 0).then(|| Arc::new(IoRing::new(width, None, None)));
        if let Some(ring) = &ring {
            s = s.with_ring(Arc::clone(ring));
        }
        (dir, s, ring)
    }

    fn owned(live: &[(&[u8], &[&[u8]])]) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        live.iter()
            .map(|(k, vs)| (k.to_vec(), vs.iter().map(|v| v.to_vec()).collect()))
            .collect()
    }

    fn take_all(s: &mut AurStore, case: &WalkCase) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        case.live
            .iter()
            .map(|(k, _)| (k.to_vec(), s.take(k, W).unwrap()))
            .collect()
    }

    /// The four scans — synchronous batch read, ring job, serving view,
    /// compaction — are calls of one walker, so each index-log shape is
    /// checked once against the walker itself and once through every
    /// scan, at lane width 0 and 2.
    #[test]
    fn every_scan_reads_each_index_shape_through_the_one_walker() {
        for case in WALK_CASES {
            let name = case.name;
            let expected = owned(case.live);

            // The walker itself: from the head of the log it passes the
            // dead run, from the table's scan start no dead entry comes
            // before the first live one — the start *is* that entry.
            let (_dir, s, _) = walk_case_store(case, 0);
            let index = s.index.path();
            let limit = s.index.total();
            let walk = |start: u64, limit: u64| {
                let mut visited: Vec<Vec<u8>> = Vec::new();
                let mut dead_run = 0;
                let visit = |entry: IndexEntry<'_>| {
                    if !s.table.classify(entry.key, entry.window, entry.offset) {
                        dead_run += usize::from(visited.is_empty());
                        return;
                    }
                    visited.push(entry.key.to_vec());
                };
                walk_index(&s.vfs, &index, start, limit, visit)
                    .map(|scanned| (scanned, visited, dead_run))
            };
            let (scanned, mut visited, dead_run) = walk(0, limit).unwrap();
            visited.sort();
            let keys: Vec<Vec<u8>> = expected.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(visited, keys, "{name}: live entries");
            assert_eq!(dead_run, case.dead_run, "{name}: dead run");
            assert_eq!(scanned, limit, "{name}: the walk stops at the limit");
            let start = s.table.scan_start().unwrap();
            let (_, mut from_start, dead_run) = walk(start, limit).unwrap();
            from_start.sort();
            assert_eq!((dead_run, from_start), (0, keys), "{name}: scan start");
            match walk(start, u64::MAX) {
                Err(e) => assert!(case.torn_tail && e.is_corruption(), "{name}: {e}"),
                Ok(_) => assert!(!case.torn_tail, "{name}: walked into the torn tail"),
            }

            // The ring job stops at the index writer's offset, torn tail
            // or not, and installs exactly the live windows.
            let (_dir, mut s, ring) = walk_case_store(case, 2);
            s.advance_prefetch(50).unwrap();
            ring.unwrap().wait_idle();
            s.advance_prefetch(50).unwrap();
            assert_eq!(s.prefetched_windows(), expected.len(), "{name}: job");
            let misses = s.metrics.snapshot().prefetch_misses;
            assert_eq!(take_all(&mut s, case), expected, "{name}: job");
            assert_eq!(s.metrics.snapshot().prefetch_misses, misses, "{name}: job");
            if case.torn_tail {
                continue;
            }

            for width in [0, 2] {
                // The synchronous batch read.
                let (_dir, mut s, _ring) = walk_case_store(case, width);
                assert_eq!(take_all(&mut s, case), expected, "{name}: sync/{width}");
                assert_eq!(s.table.scan_start(), None, "{name}: sync/{width}");

                // The serving view, which commits nothing.
                let (_dir, mut s, _ring) = walk_case_store(case, width);
                let first_offsets = |s: &AurStore| -> Vec<(Vec<u8>, u64)> {
                    let offsets = s
                        .table
                        .iter()
                        .map(|(k, _, lw)| (k.to_vec(), lw.first_offset));
                    let mut offsets: Vec<_> = offsets.collect();
                    offsets.sort();
                    offsets
                };
                let offsets_before = (first_offsets(&s), s.table.scan_start());
                let mut view = BTreeMap::new();
                s.collect_view(&mut view).unwrap();
                let view: Vec<_> = view
                    .into_iter()
                    .map(|((key, _), value)| match value {
                        ViewValue::Values(values) => (key, values),
                        other => panic!("{name}: unexpected view value {other:?}"),
                    })
                    .collect();
                assert_eq!(view, expected, "{name}: view/{width}");
                assert_eq!(
                    (first_offsets(&s), s.table.scan_start()),
                    offsets_before,
                    "{name}: view/{width} moved a window's first live offset"
                );

                // Compaction, after which every survivor is still served.
                let (_dir, mut s, _ring) = walk_case_store(case, width);
                let generation = s.generation();
                s.compact().unwrap();
                assert_eq!(s.generation(), generation + 1, "{name}: compact/{width}");
                assert_eq!(s.dead_bytes(), 0, "{name}: compact/{width}");
                assert_eq!(take_all(&mut s, case), expected, "{name}: compact/{width}");
            }
        }
    }

    /// Offsets of the index log's entries, in log order.
    fn index_entry_offsets(s: &mut AurStore) -> Vec<u64> {
        let mut offsets = Vec::new();
        let each = |loc: flowkv_common::logfile::RecordLocation, _: &[u8]| {
            offsets.push(loc.offset);
            Ok(())
        };
        s.index.scan(each).unwrap();
        offsets
    }

    #[test]
    fn a_reappended_window_serves_only_its_new_incarnation() {
        // A compaction resets every `first_offset`; wherever one falls
        // between the consume, the re-append and the read, the consumed
        // incarnation's records must stay dead.
        for compact_after in [None, Some("consume"), Some("re-append")] {
            let dir = ScratchDir::new("aur-reappend").unwrap();
            let mut cfg = cfg_small();
            cfg.read_batch_ratio = 0.0;
            let mut s = session_store(dir.path(), cfg);
            // `b` stays live ahead of `a` in the index log, so the scan
            // start cannot move past `a`'s dead entries.
            append_flushed(&mut s, &[(b"b", b"b1", 10), (b"a", b"a1", 20)]);
            append_flushed(&mut s, &[(b"a", b"a2", 30)]);
            assert_eq!(s.take(b"a", W).unwrap(), [b"a1", b"a2"]);
            if compact_after == Some("consume") {
                s.compact().unwrap();
            }
            // The new incarnation gets as many records as the old one.
            append_flushed(&mut s, &[(b"a", b"a3", 40)]);
            append_flushed(&mut s, &[(b"a", b"a4", 50)]);
            if compact_after == Some("re-append") {
                s.compact().unwrap();
            }
            let mut view = BTreeMap::new();
            s.collect_view(&mut view).unwrap();
            assert_eq!(
                view.get(&(b"a".to_vec(), W)),
                Some(&ViewValue::Values(vec![b"a3".to_vec(), b"a4".to_vec()])),
                "compaction after {compact_after:?}"
            );
            assert_eq!(s.peek(b"a", W).unwrap(), [b"a3", b"a4"]);
            assert_eq!(s.take(b"a", W).unwrap(), [b"a3", b"a4"]);
            assert_eq!(s.take(b"b", W).unwrap(), [b"b1"]);
            assert!(s.take(b"a", W).unwrap().is_empty());
        }
    }

    #[test]
    fn a_ring_read_submitted_before_the_consume_is_wasted_not_installed() {
        let dir = ScratchDir::new("aur-ring-reincarnated").unwrap();
        let (mut s, ring, telemetry, release) = gated_ring_store(dir.path());
        append_flushed(&mut s, &[(b"a", b"a1", 10)]);
        s.advance_prefetch(50).unwrap();
        assert!(!s.lane.is_idle());
        // `c` reaches the disk after the submission, so its trigger has
        // no read to wait for: its synchronous batch read loads `a` too,
        // under the parked read. `a` is then consumed as a hit and comes
        // back with the record count the read was submitted against.
        append_flushed(&mut s, &[(b"c", b"c1", 20)]);
        assert_eq!(s.take(b"c", W).unwrap(), [b"c1"]);
        assert_eq!(s.take(b"a", W).unwrap(), [b"a1"]);
        assert_eq!(counter(&telemetry, "prefetch_hits_total"), 1);
        append_flushed(&mut s, &[(b"a", b"a2", 30)]);
        release.send(()).unwrap();
        ring.wait_idle();
        s.drain_lane();
        assert_eq!(
            s.prefetched_windows(),
            0,
            "installed a consumed incarnation"
        );
        assert_eq!(counter(&telemetry, "prefetch_late_total"), 0);
        assert!(counter(&telemetry, "prefetch_wasted_bytes") > 0);
        assert_eq!(s.take(b"a", W).unwrap(), [b"a2"]);
    }

    #[test]
    fn the_scan_start_passes_a_leading_dead_run_and_no_live_entry() {
        let dir = ScratchDir::new("aur-scan-start").unwrap();
        let mut cfg = cfg_small();
        cfg.read_batch_ratio = 0.0;
        cfg.max_space_amplification = 100.0;
        let mut s = session_store(dir.path(), cfg);
        append_flushed(
            &mut s,
            &[(b"a", b"a1", 10), (b"b", b"b1", 20), (b"c", b"c1", 30)],
        );
        let entries = index_entry_offsets(&mut s);
        assert_eq!(s.table.scan_start(), Some(entries[0]));
        // Each consume moves the start to the first entry still live,
        // whatever read ran last.
        assert_eq!(s.take(b"a", W).unwrap(), [b"a1"]);
        assert_eq!(s.table.scan_start(), Some(entries[1]));
        assert_eq!(s.take(b"c", W).unwrap(), [b"c1"]);
        assert_eq!(s.table.scan_start(), Some(entries[1]), "live `b` holds it");
        // `a` returns behind the dead run; `b` still holds the start.
        append_flushed(&mut s, &[(b"a", b"a2", 40)]);
        let entries = index_entry_offsets(&mut s);
        assert_eq!(s.table.scan_start(), Some(entries[1]));
        // Now the head is dead up to `a`'s second incarnation: the old
        // `a1` entry ahead of it stays dead.
        assert_eq!(s.take(b"b", W).unwrap(), [b"b1"]);
        assert_eq!(s.table.scan_start(), Some(entries[3]));
        assert_eq!(s.take(b"a", W).unwrap(), [b"a2"]);
        assert_eq!(s.table.scan_start(), None);
        assert_eq!(s.metrics.snapshot().compactions, 0);
    }

    /// Index-log offset of the first entry the liveness rule passes in a
    /// walk of the whole log, or the log's end when none does.
    fn first_live_entry(s: &mut AurStore) -> u64 {
        let mut first = None;
        let table = &s.table;
        let each = |loc: flowkv_common::logfile::RecordLocation, payload: &[u8]| {
            let entry = IndexEntry::decode(payload)?;
            if first.is_none() && table.classify(entry.key, entry.window, entry.offset) {
                first = Some(loc.offset);
            }
            Ok(())
        };
        s.index.scan(each).unwrap();
        first.unwrap_or(s.index.total())
    }

    /// The scan start is a fact of the table: after every step of a
    /// seeded random run — appends, flushes, takes, peeks, compactions,
    /// checkpoint round trips, read-ahead ticks — on a lane of width 0
    /// and 2, it is the first entry a full walk finds live.
    #[test]
    fn the_scan_start_is_the_first_live_entry_after_every_step() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for width in [0, 2] {
            for seed in 0..6 {
                let dir = ScratchDir::new("aur-start-rule").unwrap();
                let ckpt = ScratchDir::new("aur-start-rule-ckpt").unwrap();
                let cfg = AurConfig {
                    write_buffer_bytes: 512,
                    read_batch_ratio: 0.3,
                    max_space_amplification: 2.0,
                };
                let mut s = session_store(dir.path(), cfg);
                let ring = (width > 0).then(|| Arc::new(IoRing::new(width, None, None)));
                if let Some(ring) = &ring {
                    s = s.with_ring(Arc::clone(ring));
                }
                let mut rng = StdRng::seed_from_u64(seed);
                for step in 0..300 {
                    let key = [b'a' + rng.gen_range(0..8u8)];
                    let window = w(0, 100 * rng.gen_range(1..3));
                    let ts = rng.gen_range(0..400);
                    match rng.gen_range(0..100) {
                        0..55 => s.append(&key, window, &[7u8; 24], ts).unwrap(),
                        55..65 => s.flush().unwrap(),
                        65..83 => assert!(s.take(&key, window).is_ok()),
                        83..88 => assert!(s.peek(&key, window).is_ok()),
                        88..92 => s.compact().unwrap(),
                        92..95 => {
                            s.checkpoint(ckpt.path()).unwrap();
                            s.restore(ckpt.path()).unwrap();
                        }
                        _ => {
                            s.advance_prefetch(ts).unwrap();
                            if let Some(ring) = &ring {
                                ring.wait_idle();
                                s.advance_prefetch(ts).unwrap();
                            }
                        }
                    }
                    let start = s.table.scan_start().unwrap_or(s.index.total());
                    let expected = first_live_entry(&mut s);
                    assert_eq!(start, expected, "width {width}, seed {seed}, step {step}");
                }
            }
        }
    }

    /// Device work of a scripted run — appends filling four flushes, 20
    /// batch-read misses, a compaction, a drain — counted at the `Vfs`.
    /// `crash_matrix`'s forward probes rely on a store-call sequence
    /// mapping to one device-op sequence, so the count is pinned (it is
    /// what the store issued before its memory side became one table).
    #[test]
    fn a_scripted_run_issues_a_pinned_number_of_device_ops() {
        use flowkv_common::vfs::FaultVfs;
        let dir = ScratchDir::new("aur-opcount").unwrap();
        let counting = FaultVfs::counting(StdVfs::shared());
        let cfg = AurConfig {
            write_buffer_bytes: 9_500,
            read_batch_ratio: 0.02,
            max_space_amplification: 3.0,
        };
        let mut s = AurStore::open_with_vfs(
            dir.path(),
            cfg,
            EttPredictor::SessionGap { gap: 100 },
            StoreMetrics::new_shared(),
            counting.clone(),
        )
        .unwrap();
        let key = |i: i64| format!("key-{i:03}");
        for i in 0..400i64 {
            s.append(key(i % 100).as_bytes(), W, &[i as u8; 32], i)
                .unwrap();
        }
        assert_eq!(s.metrics.snapshot().flushes, 4);
        let mut taken = 0;
        while s.metrics.snapshot().prefetch_misses < 20 {
            assert_eq!(s.take(key(taken).as_bytes(), W).unwrap().len(), 4);
            taken += 1;
        }
        assert_eq!(s.metrics.snapshot().compactions, 0);
        for i in taken..100 {
            assert_eq!(s.take(key(i).as_bytes(), W).unwrap().len(), 4);
        }
        let m = s.metrics.snapshot();
        assert_eq!((m.flushes, m.compactions), (4, 1), "{m:?}");
        assert_eq!(counting.ops(), 176);
    }

    #[test]
    fn memory_bytes_counts_buffered_prefetched_and_table_bytes() {
        let dir = ScratchDir::new("aur-memory").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        let empty = s.memory_bytes();
        s.append(b"a", W, &[1u8; 100], 10).unwrap();
        let table_only = s.memory_bytes() - 100;
        assert!(table_only > empty, "the entry itself is counted");
        s.append(b"b", W, &[2u8; 100], 20).unwrap();
        let buffered = s.memory_bytes();
        assert!(buffered >= empty + 200);
        s.flush().unwrap();
        let flushed = s.memory_bytes();
        assert!(flushed < buffered - 200 && flushed > empty);
        // Reading `a` prefetches `b`: its disk values are resident.
        assert_eq!(s.take(b"a", W).unwrap().len(), 1);
        assert!(prefetched(&s, b"b", W));
        assert!(s.memory_bytes() >= empty + 100);
        assert_eq!(s.take(b"b", W).unwrap().len(), 1);
        assert_eq!(s.memory_bytes(), empty);
    }

    #[test]
    fn a_batch_read_past_the_budget_keeps_the_soonest_windows() {
        let dir = ScratchDir::new("aur-budget").unwrap();
        let cfg = AurConfig {
            write_buffer_bytes: 1 << 20,
            read_batch_ratio: 1.0,
            max_space_amplification: 100.0,
        };
        let mut s = session_store(dir.path(), cfg);
        let key = |i: i64| format!("key-{i:02}");
        let value = vec![7u8; 128 << 10];
        for i in 0..80 {
            s.append(key(i).as_bytes(), W, &value, i).unwrap();
        }
        s.flush().unwrap();
        // One batch read selects all 80 windows, 10 MiB against 8: the
        // latest ETTs give way, the target is served.
        assert_eq!(s.take(key(0).as_bytes(), W).unwrap(), [&value[..]]);
        let budget = s.lane.budget() as usize;
        assert!(s.table.prefetch_bytes() <= budget);
        let displaced = s.metrics.snapshot().prefetch_evictions;
        assert!(displaced >= 16, "{displaced} displaced");
        assert!(prefetched(&s, key(1).as_bytes(), W));
        assert!(!prefetched(&s, key(79).as_bytes(), W));
        // A displaced window is whole on disk: every one reads back.
        for i in 1..80 {
            assert_eq!(s.take(key(i).as_bytes(), W).unwrap(), [&value[..]]);
            assert!(s.table.prefetch_bytes() <= budget);
        }
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    fn async_prefetch_rejects_stale_reads() {
        let dir = ScratchDir::new("aur-ring-stale").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        s.append(b"a", w(0, 100), b"v1", 10).unwrap();
        s.flush().unwrap();
        s.advance_prefetch(50).unwrap();
        // The window grows under the in-flight read: whether the job ran
        // before or after this flush, its snapshot's record count no
        // longer matches the Stat entry and validation must discard it.
        s.append(b"a", w(0, 100), b"v2", 20).unwrap();
        s.flush().unwrap();
        ring.wait_idle();
        s.advance_prefetch(50).unwrap();
        assert_eq!(s.prefetched_windows(), 0);
        assert_eq!(
            s.take(b"a", w(0, 100)).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
    }

    /// A telemetry-probed store on a one-thread ring whose thread is
    /// parked until the returned sender fires (or drops), so every read
    /// the store submits stays in flight for as long as the test needs.
    fn gated_ring_store(
        dir: &Path,
    ) -> (
        AurStore,
        Arc<IoRing>,
        Arc<Telemetry>,
        std::sync::mpsc::Sender<()>,
    ) {
        let telemetry = Telemetry::new_shared();
        let s = session_store(dir, cfg_small()).with_telemetry(telemetry.clone(), "t/p0");
        let ring = Arc::new(IoRing::new(1, None, None));
        let (release, gate) = std::sync::mpsc::channel::<()>();
        ring.submit(move || {
            let _ = gate.recv();
        });
        (s.with_ring(ring.clone()), ring, telemetry, release)
    }

    fn counter(telemetry: &Telemetry, name: &str) -> u64 {
        let name = format!("{name}{{store=t/p0}}");
        let samples = telemetry.registry().snapshot();
        match samples.iter().find(|s| s.name == name).map(|s| &s.value) {
            Some(flowkv_common::telemetry::SampleValue::Counter(v)) => *v,
            _ => panic!("{name} is not a registered counter"),
        }
    }

    /// `take`s while the ring's one thread is still parked: a helper
    /// opens the gate once the store has counted the trigger late, which
    /// it does on its way into the wait for the parked read.
    fn take_late(
        s: &mut AurStore,
        telemetry: &Telemetry,
        release: &std::sync::mpsc::Sender<()>,
        key: &[u8],
    ) -> Vec<Vec<u8>> {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Past the deadline the assertions fail instead of the
                // test hanging.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                while counter(telemetry, "prefetch_late_total") == 0
                    && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                release.send(()).unwrap();
            });
            s.take(key, w(0, 100)).unwrap()
        })
    }

    #[test]
    fn a_trigger_that_beats_its_read_is_late_once() {
        let dir = ScratchDir::new("aur-ring-late").unwrap();
        let (mut s, ring, telemetry, release) = gated_ring_store(dir.path());
        s.append(b"a", w(0, 100), b"v1", 10).unwrap();
        s.flush().unwrap();
        s.advance_prefetch(50).unwrap();
        // The trigger beats the parked read: counted late here, and
        // served by that read once it lands — not by a second one.
        assert_eq!(
            take_late(&mut s, &telemetry, &release, b"a"),
            vec![b"v1".to_vec()]
        );
        assert_eq!(counter(&telemetry, "prefetch_late_total"), 1);
        let m = s.metrics.snapshot();
        assert_eq!((m.prefetch_hits, m.prefetch_misses), (1, 0));
        // Nothing is left to land, and nothing was read in vain.
        ring.wait_idle();
        s.advance_prefetch(50).unwrap();
        assert_eq!(counter(&telemetry, "prefetch_late_total"), 1);
        assert_eq!(counter(&telemetry, "prefetch_wasted_bytes"), 0);
    }

    #[test]
    fn a_late_trigger_for_an_extended_window_is_served_by_its_inflight_read() {
        let dir = ScratchDir::new("aur-ring-hit-waste").unwrap();
        let (mut s, ring, telemetry, release) = gated_ring_store(dir.path());
        for (key, ts) in [(b"a", 10), (b"b", 20), (b"c", 30)] {
            s.append(key, w(0, 100), b"v", ts).unwrap();
        }
        s.flush().unwrap();
        // `c` extends after its flush. The submission covers it all the
        // same — the read is of its disk record — so its trigger waits
        // for the parked read and serves disk, then buffer.
        s.append(b"c", w(0, 100), b"v2", 40).unwrap();
        s.advance_prefetch(50).unwrap();
        assert_eq!(
            take_late(&mut s, &telemetry, &release, b"c"),
            vec![b"v".to_vec(), b"v2".to_vec()]
        );
        // The same read brought `a` and `b`.
        assert_eq!(s.prefetched_windows(), 2);
        assert_eq!(s.take(b"a", w(0, 100)).unwrap(), vec![b"v".to_vec()]);
        assert_eq!(counter(&telemetry, "prefetch_hits_total"), 2);
        assert_eq!(s.metrics.snapshot().prefetch_misses, 0);
        ring.wait_idle();
        s.advance_prefetch(50).unwrap();
        assert_eq!(counter(&telemetry, "prefetch_late_total"), 1);
        assert_eq!(counter(&telemetry, "prefetch_wasted_bytes"), 0);
    }

    #[test]
    fn candidate_scan_reruns_after_a_flush_and_when_a_window_comes_due() {
        let dir = ScratchDir::new("aur-ring-rescan").unwrap();
        let s = AurStore::open(
            dir.path(),
            cfg_small(),
            EttPredictor::SessionGap { gap: 10_000 },
            StoreMetrics::new_shared(),
        )
        .unwrap();
        let ring = Arc::new(IoRing::new(1, None, None));
        let mut s = s.with_ring(ring.clone());
        let in_flight = |s: &AurStore| !s.lane.is_idle();

        // ETT 10_010 lies beyond the 500 ms horizon of stream time 50:
        // nothing to read ahead, and nothing new until the due bound
        // reaches it.
        s.append(b"a", w(0, 100), b"v1", 10).unwrap();
        s.flush().unwrap();
        s.advance_prefetch(50).unwrap();
        s.advance_prefetch(9_000).unwrap();
        assert!(!in_flight(&s));
        s.advance_prefetch(9_600).unwrap();
        assert!(in_flight(&s), "a window that came due was not read ahead");
        ring.wait_idle();
        s.advance_prefetch(9_600).unwrap();
        s.advance_prefetch(9_600).unwrap();
        assert_eq!(s.prefetched_windows(), 1);

        // A flush puts a second due window on disk: the next tick must
        // find it although stream time has not moved.
        s.append(b"b", w(0, 100), b"v2", 20).unwrap();
        s.flush().unwrap();
        s.advance_prefetch(9_600).unwrap();
        assert!(in_flight(&s), "a freshly flushed window was not read ahead");
        ring.wait_idle();
        s.advance_prefetch(9_600).unwrap();
        assert_eq!(s.prefetched_windows(), 2);
    }

    #[test]
    fn close_waits_out_inflight_reads() {
        let dir = ScratchDir::new("aur-ring-close").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        s.append(b"a", w(0, 100), b"v1", 10).unwrap();
        s.flush().unwrap();
        s.advance_prefetch(50).unwrap();
        s.close().unwrap();
        assert_eq!(ring.pending(), 0);
        assert!(s.lane.is_idle());
        // A fresh write cycle works against the bumped epoch.
        s.append(b"a", w(200, 300), b"v2", 210).unwrap();
        s.flush().unwrap();
        assert_eq!(s.take(b"a", w(200, 300)).unwrap(), vec![b"v2".to_vec()]);
    }

    #[test]
    fn no_timer_spans_a_call_into_another_timed_function() {
        // Every write through a file handle sleeps 1 ms. An `append`
        // that fills the buffer triggers the flush under the flush's own
        // timer: one held across it would count that millisecond twice.
        use crate::genlog::tests::{assert_no_time_counted_twice, SlowWrites};
        use std::time::{Duration, Instant};
        let dir = ScratchDir::new("aur-timers").unwrap();
        let mut s = AurStore::open_with_vfs(
            dir.path(),
            cfg_small(),
            EttPredictor::SessionGap { gap: 100 },
            StoreMetrics::new_shared(),
            SlowWrites::shared(Duration::from_millis(1)),
        )
        .unwrap();
        let win = w(0, 100);
        let start = Instant::now();
        for i in 0..200u32 {
            s.append(
                format!("key-{}", i % 40).as_bytes(),
                win,
                &[7u8; 32],
                i64::from(i),
            )
            .unwrap();
        }
        for key in 0..40u32 {
            assert_eq!(
                s.take(format!("key-{key}").as_bytes(), win).unwrap().len(),
                5
            );
        }
        let wall = start.elapsed().as_nanos() as u64;
        let m = s.metrics.snapshot();
        assert!(m.compactions >= 1, "{m:?}");
        assert_no_time_counted_twice(&m, wall);
    }
}
