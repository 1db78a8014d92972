//! The Append and Unaligned Read store (paper §4.2, Figure 7).
//!
//! Session-style windows trigger per key at unpredictable wall-clock
//! moments, so neither per-window files (too many) nor eager merging
//! (wasted CPU) fit. The AUR store instead:
//!
//! - appends flushed value groups to a single **global data log**, each
//!   record naming its window (`record`);
//! - keeps one in-memory **table of live windows** (`table`) whose
//!   entries hold Figure 7's three memory structures: the **Stat table**
//!   is `ett`/`max_ts`/`disk_bytes` (updated on every append via the
//!   [`EttPredictor`]), the **write buffer** `buffered`, the **prefetch
//!   buffer** `prefetched` — so an append, a trigger and a flush probe
//!   once. Beside them each entry lists its data-log records, 16 B each,
//!   where the paper keeps those locations in an on-disk index log;
//! - on a read miss, performs a **predictive batch read**: it takes the
//!   records the table lists for the requested window *and* for the
//!   `N = ratio × live-windows` windows closest to triggering, loads them
//!   in offset order — one device read per run of neighbouring records,
//!   not one per record — and parks them in the windows' `prefetched`
//!   slots. That read is one body, `read_windows`, which a read-ahead
//!   runs on the worker's I/O ring and the serving view for every window
//!   on disk;
//! - writes each flush in **predicted-trigger order**, so the windows a
//!   batch read wants together sit together in the data log;
//! - **integrates compaction** with that machinery: dead bytes are
//!   tracked as windows are consumed, and when space amplification
//!   exceeds the configured MSA the store relocates the live byte ranges
//!   of the data log into a new generation — raw record bytes out of
//!   the same extent reads, never decoded (paper §5). The log is a
//!   `GenLog`, which owns the file's whole life.
//!
//! A consumed window's records stay in the log until compaction, and
//! re-appending to the same `(key, window)` must not resurrect them: a
//! window's live records are exactly those its table entry lists, and a
//! consumed window's entry is gone. Those lists live in memory only; a
//! reopen or a restore rebuilds them from the records' headers
//! (`rebuild_record`) in the one scan that recovers the data log.

pub(crate) mod record;
mod table;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use flowkv_common::backend::ValueSink;
use flowkv_common::codec::Decoder;
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::{IoRing, Lane, PrefetchProbe};
use flowkv_common::logfile::{record_payload, RandomAccessLog, RecordLocation};
use flowkv_common::metrics::{OpCategory, RecordTimer, StoreMetrics};
use flowkv_common::registry::ViewValue;
use flowkv_common::telemetry::{Counter, Histogram, Telemetry};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::Vfs;

use crate::aar::push_view_value;
use crate::ett::{EttObservation, EttPredictor};
use crate::genlog::GenLog;
use record::{read_header, ValueRun};
use table::{DiskRecord, LiveTable, Pick};

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

/// One window as a batch read found it on disk: the values of its
/// listed records and their on-disk bytes.
struct WindowRead {
    pick: Pick,
    values: ValueRun,
    bytes: u64,
}

/// The one batch read (paper §4.2): loads every record the `picks` list
/// through the data-log reader `data`, in offset order, neighbours
/// sharing one device read (a window's records stay in append order
/// because offsets grow with appends). Returns each pick's read, in pick
/// order. A miss runs it on the worker thread over the store's cached
/// reader, a read-ahead on the lane over a reader of its own, the
/// serving view through `read_through`.
fn read_windows(data: &mut RandomAccessLog, picks: Vec<Pick>) -> Result<Vec<WindowRead>> {
    let mut wanted: Vec<(u64, u64, usize)> = Vec::new();
    for (slot, pick) in picks.iter().enumerate() {
        let records = pick.records.iter();
        wanted.extend(records.map(|r| (r.offset, r.disk_len(), slot)));
    }
    wanted.sort_unstable_by_key(|&(offset, ..)| offset);
    let mut reads: Vec<WindowRead> = picks
        .into_iter()
        .map(|pick| WindowRead {
            pick,
            values: ValueRun::default(),
            bytes: 0,
        })
        .collect();
    let locations: Vec<(u64, u64)> = wanted.iter().map(|&(o, len, _)| (o, len)).collect();
    data.read_records(&locations, |i, record| {
        let read = &mut reads[wanted[i].2];
        read.bytes += record.len() as u64;
        read.values.push_record(record_payload(record))
    })?;
    Ok(reads)
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
    /// Largest tuple timestamp appended so far — the store's view of
    /// stream time; windows with ETT at or before it are already due.
    latest_ts: Timestamp,
    /// Reusable scratch for encoding flush records, so steady-state
    /// flushing allocates no per-record `Vec<u8>`s.
    encode_buf: Vec<u8>,
    metrics: Arc<StoreMetrics>,
    /// Samples the per-record `append` timer.
    append_timer: RecordTimer,
    /// Prefetch-accuracy telemetry; `None` keeps the hot path untouched.
    ett_probe: Option<EttProbe>,
    /// Read-ahead lane keyed by `(key, window)`: without threads until
    /// [`AurStore::set_ring`] attaches the worker's I/O ring
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

/// Registry handles for predicted-vs-actual trigger-time accounting,
/// resolved once at store open so consuming a window costs only atomic
/// updates.
struct EttProbe {
    /// Histogram of `|actual - predicted|` in event-time milliseconds.
    abs_error_ms: Arc<Histogram>,
    /// Consumed windows that carried a trigger-time estimate.
    observations: Arc<Counter>,
    /// Observations whose estimate was not a safe lower bound.
    unsafe_predictions: Arc<Counter>,
}

impl EttProbe {
    fn new(telemetry: &Telemetry, tag: &str) -> Self {
        let registry = telemetry.registry();
        EttProbe {
            abs_error_ms: registry.histogram(&format!("store_ett_abs_error_ms{{store={tag}}}")),
            observations: registry.counter(&format!("store_ett_observations_total{{store={tag}}}")),
            unsafe_predictions: registry.counter(&format!(
                "store_ett_unsafe_predictions_total{{store={tag}}}"
            )),
        }
    }

    fn observe(&self, obs: EttObservation) {
        self.observations.inc();
        self.abs_error_ms.record(obs.abs_error() as u64);
        if !obs.was_safe() {
            self.unsafe_predictions.inc();
        }
    }
}

impl AurStore {
    /// Opens a store rooted at `dir`, recovering any existing generation
    /// and performing all file IO through `vfs`.
    pub fn open(
        dir: &Path,
        cfg: AurConfig,
        predictor: EttPredictor,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io_at("aur dir", dir, e))?;
        let (mut table, mut latest_ts) = (LiveTable::default(), Timestamp::MIN);
        let data = GenLog::open(Arc::clone(&vfs), dir, "data", "aurd", |loc, payload| {
            rebuild_record(&mut table, &mut latest_ts, &predictor, loc, payload)
        })?;
        Ok(AurStore {
            cfg,
            predictor,
            table,
            data,
            latest_ts,
            encode_buf: Vec::new(),
            metrics,
            append_timer: RecordTimer::default(),
            ett_probe: None,
            lane: Lane::inline(vfs),
            epoch: 0,
            prefetch_probe: None,
            next_prefetch_scan: None,
        })
    }

    /// Enables the `store_ett_*` (predicted-vs-actual trigger time) and
    /// `prefetch_*` metric families, labelled `{store=tag}` (typically
    /// `operator/p<N>`).
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>, tag: &str) {
        let probe = PrefetchProbe::new(&telemetry, tag);
        self.lane.set_probe(probe.clone());
        self.prefetch_probe = Some(probe);
        self.ett_probe = Some(EttProbe::new(&telemetry, tag));
    }

    /// Attaches the worker's background I/O ring: predictive
    /// batch reads become asynchronous submissions driven by
    /// [`AurStore::advance_prefetch`], and the serving view's read runs
    /// on the ring's pool.
    pub fn set_ring(&mut self, ring: Arc<IoRing>) {
        self.lane.attach(ring);
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
            let _t = self.append_timer.start(&self.metrics, OpCategory::Write);
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
                    probe.observe(obs);
                }
                self.data.retire(lw.disk_bytes);
                lw.lend(&mut |value| {
                    lent += 1;
                    sink(value);
                })?;
            }
        }
        self.metrics.add_records_read(lent as u64);
        // Compaction (paper §4.2, "Integrated Compaction"). One buffer's
        // worth of data is the floor below which rewriting is pointless.
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
            let lw = s.table.get(key, window).filter(|lw| !lw.records.is_empty());
            lw.map(|lw| (lw.prefetched.is_some(), lw.ett))
        };
        let Some((mut hit, target_ett)) = on_disk(self) else {
            return Ok(false);
        };
        let inflight = (!hit && !self.lane.is_idle()).then(|| (key.to_vec(), window));
        if let Some(inflight) = inflight.filter(|k| self.lane.covers(k)) {
            // The window fired while its background read was in flight.
            // The pool is already paying for that extent read: wait for
            // it, as the AAR store and the tier do. The wait is the
            // prefetch-stall share of a sampled batch.
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

    /// Flushes the write buffer to the data log.
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
            let buf = &mut self.encode_buf;
            lw.buffered.encode_record_into(key, window, lw.max_ts, buf);
            let loc = self.data.append(buf)?;
            self.metrics.add_bytes_written(loc.disk_len());
            Ok(loc)
        })?;
        self.data.flush()?;
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
        let picks: Vec<Pick> = self
            .table
            .on_disk()
            .map(|(k, w, lw)| Pick::of(k, w, lw))
            .collect();
        if let (false, Some(data_path)) = (picks.is_empty(), self.data.flushed_path()?) {
            let reads = self
                .lane
                .read_through(move |vfs| {
                    read_windows(&mut RandomAccessLog::open_in(vfs, &data_path)?, picks)
                })
                .map_err(|e| StoreError::io_at("aur view read", self.data.path(), e))?;
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
        self.data.generation()
    }

    /// Writes a self-contained snapshot into `dst`: the data records the
    /// table lists and no others, so a restore's rebuild from every
    /// record it scans brings back no consumed window, and the live log
    /// is left as it is — compacting stays the MSA's call.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        self.data.checkpoint(&self.live_records(), dst, "data.aurd")
    }

    /// Replaces the store contents with the snapshot in `src`.
    pub fn restore(&mut self, src: &Path) -> Result<()> {
        self.close()?;
        let (table, latest_ts, predictor) = (&mut self.table, &mut self.latest_ts, &self.predictor);
        self.data.restore_from(src, "data.aurd", |loc, payload| {
            rebuild_record(table, latest_ts, predictor, loc, payload)
        })
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
        self.latest_ts = Timestamp::MIN;
        self.data.destroy();
        Ok(())
    }

    /// The predictive batch read (paper §4.2): one read of their listed
    /// records loads the target window plus the `N` windows closest to
    /// triggering into their `prefetched` slots.
    fn predictive_batch_read(
        &mut self,
        key: &[u8],
        window: WindowId,
        target_ett: Option<Timestamp>,
    ) -> Result<()> {
        self.metrics.add_prefetch_miss();
        // Select the N soonest-triggering windows beyond the target,
        // plus every window already due at the target's trigger time.
        let n = (self.cfg.read_batch_ratio * self.table.len() as f64).ceil() as usize;
        // Everything due by the store's view of stream time will be read
        // imminently; load it in this same read. A read batch
        // ratio of zero disables prefetching entirely (paper §6.4).
        let due_ett = (self.cfg.read_batch_ratio > 0.0)
            .then(|| target_ett.unwrap_or(Timestamp::MIN).max(self.latest_ts));
        // Windows already prefetched are skipped — their data is
        // resident. Windows with an in-flight background read are NOT
        // skipped: this read is already paying for the target, and
        // deferring to a ring read that may land after the trigger (or
        // be invalidated by a flush or compaction) trades a certain hit
        // for a maybe — the slower completion is simply discarded as
        // wasted at drain time.
        let (mut picks, _) = self.table.select_soonest(n, due_ett, |k, w, lw| {
            lw.prefetched.is_some() || (k == key && w == window)
        });
        if let Some(target) = self.table.get(key, window) {
            picks.push(Pick::of(key, window, target));
        }

        // On the worker thread, over the store's cached data-log reader.
        let windows = read_windows(self.data.reader()?, picks)?;
        self.install(BatchRead {
            generation: self.data.generation(),
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
    /// later incarnation listing other records), or a flush adding
    /// records (the list grew).
    fn install(&mut self, batch: BatchRead) -> (i64, u64) {
        let stale = batch.generation != self.data.generation() || batch.epoch != self.epoch;
        let (mut installed, mut wasted) = (0i64, 0u64);
        for w in batch.windows {
            let current = self
                .table
                .get(&w.pick.key, w.pick.window)
                .filter(|_| !stale);
            match current {
                Some(lw) if lw.records == w.pick.records && lw.prefetched.is_none() => {
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
    /// miss runs, on the lane, against a snapshot of the selected
    /// windows' record lists. The job never mutates store state — all
    /// bookkeeping commits at drain time on the worker thread.
    fn submit_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        let lane = &mut self.lane;
        // Nothing to plan for a lane that admits no read at all.
        if self.cfg.read_batch_ratio <= 0.0 || self.table.len() == 0 || !lane.admits(0, 0) {
            return Ok(());
        }
        // One read in flight per store: stacking a fresh submission on
        // every tick while earlier ones are still running re-reads what
        // they are loading. The next tick after the drain tops up
        // coverage.
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
        let (mut picks, next_due) = self
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
        // Push buffered data-log bytes to the file: the job reads only
        // the records listed now, all of them behind any later flush.
        self.data.flush()?;
        let data_path = self.data.path();
        let generation = self.data.generation();
        let epoch = self.epoch;
        let keys: Vec<StateKey> = picks.iter().map(|p| (p.key.clone(), p.window)).collect();
        lane.submit(keys, est_bytes, move |vfs| {
            let windows = read_windows(&mut RandomAccessLog::open_in(vfs, &data_path)?, picks)?;
            Ok(BatchRead {
                generation,
                epoch,
                windows,
            })
        });
        Ok(())
    }

    /// Rewrites the data log keeping only the records the table lists
    /// (byte-range relocation without decoding, paper §5).
    fn compact(&mut self) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Compaction);
        let live = self.live_records();
        // `(old offset, new offset)`, in old-offset order.
        let mut placed = Vec::with_capacity(live.len());
        let data = self.data.relocate(&live, |i, offset| {
            placed.push((live[i].0, offset));
            Ok(())
        })?;
        self.data.commit(data)?;
        let moved = self.data.total();
        self.metrics.add_bytes_read(moved);
        self.metrics.add_bytes_written(moved);
        self.metrics.add_compaction();
        self.table.relocated(&placed);
        Ok(())
    }

    /// Every listed record's `(offset, on-disk length)`, in log order.
    fn live_records(&self) -> Vec<(u64, u64)> {
        let mut live: Vec<(u64, u64)> = (self.table.on_disk())
            .flat_map(|(.., lw)| lw.records.iter().map(|r| (r.offset, r.disk_len())))
            .collect();
        live.sort_unstable();
        live
    }
}

/// Rebuilds one data record into `table` and `latest_ts` at reopen and
/// restore, from its header: every record of the log is live — a consume
/// leaves no mark on disk, which is why a checkpoint copies the listed
/// records only. A torn tail never gets here; a record whose count no
/// [`DiskRecord`] can hold is refused.
fn rebuild_record(
    table: &mut LiveTable,
    latest_ts: &mut Timestamp,
    predictor: &EttPredictor,
    loc: RecordLocation,
    payload: &[u8],
) -> Result<()> {
    let mut dec = Decoder::new(payload);
    let (key, window, max_ts) = read_header(&mut dec)?;
    let count = dec.get_varint_u64()?;
    let count = u32::try_from(count)
        .map_err(|_| StoreError::invalid_state(format!("record of {count} values")))?;
    *latest_ts = (*latest_ts).max(max_ts);
    let record = DiskRecord {
        offset: loc.offset,
        len: loc.len,
        count,
    };
    table.rebuild_entry(key, window, max_ts, record, predictor);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::telemetry::SampleValue;
    use flowkv_common::vfs::StdVfs;

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
            StdVfs::shared(),
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
        // Consume one window so its record is dead in the data log.
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
        let log = |s: &AurStore| (s.generation(), s.data_log_bytes(), s.dead_bytes());
        let before = log(&s);
        assert!(before.2 > 0, "the consumed record is dead: {before:?}");
        s.checkpoint(ckpt.path()).unwrap();
        // The live log is left as it was; the checkpoint holds the listed
        // record alone.
        assert_eq!(log(&s), before);
        assert_eq!(StdVfs.read_dir_names(dir.path()).unwrap(), ["data_0.aurd"]);
        assert_eq!(StdVfs.read_dir_names(ckpt.path()).unwrap(), ["data.aurd"]);
        let listed: u64 = s.live_records().iter().map(|&(_, len)| len).sum();
        let copied = StdVfs.file_len(&ckpt.path().join("data.aurd")).unwrap();
        assert_eq!((copied, listed), (before.1 - before.2, before.1 - before.2));
        s.append(b"k", w(0, 100), b"lost", 20).unwrap();
        s.restore(ckpt.path()).unwrap();
        assert_eq!(s.take(b"k", w(0, 100)).unwrap(), vec![b"v1".to_vec()]);
        assert!(s.take(b"dead", w(0, 100)).unwrap().is_empty());
    }

    #[test]
    fn telemetry_emits_predicted_vs_actual_events() {
        let dir = ScratchDir::new("aur-telemetry").unwrap();
        let telemetry = Telemetry::new_shared();
        let mut s = session_store(dir.path(), cfg_small());
        s.set_telemetry(Arc::clone(&telemetry), "median/p0");
        // Session gap 100: appending at ts 10 predicts ETT 110. Stream
        // time then advances to 150 before the take, so actual = 150.
        s.append(b"k", w(0, 1000), b"v", 10).unwrap();
        s.append(b"other", w(0, 1000), b"v", 150).unwrap();
        s.take(b"k", w(0, 1000)).unwrap();

        // One observation, |150 - 110| = 40, and a safe one: the window
        // triggered after its estimate.
        let samples = telemetry.registry().snapshot();
        let value = |name: &str| {
            let name = format!("{name}{{store=median/p0}}");
            samples
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value.clone())
                .unwrap_or_else(|| panic!("{name} is not registered"))
        };
        match value("store_ett_abs_error_ms") {
            SampleValue::Histogram(h) => {
                assert_eq!((h.count, h.sum, h.min, h.max), (1, 40, 40, 40));
            }
            other => panic!("store_ett_abs_error_ms is {other:?}"),
        }
        assert_eq!(
            value("store_ett_observations_total"),
            SampleValue::Counter(1)
        );
        assert_eq!(
            value("store_ett_unsafe_predictions_total"),
            SampleValue::Counter(0)
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
        }
        let mut s = session_store(dir.path(), cfg_small());
        // ETT rebuilt from the record's max_ts: 42 + gap 100.
        assert_eq!(s.table.get(b"k", w(0, 100)).unwrap().ett, Some(142));
        assert_eq!(s.take(b"k", w(0, 100)).unwrap(), vec![b"v".to_vec()]);
    }

    #[test]
    fn reopen_rejects_an_entry_no_listed_record_can_hold() {
        use flowkv_common::codec::{put_len_prefixed, put_varint_i64, put_varint_u64};
        // Records the log's framing and checksum accept, whose headers
        // name no window a `DiskRecord` can be listed under.
        let mut cut_window = Vec::new();
        put_len_prefixed(&mut cut_window, &w(0, 100).to_ordered_bytes()[..9]);
        let mut no_max_ts = Vec::new();
        record::put_composite(&mut no_max_ts, b"bad", w(0, 100));
        let mut count_past_u32 = no_max_ts.clone();
        put_varint_i64(&mut count_past_u32, 42);
        put_varint_u64(&mut count_past_u32, u64::from(u32::MAX) + 1);
        let cases = [
            ("composite cut inside its window", cut_window),
            ("header cut before max_ts", no_max_ts),
            ("count past u32", count_past_u32),
        ];
        for (name, payload) in cases {
            let dir = ScratchDir::new("aur-bad-record").unwrap();
            {
                let mut s = session_store(dir.path(), cfg_small());
                s.append(b"k", w(0, 100), b"v", 42).unwrap();
                s.flush().unwrap();
                s.data.append(&payload).unwrap();
                s.data.sync().unwrap();
            }
            let reopened = AurStore::open(
                dir.path(),
                cfg_small(),
                EttPredictor::SessionGap { gap: 100 },
                StoreMetrics::new_shared(),
                StdVfs::shared(),
            );
            match reopened {
                Err(e) => assert!(e.is_corruption(), "{name}: {e}"),
                Ok(_) => panic!("{name}: reopened"),
            }
        }
    }

    #[test]
    fn a_restore_forgets_the_stream_time_the_store_ran_ahead_to() {
        // Two stores restored from one checkpoint, one of them after it
        // ran far past every window's ETT: the first take loads the same
        // windows in both.
        let ckpt = ScratchDir::new("aur-restore-ts-ckpt").unwrap();
        let cfg = AurConfig {
            read_batch_ratio: 0.1,
            ..cfg_small()
        };
        let dir = ScratchDir::new("aur-restore-ts").unwrap();
        let mut ahead = session_store(dir.path(), cfg.clone());
        for i in 0..20 {
            let key = format!("k{i:02}");
            ahead.append(key.as_bytes(), W, b"v", 10 * i).unwrap();
        }
        ahead.checkpoint(ckpt.path()).unwrap();
        ahead.append(b"late", W, b"v", 100_000).unwrap();
        ahead.restore(ckpt.path()).unwrap();
        let fresh_dir = ScratchDir::new("aur-restore-ts-fresh").unwrap();
        let mut fresh = session_store(fresh_dir.path(), cfg);
        fresh.restore(ckpt.path()).unwrap();
        let first_take = |s: &mut AurStore| {
            assert_eq!(s.take(b"k00", W).unwrap(), [b"v"]);
            (s.prefetched_windows(), s.metrics.snapshot().prefetch_misses)
        };
        // Due by the checkpoint's stream time (190): ETTs 110 – 190.
        assert_eq!(first_take(&mut fresh), (9, 1));
        assert_eq!(first_take(&mut ahead), (9, 1));
    }

    fn ring_store(dir: &Path) -> (AurStore, Arc<IoRing>) {
        let mut s = session_store(dir, cfg_small());
        let ring = Arc::new(IoRing::new(2, None, None));
        s.set_ring(ring.clone());
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

    /// One log shape every read must serve the same way.
    struct WalkCase {
        name: &'static str,
        /// Lays the shape down on a fresh store; every window is `W`.
        build: fn(&mut AurStore),
        /// What every read path must serve, per key in key order.
        live: &'static [(&'static [u8], &'static [&'static [u8]])],
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
        },
        WalkCase {
            // Log: b, a (consumed), a again — the dead record sits
            // between two live ones.
            name: "consumed window re-appended",
            build: |s| {
                append_flushed(s, &[(b"b", b"b1", 10), (b"a", b"a1", 20)]);
                assert_eq!(s.take(b"a", W).unwrap(), vec![b"a1".to_vec()]);
                append_flushed(s, &[(b"a", b"a2", 30)]);
            },
            live: &[(b"a", &[b"a2"]), (b"b", &[b"b1"])],
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
        },
        WalkCase {
            name: "byte limit before a torn tail",
            build: |s| {
                append_flushed(s, &[(b"a", b"a1", 10), (b"b", b"b1", 20)]);
                // Half a record header past the data writer's offset:
                // no read while the store runs may go there.
                use std::io::Write as _;
                let data = s.data.path();
                let mut file = std::fs::OpenOptions::new().append(true).open(data).unwrap();
                file.write_all(&[0xAB; 5]).unwrap();
            },
            live: &[(b"a", &[b"a1"]), (b"b", &[b"b1"])],
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
            s.set_ring(Arc::clone(ring));
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

    /// The four reads — synchronous batch read, ring job, serving view,
    /// compaction — take the records the table lists, so each log shape
    /// is checked through every one of them, at lane width 0 and 2.
    #[test]
    fn every_scan_reads_each_index_shape_through_the_one_walker() {
        for case in WALK_CASES {
            let name = case.name;
            let expected = owned(case.live);

            // The ring job installs exactly the live windows.
            let (_dir, mut s, ring) = walk_case_store(case, 2);
            s.advance_prefetch(50).unwrap();
            ring.unwrap().wait_idle();
            s.advance_prefetch(50).unwrap();
            assert_eq!(s.prefetched_windows(), expected.len(), "{name}: job");
            let misses = s.metrics.snapshot().prefetch_misses;
            assert_eq!(take_all(&mut s, case), expected, "{name}: job");
            assert_eq!(s.metrics.snapshot().prefetch_misses, misses, "{name}: job");

            for width in [0, 2] {
                // The synchronous batch read.
                let (_dir, mut s, _ring) = walk_case_store(case, width);
                assert_eq!(take_all(&mut s, case), expected, "{name}: sync/{width}");
                assert_eq!(s.table.on_disk().count(), 0, "{name}: sync/{width}");

                // The serving view, which commits nothing.
                let (_dir, mut s, _ring) = walk_case_store(case, width);
                let lists = |s: &AurStore| -> Vec<(Vec<u8>, Vec<DiskRecord>)> {
                    let lists = s
                        .table
                        .iter()
                        .map(|(k, _, lw)| (k.to_vec(), lw.records.clone()));
                    let mut lists: Vec<_> = lists.collect();
                    lists.sort_by(|a, b| a.0.cmp(&b.0));
                    lists
                };
                let lists_before = lists(&s);
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
                    lists(&s),
                    lists_before,
                    "{name}: view/{width} moved a window's listed records"
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

    #[test]
    fn a_reappended_window_serves_only_its_new_incarnation() {
        // A compaction moves every listed record; wherever one falls
        // between the consume, the re-append and the read, the consumed
        // incarnation's records must stay dead.
        for compact_after in [None, Some("consume"), Some("re-append")] {
            let dir = ScratchDir::new("aur-reappend").unwrap();
            let mut cfg = cfg_small();
            cfg.read_batch_ratio = 0.0;
            let mut s = session_store(dir.path(), cfg);
            // `b` stays live ahead of `a` in the logs, so `a`'s dead
            // records sit between live ones.
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

    /// The rows list every live byte: after every step of a seeded
    /// random run — appends, flushes, takes, peeks, compactions,
    /// checkpoint round trips, read-ahead ticks — on a lane of width 0
    /// and 2, the records the table lists cover exactly the data log's
    /// bytes that are not dead.
    #[test]
    fn the_rows_list_every_live_byte_after_every_step() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for width in [0, 2] {
            for seed in 0..6 {
                let dir = ScratchDir::new("aur-rows-rule").unwrap();
                let ckpt = ScratchDir::new("aur-rows-rule-ckpt").unwrap();
                let cfg = AurConfig {
                    write_buffer_bytes: 512,
                    read_batch_ratio: 0.3,
                    max_space_amplification: 2.0,
                };
                let mut s = session_store(dir.path(), cfg);
                let ring = (width > 0).then(|| Arc::new(IoRing::new(width, None, None)));
                if let Some(ring) = &ring {
                    s.set_ring(Arc::clone(ring));
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
                    let listed: u64 = (s.table.iter())
                        .flat_map(|(.., lw)| lw.records.iter().map(DiskRecord::disk_len))
                        .sum();
                    let live = s.data.total() - s.data.dead();
                    assert_eq!(listed, live, "width {width}, seed {seed}, step {step}");
                }
            }
        }
    }

    /// Device work of a scripted run — appends filling four flushes, 20
    /// batch-read misses, a compaction, a drain — counted at the `Vfs`.
    /// `crash_matrix`'s forward probes rely on a store-call sequence
    /// mapping to one device-op sequence, so the count is pinned. It was
    /// 90 beside an index log, whose ops went: its create and four
    /// writes at the flushes, its rewrite at the compaction (create,
    /// write, sync, rename, remove). Each data record now names its
    /// window (~26 B here), which puts the four flushes' runs of a batch
    /// read's picks more than the 4 KiB extent gap apart, so the reads
    /// pay 55 more extents: 51 in the misses, 4 in the compaction.
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
        let mut s = AurStore::open(
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
        // The flushes' records and the compaction's copy: 42 680 B with
        // the index entries beside them.
        assert_eq!(m.bytes_written, 36_112);
        assert_eq!(counting.ops(), 135);
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
        let mut s = session_store(dir, cfg_small());
        s.set_telemetry(telemetry.clone(), "t/p0");
        let ring = Arc::new(IoRing::new(1, None, None));
        let (release, gate) = std::sync::mpsc::channel::<()>();
        ring.submit(move || {
            let _ = gate.recv();
        });
        s.set_ring(ring.clone());
        (s, ring, telemetry, release)
    }

    fn counter(telemetry: &Telemetry, name: &str) -> u64 {
        let name = format!("{name}{{store=t/p0}}");
        let samples = telemetry.registry().snapshot();
        match samples.iter().find(|s| s.name == name).map(|s| &s.value) {
            Some(SampleValue::Counter(v)) => *v,
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
        let mut s = AurStore::open(
            dir.path(),
            cfg_small(),
            EttPredictor::SessionGap { gap: 10_000 },
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        )
        .unwrap();
        let ring = Arc::new(IoRing::new(1, None, None));
        s.set_ring(ring.clone());
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
        let mut s = AurStore::open(
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
