//! The Append and Unaligned Read store (paper §4.2, Figure 7).
//!
//! Session-style windows trigger per key at unpredictable wall-clock
//! moments, so neither per-window files (too many) nor eager merging
//! (wasted CPU) fit. The AUR store instead:
//!
//! - appends flushed value groups to a single **global data log** and
//!   their locations to an append-only **index log** ([`index_log`]);
//! - keeps a small in-memory **Stat table** of estimated trigger times
//!   ([`stat`]), updated on every append via the [`EttPredictor`];
//! - on a read miss, performs a **predictive batch read**: one sequential
//!   scan of the index log collects the locations of the requested window
//!   *and* of the `N = ratio × live-windows` windows closest to
//!   triggering, loads them in offset order — one device read per run
//!   of neighbouring records, not one per record — and parks them in
//!   the **prefetch buffer** ([`prefetch`]);
//! - writes each flush in **predicted-trigger order**, so the windows a
//!   batch read wants together sit together in the data log;
//! - **integrates compaction** with that machinery: dead bytes are
//!   tracked as windows are consumed, and when space amplification
//!   exceeds the configured MSA the store relocates the live byte ranges
//!   of the data log into a new generation — raw record bytes out of
//!   the same extent reads, never decoded (paper §5). Both logs are
//!   [`GenLog`](crate::genlog)s, which own the files' whole life.

pub mod index_log;
pub mod prefetch;
pub mod stat;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::{IoRing, Lane, PrefetchProbe};
use flowkv_common::logfile::{record_payload, LogReader, RandomAccessLog};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::registry::ViewValue;
use flowkv_common::telemetry::{Counter, Histogram, Telemetry};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{StdVfs, Vfs};

use crate::aar::push_view_value;
use crate::ett::{EttObservation, EttPredictor};
use crate::genlog::GenLog;
use index_log::{decode_values, encode_values_into, IndexEntry, IndexEntryRef};
use prefetch::PrefetchBuffer;
use stat::{StatTable, StateKey};

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

/// Dead leading index entries per state key, nested by key so scans can
/// probe with borrowed slices.
type ConsumedRecords = HashMap<Vec<u8>, HashMap<WindowId, u64>>;

/// How many of `(key, window)`'s leading index entries are dead.
fn dead_prefix_of(consumed: &ConsumedRecords, key: &[u8], window: WindowId) -> u64 {
    consumed
        .get(key)
        .and_then(|ws| ws.get(&window))
        .copied()
        .unwrap_or(0)
}

/// What a walk of the index log saw besides the live entries it visited.
struct IndexWalk {
    /// Offset of the first live entry, or of the walk's end when every
    /// entry was dead: nothing before it needs scanning again.
    live_start: u64,
    /// State key of each entry in the dead run ahead of `live_start`.
    dead_run: Vec<StateKey>,
    /// On-disk bytes of the entries walked.
    scanned_bytes: u64,
}

/// The one index-log scan (paper §4.2): walks `path` from `start`, up to
/// but never across `limit`, and hands `visit` every entry that is not
/// in its state key's dead prefix — the first `dead_prefix(key, window)`
/// entries of a key, counted from `start`, belong to an already-consumed
/// incarnation of the window. The synchronous batch read, the ring job,
/// the view scan and the compaction scan differ only in what `visit`
/// selects and in what they commit from the result.
fn walk_index(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    start: u64,
    limit: Option<u64>,
    dead_prefix: impl Fn(&[u8], WindowId) -> u64,
    mut visit: impl FnMut(IndexEntryRef<'_>),
) -> Result<IndexWalk> {
    let mut seen: HashMap<StateKey, u64> = HashMap::new();
    let mut live_start: Option<u64> = None;
    let mut dead_run: Vec<StateKey> = Vec::new();
    let mut scanned_bytes = 0u64;
    let mut reader = LogReader::open_scan_in(vfs, path, start)?;
    // Stop *before* crossing the limit: bytes past it may belong to a
    // flush the foreground is writing concurrently, and reading into a
    // half-written record would fail the whole walk as a torn file.
    while limit.is_none_or(|limit| reader.offset() < limit) {
        let Some((loc, payload)) = reader.next_record()? else {
            break;
        };
        scanned_bytes += loc.disk_len();
        let entry = IndexEntryRef::decode(&payload)?;
        // Position counting only matters for keys with consumed records;
        // the common case skips the per-entry bookkeeping.
        let dead_prefix = dead_prefix(entry.key, entry.window);
        let is_dead = dead_prefix > 0 && {
            let position = seen.entry((entry.key.to_vec(), entry.window)).or_insert(0);
            *position += 1;
            *position <= dead_prefix
        };
        if live_start.is_none() {
            if is_dead {
                dead_run.push((entry.key.to_vec(), entry.window));
            } else {
                live_start = Some(loc.offset);
            }
        }
        if !is_dead {
            visit(entry);
        }
    }
    Ok(IndexWalk {
        live_start: live_start.unwrap_or(reader.offset()),
        dead_run,
        scanned_bytes,
    })
}

/// Loads the data-log records at `wanted` — `(offset, on-disk length,
/// slot)` — and hands each record's values to `each(slot, values,
/// on-disk length)`. Records are fetched in offset order, neighbours
/// sharing one device read; a window's records stay in append order
/// because offsets grow with appends.
fn load_values<S>(
    data: &mut RandomAccessLog,
    mut wanted: Vec<(u64, u64, S)>,
    mut each: impl FnMut(S, Vec<Vec<u8>>, u64),
) -> Result<()> {
    wanted.sort_by_key(|&(offset, ..)| offset);
    let locations: Vec<(u64, u64)> = wanted.iter().map(|&(o, len, _)| (o, len)).collect();
    let mut slots = wanted.into_iter().map(|(.., slot)| slot);
    data.read_records(&locations, |_, record| {
        let slot = slots.next().expect("one slot per location, in order");
        each(
            slot,
            decode_values(record_payload(record))?,
            record.len() as u64,
        );
        Ok(())
    })
}

/// The append-and-unaligned-read store for one partition.
pub struct AurStore {
    cfg: AurConfig,
    predictor: EttPredictor,
    buffer: HashMap<StateKey, Vec<Vec<u8>>>,
    buffer_bytes: usize,
    stat: StatTable,
    prefetch: PrefetchBuffer,
    /// The data log, `data_<generation>.aurd`: flushed value groups. Its
    /// dead bytes are those of consumed windows.
    data: GenLog,
    /// The index log, `index_<generation>.auri`: one entry per data
    /// record. The two are rewritten together, data committed first, and
    /// on reopen the index's generation decides the pair's.
    index: GenLog,
    /// Number of *dead* leading index-log entries per state key: a
    /// consumed window's records stay in the logs until compaction, and
    /// re-appending to the same `(key, window)` must not resurrect them.
    /// Shared so a view or compaction scan running on the lane reads the
    /// counters in place; that scan is over before the next update, so
    /// `Arc::make_mut` never copies.
    consumed_records: Arc<ConsumedRecords>,
    /// Offset of the first possibly-live index-log entry: windows are
    /// mostly consumed in append order, so the dead prefix of the index
    /// log grows monotonically and scans can skip it permanently.
    index_scan_start: u64,
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
    /// [`AurStore::with_ring`] attaches the owning backend's I/O ring
    /// (every read synchronous — the default, and the reference
    /// semantics).
    lane: Lane<StateKey, AsyncBatch>,
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
    /// would walk the whole Stat table to submit nothing.
    next_prefetch_scan: Option<Timestamp>,
}

/// Payload of one background predictive-read submission.
///
/// Everything needed to decide at drain time whether the read is still
/// valid travels with the data: the generation and epoch it was read
/// from, and per window the number of index entries it covered.
struct AsyncBatch {
    generation: u64,
    epoch: u64,
    windows: Vec<AsyncWindow>,
}

struct AsyncWindow {
    key: Vec<u8>,
    window: WindowId,
    /// Index entries the window had when the read was submitted.
    disk_records: u64,
    /// Index entries the background scan actually found; must equal
    /// `disk_records` for the payload to be a complete snapshot.
    found_records: u64,
    values: Vec<Vec<u8>>,
    bytes: u64,
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
            buffer: HashMap::new(),
            buffer_bytes: 0,
            stat: StatTable::new(),
            prefetch: PrefetchBuffer::new(),
            data,
            index,
            consumed_records: Arc::default(),
            index_scan_start: 0,
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

    /// Attaches the owning backend's background I/O ring: predictive
    /// batch reads become asynchronous submissions driven by
    /// [`AurStore::advance_prefetch`], and snapshot/compaction index
    /// scans run on the ring's pool. `tag` routes this instance's
    /// completions on the shared ring.
    pub fn with_ring(mut self, ring: Arc<IoRing>, tag: u64) -> Self {
        self.lane = Lane::new(ring, tag);
        if let Some(p) = &self.prefetch_probe {
            self.lane.set_probe(p.clone());
        }
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
            // A new tuple for a prefetched window means its trigger-time
            // estimate was wrong (e.g. a session extended): evict the
            // stale copy so the eventual read fetches authoritative state.
            if self.prefetch.evict(key, window) {
                self.metrics.add_prefetch_eviction();
            }
            self.latest_ts = self.latest_ts.max(ts);
            self.stat.observe_append(key, window, ts, &self.predictor);
            self.buffer_bytes += key.len() + value.len() + 56;
            self.buffer
                .entry((key.to_vec(), window))
                .or_default()
                .push(value.to_vec());
            self.metrics.add_records_written(1);
        }
        // The flush times itself: no timer of this call may span it.
        if self.buffer_bytes >= self.cfg.write_buffer_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Fetches and removes the values of `(key, window)` (paper Listing 1,
    /// `Get(K, W)`).
    pub fn take(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        // Land any finished background reads first: a completion parked
        // in the ring's done queue since the last tick can serve this
        // very trigger.
        self.drain_lane();
        let mut disk_values = Vec::new();
        let mut from_prefetch = false;
        {
            let _t = self.metrics.timer(OpCategory::Read);
            let has_disk = self
                .stat
                .get(key, window)
                .is_some_and(|s| s.disk_records > 0);
            if has_disk {
                if let Some(values) = self.prefetch.take(key, window) {
                    self.metrics.add_prefetch_hit();
                    if let Some(p) = &self.prefetch_probe {
                        p.hits.inc();
                    }
                    from_prefetch = true;
                    disk_values = values;
                } else {
                    // The window fired while its background read was
                    // still in flight: the synchronous path wins the
                    // race, and the completion is discarded at the next
                    // drain (its disk_records check fails or the window
                    // is gone from the Stat table).
                    let late = !self.lane.is_idle() && self.lane.covers(&(key.to_vec(), window));
                    if late {
                        if let Some(p) = &self.prefetch_probe {
                            p.late.inc();
                        }
                    }
                    // When a sampled batch is active, the synchronous
                    // read a timely prefetch would have hidden is the
                    // batch's prefetch-stall share.
                    let stall_t0 = (late && flowkv_common::trace::current().is_some())
                        .then(std::time::Instant::now);
                    disk_values = self.predictive_batch_read(key, window)?;
                    if let Some(t0) = stall_t0 {
                        flowkv_common::trace::instant_here(
                            "prefetch_stall",
                            "prefetch",
                            &[("stall", t0.elapsed().as_nanos() as i64)],
                        );
                    }
                }
            }
            if let Some(stat) = self.stat.consume(key, window) {
                if let (Some(probe), Some(predicted)) = (&self.ett_probe, stat.ett) {
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
                self.data.retire(stat.disk_bytes);
                if stat.disk_records > 0 {
                    *Arc::make_mut(&mut self.consumed_records)
                        .entry(key.to_vec())
                        .or_default()
                        .entry(window)
                        .or_insert(0) += stat.disk_records;
                }
            }
        }
        let mem_values = self.take_buffered(key, window);
        let mut out = disk_values;
        out.extend(mem_values);
        self.metrics.add_records_read(out.len() as u64);
        // Compaction (paper §4.2, "Integrated Compaction") doubles as the
        // index-log trimmer: batch reads scan the live region of the
        // index log, so reclaiming dead entries promptly keeps those
        // scans short. One buffer's worth of data is the floor below
        // which rewriting is pointless.
        let floor = self.cfg.write_buffer_bytes as u64;
        if self.data.amplified(self.cfg.max_space_amplification, floor) {
            self.compact()?;
        }
        Ok(out)
    }

    /// Reads the values of `(key, window)` without consuming them.
    ///
    /// Disk state is loaded through the same predictive-batch-read
    /// machinery as [`AurStore::take`], but the window stays live: its
    /// Stat entry, disk records, and buffered values all remain, and the
    /// prefetched copy stays in the buffer for the eventual `take`.
    pub fn peek(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        {
            let _t = self.metrics.timer(OpCategory::Read);
            let has_disk = self
                .stat
                .get(key, window)
                .is_some_and(|s| s.disk_records > 0);
            if has_disk {
                if let Some(values) = self.prefetch.peek(key, window) {
                    self.metrics.add_prefetch_hit();
                    if let Some(p) = &self.prefetch_probe {
                        p.hits.inc();
                    }
                    out = values;
                } else {
                    let values = self.predictive_batch_read(key, window)?;
                    // Leave the copy in the buffer for the eventual take.
                    self.prefetch.extend((key.to_vec(), window), values.clone());
                    out = values;
                }
            }
        }
        if let Some(buffered) = self.buffer.get(&(key.to_vec(), window)) {
            out.extend(buffered.iter().cloned());
        }
        self.metrics.add_records_read(out.len() as u64);
        Ok(out)
    }

    /// Flushes the write buffer to the data and index logs.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Write);
        self.next_prefetch_scan = None;
        // Predicted-trigger order: windows that fire together are read
        // together, so they are written side by side — and the layout is
        // a function of the input, not of `HashMap` iteration order, so
        // a run's device-op sequence (and any fault planted in it)
        // replays.
        struct Group {
            ett: Option<Timestamp>,
            max_ts: Timestamp,
            state_key: StateKey,
            values: Vec<Vec<u8>>,
        }
        let mut groups: Vec<Group> = self
            .buffer
            .drain()
            .map(|(state_key, values)| {
                let stat = self.stat.get(&state_key.0, state_key.1);
                Group {
                    ett: stat.and_then(|s| s.ett),
                    max_ts: stat.map_or(Timestamp::MIN, |s| s.max_ts),
                    state_key,
                    values,
                }
            })
            .collect();
        groups.sort_unstable_by(|a, b| (a.ett, &a.state_key).cmp(&(b.ett, &b.state_key)));
        self.buffer_bytes = 0;
        for group in groups {
            let (max_ts, (key, window), values) = (group.max_ts, group.state_key, group.values);
            encode_values_into(&mut self.encode_buf, &values);
            let loc = self.data.append(&self.encode_buf)?;
            let entry = IndexEntry {
                key: key.clone(),
                window,
                max_ts,
                offset: loc.offset,
                len: loc.disk_len(),
                count: values.len() as u64,
            };
            entry.encode_into(&mut self.encode_buf);
            let index_loc = self.index.append(&self.encode_buf)?;
            self.metrics
                .add_bytes_written(loc.disk_len() + index_loc.disk_len());
            self.stat.add_disk(&key, window, loc.disk_len());
            // Keep prefetched copies complete: if this window already sits
            // in the prefetch buffer, the newly flushed values must follow
            // its older disk values.
            if self.prefetch.contains(&key, window) {
                self.prefetch.extend((key, window), values);
            }
        }
        self.data.flush()?;
        self.index.flush()?;
        self.metrics.add_flush();
        Ok(())
    }

    /// Copies every live `(key, window)` value list into `out` for the
    /// queryable-state registry (`flowkv_common::registry`).
    ///
    /// Works like a read-only replica of the predictive batch read's
    /// index scan: it walks the index log from the committed scan start,
    /// skips each state key's dead prefix of consumed records using a
    /// *local* counter map (never touching `consumed_records` or
    /// `index_scan_start`), loads the live locations in offset order, and
    /// finally appends buffered values after disk values — the same
    /// old-then-new order a `take` serves. The prefetch buffer is a pure
    /// cache of disk state and needs no special handling.
    pub fn collect_view(
        &mut self,
        out: &mut BTreeMap<(Vec<u8>, WindowId), ViewValue>,
    ) -> Result<()> {
        if !self.stat.is_empty() {
            if let Some(index_path) = self.index.flushed_path()? {
                let wanted: Vec<(u64, u64, StateKey)> = self
                    .scan_live_index("aur view scan", &index_path)?
                    .into_iter()
                    .map(|e| (e.offset, e.len, (e.key, e.window)))
                    .collect();
                if !wanted.is_empty() {
                    for ((key, window), values) in self.read_records("aur view read", wanted)? {
                        for value in values {
                            push_view_value(out, key.clone(), window, value)?;
                        }
                    }
                }
            }
        }
        for ((key, window), values) in &self.buffer {
            for value in values {
                push_view_value(out, key.clone(), *window, value.clone())?;
            }
        }
        Ok(())
    }

    /// Approximate bytes of state held in memory.
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes + self.prefetch.memory_bytes() + self.stat.memory_bytes()
    }

    /// Total bytes in the data log (live + dead), for tests and benches.
    pub fn data_log_bytes(&self) -> u64 {
        self.data.total()
    }

    /// Dead bytes awaiting compaction, for tests and benches.
    pub fn dead_bytes(&self) -> u64 {
        self.data.dead()
    }

    /// Number of windows currently held in the prefetch buffer.
    pub fn prefetched_windows(&self) -> usize {
        self.prefetch.len()
    }

    /// The current log generation (bumped by each compaction).
    pub fn generation(&self) -> u64 {
        self.index.generation()
    }

    /// Writes a self-contained snapshot into `dst`.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        // Not the MSA's call: consumed-record counts live in memory only
        // and a restore rebuilds liveness from the index log alone, so a
        // copy holding dead records would resurrect them. A checkpoint
        // that is a manifest over the live files (ROADMAP item 6) has to
        // persist those counts before this rewrite can go.
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
        self.buffer.clear();
        self.buffer_bytes = 0;
        self.stat.clear();
        self.prefetch.clear();
        Arc::make_mut(&mut self.consumed_records).clear();
        self.index_scan_start = 0;
        self.data.destroy();
        self.index.destroy();
        Ok(())
    }

    /// Removes and returns the buffered (unflushed) values of a window.
    fn take_buffered(&mut self, key: &[u8], window: WindowId) -> Vec<Vec<u8>> {
        match self.buffer.remove(&(key.to_vec(), window)) {
            Some(values) => {
                self.buffer_bytes = self.buffer_bytes.saturating_sub(
                    values
                        .iter()
                        .map(|v| key.len() + v.len() + 56)
                        .sum::<usize>(),
                );
                values
            }
            None => Vec::new(),
        }
    }

    /// The predictive batch read (paper §4.2): one index-log scan loads
    /// the target window plus the `N` windows closest to triggering.
    fn predictive_batch_read(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.metrics.add_prefetch_miss();
        let Some(index_path) = self.index.flushed_path()? else {
            return Ok(Vec::new());
        };

        // Select the N soonest-triggering windows beyond the target,
        // plus every window already due at the target's trigger time.
        let n = (self.cfg.read_batch_ratio * self.stat.len() as f64).ceil() as usize;
        // Everything due by the store's view of stream time will be read
        // imminently; load it in this same sequential scan. A read batch
        // ratio of zero disables prefetching entirely (paper §6.4).
        let due_ett = if self.cfg.read_batch_ratio > 0.0 {
            let target_ett = self.stat.get(key, window).and_then(|s| s.ett);
            Some(target_ett.unwrap_or(Timestamp::MIN).max(self.latest_ts))
        } else {
            None
        };
        // Nested selection set so the scan can probe with borrowed keys.
        // Windows already prefetched are skipped — their data is
        // resident. Windows with an in-flight background read are NOT
        // skipped: this scan is already paying the sequential pass, and
        // deferring to a ring read that may land after the trigger (or
        // be invalidated by a flush or compaction) trades a certain hit
        // for a maybe — the slower completion is simply discarded as
        // wasted at drain time.
        let mut selected: HashMap<Vec<u8>, HashSet<WindowId>> = HashMap::new();
        for (k, w) in self.stat.select_soonest(n, due_ett, |k, w| {
            self.prefetch.contains(k, w) || (k == key && w == window)
        }) {
            selected.entry(k).or_default().insert(w);
        }
        selected.entry(key.to_vec()).or_default().insert(window);

        // One sequential scan of the index log collects the locations of
        // every selected window's live records.
        let mut wanted: Vec<(u64, u64, StateKey)> = Vec::new();
        let walk = walk_index(
            &self.vfs,
            &index_path,
            self.index_scan_start,
            None,
            |key, window| dead_prefix_of(&self.consumed_records, key, window),
            |entry| {
                let is_selected = selected
                    .get(entry.key)
                    .is_some_and(|ws| ws.contains(&entry.window));
                if is_selected && self.stat.get(entry.key, entry.window).is_some() {
                    wanted.push((entry.offset, entry.len, (entry.key.to_vec(), entry.window)));
                }
            },
        )?;
        self.metrics.add_bytes_read(walk.scanned_bytes);
        // Commit the advanced scan start: future scans skip the dead run
        // at the head for good, and its entries leave the per-key
        // dead-prefix accounting.
        self.index_scan_start = walk.live_start;
        if !walk.dead_run.is_empty() {
            let consumed = Arc::make_mut(&mut self.consumed_records);
            for (key, window) in walk.dead_run {
                if let Some(ws) = consumed.get_mut(&key) {
                    if let Some(count) = ws.get_mut(&window) {
                        *count -= 1;
                        if *count == 0 {
                            ws.remove(&window);
                        }
                    }
                    if ws.is_empty() {
                        consumed.remove(&key);
                    }
                }
            }
        }

        load_values(
            self.data.reader()?,
            wanted,
            |state_key, values, disk_len| {
                self.metrics.add_bytes_read(disk_len);
                self.prefetch.extend(state_key, values);
            },
        )?;
        Ok(self.prefetch.take(key, window).unwrap_or_default())
    }

    /// The entries of a generation's index log that belong to live
    /// windows, in log order — the scan of `collect_view` and `compact`,
    /// run on the lane. The walk skips dead prefixes; Stat liveness is
    /// applied here because a lane job can't touch the store's `Stat`.
    /// Commits nothing: `consumed_records` and `index_scan_start` stay
    /// as they are.
    fn scan_live_index(&self, context: &'static str, path: &Path) -> Result<Vec<IndexEntry>> {
        let scan_start = self.index_scan_start;
        let consumed = Arc::clone(&self.consumed_records);
        let job_path = path.to_path_buf();
        let mut live = self
            .lane
            .read_through(move |vfs| {
                let mut live: Vec<IndexEntry> = Vec::new();
                walk_index(
                    vfs,
                    &job_path,
                    scan_start,
                    None,
                    |key, window| dead_prefix_of(&consumed, key, window),
                    |entry| live.push(entry.to_owned()),
                )?;
                Ok(live)
            })
            .map_err(|e| StoreError::io_at(context, path, e))?;
        live.retain(|e| self.stat.get(&e.key, e.window).is_some());
        Ok(live)
    }

    /// Reads the data-log records at `wanted` (`(offset, on-disk length,
    /// state key)`) on the lane.
    fn read_records(
        &mut self,
        context: &'static str,
        wanted: Vec<(u64, u64, StateKey)>,
    ) -> Result<Vec<(StateKey, Vec<Vec<u8>>)>> {
        self.data.flush()?;
        let data_path = self.data.path();
        let job_path = data_path.clone();
        self.lane
            .read_through(move |vfs| {
                let mut loaded = Vec::with_capacity(wanted.len());
                let mut data = RandomAccessLog::open_in(vfs, &job_path)?;
                load_values(&mut data, wanted, |sk, values, _| loaded.push((sk, values)))?;
                Ok(loaded)
            })
            .map_err(|e| StoreError::io_at(context, &data_path, e))
    }

    /// Drives the background prefetcher (called by the engine at batch
    /// and watermark boundaries): drains finished ring reads into the
    /// prefetch buffer, then schedules reads for every window whose
    /// ETT-predicted trigger falls within the horizon of `stream_time`.
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
        if !done.is_empty() {
            self.next_prefetch_scan = None;
        }
        for batch in done.into_iter().flatten() {
            self.install(batch);
        }
    }

    /// Installs a background read's windows into the prefetch buffer,
    /// discarding any whose state moved underneath the read. The checks
    /// mirror exactly what can change between submit and drain: a
    /// compaction or restore (generation/epoch), a consume (Stat entry
    /// gone), or a flush adding records (disk_records advanced).
    fn install(&mut self, batch: AsyncBatch) {
        let stale = batch.generation != self.index.generation() || batch.epoch != self.epoch;
        let mut installed = 0i64;
        for w in batch.windows {
            if stale {
                self.lane.waste(w.bytes);
                continue;
            }
            match self.stat.get(&w.key, w.window) {
                Some(s)
                    if s.disk_records == w.disk_records
                        && w.found_records == w.disk_records
                        && !self.prefetch.contains(&w.key, w.window) =>
                {
                    self.metrics.add_bytes_read(w.bytes);
                    self.prefetch.extend((w.key, w.window), w.values);
                    installed += 1;
                }
                // Grown, already resident, or consumed under the read.
                // A consumed window is not counted late here: if its
                // trigger beat this read, `take` counted it then; if a
                // synchronous batch served it as a hit, nothing was late.
                _ => self.lane.waste(w.bytes),
            }
        }
        self.lane.installed(installed);
    }

    /// Submits one background read covering every window due within the
    /// prefetch horizon, bounded by the byte budget. The job replays the
    /// synchronous predictive batch read's index scan against a
    /// consistent snapshot (scan start, dead-prefix counters, index
    /// length) and never mutates store state — all bookkeeping commits
    /// happen at drain time on the worker thread.
    fn submit_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        let lane = &mut self.lane;
        // Nothing to plan for a lane that admits no read at all.
        if self.cfg.read_batch_ratio <= 0.0 || self.stat.is_empty() || !lane.admits(0, 0) {
            return Ok(());
        }
        // One scan in flight per store: each job replays the index scan,
        // so stacking a fresh submission on every tick while earlier
        // ones are still running multiplies that scan instead of
        // advancing it. The next tick after the drain tops up coverage.
        if !lane.is_idle() {
            return Ok(());
        }
        let due = lane.due(stream_time.max(self.latest_ts));
        if self.next_prefetch_scan.is_some_and(|at| due < at) {
            return Ok(());
        }
        let candidates = self
            .stat
            .select_soonest(0, Some(due), |k, w| self.prefetch.contains(k, w));
        self.next_prefetch_scan = Some(self.stat.next_due_after(due));
        if candidates.is_empty() {
            return Ok(());
        }
        let resident = self.prefetch.memory_bytes() as u64;
        let mut est_bytes = 0u64;
        let mut cands: Vec<(Vec<u8>, WindowId, u64)> = Vec::new();
        for (k, w) in candidates {
            // A window with unflushed buffered values is a guaranteed
            // waste: the flush that carries them advances disk_records,
            // failing the install check. Prefetch it once it is fully
            // on disk.
            let sk = (k, w);
            if self.buffer.contains_key(&sk) {
                continue;
            }
            let (k, w) = sk;
            let Some(s) = self.stat.get(&k, w) else {
                continue;
            };
            if !lane.admits(resident + est_bytes, s.disk_bytes) {
                // The rest become admissible as triggers drain the
                // prefetch buffer, which no event announces.
                self.next_prefetch_scan = None;
                break;
            }
            est_bytes += s.disk_bytes;
            cands.push((k, w, s.disk_records));
        }
        if cands.is_empty() {
            return Ok(());
        }
        // Push buffered log bytes to the files and bound the scan at the
        // current end of the index log, so the background read never
        // races a concurrent foreground flush into a torn tail.
        let Some(index_path) = self.index.flushed_path()? else {
            return Ok(());
        };
        self.data.flush()?;
        let index_limit = self.index.total();
        let data_path = self.data.path();
        let scan_start = self.index_scan_start;
        let generation = self.index.generation();
        let epoch = self.epoch;
        // Per selected window: its slot in the batch and how many of its
        // leading index entries are dead. The job consults the
        // dead-prefix counters of selected windows only, so only those
        // travel with it.
        let mut selected: HashMap<Vec<u8>, HashMap<WindowId, (usize, u64)>> = HashMap::new();
        for (i, (k, w, _)) in cands.iter().enumerate() {
            let dead_prefix = dead_prefix_of(&self.consumed_records, k, *w);
            selected
                .entry(k.clone())
                .or_default()
                .insert(*w, (i, dead_prefix));
        }
        let keys: Vec<StateKey> = cands.iter().map(|(k, w, _)| (k.clone(), *w)).collect();
        lane.submit(keys, est_bytes, move |vfs| {
            let mut out: Vec<AsyncWindow> = cands
                .into_iter()
                .map(|(key, window, disk_records)| AsyncWindow {
                    key,
                    window,
                    disk_records,
                    found_records: 0,
                    values: Vec::new(),
                    bytes: 0,
                })
                .collect();
            // The walk stops before `index_limit`, the end of the index
            // log at submission. Unselected windows report no dead
            // prefix and are dropped by the visitor.
            let slot_of = |key: &[u8], window: WindowId| {
                selected.get(key).and_then(|ws| ws.get(&window)).copied()
            };
            let mut wanted: Vec<(u64, u64, usize)> = Vec::new();
            walk_index(
                vfs,
                &index_path,
                scan_start,
                Some(index_limit),
                |key, window| slot_of(key, window).map_or(0, |(_, dead_prefix)| dead_prefix),
                |entry| {
                    if let Some((idx, _)) = slot_of(entry.key, entry.window) {
                        wanted.push((entry.offset, entry.len, idx));
                    }
                },
            )?;
            if !wanted.is_empty() {
                let mut data = RandomAccessLog::open_in(vfs, &data_path)?;
                load_values(&mut data, wanted, |idx, values, disk_len| {
                    let slot = &mut out[idx];
                    slot.bytes += disk_len;
                    slot.found_records += 1;
                    slot.values.extend(values);
                })?;
            }
            Ok(AsyncBatch {
                generation,
                epoch,
                windows: out,
            })
        });
        Ok(())
    }

    /// Rewrites the data log keeping only live records (byte-range
    /// relocation without decoding, paper §5), and the index log to
    /// match.
    fn compact(&mut self) -> Result<()> {
        let _t = self.metrics.timer(OpCategory::Compaction);
        // Live entries in append order, each state key's dead prefix of
        // consumed records skipped (everything before `index_scan_start`
        // is known dead).
        let mut live = match self.index.flushed_path()? {
            Some(path) => self.scan_live_index("aur compact scan", &path)?,
            None => Vec::new(),
        };
        let locations: Vec<(u64, u64)> = live.iter().map(|e| (e.offset, e.len)).collect();
        let data = self.data.relocate(&locations, |i, offset| {
            live[i].offset = offset;
            Ok(())
        })?;
        let entries: Vec<Vec<u8>> = live.iter().map(IndexEntry::encode).collect();
        let index = self.index.replace(&entries)?;
        // Data before index: reopening takes the index's generation for
        // both, so a fault between the two renames finds the old pair.
        GenLog::commit([(&mut self.data, data), (&mut self.index, index)])?;
        let moved = self.data.total();
        self.metrics.add_bytes_read(moved);
        self.metrics.add_bytes_written(moved);
        self.metrics.add_compaction();
        // The rewrite dropped every dead record.
        Arc::make_mut(&mut self.consumed_records).clear();
        self.index_scan_start = 0;
        Ok(())
    }

    /// Rebuilds the Stat table and byte accounting from the index log.
    ///
    /// A crash mid-flush may leave data records the index never came to
    /// list (its torn tail is truncated at open): dead weight for the
    /// next compaction.
    fn rebuild_from_index(&mut self) -> Result<()> {
        self.stat.clear();
        self.prefetch.clear();
        self.next_prefetch_scan = None;
        Arc::make_mut(&mut self.consumed_records).clear();
        self.index_scan_start = 0;
        let mut indexed = 0u64;
        self.index.scan(|_, payload| {
            let entry = IndexEntry::decode(payload)?;
            self.latest_ts = self.latest_ts.max(entry.max_ts);
            self.stat.rebuild_entry(
                &entry.key,
                entry.window,
                entry.max_ts,
                entry.len,
                &self.predictor,
            );
            indexed += entry.len;
            Ok(())
        })?;
        self.data.retire(self.data.total().saturating_sub(indexed));
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
    fn wrong_ett_evicts_prefetched_state() {
        let dir = ScratchDir::new("aur-evict").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        for key in [b"a" as &[u8], b"b"] {
            s.append(key, w(0, 1000), b"v1", 10).unwrap();
        }
        s.flush().unwrap();
        // Prefetch both windows by reading `a`.
        s.take(b"a", w(0, 1000)).unwrap();
        assert!(s.prefetch.contains(b"b", w(0, 1000)));
        // A late tuple for `b` invalidates its estimate.
        s.append(b"b", w(0, 1000), b"v2", 50).unwrap();
        assert!(!s.prefetch.contains(b"b", w(0, 1000)));
        assert_eq!(s.metrics.snapshot().prefetch_evictions, 1);
        // The read still returns complete, ordered state.
        assert_eq!(
            s.take(b"b", w(0, 1000)).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
    }

    #[test]
    fn flush_into_prefetched_window_stays_complete() {
        let dir = ScratchDir::new("aur-flushpref").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        s.append(b"a", w(0, 1000), b"v", 10).unwrap();
        s.append(b"b", w(0, 1000), b"b1", 10).unwrap();
        s.flush().unwrap();
        s.take(b"a", w(0, 1000)).unwrap();
        assert!(s.prefetch.contains(b"b", w(0, 1000)));
        // Appending to `b` evicts; re-buffer and flush while NOT
        // prefetched, then reread: order must be b1, b2.
        s.append(b"b", w(0, 1000), b"b2", 20).unwrap();
        s.flush().unwrap();
        assert_eq!(
            s.take(b"b", w(0, 1000)).unwrap(),
            vec![b"b1".to_vec(), b"b2".to_vec()]
        );
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

    /// Validates the paper's Equation 1: with hit ratio `r`, each tuple
    /// is read `1/r` times on average.
    #[test]
    fn read_amplification_follows_equation_one() {
        // (a) Mechanism: an evicted prefetch forces exactly one re-read.
        let dir = ScratchDir::new("aur-eq1").unwrap();
        let mut s = session_store(dir.path(), cfg_small());
        for key in [b"a" as &[u8], b"b"] {
            s.append(key, w(0, 1000), b"v1", 10).unwrap();
        }
        s.flush().unwrap();
        // Reading `a` prefetches `b`; appending to `b` evicts it; the
        // later read of `b` must go back to disk (a second miss).
        s.take(b"a", w(0, 1000)).unwrap();
        s.append(b"b", w(0, 1000), b"v2", 50).unwrap();
        s.take(b"b", w(0, 1000)).unwrap();
        let m = s.metrics.snapshot();
        assert_eq!(m.prefetch_evictions, 1);
        assert_eq!(m.prefetch_misses, 2, "eviction must force a re-read");

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
        assert_eq!(s.stat.get(b"k", w(0, 100)).unwrap().ett, Some(142));
        assert_eq!(s.take(b"k", w(0, 100)).unwrap(), vec![b"v".to_vec()]);
    }

    fn ring_store(dir: &Path) -> (AurStore, Arc<IoRing>) {
        let s = session_store(dir, cfg_small());
        let ring = Arc::new(IoRing::new(s.vfs.clone(), 2));
        let s = s.with_ring(ring.clone(), 7);
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
        let ring = (width > 0).then(|| Arc::new(IoRing::new(s.vfs.clone(), width)));
        if let Some(ring) = &ring {
            s = s.with_ring(Arc::clone(ring), 7);
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

            // The walker itself.
            let (_dir, s, _) = walk_case_store(case, 0);
            let index = s.index.path();
            let limit = s.index.total();
            let walk = |limit: Option<u64>| {
                let mut visited: Vec<Vec<u8>> = Vec::new();
                walk_index(
                    &s.vfs,
                    &index,
                    s.index_scan_start,
                    limit,
                    |key, window| dead_prefix_of(&s.consumed_records, key, window),
                    |entry| visited.push(entry.key.to_vec()),
                )
                .map(|walk| (walk, visited))
            };
            let (bounded, mut visited) = walk(Some(limit)).unwrap();
            visited.sort();
            let keys: Vec<Vec<u8>> = expected.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(visited, keys, "{name}: live entries");
            assert_eq!(bounded.dead_run.len(), case.dead_run, "{name}: dead run");
            assert_eq!(
                bounded.live_start > s.index_scan_start,
                case.dead_run > 0,
                "{name}: the scan start moves exactly past a leading dead run"
            );
            assert!(bounded.scanned_bytes > 0 && bounded.scanned_bytes <= limit);
            match walk(None) {
                Err(e) => assert!(case.torn_tail && e.is_corruption(), "{name}: {e}"),
                Ok((unbounded, _)) => {
                    assert!(!case.torn_tail, "{name}: walked into the torn tail");
                    assert_eq!(unbounded.live_start, bounded.live_start, "{name}");
                }
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
                // The synchronous batch read, which alone commits the
                // advanced scan start.
                let (_dir, mut s, _ring) = walk_case_store(case, width);
                assert_eq!(take_all(&mut s, case), expected, "{name}: sync/{width}");
                assert_eq!(
                    s.index_scan_start > 0,
                    case.dead_run > 0,
                    "{name}: sync/{width}"
                );

                // The serving view, which commits nothing.
                let (_dir, mut s, _ring) = walk_case_store(case, width);
                let consumed_before = Arc::clone(&s.consumed_records);
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
                assert_eq!(s.index_scan_start, 0, "{name}: view/{width}");
                assert!(
                    Arc::ptr_eq(&consumed_before, &s.consumed_records),
                    "{name}: view/{width} copied the dead-prefix counters"
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
        let ring = Arc::new(IoRing::new(s.vfs.clone(), 1));
        let (release, gate) = std::sync::mpsc::channel::<()>();
        ring.submit(
            u64::MAX,
            Box::new(move |_| {
                let _ = gate.recv();
                Ok(Box::new(()) as _)
            }),
        );
        (s.with_ring(ring.clone(), 7), ring, telemetry, release)
    }

    fn counter(telemetry: &Telemetry, name: &str) -> u64 {
        let name = format!("{name}{{store=t/p0}}");
        let samples = telemetry.registry().snapshot();
        match samples.iter().find(|s| s.name == name).map(|s| &s.value) {
            Some(flowkv_common::telemetry::SampleValue::Counter(v)) => *v,
            _ => panic!("{name} is not a registered counter"),
        }
    }

    #[test]
    fn a_trigger_that_beats_its_read_is_late_once() {
        let dir = ScratchDir::new("aur-ring-late").unwrap();
        let (mut s, ring, telemetry, release) = gated_ring_store(dir.path());
        s.append(b"a", w(0, 100), b"v1", 10).unwrap();
        s.flush().unwrap();
        s.advance_prefetch(50).unwrap();
        // The trigger beats the parked read: counted late here, served
        // synchronously.
        assert_eq!(s.take(b"a", w(0, 100)).unwrap(), vec![b"v1".to_vec()]);
        assert_eq!(counter(&telemetry, "prefetch_late_total"), 1);
        // The completion then finds the window consumed: waste, and not
        // a second late.
        release.send(()).unwrap();
        ring.wait_idle();
        s.advance_prefetch(50).unwrap();
        assert_eq!(counter(&telemetry, "prefetch_late_total"), 1);
        assert!(counter(&telemetry, "prefetch_wasted_bytes") > 0);
    }

    #[test]
    fn a_window_served_as_a_hit_under_an_inflight_read_is_waste_not_late() {
        let dir = ScratchDir::new("aur-ring-hit-waste").unwrap();
        let (mut s, ring, telemetry, release) = gated_ring_store(dir.path());
        for (key, ts) in [(b"a", 10), (b"b", 20), (b"c", 30)] {
            s.append(key, w(0, 100), b"v", ts).unwrap();
        }
        s.flush().unwrap();
        // `c` has unflushed values, so the submission covers `a` and `b`
        // only; its own trigger then runs a synchronous batch read that
        // loads `a` and `b` while the ring read for them is still parked.
        s.append(b"c", w(0, 100), b"v2", 40).unwrap();
        s.advance_prefetch(50).unwrap();
        assert_eq!(s.take(b"c", w(0, 100)).unwrap().len(), 2);
        assert_eq!(s.take(b"a", w(0, 100)).unwrap(), vec![b"v".to_vec()]);
        assert_eq!(counter(&telemetry, "prefetch_hits_total"), 1);
        release.send(()).unwrap();
        ring.wait_idle();
        s.advance_prefetch(50).unwrap();
        assert_eq!(counter(&telemetry, "prefetch_late_total"), 0);
        assert!(counter(&telemetry, "prefetch_wasted_bytes") > 0);
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
        let ring = Arc::new(IoRing::new(s.vfs.clone(), 1));
        let mut s = s.with_ring(ring.clone(), 7);
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
