//! Two-tier hot/cold state layout behind the [`StateBackend`] seam.
//!
//! [`TieredStore`] wraps *any* state backend: the wrapped store is the
//! pinned hot tier holding the windows most likely to trigger next,
//! while sealed cold windows are demoted into compressed columnar blocks
//! ([`flowkv_common::columnar`]) appended to a single cold log on the
//! [`Vfs`] seam. The store already knows the schema — pattern, window,
//! key — so demotion consumes the hot tier with the same pattern-legal
//! calls the engine would issue (AAR window drains, AUR per-key takes,
//! RMW aggregate takes), and promotion replays cold rows *ahead of* any
//! hotter rows appended since, preserving per-key append order exactly.
//!
//! Key mechanics:
//!
//! - **Demotion** triggers on write paths whenever the wrapper-tracked
//!   hot footprint exceeds [`TierConfig::hot_bytes`] and always demotes
//!   the coldest (earliest-ending) windows first. `hot_bytes = 0` is the
//!   pathological forced-demotion cell of the differential tier harness:
//!   every write immediately seals to a cold block.
//! - **Promotion** happens lazily on the first access that touches a
//!   window with cold blocks. Block reads route through the background
//!   I/O ring when one is configured ([`OperatorContext::io`]), and
//!   [`TieredStore::advance_prefetch`] pre-submits reads for cold
//!   windows whose end falls within the prefetch horizon so the read
//!   overlaps compute.
//! - **Compaction** rewrites the cold log sequentially once promoted
//!   (dead) blocks dominate, exactly like the MSA scan it mirrors:
//!   surviving blocks are copied in window order to a fresh log which
//!   atomically replaces the old one.
//! - **Checkpoints** seal every hot window into the cold tier first, so
//!   a snapshot is the inner store's (empty) checkpoint plus the cold
//!   log and a CRC-guarded `TIERMETA` index — and restore is the exact
//!   reverse. [`StateBackend::extract_range`] / `inject_entries` merge
//!   both tiers (cold rows first), so rescaling migrates cold state
//!   losslessly.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::backend::{
    AggregateKind, KeyFilter, OperatorContext, StateBackend, StateBackendFactory, StateEntry,
    WindowChunk,
};
use flowkv_common::codec::{self, Decoder};
use flowkv_common::columnar::{self, BlockKind, ColdRow};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::{IoRing, Lane};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::registry::{StateView, ViewValue};
use flowkv_common::telemetry::{Counter, Gauge, MetricRegistry, Telemetry};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{StdVfs, Vfs, VfsFile};

/// Magic prefix of the `TIERMETA` checkpoint sidecar.
const META_MAGIC: [u8; 4] = *b"FKTM";
/// Current `TIERMETA` format version.
const META_VERSION: u8 = 1;
/// Ring routing tag for tier block reads.
const TIER_RING_TAG: u64 = 0xC0_1D;
/// Name of the cold log inside the tier's partition directory.
const COLD_LOG: &str = "cold.log";
/// Checkpoint file names.
const CKPT_COLD: &str = "COLDLOG";
const CKPT_META: &str = "TIERMETA";
/// Subdirectory of a checkpoint holding the inner store's snapshot.
const CKPT_HOT: &str = "hot";

/// Tuning knobs of the tiered layout.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Hot-tier budget in bytes (keys + values + 8-byte timestamps of
    /// state resident in the wrapped store). Writes that push the
    /// footprint past the budget trigger a demotion wave. `0` demotes
    /// everything on every write — the harness's pathological cell.
    pub hot_bytes: usize,
    /// Dictionary-encode the value column of cold blocks (keys and
    /// timestamps are always dictionary/delta-encoded).
    pub compress: bool,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            hot_bytes: 32 << 20,
            compress: true,
        }
    }
}

impl TierConfig {
    /// A config with the given hot budget and defaults elsewhere.
    pub fn new(hot_bytes: usize) -> Self {
        TierConfig {
            hot_bytes,
            ..TierConfig::default()
        }
    }
}

/// Location of one cold block inside the cold log.
#[derive(Clone, Copy, Debug)]
struct BlockRef {
    /// Offset of the block payload (past the 4-byte length frame).
    offset: u64,
    /// Payload length in bytes.
    len: u32,
    /// Rows inside, for accounting.
    rows: u32,
}

/// What a prefetch read yields: the window and the payloads of the
/// blocks it had at submission.
type PrefetchedBlocks = (WindowId, Vec<Vec<u8>>);

/// The one cold-block reader: the payloads of `refs` from the cold log
/// at `path`, in order. Every cold read is this function run as a lane
/// job — blocking ([`TieredStore::read_blocks`]) or ahead of the
/// trigger (`advance_prefetch`).
fn read_blocks_in(vfs: &Arc<dyn Vfs>, path: &Path, refs: &[BlockRef]) -> Result<Vec<Vec<u8>>> {
    let file = vfs.open_read(path)?;
    let mut out = Vec::with_capacity(refs.len());
    for r in refs {
        let mut buf = vec![0u8; r.len as usize];
        file.read_exact_at(&mut buf, r.offset)?;
        out.push(buf);
    }
    Ok(out)
}

/// Per-key hot-tier bookkeeping.
struct KeyTrack {
    /// The key's place in [`HotWindow::order`].
    seq: u64,
    /// Append timestamp per resident row (one entry for aggregates).
    ts: Vec<Timestamp>,
    /// Bytes this key's rows charge against the hot budget.
    bytes: usize,
}

/// Hot-tier bookkeeping of one window: which keys hold live rows in the
/// wrapped store, in first-append order (the demotion scan order).
#[derive(Default)]
struct HotWindow {
    keys: HashMap<Vec<u8>, KeyTrack>,
    /// Live keys by the sequence number of their first append. A
    /// consuming read drops its key in O(log n) — RMW takes and re-puts
    /// a key per tuple, so a scan of the window's keys there would make
    /// the tier quadratic — and a key appended again afterwards joins at
    /// the back.
    order: BTreeMap<u64, Vec<u8>>,
    next_seq: u64,
    bytes: usize,
}

impl HotWindow {
    /// The tracker of `key`, joining the back of the order when new.
    fn track(&mut self, key: &[u8]) -> &mut KeyTrack {
        if !self.keys.contains_key(key) {
            self.order.insert(self.next_seq, key.to_vec());
            self.keys.insert(
                key.to_vec(),
                KeyTrack {
                    seq: self.next_seq,
                    ts: Vec::new(),
                    bytes: 0,
                },
            );
            self.next_seq += 1;
        }
        self.keys.get_mut(key).expect("inserted above")
    }
}

/// `tier_*` telemetry family (registered on the job hub when present).
struct TierCounters {
    demotions: Arc<Counter>,
    demoted_rows: Arc<Counter>,
    promotions: Arc<Counter>,
    promoted_rows: Arc<Counter>,
    cold_bytes_written: Arc<Counter>,
    uncompressed_bytes: Arc<Counter>,
    cold_blocks: Arc<Counter>,
    compactions: Arc<Counter>,
    compaction_reclaimed: Arc<Counter>,
    prefetch_submitted: Arc<Counter>,
    prefetch_hits: Arc<Counter>,
    prefetch_wasted: Arc<Counter>,
    hot_resident: Arc<Gauge>,
    cold_live: Arc<Gauge>,
    cold_dead: Arc<Gauge>,
}

impl TierCounters {
    fn new(telemetry: Option<&Arc<Telemetry>>) -> Self {
        // Without a hub the counters still exist (cheap atomics) so the
        // store logic never branches on instrumentation.
        let local;
        let reg = match telemetry {
            Some(t) => t.registry(),
            None => {
                local = MetricRegistry::new();
                &local
            }
        };
        TierCounters {
            demotions: reg.counter("tier_demotions_total"),
            demoted_rows: reg.counter("tier_demoted_rows_total"),
            promotions: reg.counter("tier_promotions_total"),
            promoted_rows: reg.counter("tier_promoted_rows_total"),
            cold_bytes_written: reg.counter("tier_cold_bytes_written_total"),
            uncompressed_bytes: reg.counter("tier_uncompressed_bytes_total"),
            cold_blocks: reg.counter("tier_cold_blocks_total"),
            compactions: reg.counter("tier_compactions_total"),
            compaction_reclaimed: reg.counter("tier_compaction_reclaimed_bytes_total"),
            prefetch_submitted: reg.counter("tier_prefetch_submitted_total"),
            prefetch_hits: reg.counter("tier_prefetch_hits_total"),
            prefetch_wasted: reg.counter("tier_prefetch_wasted_total"),
            hot_resident: reg.gauge("tier_hot_resident_bytes"),
            cold_live: reg.gauge("tier_cold_live_bytes"),
            cold_dead: reg.gauge("tier_cold_dead_bytes"),
        }
    }
}

/// A [`StateBackend`] that splits state between a wrapped hot store and
/// a compressed columnar cold log. See the module docs for the layout.
pub struct TieredStore {
    inner: Box<dyn StateBackend>,
    cfg: TierConfig,
    aggregate: AggregateKind,
    aligned: bool,
    vfs: Arc<dyn Vfs>,
    cold_dir: PathBuf,
    cold_path: PathBuf,
    cold_file: Option<Box<dyn VfsFile>>,
    cold_len: u64,
    /// Cold blocks per window, in demotion (append) order.
    index: BTreeMap<WindowId, Vec<BlockRef>>,
    live_bytes: u64,
    dead_bytes: u64,
    hot: BTreeMap<WindowId, HotWindow>,
    hot_bytes: usize,
    /// The lane every cold read runs on, keyed by window: over the
    /// tier's own I/O ring when [`OperatorContext::io`] asks for
    /// threads, without threads (cold reads synchronous) otherwise.
    lane: Lane<WindowId, PrefetchedBlocks>,
    /// Completed prefetches awaiting promotion: raw block payloads.
    prefetched: HashMap<WindowId, Vec<Vec<u8>>>,
    prefetched_bytes: u64,
    counters: TierCounters,
    store_metrics: Arc<StoreMetrics>,
}

impl TieredStore {
    /// Wraps `inner` for the operator of `ctx`, keeping cold blocks in a
    /// sibling `tier/` tree so the inner store's directory scans never
    /// see foreign files.
    pub fn new(
        inner: Box<dyn StateBackend>,
        ctx: &OperatorContext,
        cfg: TierConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let cold_dir = ctx
            .data_dir
            .join("tier")
            .join(&ctx.operator)
            .join(format!("p{}", ctx.partition));
        vfs.create_dir_all(&cold_dir)
            .map_err(|e| StoreError::io_at("tier dir", &cold_dir, e))?;
        let cold_path = cold_dir.join(COLD_LOG);
        let lane = match ctx.io.as_ref().filter(|p| p.threads > 0) {
            Some(p) => {
                let ring = IoRing::with_telemetry(
                    Arc::clone(&vfs),
                    p.threads,
                    p.shuffle_seed,
                    ctx.telemetry.clone(),
                );
                Lane::new(Arc::new(ring), TIER_RING_TAG)
            }
            None => Lane::inline(Arc::clone(&vfs)),
        };
        let store_metrics = inner.metrics();
        Ok(TieredStore {
            inner,
            aggregate: ctx.semantics.aggregate,
            aligned: ctx.semantics.window.is_aligned(),
            vfs,
            cold_dir,
            cold_path,
            cold_file: None,
            cold_len: 0,
            index: BTreeMap::new(),
            live_bytes: 0,
            dead_bytes: 0,
            hot: BTreeMap::new(),
            hot_bytes: 0,
            lane,
            prefetched: HashMap::new(),
            prefetched_bytes: 0,
            counters: TierCounters::new(ctx.telemetry.as_ref()),
            store_metrics,
            cfg,
        })
    }

    fn io_err(&self, context: &'static str, e: std::io::Error) -> StoreError {
        StoreError::io_at(context, &self.cold_path, e)
    }

    // ---- hot-tier bookkeeping -------------------------------------------

    fn track_append(&mut self, key: &[u8], window: WindowId, value_len: usize, ts: Timestamp) {
        let hw = self.hot.entry(window).or_default();
        let cost = key.len() + value_len + 8;
        let kt = hw.track(key);
        kt.ts.push(ts);
        kt.bytes += cost;
        hw.bytes += cost;
        self.hot_bytes += cost;
    }

    fn track_put(&mut self, key: &[u8], window: WindowId, value_len: usize, ts: Timestamp) {
        let hw = self.hot.entry(window).or_default();
        let cost = key.len() + value_len + 8;
        // A put replaces whatever the key held.
        let kt = hw.track(key);
        let replaced = std::mem::replace(&mut kt.bytes, cost);
        kt.ts.clear();
        kt.ts.push(ts);
        hw.bytes = hw.bytes - replaced + cost;
        self.hot_bytes = self.hot_bytes - replaced + cost;
    }

    fn untrack_key(&mut self, key: &[u8], window: WindowId) {
        if let Some(hw) = self.hot.get_mut(&window) {
            if let Some(kt) = hw.keys.remove(key) {
                hw.bytes -= kt.bytes;
                self.hot_bytes -= kt.bytes;
                hw.order.remove(&kt.seq);
            }
            if hw.keys.is_empty() {
                self.hot.remove(&window);
            }
        }
    }

    fn untrack_window(&mut self, window: WindowId) {
        if let Some(hw) = self.hot.remove(&window) {
            self.hot_bytes -= hw.bytes;
        }
    }

    fn update_gauges(&self) {
        self.counters.hot_resident.set(self.hot_bytes as i64);
        self.counters.cold_live.set(self.live_bytes as i64);
        self.counters.cold_dead.set(self.dead_bytes as i64);
    }

    // ---- cold log I/O ---------------------------------------------------

    fn open_cold_for_append(&mut self) -> Result<()> {
        if self.cold_file.is_some() {
            return Ok(());
        }
        let file = if self.vfs.exists(&self.cold_path) {
            self.vfs.open_rw(&self.cold_path)
        } else {
            self.vfs.create(&self.cold_path)
        }
        .map_err(|e| StoreError::io_at("tier cold log open", &self.cold_path, e))?;
        self.cold_len = file
            .len()
            .map_err(|e| StoreError::io_at("tier cold log len", &self.cold_path, e))?;
        self.cold_file = Some(file);
        Ok(())
    }

    fn append_block(&mut self, window: WindowId, blob: &[u8], rows: usize) -> Result<()> {
        self.open_cold_for_append()?;
        let mut framed = Vec::with_capacity(blob.len() + 4);
        codec::put_u32(&mut framed, blob.len() as u32);
        framed.extend_from_slice(blob);
        let file = self.cold_file.as_mut().expect("opened above");
        file.write_all_at(&framed, self.cold_len)
            .map_err(|e| StoreError::io_at("tier cold log append", &self.cold_path, e))?;
        let offset = self.cold_len + 4;
        self.cold_len += framed.len() as u64;
        self.index.entry(window).or_default().push(BlockRef {
            offset,
            len: blob.len() as u32,
            rows: rows as u32,
        });
        self.live_bytes += blob.len() as u64;
        self.counters.cold_blocks.inc();
        self.counters.cold_bytes_written.add(blob.len() as u64);
        self.store_metrics.add_bytes_written(framed.len() as u64);
        Ok(())
    }

    /// Reads the payloads of `refs` on the lane and blocks for them:
    /// promotion misses, the tail a prefetch did not cover, compaction
    /// and non-consuming scans all read cold blocks here.
    fn read_blocks(&self, context: &'static str, refs: &[BlockRef]) -> Result<Vec<Vec<u8>>> {
        let (path, refs) = (self.cold_path.clone(), refs.to_vec());
        let blobs = self
            .lane
            .read_through(move |vfs| read_blocks_in(vfs, &path, &refs))
            .map_err(|e| self.io_err(context, e))?;
        self.store_metrics
            .add_bytes_read(blobs.iter().map(|b| b.len() as u64).sum());
        Ok(blobs)
    }

    /// Fetches a cold window's block payloads: from the prefetch buffer,
    /// a pending submission, or (on a miss) a fresh read.
    fn fetch_window_blobs(&mut self, window: WindowId, refs: &[BlockRef]) -> Result<Vec<Vec<u8>>> {
        if let Some(mut blobs) = self.prefetched.remove(&window) {
            let bytes: u64 = blobs.iter().map(|b| b.len() as u64).sum();
            self.prefetched_bytes = self.prefetched_bytes.saturating_sub(bytes);
            self.counters.prefetch_hits.inc();
            self.store_metrics.add_prefetch_hit();
            // A prefetch covers the window's blocks *as of submission*;
            // blocks demoted since then sit past that prefix and still
            // need a read (block order per window never changes, so the
            // prefetched blobs are exactly refs[..blobs.len()]).
            if blobs.len() < refs.len() {
                blobs.extend(self.read_blocks("tier promote read", &refs[blobs.len()..])?);
            }
            return Ok(blobs);
        }
        if let Some(read) = self.lane.wait_for(&window) {
            match read {
                Ok((_, mut blobs)) => {
                    self.counters.prefetch_hits.inc();
                    self.store_metrics.add_prefetch_hit();
                    let bytes: u64 = blobs.iter().map(|b| b.len() as u64).sum();
                    self.store_metrics.add_bytes_read(bytes);
                    // Same prefix rule as the prefetch-buffer hit above.
                    if blobs.len() < refs.len() {
                        blobs.extend(self.read_blocks("tier promote read", &refs[blobs.len()..])?);
                    }
                    return Ok(blobs);
                }
                // A failed background read just means the window promotes
                // from a fresh read below.
                Err(_) => self.counters.prefetch_wasted.inc(),
            }
        } else {
            self.store_metrics.add_prefetch_miss();
        }
        self.read_blocks("tier promote read", refs)
    }

    /// Resolves every in-flight prefetch (before compaction moves the
    /// offsets they were submitted against).
    fn settle_inflight(&mut self) {
        let landed = self.lane.wait_all();
        self.install_prefetches(landed);
    }

    /// Installs finished prefetch reads; a failed one just means the
    /// window promotes from a fresh read.
    fn install_prefetches(&mut self, landed: Vec<std::io::Result<PrefetchedBlocks>>) {
        for read in landed {
            match read {
                Ok((window, blobs)) => self.install_prefetch(window, blobs),
                Err(_) => self.counters.prefetch_wasted.inc(),
            }
        }
    }

    fn install_prefetch(&mut self, window: WindowId, blobs: Vec<Vec<u8>>) {
        if !self.index.contains_key(&window) {
            // Promoted (or compacted away) while the read was in flight.
            self.counters.prefetch_wasted.inc();
            self.store_metrics.add_prefetch_eviction();
            return;
        }
        self.prefetched_bytes += blobs.iter().map(|b| b.len() as u64).sum::<u64>();
        self.prefetched.insert(window, blobs);
    }

    /// Submits reads for cold windows about to trigger, soonest start
    /// first, within the lane's byte budget.
    fn submit_prefetch(&mut self, stream_time: Timestamp) {
        let lane = &mut self.lane;
        // Nothing to plan for a lane that admits no read at all.
        if !lane.admits(0, 0) {
            return;
        }
        let due = lane.due(stream_time);
        for (window, refs) in &self.index {
            if window.end > due || self.prefetched.contains_key(window) || lane.covers(window) {
                continue;
            }
            let bytes = refs.iter().map(|r| u64::from(r.len)).sum();
            if !lane.admits(self.prefetched_bytes, bytes) {
                break;
            }
            let (window, path, refs) = (*window, self.cold_path.clone(), refs.clone());
            lane.submit(vec![window], bytes, move |vfs| {
                Ok((window, read_blocks_in(vfs, &path, &refs)?))
            });
            self.counters.prefetch_submitted.inc();
        }
    }

    // ---- demotion -------------------------------------------------------

    /// Consumes every live hot row of `window` from the inner store, in
    /// the pattern-legal way, returning rows in per-key append order.
    fn drain_hot_rows(&mut self, window: WindowId, track: &HotWindow) -> Result<Vec<ColdRow>> {
        let mut rows = Vec::new();
        match self.aggregate {
            AggregateKind::Incremental => {
                for key in track.order.values() {
                    if let Some(value) = self.inner.take_aggregate(key, window)? {
                        let ts = track
                            .keys
                            .get(key)
                            .and_then(|kt| kt.ts.last().copied())
                            .unwrap_or(window.start);
                        rows.push(ColdRow {
                            key: key.clone(),
                            ts,
                            value,
                        });
                    }
                }
            }
            AggregateKind::FullList if self.aligned => {
                // AAR stores only expose the whole-window drain.
                let mut per_key: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
                while let Some(chunk) = self.inner.get_window_chunk(window)? {
                    for (key, values) in chunk {
                        per_key.entry(key).or_default().extend(values);
                    }
                }
                for key in track.order.values() {
                    let values = per_key.remove(key).unwrap_or_default();
                    let kt = track.keys.get(key);
                    for (i, value) in values.into_iter().enumerate() {
                        let ts = kt
                            .and_then(|kt| kt.ts.get(i).copied())
                            .unwrap_or(window.start);
                        rows.push(ColdRow {
                            key: key.clone(),
                            ts,
                            value,
                        });
                    }
                }
                // Rows the tracker missed (none in a healthy run) still
                // demote, deterministically ordered.
                let mut rest: Vec<_> = per_key.into_iter().collect();
                rest.sort();
                for (key, values) in rest {
                    for value in values {
                        rows.push(ColdRow {
                            key: key.clone(),
                            ts: window.start,
                            value,
                        });
                    }
                }
            }
            AggregateKind::FullList => {
                for key in track.order.values() {
                    let values = self.inner.take_values(key, window)?;
                    let kt = track.keys.get(key);
                    for (i, value) in values.into_iter().enumerate() {
                        let ts = kt
                            .and_then(|kt| kt.ts.get(i).copied())
                            .unwrap_or(window.start);
                        rows.push(ColdRow {
                            key: key.clone(),
                            ts,
                            value,
                        });
                    }
                }
            }
        }
        Ok(rows)
    }

    fn block_kind(&self) -> BlockKind {
        match self.aggregate {
            AggregateKind::Incremental => BlockKind::Aggregates,
            AggregateKind::FullList => BlockKind::Values,
        }
    }

    /// Seals one window out of the hot tier into a cold block.
    fn demote_window(&mut self, window: WindowId) -> Result<()> {
        let Some(track) = self.hot.remove(&window) else {
            return Ok(());
        };
        self.hot_bytes -= track.bytes;
        let rows = self.drain_hot_rows(window, &track)?;
        if rows.is_empty() {
            return Ok(());
        }
        let blob = columnar::encode_block(window, self.block_kind(), &rows, self.cfg.compress);
        self.append_block(window, &blob, rows.len())?;
        self.counters.demotions.inc();
        self.counters.demoted_rows.add(rows.len() as u64);
        self.counters
            .uncompressed_bytes
            .add(columnar::uncompressed_size(&rows) as u64);
        // The hot store just tombstoned this whole range; let it compact
        // while the blocks are warm.
        self.inner.demoted_hint(window)?;
        Ok(())
    }

    /// Demotes coldest-first until the hot tier fits `budget`.
    fn demote_to_budget(&mut self, budget: usize) -> Result<()> {
        if self.hot_bytes <= budget {
            return Ok(());
        }
        let _t = self.store_metrics.timer(OpCategory::Compaction);
        let mut windows: Vec<WindowId> = self.hot.keys().copied().collect();
        windows.sort_by_key(|w| (w.end, w.start));
        for window in windows {
            if self.hot_bytes <= budget {
                break;
            }
            self.demote_window(window)?;
        }
        self.maybe_compact()?;
        self.update_gauges();
        Ok(())
    }

    fn maybe_demote(&mut self) -> Result<()> {
        if self.hot_bytes > self.cfg.hot_bytes {
            self.demote_to_budget(self.cfg.hot_bytes)?;
        }
        Ok(())
    }

    // ---- promotion ------------------------------------------------------

    /// Decodes `window`'s cold blocks and replays them into the inner
    /// store *ahead of* any hotter rows appended since demotion, so
    /// per-key append order is exactly what a hot-only run would hold.
    fn promote_window(&mut self, window: WindowId) -> Result<()> {
        let Some(refs) = self.index.remove(&window) else {
            return Ok(());
        };
        let blobs = match self.fetch_window_blobs(window, &refs) {
            Ok(blobs) => blobs,
            Err(e) => {
                // The window's blocks are still on disk; put the refs
                // back so a recovery retry can promote again.
                self.index.insert(window, refs);
                return Err(e);
            }
        };
        let freed: u64 = refs.iter().map(|r| u64::from(r.len)).sum();
        self.live_bytes = self.live_bytes.saturating_sub(freed);
        self.dead_bytes += freed;
        let mut cold_rows: Vec<ColdRow> = Vec::new();
        for blob in &blobs {
            let block = columnar::decode_block(blob)?;
            if block.window != window {
                return Err(StoreError::corruption(
                    &self.cold_path,
                    0,
                    format!(
                        "cold block window {:?} indexed under {:?}",
                        block.window, window
                    ),
                ));
            }
            cold_rows.extend(block.rows);
        }
        let promoted = cold_rows.len();
        match self.aggregate {
            AggregateKind::Incremental => {
                // Within cold blocks a later row supersedes an earlier
                // one; a live hot aggregate supersedes them all.
                let mut order: Vec<Vec<u8>> = Vec::new();
                let mut last: HashMap<Vec<u8>, ColdRow> = HashMap::new();
                for row in cold_rows {
                    if !last.contains_key(&row.key) {
                        order.push(row.key.clone());
                    }
                    last.insert(row.key.clone(), row);
                }
                for key in order {
                    let row = last.remove(&key).expect("inserted above");
                    let hot_newer = self
                        .hot
                        .get(&window)
                        .is_some_and(|hw| hw.keys.contains_key(&key));
                    if !hot_newer {
                        self.inner.put_aggregate(&key, window, &row.value)?;
                        self.track_put(&key, window, row.value.len(), row.ts);
                    }
                }
            }
            AggregateKind::FullList => {
                // Drain the hotter rows out, then replay cold-first.
                let mut hot_rows = Vec::new();
                if let Some(track) = self.hot.remove(&window) {
                    self.hot_bytes -= track.bytes;
                    hot_rows = self.drain_hot_rows(window, &track)?;
                }
                for row in cold_rows.into_iter().chain(hot_rows) {
                    self.inner.append(&row.key, window, &row.value, row.ts)?;
                    self.track_append(&row.key, window, row.value.len(), row.ts);
                }
            }
        }
        self.counters.promotions.inc();
        self.counters.promoted_rows.add(promoted as u64);
        self.maybe_compact()?;
        self.update_gauges();
        Ok(())
    }

    /// Promotes `window` if it has cold blocks; cheap no-op otherwise.
    fn ensure_hot(&mut self, window: WindowId) -> Result<()> {
        if self.index.contains_key(&window) {
            self.promote_window(window)?;
        }
        Ok(())
    }

    // ---- compaction -----------------------------------------------------

    /// Rewrites the cold log once dead bytes reach both floors: below
    /// the first a rewrite is pointless, and past it the rewrite waits
    /// until it reclaims at least as much as it copies.
    fn maybe_compact(&mut self) -> Result<()> {
        const COMPACT_MIN_DEAD_BYTES: u64 = 64 << 10;
        const COMPACT_MIN_DEAD_RATIO: f64 = 0.5;
        let total = self.live_bytes + self.dead_bytes;
        if self.dead_bytes < COMPACT_MIN_DEAD_BYTES
            || (self.dead_bytes as f64) < COMPACT_MIN_DEAD_RATIO * total as f64
        {
            return Ok(());
        }
        self.compact()
    }

    /// Rewrites the cold log keeping only live blocks, in one sequential
    /// window-ordered scan (the MSA idiom: reorganize while streaming).
    fn compact(&mut self) -> Result<()> {
        let _t = self.store_metrics.timer(OpCategory::Compaction);
        // In-flight prefetch reads target the old offsets; settle them
        // first (their payloads stay valid — content does not move).
        self.settle_inflight();
        let tmp = self.cold_dir.join("cold.log.tmp");
        let out = self
            .vfs
            .create(&tmp)
            .map_err(|e| StoreError::io_at("tier compact create", &tmp, e))?;
        let mut new_index: BTreeMap<WindowId, Vec<BlockRef>> = BTreeMap::new();
        let mut new_len = 0u64;
        // One window's blocks in memory at a time, as in a promotion.
        for (window, refs) in &self.index {
            let blobs = self.read_blocks("tier compact read", refs)?;
            for (r, blob) in refs.iter().zip(blobs) {
                let mut framed = Vec::with_capacity(blob.len() + 4);
                codec::put_u32(&mut framed, blob.len() as u32);
                framed.extend_from_slice(&blob);
                out.write_all_at(&framed, new_len)
                    .map_err(|e| StoreError::io_at("tier compact write", &tmp, e))?;
                new_index.entry(*window).or_default().push(BlockRef {
                    offset: new_len + 4,
                    len: r.len,
                    rows: r.rows,
                });
                new_len += framed.len() as u64;
                self.store_metrics.add_bytes_written(framed.len() as u64);
            }
        }
        let mut out = out;
        out.sync_data()
            .map_err(|e| StoreError::io_at("tier compact sync", &tmp, e))?;
        drop(out);
        self.cold_file = None;
        self.vfs
            .rename(&tmp, &self.cold_path)
            .map_err(|e| self.io_err("tier compact rename", e))?;
        self.index = new_index;
        self.cold_len = new_len;
        let reclaimed = self.dead_bytes;
        self.dead_bytes = 0;
        self.counters.compactions.inc();
        self.counters.compaction_reclaimed.add(reclaimed);
        self.store_metrics.add_compaction();
        Ok(())
    }

    // ---- cold-state reads (non-consuming) -------------------------------

    /// Decodes every cold row of every window, without consuming any
    /// state — the scan `extract_range` and `read_view` merge from.
    fn scan_cold_rows(&self) -> Result<Vec<(WindowId, Vec<ColdRow>)>> {
        if self.index.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(self.index.len());
        for (window, refs) in &self.index {
            let mut rows = Vec::new();
            for blob in self.read_blocks("tier cold scan", refs)? {
                rows.extend(columnar::decode_block(&blob)?.rows);
            }
            out.push((*window, rows));
        }
        Ok(out)
    }

    // ---- checkpoint metadata --------------------------------------------

    fn encode_meta(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&META_MAGIC);
        buf.push(META_VERSION);
        codec::put_varint_u64(&mut buf, self.cold_len);
        codec::put_varint_u64(&mut buf, self.live_bytes);
        codec::put_varint_u64(&mut buf, self.dead_bytes);
        codec::put_varint_u64(&mut buf, self.index.len() as u64);
        for (window, refs) in &self.index {
            codec::put_varint_i64(&mut buf, window.start);
            codec::put_varint_i64(&mut buf, window.end);
            codec::put_varint_u64(&mut buf, refs.len() as u64);
            for r in refs {
                codec::put_varint_u64(&mut buf, r.offset);
                codec::put_varint_u64(&mut buf, u64::from(r.len));
                codec::put_varint_u64(&mut buf, u64::from(r.rows));
            }
        }
        let crc = codec::crc32(&buf[META_MAGIC.len()..]);
        codec::put_u32(&mut buf, crc);
        buf
    }

    fn decode_meta(&mut self, bytes: &[u8], path: &Path) -> Result<()> {
        let corrupt =
            |offset: usize, detail: String| StoreError::corruption(path, offset as u64, detail);
        if bytes.len() < META_MAGIC.len() + 1 + 4 {
            return Err(StoreError::UnexpectedEof { what: "TIERMETA" });
        }
        if bytes[..META_MAGIC.len()] != META_MAGIC {
            return Err(corrupt(0, "bad TIERMETA magic".to_string()));
        }
        let body = &bytes[META_MAGIC.len()..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let actual = codec::crc32(body);
        if stored != actual {
            return Err(corrupt(
                bytes.len() - 4,
                "TIERMETA CRC mismatch".to_string(),
            ));
        }
        let mut dec = Decoder::new(body);
        let version = dec.take(1, "TIERMETA version")?[0];
        if version != META_VERSION {
            return Err(corrupt(
                4,
                format!("unsupported TIERMETA version {version}"),
            ));
        }
        self.cold_len = dec.get_varint_u64()?;
        self.live_bytes = dec.get_varint_u64()?;
        self.dead_bytes = dec.get_varint_u64()?;
        let windows = dec.get_varint_u64()? as usize;
        let mut index = BTreeMap::new();
        for _ in 0..windows {
            let start = dec.get_varint_i64()?;
            let end = dec.get_varint_i64()?;
            if start > end {
                return Err(corrupt(
                    dec.position(),
                    format!("inverted TIERMETA window [{start}, {end})"),
                ));
            }
            let n = dec.get_varint_u64()? as usize;
            let mut refs = Vec::with_capacity(n.min(body.len()));
            for _ in 0..n {
                refs.push(BlockRef {
                    offset: dec.get_varint_u64()?,
                    len: dec.get_varint_u64()? as u32,
                    rows: dec.get_varint_u64()? as u32,
                });
            }
            index.insert(WindowId::new(start, end), refs);
        }
        self.index = index;
        Ok(())
    }
}

impl StateBackend for TieredStore {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        // No promotion needed: cold rows are strictly older, and the
        // merge happens on the read side.
        self.inner.append(key, window, value, ts)?;
        self.track_append(key, window, value.len(), ts);
        self.maybe_demote()
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        self.ensure_hot(window)?;
        // The engine is consuming this window now; whatever it drains is
        // gone from the hot tier.
        self.untrack_window(window);
        self.inner.get_window_chunk(window)
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.ensure_hot(window)?;
        self.untrack_key(key, window);
        self.inner.take_values(key, window)
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.ensure_hot(window)?;
        self.inner.peek_values(key, window)
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        self.ensure_hot(window)?;
        self.untrack_key(key, window);
        self.inner.take_aggregate(key, window)
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        // A put supersedes any cold version of this key; promotion skips
        // cold aggregates whose key is live in the hot tier.
        self.inner.put_aggregate(key, window, aggregate)?;
        self.track_put(key, window, aggregate.len(), window.start);
        self.maybe_demote()
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        if let Some(file) = self.cold_file.as_mut() {
            file.sync_data()
                .map_err(|e| StoreError::io_at("tier cold log sync", &self.cold_path, e))?;
        }
        Ok(())
    }

    fn read_view(&mut self) -> Result<Option<StateView>> {
        let Some(hot) = self.inner.read_view()? else {
            return Ok(None);
        };
        if self.index.is_empty() {
            return Ok(Some(hot));
        }
        let mut entries = hot.to_entries();
        // Merge cold rows in, older-first, without consuming anything.
        for (window, rows) in self.scan_cold_rows()? {
            match self.aggregate {
                AggregateKind::Incremental => {
                    // Within cold rows the last write per key wins; a
                    // hot aggregate (already in the view) is newer
                    // still, so cold only fills absent keys.
                    let mut last: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
                    for row in rows {
                        last.insert(row.key, row.value);
                    }
                    for (key, value) in last {
                        entries
                            .entry((key, window))
                            .or_insert(ViewValue::Aggregate(value));
                    }
                }
                AggregateKind::FullList => {
                    let mut per_key: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
                    for row in rows {
                        per_key.entry(row.key).or_default().push(row.value);
                    }
                    for (key, cold_values) in per_key {
                        match entries.entry((key, window)) {
                            std::collections::btree_map::Entry::Occupied(mut e) => {
                                if let ViewValue::Values(hot_values) = e.get_mut() {
                                    let mut merged = cold_values;
                                    merged.append(hot_values);
                                    *hot_values = merged;
                                }
                            }
                            std::collections::btree_map::Entry::Vacant(e) => {
                                e.insert(ViewValue::Values(cold_values));
                            }
                        }
                    }
                }
            }
        }
        let mut view = StateView::from_entries(hot.pattern, entries);
        view.metrics = hot.metrics;
        Ok(Some(view))
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        let inner_entries = self.inner.extract_range(in_range, kind)?;
        if self.index.is_empty() {
            return Ok(inner_entries);
        }
        // Index the hot extract so cold rows can be merged ahead of it.
        let mut hot_values: HashMap<(Vec<u8>, WindowId), Vec<Vec<u8>>> = HashMap::new();
        let mut hot_aggs: HashMap<(Vec<u8>, WindowId), Vec<u8>> = HashMap::new();
        for entry in inner_entries {
            match entry {
                StateEntry::Values {
                    key,
                    window,
                    values,
                } => {
                    hot_values.insert((key, window), values);
                }
                StateEntry::Aggregate { key, window, value } => {
                    hot_aggs.insert((key, window), value);
                }
            }
        }
        let mut out: Vec<StateEntry> = Vec::new();
        for (window, rows) in self.scan_cold_rows()? {
            match self.aggregate {
                AggregateKind::Incremental => {
                    let mut last: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
                    for row in rows {
                        if in_range(&row.key) {
                            last.insert(row.key, row.value);
                        }
                    }
                    for (key, value) in last {
                        // The hot tier's copy (if any) is newer.
                        if !hot_aggs.contains_key(&(key.clone(), window)) {
                            hot_aggs.insert((key, window), value);
                        }
                    }
                }
                AggregateKind::FullList => {
                    let mut per_key: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
                    for row in rows {
                        if in_range(&row.key) {
                            per_key.entry(row.key).or_default().push(row.value);
                        }
                    }
                    for (key, mut values) in per_key {
                        if let Some(hot) = hot_values.remove(&(key.clone(), window)) {
                            values.extend(hot);
                        }
                        hot_values.insert((key, window), values);
                    }
                }
            }
        }
        for ((key, window), values) in hot_values {
            out.push(StateEntry::Values {
                key,
                window,
                values,
            });
        }
        for ((key, window), value) in hot_aggs {
            out.push(StateEntry::Aggregate { key, window, value });
        }
        Ok(out)
    }

    fn inject_entries(&mut self, entries: Vec<StateEntry>) -> Result<()> {
        for entry in entries {
            match entry {
                StateEntry::Values {
                    key,
                    window,
                    values,
                } => {
                    for value in values {
                        self.inner.append(&key, window, &value, window.start)?;
                        self.track_append(&key, window, value.len(), window.start);
                    }
                }
                StateEntry::Aggregate { key, window, value } => {
                    self.inner.put_aggregate(&key, window, &value)?;
                    self.track_put(&key, window, value.len(), window.start);
                }
            }
        }
        self.maybe_demote()
    }

    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        // Install whatever finished since the last boundary.
        let landed = self.lane.drain();
        self.install_prefetches(landed);
        self.submit_prefetch(stream_time);
        self.inner.advance_prefetch(stream_time)
    }

    fn warm(&mut self, pairs: &[(&[u8], WindowId)]) -> Result<()> {
        self.inner.warm(pairs)
    }

    fn wants_warm(&self) -> bool {
        self.inner.wants_warm()
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.store_metrics)
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
            + self.prefetched_bytes as usize
            + self.index.len() * std::mem::size_of::<(WindowId, Vec<BlockRef>)>()
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        // Seal the hot tier entirely: the snapshot is then just the cold
        // log plus its index, and the inner checkpoint is tiny.
        self.demote_to_budget(0)?;
        self.inner.flush()?;
        let hot_dir = dir.join(CKPT_HOT);
        self.vfs
            .create_dir_all(&hot_dir)
            .map_err(|e| StoreError::io_at("tier checkpoint dir", &hot_dir, e))?;
        self.inner.checkpoint(&hot_dir)?;
        if let Some(file) = self.cold_file.as_mut() {
            file.sync_data()
                .map_err(|e| StoreError::io_at("tier cold log sync", &self.cold_path, e))?;
        }
        let cold_dst = dir.join(CKPT_COLD);
        if self.vfs.exists(&self.cold_path) {
            self.vfs
                .copy(&self.cold_path, &cold_dst)
                .map_err(|e| StoreError::io_at("tier checkpoint cold copy", &cold_dst, e))?;
        } else {
            self.vfs
                .write(&cold_dst, &[])
                .map_err(|e| StoreError::io_at("tier checkpoint cold copy", &cold_dst, e))?;
        }
        let meta = self.encode_meta();
        let meta_dst = dir.join(CKPT_META);
        self.vfs
            .write(&meta_dst, &meta)
            .map_err(|e| StoreError::io_at("tier checkpoint meta", &meta_dst, e))?;
        Ok(())
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.settle_inflight();
        self.prefetched.clear();
        self.prefetched_bytes = 0;
        self.hot.clear();
        self.hot_bytes = 0;
        self.cold_file = None;
        self.index.clear();
        self.live_bytes = 0;
        self.dead_bytes = 0;
        self.inner.restore(&dir.join(CKPT_HOT))?;
        self.vfs
            .create_dir_all(&self.cold_dir)
            .map_err(|e| StoreError::io_at("tier dir", &self.cold_dir, e))?;
        let cold_src = dir.join(CKPT_COLD);
        if self.vfs.exists(&cold_src) {
            self.vfs
                .copy(&cold_src, &self.cold_path)
                .map_err(|e| self.io_err("tier restore cold copy", e))?;
        } else {
            self.vfs
                .write(&self.cold_path, &[])
                .map_err(|e| self.io_err("tier restore cold copy", e))?;
        }
        let meta_src = dir.join(CKPT_META);
        if self.vfs.exists(&meta_src) {
            let bytes = self
                .vfs
                .read(&meta_src)
                .map_err(|e| StoreError::io_at("tier restore meta", &meta_src, e))?;
            self.decode_meta(&bytes, &meta_src)?;
        } else {
            self.cold_len = 0;
        }
        self.update_gauges();
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.settle_inflight();
        // Replacing the lane drops the tier's ring, joining its threads.
        self.lane = Lane::inline(Arc::clone(&self.vfs));
        self.inner.close()?;
        let _ = self.vfs.remove_file(&self.cold_path);
        let _ = self.vfs.remove_file(&self.cold_dir.join("cold.log.tmp"));
        let _ = std::fs::remove_dir_all(&self.cold_dir);
        Ok(())
    }
}

/// Factory wrapping another backend factory's stores in [`TieredStore`].
pub struct TieredFactory {
    inner: Arc<dyn StateBackendFactory>,
    cfg: TierConfig,
    vfs: Arc<dyn Vfs>,
}

impl TieredFactory {
    /// Tiers every store `inner` creates, with the given knobs.
    pub fn new(inner: Arc<dyn StateBackendFactory>, cfg: TierConfig) -> Self {
        TieredFactory {
            inner,
            cfg,
            vfs: StdVfs::shared(),
        }
    }

    /// Routes the cold log (and ring reads) of every tiered store
    /// through `vfs`, so fault injection covers the cold tier too. The
    /// inner factory needs its own `with_vfs` call — the tier cannot
    /// reach inside it.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }
}

impl StateBackendFactory for TieredFactory {
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        let inner = self.inner.create(ctx)?;
        Ok(Box::new(TieredStore::new(
            inner,
            ctx,
            self.cfg.clone(),
            Arc::clone(&self.vfs),
        )?))
    }

    fn name(&self) -> &'static str {
        "tiered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowKvConfig;
    use crate::store::FlowKvFactory;
    use flowkv_common::backend::{OperatorSemantics, WindowKind};
    use flowkv_common::scratch::ScratchDir;

    fn ctx(dir: &Path, aggregate: AggregateKind, window: WindowKind) -> OperatorContext {
        OperatorContext {
            operator: "tier-test".to_string(),
            partition: 0,
            semantics: OperatorSemantics::new(aggregate, window),
            data_dir: dir.to_path_buf(),
            telemetry: None,
            io: None,
        }
    }

    fn tiered(
        dir: &Path,
        aggregate: AggregateKind,
        window: WindowKind,
        hot_bytes: usize,
    ) -> Box<dyn StateBackend> {
        let factory = TieredFactory::new(
            Arc::new(FlowKvFactory::new(FlowKvConfig::small_for_tests())),
            TierConfig::new(hot_bytes),
        );
        factory
            .create(&ctx(dir, aggregate, window))
            .expect("create tiered store")
    }

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    #[test]
    fn aar_demote_promote_preserves_drain_contents() {
        let dir = ScratchDir::new("tier-aar").unwrap();
        let mut s = tiered(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Fixed { size: 100 },
            0, // force demotion on every write
        );
        let win = w(0, 100);
        for i in 0..20 {
            let key = format!("k{}", i % 3).into_bytes();
            s.append(&key, win, format!("v{i}").as_bytes(), i).unwrap();
        }
        let mut drained: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        while let Some(chunk) = s.get_window_chunk(win).unwrap() {
            for (key, values) in chunk {
                for value in values {
                    drained.push((key.clone(), value));
                }
            }
        }
        let mut expect: Vec<(Vec<u8>, Vec<u8>)> = (0..20)
            .map(|i| {
                (
                    format!("k{}", i % 3).into_bytes(),
                    format!("v{i}").into_bytes(),
                )
            })
            .collect();
        // Per-key order must hold; cross-key order is unspecified.
        drained.sort();
        expect.sort();
        assert_eq!(drained, expect);
        s.close().unwrap();
    }

    #[test]
    fn aur_per_key_order_survives_demotion_interleaved_with_appends() {
        let dir = ScratchDir::new("tier-aur").unwrap();
        let mut s = tiered(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
            0,
        );
        let win = w(0, 100);
        // First half demotes, second half lands hot, then one take.
        for i in 0..6 {
            s.append(b"k", win, format!("v{i}").as_bytes(), i).unwrap();
        }
        let values = s.take_values(b"k", win).unwrap();
        let expect: Vec<Vec<u8>> = (0..6).map(|i| format!("v{i}").into_bytes()).collect();
        assert_eq!(values, expect, "cold rows must replay ahead of hot rows");
        s.close().unwrap();
    }

    #[test]
    fn rmw_last_aggregate_wins_across_tiers() {
        let dir = ScratchDir::new("tier-rmw").unwrap();
        let mut s = tiered(
            dir.path(),
            AggregateKind::Incremental,
            WindowKind::Fixed { size: 100 },
            0,
        );
        let win = w(0, 100);
        s.put_aggregate(b"k", win, b"agg-1").unwrap(); // demoted at once
        s.put_aggregate(b"k", win, b"agg-2").unwrap(); // demoted again
        assert_eq!(
            s.take_aggregate(b"k", win).unwrap(),
            Some(b"agg-2".to_vec())
        );
        assert_eq!(s.take_aggregate(b"k", win).unwrap(), None);
        s.close().unwrap();
    }

    #[test]
    fn checkpoint_restore_round_trips_both_tiers() {
        let dir = ScratchDir::new("tier-ckpt").unwrap();
        let ckpt = ScratchDir::new("tier-ckpt-dir").unwrap();
        let win = w(0, 100);
        let mut s = tiered(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
            64, // small budget: some state demotes, some stays hot
        );
        for i in 0..10 {
            let key = format!("k{}", i % 2).into_bytes();
            s.append(&key, win, format!("v{i}").as_bytes(), i).unwrap();
        }
        let before = {
            let mut e = s.extract_range(&|_| true, AggregateKind::FullList).unwrap();
            e.sort();
            e
        };
        s.checkpoint(ckpt.path()).unwrap();

        let dir2 = ScratchDir::new("tier-ckpt-2").unwrap();
        let mut restored = tiered(
            dir2.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
            64,
        );
        restored.restore(ckpt.path()).unwrap();
        let after = {
            let mut e = restored
                .extract_range(&|_| true, AggregateKind::FullList)
                .unwrap();
            e.sort();
            e
        };
        assert_eq!(after, before);
        // And the restored store still serves reads correctly.
        let values = restored.take_values(b"k0", win).unwrap();
        let expect: Vec<Vec<u8>> = (0..10)
            .filter(|i| i % 2 == 0)
            .map(|i| format!("v{i}").into_bytes())
            .collect();
        assert_eq!(values, expect);
        s.close().unwrap();
        restored.close().unwrap();
    }

    #[test]
    fn extract_inject_merges_cold_before_hot() {
        let dir = ScratchDir::new("tier-extract").unwrap();
        let win = w(0, 100);
        let mut s = tiered(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
            0,
        );
        for i in 0..4 {
            s.append(b"k", win, format!("c{i}").as_bytes(), i).unwrap();
        }
        // Raise the budget by injecting hot rows directly (inject tracks
        // them hot, then the wave demotes them too at budget 0 — so use
        // extract to observe the merged order instead).
        let entries = s.extract_range(&|_| true, AggregateKind::FullList).unwrap();
        assert_eq!(entries.len(), 1);
        match &entries[0] {
            StateEntry::Values { key, values, .. } => {
                assert_eq!(key, b"k");
                let expect: Vec<Vec<u8>> = (0..4).map(|i| format!("c{i}").into_bytes()).collect();
                assert_eq!(values, &expect);
            }
            other => panic!("unexpected entry {other:?}"),
        }
        // Inject into a fresh tiered store and take: same order.
        let dir2 = ScratchDir::new("tier-inject").unwrap();
        let mut t = tiered(
            dir2.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
            0,
        );
        t.inject_entries(entries).unwrap();
        let values = t.take_values(b"k", win).unwrap();
        let expect: Vec<Vec<u8>> = (0..4).map(|i| format!("c{i}").into_bytes()).collect();
        assert_eq!(values, expect);
        s.close().unwrap();
        t.close().unwrap();
    }

    #[test]
    fn compaction_reclaims_promoted_blocks() {
        let dir = ScratchDir::new("tier-compact").unwrap();
        let mut s = tiered(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
            0,
        );
        let win = w(0, 100);
        // Eight sealed blocks of 16 KiB: once promoted they are 128 KiB
        // of dead bytes, the whole log — past both compaction floors.
        for i in 0..8u8 {
            s.append(b"k", win, &[i; 16 << 10], i64::from(i)).unwrap();
        }
        let cold_log = dir.path().join("tier/tier-test/p0").join(COLD_LOG);
        let sealed = std::fs::metadata(&cold_log).unwrap().len();
        assert!(sealed >= 128 << 10, "cold log holds {sealed} bytes");
        // Promote (take) then write more: the wave after the next append
        // sees dead blocks above both thresholds and compacts.
        let _ = s.take_values(b"k", win).unwrap();
        s.append(b"k2", w(100, 200), b"x", 101).unwrap();
        let rewritten = std::fs::metadata(&cold_log).unwrap().len();
        assert!(
            rewritten < 1 << 10,
            "cold log still holds {rewritten} bytes"
        );
        // The store still answers correctly after the rewrite.
        assert_eq!(
            s.take_values(b"k2", w(100, 200)).unwrap(),
            vec![b"x".to_vec()]
        );
        s.close().unwrap();
    }

    /// The keys of `window`'s cold blocks, in block and row order.
    fn cold_keys(s: &TieredStore, window: WindowId) -> Vec<Vec<u8>> {
        let blobs = s.read_blocks("test", &s.index[&window]).unwrap();
        blobs
            .iter()
            .flat_map(|blob| columnar::decode_block(blob).unwrap().rows)
            .map(|row| row.key)
            .collect()
    }

    fn tiered_store(dir: &Path, aggregate: AggregateKind, window: WindowKind) -> TieredStore {
        let ctx = ctx(dir, aggregate, window);
        let inner = FlowKvFactory::new(FlowKvConfig::small_for_tests())
            .create(&ctx)
            .unwrap();
        TieredStore::new(inner, &ctx, TierConfig::default(), StdVfs::shared()).unwrap()
    }

    #[test]
    fn demotion_keeps_first_append_order_of_the_live_keys() {
        let win = w(0, 100);
        let keys = |ks: &[&[u8]]| ks.iter().map(|k| k.to_vec()).collect::<Vec<_>>();

        // RMW: a taken key leaves the order; put again, it joins the back.
        let dir = ScratchDir::new("tier-order-rmw").unwrap();
        let mut s = tiered_store(
            dir.path(),
            AggregateKind::Incremental,
            WindowKind::Fixed { size: 100 },
        );
        for key in [b"a", b"b", b"c", b"d"] {
            s.put_aggregate(key, win, b"1").unwrap();
        }
        assert_eq!(s.take_aggregate(b"b", win).unwrap(), Some(b"1".to_vec()));
        s.put_aggregate(b"b", win, b"2").unwrap();
        assert_eq!(s.take_aggregate(b"a", win).unwrap(), Some(b"1".to_vec()));
        s.put_aggregate(b"e", win, b"1").unwrap();
        s.put_aggregate(b"c", win, b"2").unwrap(); // still live: keeps its place
        assert_eq!(s.take_aggregate(b"d", win).unwrap(), Some(b"1".to_vec()));
        s.put_aggregate(b"d", win, b"2").unwrap();
        s.demote_to_budget(0).unwrap();
        assert_eq!(cold_keys(&s, win), keys(&[b"c", b"b", b"e", b"d"]));
        assert!(s.hot.is_empty() && s.hot_bytes == 0);
        s.close().unwrap();

        // AUR: the same rule, a row per append.
        let dir = ScratchDir::new("tier-order-aur").unwrap();
        let mut s = tiered_store(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
        );
        for (i, key) in [b"a", b"b", b"c"].into_iter().enumerate() {
            s.append(key, win, b"v", i as i64).unwrap();
        }
        assert_eq!(s.take_values(b"a", win).unwrap().len(), 1);
        s.append(b"a", win, b"v", 3).unwrap();
        s.append(b"b", win, b"v", 4).unwrap();
        s.demote_to_budget(0).unwrap();
        assert_eq!(cold_keys(&s, win), keys(&[b"b", b"b", b"c", b"a"]));
        s.close().unwrap();
    }
}
