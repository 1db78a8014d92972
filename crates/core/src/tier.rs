//! Two-tier hot/cold state layout behind the [`StateBackend`] seam.
//!
//! [`TieredStore`] wraps *any* state backend: the wrapped store is the
//! pinned hot tier holding the windows most likely to trigger next,
//! while sealed cold windows are demoted into compressed columnar blocks
//! ([`flowkv_common::columnar`]) appended, one record per block, to a
//! single cold log (`GenLog`) on the [`Vfs`] seam. The store already
//! knows the schema — pattern, window,
//! key — so the tier keeps no second index beside it: demotion consumes
//! the hot tier with the same pattern-legal calls the engine would issue
//! (AAR window drains, AUR per-key takes, RMW aggregate takes), and a
//! read serves a window's cold rows *ahead of* any hotter rows appended
//! since, preserving per-key append order exactly.
//!
//! Key mechanics:
//!
//! - **Bookkeeping** holds each fact once, as the operator's access
//!   pattern (`OperatorSemantics::pattern`, read at construction) says.
//!   An AAR window is charged *bytes only*: the wrapped store's window
//!   drain returns every key, so the tier copies none. An AUR/RMW window
//!   keeps one `key → {bytes, max_ts}` map: the keys to take at demotion
//!   (in sorted order, so a block's layout is deterministic) and the one
//!   timestamp the AUR store's trigger-time estimate reads of them.
//! - **Demotion** triggers on write paths whenever the tracked hot
//!   footprint exceeds [`TierConfig::hot_bytes`] (`0`, the differential
//!   harness's pathological cell: at every write) and seals the
//!   earliest-ending windows first, one block per window, rows sorted by
//!   key and each key's in append order; an AAR window's pairs go from
//!   the wrapped store's buffer straight into the block writer.
//! - **Cold reads** happen on the first access to a window with cold
//!   blocks and retire them to dead bytes. A triggered AAR window
//!   *drains* from them: a step lends one block's rows, oldest block
//!   first, then come the wrapped store's steps — the operator joins
//!   per-key lists in that order, so nothing is written back. AUR/RMW
//!   point reads *promote*: the cold rows are replayed into the wrapped
//!   store under the hotter rows of their keys (`merge_cold`, also
//!   the rule of `read_view` and `extract_range`). A block is a record
//!   of the cold log, read where its [`RecordLocation`] says through
//!   the one reader by location (`RandomAccessLog::read_records`), as
//!   the AUR and RMW stores read theirs: checksum-verified, adjacent
//!   blocks in one extent read. Block reads ride the worker's I/O ring
//!   when [`OperatorContext::io`] carries one;
//!   [`TieredStore::advance_prefetch`] submits them ahead of a trigger.
//! - **Compaction** is the cold `GenLog`'s: once dead blocks dominate
//!   (the stores' MSA rule, with the tier's own factor and floor) the
//!   surviving blocks are relocated into the next generation.
//! - **Checkpoints** seal every hot window into the cold tier first, so
//!   a snapshot is the inner store's (empty) checkpoint plus the cold
//!   log's live blocks — and restore rebuilds the block index in the
//!   one scan that recovers the restored log, each block's header naming
//!   its window and row count. No index outlives the process otherwise:
//!   a new store deletes the cold log a previous one left, unread.
//!   `extract_range` merges both tiers and `inject_entries`
//!   replays through the tier's own write path, so rescaling migrates
//!   cold state losslessly.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::backend::{
    collect_chunk, AggregateKind, KeyFilter, OperatorContext, PairSink, Pattern, StateBackend,
    StateBackendFactory, StateEntry, WindowChunk,
};
use flowkv_common::columnar::{BlockKind, BlockReader, BlockWriter, ColdRow};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::Lane;
use flowkv_common::logfile::{record_payload, RandomAccessLog, RecordLocation};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::registry::{StateView, ViewValue};
use flowkv_common::telemetry::{Counter, Gauge, MetricRegistry, Telemetry};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::Vfs;

use crate::genlog::GenLog;
use crate::store::state_entry;

/// The cold log rewrites once dead blocks are over half of it — the
/// rewrite then reclaims more than it copies — and it holds this much.
const COLD_MSA: f64 = 2.0;
const COLD_COMPACT_FLOOR: u64 = 128 << 10;
/// Checkpoint file name of the cold log's live blocks.
const CKPT_COLD: &str = "COLDLOG";
/// The sidecar that once told a checkpoint's live blocks from its dead
/// ones; a restore refuses a directory that holds one.
const RETIRED_META: &str = "TIERMETA";
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
    /// Allow cold blocks to dictionary-encode their value column (keys
    /// and timestamps always are dictionary/delta-encoded). A block uses
    /// the dictionary only where it pays: its writer stops interning
    /// values once the block's first 256 rows show more than half of
    /// them new, and keeps the dictionary only when it is no larger than
    /// the values inlined. `false` inlines every block's values.
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

/// One cold block: a record of the cold log.
#[derive(Clone, Copy, Debug)]
struct BlockRef {
    /// Where the record holding the block sits; its payload is the block.
    at: RecordLocation,
    /// Rows inside, for accounting.
    rows: u32,
}

impl BlockRef {
    /// `(offset, on-disk length)` of the log record holding the block.
    fn record(&self) -> (u64, u64) {
        (self.at.offset, self.at.disk_len())
    }
}

/// What a prefetch read yields: the window and the payloads of the
/// blocks it had at submission.
type PrefetchedBlocks = (WindowId, Vec<Vec<u8>>);

/// The payloads of `refs`, blocks of one window in log order, read from
/// `log` — the cold log, opened by the lane job this runs in: blocking
/// ([`TieredStore::read_blocks`]) or ahead of the trigger
/// (`advance_prefetch`).
fn read_window_blocks(log: &mut RandomAccessLog, refs: &[BlockRef]) -> Result<Vec<Vec<u8>>> {
    let records: Vec<(u64, u64)> = refs.iter().map(BlockRef::record).collect();
    let mut out = Vec::with_capacity(refs.len());
    log.read_records(&records, |_, record| {
        out.push(record_payload(record).to_vec());
        Ok(())
    })?;
    Ok(out)
}

/// What the tier remembers of one AUR/RMW key with live hot rows.
struct KeyTrack {
    /// Bytes this key's rows charge against the hot budget.
    bytes: usize,
    /// Largest append timestamp among them (the window start for an
    /// aggregate). Every row of the key demotes and replays under it:
    /// the maximum is all the AUR store's trigger-time estimate reads.
    max_ts: Timestamp,
}

/// Hot-tier bookkeeping of one window.
#[derive(Default)]
struct HotWindow {
    /// Bytes the window's resident rows charge against the hot budget.
    bytes: usize,
    /// The keys holding those rows; demotion takes them in sorted order.
    /// Empty for an AAR operator (see `track`).
    keys: HashMap<Vec<u8>, KeyTrack>,
}

/// Where cold rows are lent: `(key, append timestamp, value)`.
type RowSink<'a> = &'a mut dyn FnMut(&[u8], Timestamp, &[u8]);

/// State entries by `(key, window)`: the form both tiers merge in.
type Entries = BTreeMap<(Vec<u8>, WindowId), ViewValue>;

/// The one cold⊕hot merge rule: folds `rows` — the cold rows of
/// `window`, oldest block first, those whose key `keep` accepts — under
/// the hotter state in `hot`. Cold is older than hot, so a key's cold
/// values go ahead of its hot ones, a cold aggregate only fills a key
/// `hot` lacks, and among the cold aggregates of one key the last wins.
fn merge_cold(
    hot: &mut Entries,
    window: WindowId,
    pattern: Pattern,
    rows: Vec<ColdRow>,
    keep: KeyFilter<'_>,
) {
    let rows = rows.into_iter().filter(|row| keep(&row.key));
    match pattern {
        Pattern::Rmw => {
            // Newest first, so the first row to claim a key is the last.
            for row in rows.rev() {
                hot.entry((row.key, window))
                    .or_insert(ViewValue::Aggregate(row.value));
            }
        }
        Pattern::Aar | Pattern::Aur => {
            let mut lists: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
            for row in rows {
                lists.entry(row.key).or_default().push(row.value);
            }
            for (key, mut values) in lists {
                let newer = hot
                    .entry((key, window))
                    .or_insert(ViewValue::Values(Vec::new()));
                if let ViewValue::Values(newer) = newer {
                    values.append(newer);
                    *newer = values;
                }
            }
        }
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
        let local = MetricRegistry::new();
        let reg = telemetry.map_or(&local, |t| t.registry());
        TierCounters {
            demotions: reg.counter("tier_demotions_total"),
            demoted_rows: reg.counter("tier_demoted_rows_total"),
            promotions: reg.counter("tier_promotions_total"),
            promoted_rows: reg.counter("tier_promoted_rows_total"),
            cold_bytes_written: reg.counter("tier_cold_bytes_written_total"),
            uncompressed_bytes: reg.counter("tier_uncompressed_bytes_total"),
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
    /// The operator's access pattern: what the tier tracks of a row,
    /// the shape of its blocks and how a read brings them back.
    pattern: Pattern,
    vfs: Arc<dyn Vfs>,
    cold_dir: PathBuf,
    /// The cold log, `cold_<generation>.log`; retired blocks are its
    /// dead bytes.
    log: GenLog,
    /// Cold blocks per window, in demotion (append) order.
    index: BTreeMap<WindowId, Vec<BlockRef>>,
    hot: BTreeMap<WindowId, HotWindow>,
    hot_bytes: usize,
    /// The lane every cold read runs on, keyed by window: on the
    /// worker's I/O ring when [`OperatorContext::io`] carries one,
    /// without threads (cold reads synchronous) otherwise.
    lane: Lane<WindowId, PrefetchedBlocks>,
    /// Completed prefetches awaiting promotion: raw block payloads.
    prefetched: HashMap<WindowId, Vec<Vec<u8>>>,
    prefetched_bytes: u64,
    /// Windows mid-drain: the retired blocks not handed out yet, oldest
    /// first. A drain ends inside the trigger that began it, so (as with
    /// the AAR store's own drain state) no checkpoint or view sees one.
    draining: HashMap<WindowId, VecDeque<Vec<u8>>>,
    /// The one block encoder; a demotion reuses the last one's allocations.
    writer: BlockWriter,
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
        // No index outlives the process except inside a checkpoint:
        // whatever a previous incarnation left in the log is dead.
        let log = GenLog::create(Arc::clone(&vfs), &cold_dir, "cold", "log")?;
        let mut lane = Lane::inline(Arc::clone(&vfs));
        if let Some(ring) = &ctx.io {
            lane.attach(Arc::clone(ring));
        }
        let store_metrics = inner.metrics();
        Ok(TieredStore {
            inner,
            pattern: ctx.semantics.pattern(),
            vfs,
            cold_dir,
            log,
            index: BTreeMap::new(),
            hot: BTreeMap::new(),
            hot_bytes: 0,
            lane,
            prefetched: HashMap::new(),
            prefetched_bytes: 0,
            draining: HashMap::new(),
            writer: BlockWriter::new(cfg.compress),
            counters: TierCounters::new(ctx.telemetry.as_ref()),
            store_metrics,
            cfg,
        })
    }

    // ---- hot-tier bookkeeping -------------------------------------------

    /// Charges one row written to the wrapped store to the hot budget:
    /// an aggregate replaces what its key held, a value adds to it.
    fn track(&mut self, key: &[u8], window: WindowId, value_len: usize, ts: Timestamp) {
        let cost = key.len() + value_len + 8;
        // An AAR window is tracked as bytes alone: its drain returns
        // every key, so the tier remembers none.
        let hw = self.hot.entry(window).or_default();
        let mut replaced = 0;
        if self.pattern != Pattern::Aar {
            match hw.keys.get_mut(key) {
                Some(kt) => {
                    if self.pattern == Pattern::Rmw {
                        replaced = std::mem::take(&mut kt.bytes);
                    }
                    kt.bytes += cost;
                    kt.max_ts = kt.max_ts.max(ts);
                }
                None => {
                    let kt = KeyTrack {
                        bytes: cost,
                        max_ts: ts,
                    };
                    hw.keys.insert(key.to_vec(), kt);
                }
            }
        }
        hw.bytes = hw.bytes + cost - replaced;
        self.hot_bytes = self.hot_bytes + cost - replaced;
    }

    /// Forgets `key`'s hot rows: a consuming read is about to take them.
    fn untrack_key(&mut self, key: &[u8], window: WindowId) {
        let Some(hw) = self.hot.get_mut(&window) else {
            return;
        };
        if let Some(kt) = hw.keys.remove(key) {
            hw.bytes -= kt.bytes;
            self.hot_bytes -= kt.bytes;
            if hw.keys.is_empty() {
                self.hot.remove(&window);
            }
        }
    }

    /// Forgets `window`'s hot rows, returning what was tracked of them.
    fn untrack_window(&mut self, window: WindowId) -> Option<HotWindow> {
        let hw = self.hot.remove(&window)?;
        self.hot_bytes -= hw.bytes;
        Some(hw)
    }

    fn update_gauges(&self) {
        self.counters.hot_resident.set(self.hot_bytes as i64);
        let (total, dead) = (self.log.total(), self.log.dead());
        self.counters.cold_live.set((total - dead) as i64);
        self.counters.cold_dead.set(dead as i64);
    }

    // ---- cold log I/O ---------------------------------------------------

    /// The shape of this store's cold blocks.
    fn block_kind(&self) -> BlockKind {
        match self.pattern {
            Pattern::Rmw => BlockKind::Aggregates,
            Pattern::Aar | Pattern::Aur => BlockKind::Values,
        }
    }

    /// Lays the writer's rows out as `window`'s next cold block, sorted
    /// by key and each key's in append order, at the end of the log.
    fn append_block(&mut self, window: WindowId) -> Result<()> {
        // The drain that filled the writer timed itself, on the same
        // metrics block: this timer spans tier work alone.
        let _t = self.store_metrics.timer(OpCategory::Compaction);
        let kind = self.block_kind();
        let rows = u32::try_from(self.writer.rows()).map_err(|_| {
            StoreError::invalid_state(format!("a cold block of {} rows", self.writer.rows()))
        })?;
        let plain_bytes = self.writer.plain_bytes();
        let blob = self.writer.finish_by_key(window, kind)?;
        let at = self.log.append(blob)?;
        self.index
            .entry(window)
            .or_default()
            .push(BlockRef { at, rows });
        self.counters.demotions.inc();
        self.counters.demoted_rows.add(u64::from(rows));
        self.counters.uncompressed_bytes.add(plain_bytes as u64);
        self.counters.cold_bytes_written.add(blob.len() as u64);
        self.store_metrics.add_bytes_written(at.disk_len());
        Ok(())
    }

    /// Reads the payloads of `refs` on the lane and blocks for them:
    /// promotion misses, the tail a prefetch did not cover and
    /// non-consuming scans all read cold blocks here.
    fn read_blocks(&mut self, context: &'static str, refs: &[BlockRef]) -> Result<Vec<Vec<u8>>> {
        self.log.flush()?;
        let (path, refs) = (self.log.path(), refs.to_vec());
        let job_path = path.clone();
        let blobs = self
            .lane
            .read_through(move |vfs| {
                read_window_blocks(&mut RandomAccessLog::open_in(vfs, &job_path)?, &refs)
            })
            .map_err(|e| StoreError::io_at(context, path, e))?;
        self.store_metrics
            .add_bytes_read(blobs.iter().map(|b| b.len() as u64).sum());
        Ok(blobs)
    }

    /// Fetches the payloads of `refs`, the blocks `window` has in the
    /// index: from a prefetch (waiting out one still in flight) as far as
    /// that covers them, the rest — on a miss, all — from a fresh read.
    fn fetch_window_blobs(&mut self, window: WindowId, refs: &[BlockRef]) -> Result<Vec<Vec<u8>>> {
        if let Some(read) = self.lane.wait_for(&window) {
            self.install_prefetches(vec![read]);
        }
        let mut blobs = self.prefetched.remove(&window).unwrap_or_default();
        if blobs.is_empty() {
            self.store_metrics.add_prefetch_miss();
        } else {
            let bytes = blobs.iter().map(|b| b.len() as u64).sum();
            self.prefetched_bytes = self.prefetched_bytes.saturating_sub(bytes);
            self.counters.prefetch_hits.inc();
            self.store_metrics.add_prefetch_hit();
        }
        // A prefetch covers the window's blocks *as of submission*;
        // blocks demoted since sit past that prefix and still need a
        // read (block order per window never changes, so the prefetched
        // blobs are exactly refs[..blobs.len()]).
        if blobs.len() < refs.len() {
            blobs.extend(self.read_blocks("tier promote read", &refs[blobs.len()..])?);
        }
        Ok(blobs)
    }

    /// Resolves every in-flight prefetch (compaction moves their offsets).
    fn settle_inflight(&mut self) {
        let landed = self.lane.wait_all();
        self.install_prefetches(landed);
    }

    /// Installs finished prefetch reads. One that failed, or whose window
    /// was read meanwhile, is waste: a fresh read serves the window.
    fn install_prefetches(&mut self, landed: Vec<std::io::Result<PrefetchedBlocks>>) {
        for read in landed {
            match read {
                Ok((window, blobs)) if self.index.contains_key(&window) => {
                    let bytes = blobs.iter().map(|b| b.len() as u64).sum();
                    self.store_metrics.add_bytes_read(bytes);
                    self.prefetched_bytes += bytes;
                    self.prefetched.insert(window, blobs);
                }
                Ok(_) => {
                    self.counters.prefetch_wasted.inc();
                    self.store_metrics.add_prefetch_eviction();
                }
                Err(_) => self.counters.prefetch_wasted.inc(),
            }
        }
    }

    /// Submits reads for cold windows about to trigger, soonest start
    /// first, within the lane's byte budget.
    fn submit_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        let lane = &mut self.lane;
        // Nothing to plan for a lane that admits no read at all.
        if !lane.admits(0, 0) {
            return Ok(());
        }
        self.log.flush()?;
        let due = lane.due(stream_time);
        for (window, refs) in &self.index {
            if window.end > due || self.prefetched.contains_key(window) || lane.covers(window) {
                continue;
            }
            let bytes = refs.iter().map(|r| u64::from(r.at.len)).sum();
            if !lane.admits(self.prefetched_bytes, bytes) {
                break;
            }
            let (window, path, refs) = (*window, self.log.path(), refs.clone());
            lane.submit(vec![window], bytes, move |vfs| {
                let mut log = RandomAccessLog::open_in(vfs, &path)?;
                Ok((window, read_window_blocks(&mut log, &refs)?))
            });
            self.counters.prefetch_submitted.inc();
        }
        Ok(())
    }

    // ---- demotion -------------------------------------------------------

    /// Takes the hot rows of `window`'s tracked keys out of the inner
    /// store, in the pattern-legal way: keys in sorted order, each key's
    /// rows in append order under the key's largest timestamp.
    fn take_hot_rows(&mut self, window: WindowId, track: &HotWindow) -> Result<Vec<ColdRow>> {
        let mut rows = Vec::new();
        let mut keys: Vec<_> = track.keys.iter().collect();
        keys.sort_unstable_by_key(|(key, _)| *key);
        for (key, kt) in keys {
            let values = match self.pattern {
                Pattern::Rmw => Vec::from_iter(self.inner.take_aggregate(key, window)?),
                Pattern::Aar | Pattern::Aur => self.inner.take_values(key, window)?,
            };
            let row = |value| ColdRow::new(key.as_slice(), kt.max_ts, value);
            rows.extend(values.into_iter().map(row));
        }
        Ok(rows)
    }

    /// Seals one window out of the hot tier into a cold block.
    fn demote_window(&mut self, window: WindowId) -> Result<()> {
        let Some(track) = self.untrack_window(window) else {
            return Ok(());
        };
        // A drain that failed half-way left its rows in the writer.
        self.writer.clear();
        if track.keys.is_empty() {
            // Tracked as bytes alone: AAR stores only expose the
            // whole-window drain, which yields every key (the pattern
            // ignores timestamps), straight into the writer.
            let (inner, writer) = (self.inner.as_mut(), &mut self.writer);
            let mut push = |key: &[u8], value: &[u8]| writer.push(key, window.start, value);
            while inner.drain_window_chunk(window, &mut push)? {}
        } else {
            for row in self.take_hot_rows(window, &track)? {
                self.writer.push(&row.key, row.ts, &row.value);
            }
        }
        if self.writer.rows() == 0 {
            return Ok(());
        }
        self.append_block(window)?;
        // The hot store just tombstoned this whole range; let it compact
        // while the blocks are warm.
        self.inner.demoted_hint(window)
    }

    /// Demotes earliest-ending windows first until the hot tier fits
    /// `budget`.
    fn demote_to_budget(&mut self, budget: usize) -> Result<()> {
        if self.hot_bytes <= budget {
            return Ok(());
        }
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

    // ---- reading cold windows -------------------------------------------

    /// Takes `window`'s blocks out of the cold tier: their payloads,
    /// oldest first, now dead bytes in the log. Empty if it has none.
    fn take_cold_blocks(&mut self, window: WindowId) -> Result<Vec<Vec<u8>>> {
        let Some(refs) = self.index.get(&window).cloned() else {
            return Ok(Vec::new());
        };
        // A failed read leaves the index as it was, for a retry.
        let blobs = self.fetch_window_blobs(window, &refs)?;
        self.index.remove(&window);
        self.log.retire(refs.iter().map(|r| r.record().1).sum());
        self.counters.promotions.inc();
        self.counters
            .promoted_rows
            .add(refs.iter().map(|r| u64::from(r.rows)).sum());
        Ok(blobs)
    }

    /// Lends the rows of `blob`, a cold block of `window`, in block order.
    fn lend_rows(&self, window: WindowId, blob: &[u8], sink: RowSink<'_>) -> Result<()> {
        let block = BlockReader::open(blob)?;
        if block.window() != window {
            let detail = format!("block of {:?} indexed under {window:?}", block.window());
            return Err(StoreError::corruption(self.log.path(), 0, detail));
        }
        block.for_each_row(sink)
    }

    /// The rows of `blobs`, cold blocks of `window`, in block order.
    fn decode_rows(&self, window: WindowId, blobs: &[Vec<u8>]) -> Result<Vec<ColdRow>> {
        let mut rows = Vec::new();
        let mut own = |key: &[u8], ts, value: &[u8]| rows.push(ColdRow::new(key, ts, value));
        let mut blobs = blobs.iter();
        blobs.try_for_each(|blob| self.lend_rows(window, blob, &mut own))?;
        Ok(rows)
    }

    /// The block the next step of `window`'s drain lends, while the cold
    /// tier has one: its retired blocks, oldest first, one per step.
    /// Cold rows are older than the wrapped store's and the operator
    /// concatenates per-key lists in the order they are lent, so serving
    /// the blocks ahead of the store's steps yields the order a replay
    /// into the store would — unreplayed.
    fn next_cold_block(&mut self, window: WindowId) -> Result<Option<Vec<u8>>> {
        if self.index.contains_key(&window) {
            // Also mid-drain, when a demotion sealed more of the window
            // since the last step: newer rows, so they queue behind.
            let blobs = self.take_cold_blocks(window)?;
            self.draining.entry(window).or_default().extend(blobs);
            self.maybe_compact()?;
            self.update_gauges();
        }
        let Some(queue) = self.draining.get_mut(&window) else {
            return Ok(None);
        };
        let blob = queue.pop_front();
        if queue.is_empty() {
            self.draining.remove(&window);
        }
        Ok(blob)
    }

    /// Replays `window`'s cold rows (if any) into the inner store *under*
    /// the hotter rows written since demotion, so a point read finds
    /// per-key append order exactly as a hot-only run would hold it.
    fn promote_window(&mut self, window: WindowId) -> Result<()> {
        if !self.index.contains_key(&window) {
            return Ok(());
        }
        let blobs = self.take_cold_blocks(window)?;
        let cold = self.decode_rows(window, &blobs)?;
        // Hot value lists come out to be replayed behind the cold rows;
        // a live aggregate stays put and hides its key's cold rows.
        let mut hot = Vec::new();
        if self.pattern != Pattern::Rmw {
            if let Some(track) = self.untrack_window(window) {
                hot = self.take_hot_rows(window, &track)?;
            }
        }
        // Every replayed row of a key carries the largest timestamp the
        // key was ever appended under, cold and hot rows alike.
        let mut max_ts: HashMap<Vec<u8>, Timestamp> = HashMap::new();
        for row in cold.iter().chain(&hot) {
            match max_ts.get_mut(&row.key) {
                Some(max) => *max = row.ts.max(*max),
                None => drop(max_ts.insert(row.key.clone(), row.ts)),
            }
        }
        let live = self.hot.get(&window);
        let keep = |key: &[u8]| !live.is_some_and(|hw| hw.keys.contains_key(key));
        let mut entries = Entries::new();
        merge_cold(&mut entries, window, self.pattern, hot, &|_| true);
        merge_cold(&mut entries, window, self.pattern, cold, &keep);
        for ((key, _), value) in entries {
            let ts = max_ts[&key];
            match value {
                ViewValue::Aggregate(aggregate) => {
                    self.inner.put_aggregate(&key, window, &aggregate)?;
                    self.track(&key, window, aggregate.len(), ts);
                }
                ViewValue::Values(values) => {
                    for value in values {
                        self.inner.append(&key, window, &value, ts)?;
                        self.track(&key, window, value.len(), ts);
                    }
                }
            }
        }
        self.maybe_compact()?;
        self.update_gauges();
        Ok(())
    }

    // ---- compaction -----------------------------------------------------

    /// Rewrites the cold log when the shared rule says so.
    fn maybe_compact(&mut self) -> Result<()> {
        if self.log.amplified(COLD_MSA, COLD_COMPACT_FLOOR) {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the cold log keeping only live blocks, in log order.
    fn compact(&mut self) -> Result<()> {
        let _t = self.store_metrics.timer(OpCategory::Compaction);
        // In-flight prefetch reads target the old offsets; settle them
        // first (their payloads stay valid — content does not move).
        self.settle_inflight();
        // The index moves only once the rewrite is committed: a rewrite
        // that fails leaves it pointing into the log it still describes.
        let mut live: Vec<&mut BlockRef> = self.index.values_mut().flatten().collect();
        live.sort_unstable_by_key(|block| block.at.offset);
        let locations: Vec<(u64, u64)> = live.iter().map(|block| block.record()).collect();
        let mut offsets = vec![0u64; live.len()];
        let staged = self.log.relocate(&locations, |i, offset| {
            offsets[i] = offset;
            Ok(())
        })?;
        let reclaimed = self.log.dead();
        self.log.commit(staged)?;
        for (block, offset) in live.into_iter().zip(offsets) {
            block.at.offset = offset;
        }
        self.store_metrics.add_bytes_read(self.log.total());
        self.store_metrics.add_bytes_written(self.log.total());
        self.counters.compactions.inc();
        self.counters.compaction_reclaimed.add(reclaimed);
        self.store_metrics.add_compaction();
        Ok(())
    }

    /// Merges every cold row whose key `keep` accepts under `hot`, one
    /// window in memory at a time and without consuming any state: what
    /// `extract_range` and `read_view` add to the wrapped store's answer.
    fn merge_all_cold(&mut self, hot: &mut Entries, keep: KeyFilter<'_>) -> Result<()> {
        for (window, refs) in self.index.clone() {
            let blobs = self.read_blocks("tier cold scan", &refs)?;
            let rows = self.decode_rows(window, &blobs)?;
            merge_cold(hot, window, self.pattern, rows, keep);
        }
        Ok(())
    }
}

/// Lists one record of a restored cold log in `index`, every block of
/// which is live (a checkpoint copies no other): the block's header names
/// its window and row count. A record that is not a block of a `kind`
/// store is refused.
fn index_block(
    index: &mut BTreeMap<WindowId, Vec<BlockRef>>,
    kind: BlockKind,
    at: RecordLocation,
    payload: &[u8],
) -> Result<()> {
    let block = BlockReader::open(payload)?;
    let found = block.kind();
    if found != kind {
        let detail = format!("a {found:?} block in a {kind:?} store");
        return Err(StoreError::invalid_state(detail));
    }
    let rows = u32::try_from(block.rows())
        .map_err(|_| StoreError::invalid_state(format!("a block of {} rows", block.rows())))?;
    index
        .entry(block.window())
        .or_default()
        .push(BlockRef { at, rows });
    Ok(())
}

impl StateBackend for TieredStore {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        // No promotion needed: cold rows are strictly older, and the
        // merge happens on the read side.
        self.inner.append(key, window, value, ts)?;
        self.track(key, window, value.len(), ts);
        self.demote_to_budget(self.cfg.hot_bytes)
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        collect_chunk(|sink| self.drain_window_chunk(window, sink))
    }

    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        // Whatever the engine drains now is gone from the hot tier.
        self.untrack_window(window);
        let Some(blob) = self.next_cold_block(window)? else {
            return self.inner.drain_window_chunk(window, sink);
        };
        // A block's rows are sorted by key: collected, its runs are whole lists.
        self.lend_rows(window, &blob, &mut |key, _, value| sink(key, value))?;
        Ok(true)
    }

    // `take_values_with` keeps the trait's default, which lends the list
    // this take returns: promoting and untracking happen here, once.
    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.promote_window(window)?;
        self.untrack_key(key, window);
        self.inner.take_values(key, window)
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.promote_window(window)?;
        self.inner.peek_values(key, window)
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        self.promote_window(window)?;
        self.untrack_key(key, window);
        self.inner.take_aggregate(key, window)
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        // A put supersedes any cold version of this key; promotion skips
        // cold aggregates whose key is live in the hot tier.
        self.inner.put_aggregate(key, window, aggregate)?;
        self.track(key, window, aggregate.len(), window.start);
        self.demote_to_budget(self.cfg.hot_bytes)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        self.log.sync()
    }

    fn read_view(&mut self) -> Result<Option<StateView>> {
        let Some(hot) = self.inner.read_view()? else {
            return Ok(None);
        };
        if self.index.is_empty() {
            return Ok(Some(hot));
        }
        let mut entries = hot.to_entries();
        self.merge_all_cold(&mut entries, &|_| true)?;
        Ok(Some(StateView::from_entries(hot.pattern, entries)))
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        let hot = self.inner.extract_range(in_range, kind)?;
        if self.index.is_empty() {
            return Ok(hot);
        }
        let mut entries: Entries = hot
            .into_iter()
            .map(|entry| match entry {
                StateEntry::Values {
                    key,
                    window,
                    values,
                } => ((key, window), ViewValue::Values(values)),
                StateEntry::Aggregate { key, window, value } => {
                    ((key, window), ViewValue::Aggregate(value))
                }
            })
            .collect();
        self.merge_all_cold(&mut entries, in_range)?;
        Ok(entries
            .into_iter()
            .map(|((key, window), value)| state_entry(key, window, value))
            .collect())
    }

    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        // Install whatever finished since the last boundary.
        let landed = self.lane.drain();
        self.install_prefetches(landed);
        self.submit_prefetch(stream_time)?;
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
        let tracked_keys = self.hot.values().flat_map(|hw| hw.keys.keys());
        let held_blocks = self.draining.values().flatten();
        let index_entry = std::mem::size_of::<(WindowId, Vec<BlockRef>)>();
        let block_refs = self.index.values().map(Vec::len).sum::<usize>();
        self.inner.memory_bytes()
            + self.prefetched_bytes as usize
            + self.index.len() * index_entry
            + block_refs * std::mem::size_of::<BlockRef>()
            + tracked_keys.map(Vec::len).sum::<usize>()
            + held_blocks.map(Vec::len).sum::<usize>()
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        // Seal the hot tier entirely: the snapshot is then the cold log's
        // live blocks, and the inner checkpoint is tiny.
        self.demote_to_budget(0)?;
        self.inner.flush()?;
        let hot_dir = dir.join(CKPT_HOT);
        self.vfs
            .create_dir_all(&hot_dir)
            .map_err(|e| StoreError::io_at("tier checkpoint dir", &hot_dir, e))?;
        self.inner.checkpoint(&hot_dir)?;
        let blocks = self.index.values().flatten();
        let mut live: Vec<_> = blocks.map(BlockRef::record).collect();
        live.sort_unstable();
        self.log.checkpoint(&live, dir, CKPT_COLD)
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        // Beside the retired sidecar, the cold log may hold dead blocks
        // only the sidecar excluded: restoring them would bring back rows
        // that were already consumed.
        let retired = dir.join(RETIRED_META);
        if self.vfs.exists(&retired) {
            let detail = "a tier checkpoint indexed by the retired sidecar";
            return Err(StoreError::corruption(retired, 0, detail));
        }
        self.settle_inflight();
        self.prefetched.clear();
        self.prefetched_bytes = 0;
        self.draining.clear();
        self.hot.clear();
        self.hot_bytes = 0;
        self.index.clear();
        self.inner.restore(&dir.join(CKPT_HOT))?;
        let (kind, index) = (self.block_kind(), &mut self.index);
        self.log.restore_from(dir, CKPT_COLD, |at, payload| {
            index_block(index, kind, at, payload)
        })?;
        self.update_gauges();
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.settle_inflight();
        self.inner.close()?;
        self.log.destroy();
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
    /// Tiers every store `inner` creates, with the given knobs, routing
    /// the cold log (and ring reads) of every tiered store through `vfs`.
    pub fn new(inner: Arc<dyn StateBackendFactory>, cfg: TierConfig, vfs: Arc<dyn Vfs>) -> Self {
        TieredFactory { inner, cfg, vfs }
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
    use flowkv_common::columnar::BLOCK_MAGIC;
    use flowkv_common::logfile::{LogWriter, RECORD_HEADER_LEN};
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

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
        let vfs = StdVfs::shared();
        let factory = TieredFactory::new(
            Arc::new(FlowKvFactory::new(
                FlowKvConfig::small_for_tests(),
                vfs.clone(),
            )),
            TierConfig::new(hot_bytes),
            vfs,
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
        let window = WindowKind::Session { gap: 50 };
        let (mut s, _) = recorded(dir.path(), AggregateKind::FullList, window, 0, plain());
        let win = w(0, 100);
        // Eight sealed blocks of 16 KiB: once promoted they are 128 KiB
        // of dead bytes, the whole log — past both compaction floors.
        for i in 0..8u8 {
            s.append(b"k", win, &[i; 16 << 10], i64::from(i)).unwrap();
        }
        let sealed = std::fs::metadata(s.log.path()).unwrap().len();
        assert!(sealed >= 128 << 10, "cold log holds {sealed} bytes");
        // Promote (take) then write more: the wave after the next append
        // sees dead blocks above both thresholds and compacts.
        let _ = s.take_values(b"k", win).unwrap();
        s.append(b"k2", w(100, 200), b"x", 101).unwrap();
        let rewritten = std::fs::metadata(s.log.path()).unwrap().len();
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

    /// The rows of `window`'s cold blocks as `(key, value, ts)`, in block
    /// and row order.
    fn cold_rows(s: &mut TieredStore, window: WindowId) -> Vec<(Vec<u8>, Vec<u8>, Timestamp)> {
        let refs = s.index[&window].clone();
        let blobs = s.read_blocks("test", &refs).unwrap();
        let rows = s.decode_rows(window, &blobs).unwrap();
        rows.into_iter().map(|r| (r.key, r.value, r.ts)).collect()
    }

    /// The `(key, ts)` of every append a [`Recording`] store has seen.
    type Appends = Arc<Mutex<Vec<(Vec<u8>, Timestamp)>>>;

    /// A wrapped store that records the appends the tier makes of it and
    /// can charge a sleep to every consuming read, as a slow device would.
    struct Recording {
        inner: Box<dyn StateBackend>,
        appends: Appends,
        read_sleep: Duration,
    }

    impl Recording {
        fn slow_read(&self) {
            if !self.read_sleep.is_zero() {
                let _t = self.inner.metrics().timer(OpCategory::Read);
                std::thread::sleep(self.read_sleep);
            }
        }
    }

    impl StateBackend for Recording {
        fn append(&mut self, key: &[u8], w: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
            self.appends.lock().unwrap().push((key.to_vec(), ts));
            self.inner.append(key, w, value, ts)
        }
        fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
            self.slow_read();
            self.inner.get_window_chunk(window)
        }
        fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
            self.slow_read();
            self.inner.take_values(key, window)
        }
        fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
            self.inner.peek_values(key, window)
        }
        fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
            self.slow_read();
            self.inner.take_aggregate(key, window)
        }
        fn put_aggregate(&mut self, key: &[u8], window: WindowId, agg: &[u8]) -> Result<()> {
            self.inner.put_aggregate(key, window, agg)
        }
        fn flush(&mut self) -> Result<()> {
            self.inner.flush()
        }
        fn extract_range(&mut self, f: KeyFilter<'_>, k: AggregateKind) -> Result<Vec<StateEntry>> {
            self.inner.extract_range(f, k)
        }
        fn metrics(&self) -> Arc<StoreMetrics> {
            self.inner.metrics()
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn checkpoint(&mut self, dir: &Path) -> Result<()> {
            self.inner.checkpoint(dir)
        }
        fn restore(&mut self, dir: &Path) -> Result<()> {
            self.inner.restore(dir)
        }
        fn close(&mut self) -> Result<()> {
            self.inner.close()
        }
    }

    /// A tier of `hot_bytes` over a [`Recording`] FlowKV store of `cfg`,
    /// plus the appends that store sees.
    fn recorded(
        dir: &Path,
        aggregate: AggregateKind,
        window: WindowKind,
        hot_bytes: usize,
        (cfg, read_sleep): (FlowKvConfig, Duration),
    ) -> (TieredStore, Appends) {
        let ctx = ctx(dir, aggregate, window);
        let appends = Appends::default();
        let inner = Recording {
            inner: FlowKvFactory::new(cfg, StdVfs::shared())
                .create(&ctx)
                .unwrap(),
            appends: Arc::clone(&appends),
            read_sleep,
        };
        let cfg = TierConfig::new(hot_bytes);
        let tier = TieredStore::new(Box::new(inner), &ctx, cfg, StdVfs::shared()).unwrap();
        (tier, appends)
    }

    /// The small test store, reads at full speed.
    fn plain() -> (FlowKvConfig, Duration) {
        (FlowKvConfig::small_for_tests(), Duration::ZERO)
    }

    fn tiered_store(dir: &Path, aggregate: AggregateKind, window: WindowKind) -> TieredStore {
        recorded(dir, aggregate, window, 32 << 20, plain()).0
    }

    #[test]
    fn demoted_block_is_sorted_by_key_and_keeps_each_keys_append_order() {
        let win = w(0, 100);
        let row = |k: &[u8], v: &[u8], ts| (k.to_vec(), v.to_vec(), ts);

        // RMW: whatever order keys were taken and put back in, the block
        // lists the live ones sorted, each with its latest aggregate.
        let dir = ScratchDir::new("tier-order-rmw").unwrap();
        let mut s = tiered_store(
            dir.path(),
            AggregateKind::Incremental,
            WindowKind::Fixed { size: 100 },
        );
        for key in [b"d", b"b", b"c", b"a"] {
            s.put_aggregate(key, win, b"1").unwrap();
        }
        assert_eq!(s.take_aggregate(b"b", win).unwrap(), Some(b"1".to_vec()));
        s.put_aggregate(b"b", win, b"2").unwrap();
        assert_eq!(s.take_aggregate(b"a", win).unwrap(), Some(b"1".to_vec()));
        s.put_aggregate(b"e", win, b"1").unwrap();
        s.put_aggregate(b"c", win, b"2").unwrap(); // over a live key
        assert_eq!(s.take_aggregate(b"d", win).unwrap(), Some(b"1".to_vec()));
        s.put_aggregate(b"d", win, b"2").unwrap();
        s.demote_to_budget(0).unwrap();
        let expect = vec![
            row(b"b", b"2", 0),
            row(b"c", b"2", 0),
            row(b"d", b"2", 0),
            row(b"e", b"1", 0),
        ];
        assert_eq!(cold_rows(&mut s, win), expect);
        assert!(s.hot.is_empty() && s.hot_bytes == 0);
        s.close().unwrap();

        // AUR: a row per append, under the key's largest timestamp.
        let dir = ScratchDir::new("tier-order-aur").unwrap();
        let mut s = tiered_store(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
        );
        for (i, key) in [b"c", b"b", b"a"].into_iter().enumerate() {
            s.append(key, win, format!("v{i}").as_bytes(), i as i64)
                .unwrap();
        }
        assert_eq!(s.take_values(b"a", win).unwrap(), vec![b"v2".to_vec()]);
        s.append(b"a", win, b"v3", 3).unwrap();
        s.append(b"b", win, b"v4", 9).unwrap();
        s.append(b"b", win, b"v5", 4).unwrap();
        s.demote_to_budget(0).unwrap();
        let expect = vec![
            row(b"a", b"v3", 3),
            row(b"b", b"v1", 9),
            row(b"b", b"v4", 9),
            row(b"b", b"v5", 9),
            row(b"c", b"v0", 0),
        ];
        assert_eq!(cold_rows(&mut s, win), expect);
        s.close().unwrap();
    }

    /// Drains `window` to its end, returning each key's values in the
    /// order the chunks delivered them. `between` runs after every chunk.
    fn drain(
        s: &mut TieredStore,
        window: WindowId,
        mut between: impl FnMut(&mut TieredStore, usize),
    ) -> BTreeMap<Vec<u8>, Vec<Vec<u8>>> {
        let mut chunks = Vec::new();
        while let Some(chunk) = s.get_window_chunk(window).unwrap() {
            chunks.push(chunk);
            between(s, chunks.len());
        }
        crate::test_common::merge_chunks(chunks)
    }

    #[test]
    fn long_blocks_dictionary_encode_values_only_where_that_pays() {
        // Two windows of 1 200 rows, past the block writer's decision
        // after 256 rows: near-unique 8-byte values, as Q7's prices are,
        // and ten values repeating.
        let window = WindowKind::Fixed { size: 100 };
        let (unique, repeating) = (w(0, 100), w(100, 200));
        let append_both = |s: &mut TieredStore| {
            for i in 0..1_200u64 {
                let key = format!("auction-{}", i % 37).into_bytes();
                let ts = (i % 100) as i64;
                let price = i * 7_919 + 1_000_003;
                s.append(&key, unique, &price.to_le_bytes(), ts).unwrap();
                s.append(&key, repeating, &(i % 10).to_le_bytes(), 100 + ts)
                    .unwrap();
            }
        };
        let dir = ScratchDir::new("tier-dict-choice").unwrap();
        let mut s = tiered_store(dir.path(), AggregateKind::FullList, window);
        append_both(&mut s);
        s.demote_to_budget(0).unwrap();
        let hot_dir = ScratchDir::new("tier-dict-choice-hot").unwrap();
        let mut hot = tiered_store(hot_dir.path(), AggregateKind::FullList, window);
        append_both(&mut hot);

        let mut flags = Vec::new();
        for win in [unique, repeating] {
            let refs = s.index[&win].clone();
            assert_eq!(refs.len(), 1, "one block of {win:?}");
            let blobs = s.read_blocks("test", &refs).unwrap();
            // The flags byte follows the magic, the version and the kind;
            // its low bit marks a value dictionary.
            flags.push(blobs[0][BLOCK_MAGIC.len() + 2]);
            let mut lent: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
            let mut sink = |key: &[u8], _, value: &[u8]| {
                lent.entry(key.to_vec()).or_default().push(value.to_vec())
            };
            s.lend_rows(win, &blobs[0], &mut sink).unwrap();
            let drained = drain(&mut s, win, |_, _| ());
            assert_eq!(drained, drain(&mut hot, win, |_, _| ()));
            assert_eq!(lent, drained);
        }
        assert_eq!(
            flags,
            [0, 1],
            "inline unique values, a dictionary of repeating ones"
        );
        assert!(hot.index.is_empty(), "the hot-only store demoted a window");
        s.close().unwrap();
        hot.close().unwrap();
    }

    #[test]
    fn cold_aar_trigger_drains_its_blocks_without_replaying_them() {
        let dir = ScratchDir::new("tier-aar-drain").unwrap();
        let window = WindowKind::Fixed { size: 100 };
        let (mut s, appends) = recorded(
            dir.path(),
            AggregateKind::FullList,
            window,
            32 << 20,
            plain(),
        );
        let (win, other) = (w(0, 100), w(100, 200));
        let mut expect: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
        let mut n = 0;
        let mut append = |s: &mut TieredStore, rows: usize| {
            for _ in 0..rows {
                let (key, value) = (format!("k{}", n % 5).into_bytes(), format!("v{n}"));
                s.append(&key, win, value.as_bytes(), n).unwrap();
                expect.entry(key).or_default().push(value.into_bytes());
                n += 1;
            }
        };
        // Three cold blocks, then hot rows spanning several chunks.
        for _ in 0..3 {
            append(&mut s, 20);
            s.demote_to_budget(0).unwrap();
        }
        append(&mut s, 40);
        // The AAR hot entry is bytes alone: the tier copied no key.
        assert!(s.hot[&win].keys.is_empty() && s.hot[&win].bytes > 0);
        assert_eq!(s.index[&win].len(), 3);
        // A prefetch that landed when the window had one block: the
        // drain must read the other two behind it.
        let first_ref = s.index[&win][..1].to_vec();
        let first = s.read_blocks("test", &first_ref).unwrap();
        s.install_prefetches(vec![Ok((win, first))]);

        let seen = appends.lock().unwrap().len();
        let drained = drain(&mut s, win, |s, chunks| match chunks {
            // After the first cold chunk: demotions elsewhere, retired
            // again at once — enough dead bytes to rewrite the cold log
            // under the two blocks still queued.
            1 => {
                assert_eq!(s.draining[&win].len(), 2);
                for i in 0..8u8 {
                    s.append(b"x", other, &[i; 16 << 10], 150).unwrap();
                    s.demote_to_budget(0).unwrap();
                }
                drop(drain(s, other, |_, _| ()));
                assert_eq!(s.store_metrics.snapshot().compactions, 1);
            }
            // Mid-way through the wrapped store's own chunks: the rest
            // of the window is sealed under the drain and queues behind.
            5 => {
                assert!(!s.draining.contains_key(&win));
                s.demote_to_budget(0).unwrap();
            }
            _ => {}
        });
        assert_eq!(
            drained, expect,
            "each key: cold values, then hot, in append order"
        );
        let replayed: Vec<_> = appends.lock().unwrap()[seen..]
            .iter()
            .filter(|(key, _)| key.starts_with(b"k"))
            .cloned()
            .collect();
        assert_eq!(replayed, vec![], "the drain wrote rows back into the store");
        assert_eq!(s.store_metrics.snapshot().prefetch_hits, 1);
        assert_eq!(s.get_window_chunk(win).unwrap(), None);
        s.close().unwrap();
    }

    #[test]
    fn promotion_replays_an_aur_key_under_its_largest_timestamp() {
        let dir = ScratchDir::new("tier-aur-ts").unwrap();
        let window = WindowKind::Session { gap: 50 };
        let (mut s, appends) = recorded(
            dir.path(),
            AggregateKind::FullList,
            window,
            32 << 20,
            plain(),
        );
        let win = w(0, 100);
        // `a` peaks while cold, `b` while hot.
        for (key, ts) in [(b"a", 10), (b"a", 40), (b"b", 7), (b"a", 20)] {
            s.append(key, win, b"v", ts).unwrap();
        }
        s.demote_to_budget(0).unwrap();
        for (key, ts) in [(b"a", 15), (b"b", 90), (b"b", 30)] {
            s.append(key, win, b"v", ts).unwrap();
        }
        let seen = appends.lock().unwrap().len();
        assert_eq!(s.take_values(b"a", win).unwrap().len(), 4);
        let replayed = appends.lock().unwrap()[seen..].to_vec();
        let of = |key: &[u8], ts, n| vec![(key.to_vec(), ts); n];
        assert_eq!(replayed, [of(b"a", 40, 4), of(b"b", 90, 3)].concat());
        assert_eq!(s.hot[&win].keys[b"b".as_slice()].max_ts, 90);
        s.close().unwrap();
    }

    #[test]
    fn memory_bytes_counts_the_tracked_keys_until_they_are_consumed() {
        let dir = ScratchDir::new("tier-mem").unwrap();
        let mut s = tiered_store(
            dir.path(),
            AggregateKind::Incremental,
            WindowKind::Fixed { size: 100 },
        );
        let win = w(0, 100);
        for key in [b"key-1", b"key-2", b"key-3"] {
            s.put_aggregate(key, win, b"1").unwrap();
        }
        assert_eq!(s.memory_bytes(), s.inner.memory_bytes() + 15);
        for key in [b"key-1", b"key-2", b"key-3"] {
            s.take_aggregate(key, win).unwrap();
        }
        assert_eq!(s.memory_bytes(), s.inner.memory_bytes());
        s.close().unwrap();
    }

    #[test]
    fn memory_bytes_grows_with_the_blocks_of_a_window() {
        let dir = ScratchDir::new("tier-mem-blocks").unwrap();
        let window = WindowKind::Session { gap: 50 };
        let (mut s, _) = recorded(dir.path(), AggregateKind::FullList, window, 0, plain());
        let win = w(0, 100);
        let mut charged = Vec::new();
        // Budget 0: every append seals one more block of the window.
        for blocks in 1..=4 {
            s.append(b"k", win, b"v", blocks as i64).unwrap();
            assert_eq!(s.index[&win].len(), blocks);
            charged.push(s.memory_bytes() - s.inner.memory_bytes());
        }
        assert!(charged.windows(2).all(|c| c[0] < c[1]), "{charged:?}");
        s.close().unwrap();
    }

    #[test]
    fn no_tier_timer_spans_a_call_into_the_wrapped_store() {
        // Every consuming read of the wrapped store sleeps 2 ms under its
        // own Read timer on the metrics block the tier shares. A tier
        // timer held across such a call (or across another timed tier
        // function) would count that time twice.
        let dir = ScratchDir::new("tier-timers").unwrap();
        let window = WindowKind::Fixed { size: 100 };
        let slow = (FlowKvConfig::small_for_tests(), Duration::from_millis(2));
        let (mut s, _) = recorded(dir.path(), AggregateKind::FullList, window, 0, slow);
        let (win, next) = (w(0, 100), w(100, 200));
        let start = Instant::now();
        // Forced demotion: each append drains the window back out.
        for i in 0..8u8 {
            s.append(b"k", win, &[i; 16 << 10], i64::from(i)).unwrap();
        }
        drop(drain(&mut s, win, |_, _| ()));
        // 128 KiB of dead blocks: this wave also rewrites the cold log.
        s.append(b"k", next, b"v", 101).unwrap();
        let wall = start.elapsed().as_nanos() as u64;
        let m = s.store_metrics.snapshot();
        // Every 16 KiB append also overflows the wrapped store's write
        // buffer: eight flushes inside the appends that triggered them.
        assert_eq!((m.compactions, m.flushes), (1, 8));
        assert!(m.read_nanos >= 16 * 2_000_000, "reads slept {m:?}");
        assert!(
            m.total_store_nanos() <= wall,
            "write + read + compaction = {} ns of {wall} ns wall: {m:?}",
            m.total_store_nanos()
        );
        s.close().unwrap();
    }

    /// The cold log's shape: `(generation, total, dead)`.
    fn cold_log(s: &TieredStore) -> (u64, u64, u64) {
        (s.log.generation(), s.log.total(), s.log.dead())
    }

    /// The block index as `(window, rows per block)`.
    fn block_rows(s: &TieredStore) -> Vec<(WindowId, Vec<u32>)> {
        let rows = |refs: &Vec<BlockRef>| refs.iter().map(|r| r.rows).collect();
        s.index.iter().map(|(w, refs)| (*w, rows(refs))).collect()
    }

    #[test]
    fn a_checkpoint_copies_the_live_blocks_and_leaves_the_cold_log_alone() {
        let dir = ScratchDir::new("tier-ckpt-live").unwrap();
        let ckpt = ScratchDir::new("tier-ckpt-live-dst").unwrap();
        let window = WindowKind::Session { gap: 50 };
        let (mut s, _) = recorded(dir.path(), AggregateKind::FullList, window, 0, plain());
        // Every append seals a block; the taken window's two go dead.
        s.append(b"gone", w(0, 100), b"x", 1).unwrap();
        s.append(b"gone", w(0, 100), b"y", 2).unwrap();
        for (i, key) in [b"k0", b"k1", b"k0"].into_iter().enumerate() {
            s.append(key, w(100, 200), format!("v{i}").as_bytes(), 101)
                .unwrap();
        }
        assert_eq!(s.take_values(b"gone", w(0, 100)).unwrap().len(), 2);
        let before = cold_log(&s);
        assert!(
            before.2 > 0,
            "the taken window's blocks are dead: {before:?}"
        );
        s.checkpoint(ckpt.path()).unwrap();
        assert_eq!(cold_log(&s), before);
        let listed: u64 = s.index.values().flatten().map(|r| r.record().1).sum();
        let copied = StdVfs.file_len(&ckpt.path().join(CKPT_COLD)).unwrap();
        assert_eq!((copied, listed), (before.1 - before.2, before.1 - before.2));

        // One scan of the copy rebuilds the index: each block under its
        // window, in demotion order, with its row count.
        let dir2 = ScratchDir::new("tier-ckpt-live-2").unwrap();
        let (mut restored, _) = recorded(dir2.path(), AggregateKind::FullList, window, 0, plain());
        restored.restore(ckpt.path()).unwrap();
        assert_eq!(block_rows(&restored), block_rows(&s));
        assert_eq!(cold_log(&restored), (0, copied, 0));
        assert_eq!(
            restored.take_values(b"k0", w(100, 200)).unwrap(),
            [b"v0", b"v2"]
        );
        assert!(restored.take_values(b"gone", w(0, 100)).unwrap().is_empty());
        s.close().unwrap();
        restored.close().unwrap();
    }

    #[test]
    fn a_cold_log_record_that_is_no_block_of_the_store_is_corruption_at_its_offset() {
        let dir = ScratchDir::new("tier-restore-bad").unwrap();
        let ckpt = ScratchDir::new("tier-restore-bad-dst").unwrap();
        let window = WindowKind::Session { gap: 50 };
        let (mut s, _) = recorded(dir.path(), AggregateKind::FullList, window, 0, plain());
        s.append(b"k", w(0, 100), b"v", 1).unwrap();
        s.checkpoint(ckpt.path()).unwrap();
        let path = ckpt.path().join(CKPT_COLD);
        let block = std::fs::read(&path).unwrap();
        let mut aggregates = BlockWriter::new(false);
        aggregates.push(b"k", 1, b"agg");
        let aggregates = aggregates
            .finish(w(0, 100), BlockKind::Aggregates)
            .unwrap()
            .to_vec();
        for (second, detail) in [
            (&b"no block"[..], "cold-block"),
            (&aggregates, "Aggregates"),
        ] {
            // A valid block, then the bad record right behind it.
            let mut log = LogWriter::create_in(&StdVfs::shared(), &path).unwrap();
            log.append(&block[RECORD_HEADER_LEN as usize..]).unwrap();
            log.append(second).unwrap();
            log.sync().unwrap();
            let err = s.restore(ckpt.path()).unwrap_err();
            let at = format!("at offset {}: ", block.len());
            assert!(err.is_corruption(), "{err}");
            assert!(err.to_string().contains(&at), "{err}");
            assert!(err.to_string().contains(detail), "{err}");
        }
        s.close().unwrap();
    }

    #[test]
    fn a_restore_refuses_a_checkpoint_beside_the_retired_tiermeta() {
        let dir = ScratchDir::new("tier-restore-retired").unwrap();
        let ckpt = ScratchDir::new("tier-restore-retired-dst").unwrap();
        let window = WindowKind::Session { gap: 50 };
        let (mut s, _) = recorded(dir.path(), AggregateKind::FullList, window, 0, plain());
        s.append(b"k", w(0, 100), b"v", 1).unwrap();
        s.checkpoint(ckpt.path()).unwrap();
        s.restore(ckpt.path()).unwrap();
        // Whatever the sidecar holds, its presence says the cold log
        // beside it may carry dead blocks.
        StdVfs
            .write(&ckpt.path().join("TIERMETA"), b"FKTM")
            .unwrap();
        let err = s.restore(ckpt.path()).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("TIERMETA"), "{err}");
        s.close().unwrap();
    }
}
