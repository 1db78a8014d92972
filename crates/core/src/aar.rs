//! The Append and Aligned Read store (paper §4.1).
//!
//! Windows of *all* keys trigger together under fixed and sliding window
//! functions, so per-key access is never needed. The AAR store therefore
//! organizes data coarsely by window boundary:
//!
//! - in memory, the write buffer is split on `(start, end)` — tuples of
//!   different keys land in the same bucket;
//! - on disk, every window boundary owns its own log file, appended to at
//!   each flush;
//! - a triggered window is drained by sequential reads of exactly one
//!   file (*gradual state loading*: each call returns one bounded chunk);
//! - once drained, the file is deleted — no compaction ever runs, the
//!   headline CPU saving of this store over an LSM baseline.
//!
//! # One table of windows
//!
//! The on-disk layout — one file per boundary — is the only structure:
//! the store keeps one table ordered by window, and an entry
//! ([`AarWindow`]) is everything known about one boundary: the buffered
//! [`Run`], the open [`LogWriter`] if the window holds one, whether its
//! file exists (a field, never a question put to the filesystem), the
//! file [`Prefix`] the ring loaded ahead of the trigger, and the
//! [`Drain`] in flight. An entry exists exactly while the window holds
//! state. Window order is the order a flush writes files in, read-ahead
//! candidates claim the byte budget in (soonest trigger first), and the
//! view and a checkpoint copy in: which file an op lands on is a
//! function of the input.
//!
//! # One record path
//!
//! A pair has one encoding from `append` on: two length-prefixed fields,
//! written straight into the window's run. A flush writes each
//! `chunk_entries`-pair slice of the run as one log record as it stands —
//! a record is "pairs to the end of its payload" — and keeps the run's
//! allocation. Nothing is re-encoded on the way back either: the memory
//! remainder of a drain is the run itself, served as the last payload.
//! [`decode_pairs`] is the one decode, for file records, the run, and the
//! view's two passes, and it *lends*: a pair is two slices of the payload
//! in hand, given to the caller's sink. The drain is borrowed all the way
//! ([`AarStore::drain_window_chunk`]); the owned chunk is that step
//! collected. [`next_record`] is the one step that reads a window file
//! and the one statement of the rule that a torn record ends it: a drain
//! takes a step per payload it needs, [`read_prefix`] loops it over a
//! file for the serving view and for the ring job. A [`Prefix`] holds the
//! record payloads as read, back to back — a record is "pairs to the end
//! of its payload", so they are one payload, the first a drain serves:
//! the ring takes the device read and the CRC off the worker thread, and
//! no pair is built anywhere.
//!
//! Two behaviours differ from the six-map store this replaced. A chunk
//! never exceeds `chunk_entries` pairs (a drain used to top a chunk up
//! with whole records, up to `2 × chunk_entries − 1`). And a flush skips
//! a window that is mid-drain, whose drain serves the run after the file
//! (the flush used to append behind the drain's reader, which never saw
//! the record, and the drain deleted it with the file; the engine never
//! appends to a draining window).
//!
//! # Open writers
//!
//! At most [`MAX_OPEN_WRITERS`] windows keep their writer between
//! flushes: a writer opened beyond the cap is closed again once its
//! flush is written. Every flush walks the live windows in the same
//! order, so evicting the least recently flushed writer instead would
//! close each writer just before its next use as soon as more than the
//! cap were live — recency bought bookkeeping and no reuse.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::backend::{collect_chunk, PairSink, WindowChunk};
use flowkv_common::codec::{put_len_prefixed, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::{IoRing, Lane, PrefetchProbe};
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::metrics::{OpCategory, RecordTimer, StoreMetrics};
use flowkv_common::registry::ViewValue;
use flowkv_common::telemetry::Telemetry;
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::Vfs;

/// File name of the log holding one window's state.
fn window_file_name(window: WindowId) -> String {
    format!("w_{}_{}.aar", window.start, window.end)
}

fn window_path(dir: &Path, window: WindowId) -> PathBuf {
    dir.join(window_file_name(window))
}

/// Name of the checkpoint manifest listing on-disk windows.
const MANIFEST_NAME: &str = "AAR_WINDOWS";

/// Maximum per-window log writers held open between flushes: thousands of
/// sliding-window boundaries can be live, too many for a descriptor each.
const MAX_OPEN_WRITERS: usize = 64;

/// Write-buffer charge of a buffered pair beyond its key and value bytes.
const PAIR_OVERHEAD: usize = 48;

/// A window's buffered pairs, in the form its file holds them.
#[derive(Default)]
struct Run {
    /// The pairs back to back, each two length-prefixed fields.
    bytes: Vec<u8>,
    /// Offset in `bytes` after every `chunk_entries`-th pair: where a
    /// flush cuts the run into records.
    cuts: Vec<usize>,
    pairs: usize,
    /// What the pairs were charged against the write buffer.
    charge: usize,
}

impl Run {
    /// Appends one pair and returns what it is charged.
    fn push(&mut self, key: &[u8], value: &[u8], chunk_entries: usize) -> usize {
        put_len_prefixed(&mut self.bytes, key);
        put_len_prefixed(&mut self.bytes, value);
        self.pairs += 1;
        if self.pairs.is_multiple_of(chunk_entries) {
            self.cuts.push(self.bytes.len());
        }
        let charge = key.len() + value.len() + PAIR_OVERHEAD;
        self.charge += charge;
        charge
    }

    /// The run as record payloads of at most `chunk_entries` pairs each,
    /// so gradual loading later reads bounded records.
    fn records(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        let ends = self.cuts.iter().copied().chain([self.bytes.len()]);
        ends.map(move |end| &self.bytes[std::mem::replace(&mut start, end)..end])
            .filter(|record| !record.is_empty())
    }

    /// Empties the run, keeping its allocations for the next fill.
    fn clear(&mut self) {
        self.bytes.clear();
        self.cuts.clear();
        self.pairs = 0;
        self.charge = 0;
    }
}

/// The start of a window file, up to a snapshot boundary.
struct Prefix {
    /// The payloads of the records read, back to back: one payload.
    payload: Vec<u8>,
    /// The boundary, where a drain's continuation reader picks up later
    /// flushes — or `None` when the scan met a torn record below it: a
    /// drain stops serving the file there, so it opens no reader.
    resume: Option<u64>,
    /// Disk bytes of the records read.
    bytes: u64,
}

/// What a background window read returns through the ring.
struct AarAsyncRead {
    window: WindowId,
    epoch: u64,
    prefix: Prefix,
}

/// In-flight drain of one triggered window: the prefetched file prefix,
/// then the rest of the file, then the window's run — oldest data first.
struct Drain {
    reader: Option<LogReader>,
    /// The payload being served — the prefix, a file record, at last the
    /// run — and how far into it earlier steps got.
    payload: Vec<u8>,
    pos: usize,
}

/// Everything the store holds of one window.
#[derive(Default)]
struct AarWindow {
    run: Run,
    /// The file's writer, while it is among the `MAX_OPEN_WRITERS` open.
    writer: Option<LogWriter>,
    /// Whether the window's file exists.
    on_disk: bool,
    /// The file prefix loaded by the ring, awaiting the aligned trigger.
    prefetched: Option<Prefix>,
    drain: Option<Drain>,
}

/// The append-and-aligned-read store for one partition.
pub struct AarStore {
    dir: PathBuf,
    write_buffer_bytes: usize,
    chunk_entries: usize,
    windows: BTreeMap<WindowId, AarWindow>,
    /// Charge of every run in the table.
    buffer_bytes: usize,
    /// Entries of the table holding a writer.
    open_writers: usize,
    metrics: Arc<StoreMetrics>,
    /// Samples the per-record `append` timer.
    append_timer: RecordTimer,
    vfs: Arc<dyn Vfs>,
    /// Read-ahead lane keyed by window: without threads (every read
    /// synchronous) until [`AarStore::set_ring`] attaches the worker's
    /// background I/O ring.
    lane: Lane<WindowId, AarAsyncRead>,
    /// Bumped by close/restore so stale completions can't install.
    epoch: u64,
    prefetch_probe: Option<PrefetchProbe>,
}

impl AarStore {
    /// Opens a store rooted at `dir`, performing all file IO through `vfs`.
    pub fn open(
        dir: &Path,
        write_buffer_bytes: usize,
        chunk_entries: usize,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io_at("aar dir", dir, e))?;
        // Per-window files left by a previous run are live windows.
        let names = vfs
            .read_dir_names(dir)
            .map_err(|e| StoreError::io_at("aar scan", dir, e))?;
        let mut windows: BTreeMap<WindowId, AarWindow> = BTreeMap::new();
        for window in names.iter().filter_map(|name| parse_window_file_name(name)) {
            windows.entry(window).or_default().on_disk = true;
        }
        Ok(AarStore {
            dir: dir.to_path_buf(),
            write_buffer_bytes: write_buffer_bytes.max(1024),
            chunk_entries: chunk_entries.max(1),
            windows,
            buffer_bytes: 0,
            open_writers: 0,
            metrics,
            append_timer: RecordTimer::default(),
            lane: Lane::inline(Arc::clone(&vfs)),
            vfs,
            epoch: 0,
            prefetch_probe: None,
        })
    }

    /// Attaches the worker's background I/O ring.
    pub fn set_ring(&mut self, ring: Arc<IoRing>) {
        self.lane.attach(ring);
    }

    /// Wires prefetch-accuracy telemetry, labelled `{store=tag}`.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>, tag: &str) {
        let probe = PrefetchProbe::new(&telemetry, tag);
        self.lane.set_probe(probe.clone());
        self.prefetch_probe = Some(probe);
    }

    /// Appends `(key, value)` to `window`'s bucket (paper Listing 1,
    /// `Append(K, V, W)`).
    pub fn append(&mut self, key: &[u8], window: WindowId, value: &[u8]) -> Result<()> {
        {
            let _t = self.append_timer.start(&self.metrics, OpCategory::Write);
            let run = &mut self.windows.entry(window).or_default().run;
            self.buffer_bytes += run.push(key, value, self.chunk_entries);
            self.metrics.add_records_written(1);
        }
        // The flush times itself: no timer of this call may span it.
        if self.buffer_bytes >= self.write_buffer_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Reads the next chunk of `window`'s state (paper Listing 1,
    /// `GetWindow(W)`), deleting the window once fully drained: one
    /// [`AarStore::drain_window_chunk`] step, copied out.
    pub fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        collect_chunk(|sink| self.drain_window_chunk(window, sink))
    }

    /// One step of gradual state loading: lends up to `chunk_entries` of
    /// `window`'s pairs to `sink`, out of the payload in hand, and says
    /// whether the window may hold more. The step that finds nothing
    /// left forgets the window and deletes its file.
    pub fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        let _t = self.metrics.timer(OpCategory::Read);
        let Some(entry) = self.windows.get_mut(&window) else {
            return Ok(false);
        };
        if entry.drain.is_none() {
            let mut payload = Vec::new();
            let mut reader = None;
            if entry.on_disk {
                // Make sure buffered flushes for this window are visible.
                if let Some(w) = &mut entry.writer {
                    w.flush()?;
                }
                let path = window_path(&self.dir, window);
                reader = match entry.prefetched.take() {
                    // The snapshot prefix was loaded in the background; a
                    // continuation reader covers post-snapshot flushes.
                    Some(prefix) => {
                        self.metrics.add_prefetch_hit();
                        if let Some(p) = &self.prefetch_probe {
                            p.hits.inc();
                        }
                        payload = prefix.payload;
                        let resume = |at| LogReader::open_at_in(&self.vfs, path, at);
                        prefix.resume.map(resume).transpose()?
                    }
                    None => {
                        // The window fired before its background read
                        // landed: fall back to a synchronous read.
                        self.metrics.add_prefetch_miss();
                        let late = self.lane.covers(&window);
                        if let (true, Some(p)) = (late, &self.prefetch_probe) {
                            p.late.inc();
                        }
                        let stall_t0 = (late && flowkv_common::trace::current().is_some())
                            .then(std::time::Instant::now);
                        let reader = LogReader::open_in(&self.vfs, path)?;
                        if let Some(t0) = stall_t0 {
                            flowkv_common::trace::instant_here(
                                "prefetch_stall",
                                "prefetch",
                                &[("stall", t0.elapsed().as_nanos() as i64)],
                            );
                        }
                        Some(reader)
                    }
                };
            }
            entry.drain = Some(Drain {
                reader,
                payload,
                pos: 0,
            });
        }
        let drain = entry.drain.as_mut().expect("begun above");
        let mut lent = 0;
        while lent < self.chunk_entries {
            if drain.pos < drain.payload.len() {
                let room = self.chunk_entries - lent;
                lent += decode_pairs(&drain.payload, &mut drain.pos, room, sink)?;
                continue;
            }
            drain.pos = 0;
            if let Some(reader) = &mut drain.reader {
                if let Some(bytes) = next_record(reader, u64::MAX, &mut drain.payload)? {
                    self.metrics.add_bytes_read(bytes);
                    continue;
                }
                drain.reader = None;
            }
            // Past the file: the pairs that never reached it leave the
            // buffer, the run itself being the last payload served.
            let run = std::mem::take(&mut entry.run);
            self.buffer_bytes -= run.charge;
            drain.payload = run.bytes;
            if drain.payload.is_empty() {
                break;
            }
        }
        if lent > 0 {
            self.metrics.add_records_read(lent as u64);
            return Ok(true);
        }
        // Fully drained: forget the window and delete its file. A read
        // submitted before the drain is waited out, not left to install
        // into the window's next life.
        let done = self.windows.remove(&window).expect("drained above");
        if let Some(Ok(read)) = self.lane.wait_for(&window) {
            self.lane.waste(read.prefix.bytes);
        }
        self.open_writers -= usize::from(done.writer.is_some());
        if done.on_disk {
            let _ = self.vfs.remove_file(&window_path(&self.dir, window));
        }
        Ok(false)
    }

    /// Flushes every buffered bucket to its per-window log file.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer_bytes == 0 {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Write);
        for (&window, entry) in &mut self.windows {
            // A window mid-drain keeps its run: the drain's reader would
            // not see a record written behind it.
            if entry.run.pairs == 0 || entry.drain.is_some() {
                continue;
            }
            let writer = match &mut entry.writer {
                Some(writer) => writer,
                closed => {
                    let path = window_path(&self.dir, window);
                    let writer = if entry.on_disk {
                        LogWriter::open_append_in(&self.vfs, &path, |_, _| Ok(()))?
                    } else {
                        LogWriter::create_in(&self.vfs, &path)?
                    };
                    self.open_writers += 1;
                    closed.insert(writer)
                }
            };
            for record in entry.run.records() {
                let loc = writer.append(record)?;
                self.metrics.add_bytes_written(loc.disk_len());
            }
            writer.flush()?;
            entry.on_disk = true;
            self.buffer_bytes -= entry.run.charge;
            entry.run.clear();
            if self.open_writers > MAX_OPEN_WRITERS {
                entry.writer = None;
                self.open_writers -= 1;
            }
        }
        self.metrics.add_flush();
        Ok(())
    }

    /// Drives the background prefetcher: installs finished ring reads,
    /// then schedules file reads for every on-disk window whose aligned
    /// trigger (its end boundary) falls within the horizon of
    /// `stream_time`.
    pub fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        // A failed background read: the window drains synchronously.
        for read in self.lane.drain().into_iter().flatten() {
            self.install(read);
        }
        self.submit_prefetch(stream_time)
    }

    /// Installs one finished read's file prefix if the window is still
    /// exactly as anticipated: same epoch, still on disk (the file the
    /// read saw: a drain that ends waits out the read covering its
    /// window), not mid-drain, not already prefetched.
    fn install(&mut self, read: AarAsyncRead) {
        let current = read.epoch == self.epoch;
        match self.windows.get_mut(&read.window) {
            Some(e) if current && e.on_disk && e.drain.is_none() && e.prefetched.is_none() => {
                self.metrics.add_bytes_read(read.prefix.bytes);
                e.prefetched = Some(read.prefix);
                self.lane.installed(1);
            }
            _ => self.lane.waste(read.prefix.bytes),
        }
    }

    /// Submits one background file read per due window, bounded by the
    /// byte budget. Each job scans a consistent snapshot — the file up
    /// to its length at submission — and never touches store state.
    fn submit_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        // Nothing to plan for a lane that admits no read at all.
        if !self.lane.admits(0, 0) {
            return Ok(());
        }
        let horizon = self.lane.due(stream_time);
        let installed = self.windows.values().filter_map(|e| e.prefetched.as_ref());
        let resident: u64 = installed.map(|prefix| prefix.bytes).sum();
        // In window order: the soonest trigger claims the budget first.
        for (&window, entry) in &mut self.windows {
            let due = entry.on_disk && window.end <= horizon;
            let idle = entry.prefetched.is_none() && entry.drain.is_none();
            if !due || !idle || self.lane.covers(&window) {
                continue;
            }
            // Push buffered log bytes out so the snapshot is complete,
            // and bound the scan at the current end of the file.
            if let Some(w) = &mut entry.writer {
                w.flush()?;
            }
            let path = window_path(&self.dir, window);
            let end_offset = match self.vfs.file_len(&path) {
                Ok(len) if len > 0 => len,
                _ => continue,
            };
            if !self.lane.admits(resident, end_offset) {
                break;
            }
            let epoch = self.epoch;
            self.lane.submit(vec![window], end_offset, move |vfs| {
                Ok(AarAsyncRead {
                    window,
                    epoch,
                    prefix: read_prefix(vfs, &path, end_offset)?,
                })
            });
        }
        Ok(())
    }

    /// Copies every live `(key, window)` value list into `out` for the
    /// queryable-state registry (`flowkv_common::registry`).
    ///
    /// Disk state is read per window file (flushing that window's writer
    /// first so the pass sees everything), then buffered pairs are
    /// appended in arrival order — the same old-then-new order a drain
    /// serves. Windows currently mid-drain are skipped: their state is
    /// already being consumed by the engine and is gone from the store's
    /// point of view. Nothing is removed.
    pub fn collect_view(
        &mut self,
        out: &mut BTreeMap<(Vec<u8>, WindowId), ViewValue>,
    ) -> Result<()> {
        let mut on_disk: Vec<WindowId> = Vec::new();
        for (&window, entry) in &mut self.windows {
            if entry.on_disk && entry.drain.is_none() {
                if let Some(w) = &mut entry.writer {
                    w.flush()?;
                }
                on_disk.push(window);
            }
        }
        // One job per window file, submitted together so a pool overlaps
        // them, then collected in window order.
        let reads = self.lane.read_through_each(on_disk.iter().map(|&window| {
            let path = window_path(&self.dir, window);
            move |vfs: &Arc<dyn Vfs>| read_prefix(vfs, &path, u64::MAX)
        }));
        // A view is owned: this is where the lent pairs are copied.
        let mut collided = Ok(());
        let mut copy = |window: WindowId, payload: &[u8]| {
            decode_pairs(payload, &mut 0, usize::MAX, &mut |key, value| {
                if collided.is_ok() {
                    collided = push_view_value(out, key.to_vec(), window, value.to_vec());
                }
            })
        };
        for (window, read) in on_disk.into_iter().zip(reads) {
            let at = |e| StoreError::io_at("aar view read", window_path(&self.dir, window), e);
            copy(window, &read.map_err(at)?.payload)?;
        }
        for (&window, entry) in &self.windows {
            if entry.drain.is_none() {
                copy(window, &entry.run.bytes)?;
            }
        }
        collided
    }

    /// Approximate bytes of state held in memory.
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// Number of per-window log writers currently open (bounded by an
    /// internal cap of 64 to avoid file-descriptor exhaustion).
    pub fn open_writers(&self) -> usize {
        self.open_writers
    }

    /// Writes a self-contained snapshot into `dst`, every file of it
    /// synced.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        self.vfs
            .create_dir_all(dst)
            .map_err(|e| StoreError::io_at("aar checkpoint dir", dst, e))?;
        let on_disk = self.windows.iter().filter(|(_, entry)| entry.on_disk);
        let windows: Vec<WindowId> = on_disk.map(|(&window, _)| window).collect();
        let mut manifest = Vec::new();
        put_varint_u64(&mut manifest, windows.len() as u64);
        // A file is synced through a handle of its own once the whole-file
        // call that wrote it returns.
        let sync = |path: &Path| self.vfs.open_rw(path)?.sync_data();
        for window in windows {
            window.encode_to(&mut manifest);
            let name = window_file_name(window);
            let copy = dst.join(&name);
            self.vfs
                .copy(&self.dir.join(&name), &copy)
                .and_then(|_| sync(&copy))
                .map_err(|e| StoreError::io_at("aar checkpoint copy", &copy, e))?;
        }
        let path = dst.join(MANIFEST_NAME);
        self.vfs
            .write(&path, &manifest)
            .and_then(|()| sync(&path))
            .map_err(|e| StoreError::io_at("aar checkpoint manifest", &path, e))
    }

    /// Replaces the store contents with the snapshot in `src`.
    pub fn restore(&mut self, src: &Path) -> Result<()> {
        self.close()?;
        self.vfs
            .create_dir_all(&self.dir)
            .map_err(|e| StoreError::io_at("aar dir", &self.dir, e))?;
        let manifest = self
            .vfs
            .read(&src.join(MANIFEST_NAME))
            .map_err(|e| StoreError::io_at("aar restore manifest", src.join(MANIFEST_NAME), e))?;
        let mut dec = Decoder::new(&manifest);
        let n = dec.get_varint_u64()? as usize;
        for _ in 0..n {
            let window = WindowId::decode_from(&mut dec)?;
            let name = window_file_name(window);
            self.vfs
                .copy(&src.join(&name), &self.dir.join(&name))
                .map_err(|e| StoreError::io_at("aar restore copy", src.join(&name), e))?;
            self.windows.entry(window).or_default().on_disk = true;
        }
        Ok(())
    }

    /// Deletes every file of the store and clears its memory.
    pub fn close(&mut self) -> Result<()> {
        // Wait out background reads before deleting the files from under
        // them, and invalidate any completion drained later.
        self.lane.abandon(|read| read.prefix.bytes);
        self.epoch += 1;
        let mut wasted = 0;
        for (window, entry) in std::mem::take(&mut self.windows) {
            wasted += entry.prefetched.map_or(0, |prefix| prefix.bytes);
            if entry.on_disk {
                let _ = self.vfs.remove_file(&window_path(&self.dir, window));
            }
        }
        self.lane.waste(wasted);
        self.buffer_bytes = 0;
        self.open_writers = 0;
        Ok(())
    }
}

/// Parses `w_<start>_<end>.aar` back into a window.
fn parse_window_file_name(name: &str) -> Option<WindowId> {
    let rest = name.strip_prefix("w_")?.strip_suffix(".aar")?;
    // `start` may itself be negative, so split from the right.
    let (start_s, end_s) = rest.rsplit_once('_')?;
    let start = start_s.parse().ok()?;
    let end = end_s.parse().ok()?;
    (start <= end).then(|| WindowId::new(start, end))
}

/// The one step of a window-file scan: reads the next record into
/// `payload` and returns its bytes on disk, or `None` where the file ends
/// for this scan — at its end; *before* crossing the snapshot boundary
/// `limit` (bytes past it may be a flush the foreground is still writing,
/// which would look torn); or at a torn record (crash mid-flush): the
/// intact prefix is served, the tail is unrecoverable framing either way.
fn next_record(reader: &mut LogReader, limit: u64, payload: &mut Vec<u8>) -> Result<Option<u64>> {
    if reader.offset() >= limit {
        return Ok(None);
    }
    match reader.next_record_into(payload) {
        Ok(loc) => Ok(loc.map(|loc| loc.disk_len())),
        Err(e) if e.is_corruption() => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reads a window file from its start up to `end_offset` (`u64::MAX`:
/// all of it). Runs as a lane job: the ring's snapshot read ahead of a
/// trigger, and the serving view's read of a whole file.
fn read_prefix(vfs: &Arc<dyn Vfs>, path: &Path, end_offset: u64) -> Result<Prefix> {
    let mut reader = LogReader::open_in(vfs, path)?;
    let (mut payload, mut bytes, mut record) = (Vec::new(), 0, Vec::new());
    while let Some(on_disk) = next_record(&mut reader, end_offset, &mut record)? {
        bytes += on_disk;
        payload.extend_from_slice(&record);
    }
    // A scan that stopped short of the boundary stopped at a tear.
    let resume = (reader.offset() >= end_offset).then_some(end_offset);
    Ok(Prefix {
        payload,
        resume,
        bytes,
    })
}

/// Lends up to `limit` pairs of a record payload — a file record, a
/// [`Prefix`] or a buffered [`Run`], the same bytes — from `*pos` on to
/// `sink`, advancing `*pos` past them; returns how many.
fn decode_pairs(
    payload: &[u8],
    pos: &mut usize,
    limit: usize,
    sink: PairSink<'_>,
) -> Result<usize> {
    let mut dec = Decoder::new(&payload[*pos..]);
    let mut lent = 0;
    while lent < limit && !dec.is_empty() {
        let key = dec.get_len_prefixed()?;
        sink(key, dec.get_len_prefixed()?);
        lent += 1;
    }
    *pos += dec.position();
    Ok(lent)
}

/// Appends one value to the `(key, window)` list of a snapshot view.
///
/// Shared by the AAR and AUR view builders (both snapshot value lists).
pub(crate) fn push_view_value(
    out: &mut BTreeMap<(Vec<u8>, WindowId), ViewValue>,
    key: Vec<u8>,
    window: WindowId,
    value: Vec<u8>,
) -> Result<()> {
    match out
        .entry((key, window))
        .or_insert_with(|| ViewValue::Values(Vec::new()))
    {
        ViewValue::Values(values) => {
            values.push(value);
            Ok(())
        }
        ViewValue::Aggregate(_) => Err(StoreError::invalid_state(
            "view value list collided with an aggregate",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_common::merge_chunks;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::{StdVfs, VfsFile};
    use std::collections::BTreeSet;
    use std::io;
    use std::path::PathBuf;
    use std::sync::Mutex;

    fn store(dir: &Path) -> AarStore {
        AarStore::open(dir, 1024, 4, StoreMetrics::new_shared(), StdVfs::shared()).unwrap()
    }

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    fn drain_all(s: &mut AarStore, window: WindowId) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        while let Some(chunk) = s.get_window_chunk(window).unwrap() {
            out.extend(chunk);
        }
        out
    }

    #[test]
    fn memory_only_roundtrip() {
        let dir = ScratchDir::new("aar-mem").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        s.append(b"a", win, b"1").unwrap();
        s.append(b"b", win, b"2").unwrap();
        s.append(b"a", win, b"3").unwrap();
        let state = drain_all(&mut s, win);
        let map = merge_chunks([state]);
        assert_eq!(map[&b"a".to_vec()], vec![b"1".to_vec(), b"3".to_vec()]);
        assert_eq!(map[&b"b".to_vec()], vec![b"2".to_vec()]);
        // Fully drained: next read is None immediately.
        assert!(s.get_window_chunk(win).unwrap().is_none());
    }

    #[test]
    fn spills_to_per_window_files() {
        let dir = ScratchDir::new("aar-spill").unwrap();
        let mut s = store(dir.path());
        let w1 = w(0, 100);
        let w2 = w(100, 200);
        for i in 0..100u32 {
            s.append(format!("k{}", i % 7).as_bytes(), w1, &[1u8; 64])
                .unwrap();
            s.append(format!("k{}", i % 7).as_bytes(), w2, &[2u8; 64])
                .unwrap();
        }
        // The tiny 1 KiB buffer must have flushed repeatedly.
        assert!(s.metrics.snapshot().flushes > 1);
        assert!(dir.path().join(window_file_name(w1)).exists());
        assert!(dir.path().join(window_file_name(w2)).exists());

        let total1: usize = drain_all(&mut s, w1).iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total1, 100);
        // Draining w1 removed only w1's file.
        assert!(!dir.path().join(window_file_name(w1)).exists());
        assert!(dir.path().join(window_file_name(w2)).exists());
        let total2: usize = drain_all(&mut s, w2).iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total2, 100);
    }

    #[test]
    fn chunks_respect_gradual_loading() {
        let dir = ScratchDir::new("aar-gradual").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        for i in 0..20u32 {
            s.append(format!("key-{i}").as_bytes(), win, b"v").unwrap();
        }
        s.flush().unwrap();
        let mut calls = 0;
        let mut total = 0;
        while let Some(chunk) = s.get_window_chunk(win).unwrap() {
            calls += 1;
            total += chunk.iter().map(|(_, vs)| vs.len()).sum::<usize>();
        }
        assert_eq!(total, 20);
        assert!(calls >= 3, "expected several gradual chunks, got {calls}");
    }

    #[test]
    fn empty_window_returns_none() {
        let dir = ScratchDir::new("aar-empty").unwrap();
        let mut s = store(dir.path());
        assert!(s.get_window_chunk(w(0, 10)).unwrap().is_none());
    }

    #[test]
    fn file_name_roundtrip_with_negative_start() {
        for win in [w(-500, -100), w(-1, 7), w(0, 0), w(123, 456)] {
            assert_eq!(parse_window_file_name(&window_file_name(win)), Some(win));
        }
        assert_eq!(parse_window_file_name("other.log"), None);
    }

    #[test]
    fn reopen_rediscovers_files() {
        let dir = ScratchDir::new("aar-reopen").unwrap();
        let win = w(0, 100);
        {
            let mut s = store(dir.path());
            s.append(b"k", win, b"v").unwrap();
            s.flush().unwrap();
        }
        let mut s = store(dir.path());
        let state = drain_all(&mut s, win);
        assert_eq!(state, vec![(b"k".to_vec(), vec![b"v".to_vec()])]);
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let dir = ScratchDir::new("aar-ckpt").unwrap();
        let ckpt = ScratchDir::new("aar-ckpt-dst").unwrap();
        let win = w(0, 100);
        let mut s = store(dir.path());
        s.append(b"k", win, b"v1").unwrap();
        s.checkpoint(ckpt.path()).unwrap();
        s.append(b"k", win, b"v2").unwrap();
        s.restore(ckpt.path()).unwrap();
        let state = drain_all(&mut s, win);
        assert_eq!(state, vec![(b"k".to_vec(), vec![b"v1".to_vec()])]);
    }

    /// A filesystem that remembers which files were written since their
    /// last `sync_data`.
    struct SyncLedger {
        inner: Arc<dyn Vfs>,
        unsynced: Arc<Mutex<BTreeSet<PathBuf>>>,
    }

    impl SyncLedger {
        fn wrote(&self, path: &Path) {
            self.unsynced.lock().unwrap().insert(path.to_path_buf());
        }

        fn handle(
            &self,
            path: &Path,
            file: io::Result<Box<dyn VfsFile>>,
        ) -> io::Result<Box<dyn VfsFile>> {
            Ok(Box::new(LedgerFile {
                inner: file?,
                path: path.to_path_buf(),
                unsynced: Arc::clone(&self.unsynced),
            }))
        }
    }

    struct LedgerFile {
        inner: Box<dyn VfsFile>,
        path: PathBuf,
        unsynced: Arc<Mutex<BTreeSet<PathBuf>>>,
    }

    impl LedgerFile {
        fn wrote(&self) {
            self.unsynced.lock().unwrap().insert(self.path.clone());
        }
    }

    impl io::Read for LedgerFile {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl io::Write for LedgerFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.wrote();
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl io::Seek for LedgerFile {
        fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    impl VfsFile for LedgerFile {
        fn sync_data(&mut self) -> io::Result<()> {
            self.inner.sync_data()?;
            self.unsynced.lock().unwrap().remove(&self.path);
            Ok(())
        }
        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            self.inner.read_exact_at(buf, offset)
        }
        fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
            self.wrote();
            self.inner.write_all_at(buf, offset)
        }
        fn set_len(&self, len: u64) -> io::Result<()> {
            self.wrote();
            self.inner.set_len(len)
        }
        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
    }

    impl Vfs for SyncLedger {
        fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.wrote(path);
            self.handle(path, self.inner.create(path))
        }
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.handle(path, self.inner.open_append(path))
        }
        fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.inner.open_read(path)
        }
        fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.handle(path, self.inner.open_rw(path))
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn copy(&self, from: &Path, to: &Path) -> io::Result<u64> {
            self.wrote(to);
            self.inner.copy(from, to)
        }
        fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.wrote(to);
            self.inner.link_or_copy(from, to)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.wrote(path);
            self.inner.write(path, data)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn file_len(&self, path: &Path) -> io::Result<u64> {
            self.inner.file_len(path)
        }
        fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
            self.inner.read_dir_names(path)
        }
    }

    #[test]
    fn every_file_of_a_checkpoint_is_synced_after_its_last_write() {
        let dir = ScratchDir::new("aar-ckpt-sync").unwrap();
        let ckpt = ScratchDir::new("aar-ckpt-sync-dst").unwrap();
        let unsynced = Arc::new(Mutex::new(BTreeSet::new()));
        let vfs = Arc::new(SyncLedger {
            inner: StdVfs::shared(),
            unsynced: Arc::clone(&unsynced),
        });
        let mut s = AarStore::open(dir.path(), 1 << 10, 8, Default::default(), vfs).unwrap();
        for i in 0..200i64 {
            s.append(b"k", w(i % 4 * 100, i % 4 * 100 + 100), &[i as u8; 20])
                .unwrap();
        }
        s.checkpoint(ckpt.path()).unwrap();
        let files = StdVfs.read_dir_names(ckpt.path()).unwrap();
        assert_eq!(files.len(), 5, "four windows and the manifest: {files:?}");
        let unsynced = unsynced.lock().unwrap();
        for name in files {
            let path = ckpt.path().join(&name);
            assert!(!unsynced.contains(&path), "{name} is not synced");
        }
    }

    #[test]
    fn open_writers_are_capped_across_many_windows() {
        let dir = ScratchDir::new("aar-fdcap").unwrap();
        let mut s = AarStore::open(
            dir.path(),
            1 << 20,
            64,
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        )
        .unwrap();
        // 300 distinct window boundaries, each flushed to its own file.
        for round in 0..300i64 {
            s.append(b"k", w(round * 10, round * 10 + 10), b"v")
                .unwrap();
            s.flush().unwrap();
        }
        assert!(
            s.open_writers() <= 64,
            "writer cap exceeded: {}",
            s.open_writers()
        );
        // Every window, including ones whose writer was closed, remains
        // readable and can still take appends (reopen in append mode).
        s.append(b"k2", w(0, 10), b"late").unwrap();
        s.flush().unwrap();
        let mut total = 0;
        while let Some(chunk) = s.get_window_chunk(w(0, 10)).unwrap() {
            total += chunk.len();
        }
        assert_eq!(total, 2);
        let mut total = 0;
        while let Some(chunk) = s.get_window_chunk(w(1500, 1510)).unwrap() {
            total += chunk.len();
        }
        assert_eq!(total, 1);
    }

    #[test]
    fn view_merges_disk_and_buffer_without_consuming() {
        let dir = ScratchDir::new("aar-view").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        s.append(b"a", win, b"1").unwrap();
        s.append(b"b", win, b"2").unwrap();
        s.flush().unwrap();
        s.append(b"a", win, b"3").unwrap();

        let mut view = BTreeMap::new();
        s.collect_view(&mut view).unwrap();
        assert_eq!(
            view.get(&(b"a".to_vec(), win)),
            Some(&ViewValue::Values(vec![b"1".to_vec(), b"3".to_vec()]))
        );
        assert_eq!(
            view.get(&(b"b".to_vec(), win)),
            Some(&ViewValue::Values(vec![b"2".to_vec()]))
        );

        // A drain after the view sees exactly the same state.
        let state = drain_all(&mut s, win);
        let map = merge_chunks([state]);
        assert_eq!(map[&b"a".to_vec()], vec![b"1".to_vec(), b"3".to_vec()]);
        assert_eq!(map[&b"b".to_vec()], vec![b"2".to_vec()]);

        // A window mid-drain disappears from subsequent views.
        let win2 = w(100, 200);
        s.append(b"c", win2, b"x").unwrap();
        s.flush().unwrap();
        let _ = s.get_window_chunk(win2).unwrap();
        let mut view2 = BTreeMap::new();
        s.collect_view(&mut view2).unwrap();
        assert!(view2.is_empty());
    }

    fn ring_store(dir: &Path) -> (AarStore, Arc<IoRing>) {
        let mut s = store(dir);
        let ring = Arc::new(IoRing::new(2, None, None));
        s.set_ring(ring.clone());
        (s, ring)
    }

    #[test]
    fn async_prefetch_serves_drains() {
        let dir = ScratchDir::new("aar-ring").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        let win = w(0, 100);
        s.append(b"a", win, b"1").unwrap();
        s.append(b"b", win, b"2").unwrap();
        s.flush().unwrap();
        // The window's end (100) is within the 500 ms default horizon.
        s.advance_prefetch(0).unwrap();
        assert!(!s.lane.is_idle());
        ring.wait_idle();
        s.advance_prefetch(0).unwrap();
        assert!(s.windows[&win].prefetched.is_some());
        // Post-snapshot flushes and unflushed buffered pairs must still
        // serve after the prefetched prefix, in arrival order.
        s.append(b"a", win, b"3").unwrap();
        s.flush().unwrap();
        s.append(b"b", win, b"4").unwrap();
        let state = drain_all(&mut s, win);
        let map = merge_chunks([state]);
        assert_eq!(map[&b"a".to_vec()], vec![b"1".to_vec(), b"3".to_vec()]);
        assert_eq!(map[&b"b".to_vec()], vec![b"2".to_vec(), b"4".to_vec()]);
        assert!(s.windows.values().all(|e| e.prefetched.is_none()));
        assert!(!dir.path().join(window_file_name(win)).exists());
    }

    #[test]
    fn a_drain_counts_its_prefetch_hit_or_miss_in_the_store_metrics() {
        let dir = ScratchDir::new("aar-ring-hits").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        let (near, far) = (w(0, 100), w(0, 10_000));
        s.append(b"k", near, b"1").unwrap();
        s.append(b"k", far, b"2").unwrap();
        s.flush().unwrap();
        // Only the near window's end lies within the horizon of 0.
        s.advance_prefetch(0).unwrap();
        ring.wait_idle();
        s.advance_prefetch(0).unwrap();
        assert!(s.windows[&near].prefetched.is_some());
        assert!(s.windows[&far].prefetched.is_none());
        let counts = |s: &AarStore| {
            let m = s.metrics.snapshot();
            (m.prefetch_hits, m.prefetch_misses)
        };
        drain_all(&mut s, near);
        assert_eq!(counts(&s), (1, 0), "a drain from the read-ahead prefix");
        drain_all(&mut s, far);
        assert_eq!(counts(&s), (1, 1), "a drain that opened its file itself");
    }

    #[test]
    fn drain_racing_prefetch_stays_exact() {
        let dir = ScratchDir::new("aar-ring-race").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        let win = w(0, 100);
        for i in 0..20u32 {
            s.append(b"k", win, &i.to_le_bytes()).unwrap();
        }
        s.flush().unwrap();
        s.advance_prefetch(0).unwrap();
        // Drain immediately — whether the background read has landed or
        // not, the drained state must be complete and exact.
        let total: usize = drain_all(&mut s, win).iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total, 20);
        // Settle the (possibly stale) completion: it must be discarded,
        // never re-served.
        ring.wait_idle();
        s.advance_prefetch(0).unwrap();
        assert!(s.windows.values().all(|e| e.prefetched.is_none()));
        assert!(s.get_window_chunk(win).unwrap().is_none());
    }

    #[test]
    fn a_read_in_flight_across_a_drain_never_installs_into_the_windows_next_life() {
        let dir = ScratchDir::new("aar-ring-next-life").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        let win = w(0, 100);
        s.append(b"k", win, b"first life").unwrap();
        s.flush().unwrap();
        // The read is submitted, and stays uncollected across the drain.
        s.advance_prefetch(0).unwrap();
        ring.wait_idle();
        assert_eq!(
            drain_all(&mut s, win),
            vec![(b"k".to_vec(), vec![b"first life".to_vec()])]
        );
        assert!(s.lane.is_idle());
        // The window fills again and looks just like the one the read was
        // planned for: on disk, not draining, nothing installed.
        s.append(b"k", win, b"second life").unwrap();
        s.flush().unwrap();
        s.advance_prefetch(0).unwrap();
        ring.wait_idle();
        s.advance_prefetch(0).unwrap();
        assert_eq!(
            drain_all(&mut s, win),
            vec![(b"k".to_vec(), vec![b"second life".to_vec()])]
        );
    }

    #[test]
    fn a_drain_from_a_prefix_that_met_a_tear_serves_nothing_past_it() {
        // Two flushed records, the second torn. A synchronous drain ends
        // the file at the tear, so a flush landing behind it is out of
        // reach; a drain begun from a prefix the ring read up to that
        // tear must serve exactly the same.
        let serve = |prefetch: bool| {
            let dir = ScratchDir::new("aar-ring-tear").unwrap();
            let (mut s, ring) = ring_store(dir.path());
            let win = w(0, 100);
            s.append(b"a", win, b"1").unwrap();
            s.flush().unwrap();
            s.append(b"a", win, b"torn").unwrap();
            s.flush().unwrap();
            let file = dir.path().join(window_file_name(win));
            let len = std::fs::metadata(&file).unwrap().len();
            let tear = std::fs::OpenOptions::new().write(true).open(&file).unwrap();
            tear.set_len(len - 2).unwrap();
            if prefetch {
                s.advance_prefetch(0).unwrap();
                ring.wait_idle();
                s.advance_prefetch(0).unwrap();
                let prefix = s.windows[&win].prefetched.as_ref().expect("installed");
                assert_eq!(prefix.resume, None);
                assert_eq!(prefix.payload, [1, b'a', 1, b'1']);
            }
            s.append(b"a", win, b"behind the tear").unwrap();
            s.flush().unwrap();
            s.append(b"a", win, b"in memory").unwrap();
            drain_all(&mut s, win)
        };
        let expect = vec![(b"a".to_vec(), vec![b"1".to_vec(), b"in memory".to_vec()])];
        assert_eq!(serve(false), expect);
        assert_eq!(serve(true), expect);
    }

    #[test]
    fn a_flush_leaves_a_window_mid_drain_to_its_drain() {
        let dir = ScratchDir::new("aar-flush-mid-drain").unwrap();
        let mut s = store(dir.path());
        let win = w(0, 100);
        for i in 0..6u8 {
            s.append(b"k", win, &[i]).unwrap();
        }
        s.flush().unwrap();
        s.append(b"k", win, &[6]).unwrap();
        // One chunk in, a pair arrives and a flush runs: the pair is not
        // written behind the drain's reader, it is served after the file.
        assert_eq!(s.get_window_chunk(win).unwrap().unwrap()[0].1.len(), 4);
        s.append(b"k", win, &[7]).unwrap();
        s.flush().unwrap();
        let rest: Vec<Vec<u8>> = drain_all(&mut s, win)
            .into_iter()
            .flat_map(|(_, values)| values)
            .collect();
        assert_eq!(rest, vec![vec![4], vec![5], vec![6], vec![7]]);
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    fn close_waits_out_inflight_reads() {
        let dir = ScratchDir::new("aar-ring-close").unwrap();
        let (mut s, ring) = ring_store(dir.path());
        let win = w(0, 100);
        s.append(b"k", win, b"v").unwrap();
        s.flush().unwrap();
        s.advance_prefetch(0).unwrap();
        s.close().unwrap();
        assert_eq!(ring.pending(), 0);
        assert!(s.lane.is_idle());
        // A fresh write cycle works against the bumped epoch.
        s.append(b"k", win, b"v2").unwrap();
        s.flush().unwrap();
        assert_eq!(
            drain_all(&mut s, win),
            vec![(b"k".to_vec(), vec![b"v2".to_vec()])]
        );
    }

    #[test]
    fn view_routes_through_ring() {
        let dir = ScratchDir::new("aar-ring-view").unwrap();
        let (mut s, _ring) = ring_store(dir.path());
        let win = w(0, 100);
        s.append(b"a", win, b"1").unwrap();
        s.flush().unwrap();
        s.append(b"a", win, b"2").unwrap();
        let mut view = BTreeMap::new();
        s.collect_view(&mut view).unwrap();
        assert_eq!(
            view.get(&(b"a".to_vec(), win)),
            Some(&ViewValue::Values(vec![b"1".to_vec(), b"2".to_vec()]))
        );
    }

    #[test]
    fn no_compaction_ever_runs() {
        let dir = ScratchDir::new("aar-nocompact").unwrap();
        let mut s = store(dir.path());
        for i in 0..200u32 {
            s.append(b"k", w(0, 100), &i.to_le_bytes()).unwrap();
        }
        drain_all(&mut s, w(0, 100));
        assert_eq!(s.metrics.snapshot().compactions, 0);
        assert_eq!(s.metrics.snapshot().compaction_nanos, 0);
    }

    #[test]
    fn no_timer_spans_a_call_into_another_timed_function() {
        // Every write through a file handle sleeps 1 ms. An `append`
        // that fills the buffer triggers the flush under the flush's own
        // timer: one held across it would count that millisecond twice.
        use crate::genlog::tests::{assert_no_time_counted_twice, SlowWrites};
        use std::time::{Duration, Instant};
        let dir = ScratchDir::new("aar-timers").unwrap();
        let vfs = SlowWrites::shared(Duration::from_millis(1));
        let mut s = AarStore::open(dir.path(), 1024, 4, StoreMetrics::new_shared(), vfs).unwrap();
        let win = w(0, 100);
        let start = Instant::now();
        for i in 0..200u32 {
            s.append(format!("key-{}", i % 40).as_bytes(), win, &[7u8; 32])
                .unwrap();
        }
        assert_eq!(drain_all(&mut s, win).len(), 200);
        let wall = start.elapsed().as_nanos() as u64;
        let m = s.metrics.snapshot();
        assert_no_time_counted_twice(&m, wall);
    }

    #[test]
    fn a_flush_writes_its_windows_in_window_order() {
        // One file per window, so what hash-map order would scramble is
        // not the bytes but which file an op lands on. Plant the same
        // fault in the same multi-window flush of two stores: both must
        // fail on the same file, and leave the same files behind.
        use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs};
        let run = |name: &str, fault_at: u64| {
            let dir = ScratchDir::new(name).unwrap();
            let plan = FaultPlan::new().with_fault(fault_at, FaultKind::Enospc);
            let vfs = FaultVfs::new(StdVfs::shared(), plan);
            let metrics = StoreMetrics::new_shared();
            let mut s = AarStore::open(dir.path(), 1 << 20, 4, metrics, vfs).unwrap();
            for i in 0..64i64 {
                s.append(b"k", w(i % 16 * 100, i % 16 * 100 + 100), &[i as u8; 16])
                    .unwrap();
            }
            let err = s.flush().unwrap_err().to_string();
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.path())
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, std::fs::read(e.path()).unwrap())
                })
                .collect();
            files.sort();
            (
                err.replace(&dir.path().display().to_string(), "<dir>"),
                files,
            )
        };
        // Op 1 creates the store's directory; a window costs a create
        // and a write.
        for fault_at in [4, 9, 16, 23] {
            let (first, second) = (run("aar-order-a", fault_at), run("aar-order-b", fault_at));
            assert!(first.0.contains("injected fault"), "{}", first.0);
            assert_eq!(second.0, first.0, "fault at op {fault_at}");
            assert!(second.1 == first.1, "fault at op {fault_at}: files differ");
        }
    }
}
