//! The Append and Aligned Read store (paper §4.1).
//!
//! Windows of *all* keys trigger together under fixed and sliding window
//! functions, so per-key access is never needed. The AAR store therefore
//! organizes data coarsely by window boundary:
//!
//! - in memory, the write buffer hashes on `(start, end)` — tuples of
//!   different keys land in the same bucket;
//! - on disk, every window boundary owns its own log file, appended to at
//!   each flush;
//! - a triggered window is drained by sequential reads of exactly one
//!   file (*gradual state loading*: each call returns one bounded chunk);
//! - once drained, the file is deleted — no compaction ever runs, the
//!   headline CPU saving of this store over an LSM baseline.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::backend::WindowChunk;
use flowkv_common::codec::{put_len_prefixed, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::{IoRing, Lane, PrefetchProbe};
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::metrics::{OpCategory, StoreMetrics};
use flowkv_common::registry::ViewValue;
use flowkv_common::telemetry::Telemetry;
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{StdVfs, Vfs};

/// File name of the log holding one window's state.
fn window_file_name(window: WindowId) -> String {
    format!("w_{}_{}.aar", window.start, window.end)
}

/// Name of the checkpoint manifest listing on-disk windows.
const MANIFEST_NAME: &str = "AAR_WINDOWS";

/// Maximum per-window log writers held open at once.
///
/// Long sliding windows can keep thousands of window boundaries live;
/// holding a file descriptor per boundary would exhaust the process
/// limit, so the least-recently-flushed writer is closed (its file is
/// reopened in append mode on the next flush).
const MAX_OPEN_WRITERS: usize = 64;

/// A buffered `(key, value)` pair.
type Pair = (Vec<u8>, Vec<u8>);

/// In-flight drain of one triggered window.
struct Drain {
    /// Pairs prefetched from the file's snapshot prefix, served first
    /// (they are the oldest data, exactly what a fresh reader would
    /// yield before `reader`'s continuation offset).
    pre: std::vec::IntoIter<Pair>,
    reader: Option<LogReader>,
    /// Buffered pairs that never reached disk, served after the file.
    mem: std::vec::IntoIter<Pair>,
}

/// A window's file prefix loaded by the background ring, awaiting its
/// aligned trigger.
struct PrefetchedWindow {
    pairs: Vec<Pair>,
    /// File offset the background scan stopped at; the drain's
    /// continuation reader starts here to pick up post-snapshot flushes.
    end_offset: u64,
    /// True when the scan ended at a torn record before `end_offset`: the
    /// synchronous path would stop serving the file there too, so the
    /// drain must not open a continuation reader.
    terminal: bool,
    bytes: u64,
}

/// Payload a background window read returns through the ring.
struct AarAsyncRead {
    window: WindowId,
    epoch: u64,
    end_offset: u64,
    terminal: bool,
    pairs: Vec<Pair>,
    bytes: u64,
}

/// The append-and-aligned-read store for one partition.
pub struct AarStore {
    dir: PathBuf,
    write_buffer_bytes: usize,
    chunk_entries: usize,
    buffer: HashMap<WindowId, Vec<Pair>>,
    buffer_bytes: usize,
    writers: HashMap<WindowId, LogWriter>,
    /// Flush recency per open writer (monotone counter), for LRU closing.
    writer_recency: HashMap<WindowId, u64>,
    flush_clock: u64,
    on_disk: HashSet<WindowId>,
    drains: HashMap<WindowId, Drain>,
    /// Reusable scratch for encoding flush chunks, so steady-state
    /// flushing allocates no per-record `Vec<u8>`s.
    encode_buf: Vec<u8>,
    metrics: Arc<StoreMetrics>,
    vfs: Arc<dyn Vfs>,
    /// Read-ahead lane keyed by window: without threads (every read
    /// synchronous) until [`AarStore::with_ring`] attaches the worker's
    /// background I/O ring.
    lane: Lane<WindowId, AarAsyncRead>,
    /// Bumped by close/restore so stale completions can't install.
    epoch: u64,
    prefetched: HashMap<WindowId, PrefetchedWindow>,
    prefetch_probe: Option<PrefetchProbe>,
}

impl AarStore {
    /// Opens a store rooted at `dir` on the real filesystem.
    pub fn open(
        dir: &Path,
        write_buffer_bytes: usize,
        chunk_entries: usize,
        metrics: Arc<StoreMetrics>,
    ) -> Result<Self> {
        Self::open_with_vfs(
            dir,
            write_buffer_bytes,
            chunk_entries,
            metrics,
            StdVfs::shared(),
        )
    }

    /// Opens a store rooted at `dir`, performing all file IO through `vfs`.
    pub fn open_with_vfs(
        dir: &Path,
        write_buffer_bytes: usize,
        chunk_entries: usize,
        metrics: Arc<StoreMetrics>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io_at("aar dir", dir, e))?;
        let mut store = AarStore {
            dir: dir.to_path_buf(),
            write_buffer_bytes: write_buffer_bytes.max(1024),
            chunk_entries: chunk_entries.max(1),
            buffer: HashMap::new(),
            buffer_bytes: 0,
            writers: HashMap::new(),
            writer_recency: HashMap::new(),
            flush_clock: 0,
            on_disk: HashSet::new(),
            drains: HashMap::new(),
            encode_buf: Vec::new(),
            metrics,
            lane: Lane::inline(Arc::clone(&vfs)),
            vfs,
            epoch: 0,
            prefetched: HashMap::new(),
            prefetch_probe: None,
        };
        store.scan_existing_files()?;
        Ok(store)
    }

    /// Attaches the worker's background I/O ring; `tag` routes this
    /// instance's completions.
    pub fn with_ring(mut self, ring: Arc<IoRing>, tag: u64) -> Self {
        self.lane = Lane::new(ring, tag);
        if let Some(p) = &self.prefetch_probe {
            self.lane.set_probe(p.clone());
        }
        self
    }

    /// Wires prefetch-accuracy telemetry, labelled `{store=tag}`.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>, tag: &str) -> Self {
        let probe = PrefetchProbe::new(&telemetry, tag);
        self.lane.set_probe(probe.clone());
        self.prefetch_probe = Some(probe);
        self
    }

    /// Appends `(key, value)` to `window`'s bucket (paper Listing 1,
    /// `Append(K, V, W)`).
    pub fn append(&mut self, key: &[u8], window: WindowId, value: &[u8]) -> Result<()> {
        {
            let _t = self.metrics.timer(OpCategory::Write);
            self.buffer_bytes += key.len() + value.len() + 48;
            self.buffer
                .entry(window)
                .or_default()
                .push((key.to_vec(), value.to_vec()));
            self.metrics.add_records_written(1);
        }
        // The flush times itself: no timer of this call may span it.
        if self.buffer_bytes >= self.write_buffer_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Reads the next chunk of `window`'s state (paper Listing 1,
    /// `GetWindow(W)`), deleting the window once fully drained.
    pub fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        let _t = self.metrics.timer(OpCategory::Read);
        if !self.drains.contains_key(&window) {
            let mem = self.buffer.remove(&window).unwrap_or_default();
            // Unflushed buffered bytes of this window leave the buffer.
            self.buffer_bytes = self
                .buffer_bytes
                .saturating_sub(mem.iter().map(|(k, v)| k.len() + v.len() + 48).sum());
            let mut pre: Vec<Pair> = Vec::new();
            let reader = if self.on_disk.contains(&window) {
                // Make sure buffered flushes for this window are visible.
                if let Some(w) = self.writers.get_mut(&window) {
                    w.flush()?;
                }
                match self.prefetched.remove(&window) {
                    Some(pw) => {
                        // The snapshot prefix was loaded in the background;
                        // a continuation reader covers post-snapshot
                        // flushes (unless the prefix ended at a torn
                        // record, where the sync path would stop too).
                        if let Some(p) = &self.prefetch_probe {
                            p.hits.inc();
                        }
                        pre = pw.pairs;
                        if pw.terminal {
                            None
                        } else {
                            Some(LogReader::open_at_in(
                                &self.vfs,
                                self.dir.join(window_file_name(window)),
                                pw.end_offset,
                            )?)
                        }
                    }
                    None => {
                        let late = self.lane.covers(&window);
                        if late {
                            // The window fired before its background read
                            // landed; fall back to a synchronous read.
                            if let Some(p) = &self.prefetch_probe {
                                p.late.inc();
                            }
                        }
                        let stall_t0 = (late && flowkv_common::trace::current().is_some())
                            .then(std::time::Instant::now);
                        let reader =
                            LogReader::open_in(&self.vfs, self.dir.join(window_file_name(window)))?;
                        if let Some(t0) = stall_t0 {
                            flowkv_common::trace::instant_here(
                                "prefetch_stall",
                                "prefetch",
                                &[("stall", t0.elapsed().as_nanos() as i64)],
                            );
                        }
                        Some(reader)
                    }
                }
            } else {
                None
            };
            if mem.is_empty() && reader.is_none() && pre.is_empty() {
                return Ok(None);
            }
            self.drains.insert(
                window,
                Drain {
                    pre: pre.into_iter(),
                    reader,
                    mem: mem.into_iter(),
                },
            );
        }
        let drain = self.drains.get_mut(&window).expect("inserted above");
        let mut pairs: Vec<Pair> = Vec::new();
        // Serve the prefetched file prefix, then the file (older data
        // first), then the memory remainder.
        while pairs.len() < self.chunk_entries {
            if let Some(pair) = drain.pre.next() {
                pairs.push(pair);
                continue;
            }
            if let Some(reader) = drain.reader.as_mut() {
                match reader.next_record() {
                    Ok(Some((loc, payload))) => {
                        self.metrics.add_bytes_read(loc.disk_len());
                        decode_batch(&payload, &mut pairs)?;
                        continue;
                    }
                    Ok(None) => drain.reader = None,
                    // A torn record (crash mid-flush) ends the file: the
                    // intact prefix is served, the tail is unrecoverable
                    // framing either way.
                    Err(e) if e.is_corruption() => drain.reader = None,
                    Err(e) => return Err(e),
                }
            }
            match drain.mem.next() {
                Some(pair) => pairs.push(pair),
                None => break,
            }
        }
        if pairs.is_empty() {
            // Fully drained: clean up the window's file and bookkeeping.
            self.drains.remove(&window);
            self.writers.remove(&window);
            self.writer_recency.remove(&window);
            if self.on_disk.remove(&window) {
                let _ = self
                    .vfs
                    .remove_file(&self.dir.join(window_file_name(window)));
            }
            return Ok(None);
        }
        self.metrics.add_records_read(pairs.len() as u64);
        Ok(Some(group_by_key(pairs)))
    }

    /// Flushes every buffered bucket to its per-window log file.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let _t = self.metrics.timer(OpCategory::Write);
        // Window order: which file is written when — a run's device-op
        // sequence, and any fault planted in it — is a function of the
        // input, not of `HashMap` iteration order.
        let mut buckets: Vec<(WindowId, Vec<Pair>)> = self.buffer.drain().collect();
        buckets.sort_unstable_by_key(|&(window, _)| window);
        self.buffer_bytes = 0;
        for (window, pairs) in buckets {
            let writer = match self.writers.entry(window) {
                Entry::Occupied(w) => w.into_mut(),
                Entry::Vacant(slot) => {
                    let path = self.dir.join(window_file_name(window));
                    let writer = if self.vfs.exists(&path) {
                        LogWriter::open_append_in(&self.vfs, &path)?
                    } else {
                        LogWriter::create_in(&self.vfs, &path)?
                    };
                    slot.insert(writer)
                }
            };
            // Records are capped at `chunk_entries` pairs so gradual
            // loading later reads bounded chunks.
            for batch in pairs.chunks(self.chunk_entries) {
                encode_batch_into(&mut self.encode_buf, batch);
                let loc = writer.append(&self.encode_buf)?;
                self.metrics.add_bytes_written(loc.disk_len());
            }
            writer.flush()?;
            self.on_disk.insert(window);
            self.flush_clock += 1;
            self.writer_recency.insert(window, self.flush_clock);
            self.enforce_writer_cap();
        }
        self.metrics.add_flush();
        Ok(())
    }

    /// Drives the background prefetcher: installs finished ring reads,
    /// then schedules file reads for every on-disk window whose aligned
    /// trigger (its end boundary) falls within the horizon of
    /// `stream_time`.
    pub fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        // A failed background read just means the window drains
        // synchronously; reads racing a drain's file deletion lose
        // their file mid-scan routinely.
        for read in self.lane.drain().into_iter().flatten() {
            self.install(read);
        }
        self.submit_prefetch(stream_time)
    }

    /// Installs one finished read's file prefix if the window is still
    /// exactly as anticipated: same epoch, still on disk, not mid-drain,
    /// not already prefetched.
    fn install(&mut self, read: AarAsyncRead) {
        if read.epoch == self.epoch
            && self.on_disk.contains(&read.window)
            && !self.drains.contains_key(&read.window)
            && !self.prefetched.contains_key(&read.window)
        {
            self.metrics.add_bytes_read(read.bytes);
            self.prefetched.insert(
                read.window,
                PrefetchedWindow {
                    pairs: read.pairs,
                    end_offset: read.end_offset,
                    terminal: read.terminal,
                    bytes: read.bytes,
                },
            );
            self.lane.installed(1);
        } else {
            self.lane.waste(read.bytes);
        }
    }

    /// Submits one background file read per due window, bounded by the
    /// byte budget. Each job scans a consistent snapshot — the file up
    /// to its length at submission — and never touches store state.
    fn submit_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        let lane = &mut self.lane;
        // Nothing to plan for a lane that admits no read at all.
        if !lane.admits(0, 0) {
            return Ok(());
        }
        let due = lane.due(stream_time);
        let mut candidates: Vec<WindowId> = self
            .on_disk
            .iter()
            .copied()
            .filter(|w| {
                w.end <= due
                    && !self.prefetched.contains_key(w)
                    && !lane.covers(w)
                    && !self.drains.contains_key(w)
            })
            .collect();
        // Soonest-triggering windows claim the budget first.
        candidates.sort();
        let resident = self.prefetched.values().map(|p| p.bytes).sum::<u64>();
        for window in candidates {
            // Push buffered log bytes out so the snapshot is complete,
            // and bound the scan at the current end of the file.
            if let Some(w) = self.writers.get_mut(&window) {
                w.flush()?;
            }
            let path = self.dir.join(window_file_name(window));
            let Ok(end_offset) = self.vfs.file_len(&path) else {
                continue;
            };
            if end_offset == 0 {
                continue;
            }
            if !lane.admits(resident, end_offset) {
                break;
            }
            let epoch = self.epoch;
            lane.submit(vec![window], end_offset, move |vfs| {
                let mut pairs: Vec<Pair> = Vec::new();
                let mut bytes = 0u64;
                let mut terminal = false;
                let mut reader = LogReader::open_in(vfs, &path)?;
                loop {
                    // Stop *before* crossing the snapshot boundary: bytes
                    // past `end_offset` may belong to a flush the
                    // foreground is writing concurrently, and reading
                    // into a half-written record would look like a torn
                    // file and wrongly mark the prefix terminal.
                    if reader.offset() >= end_offset {
                        break;
                    }
                    match reader.next_record() {
                        Ok(Some((loc, payload))) => {
                            bytes += loc.disk_len();
                            decode_batch(&payload, &mut pairs)?;
                        }
                        Ok(None) => break,
                        // A torn record below the snapshot boundary ends
                        // the file for the sync path too; mark the prefix
                        // terminal so the drain does not serve anything
                        // past it.
                        Err(e) if e.is_corruption() => {
                            terminal = true;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(AarAsyncRead {
                    window,
                    epoch,
                    end_offset,
                    terminal,
                    pairs,
                    bytes,
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
        let mut windows: Vec<WindowId> = self
            .on_disk
            .iter()
            .copied()
            .filter(|w| !self.drains.contains_key(w))
            .collect();
        windows.sort();
        for &window in &windows {
            if let Some(w) = self.writers.get_mut(&window) {
                w.flush()?;
            }
        }
        // One job per window file, submitted together so a pool overlaps
        // them, then collected in window order.
        let reads = self.lane.read_through_each(windows.iter().map(|&window| {
            let path = self.dir.join(window_file_name(window));
            move |vfs: &Arc<dyn Vfs>| read_window_file(vfs, &path)
        }));
        for (&window, pairs) in windows.iter().zip(reads) {
            let pairs = pairs.map_err(|e| {
                StoreError::io_at("aar view read", self.dir.join(window_file_name(window)), e)
            })?;
            for (key, value) in pairs {
                push_view_value(out, key, window, value)?;
            }
        }
        for (&window, pairs) in &self.buffer {
            if self.drains.contains_key(&window) {
                continue;
            }
            for (key, value) in pairs {
                push_view_value(out, key.clone(), window, value.clone())?;
            }
        }
        Ok(())
    }

    /// Approximate bytes of state held in memory.
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// Number of per-window log writers currently open (bounded by an
    /// internal cap of 64 to avoid file-descriptor exhaustion).
    pub fn open_writers(&self) -> usize {
        self.writers.len()
    }

    /// Closes least-recently-flushed writers beyond the cap; their files
    /// reopen in append mode at the next flush touching them.
    fn enforce_writer_cap(&mut self) {
        while self.writers.len() > MAX_OPEN_WRITERS {
            let Some((&victim, _)) = self
                .writer_recency
                .iter()
                .filter(|(w, _)| self.writers.contains_key(w))
                .min_by_key(|(_, clock)| **clock)
            else {
                return;
            };
            self.writers.remove(&victim);
            self.writer_recency.remove(&victim);
        }
    }

    /// Writes a self-contained snapshot into `dst`.
    pub fn checkpoint(&mut self, dst: &Path) -> Result<()> {
        self.flush()?;
        self.vfs
            .create_dir_all(dst)
            .map_err(|e| StoreError::io_at("aar checkpoint dir", dst, e))?;
        let mut manifest = Vec::new();
        put_varint_u64(&mut manifest, self.on_disk.len() as u64);
        for window in &self.on_disk {
            window.encode_to(&mut manifest);
            let name = window_file_name(*window);
            self.vfs
                .copy(&self.dir.join(&name), &dst.join(&name))
                .map_err(|e| StoreError::io_at("aar checkpoint copy", dst.join(&name), e))?;
        }
        self.vfs
            .write(&dst.join(MANIFEST_NAME), &manifest)
            .map_err(|e| {
                StoreError::io_at("aar checkpoint manifest", dst.join(MANIFEST_NAME), e)
            })?;
        Ok(())
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
            self.on_disk.insert(window);
        }
        Ok(())
    }

    /// Deletes every file of the store and clears its memory.
    pub fn close(&mut self) -> Result<()> {
        // Wait out background reads before deleting the files from under
        // them, and invalidate any completion drained later.
        self.lane.abandon(|read| read.bytes);
        self.lane
            .waste(self.prefetched.values().map(|p| p.bytes).sum());
        self.epoch += 1;
        self.prefetched.clear();
        self.buffer.clear();
        self.buffer_bytes = 0;
        self.writers.clear();
        self.writer_recency.clear();
        self.drains.clear();
        for window in std::mem::take(&mut self.on_disk) {
            let _ = self
                .vfs
                .remove_file(&self.dir.join(window_file_name(window)));
        }
        Ok(())
    }

    /// Rediscovers per-window files after a restart.
    fn scan_existing_files(&mut self) -> Result<()> {
        let names = self
            .vfs
            .read_dir_names(&self.dir)
            .map_err(|e| StoreError::io_at("aar scan", &self.dir, e))?;
        for name in names {
            if let Some(window) = parse_window_file_name(&name) {
                self.on_disk.insert(window);
            }
        }
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

/// Encodes a flush batch into `buf` (cleared first): count then
/// length-prefixed `(key, value)` pairs. Taking the buffer from the
/// caller lets `flush` reuse one allocation across chunks and flushes.
fn encode_batch_into(buf: &mut Vec<u8>, pairs: &[Pair]) {
    buf.clear();
    put_varint_u64(buf, pairs.len() as u64);
    for (k, v) in pairs {
        put_len_prefixed(buf, k);
        put_len_prefixed(buf, v);
    }
}

/// Reads a whole per-window log file into pairs, a torn tail ending the
/// file as in `get_window_chunk`. Shared by the synchronous and
/// ring-offloaded snapshot paths.
fn read_window_file(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Vec<Pair>> {
    let mut reader = LogReader::open_in(vfs, path)?;
    let mut pairs: Vec<Pair> = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some((_, payload))) => decode_batch(&payload, &mut pairs)?,
            Ok(None) => break,
            Err(e) if e.is_corruption() => break,
            Err(e) => return Err(e),
        }
    }
    Ok(pairs)
}

/// Decodes a flush batch, appending its pairs to `out`.
fn decode_batch(payload: &[u8], out: &mut Vec<Pair>) -> Result<()> {
    let mut dec = Decoder::new(payload);
    let n = dec.get_varint_u64()? as usize;
    out.reserve(n);
    for _ in 0..n {
        let k = dec.get_len_prefixed()?.to_vec();
        let v = dec.get_len_prefixed()?.to_vec();
        out.push((k, v));
    }
    Ok(())
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

/// Groups a chunk's pairs by key, preserving first-seen key order.
pub(crate) fn group_by_key(pairs: impl IntoIterator<Item = Pair>) -> WindowChunk {
    let mut order: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut chunk: WindowChunk = Vec::new();
    for (k, v) in pairs {
        match order.get(&k) {
            Some(&idx) => chunk[idx].1.push(v),
            None => {
                order.insert(k.clone(), chunk.len());
                chunk.push((k, vec![v]));
            }
        }
    }
    chunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;

    fn store(dir: &Path) -> AarStore {
        AarStore::open(dir, 1024, 4, StoreMetrics::new_shared()).unwrap()
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
        let map: HashMap<Vec<u8>, Vec<Vec<u8>>> = state.into_iter().collect();
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

    #[test]
    fn open_writers_are_capped_across_many_windows() {
        let dir = ScratchDir::new("aar-fdcap").unwrap();
        let mut s = AarStore::open(dir.path(), 1 << 20, 64, StoreMetrics::new_shared()).unwrap();
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
        let map: HashMap<Vec<u8>, Vec<Vec<u8>>> = state.into_iter().collect();
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
        let s = store(dir);
        let ring = Arc::new(IoRing::new(s.vfs.clone(), 2));
        let s = s.with_ring(ring.clone(), 3);
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
        assert!(s.prefetched.contains_key(&win));
        // Post-snapshot flushes and unflushed buffered pairs must still
        // serve after the prefetched prefix, in arrival order.
        s.append(b"a", win, b"3").unwrap();
        s.flush().unwrap();
        s.append(b"b", win, b"4").unwrap();
        let state = drain_all(&mut s, win);
        let map: HashMap<Vec<u8>, Vec<Vec<u8>>> = state.into_iter().collect();
        assert_eq!(map[&b"a".to_vec()], vec![b"1".to_vec(), b"3".to_vec()]);
        assert_eq!(map[&b"b".to_vec()], vec![b"2".to_vec(), b"4".to_vec()]);
        assert!(s.prefetched.is_empty());
        assert!(!dir.path().join(window_file_name(win)).exists());
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
        assert!(s.prefetched.is_empty());
        assert!(s.get_window_chunk(win).unwrap().is_none());
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
        let mut s =
            AarStore::open_with_vfs(dir.path(), 1024, 4, StoreMetrics::new_shared(), vfs).unwrap();
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
        // One file per window, so what `HashMap` order would scramble is
        // not the bytes but which file an op lands on. Plant the same
        // fault in the same multi-window flush of two stores: both must
        // fail on the same file, and leave the same files behind.
        use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs};
        let run = |name: &str, fault_at: u64| {
            let dir = ScratchDir::new(name).unwrap();
            let plan = FaultPlan::new().with_fault(fault_at, FaultKind::Enospc);
            let vfs = FaultVfs::new(StdVfs::shared(), plan);
            let metrics = StoreMetrics::new_shared();
            let mut s = AarStore::open_with_vfs(dir.path(), 1 << 20, 4, metrics, vfs).unwrap();
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
