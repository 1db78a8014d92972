//! Timing wrappers that measure a layer from outside, at its public
//! seam: [`TimedFactory`] times every `StateBackend` trait call per
//! operation kind, [`TimedVfs`] times every `Vfs`/`VfsFile` call. Both
//! forward every call unchanged, so a wrapped run produces byte-identical
//! output (the self-tests assert it).

use std::io::{self, Read, Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flowkv_common::backend::{
    AggregateKind, KeyFilter, OperatorContext, StateBackend, StateBackendFactory, StateEntry,
    WindowChunk,
};
use flowkv_common::error::Result;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::registry::StateView;
use flowkv_common::telemetry::{Histogram, HistogramSnapshot};
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{Vfs, VfsFile};

/// The per-tuple and per-trigger operations reported by name; every
/// other trait call (snapshots, migration, checkpoints, hints, close) is
/// timed under `other` so the ledger still sums.
pub const OPS: [&str; 9] = [
    "append",
    "get_window_chunk",
    "take_values",
    "peek_values",
    "take_aggregate",
    "put_aggregate",
    "flush",
    "advance_prefetch",
    "other",
];
const OTHER: usize = 8;

/// One in every this many calls of an operation is kept as a span.
const SPAN_SAMPLE: u64 = 1_024;

/// A sampled call: which operation, on which thread, when, how long.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub thread: String,
    pub start_nanos: u64,
    pub dur_nanos: u64,
}

/// Count, total time, and latency distribution of one operation kind.
#[derive(Clone, Debug, Default)]
pub struct OpTotals {
    pub calls: u64,
    pub nanos: u64,
    pub hist: HistogramSnapshot,
}

/// Everything the backends of one run recorded, merged as each backend
/// is dropped at the end of its worker.
#[derive(Default)]
pub struct BackendTimes {
    pub ops: [OpTotals; OPS.len()],
    pub spans: Vec<Span>,
}

impl BackendTimes {
    pub fn op(&self, name: &str) -> &OpTotals {
        let idx = OPS.iter().position(|o| *o == name).expect("known op");
        &self.ops[idx]
    }

    pub fn total_nanos(&self) -> u64 {
        self.ops.iter().map(|o| o.nanos).sum()
    }
}

/// Wraps a factory so every backend it creates is timed into `times`.
pub struct TimedFactory {
    inner: Arc<dyn StateBackendFactory>,
    epoch: Instant,
    times: Arc<Mutex<BackendTimes>>,
}

impl TimedFactory {
    /// `epoch` is the zero of span start times.
    pub fn wrap(
        inner: Arc<dyn StateBackendFactory>,
        epoch: Instant,
    ) -> (Arc<dyn StateBackendFactory>, Arc<Mutex<BackendTimes>>) {
        let times = Arc::new(Mutex::new(BackendTimes::default()));
        let factory = Arc::new(TimedFactory {
            inner,
            epoch,
            times: Arc::clone(&times),
        });
        (factory, times)
    }
}

impl StateBackendFactory for TimedFactory {
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        Ok(Box::new(TimedBackend {
            inner: self.inner.create(ctx)?,
            epoch: self.epoch,
            thread: ctx.telemetry_tag(),
            local: std::array::from_fn(|_| OpLocal::default()),
            spans: Vec::new(),
            times: Arc::clone(&self.times),
        }))
    }

    // The executor recognises an already tiered factory by this name.
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Per-backend accumulators: a backend is single-writer, so these are
/// plain fields and the hot path takes no shared lock.
#[derive(Default)]
struct OpLocal {
    calls: u64,
    nanos: u64,
    hist: Histogram,
}

struct TimedBackend {
    inner: Box<dyn StateBackend>,
    epoch: Instant,
    thread: String,
    local: [OpLocal; OPS.len()],
    spans: Vec<Span>,
    times: Arc<Mutex<BackendTimes>>,
}

impl TimedBackend {
    fn timed<T>(&mut self, op: usize, call: impl FnOnce(&mut dyn StateBackend) -> T) -> T {
        let start = Instant::now();
        let out = call(self.inner.as_mut());
        let nanos = start.elapsed().as_nanos() as u64;
        let local = &mut self.local[op];
        if local.calls.is_multiple_of(SPAN_SAMPLE) {
            self.spans.push(Span {
                name: OPS[op],
                thread: self.thread.clone(),
                start_nanos: start.duration_since(self.epoch).as_nanos() as u64,
                dur_nanos: nanos,
            });
        }
        local.calls += 1;
        local.nanos += nanos;
        local.hist.record(nanos);
        out
    }
}

impl Drop for TimedBackend {
    fn drop(&mut self) {
        // A poisoned lock means another worker panicked; its run already
        // failed, so losing these timings changes nothing.
        let Ok(mut times) = self.times.lock() else {
            return;
        };
        for (total, local) in times.ops.iter_mut().zip(&self.local) {
            total.calls += local.calls;
            total.nanos += local.nanos;
            total.hist.merge(&local.hist.snapshot());
        }
        times.spans.append(&mut self.spans);
    }
}

impl StateBackend for TimedBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        self.timed(0, |b| b.append(key, window, value, ts))
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        self.timed(1, |b| b.get_window_chunk(window))
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.timed(2, |b| b.take_values(key, window))
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.timed(3, |b| b.peek_values(key, window))
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        self.timed(4, |b| b.take_aggregate(key, window))
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        self.timed(5, |b| b.put_aggregate(key, window, aggregate))
    }

    fn flush(&mut self) -> Result<()> {
        self.timed(6, |b| b.flush())
    }

    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        self.timed(7, |b| b.advance_prefetch(stream_time))
    }

    fn read_view(&mut self) -> Result<Option<StateView>> {
        self.timed(OTHER, |b| b.read_view())
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        self.timed(OTHER, |b| b.extract_range(in_range, kind))
    }

    fn inject_entries(&mut self, entries: Vec<StateEntry>) -> Result<()> {
        self.timed(OTHER, |b| b.inject_entries(entries))
    }

    fn demoted_hint(&mut self, window: WindowId) -> Result<()> {
        self.timed(OTHER, |b| b.demoted_hint(window))
    }

    fn warm(&mut self, pairs: &[(&[u8], WindowId)]) -> Result<()> {
        self.timed(OTHER, |b| b.warm(pairs))
    }

    fn wants_warm(&self) -> bool {
        self.inner.wants_warm()
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        self.inner.metrics()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.timed(OTHER, |b| b.checkpoint(dir))
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.timed(OTHER, |b| b.restore(dir))
    }

    fn close(&mut self) -> Result<()> {
        self.timed(OTHER, |b| b.close())
    }
}

// ---------------------------------------------------------------------
// Vfs
// ---------------------------------------------------------------------

/// Calls, bytes and time of one class of file operation.
#[derive(Default)]
pub struct IoClass {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

impl IoClass {
    fn charge(&self, start: Instant, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// File operations of one group of threads. `open` covers opens,
/// creates and every metadata call (rename, remove, length, listing).
#[derive(Default)]
pub struct IoSide {
    pub read: IoClass,
    pub write: IoClass,
    pub sync: IoClass,
    pub open: IoClass,
}

/// What a [`TimedVfs`] recorded, split by calling thread: engine worker
/// threads pay for their I/O inline, I/O ring pool threads pay for it in
/// the background.
#[derive(Default)]
pub struct VfsTimes {
    pub worker: IoSide,
    pub ring: IoSide,
}

thread_local! {
    /// The I/O ring names its pool threads `flowkv-ioring-<n>`.
    static ON_RING: bool = std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("flowkv-ioring"));
}

impl VfsTimes {
    fn side(&self) -> &IoSide {
        if ON_RING.with(|r| *r) {
            &self.ring
        } else {
            &self.worker
        }
    }
}

/// A [`Vfs`] that times every call before forwarding it to `inner`.
pub struct TimedVfs {
    inner: Arc<dyn Vfs>,
    times: Arc<VfsTimes>,
}

impl TimedVfs {
    pub fn wrap(inner: Arc<dyn Vfs>) -> (Arc<dyn Vfs>, Arc<VfsTimes>) {
        let times = Arc::new(VfsTimes::default());
        let vfs = Arc::new(TimedVfs {
            inner,
            times: Arc::clone(&times),
        });
        (vfs, times)
    }

    fn open(
        &self,
        open: impl FnOnce(&dyn Vfs) -> io::Result<Box<dyn VfsFile>>,
    ) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.meta(open)?;
        Ok(Box::new(TimedFile {
            inner,
            times: Arc::clone(&self.times),
        }))
    }

    fn meta<T>(&self, call: impl FnOnce(&dyn Vfs) -> T) -> T {
        let start = Instant::now();
        let out = call(self.inner.as_ref());
        self.times.side().open.charge(start, 0);
        out
    }
}

impl Vfs for TimedVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open(|v| v.create(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open(|v| v.open_append(path))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open(|v| v.open_read(path))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open(|v| v.open_rw(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.meta(|v| v.create_dir_all(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.meta(|v| v.remove_file(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.meta(|v| v.rename(from, to))
    }

    fn copy(&self, from: &Path, to: &Path) -> io::Result<u64> {
        self.meta(|v| v.copy(from, to))
    }

    fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.meta(|v| v.link_or_copy(from, to))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.read(path);
        let bytes = out.as_ref().map_or(0, Vec::len);
        self.times.side().read.charge(start, bytes);
        out
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.write(path, data);
        self.times.side().write.charge(start, data.len());
        out
    }

    fn exists(&self, path: &Path) -> bool {
        self.meta(|v| v.exists(path))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.meta(|v| v.file_len(path))
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.meta(|v| v.read_dir_names(path))
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    times: Arc<VfsTimes>,
}

impl Read for TimedFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        let out = self.inner.read(buf);
        self.times
            .side()
            .read
            .charge(start, *out.as_ref().unwrap_or(&0));
        out
    }
}

impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let out = self.inner.write(buf);
        self.times
            .side()
            .write
            .charge(start, *out.as_ref().unwrap_or(&0));
        out
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for TimedFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl VfsFile for TimedFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.sync_data();
        self.times.side().sync.charge(start, 0);
        out
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.read_exact_at(buf, offset);
        self.times.side().read.charge(start, buf.len());
        out
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.write_all_at(buf, offset);
        self.times.side().write.charge(start, buf.len());
        out
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}
