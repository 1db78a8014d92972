//! Virtual filesystem layer with deterministic fault injection.
//!
//! Every store in the workspace persists through this seam: [`Vfs`] is
//! the set of filesystem operations the stores need (open/append/
//! positional read/sync/rename/remove and a handful of whole-file
//! helpers), [`StdVfs`] passes them straight to `std::fs`, and
//! [`FaultVfs`] wraps any inner `Vfs` with a seeded, deterministic fault
//! plan — torn writes, dropped or failing fsyncs, short reads, ENOSPC,
//! and crash-point panics.
//!
//! The point is to make the recovery story of paper §8 *testable*: the
//! happy path already checkpoints and replays, but only an injectable
//! filesystem can prove the stores survive a write torn mid-record or a
//! process death between two syncs. Fault triggering is by global
//! operation index — every faultable call through a `FaultVfs` counts as
//! one op — so a failing run is reproducible from its seed alone.

use std::fmt;
use std::io::{self, Read, Seek, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An open file handle behind a [`Vfs`].
///
/// Sequential access goes through the inherited [`Read`]/[`Write`]/
/// [`Seek`] impls (so a `Box<dyn VfsFile>` drops into `BufReader` and
/// `BufWriter` unchanged); positional access, truncation, and durability
/// are the explicit methods below, mirroring what `std::fs::File`
/// offers on Unix.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Read + Write + Seek + Send {
    /// Flushes file data (not necessarily metadata) to the device.
    fn sync_data(&mut self) -> io::Result<()>;

    /// Reads exactly `buf.len()` bytes at `offset` without moving the
    /// cursor.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// Writes all of `buf` at `offset` without moving the cursor.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;

    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;

    /// Current length of the file in bytes.
    fn len(&self) -> io::Result<u64>;
}

impl VfsFile for std::fs::File {
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(self, buf, offset)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

/// The filesystem operations a state store performs.
///
/// Implementations must be shareable across worker threads; handles
/// returned by the `open`/`create` methods are single-owner like
/// `std::fs::File`.
pub trait Vfs: Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens an existing file for reading and writing without
    /// truncation — the append/recovery path.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens an existing file read-only.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens (creating if absent) a file for positional read/write.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Copies `from` to `to`, returning the bytes copied.
    fn copy(&self, from: &Path, to: &Path) -> io::Result<u64>;

    /// Hard-links `from` to `to`, falling back to a copy across
    /// filesystems — the cheap-checkpoint primitive.
    fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Reads a whole file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes a whole buffer to `path`, truncating.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;

    /// Length of the file at `path`.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// The file names (not paths) inside the directory `path`.
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>>;
}

/// The passthrough implementation over `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl StdVfs {
    /// A shared trait-object handle: what a store runs on when its
    /// caller names the real file system.
    pub fn shared() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            std::fs::OpenOptions::new()
                .create(true)
                .read(true)
                .write(true)
                .truncate(true)
                .open(path)?,
        ))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)?,
        ))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(std::fs::File::open(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            std::fs::OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(path)?,
        ))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn copy(&self, from: &Path, to: &Path) -> io::Result<u64> {
        std::fs::copy(from, to)
    }

    fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
        if std::fs::hard_link(from, to).is_err() {
            std::fs::copy(from, to)?;
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }
}

// ---------------------------------------------------------------------------
// Read-latency injection
// ---------------------------------------------------------------------------

/// A [`Vfs`] wrapper that sleeps on every read operation, emulating a
/// cold storage device.
///
/// The prefetch experiments need reads that *block*: on a page-cache-warm
/// filesystem a "cold" read returns in microseconds and overlapping it
/// with computation saves nothing, while on the paper's disks a trigger
/// read stalls the operator for a device round trip. `SlowVfs` restores
/// that stall — synchronous reads pay it inline on the worker thread,
/// background reads pay it parked on an I/O ring pool thread — without
/// touching the write or metadata path.
pub struct SlowVfs {
    inner: Arc<dyn Vfs>,
    read_delay: std::time::Duration,
}

impl SlowVfs {
    /// Wraps `inner`, delaying every read operation by `read_delay`.
    pub fn wrap(inner: Arc<dyn Vfs>, read_delay: std::time::Duration) -> Arc<dyn Vfs> {
        Arc::new(SlowVfs { inner, read_delay })
    }
}

/// File handle issued by [`SlowVfs`]: read calls sleep, writes pass
/// through.
struct SlowFile {
    inner: Box<dyn VfsFile>,
    read_delay: std::time::Duration,
}

impl Read for SlowFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        std::thread::sleep(self.read_delay);
        self.inner.read(buf)
    }
}

impl Write for SlowFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for SlowFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl VfsFile for SlowFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::thread::sleep(self.read_delay);
        self.inner.read_exact_at(buf, offset)
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.inner.write_all_at(buf, offset)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl SlowVfs {
    fn slow(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(SlowFile {
            inner: file?,
            read_delay: self.read_delay,
        }))
    }
}

impl Vfs for SlowVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.slow(self.inner.create(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.slow(self.inner.open_append(path))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.slow(self.inner.open_read(path))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.slow(self.inner.open_rw(path))
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
        self.inner.copy(from, to)
    }

    fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.link_or_copy(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::thread::sleep(self.read_delay);
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
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

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One step of the SplitMix64 sequence — the workspace-local seeded RNG
/// used to derive fault plans (no external dependency): the state moves
/// on by the generator's increment, and the output is the new state
/// through the finalizing mixer, [`crate::hash::splitmix64`], which adds
/// that increment to the state it is handed.
pub fn splitmix64(state: &mut u64) -> u64 {
    let at = *state;
    *state = at.wrapping_add(0x9E37_79B9_7F4A_7C15);
    crate::hash::splitmix64(at)
}

/// The injectable fault taxonomy (DESIGN.md §7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A write persists only its first `keep` bytes, then errors — the
    /// classic torn write.
    TornWrite {
        /// Bytes of the buffer that reach the file before the failure.
        keep: usize,
    },
    /// One `sync_data` silently does nothing (data stays in the page
    /// cache); no error is surfaced.
    SyncDrop,
    /// One `sync_data` fails with an I/O error.
    SyncFail,
    /// One read observes a premature end-of-file.
    ShortRead,
    /// One mutating operation fails with `ENOSPC` ("no space left on
    /// device").
    Enospc,
    /// The process "dies": half of any in-flight write is persisted,
    /// then the calling thread panics.
    Crash,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::TornWrite { keep } => write!(f, "torn-write(keep={keep})"),
            FaultKind::SyncDrop => write!(f, "sync-drop"),
            FaultKind::SyncFail => write!(f, "sync-fail"),
            FaultKind::ShortRead => write!(f, "short-read"),
            FaultKind::Enospc => write!(f, "enospc"),
            FaultKind::Crash => write!(f, "crash"),
        }
    }
}

/// A deterministic schedule of faults, keyed by global operation index
/// (the first faultable operation through the `FaultVfs` is op 1).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan: the `FaultVfs` only counts operations.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a one-shot fault firing at operation `op` (1-based).
    pub fn with_fault(mut self, op: u64, kind: FaultKind) -> Self {
        self.faults.push((op, kind));
        self
    }

    /// A plan with a single crash at operation `op`.
    pub fn crash_at(op: u64) -> Self {
        FaultPlan::new().with_fault(op, FaultKind::Crash)
    }

    /// Derives a single-fault plan from `seed`: both the fault kind and
    /// its trigger op (in `1..=max_op`) come from the SplitMix64 stream,
    /// so a logged seed reproduces the exact failure.
    pub fn random(seed: u64, max_op: u64) -> Self {
        let mut s = seed;
        let op = 1 + splitmix64(&mut s) % max_op.max(1);
        let kind = match splitmix64(&mut s) % 6 {
            0 => FaultKind::TornWrite {
                keep: (splitmix64(&mut s) % 8) as usize,
            },
            1 => FaultKind::SyncDrop,
            2 => FaultKind::SyncFail,
            3 => FaultKind::ShortRead,
            4 => FaultKind::Enospc,
            _ => FaultKind::Crash,
        };
        FaultPlan::new().with_fault(op, kind)
    }

    /// Derives a crash-only plan from `seed` with the crash point drawn
    /// uniformly from `1..=max_op` — the crash-matrix helper.
    pub fn random_crash(seed: u64, max_op: u64) -> Self {
        let mut s = seed;
        FaultPlan::crash_at(1 + splitmix64(&mut s) % max_op.max(1))
    }
}

#[derive(Default)]
struct FaultState {
    ops: u64,
    pending: Vec<(u64, FaultKind)>,
    fired: Vec<(u64, FaultKind)>,
}

/// Decides what (if anything) happens at the next faultable operation.
/// The lock is released before any panic is raised so a crash fault
/// never poisons the plan state.
fn arm(state: &Mutex<FaultState>) -> Option<FaultKind> {
    let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
    s.ops += 1;
    let op = s.ops;
    if let Some(pos) = s.pending.iter().position(|(o, _)| *o == op) {
        let (_, kind) = s.pending.remove(pos);
        s.fired.push((op, kind));
        return Some(kind);
    }
    None
}

fn injected(kind: FaultKind) -> io::Error {
    let errkind = match kind {
        FaultKind::Enospc => io::ErrorKind::StorageFull,
        FaultKind::ShortRead => io::ErrorKind::UnexpectedEof,
        _ => io::ErrorKind::Other,
    };
    io::Error::new(errkind, format!("injected fault: {kind}"))
}

/// A [`Vfs`] decorator that injects the faults of a [`FaultPlan`].
///
/// Every faultable call — file reads, writes, syncs, and the
/// metadata-mutating `Vfs` operations — increments a shared operation
/// counter; when the counter hits a planned index the fault fires once.
/// [`FaultVfs::ops`] after an uninjected run gives the op range from
/// which a randomized plan should draw.
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultVfs {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                pending: plan.faults,
                ..FaultState::default()
            })),
        })
    }

    /// A counting-only wrapper (empty plan) for measuring a run's op
    /// footprint.
    pub fn counting(inner: Arc<dyn Vfs>) -> Arc<Self> {
        FaultVfs::new(inner, FaultPlan::new())
    }

    /// Total faultable operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).ops
    }

    /// The faults that have fired, as `(op index, kind)`.
    pub fn fired(&self) -> Vec<(u64, FaultKind)> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .fired
            .clone()
    }

    /// Handles a fault on a metadata-level (non-file-handle) operation.
    /// Crash faults panic; everything else surfaces as an I/O error.
    fn meta_op(&self) -> io::Result<()> {
        Self::settle(arm(&self.state))
    }

    /// What an armed fault does to an operation that has no partial
    /// effect to leave behind.
    fn settle(fault: Option<FaultKind>) -> io::Result<()> {
        match fault {
            None | Some(FaultKind::SyncDrop) => Ok(()),
            Some(FaultKind::Crash) => panic!("flowkv-fault: injected crash"),
            Some(kind) => Err(injected(kind)),
        }
    }

    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        self.meta_op()?;
        Ok(Box::new(FaultFile {
            inner: file?,
            state: Arc::clone(&self.state),
        }))
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.create(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.open_append(path))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.open_read(path))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.open_rw(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.meta_op()?;
        self.inner.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.meta_op()?;
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.meta_op()?;
        self.inner.rename(from, to)
    }

    fn copy(&self, from: &Path, to: &Path) -> io::Result<u64> {
        self.meta_op()?;
        self.inner.copy(from, to)
    }

    fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.meta_op()?;
        self.inner.link_or_copy(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.meta_op()?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match arm(&self.state) {
            // A torn whole-file write leaves the prefix on disk, like a
            // torn write through a file handle.
            Some(FaultKind::TornWrite { keep }) => {
                let _ = self.inner.write(path, &data[..keep.min(data.len())]);
                Err(injected(FaultKind::TornWrite { keep }))
            }
            other => {
                Self::settle(other)?;
                self.inner.write(path, data)
            }
        }
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

/// A file handle whose reads, writes, and syncs consult the fault plan.
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<FaultState>>,
}

impl Read for FaultFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match arm(&self.state) {
            // A short read surfaces as premature EOF: the reader sees a
            // truncated file, the torn-tail recovery path.
            Some(FaultKind::ShortRead) => Ok(0),
            Some(FaultKind::Crash) => panic!("flowkv-fault: injected crash"),
            Some(kind @ (FaultKind::Enospc | FaultKind::TornWrite { .. })) => Err(injected(kind)),
            _ => self.inner.read(buf),
        }
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match arm(&self.state) {
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(buf.len());
                let _ = self.inner.write(&buf[..keep]);
                let _ = self.inner.flush();
                Err(injected(FaultKind::TornWrite { keep }))
            }
            Some(FaultKind::Crash) => {
                // Persist half the buffer, then die: the on-disk state a
                // real crash leaves behind.
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                let _ = self.inner.flush();
                panic!("flowkv-fault: injected crash");
            }
            Some(FaultKind::Enospc) => Err(injected(FaultKind::Enospc)),
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for FaultFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl VfsFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        match arm(&self.state) {
            Some(FaultKind::SyncDrop) => Ok(()),
            Some(FaultKind::SyncFail) => Err(injected(FaultKind::SyncFail)),
            Some(FaultKind::Crash) => panic!("flowkv-fault: injected crash"),
            Some(kind) => Err(injected(kind)),
            None => self.inner.sync_data(),
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        match arm(&self.state) {
            Some(FaultKind::ShortRead) => Err(injected(FaultKind::ShortRead)),
            Some(FaultKind::Crash) => panic!("flowkv-fault: injected crash"),
            Some(kind) => Err(injected(kind)),
            None => self.inner.read_exact_at(buf, offset),
        }
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        match arm(&self.state) {
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(buf.len());
                let _ = self.inner.write_all_at(&buf[..keep], offset);
                Err(injected(FaultKind::TornWrite { keep }))
            }
            Some(FaultKind::Crash) => {
                let _ = self.inner.write_all_at(&buf[..buf.len() / 2], offset);
                panic!("flowkv-fault: injected crash");
            }
            Some(kind) => Err(injected(kind)),
            None => self.inner.write_all_at(buf, offset),
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        match arm(&self.state) {
            Some(FaultKind::Crash) => panic!("flowkv-fault: injected crash"),
            Some(FaultKind::SyncDrop) | None => self.inner.set_len(len),
            Some(kind) => Err(injected(kind)),
        }
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    #[test]
    fn splitmix64_steps_the_reference_sequence() {
        // SplitMix64 from state 0 (Steele, Lea & Flood), which seeded
        // fault plans and ring shuffles are drawn from.
        let mut state = 0;
        let drawn = [(); 3].map(|_| splitmix64(&mut state));
        assert_eq!(
            drawn,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        assert_eq!(state, 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    #[test]
    fn slow_vfs_delays_reads_not_writes() {
        let dir = ScratchDir::new("vfs-slow").unwrap();
        let delay = std::time::Duration::from_millis(5);
        let vfs = SlowVfs::wrap(StdVfs::shared(), delay);
        let path = dir.path().join("f");
        vfs.write(&path, b"payload").unwrap();

        let started = std::time::Instant::now();
        let f = vfs.open_read(&path).unwrap();
        let mut buf = [0u8; 7];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"payload");
        assert!(
            started.elapsed() >= delay,
            "positional read returned before the injected delay"
        );
        assert_eq!(vfs.read(&path).unwrap(), b"payload");

        // The write path is untouched: appending 200 records must not
        // accumulate 200 delays.
        let started = std::time::Instant::now();
        let mut w = vfs.create(&dir.path().join("w")).unwrap();
        for _ in 0..200 {
            w.write_all(b"x").unwrap();
        }
        w.flush().unwrap();
        assert!(
            started.elapsed() < delay * 100,
            "writes appear to pay the read delay"
        );
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = ScratchDir::new("vfs-std").unwrap();
        let vfs = StdVfs::shared();
        let path = dir.path().join("f");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello world").unwrap();
        f.flush().unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(vfs.file_len(&path).unwrap(), 11);
        let f = vfs.open_read(&path).unwrap();
        let mut buf = [0u8; 5];
        f.read_exact_at(&mut buf, 6).unwrap();
        assert_eq!(&buf, b"world");
        let renamed = dir.path().join("g");
        vfs.rename(&path, &renamed).unwrap();
        assert!(vfs.exists(&renamed) && !vfs.exists(&path));
        assert_eq!(vfs.read_dir_names(dir.path()).unwrap(), vec!["g"]);
        vfs.remove_file(&renamed).unwrap();
        assert!(!vfs.exists(&renamed));
    }

    #[test]
    fn counting_vfs_counts_deterministically() {
        let dir = ScratchDir::new("vfs-count").unwrap();
        let fv = FaultVfs::counting(StdVfs::shared());
        let path = dir.path().join("f");
        let mut f = fv.create(&path).unwrap(); // op 1
        f.write_all(b"abc").unwrap(); // op 2
        f.sync_data().unwrap(); // op 3
        assert_eq!(fv.ops(), 3);
        assert!(fv.fired().is_empty());
    }

    #[test]
    fn torn_write_keeps_prefix_and_errors() {
        let dir = ScratchDir::new("vfs-torn").unwrap();
        let fv = FaultVfs::new(
            StdVfs::shared(),
            FaultPlan::new().with_fault(2, FaultKind::TornWrite { keep: 4 }),
        );
        let path = dir.path().join("f");
        let mut f = fv.create(&path).unwrap();
        let err = f.write(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn-write"), "{err}");
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
        assert_eq!(fv.fired().len(), 1);

        // The whole-file write tears the same way.
        let fv = FaultVfs::new(
            StdVfs::shared(),
            FaultPlan::new().with_fault(1, FaultKind::TornWrite { keep: 4 }),
        );
        let err = fv.write(&path, b"abcdefghij").unwrap_err();
        assert!(err.to_string().contains("torn-write"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
    }

    #[test]
    fn enospc_fails_write() {
        let dir = ScratchDir::new("vfs-enospc").unwrap();
        let fv = FaultVfs::new(
            StdVfs::shared(),
            FaultPlan::new().with_fault(2, FaultKind::Enospc),
        );
        let mut f = fv.create(&dir.path().join("f")).unwrap();
        let err = f.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn crash_fault_panics_once() {
        let dir = ScratchDir::new("vfs-crash").unwrap();
        let fv = FaultVfs::new(StdVfs::shared(), FaultPlan::crash_at(2));
        let path = dir.path().join("f");
        let mut f = fv.create(&path).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = f.write(b"abcdefgh");
        }));
        assert!(result.is_err(), "crash fault did not panic");
        // Half the buffer reached the file before the "death".
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
        // One-shot: later operations proceed normally.
        f.write_all(b"rest").unwrap();
        assert_eq!(fv.fired(), vec![(2, FaultKind::Crash)]);
    }

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = FaultPlan::random(seed, 100);
            let b = FaultPlan::random(seed, 100);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let (op, _) = a.faults[0];
            assert!((1..=100).contains(&op), "op {op} out of range");
            let crash = FaultPlan::random_crash(seed, 50);
            assert!(matches!(crash.faults[0].1, FaultKind::Crash));
            assert!((1..=50).contains(&crash.faults[0].0));
        }
    }

    #[test]
    fn sync_faults() {
        let dir = ScratchDir::new("vfs-sync").unwrap();
        let fv = FaultVfs::new(
            StdVfs::shared(),
            FaultPlan::new()
                .with_fault(2, FaultKind::SyncDrop)
                .with_fault(3, FaultKind::SyncFail),
        );
        let mut f = fv.create(&dir.path().join("f")).unwrap();
        f.sync_data().unwrap(); // dropped silently
        assert!(f.sync_data().is_err()); // failed loudly
        f.sync_data().unwrap(); // back to normal
    }
}
