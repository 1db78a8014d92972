//! Checksummed append-only log files.
//!
//! Every persistent structure in the workspace — FlowKV's per-window log
//! files, its AUR data log and RMW value log, the LSM write-ahead log,
//! and the hash store's hybrid log — is built on the record format
//! implemented here:
//!
//! ```text
//! record := len:u32-le  crc:u32-le  payload:[u8; len]
//! ```
//!
//! `crc` covers the payload only; `len` is implicitly validated by the
//! checksum (a corrupted length either fails to frame or fails the CRC).
//! Readers tolerate a torn write at the tail of a log — the normal result
//! of a crash mid-append — by stopping there; corruption anywhere else is
//! reported as [`StoreError::Corruption`].
//!
//! Three readers share that framing: [`LogReader`] steps through a log
//! one record at a time into a caller's buffer; [`scan_records_in`] is
//! the whole-range scan — every generation log's full scan, the AUR and
//! RMW rebuilds at reopen among them — which frames records inside its
//! 64 KiB read buffer and lends each verified payload in place; [`RandomAccessLog`] reads
//! records at known locations, neighbours sharing one device read.
//!
//! All file access goes through the [`crate::vfs`] seam: the plain
//! constructors use the passthrough [`StdVfs`], and the `_in` variants
//! accept any [`Vfs`] — in particular a fault-injecting
//! [`crate::vfs::FaultVfs`] — so every store built on these logs can be
//! crash-tested without touching its code.

use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::crc32;
use crate::error::{Result, StoreError};
use crate::vfs::{StdVfs, Vfs, VfsFile};

/// Size of the per-record header (`len` + `crc`).
pub const RECORD_HEADER_LEN: u64 = 8;

/// Bytes a [`LogReader`] fetches per device read (`BufReader`'s default:
/// chunks that stay cache-resident while records are copied out of them).
const READ_BYTES: usize = 8 << 10;

/// Bytes [`scan_records_in`] fetches per device read. A read costs a
/// round trip, not a byte count: at 8 KiB a cold whole-log scan paid
/// eight times the round trips it pays at 64 KiB.
const SCAN_READ_BYTES: usize = 64 << 10;

/// Largest run of unwanted bytes [`RandomAccessLog::read_records`] fetches
/// and discards to serve two wanted records with one device read.
const EXTENT_GAP_BYTES: u64 = 4 << 10;

/// Largest extent one device read fetches (a single record larger than
/// this is still one read); bounds the reusable extent buffer.
const EXTENT_MAX_BYTES: u64 = 1 << 20;

/// The location of a record inside a log file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordLocation {
    /// Byte offset of the record header from the start of the file.
    pub offset: u64,
    /// Length of the payload in bytes (header excluded).
    pub len: u32,
}

impl RecordLocation {
    /// Total on-disk footprint of the record, header included.
    pub fn disk_len(&self) -> u64 {
        RECORD_HEADER_LEN + u64::from(self.len)
    }

    /// Offset of the first byte past the record.
    pub fn end_offset(&self) -> u64 {
        self.offset + self.disk_len()
    }
}

/// Buffered writer appending checksummed records to a log file.
///
/// # Examples
///
/// ```
/// use flowkv_common::logfile::{LogReader, LogWriter};
/// use flowkv_common::scratch::ScratchDir;
///
/// # fn main() -> flowkv_common::error::Result<()> {
/// let dir = ScratchDir::new("logfile-doc")?;
/// let path = dir.path().join("example.log");
/// let mut w = LogWriter::create(&path)?;
/// w.append(b"hello")?;
/// w.flush()?;
///
/// let mut r = LogReader::open(&path)?;
/// assert_eq!(r.next_record()?.unwrap().1, b"hello");
/// assert!(r.next_record()?.is_none());
/// # Ok(())
/// # }
/// ```
pub struct LogWriter {
    file: BufWriter<Box<dyn VfsFile>>,
    path: PathBuf,
    offset: u64,
}

impl LogWriter {
    /// Creates a new log file, truncating any existing file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Self::create_in(&StdVfs::shared(), path)
    }

    /// [`LogWriter::create`] through an explicit [`Vfs`].
    pub fn create_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .create(&path)
            .map_err(|e| StoreError::io_at("log create", &path, e))?;
        Ok(LogWriter {
            file: BufWriter::new(file),
            path,
            offset: 0,
        })
    }

    /// Opens an existing log for appending after the last intact record.
    ///
    /// The file is scanned to find the recovery point; a torn record at
    /// the tail is truncated away so new appends are contiguous. A bad
    /// record that more bytes follow is [`StoreError::Corruption`], and
    /// the file is not touched.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_append_in(&StdVfs::shared(), path)
    }

    /// [`LogWriter::open_append`] through an explicit [`Vfs`].
    pub fn open_append_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let valid_len = recover_valid_length_in(vfs, &path)?;
        let file = vfs
            .open_append(&path)
            .map_err(|e| StoreError::io_at("log open", &path, e))?;
        file.set_len(valid_len)
            .map_err(|e| StoreError::io_at("log truncate", &path, e))?;
        let mut file = BufWriter::new(file);
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| StoreError::io_at("log seek", &path, e))?;
        Ok(LogWriter {
            file,
            path,
            offset: valid_len,
        })
    }

    /// Appends one record and returns its location.
    pub fn append(&mut self, payload: &[u8]) -> Result<RecordLocation> {
        let len = u32::try_from(payload.len()).map_err(|_| StoreError::InvalidConfig {
            param: "record",
            detail: format!("payload of {} bytes exceeds u32::MAX", payload.len()),
        })?;
        let loc = RecordLocation {
            offset: self.offset,
            len,
        };
        // One buffered write for the whole 8-byte header instead of two:
        // append is the hot path of every store flush.
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.file
            .write_all(&header)
            .and_then(|_| self.file.write_all(payload))
            .map_err(|e| StoreError::io_at("log append", &self.path, e))?;
        self.offset = loc.end_offset();
        Ok(loc)
    }

    /// Flushes buffered records to the operating system.
    pub fn flush(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| StoreError::io_at("log flush", &self.path, e))
    }

    /// Flushes and then fsyncs the file to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.file
            .get_mut()
            .sync_data()
            .map_err(|e| StoreError::io_at("log sync", &self.path, e))
    }

    /// Offset at which the next record will be written.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Splits a record header into `(len, crc)` without any fallible
/// conversion: the header is a fixed 8-byte array, so indexing cannot
/// fail and no `expect` is needed on the parse path.
fn split_header(header: &[u8; 8]) -> (u32, u32) {
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    (len, crc)
}

/// Scans `path` and returns the length of its longest intact prefix.
/// A bad record that reaches the end of the file is a torn tail; a bad
/// record that more bytes follow is corruption.
fn recover_valid_length_in(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<u64> {
    let mut reader = LogReader::open_in(vfs, path)?;
    let mut valid = 0u64;
    let mut payload = Vec::new();
    loop {
        match reader.next_record_into(&mut payload) {
            Ok(Some(loc)) => valid = loc.end_offset(),
            Ok(None) => return Ok(valid),
            // A torn tail is expected after a crash; everything before it
            // is intact.
            Err(e) if e.is_corruption() && reader.torn_tail => return Ok(valid),
            Err(e) => return Err(e),
        }
    }
}

/// Sequential reader over the records of a log file.
pub struct LogReader {
    file: BufReader<Box<dyn VfsFile>>,
    path: PathBuf,
    offset: u64,
    file_len: u64,
    /// Whether the record last read reaches the end of the file: its
    /// framing runs past EOF, or its body ends exactly there. After a
    /// failed read this tells what a crash mid-append leaves behind (a
    /// torn tail) from corruption.
    torn_tail: bool,
}

impl LogReader {
    /// Opens `path` for sequential record iteration.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_at(path, 0)
    }

    /// [`LogReader::open`] through an explicit [`Vfs`].
    pub fn open_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self> {
        Self::open_at_in(vfs, path, 0)
    }

    /// Opens `path` positioned at `offset`, which must be a record
    /// boundary previously returned by this reader or a writer.
    pub fn open_at(path: impl AsRef<Path>, offset: u64) -> Result<Self> {
        Self::open_at_in(&StdVfs::shared(), path, offset)
    }

    /// [`LogReader::open_at`] through an explicit [`Vfs`].
    pub fn open_at_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>, offset: u64) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .open_read(&path)
            .map_err(|e| StoreError::io_at("log open", &path, e))?;
        let file_len = file
            .len()
            .map_err(|e| StoreError::io_at("log stat", &path, e))?;
        if offset > file_len {
            return Err(StoreError::corruption(
                &path,
                offset,
                "start offset past end of log",
            ));
        }
        let mut reader = BufReader::with_capacity(READ_BYTES, file);
        reader
            .seek(SeekFrom::Start(offset))
            .map_err(|e| StoreError::io_at("log seek", &path, e))?;
        Ok(LogReader {
            file: reader,
            path,
            offset,
            file_len,
            torn_tail: false,
        })
    }

    /// Reads the next record, or `Ok(None)` at a clean end of file.
    ///
    /// A record that extends past the end of the file (torn write) or
    /// fails its checksum yields [`StoreError::Corruption`] carrying the
    /// record's offset; callers recovering a log treat a corruption at the
    /// tail as the recovery point.
    pub fn next_record(&mut self) -> Result<Option<(RecordLocation, Vec<u8>)>> {
        let mut payload = Vec::new();
        let loc = self.next_record_into(&mut payload)?;
        Ok(loc.map(|loc| (loc, payload)))
    }

    /// [`LogReader::next_record`] into a caller-owned buffer: `payload`
    /// is overwritten with the record's payload, so a scan that reuses
    /// one buffer allocates nothing per record.
    pub fn next_record_into(&mut self, payload: &mut Vec<u8>) -> Result<Option<RecordLocation>> {
        if self.offset == self.file_len {
            return Ok(None);
        }
        if self.file_len - self.offset < RECORD_HEADER_LEN {
            self.torn_tail = true;
            return Err(self.corruption("torn record header"));
        }
        let mut header = [0u8; 8];
        self.file
            .read_exact(&mut header)
            .map_err(|e| StoreError::io_at("log read header", &self.path, e))?;
        let (len, crc) = split_header(&header);
        let body_end = self.offset + RECORD_HEADER_LEN + u64::from(len);
        self.torn_tail = body_end >= self.file_len;
        if body_end > self.file_len {
            return Err(self.corruption("torn record body"));
        }
        // A buffer that must grow is replaced, not extended: a fresh
        // zeroed allocation costs less than copying and filling one.
        if payload.capacity() < len as usize {
            *payload = vec![0u8; len as usize];
        } else {
            payload.resize(len as usize, 0);
        }
        self.file
            .read_exact(payload)
            .map_err(|e| StoreError::io_at("log read body", &self.path, e))?;
        if crc32(payload) != crc {
            return Err(self.corruption("checksum mismatch"));
        }
        let loc = RecordLocation {
            offset: self.offset,
            len,
        };
        self.offset = body_end;
        Ok(Some(loc))
    }

    /// Offset of the next record to be read.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    fn corruption(&self, detail: &str) -> StoreError {
        StoreError::corruption(&self.path, self.offset, detail)
    }
}

/// Hands `each` every record of the log at `path` from `start` — a record
/// boundary — up to `limit`, in log order: its location and its
/// CRC-verified payload, a slice of the scan's read buffer.
///
/// The scan reads `SCAN_READ_BYTES` per device read (`read_exact_at`),
/// frames records inside that chunk and carries a record its end splits
/// to the front of the buffer before the next read, so no record is
/// copied or zero-filled on its own; a record larger than a chunk is
/// fetched whole by one read of its rest. Bytes at or past `limit` are
/// never read: a scan bounded by a writer's offset cannot meet a record
/// being appended beside it. The bound is clamped to the file's length
/// at open, so `u64::MAX` scans to the end of the file. A record whose
/// framing runs past the bound is a torn tail and a record that fails its
/// checksum is bad: either is [`StoreError::Corruption`] at the record's
/// offset, as a [`LogReader`] reports it, after `each` has seen every
/// record before it.
pub fn scan_records_in(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    start: u64,
    limit: u64,
    mut each: impl FnMut(RecordLocation, &[u8]) -> Result<()>,
) -> Result<()> {
    let file = vfs
        .open_read(path)
        .map_err(|e| StoreError::io_at("log open", path, e))?;
    let file_len = file
        .len()
        .map_err(|e| StoreError::io_at("log stat", path, e))?;
    if start > file_len {
        return Err(StoreError::corruption(
            path,
            start,
            "start offset past end of log",
        ));
    }
    let mut chunk = ScanChunk {
        file,
        path,
        end: limit.min(file_len),
        buf: Vec::new(),
        at: 0,
        filled: 0,
    };
    let mut offset = start;
    while offset < chunk.end {
        let header = chunk.bytes(offset, RECORD_HEADER_LEN, "torn record header")?;
        let (len, crc) = split_header(header.try_into().expect("a header long"));
        let disk_len = RECORD_HEADER_LEN + u64::from(len);
        let record = chunk.bytes(offset, disk_len, "torn record body")?;
        let payload = record_payload(record);
        if crc32(payload) != crc {
            return Err(StoreError::corruption(path, offset, "checksum mismatch"));
        }
        each(RecordLocation { offset, len }, payload)?;
        chunk.at += record.len();
        offset += disk_len;
    }
    Ok(())
}

/// The read buffer of [`scan_records_in`]: `buf[at..filled]` holds the
/// file's bytes from the record being framed on, read but not framed.
struct ScanChunk<'a> {
    file: Box<dyn VfsFile>,
    path: &'a Path,
    /// Where the scan stops: its limit, clamped to the file's length.
    end: u64,
    buf: Vec<u8>,
    at: usize,
    filled: usize,
}

impl ScanChunk<'_> {
    /// The `need` bytes of the record at `offset` (the file position of
    /// `buf[at]`), read first if the buffer holds fewer. Bytes past `end`
    /// are a torn record, reported as `torn`. Inlined into the scan,
    /// which the caller's crate instantiates: only a read leaves it.
    #[inline]
    fn bytes(&mut self, offset: u64, need: u64, torn: &str) -> Result<&[u8]> {
        if need > self.end - offset {
            return Err(StoreError::corruption(self.path, offset, torn));
        }
        // Fits in memory: the bytes lie inside the file.
        let need = need as usize;
        if self.filled - self.at < need {
            self.refill(offset, need)?;
        }
        Ok(&self.buf[self.at..self.at + need])
    }

    /// Moves the unframed bytes to the front of the buffer, then appends
    /// one read: a chunk, or the rest of a record larger than one —
    /// clamped to `end`, which lies at least `need` bytes past `offset`.
    #[inline(never)]
    fn refill(&mut self, offset: u64, need: usize) -> Result<()> {
        let held = self.filled - self.at;
        self.buf.copy_within(self.at..self.filled, 0);
        let read_at = offset + held as u64;
        let n = ((need - held).max(SCAN_READ_BYTES) as u64).min(self.end - read_at) as usize;
        if self.buf.len() < held + n {
            self.buf.resize(held + n, 0);
        }
        self.file
            .read_exact_at(&mut self.buf[held..held + n], read_at)
            .map_err(|e| StoreError::io_at("log scan read", self.path, e))?;
        (self.at, self.filled) = (0, held + n);
        Ok(())
    }
}

/// Random-access reads of records at known locations.
pub struct RandomAccessLog {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    file_len: u64,
    /// Extent buffer of [`RandomAccessLog::read_records`], reused across
    /// calls so a long-lived reader allocates once.
    extent: Vec<u8>,
}

impl RandomAccessLog {
    /// Opens `path` for positioned record reads.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_in(&StdVfs::shared(), path)
    }

    /// [`RandomAccessLog::open`] through an explicit [`Vfs`].
    pub fn open_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .open_read(&path)
            .map_err(|e| StoreError::io_at("log open", &path, e))?;
        let file_len = file
            .len()
            .map_err(|e| StoreError::io_at("log stat", &path, e))?;
        Ok(RandomAccessLog {
            file,
            path,
            file_len,
            extent: Vec::new(),
        })
    }

    /// Returns whether the file covers bytes up to `end`, re-statting
    /// once if the cached length is too small — the underlying log may
    /// have grown since open (AUR keeps one reader across appends).
    fn covers(&mut self, end: u64) -> Result<bool> {
        if end <= self.file_len {
            return Ok(true);
        }
        self.file_len = self
            .file
            .len()
            .map_err(|e| StoreError::io_at("log stat", &self.path, e))?;
        Ok(end <= self.file_len)
    }

    /// Reads and verifies the record starting at `offset` when its length
    /// is not known: one read learns the length from the header, a second
    /// fetches the record. Callers holding the length use
    /// [`RandomAccessLog::read_records`] and pay one read.
    pub fn read_record_at(&mut self, offset: u64) -> Result<Vec<u8>> {
        let header_end = offset.saturating_add(RECORD_HEADER_LEN);
        if !self.covers(header_end)? {
            return Err(self.corruption(offset, "record offset past end of log"));
        }
        let mut header = [0u8; 8];
        self.file
            .read_exact_at(&mut header, offset)
            .map_err(|e| StoreError::io_at("log read header", &self.path, e))?;
        let (len, _) = split_header(&header);
        let mut payload = Vec::new();
        self.read_records(
            &[(offset, RECORD_HEADER_LEN + u64::from(len))],
            |_, record| {
                payload.extend_from_slice(record_payload(record));
                Ok(())
            },
        )?;
        Ok(payload)
    }

    /// Reads the records at `wanted` — `(offset, on-disk length)` pairs,
    /// header included, sorted by offset — and hands each one's verified
    /// bytes (header and payload; see [`record_payload`]) to
    /// `each(position in wanted, record)`, in `wanted` order.
    ///
    /// This is the "one sequential scan … in offset order" of the
    /// paper's predictive batch read: a read costs a device round trip,
    /// not a byte count, so records at most `EXTENT_GAP_BYTES` apart
    /// are merged into one extent and fetched with a single positioned
    /// read; the bytes in between are fetched, never examined, and
    /// dropped. Every record is still checked on its own: its header must
    /// carry the length the caller's index recorded and its payload must
    /// match its checksum, else [`StoreError::Corruption`] names that
    /// record's offset. An extent that would run past the end of the file
    /// is rejected before any buffer is sized for it.
    pub fn read_records(
        &mut self,
        wanted: &[(u64, u64)],
        mut each: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let mut next = 0;
        while next < wanted.len() {
            let (run, span) = self.next_extent(wanted, next)?;
            let extent_len = usize::try_from(span.end - span.start)
                .map_err(|_| self.corruption(span.start, "record length exceeds address space"))?;
            if self.extent.len() < extent_len {
                self.extent.resize(extent_len, 0);
            }
            self.file
                .read_exact_at(&mut self.extent[..extent_len], span.start)
                .map_err(|e| StoreError::io_at("log read extent", &self.path, e))?;
            for (i, &(offset, disk_len)) in wanted[run.clone()].iter().enumerate() {
                // In range by construction: `next_extent` grew `span`
                // to cover every record of `run`.
                let at = (offset - span.start) as usize;
                let record = &self.extent[at..at + disk_len as usize];
                let (header, payload) = record.split_at(RECORD_HEADER_LEN as usize);
                let (len, crc) = split_header(header.try_into().expect("split at header length"));
                if RECORD_HEADER_LEN + u64::from(len) != disk_len {
                    return Err(self.corruption(offset, "record length disagrees with index"));
                }
                if crc32(payload) != crc {
                    return Err(self.corruption(offset, "checksum mismatch"));
                }
                each(run.start + i, record)?;
            }
            next = run.end;
        }
        Ok(())
    }

    /// Plans the extent starting at `wanted[first]`: the positions of the
    /// records it serves and the byte range it fetches. A record joins
    /// while it starts no more than the gap allowance past the previous
    /// one and the extent stays within its cap; anything else — a wider
    /// gap, an overlap, an unsorted offset — starts the next extent.
    fn next_extent(
        &mut self,
        wanted: &[(u64, u64)],
        first: usize,
    ) -> Result<(Range<usize>, Range<u64>)> {
        let start = wanted[first].0;
        let mut end = start;
        let mut last = first;
        for (i, &(offset, disk_len)) in wanted.iter().enumerate().skip(first) {
            if disk_len < RECORD_HEADER_LEN {
                return Err(self.corruption(offset, "indexed length shorter than a header"));
            }
            let record_end = offset
                .checked_add(disk_len)
                .ok_or_else(|| self.corruption(offset, "record end overflows"))?;
            let joins = i == first
                || (offset >= end
                    && offset - end <= EXTENT_GAP_BYTES
                    && record_end - start <= EXTENT_MAX_BYTES);
            if !joins {
                break;
            }
            // Checked against the file before the length sizes a buffer:
            // a corrupt index must surface as an error, not as a
            // multi-gigabyte allocation.
            if !self.covers(record_end)? {
                return Err(self.corruption(offset, "record runs past end of log"));
            }
            end = record_end;
            last = i;
        }
        Ok((first..last + 1, start..end))
    }

    fn corruption(&self, offset: u64, detail: &str) -> StoreError {
        StoreError::corruption(&self.path, offset, detail)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The payload of a record handed out by
/// [`RandomAccessLog::read_records`] (everything after the header).
#[inline]
pub fn record_payload(record: &[u8]) -> &[u8] {
    &record[RECORD_HEADER_LEN as usize..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use crate::vfs::{FaultKind, FaultPlan, FaultVfs};
    use proptest::prelude::*;
    use std::fs::OpenOptions;

    fn scratch(name: &str) -> ScratchDir {
        ScratchDir::new(name).expect("scratch dir")
    }

    #[test]
    fn roundtrip_multiple_records() {
        let dir = scratch("log-roundtrip");
        let path = dir.path().join("a.log");
        let mut w = LogWriter::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (0..50).map(|i| vec![i as u8; i * 7]).collect();
        let mut locs = Vec::new();
        for p in &payloads {
            locs.push(w.append(p).unwrap());
        }
        w.flush().unwrap();

        let mut r = LogReader::open(&path).unwrap();
        for (expected_loc, expected_payload) in locs.iter().zip(&payloads) {
            let (loc, payload) = r.next_record().unwrap().unwrap();
            assert_eq!(loc, *expected_loc);
            assert_eq!(&payload, expected_payload);
        }
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn random_access_read() {
        let dir = scratch("log-random");
        let path = dir.path().join("a.log");
        let mut w = LogWriter::create(&path).unwrap();
        let l1 = w.append(b"first").unwrap();
        let l2 = w.append(b"second").unwrap();
        w.flush().unwrap();

        let mut ra = RandomAccessLog::open(&path).unwrap();
        assert_eq!(ra.read_record_at(l2.offset).unwrap(), b"second");
        assert_eq!(ra.read_record_at(l1.offset).unwrap(), b"first");
    }

    #[test]
    fn torn_tail_is_detected_and_recovered() {
        let dir = scratch("log-torn");
        let path = dir.path().join("a.log");
        let mut w = LogWriter::create(&path).unwrap();
        w.append(b"intact").unwrap();
        let torn = w.append(b"will be torn").unwrap();
        w.flush().unwrap();
        drop(w);

        // Chop the last record in half, simulating a crash mid-write.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn.offset + torn.disk_len() / 2).unwrap();
        drop(f);

        let mut r = LogReader::open(&path).unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().1, b"intact");
        assert!(r.next_record().unwrap_err().is_corruption());

        // Recovery truncates to the intact prefix and appends after it.
        let mut w = LogWriter::open_append(&path).unwrap();
        assert_eq!(w.offset(), torn.offset);
        w.append(b"recovered").unwrap();
        w.flush().unwrap();

        let mut r = LogReader::open(&path).unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().1, b"intact");
        assert_eq!(r.next_record().unwrap().unwrap().1, b"recovered");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn bitflip_is_corruption() {
        let dir = scratch("log-bitflip");
        let path = dir.path().join("a.log");
        let mut w = LogWriter::create(&path).unwrap();
        let loc = w.append(b"payload-bytes").unwrap();
        w.append(b"second").unwrap();
        w.flush().unwrap();
        drop(w);

        // Flip one payload byte of the first record.
        let mut data = std::fs::read(&path).unwrap();
        let idx = (loc.offset + RECORD_HEADER_LEN) as usize;
        data[idx] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let mut r = LogReader::open(&path).unwrap();
        let err = r.next_record().unwrap_err();
        assert!(err.is_corruption());

        // An intact record follows the bad one, so this is no torn tail:
        // reopening for append reports it and cuts nothing away.
        let err = LogWriter::open_append(&path).err().expect("a corrupt log");
        assert!(err.is_corruption(), "{err}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), data.len() as u64);
    }

    #[test]
    fn random_access_rejects_bad_offsets_and_lengths() {
        let dir = scratch("log-random-bad");
        let path = dir.path().join("a.log");
        let mut w = LogWriter::create(&path).unwrap();
        let loc = w.append(b"only record").unwrap();
        w.flush().unwrap();
        drop(w);

        let mut ra = RandomAccessLog::open(&path).unwrap();
        // Offset past the end of the file.
        assert!(ra
            .read_record_at(loc.end_offset() + 100)
            .unwrap_err()
            .is_corruption());

        // A corrupt header length that runs past the end of the file must
        // be rejected before any allocation, not misread.
        let mut data = std::fs::read(&path).unwrap();
        data[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let mut ra = RandomAccessLog::open(&path).unwrap();
        assert!(ra.read_record_at(0).unwrap_err().is_corruption());
    }

    #[test]
    fn random_access_sees_records_appended_after_open() {
        let dir = scratch("log-random-grow");
        let path = dir.path().join("a.log");
        let mut w = LogWriter::create(&path).unwrap();
        w.append(b"first").unwrap();
        w.flush().unwrap();

        // Open the reader, then keep appending: the reader must follow
        // the growing file (AUR holds one reader across appends).
        let mut ra = RandomAccessLog::open(&path).unwrap();
        let l2 = w.append(b"second, after open").unwrap();
        w.flush().unwrap();
        assert_eq!(ra.read_record_at(l2.offset).unwrap(), b"second, after open");
    }

    /// Writes one record per payload and returns the `(offset, on-disk
    /// length)` of each, as an index would hold them.
    fn write_records(path: &Path, payloads: &[Vec<u8>]) -> Vec<(u64, u64)> {
        let mut w = LogWriter::create(path).unwrap();
        let locations = payloads
            .iter()
            .map(|p| {
                let loc = w.append(p).unwrap();
                (loc.offset, loc.disk_len())
            })
            .collect();
        w.flush().unwrap();
        locations
    }

    fn collect_records(log: &mut RandomAccessLog, wanted: &[(u64, u64)]) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        log.read_records(wanted, |i, record| {
            assert_eq!(i, out.len(), "records arrive in wanted order");
            out.push(record_payload(record).to_vec());
            Ok(())
        })?;
        Ok(out)
    }

    fn flip_byte(path: &Path, at: u64) {
        let mut data = std::fs::read(path).unwrap();
        data[at as usize] ^= 0x01;
        std::fs::write(path, &data).unwrap();
    }

    fn corruption_offset(err: StoreError) -> u64 {
        match err {
            StoreError::Corruption { offset, .. } => offset,
            other => panic!("expected corruption, got {other}"),
        }
    }

    /// Device reads the merge rule allows for `wanted`: the specification
    /// `read_records` is checked against.
    fn expected_extents(wanted: &[(u64, u64)]) -> u64 {
        let mut extents = 0;
        let (mut start, mut end) = (0, 0);
        for &(offset, disk_len) in wanted {
            let joins = extents > 0
                && offset - end <= EXTENT_GAP_BYTES
                && offset + disk_len - start <= EXTENT_MAX_BYTES;
            if !joins {
                extents += 1;
                start = offset;
            }
            end = offset + disk_len;
        }
        extents
    }

    /// On-disk record sizes that, when the record is skipped, leave a gap
    /// just below, at and just above the merge allowance, plus one large
    /// enough that three of them cross the extent cap.
    fn disk_len_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            6 => RECORD_HEADER_LEN..200,
            1 => Just(EXTENT_GAP_BYTES - 1),
            1 => Just(EXTENT_GAP_BYTES),
            1 => Just(EXTENT_GAP_BYTES + 1),
            1 => Just(EXTENT_MAX_BYTES / 2 - 100),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn batched_read_matches_per_record_reads(
            records in prop::collection::vec((disk_len_strategy(), any::<bool>(), any::<u8>()), 1..24)
        ) {
            let dir = scratch("log-batch-prop");
            let path = dir.path().join("a.log");
            let payloads: Vec<Vec<u8>> = records
                .iter()
                .map(|&(disk_len, _, fill)| vec![fill; (disk_len - RECORD_HEADER_LEN) as usize])
                .collect();
            let locations = write_records(&path, &payloads);
            let wanted: Vec<(u64, u64)> = locations
                .iter()
                .zip(&records)
                .filter(|(_, &(_, want, _))| want)
                .map(|(loc, _)| *loc)
                .collect();

            let counting = FaultVfs::counting(StdVfs::shared());
            let vfs: Arc<dyn Vfs> = counting.clone();
            let mut log = RandomAccessLog::open_in(&vfs, &path).unwrap();
            let opened = counting.ops();
            let batched = collect_records(&mut log, &wanted).unwrap();
            prop_assert_eq!(counting.ops() - opened, expected_extents(&wanted));

            let mut single = RandomAccessLog::open(&path).unwrap();
            let one_by_one: Vec<Vec<u8>> = wanted
                .iter()
                .map(|&(offset, _)| single.read_record_at(offset).unwrap())
                .collect();
            prop_assert_eq!(batched, one_by_one);
        }
    }

    /// Cases of the scan property: 32 unless `PROPTEST_CASES` says
    /// otherwise (CI's crash-matrix job runs 256).
    fn scan_cases() -> u32 {
        let cases = std::env::var("PROPTEST_CASES").ok();
        cases.and_then(|n| n.parse().ok()).unwrap_or(32)
    }

    /// What a scan of a log yields: each record's location and payload,
    /// then the offset of the corruption that stopped it, if any.
    type Scanned = (Vec<(RecordLocation, Vec<u8>)>, Option<u64>);

    /// The loop [`scan_records_in`] replaced: a [`LogReader`] fetching a
    /// scan chunk per device read, stepped while it is short of `limit`.
    fn scan_by_reader(vfs: &Arc<dyn Vfs>, path: &Path, start: u64, limit: u64) -> Scanned {
        let mut reader = LogReader::open_at_in(vfs, path, start).unwrap();
        reader.file = BufReader::with_capacity(SCAN_READ_BYTES, reader.file.into_inner());
        let mut records = Vec::new();
        while reader.offset() < limit {
            match reader.next_record() {
                Ok(Some(record)) => records.push(record),
                Ok(None) => break,
                Err(e) => return (records, Some(corruption_offset(e))),
            }
        }
        (records, None)
    }

    fn scan_in_place(vfs: &Arc<dyn Vfs>, path: &Path, start: u64, limit: u64) -> Scanned {
        let mut records = Vec::new();
        let scanned = scan_records_in(vfs, path, start, limit, |loc, payload| {
            records.push((loc, payload.to_vec()));
            Ok(())
        });
        (records, scanned.err().map(corruption_offset))
    }

    /// Both scans of `path` through one counting Vfs: what each yields
    /// and the device ops each issues.
    fn scan_both(path: &Path, start: u64, limit: u64) -> ((Scanned, u64), (Scanned, u64)) {
        let counting = FaultVfs::counting(StdVfs::shared());
        let vfs: Arc<dyn Vfs> = counting.clone();
        let counted = |scan: fn(&Arc<dyn Vfs>, &Path, u64, u64) -> Scanned| {
            let before = counting.ops();
            let scanned = scan(&vfs, path, start, limit);
            (scanned, counting.ops() - before)
        };
        (counted(scan_by_reader), counted(scan_in_place))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(scan_cases()))]
        /// Random logs of 0-300 B records around one record larger than a
        /// scan chunk, scanned from a random record boundary to a record
        /// boundary, the end of the file or `u64::MAX`, whole, with a torn
        /// tail, or with one byte flipped: the in-place scan yields what
        /// the reader loop does and stops at the same corruption — and
        /// over an intact prefix it issues as many device reads.
        #[test]
        fn in_place_scan_is_the_reader_loop(
            sizes in prop::collection::vec(0usize..300, 200..700),
            large in (SCAN_READ_BYTES + 1..SCAN_READ_BYTES + 16_000, any::<prop::sample::Index>()),
            fill in any::<u8>(),
            start in any::<prop::sample::Index>(),
            limit in (0u8..3, any::<prop::sample::Index>()),
            torn in (any::<bool>(), any::<prop::sample::Index>()),
            flip in (any::<bool>(), any::<prop::sample::Index>()),
        ) {
            let dir = scratch("log-scan-prop");
            let path = dir.path().join("a.log");
            let mut sizes = sizes;
            sizes.insert(large.1.index(sizes.len() + 1), large.0);
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| fill ^ (i * 31 + j) as u8).collect())
                .collect();
            let locations = write_records(&path, &payloads);
            let boundaries: Vec<u64> = std::iter::once(0)
                .chain(locations.iter().map(|&(offset, len)| offset + len))
                .collect();
            let mut file_len = *boundaries.last().unwrap();
            if torn.0 {
                let (last, len) = *locations.last().unwrap();
                file_len = last + 1 + torn.1.index(len as usize - 1) as u64;
                OpenOptions::new().write(true).open(&path).unwrap().set_len(file_len).unwrap();
            }
            if flip.0 {
                flip_byte(&path, flip.1.index(file_len as usize) as u64);
            }
            let starts: Vec<u64> = boundaries.iter().copied().filter(|&b| b <= file_len).collect();
            let start = starts[start.index(starts.len())];
            let limit = match limit.0 {
                0 => boundaries[limit.1.index(boundaries.len())],
                1 => file_len,
                _ => u64::MAX,
            };
            let ((by_reader, reader_ops), (in_place, scan_ops)) = scan_both(&path, start, limit);
            prop_assert_eq!(&in_place, &by_reader);
            if !flip.0 {
                prop_assert_eq!(scan_ops, reader_ops);
            }
        }
    }

    #[test]
    fn in_place_scan_carries_records_across_chunk_edges() {
        let dir = scratch("log-scan-edges");
        let path = dir.path().join("a.log");
        // A record ending one byte short of the first chunk edge (the
        // next header straddles it), one straddling the second edge
        // with its body, one larger than a chunk, then small ones.
        let chunk = SCAN_READ_BYTES;
        let payloads = vec![
            vec![1u8; chunk - 2 * RECORD_HEADER_LEN as usize - 1],
            vec![2u8; 40],
            vec![3u8; chunk - 40],
            vec![4u8; 2 * chunk + 5],
            vec![5u8; 0],
            vec![6u8; 7],
        ];
        let locations = write_records(&path, &payloads);
        for start in [0, locations[2].0, locations[3].0] {
            let ((by_reader, reader_ops), (in_place, scan_ops)) = scan_both(&path, start, u64::MAX);
            assert_eq!(in_place, by_reader, "from {start}");
            assert_eq!(in_place.1, None);
            assert_eq!(scan_ops, reader_ops, "from {start}");
        }
        let (_, (whole, _)) = scan_both(&path, 0, u64::MAX);
        let scanned: Vec<Vec<u8>> = whole.0.into_iter().map(|(_, p)| p).collect();
        assert_eq!(scanned, payloads);
        // A limit inside the log stops the scan there.
        let (_, (cut, _)) = scan_both(&path, 0, locations[3].0);
        assert_eq!(cut.0.len(), 3);
        assert_eq!(cut.1, None);
    }

    #[test]
    fn in_place_scan_stops_at_the_first_bad_record_after_lending_the_rest() {
        let dir = scratch("log-scan-bad");
        let path = dir.path().join("a.log");
        let locations = write_records(&path, &[vec![1u8; 10], vec![2u8; 10], vec![3u8; 10]]);
        flip_byte(&path, locations[1].0 + RECORD_HEADER_LEN + 3);
        let vfs = StdVfs::shared();
        let (records, bad) = scan_in_place(&vfs, &path, 0, u64::MAX);
        assert_eq!(records.len(), 1);
        assert_eq!(bad, Some(locations[1].0));
        // A start past the end is corrupt before any read.
        let err = scan_records_in(&vfs, &path, 1 << 20, u64::MAX, |_, _| Ok(())).unwrap_err();
        assert_eq!(corruption_offset(err), 1 << 20);
    }

    #[test]
    fn batched_read_ignores_gap_bytes_and_checks_every_wanted_record() {
        let dir = scratch("log-batch-corrupt");
        let path = dir.path().join("a.log");
        let payloads = vec![vec![1u8; 40], vec![2u8; 40], vec![3u8; 40], vec![4u8; 40]];
        let locations = write_records(&path, &payloads);
        let wanted = [locations[0], locations[2], locations[3]];

        // A flipped bit in the skipped record sits in a gap: never examined.
        flip_byte(&path, locations[1].0 + RECORD_HEADER_LEN + 5);
        let mut log = RandomAccessLog::open(&path).unwrap();
        assert_eq!(
            collect_records(&mut log, &wanted).unwrap(),
            vec![
                payloads[0].clone(),
                payloads[2].clone(),
                payloads[3].clone()
            ]
        );

        // An index length that disagrees with the record's header names
        // that record, whether it is too short or too long.
        for wrong in [locations[2].1 - 1, locations[2].1 + 1] {
            let err = collect_records(&mut log, &[locations[0], (locations[2].0, wrong)]);
            assert_eq!(corruption_offset(err.unwrap_err()), locations[2].0);
        }

        // A flipped bit in a wanted record names that record, not the
        // extent's first one.
        flip_byte(&path, locations[2].0 + RECORD_HEADER_LEN + 5);
        let err = collect_records(&mut log, &wanted).unwrap_err();
        assert_eq!(corruption_offset(err), locations[2].0);
    }

    #[test]
    fn batched_read_rejects_extents_past_the_end_of_the_log() {
        let dir = scratch("log-batch-eof");
        let path = dir.path().join("a.log");
        let locations = write_records(&path, &[vec![7u8; 16], vec![8u8; 16]]);
        let mut log = RandomAccessLog::open(&path).unwrap();
        // Lengths no file could hold must fail before any buffer is sized
        // for them; so must an offset whose end overflows.
        for bad in [
            (locations[1].0, locations[1].1 + 1),
            (locations[1].0, u64::MAX / 2),
            (u64::MAX - 4, 16),
            (locations[1].0, RECORD_HEADER_LEN - 1),
        ] {
            let err = collect_records(&mut log, &[locations[0], bad]).unwrap_err();
            assert_eq!(corruption_offset(err), bad.0, "{bad:?}");
        }
        // Out-of-order and overlapping locations cost extra reads, never
        // wrong bytes.
        let shuffled = [locations[1], locations[0], locations[0]];
        assert_eq!(
            collect_records(&mut log, &shuffled).unwrap(),
            vec![vec![8u8; 16], vec![7u8; 16], vec![7u8; 16]]
        );
    }

    #[test]
    fn batched_read_sees_records_appended_after_open() {
        let dir = scratch("log-batch-grow");
        let path = dir.path().join("a.log");
        let mut w = LogWriter::create(&path).unwrap();
        let l1 = w.append(b"first").unwrap();
        w.flush().unwrap();
        let mut log = RandomAccessLog::open(&path).unwrap();
        let l2 = w.append(b"second, after open").unwrap();
        w.flush().unwrap();
        let wanted = [(l1.offset, l1.disk_len()), (l2.offset, l2.disk_len())];
        assert_eq!(
            collect_records(&mut log, &wanted).unwrap(),
            vec![b"first".to_vec(), b"second, after open".to_vec()]
        );
    }

    #[test]
    fn short_read_inside_an_extent_is_an_io_error_and_retries_cleanly() {
        let dir = scratch("log-batch-short");
        let path = dir.path().join("a.log");
        let payloads = vec![vec![1u8; 40], vec![2u8; 40]];
        let locations = write_records(&path, &payloads);
        // Op 1 opens the file; op 2 is the extent read.
        let plan = FaultPlan::new().with_fault(2, FaultKind::ShortRead);
        let vfs: Arc<dyn Vfs> = FaultVfs::new(StdVfs::shared(), plan);
        let mut log = RandomAccessLog::open_in(&vfs, &path).unwrap();
        let err = collect_records(&mut log, &locations).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert_eq!(collect_records(&mut log, &locations).unwrap(), payloads);
    }

    #[test]
    fn empty_log_reads_cleanly() {
        let dir = scratch("log-empty");
        let path = dir.path().join("a.log");
        LogWriter::create(&path).unwrap().flush().unwrap();
        let mut r = LogReader::open(&path).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn open_append_on_clean_log() {
        let dir = scratch("log-append");
        let path = dir.path().join("a.log");
        {
            let mut w = LogWriter::create(&path).unwrap();
            w.append(b"one").unwrap();
            w.flush().unwrap();
        }
        let mut w = LogWriter::open_append(&path).unwrap();
        w.append(b"two").unwrap();
        w.flush().unwrap();
        let mut r = LogReader::open(&path).unwrap();
        assert_eq!(r.next_record().unwrap().unwrap().1, b"one");
        assert_eq!(r.next_record().unwrap().unwrap().1, b"two");
        assert!(r.next_record().unwrap().is_none());
    }
}
