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
//! Two readers frame records, and only they: [`LogReader`] steps through
//! a log in order — a whole-log scan at 64 KiB per device read (every
//! recovery at open among them, [`LogWriter::open_append_in`]) or a
//! stepped read at 8 KiB — and [`RandomAccessLog`] reads records at
//! known locations, neighbours sharing one device read.
//! [`LogReader::for_each_intact`] states the torn-tail rule once.
//!
//! All file access goes through the [`crate::vfs`] seam: every
//! constructor takes a [`Vfs`] — the passthrough [`crate::vfs::StdVfs`]
//! or a fault-injecting [`crate::vfs::FaultVfs`] — so every store built
//! on these logs can be crash-tested without touching its code.

use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::crc32;
use crate::error::{Result, StoreError};
use crate::vfs::{Vfs, VfsFile};

/// Size of the per-record header (`len` + `crc`).
pub const RECORD_HEADER_LEN: u64 = 8;

/// Bytes a stepped [`LogReader`] fetches per device read (`BufReader`'s
/// default: chunks that stay cache-resident while records are copied out
/// of them; 64 KiB made AAR window drains slower).
const READ_BYTES: usize = 8 << 10;

/// Bytes a whole-log scan ([`LogReader::open_scan_in`]) fetches per
/// device read. A read costs a round trip, not a byte count: at 8 KiB a
/// cold whole-log scan pays eight times the round trips it pays here.
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
/// use flowkv_common::vfs::StdVfs;
///
/// # fn main() -> flowkv_common::error::Result<()> {
/// let dir = ScratchDir::new("logfile-doc")?;
/// let path = dir.path().join("example.log");
/// let vfs = StdVfs::shared();
/// let mut w = LogWriter::create_in(&vfs, &path)?;
/// w.append(b"hello")?;
/// w.flush()?;
///
/// let mut r = LogReader::open_in(&vfs, &path)?;
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

    /// Opens an existing log for appending after its last intact record,
    /// handing `each` every intact record on the way: the one whole-log
    /// scan of a reopen, so a caller rebuilding from the log reads it
    /// once.
    ///
    /// A torn record at the tail is truncated away so new appends are
    /// contiguous. A bad record that more bytes follow is
    /// [`StoreError::Corruption`], and the file is not touched.
    pub fn open_append_in(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        each: impl FnMut(RecordLocation, &[u8]) -> Result<()>,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let valid_len = LogReader::open_scan_in(vfs, &path)?.for_each_intact(each)?;
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

/// Sequential reader over the records of a log file.
///
/// How it is opened says how it reads: [`LogReader::open_scan_in`] scans
/// a whole log at 64 KiB per device read; [`LogReader::open_in`] and
/// [`LogReader::open_at_in`] step through one at 8 KiB.
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
    /// Opens `path` to step through its records from the start.
    pub fn open_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self> {
        Self::open_at_in(vfs, path, 0)
    }

    /// Opens `path` positioned at `offset`, which must be a record
    /// boundary previously returned by this reader or a writer.
    pub fn open_at_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>, offset: u64) -> Result<Self> {
        Self::open_with(vfs, path.as_ref(), offset, READ_BYTES)
    }

    /// Opens `path` for a scan of the whole log.
    pub fn open_scan_in(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(vfs, path.as_ref(), 0, SCAN_READ_BYTES)
    }

    fn open_with(vfs: &Arc<dyn Vfs>, path: &Path, offset: u64, read_bytes: usize) -> Result<Self> {
        let path = path.to_path_buf();
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
        let mut reader = BufReader::with_capacity(read_bytes, file);
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
    /// record's offset; [`LogReader::for_each_intact`] tells a torn tail
    /// from corruption.
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

    /// Steps to the end of the log, handing `each` every record, and
    /// returns where the intact records end: the end of the file, or the
    /// start of a torn tail. A bad record that reaches the end of the
    /// file is what a crash mid-append leaves and ends the log; a bad
    /// record that more bytes follow is [`StoreError::Corruption`], after
    /// `each` has seen every record before it.
    pub fn for_each_intact(
        &mut self,
        mut each: impl FnMut(RecordLocation, &[u8]) -> Result<()>,
    ) -> Result<u64> {
        let mut payload = Vec::new();
        loop {
            match self.next_record_into(&mut payload) {
                Ok(Some(loc)) => each(loc, &payload)?,
                Ok(None) => return Ok(self.offset),
                Err(e) if e.is_corruption() && self.torn_tail => return Ok(self.offset),
                Err(e) => return Err(e),
            }
        }
    }

    /// Offset of the next record to be read.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    fn corruption(&self, detail: &str) -> StoreError {
        StoreError::corruption(&self.path, self.offset, detail)
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
    use crate::vfs::{FaultKind, FaultPlan, FaultVfs, StdVfs};
    use proptest::prelude::*;
    use std::fs::OpenOptions;

    fn scratch(name: &str) -> ScratchDir {
        ScratchDir::new(name).expect("scratch dir")
    }

    fn create(path: &Path) -> LogWriter {
        LogWriter::create_in(&StdVfs::shared(), path).unwrap()
    }

    fn reader(path: &Path) -> LogReader {
        LogReader::open_in(&StdVfs::shared(), path).unwrap()
    }

    fn random_access(path: &Path) -> RandomAccessLog {
        RandomAccessLog::open_in(&StdVfs::shared(), path).unwrap()
    }

    fn open_append(path: &Path) -> Result<LogWriter> {
        LogWriter::open_append_in(&StdVfs::shared(), path, |_, _| Ok(()))
    }

    #[test]
    fn roundtrip_multiple_records() {
        let dir = scratch("log-roundtrip");
        let path = dir.path().join("a.log");
        let mut w = create(&path);
        let payloads: Vec<Vec<u8>> = (0..50).map(|i| vec![i as u8; i * 7]).collect();
        let mut locs = Vec::new();
        for p in &payloads {
            locs.push(w.append(p).unwrap());
        }
        w.flush().unwrap();

        let mut r = reader(&path);
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
        let mut w = create(&path);
        let l1 = w.append(b"first").unwrap();
        let l2 = w.append(b"second").unwrap();
        w.flush().unwrap();

        let mut ra = random_access(&path);
        assert_eq!(ra.read_record_at(l2.offset).unwrap(), b"second");
        assert_eq!(ra.read_record_at(l1.offset).unwrap(), b"first");
    }

    #[test]
    fn torn_tail_is_detected_and_recovered() {
        let dir = scratch("log-torn");
        let path = dir.path().join("a.log");
        let mut w = create(&path);
        w.append(b"intact").unwrap();
        let torn = w.append(b"will be torn").unwrap();
        w.flush().unwrap();
        drop(w);

        // Chop the last record in half, simulating a crash mid-write.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn.offset + torn.disk_len() / 2).unwrap();
        drop(f);

        let mut r = reader(&path);
        assert_eq!(r.next_record().unwrap().unwrap().1, b"intact");
        assert!(r.next_record().unwrap_err().is_corruption());

        // Recovery truncates to the intact prefix and appends after it.
        let mut w = open_append(&path).unwrap();
        assert_eq!(w.offset(), torn.offset);
        w.append(b"recovered").unwrap();
        w.flush().unwrap();

        let mut r = reader(&path);
        assert_eq!(r.next_record().unwrap().unwrap().1, b"intact");
        assert_eq!(r.next_record().unwrap().unwrap().1, b"recovered");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn bitflip_is_corruption() {
        let dir = scratch("log-bitflip");
        let path = dir.path().join("a.log");
        let mut w = create(&path);
        let loc = w.append(b"payload-bytes").unwrap();
        w.append(b"second").unwrap();
        w.flush().unwrap();
        drop(w);

        // Flip one payload byte of the first record.
        let mut data = std::fs::read(&path).unwrap();
        let idx = (loc.offset + RECORD_HEADER_LEN) as usize;
        data[idx] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let mut r = reader(&path);
        let err = r.next_record().unwrap_err();
        assert!(err.is_corruption());

        // An intact record follows the bad one, so this is no torn tail:
        // reopening for append reports it and cuts nothing away.
        let err = open_append(&path).err().expect("a corrupt log");
        assert!(err.is_corruption(), "{err}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), data.len() as u64);
    }

    #[test]
    fn random_access_rejects_bad_offsets_and_lengths() {
        let dir = scratch("log-random-bad");
        let path = dir.path().join("a.log");
        let mut w = create(&path);
        let loc = w.append(b"only record").unwrap();
        w.flush().unwrap();
        drop(w);

        let mut ra = random_access(&path);
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
        let mut ra = random_access(&path);
        assert!(ra.read_record_at(0).unwrap_err().is_corruption());
    }

    #[test]
    fn random_access_sees_records_appended_after_open() {
        let dir = scratch("log-random-grow");
        let path = dir.path().join("a.log");
        let mut w = create(&path);
        w.append(b"first").unwrap();
        w.flush().unwrap();

        // Open the reader, then keep appending: the reader must follow
        // the growing file (AUR holds one reader across appends).
        let mut ra = random_access(&path);
        let l2 = w.append(b"second, after open").unwrap();
        w.flush().unwrap();
        assert_eq!(ra.read_record_at(l2.offset).unwrap(), b"second, after open");
    }

    /// Writes one record per payload and returns the `(offset, on-disk
    /// length)` of each, as an index would hold them.
    fn write_records(path: &Path, payloads: &[Vec<u8>]) -> Vec<(u64, u64)> {
        let mut w = create(path);
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

            let mut single = random_access(&path);
            let one_by_one: Vec<Vec<u8>> = wanted
                .iter()
                .map(|&(offset, _)| single.read_record_at(offset).unwrap())
                .collect();
            prop_assert_eq!(batched, one_by_one);
        }
    }

    /// Cases of the reader properties: 32 unless `PROPTEST_CASES` says
    /// otherwise (CI's crash-matrix job runs 256).
    fn reader_cases() -> u32 {
        let cases = std::env::var("PROPTEST_CASES").ok();
        cases.and_then(|n| n.parse().ok()).unwrap_or(32)
    }

    /// What a read of a log yields: each record's location and payload,
    /// then the offset of the corruption that stopped it, if any.
    type Scanned = (Vec<(RecordLocation, Vec<u8>)>, Option<u64>);

    /// The reference the readers are checked against: `bytes` framed
    /// from `start` while short of `limit`, each record's location and
    /// payload, then — if a record fails — its offset and whether it is a
    /// torn tail (its framing reaches the end of the bytes).
    fn frame(bytes: &[u8], start: u64, limit: u64) -> (Scanned, bool) {
        let mut records = Vec::new();
        let mut at = start as usize;
        while (at as u64) < limit && at < bytes.len() {
            let rest = &bytes[at..];
            let bad = |torn| ((records.clone(), Some(at as u64)), torn);
            if rest.len() < 8 {
                return bad(true);
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
            let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
            let end = 8 + len as usize;
            if end > rest.len() {
                return bad(true);
            }
            if crc32(&rest[8..end]) != crc {
                return bad(end == rest.len());
            }
            let loc = RecordLocation {
                offset: at as u64,
                len,
            };
            records.push((loc, rest[8..end].to_vec()));
            at += end;
        }
        ((records, None), false)
    }

    /// A stepped reader from `start`, stepped while it is short of `limit`.
    fn step(vfs: &Arc<dyn Vfs>, path: &Path, start: u64, limit: u64) -> Scanned {
        let mut reader = LogReader::open_at_in(vfs, path, start).unwrap();
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

    /// A whole-log scan of `path` through [`LogReader::for_each_intact`]:
    /// the records it lends and where it says the intact records end.
    fn scan_intact(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
    ) -> (Vec<(RecordLocation, Vec<u8>)>, Result<u64>) {
        let mut records = Vec::new();
        let mut reader = LogReader::open_scan_in(vfs, path).unwrap();
        let end = reader.for_each_intact(|loc, payload| {
            records.push((loc, payload.to_vec()));
            Ok(())
        });
        (records, end)
    }

    /// Both readers of `path` against the reference framing of its bytes:
    /// the stepped read from `start` to `limit` yields the same records
    /// and stops at the same corruption; the whole-log scan lends the
    /// same records and ends a torn tail where it starts, while a bad
    /// record that more bytes follow is corruption at its offset.
    fn check_readers(
        path: &Path,
        start: u64,
        limit: u64,
    ) -> std::result::Result<(), TestCaseError> {
        let bytes = std::fs::read(path).unwrap();
        let vfs = StdVfs::shared();
        prop_assert_eq!(
            step(&vfs, path, start, limit),
            frame(&bytes, start, limit).0
        );
        let ((records, bad), torn) = frame(&bytes, 0, u64::MAX);
        let (scanned, end) = scan_intact(&vfs, path);
        prop_assert_eq!(&scanned, &records);
        match (bad, end) {
            (None, Ok(end)) => prop_assert_eq!(end, bytes.len() as u64),
            (Some(at), Ok(end)) => {
                prop_assert!(torn && end == at, "torn {torn} at {at}, end {end}")
            }
            (Some(at), Err(e)) => {
                prop_assert!(!torn, "a torn tail at {at} is corruption: {e}");
                prop_assert_eq!(corruption_offset(e), at);
            }
            (None, Err(e)) => prop_assert!(false, "an intact log is corrupt: {e}"),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(reader_cases()))]
        /// Random logs of 0-300 B records around one record larger than a
        /// scan chunk, read from a random record boundary to a record
        /// boundary, the end of the file or `u64::MAX`, whole, with a torn
        /// tail, or with one byte flipped.
        #[test]
        fn the_readers_frame_what_the_reference_frames(
            sizes in prop::collection::vec(0usize..300, 200..700),
            large in (SCAN_READ_BYTES + 1..SCAN_READ_BYTES + 16_000, any::<prop::sample::Index>()),
            fill in any::<u8>(),
            start in any::<prop::sample::Index>(),
            limit in (0u8..3, any::<prop::sample::Index>()),
            torn in (any::<bool>(), any::<prop::sample::Index>()),
            flip in (any::<bool>(), any::<prop::sample::Index>()),
        ) {
            let dir = scratch("log-reader-prop");
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
            check_readers(&path, start, limit)?;
        }

        /// Any bytes at all — intact records, then arbitrary bytes: both
        /// readers lend records, then end or report corruption as the
        /// reference does, and never panic.
        #[test]
        fn any_bytes_read_as_the_reference_frames_them(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..4),
            tail in prop::collection::vec(any::<u8>(), 0..64),
            header in (any::<bool>(), 0u32..80),
        ) {
            let dir = scratch("log-reader-bytes");
            let path = dir.path().join("a.log");
            write_records(&path, &payloads);
            let mut bytes = std::fs::read(&path).unwrap();
            // Often a plausible length, so the tail frames as a record
            // that fails its checksum or runs past the end.
            if header.0 {
                bytes.extend_from_slice(&header.1.to_le_bytes());
            }
            bytes.extend_from_slice(&tail);
            std::fs::write(&path, &bytes).unwrap();
            check_readers(&path, 0, u64::MAX)?;
        }
    }

    #[test]
    fn a_whole_log_scan_carries_records_across_chunk_edges_in_64_kib_reads() {
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
        write_records(&path, &payloads);
        check_readers(&path, 0, u64::MAX).unwrap();
        let counting = FaultVfs::counting(StdVfs::shared());
        let vfs: Arc<dyn Vfs> = counting.clone();
        let (scanned, end) = scan_intact(&vfs, &path);
        let scanned: Vec<Vec<u8>> = scanned.into_iter().map(|(_, p)| p).collect();
        assert_eq!(scanned, payloads);
        assert_eq!(end.unwrap(), std::fs::metadata(&path).unwrap().len());
        // The open and five reads: a chunk each from 0, 64 Ki and
        // 128 Ki, the rest of the oversized record in one read past
        // them, and the 23 bytes behind it.
        assert_eq!(counting.ops(), 6);
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
        let mut log = random_access(&path);
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
        let mut log = random_access(&path);
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
        let mut w = create(&path);
        let l1 = w.append(b"first").unwrap();
        w.flush().unwrap();
        let mut log = random_access(&path);
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
        create(&path).flush().unwrap();
        let mut r = reader(&path);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn open_append_on_clean_log() {
        let dir = scratch("log-append");
        let path = dir.path().join("a.log");
        {
            let mut w = create(&path);
            w.append(b"one").unwrap();
            w.flush().unwrap();
        }
        let mut w = open_append(&path).unwrap();
        w.append(b"two").unwrap();
        w.flush().unwrap();
        let mut r = reader(&path);
        assert_eq!(r.next_record().unwrap().unwrap().1, b"one");
        assert_eq!(r.next_record().unwrap().unwrap().1, b"two");
        assert!(r.next_record().unwrap().is_none());
    }
}
