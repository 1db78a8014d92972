//! The hybrid log: an append-only record log whose tail lives in memory.
//!
//! Addresses are logical byte offsets that never change: `[0, disk_len)`
//! is immutable and on disk, `[disk_len, tail)` is the mutable in-memory
//! region. Records in the mutable region may be updated in place (the
//! FASTER fast path); once the region fills, it is flushed and becomes
//! immutable.
//!
//! Record layout: `key_len:u32 val_len:u32 flags:u8 key value`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::vfs::{Vfs, VfsFile};

/// Size of the fixed record header.
pub const HEADER_LEN: usize = 9;

/// Flag bit marking a tombstone record.
pub const FLAG_TOMBSTONE: u8 = 0x01;

/// A decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The record's key.
    pub key: Vec<u8>,
    /// The record's value (empty for tombstones).
    pub value: Vec<u8>,
    /// Whether the record deletes its key.
    pub tombstone: bool,
}

impl Record {
    /// Total encoded size of the record.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.key.len() + self.value.len()
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        buf.push(if self.tombstone { FLAG_TOMBSTONE } else { 0 });
        buf.extend_from_slice(&self.key);
        buf.extend_from_slice(&self.value);
        buf
    }
}

/// The hybrid log over one file plus an in-memory tail.
pub struct HybridLog {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Bytes of the log persisted on disk.
    disk_len: u64,
    /// The mutable tail region covering `[disk_len, disk_len + mem.len())`.
    mem: Vec<u8>,
    mem_budget: usize,
    metrics: Arc<StoreMetrics>,
    appended_bytes: u64,
}

impl HybridLog {
    /// Creates a fresh log at `path` through `vfs`, truncating any
    /// existing file.
    pub fn create(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        mem_budget: usize,
        metrics: Arc<StoreMetrics>,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .create(&path)
            .map_err(|e| StoreError::io_at("hlog create", &path, e))?;
        Ok(HybridLog {
            file,
            path,
            disk_len: 0,
            mem: Vec::new(),
            mem_budget: mem_budget.max(64),
            metrics,
            appended_bytes: 0,
        })
    }

    /// Opens an existing log file; the whole file is the immutable region.
    ///
    /// A record torn by a crash mid-flush is truncated away: the scan
    /// stops at the first record whose declared length runs past the end
    /// of the file, and the file is cut there.
    pub fn open(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        mem_budget: usize,
        metrics: Arc<StoreMetrics>,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .open_rw(&path)
            .map_err(|e| StoreError::io_at("hlog open", &path, e))?;
        let file_len = file
            .len()
            .map_err(|e| StoreError::io_at("hlog stat", &path, e))?;
        let disk_len = recover_valid_length(file.as_ref(), file_len)?;
        if disk_len < file_len {
            file.set_len(disk_len)
                .map_err(|e| StoreError::io_at("hlog truncate", &path, e))?;
        }
        Ok(HybridLog {
            file,
            path,
            disk_len,
            mem: Vec::new(),
            mem_budget: mem_budget.max(64),
            metrics,
            appended_bytes: disk_len,
        })
    }

    /// Appends a record, returning its logical address.
    pub fn append(&mut self, record: &Record) -> Result<u64> {
        let addr = self.tail();
        self.mem.extend_from_slice(&record.encode());
        self.appended_bytes += record.encoded_len() as u64;
        if self.mem.len() >= self.mem_budget {
            self.flush()?;
        }
        Ok(addr)
    }

    /// Reads the record at `addr` from memory or disk.
    pub fn read(&self, addr: u64) -> Result<Record> {
        if addr >= self.disk_len {
            let off = (addr - self.disk_len) as usize;
            if off + HEADER_LEN > self.mem.len() {
                return Err(StoreError::corruption(
                    &self.path,
                    addr,
                    "address past tail",
                ));
            }
            let (klen, vlen, flags) = parse_header(&self.mem[off..off + HEADER_LEN]);
            let start = off + HEADER_LEN;
            let end = start + klen + vlen;
            if end > self.mem.len() {
                return Err(StoreError::corruption(&self.path, addr, "truncated record"));
            }
            Ok(Record {
                key: self.mem[start..start + klen].to_vec(),
                value: self.mem[start + klen..end].to_vec(),
                tombstone: flags & FLAG_TOMBSTONE != 0,
            })
        } else {
            let mut header = [0u8; HEADER_LEN];
            self.file
                .read_exact_at(&mut header, addr)
                .map_err(|e| StoreError::io_at("hlog read header", &self.path, e))?;
            let (klen, vlen, flags) = parse_header(&header);
            let mut body = vec![0u8; klen + vlen];
            self.file
                .read_exact_at(&mut body, addr + HEADER_LEN as u64)
                .map_err(|e| StoreError::io_at("hlog read body", &self.path, e))?;
            self.metrics
                .add_bytes_read((HEADER_LEN + klen + vlen) as u64);
            let value = body.split_off(klen);
            Ok(Record {
                key: body,
                value,
                tombstone: flags & FLAG_TOMBSTONE != 0,
            })
        }
    }

    /// Attempts an in-place value update of the record at `addr`.
    ///
    /// Succeeds only when the record is still in the mutable in-memory
    /// region and the new value has the same length — the FASTER in-place
    /// update fast path. Returns `true` on success.
    pub fn try_update_in_place(&mut self, addr: u64, new_value: &[u8]) -> Result<bool> {
        if addr < self.disk_len {
            return Ok(false);
        }
        let off = (addr - self.disk_len) as usize;
        let (klen, vlen, flags) = parse_header(&self.mem[off..off + HEADER_LEN]);
        if vlen != new_value.len() || flags & FLAG_TOMBSTONE != 0 {
            return Ok(false);
        }
        let start = off + HEADER_LEN + klen;
        self.mem[start..start + vlen].copy_from_slice(new_value);
        Ok(true)
    }

    /// Flushes the mutable region to disk, making it immutable.
    pub fn flush(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        self.file
            .write_all_at(&self.mem, self.disk_len)
            .map_err(|e| StoreError::io_at("hlog flush", &self.path, e))?;
        self.metrics.add_bytes_written(self.mem.len() as u64);
        self.disk_len += self.mem.len() as u64;
        self.mem.clear();
        Ok(())
    }

    /// Address one past the last record.
    pub fn tail(&self) -> u64 {
        self.disk_len + self.mem.len() as u64
    }

    /// Bytes held in the mutable in-memory region.
    pub fn memory_bytes(&self) -> usize {
        self.mem.len()
    }

    /// Cumulative bytes ever appended to the log (monotonic), used to
    /// measure write amplification.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Sequentially scans every record, calling `f(addr, record)`.
    pub fn scan(&self, mut f: impl FnMut(u64, Record)) -> Result<()> {
        let mut addr = 0u64;
        let tail = self.tail();
        while addr < tail {
            let record = self.read(addr)?;
            let len = record.encoded_len() as u64;
            f(addr, record);
            addr += len;
        }
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fsyncs the log file.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io_at("hlog sync", &self.path, e))
    }
}

/// Walks records from the start of `file`, returning the length of the
/// longest prefix of fully intact records.
fn recover_valid_length(file: &dyn VfsFile, file_len: u64) -> Result<u64> {
    let mut addr = 0u64;
    let mut header = [0u8; HEADER_LEN];
    loop {
        if addr + HEADER_LEN as u64 > file_len {
            return Ok(addr);
        }
        file.read_exact_at(&mut header, addr)
            .map_err(|e| StoreError::io("hlog recover", e))?;
        let (klen, vlen, _) = parse_header(&header);
        let end = addr + (HEADER_LEN + klen + vlen) as u64;
        if end > file_len {
            return Ok(addr);
        }
        addr = end;
    }
}

fn parse_header(h: &[u8]) -> (usize, usize, u8) {
    let klen = u32::from_le_bytes(h[..4].try_into().expect("fixed")) as usize;
    let vlen = u32::from_le_bytes(h[4..8].try_into().expect("fixed")) as usize;
    (klen, vlen, h[8])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn rec(k: &str, v: &str) -> Record {
        Record {
            key: k.as_bytes().to_vec(),
            value: v.as_bytes().to_vec(),
            tombstone: false,
        }
    }

    fn new_log(dir: &Path, budget: usize) -> HybridLog {
        HybridLog::create(
            &StdVfs::shared(),
            dir.join("h.log"),
            budget,
            StoreMetrics::new_shared(),
        )
        .unwrap()
    }

    #[test]
    fn append_read_in_memory() {
        let dir = ScratchDir::new("hlog-mem").unwrap();
        let mut log = new_log(dir.path(), 1 << 20);
        let a = log.append(&rec("k1", "v1")).unwrap();
        let b = log.append(&rec("k2", "v2")).unwrap();
        assert_eq!(log.read(a).unwrap(), rec("k1", "v1"));
        assert_eq!(log.read(b).unwrap(), rec("k2", "v2"));
        assert!(log.memory_bytes() > 0);
    }

    #[test]
    fn read_spans_flush_boundary() {
        let dir = ScratchDir::new("hlog-flush").unwrap();
        let mut log = new_log(dir.path(), 1 << 20);
        let a = log.append(&rec("k1", "v1")).unwrap();
        log.flush().unwrap();
        let b = log.append(&rec("k2", "v2")).unwrap();
        assert_eq!(log.read(a).unwrap(), rec("k1", "v1"));
        assert_eq!(log.read(b).unwrap(), rec("k2", "v2"));
        assert_eq!(log.memory_bytes(), rec("k2", "v2").encoded_len());
    }

    #[test]
    fn auto_flush_on_budget() {
        let dir = ScratchDir::new("hlog-auto").unwrap();
        let mut log = new_log(dir.path(), 64);
        for i in 0..20 {
            log.append(&rec(&format!("key{i}"), "some-value")).unwrap();
        }
        assert!(log.memory_bytes() < 64 + 64);
        // Everything must still be readable.
        let mut n = 0;
        log.scan(|_, _| n += 1).unwrap();
        assert_eq!(n, 20);
    }

    #[test]
    fn in_place_update_only_in_mutable_same_size() {
        let dir = ScratchDir::new("hlog-inplace").unwrap();
        let mut log = new_log(dir.path(), 1 << 20);
        let a = log.append(&rec("k", "aaaa")).unwrap();
        assert!(log.try_update_in_place(a, b"bbbb").unwrap());
        assert_eq!(log.read(a).unwrap().value, b"bbbb");
        // Different size fails.
        assert!(!log.try_update_in_place(a, b"ccc").unwrap());
        // After flush the record is immutable.
        log.flush().unwrap();
        assert!(!log.try_update_in_place(a, b"dddd").unwrap());
    }

    #[test]
    fn scan_visits_in_order() {
        let dir = ScratchDir::new("hlog-scan").unwrap();
        let mut log = new_log(dir.path(), 128);
        let mut addrs = Vec::new();
        for i in 0..10 {
            addrs.push(log.append(&rec(&format!("k{i}"), "v")).unwrap());
        }
        let mut seen = Vec::new();
        log.scan(|addr, r| seen.push((addr, r.key))).unwrap();
        assert_eq!(seen.len(), 10);
        for (i, (addr, key)) in seen.iter().enumerate() {
            assert_eq!(*addr, addrs[i]);
            assert_eq!(key, format!("k{i}").as_bytes());
        }
    }

    #[test]
    fn reopen_treats_file_as_immutable() {
        let dir = ScratchDir::new("hlog-reopen").unwrap();
        let path = dir.path().join("h.log");
        {
            let mut log = HybridLog::create(
                &StdVfs::shared(),
                &path,
                1 << 20,
                StoreMetrics::new_shared(),
            )
            .unwrap();
            log.append(&rec("k", "v")).unwrap();
            log.flush().unwrap();
            log.sync().unwrap();
        }
        let log = HybridLog::open(
            &StdVfs::shared(),
            &path,
            1 << 20,
            StoreMetrics::new_shared(),
        )
        .unwrap();
        assert_eq!(log.read(0).unwrap(), rec("k", "v"));
        assert_eq!(log.memory_bytes(), 0);
    }

    #[test]
    fn tombstone_flag_roundtrips() {
        let dir = ScratchDir::new("hlog-tomb").unwrap();
        let mut log = new_log(dir.path(), 1 << 20);
        let t = Record {
            key: b"k".to_vec(),
            value: Vec::new(),
            tombstone: true,
        };
        let a = log.append(&t).unwrap();
        assert!(log.read(a).unwrap().tombstone);
    }
}
