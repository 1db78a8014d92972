//! Level metadata and the manifest file.
//!
//! A [`Version`] lists the table files of every level. Level 0 files may
//! overlap and are ordered newest-first; levels 1 and deeper hold files
//! with disjoint key ranges sorted by smallest key. The manifest persists
//! the current version atomically (write to a temporary file, fsync,
//! rename), so a crash leaves either the old or the new version.

use std::path::Path;
use std::sync::Arc;

use flowkv_common::codec::{crc32, put_len_prefixed, put_u64, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::vfs::Vfs;

use crate::sstable::SstMeta;

/// Maximum number of levels, matching typical RocksDB configurations.
pub const MAX_LEVELS: usize = 7;

/// Name of the manifest file inside a database directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The set of live table files, organized by level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Version {
    /// `levels[0]` is newest-first and may overlap; deeper levels are
    /// sorted by smallest key with disjoint ranges.
    pub levels: Vec<Vec<SstMeta>>,
    /// The next file number to allocate.
    pub next_file_no: u64,
}

impl Version {
    /// Creates an empty version with [`MAX_LEVELS`] levels.
    pub fn new() -> Self {
        Version {
            levels: vec![Vec::new(); MAX_LEVELS],
            next_file_no: 1,
        }
    }

    /// Total bytes of table files in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|m| m.size).sum()
    }

    /// All file numbers across all levels.
    pub fn all_file_nos(&self) -> Vec<u64> {
        self.levels
            .iter()
            .flat_map(|l| l.iter().map(|m| m.file_no))
            .collect()
    }

    /// Total number of live table files.
    pub fn file_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Returns `true` when every level at `level` and deeper is empty.
    pub fn is_bottom(&self, level: usize) -> bool {
        self.levels[level + 1..].iter().all(|l| l.is_empty())
    }

    /// Files of `level` (1+) whose ranges intersect `[smallest, largest]`.
    pub fn overlapping_files(&self, level: usize, smallest: &[u8], largest: &[u8]) -> Vec<SstMeta> {
        self.levels[level]
            .iter()
            .filter(|m| m.smallest.as_slice() <= largest && smallest <= m.largest.as_slice())
            .cloned()
            .collect()
    }

    /// Inserts `meta` into sorted position within `level` (1+).
    pub fn insert_sorted(&mut self, level: usize, meta: SstMeta) {
        let pos = self.levels[level].partition_point(|m| m.smallest < meta.smallest);
        self.levels[level].insert(pos, meta);
    }

    /// Removes files with the given numbers from every level.
    pub fn remove_files(&mut self, file_nos: &[u64]) {
        for level in &mut self.levels {
            level.retain(|m| !file_nos.contains(&m.file_no));
        }
    }

    /// Serializes the version to bytes (with trailing CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.next_file_no);
        put_varint_u64(&mut buf, self.levels.len() as u64);
        for level in &self.levels {
            put_varint_u64(&mut buf, level.len() as u64);
            for m in level {
                put_u64(&mut buf, m.file_no);
                put_u64(&mut buf, m.size);
                put_len_prefixed(&mut buf, &m.smallest);
                put_len_prefixed(&mut buf, &m.largest);
                put_u64(&mut buf, m.entries);
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses a version from the bytes written by [`Version::encode`].
    pub fn decode(data: &[u8], path: &Path) -> Result<Self> {
        if data.len() < 4 {
            return Err(StoreError::corruption(path, 0, "manifest too short"));
        }
        let (payload, crc_bytes) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("fixed"));
        if crc32(payload) != stored {
            return Err(StoreError::corruption(path, 0, "manifest checksum"));
        }
        let mut dec = Decoder::new(payload);
        let next_file_no = dec.get_u64()?;
        // Counts are capped by the bytes left, which hold at least one
        // byte per level and per file.
        let n_levels = dec.get_varint_u64()? as usize;
        let mut levels = Vec::with_capacity(n_levels.min(dec.remaining()));
        for _ in 0..n_levels {
            let n_files = dec.get_varint_u64()? as usize;
            let mut files = Vec::with_capacity(n_files.min(dec.remaining()));
            for _ in 0..n_files {
                let file_no = dec.get_u64()?;
                let size = dec.get_u64()?;
                let smallest = dec.get_len_prefixed()?.to_vec();
                let largest = dec.get_len_prefixed()?.to_vec();
                let entries = dec.get_u64()?;
                files.push(SstMeta {
                    file_no,
                    size,
                    smallest,
                    largest,
                    entries,
                });
            }
            levels.push(files);
        }
        Ok(Version {
            levels,
            next_file_no,
        })
    }

    /// Atomically persists the version as `dir/MANIFEST` through `vfs`.
    pub fn save(&self, vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<()> {
        let tmp = dir.join("MANIFEST.tmp");
        let target = dir.join(MANIFEST_NAME);
        vfs.write(&tmp, &self.encode())
            .map_err(|e| StoreError::io_at("manifest write", &tmp, e))?;
        vfs.rename(&tmp, &target)
            .map_err(|e| StoreError::io_at("manifest rename", &target, e))?;
        Ok(())
    }

    /// Loads `dir/MANIFEST` through `vfs`, or returns a fresh version if
    /// none exists.
    pub fn load(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<Self> {
        let path = dir.join(MANIFEST_NAME);
        match vfs.read(&path) {
            Ok(data) => Version::decode(&data, &path),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Version::new()),
            Err(e) => Err(StoreError::io_at("manifest read", &path, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn meta(no: u64, smallest: &str, largest: &str) -> SstMeta {
        SstMeta {
            file_no: no,
            size: 100,
            smallest: smallest.as_bytes().to_vec(),
            largest: largest.as_bytes().to_vec(),
            entries: 10,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut v = Version::new();
        v.next_file_no = 42;
        v.levels[0].push(meta(3, "a", "f"));
        v.levels[1].push(meta(1, "a", "c"));
        v.levels[1].push(meta(2, "d", "g"));
        let data = v.encode();
        let back = Version::decode(&data, Path::new("m")).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn save_and_load() {
        let dir = ScratchDir::new("version").unwrap();
        let mut v = Version::new();
        v.levels[0].push(meta(1, "k", "z"));
        v.save(&StdVfs::shared(), dir.path()).unwrap();
        assert_eq!(Version::load(&StdVfs::shared(), dir.path()).unwrap(), v);
    }

    #[test]
    fn load_missing_is_fresh() {
        let dir = ScratchDir::new("version-fresh").unwrap();
        let v = Version::load(&StdVfs::shared(), dir.path()).unwrap();
        assert_eq!(v.file_count(), 0);
        assert_eq!(v.next_file_no, 1);
    }

    #[test]
    fn corrupt_manifest_detected() {
        let dir = ScratchDir::new("version-corrupt").unwrap();
        let v = Version::new();
        v.save(&StdVfs::shared(), dir.path()).unwrap();
        let path = dir.path().join(MANIFEST_NAME);
        let mut data = std::fs::read(&path).unwrap();
        data[0] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        assert!(Version::load(&StdVfs::shared(), dir.path())
            .unwrap_err()
            .is_corruption());
    }

    #[test]
    fn overlap_and_sorted_insert() {
        let mut v = Version::new();
        v.insert_sorted(1, meta(2, "m", "p"));
        v.insert_sorted(1, meta(1, "a", "c"));
        v.insert_sorted(1, meta(3, "q", "z"));
        let nos: Vec<u64> = v.levels[1].iter().map(|m| m.file_no).collect();
        assert_eq!(nos, vec![1, 2, 3]);
        let overlap = v.overlapping_files(1, b"b", b"n");
        assert_eq!(overlap.len(), 2);
        assert_eq!(overlap[0].file_no, 1);
        assert_eq!(overlap[1].file_no, 2);
    }

    #[test]
    fn bottom_detection() {
        let mut v = Version::new();
        v.levels[1].push(meta(1, "a", "b"));
        assert!(v.is_bottom(1));
        assert!(!v.is_bottom(0));
        v.levels[3].push(meta(2, "a", "b"));
        assert!(!v.is_bottom(1));
        assert!(v.is_bottom(3));
    }

    #[test]
    fn remove_files_across_levels() {
        let mut v = Version::new();
        v.levels[0].push(meta(1, "a", "b"));
        v.levels[1].push(meta(2, "a", "b"));
        v.remove_files(&[1, 2]);
        assert_eq!(v.file_count(), 0);
    }
}
