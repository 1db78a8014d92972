//! Immutable, block-based, bloom-filtered sorted string tables.
//!
//! On-disk layout (all integers little-endian, every region followed by a
//! CRC32 of its payload):
//!
//! ```text
//! sst   := data-block*  index  bloom  footer
//! block := record*  crc:u32           (payload ≈ block_target bytes)
//! record:= varint(shared) varint(unshared) key-suffix entry
//!
//! Keys are prefix-compressed within each block (as in RocksDB's block
//! format): `shared` bytes are reused from the previous record's key and
//! `unshared` new bytes follow. The first record of a block always has
//! `shared = 0`.
//! index := varint(n) { len-prefixed(last_key) offset:u64 len:u64 }* crc
//! bloom := BloomFilter encoding  crc
//! footer:= index_off:u64 index_len:u64 bloom_off:u64 bloom_len:u64 magic:u64
//! ```
//!
//! Point lookups probe the bloom filter, binary-search the index by each
//! block's last key, and scan one block — the same path, and therefore the
//! same CPU shape, as RocksDB's.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::codec::{crc32, put_len_prefixed, put_u64, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::vfs::{Vfs, VfsFile};

use crate::bloom::BloomFilter;
use crate::cache::BlockCache;
use crate::entry::Entry;

const FOOTER_LEN: u64 = 40;
const MAGIC: u64 = 0x464c_4f57_4b56_5353; // "FLOWKVSS"

/// Metadata describing one table file inside a version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SstMeta {
    /// Monotonic file number, unique within the database.
    pub file_no: u64,
    /// Size of the file in bytes.
    pub size: u64,
    /// Smallest key stored in the file.
    pub smallest: Vec<u8>,
    /// Largest key stored in the file.
    pub largest: Vec<u8>,
    /// Number of entries in the file.
    pub entries: u64,
}

impl SstMeta {
    /// Returns `true` when the file's key range intersects `[start, end)`.
    pub fn overlaps_range(&self, start: &[u8], end: &[u8]) -> bool {
        self.smallest.as_slice() < end && start <= self.largest.as_slice()
    }

    /// Returns `true` when `key` falls inside the file's key range.
    pub fn covers_key(&self, key: &[u8]) -> bool {
        self.smallest.as_slice() <= key && key <= self.largest.as_slice()
    }

    /// File name for this table within a database directory.
    pub fn file_name(file_no: u64) -> String {
        format!("{file_no:06}.sst")
    }
}

/// Streaming writer producing one SSTable from ascending keys.
pub struct SstBuilder {
    writer: BufWriter<Box<dyn VfsFile>>,
    path: PathBuf,
    file_no: u64,
    block_target: usize,
    block_buf: Vec<u8>,
    index: Vec<(Vec<u8>, u64, u64)>,
    key_hash_samples: Vec<Vec<u8>>,
    offset: u64,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    last_key_in_block: Vec<u8>,
    /// Previous key within the current block, for prefix compression.
    block_prev_key: Vec<u8>,
    entries: u64,
}

impl SstBuilder {
    /// Creates a builder writing to `path` through `vfs`.
    pub fn create(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        file_no: u64,
        block_target: usize,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .create(&path)
            .map_err(|e| StoreError::io_at("sst create", &path, e))?;
        Ok(SstBuilder {
            writer: BufWriter::new(file),
            path,
            file_no,
            block_target: block_target.max(256),
            block_buf: Vec::new(),
            index: Vec::new(),
            key_hash_samples: Vec::new(),
            offset: 0,
            smallest: None,
            largest: Vec::new(),
            last_key_in_block: Vec::new(),
            block_prev_key: Vec::new(),
            entries: 0,
        })
    }

    /// Adds the next entry; keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &[u8], entry: &Entry) -> Result<()> {
        debug_assert!(
            self.smallest.is_none() || self.largest.as_slice() < key,
            "keys must be strictly ascending"
        );
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest = key.to_vec();
        self.last_key_in_block = key.to_vec();
        let shared = common_prefix_len(&self.block_prev_key, key);
        put_varint_u64(&mut self.block_buf, shared as u64);
        put_varint_u64(&mut self.block_buf, (key.len() - shared) as u64);
        self.block_buf.extend_from_slice(&key[shared..]);
        self.block_prev_key = key.to_vec();
        entry.encode_to(&mut self.block_buf);
        self.key_hash_samples.push(key.to_vec());
        self.entries += 1;
        if self.block_buf.len() >= self.block_target {
            self.finish_block()?;
        }
        Ok(())
    }

    /// Completes the table and returns its metadata.
    pub fn finish(mut self) -> Result<SstMeta> {
        if !self.block_buf.is_empty() {
            self.finish_block()?;
        }
        // Index region.
        let mut index_buf = Vec::new();
        put_varint_u64(&mut index_buf, self.index.len() as u64);
        for (last_key, off, len) in &self.index {
            put_len_prefixed(&mut index_buf, last_key);
            put_u64(&mut index_buf, *off);
            put_u64(&mut index_buf, *len);
        }
        let index_off = self.offset;
        let index_len = index_buf.len() as u64;
        self.write_region(&index_buf)?;

        // Bloom region.
        let bloom = BloomFilter::build(self.key_hash_samples.iter().map(|k| k.as_slice()), 10);
        let mut bloom_buf = Vec::new();
        bloom.encode_to(&mut bloom_buf);
        let bloom_off = self.offset;
        let bloom_len = bloom_buf.len() as u64;
        self.write_region(&bloom_buf)?;

        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        put_u64(&mut footer, index_off);
        put_u64(&mut footer, index_len);
        put_u64(&mut footer, bloom_off);
        put_u64(&mut footer, bloom_len);
        put_u64(&mut footer, MAGIC);
        self.writer
            .write_all(&footer)
            .map_err(|e| StoreError::io_at("sst footer", &self.path, e))?;
        self.offset += FOOTER_LEN;
        self.writer
            .flush()
            .map_err(|e| StoreError::io_at("sst flush", &self.path, e))?;
        self.writer
            .get_mut()
            .sync_data()
            .map_err(|e| StoreError::io_at("sst sync", &self.path, e))?;

        Ok(SstMeta {
            file_no: self.file_no,
            size: self.offset,
            smallest: self.smallest.unwrap_or_default(),
            largest: self.largest,
            entries: self.entries,
        })
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Estimated current file size, used to split compaction outputs.
    pub fn estimated_size(&self) -> u64 {
        self.offset + self.block_buf.len() as u64
    }

    fn finish_block(&mut self) -> Result<()> {
        self.block_prev_key.clear();
        let off = self.offset;
        let len = self.block_buf.len() as u64;
        let buf = std::mem::take(&mut self.block_buf);
        self.write_region(&buf)?;
        self.index
            .push((std::mem::take(&mut self.last_key_in_block), off, len));
        Ok(())
    }

    fn write_region(&mut self, payload: &[u8]) -> Result<()> {
        self.writer
            .write_all(payload)
            .and_then(|_| self.writer.write_all(&crc32(payload).to_le_bytes()))
            .map_err(|e| StoreError::io_at("sst write", &self.path, e))?;
        self.offset += payload.len() as u64 + 4;
        Ok(())
    }
}

/// Read handle over one immutable table file.
pub struct SstReader {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    meta: SstMeta,
    index: Vec<(Vec<u8>, u64, u64)>,
    bloom: BloomFilter,
    cache: Arc<BlockCache>,
    metrics: Arc<StoreMetrics>,
}

impl SstReader {
    /// Opens the table file described by `meta` inside `dir` through `vfs`.
    pub fn open(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        meta: SstMeta,
        cache: Arc<BlockCache>,
        metrics: Arc<StoreMetrics>,
    ) -> Result<Self> {
        let path = dir.join(SstMeta::file_name(meta.file_no));
        let file = vfs
            .open_read(&path)
            .map_err(|e| StoreError::io_at("sst open", &path, e))?;
        let len = file
            .len()
            .map_err(|e| StoreError::io_at("sst stat", &path, e))?;
        if len < FOOTER_LEN {
            return Err(StoreError::corruption(&path, 0, "file shorter than footer"));
        }
        let mut footer = vec![0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, len - FOOTER_LEN)
            .map_err(|e| StoreError::io_at("sst footer read", &path, e))?;
        let mut dec = Decoder::new(&footer);
        let index_off = dec.get_u64()?;
        let index_len = dec.get_u64()?;
        let bloom_off = dec.get_u64()?;
        let bloom_len = dec.get_u64()?;
        let magic = dec.get_u64()?;
        if magic != MAGIC {
            return Err(StoreError::corruption(&path, len - 8, "bad magic"));
        }
        // The footer has no checksum: every region it or the index names
        // must lie inside the file before anything is sized from it.
        let inside = |off: u64, region: u64, what: &str| {
            let end = off.checked_add(region).and_then(|end| end.checked_add(4));
            if end.is_some_and(|end| end <= len) {
                return Ok(());
            }
            let detail = format!("{what} past the file's end");
            Err(StoreError::corruption(&path, off, detail))
        };
        inside(index_off, index_len, "index")?;
        inside(bloom_off, bloom_len, "bloom filter")?;
        let index_raw = read_region(file.as_ref(), &path, index_off, index_len)?;
        let mut dec = Decoder::new(&index_raw);
        let n = dec.get_varint_u64()? as usize;
        let mut index = Vec::with_capacity(n.min(dec.remaining()));
        for _ in 0..n {
            let last_key = dec.get_len_prefixed()?.to_vec();
            let off = dec.get_u64()?;
            let blen = dec.get_u64()?;
            inside(off, blen, "block")?;
            index.push((last_key, off, blen));
        }
        let bloom_raw = read_region(file.as_ref(), &path, bloom_off, bloom_len)?;
        let bloom = BloomFilter::decode_from(&mut Decoder::new(&bloom_raw))?;
        Ok(SstReader {
            file,
            path,
            meta,
            index,
            bloom,
            cache,
            metrics,
        })
    }

    /// The file's metadata.
    pub fn meta(&self) -> &SstMeta {
        &self.meta
    }

    /// Looks up `key`, returning its entry in this file if present.
    pub fn get(&self, key: &[u8]) -> Result<Option<Entry>> {
        if !self.meta.covers_key(key) || !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let Some(block_idx) = self.find_block(key) else {
            return Ok(None);
        };
        let block = self.load_block(block_idx)?;
        let mut dec = Decoder::new(&block);
        let mut current: Vec<u8> = Vec::new();
        while !dec.is_empty() {
            read_block_key(&mut dec, &mut current, &self.path)?;
            let entry = Entry::decode_from(&mut dec)?;
            if current.as_slice() == key {
                return Ok(Some(entry));
            }
            if current.as_slice() > key {
                break;
            }
        }
        Ok(None)
    }

    /// Iterates `(key, entry)` pairs starting at the first key ≥ `start`.
    pub fn iter_from(&self, start: &[u8]) -> SstIter<'_> {
        let block_idx = self.find_block(start).unwrap_or(self.index.len());
        SstIter {
            reader: self,
            block_idx,
            block: None,
            pos: 0,
            current_key: Vec::new(),
            skip_until: Some(start.to_vec()),
        }
    }

    /// Iterates every `(key, entry)` pair in key order.
    pub fn iter(&self) -> SstIter<'_> {
        SstIter {
            reader: self,
            block_idx: 0,
            block: None,
            pos: 0,
            current_key: Vec::new(),
            skip_until: None,
        }
    }

    /// Locates the uncached block a `get(key)` would have to read:
    /// `(offset, length)` of its CRC'd region, or `None` when the key
    /// cannot be in this file or the block is already resident. The
    /// cache probe leaves recency and hit/miss counters untouched, so
    /// planning a warm-up never perturbs the foreground statistics.
    pub(crate) fn warm_plan(&self, key: &[u8]) -> Option<(u64, u64)> {
        if !self.meta.covers_key(key) || !self.bloom.may_contain(key) {
            return None;
        }
        let (_, off, len) = self.index[self.find_block(key)?];
        (!self.cache.contains((self.meta.file_no, off))).then_some((off, len))
    }

    /// Index of the first block whose last key is ≥ `key`.
    fn find_block(&self, key: &[u8]) -> Option<usize> {
        let idx = self
            .index
            .partition_point(|(last_key, _, _)| last_key.as_slice() < key);
        (idx < self.index.len()).then_some(idx)
    }

    fn load_block(&self, block_idx: usize) -> Result<Arc<Vec<u8>>> {
        let (_, off, len) = self.index[block_idx];
        let cache_key = (self.meta.file_no, off);
        if let Some(block) = self.cache.get(cache_key) {
            return Ok(block);
        }
        let raw = read_region(self.file.as_ref(), &self.path, off, len)?;
        self.metrics.add_bytes_read(len + 4);
        let block = Arc::new(raw);
        self.cache.insert(cache_key, Arc::clone(&block));
        Ok(block)
    }
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Decodes one prefix-compressed key into `current` (in place).
fn read_block_key(dec: &mut Decoder<'_>, current: &mut Vec<u8>, path: &Path) -> Result<()> {
    let shared = dec.get_varint_u64()? as usize;
    let unshared = dec.get_varint_u64()? as usize;
    if shared > current.len() {
        return Err(StoreError::corruption(
            path,
            0,
            "shared key prefix exceeds previous key",
        ));
    }
    current.truncate(shared);
    current.extend_from_slice(dec.take(unshared, "key suffix")?);
    Ok(())
}

/// Reads and CRC-checks a block region by reopening `path` through
/// `vfs` — the background warm-up path, which cannot share the
/// foreground reader's single-owner file handle across threads.
pub(crate) fn read_region_in(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    off: u64,
    len: u64,
) -> Result<Vec<u8>> {
    let file = vfs
        .open_read(path)
        .map_err(|e| StoreError::io_at("sst warm open", path, e))?;
    read_region(file.as_ref(), path, off, len)
}

/// Reads a CRC-protected region and verifies its checksum. The region
/// must lie inside the file: [`SstReader::open`] checks every one.
fn read_region(file: &dyn VfsFile, path: &Path, off: u64, len: u64) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; len as usize + 4];
    file.read_exact_at(&mut buf, off)
        .map_err(|e| StoreError::io_at("sst region read", path, e))?;
    let crc_stored = u32::from_le_bytes(buf[len as usize..].try_into().expect("fixed"));
    buf.truncate(len as usize);
    if crc32(&buf) != crc_stored {
        return Err(StoreError::corruption(path, off, "block checksum mismatch"));
    }
    Ok(buf)
}

/// Sequential iterator over one table's entries.
pub struct SstIter<'a> {
    reader: &'a SstReader,
    block_idx: usize,
    block: Option<Arc<Vec<u8>>>,
    pos: usize,
    /// Reconstructed key of the previous record in the current block.
    current_key: Vec<u8>,
    skip_until: Option<Vec<u8>>,
}

impl SstIter<'_> {
    /// Returns the next `(key, entry)` pair, or `Ok(None)` at the end.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Entry)>> {
        loop {
            if self.block.is_none() {
                if self.block_idx >= self.reader.index.len() {
                    return Ok(None);
                }
                self.block = Some(self.reader.load_block(self.block_idx)?);
                self.pos = 0;
                self.current_key.clear();
            }
            let block = self.block.as_ref().expect("just set");
            if self.pos >= block.len() {
                self.block = None;
                self.block_idx += 1;
                continue;
            }
            let mut dec = Decoder::new(&block[self.pos..]);
            read_block_key(&mut dec, &mut self.current_key, &self.reader.path)?;
            let key = self.current_key.clone();
            let entry = Entry::decode_from(&mut dec)?;
            self.pos += dec.position();
            if let Some(bound) = &self.skip_until {
                if key.as_slice() < bound.as_slice() {
                    continue;
                }
                self.skip_until = None;
            }
            return Ok(Some((key, entry)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn build_table(dir: &Path, file_no: u64, n: usize, block: usize) -> SstMeta {
        let path = dir.join(SstMeta::file_name(file_no));
        let mut b = SstBuilder::create(&StdVfs::shared(), &path, file_no, block).unwrap();
        for i in 0..n {
            let key = format!("key-{i:06}");
            let entry = Entry::Put(format!("value-{i}").into_bytes());
            b.add(key.as_bytes(), &entry).unwrap();
        }
        b.finish().unwrap()
    }

    fn try_open(dir: &Path, meta: SstMeta) -> Result<SstReader> {
        let cache = BlockCache::new(1 << 20);
        SstReader::open(
            &StdVfs::shared(),
            dir,
            meta,
            cache,
            StoreMetrics::new_shared(),
        )
    }

    fn open(dir: &Path, meta: SstMeta) -> SstReader {
        try_open(dir, meta).unwrap()
    }

    #[test]
    fn a_flipped_footer_bit_fails_the_open_as_corruption() {
        // The footer's four region fields are not checksummed: each of
        // their 256 bits flipped in turn must fail the open, without
        // sizing an allocation or a read from the damaged field.
        let dir = ScratchDir::new("sst-footer-flip").unwrap();
        let meta = build_table(dir.path(), 1, 200, 512);
        let path = dir.path().join(SstMeta::file_name(1));
        let good = std::fs::read(&path).unwrap();
        let footer = good.len() - FOOTER_LEN as usize;
        let mut wrong = Vec::new();
        for bit in 0..4 * 64 {
            let mut bad = good.clone();
            bad[footer + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bad).unwrap();
            match try_open(dir.path(), meta.clone()) {
                Err(err) if err.is_corruption() => {}
                other => wrong.push((bit, other.err().map(|err| err.to_string()))),
            }
        }
        assert!(
            wrong.is_empty(),
            "flipped bits not read as corruption: {wrong:?}"
        );
    }

    #[test]
    fn build_and_point_lookup() {
        let dir = ScratchDir::new("sst-lookup").unwrap();
        let meta = build_table(dir.path(), 1, 1000, 1024);
        assert_eq!(meta.entries, 1000);
        assert_eq!(meta.smallest, b"key-000000".to_vec());
        assert_eq!(meta.largest, b"key-000999".to_vec());
        let r = open(dir.path(), meta);
        for i in (0..1000).step_by(37) {
            let key = format!("key-{i:06}");
            assert_eq!(
                r.get(key.as_bytes()).unwrap(),
                Some(Entry::Put(format!("value-{i}").into_bytes()))
            );
        }
        assert_eq!(r.get(b"key-001000").unwrap(), None);
        assert_eq!(r.get(b"absent").unwrap(), None);
    }

    #[test]
    fn full_iteration_in_order() {
        let dir = ScratchDir::new("sst-iter").unwrap();
        let meta = build_table(dir.path(), 1, 500, 512);
        let r = open(dir.path(), meta);
        let mut it = r.iter();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while let Some((k, _)) = it.next_entry().unwrap() {
            if let Some(p) = &prev {
                assert!(p < &k);
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn iter_from_seeks_correctly() {
        let dir = ScratchDir::new("sst-seek").unwrap();
        let meta = build_table(dir.path(), 1, 100, 256);
        let r = open(dir.path(), meta);
        let mut it = r.iter_from(b"key-000042");
        let (k, _) = it.next_entry().unwrap().unwrap();
        assert_eq!(k, b"key-000042".to_vec());
        // Seeking between keys starts at the next key.
        let mut it = r.iter_from(b"key-000042x");
        let (k, _) = it.next_entry().unwrap().unwrap();
        assert_eq!(k, b"key-000043".to_vec());
        // Seeking past the end yields nothing.
        let mut it = r.iter_from(b"zzz");
        assert!(it.next_entry().unwrap().is_none());
    }

    #[test]
    fn overlap_predicates() {
        let meta = SstMeta {
            file_no: 1,
            size: 0,
            smallest: b"b".to_vec(),
            largest: b"m".to_vec(),
            entries: 0,
        };
        assert!(meta.overlaps_range(b"a", b"c"));
        assert!(meta.overlaps_range(b"m", b"z"));
        assert!(!meta.overlaps_range(b"n", b"z"));
        assert!(!meta.overlaps_range(b"a", b"b"));
        assert!(meta.covers_key(b"b"));
        assert!(meta.covers_key(b"m"));
        assert!(!meta.covers_key(b"a"));
    }

    #[test]
    fn corrupted_block_detected() {
        let dir = ScratchDir::new("sst-corrupt").unwrap();
        let meta = build_table(dir.path(), 1, 100, 256);
        let path = dir.path().join(SstMeta::file_name(1));
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let r = open(dir.path(), meta);
        let err = r.get(b"key-000000").unwrap_err();
        assert!(err.is_corruption());
    }

    #[test]
    fn cache_serves_repeated_reads() {
        let dir = ScratchDir::new("sst-cache").unwrap();
        let meta = build_table(dir.path(), 1, 100, 4096);
        let metrics = StoreMetrics::new_shared();
        let r = SstReader::open(
            &StdVfs::shared(),
            dir.path(),
            meta,
            BlockCache::new(1 << 20),
            Arc::clone(&metrics),
        )
        .unwrap();
        r.get(b"key-000001").unwrap();
        let after_first = metrics.snapshot().bytes_read;
        r.get(b"key-000002").unwrap();
        assert_eq!(metrics.snapshot().bytes_read, after_first);
    }

    #[test]
    fn prefix_compression_shrinks_shared_keys() {
        // Long keys sharing a 60-byte prefix: with per-block prefix
        // compression the file must be far smaller than the raw key bytes.
        let dir = ScratchDir::new("sst-prefix").unwrap();
        let path = dir.path().join(SstMeta::file_name(9));
        let mut b = SstBuilder::create(&StdVfs::shared(), &path, 9, 4096).unwrap();
        let prefix = "shared-prefix-".repeat(5);
        let n = 1_000;
        for i in 0..n {
            let key = format!("{prefix}{i:06}");
            b.add(key.as_bytes(), &Entry::Put(vec![1])).unwrap();
        }
        let meta = b.finish().unwrap();
        let raw_key_bytes = (prefix.len() + 6) * n;
        assert!(
            (meta.size as usize) < raw_key_bytes / 2,
            "file {} bytes vs {} raw key bytes",
            meta.size,
            raw_key_bytes
        );
        // And everything still reads back.
        let r = open(dir.path(), meta);
        for i in (0..n).step_by(97) {
            let key = format!("{prefix}{i:06}");
            assert_eq!(
                r.get(key.as_bytes()).unwrap(),
                Some(Entry::Put(vec![1])),
                "key {i}"
            );
        }
        let mut it = r.iter_from(format!("{prefix}000500").as_bytes());
        let (k, _) = it.next_entry().unwrap().unwrap();
        assert_eq!(k, format!("{prefix}000500").into_bytes());
    }

    #[test]
    fn merge_entries_survive_roundtrip() {
        let dir = ScratchDir::new("sst-merge").unwrap();
        let path = dir.path().join(SstMeta::file_name(7));
        let mut b = SstBuilder::create(&StdVfs::shared(), &path, 7, 512).unwrap();
        let entry = Entry::Merge(vec![b"a".to_vec(), b"b".to_vec()]);
        b.add(b"k", &entry).unwrap();
        let meta = b.finish().unwrap();
        let r = open(dir.path(), meta);
        assert_eq!(r.get(b"k").unwrap(), Some(entry));
    }
}
