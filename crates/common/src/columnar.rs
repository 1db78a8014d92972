//! Columnar cold-block codec for the tiered state layout.
//!
//! Sealed cold windows are demoted out of the hot store into immutable
//! *cold blocks*: one self-describing byte blob per demotion wave and
//! window, laid out column-wise so the schema the store already knows
//! (pattern + window + key) pays off as compression:
//!
//! - **Keys** are dictionary-encoded: NEXMark person/auction identifiers
//!   repeat heavily within a window, so each row stores a varint index
//!   into a per-block key dictionary instead of the full key bytes.
//! - **Timestamps** are delta-encoded against the window start and the
//!   previous row (zigzag varints): tuples arrive in roughly ascending
//!   event-time order, so deltas are tiny.
//! - **Values** are optionally dictionary-encoded too (`compress`);
//!   uncompressed blocks inline them length-prefixed, which keeps the
//!   codec a strict superset of a plain row log.
//!
//! A block carries its own window, kind, row count, and a trailing CRC32
//! over everything after the magic.
//!
//! There is one encoder and one decoder, both streaming. A
//! [`BlockWriter`] is fed borrowed rows and can lay them out stably
//! sorted by key without sorting rows: it sorts the *distinct keys* and
//! places each row by its key's rank — byte for byte the block that
//! sorting the rows first would give. A [`BlockReader`] checks the CRC
//! before anything else, then every structural bound, and lends the rows
//! as slices of the block. [`encode_block`] and [`decode_block`] are the
//! two over owned [`ColdRow`]s.

use crate::codec::{self, Decoder};
use crate::dict::{group_stable, ByteDict};
use crate::error::{Result, StoreError};
use crate::types::{Timestamp, WindowId};

/// Magic prefix of every cold block.
pub const BLOCK_MAGIC: [u8; 4] = *b"FKCB";

/// Current block-format version.
pub const BLOCK_VERSION: u8 = 1;

/// Flag bit: value column is dictionary-encoded.
const FLAG_VALUE_DICT: u8 = 0b0000_0001;

/// What one block's rows are (mirrors the two shapes of
/// [`StateEntry`](crate::backend::StateEntry)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// Appended value-list rows of AAR/AUR state.
    Values,
    /// Intermediate aggregates of RMW state (within a block, a later row
    /// for the same key supersedes an earlier one).
    Aggregates,
}

impl BlockKind {
    fn as_u8(self) -> u8 {
        match self {
            BlockKind::Values => 0,
            BlockKind::Aggregates => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(BlockKind::Values),
            1 => Some(BlockKind::Aggregates),
            _ => None,
        }
    }
}

/// One demoted row: the tuple key, its append timestamp, and the value
/// (an appended element or an encoded aggregate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColdRow {
    /// The tuple key.
    pub key: Vec<u8>,
    /// Append timestamp (aggregates carry their window start).
    pub ts: Timestamp,
    /// The stored bytes.
    pub value: Vec<u8>,
}

impl ColdRow {
    /// A row of `key` and `value`: owned buffers are taken over, the
    /// slices a [`BlockReader`] or a store lends are copied.
    pub fn new(key: impl Into<Vec<u8>>, ts: Timestamp, value: impl Into<Vec<u8>>) -> Self {
        let (key, value) = (key.into(), value.into());
        ColdRow { key, ts, value }
    }
}

/// A decoded cold block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColdBlock {
    /// The window every row belongs to.
    pub window: WindowId,
    /// Row shape.
    pub kind: BlockKind,
    /// Rows in original append order.
    pub rows: Vec<ColdRow>,
}

/// A row of a block being written, by its numbers in the writer's
/// dictionaries.
struct Row {
    key: u32,
    value: u32,
    ts: Timestamp,
}

/// The one cold-block encoder: takes borrowed `(key, ts, value)` rows one
/// at a time — their bytes go into two arenas, nothing is allocated per
/// row — and lays them out as one block, in the order they came
/// ([`BlockWriter::finish`]) or stably sorted by key
/// ([`BlockWriter::finish_by_key`]). Finishing lends the block out of the
/// writer's own buffer, empties the writer and keeps every allocation:
/// one writer serves every block of a store.
#[derive(Default)]
pub struct BlockWriter {
    compress: bool,
    keys: ByteDict,
    /// The distinct values when compressing, else every row's value.
    values: ByteDict,
    rows: Vec<Row>,
    plain_bytes: usize,
    /// The block last finished.
    block: Vec<u8>,
    /// Scratch of a finish: for keys and values, which number sits at
    /// each place of the block's dictionary and the place of each number;
    /// the rows' order when sorted by key.
    key_order: Vec<u32>,
    key_place: Vec<u32>,
    value_order: Vec<u32>,
    value_place: Vec<u32>,
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl BlockWriter {
    /// A writer of blocks whose value column is dictionary-encoded when
    /// `compress` is set (keys and timestamps always are), inlined
    /// length-prefixed per row otherwise.
    pub fn new(compress: bool) -> Self {
        BlockWriter {
            compress,
            ..BlockWriter::default()
        }
    }

    /// Adds one row.
    pub fn push(&mut self, key: &[u8], ts: Timestamp, value: &[u8]) {
        self.plain_bytes += key.len() + value.len() + 8;
        let row = Row {
            key: self.keys.intern(key),
            value: match self.compress {
                true => self.values.intern(value),
                false => self.values.push(value),
            },
            ts,
        };
        self.rows.push(row);
    }

    /// Forgets the rows pushed since the last finish, keeping the
    /// allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.rows.clear();
        self.plain_bytes = 0;
    }

    /// Rows pushed since the last finish.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The size those rows would occupy as plain rows (key + value +
    /// 8-byte timestamp each) — the numerator of the compression-ratio
    /// telemetry.
    pub fn plain_bytes(&self) -> usize {
        self.plain_bytes
    }

    /// Lays the rows out, in the order they were pushed, as one
    /// self-describing block of `window`.
    pub fn finish(&mut self, window: WindowId, kind: BlockKind) -> &[u8] {
        self.emit(window, kind, false)
    }

    /// [`BlockWriter::finish`] with the rows stably sorted by key: the
    /// distinct keys are sorted and a counting pass places each row by
    /// its key's rank, so a key's rows keep the order they came in.
    pub fn finish_by_key(&mut self, window: WindowId, kind: BlockKind) -> &[u8] {
        self.emit(window, kind, true)
    }

    fn emit(&mut self, window: WindowId, kind: BlockKind, by_key: bool) -> &[u8] {
        let BlockWriter {
            compress,
            keys,
            values,
            rows,
            block: out,
            key_order,
            key_place,
            value_order,
            value_place,
            starts,
            order,
            ..
        } = self;
        // A dictionary lists its entries in order of first occurrence
        // among the rows as laid out: for keys that is the order they
        // came in, or sorted.
        key_order.clear();
        key_order.extend(0..keys.len() as u32);
        if by_key {
            key_order.sort_unstable_by(|&a, &b| keys.get(a).cmp(keys.get(b)));
        }
        key_place.clear();
        key_place.resize(keys.len(), 0);
        for (place, &key) in key_order.iter().enumerate() {
            key_place[key as usize] = place as u32;
        }
        if by_key {
            let rank = |at: usize| key_place[rows[at].key as usize];
            group_stable(rows.len(), keys.len(), rank, starts, order);
        }
        let row = |at: usize| match by_key {
            true => &rows[order[at] as usize],
            false => &rows[at],
        };
        value_order.clear();
        if *compress {
            value_place.clear();
            value_place.resize(values.len(), u32::MAX);
            for at in 0..rows.len() {
                let value = row(at).value;
                if value_place[value as usize] == u32::MAX {
                    value_place[value as usize] = value_order.len() as u32;
                    value_order.push(value);
                }
            }
        }

        out.clear();
        out.reserve(64 + rows.len() * 8);
        out.extend_from_slice(&BLOCK_MAGIC);
        out.push(BLOCK_VERSION);
        out.push(kind.as_u8());
        out.push(if *compress { FLAG_VALUE_DICT } else { 0 });
        codec::put_varint_i64(out, window.start);
        codec::put_varint_i64(out, window.end);
        codec::put_varint_u64(out, rows.len() as u64);
        codec::put_varint_u64(out, key_order.len() as u64);
        for &key in key_order.iter() {
            codec::put_len_prefixed(out, keys.get(key));
        }
        if *compress {
            codec::put_varint_u64(out, value_order.len() as u64);
            for &value in value_order.iter() {
                codec::put_len_prefixed(out, values.get(value));
            }
        }
        // Row columns: key index, timestamp delta, value index or bytes.
        let mut prev_ts = window.start;
        for at in 0..rows.len() {
            let row = row(at);
            codec::put_varint_u64(out, u64::from(key_place[row.key as usize]));
            codec::put_varint_i64(out, row.ts.wrapping_sub(prev_ts));
            prev_ts = row.ts;
            if *compress {
                codec::put_varint_u64(out, u64::from(value_place[row.value as usize]));
            } else {
                codec::put_len_prefixed(out, values.get(row.value));
            }
        }
        let crc = codec::crc32(&out[BLOCK_MAGIC.len()..]);
        codec::put_u32(out, crc);

        self.clear();
        &self.block
    }
}

/// Encodes `rows` of `window`, in their order, into one self-describing
/// cold block: [`BlockWriter`] over owned rows.
pub fn encode_block(
    window: WindowId,
    kind: BlockKind,
    rows: &[ColdRow],
    compress: bool,
) -> Vec<u8> {
    let mut writer = BlockWriter::new(compress);
    for row in rows {
        writer.push(&row.key, row.ts, &row.value);
    }
    writer.finish(window, kind);
    writer.block
}

fn corrupt(offset: usize, detail: impl Into<String>) -> StoreError {
    StoreError::corruption("cold-block", offset as u64, detail)
}

/// The one cold-block decoder, in two steps so that a reader can look at
/// a block's header before taking its rows: [`BlockReader::open`] checks
/// the trailing CRC, then the header and the dictionaries;
/// [`BlockReader::for_each_row`] lends the rows as slices of the block.
/// Neither panics on malformed input: truncation surfaces as
/// [`StoreError::UnexpectedEof`] and any mismatch (magic, version, CRC,
/// dictionary index, trailing bytes) as [`StoreError::Corruption`].
pub struct BlockReader<'a> {
    window: WindowId,
    kind: BlockKind,
    rows: usize,
    compress: bool,
    keys: Vec<&'a [u8]>,
    values: Vec<&'a [u8]>,
    /// The block's body, read up to its first row.
    dec: Decoder<'a>,
}

impl<'a> BlockReader<'a> {
    /// Opens a block written by [`BlockWriter`].
    pub fn open(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < BLOCK_MAGIC.len() + 3 + 4 {
            return Err(StoreError::UnexpectedEof {
                what: "cold-block header",
            });
        }
        if bytes[..BLOCK_MAGIC.len()] != BLOCK_MAGIC {
            return Err(corrupt(0, "bad cold-block magic"));
        }
        let body = &bytes[BLOCK_MAGIC.len()..bytes.len() - 4];
        let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let actual_crc = codec::crc32(body);
        if stored_crc != actual_crc {
            return Err(corrupt(
                bytes.len() - 4,
                format!(
                    "cold-block CRC mismatch: stored {stored_crc:#x}, computed {actual_crc:#x}"
                ),
            ));
        }

        let mut dec = Decoder::new(body);
        let version = dec.take(1, "cold-block version")?[0];
        if version != BLOCK_VERSION {
            return Err(corrupt(
                4,
                format!("unsupported cold-block version {version}"),
            ));
        }
        let kind_byte = dec.take(1, "cold-block kind")?[0];
        let kind = BlockKind::from_u8(kind_byte)
            .ok_or_else(|| corrupt(5, format!("unknown cold-block kind {kind_byte}")))?;
        let flags = dec.take(1, "cold-block flags")?[0];
        if flags & !FLAG_VALUE_DICT != 0 {
            return Err(corrupt(6, format!("unknown cold-block flags {flags:#x}")));
        }
        let compress = flags & FLAG_VALUE_DICT != 0;
        let start = dec.get_varint_i64()?;
        let end = dec.get_varint_i64()?;
        if start > end {
            return Err(corrupt(
                7,
                format!("inverted cold-block window [{start}, {end})"),
            ));
        }
        let rows = dec.get_varint_u64()? as usize;
        // A row costs at least three varint bytes, a dictionary entry
        // one: reject counts the buffer cannot possibly hold so corrupt
        // counts cannot trigger huge allocations.
        if rows > body.len() {
            return Err(corrupt(
                8,
                format!("cold-block row count {rows} exceeds block size"),
            ));
        }
        let mut dictionary = |what: &str, offset: usize| {
            let count = dec.get_varint_u64()? as usize;
            if count > body.len() {
                let detail = format!("cold-block {what} count {count} exceeds block size");
                return Err(corrupt(offset, detail));
            }
            (0..count)
                .map(|_| dec.get_len_prefixed().map_err(StoreError::from))
                .collect()
        };
        let keys = dictionary("key", 9)?;
        let values = match compress {
            true => dictionary("value", 10)?,
            false => Vec::new(),
        };
        Ok(BlockReader {
            window: WindowId::new(start, end),
            kind,
            rows,
            compress,
            keys,
            values,
            dec,
        })
    }

    /// The window every row belongs to.
    pub fn window(&self) -> WindowId {
        self.window
    }

    /// Row shape.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// How many rows the header announces.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lends every row to `sink` as `(key, ts, value)`, in the block's
    /// order, and checks that the block ends with its last row.
    pub fn for_each_row(
        mut self,
        sink: &mut dyn FnMut(&'a [u8], Timestamp, &'a [u8]),
    ) -> Result<()> {
        let dec = &mut self.dec;
        let mut prev_ts = self.window.start;
        for _ in 0..self.rows {
            let ki = dec.get_varint_u64()? as usize;
            let key = *self
                .keys
                .get(ki)
                .ok_or_else(|| corrupt(dec.position(), format!("key index {ki} out of range")))?;
            let ts = prev_ts.wrapping_add(dec.get_varint_i64()?);
            prev_ts = ts;
            let value = if self.compress {
                let vi = dec.get_varint_u64()? as usize;
                *self.values.get(vi).ok_or_else(|| {
                    corrupt(dec.position(), format!("value index {vi} out of range"))
                })?
            } else {
                dec.get_len_prefixed()?
            };
            sink(key, ts, value);
        }
        if !dec.is_empty() {
            return Err(corrupt(
                dec.position(),
                format!("{} trailing bytes after cold-block rows", dec.remaining()),
            ));
        }
        Ok(())
    }
}

/// Decodes one cold block into owned rows: [`BlockReader`] collected.
///
/// Returns a structured [`StoreError`] (never panics) on truncated or
/// corrupted input.
pub fn decode_block(bytes: &[u8]) -> Result<ColdBlock> {
    let reader = BlockReader::open(bytes)?;
    let (window, kind) = (reader.window(), reader.kind());
    let mut rows = Vec::with_capacity(reader.rows());
    reader.for_each_row(&mut |key, ts, value| rows.push(ColdRow::new(key, ts, value)))?;
    Ok(ColdBlock { window, kind, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ColdRow> {
        vec![
            ColdRow {
                key: b"auction-17".to_vec(),
                ts: 1_005,
                value: b"bid:900".to_vec(),
            },
            ColdRow {
                key: b"auction-17".to_vec(),
                ts: 1_009,
                value: b"bid:901".to_vec(),
            },
            ColdRow {
                key: b"auction-3".to_vec(),
                ts: 1_012,
                value: b"bid:900".to_vec(),
            },
        ]
    }

    #[test]
    fn round_trips_both_modes() {
        let w = WindowId::new(1_000, 2_000);
        for compress in [false, true] {
            let blob = encode_block(w, BlockKind::Values, &rows(), compress);
            let block = decode_block(&blob).unwrap();
            assert_eq!(block.window, w);
            assert_eq!(block.kind, BlockKind::Values);
            assert_eq!(block.rows, rows());
        }
    }

    #[test]
    fn dictionary_beats_plain_rows_on_repetitive_data() {
        let w = WindowId::new(0, 1_000);
        let many: Vec<ColdRow> = (0..200)
            .map(|i| ColdRow {
                key: format!("person-{}", i % 8).into_bytes(),
                ts: i,
                value: b"some-repeated-payload".to_vec(),
            })
            .collect();
        let mut writer = BlockWriter::new(true);
        for row in &many {
            writer.push(&row.key, row.ts, &row.value);
        }
        let plain = writer.plain_bytes();
        let blob = writer.finish(w, BlockKind::Values);
        assert_eq!(blob, encode_block(w, BlockKind::Values, &many, true));
        assert!(
            blob.len() * 3 < plain,
            "expected >3x compression, got {} vs {plain}",
            blob.len(),
        );
    }

    #[test]
    fn empty_block_round_trips() {
        let w = WindowId::new(5, 5);
        let blob = encode_block(w, BlockKind::Aggregates, &[], true);
        let block = decode_block(&blob).unwrap();
        assert!(block.rows.is_empty());
        assert_eq!(block.kind, BlockKind::Aggregates);
    }

    #[test]
    fn negative_and_unordered_timestamps_round_trip() {
        let w = WindowId::new(-500, 500);
        let rows = vec![
            ColdRow {
                key: b"k".to_vec(),
                ts: 400,
                value: b"a".to_vec(),
            },
            ColdRow {
                key: b"k".to_vec(),
                ts: -499,
                value: b"b".to_vec(),
            },
        ];
        let blob = encode_block(w, BlockKind::Values, &rows, false);
        assert_eq!(decode_block(&blob).unwrap().rows, rows);
    }

    #[test]
    fn truncation_is_a_structured_error() {
        let blob = encode_block(WindowId::new(0, 10), BlockKind::Values, &rows(), true);
        for cut in 0..blob.len() {
            let err = decode_block(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::UnexpectedEof { .. }
                        | StoreError::Corruption { .. }
                        | StoreError::VarintOverflow
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bitflip_fails_crc() {
        let mut blob = encode_block(WindowId::new(0, 10), BlockKind::Values, &rows(), true);
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        assert!(matches!(
            decode_block(&blob).unwrap_err(),
            StoreError::Corruption { .. }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = encode_block(WindowId::new(0, 10), BlockKind::Values, &rows(), false);
        blob[0] = b'X';
        assert!(matches!(
            decode_block(&blob).unwrap_err(),
            StoreError::Corruption { .. }
        ));
    }
}
