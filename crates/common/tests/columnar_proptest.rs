//! Property tests for the cold-block columnar codec.
//!
//! - Round-trip: `decode_block(encode_block(rows)) == rows` for
//!   arbitrary tuple sequences — arbitrary keys, arbitrary (including
//!   negative and unordered) timestamps through the delta encoder,
//!   arbitrary values through both the dictionary and plain paths.
//! - Robustness: decoding any truncated or bit-flipped block returns a
//!   structured [`StoreError`], never panics.
//! - One format: the streaming [`BlockWriter`] — in arrival order and
//!   sorted by key, one writer reused from block to block — emits the
//!   bytes of `reference_encode`, the version-1 encoder stating the
//!   value-column rule itself; the streaming [`BlockReader`] lends the
//!   rows `decode_block` returns and refuses a damaged block before it
//!   lends any.
//! - The value dictionary only ever pays: a block is never larger than
//!   the same rows with an inline value column.
//!
//! Blocks are drawn small (up to 64 rows) and long (200 to 1 000 rows,
//! values near-unique, repeating, or either side of the half-new line),
//! so the writer's decision after 256 rows is crossed both ways.

use std::collections::{HashMap, HashSet};

use flowkv_common::codec;
use flowkv_common::columnar::{
    decode_block, encode_block, BlockKind, BlockReader, BlockWriter, ColdRow, BLOCK_MAGIC,
    BLOCK_VERSION,
};
use flowkv_common::error::StoreError;
use flowkv_common::types::WindowId;
use proptest::prelude::*;

/// Cases per property: 64 unless `PROPTEST_CASES` says otherwise (CI
/// runs 256).
fn cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(64)
}

/// The version-1 block encoder over owned rows, dictionaries by hash map:
/// the reference the streaming writer must match byte for byte. `rows`
/// are in arrival order; `by_key` lays them out stably sorted by key.
///
/// The value column is a dictionary only when `compress` allows one, no
/// more than half of the first 256 rows to arrive carry a value new
/// among them (or fewer than 256 arrived), and the dictionary column —
/// its count, its entries and a row's index each — is no larger than
/// the inline one.
fn reference_encode(
    window: WindowId,
    kind: BlockKind,
    rows: &[ColdRow],
    compress: bool,
    by_key: bool,
) -> Vec<u8> {
    fn dictionary<'a>(
        column: impl Iterator<Item = &'a [u8]>,
    ) -> (Vec<&'a [u8]>, HashMap<&'a [u8], u64>) {
        let (mut order, mut index) = (Vec::new(), HashMap::new());
        for bytes in column {
            index.entry(bytes).or_insert_with(|| {
                order.push(bytes);
                (order.len() - 1) as u64
            });
        }
        (order, index)
    }
    let first: HashSet<&[u8]> = rows.iter().take(256).map(|r| r.value.as_slice()).collect();
    let probe_passed = rows.len() < 256 || first.len() * 2 <= 256;
    let mut rows: Vec<&ColdRow> = rows.iter().collect();
    if by_key {
        rows.sort_by(|a, b| a.key.cmp(&b.key));
    }
    let (val_dict, val_idx) = dictionary(rows.iter().map(|row| row.value.as_slice()));
    let (mut dict_column, mut inline_column) = (Vec::new(), Vec::new());
    codec::put_varint_u64(&mut dict_column, val_dict.len() as u64);
    for value in &val_dict {
        codec::put_len_prefixed(&mut dict_column, value);
    }
    for row in &rows {
        codec::put_varint_u64(&mut dict_column, val_idx[row.value.as_slice()]);
        codec::put_len_prefixed(&mut inline_column, &row.value);
    }
    let dict = compress && probe_passed && dict_column.len() <= inline_column.len();

    let mut buf = Vec::new();
    buf.extend_from_slice(&BLOCK_MAGIC);
    buf.push(BLOCK_VERSION);
    buf.push(match kind {
        BlockKind::Values => 0,
        BlockKind::Aggregates => 1,
    });
    buf.push(u8::from(dict));
    codec::put_varint_i64(&mut buf, window.start);
    codec::put_varint_i64(&mut buf, window.end);
    codec::put_varint_u64(&mut buf, rows.len() as u64);
    let (key_dict, key_idx) = dictionary(rows.iter().map(|row| row.key.as_slice()));
    codec::put_varint_u64(&mut buf, key_dict.len() as u64);
    for key in &key_dict {
        codec::put_len_prefixed(&mut buf, key);
    }
    if dict {
        codec::put_varint_u64(&mut buf, val_dict.len() as u64);
        for value in &val_dict {
            codec::put_len_prefixed(&mut buf, value);
        }
    }
    let mut prev_ts = window.start;
    for row in &rows {
        codec::put_varint_u64(&mut buf, key_idx[row.key.as_slice()]);
        codec::put_varint_i64(&mut buf, row.ts.wrapping_sub(prev_ts));
        prev_ts = row.ts;
        if dict {
            codec::put_varint_u64(&mut buf, val_idx[row.value.as_slice()]);
        } else {
            codec::put_len_prefixed(&mut buf, &row.value);
        }
    }
    let crc = codec::crc32(&buf[BLOCK_MAGIC.len()..]);
    codec::put_u32(&mut buf, crc);
    buf
}

/// Keys from a small alphabet, so that rows share keys and a sort by key
/// has runs to keep in order.
fn clustered_rows() -> impl Strategy<Value = Vec<ColdRow>> {
    prop::collection::vec(
        (0u8..6, any::<i64>(), prop::collection::vec(0u8..3, 0..3)).prop_map(|(k, ts, value)| {
            ColdRow {
                key: vec![b'k'; usize::from(k % 3)]
                    .into_iter()
                    .chain([k])
                    .collect(),
                ts,
                value,
            }
        }),
        0..48,
    )
}

fn rows_strategy() -> impl Strategy<Value = Vec<ColdRow>> {
    prop::collection::vec(
        (
            prop::collection::vec(any::<u8>(), 0..12),
            any::<i64>(),
            prop::collection::vec(any::<u8>(), 0..24),
        )
            .prop_map(|(key, ts, value)| ColdRow { key, ts, value }),
        0..64,
    )
}

/// Blocks past the writer's decision point: 200 to 1 000 rows of 8-byte
/// values drawn from a pool of a few, of 100 to 400 (either side of half
/// new among 256 rows), or near-unique, under keys from a small alphabet.
fn long_rows() -> impl Strategy<Value = Vec<ColdRow>> {
    let pool = prop_oneof![1u64..8, 100u64..400, Just(u64::MAX)];
    (200usize..1_000, pool, any::<u64>()).prop_map(|(n, pool, seed)| {
        // xorshift64: the rows of one draw, from its seed.
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|i| ColdRow {
                key: format!("k{}", next() % 40).into_bytes(),
                ts: i as i64 * 3 + (next() % 5) as i64,
                value: (next() % pool).to_le_bytes().to_vec(),
            })
            .collect()
    })
}

/// Small blocks and long ones.
fn any_rows() -> impl Strategy<Value = Vec<ColdRow>> {
    prop_oneof![clustered_rows(), rows_strategy(), long_rows()]
}

fn windows() -> impl Strategy<Value = WindowId> {
    (any::<i32>(), 0i64..1_000_000)
        .prop_map(|(start, len)| WindowId::new(i64::from(start), i64::from(start) + len))
}

fn kinds() -> impl Strategy<Value = BlockKind> {
    prop_oneof![Just(BlockKind::Values), Just(BlockKind::Aggregates)]
}

/// The decode outcomes a damaged block is allowed to produce.
fn is_structured_failure(r: &Result<flowkv_common::columnar::ColdBlock, StoreError>) -> bool {
    matches!(
        r,
        Err(StoreError::UnexpectedEof { .. }
            | StoreError::Corruption { .. }
            | StoreError::VarintOverflow)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// encode ∘ decode = id, with value dictionary on (the
    /// dictionary-ID path) and off (the plain len-prefixed path); the
    /// timestamp column always takes the delta path.
    #[test]
    fn round_trip_is_identity(
        window in windows(),
        kind in kinds(),
        rows in any_rows(),
        compress in any::<bool>(),
    ) {
        let blob = encode_block(window, kind, &rows, compress);
        let block = decode_block(&blob).expect("well-formed block must decode");
        prop_assert_eq!(block.window, window);
        prop_assert_eq!(block.kind, kind);
        prop_assert_eq!(block.rows, rows);
    }

    /// Every strict prefix of a valid block fails decoding with a
    /// structured error — never a panic, never silent success.
    #[test]
    fn truncation_is_a_structured_error(
        window in windows(),
        rows in rows_strategy(),
        compress in any::<bool>(),
    ) {
        let blob = encode_block(window, BlockKind::Values, &rows, compress);
        for cut in 0..blob.len() {
            let result = decode_block(&blob[..cut]);
            prop_assert!(
                is_structured_failure(&result),
                "truncation at {}/{} did not fail structurally: {:?}",
                cut,
                blob.len(),
                result.map(|b| b.rows.len())
            );
        }
    }

    /// Any single-byte corruption is caught (the CRC covers everything
    /// after the magic; flipping the magic itself is caught first).
    #[test]
    fn bitflip_is_a_structured_error(
        window in windows(),
        rows in rows_strategy(),
        compress in any::<bool>(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut blob = encode_block(window, BlockKind::Aggregates, &rows, compress);
        let pos = (pos_seed % blob.len() as u64) as usize;
        blob[pos] ^= 1 << bit;
        let result = decode_block(&blob);
        prop_assert!(
            is_structured_failure(&result),
            "bitflip at {} bit {} did not fail structurally: {:?}",
            pos,
            bit,
            result.map(|b| b.rows.len())
        );
    }

    /// The owned wrapper and the streaming writer, reused over a run of
    /// blocks (empty, one-row and long blocks among them, and rows
    /// cleared unfinished), both write the reference's bytes: in arrival
    /// order, and stably sorted by key without the rows ever being
    /// sorted. The writer's value-column decision is each block's own.
    #[test]
    fn the_streaming_writer_emits_the_reference_bytes(
        window in windows(),
        kind in kinds(),
        blocks in prop::collection::vec(any_rows(), 1..5),
        compress in any::<bool>(),
    ) {
        let mut writer = BlockWriter::new(compress);
        // A one-row block between the others, as the tier's zero-byte
        // budget seals them.
        let one_row = vec![ColdRow { key: b"k".to_vec(), ts: 7, value: b"v".to_vec() }];
        for (at, rows) in blocks.iter().flat_map(|rows| [rows, &one_row]).enumerate() {
            let reference = reference_encode(window, kind, rows, compress, false);
            prop_assert_eq!(&encode_block(window, kind, rows, compress), &reference);
            // Every other block starts after the last block's rows were
            // pushed again and cleared.
            if at % 2 == 1 {
                for row in &blocks[at / 2] {
                    writer.push(&row.key, row.ts, &row.value);
                }
                writer.clear();
            }
            for row in rows {
                writer.push(&row.key, row.ts, &row.value);
            }
            prop_assert_eq!(writer.rows(), rows.len());
            prop_assert_eq!(writer.finish(window, kind).unwrap(), &reference[..]);

            for row in rows {
                writer.push(&row.key, row.ts, &row.value);
            }
            let by_key = reference_encode(window, kind, rows, compress, true);
            prop_assert_eq!(writer.finish_by_key(window, kind).unwrap(), &by_key[..]);
            prop_assert_eq!(writer.rows(), 0);
        }
    }

    /// A writer allowed a value dictionary never writes a block larger
    /// than the same rows with an inline value column, in either layout.
    #[test]
    fn a_block_is_never_larger_than_its_inline_twin(
        window in windows(),
        kind in kinds(),
        rows in any_rows(),
    ) {
        let (mut dict, mut inline) = (BlockWriter::new(true), BlockWriter::new(false));
        for by_key in [false, true] {
            for row in &rows {
                dict.push(&row.key, row.ts, &row.value);
                inline.push(&row.key, row.ts, &row.value);
            }
            let (dict, inline) = match by_key {
                false => (dict.finish(window, kind).unwrap(), inline.finish(window, kind).unwrap()),
                true => (
                    dict.finish_by_key(window, kind).unwrap(),
                    inline.finish_by_key(window, kind).unwrap(),
                ),
            };
            prop_assert!(
                dict.len() <= inline.len(),
                "{} rows: {} bytes against {} inline",
                rows.len(),
                dict.len(),
                inline.len()
            );
        }
    }

    /// The streaming reader lends exactly the rows `decode_block` owns,
    /// and a damaged block — any strict prefix, any flipped bit — is
    /// refused when it is opened, in the class `decode_block` fails in:
    /// the CRC stands before the first row, so none is ever lent.
    #[test]
    fn the_streaming_reader_lends_what_decode_block_returns(
        window in windows(),
        kind in kinds(),
        rows in rows_strategy(),
        compress in any::<bool>(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let blob = encode_block(window, kind, &rows, compress);
        let reader = BlockReader::open(&blob).expect("well-formed block must open");
        prop_assert_eq!((reader.window(), reader.kind(), reader.rows()), (window, kind, rows.len()));
        let mut lent = Vec::new();
        reader
            .for_each_row(&mut |key, ts, value| {
                lent.push(ColdRow { key: key.to_vec(), ts, value: value.to_vec() })
            })
            .expect("well-formed rows");
        prop_assert_eq!(&lent, &decode_block(&blob).unwrap().rows);
        prop_assert_eq!(&lent, &rows);

        let mut flipped = blob.clone();
        flipped[(pos_seed % blob.len() as u64) as usize] ^= 1 << bit;
        let damaged = (0..blob.len()).map(|cut| &blob[..cut]).chain([flipped.as_slice()]);
        for bytes in damaged {
            let refused = BlockReader::open(bytes).err();
            let expect = decode_block(bytes).err();
            prop_assert!(refused.is_some(), "a damaged block of {} bytes opened", bytes.len());
            prop_assert_eq!(
                refused.as_ref().map(std::mem::discriminant),
                expect.as_ref().map(std::mem::discriminant)
            );
        }
    }
}
