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
//!   bytes of `reference_encode`, the version-1 encoder as it stood
//!   before the writer replaced it; the streaming [`BlockReader`] lends
//!   the rows `decode_block` returns and refuses a damaged block before
//!   it lends any.

use std::collections::HashMap;

use flowkv_common::codec;
use flowkv_common::columnar::{
    decode_block, encode_block, BlockKind, BlockReader, BlockWriter, ColdRow, BLOCK_MAGIC,
    BLOCK_VERSION,
};
use flowkv_common::error::StoreError;
use flowkv_common::types::WindowId;
use proptest::prelude::*;

/// The version-1 block encoder over owned rows, dictionaries by hash map:
/// the reference the streaming writer must match byte for byte.
fn reference_encode(
    window: WindowId,
    kind: BlockKind,
    rows: &[ColdRow],
    compress: bool,
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
    let mut buf = Vec::new();
    buf.extend_from_slice(&BLOCK_MAGIC);
    buf.push(BLOCK_VERSION);
    buf.push(match kind {
        BlockKind::Values => 0,
        BlockKind::Aggregates => 1,
    });
    buf.push(u8::from(compress));
    codec::put_varint_i64(&mut buf, window.start);
    codec::put_varint_i64(&mut buf, window.end);
    codec::put_varint_u64(&mut buf, rows.len() as u64);
    let (key_dict, key_idx) = dictionary(rows.iter().map(|row| row.key.as_slice()));
    codec::put_varint_u64(&mut buf, key_dict.len() as u64);
    for key in &key_dict {
        codec::put_len_prefixed(&mut buf, key);
    }
    let (val_dict, val_idx) = dictionary(rows.iter().map(|row| row.value.as_slice()));
    if compress {
        codec::put_varint_u64(&mut buf, val_dict.len() as u64);
        for value in &val_dict {
            codec::put_len_prefixed(&mut buf, value);
        }
    }
    let mut prev_ts = window.start;
    for row in rows {
        codec::put_varint_u64(&mut buf, key_idx[row.key.as_slice()]);
        codec::put_varint_i64(&mut buf, row.ts.wrapping_sub(prev_ts));
        prev_ts = row.ts;
        if compress {
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode = id, with value dictionary on (the
    /// dictionary-ID path) and off (the plain len-prefixed path); the
    /// timestamp column always takes the delta path.
    #[test]
    fn round_trip_is_identity(
        window in windows(),
        kind in kinds(),
        rows in rows_strategy(),
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
    /// blocks (empty and one-row blocks among them), both write version
    /// 1 as it always was: in arrival order, and stably sorted by key
    /// without the rows ever being sorted.
    #[test]
    fn the_streaming_writer_emits_the_reference_bytes(
        window in windows(),
        kind in kinds(),
        blocks in prop::collection::vec(prop_oneof![clustered_rows(), rows_strategy()], 1..5),
        compress in any::<bool>(),
    ) {
        let mut writer = BlockWriter::new(compress);
        // A one-row block between the others, as the tier's zero-byte
        // budget seals them.
        let one_row = vec![ColdRow { key: b"k".to_vec(), ts: 7, value: b"v".to_vec() }];
        for rows in blocks.iter().flat_map(|rows| [rows, &one_row]) {
            let reference = reference_encode(window, kind, rows, compress);
            prop_assert_eq!(&encode_block(window, kind, rows, compress), &reference);
            for row in rows {
                writer.push(&row.key, row.ts, &row.value);
            }
            prop_assert_eq!(writer.rows(), rows.len());
            prop_assert_eq!(writer.finish(window, kind), &reference[..]);

            let mut sorted = rows.clone();
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            for row in rows {
                writer.push(&row.key, row.ts, &row.value);
            }
            let by_key = reference_encode(window, kind, &sorted, compress);
            prop_assert_eq!(writer.finish_by_key(window, kind), &by_key[..]);
            prop_assert_eq!(writer.rows(), 0);
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
