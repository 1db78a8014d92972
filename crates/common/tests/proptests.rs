//! Property-based tests for the codec and log-file substrate.

use flowkv_common::codec::{
    crc32, put_len_prefixed, put_varint_i64, put_varint_u64, zigzag_decode, zigzag_encode, Decoder,
};
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::{Tuple, WindowId};
use flowkv_common::vfs::StdVfs;
use proptest::prelude::*;

proptest! {
    #[test]
    fn varint_u64_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_varint_u64(&mut buf, v);
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(dec.get_varint_u64().unwrap(), v);
        prop_assert!(dec.is_empty());
    }

    #[test]
    fn varint_i64_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        put_varint_i64(&mut buf, v);
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(dec.get_varint_i64().unwrap(), v);
    }

    #[test]
    fn zigzag_is_bijective(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }

    #[test]
    fn len_prefixed_sequence_roundtrip(chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..20)) {
        let mut buf = Vec::new();
        for c in &chunks {
            put_len_prefixed(&mut buf, c);
        }
        let mut dec = Decoder::new(&buf);
        for c in &chunks {
            prop_assert_eq!(dec.get_len_prefixed().unwrap(), &c[..]);
        }
        prop_assert!(dec.is_empty());
    }

    #[test]
    fn crc_detects_single_byte_mutation(data in prop::collection::vec(any::<u8>(), 1..100), idx in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let mut mutated = data.clone();
        let i = idx.index(data.len());
        mutated[i] ^= flip;
        prop_assert_ne!(crc32(&data), crc32(&mutated));
    }

    #[test]
    fn tuple_roundtrip(key in prop::collection::vec(any::<u8>(), 0..64),
                       value in prop::collection::vec(any::<u8>(), 0..256),
                       ts in any::<i64>()) {
        let t = Tuple::new(key, value, ts);
        let mut buf = Vec::new();
        t.encode_to(&mut buf);
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(Tuple::decode_from(&mut dec).unwrap(), t);
    }

    #[test]
    fn window_ordered_bytes_match_tuple_order(a in any::<(i64, i64)>(), b in any::<(i64, i64)>()) {
        let wa = WindowId { start: a.0.min(a.1), end: a.0.max(a.1) };
        let wb = WindowId { start: b.0.min(b.1), end: b.0.max(b.1) };
        let byte_order = wa.to_ordered_bytes().cmp(&wb.to_ordered_bytes());
        prop_assert_eq!(byte_order, wa.cmp(&wb));
    }

    #[test]
    fn log_roundtrip_and_truncation_recovery(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..20),
        cut in 1u64..64,
    ) {
        let dir = ScratchDir::new("prop-log").unwrap();
        let path = dir.path().join("p.log");
        let vfs = StdVfs::shared();
        let mut w = LogWriter::create_in(&vfs, &path).unwrap();
        let mut locs = Vec::new();
        for p in &payloads {
            locs.push(w.append(p).unwrap());
        }
        w.flush().unwrap();
        drop(w);

        // Full read-back.
        let mut r = LogReader::open_in(&vfs, &path).unwrap();
        for p in &payloads {
            prop_assert_eq!(&r.next_record().unwrap().unwrap().1, p);
        }
        prop_assert!(r.next_record().unwrap().is_none());

        // Truncate somewhere inside the final record; recovery must keep
        // every earlier record and position appends at the cut prefix.
        let last = *locs.last().unwrap();
        let cut_at = last.offset + (cut % last.disk_len().max(1));
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut_at).unwrap();
        drop(f);

        let w = LogWriter::open_append_in(&vfs, &path, |_, _| Ok(())).unwrap();
        prop_assert_eq!(w.offset(), last.offset);
        drop(w);
        let mut r = LogReader::open_in(&vfs, &path).unwrap();
        for p in &payloads[..payloads.len() - 1] {
            prop_assert_eq!(&r.next_record().unwrap().unwrap().1, p);
        }
        prop_assert!(r.next_record().unwrap().is_none());
    }
}
