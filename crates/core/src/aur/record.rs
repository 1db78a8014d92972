//! The AUR data record, and the composite key both stores' records start
//! with.
//!
//! A flush writes one record per window with buffered values, and the
//! record names its window: the length-prefixed composite `window ‖ key`
//! (as an RMW record starts), the window's largest tuple timestamp when
//! it was written, then its values as a [`ValueRun`] holds them — a
//! count, then each value length-prefixed. A reopen rebuilds the table of
//! live windows from those headers with one scan of the data log, so the
//! store keeps no index log beside it (paper §4.2 does).

use flowkv_common::backend::ValueSink;
use flowkv_common::codec::{put_len_prefixed, put_varint_i64, put_varint_u64, Decoder};
use flowkv_common::error::Result;
use flowkv_common::types::{Timestamp, WindowId};

/// Appends the length-prefixed composite key `window ‖ user-key` a log
/// record starts with; composites sort as `(window, key)` does.
pub(crate) fn put_composite(out: &mut Vec<u8>, key: &[u8], window: WindowId) {
    put_varint_u64(out, (WindowId::ENCODED_LEN + key.len()) as u64);
    out.extend_from_slice(&window.to_ordered_bytes());
    out.extend_from_slice(key);
}

/// Splits a composite key back into `(user-key, window)`.
pub(crate) fn split_composite(composite: &[u8]) -> Result<(&[u8], WindowId)> {
    // Decoding the window checks the length.
    let window = WindowId::from_ordered_bytes(composite)?;
    Ok((&composite[WindowId::ENCODED_LEN..], window))
}

/// Reads a data record's header — its window's key, the window, and
/// `max_ts` — leaving `dec` at the value count.
pub(crate) fn read_header<'a>(dec: &mut Decoder<'a>) -> Result<(&'a [u8], WindowId, Timestamp)> {
    let (key, window) = split_composite(dec.get_len_prefixed()?)?;
    Ok((key, window, dec.get_varint_i64()?))
}

/// Values of one window — buffered since its last flush, or prefetched
/// from its disk records — in data-record form: each length-prefixed,
/// back to back, so an append copies into one growing allocation and a
/// flush writes the run (and extends a prefetched one) as it stands.
/// The in-memory backend (`flowkv_spe::memstore`) holds each pair's
/// list as one too.
#[derive(Debug, Default)]
pub struct ValueRun {
    count: u64,
    bytes: Vec<u8>,
    /// Bytes held at the last flush: what the next fill allocates up front.
    flushed_len: usize,
}

impl ValueRun {
    /// Appends one value.
    pub fn push(&mut self, value: &[u8]) {
        if self.bytes.capacity() == 0 {
            self.bytes.reserve(self.flushed_len);
        }
        self.count += 1;
        put_len_prefixed(&mut self.bytes, value);
    }

    /// Empties the run after a flush, freeing its allocation.
    pub fn flushed(&mut self) {
        *self = ValueRun {
            flushed_len: self.bytes.len(),
            ..ValueRun::default()
        };
    }

    /// Number of values in the run.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bytes the run holds.
    pub fn bytes_len(&self) -> usize {
        self.bytes.len()
    }

    /// Appends the values of a data-log record payload, undecoded.
    pub fn push_record(&mut self, payload: &[u8]) -> Result<()> {
        let mut dec = Decoder::new(payload);
        read_header(&mut dec)?;
        self.count += dec.get_varint_u64()?;
        self.bytes.extend_from_slice(&payload[dec.position()..]);
        Ok(())
    }

    /// Appends `other`'s values.
    pub fn extend(&mut self, other: &ValueRun) {
        self.count += other.count;
        self.bytes.extend_from_slice(&other.bytes);
    }

    /// Encodes the run as the data-log record payload of `(key, window)`
    /// into `buf`, cleared first (the flush path reuses one buffer).
    pub fn encode_record_into(
        &self,
        key: &[u8],
        window: WindowId,
        max_ts: Timestamp,
        buf: &mut Vec<u8>,
    ) {
        buf.clear();
        put_composite(buf, key, window);
        put_varint_i64(buf, max_ts);
        put_varint_u64(buf, self.count);
        buf.extend_from_slice(&self.bytes);
    }

    /// Lends `sink` the run's values, in push order.
    pub fn lend(&self, sink: ValueSink<'_>) -> Result<()> {
        let mut dec = Decoder::new(&self.bytes);
        for _ in 0..self.count {
            sink(dec.get_len_prefixed()?);
        }
        Ok(())
    }

    /// Appends the run's values to `out`, in push order.
    pub fn decode_into(&self, out: &mut Vec<Vec<u8>>) -> Result<()> {
        out.reserve((self.count as usize).min(4096));
        self.lend(&mut |value| out.push(value.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: WindowId = WindowId {
        start: -10,
        end: 500,
    };

    /// The values of a data-log record payload, as a batch read loads them.
    fn decode_values(payload: &[u8]) -> Result<Vec<Vec<u8>>> {
        let mut run = ValueRun::default();
        run.push_record(payload)?;
        let mut out = Vec::new();
        run.decode_into(&mut out)?;
        Ok(out)
    }

    #[test]
    fn header_roundtrip() {
        let mut run = ValueRun::default();
        run.push(b"v");
        let mut buf = Vec::new();
        run.encode_record_into(b"user-42", W, 499, &mut buf);
        let mut dec = Decoder::new(&buf);
        let (key, window, max_ts) = read_header(&mut dec).unwrap();
        assert_eq!((key, window, max_ts), (&b"user-42"[..], W, 499));
        assert_eq!(dec.get_varint_u64().unwrap(), 1);
        // The key is a view into the payload, not a copy.
        assert!(buf.as_ptr_range().contains(&key.as_ptr()));
    }

    #[test]
    fn values_roundtrip() {
        let values = vec![b"a".to_vec(), Vec::new(), vec![7u8; 300]];
        let mut run = ValueRun::default();
        for v in &values {
            run.push(v);
        }
        assert_eq!(run.count(), 3);
        let mut record = vec![0xff; 4];
        run.encode_record_into(b"k", W, 0, &mut record);
        assert_eq!(decode_values(&record).unwrap(), values);
        let mut out = vec![b"before".to_vec()];
        run.decode_into(&mut out).unwrap();
        assert_eq!(out[0], b"before");
        assert_eq!(&out[1..], &values[..]);
        run.flushed();
        assert_eq!(run.count(), 0);
        run.encode_record_into(b"k", W, 0, &mut record);
        assert!(decode_values(&record).unwrap().is_empty());
    }

    #[test]
    fn truncated_header_is_error() {
        let mut buf = Vec::new();
        ValueRun::default().encode_record_into(b"k", W, i64::MAX, &mut buf);
        // Every cut short of the value count fails to decode.
        for cut in 0..buf.len() - 1 {
            let mut dec = Decoder::new(&buf[..cut]);
            assert!(read_header(&mut dec).is_err(), "cut at {cut}");
        }
    }
}
