//! Index-log entries of the AUR store (paper §4.2, "On Disk Index Log
//! File").
//!
//! When the write buffer flushes, each `(key, window)` group becomes one
//! record in the global data log plus one entry in the append-only index
//! log. Index entries carry everything predictive batch read needs —
//! key, window metadata, the maximum tuple timestamp (for rebuilding
//! trigger-time estimates after recovery), and the data record's location.

use flowkv_common::backend::ValueSink;
use flowkv_common::codec::{
    put_len_prefixed, put_u64, put_varint_i64, put_varint_u64, DecodeError, Decoder,
};
use flowkv_common::error::Result;
use flowkv_common::types::{Timestamp, WindowId};

/// One entry of the on-disk index log, its key borrowed from the record
/// payload (or from the flushing window), so scans copy nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry<'a> {
    /// The tuple key.
    pub key: &'a [u8],
    /// The initial window boundary (fixed at window creation, §4.2).
    pub window: WindowId,
    /// Largest tuple timestamp in the flushed group.
    pub max_ts: Timestamp,
    /// Offset of the data record in the data log.
    pub offset: u64,
    /// On-disk length of the data record, header included.
    pub len: u64,
    /// Number of values inside the data record.
    pub count: u64,
}

impl<'a> IndexEntry<'a> {
    /// Appends the entry's log-record payload to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        put_len_prefixed(buf, self.key);
        self.window.encode_to(buf);
        put_varint_i64(buf, self.max_ts);
        put_u64(buf, self.offset);
        put_u64(buf, self.len);
        put_varint_u64(buf, self.count);
    }

    /// Parses an entry from a log-record payload.
    pub fn decode(payload: &'a [u8]) -> std::result::Result<Self, DecodeError> {
        Self::decode_from(&mut Decoder::new(payload))
    }

    /// Parses the next of several entries encoded back to back.
    pub fn decode_from(dec: &mut Decoder<'a>) -> std::result::Result<Self, DecodeError> {
        let key = dec.get_len_prefixed()?;
        let window = WindowId::decode_from(dec)?;
        let max_ts = dec.get_varint_i64()?;
        let offset = dec.get_u64()?;
        let len = dec.get_u64()?;
        let count = dec.get_varint_u64()?;
        Ok(IndexEntry {
            key,
            window,
            max_ts,
            offset,
            len,
            count,
        })
    }
}

/// Values of one window — buffered since its last flush, or prefetched
/// from its disk records — in data-record form: each length-prefixed,
/// back to back, so an append copies into one growing allocation and a
/// flush writes the run (and extends a prefetched one) as it stands.
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
        self.count += dec.get_varint_u64()?;
        self.bytes.extend_from_slice(&payload[dec.position()..]);
        Ok(())
    }

    /// Appends `other`'s values.
    pub fn extend(&mut self, other: &ValueRun) {
        self.count += other.count;
        self.bytes.extend_from_slice(&other.bytes);
    }

    /// Encodes the run as a data-log record payload into `buf`, cleared
    /// first (the flush path reuses one buffer across groups).
    pub fn encode_record_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
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

    /// The values of a data-log record payload, as a batch read loads them.
    fn decode_values(payload: &[u8]) -> Result<Vec<Vec<u8>>> {
        let mut run = ValueRun::default();
        run.push_record(payload)?;
        let mut out = Vec::new();
        run.decode_into(&mut out)?;
        Ok(out)
    }

    fn encoded(entry: &IndexEntry<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        entry.encode_to(&mut buf);
        buf
    }

    #[test]
    fn entry_roundtrip() {
        let e = IndexEntry {
            key: b"user-42",
            window: WindowId::new(-10, 500),
            max_ts: 499,
            offset: 12345,
            len: 678,
            count: 9,
        };
        let buf = encoded(&e);
        let decoded = IndexEntry::decode(&buf).unwrap();
        assert_eq!(decoded, e);
        // The key is a view into the payload, not a copy.
        assert!(buf.as_ptr_range().contains(&decoded.key.as_ptr()));
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
        run.encode_record_into(&mut record);
        assert_eq!(decode_values(&record).unwrap(), values);
        let mut out = vec![b"before".to_vec()];
        run.decode_into(&mut out).unwrap();
        assert_eq!(out[0], b"before");
        assert_eq!(&out[1..], &values[..]);
        run.flushed();
        assert_eq!(run.count(), 0);
        run.encode_record_into(&mut record);
        assert!(decode_values(&record).unwrap().is_empty());
    }

    #[test]
    fn truncated_entry_is_error() {
        let e = IndexEntry {
            key: b"k",
            window: WindowId::new(0, 1),
            max_ts: 0,
            offset: 0,
            len: 0,
            count: 0,
        };
        let buf = encoded(&e);
        assert!(IndexEntry::decode(&buf[..buf.len() - 1]).is_err());
    }
}
