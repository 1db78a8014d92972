//! Core vocabulary: timestamps, windows, and timestamped key-value tuples.
//!
//! Streaming applications process infinite streams of timestamped
//! key-value tuples `e = (k, v, t)` (paper §2.1). Window operations group
//! tuples into finite windows, each described by a half-open event-time
//! interval `[start, end)`.

use std::fmt;

use crate::codec::{self, DecodeError, Decoder};
use crate::error::Result;

/// Event-time instant in milliseconds since the epoch of the stream.
pub type Timestamp = i64;

/// Sentinel timestamp greater than every real timestamp.
///
/// Used as the watermark value that closes all remaining windows when a
/// bounded stream ends, mirroring Flink's `Watermark.MAX_WATERMARK`.
pub const MAX_TIMESTAMP: Timestamp = i64::MAX;

/// Sentinel timestamp smaller than every real timestamp.
pub const MIN_TIMESTAMP: Timestamp = i64::MIN;

/// A window identifier: the half-open event-time interval `[start, end)`.
///
/// Windows are the unit of state organization in every store of this
/// workspace. The FlowKV paper defines a window by its start and end time
/// boundaries (§2.1); tuples assigned to several windows are replicated by
/// the engine, one copy per window.
///
/// # Examples
///
/// ```
/// use flowkv_common::types::WindowId;
///
/// let w = WindowId::new(0, 100_000);
/// assert_eq!(w.length(), 100_000);
/// assert!(w.contains(99_999));
/// assert!(!w.contains(100_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId {
    /// Inclusive start of the window in event time.
    pub start: Timestamp,
    /// Exclusive end of the window in event time.
    pub end: Timestamp,
}

impl WindowId {
    /// Encoded size of a window identifier in bytes.
    pub const ENCODED_LEN: usize = 16;

    /// Creates a window for the half-open interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`; a window must be a valid interval.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "window start {start} exceeds end {end}");
        WindowId { start, end }
    }

    /// The window covering all of event time (global windows, paper Q12).
    pub fn global() -> Self {
        WindowId {
            start: MIN_TIMESTAMP,
            end: MAX_TIMESTAMP,
        }
    }

    /// Length of the window in event-time milliseconds.
    ///
    /// Saturates for the global window.
    pub fn length(&self) -> i64 {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` if `ts` falls inside the half-open interval.
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.start <= ts && ts < self.end
    }

    /// Returns `true` if the two windows overlap in event time.
    pub fn intersects(&self, other: &WindowId) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Returns the smallest window covering both `self` and `other`.
    pub fn cover(&self, other: &WindowId) -> WindowId {
        WindowId {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Appends the fixed-width encoding of the window to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        codec::put_i64(buf, self.start);
        codec::put_i64(buf, self.end);
    }

    /// Decodes a window previously written by [`WindowId::encode_to`].
    #[inline]
    pub fn decode_from(dec: &mut Decoder<'_>) -> std::result::Result<Self, DecodeError> {
        let start = dec.get_i64()?;
        let end = dec.get_i64()?;
        Ok(WindowId { start, end })
    }

    /// Encodes the window into a big-endian byte key that sorts the same
    /// way the window orders by `(start, end)`.
    ///
    /// Baseline stores use this as the window portion of their composite
    /// keys so that range scans over a window prefix are contiguous.
    pub fn to_ordered_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&order_preserving(self.start));
        out[8..].copy_from_slice(&order_preserving(self.end));
        out
    }

    /// Decodes a window from the encoding of [`WindowId::to_ordered_bytes`].
    pub fn from_ordered_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 16 {
            return Err(crate::error::StoreError::UnexpectedEof { what: "WindowId" });
        }
        let start = from_order_preserving(&bytes[..8]);
        let end = from_order_preserving(&bytes[8..16]);
        Ok(WindowId { start, end })
    }
}

impl fmt::Debug for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Maps an `i64` to big-endian bytes whose lexicographic order matches the
/// numeric order (sign bit flipped).
fn order_preserving(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Inverse of [`order_preserving`].
fn from_order_preserving(bytes: &[u8]) -> i64 {
    let mut arr = [0u8; 8];
    arr.copy_from_slice(&bytes[..8]);
    (u64::from_be_bytes(arr) ^ (1u64 << 63)) as i64
}

/// A timestamped key-value tuple `e = (k, v, t)` flowing through the engine.
///
/// # Examples
///
/// ```
/// use flowkv_common::types::Tuple;
///
/// let t = Tuple::new(b"user-7".to_vec(), b"bid:42".to_vec(), 1_000);
/// assert_eq!(t.key, b"user-7");
/// assert_eq!(t.timestamp, 1_000);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tuple {
    /// Partitioning key of the tuple.
    pub key: Vec<u8>,
    /// Opaque serialized value.
    pub value: Vec<u8>,
    /// Event-time timestamp.
    pub timestamp: Timestamp,
}

impl Tuple {
    /// Creates a tuple from its three components.
    pub fn new(key: Vec<u8>, value: Vec<u8>, timestamp: Timestamp) -> Self {
        Tuple {
            key,
            value,
            timestamp,
        }
    }

    /// The tuple lent as slices of its own buffers.
    pub fn borrowed(&self) -> TupleRef<'_> {
        TupleRef {
            key: &self.key,
            value: &self.value,
            timestamp: self.timestamp,
        }
    }

    /// Approximate in-memory footprint of the tuple in bytes.
    pub fn memory_size(&self) -> usize {
        self.key.len() + self.value.len() + std::mem::size_of::<Timestamp>()
    }

    /// Appends a length-prefixed encoding of the tuple to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        codec::put_len_prefixed(buf, &self.key);
        codec::put_len_prefixed(buf, &self.value);
        codec::put_varint_i64(buf, self.timestamp);
    }

    /// Decodes a tuple previously written by [`Tuple::encode_to`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        let key = dec.get_len_prefixed()?.to_vec();
        let value = dec.get_len_prefixed()?.to_vec();
        let timestamp = dec.get_varint_i64()?;
        Ok(Tuple {
            key,
            value,
            timestamp,
        })
    }
}

/// A tuple whose key and value are lent, not owned: what the engine
/// passes from a stateless stage or an exchange batch to the store,
/// which copies the bytes it keeps.
///
/// # Examples
///
/// ```
/// use flowkv_common::types::Tuple;
///
/// let t = Tuple::new(b"user-7".to_vec(), b"bid:42".to_vec(), 1_000);
/// let lent = t.borrowed();
/// assert_eq!(lent.key, b"user-7");
/// assert_eq!(lent.to_tuple(), t);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TupleRef<'a> {
    /// Partitioning key of the tuple.
    pub key: &'a [u8],
    /// Opaque serialized value.
    pub value: &'a [u8],
    /// Event-time timestamp.
    pub timestamp: Timestamp,
}

impl TupleRef<'_> {
    /// Copies the lent bytes into an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.key.to_vec(), self.value.to_vec(), self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_half_open() {
        let w = WindowId::new(10, 20);
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(!w.contains(9));
    }

    #[test]
    fn window_intersection() {
        let a = WindowId::new(0, 10);
        let b = WindowId::new(9, 15);
        let c = WindowId::new(10, 15);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn window_cover_is_union_hull() {
        let a = WindowId::new(0, 10);
        let b = WindowId::new(5, 30);
        assert_eq!(a.cover(&b), WindowId::new(0, 30));
    }

    #[test]
    fn global_window_contains_everything() {
        let g = WindowId::global();
        assert!(g.contains(0));
        assert!(g.contains(MAX_TIMESTAMP - 1));
        assert!(g.contains(MIN_TIMESTAMP));
    }

    #[test]
    #[should_panic(expected = "exceeds end")]
    fn inverted_window_panics() {
        let _ = WindowId::new(5, 4);
    }

    #[test]
    fn window_roundtrip_codec() {
        let w = WindowId::new(-77, 1_000_000);
        let mut buf = Vec::new();
        w.encode_to(&mut buf);
        assert_eq!(buf.len(), WindowId::ENCODED_LEN);
        let mut dec = Decoder::new(&buf);
        assert_eq!(WindowId::decode_from(&mut dec).unwrap(), w);
    }

    #[test]
    fn ordered_bytes_preserve_ordering() {
        let windows = [
            WindowId::new(MIN_TIMESTAMP, -5),
            WindowId::new(-100, 0),
            WindowId::new(-100, 50),
            WindowId::new(0, 1),
            WindowId::new(7, 20),
            WindowId::new(7, MAX_TIMESTAMP),
        ];
        for pair in windows.windows(2) {
            let a = pair[0].to_ordered_bytes();
            let b = pair[1].to_ordered_bytes();
            assert!(a < b, "{:?} !< {:?}", pair[0], pair[1]);
        }
        for w in windows {
            assert_eq!(
                WindowId::from_ordered_bytes(&w.to_ordered_bytes()).unwrap(),
                w
            );
        }
    }

    #[test]
    fn tuple_roundtrip_codec() {
        let t = Tuple::new(b"k".to_vec(), vec![0u8; 300], -42);
        let mut buf = Vec::new();
        t.encode_to(&mut buf);
        let mut dec = Decoder::new(&buf);
        assert_eq!(Tuple::decode_from(&mut dec).unwrap(), t);
        assert!(dec.is_empty());
    }

    #[test]
    fn tuple_memory_size_counts_payload() {
        let t = Tuple::new(vec![0; 4], vec![0; 10], 0);
        assert_eq!(t.memory_size(), 4 + 10 + 8);
    }
}
