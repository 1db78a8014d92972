//! The exchange's unit of transfer: a micro-batch of tuples held as one
//! byte arena plus fixed-size rows.
//!
//! A sender appends the key and value bytes of each tuple it emits to
//! the arena and records where they start; the receiver lends them back
//! as [`TupleRef`]s. A batch is two allocations — the arena and the row
//! table — however many tuples it carries, and a tuple's bytes are
//! allocated by no one between the stateless stage that emits them and
//! the store that copies them.

use flowkv_common::types::{Timestamp, TupleRef};

/// Where one tuple's bytes sit in the arena, and its stamps.
#[derive(Clone, Copy, Debug)]
struct Row {
    /// Arena offset of the key; the value follows it. A `usize`, so an
    /// offset never wraps however large the batch grows.
    start: usize,
    key_len: u32,
    val_len: u32,
    timestamp: Timestamp,
    /// Wall-clock nanoseconds (from the run's epoch) at source departure.
    origin: u64,
}

impl Row {
    fn key<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.start..self.start + self.key_len as usize]
    }

    fn value<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        let at = self.start + self.key_len as usize;
        &bytes[at..at + self.val_len as usize]
    }
}

/// A micro-batch of tuples, each with the origin stamp it left the
/// source with (one latency sample per tuple, never per batch).
///
/// # Examples
///
/// ```
/// use flowkv_spe::TupleBatch;
///
/// let mut batch = TupleBatch::default();
/// batch.push(b"k", b"v", 7, 100);
/// let (tuple, origin) = batch.iter().next().unwrap();
/// assert_eq!((tuple.key, tuple.value, tuple.timestamp, origin), (&b"k"[..], &b"v"[..], 7, 100));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TupleBatch {
    bytes: Vec<u8>,
    rows: Vec<Row>,
}

impl TupleBatch {
    /// An empty batch with room for `rows` tuples of `bytes` bytes in all.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        TupleBatch {
            bytes: Vec::with_capacity(bytes),
            rows: Vec::with_capacity(rows),
        }
    }

    /// Appends a copy of one tuple's bytes.
    ///
    /// # Panics
    ///
    /// Panics if the key or the value is 4 GiB or longer.
    pub fn push(&mut self, key: &[u8], value: &[u8], timestamp: Timestamp, origin: u64) {
        let len = |part: &[u8]| u32::try_from(part.len()).expect("tuple part under 4 GiB");
        self.rows.push(Row {
            start: self.bytes.len(),
            key_len: len(key),
            val_len: len(value),
            timestamp,
            origin,
        });
        self.bytes.extend_from_slice(key);
        self.bytes.extend_from_slice(value);
    }

    /// Tuples in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the batch holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Bytes the arena can hold before it grows.
    pub(crate) fn byte_capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Every tuple with its origin stamp, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TupleRef<'_>, u64)> + '_ {
        self.rows.iter().map(|row| {
            let tuple = TupleRef {
                key: row.key(&self.bytes),
                value: row.value(&self.bytes),
                timestamp: row.timestamp,
            };
            (tuple, row.origin)
        })
    }

    /// Sorts the rows by key, keeping each key's tuples in the order
    /// they were pushed. The bytes do not move.
    pub fn sort_by_key_stable(&mut self) {
        let bytes = &self.bytes;
        self.rows.sort_by(|a, b| a.key(bytes).cmp(b.key(bytes)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::types::Tuple;

    fn owned(batch: &TupleBatch) -> Vec<(Tuple, u64)> {
        batch
            .iter()
            .map(|(t, origin)| (t.to_tuple(), origin))
            .collect()
    }

    #[test]
    fn tuples_round_trip_with_their_stamps() {
        let tuples = [
            Tuple::new(b"key-1".to_vec(), b"a value".to_vec(), -3),
            Tuple::new(vec![0; 300], vec![7; 70_000], i64::MAX),
            Tuple::new(b"k".to_vec(), b"v".to_vec(), 0),
        ];
        let mut batch = TupleBatch::default();
        for (origin, t) in tuples.iter().enumerate() {
            batch.push(&t.key, &t.value, t.timestamp, origin as u64 * 10);
        }
        assert_eq!(batch.len(), 3);
        let expect: Vec<(Tuple, u64)> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u64 * 10))
            .collect();
        assert_eq!(owned(&batch), expect);
    }

    #[test]
    fn an_empty_key_or_value_is_a_row_of_its_own() {
        let mut batch = TupleBatch::default();
        batch.push(b"", b"value", 1, 0);
        batch.push(b"key", b"", 2, 0);
        batch.push(b"", b"", 3, 0);
        batch.push(b"", b"", 4, 0);
        let got: Vec<(&[u8], &[u8], i64)> = batch
            .iter()
            .map(|(t, _)| (t.key, t.value, t.timestamp))
            .collect();
        let expect: [(&[u8], &[u8], i64); 4] = [
            (b"", b"value", 1),
            (b"key", b"", 2),
            (b"", b"", 3),
            (b"", b"", 4),
        ];
        assert_eq!(got, expect);
        assert!(TupleBatch::default().is_empty());
    }

    #[test]
    fn the_key_sort_is_stable() {
        let mut batch = TupleBatch::default();
        // Keys of different lengths, each repeated out of order; the
        // value records the arrival position.
        let keys: [&[u8]; 8] = [b"b", b"a", b"bb", b"a", b"", b"b", b"a", b""];
        for (i, key) in keys.iter().enumerate() {
            batch.push(key, &[i as u8], i as i64, i as u64);
        }
        batch.sort_by_key_stable();
        let got: Vec<(&[u8], u8, u64)> = batch
            .iter()
            .map(|(t, origin)| (t.key, t.value[0], origin))
            .collect();
        let expect: [(&[u8], u8, u64); 8] = [
            (b"", 4, 4),
            (b"", 7, 7),
            (b"a", 1, 1),
            (b"a", 3, 3),
            (b"a", 6, 6),
            (b"b", 0, 0),
            (b"b", 5, 5),
            (b"bb", 2, 2),
        ];
        assert_eq!(got, expect);
    }
}
