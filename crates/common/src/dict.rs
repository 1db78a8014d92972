//! Byte strings by number, and rows grouped by number: what the cold-block
//! writer ([`crate::columnar`]) and the window operator's trigger both
//! build from pairs a store lends them, without a `Vec` per pair.

use std::hash::BuildHasher;

use crate::error::StoreError;
use crate::hash::KeyHash;

/// The most bytes a [`ByteDict`] holds: string ends are `u32`. Unit tests
/// cap it low, so that a refusal costs no 4 GiB.
const MAX_BYTES: usize = if cfg!(test) {
    1 << 16
} else {
    u32::MAX as usize
};

/// A [`ByteDict`]'s refusal: its strings would pass 4 GiB together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DictFull {
    /// The bytes the dictionary would have held.
    pub bytes: usize,
}

impl From<DictFull> for StoreError {
    #[cold]
    fn from(e: DictFull) -> Self {
        StoreError::invalid_state(format!(
            "{} bytes of strings to number, more than the {MAX_BYTES} a u32 ends",
            e.bytes
        ))
    }
}

/// Byte strings held back to back in one allocation and numbered in the
/// order they came. [`ByteDict::intern`] gives an equal string the number
/// it already has (one [`KeyHash`] probe with the borrowed bytes);
/// [`ByteDict::push`] numbers a string without looking. A string that
/// would take the dictionary past 4 GiB is refused, and the
/// dictionary is left as it was.
#[derive(Default)]
pub struct ByteDict {
    hash: KeyHash,
    bytes: Vec<u8>,
    /// Where each string ends in `bytes`; it starts where the one before
    /// it ends.
    ends: Vec<u32>,
    /// Open-addressed index of the interned strings, a power of two long:
    /// the hash's high half as a tag above the string's number plus one,
    /// `0` for an empty slot. A tag's low bits pick the first slot tried.
    slots: Vec<u64>,
    interned: usize,
}

impl ByteDict {
    /// The number of `bytes`: the one an earlier `intern` of equal bytes
    /// returned, or the next.
    pub fn intern(&mut self, bytes: &[u8]) -> Result<u32, DictFull> {
        if (self.interned + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = (self.hash.hash_one(bytes) >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                let id = self.push(bytes)?;
                self.slots[at] = u64::from(tag) << 32 | u64::from(id + 1);
                self.interned += 1;
                return Ok(id);
            }
            if (slot >> 32) as u32 == tag && self.get(slot as u32 - 1) == bytes {
                return Ok(slot as u32 - 1);
            }
            at = (at + 1) & mask;
        }
    }

    /// Gives `bytes` the next number, equal to an earlier string or not.
    pub fn push(&mut self, bytes: &[u8]) -> Result<u32, DictFull> {
        let end = self.bytes.len() + bytes.len();
        if end > MAX_BYTES {
            return Err(DictFull { bytes: end });
        }
        self.bytes.extend_from_slice(bytes);
        self.ends.push(end as u32);
        Ok((self.ends.len() - 1) as u32)
    }

    /// The string numbered `id`.
    pub fn get(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.bytes[start as usize..self.ends[id] as usize]
    }

    /// How many strings are numbered.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no string is numbered.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every string, keeping the allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        if self.interned > 0 {
            self.slots.fill(0);
            self.interned = 0;
        }
    }

    /// Doubles the index; a slot's tag says where it goes.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let mut at = (slot >> 32) as usize & (len - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = slot;
        }
    }
}

/// [`group_stable`]'s refusal: positions and counts are `u32`, so it
/// groups at most `u32::MAX` positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooManyPositions {
    /// The number of positions asked for.
    pub n: usize,
}

impl From<TooManyPositions> for StoreError {
    #[cold]
    fn from(e: TooManyPositions) -> Self {
        StoreError::invalid_state(format!(
            "{} positions to group, more than the {} a u32 numbers",
            e.n,
            u32::MAX
        ))
    }
}

/// Stable counting sort of the positions `0..n` by `bucket_of`, which
/// answers below `buckets`: on return `order` lists the positions bucket
/// by bucket, each bucket's ascending, and bucket `b` is
/// `order[starts[b]..starts[b + 1]]`. More than `u32::MAX` positions are
/// refused before anything is allocated or `bucket_of` called.
pub fn group_stable(
    n: usize,
    buckets: usize,
    bucket_of: impl Fn(usize) -> u32,
    starts: &mut Vec<u32>,
    order: &mut Vec<u32>,
) -> Result<(), TooManyPositions> {
    if u32::try_from(n).is_err() {
        return Err(TooManyPositions { n });
    }
    starts.clear();
    starts.resize(buckets + 1, 0);
    for at in 0..n {
        starts[bucket_of(at) as usize + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    order.clear();
    order.resize(n, 0);
    for at in 0..n {
        let next = &mut starts[bucket_of(at) as usize];
        order[*next as usize] = at as u32;
        *next += 1;
    }
    // Every start has moved to its bucket's end, the next bucket's start.
    starts.rotate_right(1);
    starts[0] = 0;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_numbers_distinct_strings_in_arrival_order() {
        let mut dict = ByteDict::default();
        let words: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("w{}", i % 170).into_bytes())
            .collect();
        for (i, word) in words.iter().enumerate() {
            assert_eq!(dict.intern(word), Ok((i % 170) as u32), "{i}");
        }
        assert_eq!(dict.len(), 170);
        assert_eq!(dict.get(0), b"w0");
        assert_eq!(dict.get(169), b"w169");
        // The empty string is a string; `push` never looks.
        let empty = dict.intern(b"").unwrap();
        assert_eq!(
            (empty, dict.intern(b""), dict.get(empty)),
            (170, Ok(170), &[][..])
        );
        assert_eq!(dict.push(b"w0"), Ok(171));
        assert_eq!(dict.intern(b"w0"), Ok(0));
        dict.clear();
        assert!(dict.is_empty());
        assert_eq!(dict.intern(b"w9"), Ok(0));
    }

    #[test]
    fn a_string_past_the_byte_cap_is_refused_and_leaves_the_dictionary_as_it_was() {
        let mut dict = ByteDict::default();
        let half = vec![7u8; MAX_BYTES / 2];
        assert_eq!(dict.push(&half), Ok(0));
        assert_eq!(dict.intern(b"a"), Ok(1));
        let refused = DictFull {
            bytes: MAX_BYTES + 1,
        };
        let rest = vec![8u8; MAX_BYTES - half.len()];
        assert_eq!(dict.push(&rest), Err(refused));
        assert_eq!(dict.intern(&rest), Err(refused));
        assert_eq!((dict.len(), dict.get(1)), (2, &b"a"[..]));
        // What fits still does, up to the last byte.
        assert_eq!(dict.intern(&rest[1..]), Ok(2));
        assert_eq!(dict.push(b""), Ok(3));
        assert_eq!(
            dict.push(b"b"),
            Err(DictFull {
                bytes: MAX_BYTES + 1
            })
        );
        assert_eq!(dict.intern(&rest[1..]), Ok(2), "interned before");
        dict.clear();
        assert_eq!(dict.push(&rest), Ok(0));
        let error = StoreError::from(refused);
        assert!(
            matches!(error, StoreError::InvalidState { .. }),
            "{error:?}"
        );
        assert!(error.to_string().contains("bytes of strings"), "{error}");
    }

    #[test]
    fn grouping_is_stable_and_leaves_empty_buckets_empty() {
        let buckets = [2u32, 0, 2, 4, 0, 2];
        let (mut starts, mut order) = (Vec::new(), Vec::new());
        group_stable(6, 5, |at| buckets[at], &mut starts, &mut order).unwrap();
        assert_eq!(order, [1, 4, 0, 2, 5, 3]);
        assert_eq!(starts, [0, 2, 2, 5, 5, 6]);
        group_stable(0, 0, |_| unreachable!(), &mut starts, &mut order).unwrap();
        assert_eq!((starts.as_slice(), order.len()), (&[0][..], 0));
    }

    #[test]
    fn grouping_more_positions_than_a_u32_numbers_is_refused_before_allocating() {
        let n = u32::MAX as usize + 1;
        let (mut starts, mut order) = (Vec::new(), Vec::new());
        let refused = group_stable(n, 1, |_| unreachable!(), &mut starts, &mut order);
        assert_eq!(refused, Err(TooManyPositions { n }));
        assert_eq!((starts.capacity(), order.capacity()), (0, 0));
    }

    #[test]
    fn a_refused_grouping_is_an_invalid_state_naming_the_count() {
        let n = u32::MAX as usize + 1;
        let error = StoreError::from(TooManyPositions { n });
        assert!(
            matches!(error, StoreError::InvalidState { .. }),
            "{error:?}"
        );
        assert!(
            error.to_string().contains("4294967296 positions"),
            "{error}"
        );
    }
}
