//! Key hashing shared by hash indexes, write buffers, and partitioning.
//!
//! A single hash function is used everywhere a store or the engine needs
//! to place a key: FNV-1a over the bytes followed by a splitmix64
//! finalizer to break up the weak avalanche of plain FNV. It is seedable
//! so different structures (e.g. a hash index vs. the partitioner) can
//! decorrelate their bucket choices.
//!
//! [`KeyHash`] is the other hash: the in-memory tables probed once per
//! tuple (the stores' per-key tables, the byte dictionaries of
//! [`crate::dict`]) hash under it, seeded per table.

use std::hash::{BuildHasher, Hasher, RandomState};

/// 64-bit hash of `data` with the default seed.
pub fn hash64(data: &[u8]) -> u64 {
    hash64_seeded(data, 0)
}

/// 64-bit hash of `data` mixed with `seed`.
pub fn hash64_seeded(data: &[u8], seed: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(h)
}

/// Finalizing mixer from the splitmix64 generator.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Assigns `key` to one of `n` partitions.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn partition_of(key: &[u8], n: usize) -> usize {
    assert!(n > 0, "partition count must be positive");
    (hash64_seeded(key, 0x5157) % n as u64) as usize
}

/// Hash state of the in-memory key tables: a multiply-fold over
/// eight-byte words, a fraction of SipHash's cost on short keys. Keys are
/// stream data, so every table draws its seed from the process's
/// `RandomState`.
pub struct KeyHash(u64);

impl Default for KeyHash {
    fn default() -> Self {
        KeyHash(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for KeyHash {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

/// The hasher of [`KeyHash`].
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    /// Folds the halves of a 128-bit product into the state per word, so
    /// every input bit reaches the low bits (the bucket) and the high ones
    /// (the tag). A slice hashes its length first: padding is unambiguous.
    /// `#[inline]`: the tables that hash under it live in other crates.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let product = u128::from(self.0 ^ u64::from_le_bytes(word)) * 0x9e37_79b9_7f4a_7c15;
            self.0 = (product as u64) ^ ((product >> 64) as u64);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(b"abc"), hash64(b"abc"));
        assert_ne!(hash64(b"abc"), hash64(b"abd"));
    }

    #[test]
    fn seed_decorrelates() {
        assert_ne!(hash64_seeded(b"abc", 1), hash64_seeded(b"abc", 2));
    }

    #[test]
    fn partition_in_range() {
        for i in 0..1000u32 {
            let key = i.to_le_bytes();
            let p = partition_of(&key, 7);
            assert!(p < 7);
        }
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let n = 4;
        let mut counts = vec![0usize; n];
        for i in 0..4000u32 {
            counts[partition_of(&i.to_le_bytes(), n)] += 1;
        }
        for &c in &counts {
            // Each of 4 partitions should get 1000 +- 20 % of 4000 keys.
            assert!((800..=1200).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_partitions_panics() {
        let _ = partition_of(b"x", 0);
    }
}
