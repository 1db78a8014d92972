//! Key-range partitioning for sharded multi-worker execution.
//!
//! The cluster coordinator shards a job's key space across N workers.
//! Rather than `hash % N` (which reshuffles almost every key when N
//! changes), the [`KeyRangePartitioner`] divides the 64-bit hash space
//! into N contiguous ranges via the multiply-shift trick:
//!
//! ```text
//! shard(key) = (hash(key) as u128 * N as u128) >> 64
//! ```
//!
//! Contiguity is what makes **live rescaling** cheap: the state owned by
//! a worker is exactly one hash interval, so an N→M rescale is an
//! interval-intersection problem — each old shard's state splits into at
//! most `ceil(M/N) + 1` new shards, and each new shard merges pieces
//! from at most `ceil(N/M) + 1` old shards. Combined with FlowKV's
//! single-writer-per-partition layout (every store instance is owned by
//! one thread, so its logs can be scanned without coordination), split
//! and merge reduce to sequential scans filtered by hash range.
//!
//! The hash is seeded differently from the worker placement
//! ([`flowkv_common::hash::partition_of`]) and from the store-instance
//! placement ([`crate::partition::Partitioned`]) so the three levels of
//! partitioning (shard, worker within the shard, store instance within
//! the worker) stay decorrelated.

use std::ops::RangeInclusive;

use flowkv_common::hash::hash64_seeded;

/// Seed decorrelating the shard hash from the worker hash
/// (`partition_of` uses `0x5157`) and the store-instance hash.
pub const RANGE_SEED: u64 = 0x4b52_414e_4745_5331;

/// Divides the 64-bit key-hash space into `n` contiguous ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRangePartitioner {
    shards: usize,
}

impl KeyRangePartitioner {
    /// A partitioner over `shards` contiguous hash ranges.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        KeyRangePartitioner { shards }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The seeded hash that positions `key` in the shared range space.
    ///
    /// All range filters (store extraction, migration routing) must use
    /// this exact hash so a key's shard assignment is consistent across
    /// every layer.
    pub fn key_hash(key: &[u8]) -> u64 {
        hash64_seeded(key, RANGE_SEED)
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.shard_of_hash(Self::key_hash(key))
    }

    /// The shard owning hash position `h`.
    pub fn shard_of_hash(&self, h: u64) -> usize {
        ((u128::from(h) * self.shards as u128) >> 64) as usize
    }

    /// The inclusive hash range `[lo, hi]` owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn range(&self, shard: usize) -> (u64, u64) {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        let n = self.shards as u128;
        let lo = ((shard as u128) << 64).div_ceil(n);
        let hi = (((shard as u128 + 1) << 64).div_ceil(n)) - 1;
        (lo as u64, hi as u64)
    }

    /// The shards of `self` whose ranges intersect `[lo, hi]`.
    ///
    /// With `self` at the *new* parallelism and `[lo, hi]` an *old*
    /// shard's range, this is the migration fan-out: the set of new
    /// workers that receive a piece of that old shard's state.
    pub fn covering(&self, lo: u64, hi: u64) -> RangeInclusive<usize> {
        self.shard_of_hash(lo)..=self.shard_of_hash(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let p = KeyRangePartitioner::new(1);
        assert_eq!(p.range(0), (0, u64::MAX));
        assert_eq!(p.shard_of(b"anything"), 0);
    }

    #[test]
    fn ranges_are_disjoint_and_cover_the_space() {
        for n in [1usize, 2, 3, 4, 7, 8, 16] {
            let p = KeyRangePartitioner::new(n);
            let mut next = 0u64;
            for s in 0..n {
                let (lo, hi) = p.range(s);
                assert_eq!(lo, next, "gap or overlap before shard {s} of {n}");
                assert!(lo <= hi);
                // Boundary hashes land in exactly this shard.
                assert_eq!(p.shard_of_hash(lo), s);
                assert_eq!(p.shard_of_hash(hi), s);
                if s + 1 < n {
                    assert_eq!(p.shard_of_hash(hi + 1), s + 1);
                    next = hi + 1;
                } else {
                    assert_eq!(hi, u64::MAX, "last shard must end the space");
                }
            }
        }
    }

    #[test]
    fn shard_of_matches_range_membership() {
        for n in [2usize, 3, 5, 8] {
            let p = KeyRangePartitioner::new(n);
            for i in 0..1000u32 {
                let key = i.to_le_bytes();
                let s = p.shard_of(&key);
                let (lo, hi) = p.range(s);
                let h = KeyRangePartitioner::key_hash(&key);
                assert!((lo..=hi).contains(&h));
            }
        }
    }

    #[test]
    fn doubling_splits_each_shard_in_place() {
        // Contiguous ranges nest under doubling: old shard s at N=2
        // becomes exactly new shards {2s, 2s+1} at N=4.
        let old = KeyRangePartitioner::new(2);
        let new = KeyRangePartitioner::new(4);
        for s in 0..2 {
            let (lo, hi) = old.range(s);
            assert_eq!(new.covering(lo, hi), (2 * s)..=(2 * s + 1));
        }
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let p = KeyRangePartitioner::new(4);
        let mut counts = vec![0usize; 4];
        for i in 0..4000u32 {
            counts[p.shard_of(&i.to_le_bytes())] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn decorrelated_from_store_instance_placement() {
        // Keys in one worker shard must still spread over store
        // instances; a correlated hash would map a shard to one instance.
        let p = KeyRangePartitioner::new(2);
        let instances = crate::partition::Partitioned::new(vec![(); 2]);
        let mut insts = [0usize; 2];
        for i in 0..2000u32 {
            let key = i.to_le_bytes();
            if p.shard_of(&key) == 0 {
                insts[instances.index_of(&key)] += 1;
            }
        }
        assert!(insts[0] > 100 && insts[1] > 100, "correlated: {insts:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_panics() {
        let _ = KeyRangePartitioner::new(0);
    }
}
