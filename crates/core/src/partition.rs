//! Sub-partitioning of one operator's state into `m` store instances
//! (paper §3).
//!
//! FlowKV splits each physical operator's key space `Kᵢ` into
//! `K_{i,0} … K_{i,m−1}` and deploys an independent store instance per
//! slice. Compaction then runs per instance on a fraction of the state,
//! which keeps individual compactions short and bounds latency spikes —
//! evaluated in the paper's tail-latency experiments (§6.2).

use flowkv_common::hash::hash64_seeded;

/// Seed of the instance hash ("FKVINST1"). The keys a store sees were
/// placed on its worker by `partition_of` (`0x5157`): under that seed,
/// worker `p` of `m` would feed instance `p` alone (DESIGN.md §5, "Two
/// placement levels").
const INSTANCE_SEED: u64 = 0x464b_5649_4e53_5431;

/// A fixed set of store instances addressed by key hash.
pub struct Partitioned<S> {
    instances: Vec<S>,
}

impl<S> Partitioned<S> {
    /// Wraps `instances`; the count is the `m` of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty.
    pub fn new(instances: Vec<S>) -> Self {
        assert!(!instances.is_empty(), "need at least one store instance");
        Partitioned { instances }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `false`; a partitioned store always has instances.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the instance responsible for `key`.
    pub fn index_of(&self, key: &[u8]) -> usize {
        (hash64_seeded(key, INSTANCE_SEED) % self.instances.len() as u64) as usize
    }

    /// The instance responsible for `key`.
    pub fn for_key(&mut self, key: &[u8]) -> &mut S {
        let idx = self.index_of(key);
        &mut self.instances[idx]
    }

    /// Iterates all instances.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.instances.iter_mut()
    }

    /// Iterates all instances immutably.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.instances.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let p = Partitioned::new(vec![0u8; 4]);
        for key in 0..100u32 {
            let a = p.index_of(&key.to_le_bytes());
            let b = p.index_of(&key.to_le_bytes());
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn for_key_returns_routed_instance() {
        let mut p = Partitioned::new(vec![0u32, 1, 2]);
        let idx = p.index_of(b"some-key");
        assert_eq!(*p.for_key(b"some-key"), idx as u32);
    }

    #[test]
    fn keys_spread_across_instances() {
        let p = Partitioned::new(vec![(); 4]);
        let mut seen = [false; 4];
        for key in 0..64u32 {
            seen[p.index_of(&key.to_le_bytes())] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "some instance never used: {seen:?}"
        );
    }

    #[test]
    fn every_instance_is_live_on_every_worker() {
        // What the executor hands worker `p` of `P` is the keys with
        // `partition_of(key, P) == p`: among those, each of the `m`
        // instances must still get at least half its fair share.
        use flowkv_common::hash::partition_of;
        for workers in [2usize, 3, 4, 8] {
            for m in [2usize, 4] {
                let p = Partitioned::new(vec![(); m]);
                for worker in 0..workers {
                    let mut counts = vec![0usize; m];
                    let keys = (0u32..).map(u32::to_le_bytes);
                    let mine = keys.filter(|key| partition_of(key, workers) == worker);
                    for key in mine.take(4000) {
                        counts[p.index_of(&key)] += 1;
                    }
                    assert!(
                        counts.iter().all(|&c| c >= 4000 / m / 2),
                        "worker {worker} of {workers}, m = {m}: {counts:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_partitioning_panics() {
        let _: Partitioned<u8> = Partitioned::new(vec![]);
    }
}
