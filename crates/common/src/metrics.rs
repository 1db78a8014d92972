//! Per-store operation accounting.
//!
//! The paper attributes execution time to query computation, store CPU,
//! and I/O (Figure 4), and further splits store time into write,
//! read & delete, and compaction (Figure 10). Every store in this
//! workspace carries a shared [`StoreMetrics`] and wraps its operations in
//! [`StoreMetrics::timer`] so the benchmark harnesses can regenerate those
//! breakdowns without an external profiler.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The operation categories of the paper's Figure 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCategory {
    /// Appends, puts, and write-buffer flushes.
    Write,
    /// Gets, window reads, and the deletes folded into fetch-and-remove.
    Read,
    /// Background reorganization: merges, compactions, log cleaning.
    Compaction,
}

/// Thread-safe counters for one store instance (or a whole store, when
/// shared across its partitions).
#[derive(Debug, Default)]
pub struct StoreMetrics {
    write_nanos: AtomicU64,
    read_nanos: AtomicU64,
    compaction_nanos: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    records_written: AtomicU64,
    records_read: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_misses: AtomicU64,
    prefetch_evictions: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
}

impl StoreMetrics {
    /// Creates a zeroed metrics block behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(StoreMetrics::default())
    }

    /// Starts a timer whose elapsed time is charged to `category` when the
    /// returned guard drops.
    pub fn timer(self: &Arc<Self>, category: OpCategory) -> OpTimer {
        OpTimer {
            metrics: Arc::clone(self),
            category,
            start: Instant::now(),
        }
    }

    /// Charges `nanos` of CPU-attributed time to `category`.
    pub fn record_nanos(&self, category: OpCategory, nanos: u64) {
        self.counter(category).fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records `n` bytes written to storage.
    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes read from storage.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` logical records written.
    pub fn add_records_written(&self, n: u64) {
        self.records_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` logical records read.
    pub fn add_records_read(&self, n: u64) {
        self.records_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a prefetch-buffer hit.
    pub fn add_prefetch_hit(&self) {
        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a prefetch-buffer miss.
    pub fn add_prefetch_miss(&self) {
        self.prefetch_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one prefetched copy dropped before a read used it: by the
    /// AUR store to hold its prefetch buffer to the byte budget (latest
    /// trigger-time estimate first), by the tier when a read lands for a
    /// window that is gone. An append evicts nothing (DESIGN.md §5).
    pub fn add_prefetch_eviction(&self) {
        self.prefetch_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a write-buffer flush.
    pub fn add_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed compaction.
    pub fn add_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            write_nanos: self.write_nanos.load(Ordering::Relaxed),
            read_nanos: self.read_nanos.load(Ordering::Relaxed),
            compaction_nanos: self.compaction_nanos.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            records_written: self.records_written.load(Ordering::Relaxed),
            records_read: self.records_read.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_misses: self.prefetch_misses.load(Ordering::Relaxed),
            prefetch_evictions: self.prefetch_evictions.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    fn counter(&self, category: OpCategory) -> &AtomicU64 {
        match category {
            OpCategory::Write => &self.write_nanos,
            OpCategory::Read => &self.read_nanos,
            OpCategory::Compaction => &self.compaction_nanos,
        }
    }
}

/// Guard that charges its lifetime to an [`OpCategory`] on drop.
pub struct OpTimer {
    metrics: Arc<StoreMetrics>,
    category: OpCategory,
    start: Instant,
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.metrics.record_nanos(self.category, nanos);
    }
}

/// A plain copy of every counter in a [`StoreMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Nanoseconds charged to writes.
    pub write_nanos: u64,
    /// Nanoseconds charged to reads and deletes.
    pub read_nanos: u64,
    /// Nanoseconds charged to compaction.
    pub compaction_nanos: u64,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Logical records written.
    pub records_written: u64,
    /// Logical records read.
    pub records_read: u64,
    /// Prefetch-buffer hits.
    pub prefetch_hits: u64,
    /// Prefetch-buffer misses.
    pub prefetch_misses: u64,
    /// Prefetched copies dropped unused: displaced by the byte budget
    /// (AUR) or landed for a window already gone (tier). Not the paper's
    /// evict-on-arrival count, which this store has no equivalent of.
    pub prefetch_evictions: u64,
    /// Write-buffer flushes.
    pub flushes: u64,
    /// Completed compactions.
    pub compactions: u64,
}

impl MetricsSnapshot {
    /// Total nanoseconds charged to the store across all categories.
    pub fn total_store_nanos(&self) -> u64 {
        self.write_nanos + self.read_nanos + self.compaction_nanos
    }

    /// Hit ratio of the prefetch buffer, or `None` before any lookup.
    pub fn prefetch_hit_ratio(&self) -> Option<f64> {
        let total = self.prefetch_hits + self.prefetch_misses;
        if total == 0 {
            None
        } else {
            Some(self.prefetch_hits as f64 / total as f64)
        }
    }

    /// Element-wise sum, used to merge snapshots across store instances.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            write_nanos: self.write_nanos + other.write_nanos,
            read_nanos: self.read_nanos + other.read_nanos,
            compaction_nanos: self.compaction_nanos + other.compaction_nanos,
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
            records_written: self.records_written + other.records_written,
            records_read: self.records_read + other.records_read,
            prefetch_hits: self.prefetch_hits + other.prefetch_hits,
            prefetch_misses: self.prefetch_misses + other.prefetch_misses,
            prefetch_evictions: self.prefetch_evictions + other.prefetch_evictions,
            flushes: self.flushes + other.flushes,
            compactions: self.compactions + other.compactions,
        }
    }

    /// Element-wise difference since an earlier snapshot.
    ///
    /// Saturating: snapshots taken out of order (or a merged snapshot
    /// diffed against a larger one) clamp to zero instead of panicking in
    /// debug builds.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            write_nanos: self.write_nanos.saturating_sub(earlier.write_nanos),
            read_nanos: self.read_nanos.saturating_sub(earlier.read_nanos),
            compaction_nanos: self
                .compaction_nanos
                .saturating_sub(earlier.compaction_nanos),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            records_written: self.records_written.saturating_sub(earlier.records_written),
            records_read: self.records_read.saturating_sub(earlier.records_read),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            prefetch_misses: self.prefetch_misses.saturating_sub(earlier.prefetch_misses),
            prefetch_evictions: self
                .prefetch_evictions
                .saturating_sub(earlier.prefetch_evictions),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            compactions: self.compactions.saturating_sub(earlier.compactions),
        }
    }

    /// Every counter as a `(name, value)` pair, in wire/display order.
    ///
    /// Shared by the serve-layer Prometheus renderer and anything else
    /// that wants to iterate the counters without naming all twelve.
    pub fn named(&self) -> [(&'static str, u64); 12] {
        [
            ("write_nanos", self.write_nanos),
            ("read_nanos", self.read_nanos),
            ("compaction_nanos", self.compaction_nanos),
            ("bytes_written", self.bytes_written),
            ("bytes_read", self.bytes_read),
            ("records_written", self.records_written),
            ("records_read", self.records_read),
            ("prefetch_hits", self.prefetch_hits),
            ("prefetch_misses", self.prefetch_misses),
            ("prefetch_evictions", self.prefetch_evictions),
            ("flushes", self.flushes),
            ("compactions", self.compactions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_charges_category() {
        let m = StoreMetrics::new_shared();
        {
            let _t = m.timer(OpCategory::Write);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = m.snapshot();
        assert!(snap.write_nanos >= 1_000_000, "got {}", snap.write_nanos);
        assert_eq!(snap.read_nanos, 0);
    }

    #[test]
    fn byte_and_record_counters_accumulate() {
        let m = StoreMetrics::new_shared();
        m.add_bytes_written(10);
        m.add_bytes_written(5);
        m.add_bytes_read(3);
        m.add_records_written(2);
        m.add_records_read(1);
        let s = m.snapshot();
        assert_eq!(s.bytes_written, 15);
        assert_eq!(s.bytes_read, 3);
        assert_eq!(s.records_written, 2);
        assert_eq!(s.records_read, 1);
    }

    #[test]
    fn hit_ratio() {
        let m = StoreMetrics::new_shared();
        assert_eq!(m.snapshot().prefetch_hit_ratio(), None);
        for _ in 0..93 {
            m.add_prefetch_hit();
        }
        for _ in 0..7 {
            m.add_prefetch_miss();
        }
        let ratio = m.snapshot().prefetch_hit_ratio().unwrap();
        assert!((ratio - 0.93).abs() < 1e-9);
    }

    #[test]
    fn merged_and_since_are_inverse() {
        let a = MetricsSnapshot {
            write_nanos: 10,
            compactions: 2,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            write_nanos: 5,
            read_nanos: 9,
            ..MetricsSnapshot::default()
        };
        let sum = a.merged(&b);
        assert_eq!(sum.write_nanos, 15);
        assert_eq!(sum.read_nanos, 9);
        assert_eq!(sum.since(&b), a);
    }

    #[test]
    fn since_saturates_on_out_of_order_snapshots() {
        let small = MetricsSnapshot {
            write_nanos: 5,
            ..MetricsSnapshot::default()
        };
        let large = MetricsSnapshot {
            write_nanos: 10,
            read_nanos: 3,
            ..MetricsSnapshot::default()
        };
        let diff = small.since(&large);
        assert_eq!(diff.write_nanos, 0);
        assert_eq!(diff.read_nanos, 0);
    }

    #[test]
    fn named_covers_every_counter() {
        let snap = MetricsSnapshot {
            write_nanos: 1,
            read_nanos: 2,
            compaction_nanos: 3,
            bytes_written: 4,
            bytes_read: 5,
            records_written: 6,
            records_read: 7,
            prefetch_hits: 8,
            prefetch_misses: 9,
            prefetch_evictions: 10,
            flushes: 11,
            compactions: 12,
        };
        let named = snap.named();
        let sum: u64 = named.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, (1..=12).sum::<u64>());
        assert_eq!(named[0].0, "write_nanos");
        assert_eq!(named[11].0, "compactions");
    }

    #[test]
    fn total_store_nanos_sums_categories() {
        let m = StoreMetrics::new_shared();
        m.record_nanos(OpCategory::Write, 1);
        m.record_nanos(OpCategory::Read, 2);
        m.record_nanos(OpCategory::Compaction, 4);
        assert_eq!(m.snapshot().total_store_nanos(), 7);
    }
}
