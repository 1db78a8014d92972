//! Per-store operation accounting.
//!
//! The paper attributes execution time to query computation, store CPU,
//! and I/O (Figure 4), and further splits store time into write,
//! read & delete, and compaction (Figure 10). Every store in this
//! workspace carries a shared [`StoreMetrics`] and wraps its operations in
//! [`StoreMetrics::timer`] so the benchmark harnesses can regenerate those
//! breakdowns without an external profiler.
//!
//! Per-record writes (an append, a put, an update: one call per tuple)
//! are the exception. Reading the clock twice costs about as much as the
//! write itself, so each store times them through a [`RecordTimer`]: one
//! call in [`RECORD_TIMER_STRIDE`] is timed and charged that many times
//! over, less the clock's own cost; for the calls in between, the timer
//! reads no clock and touches no shared counter. The per-record part of
//! `write_nanos` is therefore an estimate from a 1-in-64 sample, and it
//! reads above a call's share of a tight loop: a call timed alone cannot
//! overlap its memory misses with its neighbours'. Flushes, compactions,
//! takes, drains and reads stay timed on every call, and every count
//! (records, bytes, flushes, prefetches) stays exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
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
        self.weighted_timer(category, 1)
    }

    fn weighted_timer(self: &Arc<Self>, category: OpCategory, weight: u64) -> OpTimer {
        OpTimer {
            metrics: Arc::clone(self),
            category,
            weight,
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

/// Guard that charges its lifetime, times its weight, to an
/// [`OpCategory`] on drop.
pub struct OpTimer {
    metrics: Arc<StoreMetrics>,
    category: OpCategory,
    /// How many calls this one stands for: 1, or [`RECORD_TIMER_STRIDE`].
    weight: u64,
    start: Instant,
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        let mut nanos = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if self.weight > 1 {
            // Multiplied, the clock's own cost would dwarf a short call.
            nanos = nanos.saturating_sub(clock_floor_nanos());
        }
        self.metrics
            .record_nanos(self.category, nanos.saturating_mul(self.weight));
    }
}

/// What timing nothing measures on this machine: the least of 256
/// back-to-back empty intervals, taken once per process.
fn clock_floor_nanos() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let empty = || Instant::now().elapsed().as_nanos() as u64;
        (0..256).map(|_| empty()).min().unwrap_or(0)
    })
}

/// A [`RecordTimer`] times one call in this many.
pub const RECORD_TIMER_STRIDE: u32 = 64;

/// Samples a per-record operation of one store instance: every
/// [`RECORD_TIMER_STRIDE`]-th call is timed and charged
/// `RECORD_TIMER_STRIDE` times its duration; the others only bump a
/// plain counter. It is the last call of a stride that is timed, not the
/// first, so a cold first call is never multiplied.
#[derive(Debug, Default)]
pub struct RecordTimer {
    /// Calls since the last timed one.
    calls: u32,
}

impl RecordTimer {
    /// Counts one call of `category`; on the last call of a stride,
    /// returns the timer to hold across it.
    #[inline]
    pub fn start(&mut self, metrics: &Arc<StoreMetrics>, category: OpCategory) -> Option<OpTimer> {
        self.calls += 1;
        if self.calls < RECORD_TIMER_STRIDE {
            return None;
        }
        self.calls = 0;
        Some(metrics.weighted_timer(category, u64::from(RECORD_TIMER_STRIDE)))
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

    /// Drives `calls` per-record calls the way a store does, holding
    /// each call's timer across `work`.
    fn record_calls(m: &Arc<StoreMetrics>, rt: &mut RecordTimer, calls: u32, work: impl Fn(u32)) {
        for call in 1..=calls {
            let _t = rt.start(m, OpCategory::Write);
            work(call);
            m.add_records_written(1);
        }
    }

    #[test]
    fn record_timer_times_the_last_call_of_each_stride() {
        let m = StoreMetrics::new_shared();
        let mut rt = RecordTimer::default();
        let stride = RECORD_TIMER_STRIDE;
        let timed: Vec<u32> = (1..=3 * stride)
            .filter(|_| rt.start(&m, OpCategory::Write).is_some())
            .collect();
        assert_eq!(timed, [stride, 2 * stride, 3 * stride]);
    }

    #[test]
    fn record_timer_charges_the_timed_call_times_the_stride() {
        // Only the timed call sleeps: whatever it measured, the charge is
        // a multiple of the stride and at least stride × the sleep.
        let m = StoreMetrics::new_shared();
        let mut rt = RecordTimer::default();
        let stride = RECORD_TIMER_STRIDE;
        record_calls(&m, &mut rt, stride, |call| {
            if call == stride {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let s = m.snapshot();
        assert_eq!(s.write_nanos % u64::from(stride), 0, "{s:?}");
        assert!(s.write_nanos >= u64::from(stride) * 1_000_000, "{s:?}");
        assert_eq!((s.read_nanos, s.compaction_nanos), (0, 0));
    }

    #[test]
    fn record_timer_leaves_record_counts_exact() {
        // 1000 calls: 15 timed, and a partial stride of 40 left over.
        let m = StoreMetrics::new_shared();
        let mut rt = RecordTimer::default();
        record_calls(&m, &mut rt, 1_000, |_| {});
        assert_eq!(m.snapshot().records_written, 1_000);
        assert_eq!(rt.calls, 1_000 % RECORD_TIMER_STRIDE);
    }

    #[test]
    fn an_untimed_record_call_clones_no_arc() {
        let m = StoreMetrics::new_shared();
        let mut rt = RecordTimer::default();
        for _ in 1..RECORD_TIMER_STRIDE {
            let t = rt.start(&m, OpCategory::Write);
            assert!(t.is_none());
            assert_eq!(Arc::strong_count(&m), 1);
        }
        let t = rt.start(&m, OpCategory::Write);
        assert_eq!(Arc::strong_count(&m), 2);
        drop(t);
        assert_eq!(Arc::strong_count(&m), 1);
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
