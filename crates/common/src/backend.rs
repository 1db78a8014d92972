//! The contract between the stream engine and any state store.
//!
//! [`StateBackend`] is the Rust rendition of the paper's Listing 1: every
//! method takes explicit window metadata, appends additionally carry the
//! tuple timestamp (used by FlowKV's trigger-time estimation), and reads
//! have *fetch-and-remove* semantics because a triggered window's state is
//! dead after aggregation.
//!
//! A backend is created per physical operator partition via a
//! [`StateBackendFactory`], receiving the operator's
//! [`OperatorSemantics`] — the aggregate-function and window-function
//! signatures FlowKV classifies at application launch (paper §3.1).
//! Baseline stores ignore the semantics and map everything onto generic
//! KV operations, exactly as Flink does with RocksDB.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::Result;
use crate::metrics::StoreMetrics;
use crate::types::{Timestamp, WindowId};

/// How a window operation updates state on tuple arrival (paper §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateKind {
    /// Associative + commutative aggregate applied incrementally; the
    /// store holds one intermediate aggregate per `(key, window)`
    /// (Flink's `AggregateFunction` → read-modify-write pattern).
    Incremental,
    /// Non-associative or non-commutative aggregate; the store holds the
    /// full list of windowed tuples (Flink's `ProcessWindowFunction` →
    /// append pattern).
    FullList,
}

/// How a window function bounds the stream (paper §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowKind {
    /// Fixed (tumbling) windows of `size` milliseconds.
    Fixed {
        /// Window length in event-time milliseconds.
        size: i64,
    },
    /// Sliding windows of `size` milliseconds every `slide` milliseconds.
    Sliding {
        /// Window length in event-time milliseconds.
        size: i64,
        /// Sliding interval in event-time milliseconds.
        slide: i64,
    },
    /// Per-key session windows delimited by `gap` milliseconds of
    /// inactivity.
    Session {
        /// Session gap in event-time milliseconds.
        gap: i64,
    },
    /// A single window covering all of event time.
    Global,
    /// Per-key windows that close after `size` tuples arrive.
    Count {
        /// Number of tuples per window.
        size: u64,
    },
    /// A user-defined window function whose semantics are unknown to the
    /// store; classified conservatively as unaligned (paper §3.1, §8).
    Custom,
}

impl WindowKind {
    /// Returns `true` when windows of all keys share trigger times.
    ///
    /// Fixed and sliding windows are aligned; session, count, and custom
    /// windows are not (paper §2.1, "Window Functions").
    pub fn is_aligned(&self) -> bool {
        matches!(self, WindowKind::Fixed { .. } | WindowKind::Sliding { .. })
    }

    /// Advisory lifetime of one entry's state in event-time
    /// milliseconds, for queryable-state metadata: how long past its
    /// arrival an entry can stay live before the engine drains it.
    ///
    /// Fixed/sliding windows retain state for the window length,
    /// sessions for the gap; global, count, and custom windows carry no
    /// event-time bound, so they report `None`.
    pub fn retention_hint_ms(&self) -> Option<u64> {
        match self {
            WindowKind::Fixed { size } => u64::try_from(*size).ok(),
            WindowKind::Sliding { size, .. } => u64::try_from(*size).ok(),
            WindowKind::Session { gap } => u64::try_from(*gap).ok(),
            WindowKind::Global | WindowKind::Count { .. } | WindowKind::Custom => None,
        }
    }
}

/// The launch-time description of a window operation used for store
/// classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperatorSemantics {
    /// The aggregate-function signature.
    pub aggregate: AggregateKind,
    /// The window-function signature.
    pub window: WindowKind,
}

impl OperatorSemantics {
    /// Convenience constructor.
    pub fn new(aggregate: AggregateKind, window: WindowKind) -> Self {
        OperatorSemantics { aggregate, window }
    }
}

/// One gradual chunk of a triggered window's state: keys paired with
/// appended values. An entry need not be all a key holds — see
/// [`StateBackend::get_window_chunk`].
pub type WindowChunk = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

/// Where a drain step puts the `(key, value)` pairs it lends — see
/// [`StateBackend::drain_window_chunk`].
pub type PairSink<'a> = &'a mut dyn FnMut(&[u8], &[u8]);

/// Where a borrowed take puts the values it lends — see
/// [`StateBackend::take_values_with`].
pub type ValueSink<'a> = &'a mut dyn FnMut(&[u8]);

/// What a read-modify-write does to the aggregate it is lent — see
/// [`StateBackend::update_aggregate`]. The flag says whether the pair
/// held an aggregate; when it did not, the buffer arrives empty.
pub type AggregateUpdate<'a> = &'a mut dyn FnMut(&mut Vec<u8>, bool);

/// The owned form of one drain step: runs `step` and copies the pairs it
/// lends into a [`WindowChunk`], adjacent pairs of one key into one
/// entry. How a store whose drain is borrowed answers
/// [`StateBackend::get_window_chunk`].
pub fn collect_chunk(
    step: impl FnOnce(PairSink<'_>) -> Result<bool>,
) -> Result<Option<WindowChunk>> {
    let mut chunk: WindowChunk = Vec::new();
    let more = step(&mut |key, value| match chunk.last_mut() {
        Some((last, values)) if last == key => values.push(value.to_vec()),
        _ => chunk.push((key.to_vec(), vec![value.to_vec()])),
    })?;
    Ok(more.then_some(chunk))
}

/// One migratable unit of store state, produced by
/// [`StateBackend::extract_range`] and consumed by
/// [`StateBackend::inject_entries`].
///
/// An entry carries everything needed to re-create the state in a
/// different store instance, independent of the source store's layout:
/// the two variants mirror the two physical shapes every backend holds
/// (appended value lists and intermediate aggregates).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StateEntry {
    /// The appended values of one `(key, window)` pair, in append order.
    Values {
        /// The tuple key.
        key: Vec<u8>,
        /// The window the values belong to.
        window: WindowId,
        /// All appended values, oldest first.
        values: Vec<Vec<u8>>,
    },
    /// The intermediate aggregate of one `(key, window)` pair.
    Aggregate {
        /// The tuple key.
        key: Vec<u8>,
        /// The window the aggregate belongs to.
        window: WindowId,
        /// The encoded aggregate.
        value: Vec<u8>,
    },
}

impl StateEntry {
    /// The key this entry belongs to — what range filters inspect.
    pub fn key(&self) -> &[u8] {
        match self {
            StateEntry::Values { key, .. } | StateEntry::Aggregate { key, .. } => key,
        }
    }

    /// The window this entry belongs to.
    pub fn window(&self) -> WindowId {
        match self {
            StateEntry::Values { window, .. } | StateEntry::Aggregate { window, .. } => *window,
        }
    }
}

/// A key predicate used to select the state entries to migrate —
/// typically "is this key's range hash inside shard `s`".
pub type KeyFilter<'a> = &'a dyn Fn(&[u8]) -> bool;

/// A state store for one physical window-operator partition.
///
/// Methods correspond to the paper's Listing 1:
///
/// | Paper | Trait method |
/// |---|---|
/// | AAR `GetWindow(W)` | [`StateBackend::drain_window_chunk`] (borrowed), [`StateBackend::get_window_chunk`] (owned) |
/// | AAR `Append(K, V, W)` | [`StateBackend::append`] (timestamp ignored) |
/// | AUR `Get(K, W)` | [`StateBackend::take_values_with`] (borrowed), [`StateBackend::take_values`] (owned) |
/// | AUR `Append(K, V, W, T)` | [`StateBackend::append`] |
/// | RMW `Get(K, W)` | [`StateBackend::take_aggregate`] |
/// | RMW `Put(K, W, A)` | [`StateBackend::put_aggregate`] |
/// | RMW `Update(K, W, f)` | [`StateBackend::update_aggregate`] |
///
/// `Update` is not in the paper: its Listing 1 spells a read-modify-write
/// as `Get` then `Put`, two calls per tuple. Here the per-tuple fold is
/// one call that edits the aggregate where the store keeps it; `Get` and
/// `Put` remain for what is not a fold of one pair — a trigger, a session
/// merge, a migration.
///
/// Stores are single-writer: each instance is owned by exactly one worker
/// thread (paper §2.1), so the trait takes `&mut self` and implementations
/// need no interior synchronization.
pub trait StateBackend: Send {
    /// Appends `value` for `key` in `window`; `ts` is the tuple timestamp.
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()>;

    /// Reads the next chunk of `window`'s state across all keys, removing
    /// it from the store; `Ok(None)` once the window is fully drained.
    ///
    /// The chunked contract is the paper's *gradual state loading*
    /// (§4.1): the engine aggregates chunk by chunk so only one
    /// non-aggregated chunk is in memory at a time.
    ///
    /// A key may repeat, within a chunk and across chunks: its values
    /// are the concatenation of its entries' values in the order the
    /// drain served them, which is the order they were appended in. A
    /// store hands out what it holds as it holds it; a consumer that
    /// needs a key's whole list groups, once.
    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>>;

    /// [`StateBackend::get_window_chunk`] without the copy — the paper's
    /// `GetWindow(W)` hands the engine an *iterator*. One call is one
    /// gradual-loading step: the store lends the step's `(key, value)`
    /// pairs to `sink` out of its own buffer and returns whether the
    /// window may hold more; `Ok(false)` lends nothing and means the
    /// window is drained and gone, as `Ok(None)` does there.
    ///
    /// A pair is valid only inside the call of `sink` that receives it:
    /// a consumer copies what it keeps. Pairs come in append order, so a
    /// key may repeat, within a step and across steps, exactly as in the
    /// owned form; steps of both forms may alternate within one drain.
    ///
    /// The default lends the pairs of an owned chunk, for stores that
    /// build one anyway; a store whose state is contiguous bytes
    /// implements this method and answers the owned one through
    /// [`collect_chunk`]. An adaptor around another backend forwards it,
    /// or the store behind it falls back to the copy.
    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        let Some(chunk) = self.get_window_chunk(window)? else {
            return Ok(false);
        };
        for (key, values) in &chunk {
            values.iter().for_each(|value| sink(key, value));
        }
        Ok(true)
    }

    /// Fetches and removes the appended values of `(key, window)`.
    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>>;

    /// [`StateBackend::take_values`] without the copy: the store lends
    /// `sink` each value of `(key, window)` out of its own buffer, in
    /// append order, and returns how many it lent.
    ///
    /// A value is valid only inside the call of `sink` that receives it:
    /// a consumer copies what it keeps. The call is observably
    /// [`StateBackend::take_values`] — the same state afterwards, the
    /// same [`StoreMetrics`] record counts, the same device operations in
    /// the same order — and a call that fails may have lent some values
    /// first. The default lends the values of an owned take, for stores
    /// that build one anyway; a store whose lists are contiguous bytes
    /// implements this method and answers the owned one by collecting
    /// over it. An adaptor around another backend forwards it, or the
    /// store behind it falls back to the `Vec` per value.
    fn take_values_with(
        &mut self,
        key: &[u8],
        window: WindowId,
        sink: ValueSink<'_>,
    ) -> Result<usize> {
        let values = self.take_values(key, window)?;
        values.iter().for_each(|value| sink(value));
        Ok(values.len())
    }

    /// Reads the appended values of `(key, window)` *without* removing
    /// them.
    ///
    /// This is the non-destructive read that interval joins need (paper
    /// §8 lists them as future work): a probe against the other stream's
    /// buffered rows must leave that state in place for later probes.
    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>>;

    /// Fetches and removes the intermediate aggregate of `(key, window)`.
    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>>;

    /// Stores the updated aggregate for `(key, window)`.
    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()>;

    /// Read-modify-write of `(key, window)` in one call: the store lends
    /// `update` the buffer that *is* the pair's aggregate — empty, with
    /// the flag `false`, when the pair holds none — and whatever `update`
    /// leaves in it is the pair's aggregate from then on.
    ///
    /// `update` runs exactly once in a call that returns `Ok` and at most
    /// once in one that fails; the buffer is valid only inside it. The
    /// call is observably [`StateBackend::take_aggregate`], `update`,
    /// [`StateBackend::put_aggregate`] — the same state, the same
    /// [`StoreMetrics`] record counts, the same device operations in the
    /// same order — which is what the default does; a store that keeps
    /// aggregates in memory implements it as an edit in place. An adaptor
    /// around another backend forwards it, or the store behind it falls
    /// back to the two calls.
    fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        update: AggregateUpdate<'_>,
    ) -> Result<()> {
        let taken = self.take_aggregate(key, window)?;
        let held = taken.is_some();
        let mut aggregate = taken.unwrap_or_default();
        update(&mut aggregate, held);
        self.put_aggregate(key, window, &aggregate)
    }

    /// Forces buffered state to storage.
    fn flush(&mut self) -> Result<()>;

    /// Builds an immutable snapshot of the store's live state for the
    /// queryable-state registry ([`crate::registry`]).
    ///
    /// The snapshot is an owned copy: after it is returned the store may
    /// continue appending, flushing, and compacting without invalidating
    /// it. Building the view may flush buffered writes (it must not lose
    /// or reorder state) but must never consume entries — a served store
    /// produces byte-identical job output to an unserved one.
    ///
    /// The default returns `Ok(None)`: the store does not support
    /// snapshot reads and is simply not queryable.
    fn read_view(&mut self) -> Result<Option<crate::registry::StateView>> {
        Ok(None)
    }

    /// Extracts every live entry whose key satisfies `in_range`,
    /// *without* consuming any state (a rescale must be able to abort).
    ///
    /// Per-key value lists preserve append order; cross-key order is
    /// unspecified. Together with [`StateBackend::inject_entries`] this
    /// is the store half of a rescale's state migration: each old
    /// worker's checkpointed store is extracted whole, every entry is
    /// routed to its key's new partition, and the pieces are injected
    /// into fresh stores at the new parallelism. Single-writer ownership
    /// (each store instance belongs to one worker thread) is what makes
    /// the scan safe without coordination.
    ///
    /// Like [`StateBackend::read_view`], building the extract may flush
    /// buffered writes but must never lose or reorder state.
    ///
    /// `kind` is the owning operator's aggregate signature: stores whose
    /// record layout cannot distinguish an appended list from an opaque
    /// aggregate (the hash baseline stores both as raw payloads) need it
    /// to shape the entries, exactly as the engine selects list vs.
    /// aggregate calls from the same classification at runtime.
    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>>;

    /// Re-creates `entries` in this store.
    ///
    /// The default implementation replays value lists through
    /// [`StateBackend::append`] (with the window start as the tuple
    /// timestamp — migrated appends carry no per-tuple timestamps) and
    /// aggregates through [`StateBackend::put_aggregate`]; backends
    /// with cheaper bulk paths may override.
    fn inject_entries(&mut self, entries: Vec<StateEntry>) -> Result<()> {
        for entry in entries {
            match entry {
                StateEntry::Values {
                    key,
                    window,
                    values,
                } => {
                    for value in values {
                        self.append(&key, window, &value, window.start)?;
                    }
                }
                StateEntry::Aggregate { key, window, value } => {
                    self.put_aggregate(&key, window, &value)?;
                }
            }
        }
        Ok(())
    }

    /// Drives asynchronous prefetching: drains finished background reads
    /// into the store's buffers and schedules new ones for state whose
    /// ETT-predicted trigger falls within the prefetch horizon of
    /// `stream_time`. Called by the executor at batch and watermark
    /// boundaries when an I/O ring is configured. The default is a no-op
    /// — stores without anticipatable reads stay synchronous.
    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        let _ = stream_time;
        Ok(())
    }

    /// Notifies the store that `window`'s entries were just demoted to an
    /// external cold tier: every row the tier consumed left a tombstone
    /// (fetch-and-remove) behind, so block-oriented stores can schedule a
    /// compaction now and reclaim the dead space while the range is still
    /// warm in cache. Purely advisory; the default is a no-op.
    fn demoted_hint(&mut self, window: WindowId) -> Result<()> {
        let _ = window;
        Ok(())
    }

    /// Hints that the given `(key, window)` pairs are about to be read or
    /// modified, letting block-oriented stores warm caches in the
    /// background. Purely advisory; the default is a no-op.
    fn warm(&mut self, pairs: &[(&[u8], WindowId)]) -> Result<()> {
        let _ = pairs;
        Ok(())
    }

    /// Whether [`StateBackend::warm`] would do anything, so callers can
    /// skip assembling hint batches for stores that ignore them.
    fn wants_warm(&self) -> bool {
        false
    }

    /// The metrics block charged by this store.
    fn metrics(&self) -> Arc<StoreMetrics>;

    /// Approximate bytes of state held in memory, for memory-budget
    /// enforcement and the harnesses' reporting.
    fn memory_bytes(&self) -> usize;

    /// Writes a self-contained snapshot of the store into `dir`.
    fn checkpoint(&mut self, dir: &Path) -> Result<()>;

    /// Replaces the store's contents with the snapshot in `dir`.
    fn restore(&mut self, dir: &Path) -> Result<()>;

    /// Releases the store, deleting its working files.
    fn close(&mut self) -> Result<()>;
}

/// Identifies one physical operator partition and carries everything a
/// factory needs to build its store.
#[derive(Clone, Debug)]
pub struct OperatorContext {
    /// Name of the logical operator, unique within the job.
    pub operator: String,
    /// Index of this physical partition.
    pub partition: usize,
    /// Launch-time semantics used for store classification.
    pub semantics: OperatorSemantics,
    /// Directory under which the store may create files.
    pub data_dir: PathBuf,
    /// Job-wide telemetry handle; `None` disables store instrumentation.
    pub telemetry: Option<Arc<crate::telemetry::Telemetry>>,
    /// The worker's background I/O pool, built once by the executor and
    /// shared by every store of the partition; `None` keeps every store
    /// read synchronous. Stores hand it to their read-ahead lanes, whose
    /// jobs still run against the store's own VFS, so fault injection
    /// covers background I/O.
    pub io: Option<Arc<crate::ioring::IoRing>>,
}

impl OperatorContext {
    /// Directory reserved for this partition's store files.
    pub fn partition_dir(&self) -> PathBuf {
        self.data_dir
            .join(&self.operator)
            .join(format!("p{}", self.partition))
    }

    /// Label used to tag this partition's telemetry, `operator/p<N>`.
    pub fn telemetry_tag(&self) -> String {
        format!("{}/p{}", self.operator, self.partition)
    }
}

/// Creates state backends for physical operator partitions.
pub trait StateBackendFactory: Send + Sync {
    /// Builds the store for `ctx`, creating its directories.
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>>;

    /// Short human-readable name used in benchmark output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_classification() {
        assert!(WindowKind::Fixed { size: 10 }.is_aligned());
        assert!(WindowKind::Sliding { size: 10, slide: 5 }.is_aligned());
        assert!(!WindowKind::Session { gap: 10 }.is_aligned());
        assert!(!WindowKind::Count { size: 10 }.is_aligned());
        assert!(!WindowKind::Custom.is_aligned());
        assert!(!WindowKind::Global.is_aligned());
    }

    #[test]
    fn partition_dir_layout() {
        let ctx = OperatorContext {
            operator: "window-join".to_string(),
            partition: 3,
            semantics: OperatorSemantics::new(
                AggregateKind::FullList,
                WindowKind::Fixed { size: 100 },
            ),
            data_dir: PathBuf::from("/tmp/job"),
            telemetry: None,
            io: None,
        };
        assert_eq!(
            ctx.partition_dir(),
            PathBuf::from("/tmp/job/window-join/p3")
        );
        assert_eq!(ctx.telemetry_tag(), "window-join/p3");
    }
}
