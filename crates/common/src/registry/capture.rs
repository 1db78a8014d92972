//! Recording what a worker's store calls change, so the next view costs
//! what changed rather than what the store holds.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use crate::backend::{
    AggregateKind, AggregateUpdate, KeyFilter, PairSink, StateBackend, StateEntry, ValueSink,
    WindowChunk,
};
use crate::error::Result;
use crate::metrics::StoreMetrics;
use crate::telemetry::Counter;
use crate::types::{Timestamp, WindowId};

use super::view::{list_size, value_size, StateView, ViewDelta};

/// Wraps `inner` in an adaptor that behaves exactly as `inner` does,
/// except that it answers [`StateBackend::read_view`] from the view it
/// answered last plus what the calls since changed, adding the entries
/// that materialised (a delta's rows plus whatever a merge, a fold or a
/// fresh base rewrote) to `entries`.
///
/// The first `read_view`, and the first after a `restore` or
/// `inject_entries` (state changed by a path the adaptor does not
/// follow), starts over from `inner`'s own. While that answers `None`,
/// the store is not queryable: the adaptor answers `None` and records
/// nothing.
pub fn capture(
    inner: Box<dyn StateBackend>,
    entries: Option<Arc<Counter>>,
) -> Box<dyn StateBackend> {
    Box::new(CaptureBackend {
        inner,
        phase: Phase::Stale,
        delta: ViewDelta::default(),
        draining: HashSet::new(),
        view: StateView::default(),
        entries,
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The view does not describe the store (nothing read yet, or the
    /// store changed by `restore` / `inject_entries`): the next
    /// `read_view` starts over from the store's, so recording would be
    /// wasted.
    Stale,
    /// Every change since the last `read_view` is in `delta`.
    Recording,
    /// The store has no `read_view`; it is not queryable.
    Unqueryable,
}

/// Forwards every call to `inner` unchanged, records what the
/// state-changing ones did, and keeps the view it last answered.
struct CaptureBackend {
    inner: Box<dyn StateBackend>,
    phase: Phase,
    delta: ViewDelta,
    /// Windows whose drain has begun and not ended: only the first
    /// chunk of a drain drops the window from the view.
    draining: HashSet<WindowId>,
    view: StateView,
    entries: Option<Arc<Counter>>,
}

impl CaptureBackend {
    /// Applies `change` to the log if the view is being recorded.
    fn record(&mut self, change: impl FnOnce(&mut ViewDelta)) {
        if self.phase == Phase::Recording {
            change(&mut self.delta);
        }
    }

    /// One step of `window`'s drain, owned or borrowed: the first drops
    /// the window from the view, the one that finds it drained ends it.
    fn drain_step(&mut self, window: WindowId, more: bool) {
        if self.phase != Phase::Recording {
            return;
        }
        if !more {
            self.draining.remove(&window);
        } else if self.draining.insert(window) {
            self.delta.drop_window(window);
        }
    }
}

impl StateBackend for CaptureBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        self.inner.append(key, window, value, ts)?;
        self.record(|d| d.append(key, window, value));
        Ok(())
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        let chunk = self.inner.get_window_chunk(window)?;
        self.drain_step(window, chunk.is_some());
        Ok(chunk)
    }

    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        let more = self.inner.drain_window_chunk(window, sink)?;
        self.drain_step(window, more);
        Ok(more)
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let values = self.inner.take_values(key, window)?;
        let taken = (!values.is_empty()).then(|| list_size(&values));
        self.record(|d| d.remove(key, window, taken));
        Ok(values)
    }

    fn take_values_with(
        &mut self,
        key: &[u8],
        window: WindowId,
        sink: ValueSink<'_>,
    ) -> Result<usize> {
        let mut size = 0;
        let lent = self.inner.take_values_with(key, window, &mut |value| {
            size += value_size(value);
            sink(value);
        })?;
        let taken = (lent > 0).then_some(size);
        self.record(|d| d.remove(key, window, taken));
        Ok(lent)
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.inner.peek_values(key, window)
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let aggregate = self.inner.take_aggregate(key, window)?;
        let taken = aggregate.as_ref().map(Vec::len);
        self.record(|d| d.remove(key, window, taken));
        Ok(aggregate)
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        self.inner.put_aggregate(key, window, aggregate)?;
        self.record(|d| d.put_aggregate(key, window, None, aggregate));
        Ok(())
    }

    fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        update: AggregateUpdate<'_>,
    ) -> Result<()> {
        let (recording, delta) = (self.phase == Phase::Recording, &mut self.delta);
        // One row per call: the size the store lent, the bytes the
        // update left.
        self.inner
            .update_aggregate(key, window, &mut |aggregate, held| {
                let prior = held.then_some(aggregate.len());
                update(aggregate, held);
                if recording {
                    delta.put_aggregate(key, window, Some(prior), aggregate);
                }
            })
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    /// The last view with what changed since put on top, as a clone
    /// that shares every layer with the view the adaptor keeps.
    fn read_view(&mut self) -> Result<Option<StateView>> {
        let materialised = match self.phase {
            Phase::Unqueryable => return Ok(None),
            Phase::Recording => self.view.apply(&mut self.delta),
            Phase::Stale => {
                let base = self.inner.read_view()?;
                self.delta = ViewDelta::bounded(base.as_ref().map_or(0, StateView::len));
                self.draining.clear();
                let Some(base) = base else {
                    self.phase = Phase::Unqueryable;
                    return Ok(None);
                };
                self.phase = Phase::Recording;
                self.view = base;
                self.view.len()
            }
        };
        if let Some(entries) = &self.entries {
            entries.add(materialised as u64);
        }
        Ok(Some(self.view.clone()))
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        self.inner.extract_range(in_range, kind)
    }

    fn inject_entries(&mut self, entries: Vec<StateEntry>) -> Result<()> {
        self.phase = Phase::Stale;
        self.inner.inject_entries(entries)
    }

    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        self.inner.advance_prefetch(stream_time)
    }

    fn demoted_hint(&mut self, window: WindowId) -> Result<()> {
        self.inner.demoted_hint(window)
    }

    fn warm(&mut self, pairs: &[(&[u8], WindowId)]) -> Result<()> {
        self.inner.warm(pairs)
    }

    fn wants_warm(&self) -> bool {
        self.inner.wants_warm()
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        self.inner.metrics()
    }

    /// The wrapped store's bytes and the epoch log's, which this adaptor
    /// holds beside it.
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.delta.memory_bytes()
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.inner.checkpoint(dir)
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.phase = Phase::Stale;
        self.inner.restore(dir)
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }
}
