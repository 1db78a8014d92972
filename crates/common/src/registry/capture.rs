//! Recording what a worker's store calls change, so the next published
//! view costs what changed rather than what the store holds.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::backend::{
    AggregateKind, AggregateUpdate, KeyFilter, PairSink, StateBackend, StateEntry, ValueSink,
    WindowChunk,
};
use crate::error::Result;
use crate::metrics::StoreMetrics;
use crate::types::{Timestamp, WindowId};

use super::view::{list_size, value_size, StateView, ViewDelta};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The view does not describe the store (nothing read yet, or the
    /// store changed by `restore` / `inject_entries`): the next advance
    /// starts over from `read_view`, so recording would be wasted.
    Stale,
    /// Every change since the last advance is in `delta`.
    Recording,
    /// The store has no `read_view`; it is not queryable.
    Unqueryable,
}

/// What the adaptor and the worker's [`ViewCapture`] share. Both run on
/// the one thread that owns the store, so the lock is never contended;
/// it exists because a backend must be `Send`.
struct Recorded {
    phase: Phase,
    delta: ViewDelta,
    /// Windows whose drain has begun and not ended: only the first
    /// chunk of a drain drops the window from the view.
    draining: HashSet<WindowId>,
}

fn lock(recorded: &Mutex<Recorded>) -> MutexGuard<'_, Recorded> {
    recorded
        .lock()
        .expect("only the store's worker thread records, and it never panics mid-record")
}

/// Forwards every call to `inner` unchanged and records what the
/// state-changing ones did.
struct CaptureBackend {
    inner: Box<dyn StateBackend>,
    recorded: Arc<Mutex<Recorded>>,
}

/// Applies `change` if the view is being recorded.
fn record(recorded: &Mutex<Recorded>, change: impl FnOnce(&mut Recorded)) {
    let mut recorded = lock(recorded);
    if recorded.phase == Phase::Recording {
        change(&mut recorded);
    }
}

impl CaptureBackend {
    fn record(&self, change: impl FnOnce(&mut Recorded)) {
        record(&self.recorded, change);
    }

    /// One step of `window`'s drain, owned or borrowed: the first drops
    /// the window from the view, the one that finds it drained ends it.
    fn record_drain_step(&self, window: WindowId, more: bool) {
        self.record(|r| {
            if !more {
                r.draining.remove(&window);
            } else if r.draining.insert(window) {
                r.delta.drop_window(window);
            }
        });
    }
}

impl StateBackend for CaptureBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        self.inner.append(key, window, value, ts)?;
        self.record(|r| r.delta.append(key, window, value));
        Ok(())
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        let chunk = self.inner.get_window_chunk(window)?;
        self.record_drain_step(window, chunk.is_some());
        Ok(chunk)
    }

    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        let more = self.inner.drain_window_chunk(window, sink)?;
        self.record_drain_step(window, more);
        Ok(more)
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        let values = self.inner.take_values(key, window)?;
        let taken = (!values.is_empty()).then(|| list_size(&values));
        self.record(|r| r.delta.remove(key, window, taken));
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
        self.record(|r| r.delta.remove(key, window, (lent > 0).then_some(size)));
        Ok(lent)
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.inner.peek_values(key, window)
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        let aggregate = self.inner.take_aggregate(key, window)?;
        let taken = aggregate.as_ref().map(Vec::len);
        self.record(|r| r.delta.remove(key, window, taken));
        Ok(aggregate)
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        self.inner.put_aggregate(key, window, aggregate)?;
        self.record(|r| r.delta.put_aggregate(key, window, aggregate));
        Ok(())
    }

    fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        update: AggregateUpdate<'_>,
    ) -> Result<()> {
        let recorded = &self.recorded;
        // One row per call: the size the store lent, the bytes the
        // update left.
        self.inner
            .update_aggregate(key, window, &mut |aggregate, held| {
                let prior = held.then_some(aggregate.len());
                update(aggregate, held);
                record(recorded, |r| {
                    r.delta.update_aggregate(key, window, prior, aggregate)
                });
            })
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn read_view(&mut self) -> Result<Option<StateView>> {
        self.inner.read_view()
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        self.inner.extract_range(in_range, kind)
    }

    fn inject_entries(&mut self, entries: Vec<StateEntry>) -> Result<()> {
        self.record(|r| r.phase = Phase::Stale);
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
        self.inner.memory_bytes() + lock(&self.recorded).delta.memory_bytes()
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.inner.checkpoint(dir)
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.record(|r| r.phase = Phase::Stale);
        self.inner.restore(dir)
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }
}

/// The worker's end of a captured backend: turns what the adaptor
/// recorded since the last call into the store's next view.
pub struct ViewCapture {
    recorded: Arc<Mutex<Recorded>>,
    view: StateView,
}

impl ViewCapture {
    /// Wraps `inner` in the recording adaptor; the returned backend
    /// behaves exactly as `inner` does.
    pub fn wrap(inner: Box<dyn StateBackend>) -> (Box<dyn StateBackend>, ViewCapture) {
        let recorded = Arc::new(Mutex::new(Recorded {
            phase: Phase::Stale,
            delta: ViewDelta::default(),
            draining: HashSet::new(),
        }));
        let backend = CaptureBackend {
            inner,
            recorded: Arc::clone(&recorded),
        };
        let capture = ViewCapture {
            recorded,
            view: StateView::default(),
        };
        (Box::new(backend), capture)
    }

    /// Brings [`view`](Self::view) up to the store's state now and
    /// returns how many entries that materialised, or `None` when the
    /// store is not queryable. `backend` is the wrapped backend; its
    /// `read_view` is called only when the view has to start over (the
    /// first advance, and the first after a `restore` or
    /// `inject_entries`).
    pub fn advance(&mut self, backend: &mut dyn StateBackend) -> Result<Option<usize>> {
        {
            let mut recorded = lock(&self.recorded);
            match recorded.phase {
                Phase::Unqueryable => return Ok(None),
                Phase::Recording => return Ok(Some(self.view.publish(&mut recorded.delta))),
                Phase::Stale => {}
            }
        }
        let base = backend.read_view()?;
        let mut recorded = lock(&self.recorded);
        recorded.delta = ViewDelta::bounded(base.as_ref().map_or(0, StateView::len));
        recorded.draining.clear();
        Ok(match base {
            Some(view) => {
                recorded.phase = Phase::Recording;
                self.view = view;
                Some(self.view.len())
            }
            None => {
                recorded.phase = Phase::Unqueryable;
                None
            }
        })
    }

    /// The view as of the last [`advance`](Self::advance). Clone it to
    /// publish: the clone shares every layer.
    pub fn view(&self) -> &StateView {
        &self.view
    }
}
