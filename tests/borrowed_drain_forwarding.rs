//! Every adaptor around a state backend hands the trait's three fast
//! paths — the borrowed drain step, the borrowed take and the in-place
//! `update_aggregate` — on to the backend it wraps. One that forgot
//! would still pass every differential suite — the trait's defaults
//! answer the step out of an owned chunk, the take out of an owned list
//! and the update out of a take and a put — and quietly bring the copy
//! per pair or per value, or the two calls per tuple, back.
//!
//! The wrapped backend here answers the fast paths itself and refuses
//! the calls their defaults fall back to (the owned take unless
//! `owned_take` allows it). (`FlowKvStore` wraps no
//! backend; that its front forwards the step to its AAR instances is
//! counted in allocations by `crates/core/tests/alloc_counts.rs`, and
//! that it forwards the update to its RMW instances shows here in which
//! timer the call is charged to.) The tier is the one adaptor that takes
//! the defaults of the update and of the borrowed take on purpose: its
//! take and its put maintain the tier's own key table.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flowkv::tier::{TierConfig, TieredStore};
use flowkv::{FlowKvConfig, FlowKvStore};
use flowkv_common::backend::{
    AggregateKind, AggregateUpdate, KeyFilter, OperatorContext, OperatorSemantics, PairSink,
    StateBackend, StateEntry, ValueSink, WindowChunk, WindowKind,
};
use flowkv_common::error::Result;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::registry::ViewCapture;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::trace::TracedBackend;
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::StdVfs;
use flowkv_spe::memstore::InMemoryBackend;

/// An in-memory store whose window drain exists in the borrowed form
/// only and whose aggregates (unless `two_calls` allows the take and the
/// put) in the one-call form only, counting the steps and updates it
/// serves. Its lists it lends, and hands out owned only if `owned_take`.
struct BorrowedOnly {
    inner: InMemoryBackend,
    steps: Arc<AtomicUsize>,
    updates: Arc<AtomicUsize>,
    takes: Arc<AtomicUsize>,
    two_calls: bool,
    owned_take: bool,
}

impl BorrowedOnly {
    fn new() -> Self {
        BorrowedOnly {
            inner: InMemoryBackend::new(1 << 20, 4),
            steps: Arc::default(),
            updates: Arc::default(),
            takes: Arc::default(),
            two_calls: false,
            owned_take: false,
        }
    }
}

impl StateBackend for BorrowedOnly {
    fn append(&mut self, k: &[u8], w: WindowId, v: &[u8], ts: Timestamp) -> Result<()> {
        self.inner.append(k, w, v, ts)
    }
    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        panic!("an adaptor fell back to the owned chunk of {window:?}");
    }
    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        self.steps.fetch_add(1, Ordering::Relaxed);
        let Some(chunk) = self.inner.get_window_chunk(window)? else {
            return Ok(false);
        };
        for (key, values) in &chunk {
            values.iter().for_each(|value| sink(key, value));
        }
        Ok(true)
    }
    fn take_values(&mut self, k: &[u8], w: WindowId) -> Result<Vec<Vec<u8>>> {
        assert!(self.owned_take, "an adaptor fell back to the owned take");
        self.inner.take_values(k, w)
    }
    fn take_values_with(&mut self, k: &[u8], w: WindowId, sink: ValueSink<'_>) -> Result<usize> {
        self.takes.fetch_add(1, Ordering::Relaxed);
        let values = self.inner.take_values(k, w)?;
        values.iter().for_each(|value| sink(value));
        Ok(values.len())
    }
    fn peek_values(&mut self, k: &[u8], w: WindowId) -> Result<Vec<Vec<u8>>> {
        self.inner.peek_values(k, w)
    }
    fn take_aggregate(&mut self, k: &[u8], w: WindowId) -> Result<Option<Vec<u8>>> {
        assert!(self.two_calls, "an adaptor fell back to a take of {w:?}");
        self.inner.take_aggregate(k, w)
    }
    fn put_aggregate(&mut self, k: &[u8], w: WindowId, a: &[u8]) -> Result<()> {
        assert!(self.two_calls, "an adaptor fell back to a put of {w:?}");
        self.inner.put_aggregate(k, w, a)
    }
    fn update_aggregate(&mut self, k: &[u8], w: WindowId, f: AggregateUpdate<'_>) -> Result<()> {
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.inner.update_aggregate(k, w, f)
    }
    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
    fn extract_range(&mut self, f: KeyFilter<'_>, k: AggregateKind) -> Result<Vec<StateEntry>> {
        self.inner.extract_range(f, k)
    }
    fn metrics(&self) -> Arc<StoreMetrics> {
        self.inner.metrics()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.inner.checkpoint(dir)
    }
    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.inner.restore(dir)
    }
    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }
}

const WINDOW: WindowId = WindowId { start: 0, end: 100 };

/// Appends 40 pairs through `wrap`'s adaptor, drains them through its
/// borrowed step, and returns how many steps reached the wrapped store.
fn steps_through(wrap: impl FnOnce(Box<dyn StateBackend>) -> Box<dyn StateBackend>) -> usize {
    let steps = Arc::new(AtomicUsize::new(0));
    let mut backend = wrap(Box::new(BorrowedOnly {
        steps: Arc::clone(&steps),
        ..BorrowedOnly::new()
    }));
    for i in 0..40u8 {
        backend.append(&[b'k', i % 10], WINDOW, &[i], 0).unwrap();
    }
    let mut lent = Vec::new();
    let mut keep = |key: &[u8], value: &[u8]| lent.push((key.to_vec(), value.to_vec()));
    while backend.drain_window_chunk(WINDOW, &mut keep).unwrap() {}
    lent.sort();
    let mut expect: Vec<_> = (0..40u8).map(|i| (vec![b'k', i % 10], vec![i])).collect();
    expect.sort();
    assert_eq!(lent, expect);
    steps.load(Ordering::Relaxed)
}

/// Counts forty tuples into ten keys through `backend`, one
/// `update_aggregate` each, then reads every count back through ten
/// more that change nothing.
fn count_forty_tuples(backend: &mut dyn StateBackend) {
    for i in 0..40u8 {
        let mut count = |count: &mut Vec<u8>, held: bool| {
            assert_eq!(held, i >= 10, "tuple {i}");
            count.resize(1, 0);
            count[0] += 1;
        };
        backend
            .update_aggregate(&[b'k', i % 10], WINDOW, &mut count)
            .unwrap();
    }
    for k in 0..10u8 {
        let mut read =
            |count: &mut Vec<u8>, held: bool| assert_eq!((held, &count[..]), (true, &[4][..]));
        backend
            .update_aggregate(&[b'k', k], WINDOW, &mut read)
            .unwrap();
    }
}

/// Runs [`count_forty_tuples`] through `wrap`'s adaptor and returns how
/// many updates reached the wrapped store — which refuses the take and
/// the put unless `two_calls`.
fn updates_through(
    two_calls: bool,
    wrap: impl FnOnce(Box<dyn StateBackend>) -> Box<dyn StateBackend>,
) -> usize {
    let updates = Arc::new(AtomicUsize::new(0));
    let mut backend = wrap(Box::new(BorrowedOnly {
        updates: Arc::clone(&updates),
        two_calls,
        ..BorrowedOnly::new()
    }));
    count_forty_tuples(backend.as_mut());
    updates.load(Ordering::Relaxed)
}

/// Appends forty values to ten keys through `wrap`'s adaptor, takes each
/// key's list through the borrowed take (a key that holds nothing too),
/// and returns how many borrowed takes reached the wrapped store — which
/// refuses the owned one unless `owned_take`.
fn takes_through(
    owned_take: bool,
    wrap: impl FnOnce(Box<dyn StateBackend>) -> Box<dyn StateBackend>,
) -> usize {
    let takes = Arc::new(AtomicUsize::new(0));
    let mut backend = wrap(Box::new(BorrowedOnly {
        takes: Arc::clone(&takes),
        owned_take,
        ..BorrowedOnly::new()
    }));
    for i in 0..40u8 {
        backend.append(&[b'k', i % 10], WINDOW, &[i], 0).unwrap();
    }
    for k in 0..11u8 {
        let mut lent = Vec::new();
        let count = backend.take_values_with(&[b'k', k], WINDOW, &mut |value| lent.push(value[0]));
        let expect: Vec<u8> = (0..40).filter(|i| i % 10 == k && k < 10).collect();
        assert_eq!((count.unwrap(), lent), (expect.len(), expect), "key {k}");
    }
    takes.load(Ordering::Relaxed)
}

#[test]
fn the_trace_and_capture_adaptors_forward_the_borrowed_take() {
    assert_eq!(takes_through(false, TracedBackend::wrap), 11);
    assert_eq!(takes_through(false, |inner| ViewCapture::wrap(inner).0), 11);
}

#[test]
fn the_tier_answers_the_borrowed_take_with_its_own_take() {
    let dir = ScratchDir::new("forward-tier-take").unwrap();
    let ctx = OperatorContext {
        semantics: OperatorSemantics::new(
            AggregateKind::FullList,
            WindowKind::Session { gap: 100 },
        ),
        ..rmw_ctx(&dir)
    };
    let through_the_tier = |inner| {
        let tier = TieredStore::new(inner, &ctx, TierConfig::new(usize::MAX), StdVfs::shared());
        Box::new(tier.unwrap()) as Box<dyn StateBackend>
    };
    assert_eq!(takes_through(true, through_the_tier), 0);
}

#[test]
fn the_trace_and_capture_adaptors_forward_the_borrowed_step() {
    // Ten keys, four to a chunk: three steps that lend and the one that
    // finds the window drained.
    assert_eq!(steps_through(TracedBackend::wrap), 4);
    assert_eq!(steps_through(|inner| ViewCapture::wrap(inner).0), 4);
}

#[test]
fn the_tier_demotes_and_drains_through_the_borrowed_step() {
    let tiered = |hot_bytes: usize| {
        let dir = ScratchDir::new("forward-tier").unwrap();
        let ctx = OperatorContext {
            operator: "forward".to_string(),
            partition: 0,
            semantics: OperatorSemantics::new(
                AggregateKind::FullList,
                WindowKind::Fixed { size: 100 },
            ),
            data_dir: dir.path().to_path_buf(),
            telemetry: None,
            io: None,
        };
        steps_through(|inner| {
            let cfg = TierConfig::new(hot_bytes);
            Box::new(TieredStore::new(inner, &ctx, cfg, StdVfs::shared()).unwrap())
        })
    };
    // Nothing demotes: the trigger's drain alone reaches the store.
    assert_eq!(tiered(usize::MAX), 4);
    // Every append demotes — a step that lends its pair and the one that
    // ends the demotion's drain — and the trigger then finds the wrapped
    // store empty behind forty cold blocks.
    assert_eq!(tiered(0), 40 * 2 + 1);
}

#[test]
fn the_trace_and_capture_adaptors_forward_the_update() {
    assert_eq!(updates_through(false, TracedBackend::wrap), 50);
    assert_eq!(
        updates_through(false, |inner| ViewCapture::wrap(inner).0),
        50
    );
}

fn rmw_ctx(dir: &ScratchDir) -> OperatorContext {
    OperatorContext {
        operator: "forward".to_string(),
        partition: 0,
        semantics: OperatorSemantics::new(
            AggregateKind::Incremental,
            WindowKind::Fixed { size: 100 },
        ),
        data_dir: dir.path().to_path_buf(),
        telemetry: None,
        io: None,
    }
}

#[test]
fn the_tier_answers_the_update_with_its_own_take_and_put() {
    let dir = ScratchDir::new("forward-tier-update").unwrap();
    let through_the_tier = |inner| {
        let cfg = TierConfig::new(usize::MAX);
        let tier = TieredStore::new(inner, &rmw_ctx(&dir), cfg, StdVfs::shared());
        Box::new(tier.unwrap()) as Box<dyn StateBackend>
    };
    assert_eq!(updates_through(true, through_the_tier), 0);
}

#[test]
fn the_flowkv_front_forwards_the_update_to_its_rmw_instances() {
    let dir = ScratchDir::new("forward-front-update").unwrap();
    let semantics = rmw_ctx(&dir).semantics;
    let mut store = FlowKvStore::open(dir.path(), semantics, FlowKvConfig::small_for_tests());
    let store = store.as_mut().unwrap();
    count_forty_tuples(store);
    // The front's default would have taken, under the read timer.
    let m = store.metrics().snapshot();
    assert_eq!((m.records_read, m.records_written), (40, 50));
    assert!(m.write_nanos > 0 && m.read_nanos == 0, "{m:?}");
}
