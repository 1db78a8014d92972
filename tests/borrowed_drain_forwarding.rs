//! Every adaptor around a state backend hands the borrowed drain step on
//! to the backend it wraps. One that forgot would still pass every
//! differential suite — the trait's default answers the step out of an
//! owned chunk — and quietly bring the copy per pair back.
//!
//! The wrapped backend here answers the borrowed step itself and refuses
//! the owned chunk. (`FlowKvStore` wraps no backend; that its front
//! forwards the step to its AAR instances is counted in allocations by
//! `crates/core/tests/alloc_counts.rs`.)

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flowkv::tier::{TierConfig, TieredStore};
use flowkv_common::backend::{
    AggregateKind, KeyFilter, OperatorContext, OperatorSemantics, PairSink, StateBackend,
    StateEntry, WindowChunk, WindowKind,
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
/// only, counting the steps it serves.
struct BorrowedOnly {
    inner: InMemoryBackend,
    steps: Arc<AtomicUsize>,
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
        self.inner.take_values(k, w)
    }
    fn peek_values(&mut self, k: &[u8], w: WindowId) -> Result<Vec<Vec<u8>>> {
        self.inner.peek_values(k, w)
    }
    fn take_aggregate(&mut self, k: &[u8], w: WindowId) -> Result<Option<Vec<u8>>> {
        self.inner.take_aggregate(k, w)
    }
    fn put_aggregate(&mut self, k: &[u8], w: WindowId, a: &[u8]) -> Result<()> {
        self.inner.put_aggregate(k, w, a)
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
        inner: InMemoryBackend::new(1 << 20, 4),
        steps: Arc::clone(&steps),
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
