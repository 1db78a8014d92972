//! Property tests for the AAR store against an in-memory model, across
//! randomized configurations, and the pinned device-op count of one
//! scripted run.
//!
//! However the store keeps its windows, a drain serves every pair
//! appended to the window exactly once, each key's values in arrival
//! order across the prefetched file prefix, the rest of the file and the
//! memory remainder; no chunk holds more than `chunk_entries` pairs; a
//! partial drain survives appends to and flushes of other windows; a
//! window drained to the end starts a new life with its next append; a
//! view shows every window that is not mid-drain and consumes nothing;
//! the window's file is gone once it is drained; and all of this holds
//! whichever form, owned chunk or borrowed step, each step of a drain
//! takes. The model is a map of pair lists.
//!
//! Tier-1 runs 32 cases per configuration; `PROPTEST_CASES` deepens the
//! search (CI's crash-matrix job runs 256).

mod common;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use common::merge_chunks;
use flowkv::aar::AarStore;
use flowkv_common::backend::WindowChunk;
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::registry::ViewValue;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::{FaultVfs, StdVfs};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Append a value for key k to the window starting at w*100. Skipped
    /// while that window is mid-drain: the engine never does that.
    Append {
        k: u8,
        w: u8,
        len: u8,
    },
    Flush,
    /// Read up to n chunks of window w, leaving it mid-drain if it holds
    /// more. Bit `i % 8` of `forms` says whether step i is an owned chunk
    /// (`get_window_chunk`) or a borrowed step (`drain_window_chunk`).
    DrainChunks {
        w: u8,
        n: u8,
        forms: u8,
    },
    /// Drain window w to the end, each step in the form `forms` draws;
    /// later appends to w start its next life.
    DrainAll {
        w: u8,
        forms: u8,
    },
    /// Build the serving view and compare it with the model.
    CollectView,
    /// Checkpoint, then restore from that checkpoint: state is unchanged.
    CheckpointRestore,
    /// Tick the background prefetcher at stream time `t`; with `land`,
    /// wait for the submitted reads and tick again so they are installed.
    AdvancePrefetch {
        t: i64,
        land: bool,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            8 => (0u8..5, 0u8..4, any::<u8>()).prop_map(|(k, w, len)| Op::Append { k, w, len }),
            1 => Just(Op::Flush),
            2 => (0u8..4, 1u8..4, any::<u8>())
                .prop_map(|(w, n, forms)| Op::DrainChunks { w, n, forms }),
            1 => (0u8..4, any::<u8>()).prop_map(|(w, forms)| Op::DrainAll { w, forms }),
            1 => prop_oneof![
                4 => Just(Op::CollectView),
                1 => Just(Op::CheckpointRestore),
            ],
            1 => (0i64..500, any::<bool>())
                .prop_map(|(t, land)| Op::AdvancePrefetch { t, land }),
        ],
        1..200,
    )
}

/// Cases per configuration: 32 unless `PROPTEST_CASES` says otherwise.
fn cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(32)
}

fn window(w: u8) -> WindowId {
    let start = i64::from(w) * 100;
    WindowId::new(start, start + 100)
}

fn key(k: u8) -> Vec<u8> {
    format!("key{k}").into_bytes()
}

type Pair = (Vec<u8>, Vec<u8>);

/// Each key's values in the order `pairs` lists them.
fn per_key(pairs: &[Pair]) -> BTreeMap<Vec<u8>, Vec<Vec<u8>>> {
    let singly = pairs
        .iter()
        .map(|(key, value)| (key.clone(), vec![value.clone()]));
    merge_chunks([singly.collect()])
}

/// The store under test beside its model.
struct Harness {
    dir: ScratchDir,
    store: AarStore,
    chunk_entries: usize,
    ring: Option<Arc<IoRing>>,
    /// `memory_bytes()` of the store before its first append.
    empty_memory: usize,
    /// Every pair appended to a window and not yet drained to the end,
    /// in arrival order.
    model: BTreeMap<WindowId, Vec<Pair>>,
    /// The chunks each mid-drain window has served so far.
    served: BTreeMap<WindowId, Vec<WindowChunk>>,
    /// Appends so far. It leads every value, so values are unique and an
    /// exact match with the model also means nothing was served twice.
    seq: u32,
}

impl Harness {
    fn new(write_buffer_bytes: usize, chunk_entries: usize, ring: Option<Arc<IoRing>>) -> Self {
        let dir = ScratchDir::new("aar-prop").unwrap();
        let metrics = StoreMetrics::new_shared();
        let mut store = AarStore::open(
            dir.path(),
            write_buffer_bytes,
            chunk_entries,
            metrics,
            StdVfs::shared(),
        )
        .unwrap();
        if let Some(ring) = &ring {
            store.set_ring(Arc::clone(ring));
        }
        Harness {
            dir,
            empty_memory: store.memory_bytes(),
            store,
            chunk_entries,
            ring,
            model: BTreeMap::new(),
            served: BTreeMap::new(),
            seq: 0,
        }
    }

    fn window_file(&self, window: WindowId) -> PathBuf {
        let name = format!("w_{}_{}.aar", window.start, window.end);
        self.dir.path().join(name)
    }

    /// Reads one chunk of `window`, owned or through a borrowed step
    /// whose pairs are copied one entry each; `false` once the drain is
    /// over, at which point everything it served is checked against the
    /// model.
    fn drain_chunk(&mut self, window: WindowId, owned: bool) -> Result<bool, TestCaseError> {
        let chunk = if owned {
            self.store.get_window_chunk(window).unwrap()
        } else {
            let mut lent: WindowChunk = Vec::new();
            let mut keep = |key: &[u8], value: &[u8]| {
                lent.push((key.to_vec(), vec![value.to_vec()]));
            };
            let more = self.store.drain_window_chunk(window, &mut keep).unwrap();
            prop_assert!(
                more || lent.is_empty(),
                "a last step of {:?} lent pairs",
                window
            );
            more.then_some(lent)
        };
        let Some(chunk) = chunk else {
            let served = self.served.remove(&window).unwrap_or_default();
            let expect = self.model.remove(&window).unwrap_or_default();
            prop_assert_eq!(
                merge_chunks(served),
                per_key(&expect),
                "drain of {:?}",
                window
            );
            prop_assert!(
                !self.window_file(window).exists(),
                "{:?} left its file behind",
                window
            );
            return Ok(false);
        };
        let pairs: usize = chunk.iter().map(|(_, values)| values.len()).sum();
        prop_assert!(pairs > 0, "an empty chunk of {:?}", window);
        prop_assert!(
            pairs <= self.chunk_entries,
            "a chunk of {} pairs with chunk_entries {}",
            pairs,
            self.chunk_entries
        );
        self.served.entry(window).or_default().push(chunk);
        Ok(true)
    }

    fn drain_all(&mut self, window: WindowId, forms: u8) -> Result<(), TestCaseError> {
        let mut step = 0;
        while self.drain_chunk(window, forms & (1 << (step % 8)) != 0)? {
            step += 1;
        }
        Ok(())
    }

    /// Finishes every drain in progress, alternating the two forms.
    fn settle_drains(&mut self) -> Result<(), TestCaseError> {
        let open: Vec<WindowId> = self.served.keys().copied().collect();
        open.into_iter()
            .try_for_each(|w| self.drain_all(w, 0b0101_0101))
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Append { k, w, len } => {
                if self.served.contains_key(&window(w)) {
                    return Ok(());
                }
                self.seq += 1;
                let mut value = self.seq.to_le_bytes().to_vec();
                value.extend(std::iter::repeat_n(k, usize::from(len) % 96));
                self.store.append(&key(k), window(w), &value).unwrap();
                let pairs = self.model.entry(window(w)).or_default();
                pairs.push((key(k), value));
            }
            Op::Flush => self.store.flush().unwrap(),
            Op::DrainChunks { w, n, forms } => {
                for step in 0..n {
                    if !self.drain_chunk(window(w), forms & (1 << step) != 0)? {
                        break;
                    }
                }
            }
            Op::DrainAll { w, forms } => self.drain_all(window(w), forms)?,
            Op::CollectView => {
                let mut view = BTreeMap::new();
                self.store.collect_view(&mut view).unwrap();
                let mut expect: BTreeMap<(Vec<u8>, WindowId), ViewValue> = BTreeMap::new();
                for (&w, pairs) in &self.model {
                    // A window mid-drain is gone from the store's point
                    // of view.
                    if self.served.contains_key(&w) {
                        continue;
                    }
                    for (key, values) in per_key(pairs) {
                        expect.insert((key, w), ViewValue::Values(values));
                    }
                }
                prop_assert_eq!(view, expect);
            }
            Op::CheckpointRestore => {
                // A barrier never lands between two chunks of a drain.
                self.settle_drains()?;
                let ckpt = ScratchDir::new("aar-prop-ckpt").unwrap();
                self.store.checkpoint(ckpt.path()).unwrap();
                self.store.restore(ckpt.path()).unwrap();
            }
            Op::AdvancePrefetch { t, land } => {
                self.store.advance_prefetch(t).unwrap();
                if let (Some(ring), true) = (&self.ring, land) {
                    ring.wait_idle();
                    self.store.advance_prefetch(t).unwrap();
                }
            }
        }
        Ok(())
    }

    /// Drains whatever the model still holds: the store is then as empty
    /// as it was opened.
    fn finish(mut self) -> Result<(), TestCaseError> {
        self.settle_drains()?;
        let left: Vec<WindowId> = self.model.keys().copied().collect();
        left.into_iter()
            .try_for_each(|w| self.drain_all(w, 0b0101_0101))?;
        prop_assert_eq!(self.store.memory_bytes(), self.empty_memory);
        self.store.close().unwrap();
        Ok(())
    }
}

fn check(
    ops: &[Op],
    write_buffer_bytes: usize,
    chunk_entries: usize,
    ring: Option<Arc<IoRing>>,
) -> Result<(), TestCaseError> {
    let mut harness = Harness::new(write_buffer_bytes, chunk_entries, ring);
    ops.iter().try_for_each(|op| harness.apply(op))?;
    harness.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A 1 KiB buffer: appends spill on their own, drains cross the
    /// file/memory boundary and records end mid-chunk.
    #[test]
    fn matches_model_with_a_tiny_buffer(ops in ops()) {
        check(&ops, 1024, 4, None)?;
    }

    /// A buffer that never fills: only explicit flushes and checkpoints
    /// reach the disk, and most drains are served from memory.
    #[test]
    fn matches_model_with_a_buffer_that_never_fills(ops in ops()) {
        check(&ops, 1 << 20, 3, None)?;
    }

    /// File prefixes read ahead on a two-thread ring whose completions
    /// arrive shuffled: installs race drains, flushes and restores.
    #[test]
    fn matches_model_over_an_io_ring(ops in ops(), seed in any::<u64>()) {
        let ring = Arc::new(IoRing::new(2, Some(seed), None));
        check(&ops, 1024, 4, Some(ring))?;
    }
}

/// Device work is a function of the store-call sequence: `crash_matrix`
/// finds the op to fault by replaying a run and counting, so the same
/// calls must issue the same number of faultable ops from one version of
/// the store to the next. The count was recorded at the parent of the
/// change that gave the store its one window table; the `exists` probe
/// that change removed never counted (`FaultVfs` passes it through).
/// The checkpoint syncs what it writes: an open and a sync for each of
/// the ten window files it copies and for its manifest.
#[test]
fn a_scripted_run_issues_a_pinned_number_of_device_ops() {
    const SCRIPTED_OPS: u64 = 265;
    let dir = ScratchDir::new("aar-opcount").unwrap();
    let ckpt = ScratchDir::new("aar-opcount-ckpt").unwrap();
    let counting = FaultVfs::counting(StdVfs::shared());
    let metrics = StoreMetrics::new_shared();
    let mut store =
        AarStore::open(dir.path(), 8 << 10, 16, metrics.clone(), counting.clone()).unwrap();
    let window = |w: usize| WindowId::new(w as i64 * 100, w as i64 * 100 + 100);
    let drain = |store: &mut AarStore, w: usize| {
        let mut pairs = 0;
        while let Some(chunk) = store.get_window_chunk(window(w)).unwrap() {
            pairs += chunk.iter().map(|(_, values)| values.len()).sum::<usize>();
        }
        pairs
    };
    // 20 windows side by side. A pair is charged 6 + 40 + 48 bytes, so
    // every 88th append fills the 8 KiB buffer: four flushes.
    let mut appended = [0usize; 20];
    for i in 0..360usize {
        let key = format!("key-{:02}", i % 7);
        store
            .append(key.as_bytes(), window(i % 20), &[i as u8; 40])
            .unwrap();
        appended[i % 20] += 1;
    }
    assert_eq!(metrics.snapshot().flushes, 4);
    // A few pairs more per window stay in memory.
    for (w, count) in appended.iter_mut().enumerate() {
        store.append(b"tail", window(w), &[w as u8; 24]).unwrap();
        *count += 1;
    }
    // A partial drain, a view beside it, then full drains of half the
    // windows.
    let first = store.get_window_chunk(window(0)).unwrap();
    let first: usize = first.iter().flatten().map(|(_, values)| values.len()).sum();
    assert!(first > 0 && first < appended[0]);
    let mut view = BTreeMap::new();
    store.collect_view(&mut view).unwrap();
    assert!(!view.is_empty());
    for (w, &count) in appended.iter().enumerate().take(10) {
        let rest = drain(&mut store, w);
        assert_eq!(rest + if w == 0 { first } else { 0 }, count, "window {w}");
    }
    // The other half goes through a checkpoint round trip first.
    store.checkpoint(ckpt.path()).unwrap();
    store.restore(ckpt.path()).unwrap();
    for (w, &count) in appended.iter().enumerate().skip(10) {
        assert_eq!(drain(&mut store, w), count, "window {w}");
    }
    assert_eq!(counting.ops(), SCRIPTED_OPS);
}
