//! Layered ≡ rebuilt: the view a worker publishes from captured store
//! calls must hold, entry for entry, what the store's own `read_view`
//! rebuilds.
//!
//! Random call sequences — appends, aggregate read-modify-writes, takes
//! and peeks, chunked window drains, late appends into a window already
//! drained, flushes, `inject_entries`, checkpoint + `restore` — run
//! through the capture adaptor over FlowKV in each access pattern, bare
//! and behind a tier that demotes everything it is given. After every
//! simulated watermark the captured view is compared with a fresh
//! `read_view`, and views pinned along the way must still read what
//! they read when they were taken. Every assertion names its seed;
//! `PROPTEST_CASES` sets how many seeds each configuration runs.
//!
//! An RMW script runs twice, its read-modify-writes as one
//! `update_aggregate` each and as the take and the put that stands for:
//! the two publish the same number of entries and the same `len` and
//! `memory_bytes` at every watermark.
//!
//! A captured store's own `memory_bytes` counts the epoch log the
//! adaptor keeps beside the store.

use std::collections::{BTreeMap, HashSet};

use flowkv::tier::TierConfig;
use flowkv::FlowKvConfig;
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, StateEntry, WindowKind,
};
use flowkv_common::registry::{StateView, ViewCapture, ViewValue};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_spe::{BackendChoice, FactoryOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Entries = BTreeMap<(Vec<u8>, WindowId), ViewValue>;

#[derive(Clone, Copy, Debug)]
enum Pattern {
    Aar,
    Aur,
    Rmw,
}

impl Pattern {
    fn semantics(self) -> OperatorSemantics {
        match self {
            Pattern::Aar => {
                OperatorSemantics::new(AggregateKind::FullList, WindowKind::Fixed { size: 100 })
            }
            Pattern::Aur => {
                OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 50 })
            }
            Pattern::Rmw => {
                OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Fixed { size: 100 })
            }
        }
    }
}

/// One store under test with its capture and the test's own knowledge
/// of which windows it has begun and not finished draining.
struct Rig {
    ctx: String,
    pattern: Pattern,
    /// Whether a read-modify-write is one `update_aggregate` and a take
    /// of a list the borrowed `take_values_with`.
    fused: bool,
    backend: Box<dyn StateBackend>,
    capture: ViewCapture,
    draining: HashSet<WindowId>,
    drain_steps: usize,
    /// Views taken at earlier watermarks with what they read then.
    pinned: Vec<(StateView, Entries)>,
    watermarks: usize,
    /// Longest delta chain any watermark left behind.
    longest_chain: usize,
    /// Per watermark: entries the advance materialised, then the view's
    /// `len` and `memory_bytes`.
    published: Vec<(usize, usize, usize)>,
}

fn key(rng: &mut StdRng) -> Vec<u8> {
    format!("key-{:02}", rng.gen_range(0..24u32)).into_bytes()
}

fn window(rng: &mut StdRng) -> WindowId {
    let start = rng.gen_range(0..4i64) * 100;
    WindowId::new(start, start + 100)
}

fn bytes(rng: &mut StdRng) -> Vec<u8> {
    (0..rng.gen_range(1..24usize))
        .map(|_| rng.gen_range(0..=255u8))
        .collect()
}

impl Rig {
    fn new(pattern: Pattern, tiered: bool, fused: bool, seed: u64, dir: &ScratchDir) -> Self {
        let mut options = FactoryOptions::new();
        if tiered {
            // A zero-byte hot tier: every write is demoted at once.
            options = options.tiered(TierConfig::new(0));
        }
        let backend = BackendChoice::FlowKv(FlowKvConfig::small_for_tests())
            .build(options)
            .create(&OperatorContext {
                operator: format!("capture-{pattern:?}-{tiered}-{fused}-{seed}"),
                partition: 0,
                semantics: pattern.semantics(),
                data_dir: dir.path().to_path_buf(),
                telemetry: None,
                io: None,
            })
            .unwrap();
        let (backend, capture) = ViewCapture::wrap(backend);
        Rig {
            ctx: format!("{pattern:?} tiered={tiered} fused={fused} seed={seed}"),
            pattern,
            fused,
            backend,
            capture,
            draining: HashSet::new(),
            drain_steps: 0,
            pinned: Vec::new(),
            watermarks: 0,
            longest_chain: 0,
            published: Vec::new(),
        }
    }

    /// One step of a drain — an owned chunk and a borrowed step by
    /// turns: begins, continues or ends it.
    fn drain_chunk(&mut self, window: WindowId) {
        self.drain_steps += 1;
        let more = match self.drain_steps % 2 {
            0 => self.backend.get_window_chunk(window).unwrap().is_some(),
            _ => self
                .backend
                .drain_window_chunk(window, &mut |_, _| ())
                .unwrap(),
        };
        match more {
            true => self.draining.insert(window),
            false => self.draining.remove(&window),
        };
    }

    /// Runs every open drain to its end, as the engine does before it
    /// leaves `on_watermark`.
    fn finish_drains(&mut self) {
        while let Some(&window) = self.draining.iter().next() {
            self.drain_chunk(window);
        }
    }

    fn step(&mut self, rng: &mut StdRng, checkpoint: &ScratchDir, checkpointed: &mut bool) {
        let (k, w) = (key(rng), window(rng));
        let roll = rng.gen_range(0..100u32);
        match (self.pattern, roll) {
            (_, 0..=2) => self.backend.flush().unwrap(),
            (_, 3..=4) => {
                self.finish_drains();
                self.backend.checkpoint(checkpoint.path()).unwrap();
                *checkpointed = true;
            }
            // After a `restore` or an `inject_entries` the view starts
            // over from `read_view`, as the first one does. The engine
            // does both between drains and publishes between drains, so
            // the rig takes its watermark before a drain can begin.
            (_, 5) if *checkpointed => {
                self.finish_drains();
                self.backend.restore(checkpoint.path()).unwrap();
                self.watermark();
            }
            (_, 7) => {
                self.finish_drains();
                let entry = match self.pattern {
                    Pattern::Rmw => StateEntry::Aggregate {
                        key: k,
                        window: w,
                        value: bytes(rng),
                    },
                    _ => StateEntry::Values {
                        key: k,
                        window: w,
                        values: vec![bytes(rng), bytes(rng)],
                    },
                };
                self.backend.inject_entries(vec![entry]).unwrap();
                self.watermark();
            }
            (_, 8..=20) => self.watermark(),
            (Pattern::Aar, 21..=24) => self.drain_chunk(w),
            // The engine never appends into a window it is draining
            // (the drain runs to its end inside `on_watermark`); into
            // one it *has* drained, a late tuple may.
            (Pattern::Aar, _) if self.draining.contains(&w) => {}
            (Pattern::Aar, _) => self.backend.append(&k, w, &bytes(rng), w.start).unwrap(),
            (Pattern::Aur, 21..=35) if self.fused => {
                self.backend.take_values_with(&k, w, &mut |_| {}).unwrap();
            }
            (Pattern::Aur, 21..=35) => drop(self.backend.take_values(&k, w).unwrap()),
            (Pattern::Aur, 36..=42) => drop(self.backend.peek_values(&k, w).unwrap()),
            (Pattern::Aur, _) => self.backend.append(&k, w, &bytes(rng), w.start).unwrap(),
            (Pattern::Rmw, 21..=35) => drop(self.backend.take_aggregate(&k, w).unwrap()),
            (Pattern::Rmw, 36..=45) => self.backend.put_aggregate(&k, w, &bytes(rng)).unwrap(),
            (Pattern::Rmw, _) => {
                let tail = bytes(rng);
                let mut fold = |acc: &mut Vec<u8>, _held: bool| {
                    acc.truncate(12);
                    acc.extend_from_slice(&tail);
                };
                if self.fused {
                    self.backend.update_aggregate(&k, w, &mut fold).unwrap();
                } else {
                    let taken = self.backend.take_aggregate(&k, w).unwrap();
                    let mut acc = taken.unwrap_or_default();
                    fold(&mut acc, true);
                    self.backend.put_aggregate(&k, w, &acc).unwrap();
                }
            }
        }
    }

    /// A simulated watermark: advance the captured view and hold it
    /// against the store's own rebuild.
    fn watermark(&mut self) {
        self.watermarks += 1;
        let ctx = format!("{} watermark {}", self.ctx, self.watermarks);
        let materialised = self
            .capture
            .advance(self.backend.as_mut())
            .unwrap()
            .expect("flowkv stores are queryable");
        let view = self.capture.view();
        self.published
            .push((materialised, view.len(), view.memory_bytes()));
        self.longest_chain = self.longest_chain.max(view.chain_len());
        let mut rebuilt = self
            .backend
            .read_view()
            .unwrap()
            .expect("flowkv stores are queryable")
            .to_entries();
        // A window is out of the view from its drain's first chunk on;
        // `read_view` still shows what the store instances the drain
        // has not reached yet hold of it.
        rebuilt.retain(|(_, w), _| !self.draining.contains(w));
        let layered = view.to_entries();
        assert_eq!(layered, rebuilt, "{ctx}: entries");
        assert_eq!(view.len(), rebuilt.len(), "{ctx}: len");
        assert_eq!(
            view.memory_bytes(),
            StateView::from_entries(view.pattern, rebuilt).memory_bytes(),
            "{ctx}: memory_bytes"
        );
        if self.watermarks.is_multiple_of(5) {
            self.pinned.push((view.clone(), layered));
        }
    }

    /// Ends the script; returns what each watermark published.
    fn finish(mut self) -> Vec<(usize, usize, usize)> {
        self.finish_drains();
        self.watermark();
        for (i, (held, then)) in self.pinned.iter().enumerate() {
            assert_eq!(&held.to_entries(), then, "{}: pinned view {i}", self.ctx);
            assert_eq!(held.len(), then.len(), "{}: pinned view {i} len", self.ctx);
        }
        self.backend.close().unwrap();
        self.published
    }
}

/// One seed's script, its read-modify-writes `fused` into one call (and
/// its list takes borrowed) or not; returns what each watermark
/// published.
fn run_script(
    pattern: Pattern,
    tiered: bool,
    fused: bool,
    seed: u64,
) -> Vec<(usize, usize, usize)> {
    let dir = ScratchDir::new(&format!("capture-eq-{pattern:?}-{tiered}-{fused}-{seed}")).unwrap();
    let checkpoint =
        ScratchDir::new(&format!("capture-ck-{pattern:?}-{tiered}-{fused}-{seed}")).unwrap();
    let mut checkpointed = false;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rig = Rig::new(pattern, tiered, fused, seed, &dir);
    // The first view is read from the store; like the two below it
    // is taken between drains.
    rig.watermark();
    for _ in 0..800 {
        rig.step(&mut rng, &checkpoint, &mut checkpointed);
    }
    assert!(rig.watermarks > 40, "{}: too few watermarks", rig.ctx);
    assert!(rig.longest_chain >= 3, "{}: deltas never stacked", rig.ctx);
    rig.finish()
}

/// Seeds per configuration: 10 unless `PROPTEST_CASES` says otherwise
/// (CI's crash-matrix job runs 256).
fn seeds() -> u64 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(10)
}

fn run(pattern: Pattern, tiered: bool) {
    for seed in 0..seeds() {
        let published = run_script(pattern, tiered, true, seed);
        if matches!(pattern, Pattern::Rmw | Pattern::Aur) {
            assert_eq!(
                published,
                run_script(pattern, tiered, false, seed),
                "{pattern:?} tiered={tiered} seed={seed}: one call against two"
            );
        }
    }
}

#[test]
fn aar_layered_view_equals_read_view() {
    run(Pattern::Aar, false);
}

#[test]
fn aur_layered_view_equals_read_view() {
    run(Pattern::Aur, false);
}

#[test]
fn rmw_layered_view_equals_read_view() {
    run(Pattern::Rmw, false);
}

#[test]
fn tiered_aar_layered_view_equals_read_view() {
    run(Pattern::Aar, true);
}

#[test]
fn tiered_aur_layered_view_equals_read_view() {
    run(Pattern::Aur, true);
}

#[test]
fn tiered_rmw_layered_view_equals_read_view() {
    run(Pattern::Rmw, true);
}

/// The epoch log is memory the adaptor holds: after one epoch of updates
/// a captured store reports more than the same store bare, by at least a
/// 48-byte row per logged call.
#[test]
fn a_captured_store_counts_its_epoch_log() {
    const PAIRS: usize = 100;
    let dir = ScratchDir::new("capture-memory").unwrap();
    let store = |name: &str| {
        BackendChoice::FlowKv(FlowKvConfig::small_for_tests())
            .build(FactoryOptions::new())
            .create(&OperatorContext {
                operator: name.to_string(),
                partition: 0,
                semantics: Pattern::Rmw.semantics(),
                data_dir: dir.path().to_path_buf(),
                telemetry: None,
                io: None,
            })
            .unwrap()
    };
    let mut bare = store("bare");
    let (mut captured, mut capture) = ViewCapture::wrap(store("captured"));
    // The first advance starts the view; what follows is recorded.
    capture.advance(captured.as_mut()).unwrap();
    for i in 0..PAIRS {
        let key = format!("key-{i:03}").into_bytes();
        for s in [&mut bare, &mut captured] {
            s.put_aggregate(&key, WindowId::new(0, 100), b"aggregate")
                .unwrap();
        }
    }
    let logged = captured.memory_bytes() - bare.memory_bytes();
    assert!(logged >= PAIRS * 48, "{logged} B for {PAIRS} logged rows");
}
