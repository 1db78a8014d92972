//! Layered ≡ rebuilt: the view the capture adaptor answers `read_view`
//! with, from the store calls it recorded, must hold, entry for entry,
//! what the wrapped store's own `read_view` rebuilds.
//!
//! Random call sequences — appends, aggregate read-modify-writes, takes
//! and peeks, chunked window drains, late appends into a window already
//! drained, flushes, `inject_entries`, checkpoint + `restore` — run
//! through the capture adaptor over FlowKV in each access pattern, bare
//! and behind a tier that demotes everything it is given. After every
//! simulated watermark the adaptor's view is compared with a fresh
//! `read_view` of a bare twin of the store it wraps, fed the same calls,
//! and views pinned along the way must still read what they read when
//! they were taken. Every assertion names its seed;
//! `PROPTEST_CASES` sets how many seeds each configuration runs.
//!
//! An RMW script runs twice, its read-modify-writes as one
//! `update_aggregate` each and as the take and the put that stands for:
//! the two publish the same number of entries and the same `len` and
//! `memory_bytes` at every watermark.
//!
//! A captured store's own `memory_bytes` counts the epoch log the
//! adaptor keeps beside the store. Two `read_view`s with no call between
//! answer the same and the second materialises nothing; the first after
//! a `restore` or an `inject_entries` starts over from the store's own;
//! an unqueryable store answers `None` and the adaptor records nothing.
//!
//! Paced, as a worker publishes at most once per period, the scripts
//! advance the view only at every k-th simulated watermark, so one
//! epoch log spans several watermarks: a window drained at one and
//! appended to again at a later one, a take and the put after it, and
//! an in-place collapse of the log all land in one publish.

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use flowkv::tier::TierConfig;
use flowkv::FlowKvConfig;
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, StateEntry, WindowKind,
};
use flowkv_common::registry::{capture, StateView, ViewValue};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::Counter;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::StdVfs;
use flowkv_spe::memstore::InMemoryBackend;
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

/// One store under test behind the capture adaptor, a bare twin of it
/// fed the same calls, and the test's own knowledge of which windows it
/// has begun and not finished draining.
struct Rig {
    ctx: String,
    pattern: Pattern,
    /// Whether a read-modify-write is one `update_aggregate` and a take
    /// of a list the borrowed `take_values_with`.
    fused: bool,
    /// The adaptor around a store.
    backend: Box<dyn StateBackend>,
    /// The same store, bare: its own `read_view` is the oracle.
    twin: Box<dyn StateBackend>,
    /// Entries the adaptor materialised.
    entries: Arc<Counter>,
    draining: HashSet<WindowId>,
    drain_steps: usize,
    /// Views taken at earlier watermarks with what they read then.
    pinned: Vec<(StateView, Entries)>,
    /// The view advances at every `every`-th simulated watermark.
    every: usize,
    watermarks: usize,
    /// Views the adaptor answered, each checked against the twin's.
    publishes: usize,
    /// Longest delta chain any watermark left behind.
    longest_chain: usize,
    /// Per publish: entries the adaptor materialised, then the view's
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

/// A FlowKV store of `pattern`, behind a tier that demotes everything
/// it is given if `tiered`.
fn flowkv(pattern: Pattern, tiered: bool, name: &str, dir: &ScratchDir) -> Box<dyn StateBackend> {
    let mut options = FactoryOptions::new();
    if tiered {
        // A zero-byte hot tier: every write is demoted at once.
        options = options.tiered(TierConfig::new(0));
    }
    BackendChoice::FlowKv(FlowKvConfig::small_for_tests())
        .build(options)
        .create(&OperatorContext {
            operator: name.to_string(),
            partition: 0,
            semantics: pattern.semantics(),
            data_dir: dir.path().to_path_buf(),
            telemetry: None,
            io: None,
        })
        .unwrap()
}

/// `store` behind the capture adaptor, counting into a new counter.
fn counted(store: Box<dyn StateBackend>) -> (Box<dyn StateBackend>, Arc<Counter>) {
    let entries = Arc::new(Counter::default());
    (capture(store, Some(Arc::clone(&entries))), entries)
}

impl Rig {
    fn new(
        pattern: Pattern,
        tiered: bool,
        fused: bool,
        every: usize,
        seed: u64,
        dir: &ScratchDir,
    ) -> Self {
        let name = format!("capture-{pattern:?}-{tiered}-{fused}-{seed}");
        let (backend, entries) = counted(flowkv(pattern, tiered, &name, dir));
        Rig {
            ctx: format!("{pattern:?} tiered={tiered} fused={fused} every={every} seed={seed}"),
            pattern,
            fused,
            backend,
            twin: flowkv(pattern, tiered, &format!("{name}-twin"), dir),
            entries,
            draining: HashSet::new(),
            drain_steps: 0,
            pinned: Vec::new(),
            every,
            watermarks: 0,
            publishes: 0,
            longest_chain: 0,
            published: Vec::new(),
        }
    }

    /// Makes `call` on the captured store, then on its twin; returns
    /// what the captured store answered.
    fn call<T>(&mut self, call: impl Fn(&mut dyn StateBackend) -> T) -> T {
        let answer = call(self.backend.as_mut());
        call(self.twin.as_mut());
        answer
    }

    /// [`call`](Self::call) with a directory under `dir` of each store's
    /// own.
    fn call_in(&mut self, dir: &Path, call: impl Fn(&mut dyn StateBackend, &Path)) {
        call(self.backend.as_mut(), &dir.join("captured"));
        call(self.twin.as_mut(), &dir.join("twin"));
    }

    /// One step of a drain — an owned chunk and a borrowed step by
    /// turns: begins, continues or ends it.
    fn drain_chunk(&mut self, window: WindowId) {
        self.drain_steps += 1;
        let owned = self.drain_steps.is_multiple_of(2);
        let more = [self.backend.as_mut(), self.twin.as_mut()].map(|s| match owned {
            true => s.get_window_chunk(window).unwrap().is_some(),
            false => s.drain_window_chunk(window, &mut |_, _| ()).unwrap(),
        });
        assert_eq!(more[0], more[1], "{}: the twin drains otherwise", self.ctx);
        match more[0] {
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

    /// One random step, its kind drawn from `rolls` of `0..100`: below
    /// 21 a flush, checkpoint, restore, injection or watermark, from 21
    /// on a store call.
    fn step(
        &mut self,
        rng: &mut StdRng,
        rolls: Range<u32>,
        checkpoint: &ScratchDir,
        checkpointed: &mut bool,
    ) {
        let (k, w) = (key(rng), window(rng));
        let roll = rng.gen_range(rolls);
        match (self.pattern, roll) {
            (_, 0..=2) => self.call(|s| s.flush().unwrap()),
            (_, 3..=4) => {
                self.finish_drains();
                self.call_in(checkpoint.path(), |s, dir| s.checkpoint(dir).unwrap());
                *checkpointed = true;
            }
            // After a `restore` or an `inject_entries` the view starts
            // over from `read_view`, as the first one does. The engine
            // does both between drains and publishes between drains, so
            // the rig publishes before a drain can begin.
            (_, 5) if *checkpointed => {
                self.finish_drains();
                self.call_in(checkpoint.path(), |s, dir| s.restore(dir).unwrap());
                self.publish();
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
                self.call(|s| s.inject_entries(vec![entry.clone()]).unwrap());
                self.publish();
            }
            (_, 8..=20) => self.watermark(),
            (Pattern::Aar, 21..=24) => self.drain_chunk(w),
            // The engine never appends into a window it is draining
            // (the drain runs to its end inside `on_watermark`); into
            // one it *has* drained, a late tuple may.
            (Pattern::Aar, _) if self.draining.contains(&w) => {}
            (Pattern::Aur, 21..=35) if self.fused => {
                self.call(|s| s.take_values_with(&k, w, &mut |_| {}).unwrap());
            }
            (Pattern::Aur, 21..=35) => drop(self.call(|s| s.take_values(&k, w).unwrap())),
            (Pattern::Aur, 36..=42) => drop(self.call(|s| s.peek_values(&k, w).unwrap())),
            (Pattern::Aar | Pattern::Aur, _) => {
                let value = bytes(rng);
                self.call(|s| s.append(&k, w, &value, w.start).unwrap());
            }
            (Pattern::Rmw, 21..=35) => drop(self.call(|s| s.take_aggregate(&k, w).unwrap())),
            (Pattern::Rmw, 36..=45) => {
                let value = bytes(rng);
                self.call(|s| s.put_aggregate(&k, w, &value).unwrap());
            }
            (Pattern::Rmw, _) => {
                let tail = bytes(rng);
                let fold = |acc: &mut Vec<u8>, _held: bool| {
                    acc.truncate(12);
                    acc.extend_from_slice(&tail);
                };
                let fused = self.fused;
                self.call(|s| {
                    if fused {
                        s.update_aggregate(&k, w, &mut { fold }).unwrap();
                    } else {
                        let taken = s.take_aggregate(&k, w).unwrap();
                        let mut acc = taken.unwrap_or_default();
                        fold(&mut acc, true);
                        s.put_aggregate(&k, w, &acc).unwrap();
                    }
                });
            }
        }
    }

    /// A simulated watermark: every `every`-th publishes.
    fn watermark(&mut self) {
        self.watermarks += 1;
        if self.watermarks.is_multiple_of(self.every) {
            self.publish();
        }
    }

    /// Reads the adaptor's view and holds it against the twin's own
    /// rebuild.
    fn publish(&mut self) {
        self.publishes += 1;
        let ctx = format!("{} publish {}", self.ctx, self.publishes);
        let before = self.entries.get();
        let view = self
            .backend
            .read_view()
            .unwrap()
            .expect("flowkv stores are queryable");
        let materialised = (self.entries.get() - before) as usize;
        self.published
            .push((materialised, view.len(), view.memory_bytes()));
        self.longest_chain = self.longest_chain.max(view.chain_len());
        let mut rebuilt = self
            .twin
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
        if self.publishes.is_multiple_of(5) {
            self.pinned.push((view, layered));
        }
    }

    /// Ends the script; returns what each publish published.
    fn finish(mut self) -> Vec<(usize, usize, usize)> {
        self.finish_drains();
        self.publish();
        for (i, (held, then)) in self.pinned.iter().enumerate() {
            assert_eq!(&held.to_entries(), then, "{}: pinned view {i}", self.ctx);
            assert_eq!(held.len(), then.len(), "{}: pinned view {i} len", self.ctx);
        }
        self.call(|s| s.close().unwrap());
        self.published
    }
}

/// One seed's script, its read-modify-writes `fused` into one call (and
/// its list takes borrowed) or not, publishing at every `every`-th
/// watermark; returns what each publish published.
fn run_script(
    pattern: Pattern,
    tiered: bool,
    fused: bool,
    every: usize,
    seed: u64,
) -> Vec<(usize, usize, usize)> {
    let name = format!("{pattern:?}-{tiered}-{fused}-{every}-{seed}");
    let dir = ScratchDir::new(&format!("capture-eq-{name}")).unwrap();
    let checkpoint = ScratchDir::new(&format!("capture-ck-{name}")).unwrap();
    let mut checkpointed = false;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rig = Rig::new(pattern, tiered, fused, every, seed, &dir);
    // The first view is read from the store; like the two below it
    // is taken between drains.
    rig.publish();
    for _ in 0..800 * every {
        rig.step(&mut rng, 0..100, &checkpoint, &mut checkpointed);
    }
    assert!(rig.watermarks > 40, "{}: too few watermarks", rig.ctx);
    // A paced AAR epoch nearly always drains a window, and a drop folds.
    let stacks = if matches!(pattern, Pattern::Aar) && every > 1 {
        1
    } else {
        3
    };
    assert!(
        rig.longest_chain >= stacks,
        "{}: deltas never stacked",
        rig.ctx
    );
    rig.finish()
}

/// Seeds per configuration: 10 unless `PROPTEST_CASES` says otherwise
/// (CI's crash-matrix job runs 256).
fn seeds() -> u64 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(10)
}

fn run(pattern: Pattern, tiered: bool, every: usize) {
    for seed in 0..seeds() {
        let published = run_script(pattern, tiered, true, every, seed);
        if matches!(pattern, Pattern::Rmw | Pattern::Aur) {
            assert_eq!(
                published,
                run_script(pattern, tiered, false, every, seed),
                "{pattern:?} tiered={tiered} every={every} seed={seed}: one call against two"
            );
        }
    }
}

#[test]
fn aar_layered_view_equals_read_view() {
    run(Pattern::Aar, false, 1);
}

#[test]
fn aur_layered_view_equals_read_view() {
    run(Pattern::Aur, false, 1);
}

#[test]
fn rmw_layered_view_equals_read_view() {
    run(Pattern::Rmw, false, 1);
}

#[test]
fn tiered_aar_layered_view_equals_read_view() {
    run(Pattern::Aar, true, 1);
}

#[test]
fn tiered_aur_layered_view_equals_read_view() {
    run(Pattern::Aur, true, 1);
}

#[test]
fn tiered_rmw_layered_view_equals_read_view() {
    run(Pattern::Rmw, true, 1);
}

#[test]
fn paced_aar_layered_view_equals_read_view() {
    run(Pattern::Aar, false, 4);
}

#[test]
fn paced_aur_layered_view_equals_read_view() {
    run(Pattern::Aur, false, 4);
}

#[test]
fn paced_rmw_layered_view_equals_read_view() {
    run(Pattern::Rmw, false, 4);
}

#[test]
fn a_paced_epoch_that_collapses_its_log_in_place_equals_read_view() {
    // Three watermarks of read-modify-writes over 96 pairs, then one
    // publish: the log passes its in-place bound (4 096 rows) twice
    // between publishes, with takes, puts and drained windows around it.
    for seed in 0..seeds() {
        let dir = ScratchDir::new(&format!("capture-collapse-{seed}")).unwrap();
        let checkpoint = ScratchDir::new(&format!("capture-collapse-ck-{seed}")).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for pattern in [Pattern::Rmw, Pattern::Aar] {
            let mut rig = Rig::new(pattern, false, true, 3, seed, &dir);
            rig.publish();
            for _ in 0..3 {
                for _ in 0..3_000 {
                    rig.step(&mut rng, 21..100, &checkpoint, &mut false);
                }
                rig.finish_drains();
                rig.watermark();
            }
            assert_eq!(rig.publishes, 2, "{}", rig.ctx);
            rig.finish();
        }
    }
}

/// The epoch log is memory the adaptor holds: after one epoch of updates
/// a captured store reports more than the same store bare, by at least a
/// 48-byte row per logged call.
#[test]
fn a_captured_store_counts_its_epoch_log() {
    const PAIRS: usize = 100;
    let dir = ScratchDir::new("capture-memory").unwrap();
    let mut bare = flowkv(Pattern::Rmw, false, "bare", &dir);
    let mut captured = capture(flowkv(Pattern::Rmw, false, "captured", &dir), None);
    // The first `read_view` starts the view; what follows is recorded.
    captured.read_view().unwrap();
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

/// Puts `n` aggregates of `round` into `store`, one per key.
fn put_round(store: &mut dyn StateBackend, n: u32, round: u8) {
    for i in 0..n {
        let key = format!("key-{i:03}").into_bytes();
        store
            .put_aggregate(&key, WindowId::new(0, 100), &[round; 9])
            .unwrap();
    }
}

#[test]
fn a_second_read_view_with_no_call_between_answers_the_same_and_materialises_nothing() {
    let dir = ScratchDir::new("capture-twice").unwrap();
    let (mut captured, entries) = counted(flowkv(Pattern::Rmw, false, "twice", &dir));
    put_round(captured.as_mut(), 40, 1);
    // Once after a fresh base, once after a delta.
    for (round, materialised) in [(2, 40), (3, 30)] {
        let before = entries.get();
        let first = captured.read_view().unwrap().unwrap();
        assert_eq!(entries.get() - before, materialised, "round {round}");
        let second = captured.read_view().unwrap().unwrap();
        let again = entries.get() - before - materialised;
        assert_eq!(again, 0, "round {round}: the second materialised");
        assert_eq!(first.to_entries(), second.to_entries(), "round {round}");
        assert_eq!(
            (first.len(), first.memory_bytes()),
            (second.len(), second.memory_bytes()),
            "round {round}"
        );
        put_round(captured.as_mut(), 30, round);
    }
    captured.close().unwrap();
}

#[test]
fn after_a_restore_or_an_injection_the_next_read_view_starts_over_from_the_store() {
    let dir = ScratchDir::new("capture-restart").unwrap();
    let checkpoint = ScratchDir::new("capture-restart-ck").unwrap();
    let (mut captured, entries) = counted(flowkv(Pattern::Rmw, false, "restart", &dir));
    let mut twin = flowkv(Pattern::Rmw, false, "restart-twin", &dir);
    let injected = StateEntry::Aggregate {
        key: b"injected".to_vec(),
        window: WindowId::new(0, 100),
        value: b"value".to_vec(),
    };
    let dirs = ["captured", "twin"].map(|name| checkpoint.path().join(name));
    for (s, dir) in [(&mut captured, &dirs[0]), (&mut twin, &dirs[1])] {
        put_round(s.as_mut(), 40, 1);
        s.checkpoint(dir).unwrap();
    }
    captured.read_view().unwrap().unwrap();
    for name in ["restore", "inject"] {
        // What the adaptor recorded before the change goes with the view:
        // applied to it, the 60 changed pairs would be its entries.
        put_round(captured.as_mut(), 60, 2);
        put_round(twin.as_mut(), 60, 2);
        for (s, dir) in [(&mut captured, &dirs[0]), (&mut twin, &dirs[1])] {
            match name {
                "restore" => s.restore(dir).unwrap(),
                _ => s.inject_entries(vec![injected.clone()]).unwrap(),
            }
        }
        let before = entries.get();
        let view = captured.read_view().unwrap().unwrap();
        let rebuilt = twin.read_view().unwrap().unwrap();
        assert_eq!(view.to_entries(), rebuilt.to_entries(), "{name}");
        let fresh = entries.get() - before;
        assert_eq!(fresh, view.len() as u64, "{name}: not a fresh base");
        // Recording again: the next view is built from the log.
        put_round(captured.as_mut(), 5, 3);
        put_round(twin.as_mut(), 5, 3);
        let view = captured.read_view().unwrap().unwrap();
        let rebuilt = twin.read_view().unwrap().unwrap();
        assert_eq!(view.to_entries(), rebuilt.to_entries(), "{name}: recorded");
        assert_eq!(entries.get() - before - fresh, 5, "{name}: recorded");
    }
    captured.close().unwrap();
    twin.close().unwrap();
}

#[test]
fn an_unqueryable_store_answers_none_and_the_adaptor_records_nothing() {
    let in_memory = || Box::new(InMemoryBackend::new(usize::MAX, 64, StdVfs::shared()));
    let (mut captured, entries) = counted(in_memory());
    let mut twin = in_memory();
    for round in 1..=3 {
        put_round(captured.as_mut(), 100, round);
        put_round(twin.as_mut(), 100, round);
        assert!(captured.read_view().unwrap().is_none(), "round {round}");
        let held = captured.memory_bytes() - twin.memory_bytes();
        assert_eq!(held, 0, "round {round}: the adaptor holds a log");
    }
    assert_eq!(entries.get(), 0);
}
