//! Property-based model tests: every persistent backend must behave like
//! a simple in-memory map under arbitrary interleavings of the
//! window-state operations.
//!
//! The model is a `HashMap<(key, window), Vec<value>>` for the append
//! pattern and a `HashMap<(key, window), value>` for aggregates. Ops are
//! generated with small key/window alphabets so collisions, overwrites,
//! re-reads of consumed state, and buffer spills all occur.
//!
//! `update_aggregate` is held to its contract twice: against the model
//! on every backend, and — for the stores that implement it rather than
//! inherit the default — against a twin store fed the two calls it
//! stands for. `take_values_with` likewise: the AUR store that lends its
//! lists against a twin whose lists are taken owned.

use std::collections::HashMap;
use std::sync::Arc;

use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv::rmw::{RmwConfig, RmwStore};
use flowkv_common::backend::{
    AggregateKind, AggregateUpdate, OperatorContext, OperatorSemantics, StateBackend, WindowKind,
};
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::{FaultVfs, StdVfs};
use flowkv_spe::{BackendChoice, FactoryOptions};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum AppendOp {
    /// Append value (arbitrary bytes) to key k in window w.
    Append {
        k: u8,
        w: u8,
        value: Vec<u8>,
        ts: i64,
    },
    /// Fetch-and-remove key k in window w.
    Take { k: u8, w: u8 },
    /// Force a flush.
    Flush,
}

#[derive(Clone, Debug)]
enum AggOp {
    Put { k: u8, w: u8, value: Vec<u8> },
    // Read-modify-write through `fold`.
    Update { k: u8, w: u8, value: Vec<u8> },
    Take { k: u8, w: u8 },
    Flush,
}

/// The update every `AggOp::Update` applies: an even first byte appends
/// `value` to the aggregate, an odd one replaces the aggregate with it —
/// so aggregates grow, shrink and keep their length.
fn fold(aggregate: &mut Vec<u8>, value: &[u8]) {
    if value[0] % 2 == 1 {
        aggregate.clear();
    }
    aggregate.extend_from_slice(value);
}

fn window(w: u8) -> WindowId {
    let start = i64::from(w) * 100;
    WindowId::new(start, start + 100)
}

fn key(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

fn append_ops() -> impl Strategy<Value = Vec<AppendOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..6, 0u8..4, prop::collection::vec(any::<u8>(), 0..40), 0i64..1000)
                .prop_map(|(k, w, value, ts)| AppendOp::Append { k, w, value, ts }),
            2 => (0u8..6, 0u8..4).prop_map(|(k, w)| AppendOp::Take { k, w }),
            1 => Just(AppendOp::Flush),
        ],
        1..120,
    )
}

fn agg_ops() -> impl Strategy<Value = Vec<AggOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u8..6, 0u8..4, prop::collection::vec(any::<u8>(), 1..24))
                .prop_map(|(k, w, value)| AggOp::Put { k, w, value }),
            6 => (0u8..6, 0u8..4, prop::collection::vec(any::<u8>(), 1..24))
                .prop_map(|(k, w, value)| AggOp::Update { k, w, value }),
            2 => (0u8..6, 0u8..4).prop_map(|(k, w)| AggOp::Take { k, w }),
            1 => Just(AggOp::Flush),
        ],
        1..120,
    )
}

fn make_store(choice: &BackendChoice, semantics: OperatorSemantics) -> Box<dyn StateBackend> {
    let dir = ScratchDir::new(&format!("model-{}", choice.name())).unwrap();
    let ctx = OperatorContext {
        operator: "model".into(),
        partition: 0,
        semantics,
        data_dir: dir.into_kept(),
        telemetry: None,
        io: None,
    };
    choice.build(FactoryOptions::new()).create(&ctx).unwrap()
}

fn check_append_model(choice: &BackendChoice, ops: &[AppendOp]) -> Result<(), TestCaseError> {
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 50 });
    let mut store = make_store(choice, semantics);
    let mut model: HashMap<(u8, u8), Vec<Vec<u8>>> = HashMap::new();
    for op in ops {
        match op {
            AppendOp::Append { k, w, value, ts } => {
                store.append(&key(*k), window(*w), value, *ts).unwrap();
                model.entry((*k, *w)).or_default().push(value.clone());
            }
            AppendOp::Take { k, w } => {
                let got = store.take_values(&key(*k), window(*w)).unwrap();
                let expect = model.remove(&(*k, *w)).unwrap_or_default();
                prop_assert_eq!(
                    &got,
                    &expect,
                    "backend {} diverged on take({},{})",
                    choice.name(),
                    k,
                    w
                );
            }
            AppendOp::Flush => store.flush().unwrap(),
        }
    }
    // Drain the remaining model state.
    for ((k, w), expect) in model {
        let got = store.take_values(&key(k), window(w)).unwrap();
        prop_assert_eq!(
            &got,
            &expect,
            "backend {} final ({},{})",
            choice.name(),
            k,
            w
        );
    }
    store.close().unwrap();
    Ok(())
}

fn check_agg_model(choice: &BackendChoice, ops: &[AggOp]) -> Result<(), TestCaseError> {
    let semantics =
        OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Fixed { size: 100 });
    let mut store = make_store(choice, semantics);
    let mut model: HashMap<(u8, u8), Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            AggOp::Put { k, w, value } => {
                store.put_aggregate(&key(*k), window(*w), value).unwrap();
                model.insert((*k, *w), value.clone());
            }
            AggOp::Update { k, w, value } => {
                let expect = model.get(&(*k, *w)).cloned();
                let mut lent = Vec::new();
                let mut update = |aggregate: &mut Vec<u8>, held: bool| {
                    lent.push(held.then(|| aggregate.clone()));
                    if !held {
                        assert!(
                            aggregate.is_empty(),
                            "a pair that holds nothing lends bytes"
                        );
                    }
                    fold(aggregate, value);
                };
                store
                    .update_aggregate(&key(*k), window(*w), &mut update)
                    .unwrap();
                prop_assert_eq!(
                    &lent,
                    &vec![expect],
                    "backend {} lent the wrong aggregate to update({},{})",
                    choice.name(),
                    k,
                    w
                );
                fold(model.entry((*k, *w)).or_default(), value);
            }
            AggOp::Take { k, w } => {
                let got = store.take_aggregate(&key(*k), window(*w)).unwrap();
                let expect = model.remove(&(*k, *w));
                prop_assert_eq!(
                    &got,
                    &expect,
                    "backend {} diverged on take({},{})",
                    choice.name(),
                    k,
                    w
                );
            }
            AggOp::Flush => store.flush().unwrap(),
        }
    }
    for ((k, w), expect) in model {
        let got = store.take_aggregate(&key(k), window(w)).unwrap();
        prop_assert_eq!(
            got,
            Some(expect),
            "backend {} final ({},{})",
            choice.name(),
            k,
            w
        );
    }
    store.close().unwrap();
    Ok(())
}

/// The aggregate calls as a bare `RmwStore` and a boxed backend both
/// spell them, so one driver runs twins of either.
trait AggStore {
    fn take(&mut self, key: &[u8], window: WindowId) -> Option<Vec<u8>>;
    fn put(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]);
    fn update(&mut self, key: &[u8], window: WindowId, f: AggregateUpdate<'_>);
    fn flush_buffers(&mut self);
}

impl AggStore for Box<dyn StateBackend> {
    fn take(&mut self, key: &[u8], window: WindowId) -> Option<Vec<u8>> {
        self.take_aggregate(key, window).unwrap()
    }
    fn put(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) {
        self.put_aggregate(key, window, aggregate).unwrap()
    }
    fn update(&mut self, key: &[u8], window: WindowId, f: AggregateUpdate<'_>) {
        self.update_aggregate(key, window, f).unwrap()
    }
    fn flush_buffers(&mut self) {
        self.flush().unwrap()
    }
}

/// Runs `ops` on twin stores — `one` through its one-call update, `two`
/// through take → [`fold`] → put — checking that the update is lent
/// what the take returns and that takes agree, and calling `compare`
/// on the two after every step.
fn drive_twins<S: AggStore>(
    ops: &[AggOp],
    one: &mut S,
    two: &mut S,
    mut compare: impl FnMut(&S, &S, String) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for (step, op) in ops.iter().enumerate() {
        match op {
            AggOp::Update { k, w, value } => {
                let (key, window) = (key(*k), window(*w));
                let mut lent = None;
                let mut update = |aggregate: &mut Vec<u8>, held: bool| {
                    lent = Some(held.then(|| aggregate.clone()));
                    fold(aggregate, value);
                };
                one.update(&key, window, &mut update);
                let taken = two.take(&key, window);
                prop_assert_eq!(lent, Some(taken.clone()), "step {}: {:?}", step, op);
                let mut aggregate = taken.unwrap_or_default();
                fold(&mut aggregate, value);
                two.put(&key, window, &aggregate);
            }
            AggOp::Put { k, w, value } => {
                one.put(&key(*k), window(*w), value);
                two.put(&key(*k), window(*w), value);
            }
            AggOp::Take { k, w } => {
                let got = one.take(&key(*k), window(*w));
                prop_assert_eq!(got, two.take(&key(*k), window(*w)), "step {}", step);
            }
            AggOp::Flush => {
                one.flush_buffers();
                two.flush_buffers();
            }
        }
        compare(one, two, format!("after step {step}: {op:?}"))?;
    }
    Ok(())
}

/// What a store shows from outside besides its answers.
#[derive(Debug, PartialEq)]
struct Observed {
    memory_bytes: usize,
    records: (u64, u64),
    device: (u64, u64, u64, u64),
    vfs_ops: u64,
    log_files: Vec<(String, Vec<u8>)>,
}

/// A store of the core crate over a counting filesystem, with what
/// [`Observed`] reads.
struct Watched<S> {
    store: S,
    memory_bytes: fn(&S) -> usize,
    dir: ScratchDir,
    vfs: Arc<FaultVfs>,
    metrics: Arc<StoreMetrics>,
}

type WatchedRmw = Watched<RmwStore>;

impl WatchedRmw {
    fn open(name: &str, write_buffer_bytes: usize) -> Self {
        let dir = ScratchDir::new(name).unwrap();
        let vfs = FaultVfs::counting(StdVfs::shared());
        let cfg = RmwConfig {
            write_buffer_bytes,
            max_space_amplification: 1.5,
        };
        let metrics = StoreMetrics::new_shared();
        let store = RmwStore::open_with_vfs(dir.path(), cfg, metrics.clone(), vfs.clone());
        Watched {
            store: store.unwrap(),
            memory_bytes: RmwStore::memory_bytes,
            dir,
            vfs,
            metrics,
        }
    }
}

impl Watched<AurStore> {
    fn open(name: &str, cfg: AurConfig) -> Self {
        let dir = ScratchDir::new(name).unwrap();
        let vfs = FaultVfs::counting(StdVfs::shared());
        let metrics = StoreMetrics::new_shared();
        let predictor = EttPredictor::SessionGap { gap: 50 };
        let store =
            AurStore::open_with_vfs(dir.path(), cfg, predictor, metrics.clone(), vfs.clone());
        Watched {
            store: store.unwrap(),
            memory_bytes: AurStore::memory_bytes,
            dir,
            vfs,
            metrics,
        }
    }
}

impl<S> Watched<S> {
    fn observe(&self) -> Observed {
        let mut log_files: Vec<(String, Vec<u8>)> = std::fs::read_dir(self.dir.path())
            .unwrap()
            .map(|entry| entry.unwrap())
            .map(|e| {
                (
                    e.file_name().into_string().unwrap(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        log_files.sort();
        let m = self.metrics.snapshot();
        Observed {
            memory_bytes: (self.memory_bytes)(&self.store),
            records: (m.records_read, m.records_written),
            device: (m.bytes_read, m.bytes_written, m.flushes, m.compactions),
            vfs_ops: self.vfs.ops(),
            log_files,
        }
    }
}

impl AggStore for WatchedRmw {
    fn take(&mut self, key: &[u8], window: WindowId) -> Option<Vec<u8>> {
        self.store.take(key, window).unwrap()
    }
    fn put(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) {
        self.store.put(key, window, aggregate).unwrap()
    }
    fn update(&mut self, key: &[u8], window: WindowId, f: AggregateUpdate<'_>) {
        self.store.update(key, window, f).unwrap()
    }
    fn flush_buffers(&mut self) {
        self.store.flush().unwrap()
    }
}

/// One RMW store driven by `update`, its twin by take → [`fold`] → put,
/// behind write buffers of 1 KiB and less (the floor below which the log
/// never compacts is one write buffer): after every step the two hold
/// the same memory, counted the same records, issued the same number of
/// device operations and left byte-identical files.
fn check_rmw_update_twin(ops: &[AggOp], write_buffer_bytes: usize) -> Result<(), TestCaseError> {
    let mut one = WatchedRmw::open("model-rmw-update", write_buffer_bytes);
    let mut two = WatchedRmw::open("model-rmw-take-put", write_buffer_bytes);
    drive_twins(ops, &mut one, &mut two, |one, two, at| {
        prop_assert_eq!(one.observe(), two.observe(), "{}", at);
        Ok(())
    })
}

/// One AUR store whose lists are taken owned, its twin's lent — behind
/// write buffers small enough that flushes, batch reads and compactions
/// all happen, with a peek now and then to leave a prefetched copy for a
/// take to find: the same values throughout and, after every step, the
/// same memory, record counts, device operations and files.
fn check_aur_take_twin(ops: &[AppendOp], cfg: AurConfig) -> Result<(), TestCaseError> {
    let mut owned = Watched::<AurStore>::open("model-aur-owned", cfg.clone());
    let mut lent = Watched::<AurStore>::open("model-aur-lent", cfg);
    for (step, op) in ops.iter().enumerate() {
        match op {
            AppendOp::Append { k, w, value, ts } => {
                for twin in [&mut owned, &mut lent] {
                    twin.store.append(&key(*k), window(*w), value, *ts).unwrap();
                }
                if value.first().is_some_and(|b| b % 4 == 0) {
                    let peeked = owned.store.peek(&key(*k), window(*w)).unwrap();
                    prop_assert_eq!(peeked, lent.store.peek(&key(*k), window(*w)).unwrap());
                }
            }
            AppendOp::Take { k, w } => {
                let expect = owned.store.take(&key(*k), window(*w)).unwrap();
                let mut got = Vec::new();
                let mut keep = |value: &[u8]| got.push(value.to_vec());
                let count = lent.store.take_with(&key(*k), window(*w), &mut keep);
                prop_assert_eq!(count.unwrap(), expect.len(), "step {}", step);
                prop_assert_eq!(got, expect, "step {}: {:?}", step, op);
            }
            AppendOp::Flush => {
                owned.store.flush().unwrap();
                lent.store.flush().unwrap();
            }
        }
        prop_assert_eq!(
            owned.observe(),
            lent.observe(),
            "after step {}: {:?}",
            step,
            op
        );
    }
    Ok(())
}

/// A baseline that implements `update_aggregate` against a twin of
/// itself driven by the trait's default, take → [`fold`] → put: the same
/// answers throughout and, where `same_memory` says the two paths hold
/// the same bytes, the same `memory_bytes()` after every step. (The hash
/// store's figure is its log's mutable region, which the two calls grow
/// by a tombstone and a record where the update rewrites in place: the
/// update may hold less, never more.)
fn check_update_against_default(
    choice: &BackendChoice,
    ops: &[AggOp],
    same_memory: bool,
) -> Result<(), TestCaseError> {
    let semantics =
        OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Fixed { size: 100 });
    let mut one = make_store(choice, semantics);
    let mut two = make_store(choice, semantics);
    drive_twins(ops, &mut one, &mut two, |one, two, at| {
        let (one, two) = (one.memory_bytes(), two.memory_bytes());
        prop_assert!(
            if same_memory { one == two } else { one <= two },
            "backend {} holds {} bytes, its twin {}, {}",
            choice.name(),
            one,
            two,
            at
        );
        Ok(())
    })?;
    one.close().unwrap();
    two.close().unwrap();
    Ok(())
}

/// Cases per backend and pattern: 24 unless `PROPTEST_CASES` says
/// otherwise (CI's crash-matrix job runs 256).
fn cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn flowkv_append_matches_model(ops in append_ops()) {
        check_append_model(&BackendChoice::all_small_for_tests()[1], &ops)?;
    }

    #[test]
    fn lsm_append_matches_model(ops in append_ops()) {
        check_append_model(&BackendChoice::all_small_for_tests()[2], &ops)?;
    }

    #[test]
    fn hashkv_append_matches_model(ops in append_ops()) {
        check_append_model(&BackendChoice::all_small_for_tests()[3], &ops)?;
    }

    #[test]
    fn inmemory_aggregates_match_model(ops in agg_ops()) {
        check_agg_model(&BackendChoice::all_small_for_tests()[0], &ops)?;
    }

    #[test]
    fn flowkv_aggregates_match_model(ops in agg_ops()) {
        check_agg_model(&BackendChoice::all_small_for_tests()[1], &ops)?;
    }

    #[test]
    fn lsm_aggregates_match_model(ops in agg_ops()) {
        check_agg_model(&BackendChoice::all_small_for_tests()[2], &ops)?;
    }

    #[test]
    fn hashkv_aggregates_match_model(ops in agg_ops()) {
        check_agg_model(&BackendChoice::all_small_for_tests()[3], &ops)?;
    }

    #[test]
    fn rmw_update_is_take_then_put_down_to_the_log_bytes(
        ops in agg_ops(),
        write_buffer_bytes in prop_oneof![Just(160usize), Just(400), Just(1024)],
    ) {
        check_rmw_update_twin(&ops, write_buffer_bytes)?;
    }

    #[test]
    fn aur_borrowed_take_is_the_owned_take_down_to_the_log_bytes(
        ops in append_ops(),
        write_buffer_bytes in prop_oneof![Just(128usize), Just(512), Just(4096)],
        read_batch_ratio in prop_oneof![Just(0.0), Just(0.2), Just(1.0)],
    ) {
        check_aur_take_twin(&ops, AurConfig {
            write_buffer_bytes,
            read_batch_ratio,
            max_space_amplification: 1.2,
        })?;
    }

    #[test]
    fn inmemory_update_is_its_own_take_then_put(ops in agg_ops()) {
        check_update_against_default(&BackendChoice::all_small_for_tests()[0], &ops, true)?;
    }

    #[test]
    fn hashkv_update_is_its_own_take_then_put(ops in agg_ops()) {
        check_update_against_default(&BackendChoice::all_small_for_tests()[3], &ops, false)?;
    }
}
