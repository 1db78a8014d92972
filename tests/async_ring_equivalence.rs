//! Semantic equivalence of the background I/O ring: for every backend
//! and each FlowKV access pattern (Q7 = AAR, Q11-Median = AUR,
//! Q11 = RMW), a run whose reads complete on a two-thread ring in a
//! shuffled order produces the specification's answer — the
//! `ring_shuffle_*` rows of the query matrix, two shuffles each. And
//! the ring keeps exactly-once: a ring-enabled run with shuffled
//! completions is crashed at a random store operation and recovered
//! under supervision to the same answer. (The ring sharded over four
//! workers is the `matrix` suite's `ring_p4` row.)
//!
//! The crash point and shuffle seed derive from the SplitMix64 stream
//! seeded by `FLOWKV_FAULT_SEED` (default below); the seed is printed so
//! any failure reproduces with `FLOWKV_FAULT_SEED=<seed> cargo test`.

mod common;

use common::matrix::{check_row, every_backend, short, Tweak, N, PLAIN};
use common::{cell_seed, fault_seed, logged, nexmark_shape, sorted_triples, spec_outputs};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::{FaultPlan, FaultVfs, StdVfs};
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::source::{LogSource, TupleLog};
use flowkv_spe::{run_job, run_supervised, BackendChoice, FactoryOptions, RunOptions};

const NUM_EVENTS: u64 = 5_000;
const DEFAULT_SEED: u64 = 0xA5F0;
const IO_THREADS: usize = 2;

fn shape() -> GeneratorConfig {
    nexmark_shape(NUM_EVENTS, 23)
}

/// `query` on every backend with its reads on the ring, completions
/// shuffled by two seeds drawn from `FLOWKV_FAULT_SEED` per cell.
fn reorder_row(query: QueryId) {
    for (row, round) in [("ring_shuffle_0", 0), ("ring_shuffle_1", 1)] {
        let tweak = Tweak {
            ring: Some(round),
            ..PLAIN
        };
        check_row(row, &[N(query)], every_backend, short(), tweak);
    }
}

/// Crashes a ring-enabled run at a random store operation, recovers
/// under supervision, and requires the specification's outputs — the
/// async path must not weaken exactly-once.
fn crash_cell(query: QueryId, backend: &BackendChoice, seed: u64) {
    let dir = ScratchDir::new(&format!("async-crash-{}-{}", query.name(), backend.name())).unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, EventGenerator::new(shape()).tuples()).unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));

    // Count the ring run's store-op footprint, then crash inside the
    // first half of it: background reads make the tail of the op range
    // noisier than in the synchronous matrix, and the early half is
    // where in-flight prefetches are most likely to be live.
    let counter = FaultVfs::counting(StdVfs::shared());
    let mut counted_opts = RunOptions::new(dir.path().join("count"));
    counted_opts.watermark_interval = 100;
    counted_opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    counted_opts.checkpoint_dir = Some(dir.path().join("count-ckpt"));
    counted_opts.io_threads = IO_THREADS;
    run_job(
        &job,
        LogSource::open(&log).unwrap(),
        backend.build(FactoryOptions::new().vfs(counter.clone())),
        &counted_opts,
    )
    .unwrap();
    let total_ops = counter.ops();
    assert!(total_ops > 0, "store never touched the vfs");

    let combo_seed = cell_seed(seed, query.name(), backend, 7);
    let plan = FaultPlan::random_crash(combo_seed, total_ops / 2);
    let faulty = FaultVfs::new(StdVfs::shared(), plan);
    let mut opts = RunOptions::new(dir.path().join("data"));
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    opts.checkpoint_dir = Some(dir.path().join("ckpt"));
    opts.max_restarts = 2;
    opts.restart_backoff = std::time::Duration::from_millis(1);
    opts.io_threads = IO_THREADS;
    opts.io_shuffle_seed = Some(combo_seed);
    let sup = run_supervised(
        &job,
        &log,
        backend.build(FactoryOptions::new().vfs(faulty.clone())),
        &opts,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{} on {}: supervised ring run failed (seed {seed}): {e}",
            query.name(),
            backend.name()
        )
    });

    let fired = faulty.fired();
    assert_eq!(
        fired.len(),
        1,
        "{} on {}: expected exactly one injected crash (seed {seed}), fired {fired:?}",
        query.name(),
        backend.name()
    );
    assert_eq!(
        sup.restarts,
        1,
        "{} on {}: one crash must cost exactly one restart (seed {seed})",
        query.name(),
        backend.name()
    );
    assert_eq!(
        sorted_triples(&sup.all_outputs()),
        spec_outputs(query, shape()),
        "{} on {}: recovered async output diverged (seed {seed}, crash at op {})",
        query.name(),
        backend.name(),
        fired[0].0
    );
}

/// Crash cells cover the two backends that actually route reads through
/// the ring (FlowKV's AAR/AUR prefetch and the LSM block warm-up); the
/// other backends ignore the I/O policy and are already exercised by the
/// synchronous crash matrix.
fn crash_row(query: QueryId) {
    let seed = fault_seed(DEFAULT_SEED);
    println!(
        "async crash {}: FLOWKV_FAULT_SEED={seed} (set the env var to replay)",
        query.name()
    );
    for backend in BackendChoice::all_small_for_tests()
        .iter()
        .filter(|b| logged(b))
    {
        crash_cell(query, backend, seed);
    }
}

#[test]
fn async_reorder_q7() {
    reorder_row(QueryId::Q7);
}

#[test]
fn async_reorder_q11_median() {
    reorder_row(QueryId::Q11Median);
}

#[test]
fn async_reorder_q11() {
    reorder_row(QueryId::Q11);
}

#[test]
fn async_crash_q7() {
    crash_row(QueryId::Q7);
}

#[test]
fn async_crash_q11_median() {
    crash_row(QueryId::Q11Median);
}
