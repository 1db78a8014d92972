//! Semantic equivalence of the background I/O ring: for every backend ×
//! query pair, a run with asynchronous prefetch enabled must produce
//! byte-identical output to the fully synchronous run — under randomized
//! completion reordering, and under an injected crash with supervised
//! recovery.
//!
//! Reorder seeds and the crash point derive from the SplitMix64 stream
//! seeded by `FLOWKV_FAULT_SEED` (default below); the seed is printed so
//! any failure reproduces with `FLOWKV_FAULT_SEED=<seed> cargo test`.

mod common;

use std::sync::Arc;

use common::{cell_seed, fault_seed, nexmark_generator, sorted_triples};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_common::vfs::{FaultPlan, FaultVfs, StdVfs};
use flowkv_nexmark::{EventGenerator, QueryId, QueryParams};
use flowkv_spe::source::{LogSource, TupleLog};
use flowkv_spe::{run_job, run_supervised, BackendChoice, FactoryOptions, RunOptions};

const NUM_EVENTS: u64 = 5_000;
const DEFAULT_SEED: u64 = 0xA5F0;
const IO_THREADS: usize = 2;

fn generator() -> EventGenerator {
    nexmark_generator(NUM_EVENTS, 23)
}

/// Runs `query` synchronously once, then with the ring enabled under
/// several completion-shuffle seeds, and requires identical output.
fn reorder_row(query: QueryId) {
    let seed = fault_seed(DEFAULT_SEED);
    println!(
        "async reorder {}: FLOWKV_FAULT_SEED={seed} (set the env var to replay)",
        query.name()
    );
    let dir = ScratchDir::new(&format!("async-reorder-{}", query.name())).unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, generator().tuples()).unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));

    for backend in &BackendChoice::all_small_for_tests() {
        let mut ref_opts = RunOptions::new(dir.path().join(format!("{}-ref", backend.name())));
        ref_opts.collect_outputs = true;
        ref_opts.watermark_interval = 100;
        let reference = run_job(
            &job,
            LogSource::open(&log).unwrap(),
            backend.build(FactoryOptions::new()),
            &ref_opts,
        )
        .unwrap_or_else(|e| {
            panic!(
                "{} on {}: sync reference failed: {e}",
                query.name(),
                backend.name()
            )
        });
        assert!(
            !reference.outputs.is_empty(),
            "{} on {}: reference produced no output",
            query.name(),
            backend.name()
        );
        let expected = sorted_triples(&reference.outputs);

        for round in 0..2u64 {
            let shuffle = cell_seed(seed, query, backend, round);
            let mut opts =
                RunOptions::new(dir.path().join(format!("{}-ring{round}", backend.name())));
            opts.collect_outputs = true;
            opts.watermark_interval = 100;
            opts.io_threads = IO_THREADS;
            opts.io_shuffle_seed = Some(shuffle);
            let ring_run = run_job(
                &job,
                LogSource::open(&log).unwrap(),
                backend.build(FactoryOptions::new()),
                &opts,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "{} on {}: ring run failed (seed {seed}, shuffle {shuffle}): {e}",
                    query.name(),
                    backend.name()
                )
            });
            assert_eq!(
                sorted_triples(&ring_run.outputs),
                expected,
                "{} on {}: async output diverged (seed {seed}, shuffle {shuffle})",
                query.name(),
                backend.name()
            );
        }
    }
}

/// Crashes a ring-enabled run at a random store operation, recovers
/// under supervision, and requires byte-identical output versus the
/// synchronous reference — the async path must not weaken exactly-once.
fn crash_cell(query: QueryId, backend: &BackendChoice, seed: u64) {
    let dir = ScratchDir::new(&format!("async-crash-{}-{}", query.name(), backend.name())).unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, generator().tuples()).unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));

    let mut ref_opts = RunOptions::new(dir.path().join("ref"));
    ref_opts.collect_outputs = true;
    ref_opts.watermark_interval = 100;
    let reference = run_job(
        &job,
        LogSource::open(&log).unwrap(),
        backend.build(FactoryOptions::new()),
        &ref_opts,
    )
    .unwrap();

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

    let combo_seed = cell_seed(seed, query, backend, 7);
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
        sorted_triples(&reference.outputs),
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
        .into_iter()
        .filter(|b| matches!(b, BackendChoice::FlowKv(_) | BackendChoice::Lsm(_)))
    {
        crash_cell(query, &backend, seed);
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

/// Partitioning keeps the ring: a parallelism-4 run with the ring on
/// matches the parallelism-2 synchronous run, and its workers' stores
/// really submitted prefetches.
#[test]
fn sharded_ring_matches_single_sync_and_prefetches() {
    let dir = ScratchDir::new("async-sharded-ring").unwrap();
    let job = |p| QueryId::Q11Median.build(QueryParams::new(1_000).with_parallelism(p));
    let backend = BackendChoice::FlowKv(flowkv::FlowKvConfig::small_for_tests());

    let mut ref_opts = RunOptions::new(dir.path().join("ref"));
    ref_opts.collect_outputs = true;
    ref_opts.watermark_interval = 100;
    let reference = run_job(
        &job(2),
        generator().tuples(),
        backend.build(FactoryOptions::new()),
        &ref_opts,
    )
    .expect("parallelism-2 sync reference");
    assert!(
        !reference.outputs.is_empty(),
        "reference produced no output"
    );

    let telemetry = Telemetry::new_shared();
    let mut opts = RunOptions::new(dir.path().join("sharded"));
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.io_threads = IO_THREADS;
    opts.telemetry = Some(Arc::clone(&telemetry));
    let sharded = run_job(
        &job(4),
        generator().tuples(),
        backend.build(FactoryOptions::new()),
        &opts,
    )
    .expect("parallelism-4 ring run");
    assert_eq!(
        sorted_triples(&sharded.outputs),
        sorted_triples(&reference.outputs),
        "parallelism-4 ring run diverged from the parallelism-2 synchronous run"
    );
    let issued: u64 = telemetry
        .registry()
        .snapshot()
        .iter()
        .filter(|s| s.name.starts_with("prefetch_issued_total"))
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    assert!(
        issued > 0,
        "no worker submitted a prefetch: the ring was off"
    );
}
