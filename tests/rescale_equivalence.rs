//! Rescale equivalence matrix: for every backend, Q7 / Q11-Median / Q11
//! must produce byte-identical committed output at N=1, at N=4, and
//! across an N=2→4 mid-job rescale — and all three must match the plain
//! single-process `run_job` result.
//!
//! The crash cell additionally injects one random store-operation crash
//! into a sharded run (drawn from the `FLOWKV_FAULT_SEED` SplitMix64
//! stream, like `crash_matrix`) and requires the cluster's per-worker
//! deterministic-backoff retry to recover with identical output. The
//! seed is printed so any failure replays with
//! `FLOWKV_FAULT_SEED=<seed> cargo test`.

mod common;

use common::{fault_seed, nexmark_generator, sorted_triples};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::{FaultPlan, FaultVfs, StdVfs};
use flowkv_nexmark::{EventGenerator, QueryId, QueryParams};
use flowkv_spe::{run_cluster, run_job, BackendChoice, FactoryOptions, RunOptions};

const NUM_EVENTS: u64 = 8_000;
const DEFAULT_SEED: u64 = 0xF10C;
const WM_INTERVAL: usize = 100;

fn generator() -> EventGenerator {
    nexmark_generator(NUM_EVENTS, 7)
}

fn rescale_cell(query: QueryId, backend: &BackendChoice) {
    let dir = ScratchDir::new(&format!("rescale-eq-{}-{}", query.name(), backend.name())).unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));

    // Plain single-process reference.
    let mut ref_opts = RunOptions::new(dir.path().join("ref"));
    ref_opts.collect_outputs = true;
    ref_opts.watermark_interval = WM_INTERVAL;
    let reference = run_job(
        &job,
        generator().tuples(),
        backend.build(FactoryOptions::new()),
        &ref_opts,
    )
    .unwrap_or_else(|e| panic!("{} on {}: reference: {e}", query.name(), backend.name()));
    let want = sorted_triples(&reference.outputs);
    assert!(
        !want.is_empty(),
        "{} on {}: reference produced no output",
        query.name(),
        backend.name()
    );

    // Sharded at N=1 and N=4.
    for n in [1usize, 4] {
        let mut opts = RunOptions::new(dir.path().join(format!("n{n}")));
        opts.watermark_interval = WM_INTERVAL;
        opts.workers = n;
        let result = run_cluster(
            &job,
            generator().tuples(),
            backend.build(FactoryOptions::new()),
            &opts,
        )
        .unwrap_or_else(|e| panic!("{} on {} N={n}: {e}", query.name(), backend.name()));
        assert_eq!(
            sorted_triples(&result.outputs),
            want,
            "{} on {}: N={n} diverged from the single-process run",
            query.name(),
            backend.name()
        );
    }

    // Live rescale N=2→4 at the stream's midpoint.
    let mut ropts = RunOptions::new(dir.path().join("rescale"));
    ropts.watermark_interval = WM_INTERVAL;
    ropts.workers = 2;
    ropts.rescale_to = Some(4);
    ropts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    ropts.checkpoint_dir = Some(dir.path().join("rescale-ckpt"));
    let rescaled = run_cluster(
        &job,
        generator().tuples(),
        backend.build(FactoryOptions::new()),
        &ropts,
    )
    .unwrap_or_else(|e| panic!("{} on {} rescale: {e}", query.name(), backend.name()));
    assert_eq!(rescaled.workers, 4);
    let pause = rescaled
        .rescale_pause
        .expect("rescale must report its pause");
    assert!(pause.as_nanos() > 0);
    assert_eq!(
        sorted_triples(&rescaled.outputs),
        want,
        "{} on {}: N=2→4 rescale diverged from the single-process run",
        query.name(),
        backend.name()
    );
}

fn rescale_row(query: QueryId) {
    for backend in &BackendChoice::all_small_for_tests() {
        rescale_cell(query, backend);
    }
}

#[test]
fn rescale_equivalence_q7() {
    rescale_row(QueryId::Q7);
}

#[test]
fn rescale_equivalence_q11_median() {
    rescale_row(QueryId::Q11Median);
}

#[test]
fn rescale_equivalence_q11() {
    rescale_row(QueryId::Q11);
}

/// The crash cell: one injected store-op crash inside a sharded run;
/// the failing worker retries (deterministic seed-derived backoff) and
/// the merged output must still match the undisturbed run.
#[test]
fn sharded_crash_recovers_with_identical_output() {
    let seed = fault_seed(DEFAULT_SEED);
    println!("rescale matrix crash cell: FLOWKV_FAULT_SEED={seed} (set the env var to replay)");
    let query = QueryId::Q11;
    let backend = &BackendChoice::all_small_for_tests()[1];
    let dir = ScratchDir::new("rescale-crash").unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));

    let opts = |root: &str| {
        let mut opts = RunOptions::new(dir.path().join(root));
        opts.watermark_interval = WM_INTERVAL;
        opts.workers = 4;
        opts
    };
    let clean = run_cluster(
        &job,
        generator().tuples(),
        backend.build(FactoryOptions::new()),
        &opts("clean"),
    )
    .expect("clean sharded run");

    // Count the run's store-op footprint, then crash inside it.
    let counter = FaultVfs::counting(StdVfs::shared());
    run_cluster(
        &job,
        generator().tuples(),
        backend.build(FactoryOptions::new().vfs(counter.clone())),
        &opts("count"),
    )
    .expect("counting run");
    let total_ops = counter.ops();
    assert!(total_ops > 0, "stores never touched the vfs");

    let plan = FaultPlan::random_crash(seed, total_ops * 9 / 10);
    let faulty = FaultVfs::new(StdVfs::shared(), plan);
    let mut copts = opts("crash");
    copts.max_restarts = 2;
    copts.restart_backoff = std::time::Duration::from_millis(1);
    let recovered = run_cluster(
        &job,
        generator().tuples(),
        backend.build(FactoryOptions::new().vfs(faulty.clone())),
        &copts,
    )
    .unwrap_or_else(|e| panic!("sharded run did not recover (seed {seed}): {e}"));
    let fired = faulty.fired();
    assert_eq!(
        fired.len(),
        1,
        "expected exactly one injected crash (seed {seed}), fired {fired:?}"
    );
    assert_eq!(
        sorted_triples(&recovered.outputs),
        sorted_triples(&clean.outputs),
        "recovered sharded output diverged (seed {seed}, crash at op {})",
        fired[0].0
    );
}
