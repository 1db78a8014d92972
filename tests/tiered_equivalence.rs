//! Differential tier-testing harness: every query × backend runs
//! hot-only and tiered, and the outputs must be byte-identical.
//!
//! Three tiered configurations per cell:
//!
//! 1. a moderate hot budget (some windows demote, some stay hot),
//! 2. the pathological `hot_bytes = 0` cell — every write
//!    immediately seals to a compressed cold block, so *all* served
//!    state round-trips through the columnar codec (the telemetry
//!    assert proves demotion actually happened), and
//! 3. forced demotion with the background I/O ring enabled, so
//!    promotion and prefetch reads ride the async path.
//!
//! A final seeded cell crashes a forced-demotion run at a random store
//! operation drawn from the `FLOWKV_FAULT_SEED` stream (printed in
//! every failure message) and requires supervised recovery to restore
//! both tiers to byte-identical output.

mod common;

use std::sync::Arc;

use common::{cell_seed, fault_seed, nexmark_generator, sorted_triples, SortedOutputs};
use flowkv::tier::TierConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_common::vfs::{FaultPlan, FaultVfs, StdVfs};
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::source::{LogSource, TupleLog};
use flowkv_spe::{run_job, run_supervised, BackendChoice, FactoryOptions, RunOptions};

const NUM_EVENTS: u64 = 5_000;
const DEFAULT_SEED: u64 = 0x71E2;
/// Moderate per-partition hot budget: small enough that the 5k-event
/// streams overflow it and demote, large enough that hot hits remain.
const MODERATE_HOT_BYTES: u64 = 16 << 10;

fn counter_value(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .registry()
        .snapshot()
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
}

/// Runs one tiered configuration of the cell and compares against the
/// hot-only checksum. Returns the run's telemetry hub.
#[allow(clippy::too_many_arguments)]
fn tiered_run(
    query: QueryId,
    backend: &BackendChoice,
    log: &std::path::Path,
    dir: &std::path::Path,
    label: &str,
    hot_bytes: u64,
    io_threads: usize,
    expected: &SortedOutputs,
) -> Arc<Telemetry> {
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));
    let telemetry = Telemetry::new_shared();
    let mut opts = RunOptions::new(dir.join(label));
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.io_threads = io_threads;
    opts.telemetry = Some(Arc::clone(&telemetry));
    let tier = TierConfig::new(hot_bytes as usize);
    let result = run_job(
        &job,
        LogSource::open(log).unwrap(),
        backend.build(FactoryOptions::new().tiered(tier)),
        &opts,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{} on {} [{label}]: tiered run failed: {e}",
            query.name(),
            backend.name()
        )
    });
    assert_eq!(
        sorted_triples(&result.outputs),
        *expected,
        "{} on {} [{label}]: tiered output diverged from hot-only",
        query.name(),
        backend.name()
    );
    telemetry
}

/// One differential cell: hot-only reference, then the three tiered
/// configurations, all byte-identical.
fn differential_cell(query: QueryId, backend: &BackendChoice) {
    let dir = ScratchDir::new(&format!("tiered-eq-{}-{}", query.name(), backend.name())).unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, nexmark_generator(NUM_EVENTS, 23).tuples()).unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));

    let mut ref_opts = RunOptions::new(dir.path().join("hot-only"));
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
            "{} on {}: hot-only reference failed: {e}",
            query.name(),
            backend.name()
        )
    });
    assert!(
        !reference.outputs.is_empty(),
        "{} on {}: hot-only reference produced no output",
        query.name(),
        backend.name()
    );
    let expected = sorted_triples(&reference.outputs);

    let d = dir.path();
    tiered_run(
        query,
        backend,
        &log,
        d,
        "moderate",
        MODERATE_HOT_BYTES,
        0,
        &expected,
    );
    let forced = tiered_run(query, backend, &log, d, "forced", 0, 0, &expected);
    assert!(
        counter_value(&forced, "tier_demotions_total") > 0,
        "{} on {}: hot_bytes=0 run never demoted — the cell did not exercise the cold tier",
        query.name(),
        backend.name()
    );
    let forced_ring = tiered_run(query, backend, &log, d, "forced-ring", 0, 2, &expected);
    assert!(
        counter_value(&forced_ring, "tier_demotions_total") > 0,
        "{} on {}: ring-enabled forced run never demoted",
        query.name(),
        backend.name()
    );
    assert!(
        counter_value(&forced_ring, "tier_prefetch_submitted_total") > 0,
        "{} on {}: the tier never read ahead through its ring",
        query.name(),
        backend.name()
    );
}

fn differential_row(query: QueryId) {
    for backend in &BackendChoice::all_small_for_tests() {
        differential_cell(query, backend);
    }
}

#[test]
fn tiered_differential_q7() {
    differential_row(QueryId::Q7);
}

#[test]
fn tiered_differential_q11_median() {
    differential_row(QueryId::Q11Median);
}

#[test]
fn tiered_differential_q11() {
    differential_row(QueryId::Q11);
}

/// The seeded crash cell: a forced-demotion tiered run (cold log and
/// inner store both behind the FaultVfs) crashes at a random store op
/// and recovers under supervision to byte-identical output.
fn tiered_crash_cell(query: QueryId, backend: &BackendChoice, seed: u64) {
    let dir = ScratchDir::new(&format!(
        "tiered-eq-crash-{}-{}",
        query.name(),
        backend.name()
    ))
    .unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, nexmark_generator(NUM_EVENTS, 23).tuples()).unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));
    let tier_cfg = TierConfig::new(0);

    let mut ref_opts = RunOptions::new(dir.path().join("ref"));
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
            "{} on {}: hot-only reference failed (seed {seed}): {e}",
            query.name(),
            backend.name()
        )
    });

    // Count the tiered run's store-op footprint (cold-log traffic
    // included), then crash inside it.
    let counter = FaultVfs::counting(StdVfs::shared());
    let mut counted_opts = RunOptions::new(dir.path().join("count"));
    counted_opts.watermark_interval = 100;
    counted_opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    counted_opts.checkpoint_dir = Some(dir.path().join("count-ckpt"));
    run_job(
        &job,
        LogSource::open(&log).unwrap(),
        backend.build(
            FactoryOptions::new()
                .tiered(tier_cfg.clone())
                .vfs(counter.clone()),
        ),
        &counted_opts,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{} on {}: tiered counting run failed (seed {seed}): {e}",
            query.name(),
            backend.name()
        )
    });
    let total_ops = counter.ops();
    assert!(
        total_ops > 0,
        "{} on {}: tiered store never touched the vfs (seed {seed})",
        query.name(),
        backend.name()
    );

    let combo_seed = cell_seed(seed, query, backend, 29);
    let plan = FaultPlan::random_crash(combo_seed, total_ops * 9 / 10);
    let faulty = FaultVfs::new(StdVfs::shared(), plan);
    let mut opts = RunOptions::new(dir.path().join("data"));
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    opts.checkpoint_dir = Some(dir.path().join("ckpt"));
    opts.max_restarts = 2;
    opts.restart_backoff = std::time::Duration::from_millis(1);
    let sup = run_supervised(
        &job,
        &log,
        backend.build(FactoryOptions::new().tiered(tier_cfg).vfs(faulty.clone())),
        &opts,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{} on {}: supervised tiered run failed (seed {seed}): {e}",
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
        sorted_triples(&sup.all_outputs()),
        sorted_triples(&reference.outputs),
        "{} on {}: recovered tiered output diverged (seed {seed}, crash at op {})",
        query.name(),
        backend.name(),
        fired[0].0
    );
}

#[test]
fn tiered_crash_recovers_byte_identical() {
    let seed = fault_seed(DEFAULT_SEED);
    println!("tiered crash cell: FLOWKV_FAULT_SEED={seed} (set the env var to replay)");
    for backend in BackendChoice::all_small_for_tests()
        .into_iter()
        .filter(|b| matches!(b, BackendChoice::FlowKv(_) | BackendChoice::Lsm(_)))
    {
        tiered_crash_cell(QueryId::Q11Median, &backend, seed);
    }
}
