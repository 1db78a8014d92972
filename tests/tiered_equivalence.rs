//! The two-tier layout is invisible to query results: for every backend
//! and each FlowKV access pattern, a run whose state goes through the
//! tier produces the specification's answer — the `tier_*` rows of the
//! query matrix: a moderate hot budget (16 KiB), forced demotion
//! (`hot_bytes = 0`, every write sealed to a compressed cold block,
//! which must demote), and forced demotion on the I/O ring (which must
//! also read ahead).
//!
//! It also keeps exactly-once: a forced-demotion run is crashed at a
//! random store operation drawn from the `FLOWKV_FAULT_SEED` stream
//! (printed in every failure message), and supervised recovery must
//! restore both tiers to the specification's outputs.

mod common;

use common::matrix::{check_row, every_backend, short, Tweak, N, PLAIN};
use common::{cell_seed, fault_seed, logged, nexmark_shape, sorted_triples, spec_outputs};
use flowkv::tier::TierConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::{FaultPlan, FaultVfs, StdVfs};
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::source::{LogSource, TupleLog};
use flowkv_spe::{run_job, run_supervised, BackendChoice, FactoryOptions, RunOptions};

const NUM_EVENTS: u64 = 5_000;
const DEFAULT_SEED: u64 = 0x71E2;

fn shape() -> GeneratorConfig {
    nexmark_shape(NUM_EVENTS, 23)
}

fn differential_row(query: QueryId) {
    let queries = &[N(query)];
    let moderate = Tweak {
        hot_bytes: Some(16 << 10),
        ..PLAIN
    };
    let cold = Tweak {
        hot_bytes: Some(0),
        ..PLAIN
    };
    let cold_ring = Tweak {
        ring: Some(0),
        ..cold
    };
    check_row("tier_hot_16k", queries, every_backend, short(), moderate);
    check_row("tier_hot_0", queries, every_backend, short(), cold);
    check_row(
        "tier_hot_0_ring",
        queries,
        every_backend,
        short(),
        cold_ring,
    );
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
/// and recovers under supervision to the specification's outputs.
fn tiered_crash_cell(query: QueryId, backend: &BackendChoice, seed: u64) {
    let dir = ScratchDir::new(&format!(
        "tiered-eq-crash-{}-{}",
        query.name(),
        backend.name()
    ))
    .unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, EventGenerator::new(shape()).tuples()).unwrap();
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));
    let tier_cfg = TierConfig::new(0);

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

    let combo_seed = cell_seed(seed, query.name(), backend, 29);
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
        spec_outputs(query, shape()),
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
        .iter()
        .filter(|b| logged(b))
    {
        tiered_crash_cell(QueryId::Q11Median, backend, seed);
    }
}
