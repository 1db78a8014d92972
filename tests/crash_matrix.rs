//! Randomized crash-point matrix: for every backend × query pair, crash
//! the job at a random store operation, recover under supervision, and
//! require byte-identical output versus an undisturbed run.
//!
//! The crash point is drawn from the SplitMix64 stream seeded by
//! `FLOWKV_FAULT_SEED` (default below); the seed appears in every
//! failure message (not just the success-path banner), so any CI
//! failure reproduces with `FLOWKV_FAULT_SEED=<seed> cargo test`.
//!
//! The tiered cells re-run the matrix with the two-tier hot/cold layout
//! forced into pathological demotion (`TierConfig::hot_bytes = 0`), once with
//! an early crash cap (most likely to land mid-demotion, while cold
//! blocks are being sealed) and once with a late cap (most likely to
//! land mid-promotion, while cold blocks are being read back).

mod common;

use std::sync::Arc;

use common::{cell_seed, fault_seed, nexmark_generator, sorted_triples};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs, StdVfs};
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::source::{LogSource, TupleLog};
use flowkv_spe::{run_job, run_supervised, BackendChoice, FactoryOptions, JobError, RunOptions};

const NUM_EVENTS: u64 = 8_000;
const DEFAULT_SEED: u64 = 0xF10C;

/// One matrix cell: crash at a random store op under the given cap
/// fraction (numerator/denominator of the counted op range), recover,
/// compare. `tiered` additionally wraps the backend in the forced-
/// demotion two-tier layout on both sides of the comparison's fault
/// path (the reference stays hot-only — that asymmetry *is* the test).
fn crash_matrix_cell(
    query: QueryId,
    backend: &BackendChoice,
    seed: u64,
    tiered: bool,
    cap_num: u64,
    cap_den: u64,
) {
    let label = if tiered { "tiered" } else { "hot-only" };
    let dir = ScratchDir::new(&format!(
        "crash-matrix-{label}-{}-{}",
        query.name(),
        backend.name()
    ))
    .unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, nexmark_generator(NUM_EVENTS, 7).tuples()).unwrap();
    let params = QueryParams::new(1_000).with_parallelism(2);
    let job = query.build(params);

    let tier_cfg = flowkv::tier::TierConfig::new(0);

    // Undisturbed hot-only reference run.
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
            "{} on {} [{label}]: reference run failed (seed {seed}): {e}",
            query.name(),
            backend.name()
        )
    });
    assert!(
        !reference.outputs.is_empty(),
        "{} on {} [{label}]: reference run produced no output (seed {seed})",
        query.name(),
        backend.name()
    );

    // Measure the run's store-op footprint so the crash point can be
    // drawn from the range the run actually exercises.
    let counter = FaultVfs::counting(StdVfs::shared());
    let mut counted_opts = RunOptions::new(dir.path().join("count"));
    counted_opts.watermark_interval = 100;
    counted_opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    counted_opts.checkpoint_dir = Some(dir.path().join("count-ckpt"));
    let counted_factory = if tiered {
        backend.build(
            FactoryOptions::new()
                .tiered(tier_cfg.clone())
                .vfs(counter.clone()),
        )
    } else {
        backend.build(FactoryOptions::new().vfs(counter.clone()))
    };
    run_job(
        &job,
        LogSource::open(&log).unwrap(),
        counted_factory,
        &counted_opts,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{} on {} [{label}]: counting run failed (seed {seed}): {e}",
            query.name(),
            backend.name()
        )
    });
    let total_ops = counter.ops();
    assert!(
        total_ops > 0,
        "{} on {} [{label}]: store never touched the vfs (seed {seed})",
        query.name(),
        backend.name()
    );

    // Crash somewhere inside the capped slice of the op range (the cap
    // absorbs run-to-run scheduling variance in the op count), then
    // recover under supervision and compare byte-for-byte.
    let combo_seed = cell_seed(seed, query, backend, if tiered { 13 } else { 0 });
    let plan = FaultPlan::random_crash(combo_seed, total_ops * cap_num / cap_den);
    let faulty = FaultVfs::new(StdVfs::shared(), plan);
    let telemetry = Telemetry::new_shared();
    let mut opts = RunOptions::new(dir.path().join("data"));
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    opts.checkpoint_dir = Some(dir.path().join("ckpt"));
    opts.max_restarts = 2;
    opts.restart_backoff = std::time::Duration::from_millis(1);
    opts.telemetry = Some(Arc::clone(&telemetry));
    let faulty_factory = if tiered {
        backend.build(FactoryOptions::new().tiered(tier_cfg).vfs(faulty.clone()))
    } else {
        backend.build(FactoryOptions::new().vfs(faulty.clone()))
    };
    let sup = run_supervised(&job, &log, faulty_factory, &opts).unwrap_or_else(|e| {
        panic!(
            "{} on {} [{label}]: supervised run failed (seed {seed}): {e}",
            query.name(),
            backend.name()
        )
    });

    let fired = faulty.fired();
    assert_eq!(
        fired.len(),
        1,
        "{} on {} [{label}]: expected exactly one injected crash (seed {seed}), fired {fired:?}",
        query.name(),
        backend.name()
    );
    assert_eq!(
        sup.restarts,
        1,
        "{} on {} [{label}]: one crash must cost exactly one restart (seed {seed})",
        query.name(),
        backend.name()
    );
    assert_eq!(
        sorted_triples(&sup.all_outputs()),
        sorted_triples(&reference.outputs),
        "{} on {} [{label}]: recovered output diverged (seed {seed}, crash at op {})",
        query.name(),
        backend.name(),
        fired[0].0
    );

    let samples = telemetry.registry().snapshot();
    let restarts_total = samples
        .iter()
        .find(|s| s.name == "recovery_restarts_total")
        .expect("recovery_restarts_total missing");
    match restarts_total.value {
        SampleValue::Counter(v) => assert_eq!(
            v,
            1,
            "{} on {} [{label}]: recovery_restarts_total must equal the injected crash count \
             (seed {seed})",
            query.name(),
            backend.name()
        ),
        _ => panic!("recovery_restarts_total is not a counter (seed {seed})"),
    }
}

fn crash_matrix_row(query: QueryId) {
    let seed = fault_seed(DEFAULT_SEED);
    println!(
        "crash matrix {}: FLOWKV_FAULT_SEED={seed} (set the env var to replay)",
        query.name()
    );
    for backend in &BackendChoice::all_small_for_tests() {
        crash_matrix_cell(query, backend, seed, false, 9, 10);
    }
}

/// Tiered crash cells: FlowKV under forced demotion, crashed early
/// (mid-demotion: the run front-loads cold-block writes) and late
/// (mid-promotion: the tail of the op range is dominated by cold-block
/// reads as windows fire). Recovery restores both tiers from the last
/// checkpoint; output must stay byte-identical to the hot-only
/// reference either way.
fn tiered_crash_row(query: QueryId) {
    let seed = fault_seed(DEFAULT_SEED);
    println!(
        "tiered crash matrix {}: FLOWKV_FAULT_SEED={seed} (set the env var to replay)",
        query.name()
    );
    let backend = &BackendChoice::all_small_for_tests()[1];
    crash_matrix_cell(query, backend, seed, true, 1, 3); // mid-demotion
    crash_matrix_cell(query, backend, seed, true, 9, 10); // mid-promotion
}

#[test]
fn crash_matrix_q7() {
    crash_matrix_row(QueryId::Q7);
}

#[test]
fn crash_matrix_q11_median() {
    crash_matrix_row(QueryId::Q11Median);
}

#[test]
fn crash_matrix_q11() {
    crash_matrix_row(QueryId::Q11);
}

#[test]
fn tiered_crash_q7() {
    tiered_crash_row(QueryId::Q7);
}

#[test]
fn tiered_crash_q11_median() {
    tiered_crash_row(QueryId::Q11Median);
}

#[test]
fn tiered_crash_q11() {
    tiered_crash_row(QueryId::Q11);
}

/// A short read landing inside a batched extent read of the AUR data log
/// (`RandomAccessLog::read_records`): the attempt fails with a structured
/// I/O error, supervision restores and replays, and the output is
/// byte-identical to an undisturbed run.
///
/// One operator worker keeps the store-op sequence a function of the
/// input, so the op that is an extent read can be found by probing: plant
/// the fault at successive ops of plain runs — backwards from the end,
/// where the closing watermark fires every remaining session — until one
/// dies inside `log read extent`, then plant it there under supervision.
#[test]
fn short_read_inside_an_extent_recovers() {
    let backend = &BackendChoice::all_small_for_tests()[1];
    let dir = ScratchDir::new("crash-matrix-short-read").unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, nexmark_generator(NUM_EVENTS, 7).tuples()).unwrap();
    let job = QueryId::Q11Median.build(QueryParams::new(1_000).with_parallelism(1));
    let options = |name: &str| {
        let mut opts = RunOptions::new(dir.path().join(name));
        opts.collect_outputs = true;
        opts.watermark_interval = 100;
        opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
        opts.checkpoint_dir = Some(dir.path().join(format!("{name}-ckpt")));
        opts
    };
    let run = |name: &str, vfs: Arc<FaultVfs>| {
        run_job(
            &job,
            LogSource::open(&log).unwrap(),
            backend.build(FactoryOptions::new().vfs(vfs)),
            &options(name),
        )
    };

    let counter = FaultVfs::counting(StdVfs::shared());
    let reference = run("ref", counter.clone()).expect("undisturbed run");
    assert!(!reference.outputs.is_empty());
    let total_ops = counter.ops();

    let short_read_at = |op| FaultPlan::new().with_fault(op, FaultKind::ShortRead);
    let extent_op = (1..=total_ops)
        .rev()
        .find(|&op| {
            let vfs = FaultVfs::new(StdVfs::shared(), short_read_at(op));
            run(&format!("probe-{op}"), vfs)
                .is_err_and(|e| e.to_string().contains("log read extent"))
        })
        .expect("the run never reads an extent");

    let faulty = FaultVfs::new(StdVfs::shared(), short_read_at(extent_op));
    let mut opts = options("data");
    opts.max_restarts = 2;
    opts.restart_backoff = std::time::Duration::from_millis(1);
    let factory = backend.build(FactoryOptions::new().vfs(faulty.clone()));
    let sup = run_supervised(&job, &log, factory, &opts).expect("supervised run");
    assert_eq!(faulty.fired(), vec![(extent_op, FaultKind::ShortRead)]);
    assert_eq!(sup.restarts, 1, "one short read must cost one restart");
    assert_eq!(
        sorted_triples(&sup.all_outputs()),
        sorted_triples(&reference.outputs),
        "recovered output diverged (short read at op {extent_op})"
    );
}

/// A torn write of the tier's `TIERMETA` checkpoint sidecar: the attempt
/// fails with a structured I/O error and leaves a truncated sidecar
/// behind, supervision restarts once and the output is byte-identical
/// to an undisturbed run; restoring from the torn checkpoint directly is
/// a structural error, never a panic or a silently empty cold tier.
///
/// The op is found as in [`short_read_inside_an_extent_recovers`]: one
/// worker, the fault planted at successive ops of plain runs until one
/// dies writing the sidecar. The stream is short because the sidecar is
/// written mid-run, so the probe walks half the run's ops.
#[test]
fn torn_tier_meta_sidecar_recovers() {
    const EVENTS: u64 = 1_000;
    let seed = fault_seed(DEFAULT_SEED);
    let backend = &BackendChoice::all_small_for_tests()[1];
    let dir = ScratchDir::new("crash-matrix-torn-tiermeta").unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, nexmark_generator(EVENTS, 7).tuples()).unwrap();
    let job = QueryId::Q11Median.build(QueryParams::new(1_000).with_parallelism(1));
    let options = |name: &str| {
        let mut opts = RunOptions::new(dir.path().join(name));
        opts.collect_outputs = true;
        opts.watermark_interval = 100;
        opts.checkpoint_after_tuples = Some(EVENTS / 2);
        opts.checkpoint_dir = Some(dir.path().join(format!("{name}-ckpt")));
        opts
    };
    // Forced demotion: every checkpoint has cold blocks to index.
    let factory = |vfs: Arc<FaultVfs>| {
        let tier = flowkv::tier::TierConfig::new(0);
        backend.build(FactoryOptions::new().tiered(tier).vfs(vfs))
    };
    let run = |name: &str, vfs: Arc<FaultVfs>| {
        run_job(
            &job,
            LogSource::open(&log).unwrap(),
            factory(vfs),
            &options(name),
        )
    };

    let counter = FaultVfs::counting(StdVfs::shared());
    let reference = run("ref", counter.clone()).expect("undisturbed run");
    assert!(!reference.outputs.is_empty());
    let total_ops = counter.ops();

    // The tear keeps enough of the sidecar to pass its length check, so
    // a restore has to catch it by checksum.
    let torn_at = |op| FaultPlan::new().with_fault(op, FaultKind::TornWrite { keep: 16 });
    let meta_op = (1..=total_ops)
        .find(|&op| {
            let vfs = FaultVfs::new(StdVfs::shared(), torn_at(op));
            run(&format!("probe-{op}"), vfs)
                .is_err_and(|e| e.to_string().contains("tier checkpoint meta"))
        })
        .unwrap_or_else(|| panic!("no op writes the TIERMETA sidecar (seed {seed})"));

    let mut resume = options("resume");
    resume.restore_from = Some(dir.path().join(format!("probe-{meta_op}-ckpt")));
    resume.checkpoint_after_tuples = None;
    let err = run_job(
        &job,
        LogSource::open_at(&log, EVENTS / 2).unwrap(),
        factory(FaultVfs::counting(StdVfs::shared())),
        &resume,
    )
    .expect_err("restored from a torn TIERMETA");
    assert!(
        matches!(&err, JobError::Store(e) if e.is_corruption()),
        "torn sidecar at op {meta_op} (seed {seed}): {err}"
    );

    let faulty = FaultVfs::new(StdVfs::shared(), torn_at(meta_op));
    let mut opts = options("data");
    opts.max_restarts = 2;
    opts.restart_backoff = std::time::Duration::from_millis(1);
    let sup = run_supervised(&job, &log, factory(faulty.clone()), &opts)
        .unwrap_or_else(|e| panic!("supervised run failed (seed {seed}, op {meta_op}): {e}"));
    assert_eq!(
        faulty.fired(),
        vec![(meta_op, FaultKind::TornWrite { keep: 16 })]
    );
    assert_eq!(
        sup.restarts, 1,
        "one torn sidecar must cost one restart (seed {seed}, op {meta_op})"
    );
    assert_eq!(
        sorted_triples(&sup.all_outputs()),
        sorted_triples(&reference.outputs),
        "recovered output diverged (seed {seed}, torn TIERMETA at op {meta_op})"
    );
}
