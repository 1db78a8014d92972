//! Recovery rows of the query matrix (`common/matrix.rs`), every cell
//! against the executable specification: a run resumed from its
//! barrier's checkpoint emits the spec's outputs less the
//! pre-checkpoint ones, and a run crashed at a random store op and
//! recovered under supervision emits the spec's outputs exactly once.
//!
//! - `crash_matrix_*`: every backend × FlowKV access pattern, crashed
//!   anywhere in nine tenths of the counted op range.
//! - `tiered_crash_*`: FlowKV under forced demotion (`hot_bytes = 0`),
//!   crashed under an early cap (most likely mid-demotion, while cold
//!   blocks are sealed) and under a late one (most likely
//!   mid-promotion, while cold blocks are read back).
//! - `*_resumes_exactly`: the three patterns on every backend, and the
//!   global window (Q12), chained window stages (Q5) and the windowed
//!   join (Q8) on FlowKV; count windows over bids on every backend (a
//!   key's partly filled window crosses the barrier).
//!
//! Crash ops are drawn from the SplitMix64 stream seeded by
//! `FLOWKV_FAULT_SEED` (each row prints it), so any CI failure
//! reproduces with `FLOWKV_FAULT_SEED=<seed> cargo test`. Two probed
//! cells close the file: a fault planted at the op found to be an
//! extent read, and at the op found to write the tier's checkpoint cold
//! log.

mod common;

use std::sync::Arc;

use common::matrix::{every_backend, flowkv, short, CountBids, Crash, Tweak, N, PLAIN};
use common::{fault_seed, nexmark_shape, sorted_triples, spec_outputs};
use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs, StdVfs};
use flowkv_nexmark::QueryId::*;
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryParams};
use flowkv_spe::source::{LogSource, TupleLog};
use flowkv_spe::{run_job, run_supervised, BackendChoice, FactoryOptions, JobError, RunOptions};

const DEFAULT_SEED: u64 = 0xF10C;

/// Crashed anywhere in nine tenths of the run's ops.
const CRASH: Tweak = Tweak {
    barrier: Some(2_500),
    crash: Some(Crash {
        caps: &[(9, 10)],
        round: 0,
    }),
    ..PLAIN
};
/// Forced demotion, crashed in the first third and in nine tenths.
const TIERED_CRASH: Tweak = Tweak {
    hot_bytes: Some(0),
    crash: Some(Crash {
        caps: &[(1, 3), (9, 10)],
        round: 13,
    }),
    ..CRASH
};
/// Resumed from a barrier three quarters through [`resumed`], with
/// sessions short enough to close before it.
const RESUME: Tweak = Tweak {
    barrier: Some(6_000),
    resume: true,
    session_gap: Some(50),
    ..PLAIN
};

/// 8 000 events, 1.6 s of event time, over 40 bidders and 60 auctions:
/// past 1.2 s, the barrier follows the close of a window of every
/// function but the global one.
fn resumed() -> GeneratorConfig {
    GeneratorConfig {
        active_people: 40,
        active_auctions: 60,
        ..nexmark_shape(8_000, 21)
    }
}

matrix! {
    // row:                                  queries,         backends,      shape,   tweak;
    crash_matrix_q7:                         &[N(Q7)],        every_backend, short,   CRASH;
    crash_matrix_q11_median:                 &[N(Q11Median)], every_backend, short,   CRASH;
    crash_matrix_q11:                        &[N(Q11)],       every_backend, short,   CRASH;
    tiered_crash_q7:                         &[N(Q7)],        flowkv,        short,   TIERED_CRASH;
    tiered_crash_q11_median:                 &[N(Q11Median)], flowkv,        short,   TIERED_CRASH;
    tiered_crash_q11:                        &[N(Q11)],       flowkv,        short,   TIERED_CRASH;
    aar_fixed_window_query_resumes_exactly:  &[N(Q7)],        every_backend, resumed, RESUME;
    aur_median_query_resumes_exactly:        &[N(Q11Median)], every_backend, resumed, RESUME;
    rmw_session_query_resumes_exactly:       &[N(Q11)],       every_backend, resumed, RESUME;
    global_window_query_resumes_exactly:     &[N(Q12)],       flowkv,        resumed, RESUME;
    consecutive_window_query_resumes_exactly: &[N(Q5)],       flowkv,        resumed, RESUME;
    windowed_join_resumes_exactly:           &[N(Q8)],        flowkv,        resumed, RESUME;
    count_window_query_resumes_exactly:      &[CountBids],    every_backend, resumed, RESUME;
}

/// A short read landing inside a batched extent read of the AUR data log
/// (`RandomAccessLog::read_records`): the attempt fails with a structured
/// I/O error, supervision restores and replays, and the output is the
/// specification's.
///
/// One operator worker keeps the store-op sequence a function of the
/// input, so the op that is an extent read can be found by probing: plant
/// the fault at successive ops of plain runs — backwards from the end,
/// where the closing watermark fires every remaining session — until one
/// dies inside `log read extent`, then plant it there under supervision.
#[test]
fn short_read_inside_an_extent_recovers() {
    const EVENTS: u64 = 8_000;
    let shape = || nexmark_shape(EVENTS, 7);
    let backend = &BackendChoice::FlowKv(FlowKvConfig::small_for_tests());
    let dir = ScratchDir::new("crash-matrix-short-read").unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, EventGenerator::new(shape()).tuples()).unwrap();
    let job = Q11Median.build(QueryParams::new(1_000).with_parallelism(1));
    let options = |name: &str| {
        let mut opts = RunOptions::new(dir.path().join(name));
        opts.collect_outputs = true;
        opts.watermark_interval = 100;
        opts.checkpoint_after_tuples = Some(EVENTS / 2);
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
    run("count", counter.clone()).expect("undisturbed run");
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
        spec_outputs(Q11Median, shape()),
        "recovered output diverged (short read at op {extent_op})"
    );
}

/// A torn write of the tier's checkpoint cold log: the attempt fails
/// with a structured I/O error and leaves a torn copy behind,
/// supervision restarts once and the output is the specification's; restoring from the torn checkpoint directly is a
/// structural error, never a panic or a silently shorter cold tier.
///
/// The op is found as in [`short_read_inside_an_extent_recovers`]: one
/// worker, the fault planted at successive ops of plain runs until one
/// dies writing the copy. The stream is short because the copy is
/// written mid-run, so the probe walks half the run's ops.
#[test]
fn torn_tier_checkpoint_log_recovers() {
    const EVENTS: u64 = 1_000;
    let shape = || nexmark_shape(EVENTS, 7);
    let seed = fault_seed(DEFAULT_SEED);
    let backend = &BackendChoice::FlowKv(FlowKvConfig::small_for_tests());
    let dir = ScratchDir::new("crash-matrix-torn-coldlog").unwrap();
    let log = dir.path().join("events.log");
    TupleLog::record(&log, EventGenerator::new(shape()).tuples()).unwrap();
    let job = Q11Median.build(QueryParams::new(1_000).with_parallelism(1));
    let options = |name: &str| {
        let mut opts = RunOptions::new(dir.path().join(name));
        opts.collect_outputs = true;
        opts.watermark_interval = 100;
        opts.checkpoint_after_tuples = Some(EVENTS / 2);
        opts.checkpoint_dir = Some(dir.path().join(format!("{name}-ckpt")));
        opts
    };
    // Forced demotion: every checkpoint has cold blocks to copy.
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
    run("count", counter.clone()).expect("undisturbed run");
    let total_ops = counter.ops();

    // The tear keeps a whole record header, so a restore has to catch
    // the record it frames. The probe wants a write into the copy, not
    // the create before it.
    let torn_at = |op| FaultPlan::new().with_fault(op, FaultKind::TornWrite { keep: 16 });
    let copy_op = (1..=total_ops)
        .find(|&op| {
            let vfs = FaultVfs::new(StdVfs::shared(), torn_at(op));
            run(&format!("probe-{op}"), vfs).is_err_and(|e| {
                let e = e.to_string();
                e.contains("COLDLOG") && !e.contains("log create")
            })
        })
        .unwrap_or_else(|| panic!("no op writes the checkpoint cold log (seed {seed})"));

    let mut resume = options("resume");
    resume.restore_from = Some(dir.path().join(format!("probe-{copy_op}-ckpt")));
    resume.checkpoint_after_tuples = None;
    let err = run_job(
        &job,
        LogSource::open_at(&log, EVENTS / 2).unwrap(),
        factory(FaultVfs::counting(StdVfs::shared())),
        &resume,
    )
    .expect_err("restored from a torn cold log");
    assert!(
        matches!(&err, JobError::Store(e) if e.is_corruption()),
        "torn cold log at op {copy_op} (seed {seed}): {err}"
    );

    let faulty = FaultVfs::new(StdVfs::shared(), torn_at(copy_op));
    let mut opts = options("data");
    opts.max_restarts = 2;
    opts.restart_backoff = std::time::Duration::from_millis(1);
    let sup = run_supervised(&job, &log, factory(faulty.clone()), &opts)
        .unwrap_or_else(|e| panic!("supervised run failed (seed {seed}, op {copy_op}): {e}"));
    assert_eq!(
        faulty.fired(),
        vec![(copy_op, FaultKind::TornWrite { keep: 16 })]
    );
    assert_eq!(
        sup.restarts, 1,
        "one torn cold log must cost one restart (seed {seed}, op {copy_op})"
    );
    assert_eq!(
        sorted_triples(&sup.all_outputs()),
        spec_outputs(Q11Median, shape()),
        "recovered output diverged (seed {seed}, torn cold log at op {copy_op})"
    );
}
