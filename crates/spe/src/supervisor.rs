//! Supervised execution: restart-on-failure with checkpoint recovery.
//!
//! The paper's fault-tolerance model (§8) pairs aligned checkpoints with
//! a rewindable source: on failure, the engine restores every operator
//! from the last completed checkpoint and replays the source from the
//! checkpointed offset. [`run_supervised`] implements the supervisor
//! half of that contract over single attempts of the one runner:
//!
//! 1. Run the job. On success, return its outputs (prefixed by any
//!    outputs already committed by a crashed attempt's checkpoint).
//! 2. On failure, tear the attempt's state directory down, wait out an
//!    exponential backoff, and re-run — restored from the checkpoint
//!    (with the source rewound to the offset recorded beside it) when
//!    one completed, from scratch otherwise.
//! 3. Give up after [`RunOptions::max_restarts`] restarts, surfacing the
//!    final attempt's error.
//!
//! Exactly-once accounting: when an attempt crashes *after* its aligned
//! checkpoint completed, the outputs the sink observed ahead of every
//! barrier are treated as committed (a transactional sink would have
//! published them when the checkpoint closed). The recovery attempt
//! restores state as of the barrier and replays only post-checkpoint
//! input, so `committed ++ recovered outputs` equals the output of an
//! undisturbed run. The queryable-state registry is deliberately *not*
//! torn down between attempts: the serving layer keeps answering from
//! the last published epoch-pinned snapshot while the job recovers.
//!
//! With a telemetry hub attached, the supervisor records
//! `recovery_restarts_total` (restarts performed),
//! `recovery_replayed_tuples_total` (source tuples consumed by recovery
//! attempts), and `recovery_restore_nanos` (teardown-plus-rewind time
//! per restart, excluding backoff sleep).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use flowkv_common::backend::StateBackendFactory;
use flowkv_common::error::StoreError;
use flowkv_common::types::Tuple;

use crate::executor::{
    run_job_inner, JobError, JobResult, RunCtx, RunOptions, Schedule, SOURCE_OFFSET_FILE,
};
use crate::job::Job;
use crate::source::LogSource;

/// The outcome of a supervised run.
#[derive(Debug)]
pub struct SupervisedResult {
    /// The final successful attempt's result. Its `outputs` cover only
    /// what that attempt produced; prepend [`SupervisedResult::committed`]
    /// for the full exactly-once output set.
    pub result: JobResult,
    /// Outputs committed by a crashed attempt's completed checkpoint
    /// (empty when no attempt crashed after checkpointing).
    pub committed: Vec<Tuple>,
    /// Restarts performed before the run succeeded.
    pub restarts: u32,
    /// Source tuples consumed by recovery attempts (replayed input).
    pub replayed_tuples: u64,
}

impl SupervisedResult {
    /// The committed prefix plus the final attempt's outputs — the
    /// exactly-once output of the whole supervised run.
    pub fn all_outputs(&self) -> Vec<Tuple> {
        let mut all = self.committed.clone();
        all.extend(self.result.outputs.iter().cloned());
        all
    }
}

/// Reads the source offset recorded beside a completed checkpoint. It is
/// part of the checkpoint: without it, replaying from any offset would
/// double or drop input on top of the restored state.
fn read_source_offset(dir: &Path) -> Result<u64, StoreError> {
    let path = dir.join(SOURCE_OFFSET_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| StoreError::io_at("checkpoint source offset", &path, e))?;
    text.trim()
        .parse()
        .map_err(|_| StoreError::corruption(&path, 0, "unparsable source offset"))
}

/// Runs `job` over the tuple log at `source_path` under supervision:
/// failed attempts are retried up to [`RunOptions::max_restarts`] times,
/// restoring from the last completed checkpoint and rewinding the source
/// to its recorded offset.
///
/// Requires a replayable [`crate::source::TupleLog`] file rather than a
/// plain iterator because recovery must re-read input from an earlier
/// offset — the rewindable-source contract of the paper's §8.
pub fn run_supervised(
    job: &Job,
    source_path: &Path,
    factory: Arc<dyn StateBackendFactory>,
    options: &RunOptions,
) -> Result<SupervisedResult, JobError> {
    // One context for the whole supervised run: every attempt records
    // into the same hub and tracer.
    let ctx = RunCtx::resolve(options);
    let recovery = ctx.telemetry.as_ref().map(|t| {
        (
            t.registry().counter("recovery_restarts_total"),
            t.registry().counter("recovery_replayed_tuples_total"),
            t.registry().histogram("recovery_restore_nanos"),
        )
    });
    // Recovery lifecycle spans land on a dedicated supervisor lane.
    let sup_rec = ctx.recorder("supervisor");

    let backoff_seed = crate::backoff::fault_seed();
    let mut committed: Vec<Tuple> = Vec::new();
    let mut committed_count = 0u64;
    let mut checkpoint_committed = false;
    let mut restarts = 0u32;
    let mut replayed_tuples = 0u64;

    loop {
        // Decide where this attempt starts: after the checkpointed
        // offset with a state restore when a checkpoint completed, from
        // the beginning otherwise.
        let restore_dir = if checkpoint_committed {
            options.checkpoint_dir.clone()
        } else {
            None
        };
        let resume_offset = match restore_dir.as_deref() {
            Some(dir) => read_source_offset(dir).map_err(JobError::Store)?,
            None => 0,
        };

        let mut attempt_opts = options.clone();
        if let Some(dir) = restore_dir {
            attempt_opts.restore_from = Some(dir);
            // The barrier already ran and its outputs are committed;
            // re-injecting it mid-replay would split outputs twice.
            attempt_opts.checkpoint_after_tuples = None;
        }

        if restarts > 0 {
            if let Some(rec) = &sup_rec {
                rec.instant(
                    "recovery_replay",
                    "recovery",
                    None,
                    vec![
                        ("restart", restarts as i64),
                        ("resume_offset", resume_offset as i64),
                    ],
                );
            }
        }
        let source = LogSource::open_at(source_path, resume_offset).map_err(JobError::Store)?;
        let items = Schedule::for_run(source, &attempt_opts);
        match run_job_inner(job, items, Arc::clone(&factory), &attempt_opts, &ctx) {
            Ok(mut result) => {
                if restarts > 0 {
                    replayed_tuples += result.input_count;
                    if let Some((_, replayed, _)) = &recovery {
                        replayed.add(result.input_count);
                    }
                }
                result.output_count += committed_count;
                return Ok(SupervisedResult {
                    result,
                    committed,
                    restarts,
                    replayed_tuples,
                });
            }
            Err((err, salvage)) => {
                // Post-mortem before anything is torn down: the flight
                // recorder's last events and every span still open at
                // the moment of death go to stderr as JSONL.
                if matches!(err, JobError::Panic(_)) {
                    if let Some(t) = &ctx.telemetry {
                        flowkv_common::trace::dump_crash_context(t);
                    }
                }
                if restarts >= options.max_restarts {
                    return Err(err);
                }
                // A completed checkpoint commits the outputs the sink
                // saw ahead of every barrier; later attempts replay only
                // post-checkpoint input, so commit exactly once.
                if salvage.checkpoint_complete && !checkpoint_committed {
                    committed = salvage.outputs_pre;
                    committed_count = salvage.pre_count;
                    checkpoint_committed = true;
                }
                restarts += 1;
                let restore_started = Instant::now();
                let restore_span = sup_rec.as_ref().map(|rec| {
                    rec.begin_with(
                        "recovery_restore",
                        "recovery",
                        None,
                        vec![
                            ("restart", restarts as i64),
                            ("rewind_offset", resume_offset as i64),
                            ("from_checkpoint", checkpoint_committed as i64),
                        ],
                    )
                });
                // Tear the failed attempt's stores down completely; the
                // recovery attempt re-creates them from the checkpoint
                // (or from scratch). Registry snapshots are left alone.
                let _ = std::fs::remove_dir_all(options.data_dir.join(&job.name));
                if let Some((restarted, _, restore_nanos)) = &recovery {
                    restarted.inc();
                    restore_nanos.record(restore_started.elapsed().as_nanos() as u64);
                }
                if let (Some(rec), Some(span)) = (&sup_rec, restore_span) {
                    rec.end(span, "recovery_restore", "recovery");
                }
                // Deterministic jitter: the schedule replays exactly
                // under the same FLOWKV_FAULT_SEED (see crate::backoff).
                std::thread::sleep(crate::backoff::jittered_backoff(
                    options.restart_backoff,
                    restarts,
                    backoff_seed,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{BackendChoice, FactoryOptions};
    use crate::functions::CountAggregate;
    use crate::job::{AggregateSpec, JobBuilder};
    use crate::source::TupleLog;
    use crate::window::WindowAssigner;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::telemetry::Telemetry;
    use flowkv_common::types::Tuple;
    use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs, StdVfs};

    fn tuples(n: u64, keys: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    format!("key-{}", i % keys).into_bytes(),
                    1u64.to_le_bytes().to_vec(),
                    i as i64,
                )
            })
            .collect()
    }

    fn count_job() -> crate::job::Job {
        JobBuilder::new("sup-count")
            .parallelism(2)
            .window(
                "counts",
                WindowAssigner::Fixed { size: 1000 },
                AggregateSpec::Incremental(std::sync::Arc::new(CountAggregate)),
            )
            .build()
    }

    fn sorted_pairs(tuples: &[Tuple]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut v: Vec<(Vec<u8>, Vec<u8>)> = tuples
            .iter()
            .map(|t| (t.key.clone(), t.value.clone()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn healthy_run_passes_through_unchanged() {
        let dir = ScratchDir::new("sup-healthy").unwrap();
        let log = dir.path().join("stream.log");
        TupleLog::record(&log, tuples(3000, 10).into_iter()).unwrap();
        let mut opts = RunOptions::new(dir.path().join("data"));
        opts.collect_outputs = true;
        opts.watermark_interval = 50;
        opts.max_restarts = 2;
        let sup = run_supervised(
            &count_job(),
            &log,
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        assert_eq!(sup.restarts, 0);
        assert_eq!(sup.replayed_tuples, 0);
        assert!(sup.committed.is_empty());
        assert_eq!(sup.result.output_count, 30);
    }

    /// Once as it runs, and once with the checkpoint's source offset
    /// unable to land (its temporary file's name taken by a directory):
    /// that checkpoint never completed, so recovery replays from scratch
    /// rather than from offset 0 on top of the restored state.
    #[test]
    fn crash_after_checkpoint_recovers_exactly_once() {
        for offset_blocked in [false, true] {
            recovers_exactly_once(offset_blocked);
        }
    }

    fn recovers_exactly_once(offset_blocked: bool) {
        let dir = ScratchDir::new("sup-crash").unwrap();
        let log = dir.path().join("stream.log");
        TupleLog::record(&log, tuples(3000, 10).into_iter()).unwrap();

        // Reference: the same job, no faults.
        let mut ref_opts = RunOptions::new(dir.path().join("ref"));
        ref_opts.collect_outputs = true;
        ref_opts.watermark_interval = 50;
        let reference = crate::executor::run_job(
            &count_job(),
            LogSource::open(&log).unwrap(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &ref_opts,
        )
        .unwrap();

        // Count the store's file operations so the crash can be planted
        // well past the checkpoint.
        let counter = FaultVfs::counting(StdVfs::shared());
        let ckpt = dir.path().join("ckpt");
        let mut counted_opts = RunOptions::new(dir.path().join("count"));
        counted_opts.watermark_interval = 50;
        counted_opts.checkpoint_after_tuples = Some(1500);
        counted_opts.checkpoint_dir = Some(ckpt.clone());
        run_supervised(
            &count_job(),
            &log,
            BackendChoice::all_small_for_tests()[1]
                .build(FactoryOptions::new().vfs(counter.clone())),
            &counted_opts,
        )
        .unwrap();
        let total_ops = counter.ops();
        assert!(total_ops > 0, "store never touched the vfs");

        // Crash in the back half of the run, after the checkpoint.
        let telemetry = Telemetry::new_shared();
        let faulty = FaultVfs::new(StdVfs::shared(), FaultPlan::crash_at(total_ops * 9 / 10));
        let ckpt2 = dir.path().join("ckpt2");
        if offset_blocked {
            std::fs::create_dir_all(ckpt2.join("SOURCE_OFFSET.tmp")).unwrap();
        }
        let mut opts = RunOptions::new(dir.path().join("data"));
        opts.collect_outputs = true;
        opts.watermark_interval = 50;
        opts.checkpoint_after_tuples = Some(1500);
        opts.checkpoint_dir = Some(ckpt2.clone());
        opts.max_restarts = 2;
        opts.restart_backoff = std::time::Duration::from_millis(1);
        opts.telemetry = Some(std::sync::Arc::clone(&telemetry));
        let sup = run_supervised(
            &count_job(),
            &log,
            BackendChoice::all_small_for_tests()[1]
                .build(FactoryOptions::new().vfs(faulty.clone())),
            &opts,
        )
        .unwrap();
        assert!(!faulty.fired().is_empty(), "crash fault never fired");
        assert!(sup.restarts >= 1);
        assert_eq!(
            sorted_pairs(&sup.all_outputs()),
            sorted_pairs(&reference.outputs),
            "recovered output diverged from the undisturbed run (offset blocked: {offset_blocked})"
        );
        // A blocked offset leaves no checkpoint: nothing was committed.
        assert_eq!(sup.committed.is_empty(), offset_blocked);
        let samples = telemetry.registry().snapshot();
        let restarts_metric = samples
            .iter()
            .find(|s| s.name == "recovery_restarts_total")
            .expect("recovery_restarts_total missing");
        match restarts_metric.value {
            flowkv_common::telemetry::SampleValue::Counter(v) => {
                assert_eq!(v, u64::from(sup.restarts))
            }
            _ => panic!("recovery_restarts_total is not a counter"),
        }
    }

    #[test]
    fn a_missing_or_unparsable_source_offset_is_an_error_not_offset_zero() {
        let dir = ScratchDir::new("sup-offset").unwrap();
        assert!(read_source_offset(dir.path()).is_err());
        let file = dir.path().join(SOURCE_OFFSET_FILE);
        std::fs::write(&file, "15x0").unwrap();
        assert!(read_source_offset(dir.path()).unwrap_err().is_corruption());
        std::fs::write(&file, "1500\n").unwrap();
        assert_eq!(read_source_offset(dir.path()).unwrap(), 1500);
    }

    #[test]
    fn restarts_are_bounded() {
        let dir = ScratchDir::new("sup-bounded").unwrap();
        let log = dir.path().join("stream.log");
        TupleLog::record(&log, tuples(2000, 10).into_iter()).unwrap();
        // Every attempt crashes almost immediately: the op counter is
        // global across attempts, so a dense crash plan guarantees the
        // initial attempt and both allowed restarts all hit one.
        let plan = (1..=500).fold(FaultPlan::new(), |p, op| p.with_fault(op, FaultKind::Crash));
        let faulty = FaultVfs::new(StdVfs::shared(), plan);
        let mut opts = RunOptions::new(dir.path().join("data"));
        opts.watermark_interval = 50;
        opts.max_restarts = 2;
        opts.restart_backoff = std::time::Duration::from_millis(1);
        let err = run_supervised(
            &count_job(),
            &log,
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new().vfs(faulty)),
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, JobError::Panic(_)), "{err}");
    }
}
