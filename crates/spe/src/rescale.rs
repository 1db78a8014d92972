//! Live rescaling: recovery at another parallelism.
//!
//! A rescale is the one runner run twice over one source schedule, with
//! a checkpoint migration between the runs:
//!
//! 1. **Phase 1** runs the job at `job.parallelism` over the schedule up
//!    to and including its barrier, then [`SourceItem::Halt`]: the
//!    workers checkpoint at the barrier and stop without the closing
//!    `MAX_TIMESTAMP` watermark, so open windows stay in the checkpoint.
//! 2. **Migration** ([`repartition`]) rewrites that checkpoint from `p`
//!    workers to `p′`. It restores every old partition's operator,
//!    extracts all of its store's state, sends every entry and every
//!    engine-side structure to partition `partition_of(key, p′)` — the
//!    exchange's own hash — and checkpoints the new partitions.
//! 3. **Phase 2** runs the job at `p′`, restored from the new checkpoint,
//!    over the rest of the same schedule: first the watermark that shares
//!    the barrier's offset (the schedule puts the barrier ahead of it),
//!    then everything after.
//!
//! Both phases pull the caller's iterator on their own source thread, so
//! nothing buffers the stream, and the rescaled run's output is
//! byte-identical to a run that never rescaled. Migration needs no
//! coordination beyond the barrier because every store has one writer
//! per partition (paper §2.1): a checkpointed partition can be opened,
//! drained and discarded on its own.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use flowkv_common::backend::{OperatorContext, StateBackendFactory, StateEntry};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::hash::partition_of;
use flowkv_common::registry::StateKey;
use flowkv_common::trace::SpanRecorder;

use crate::executor::{
    run_job_inner, worker_ckpt_dir, JobError, JobResult, RunCtx, RunOptions, SourceItem,
};
use crate::job::{Job, Stage, WindowSpec};
use crate::operator::{KeyedOperator, WindowOperator};

fn invalid(msg: &str) -> JobError {
    JobError::Store(StoreError::invalid_state(msg.to_string()))
}

/// Runs `job` over `schedule`, rescaling to `to` workers at the
/// schedule's barrier (see the module docs), and writes the run's trace
/// once both phases are over — or one of them failed.
pub(crate) fn run_rescaled(
    job: &Job,
    schedule: impl Iterator<Item = SourceItem> + Send,
    factory: Arc<dyn StateBackendFactory>,
    options: &RunOptions,
    ctx: &RunCtx,
    to: usize,
) -> std::result::Result<JobResult, JobError> {
    let result = phases(job, schedule, factory, options, ctx, to);
    ctx.export_trace(options.trace_out.as_ref());
    result
}

fn phases(
    job: &Job,
    mut schedule: impl Iterator<Item = SourceItem> + Send,
    factory: Arc<dyn StateBackendFactory>,
    options: &RunOptions,
    ctx: &RunCtx,
    to: usize,
) -> std::result::Result<JobResult, JobError> {
    let started = Instant::now();
    let spec = window_stage(job)?;
    if to == 0 {
        return Err(invalid("cannot rescale to zero workers"));
    }
    let (Some(_), Some(root)) = (options.checkpoint_after_tuples, &options.checkpoint_dir) else {
        return Err(invalid(
            "a rescale needs a barrier offset and a checkpoint directory \
             (RunOptions::checkpoint_after_tuples, checkpoint_dir)",
        ));
    };
    let (old_ckpt, new_ckpt) = (root.join("old"), root.join("new"));

    // The trace is the rescale's to write, and so is the JSONL: phase 2's
    // writer drains what phase 1 recorded into the shared hub too.
    let mut phase = options.clone();
    phase.trace_out = None;
    phase.telemetry_out = None;
    phase.checkpoint_dir = Some(old_ckpt.clone());
    let mut result = run_job_inner(
        job,
        through_barrier(&mut schedule),
        Arc::clone(&factory),
        &phase,
        ctx,
    )
    .map_err(|(e, _)| e)?;
    if !result.checkpoint_taken {
        return Err(invalid(
            "the rescale barrier never completed: its offset lies beyond the stream end",
        ));
    }

    let paused = Instant::now();
    let rec = ctx.recorder("rescale");
    let args = vec![("from", job.parallelism as i64), ("to", to as i64)];
    let span = (rec.as_ref()).map(|r| r.begin_with("rescale_migrate", "migrate", None, args));
    repartition(
        spec,
        &*factory,
        &old_ckpt,
        job.parallelism,
        &new_ckpt,
        to,
        &options.data_dir.join("migrate"),
        rec.as_deref(),
    )
    .map_err(JobError::Store)?;
    if let (Some(r), Some(span)) = (&rec, span) {
        r.end(span, "rescale_migrate", "migrate");
    }
    let pause = paused.elapsed();
    // Partitions that no longer exist stop serving their last view.
    if let Some(registry) = &options.registry {
        for k in to..job.parallelism {
            registry.remove(&StateKey::new(job.name.clone(), spec.name.clone(), k));
        }
    }

    let rescaled = Job {
        parallelism: to,
        ..job.clone()
    };
    phase.data_dir = options.data_dir.join("rescaled");
    phase.telemetry_out = options.telemetry_out.clone();
    phase.checkpoint_after_tuples = None;
    phase.checkpoint_dir = None;
    phase.restore_from = Some(new_ckpt);
    phase.timeout = options.timeout.map(|t| t.saturating_sub(started.elapsed()));
    let phase2 = run_job_inner(&rescaled, schedule, factory, &phase, ctx).map_err(|(e, _)| e)?;

    // Phase 1's checkpoint split stands; everything counted adds up, and
    // phase 2's late-drop count already holds phase 1's, restored.
    result.outputs.extend(phase2.outputs);
    result.output_count += phase2.output_count;
    result.input_count += phase2.input_count;
    result.elapsed = started.elapsed();
    result.store_metrics = result.store_metrics.merged(&phase2.store_metrics);
    // With a hub, both sinks record into its one latency histogram, which
    // phase 2's snapshot holds whole.
    if ctx.telemetry.is_some() {
        result.latency_histogram = phase2.latency_histogram;
    } else {
        result.latency_histogram.merge(&phase2.latency_histogram);
    }
    result.dropped_late = phase2.dropped_late;
    result.late_tuples.extend(phase2.late_tuples);
    result.rescale_pause = Some(pause);
    Ok(result)
}

/// The job's one keyed stage, which must be a window: migration moves
/// window state.
fn window_stage(job: &Job) -> std::result::Result<&WindowSpec, JobError> {
    let mut keyed = job.stages.iter().filter(|s| s.semantics().is_some());
    match (keyed.next(), keyed.next()) {
        (Some(Stage::Window(spec)), None) => Ok(spec),
        (Some(Stage::IntervalJoin(_)), None) => Err(invalid("interval joins cannot be rescaled")),
        _ => Err(invalid("a rescale needs exactly one keyed stage")),
    }
}

/// Phase 1's share of `schedule`: its items up to and including the
/// barrier, then `Halt`. What follows the barrier stays in `schedule`.
fn through_barrier<'a>(
    schedule: &'a mut (impl Iterator<Item = SourceItem> + Send),
) -> impl Iterator<Item = SourceItem> + Send + 'a {
    let mut barrier = false;
    std::iter::from_fn(move || {
        if barrier {
            return None;
        }
        let item = schedule.next()?;
        barrier = matches!(item, SourceItem::Barrier);
        Some(item)
    })
    .chain([SourceItem::Halt])
}

/// Rewrites the checkpoint of `spec`'s operator under `old_root`, written
/// by `old_p` workers, into one for `new_p` workers under `new_root`.
/// `scratch` holds the stores of the operators in transit. When `rec` is
/// set, each old partition records a `migrate_extract` and a
/// `migrate_inject` span, and writing the new checkpoint one
/// `migrate_commit`.
#[allow(clippy::too_many_arguments)]
fn repartition(
    spec: &WindowSpec,
    factory: &dyn StateBackendFactory,
    old_root: &Path,
    old_p: usize,
    new_root: &Path,
    new_p: usize,
    scratch: &Path,
    rec: Option<&SpanRecorder>,
) -> Result<()> {
    let kind = spec.aggregate.kind();
    let route = |key: &[u8]| partition_of(key, new_p);
    let mut targets = (0..new_p)
        .map(|k| open_operator(spec, factory, k, &scratch.join(format!("new-p{k}"))))
        .collect::<Result<Vec<_>>>()?;

    for k in 0..old_p {
        let args = || vec![("partition", k as i64)];
        let extract = rec.map(|r| r.begin_with("migrate_extract", "migrate", None, args()));
        let mut op = open_operator(spec, factory, k, &scratch.join(format!("old-p{k}")))?;
        op.restore(&worker_ckpt_dir(old_root, &spec.name, k))?;
        let mut per_target: Vec<Vec<StateEntry>> = (0..new_p).map(|_| Vec::new()).collect();
        for entry in op.backend_mut().extract_range(&|_| true, kind)? {
            per_target[route(entry.key())].push(entry);
        }
        if let (Some(r), Some(span)) = (rec, extract) {
            let routed = per_target.iter().map(Vec::len).sum::<usize>() as i64;
            r.end_with(
                span,
                "migrate_extract",
                "migrate",
                vec![("entries", routed)],
            );
        }
        let inject = rec.map(|r| r.begin_with("migrate_inject", "migrate", None, args()));
        for (target, batch) in targets.iter_mut().zip(per_target) {
            if !batch.is_empty() {
                target.backend_mut().inject_entries(batch)?;
            }
        }
        for (target, shard) in targets
            .iter_mut()
            .zip(op.export_engine_shards(new_p, &route))
        {
            target.absorb_engine_shard(shard);
        }
        if let (Some(r), Some(span)) = (rec, inject) {
            r.end(span, "migrate_inject", "migrate");
        }
        op.backend_mut().close()?;
    }

    let commit = rec.map(|r| {
        let args = vec![("targets", new_p as i64)];
        r.begin_with("migrate_commit", "migrate", None, args)
    });
    for (k, mut target) in targets.into_iter().enumerate() {
        target.checkpoint(&worker_ckpt_dir(new_root, &spec.name, k))?;
        target.backend_mut().close()?;
    }
    if let (Some(r), Some(span)) = (rec, commit) {
        r.end(span, "migrate_commit", "migrate");
    }
    Ok(())
}

/// A window operator over a fresh store rooted at `data_dir`, hosting
/// one partition's state in transit.
fn open_operator(
    spec: &WindowSpec,
    factory: &dyn StateBackendFactory,
    partition: usize,
    data_dir: &Path,
) -> Result<WindowOperator> {
    let ctx = OperatorContext {
        operator: spec.name.clone(),
        partition,
        semantics: spec.semantics(),
        data_dir: data_dir.to_path_buf(),
        telemetry: None,
        io: None,
    };
    Ok(WindowOperator::new(spec.clone(), factory.create(&ctx)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{BackendChoice, FactoryOptions};
    use crate::executor::{run_job, Schedule};
    use crate::functions::{CountAggregate, MedianProcess};
    use crate::job::{AggregateSpec, JobBuilder};
    use crate::window::WindowAssigner;
    use flowkv_common::registry::StateRegistry;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::types::Tuple;

    fn t(key: &str, ts: i64) -> Tuple {
        Tuple::new(key.into(), vec![1], ts)
    }

    /// A hundred tuples, one per millisecond, each on its own key.
    fn hundred() -> impl Iterator<Item = Tuple> {
        (0..100i64).map(|i| t(&format!("k{i}"), i))
    }

    /// The control items of `items` with their positions in tuples:
    /// `(tuples seen so far, item)`.
    fn controls(items: impl Iterator<Item = SourceItem>) -> Vec<(u64, SourceItem)> {
        let mut seen = 0;
        let mut out = Vec::new();
        for item in items {
            match item {
                SourceItem::Tuple(_) => seen += 1,
                control => out.push((seen, control)),
            }
        }
        out
    }

    #[test]
    fn schedule_puts_the_barrier_before_the_watermark_of_the_same_count() {
        let got = controls(Schedule::new(hundred(), 10, 0, Some(50)));
        let at_50: Vec<&SourceItem> = got
            .iter()
            .filter(|(seen, _)| *seen == 50)
            .map(|(_, item)| item)
            .collect();
        assert!(
            matches!(at_50[..], [SourceItem::Barrier, SourceItem::Watermark(49)]),
            "{at_50:?}"
        );
        // One barrier in the whole stream, and the cadence is untouched
        // around it.
        assert_eq!(got.len(), 11, "{got:?}");
    }

    #[test]
    fn schedule_applies_the_slack_to_every_watermark() {
        let got = controls(Schedule::new(hundred(), 10, 2, None));
        let want: Vec<(u64, i64)> = (1..=10).map(|i| (i * 10, i as i64 * 10 - 1 - 2)).collect();
        let wms: Vec<(u64, i64)> = got
            .iter()
            .map(|(seen, item)| match item {
                SourceItem::Watermark(ts) => (*seen, *ts),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(wms, want);
    }

    #[test]
    fn phase_one_ends_at_the_barrier_and_phase_two_opens_with_its_watermark() {
        let mut schedule = Schedule::new(hundred(), 10, 0, Some(50));
        let phase1 = controls(through_barrier(&mut schedule));
        // Barrier then Halt close phase 1, with no watermark between: the
        // one due at offset 50 is phase 2's.
        assert!(
            matches!(
                phase1[..],
                [
                    ..,
                    (40, SourceItem::Watermark(39)),
                    (50, SourceItem::Barrier),
                    (50, SourceItem::Halt)
                ]
            ),
            "{phase1:?}"
        );
        // Phase 2 carries on with the cadence over the other 50 tuples.
        let phase2 = controls(schedule);
        assert!(
            matches!(phase2[0], (0, SourceItem::Watermark(49))),
            "{phase2:?}"
        );
        assert!(
            matches!(phase2[..], [.., (50, SourceItem::Watermark(99))]),
            "{phase2:?}"
        );
    }

    fn tuples(n: u64, keys: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    format!("key-{}", i % keys).into_bytes(),
                    (i % 7 + 1).to_le_bytes().to_vec(),
                    i as i64,
                )
            })
            .collect()
    }

    fn count_job(parallelism: usize) -> Job {
        JobBuilder::new("rescale-counts")
            .parallelism(parallelism)
            .stateless("pass", |t, out| out(t.key, t.value, t.timestamp))
            .window(
                "counts",
                WindowAssigner::Fixed { size: 500 },
                AggregateSpec::Incremental(Arc::new(CountAggregate)),
            )
            .build()
    }

    fn session_job(parallelism: usize) -> Job {
        JobBuilder::new("rescale-sessions")
            .parallelism(parallelism)
            .window(
                "medians",
                WindowAssigner::Session { gap: 40 },
                AggregateSpec::FullList(Arc::new(MedianProcess)),
            )
            .build()
    }

    type Triples = Vec<(Vec<u8>, Vec<u8>, i64)>;

    fn sorted(outputs: &[Tuple]) -> Triples {
        let mut v: Triples = outputs
            .iter()
            .map(|t| (t.key.clone(), t.value.clone(), t.timestamp))
            .collect();
        v.sort();
        v
    }

    fn flowkv() -> Arc<dyn StateBackendFactory> {
        BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new())
    }

    /// Watermark cadence of the unit runs: one falls on the barrier's
    /// offset, 2 001, and it closes the count job's window [1500, 2000),
    /// so a phase 1 that fired it would emit that window twice.
    const WM_INTERVAL: usize = 23;

    /// Options for a rescale to `to` workers halfway through 4 000 tuples.
    fn rescale_opts(dir: &Path, to: usize) -> RunOptions {
        let mut opts = RunOptions::new(dir.join("run"));
        opts.collect_outputs = true;
        opts.watermark_interval = WM_INTERVAL;
        opts.rescale_to = Some(to);
        opts.checkpoint_after_tuples = Some(2_001);
        opts.checkpoint_dir = Some(dir.join("ckpt"));
        opts
    }

    #[test]
    fn rescale_mid_stream_matches_constant_parallelism() {
        for make in [count_job, session_job] {
            for (from, to) in [(2, 4), (4, 2)] {
                let job = make(from);
                let input = tuples(4_000, 29);
                let dir = ScratchDir::new("rescale-unit").unwrap();
                let mut opts = RunOptions::new(dir.path().join("flat"));
                opts.collect_outputs = true;
                opts.watermark_interval = WM_INTERVAL;
                let flat = run_job(&job, input.clone().into_iter(), flowkv(), &opts).unwrap();
                assert_eq!(flat.rescale_pause, None);

                let registry = StateRegistry::new_shared();
                let mut ropts = rescale_opts(dir.path(), to);
                ropts.registry = Some(Arc::clone(&registry));
                let rescaled = run_job(&job, input.into_iter(), flowkv(), &ropts)
                    .unwrap_or_else(|e| panic!("{} {from}→{to}: {e}", job.name));
                assert!(rescaled.rescale_pause.is_some_and(|d| !d.is_zero()));
                assert_eq!(rescaled.input_count, 4_000);
                // Only the new partitions serve views.
                let mut served: Vec<usize> =
                    (registry.list().iter()).map(|s| s.key.partition).collect();
                served.sort();
                assert_eq!(served, (0..to).collect::<Vec<_>>());
                assert!(!flat.outputs.is_empty());
                assert_eq!(
                    sorted(&rescaled.outputs),
                    sorted(&flat.outputs),
                    "{} {from}→{to} diverged",
                    job.name
                );
            }
        }
    }

    #[test]
    fn rescale_rejects_multi_window_and_join_jobs_and_zero_workers() {
        let two_windows = JobBuilder::new("two-windows")
            .window(
                "a",
                WindowAssigner::Fixed { size: 100 },
                AggregateSpec::Incremental(Arc::new(CountAggregate)),
            )
            .window(
                "b",
                WindowAssigner::Fixed { size: 100 },
                AggregateSpec::Incremental(Arc::new(CountAggregate)),
            )
            .build();
        let join = JobBuilder::new("join")
            .interval_join(
                "j",
                -10,
                10,
                100,
                Arc::new(|_: &[u8], _: &[u8], _: &[u8]| -> Option<Vec<u8>> { None }),
            )
            .build();
        let cases = [
            (two_windows, 4, "exactly one keyed stage"),
            (join, 4, "interval joins cannot be rescaled"),
            (count_job(2), 0, "zero workers"),
        ];
        for (job, to, want) in cases {
            let dir = ScratchDir::new("rescale-reject").unwrap();
            let err = run_job(
                &job,
                tuples(10, 2).into_iter(),
                flowkv(),
                &rescale_opts(dir.path(), to),
            )
            .unwrap_err();
            assert!(err.to_string().contains(want), "{}: {err}", job.name);
        }
    }

    #[test]
    fn a_barrier_offset_beyond_the_stream_end_is_an_error() {
        let got = controls(Schedule::new(hundred(), 10, 0, Some(101)));
        assert!(
            got.iter()
                .all(|(_, item)| matches!(item, SourceItem::Watermark(_))),
            "{got:?}"
        );
        let dir = ScratchDir::new("rescale-past-end").unwrap();
        let mut opts = rescale_opts(dir.path(), 4);
        opts.checkpoint_after_tuples = Some(101);
        let err = run_job(&count_job(2), hundred(), flowkv(), &opts).unwrap_err();
        assert!(err.to_string().contains("beyond the stream end"), "{err}");
    }
}
