//! Sharded multi-worker execution with live rescaling.
//!
//! A cluster run executes one job across `N` key-range shards
//! ([`flowkv::KeyRangePartitioner`]), each shard a *full* executor
//! instance — its own store backends, exchange, and telemetry registry —
//! fed by a coordinator that routes source tuples by key range and
//! injects the global watermark/barrier schedule into every shard
//! ([`router`]). Outputs merge into one deterministic global order, so
//! the sharded run is byte-identical to the `N = 1` run.
//!
//! Live rescaling is recovery at a different parallelism: the
//! coordinator takes an aligned checkpoint at a chosen source offset,
//! halts the old shards *without* firing their open windows, repartitions
//! every store's persisted state along key boundaries ([`migrate`]), and
//! resumes the remainder of the stream at the new worker count with the
//! watermark schedule carrying over — still byte-identical to a run that
//! never rescaled.

mod migrate;
mod router;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv::KeyRangePartitioner;
use flowkv_common::backend::StateBackendFactory;
use flowkv_common::error::StoreError;
use flowkv_common::metrics::MetricsSnapshot;
use flowkv_common::types::Tuple;

use crate::executor::{run_job_inner, JobError, JobResult, RunCtx, RunOptions, SourceItem};
use crate::job::{Job, Stage};

/// The outcome of a cluster run.
#[derive(Debug, Default)]
pub struct ClusterResult {
    /// All committed output tuples, in the canonical global order
    /// (sorted by key, then timestamp, then value) — the order used for
    /// byte-identity comparisons across parallelisms.
    pub outputs: Vec<Tuple>,
    /// Number of output tuples.
    pub output_count: u64,
    /// Number of source tuples.
    pub input_count: u64,
    /// Wall-clock duration of the whole run (routing, all phases, and
    /// any migration).
    pub elapsed: Duration,
    /// Parallelism at the end of the run (the rescale target when one
    /// was requested).
    pub workers: usize,
    /// How long the stream was paused for state migration (rescale runs
    /// only): from the moment every old shard halted to the moment the
    /// new shards could start.
    pub rescale_pause: Option<Duration>,
    /// Store metrics merged across every worker of every phase.
    pub store_metrics: MetricsSnapshot,
    /// Tuples dropped for arriving behind the watermark.
    pub dropped_late: u64,
}

impl ClusterResult {
    /// Source throughput in tuples per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.input_count as f64 / secs
        }
    }
}

/// Sorts outputs into the canonical global order every parallelism
/// agrees on.
fn canonical_sort(outputs: &mut [Tuple]) {
    outputs.sort_by(|a, b| (&a.key, a.timestamp, &a.value).cmp(&(&b.key, b.timestamp, &b.value)));
}

fn invalid(msg: &str) -> JobError {
    JobError::Store(StoreError::invalid_state(msg.to_string()))
}

/// Runs `job` across [`RunOptions::workers`] key-range shards, rescaling
/// mid-stream to [`RunOptions::rescale_to`] when set.
///
/// Sharding supports jobs with exactly one stateful (window) stage: any
/// leading stateless stages run inside the coordinator's router (so
/// routing sees the keys the window groups by), and trailing stateless
/// stages run inside each shard. A rescale additionally requires
/// [`RunOptions::checkpoint_after_tuples`] (the source offset of the
/// coordinated barrier) and [`RunOptions::checkpoint_dir`] (where the
/// old and repartitioned checkpoints live).
pub fn run_cluster(
    job: &Job,
    source: impl Iterator<Item = Tuple>,
    factory: Arc<dyn StateBackendFactory>,
    options: &RunOptions,
) -> Result<ClusterResult, JobError> {
    let started = Instant::now();
    let n = options.workers.max(1);

    // One tracer shared by every shard of every phase: phase-1 shard `i`
    // traces as pid `i`, rescaled shard `i` as pid `n + i`, and the
    // coordinator's own lane (migration spans) as `pid::MAX`. Shards
    // never write trace files themselves — the coordinator drains the
    // shared tracer once, after both phases.
    let ctx = RunCtx::resolve(options);
    let coord_rec = ctx
        .tracer
        .as_ref()
        .map(|t| t.thread(u32::MAX, "coordinator"));

    let stateful: Vec<usize> = job
        .stages
        .iter()
        .enumerate()
        .filter(|(_, s)| !matches!(s, Stage::Stateless { .. }))
        .map(|(i, _)| i)
        .collect();
    let [split] = stateful[..] else {
        return Err(invalid("cluster jobs need exactly one stateful stage"));
    };
    if matches!(job.stages[split], Stage::IntervalJoin(_)) {
        return Err(invalid("interval joins are not shardable"));
    }
    // Everything ahead of the one stateful stage is stateless.
    let prefix = &job.stages[..split];
    let worker_job = Job {
        name: job.name.clone(),
        parallelism: job.parallelism,
        stages: job.stages[split..].to_vec(),
    };

    let partitioner = KeyRangePartitioner::new(n);
    let rescale_part = match options.rescale_to {
        Some(0) => return Err(invalid("cannot rescale to zero workers")),
        Some(m) => Some(KeyRangePartitioner::new(m)),
        None => None,
    };
    let (barrier_at, ckpt_root) = if rescale_part.is_some() {
        let Some(b) = options.checkpoint_after_tuples else {
            return Err(invalid(
                "rescale requires a barrier offset (RunOptions::checkpoint)",
            ));
        };
        let Some(dir) = options.checkpoint_dir.clone() else {
            return Err(invalid(
                "rescale requires a checkpoint directory (RunOptions::checkpoint)",
            ));
        };
        (Some(b), Some(dir))
    } else {
        (None, None)
    };

    let plan = router::route(
        source,
        prefix,
        &partitioner,
        rescale_part
            .as_ref()
            .map(|p| (p, barrier_at.expect("validated above"))),
        options.watermark_interval,
        options.watermark_slack,
    );
    if rescale_part.is_some() && !plan.barrier_taken {
        return Err(invalid("rescale barrier offset lies beyond the stream end"));
    }

    let old_ckpt = ckpt_root.as_ref().map(|d| d.join("old"));
    let phase1 = run_phase(
        &worker_job,
        plan.phase1,
        &factory,
        options,
        &ctx,
        &PhaseConfig {
            label: "",
            checkpoint_root: old_ckpt.clone(),
            restore_root: None,
            pid_base: 0,
        },
    )?;

    let mut outputs: Vec<Tuple> = Vec::new();
    let mut store_metrics = MetricsSnapshot::default();
    for r in &phase1 {
        store_metrics = store_metrics.merged(&r.store_metrics);
    }
    for r in &phase1 {
        outputs.extend(r.outputs.iter().cloned());
    }
    let mut dropped_late: u64 = phase1.iter().map(|r| r.dropped_late).sum();
    let mut workers = n;
    let mut rescale_pause = None;

    if let (Some(phase2_items), Some(new_part)) = (plan.phase2, &rescale_part) {
        let m = new_part.shards();
        let ckpt_root = ckpt_root.expect("validated above");
        let new_ckpt = ckpt_root.join("new");
        let pause_start = Instant::now();
        let mig_span = coord_rec.as_ref().map(|rec| {
            rec.begin_with(
                "rescale_migrate",
                "migrate",
                None,
                vec![("from", n as i64), ("to", m as i64)],
            )
        });
        migrate::repartition(
            &worker_job,
            &factory,
            &old_ckpt.expect("rescale writes old checkpoints"),
            n,
            &new_ckpt,
            m,
            &options.data_dir.join("migrate"),
            coord_rec.as_deref(),
        )
        .map_err(JobError::Store)?;
        if let (Some(rec), Some(span)) = (&coord_rec, mig_span) {
            rec.end(span, "rescale_migrate", "migrate");
        }
        rescale_pause = Some(pause_start.elapsed());
        let phase2 = run_phase(
            &worker_job,
            phase2_items,
            &factory,
            options,
            &ctx,
            &PhaseConfig {
                label: "r",
                checkpoint_root: None,
                restore_root: Some(new_ckpt),
                pid_base: n as u32,
            },
        )?;
        for r in &phase2 {
            store_metrics = store_metrics.merged(&r.store_metrics);
            outputs.extend(r.outputs.iter().cloned());
        }
        // Phase-1 drops were checkpointed into the operators' engine
        // state and restored into phase 2, so phase 2 already carries
        // the full count.
        dropped_late = phase2.iter().map(|r| r.dropped_late).sum();
        workers = m;
    }

    ctx.export_trace(options.trace_out.as_ref());

    canonical_sort(&mut outputs);
    Ok(ClusterResult {
        output_count: outputs.len() as u64,
        outputs,
        input_count: plan.input_count,
        elapsed: started.elapsed(),
        workers,
        rescale_pause,
        store_metrics,
        dropped_late,
    })
}

/// Where one phase's workers keep their stores and checkpoints.
struct PhaseConfig {
    /// Worker-directory prefix: phase-1 workers are `w0..`, rescaled
    /// workers `rw0..` (also the telemetry `worker` label).
    label: &'static str,
    checkpoint_root: Option<PathBuf>,
    restore_root: Option<PathBuf>,
    /// Shard `i` of the phase traces under Chrome pid `pid_base + i`.
    pid_base: u32,
}

/// Runs one shard set to completion: every shard a full executor
/// instance on its own thread, with bounded deterministic-backoff
/// retries, per-worker telemetry registries folded into the job-level
/// hub under `worker=<i>` labels.
fn run_phase(
    worker_job: &Job,
    shards: Vec<Vec<SourceItem>>,
    factory: &Arc<dyn StateBackendFactory>,
    options: &RunOptions,
    ctx: &RunCtx,
    phase: &PhaseConfig,
) -> Result<Vec<JobResult>, JobError> {
    let seed = crate::backoff::fault_seed();
    let mut handles = Vec::with_capacity(shards.len());
    let mut hubs = Vec::with_capacity(shards.len());
    for (i, items) in shards.into_iter().enumerate() {
        let shard_ctx = ctx.shard(phase.pid_base + i as u32);
        hubs.push(shard_ctx.telemetry.clone());
        let job = worker_job.clone();
        let factory = Arc::clone(factory);
        let data_dir = options.data_dir.join(format!("{}w{i}", phase.label));
        // A shard runs under the job's options, except for what the
        // coordinator owns: the source (the shard's items already carry
        // the global schedule and barrier, unpaced), the merged outputs,
        // the checkpoint layout, and the job-level artefacts.
        let mut wopts = options.clone();
        wopts.collect_outputs = true;
        wopts.rate_limit = None;
        wopts.checkpoint_after_tuples = None;
        wopts.checkpoint_dir = phase
            .checkpoint_root
            .as_ref()
            .map(|d| migrate::cluster_ckpt_dir(d, i));
        wopts.restore_from = phase
            .restore_root
            .as_ref()
            .map(|d| migrate::cluster_ckpt_dir(d, i));
        wopts.registry = None;
        wopts.telemetry_out = None;
        wopts.trace_out = None;
        let handle = std::thread::Builder::new()
            .name(format!("cluster-{}w{i}", phase.label))
            .spawn(move || -> Result<JobResult, JobError> {
                let mut attempt = 0u32;
                loop {
                    // A fresh store root per attempt: a failed attempt's
                    // half-written files never leak into the retry.
                    wopts.data_dir = data_dir.join(format!("a{attempt}"));
                    let items = items.iter().cloned();
                    match run_job_inner(&job, items, Arc::clone(&factory), &wopts, &shard_ctx) {
                        Ok(r) => return Ok(r),
                        Err((e, _)) => {
                            if attempt >= wopts.max_restarts {
                                return Err(e);
                            }
                            attempt += 1;
                            std::thread::sleep(crate::backoff::jittered_backoff(
                                wopts.restart_backoff,
                                attempt,
                                seed ^ (i as u64),
                            ));
                        }
                    }
                }
            })
            .expect("spawn cluster worker");
        handles.push(handle);
    }

    let mut results = Vec::with_capacity(handles.len());
    let mut first_error: Option<JobError> = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(r)) => results.push(r),
            Ok(Err(e)) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            Err(_) => {
                if first_error.is_none() {
                    first_error = Some(JobError::Panic("cluster worker panicked".into()));
                }
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    if let Some(job_hub) = &ctx.telemetry {
        for (i, hub) in hubs.iter().enumerate() {
            if let Some(hub) = hub {
                job_hub.registry().merge(
                    &hub.registry().snapshot(),
                    "worker",
                    &format!("{}{i}", phase.label),
                );
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{BackendChoice, FactoryOptions};
    use crate::functions::{CountAggregate, MedianProcess};
    use crate::job::{AggregateSpec, JobBuilder};
    use crate::window::WindowAssigner;
    use flowkv_common::scratch::ScratchDir;

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

    fn count_job() -> Job {
        JobBuilder::new("cluster-counts")
            .parallelism(2)
            .stateless("pass", |t, out| out(t.key, t.value, t.timestamp))
            .window(
                "counts",
                WindowAssigner::Fixed { size: 500 },
                AggregateSpec::Incremental(std::sync::Arc::new(CountAggregate)),
            )
            .build()
    }

    fn session_job() -> Job {
        JobBuilder::new("cluster-sessions")
            .parallelism(2)
            .window(
                "medians",
                WindowAssigner::Session { gap: 40 },
                AggregateSpec::FullList(std::sync::Arc::new(MedianProcess)),
            )
            .build()
    }

    type Triples = Vec<(Vec<u8>, Vec<u8>, i64)>;

    fn triples(outputs: &[Tuple]) -> Triples {
        outputs
            .iter()
            .map(|t| (t.key.clone(), t.value.clone(), t.timestamp))
            .collect()
    }

    #[test]
    fn single_shard_cluster_matches_plain_run_job() {
        let job = count_job();
        let input = tuples(4_000, 13);
        let dir = ScratchDir::new("cluster-n1").unwrap();
        let mut opts = RunOptions::new(dir.path().join("cluster"));
        opts.workers = 1;
        opts.watermark_interval = 50;
        let cluster = run_cluster(
            &job,
            input.clone().into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();

        let mut plain_opts = RunOptions::new(dir.path().join("plain"));
        plain_opts.collect_outputs = true;
        plain_opts.watermark_interval = 50;
        let plain = crate::executor::run_job(
            &job,
            input.into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &plain_opts,
        )
        .unwrap();
        let mut plain_outputs = plain.outputs;
        canonical_sort(&mut plain_outputs);
        assert_eq!(triples(&cluster.outputs), triples(&plain_outputs));
        assert_eq!(cluster.input_count, plain.input_count);
    }

    #[test]
    fn sharded_output_is_identical_across_parallelisms() {
        for job in [count_job(), session_job()] {
            let input = tuples(4_000, 29);
            let mut reference: Option<Triples> = None;
            for n in [1usize, 2, 4] {
                let dir = ScratchDir::new("cluster-eq").unwrap();
                let mut opts = RunOptions::new(dir.path());
                opts.workers = n;
                opts.watermark_interval = 37;
                let result = run_cluster(
                    &job,
                    input.clone().into_iter(),
                    BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
                    &opts,
                )
                .unwrap_or_else(|e| panic!("{} N={n}: {e}", job.name));
                let got = triples(&result.outputs);
                assert!(!got.is_empty(), "{} N={n} produced nothing", job.name);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want, "{} N={n} diverged", job.name),
                }
            }
        }
    }

    #[test]
    fn rescale_mid_stream_matches_constant_parallelism() {
        for job in [count_job(), session_job()] {
            let input = tuples(4_000, 29);
            let dir = ScratchDir::new("cluster-rescale").unwrap();
            let mut opts = RunOptions::new(dir.path().join("flat"));
            opts.workers = 4;
            opts.watermark_interval = 37;
            let flat = run_cluster(
                &job,
                input.clone().into_iter(),
                BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
                &opts,
            )
            .unwrap();

            let mut ropts = RunOptions::new(dir.path().join("rescale"));
            ropts.workers = 2;
            ropts.rescale_to = Some(4);
            ropts.watermark_interval = 37;
            ropts.checkpoint_after_tuples = Some(2_000);
            ropts.checkpoint_dir = Some(dir.path().join("ckpt"));
            let rescaled = run_cluster(
                &job,
                input.into_iter(),
                BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
                &ropts,
            )
            .unwrap_or_else(|e| panic!("{} rescale: {e}", job.name));
            assert_eq!(rescaled.workers, 4);
            assert!(rescaled.rescale_pause.is_some());
            assert_eq!(
                triples(&rescaled.outputs),
                triples(&flat.outputs),
                "{} rescale diverged",
                job.name
            );
        }
    }

    #[test]
    fn multi_window_jobs_are_rejected() {
        let job = JobBuilder::new("two-windows")
            .window(
                "a",
                WindowAssigner::Fixed { size: 100 },
                AggregateSpec::Incremental(std::sync::Arc::new(CountAggregate)),
            )
            .window(
                "b",
                WindowAssigner::Fixed { size: 100 },
                AggregateSpec::Incremental(std::sync::Arc::new(CountAggregate)),
            )
            .build();
        let dir = ScratchDir::new("cluster-reject").unwrap();
        let mut opts = RunOptions::new(dir.path());
        opts.workers = 2;
        let err = run_cluster(
            &job,
            tuples(10, 2).into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("exactly one stateful stage"),
            "{err}"
        );
    }
}
