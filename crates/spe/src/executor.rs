//! The threaded job executor: key-partitioned workers, watermark
//! propagation, and end-to-end measurement.
//!
//! Execution mirrors Figure 1(b) of the paper: every keyed stage
//! (window, interval join) runs as `parallelism` single-threaded workers
//! over disjoint key partitions, connected by bounded channels. Stateless
//! stages own no thread: each runs inside whoever produces its input —
//! the source or the keyed worker upstream — before that sender
//! partitions by key (Flink's operator chaining), so a job is
//! `2 + keyed stages × parallelism` threads. Watermarks flow with the
//! data; a worker's event time is the minimum across its inputs. A final
//! `MAX_TIMESTAMP` watermark closes every window when a bounded source
//! ends.
//!
//! Tuples move between stages in micro-batches of up to
//! [`RunOptions::batch_size`] (one channel operation per batch instead
//! of per tuple), each a [`TupleBatch`]: one byte arena the sender's
//! stateless stages emit into and the receiver reads rows of in place,
//! so no tuple is allocated between the source and the store. Batches
//! are force-flushed before every watermark, barrier, and end marker,
//! and additionally once a partial batch has lingered 5 ms on a
//! rate-limited stream, so event-time semantics, checkpoint alignment,
//! and the sink's accounting are independent of the batch size — see
//! DESIGN.md § Exchange and batching.
//!
//! Latency accounting: each tuple and watermark carries the wall-clock
//! nanosecond at which it left the source — read once per 16-tuple
//! burst, as the burst starts, so never after the tuple's real send —
//! or, under a rate limit, at which it was *due* to leave, so a source
//! held back by backpressure does not hide the delay (one stamp per
//! tuple, even inside a batch);
//! window outputs inherit the origin of the watermark that triggered
//! them, so the sink observes true end-to-end latency including every
//! store interaction (the paper's Kafka-based methodology, §6.2).

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};

use flowkv_common::backend::{OperatorContext, StateBackendFactory};
use flowkv_common::error::StoreError;
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::MetricsSnapshot;
use flowkv_common::registry::StateKey;
use flowkv_common::telemetry::{self, Counter, Gauge, Histogram, HistogramSnapshot, Telemetry};
use flowkv_common::trace::{self as ftrace, SpanRecorder, TraceCtx, Tracer};
use flowkv_common::types::{Timestamp, Tuple, MAX_TIMESTAMP, MIN_TIMESTAMP};

use crate::batch::TupleBatch;
use crate::exchange::{BatchTrace, Envelope, Msg, Outbox};
use crate::job::{Chain, Job};
use crate::latency::Stamped;
use crate::operator::KeyedOperator;
use crate::publish::ViewPublisher;
use crate::run::{thread_cpu_seconds, JobError, JobResult, RunOptions, ThreadCpu};
use crate::source::{write_source_offset, Schedule, SourceItem};

/// What each worker reports on exit.
struct WorkerReport {
    dropped_late: u64,
    metrics: MetricsSnapshot,
    late: Vec<Tuple>,
}

#[derive(Default)]
struct SinkReport {
    outputs: Vec<Tuple>,
    output_count: u64,
    /// End-to-end latency distribution (empty unless `record_latency`).
    latency: HistogramSnapshot,
    /// The checkpoint split, which outlives a failed run.
    salvage: AttemptSalvage,
}

/// A run's observability context: the telemetry hub and span tracer its
/// threads record into. Resolved from the options once per run and
/// handed down — to every attempt of a supervised run, and to both
/// phases of a rescale.
pub(crate) struct RunCtx {
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    /// Every `trace_sample`-th sealed source batch is traced; `0`
    /// exactly when `tracer` is `None`.
    pub(crate) trace_sample: u64,
}

impl RunCtx {
    pub(crate) fn resolve(options: &RunOptions) -> Self {
        // An explicit tracer wins; `trace_out` alone gets a private one,
        // and either implies a sample rate of 1 when none was chosen.
        let trace_sample = if options.trace_sample > 0 {
            options.trace_sample
        } else if options.trace.is_some() || options.trace_out.is_some() {
            1
        } else {
            0
        };
        let tracer = (trace_sample > 0).then(|| options.trace.clone().unwrap_or_else(Tracer::new));
        // An explicit hub wins; a JSONL sink alone gets a fresh one, and
        // so does tracing — stores and I/O rings reach the tracer only
        // through their telemetry handle. Otherwise the run is fully
        // uninstrumented.
        let telemetry = options.telemetry.clone().or_else(|| {
            (options.telemetry_out.is_some() || tracer.is_some()).then(Telemetry::new_shared)
        });
        if let (Some(t), Some(tracer)) = (&telemetry, &tracer) {
            t.set_trace(Arc::clone(tracer));
        }
        RunCtx {
            telemetry,
            tracer,
            trace_sample,
        }
    }

    /// Registers the calling thread's span recorder under `name`: how the
    /// source, every worker, the sink and a rescale's migration get
    /// theirs. `None` when the run is untraced.
    pub(crate) fn recorder(&self, name: &str) -> Option<Arc<SpanRecorder>> {
        self.tracer.as_ref().map(|tracer| tracer.thread(name))
    }

    /// Drains the tracer into `path` as Chrome trace-event JSON.
    /// Best-effort, like the telemetry writer.
    pub(crate) fn export_trace(&self, path: Option<&PathBuf>) {
        if let (Some(tracer), Some(path)) = (&self.tracer, path) {
            let json = ftrace::chrome_trace_json(&tracer.drain());
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write trace export to {}: {e}", path.display());
            }
        }
    }
}

/// Runs `job` over the tuples of `source` using state backends from
/// `factory`.
///
/// The source iterator is consumed on a dedicated thread; tuples must
/// arrive in roughly ascending timestamp order (bounded by
/// `watermark_slack`), as a replayable log source would deliver them.
/// With [`RunOptions::rescale_to`] set, the run changes parallelism at
/// its checkpoint barrier ([`crate::rescale`]).
pub fn run_job(
    job: &Job,
    source: impl Iterator<Item = Tuple> + Send + 'static,
    factory: Arc<dyn StateBackendFactory>,
    options: &RunOptions,
) -> Result<JobResult, JobError> {
    let ctx = RunCtx::resolve(options);
    let items = Schedule::new(source, options);
    match options.rescale_to {
        Some(to) => crate::rescale::run_rescaled(job, items, factory, options, &ctx, to),
        None => run_job_inner(job, items, factory, options, &ctx).map_err(|(e, _)| e),
    }
}

/// What the supervisor can salvage from a failed attempt: whether the
/// aligned checkpoint completed at the sink, and the outputs the sink
/// observed ahead of every barrier (exactly the tuples a downstream
/// system would have consumed as committed when the checkpoint closed).
#[derive(Default)]
pub(crate) struct AttemptSalvage {
    pub(crate) checkpoint_complete: bool,
    pub(crate) outputs_pre: Vec<Tuple>,
    pub(crate) pre_count: u64,
}

/// What every thread of one run shares.
#[derive(Clone, Copy)]
struct RunShared<'a> {
    job: &'a Job,
    options: &'a RunOptions,
    ctx: &'a RunCtx,
    factory: &'a dyn StateBackendFactory,
    /// Raised to stop every thread: on the first failure, on timeout,
    /// and once the sink has finished.
    abort: &'a AtomicBool,
    /// The run's clock epoch: tuple and watermark origins are
    /// nanoseconds since it.
    epoch: Instant,
}

/// The one runner: executes `job` over a scheduled item stream. A
/// failed run also returns the sink-side salvage the supervisor needs.
/// [`run_job`], every supervised attempt, and both phases of a rescale
/// are calls of this function.
pub(crate) fn run_job_inner(
    job: &Job,
    source: impl Iterator<Item = SourceItem> + Send,
    factory: Arc<dyn StateBackendFactory>,
    options: &RunOptions,
    ctx: &RunCtx,
) -> Result<JobResult, (JobError, AttemptSalvage)> {
    let n = job.parallelism;
    let started = Instant::now();
    let abort = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let writer_stop = AtomicBool::new(false);
    let run = RunShared {
        job,
        options,
        ctx,
        factory: &*factory,
        abort: &abort,
        epoch: started,
    };

    // Only keyed stages own threads and channels; the stateless stages
    // in between run inside the exchange of whoever feeds them.
    let keyed: Vec<usize> = (0..job.stages.len())
        .filter(|&idx| job.stages[idx].semantics().is_some())
        .collect();
    // Channels: one boundary into each keyed stage plus the sink boundary.
    let num_boundaries = keyed.len() + 1;
    let mut senders: Vec<Vec<Sender<Envelope>>> = Vec::with_capacity(num_boundaries);
    let mut receivers: Vec<Vec<Receiver<Envelope>>> = Vec::with_capacity(num_boundaries);
    for boundary in 0..num_boundaries {
        let width = if boundary == num_boundaries - 1 { 1 } else { n };
        let (tx, rx) = (0..width)
            .map(|_| bounded(options.channel_capacity))
            .unzip();
        senders.push(tx);
        receivers.push(rx);
    }

    std::thread::scope(|s| {
        let spawn = std::thread::Builder::new;
        let source_tx = senders[0].clone();
        let source_handle = spawn()
            .name("spe-source".into())
            .spawn_scoped(s, move || {
                let sent = run_source(run, source, source_tx);
                (sent, thread_cpu_seconds())
            })
            .expect("spawn source");
        let mut handles = Vec::new();
        for (boundary, &stage_idx) in keyed.iter().enumerate() {
            // Fed by the source alone, or by every worker of the keyed
            // stage before it.
            let upstreams = if boundary == 0 { 1 } else { n };
            for (worker, rx) in receivers[boundary].iter().enumerate() {
                let rx = rx.clone();
                let next = senders[boundary + 1].clone();
                let handle = spawn()
                    .name(format!("spe-{}-{}", job.stages[stage_idx].name(), worker))
                    .spawn_scoped(s, move || {
                        let report = run_worker(run, stage_idx, worker, upstreams, rx, next);
                        (report, thread_cpu_seconds())
                    })
                    .expect("spawn worker");
                handles.push(handle);
            }
        }
        let sink_rx = receivers[num_boundaries - 1][0].clone();
        let sink_upstreams = if keyed.is_empty() { 1 } else { n };
        let sink_handle = spawn()
            .name("spe-sink".into())
            .spawn_scoped(s, move || {
                let report = run_sink(run, sink_upstreams, sink_rx);
                (report, thread_cpu_seconds())
            })
            .expect("spawn sink");

        // The threads hold their own clones; drop the runner's copies
        // so disconnects propagate.
        drop(receivers);
        drop(senders);

        // JSONL telemetry writer: periodic registry snapshots, plus one
        // final snapshot when the run ends. Best-effort — a full disk
        // never fails the job.
        let writer_handle = ctx
            .telemetry
            .as_deref()
            .zip(options.telemetry_out.as_deref())
            .map(|(t, path)| {
                let interval = options.telemetry_interval.max(Duration::from_millis(10));
                let stop = &writer_stop;
                spawn()
                    .name("spe-telemetry".into())
                    .spawn_scoped(s, move || write_telemetry_jsonl(t, path, interval, stop))
                    .expect("spawn telemetry writer")
            });

        // Watchdog for the wall-clock timeout: parked until the deadline,
        // or until the runner wakes it because the run is over.
        let watchdog = options.timeout.map(|limit| {
            let deadline = started + limit;
            let (abort, timed_out) = (&abort, &timed_out);
            s.spawn(move || {
                while !abort.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now >= deadline {
                        timed_out.store(true, Ordering::Relaxed);
                        abort.store(true, Ordering::Relaxed);
                        return;
                    }
                    std::thread::park_timeout(deadline - now);
                }
            })
        });

        // Join everything, aggregating reports and the first error.
        let mut first_error: Option<JobError> = None;
        let mut thread_cpu = ThreadCpu::default();
        let input_count = match source_handle.join() {
            Ok((sent, cpu_s)) => {
                thread_cpu.source_s = cpu_s;
                sent
            }
            Err(_) => {
                first_error = Some(JobError::Panic("source panicked".into()));
                0
            }
        };
        let mut merged = MetricsSnapshot::default();
        let mut dropped_late = 0;
        let mut late_tuples = Vec::new();
        for handle in handles {
            let error = match handle.join() {
                Ok((Ok(report), cpu_s)) => {
                    thread_cpu.workers_s.push(cpu_s);
                    merged = merged.merged(&report.metrics);
                    dropped_late += report.dropped_late;
                    late_tuples.extend(report.late);
                    continue;
                }
                Ok((Err(e), _)) => JobError::Store(e),
                Err(_) => JobError::Panic("worker panicked".into()),
            };
            abort.store(true, Ordering::Relaxed);
            first_error.get_or_insert(error);
        }
        let sink = sink_handle.join();
        abort.store(true, Ordering::Relaxed);
        if let Some(w) = watchdog {
            w.thread().unpark();
            let _ = w.join();
        }
        writer_stop.store(true, Ordering::Relaxed);
        if let Some(w) = writer_handle {
            match w.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("telemetry writer failed: {e}"),
                Err(_) => eprintln!("telemetry writer panicked"),
            }
        }
        // Exported before any error return — the trace of a failed run
        // is the one you want most.
        ctx.export_trace(options.trace_out.as_ref());
        let Ok((mut sink, sink_cpu_s)) = sink else {
            return Err((
                JobError::Panic("sink panicked".into()),
                AttemptSalvage::default(),
            ));
        };

        // The barrier's source offset is part of the checkpoint: the
        // supervisor rewinds the log source to it on recovery. Written
        // to a synced temporary file, then renamed, like the stores' own
        // logs, so a crash mid-write leaves no half-formed offset — and a
        // checkpoint whose offset did not land did not complete.
        if sink.salvage.checkpoint_complete {
            if let (Some(dir), Some(offset)) =
                (&options.checkpoint_dir, options.checkpoint_after_tuples)
            {
                if let Err(e) = write_source_offset(dir, offset) {
                    eprintln!("checkpoint incomplete, its source offset failed to persist: {e}");
                    sink.salvage.checkpoint_complete = false;
                }
            }
        }

        let error = timed_out
            .load(Ordering::Relaxed)
            .then_some(JobError::Timeout)
            .or(first_error);
        if let Some(e) = error {
            return Err((e, sink.salvage));
        }
        Ok(JobResult {
            outputs: sink.outputs,
            output_count: sink.output_count,
            input_count,
            elapsed: started.elapsed(),
            store_metrics: merged,
            latency_histogram: sink.latency,
            dropped_late,
            checkpoint_taken: sink.salvage.checkpoint_complete,
            late_tuples,
            outputs_pre_checkpoint: sink.salvage.outputs_pre,
            rescale_pause: None,
            thread_cpu: ThreadCpu {
                sink_s: sink_cpu_s,
                ..thread_cpu
            },
        })
    })
}

/// Longest a partially filled source batch may linger before being
/// flushed anyway (checked as the next tuple arrives), bounding the
/// extra latency batching can add to slow, rate-limited streams. An
/// unpaced source never lingers: it fills its batches as fast as the
/// consumer takes them, and a timer there would only make the batch
/// boundaries, and the store-call order behind them, depend on wall
/// time.
const BATCH_LINGER_NANOS: u64 = 5_000_000;

/// The body of the `spe-source` thread: paces the item stream, stamps
/// and batches its tuples into the first exchange, and forwards its
/// watermarks and barriers. Returns the number of tuples sent.
fn run_source(
    run: RunShared<'_>,
    source: impl Iterator<Item = SourceItem>,
    txs: Vec<Sender<Envelope>>,
) -> u64 {
    let RunShared { options, ctx, .. } = run;
    let counters = ctx.telemetry.as_ref().map(|t| {
        (
            t.registry().counter("source_tuples_total"),
            t.registry().gauge("source_watermark"),
        )
    });
    let recorder = ctx.recorder("source");
    let chain = Chain::leading(&run.job.stages);
    let batch_size = options.batch_size;
    let mut outbox = Outbox::new(ctx, batch_size, chain, txs, "source", 0, recorder.clone());
    let now = || run.epoch.elapsed().as_nanos() as u64;
    // Under a rate limit the item after `count` tuples is due
    // `count / rate` seconds after pacing started, and is stamped with
    // that instant once the source runs behind it: latency is measured
    // from when a tuple should have left, so the time a backpressured
    // source spends blocked counts (no coordinated omission). A rate of
    // 0 is no limit.
    let rate = options.rate_limit.filter(|&rate| rate > 0);
    let pace_start = now();
    let due = |count: u64| {
        rate.map(|rate| pace_start.saturating_add((count as f64 / rate as f64 * 1e9) as u64))
    };
    let stamp = |count: u64, departure: u64| due(count).map_or(departure, |d| d.min(departure));
    // The clock is read once per burst of 16 tuples, as the burst
    // starts, and every tuple of the burst departs at that reading. A
    // stamp can only come before the tuple's real send, so it may
    // overstate a latency (by what the burst takes to send, or a block
    // inside it, which the rule above wants counted) but never hide one.
    let mut burst_now = pace_start;
    let mut count: u64 = 0;
    let mut barrier_seq: u64 = 0;
    let mut last_flush: u64 = 0;
    let mut halted = false;
    for item in source {
        if run.abort.load(Ordering::Relaxed) {
            break;
        }
        match item {
            SourceItem::Tuple(tuple) => {
                // Token pacing: stay at or below the rate by sleeping
                // only at burst boundaries (every 16 tuples).
                if count.is_multiple_of(16) {
                    burst_now = now();
                    let ahead = due(count).map_or(0, |due| due.saturating_sub(burst_now));
                    if ahead > 0 {
                        std::thread::sleep(Duration::from_nanos(ahead));
                        burst_now = now();
                    }
                }
                let departure = burst_now;
                // The stateless prefix reads the input in place; the
                // input is freed here, on the thread that received it.
                if !outbox.send(tuple.borrowed(), stamp(count, departure)) {
                    break;
                }
                count += 1;
                if let Some((tuples, _)) = &counters {
                    tuples.inc();
                }
                if !outbox.has_pending() {
                    last_flush = departure;
                } else if rate.is_some()
                    && departure.saturating_sub(last_flush) >= BATCH_LINGER_NANOS
                {
                    // Slow stream: don't sit on a partial batch forever.
                    outbox.flush();
                    last_flush = departure;
                }
            }
            SourceItem::Watermark(ts) => {
                let departure = now();
                let origin = stamp(count, departure);
                if let Some((_, watermark)) = &counters {
                    watermark.set(ts);
                }
                outbox.broadcast(|| Msg::Watermark { ts, origin });
                last_flush = departure;
            }
            SourceItem::Barrier => {
                if let Some(rec) = &recorder {
                    barrier_instant(rec, "barrier_inject", &mut barrier_seq);
                }
                outbox.broadcast(|| Msg::Barrier);
            }
            SourceItem::Halt => {
                halted = true;
                break;
            }
        }
    }
    if !halted {
        let origin = stamp(count, now());
        outbox.broadcast(|| Msg::Watermark {
            ts: MAX_TIMESTAMP,
            origin,
        });
    }
    outbox.broadcast(|| Msg::End);
    count
}

/// Records barrier instant `name` under this thread's next barrier
/// number: barriers are totally ordered per run, so the numbers of every
/// thread agree on which checkpoint an instant belongs to.
fn barrier_instant(rec: &SpanRecorder, name: &'static str, seq: &mut u64) {
    *seq += 1;
    rec.instant(name, "barrier", None, vec![("barrier", *seq as i64)]);
}

/// The body of the `spe-sink` thread: counts (and optionally collects)
/// outputs, splits them at the checkpoint barrier, and samples
/// end-to-end latency until each of its `n` senders has ended.
fn run_sink(run: RunShared<'_>, n: usize, rx: Receiver<Envelope>) -> SinkReport {
    let RunShared { options, ctx, .. } = run;
    let collect = options.collect_outputs;
    // Only a run that checkpoints has outputs to split at its barrier.
    let collect_pre = collect && options.checkpoint_after_tuples.is_some();
    // The latency histogram lives in the registry when telemetry is on
    // (so snapshots and Prometheus scrapes see it live), standalone
    // otherwise; either way the sink never buffers raw samples.
    let hist = options.record_latency.then(|| match &ctx.telemetry {
        Some(t) => t.registry().histogram("sink_latency_nanos"),
        None => Arc::new(Histogram::new()),
    });
    let sink_tuples = ctx
        .telemetry
        .as_ref()
        .map(|t| t.registry().counter("sink_tuples_total"));
    let rec = ctx.recorder("sink");
    let now = || run.epoch.elapsed().as_nanos() as u64;
    let mut barrier_seq: u64 = 0;
    let mut report = SinkReport::default();
    let mut ends = 0;
    let mut barrier_from = vec![false; n];
    // Observable consequence of the per-channel ordering invariant (see
    // [`Msg`]): each sender's watermarks arrive non-decreasing. The
    // pre/post checkpoint split below relies on the same invariant.
    let mut last_wm = vec![MIN_TIMESTAMP; n];
    loop {
        let env = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) if !run.abort.load(Ordering::Relaxed) => continue,
            Err(_) => break,
        };
        match env.msg {
            Msg::Batch(batch, bt) => {
                // One arrival instant for the whole batch, but one
                // origin per tuple: latency samples reflect each
                // tuple's true departure.
                let arrived = if hist.is_some() { now() } else { 0 };
                if let (Some(rec), Some(bt)) = (&rec, bt) {
                    // The batch's trace ends here: one queue_wait for
                    // the final hop, one batch_done carrying the
                    // end-to-end total (tracer clock) and the worst
                    // per-tuple latency (run clock) so the analyzer can
                    // reconcile against the sink's LatencySummary.
                    let tnow = bt.queue_wait(rec, batch.len());
                    let arrive = now();
                    let e2e_max = batch
                        .iter()
                        .map(|(_, origin)| arrive.saturating_sub(origin))
                        .max()
                        .unwrap_or(0);
                    rec.instant(
                        "batch_done",
                        "sink",
                        Some(bt.ctx),
                        vec![
                            ("total", tnow.saturating_sub(bt.ctx.born) as i64),
                            ("e2e_max", e2e_max as i64),
                            ("tuples", batch.len() as i64),
                        ],
                    );
                }
                if let Some(tuples) = &sink_tuples {
                    tuples.add(batch.len() as u64);
                }
                for (tuple, origin) in batch.iter() {
                    report.output_count += 1;
                    // Batches flush before barriers, so "arrived before
                    // that sender's barrier" stays an exact pre/post
                    // checkpoint split under batching.
                    if !barrier_from[env.sender] {
                        report.salvage.pre_count += 1;
                        if collect_pre {
                            report.salvage.outputs_pre.push(tuple.to_tuple());
                        }
                    }
                    if let Some(hist) = &hist {
                        hist.record(arrived.saturating_sub(origin));
                    }
                    if collect {
                        report.outputs.push(tuple.to_tuple());
                    }
                }
            }
            Msg::Watermark { ts, .. } => {
                debug_assert!(
                    ts >= last_wm[env.sender],
                    "per-channel watermark order violated: {} < {}",
                    ts,
                    last_wm[env.sender]
                );
                last_wm[env.sender] = ts;
            }
            Msg::Barrier => {
                barrier_from[env.sender] = true;
                if barrier_from.iter().all(|&b| b) {
                    report.salvage.checkpoint_complete = true;
                    if let Some(rec) = &rec {
                        barrier_instant(rec, "barrier_commit", &mut barrier_seq);
                    }
                }
            }
            Msg::End => {
                ends += 1;
                if ends == n {
                    break;
                }
            }
        }
    }
    if let Some(hist) = &hist {
        report.latency = hist.snapshot();
    }
    report
}

/// The body of the `spe-telemetry` writer thread: snapshots the registry
/// every `interval` until `stop`, then writes one final snapshot so
/// short runs still leave a complete record.
fn write_telemetry_jsonl(
    t: &Telemetry,
    path: &std::path::Path,
    interval: Duration,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut seq = 0u64;
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        seq += 1;
        let uptime_ms = t.now_nanos() / 1_000_000;
        let samples = t.registry().snapshot();
        writeln!(
            out,
            "{}",
            telemetry::snapshot_json(seq, uptime_ms, &samples)
        )?;
        if stopping {
            break;
        }
        // Sleep in short slices so shutdown stays prompt even with long
        // snapshot intervals.
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::Relaxed) {
            let step = (interval - slept).min(Duration::from_millis(20));
            std::thread::sleep(step);
            slept += step;
        }
    }
    out.flush()
}

/// Per-worker directory inside a checkpoint — the one owner of that
/// layout (a rescale's migration reads and writes it too).
pub(crate) fn worker_ckpt_dir(root: &std::path::Path, stage_name: &str, worker: usize) -> PathBuf {
    root.join(stage_name).join(format!("p{worker}"))
}

/// Registry handles for one worker's self-accounting, labelled
/// `{operator=<stage>,partition=<worker>}`. Built once at worker start;
/// the hot loop then only touches `Arc`ed atomics.
struct WorkerProbe {
    /// Nanoseconds spent processing messages (operator + exchange work).
    busy_nanos: Arc<Counter>,
    /// Nanoseconds spent waiting on the input channel.
    idle_nanos: Arc<Counter>,
    /// Tuples received in data batches.
    tuples: Arc<Counter>,
    /// Input-queue depth sampled at every channel receive.
    queue_depth: Arc<Histogram>,
    /// Last event-time watermark applied (sentinel-free).
    watermark: Arc<Gauge>,
    /// `max event ts seen − watermark` at each advance, clamped to ≥ 0.
    watermark_lag: Arc<Gauge>,
    /// First-barrier-to-alignment time per checkpoint.
    barrier_align: Arc<Histogram>,
}

impl WorkerProbe {
    fn new(telemetry: &Telemetry, operator: &str, worker: usize) -> Self {
        let labels = format!("{{operator={operator},partition={worker}}}");
        let registry = telemetry.registry();
        WorkerProbe {
            busy_nanos: registry.counter(&format!("operator_busy_nanos{labels}")),
            idle_nanos: registry.counter(&format!("operator_idle_nanos{labels}")),
            tuples: registry.counter(&format!("operator_tuples_total{labels}")),
            queue_depth: registry.histogram(&format!("operator_queue_depth{labels}")),
            watermark: registry.gauge(&format!("operator_watermark{labels}")),
            watermark_lag: registry.gauge(&format!("operator_watermark_lag_ms{labels}")),
            barrier_align: registry.histogram(&format!("barrier_align_nanos{labels}")),
        }
    }
}

/// Aligned-barrier bookkeeping of one worker: once a sender's barrier
/// has arrived, that sender's later messages are held until every
/// sender's barrier has arrived, so the snapshot taken at alignment
/// holds exactly the pre-barrier input of every upstream.
struct BarrierAlign {
    /// Senders whose barrier of the in-flight alignment has arrived.
    arrived: Vec<bool>,
    /// Post-barrier messages, in arrival order.
    held: Vec<Envelope>,
}

impl BarrierAlign {
    fn new(upstreams: usize) -> Self {
        BarrierAlign {
            arrived: vec![false; upstreams],
            held: Vec::new(),
        }
    }

    /// Returns `env` when the worker should handle it now, or holds it
    /// behind its sender's barrier. `End` is never held: a sender that
    /// ended has nothing left to keep out of the snapshot.
    fn admit(&mut self, env: Envelope) -> Option<Envelope> {
        if self.arrived[env.sender] && !matches!(env.msg, Msg::End) {
            self.held.push(env);
            return None;
        }
        Some(env)
    }

    /// Records `sender`'s barrier. Once every sender's has arrived, the
    /// worker snapshots and forwards the barrier, and gets back what was
    /// held, in arrival order, to offer to [`admit`](Self::admit) like
    /// any other message (a released barrier opens the next alignment).
    fn on_barrier(&mut self, sender: usize) -> Option<Vec<Envelope>> {
        self.arrived[sender] = true;
        if !self.arrived.iter().all(|&b| b) {
            return None;
        }
        self.arrived.fill(false);
        Some(std::mem::take(&mut self.held))
    }
}

/// One keyed-stage worker between messages: its operator over its
/// partition's store, the outbox to the next keyed stage (or the sink),
/// and the event-time and barrier bookkeeping of its upstreams.
/// [`Worker::step`] takes one message; [`run_worker`] is the loop that
/// feeds it.
struct Worker<'a> {
    run: RunShared<'a>,
    /// Where an aligned barrier's snapshot goes, when the run checkpoints.
    snapshot_dir: Option<PathBuf>,
    operator: Box<dyn KeyedOperator>,
    outbox: Outbox,
    align: BarrierAlign,
    probe: Option<WorkerProbe>,
    /// This thread's span recorder, when the run is traced.
    rec: Option<Arc<SpanRecorder>>,
    publisher: Option<ViewPublisher>,
    io_on: bool,
    /// Each upstream's last watermark and that watermark's origin.
    wms: Vec<(Timestamp, u64)>,
    current_wm: Timestamp,
    /// Largest tuple timestamp seen (tracked when either the telemetry
    /// probe or the prefetcher needs stream time).
    max_event_ts: Timestamp,
    /// First-barrier arrival instant of the in-flight alignment.
    barrier_started: Option<Instant>,
    /// Open `barrier_align` span of the in-flight alignment, plus this
    /// worker's barrier sequence number — barriers are totally ordered
    /// per run, so the sequence stitches one checkpoint's spans together
    /// across workers without a protocol change.
    barrier_span: Option<ftrace::OpenSpan>,
    barrier_seq: u64,
    ends: usize,
    outputs: Vec<Tuple>,
    stamped: Vec<Stamped>,
}

impl<'a> Worker<'a> {
    /// Worker `worker` of keyed stage `stage_idx`, fed by `upstreams`
    /// senders and sending to `next`: its store created (and restored,
    /// when the run resumes from a checkpoint) and wrapped for tracing
    /// and serving as the run asks.
    fn new(
        run: RunShared<'a>,
        stage_idx: usize,
        worker: usize,
        upstreams: usize,
        next: Vec<Sender<Envelope>>,
    ) -> Result<Self, StoreError> {
        let (job, options, ctx) = (run.job, run.options, run.ctx);
        let stage = &job.stages[stage_idx];
        let name = stage.name();
        let semantics = stage.semantics().expect("a keyed stage");
        let telemetry = ctx.telemetry.as_ref();
        // The worker's one I/O pool, shared by every store it creates.
        let io = (options.io_threads > 0).then(|| {
            let (threads, seed) = (options.io_threads, options.io_shuffle_seed);
            Arc::new(IoRing::new(threads, seed, telemetry.cloned()))
        });
        let io_on = io.is_some();
        let rec = ctx.recorder(&format!("{name}/p{worker}"));
        let mut backend = run.factory.create(&OperatorContext {
            operator: name.to_string(),
            partition: worker,
            semantics,
            data_dir: options.data_dir.join(&job.name),
            telemetry: telemetry.cloned(),
            io,
        })?;
        // Store calls record through the thread-local context (see
        // `TracedBackend`), so this wrap is the only store-side hookup.
        if rec.is_some() {
            backend = ftrace::TracedBackend::wrap(backend);
        }
        // Queryable state, only when a registry is attached: an unserved
        // job runs the bare backend. The TTL comes from the stage's window
        // semantics (the serving layer surfaces it on state listings).
        let mut publisher = None;
        if let Some(registry) = &options.registry {
            let key = StateKey::new(job.name.clone(), name, worker);
            let ttl_ms = semantics.window.retention_hint_ms();
            let (captured, p) = ViewPublisher::attach(backend, registry, key, ttl_ms, telemetry);
            (backend, publisher) = (captured, Some(p));
        }
        let mut operator = stage.operator(backend).expect("a keyed stage");
        if let Some(src) = &options.restore_from {
            operator.restore(&worker_ckpt_dir(src, name, worker))?;
        }
        operator.set_collect_late(options.collect_late);
        let chain = Chain::leading(&job.stages[stage_idx + 1..]);
        Ok(Worker {
            run,
            snapshot_dir: (options.checkpoint_dir.as_ref())
                .map(|d| worker_ckpt_dir(d, name, worker)),
            operator,
            outbox: Outbox::new(ctx, options.batch_size, chain, next, name, worker, None),
            align: BarrierAlign::new(upstreams),
            probe: telemetry.map(|t| WorkerProbe::new(t, name, worker)),
            rec,
            publisher,
            io_on,
            wms: vec![(MIN_TIMESTAMP, 0); upstreams],
            current_wm: MIN_TIMESTAMP,
            max_event_ts: MIN_TIMESTAMP,
            barrier_started: None,
            barrier_span: None,
            barrier_seq: 0,
            ends: 0,
            outputs: Vec::new(),
            stamped: Vec::new(),
        })
    }

    /// Takes one message from upstream: holds it behind its sender's
    /// barrier while aligning, or hands it to the step for its kind.
    /// `Break` when the worker is done: its last upstream ended, or its
    /// downstream hung up.
    fn step(&mut self, env: Envelope) -> Result<ControlFlow<()>, StoreError> {
        let Some(env) = self.align.admit(env) else {
            return Ok(ControlFlow::Continue(()));
        };
        match env.msg {
            Msg::Batch(batch, bt) => self.on_batch(batch, bt),
            Msg::Watermark { ts, origin } => self.on_watermark(env.sender, ts, origin),
            Msg::Barrier => self.on_barrier(env.sender),
            Msg::End => self.on_end(),
        }
    }

    /// Runs one micro-batch through the operator and sends what it
    /// emits, each output with the origin of the input that made it.
    fn on_batch(
        &mut self,
        mut batch: TupleBatch,
        bt: Option<BatchTrace>,
    ) -> Result<ControlFlow<()>, StoreError> {
        if let Some(p) = &self.probe {
            p.tuples.add(batch.len() as u64);
        }
        // The store moves past a held-back watermark.
        if let Some(p) = self.publisher.as_mut() {
            p.pending = None;
        }
        // Stream time feeds both the watermark-lag probe and the
        // prefetch horizon.
        if self.probe.is_some() || self.io_on {
            for (tuple, _) in batch.iter() {
                self.max_event_ts = self.max_event_ts.max(tuple.timestamp);
            }
        }
        // Sampled batch: record the channel residency, then make its
        // context active for the duration of the batch — store calls,
        // prefetch advances, ring submissions, and downstream sends all
        // attach to it through the thread-local.
        let trace_scope = self.rec.as_ref().zip(bt).map(|(rec, bt)| {
            bt.queue_wait(rec, batch.len());
            ftrace::enter(rec, bt.ctx)
        });
        let batch_span = ftrace::begin_here("on_batch", "compute");
        self.stamped.clear();
        self.operator.on_batch(&mut batch, &mut self.stamped)?;
        // Batch boundary: drain finished background reads and schedule
        // the next horizon of prefetches. Runs inside the compute span so
        // the nested store/prefetch subtraction in the attribution sees
        // every child it subtracts.
        if self.io_on {
            self.operator
                .backend_mut()
                .advance_prefetch(self.max_event_ts)?;
        }
        ftrace::end_here(batch_span, &[("out", self.stamped.len() as i64)]);
        for stamped in self.stamped.drain(..) {
            if !self.outbox.send(stamped.tuple.borrowed(), stamped.origin) {
                return Ok(ControlFlow::Break(()));
            }
        }
        // Windowed stages often emit nothing per batch — the outputs
        // surface later, on a watermark fire — so the ingest trace
        // completes here rather than at the sink. A later sink-side
        // `batch_done` (per-tuple outputs, e.g. a join) simply extends the
        // same trace; attribution takes the latest completion.
        if let (Some(rec), Some(ctx)) = (&self.rec, ftrace::current()) {
            let total = vec![("total", rec.now_nanos().saturating_sub(ctx.born) as i64)];
            rec.instant("batch_done", "compute", Some(ctx), total);
        }
        drop(trace_scope);
        Ok(ControlFlow::Continue(()))
    }

    /// Records `sender`'s watermark. When the minimum across upstreams
    /// rises, fires the operator at it and forwards it; the outputs and
    /// the watermark carry the origin of the upstream holding the minimum.
    fn on_watermark(
        &mut self,
        sender: usize,
        ts: Timestamp,
        origin: u64,
    ) -> Result<ControlFlow<()>, StoreError> {
        self.wms[sender] = (ts, origin);
        let (min_wm, origin) = *self
            .wms
            .iter()
            .min_by_key(|(ts, _)| *ts)
            .expect("at least one upstream");
        if min_wm <= self.current_wm {
            return Ok(ControlFlow::Continue(()));
        }
        self.current_wm = min_wm;
        // The MAX_TIMESTAMP end-of-stream sentinel would wreck the gauge
        // (and the lag), so it never lands in the registry.
        if let (Some(p), true) = (&self.probe, min_wm != MAX_TIMESTAMP) {
            p.watermark.set(min_wm);
            let lag = self.max_event_ts.saturating_sub(min_wm).max(0);
            p.watermark_lag.set(lag);
        }
        // A fire originates its own trace: window outputs inherit the
        // watermark's origin for latency accounting, so the trace is born
        // at the watermark's source departure (the run stamp converted
        // onto the tracer clock) — the sink's `batch_done` total then
        // measures the same interval the `LatencySummary` samples.
        let fire_scope = self.rec.as_ref().map(|rec| {
            let run_now = self.run.epoch.elapsed().as_nanos() as u64;
            let born = rec
                .now_nanos()
                .saturating_sub(run_now.saturating_sub(origin));
            let tracer = self.run.ctx.tracer.as_ref().expect("a traced run");
            let ctx = TraceCtx {
                trace: tracer.next_trace_id(),
                span: 0,
                born,
            };
            ftrace::enter(rec, ctx)
        });
        let wm_span = ftrace::begin_here("on_watermark", "compute");
        self.outputs.clear();
        self.operator.on_watermark(min_wm, &mut self.outputs)?;
        let fired = self.outputs.len();
        for out in self.outputs.drain(..) {
            if !self.outbox.send(out.borrowed(), origin) {
                return Ok(ControlFlow::Break(()));
            }
        }
        // Forwarding the watermark flushes every pending batch first,
        // preserving tuple-before-watermark order downstream.
        self.outbox
            .broadcast(|| Msg::Watermark { ts: min_wm, origin });
        if let Some(p) = self.publisher.as_mut() {
            p.advance(self.operator.backend_mut(), min_wm, false)?;
        }
        // Watermark boundary: window fires just consumed prefetched
        // state — top the buffers back up.
        if self.io_on {
            self.operator
                .backend_mut()
                .advance_prefetch(self.max_event_ts)?;
        }
        ftrace::end_here(wm_span, &[("fired", fired as i64)]);
        drop(fire_scope);
        Ok(ControlFlow::Continue(()))
    }

    /// The input has been quiet for a receive timeout: publishes the
    /// watermark the period held back, if the store is still where it
    /// left it, so a paused stream's readers need not wait for its next
    /// watermark.
    fn on_idle(&mut self) -> Result<(), StoreError> {
        let Some(p) = self.publisher.as_mut() else {
            return Ok(());
        };
        match p.pending {
            Some(wm) => p.publish(self.operator.backend_mut(), wm, Instant::now()),
            None => Ok(()),
        }
    }

    /// Records `sender`'s barrier. Once every upstream's has arrived,
    /// snapshots the operator (when the run checkpoints), forwards the
    /// barrier behind every pending batch, keeping the pre/post-snapshot
    /// split exact downstream, and steps through what alignment held.
    fn on_barrier(&mut self, sender: usize) -> Result<ControlFlow<()>, StoreError> {
        if self.probe.is_some() && self.barrier_started.is_none() {
            self.barrier_started = Some(Instant::now());
        }
        if let (Some(rec), None) = (&self.rec, &self.barrier_span) {
            self.barrier_seq += 1;
            let seq = ("barrier", self.barrier_seq as i64);
            self.barrier_span = Some(rec.begin_with("barrier_align", "barrier", None, vec![seq]));
        }
        let Some(released) = self.align.on_barrier(sender) else {
            return Ok(ControlFlow::Continue(()));
        };
        if let (Some(p), Some(t0)) = (&self.probe, self.barrier_started.take()) {
            p.barrier_align.record(t0.elapsed().as_nanos() as u64);
        }
        // Alignment done; the snapshot gets its own span so align wait
        // and store snapshot time stay separable in the export.
        if let (Some(rec), Some(span)) = (&self.rec, self.barrier_span.take()) {
            rec.end(span, "barrier_align", "barrier");
        }
        if let Some(dir) = &self.snapshot_dir {
            let seq = ("barrier", self.barrier_seq as i64);
            let span = (self.rec.as_ref())
                .map(|rec| rec.begin_with("store_snapshot", "barrier", None, vec![seq]));
            self.operator.checkpoint(dir)?;
            if let (Some(rec), Some(span)) = (&self.rec, span) {
                rec.end(span, "store_snapshot", "barrier");
            }
        }
        self.outbox.broadcast(|| Msg::Barrier);
        // A released barrier opens the next alignment, which holds its
        // sender's tail again. That alignment cannot complete inside this
        // replay, so the recursion is one level deep: the sender whose
        // barrier completed this one had nothing held.
        for env in released {
            if self.step(env)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Counts an upstream's end. The last one publishes the terminal
    /// view, so clients can still query the job's final state, and
    /// forwards `End` once.
    fn on_end(&mut self) -> Result<ControlFlow<()>, StoreError> {
        self.ends += 1;
        if self.ends < self.wms.len() {
            return Ok(ControlFlow::Continue(()));
        }
        if let Some(p) = self.publisher.as_mut() {
            p.advance(self.operator.backend_mut(), self.current_wm, true)?;
        }
        self.outbox.broadcast(|| Msg::End);
        Ok(ControlFlow::Break(()))
    }

    /// The operator's accounting, then its store closed — on the error
    /// path too.
    fn close(mut self) -> WorkerReport {
        let report = WorkerReport {
            dropped_late: self.operator.dropped_late(),
            late: self.operator.take_late(),
            metrics: self.operator.backend_mut().metrics().snapshot(),
        };
        let _ = self.operator.backend_mut().close();
        report
    }
}

/// The body of one keyed-stage worker thread: receives, and hands every
/// message to [`Worker::step`] until one says stop.
///
/// Busy/idle accounting runs on a single chained clock: each phase
/// boundary takes ONE `Instant::now()` that ends the previous span and
/// starts the next. Queue depth is sampled every 16th receive — it is a
/// distribution sample anyway, and `rx.len()` takes the channel lock.
fn run_worker(
    run: RunShared<'_>,
    stage_idx: usize,
    worker: usize,
    upstreams: usize,
    rx: Receiver<Envelope>,
    next: Vec<Sender<Envelope>>,
) -> Result<WorkerReport, StoreError> {
    let mut w = Worker::new(run, stage_idx, worker, upstreams, next)?;
    let mut clock = w.probe.as_ref().map(|_| Instant::now());
    let mut recv_count = 0u32;
    let result = loop {
        let received = rx.recv_timeout(Duration::from_millis(100));
        if let (Some(p), Some(last)) = (&w.probe, clock.as_mut()) {
            lap(last, &p.idle_nanos);
        }
        let env = match received {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) if !run.abort.load(Ordering::Relaxed) => {
                match w.on_idle() {
                    Ok(()) => continue,
                    Err(e) => break Err(e),
                }
            }
            Err(_) => break Ok(()),
        };
        if run.abort.load(Ordering::Relaxed) {
            break Ok(());
        }
        if let Some(p) = &w.probe {
            recv_count = recv_count.wrapping_add(1);
            if recv_count & 0xf == 0 {
                p.queue_depth.record(rx.len() as u64);
            }
        }
        // Busy time covers operator work plus downstream sends, and the
        // held messages a barrier's step replays.
        match w.step(env) {
            Ok(ControlFlow::Continue(())) => {}
            done => break done.map(drop),
        }
        if let (Some(p), Some(last)) = (&w.probe, clock.as_mut()) {
            lap(last, &p.busy_nanos);
        }
    };
    let report = w.close();
    result.map(|()| report)
}

/// Adds the time since `last` to `counter` and restarts `last` from now:
/// one clock reading ends a phase and starts the next.
fn lap(last: &mut Instant, counter: &Counter) {
    let now = Instant::now();
    counter.add((now - *last).as_nanos() as u64);
    *last = now;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{BackendChoice, FactoryOptions};
    use crate::functions::{CountAggregate, FnProcess};
    use crate::job::{AggregateSpec, JobBuilder};
    use crate::publish::PUBLISH_PERIOD;
    use crate::run::cpu_clock_seconds;
    use crate::window::WindowAssigner;
    use flowkv_common::registry::StateRegistry;
    use flowkv_common::scratch::ScratchDir;
    use std::sync::Arc as StdArc;

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

    fn count_job(parallelism: usize) -> Job {
        JobBuilder::new("count-job")
            .parallelism(parallelism)
            .window(
                "counts",
                WindowAssigner::Fixed { size: 1000 },
                AggregateSpec::Incremental(StdArc::new(CountAggregate)),
            )
            .build()
    }

    #[test]
    fn counts_are_exact_across_backends_and_parallelism() {
        for choice in BackendChoice::all_small_for_tests() {
            for parallelism in [1, 3] {
                let dir = ScratchDir::new("exec-count").unwrap();
                let mut opts = RunOptions::new(dir.path());
                opts.collect_outputs = true;
                opts.watermark_interval = 50;
                let result = run_job(
                    &count_job(parallelism),
                    tuples(5000, 10).into_iter(),
                    choice.build(FactoryOptions::new()),
                    &opts,
                )
                .unwrap_or_else(|e| panic!("{} p{parallelism}: {e}", choice.name()));
                assert_eq!(result.input_count, 5000);
                // 5 windows × 10 keys = 50 outputs of 100 each.
                assert_eq!(
                    result.output_count,
                    50,
                    "backend {} parallelism {parallelism}",
                    choice.name()
                );
                let total: u64 = result
                    .outputs
                    .iter()
                    .map(|t| crate::functions::decode_u64(&t.value))
                    .sum();
                assert_eq!(total, 5000);
            }
        }
    }

    #[test]
    fn stateless_stage_filters_and_feeds_window() {
        let dir = ScratchDir::new("exec-stateless").unwrap();
        let job = JobBuilder::new("filtered")
            .parallelism(2)
            .stateless("keep-even-keys", |t, out| {
                if t.key.ends_with(b"0") || t.key.ends_with(b"2") {
                    out(t.key, t.value, t.timestamp);
                }
            })
            .window(
                "counts",
                WindowAssigner::Fixed { size: 1000 },
                AggregateSpec::Incremental(StdArc::new(CountAggregate)),
            )
            .build();
        let mut opts = RunOptions::new(dir.path());
        opts.collect_outputs = true;
        let result = run_job(
            &job,
            tuples(1000, 4).into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        // Keys key-0 and key-2 survive: one window, 2 outputs of 250.
        assert_eq!(result.output_count, 2);
        for t in &result.outputs {
            assert_eq!(crate::functions::decode_u64(&t.value), 250);
        }
    }

    #[test]
    fn session_job_end_to_end() {
        let dir = ScratchDir::new("exec-session").unwrap();
        let job = JobBuilder::new("sessions")
            .parallelism(2)
            .window(
                "sessionize",
                WindowAssigner::Session { gap: 10 },
                AggregateSpec::FullList(StdArc::new(FnProcess::new(|_k, _w, vals| {
                    vec![(vals.len() as u64).to_le_bytes().to_vec()]
                }))),
            )
            .build();
        // Each key gets bursts of 5 tuples separated by 100ms gaps.
        let mut input = Vec::new();
        for burst in 0..20i64 {
            for j in 0..5i64 {
                for key in 0..4 {
                    input.push(Tuple::new(
                        format!("k{key}").into_bytes(),
                        1u64.to_le_bytes().to_vec(),
                        burst * 100 + j,
                    ));
                }
            }
        }
        let mut opts = RunOptions::new(dir.path());
        opts.collect_outputs = true;
        opts.watermark_interval = 10;
        let result = run_job(
            &job,
            input.into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        // 20 bursts × 4 keys = 80 sessions of 5 tuples each.
        assert_eq!(result.output_count, 80);
        assert!(result
            .outputs
            .iter()
            .all(|t| crate::functions::decode_u64(&t.value) == 5));
    }

    #[test]
    fn registry_receives_views_and_output_is_unchanged() {
        let registry = StateRegistry::new_shared();
        let mut counts = Vec::new();
        for observe in [false, true] {
            let dir = ScratchDir::new("exec-registry").unwrap();
            let mut opts = RunOptions::new(dir.path());
            opts.collect_outputs = true;
            opts.watermark_interval = 50;
            if observe {
                opts.registry = Some(Arc::clone(&registry));
            }
            let result = run_job(
                &count_job(2),
                tuples(5000, 10).into_iter(),
                BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
                &opts,
            )
            .unwrap();
            let mut outputs: Vec<(Vec<u8>, Vec<u8>)> = result
                .outputs
                .into_iter()
                .map(|t| (t.key, t.value))
                .collect();
            outputs.sort();
            counts.push(outputs);
        }
        // Serving never changes what the job computes.
        assert_eq!(counts[0], counts[1]);
        // Both workers left a terminal snapshot behind.
        let states = registry.list();
        assert_eq!(states.len(), 2);
        for s in &states {
            assert_eq!(s.key.job, "count-job");
            assert_eq!(s.key.operator, "counts");
            assert!(s.epoch > 0, "no snapshot was ever published");
            assert_eq!(s.watermark, MAX_TIMESTAMP);
        }
    }

    #[test]
    fn oom_backend_fails_the_job() {
        let dir = ScratchDir::new("exec-oom").unwrap();
        let job = JobBuilder::new("oom")
            .parallelism(1)
            .window(
                "big-state",
                WindowAssigner::Fixed { size: 1_000_000 },
                AggregateSpec::FullList(StdArc::new(FnProcess::new(|_k, _w, _v| Vec::new()))),
            )
            .build();
        let choice = BackendChoice::InMemory {
            budget_per_partition: 4 << 10,
        };
        let err = run_job(
            &job,
            tuples(10_000, 100).into_iter(),
            choice.build(FactoryOptions::new()),
            &RunOptions::new(dir.path()),
        )
        .unwrap_err();
        match err {
            JobError::Store(e) => assert!(e.is_out_of_memory(), "{e}"),
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn timeout_aborts_the_run() {
        let dir = ScratchDir::new("exec-timeout").unwrap();
        let job = count_job(1);
        let mut opts = RunOptions::new(dir.path());
        opts.timeout = Some(Duration::from_millis(50));
        opts.rate_limit = Some(10); // 10 tuples/sec: will never finish.
        let err = run_job(
            &job,
            tuples(10_000, 10).into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, JobError::Timeout), "{err}");

        // A healthy run does not wait on its watchdog: the fastest of a
        // few tiny timed runs ends well inside what used to be the
        // watchdog's 20 ms polling step.
        let fastest = (0..5)
            .map(|i| {
                let mut opts = RunOptions::new(dir.path().join(format!("healthy-{i}")));
                opts.timeout = Some(Duration::from_secs(60));
                run_job(
                    &job,
                    tuples(200, 10).into_iter(),
                    BackendChoice::all_small_for_tests()[0].build(FactoryOptions::new()),
                    &opts,
                )
                .unwrap()
                .elapsed
            })
            .min()
            .unwrap();
        assert!(
            fastest < Duration::from_millis(20),
            "timed run padded to {fastest:?}"
        );
    }

    #[test]
    fn batched_exchange_matches_unbatched_and_keeps_checkpoint_split_exact() {
        // A two-stage job (stateless fan-in feeding windows) so barrier
        // alignment across multiple upstreams is exercised, with a
        // mid-stream checkpoint. Every batch size must produce the same
        // outputs, the same pre/post-barrier split, and one latency
        // sample per output tuple.
        let job = JobBuilder::new("batched")
            .parallelism(3)
            .stateless("pass", |t, out| out(t.key, t.value, t.timestamp))
            .window(
                "counts",
                WindowAssigner::Fixed { size: 1000 },
                AggregateSpec::Incremental(StdArc::new(CountAggregate)),
            )
            .build();
        type Pairs = Vec<(Vec<u8>, Vec<u8>)>;
        let mut reference: Option<(Pairs, Pairs)> = None;
        for batch_size in [1usize, 8, 256] {
            let dir = ScratchDir::new("exec-batched").unwrap();
            let ckpt = ScratchDir::new("exec-batched-ckpt").unwrap();
            let mut opts = RunOptions::new(dir.path());
            opts.collect_outputs = true;
            opts.record_latency = true;
            opts.watermark_interval = 50;
            opts.batch_size = batch_size;
            opts.checkpoint_after_tuples = Some(2_500);
            opts.checkpoint_dir = Some(ckpt.path().to_path_buf());
            let result = run_job(
                &job,
                tuples(5_000, 10).into_iter(),
                BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
                &opts,
            )
            .unwrap_or_else(|e| panic!("batch_size {batch_size}: {e}"));
            assert!(result.checkpoint_taken, "batch_size {batch_size}");
            assert_eq!(
                result.latency().count,
                result.output_count,
                "one latency sample per tuple, not per batch (batch_size {batch_size})"
            );
            let sorted = |v: &[Tuple]| {
                let mut v: Pairs = v.iter().map(|t| (t.key.clone(), t.value.clone())).collect();
                v.sort();
                v
            };
            let got = (
                sorted(&result.outputs),
                sorted(&result.outputs_pre_checkpoint),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "batch_size {batch_size} diverged"),
            }
        }
    }

    #[test]
    fn a_collecting_run_without_a_checkpoint_keeps_no_pre_checkpoint_copy() {
        let job = count_job(2);
        let run = |checkpoint: bool| {
            let dir = ScratchDir::new("exec-no-split").unwrap();
            let ckpt = ScratchDir::new("exec-no-split-ckpt").unwrap();
            let mut opts = RunOptions::new(dir.path());
            opts.collect_outputs = true;
            opts.watermark_interval = 50;
            if checkpoint {
                opts.checkpoint_after_tuples = Some(2_500);
                opts.checkpoint_dir = Some(ckpt.path().to_path_buf());
            }
            let backend = BackendChoice::all_small_for_tests()[0].build(FactoryOptions::new());
            let result = run_job(&job, tuples(5_000, 10).into_iter(), backend, &opts).unwrap();
            let mut outputs: Vec<_> = (result.outputs.iter())
                .map(|t| (t.key.clone(), t.value.clone(), t.timestamp))
                .collect();
            outputs.sort();
            (outputs, result.outputs_pre_checkpoint.len())
        };
        let (split, pre) = run(true);
        assert!(pre > 0, "the checkpointed run split nothing off");
        assert_eq!(run(false), (split, 0));
    }

    fn env(sender: usize, msg: Msg) -> Envelope {
        Envelope { sender, msg }
    }

    fn wm(sender: usize, ts: Timestamp) -> Envelope {
        env(sender, Msg::Watermark { ts, origin: 0 })
    }

    /// `(sender, watermark ts)` of a message the aligner let through.
    fn passed(env: Option<Envelope>) -> Option<(usize, Timestamp)> {
        env.map(|e| match e.msg {
            Msg::Watermark { ts, .. } => (e.sender, ts),
            _ => panic!("not a watermark"),
        })
    }

    #[test]
    fn barrier_align_holds_a_senders_post_barrier_messages_until_all_arrived() {
        let mut align = BarrierAlign::new(3);
        assert_eq!(passed(align.admit(wm(0, 1))), Some((0, 1)));
        assert!(align.on_barrier(0).is_none());
        // Sender 0 is past its barrier: held. Senders 1 and 2 are not.
        assert!(align.admit(wm(0, 2)).is_none());
        assert_eq!(passed(align.admit(wm(1, 3))), Some((1, 3)));
        assert!(align.on_barrier(1).is_none());
        assert!(align.admit(wm(1, 4)).is_none());
        assert!(align
            .admit(env(0, Msg::Batch(TupleBatch::default(), None)))
            .is_none());
        let mut released = align.on_barrier(2).expect("aligned").into_iter();
        // Released in arrival order, across senders.
        assert_eq!(passed(released.next()), Some((0, 2)));
        assert_eq!(passed(released.next()), Some((1, 4)));
        assert!(matches!(
            released.next(),
            Some(Envelope {
                sender: 0,
                msg: Msg::Batch(..)
            })
        ));
        assert!(released.next().is_none());
        // Aligned: nobody is held any more.
        assert_eq!(passed(align.admit(wm(0, 5))), Some((0, 5)));
    }

    #[test]
    fn barrier_align_lets_end_pass_while_aligning() {
        let mut align = BarrierAlign::new(2);
        assert!(align.on_barrier(0).is_none());
        assert!(matches!(
            align.admit(env(0, Msg::End)),
            Some(Envelope {
                sender: 0,
                msg: Msg::End
            })
        ));
        assert!(align.on_barrier(1).expect("aligned").is_empty());
    }

    #[test]
    fn barrier_align_second_barrier_starts_a_fresh_alignment() {
        let mut align = BarrierAlign::new(2);
        assert!(align.on_barrier(0).is_none());
        // Sender 0 races ahead: its second barrier and what follows are
        // held behind the first alignment.
        assert!(align.admit(env(0, Msg::Barrier)).is_none());
        assert!(align.admit(wm(0, 7)).is_none());
        let mut released = align.on_barrier(1).expect("aligned").into_iter();
        // The released barrier goes through the worker like a received
        // one and re-opens alignment: sender 0's tail is held again.
        let barrier = released.next().and_then(|e| align.admit(e));
        assert!(matches!(
            barrier,
            Some(Envelope {
                sender: 0,
                msg: Msg::Barrier
            })
        ));
        assert!(align.on_barrier(0).is_none());
        let tail = released.next().expect("watermark 7 was released");
        assert!(align.admit(tail).is_none());
        assert_eq!(passed(align.admit(wm(1, 8))), Some((1, 8)));
        let mut released = align.on_barrier(1).expect("aligned").into_iter();
        assert_eq!(passed(released.next()), Some((0, 7)));
    }

    /// Runs `body` over worker 0 of `job`'s first keyed stage, fed by
    /// `upstreams` senders and sending into the receiver it is handed —
    /// steps called directly, no thread involved.
    fn with_worker(
        job: &Job,
        opts: &RunOptions,
        choice: BackendChoice,
        upstreams: usize,
        body: impl FnOnce(&mut Worker<'_>, &Receiver<Envelope>),
    ) {
        let ctx = RunCtx::resolve(opts);
        let factory = choice.build(FactoryOptions::new());
        let abort = AtomicBool::new(false);
        let run = RunShared {
            job,
            options: opts,
            ctx: &ctx,
            factory: &*factory,
            abort: &abort,
            epoch: Instant::now(),
        };
        let (tx, rx) = bounded(64);
        let mut worker = Worker::new(run, 0, 0, upstreams, vec![tx]).unwrap();
        body(&mut worker, &rx);
        worker.close();
    }

    fn in_memory() -> BackendChoice {
        BackendChoice::all_small_for_tests().remove(0)
    }

    /// A batch of `(key, timestamp, origin)` rows, each value a count of 1.
    fn batch(rows: &[(&str, Timestamp, u64)]) -> Msg {
        let mut batch = TupleBatch::with_capacity(rows.len(), 0);
        for &(key, ts, origin) in rows {
            batch.push(key.as_bytes(), &1u64.to_le_bytes(), ts, origin);
        }
        Msg::Batch(batch, None)
    }

    /// What a worker has sent so far, one line per message: a batch's
    /// rows as `key@origin`, a watermark as `ts@origin`.
    fn sent(rx: &Receiver<Envelope>) -> Vec<String> {
        std::iter::from_fn(|| rx.try_recv().ok())
            .map(|env| match env.msg {
                Msg::Batch(batch, _) => batch
                    .iter()
                    .map(|(t, origin)| format!(" {}@{origin}", String::from_utf8_lossy(t.key)))
                    .fold("batch".to_string(), |line, row| line + &row),
                Msg::Watermark { ts, origin } => format!("wm {ts}@{origin}"),
                Msg::Barrier => "barrier".to_string(),
                Msg::End => "end".to_string(),
            })
            .collect()
    }

    /// Every tuple completes its own count window, so every input row
    /// yields one output row.
    fn per_element_job() -> Job {
        JobBuilder::new("per-element")
            .window(
                "counts",
                WindowAssigner::Count { size: 1 },
                AggregateSpec::Incremental(StdArc::new(CountAggregate)),
            )
            .build()
    }

    #[test]
    fn a_worker_forwards_a_watermark_only_when_the_minimum_rises_with_that_upstreams_origin() {
        let dir = ScratchDir::new("worker-wm").unwrap();
        let opts = RunOptions::new(dir.path());
        with_worker(&count_job(1), &opts, in_memory(), 2, |w, rx| {
            let mut step = |sender, ts, origin| {
                let flow = w.step(env(sender, Msg::Watermark { ts, origin }));
                assert!(flow.unwrap().is_continue());
                sent(rx)
            };
            // Upstream 1 has not spoken: the minimum is still unset.
            assert!(step(0, 10, 100).is_empty());
            assert_eq!(step(1, 5, 200), ["wm 5@200"]);
            // Upstream 1 moves past upstream 0, whose watermark and
            // origin become the minimum.
            assert_eq!(step(1, 20, 300), ["wm 10@100"]);
            assert_eq!(step(0, 15, 400), ["wm 15@400"]);
            assert!(step(0, 15, 500).is_empty());
        });
    }

    #[test]
    fn a_worker_sends_a_batchs_outputs_with_each_inputs_own_origin() {
        let dir = ScratchDir::new("worker-batch").unwrap();
        let opts = RunOptions::new(dir.path());
        with_worker(&per_element_job(), &opts, in_memory(), 1, |w, rx| {
            let rows = [("a", 1, 7), ("b", 2, 8), ("a", 3, 9)];
            assert!(w.step(env(0, batch(&rows))).unwrap().is_continue());
            // Outputs wait in the outbox until a control message flushes
            // them; the only upstream's end is one.
            assert!(sent(rx).is_empty());
            assert!(w.step(env(0, Msg::End)).unwrap().is_break());
            assert_eq!(sent(rx), ["batch a@7 b@8 a@9", "end"]);
        });
    }

    #[test]
    fn an_aligned_barrier_snapshots_once_then_forwards_behind_the_pending_batches() {
        let dir = ScratchDir::new("worker-barrier").unwrap();
        let ckpt = ScratchDir::new("worker-barrier-ckpt").unwrap();
        let mut opts = RunOptions::new(dir.path());
        opts.checkpoint_dir = Some(ckpt.path().to_path_buf());
        let snapshot = worker_ckpt_dir(ckpt.path(), "counts", 0);
        with_worker(&per_element_job(), &opts, in_memory(), 2, |w, rx| {
            assert!(w.step(env(0, batch(&[("a", 1, 7)]))).unwrap().is_continue());
            assert!(w.step(env(0, Msg::Barrier)).unwrap().is_continue());
            assert!(sent(rx).is_empty());
            assert!(!snapshot.exists(), "snapshot before alignment");
            assert!(w.step(env(1, Msg::Barrier)).unwrap().is_continue());
            assert!(snapshot.join("OPSTATE").exists());
            assert_eq!(sent(rx), ["batch a@7", "barrier"]);
            // The alignment is spent: the next barrier opens a new one.
            std::fs::remove_dir_all(&snapshot).unwrap();
            assert!(w.step(env(0, Msg::Barrier)).unwrap().is_continue());
            assert!(!snapshot.exists());
            assert!(sent(rx).is_empty());
        });
    }

    #[test]
    fn the_last_upstreams_end_publishes_the_terminal_view_and_forwards_end_once() {
        let dir = ScratchDir::new("worker-end").unwrap();
        let registry = StateRegistry::new_shared();
        let mut opts = RunOptions::new(dir.path());
        opts.registry = Some(Arc::clone(&registry));
        // The in-memory store is not queryable; FlowKV is.
        let flowkv = BackendChoice::all_small_for_tests().remove(1);
        with_worker(&count_job(1), &opts, flowkv, 2, |w, rx| {
            assert!(w.step(env(0, batch(&[("a", 1, 7)]))).unwrap().is_continue());
            assert!(w.step(env(0, Msg::End)).unwrap().is_continue());
            assert!(registry.list().is_empty());
            assert!(sent(rx).is_empty());
            assert!(w.step(env(1, Msg::End)).unwrap().is_break());
            let states = registry.list();
            assert_eq!(states.len(), 1);
            assert_eq!((states[0].epoch, states[0].watermark), (1, MIN_TIMESTAMP));
            assert_eq!(sent(rx), ["end"]);
        });
    }

    #[test]
    fn a_held_back_watermark_is_published_at_the_next_due_advance_or_when_idle() {
        let dir = ScratchDir::new("worker-paced").unwrap();
        let registry = StateRegistry::new_shared();
        let mut opts = RunOptions::new(dir.path());
        opts.registry = Some(Arc::clone(&registry));
        let flowkv = BackendChoice::all_small_for_tests().remove(1);
        // One fixed window that no watermark here closes: a view's
        // entries are the keys it has seen.
        with_worker(&count_job(1), &opts, flowkv, 1, |w, _| {
            let view = || {
                let states = registry.list();
                states.first().map(|s| (s.epoch, s.watermark, s.entries))
            };
            let step = |w: &mut Worker<'_>, msg| {
                assert!(w.step(env(0, msg)).unwrap().is_continue());
                view()
            };
            let wm = |ts| Msg::Watermark { ts, origin: 0 };
            assert_eq!(step(w, batch(&[("a", 1, 0)])), None);
            assert_eq!(step(w, wm(10)), Some((1, 10, 1)), "the first view");
            // The last publish is made recent for as long as the test runs.
            let hold = |w: &mut Worker<'_>| {
                let p = w.publisher.as_mut().unwrap();
                p.last = Some((Instant::now() + Duration::from_secs(3600), 10));
            };
            hold(w);
            assert_eq!(step(w, batch(&[("b", 11, 0)])), Some((1, 10, 1)));
            assert_eq!(step(w, wm(20)), Some((1, 10, 1)), "held back");
            assert_eq!(step(w, batch(&[("c", 21, 0)])), Some((1, 10, 1)));
            assert_eq!(step(w, wm(30)), Some((1, 10, 1)), "held back");
            // Idle while the store is as watermark 30 left it: published.
            w.on_idle().unwrap();
            assert_eq!(view(), Some((2, 30, 3)));
            hold(w);
            assert_eq!(step(w, wm(40)), Some((2, 30, 3)));
            // A batch after the held-back watermark: idling publishes
            // nothing, the next due watermark does.
            assert_eq!(step(w, batch(&[("d", 41, 0)])), Some((2, 30, 3)));
            w.on_idle().unwrap();
            assert_eq!(view(), Some((2, 30, 3)));
            w.publisher.as_mut().unwrap().last = Some((Instant::now() - PUBLISH_PERIOD, 40));
            assert_eq!(step(w, wm(50)), Some((3, 50, 4)));
            assert!(w.step(env(0, Msg::End)).unwrap().is_break());
            assert_eq!(view(), Some((4, 50, 4)), "the end publishes");
        });
    }

    /// A whole job on one thread: the source's items become one
    /// sender's message list (batches of up to 16 tuples, the watermarks,
    /// the closing watermark and the end), a worker steps through it, and
    /// what it sends is what `run_job` outputs for the same job and input.
    #[test]
    fn stepping_a_worker_through_a_message_list_reproduces_run_job() {
        let dir = ScratchDir::new("worker-steps").unwrap();
        let mut opts = RunOptions::new(dir.path().join("threads"));
        opts.collect_outputs = true;
        opts.watermark_interval = 50;
        let job = count_job(1);
        let flowkv = || BackendChoice::all_small_for_tests().remove(1);
        let input = || tuples(5_000, 10).into_iter();
        let factory = flowkv().build(FactoryOptions::new());
        let key = |t: &Tuple| (t.key.clone(), t.value.clone(), t.timestamp);
        let mut want: Vec<_> = run_job(&job, input(), factory, &opts).unwrap().outputs;
        want.sort_by_key(key);

        let mut msgs = Vec::new();
        for item in Schedule::new(input(), &opts) {
            match item {
                SourceItem::Tuple(t) => {
                    if !matches!(msgs.last(), Some(Msg::Batch(b, _)) if b.len() < 16) {
                        msgs.push(Msg::Batch(TupleBatch::default(), None));
                    }
                    let Some(Msg::Batch(b, _)) = msgs.last_mut() else {
                        unreachable!()
                    };
                    b.push(&t.key, &t.value, t.timestamp, 0);
                }
                SourceItem::Watermark(ts) => msgs.push(Msg::Watermark { ts, origin: 0 }),
                SourceItem::Barrier | SourceItem::Halt => unreachable!("none scheduled"),
            }
        }
        msgs.push(Msg::Watermark {
            ts: MAX_TIMESTAMP,
            origin: 0,
        });
        msgs.push(Msg::End);
        let last = msgs.len() - 1;
        opts.data_dir = dir.path().join("steps");
        let mut got = Vec::new();
        with_worker(&job, &opts, flowkv(), 1, |w, rx| {
            for (i, msg) in msgs.into_iter().enumerate() {
                let flow = w.step(env(0, msg)).unwrap();
                assert_eq!(flow.is_break(), i == last, "message {i}");
                for env in std::iter::from_fn(|| rx.try_recv().ok()) {
                    if let Msg::Batch(batch, _) = env.msg {
                        got.extend(batch.iter().map(|(t, _)| t.to_tuple()));
                    }
                }
            }
        });
        got.sort_by_key(key);
        assert_eq!(want.len(), 50);
        assert_eq!(got, want);
    }

    #[test]
    fn an_unpaced_source_seals_only_full_batches_between_control_messages() {
        // The consumer stalls 20 ms before each of its first receives on
        // a one-slot channel, so the source sits blocked for four times
        // the linger. Where its batches end must still be a function of
        // the input alone: every batch is full unless a watermark, the
        // barrier or the end of the stream forced it out.
        const BATCH: usize = 8;
        let dir = ScratchDir::new("exec-linger").unwrap();
        let job = count_job(1);
        let mut opts = RunOptions::new(dir.path());
        opts.batch_size = BATCH;
        opts.watermark_interval = 100;
        opts.checkpoint_after_tuples = Some(150);
        let ctx = RunCtx::resolve(&opts);
        let factory = BackendChoice::all_small_for_tests()[0].build(FactoryOptions::new());
        let abort = AtomicBool::new(false);
        let run = RunShared {
            job: &job,
            options: &opts,
            ctx: &ctx,
            factory: &*factory,
            abort: &abort,
            epoch: Instant::now(),
        };
        let items = Schedule::new(tuples(330, 5).into_iter(), &opts);
        let (tx, rx) = bounded::<Envelope>(1);
        // `Some(len)` for a batch, `None` for a control message.
        let seen: Vec<Option<usize>> = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let mut seen = Vec::new();
                while let Ok(env) = rx.recv() {
                    if seen.len() < 6 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    seen.push(match env.msg {
                        Msg::Batch(batch, _) => Some(batch.len()),
                        _ => None,
                    });
                }
                seen
            });
            assert_eq!(run_source(run, items, vec![tx]), 330);
            consumer.join().expect("consumer thread")
        });
        assert_eq!(seen.iter().flatten().sum::<usize>(), 330);
        for pair in seen.windows(2) {
            if let [Some(len), Some(_)] = pair {
                assert_eq!(*len, BATCH, "a partial batch ahead of another: {seen:?}");
            }
        }
        // 100 tuples between watermarks leave a forced partial batch, so
        // batches that are never partial would not pass unnoticed.
        assert!(seen.contains(&Some(100 % BATCH)));
    }

    #[test]
    fn paced_latency_counts_the_time_a_stalled_consumer_held_the_source_back() {
        assert_a_stall_counts(0);
    }

    #[test]
    fn paced_latency_counts_a_stall_inside_a_source_burst() {
        // The 25th tuple is the 9th of the second 16-tuple burst: the
        // source blocks a couple of tuples later, mid-burst, under a
        // clock it read before the block.
        assert_a_stall_counts(24);
    }

    /// Every tuple is due within the first `NOMINAL` of the run, and the
    /// consumer stalls for `STALL` on the aggregate add of tuple
    /// `stall_at`: with one-slot channels the source blocks behind it,
    /// so every window that fires afterwards left at least
    /// `STALL - NOMINAL` later than it was due. Stamping actual
    /// departure instead hides the stall entirely (latencies of a few
    /// milliseconds).
    fn assert_a_stall_counts(stall_at: u64) {
        use std::sync::atomic::AtomicU64;
        const STALL: Duration = Duration::from_millis(300);
        const NOMINAL: Duration = Duration::from_millis(20);
        struct StallOnce(AtomicU64, u64);
        impl crate::functions::AggregateFunction for StallOnce {
            fn create(&self) -> Vec<u8> {
                CountAggregate.create()
            }
            fn add(&self, acc: &mut Vec<u8>, value: &[u8]) {
                if self.0.fetch_add(1, Ordering::Relaxed) == self.1 {
                    std::thread::sleep(STALL);
                }
                CountAggregate.add(acc, value);
            }
            fn merge(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
                CountAggregate.merge(a, b)
            }
            fn result(&self, acc: &[u8]) -> Vec<u8> {
                CountAggregate.result(acc)
            }
        }
        let job = JobBuilder::new("stalled")
            .parallelism(1)
            .window(
                "counts",
                WindowAssigner::Fixed { size: 10 },
                AggregateSpec::Incremental(StdArc::new(StallOnce(AtomicU64::new(0), stall_at))),
            )
            .build();
        let dir = ScratchDir::new("exec-omission").unwrap();
        let mut opts = RunOptions::new(dir.path());
        opts.record_latency = true;
        opts.watermark_interval = 20;
        opts.batch_size = 1;
        opts.channel_capacity = 1;
        let n = 2_000u64;
        opts.rate_limit = Some(n * 1_000 / NOMINAL.as_millis() as u64);
        let result = run_job(
            &job,
            tuples(n, 5).into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        assert!(result.latency().count > 0);
        let floor = (STALL - NOMINAL).as_nanos() as u64;
        assert!(
            result.latency().p99 >= floor,
            "p99 {} ns hides a {STALL:?} stall",
            result.latency().p99
        );
    }

    #[test]
    fn latency_is_recorded_for_paced_runs() {
        let dir = ScratchDir::new("exec-latency").unwrap();
        let job = count_job(1);
        let mut opts = RunOptions::new(dir.path());
        opts.record_latency = true;
        opts.watermark_interval = 20;
        opts.rate_limit = Some(50_000);
        let result = run_job(
            &job,
            tuples(2_000, 5).into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        assert!(result.latency().count > 0);
        assert!(result.latency().p95 > 0);
        assert!(result.latency().p95 >= result.latency().p50);
    }

    #[test]
    fn a_rate_limit_of_zero_runs_unpaced() {
        // `count / 0` once saturated the 16th tuple's due time, and
        // adding it to the pacing start killed the source thread.
        let dir = ScratchDir::new("exec-rate-zero").unwrap();
        let job = count_job(1);
        let mut opts = RunOptions::new(dir.path());
        opts.rate_limit = Some(0);
        opts.timeout = Some(Duration::from_secs(60));
        let result = run_job(
            &job,
            tuples(2_000, 5).into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        assert_eq!(result.input_count, 2_000);
    }

    #[test]
    fn every_thread_reports_its_cpu_within_the_process_total() {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let dir = ScratchDir::new("exec-thread-cpu").unwrap();
        let job = count_job(2);
        let opts = RunOptions::new(dir.path());
        let process_before = cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
        let result = run_job(
            &job,
            tuples(20_000, 5).into_iter(),
            BackendChoice::all_small_for_tests()[1].build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        let process = cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID) - process_before;
        let cpu = &result.thread_cpu;
        assert_eq!(cpu.workers_s.len(), 2, "{cpu:?}");
        let shares = [cpu.source_s, cpu.sink_s]
            .into_iter()
            .chain(cpu.workers_s.iter().copied());
        for share in shares.clone() {
            assert!(share > 0.0, "{cpu:?}");
        }
        assert!(
            shares.sum::<f64>() <= process,
            "{cpu:?} over {process} s of process CPU"
        );
    }
}
