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

use std::collections::VecDeque;
use std::io::Write as _;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use flowkv_common::backend::{OperatorContext, StateBackend, StateBackendFactory};
use flowkv_common::error::StoreError;
use flowkv_common::hash::partition_of;
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::MetricsSnapshot;
use flowkv_common::registry::{capture, StateKey, StateRegistry};
use flowkv_common::telemetry::{self, Counter, Gauge, Histogram, HistogramSnapshot, Telemetry};
use flowkv_common::trace::{self as ftrace, SpanRecorder, TraceCtx, TraceHandle, Tracer};
use flowkv_common::types::{Timestamp, Tuple, TupleRef, MAX_TIMESTAMP, MIN_TIMESTAMP};

use crate::batch::TupleBatch;
use crate::job::{Chain, Job};
use crate::latency::{LatencySummary, Stamped};
use crate::operator::KeyedOperator;

/// Options controlling one job run.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::new`] and assign the fields that differ from the
/// defaults. Struct-literal construction is impossible outside this
/// crate, so new knobs can be added without a breaking change.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use flowkv_spe::executor::RunOptions;
///
/// let mut opts = RunOptions::new("/tmp/flowkv-doc");
/// opts.collect_outputs = true;
/// opts.watermark_interval = 50;
/// opts.max_restarts = 2;
/// opts.restart_backoff = Duration::from_millis(10);
/// assert_eq!(opts.max_restarts, 2);
/// ```
#[derive(Clone)]
#[non_exhaustive]
pub struct RunOptions {
    /// Directory for state-backend files.
    pub data_dir: PathBuf,
    /// Tuples between source watermarks.
    pub watermark_interval: usize,
    /// Out-of-orderness allowance subtracted from the max timestamp.
    pub watermark_slack: i64,
    /// Collect output tuples into [`JobResult::outputs`].
    pub collect_outputs: bool,
    /// Record per-output latencies.
    pub record_latency: bool,
    /// Cap the source rate (tuples per second of wall time).
    pub rate_limit: Option<u64>,
    /// Abort the run after this much wall time.
    pub timeout: Option<Duration>,
    /// Capacity of inter-stage channels.
    pub channel_capacity: usize,
    /// Emit an aligned checkpoint barrier after this many source tuples.
    pub checkpoint_after_tuples: Option<u64>,
    /// Directory receiving the aligned checkpoint (required when
    /// `checkpoint_after_tuples` is set).
    pub checkpoint_dir: Option<PathBuf>,
    /// Restore every window operator from this checkpoint before
    /// processing (the resume path after a failure).
    pub restore_from: Option<PathBuf>,
    /// Collect tuples dropped as late into [`JobResult::late_tuples`]
    /// (the late-data side output).
    pub collect_late: bool,
    /// Queryable-state registry. When set, every stateful worker
    /// publishes an immutable snapshot of its operator state after each
    /// watermark advance (and once more when its input ends), keyed by
    /// `job/operator/partition`. `None` (the default) leaves runs
    /// entirely unobserved — no snapshots are built.
    pub registry: Option<Arc<StateRegistry>>,
    /// Tuples per exchange micro-batch. Each inter-stage send carries up
    /// to this many tuples in one channel operation, amortizing per-tuple
    /// synchronization. Batches are force-flushed before every watermark,
    /// barrier, and end-of-stream marker, so event-time semantics and
    /// checkpoint alignment are identical at every batch size. The
    /// default is `256`; `1` reproduces the classic tuple-at-a-time
    /// exchange, which the query matrix's `batch_1` rows run.
    pub batch_size: usize,
    /// Shared telemetry hub. When set, every worker records per-operator
    /// busy/idle time, queue depth, backpressure-stall time, batch fill,
    /// watermark lag, and checkpoint-barrier alignment time into its
    /// registry, and the state stores record theirs (e.g. the
    /// `store_ett_*` predicted-vs-actual trigger times). `None` (the
    /// default) skips every probe — the hot path carries only untaken
    /// `if let None` branches.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Stream telemetry as JSONL to this file: one registry snapshot per
    /// line, periodically and once more at the end of the run (see
    /// `flowkv_common::telemetry::validate_jsonl_line` for the schema).
    /// A fresh hub is created when `telemetry` is unset.
    pub telemetry_out: Option<PathBuf>,
    /// Interval between JSONL snapshot lines.
    pub telemetry_interval: Duration,
    /// How many times [`crate::supervisor::run_supervised`] may restart
    /// a failed run before giving up and surfacing the error. `0` (the
    /// default) fails fast, matching plain [`run_job`].
    pub max_restarts: u32,
    /// Base delay between supervised restarts. Attempt `k` (1-based)
    /// waits `restart_backoff * 2^(k-1)`, scaled by a deterministic
    /// jitter factor derived from `FLOWKV_FAULT_SEED` (see
    /// [`crate::backoff`]).
    pub restart_backoff: Duration,
    /// When set, [`run_job`] checkpoints at the
    /// `checkpoint_after_tuples` barrier into `checkpoint_dir`,
    /// repartitions that checkpoint to this many workers, and runs the
    /// rest of the stream at that parallelism restored from it: live
    /// rescaling as recovery at another parallelism (see
    /// [`crate::rescale`]). The job's one keyed stage must be a window.
    /// [`crate::supervisor::run_supervised`] ignores this knob.
    pub rescale_to: Option<usize>,
    /// Background I/O threads per keyed worker. `0` (the default) keeps
    /// every store read synchronous on the worker thread; any positive
    /// value builds one [`flowkv_common::ioring::IoRing`] of that many
    /// threads for each keyed worker, which every store of the worker
    /// shares for anticipatable reads (ETT-driven prefetch, AAR window
    /// scans, cold-tier blocks, LSM block warm-ups, serving snapshots,
    /// compaction scans). Outputs are byte-identical either way.
    pub io_threads: usize,
    /// Test-only knob: reorder ring completions pseudo-randomly from this
    /// seed to prove ordering independence. `None` in production.
    pub io_shuffle_seed: Option<u64>,
    /// Shared span tracer (see `flowkv_common::trace`). Set by callers
    /// that read the trace after the run (the benchmark attributes its
    /// stages with `trace::attribution`). When unset but `trace_sample`
    /// or `trace_out` is set, the run creates a private tracer.
    pub trace: Option<Arc<flowkv_common::trace::Tracer>>,
    /// Causal-trace sampling: every `trace_sample`-th sealed source
    /// batch carries a trace context through exchange, operators,
    /// stores, and I/O ring jobs. `0` (the default) disables tracing
    /// entirely; `1` traces every batch. Ignored unless a tracer is
    /// resolved (explicitly via `trace`, or implicitly by `trace_out`).
    pub trace_sample: u64,
    /// Write the run's spans as Chrome trace-event JSON (Perfetto-
    /// loadable) to this file when the run ends. Implies `trace_sample
    /// = 1` when no sample rate was chosen.
    pub trace_out: Option<PathBuf>,
}

impl RunOptions {
    /// Defaults rooted at `data_dir`.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        RunOptions {
            data_dir: data_dir.into(),
            watermark_interval: 200,
            watermark_slack: 0,
            collect_outputs: false,
            record_latency: false,
            rate_limit: None,
            timeout: None,
            channel_capacity: 1024,
            checkpoint_after_tuples: None,
            checkpoint_dir: None,
            restore_from: None,
            collect_late: false,
            registry: None,
            batch_size: 256,
            telemetry: None,
            telemetry_out: None,
            telemetry_interval: Duration::from_millis(250),
            max_restarts: 0,
            restart_backoff: Duration::from_millis(50),
            rescale_to: None,
            io_threads: 0,
            io_shuffle_seed: None,
            trace: None,
            trace_sample: 0,
            trace_out: None,
        }
    }
}

/// Why a run failed.
#[derive(Debug)]
pub enum JobError {
    /// A state store failed (out of memory, I/O, corruption).
    Store(StoreError),
    /// The configured wall-clock timeout expired (the paper terminates
    /// Faster's append runs the same way, §2.2).
    Timeout,
    /// A worker thread panicked.
    Panic(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Store(e) => write!(f, "store failure: {e}"),
            JobError::Timeout => write!(f, "wall-clock timeout"),
            JobError::Panic(msg) => write!(f, "worker panic: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The outcome of a successful run.
#[derive(Debug, Default)]
pub struct JobResult {
    /// Output tuples (when `collect_outputs` was set).
    pub outputs: Vec<Tuple>,
    /// Number of output tuples.
    pub output_count: u64,
    /// Number of source tuples.
    pub input_count: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Merged store metrics across all window partitions.
    pub store_metrics: MetricsSnapshot,
    /// End-to-end latency distribution in nanoseconds (when
    /// `record_latency`), summarised by [`JobResult::latency`]. A
    /// mergeable log-linear histogram: the sink's memory stays
    /// O(buckets) no matter how many tuples flow.
    pub latency_histogram: HistogramSnapshot,
    /// Tuples dropped for arriving behind the watermark.
    pub dropped_late: u64,
    /// Whether the aligned checkpoint barrier completed at the sink.
    pub checkpoint_taken: bool,
    /// Tuples dropped as late (populated when `collect_late` was set).
    pub late_tuples: Vec<Tuple>,
    /// Outputs emitted before the checkpoint barrier (only populated
    /// when both `collect_outputs` and a checkpoint were requested).
    pub outputs_pre_checkpoint: Vec<Tuple>,
    /// How long a rescaled run paused the stream to migrate its state,
    /// from the old workers' halt to the new workers' start; `None`
    /// unless [`RunOptions::rescale_to`] was set.
    pub rescale_pause: Option<Duration>,
    /// CPU seconds each thread of the run used.
    pub thread_cpu: ThreadCpu,
}

/// CPU seconds the threads of a run used, each read once as its thread
/// ends (`CLOCK_THREAD_CPUTIME_ID`). Stateless stages run on the thread
/// that feeds them and count there; a worker's I/O ring threads, the
/// runner and the telemetry writer are not counted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadCpu {
    /// The source thread.
    pub source_s: f64,
    /// Each keyed worker, stage by stage, worker by worker (a rescaled
    /// run lists the first phase's workers, then the second's).
    pub workers_s: Vec<f64>,
    /// The sink thread.
    pub sink_s: f64,
}

impl ThreadCpu {
    /// The sum over every counted thread.
    pub fn total_s(&self) -> f64 {
        self.source_s + self.workers_s.iter().sum::<f64>() + self.sink_s
    }

    /// Adds the threads of a later phase of the same run.
    pub(crate) fn absorb(&mut self, later: ThreadCpu) {
        self.source_s += later.source_s;
        self.workers_s.extend(later.workers_s);
        self.sink_s += later.sink_s;
    }
}

/// CPU seconds the calling thread has used so far.
fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads one of Linux's CPU-time clocks, in seconds.
fn cpu_clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the call writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

impl JobResult {
    /// Summary of [`JobResult::latency_histogram`].
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.latency_histogram)
    }

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

/// One element of the source stream the runner consumes.
///
/// [`run_job`] and every supervised attempt derive the stream from a
/// tuple iterator with [`Schedule`]; a rescale splits one schedule
/// between its two phases at the barrier.
#[derive(Debug)]
pub(crate) enum SourceItem {
    /// A data tuple.
    Tuple(Tuple),
    /// A source watermark.
    Watermark(Timestamp),
    /// An aligned checkpoint barrier.
    Barrier,
    /// Ends the stream *without* the final `MAX_TIMESTAMP` watermark:
    /// open windows stay open in the operators' checkpointed state
    /// instead of firing. This is how a rescale ends its first phase —
    /// the un-fired windows migrate and fire at the new parallelism.
    Halt,
}

/// The source schedule: the one place that decides where a tuple stream
/// carries a watermark or a checkpoint barrier.
///
/// Every `interval` tuples a watermark follows, at the largest timestamp
/// seen so far minus `slack`. A barrier follows tuple number
/// `checkpoint_after`; when both fall on the same tuple the barrier
/// comes first, so the snapshot never holds the effect of firing the
/// watermark that shares its offset.
pub(crate) struct Schedule<I> {
    tuples: I,
    interval: u64,
    slack: i64,
    checkpoint_after: Option<u64>,
    count: u64,
    max_ts: Timestamp,
    barrier_due: bool,
    watermark_due: Option<Timestamp>,
}

impl<I: Iterator<Item = Tuple>> Schedule<I> {
    /// The schedule a single-stream run's options ask for.
    pub(crate) fn for_run(tuples: I, options: &RunOptions) -> Self {
        Schedule::new(
            tuples,
            options.watermark_interval,
            options.watermark_slack,
            options.checkpoint_after_tuples,
        )
    }

    pub(crate) fn new(
        tuples: I,
        interval: usize,
        slack: i64,
        checkpoint_after: Option<u64>,
    ) -> Self {
        Schedule {
            tuples,
            interval: interval.max(1) as u64,
            slack,
            checkpoint_after,
            count: 0,
            max_ts: MIN_TIMESTAMP,
            barrier_due: false,
            watermark_due: None,
        }
    }
}

impl<I: Iterator<Item = Tuple>> Iterator for Schedule<I> {
    type Item = SourceItem;

    fn next(&mut self) -> Option<SourceItem> {
        if std::mem::take(&mut self.barrier_due) {
            return Some(SourceItem::Barrier);
        }
        if let Some(wm) = self.watermark_due.take() {
            return Some(SourceItem::Watermark(wm));
        }
        let tuple = self.tuples.next()?;
        self.count += 1;
        self.max_ts = self.max_ts.max(tuple.timestamp);
        self.barrier_due = self.checkpoint_after == Some(self.count);
        if self.count.is_multiple_of(self.interval) {
            self.watermark_due = Some(self.max_ts.saturating_sub(self.slack));
        }
        Some(SourceItem::Tuple(tuple))
    }
}

/// One message on an inter-stage channel.
///
/// # Ordering invariant
///
/// Channels are FIFO per `(sender, channel)` pair, and every sender
/// flushes its pending micro-batches *before* emitting a control message
/// (watermark, barrier, end). Consequently a receiver observes, per
/// upstream: all tuples produced before a watermark ahead of that
/// watermark, and all pre-snapshot tuples ahead of that sender's
/// barrier. Checkpoint alignment and the sink's pre/post-barrier output
/// split both rely on this; the sink debug-asserts its observable
/// consequence (per-sender watermarks never regress).
enum Msg {
    /// A micro-batch of tuples, each carrying its own origin stamp and,
    /// when the batch was sampled for tracing, its causal context.
    Batch(TupleBatch, Option<BatchTrace>),
    Watermark {
        ts: Timestamp,
        origin: u64,
    },
    /// An aligned checkpoint barrier (Chandy–Lamport style, as in
    /// Flink's snapshotting; paper §8).
    Barrier,
    End,
}

struct Envelope {
    sender: usize,
    msg: Msg,
}

/// Trace context riding on a sampled [`Msg::Batch`], plus the tracer
/// nanos at which the sender sealed it — the receiver's `queue_wait`
/// instant is `now − sent_nanos` (one shared clock, so the difference
/// is a duration even though the stamps cross threads).
#[derive(Clone, Copy)]
struct BatchTrace {
    ctx: TraceCtx,
    sent_nanos: u64,
}

impl BatchTrace {
    /// Records the batch's `queue_wait` on the receiving thread's `rec`;
    /// returns the tracer instant it was received at.
    fn queue_wait(self, rec: &SpanRecorder, tuples: usize) -> u64 {
        let now = rec.now_nanos();
        let wait = now.saturating_sub(self.sent_nanos) as i64;
        let args = vec![("wait", wait), ("tuples", tuples as i64)];
        rec.instant("queue_wait", "queue", Some(self.ctx), args);
        now
    }
}

/// How an [`Exchange`] participates in tracing.
enum ExchangeTrace {
    /// The source exchange *originates* traces: every `sample`-th sealed
    /// batch gets a fresh trace id and a `source_batch` root instant.
    Source {
        tracer: Arc<Tracer>,
        recorder: Arc<SpanRecorder>,
        sample: u64,
        sealed: u64,
    },
    /// Worker exchanges *propagate* the thread's active context (set
    /// while the worker processes a sampled batch) onto the batches they
    /// seal, stamping a fresh `sent_nanos`.
    Inherit { tracer: Arc<Tracer> },
}

/// Registry handles for one exchange's backpressure accounting.
///
/// Only built when telemetry is enabled; the disabled path never takes a
/// clock reading on a send.
struct ExchangeProbe {
    /// Nanoseconds spent inside channel sends (time blocked on a full
    /// downstream queue dominates — the backpressure-stall signal).
    stall_nanos: Arc<Counter>,
    /// Tuples per sealed batch, recorded at flush time. Compare against
    /// the configured batch size for the fill ratio.
    batch_fill: Arc<Histogram>,
}

impl ExchangeProbe {
    fn new(telemetry: &Telemetry, operator: &str, partition: usize) -> Self {
        let labels = format!("{{operator={operator},partition={partition}}}");
        let registry = telemetry.registry();
        ExchangeProbe {
            stall_nanos: registry.counter(&format!("exchange_stall_nanos{labels}")),
            batch_fill: registry.histogram(&format!("exchange_batch_fill{labels}")),
        }
    }
}

/// A batching sender over one channel boundary: the stateless stages
/// between this sender and the next keyed stage (or the sink), and the
/// outbox their outputs land in.
struct Exchange {
    chain: Chain,
    outbox: Outbox,
}

impl Exchange {
    /// The exchange of stage `name`'s sender `sender` into `txs`, batching
    /// at the run's batch size and probed when the run has telemetry. In
    /// a traced run, the source's exchange originates traces on its
    /// recorder `origin`; a worker's (`None`) inherits them.
    fn new(
        run: RunShared<'_>,
        chain: Chain,
        txs: Vec<Sender<Envelope>>,
        name: &str,
        sender: usize,
        origin: Option<Arc<SpanRecorder>>,
    ) -> Self {
        let ctx = run.ctx;
        let batch_size = run.options.batch_size.max(1);
        let pending = (txs.iter())
            .map(|_| TupleBatch::with_capacity(batch_size, 0))
            .collect();
        let trace = ctx.tracer.clone().map(|tracer| match origin {
            Some(recorder) => ExchangeTrace::Source {
                tracer,
                recorder,
                sample: ctx.trace_sample,
                sealed: 0,
            },
            None => ExchangeTrace::Inherit { tracer },
        });
        let outbox = Outbox {
            txs,
            pending,
            batch_size,
            sender,
            probe: (ctx.telemetry.as_deref()).map(|t| ExchangeProbe::new(t, name, sender)),
            trace,
        };
        Exchange { chain, outbox }
    }

    /// Runs one lent tuple through the stateless chain and queues every
    /// tuple it becomes — each carrying the input's `origin` — for its
    /// key's partition. Returns `false` when the receiver hung up.
    fn send(&mut self, tuple: TupleRef<'_>, origin: u64) -> bool {
        let outbox = &mut self.outbox;
        let mut ok = true;
        self.chain.run(tuple, &mut |key, value, timestamp| {
            ok &= outbox.push(key, value, timestamp, origin);
        });
        ok
    }
}

/// Per-destination micro-batches, sealed at `batch_size` tuples. Control
/// messages go through [`Outbox::broadcast`], which force-flushes every
/// pending batch first so the [`Msg`] ordering invariant holds at any
/// batch size.
struct Outbox {
    txs: Vec<Sender<Envelope>>,
    pending: Vec<TupleBatch>,
    batch_size: usize,
    sender: usize,
    probe: Option<ExchangeProbe>,
    trace: Option<ExchangeTrace>,
}

impl Outbox {
    /// Decides the trace context for a batch being sealed now. A source
    /// batch it samples is entered until the returned scope drops, the
    /// way a worker enters the batch it handles, so the batch's send
    /// records through the active context on either thread.
    fn seal_trace(&mut self) -> (Option<BatchTrace>, Option<ftrace::ActiveScope>) {
        match &mut self.trace {
            None => (None, None),
            Some(ExchangeTrace::Source {
                tracer,
                recorder,
                sample,
                sealed,
            }) => {
                *sealed += 1;
                if *sample == 0 || !(*sealed).is_multiple_of(*sample) {
                    return (None, None);
                }
                let born = tracer.now_nanos();
                let ctx = TraceCtx {
                    trace: tracer.next_trace_id(),
                    span: 0,
                    born,
                };
                recorder.instant("source_batch", "source", Some(ctx), Vec::new());
                let bt = BatchTrace {
                    ctx,
                    sent_nanos: born,
                };
                (Some(bt), Some(ftrace::enter(recorder, ctx)))
            }
            Some(ExchangeTrace::Inherit { tracer }) => {
                let bt = ftrace::current().map(|ctx| BatchTrace {
                    ctx,
                    sent_nanos: tracer.now_nanos(),
                });
                (bt, None)
            }
        }
    }

    /// Copies one tuple into its key's pending batch, sending the batch
    /// once full. Returns `false` when the receiver hung up.
    fn push(&mut self, key: &[u8], value: &[u8], timestamp: Timestamp, origin: u64) -> bool {
        let dest = if self.txs.len() == 1 {
            0
        } else {
            partition_of(key, self.txs.len())
        };
        self.pending[dest].push(key, value, timestamp, origin);
        self.pending[dest].len() < self.batch_size || self.flush_dest(dest)
    }

    fn flush_dest(&mut self, dest: usize) -> bool {
        if self.pending[dest].is_empty() {
            return true;
        }
        // The next batch starts with the room this one grew to: a run of
        // like-sized tuples fills it without reallocating.
        let next = TupleBatch::with_capacity(self.batch_size, self.pending[dest].byte_capacity());
        let batch = std::mem::replace(&mut self.pending[dest], next);
        let (bt, _scope) = self.seal_trace();
        // An `exchange_send` span brackets the channel operation for
        // sampled batches; its duration is the send-side backpressure
        // share of the batch's latency.
        let send_span = ftrace::begin_here("exchange_send", "exchange");
        let rows = batch.len() as u64;
        let env = Envelope {
            sender: self.sender,
            msg: Msg::Batch(batch, bt),
        };
        let ok = match &self.probe {
            None => self.txs[dest].send(env).is_ok(),
            Some(probe) => {
                probe.batch_fill.record(rows);
                // Clock the send only when the channel is actually full:
                // the uncontended path stays timer-free, and the stall
                // counter measures pure backpressure wait.
                match self.txs[dest].try_send(env) {
                    Ok(()) => true,
                    Err(TrySendError::Disconnected(_)) => false,
                    Err(TrySendError::Full(env)) => {
                        let start = Instant::now();
                        let ok = self.txs[dest].send(env).is_ok();
                        probe.stall_nanos.add(start.elapsed().as_nanos() as u64);
                        ok
                    }
                }
            }
        };
        ftrace::end_here(send_span, &[]);
        ok
    }

    /// Flushes every pending batch.
    fn flush(&mut self) -> bool {
        let mut ok = true;
        for dest in 0..self.txs.len() {
            ok &= self.flush_dest(dest);
        }
        ok
    }

    /// `true` while some destination holds an unsent partial batch.
    fn has_pending(&self) -> bool {
        self.pending.iter().any(|p| !p.is_empty())
    }

    /// Flushes pending batches, then sends one control message to every
    /// destination (disconnects are ignored, as on the tuple path the
    /// caller already observed them).
    fn broadcast(&mut self, make: impl Fn() -> Msg) {
        self.flush();
        for tx in &self.txs {
            let _ = tx.send(Envelope {
                sender: self.sender,
                msg: make(),
            });
        }
    }
}

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
            t.set_trace(TraceHandle {
                tracer: Arc::clone(tracer),
                pid: 0,
            });
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
        self.tracer.as_ref().map(|tracer| tracer.thread(0, name))
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
    let items = Schedule::for_run(source, options);
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

/// Name of the file inside a checkpoint directory recording the source
/// offset (in tuples) at which the aligned barrier was injected.
pub(crate) const SOURCE_OFFSET_FILE: &str = "SOURCE_OFFSET";

/// Writes `offset` as the checkpoint in `dir`'s [`SOURCE_OFFSET_FILE`]:
/// a temporary file, fsynced, then renamed over the final name.
fn write_source_offset(dir: &Path, offset: u64) -> std::io::Result<()> {
    let tmp = dir.join(format!("{SOURCE_OFFSET_FILE}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(offset.to_string().as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, dir.join(SOURCE_OFFSET_FILE))
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
    let mut exchange = Exchange::new(run, chain, txs, "source", 0, recorder.clone());
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
                if !exchange.send(tuple.borrowed(), stamp(count, departure)) {
                    break;
                }
                count += 1;
                if let Some((tuples, _)) = &counters {
                    tuples.inc();
                }
                if !exchange.outbox.has_pending() {
                    last_flush = departure;
                } else if rate.is_some()
                    && departure.saturating_sub(last_flush) >= BATCH_LINGER_NANOS
                {
                    // Slow stream: don't sit on a partial batch forever.
                    exchange.outbox.flush();
                    last_flush = departure;
                }
            }
            SourceItem::Watermark(ts) => {
                let departure = now();
                let origin = stamp(count, departure);
                if let Some((_, watermark)) = &counters {
                    watermark.set(ts);
                }
                exchange.outbox.broadcast(|| Msg::Watermark { ts, origin });
                last_flush = departure;
            }
            SourceItem::Barrier => {
                if let Some(rec) = &recorder {
                    barrier_instant(rec, "barrier_inject", &mut barrier_seq);
                }
                exchange.outbox.broadcast(|| Msg::Barrier);
            }
            SourceItem::Halt => {
                halted = true;
                break;
            }
        }
    }
    if !halted {
        let origin = stamp(count, now());
        exchange.outbox.broadcast(|| Msg::Watermark {
            ts: MAX_TIMESTAMP,
            origin,
        });
    }
    exchange.outbox.broadcast(|| Msg::End);
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
                        if collect {
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

/// What publishing costs one worker, and how fresh its view is,
/// labelled like [`WorkerProbe`].
struct PublishProbe {
    /// Nanoseconds spent building and publishing views (merges and
    /// folds included; recording the changes, which happens inside the
    /// store calls, is not).
    nanos: Arc<Counter>,
    /// The newest published view's epoch, watermark and
    /// [`StateView::memory_bytes`](flowkv_common::registry::StateView::memory_bytes).
    epoch: Arc<Gauge>,
    watermark: Arc<Gauge>,
    view_bytes: Arc<Gauge>,
    /// Wall time from the newest publish to the worker's latest
    /// watermark advance, in microseconds.
    age_us: Arc<Gauge>,
    /// At each advance, how far in event time the worker's watermark
    /// is ahead of the newest published view's.
    staleness_ms: Arc<Histogram>,
}

impl PublishProbe {
    /// The probe, and the counter the capture adaptor adds the entries
    /// it materialises for publication to: each epoch's changed pairs,
    /// plus whatever a delta merge, a fold or a base rebuild rewrote.
    fn new(telemetry: &Telemetry, operator: &str, worker: usize) -> (Self, Arc<Counter>) {
        let labels = format!("{{operator={operator},partition={worker}}}");
        let registry = telemetry.registry();
        let entries = registry.counter(&format!("view_publish_entries_total{labels}"));
        let probe = PublishProbe {
            nanos: registry.counter(&format!("view_publish_nanos{labels}")),
            epoch: registry.gauge(&format!("view_epoch{labels}")),
            watermark: registry.gauge(&format!("view_watermark{labels}")),
            view_bytes: registry.gauge(&format!("view_memory_bytes{labels}")),
            age_us: registry.gauge(&format!("view_age_us{labels}")),
            staleness_ms: registry.histogram(&format!("view_staleness_ms{labels}")),
        };
        (probe, entries)
    }
}

/// The least wall time between two views a worker publishes at
/// watermarks. A watermark advance less than this after the worker's
/// last publish publishes nothing; the changes wait in the epoch log
/// and the next due advance publishes them all at once. Measured on
/// `q12-rmw-serve` (EXPERIMENTS.md, "Publication paced by period"):
/// at 1 ms the gain in ingest has reached its plateau. While
/// watermarks keep coming, a view is replaced within one period plus
/// one watermark interval of wall time.
pub const PUBLISH_PERIOD: Duration = Duration::from_millis(1);

/// Whether a worker publishes at an advance `now`: always at the end of
/// its stream and for its first view (`last` is `None`), otherwise once
/// [`PUBLISH_PERIOD`] has passed since the `last` publish.
fn publish_due(last: Option<Instant>, now: Instant, end: bool) -> bool {
    end || last.is_none_or(|last| now.saturating_duration_since(last) >= PUBLISH_PERIOD)
}

/// Publishes one worker's state into the queryable-state registry. The
/// worker is the sole writer of its store and publishes between tuples,
/// so a view never shows a half-applied update; it publishes at a
/// watermark advance at most once per [`PUBLISH_PERIOD`], and always at
/// the end of its stream.
struct ViewPublisher {
    registry: Arc<StateRegistry>,
    key: StateKey,
    /// Monotone snapshot counter.
    epoch: u64,
    /// When the last view was published, and the watermark it is
    /// aligned to.
    last: Option<(Instant, Timestamp)>,
    /// A watermark the period held back, while the store is still as
    /// that watermark left it.
    pending: Option<Timestamp>,
    ttl_ms: Option<u64>,
    probe: Option<PublishProbe>,
}

impl ViewPublisher {
    /// At a watermark advance (`end`: the stream's end), publishes the
    /// store's state as of now aligned to `watermark` if
    /// [`publish_due`] says so.
    fn advance(
        &mut self,
        backend: &mut dyn StateBackend,
        watermark: Timestamp,
        end: bool,
    ) -> Result<(), StoreError> {
        let now = Instant::now();
        if publish_due(self.last.map(|(at, _)| at), now, end) {
            self.publish(backend, watermark, now)?;
        } else {
            self.pending = Some(watermark);
        }
        if let (Some(probe), Some((at, published))) = (&self.probe, self.last) {
            probe
                .age_us
                .set(now.saturating_duration_since(at).as_micros() as i64);
            if watermark != MAX_TIMESTAMP {
                probe
                    .staleness_ms
                    .record(watermark.saturating_sub(published) as u64);
            }
        }
        Ok(())
    }

    /// Publishes the store's state as of `now`, aligned to `watermark`:
    /// the view the capture adaptor's `read_view` answers, the previous
    /// one plus what changed since (a store that is not queryable
    /// publishes nothing).
    fn publish(
        &mut self,
        backend: &mut dyn StateBackend,
        watermark: Timestamp,
        now: Instant,
    ) -> Result<(), StoreError> {
        let Some(mut view) = backend.read_view()? else {
            return Ok(());
        };
        self.epoch += 1;
        self.last = Some((now, watermark));
        self.pending = None;
        view.epoch = self.epoch;
        view.watermark = watermark;
        view.ttl_ms = self.ttl_ms;
        view.metrics = backend.metrics().snapshot();
        let view_bytes = view.memory_bytes();
        self.registry.publish(self.key.clone(), view);
        if let Some(probe) = &self.probe {
            probe.nanos.add(now.elapsed().as_nanos() as u64);
            probe.epoch.set(self.epoch as i64);
            probe.view_bytes.set(view_bytes as i64);
            // Like the worker's own gauge, never the end-of-stream sentinel.
            if watermark != MAX_TIMESTAMP {
                probe.watermark.set(watermark);
            }
        }
        Ok(())
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
    /// Messages a completed alignment let go, not yet handled.
    released: VecDeque<Envelope>,
}

impl BarrierAlign {
    fn new(upstreams: usize) -> Self {
        BarrierAlign {
            arrived: vec![false; upstreams],
            held: Vec::new(),
            released: VecDeque::new(),
        }
    }

    /// The next released message; the worker takes these ahead of its
    /// channel and offers them to [`admit`](Self::admit) like any other
    /// (a released barrier opens the next alignment).
    fn next_released(&mut self) -> Option<Envelope> {
        self.released.pop_front()
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

    /// Records `sender`'s barrier. `true` once every sender's has
    /// arrived: the worker snapshots and forwards the barrier, and what
    /// was held comes back through [`next_released`](Self::next_released).
    fn on_barrier(&mut self, sender: usize) -> bool {
        self.arrived[sender] = true;
        if !self.arrived.iter().all(|&b| b) {
            return false;
        }
        self.arrived.fill(false);
        self.released.extend(self.held.drain(..));
        true
    }
}

/// One keyed-stage worker between messages: its operator over its
/// partition's store, the exchange to the next keyed stage (or the sink),
/// and the event-time and barrier bookkeeping of its upstreams. Each
/// message kind is one step; [`run_worker`] is the loop that feeds them.
struct Worker<'a> {
    run: RunShared<'a>,
    /// Where an aligned barrier's snapshot goes, when the run checkpoints.
    snapshot_dir: Option<PathBuf>,
    operator: Box<dyn KeyedOperator>,
    exchange: Exchange,
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
        // Queryable state: the capture adaptor goes outermost, so store
        // spans stay the store's own time, and only when a registry is
        // attached — an unserved job runs the bare backend.
        let mut publisher = None;
        if let Some(registry) = &options.registry {
            let (probe, entries) = telemetry
                .map(|t| PublishProbe::new(t, name, worker))
                .unzip();
            backend = capture(backend, entries);
            publisher = Some(ViewPublisher {
                registry: Arc::clone(registry),
                key: StateKey::new(job.name.clone(), name, worker),
                epoch: 0,
                last: None,
                pending: None,
                // Advisory per-entry TTL published with every snapshot,
                // derived from the stage's window semantics (the serving
                // layer surfaces it on state listings).
                ttl_ms: semantics.window.retention_hint_ms(),
                probe,
            });
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
            exchange: Exchange::new(run, chain, next, name, worker, None),
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

    /// Hands one admitted message to its step. `Break` when the worker is
    /// done: its last upstream ended, or its downstream hung up.
    fn handle(&mut self, env: Envelope) -> Result<ControlFlow<()>, StoreError> {
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
            if !self.exchange.send(stamped.tuple.borrowed(), stamped.origin) {
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
            if !self.exchange.send(out.borrowed(), origin) {
                return Ok(ControlFlow::Break(()));
            }
        }
        // Forwarding the watermark flushes every pending batch first,
        // preserving tuple-before-watermark order downstream.
        self.exchange
            .outbox
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
    /// snapshots the operator (when the run checkpoints) and forwards the
    /// barrier behind every pending batch, keeping the pre/post-snapshot
    /// split exact downstream.
    fn on_barrier(&mut self, sender: usize) -> Result<ControlFlow<()>, StoreError> {
        if self.probe.is_some() && self.barrier_started.is_none() {
            self.barrier_started = Some(Instant::now());
        }
        if let (Some(rec), None) = (&self.rec, &self.barrier_span) {
            self.barrier_seq += 1;
            let seq = ("barrier", self.barrier_seq as i64);
            self.barrier_span = Some(rec.begin_with("barrier_align", "barrier", None, vec![seq]));
        }
        if !self.align.on_barrier(sender) {
            return Ok(ControlFlow::Continue(()));
        }
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
        self.exchange.outbox.broadcast(|| Msg::Barrier);
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
        self.exchange.outbox.broadcast(|| Msg::End);
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

/// The body of one keyed-stage worker thread: receives, holds what
/// barrier alignment holds, and hands every other message to its
/// [`Worker`] step until one says stop.
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
        // Held messages replay inside the busy span of the barrier that
        // released them; no idle boundary before them.
        let env = match w.align.next_released() {
            Some(env) => env,
            None => {
                let received = rx.recv_timeout(Duration::from_millis(100));
                if let (Some(p), Some(last)) = (&w.probe, clock.as_mut()) {
                    lap(last, &p.idle_nanos);
                }
                match received {
                    Ok(env) => {
                        if let Some(p) = &w.probe {
                            recv_count = recv_count.wrapping_add(1);
                            if recv_count & 0xf == 0 {
                                p.queue_depth.record(rx.len() as u64);
                            }
                        }
                        env
                    }
                    Err(RecvTimeoutError::Timeout) if !run.abort.load(Ordering::Relaxed) => {
                        match w.on_idle() {
                            Ok(()) => continue,
                            Err(e) => break Err(e),
                        }
                    }
                    Err(_) => break Ok(()),
                }
            }
        };
        if run.abort.load(Ordering::Relaxed) {
            break Ok(());
        }
        let Some(env) = w.align.admit(env) else {
            continue;
        };
        // Busy time covers operator work plus downstream sends.
        match w.handle(env) {
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
    use crate::window::WindowAssigner;
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
        assert!(!align.on_barrier(0));
        // Sender 0 is past its barrier: held. Senders 1 and 2 are not.
        assert!(align.admit(wm(0, 2)).is_none());
        assert_eq!(passed(align.admit(wm(1, 3))), Some((1, 3)));
        assert!(!align.on_barrier(1));
        assert!(align.admit(wm(1, 4)).is_none());
        assert!(align
            .admit(env(0, Msg::Batch(TupleBatch::default(), None)))
            .is_none());
        assert!(align.next_released().is_none());
        assert!(align.on_barrier(2));
        // Released in arrival order, across senders.
        assert_eq!(passed(align.next_released()), Some((0, 2)));
        assert_eq!(passed(align.next_released()), Some((1, 4)));
        assert!(matches!(
            align.next_released(),
            Some(Envelope {
                sender: 0,
                msg: Msg::Batch(..)
            })
        ));
        assert!(align.next_released().is_none());
        // Aligned: nobody is held any more.
        assert_eq!(passed(align.admit(wm(0, 5))), Some((0, 5)));
    }

    #[test]
    fn barrier_align_lets_end_pass_while_aligning() {
        let mut align = BarrierAlign::new(2);
        assert!(!align.on_barrier(0));
        assert!(matches!(
            align.admit(env(0, Msg::End)),
            Some(Envelope {
                sender: 0,
                msg: Msg::End
            })
        ));
        assert!(align.on_barrier(1));
        assert!(align.next_released().is_none());
    }

    #[test]
    fn barrier_align_second_barrier_starts_a_fresh_alignment() {
        let mut align = BarrierAlign::new(2);
        assert!(!align.on_barrier(0));
        // Sender 0 races ahead: its second barrier and what follows are
        // held behind the first alignment.
        assert!(align.admit(env(0, Msg::Barrier)).is_none());
        assert!(align.admit(wm(0, 7)).is_none());
        assert!(align.on_barrier(1));
        // The released barrier goes through the worker like a received
        // one and re-opens alignment: sender 0's tail is held again.
        let released = align.next_released().and_then(|e| align.admit(e));
        assert!(matches!(
            released,
            Some(Envelope {
                sender: 0,
                msg: Msg::Barrier
            })
        ));
        assert!(!align.on_barrier(0));
        let tail = align.next_released().expect("watermark 7 was released");
        assert!(align.admit(tail).is_none());
        assert_eq!(passed(align.admit(wm(1, 8))), Some((1, 8)));
        assert!(align.on_barrier(1));
        assert_eq!(passed(align.next_released()), Some((0, 7)));
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
                let flow = w.handle(env(sender, Msg::Watermark { ts, origin }));
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
            assert!(w.handle(env(0, batch(&rows))).unwrap().is_continue());
            // Outputs wait in the outbox until a control message flushes
            // them; the only upstream's end is one.
            assert!(sent(rx).is_empty());
            assert!(w.handle(env(0, Msg::End)).unwrap().is_break());
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
            assert!(w
                .handle(env(0, batch(&[("a", 1, 7)])))
                .unwrap()
                .is_continue());
            assert!(w.handle(env(0, Msg::Barrier)).unwrap().is_continue());
            assert!(sent(rx).is_empty());
            assert!(!snapshot.exists(), "snapshot before alignment");
            assert!(w.handle(env(1, Msg::Barrier)).unwrap().is_continue());
            assert!(snapshot.join("OPSTATE").exists());
            assert_eq!(sent(rx), ["batch a@7", "barrier"]);
            // The alignment is spent: the next barrier opens a new one.
            std::fs::remove_dir_all(&snapshot).unwrap();
            assert!(w.handle(env(0, Msg::Barrier)).unwrap().is_continue());
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
            assert!(w
                .handle(env(0, batch(&[("a", 1, 7)])))
                .unwrap()
                .is_continue());
            assert!(w.handle(env(0, Msg::End)).unwrap().is_continue());
            assert!(registry.list().is_empty());
            assert!(sent(rx).is_empty());
            assert!(w.handle(env(1, Msg::End)).unwrap().is_break());
            let states = registry.list();
            assert_eq!(states.len(), 1);
            assert_eq!((states[0].epoch, states[0].watermark), (1, MIN_TIMESTAMP));
            assert_eq!(sent(rx), ["end"]);
        });
    }

    #[test]
    fn a_watermark_publishes_the_first_view_then_once_per_period_and_the_end_always() {
        let t0 = Instant::now();
        assert!(publish_due(None, t0, false), "the first view");
        assert!(!publish_due(Some(t0), t0, false));
        assert!(!publish_due(Some(t0), t0 + PUBLISH_PERIOD / 2, false));
        assert!(publish_due(Some(t0), t0 + PUBLISH_PERIOD, false));
        assert!(publish_due(Some(t0), t0 + 3 * PUBLISH_PERIOD, false));
        assert!(publish_due(Some(t0), t0, true), "the end");
        // An instant before the last publish is no time at all.
        assert!(!publish_due(Some(t0 + PUBLISH_PERIOD), t0, false));
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
                assert!(w.handle(env(0, msg)).unwrap().is_continue());
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
            assert!(w.handle(env(0, Msg::End)).unwrap().is_break());
            assert_eq!(view(), Some((4, 50, 4)), "the end publishes");
        });
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
        let items = Schedule::for_run(tuples(330, 5).into_iter(), &opts);
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
        for share in shares {
            assert!(share > 0.0, "{cpu:?}");
        }
        assert!(
            cpu.total_s() <= process,
            "{cpu:?} over {process} s of process CPU"
        );
    }
}
