//! The run API: what a job run is asked ([`RunOptions`]), how it fails
//! ([`JobError`]), and what it returns ([`JobResult`], [`ThreadCpu`]).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use flowkv_common::error::StoreError;
use flowkv_common::metrics::MetricsSnapshot;
use flowkv_common::registry::StateRegistry;
use flowkv_common::telemetry::{HistogramSnapshot, Telemetry};
use flowkv_common::types::Tuple;

use crate::latency::LatencySummary;

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
/// use flowkv_spe::run::RunOptions;
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
    /// default) fails fast, matching plain [`run_job`](crate::run_job).
    pub max_restarts: u32,
    /// Base delay between supervised restarts. Attempt `k` (1-based)
    /// waits `restart_backoff * 2^(k-1)`, scaled by a deterministic
    /// jitter factor derived from `FLOWKV_FAULT_SEED` (see
    /// [`crate::backoff`]).
    pub restart_backoff: Duration,
    /// When set, [`run_job`](crate::run_job) checkpoints at the
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
    /// Adds the threads of a later phase of the same run.
    pub(crate) fn absorb(&mut self, later: ThreadCpu) {
        self.source_s += later.source_s;
        self.workers_s.extend(later.workers_s);
        self.sink_s += later.sink_s;
    }
}

/// CPU seconds the calling thread has used so far.
pub(crate) fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads one of Linux's CPU-time clocks, in seconds.
pub(crate) fn cpu_clock_seconds(clock: i32) -> f64 {
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
