//! One job execution: builds the stores for a workload, feeds the
//! materialised input through `run_job`, and reports what came out —
//! result, output digest, CPU time, and (when asked) the per-layer
//! instruments that observed it from outside.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flowkv_common::codec::crc32;
use flowkv_common::registry::StateRegistry;
use flowkv_common::telemetry::Telemetry;
use flowkv_common::trace::Tracer;
use flowkv_common::types::Tuple;
use flowkv_spe::{run_job, JobResult, RunOptions};

use crate::timed::{BackendTimes, TimedFactory, TimedVfs, VfsTimes};
use crate::workloads::{Backend, Workload};

/// Every how many sealed source batches the program's own tracer
/// samples one in a traced run.
const TRACE_SAMPLE: u64 = 256;

/// Count and checksum of a run's sorted outputs: what the correctness
/// oracle compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub crc: u32,
}

pub fn digest(outputs: &[Tuple]) -> Digest {
    let mut lines: Vec<Vec<u8>> = outputs
        .iter()
        .map(|t| {
            let mut line = t.key.clone();
            line.push(b'\t');
            line.extend_from_slice(&t.value);
            line.push(b'\t');
            line.extend_from_slice(&t.timestamp.to_be_bytes());
            line
        })
        .collect();
    lines.sort();
    Digest {
        count: outputs.len() as u64,
        crc: crc32(&lines.concat()),
    }
}

/// CPU time consumed by this process so far, all threads, exited ones
/// included.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only platform the benchmark builds
    // for — see the `compile_error!` in main.rs) and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A `Vm*` line of `/proc/self/status` in MiB (`VmHWM` is the peak
/// resident set, `VmRSS` the current one).
pub fn vm_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory for store files: beside the benchmark binary, so inside the
/// build directory of whatever checkout is being measured.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .expect("binary has a directory")
        .join(format!("perf-state-{}", std::process::id()))
}

/// What the outside-in instruments of a traced run recorded.
pub struct Layers {
    /// The program's own span tracer, switched on for the run.
    pub tracer: Arc<Tracer>,
    pub backend: BackendTimes,
    pub vfs: Arc<VfsTimes>,
}

/// How the source feeds a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Feed {
    /// Closed loop: the source blocks on backpressure.
    Unpaced,
    /// Open loop at the workload's fixed rate, latency recorded.
    Paced,
}

/// One execution's inputs beyond the tuples.
pub struct RunSpec<'a> {
    pub workload: &'a Workload,
    pub backend: Backend,
    pub feed: Feed,
    /// Publish state snapshots for a server to read.
    pub registry: Option<Arc<StateRegistry>>,
    /// Switches on the program's telemetry registry, writing into this
    /// hub.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Traced run: wrap the stores and their filesystem in the timing
    /// wrappers and switch on the program's tracer. The instant is the
    /// zero of the benchmark's own span clock.
    pub timed: Option<Instant>,
}

impl<'a> RunSpec<'a> {
    /// A plain unpaced run of the workload on `backend`: nothing
    /// published, nothing instrumented.
    pub fn unpaced(workload: &'a Workload, backend: Backend) -> Self {
        RunSpec {
            workload,
            backend,
            feed: Feed::Unpaced,
            registry: None,
            telemetry: None,
            timed: None,
        }
    }
}

pub struct RunOutcome {
    pub result: JobResult,
    pub digest: Digest,
    /// Process CPU seconds spent between job start and job end.
    pub cpu_s: f64,
    /// Largest observed lag of the source behind its schedule (paced
    /// feeds only), in milliseconds.
    pub source_late_ms_max: f64,
    /// Seconds the source took to hand out the whole input (paced feeds
    /// only): the final drain is not part of it, so tuples over this is
    /// the rate the source actually kept.
    pub source_secs: f64,
    /// Present when the run was timed.
    pub layers: Option<Layers>,
}

/// Passes tuples through while recording how far behind schedule the
/// source asks for them. The executor stamps latency at actual
/// departure, so a stalled pipeline under-reports queueing; this lag is
/// the guard that shows when that happened.
struct LateProbe<I> {
    inner: I,
    rate: f64,
    started: Option<Instant>,
    handed: u64,
    max_late_nanos: Arc<AtomicU64>,
    /// Set once, when the input is exhausted.
    source_nanos: Arc<AtomicU64>,
}

impl<I: Iterator<Item = Tuple>> Iterator for LateProbe<I> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        // Being asked for tuple n means tuple n-1 has just departed; it
        // was due at (n-1)/rate. Checked every 64 tuples to keep the
        // clock off the per-tuple path.
        if self.handed % 64 == 1 {
            let started = *self.started.get_or_insert_with(Instant::now);
            let due = (self.handed - 1) as f64 / self.rate;
            let late = started.elapsed().as_secs_f64() - due;
            if late > 0.0 {
                self.max_late_nanos
                    .fetch_max((late * 1e9) as u64, Ordering::Relaxed);
            }
        }
        self.handed += 1;
        let tuple = self.inner.next();
        if let (None, Some(started)) = (&tuple, self.started) {
            self.source_nanos
                .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        tuple
    }
}

static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs the workload's job once over `input` (moved in: the caller
/// copies outside the timed region).
pub fn run_once(
    spec: &RunSpec<'_>,
    input: Vec<Tuple>,
    scratch: &Path,
) -> Result<RunOutcome, String> {
    let w = spec.workload;
    let dir = scratch.join(format!("run-{}", RUN_SEQ.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let vfs = w.vfs();
    let factory_of = |vfs| {
        w.backend(spec.backend)
            .build(w.factory_options(spec.backend, vfs))
    };
    let mut opts = RunOptions::new(&dir);
    w.tune(&mut opts);
    opts.registry = spec.registry.clone();
    opts.telemetry = spec.telemetry.clone();
    let (factory, instruments) = match spec.timed {
        None => (factory_of(vfs), None),
        Some(epoch) => {
            let (timed_vfs, vfs_times) = TimedVfs::wrap(vfs);
            let (factory, backend_times) = TimedFactory::wrap(factory_of(timed_vfs), epoch);
            let tracer = Tracer::new();
            opts.trace = Some(Arc::clone(&tracer));
            opts.trace_sample = TRACE_SAMPLE;
            (factory, Some((tracer, backend_times, vfs_times)))
        }
    };
    let max_late_nanos = Arc::new(AtomicU64::new(0));
    let source_nanos = Arc::new(AtomicU64::new(0));
    let job = w.job();
    let cpu_before = cpu_seconds();
    let outcome = match spec.feed {
        Feed::Unpaced => run_job(&job, input.into_iter(), factory, &opts),
        Feed::Paced => {
            opts.rate_limit = Some(w.paced_rate);
            opts.record_latency = true;
            let source = LateProbe {
                inner: input.into_iter(),
                rate: w.paced_rate as f64,
                started: None,
                handed: 0,
                max_late_nanos: Arc::clone(&max_late_nanos),
                source_nanos: Arc::clone(&source_nanos),
            };
            run_job(&job, source, factory, &opts)
        }
    };
    let cpu_s = cpu_seconds() - cpu_before;
    // Stores delete their files on close; this removes the directories.
    let _ = std::fs::remove_dir_all(&dir);
    let result = outcome.map_err(|e| e.to_string())?;
    let digest = digest(&result.outputs);
    // Every backend was dropped with its worker, so the totals are final.
    let layers = instruments.map(|(tracer, backend, vfs)| Layers {
        tracer,
        backend: std::mem::take(&mut *backend.lock().expect("a worker panicked mid-merge")),
        vfs,
    });
    Ok(RunOutcome {
        result,
        digest,
        cpu_s,
        source_late_ms_max: max_late_nanos.load(Ordering::Relaxed) as f64 / 1e6,
        source_secs: source_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use flowkv_nexmark::QueryId;

    /// The timing wrappers must be invisible: one query per access
    /// pattern, 20k events, sorted outputs byte-identical with and
    /// without them.
    #[test]
    fn timed_wrappers_are_transparent() {
        let scratch = scratch_root();
        for query in [QueryId::Q7, QueryId::Q11Median, QueryId::Q11] {
            let w = Workload {
                query,
                events: 20_000,
                window_ms: 500,
                ..WORKLOADS[0]
            };
            let input = w.input(7, 1.0);
            let run = |timed| {
                let spec = RunSpec {
                    timed,
                    ..RunSpec::unpaced(&w, Backend::FlowKv)
                };
                run_once(&spec, input.clone(), &scratch).expect("run")
            };
            let (plain, timed) = (run(None), run(Some(Instant::now())));
            assert!(plain.digest.count > 0, "{query:?} produced no output");
            assert_eq!(plain.digest, timed.digest, "{query:?}");
            assert_eq!(plain.result.outputs.len(), timed.result.outputs.len());
            let layers = timed.layers.expect("timed run reports its layers");
            assert!(
                layers.backend.total_nanos() > 0,
                "{query:?}: no backend call was timed"
            );
            // 20k events stay in the write buffers, but every store opens
            // its files through the wrapped filesystem.
            assert!(
                layers.vfs.worker.open.calls() > 0,
                "{query:?}: no file call was timed"
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
