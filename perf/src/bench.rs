//! One workload, one process: set-up, the unpaced and paced phases, the
//! correctness oracle, and — on a traced run — the per-layer ledger.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv_common::registry::StateRegistry;
use flowkv_common::telemetry::{Json, Telemetry};
use flowkv_common::types::Tuple;
use flowkv_serve::ServerBuilder;

use crate::harness::{self, Digest, Feed, RunOutcome, RunSpec};
use crate::layers::{self, Samples};
use crate::metrics::{LayerValues, END_TO_END};
use crate::report::{num, obj, text};
use crate::serve_load::{self, ServeReport, KINDS};
use crate::stats::{summarize, tail_quantile, Summary, P99_MIN_SAMPLES};
use crate::timed::Span;
use crate::workloads::{Backend, Workload, PARALLELISM, RUN_SECONDS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Time given to each isolated micro cell at benchmark scale.
const MICRO_CELL: Duration = Duration::from_millis(250);

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: PathBuf,
}

/// What one run of one workload produced.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Summary, &'static str)>,
    /// Wall seconds per phase, in execution order.
    pub phases: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Report {
    /// The metrics as `{name: {value, unit}}`, with quartiles and sample
    /// count beside each when `spread` is set.
    fn metric_cells(&self, spread: bool) -> Json {
        let cells = self.metrics.iter().map(|(name, s, unit)| {
            let mut cell = vec![("value", num(s.median)), ("unit", text(unit))];
            if spread {
                cell.extend([("q1", num(s.q1)), ("q3", num(s.q3)), ("n", num(s.n as f64))]);
            }
            (name.clone(), obj(cell))
        });
        Json::Obj(cells.collect())
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> Json {
        obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metric_cells(false)),
        ])
    }

    /// Everything recorded, for `perf run` to merge into its output.
    pub fn detail(&self, args: &Args) -> Json {
        let pairs = |rows: Vec<(&'static str, f64)>| {
            Json::Obj(rows.into_iter().map(|(k, v)| (k.into(), num(v))).collect())
        };
        obj(vec![
            ("workload", text(args.workload.name)),
            ("trace", Json::Bool(args.trace)),
            ("sizes", pairs(args.workload.sizes(args.scale))),
            ("phase_wall_s", pairs(self.phases.clone())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metric_cells(true)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| text(n)).collect()),
            ),
        ])
    }
}

/// The benchmark's own spans: workload, phases, repeats, and the sampled
/// backend calls inside a traced repeat. Kept in memory, written at exit.
struct SpanLog {
    epoch: Instant,
    spans: Vec<Json>,
}

impl SpanLog {
    fn push(&mut self, name: &str, parent: &str, thread: &str, start_us: f64, dur_us: f64) {
        self.spans.push(obj(vec![
            ("name", text(name)),
            ("parent", text(parent)),
            ("thread", text(thread)),
            ("start_us", num(start_us)),
            ("dur_us", num(dur_us)),
        ]));
    }

    /// A span of the benchmark's main thread that began at `start` and
    /// ends now.
    fn record(&mut self, name: &str, parent: &str, start: Instant) {
        let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.push(
            name,
            parent,
            "main",
            start_us,
            start.elapsed().as_secs_f64() * 1e6,
        );
    }

    /// The sampled backend calls of a timed repeat.
    fn sampled(&mut self, parent: &str, spans: &[Span]) {
        for s in spans {
            let (start_us, dur_us) = (s.start_nanos as f64 / 1e3, s.dur_nanos as f64 / 1e3);
            self.push(s.name, parent, &s.thread, start_us, dur_us);
        }
    }
}

/// Polls this process's resident set while a run is in flight; `VmHWM`
/// cannot serve because it never forgets an earlier, higher peak.
struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = harness::vm_mib("VmRSS");
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(harness::vm_mib("VmRSS"));
            }
            peak
        });
        RssSampler { stop, thread }
    }

    fn peak_mib(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("rss sampler panicked")
    }
}

/// Running tallies of the correctness oracle and the failure count.
struct Tally {
    reference: Digest,
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn new(reference: Digest) -> Self {
        Tally {
            reference,
            correct: true,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Counts a FlowKV job run and the requests served beside it.
    fn served(&mut self, what: &str, args: &Args, served: &Served) {
        self.job(what, args, &served.run);
        if let Some((serve, _)) = &served.serve {
            self.attempted += serve.requests;
            self.failed += serve.errors;
        }
    }

    fn finish(
        self,
        metrics: Vec<(String, Summary, &'static str)>,
        phases: Vec<(&'static str, f64)>,
    ) -> Report {
        Report {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            phases,
            notes: self.notes,
        }
    }

    /// Counts one finished job run against the oracle.
    fn job(&mut self, what: &str, args: &Args, run: &RunOutcome) {
        self.attempted += 1 + run.result.input_count;
        self.failed += run.result.dropped_late;
        if run.digest != self.reference {
            self.correct = false;
            self.failed += 1;
            let note = format!(
                "MISMATCH workload={} seed={} {what}: {} outputs crc {:08x}, reference {} outputs crc {:08x}",
                args.workload.name,
                args.seed,
                run.digest.count,
                run.digest.crc,
                self.reference.count,
                self.reference.crc
            );
            eprintln!("{note}");
            self.notes.push(note);
        }
    }
}

/// A job run of the system under test, with the state server and its
/// client beside it when asked.
struct Served {
    run: RunOutcome,
    /// The client's report and the server's registry (empty unless the
    /// run is traced).
    serve: Option<(ServeReport, Samples)>,
}

/// Runs the workload's job on FlowKV with the given feed. With `keys`,
/// the job publishes its state and one client queries it for as long as
/// the job runs.
fn flowkv_job(
    args: &Args,
    feed: Feed,
    input: Vec<Tuple>,
    keys: Option<&[Vec<u8>]>,
    scratch: &Path,
) -> Result<Served, String> {
    let mut spec = RunSpec {
        feed,
        ..RunSpec::unpaced(args.workload, Backend::FlowKv)
    };
    let Some(keys) = keys else {
        let run = harness::run_once(&spec, input, scratch)?;
        return Ok(Served { run, serve: None });
    };
    let registry = StateRegistry::new_shared();
    // The server's own families are only read back on a traced run.
    let telemetry = args.trace.then(Telemetry::new_shared);
    let mut builder = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry));
    if let Some(t) = &telemetry {
        builder = builder.telemetry(Arc::clone(t));
    }
    let mut server = builder.spawn().map_err(|e| format!("server spawn: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let client = serve_load::spawn(
        server.local_addr(),
        keys.to_vec(),
        PARALLELISM,
        Arc::clone(&stop),
    );
    spec.registry = Some(registry);
    let run = harness::run_once(&spec, input, scratch);
    stop.store(true, Ordering::SeqCst);
    let served = client
        .join()
        .map_err(|_| "serve client panicked".to_string());
    server.shutdown();
    let report = served??;
    let samples = telemetry.as_deref().map(Samples::of).unwrap_or_default();
    Ok(Served {
        run: run?,
        serve: Some((report, samples)),
    })
}

/// One set-up: materialise the input and compute the reference outputs
/// on the unbounded in-memory store (and prove a server can start).
struct Setup {
    input: Vec<Tuple>,
    gen_s: f64,
    oracle: RunOutcome,
}

fn setup_once(args: &Args, scratch: &Path) -> Result<Setup, String> {
    let w = args.workload;
    let start = Instant::now();
    let input = w.input(args.seed, args.scale);
    let gen_s = start.elapsed().as_secs_f64();
    let oracle = harness::run_once(
        &RunSpec::unpaced(w, Backend::InMemory),
        input.clone(),
        scratch,
    )?;
    if w.serve {
        ServerBuilder::new("127.0.0.1:0", StateRegistry::new_shared())
            .spawn()
            .map_err(|e| format!("server spawn: {e}"))?
            .shutdown();
    }
    Ok(Setup {
        input,
        gen_s,
        oracle,
    })
}

/// Latency cells of a paced run, in milliseconds: the median and the
/// highest percentile up to the 99th with ten samples beyond it.
fn latency_ms(run: &RunOutcome) -> (f64, f64) {
    let hist = &run.result.latency_histogram;
    let tail = tail_quantile(hist.count).unwrap_or(0.5);
    (
        hist.quantile(0.5) as f64 / 1e6,
        hist.quantile(tail) as f64 / 1e6,
    )
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = harness::scratch_root();
    let result = if args.trace {
        run_traced(args, &scratch)
    } else {
        run_untraced(args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Keys the state client asks for, when the workload serves: the
/// reference outputs' keys, which for Q12 are exactly the live bidders.
fn lookup_keys(w: &Workload, oracle: &RunOutcome) -> Option<Vec<Vec<u8>>> {
    w.serve.then(|| {
        let mut keys: Vec<Vec<u8>> = oracle
            .result
            .outputs
            .iter()
            .map(|t| t.key.clone())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    })
}

/// The untraced run: several set-ups, then unpaced repeats of the job for
/// `--seconds`. Everything it reports is end to end.
fn run_untraced(args: &Args, scratch: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut phases = Vec::new();

    let phase = Instant::now();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Only the digest of the previous set-up is needed; its input
        // must not stay resident while the next one is generated.
        let previous = last.take().map(|setup| setup.oracle.digest);
        let start = Instant::now();
        let setup = setup_once(args, scratch)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if previous.is_some_and(|digest| digest != setup.oracle.digest) {
            return Err("the reference computation is not deterministic".into());
        }
        last = Some(setup);
    }
    let Setup { input, oracle, .. } = last.expect("at least one set-up");
    phases.push(("setup", phase.elapsed().as_secs_f64()));
    let mut tally = Tally::new(oracle.digest);
    let keys = lookup_keys(w, &oracle);

    // Repeat until the time is spent; never start a repeat that would
    // overrun it.
    let phase = Instant::now();
    let mut tput = Vec::new();
    loop {
        let repeat = Instant::now();
        let copy = input.clone();
        let served = flowkv_job(args, Feed::Unpaced, copy, keys.as_deref(), scratch)?;
        tally.served("unpaced repeat", args, &served);
        tput.push(served.run.result.throughput());
        if phase.elapsed().as_secs_f64() + repeat.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    phases.push(("unpaced", phase.elapsed().as_secs_f64()));

    let values = [summarize(&setup_s), summarize(&tput)];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, s)| (m.name.to_string(), s, m.unit))
        .collect();
    Ok(tally.finish(metrics, phases))
}

/// The traced run: one repeat of each kind, observed from outside, plus
/// the paced phase. Everything it reports is per layer.
fn run_traced(args: &Args, scratch: &Path) -> Result<Report, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut spans = SpanLog {
        epoch,
        spans: Vec::new(),
    };
    let mut out = LayerValues::new();
    let mut phases = Vec::new();

    let phase = Instant::now();
    let Setup {
        input,
        gen_s,
        oracle,
    } = setup_once(args, scratch)?;
    spans.record("setup", w.name, phase);
    phases.push(("setup", phase.elapsed().as_secs_f64()));
    out.set("nexmark.gen_tuples_per_s", input.len() as f64 / gen_s);
    // The oracle run is also the engine ceiling: the same job with a
    // store that costs next to nothing.
    out.set("spe.ceiling_tuples_per_s", oracle.result.throughput());
    let input_bytes: u64 = input
        .iter()
        .map(|t| (t.key.len() + t.value.len()) as u64)
        .sum();
    let mut tally = Tally::new(oracle.digest);

    let phase = Instant::now();
    let plain = harness::run_once(
        &RunSpec::unpaced(w, Backend::FlowKv),
        input.clone(),
        scratch,
    )?;
    spans.record("untraced_repeat", w.name, phase);
    tally.job("untraced repeat", args, &plain);
    out.set(
        "diag.cpu_us_per_tuple",
        plain.cpu_s * 1e6 / plain.result.input_count.max(1) as f64,
    );

    let telemetry = Telemetry::new_shared();
    let traced_spec = RunSpec {
        telemetry: Some(Arc::clone(&telemetry)),
        timed: Some(epoch),
        ..RunSpec::unpaced(w, Backend::FlowKv)
    };
    let copy = input.clone();
    let rss_before = harness::vm_mib("VmRSS");
    let sampler = RssSampler::start();
    let start = Instant::now();
    let traced = harness::run_once(&traced_spec, copy, scratch)?;
    spans.record("run_job", "traced_repeat", start);
    out.set(
        "core.state_mem_peak_mb",
        (sampler.peak_mib() - rss_before).max(0.0),
    );
    spans.record("traced_repeat", w.name, start);
    tally.job("traced repeat", args, &traced);
    layers::from_traced_run(&mut out, &w.job(), &traced, &telemetry, input_bytes);
    let sampled = &traced.layers.as_ref().expect("timed run").backend.spans;
    spans.sampled("run_job", sampled);
    // Compared on CPU time: with six threads on two cores the wall clock
    // of a single repeat swings by more than the wrappers cost.
    out.set(
        "trace.overhead_pct",
        100.0 * (traced.cpu_s - plain.cpu_s) / plain.cpu_s,
    );

    let start = Instant::now();
    let lsm = harness::run_once(&RunSpec::unpaced(w, Backend::Lsm), input.clone(), scratch)?;
    spans.record("lsm_reference", w.name, start);
    tally.job("lsm reference", args, &lsm);
    out.set("ref.lsm_tuples_per_s", lsm.result.throughput());
    out.set(
        "ref.flowkv_vs_lsm",
        plain.result.throughput() / lsm.result.throughput(),
    );
    phases.push(("unpaced", phase.elapsed().as_secs_f64()));

    let phase = Instant::now();
    let cell = MICRO_CELL.mul_f64((args.seconds / RUN_SECONDS).min(1.0));
    layers::micro_cells(&mut out, &scratch.join("micro"), cell)?;
    spans.record("micro_cells", w.name, phase);
    phases.push(("micro", phase.elapsed().as_secs_f64()));

    // The paced phase: open loop at the workload's fixed rate, the state
    // client beside it when the workload serves.
    let phase = Instant::now();
    let keys = lookup_keys(w, &oracle);
    let paced = flowkv_job(args, Feed::Paced, input, keys.as_deref(), scratch)?;
    spans.record("paced", w.name, phase);
    phases.push(("paced", phase.elapsed().as_secs_f64()));
    tally.served("paced", args, &paced);
    let samples = paced.run.result.latency_histogram.count;
    if samples < P99_MIN_SAMPLES && args.seconds >= RUN_SECONDS && args.scale >= 1.0 {
        tally.failed += 1;
        tally.notes.push(format!(
            "latency histogram holds {samples} samples, a p99 needs {P99_MIN_SAMPLES}"
        ));
    }
    let (p50, p99) = latency_ms(&paced.run);
    let achieved =
        100.0 * paced.run.result.input_count as f64 / paced.run.source_secs / w.paced_rate as f64;
    if achieved < 97.0 {
        tally
            .notes
            .push(format!("unsustained: {achieved:.1}% of the paced rate, latency cells include a growing backlog"));
    }
    out.set("diag.latency_p50_ms", p50);
    out.set("diag.latency_p99_ms", p99);
    out.set("diag.latency_samples", samples as f64);
    out.set("diag.rate_achieved_pct", achieved);
    out.set("diag.source_late_ms_max", paced.run.source_late_ms_max);
    if let Some((serve, server)) = &paced.serve {
        out.set(
            "serve.requests_total",
            server.counter("serve_requests_total") as f64,
        );
        out.set(
            "serve.errors_total",
            server.counter("serve_errors_total") as f64,
        );
        out.set(
            "serve.pipeline_depth_p50",
            server.histogram("serve_pipeline_depth").quantile(0.5) as f64,
        );
        out.set(
            "serve.bytes_in",
            server.counter("serve_bytes_read_total") as f64,
        );
        out.set(
            "serve.bytes_out",
            server.counter("serve_bytes_written_total") as f64,
        );
        for (kind, hist) in KINDS.iter().zip(&serve.per_kind) {
            out.set(
                &format!("serve.{kind}_p50_us"),
                hist.quantile(0.5) as f64 / 1e3,
            );
        }
        out.set("serve.connect_ms", serve.connect_ms);
        out.set("serve.lookups_per_s", serve.answered as f64 / serve.secs);
        out.set("serve.batch_p50_us", serve.batch.quantile(0.5) as f64 / 1e3);
        let tail = tail_quantile(serve.batch.count).unwrap_or(0.5);
        out.set(
            "serve.batch_p99_us",
            serve.batch.quantile(tail) as f64 / 1e3,
        );
    }
    out.set(
        "diag.failed_pct",
        100.0 * tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    spans.record(w.name, "", epoch);
    let trace = obj(vec![
        ("workload", text(w.name)),
        ("seed", num(args.seed as f64)),
        ("spans", Json::Arr(spans.spans)),
    ]);
    crate::report::write_json(&args.trace_out, &trace)?;

    let metrics = out
        .into_rows()
        .into_iter()
        .map(|(name, value, unit)| (name, Summary::single(value), unit))
        .collect();
    Ok(tally.finish(metrics, phases))
}
