//! `flowkv-figures`: the paper's evaluation (§6: Figs. 4 and 8–13) and
//! two ablations, as one table of TSV sweeps.
//!
//! `flowkv-figures [NAME…] [--scale=…] [--key=value…]` runs the named
//! figures, or every figure of [`FIGURES`] in order, each table under a
//! `=== <name> ===` line when more than one runs. `--scale` multiplies
//! every event count (fig9: every rate); each figure's doc names the
//! other flags it reads. An unknown name, a flag no selected figure reads
//! and a value that does not parse exit with status 2 before any cell
//! runs. For example:
//! `cargo run --release -p flowkv-bench --bin flowkv-figures -- fig8_throughput --scale=4`

use std::fmt::Display;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv::aar::AarStore;
use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv::FlowKvConfig;
use flowkv_bench::{
    bench_backends, flowkv_cfg, run_cell, workload, CellOutcome, HarnessArgs, BASE_EVENTS,
    EVENTS_PER_SECOND, HARNESS_BUFFER,
};
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::StdVfs;
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::{BackendChoice, JobResult, RunOptions};

/// One figure: its name, its TSV header and the sweep that plans its
/// rows.
struct Figure {
    name: &'static str,
    header: &'static str,
    sweep: fn(&HarnessArgs) -> Plan,
}

/// Declares [`FIGURES`]: each figure is named after its sweep function.
macro_rules! figures {
    ($($sweep:ident: $header:literal,)*) => {
        /// The figures, in the order a run without names prints them.
        const FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($sweep),
            header: $header,
            sweep: $sweep,
        }),*];
    };
}

figures! {
    fig4_breakdown: "query\tbackend\twall_s\tstore_cpu_s_per_worker\twrite_s\tread_s\tcompaction_s\tbytes_written_mb\tbytes_read_mb\toutcome",
    fig8_throughput: "query\tpattern\twindow_ms\tbackend\tmevents_per_s\telapsed_s\toutputs",
    fig10_cpu_breakdown: "query\tbackend\twrite_s\tread_delete_s\tcompaction_s\ttotal_store_s\tvs_flowkv\toutcome",
    fig11_batch_ratio: "query\tread_batch_ratio\tmevents_per_s\thit_ratio\tread_amplification\tprefetch_evictions\toutcome",
    fig12_msa: "query\tmsa\tmevents_per_s\tcompactions\tcompaction_s\tbytes_written_mb\toutcome",
    fig13_scalability: "workers\tevents\tmevents_per_s\tspeedup_vs_1\toutcome",
    fig9_latency: "query\tbackend\trate_per_s\tp50_ms\tp95_ms\tp99_ms\toutcome",
    abl_store_instances: "store_instances\tmevents_per_s\tp95_ms\tp99_ms\tmax_ms\tcompactions\toutcome",
    abl_layout: "store\telapsed_s\twindows_per_s\tbytes_read_mb\tcompactions",
}

/// What a figure runs, planned before anything runs so that every flag
/// is read first.
enum Plan {
    /// Engine cells, and their metric columns.
    Cells(Vec<Cell>, Metrics),
    /// A store-level body that prints its own rows.
    Store(Box<dyn FnOnce()>),
}

/// A completed run's metric columns, given the run of the latest
/// baseline cell.
type Metrics = fn(&JobResult, Option<&JobResult>) -> Vec<String>;

/// One engine run: the key columns that name its row, and what runs.
struct Cell {
    keys: Vec<String>,
    query: QueryId,
    backend: BackendChoice,
    size: Sizing,
    workers: usize,
    tweak: Box<dyn Fn(&mut RunOptions)>,
    /// Whether this row's and later rows' ratio columns divide by this
    /// cell's run (fig10's FlowKV cell, fig13's one worker); a failed
    /// baseline leaves them `-`.
    baseline: bool,
}

/// The workers of every cell but fig13's.
const WORKERS: usize = 2;

/// A cell's event count, generator seed, window and timeout.
#[derive(Clone, Copy)]
struct Sizing {
    events: u64,
    seed: u64,
    window_ms: i64,
    timeout: Duration,
}

impl Sizing {
    /// `events` events in windows an eighth of their span.
    fn new(events: u64, seed: u64, timeout: Duration) -> Sizing {
        let window_ms = span_ms(events) / 8;
        Sizing {
            events,
            seed,
            window_ms,
            timeout,
        }
    }

    /// `--scale` × [`BASE_EVENTS`] events.
    fn scaled(args: &HarnessArgs, seed: u64, timeout: Duration) -> Sizing {
        Sizing::new((BASE_EVENTS as f64 * args.scale()) as u64, seed, timeout)
    }

    /// A cell on [`WORKERS`] workers, untweaked.
    fn cell(self, keys: &[&dyn Display], query: QueryId, backend: BackendChoice) -> Cell {
        Cell {
            keys: keys.iter().map(|k| k.to_string()).collect(),
            query,
            backend,
            size: self,
            workers: WORKERS,
            tweak: Box::new(|_| {}),
            baseline: false,
        }
    }
}

fn run(cell: &Cell) -> CellOutcome {
    let (s, tweak) = (cell.size, &*cell.tweak);
    let (gen, params) = (workload(s.events, s.seed), QueryParams::new(s.window_ms));
    let params = params.with_parallelism(cell.workers);
    run_cell(cell.query, &cell.backend, gen, params, s.timeout, tweak)
}

/// A cell's row: its keys, then the metric columns of a completed run
/// (and `ok` in the `outcome` column), or on failure a `-` in every
/// metric column and the failure marker in the `outcome` column — in the
/// first metric column of a figure without one (fig8).
fn cell_row(
    header: &str,
    keys: Vec<String>,
    outcome: &CellOutcome,
    metrics: impl FnOnce(&JobResult) -> Vec<String>,
) -> Vec<String> {
    let columns: Vec<&str> = header.split('\t').collect();
    let outcome_at = columns.iter().position(|c| *c == "outcome");
    let mut row = keys;
    let Some(r) = outcome.result() else {
        let marker_at = outcome_at.unwrap_or(row.len());
        row.resize(columns.len(), "-".into());
        row[marker_at] = outcome.throughput_cell();
        return row;
    };
    row.extend(metrics(r));
    row.extend(outcome_at.map(|_| "ok".to_string()));
    row
}

/// The figure named `name`; exits with status 2 listing the valid names
/// if there is none.
fn figure(name: &str) -> &'static Figure {
    FIGURES.iter().find(|f| f.name == name).unwrap_or_else(|| {
        let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("unknown figure {name}; valid names: {}", valid.join(" "));
        std::process::exit(2)
    })
}

fn main() {
    let args = HarnessArgs::parse();
    let figures: Vec<&Figure> = match args.names() {
        [] => FIGURES.iter().collect(),
        names => names.iter().map(|name| figure(name)).collect(),
    };
    let plans: Vec<Plan> = figures.iter().map(|f| (f.sweep)(&args)).collect();
    args.finish();
    for (figure, plan) in figures.iter().zip(plans) {
        if figures.len() > 1 {
            println!("=== {} ===", figure.name);
        }
        println!("{}", figure.header);
        match plan {
            Plan::Store(body) => body(),
            Plan::Cells(cells, metrics) => print_cells(figure, cells, metrics),
        }
    }
}

/// Runs a figure's cells in order and prints each row as it completes.
fn print_cells(figure: &Figure, cells: Vec<Cell>, metrics: Metrics) {
    let mut baseline = None;
    for cell in cells {
        let outcome = run(&cell);
        if let CellOutcome::Failed(e) = &outcome {
            eprintln!("{}: {}: {e}", figure.name, cell.keys.join(" "));
        }
        // A baseline row divides by its own run, a later row by the
        // latest baseline's.
        let earlier = baseline.as_ref().and_then(CellOutcome::result);
        let row = cell_row(figure.header, cell.keys, &outcome, |r| {
            metrics(r, Some(r).filter(|_| cell.baseline).or(earlier))
        });
        println!("{}", row.join("\t"));
        if cell.baseline {
            baseline = Some(outcome);
        }
    }
}

fn span_ms(events: u64) -> i64 {
    (events * 1_000 / EVENTS_PER_SECOND) as i64
}

fn timeout(args: &HarnessArgs, default_s: u64) -> Duration {
    Duration::from_secs(args.u64("timeout", default_s))
}

fn mevents(r: &JobResult) -> String {
    format!("{:.3}", r.throughput() / 1e6)
}

fn secs(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e9)
}

fn ms(nanos: u64) -> String {
    format!("{:.2}", nanos as f64 / 1e6)
}

fn store_s(r: &JobResult) -> f64 {
    r.store_metrics.total_store_nanos() as f64 / 1e9
}

/// `value` over the baseline's, or `-` without a baseline.
fn ratio(value: f64, base: Option<f64>) -> String {
    match base {
        Some(b) if b > 0.0 => format!("{:.2}x", value / b),
        _ => "-".into(),
    }
}

/// The representative queries (AAR, AUR, RMW) on each persistent
/// backend: Figures 4 and 10 profile the persistent baselines, with
/// FlowKV for contrast.
fn persistent(s: Sizing) -> Vec<Cell> {
    let mut cells = Vec::new();
    for q in [QueryId::Q7, QueryId::Q11Median, QueryId::Q11] {
        for b in bench_backends(usize::MAX).into_iter().skip(1) {
            cells.push(s.cell(&[&q.name(), &b.name()], q, b));
        }
    }
    cells
}

/// The AUR queries on FlowKV, one cell per value of the swept knob. A
/// deliberately small write buffer keeps the AUR disk machinery (data
/// log, batch reads, compaction) fully engaged at harness scale, as the
/// paper's 400 GB streams do to its 2 GiB buffers.
fn aur_sweep(
    s: Sizing,
    knob: fn(FlowKvConfig, f64) -> FlowKvConfig,
    values: [f64; 5],
) -> Vec<Cell> {
    let stressed = flowkv_cfg().with_write_buffer_bytes(128 << 10);
    let mut cells = Vec::new();
    for q in [QueryId::Q11Median, QueryId::Q7Session] {
        for v in values {
            let backend = BackendChoice::FlowKv(knob(stressed.clone(), v));
            cells.push(s.cell(&[&q.name(), &v], q, backend));
        }
    }
    cells
}

/// Figure 4: execution-time breakdown of the baseline stores on the
/// three representative queries. Flags: `--timeout=120`.
///
/// The paper profiles Flink on RocksDB and Faster with perf/dstat and
/// splits execution time into query computation, store CPU, and I/O
/// wait. Our stores self-account their time (flowkv-common::metrics), so
/// the breakdown is: wall time, per-worker store seconds (write /
/// read+delete / compaction summed, divided by parallelism), and bytes
/// moved. FlowKV is included for contrast.
///
/// Paper shape: for Q7 and Q11-Median (append patterns) the hash store
/// either dominates its runtime with store work or fails outright; for
/// Q11 (RMW) the LSM store pays heavy sorted-structure and compaction
/// CPU while the hash store is lean.
fn fig4_breakdown(args: &HarnessArgs) -> Plan {
    let cells = persistent(Sizing::scaled(args, 4, timeout(args, 120)));
    Plan::Cells(cells, |r, _| {
        let m = &r.store_metrics;
        let per_worker = m.total_store_nanos() as f64 / WORKERS as f64 / 1e9;
        vec![
            format!("{:.2}", r.elapsed.as_secs_f64()),
            format!("{per_worker:.2}"),
            format!("{:.2}", m.write_nanos as f64 / 1e9),
            format!("{:.2}", m.read_nanos as f64 / 1e9),
            format!("{:.2}", m.compaction_nanos as f64 / 1e9),
            format!("{:.1}", m.bytes_written as f64 / 1e6),
            format!("{:.1}", m.bytes_read as f64 / 1e6),
        ]
    })
}

/// Figure 8: throughput of the eight NEXMark queries on the four state
/// backends across three window sizes. Flags: `--timeout=120`,
/// `--inmem-kb=320`.
///
/// Paper result to reproduce (shape, not absolute numbers):
/// - FlowKV beats the LSM baseline on every pattern (up to 4.12×) and the
///   hash baseline on RMW (1.27–1.36×);
/// - the hash baseline collapses or fails on append-pattern queries;
/// - the in-memory store fails (OOM) once window state outgrows memory;
/// - gains grow with window size (state size) and compound on the
///   consecutive-window queries Q5/Q5-Append.
fn fig8_throughput(args: &HarnessArgs) -> Plan {
    let mut s = Sizing::scaled(args, 8, timeout(args, 120));
    let inmem_budget = (args.u64("inmem-kb", 320) << 10) as usize;
    let span_ms = span_ms(s.events);
    let mut cells = Vec::new();
    for query in QueryId::all() {
        // Three window sizes, proportional to the stream span the way the
        // paper's 500/1000/2000 s windows relate to its stream length.
        for window_ms in [span_ms / 16, span_ms / 8, span_ms / 4] {
            s.window_ms = window_ms;
            for b in bench_backends(inmem_budget) {
                let keys: [&dyn Display; 4] =
                    [&query.name(), &query.pattern(), &window_ms, &b.name()];
                cells.push(s.cell(&keys, query, b));
            }
        }
    }
    Plan::Cells(cells, |r, _| {
        let elapsed = format!("{:.2}", r.elapsed.as_secs_f64());
        vec![mevents(r), elapsed, r.output_count.to_string()]
    })
}

/// Figure 9: P95 latency versus tuple rate for Q7, Q11-Median, and Q11.
/// Flags: `--seconds=4` of feed per point, `--inmem-kb=768`.
///
/// The paper feeds tuples at fixed rates through Kafka and measures
/// 95th-percentile end-to-end latency. Here a paced in-process source
/// plays Kafka's role; every output inherits the wall-clock origin of
/// the watermark that triggered it, so the sink observes end-to-end
/// latency including all store work.
///
/// Paper shape: FlowKV holds low tail latency up to the highest rates;
/// the LSM baseline's latency inflates under load (compaction stalls);
/// the hash baseline fails on the append queries and gives up at high
/// rates; the in-memory store fails on the large-state queries.
fn fig9_latency(args: &HarnessArgs) -> Plan {
    let feed_seconds = args.u64("seconds", 4).max(1);
    let inmem_budget = (args.u64("inmem-kb", 768) << 10) as usize;
    let (scale, timeout) = (args.scale(), Duration::from_secs(feed_seconds * 10 + 30));
    let mut cells = Vec::new();
    for query in [QueryId::Q7, QueryId::Q11Median, QueryId::Q11] {
        for rate in [25_000u64, 50_000, 100_000, 200_000] {
            let rate = (rate as f64 * scale) as u64;
            let mut s = Sizing::new(rate * feed_seconds, 9, timeout);
            // Windows sized so several close during the feed.
            s.window_ms = s.window_ms.max(1);
            for b in bench_backends(inmem_budget) {
                let mut cell = s.cell(&[&query.name(), &b.name(), &rate], query, b);
                cell.tweak = Box::new(move |opts| {
                    opts.rate_limit = Some(rate);
                    opts.record_latency = true;
                    opts.watermark_interval = 200;
                });
                cells.push(cell);
            }
        }
    }
    Plan::Cells(cells, |r, _| {
        let latency = r.latency();
        vec![ms(latency.p50), ms(latency.p95), ms(latency.p99)]
    })
}

/// Figure 10: store CPU time split into write, read & delete, and
/// compaction for Q7, Q11-Median, and Q11. Flags: `--timeout=120`.
///
/// Paper shape: FlowKV spends 1.75–10.56× less store CPU than the
/// competitive baseline on each query — no compaction at all on Q7
/// (per-window files are deleted, not compacted), cheap batched reads on
/// Q11-Median, and no synchronization tax on Q11.
fn fig10_cpu_breakdown(args: &HarnessArgs) -> Plan {
    let mut cells = persistent(Sizing::scaled(args, 10, timeout(args, 120)));
    for cell in &mut cells {
        cell.baseline = cell.backend.name() == "flowkv";
    }
    Plan::Cells(cells, |r, base| {
        let (m, total) = (&r.store_metrics, store_s(r));
        vec![
            secs(m.write_nanos),
            secs(m.read_nanos),
            secs(m.compaction_nanos),
            format!("{total:.3}"),
            ratio(total, base.map(store_s)),
        ]
    })
}

/// Figure 11: effect of the predictive-batch-read ratio on throughput
/// (a) and prefetch hit ratio (b) for the AUR queries. Flags:
/// `--timeout=180`.
///
/// Paper shape: ratio 0 (prefetching disabled) reaches only ~38–40 % of
/// the best throughput; the curve saturates at ratio ≈ 0.02, where the
/// hit ratio is already ~0.93 — larger ratios only prefetch windows
/// unlikely to be read. Read amplification follows Eq. 1: 1 / hit-ratio.
fn fig11_batch_ratio(args: &HarnessArgs) -> Plan {
    let s = Sizing::scaled(args, 11, timeout(args, 180));
    let ratios = [0.0, 0.01, 0.02, 0.05, 0.1];
    let cells = aur_sweep(s, FlowKvConfig::with_read_batch_ratio, ratios);
    Plan::Cells(cells, |r, _| {
        let hit = r.store_metrics.prefetch_hit_ratio();
        // Paper Eq. 1: each tuple is read 1/r times on average.
        let amp = hit.filter(|h| *h > 0.0).map(|h| format!("{:.3}", 1.0 / h));
        vec![
            mevents(r),
            hit.map(|h| format!("{h:.3}")).unwrap_or_else(|| "0".into()),
            amp.unwrap_or_else(|| "-".into()),
            r.store_metrics.prefetch_evictions.to_string(),
        ]
    })
}

/// Figure 12: effect of the maximum space amplification (MSA) threshold
/// on AUR throughput. Flags: `--timeout=180`.
///
/// Paper shape: throughput rises as MSA grows (fewer compactions) but
/// flattens after MSA = 1.5 — the paper's recommended setting, trading
/// negligible throughput for bounded disk usage.
fn fig12_msa(args: &HarnessArgs) -> Plan {
    let s = Sizing::scaled(args, 12, timeout(args, 180));
    let msas = [1.1, 1.25, 1.5, 2.0, 3.0];
    let cells = aur_sweep(s, FlowKvConfig::with_max_space_amplification, msas);
    Plan::Cells(cells, |r, _| {
        let m = &r.store_metrics;
        let written = format!("{:.1}", m.bytes_written as f64 / 1e6);
        vec![
            mevents(r),
            m.compactions.to_string(),
            secs(m.compaction_nanos),
            written,
        ]
    })
}

/// Figure 13: scalability of Q11-Median on FlowKV over 1–8 workers.
/// Flags: `--timeout=300`.
///
/// The paper scales worker *machines*; FlowKV store instances are
/// share-nothing per partition, so the same code path is exercised by
/// scaling worker threads. Input grows with the worker count (weak
/// scaling) so per-worker state stays constant, as in the paper's setup.
///
/// Paper shape: near-linear throughput growth.
fn fig13_scalability(args: &HarnessArgs) -> Plan {
    let s = Sizing::scaled(args, 13, timeout(args, 300));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 8 {
        eprintln!(
            "fig13: WARNING — fewer cores than the largest worker count; \
             scaling will flatten at ~{cores} workers (the paper scales machines)"
        );
    }
    let cells = [1usize, 2, 4, 8].map(|n| {
        let (events, backend) = (s.events * n as u64, BackendChoice::FlowKv(flowkv_cfg()));
        let size = Sizing::new(events, s.seed, s.timeout);
        let mut cell = size.cell(&[&n, &events], QueryId::Q11Median, backend);
        (cell.workers, cell.baseline) = (n, n == 1);
        cell
    });
    Plan::Cells(cells.into(), |r, base| {
        let tput = r.throughput();
        vec![mevents(r), ratio(tput, base.map(JobResult::throughput))]
    })
}

/// Ablation: the number of store instances per operator (`m`, paper §3).
/// Flags: `--rate=40000`.
///
/// FlowKV sub-partitions each operator's state into `m` independent
/// instances so compactions run on a fraction of the state. This sweeps
/// `m` on an AUR query with latency recording: larger `m` should smooth
/// tail latency (smaller, more frequent compactions) at similar
/// throughput, which is the paper's justification for `m = 2`.
fn abl_store_instances(args: &HarnessArgs) -> Plan {
    let s = Sizing::scaled(args, 30, Duration::from_secs(300));
    let rate = args.u64("rate", 40_000);
    let cells = [1usize, 2, 4, 8].map(|m| {
        // The stressed buffer keeps compaction active so the per-instance
        // compaction scope (the thing `m` controls) actually matters.
        // The total buffer scales with `m` so each instance keeps the
        // same 64 KiB: the sweep isolates compaction scope, not memory.
        let cfg = flowkv_cfg()
            .with_write_buffer_bytes((64 << 10) * m)
            .with_store_instances(m);
        let mut cell = s.cell(&[&m], QueryId::Q11Median, BackendChoice::FlowKv(cfg));
        cell.tweak = Box::new(move |opts| {
            opts.rate_limit = Some(rate);
            opts.record_latency = true;
        });
        cell
    });
    Plan::Cells(cells.into(), |r, _| {
        let (latency, compactions) = (r.latency(), r.store_metrics.compactions);
        vec![
            mevents(r),
            ms(latency.p95),
            ms(latency.p99),
            ms(latency.max),
            compactions.to_string(),
        ]
    })
}

/// Ablation: does the semantic store choice matter? (paper §3.1, §4.1)
/// Flags: `--keys=400`, `--per-key=10`, `--rounds=10`.
///
/// Runs the *same aligned workload* — one fixed window of tuples across
/// many keys, appended then fully read — through (a) the AAR store FlowKV
/// would pick, and (b) the AUR store FlowKV would pick if the window
/// function were unknown (the custom-window fallback). The AAR layout
/// reads one per-window file sequentially and deletes it; the AUR layout
/// must take each key individually through batch reads. The gap is the
/// value of classification, and quantifies the paper's remark that
/// misclassified custom windows degrade performance (§8).
fn abl_layout(args: &HarnessArgs) -> Plan {
    let keys = args.u64("keys", 400);
    let per_key = args.u64("per-key", 10);
    let rounds = args.u64("rounds", 10);
    // (a) The aligned-read layout: per-window files, sequential drain.
    // (b) The unaligned-read fallback: global log + per-key index reads.
    //     A custom window function without a predictor cannot estimate
    //     trigger times (paper §8), so batch reads cannot help.
    // (c) The same fallback but with a predictor the user registered for
    //     the custom window (§8's suggested mitigation).
    let layouts = [
        ("aar (classified)", None),
        (
            "aur (custom-window fallback)",
            Some(EttPredictor::Unpredictable),
        ),
        (
            "aur (custom + user ETT hint)",
            Some(EttPredictor::WindowEnd),
        ),
    ];
    Plan::Store(Box::new(move || {
        let value = [7u8; 64];
        let key = |i: u64| (i % keys).to_le_bytes();
        for (name, predictor) in layouts {
            let dir = ScratchDir::new("abl-layout").expect("scratch directory");
            let (metrics, vfs) = (StoreMetrics::new_shared(), StdVfs::shared());
            let mut round: Box<dyn FnMut(WindowId)> = match predictor {
                None => {
                    let m = Arc::clone(&metrics);
                    let mut store = AarStore::open(dir.path(), HARNESS_BUFFER, 1024, m, vfs)
                        .expect("open the AAR store");
                    Box::new(move |w| {
                        for i in 0..keys * per_key {
                            store.append(&key(i), w, &value).expect("append");
                        }
                        while store.get_window_chunk(w).expect("drain").is_some() {}
                    })
                }
                Some(predictor) => {
                    let cfg = AurConfig {
                        write_buffer_bytes: HARNESS_BUFFER,
                        read_batch_ratio: 0.02,
                        max_space_amplification: 1.5,
                    };
                    let m = Arc::clone(&metrics);
                    let mut store = AurStore::open(dir.path(), cfg, predictor, m, vfs)
                        .expect("open the AUR store");
                    Box::new(move |w| {
                        for i in 0..keys * per_key {
                            let ts = w.start + i as i64 % 1_000;
                            store.append(&key(i), w, &value, ts).expect("append");
                        }
                        for k in 0..keys {
                            store.take(&k.to_le_bytes(), w).expect("take");
                        }
                    })
                }
            };
            let start = Instant::now();
            for r in 0..rounds as i64 {
                round(WindowId::new(r * 1_000, r * 1_000 + 1_000));
            }
            let (elapsed, m) = (start.elapsed().as_secs_f64(), metrics.snapshot());
            let row = [
                name.to_string(),
                format!("{elapsed:.2}"),
                format!("{:.1}", rounds as f64 / elapsed),
                format!("{:.1}", m.bytes_read as f64 / 1e6),
                m.compactions.to_string(),
            ];
            println!("{}", row.join("\t"));
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_cell_prints_a_dash_per_metric_column_and_its_marker() {
        let size = Sizing::new(6_000, 8, Duration::from_secs(60));
        let tiny = BackendChoice::InMemory {
            budget_per_partition: 4 << 10,
        };
        let oom = run(&size.cell(&[], QueryId::Q7, tiny));
        // Paced far below the stream's length, the cell outlives 1 ms.
        let short = Sizing {
            timeout: Duration::from_millis(1),
            ..size
        };
        let mut slow = short.cell(&[], QueryId::Q7, BackendChoice::FlowKv(flowkv_cfg()));
        slow.tweak = Box::new(|opts| opts.rate_limit = Some(1_000));
        let timeout = run(&slow);
        // fig8 prints the marker in its throughput column, the others in
        // their last, `outcome`, column.
        let layouts = [
            ("fig8_throughput", 4, 4),
            ("fig4_breakdown", 2, 9),
            ("fig9_latency", 3, 6),
        ];
        for (outcome, marker) in [(&oom, "FAIL(oom)"), (&timeout, "FAIL(timeout)")] {
            for (name, keys, marker_at) in layouts {
                let header = figure(name).header;
                let keys: Vec<String> = (0..keys).map(|k| format!("key{k}")).collect();
                let row = cell_row(header, keys.clone(), outcome, |_| panic!("{marker}"));
                assert_eq!(row.len(), header.split('\t').count(), "{name}: {row:?}");
                assert_eq!(row[..keys.len()], keys);
                for (at, column) in row.iter().enumerate().skip(keys.len()) {
                    let want = if at == marker_at { marker } else { "-" };
                    assert_eq!(column, want, "{name}, column {at}: {row:?}");
                }
            }
        }
    }

    #[test]
    fn a_completed_cell_fills_its_row() {
        let size = Sizing::new(2_000, 8, Duration::from_secs(60));
        let outcome = run(&size.cell(&[], QueryId::Q7, BackendChoice::FlowKv(flowkv_cfg())));
        let metrics = |_: &JobResult| vec!["m1".to_string(), "m2".to_string()];
        let keys = vec!["k".to_string()];
        let ok = cell_row("key\ta\tb\toutcome", keys.clone(), &outcome, metrics);
        assert_eq!(ok, ["k", "m1", "m2", "ok"]);
        let no_outcome = cell_row("key\ta\tb", keys, &outcome, metrics);
        assert_eq!(no_outcome, ["k", "m1", "m2"]);
    }
}
