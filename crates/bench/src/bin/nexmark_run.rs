//! General-purpose NEXMark runner: one query, one backend, full knobs.
//!
//! `flowkv-figures` sweeps fixed grids; this binary runs a single
//! configurable cell — handy for profiling, tuning, and ad-hoc
//! comparisons.
//!
//! Usage:
//! `cargo run --release -p flowkv-bench --bin nexmark_run -- \
//!   [--query=Q11-Median] [--backend=flowkv|lsm|hashkv|inmemory] \
//!   [--events=120000] [--window-ms=1500] [--parallelism=2] \
//!   [--rate=0] [--timeout=300] [--ratio=0.02] [--msa=1.5] \
//!   [--buffer-kb=1280] [--seed=1] \
//!   [--telemetry-out=run.jsonl] [--telemetry-interval-ms=250] \
//!   [--trace-out=run.trace.json] [--trace-sample=1]`
//!
//! `--ratio` and `--msa` apply to `flowkv` only; a flag the run does not
//! read, or a value that does not parse, exits with status 2.
//!
//! `--telemetry-out=` attaches the telemetry subsystem and streams
//! periodic registry snapshots (watermarks, checkpoint barriers, ETT
//! prediction error, ...), one JSON object per line, to the given file.
//!
//! `--trace-out=` enables causal span tracing and writes a Chrome
//! trace-event JSON file (load it at <https://ui.perfetto.dev> or feed
//! it to the `flowkv-trace` analyzer). `--trace-sample=N` traces every
//! Nth sealed source batch (default 1 = every batch when tracing is on).

use std::path::PathBuf;
use std::time::Duration;

use flowkv_bench::{flowkv_cfg, hashkv_cfg, lsm_cfg, run_cell, workload, CellOutcome, HarnessArgs};
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::BackendChoice;

fn main() {
    let args = HarnessArgs::parse();
    let query_name = args.str("query", "Q11-Median");
    let query = QueryId::all()
        .into_iter()
        .find(|q| q.name().eq_ignore_ascii_case(&query_name))
        .unwrap_or_else(|| {
            eprintln!("unknown query {query_name}; options:");
            for q in QueryId::all() {
                eprintln!("  {}", q.name());
            }
            std::process::exit(2);
        });

    let backend_name = args.str("backend", "flowkv");
    let buffer = (args.u64("buffer-kb", 1280) << 10) as usize;
    let backend = match backend_name.as_str() {
        "flowkv" => BackendChoice::FlowKv(
            flowkv_cfg()
                .with_write_buffer_bytes(buffer)
                .with_read_batch_ratio(args.f64("ratio", 0.02))
                .with_max_space_amplification(args.f64("msa", 1.5)),
        ),
        "lsm" => {
            let mut cfg = lsm_cfg();
            cfg.write_buffer_bytes = buffer;
            BackendChoice::Lsm(cfg)
        }
        "hashkv" => {
            let mut cfg = hashkv_cfg();
            cfg.mem_budget = buffer;
            BackendChoice::HashKv(cfg)
        }
        "inmemory" => BackendChoice::InMemory {
            budget_per_partition: buffer,
        },
        other => {
            eprintln!("unknown backend {other}; options: flowkv lsm hashkv inmemory");
            std::process::exit(2);
        }
    };

    let events = args.u64("events", 120_000);
    let window_ms = args.u64("window-ms", 1_500) as i64;
    let parallelism = args.u64("parallelism", 2) as usize;
    let rate = args.u64("rate", 0);
    let path = |key| {
        Some(args.str(key, ""))
            .filter(|p| !p.is_empty())
            .map(PathBuf::from)
    };
    let telemetry_out = path("telemetry-out");
    let telemetry_interval = Duration::from_millis(args.u64("telemetry-interval-ms", 250));
    let trace_out = path("trace-out");
    let trace_sample = args.u64("trace-sample", 0);
    let gen_cfg = workload(events, args.u64("seed", 1));
    let params = QueryParams::new(window_ms).with_parallelism(parallelism);
    let timeout = Duration::from_secs(args.u64("timeout", 300));
    args.finish();

    eprintln!(
        "{} on {backend_name}: {events} events, window {window_ms} ms, p={parallelism}{}",
        query.name(),
        if rate > 0 {
            format!(", paced at {rate}/s")
        } else {
            String::new()
        }
    );
    let outcome = run_cell(query, &backend, gen_cfg, params, timeout, |opts| {
        if rate > 0 {
            opts.rate_limit = Some(rate);
            opts.record_latency = true;
        }
        if let Some(path) = telemetry_out {
            eprintln!("telemetry -> {}", path.display());
            opts.telemetry_out = Some(path);
            opts.telemetry_interval = telemetry_interval;
        }
        if let Some(path) = trace_out {
            eprintln!("trace -> {}", path.display());
            opts.trace_out = Some(path);
        }
        if trace_sample > 0 {
            opts.trace_sample = trace_sample;
        }
    });
    match outcome {
        CellOutcome::Ok(r) => {
            let m = &r.store_metrics;
            println!("outcome        ok");
            println!("throughput     {:.0} events/s", r.throughput());
            println!("elapsed        {:.3} s", r.elapsed.as_secs_f64());
            println!("outputs        {}", r.output_count);
            println!("dropped_late   {}", r.dropped_late);
            println!(
                "store_cpu      {:.3} s  (write {:.3}, read {:.3}, compaction {:.3})",
                m.total_store_nanos() as f64 / 1e9,
                m.write_nanos as f64 / 1e9,
                m.read_nanos as f64 / 1e9,
                m.compaction_nanos as f64 / 1e9
            );
            println!(
                "io             {:.1} MB written, {:.1} MB read, {} flushes, {} compactions",
                m.bytes_written as f64 / 1e6,
                m.bytes_read as f64 / 1e6,
                m.flushes,
                m.compactions
            );
            if let Some(hit) = m.prefetch_hit_ratio() {
                println!(
                    "prefetch       hit {:.3}, {} evictions (read amp {:.3})",
                    hit,
                    m.prefetch_evictions,
                    1.0 / hit.max(f64::MIN_POSITIVE)
                );
            }
            if rate > 0 {
                let latency = r.latency();
                println!(
                    "latency        p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
                    latency.p50 as f64 / 1e6,
                    latency.p95 as f64 / 1e6,
                    latency.p99 as f64 / 1e6
                );
            }
        }
        other => println!("outcome        {}", other.throughput_cell()),
    }
}
