//! Cold-state tail latency with and without the background I/O ring.
//!
//! Runs one query per anticipatable access pattern — Q7 (AAR window
//! drains), Q11-Median (AUR predictive batch reads), Q11 (RMW over the
//! LSM baseline's block cache) — on FlowKV and the LSM baseline, once
//! fully synchronously and once with the per-worker I/O ring enabled.
//! Write buffers are harness-small so triggers read cold state from
//! disk, and the stores mount a `SlowVfs` that emulates device read
//! latency (`--read-delay-us`) — on a page-cache-warm filesystem the
//! stall the ring hides would not exist to measure.
//!
//! Both modes are paced at the same sub-saturation rate per cell (the
//! fig. 9 methodology — see `paced_rate`), so the comparison is at
//! equal throughput and tail latency measures read stalls, not queue
//! backlog. Each cell records throughput and end-to-end p50/p99/p999,
//! checksums its sorted outputs, and reads the `prefetch_*` telemetry
//! families for hit rate and ETT timeliness. The harness asserts the
//! ring is semantically invisible (sync and ring checksums equal per
//! cell pair and across repeats) before reporting any speedup.
//!
//! Writes the grid to `BENCH_prefetch.json` (override with `--out=`).
//!
//! Usage: `cargo run --release -p flowkv-bench --bin prefetch_bench --
//! [--scale=1.0] [--io-threads=2] [--read-delay-us=150] [--repeat=3]
//! [--timeout=300] [--out=BENCH_prefetch.json]`

use std::sync::Arc;
use std::time::Duration;

use flowkv::FlowKvConfig;
use flowkv_bench::{run_cell_with, workload, HarnessArgs, BASE_EVENTS, EVENTS_PER_SECOND};
use flowkv_common::codec::crc32;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_common::vfs::{SlowVfs, StdVfs};
use flowkv_lsm::DbConfig;
use flowkv_nexmark::{GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::{BackendChoice, FactoryOptions};

/// FlowKV sized so window state spills to the data log well before its
/// trigger fires — the reads the ring exists to anticipate.
fn cold_flowkv_cfg() -> FlowKvConfig {
    FlowKvConfig::default()
        .with_write_buffer_bytes(64 << 10)
        .with_read_batch_ratio(0.1)
        // Generous space bound: every compaction bumps the store
        // generation, which invalidates all in-flight background reads
        // — the sync/ring comparison should measure prefetch, not
        // compaction churn.
        .with_max_space_amplification(4.0)
        .with_store_instances(2)
}

/// The LSM baseline with a write buffer and block cache small enough
/// that RMW point reads miss the cache and go to the SSTs.
fn cold_lsm_cfg() -> DbConfig {
    DbConfig {
        write_buffer_bytes: 32 << 10,
        block_size: 1024,
        block_cache_bytes: 64 << 10,
        l0_compaction_trigger: 4,
        level_base_bytes: 256 << 10,
        level_multiplier: 8,
        target_file_size: 64 << 10,
    }
}

/// The harness workload narrowed to a keyspace with enough per-key
/// repetition for the ETT model to predict session triggers.
fn cold_workload(events: u64) -> GeneratorConfig {
    GeneratorConfig {
        active_people: 400,
        active_auctions: 400,
        ..workload(events, 17)
    }
}

/// Paced feed rate per cell, ~60 % of the cell's measured synchronous
/// saturation throughput at the default read delay. Latency on an
/// unpaced run is queue backlog — whichever mode is marginally slower
/// reports its input queue, not its read stalls. Pacing both modes at
/// the same sub-saturation rate compares them at equal throughput,
/// which is where a trigger's synchronous read stall is visible as
/// tail latency (the paper's fig. 9 methodology).
fn paced_rate(query: QueryId, backend: &BackendChoice) -> u64 {
    match (query, backend.name()) {
        (QueryId::Q7, "flowkv") => 200_000,
        (QueryId::Q7, _) => 90_000,
        (QueryId::Q11Median, "flowkv") => 3_500,
        (QueryId::Q11Median, _) => 50_000,
        (QueryId::Q11, "flowkv") => 150_000,
        _ => 50_000,
    }
}

struct PrefetchStats {
    issued: u64,
    hits: u64,
    late: u64,
    wasted_bytes: u64,
    timeliness_count: u64,
    timeliness_mean_ms: f64,
}

/// Sums the prefetch-accuracy families across every store instance.
fn prefetch_stats(telemetry: &Telemetry) -> PrefetchStats {
    let mut stats = PrefetchStats {
        issued: 0,
        hits: 0,
        late: 0,
        wasted_bytes: 0,
        timeliness_count: 0,
        timeliness_mean_ms: 0.0,
    };
    let mut timeliness_sum = 0.0f64;
    for sample in telemetry.registry().snapshot() {
        match (&sample.value, sample.name.as_str()) {
            (SampleValue::Counter(v), n) if n.starts_with("prefetch_issued_total") => {
                stats.issued += v;
            }
            (SampleValue::Counter(v), n) if n.starts_with("prefetch_hits_total") => {
                stats.hits += v;
            }
            (SampleValue::Counter(v), n) if n.starts_with("prefetch_late_total") => {
                stats.late += v;
            }
            (SampleValue::Counter(v), n) if n.starts_with("prefetch_wasted_bytes") => {
                stats.wasted_bytes += v;
            }
            (SampleValue::Histogram(h), n) if n.starts_with("prefetch_timeliness_ms") => {
                stats.timeliness_count += h.count;
                timeliness_sum += h.mean() * h.count as f64;
            }
            _ => {}
        }
    }
    if stats.timeliness_count > 0 {
        stats.timeliness_mean_ms = timeliness_sum / stats.timeliness_count as f64;
    }
    stats
}

struct Cell {
    query: &'static str,
    pattern: &'static str,
    backend: &'static str,
    mode: &'static str,
    rate: u64,
    tuples_per_sec: f64,
    elapsed_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    outputs: u64,
    outputs_crc32: u32,
    prefetch: PrefetchStats,
    outcome: String,
}

fn main() {
    let args = HarnessArgs::parse();
    let events = (BASE_EVENTS as f64 * args.scale()) as u64;
    let io_threads = args.u64("io-threads", 2) as usize;
    let timeout = Duration::from_secs(args.u64("timeout", 300));
    let out_path = args.str("out", "BENCH_prefetch.json");
    // Best-of-N repeats per cell: scheduling noise on a shared machine
    // exceeds single-run tail effects, so each cell keeps its
    // least-disturbed (lowest-p999) completed run.
    let repeats = args.u64("repeat", 3).max(1);
    // Emulated device read latency (see `SlowVfs`): on a page-cache-warm
    // filesystem every "cold" read returns in microseconds, so the stall
    // the ring exists to hide would not exist to measure.
    let read_delay_us = args.u64("read-delay-us", 150);
    let vfs = SlowVfs::wrap(StdVfs::shared(), Duration::from_micros(read_delay_us));
    let span_ms = (events * 1_000 / EVENTS_PER_SECOND) as i64;
    let window_ms = (span_ms / 8).max(1);
    let params = QueryParams::new(window_ms).with_parallelism(2);

    eprintln!(
        "prefetch_bench: {events} events, window {window_ms} ms, ring {io_threads} threads, \
         read delay {read_delay_us} us"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for query in [QueryId::Q7, QueryId::Q11Median, QueryId::Q11] {
        for backend in [
            BackendChoice::FlowKv(cold_flowkv_cfg()),
            BackendChoice::Lsm(cold_lsm_cfg()),
        ] {
            let rate = paced_rate(query, &backend);
            for (mode, threads) in [("sync", 0usize), ("ring", io_threads)] {
                let run_once = || {
                    let telemetry = Telemetry::new_shared();
                    let handle = Arc::clone(&telemetry);
                    let outcome = run_cell_with(
                        query,
                        &backend,
                        FactoryOptions::new().vfs(Arc::clone(&vfs)),
                        cold_workload(events),
                        params,
                        timeout,
                        |o| {
                            o.collect_outputs = true;
                            o.record_latency = true;
                            o.rate_limit = Some(rate);
                            // Fine-grained ticks: prefetch submissions ride
                            // the watermark cadence, and a 500 ms tick makes
                            // every background batch huge and late.
                            o.watermark_interval = 100;
                            o.io_threads = threads;
                            o.telemetry = Some(handle);
                        },
                    );
                    match outcome.result() {
                        Some(r) => {
                            let mut lines: Vec<Vec<u8>> = r
                                .outputs
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
                            Cell {
                                query: query.name(),
                                pattern: query.pattern(),
                                backend: backend.name(),
                                mode,
                                rate,
                                tuples_per_sec: r.throughput(),
                                elapsed_s: r.elapsed.as_secs_f64(),
                                p50_ms: r.latency.p50 as f64 / 1e6,
                                p99_ms: r.latency.p99 as f64 / 1e6,
                                p999_ms: r.latency.p999 as f64 / 1e6,
                                outputs: r.output_count,
                                outputs_crc32: crc32(&lines.concat()),
                                prefetch: prefetch_stats(&telemetry),
                                outcome: "ok".to_string(),
                            }
                        }
                        None => Cell {
                            query: query.name(),
                            pattern: query.pattern(),
                            backend: backend.name(),
                            mode,
                            rate,
                            tuples_per_sec: 0.0,
                            elapsed_s: 0.0,
                            p50_ms: 0.0,
                            p99_ms: 0.0,
                            p999_ms: 0.0,
                            outputs: 0,
                            outputs_crc32: 0,
                            prefetch: prefetch_stats(&telemetry),
                            outcome: outcome.throughput_cell(),
                        },
                    }
                };
                let mut best: Option<Cell> = None;
                for attempt in 0..repeats {
                    let cell = run_once();
                    eprintln!(
                        "  {} {} {} [{}/{}]: {:.0} tuples/s, p99 {:.2} ms, \
                         p999 {:.2} ms, {} issued / {} hits ({})",
                        cell.query,
                        cell.backend,
                        cell.mode,
                        attempt + 1,
                        repeats,
                        cell.tuples_per_sec,
                        cell.p99_ms,
                        cell.p999_ms,
                        cell.prefetch.issued,
                        cell.prefetch.hits,
                        cell.outcome
                    );
                    // Repeats must agree byte-for-byte before one is kept.
                    if let Some(b) = &best {
                        if b.outcome == "ok" && cell.outcome == "ok" {
                            assert_eq!(
                                b.outputs_crc32, cell.outputs_crc32,
                                "{} on {} ({}): outputs diverge across repeats",
                                cell.query, cell.backend, cell.mode
                            );
                        }
                    }
                    let better = match &best {
                        None => true,
                        Some(b) if b.outcome != "ok" => true,
                        Some(b) => cell.outcome == "ok" && cell.p999_ms < b.p999_ms,
                    };
                    if better {
                        best = Some(cell);
                    }
                }
                cells.push(best.expect("at least one repeat"));
            }
        }
    }

    // The ring must be semantically invisible: for every (query, backend)
    // pair whose runs completed, sync and ring outputs are byte-identical.
    for pair in cells.chunks(2) {
        let [sync, ring] = pair else { continue };
        if sync.outcome == "ok" && ring.outcome == "ok" {
            assert_eq!(
                sync.outputs_crc32, ring.outputs_crc32,
                "{} on {}: ring outputs diverge from sync (crc32 {:x} vs {:x})",
                sync.query, sync.backend, sync.outputs_crc32, ring.outputs_crc32
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"prefetch_ring\",\n");
    json.push_str(&format!("  \"events\": {events},\n"));
    json.push_str(&format!("  \"window_ms\": {window_ms},\n"));
    json.push_str(&format!("  \"io_threads\": {io_threads},\n"));
    json.push_str(&format!("  \"read_delay_us\": {read_delay_us},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str("  \"parallelism\": 2,\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let hit_rate = if c.prefetch.issued > 0 {
            format!("{:.4}", c.prefetch.hits as f64 / c.prefetch.issued as f64)
        } else {
            "null".to_string()
        };
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"pattern\": \"{}\", \"backend\": \"{}\", \
             \"mode\": \"{}\", \"rate_limit\": {}, \"tuples_per_sec\": {:.1}, \
             \"elapsed_s\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"outputs\": {}, \"outputs_crc32\": {}, \"prefetch_issued\": {}, \
             \"prefetch_hits\": {}, \"prefetch_late\": {}, \"prefetch_wasted_bytes\": {}, \
             \"prefetch_hit_rate\": {}, \"timeliness_mean_ms\": {:.2}, \
             \"outcome\": \"{}\"}}{}\n",
            c.query,
            c.pattern,
            c.backend,
            c.mode,
            c.rate,
            c.tuples_per_sec,
            c.elapsed_s,
            c.p50_ms,
            c.p99_ms,
            c.p999_ms,
            c.outputs,
            c.outputs_crc32,
            c.prefetch.issued,
            c.prefetch.hits,
            c.prefetch.late,
            c.prefetch.wasted_bytes,
            hit_rate,
            c.prefetch.timeliness_mean_ms,
            c.outcome,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"p999_speedup_ring_vs_sync\": {\n");
    let pairs: Vec<(&Cell, &Cell)> = cells
        .chunks(2)
        .filter_map(|pair| match pair {
            [s, r] if s.outcome == "ok" && r.outcome == "ok" => Some((s, r)),
            _ => None,
        })
        .collect();
    for (i, (sync, ring)) in pairs.iter().enumerate() {
        let speedup = if ring.p999_ms > 0.0 {
            format!("{:.3}", sync.p999_ms / ring.p999_ms)
        } else {
            "null".to_string()
        };
        json.push_str(&format!(
            "    \"{}-{}\": {speedup}{}\n",
            sync.query,
            sync.backend,
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("prefetch_bench: wrote {out_path}");
}
