//! Cluster scaling and live-rescale cost: `fig13_scalability` taken to
//! the sharded runtime.
//!
//! Weak scaling over `run_cluster`: every worker receives `BASE_EVENTS *
//! scale` source events, so the stream grows with the worker count N ∈
//! {1, 2, 4, 8} and ideal scaling means throughput grows linearly in N.
//! Each of the three FlowKV access patterns runs at every N — Q7 (AAR),
//! Q11-Median (AUR), Q11 (RMW) — on the FlowKV backend. One extra cell
//! rescales Q11-Median live from N=2 to N=4 at the stream midpoint and
//! reports the migration pause; its (sorted) output must checksum-match
//! the flat N=2 run over the same stream, asserting the rescale is
//! semantically invisible before any number is reported.
//!
//! Writes the grid to `BENCH_rescale.json` (override with `--out=`).
//! Like fig13, numbers flatten when the machine has fewer cores than
//! workers (the paper scales machines); the JSON records the core count.
//!
//! Usage: `cargo run --release -p flowkv-bench --bin rescale_bench --
//! [--scale=1.0] [--timeout=300] [--max-workers=8]
//! [--out=BENCH_rescale.json]`

use std::time::Duration;

use flowkv_bench::{
    flowkv_cfg, header, row, workload, HarnessArgs, BASE_EVENTS, EVENTS_PER_SECOND,
};
use flowkv_common::codec::crc32;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::Tuple;
use flowkv_nexmark::{EventGenerator, QueryId, QueryParams};
use flowkv_spe::{run_cluster, BackendChoice, ClusterResult, FactoryOptions, JobError, RunOptions};

const QUERIES: [QueryId; 3] = [QueryId::Q7, QueryId::Q11Median, QueryId::Q11];

struct Cell {
    query: &'static str,
    pattern: &'static str,
    workers: usize,
    events: u64,
    window_ms: i64,
    tuples_per_sec: f64,
    elapsed_s: f64,
    outputs: u64,
    outputs_crc32: u32,
    outcome: String,
}

fn window_ms_for(events: u64) -> i64 {
    (events * 1_000 / EVENTS_PER_SECOND) as i64 / 8
}

/// Sorted-output checksum: order-independent CRC32 over `key\tvalue\tts` lines.
fn checksum(outputs: &[Tuple]) -> u32 {
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
    crc32(&lines.concat())
}

/// One cluster run: `query` over `events` source events at `workers`
/// shards, optionally rescaling to `rescale_to` at the stream midpoint.
fn cluster_cell(
    query: QueryId,
    events: u64,
    workers: usize,
    rescale_to: Option<usize>,
    timeout: Duration,
) -> Result<ClusterResult, JobError> {
    let dir = ScratchDir::new(&format!("rescale-bench-{}-n{workers}", query.name()))
        .map_err(JobError::Store)?;
    let job = query.build(QueryParams::new(window_ms_for(events)).with_parallelism(1));
    let mut opts = RunOptions::new(dir.path().join("run"));
    opts.watermark_interval = 500;
    opts.timeout = Some(timeout);
    opts.workers = workers;
    if let Some(m) = rescale_to {
        opts.rescale_to = Some(m);
        opts.checkpoint_after_tuples = Some(events / 2);
        opts.checkpoint_dir = Some(dir.path().join("ckpt"));
    }
    run_cluster(
        &job,
        EventGenerator::new(workload(events, 11)).tuples(),
        BackendChoice::FlowKv(flowkv_cfg()).build(FactoryOptions::new()),
        &opts,
    )
}

fn to_cell(
    query: QueryId,
    workers: usize,
    events: u64,
    outcome: Result<ClusterResult, JobError>,
) -> Cell {
    match outcome {
        Ok(r) => Cell {
            query: query.name(),
            pattern: query.pattern(),
            workers,
            events,
            window_ms: window_ms_for(events),
            tuples_per_sec: r.throughput(),
            elapsed_s: r.elapsed.as_secs_f64(),
            outputs: r.output_count,
            outputs_crc32: checksum(&r.outputs),
            outcome: "ok".to_string(),
        },
        Err(e) => Cell {
            query: query.name(),
            pattern: query.pattern(),
            workers,
            events,
            window_ms: window_ms_for(events),
            tuples_per_sec: 0.0,
            elapsed_s: 0.0,
            outputs: 0,
            outputs_crc32: 0,
            outcome: match e {
                JobError::Timeout => "timeout".to_string(),
                other => format!("failed: {other}"),
            },
        },
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let base_events = (BASE_EVENTS as f64 * args.scale()) as u64;
    let timeout = Duration::from_secs(args.u64("timeout", 300));
    let out_path = args.str("out", "BENCH_rescale.json");
    let max_workers = args.u64("max-workers", 8) as usize;
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&n| n <= max_workers)
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!(
        "rescale_bench: weak scaling, {base_events} events per worker, \
         N {worker_counts:?}, {cores} CPU core(s) available"
    );
    if cores < worker_counts.last().copied().unwrap_or(1) {
        eprintln!(
            "rescale_bench: WARNING — fewer cores than the largest worker count; \
             scaling will flatten at ~{cores} workers (the paper scales machines)"
        );
    }

    header(&[
        "query",
        "workers",
        "events",
        "tuples/s",
        "elapsed_s",
        "outputs",
        "outcome",
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    for query in QUERIES {
        for &n in &worker_counts {
            let events = base_events * n as u64;
            let cell = to_cell(
                query,
                n,
                events,
                cluster_cell(query, events, n, None, timeout),
            );
            row(&[
                cell.query.to_string(),
                cell.workers.to_string(),
                cell.events.to_string(),
                format!("{:.0}", cell.tuples_per_sec),
                format!("{:.3}", cell.elapsed_s),
                cell.outputs.to_string(),
                cell.outcome.clone(),
            ]);
            cells.push(cell);
        }
    }

    // The live-rescale cell: Q11-Median over the N=2 stream, rescaling
    // 2→4 at the midpoint. Same events, same windows as the flat N=2
    // cell, so the checksums must agree.
    let mut rescale_json = "null".to_string();
    if worker_counts.contains(&2) && worker_counts.contains(&4) {
        let query = QueryId::Q11Median;
        let events = base_events * 2;
        let outcome = cluster_cell(query, events, 2, Some(4), timeout);
        match outcome {
            Ok(r) => {
                let pause = r.rescale_pause.expect("rescale must report its pause");
                let crc = checksum(&r.outputs);
                let flat = cells
                    .iter()
                    .find(|c| c.query == query.name() && c.workers == 2 && c.outcome == "ok")
                    .map(|c| c.outputs_crc32);
                if let Some(flat_crc) = flat {
                    assert_eq!(
                        crc, flat_crc,
                        "rescaled output diverged from the flat N=2 run \
                         (crc {crc:x} vs {flat_crc:x})"
                    );
                }
                row(&[
                    format!("{}(2→4)", query.name()),
                    "2→4".to_string(),
                    events.to_string(),
                    format!("{:.0}", r.throughput()),
                    format!("{:.3}", r.elapsed.as_secs_f64()),
                    r.output_count.to_string(),
                    format!("ok, pause {:.1} ms", pause.as_secs_f64() * 1e3),
                ]);
                rescale_json = format!(
                    "{{\"query\": \"{}\", \"from\": 2, \"to\": 4, \"events\": {events}, \
                     \"barrier_at\": {}, \"pause_ms\": {:.3}, \"tuples_per_sec\": {:.1}, \
                     \"outputs\": {}, \"outputs_crc32\": {}, \"matches_flat_n2\": {}, \
                     \"outcome\": \"ok\"}}",
                    query.name(),
                    events / 2,
                    pause.as_secs_f64() * 1e3,
                    r.throughput(),
                    r.output_count,
                    crc,
                    flat.map(|f| f == crc).unwrap_or(true),
                );
            }
            Err(e) => {
                let msg = match e {
                    JobError::Timeout => "timeout".to_string(),
                    other => format!("failed: {other}"),
                };
                row(&[
                    format!("{}(2→4)", query.name()),
                    "2→4".to_string(),
                    events.to_string(),
                    "0".to_string(),
                    "0.000".to_string(),
                    "0".to_string(),
                    msg.clone(),
                ]);
                rescale_json = format!("{{\"outcome\": \"{msg}\"}}");
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"rescale_scalability\",\n");
    json.push_str("  \"backend\": \"flowkv\",\n");
    json.push_str("  \"scaling\": \"weak\",\n");
    json.push_str(&format!("  \"base_events_per_worker\": {base_events},\n"));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"worker_counts\": [{}],\n",
        worker_counts
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"pattern\": \"{}\", \"workers\": {}, \
             \"events\": {}, \"window_ms\": {}, \"tuples_per_sec\": {:.1}, \
             \"elapsed_s\": {:.3}, \"outputs\": {}, \"outputs_crc32\": {}, \
             \"outcome\": \"{}\"}}{}\n",
            c.query,
            c.pattern,
            c.workers,
            c.events,
            c.window_ms,
            c.tuples_per_sec,
            c.elapsed_s,
            c.outputs,
            c.outputs_crc32,
            c.outcome,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"rescale\": {rescale_json},\n"));
    json.push_str("  \"speedup_vs_n1\": {\n");
    for (qi, query) in QUERIES.iter().enumerate() {
        let tput = |n: usize| {
            cells
                .iter()
                .find(|c| c.query == query.name() && c.workers == n && c.outcome == "ok")
                .map(|c| c.tuples_per_sec)
        };
        let base = tput(1);
        let speedups: Vec<String> = worker_counts
            .iter()
            .map(|&n| match (base, tput(n)) {
                (Some(b), Some(t)) if b > 0.0 => format!("\"n{n}\": {:.3}", t / b),
                _ => format!("\"n{n}\": null"),
            })
            .collect();
        json.push_str(&format!(
            "    \"{}\": {{{}}}{}\n",
            query.name(),
            speedups.join(", "),
            if qi + 1 < QUERIES.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("rescale_bench: wrote {out_path}");
}
