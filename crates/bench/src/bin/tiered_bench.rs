//! Hot-only vs two-tier state layout at 10× the harness state size.
//!
//! Re-runs the fig8/fig9 pattern representatives — Q7 (AAR), Q11-Median
//! (AUR), Q11 (RMW) — on FlowKV and the LSM baseline with ten times the
//! default harness event count, so window state decisively outgrows the
//! stores' buffers. Each (query, backend) cell runs three ways:
//!
//! - `hot`: the plain store, exactly as fig8 runs it;
//! - `tiered`: wrapped in the two-tier layout with a small pinned hot
//!   budget — sealed windows demote to compressed columnar cold blocks
//!   and promote back on access;
//! - `tiered0`: the pathological `hot_bytes = 0` cell — every
//!   write seals to a cold block immediately, so the whole run's state
//!   round-trips through the columnar codec.
//!
//! Every mode records fig8-style throughput and fig9-style end-to-end
//! p50/p99/p999, the `tier_*` telemetry (demotions, promotions,
//! compactions), and the cold tier's compression ratio
//! (uncompressed-bytes / cold-bytes-written). The harness asserts the
//! tier is semantically invisible — all three modes' sorted-output
//! checksums must be byte-identical per cell — before reporting.
//!
//! Writes the grid to `BENCH_tiered.json` (override with `--out=`).
//!
//! Usage: `cargo run --release -p flowkv-bench --bin tiered_bench --
//! [--scale=1.0] [--hot-kb=1024] [--timeout=1800] [--out=BENCH_tiered.json]`

use std::sync::Arc;
use std::time::Duration;

use flowkv::tier::TierConfig;
use flowkv_bench::{
    flowkv_cfg, lsm_cfg, run_cell_with, workload, HarnessArgs, BASE_EVENTS, EVENTS_PER_SECOND,
};
use flowkv_common::codec::crc32;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::{BackendChoice, FactoryOptions};

/// 10× the fig8/fig9 harness default — the "state far larger than the
/// buffers" regime the tier exists for.
const STATE_MULTIPLIER: u64 = 10;

#[derive(Default)]
struct TierStats {
    demotions: u64,
    demoted_rows: u64,
    promotions: u64,
    cold_bytes_written: u64,
    uncompressed_bytes: u64,
    compactions: u64,
}

fn tier_stats(telemetry: &Telemetry) -> TierStats {
    let mut stats = TierStats::default();
    for sample in telemetry.registry().snapshot() {
        if let SampleValue::Counter(v) = sample.value {
            match sample.name.as_str() {
                "tier_demotions_total" => stats.demotions += v,
                "tier_demoted_rows_total" => stats.demoted_rows += v,
                "tier_promotions_total" => stats.promotions += v,
                "tier_cold_bytes_written_total" => stats.cold_bytes_written += v,
                "tier_uncompressed_bytes_total" => stats.uncompressed_bytes += v,
                "tier_compactions_total" => stats.compactions += v,
                _ => {}
            }
        }
    }
    stats
}

struct Cell {
    query: &'static str,
    pattern: &'static str,
    backend: &'static str,
    mode: &'static str,
    tuples_per_sec: f64,
    elapsed_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    outputs: u64,
    outputs_crc32: u32,
    tier: TierStats,
    outcome: String,
}

fn main() {
    let args = HarnessArgs::parse();
    let events = (BASE_EVENTS as f64 * STATE_MULTIPLIER as f64 * args.scale()) as u64;
    // Moderate budget: smaller than one full-scale window's state per
    // partition, so every pattern demotes, in whole-window waves that
    // seal large blocks.
    let hot_bytes = args.u64("hot-kb", 1024) << 10;
    let timeout = Duration::from_secs(args.u64("timeout", 1800));
    let out_path = args.str("out", "BENCH_tiered.json");
    let span_ms = (events * 1_000 / EVENTS_PER_SECOND) as i64;
    let window_ms = (span_ms / 8).max(1);
    let params = QueryParams::new(window_ms).with_parallelism(2);

    eprintln!(
        "tiered_bench: {events} events ({STATE_MULTIPLIER}x harness state), window {window_ms} \
         ms, hot budget {hot_bytes} B"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for query in [QueryId::Q7, QueryId::Q11Median, QueryId::Q11] {
        for backend in [
            BackendChoice::FlowKv(flowkv_cfg()),
            BackendChoice::Lsm(lsm_cfg()),
        ] {
            for (mode, tier) in [
                ("hot", None),
                ("tiered", Some(hot_bytes)),
                ("tiered0", Some(0)),
            ] {
                let telemetry = Telemetry::new_shared();
                let handle = Arc::clone(&telemetry);
                let factory_opts = match tier {
                    None => FactoryOptions::new(),
                    Some(hot) => FactoryOptions::new().tiered(TierConfig::new(hot as usize)),
                };
                let outcome = run_cell_with(
                    query,
                    &backend,
                    factory_opts,
                    workload(events, 8),
                    params,
                    timeout,
                    |o| {
                        o.collect_outputs = true;
                        o.record_latency = true;
                        o.watermark_interval = 100;
                        o.telemetry = Some(handle);
                    },
                );
                let cell = match outcome.result() {
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
                            tuples_per_sec: r.throughput(),
                            elapsed_s: r.elapsed.as_secs_f64(),
                            p50_ms: r.latency.p50 as f64 / 1e6,
                            p99_ms: r.latency.p99 as f64 / 1e6,
                            p999_ms: r.latency.p999 as f64 / 1e6,
                            outputs: r.output_count,
                            outputs_crc32: crc32(&lines.concat()),
                            tier: tier_stats(&telemetry),
                            outcome: "ok".to_string(),
                        }
                    }
                    None => Cell {
                        query: query.name(),
                        pattern: query.pattern(),
                        backend: backend.name(),
                        mode,
                        tuples_per_sec: 0.0,
                        elapsed_s: 0.0,
                        p50_ms: 0.0,
                        p99_ms: 0.0,
                        p999_ms: 0.0,
                        outputs: 0,
                        outputs_crc32: 0,
                        tier: tier_stats(&telemetry),
                        outcome: outcome.throughput_cell(),
                    },
                };
                let ratio = if cell.tier.cold_bytes_written > 0 {
                    cell.tier.uncompressed_bytes as f64 / cell.tier.cold_bytes_written as f64
                } else {
                    0.0
                };
                eprintln!(
                    "  {} {} {}: {:.0} tuples/s, p999 {:.2} ms, {} demotions, \
                     {} promotions, compression {:.2}x ({})",
                    cell.query,
                    cell.backend,
                    cell.mode,
                    cell.tuples_per_sec,
                    cell.p999_ms,
                    cell.tier.demotions,
                    cell.tier.promotions,
                    ratio,
                    cell.outcome
                );
                cells.push(cell);
            }
        }
    }

    // The tier must be semantically invisible: per (query, backend)
    // cell, all completed modes produce byte-identical sorted output.
    for triple in cells.chunks(3) {
        let Some(hot) = triple.iter().find(|c| c.mode == "hot" && c.outcome == "ok") else {
            continue;
        };
        for tiered in triple.iter().filter(|c| c.mode != "hot") {
            if tiered.outcome == "ok" {
                assert_eq!(
                    hot.outputs_crc32, tiered.outputs_crc32,
                    "{} on {}: {} outputs diverge from hot-only (crc32 {:x} vs {:x})",
                    hot.query, hot.backend, tiered.mode, hot.outputs_crc32, tiered.outputs_crc32
                );
                // Only the forced cell is guaranteed to demote at every
                // scale; the moderate budget may hold the whole run at
                // small smoke scales.
                assert!(
                    tiered.mode != "tiered0" || tiered.tier.demotions > 0,
                    "{} on {}: hot_bytes=0 run never demoted — the cell did not exercise \
                     the cold tier",
                    hot.query,
                    hot.backend
                );
            }
        }
    }
    eprintln!("tiered_bench: all completed modes byte-identical per cell");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"tiered_state\",\n");
    json.push_str(&format!("  \"events\": {events},\n"));
    json.push_str(&format!("  \"state_multiplier\": {STATE_MULTIPLIER},\n"));
    json.push_str(&format!("  \"window_ms\": {window_ms},\n"));
    json.push_str(&format!("  \"hot_bytes\": {hot_bytes},\n"));
    json.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str("  \"parallelism\": 2,\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let ratio = if c.tier.cold_bytes_written > 0 {
            format!(
                "{:.4}",
                c.tier.uncompressed_bytes as f64 / c.tier.cold_bytes_written as f64
            )
        } else {
            "null".to_string()
        };
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"pattern\": \"{}\", \"backend\": \"{}\", \
             \"mode\": \"{}\", \"tuples_per_sec\": {:.1}, \"elapsed_s\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"outputs\": {}, \"outputs_crc32\": {}, \"tier_demotions\": {}, \
             \"tier_demoted_rows\": {}, \"tier_promotions\": {}, \"tier_compactions\": {}, \
             \"cold_bytes_written\": {}, \"uncompressed_bytes\": {}, \
             \"compression_ratio\": {}, \"outcome\": \"{}\"}}{}\n",
            c.query,
            c.pattern,
            c.backend,
            c.mode,
            c.tuples_per_sec,
            c.elapsed_s,
            c.p50_ms,
            c.p99_ms,
            c.p999_ms,
            c.outputs,
            c.outputs_crc32,
            c.tier.demotions,
            c.tier.demoted_rows,
            c.tier.promotions,
            c.tier.compactions,
            c.tier.cold_bytes_written,
            c.tier.uncompressed_bytes,
            ratio,
            c.outcome,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"throughput_tiered_vs_hot\": {\n");
    let pairs: Vec<(&Cell, &Cell)> = cells
        .chunks(3)
        .filter_map(|triple| {
            let hot = triple
                .iter()
                .find(|c| c.mode == "hot" && c.outcome == "ok")?;
            let tiered = triple
                .iter()
                .find(|c| c.mode == "tiered" && c.outcome == "ok")?;
            Some((hot, tiered))
        })
        .collect();
    for (i, (hot, tiered)) in pairs.iter().enumerate() {
        let rel = if hot.tuples_per_sec > 0.0 {
            format!("{:.3}", tiered.tuples_per_sec / hot.tuples_per_sec)
        } else {
            "null".to_string()
        };
        json.push_str(&format!(
            "    \"{}-{}\": {rel}{}\n",
            hot.query,
            hot.backend,
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("tiered_bench: wrote {out_path}");
}
