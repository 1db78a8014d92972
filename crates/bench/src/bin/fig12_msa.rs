//! Figure 12: effect of the maximum space amplification (MSA) threshold
//! on AUR throughput.
//!
//! Paper shape: throughput rises as MSA grows (fewer compactions) but
//! flattens after MSA = 1.5 — the paper's recommended setting, trading
//! negligible throughput for bounded disk usage.
//!
//! Usage: `cargo run --release -p flowkv-bench --bin fig12_msa
//! [--scale=4] [--timeout=180]`

use std::time::Duration;

use flowkv::FlowKvConfig;
use flowkv_bench::{
    flowkv_cfg, header, row, run_cell, workload, HarnessArgs, BASE_EVENTS, EVENTS_PER_SECOND,
};

/// A sensitivity-analysis configuration: a deliberately small write
/// buffer keeps the AUR disk machinery (data log, batch reads,
/// compaction) fully engaged at harness scale, as the paper's 400 GB
/// streams do to its 2 GiB buffers.
fn stressed_cfg() -> FlowKvConfig {
    flowkv_cfg().with_write_buffer_bytes(128 << 10)
}
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::BackendChoice;

fn main() {
    let args = HarnessArgs::parse();
    let events = (BASE_EVENTS as f64 * args.scale()) as u64;
    let timeout = Duration::from_secs(args.u64("timeout", 180));
    let span_ms = (events * 1_000 / EVENTS_PER_SECOND) as i64;
    let window_ms = span_ms / 8;
    let msas = [1.1, 1.25, 1.5, 2.0, 3.0];

    eprintln!("fig12: {events} events, window {window_ms} ms, MSA {msas:?}");
    header(&[
        "query",
        "msa",
        "mevents_per_s",
        "compactions",
        "compaction_s",
        "bytes_written_mb",
        "outcome",
    ]);
    for query in [QueryId::Q11Median, QueryId::Q7Session] {
        let params = QueryParams::new(window_ms).with_parallelism(2);
        for &msa in &msas {
            let backend = BackendChoice::FlowKv(stressed_cfg().with_max_space_amplification(msa));
            let outcome = run_cell(
                query,
                &backend,
                workload(events, 12),
                params,
                timeout,
                |_| {},
            );
            match outcome.result() {
                Some(r) => row(&[
                    query.name().to_string(),
                    format!("{msa}"),
                    format!("{:.3}", r.throughput() / 1e6),
                    r.store_metrics.compactions.to_string(),
                    format!("{:.3}", r.store_metrics.compaction_nanos as f64 / 1e9),
                    format!("{:.1}", r.store_metrics.bytes_written as f64 / 1e6),
                    "ok".to_string(),
                ]),
                None => row(&[
                    query.name().to_string(),
                    format!("{msa}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    outcome.throughput_cell(),
                ]),
            }
        }
    }
}
