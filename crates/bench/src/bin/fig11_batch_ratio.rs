//! Figure 11: effect of the predictive-batch-read ratio on throughput
//! (a) and prefetch hit ratio (b) for the AUR queries.
//!
//! Paper shape: ratio 0 (prefetching disabled) reaches only ~38–40 % of
//! the best throughput; the curve saturates at ratio ≈ 0.02, where the
//! hit ratio is already ~0.93 — larger ratios only prefetch windows
//! unlikely to be read. Read amplification follows Eq. 1: 1 / hit-ratio.
//!
//! Usage: `cargo run --release -p flowkv-bench --bin fig11_batch_ratio
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
    let ratios = [0.0, 0.01, 0.02, 0.05, 0.1];

    eprintln!("fig11: {events} events, window {window_ms} ms, ratios {ratios:?}");
    header(&[
        "query",
        "read_batch_ratio",
        "mevents_per_s",
        "hit_ratio",
        "read_amplification",
        "prefetch_evictions",
        "outcome",
    ]);
    for query in [QueryId::Q11Median, QueryId::Q7Session] {
        let params = QueryParams::new(window_ms).with_parallelism(2);
        for &ratio in &ratios {
            let backend = BackendChoice::FlowKv(stressed_cfg().with_read_batch_ratio(ratio));
            let outcome = run_cell(
                query,
                &backend,
                workload(events, 11),
                params,
                timeout,
                |_| {},
            );
            match outcome.result() {
                Some(r) => {
                    let hit = r.store_metrics.prefetch_hit_ratio();
                    // Paper Eq. 1: each tuple is read 1/r times on average.
                    let amp = hit
                        .filter(|h| *h > 0.0)
                        .map(|h| format!("{:.3}", 1.0 / h))
                        .unwrap_or_else(|| "-".into());
                    row(&[
                        query.name().to_string(),
                        format!("{ratio}"),
                        format!("{:.3}", r.throughput() / 1e6),
                        hit.map(|h| format!("{h:.3}")).unwrap_or_else(|| "0".into()),
                        amp,
                        r.store_metrics.prefetch_evictions.to_string(),
                        "ok".to_string(),
                    ]);
                }
                None => row(&[
                    query.name().to_string(),
                    format!("{ratio}"),
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
