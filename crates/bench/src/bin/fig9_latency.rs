//! Figure 9: P95 latency versus tuple rate for Q7, Q11-Median, and Q11.
//!
//! The paper feeds tuples at fixed rates through Kafka and measures
//! 95th-percentile end-to-end latency. Here a paced in-process source
//! plays Kafka's role; every output inherits the wall-clock origin of
//! the watermark that triggered it, so the sink observes end-to-end
//! latency including all store work.
//!
//! Paper shape: FlowKV holds low tail latency up to the highest rates;
//! the LSM baseline's latency inflates under load (compaction stalls);
//! the hash baseline fails on the append queries and gives up at high
//! rates; the in-memory store fails on the large-state queries.
//!
//! Usage: `cargo run --release -p flowkv-bench --bin fig9_latency
//! [--scale=1] [--seconds=4] [--inmem-kb=768]`

use std::time::Duration;

use flowkv_bench::{
    bench_backends, header, row, run_cell, workload, HarnessArgs, EVENTS_PER_SECOND,
};
use flowkv_nexmark::{QueryId, QueryParams};

fn main() {
    let args = HarnessArgs::parse();
    let feed_seconds = args.u64("seconds", 4).max(1);
    let inmem_budget = (args.u64("inmem-kb", 768) << 10) as usize;
    let rates: Vec<u64> = [25_000u64, 50_000, 100_000, 200_000]
        .iter()
        .map(|r| (*r as f64 * args.scale()) as u64)
        .collect();

    eprintln!("fig9: rates {rates:?} tuples/s, {feed_seconds}s of feed per point");
    header(&[
        "query",
        "backend",
        "rate_per_s",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "outcome",
    ]);
    for query in [QueryId::Q7, QueryId::Q11Median, QueryId::Q11] {
        for &rate in &rates {
            let events = rate * feed_seconds;
            // Windows sized so several close during the feed.
            let span_ms = (events * 1_000 / EVENTS_PER_SECOND) as i64;
            let params = QueryParams::new((span_ms / 8).max(1)).with_parallelism(2);
            let timeout = Duration::from_secs(feed_seconds * 10 + 30);
            for backend in bench_backends(inmem_budget) {
                let outcome = run_cell(
                    query,
                    &backend,
                    workload(events, 9),
                    params,
                    timeout,
                    |opts| {
                        opts.rate_limit = Some(rate);
                        opts.record_latency = true;
                        opts.watermark_interval = 200;
                    },
                );
                match outcome.result().map(|r| r.latency()) {
                    Some(latency) => row(&[
                        query.name().to_string(),
                        backend.name().to_string(),
                        rate.to_string(),
                        format!("{:.2}", latency.p50 as f64 / 1e6),
                        format!("{:.2}", latency.p95 as f64 / 1e6),
                        format!("{:.2}", latency.p99 as f64 / 1e6),
                        "ok".to_string(),
                    ]),
                    None => row(&[
                        query.name().to_string(),
                        backend.name().to_string(),
                        rate.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        outcome.throughput_cell(),
                    ]),
                }
            }
        }
    }
}
