//! Ablation: the number of store instances per operator (`m`, paper §3).
//!
//! FlowKV sub-partitions each operator's state into `m` independent
//! instances so compactions run on a fraction of the state. This harness
//! sweeps `m` on an AUR query with latency recording: larger `m` should
//! smooth tail latency (smaller, more frequent compactions) at similar
//! throughput, which is the paper's justification for `m = 2`.
//!
//! Usage: `cargo run --release -p flowkv-bench --bin abl_store_instances
//! [--scale=1]`

use std::time::Duration;

use flowkv_bench::{
    flowkv_cfg, header, row, run_cell, workload, HarnessArgs, BASE_EVENTS, EVENTS_PER_SECOND,
};
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::BackendChoice;

fn main() {
    let args = HarnessArgs::parse();
    let events = (BASE_EVENTS as f64 * args.scale()) as u64;
    let span_ms = (events * 1_000 / EVENTS_PER_SECOND) as i64;
    let window_ms = span_ms / 8;
    let rate = args.u64("rate", 40_000);

    eprintln!("ablation m: {events} events at {rate}/s, window {window_ms} ms");
    header(&[
        "store_instances",
        "mevents_per_s",
        "p95_ms",
        "p99_ms",
        "max_ms",
        "compactions",
        "outcome",
    ]);
    for m in [1usize, 2, 4, 8] {
        // The stressed buffer keeps compaction active so the per-instance
        // compaction scope (the thing `m` controls) actually matters.
        // The total buffer scales with `m` so each instance keeps the
        // same 64 KiB: the sweep isolates compaction scope, not memory.
        let backend = BackendChoice::FlowKv(
            flowkv_cfg()
                .with_write_buffer_bytes((64 << 10) * m)
                .with_store_instances(m),
        );
        let params = QueryParams::new(window_ms).with_parallelism(2);
        let outcome = run_cell(
            QueryId::Q11Median,
            &backend,
            workload(events, 30),
            params,
            Duration::from_secs(300),
            |opts| {
                opts.rate_limit = Some(rate);
                opts.record_latency = true;
            },
        );
        match outcome.result().map(|r| (r, r.latency())) {
            Some((r, latency)) => row(&[
                m.to_string(),
                format!("{:.3}", r.throughput() / 1e6),
                format!("{:.2}", latency.p95 as f64 / 1e6),
                format!("{:.2}", latency.p99 as f64 / 1e6),
                format!("{:.2}", latency.max as f64 / 1e6),
                r.store_metrics.compactions.to_string(),
                "ok".to_string(),
            ]),
            None => row(&[
                m.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                outcome.throughput_cell(),
            ]),
        }
    }
}
