//! Session analytics: the AUR store under a realistic clickstream.
//!
//! A synthetic user clickstream is sessionized with 30-second gaps; per
//! session we compute the median dwell time — a non-associative
//! aggregate, so the engine must keep full tuple lists (the paper's
//! append + unaligned read pattern, its hardest case). The example then
//! prints FlowKV's predictive-batch-read statistics: hit ratio and the
//! read amplification predicted by the paper's Equation 1.
//!
//! Run with: `cargo run --release --example session_analytics`

use std::sync::Arc;

use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::Tuple;
use flowkv_spe::functions::MedianProcess;
use flowkv_spe::job::{AggregateSpec, JobBuilder};
use flowkv_spe::window::WindowAssigner;
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, RunOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a clickstream: `users` users, each producing bursts of clicks
/// separated by pauses longer than the session gap.
fn clickstream(users: u64, bursts: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut tuples = Vec::new();
    for burst in 0..bursts {
        let burst_start = burst as i64 * 120_000; // Two minutes apart.
        for user in 0..users {
            let clicks = rng.gen_range(3..12);
            let mut ts = burst_start + rng.gen_range(0..5_000);
            for _ in 0..clicks {
                let dwell_ms: u64 = rng.gen_range(200..30_000);
                tuples.push(Tuple::new(
                    format!("user-{user}").into_bytes(),
                    dwell_ms.to_le_bytes().to_vec(),
                    ts,
                ));
                ts += rng.gen_range(100..5_000);
            }
        }
    }
    tuples.sort_by_key(|t| t.timestamp);
    tuples
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = ScratchDir::new("session-analytics")?;
    let input = clickstream(500, 20);
    println!(
        "clickstream: {} events from 500 users in 20 bursts",
        input.len()
    );

    let job = JobBuilder::new("session-analytics")
        .parallelism(2)
        .window(
            "median-dwell-per-session",
            WindowAssigner::Session { gap: 30_000 },
            AggregateSpec::FullList(Arc::new(MedianProcess)),
        )
        .build();

    // A small write buffer forces the state through FlowKV's data log,
    // exercising predictive batch read.
    let config = FlowKvConfig::default()
        .with_write_buffer_bytes(64 << 10)
        .with_read_batch_ratio(0.02);
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    opts.watermark_interval = 100;

    let result = run_job(
        &job,
        input.into_iter(),
        BackendChoice::FlowKv(config).build(FactoryOptions::new()),
        &opts,
    )?;

    println!("sessions closed:   {}", result.output_count);
    println!("throughput:        {:.0} events/s", result.throughput());
    let m = &result.store_metrics;
    println!(
        "store time:        {:.1} ms write, {:.1} ms read, {:.1} ms compaction",
        m.write_nanos as f64 / 1e6,
        m.read_nanos as f64 / 1e6,
        m.compaction_nanos as f64 / 1e6,
    );
    if let Some(hit) = m.prefetch_hit_ratio() {
        println!(
            "prefetch:          hit ratio {hit:.3} → read amplification {:.3} (Eq. 1: 1/r)",
            1.0 / hit.max(f64::MIN_POSITIVE)
        );
    }
    println!("compactions:       {}", m.compactions);

    // A couple of sample outputs: median dwell per session.
    for t in result.outputs.iter().take(5) {
        println!(
            "  {} session ending {} ms: median dwell {} ms",
            String::from_utf8_lossy(&t.key),
            t.timestamp,
            u64::from_le_bytes(t.value.clone().try_into().unwrap())
        );
    }
    Ok(())
}
