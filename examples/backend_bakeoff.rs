//! Backend bake-off: one query, all four state backends.
//!
//! Runs NEXMark Q11 (bids per user in session windows, the
//! read-modify-write pattern) on the in-memory store, FlowKV, the LSM
//! baseline, and the hash baseline, printing a miniature version of the
//! paper's Figure 8 comparison — including failure markers when a
//! backend cannot finish.
//!
//! Run with: `cargo run --release --example backend_bakeoff [Q7|Q11|...]`

use std::time::Duration;

use flowkv_bench::{bench_backends, run_cell, workload, CellOutcome};
use flowkv_nexmark::{QueryId, QueryParams};

fn main() {
    let query = match std::env::args().nth(1).as_deref() {
        Some("Q5") => QueryId::Q5,
        Some("Q5-Append") => QueryId::Q5Append,
        Some("Q7") => QueryId::Q7,
        Some("Q7-Session") => QueryId::Q7Session,
        Some("Q8") => QueryId::Q8,
        Some("Q11-Median") => QueryId::Q11Median,
        Some("Q12") => QueryId::Q12,
        _ => QueryId::Q11,
    };
    let events = 80_000;
    let params = QueryParams::new(1_500).with_parallelism(2);
    println!(
        "{} [{}] over {events} NEXMark events, 4 backends:\n",
        query.name(),
        query.pattern()
    );
    println!(
        "{:<10} {:>14} {:>10} {:>12}",
        "backend", "events/s", "wall s", "store cpu s"
    );
    for backend in bench_backends(512 << 10) {
        let outcome = run_cell(
            query,
            &backend,
            workload(events, 5),
            params,
            Duration::from_secs(60),
            |_| {},
        );
        match outcome {
            CellOutcome::Ok(r) => println!(
                "{:<10} {:>14.0} {:>10.2} {:>12.2}",
                backend.name(),
                r.throughput(),
                r.elapsed.as_secs_f64(),
                r.store_metrics.total_store_nanos() as f64 / 1e9,
            ),
            other => println!("{:<10} {:>14}", backend.name(), other.throughput_cell()),
        }
    }
    println!("\n(the paper's Figure 8 sweeps all eight queries and three window sizes;");
    println!(" see `cargo run --release -p flowkv-bench --bin flowkv-figures -- fig8_throughput`)");
}
