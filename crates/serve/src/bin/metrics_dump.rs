//! `flowkv-metrics-dump`: one-shot metrics scrape of a live state
//! server.
//!
//! Connects, fetches the server's full metric surface — the telemetry
//! registry plus the `store_*{job,operator}` counters of every published
//! operator — and prints it to stdout in Prometheus text exposition
//! format 0.0.4, exactly what a scrape of the server's Prometheus opcode
//! returns, so the binary doubles as a debugging `curl` for the binary
//! protocol:
//!
//! ```text
//! cargo run -p flowkv-serve --bin flowkv-metrics-dump -- --addr=127.0.0.1:7070
//! ```

use flowkv_bench::HarnessArgs;
use flowkv_serve::StateClient;

fn main() {
    let args = HarnessArgs::parse();
    let addr = args.str("addr", "127.0.0.1:7070");
    args.finish();

    let mut client = match StateClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("flowkv-metrics-dump: connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    client
        .set_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("set_timeout");
    match client.prometheus() {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("flowkv-metrics-dump: prometheus fetch: {e}");
            std::process::exit(1);
        }
    }
}
