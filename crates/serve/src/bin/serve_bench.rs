//! Load generator for the queryable-state server.
//!
//! Runs a rate-limited NEXMark Q12 job (RMW pattern: per-bidder counts
//! over a global window) with snapshot publication enabled, then
//! measures the serving path in two phases over the same live
//! registry:
//!
//! 1. **pipelined** — protocol v2 with `--depth` point lookups in
//!    flight per connection;
//! 2. **mixed** — a realistic blend of pipelined point batches,
//!    multi-key `LookupMany` frames, and prefix-filtered scans.
//!
//! Reports sustained lookup throughput and p50/p99/p999 latency per
//! phase and writes the same numbers to `--out` (default
//! `BENCH_serve.json`). The committed `BENCH_serve.json` additionally
//! records the removed thread-per-connection core's depth-1 baseline
//! (63k lookups/s) as history.
//!
//! Usage:
//! `cargo run --release -p flowkv-serve --bin serve_bench -- \
//!   [--events=1000000] [--rate=100000] [--threads=4] [--depth=16] \
//!   [--measure-secs=5] [--parallelism=2] [--seed=1] [--out=BENCH_serve.json]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv_bench::{flowkv_cfg, run_cell, workload, CellOutcome, HarnessArgs};
use flowkv_common::registry::StateRegistry;
use flowkv_common::types::{MAX_TIMESTAMP, MIN_TIMESTAMP};
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_serve::{Request, Response, ScanFilter, ServerBuilder, StateClient};
use flowkv_spe::BackendChoice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Q12's job/operator coordinates (see `flowkv_nexmark::queries`).
const JOB: &str = "q12";
const OPERATOR: &str = "count-global";

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One measured phase: lookups answered, wall time, and the latency of
/// each wire round trip (a pipelined batch counts once — that is the
/// latency a batched caller experiences).
struct PhaseResult {
    name: &'static str,
    lookups: u64,
    elapsed: f64,
    p50: u64,
    p99: u64,
    p999: u64,
}

impl PhaseResult {
    fn throughput(&self) -> f64 {
        self.lookups as f64 / self.elapsed
    }

    fn print(&self) {
        println!(
            "{}: {} lookups in {:.2}s = {:.0}/s  latency p50 {:.1}us p99 {:.1}us p999 {:.1}us",
            self.name,
            self.lookups,
            self.elapsed,
            self.throughput(),
            self.p50 as f64 / 1_000.0,
            self.p99 as f64 / 1_000.0,
            self.p999 as f64 / 1_000.0,
        );
    }

    fn json(&self) -> String {
        format!(
            "{{ \"name\": \"{}\", \"lookups\": {}, \"measure_secs\": {:.3}, \
             \"throughput_per_sec\": {:.1}, \"p50_nanos\": {}, \"p99_nanos\": {}, \
             \"p999_nanos\": {} }}",
            self.name,
            self.lookups,
            self.elapsed,
            self.throughput(),
            self.p50,
            self.p99,
            self.p999
        )
    }
}

/// Runs `threads` workers against `addr` for `measure_secs`, each
/// executing `work` in a loop. `work` returns (lookups answered, round
/// trips) per iteration; every iteration's latency is recorded once.
fn measure_phase(
    name: &'static str,
    addr: std::net::SocketAddr,
    threads: usize,
    measure_secs: f64,
    work: impl Fn(&mut StateClient, &mut StdRng, usize) -> u64 + Send + Sync + 'static,
) -> PhaseResult {
    let stop = Arc::new(AtomicBool::new(false));
    let work = Arc::new(work);
    let mut workers = Vec::new();
    let start = Instant::now();
    for t in 0..threads {
        let stop = Arc::clone(&stop);
        let work = Arc::clone(&work);
        workers.push(std::thread::spawn(move || {
            let mut client = StateClient::connect(addr).expect("client connect");
            let mut rng = StdRng::seed_from_u64(0xbeef ^ t as u64);
            let mut latencies = Vec::with_capacity(1 << 18);
            let mut lookups = 0u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let begin = Instant::now();
                lookups += work(&mut client, &mut rng, i);
                latencies.push(begin.elapsed().as_nanos() as u64);
                i += 1;
            }
            (latencies, lookups)
        }));
    }
    std::thread::sleep(Duration::from_secs_f64(measure_secs));
    stop.store(true, Ordering::SeqCst);
    let mut latencies = Vec::new();
    let mut lookups = 0u64;
    for w in workers {
        let (l, n) = w.join().expect("worker panicked");
        latencies.extend(l);
        lookups += n;
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    PhaseResult {
        name,
        lookups,
        elapsed,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        p999: percentile(&latencies, 0.999),
    }
}

fn point_batch(keys: &Arc<Vec<Vec<u8>>>, rng: &mut StdRng, depth: usize) -> Vec<Request> {
    (0..depth)
        .map(|_| Request::Lookup {
            job: JOB.into(),
            operator: OPERATOR.into(),
            key: keys[rng.gen_range(0..keys.len())].clone(),
            window: None,
        })
        .collect()
}

fn count_values(responses: &[Response]) -> u64 {
    responses
        .iter()
        .filter(|r| matches!(r, Response::Value { .. } | Response::ValueBatch { .. }))
        .count() as u64
}

fn main() {
    let args = HarnessArgs::parse();
    let events = args.u64("events", 1_000_000);
    let rate = args.u64("rate", 100_000);
    let threads = args.u64("threads", 4) as usize;
    let depth = (args.u64("depth", 16) as usize).max(1);
    let measure_secs = args.f64("measure-secs", 5.0);
    let parallelism = args.u64("parallelism", 2) as usize;
    let seed = args.u64("seed", 1);
    let out = args.str("out", "BENCH_serve.json");

    eprintln!(
        "serve_bench: Q12 ({events} events at {rate}/s, p={parallelism}) + {threads} lookup \
         threads, pipeline depth {depth}, {measure_secs:.1}s per phase"
    );

    let registry = StateRegistry::new_shared();

    // The job runs in the background, throttled so it is still live —
    // appending to its RMW stores and republishing snapshots — while the
    // lookup threads measure.
    let job_registry = Arc::clone(&registry);
    let job_thread = std::thread::spawn(move || {
        run_cell(
            QueryId::Q12,
            &BackendChoice::FlowKv(flowkv_cfg()),
            workload(events, seed),
            QueryParams::new(1_000).with_parallelism(parallelism),
            Duration::from_secs(600),
            move |opts| {
                opts.rate_limit = Some(rate);
                opts.watermark_interval = 200;
                opts.registry = Some(job_registry);
            },
        )
    });

    let mut server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
        .spawn()
        .expect("server spawn");
    let addr = server.local_addr();
    eprintln!("serve_bench: state server on {addr}");

    // Wait for the first snapshots, then sample real keys off a scan so
    // the lookup mix queries state that actually exists.
    let mut sampler = StateClient::connect(addr).expect("sampler connect");
    let keys = loop {
        let scan = sampler
            .scan(JOB, OPERATOR, MIN_TIMESTAMP, MAX_TIMESTAMP, 10_000)
            .ok();
        match scan {
            Some(s) if s.entries.len() >= 100 => {
                break s.entries.into_iter().map(|e| e.key).collect::<Vec<_>>();
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    eprintln!("serve_bench: sampled {} live keys", keys.len());
    let keys = Arc::new(keys);

    // Phase 1 — `depth` point lookups pipelined per round trip.
    let phase_keys = Arc::clone(&keys);
    let pipelined = measure_phase(
        "event_loop_pipelined",
        addr,
        threads,
        measure_secs,
        move |client, rng, _| {
            let batch = point_batch(&phase_keys, rng, depth);
            let responses = client.call_batch(&batch).expect("batch failed");
            count_values(&responses)
        },
    );
    pipelined.print();

    // Phase 2 — mixed workload: pipelined point batches, a LookupMany
    // frame, and a prefix-filtered scan.
    let phase_keys = Arc::clone(&keys);
    let mixed = measure_phase("event_loop_mixed", addr, threads, measure_secs, {
        move |client, rng, i| {
            match i % 4 {
                // A multi-key lookup: `depth` keys in one frame.
                0 => {
                    let many: Vec<Vec<u8>> = (0..depth)
                        .map(|_| phase_keys[rng.gen_range(0..phase_keys.len())].clone())
                        .collect();
                    let batch = client
                        .lookup_many(JOB, OPERATOR, &many, None)
                        .expect("lookup_many failed");
                    batch.found.len() as u64
                }
                // A prefix-filtered scan over a sampled key's prefix.
                1 => {
                    let key = &phase_keys[rng.gen_range(0..phase_keys.len())];
                    let prefix = key[..key.len().min(2)].to_vec();
                    let scan = client
                        .scan_filtered(
                            JOB,
                            OPERATOR,
                            ScanFilter::range(MIN_TIMESTAMP, MAX_TIMESTAMP, 64).with_prefix(prefix),
                        )
                        .expect("scan_filtered failed");
                    scan.entries.len().max(1) as u64
                }
                // Pipelined point batches.
                _ => {
                    let batch = point_batch(&phase_keys, rng, depth);
                    let responses = client.call_batch(&batch).expect("batch failed");
                    count_values(&responses)
                }
            }
        }
    });
    mixed.print();

    // Let the job drain, then shut the server down.
    let outcome = job_thread.join().expect("job thread panicked");
    let job_ok = matches!(outcome, CellOutcome::Ok(_));
    let (job_inputs, job_outputs) = match &outcome {
        CellOutcome::Ok(r) => (r.input_count, r.output_count),
        _ => (0, 0),
    };
    let requests = server.requests_served();
    server.shutdown();
    println!("job: ok={job_ok} inputs={job_inputs} outputs={job_outputs} (server answered {requests} frames)");

    let json = format!(
        "{{\n  \"benchmark\": \"serve_point_lookups\",\n  \"query\": \"Q12\",\n  \
         \"pattern\": \"RMW\",\n  \"events\": {events},\n  \"ingest_rate\": {rate},\n  \
         \"threads\": {threads},\n  \"pipeline_depth\": {depth},\n  \
         \"phases\": [\n    {},\n    {}\n  ],\n  \
         \"job_completed_ok\": {job_ok}\n}}\n",
        pipelined.json(),
        mixed.json(),
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    eprintln!("serve_bench: wrote {out}");

    if !job_ok {
        let reason = match &outcome {
            CellOutcome::OutOfMemory => "out of memory".to_string(),
            CellOutcome::Timeout => "timeout".to_string(),
            CellOutcome::Failed(msg) => msg.clone(),
            CellOutcome::Ok(_) => unreachable!(),
        };
        eprintln!("serve_bench: job failed: {reason}");
        std::process::exit(1);
    }
}
