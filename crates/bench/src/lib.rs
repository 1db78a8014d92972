//! Shared harness plumbing for the per-figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). They share:
//!
//! - [`HarnessArgs`]: a tiny `--key=value` argument parser with a
//!   `--scale` knob that multiplies the event count (default sizes run
//!   each figure in minutes on a laptop);
//! - backend configurations scaled so that state actually spills to disk
//!   at harness event counts ([`bench_backends`]);
//! - [`run_cell`]: one measured query execution with OOM/timeout
//!   handling, returning a [`CellOutcome`] that prints like the paper's
//!   crossed bars when a system fails;
//! - TSV table output helpers.

use std::collections::HashMap;
use std::time::Duration;

use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_hashkv::HashDbConfig;
use flowkv_lsm::DbConfig;
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::executor::JobError;
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobResult, RunOptions};

/// Parsed `--key=value` command-line arguments.
pub struct HarnessArgs {
    map: HashMap<String, String>,
}

impl HarnessArgs {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        let mut map = HashMap::new();
        for arg in std::env::args().skip(1) {
            if let Some(rest) = arg.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    map.insert(k.to_string(), v.to_string());
                }
            }
        }
        HarnessArgs { map }
    }

    /// Returns `--scale` (default 1.0); event counts multiply by it.
    pub fn scale(&self) -> f64 {
        self.f64("scale", 1.0)
    }

    /// A float argument with a default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// An integer argument with a default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A string argument with a default.
    pub fn str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// Base event count that `--scale` multiplies.
pub const BASE_EVENTS: u64 = 120_000;

/// Event-time rate of the generated stream (events per stream-second).
pub const EVENTS_PER_SECOND: u64 = 10_000;

/// The write-buffer size used by every store in the harnesses, scaled so
/// harness-sized streams spill to disk the way the paper's 400 GB streams
/// spill past 2 GiB buffers.
pub const HARNESS_BUFFER: usize = 256 << 10;

/// Builds the generator config for `events` total events.
pub fn workload(events: u64, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_events: events,
        seed,
        first_ts: 0,
        events_per_second: EVENTS_PER_SECOND,
        active_people: 2_000,
        active_auctions: 2_000,
        hot_ratio: 0.1,
        out_of_order_ms: 0,
    }
}

/// FlowKV configured for harness scale (paper defaults otherwise).
///
/// Memory parity with the LSM baseline: the LSM gets `HARNESS_BUFFER` of
/// memtable plus a 1 MiB block cache, so FlowKV's write buffer gets the
/// same total (the paper likewise gives every store the machine's
/// remaining memory as buffers/caches, §6).
pub fn flowkv_cfg() -> FlowKvConfig {
    FlowKvConfig::default()
        .with_write_buffer_bytes(HARNESS_BUFFER + (1 << 20))
        .with_read_batch_ratio(0.02)
        .with_max_space_amplification(1.5)
        .with_store_instances(2)
}

/// The LSM baseline configured for harness scale.
pub fn lsm_cfg() -> DbConfig {
    DbConfig {
        write_buffer_bytes: HARNESS_BUFFER,
        block_size: 4096,
        block_cache_bytes: 1 << 20,
        l0_compaction_trigger: 4,
        level_base_bytes: 1 << 20,
        level_multiplier: 8,
        target_file_size: 512 << 10,
    }
}

/// The hash baseline configured for harness scale.
pub fn hashkv_cfg() -> HashDbConfig {
    HashDbConfig {
        mem_budget: HARNESS_BUFFER,
        max_space_amplification: 2.0,
        min_compact_bytes: 1 << 20,
        initial_index_capacity: 1 << 12,
    }
}

/// The four evaluated backends at harness scale.
///
/// `inmem_budget` bounds the in-memory store per partition, reproducing
/// the paper's fixed heap allocation.
pub fn bench_backends(inmem_budget: usize) -> Vec<BackendChoice> {
    vec![
        BackendChoice::InMemory {
            budget_per_partition: inmem_budget,
        },
        BackendChoice::FlowKv(flowkv_cfg()),
        BackendChoice::Lsm(lsm_cfg()),
        BackendChoice::HashKv(hashkv_cfg()),
    ]
}

/// One measured execution, or the reason it failed.
pub enum CellOutcome {
    /// The run completed.
    Ok(Box<JobResult>),
    /// The in-memory store exhausted its budget (paper: crossed bars).
    OutOfMemory,
    /// The wall-clock timeout expired (paper: Faster's append DNFs).
    Timeout,
    /// Another failure.
    Failed(String),
}

impl CellOutcome {
    /// Throughput in million events per second, or a failure marker.
    pub fn throughput_cell(&self) -> String {
        match self {
            CellOutcome::Ok(r) => format!("{:.3}", r.throughput() / 1e6),
            CellOutcome::OutOfMemory => "FAIL(oom)".to_string(),
            CellOutcome::Timeout => "FAIL(timeout)".to_string(),
            CellOutcome::Failed(_) => "FAIL".to_string(),
        }
    }

    /// The completed result, if any.
    pub fn result(&self) -> Option<&JobResult> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// Runs one `(query, backend)` cell over a fresh scratch directory.
pub fn run_cell(
    query: QueryId,
    backend: &BackendChoice,
    gen_cfg: GeneratorConfig,
    params: QueryParams,
    timeout: Duration,
    tune: impl FnOnce(&mut RunOptions),
) -> CellOutcome {
    let dir = match ScratchDir::new(&format!("bench-{}-{}", query.name(), backend.name())) {
        Ok(d) => d,
        Err(e) => return CellOutcome::Failed(e.to_string()),
    };
    let job = query.build(params);
    let mut opts = RunOptions::new(dir.path());
    opts.watermark_interval = 500;
    opts.timeout = Some(timeout);
    tune(&mut opts);
    // When a harness asks for the JSONL stream without supplying its own
    // telemetry handle, create one here so the generator's event-type
    // counters land in the same registry as the executor's.
    if opts.telemetry.is_none() && opts.telemetry_out.is_some() {
        opts.telemetry = Some(flowkv_common::telemetry::Telemetry::new_shared());
    }
    let outcome = run_job(
        &job,
        EventGenerator::new(gen_cfg).tuples_with_telemetry(opts.telemetry.clone()),
        backend.build(FactoryOptions::new()),
        &opts,
    );
    match outcome {
        Ok(result) => CellOutcome::Ok(Box::new(result)),
        Err(JobError::Timeout) => CellOutcome::Timeout,
        Err(JobError::Store(e)) if e.is_out_of_memory() => CellOutcome::OutOfMemory,
        Err(e) => CellOutcome::Failed(e.to_string()),
    }
}

/// Prints one TSV row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Prints a TSV header row.
pub fn header(cells: &[&str]) {
    println!("{}", cells.join("\t"));
}

/// Formats nanoseconds as seconds with millisecond precision.
pub fn secs(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_sized() {
        let cfg = workload(1_000, 1);
        assert_eq!(cfg.num_events, 1_000);
        assert_eq!(cfg.events_per_second, EVENTS_PER_SECOND);
    }

    #[test]
    fn backends_are_the_papers_four() {
        let names: Vec<&str> = bench_backends(1 << 20).iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["inmemory", "flowkv", "lsm", "hashkv"]);
    }

    #[test]
    fn small_cell_runs_end_to_end() {
        let outcome = run_cell(
            QueryId::Q12,
            &BackendChoice::FlowKv(FlowKvConfig::small_for_tests()),
            workload(5_000, 3),
            QueryParams::new(1_000).with_parallelism(2),
            Duration::from_secs(30),
            |_| {},
        );
        let result = match &outcome {
            CellOutcome::Ok(r) => r,
            _ => panic!("cell failed: {}", outcome.throughput_cell()),
        };
        assert_eq!(result.input_count, 5_000);
        assert!(result.output_count > 0);
    }
}
