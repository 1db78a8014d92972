//! Shared plumbing of the benchmark binaries: `flowkv-figures`
//! regenerates every figure of the paper's evaluation from one table
//! (DESIGN.md §4 indexes them) and `nexmark_run` runs one cell. They
//! share:
//!
//! - [`HarnessArgs`]: a `--key=value` argument parser that refuses a
//!   value that does not parse and a flag nothing reads;
//! - backend configurations scaled so that state actually spills to disk
//!   at harness event counts ([`bench_backends`]);
//! - [`run_cell`]: one measured query execution with OOM/timeout
//!   handling, returning a [`CellOutcome`] that prints like the paper's
//!   crossed bars when a system fails.

use std::cell::Cell;
use std::collections::HashMap;
use std::str::FromStr;
use std::time::Duration;

use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_hashkv::HashDbConfig;
use flowkv_lsm::DbConfig;
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobError, JobResult, RunOptions};

/// Command-line arguments: bare names and `--key=value` flags.
///
/// A flag's value is parsed where it is read, and one that does not
/// parse exits the process with status 2, naming the flag; so does, at
/// [`HarnessArgs::finish`], a flag that nothing read.
pub struct HarnessArgs {
    names: Vec<String>,
    /// Each flag's value, and whether anything has read it.
    flags: HashMap<String, (String, Cell<bool>)>,
}

impl HarnessArgs {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let (mut names, mut flags) = (Vec::new(), HashMap::new());
        for arg in args {
            let Some(flag) = arg.strip_prefix("--") else {
                names.push(arg);
                continue;
            };
            let (key, value) = flag.split_once('=').unwrap_or((flag, ""));
            flags.insert(key.to_string(), (value.to_string(), Cell::new(false)));
        }
        HarnessArgs { names, flags }
    }

    /// The arguments that are not flags, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Returns `--scale` (default 1.0); event counts multiply by it.
    pub fn scale(&self) -> f64 {
        self.f64("scale", 1.0)
    }

    /// A float argument with a default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.value(key, default).unwrap_or_else(|e| refuse(&e))
    }

    /// An integer argument with a default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.value(key, default).unwrap_or_else(|e| refuse(&e))
    }

    /// A string argument with a default.
    pub fn str(&self, key: &str, default: &str) -> String {
        let value = self.value(key, default.to_string());
        value.unwrap_or_else(|e| refuse(&e))
    }

    /// Exits with status 2 if a flag was given that nothing has read.
    pub fn finish(&self) {
        if let Some(flag) = self.unread().first() {
            refuse(&format!("--{flag}: not a flag this run reads"));
        }
    }

    /// `--key`'s value, or `default` when it is absent.
    fn value<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        let Some((value, read)) = self.flags.get(key) else {
            return Ok(default);
        };
        read.set(true);
        value
            .parse()
            .map_err(|_| format!("--{key}={value}: not a valid value"))
    }

    /// The flags given that nothing has read, sorted.
    fn unread(&self) -> Vec<&str> {
        let unread = self.flags.iter().filter(|(_, (_, read))| !read.get());
        let mut unread: Vec<&str> = unread.map(|(key, _)| key.as_str()).collect();
        unread.sort_unstable();
        unread
    }
}

fn refuse(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
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

    fn args(list: &[&str]) -> HarnessArgs {
        HarnessArgs::from_args(list.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_value_that_does_not_parse_is_refused_by_name() {
        let args = args(&["--scale=0,05", "--timeout=2m", "--rate=7"]);
        assert_eq!(
            args.value("scale", 1.0),
            Err("--scale=0,05: not a valid value".into())
        );
        assert!(args
            .value("timeout", 120u64)
            .unwrap_err()
            .starts_with("--timeout=2m"));
        assert_eq!(args.value("rate", 40_000u64), Ok(7));
        assert_eq!(args.value("seconds", 4u64), Ok(4));
    }

    #[test]
    fn a_flag_nothing_reads_is_refused_by_name() {
        let args = args(&[
            "fig8_throughput",
            "--sclae=0.05",
            "--scale=0.05",
            "--verbose",
        ]);
        assert_eq!(args.names(), ["fig8_throughput"]);
        assert_eq!(args.scale(), 0.05);
        assert_eq!(args.unread(), ["sclae", "verbose"]);
        args.str("sclae", "");
        assert_eq!(args.unread(), ["verbose"]);
    }

    #[test]
    fn metrics_dump_reads_its_address() {
        const DEFAULT: &str = "127.0.0.1:7070";
        let given = args(&["--addr=10.0.0.7:9090"]);
        assert_eq!(given.str("addr", DEFAULT), "10.0.0.7:9090");
        assert!(given.unread().is_empty());
        assert_eq!(args(&[]).str("addr", DEFAULT), DEFAULT);
    }
}
