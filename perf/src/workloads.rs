//! The five frozen workloads: what runs, on which store configuration,
//! at which sizes and rates. Parent and change always see identical
//! load, so nothing here may depend on how fast the program is.

use std::sync::Arc;
use std::time::Duration;

use flowkv::tier::TierConfig;
use flowkv::FlowKvConfig;
use flowkv_bench::{flowkv_cfg, lsm_cfg, workload};
use flowkv_common::codec::crc32;
use flowkv_common::types::Tuple;
use flowkv_common::vfs::{SlowVfs, StdVfs, Vfs};
use flowkv_lsm::DbConfig;
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::{BackendChoice, FactoryOptions, RunOptions};

/// `run_seconds` of `BENCHMARK.json`: the measuring time the sizes below
/// were tuned for. A run at least this long is "at benchmark scale".
pub const RUN_SECONDS: f64 = 20.0;

/// Operator parallelism of every job; with the source and sink threads
/// this already oversubscribes the 2-core reference box.
pub const PARALLELISM: usize = 2;

/// Emulated device read latency of the cold workload.
const COLD_READ_DELAY: Duration = Duration::from_micros(150);

/// How a workload's state stores are laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `flowkv_cfg()` on the real filesystem (page-cache warm).
    Hot,
    /// `Hot` wrapped in the two-tier layout with a 1 MiB hot budget.
    Tiered,
    /// Small buffers on a `SlowVfs`, reads anticipated by a 2-thread I/O
    /// ring (the configuration of `prefetch_bench`).
    Cold,
}

/// One benchmark workload. Names are permanent.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub query: QueryId,
    pub layout: Layout,
    /// Window length in event-time milliseconds (session gap is a tenth).
    pub window_ms: i64,
    /// Events in the stream at scale 1.
    pub events: u64,
    /// Distinct active bidders and auctions.
    pub people: u64,
    /// Fixed source rate of the paced (open-loop) phase of a traced run,
    /// tuples per second of wall time; well below the unpaced throughput.
    pub paced_rate: u64,
    /// Tuples between source watermarks.
    pub watermark_interval: usize,
    /// Whether the job publishes its state and a client queries it for
    /// as long as the job runs.
    pub serve: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "q7-aar-max",
        why: "Q7 full-list max over fixed windows (AAR), hot: engine-dominated, the store is a minority of worker time, so exchange, operator and codec work shows here",
        query: QueryId::Q7,
        layout: Layout::Hot,
        window_ms: 15_000,
        events: 600_000,
        people: 2_000,
        paced_rate: 120_000,
        watermark_interval: 500,
        serve: false,
    },
    Workload {
        name: "q11m-aur-max",
        why: "Q11-Median over long session windows (AUR), hot: store-dominated, predictive batch reads, index scans and compaction do most of the work",
        query: QueryId::Q11Median,
        layout: Layout::Hot,
        window_ms: 15_000,
        events: 300_000,
        people: 2_000,
        paced_rate: 60_000,
        watermark_interval: 500,
        serve: false,
    },
    Workload {
        name: "q7-aar-tiered",
        why: "Same input and query as q7-aar-max behind a 1 MiB hot tier: demote, columnar cold log, promote on trigger; its ratio to q7-aar-max is the cost of tiering",
        query: QueryId::Q7,
        layout: Layout::Tiered,
        window_ms: 15_000,
        events: 600_000,
        people: 2_000,
        paced_rate: 120_000,
        watermark_interval: 500,
        serve: false,
    },
    Workload {
        name: "q11m-aur-cold",
        why: "Q11-Median, short sessions, small buffers on 150 us reads with a 2-thread I/O ring: sleep-bound, so prefetch accuracy and timeliness decide it and CPU savings predict no change",
        query: QueryId::Q11Median,
        layout: Layout::Cold,
        window_ms: 750,
        events: 12_500,
        people: 400,
        paced_rate: 2_500,
        watermark_interval: 100,
        serve: false,
    },
    Workload {
        name: "q12-rmw-serve",
        why: "Q12 per-bidder counts (RMW) publishing snapshots while one pipelined client reads them: the only workload where serving runs, so a serve gain that costs ingest shows here",
        query: QueryId::Q12,
        layout: Layout::Hot,
        window_ms: 1_000,
        events: 500_000,
        people: 2_000,
        paced_rate: 100_000,
        watermark_interval: 200,
        serve: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// FlowKV sized so session state spills to the data log well before its
/// trigger fires (copied from `prefetch_bench`).
fn cold_flowkv_cfg() -> FlowKvConfig {
    FlowKvConfig::default()
        .with_write_buffer_bytes(64 << 10)
        .with_read_batch_ratio(0.1)
        .with_max_space_amplification(4.0)
        .with_store_instances(2)
}

/// The LSM reference with buffers small enough to miss its block cache
/// (copied from `prefetch_bench`).
fn cold_lsm_cfg() -> DbConfig {
    DbConfig {
        write_buffer_bytes: 32 << 10,
        block_size: 1024,
        block_cache_bytes: 64 << 10,
        l0_compaction_trigger: 4,
        level_base_bytes: 256 << 10,
        level_multiplier: 8,
        target_file_size: 64 << 10,
    }
}

/// Which store a job runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The system under test.
    FlowKv,
    /// The LSM reference backend (reported, never gated).
    Lsm,
    /// Unbounded in-memory store: the correctness oracle and the engine
    /// ceiling.
    InMemory,
}

impl Workload {
    /// Events in the stream at `scale`.
    pub fn events_at(&self, scale: f64) -> u64 {
        ((self.events as f64 * scale) as u64).max(1_000)
    }

    fn generator(&self, seed: u64, scale: f64) -> GeneratorConfig {
        GeneratorConfig {
            active_people: self.people,
            active_auctions: self.people,
            ..workload(self.events_at(scale), seed)
        }
    }

    /// Materialises the input stream. The seed stops here: the program
    /// under test only ever sees the tuples.
    pub fn input(&self, seed: u64, scale: f64) -> Vec<Tuple> {
        EventGenerator::new(self.generator(seed, scale))
            .tuples()
            .collect()
    }

    pub fn job(&self) -> flowkv_spe::Job {
        self.query
            .build(QueryParams::new(self.window_ms).with_parallelism(PARALLELISM))
    }

    /// The filesystem the stores mount, before any timing wrapper.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        match self.layout {
            Layout::Cold => SlowVfs::wrap(StdVfs::shared(), COLD_READ_DELAY),
            Layout::Hot | Layout::Tiered => StdVfs::shared(),
        }
    }

    pub fn backend(&self, backend: Backend) -> BackendChoice {
        match (backend, self.layout) {
            (Backend::InMemory, _) => BackendChoice::InMemory {
                budget_per_partition: usize::MAX,
            },
            (Backend::FlowKv, Layout::Cold) => BackendChoice::FlowKv(cold_flowkv_cfg()),
            (Backend::FlowKv, _) => BackendChoice::FlowKv(flowkv_cfg()),
            (Backend::Lsm, Layout::Cold) => BackendChoice::Lsm(cold_lsm_cfg()),
            (Backend::Lsm, _) => BackendChoice::Lsm(lsm_cfg()),
        }
    }

    /// Factory options for `backend` over `vfs`; the in-memory oracle is
    /// never tiered.
    pub fn factory_options(&self, backend: Backend, vfs: Arc<dyn Vfs>) -> FactoryOptions {
        let opts = FactoryOptions::new().vfs(vfs);
        if self.layout == Layout::Tiered && backend != Backend::InMemory {
            opts.tiered(TierConfig {
                hot_bytes: 1 << 20,
                compress: true,
                ..TierConfig::default()
            })
        } else {
            opts
        }
    }

    /// Applies the workload's engine settings to `opts`.
    pub fn tune(&self, opts: &mut RunOptions) {
        opts.watermark_interval = self.watermark_interval;
        opts.collect_outputs = true;
        // No `timeout`: the executor's watchdog polls every 20 ms and is
        // joined before `elapsed` is read, which would round every run up
        // to its grid. A hung run is the benchmark driver's to kill.
        if self.layout == Layout::Cold {
            opts.io_threads = 2;
        }
    }

    /// Sizes and rates as recorded in every output.
    pub fn sizes(&self, scale: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("events", self.events_at(scale) as f64),
            ("window_ms", self.window_ms as f64),
            ("active_people", self.people as f64),
            ("paced_rate_per_s", self.paced_rate as f64),
            ("watermark_interval", self.watermark_interval as f64),
            ("parallelism", PARALLELISM as f64),
        ]
    }
}

/// Hash of every workload definition; `compare` refuses files whose
/// hashes differ, because their numbers answer different questions.
pub fn definition_hash() -> String {
    let text = format!("{RUN_SECONDS} {PARALLELISM} {COLD_READ_DELAY:?} {WORKLOADS:?}");
    format!("{:08x}", crc32(text.as_bytes()))
}
