//! The query matrix's engine: a row names a set of queries, a set of
//! backends, an input shape and a tweak of the plain run (parallelism
//! 2, exchange batches of 256, a watermark every 100 tuples, no
//! barrier, synchronous reads, hot state only, slack 0), and
//! [`check_row`] compares each cell's outputs with the executable
//! specification ([`super::spec`]) — never with another engine run, so
//! a semantic bug the operators share shows as a red cell.
//!
//! Besides the outputs, every cell holds the run's bookkeeping to the
//! spec: late drops equal the late rule's count, a barrier is taken and
//! splits the outputs by the pre-checkpoint rule, one latency sample
//! per output. A tweak keeps its liveness checks: a forced-demotion run
//! demotes, a ring reads ahead, a rescale pauses and a plain run does
//! not.
//!
//! Recovery is a tweak too. A resume row restarts from the barrier's
//! checkpoint and replays the recorded stream past it; a crash row
//! counts its run's device ops, then crashes a supervised run at an op
//! drawn from the cell's seed and requires one restart and the spec's
//! outputs, exactly once.
//!
//! The rows live with the suite whose question they answer:
//! `query_equivalence` (every query on every backend),
//! `batching_equivalence`, `async_ring_equivalence` (shuffled ring
//! completions, and ring runs crashed), `tiered_equivalence`,
//! `crash_matrix` (resumes and crashes), `rescale_equivalence`,
//! `out_of_order`, `custom_windows`, and `matrix` for the rest (short
//! session gaps, the sharded ring, the late rule). Shuffle seeds and
//! crash ops derive from `FLOWKV_FAULT_SEED` (default below), so a red
//! ring or crash cell replays from the number it prints.

/// Declares one test per row: `name: queries, backends, shape, tweak;`.
#[macro_export]
macro_rules! matrix {
    ($($row:ident: $queries:expr, $backends:expr, $shape:expr, $tweak:expr;)*) => {
        $(
            #[test]
            fn $row() {
                $crate::common::matrix::check_row(
                    stringify!($row), $queries, $backends, $shape(), $tweak,
                );
            }
        )*
    };
}

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use super::spec::{self, Answer, Schedule, Windows};
use super::{cell_seed, fault_seed, nexmark_shape, sorted_triples, SortedOutputs};
use flowkv::tier::TierConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_common::types::{Tuple, WindowId};
use flowkv_common::vfs::{FaultPlan, FaultVfs, StdVfs, Vfs};
use flowkv_nexmark::QueryId::{self, *};
use flowkv_nexmark::{BidRef, Event, EventGenerator, GeneratorConfig, QueryParams};
use flowkv_spe::functions::{decode_u64, FnProcess};
use flowkv_spe::source::{LogSource, TupleLog};
use flowkv_spe::{
    run_job, run_supervised, AggregateSpec, BackendChoice, FactoryOptions, Job, JobBuilder,
    RunOptions, WindowAssigner,
};

const WATERMARK_INTERVAL: u64 = 100;
const DEFAULT_SEED: u64 = 0xA5F0;
const IO_THREADS: usize = 2;
/// The custom job's windows: tumbling, 500 ms, offset by 37 ms — a
/// shape no built-in window function expresses.
pub const OFFSET: i64 = 37;
pub const SIZE: i64 = 500;
/// The count job's windows: a bidder's bids, 16 at a time.
pub const COUNT: u64 = 16;

/// A job the matrix runs.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Nexmark(QueryId),
    /// Bids per bidder in offset tumbling windows of a user-defined
    /// assigner (paper §8, "Custom Window Operations"), kept as full
    /// lists: the store sees only `WindowKind::Custom`.
    OffsetTumbling,
    /// The highest of every `COUNT` bids of a bidder, in the order they
    /// arrive: count windows over full lists.
    CountBids,
}

pub use Query::{CountBids, Nexmark as N, OffsetTumbling};

impl Query {
    pub fn name(self) -> &'static str {
        match self {
            N(q) => q.name(),
            OffsetTumbling => "offset-tumbling",
            CountBids => "count-bids",
        }
    }

    fn job(self, params: QueryParams) -> Job {
        match self {
            N(query) => query.build(params),
            OffsetTumbling => {
                bids_per_bidder(self, params, "offset-count", offset_assigner(), |values| {
                    values.len() as u64
                })
            }
            CountBids => {
                let windows = WindowAssigner::Count { size: COUNT };
                bids_per_bidder(self, params, "count-max", windows, |values| {
                    values.iter().map(|v| decode_u64(v)).max().unwrap_or(0)
                })
            }
        }
    }

    pub fn answer(self, params: QueryParams, events: &[Event], schedule: Schedule) -> Answer {
        let (windows, f): (Windows, spec::WindowFn) = match self {
            N(query) => return spec::answer(query, params, events, schedule),
            OffsetTumbling => {
                let windows = Windows::Periodic {
                    size: SIZE,
                    slide: SIZE,
                    offset: OFFSET,
                };
                (windows, spec::count)
            }
            CountBids => {
                let size = COUNT as usize;
                (Windows::Count { size }, spec::max)
            }
        };
        spec::windowed(events, spec::bids_by_bidder, schedule, windows, f)
    }
}

/// Tumbling windows of `SIZE` ms whose boundaries sit `OFFSET` ms past
/// each multiple of `SIZE`.
pub fn offset_assigner() -> WindowAssigner {
    WindowAssigner::Custom {
        assign: Arc::new(|ts| {
            let start = (ts - OFFSET).div_euclid(SIZE) * SIZE + OFFSET;
            vec![WindowId::new(start, start + SIZE)]
        }),
    }
}

/// `query`'s job: bids keyed by bidder and valued at their price, into
/// the `windows` of stage `stage` kept as full lists, each emitting
/// `result` of its prices.
fn bids_per_bidder(
    query: Query,
    params: QueryParams,
    stage: &str,
    windows: WindowAssigner,
    result: fn(&[&[u8]]) -> u64,
) -> Job {
    JobBuilder::new(query.name())
        .parallelism(params.parallelism)
        .stateless("bids-by-bidder", |t, out| {
            if let Ok(Some(bid)) = BidRef::decode(t.value) {
                out(
                    &bid.bidder.to_le_bytes(),
                    &bid.price.to_le_bytes(),
                    t.timestamp,
                );
            }
        })
        .window(
            stage,
            windows,
            AggregateSpec::FullList(Arc::new(FnProcess::new(move |_k, _w, values| {
                vec![result(values).to_le_bytes().to_vec()]
            }))),
        )
        .build()
}

pub const NEXMARK: &[Query] = &[
    N(Q5),
    N(Q5Append),
    N(Q7),
    N(Q7Session),
    N(Q8),
    N(Q11),
    N(Q11Median),
    N(Q12),
];
/// One query per FlowKV access pattern: AAR, AUR, RMW.
pub const PATTERNS: &[Query] = &[N(Q7), N(Q11Median), N(Q11)];

pub fn every_backend(_: &BackendChoice) -> bool {
    true
}

pub fn flowkv(backend: &BackendChoice) -> bool {
    matches!(backend, BackendChoice::FlowKv(_))
}

/// The three stores FlowKV is measured against.
pub fn baselines(backend: &BackendChoice) -> bool {
    !flowkv(backend)
}

/// 20 000 events, 4 s of event time: the plain run at this shape is
/// `query_equivalence`'s, and the batch-256 cell `batching_equivalence`
/// varies.
pub fn long() -> GeneratorConfig {
    nexmark_shape(20_000, 7)
}

pub fn short() -> GeneratorConfig {
    nexmark_shape(5_000, 23)
}

/// Timestamps jittered back by up to 50 ms.
pub fn jittered() -> GeneratorConfig {
    GeneratorConfig {
        active_people: 40,
        active_auctions: 60,
        out_of_order_ms: 50,
        ..nexmark_shape(15_000, 33)
    }
}

/// How a row's runs differ from the plain run.
#[derive(Clone, Copy)]
pub struct Tweak {
    pub parallelism: usize,
    pub batch_size: usize,
    /// A checkpoint barrier after this many source tuples.
    pub barrier: Option<u64>,
    /// Then resume from the barrier's checkpoint, replaying the recorded
    /// stream past it: the resumed run emits the spec's outputs less the
    /// pre-checkpoint ones.
    pub resume: bool,
    /// Then crash a supervised run of the recorded stream.
    pub crash: Option<Crash>,
    /// Rescale to this many workers at the barrier.
    pub rescale_to: Option<usize>,
    /// Background reads on a ring of two threads, completions shuffled
    /// by the cell's seed of this round.
    pub ring: Option<u64>,
    /// A two-tier store with this hot budget per partition.
    pub hot_bytes: Option<usize>,
    pub watermark_slack: i64,
    pub session_gap: Option<i64>,
    pub collect_late: bool,
}

pub const PLAIN: Tweak = Tweak {
    parallelism: 2,
    batch_size: 256,
    barrier: None,
    resume: false,
    crash: None,
    rescale_to: None,
    ring: None,
    hot_bytes: None,
    watermark_slack: 0,
    session_gap: None,
    collect_late: false,
};

/// Where a crash row crashes: once per cap, at a store op drawn from
/// the cell's seed of `round`, at most that fraction of the device ops
/// the barrier row's own run counted (the cap absorbs run-to-run
/// variance in the count).
#[derive(Clone, Copy)]
pub struct Crash {
    /// Fractions `(numerator, denominator)` of the counted op range.
    pub caps: &'static [(u64, u64)],
    /// The round of the cell's seed the crash op derives from.
    pub round: u64,
}

pub fn check_row(
    row: &str,
    queries: &[Query],
    backends: fn(&BackendChoice) -> bool,
    shape: GeneratorConfig,
    tweak: Tweak,
) {
    let seed = fault_seed(DEFAULT_SEED);
    println!("matrix {row}: FLOWKV_FAULT_SEED={seed} (set the env var to replay)");
    let events: Vec<Event> = EventGenerator::new(shape.clone()).collect();
    // Every cell runs; the row reports all that failed.
    let mut red = Vec::new();
    let schedule = Schedule {
        interval: WATERMARK_INTERVAL,
        slack: tweak.watermark_slack,
        barrier_after: tweak.barrier,
    };
    for &query in queries {
        let mut params = QueryParams::new(1_000).with_parallelism(tweak.parallelism);
        if let Some(gap) = tweak.session_gap {
            params = params.with_session_gap(gap);
        }
        let want = query.answer(params, &events, schedule);
        assert!(
            !want.outputs.is_empty(),
            "{row} / {}: no output",
            query.name()
        );
        if tweak.watermark_slack >= shape.out_of_order_ms {
            assert!(want.late.is_empty(), "{row}: late tuples at full slack");
        }
        // A crash row's barrier is only its recovery point, and the
        // global window closes at the end of the stream alone.
        let splits =
            tweak.rescale_to.is_none() && tweak.crash.is_none() && !matches!(query, N(Q12));
        if tweak.barrier.is_some() && splits {
            assert!(
                !want.pre_checkpoint.is_empty(),
                "{row} / {}: no output before the barrier",
                query.name()
            );
        }
        for backend in BackendChoice::all_small_for_tests() {
            if backends(&backend) {
                let cell = format!("{row} / {} on {}", query.name(), backend.name());
                let run = || check_cell(&cell, query, params, &backend, &shape, tweak, seed, &want);
                if panic::catch_unwind(AssertUnwindSafe(run)).is_err() {
                    red.push(cell);
                }
            }
        }
    }
    assert!(red.is_empty(), "red cells (seed {seed}): {red:#?}");
}

#[allow(clippy::too_many_arguments)]
fn check_cell(
    cell: &str,
    query: Query,
    params: QueryParams,
    backend: &BackendChoice,
    shape: &GeneratorConfig,
    tweak: Tweak,
    seed: u64,
    want: &Answer,
) {
    let dir = ScratchDir::new(&format!("matrix-{}-{}", query.name(), backend.name())).unwrap();
    let shuffle = tweak
        .ring
        .map(|r| cell_seed(seed, query.name(), backend, r));
    let telemetry = (tweak.hot_bytes.is_some() || tweak.ring.is_some()).then(Telemetry::new_shared);
    let mut opts = RunOptions::new(dir.path().join("data"));
    opts.collect_outputs = true;
    opts.record_latency = true;
    opts.watermark_interval = WATERMARK_INTERVAL as usize;
    opts.watermark_slack = tweak.watermark_slack;
    opts.batch_size = tweak.batch_size;
    opts.collect_late = tweak.collect_late;
    opts.rescale_to = tweak.rescale_to;
    opts.telemetry = telemetry.clone();
    opts.checkpoint_after_tuples = tweak.barrier;
    opts.checkpoint_dir = Some(dir.path().join("ckpt"));
    opts.io_threads = shuffle.map_or(0, |_| IO_THREADS);
    opts.io_shuffle_seed = shuffle;
    let factory = |vfs: Arc<dyn Vfs>| {
        let options = FactoryOptions::new().vfs(vfs);
        match tweak.hot_bytes {
            Some(hot) => backend.build(options.tiered(TierConfig::new(hot))),
            None => backend.build(options),
        }
    };
    let counted = FaultVfs::counting(StdVfs::shared());
    let vfs: Arc<dyn Vfs> = match tweak.crash {
        Some(_) => counted.clone(),
        None => StdVfs::shared(),
    };
    let job = query.job(params);
    let source = EventGenerator::new(shape.clone()).tuples();
    let result =
        run_job(&job, source, factory(vfs), &opts).unwrap_or_else(|e| panic!("{cell}: {e}"));

    assert_same(&result.outputs, &want.outputs, cell, "outputs");
    let late = (result.dropped_late, want.late.len() as u64);
    assert_eq!(late.0, late.1, "{cell}: late drops");
    if tweak.collect_late {
        assert_same(&result.late_tuples, &want.late, cell, "late tuples");
    }
    let latencies = (result.latency().count, result.output_count);
    assert_eq!(
        latencies.0, latencies.1,
        "{cell}: one latency sample per output"
    );
    assert_eq!(
        result.checkpoint_taken,
        tweak.barrier.is_some(),
        "{cell}: barrier"
    );
    if tweak.barrier.is_some() {
        let pre = &result.outputs_pre_checkpoint;
        assert_same(pre, &want.pre_checkpoint, cell, "pre-checkpoint outputs");
    }
    let paused = result.rescale_pause.map(|pause| !pause.is_zero());
    assert_eq!(
        paused,
        tweak.rescale_to.map(|_| true),
        "{cell}: rescale pause"
    );
    if let Some(telemetry) = telemetry {
        check_liveness(cell, query, backend, tweak, &telemetry);
    }

    if !tweak.resume && tweak.crash.is_none() {
        return;
    }
    let barrier = tweak
        .barrier
        .expect("a resume or a crash follows a barrier");
    let log = dir.path().join("events.log");
    TupleLog::record(&log, EventGenerator::new(shape.clone()).tuples()).unwrap();
    if tweak.resume {
        // Restored from the checkpoint, the log replayed from the
        // barrier yields the outputs the barrier had not.
        let mut resume = opts.clone();
        resume.data_dir = dir.path().join("resumed");
        resume.restore_from = opts.checkpoint_dir.clone();
        resume.checkpoint_after_tuples = None;
        let rest = LogSource::open_at(&log, barrier).unwrap();
        let resumed = run_job(&job, rest, factory(StdVfs::shared()), &resume)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let replayed = (resumed.input_count, shape.num_events - barrier);
        assert_eq!(replayed.0, replayed.1, "{cell}: tuples replayed");
        let post: SortedOutputs = want
            .outputs
            .iter()
            .filter(|out| want.pre_checkpoint.binary_search(out).is_err())
            .cloned()
            .collect();
        assert_same(&resumed.outputs, &post, cell, "resumed outputs");
    }
    if let Some(crash) = tweak.crash {
        let ops = counted.ops();
        assert!(ops > 0, "{cell}: the store never touched its vfs");
        let crash_seed = cell_seed(seed, query.name(), backend, crash.round);
        for &(num, den) in crash.caps {
            let plan = FaultPlan::random_crash(crash_seed, ops * num / den);
            let faulty = FaultVfs::new(StdVfs::shared(), plan);
            let telemetry = Telemetry::new_shared();
            let mut crashed = opts.clone();
            crashed.data_dir = dir.path().join(format!("crash-{num}-{den}"));
            crashed.checkpoint_dir = Some(dir.path().join(format!("crash-{num}-{den}-ckpt")));
            crashed.max_restarts = 2;
            crashed.restart_backoff = Duration::from_millis(1);
            crashed.telemetry = Some(Arc::clone(&telemetry));
            let sup = run_supervised(&job, &log, factory(faulty.clone()), &crashed)
                .unwrap_or_else(|e| panic!("{cell}: cap {num}/{den}: {e}"));
            let fired = faulty.fired();
            assert_eq!(fired.len(), 1, "{cell}: cap {num}/{den}: fired {fired:?}");
            let at = format!("{cell}: crash at op {} of {ops}", fired[0].0);
            assert_eq!(sup.restarts, 1, "{at}: restarts");
            let restarts = counter(&telemetry, "recovery_restarts_total");
            assert_eq!(restarts, 1, "{at}: recovery_restarts_total");
            assert_same(&sup.all_outputs(), &want.outputs, &at, "recovered outputs");
            // Committed only if the crashed attempt's checkpoint completed.
            if !sup.committed.is_empty() {
                assert_same(
                    &sup.committed,
                    &want.pre_checkpoint,
                    &at,
                    "committed outputs",
                );
            }
            check_liveness(&at, query, backend, tweak, &telemetry);
        }
    }
}

/// The run really took the path its tweak names: forced demotion
/// demotes, and the AUR store — the ring's main reader — reads ahead.
fn check_liveness(cell: &str, query: Query, backend: &BackendChoice, tweak: Tweak, t: &Telemetry) {
    if tweak.hot_bytes == Some(0) && tweak.rescale_to.is_none() {
        let demoted = counter(t, "tier_demotions_total");
        assert!(demoted > 0, "{cell}: hot_bytes = 0 never demoted");
        if tweak.ring.is_some() {
            let read_ahead = counter(t, "tier_prefetch_submitted_total");
            assert!(read_ahead > 0, "{cell}: the tier never read ahead");
        }
    }
    let hot_only = tweak.hot_bytes.is_none();
    if tweak.ring.is_some() && hot_only && flowkv(backend) && matches!(query, N(Q11Median)) {
        let issued = counter(t, "prefetch_issued_total");
        assert!(issued > 0, "{cell}: no worker submitted a prefetch");
    }
}

/// The sum of a counter's series, labelled or not.
fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    let samples = telemetry.registry().snapshot();
    let named = |s: &&str| *s == name || s.strip_prefix(name).is_some_and(|l| l.starts_with('{'));
    let values = samples.iter().filter(|s| named(&s.name.as_str()));
    values
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// `got` equals `want` as a multiset; a failure names the first few
/// differences rather than printing both lists.
fn assert_same(got: &[Tuple], want: &SortedOutputs, cell: &str, what: &str) {
    let got = sorted_triples(got);
    if got == *want {
        return;
    }
    let only = |a: &SortedOutputs, b: &SortedOutputs| {
        let only = a.iter().filter(|t| b.binary_search(t).is_err());
        only.take(3).cloned().collect::<Vec<_>>()
    };
    let (missing, extra) = (only(want, &got), only(&got, want));
    panic!(
        "{cell}: {what}: {} from the engine, {} from the spec; missing {missing:?}, extra {extra:?}",
        got.len(),
        want.len()
    );
}
