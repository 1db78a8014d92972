//! Rescale equivalence matrix: for every backend, Q7 / Q11-Median / Q11
//! must produce byte-identical output at parallelism 1 and 4 (N=1≡N=k,
//! through the exchange) and across a 2→4 and a 4→2 mid-stream rescale —
//! all against the parallelism-2 run. Two FlowKV-only cells repeat the
//! 2→4 rescale with every row demoted to the cold tier, and with a
//! two-thread I/O ring that shuffles its completions.

mod common;

use std::path::Path;

use common::{nexmark_generator, sorted_triples, SortedOutputs};
use flowkv::TierConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_nexmark::{EventGenerator, QueryId, QueryParams};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobResult, RunOptions};

const NUM_EVENTS: u64 = 8_000;
const WM_INTERVAL: usize = 100;
const SHUFFLE_SEED: u64 = 0xF10C;

fn generator() -> EventGenerator {
    nexmark_generator(NUM_EVENTS, 7)
}

/// `query` at `parallelism` on `backend` built with `factory`, under the
/// options `tune` leaves.
fn run(
    query: QueryId,
    parallelism: usize,
    backend: &BackendChoice,
    factory: FactoryOptions,
    dir: &Path,
    tune: impl FnOnce(&mut RunOptions),
) -> JobResult {
    let job = query.build(QueryParams::new(1_000).with_parallelism(parallelism));
    let mut opts = RunOptions::new(dir.join("run"));
    opts.collect_outputs = true;
    opts.watermark_interval = WM_INTERVAL;
    tune(&mut opts);
    run_job(&job, generator().tuples(), backend.build(factory), &opts).unwrap_or_else(|e| {
        panic!(
            "{} on {} at parallelism {parallelism}: {e}",
            query.name(),
            backend.name()
        )
    })
}

/// Rescales to `to` workers at the stream's midpoint, checkpointing
/// under `dir`.
fn rescale_to(to: usize, dir: &Path) -> impl FnOnce(&mut RunOptions) + '_ {
    move |opts| {
        opts.rescale_to = Some(to);
        opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
        opts.checkpoint_dir = Some(dir.join("ckpt"));
    }
}

/// A rescale's output equals `want`, and it reports a pause.
fn assert_rescaled(result: &JobResult, want: &SortedOutputs, cell: &str) {
    let pause = result.rescale_pause.expect("a rescale reports its pause");
    assert!(!pause.is_zero(), "{cell}: zero pause");
    assert_eq!(
        &sorted_triples(&result.outputs),
        want,
        "{cell} diverged from the parallelism-2 run"
    );
}

fn rescale_row(query: QueryId) {
    for backend in &BackendChoice::all_small_for_tests() {
        let cell = |what: &str| format!("{} on {}: {what}", query.name(), backend.name());
        let scratch = |what: &str| {
            ScratchDir::new(&format!(
                "rescale-{}-{}-{what}",
                query.name(),
                backend.name()
            ))
            .unwrap()
        };
        let dir = scratch("p2");
        let reference = run(query, 2, backend, FactoryOptions::new(), dir.path(), |_| {});
        let want = sorted_triples(&reference.outputs);
        assert!(!want.is_empty(), "{}", cell("no output"));

        for p in [1, 4] {
            let dir = scratch(&format!("p{p}"));
            let result = run(query, p, backend, FactoryOptions::new(), dir.path(), |_| {});
            assert_eq!(result.rescale_pause, None, "{}", cell("plain run paused"));
            assert_eq!(
                sorted_triples(&result.outputs),
                want,
                "{}",
                cell(&format!("parallelism {p} diverged from parallelism 2"))
            );
        }

        for (from, to) in [(2, 4), (4, 2)] {
            let dir = scratch(&format!("{from}to{to}"));
            let tune = rescale_to(to, dir.path());
            let result = run(
                query,
                from,
                backend,
                FactoryOptions::new(),
                dir.path(),
                tune,
            );
            assert_rescaled(&result, &want, &cell(&format!("{from}→{to}")));
        }

        if !matches!(backend, BackendChoice::FlowKv(_)) {
            continue;
        }
        let dir = scratch("tiered");
        let demoted = FactoryOptions::new().tiered(TierConfig::new(0));
        let result = run(
            query,
            2,
            backend,
            demoted,
            dir.path(),
            rescale_to(4, dir.path()),
        );
        assert_rescaled(&result, &want, &cell("2→4 under forced demotion"));

        let dir = scratch("ring");
        let tune = |opts: &mut RunOptions| {
            rescale_to(4, dir.path())(opts);
            opts.io_threads = 2;
            opts.io_shuffle_seed = Some(SHUFFLE_SEED);
        };
        let result = run(query, 2, backend, FactoryOptions::new(), dir.path(), tune);
        assert_rescaled(&result, &want, &cell("2→4 on a shuffled ring"));
    }
}

#[test]
fn rescale_equivalence_q7() {
    rescale_row(QueryId::Q7);
}

#[test]
fn rescale_equivalence_q11_median() {
    rescale_row(QueryId::Q11Median);
}

#[test]
fn rescale_equivalence_q11() {
    rescale_row(QueryId::Q11);
}
