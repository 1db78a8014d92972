//! Bounded out-of-order streams: watermark slack must make results
//! identical to the in-order run, with zero late drops.
//!
//! Real sources deliver events with bounded disorder; engines compensate
//! by lagging the watermark (Flink's bounded-out-of-orderness strategy).
//! These tests jitter NEXMark timestamps backward by up to 50 ms and run
//! with `watermark_slack = 50`: every query must produce exactly the
//! multiset of results of the untouched stream, on every backend.

use std::sync::Arc;

use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::Tuple;
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::join::{tag_left, tag_right};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobBuilder, RunOptions};

fn gen_cfg(out_of_order_ms: i64) -> GeneratorConfig {
    GeneratorConfig {
        num_events: 15_000,
        seed: 33,
        events_per_second: 5_000,
        active_people: 40,
        active_auctions: 60,
        out_of_order_ms,
        ..GeneratorConfig::default()
    }
}

type SortedOutputs = Vec<(Vec<u8>, Vec<u8>)>;

fn run(query: QueryId, backend: &BackendChoice, ooo_ms: i64, slack: i64) -> (SortedOutputs, u64) {
    let dir = ScratchDir::new("ooo").unwrap();
    let params = QueryParams::new(1_000).with_parallelism(2);
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.watermark_slack = slack;
    let result = run_job(
        &query.build(params),
        EventGenerator::new(gen_cfg(ooo_ms)).tuples(),
        backend.build(FactoryOptions::new()),
        &opts,
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", query.name(), backend.name()));
    let mut outputs: SortedOutputs = result
        .outputs
        .into_iter()
        .map(|Tuple { key, value, .. }| (key, value))
        .collect();
    outputs.sort();
    (outputs, result.dropped_late)
}

/// Sorted multiset of outputs for the jitter-free stream with sufficient
/// slack applied to the jittered stream: results must agree exactly.
fn assert_slack_masks_disorder(query: QueryId) {
    for backend in BackendChoice::all_small_for_tests() {
        // The reference uses the *jittered* timestamps too (the jitter
        // changes which windows tuples fall into), just consumed with a
        // watermark that never declares them late.
        let (reference, ref_dropped) = run(query, &backend, 50, 50);
        assert_eq!(ref_dropped, 0, "{}: drops with full slack", query.name());
        let (wide_slack, dropped) = run(query, &backend, 50, 200);
        assert_eq!(dropped, 0);
        assert_eq!(
            wide_slack,
            reference,
            "{} on {}: slack width changed results",
            query.name(),
            backend.name()
        );
    }
}

#[test]
fn fixed_window_query_tolerates_disorder() {
    assert_slack_masks_disorder(QueryId::Q7);
}

#[test]
fn session_query_tolerates_disorder() {
    assert_slack_masks_disorder(QueryId::Q11);
}

#[test]
fn insufficient_slack_drops_late_tuples() {
    // With zero slack against 50 ms of disorder, drops must occur — and
    // the engine must keep running rather than fail.
    let backend = &BackendChoice::all_small_for_tests()[1];
    let (_, dropped) = run(QueryId::Q11, backend, 50, 0);
    assert!(dropped > 0, "expected late drops with zero slack");
}

#[test]
fn late_tuples_reach_the_side_output() {
    // Flink-style late-data side output: the same run with
    // `collect_late` hands the dropped tuples back for reprocessing —
    // from a window stage and from an interval join alike.
    let backend = &BackendChoice::all_small_for_tests()[1];
    let params = QueryParams::new(1_000).with_parallelism(2);
    let join = JobBuilder::new("late-join")
        .parallelism(2)
        .stateless("tag-by-parity", |t, out| {
            let tagged = match t.timestamp % 2 {
                0 => tag_left(t.value),
                _ => tag_right(t.value),
            };
            out(t.key, &tagged, t.timestamp)
        })
        .interval_join(
            "join",
            -20,
            20,
            64,
            Arc::new(|_k, _l: &[u8], _r: &[u8]| None),
        )
        .build();
    for job in [QueryId::Q11.build(params), join] {
        let dir = ScratchDir::new("ooo-side").unwrap();
        let mut opts = RunOptions::new(dir.path());
        opts.watermark_interval = 100;
        opts.watermark_slack = 0;
        opts.collect_late = true;
        let result = run_job(
            &job,
            EventGenerator::new(gen_cfg(50)).tuples(),
            backend.build(FactoryOptions::new()),
            &opts,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", job.name));
        assert!(result.dropped_late > 0);
        assert_eq!(result.late_tuples.len() as u64, result.dropped_late);
    }
}
