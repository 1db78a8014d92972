//! Bounded out-of-order streams. Real sources deliver events with
//! bounded disorder: with timestamps jittered back by up to 50 ms and a
//! watermark slack of 50 ms or more, a fixed-window query (Q7) and a
//! session query (Q11) produce the specification's answer on every
//! backend with no late drop.
//!
//! A watermark with too little slack declares some tuples late. With
//! `collect_late` a run hands the tuples it dropped back for
//! reprocessing (Flink's late-data side output). The window stages'
//! late drops and side output are held to the specification's late
//! rule by the `matrix` suite's `disorder_slack_0` row; this suite
//! covers the interval join, which the specification does not model.

mod common;

use std::sync::Arc;

use common::matrix::{check_row, every_backend, jittered, Query, Tweak, N, PLAIN};
use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_nexmark::EventGenerator;
use flowkv_nexmark::QueryId::*;
use flowkv_spe::join::{tag_left, tag_right};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobBuilder, RunOptions};

/// Slack 50 and 200 against 50 ms of jitter: the spec's late set is
/// empty, so every cell must drop nothing and answer exactly.
fn assert_slack_masks_disorder(query: Query) {
    for (row, watermark_slack) in [("disorder_slack_50", 50), ("disorder_slack_200", 200)] {
        let tweak = Tweak {
            watermark_slack,
            ..PLAIN
        };
        check_row(row, &[query], every_backend, jittered(), tweak);
    }
}

#[test]
fn fixed_window_query_tolerates_disorder() {
    assert_slack_masks_disorder(N(Q7));
}

#[test]
fn session_query_tolerates_disorder() {
    assert_slack_masks_disorder(N(Q11));
}

#[test]
fn late_tuples_reach_the_side_output() {
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
    // Timestamps jittered back by up to 50 ms, against zero slack.
    let shape = jittered();
    let dir = ScratchDir::new("ooo-side").unwrap();
    let mut opts = RunOptions::new(dir.path());
    opts.watermark_interval = 100;
    opts.watermark_slack = 0;
    opts.collect_late = true;
    let result = run_job(
        &join,
        EventGenerator::new(shape).tuples(),
        BackendChoice::FlowKv(FlowKvConfig::small_for_tests()).build(FactoryOptions::new()),
        &opts,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", join.name));
    assert!(result.dropped_late > 0);
    assert_eq!(result.late_tuples.len() as u64, result.dropped_late);
}
