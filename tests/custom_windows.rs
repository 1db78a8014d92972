//! Custom window functions and the store (paper §8, "Custom Window
//! Operations").
//!
//! A user-defined assigner (tumbling windows offset by 37 ms — a shape
//! no built-in window function expresses) runs through the engine and
//! answers what the specification does, on FlowKV and on the baselines.
//! The store sees only `WindowKind::Custom`, classifies the operator as
//! unaligned-read, and — when the user registers an ETT predictor — runs
//! predictive batch reads despite knowing nothing about the window
//! function itself.

mod common;

use std::sync::Arc;

use common::matrix::{
    baselines, check_row, flowkv, offset_assigner, short, OffsetTumbling, OFFSET, PLAIN, SIZE,
};
use common::spec::Schedule;
use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::Tuple;
use flowkv_nexmark::{Event, EventGenerator, QueryParams};
use flowkv_spe::functions::FnProcess;
use flowkv_spe::job::{AggregateSpec, Job, JobBuilder};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, RunOptions};

fn job() -> Job {
    JobBuilder::new("custom-windows")
        .parallelism(2)
        .window(
            "offset-count",
            offset_assigner(),
            AggregateSpec::FullList(Arc::new(FnProcess::new(|_k, _w, vals| {
                vec![(vals.len() as u64).to_le_bytes().to_vec()]
            }))),
        )
        .build()
}

fn input() -> Vec<Tuple> {
    (0..20_000i64)
        .map(|i| {
            Tuple::new(
                format!("key-{}", i % 40).into_bytes(),
                1u64.to_le_bytes().to_vec(),
                i / 2,
            )
        })
        .collect()
}

/// The baselines answer the custom job as the specification does, and
/// that answer sits on the offset boundaries and counts every bid once.
#[test]
fn custom_windows_have_offset_boundaries() {
    let events: Vec<Event> = EventGenerator::new(short()).collect();
    let schedule = Schedule {
        interval: 100,
        slack: 0,
        barrier_after: None,
    };
    let want = OffsetTumbling.answer(QueryParams::new(1_000), &events, schedule);
    assert!(!want.outputs.is_empty());
    // Output timestamps are window.end - 1, so (ts + 1 - OFFSET) must be
    // a multiple of the window size.
    for (_, _, ts) in &want.outputs {
        assert_eq!(
            (ts + 1 - OFFSET).rem_euclid(SIZE),
            0,
            "boundary {ts} not offset-aligned"
        );
    }
    // Counts conserve the input.
    let counted: u64 = want
        .outputs
        .iter()
        .map(|(_, v, _)| u64::from_le_bytes(v[..8].try_into().unwrap()))
        .sum();
    let bids = events.iter().filter(|e| matches!(e, Event::Bid(_))).count();
    assert_eq!(counted, bids as u64);
    check_row(
        "custom_windows",
        &[OffsetTumbling],
        baselines,
        short(),
        PLAIN,
    );
}

#[test]
fn flowkv_matches_reference_on_custom_windows() {
    check_row("custom_windows", &[OffsetTumbling], flowkv, short(), PLAIN);
}

#[test]
fn user_ett_predictor_enables_prefetching() {
    // Without a predictor, custom windows are unpredictable: FlowKV
    // falls back to per-window reads (misses only). With the §8 user
    // hint ("this custom window triggers at its end"), predictive batch
    // read engages and serves most reads from the prefetch buffer.
    let dir = ScratchDir::new("custom-ett").unwrap();
    let mut cfg = FlowKvConfig::small_for_tests();
    cfg.write_buffer_bytes = 2 << 10; // Force state through disk.
    let mut opts = RunOptions::new(dir.path());
    opts.watermark_interval = 100;
    let no_hint = run_job(
        &job(),
        input().into_iter(),
        BackendChoice::FlowKv(cfg.clone()).build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    let m = no_hint.store_metrics;
    assert_eq!(
        m.prefetch_hits, 0,
        "unpredictable windows must not prefetch"
    );
    assert!(m.prefetch_misses > 0, "expected disk reads without a hint");

    cfg.custom_ett = Some(Arc::new(|_key, window, _max_ts| Some(window.end)));
    let dir = ScratchDir::new("custom-ett-hint").unwrap();
    let mut opts = RunOptions::new(dir.path());
    opts.watermark_interval = 100;
    let hinted = run_job(
        &job(),
        input().into_iter(),
        BackendChoice::FlowKv(cfg).build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    let m = hinted.store_metrics;
    let hit_ratio = m.prefetch_hit_ratio().unwrap_or(0.0);
    assert!(
        hit_ratio > 0.5,
        "user ETT hint should enable batched reads, hit ratio {hit_ratio}"
    );
}
