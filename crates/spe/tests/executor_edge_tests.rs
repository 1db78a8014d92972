//! Edge-case tests for the executor: degenerate streams, stateless-only
//! pipelines, watermark propagation through deep pipelines, and
//! backpressure.

use std::sync::Arc;

use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::Tuple;
use flowkv_spe::functions::{decode_u64, CountAggregate, FnProcess};
use flowkv_spe::job::{AggregateSpec, JobBuilder};
use flowkv_spe::window::WindowAssigner;
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, RunOptions};

fn flowkv() -> BackendChoice {
    BackendChoice::all_small_for_tests().remove(1)
}

fn tuple(key: &str, v: u64, ts: i64) -> Tuple {
    Tuple::new(key.into(), v.to_le_bytes().to_vec(), ts)
}

#[test]
fn empty_source_completes_with_no_output() {
    let dir = ScratchDir::new("edge-empty").unwrap();
    let job = JobBuilder::new("empty")
        .parallelism(2)
        .window(
            "w",
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .build();
    let result = run_job(
        &job,
        std::iter::empty(),
        flowkv().build(FactoryOptions::new()),
        &RunOptions::new(dir.path()),
    )
    .unwrap();
    assert_eq!(result.input_count, 0);
    assert_eq!(result.output_count, 0);
}

#[test]
fn single_tuple_stream() {
    let dir = ScratchDir::new("edge-single").unwrap();
    let job = JobBuilder::new("single")
        .parallelism(3)
        .window(
            "w",
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .build();
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    let result = run_job(
        &job,
        std::iter::once(tuple("k", 1, 42)),
        flowkv().build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    assert_eq!(result.output_count, 1);
    assert_eq!(decode_u64(&result.outputs[0].value), 1);
}

#[test]
fn stateless_only_pipeline_passes_everything() {
    let dir = ScratchDir::new("edge-stateless").unwrap();
    let job = JobBuilder::new("stateless")
        .parallelism(2)
        .stateless("double", |t, out| {
            out(t.key, t.value, t.timestamp);
            out(t.key, t.value, t.timestamp);
        })
        .stateless("drop-odd-values", |t, out| {
            if decode_u64(t.value).is_multiple_of(2) {
                out(t.key, t.value, t.timestamp);
            }
        })
        .build();
    let input: Vec<Tuple> = (0..100)
        .map(|i| tuple(&format!("k{i}"), i, i as i64))
        .collect();
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    let result = run_job(
        &job,
        input.into_iter(),
        flowkv().build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    // 100 inputs doubled, half have even values.
    assert_eq!(result.output_count, 100);
}

#[test]
fn deep_pipeline_propagates_watermarks() {
    // Three stateless stages in front of a window: watermarks must still
    // reach and trigger the operator.
    let dir = ScratchDir::new("edge-deep").unwrap();
    let mut builder = JobBuilder::new("deep").parallelism(2);
    for i in 0..3 {
        builder = builder.stateless(format!("pass{i}"), |t, out| {
            out(t.key, t.value, t.timestamp)
        });
    }
    let job = builder
        .window(
            "w",
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .build();
    let input: Vec<Tuple> = (0..1000)
        .map(|i| tuple(&format!("k{}", i % 5), 1, i))
        .collect();
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    opts.watermark_interval = 50;
    let result = run_job(
        &job,
        input.into_iter(),
        flowkv().build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    // 10 windows × 5 keys.
    assert_eq!(result.output_count, 50);
    let total: u64 = result.outputs.iter().map(|t| decode_u64(&t.value)).sum();
    assert_eq!(total, 1000);
}

#[test]
fn tiny_channels_still_complete() {
    // Capacity-1 channels force constant backpressure; the run must not
    // deadlock or lose data.
    let dir = ScratchDir::new("edge-backpressure").unwrap();
    let job = JobBuilder::new("bp")
        .parallelism(2)
        .stateless("fanout", |t, out| {
            for _ in 0..4 {
                out(t.key, t.value, t.timestamp);
            }
        })
        .window(
            "w",
            WindowAssigner::Fixed { size: 1_000 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .build();
    let input: Vec<Tuple> = (0..500)
        .map(|i| tuple(&format!("k{}", i % 3), 1, i))
        .collect();
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    opts.channel_capacity = 1;
    opts.watermark_interval = 10;
    let result = run_job(
        &job,
        input.into_iter(),
        flowkv().build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    let total: u64 = result.outputs.iter().map(|t| decode_u64(&t.value)).sum();
    assert_eq!(total, 2_000);
}

#[test]
fn identical_timestamps_all_land_in_one_window() {
    let dir = ScratchDir::new("edge-samets").unwrap();
    let job = JobBuilder::new("same-ts")
        .parallelism(2)
        .window(
            "w",
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::FullList(Arc::new(FnProcess::new(|_k, _w, vals| {
                vec![(vals.len() as u64).to_le_bytes().to_vec()]
            }))),
        )
        .build();
    let input: Vec<Tuple> = (0..200).map(|_| tuple("k", 1, 50)).collect();
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    let result = run_job(
        &job,
        input.into_iter(),
        flowkv().build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    assert_eq!(result.output_count, 1);
    assert_eq!(decode_u64(&result.outputs[0].value), 200);
}

#[test]
fn negative_timestamps_are_legal_event_time() {
    let dir = ScratchDir::new("edge-negts").unwrap();
    let job = JobBuilder::new("neg-ts")
        .parallelism(1)
        .window(
            "w",
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .build();
    let input: Vec<Tuple> = (-300..-100).map(|i| tuple("k", 1, i)).collect();
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    let result = run_job(
        &job,
        input.into_iter(),
        flowkv().build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    // Windows [-300,-200) and [-200,-100).
    assert_eq!(result.output_count, 2);
    let total: u64 = result.outputs.iter().map(|t| decode_u64(&t.value)).sum();
    assert_eq!(total, 200);
}
