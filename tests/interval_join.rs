//! End-to-end interval joins (paper §8, future work) against the
//! specification's join (`common/spec.rs`), on every backend.
//!
//! Bids are interval-joined with the auctions they belong to: a bid
//! matches when it falls within `[auction.ts, auction.ts + horizon]`.
//! The engine result must equal the specification's, identically on
//! the in-memory store, FlowKV, the LSM baseline, and the hash baseline;
//! a run resumed from a checkpoint emits the specification's outputs
//! less those whose inputs both came before the barrier.

mod common;

use std::sync::Arc;

use common::{sorted_triples, spec};
use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::Tuple;
use flowkv_spe::join::{tag_left, tag_right};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, Job, JobBuilder, RunOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HORIZON: i64 = 200;

/// A two-sided stream: left = "auction opened", right = "bid placed".
fn input(seed: u64, n: usize, keys: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tuples = Vec::with_capacity(n);
    for i in 0..n {
        let key = format!("k{}", rng.gen_range(0..keys));
        let ts = i as i64; // In-order arrival.
        if rng.gen_bool(0.3) {
            tuples.push(Tuple::new(
                key.into_bytes(),
                tag_left(format!("A{i}").as_bytes()),
                ts,
            ));
        } else {
            tuples.push(Tuple::new(
                key.into_bytes(),
                tag_right(format!("B{i}").as_bytes()),
                ts,
            ));
        }
    }
    tuples
}

/// The pair's payloads, `|`-separated.
fn concat(_key: &[u8], left: &[u8], right: &[u8]) -> Option<Vec<u8>> {
    Some([left, b"|", right].concat())
}

/// A two-stage job: the tagged stream interval-joined by [`concat`].
fn join_job(lower: i64, upper: i64, bucket_ms: i64) -> Job {
    JobBuilder::new("interval-join")
        .parallelism(2)
        .interval_join("j", lower, upper, bucket_ms, Arc::new(concat))
        .build()
}

#[test]
fn interval_join_matches_brute_force_on_all_backends() {
    let tuples = input(77, 2_000, 10);
    let want = spec::joined_from(&spec::interval_join(&tuples, 0, HORIZON, concat), 0);
    assert!(!want.is_empty(), "degenerate test input");
    let job = join_job(0, HORIZON, 64);
    for backend in BackendChoice::all_small_for_tests() {
        let dir = ScratchDir::new(&format!("ijoin-{}", backend.name())).unwrap();
        let mut opts = RunOptions::new(dir.path());
        opts.collect_outputs = true;
        opts.watermark_interval = 50;
        let source = tuples.clone().into_iter();
        let result = run_job(&job, source, backend.build(FactoryOptions::new()), &opts).unwrap();
        assert_eq!(
            sorted_triples(&result.outputs),
            want,
            "interval join diverges on {}",
            backend.name()
        );
    }
}

/// Resumed from a checkpoint after 2 000 of 4 000 tuples, the join
/// emits exactly the pairs whose later input comes after the barrier.
#[test]
fn interval_join_resumes_exactly() {
    const BARRIER: usize = 2_000;
    // Every third tuple is a left one, over seven keys.
    let tuples: Vec<Tuple> = (0..4_000i64)
        .map(|i| {
            let key = format!("k{}", i % 7).into_bytes();
            let value = match i % 3 {
                0 => tag_left(format!("L{i}").as_bytes()),
                _ => tag_right(format!("R{i}").as_bytes()),
            };
            Tuple::new(key, value, i)
        })
        .collect();
    let joined = spec::interval_join(&tuples, -30, 30, concat);
    let job = join_job(-30, 30, 32);
    let backend = BackendChoice::FlowKv(FlowKvConfig::small_for_tests());
    let dir = ScratchDir::new("ijoin-resume").unwrap();

    let mut opts = RunOptions::new(dir.path().join("full"));
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.checkpoint_after_tuples = Some(BARRIER as u64);
    opts.checkpoint_dir = Some(dir.path().join("ckpt"));
    let source = tuples.clone().into_iter();
    let full = run_job(&job, source, backend.build(FactoryOptions::new()), &opts).unwrap();
    assert!(full.checkpoint_taken);
    let (all, post) = (
        spec::joined_from(&joined, 0),
        spec::joined_from(&joined, BARRIER),
    );
    assert_eq!(sorted_triples(&full.outputs), all);
    let pre: Vec<_> = all
        .into_iter()
        .filter(|t| post.binary_search(t).is_err())
        .collect();
    assert!(!pre.is_empty() && !post.is_empty());
    assert_eq!(sorted_triples(&full.outputs_pre_checkpoint), pre);

    opts.data_dir = dir.path().join("resumed");
    opts.restore_from = opts.checkpoint_dir.take();
    opts.checkpoint_after_tuples = None;
    let rest = tuples.into_iter().skip(BARRIER);
    let resumed = run_job(&job, rest, backend.build(FactoryOptions::new()), &opts).unwrap();
    assert_eq!(sorted_triples(&resumed.outputs), post);
}

#[test]
fn interval_join_state_is_purged_by_watermarks() {
    // A long stream with few keys: buffered rows must be purged as event
    // time advances, so backend memory stays bounded well below total
    // input size.
    let tuples = input(5, 20_000, 4);
    let backend = BackendChoice::all_small_for_tests().remove(0); // In-memory: OOMs if purging fails.
    let dir = ScratchDir::new("ijoin-purge").unwrap();
    let job = JobBuilder::new("interval-join")
        .parallelism(1)
        .interval_join("j", -50, 50, 64, Arc::new(|_k, _l: &[u8], _r: &[u8]| None))
        .build();
    let mut opts = RunOptions::new(dir.path());
    opts.watermark_interval = 100;
    // 64 KiB budget: holding all 20 k rows (~1 MB) would OOM; purged
    // steady-state is a few hundred rows.
    let backend = match backend {
        BackendChoice::InMemory { .. } => BackendChoice::InMemory {
            budget_per_partition: 64 << 10,
        },
        other => other,
    };
    let result = run_job(
        &job,
        tuples.into_iter(),
        backend.build(FactoryOptions::new()),
        &opts,
    )
    .unwrap();
    assert_eq!(result.input_count, 20_000);
}
