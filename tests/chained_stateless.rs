//! Stateless stages run inside their sender, not on threads of their
//! own: NEXMark Q5 (stateless → window → stateless → window) exercises
//! both a chain in the source's exchange and one in a keyed worker's.
//!
//! One telemetry-enabled run shows which threads exist (only `source`
//! and the two window stages own `operator=` series); the same run must
//! equal the tuple-at-a-time run byte for byte, pre-checkpoint split
//! included, and a resume from its checkpoint must emit exactly the
//! post-checkpoint outputs.

mod common;

use std::collections::BTreeSet;

use common::{nexmark_generator, sorted_owned as sorted, SortedOutputs};
use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::Telemetry;
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobResult, RunOptions};

const EVENTS: u64 = 20_000;
const CHECKPOINT_AT: u64 = 12_000;
const PARALLELISM: usize = 2;

fn run_q5(tune: impl FnOnce(&mut RunOptions), skip: u64) -> JobResult {
    let dir = ScratchDir::new("chained-q5").unwrap();
    let job = QueryId::Q5.build(QueryParams::new(1_000).with_parallelism(PARALLELISM));
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    tune(&mut opts);
    run_job(
        &job,
        nexmark_generator(EVENTS, 11).tuples().skip(skip as usize),
        BackendChoice::FlowKv(FlowKvConfig::small_for_tests()).build(FactoryOptions::new()),
        &opts,
    )
    .expect("Q5 run failed")
}

#[test]
fn q5_chains_run_in_their_senders_and_change_no_output() {
    let ckpt = ScratchDir::new("chained-q5-ckpt").unwrap();
    let telemetry = Telemetry::new_shared();
    let observed = run_q5(
        |opts| {
            opts.telemetry = Some(telemetry.clone());
            opts.checkpoint_after_tuples = Some(CHECKPOINT_AT);
            opts.checkpoint_dir = Some(ckpt.path().to_path_buf());
        },
        0,
    );
    assert!(observed.checkpoint_taken);

    // Who recorded anything: every engine series is labelled with the
    // stage whose thread wrote it.
    let samples = telemetry.registry().snapshot();
    let operators: BTreeSet<&str> = samples
        .iter()
        .filter_map(|s| s.name.split_once("operator="))
        .map(|(_, rest)| rest.split([',', '}']).next().unwrap())
        .collect();
    assert_eq!(
        operators.into_iter().collect::<Vec<_>>(),
        ["count-bids", "max-bids", "source"],
        "a stateless stage owns telemetry series"
    );
    // One `operator_busy_nanos` series per worker thread: threads per
    // job = source + sink + keyed stages × parallelism.
    let workers = samples
        .iter()
        .filter(|s| s.name.starts_with("operator_busy_nanos{"))
        .count();
    assert_eq!(workers, 2 * PARALLELISM);

    // Byte-identical to the tuple-at-a-time exchange, split included.
    let ckpt1 = ScratchDir::new("chained-q5-ckpt1").unwrap();
    let unbatched = run_q5(
        |opts| {
            opts.batch_size = 1;
            opts.checkpoint_after_tuples = Some(CHECKPOINT_AT);
            opts.checkpoint_dir = Some(ckpt1.path().to_path_buf());
        },
        0,
    );
    let full = sorted(observed.outputs);
    let pre = sorted(observed.outputs_pre_checkpoint);
    assert!(!pre.is_empty() && pre.len() < full.len());
    assert_eq!(full, sorted(unbatched.outputs));
    assert_eq!(pre, sorted(unbatched.outputs_pre_checkpoint));

    // Restoring both windows across the mid-pipeline chain and
    // replaying from the barrier's offset yields the rest exactly.
    let resumed = run_q5(
        |opts| opts.restore_from = Some(ckpt.path().to_path_buf()),
        CHECKPOINT_AT,
    );
    let mut expected: SortedOutputs = full;
    for out in &pre {
        let pos = expected.binary_search(out).expect("pre output in full");
        expected.remove(pos);
    }
    assert_eq!(sorted(resumed.outputs), expected);
}
