//! Micro-batched exchange equivalence: for each FlowKV access pattern
//! (Q7 = AAR, Q11-Median = AUR, Q11 = RMW), a batched run must produce
//! byte-identical outputs to the classic tuple-at-a-time run
//! (`batch_size = 1`). A second pass injects a mid-stream checkpoint
//! barrier and additionally requires the *pre-checkpoint* output split
//! to stay exact — batches are flushed before every barrier, so batching
//! must never smear tuples across the alignment boundary.

mod common;

use common::{nexmark_generator, sorted_owned as sorted, SortedOutputs};
use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_nexmark::{QueryId, QueryParams};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, RunOptions};

/// Runs `query` on FlowKV with the given exchange batch size, optionally
/// with a checkpoint barrier after 12 000 source tuples (late enough
/// that some windows have already closed and emitted). Returns the
/// sorted full outputs and (when checkpointing) the sorted
/// pre-checkpoint outputs.
fn run_batched(
    query: QueryId,
    batch_size: usize,
    checkpoint: bool,
) -> (SortedOutputs, SortedOutputs) {
    let dir = ScratchDir::new(&format!(
        "batch-equiv-{}-{batch_size}-{checkpoint}",
        query.name()
    ))
    .unwrap();
    let ckpt = ScratchDir::new(&format!(
        "batch-equiv-ckpt-{}-{batch_size}-{checkpoint}",
        query.name()
    ))
    .unwrap();
    let backend = BackendChoice::FlowKv(FlowKvConfig::small_for_tests());
    let params = QueryParams::new(1_000).with_parallelism(2);
    let job = query.build(params);
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    opts.record_latency = true;
    opts.watermark_interval = 100;
    opts.batch_size = batch_size;
    if checkpoint {
        opts.checkpoint_after_tuples = Some(12_000);
        opts.checkpoint_dir = Some(ckpt.path().to_path_buf());
    }
    let result = run_job(
        &job,
        nexmark_generator(20_000, 11).tuples(),
        backend.build(FactoryOptions::new()),
        &opts,
    )
    .unwrap_or_else(|e| panic!("{} batch={batch_size}: {e}", query.name()));
    if checkpoint {
        assert!(
            result.checkpoint_taken,
            "{} batch={batch_size}: barrier never completed at the sink",
            query.name()
        );
    }
    assert_eq!(
        result.latency().count,
        result.output_count,
        "{} batch={batch_size}: latency must be sampled once per tuple, not per batch",
        query.name()
    );
    (
        sorted(result.outputs),
        sorted(result.outputs_pre_checkpoint),
    )
}

fn assert_batching_invisible(query: QueryId) {
    let (reference, _) = run_batched(query, 1, false);
    assert!(
        !reference.is_empty(),
        "{}: reference run produced no output",
        query.name()
    );
    let (batched, _) = run_batched(query, 256, false);
    assert_eq!(
        batched,
        reference,
        "{}: batch_size=256 diverges from tuple-at-a-time",
        query.name()
    );

    // With a mid-stream barrier, the exact pre-checkpoint split must
    // also be preserved: flush-before-barrier keeps alignment exact.
    let (ckpt_ref, pre_ref) = run_batched(query, 1, true);
    let (ckpt_batched, pre_batched) = run_batched(query, 256, true);
    assert_eq!(
        ckpt_batched,
        ckpt_ref,
        "{}: checkpointed batch_size=256 run diverges",
        query.name()
    );
    assert!(
        !pre_ref.is_empty(),
        "{}: no output arrived before the checkpoint barrier",
        query.name()
    );
    assert_eq!(
        pre_batched,
        pre_ref,
        "{}: pre-checkpoint output split moved under batching",
        query.name()
    );
}

#[test]
fn q7_aar_batching_invisible() {
    assert_batching_invisible(QueryId::Q7);
}

#[test]
fn q11_median_aur_batching_invisible() {
    assert_batching_invisible(QueryId::Q11Median);
}

#[test]
fn q11_rmw_batching_invisible() {
    assert_batching_invisible(QueryId::Q11);
}
