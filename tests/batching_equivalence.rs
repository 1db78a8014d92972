//! Micro-batched exchange equivalence: for each FlowKV access pattern
//! (Q7 = AAR, Q11-Median = AUR, Q11 = RMW) and Q5's chained window
//! stages, tuple-at-a-time (`batch_size = 1`) and batched (256) runs on
//! FlowKV produce the specification's answer. With a barrier after
//! 12 000 source tuples the pre-checkpoint split must follow the
//! specification's pre-checkpoint rule too — batches are flushed before
//! every barrier, so batching never moves a window across it — and a
//! run resumed from that checkpoint emits exactly the rest. Batch 256
//! without a barrier is `query_equivalence`'s plain run.

mod common;

use common::matrix::{check_row, flowkv, long, Query, Tweak, N, PLAIN};
use flowkv_nexmark::QueryId::*;

fn assert_batching_invisible(query: Query) {
    let queries = &[query];
    let batch_1 = Tweak {
        batch_size: 1,
        ..PLAIN
    };
    let barrier = Some(12_000);
    check_row("batch_1", queries, flowkv, long(), batch_1);
    check_row(
        "batch_1_barrier",
        queries,
        flowkv,
        long(),
        Tweak { barrier, ..batch_1 },
    );
    let resumed = Tweak {
        barrier,
        resume: true,
        ..PLAIN
    };
    check_row("batch_256_barrier", queries, flowkv, long(), resumed);
}

#[test]
fn q7_aar_batching_invisible() {
    assert_batching_invisible(N(Q7));
}

#[test]
fn q11_median_aur_batching_invisible() {
    assert_batching_invisible(N(Q11Median));
}

#[test]
fn q11_rmw_batching_invisible() {
    assert_batching_invisible(N(Q11));
}

#[test]
fn q5_chained_batching_invisible() {
    assert_batching_invisible(N(Q5));
}
