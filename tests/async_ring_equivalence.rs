//! Semantic equivalence of the background I/O ring: for every backend
//! and each FlowKV access pattern (Q7 = AAR, Q11-Median = AUR,
//! Q11 = RMW), a run whose reads complete on a two-thread ring in a
//! shuffled order produces the specification's answer — the
//! `ring_shuffle_*` rows of the query matrix, two shuffles each. And
//! the ring keeps exactly-once: the `async_crash_*` rows crash a ring
//! run with shuffled completions at a random store operation, in the
//! first half of the op range, where in-flight prefetches are most
//! likely live, and recover under supervision to the same answer. They
//! run on the two backends that route reads through the ring (FlowKV's
//! AAR/AUR prefetch and the LSM block warm-up); the others ignore the
//! I/O policy and crash in `crash_matrix`. (The ring sharded over four
//! workers is the `matrix` suite's `ring_p4` row.)
//!
//! The crash point and shuffle seed derive from the SplitMix64 stream
//! seeded by `FLOWKV_FAULT_SEED`; the seed is printed so any failure
//! reproduces with `FLOWKV_FAULT_SEED=<seed> cargo test`.

mod common;

use common::logged;
use common::matrix::{check_row, every_backend, short, Crash, Tweak, N, PLAIN};
use flowkv_nexmark::QueryId::{self, *};

/// A ring run crashed in the first half of its ops; the crash round is
/// also the shuffle's.
const RING_CRASH: Tweak = Tweak {
    barrier: Some(2_500),
    ring: Some(7),
    crash: Some(Crash {
        caps: &[(1, 2)],
        round: 7,
    }),
    ..PLAIN
};

matrix! {
    // row:                queries,         backends, shape, tweak;
    async_crash_q7:        &[N(Q7)],        logged,   short, RING_CRASH;
    async_crash_q11_median: &[N(Q11Median)], logged,  short, RING_CRASH;
}

/// `query` on every backend with its reads on the ring, completions
/// shuffled by two seeds drawn from `FLOWKV_FAULT_SEED` per cell.
fn reorder_row(query: QueryId) {
    for (row, round) in [("ring_shuffle_0", 0), ("ring_shuffle_1", 1)] {
        let tweak = Tweak {
            ring: Some(round),
            ..PLAIN
        };
        check_row(row, &[N(query)], every_backend, short(), tweak);
    }
}

#[test]
fn async_reorder_q7() {
    reorder_row(Q7);
}

#[test]
fn async_reorder_q11_median() {
    reorder_row(Q11Median);
}

#[test]
fn async_reorder_q11() {
    reorder_row(Q11);
}
