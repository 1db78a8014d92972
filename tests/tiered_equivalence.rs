//! The two-tier layout is invisible to query results: for every backend
//! and each FlowKV access pattern, a run whose state goes through the
//! tier produces the specification's answer — the `tier_*` rows of the
//! query matrix: a moderate hot budget (16 KiB), forced demotion
//! (`hot_bytes = 0`, every write sealed to a compressed cold block,
//! which must demote), and forced demotion on the I/O ring (which must
//! also read ahead).
//!
//! It also keeps exactly-once: the `tiered_crash_recovers_byte_identical`
//! row crashes a forced-demotion Q11-Median run on the two logged
//! backends at a random store operation drawn from the
//! `FLOWKV_FAULT_SEED` stream (printed by the row), and supervised
//! recovery must restore both tiers to the specification's outputs.

mod common;

use common::logged;
use common::matrix::{check_row, every_backend, short, Crash, Tweak, N, PLAIN};
use flowkv_nexmark::QueryId::{self, *};

/// Forced demotion, crashed anywhere in nine tenths of the run's ops.
const TIERED_CRASH: Tweak = Tweak {
    barrier: Some(2_500),
    hot_bytes: Some(0),
    crash: Some(Crash {
        caps: &[(9, 10)],
        round: 29,
    }),
    ..PLAIN
};

matrix! {
    // row:                              queries,         backends, shape, tweak;
    tiered_crash_recovers_byte_identical: &[N(Q11Median)], logged,  short, TIERED_CRASH;
}

fn differential_row(query: QueryId) {
    let queries = &[N(query)];
    let moderate = Tweak {
        hot_bytes: Some(16 << 10),
        ..PLAIN
    };
    let cold = Tweak {
        hot_bytes: Some(0),
        ..PLAIN
    };
    let cold_ring = Tweak {
        ring: Some(0),
        ..cold
    };
    check_row("tier_hot_16k", queries, every_backend, short(), moderate);
    check_row("tier_hot_0", queries, every_backend, short(), cold);
    check_row(
        "tier_hot_0_ring",
        queries,
        every_backend,
        short(),
        cold_ring,
    );
}

#[test]
fn tiered_differential_q7() {
    differential_row(Q7);
}

#[test]
fn tiered_differential_q11_median() {
    differential_row(Q11Median);
}

#[test]
fn tiered_differential_q11() {
    differential_row(Q11);
}
