//! Shared helpers of the suites that run whole NEXMark jobs: the rows
//! of the query matrix ([`matrix`], every cell against the executable
//! specification in [`spec`]) in `matrix`, `query_equivalence`,
//! `batching_equivalence`, `async_ring_equivalence`,
//! `tiered_equivalence`, `crash_matrix` (its resume and crash rows),
//! `rescale_equivalence`, `out_of_order` and `custom_windows`; the
//! specification's interval join in `interval_join`; `crash_matrix`'s
//! two probed-fault cells; `chained_stateless`, `crash_recovery` and
//! `vfs_seam`.
//!
//! Any per-cell randomness derives from the one `FLOWKV_FAULT_SEED`
//! stream, so a CI failure replays from a single number.
#![allow(dead_code)]

pub mod matrix;
pub mod spec;

use flowkv_common::types::Tuple;
use flowkv_nexmark::{Event, EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::BackendChoice;

/// The replayable fault/randomness seed: `FLOWKV_FAULT_SEED` when set,
/// else the suite's own default (each suite uses a distinct default so
/// their unseeded runs exercise different crash points).
pub fn fault_seed(default: u64) -> u64 {
    std::env::var("FLOWKV_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The suites' NEXMark stream shape: 5 000 events a second over 50
/// bidders and 80 auctions; only the event count and generator seed
/// vary (and, for disorder, what a caller overrides).
pub fn nexmark_shape(num_events: u64, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_events,
        seed,
        events_per_second: 5_000,
        active_people: 50,
        active_auctions: 80,
        ..GeneratorConfig::default()
    }
}

/// The specification's outputs for `query` over `shape`, fed in order
/// with a watermark every 100 tuples and 1 s windows: what
/// `chained_stateless` runs and `crash_matrix`'s probed-fault cells
/// recover to.
pub fn spec_outputs(query: QueryId, shape: GeneratorConfig) -> SortedOutputs {
    let events: Vec<Event> = EventGenerator::new(shape).collect();
    let schedule = spec::Schedule {
        interval: 100,
        slack: 0,
        barrier_after: None,
    };
    spec::answer(query, QueryParams::new(1_000), &events, schedule).outputs
}

/// Sorted `(key, value, timestamp)` triples — the canonical
/// order-insensitive form every output comparison uses.
pub type SortedOutputs = Vec<(Vec<u8>, Vec<u8>, i64)>;

/// `tuples` as sorted triples.
pub fn sorted_triples(tuples: &[Tuple]) -> SortedOutputs {
    let mut v: SortedOutputs = tuples
        .iter()
        .map(|t| (t.key.clone(), t.value.clone(), t.timestamp))
        .collect();
    v.sort();
    v
}

/// The two backends that route reads through the I/O ring and write a
/// log a crash can tear: FlowKV and the LSM.
pub fn logged(backend: &BackendChoice) -> bool {
    matches!(backend, BackendChoice::FlowKv(_) | BackendChoice::Lsm(_))
}

/// Distinct per-cell randomness (crash points, shuffle seeds), all
/// reproducible from the one suite seed. `round` distinguishes repeated
/// runs of the same cell; `round = 0` matches the historical
/// single-round derivation, keeping old seeds' crash points replayable.
pub fn cell_seed(seed: u64, query: &str, backend: &BackendChoice, round: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15 ^ round.wrapping_mul(0xD134_2543_DE82_EF95);
    for b in query.bytes().chain(backend.name().bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h
}
