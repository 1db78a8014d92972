//! Property: key-range repartition is lossless and disjoint.
//!
//! For random key/window populations, every backend, and any N→M
//! rescale, splitting a store's extracted state across N shards and then
//! re-splitting across M must (a) land every key on exactly one shard at
//! each step — the shard its key hash's range owns — and (b) leave the
//! union of the migrated states equal to the original, entry for entry,
//! with per-key value order intact.
//!
//! The tiered cases run the same property with every store (source and
//! targets) wrapped in the forced-demotion two-tier layout
//! (`TierConfig::hot_bytes = 0`): all state lives in compressed columnar cold
//! blocks, so the round-trip proves `extract_range`/`inject_entries`
//! migrate cold blocks losslessly.

use std::collections::HashMap;

use flowkv::KeyRangePartitioner;
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, StateEntry, WindowKind,
};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_spe::{BackendChoice, FactoryOptions};
use proptest::prelude::*;

const WINDOW_SIZE: i64 = 100;

fn window(w: u8) -> WindowId {
    let start = i64::from(w) * WINDOW_SIZE;
    WindowId::new(start, start + WINDOW_SIZE)
}

fn key(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

/// One generated population: per (key, window), either a value list
/// (append pattern) or a single aggregate (RMW pattern).
#[derive(Clone, Debug)]
struct Population {
    kind: AggregateKind,
    /// `(key, window, values)`; for `Incremental` only the last value
    /// per (key, window) survives, matching `put_aggregate` overwrite.
    rows: Vec<(u8, u8, Vec<Vec<u8>>)>,
}

fn populations() -> impl Strategy<Value = Population> {
    let values = prop::collection::vec(prop::collection::vec(any::<u8>(), 1..16), 1..5);
    let rows = prop::collection::vec((0u8..24, 0u8..4, values), 1..40);
    (
        prop_oneof![
            Just(AggregateKind::FullList),
            Just(AggregateKind::Incremental)
        ],
        rows,
    )
        .prop_map(|(kind, rows)| Population { kind, rows })
}

fn make_store(
    choice: &BackendChoice,
    kind: AggregateKind,
    tiered: bool,
    tag: &str,
) -> Box<dyn StateBackend> {
    let dir = ScratchDir::new(&format!("repart-{}-{tag}", choice.name())).unwrap();
    let ctx = OperatorContext {
        operator: "repart".into(),
        partition: 0,
        semantics: OperatorSemantics::new(kind, WindowKind::Fixed { size: WINDOW_SIZE }),
        data_dir: dir.into_kept(),
        telemetry: None,
        io: None,
    };
    let factory = if tiered {
        // Forced demotion: every row the test writes seals into a cold
        // block before extraction touches it.
        choice.build(FactoryOptions::new().tiered(flowkv::tier::TierConfig::new(0)))
    } else {
        choice.build(FactoryOptions::new())
    };
    factory.create(&ctx).unwrap()
}

/// Loads the population into a fresh store of `choice`.
fn seed_store(
    choice: &BackendChoice,
    pop: &Population,
    tiered: bool,
    tag: &str,
) -> Box<dyn StateBackend> {
    let mut store = make_store(choice, pop.kind, tiered, tag);
    for (k, w, values) in &pop.rows {
        for value in values {
            match pop.kind {
                AggregateKind::FullList => {
                    store
                        .append(&key(*k), window(*w), value, window(*w).start)
                        .unwrap();
                }
                AggregateKind::Incremental => {
                    store.put_aggregate(&key(*k), window(*w), value).unwrap();
                }
            }
        }
    }
    store
}

/// Canonical form of a store's full extracted state.
fn canonical(mut entries: Vec<StateEntry>) -> Vec<StateEntry> {
    entries.sort();
    entries
}

/// Splits every entry of `source` across `shards` stores by key range,
/// checking disjointness along the way.
fn split(
    source: &mut dyn StateBackend,
    choice: &BackendChoice,
    kind: AggregateKind,
    tiered: bool,
    shards: usize,
    tag: &str,
) -> Result<Vec<Box<dyn StateBackend>>, TestCaseError> {
    let part = KeyRangePartitioner::new(shards);
    let entries = source.extract_range(&|_| true, kind).unwrap();
    let mut targets: Vec<Box<dyn StateBackend>> = (0..shards)
        .map(|s| make_store(choice, kind, tiered, &format!("{tag}-s{s}")))
        .collect();
    let mut owner: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut batches: Vec<Vec<StateEntry>> = (0..shards).map(|_| Vec::new()).collect();
    for entry in entries {
        let shard = part.shard_of(entry.key());
        // Disjointness: one shard per key, and it is the shard whose
        // hash range covers the key.
        let prev = owner.insert(entry.key().to_vec(), shard);
        prop_assert!(prev.is_none_or(|p| p == shard), "key split across shards");
        let (lo, hi) = part.range(shard);
        let h = KeyRangePartitioner::key_hash(entry.key());
        prop_assert!((lo..=hi).contains(&h), "key routed outside its range");
        batches[shard].push(entry);
    }
    for (target, batch) in targets.iter_mut().zip(batches) {
        target.inject_entries(batch).unwrap();
    }
    Ok(targets)
}

fn check_repartition(
    choice: &BackendChoice,
    pop: &Population,
    tiered: bool,
    n: usize,
    m: usize,
) -> Result<(), TestCaseError> {
    let mut source = seed_store(choice, pop, tiered, "src");
    let original = canonical(source.extract_range(&|_| true, pop.kind).unwrap());

    // Split to N shards, then re-split every shard to M — the same two
    // hops a live rescale takes.
    let mut level1 = split(&mut *source, choice, pop.kind, tiered, n, "n")?;
    let mut union1 = Vec::new();
    for shard in &mut level1 {
        union1.extend(shard.extract_range(&|_| true, pop.kind).unwrap());
    }
    prop_assert_eq!(&canonical(union1), &original, "N-way split lost state");

    let mut union2 = Vec::new();
    for (i, shard) in level1.iter_mut().enumerate() {
        let mut level2 = split(&mut **shard, choice, pop.kind, tiered, m, &format!("m{i}"))?;
        for target in level2.iter_mut() {
            union2.extend(target.extract_range(&|_| true, pop.kind).unwrap());
        }
    }
    prop_assert_eq!(&canonical(union2), &original, "N→M re-split lost state");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repartition_is_lossless_and_disjoint(
        pop in populations(),
        n in 1usize..6,
        m in 1usize..6,
    ) {
        for choice in BackendChoice::all_small_for_tests() {
            check_repartition(&choice, &pop, false, n, m)?;
        }
    }

    /// Same property with all state demoted to cold blocks: extraction
    /// must decode them, injection must re-tier them, and nothing may
    /// be lost or duplicated on either hop.
    #[test]
    fn tiered_repartition_round_trips_cold_blocks(
        pop in populations(),
        n in 1usize..6,
        m in 1usize..6,
    ) {
        for choice in BackendChoice::all_small_for_tests() {
            check_repartition(&choice, &pop, true, n, m)?;
        }
    }
}
