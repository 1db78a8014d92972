//! Property: repartitioning is lossless and disjoint.
//!
//! For random key/window populations, every backend, and any N→M
//! rescale, splitting a store's extracted state across N partitions and
//! then migrating all N onto M — each entry to partition
//! `partition_of(key, M)`, the exchange's own hash, so a target merges
//! pieces of several sources — must (a) land every key on exactly one
//! partition at each step, and (b) leave the union of the migrated
//! states equal to the original, entry for entry, with per-key value
//! order intact.
//!
//! The tiered cases run the same property with every store (source and
//! targets) wrapped in the forced-demotion two-tier layout
//! (`TierConfig::hot_bytes = 0`): all state lives in compressed columnar cold
//! blocks, so the round-trip proves `extract_range`/`inject_entries`
//! migrate cold blocks losslessly.

use std::collections::HashMap;

use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, StateEntry, WindowKind,
};
use flowkv_common::hash::partition_of;
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

/// Moves every entry of `sources` onto `parts` fresh stores, each to
/// partition `partition_of(key, parts)`, checking along the way that no
/// key lands on two partitions.
fn repartition(
    sources: &mut [Box<dyn StateBackend>],
    choice: &BackendChoice,
    kind: AggregateKind,
    tiered: bool,
    parts: usize,
    tag: &str,
) -> Result<Vec<Box<dyn StateBackend>>, TestCaseError> {
    let mut targets: Vec<Box<dyn StateBackend>> = (0..parts)
        .map(|p| make_store(choice, kind, tiered, &format!("{tag}-p{p}")))
        .collect();
    let mut owner: HashMap<Vec<u8>, usize> = HashMap::new();
    for source in sources {
        let mut batches: Vec<Vec<StateEntry>> = (0..parts).map(|_| Vec::new()).collect();
        for entry in source.extract_range(&|_| true, kind).unwrap() {
            let part = partition_of(entry.key(), parts);
            let prev = owner.insert(entry.key().to_vec(), part);
            prop_assert!(
                prev.is_none_or(|p| p == part),
                "key split across partitions"
            );
            batches[part].push(entry);
        }
        for (target, batch) in targets.iter_mut().zip(batches) {
            target.inject_entries(batch).unwrap();
        }
    }
    Ok(targets)
}

/// Everything `stores` hold, in canonical order.
fn union(stores: &mut [Box<dyn StateBackend>], kind: AggregateKind) -> Vec<StateEntry> {
    let mut all = Vec::new();
    for store in stores {
        all.extend(store.extract_range(&|_| true, kind).unwrap());
    }
    canonical(all)
}

fn check_repartition(
    choice: &BackendChoice,
    pop: &Population,
    tiered: bool,
    n: usize,
    m: usize,
) -> Result<(), TestCaseError> {
    let mut source = [seed_store(choice, pop, tiered, "src")];
    let original = union(&mut source, pop.kind);

    // Split to the N old partitions, then migrate all N onto M — the
    // hop a live rescale takes.
    let mut old = repartition(&mut source, choice, pop.kind, tiered, n, "n")?;
    prop_assert_eq!(
        &union(&mut old, pop.kind),
        &original,
        "N-way split lost state"
    );
    let mut new = repartition(&mut old, choice, pop.kind, tiered, m, "m")?;
    prop_assert_eq!(
        &union(&mut new, pop.kind),
        &original,
        "N→M migration lost state"
    );
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
