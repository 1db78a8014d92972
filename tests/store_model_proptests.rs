//! Property-based model tests: every persistent backend must behave like
//! a simple in-memory map under arbitrary interleavings of the
//! window-state operations.
//!
//! The model is a `HashMap<(key, window), Vec<value>>` for the append
//! pattern and a `HashMap<(key, window), value>` for aggregates. Ops are
//! generated with small key/window alphabets so collisions, overwrites,
//! re-reads of consumed state, and buffer spills all occur.

use std::collections::HashMap;

use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, WindowKind,
};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_spe::{BackendChoice, FactoryOptions};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum AppendOp {
    /// Append value (arbitrary bytes) to key k in window w.
    Append {
        k: u8,
        w: u8,
        value: Vec<u8>,
        ts: i64,
    },
    /// Fetch-and-remove key k in window w.
    Take { k: u8, w: u8 },
    /// Force a flush.
    Flush,
}

#[derive(Clone, Debug)]
enum AggOp {
    Put { k: u8, w: u8, value: Vec<u8> },
    Take { k: u8, w: u8 },
    Flush,
}

fn window(w: u8) -> WindowId {
    let start = i64::from(w) * 100;
    WindowId::new(start, start + 100)
}

fn key(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

fn append_ops() -> impl Strategy<Value = Vec<AppendOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..6, 0u8..4, prop::collection::vec(any::<u8>(), 0..40), 0i64..1000)
                .prop_map(|(k, w, value, ts)| AppendOp::Append { k, w, value, ts }),
            2 => (0u8..6, 0u8..4).prop_map(|(k, w)| AppendOp::Take { k, w }),
            1 => Just(AppendOp::Flush),
        ],
        1..120,
    )
}

fn agg_ops() -> impl Strategy<Value = Vec<AggOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..6, 0u8..4, prop::collection::vec(any::<u8>(), 1..24))
                .prop_map(|(k, w, value)| AggOp::Put { k, w, value }),
            2 => (0u8..6, 0u8..4).prop_map(|(k, w)| AggOp::Take { k, w }),
            1 => Just(AggOp::Flush),
        ],
        1..120,
    )
}

fn make_store(choice: &BackendChoice, semantics: OperatorSemantics) -> Box<dyn StateBackend> {
    let dir = ScratchDir::new(&format!("model-{}", choice.name())).unwrap();
    let ctx = OperatorContext {
        operator: "model".into(),
        partition: 0,
        semantics,
        data_dir: dir.into_kept(),
        telemetry: None,
        io: None,
    };
    choice.build(FactoryOptions::new()).create(&ctx).unwrap()
}

fn check_append_model(choice: &BackendChoice, ops: &[AppendOp]) -> Result<(), TestCaseError> {
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 50 });
    let mut store = make_store(choice, semantics);
    let mut model: HashMap<(u8, u8), Vec<Vec<u8>>> = HashMap::new();
    for op in ops {
        match op {
            AppendOp::Append { k, w, value, ts } => {
                store.append(&key(*k), window(*w), value, *ts).unwrap();
                model.entry((*k, *w)).or_default().push(value.clone());
            }
            AppendOp::Take { k, w } => {
                let got = store.take_values(&key(*k), window(*w)).unwrap();
                let expect = model.remove(&(*k, *w)).unwrap_or_default();
                prop_assert_eq!(
                    &got,
                    &expect,
                    "backend {} diverged on take({},{})",
                    choice.name(),
                    k,
                    w
                );
            }
            AppendOp::Flush => store.flush().unwrap(),
        }
    }
    // Drain the remaining model state.
    for ((k, w), expect) in model {
        let got = store.take_values(&key(k), window(w)).unwrap();
        prop_assert_eq!(
            &got,
            &expect,
            "backend {} final ({},{})",
            choice.name(),
            k,
            w
        );
    }
    store.close().unwrap();
    Ok(())
}

fn check_agg_model(choice: &BackendChoice, ops: &[AggOp]) -> Result<(), TestCaseError> {
    let semantics =
        OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Fixed { size: 100 });
    let mut store = make_store(choice, semantics);
    let mut model: HashMap<(u8, u8), Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            AggOp::Put { k, w, value } => {
                store.put_aggregate(&key(*k), window(*w), value).unwrap();
                model.insert((*k, *w), value.clone());
            }
            AggOp::Take { k, w } => {
                let got = store.take_aggregate(&key(*k), window(*w)).unwrap();
                let expect = model.remove(&(*k, *w));
                prop_assert_eq!(
                    &got,
                    &expect,
                    "backend {} diverged on take({},{})",
                    choice.name(),
                    k,
                    w
                );
            }
            AggOp::Flush => store.flush().unwrap(),
        }
    }
    for ((k, w), expect) in model {
        let got = store.take_aggregate(&key(k), window(w)).unwrap();
        prop_assert_eq!(
            got,
            Some(expect),
            "backend {} final ({},{})",
            choice.name(),
            k,
            w
        );
    }
    store.close().unwrap();
    Ok(())
}

/// Cases per backend and pattern: 24 unless `PROPTEST_CASES` says
/// otherwise (CI's crash-matrix job runs 256).
fn cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn flowkv_append_matches_model(ops in append_ops()) {
        check_append_model(&BackendChoice::all_small_for_tests()[1], &ops)?;
    }

    #[test]
    fn lsm_append_matches_model(ops in append_ops()) {
        check_append_model(&BackendChoice::all_small_for_tests()[2], &ops)?;
    }

    #[test]
    fn hashkv_append_matches_model(ops in append_ops()) {
        check_append_model(&BackendChoice::all_small_for_tests()[3], &ops)?;
    }

    #[test]
    fn flowkv_aggregates_match_model(ops in agg_ops()) {
        check_agg_model(&BackendChoice::all_small_for_tests()[1], &ops)?;
    }

    #[test]
    fn lsm_aggregates_match_model(ops in agg_ops()) {
        check_agg_model(&BackendChoice::all_small_for_tests()[2], &ops)?;
    }

    #[test]
    fn hashkv_aggregates_match_model(ops in agg_ops()) {
        check_agg_model(&BackendChoice::all_small_for_tests()[3], &ops)?;
    }
}
