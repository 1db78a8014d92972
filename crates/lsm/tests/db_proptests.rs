//! Property tests for the LSM database against a sorted-map model.
//!
//! Arbitrary interleavings of puts, merges, deletes, gets, scans, and
//! flushes must match a `BTreeMap` model — across flush-induced L0
//! files, level compactions, tombstones, and merge-operand folding.

use std::collections::BTreeMap;

use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::StdVfs;
use flowkv_lsm::entry::Resolved;
use flowkv_lsm::{Db, DbConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Put { k: u8, v: Vec<u8> },
    Merge { k: u8, v: Vec<u8> },
    Delete { k: u8 },
    Get { k: u8 },
    Scan { lo: u8, hi: u8, limit: usize },
    Flush,
    Compact,
}

#[derive(Clone, Debug, PartialEq)]
enum ModelValue {
    Value(Vec<u8>),
    List(Vec<Vec<u8>>),
}

fn key(k: u8) -> Vec<u8> {
    format!("key-{k:03}").into_bytes()
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let val = prop::collection::vec(any::<u8>(), 0..24);
    prop::collection::vec(
        prop_oneof![
            3 => (0u8..12, val.clone()).prop_map(|(k, v)| Op::Put { k, v }),
            3 => (0u8..12, val).prop_map(|(k, v)| Op::Merge { k, v }),
            2 => (0u8..12).prop_map(|k| Op::Delete { k }),
            3 => (0u8..12).prop_map(|k| Op::Get { k }),
            1 => (0u8..12, 0u8..14, 1usize..20)
                .prop_map(|(lo, hi, limit)| Op::Scan { lo, hi, limit }),
            1 => Just(Op::Flush),
            1 => Just(Op::Compact),
        ],
        1..200,
    )
}

fn model_of(resolved: Resolved) -> Option<ModelValue> {
    match resolved {
        Resolved::Absent => None,
        Resolved::Value(v) => Some(ModelValue::Value(v)),
        Resolved::List(l) => Some(ModelValue::List(l)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn db_matches_btreemap_model(ops in ops()) {
        let dir = ScratchDir::new("lsm-prop").unwrap();
        let mut cfg = DbConfig::small_for_tests();
        // Aggressive thresholds so compactions happen under tiny data.
        cfg.write_buffer_bytes = 256;
        cfg.l0_compaction_trigger = 2;
        cfg.level_base_bytes = 2 << 10;
        let mut db = Db::open(dir.path(), cfg, Default::default(), StdVfs::shared()).unwrap();
        let mut model: BTreeMap<Vec<u8>, ModelValue> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put { k, v } => {
                    db.put(&key(*k), v).unwrap();
                    model.insert(key(*k), ModelValue::Value(v.clone()));
                }
                Op::Merge { k, v } => {
                    db.merge(&key(*k), v).unwrap();
                    match model.entry(key(*k)).or_insert_with(|| ModelValue::List(vec![])) {
                        ModelValue::List(l) => l.push(v.clone()),
                        ModelValue::Value(base) => {
                            let list = vec![base.clone(), v.clone()];
                            model.insert(key(*k), ModelValue::List(list));
                        }
                    }
                }
                Op::Delete { k } => {
                    db.delete(&key(*k)).unwrap();
                    model.remove(&key(*k));
                }
                Op::Get { k } => {
                    let got = model_of(db.get(&key(*k)).unwrap());
                    prop_assert_eq!(&got, &model.get(&key(*k)).cloned(), "get {}", k);
                }
                Op::Scan { lo, hi, limit } => {
                    let (lo_k, hi_k) = (key(*lo), key(*hi));
                    if lo_k >= hi_k {
                        continue;
                    }
                    let (items, resume) = db.scan(&lo_k, &hi_k, *limit).unwrap();
                    let expected: Vec<(Vec<u8>, ModelValue)> = model
                        .range(lo_k.clone()..hi_k.clone())
                        .take(*limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    let got: Vec<(Vec<u8>, ModelValue)> = items
                        .into_iter()
                        .map(|(k, r)| (k, model_of(r).expect("scan yields live")))
                        .collect();
                    prop_assert_eq!(&got, &expected);
                    // A resume token is mandatory when more live entries
                    // remain, and forbidden when the range was not even
                    // filled to the limit. (Exactly-at-limit may return a
                    // token optimistically, like LevelDB-style cursors.)
                    let model_count = model.range(lo_k..hi_k).count();
                    if model_count > *limit {
                        prop_assert!(resume.is_some());
                    }
                    if model_count < *limit {
                        prop_assert!(resume.is_none());
                    }
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => {
                    db.flush().unwrap();
                    db.maybe_compact().unwrap();
                }
            }
        }
        // Final full sweep.
        for (k, expect) in &model {
            let got = model_of(db.get(k).unwrap());
            prop_assert_eq!(&got, &Some(expect.clone()));
        }
    }

    #[test]
    fn reopen_preserves_flushed_state(ops in ops()) {
        let dir = ScratchDir::new("lsm-prop-reopen").unwrap();
        let mut model: BTreeMap<Vec<u8>, ModelValue> = BTreeMap::new();
        {
            let cfg = DbConfig::small_for_tests();
            let mut db = Db::open(dir.path(), cfg, Default::default(), StdVfs::shared()).unwrap();
            for op in &ops {
                match op {
                    Op::Put { k, v } => {
                        db.put(&key(*k), v).unwrap();
                        model.insert(key(*k), ModelValue::Value(v.clone()));
                    }
                    Op::Merge { k, v } => {
                        db.merge(&key(*k), v).unwrap();
                        match model.entry(key(*k)).or_insert_with(|| ModelValue::List(vec![])) {
                            ModelValue::List(l) => l.push(v.clone()),
                            ModelValue::Value(base) => {
                                let list = vec![base.clone(), v.clone()];
                                model.insert(key(*k), ModelValue::List(list));
                            }
                        }
                    }
                    Op::Delete { k } => {
                        db.delete(&key(*k)).unwrap();
                        model.remove(&key(*k));
                    }
                    _ => {}
                }
            }
            db.flush().unwrap();
        }
        let cfg = DbConfig::small_for_tests();
        let mut db = Db::open(dir.path(), cfg, Default::default(), StdVfs::shared()).unwrap();
        for (k, expect) in &model {
            let got = model_of(db.get(k).unwrap());
            prop_assert_eq!(&got, &Some(expect.clone()), "after reopen");
        }
    }
}
