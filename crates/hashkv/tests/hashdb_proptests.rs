//! Property tests for the hash store against a `HashMap` model.
//!
//! Arbitrary interleavings of upserts, deletes, reads, RMWs, and flushes
//! must match the model across in-place updates, log flushes, space-
//! amplification compactions, and crash-recovery replays.

use std::collections::HashMap;

use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::StdVfs;
use flowkv_hashkv::{HashDb, HashDbConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Upsert { k: u8, v: Vec<u8> },
    Delete { k: u8 },
    Read { k: u8 },
    Rmw { k: u8, extend: u8 },
    Flush,
}

fn key(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let val = prop::collection::vec(any::<u8>(), 0..32);
    prop::collection::vec(
        prop_oneof![
            4 => (0u8..10, val).prop_map(|(k, v)| Op::Upsert { k, v }),
            2 => (0u8..10).prop_map(|k| Op::Delete { k }),
            3 => (0u8..10).prop_map(|k| Op::Read { k }),
            2 => (0u8..10, any::<u8>()).prop_map(|(k, extend)| Op::Rmw { k, extend }),
            1 => Just(Op::Flush),
        ],
        1..200,
    )
}

fn tiny_cfg() -> HashDbConfig {
    HashDbConfig {
        mem_budget: 256,
        max_space_amplification: 1.5,
        min_compact_bytes: 1 << 10,
        initial_index_capacity: 8,
    }
}

fn apply(
    db: &mut HashDb,
    model: &mut HashMap<Vec<u8>, Vec<u8>>,
    op: &Op,
) -> Result<(), TestCaseError> {
    match op {
        Op::Upsert { k, v } => {
            db.upsert(&key(*k), v).unwrap();
            model.insert(key(*k), v.clone());
        }
        Op::Delete { k } => {
            db.delete(&key(*k)).unwrap();
            model.remove(&key(*k));
        }
        Op::Read { k } => {
            let got = db.read(&key(*k)).unwrap();
            prop_assert_eq!(&got, &model.get(&key(*k)).cloned(), "read {}", k);
        }
        Op::Rmw { k, extend } => {
            db.rmw(&key(*k), |cur| {
                let mut v = cur.map(|c| c.to_vec()).unwrap_or_default();
                v.push(*extend);
                v
            })
            .unwrap();
            let entry = model.entry(key(*k)).or_default();
            entry.push(*extend);
        }
        Op::Flush => db.flush().unwrap(),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hashdb_matches_model(ops in ops()) {
        let dir = ScratchDir::new("hash-prop").unwrap();
        let mut db =
            HashDb::open(dir.path(), tiny_cfg(), Default::default(), StdVfs::shared()).unwrap();
        let mut model = HashMap::new();
        for op in &ops {
            apply(&mut db, &mut model, op)?;
        }
        prop_assert_eq!(db.len(), model.len());
        for (k, expect) in &model {
            prop_assert_eq!(&db.read(k).unwrap(), &Some(expect.clone()));
        }
        // Live scan sees exactly the model's keys.
        let mut live = 0;
        db.scan_live(|k, v| {
            assert_eq!(model.get(k).map(|e| e.as_slice()), Some(v));
            live += 1;
        }).unwrap();
        prop_assert_eq!(live, model.len());
    }

    #[test]
    fn reopen_replays_to_model(ops in ops()) {
        let dir = ScratchDir::new("hash-prop-reopen").unwrap();
        let mut model = HashMap::new();
        {
            let mut db =
                HashDb::open(dir.path(), tiny_cfg(), Default::default(), StdVfs::shared()).unwrap();
            for op in &ops {
                apply(&mut db, &mut model, op)?;
            }
            db.flush().unwrap();
        }
        let db =
            HashDb::open(dir.path(), tiny_cfg(), Default::default(), StdVfs::shared()).unwrap();
        prop_assert_eq!(db.len(), model.len());
        for (k, expect) in &model {
            prop_assert_eq!(&db.read(k).unwrap(), &Some(expect.clone()), "after reopen");
        }
    }

    #[test]
    fn checkpoint_restore_matches_model(ops in ops(), cut in any::<prop::sample::Index>()) {
        let dir = ScratchDir::new("hash-prop-ckpt").unwrap();
        let ckpt = ScratchDir::new("hash-prop-ckpt-dst").unwrap();
        let mut db =
            HashDb::open(dir.path(), tiny_cfg(), Default::default(), StdVfs::shared()).unwrap();
        let mut model = HashMap::new();
        let cut = cut.index(ops.len().max(1));
        for op in &ops[..cut] {
            apply(&mut db, &mut model, op)?;
        }
        db.checkpoint(ckpt.path()).unwrap();
        // Post-checkpoint noise: mutations only (reads would assert
        // against the wrong model), all erased by the restore.
        for op in &ops[cut..] {
            match op {
                Op::Upsert { k, v } => db.upsert(&key(*k), v).unwrap(),
                Op::Delete { k } => db.delete(&key(*k)).unwrap(),
                Op::Rmw { k, extend } => db
                    .rmw(&key(*k), |cur| {
                        let mut v = cur.map(|c| c.to_vec()).unwrap_or_default();
                        v.push(*extend);
                        v
                    })
                    .unwrap(),
                Op::Read { .. } | Op::Flush => {}
            }
        }
        db.restore(ckpt.path()).unwrap();
        prop_assert_eq!(db.len(), model.len());
        for (k, expect) in &model {
            prop_assert_eq!(&db.read(k).unwrap(), &Some(expect.clone()), "after restore");
        }
    }
}
