//! Property tests for the AUR store against an in-memory model, across
//! randomized configurations.
//!
//! The AUR store's correctness-critical machinery — write-buffer spills,
//! predictive batch reads (synchronous and over an I/O ring), prefetched
//! copies that outlive appends and grow with flushes, the offset rule
//! that keeps a consumed incarnation's records dead, and MSA-triggered
//! compaction — must never change the fetch-and-remove semantics. The
//! model is a plain map of value lists.
//!
//! Tier-1 runs 32 cases per configuration; `PROPTEST_CASES` deepens the
//! search (CI's crash-matrix job runs 256).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::registry::ViewValue;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::StdVfs;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Append a value for key k in the window starting at w*100.
    Append {
        k: u8,
        w: u8,
        len: u8,
        ts: i64,
    },
    /// Fetch-and-remove key k's window w.
    Take {
        k: u8,
        w: u8,
    },
    Flush,
    /// Read key k's window w without consuming it.
    Peek {
        k: u8,
        w: u8,
    },
    /// Build the serving view and compare it with the model.
    CollectView,
    /// Checkpoint, then restore from that checkpoint: state is unchanged.
    CheckpointRestore,
    /// Tick the background prefetcher at stream time `t`; with `land`,
    /// wait for the submitted read and tick again so it is installed.
    AdvancePrefetch {
        t: i64,
        land: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..5, 0u8..4, any::<u8>(), 0i64..500)
            .prop_map(|(k, w, len, ts)| Op::Append { k, w, len, ts }),
        3 => (0u8..5, 0u8..4).prop_map(|(k, w)| Op::Take { k, w }),
        1 => Just(Op::Flush),
        1 => (0u8..5, 0u8..4).prop_map(|(k, w)| Op::Peek { k, w }),
        1 => prop_oneof![
            4 => Just(Op::CollectView),
            1 => Just(Op::CheckpointRestore),
        ],
        1 => (0i64..500, any::<bool>())
            .prop_map(|(t, land)| Op::AdvancePrefetch { t, land }),
    ]
}

/// A window is put on disk and read ahead, then extends: an `Append`
/// meets a prefetched copy (a landed ring read, or the `Peek`'s batch
/// read without a ring), a `Peek` serves copy and buffer together, and
/// a `Flush` runs under the copy — or, with `land` false, under a ring
/// read that may still be in flight.
fn extend_after_prefetch() -> impl Strategy<Value = Vec<Op>> {
    (0u8..5, 0u8..4, any::<u8>(), 0i64..500, any::<bool>()).prop_map(|(k, w, len, ts, land)| {
        let append = Op::Append { k, w, len, ts };
        let peek = Op::Peek { k, w };
        let tick = Op::AdvancePrefetch { t: ts, land };
        vec![
            append.clone(),
            Op::Flush,
            tick,
            append.clone(),
            peek.clone(),
            Op::Flush,
            append,
            peek,
        ]
    })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let step = prop_oneof![
        13 => op().prop_map(|op| vec![op]),
        1 => extend_after_prefetch(),
    ];
    prop::collection::vec(step, 1..150).prop_map(|steps| steps.concat())
}

/// Cases per configuration: 32 unless `PROPTEST_CASES` says otherwise.
fn cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(32)
}

fn window(w: u8) -> WindowId {
    let start = i64::from(w) * 100;
    WindowId::new(start, start + 100)
}

/// Per-key window lists drained at the end of a model run.
type Remaining = Vec<((u8, u8), Vec<Vec<u8>>)>;

/// A value derived deterministically from the op so mismatches are
/// attributable.
fn value(k: u8, w: u8, len: u8, ts: i64) -> Vec<u8> {
    let mut v = vec![k, w];
    v.extend_from_slice(&ts.to_le_bytes());
    v.extend(std::iter::repeat_n(0xab, usize::from(len) % 64));
    v
}

fn check(ops: &[Op], cfg: AurConfig) -> Result<(), TestCaseError> {
    check_on(ops, cfg, None)
}

/// Runs `ops` against a store and the model; with `ring`, the store's
/// predictive reads and scans go through it.
fn check_on(ops: &[Op], cfg: AurConfig, ring: Option<Arc<IoRing>>) -> Result<(), TestCaseError> {
    let dir = ScratchDir::new("aur-prop").unwrap();
    let mut store = AurStore::open(
        dir.path(),
        cfg,
        EttPredictor::SessionGap { gap: 50 },
        StoreMetrics::new_shared(),
        StdVfs::shared(),
    )
    .unwrap();
    if let Some(ring) = &ring {
        store.set_ring(Arc::clone(ring));
    }
    let key = |k: u8| format!("key{k}").into_bytes();
    let mut model: HashMap<(u8, u8), Vec<Vec<u8>>> = HashMap::new();
    let empty = store.memory_bytes();
    // Takes alternate between the owned form and the borrowed one.
    let mut borrowed = false;
    let mut take = |store: &mut AurStore, k: u8, w: u8| {
        borrowed = !borrowed;
        if !borrowed {
            return store.take(&key(k), window(w)).unwrap();
        }
        let mut got = Vec::new();
        let lent = store.take_with(&key(k), window(w), &mut |v| got.push(v.to_vec()));
        assert_eq!(lent.unwrap(), got.len());
        got
    };
    for op in ops {
        match *op {
            Op::Append { k, w, len, ts } => {
                let v = value(k, w, len, ts);
                store.append(&key(k), window(w), &v, ts).unwrap();
                model.entry((k, w)).or_default().push(v);
            }
            Op::Take { k, w } => {
                let got = take(&mut store, k, w);
                let expect = model.remove(&(k, w)).unwrap_or_default();
                prop_assert_eq!(got, expect, "take({}, {})", k, w);
            }
            Op::Flush => store.flush().unwrap(),
            Op::Peek { k, w } => {
                let got = store.peek(&key(k), window(w)).unwrap();
                let expect = model.get(&(k, w)).cloned().unwrap_or_default();
                prop_assert_eq!(got, expect, "peek({}, {})", k, w);
            }
            Op::CollectView => {
                let mut view = BTreeMap::new();
                store.collect_view(&mut view).unwrap();
                let expect: BTreeMap<_, _> = model
                    .iter()
                    .map(|(&(k, w), values)| {
                        ((key(k), window(w)), ViewValue::Values(values.clone()))
                    })
                    .collect();
                prop_assert_eq!(view, expect);
            }
            Op::CheckpointRestore => {
                let ckpt = ScratchDir::new("aur-prop-roundtrip").unwrap();
                store.checkpoint(ckpt.path()).unwrap();
                store.restore(ckpt.path()).unwrap();
            }
            Op::AdvancePrefetch { t, land } => {
                store.advance_prefetch(t).unwrap();
                if let (Some(ring), true) = (&ring, land) {
                    ring.wait_idle();
                    store.advance_prefetch(t).unwrap();
                }
            }
        }
        // Prefetched copies are counted: each holds a value of at least
        // `value`'s ten bytes behind its length byte.
        let copies = store.prefetched_windows();
        prop_assert!(
            store.memory_bytes() >= empty + 11 * copies,
            "{copies} copies"
        );
    }
    // Drain whatever the model still holds.
    let mut remaining: Remaining = model.into_iter().collect();
    remaining.sort_by_key(|(kw, _)| *kw);
    for ((k, w), expect) in remaining {
        let got = take(&mut store, k, w);
        prop_assert_eq!(got, expect, "final take({}, {})", k, w);
    }
    // Every copy left the accounting with its window.
    prop_assert_eq!(
        (store.prefetched_windows(), store.memory_bytes()),
        (0, empty)
    );
    store.close().unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Tiny buffers: every append path goes through flush + batch read.
    #[test]
    fn matches_model_with_tiny_buffers(ops in ops()) {
        check(&ops, AurConfig {
            write_buffer_bytes: 256,
            read_batch_ratio: 0.1,
            max_space_amplification: 1.2,
        })?;
    }

    /// Prefetching disabled: the per-window read path.
    #[test]
    fn matches_model_without_prefetch(ops in ops()) {
        check(&ops, AurConfig {
            write_buffer_bytes: 512,
            read_batch_ratio: 0.0,
            max_space_amplification: 1.5,
        })?;
    }

    /// Aggressive prefetching plus lazy compaction.
    #[test]
    fn matches_model_with_aggressive_prefetch(ops in ops()) {
        check(&ops, AurConfig {
            write_buffer_bytes: 1024,
            read_batch_ratio: 1.0,
            max_space_amplification: 4.0,
        })?;
    }

    /// Every predictive read and view over a two-thread I/O ring: the
    /// job's snapshot of each window's listed records and the install
    /// checks.
    #[test]
    fn matches_model_over_an_io_ring(ops in ops()) {
        let ring = Arc::new(IoRing::new(2, None, None));
        check_on(&ops, AurConfig {
            write_buffer_bytes: 256,
            read_batch_ratio: 0.5,
            max_space_amplification: 1.5,
        }, Some(ring))?;
    }

    /// An MSA so low that nearly every consume compacts: compactions
    /// interleave with re-appends to consumed windows.
    #[test]
    fn matches_model_with_eager_compaction(ops in ops()) {
        check(&ops, AurConfig {
            write_buffer_bytes: 128,
            read_batch_ratio: 0.1,
            max_space_amplification: 1.01,
        })?;
    }

    /// Checkpoint/restore at a random cut keeps the prefix state.
    #[test]
    fn checkpoint_restore_at_random_cut(ops in ops(), cut in any::<prop::sample::Index>()) {
        let dir = ScratchDir::new("aur-prop-ckpt").unwrap();
        let ckpt = ScratchDir::new("aur-prop-ckpt-dst").unwrap();
        let cfg = AurConfig {
            write_buffer_bytes: 512,
            read_batch_ratio: 0.1,
            max_space_amplification: 1.5,
        };
        let mut store = AurStore::open(
            dir.path(),
            cfg,
            EttPredictor::SessionGap { gap: 50 },
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        ).unwrap();
        let mut model: HashMap<(u8, u8), Vec<Vec<u8>>> = HashMap::new();
        let cut = cut.index(ops.len().max(1));
        for op in &ops[..cut] {
            match *op {
                Op::Append { k, w, len, ts } => {
                    let v = value(k, w, len, ts);
                    store.append(format!("key{k}").as_bytes(), window(w), &v, ts).unwrap();
                    model.entry((k, w)).or_default().push(v);
                }
                Op::Take { k, w } => {
                    let got = store.take(format!("key{k}").as_bytes(), window(w)).unwrap();
                    let expect = model.remove(&(k, w)).unwrap_or_default();
                    prop_assert_eq!(got, expect);
                }
                Op::Flush => store.flush().unwrap(),
                // Covered by the model checks above.
                _ => {}
            }
        }
        store.checkpoint(ckpt.path()).unwrap();
        // Post-checkpoint noise that the restore must erase.
        store.append(b"key0", window(0), b"garbage", 499).unwrap();
        store.take(b"key1", window(1)).unwrap();
        store.restore(ckpt.path()).unwrap();

        let mut remaining: Remaining = model.into_iter().collect();
        remaining.sort_by_key(|(kw, _)| *kw);
        for ((k, w), expect) in remaining {
            let got = store.take(format!("key{k}").as_bytes(), window(w)).unwrap();
            prop_assert_eq!(got, expect, "restored take({}, {})", k, w);
        }
        store.close().unwrap();
    }
}
