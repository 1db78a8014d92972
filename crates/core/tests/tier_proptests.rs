//! Property tests for the tier against bare stores, per access pattern.
//!
//! A [`TieredStore`](flowkv::TieredStore) over a FlowKV store of aligned
//! full lists and a bare [`AarStore`] take the same appends. However
//! often the tier demotes on the way — at every append, at a 4 KiB
//! budget, never — a drain of the tiered store lends each key's values
//! in the order the bare store serves them: cold blocks ahead of the
//! wrapped store's pairs, owned chunks and borrowed steps alternating
//! within one drain, across flushes, checkpoint round trips and
//! demotions that land between two steps. Drained to the end, the tiered
//! store holds as little memory as it was opened with.
//!
//! The AUR (session full lists) and RMW (aggregates) patterns are held
//! the same way against a bare FlowKV store of the same semantics, at the
//! same three budgets: every take and peek of the tiered store answers
//! what the bare one does, however its keys were demoted and promoted in
//! between — a demotion takes an AUR window key by key through the
//! store's batch read, a promotion appends it back.
//!
//! Tier-1 runs 32 cases per budget; `PROPTEST_CASES` deepens the search
//! (CI's tiered-matrix job runs 256).

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::merge_chunks;
use flowkv::aar::AarStore;
use flowkv::tier::TierConfig;
use flowkv::{FlowKvConfig, FlowKvFactory, TieredFactory};
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, StateBackendFactory,
    WindowKind,
};
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Append a value for key k to the window starting at w*100. Skipped
    /// while that window is mid-drain: the engine never does that.
    Append {
        k: u8,
        w: u8,
        len: u8,
    },
    /// One step of window w's drain: an owned chunk or a borrowed step.
    Step {
        w: u8,
        owned: bool,
    },
    /// Drain window w to the end, alternating the two forms.
    DrainAll {
        w: u8,
    },
    Flush,
    /// Checkpoint, then restore from that checkpoint: state is unchanged.
    CheckpointRestore,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            10 => (0u8..6, 0u8..4, any::<u8>()).prop_map(|(k, w, len)| Op::Append { k, w, len }),
            3 => (0u8..4, any::<bool>()).prop_map(|(w, owned)| Op::Step { w, owned }),
            1 => (0u8..4).prop_map(|w| Op::DrainAll { w }),
            1 => Just(Op::Flush),
            1 => Just(Op::CheckpointRestore),
        ],
        1..160,
    )
}

/// Cases per budget: 32 unless `PROPTEST_CASES` says otherwise.
fn cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(32)
}

fn window(w: u8) -> WindowId {
    let start = i64::from(w) * 100;
    WindowId::new(start, start + 100)
}

type Lists = BTreeMap<Vec<u8>, Vec<Vec<u8>>>;

/// The tiered store under test beside the bare store that models it.
struct Harness {
    _dir: ScratchDir,
    tiered: Box<dyn StateBackend>,
    bare: AarStore,
    /// `memory_bytes()` of the tiered store before its first append.
    empty_memory: usize,
    /// What each mid-drain window has lent so far, by key.
    lent: BTreeMap<WindowId, Lists>,
    /// Appends so far; it leads every value, so values are unique.
    seq: u32,
}

impl Harness {
    fn new(hot_bytes: usize) -> Self {
        let dir = ScratchDir::new("tier-prop").unwrap();
        let ctx = OperatorContext {
            operator: "tier-prop".to_string(),
            partition: 0,
            semantics: OperatorSemantics::new(
                AggregateKind::FullList,
                WindowKind::Fixed { size: 100 },
            ),
            data_dir: dir.path().join("tiered"),
            telemetry: None,
            io: None,
        };
        let inner = Arc::new(FlowKvFactory::new(FlowKvConfig::small_for_tests()));
        let tiered = TieredFactory::new(inner, TierConfig::new(hot_bytes))
            .create(&ctx)
            .unwrap();
        let metrics = StoreMetrics::new_shared();
        let bare = AarStore::open(&dir.path().join("bare"), 2 << 10, 8, metrics).unwrap();
        Harness {
            _dir: dir,
            empty_memory: tiered.memory_bytes(),
            tiered,
            bare,
            lent: BTreeMap::new(),
            seq: 0,
        }
    }

    /// One step of `window`'s drain on the tiered store; `false` once it
    /// is over, at which point everything it lent is checked against a
    /// whole drain of the bare store.
    fn step(&mut self, window: WindowId, owned: bool) -> Result<bool, TestCaseError> {
        let lists = self.lent.entry(window).or_default();
        let more = if owned {
            let chunk = self.tiered.get_window_chunk(window).unwrap();
            let more = chunk.is_some();
            for (key, values) in chunk.into_iter().flatten() {
                lists.entry(key).or_default().extend(values);
            }
            more
        } else {
            let mut keep = |key: &[u8], value: &[u8]| {
                lists.entry(key.to_vec()).or_default().push(value.to_vec());
            };
            self.tiered.drain_window_chunk(window, &mut keep).unwrap()
        };
        if more {
            return Ok(true);
        }
        let lent = self.lent.remove(&window).unwrap_or_default();
        let mut chunks = Vec::new();
        while let Some(chunk) = self.bare.get_window_chunk(window).unwrap() {
            chunks.push(chunk);
        }
        prop_assert_eq!(lent, merge_chunks(chunks), "drain of {:?}", window);
        Ok(false)
    }

    fn drain_all(&mut self, window: WindowId) -> Result<(), TestCaseError> {
        let mut owned = false;
        while self.step(window, owned)? {
            owned = !owned;
        }
        Ok(())
    }

    /// Finishes every drain in progress.
    fn settle_drains(&mut self) -> Result<(), TestCaseError> {
        let open: Vec<WindowId> = self.lent.keys().copied().collect();
        open.into_iter().try_for_each(|w| self.drain_all(w))
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Append { k, w, len } => {
                if self.lent.contains_key(&window(w)) {
                    return Ok(());
                }
                self.seq += 1;
                let key = format!("key{k}").into_bytes();
                let mut value = self.seq.to_le_bytes().to_vec();
                value.extend(std::iter::repeat_n(k, usize::from(len) % 96));
                let ts = i64::from(self.seq);
                self.tiered.append(&key, window(w), &value, ts).unwrap();
                self.bare.append(&key, window(w), &value).unwrap();
            }
            Op::Step { w, owned } => drop(self.step(window(w), owned)?),
            Op::DrainAll { w } => self.drain_all(window(w))?,
            Op::Flush => self.tiered.flush().unwrap(),
            Op::CheckpointRestore => {
                // A barrier never lands between two steps of a drain.
                self.settle_drains()?;
                let ckpt = ScratchDir::new("tier-prop-ckpt").unwrap();
                self.tiered.checkpoint(ckpt.path()).unwrap();
                self.tiered.restore(ckpt.path()).unwrap();
            }
        }
        Ok(())
    }

    /// Drains every window: the tiered store is then as empty as it was
    /// opened.
    fn finish(mut self) -> Result<(), TestCaseError> {
        self.settle_drains()?;
        (0..4).try_for_each(|w| self.drain_all(window(w)))?;
        prop_assert_eq!(self.tiered.memory_bytes(), self.empty_memory);
        self.tiered.close().unwrap();
        Ok(())
    }
}

fn check(ops: &[Op], hot_bytes: usize) -> Result<(), TestCaseError> {
    let mut harness = Harness::new(hot_bytes);
    ops.iter().try_for_each(|op| harness.apply(op))?;
    harness.finish()
}

/// One call of the AUR or RMW pattern, on key `k`'s window starting at
/// `w*100`: an `Append` is a put of an aggregate under RMW, and RMW has
/// no peek.
#[derive(Clone, Debug)]
enum KeyedOp {
    Append { k: u8, w: u8, len: u8 },
    Take { k: u8, w: u8 },
    Peek { k: u8, w: u8 },
    Flush,
    CheckpointRestore,
    AdvancePrefetch,
}

fn keyed_ops() -> impl Strategy<Value = Vec<KeyedOp>> {
    prop::collection::vec(
        prop_oneof![
            10 => (0u8..6, 0u8..4, any::<u8>())
                .prop_map(|(k, w, len)| KeyedOp::Append { k, w, len }),
            4 => (0u8..6, 0u8..4).prop_map(|(k, w)| KeyedOp::Take { k, w }),
            1 => (0u8..6, 0u8..4).prop_map(|(k, w)| KeyedOp::Peek { k, w }),
            1 => Just(KeyedOp::Flush),
            1 => Just(KeyedOp::CheckpointRestore),
            1 => Just(KeyedOp::AdvancePrefetch),
        ],
        1..160,
    )
}

/// A tiered store and a bare one of the same semantics, side by side.
struct KeyedHarness {
    _dir: ScratchDir,
    tiered: Box<dyn StateBackend>,
    bare: Box<dyn StateBackend>,
    aggregate: AggregateKind,
    empty_memory: usize,
    seq: u32,
}

impl KeyedHarness {
    fn new(semantics: OperatorSemantics, hot_bytes: usize) -> Self {
        let dir = ScratchDir::new("tier-prop-keyed").unwrap();
        let ctx = |name: &str| OperatorContext {
            operator: "tier-prop".to_string(),
            partition: 0,
            semantics,
            data_dir: dir.path().join(name),
            telemetry: None,
            io: None,
        };
        let inner = Arc::new(FlowKvFactory::new(FlowKvConfig::small_for_tests()));
        let bare = inner.create(&ctx("bare")).unwrap();
        let tiered = TieredFactory::new(inner, TierConfig::new(hot_bytes))
            .create(&ctx("tiered"))
            .unwrap();
        KeyedHarness {
            _dir: dir,
            empty_memory: tiered.memory_bytes(),
            tiered,
            bare,
            aggregate: semantics.aggregate,
            seq: 0,
        }
    }

    /// Takes `(k, w)` from both stores; they must agree.
    fn take(&mut self, k: u8, w: u8) -> Result<(), TestCaseError> {
        let key = format!("key{k}").into_bytes();
        match self.aggregate {
            AggregateKind::FullList => prop_assert_eq!(
                self.tiered.take_values(&key, window(w)).unwrap(),
                self.bare.take_values(&key, window(w)).unwrap(),
                "take({}, {})",
                k,
                w
            ),
            AggregateKind::Incremental => prop_assert_eq!(
                self.tiered.take_aggregate(&key, window(w)).unwrap(),
                self.bare.take_aggregate(&key, window(w)).unwrap(),
                "take({}, {})",
                k,
                w
            ),
        }
        Ok(())
    }

    fn apply(&mut self, op: &KeyedOp) -> Result<(), TestCaseError> {
        let rmw = self.aggregate == AggregateKind::Incremental;
        match *op {
            KeyedOp::Append { k, w, len } => {
                self.seq += 1;
                let key = format!("key{k}").into_bytes();
                let mut value = self.seq.to_le_bytes().to_vec();
                value.extend(std::iter::repeat_n(k, usize::from(len) % 96));
                for store in [&mut self.tiered, &mut self.bare] {
                    if rmw {
                        store.put_aggregate(&key, window(w), &value).unwrap();
                    } else {
                        store
                            .append(&key, window(w), &value, i64::from(self.seq))
                            .unwrap();
                    }
                }
            }
            KeyedOp::Take { k, w } => self.take(k, w)?,
            KeyedOp::Peek { k, w } if !rmw => {
                let key = format!("key{k}").into_bytes();
                prop_assert_eq!(
                    self.tiered.peek_values(&key, window(w)).unwrap(),
                    self.bare.peek_values(&key, window(w)).unwrap(),
                    "peek({}, {})",
                    k,
                    w
                );
            }
            KeyedOp::Peek { .. } => {}
            KeyedOp::Flush => self.tiered.flush().unwrap(),
            KeyedOp::CheckpointRestore => {
                let ckpt = ScratchDir::new("tier-prop-keyed-ckpt").unwrap();
                self.tiered.checkpoint(ckpt.path()).unwrap();
                self.tiered.restore(ckpt.path()).unwrap();
            }
            KeyedOp::AdvancePrefetch => {
                let now = i64::from(self.seq);
                self.tiered.advance_prefetch(now).unwrap();
                self.bare.advance_prefetch(now).unwrap();
            }
        }
        Ok(())
    }

    /// Takes every pair: the tiered store is then as empty as it was
    /// opened.
    fn finish(mut self) -> Result<(), TestCaseError> {
        for k in 0..6 {
            (0..4).try_for_each(|w| self.take(k, w))?;
        }
        prop_assert_eq!(self.tiered.memory_bytes(), self.empty_memory);
        self.tiered.close().unwrap();
        self.bare.close().unwrap();
        Ok(())
    }
}

fn check_keyed(
    ops: &[KeyedOp],
    aggregate: AggregateKind,
    hot_bytes: usize,
) -> Result<(), TestCaseError> {
    let window = match aggregate {
        AggregateKind::FullList => WindowKind::Session { gap: 50 },
        AggregateKind::Incremental => WindowKind::Fixed { size: 100 },
    };
    let mut harness = KeyedHarness::new(OperatorSemantics::new(aggregate, window), hot_bytes);
    ops.iter().try_for_each(|op| harness.apply(op))?;
    harness.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// No hot tier at all: every append seals a one-row block, and a
    /// drain is cold blocks only.
    #[test]
    fn matches_a_bare_store_when_every_append_demotes(ops in ops()) {
        check(&ops, 0)?;
    }

    /// A 4 KiB hot tier: demotion waves land between appends and between
    /// the steps of a drain, and a drain crosses from blocks to the
    /// wrapped store's file and buffer.
    #[test]
    fn matches_a_bare_store_at_a_small_budget(ops in ops()) {
        check(&ops, 4 << 10)?;
    }

    /// A hot tier that never fills: only a checkpoint demotes.
    #[test]
    fn matches_a_bare_store_when_nothing_demotes(ops in ops()) {
        check(&ops, usize::MAX)?;
    }

    /// AUR session lists, every append demoted: each take promotes.
    #[test]
    fn aur_matches_a_bare_store_when_every_append_demotes(ops in keyed_ops()) {
        check_keyed(&ops, AggregateKind::FullList, 0)?;
    }

    #[test]
    fn aur_matches_a_bare_store_at_a_small_budget(ops in keyed_ops()) {
        check_keyed(&ops, AggregateKind::FullList, 4 << 10)?;
    }

    #[test]
    fn aur_matches_a_bare_store_when_nothing_demotes(ops in keyed_ops()) {
        check_keyed(&ops, AggregateKind::FullList, usize::MAX)?;
    }

    /// RMW aggregates: the last put wins whichever tier holds it.
    #[test]
    fn rmw_matches_a_bare_store_when_every_put_demotes(ops in keyed_ops()) {
        check_keyed(&ops, AggregateKind::Incremental, 0)?;
    }

    #[test]
    fn rmw_matches_a_bare_store_at_a_small_budget(ops in keyed_ops()) {
        check_keyed(&ops, AggregateKind::Incremental, 4 << 10)?;
    }

    #[test]
    fn rmw_matches_a_bare_store_when_nothing_demotes(ops in keyed_ops()) {
        check_keyed(&ops, AggregateKind::Incremental, usize::MAX)?;
    }
}
