//! Property: the stores that rebuild their memory side by scanning their
//! log fail structurally on any log. A log of arbitrary payloads in valid
//! CRC framing — random bytes, well-formed AUR data records, and such
//! records cut short or with a byte flipped — reopens as an AUR store
//! (`data_0.aurd`) and as an RMW store (`agg_0.rmw`) to `Ok` or to
//! `StoreError::Corruption`: never a panic, never another error. Every
//! decoder of bytes from disk fails structurally (ROADMAP, north star).
//!
//! The tier rebuilds its block index the same way, from the cold log of
//! a checkpoint: one whose records are arbitrary payloads or cold blocks
//! of arbitrary windows, kinds and rows — whole, cut short or with a
//! byte flipped — restores a tiered store to `Ok` or to corruption.
//!
//! Tier-1 runs 64 cases; `PROPTEST_CASES` deepens the search (CI's
//! crash-matrix job runs 256).

use std::collections::BTreeMap;
use std::path::Path;

use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv::rmw::{RmwConfig, RmwStore};
use flowkv::{FlowKvConfig, FlowKvFactory, TierConfig, TieredFactory};
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackendFactory, StateEntry, WindowKind,
};
use flowkv_common::codec::{put_len_prefixed, put_varint_i64, put_varint_u64};
use flowkv_common::columnar::{BlockKind, BlockWriter};
use flowkv_common::error::Result;
use flowkv_common::logfile::LogWriter;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::StdVfs;
use proptest::prelude::*;

/// One record of the generated log, before it is shaped.
#[derive(Clone, Debug)]
struct Draw {
    /// 0: `bytes` as they are; 1: a well-formed record; 2: one cut at
    /// `at`; 3: one with the byte at `at` flipped by `flip`.
    shape: u8,
    key: Vec<u8>,
    window: (i64, i64),
    max_ts: i64,
    /// A small value count, or any `u64` when the flag is set.
    count: (bool, u64),
    bytes: Vec<u8>,
    at: prop::sample::Index,
    flip: u8,
}

fn draw() -> impl Strategy<Value = Draw> {
    (
        (0u8..4, prop::collection::vec(any::<u8>(), 0..12)),
        (any::<(i64, i64)>(), any::<i64>(), any::<(bool, u64)>()),
        (
            prop::collection::vec(any::<u8>(), 0..40),
            any::<prop::sample::Index>(),
        ),
        1u8..=255,
    )
        .prop_map(
            |((shape, key), (window, max_ts, count), (bytes, at), flip)| Draw {
                shape,
                key,
                window,
                max_ts,
                count,
                bytes,
                at,
                flip,
            },
        )
}

impl Draw {
    /// The payload: an AUR data record's header — composite `window ‖
    /// key`, `max_ts`, value count — then `bytes`, shaped.
    fn payload(&self) -> Vec<u8> {
        if self.shape == 0 {
            return self.bytes.clone();
        }
        let window = WindowId {
            start: self.window.0,
            end: self.window.1,
        };
        let mut composite = window.to_ordered_bytes().to_vec();
        composite.extend_from_slice(&self.key);
        let mut payload = Vec::new();
        put_len_prefixed(&mut payload, &composite);
        put_varint_i64(&mut payload, self.max_ts);
        let count = match self.count {
            (true, any) => any,
            (false, small) => small % 8,
        };
        put_varint_u64(&mut payload, count);
        payload.extend_from_slice(&self.bytes);
        let len = payload.len();
        match self.shape {
            2 => payload.truncate(self.at.index(len + 1)),
            3 => payload[self.at.index(len)] ^= self.flip,
            _ => {}
        }
        payload
    }
}

/// One record of a generated cold log, before it is shaped.
#[derive(Clone, Debug)]
struct BlockDraw {
    /// 0: `bytes` as a payload; 2: a cold block cut at `at`; 3: one with
    /// the byte at `at` flipped by `flip`; else, a whole cold block.
    shape: u8,
    /// Ordered at the payload, as every writer orders it.
    window: (i64, i64),
    /// The kind the store does not keep, one block in eight.
    foreign: u8,
    compress: bool,
    /// `(key, ts, value)`.
    rows: Vec<(Vec<u8>, i64, Vec<u8>)>,
    bytes: Vec<u8>,
    at: prop::sample::Index,
    flip: u8,
}

fn block_draw() -> impl Strategy<Value = BlockDraw> {
    let row = (
        prop::collection::vec(any::<u8>(), 0..6),
        any::<i64>(),
        prop::collection::vec(any::<u8>(), 0..10),
    );
    (
        (0u8..6, any::<(i64, i64)>(), 0u8..8, any::<bool>()),
        prop::collection::vec(row, 0..6),
        (
            prop::collection::vec(any::<u8>(), 0..40),
            any::<prop::sample::Index>(),
            1u8..=255,
        ),
    )
        .prop_map(
            |((shape, window, foreign, compress), rows, (bytes, at, flip))| BlockDraw {
                shape,
                window,
                foreign,
                compress,
                rows,
                bytes,
                at,
                flip,
            },
        )
}

impl BlockDraw {
    /// The payload, for a store of aggregates when `aggregates` is set.
    fn payload(&self, aggregates: bool) -> Vec<u8> {
        if self.shape == 0 {
            return self.bytes.clone();
        }
        let mut writer = BlockWriter::new(self.compress);
        for (key, ts, value) in &self.rows {
            writer.push(key, *ts, value);
        }
        let window = WindowId {
            start: self.window.0.min(self.window.1),
            end: self.window.0.max(self.window.1),
        };
        let kind = match aggregates != (self.foreign == 0) {
            true => BlockKind::Aggregates,
            false => BlockKind::Values,
        };
        let mut payload = writer.finish(window, kind).unwrap().to_vec();
        let len = payload.len();
        match self.shape {
            2 => payload.truncate(self.at.index(len + 1)),
            3 => payload[self.at.index(len)] ^= self.flip,
            _ => {}
        }
        payload
    }
}

/// Cases of the property: 64 unless `PROPTEST_CASES` says otherwise.
fn cases() -> u32 {
    let cases = std::env::var("PROPTEST_CASES").ok();
    cases.and_then(|n| n.parse().ok()).unwrap_or(64)
}

/// Writes `payloads` as the log `name` in `dir`, CRC-framed.
fn write_log(dir: &Path, name: &str, payloads: &[Vec<u8>]) {
    let vfs = StdVfs::shared();
    vfs.create_dir_all(dir).unwrap();
    let mut writer = LogWriter::create_in(&vfs, dir.join(name)).unwrap();
    for payload in payloads {
        writer.append(payload).unwrap();
    }
    writer.sync().unwrap();
}

/// `Ok`, or corruption: anything else fails the property.
fn structural<T>(store: &str, opened: Result<T>) -> std::result::Result<(), TestCaseError> {
    match opened {
        Ok(_) => Ok(()),
        Err(e) if e.is_corruption() => Ok(()),
        Err(e) => Err(TestCaseError(format!("{store} reopened to {e}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    #[test]
    fn a_rebuild_by_scan_fails_structurally(draws in prop::collection::vec(draw(), 1..12)) {
        let payloads: Vec<Vec<u8>> = draws.iter().map(Draw::payload).collect();
        let dir = ScratchDir::new("rebuild-prop").unwrap();

        let aur_dir = dir.path().join("aur");
        write_log(&aur_dir, "data_0.aurd", &payloads);
        let mut aur = AurStore::open(
            &aur_dir,
            AurConfig::default(),
            EttPredictor::SessionGap { gap: 100 },
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        );
        if let Ok(store) = aur.as_mut() {
            // What the rebuild accepted serves or fails without a panic.
            let _ = store.collect_view(&mut BTreeMap::new());
        }
        structural("aur", aur)?;

        let rmw_dir = dir.path().join("rmw");
        write_log(&rmw_dir, "agg_0.rmw", &payloads);
        let metrics = StoreMetrics::new_shared();
        let mut rmw = RmwStore::open(&rmw_dir, RmwConfig::default(), metrics, StdVfs::shared());
        if let Ok(store) = rmw.as_mut() {
            let _ = store.collect_view(&mut BTreeMap::new());
        }
        structural("rmw", rmw)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    #[test]
    fn a_tier_restore_fails_structurally(
        draws in prop::collection::vec(block_draw(), 1..6),
        aggregates in any::<bool>(),
    ) {
        let payloads: Vec<Vec<u8>> = draws.iter().map(|d| d.payload(aggregates)).collect();
        let dir = ScratchDir::new("rebuild-prop-tier").unwrap();
        let (aggregate, window) = match aggregates {
            true => (AggregateKind::Incremental, WindowKind::Fixed { size: 100 }),
            false => (AggregateKind::FullList, WindowKind::Session { gap: 100 }),
        };
        let ctx = OperatorContext {
            operator: "rebuild-prop".to_string(),
            partition: 0,
            semantics: OperatorSemantics::new(aggregate, window),
            data_dir: dir.path().join("data"),
            telemetry: None,
            io: None,
        };
        let vfs = StdVfs::shared();
        let inner = FlowKvFactory::new(FlowKvConfig::small_for_tests(), vfs.clone());
        let mut store = TieredFactory::new(std::sync::Arc::new(inner), TierConfig::new(0), vfs)
            .create(&ctx)
            .unwrap();
        // A real checkpoint of the empty store, its cold log replaced.
        let ckpt = dir.path().join("ckpt");
        store.checkpoint(&ckpt).unwrap();
        write_log(&ckpt, "COLDLOG", &payloads);
        let restored = store.restore(&ckpt);
        if restored.is_ok() {
            // What the rebuild accepted serves or fails without a panic.
            let _ = store.read_view();
            // Each entry it holds promotes its window and is taken.
            for entry in store.extract_range(&|_| true, aggregate).unwrap_or_default() {
                let _ = match entry {
                    StateEntry::Values { key, window, .. } => store.take_values(&key, window).map(drop),
                    StateEntry::Aggregate { key, window, .. } => store.take_aggregate(&key, window).map(drop),
                };
            }
        }
        structural("tier", restored)?;
    }
}
