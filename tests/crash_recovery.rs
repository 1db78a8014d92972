//! Crash recovery: stores must reopen cleanly after a torn write.
//!
//! A crash mid-flush leaves a partial record at the tail of an
//! append-only log. On reopen, every store must truncate the torn tail
//! and serve the longest intact prefix — never fail to open, never
//! serve corrupt data. (Lost suffixes are re-supplied by source replay,
//! the engine-level recovery contract of paper §8.)
//!
//! A fault mid-compaction falls under the same contract: whichever op of
//! the rewrite it lands on, the store reopens and every entry that was
//! live, unconsumed and flushed before the fault reads back exactly. So
//! does a fault inside an AUR flush, whose records reach the data log a
//! writer buffer at a time: what earlier flushes wrote reads back and
//! what the torn one wrote is served record by record, whole or not at
//! all.
//!
//! A fault inside a checkpoint — which copies the records a store lists
//! as live and leaves its log alone — costs nothing but that checkpoint:
//! the store answers on as it did, and a retried checkpoint restores to
//! those answers, with no consumed entry back.

mod common;

use std::fs::OpenOptions;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv::rmw::{RmwConfig, RmwStore};
use flowkv::tier::{TierConfig, TieredFactory};
use flowkv::{FlowKvConfig, FlowKvFactory};
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, StateBackendFactory,
    WindowKind,
};
use flowkv_common::error::Result;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_common::types::WindowId;
use flowkv_common::vfs::{splitmix64, FaultKind, FaultPlan, FaultVfs, StdVfs, Vfs};
use flowkv_hashkv::{HashDb, HashDbConfig};

/// Chops `bytes` off the end of the largest file matching `suffix`.
fn tear_tail(dir: &Path, suffix: &str, bytes: u64) {
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(suffix) {
            let len = entry.metadata().unwrap().len();
            if best.as_ref().is_none_or(|(l, _)| len > *l) {
                best = Some((len, entry.path()));
            }
        }
    }
    let (len, path) = best.unwrap_or_else(|| panic!("no {suffix} file in {}", dir.display()));
    assert!(len > bytes, "file too small to tear");
    let f = OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - bytes).unwrap();
}

fn w(start: i64, end: i64) -> WindowId {
    WindowId::new(start, end)
}

#[test]
fn aur_survives_torn_data_tail() {
    let dir = ScratchDir::new("crash-aur").unwrap();
    let cfg = AurConfig {
        write_buffer_bytes: 1 << 20,
        read_batch_ratio: 0.1,
        max_space_amplification: 1.5,
    };
    {
        let mut s = AurStore::open(
            dir.path(),
            cfg.clone(),
            EttPredictor::SessionGap { gap: 100 },
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        )
        .unwrap();
        for i in 0..50u64 {
            s.append(
                format!("key-{i}").as_bytes(),
                w(0, 100),
                &i.to_le_bytes(),
                i as i64,
            )
            .unwrap();
        }
        s.flush().unwrap();
        // Another flush, whose one data record we will tear.
        s.append(b"torn-key", w(0, 100), b"torn-value", 99).unwrap();
        s.flush().unwrap();
        // The store is dropped without sync: simulate the crash by
        // tearing the tail of the durable file directly.
    }
    tear_tail(dir.path(), ".aurd", 5);

    let mut s = AurStore::open(
        dir.path(),
        cfg,
        EttPredictor::SessionGap { gap: 100 },
        StoreMetrics::new_shared(),
        StdVfs::shared(),
    )
    .unwrap();
    // The intact prefix must be fully readable.
    for i in 0..50u64 {
        let got = s.take(format!("key-{i}").as_bytes(), w(0, 100)).unwrap();
        assert_eq!(got, vec![i.to_le_bytes().to_vec()], "key {i}");
    }
    // The torn record is gone, not corrupt.
    assert!(s.take(b"torn-key", w(0, 100)).unwrap().is_empty());
}

#[test]
fn rmw_survives_torn_log_tail() {
    let dir = ScratchDir::new("crash-rmw").unwrap();
    let cfg = RmwConfig {
        write_buffer_bytes: 1 << 20,
        max_space_amplification: 1.5,
    };
    {
        let mut s = RmwStore::open(
            dir.path(),
            cfg.clone(),
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        )
        .unwrap();
        for i in 0..50u64 {
            s.put(format!("key-{i}").as_bytes(), w(0, 100), &i.to_le_bytes())
                .unwrap();
        }
        s.flush().unwrap();
        s.put(b"torn-key", w(0, 100), b"torn").unwrap();
        s.flush().unwrap();
    }
    tear_tail(dir.path(), ".rmw", 3);

    let mut s = RmwStore::open(
        dir.path(),
        cfg,
        StoreMetrics::new_shared(),
        StdVfs::shared(),
    )
    .unwrap();
    for i in 0..50u64 {
        let got = s.take(format!("key-{i}").as_bytes(), w(0, 100)).unwrap();
        assert_eq!(got, Some(i.to_le_bytes().to_vec()), "key {i}");
    }
    assert_eq!(s.take(b"torn-key", w(0, 100)).unwrap(), None);
}

#[test]
fn hashdb_survives_torn_log_tail() {
    let dir = ScratchDir::new("crash-hash").unwrap();
    let cfg = HashDbConfig {
        mem_budget: 1 << 20,
        ..HashDbConfig::small_for_tests()
    };
    {
        let mut db = HashDb::open(
            dir.path(),
            cfg.clone(),
            Default::default(),
            StdVfs::shared(),
        )
        .unwrap();
        for i in 0..50u64 {
            db.upsert(format!("key-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        db.upsert(b"torn-key", b"torn").unwrap();
        db.flush().unwrap();
    }
    tear_tail(dir.path(), "hybrid.log", 2);

    let db = HashDb::open(dir.path(), cfg, Default::default(), StdVfs::shared()).unwrap();
    for i in 0..50u64 {
        assert_eq!(
            db.read(format!("key-{i}").as_bytes()).unwrap(),
            Some(i.to_le_bytes().to_vec()),
            "key {i}"
        );
    }
    assert_eq!(db.read(b"torn-key").unwrap(), None);
}

#[test]
fn aar_survives_torn_window_file_tail() {
    use flowkv::aar::AarStore;
    let dir = ScratchDir::new("crash-aar").unwrap();
    {
        let mut s = AarStore::open(
            dir.path(),
            1 << 20,
            8,
            StoreMetrics::new_shared(),
            StdVfs::shared(),
        )
        .unwrap();
        for i in 0..50u64 {
            s.append(format!("key-{i}").as_bytes(), w(0, 100), &i.to_le_bytes())
                .unwrap();
        }
        s.flush().unwrap();
        s.append(b"torn-key", w(0, 100), b"torn").unwrap();
        s.flush().unwrap();
    }
    tear_tail(dir.path(), ".aar", 3);

    // The AAR read path reads sequentially; a torn tail surfaces as a
    // clean end of the drain at the last intact record.
    let mut s = AarStore::open(
        dir.path(),
        1 << 20,
        8,
        StoreMetrics::new_shared(),
        StdVfs::shared(),
    )
    .unwrap();
    let mut keys = Vec::new();
    loop {
        match s.get_window_chunk(w(0, 100)) {
            Ok(Some(chunk)) => keys.extend(chunk.into_iter().map(|(k, _)| k)),
            Ok(None) => break,
            Err(e) => {
                // Tail corruption is also acceptable as a detected error,
                // but must not appear before the intact prefix is served.
                assert!(e.is_corruption(), "unexpected error {e}");
                break;
            }
        }
    }
    assert!(keys.len() >= 50, "intact prefix lost: {} keys", keys.len());
}

// ---------------------------------------------------------------------------
// Faults inside a flush or a compaction
// ---------------------------------------------------------------------------

/// Default `FLOWKV_FAULT_SEED` of the sweep's crash half.
const SWEEP_SEED: u64 = 0xC0A7;
/// Crash points drawn per store, on top of an `ENOSPC` at every op.
const CRASHES_PER_STORE: u64 = 6;

/// One store's side of the fault sweep over one of its calls: the one
/// that compacts, or a flush.
struct Sweep<S> {
    name: &'static str,
    /// Opens the store in a directory, all its I/O on the filesystem.
    open: fn(&Path, Arc<dyn Vfs>) -> S,
    /// Brings a fresh store to the brink of the swept call.
    prepare: fn(&mut S, &Path),
    /// The one call that compacts (or flushes).
    trigger: fn(&mut S) -> Result<()>,
    /// Compactions (flushes since `prepare`) the store has run.
    compactions: fn(&S) -> u64,
    /// Crashes at every op of the call, not at a seeded few: for a call
    /// short enough, and whose crash states differ op by op.
    crash_at_every_op: bool,
    /// Reopens the directory on a healthy filesystem and checks every
    /// entry that was live before `trigger`; `after` names the fault.
    verify: fn(&Path, &str),
}

impl<S> Sweep<S> {
    /// Runs prepare + trigger in a fresh directory on `vfs`, drops the
    /// store — by unwinding, if the filesystem "crashes" — and verifies
    /// what a reopen finds. Returns the ops before and after `trigger`
    /// when it returned at all.
    fn run(&self, vfs: Arc<FaultVfs>, after: &str) -> Option<(u64, u64)> {
        let dir = ScratchDir::new(&format!("crash-compact-{}", self.name)).unwrap();
        let span = catch_unwind(AssertUnwindSafe(|| {
            let mut store = (self.open)(dir.path(), vfs.clone());
            (self.prepare)(&mut store, dir.path());
            assert_eq!((self.compactions)(&store), 0, "{after}: compacted early");
            let before = vfs.ops();
            let outcome = (self.trigger)(&mut store);
            if vfs.fired().is_empty() {
                outcome.unwrap_or_else(|e| panic!("{}, {after}: {e}", self.name));
                assert_eq!((self.compactions)(&store), 1, "{after}: no compaction");
            }
            (before, vfs.ops())
        }));
        (self.verify)(dir.path(), after);
        span.ok()
    }

    /// Counts the ops the compacting call spans, then plants `ENOSPC` at
    /// every one of them and a crash at a seeded few.
    fn sweep(&self) {
        let seed = common::fault_seed(SWEEP_SEED);
        let counting = FaultVfs::counting(StdVfs::shared());
        let (before, end) = self.run(counting, "no fault").expect("undisturbed run");
        println!(
            "fault sweep {}: ops {before}..{end}, FLOWKV_FAULT_SEED={seed} \
             (set the env var to replay)",
            self.name
        );
        // A compaction is at the least create, read, write, sync, rename;
        // the swept flush, as many buffer spills.
        assert!(
            end - before >= 5,
            "{}: the swept call spans {before}..{end}",
            self.name
        );
        for op in before + 1..=end {
            let plan = FaultPlan::new().with_fault(op, FaultKind::Enospc);
            let after = format!("ENOSPC at op {op} of {before}..{end}");
            self.run(FaultVfs::new(StdVfs::shared(), plan), &after);
        }
        let mut rng = seed ^ self.name.bytes().fold(0, |h, b| h * 31 + u64::from(b));
        let crash_ops: Vec<u64> = match self.crash_at_every_op {
            true => (before + 1..=end).collect(),
            false => (0..CRASHES_PER_STORE)
                .map(|_| before + 1 + splitmix64(&mut rng) % (end - before))
                .collect(),
        };
        for op in crash_ops {
            let after = format!("crash at op {op} of {before}..{end} (seed {seed})");
            self.run(
                FaultVfs::new(StdVfs::shared(), FaultPlan::crash_at(op)),
                &after,
            );
        }
    }
}

/// Entries per side: `KEYS` stay live, `KEYS` are consumed one by one
/// until the log is amplified past the MSA. Same-length keys and values
/// make every record the same size, so with an MSA of 1.5 the
/// `COMPACTS_AT`-th consumed record (the first past a third of the log)
/// is the one whose take compacts.
const KEYS: u32 = 20;
const COMPACTS_AT: u32 = 14;

fn live_key(i: u32) -> Vec<u8> {
    format!("live-{i:02}").into_bytes()
}

fn doomed_key(i: u32) -> Vec<u8> {
    format!("doom-{i:02}").into_bytes()
}

fn value_of(i: u32) -> Vec<u8> {
    vec![i as u8; 64]
}

fn aur_cfg() -> AurConfig {
    AurConfig {
        write_buffer_bytes: 1 << 10,
        read_batch_ratio: 0.1,
        max_space_amplification: 1.5,
    }
}

fn open_aur(dir: &Path, vfs: Arc<dyn Vfs>) -> AurStore {
    let predictor = EttPredictor::SessionGap { gap: 100 };
    AurStore::open(dir, aur_cfg(), predictor, StoreMetrics::new_shared(), vfs).unwrap()
}

#[test]
fn aur_survives_a_fault_at_every_op_of_a_compaction() {
    Sweep {
        name: "aur",
        open: open_aur,
        prepare: |s, _| {
            for i in 0..KEYS {
                s.append(&live_key(i), w(0, 100), &value_of(i), 1).unwrap();
                s.append(&doomed_key(i), w(0, 100), &value_of(i), 1)
                    .unwrap();
            }
            s.flush().unwrap();
            for i in 0..COMPACTS_AT - 1 {
                assert_eq!(s.take(&doomed_key(i), w(0, 100)).unwrap().len(), 1);
            }
        },
        trigger: |s| s.take(&doomed_key(COMPACTS_AT - 1), w(0, 100)).map(drop),
        compactions: |s| s.generation(),
        verify: |dir, after| {
            let mut s = open_aur(dir, StdVfs::shared());
            for i in 0..KEYS {
                let got = s.take(&live_key(i), w(0, 100)).unwrap();
                assert_eq!(got, vec![value_of(i)], "aur, {after}: live key {i}");
            }
        },
        crash_at_every_op: false,
    }
    .sweep();
}

/// Windows the swept flush writes; with `FLUSH_VALUE`-byte values its
/// data records fill the log writer's buffer several times over, so the
/// flush reaches the file over several ops.
const FLUSH_WINDOWS: u32 = 48;
const FLUSH_VALUE: usize = 600;

fn open_aur_unspilled(dir: &Path, vfs: Arc<dyn Vfs>) -> (AurStore, Arc<StoreMetrics>) {
    let cfg = AurConfig {
        write_buffer_bytes: 1 << 20,
        ..aur_cfg()
    };
    let predictor = EttPredictor::SessionGap { gap: 100 };
    let metrics = StoreMetrics::new_shared();
    let store = AurStore::open(dir, cfg, predictor, Arc::clone(&metrics), vfs).unwrap();
    (store, metrics)
}

/// The second value of `live-i` and the one value of `doom-i`.
fn flushed_second(i: u32) -> Vec<u8> {
    vec![i as u8; FLUSH_VALUE]
}

#[test]
fn aur_survives_a_fault_at_every_op_of_a_flush() {
    Sweep {
        name: "aur-flush",
        open: open_aur_unspilled,
        // One flush puts the first value of every `live` window on disk;
        // the swept one extends them and adds the `doom` windows.
        prepare: |(s, _), _| {
            for i in 0..FLUSH_WINDOWS {
                s.append(&live_key(i), w(0, 100), &value_of(i), 1).unwrap();
            }
            s.flush().unwrap();
            for i in 0..FLUSH_WINDOWS {
                s.append(&live_key(i), w(0, 100), &flushed_second(i), 2)
                    .unwrap();
                s.append(&doomed_key(i), w(0, 100), &flushed_second(i), 2)
                    .unwrap();
            }
        },
        trigger: |(s, _)| s.flush(),
        compactions: |(_, metrics)| metrics.snapshot().flushes - 1,
        verify: |dir, after| {
            let (mut s, _) = open_aur_unspilled(dir, StdVfs::shared());
            // A record of the torn flush either made it or did not.
            for i in 0..FLUSH_WINDOWS {
                let got = s.take(&live_key(i), w(0, 100)).unwrap();
                let whole = [value_of(i), flushed_second(i)];
                assert!(
                    got == whole || got == whole[..1],
                    "aur-flush, {after}: live key {i} reads {} values",
                    got.len()
                );
                let got = s.take(&doomed_key(i), w(0, 100)).unwrap();
                assert!(
                    got.is_empty() || got == whole[1..],
                    "aur-flush, {after}: doomed key {i}"
                );
            }
            // The log takes appends where the torn flush left them.
            s.append(b"after", w(0, 100), b"reopen", 3).unwrap();
            s.flush().unwrap();
            assert_eq!(s.take(b"after", w(0, 100)).unwrap(), [b"reopen"]);
        },
        crash_at_every_op: true,
    }
    .sweep();
}

fn open_rmw(dir: &Path, vfs: Arc<dyn Vfs>) -> (RmwStore, Arc<StoreMetrics>) {
    let cfg = RmwConfig {
        write_buffer_bytes: 1 << 10,
        max_space_amplification: 1.5,
    };
    let metrics = StoreMetrics::new_shared();
    let store = RmwStore::open(dir, cfg, Arc::clone(&metrics), vfs).unwrap();
    (store, metrics)
}

#[test]
fn rmw_survives_a_fault_at_every_op_of_a_compaction() {
    Sweep {
        name: "rmw",
        open: open_rmw,
        prepare: |(s, _), _| {
            for i in 0..KEYS {
                s.put(&live_key(i), w(0, 100), &value_of(i)).unwrap();
                s.put(&doomed_key(i), w(0, 100), &value_of(i)).unwrap();
            }
            s.flush().unwrap();
            for i in 0..COMPACTS_AT - 1 {
                assert!(s.take(&doomed_key(i), w(0, 100)).unwrap().is_some());
            }
        },
        trigger: |(s, _)| s.take(&doomed_key(COMPACTS_AT - 1), w(0, 100)).map(drop),
        compactions: |(_, metrics)| metrics.snapshot().compactions,
        verify: |dir, after| {
            let (mut s, _) = open_rmw(dir, StdVfs::shared());
            for i in 0..KEYS {
                let got = s.take(&live_key(i), w(0, 100)).unwrap();
                assert_eq!(got, Some(value_of(i)), "rmw, {after}: live key {i}");
            }
        },
        crash_at_every_op: false,
    }
    .sweep();
}

/// Blocks of the tier's big window: each append of a `BIG`-byte value
/// seals one under forced demotion, together past the cold log's
/// compaction floor.
const BLOCKS: u32 = 8;
const BIG: usize = 16 << 10;

/// A forced-demotion tier over FlowKV, with the hub its `tier_*`
/// counters register on.
type Tiered = (Box<dyn StateBackend>, Arc<Telemetry>);

fn open_tiered(dir: &Path, vfs: Arc<dyn Vfs>) -> Tiered {
    let telemetry = Telemetry::new_shared();
    let ctx = OperatorContext {
        operator: "op".to_string(),
        partition: 0,
        semantics: OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 50 }),
        data_dir: dir.join("data"),
        telemetry: Some(Arc::clone(&telemetry)),
        io: None,
    };
    let inner = FlowKvFactory::new(FlowKvConfig::small_for_tests(), Arc::clone(&vfs));
    let store = TieredFactory::new(Arc::new(inner), TierConfig::new(0), vfs)
        .create(&ctx)
        .unwrap();
    (store, telemetry)
}

/// The tier keeps its cold index in memory only — a checkpoint's copy of
/// the cold log holds the live blocks alone, and a restore rebuilds the
/// index by scanning it — so its reopen is the engine's: a fresh store
/// over whatever the fault left in the directory, restored from the last
/// checkpoint — here one taken just before the compacting call.
#[test]
fn tiered_store_survives_a_fault_at_every_op_of_a_cold_log_compaction() {
    Sweep {
        name: "tiered",
        open: open_tiered,
        prepare: |(s, _), dir| {
            for i in 0..KEYS {
                s.append(&live_key(i), w(100, 200), &value_of(i), 101)
                    .unwrap();
            }
            for i in 0..BLOCKS {
                s.append(b"big", w(0, 100), &vec![i as u8; BIG], i64::from(i))
                    .unwrap();
            }
            s.checkpoint(&dir.join("ckpt")).unwrap();
        },
        // Promoting the big window retires its blocks: nearly the whole
        // cold log is dead, and the same call rewrites it.
        trigger: |(s, _)| s.take_values(b"big", w(0, 100)).map(drop),
        // The wrapped store compacts too, on the metrics block the tier
        // shares; the hub's counter is the cold log's alone.
        compactions: |(_, telemetry)| {
            let samples = telemetry.registry().snapshot();
            let sample = samples.iter().find(|s| s.name == "tier_compactions_total");
            match sample.map(|s| &s.value) {
                Some(SampleValue::Counter(n)) => *n,
                other => panic!("tier_compactions_total is {other:?}"),
            }
        },
        verify: |dir, after| {
            let (mut s, _) = open_tiered(dir, StdVfs::shared());
            s.restore(&dir.join("ckpt")).unwrap();
            let big: Vec<Vec<u8>> = (0..BLOCKS).map(|i| vec![i as u8; BIG]).collect();
            assert_eq!(
                s.take_values(b"big", w(0, 100)).unwrap(),
                big,
                "tiered, {after}"
            );
            for i in 0..KEYS {
                let got = s.take_values(&live_key(i), w(100, 200)).unwrap();
                assert_eq!(got, vec![value_of(i)], "tiered, {after}: live key {i}");
            }
        },
        crash_at_every_op: false,
    }
    .sweep();
}

// ---------------------------------------------------------------------------
// Faults inside a checkpoint
// ---------------------------------------------------------------------------

/// What a store answers for the sweep's keys: each key's values, in key
/// order, every `doom` key included — a consumed one answers nothing.
type Answers = Vec<Vec<Vec<u8>>>;

/// One store's side of the checkpoint fault sweep: `ENOSPC` at every op
/// of a checkpoint of a store that holds dead bytes. Whichever op it
/// lands on, the store goes on answering as a fault-free run does, and a
/// retried checkpoint restores to those answers — dead records stay out
/// of it.
struct CheckpointSweep<S> {
    name: &'static str,
    /// Opens the store in a directory, all its I/O on the filesystem.
    open: fn(&Path, Arc<dyn Vfs>) -> S,
    /// Leaves live entries, consumed ones and nothing buffered.
    prepare: fn(&mut S),
    checkpoint: fn(&mut S, &Path) -> Result<()>,
    restore: fn(&mut S, &Path) -> Result<()>,
    /// Takes every key `prepare` wrote.
    answers: fn(&mut S) -> Answers,
}

impl<S> CheckpointSweep<S> {
    /// Prepares a store on `vfs` and checkpoints it, once more if that
    /// failed. Returns the ops before and after the first checkpoint,
    /// whether it failed, what the store then answers and what it
    /// answers restored from the checkpoint.
    fn run(&self, vfs: Arc<FaultVfs>, after: &str) -> (u64, u64, bool, Answers, Answers) {
        let dir = ScratchDir::new(&format!("crash-ckpt-{}", self.name)).unwrap();
        let ckpt = dir.path().join("ckpt");
        let mut store = (self.open)(&dir.path().join("store"), vfs.clone());
        (self.prepare)(&mut store);
        let before = vfs.ops();
        let failed = (self.checkpoint)(&mut store, &ckpt).is_err();
        let end = vfs.ops();
        if failed {
            (self.checkpoint)(&mut store, &ckpt)
                .unwrap_or_else(|e| panic!("{}, {after}: the retry failed: {e}", self.name));
        }
        let live = (self.answers)(&mut store);
        (self.restore)(&mut store, &ckpt)
            .unwrap_or_else(|e| panic!("{}, {after}: restore: {e}", self.name));
        let restored = (self.answers)(&mut store);
        (before, end, failed, live, restored)
    }

    fn sweep(&self) {
        let counting = FaultVfs::counting(StdVfs::shared());
        let (before, end, _, expect, restored) = self.run(counting, "no fault");
        assert_eq!(restored, expect, "{}: restored without a fault", self.name);
        assert!(
            expect.iter().any(Vec::is_empty) && expect.iter().any(|v| !v.is_empty()),
            "{}: the sweep needs live and consumed keys",
            self.name
        );
        println!("checkpoint sweep {}: ops {before}..{end}", self.name);
        let mut surfaced = 0;
        for op in before + 1..=end {
            let plan = FaultPlan::new().with_fault(op, FaultKind::Enospc);
            let after = format!("ENOSPC at op {op} of {before}..{end}");
            let (.., failed, live, restored) =
                self.run(FaultVfs::new(StdVfs::shared(), plan), &after);
            assert_eq!(live, expect, "{}, {after}: live takes", self.name);
            assert_eq!(restored, expect, "{}, {after}: restored", self.name);
            surfaced += u64::from(failed);
        }
        let ops = end - before;
        assert_eq!(surfaced, ops, "{}: faults that surfaced", self.name);
    }
}

/// Every key the checkpoint sweep writes, with its index: each `live`
/// key beside its `doom` key.
fn sweep_keys() -> impl Iterator<Item = (Vec<u8>, u32)> {
    (0..KEYS).flat_map(|i| [(live_key(i), i), (doomed_key(i), i)])
}

#[test]
fn aur_checkpoint_survives_a_fault_at_every_op() {
    CheckpointSweep {
        name: "aur",
        open: open_aur,
        prepare: |s| {
            for (key, i) in sweep_keys() {
                s.append(&key, w(0, 100), &value_of(i), 1).unwrap();
            }
            s.flush().unwrap();
            for i in 0..COMPACTS_AT - 1 {
                assert_eq!(s.take(&doomed_key(i), w(0, 100)).unwrap().len(), 1);
            }
            assert!(s.dead_bytes() > 0 && s.generation() == 0);
        },
        checkpoint: |s, dir| s.checkpoint(dir),
        restore: |s, dir| s.restore(dir),
        answers: |s| {
            let take = |(key, _): (Vec<u8>, u32)| s.take(&key, w(0, 100)).unwrap();
            sweep_keys().map(take).collect()
        },
    }
    .sweep();
}

#[test]
fn rmw_checkpoint_survives_a_fault_at_every_op() {
    CheckpointSweep {
        name: "rmw",
        open: open_rmw,
        prepare: |(s, metrics)| {
            for (key, i) in sweep_keys() {
                s.put(&key, w(0, 100), &value_of(i)).unwrap();
            }
            s.flush().unwrap();
            for i in 0..COMPACTS_AT - 1 {
                assert!(s.take(&doomed_key(i), w(0, 100)).unwrap().is_some());
            }
            assert_eq!(metrics.snapshot().compactions, 0);
        },
        checkpoint: |(s, _), dir| s.checkpoint(dir),
        restore: |(s, _), dir| s.restore(dir),
        answers: |(s, _)| {
            let take = |(key, _): (Vec<u8>, u32)| s.take(&key, w(0, 100)).unwrap();
            sweep_keys().map(take).map(Vec::from_iter).collect()
        },
    }
    .sweep();
}

/// The window of the sweep's key `i`: the `live` keys share one, each
/// `doom` key has its own, so a take of one leaves nothing hot.
fn tier_window(key: &[u8], i: u32) -> WindowId {
    match key.starts_with(b"live") {
        true => w(100, 200),
        false => w(1_000 * i64::from(i + 1), 1_000 * i64::from(i + 1) + 100),
    }
}

#[test]
fn tiered_checkpoint_survives_a_fault_at_every_op() {
    CheckpointSweep {
        name: "tiered",
        open: open_tiered,
        // Every append seals a block; the taken `doom` keys' blocks are
        // dead in the cold log, below its compaction floor.
        prepare: |(s, telemetry)| {
            for (key, i) in sweep_keys() {
                let window = tier_window(&key, i);
                s.append(&key, window, &value_of(i), window.start + 1)
                    .unwrap();
            }
            for i in 0..COMPACTS_AT - 1 {
                let key = doomed_key(i);
                let window = tier_window(&key, i);
                assert_eq!(s.take_values(&key, window).unwrap().len(), 1);
            }
            let samples = telemetry.registry().snapshot();
            let dead = samples.iter().find(|s| s.name == "tier_cold_dead_bytes");
            assert!(
                matches!(dead.map(|s| &s.value), Some(SampleValue::Gauge(n)) if *n > 0),
                "no dead cold bytes: {dead:?}"
            );
        },
        checkpoint: |(s, _), dir| s.checkpoint(dir),
        restore: |(s, _), dir| s.restore(dir),
        answers: |(s, _)| {
            let take = |(key, i): (Vec<u8>, u32)| s.take_values(&key, tier_window(&key, i));
            sweep_keys().map(take).map(Result::unwrap).collect()
        },
    }
    .sweep();
}
