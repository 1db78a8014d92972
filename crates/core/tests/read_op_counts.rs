//! Device round trips of the store read paths, counted — not timed.
//!
//! A read costs a round trip, not a byte count (DESIGN.md §9): a batch
//! read over records that sit together must pay per *extent*, and a point
//! read whose length the index holds must pay once. These bounds fail if
//! the two-reads-per-record shape ever returns.
//!
//! A read-ahead is paid for once: an append to a prefetched window
//! changes no disk record, so its trigger must not go back to the device,
//! and a trigger that beats its background read waits for that read
//! instead of repeating it.
//!
//! A reopen or a restore reads its log once: the scan that finds the
//! intact length and cuts a torn tail is the one the store rebuilds from.
//!
//! The same counter shows that `io_threads = 0` is not a second code
//! path: a lane of width zero runs the very job bodies a ring runs, so a
//! serving-view read, a checkpoint and a compaction issue the same
//! faultable-op sequence — and fail the same way at each op of it — at
//! width 0 and 2.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv::aar::AarStore;
use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv::rmw::{RmwConfig, RmwStore};
use flowkv::tier::TierConfig;
use flowkv::{FlowKvConfig, FlowKvFactory, TieredFactory};
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackendFactory, WindowKind,
};
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{SampleValue, Telemetry};
use flowkv_common::types::WindowId;
use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs, StdVfs};

/// Windows flushed side by side before each read.
const WINDOWS: u64 = 64;

/// The data log's open and one extent — with slack for more extents, far
/// below `WINDOWS`.
const BATCH_READ_OPS: u64 = 8;
const _: () = assert!(BATCH_READ_OPS < WINDOWS);

fn window() -> WindowId {
    WindowId::new(0, 1_000)
}

/// An AUR store over a counting filesystem holding `WINDOWS` flushed
/// session windows, every one selected by a batch read (ratio 1).
fn flushed_aur_store(dir: &ScratchDir) -> (AurStore, Arc<FaultVfs>) {
    let cfg = AurConfig {
        read_batch_ratio: 1.0,
        ..AurConfig::default()
    };
    flushed_aur_store_on(dir, FaultVfs::counting(StdVfs::shared()), cfg)
}

/// [`flushed_aur_store`] of `cfg`, over a filesystem that may have a
/// fault planted.
fn flushed_aur_store_on(
    dir: &ScratchDir,
    counting: Arc<FaultVfs>,
    cfg: AurConfig,
) -> (AurStore, Arc<FaultVfs>) {
    let mut store = AurStore::open(
        dir.path(),
        cfg,
        EttPredictor::SessionGap { gap: 100 },
        StoreMetrics::new_shared(),
        counting.clone(),
    )
    .unwrap();
    for i in 0..WINDOWS {
        let key = format!("key-{i:03}");
        store
            .append(key.as_bytes(), window(), &[i as u8; 48], i as i64)
            .unwrap();
    }
    store.flush().unwrap();
    (store, counting)
}

#[test]
fn synchronous_batch_read_pays_per_extent() {
    let dir = ScratchDir::new("opcount-aur-sync").unwrap();
    let (mut store, counting) = flushed_aur_store(&dir);
    let before = counting.ops();
    assert_eq!(store.take(b"key-000", window()).unwrap().len(), 1);
    let ops = counting.ops() - before;
    assert!(ops <= BATCH_READ_OPS, "batch read cost {ops} ops");
    // The one read brought every other window along.
    assert_eq!(store.prefetched_windows() as u64, WINDOWS - 1);
}

#[test]
fn ring_batch_read_pays_per_extent() {
    let dir = ScratchDir::new("opcount-aur-ring").unwrap();
    let (mut store, counting) = flushed_aur_store(&dir);
    let ring = Arc::new(IoRing::new(1, None, None));
    store.set_ring(ring.clone());
    let before = counting.ops();
    store.advance_prefetch(0).unwrap();
    ring.wait_idle();
    let ops = counting.ops() - before;
    assert!(ops <= BATCH_READ_OPS, "ring batch read cost {ops} ops");
    store.advance_prefetch(0).unwrap();
    assert_eq!(store.prefetched_windows() as u64, WINDOWS);
}

/// Appends to a window whose disk record is prefetched, then triggers
/// it: the copy outlives the appends, so the `take` costs no device op
/// and serves the disk value, then the buffered ones, in append order.
fn assert_a_take_after_appends_is_free(store: &mut AurStore, counting: &FaultVfs) {
    assert_eq!(store.prefetched_windows() as u64, WINDOWS - 1);
    for value in [b"second", b"third!"] {
        store.append(b"key-001", window(), value, 70).unwrap();
    }
    let before = counting.ops();
    assert_eq!(
        store.take(b"key-001", window()).unwrap(),
        [&[1u8; 48][..], b"second", b"third!"]
    );
    assert_eq!(
        counting.ops() - before,
        0,
        "the take went back to the device"
    );
}

#[test]
fn an_append_after_a_synchronous_batch_read_pays_no_device_op() {
    let dir = ScratchDir::new("opcount-aur-sync-append").unwrap();
    let (mut store, counting) = flushed_aur_store(&dir);
    assert_eq!(store.take(b"key-000", window()).unwrap().len(), 1);
    assert_a_take_after_appends_is_free(&mut store, &counting);
}

#[test]
fn an_append_after_a_landed_ring_read_pays_no_device_op() {
    let dir = ScratchDir::new("opcount-aur-ring-append").unwrap();
    let (mut store, counting) = flushed_aur_store(&dir);
    let ring = Arc::new(IoRing::new(1, None, None));
    store.set_ring(ring.clone());
    store.advance_prefetch(0).unwrap();
    ring.wait_idle();
    store.advance_prefetch(0).unwrap();
    assert_eq!(store.take(b"key-000", window()).unwrap().len(), 1);
    assert_a_take_after_appends_is_free(&mut store, &counting);
}

/// Windows served by read-ahead leave dead records like any other: after
/// thousands of ring hits, a miss reads its own record — listed in its
/// window's row — and none of the dead ones before it.
#[test]
fn a_miss_after_ring_served_takes_skips_the_dead_index() {
    const SERVED: u32 = 4_000;
    let dir = ScratchDir::new("opcount-aur-ring-then-miss").unwrap();
    let counting = FaultVfs::counting(StdVfs::shared());
    let metrics = StoreMetrics::new_shared();
    let mut store = AurStore::open(
        dir.path(),
        AurConfig::default(),
        EttPredictor::SessionGap { gap: 100 },
        metrics.clone(),
        counting.clone(),
    )
    .unwrap();
    let ring = Arc::new(IoRing::new(2, None, None));
    store.set_ring(ring.clone());
    let key = |i: u32| format!("key-{i:05}");
    for i in 0..SERVED {
        store.append(key(i).as_bytes(), window(), b"v", 0).unwrap();
    }
    store.flush().unwrap();
    store.advance_prefetch(0).unwrap();
    ring.wait_idle();
    store.advance_prefetch(0).unwrap();
    assert_eq!(store.prefetched_windows() as u64, u64::from(SERVED));
    for i in 0..SERVED {
        assert_eq!(store.take(key(i).as_bytes(), window()).unwrap(), [b"v"]);
    }
    // On disk after the last submission: no read covers it.
    store.append(b"late", window(), b"late", 0).unwrap();
    store.flush().unwrap();
    let before = counting.ops();
    assert_eq!(store.take(b"late", window()).unwrap(), [b"late"]);
    let ops = counting.ops() - before;
    // Data open and one data read at most: a miss reads no dead record.
    assert!(ops <= 4, "the miss cost {ops} device ops");
    assert_eq!(metrics.snapshot().prefetch_misses, 1);
}

fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    let name = format!("{name}{{store=t/p0}}");
    let samples = telemetry.registry().snapshot();
    match samples.iter().find(|s| s.name == name).map(|s| &s.value) {
        Some(SampleValue::Counter(v)) => *v,
        other => panic!("{name} is {other:?}"),
    }
}

#[test]
fn a_trigger_that_beats_its_ring_read_waits_for_it_and_reads_nothing_itself() {
    // What the ring read alone costs, on a twin store.
    let dir = ScratchDir::new("opcount-aur-late-twin").unwrap();
    let (mut store, counting) = flushed_aur_store(&dir);
    let ring = Arc::new(IoRing::new(1, None, None));
    store.set_ring(ring.clone());
    let before = counting.ops();
    store.advance_prefetch(0).unwrap();
    ring.wait_idle();
    let ring_read_ops = counting.ops() - before;

    // The same read parked behind a gate on the ring's one thread.
    let dir = ScratchDir::new("opcount-aur-late").unwrap();
    let (mut store, counting) = flushed_aur_store(&dir);
    let telemetry = Telemetry::new_shared();
    let ring = Arc::new(IoRing::new(1, None, None));
    let (release, gate) = std::sync::mpsc::channel::<()>();
    ring.submit(move || {
        let _ = gate.recv();
    });
    store.set_telemetry(telemetry.clone(), "t/p0");
    store.set_ring(ring.clone());
    let before = counting.ops();
    store.advance_prefetch(0).unwrap();
    // The gate opens once the store has counted the trigger late, which
    // it does on its way into the wait (or at a deadline, so that a store
    // which never does fails below instead of hanging).
    let values = std::thread::scope(|scope| {
        scope.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while counter(&telemetry, "prefetch_late_total") == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
        });
        store.take(b"key-000", window()).unwrap()
    });
    assert_eq!(values, [[0u8; 48]]);
    ring.wait_idle();
    assert_eq!(
        counting.ops() - before,
        ring_read_ops,
        "the late take read beside the ring"
    );
    assert_eq!(store.prefetched_windows() as u64, WINDOWS - 1);
    store.advance_prefetch(0).unwrap();
    assert_eq!(counter(&telemetry, "prefetch_late_total"), 1);
    assert_eq!(counter(&telemetry, "prefetch_wasted_bytes"), 0);
}

#[test]
fn rmw_point_read_is_one_device_read() {
    let dir = ScratchDir::new("opcount-rmw").unwrap();
    let counting = FaultVfs::counting(StdVfs::shared());
    let mut store = RmwStore::open(
        dir.path(),
        RmwConfig::default(),
        StoreMetrics::new_shared(),
        counting.clone(),
    )
    .unwrap();
    for key in [b"a", b"b"] {
        store.put(key, window(), b"aggregate").unwrap();
    }
    store.flush().unwrap();
    // The first read also opens the log.
    assert!(store.take(b"a", window()).unwrap().is_some());
    let before = counting.ops();
    assert_eq!(
        store.take(b"b", window()).unwrap(),
        Some(b"aggregate".to_vec())
    );
    assert_eq!(counting.ops() - before, 1);
}

/// Records of about 1 KiB each, so every log below spans more than one
/// 64 KiB scan read.
const RECORDS: u64 = 96;

/// Device ops of `open`, run over a counting filesystem.
fn ops_of<T>(open: impl FnOnce(Arc<FaultVfs>) -> T) -> (T, u64) {
    let counting = FaultVfs::counting(StdVfs::shared());
    let opened = open(counting.clone());
    (opened, counting.ops())
}

#[test]
fn a_reopen_or_a_restore_reads_its_log_once() {
    // Each reopen creates its directory (1), opens the log and reads it
    // in 64 KiB scan reads (1 + 2), then opens it for appending and cuts
    // it at its intact length (2): 6. The store rebuilds from that scan.
    let value = [7u8; 1 << 10];
    let aur_dir = ScratchDir::new("opcount-aur-reopen").unwrap();
    let open_aur = |vfs: Arc<FaultVfs>| {
        let predictor = EttPredictor::SessionGap { gap: 100 };
        let cfg = AurConfig::default();
        AurStore::open(aur_dir.path(), cfg, predictor, Default::default(), vfs).unwrap()
    };
    let (mut aur, _) = ops_of(open_aur);
    for i in 0..RECORDS {
        let key = format!("key-{i:03}");
        aur.append(key.as_bytes(), window(), &value, i as i64)
            .unwrap();
    }
    aur.flush().unwrap();
    drop(aur);
    let (mut aur, ops) = ops_of(open_aur);
    assert!(aur.data_log_bytes() > 64 << 10);
    assert_eq!(ops, 6, "an AUR reopen");
    assert_eq!(aur.take(b"key-042", window()).unwrap(), [value]);

    let rmw_dir = ScratchDir::new("opcount-rmw-reopen").unwrap();
    let open_rmw = |vfs: Arc<FaultVfs>| {
        let cfg = RmwConfig::default();
        RmwStore::open(rmw_dir.path(), cfg, Default::default(), vfs).unwrap()
    };
    let (mut rmw, _) = ops_of(open_rmw);
    for i in 0..RECORDS {
        let key = format!("key-{i:03}");
        rmw.put(key.as_bytes(), window(), &value).unwrap();
    }
    rmw.flush().unwrap();
    drop(rmw);
    let (mut rmw, ops) = ops_of(open_rmw);
    assert_eq!(ops, 6, "an RMW reopen");
    assert_eq!(
        rmw.take(b"key-042", window()).unwrap(),
        Some(value.to_vec())
    );

    // A tier checkpoint of a store that demoted every window: the inner
    // store's two AAR instances each create their directory and read
    // their manifest (4); the cold log's restore removes the old file,
    // creates its directory and copies the checkpoint's (3), then
    // recovers it as a reopen does (1 + 2 + 2): 12.
    let tier_dir = ScratchDir::new("opcount-tier-restore").unwrap();
    let tiered = |vfs: Arc<FaultVfs>, name: &str| {
        let ctx = OperatorContext {
            operator: "opcount".to_string(),
            partition: 0,
            semantics: OperatorSemantics::new(
                AggregateKind::FullList,
                WindowKind::Fixed { size: 1_000 },
            ),
            data_dir: tier_dir.path().join(name),
            telemetry: None,
            io: None,
        };
        let inner = FlowKvFactory::new(FlowKvConfig::small_for_tests(), vfs.clone());
        let cfg = TierConfig {
            compress: false,
            ..TierConfig::new(0)
        };
        let factory = TieredFactory::new(Arc::new(inner), cfg, vfs);
        factory.create(&ctx).unwrap()
    };
    let mut store = tiered(FaultVfs::counting(StdVfs::shared()), "source");
    for i in 0..RECORDS {
        let key = format!("key-{i:03}");
        store
            .append(
                key.as_bytes(),
                WindowId::new(i as i64, 1_000 + i as i64),
                &value,
                0,
            )
            .unwrap();
    }
    let ckpt = tier_dir.path().join("ckpt");
    store.checkpoint(&ckpt).unwrap();
    let counting = FaultVfs::counting(StdVfs::shared());
    let mut restored = tiered(counting.clone(), "restored");
    let before = counting.ops();
    restored.restore(&ckpt).unwrap();
    assert_eq!(counting.ops() - before, 12, "a tier restore");
    let view = restored.read_view().unwrap().expect("a view");
    assert_eq!(view.to_entries().len() as u64, RECORDS);
}

#[test]
fn an_aar_drain_issues_the_reads_it_always_issued() {
    // One window's file of about 100 KiB, drained by the stepped reader:
    // an open and 13 reads of 8 KiB (64 KiB drains measured slower on
    // `q7-aar-max`, DESIGN.md §9).
    let dir = ScratchDir::new("opcount-aar-drain").unwrap();
    let counting = FaultVfs::counting(StdVfs::shared());
    let mut store = AarStore::open(
        dir.path(),
        8 << 10,
        16,
        Default::default(),
        counting.clone(),
    )
    .unwrap();
    for i in 0..2_000u32 {
        let key = format!("key-{:02}", i % 13);
        store
            .append(key.as_bytes(), window(), &[i as u8; 40])
            .unwrap();
    }
    store.flush().unwrap();
    let before = counting.ops();
    let mut pairs = 0;
    while let Some(chunk) = store.get_window_chunk(window()).unwrap() {
        pairs += chunk.iter().map(|(_, values)| values.len()).sum::<usize>();
    }
    assert_eq!(pairs, 2_000);
    assert_eq!(counting.ops() - before, 14);
}

/// A store operation run at both lane widths, its result as text.
type LaneOp = fn(&mut AurStore, &Path) -> flowkv_common::error::Result<String>;

fn view_op(store: &mut AurStore, _scratch: &Path) -> flowkv_common::error::Result<String> {
    let mut view = BTreeMap::new();
    store.collect_view(&mut view)?;
    let first = view
        .keys()
        .next()
        .map(|(key, _)| String::from_utf8_lossy(key));
    Ok(format!("{} entries from {first:?}", view.len()))
}

/// A checkpoint of a store with dead bytes: it copies the live records
/// and leaves the log as it was.
fn checkpoint_op(store: &mut AurStore, scratch: &Path) -> flowkv_common::error::Result<String> {
    store.checkpoint(&scratch.join("ckpt"))?;
    Ok(log_shape(store))
}

/// The consume that takes the log past its MSA, and so compacts it.
fn compact_op(store: &mut AurStore, _scratch: &Path) -> flowkv_common::error::Result<String> {
    let values = store.take(format!("key-{:03}", WINDOWS / 2).as_bytes(), window())?;
    Ok(format!("{} values, {}", values.len(), log_shape(store)))
}

fn log_shape(store: &AurStore) -> String {
    format!(
        "generation {}, {} bytes, {} dead",
        store.generation(),
        store.data_log_bytes(),
        store.dead_bytes()
    )
}

/// Runs `op` at lane width `io_threads` on a store whose first
/// `WINDOWS / 2` windows are consumed — so the logs hold dead records and
/// compaction has work — with an `ENOSPC` planted at faultable op
/// `fault_at`. Returns the op count before `op`, the ops `op` issued and
/// its outcome as text.
fn observe(io_threads: usize, fault_at: Option<u64>, op: LaneOp) -> (u64, u64, String) {
    let dir = ScratchDir::new("opcount-aur-width").unwrap();
    let plan = fault_at.map_or_else(FaultPlan::new, |at| {
        FaultPlan::new().with_fault(at, FaultKind::Enospc)
    });
    // The records are all one size, so at an MSA of 2 the consumed half
    // sits exactly at the rule and the next consume crosses it; the floor
    // (one buffer) is a fraction of the log.
    let cfg = AurConfig {
        write_buffer_bytes: 1 << 10,
        read_batch_ratio: 1.0,
        max_space_amplification: 2.0,
    };
    let vfs = FaultVfs::new(StdVfs::shared(), plan);
    let (mut store, vfs) = flushed_aur_store_on(&dir, vfs, cfg);
    for i in 0..WINDOWS / 2 {
        let key = format!("key-{i:03}");
        assert_eq!(store.take(key.as_bytes(), window()).unwrap().len(), 1);
    }
    assert_eq!(store.generation(), 0, "the setup compacted");
    if io_threads > 0 {
        store.set_ring(Arc::new(IoRing::new(io_threads, None, None)));
    }
    let before = vfs.ops();
    let outcome = op(&mut store, dir.path()).unwrap_or_else(|e| e.to_string());
    let outcome = outcome.replace(&dir.path().display().to_string(), "<dir>");
    (before, vfs.ops() - before, outcome)
}

#[test]
fn view_and_compaction_issue_the_same_ops_at_lane_width_0_and_2() {
    // The view opens the data log and reads its live records in one
    // extent. The checkpoint creates its directory and its file, reads
    // the live records in one extent through the reader the takes
    // opened, writes them and syncs: 5. The compaction a consume starts
    // past the MSA creates the next generation's temp, reads the live
    // records in one extent, writes, syncs, renames and removes the old
    // generation: 6 (its take is served by the batch read of the setup).
    let cells = [
        (view_op as LaneOp, 2, "32 entries"),
        (checkpoint_op, 5, "generation 0"),
        (compact_op, 6, "1 values, generation 1"),
    ];
    for (op, pinned, outcome) in cells {
        let clean = observe(0, None, op);
        assert_eq!(observe(2, None, op), clean);
        let (setup_ops, ops, text) = clean;
        assert!(text.starts_with(outcome), "{text}");
        assert_eq!(ops, pinned, "the operation's device ops");
        // The sequences agree op by op: a fault at any index ends the
        // operation after the same number of ops, with the same text (or
        // is swallowed by both — removing a retired file may fail).
        let mut surfaced = 0;
        for k in 1..=ops {
            let inline = observe(0, Some(setup_ops + k), op);
            assert_eq!(
                observe(2, Some(setup_ops + k), op),
                inline,
                "fault at op {k}"
            );
            surfaced += u64::from(inline.2.contains("injected fault"));
        }
        assert!(surfaced >= ops / 2, "{surfaced} of {ops} faults surfaced");
    }
}
