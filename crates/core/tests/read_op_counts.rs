//! Device round trips of the store read paths, counted — not timed.
//!
//! A read costs a round trip, not a byte count (DESIGN.md §9): a batch
//! read over records that sit together must pay per *extent*, and a point
//! read whose length the index holds must pay once. These bounds fail if
//! the two-reads-per-record shape ever returns.

use std::sync::Arc;

use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv::rmw::{RmwConfig, RmwStore};
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::{FaultVfs, StdVfs};

/// Windows flushed side by side before each read.
const WINDOWS: u64 = 64;

/// Opens of the index and data logs, one index-scan read, one extent —
/// with slack for a second extent or scan read, far below `WINDOWS`.
const BATCH_READ_OPS: u64 = 8;
const _: () = assert!(BATCH_READ_OPS < WINDOWS);

fn window() -> WindowId {
    WindowId::new(0, 1_000)
}

/// An AUR store over a counting filesystem holding `WINDOWS` flushed
/// session windows, every one selected by a batch read (ratio 1).
fn flushed_aur_store(dir: &ScratchDir) -> (AurStore, Arc<FaultVfs>) {
    let counting = FaultVfs::counting(StdVfs::shared());
    let cfg = AurConfig {
        read_batch_ratio: 1.0,
        ..AurConfig::default()
    };
    let mut store = AurStore::open_with_vfs(
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
    let (store, counting) = flushed_aur_store(&dir);
    let ring = Arc::new(IoRing::new(counting.clone(), 1));
    let mut store = store.with_ring(ring.clone(), 1);
    let before = counting.ops();
    store.advance_prefetch(0).unwrap();
    ring.wait_idle();
    let ops = counting.ops() - before;
    assert!(ops <= BATCH_READ_OPS, "ring batch read cost {ops} ops");
    store.advance_prefetch(0).unwrap();
    assert_eq!(store.prefetched_windows() as u64, WINDOWS);
}

#[test]
fn rmw_point_read_is_one_device_read() {
    let dir = ScratchDir::new("opcount-rmw").unwrap();
    let counting = FaultVfs::counting(StdVfs::shared());
    let mut store = RmwStore::open_with_vfs(
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
