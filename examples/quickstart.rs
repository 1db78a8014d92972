//! Quickstart: use FlowKV directly as a window-state store.
//!
//! This example drives the three specialized stores through the
//! `StateBackend` interface, the same way a stream engine would:
//! classify an operator at launch, then append / read with explicit
//! window metadata (paper Listing 1).
//!
//! Run with: `cargo run --example quickstart`

use std::collections::BTreeMap;

use flowkv::config::FlowKvConfig;
use flowkv::store::FlowKvStore;
use flowkv_common::backend::{AggregateKind, OperatorSemantics, StateBackend, WindowKind};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = ScratchDir::new("quickstart")?;

    // 1. Append + Aligned Read: a fixed-window operator collecting full
    //    tuple lists. FlowKV classifies this as AAR and lays data out in
    //    per-window log files.
    let aar = OperatorSemantics::new(AggregateKind::FullList, WindowKind::Fixed { size: 60_000 });
    let mut store = FlowKvStore::open(&dir.path().join("aar"), aar, FlowKvConfig::default())?;
    println!("fixed-window + full-list  -> pattern {}", store.pattern());

    let minute = WindowId::new(0, 60_000);
    for (user, page, ts) in [
        ("alice", "/home", 1_000),
        ("bob", "/cart", 2_000),
        ("alice", "/checkout", 30_000),
    ] {
        store.append(user.as_bytes(), minute, page.as_bytes(), ts)?;
    }
    // When the window triggers, drain it gradually: every chunk holds a
    // bounded batch of pairs (gradual state loading, paper §4.1). A key
    // may come back in a later entry; its values concatenate in order.
    let mut visits: BTreeMap<Vec<u8>, Vec<String>> = BTreeMap::new();
    while let Some(chunk) = store.get_window_chunk(minute)? {
        for (key, values) in chunk {
            let pages = values
                .iter()
                .map(|v| String::from_utf8_lossy(v).into_owned());
            visits.entry(key).or_default().extend(pages);
        }
    }
    for (key, pages) in visits {
        println!(
            "  window {minute}: {} visited {pages:?}",
            String::from_utf8_lossy(&key)
        );
    }
    store.close()?;

    // 2. Append + Unaligned Read: session windows per key. FlowKV uses a
    //    global data log + index log and predicts trigger times.
    let aur = OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 5_000 });
    let mut store = FlowKvStore::open(&dir.path().join("aur"), aur, FlowKvConfig::default())?;
    println!("session-window + full-list -> pattern {}", store.pattern());
    let session = WindowId::new(10_000, 15_000);
    store.append(b"alice", session, b"click-1", 10_000)?;
    store.append(b"alice", session, b"click-2", 12_500)?;
    store.flush()?; // Spill to the data + index logs.
    let values = store.take_values(b"alice", session)?;
    println!(
        "  session {session}: {} events recovered from disk",
        values.len()
    );
    store.close()?;

    // 3. Read-Modify-Write: incremental aggregates.
    let rmw = OperatorSemantics::new(
        AggregateKind::Incremental,
        WindowKind::Fixed { size: 60_000 },
    );
    let mut store = FlowKvStore::open(&dir.path().join("rmw"), rmw, FlowKvConfig::default())?;
    println!("fixed-window + incremental -> pattern {}", store.pattern());
    // One call per tuple: the store lends the closure the buffer that
    // *is* the aggregate (empty, `held == false`, the first time) and
    // keeps whatever the closure leaves in it. The paper's two-call
    // form, `take_aggregate` then `put_aggregate`, means the same.
    for _ in 0..10 {
        store.update_aggregate(b"alice", minute, &mut |count, held| {
            let n = if held {
                u64::from_le_bytes(count[..].try_into().unwrap())
            } else {
                0
            };
            count.clear();
            count.extend_from_slice(&(n + 1).to_le_bytes());
        })?;
    }
    let final_count = store.take_aggregate(b"alice", minute)?.unwrap();
    println!(
        "  alice's count in {minute}: {}",
        u64::from_le_bytes(final_count.try_into().unwrap())
    );
    store.close()?;

    Ok(())
}
