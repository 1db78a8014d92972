//! Ablation: does the semantic store choice matter? (paper §3.1, §4.1)
//!
//! Runs the *same aligned workload* — one fixed window of tuples across
//! many keys, appended then fully read — through (a) the AAR store FlowKV
//! would pick, and (b) the AUR store FlowKV would pick if the window
//! function were unknown (the custom-window fallback). The AAR layout
//! reads one per-window file sequentially and deletes it; the AUR layout
//! must take each key individually through batch reads. The gap is the
//! value of classification, and quantifies the paper's remark that
//! misclassified custom windows degrade performance (§8).
//!
//! Usage: `cargo run --release -p flowkv-bench --bin abl_layout
//! [--keys=400] [--per-key=10] [--rounds=10]`

use std::sync::Arc;
use std::time::Instant;

use flowkv::aar::AarStore;
use flowkv::aur::{AurConfig, AurStore};
use flowkv::ett::EttPredictor;
use flowkv_bench::{header, row, HarnessArgs, HARNESS_BUFFER};
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;

fn main() {
    let args = HarnessArgs::parse();
    let keys = args.u64("keys", 400);
    let per_key = args.u64("per-key", 10);
    let rounds = args.u64("rounds", 10);
    let value = vec![7u8; 64];

    eprintln!("ablation layout: {rounds} windows x {keys} keys x {per_key} values");
    header(&[
        "store",
        "elapsed_s",
        "windows_per_s",
        "bytes_read_mb",
        "compactions",
    ]);

    // (a) The aligned-read layout: per-window files, sequential drain.
    {
        let dir = ScratchDir::new("abl-aar").unwrap();
        let metrics = StoreMetrics::new_shared();
        let mut store =
            AarStore::open(dir.path(), HARNESS_BUFFER, 1024, Arc::clone(&metrics)).unwrap();
        let start = Instant::now();
        for round in 0..rounds {
            let w = WindowId::new(round as i64 * 1_000, round as i64 * 1_000 + 1_000);
            for i in 0..keys * per_key {
                let key = (i % keys).to_le_bytes();
                store.append(&key, w, &value).unwrap();
            }
            while store.get_window_chunk(w).unwrap().is_some() {}
        }
        let elapsed = start.elapsed();
        let m = metrics.snapshot();
        row(&[
            "aar (classified)".to_string(),
            format!("{:.2}", elapsed.as_secs_f64()),
            format!("{:.1}", rounds as f64 / elapsed.as_secs_f64()),
            format!("{:.1}", m.bytes_read as f64 / 1e6),
            m.compactions.to_string(),
        ]);
    }

    // (b) The unaligned-read fallback: global log + per-key index reads.
    {
        let dir = ScratchDir::new("abl-aur").unwrap();
        let metrics = StoreMetrics::new_shared();
        let cfg = AurConfig {
            write_buffer_bytes: HARNESS_BUFFER,
            read_batch_ratio: 0.02,
            max_space_amplification: 1.5,
        };
        // A custom window function without a predictor cannot estimate
        // trigger times (paper §8), so batch reads cannot help.
        let mut store = AurStore::open(
            dir.path(),
            cfg,
            EttPredictor::Unpredictable,
            Arc::clone(&metrics),
        )
        .unwrap();
        let start = Instant::now();
        for round in 0..rounds {
            let w = WindowId::new(round as i64 * 1_000, round as i64 * 1_000 + 1_000);
            for i in 0..keys * per_key {
                let key = (i % keys).to_le_bytes();
                store
                    .append(&key, w, &value, w.start + i as i64 % 1_000)
                    .unwrap();
            }
            for k in 0..keys {
                store.take(&k.to_le_bytes(), w).unwrap();
            }
        }
        let elapsed = start.elapsed();
        let m = metrics.snapshot();
        row(&[
            "aur (custom-window fallback)".to_string(),
            format!("{:.2}", elapsed.as_secs_f64()),
            format!("{:.1}", rounds as f64 / elapsed.as_secs_f64()),
            format!("{:.1}", m.bytes_read as f64 / 1e6),
            m.compactions.to_string(),
        ]);
    }

    // (c) The same fallback but with a predictor the user registered for
    //     the custom window (paper §8's suggested mitigation).
    {
        let dir = ScratchDir::new("abl-aur-hint").unwrap();
        let metrics = StoreMetrics::new_shared();
        let cfg = AurConfig {
            write_buffer_bytes: HARNESS_BUFFER,
            read_batch_ratio: 0.02,
            max_space_amplification: 1.5,
        };
        let mut store = AurStore::open(
            dir.path(),
            cfg,
            EttPredictor::WindowEnd,
            Arc::clone(&metrics),
        )
        .unwrap();
        let start = Instant::now();
        for round in 0..rounds {
            let w = WindowId::new(round as i64 * 1_000, round as i64 * 1_000 + 1_000);
            for i in 0..keys * per_key {
                let key = (i % keys).to_le_bytes();
                store
                    .append(&key, w, &value, w.start + i as i64 % 1_000)
                    .unwrap();
            }
            for k in 0..keys {
                store.take(&k.to_le_bytes(), w).unwrap();
            }
        }
        let elapsed = start.elapsed();
        let m = metrics.snapshot();
        row(&[
            "aur (custom + user ETT hint)".to_string(),
            format!("{:.2}", elapsed.as_secs_f64()),
            format!("{:.1}", rounds as f64 / elapsed.as_secs_f64()),
            format!("{:.1}", m.bytes_read as f64 / 1e6),
            m.compactions.to_string(),
        ]);
    }
}
