//! Criterion micro-benchmarks of the three access patterns at the
//! store level (no engine), one group per pattern.
//!
//! These complement the figure harnesses: they isolate pure store cost
//! for the exact operation mixes the paper's patterns generate, and back
//! the ablation claims in DESIGN.md (e.g. AAR needs no compaction, AUR
//! batching beats per-window reads).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, WindowKind,
};
use flowkv_common::registry::ViewCapture;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::{SlowVfs, StdVfs};
use flowkv_spe::{BackendChoice, FactoryOptions};

/// Backends under comparison (the in-memory store is not a persistent
/// competitor and is omitted, as in the paper's Figure 10).
fn backends() -> Vec<BackendChoice> {
    flowkv_bench::bench_backends(usize::MAX)
        .into_iter()
        .skip(1)
        .collect()
}

fn make(
    choice: &BackendChoice,
    semantics: OperatorSemantics,
    options: FactoryOptions,
) -> (Box<dyn StateBackend>, ScratchDir) {
    let dir = ScratchDir::new(&format!("micro-{}", choice.name())).unwrap();
    let ctx = OperatorContext {
        operator: "micro".into(),
        partition: 0,
        semantics,
        data_dir: dir.path().to_path_buf(),
        telemetry: None,
        io: None,
    };
    (choice.build(options).create(&ctx).unwrap(), dir)
}

/// AAR: append a window's worth of tuples across many keys, then drain
/// the window step by step through the borrowed drain (the baselines
/// answer it out of their owned chunks).
fn bench_aar(c: &mut Criterion) {
    let mut group = c.benchmark_group("aar_append_drain");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Fixed { size: 1_000 });
    let keys = 200u64;
    let per_key = 20u64;
    for choice in backends() {
        group.bench_function(BenchmarkId::from_parameter(choice.name()), |b| {
            b.iter_batched(
                || make(&choice, semantics, FactoryOptions::new()),
                |(mut store, _dir)| {
                    let w = WindowId::new(0, 1_000);
                    for i in 0..keys * per_key {
                        let key = (i % keys).to_le_bytes();
                        store.append(&key, w, &[7u8; 64], i as i64).unwrap();
                    }
                    let mut total = 0u64;
                    while store.drain_window_chunk(w, &mut |_, _| total += 1).unwrap() {}
                    assert_eq!(total, keys * per_key);
                    store.close().unwrap();
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// AUR: session-style appends to per-key windows, flushed to disk, then
/// consumed in trigger order (ascending timestamps).
fn bench_aur(c: &mut Criterion) {
    let mut group = c.benchmark_group("aur_session_take");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 100 });
    let keys = 200u64;
    let per_key = 10u64;
    for choice in backends() {
        group.bench_function(BenchmarkId::from_parameter(choice.name()), |b| {
            b.iter_batched(
                || {
                    let (mut store, dir) = make(&choice, semantics, FactoryOptions::new());
                    for k in 0..keys {
                        let window = WindowId::new(k as i64 * 10, k as i64 * 10 + 100);
                        for j in 0..per_key {
                            store
                                .append(
                                    &k.to_le_bytes(),
                                    window,
                                    &[5u8; 48],
                                    k as i64 * 10 + j as i64,
                                )
                                .unwrap();
                        }
                    }
                    store.flush().unwrap();
                    (store, dir)
                },
                |(mut store, _dir)| {
                    for k in 0..keys {
                        let window = WindowId::new(k as i64 * 10, k as i64 * 10 + 100);
                        let values = store.take_values(&k.to_le_bytes(), window).unwrap();
                        assert_eq!(values.len(), per_key as usize);
                    }
                    store.close().unwrap();
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// AUR on a cold device: one predictive batch read of 256 flushed
/// records where every device read sleeps 150 µs (`SlowVfs`), so the
/// time is the round-trip count — a handful of extents, not two reads
/// per record (~80 ms).
fn bench_aur_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("aur_cold_batch_read");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 100 });
    let records = 256u64;
    let window = WindowId::new(0, 1_000);
    // One store instance and a batch ratio of 1: the first trigger's
    // batch read selects every flushed window.
    let choice = BackendChoice::FlowKv(
        flowkv_bench::flowkv_cfg()
            .with_store_instances(1)
            .with_read_batch_ratio(1.0),
    );
    group.bench_function(BenchmarkId::from_parameter("flowkv_150us"), |b| {
        b.iter_batched(
            || {
                let cold = SlowVfs::wrap(StdVfs::shared(), Duration::from_micros(150));
                let (mut store, dir) = make(&choice, semantics, FactoryOptions::new().vfs(cold));
                for k in 0..records {
                    store
                        .append(&k.to_le_bytes(), window, &[5u8; 48], k as i64)
                        .unwrap();
                }
                store.flush().unwrap();
                (store, dir)
            },
            |(mut store, _dir)| {
                let values = store.take_values(&0u64.to_le_bytes(), window).unwrap();
                assert_eq!(values.len(), 1);
                store.close().unwrap();
            },
            criterion::BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// AUR on hot state, single-threaded: the store-side shape of the
/// benchmark's `q11m-aur-max` on one store instance with `flowkv_cfg()`'s
/// per-instance buffer. 500 keys hold long-lived sessions; an epoch
/// appends ten values to every active key and flushes (one index entry
/// per window and epoch, so a window holds at least seven flushed
/// records when it fires); then the ten keys (2 %) that sat the epoch
/// out fire and start over. A sentinel window that never fires heads
/// every flush, so each batch read scans the whole index log and the
/// bench can count the scanned entries itself. Besides the run's total
/// it prints, per run: the append phase (appends and flushes), the
/// misses (batch reads that did not end in a compaction), and the miss
/// time per scanned index entry.
fn bench_aur_hot_session(c: &mut Criterion) {
    use flowkv::aur::{AurConfig, AurStore};
    use flowkv_common::metrics::StoreMetrics;
    use std::time::Instant;

    const KEYS: u64 = 500;
    const PER_EPOCH: u64 = 10;
    const FIRING: u64 = 10;
    const WARM_EPOCHS: u64 = 8;
    const EPOCHS: u64 = 58;
    /// Tuple timestamps advance by one per append; a key that sits an
    /// epoch out is a session gap behind.
    const GAP: i64 = (KEYS * PER_EPOCH) as i64;

    #[derive(Default)]
    struct Phases {
        runs: u32,
        append: Duration,
        miss: Duration,
        scanned_entries: u64,
    }

    fn run(store: &mut AurStore, metrics: &StoreMetrics, phases: &mut Phases) {
        let session = |start: i64| WindowId::new(start, start + GAP);
        let sentinel = session(0);
        let mut windows: Vec<WindowId> = vec![session(0); KEYS as usize];
        let mut flushed_records = vec![0u64; KEYS as usize];
        let mut index_entries = 0u64;
        let mut ts = 0i64;
        for epoch in 0..EPOCHS {
            // The keys firing at the end of this epoch have gone quiet.
            let quiet = match epoch.checked_sub(WARM_EPOCHS) {
                Some(e) => (e * FIRING) % KEYS..(e * FIRING) % KEYS + FIRING,
                None => 0..0,
            };
            let t0 = Instant::now();
            store
                .append(b"\0sentinel", sentinel, &[0u8; 64], ts)
                .unwrap();
            for _ in 0..PER_EPOCH {
                for k in (0..KEYS).filter(|k| !quiet.contains(k)) {
                    ts += 1;
                    store
                        .append(&k.to_le_bytes(), windows[k as usize], &[5u8; 64], ts)
                        .unwrap();
                }
            }
            store.flush().unwrap();
            phases.append += t0.elapsed();
            for k in (0..KEYS).filter(|k| !quiet.contains(k)) {
                flushed_records[k as usize] += 1;
            }
            index_entries += 1 + KEYS - quiet.clone().count() as u64;
            for k in quiet {
                let before = metrics.snapshot();
                let t0 = Instant::now();
                let values = store.take(&k.to_le_bytes(), windows[k as usize]).unwrap();
                let took = t0.elapsed();
                let after = metrics.snapshot();
                assert_eq!(values.len() as u64, flushed_records[k as usize] * PER_EPOCH);
                flushed_records[k as usize] = 0;
                windows[k as usize] = session(ts);
                if after.compactions > before.compactions {
                    // The rewrite kept the live windows' entries only.
                    index_entries = 1 + epoch + flushed_records.iter().sum::<u64>();
                } else if after.prefetch_misses > before.prefetch_misses {
                    phases.miss += took;
                    phases.scanned_entries += index_entries;
                }
            }
        }
        assert_eq!(metrics.snapshot().flushes, EPOCHS, "an append flushed");
        phases.runs += 1;
    }

    let mut group = c.benchmark_group("aur_hot_session");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(5);
    let per_instance = flowkv_bench::flowkv_cfg();
    let cfg = AurConfig {
        write_buffer_bytes: per_instance.write_buffer_bytes / per_instance.store_instances,
        read_batch_ratio: per_instance.read_batch_ratio,
        max_space_amplification: per_instance.max_space_amplification,
    };
    let mut phases = Phases::default();
    group.bench_function(BenchmarkId::from_parameter("run"), |b| {
        b.iter_batched(
            || {
                let dir = ScratchDir::new("micro-aur-hot").unwrap();
                let metrics = StoreMetrics::new_shared();
                let predictor = flowkv::ett::EttPredictor::SessionGap { gap: GAP };
                let store =
                    AurStore::open(dir.path(), cfg.clone(), predictor, metrics.clone()).unwrap();
                (store, metrics, dir)
            },
            |(mut store, metrics, _dir)| {
                run(&mut store, &metrics, &mut phases);
                store.close().unwrap();
            },
            criterion::BatchSize::PerIteration,
        );
    });
    group.finish();
    if phases.runs > 0 {
        let runs = phases.runs;
        println!(
            "aur_hot_session/append_phase: {:>12.3?} per run ({runs} runs)",
            phases.append / runs
        );
        println!(
            "aur_hot_session/miss: {:>12.3?} per run, {} index entries scanned per run",
            phases.miss / runs,
            phases.scanned_entries / u64::from(runs)
        );
        println!(
            "aur_hot_session/miss_ns_per_index_entry: {:.1}",
            phases.miss.as_nanos() as f64 / phases.scanned_entries as f64
        );
    }
}

/// The AUR index walk, at `q11m-aur-max`'s shape: five flushes of 400
/// windows with 8-byte keys put an index of 2 000 entries of ~54 B on
/// disk, five per window as a window gathers before it fires there. Each
/// timed take misses, so its batch read walks the whole index to load
/// 20 picks: key 0 fires first in every flush and is never taken, which
/// keeps the scan start at the first entry, and the takes step 21 keys
/// on, past each read's picks. Prints the miss time per walked entry.
fn bench_aur_index_walk(c: &mut Criterion) {
    use flowkv::aur::{AurConfig, AurStore};
    use flowkv_common::metrics::StoreMetrics;
    use std::time::Instant;

    const KEYS: u64 = 400;
    const FLUSHES: u64 = 5;
    const ENTRIES: u64 = KEYS * FLUSHES;
    const PICKS: u64 = 20;
    const TAKES: u64 = 10;
    /// Longer than the span of all timestamps, so no window is due by
    /// the store's stream time and a read loads its picks only.
    const GAP: i64 = 10_000;
    /// Timestamps whose zigzag varint takes four bytes, as event times
    /// in milliseconds since the stream began do.
    const BASE_TS: i64 = 10_000_000;

    let window = |k: u64| WindowId::new(BASE_TS + k as i64, BASE_TS + k as i64 + GAP);
    let cfg = AurConfig {
        write_buffer_bytes: 4 << 20,
        read_batch_ratio: PICKS as f64 / KEYS as f64,
        max_space_amplification: 100.0,
    };
    let (mut misses, mut miss_time) = (0u64, Duration::ZERO);
    let mut group = c.benchmark_group("aur_index_walk");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("2000_entries"), |b| {
        b.iter_batched(
            || {
                let dir = ScratchDir::new("micro-aur-walk").unwrap();
                let metrics = StoreMetrics::new_shared();
                let predictor = flowkv::ett::EttPredictor::SessionGap { gap: GAP };
                let mut store =
                    AurStore::open(dir.path(), cfg.clone(), predictor, metrics.clone()).unwrap();
                for flush in 0..FLUSHES {
                    for k in 0..KEYS {
                        let ts = BASE_TS + (flush * KEYS + k) as i64;
                        store
                            .append(&k.to_le_bytes(), window(k), &[5u8; 16], ts)
                            .unwrap();
                    }
                    store.flush().unwrap();
                }
                (store, metrics, dir)
            },
            |(mut store, metrics, _dir)| {
                for k in (0..TAKES).map(|t| 1 + t * (PICKS + 1)) {
                    let before = metrics.snapshot().prefetch_misses;
                    let t0 = Instant::now();
                    let values = store.take(&k.to_le_bytes(), window(k)).unwrap();
                    let took = t0.elapsed();
                    assert_eq!(values.len() as u64, FLUSHES);
                    if metrics.snapshot().prefetch_misses > before {
                        misses += 1;
                        miss_time += took;
                    }
                }
                store.close().unwrap();
            },
            criterion::BatchSize::PerIteration,
        );
    });
    group.finish();
    if misses > 0 {
        println!(
            "aur_index_walk/miss: {:>12.3?} per miss ({misses} misses of {ENTRIES} entries)",
            miss_time / misses as u32
        );
        println!(
            "aur_index_walk/ns_per_entry: {:.1}",
            miss_time.as_nanos() as f64 / (misses * ENTRIES) as f64
        );
    }
}

/// AUR takes at the trigger, owned (`take_values`, a `Vec` per value)
/// and borrowed (`take_values_with`, slices of the bytes the store
/// holds): 200 sessions of 100 eight-byte values, `buffered` (never
/// flushed) or `prefetched` (flushed, then loaded by a peek, so the take
/// reads the resident copy and no file). Filling the store is left out
/// of the timing.
fn bench_aur_take(c: &mut Criterion) {
    let mut group = c.benchmark_group("aur_take");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Session { gap: 1_000 });
    let w = WindowId::new(0, 1_000);
    let (keys, per_key) = (200u64, 100u64);
    let choice = BackendChoice::FlowKv(flowkv_bench::flowkv_cfg());
    for (borrowed, prefetched) in [(false, false), (true, false), (false, true), (true, true)] {
        let form = if borrowed { "borrowed" } else { "owned" };
        let held = if prefetched { "prefetched" } else { "buffered" };
        group.bench_function(BenchmarkId::new(form, held), |b| {
            b.iter_batched(
                || {
                    let (mut store, dir) = make(&choice, semantics, FactoryOptions::new());
                    for i in 0..keys * per_key {
                        let key = (i % keys).to_le_bytes();
                        store.append(&key, w, &i.to_le_bytes(), i as i64).unwrap();
                    }
                    if prefetched {
                        store.flush().unwrap();
                        for k in 0..keys {
                            let values = store.peek_values(&k.to_le_bytes(), w).unwrap();
                            assert_eq!(values.len() as u64, per_key);
                        }
                    }
                    (store, dir)
                },
                |(mut store, _dir)| {
                    let mut bytes = 0usize;
                    for k in 0..keys {
                        let key = k.to_le_bytes();
                        if borrowed {
                            let mut sum = |value: &[u8]| bytes += value.len();
                            store.take_values_with(&key, w, &mut sum).unwrap();
                        } else {
                            let values = store.take_values(&key, w).unwrap();
                            bytes += values.iter().map(Vec::len).sum::<usize>();
                        }
                    }
                    assert_eq!(bytes as u64, keys * per_key * 8);
                    store.close().unwrap();
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// What the window operator itself spends on a session tuple, over the
/// in-memory store so that no store work hides it: 2 000 keys extend
/// one session each, 100 000 tuples in timestamp order with a watermark
/// every 256 that trails a session gap behind (it pops due timers and
/// expires nothing), then the last watermark fires every session into
/// the median.
fn bench_session_extend(c: &mut Criterion) {
    use flowkv_common::types::{Tuple, MAX_TIMESTAMP};
    use flowkv_spe::functions::MedianProcess;
    use flowkv_spe::job::WindowSpec;
    use flowkv_spe::memstore::InMemoryBackend;
    use flowkv_spe::operator::{KeyedOperator, WindowOperator};
    use flowkv_spe::{AggregateSpec, WindowAssigner};

    let mut group = c.benchmark_group("session_extend");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let (keys, per_key) = (2_000u64, 50u64);
    // A key's tuples are `keys` ms apart: well inside the gap.
    let gap = 4 * keys as i64;
    let tuples: Vec<Tuple> = (0..keys * per_key)
        .map(|i| {
            let key = format!("bidder-{:06}", i % keys).into_bytes();
            Tuple::new(key, i.to_le_bytes().to_vec(), i as i64)
        })
        .collect();
    group.bench_function(BenchmarkId::from_parameter("in_memory"), |b| {
        b.iter_batched(
            || {
                let spec = WindowSpec {
                    name: "sessions".into(),
                    assigner: WindowAssigner::Session { gap },
                    aggregate: AggregateSpec::FullList(std::sync::Arc::new(MedianProcess)),
                };
                WindowOperator::new(spec, Box::new(InMemoryBackend::new(usize::MAX, 1_024)))
            },
            |mut operator| {
                let mut out = Vec::new();
                for (i, tuple) in tuples.iter().enumerate() {
                    operator.on_element(tuple.borrowed(), &mut out).unwrap();
                    if i % 256 == 255 {
                        let watermark = tuple.timestamp - gap;
                        operator.on_watermark(watermark, &mut out).unwrap();
                    }
                }
                assert!(out.is_empty());
                operator.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
                assert_eq!(out.len() as u64, keys);
            },
            criterion::BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// RMW: read-modify-write cycles over a working set of keys, each
/// backend twice — `take_put`, the two calls of the paper's Listing 1,
/// and `update`, the one call that folds in place (which the LSM answers
/// with the trait's default: its two cells time the same work).
fn bench_rmw(c: &mut Criterion) {
    let mut group = c.benchmark_group("rmw_cycle");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics = OperatorSemantics::new(
        AggregateKind::Incremental,
        WindowKind::Fixed { size: 1_000 },
    );
    let keys = 500u64;
    let rounds = 20u64;
    let fold = |acc: &mut Vec<u8>, round: u64| {
        acc.resize(8, 0);
        let sum = u64::from_le_bytes(acc[..].try_into().unwrap()) + round;
        acc.copy_from_slice(&sum.to_le_bytes());
    };
    for choice in backends() {
        for in_place in [false, true] {
            let form = if in_place { "update" } else { "take_put" };
            group.bench_function(BenchmarkId::new(choice.name(), form), |b| {
                b.iter_batched(
                    || make(&choice, semantics, FactoryOptions::new()),
                    |(mut store, _dir)| {
                        let w = WindowId::new(0, 1_000);
                        for round in 0..rounds {
                            for k in 0..keys {
                                let key = k.to_le_bytes();
                                if in_place {
                                    store
                                        .update_aggregate(&key, w, &mut |acc, _| fold(acc, round))
                                        .unwrap();
                                } else {
                                    let mut acc =
                                        store.take_aggregate(&key, w).unwrap().unwrap_or_default();
                                    fold(&mut acc, round);
                                    store.put_aggregate(&key, w, &acc).unwrap();
                                }
                            }
                        }
                        store.close().unwrap();
                    },
                    criterion::BatchSize::PerIteration,
                );
            });
        }
    }
    group.finish();
}

/// RMW through the two-tier wrapper with a hot budget nothing exceeds:
/// the same 64 k take/put cycles over a window of 1 k and of 16 k keys
/// (teardown, which does grow with the keys, is left out of the timing).
/// The tier's per-key bookkeeping runs on every cycle, so the time must
/// not grow with the key count beyond what a larger hash map costs — it
/// grew 35x while dropping a key scanned the window's key list.
fn bench_tier_rmw(c: &mut Criterion) {
    let mut group = c.benchmark_group("tier_rmw_cycle");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics = OperatorSemantics::new(
        AggregateKind::Incremental,
        WindowKind::Fixed { size: 1_000 },
    );
    let w = WindowId::new(0, 1_000);
    let cycles = 64_000u64;
    let choice = BackendChoice::FlowKv(flowkv_bench::flowkv_cfg());
    for keys in [1_000u64, 16_000] {
        group.bench_function(BenchmarkId::from_parameter(format!("{keys}_keys")), |b| {
            let mut cycled = Vec::new();
            b.iter_batched(
                || {
                    let tier = flowkv::tier::TierConfig::default();
                    let (mut store, dir) =
                        make(&choice, semantics, FactoryOptions::new().tiered(tier));
                    for k in 0..keys {
                        store
                            .put_aggregate(&k.to_le_bytes(), w, &0u64.to_le_bytes())
                            .unwrap();
                    }
                    (store, dir)
                },
                |(mut store, dir)| {
                    for cycle in 0..cycles {
                        let key = (cycle % keys).to_le_bytes();
                        let acc = store.take_aggregate(&key, w).unwrap().expect("populated");
                        store.put_aggregate(&key, w, &acc).unwrap();
                    }
                    cycled.push((store, dir));
                },
                criterion::BatchSize::PerIteration,
            );
            for (mut store, _dir) in cycled {
                store.close().unwrap();
            }
        });
    }
    group.finish();
}

/// AAR appends through the two-tier wrapper with a hot budget nothing
/// exceeds, beside the same appends on the bare store: 64 k tuples over
/// 1 k keys into one window (teardown left out of the timing). `tiered`
/// minus `bare` is what the tier's per-append bookkeeping costs; for an
/// aligned full-list operator that is bytes per window — no key copy,
/// no per-row entry — so the two must stay close.
fn bench_tier_aar_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("tier_aar_append");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Fixed { size: 1_000 });
    let w = WindowId::new(0, 1_000);
    let (tuples, keys) = (64_000u64, 1_000u64);
    let choice = BackendChoice::FlowKv(flowkv_bench::flowkv_cfg());
    for tiered in [false, true] {
        let label = if tiered { "tiered" } else { "bare" };
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut appended = Vec::new();
            b.iter_batched(
                || {
                    let mut options = FactoryOptions::new();
                    if tiered {
                        options = options.tiered(flowkv::tier::TierConfig::default());
                    }
                    make(&choice, semantics, options)
                },
                |(mut store, dir)| {
                    for i in 0..tuples {
                        let key = (i % keys).to_le_bytes();
                        store.append(&key, w, &[7u8; 64], i as i64).unwrap();
                    }
                    appended.push((store, dir));
                },
                criterion::BatchSize::PerIteration,
            );
            for (mut store, _dir) in appended {
                store.close().unwrap();
            }
        });
    }
    group.finish();
}

/// One AAR window's whole life — 64 k tuples over 1 k keys appended, then
/// the trigger's drain — on the bare store and behind a 1 MiB hot tier
/// (`tier_aar_append`'s default budget never demotes: here most of the
/// window goes out through the columnar cold log and comes back from it),
/// consumed as owned chunks and through the borrowed step. `tiered`
/// minus `bare` is what tiering costs a window; `owned` minus `borrowed`
/// is the copy per pair the borrowed drain spares its consumer.
fn bench_tier_aar_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("tier_aar_cycle");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let semantics =
        OperatorSemantics::new(AggregateKind::FullList, WindowKind::Fixed { size: 1_000 });
    let w = WindowId::new(0, 1_000);
    let (tuples, keys) = (64_000u64, 1_000u64);
    let choice = BackendChoice::FlowKv(flowkv_bench::flowkv_cfg());
    for (tiered, borrowed) in [(false, false), (false, true), (true, false), (true, true)] {
        let layout = if tiered { "tiered" } else { "bare" };
        let consumer = if borrowed { "borrowed" } else { "owned" };
        group.bench_function(BenchmarkId::new(layout, consumer), |b| {
            b.iter_batched(
                || {
                    let mut options = FactoryOptions::new();
                    if tiered {
                        options = options.tiered(flowkv::tier::TierConfig::new(1 << 20));
                    }
                    make(&choice, semantics, options)
                },
                |(mut store, _dir)| {
                    // Distinct values, as bids are: the block's value
                    // dictionary gets an entry per row.
                    let mut value = [7u8; 64];
                    for i in 0..tuples {
                        let key = (i % keys).to_le_bytes();
                        value[..8].copy_from_slice(&i.to_le_bytes());
                        store.append(&key, w, &value, i as i64).unwrap();
                    }
                    let mut bytes = 0usize;
                    if borrowed {
                        let mut sum = |_: &[u8], value: &[u8]| bytes += value.len();
                        while store.drain_window_chunk(w, &mut sum).unwrap() {}
                    } else {
                        while let Some(chunk) = store.get_window_chunk(w).unwrap() {
                            let values = chunk.iter().flat_map(|(_, values)| values);
                            bytes += values.map(Vec::len).sum::<usize>();
                        }
                    }
                    assert_eq!(bytes as u64, tuples * 64);
                    store.close().unwrap();
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// What a served RMW worker pays per watermark beyond its store calls:
/// 1 000 rounds of 100 take/put cycles on 100 distinct keys over 1 k,
/// 10 k and 100 k live keys, once on the bare store and once `served` —
/// the calls recorded by the capture adaptor and a view published after
/// every round. Populating the store and reading the first base are
/// left out of the timing; every delta merge and base fold the 100 k
/// changes cause is in it. Publishing follows what changed, so `served`
/// minus `bare` must stay flat in the live-key count, up to the deeper
/// delta chain and colder cache of a larger base (the bare store's own
/// time does grow: 100 k keys outgrow its write buffer) — a rebuild per
/// publish grew 100x from the first cell to the last.
fn bench_view_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_publish_cycle");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(5);
    let semantics = OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Global);
    let w = WindowId::global();
    let choice = BackendChoice::FlowKv(flowkv_bench::flowkv_cfg());
    for keys in [1_000u64, 10_000, 100_000] {
        for served in [false, true] {
            let label = if served { "served" } else { "bare" };
            group.bench_function(BenchmarkId::new(&format!("{keys}_keys"), label), |b| {
                let mut finished = Vec::new();
                b.iter_batched(
                    || {
                        let (store, dir) = make(&choice, semantics, FactoryOptions::new());
                        let (mut store, mut capture) = ViewCapture::wrap(store);
                        for k in 0..keys {
                            store
                                .put_aggregate(&k.to_le_bytes(), w, &0u64.to_le_bytes())
                                .unwrap();
                        }
                        // Bare: the capture never leaves its initial
                        // state, in which the adaptor records nothing.
                        if served {
                            capture.advance(store.as_mut()).unwrap();
                        }
                        (store, capture, dir)
                    },
                    |(mut store, mut capture, dir)| {
                        let mut cycle = 0u64;
                        for _ in 0..1_000 {
                            for _ in 0..100 {
                                // A stride coprime to every key count:
                                // 100 distinct keys per round.
                                cycle += 7_919;
                                let key = (cycle % keys).to_le_bytes();
                                let acc =
                                    store.take_aggregate(&key, w).unwrap().expect("populated");
                                store.put_aggregate(&key, w, &acc).unwrap();
                            }
                            if served {
                                capture.advance(store.as_mut()).unwrap();
                                std::hint::black_box(capture.view().clone());
                            }
                        }
                        if served {
                            assert_eq!(capture.view().len() as u64, keys);
                        }
                        finished.push((store, dir));
                    },
                    criterion::BatchSize::PerIteration,
                );
                for (mut store, _dir) in finished {
                    store.close().unwrap();
                }
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_aar,
    bench_aur,
    bench_aur_cold,
    bench_aur_hot_session,
    bench_aur_index_walk,
    bench_aur_take,
    bench_session_extend,
    bench_rmw,
    bench_tier_rmw,
    bench_tier_aar_append,
    bench_tier_aar_cycle,
    bench_view_publish
);
criterion_main!(benches);
