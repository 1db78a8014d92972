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
use flowkv_common::registry::capture;
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
/// appends ten values to every active key and flushes (one data record
/// per window and epoch, so a window holds at least seven flushed
/// records when it fires); then the ten keys (2 %) that sat the epoch
/// out fire and start over. A sentinel window that never fires heads
/// every flush. Besides the run's total it prints, per run: the append
/// phase (appends and flushes) and the misses (batch reads that did not
/// end in a compaction).
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
        misses: u64,
    }

    fn run(store: &mut AurStore, metrics: &StoreMetrics, phases: &mut Phases) {
        let session = |start: i64| WindowId::new(start, start + GAP);
        let sentinel = session(0);
        let mut windows: Vec<WindowId> = vec![session(0); KEYS as usize];
        let mut flushed_records = vec![0u64; KEYS as usize];
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
            for k in quiet {
                let before = metrics.snapshot();
                let t0 = Instant::now();
                let values = store.take(&k.to_le_bytes(), windows[k as usize]).unwrap();
                let took = t0.elapsed();
                let after = metrics.snapshot();
                assert_eq!(values.len() as u64, flushed_records[k as usize] * PER_EPOCH);
                flushed_records[k as usize] = 0;
                windows[k as usize] = session(ts);
                if after.compactions == before.compactions
                    && after.prefetch_misses > before.prefetch_misses
                {
                    phases.miss += took;
                    phases.misses += 1;
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
                let store = AurStore::open(
                    dir.path(),
                    cfg.clone(),
                    predictor,
                    metrics.clone(),
                    StdVfs::shared(),
                )
                .unwrap();
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
            "aur_hot_session/miss: {:>12.3?} per run, {} misses per run",
            phases.miss / runs,
            phases.misses / u64::from(runs)
        );
    }
}

/// `aur_index_walk`'s and `aur_reopen`'s store: five flushes of 400
/// windows with 8-byte keys, 2 000 data records of one 16-byte value
/// each, five per window as a window gathers before it fires on
/// `q11m-aur-max`.
mod walk_shape {
    use flowkv::aur::{AurConfig, AurStore};
    use flowkv_common::types::WindowId;

    pub const KEYS: u64 = 400;
    pub const FLUSHES: u64 = 5;
    pub const RECORDS: u64 = KEYS * FLUSHES;
    /// Longer than the span of all timestamps, so no window is due by
    /// the store's stream time and a read loads its picks only.
    pub const GAP: i64 = 10_000;
    /// Timestamps whose zigzag varint takes four bytes, as event times
    /// in milliseconds since the stream began do.
    const BASE_TS: i64 = 10_000_000;

    pub fn window(k: u64) -> WindowId {
        WindowId::new(BASE_TS + k as i64, BASE_TS + k as i64 + GAP)
    }

    pub fn cfg(read_batch_ratio: f64) -> AurConfig {
        AurConfig {
            write_buffer_bytes: 4 << 20,
            read_batch_ratio,
            max_space_amplification: 100.0,
        }
    }

    pub fn predictor() -> flowkv::ett::EttPredictor {
        flowkv::ett::EttPredictor::SessionGap { gap: GAP }
    }

    pub fn fill(store: &mut AurStore) {
        for flush in 0..FLUSHES {
            for k in 0..KEYS {
                let ts = BASE_TS + (flush * KEYS + k) as i64;
                store
                    .append(&k.to_le_bytes(), window(k), &[5u8; 16], ts)
                    .unwrap();
            }
            store.flush().unwrap();
        }
    }
}

/// The AUR miss at `q11m-aur-max`'s shape, over [`walk_shape`]'s store.
/// Each timed take misses and loads 20 picks; the takes step 21 keys on,
/// past each read's picks. (The group keeps the name it had when a miss
/// walked an index log to find its picks' records.)
fn bench_aur_index_walk(c: &mut Criterion) {
    use flowkv::aur::AurStore;
    use flowkv_common::metrics::StoreMetrics;
    use std::time::Instant;
    use walk_shape::{window, FLUSHES, KEYS};

    const PICKS: u64 = 20;
    const TAKES: u64 = 10;

    let cfg = walk_shape::cfg(PICKS as f64 / KEYS as f64);
    let (mut misses, mut miss_time) = (0u64, Duration::ZERO);
    let mut group = c.benchmark_group("aur_index_walk");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("2000_entries"), |b| {
        b.iter_batched(
            || {
                let dir = ScratchDir::new("micro-aur-walk").unwrap();
                let metrics = StoreMetrics::new_shared();
                let predictor = walk_shape::predictor();
                let mut store = AurStore::open(
                    dir.path(),
                    cfg.clone(),
                    predictor,
                    metrics.clone(),
                    StdVfs::shared(),
                )
                .unwrap();
                walk_shape::fill(&mut store);
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
            "aur_index_walk/miss: {:>12.3?} per miss ({misses} misses)",
            miss_time / misses as u32
        );
    }
}

/// Reopening an AUR store that holds [`walk_shape`]'s 2 000 flushed
/// records: what a restart or a restore pays to rebuild the table of
/// live windows from disk. Prints the device ops of one reopen, counted
/// by a `FaultVfs`, and the store's log files with their sizes.
fn bench_aur_reopen(c: &mut Criterion) {
    use flowkv::aur::AurStore;
    use flowkv_common::metrics::StoreMetrics;
    use flowkv_common::vfs::{FaultVfs, Vfs};
    use std::sync::Arc;

    let dir = ScratchDir::new("micro-aur-reopen").unwrap();
    let open = |vfs: Arc<dyn Vfs>| {
        let metrics = StoreMetrics::new_shared();
        let cfg = walk_shape::cfg(0.02);
        AurStore::open(dir.path(), cfg, walk_shape::predictor(), metrics, vfs).unwrap()
    };
    walk_shape::fill(&mut open(StdVfs::shared()));
    let counting = FaultVfs::counting(StdVfs::shared());
    drop(open(counting.clone()));
    let mut group = c.benchmark_group("aur_reopen");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(20);
    let id = format!("{}_records", walk_shape::RECORDS);
    group.bench_function(BenchmarkId::from_parameter(id), |b| {
        b.iter(|| drop(open(StdVfs::shared())))
    });
    group.finish();
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, entry.metadata().unwrap().len())
        })
        .collect();
    files.sort();
    println!(
        "aur_reopen/reads: {} device ops per reopen, log files {files:?}",
        counting.ops()
    );
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
                WindowOperator::new(
                    spec,
                    Box::new(InMemoryBackend::new(usize::MAX, 1_024, StdVfs::shared())),
                )
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
/// 1 000 rounds of 100 read-modify-writes on 100 distinct keys over 1 k,
/// 10 k and 100 k live keys, once on the bare store and once `served` —
/// the calls recorded by the capture adaptor and a view published after
/// every round. A read-modify-write is `take_put` (a take and a put) or
/// `update` (one `update_aggregate`, the call Q12 makes per tuple).
/// Populating the stores and reading the first base are left out of the
/// timing; every delta merge and base fold the 100 k changes cause is in
/// it. Each sample times a bare and a served run back to back (in turns
/// which goes first), so a drift of the machine's speed moves both; the
/// cell prints `served` minus `bare` per changed pair, the whole cycle
/// (record path and publish together), as the median and quartiles of
/// the paired samples.
///
/// That difference is not flat in the live-key count: the size rule
/// folds the chain into a fresh base about once per base's worth of
/// changes, so a larger base is rewritten as often per change but costs
/// more cache misses per entry, and the deltas it carries are walked by
/// every lookup. It must grow far slower than the live keys do (a
/// rebuild per publish grew 100x from the first cell to the last). One
/// fold swings a sample by more than the record path costs, so the cell
/// does not split the cycle into parts.
fn bench_view_publish(c: &mut Criterion) {
    use std::time::Instant;

    const ROUNDS: u64 = 1_000;
    const PAIRS: u64 = 100;
    let mut group = c.benchmark_group("view_publish_cycle");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(7);
    let semantics = OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Global);
    let w = WindowId::global();
    let choice = BackendChoice::FlowKv(flowkv_bench::flowkv_cfg());
    for keys in [1_000u64, 10_000, 100_000] {
        for call in ["take_put", "update"] {
            // Per sample: the bare run's time and the served run's.
            let mut samples: Vec<[Duration; 2]> = Vec::new();
            let id = BenchmarkId::new(&format!("{keys}_keys"), call);
            group.bench_function(id, |b| {
                let mut finished = Vec::new();
                b.iter_batched(
                    || {
                        [false, true].map(|served| {
                            let (store, dir) = make(&choice, semantics, FactoryOptions::new());
                            let mut store = capture(store, None);
                            for k in 0..keys {
                                store
                                    .put_aggregate(&k.to_le_bytes(), w, &0u64.to_le_bytes())
                                    .unwrap();
                            }
                            // Bare: the adaptor never answers a view, and
                            // until its first it records nothing.
                            if served {
                                store.read_view().unwrap();
                            }
                            (store, dir)
                        })
                    },
                    |runs| {
                        let mut took = [Duration::ZERO; 2];
                        let mut runs = runs.map(Some);
                        let order = if samples.len().is_multiple_of(2) {
                            [0, 1]
                        } else {
                            [1, 0]
                        };
                        for served in order {
                            let (mut store, dir) = runs[served].take().unwrap();
                            let t0 = Instant::now();
                            let mut cycle = 0u64;
                            let mut bump = |acc: &mut Vec<u8>, _: bool| {
                                let n = u64::from_le_bytes(acc[..].try_into().unwrap());
                                acc.copy_from_slice(&(n + 1).to_le_bytes());
                            };
                            for _ in 0..ROUNDS {
                                for _ in 0..PAIRS {
                                    // A stride coprime to every key count:
                                    // 100 distinct keys per round.
                                    cycle += 7_919;
                                    let key = (cycle % keys).to_le_bytes();
                                    if call == "update" {
                                        store.update_aggregate(&key, w, &mut bump).unwrap();
                                    } else {
                                        let acc = store.take_aggregate(&key, w).unwrap();
                                        let mut acc = acc.expect("populated");
                                        bump(&mut acc, true);
                                        store.put_aggregate(&key, w, &acc).unwrap();
                                    }
                                }
                                if served == 1 {
                                    std::hint::black_box(store.read_view().unwrap());
                                }
                            }
                            took[served] = t0.elapsed();
                            if served == 1 {
                                let view = store.read_view().unwrap().unwrap();
                                assert_eq!(view.len() as u64, keys);
                            }
                            finished.push((store, dir));
                        }
                        samples.push(took);
                    },
                    criterion::BatchSize::PerIteration,
                );
                for (mut store, _dir) in finished {
                    store.close().unwrap();
                }
            });
            if samples.is_empty() {
                continue;
            }
            let per_pair = |took: Duration| took.as_nanos() as f64 / (ROUNDS * PAIRS) as f64;
            let mut extra: Vec<f64> = samples
                .iter()
                .map(|[bare, served]| per_pair(*served) - per_pair(*bare))
                .collect();
            extra.sort_by(f64::total_cmp);
            let quartile = |q: usize| extra[(extra.len() - 1) * q / 4];
            let mean_ms = |i: usize| {
                let total: Duration = samples.iter().map(|took| took[i]).sum();
                total.as_secs_f64() * 1e3 / samples.len() as f64
            };
            println!(
                "view_publish_cycle/{keys}_keys/{call}/served_minus_bare_ns_per_pair: {:.0} \
                 (quartiles {:.0} to {:.0}; whole cycles, {} paired samples; bare {:.1} ms, \
                 served {:.1} ms per sample)",
                quartile(2),
                quartile(1),
                quartile(3),
                samples.len(),
                mean_ms(0),
                mean_ms(1),
            );
        }
    }
    group.finish();
}

/// One per-record write, single-threaded, with no flush in the loop:
/// 64 Ki AUR appends (1 024 sessions × 64 values), AAR appends (1 024
/// keys × 64 values into one window) and RMW updates (1 024 aggregates ×
/// 64 rounds), keys interleaved as a stream interleaves them, each into
/// a fresh store whose write buffer holds them all. Prints ns per call
/// beside the store's own account of it, `write_nanos` ÷ calls, which
/// times one call in 64 and charges it 64 times.
fn bench_record_op(c: &mut Criterion) {
    use flowkv::aar::AarStore;
    use flowkv::aur::{AurConfig, AurStore};
    use flowkv::ett::EttPredictor;
    use flowkv::rmw::{RmwConfig, RmwStore};
    use flowkv_common::metrics::StoreMetrics;
    use std::path::Path;
    use std::sync::Arc;
    use std::time::Instant;

    const KEYS: u64 = 1_024;
    const PER_KEY: u64 = 64;
    const BUFFER: usize = 256 << 20;

    /// Times `call` over every `(key, round)` of fresh stores that
    /// `open` makes, then prints the two per-call figures.
    fn cell<S>(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        open: impl Fn(&Path, Arc<StoreMetrics>) -> S,
        mut call: impl FnMut(&mut S, &[u8], u64),
    ) {
        let (mut calls, mut took, mut charged) = (0u64, Duration::ZERO, 0u64);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter_batched(
                || {
                    let dir = ScratchDir::new("micro-record-op").unwrap();
                    let metrics = StoreMetrics::new_shared();
                    (open(dir.path(), Arc::clone(&metrics)), metrics, dir)
                },
                |(mut store, metrics, dir)| {
                    let t0 = Instant::now();
                    for round in 0..PER_KEY {
                        for k in 0..KEYS {
                            call(&mut store, &k.to_le_bytes(), round);
                        }
                    }
                    took += t0.elapsed();
                    calls += KEYS * PER_KEY;
                    let m = metrics.snapshot();
                    assert_eq!((m.records_written, m.flushes), (KEYS * PER_KEY, 0));
                    charged += m.write_nanos;
                    (store, dir)
                },
                criterion::BatchSize::PerIteration,
            );
        });
        if calls > 0 {
            println!(
                "record_op/{name}/ns_per_call: {:.1} (write_nanos per call {:.1})",
                took.as_nanos() as f64 / calls as f64,
                charged as f64 / calls as f64
            );
        }
    }

    let mut group = c.benchmark_group("record_op");
    group.sample_size(10);
    let w = WindowId::new(0, 1_000_000);
    cell(
        &mut group,
        "aur_append",
        |dir, metrics| {
            let cfg = AurConfig {
                write_buffer_bytes: BUFFER,
                ..AurConfig::default()
            };
            let predictor = EttPredictor::SessionGap { gap: 1_000 };
            AurStore::open(dir, cfg, predictor, metrics, StdVfs::shared()).unwrap()
        },
        |store, key, round| {
            store
                .append(key, w, &round.to_le_bytes(), round as i64)
                .unwrap()
        },
    );
    cell(
        &mut group,
        "aar_append",
        |dir, metrics| AarStore::open(dir, BUFFER, 1_024, metrics, StdVfs::shared()).unwrap(),
        |store, key, round| store.append(key, w, &round.to_le_bytes()).unwrap(),
    );
    cell(
        &mut group,
        "rmw_update",
        |dir, metrics| {
            let cfg = RmwConfig {
                write_buffer_bytes: BUFFER,
                ..RmwConfig::default()
            };
            RmwStore::open(dir, cfg, metrics, StdVfs::shared()).unwrap()
        },
        |store, key, round| {
            let mut fold = |acc: &mut Vec<u8>, _: bool| {
                acc.resize(8, 0);
                let sum = u64::from_le_bytes(acc[..].try_into().unwrap()) + round;
                acc.copy_from_slice(&sum.to_le_bytes());
            };
            store.update(key, w, &mut fold).unwrap();
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_aar,
    bench_aur,
    bench_aur_cold,
    bench_aur_hot_session,
    bench_aur_index_walk,
    bench_aur_reopen,
    bench_aur_take,
    bench_session_extend,
    bench_rmw,
    bench_tier_rmw,
    bench_tier_aar_append,
    bench_tier_aar_cycle,
    bench_view_publish,
    bench_record_op
);
criterion_main!(benches);
