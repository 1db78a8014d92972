//! Turns what a traced run recorded — the timing wrappers' totals, the
//! program's telemetry registry, its tracer and its `StoreMetrics` —
//! into the named per-layer metrics, and times the isolated micro cells.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use flowkv_common::codec::crc32;
use flowkv_common::columnar::{decode_block, encode_block, BlockKind, ColdRow};
use flowkv_common::logfile::{LogReader, LogWriter, RandomAccessLog};
use flowkv_common::telemetry::{HistogramSnapshot, MetricSample, SampleValue, Telemetry};
use flowkv_common::trace;
use flowkv_common::types::WindowId;
use flowkv_common::vfs::StdVfs;
use flowkv_spe::job::Stage;
use flowkv_spe::Job;

use crate::harness::RunOutcome;
use crate::metrics::LayerValues;
use crate::timed::{IoClass, IoSide, OPS};
use crate::workloads::PARALLELISM;

/// A registry snapshot with label-aware lookups. Registry names are
/// `base` or `base{key=value,...}`.
#[derive(Default)]
pub struct Samples(Vec<MetricSample>);

impl Samples {
    pub fn of(telemetry: &Telemetry) -> Self {
        Samples(telemetry.registry().snapshot())
    }

    fn family<'a>(&'a self, base: &'a str) -> impl Iterator<Item = (&'a str, &'a SampleValue)> {
        self.0.iter().filter_map(move |s| {
            let labels = s.name.strip_prefix(base)?;
            (labels.is_empty() || labels.starts_with('{')).then_some((labels, &s.value))
        })
    }

    /// Sum of a counter family over the series whose labels pass `keep`.
    fn counter_where(&self, base: &str, keep: impl Fn(&str) -> bool) -> u64 {
        self.family(base)
            .filter(|(labels, _)| keep(labels))
            .map(|(_, v)| match v {
                SampleValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    pub fn counter(&self, base: &str) -> u64 {
        self.counter_where(base, |_| true)
    }

    pub fn histogram(&self, base: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (_, v) in self.family(base) {
            if let SampleValue::Histogram(h) = v {
                merged.merge(h);
            }
        }
        merged
    }

    fn gauge_max(&self, base: &str) -> i64 {
        self.family(base)
            .filter_map(|(_, v)| match v {
                SampleValue::Gauge(g) => Some(*g),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn both(side: impl Fn(&IoSide) -> &IoClass, worker: &IoSide, ring: &IoSide) -> (u64, u64, f64) {
    let (w, r) = (side(worker), side(ring));
    (
        w.calls() + r.calls(),
        w.bytes() + r.bytes(),
        w.secs() + r.secs(),
    )
}

/// Names of the job's stateful stages, as the executor labels them.
fn stateful_stages(job: &Job) -> Vec<String> {
    job.stages
        .iter()
        .filter(|s| !matches!(s, Stage::Stateless { .. }))
        .map(|s| s.name().to_string())
        .collect()
}

/// The ledger and every counter-derived metric of one traced unpaced
/// run. `input_bytes` is the sum of key and value bytes of the input.
pub fn from_traced_run(
    out: &mut LayerValues,
    job: &Job,
    run: &RunOutcome,
    telemetry: &Telemetry,
    input_bytes: u64,
) {
    let layers = run.layers.as_ref().expect("traced run carries its layers");
    let samples = Samples::of(telemetry);
    let elapsed = run.result.elapsed.as_secs_f64();
    let stateful = stateful_stages(job);
    let is_stateful = |labels: &str| {
        stateful
            .iter()
            .any(|name| labels.contains(&format!("operator={name},")))
    };
    let is_worker = |labels: &str| !labels.contains("operator=source,");

    // spe: the engine's own accounting of its worker threads.
    let workers = (job.stages.len() * PARALLELISM) as f64;
    let worker_wall = workers * elapsed;
    let busy = secs(samples.counter("operator_busy_nanos"));
    let idle = secs(samples.counter("operator_idle_nanos"));
    let stall = secs(samples.counter_where("exchange_stall_nanos", is_worker));
    let store = secs(layers.backend.total_nanos());
    out.set("spe.worker_busy_pct", 100.0 * ratio(busy, worker_wall));
    out.set("spe.worker_idle_pct", 100.0 * ratio(idle, worker_wall));
    out.set("spe.exchange_stall_pct", 100.0 * ratio(stall, worker_wall));
    out.set(
        "spe.queue_depth_p50",
        samples.histogram("operator_queue_depth").quantile(0.5) as f64,
    );
    out.set(
        "spe.batch_fill_mean",
        samples.histogram("exchange_batch_fill").mean(),
    );
    let skew = stateful
        .iter()
        .map(|name| {
            let per_partition: Vec<u64> = (0..PARALLELISM)
                .map(|p| {
                    samples.counter_where("operator_tuples_total", |l| {
                        l == format!("{{operator={name},partition={p}}}")
                    })
                })
                .collect();
            let mean = per_partition.iter().sum::<u64>() as f64 / PARALLELISM as f64;
            ratio(*per_partition.iter().max().unwrap_or(&0) as f64, mean)
        })
        .fold(0.0, f64::max);
    out.set("spe.partition_skew", skew);
    out.set(
        "spe.watermark_lag_ms_max",
        samples.gauge_max("operator_watermark_lag_ms") as f64,
    );
    // Busy time is everything a worker does between receives: engine
    // work, time blocked sending downstream, and time inside the store.
    out.set("spe.engine_self_s", busy - stall - store);
    // The ledger: engine self, store self, vfs, idle and stall partition
    // what the engine accounts as busy or idle, so the residual is the
    // part of the worker threads' lifetime it accounts for not at all
    // (thread start, store open and close, a stage that exits early).
    out.set(
        "ledger.residual_pct",
        100.0 * ratio((worker_wall - (busy + idle)).abs(), worker_wall),
    );

    // Shares of the program's own critical-path table. Its stages can
    // claim more than the end-to-end total (queue waits of consecutive
    // hops overlap), so shares are taken of the sum over all stages.
    let attribution = trace::attribution(&trace::flatten(&layers.tracer.snapshot()));
    let claimed: u64 = attribution.rows.iter().map(|r| r.total_nanos).sum();
    for row in &attribution.rows {
        if !matches!(row.stage.as_str(), "barrier" | "other") {
            out.set(
                &format!("spe.attr_{}_pct", row.stage),
                100.0 * ratio(row.total_nanos as f64, claimed as f64),
            );
        }
    }

    // core: every backend call, timed from outside, plus the store's own
    // write/read/compaction split (paper figs. 4 and 10).
    for op in OPS.iter().filter(|op| **op != "other") {
        let totals = layers.backend.op(op);
        out.set(&format!("core.{op}_calls"), totals.calls as f64);
        out.set(&format!("core.{op}_s"), secs(totals.nanos));
    }
    for op in ["take_values", "get_window_chunk", "take_aggregate"] {
        let p99 = layers.backend.op(op).hist.quantile(0.99);
        out.set(&format!("core.{op}_p99_us"), p99 as f64 / 1e3);
    }
    let stateful_busy = secs(samples.counter_where("operator_busy_nanos", is_stateful));
    out.set("core.store_busy_pct", 100.0 * ratio(store, stateful_busy));
    let m = &run.result.store_metrics;
    out.set("core.write_s", secs(m.write_nanos));
    out.set("core.read_s", secs(m.read_nanos));
    out.set("core.compaction_s", secs(m.compaction_nanos));
    out.set("core.flushes", m.flushes as f64);
    out.set("core.compactions", m.compactions as f64);
    out.set(
        "core.prefetch_hit_ratio",
        m.prefetch_hit_ratio().unwrap_or(0.0),
    );
    out.set("core.prefetch_evictions", m.prefetch_evictions as f64);
    out.set(
        "core.write_amp",
        ratio(m.bytes_written as f64, input_bytes as f64),
    );
    let ett = samples.histogram("store_ett_abs_error_ms");
    out.set("core.ett_abs_err_ms_p50", ett.quantile(0.5) as f64);
    out.set("core.ett_abs_err_ms_p99", ett.quantile(0.99) as f64);
    out.set(
        "core.ett_unsafe_total",
        samples.counter("store_ett_unsafe_predictions_total") as f64,
    );

    let cold_written = samples.counter("tier_cold_bytes_written_total") as f64;
    out.set(
        "core.tier_demoted_rows",
        samples.counter("tier_demoted_rows_total") as f64,
    );
    out.set(
        "core.tier_promotions",
        samples.counter("tier_promotions_total") as f64,
    );
    out.set(
        "core.tier_compactions",
        samples.counter("tier_compactions_total") as f64,
    );
    out.set("core.tier_cold_bytes_written", cold_written);
    out.set(
        "core.tier_compression_ratio",
        ratio(
            samples.counter("tier_uncompressed_bytes_total") as f64,
            cold_written,
        ),
    );
    out.set(
        "core.tier_prefetch_hit_ratio",
        ratio(
            samples.counter("tier_prefetch_hits_total") as f64,
            samples.counter("tier_prefetch_submitted_total") as f64,
        ),
    );

    // vfs: every file call, worker threads and ring threads together.
    let (worker, ring) = (&layers.vfs.worker, &layers.vfs.ring);
    let (write_calls, write_bytes, write_s) = both(|s| &s.write, worker, ring);
    let (read_calls, read_bytes, read_s) = both(|s| &s.read, worker, ring);
    let (sync_calls, _, sync_s) = both(|s| &s.sync, worker, ring);
    let (open_calls, _, _) = both(|s| &s.open, worker, ring);
    out.set("vfs.write_calls", write_calls as f64);
    out.set("vfs.write_bytes", write_bytes as f64);
    out.set("vfs.write_s", write_s);
    out.set("vfs.read_calls", read_calls as f64);
    out.set("vfs.read_bytes", read_bytes as f64);
    out.set("vfs.read_s", read_s);
    out.set("vfs.worker_read_calls", worker.read.calls() as f64);
    out.set("vfs.worker_read_s", worker.read.secs());
    out.set("vfs.sync_calls", sync_calls as f64);
    out.set("vfs.sync_s", sync_s);
    out.set("vfs.open_calls", open_calls as f64);
    out.set(
        "vfs.bytes_per_write",
        ratio(write_bytes as f64, write_calls as f64),
    );
    out.set("vfs.read_amp", ratio(read_bytes as f64, input_bytes as f64));

    // ioring: the prefetch scorecard — accuracy is the hit ratio,
    // timeliness is `late`.
    let issued = samples.counter("prefetch_issued_total") as f64;
    let hits = samples.counter("prefetch_hits_total") as f64;
    out.set("ioring.issued", issued);
    out.set("ioring.hits", hits);
    out.set("ioring.late", samples.counter("prefetch_late_total") as f64);
    out.set(
        "ioring.wasted_bytes",
        samples.counter("prefetch_wasted_bytes") as f64,
    );
    out.set("ioring.hit_ratio", ratio(hits, issued));
    let delay = samples.histogram("prefetch_queue_delay_nanos");
    out.set(
        "ioring.queue_delay_us_p50",
        delay.quantile(0.5) as f64 / 1e3,
    );
    out.set(
        "ioring.queue_delay_us_p99",
        delay.quantile(0.99) as f64 / 1e3,
    );
    out.set("ioring.offthread_read_s", ring.read.secs());
}

/// Runs `body` repeatedly for about `budget`, returning units of work
/// per second given `units` per call; the first failing call ends it.
fn rate_of(
    budget: Duration,
    units: f64,
    mut body: impl FnMut() -> flowkv_common::error::Result<()>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        body().map_err(|e| e.to_string())?;
        calls += 1;
    }
    Ok(calls as f64 * units / start.elapsed().as_secs_f64())
}

/// The isolated micro cells: public functions of the file, columnar and
/// checksum layers timed directly, `budget` each.
pub fn micro_cells(out: &mut LayerValues, scratch: &Path, budget: Duration) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let vfs = StdVfs::shared();
    let path = scratch.join("micro.log");
    const RECORDS: usize = 20_000;
    let payload = [0x5au8; 96];
    let log_mb = (RECORDS * payload.len()) as f64 / 1e6;

    let mut locations = Vec::with_capacity(RECORDS);
    let append = rate_of(budget, log_mb, || {
        locations.clear();
        let mut log = LogWriter::create_in(&vfs, &path)?;
        for _ in 0..RECORDS {
            locations.push(log.append(black_box(&payload))?);
        }
        log.flush()
    })?;
    out.set("logfile.append_mb_per_s", append);

    let scan = rate_of(budget, log_mb, || {
        let mut reader = LogReader::open_in(&vfs, &path)?;
        while let Some(record) = reader.next_record()? {
            black_box(record);
        }
        Ok(())
    })?;
    out.set("logfile.scan_mb_per_s", scan);

    let mut log = RandomAccessLog::open_in(&vfs, &path).map_err(|e| e.to_string())?;
    let mut cursor = 0usize;
    let random = rate_of(budget, 1.0, || {
        cursor = (cursor + 7_919) % locations.len();
        black_box(log.read_record_at(locations[cursor].offset)?);
        Ok(())
    })?;
    out.set("logfile.random_read_per_s", random);
    let _ = std::fs::remove_file(&path);

    let window = WindowId::new(0, 15_000);
    let rows: Vec<ColdRow> = (0..4_096u64)
        .map(|i| ColdRow {
            key: (i % 512).to_le_bytes().to_vec(),
            ts: (i * 3) as i64,
            value: (i % 97).to_le_bytes().to_vec(),
        })
        .collect();
    let mut block = Vec::new();
    let encode = rate_of(budget, rows.len() as f64, || {
        block = encode_block(window, BlockKind::Values, black_box(&rows), true);
        Ok(())
    })?;
    out.set("columnar.encode_rows_per_s", encode);
    let decode = rate_of(budget, rows.len() as f64, || {
        black_box(decode_block(black_box(&block))?);
        Ok(())
    })?;
    out.set("columnar.decode_rows_per_s", decode);

    let buf = vec![0xa7u8; 1 << 20];
    let crc = rate_of(budget, buf.len() as f64 / 1e9, || {
        black_box(crc32(black_box(&buf)));
        Ok(())
    })?;
    out.set("codec.crc32_gb_per_s", crc);
    Ok(())
}
