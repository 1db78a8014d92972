//! The metric tables: every name the benchmark prints, with its unit,
//! its direction, and (end to end) its regression bound. `BENCHMARK.json`
//! is generated from these tables by `perf manifest`.

use std::collections::BTreeMap;

use crate::timed::OPS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload on an untraced run.
pub const END_TO_END: [EndToEnd; 2] = [
    // Input materialisation + in-memory reference run (+ server start),
    // median of three set-ups.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // `JobResult.input_count / JobResult.elapsed` of the unpaced job at
    // the workload's frozen input size, median over the repeats.
    EndToEnd {
        name: "tuples_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

const FIXED_PER_LAYER: [(&str, &str, &str); 87] = [
    ("nexmark.gen_tuples_per_s", "1/s", "higher"),
    ("spe.worker_busy_pct", "%", "lower"),
    ("spe.worker_idle_pct", "%", "higher"),
    ("spe.exchange_stall_pct", "%", "lower"),
    ("spe.queue_depth_p50", "count", "lower"),
    ("spe.batch_fill_mean", "count", "higher"),
    ("spe.partition_skew", "ratio", "lower"),
    ("spe.watermark_lag_ms_max", "ms", "lower"),
    ("spe.engine_self_s", "s", "lower"),
    ("spe.ceiling_tuples_per_s", "1/s", "higher"),
    ("spe.attr_queue_pct", "%", "lower"),
    ("spe.attr_exchange_pct", "%", "lower"),
    ("spe.attr_compute_pct", "%", "lower"),
    ("spe.attr_store_pct", "%", "lower"),
    ("spe.attr_prefetch_stall_pct", "%", "lower"),
    ("core.take_values_p99_us", "us", "lower"),
    ("core.get_window_chunk_p99_us", "us", "lower"),
    ("core.take_aggregate_p99_us", "us", "lower"),
    ("core.store_busy_pct", "%", "lower"),
    ("core.write_s", "s", "lower"),
    ("core.read_s", "s", "lower"),
    ("core.compaction_s", "s", "lower"),
    ("core.flushes", "count", "lower"),
    ("core.compactions", "count", "lower"),
    ("core.prefetch_hit_ratio", "ratio", "higher"),
    ("core.prefetch_evictions", "count", "lower"),
    ("core.ett_abs_err_ms_p50", "ms", "lower"),
    ("core.ett_abs_err_ms_p99", "ms", "lower"),
    ("core.ett_unsafe_total", "count", "lower"),
    ("core.state_mem_peak_mb", "MiB", "lower"),
    ("core.write_amp", "ratio", "lower"),
    ("core.tier_demoted_rows", "count", "lower"),
    ("core.tier_promotions", "count", "lower"),
    ("core.tier_compactions", "count", "lower"),
    ("core.tier_cold_bytes_written", "B", "lower"),
    ("core.tier_compression_ratio", "ratio", "higher"),
    ("core.tier_prefetch_hit_ratio", "ratio", "higher"),
    ("vfs.write_calls", "count", "lower"),
    ("vfs.write_bytes", "B", "lower"),
    ("vfs.write_s", "s", "lower"),
    ("vfs.read_calls", "count", "lower"),
    ("vfs.read_bytes", "B", "lower"),
    ("vfs.read_s", "s", "lower"),
    ("vfs.worker_read_calls", "count", "lower"),
    ("vfs.worker_read_s", "s", "lower"),
    ("vfs.sync_calls", "count", "lower"),
    ("vfs.sync_s", "s", "lower"),
    ("vfs.open_calls", "count", "lower"),
    ("vfs.bytes_per_write", "B", "higher"),
    ("vfs.read_amp", "ratio", "lower"),
    ("ioring.issued", "count", "lower"),
    ("ioring.hits", "count", "higher"),
    ("ioring.late", "count", "lower"),
    ("ioring.wasted_bytes", "B", "lower"),
    ("ioring.hit_ratio", "ratio", "higher"),
    ("ioring.queue_delay_us_p50", "us", "lower"),
    ("ioring.queue_delay_us_p99", "us", "lower"),
    ("ioring.offthread_read_s", "s", "higher"),
    ("logfile.append_mb_per_s", "MB/s", "higher"),
    ("logfile.scan_mb_per_s", "MB/s", "higher"),
    ("logfile.random_read_per_s", "1/s", "higher"),
    ("columnar.encode_rows_per_s", "1/s", "higher"),
    ("columnar.decode_rows_per_s", "1/s", "higher"),
    ("codec.crc32_gb_per_s", "GB/s", "higher"),
    ("serve.requests_total", "count", "higher"),
    ("serve.errors_total", "count", "lower"),
    ("serve.pipeline_depth_p50", "count", "higher"),
    ("serve.bytes_in", "B", "lower"),
    ("serve.bytes_out", "B", "lower"),
    ("serve.point_p50_us", "us", "lower"),
    ("serve.lookup_many_p50_us", "us", "lower"),
    ("serve.scan_filtered_p50_us", "us", "lower"),
    ("serve.connect_ms", "ms", "lower"),
    ("serve.lookups_per_s", "1/s", "higher"),
    ("serve.batch_p50_us", "us", "lower"),
    ("serve.batch_p99_us", "us", "lower"),
    ("ref.lsm_tuples_per_s", "1/s", "higher"),
    ("ref.flowkv_vs_lsm", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("ledger.residual_pct", "%", "lower"),
    // Demoted from end to end: too noisy on the reference box to carry
    // a bound, or zero on some workload (see perf/README.md).
    ("diag.latency_p50_ms", "ms", "lower"),
    ("diag.latency_p99_ms", "ms", "lower"),
    ("diag.latency_samples", "count", "higher"),
    ("diag.rate_achieved_pct", "%", "higher"),
    ("diag.source_late_ms_max", "ms", "lower"),
    ("diag.cpu_us_per_tuple", "us", "lower"),
    ("diag.failed_pct", "%", "lower"),
];

/// Reported by every workload on a traced run, zero where the layer does
/// no work. `core.<op>_calls` / `core.<op>_s` exist for each named
/// backend operation.
pub fn per_layer() -> Vec<PerLayer> {
    let mut all: Vec<PerLayer> = FIXED_PER_LAYER
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for op in OPS.iter().filter(|op| **op != "other") {
        all.push(PerLayer {
            name: format!("core.{op}_calls"),
            unit: "count",
            better: "lower",
        });
        all.push(PerLayer {
            name: format!("core.{op}_s"),
            unit: "s",
            better: "lower",
        });
    }
    all
}

/// Values of a traced run, checked against the table as they are set.
pub struct LayerValues {
    known: Vec<PerLayer>,
    values: BTreeMap<String, f64>,
}

impl LayerValues {
    pub fn new() -> Self {
        LayerValues {
            known: per_layer(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.known.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        // A ratio over a zero count is "no work", reported as zero.
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), value);
    }

    /// Every per-layer metric in table order with its unit; unset ones
    /// read zero (their layer did no work on this workload).
    pub fn into_rows(self) -> Vec<(String, f64, &'static str)> {
        self.known
            .into_iter()
            .map(|m| {
                let value = self.values.get(&m.name).copied().unwrap_or(0.0);
                (m.name, value, m.unit)
            })
            .collect()
    }
}
