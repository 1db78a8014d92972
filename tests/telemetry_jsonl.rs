//! Schema and semantics checks of the JSONL telemetry stream.
//!
//! Runs real NEXMark jobs with `RunOptions::telemetry_out` set and
//! validates the file the writer thread produced: every line passes the
//! checked-in schema validator, snapshot sequence numbers and operator
//! watermarks advance monotonically, stall counters never regress, and
//! the Q11-Median (AUR session windows) flight record carries `"ett"`
//! events from which prefetch trigger-time error is computable.

use std::sync::Arc;
use std::time::Duration;

use flowkv::{FlowKvConfig, FlowKvFactory};
use flowkv_common::registry::StateRegistry;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{parse_json, validate_jsonl_line, Json};
use flowkv_common::vfs::StdVfs;
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::{run_job, RunOptions};

fn generator(events: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_events: events,
        seed: 11,
        first_ts: 0,
        events_per_second: 10_000,
        active_people: 400,
        active_auctions: 400,
        hot_ratio: 0.1,
        out_of_order_ms: 0,
    }
}

/// Runs `query` with the JSONL writer attached and returns the parsed,
/// schema-validated lines. `io_threads > 0` turns on the background I/O
/// ring (asynchronous prefetch); a `registry` makes the workers publish
/// queryable-state views into it.
fn run_with_jsonl(
    query: QueryId,
    events: u64,
    scratch: &str,
    io_threads: usize,
    registry: Option<Arc<StateRegistry>>,
) -> Vec<Json> {
    let dir = ScratchDir::new(scratch).unwrap();
    let out_path = dir.path().join("telemetry.jsonl");
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));
    let mut opts = RunOptions::new(dir.path());
    opts.watermark_interval = 100;
    opts.record_latency = true;
    opts.telemetry_out = Some(out_path.clone());
    opts.telemetry_interval = Duration::from_millis(25);
    opts.io_threads = io_threads;
    opts.registry = registry;
    let factory = Arc::new(FlowKvFactory::new(
        FlowKvConfig::small_for_tests(),
        StdVfs::shared(),
    ));
    run_job(
        &job,
        EventGenerator::new(generator(events)).tuples(),
        factory,
        &opts,
    )
    .expect("job run failed");

    let text = std::fs::read_to_string(&out_path).expect("telemetry file missing");
    assert!(!text.is_empty(), "telemetry file is empty");
    text.lines()
        .map(|line| {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("bad line: {e}\n{line}"));
            parse_json(line).expect("validated line failed to parse")
        })
        .collect()
}

/// Extracts `metrics` entries of one kind whose name starts with `prefix`,
/// as `(name, value)` pairs, from a snapshot line.
fn metric_values<'a>(snapshot: &'a Json, prefix: &str, kind: &str) -> Vec<(&'a str, i64)> {
    let metrics = snapshot
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("snapshot without metrics object");
    metrics
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .filter(|(_, v)| v.get("kind").and_then(Json::as_str) == Some(kind))
        .map(|(name, v)| {
            let value = v
                .get("value")
                .and_then(Json::as_i64)
                .expect("metric without integer value");
            (name.as_str(), value)
        })
        .collect()
}

#[test]
fn q7_jsonl_stream_is_well_formed_and_monotone() {
    let lines = run_with_jsonl(QueryId::Q7, 60_000, "telemetry-q7", 0, None);
    let snapshots: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("type").and_then(Json::as_str) == Some("snapshot"))
        .collect();
    assert!(
        snapshots.len() >= 2,
        "expected multiple snapshots, got {}",
        snapshots.len()
    );

    // Snapshot sequence numbers strictly increase.
    let seqs: Vec<i64> = snapshots
        .iter()
        .map(|s| s.get("seq").and_then(Json::as_i64).expect("missing seq"))
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[1] > w[0]),
        "snapshot seq not strictly increasing: {seqs:?}"
    );

    // Per-operator watermarks advance monotonically across snapshots,
    // and the lag gauge derived from them never goes negative.
    let mut last_watermark: std::collections::HashMap<String, i64> = Default::default();
    for snap in &snapshots {
        for (name, value) in metric_values(snap, "operator_watermark", "gauge") {
            if name.contains("watermark_lag") {
                assert!(value >= 0, "negative watermark lag in {name}: {value}");
                continue;
            }
            let prev = last_watermark.insert(name.to_string(), value);
            if let Some(prev) = prev {
                assert!(
                    value >= prev,
                    "watermark regressed in {name}: {prev} -> {value}"
                );
            }
        }
    }
    assert!(
        last_watermark.values().any(|&w| w > 0),
        "no operator watermark ever advanced"
    );

    // Backpressure-stall counters are non-negative and never regress.
    let mut last_stall: std::collections::HashMap<String, i64> = Default::default();
    let mut saw_stall_metric = false;
    for snap in &snapshots {
        for (name, value) in metric_values(snap, "exchange_stall_nanos", "counter") {
            saw_stall_metric = true;
            assert!(value >= 0, "negative stall counter in {name}: {value}");
            let prev = last_stall.insert(name.to_string(), value);
            if let Some(prev) = prev {
                assert!(
                    value >= prev,
                    "stall counter regressed in {name}: {prev} -> {value}"
                );
            }
        }
    }
    assert!(saw_stall_metric, "no exchange_stall_nanos counter emitted");

    // The executor's core per-operator instruments are all present in
    // the final snapshot.
    let terminal = snapshots.last().unwrap();
    for prefix in [
        "operator_busy_nanos",
        "operator_idle_nanos",
        "operator_tuples_total",
        "operator_queue_depth",
        "exchange_batch_fill",
        "sink_latency_nanos",
        "source_tuples_total",
    ] {
        let metrics = terminal.get("metrics").and_then(Json::as_obj).unwrap();
        assert!(
            metrics.iter().any(|(name, _)| name.starts_with(prefix)),
            "terminal snapshot missing {prefix}"
        );
    }
    // Nothing was published, so nothing reports a cost of publishing.
    assert!(metric_values(terminal, "view_publish_", "counter").is_empty());
}

#[test]
fn publication_cost_is_reported_per_partition() {
    let registry = StateRegistry::new_shared();
    let lines = run_with_jsonl(
        QueryId::Q12,
        60_000,
        "telemetry-publish",
        0,
        Some(Arc::clone(&registry)),
    );
    let terminal = lines
        .iter()
        .rfind(|l| l.get("type").and_then(Json::as_str) == Some("snapshot"))
        .expect("run produced no snapshots");
    // Entries materialised and time spent, for each of the stage's two
    // partitions: what publishing costs is readable from the file alone.
    for prefix in ["view_publish_entries_total", "view_publish_nanos"] {
        let values = metric_values(terminal, prefix, "counter");
        for partition in 0..2 {
            let name = format!("{prefix}{{operator=count-global,partition={partition}}}");
            let value = values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            assert!(
                value.is_some_and(|v| v > 0),
                "terminal snapshot: {name} = {value:?}"
            );
        }
    }
    // Publishing follows what changed: a watermark every 100 tuples
    // over two partitions changes at most 50 pairs per epoch, and the
    // merges and folds on top stay within a small multiple of that —
    // a rebuild per epoch would materialise every live bidder (a few
    // hundred per partition) 1200 times.
    let epochs: u64 = registry.list().iter().map(|s| s.epoch).sum();
    let entries: i64 = metric_values(terminal, "view_publish_entries_total", "counter")
        .iter()
        .map(|(_, v)| *v)
        .sum();
    assert!(epochs > 500, "only {epochs} epochs published");
    assert!(
        entries < 2 * 60_000,
        "{entries} entries materialised to publish {epochs} epochs of a 60k-tuple run"
    );
}

#[test]
fn prefetch_families_report_ring_accuracy() {
    let lines = run_with_jsonl(QueryId::Q11Median, 60_000, "telemetry-prefetch", 2, None);
    let terminal = lines
        .iter()
        .rfind(|l| l.get("type").and_then(Json::as_str) == Some("snapshot"))
        .expect("run produced no snapshots");

    // Every counter of the prefetch-accuracy family is present with the
    // right kind, and all values are sane.
    let mut totals: std::collections::HashMap<&str, i64> = Default::default();
    for prefix in [
        "prefetch_issued_total",
        "prefetch_hits_total",
        "prefetch_late_total",
        "prefetch_wasted_bytes",
    ] {
        let values = metric_values(terminal, prefix, "counter");
        assert!(!values.is_empty(), "terminal snapshot missing {prefix}");
        for (name, value) in values {
            assert!(value >= 0, "negative prefetch counter {name}: {value}");
            *totals.entry(prefix).or_default() += value;
        }
    }

    // The ring had work to do on this AUR query, and a prefetch can only
    // be served after it was issued.
    assert!(totals["prefetch_issued_total"] > 0, "ring issued nothing");
    assert!(
        totals["prefetch_issued_total"] >= totals["prefetch_hits_total"],
        "more hits than issues: {totals:?}"
    );

    // Timeliness is a histogram: no scalar value, but count/sum fields.
    let metrics = terminal.get("metrics").and_then(Json::as_obj).unwrap();
    let timeliness: Vec<_> = metrics
        .iter()
        .filter(|(name, _)| name.starts_with("prefetch_timeliness_ms"))
        .collect();
    assert!(
        !timeliness.is_empty(),
        "terminal snapshot missing prefetch_timeliness_ms"
    );
    let mut observations = 0i64;
    for (name, v) in timeliness {
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some("histogram"),
            "{name} has wrong kind"
        );
        observations += v.get("count").and_then(Json::as_i64).expect("no count");
    }
    // Timeliness is recorded only on prefetch-served reads that carried
    // an ETT prediction, so observations never exceed hits.
    assert!(
        observations <= totals["prefetch_hits_total"],
        "more timeliness observations ({observations}) than hits ({totals:?})"
    );
}

#[test]
fn q11_median_flight_record_yields_ett_error() {
    let lines = run_with_jsonl(QueryId::Q11Median, 60_000, "telemetry-q11m", 0, None);
    let mut observations = 0u64;
    let mut abs_error_sum = 0i64;
    for line in &lines {
        if line.get("type").and_then(Json::as_str) != Some("event") {
            continue;
        }
        if line.get("kind").and_then(Json::as_str) != Some("ett") {
            continue;
        }
        let fields = line.get("fields").expect("ett event without fields");
        let predicted = fields.get("predicted").and_then(Json::as_i64).unwrap();
        let actual = fields.get("actual").and_then(Json::as_i64).unwrap();
        let error = fields.get("error").and_then(Json::as_i64).unwrap();
        // The recorded error is exactly the predicted-vs-actual delta,
        // so prefetch accuracy is computable from the flight record
        // alone.
        assert_eq!(error, actual - predicted, "inconsistent ett event");
        observations += 1;
        abs_error_sum += error.abs();
    }
    assert!(
        observations > 0,
        "AUR run produced no ett flight-recorder events"
    );
    // Mean absolute trigger-time error in event-time ms: finite and
    // bounded by the stream's horizon, or the record is garbage.
    let mean_abs_error = abs_error_sum as f64 / observations as f64;
    assert!(
        (0.0..=60_000.0).contains(&mean_abs_error),
        "implausible mean ETT error: {mean_abs_error}"
    );
}
