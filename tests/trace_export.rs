//! Trace-export validation: a rescaled run's Chrome trace-event JSON is
//! schema-valid and carries the migration, span-ring wraparound
//! preserves recording order, and the Q11 attribution table reconciles
//! with the sink's end-to-end `LatencySummary`.

use std::collections::BTreeSet;
use std::sync::Arc;

use flowkv_common::scratch::ScratchDir;
use flowkv_common::trace::{self, SpanPhase, Tracer};
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, RunOptions};
use proptest::prelude::*;

const NUM_EVENTS: u64 = 8_000;
const WM_INTERVAL: usize = 100;

fn generator() -> EventGenerator {
    EventGenerator::new(GeneratorConfig {
        num_events: NUM_EVENTS,
        seed: 7,
        events_per_second: 5_000,
        active_people: 50,
        active_auctions: 80,
        ..GeneratorConfig::default()
    })
}

/// A Q7 run rescaled 2→4 must export one trace covering both phases and
/// the migration between them that passes full schema validation
/// (stack-disciplined begin/end per lane, monotone timestamps, every
/// parent resolving, no span left open — all checked by
/// `validate_chrome_trace`), with the migration's extract, inject and
/// commit spans in it.
#[test]
fn q7_rescale_trace_is_valid_and_carries_the_migration_spans() {
    let dir = ScratchDir::new("trace-q7-rescale").unwrap();
    let job = QueryId::Q7.build(QueryParams::new(1_000).with_parallelism(2));
    let backend = &BackendChoice::all_small_for_tests()[0];
    let path = dir.path().join("q7.trace.json");
    let mut opts = RunOptions::new(dir.path().join("run"));
    opts.watermark_interval = WM_INTERVAL;
    opts.collect_outputs = true;
    opts.rescale_to = Some(4);
    opts.checkpoint_after_tuples = Some(NUM_EVENTS / 2);
    opts.checkpoint_dir = Some(dir.path().join("ckpt"));
    opts.trace_out = Some(path.clone());
    let result = run_job(
        &job,
        generator().tuples(),
        backend.build(FactoryOptions::new()),
        &opts,
    )
    .expect("q7 rescaled run");
    assert!(!result.outputs.is_empty(), "q7 produced no output");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let stats = trace::validate_chrome_trace(&text).expect("schema-valid trace");
    assert!(stats.spans > 0, "no spans recorded");
    let events = trace::parse_chrome_trace(&text).unwrap();
    let names: BTreeSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for span in ["migrate_extract", "migrate_inject", "migrate_commit"] {
        assert!(names.contains(span), "no {span} span in {names:?}");
    }
    // The workers' own spans sit beside the migration's.
    assert!(names.contains("on_batch"), "no worker spans in {names:?}");
}

proptest! {
    /// Ring wraparound only ever evicts the oldest events: whatever the
    /// capacity and load, the ring holds exactly the most recent
    /// `min(recorded, capacity)` events in recording order, the shared
    /// dropped counter accounts for the rest, and the wrapped ring
    /// still exports as schema-valid Chrome JSON (unmatched halves of
    /// evicted spans are dropped on export, not emitted dangling).
    #[test]
    fn span_ring_wraparound_never_reorders(cap in 16u64..96, spans in 0u64..240) {
        let tracer = Tracer::with_capacity(cap as usize);
        let rec = tracer.thread("worker");
        // Each iteration records two events (begin + end), both tagged
        // with the iteration's sequence number.
        for i in 0..spans {
            let span = rec.begin_with("work", "compute", None, vec![("seq", i as i64)]);
            rec.end_with(span, "work", "compute", vec![("seq", i as i64)]);
        }
        let recorded = 2 * spans;
        // Capacity below 16 is clamped up to 16.
        let effective_cap = (cap as usize).max(16) as u64;
        let kept = recorded.min(effective_cap);

        let events = rec.snapshot();
        prop_assert_eq!(events.len() as u64, kept);
        prop_assert_eq!(tracer.dropped(), recorded - kept);
        // The survivors are exactly the tail of the recorded sequence:
        // B0 E0 B1 E1 ... — same order, nothing skipped.
        let got: Vec<(u64, bool)> = events
            .iter()
            .map(|e| {
                let seq = e.args.iter().find(|(k, _)| *k == "seq").unwrap().1 as u64;
                (seq, e.phase == SpanPhase::Begin)
            })
            .collect();
        let want: Vec<(u64, bool)> = (0..spans)
            .flat_map(|i| [(i, true), (i, false)])
            .skip((recorded - kept) as usize)
            .collect();
        prop_assert_eq!(got, want);
        prop_assert!(events.windows(2).all(|w| w[0].nanos <= w[1].nanos));

        let json = trace::chrome_trace_json(&tracer.snapshot());
        let stats = trace::validate_chrome_trace(&json);
        prop_assert!(stats.is_ok(), "wrapped ring export invalid: {:?}", stats);
    }
}

/// The attribution table must reconcile with the sink's latency
/// summary: restricted to traces the sink completed (whose `batch_done`
/// total measures source departure → sink arrival, the exact interval
/// `LatencySummary` samples), the per-stage rows decompose the
/// end-to-end total exactly, and the slowest trace agrees with the
/// summary's max within 5%.
#[test]
fn q11_attribution_reconciles_with_latency_summary() {
    let dir = ScratchDir::new("trace-q11-reconcile").unwrap();
    let job = QueryId::Q11.build(QueryParams::new(1_000).with_parallelism(2));
    let backend = &BackendChoice::all_small_for_tests()[0];
    let tracer = Tracer::new();
    let mut opts = RunOptions::new(dir.path().join("run"));
    opts.watermark_interval = WM_INTERVAL;
    opts.record_latency = true;
    opts.trace = Some(Arc::clone(&tracer));
    opts.trace_sample = 1;
    let result = run_job(
        &job,
        generator().tuples(),
        backend.build(FactoryOptions::new()),
        &opts,
    )
    .expect("q11 run");
    assert!(result.latency().count > 0, "no latency samples");

    let events = trace::flatten(&tracer.drain());
    let sink_traces: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "batch_done" && e.cat == "sink")
        .map(|e| e.trace)
        .collect();
    assert!(!sink_traces.is_empty(), "no sink-completed traces");
    let filtered: Vec<_> = events
        .iter()
        .filter(|e| sink_traces.contains(&e.trace))
        .cloned()
        .collect();
    let a = trace::attribution(&filtered);
    assert!(a.traces > 0, "attribution reconstructed no traces");

    // The stage rows decompose the end-to-end total exactly — `other`
    // is defined as the per-trace residual.
    let stage_sum: u64 = a.rows.iter().map(|r| r.total_nanos).sum();
    assert_eq!(
        stage_sum, a.total.total_nanos,
        "stage rows do not sum to the total"
    );

    // With fewer than 1000 traces the nearest-rank p999 is the max, and
    // the sink histogram tracks its max exactly — so the two ends of
    // the pipeline must agree on the slowest source→sink interval.
    assert!(
        a.traces <= 1000,
        "p999==max shortcut needs <=1000 traces, got {}",
        a.traces
    );
    let attr_max = a.total.p999 as f64;
    let lat_max = result.latency().max as f64;
    let rel = (attr_max - lat_max).abs() / lat_max.max(1.0);
    assert!(
        rel <= 0.05,
        "attribution max {:.3} ms vs latency max {:.3} ms: {:.1}% apart",
        attr_max / 1e6,
        lat_max / 1e6,
        rel * 100.0
    );
}
