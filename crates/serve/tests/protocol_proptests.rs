//! Property tests of the wire protocol: every request and response frame
//! round-trips byte-exactly under its request id, and malformed frames
//! and bodies (truncation, strict prefixes, oversized or zero lengths,
//! trailing garbage) are rejected rather than misparsed.

use flowkv_common::codec::put_u32;
use flowkv_common::registry::{StateKey, StatePattern, ViewValue};
use flowkv_common::telemetry::{HistogramSnapshot, MetricSample, SampleValue};
use flowkv_common::types::WindowId;
use flowkv_serve::protocol::{
    peek_frame, read_frame, split_request_id, write_frame, Request, Response, ScanEntry,
    ScanFilter, StateInfo, MAX_FRAME,
};
use proptest::prelude::*;
use proptest::strategy::Union;

fn name_strategy() -> impl Strategy<Value = String> {
    (any::<u64>(), 0u64..4).prop_map(|(v, style)| match style {
        0 => format!("job-{v}"),
        1 => String::new(),
        2 => format!("op/{v}/π"), // non-ASCII survives UTF-8 framing
        _ => format!("{v:x}"),
    })
}

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..64)
}

fn window_strategy() -> impl Strategy<Value = WindowId> {
    any::<(i64, i64)>().prop_map(|(a, b)| WindowId {
        start: a.min(b),
        end: a.max(b),
    })
}

fn view_value_strategy() -> Union<ViewValue> {
    prop_oneof![
        bytes_strategy().prop_map(ViewValue::Aggregate),
        prop::collection::vec(bytes_strategy(), 0..8).prop_map(ViewValue::Values),
    ]
}

fn request_strategy() -> Union<Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::ListStates),
        (
            name_strategy(),
            name_strategy(),
            prop::collection::vec(bytes_strategy(), 0..8),
            prop_oneof![Just(None), window_strategy().prop_map(Some),],
        )
            .prop_map(|(job, operator, keys, window)| Request::LookupMany {
                job,
                operator,
                keys,
                window,
            }),
        (
            name_strategy(),
            name_strategy(),
            bytes_strategy(),
            any::<i64>(),
            any::<i64>(),
            any::<u64>(),
        )
            .prop_map(
                |(job, operator, key_prefix, a, b, limit)| Request::ScanFiltered {
                    job,
                    operator,
                    filter: ScanFilter {
                        key_prefix,
                        range_start: a.min(b),
                        range_end: a.max(b),
                        limit,
                    },
                }
            ),
        (
            name_strategy(),
            name_strategy(),
            bytes_strategy(),
            prop_oneof![Just(None), window_strategy().prop_map(Some),],
        )
            .prop_map(|(job, operator, key, window)| Request::Lookup {
                job,
                operator,
                key,
                window,
            }),
        (name_strategy(), name_strategy(), any::<bool>()).prop_map(
            |(job, operator, include_registry)| Request::Metrics {
                job,
                operator,
                include_registry,
            }
        ),
        Just(Request::Prometheus),
        any::<bool>().prop_map(|drain| Request::TraceSummary { drain }),
    ]
}

fn attr_row_strategy() -> impl Strategy<Value = flowkv_common::trace::AttributionRow> {
    (name_strategy(), prop::collection::vec(any::<u64>(), 5..6)).prop_map(|(stage, v)| {
        flowkv_common::trace::AttributionRow {
            stage,
            count: v[0],
            p50: v[1],
            p99: v[2],
            p999: v[3],
            total_nanos: v[4],
        }
    })
}

fn sample_strategy() -> impl Strategy<Value = MetricSample> {
    (
        name_strategy(),
        prop_oneof![
            any::<u64>().prop_map(SampleValue::Counter),
            any::<i64>().prop_map(SampleValue::Gauge),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                prop::collection::vec(any::<u64>(), 0..32),
            )
                .prop_map(|(count, sum, min, max, counts)| {
                    SampleValue::Histogram(HistogramSnapshot {
                        counts,
                        count,
                        sum,
                        min,
                        max,
                    })
                }),
        ],
    )
        .prop_map(|(name, value)| MetricSample { name, value })
}

fn state_info_strategy() -> impl Strategy<Value = StateInfo> {
    (
        (name_strategy(), name_strategy(), 0usize..64),
        0u64..4,
        any::<u64>(),
        any::<i64>(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    )
        .prop_map(
            |((job, operator, partition), pattern, epoch, watermark, ttl_ms)| StateInfo {
                key: StateKey::new(job, operator, partition),
                pattern: StatePattern::from_u8(pattern as u8),
                epoch,
                watermark,
                entries: epoch.wrapping_mul(31),
                ttl_ms,
            },
        )
}

fn scan_entry_strategy() -> impl Strategy<Value = ScanEntry> {
    (bytes_strategy(), window_strategy(), view_value_strategy())
        .prop_map(|(key, window, value)| ScanEntry { key, window, value })
}

fn metrics_strategy() -> impl Strategy<Value = flowkv_common::metrics::MetricsSnapshot> {
    prop::collection::vec(any::<u64>(), 12..13).prop_map(|v| {
        flowkv_common::metrics::MetricsSnapshot {
            write_nanos: v[0],
            read_nanos: v[1],
            compaction_nanos: v[2],
            bytes_written: v[3],
            bytes_read: v[4],
            records_written: v[5],
            records_read: v[6],
            prefetch_hits: v[7],
            prefetch_misses: v[8],
            prefetch_evictions: v[9],
            flushes: v[10],
            compactions: v[11],
        }
    })
}

fn response_strategy() -> Union<Response> {
    prop_oneof![
        Just(Response::Pong),
        prop::collection::vec(state_info_strategy(), 0..8).prop_map(Response::States),
        (
            any::<u64>(),
            any::<i64>(),
            prop::collection::vec(
                prop_oneof![
                    Just(None),
                    (window_strategy(), view_value_strategy()).prop_map(Some),
                ],
                0..8,
            ),
        )
            .prop_map(|(epoch, watermark, found)| Response::ValueBatch {
                epoch,
                watermark,
                found,
            }),
        (
            any::<u64>(),
            any::<i64>(),
            prop_oneof![
                Just(None),
                (window_strategy(), view_value_strategy()).prop_map(Some),
            ],
        )
            .prop_map(|(epoch, watermark, found)| Response::Value {
                epoch,
                watermark,
                found,
            }),
        (
            any::<u64>(),
            any::<i64>(),
            prop::collection::vec(scan_entry_strategy(), 0..8),
        )
            .prop_map(|(epoch, watermark, entries)| Response::ScanResult {
                epoch,
                watermark,
                entries,
            }),
        (
            0u64..4,
            any::<u64>(),
            any::<u64>(),
            any::<i64>(),
            metrics_strategy(),
            prop::collection::vec(sample_strategy(), 0..6),
        )
            .prop_map(
                |(pattern, partitions, entries, watermark, metrics, registry)| {
                    Response::MetricsReport {
                        pattern: StatePattern::from_u8(pattern as u8),
                        partitions,
                        entries,
                        watermark,
                        metrics,
                        registry,
                    }
                }
            ),
        name_strategy().prop_map(Response::PrometheusText),
        (
            any::<u64>(),
            prop::collection::vec(attr_row_strategy(), 0..8),
            attr_row_strategy(),
        )
            .prop_map(|(traces, rows, total)| Response::TraceSummaryReport {
                traces,
                rows,
                total,
            }),
        (0u64..3, name_strategy()).prop_map(|(code, message)| Response::Error {
            code: match code {
                0 => flowkv_serve::ErrorCode::BadRequest,
                1 => flowkv_serve::ErrorCode::UnknownState,
                _ => flowkv_serve::ErrorCode::Internal,
            },
            message,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let payload = req.encode();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let payload = resp.encode();
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn framed_roundtrip_through_a_stream(
        reqs in prop::collection::vec(request_strategy(), 1..10),
    ) {
        let mut wire = Vec::new();
        for (id, r) in reqs.iter().enumerate() {
            write_frame(&mut wire, id as u64, &r.encode()).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for (id, r) in reqs.iter().enumerate() {
            let payload = read_frame(&mut cursor).unwrap().expect("frame present");
            let (got_id, body) = split_request_id(&payload).unwrap();
            prop_assert_eq!(got_id, id as u64);
            prop_assert_eq!(&Request::decode(body).unwrap(), r);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_never_parse(
        req in request_strategy(),
        id in any::<u64>(),
        cut_sel in any::<prop::sample::Index>(),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, id, &req.encode()).unwrap();
        // Cut strictly inside the frame: decoding must error, not hang or
        // return a bogus frame.
        let cut = 1 + cut_sel.index(wire.len() - 1);
        let mut cursor = std::io::Cursor::new(&wire[..cut]);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected(req in request_strategy(), junk in any::<u8>()) {
        let mut payload = req.encode();
        payload.push(junk);
        prop_assert!(Request::decode(&payload).is_err());
    }

    /// Every field of every body is required: no strict prefix of an
    /// encoded request or response decodes — not even one that stops
    /// just before a trailing flag or an empty list.
    #[test]
    fn strict_prefixes_of_every_body_fail_to_decode(
        req in request_strategy(),
        resp in response_strategy(),
    ) {
        let body = req.encode();
        for cut in 0..body.len() {
            prop_assert!(Request::decode(&body[..cut]).is_err(), "{:?} cut at {}", req, cut);
        }
        let body = resp.encode();
        for cut in 0..body.len() {
            prop_assert!(Response::decode(&body[..cut]).is_err(), "{:?} cut at {}", resp, cut);
        }
    }

    #[test]
    fn corrupt_response_payloads_do_not_panic(
        resp in response_strategy(),
        idx in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut payload = resp.encode();
        let i = idx.index(payload.len());
        payload[i] ^= flip;
        // Any outcome but a panic is acceptable: either the mutation is
        // caught, or it decodes to a (different or equal-by-luck) value.
        let _ = Response::decode(&payload);
    }

    #[test]
    fn oversized_lengths_are_rejected(extra in 1u64..=u32::MAX as u64 - MAX_FRAME as u64) {
        let mut wire = Vec::new();
        put_u32(&mut wire, (MAX_FRAME as u64 + extra) as u32);
        wire.extend_from_slice(&[0u8; 64]);
        prop_assert!(read_frame(&mut std::io::Cursor::new(wire)).is_err());
    }

    /// A pipelined burst of frames splits back into the same
    /// (id, request) sequence, in order — what the event loop's
    /// buffer-draining loop relies on.
    #[test]
    fn pipelined_v2_frames_preserve_ids_and_order(
        batch in prop::collection::vec((any::<u64>(), request_strategy()), 1..10),
    ) {
        let mut wire = Vec::new();
        for (id, req) in &batch {
            write_frame(&mut wire, *id, &req.encode()).unwrap();
        }
        let mut offset = 0usize;
        for (id, req) in &batch {
            let (consumed, range) = peek_frame(&wire[offset..]).unwrap().expect("frame");
            let (got_id, body) = split_request_id(&wire[offset..][range]).unwrap();
            prop_assert_eq!(got_id, *id);
            prop_assert_eq!(&Request::decode(body).unwrap(), req);
            offset += consumed;
        }
        prop_assert_eq!(offset, wire.len());
        prop_assert!(peek_frame(&wire[offset..]).unwrap().is_none());
    }
}
