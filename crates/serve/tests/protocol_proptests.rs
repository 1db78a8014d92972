//! Property tests of the wire protocol: every request and response frame
//! round-trips byte-exactly, malformed frames (truncation, oversized
//! or zero lengths, trailing garbage) are rejected rather than
//! misparsed, and the v2 framing provably wraps byte-identical v1
//! bodies — the compatibility contract behind the version handshake.

use flowkv_common::codec::put_u32;
use flowkv_common::registry::{StateKey, StatePattern, ViewValue};
use flowkv_common::telemetry::{HistogramSnapshot, MetricSample, SampleValue};
use flowkv_common::types::WindowId;
use flowkv_serve::protocol::{
    peek_frame, read_frame, split_request_id, write_frame, write_frame_v2, Request, Response,
    ScanEntry, ScanFilter, StateInfo, MAX_FRAME, MAX_PROTOCOL, PROTOCOL_V2,
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
        Just(Request::ListStatesV2),
        any::<u8>().prop_map(|max_version| Request::Hello { max_version }),
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
        (
            name_strategy(),
            name_strategy(),
            any::<i64>(),
            any::<i64>(),
            any::<u64>(),
        )
            .prop_map(
                |(job, operator, range_start, range_end, limit)| Request::Scan {
                    job,
                    operator,
                    range_start,
                    range_end,
                    limit,
                }
            ),
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
        any::<u8>().prop_map(|version| Response::HelloAck { version }),
        // The v1 listing never carries TTLs: the frame has no slot for
        // them, so a faithful roundtrip needs them cleared.
        prop::collection::vec(state_info_strategy(), 0..8).prop_map(|mut states| {
            for s in &mut states {
                s.ttl_ms = None;
            }
            Response::States(states)
        }),
        prop::collection::vec(state_info_strategy(), 0..8).prop_map(Response::StatesV2),
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
        for r in &reqs {
            write_frame(&mut wire, &r.encode()).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for r in &reqs {
            let payload = read_frame(&mut cursor).unwrap().expect("frame present");
            prop_assert_eq!(&Request::decode(&payload).unwrap(), r);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_never_parse(
        req in request_strategy(),
        cut_sel in any::<prop::sample::Index>(),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        // Cut strictly inside the frame: decoding must error, not hang or
        // return a bogus frame.
        let cut = 1 + cut_sel.index(wire.len() - 1);
        let mut cursor = std::io::Cursor::new(&wire[..cut]);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected(req in request_strategy(), junk in 1u8..=255) {
        let mut payload = req.encode();
        payload.push(junk);
        match (&req, junk) {
            // The one deliberate exception: a flag-less Metrics frame
            // followed by the single byte `1` IS the extended frame that
            // requests registry samples.
            (
                Request::Metrics {
                    job,
                    operator,
                    include_registry: false,
                },
                1,
            ) => {
                let decoded = Request::decode(&payload).unwrap();
                prop_assert_eq!(
                    decoded,
                    Request::Metrics {
                        job: job.clone(),
                        operator: operator.clone(),
                        include_registry: true,
                    }
                );
            }
            // Same pattern for TraceSummary: a flag-less frame plus the
            // byte `1` is the drain request.
            (Request::TraceSummary { drain: false }, 1) => {
                prop_assert_eq!(
                    Request::decode(&payload).unwrap(),
                    Request::TraceSummary { drain: true }
                );
            }
            _ => prop_assert!(Request::decode(&payload).is_err()),
        }
    }

    /// A bare TraceSummary opcode (what a minimal client sends) decodes
    /// as `drain: false`, the new encoder emits exactly that one-byte
    /// frame when the flag is off, and the drain frame is the same frame
    /// plus a single `1` byte.
    #[test]
    fn legacy_trace_summary_frames_interoperate(_seed in any::<u8>()) {
        let legacy = vec![0x07u8];
        let off = Request::TraceSummary { drain: false };
        prop_assert_eq!(&off.encode(), &legacy);
        prop_assert_eq!(Request::decode(&legacy).unwrap(), off);
        let on = Request::TraceSummary { drain: true };
        let mut extended = legacy;
        extended.push(1);
        prop_assert_eq!(&on.encode(), &extended);
        prop_assert_eq!(Request::decode(&extended).unwrap(), on);
    }

    /// A pre-telemetry client's Metrics frame (opcode + the two names,
    /// no flag byte) still decodes, as `include_registry: false` — and
    /// the new encoder emits exactly that legacy frame when the flag is
    /// off, so old servers keep answering new clients.
    #[test]
    fn legacy_metrics_request_frames_interoperate(
        job in name_strategy(),
        operator in name_strategy(),
    ) {
        let mut legacy = vec![0x05u8];
        flowkv_common::codec::put_len_prefixed(&mut legacy, job.as_bytes());
        flowkv_common::codec::put_len_prefixed(&mut legacy, operator.as_bytes());
        let off = Request::Metrics {
            job: job.clone(),
            operator: operator.clone(),
            include_registry: false,
        };
        prop_assert_eq!(&off.encode(), &legacy);
        prop_assert_eq!(Request::decode(&legacy).unwrap(), off);
        let on = Request::Metrics {
            job,
            operator,
            include_registry: true,
        };
        let mut extended = legacy;
        extended.push(1);
        prop_assert_eq!(&on.encode(), &extended);
        prop_assert_eq!(Request::decode(&extended).unwrap(), on);
    }

    /// The registry samples ride as a pure suffix on the MetricsReport
    /// frame: the extended frame starts with the byte-identical legacy
    /// frame, and that legacy prefix alone still decodes (what an old
    /// client effectively sees when the registry is empty).
    #[test]
    fn metrics_report_registry_suffix_is_optional(
        partitions in any::<u64>(),
        entries in any::<u64>(),
        watermark in any::<i64>(),
        metrics in metrics_strategy(),
        registry in prop::collection::vec(sample_strategy(), 1..6),
    ) {
        let make = |registry: Vec<MetricSample>| Response::MetricsReport {
            pattern: StatePattern::from_u8(1),
            partitions,
            entries,
            watermark,
            metrics,
            registry,
        };
        let legacy = make(Vec::new()).encode();
        let full = make(registry.clone()).encode();
        prop_assert!(full.len() > legacy.len());
        prop_assert_eq!(&full[..legacy.len()], &legacy[..]);
        match Response::decode(&legacy).unwrap() {
            Response::MetricsReport { registry, .. } => prop_assert!(registry.is_empty()),
            other => prop_assert!(false, "unexpected: {:?}", other),
        }
        match Response::decode(&full).unwrap() {
            Response::MetricsReport { registry: got, .. } => prop_assert_eq!(got, registry),
            other => prop_assert!(false, "unexpected: {:?}", other),
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

    /// The v2 handshake changes framing, never bodies: any v1 request
    /// wrapped in a v2 frame carries the byte-identical v1 payload after
    /// the request id, and decodes to the same value. This is the
    /// compatibility contract that lets one `Session` serve both
    /// versions from the same decoder.
    #[test]
    fn v1_request_bodies_decode_identically_after_handshake(
        req in request_strategy(),
        id in any::<u64>(),
    ) {
        let v1_payload = req.encode();
        let mut wire = Vec::new();
        write_frame_v2(&mut wire, id, &v1_payload).unwrap();
        let (consumed, range) = peek_frame(&wire).unwrap().expect("complete frame");
        prop_assert_eq!(consumed, wire.len());
        let (got_id, body) = split_request_id(&wire[range]).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(body, &v1_payload[..]);
        prop_assert_eq!(&Request::decode(body).unwrap(), &req);
    }

    /// Same contract on the response path: the id-prefixed v2 frame
    /// wraps the byte-identical v1 response payload.
    #[test]
    fn v1_response_bodies_decode_identically_after_handshake(
        resp in response_strategy(),
        id in any::<u64>(),
    ) {
        let v1_payload = resp.encode();
        let mut wire = Vec::new();
        write_frame_v2(&mut wire, id, &v1_payload).unwrap();
        let (_, range) = peek_frame(&wire).unwrap().expect("complete frame");
        let (got_id, body) = split_request_id(&wire[range]).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(body, &v1_payload[..]);
        prop_assert_eq!(&Response::decode(body).unwrap(), &resp);
    }

    /// A pipelined burst of v2 frames splits back into the same
    /// (id, request) sequence, in order — what the event loop's
    /// buffer-draining loop relies on.
    #[test]
    fn pipelined_v2_frames_preserve_ids_and_order(
        batch in prop::collection::vec((any::<u64>(), request_strategy()), 1..10),
    ) {
        let mut wire = Vec::new();
        for (id, req) in &batch {
            write_frame_v2(&mut wire, *id, &req.encode()).unwrap();
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

    /// Handshake frames always travel in v1 framing (they are what
    /// *establishes* v2), so they must roundtrip through the v1
    /// stream reader like any legacy frame.
    #[test]
    fn handshake_frames_travel_in_v1_framing(version in any::<u8>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Hello { max_version: MAX_PROTOCOL }.encode()).unwrap();
        write_frame(&mut wire, &Response::HelloAck { version }.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let hello = read_frame(&mut cursor).unwrap().expect("hello frame");
        prop_assert_eq!(
            Request::decode(&hello).unwrap(),
            Request::Hello { max_version: MAX_PROTOCOL }
        );
        let ack = read_frame(&mut cursor).unwrap().expect("ack frame");
        prop_assert_eq!(Response::decode(&ack).unwrap(), Response::HelloAck { version });
        let _ = PROTOCOL_V2;
    }

    /// The v1 listing silently drops TTL metadata: rows with TTLs encode
    /// byte-identically to rows without, and decode with `ttl_ms: None` —
    /// while the v2 listing roundtrips them faithfully. An old client
    /// asking `ListStates` therefore sees exactly the pre-TTL frame.
    #[test]
    fn v1_listing_drops_ttl_v2_listing_keeps_it(
        states in prop::collection::vec(state_info_strategy(), 0..8),
    ) {
        let mut cleared = states.clone();
        for s in &mut cleared {
            s.ttl_ms = None;
        }
        let with_ttl = Response::States(states.clone()).encode();
        let without = Response::States(cleared.clone()).encode();
        prop_assert_eq!(&with_ttl, &without);
        match Response::decode(&with_ttl).unwrap() {
            Response::States(got) => prop_assert_eq!(got, cleared),
            other => prop_assert!(false, "unexpected: {:?}", other),
        }
        let v2 = Response::StatesV2(states.clone()).encode();
        match Response::decode(&v2).unwrap() {
            Response::StatesV2(got) => prop_assert_eq!(got, states),
            other => prop_assert!(false, "unexpected: {:?}", other),
        }
    }
}
