//! The length-prefixed binary wire protocol of the state server.
//!
//! Every message, in either direction, travels as one **frame**:
//!
//! ```text
//! +---------------+----------------------+--------+----------------------+
//! | len: u32 (LE) | request id: u64 (LE) | opcode | body (len - 9 bytes) |
//! +---------------+----------------------+--------+----------------------+
//! ```
//!
//! `len` counts the request id, the opcode byte and the body, and is
//! bounded by [`MAX_FRAME`]; a peer announcing a larger frame is
//! rejected before any body byte is read, so a malicious or corrupt
//! length cannot force an allocation. The client chooses the request id
//! and the server echoes it on the answer, so a client can keep many
//! frames in flight on one connection (pipelining) and correlate answers
//! without trusting arrival order. A connection speaks this framing from
//! its first byte: there is no handshake and no version negotiation.
//!
//! Bodies are built from the same varint / fixed-width primitives as
//! every on-disk structure ([`flowkv_common::codec`]). Every body has a
//! fixed shape — each field is always written and required on decode —
//! so encodings are deterministic and self-delimiting: no strict prefix
//! of an encoding decodes, and no trailing byte is accepted.
//!
//! Requests and responses are separate opcode spaces (`0x0_` vs `0x8_`).
//! Every request yields exactly one response on the same connection.

use std::io::{Read, Write};

use flowkv_common::codec::{put_len_prefixed, put_u32, put_varint_u64, Decoder};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::metrics::MetricsSnapshot;
use flowkv_common::registry::{StateDescriptor, StateKey, StatePattern, ViewValue};
use flowkv_common::telemetry::{HistogramSnapshot, MetricSample, SampleValue};
use flowkv_common::trace::AttributionRow;
use flowkv_common::types::{Timestamp, WindowId};

/// Upper bound on one frame's payload (request id + opcode + body), in
/// bytes.
///
/// Large enough for a generous scan result, small enough that a bogus
/// length header cannot balloon memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Byte length of the frame header (the `u32` length prefix).
pub const FRAME_HEADER: usize = 4;

/// Byte length of the request id opening every frame payload.
const REQUEST_ID: usize = 8;

fn proto_err(detail: impl Into<String>) -> StoreError {
    StoreError::invalid_state(detail.into())
}

/// Writes one frame: length prefix, request id, payload (opcode + body).
pub fn write_frame(w: &mut impl Write, request_id: u64, payload: &[u8]) -> Result<()> {
    if payload.is_empty() || payload.len() + REQUEST_ID > MAX_FRAME {
        return Err(proto_err(format!(
            "outgoing frame of {} bytes outside 1..={}",
            payload.len(),
            MAX_FRAME - REQUEST_ID
        )));
    }
    let mut framed = Vec::with_capacity(FRAME_HEADER + REQUEST_ID + payload.len());
    put_u32(&mut framed, (payload.len() + REQUEST_ID) as u32);
    framed.extend_from_slice(&request_id.to_le_bytes());
    framed.extend_from_slice(payload);
    w.write_all(&framed)
        .map_err(|e| StoreError::io("frame write", e))?;
    Ok(())
}

/// Reads one frame's payload (request id + opcode + body) from `r`.
///
/// Returns `Ok(None)` on a clean EOF before any header byte (the peer
/// closed between requests); a length outside `1..=MAX_FRAME` or a
/// truncated body is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    let mut filled = 0;
    while filled < FRAME_HEADER {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(proto_err("connection closed inside a frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StoreError::io("frame header read", e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(proto_err(format!(
            "incoming frame length {len} outside 1..={MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| StoreError::io("frame body read", e))?;
    Ok(Some(payload))
}

/// Splits the request id off a frame payload, returning the id and the
/// request/response body.
pub fn split_request_id(payload: &[u8]) -> Result<(u64, &[u8])> {
    if payload.len() <= REQUEST_ID {
        return Err(proto_err(format!(
            "frame of {} bytes too short for a request id and opcode",
            payload.len()
        )));
    }
    let (id, body) = payload.split_at(REQUEST_ID);
    Ok((u64::from_le_bytes(id.try_into().expect("8 bytes")), body))
}

/// Tries to split one complete frame off the front of an in-memory
/// buffer (the event loop's per-connection read buffer).
///
/// Returns `(bytes_consumed, payload_range)` when a whole frame is
/// buffered, `None` when more bytes are needed, and an error for a
/// length outside `1..=MAX_FRAME` — the same bound [`read_frame`]
/// enforces on a blocking stream.
pub fn peek_frame(buf: &[u8]) -> Result<Option<(usize, std::ops::Range<usize>)>> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..FRAME_HEADER].try_into().expect("4 bytes")) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(proto_err(format!(
            "incoming frame length {len} outside 1..={MAX_FRAME}"
        )));
    }
    if buf.len() < FRAME_HEADER + len {
        return Ok(None);
    }
    Ok(Some((FRAME_HEADER + len, FRAME_HEADER..FRAME_HEADER + len)))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len_prefixed(buf, s.as_bytes());
}

fn get_str(dec: &mut Decoder<'_>) -> Result<String> {
    let bytes = dec.get_len_prefixed()?;
    String::from_utf8(bytes.to_vec()).map_err(|_| proto_err("string field is not UTF-8"))
}

fn get_bytes(dec: &mut Decoder<'_>) -> Result<Vec<u8>> {
    Ok(dec.get_len_prefixed()?.to_vec())
}

fn get_flag(dec: &mut Decoder<'_>, what: &'static str) -> Result<bool> {
    match dec.take(1, what)?[0] {
        0 => Ok(false),
        1 => Ok(true),
        flag => Err(proto_err(format!("bad {what} {flag}"))),
    }
}

/// Writes a varint count, then each item.
fn put_list<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint_u64(buf, items.len() as u64);
    for item in items {
        put(buf, item);
    }
}

/// Reads a varint count, bounded by the frame size, then that many items.
fn get_list<'a, T>(
    dec: &mut Decoder<'a>,
    what: &str,
    mut get: impl FnMut(&mut Decoder<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let n = dec.get_varint_u64()? as usize;
    if n > MAX_FRAME {
        return Err(proto_err(format!("{what} count exceeds frame bound")));
    }
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        items.push(get(dec)?);
    }
    Ok(items)
}

/// Writes a presence flag, then the value if present.
fn put_opt<T>(buf: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        Some(v) => {
            buf.push(1);
            put(buf, v);
        }
        None => buf.push(0),
    }
}

fn get_opt<'a, T>(
    dec: &mut Decoder<'a>,
    what: &'static str,
    get: impl FnOnce(&mut Decoder<'a>) -> Result<T>,
) -> Result<Option<T>> {
    Ok(if get_flag(dec, what)? {
        Some(get(dec)?)
    } else {
        None
    })
}

fn put_window(buf: &mut Vec<u8>, w: &WindowId) {
    buf.extend_from_slice(&w.start.to_le_bytes());
    buf.extend_from_slice(&w.end.to_le_bytes());
}

fn get_window(dec: &mut Decoder<'_>) -> Result<WindowId> {
    let start = dec.get_i64()?;
    let end = dec.get_i64()?;
    Ok(WindowId { start, end })
}

fn put_view_value(buf: &mut Vec<u8>, v: &ViewValue) {
    match v {
        ViewValue::Aggregate(a) => {
            buf.push(0);
            put_len_prefixed(buf, a);
        }
        ViewValue::Values(vs) => {
            buf.push(1);
            put_list(buf, vs, |buf, v| put_len_prefixed(buf, v));
        }
    }
}

fn get_view_value(dec: &mut Decoder<'_>) -> Result<ViewValue> {
    match dec.take(1, "view-value tag")?[0] {
        0 => Ok(ViewValue::Aggregate(get_bytes(dec)?)),
        1 => Ok(ViewValue::Values(get_list(dec, "view-value", get_bytes)?)),
        tag => Err(proto_err(format!("unknown view-value tag {tag}"))),
    }
}

/// A lookup answer's slot: the window the key was found in, with its
/// value.
type Found = Option<(WindowId, ViewValue)>;

fn put_found(buf: &mut Vec<u8>, found: &Found) {
    put_opt(buf, found, |buf, (window, value)| {
        put_window(buf, window);
        put_view_value(buf, value);
    });
}

fn get_found(dec: &mut Decoder<'_>) -> Result<Found> {
    get_opt(dec, "found flag", |dec| {
        Ok((get_window(dec)?, get_view_value(dec)?))
    })
}

fn put_metrics(buf: &mut Vec<u8>, m: &MetricsSnapshot) {
    for v in [
        m.write_nanos,
        m.read_nanos,
        m.compaction_nanos,
        m.bytes_written,
        m.bytes_read,
        m.records_written,
        m.records_read,
        m.prefetch_hits,
        m.prefetch_misses,
        m.prefetch_evictions,
        m.flushes,
        m.compactions,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_metrics(dec: &mut Decoder<'_>) -> Result<MetricsSnapshot> {
    let mut m = MetricsSnapshot::default();
    for field in [
        &mut m.write_nanos,
        &mut m.read_nanos,
        &mut m.compaction_nanos,
        &mut m.bytes_written,
        &mut m.bytes_read,
        &mut m.records_written,
        &mut m.records_read,
        &mut m.prefetch_hits,
        &mut m.prefetch_misses,
        &mut m.prefetch_evictions,
        &mut m.flushes,
        &mut m.compactions,
    ] {
        *field = dec.get_u64()?;
    }
    Ok(m)
}

/// Sample-kind tags on the wire.
const SAMPLE_COUNTER: u8 = 0;
const SAMPLE_GAUGE: u8 = 1;
const SAMPLE_HISTOGRAM: u8 = 2;

fn put_sample(buf: &mut Vec<u8>, s: &MetricSample) {
    put_str(buf, &s.name);
    match &s.value {
        SampleValue::Counter(v) => {
            buf.push(SAMPLE_COUNTER);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        SampleValue::Gauge(v) => {
            buf.push(SAMPLE_GAUGE);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        SampleValue::Histogram(h) => {
            buf.push(SAMPLE_HISTOGRAM);
            buf.extend_from_slice(&h.count.to_le_bytes());
            buf.extend_from_slice(&h.sum.to_le_bytes());
            buf.extend_from_slice(&h.min.to_le_bytes());
            buf.extend_from_slice(&h.max.to_le_bytes());
            put_list(buf, &h.counts, |buf, &c| put_varint_u64(buf, c));
        }
    }
}

fn get_sample(dec: &mut Decoder<'_>) -> Result<MetricSample> {
    let name = get_str(dec)?;
    let value = match dec.take(1, "sample kind")?[0] {
        SAMPLE_COUNTER => SampleValue::Counter(dec.get_u64()?),
        SAMPLE_GAUGE => SampleValue::Gauge(dec.get_i64()?),
        SAMPLE_HISTOGRAM => {
            let count = dec.get_u64()?;
            let sum = dec.get_u64()?;
            let min = dec.get_u64()?;
            let max = dec.get_u64()?;
            SampleValue::Histogram(HistogramSnapshot {
                counts: get_list(dec, "bucket", |dec| Ok(dec.get_varint_u64()?))?,
                count,
                sum,
                min,
                max,
            })
        }
        tag => return Err(proto_err(format!("unknown sample kind {tag}"))),
    };
    Ok(MetricSample { name, value })
}

/// Server-side filters applied to a [`Request::ScanFiltered`].
///
/// All conditions are conjunctive. An empty `key_prefix` matches every
/// key; the timestamp bounds select entries whose window overlaps
/// `[range_start, range_end]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanFilter {
    /// Keep only entries whose key starts with these bytes.
    pub key_prefix: Vec<u8>,
    /// Inclusive event-time range start (window overlap test).
    pub range_start: Timestamp,
    /// Inclusive event-time range end (window overlap test).
    pub range_end: Timestamp,
    /// Maximum entries returned, applied after the filters.
    pub limit: u64,
}

impl ScanFilter {
    /// A filter selecting every key's entries in `[range_start,
    /// range_end]`, up to `limit` entries: a plain range scan.
    pub fn range(range_start: Timestamp, range_end: Timestamp, limit: u64) -> Self {
        ScanFilter {
            key_prefix: Vec::new(),
            range_start,
            range_end,
            limit,
        }
    }

    /// Restricts the filter to keys starting with `prefix`.
    pub fn with_prefix(mut self, prefix: impl Into<Vec<u8>>) -> Self {
        self.key_prefix = prefix.into();
        self
    }
}

/// A query sent by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enumerate every published state.
    ListStates,
    /// Point lookup of `key` in one operator's state. With `window`
    /// unset, the key's latest live window answers (the natural query
    /// for RMW aggregates).
    Lookup {
        /// Job name.
        job: String,
        /// Operator name.
        operator: String,
        /// State key queried.
        key: Vec<u8>,
        /// Exact window, or `None` for the latest.
        window: Option<WindowId>,
    },
    /// Batched point lookup: many keys of one operator answered in a
    /// single frame, in key order. Each key routes to its owning
    /// partition independently, exactly as a sequence of [`Lookup`]s
    /// would (`Lookup`: [`Request::Lookup`]).
    LookupMany {
        /// Job name.
        job: String,
        /// Operator name.
        operator: String,
        /// State keys queried, answered positionally.
        keys: Vec<Vec<u8>>,
        /// Exact window for every key, or `None` for each key's latest.
        window: Option<WindowId>,
    },
    /// Scan across all partitions of the operator with server-side
    /// filters — key prefix, window-overlap timestamp bounds, and a
    /// limit — applied before anything is serialized.
    ScanFiltered {
        /// Job name.
        job: String,
        /// Operator name.
        operator: String,
        /// The conjunctive filter set.
        filter: ScanFilter,
    },
    /// Merged store metrics of one operator.
    Metrics {
        /// Job name.
        job: String,
        /// Operator name.
        operator: String,
        /// Also return the server's telemetry registry (counters,
        /// gauges, histograms).
        include_registry: bool,
    },
    /// The server's full telemetry registry rendered as Prometheus text
    /// exposition format 0.0.4.
    Prometheus,
    /// The latency-attribution table computed from the job's span tracer
    /// ([`flowkv_common::trace`]).
    TraceSummary {
        /// Also drain the tracer's span rings, so the next summary
        /// covers only batches traced after this one.
        drain: bool,
    },
}

const OP_PING: u8 = 0x01;
const OP_LIST: u8 = 0x02;
const OP_LOOKUP: u8 = 0x03;
const OP_METRICS: u8 = 0x05;
const OP_PROMETHEUS: u8 = 0x06;
const OP_TRACE_SUMMARY: u8 = 0x07;
const OP_LOOKUP_MANY: u8 = 0x08;
const OP_SCAN_FILTERED: u8 = 0x09;

impl Request {
    /// Encodes this request as one frame body (opcode + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ping => buf.push(OP_PING),
            Request::ListStates => buf.push(OP_LIST),
            Request::Lookup {
                job,
                operator,
                key,
                window,
            } => {
                buf.push(OP_LOOKUP);
                put_str(&mut buf, job);
                put_str(&mut buf, operator);
                put_len_prefixed(&mut buf, key);
                put_opt(&mut buf, window, put_window);
            }
            Request::LookupMany {
                job,
                operator,
                keys,
                window,
            } => {
                buf.push(OP_LOOKUP_MANY);
                put_str(&mut buf, job);
                put_str(&mut buf, operator);
                put_list(&mut buf, keys, |buf, key| put_len_prefixed(buf, key));
                put_opt(&mut buf, window, put_window);
            }
            Request::ScanFiltered {
                job,
                operator,
                filter,
            } => {
                buf.push(OP_SCAN_FILTERED);
                put_str(&mut buf, job);
                put_str(&mut buf, operator);
                put_len_prefixed(&mut buf, &filter.key_prefix);
                buf.extend_from_slice(&filter.range_start.to_le_bytes());
                buf.extend_from_slice(&filter.range_end.to_le_bytes());
                buf.extend_from_slice(&filter.limit.to_le_bytes());
            }
            Request::Metrics {
                job,
                operator,
                include_registry,
            } => {
                buf.push(OP_METRICS);
                put_str(&mut buf, job);
                put_str(&mut buf, operator);
                buf.push(u8::from(*include_registry));
            }
            Request::Prometheus => buf.push(OP_PROMETHEUS),
            Request::TraceSummary { drain } => {
                buf.push(OP_TRACE_SUMMARY);
                buf.push(u8::from(*drain));
            }
        }
        buf
    }

    /// Decodes a frame body into a request.
    pub fn decode(body: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(body);
        let req = match dec.take(1, "request opcode")?[0] {
            OP_PING => Request::Ping,
            OP_LIST => Request::ListStates,
            OP_LOOKUP => Request::Lookup {
                job: get_str(&mut dec)?,
                operator: get_str(&mut dec)?,
                key: get_bytes(&mut dec)?,
                window: get_opt(&mut dec, "window flag", get_window)?,
            },
            OP_LOOKUP_MANY => Request::LookupMany {
                job: get_str(&mut dec)?,
                operator: get_str(&mut dec)?,
                keys: get_list(&mut dec, "lookup key", get_bytes)?,
                window: get_opt(&mut dec, "window flag", get_window)?,
            },
            OP_SCAN_FILTERED => Request::ScanFiltered {
                job: get_str(&mut dec)?,
                operator: get_str(&mut dec)?,
                filter: ScanFilter {
                    key_prefix: get_bytes(&mut dec)?,
                    range_start: dec.get_i64()?,
                    range_end: dec.get_i64()?,
                    limit: dec.get_u64()?,
                },
            },
            OP_METRICS => Request::Metrics {
                job: get_str(&mut dec)?,
                operator: get_str(&mut dec)?,
                include_registry: get_flag(&mut dec, "registry flag")?,
            },
            OP_PROMETHEUS => Request::Prometheus,
            OP_TRACE_SUMMARY => Request::TraceSummary {
                drain: get_flag(&mut dec, "drain flag")?,
            },
            other => return Err(proto_err(format!("unknown request opcode {other:#x}"))),
        };
        if !dec.is_empty() {
            return Err(proto_err("trailing bytes after request"));
        }
        Ok(req)
    }
}

/// One row of a [`Response::States`] listing — a wire-friendly
/// [`StateDescriptor`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateInfo {
    /// Registry key of the published view.
    pub key: StateKey,
    /// Pattern of the source store.
    pub pattern: StatePattern,
    /// Snapshot epoch.
    pub epoch: u64,
    /// Watermark the snapshot is aligned to.
    pub watermark: Timestamp,
    /// Number of live entries.
    pub entries: u64,
    /// Advisory retention of an entry, in event-time milliseconds,
    /// derived from the operator's window semantics (window size for
    /// fixed/sliding windows, gap for sessions). `None` when state never
    /// expires (global windows).
    pub ttl_ms: Option<u64>,
}

impl From<StateDescriptor> for StateInfo {
    fn from(d: StateDescriptor) -> Self {
        StateInfo {
            key: d.key,
            pattern: d.pattern,
            epoch: d.epoch,
            watermark: d.watermark,
            entries: d.entries,
            ttl_ms: d.ttl_ms,
        }
    }
}

/// One `(key, window, value)` row of a scan result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanEntry {
    /// The state key.
    pub key: Vec<u8>,
    /// The entry's window.
    pub window: WindowId,
    /// The entry's value.
    pub value: ViewValue,
}

/// Error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be decoded.
    BadRequest,
    /// No state is published for the addressed job/operator.
    UnknownState,
    /// The server failed internally.
    Internal,
}

impl ErrorCode {
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::UnknownState => 1,
            ErrorCode::Internal => 2,
        }
    }

    fn from_u8(b: u8) -> Result<Self> {
        match b {
            0 => Ok(ErrorCode::BadRequest),
            1 => Ok(ErrorCode::UnknownState),
            2 => Ok(ErrorCode::Internal),
            other => Err(proto_err(format!("unknown error code {other}"))),
        }
    }
}

/// The server's answer to one [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::ListStates`].
    States(Vec<StateInfo>),
    /// Answer to [`Request::LookupMany`]: one slot per requested key, in
    /// request order.
    ValueBatch {
        /// Minimum epoch across the partitions that answered.
        epoch: u64,
        /// Minimum watermark across the answering partitions.
        watermark: Timestamp,
        /// Per-key results, positionally matching the request's keys.
        found: Vec<Option<(WindowId, ViewValue)>>,
    },
    /// Answer to [`Request::Lookup`]: the value, if the key is live, plus
    /// the snapshot's consistency coordinates.
    Value {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// Watermark of the answering snapshot.
        watermark: Timestamp,
        /// The window the value was found in, with its value.
        found: Option<(WindowId, ViewValue)>,
    },
    /// Answer to [`Request::ScanFiltered`].
    ScanResult {
        /// Minimum epoch across every partition of the operator.
        epoch: u64,
        /// Minimum watermark across every partition of the operator.
        watermark: Timestamp,
        /// Matching entries, in partition-then-key order.
        entries: Vec<ScanEntry>,
    },
    /// Answer to [`Request::Metrics`]: counters merged across the
    /// operator's partitions.
    MetricsReport {
        /// Pattern of the operator's store.
        pattern: StatePattern,
        /// Number of partitions merged.
        partitions: u64,
        /// Total live entries across partitions.
        entries: u64,
        /// Minimum watermark across partitions.
        watermark: Timestamp,
        /// Element-wise summed store counters.
        metrics: MetricsSnapshot,
        /// Telemetry registry samples: empty unless the request set
        /// `include_registry` and the server has telemetry.
        registry: Vec<MetricSample>,
    },
    /// Answer to [`Request::Prometheus`]: the registry in Prometheus
    /// text exposition format 0.0.4.
    PrometheusText(String),
    /// Answer to [`Request::TraceSummary`]: the per-stage
    /// latency-attribution table. All-zero when the job runs untraced.
    TraceSummaryReport {
        /// Sampled batches the table aggregates.
        traces: u64,
        /// One row per stage, in [`flowkv_common::trace::STAGES`] order.
        rows: Vec<AttributionRow>,
        /// End-to-end totals across stages.
        total: AttributionRow,
    },
    /// The request failed.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

const OP_PONG: u8 = 0x81;
const OP_STATES: u8 = 0x82;
const OP_VALUE: u8 = 0x83;
const OP_SCAN_RESULT: u8 = 0x84;
const OP_METRICS_REPORT: u8 = 0x85;
const OP_PROM_TEXT: u8 = 0x86;
const OP_TRACE_SUMMARY_REPORT: u8 = 0x87;
const OP_VALUE_BATCH: u8 = 0x88;
const OP_ERROR: u8 = 0xee;

fn put_state_info(buf: &mut Vec<u8>, s: &StateInfo) {
    put_str(buf, &s.key.job);
    put_str(buf, &s.key.operator);
    buf.extend_from_slice(&(s.key.partition as u64).to_le_bytes());
    buf.push(s.pattern.as_u8());
    buf.extend_from_slice(&s.epoch.to_le_bytes());
    buf.extend_from_slice(&s.watermark.to_le_bytes());
    buf.extend_from_slice(&s.entries.to_le_bytes());
    put_opt(buf, &s.ttl_ms, |buf, ttl| {
        buf.extend_from_slice(&ttl.to_le_bytes())
    });
}

fn get_state_info(dec: &mut Decoder<'_>) -> Result<StateInfo> {
    let job = get_str(dec)?;
    let operator = get_str(dec)?;
    let partition = dec.get_u64()? as usize;
    Ok(StateInfo {
        key: StateKey::new(job, operator, partition),
        pattern: StatePattern::from_u8(dec.take(1, "pattern")?[0]),
        epoch: dec.get_u64()?,
        watermark: dec.get_i64()?,
        entries: dec.get_u64()?,
        ttl_ms: get_opt(dec, "ttl flag", |dec| Ok(dec.get_u64()?))?,
    })
}

fn put_attr_row(buf: &mut Vec<u8>, row: &AttributionRow) {
    put_str(buf, &row.stage);
    for v in [row.count, row.p50, row.p99, row.p999, row.total_nanos] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_attr_row(dec: &mut Decoder<'_>) -> Result<AttributionRow> {
    let stage = get_str(dec)?;
    let mut row = AttributionRow {
        stage,
        ..AttributionRow::default()
    };
    for field in [
        &mut row.count,
        &mut row.p50,
        &mut row.p99,
        &mut row.p999,
        &mut row.total_nanos,
    ] {
        *field = dec.get_u64()?;
    }
    Ok(row)
}

impl Response {
    /// Encodes this response as one frame body (opcode + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Pong => buf.push(OP_PONG),
            Response::States(states) => {
                buf.push(OP_STATES);
                put_list(&mut buf, states, put_state_info);
            }
            Response::ValueBatch {
                epoch,
                watermark,
                found,
            } => {
                buf.push(OP_VALUE_BATCH);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&watermark.to_le_bytes());
                put_list(&mut buf, found, put_found);
            }
            Response::Value {
                epoch,
                watermark,
                found,
            } => {
                buf.push(OP_VALUE);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&watermark.to_le_bytes());
                put_found(&mut buf, found);
            }
            Response::ScanResult {
                epoch,
                watermark,
                entries,
            } => {
                buf.push(OP_SCAN_RESULT);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&watermark.to_le_bytes());
                put_list(&mut buf, entries, |buf, e| {
                    put_len_prefixed(buf, &e.key);
                    put_window(buf, &e.window);
                    put_view_value(buf, &e.value);
                });
            }
            Response::MetricsReport {
                pattern,
                partitions,
                entries,
                watermark,
                metrics,
                registry,
            } => {
                buf.push(OP_METRICS_REPORT);
                buf.push(pattern.as_u8());
                buf.extend_from_slice(&partitions.to_le_bytes());
                buf.extend_from_slice(&entries.to_le_bytes());
                buf.extend_from_slice(&watermark.to_le_bytes());
                put_metrics(&mut buf, metrics);
                put_list(&mut buf, registry, put_sample);
            }
            Response::PrometheusText(text) => {
                buf.push(OP_PROM_TEXT);
                put_str(&mut buf, text);
            }
            Response::TraceSummaryReport {
                traces,
                rows,
                total,
            } => {
                buf.push(OP_TRACE_SUMMARY_REPORT);
                buf.extend_from_slice(&traces.to_le_bytes());
                put_list(&mut buf, rows, put_attr_row);
                put_attr_row(&mut buf, total);
            }
            Response::Error { code, message } => {
                buf.push(OP_ERROR);
                buf.push(code.as_u8());
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Decodes a frame body into a response.
    pub fn decode(body: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(body);
        let resp = match dec.take(1, "response opcode")?[0] {
            OP_PONG => Response::Pong,
            OP_STATES => Response::States(get_list(&mut dec, "state", get_state_info)?),
            OP_VALUE_BATCH => Response::ValueBatch {
                epoch: dec.get_u64()?,
                watermark: dec.get_i64()?,
                found: get_list(&mut dec, "value-batch", get_found)?,
            },
            OP_VALUE => Response::Value {
                epoch: dec.get_u64()?,
                watermark: dec.get_i64()?,
                found: get_found(&mut dec)?,
            },
            OP_SCAN_RESULT => Response::ScanResult {
                epoch: dec.get_u64()?,
                watermark: dec.get_i64()?,
                entries: get_list(&mut dec, "scan", |dec| {
                    Ok(ScanEntry {
                        key: get_bytes(dec)?,
                        window: get_window(dec)?,
                        value: get_view_value(dec)?,
                    })
                })?,
            },
            OP_METRICS_REPORT => Response::MetricsReport {
                pattern: StatePattern::from_u8(dec.take(1, "pattern")?[0]),
                partitions: dec.get_u64()?,
                entries: dec.get_u64()?,
                watermark: dec.get_i64()?,
                metrics: get_metrics(&mut dec)?,
                registry: get_list(&mut dec, "sample", get_sample)?,
            },
            OP_PROM_TEXT => Response::PrometheusText(get_str(&mut dec)?),
            OP_TRACE_SUMMARY_REPORT => Response::TraceSummaryReport {
                traces: dec.get_u64()?,
                rows: get_list(&mut dec, "trace row", get_attr_row)?,
                total: get_attr_row(&mut dec)?,
            },
            OP_ERROR => Response::Error {
                code: ErrorCode::from_u8(dec.take(1, "error code")?[0])?,
                message: get_str(&mut dec)?,
            },
            other => return Err(proto_err(format!("unknown response opcode {other:#x}"))),
        };
        if !dec.is_empty() {
            return Err(proto_err("trailing bytes after response"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, &Request::Ping.encode()).unwrap();
        write_frame(&mut wire, 2, &Request::ListStates.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        for (id, req) in [(1, Request::Ping), (2, Request::ListStates)] {
            let payload = read_frame(&mut cursor).unwrap().unwrap();
            let (got, body) = split_request_id(&payload).unwrap();
            assert_eq!(got, id);
            assert_eq!(Request::decode(body).unwrap(), req);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        put_u32(&mut wire, (MAX_FRAME + 1) as u32);
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert!(err.to_string().contains("frame length"));
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let mut wire = Vec::new();
        put_u32(&mut wire, 0);
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert!(err.to_string().contains("frame length"));
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut wire = Vec::new();
        put_u32(&mut wire, 100);
        wire.extend_from_slice(&[1u8; 10]);
        assert!(read_frame(&mut std::io::Cursor::new(wire)).is_err());
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x7f]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn v2_frames_carry_and_return_the_request_id() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 42, &Request::Ping.encode()).unwrap();
        let (consumed, range) = peek_frame(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        let (id, body) = split_request_id(&wire[range]).unwrap();
        assert_eq!(id, 42);
        assert_eq!(Request::decode(body).unwrap(), Request::Ping);
        // A payload with no room for an opcode after the id is no frame.
        assert!(split_request_id(&[0u8; REQUEST_ID]).is_err());
    }

    #[test]
    fn peek_frame_matches_read_frame_semantics() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, &Request::Ping.encode()).unwrap();
        // Every strict prefix is incomplete, the full buffer parses.
        for cut in 0..wire.len() {
            assert!(peek_frame(&wire[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (consumed, range) = peek_frame(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        let read = read_frame(&mut std::io::Cursor::new(&wire))
            .unwrap()
            .unwrap();
        assert_eq!(
            &wire[range],
            &read[..],
            "peek_frame payload differs from read_frame's"
        );
        // Oversized and zero lengths error exactly like read_frame.
        let mut oversized = Vec::new();
        put_u32(&mut oversized, (MAX_FRAME + 1) as u32);
        assert!(peek_frame(&oversized).is_err());
        let mut zero = Vec::new();
        put_u32(&mut zero, 0);
        assert!(peek_frame(&zero).is_err());
    }
}
