//! Pipeline-wide telemetry: metric registry and histograms.
//!
//! The store-level counters in [`crate::metrics`] attribute time and bytes
//! to store operations, but the executor, the exchange, and the ETT
//! estimator used to be black boxes. This module is the shared telemetry
//! substrate for all of them:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free atomic metrics.
//!   The histogram is log-linear (HdrHistogram-style: 32 sub-buckets per
//!   power of two), so quantile estimates carry a bounded relative error
//!   (≤ 1/64 per bucket midpoint) and snapshots merge exactly across
//!   partitions by adding bucket counts.
//! - [`MetricRegistry`] — a named map of metrics. Registration takes a
//!   lock; the returned `Arc` handles are then updated lock-free on the
//!   hot path. Metric names carry their labels inline
//!   (`operator_busy_nanos{operator=count,partition=0}`), which keeps the
//!   registry a flat string map while the Prometheus renderer recovers
//!   proper label syntax.
//! - [`Telemetry`] — one registry plus a start instant (and the job's
//!   span tracer, when one is installed), shared by every thread of a
//!   running job via `Arc`.
//!
//! Two exposition formats, both dependency-free:
//!
//! - JSONL ([`snapshot_json`]) — one registry snapshot per line,
//!   written periodically by the executor when
//!   `RunOptions::telemetry_out` is set. [`validate_jsonl_line`] is the
//!   schema check CI runs against emitted files, and [`parse_json`] is a
//!   minimal JSON reader tests use to inspect fields.
//! - Prometheus text format 0.0.4 ([`render_prometheus`]) — served by
//!   `crates/serve` and dumped by `flowkv-metrics-dump`.
//!   [`validate_prometheus`] checks conformance line by line.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Scalar metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a signed value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of two.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Bucket count: values `< 2*SUB` get one bucket each (exact), then 32
/// sub-buckets for every exponent 6..=63. No snapshot holds more.
const NUM_BUCKETS: usize = (2 * SUB as usize) + (63 - 6 + 1) * SUB as usize;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) as usize; // in [SUB, 2*SUB)
    (2 * SUB as usize) + ((exp - SUB_BITS - 1) as usize) * (SUB as usize) + (sub - SUB as usize)
}

/// The representative (midpoint) value of a bucket. The true value lies in
/// `[lo, lo + 2^shift)`, so the relative error of the midpoint is at most
/// `2^(shift-1) / lo <= 1 / (2*SUB) = 1/64`.
fn bucket_value(idx: usize) -> u64 {
    if idx < 2 * SUB as usize {
        return idx as u64;
    }
    let rest = idx - 2 * SUB as usize;
    let exp = SUB_BITS + 1 + (rest / SUB as usize) as u32;
    let sub = SUB + (rest % SUB as usize) as u64;
    let shift = exp - SUB_BITS;
    let lo = sub << shift;
    lo + (1u64 << (shift - 1))
}

/// A mergeable log-linear histogram with lock-free recording.
///
/// Values are `u64` (typically nanoseconds, bytes, or queue depths).
/// Recording is three relaxed atomic RMWs plus two min/max updates; no
/// allocation, no locking.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        let count = self.count.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        // A `record` racing this copy may have counted its value but not
        // yet moved `min` or `max`: bounding `min` by `max` keeps every
        // snapshot `min <= max`, the one shape the wire decoder accepts.
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed).min(max)
        };
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// A plain, mergeable copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts with trailing zero buckets trimmed.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the observed values (exact; the sum is tracked exactly).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`) of the recorded values.
    ///
    /// Uses the nearest-rank definition on bucket midpoints and bounds the
    /// estimate into the exact observed `[min, max]`, so the relative
    /// error vs. the exact nearest-rank percentile is bounded by the
    /// bucket width: at most 1/32 (~3.1%). Never panics: should `min`
    /// exceed `max`, the estimate is `max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_value(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Adds another snapshot's buckets into this one (exact merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        let was_empty = self.count == 0;
        self.count += other.count;
        self.sum += other.sum;
        if !other.is_empty() {
            self.min = if was_empty {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named map of counters, gauges, and histograms.
///
/// Lookup/creation takes an `RwLock` once; updates then go through the
/// returned `Arc` handles without touching the registry. Names embed
/// labels as `base{key=value,key2=value2}` — see [`render_prometheus`]
/// for how they are exposed.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// (a programming error in instrumentation code).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Metric::Counter(c)) = self.metrics.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.metrics.write().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Metric::Gauge(g)) = self.metrics.read().unwrap().get(name) {
            return Arc::clone(g);
        }
        let mut map = self.metrics.write().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(Metric::Histogram(h)) = self.metrics.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        let mut map = self.metrics.write().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Copies every metric into a name-sorted sample list.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.metrics
            .read()
            .unwrap()
            .iter()
            .map(|(name, metric)| MetricSample {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }
}

/// One named metric value captured by [`MetricRegistry::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    /// Registry name, `base{key=value,...}`.
    pub name: String,
    /// The captured value.
    pub value: SampleValue,
}

/// The value part of a [`MetricSample`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

// ---------------------------------------------------------------------------
// Telemetry handle
// ---------------------------------------------------------------------------

/// The shared telemetry handle of one running job (or server).
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricRegistry,
    epoch: Instant,
    trace: Mutex<Option<Arc<crate::trace::Tracer>>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Creates a telemetry handle.
    pub fn new() -> Self {
        Telemetry {
            registry: MetricRegistry::new(),
            epoch: Instant::now(),
            trace: Mutex::new(None),
        }
    }

    /// Creates a shared handle.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Telemetry::new())
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Nanoseconds since this handle was created.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Installs the span tracer this job's threads, stores, and I/O
    /// rings record into (see [`crate::trace`]). Installing is what
    /// turns tracing on for everything reached through this handle.
    pub fn set_trace(&self, tracer: Arc<crate::trace::Tracer>) {
        *self.trace.lock().expect("tracer lock") = Some(tracer);
    }

    /// The installed span tracer, if any.
    pub fn trace(&self) -> Option<Arc<crate::trace::Tracer>> {
        self.trace.lock().expect("tracer lock").clone()
    }
}

// ---------------------------------------------------------------------------
// JSONL exposition
// ---------------------------------------------------------------------------

/// `s` with JSON string escapes applied.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one `{"type":"snapshot",...}` JSONL line (no trailing newline).
///
/// Histograms are summarized (count/sum/min/max plus p50/p90/p99); the
/// full bucket vectors stay in-process and on the wire protocol, where
/// mergeability matters.
pub fn snapshot_json(seq: u64, uptime_ms: u64, samples: &[MetricSample]) -> String {
    let mut out = String::with_capacity(256 + samples.len() * 64);
    out.push_str(&format!(
        "{{\"type\":\"snapshot\",\"seq\":{seq},\"uptime_ms\":{uptime_ms},\"metrics\":{{"
    ));
    for (i, sample) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(&sample.name));
        out.push_str("\":");
        match &sample.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("{{\"kind\":\"counter\",\"value\":{v}}}"));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!("{{\"kind\":\"gauge\",\"value\":{v}}}"));
            }
            SampleValue::Histogram(h) => {
                out.push_str(&format!(
                    "{{\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                     \"p50\":{},\"p90\":{},\"p99\":{}}}",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                ));
            }
        }
    }
    out.push_str("}}");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (for schema validation and tests)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are kept as `f64`; every integer this
/// module emits below 2^53 round-trips exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer value, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|n| n as i64)
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. What
/// the program writes nests at most four deep; the bound keeps a hostile
/// file from recursing the parser off the end of its stack.
const MAX_JSON_DEPTH: usize = 128;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// The value at the cursor, inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy the plain-ASCII run up to the next
                    // quote, escape, or multi-byte sequence; validating
                    // from here to EOF per character would be quadratic
                    // in the document size.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b >= 0x80 {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.pos > start {
                        out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                    } else {
                        // Multi-byte lead: decode one scalar from a
                        // bounded window (UTF-8 is at most 4 bytes).
                        let end = (self.pos + 4).min(self.bytes.len());
                        let window = &self.bytes[self.pos..end];
                        let valid = match std::str::from_utf8(window) {
                            Ok(s) => s,
                            Err(e) if e.valid_up_to() > 0 => {
                                std::str::from_utf8(&window[..e.valid_up_to()]).unwrap()
                            }
                            Err(e) => return Err(format!("invalid UTF-8: {e}")),
                        };
                        let c = valid.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

/// Parses one JSON document (objects, arrays, strings, numbers, bools,
/// null). Rejects trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes at {}", parser.pos));
    }
    Ok(value)
}

/// Validates one telemetry JSONL line against the emitted schema, whose
/// one line type is
/// `{"type":"snapshot","seq":N,"uptime_ms":N,"metrics":{name:{"kind":..},..}}`.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let doc = parse_json(line)?;
    let typ = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing \"type\"")?;
    if typ != "snapshot" {
        return Err(format!("unknown line type {typ:?}"));
    }
    doc.get("seq")
        .and_then(Json::as_f64)
        .ok_or("snapshot missing numeric \"seq\"")?;
    doc.get("uptime_ms")
        .and_then(Json::as_f64)
        .ok_or("snapshot missing numeric \"uptime_ms\"")?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("snapshot missing object \"metrics\"")?;
    for (name, value) in metrics {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metric {name:?} missing \"kind\""))?;
        let required: &[&str] = match kind {
            "counter" | "gauge" => &["value"],
            "histogram" => &["count", "sum", "min", "max", "p50", "p90", "p99"],
            other => return Err(format!("metric {name:?} has unknown kind {other:?}")),
        };
        for field in required {
            value
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name:?} missing numeric {field:?}"))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Prometheus text format 0.0.4
// ---------------------------------------------------------------------------

fn prom_sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Splits a registry name `base{k=v,k2=v2}` into the base and its label
/// pairs.
fn split_labels(name: &str) -> (String, Vec<(String, String)>) {
    match name.split_once('{') {
        None => (prom_sanitize(name), Vec::new()),
        Some((base, rest)) => {
            let rest = rest.strip_suffix('}').unwrap_or(rest);
            let labels = rest
                .split(',')
                .filter(|part| !part.is_empty())
                .map(|part| match part.split_once('=') {
                    Some((k, v)) => (prom_sanitize(k), v.to_string()),
                    None => (prom_sanitize(part), String::new()),
                })
                .collect();
            (prom_sanitize(base), labels)
        }
    }
}

fn prom_label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let mut escaped = String::new();
            for c in v.chars() {
                match c {
                    '\\' => escaped.push_str("\\\\"),
                    '"' => escaped.push_str("\\\""),
                    '\n' => escaped.push_str("\\n"),
                    c => escaped.push(c),
                }
            }
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders samples as Prometheus text exposition format 0.0.4.
///
/// Registry names gain a `flowkv_` namespace prefix; inline labels become
/// proper Prometheus labels; histograms are rendered as `summary` metrics
/// with `quantile` labels plus `_sum` and `_count` series.
pub fn render_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::with_capacity(samples.len() * 96);
    let mut typed: BTreeMap<String, &'static str> = BTreeMap::new();
    let mut sorted: Vec<&MetricSample> = samples.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    for sample in sorted {
        let (base, labels) = split_labels(&sample.name);
        let full = format!("flowkv_{base}");
        let kind = match &sample.value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "summary",
        };
        match typed.get(&full) {
            None => {
                typed.insert(full.clone(), kind);
                out.push_str(&format!("# TYPE {full} {kind}\n"));
            }
            // One base name must keep one kind; skip conflicting samples.
            Some(&seen) if seen != kind => continue,
            Some(_) => {}
        }
        match &sample.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("{full}{} {v}\n", prom_label_block(&labels, None)));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!("{full}{} {v}\n", prom_label_block(&labels, None)));
            }
            SampleValue::Histogram(h) => {
                for (q, qv) in [
                    ("0.5", h.quantile(0.50)),
                    ("0.9", h.quantile(0.90)),
                    ("0.99", h.quantile(0.99)),
                ] {
                    out.push_str(&format!(
                        "{full}{} {qv}\n",
                        prom_label_block(&labels, Some(("quantile", q)))
                    ));
                }
                out.push_str(&format!(
                    "{full}_sum{} {}\n",
                    prom_label_block(&labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{full}_count{} {}\n",
                    prom_label_block(&labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_body(body: &str) -> bool {
    // body is the text between '{' and '}': k="v",k2="v2"
    let mut rest = body;
    if rest.is_empty() {
        return true;
    }
    loop {
        let Some(eq) = rest.find('=') else {
            return false;
        };
        if !valid_metric_name(&rest[..eq]) {
            return false;
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return false;
        }
        // Find the closing unescaped quote.
        let bytes = rest.as_bytes();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => return false,
                Some(b'\\') => i += 2,
                Some(b'"') => break,
                Some(_) => i += 1,
            }
        }
        rest = &rest[i + 1..];
        match rest.strip_prefix(',') {
            Some(tail) => rest = tail,
            None => return rest.is_empty(),
        }
    }
}

/// Checks that `text` is well-formed Prometheus 0.0.4 exposition output:
/// every line is a comment (`# HELP` / `# TYPE`) or a sample of the form
/// `name{labels} value [timestamp]`.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words.next().unwrap_or("");
                    let kind = words.next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return err("bad TYPE metric name");
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return err("bad TYPE kind");
                    }
                }
                Some("HELP") => {}
                _ => {} // free-form comments are legal
            }
            continue;
        }
        // name{labels} value [timestamp]
        let (name_part, value_part) = match line.find('{') {
            Some(brace) => {
                let Some(close) = line.rfind('}') else {
                    return err("unclosed label block");
                };
                if close < brace || !valid_label_body(&line[brace + 1..close]) {
                    return err("bad label block");
                }
                (&line[..brace], line[close + 1..].trim_start())
            }
            None => match line.split_once(' ') {
                Some((n, v)) => (n, v.trim_start()),
                None => return err("missing value"),
            },
        };
        if !valid_metric_name(name_part) {
            return err("bad metric name");
        }
        let mut fields = value_part.split_whitespace();
        let Some(value) = fields.next() else {
            return err("missing value");
        };
        let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !value_ok {
            return err("bad sample value");
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return err("bad timestamp");
            }
        }
        if fields.next().is_some() {
            return err("trailing tokens");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        let mut v: u64 = 1;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v.saturating_mul(2).saturating_sub(1)] {
                let idx = bucket_index(probe);
                let rep = bucket_value(idx);
                let err = rep.abs_diff(probe) as f64 / probe.max(1) as f64;
                assert!(
                    err <= 1.0 / 32.0,
                    "value {probe} -> bucket {idx} -> {rep} (err {err})"
                );
            }
            v = v.saturating_mul(2);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(
            bucket_value(bucket_index(u64::MAX)),
            bucket_value(NUM_BUCKETS - 1)
        );
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v: u64 = 0;
        while v < 1 << 40 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            assert!(idx < NUM_BUCKETS);
            last = idx;
            v = v * 2 + 1;
        }
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 17, 63] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 63);
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(0.5), 5);
        assert_eq!(snap.quantile(1.0), 63);
        assert_eq!(snap.sum, 86);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for i in 0..1000u64 {
            let v = i * i * 37 + 11;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn quantile_error_vs_exact_is_bounded() {
        let h = Histogram::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x: u64 = 987654321;
        for _ in 0..5000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 10_000_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        let snap = h.snapshot();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = snap.quantile(q);
            let err = est.abs_diff(truth) as f64 / truth.max(1) as f64;
            assert!(
                err <= 1.0 / 32.0,
                "q={q}: exact {truth}, est {est}, err {err}"
            );
        }
    }

    #[test]
    fn quantile_never_panics_on_a_snapshot_no_histogram_takes() {
        // `min` above `max`: the estimate is `max`.
        let inverted = HistogramSnapshot {
            counts: vec![1],
            count: 1,
            sum: 0,
            min: u64::MAX,
            max: 0,
        };
        // Bucket counts summing past `u64::MAX` before either rank is
        // met: the running sum saturates, and the estimate stays within
        // `[min, max]`.
        let overfull = HistogramSnapshot {
            counts: vec![1, u64::MAX, 1],
            count: u64::MAX,
            sum: 0,
            min: 1,
            max: 2,
        };
        for q in [0.5, 0.99] {
            assert_eq!(inverted.quantile(q), 0, "q={q}");
            let v = overfull.quantile(q);
            assert!((1..=2).contains(&v), "q={q}: {v}");
        }
    }

    #[test]
    fn registry_returns_same_handle_and_snapshots_sorted() {
        let reg = MetricRegistry::new();
        let c1 = reg.counter("b_counter");
        let c2 = reg.counter("b_counter");
        c1.add(3);
        c2.add(4);
        reg.gauge("a_gauge").set(-5);
        reg.histogram("c_hist").record(42);
        let samples = reg.snapshot();
        let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a_gauge", "b_counter", "c_hist"]);
        assert_eq!(samples[1].value, SampleValue::Counter(7));
        assert_eq!(samples[0].value, SampleValue::Gauge(-5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_change() {
        let reg = MetricRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn jsonl_lines_validate_and_parse() {
        let telemetry = Telemetry::new();
        telemetry
            .registry()
            .counter("ops{operator=agg,partition=0}")
            .add(7);
        telemetry.registry().gauge("lag_ms").set(-12);
        let h = telemetry.registry().histogram("latency_nanos");
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }

        let line = snapshot_json(3, 250, &telemetry.registry().snapshot());
        validate_jsonl_line(&line).unwrap();
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("seq").and_then(Json::as_i64), Some(3));
        let metrics = doc.get("metrics").unwrap();
        let ops = metrics.get("ops{operator=agg,partition=0}").unwrap();
        assert_eq!(ops.get("value").and_then(Json::as_i64), Some(7));
    }

    #[test]
    fn jsonl_validator_rejects_malformed_lines() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(validate_jsonl_line("{\"type\":\"mystery\"}").is_err());
        assert!(validate_jsonl_line("{\"type\":\"snapshot\",\"seq\":1}").is_err());
        assert!(validate_jsonl_line(
            "{\"type\":\"snapshot\",\"seq\":1,\"uptime_ms\":2,\
             \"metrics\":{\"x\":{\"kind\":\"counter\"}}}"
        )
        .is_err());
        assert!(validate_jsonl_line(
            "{\"type\":\"event\",\"kind\":\"e\",\"tag\":\"\",\"nanos\":1,\"fields\":{}}"
        )
        .is_err());
    }

    #[test]
    fn prometheus_rendering_validates_and_exposes_labels() {
        let reg = MetricRegistry::new();
        reg.counter("tuples_total{operator=source,partition=0}")
            .add(1234);
        reg.gauge("watermark_lag_ms{operator=agg,partition=1}")
            .set(-3);
        let h = reg.histogram("busy_nanos{operator=agg,partition=1}");
        h.record(50);
        h.record(5000);
        let text = render_prometheus(&reg.snapshot());
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE flowkv_tuples_total counter"));
        assert!(text.contains("flowkv_tuples_total{operator=\"source\",partition=\"0\"} 1234"));
        assert!(text.contains("# TYPE flowkv_busy_nanos summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("flowkv_busy_nanos_count{operator=\"agg\",partition=\"1\"} 2"));
        assert!(text.contains("flowkv_watermark_lag_ms{operator=\"agg\",partition=\"1\"} -3"));
    }

    #[test]
    fn prometheus_validator_rejects_bad_lines() {
        assert!(validate_prometheus("ok_metric 1\n").is_ok());
        assert!(validate_prometheus("bad metric name 1 2 3\n").is_err());
        assert!(validate_prometheus("metric{unclosed=\"v\" 1\n").is_err());
        assert!(validate_prometheus("metric{k=\"v\"} notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE x bogus\n").is_err());
        assert!(validate_prometheus("m{a=\"x\",b=\"y\"} 2.5 1700000000\n").is_ok());
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let doc = parse_json(
            "{\"a\": [1, 2.5, -3e2], \"s\": \"q\\\"uo\\u0041te\", \"n\": null, \"b\": true}",
        )
        .unwrap();
        let arr = match doc.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("q\"uoAte"));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{broken").is_err());
    }

    #[test]
    fn json_parser_refuses_deep_nesting_instead_of_overflowing_its_stack() {
        for open in ["[", "{\"a\":"] {
            let err = parse_json(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper"), "{open}: {err}");
        }
        let deepest = "[".repeat(MAX_JSON_DEPTH) + &"]".repeat(MAX_JSON_DEPTH);
        assert!(parse_json(&deepest).is_ok());
        let deeper = format!("[{deepest}]");
        assert!(parse_json(&deeper).is_err());
    }
}
