//! Causal span tracing with Chrome-trace export and critical-path
//! latency attribution.
//!
//! The telemetry registry (PR 3) answers *how much* — counters and
//! histograms aggregated over a run. This module answers *where the
//! time went* for an individual tuple batch: a sampled batch carries a
//! [`TraceCtx`] from the source through exchange, operator `on_batch`,
//! every store call, and (via submission tagging) into background
//! [`ioring`](crate::ioring) jobs, so a p999 spike decomposes into
//! queue wait, compute, store reads, prefetch-miss stalls, barrier
//! alignment, and exchange backpressure.
//!
//! Design rules, in decreasing order of importance:
//!
//! 1. **Off means free.** Tracing is off unless a [`Tracer`] is
//!    installed *and* the batch was sampled; untraced calls cost one
//!    thread-local read.
//! 2. **One clock, per-thread rings.** Every [`SpanRecorder`] shares
//!    the tracer's monotonic epoch but owns its ring
//!    (the same bounded-ring discipline as
//!    [`FlightRecorder`](crate::telemetry::FlightRecorder): oldest
//!    events drop first, drops are counted, never blocking the hot
//!    path on a global lock).
//! 3. **Timestamps never cross threads.** A begin/end span measures
//!    work on the recording thread only, so timestamps are monotone
//!    per tid by construction. Cross-thread intervals (channel queue
//!    wait, prefetch lateness) are recorded as *instant* events
//!    carrying the measured duration as an argument.
//!
//! Export is the Chrome trace-event JSON format (`ph: B/E/i/M`), which
//! Perfetto and `chrome://tracing` load directly: one `pid` per worker
//! process/shard, one `tid` per operator or ring thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::backend::{
    AggregateKind, AggregateUpdate, KeyFilter, PairSink, StateBackend, ValueSink, WindowChunk,
};
use crate::error::Result;
use crate::telemetry::{json_escape, parse_json, Json, Telemetry};
use crate::types::{Timestamp, WindowId};

/// Default per-thread span ring capacity (events, not spans; a span is
/// one begin plus one end event).
pub const DEFAULT_SPAN_RING_CAPACITY: usize = 65_536;

/// The causal context a sampled batch carries: the trace it belongs to
/// and the span to parent new work under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id; one per sampled source batch, never zero.
    pub trace: u64,
    /// Current parent span id; zero means "root of the trace".
    pub span: u64,
    /// Tracer nanos at which the trace was born (the source sealed the
    /// batch). Rides in the context so any hop — in particular the sink,
    /// several exchanges downstream — can stamp the end-to-end total
    /// without a side channel.
    pub born: u64,
}

/// Where an event sits in a span's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span opened on the recording thread.
    Begin,
    /// Span closed on the recording thread.
    End,
    /// A point event (Chrome `ph: "i"`).
    Instant,
}

/// One recorded event. Names and categories are `&'static str` so the
/// hot path never allocates for the common case.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Begin / end / instant.
    pub phase: SpanPhase,
    /// Nanoseconds since the tracer's epoch (one clock for all threads).
    pub nanos: u64,
    /// Span or event name, e.g. `"on_batch"`.
    pub name: &'static str,
    /// Attribution category: one of [`STAGES`] plus `"source"`, `"sink"`,
    /// `"io"`, `"recovery"`, `"migrate"`.
    pub cat: &'static str,
    /// Span id (shared by the begin and end events); zero for instants.
    pub id: u64,
    /// Parent span id; zero for roots.
    pub parent: u64,
    /// Owning trace id; zero for lifecycle spans outside any trace.
    pub trace: u64,
    /// Small integer arguments (durations, counts, barrier ids).
    pub args: Vec<(&'static str, i64)>,
}

/// Attribution stages reported by [`attribution`], in table order.
/// `other` is the residual of the end-to-end time no stage claimed.
pub const STAGES: [&str; 7] = [
    "queue",
    "exchange",
    "compute",
    "store",
    "prefetch_stall",
    "barrier",
    "other",
];

struct TracerCore {
    epoch: Instant,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    next_tid: AtomicU64,
    dropped: AtomicU64,
}

/// A handle a thread uses to record spans. Cheap to clone via `Arc`;
/// the ring itself is only contended by the export path.
pub struct SpanRecorder {
    pid: u32,
    tid: u32,
    name: String,
    capacity: usize,
    ring: Mutex<VecDeque<SpanEvent>>,
    core: Arc<TracerCore>,
}

/// An open span returned by [`SpanRecorder::begin`]; pass it back to
/// [`SpanRecorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    /// The span's id.
    pub id: u64,
    /// The owning trace (zero for lifecycle spans).
    pub trace: u64,
}

impl SpanRecorder {
    /// The worker/shard this thread belongs to (Chrome `pid`).
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The thread lane id (Chrome `tid`), unique within the tracer.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Human-readable thread name, e.g. `"window/p0"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nanoseconds since the tracer epoch.
    pub fn now_nanos(&self) -> u64 {
        self.core.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, event: SpanEvent) {
        let mut ring = self.ring.lock().expect("span ring lock");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.core.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Opens a span under `ctx` (or as a root when `ctx` is `None`).
    pub fn begin(&self, name: &'static str, cat: &'static str, ctx: Option<TraceCtx>) -> OpenSpan {
        self.begin_with(name, cat, ctx, Vec::new())
    }

    /// [`SpanRecorder::begin`] with arguments on the begin event.
    pub fn begin_with(
        &self,
        name: &'static str,
        cat: &'static str,
        ctx: Option<TraceCtx>,
        args: Vec<(&'static str, i64)>,
    ) -> OpenSpan {
        let id = self.core.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let (trace, parent) = match ctx {
            Some(c) => (c.trace, c.span),
            None => (0, 0),
        };
        self.push(SpanEvent {
            phase: SpanPhase::Begin,
            nanos: self.now_nanos(),
            name,
            cat,
            id,
            parent,
            trace,
            args,
        });
        OpenSpan { id, trace }
    }

    /// Closes `span`.
    pub fn end(&self, span: OpenSpan, name: &'static str, cat: &'static str) {
        self.end_with(span, name, cat, Vec::new());
    }

    /// Closes `span` with arguments on the end event.
    pub fn end_with(
        &self,
        span: OpenSpan,
        name: &'static str,
        cat: &'static str,
        args: Vec<(&'static str, i64)>,
    ) {
        self.push(SpanEvent {
            phase: SpanPhase::End,
            nanos: self.now_nanos(),
            name,
            cat,
            id: span.id,
            parent: 0,
            trace: span.trace,
            args,
        });
    }

    /// Records a point event.
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        ctx: Option<TraceCtx>,
        args: Vec<(&'static str, i64)>,
    ) {
        let (trace, parent) = match ctx {
            Some(c) => (c.trace, c.span),
            None => (0, 0),
        };
        self.push(SpanEvent {
            phase: SpanPhase::Instant,
            nanos: self.now_nanos(),
            name,
            cat,
            id: 0,
            parent,
            trace,
            args,
        });
    }

    /// Clones the ring's current contents, oldest first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.ring
            .lock()
            .expect("span ring lock")
            .iter()
            .cloned()
            .collect()
    }

    fn drain(&self) -> Vec<SpanEvent> {
        self.ring
            .lock()
            .expect("span ring lock")
            .drain(..)
            .collect()
    }
}

/// One thread's recorded events, as returned by [`Tracer::snapshot`].
#[derive(Clone, Debug)]
pub struct ThreadSpans {
    /// Worker/shard id.
    pub pid: u32,
    /// Thread lane id.
    pub tid: u32,
    /// Thread name.
    pub name: String,
    /// Events, oldest first.
    pub events: Vec<SpanEvent>,
}

/// The job-wide tracer: allocates trace/span ids from one sequence,
/// stamps every event against one monotonic epoch, and registers the
/// per-thread recorders so export can find them.
pub struct Tracer {
    core: Arc<TracerCore>,
    capacity: usize,
    recorders: Mutex<Vec<Arc<SpanRecorder>>>,
}

impl Tracer {
    /// A shared tracer with the default ring capacity.
    pub fn new() -> Arc<Tracer> {
        Tracer::with_capacity(DEFAULT_SPAN_RING_CAPACITY)
    }

    /// A shared tracer whose per-thread rings hold `capacity` events.
    pub fn with_capacity(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            core: Arc::new(TracerCore {
                epoch: Instant::now(),
                next_span: AtomicU64::new(0),
                next_trace: AtomicU64::new(0),
                next_tid: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
            capacity: capacity.max(16),
            recorders: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_nanos(&self) -> u64 {
        self.core.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates a fresh trace id (never zero).
    pub fn next_trace_id(&self) -> u64 {
        self.core.next_trace.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Registers a recorder for the calling thread under worker `pid`.
    pub fn thread(self: &Arc<Self>, pid: u32, name: &str) -> Arc<SpanRecorder> {
        let tid = self.core.next_tid.fetch_add(1, Ordering::Relaxed) as u32 + 1;
        let recorder = Arc::new(SpanRecorder {
            pid,
            tid,
            name: name.to_string(),
            capacity: self.capacity,
            ring: Mutex::new(VecDeque::new()),
            core: Arc::clone(&self.core),
        });
        self.recorders
            .lock()
            .expect("tracer registry lock")
            .push(Arc::clone(&recorder));
        recorder
    }

    /// Events dropped across all rings since the tracer was built.
    pub fn dropped(&self) -> u64 {
        self.core.dropped.load(Ordering::Relaxed)
    }

    /// Clones every thread's events without consuming them — what the
    /// serving layer reads from a live job.
    pub fn snapshot(&self) -> Vec<ThreadSpans> {
        self.recorders
            .lock()
            .expect("tracer registry lock")
            .iter()
            .map(|r| ThreadSpans {
                pid: r.pid,
                tid: r.tid,
                name: r.name.clone(),
                events: r.snapshot(),
            })
            .collect()
    }

    /// Takes every thread's events, leaving the rings empty.
    pub fn drain(&self) -> Vec<ThreadSpans> {
        self.recorders
            .lock()
            .expect("tracer registry lock")
            .iter()
            .map(|r| ThreadSpans {
                pid: r.pid,
                tid: r.tid,
                name: r.name.clone(),
                events: r.drain(),
            })
            .collect()
    }

    /// Spans currently open (begun, not yet ended) across all threads —
    /// the post-mortem payload the supervisor dumps on a crash.
    pub fn open_spans(&self) -> Vec<(u32, u32, SpanEvent)> {
        let mut open = Vec::new();
        for t in self.snapshot() {
            let mut begun: Vec<SpanEvent> = Vec::new();
            for ev in t.events {
                match ev.phase {
                    SpanPhase::Begin => begun.push(ev),
                    SpanPhase::End => begun.retain(|b| b.id != ev.id),
                    SpanPhase::Instant => {}
                }
            }
            open.extend(begun.into_iter().map(|ev| (t.pid, t.tid, ev)));
        }
        open
    }
}

/// A tracer plus the worker id its threads register under; this is what
/// rides on [`Telemetry`] so stores and rings reached only through
/// their telemetry handle can still record spans.
#[derive(Clone)]
pub struct TraceHandle {
    /// The shared tracer.
    pub tracer: Arc<Tracer>,
    /// Chrome `pid` for threads registered through this handle.
    pub pid: u32,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("pid", &self.pid)
            .finish()
    }
}

impl TraceHandle {
    /// Registers the calling thread.
    pub fn thread(&self, name: &str) -> Arc<SpanRecorder> {
        self.tracer.thread(self.pid, name)
    }
}

// ---------------------------------------------------------------------
// Thread-local active context
// ---------------------------------------------------------------------

/// Store operations cheap and frequent enough that a span per call
/// would dominate the call itself: a per-tuple append is ~100ns of
/// buffer work, while a span is two ring pushes plus two clock reads.
/// These accumulate per kind inside the active scope and flush as one
/// `store`-category instant each when the scope ends, carrying
/// `("nanos", total)` and `("count", n)` — the attribution pass charges
/// the aggregate exactly as it would the individual spans.
const COALESCED_OPS: [&str; 6] = [
    "store_append",
    "store_take_values",
    "store_peek_values",
    "store_take_agg",
    "store_put_agg",
    "store_update_agg",
];

struct Active {
    recorder: Arc<SpanRecorder>,
    ctx: TraceCtx,
    /// (nanos, calls) per entry of [`COALESCED_OPS`].
    acc: [(u64, u64); COALESCED_OPS.len()],
}

thread_local! {
    static ACTIVE: std::cell::RefCell<Option<Active>> = const { std::cell::RefCell::new(None) };
}

/// Restores the previously active context on drop. Not `Send`: the
/// scope must end on the thread that entered it.
pub struct ActiveScope {
    prev: Option<Active>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Makes `ctx` the calling thread's active trace context; store calls,
/// prefetch instants, and ioring submissions made while the scope is
/// alive attach to it.
pub fn enter(recorder: &Arc<SpanRecorder>, ctx: TraceCtx) -> ActiveScope {
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(Active {
            recorder: Arc::clone(recorder),
            ctx,
            acc: [(0, 0); COALESCED_OPS.len()],
        })
    });
    ActiveScope {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ActiveScope {
    fn drop(&mut self) {
        let out = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), self.prev.take()));
        // Flush the scope's coalesced store-op aggregates under the
        // context it was entered with (end_here restored `ctx.span`).
        if let Some(active) = out {
            for (name, &(nanos, count)) in COALESCED_OPS.iter().zip(&active.acc) {
                if count > 0 {
                    active.recorder.instant(
                        name,
                        "store",
                        Some(active.ctx),
                        vec![("nanos", nanos as i64), ("count", count as i64)],
                    );
                }
            }
        }
    }
}

fn coalesced_begin() -> Option<u64> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|act| act.recorder.now_nanos()))
}

fn coalesced_end(idx: usize, started: Option<u64>) {
    let Some(started) = started else { return };
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            let dt = active.recorder.now_nanos().saturating_sub(started);
            active.acc[idx].0 += dt;
            active.acc[idx].1 += 1;
        }
    });
}

/// The calling thread's active context, if a sampled batch is in
/// flight.
pub fn current() -> Option<TraceCtx> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|s| s.ctx))
}

/// Records a point event against the active context; no-op when the
/// thread is untraced.
pub fn instant_here(name: &'static str, cat: &'static str, args: &[(&'static str, i64)]) {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow().as_ref() {
            active
                .recorder
                .instant(name, cat, Some(active.ctx), args.to_vec());
        }
    });
}

/// A span opened by [`begin_here`]; close it with [`end_here`].
pub struct HereSpan {
    open: OpenSpan,
    name: &'static str,
    cat: &'static str,
    prev_span: u64,
}

/// Opens a child span of the active context and makes it the new
/// parent for nested work; returns `None` when the thread is untraced.
pub fn begin_here(name: &'static str, cat: &'static str) -> Option<HereSpan> {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let active = slot.as_mut()?;
        let open = active.recorder.begin(name, cat, Some(active.ctx));
        let prev_span = active.ctx.span;
        active.ctx.span = open.id;
        Some(HereSpan {
            open,
            name,
            cat,
            prev_span,
        })
    })
}

/// Closes a span opened by [`begin_here`], restoring the previous
/// parent. Accepts `None` so call sites stay branch-free.
pub fn end_here(span: Option<HereSpan>, args: &[(&'static str, i64)]) {
    let Some(span) = span else { return };
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        if let Some(active) = slot.as_mut() {
            active.ctx.span = span.prev_span;
            active
                .recorder
                .end_with(span.open, span.name, span.cat, args.to_vec());
        }
    });
}

// ---------------------------------------------------------------------
// Traced store wrapper
// ---------------------------------------------------------------------

/// Wraps any [`StateBackend`] so every store call made while a sampled
/// batch is active records a `store`-category span. When the thread is
/// untraced the wrapper costs one thread-local read per call.
pub struct TracedBackend {
    inner: Box<dyn StateBackend>,
}

impl TracedBackend {
    /// Wraps `inner`.
    pub fn wrap(inner: Box<dyn StateBackend>) -> Box<dyn StateBackend> {
        Box::new(TracedBackend { inner })
    }
}

macro_rules! traced_op {
    ($self:ident, $name:literal, $cat:literal, $call:expr) => {{
        let span = begin_here($name, $cat);
        let out = $call;
        end_here(span, &[("ok", out.is_ok() as i64)]);
        out
    }};
}

/// Per-tuple-frequency ops: accumulate into the active scope instead of
/// recording a span per call (see [`COALESCED_OPS`]).
macro_rules! coalesced_op {
    ($idx:expr, $call:expr) => {{
        let started = coalesced_begin();
        let out = $call;
        coalesced_end($idx, started);
        out
    }};
}

impl StateBackend for TracedBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        coalesced_op!(0, self.inner.append(key, window, value, ts))
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        traced_op!(
            self,
            "store_get_window",
            "store",
            self.inner.get_window_chunk(window)
        )
    }

    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        traced_op!(
            self,
            "store_get_window",
            "store",
            self.inner.drain_window_chunk(window, sink)
        )
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        coalesced_op!(1, self.inner.take_values(key, window))
    }

    fn take_values_with(
        &mut self,
        key: &[u8],
        window: WindowId,
        sink: ValueSink<'_>,
    ) -> Result<usize> {
        coalesced_op!(1, self.inner.take_values_with(key, window, sink))
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        coalesced_op!(2, self.inner.peek_values(key, window))
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        coalesced_op!(3, self.inner.take_aggregate(key, window))
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        coalesced_op!(4, self.inner.put_aggregate(key, window, aggregate))
    }

    fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        update: AggregateUpdate<'_>,
    ) -> Result<()> {
        coalesced_op!(5, self.inner.update_aggregate(key, window, update))
    }

    fn flush(&mut self) -> Result<()> {
        traced_op!(self, "store_flush", "store", self.inner.flush())
    }

    fn read_view(&mut self) -> Result<Option<crate::registry::StateView>> {
        self.inner.read_view()
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<crate::backend::StateEntry>> {
        self.inner.extract_range(in_range, kind)
    }

    fn inject_entries(&mut self, entries: Vec<crate::backend::StateEntry>) -> Result<()> {
        self.inner.inject_entries(entries)
    }

    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        traced_op!(
            self,
            "advance_prefetch",
            "prefetch",
            self.inner.advance_prefetch(stream_time)
        )
    }

    fn warm(&mut self, pairs: &[(&[u8], WindowId)]) -> Result<()> {
        traced_op!(self, "store_warm", "prefetch", self.inner.warm(pairs))
    }

    fn wants_warm(&self) -> bool {
        self.inner.wants_warm()
    }

    fn metrics(&self) -> Arc<crate::metrics::StoreMetrics> {
        self.inner.metrics()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn checkpoint(&mut self, dir: &std::path::Path) -> Result<()> {
        traced_op!(
            self,
            "store_checkpoint",
            "barrier",
            self.inner.checkpoint(dir)
        )
    }

    fn restore(&mut self, dir: &std::path::Path) -> Result<()> {
        self.inner.restore(dir)
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

fn write_args(out: &mut String, ev: &SpanEvent, parent: u64) {
    out.push_str(&format!(
        "{{\"span\":{},\"parent\":{},\"trace\":{}",
        ev.id, parent, ev.trace
    ));
    for (k, v) in &ev.args {
        out.push_str(&format!(",\"{}\":{}", json_escape(k), v));
    }
    out.push('}');
}

/// Serializes `threads` as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` envelope Perfetto loads).
///
/// Ring wraparound can leave an `End` whose `Begin` was evicted, and a
/// live snapshot can hold a `Begin` whose `End` has not happened; both
/// are dropped so the emitted file always has matching begin/end pairs
/// with stack discipline per tid. Parent ids that no longer resolve
/// (the parent's begin was evicted) are rewritten to zero.
pub fn chrome_trace_json(threads: &[ThreadSpans]) -> String {
    // First pass: which span ids survive with both events present?
    let mut emitted = std::collections::HashSet::new();
    for t in threads {
        let mut begun = std::collections::HashSet::new();
        for ev in &t.events {
            match ev.phase {
                SpanPhase::Begin => {
                    begun.insert(ev.id);
                }
                SpanPhase::End => {
                    if begun.contains(&ev.id) {
                        emitted.insert(ev.id);
                    }
                }
                SpanPhase::Instant => {}
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for t in threads {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                t.pid,
                t.tid,
                json_escape(&t.name)
            ),
            &mut first,
        );
        for ev in &t.events {
            let ts = ev.nanos as f64 / 1000.0;
            let parent = if emitted.contains(&ev.parent) {
                ev.parent
            } else {
                0
            };
            match ev.phase {
                SpanPhase::Begin | SpanPhase::End => {
                    if !emitted.contains(&ev.id) {
                        continue;
                    }
                    let ph = if ev.phase == SpanPhase::Begin {
                        "B"
                    } else {
                        "E"
                    };
                    let mut line = format!(
                        "{{\"ph\":\"{}\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"args\":",
                        ph, json_escape(ev.name), json_escape(ev.cat), t.pid, t.tid, ts
                    );
                    write_args(&mut line, ev, parent);
                    line.push('}');
                    push(line, &mut first);
                }
                SpanPhase::Instant => {
                    let mut line = format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"args\":",
                        json_escape(ev.name), json_escape(ev.cat), t.pid, t.tid, ts
                    );
                    write_args(&mut line, ev, parent);
                    line.push('}');
                    push(line, &mut first);
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// A parsed Chrome trace event — the analyzer-side mirror of
/// [`SpanEvent`] with owned strings.
#[derive(Clone, Debug)]
pub struct ChromeEvent {
    /// `B`, `E`, or `i`.
    pub ph: char,
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Worker id.
    pub pid: u32,
    /// Thread lane.
    pub tid: u32,
    /// Nanoseconds (converted back from the microsecond `ts`).
    pub nanos: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id.
    pub parent: u64,
    /// Trace id.
    pub trace: u64,
    /// Remaining integer args.
    pub args: Vec<(String, i64)>,
}

fn event_arg(obj: &Json, key: &str) -> u64 {
    obj.get("args")
        .and_then(|a| a.get(key))
        .and_then(|v| v.as_i64())
        .unwrap_or(0) as u64
}

/// Summary counts from a validated trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events (including metadata).
    pub events: u64,
    /// Matched begin/end span pairs.
    pub spans: u64,
    /// Distinct pids.
    pub pids: u64,
    /// Distinct (pid, tid) lanes.
    pub lanes: u64,
}

/// Parses and schema-validates Chrome trace JSON: every event has the
/// required fields, begin/end events nest with stack discipline per
/// `(pid, tid)`, timestamps are monotone per lane, no span is left
/// open, and every nonzero parent id resolves to a span in the file.
pub fn validate_chrome_trace(text: &str) -> std::result::Result<ChromeTraceStats, String> {
    let events = parse_chrome_trace(text)?;
    let mut stats = ChromeTraceStats {
        events: events.len() as u64,
        ..Default::default()
    };
    let mut lanes: std::collections::HashMap<(u32, u32), (u64, Vec<u64>)> =
        std::collections::HashMap::new();
    let mut pids = std::collections::HashSet::new();
    let mut span_ids = std::collections::HashSet::new();
    for ev in &events {
        if ev.ph == 'B' {
            span_ids.insert(ev.span);
        }
    }
    for (i, ev) in events.iter().enumerate() {
        pids.insert(ev.pid);
        let lane = lanes.entry((ev.pid, ev.tid)).or_insert((0, Vec::new()));
        if ev.nanos < lane.0 {
            return Err(format!(
                "event {i} ({}): timestamp regressed on pid {} tid {} ({} < {})",
                ev.name, ev.pid, ev.tid, ev.nanos, lane.0
            ));
        }
        lane.0 = ev.nanos;
        match ev.ph {
            'B' => {
                lane.1.push(ev.span);
                stats.spans += 1;
            }
            'E' => match lane.1.pop() {
                Some(top) if top == ev.span => {}
                Some(top) => {
                    return Err(format!(
                        "event {i} ({}): end of span {} but span {} is open on pid {} tid {}",
                        ev.name, ev.span, top, ev.pid, ev.tid
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i} ({}): end of span {} with no open span on pid {} tid {}",
                        ev.name, ev.span, ev.pid, ev.tid
                    ));
                }
            },
            'i' => {}
            ph => return Err(format!("event {i}: unsupported phase {ph:?}")),
        }
        if ev.parent != 0 && !span_ids.contains(&ev.parent) {
            return Err(format!(
                "event {i} ({}): parent span {} does not resolve",
                ev.name, ev.parent
            ));
        }
    }
    for ((pid, tid), (_, stack)) in &lanes {
        if !stack.is_empty() {
            return Err(format!(
                "pid {pid} tid {tid}: {} span(s) left open ({:?})",
                stack.len(),
                stack
            ));
        }
    }
    stats.pids = pids.len() as u64;
    stats.lanes = lanes.len() as u64;
    Ok(stats)
}

/// Parses Chrome trace JSON into [`ChromeEvent`]s, skipping metadata
/// (`M`) records. Accepts both the object envelope and a bare array.
pub fn parse_chrome_trace(text: &str) -> std::result::Result<Vec<ChromeEvent>, String> {
    let root = parse_json(text)?;
    let items = match &root {
        Json::Arr(items) => items,
        _ => match root.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            _ => return Err("missing traceEvents array".to_string()),
        },
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let ph = item
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let ph = ph
            .chars()
            .next()
            .ok_or_else(|| format!("event {i}: empty ph"))?;
        if ph == 'M' {
            continue;
        }
        let name = item
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        let pid = item
            .get("pid")
            .and_then(|v| v.as_i64())
            .ok_or_else(|| format!("event {i}: missing pid"))? as u32;
        let tid = item
            .get("tid")
            .and_then(|v| v.as_i64())
            .ok_or_else(|| format!("event {i}: missing tid"))? as u32;
        let ts = item
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        let cat = item
            .get("cat")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        let mut args = Vec::new();
        if let Some(Json::Obj(members)) = item.get("args") {
            for (k, v) in members {
                if let (Some(n), false) = (
                    v.as_i64(),
                    matches!(k.as_str(), "span" | "parent" | "trace"),
                ) {
                    args.push((k.clone(), n));
                }
            }
        }
        out.push(ChromeEvent {
            ph,
            name,
            cat,
            pid,
            tid,
            nanos: (ts * 1000.0).round() as u64,
            span: event_arg(item, "span"),
            parent: event_arg(item, "parent"),
            trace: event_arg(item, "trace"),
            args,
        });
    }
    Ok(out)
}

/// Converts in-memory [`ThreadSpans`] to analyzer events without a
/// JSON round trip — the serving layer's path from a live tracer
/// snapshot to an attribution table.
pub fn flatten(threads: &[ThreadSpans]) -> Vec<ChromeEvent> {
    parse_chrome_trace(&chrome_trace_json(threads)).unwrap_or_default()
}

// ---------------------------------------------------------------------
// Critical-path latency attribution
// ---------------------------------------------------------------------

/// Per-stage statistics across all sampled batches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttributionRow {
    /// Stage name (one of [`STAGES`], or `"total"`).
    pub stage: String,
    /// Batches with a nonzero contribution from this stage.
    pub count: u64,
    /// Median per-batch nanoseconds.
    pub p50: u64,
    /// 99th-percentile per-batch nanoseconds.
    pub p99: u64,
    /// 99.9th-percentile per-batch nanoseconds.
    pub p999: u64,
    /// Sum over all batches, nanoseconds.
    pub total_nanos: u64,
}

/// The latency-attribution table: where end-to-end batch time went.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Sampled batches reconstructed.
    pub traces: u64,
    /// One row per stage, in [`STAGES`] order.
    pub rows: Vec<AttributionRow>,
    /// End-to-end totals.
    pub total: AttributionRow,
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn row_from(stage: &str, mut samples: Vec<u64>) -> AttributionRow {
    samples.retain(|&v| v > 0);
    samples.sort_unstable();
    AttributionRow {
        stage: stage.to_string(),
        count: samples.len() as u64,
        p50: nearest_rank(&samples, 0.50),
        p99: nearest_rank(&samples, 0.99),
        p999: nearest_rank(&samples, 0.999),
        total_nanos: samples.iter().sum(),
    }
}

#[derive(Default)]
struct TraceAcc {
    born: u64,
    done: u64,
    stage: [u64; 6], // queue, exchange, compute, store, prefetch_stall, barrier (pre-residual)
    lanes: std::collections::HashSet<(u32, u32)>,
}

/// Reconstructs per-batch critical paths from analyzer events and
/// aggregates them into the per-stage attribution table.
///
/// Stage accounting rules (documented in DESIGN.md §10):
/// - `queue` sums `queue_wait` instants (channel residency measured at
///   the receiver against the sender's stamp);
/// - `exchange` sums `exchange_send` spans (send-side backpressure);
/// - `store` sums `store`-category spans plus the coalesced per-op
///   aggregate instants (`("nanos", _)`), net of prefetch stalls;
/// - `prefetch_stall` sums `prefetch_stall` instants (sync waits on a
///   background read that arrived late);
/// - `compute` is `compute`-category span time net of the store and
///   prefetch spans nested inside it;
/// - `barrier` is `barrier`-category span time overlapping the batch's
///   lifetime on lanes the batch touched;
/// - `other` is the unclaimed residual of the end-to-end time.
pub fn attribution(events: &[ChromeEvent]) -> Attribution {
    use std::collections::HashMap;
    let mut traces: HashMap<u64, TraceAcc> = HashMap::new();
    // Pair begin/end per (pid, tid) to get span durations.
    let mut open: HashMap<(u32, u32), Vec<&ChromeEvent>> = HashMap::new();
    struct DoneSpan {
        pid: u32,
        tid: u32,
        cat: String,
        trace: u64,
        start: u64,
        end: u64,
    }
    let mut spans: Vec<DoneSpan> = Vec::new();
    for ev in events {
        match ev.ph {
            'B' => open.entry((ev.pid, ev.tid)).or_default().push(ev),
            'E' => {
                if let Some(b) = open.entry((ev.pid, ev.tid)).or_default().pop() {
                    spans.push(DoneSpan {
                        pid: ev.pid,
                        tid: ev.tid,
                        cat: b.cat.clone(),
                        trace: b.trace,
                        start: b.nanos,
                        end: ev.nanos,
                    });
                }
            }
            'i' => {
                if ev.trace == 0 {
                    continue;
                }
                let acc = traces.entry(ev.trace).or_default();
                acc.lanes.insert((ev.pid, ev.tid));
                let arg = |key: &str| {
                    ev.args
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| (*v).max(0) as u64)
                        .unwrap_or(0)
                };
                match ev.name.as_str() {
                    "queue_wait" => acc.stage[0] += arg("wait"),
                    "prefetch_stall" => acc.stage[4] += arg("stall"),
                    "batch_done" => {
                        let total = arg("total");
                        acc.done = acc.done.max(ev.nanos);
                        let born = ev.nanos.saturating_sub(total);
                        if acc.born == 0 || born < acc.born {
                            acc.born = born;
                        }
                    }
                    // Coalesced store-op aggregates: per-tuple ops too
                    // cheap for a span each flush as one instant per
                    // kind carrying their summed nanoseconds.
                    _ if ev.cat == "store" => acc.stage[3] += arg("nanos"),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    for s in &spans {
        if s.trace == 0 {
            continue;
        }
        let acc = traces.entry(s.trace).or_default();
        acc.lanes.insert((s.pid, s.tid));
        let dur = s.end.saturating_sub(s.start);
        match s.cat.as_str() {
            "exchange" => acc.stage[1] += dur,
            "compute" => acc.stage[2] += dur,
            "store" => acc.stage[3] += dur,
            // Prefetch spans (advance/warm) nest inside compute; they
            // are subtracted from compute below but the stall share is
            // carried by prefetch_stall instants, so nothing adds here.
            _ => {}
        }
    }
    // compute net of nested store + prefetch spans on the same lanes.
    let mut nested: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        if s.trace != 0 && matches!(s.cat.as_str(), "store" | "prefetch") {
            *nested.entry(s.trace).or_default() += s.end.saturating_sub(s.start);
        }
    }
    // Coalesced store aggregates spent their time inside the enclosing
    // compute span too, so they subtract just like nested spans.
    for ev in events {
        if ev.ph == 'i' && ev.trace != 0 && ev.cat == "store" {
            let nanos = ev
                .args
                .iter()
                .find(|(k, _)| k == "nanos")
                .map(|(_, v)| (*v).max(0) as u64)
                .unwrap_or(0);
            *nested.entry(ev.trace).or_default() += nanos;
        }
    }
    // Barrier overlap with each trace's lifetime, on lanes it touched.
    for s in &spans {
        if s.cat != "barrier" {
            continue;
        }
        for acc in traces.values_mut() {
            if acc.done == 0 || !acc.lanes.contains(&(s.pid, s.tid)) {
                continue;
            }
            let lo = s.start.max(acc.born);
            let hi = s.end.min(acc.done);
            if hi > lo {
                acc.stage[5] += hi - lo;
            }
        }
    }
    let mut per_stage: Vec<Vec<u64>> = vec![Vec::new(); STAGES.len()];
    let mut totals: Vec<u64> = Vec::new();
    for (id, acc) in &traces {
        if acc.done == 0 || acc.done <= acc.born {
            continue;
        }
        let total = acc.done - acc.born;
        let nested_dur = *nested.get(id).unwrap_or(&0);
        // A stage claims no more of the trace's lifetime than is left of
        // it, so the rows decompose the total whatever the spans say: a
        // fire's `on_watermark` span encloses its sends and ends after
        // the sink has completed the trace, and when an idle worker
        // picks the watermark up at once nothing else is there to absorb
        // the overrun. The enclosing compute span claims last.
        let mut left = total;
        let mut claim = |nanos: u64| {
            let claimed = nanos.min(left);
            left -= claimed;
            claimed
        };
        let queue = claim(acc.stage[0]);
        let exchange = claim(acc.stage[1]);
        let stall = claim(acc.stage[4]);
        let store = claim(acc.stage[3].saturating_sub(acc.stage[4]));
        let barrier = claim(acc.stage[5]);
        let compute = claim(acc.stage[2].saturating_sub(nested_dur));
        let other = left;
        for (slot, value) in per_stage
            .iter_mut()
            .zip([queue, exchange, compute, store, stall, barrier, other])
        {
            slot.push(value);
        }
        totals.push(total);
    }
    let traces_count = totals.len() as u64;
    Attribution {
        traces: traces_count,
        rows: STAGES
            .iter()
            .zip(per_stage)
            .map(|(stage, samples)| row_from(stage, samples))
            .collect(),
        total: row_from("total", totals),
    }
}

/// Renders the attribution table as aligned text, shares computed
/// against the end-to-end total.
pub fn render_attribution(a: &Attribution) -> String {
    let mut out = String::new();
    out.push_str(&format!("sampled batches: {}\n", a.traces));
    out.push_str(&format!(
        "{:<15} {:>8} {:>12} {:>12} {:>12} {:>8}\n",
        "stage", "batches", "p50_us", "p99_us", "p999_us", "share"
    ));
    let grand = a.total.total_nanos.max(1);
    for row in a.rows.iter().chain(std::iter::once(&a.total)) {
        out.push_str(&format!(
            "{:<15} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>7.1}%\n",
            row.stage,
            row.count,
            row.p50 as f64 / 1000.0,
            row.p99 as f64 / 1000.0,
            row.p999 as f64 / 1000.0,
            row.total_nanos as f64 * 100.0 / grand as f64,
        ));
    }
    out
}

/// Dumps post-mortem context to stderr as JSONL: the flight-recorder
/// ring, then every open span. Called by the supervisor when a worker
/// panic is caught so the last moments of the job are not discarded.
pub fn dump_crash_context(telemetry: &Telemetry) {
    let events = telemetry.recorder().drain();
    eprintln!(
        "{{\"crash_dump\":\"flight_recorder\",\"events\":{},\"dropped\":{}}}",
        events.len(),
        telemetry.recorder().dropped()
    );
    for ev in &events {
        eprintln!("{}", crate::telemetry::event_json(ev));
    }
    if let Some(handle) = telemetry.trace() {
        let open = handle.tracer.open_spans();
        eprintln!("{{\"crash_dump\":\"open_spans\",\"count\":{}}}", open.len());
        for (pid, tid, ev) in open {
            let mut args = String::new();
            for (k, v) in &ev.args {
                args.push_str(&format!(",\"{}\":{}", json_escape(k), v));
            }
            eprintln!(
                "{{\"open_span\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"span\":{},\"parent\":{},\"trace\":{},\"begin_nanos\":{}{}}}",
                json_escape(ev.name),
                json_escape(ev.cat),
                pid,
                tid,
                ev.id,
                ev.parent,
                ev.trace,
                ev.nanos,
                args
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let tracer = Tracer::new();
        let rec = tracer.thread(0, "t");
        let a = rec.begin("a", "compute", None);
        let b = rec.begin("b", "compute", None);
        assert_ne!(a.id, 0);
        assert_ne!(a.id, b.id);
        assert_ne!(tracer.next_trace_id(), 0);
        rec.end(b, "b", "compute");
        rec.end(a, "a", "compute");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tracer = Tracer::with_capacity(16);
        let rec = tracer.thread(0, "t");
        for _ in 0..20 {
            let s = rec.begin("x", "compute", None);
            rec.end(s, "x", "compute");
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 16);
        assert_eq!(tracer.dropped(), 24);
        // Order survives wraparound: timestamps never regress.
        for pair in events.windows(2) {
            assert!(pair[0].nanos <= pair[1].nanos);
        }
    }

    #[test]
    fn open_spans_reported() {
        let tracer = Tracer::new();
        let rec = tracer.thread(0, "t");
        let outer = rec.begin("outer", "compute", None);
        let inner = rec.begin("inner", "store", None);
        rec.end(inner, "inner", "store");
        assert_eq!(tracer.open_spans().len(), 1);
        assert_eq!(tracer.open_spans()[0].2.name, "outer");
        rec.end(outer, "outer", "compute");
        assert!(tracer.open_spans().is_empty());
    }

    #[test]
    fn thread_local_context_nests_and_restores() {
        let tracer = Tracer::new();
        let rec = tracer.thread(0, "t");
        assert!(current().is_none());
        assert!(begin_here("noop", "store").is_none());
        let ctx = TraceCtx {
            trace: 7,
            span: 0,
            born: 0,
        };
        {
            let _scope = enter(&rec, ctx);
            assert_eq!(current(), Some(ctx));
            let outer = begin_here("outer", "compute");
            let outer_id = current().unwrap().span;
            assert_ne!(outer_id, 0);
            let inner = begin_here("inner", "store");
            assert_ne!(current().unwrap().span, outer_id);
            end_here(inner, &[]);
            assert_eq!(current().unwrap().span, outer_id);
            end_here(outer, &[("n", 3)]);
            assert_eq!(current(), Some(ctx));
            instant_here("tick", "queue", &[("wait", 10)]);
        }
        assert!(current().is_none());
        let events = rec.snapshot();
        assert_eq!(events.len(), 5);
        assert!(events.iter().all(|e| e.trace == 7));
    }

    #[test]
    fn chrome_export_round_trips_and_validates() {
        let tracer = Tracer::new();
        let rec = tracer.thread(3, "worker");
        let ctx = TraceCtx {
            trace: 1,
            span: 0,
            born: 0,
        };
        let outer = rec.begin("on_batch", "compute", Some(ctx));
        let inner = rec.begin(
            "store_take_values",
            "store",
            Some(TraceCtx {
                trace: 1,
                span: outer.id,
                born: 0,
            }),
        );
        rec.end(inner, "store_take_values", "store");
        rec.instant("queue_wait", "queue", Some(ctx), vec![("wait", 42)]);
        rec.end(outer, "on_batch", "compute");
        let json = chrome_trace_json(&tracer.snapshot());
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.pids, 1);
        let events = parse_chrome_trace(&json).unwrap();
        let nested = events
            .iter()
            .find(|e| e.name == "store_take_values" && e.ph == 'B')
            .unwrap();
        assert_eq!(nested.parent, outer.id);
        assert_eq!(nested.trace, 1);
    }

    #[test]
    fn export_drops_unmatched_halves() {
        let tracer = Tracer::with_capacity(16);
        let rec = tracer.thread(0, "t");
        let open = rec.begin("still_open", "compute", None);
        for _ in 0..20 {
            let s = rec.begin("x", "compute", None);
            rec.end(s, "x", "compute");
        }
        // `still_open` has no end; wraparound also evicted early begins.
        let json = chrome_trace_json(&tracer.snapshot());
        validate_chrome_trace(&json).expect("sanitized export validates");
        rec.end(open, "still_open", "compute");
    }

    #[test]
    fn validator_rejects_bad_traces() {
        let bad = r#"{"traceEvents":[
            {"ph":"E","name":"x","pid":0,"tid":0,"ts":1.0,"args":{"span":9}}
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no open span"));
        let regress = r#"{"traceEvents":[
            {"ph":"B","name":"a","pid":0,"tid":0,"ts":5.0,"args":{"span":1}},
            {"ph":"E","name":"a","pid":0,"tid":0,"ts":4.0,"args":{"span":1}}
        ]}"#;
        assert!(validate_chrome_trace(regress)
            .unwrap_err()
            .contains("regressed"));
        let unresolved = r#"{"traceEvents":[
            {"ph":"i","s":"t","name":"x","pid":0,"tid":0,"ts":1.0,"args":{"parent":77}}
        ]}"#;
        assert!(validate_chrome_trace(unresolved)
            .unwrap_err()
            .contains("does not resolve"));
    }

    #[test]
    fn attribution_decomposes_a_synthetic_batch() {
        // One trace: born at 0, done at 1000ns; queue 100, compute span
        // 400 containing a 150ns store span, barrier span overlapping
        // 50ns on the same lane.
        let json = r#"{"traceEvents":[
            {"ph":"i","s":"t","name":"queue_wait","cat":"queue","pid":0,"tid":1,"ts":0.3,"args":{"trace":1,"wait":100}},
            {"ph":"B","name":"on_batch","cat":"compute","pid":0,"tid":1,"ts":0.3,"args":{"span":10,"trace":1}},
            {"ph":"B","name":"store_take_values","cat":"store","pid":0,"tid":1,"ts":0.4,"args":{"span":11,"parent":10,"trace":1}},
            {"ph":"E","name":"store_take_values","cat":"store","pid":0,"tid":1,"ts":0.55,"args":{"span":11,"trace":1}},
            {"ph":"E","name":"on_batch","cat":"compute","pid":0,"tid":1,"ts":0.7,"args":{"span":10,"trace":1}},
            {"ph":"B","name":"barrier_align","cat":"barrier","pid":0,"tid":1,"ts":0.7,"args":{"span":12}},
            {"ph":"E","name":"barrier_align","cat":"barrier","pid":0,"tid":1,"ts":0.75,"args":{"span":12}},
            {"ph":"i","s":"t","name":"batch_done","cat":"sink","pid":0,"tid":2,"ts":1.0,"args":{"trace":1,"total":1000}}
        ]}"#;
        let events = parse_chrome_trace(json).unwrap();
        let a = attribution(&events);
        assert_eq!(a.traces, 1);
        let get = |stage: &str| {
            a.rows
                .iter()
                .find(|r| r.stage == stage)
                .map(|r| r.total_nanos)
                .unwrap()
        };
        assert_eq!(get("queue"), 100);
        assert_eq!(get("store"), 150);
        assert_eq!(get("compute"), 250);
        assert_eq!(get("barrier"), 50);
        assert_eq!(get("prefetch_stall"), 0);
        assert_eq!(a.total.total_nanos, 1000);
        // Stages plus residual reconcile exactly with the total.
        let claimed: u64 = a.rows.iter().map(|r| r.total_nanos).sum();
        assert_eq!(claimed, a.total.total_nanos);
        let table = render_attribution(&a);
        assert!(table.contains("prefetch_stall"));
        assert!(table.contains("total"));
    }

    #[test]
    fn attribution_rows_sum_to_the_total_when_a_span_outlives_its_trace() {
        // A fire picked up the instant its watermark left the source:
        // the span holds the send inside it and ends 300 ns after the
        // sink completed the trace, 600 ns after it was born.
        let json = r#"{"traceEvents":[
            {"ph":"B","name":"on_watermark","cat":"compute","pid":0,"tid":1,"ts":1.0,"args":{"span":10,"trace":7}},
            {"ph":"B","name":"exchange_send","cat":"exchange","pid":0,"tid":1,"ts":1.4,"args":{"span":11,"parent":10,"trace":7}},
            {"ph":"i","s":"t","name":"queue_wait","cat":"queue","pid":0,"tid":2,"ts":1.5,"args":{"trace":7,"wait":50}},
            {"ph":"i","s":"t","name":"batch_done","cat":"sink","pid":0,"tid":2,"ts":1.6,"args":{"trace":7,"total":600}},
            {"ph":"E","name":"exchange_send","cat":"exchange","pid":0,"tid":1,"ts":1.8,"args":{"span":11,"trace":7}},
            {"ph":"E","name":"on_watermark","cat":"compute","pid":0,"tid":1,"ts":1.9,"args":{"span":10,"trace":7}}
        ]}"#;
        let a = attribution(&parse_chrome_trace(json).unwrap());
        assert_eq!((a.traces, a.total.total_nanos), (1, 600));
        let rows: Vec<u64> = a.rows.iter().map(|r| r.total_nanos).collect();
        // Queue 50 and exchange 400 claim first; compute, the enclosing
        // span, gets what is left of the 600.
        assert_eq!(rows, [50, 400, 150, 0, 0, 0, 0]);
    }

    #[test]
    fn traced_backend_is_transparent_when_untraced() {
        struct Null;
        impl StateBackend for Null {
            fn append(&mut self, _: &[u8], _: WindowId, _: &[u8], _: Timestamp) -> Result<()> {
                Ok(())
            }
            fn get_window_chunk(&mut self, _: WindowId) -> Result<Option<WindowChunk>> {
                Ok(None)
            }
            fn take_values(&mut self, _: &[u8], _: WindowId) -> Result<Vec<Vec<u8>>> {
                Ok(vec![b"v".to_vec()])
            }
            fn peek_values(&mut self, _: &[u8], _: WindowId) -> Result<Vec<Vec<u8>>> {
                Ok(Vec::new())
            }
            fn take_aggregate(&mut self, _: &[u8], _: WindowId) -> Result<Option<Vec<u8>>> {
                Ok(None)
            }
            fn put_aggregate(&mut self, _: &[u8], _: WindowId, _: &[u8]) -> Result<()> {
                Ok(())
            }
            fn flush(&mut self) -> Result<()> {
                Ok(())
            }
            fn extract_range(
                &mut self,
                _: KeyFilter<'_>,
                _: AggregateKind,
            ) -> Result<Vec<crate::backend::StateEntry>> {
                Ok(Vec::new())
            }
            fn metrics(&self) -> Arc<crate::metrics::StoreMetrics> {
                Arc::new(crate::metrics::StoreMetrics::default())
            }
            fn memory_bytes(&self) -> usize {
                0
            }
            fn checkpoint(&mut self, _: &std::path::Path) -> Result<()> {
                Ok(())
            }
            fn restore(&mut self, _: &std::path::Path) -> Result<()> {
                Ok(())
            }
            fn close(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let mut traced = TracedBackend::wrap(Box::new(Null));
        let w = WindowId { start: 0, end: 10 };
        assert_eq!(traced.take_values(b"k", w).unwrap(), vec![b"v".to_vec()]);
        // With an active context the per-tuple ops accumulate and the
        // scope's exit flushes one aggregate instant per op kind.
        let tracer = Tracer::new();
        let rec = tracer.thread(0, "t");
        {
            let _scope = enter(
                &rec,
                TraceCtx {
                    trace: 5,
                    span: 0,
                    born: 0,
                },
            );
            traced.take_values(b"k", w).unwrap();
            traced.take_values(b"k", w).unwrap();
            traced.append(b"k", w, b"v", 1).unwrap();
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 2, "one instant per op kind used");
        let take = events
            .iter()
            .find(|e| e.name == "store_take_values")
            .expect("take_values aggregate");
        assert_eq!(take.phase, SpanPhase::Instant);
        assert_eq!(take.cat, "store");
        assert_eq!(take.trace, 5);
        assert!(take.args.iter().any(|&(k, v)| k == "count" && v == 2));
        let append = events
            .iter()
            .find(|e| e.name == "store_append")
            .expect("append aggregate");
        assert!(append.args.iter().any(|&(k, v)| k == "count" && v == 1));
    }
}
