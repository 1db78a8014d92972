//! TCP server answering read-only queries over a [`StateRegistry`].
//!
//! The server never touches a live store: it only reads the immutable
//! [`StateView`](flowkv_common::registry::StateView) snapshots workers
//! publish at watermark boundaries. Snapshots are shared via `Arc`, so
//! concurrent queries cost no copies and no coordination with the job's
//! workers.
//!
//! The serving core is a single-threaded event loop
//! (`event_loop`): every connection is multiplexed
//! onto one readiness-polled thread with per-connection read/write
//! buffers, and pipelined clients get every buffered frame answered per
//! wake-up; each frame is answered by one stateless function
//! (`handle_frame`). [`ServerBuilder`] is the one construction path.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::hash::partition_of;
use flowkv_common::metrics::MetricsSnapshot;
use flowkv_common::registry::{StateKey, StateRegistry};
use flowkv_common::telemetry::{
    self, Counter, Gauge, Histogram, MetricSample, SampleValue, Telemetry,
};
use flowkv_common::types::MAX_TIMESTAMP;

use crate::protocol::{split_request_id, write_frame, ErrorCode, Request, Response, ScanEntry};

/// Default cap on concurrently open client connections.
const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Telemetry probes of the serving layer (the `serve_*` metric family).
pub(crate) struct ServeProbes {
    /// Frames answered, including errors (`serve_requests_total`).
    pub requests: Arc<Counter>,
    /// Error responses sent (`serve_errors_total`).
    pub errors: Arc<Counter>,
    /// Connections ever accepted (`serve_connections_total`).
    pub connections_total: Arc<Counter>,
    /// Currently open connections (`serve_connections_open`).
    pub connections_open: Arc<Gauge>,
    /// Frames answered per read wake-up (`serve_pipeline_depth`): depth
    /// 1 is a strict request/response client, higher means pipelining
    /// is paying off.
    pub pipeline_depth: Arc<Histogram>,
    /// Bytes read off client sockets (`serve_bytes_read_total`).
    pub bytes_read: Arc<Counter>,
    /// Bytes written to client sockets (`serve_bytes_written_total`).
    pub bytes_written: Arc<Counter>,
}

impl ServeProbes {
    fn new(t: &Telemetry) -> Self {
        let r = t.registry();
        ServeProbes {
            requests: r.counter("serve_requests_total"),
            errors: r.counter("serve_errors_total"),
            connections_total: r.counter("serve_connections_total"),
            connections_open: r.gauge("serve_connections_open"),
            pipeline_depth: r.histogram("serve_pipeline_depth"),
            bytes_read: r.counter("serve_bytes_read_total"),
            bytes_written: r.counter("serve_bytes_written_total"),
        }
    }
}

/// Everything the serving core needs to answer requests, shared across
/// connections.
pub(crate) struct ServeShared {
    pub registry: Arc<StateRegistry>,
    pub telemetry: Option<Arc<Telemetry>>,
    pub served: Arc<AtomicU64>,
    pub probes: Option<ServeProbes>,
}

/// Answers one frame payload, appending the complete response frame —
/// length prefix and the request's id included — to `out`.
///
/// An `Err` is fatal to the connection: a payload too short for a
/// request id and an opcode means the peer broke framing, and there is
/// no id to address an answer to.
pub(crate) fn handle_frame(shared: &ServeShared, payload: &[u8], out: &mut Vec<u8>) -> Result<()> {
    shared.served.fetch_add(1, Ordering::Relaxed);
    if let Some(p) = &shared.probes {
        p.requests.inc();
    }
    let (request_id, body) = split_request_id(payload)?;
    let response = match Request::decode(body) {
        Ok(request) => answer(&shared.registry, shared.telemetry.as_deref(), request),
        Err(e) => Response::Error {
            code: ErrorCode::BadRequest,
            message: e.to_string(),
        },
    };
    if matches!(response, Response::Error { .. }) {
        if let Some(p) = &shared.probes {
            p.errors.inc();
        }
    }
    write_frame(out, request_id, &response.encode())
}

/// Configures and spawns a [`StateServer`].
///
/// This is the one construction path for the serving layer: address and
/// registry are mandatory, everything else has defaults.
///
/// ```no_run
/// # use std::sync::Arc;
/// # use flowkv_common::registry::StateRegistry;
/// # use flowkv_serve::ServerBuilder;
/// let registry = StateRegistry::new_shared();
/// let server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
///     .max_connections(256)
///     .spawn()
///     .unwrap();
/// ```
pub struct ServerBuilder {
    addrs: std::io::Result<Vec<SocketAddr>>,
    registry: Arc<StateRegistry>,
    telemetry: Option<Arc<Telemetry>>,
    max_connections: usize,
    read_timeout: Option<Duration>,
}

impl ServerBuilder {
    /// Starts a builder binding `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port), serving the snapshots published in `registry`.
    pub fn new(addr: impl ToSocketAddrs, registry: Arc<StateRegistry>) -> Self {
        ServerBuilder {
            addrs: addr.to_socket_addrs().map(|it| it.collect()),
            registry,
            telemetry: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            read_timeout: None,
        }
    }

    /// Exposes `telemetry` through the Prometheus opcode, beside the
    /// store counters of every published state, and registers the
    /// server's own `serve_*` probes in it.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Caps concurrently open client connections (default 1024).
    /// Accepts beyond the cap are closed immediately.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Closes connections that complete no frame for `timeout`
    /// (default: never).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Binds the address and starts serving.
    ///
    /// Fails — rather than serving some other way — when the address
    /// cannot be bound or the platform's readiness poller cannot be
    /// created (descriptor limit reached; no polling API at all).
    pub fn spawn(self) -> Result<StateServer> {
        let addrs = self
            .addrs
            .map_err(|e| StoreError::io("state server resolve", e))?;
        let listener =
            TcpListener::bind(&addrs[..]).map_err(|e| StoreError::io("state server bind", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| StoreError::io("state server set_nonblocking", e))?;
        let local = listener
            .local_addr()
            .map_err(|e| StoreError::io("state server local_addr", e))?;
        let poller = crate::poll::Poller::new()?;
        let probes = self.telemetry.as_deref().map(ServeProbes::new);
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let shared = Arc::new(ServeShared {
            registry: self.registry,
            telemetry: self.telemetry,
            served: Arc::clone(&served),
            probes,
        });
        let max_connections = self.max_connections;
        let idle_timeout = self.read_timeout;
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("flowkv-serve-core".into())
                .spawn(move || {
                    #[cfg(target_os = "linux")]
                    crate::event_loop::run(
                        poller,
                        listener,
                        shared,
                        stop,
                        crate::event_loop::EventLoopConfig {
                            max_connections,
                            idle_timeout,
                        },
                    );
                    // Unreachable off Linux: `Poller::new` above always fails there.
                    #[cfg(not(target_os = "linux"))]
                    drop((
                        poller,
                        listener,
                        shared,
                        stop,
                        max_connections,
                        idle_timeout,
                    ));
                })
                .map_err(|e| StoreError::io("state server core thread", e))?
        };
        Ok(StateServer {
            addr: local,
            stop,
            core_thread: Some(thread),
            served,
        })
    }
}

/// A running state server.
///
/// Dropping the handle (or calling [`StateServer::shutdown`]) stops the
/// serving core and joins its thread.
pub struct StateServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    core_thread: Option<JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

impl StateServer {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests answered so far (including errors).
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops accepting connections and joins the serving core.
    ///
    /// Responses already computed are flushed; anything unread on a
    /// socket afterwards is dropped.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.core_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StateServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn unknown_state(job: &str, operator: &str) -> Response {
    Response::Error {
        code: ErrorCode::UnknownState,
        message: format!("no published state for {job}/{operator}"),
    }
}

/// Computes the response for one decoded request.
///
/// Exposed to the crate so the unit tests can exercise query semantics
/// without a socket.
pub(crate) fn answer(
    registry: &StateRegistry,
    telemetry: Option<&Telemetry>,
    request: Request,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::ListStates => Response::States(registry.list()),
        Request::Lookup {
            job,
            operator,
            key,
            window,
        } => {
            // Keys are routed to partitions by hash, exactly as the
            // executor routes tuples, so only one snapshot can hold the
            // key. The partition count is recovered from the registry:
            // workers publish densely indexed partitions 0..n.
            let views = registry.operator_views(&job, &operator);
            if views.is_empty() {
                return unknown_state(&job, &operator);
            }
            let n = views.last().map(|(p, _)| p + 1).unwrap_or(1);
            let target = partition_of(&key, n);
            let Some(view) = views
                .iter()
                .find(|(p, _)| *p == target)
                .map(|(_, v)| Arc::clone(v))
            else {
                return unknown_state(&job, &operator);
            };
            let found = match window {
                Some(w) => view.get(&key, w).map(|v| (w, v)),
                None => view.get_latest(&key),
            };
            Response::Value {
                epoch: view.epoch,
                watermark: view.watermark,
                found,
            }
        }
        Request::LookupMany {
            job,
            operator,
            keys,
            window,
        } => {
            let views = registry.operator_views(&job, &operator);
            if views.is_empty() {
                return unknown_state(&job, &operator);
            }
            let n = views.last().map(|(p, _)| p + 1).unwrap_or(1);
            let mut epoch = u64::MAX;
            let mut watermark = MAX_TIMESTAMP;
            for (_, view) in &views {
                epoch = epoch.min(view.epoch);
                watermark = watermark.min(view.watermark);
            }
            let found =
                keys.iter()
                    .map(|key| {
                        let target = partition_of(key, n);
                        views.iter().find(|(p, _)| *p == target).and_then(
                            |(_, view)| match window {
                                Some(w) => view.get(key, w).map(|v| (w, v)),
                                None => view.get_latest(key),
                            },
                        )
                    })
                    .collect();
            Response::ValueBatch {
                epoch,
                watermark,
                found,
            }
        }
        Request::ScanFiltered {
            job,
            operator,
            filter,
        } => {
            let views = registry.operator_views(&job, &operator);
            if views.is_empty() {
                return unknown_state(&job, &operator);
            }
            let limit = usize::try_from(filter.limit).unwrap_or(usize::MAX);
            let mut entries = Vec::new();
            let mut epoch = u64::MAX;
            let mut watermark = MAX_TIMESTAMP;
            for (_, view) in &views {
                // Every partition counts toward the coordinates, even
                // once the limit is reached: a truncated answer reports
                // the same epoch and watermark as a full one.
                epoch = epoch.min(view.epoch);
                watermark = watermark.min(view.watermark);
                let remaining = limit.saturating_sub(entries.len());
                if remaining == 0 {
                    continue;
                }
                for (key, window, value) in view.scan_filtered(
                    &filter.key_prefix,
                    filter.range_start,
                    filter.range_end,
                    remaining,
                ) {
                    entries.push(ScanEntry {
                        key: key.to_vec(),
                        window,
                        value,
                    });
                }
            }
            Response::ScanResult {
                epoch,
                watermark,
                entries,
            }
        }
        Request::Prometheus => {
            let samples = prometheus_samples(registry, telemetry);
            Response::PrometheusText(telemetry::render_prometheus(&samples))
        }
    }
}

/// Collects everything the server can expose to a Prometheus scrape:
/// the telemetry registry plus the per-operator store counters of every
/// published state, rendered as
/// `store_<counter>{job=...,operator=...}` series.
fn prometheus_samples(
    registry: &StateRegistry,
    telemetry: Option<&Telemetry>,
) -> Vec<MetricSample> {
    let mut samples = telemetry
        .map(|t| t.registry().snapshot())
        .unwrap_or_default();
    let mut operators: Vec<(String, String)> = registry
        .list()
        .into_iter()
        .map(|d| (d.key.job, d.key.operator))
        .collect();
    operators.sort();
    operators.dedup();
    for (job, operator) in operators {
        let mut merged = MetricsSnapshot::default();
        for (_, view) in registry.operator_views(&job, &operator) {
            merged = merged.merged(&view.metrics);
        }
        for (name, value) in merged.named() {
            samples.push(MetricSample {
                name: format!("store_{name}{{job={job},operator={operator}}}"),
                value: SampleValue::Counter(value),
            });
        }
    }
    samples
}

/// Builds the [`StateKey`] a lookup for `key` routes to, given the
/// partition count. Exposed for tests and tools that want to bypass the
/// server's own routing.
pub fn route_key(job: &str, operator: &str, key: &[u8], partitions: usize) -> StateKey {
    StateKey::new(job, operator, partition_of(key, partitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, ScanFilter};
    use flowkv_common::registry::{StatePattern, StateView, ViewValue};
    use flowkv_common::types::{Timestamp, WindowId};

    fn view_with(entries: &[(&[u8], WindowId, ViewValue)], epoch: u64) -> StateView {
        let mut v = StateView::from_entries(
            StatePattern::Rmw,
            entries
                .iter()
                .map(|(k, w, val)| ((k.to_vec(), *w), val.clone()))
                .collect(),
        );
        v.epoch = epoch;
        v.watermark = 1_000;
        v
    }

    fn shared(registry: Arc<StateRegistry>) -> ServeShared {
        ServeShared {
            registry,
            telemetry: None,
            served: Arc::new(AtomicU64::new(0)),
            probes: None,
        }
    }

    #[test]
    fn lookup_routes_to_the_owning_partition() {
        let registry = StateRegistry::new_shared();
        let n = 4;
        let key = b"user-17".to_vec();
        let w = WindowId::global();
        for p in 0..n {
            let mut held: Vec<(&[u8], WindowId, ViewValue)> = Vec::new();
            if p == partition_of(&key, n) {
                held.push((&key, w, ViewValue::Aggregate(vec![9, 9])));
            }
            registry.publish(StateKey::new("j", "op", p), view_with(&held, 3));
        }
        let resp = answer(
            &registry,
            None,
            Request::Lookup {
                job: "j".into(),
                operator: "op".into(),
                key: key.clone(),
                window: None,
            },
        );
        match resp {
            Response::Value {
                epoch,
                found: Some((window, ViewValue::Aggregate(a))),
                ..
            } => {
                assert_eq!(epoch, 3);
                assert_eq!(window, w);
                assert_eq!(a, vec![9, 9]);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn lookup_many_answers_positionally() {
        let registry = StateRegistry::new_shared();
        let n = 4;
        let w = WindowId::global();
        let keys: Vec<Vec<u8>> = (0..32u32)
            .map(|i| format!("user-{i}").into_bytes())
            .collect();
        for p in 0..n {
            let held: Vec<(&[u8], WindowId, ViewValue)> = keys
                .iter()
                .filter(|key| partition_of(key, n) == p)
                .map(|key| (key.as_slice(), w, ViewValue::Aggregate(key.clone())))
                .collect();
            registry.publish(StateKey::new("j", "op", p), view_with(&held, 2));
        }
        let mut queried = keys.clone();
        queried.push(b"missing".to_vec());
        let resp = answer(
            &registry,
            None,
            Request::LookupMany {
                job: "j".into(),
                operator: "op".into(),
                keys: queried.clone(),
                window: None,
            },
        );
        match resp {
            Response::ValueBatch { epoch, found, .. } => {
                assert_eq!(epoch, 2);
                assert_eq!(found.len(), queried.len());
                for (key, slot) in keys.iter().zip(&found) {
                    match slot {
                        Some((window, ViewValue::Aggregate(a))) => {
                            assert_eq!(*window, w);
                            assert_eq!(a, key);
                        }
                        other => panic!("missing slot for {key:?}: {other:?}"),
                    }
                }
                assert!(found.last().unwrap().is_none());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn filtered_scan_applies_prefix_range_and_limit() {
        let registry = StateRegistry::new_shared();
        let w_in = WindowId::new(0, 100);
        let w_out = WindowId::new(500, 600);
        registry.publish(
            StateKey::new("j", "op", 0),
            view_with(
                &[
                    (b"a:1", w_in, ViewValue::Aggregate(vec![1])),
                    (b"a:2", w_in, ViewValue::Aggregate(vec![2])),
                    (b"a:3", w_out, ViewValue::Aggregate(vec![3])),
                    (b"b:1", w_in, ViewValue::Aggregate(vec![4])),
                ],
                5,
            ),
        );
        let resp = answer(
            &registry,
            None,
            Request::ScanFiltered {
                job: "j".into(),
                operator: "op".into(),
                filter: ScanFilter::range(0, 200, 10).with_prefix(&b"a:"[..]),
            },
        );
        match resp {
            Response::ScanResult { entries, .. } => {
                let keys: Vec<&[u8]> = entries.iter().map(|e| e.key.as_slice()).collect();
                assert_eq!(keys, vec![&b"a:1"[..], &b"a:2"[..]]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The limit applies after the filters.
        let resp = answer(
            &registry,
            None,
            Request::ScanFiltered {
                job: "j".into(),
                operator: "op".into(),
                filter: ScanFilter::range(0, 200, 1).with_prefix(&b"a:"[..]),
            },
        );
        match resp {
            Response::ScanResult { entries, .. } => assert_eq!(entries.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn list_states_carries_ttl() {
        let registry = StateRegistry::new_shared();
        let mut view = view_with(&[], 1);
        view.ttl_ms = Some(60_000);
        registry.publish(StateKey::new("j", "op", 0), view);
        match answer(&registry, None, Request::ListStates) {
            Response::States(states) => {
                assert_eq!(states.len(), 1);
                assert_eq!(states[0].ttl_ms, Some(60_000));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn handle_frame_echoes_the_request_id_and_rejects_an_id_less_frame() {
        let shared = shared(StateRegistry::new_shared());
        let mut out = Vec::new();
        for (id, request) in [(99, Request::Ping.encode()), (100, vec![0x7f])] {
            let mut framed = Vec::new();
            write_frame(&mut framed, id, &request).unwrap();
            handle_frame(&shared, &framed[crate::protocol::FRAME_HEADER..], &mut out).unwrap();
        }
        let mut cursor = std::io::Cursor::new(std::mem::take(&mut out));
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        let (id, body) = split_request_id(&payload).unwrap();
        assert_eq!((id, Response::decode(body).unwrap()), (99, Response::Pong));
        // An unknown opcode is answered under its id; the connection
        // stays usable.
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        let (id, body) = split_request_id(&payload).unwrap();
        assert_eq!(id, 100);
        assert!(matches!(
            Response::decode(body).unwrap(),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // A one-byte payload has no id to answer under: the frame is
        // fatal and nothing is written.
        assert!(handle_frame(&shared, &Request::Ping.encode(), &mut out).is_err());
        assert!(out.is_empty());
    }

    fn scan(registry: &StateRegistry, filter: ScanFilter) -> (u64, Timestamp, Vec<Vec<u8>>) {
        let request = Request::ScanFiltered {
            job: "j".into(),
            operator: "op".into(),
            filter,
        };
        match answer(registry, None, request) {
            Response::ScanResult {
                epoch,
                watermark,
                entries,
            } => (
                epoch,
                watermark,
                entries.into_iter().map(|e| e.key).collect(),
            ),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn scan_merges_partitions_and_honours_limit() {
        let registry = StateRegistry::new_shared();
        let w = WindowId::new(0, 100);
        registry.publish(
            StateKey::new("j", "op", 0),
            view_with(&[(b"a", w, ViewValue::Aggregate(vec![1]))], 5),
        );
        registry.publish(
            StateKey::new("j", "op", 1),
            view_with(
                &[
                    (b"b", w, ViewValue::Aggregate(vec![2])),
                    (b"c", w, ViewValue::Aggregate(vec![3])),
                ],
                7,
            ),
        );
        let (epoch, _, keys) = scan(&registry, ScanFilter::range(0, 50, 2));
        assert_eq!(epoch, 5);
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn a_truncated_scan_reports_the_minimum_over_every_partition() {
        // The limit is met inside partition 0. Partition 2, two past
        // it, holds the oldest snapshot and still sets the answer's
        // coordinates.
        let registry = StateRegistry::new_shared();
        let w = WindowId::new(0, 100);
        registry.publish(
            StateKey::new("j", "op", 0),
            view_with(
                &[
                    (b"a", w, ViewValue::Aggregate(vec![1])),
                    (b"b", w, ViewValue::Aggregate(vec![2])),
                ],
                9,
            ),
        );
        registry.publish(
            StateKey::new("j", "op", 1),
            view_with(&[(b"c", w, ViewValue::Aggregate(vec![3]))], 8),
        );
        let mut oldest = view_with(&[(b"d", w, ViewValue::Aggregate(vec![4]))], 4);
        oldest.watermark = 400;
        registry.publish(StateKey::new("j", "op", 2), oldest);
        let (epoch, watermark, keys) = scan(&registry, ScanFilter::range(0, 50, 2));
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!((epoch, watermark), (4, 400));
        // The untruncated scan reports the same coordinates.
        let (epoch, watermark, keys) = scan(&registry, ScanFilter::range(0, 50, 10));
        assert_eq!(keys.len(), 4);
        assert_eq!((epoch, watermark), (4, 400));
    }

    /// What one operator's state answers: its partitions, entries,
    /// watermark and pattern through `ListStates`, its store counters
    /// summed over the partitions and the telemetry registry through the
    /// Prometheus samples.
    #[test]
    fn list_states_and_prometheus_answer_an_operators_report() {
        let registry = StateRegistry::new_shared();
        let w = WindowId::global();
        for (p, written, flushes, watermark) in [(0, 5, 2, 1_000), (1, 7, 3, 400)] {
            let mut view = view_with(&[(b"k", w, ViewValue::Aggregate(vec![p as u8]))], 4);
            view.watermark = watermark;
            view.metrics = MetricsSnapshot {
                records_written: written,
                flushes,
                ..MetricsSnapshot::default()
            };
            registry.publish(StateKey::new("j", "op", p), view);
        }
        let Response::States(states) = answer(&registry, None, Request::ListStates) else {
            panic!("ListStates answered no rows");
        };
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|s| s.pattern == StatePattern::Rmw));
        assert_eq!(states.iter().map(|s| s.entries).sum::<u64>(), 2);
        assert_eq!(states.iter().map(|s| s.watermark).min(), Some(400));

        let telemetry = Telemetry::new_shared();
        telemetry.registry().counter("operator_busy_nanos").add(9);
        let samples = prometheus_samples(&registry, Some(telemetry.as_ref()));
        let counter = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value.clone())
        };
        for (name, sum) in [
            ("store_records_written{job=j,operator=op}", 12),
            ("store_flushes{job=j,operator=op}", 5),
            ("store_compactions{job=j,operator=op}", 0),
            ("operator_busy_nanos", 9),
        ] {
            assert_eq!(counter(name), Some(SampleValue::Counter(sum)), "{name}");
        }
    }

    #[test]
    fn missing_operator_yields_unknown_state() {
        let registry = StateRegistry::new_shared();
        let resp = answer(
            &registry,
            None,
            Request::Lookup {
                job: "nope".into(),
                operator: "nope".into(),
                key: b"k".to_vec(),
                window: None,
            },
        );
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownState,
                ..
            }
        ));
    }
}
