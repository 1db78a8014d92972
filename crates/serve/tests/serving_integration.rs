//! End-to-end tests of the serving layer.
//!
//! The centrepiece runs the same NEXMark Q12 job twice over identical
//! inputs — once unobserved, once with snapshot publication, a TCP
//! server, and client threads querying throughout the run (point
//! lookups, pipelined batches, filtered scans) — and asserts the
//! outputs are byte-identical. Around it: pipelined batches correlate by
//! request id, peers that break the framing are cut off without
//! disturbing a well-behaved client on the same server, and `spawn()`
//! fails rather than serving without its readiness poller.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv::{FlowKvConfig, FlowKvFactory};
use flowkv_common::backend::{
    AggregateKind, KeyFilter, OperatorContext, StateBackend, StateBackendFactory, StateEntry,
    WindowChunk,
};
use flowkv_common::codec::put_u32;
use flowkv_common::error::Result;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::registry::{StateKey, StatePattern, StateRegistry, StateView, ViewValue};
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::{validate_prometheus, Telemetry};
use flowkv_common::types::{Timestamp, Tuple, WindowId, MAX_TIMESTAMP, MIN_TIMESTAMP};
use flowkv_common::vfs::StdVfs;
use flowkv_nexmark::{EventGenerator, GeneratorConfig, QueryId, QueryParams};
use flowkv_serve::protocol::{read_frame, split_request_id, write_frame};
use flowkv_serve::{
    route_key, ErrorCode, Request, Response, ScanFilter, ServerBuilder, StateClient, MAX_FRAME,
};
use flowkv_spe::{run_job, RunOptions};

const JOB: &str = "q12";
const OPERATOR: &str = "count-global";
const EVENTS: u64 = 60_000;

fn generator() -> GeneratorConfig {
    GeneratorConfig {
        num_events: EVENTS,
        seed: 7,
        first_ts: 0,
        events_per_second: 10_000,
        active_people: 500,
        active_auctions: 500,
        hot_ratio: 0.1,
        out_of_order_ms: 0,
    }
}

fn run_q12(
    dir: &std::path::Path,
    registry: Option<Arc<StateRegistry>>,
    rate: Option<u64>,
) -> Vec<Tuple> {
    let job = QueryId::Q12.build(QueryParams::new(1_000).with_parallelism(2));
    let mut opts = RunOptions::new(dir);
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.rate_limit = rate;
    opts.registry = registry;
    let factory = Arc::new(FlowKvFactory::new(
        FlowKvConfig::small_for_tests(),
        StdVfs::shared(),
    ));
    let result = run_job(
        &job,
        EventGenerator::new(generator()).tuples(),
        factory,
        &opts,
    )
    .expect("job run failed");
    let mut outputs = result.outputs;
    outputs.sort_by(|a, b| (&a.key, &a.value, a.timestamp).cmp(&(&b.key, &b.value, b.timestamp)));
    outputs
}

/// Publishes a small two-partition registry by hand: each key lands in
/// the partition [`route_key`] routes it to, so server-side lookups
/// resolve. Returns the keys published.
fn publish_fixture(registry: &StateRegistry, partitions: usize) -> Vec<Vec<u8>> {
    let keys: Vec<Vec<u8>> = (0..16u8)
        .map(|i| format!("user:{i:02}").into_bytes())
        .collect();
    let mut held = vec![BTreeMap::new(); partitions];
    for (i, key) in keys.iter().enumerate() {
        let p = route_key(JOB, OPERATOR, key, partitions).partition;
        held[p].insert(
            (key.clone(), WindowId::new(0, 1_000)),
            ViewValue::Aggregate(vec![i as u8; 4]),
        );
    }
    for (p, entries) in held.into_iter().enumerate() {
        let mut view = StateView::from_entries(StatePattern::Rmw, entries);
        view.epoch = 3;
        view.watermark = 5_000;
        view.ttl_ms = Some(1_000);
        registry.publish(StateKey::new(JOB, OPERATOR, p), view);
    }
    keys
}

#[test]
fn concurrent_queries_never_change_job_output() {
    // Baseline: no registry, no server, full speed.
    let baseline_dir = ScratchDir::new("serve-int-baseline").unwrap();
    let baseline = run_q12(baseline_dir.path(), None, None);
    assert!(!baseline.is_empty(), "baseline produced no outputs");

    // Served run: rate-limited so the job is alive for a while, with
    // query traffic hammering the server the whole time.
    let registry = StateRegistry::new_shared();
    let mut server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
        .spawn()
        .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hits = Arc::new(AtomicU64::new(0));
    let scanned = Arc::new(AtomicU64::new(0));
    let batch_hits = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for t in 0..3u64 {
        let stop = Arc::clone(&stop);
        let hits = Arc::clone(&hits);
        let scanned = Arc::clone(&scanned);
        let batch_hits = Arc::clone(&batch_hits);
        clients.push(std::thread::spawn(move || {
            let mut client = StateClient::connect(addr).expect("connect");
            client.ping().expect("ping");
            let mut sampled: Vec<Vec<u8>> = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // Refresh the key sample from a live scan now and then;
                // before any snapshot exists these return UnknownState,
                // which is fine — keep polling.
                if sampled.is_empty() || i.is_multiple_of(64) {
                    if let Ok(scan) = client.scan_filtered(
                        JOB,
                        OPERATOR,
                        ScanFilter::range(MIN_TIMESTAMP, MAX_TIMESTAMP, 512),
                    ) {
                        scanned.fetch_add(scan.entries.len() as u64, Ordering::Relaxed);
                        sampled = scan.entries.into_iter().map(|e| e.key).collect();
                    }
                }
                if let Some(key) = sampled.get(i % sampled.len().max(1)) {
                    if let Ok(r) = client.lookup_latest(JOB, OPERATOR, key) {
                        if r.found.is_some() {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Exercise the batched surface against the live job:
                // a multi-key lookup over the sample, and a filtered
                // scan restricted to one sampled key's prefix.
                if i.is_multiple_of(32) && !sampled.is_empty() {
                    let keys: Vec<Vec<u8>> = sampled.iter().take(8).cloned().collect();
                    if let Ok(batch) = client.lookup_many(JOB, OPERATOR, &keys, None) {
                        assert_eq!(batch.found.len(), keys.len());
                        let live = batch.found.iter().filter(|f| f.is_some()).count();
                        batch_hits.fetch_add(live as u64, Ordering::Relaxed);
                    }
                    let prefix = sampled[0].clone();
                    if let Ok(scan) = client.scan_filtered(
                        JOB,
                        OPERATOR,
                        ScanFilter::range(MIN_TIMESTAMP, MAX_TIMESTAMP, 64).with_prefix(prefix),
                    ) {
                        scanned.fetch_add(scan.entries.len() as u64, Ordering::Relaxed);
                    }
                }
                if i % 128 == t as usize {
                    let _ = client.prometheus();
                    let _ = client.list_states();
                }
                i += 1;
            }
        }));
    }

    let served_dir = ScratchDir::new("serve-int-served").unwrap();
    let served = run_q12(
        served_dir.path(),
        Some(Arc::clone(&registry)),
        Some(120_000),
    );

    // Give clients a last window against the terminal snapshot, then stop.
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::SeqCst);
    for c in clients {
        c.join().expect("client thread panicked");
    }

    assert_eq!(
        baseline, served,
        "serving concurrent queries changed the job's output"
    );
    assert!(
        hits.load(Ordering::Relaxed) > 0,
        "no lookup ever hit a live key; the equivalence check is vacuous"
    );
    assert!(
        scanned.load(Ordering::Relaxed) > 0,
        "no scan ever returned entries"
    );
    assert!(
        batch_hits.load(Ordering::Relaxed) > 0,
        "no batched lookup ever hit a live key"
    );
    assert!(server.requests_served() > 0);
    server.shutdown();
}

#[test]
fn terminal_snapshot_reflects_the_drained_store() {
    // Q12's global window fires exactly once, when the end-of-stream
    // watermark closes it — and firing *consumes* the RMW state. The
    // terminal snapshot published at stream end must therefore be empty
    // and aligned to the max watermark: a query after the job ends sees
    // read-your-drains consistency, not stale aggregates.
    let registry = StateRegistry::new_shared();
    let dir = ScratchDir::new("serve-int-terminal").unwrap();
    let outputs = run_q12(dir.path(), Some(Arc::clone(&registry)), None);
    assert!(!outputs.is_empty());

    let mut server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
        .spawn()
        .unwrap();
    let mut client = StateClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let states = client.list_states().unwrap();
    assert_eq!(states.len(), 2, "expected one snapshot per partition");
    assert!(states.iter().all(|s| s.key.job == JOB));
    assert!(states.iter().all(|s| s.watermark == MAX_TIMESTAMP));
    assert!(states.iter().all(|s| s.epoch > 0));
    assert!(
        states.iter().all(|s| s.entries == 0),
        "terminal snapshot still holds entries the window drain consumed"
    );
    // Q12's global window never expires, so no state reports a TTL.
    assert!(states.iter().all(|s| s.ttl_ms.is_none()));

    // Emitted keys are gone from queryable state, but the answer still
    // carries the snapshot's coordinates.
    for out in outputs.iter().take(50) {
        let got = client.lookup_latest(JOB, OPERATOR, &out.key).unwrap();
        assert!(got.found.is_none(), "drained key {:?} still live", out.key);
        assert_eq!(got.watermark, MAX_TIMESTAMP);
    }

    // The batched form agrees with the single-shot form, positionally.
    let keys: Vec<Vec<u8>> = outputs.iter().take(10).map(|o| o.key.clone()).collect();
    let batch = client.lookup_many(JOB, OPERATOR, &keys, None).unwrap();
    assert_eq!(batch.found.len(), keys.len());
    assert!(batch.found.iter().all(|f| f.is_none()));
    assert_eq!(batch.watermark, MAX_TIMESTAMP);

    // The store counters, summed over both partitions, reflect the
    // job's writes.
    let text = client.prometheus().unwrap();
    let series = format!("flowkv_store_records_written{{job=\"{JOB}\",operator=\"{OPERATOR}\"}} ");
    let written: u64 = text
        .lines()
        .find_map(|line| line.strip_prefix(&series))
        .unwrap_or_else(|| panic!("no {series}line in:\n{text}"))
        .parse()
        .unwrap();
    assert!(
        written > 0,
        "merged metrics should reflect the job's writes"
    );
    server.shutdown();
}

/// A backend that holds every view its worker publishes against its
/// own store's `read_view()`.
///
/// With an I/O ring configured the worker calls `advance_prefetch`
/// right after it publishes at a watermark, before any further store
/// call — so the first `advance_prefetch` that sees a new epoch in the
/// registry sees the store exactly as that epoch captured it. The
/// terminal publish is followed by `close`, which checks it the same
/// way.
struct CheckedBackend {
    inner: Box<dyn StateBackend>,
    registry: Arc<StateRegistry>,
    key: StateKey,
    checked_epoch: u64,
    checks: Arc<AtomicU64>,
}

impl CheckedBackend {
    fn check_published(&mut self) {
        let Some(view) = self.registry.get(&self.key) else {
            return;
        };
        if view.epoch == self.checked_epoch {
            return;
        }
        self.checked_epoch = view.epoch;
        let rebuilt = self
            .inner
            .read_view()
            .unwrap()
            .expect("flowkv stores are queryable");
        let ctx = format!("{} epoch {}", self.key, view.epoch);
        assert_eq!(view.to_entries(), rebuilt.to_entries(), "{ctx}: entries");
        assert_eq!(view.len(), rebuilt.len(), "{ctx}: len");
        assert_eq!(view.memory_bytes(), rebuilt.memory_bytes(), "{ctx}: bytes");
        assert_eq!(view.pattern, rebuilt.pattern, "{ctx}: pattern");
        self.checks.fetch_add(1, Ordering::Relaxed);
    }
}

impl StateBackend for CheckedBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        self.inner.append(key, window, value, ts)
    }
    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        self.inner.get_window_chunk(window)
    }
    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.inner.take_values(key, window)
    }
    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.inner.peek_values(key, window)
    }
    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        self.inner.take_aggregate(key, window)
    }
    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        self.inner.put_aggregate(key, window, aggregate)
    }
    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
    fn read_view(&mut self) -> Result<Option<StateView>> {
        self.inner.read_view()
    }
    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        self.inner.extract_range(in_range, kind)
    }
    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        self.check_published();
        self.inner.advance_prefetch(stream_time)
    }
    fn metrics(&self) -> Arc<StoreMetrics> {
        self.inner.metrics()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn checkpoint(&mut self, dir: &std::path::Path) -> Result<()> {
        self.inner.checkpoint(dir)
    }
    fn restore(&mut self, dir: &std::path::Path) -> Result<()> {
        self.inner.restore(dir)
    }
    fn close(&mut self) -> Result<()> {
        self.check_published();
        self.inner.close()
    }
}

struct CheckedFactory {
    inner: FlowKvFactory,
    registry: Arc<StateRegistry>,
    job: String,
    checks: Arc<AtomicU64>,
}

impl StateBackendFactory for CheckedFactory {
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        Ok(Box::new(CheckedBackend {
            inner: self.inner.create(ctx)?,
            registry: Arc::clone(&self.registry),
            key: StateKey::new(self.job.clone(), ctx.operator.clone(), ctx.partition),
            checked_epoch: 0,
            checks: Arc::clone(&self.checks),
        }))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[test]
fn published_views_match_read_view_through_whole_jobs() {
    // One query per access pattern. Every epoch each worker publishes —
    // built from captured store calls — must hold what its store's own
    // rebuild holds at that moment, down to the terminal view of the
    // drained store.
    for (query, pattern) in [
        (QueryId::Q7, StatePattern::Aar),
        (QueryId::Q11Median, StatePattern::Aur),
        (QueryId::Q12, StatePattern::Rmw),
    ] {
        let registry = StateRegistry::new_shared();
        let checks = Arc::new(AtomicU64::new(0));
        let dir = ScratchDir::new(&format!("serve-int-layered-{}", query.name())).unwrap();
        let job = query.build(QueryParams::new(1_000).with_parallelism(2));
        let factory = Arc::new(CheckedFactory {
            inner: FlowKvFactory::new(FlowKvConfig::small_for_tests(), StdVfs::shared()),
            registry: Arc::clone(&registry),
            job: job.name.clone(),
            checks: Arc::clone(&checks),
        });
        let mut opts = RunOptions::new(dir.path());
        opts.watermark_interval = 100;
        opts.io_threads = 2;
        opts.registry = Some(Arc::clone(&registry));
        let tuples = EventGenerator::new(GeneratorConfig {
            num_events: 20_000,
            ..generator()
        })
        .tuples();
        run_job(&job, tuples, factory, &opts).expect("job run failed");

        let states = registry.list();
        assert_eq!(states.len(), 2, "{}: one view per partition", query.name());
        for state in &states {
            assert_eq!(state.pattern, pattern, "{}", state.key);
            assert_eq!(state.watermark, MAX_TIMESTAMP, "{}", state.key);
            assert_eq!(state.entries, 0, "{}: terminal view not drained", state.key);
        }
        let epochs: u64 = states.iter().map(|s| s.epoch).sum();
        let checked = checks.load(Ordering::Relaxed);
        assert!(epochs > 40, "{}: only {epochs} epochs", query.name());
        assert_eq!(checked, epochs, "{}: epochs left unchecked", query.name());
    }
}

#[test]
fn telemetry_server_exposes_prometheus_and_registry_samples() {
    // Run a small job with a telemetry handle attached, then serve both
    // the published snapshots and the telemetry registry.
    let telemetry = Telemetry::new_shared();
    let registry = StateRegistry::new_shared();
    let dir = ScratchDir::new("serve-int-telemetry").unwrap();
    {
        let job = QueryId::Q12.build(QueryParams::new(1_000).with_parallelism(2));
        let mut opts = RunOptions::new(dir.path());
        opts.watermark_interval = 100;
        opts.registry = Some(Arc::clone(&registry));
        opts.telemetry = Some(Arc::clone(&telemetry));
        let factory = Arc::new(FlowKvFactory::new(
            FlowKvConfig::small_for_tests(),
            StdVfs::shared(),
        ));
        run_job(
            &job,
            EventGenerator::new(generator()).tuples(),
            factory,
            &opts,
        )
        .expect("job run failed");
    }

    let mut server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
        .telemetry(Arc::clone(&telemetry))
        .spawn()
        .unwrap();
    let mut client = StateClient::connect(server.local_addr()).unwrap();

    // The Prometheus opcode returns well-formed exposition text covering
    // the executor's telemetry metrics, the per-operator store counters,
    // and the server's own serving probes.
    let text = client.prometheus().unwrap();
    validate_prometheus(&text).expect("invalid Prometheus exposition text");
    assert!(
        text.contains("flowkv_operator_busy_nanos"),
        "missing executor telemetry in:\n{text}"
    );
    assert!(
        text.contains("flowkv_store_records_written"),
        "missing store counters in:\n{text}"
    );
    assert!(
        text.contains("flowkv_serve_requests_total"),
        "missing serving probes in:\n{text}"
    );
    assert!(text.contains("# TYPE"), "missing TYPE comments");
    server.shutdown();
}

/// Pipelined batches correlate answers by request id, per-request
/// errors stay in their slot, and the batched query surface (multi-key
/// lookups, filtered scans, TTL-carrying listings) answers correctly.
#[test]
fn pipelined_v2_batches_correlate_by_request_id() {
    let registry = StateRegistry::new_shared();
    let keys = publish_fixture(&registry, 2);
    let mut server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
        .spawn()
        .unwrap();

    let mut client = StateClient::connect(server.local_addr()).unwrap();

    // One pipelined batch mixing every shape, including a request that
    // fails (unknown operator): the error must land in its own slot,
    // not poison the batch.
    let batch = client
        .call_batch(&[
            Request::Ping,
            Request::LookupMany {
                job: JOB.into(),
                operator: OPERATOR.into(),
                keys: keys.clone(),
                window: None,
            },
            Request::Lookup {
                job: JOB.into(),
                operator: "no-such-operator".into(),
                key: keys[0].clone(),
                window: None,
            },
            Request::ListStates,
            Request::ScanFiltered {
                job: JOB.into(),
                operator: OPERATOR.into(),
                filter: ScanFilter::range(MIN_TIMESTAMP, MAX_TIMESTAMP, 4),
            },
        ])
        .unwrap();
    assert_eq!(batch.len(), 5);
    assert_eq!(batch[0], Response::Pong);
    match &batch[1] {
        Response::ValueBatch { found, .. } => {
            assert_eq!(found.len(), keys.len());
            assert!(found.iter().all(|f| f.is_some()), "all fixture keys live");
        }
        other => panic!("slot 1: unexpected {other:?}"),
    }
    assert!(
        matches!(&batch[2], Response::Error { .. }),
        "unknown operator must error in its slot, got {:?}",
        batch[2]
    );
    match &batch[3] {
        Response::States(states) => {
            assert_eq!(states.len(), 2);
            assert!(states.iter().all(|s| s.ttl_ms == Some(1_000)));
        }
        other => panic!("slot 3: unexpected {other:?}"),
    }
    match &batch[4] {
        Response::ScanResult { entries, .. } => assert_eq!(entries.len(), 4),
        other => panic!("slot 4: unexpected {other:?}"),
    }

    // The typed façade over the same surface.
    let batch = client.lookup_many(JOB, OPERATOR, &keys, None).unwrap();
    assert_eq!(batch.epoch, 3);
    assert_eq!(batch.found.len(), keys.len());
    let filtered = client
        .scan_filtered(
            JOB,
            OPERATOR,
            ScanFilter::range(MIN_TIMESTAMP, MAX_TIMESTAMP, 1_024).with_prefix(&b"user:0"[..]),
        )
        .unwrap();
    assert!(!filtered.entries.is_empty());
    assert!(filtered
        .entries
        .iter()
        .all(|e| e.key.starts_with(b"user:0")));

    server.shutdown();
}

/// `spawn()` has one serving core: when the readiness poller cannot be
/// created it returns the error instead of serving some other way.
///
/// The failure is injected by exhausting the process's descriptors —
/// `epoll_create1` needs one — so the case re-runs itself alone in a
/// child process, where starving descriptors cannot disturb the other
/// tests of this binary.
#[test]
fn spawn_surfaces_poller_failure_instead_of_falling_back() {
    const CHILD: &str = "FLOWKV_SERVE_FD_STARVED_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "spawn_surfaces_poller_failure_instead_of_falling_back",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "child failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    let registry = StateRegistry::new_shared();
    let keys = publish_fixture(&registry, 2);
    let builder = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry));
    // Take every descriptor, then give one back: enough for the
    // listening socket, none left for the poller.
    let mut hog = Vec::new();
    while let Ok(file) = std::fs::File::open("/dev/null") {
        hog.push(file);
    }
    hog.pop();
    let starved = builder.spawn();
    drop(hog);
    match starved {
        Err(e) => assert!(e.to_string().contains("epoll_create1"), "{e}"),
        Ok(_) => panic!("spawn served without a poller"),
    }

    // With descriptors back, the same configuration serves.
    let mut server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
        .max_connections(8)
        .read_timeout(Duration::from_secs(30))
        .spawn()
        .unwrap();
    let mut client = StateClient::connect(server.local_addr()).unwrap();
    let batch = client.lookup_many(JOB, OPERATOR, &keys, None).unwrap();
    assert!(batch.found.iter().all(|f| f.is_some()));
    server.shutdown();
}

/// Reads everything the server sends a peer that broke the framing
/// until it closes the connection, and returns the answers it sent.
fn read_until_cut_off(mut stream: TcpStream) -> Vec<Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                break
            }
            Err(e) => panic!("the server neither answered nor closed: {e}"),
        }
    }
    let mut cursor = std::io::Cursor::new(got);
    let mut answers = Vec::new();
    while let Some(payload) = read_frame(&mut cursor).unwrap() {
        let (_, body) = split_request_id(&payload).unwrap();
        answers.push(Response::decode(body).unwrap());
    }
    answers
}

/// Socket-level robustness on one live server: peers that break the
/// framing — an id-less frame, a length over `MAX_FRAME`, a half-close
/// inside a frame body — are answered `BadRequest` or disconnected, a
/// well-framed request under a retired opcode is answered `BadRequest`
/// on a connection that stays open, and a pipelined client beside them
/// gets every answer under its own request ids before, between and
/// after them. Every connection closed, the open-connection gauge is
/// back at its baseline.
#[test]
fn malformed_peers_are_cut_off_while_a_pipelined_client_is_served() {
    let registry = StateRegistry::new_shared();
    let keys = publish_fixture(&registry, 2);
    let telemetry = Telemetry::new_shared();
    let open = telemetry.registry().gauge("serve_connections_open");
    let baseline = open.get();
    let mut server = ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
        .telemetry(Arc::clone(&telemetry))
        .spawn()
        .unwrap();
    let addr = server.local_addr();

    // Each key's fixture value is its index, repeated: an answer landing
    // in the wrong slot reads another key's value.
    let lookups: Vec<Request> = keys
        .iter()
        .map(|key| Request::Lookup {
            job: JOB.into(),
            operator: OPERATOR.into(),
            key: key.clone(),
            window: None,
        })
        .collect();
    let mut pipelined = StateClient::connect(addr).unwrap();
    let check = |client: &mut StateClient| {
        let answers = client.call_batch(&lookups).unwrap();
        assert_eq!(answers.len(), keys.len());
        for (i, answer) in answers.iter().enumerate() {
            match answer {
                Response::Value {
                    found: Some((_, ViewValue::Aggregate(v))),
                    ..
                } => assert_eq!(v, &vec![i as u8; 4], "slot {i}"),
                other => panic!("slot {i}: unexpected {other:?}"),
            }
        }
    };
    check(&mut pipelined);
    assert!(open.get() > baseline);

    // A: a one-byte frame with no request id (what a removed id-less
    // `Ping` looked like).
    let mut id_less = TcpStream::connect(addr).unwrap();
    id_less.write_all(&[1, 0, 0, 0, 0x01]).unwrap();
    // B: a length prefix over the frame bound.
    let mut oversized = TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    put_u32(&mut header, (MAX_FRAME + 1) as u32);
    oversized.write_all(&header).unwrap();
    oversized.write_all(&[0u8; 32]).unwrap();
    // C: a frame announcing 64 bytes, half-closed after 11 of them.
    let mut half_closed = TcpStream::connect(addr).unwrap();
    let mut partial = Vec::new();
    put_u32(&mut partial, 64);
    partial.extend_from_slice(&7u64.to_le_bytes());
    partial.extend_from_slice(&[0x01, 0x02, 0x03]);
    half_closed.write_all(&partial).unwrap();
    half_closed.shutdown(Shutdown::Write).unwrap();

    check(&mut pipelined);
    for (peer, stream) in [("A", id_less), ("B", oversized), ("C", half_closed)] {
        for answer in read_until_cut_off(stream) {
            assert!(
                matches!(
                    answer,
                    Response::Error {
                        code: ErrorCode::BadRequest,
                        ..
                    }
                ),
                "peer {peer}: unexpected {answer:?}"
            );
        }
    }
    // D: a well-framed request under the retired metrics opcode 0x05
    // (job, operator, registry flag) is refused under its own id, and
    // the connection then answers a `Ping`.
    {
        let mut retired = TcpStream::connect(addr).unwrap();
        retired
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut metrics = vec![0x05];
        for name in [JOB, OPERATOR] {
            metrics.push(name.len() as u8);
            metrics.extend_from_slice(name.as_bytes());
        }
        metrics.push(0);
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x0505, &metrics).unwrap();
        write_frame(&mut wire, 0x0506, &Request::Ping.encode()).unwrap();
        retired.write_all(&wire).unwrap();
        let mut answer = || {
            let payload = read_frame(&mut retired).unwrap().expect("an answer");
            let (id, body) = split_request_id(&payload).unwrap();
            (id, Response::decode(body).unwrap())
        };
        let (id, refused) = answer();
        assert_eq!(id, 0x0505);
        assert!(
            matches!(
                refused,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "opcode 0x05: unexpected {refused:?}"
        );
        assert_eq!(answer(), (0x0506, Response::Pong));
    }
    check(&mut pipelined);

    drop(pipelined);
    let deadline = Instant::now() + Duration::from_secs(10);
    while open.get() != baseline {
        assert!(
            Instant::now() < deadline,
            "serve_connections_open stuck at {} (baseline {baseline})",
            open.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
