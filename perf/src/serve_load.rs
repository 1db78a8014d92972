//! The state client of `q12-rmw-serve`: one connection, closed loop,
//! cycling three request shapes against the live job's snapshots.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flowkv_common::telemetry::{Histogram, HistogramSnapshot};
use flowkv_common::types::{MAX_TIMESTAMP, MIN_TIMESTAMP};
use flowkv_serve::{Request, Response, ScanFilter, StateClient};

/// Q12's job/operator coordinates (see `flowkv_nexmark::queries`).
const JOB: &str = "q12";
const OPERATOR: &str = "count-global";

/// Requests in flight per pipelined batch, and keys per `LookupMany`.
pub const DEPTH: usize = 16;

/// The request shapes, in cycle order.
pub const KINDS: [&str; 3] = ["point", "lookup_many", "scan_filtered"];

/// What the client saw, from its side of the wire.
#[derive(Default)]
pub struct ServeReport {
    /// Keys or scan entries answered.
    pub answered: u64,
    /// Request frames sent.
    pub requests: u64,
    /// Error responses plus structurally wrong answers (a slot missing).
    pub errors: u64,
    /// Seconds between the first and the last measured batch.
    pub secs: f64,
    pub connect_ms: f64,
    /// Wire round trip per batch, nanoseconds, all shapes together.
    pub batch: HistogramSnapshot,
    /// The same per request shape, in [`KINDS`] order.
    pub per_kind: [HistogramSnapshot; 3],
}

fn batch_of(kind: usize, keys: &[Vec<u8>], cursor: &mut usize) -> Vec<Request> {
    let mut next_key = || {
        // A stride coprime to any realistic key count visits every key.
        *cursor = (*cursor + 7_919) % keys.len();
        keys[*cursor].clone()
    };
    match kind {
        0 => (0..DEPTH)
            .map(|_| Request::Lookup {
                job: JOB.into(),
                operator: OPERATOR.into(),
                key: next_key(),
                window: None,
            })
            .collect(),
        1 => vec![Request::LookupMany {
            job: JOB.into(),
            operator: OPERATOR.into(),
            keys: (0..DEPTH).map(|_| next_key()).collect(),
            window: None,
        }],
        _ => {
            let key = next_key();
            vec![Request::ScanFiltered {
                job: JOB.into(),
                operator: OPERATOR.into(),
                filter: ScanFilter::range(MIN_TIMESTAMP, MAX_TIMESTAMP, 64)
                    .with_prefix(key[..key.len().min(1)].to_vec()),
            }]
        }
    }
}

/// Counts answered keys and wrong slots of one batch's responses.
fn check(kind: usize, responses: &[Response], report: &mut ServeReport) {
    for response in responses {
        match (kind, response) {
            (0, Response::Value { .. }) => report.answered += 1,
            (1, Response::ValueBatch { found, .. }) if found.len() == DEPTH => {
                report.answered += DEPTH as u64;
            }
            (2, Response::ScanResult { entries, .. }) => {
                report.answered += entries.len() as u64;
            }
            _ => report.errors += 1,
        }
    }
}

/// Starts the client thread. It waits until every one of the job's
/// `partitions` has published a first snapshot, then issues batches back
/// to back until `stop` is set.
pub fn spawn(
    addr: SocketAddr,
    keys: Vec<Vec<u8>>,
    partitions: usize,
    stop: Arc<AtomicBool>,
) -> JoinHandle<Result<ServeReport, String>> {
    std::thread::spawn(move || {
        let connect = Instant::now();
        let mut client = StateClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut report = ServeReport {
            connect_ms: connect.elapsed().as_secs_f64() * 1e3,
            ..ServeReport::default()
        };
        // A key is answered by the partition that owns it, and before a
        // partition's first watermark it has published nothing: a lookup
        // routed there would be refused. That is start-up, not load.
        while client.list_states().map_err(|e| e.to_string())?.len() < partitions {
            if stop.load(Ordering::Relaxed) {
                return Ok(report);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let batch_hist = Histogram::new();
        let kind_hists: [Histogram; 3] = std::array::from_fn(|_| Histogram::new());
        let mut cursor = 0usize;
        let started = Instant::now();
        let mut i = 0usize;
        while !stop.load(Ordering::Relaxed) {
            let kind = i % KINDS.len();
            let requests = batch_of(kind, &keys, &mut cursor);
            let begin = Instant::now();
            let responses = client
                .call_batch(&requests)
                .map_err(|e| format!("batch: {e}"))?;
            let nanos = begin.elapsed().as_nanos() as u64;
            batch_hist.record(nanos);
            kind_hists[kind].record(nanos);
            report.requests += requests.len() as u64;
            if responses.len() != requests.len() {
                report.errors += requests.len().abs_diff(responses.len()) as u64;
            }
            check(kind, &responses, &mut report);
            i += 1;
        }
        report.secs = started.elapsed().as_secs_f64();
        report.batch = batch_hist.snapshot();
        report.per_kind = std::array::from_fn(|k| kind_hists[k].snapshot());
        Ok(report)
    })
}
