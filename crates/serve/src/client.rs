//! Blocking client for the FlowKV state server.
//!
//! One [`StateClient`] wraps one TCP connection, which speaks the one
//! id-carrying framing of [`protocol`](crate::protocol) from its first
//! frame.
//!
//! The client is a **pipelined façade**: [`StateClient::call_batch`]
//! writes a whole batch of requests, each under its own request id,
//! before reading any response, so the server can answer all of them in
//! one wake-up instead of paying a round trip each. The batched query
//! surface — [`lookup_many`]
//! ([`StateClient::lookup_many`]) and [`scan_filtered`]
//! ([`StateClient::scan_filtered`]) — rides on it, and every blocking
//! single-shot method is just a batch of one. The client is deliberately
//! not `Sync` — spawn one per querying thread, as the load generator
//! does.

use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::metrics::MetricsSnapshot;
use flowkv_common::registry::{StatePattern, ViewValue};
use flowkv_common::telemetry::MetricSample;
use flowkv_common::trace::AttributionRow;
use flowkv_common::types::{Timestamp, WindowId};

use crate::protocol::{
    read_frame, split_request_id, write_frame, Request, Response, ScanEntry, ScanFilter, StateInfo,
};

/// A point-lookup answer: the snapshot coordinates plus the value, if
/// the key was live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupResult {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Watermark the snapshot is aligned to.
    pub watermark: Timestamp,
    /// `(window, value)` if the key was found.
    pub found: Option<(WindowId, ViewValue)>,
}

/// A batched-lookup answer: one slot per requested key, positionally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupBatchResult {
    /// Minimum epoch across the answering partitions.
    pub epoch: u64,
    /// Minimum watermark across the answering partitions.
    pub watermark: Timestamp,
    /// Per-key results, in request order.
    pub found: Vec<Option<(WindowId, ViewValue)>>,
}

/// A filtered-scan answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanResult {
    /// Minimum epoch across the answering partitions.
    pub epoch: u64,
    /// Minimum watermark across the answering partitions.
    pub watermark: Timestamp,
    /// Matching entries.
    pub entries: Vec<ScanEntry>,
}

/// An operator-metrics answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsResult {
    /// Pattern of the operator's store.
    pub pattern: StatePattern,
    /// Partitions merged into the report.
    pub partitions: u64,
    /// Live entries across partitions.
    pub entries: u64,
    /// Minimum watermark across partitions.
    pub watermark: Timestamp,
    /// Summed store counters.
    pub metrics: MetricsSnapshot,
}

/// A latency-attribution answer: the server-side trace table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Sampled batches the table aggregates.
    pub traces: u64,
    /// One row per stage, in [`flowkv_common::trace::STAGES`] order.
    pub rows: Vec<AttributionRow>,
    /// End-to-end totals.
    pub total: AttributionRow,
}

/// Blocking connection to a [`StateServer`](crate::server::StateServer).
pub struct StateClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl StateClient {
    /// Connects to a state server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream =
            TcpStream::connect(addr).map_err(|e| StoreError::io("state client connect", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| StoreError::io("state client set_nodelay", e))?;
        let reader = stream
            .try_clone()
            .map_err(|e| StoreError::io("state client clone", e))?;
        Ok(StateClient {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }

    /// Caps how long a single response read may block.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.reader
            .set_read_timeout(timeout)
            .map_err(|e| StoreError::io("state client set_read_timeout", e))
    }

    /// Issues `requests` as one pipelined batch: every frame is written
    /// before any response is read, so the whole batch costs one round
    /// trip. Responses are correlated by request id and returned in
    /// request order; a per-request server error is returned in its slot
    /// as [`Response::Error`] rather than failing the batch.
    pub fn call_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>> {
        use std::io::Write as _;
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let first_id = self.next_id;
        for (i, request) in requests.iter().enumerate() {
            write_frame(&mut self.writer, first_id + i as u64, &request.encode())?;
        }
        self.next_id = first_id + requests.len() as u64;
        self.writer
            .flush()
            .map_err(|e| StoreError::io("state client flush", e))?;
        let mut slots: Vec<Option<Response>> = vec![None; requests.len()];
        let mut expected: HashMap<u64, usize> = (0..requests.len())
            .map(|i| (first_id + i as u64, i))
            .collect();
        while !expected.is_empty() {
            let payload = read_frame(&mut self.reader)?
                .ok_or_else(|| StoreError::invalid_state("server closed mid-batch"))?;
            let (id, body) = split_request_id(&payload)?;
            let Some(slot) = expected.remove(&id) else {
                return Err(StoreError::invalid_state(format!(
                    "response carries unknown request id {id}"
                )));
            };
            slots[slot] = Some(Response::decode(body)?);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all ids seen"))
            .collect())
    }

    /// One request, one response: a batch of one, with server errors
    /// lifted into `Err`.
    fn call(&mut self, request: &Request) -> Result<Response> {
        let response = self
            .call_batch(std::slice::from_ref(request))?
            .pop()
            .expect("one response per request");
        if let Response::Error { code, message } = response {
            return Err(StoreError::invalid_state(format!(
                "server error ({code:?}): {message}"
            )));
        }
        Ok(response)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Enumerates every published state, with each state's TTL.
    pub fn list_states(&mut self) -> Result<Vec<StateInfo>> {
        match self.call(&Request::ListStates)? {
            Response::States(states) => Ok(states),
            other => Err(unexpected(&other)),
        }
    }

    /// Looks up `key` in a specific window.
    pub fn lookup(
        &mut self,
        job: &str,
        operator: &str,
        key: &[u8],
        window: WindowId,
    ) -> Result<LookupResult> {
        self.lookup_inner(job, operator, key, Some(window))
    }

    /// Looks up `key` in its latest live window.
    pub fn lookup_latest(&mut self, job: &str, operator: &str, key: &[u8]) -> Result<LookupResult> {
        self.lookup_inner(job, operator, key, None)
    }

    fn lookup_inner(
        &mut self,
        job: &str,
        operator: &str,
        key: &[u8],
        window: Option<WindowId>,
    ) -> Result<LookupResult> {
        let request = Request::Lookup {
            job: job.into(),
            operator: operator.into(),
            key: key.to_vec(),
            window,
        };
        match self.call(&request)? {
            Response::Value {
                epoch,
                watermark,
                found,
            } => Ok(LookupResult {
                epoch,
                watermark,
                found,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Looks up many keys of one operator in a single round trip,
    /// answered positionally. With `window` unset each key answers from
    /// its latest live window.
    pub fn lookup_many(
        &mut self,
        job: &str,
        operator: &str,
        keys: &[Vec<u8>],
        window: Option<WindowId>,
    ) -> Result<LookupBatchResult> {
        let request = Request::LookupMany {
            job: job.into(),
            operator: operator.into(),
            keys: keys.to_vec(),
            window,
        };
        match self.call(&request)? {
            Response::ValueBatch {
                epoch,
                watermark,
                found,
            } => Ok(LookupBatchResult {
                epoch,
                watermark,
                found,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Scans with server-side filters — key prefix, window-overlap
    /// bounds, limit — applied before anything crosses the wire. A plain
    /// range scan is [`ScanFilter::range`].
    pub fn scan_filtered(
        &mut self,
        job: &str,
        operator: &str,
        filter: ScanFilter,
    ) -> Result<ScanResult> {
        let request = Request::ScanFiltered {
            job: job.into(),
            operator: operator.into(),
            filter,
        };
        match self.call(&request)? {
            Response::ScanResult {
                epoch,
                watermark,
                entries,
            } => Ok(ScanResult {
                epoch,
                watermark,
                entries,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches merged store metrics for one operator.
    pub fn metrics(&mut self, job: &str, operator: &str) -> Result<MetricsResult> {
        self.metrics_inner(job, operator, false).map(|(m, _)| m)
    }

    /// Fetches merged store metrics plus the server's telemetry-registry
    /// samples (empty when the server was started without telemetry).
    pub fn metrics_with_registry(
        &mut self,
        job: &str,
        operator: &str,
    ) -> Result<(MetricsResult, Vec<MetricSample>)> {
        self.metrics_inner(job, operator, true)
    }

    fn metrics_inner(
        &mut self,
        job: &str,
        operator: &str,
        include_registry: bool,
    ) -> Result<(MetricsResult, Vec<MetricSample>)> {
        let request = Request::Metrics {
            job: job.into(),
            operator: operator.into(),
            include_registry,
        };
        match self.call(&request)? {
            Response::MetricsReport {
                pattern,
                partitions,
                entries,
                watermark,
                metrics,
                registry,
            } => Ok((
                MetricsResult {
                    pattern,
                    partitions,
                    entries,
                    watermark,
                    metrics,
                },
                registry,
            )),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's full metric surface rendered in Prometheus
    /// text exposition format 0.0.4.
    pub fn prometheus(&mut self) -> Result<String> {
        match self.call(&Request::Prometheus)? {
            Response::PrometheusText(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the job's latency-attribution table. With `drain` set the
    /// server empties its span rings, so the next summary covers only
    /// batches traced after this call. All-zero when the job is
    /// untraced.
    pub fn trace_summary(&mut self, drain: bool) -> Result<TraceSummary> {
        match self.call(&Request::TraceSummary { drain })? {
            Response::TraceSummaryReport {
                traces,
                rows,
                total,
            } => Ok(TraceSummary {
                traces,
                rows,
                total,
            }),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> StoreError {
    StoreError::invalid_state(format!("unexpected response type: {resp:?}"))
}
