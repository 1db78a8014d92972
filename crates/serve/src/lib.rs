//! Queryable-state serving layer for FlowKV.
//!
//! Stream-processing state is traditionally opaque: the only way to
//! observe an aggregate is to wait for the job to emit it. This crate
//! adds an external read path over live FlowKV stores without perturbing
//! the write path:
//!
//! 1. Workers publish immutable, epoch-pinned
//!    [`StateView`](flowkv_common::registry::StateView) snapshots into a
//!    shared [`StateRegistry`](flowkv_common::registry::StateRegistry)
//!    each time their watermark advances (see
//!    `RunOptions::registry` in `flowkv-spe`).
//! 2. [`StateServer`](server::StateServer) — built via
//!    [`ServerBuilder`] — answers point lookups, batched multi-key
//!    lookups, filtered range scans, and metrics queries over those
//!    snapshots via a length-prefixed binary TCP protocol
//!    ([`protocol`]). The core is a non-blocking **event loop**
//!    multiplexing every connection onto one readiness-polled thread;
//!    every frame carries a request id, so clients can pipeline many
//!    requests per connection.
//! 3. [`StateClient`](client::StateClient) is the matching blocking
//!    client with a pipelined batch façade; the `perf` benchmark's
//!    `q12-rmw-serve` workload drives it against a live job and reports
//!    lookup throughput and latency percentiles.
//!
//! Because snapshots are immutable and reads never touch worker-owned
//! stores, serving is invisible to the job: outputs are byte-identical
//! with or without concurrent queries (asserted by this crate's
//! integration tests).

#![warn(missing_docs)]

pub mod client;
#[cfg(unix)]
mod event_loop;
mod poll;
pub mod protocol;
pub mod server;

pub use client::{
    LookupBatchResult, LookupResult, MetricsResult, ScanResult, StateClient, TraceSummary,
};
pub use protocol::{ErrorCode, Request, Response, ScanEntry, ScanFilter, StateInfo, MAX_FRAME};
pub use server::{route_key, ServerBuilder, StateServer};
