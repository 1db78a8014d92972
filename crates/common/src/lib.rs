//! Shared substrate for the FlowKV reproduction.
//!
//! This crate hosts everything that the FlowKV store, the two baseline
//! stores (LSM / hash), and the stream-processing engine have in common:
//!
//! - [`types`] — timestamped key-value tuples and window identifiers, the
//!   vocabulary of the whole system (paper §2.1).
//! - [`codec`] — varint and fixed-width little-endian encoding plus a
//!   hand-rolled CRC32 used to checksum every on-disk record.
//! - [`logfile`] — checksummed append-only log files with torn-write
//!   recovery; every store in the workspace persists through these.
//! - [`backend`] — the [`backend::StateBackend`] trait, the contract
//!   between the stream engine and any state store. It mirrors Listing 1
//!   of the paper: every call carries explicit window metadata.
//! - [`metrics`] — per-category time/byte accounting used to regenerate
//!   the paper's breakdown figures (Figures 4 and 10).
//! - [`hash`] — the 64-bit key hash shared by hash indexes and
//!   partitioning, and the fold hasher of the in-memory key tables.
//! - [`dict`] — byte strings interned in one allocation and rows grouped
//!   by number: how the cold-block writer and the window operator hold
//!   borrowed pairs without a `Vec` per pair.
//! - [`registry`] — the queryable-state registry: immutable snapshot
//!   views of live operator state that workers publish at watermark
//!   boundaries and the serving layer reads concurrently.
//! - [`scratch`] — unique scratch directories for tests and benchmarks.
//! - [`telemetry`] — the pipeline-wide metric registry (counters, gauges,
//!   log-linear histograms) and its JSONL and Prometheus exposition
//!   formats.
//! - [`ioring`] — the per-worker background I/O pool and the read-ahead
//!   lanes that run store reads on it through the [`vfs`] seam, used to
//!   move predictable reads (prefetch, warm-up, snapshots) off the hot
//!   path without changing observable semantics.
//! - [`trace`] — causal span tracing: per-thread bounded span rings, a
//!   sampled per-batch trace context that propagates through stores and
//!   the I/O ring, Chrome trace-event export (Perfetto-loadable), and
//!   critical-path latency attribution.
//! - [`vfs`] — the virtual filesystem seam every store persists through:
//!   a passthrough [`vfs::StdVfs`] and a deterministic, seeded
//!   [`vfs::FaultVfs`] for torn-write / dropped-fsync / ENOSPC /
//!   crash-point injection.

pub mod backend;
pub mod codec;
pub mod columnar;
pub mod dict;
pub mod error;
pub mod hash;
pub mod ioring;
pub mod logfile;
pub mod metrics;
pub mod registry;
pub mod scratch;
pub mod telemetry;
pub mod trace;
pub mod types;
pub mod vfs;

pub use backend::StateBackend;
pub use error::{Result, StoreError};
pub use ioring::IoRing;
pub use registry::{StateKey, StateRegistry, StateView, ViewValue};
pub use telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricRegistry, MetricSample, SampleValue,
    Telemetry,
};
pub use trace::{SpanRecorder, TraceCtx, Tracer};
pub use types::{Timestamp, Tuple, WindowId};
pub use vfs::{FaultKind, FaultPlan, FaultVfs, StdVfs, Vfs, VfsFile};
