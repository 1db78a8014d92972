//! A mini stream-processing engine: the Flink analog.
//!
//! The FlowKV paper runs its evaluation on Apache Flink; this crate
//! reproduces the parts of such an engine that the store interacts with:
//!
//! - timestamped keyed tuples flowing through a pipeline of stages
//!   ([`job`]), executed by key-partitioned single-threaded workers with
//!   watermark-driven event time ([`executor`]) — the deployment model
//!   FlowKV's single-writer stores assume (paper §2.1);
//! - window operators ([`operator`]) covering fixed, sliding, session,
//!   global, and count windows ([`window`]), with both incremental
//!   (`AggregateFunction`) and full-list (`ProcessWindowFunction`)
//!   aggregation ([`functions`]) — the two signatures FlowKV classifies
//!   at launch (paper §3.1);
//! - pluggable state backends selected per run ([`backends`]): FlowKV,
//!   the LSM (RocksDB-analog) baseline, the hash (FASTER-analog)
//!   baseline, and a budgeted in-memory store ([`memstore`]) that fails
//!   with out-of-memory like the paper's in-memory baseline;
//! - latency sampling at the sink ([`latency`]) for the paper's
//!   tail-latency experiments (§6.2);
//! - supervised recovery ([`supervisor`]): bounded restart-with-backoff
//!   that restores operators from the last completed checkpoint and
//!   rewinds the replayable source to its recorded offset (§8);
//! - live rescaling ([`rescale`]): recovery at another parallelism, a
//!   second phase of the one runner restored from a repartitioned
//!   checkpoint.

pub mod backends;
pub mod backoff;
mod batch;
pub mod executor;
pub mod functions;
pub mod job;
pub mod join;
pub mod latency;
pub mod memstore;
pub mod operator;
pub mod rescale;
pub mod source;
pub mod supervisor;
pub mod window;

pub use backends::{BackendChoice, FactoryOptions};
pub use batch::TupleBatch;
pub use executor::{run_job, JobError, JobResult, RunOptions};
pub use job::{AggregateSpec, Job, JobBuilder, Stage};
pub use latency::Stamped;
pub use supervisor::{run_supervised, SupervisedResult};
pub use window::WindowAssigner;
