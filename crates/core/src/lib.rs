//! FlowKV: a semantic-aware persistent store for stream-processing state.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Lee et al., *FlowKV: A Semantic-Aware Store for Large-Scale State
//! Management of Stream Processing Engines*, EuroSys '23). Unlike generic
//! KV stores, FlowKV exploits what the stream engine knows about **how**
//! and **when** window operators access their state:
//!
//! - At application launch, [`pattern::classify`] inspects the operator's
//!   aggregate-function and window-function signatures and selects one of
//!   three specialized stores (paper §3.1):
//!   [`aar::AarStore`] (append + aligned read),
//!   [`aur::AurStore`] (append + unaligned read), and
//!   [`rmw::RmwStore`] (read-modify-write).
//! - Each store deploys data layouts shaped by window boundaries rather
//!   than by keys alone (*leveraging how*, paper §4): per-window log
//!   files for AAR, a global data log plus an append-only index log for
//!   AUR, a hash index for RMW.
//! - The AUR store predicts each window's trigger time from window
//!   semantics and tuple timestamps ([`ett`]) and prefetches the windows
//!   about to trigger in one sequential batch (*leveraging when*,
//!   paper §4.2), integrating log compaction with that scan.
//! - [`partition::Partitioned`] deploys `m` independent store
//!   instances per physical operator so compactions stay small and
//!   latency spikes stay bounded (paper §3).
//!
//! The unified entry point is [`store::FlowKvStore`], a
//! [`flowkv_common::backend::StateBackend`] that a stream engine plugs in
//! exactly like the RocksDB- or FASTER-style baselines.
//!
//! # Examples
//!
//! ```
//! use flowkv::config::FlowKvConfig;
//! use flowkv::store::FlowKvStore;
//! use flowkv_common::backend::{AggregateKind, OperatorSemantics, StateBackend, WindowKind};
//! use flowkv_common::scratch::ScratchDir;
//! use flowkv_common::types::WindowId;
//!
//! let dir = ScratchDir::new("flowkv-doc").unwrap();
//! let semantics = OperatorSemantics::new(
//!     AggregateKind::FullList,
//!     WindowKind::Fixed { size: 1_000 },
//! );
//! let mut store =
//!     FlowKvStore::open(dir.path(), semantics, FlowKvConfig::default()).unwrap();
//! let w = WindowId::new(0, 1_000);
//! store.append(b"user", w, b"bid-17", 42).unwrap();
//! let chunk = store.get_window_chunk(w).unwrap().unwrap();
//! assert_eq!(chunk[0].0, b"user");
//! ```

pub mod aar;
pub mod aur;
pub mod config;
pub mod ett;
mod genlog;
pub mod partition;
pub mod pattern;
pub mod rmw;
pub mod store;
pub(crate) mod table;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
pub(crate) mod test_common;
pub mod tier;

pub use config::FlowKvConfig;
pub use ett::EttObservation;
pub use pattern::AccessPattern;
pub use store::{FlowKvFactory, FlowKvStore};
pub use tier::{TierConfig, TieredFactory, TieredStore};
