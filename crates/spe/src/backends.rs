//! Backend selection: one switch to run the same job over FlowKV, the
//! LSM baseline, the hash baseline, or the in-memory store (paper §6,
//! "General Configuration").

use std::sync::Arc;

use flowkv::{FlowKvConfig, FlowKvFactory};
use flowkv_common::backend::StateBackendFactory;
use flowkv_common::vfs::{StdVfs, Vfs};
use flowkv_hashkv::backend::HashBackendFactory;
use flowkv_hashkv::HashDbConfig;
use flowkv_lsm::backend::LsmBackendFactory;
use flowkv_lsm::DbConfig;

use crate::memstore::InMemoryFactory;

/// Options applied when materialising a [`BackendChoice`] into a
/// [`StateBackendFactory`] — the one place every cross-cutting seam
/// (fault-injecting VFS, two-tier layout, whatever comes next) plugs in,
/// so the choice enum needs no constructor per combination.
///
/// ```
/// use flowkv::tier::TierConfig;
/// use flowkv_common::vfs::StdVfs;
/// use flowkv_spe::{BackendChoice, FactoryOptions};
///
/// let choice = &BackendChoice::all_small_for_tests()[1];
/// let options = FactoryOptions::new()
///     .vfs(StdVfs::shared())
///     .tiered(TierConfig::new(1 << 20));
/// assert_eq!(choice.build(options).name(), "tiered");
/// ```
#[derive(Clone, Default)]
pub struct FactoryOptions {
    vfs: Option<Arc<dyn Vfs>>,
    tier: Option<flowkv::tier::TierConfig>,
}

impl FactoryOptions {
    /// No options: the plain factory for the chosen backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes every file operation of the backend — and of the cold
    /// log, when [`tiered`](Self::tiered) is also set — through `vfs`,
    /// the hook fault-injection tests use to reach all stores uniformly.
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Wraps the backend in the two-tier hot/cold layout.
    pub fn tiered(mut self, cfg: flowkv::tier::TierConfig) -> Self {
        self.tier = Some(cfg);
        self
    }
}

/// The four state backends of the paper's evaluation.
#[derive(Clone)]
pub enum BackendChoice {
    /// The budgeted in-memory store (fails with OOM on large state).
    InMemory {
        /// Byte budget per operator partition.
        budget_per_partition: usize,
    },
    /// FlowKV, the semantic-aware composite store.
    FlowKv(FlowKvConfig),
    /// The LSM-tree baseline (RocksDB analog).
    Lsm(DbConfig),
    /// The hash-store baseline (FASTER analog).
    HashKv(HashDbConfig),
}

impl BackendChoice {
    /// Short name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            BackendChoice::InMemory { .. } => "inmemory",
            BackendChoice::FlowKv(_) => "flowkv",
            BackendChoice::Lsm(_) => "lsm",
            BackendChoice::HashKv(_) => "hashkv",
        }
    }

    /// Builds the factory the executor hands to window operators,
    /// applying every option in `opts`: the inner store is constructed
    /// first (over the given VFS, or the real filesystem), then wrapped
    /// in the two-tier layout (whose cold log shares the same VFS).
    pub fn build(&self, opts: FactoryOptions) -> Arc<dyn StateBackendFactory> {
        let vfs = opts.vfs.unwrap_or_else(StdVfs::shared);
        let inner: Arc<dyn StateBackendFactory> = match self {
            BackendChoice::InMemory {
                budget_per_partition,
            } => Arc::new(InMemoryFactory::new(*budget_per_partition).with_vfs(Arc::clone(&vfs))),
            BackendChoice::FlowKv(cfg) => {
                Arc::new(FlowKvFactory::new(cfg.clone()).with_vfs(Arc::clone(&vfs)))
            }
            BackendChoice::Lsm(cfg) => {
                Arc::new(LsmBackendFactory::new(cfg.clone()).with_vfs(Arc::clone(&vfs)))
            }
            BackendChoice::HashKv(cfg) => {
                Arc::new(HashBackendFactory::new(cfg.clone()).with_vfs(Arc::clone(&vfs)))
            }
        };
        match opts.tier {
            None => inner,
            Some(cfg) => Arc::new(flowkv::tier::TieredFactory::new(inner, cfg).with_vfs(vfs)),
        }
    }

    /// Scaled-down variants for tests: small buffers everywhere.
    pub fn all_small_for_tests() -> Vec<BackendChoice> {
        vec![
            BackendChoice::InMemory {
                budget_per_partition: 64 << 20,
            },
            BackendChoice::FlowKv(FlowKvConfig::small_for_tests()),
            BackendChoice::Lsm(DbConfig::small_for_tests()),
            BackendChoice::HashKv(HashDbConfig::small_for_tests()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::backend::{AggregateKind, OperatorContext, OperatorSemantics, WindowKind};
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::types::WindowId;

    #[test]
    fn every_choice_builds_a_working_backend() {
        let dir = ScratchDir::new("backends").unwrap();
        for choice in BackendChoice::all_small_for_tests() {
            let factory = choice.build(FactoryOptions::new());
            let ctx = OperatorContext {
                operator: format!("op-{}", choice.name()),
                partition: 0,
                semantics: OperatorSemantics::new(
                    AggregateKind::FullList,
                    WindowKind::Session { gap: 100 },
                ),
                data_dir: dir.path().to_path_buf(),
                telemetry: None,
                io: None,
            };
            let mut backend = factory.create(&ctx).unwrap();
            let w = WindowId::new(0, 100);
            backend.append(b"k", w, b"v", 1).unwrap();
            assert_eq!(
                backend.take_values(b"k", w).unwrap(),
                vec![b"v".to_vec()],
                "backend {}",
                choice.name()
            );
            backend.close().unwrap();
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = BackendChoice::all_small_for_tests()
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(names, vec!["inmemory", "flowkv", "lsm", "hashkv"]);
    }
}
