//! The composite FlowKV store: dispatch by access pattern, and the
//! [`StateBackend`] integration (paper §3, Figure 5).
//!
//! At construction, [`FlowKvStore::open`] reads the access pattern of
//! the operator's semantics ([`OperatorSemantics::pattern`]) and
//! instantiates `m` partitioned instances of the matching specialized
//! store. At runtime, the pattern determines which of the Listing-1 APIs
//! are legal; calling a mismatched API is a contract violation and
//! returns [`StoreError::InvalidState`] — the engine selects the right
//! calls from the same pattern.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::backend::{
    collect_chunk, AggregateKind, AggregateUpdate, KeyFilter, OperatorContext, OperatorSemantics,
    PairSink, Pattern, StateBackend, StateBackendFactory, StateEntry, ValueSink, WindowChunk,
};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::ioring::IoRing;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::registry::{StateView, ViewValue};
use flowkv_common::telemetry::Telemetry;
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::Vfs;

use crate::aar::AarStore;
use crate::aur::{AurConfig, AurStore};
use crate::config::FlowKvConfig;
use crate::ett::EttPredictor;
use crate::partition::Partitioned;
use crate::rmw::{RmwConfig, RmwStore};

/// The migratable form of one view entry (`extract_range` answers in
/// these; this store and the tier both scan state as view entries).
pub(crate) fn state_entry(key: Vec<u8>, window: WindowId, value: ViewValue) -> StateEntry {
    match value {
        ViewValue::Values(values) => StateEntry::Values {
            key,
            window,
            values,
        },
        ViewValue::Aggregate(value) => StateEntry::Aggregate { key, window, value },
    }
}

/// The pattern-specific store instances behind one [`FlowKvStore`].
enum Inner {
    Aar(Partitioned<AarStore>),
    Aur(Partitioned<AurStore>),
    Rmw(Partitioned<RmwStore>),
}

/// Evaluates `$body` with `$p` bound to the [`Partitioned`] instances of
/// whichever store `$inner` holds. The three stores share their lifecycle
/// methods by name and signature, so the front states each lifecycle
/// operation once and dispatches only the pattern operations of Listing 1
/// by pattern.
macro_rules! each_store {
    ($inner:expr, $p:ident => $body:expr) => {
        match $inner {
            Inner::Aar($p) => $body,
            Inner::Aur($p) => $body,
            Inner::Rmw($p) => $body,
        }
    };
}

/// Where instance `j` lives under a store (or checkpoint) directory.
fn instance_dir(dir: &Path, j: usize) -> PathBuf {
    dir.join(format!("inst{j}"))
}

/// Opens the `m` instances of one store.
fn open_instances<S>(
    dir: &Path,
    m: usize,
    open: impl Fn(&Path) -> Result<S>,
) -> Result<Partitioned<S>> {
    let instances: Result<Vec<S>> = (0..m).map(|j| open(&instance_dir(dir, j))).collect();
    instances.map(Partitioned::new)
}

/// The semantic-aware composite store for one operator partition.
pub struct FlowKvStore {
    dir: PathBuf,
    inner: Inner,
    metrics: Arc<StoreMetrics>,
    vfs: Arc<dyn Vfs>,
}

impl FlowKvStore {
    /// Opens a store in `dir` for an operator with the given semantics,
    /// routing every file operation of every inner store instance
    /// through `vfs`.
    pub fn open(
        dir: &Path,
        semantics: OperatorSemantics,
        config: FlowKvConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        config.validate()?;
        let metrics = StoreMetrics::new_shared();
        let m = config.store_instances;
        // Each instance gets an even share of the write buffer, matching
        // the paper's per-operator budget split across `m` instances.
        let per_instance_buffer = (config.write_buffer_bytes / m).max(1024);
        let inner = match semantics.pattern() {
            Pattern::Aar => Inner::Aar(open_instances(dir, m, |dir| {
                AarStore::open(
                    dir,
                    per_instance_buffer,
                    config.chunk_entries,
                    Arc::clone(&metrics),
                    Arc::clone(&vfs),
                )
            })?),
            Pattern::Aur => {
                let predictor =
                    EttPredictor::for_window_kind(semantics.window, config.custom_ett.clone());
                let aur_cfg = AurConfig {
                    write_buffer_bytes: per_instance_buffer,
                    read_batch_ratio: config.read_batch_ratio,
                    max_space_amplification: config.max_space_amplification,
                };
                Inner::Aur(open_instances(dir, m, |dir| {
                    AurStore::open(
                        dir,
                        aur_cfg.clone(),
                        predictor.clone(),
                        Arc::clone(&metrics),
                        Arc::clone(&vfs),
                    )
                })?)
            }
            Pattern::Rmw => {
                let rmw_cfg = RmwConfig {
                    write_buffer_bytes: per_instance_buffer,
                    max_space_amplification: config.max_space_amplification,
                };
                Inner::Rmw(open_instances(dir, m, |dir| {
                    RmwStore::open(dir, rmw_cfg.clone(), Arc::clone(&metrics), Arc::clone(&vfs))
                })?)
            }
        };
        Ok(FlowKvStore {
            dir: dir.to_path_buf(),
            inner,
            metrics,
            vfs,
        })
    }

    /// Hands the worker's background [`IoRing`] to the lane of every
    /// instance that reads ahead (AAR and AUR).
    pub fn set_ring(&mut self, ring: Arc<IoRing>) {
        match &mut self.inner {
            Inner::Aar(p) => p.iter_mut().for_each(|s| s.set_ring(Arc::clone(&ring))),
            Inner::Aur(p) => p.iter_mut().for_each(|s| s.set_ring(Arc::clone(&ring))),
            Inner::Rmw(_) => {}
        }
    }

    /// Wires a job-wide telemetry handle into the AAR and AUR instances,
    /// so prefetch accuracy (`prefetch_*`) and predicted-vs-actual
    /// trigger times (`store_ett_*`) are recorded in its registry. `tag`
    /// labels the emitting partition, `operator/p<N>`; instance `j`
    /// reports as `{store=tag/inst<j>}`.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>, tag: &str) {
        let tag_of = |j: usize| format!("{tag}/inst{j}");
        match &mut self.inner {
            Inner::Aar(p) => p.iter_mut().enumerate().for_each(|(j, s)| {
                s.set_telemetry(Arc::clone(&telemetry), &tag_of(j));
            }),
            Inner::Aur(p) => p.iter_mut().enumerate().for_each(|(j, s)| {
                s.set_telemetry(Arc::clone(&telemetry), &tag_of(j));
            }),
            Inner::Rmw(_) => {}
        }
    }

    /// The access pattern chosen at launch: that of the store it opened.
    pub fn pattern(&self) -> Pattern {
        match self.inner {
            Inner::Aar(_) => Pattern::Aar,
            Inner::Aur(_) => Pattern::Aur,
            Inner::Rmw(_) => Pattern::Rmw,
        }
    }

    /// Number of store instances (`m`).
    pub fn instances(&self) -> usize {
        each_store!(&self.inner, p => p.len())
    }

    /// Every live `(key, window)` entry, copied out without consuming
    /// anything: the scan behind `read_view` and `extract_range`.
    fn collect_entries(&mut self) -> Result<BTreeMap<(Vec<u8>, WindowId), ViewValue>> {
        let mut entries = BTreeMap::new();
        // Key-hash routing makes instance key spaces disjoint, so merging
        // the per-instance maps never collides.
        each_store!(&mut self.inner, p => {
            p.iter_mut().try_for_each(|s| s.collect_view(&mut entries))?
        });
        Ok(entries)
    }

    fn wrong_pattern(&self, method: &str) -> StoreError {
        StoreError::invalid_state(format!(
            "{method} is not part of the {:?} store API",
            self.pattern()
        ))
    }
}

impl StateBackend for FlowKvStore {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        match &mut self.inner {
            Inner::Aar(p) => p.for_key(key).append(key, window, value),
            Inner::Aur(p) => p.for_key(key).append(key, window, value, ts),
            Inner::Rmw(_) => Err(self.wrong_pattern("Append")),
        }
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        collect_chunk(|sink| self.drain_window_chunk(window, sink))
    }

    fn drain_window_chunk(&mut self, window: WindowId, sink: PairSink<'_>) -> Result<bool> {
        let Inner::Aar(p) = &mut self.inner else {
            return Err(self.wrong_pattern("GetWindow"));
        };
        // Instance by instance, so only one chunk is in flight: an
        // instance that holds nothing of the window (any more) says so
        // from one lookup in its window table.
        for instance in p.iter_mut() {
            if instance.drain_window_chunk(window, sink)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        match &mut self.inner {
            Inner::Aur(p) => p.for_key(key).take(key, window),
            _ => Err(self.wrong_pattern("Get(K, W) → List<V>")),
        }
    }

    fn take_values_with(
        &mut self,
        key: &[u8],
        window: WindowId,
        sink: ValueSink<'_>,
    ) -> Result<usize> {
        match &mut self.inner {
            Inner::Aur(p) => p.for_key(key).take_with(key, window, sink),
            _ => Err(self.wrong_pattern("Get(K, W) → List<V>")),
        }
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        match &mut self.inner {
            Inner::Aur(p) => p.for_key(key).peek(key, window),
            _ => Err(self.wrong_pattern("Peek(K, W) → List<V>")),
        }
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        match &mut self.inner {
            Inner::Rmw(p) => p.for_key(key).take(key, window),
            _ => Err(self.wrong_pattern("Get(K, W) → A")),
        }
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        match &mut self.inner {
            Inner::Rmw(p) => p.for_key(key).put(key, window, aggregate),
            _ => Err(self.wrong_pattern("Put(K, W, A)")),
        }
    }

    fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        update: AggregateUpdate<'_>,
    ) -> Result<()> {
        match &mut self.inner {
            Inner::Rmw(p) => p.for_key(key).update(key, window, update),
            _ => Err(self.wrong_pattern("Update(K, W, f)")),
        }
    }

    fn flush(&mut self) -> Result<()> {
        each_store!(&mut self.inner, p => p.iter_mut().try_for_each(|s| s.flush()))
    }

    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        each_store!(&mut self.inner, p => {
            p.iter_mut().try_for_each(|s| s.advance_prefetch(stream_time))
        })
    }

    fn read_view(&mut self) -> Result<Option<StateView>> {
        let entries = self.collect_entries()?;
        Ok(Some(StateView::from_entries(Some(self.pattern()), entries)))
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        _kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        // The scan behind the queryable-state snapshot is exact and
        // non-consuming, which is precisely what migration needs.
        let mut entries = Vec::new();
        for ((key, window), value) in self.collect_entries()? {
            if !in_range(&key) {
                continue;
            }
            entries.push(state_entry(key, window, value));
        }
        Ok(entries)
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.metrics)
    }

    fn memory_bytes(&self) -> usize {
        each_store!(&self.inner, p => p.iter().map(|s| s.memory_bytes()).sum())
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.vfs
            .create_dir_all(dir)
            .map_err(|e| StoreError::io_at("flowkv checkpoint dir", dir, e))?;
        each_store!(&mut self.inner, p => {
            p.iter_mut().enumerate().try_for_each(|(j, s)| s.checkpoint(&instance_dir(dir, j)))
        })
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        each_store!(&mut self.inner, p => {
            p.iter_mut().enumerate().try_for_each(|(j, s)| s.restore(&instance_dir(dir, j)))
        })
    }

    fn close(&mut self) -> Result<()> {
        each_store!(&mut self.inner, p => p.iter_mut().try_for_each(|s| s.close()))?;
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

/// Factory producing [`FlowKvStore`] instances for operator partitions.
pub struct FlowKvFactory {
    config: FlowKvConfig,
    vfs: Arc<dyn Vfs>,
}

impl FlowKvFactory {
    /// Creates a factory with the given configuration, routing the file
    /// IO of every store it creates through `vfs`.
    pub fn new(config: FlowKvConfig, vfs: Arc<dyn Vfs>) -> Self {
        FlowKvFactory { config, vfs }
    }
}

impl StateBackendFactory for FlowKvFactory {
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        let dir = ctx.partition_dir();
        self.vfs
            .create_dir_all(&dir)
            .map_err(|e| StoreError::io_at("backend dir", &dir, e))?;
        let vfs = Arc::clone(&self.vfs);
        let mut store = FlowKvStore::open(&dir, ctx.semantics, self.config.clone(), vfs)?;
        // A store that reads ahead joins the ring and reports to the hub
        // under its own label.
        if let Some(ring) = &ctx.io {
            store.set_ring(Arc::clone(ring));
        }
        if let Some(telemetry) = &ctx.telemetry {
            store.set_telemetry(Arc::clone(telemetry), &ctx.telemetry_tag());
        }
        Ok(Box::new(store))
    }

    fn name(&self) -> &'static str {
        "flowkv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::backend::{AggregateKind, WindowKind};
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    fn open(dir: &Path, aggregate: AggregateKind, window: WindowKind) -> FlowKvStore {
        FlowKvStore::open(
            dir,
            OperatorSemantics::new(aggregate, window),
            FlowKvConfig::small_for_tests(),
            StdVfs::shared(),
        )
        .unwrap()
    }

    #[test]
    fn aar_dispatch_and_cross_instance_drain() {
        let dir = ScratchDir::new("fkv-aar").unwrap();
        let mut s = open(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Fixed { size: 100 },
        );
        assert_eq!(s.pattern(), Pattern::Aar);
        assert_eq!(s.instances(), 2);
        let win = w(0, 100);
        for i in 0..40u32 {
            s.append(format!("key-{i}").as_bytes(), win, b"v", i as i64)
                .unwrap();
        }
        let mut total = 0;
        while let Some(chunk) = s.get_window_chunk(win).unwrap() {
            total += chunk.iter().map(|(_, vs)| vs.len()).sum::<usize>();
        }
        assert_eq!(total, 40);
        // Wrong-pattern calls are contract violations.
        assert!(s.take_values(b"k", win).is_err());
        assert!(s.take_aggregate(b"k", win).is_err());
        assert!(s.put_aggregate(b"k", win, b"a").is_err());
    }

    #[test]
    fn aur_dispatch() {
        let dir = ScratchDir::new("fkv-aur").unwrap();
        let mut s = open(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
        );
        assert_eq!(s.pattern(), Pattern::Aur);
        let win = w(0, 100);
        s.append(b"k", win, b"v1", 10).unwrap();
        s.append(b"k", win, b"v2", 20).unwrap();
        assert_eq!(
            s.take_values(b"k", win).unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec()]
        );
        assert!(s.get_window_chunk(win).is_err());
        assert!(s.take_aggregate(b"k", win).is_err());
    }

    #[test]
    fn rmw_dispatch() {
        let dir = ScratchDir::new("fkv-rmw").unwrap();
        let mut s = open(
            dir.path(),
            AggregateKind::Incremental,
            WindowKind::Session { gap: 50 },
        );
        assert_eq!(s.pattern(), Pattern::Rmw);
        let win = w(0, 100);
        s.put_aggregate(b"k", win, b"7").unwrap();
        assert_eq!(s.take_aggregate(b"k", win).unwrap(), Some(b"7".to_vec()));
        assert!(s.append(b"k", win, b"v", 0).is_err());
        assert!(s.take_values(b"k", win).is_err());
    }

    #[test]
    fn keys_route_to_consistent_instances() {
        let dir = ScratchDir::new("fkv-routing").unwrap();
        let mut s = open(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
        );
        let win = w(0, 100);
        for i in 0..20u32 {
            let key = format!("key-{i}");
            s.append(key.as_bytes(), win, &i.to_le_bytes(), 1).unwrap();
        }
        for i in 0..20u32 {
            let key = format!("key-{i}");
            assert_eq!(
                s.take_values(key.as_bytes(), win).unwrap(),
                vec![i.to_le_bytes().to_vec()],
                "key {key} lost across partitions"
            );
        }
    }

    #[test]
    fn checkpoint_restore_all_instances() {
        let dir = ScratchDir::new("fkv-ckpt").unwrap();
        let ckpt = ScratchDir::new("fkv-ckpt-dst").unwrap();
        let mut s = open(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
        );
        let win = w(0, 100);
        for i in 0..10u32 {
            s.append(format!("key-{i}").as_bytes(), win, b"v", 1)
                .unwrap();
        }
        s.checkpoint(ckpt.path()).unwrap();
        for i in 0..10u32 {
            s.append(format!("key-{i}").as_bytes(), win, b"extra", 2)
                .unwrap();
        }
        s.restore(ckpt.path()).unwrap();
        for i in 0..10u32 {
            assert_eq!(
                s.take_values(format!("key-{i}").as_bytes(), win).unwrap(),
                vec![b"v".to_vec()]
            );
        }
    }

    #[test]
    fn factory_creates_and_names() {
        let dir = ScratchDir::new("fkv-factory").unwrap();
        let factory = FlowKvFactory::new(FlowKvConfig::small_for_tests(), StdVfs::shared());
        assert_eq!(factory.name(), "flowkv");
        let ctx = OperatorContext {
            operator: "op".into(),
            partition: 1,
            semantics: OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Global),
            data_dir: dir.path().to_path_buf(),
            telemetry: None,
            io: None,
        };
        let mut b = factory.create(&ctx).unwrap();
        b.put_aggregate(b"k", WindowId::global(), b"1").unwrap();
        assert_eq!(
            b.take_aggregate(b"k", WindowId::global()).unwrap(),
            Some(b"1".to_vec())
        );
    }

    #[test]
    fn read_view_merges_instances_and_never_consumes() {
        use flowkv_common::registry::ViewValue;
        let dir = ScratchDir::new("fkv-view").unwrap();
        let mut s = open(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Session { gap: 50 },
        );
        let win = w(0, 100);
        for i in 0..20u32 {
            s.append(format!("key-{i}").as_bytes(), win, &i.to_le_bytes(), 1)
                .unwrap();
        }
        let view = s.read_view().unwrap().expect("flowkv is queryable");
        assert_eq!(view.pattern, Some(Pattern::Aur));
        assert_eq!(view.len(), 20);
        for i in 0..20u32 {
            assert_eq!(
                view.get(format!("key-{i}").as_bytes(), win),
                Some(ViewValue::Values(vec![i.to_le_bytes().to_vec()]))
            );
        }
        // The snapshot consumed nothing: every key is still takeable.
        for i in 0..20u32 {
            assert_eq!(
                s.take_values(format!("key-{i}").as_bytes(), win).unwrap(),
                vec![i.to_le_bytes().to_vec()]
            );
        }
    }

    #[test]
    fn one_workers_keys_drain_view_and_checkpoint_through_both_instances() {
        // The engine feeds a store only the keys of its worker.
        use flowkv_common::hash::partition_of;
        let dir = ScratchDir::new("fkv-worker-keys").unwrap();
        let ckpt = ScratchDir::new("fkv-worker-keys-ckpt").unwrap();
        let mut s = open(
            dir.path(),
            AggregateKind::FullList,
            WindowKind::Fixed { size: 100 },
        );
        let win = w(0, 100);
        let keys = (0u32..).map(|i| format!("key-{i}").into_bytes());
        let keys: Vec<Vec<u8>> = keys.filter(|k| partition_of(k, 2) == 0).take(40).collect();
        for key in &keys {
            s.append(key, win, b"v", 0).unwrap();
        }
        let Inner::Aar(p) = &s.inner else {
            panic!("fixed windows of full lists are AAR");
        };
        let held: Vec<usize> = p.iter().map(|inst| inst.memory_bytes()).collect();
        assert!(held.iter().all(|&bytes| bytes > 0), "{held:?}");
        assert_eq!(s.read_view().unwrap().unwrap().len(), 40);
        s.checkpoint(ckpt.path()).unwrap();
        for j in 0..2 {
            let file = instance_dir(ckpt.path(), j).join("w_0_100.aar");
            assert!(file.exists(), "{}", file.display());
        }
        s.restore(ckpt.path()).unwrap();
        let mut drained = Vec::new();
        while let Some(chunk) = s.get_window_chunk(win).unwrap() {
            drained.extend(chunk.into_iter().map(|(key, _)| key));
        }
        drained.sort();
        let mut keys = keys;
        keys.sort();
        assert_eq!(drained, keys);
    }

    #[test]
    fn close_removes_directory() {
        let dir = ScratchDir::new("fkv-close").unwrap();
        let store_dir = dir.path().join("store");
        let mut s = open(
            &store_dir,
            AggregateKind::FullList,
            WindowKind::Fixed { size: 100 },
        );
        s.append(b"k", w(0, 100), b"v", 0).unwrap();
        s.flush().unwrap();
        s.close().unwrap();
        assert!(!store_dir.exists());
    }

    #[test]
    fn factory_creates_the_partition_directory_through_its_vfs() {
        use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = ScratchDir::new("fkv-factory-vfs").unwrap();
        let plan = FaultPlan::new().with_fault(1, FaultKind::Enospc);
        let vfs = FaultVfs::new(StdVfs::shared(), plan);
        let factory = FlowKvFactory::new(FlowKvConfig::small_for_tests(), vfs.clone());
        let ctx = OperatorContext {
            operator: "op".into(),
            partition: 1,
            semantics: OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Global),
            data_dir: dir.path().to_path_buf(),
            telemetry: None,
            io: None,
        };
        // The first thing a factory does is make its directory: a full
        // disk says so there, not at some later, unrelated call.
        let err = factory.create(&ctx).err().expect("ENOSPC at op 1");
        assert!(
            matches!(
                &err,
                StoreError::Io {
                    context: "backend dir",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(vfs.fired(), vec![(1, FaultKind::Enospc)]);
        assert!(!ctx.partition_dir().exists());
    }
}
