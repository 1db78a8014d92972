//! Queryable-state registry: snapshot views of live operator state.
//!
//! The paper's stores are single-writer (§2.1) so that the write path
//! never pays for readers. The serving layer keeps it that way with
//! **epoch-pinned published views** whose cost per epoch follows what
//! *changed*, not what the store holds:
//!
//! 1. A [`StateView`] is one immutable **base** (every live
//!    `(key, window)` entry as of the last fold) plus a short chain of
//!    per-epoch **deltas**, each layer one byte arena and its sorted
//!    fixed-size rows behind an `Arc`.
//! 2. [`capture`] puts an adaptor around the worker's backend that
//!    forwards every call and pushes one row per state change onto the
//!    epoch's log, from the key, window and bytes the call carries:
//!    nothing is re-read from the store, and what a store does
//!    underneath (flushes, compaction, a tier's demotions) never shows.
//! 3. At a watermark, at most once per period, the worker calls the
//!    adaptor's `read_view`. It collapses the log into a delta on top of
//!    the previous view and, by a size rule, now and then **folds** the
//!    chain into a fresh base, and it returns a clone (a handful of
//!    `Arc` clones) that the worker stamps and publishes into the
//!    process-wide [`StateRegistry`] under its [`StateKey`].
//!
//! A view costs what changed: a radix sort of the log by key head, a
//! copy per changed pair and, amortised, about one fold row per change.
//! It is built on the worker, the one thread that holds the epoch a
//! view names without a lock (on the reader: 3-5x fewer answers).
//! 4. Server threads resolve a `StateKey` to an `Arc<StateView>` and
//!    read through the layers, newest first, lock-free.
//!
//! **What a reader pins.** An `Arc<StateView>` holds its base and its
//! own chain. Later epochs push deltas onto *their* chain and a fold
//! builds a *new* base, so a reader holding epoch N reads exactly epoch
//! N, and the layers it alone references are freed when it lets go.
//!
//! **When the store's own `read_view` runs.** The adaptor's
//! [`StateBackend::read_view`] starts over from the wrapped store's for
//! a worker's first base, and the next after a `restore` or
//! `inject_entries` (state changed by a path the adaptor does not
//! follow). The store's own is also the reference the layered view is
//! tested against.
//!
//! Readers observe a consistent snapshot aligned to a watermark, stale
//! by at most one period plus one watermark interval of wall time: the
//! worker publishes at a watermark only once a period (1 ms) has passed
//! since its last view, so one log may span several watermarks, and a
//! pair they all changed is collapsed once. A window the engine is
//! draining is omitted from its first chunk on, as `read_view` does. This
//! mirrors Flink's queryable state, which reads a consistent copy
//! rather than the live RocksDB instance.
//!
//! [`StateBackend::read_view`]: crate::backend::StateBackend::read_view

mod capture;
mod view;

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use crate::backend::Pattern;
use crate::types::Timestamp;

pub use capture::capture;
pub use view::{StateView, ViewValue};

/// Identifies one operator partition's published state within a process.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey {
    /// Name of the job the operator runs in.
    pub job: String,
    /// Name of the logical operator.
    pub operator: String,
    /// Physical partition index.
    pub partition: usize,
}

impl StateKey {
    /// Convenience constructor.
    pub fn new(job: impl Into<String>, operator: impl Into<String>, partition: usize) -> Self {
        StateKey {
            job: job.into(),
            operator: operator.into(),
            partition,
        }
    }
}

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/p{}", self.job, self.operator, self.partition)
    }
}

/// Summary of one published view: a row of a state listing, on the
/// wire as in the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateDescriptor {
    /// The registry key the view is published under.
    pub key: StateKey,
    /// Access pattern of the source store; `None` when not known (a
    /// listing byte this side does not recognise).
    pub pattern: Option<Pattern>,
    /// Epoch of the most recent published view.
    pub epoch: u64,
    /// Watermark the view is aligned to.
    pub watermark: Timestamp,
    /// Number of live entries in the view.
    pub entries: u64,
    /// Advisory entry retention in milliseconds (see
    /// [`StateView::ttl_ms`]).
    pub ttl_ms: Option<u64>,
}

/// Process-wide directory of published state views.
///
/// Workers publish; server threads read. The lock is held only to swap
/// or clone an `Arc`, never while building or reading a view, and
/// poisoning is deliberately swallowed: a panicking publisher must not
/// take the serving path down with it.
#[derive(Default)]
pub struct StateRegistry {
    views: RwLock<HashMap<StateKey, Arc<StateView>>>,
}

impl StateRegistry {
    /// Creates an empty registry behind an `Arc`, ready to share between
    /// the executor and a server.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(StateRegistry::default())
    }

    /// Puts `view` in `key`'s slot (`None` empties it) and hands the
    /// previous occupant out of the lock. Dropping a replaced view can
    /// free a whole folded-away base; done under the write guard that
    /// would stall every [`operator_views`](Self::operator_views)
    /// reader, so the callers drop it after the guard is gone.
    fn swap(&self, key: StateKey, view: Option<Arc<StateView>>) -> Option<Arc<StateView>> {
        let mut views = self.views.write().unwrap_or_else(|e| e.into_inner());
        match view {
            Some(view) => views.insert(key, view),
            None => views.remove(&key),
        }
    }

    /// Publishes `view` under `key`, replacing any previous view.
    pub fn publish(&self, key: StateKey, view: StateView) {
        drop(self.swap(key, Some(Arc::new(view))));
    }

    /// Resolves the most recently published view for `key`.
    pub fn get(&self, key: &StateKey) -> Option<Arc<StateView>> {
        self.views
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// Removes the view published under `key`.
    pub fn remove(&self, key: &StateKey) {
        drop(self.swap(key.clone(), None));
    }

    /// Resolves every partition's view of one operator under a single
    /// lock acquisition, sorted by partition index.
    ///
    /// This is the server's per-lookup path, so it clones only the
    /// `Arc`s — no descriptor strings — and touches the lock once.
    pub fn operator_views(&self, job: &str, operator: &str) -> Vec<(usize, Arc<StateView>)> {
        let guard = self.views.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(usize, Arc<StateView>)> = guard
            .iter()
            .filter(|(k, _)| k.job == job && k.operator == operator)
            .map(|(k, v)| (k.partition, Arc::clone(v)))
            .collect();
        out.sort_unstable_by_key(|(p, _)| *p);
        out
    }

    /// Describes every published view, sorted by key.
    pub fn list(&self) -> Vec<StateDescriptor> {
        let mut out: Vec<StateDescriptor> = self
            .views
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(key, view)| StateDescriptor {
                key: key.clone(),
                pattern: view.pattern,
                epoch: view.epoch,
                watermark: view.watermark,
                entries: view.len() as u64,
                ttl_ms: view.ttl_ms,
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_publish_get_list() {
        let reg = StateRegistry::new_shared();
        let key = StateKey::new("job", "op", 0);
        assert!(reg.get(&key).is_none());
        let mut v = StateView::empty(Some(Pattern::Aar));
        v.epoch = 7;
        reg.publish(key.clone(), v);
        let got = reg.get(&key).unwrap();
        assert_eq!(got.epoch, 7);
        let listing = reg.list();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].key, key);
        assert_eq!(listing[0].epoch, 7);
        reg.remove(&key);
        assert!(reg.list().is_empty());
    }

    #[test]
    fn registry_survives_poisoned_publisher() {
        let reg = StateRegistry::new_shared();
        let key = StateKey::new("job", "op", 0);
        reg.publish(key.clone(), StateView::empty(Some(Pattern::Rmw)));
        let reg2 = Arc::clone(&reg);
        // Panic while holding the write lock to poison it.
        let _ = std::thread::spawn(move || {
            let _guard = reg2.views.write().unwrap();
            panic!("publisher dies mid-publish");
        })
        .join();
        // Readers and later publishers still work.
        assert!(reg.get(&key).is_some());
        reg.publish(
            StateKey::new("job", "op", 1),
            StateView::empty(Some(Pattern::Aur)),
        );
        assert_eq!(reg.list().len(), 2);
    }

    #[test]
    fn a_replaced_view_leaves_the_lock_before_it_is_dropped() {
        let reg = StateRegistry::new_shared();
        let key = StateKey::new("job", "op", 0);
        let mut first = StateView::empty(Some(Pattern::Rmw));
        first.epoch = 1;
        reg.publish(key.clone(), first);
        let mut second = StateView::empty(Some(Pattern::Rmw));
        second.epoch = 2;
        // The replaced view comes back out instead of dying under the
        // write guard: this reference is its last, and the lock is free
        // while it is still alive.
        let replaced = reg.swap(key.clone(), Some(Arc::new(second))).unwrap();
        assert_eq!(replaced.epoch, 1);
        assert_eq!(Arc::strong_count(&replaced), 1);
        assert!(reg.views.try_write().is_ok());
        assert_eq!(reg.operator_views("job", "op")[0].1.epoch, 2);
        let removed = reg.swap(key, None).unwrap();
        assert_eq!(removed.epoch, 2);
        assert_eq!(Arc::strong_count(&removed), 1);
        assert!(reg.views.try_write().is_ok());
        assert!(reg.list().is_empty());
    }
}
