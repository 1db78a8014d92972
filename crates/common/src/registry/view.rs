//! The published snapshot: one immutable base plus a short chain of
//! per-epoch deltas, all behind `Arc`s.
//!
//! Every layer is a `Vec` sorted by `(key, window)`, so a point lookup
//! is a binary search with a borrowed `&[u8]` (no allocation), a prefix
//! scan seeks and walks, and merging layers is one linear pass. See the
//! [module documentation](super) for what a reader pins and when the
//! chain is folded.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::metrics::MetricsSnapshot;
use crate::types::{Timestamp, WindowId, MIN_TIMESTAMP};

use super::StatePattern;

/// Deltas of one level that merge into a single delta of the next level
/// (a base-8 counter: `n` publishes leave at most `7 · log8 n` deltas,
/// and an entry is re-merged `log8 n` times before it reaches the base).
const MERGE_FANOUT: usize = 8;

/// Longest delta chain a reader ever walks. The size rule in
/// [`StateView::apply`] normally folds long before; this bounds the
/// chain when a huge base receives a stream of tiny deltas.
const MAX_CHAIN: usize = 24;

/// The state of one `(key, window)` pair inside a view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewValue {
    /// An RMW intermediate aggregate.
    Aggregate(Vec<u8>),
    /// The appended value list of an AAR/AUR entry.
    Values(Vec<Vec<u8>>),
}

impl ViewValue {
    /// Approximate heap footprint, for registry accounting.
    pub fn memory_size(&self) -> usize {
        match self {
            ViewValue::Aggregate(a) => a.len(),
            ViewValue::Values(vs) => list_size(vs),
        }
    }
}

/// What one value of a list adds to [`ViewValue::memory_size`].
pub(super) fn value_size(value: &[u8]) -> usize {
    value.len() + 24
}

/// [`ViewValue::memory_size`] of a value list.
pub(super) fn list_size(values: &[Vec<u8>]) -> usize {
    values.iter().map(|v| value_size(v)).sum()
}

/// What one layer says about one `(key, window)` pair.
#[derive(Clone, Debug)]
enum Change {
    /// The pair was taken: it is gone, whatever the layers below hold.
    Tombstone,
    /// The pair's whole value as of this layer; hides the layers below.
    /// The only change a base holds.
    Replace(Arc<ViewValue>),
    /// Values appended after whatever the layers below hold.
    Append(Arc<Vec<Vec<u8>>>),
}

#[derive(Clone, Debug)]
struct Entry {
    /// [`key_head`] of `key`, so that most comparisons of a binary
    /// search are decided without following `key` to its bytes.
    head: u64,
    key: Arc<[u8]>,
    window: WindowId,
    change: Change,
}

/// The first eight bytes of `key`, zero-padded, as a big-endian number:
/// ordering by `(head, key)` is ordering by `key`.
fn key_head(key: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let n = key.len().min(8);
    head[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(head)
}

/// Where an entry sorts: by key, then window in `(start, end)` order.
/// (The derived order compares `head` first, which agrees with `key`.)
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pos<'a> {
    head: u64,
    key: &'a [u8],
    window: WindowId,
}

impl<'a> Pos<'a> {
    fn new(key: &'a [u8], window: WindowId) -> Self {
        Pos {
            head: key_head(key),
            key,
            window,
        }
    }
}

impl Entry {
    fn new(key: Arc<[u8]>, window: WindowId, change: Change) -> Self {
        Entry {
            head: key_head(&key),
            key,
            window,
            change,
        }
    }

    fn pos(&self) -> Pos<'_> {
        Pos {
            head: self.head,
            key: &self.key,
            window: self.window,
        }
    }

    /// This entry's key and window under `change`.
    fn with(&self, change: Change) -> Entry {
        Entry {
            head: self.head,
            key: Arc::clone(&self.key),
            window: self.window,
            change,
        }
    }

    /// Bytes this entry adds to [`StateView::memory_bytes`] with a live
    /// value of `value_size` bytes.
    fn footprint(&self, value_size: usize) -> usize {
        self.key.len() + 16 + value_size
    }
}

/// Index of the first entry at or after `pos`.
fn seek(layer: &[Entry], pos: Pos<'_>) -> usize {
    layer.partition_point(|e| e.pos() < pos)
}

fn find<'a>(layer: &'a [Entry], pos: Pos<'_>) -> Option<&'a Change> {
    layer
        .get(seek(layer, pos))
        .filter(|e| e.pos() == pos)
        .map(|e| &e.change)
}

/// The greatest window `layer` mentions for `key`, below `before` when
/// given.
fn latest_before(layer: &[Entry], key: &[u8], before: Option<WindowId>) -> Option<WindowId> {
    let head = key_head(key);
    let end = match before {
        Some(window) => seek(layer, Pos { head, key, window }),
        None => layer.partition_point(|e| (e.head, &*e.key) <= (head, key)),
    };
    let entry = layer.get(end.checked_sub(1)?)?;
    (entry.head == head && *entry.key == *key).then_some(entry.window)
}

/// Folds one pair's changes, newest first, into the single change they
/// amount to; `None` when there are none. Stops pulling from `changes`
/// at the first one that hides the rest.
fn collapse<'a>(mut changes: impl Iterator<Item = &'a Change>) -> Option<Change> {
    let mut appended: Vec<&Arc<Vec<Vec<u8>>>> = Vec::new();
    let floor = loop {
        match changes.next() {
            Some(Change::Append(values)) => appended.push(values),
            other => break other,
        }
    };
    if appended.is_empty() {
        return floor.cloned();
    }
    if floor.is_none() && appended.len() == 1 {
        return Some(Change::Append(Arc::clone(appended[0])));
    }
    // A value list never sits on an aggregate (a store has one
    // pattern); if it did, the list wins.
    let below: &[Vec<u8>] = match floor {
        Some(Change::Replace(value)) => match &**value {
            ViewValue::Values(values) => values,
            ViewValue::Aggregate(_) => &[],
        },
        _ => &[],
    };
    let mut all = Vec::with_capacity(below.len() + appended.iter().map(|a| a.len()).sum::<usize>());
    all.extend_from_slice(below);
    for values in appended.into_iter().rev() {
        all.extend_from_slice(values);
    }
    Some(match floor {
        None => Change::Append(Arc::new(all)),
        Some(_) => Change::Replace(Arc::new(ViewValue::Values(all))),
    })
}

/// [`collapse`] over what [`Merge::next`] found at one position.
fn collapse_at(changes: &[(usize, &Change)]) -> Option<Change> {
    collapse(changes.iter().map(|(_, change)| *change))
}

/// The value a collapsed change leaves live, if any.
fn live(change: Option<Change>) -> Option<Arc<ViewValue>> {
    match change? {
        Change::Tombstone => None,
        Change::Replace(value) => Some(value),
        Change::Append(values) => Some(Arc::new(ViewValue::Values(unshare(values)))),
    }
}

fn unshare<T: Clone>(shared: Arc<T>) -> T {
    Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone())
}

/// [`ViewValue::memory_size`] of what [`collapse`] would leave live,
/// without building it.
fn live_size<'a>(changes: impl Iterator<Item = &'a Change>) -> Option<usize> {
    let mut appended: Option<usize> = None;
    for change in changes {
        match change {
            Change::Append(values) => *appended.get_or_insert(0) += list_size(values),
            Change::Tombstone => break,
            Change::Replace(value) => {
                return Some(match (&**value, appended) {
                    (ViewValue::Aggregate(_), Some(a)) => a,
                    (_, a) => value.memory_size() + a.unwrap_or(0),
                })
            }
        }
    }
    appended
}

/// Walks several sorted layers, newest first, as one sorted sequence.
struct Merge<'a> {
    /// The unread rest of each layer.
    layers: Vec<&'a [Entry]>,
}

impl<'a> Merge<'a> {
    fn new(layers: impl Iterator<Item = &'a [Entry]>) -> Self {
        Merge {
            layers: layers.collect(),
        }
    }

    /// Steps to the next `(key, window)` position any layer mentions:
    /// returns one entry there and fills `changes` with every layer's
    /// change at it as `(layer index, change)`, newest first.
    fn next(&mut self, changes: &mut Vec<(usize, &'a Change)>) -> Option<&'a Entry> {
        changes.clear();
        let first = self
            .layers
            .iter()
            .filter_map(|layer| layer.first())
            .min_by(|a, b| a.pos().cmp(&b.pos()))?;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if let Some((head, rest)) = layer.split_first() {
                if head.pos() == first.pos() {
                    changes.push((i, &head.change));
                    *layer = rest;
                }
            }
        }
        Some(first)
    }
}

/// One published epoch's changes, merged with its neighbours as the
/// chain grows.
#[derive(Debug)]
struct Delta {
    /// How many rounds of [`MERGE_FANOUT`]-way merging produced it.
    level: u32,
    entries: Vec<Entry>,
}

/// The changes one epoch made to a store, recorded call by call.
///
/// Dropped windows apply first: a window drop removes every entry of
/// that window the view held *before* this delta, then the pair changes
/// go on top. (A drop recorded after a pair change of the same window
/// removes that change too, so the order of calls is honoured.)
#[derive(Debug, Default)]
pub struct ViewDelta {
    /// Per key, its changed windows in window order.
    pairs: BTreeMap<Arc<[u8]>, Vec<Slot>>,
    dropped: Vec<WindowId>,
}

/// What one epoch did to one pair.
#[derive(Debug)]
struct Slot {
    window: WindowId,
    change: Change,
    /// The [`ViewValue::memory_size`] of what the pair held when the
    /// epoch first touched it (`Some(None)`: nothing), known when that
    /// first touch was a take — the store's answer says it. `None`:
    /// not known, [`StateView::apply`] looks it up.
    held: Option<Option<usize>>,
}

impl ViewDelta {
    fn change(
        &mut self,
        key: &[u8],
        window: WindowId,
        held: Option<Option<usize>>,
        update: impl FnOnce(Option<Change>) -> Change,
    ) {
        let slots = match self.pairs.get_mut(key) {
            Some(slots) => slots,
            None => self.pairs.entry(Arc::from(key)).or_default(),
        };
        match slots.binary_search_by_key(&window, |slot| slot.window) {
            Ok(i) => {
                let change = &mut slots[i].change;
                *change = update(Some(std::mem::replace(change, Change::Tombstone)));
            }
            Err(i) => {
                let change = update(None);
                slots.insert(
                    i,
                    Slot {
                        window,
                        change,
                        held,
                    },
                );
            }
        }
    }

    /// `put_aggregate`: the pair now holds exactly `aggregate`.
    pub fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) {
        self.set_aggregate(key, window, None, aggregate);
    }

    /// `update_aggregate`: the pair held `prior` bytes of aggregate
    /// (`None`: nothing) and now holds exactly `aggregate`. The store
    /// lent the old value to the update, so the view need not look its
    /// size up — what [`remove`](Self::remove) then
    /// [`put_aggregate`](Self::put_aggregate) record, as one change.
    pub fn update_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        prior: Option<usize>,
        aggregate: &[u8],
    ) {
        self.set_aggregate(key, window, Some(prior), aggregate);
    }

    fn set_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        held: Option<Option<usize>>,
        aggregate: &[u8],
    ) {
        self.change(key, window, held, |old| {
            // An aggregate the epoch already wrote is overwritten where
            // it is (nothing shares a recording delta's values).
            if let Some(Change::Replace(mut value)) = old {
                if let ViewValue::Aggregate(bytes) = Arc::make_mut(&mut value) {
                    bytes.clear();
                    bytes.extend_from_slice(aggregate);
                    return Change::Replace(value);
                }
            }
            Change::Replace(Arc::new(ViewValue::Aggregate(aggregate.to_vec())))
        });
    }

    /// `append`: `value` joins the end of the pair's list.
    pub fn append(&mut self, key: &[u8], window: WindowId, value: &[u8]) {
        let fresh = || Arc::new(ViewValue::Values(vec![value.to_vec()]));
        self.change(key, window, None, |old| match old {
            None => Change::Append(Arc::new(vec![value.to_vec()])),
            Some(Change::Append(mut values)) => {
                Arc::make_mut(&mut values).push(value.to_vec());
                Change::Append(values)
            }
            Some(Change::Replace(mut list)) => {
                match Arc::make_mut(&mut list) {
                    ViewValue::Values(values) => values.push(value.to_vec()),
                    ViewValue::Aggregate(_) => list = fresh(),
                }
                Change::Replace(list)
            }
            Some(Change::Tombstone) => Change::Replace(fresh()),
        });
    }

    /// `take_values` / `take_aggregate`: the pair is gone. `taken` is
    /// the [`ViewValue::memory_size`] of what the take returned, `None`
    /// if it found nothing — what the pair held, so the view need not
    /// look it up to keep its entry and byte counts.
    pub fn remove(&mut self, key: &[u8], window: WindowId, taken: Option<usize>) {
        self.change(key, window, Some(taken), |_| Change::Tombstone);
    }

    /// First `get_window_chunk` of `window`: every pair of it is gone.
    pub fn drop_window(&mut self, window: WindowId) {
        self.pairs.retain(|_, slots| {
            if let Ok(i) = slots.binary_search_by_key(&window, |slot| slot.window) {
                slots.remove(i);
            }
            !slots.is_empty()
        });
        if !self.dropped.contains(&window) {
            self.dropped.push(window);
        }
    }
}

/// An immutable point-in-time snapshot of one store's live state.
///
/// Cloning a view clones `Arc`s, never entries: the clone and the
/// original share every layer, and [`apply`](Self::apply) on one never
/// changes what the other reads.
#[derive(Clone, Debug, Default)]
pub struct StateView {
    /// Pattern of the source store.
    pub pattern: StatePattern,
    /// Monotonic snapshot counter; increments per published view.
    pub epoch: u64,
    /// Event-time watermark the snapshot is aligned to.
    pub watermark: Timestamp,
    /// Store metrics at snapshot time.
    pub metrics: MetricsSnapshot,
    /// Advisory retention of an entry in event-time milliseconds: how
    /// long after its window closes the entry stays queryable before
    /// the engine drains it. Publishers derive it from the operator's
    /// window semantics (size for fixed/sliding windows, gap for
    /// sessions); `None` means state never expires on its own (global
    /// windows) or the publisher offered no hint.
    pub ttl_ms: Option<u64>,
    /// Every live entry as of the last fold, as `Replace` changes.
    base: Arc<Vec<Entry>>,
    /// What changed since, oldest first; levels never increase along it.
    deltas: Vec<Arc<Delta>>,
    /// Live `(key, window)` entries through all layers.
    len: usize,
    /// Footprint of those entries (see [`memory_bytes`](Self::memory_bytes)).
    bytes: usize,
}

impl StateView {
    /// An empty view, useful as a published placeholder before the first
    /// watermark.
    pub fn empty(pattern: StatePattern) -> Self {
        StateView {
            pattern,
            watermark: MIN_TIMESTAMP,
            ..StateView::default()
        }
    }

    /// A view holding exactly `entries` — what a store's `read_view`
    /// returns.
    pub fn from_entries(
        pattern: StatePattern,
        entries: BTreeMap<(Vec<u8>, WindowId), ViewValue>,
    ) -> Self {
        let mut view = StateView::empty(pattern);
        let mut base: Vec<Entry> = Vec::with_capacity(entries.len());
        for ((key, window), value) in entries {
            let value_size = value.memory_size();
            // Windows of one key share the key's bytes.
            let key = match base.last() {
                Some(prev) if *prev.key == *key => Arc::clone(&prev.key),
                _ => Arc::from(key),
            };
            let entry = Entry::new(key, window, Change::Replace(Arc::new(value)));
            view.bytes += entry.footprint(value_size);
            base.push(entry);
        }
        view.len = base.len();
        view.base = Arc::new(base);
        view
    }

    /// Every live entry, resolved through all layers into one owned
    /// map: the form `read_view` builds, for comparing views and for
    /// callers that need the state rather than a lookup.
    pub fn to_entries(&self) -> BTreeMap<(Vec<u8>, WindowId), ViewValue> {
        let mut merge = Merge::new(self.layers());
        let mut changes = Vec::new();
        let mut out = BTreeMap::new();
        while let Some(entry) = merge.next(&mut changes) {
            if let Some(value) = live(collapse_at(&changes)) {
                out.insert((entry.key.to_vec(), entry.window), unshare(value));
            }
        }
        out
    }

    /// The layers, newest first.
    fn layers(&self) -> impl Iterator<Item = &[Entry]> {
        self.deltas
            .iter()
            .rev()
            .map(|delta| delta.entries.as_slice())
            .chain(std::iter::once(self.base.as_slice()))
    }

    /// What the layers say about the pair at `pos`, newest first.
    fn changes_at<'a>(&'a self, pos: Pos<'a>) -> impl Iterator<Item = &'a Change> {
        self.layers().filter_map(move |layer| find(layer, pos))
    }

    /// Looks up `key` in an exact `window`.
    pub fn get(&self, key: &[u8], window: WindowId) -> Option<ViewValue> {
        live(collapse(self.changes_at(Pos::new(key, window)))).map(unshare)
    }

    /// Looks up `key` in its latest (greatest-ordered) live window.
    ///
    /// This is the natural point query for RMW state, where an external
    /// reader wants "the current aggregate for this key" without knowing
    /// window boundaries.
    pub fn get_latest(&self, key: &[u8]) -> Option<(WindowId, ViewValue)> {
        let mut before = None;
        loop {
            // The greatest window any layer mentions may be a tombstone;
            // step down until one is live.
            let window = self
                .layers()
                .filter_map(|layer| latest_before(layer, key, before))
                .max()?;
            if let Some(value) = self.get(key, window) {
                return Some((window, value));
            }
            before = Some(window);
        }
    }

    /// Returns up to `limit` entries whose key starts with `prefix` and
    /// whose window overlaps `[range_start, range_end]` (event-time
    /// milliseconds), in key order. An empty `prefix` scans every key.
    ///
    /// Keys sort lexicographically, so all keys sharing `prefix` form
    /// one contiguous run in every layer: the scan seeks each layer to
    /// its first candidate and stops at the first key past the prefix
    /// instead of walking the whole view.
    pub fn scan_filtered(
        &self,
        prefix: &[u8],
        range_start: Timestamp,
        range_end: Timestamp,
        limit: usize,
    ) -> Vec<(&[u8], WindowId, ViewValue)> {
        let from = Pos::new(prefix, WindowId::ordered_min());
        let mut merge = Merge::new(self.layers().map(|layer| &layer[seek(layer, from)..]));
        let mut changes = Vec::new();
        let mut out = Vec::new();
        while out.len() < limit {
            let Some(entry) = merge.next(&mut changes) else {
                break;
            };
            if !entry.key.starts_with(prefix) {
                break;
            }
            if entry.window.start > range_end || entry.window.end < range_start {
                continue;
            }
            if let Some(value) = live(collapse_at(&changes)) {
                out.push((&*entry.key, entry.window, unshare(value)));
            }
        }
        out
    }

    /// Number of live `(key, window)` entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint of the live entries: what a view
    /// rebuilt from them would report. (Entries a newer layer hides
    /// stay allocated until the next fold; they are not counted.)
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of deltas stacked on the base.
    pub fn chain_len(&self) -> usize {
        self.deltas.len()
    }

    /// Puts one epoch's changes on top of the view and returns how many
    /// entries that materialised (the delta's own, plus whatever a
    /// merge or fold rewrote).
    ///
    /// The chain is kept short by two rules. Every [`MERGE_FANOUT`]
    /// deltas of one level merge into one delta of the next (unless a
    /// fold is about to make that moot), so the chain grows with the
    /// logarithm of the publishes since the last fold. And the chain is
    /// **folded** into a fresh base when the deltas together hold as
    /// many entries as the base (rewriting the base then costs no more
    /// than the changes that forced it — amortised O(changed) per
    /// epoch), when it would outgrow [`MAX_CHAIN`], or when the delta
    /// drops a window: a window drop names a window's worth of entries
    /// at once, and counting what it removed is the same pass as
    /// removing it.
    ///
    /// Views cloned before the call keep reading exactly what they read
    /// before it.
    pub fn apply(&mut self, delta: ViewDelta) -> usize {
        let ViewDelta { pairs, dropped } = delta;
        let (entries, held): (Vec<Entry>, Vec<Option<Option<usize>>>) = pairs
            .into_iter()
            .flat_map(|(key, slots)| {
                slots.into_iter().map(move |slot| {
                    let entry = Entry::new(Arc::clone(&key), slot.window, slot.change);
                    (entry, slot.held)
                })
            })
            .unzip();
        if entries.is_empty() && dropped.is_empty() {
            return 0;
        }
        let changed = entries.len();
        let in_deltas = changed + self.deltas.iter().map(|d| d.entries.len()).sum::<usize>();
        if !dropped.is_empty() || in_deltas >= self.base.len() || self.deltas.len() >= MAX_CHAIN {
            return changed + self.fold(&entries, &dropped);
        }
        self.account(&entries, &held);
        self.deltas.push(Arc::new(Delta { level: 0, entries }));
        // At this epoch's rate the size rule folds within MERGE_FANOUT
        // epochs, and would only rewrite what a merge wrote now.
        if in_deltas + changed * MERGE_FANOUT >= self.base.len() {
            return changed;
        }
        changed + self.merge_levels()
    }

    /// Adjusts `len` and `bytes` for `entries` going on top of the
    /// current layers; `held[i]` is what pair `i` held there, where the
    /// delta knows it.
    fn account(&mut self, entries: &[Entry], held: &[Option<Option<usize>>]) {
        for (entry, held) in entries.iter().zip(held) {
            let own = std::iter::once(&entry.change);
            let (before, after) = match *held {
                // First touched by a take: a tombstone or a whole value.
                Some(before) => (before, live_size(own)),
                None => (
                    live_size(self.changes_at(entry.pos())),
                    live_size(own.chain(self.changes_at(entry.pos()))),
                ),
            };
            self.len = self.len + usize::from(after.is_some()) - usize::from(before.is_some());
            self.bytes = self.bytes + after.map_or(0, |s| entry.footprint(s))
                - before.map_or(0, |s| entry.footprint(s));
        }
    }

    /// Merges the newest deltas while [`MERGE_FANOUT`] of them share a
    /// level; returns the entries written.
    fn merge_levels(&mut self) -> usize {
        let mut written = 0;
        while let Some(level) = self.deltas.last().map(|d| d.level) {
            let run = self
                .deltas
                .iter()
                .rev()
                .take_while(|d| d.level == level)
                .count();
            if run < MERGE_FANOUT {
                break;
            }
            let oldest = self.deltas.len() - run;
            let mut merge = Merge::new(
                self.deltas[oldest..]
                    .iter()
                    .rev()
                    .map(|d| d.entries.as_slice()),
            );
            let mut changes = Vec::new();
            let mut entries = Vec::new();
            while let Some(entry) = merge.next(&mut changes) {
                // Tombstones stay: they still hide the layers below.
                if let Some(change) = collapse_at(&changes) {
                    entries.push(entry.with(change));
                }
            }
            written += entries.len();
            self.deltas.truncate(oldest);
            self.deltas.push(Arc::new(Delta {
                level: level + 1,
                entries,
            }));
        }
        written
    }

    /// Rebuilds the base from `top` over every current layer, with the
    /// `dropped` windows removed from below `top`; returns the new
    /// base's size.
    fn fold(&mut self, top: &[Entry], dropped: &[WindowId]) -> usize {
        let mut merge = Merge::new(std::iter::once(top).chain(self.layers()));
        let mut changes = Vec::new();
        let mut base = Vec::with_capacity(self.len + top.len());
        let mut bytes = 0;
        while let Some(entry) = merge.next(&mut changes) {
            if dropped.contains(&entry.window) {
                changes.retain(|(layer, _)| *layer == 0);
            }
            let Some(value) = live(collapse_at(&changes)) else {
                continue;
            };
            bytes += entry.footprint(value.memory_size());
            base.push(entry.with(Change::Replace(value)));
        }
        self.len = base.len();
        self.bytes = bytes;
        self.base = Arc::new(base);
        self.deltas.clear();
        self.len
    }
}

impl WindowId {
    /// The smallest window in `(start, end)` order; a seek's lower
    /// bound.
    fn ordered_min() -> WindowId {
        WindowId {
            start: MIN_TIMESTAMP,
            end: MIN_TIMESTAMP,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Model = BTreeMap<(Vec<u8>, WindowId), ViewValue>;

    fn w(start: i64, end: i64) -> WindowId {
        WindowId { start, end }
    }

    fn view_with(entries: Vec<(&[u8], WindowId, ViewValue)>) -> StateView {
        StateView::from_entries(
            StatePattern::Rmw,
            entries
                .into_iter()
                .map(|(k, win, val)| ((k.to_vec(), win), val))
                .collect(),
        )
    }

    #[test]
    fn point_lookup_exact_and_latest() {
        let view = view_with(vec![
            (b"a", w(0, 10), ViewValue::Aggregate(vec![1])),
            (b"a", w(10, 20), ViewValue::Aggregate(vec![2])),
            (b"b", w(0, 10), ViewValue::Aggregate(vec![3])),
        ]);
        assert_eq!(
            view.get(b"a", w(0, 10)),
            Some(ViewValue::Aggregate(vec![1]))
        );
        let (win, val) = view.get_latest(b"a").unwrap();
        assert_eq!(win, w(10, 20));
        assert_eq!(val, ViewValue::Aggregate(vec![2]));
        assert!(view.get_latest(b"c").is_none());
        assert!(view.get(b"b", w(10, 20)).is_none());
    }

    #[test]
    fn window_scan_overlap_and_limit() {
        let view = view_with(vec![
            (b"a", w(0, 10), ViewValue::Values(vec![vec![1]])),
            (b"b", w(5, 15), ViewValue::Values(vec![vec![2]])),
            (b"c", w(20, 30), ViewValue::Values(vec![vec![3]])),
        ]);
        let hits = view.scan_filtered(&[], 0, 12, 100);
        assert_eq!(hits.len(), 2);
        let hits = view.scan_filtered(&[], 0, 100, 2);
        assert_eq!(hits.len(), 2);
        let hits = view.scan_filtered(&[], 31, 40, 100);
        assert!(hits.is_empty());
    }

    #[test]
    fn latest_steps_over_a_tombstoned_window() {
        let mut view = view_with(
            (0..32u8)
                .map(|i| {
                    (
                        &b"k"[..],
                        w(i as i64, i as i64 + 1),
                        ViewValue::Aggregate(vec![i]),
                    )
                })
                .collect(),
        );
        let mut delta = ViewDelta::default();
        delta.remove(b"k", w(31, 32), Some(1));
        delta.remove(b"k", w(30, 31), Some(1));
        view.apply(delta);
        assert_eq!(view.chain_len(), 1, "a small delta must stack, not fold");
        assert_eq!(
            view.get_latest(b"k"),
            Some((w(29, 30), ViewValue::Aggregate(vec![29])))
        );
        assert_eq!(view.len(), 30);
    }

    /// Key `i` of a test's alphabet. All keys share their first eight
    /// bytes, so entry heads tie and comparisons reach the key bytes;
    /// the ported tests above use short keys the head decides.
    fn key(i: u32) -> Vec<u8> {
        format!("operator-k{i:03}").into_bytes()
    }

    /// One random store call, applied to the model and recorded in the
    /// delta the way the capture adaptor records it.
    fn random_op(rng: &mut StdRng, keys: u32, model: &mut Model, delta: &mut ViewDelta) {
        let key = key(rng.gen_range(0..keys));
        let start = rng.gen_range(0..4i64) * 10;
        let window = w(start, start + 10);
        let byte = rng.gen_range(0..=255u8);
        match rng.gen_range(0..100u32) {
            0..=34 => {
                model.insert((key.clone(), window), ViewValue::Aggregate(vec![byte; 3]));
                delta.put_aggregate(&key, window, &[byte; 3]);
            }
            35..=69 => {
                match model.get_mut(&(key.clone(), window)) {
                    Some(ViewValue::Values(values)) => values.push(vec![byte]),
                    _ => {
                        model.insert((key.clone(), window), ViewValue::Values(vec![vec![byte]]));
                    }
                }
                delta.append(&key, window, &[byte]);
            }
            70..=97 => {
                let taken = model.remove(&(key.clone(), window));
                delta.remove(&key, window, taken.map(|v| v.memory_size()));
            }
            _ => {
                model.retain(|(_, win), _| *win != window);
                delta.drop_window(window);
            }
        }
    }

    /// Everything a reader can ask of `view` must answer as a view
    /// rebuilt from `model` answers.
    fn assert_reads_as(view: &StateView, model: &Model, rng: &mut StdRng, keys: u32, ctx: &str) {
        let rebuilt = StateView::from_entries(view.pattern, model.clone());
        assert_eq!(&view.to_entries(), model, "{ctx}: entries");
        assert_eq!(view.len(), model.len(), "{ctx}: len");
        assert_eq!(view.is_empty(), model.is_empty(), "{ctx}: is_empty");
        assert_eq!(view.memory_bytes(), rebuilt.memory_bytes(), "{ctx}: bytes");
        for _ in 0..8 {
            let key = key(rng.gen_range(0..keys));
            let start = rng.gen_range(0..4i64) * 10;
            let window = w(start, start + 10);
            assert_eq!(
                view.get(&key, window),
                rebuilt.get(&key, window),
                "{ctx}: get"
            );
            assert_eq!(
                view.get_latest(&key),
                rebuilt.get_latest(&key),
                "{ctx}: latest"
            );
        }
        let (lo, hi) = (rng.gen_range(0..40i64), rng.gen_range(0..50i64));
        let limit = rng.gen_range(0..40usize);
        assert_eq!(
            view.scan_filtered(&[], lo, hi, limit),
            rebuilt.scan_filtered(&[], lo, hi, limit),
            "{ctx}: unfiltered scan"
        );
        let mut prefix = key(rng.gen_range(0..keys));
        prefix.pop();
        assert_eq!(
            view.scan_filtered(&prefix, lo, hi, limit),
            rebuilt.scan_filtered(&prefix, lo, hi, limit),
            "{ctx}: scan_filtered"
        );
    }

    #[test]
    fn layered_reads_match_a_rebuilt_view_under_random_deltas() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few keys: deltas soon outweigh the base and fold. Many
            // keys: small deltas stack and merge level by level.
            let keys = if seed.is_multiple_of(2) { 12 } else { 400 };
            let mut model = Model::new();
            let mut seeded = ViewDelta::default();
            for _ in 0..keys * 3 {
                random_op(&mut rng, keys, &mut model, &mut seeded);
            }
            let mut view = StateView::empty(StatePattern::Unknown);
            view.apply(seeded);
            let (mut merged, mut folded, mut longest) = (false, false, 0);
            for epoch in 0..160 {
                let mut delta = ViewDelta::default();
                for _ in 0..rng.gen_range(0..6usize) {
                    random_op(&mut rng, keys, &mut model, &mut delta);
                }
                let before = view.chain_len();
                view.apply(delta);
                folded |= before > 0 && view.chain_len() == 0;
                merged |= view.chain_len() > 0 && view.chain_len() < before;
                longest = longest.max(view.chain_len());
                assert!(view.chain_len() <= MAX_CHAIN);
                assert_reads_as(
                    &view,
                    &model,
                    &mut rng,
                    keys,
                    &format!("seed {seed} epoch {epoch}"),
                );
            }
            assert!(folded, "seed {seed}: no fold happened");
            if keys > 100 {
                assert!(merged, "seed {seed}: no level merge happened");
                assert!(longest >= MERGE_FANOUT, "seed {seed}: chain never grew");
            }
        }
    }

    #[test]
    fn a_pinned_epoch_reads_the_same_after_later_epochs_and_a_fold() {
        let mut rng = StdRng::seed_from_u64(99);
        let keys = 60;
        let mut model = Model::new();
        let mut delta = ViewDelta::default();
        for _ in 0..200 {
            random_op(&mut rng, keys, &mut model, &mut delta);
        }
        let mut view = StateView::empty(StatePattern::Unknown);
        view.apply(delta);
        // A reader takes a clone per epoch, as the registry hands them
        // out, and keeps the model of that moment.
        let mut pinned: Vec<(StateView, Model)> = Vec::new();
        let mut folds = 0;
        for epoch in 1..=120u64 {
            let mut delta = ViewDelta::default();
            for _ in 0..3 {
                random_op(&mut rng, keys, &mut model, &mut delta);
            }
            let before = view.chain_len();
            view.apply(delta);
            view.epoch = epoch;
            folds += usize::from(before > 0 && view.chain_len() == 0);
            if epoch.is_multiple_of(7) {
                pinned.push((view.clone(), model.clone()));
            }
        }
        assert!(folds >= 2, "the run must fold under the pinned readers");
        let mut check = StdRng::seed_from_u64(7);
        for (held, then) in &pinned {
            assert_reads_as(
                held,
                then,
                &mut check,
                keys,
                &format!("pinned epoch {}", held.epoch),
            );
        }
    }

    #[test]
    fn an_empty_delta_adds_no_layer() {
        let mut view = view_with(vec![(b"a", w(0, 10), ViewValue::Aggregate(vec![1]))]);
        assert_eq!(view.apply(ViewDelta::default()), 0);
        assert_eq!(view.chain_len(), 0);
        assert_eq!(view.len(), 1);
    }
}
