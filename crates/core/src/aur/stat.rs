//! The in-memory Stat table of the AUR store (paper §4.2, Figure 7).
//!
//! One small entry per live `(key, window)` pair: the estimated trigger
//! time, the maximum observed timestamp, and how many bytes of the
//! window's state sit in the data log. Data *locations* deliberately stay
//! on disk in the index log — the Stat table is what must fit in memory
//! even when windows number in the millions.
//!
//! The table nests `key → window → stat` so the index-scan hot path can
//! probe liveness with a borrowed key slice, without allocating a
//! composite key per scanned entry.

use std::collections::HashMap;

use flowkv_common::types::{Timestamp, WindowId};

use crate::ett::EttPredictor;

/// Identifies one window of one key.
pub type StateKey = (Vec<u8>, WindowId);

/// Live-window bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStat {
    /// Estimated trigger time, `None` when unpredictable.
    pub ett: Option<Timestamp>,
    /// Largest tuple timestamp observed in the window.
    pub max_ts: Timestamp,
    /// Bytes of this window's state in the data log (record framing
    /// included).
    pub disk_bytes: u64,
    /// Number of data-log records holding this window's state.
    pub disk_records: u64,
}

/// The Stat table: ETTs and disk footprints per live window.
#[derive(Debug, Default)]
pub struct StatTable {
    map: HashMap<Vec<u8>, HashMap<WindowId, WindowStat>>,
    len: usize,
}

impl StatTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        StatTable::default()
    }

    /// Updates ETT bookkeeping for an appended tuple (paper: "ETTs are
    /// maintained as an in-memory hash table, updated upon every tuple
    /// arrival").
    pub fn observe_append(
        &mut self,
        key: &[u8],
        window: WindowId,
        ts: Timestamp,
        predictor: &EttPredictor,
    ) {
        let windows = match self.map.get_mut(key) {
            Some(w) => w,
            None => self.map.entry(key.to_vec()).or_default(),
        };
        let len = &mut self.len;
        let entry = windows.entry(window).or_insert_with(|| {
            *len += 1;
            WindowStat {
                ett: None,
                max_ts: Timestamp::MIN,
                disk_bytes: 0,
                disk_records: 0,
            }
        });
        entry.max_ts = entry.max_ts.max(ts);
        entry.ett = predictor.predict(key, window, entry.max_ts);
    }

    /// Records that `bytes` of the window's state were flushed to disk.
    pub fn add_disk(&mut self, key: &[u8], window: WindowId, bytes: u64) {
        let windows = match self.map.get_mut(key) {
            Some(w) => w,
            None => self.map.entry(key.to_vec()).or_default(),
        };
        let len = &mut self.len;
        let entry = windows.entry(window).or_insert_with(|| {
            *len += 1;
            WindowStat::default()
        });
        entry.disk_bytes += bytes;
        entry.disk_records += 1;
    }

    /// Rebuilds one window's bookkeeping from a recovered index entry:
    /// the persisted `max_ts` re-derives the trigger-time estimate and
    /// `len` restores the disk footprint.
    pub fn rebuild_entry(
        &mut self,
        key: &[u8],
        window: WindowId,
        max_ts: Timestamp,
        len: u64,
        predictor: &EttPredictor,
    ) {
        self.observe_append(key, window, max_ts, predictor);
        self.add_disk(key, window, len);
    }

    /// Looks up a window's stat without allocating.
    pub fn get(&self, key: &[u8], window: WindowId) -> Option<&WindowStat> {
        self.map.get(key)?.get(&window)
    }

    /// Removes and returns a window's stat when it is consumed.
    pub fn consume(&mut self, key: &[u8], window: WindowId) -> Option<WindowStat> {
        let windows = self.map.get_mut(key)?;
        let stat = windows.remove(&window)?;
        if windows.is_empty() {
            self.map.remove(key);
        }
        self.len -= 1;
        Some(stat)
    }

    /// Number of live windows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no windows are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(key, window, stat)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, WindowId, &WindowStat)> {
        self.map
            .iter()
            .flat_map(|(k, ws)| ws.iter().map(move |(w, s)| (k, *w, s)))
    }

    /// Returns the live windows with on-disk state whose ETTs are the
    /// soonest, skipping unpredictable windows and any for which `skip`
    /// returns `true` (paper §4.2, "Selecting Windows To Be Read").
    ///
    /// At least `n` windows are returned (when available); additionally,
    /// *every* window already due — ETT at or before `due_ett` — is
    /// included even beyond `n`, because such windows are guaranteed to
    /// be read no later than the one that triggered this batch, so
    /// loading them in the same sequential scan is strictly cheaper than
    /// scanning again (scale adaptation documented in DESIGN.md §5).
    pub fn select_soonest(
        &self,
        n: usize,
        due_ett: Option<Timestamp>,
        mut skip: impl FnMut(&[u8], WindowId) -> bool,
    ) -> Vec<StateKey> {
        let mut candidates: Vec<(Timestamp, &Vec<u8>, WindowId)> = self
            .iter()
            .filter(|(k, w, stat)| stat.disk_records > 0 && !skip(k, *w))
            .filter_map(|(k, w, stat)| stat.ett.map(|ett| (ett, k, w)))
            .collect();
        candidates.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.cmp(b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        candidates
            .into_iter()
            .enumerate()
            .take_while(|(i, (ett, _, _))| *i < n || due_ett.is_some_and(|due| *ett <= due))
            .map(|(_, (_, k, w))| (k.clone(), w))
            .collect()
    }

    /// The earliest ETT later than `due` among windows with on-disk
    /// state — the bound stream time must reach before a window that
    /// [`StatTable::select_soonest`] found not yet due becomes due — or
    /// `Timestamp::MAX` when every such window is due already.
    pub fn next_due_after(&self, due: Timestamp) -> Timestamp {
        self.iter()
            .filter(|(_, _, stat)| stat.disk_records > 0)
            .filter_map(|(_, _, stat)| stat.ett)
            .filter(|&ett| ett > due)
            .min()
            .unwrap_or(Timestamp::MAX)
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.map
            .iter()
            .map(|(k, ws)| k.len() + 48 + ws.len() * 64)
            .sum()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    #[test]
    fn observe_append_tracks_max_ts_and_ett() {
        let mut t = StatTable::new();
        let p = EttPredictor::SessionGap { gap: 10 };
        t.observe_append(b"k", w(0, 50), 5, &p);
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().ett, Some(15));
        t.observe_append(b"k", w(0, 50), 30, &p);
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().ett, Some(40));
        // Out-of-order timestamps do not shrink the estimate.
        t.observe_append(b"k", w(0, 50), 10, &p);
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().ett, Some(40));
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().max_ts, 30);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn disk_accounting_accumulates() {
        let mut t = StatTable::new();
        t.add_disk(b"k", w(0, 50), 100);
        t.add_disk(b"k", w(0, 50), 50);
        let stat = t.get(b"k", w(0, 50)).unwrap();
        assert_eq!(stat.disk_bytes, 150);
        assert_eq!(stat.disk_records, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn consume_removes() {
        let mut t = StatTable::new();
        t.add_disk(b"k", w(0, 50), 100);
        t.add_disk(b"k", w(50, 90), 10);
        assert!(t.consume(b"k", w(0, 50)).is_some());
        assert!(t.consume(b"k", w(0, 50)).is_none());
        assert_eq!(t.len(), 1);
        assert!(t.consume(b"k", w(50, 90)).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn selection_orders_by_ett_and_requires_disk() {
        let mut t = StatTable::new();
        let p = EttPredictor::SessionGap { gap: 10 };
        for (key, ts) in [(b"a", 30i64), (b"b", 10), (b"c", 20), (b"d", 5)] {
            t.observe_append(key, w(0, 100), ts, &p);
            t.add_disk(key, w(0, 100), 10);
        }
        // No disk data for `e`: never selected.
        t.observe_append(b"e", w(0, 100), 1, &p);
        let selected = t.select_soonest(2, None, |_, _| false);
        let keys: Vec<&[u8]> = selected.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"d" as &[u8], b"b"]);
        // Skip filter removes candidates.
        let selected = t.select_soonest(2, None, |k, _| k == b"d");
        let keys: Vec<&[u8]> = selected.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"b" as &[u8], b"c"]);
    }

    #[test]
    fn due_windows_extend_selection_beyond_n() {
        let mut t = StatTable::new();
        let p = EttPredictor::SessionGap { gap: 10 };
        for (key, ts) in [(b"a", 5i64), (b"b", 6), (b"c", 7), (b"d", 100)] {
            t.observe_append(key, w(0, 200), ts, &p);
            t.add_disk(key, w(0, 200), 10);
        }
        // n = 1, but everything due at ETT 17 (= 7 + gap) comes along.
        let selected = t.select_soonest(1, Some(17), |_, _| false);
        let keys: Vec<&[u8]> = selected.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"b", b"c"]);
        // Without a due bound, only the n soonest are taken.
        let selected = t.select_soonest(1, None, |_, _| false);
        assert_eq!(selected.len(), 1);
    }

    #[test]
    fn next_due_is_the_earliest_ett_past_the_bound() {
        let mut t = StatTable::new();
        let p = EttPredictor::SessionGap { gap: 10 };
        for (key, ts) in [(b"a", 5i64), (b"b", 30), (b"c", 50)] {
            t.observe_append(key, w(0, 200), ts, &p);
            t.add_disk(key, w(0, 200), 10);
        }
        // Still in the write buffer only: a flush, not time, makes it a
        // candidate.
        t.observe_append(b"d", w(0, 200), 20, &p);
        assert_eq!(t.next_due_after(15), 40);
        assert_eq!(t.next_due_after(40), 60);
        assert_eq!(t.next_due_after(60), Timestamp::MAX);
    }

    #[test]
    fn unpredictable_windows_are_never_selected() {
        let mut t = StatTable::new();
        t.observe_append(b"k", w(0, 100), 5, &EttPredictor::Unpredictable);
        t.add_disk(b"k", w(0, 100), 10);
        assert!(t.select_soonest(10, None, |_, _| false).is_empty());
    }
}
