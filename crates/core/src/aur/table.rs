//! The table of live windows: the memory side of the AUR store (paper
//! §4.2, Figure 7).
//!
//! One entry per live `(key, window)` pair holds the window's
//! **Stat-table** row, its share of the **write buffer** and its share of
//! the **prefetch buffer**, so an append, a trigger and every entry of a
//! compaction scan cost one probe. Data *locations* stay on disk in the
//! index log — an entry is what must fit in memory even when windows
//! number in the millions.

use flowkv_common::backend::ValueSink;
use flowkv_common::error::Result;
use flowkv_common::logfile::RecordLocation;
use flowkv_common::types::{Timestamp, WindowId};

use super::index_log::ValueRun;
use crate::ett::EttPredictor;
use crate::table::WindowMap;

/// Everything the store holds in memory about one live window.
#[derive(Debug, Default)]
pub struct LiveWindow {
    /// Stat table: estimated trigger time, `None` when unpredictable.
    pub ett: Option<Timestamp>,
    /// Stat table: largest tuple timestamp observed in the window.
    pub max_ts: Timestamp,
    /// Stat table: bytes of this window's state in the data log (record
    /// framing included).
    pub disk_bytes: u64,
    /// Stat table: number of data-log records holding this window's state.
    pub disk_records: u64,
    /// Data-log offset of the window's first live record; records of the
    /// same `(key, window)` below it belong to a consumed incarnation.
    /// Set by the first flush after the window is created, 0 in a
    /// generation a compaction or a reopen made (all its records live).
    pub first_offset: u64,
    /// Index-log offset of the entry of that record: the window's first
    /// live entry. Set beside `first_offset`, and by a compaction's
    /// rewrite to the window's first entry in the new index.
    first_entry: u64,
    /// Write buffer: values appended since the last flush.
    pub buffered: ValueRun,
    /// What `buffered` counts toward the flush threshold.
    buffered_charge: usize,
    /// Prefetch buffer: the window's disk values, when a batch read
    /// loaded them — kept as the record bytes they came in, so a flush
    /// extends the copy by the run it wrote and only a read decodes.
    pub prefetched: Option<ValueRun>,
}

impl LiveWindow {
    fn new() -> Self {
        LiveWindow {
            max_ts: Timestamp::MIN,
            ..LiveWindow::default()
        }
    }

    /// Lends `sink` the values a read serves: the disk copy's records,
    /// then the buffer's.
    pub fn lend(&self, sink: ValueSink<'_>) -> Result<()> {
        if let Some(copy) = &self.prefetched {
            copy.lend(sink)?;
        }
        self.buffered.lend(sink)
    }

    /// [`LiveWindow::lend`], collected.
    pub fn values(&self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.lend(&mut |value| out.push(value.to_vec()))?;
        Ok(out)
    }

    /// Counts a disk record of `bytes` at data-log `offset`, listed by the
    /// index entry at `entry`.
    fn add_disk(&mut self, offset: u64, bytes: u64, entry: u64) {
        if self.disk_records == 0 {
            self.first_offset = offset;
            self.first_entry = entry;
        }
        self.disk_bytes += bytes;
        self.disk_records += 1;
    }
}

/// A window chosen by [`LiveTable::select_soonest`], as it then was.
pub struct Pick {
    pub key: Vec<u8>,
    pub window: WindowId,
    pub disk_bytes: u64,
    pub disk_records: u64,
    pub first_offset: u64,
}

impl Pick {
    /// The selection record of `(key, window)`, whose entry is `lw`.
    pub fn of(key: &[u8], window: WindowId, lw: &LiveWindow) -> Self {
        Pick {
            key: key.to_vec(),
            window,
            disk_bytes: lw.disk_bytes,
            disk_records: lw.disk_records,
            first_offset: lw.first_offset,
        }
    }
}

/// The live windows of one store instance, with the byte accounting of
/// the write and prefetch buffers spread over them.
#[derive(Default)]
pub struct LiveTable {
    windows: WindowMap<LiveWindow>,
    buffer_bytes: usize,
    prefetched: usize,
    prefetch_bytes: usize,
}

impl LiveTable {
    /// Buffers `value` for `(key, window)` and updates the window's ETT
    /// (paper: "ETTs are maintained as an in-memory hash table, updated
    /// upon every tuple arrival"). A prefetched copy caches the window's
    /// *disk* records, which an append does not change: it stays.
    pub fn append(
        &mut self,
        key: &[u8],
        window: WindowId,
        value: &[u8],
        ts: Timestamp,
        predictor: &EttPredictor,
    ) {
        let charge = key.len() + value.len() + 56;
        self.buffer_bytes += charge;
        self.windows.upsert(key, window, LiveWindow::new, |lw| {
            lw.max_ts = lw.max_ts.max(ts);
            lw.ett = predictor.predict(key, window, lw.max_ts);
            lw.buffered.push(value);
            lw.buffered_charge += charge;
        });
    }

    /// Rebuilds one window's bookkeeping from a recovered index entry at
    /// index-log offset `entry`: the persisted `max_ts` re-derives the
    /// trigger-time estimate and `len` restores the disk footprint.
    pub fn rebuild_entry(
        &mut self,
        key: &[u8],
        window: WindowId,
        max_ts: Timestamp,
        len: u64,
        entry: u64,
        predictor: &EttPredictor,
    ) {
        self.windows.upsert(key, window, LiveWindow::new, |lw| {
            lw.max_ts = lw.max_ts.max(max_ts);
            lw.ett = predictor.predict(key, window, lw.max_ts);
            lw.add_disk(0, len, entry);
        });
    }

    /// Looks up a live window.
    pub fn get(&self, key: &[u8], window: WindowId) -> Option<&LiveWindow> {
        self.windows.get(key, window)
    }

    /// Removes and returns a window when it is consumed.
    pub fn consume(&mut self, key: &[u8], window: WindowId) -> Option<LiveWindow> {
        let lw = self.windows.remove(key, window)?;
        self.buffer_bytes -= lw.buffered_charge;
        if let Some(copy) = &lw.prefetched {
            self.prefetched -= 1;
            self.prefetch_bytes -= copy.bytes_len();
        }
        Some(lw)
    }

    /// Drops prefetched copies, latest ETT first — the windows furthest
    /// from triggering, a session that keeps extending among them — and
    /// never `keep`'s, until at most `bound` bytes stay resident. Returns
    /// how many it displaced. The order is `(ETT, key, window)` reversed:
    /// a function of the input, like the flush order.
    pub fn displace_latest(&mut self, bound: usize, keep: Option<(&[u8], WindowId)>) -> u64 {
        if self.prefetch_bytes <= bound {
            return 0;
        }
        let mut resident: Vec<(&[u8], WindowId, &mut LiveWindow)> = self
            .windows
            .iter_mut()
            .filter(|&(k, w, ref lw)| lw.prefetched.is_some() && Some((k, w)) != keep)
            .collect();
        // An unpredictable window is never due: it goes first.
        let ett = |lw: &LiveWindow| lw.ett.unwrap_or(Timestamp::MAX);
        resident.sort_unstable_by(|a, b| (ett(b.2), b.0, b.1).cmp(&(ett(a.2), a.0, a.1)));
        let mut displaced = 0;
        for (.., lw) in resident {
            if self.prefetch_bytes <= bound {
                break;
            }
            let copy = lw.prefetched.take().expect("filtered on it");
            self.prefetched -= 1;
            self.prefetch_bytes -= copy.bytes_len();
            displaced += 1;
        }
        displaced
    }

    /// Adds loaded disk values to a window's prefetched copy: a record's
    /// worth per call, or a background read's whole run.
    pub fn install(&mut self, key: &[u8], window: WindowId, values: &ValueRun) {
        let Some(lw) = self.windows.get_mut(key, window) else {
            return;
        };
        self.prefetch_bytes += values.bytes_len();
        self.prefetched += usize::from(lw.prefetched.is_none());
        lw.prefetched.get_or_insert_default().extend(values);
    }

    /// Hands every window with buffered values to `write` in
    /// predicted-trigger order — `(ETT, key, window)`, a function of the
    /// input and not of map iteration order — and moves what `write`
    /// put on disk (the data record's location and the offset of its
    /// index entry) from the window's buffer to its disk footprint and,
    /// to keep it complete, to the end of a prefetched copy.
    pub fn flush_each(
        &mut self,
        mut write: impl FnMut(&[u8], WindowId, &LiveWindow) -> Result<(RecordLocation, u64)>,
    ) -> Result<()> {
        let mut groups: Vec<(&[u8], WindowId, &mut LiveWindow)> = self
            .windows
            .iter_mut()
            .filter(|(.., lw)| lw.buffered.count() > 0)
            .collect();
        groups.sort_unstable_by(|a, b| (a.2.ett, a.0, a.1).cmp(&(b.2.ett, b.0, b.1)));
        for (key, window, lw) in groups {
            let (loc, entry) = write(key, window, lw)?;
            lw.add_disk(loc.offset, loc.disk_len(), entry);
            if let Some(resident) = &mut lw.prefetched {
                resident.extend(&lw.buffered);
                self.prefetch_bytes += lw.buffered.bytes_len();
            }
            self.buffer_bytes -= lw.buffered_charge;
            lw.buffered_charge = 0;
            lw.buffered.flushed();
        }
        Ok(())
    }

    /// Returns the live windows with on-disk state whose ETTs are the
    /// soonest, in `(ETT, key, window)` order, skipping unpredictable
    /// windows and any for which `skip` returns `true` (paper §4.2,
    /// "Selecting Windows To Be Read"): the `n` soonest, and beyond `n`
    /// *every* window already due — ETT at or before `due_ett` — because
    /// it will be read no later than the window that triggered this
    /// batch, so loading it in the same sequential scan is strictly
    /// cheaper than scanning again (DESIGN.md §5). With them, the
    /// earliest ETT later than `due_ett` among all windows with on-disk
    /// state: the bound stream time must reach before another window
    /// becomes due, `Timestamp::MAX` when there is none. And, from the
    /// same pass, where the read's index walk starts
    /// ([`LiveTable::scan_start`]).
    pub fn select_soonest(
        &self,
        n: usize,
        due_ett: Option<Timestamp>,
        mut skip: impl FnMut(&[u8], WindowId, &LiveWindow) -> bool,
    ) -> (Vec<Pick>, Timestamp, Option<u64>) {
        let mut next_due = Timestamp::MAX;
        let mut start: Option<u64> = None;
        let mut due = 0;
        let mut candidates: Vec<(Timestamp, &[u8], WindowId, &LiveWindow)> = Vec::new();
        for (key, window, lw) in self.windows.iter().filter(|(.., lw)| lw.disk_records > 0) {
            start = Some(start.map_or(lw.first_entry, |s| s.min(lw.first_entry)));
            let Some(ett) = lw.ett else {
                continue;
            };
            let is_due = due_ett.is_some_and(|due| ett <= due);
            if !is_due {
                next_due = next_due.min(ett);
            }
            if (is_due || n > 0) && !skip(key, window, lw) {
                due += usize::from(is_due);
                candidates.push((ett, key, window, lw));
            }
        }
        // Due windows have the smallest ETTs, so the selection is the
        // first `max(n, due)` candidates in order: cut, then sort those.
        let cut = n.max(due);
        if (1..candidates.len()).contains(&cut) {
            candidates.select_nth_unstable_by_key(cut - 1, |&(ett, k, w, _)| (ett, k, w));
        }
        candidates.truncate(cut);
        candidates.sort_unstable_by_key(|&(ett, k, w, _)| (ett, k, w));
        let picks = candidates
            .into_iter()
            .map(|(_, key, window, lw)| Pick::of(key, window, lw))
            .collect();
        (picks, next_due, start)
    }

    /// Every window with on-disk state, as a batch read picks it.
    pub fn on_disk(&self) -> Vec<Pick> {
        let on_disk = self.windows.iter().filter(|(.., lw)| lw.disk_records > 0);
        on_disk.map(|(k, w, lw)| Pick::of(k, w, lw)).collect()
    }

    /// Where every index walk starts: the index-log offset of the first
    /// live entry, the least `first_entry` of the windows on disk —
    /// `None` when no window is. Entries before it are dead for good.
    pub fn scan_start(&self) -> Option<u64> {
        let on_disk = self.windows.iter().filter(|(.., lw)| lw.disk_records > 0);
        on_disk.map(|(.., lw)| lw.first_entry).min()
    }

    /// The liveness rule, in one probe: an index entry is live iff its
    /// window is in the table with disk records and the entry's data
    /// record sits at or past the window's `first_offset`.
    pub fn classify(&self, key: &[u8], window: WindowId, offset: u64) -> bool {
        let lw = self.windows.get(key, window);
        lw.is_some_and(|lw| lw.disk_records > 0 && offset >= lw.first_offset)
    }

    /// A compaction rewrote the logs with live records only, listed by
    /// `entries` — `(key, window, index-log offset)` in log order: every
    /// record of every window is live in the new generation, and a
    /// window's first entry is its first there.
    pub fn compacted<'a>(&mut self, entries: impl IntoIterator<Item = (&'a [u8], WindowId, u64)>) {
        for (.., lw) in self.windows.iter_mut() {
            lw.first_offset = 0;
            lw.first_entry = u64::MAX;
        }
        for (key, window, entry) in entries {
            if let Some(lw) = self.windows.get_mut(key, window) {
                lw.first_entry = lw.first_entry.min(entry);
            }
        }
    }

    /// Iterates `(key, window, entry)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], WindowId, &LiveWindow)> {
        self.windows.iter()
    }

    /// Number of live windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Bytes buffered for the next flush, as the flush threshold counts.
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// Number of windows holding a prefetched copy.
    pub fn prefetched_windows(&self) -> usize {
        self.prefetched
    }

    /// Bytes of prefetched values, as held: length-prefixed, back to back.
    pub fn prefetch_bytes(&self) -> usize {
        self.prefetch_bytes
    }

    /// Approximate bytes of state held in memory: buffered values,
    /// prefetched values, and the table itself.
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes + self.prefetch_bytes + self.windows.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAP: EttPredictor = EttPredictor::SessionGap { gap: 10 };

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    /// A table holding `rows` as windows `[0, 200)` with one 10-byte
    /// disk record each.
    fn on_disk(rows: &[(&[u8], Timestamp)]) -> LiveTable {
        let mut t = LiveTable::default();
        for (entry, &(key, ts)) in (0..).zip(rows) {
            t.rebuild_entry(key, w(0, 200), ts, 10, 100 + entry, &GAP);
        }
        t
    }

    /// `values` as a batch read hands them over.
    fn run(values: &[&[u8]]) -> ValueRun {
        let mut run = ValueRun::default();
        values.iter().for_each(|v| run.push(v));
        run
    }

    fn keys(picks: &[Pick]) -> Vec<&[u8]> {
        picks.iter().map(|p| p.key.as_slice()).collect()
    }

    #[test]
    fn append_tracks_max_ts_and_ett() {
        let mut t = LiveTable::default();
        t.append(b"k", w(0, 50), b"v", 5, &GAP);
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().ett, Some(15));
        t.append(b"k", w(0, 50), b"v", 30, &GAP);
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().ett, Some(40));
        // Out-of-order timestamps do not shrink the estimate.
        t.append(b"k", w(0, 50), b"v", 10, &GAP);
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().ett, Some(40));
        assert_eq!(t.get(b"k", w(0, 50)).unwrap().max_ts, 30);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn flushes_accumulate_disk_footprint_from_the_first_offset() {
        let mut t = LiveTable::default();
        let mut offset = 700;
        let mut flush = |t: &mut LiveTable| {
            t.flush_each(|_, _, lw| {
                offset += 100;
                let len = 42 + lw.buffered.count() as u32;
                Ok((RecordLocation { offset, len }, offset / 10))
            })
            .unwrap();
        };
        t.append(b"k", w(0, 50), b"v", 5, &GAP);
        flush(&mut t);
        t.append(b"k", w(0, 50), b"v", 6, &GAP);
        t.append(b"k", w(0, 50), b"v", 7, &GAP);
        flush(&mut t);
        let lw = t.get(b"k", w(0, 50)).unwrap();
        assert_eq!(lw.disk_bytes, (8 + 43) + (8 + 44));
        assert_eq!(lw.disk_records, 2);
        assert_eq!((lw.first_offset, lw.first_entry), (800, 80));
        assert_eq!(lw.buffered.count(), 0);
        assert_eq!(t.buffer_bytes(), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn flush_order_is_ett_then_key_then_window() {
        let mut t = LiveTable::default();
        for (key, window, ts) in [
            (b"b", w(0, 50), 30i64),
            (b"a", w(50, 90), 30),
            (b"a", w(0, 50), 30),
            (b"c", w(0, 50), 5),
        ] {
            t.append(key, window, b"v", ts, &GAP);
        }
        let mut order = Vec::new();
        t.flush_each(|key, window, _| {
            order.push((key.to_vec(), window));
            Ok((RecordLocation { offset: 0, len: 1 }, 0))
        })
        .unwrap();
        let expected = [
            (b"c", w(0, 50)),
            (b"a", w(0, 50)),
            (b"a", w(50, 90)),
            (b"b", w(0, 50)),
        ];
        assert_eq!(order, expected.map(|(k, w)| (k.to_vec(), w)));
    }

    #[test]
    fn consume_removes() {
        let mut t = LiveTable::default();
        t.rebuild_entry(b"k", w(0, 50), 1, 100, 0, &GAP);
        t.rebuild_entry(b"k", w(50, 90), 1, 10, 20, &GAP);
        assert!(t.consume(b"k", w(0, 50)).is_some());
        assert!(t.consume(b"k", w(0, 50)).is_none());
        assert_eq!(t.len(), 1);
        // The sibling window under the same key survives.
        assert_eq!(t.get(b"k", w(50, 90)).unwrap().disk_bytes, 10);
        assert!(t.consume(b"k", w(50, 90)).is_some());
        assert_eq!(t.len(), 0);
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn selection_orders_by_ett_and_requires_disk() {
        let mut t = on_disk(&[(b"a", 30), (b"b", 10), (b"c", 20), (b"d", 5)]);
        // No disk data for `e`: never selected.
        t.append(b"e", w(0, 200), b"v", 1, &GAP);
        let selected = t.select_soonest(2, None, |_, _, _| false).0;
        assert_eq!(keys(&selected), vec![b"d" as &[u8], b"b"]);
        // Skip filter removes candidates.
        let selected = t.select_soonest(2, None, |k, _, _| k == b"d").0;
        assert_eq!(keys(&selected), vec![b"b" as &[u8], b"c"]);
        // More asked for than there is: everything, in order.
        let selected = t.select_soonest(9, None, |_, _, _| false).0;
        assert_eq!(keys(&selected), vec![b"d" as &[u8], b"b", b"c", b"a"]);
    }

    #[test]
    fn due_windows_extend_selection_beyond_n() {
        let t = on_disk(&[(b"a", 5), (b"b", 6), (b"c", 7), (b"d", 100)]);
        // n = 1, but everything due at ETT 17 (= 7 + gap) comes along.
        let selected = t.select_soonest(1, Some(17), |_, _, _| false).0;
        assert_eq!(keys(&selected), vec![b"a" as &[u8], b"b", b"c"]);
        // Without a due bound, only the n soonest are taken.
        let selected = t.select_soonest(1, None, |_, _, _| false).0;
        assert_eq!(selected.len(), 1);
    }

    #[test]
    fn next_due_is_the_earliest_ett_past_the_bound() {
        let mut t = on_disk(&[(b"a", 5), (b"b", 30), (b"c", 50)]);
        // Still in the write buffer only: a flush, not time, makes it a
        // candidate.
        t.append(b"d", w(0, 200), b"v", 20, &GAP);
        // Skipped windows still bound the next scan.
        let next_due = |due| t.select_soonest(0, Some(due), |_, _, _| true).1;
        assert_eq!(next_due(15), 40);
        assert_eq!(next_due(40), 60);
        assert_eq!(next_due(60), Timestamp::MAX);
    }

    #[test]
    fn unpredictable_windows_are_never_selected() {
        let mut t = LiveTable::default();
        t.rebuild_entry(b"k", w(0, 100), 5, 10, 0, &EttPredictor::Unpredictable);
        let (picks, _, start) = t.select_soonest(10, None, |_, _, _| false);
        assert!(picks.is_empty());
        // Its entries are live all the same: the walk starts at them.
        assert_eq!(start, Some(0));
        assert_eq!(t.on_disk().len(), 1);
    }

    #[test]
    fn classify_applies_the_offset_rule() {
        let mut t = LiveTable::default();
        t.append(b"k", w(0, 50), b"v", 5, &GAP);
        // Buffered only: entries of an earlier incarnation are dead.
        assert!(!t.classify(b"k", w(0, 50), 0));
        t.flush_each(|_, _, _| Ok((RecordLocation { offset: 64, len: 1 }, 32)))
            .unwrap();
        assert!(!t.classify(b"k", w(0, 50), 63));
        assert!(t.classify(b"k", w(0, 50), 64));
        assert!(!t.classify(b"k", w(50, 90), 64));
        assert!(!t.classify(b"other", w(0, 50), 64));
        // A compaction leaves live records only.
        t.compacted([]);
        assert!(t.classify(b"k", w(0, 50), 0));
    }

    #[test]
    fn the_scan_start_is_the_first_entry_of_a_window_on_disk() {
        let mut t = on_disk(&[(b"a", 30), (b"b", 10), (b"c", 20)]);
        assert_eq!(t.scan_start(), Some(100));
        t.consume(b"a", w(0, 200));
        assert_eq!(t.select_soonest(0, None, |_, _, _| false).2, Some(101));
        // A buffered window has no entry yet; its first flush gives it one.
        t.append(b"a", w(0, 200), b"v", 40, &GAP);
        t.consume(b"b", w(0, 200));
        t.consume(b"c", w(0, 200));
        assert_eq!(t.scan_start(), None);
        t.flush_each(|_, _, _| Ok((RecordLocation { offset: 64, len: 1 }, 103)))
            .unwrap();
        assert_eq!(t.scan_start(), Some(103));
        // A compaction names each window's first entry in the new log.
        t.append(b"d", w(0, 200), b"v", 50, &GAP);
        let a: &[u8] = b"a";
        t.compacted([(a, w(0, 200), 0), (a, w(0, 200), 9)]);
        assert_eq!(t.scan_start(), Some(0));
        t.consume(b"a", w(0, 200));
        assert_eq!(t.scan_start(), None);
    }

    #[test]
    fn install_consume_roundtrip() {
        let mut t = on_disk(&[(b"k", 1)]);
        let empty = t.memory_bytes();
        t.install(b"k", w(0, 200), &run(&[b"a"]));
        t.install(b"k", w(0, 200), &run(&[b"b"]));
        assert_eq!(t.prefetched_windows(), 1);
        assert!(t.memory_bytes() > empty);
        // A consumed or unknown window takes nothing in.
        t.install(b"gone", w(0, 200), &run(&[b"x"]));
        assert_eq!(t.prefetched_windows(), 1);
        let lw = t.consume(b"k", w(0, 200)).unwrap();
        assert_eq!(lw.values().unwrap(), [b"a", b"b"]);
        assert_eq!((t.prefetched_windows(), t.prefetch_bytes()), (0, 0));
    }

    #[test]
    fn an_append_keeps_the_prefetched_copy() {
        let mut t = on_disk(&[(b"k", 1)]);
        t.install(b"k", w(0, 200), &run(&[b"old"]));
        let resident = t.prefetch_bytes();
        t.append(b"k", w(0, 200), b"v", 2, &GAP);
        t.append(b"k", w(0, 200), b"v", 3, &GAP);
        assert_eq!((t.prefetched_windows(), t.prefetch_bytes()), (1, resident));
        // Consuming hands back the disk copy and the buffer beside it,
        // served in that order.
        let lw = t.consume(b"k", w(0, 200)).unwrap();
        assert_eq!(lw.prefetched.as_ref().map(ValueRun::count), Some(1));
        assert_eq!(lw.buffered.count(), 2);
        assert_eq!(lw.values().unwrap(), [&b"old"[..], b"v", b"v"]);
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn the_budget_displaces_the_latest_ett_first_and_never_the_target() {
        const COPY: usize = 100 + 1;
        let bound = 3 * COPY;
        let mut t = on_disk(&[(b"a", 10), (b"b", 20), (b"c", 30), (b"d", 40), (b"e", 50)]);
        let resident = |t: &LiveTable| -> Vec<Vec<u8>> {
            let held = t.iter().filter(|(.., lw)| lw.prefetched.is_some());
            let mut keys: Vec<Vec<u8>> = held.map(|(k, ..)| k.to_vec()).collect();
            keys.sort();
            keys
        };
        // Installs up to the bound displace nothing.
        for key in [b"b", b"c", b"d"] {
            t.install(key, w(0, 200), &run(&[&[0u8; 100]]));
            assert_eq!(t.displace_latest(bound, Some((key, w(0, 200)))), 0);
        }
        // Past it, the latest ETT goes — here `d` — not the sooner ones.
        t.install(b"a", w(0, 200), &run(&[&[0u8; 100]]));
        assert_eq!(t.displace_latest(bound, Some((b"a", w(0, 200)))), 1);
        assert_eq!(resident(&t), [b"a", b"b", b"c"]);
        // The target stays even when its own ETT is the latest.
        t.install(b"e", w(0, 200), &run(&[&[0u8; 100]]));
        assert_eq!(t.displace_latest(bound, Some((b"e", w(0, 200)))), 1);
        assert_eq!(resident(&t), [b"a", b"b", b"e"]);
        assert_eq!((t.prefetched_windows(), t.prefetch_bytes()), (3, bound));
        // `a` keeps extending: each tuple moves its ETT out and each
        // flush grows its copy. It cannot hold the buffer against `c`,
        // which is due sooner — `a` is now the latest, and goes.
        t.append(b"a", w(0, 200), &[0u8; 100], 60, &GAP);
        t.flush_each(|_, _, _| Ok((RecordLocation { offset: 64, len: 1 }, 0)))
            .unwrap();
        assert_eq!(t.prefetch_bytes(), bound + COPY);
        t.install(b"c", w(0, 200), &run(&[&[0u8; 100]]));
        assert_eq!(t.displace_latest(bound, None), 1);
        assert_eq!(resident(&t), [b"b", b"c", b"e"]);
        assert!(t.prefetch_bytes() <= bound);
        // Without a target everything can go.
        assert_eq!(t.displace_latest(0, None), 3);
        assert_eq!((t.prefetched_windows(), t.prefetch_bytes()), (0, 0));
    }

    #[test]
    fn a_flush_extends_the_prefetched_copy() {
        let mut t = on_disk(&[(b"k", 1)]);
        t.append(b"k", w(0, 200), b"new", 2, &GAP);
        t.install(b"k", w(0, 200), &run(&[b"old"]));
        t.flush_each(|_, _, _| Ok((RecordLocation { offset: 64, len: 1 }, 0)))
            .unwrap();
        assert_eq!(t.prefetch_bytes(), 2 * (3 + 1));
        let lw = t.consume(b"k", w(0, 200)).unwrap();
        assert_eq!(lw.values().unwrap(), [b"old", b"new"]);
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn prefetched_windows_count_across_keys() {
        let mut t = LiveTable::default();
        for (key, window) in [(b"a", w(0, 10)), (b"a", w(10, 20)), (b"b", w(0, 10))] {
            t.rebuild_entry(key, window, 1, 10, 0, &GAP);
            t.install(key, window, &run(&[b"x"]));
        }
        assert_eq!(t.prefetched_windows(), 3);
        assert!(t.consume(b"a", w(0, 10)).is_some());
        assert_eq!(t.prefetched_windows(), 2);
        // Sibling window under the same key survives its neighbour's take.
        assert!(t.get(b"a", w(10, 20)).unwrap().prefetched.is_some());
        assert!(t.consume(b"b", w(0, 10)).is_some());
        assert!(t.consume(b"a", w(10, 20)).is_some());
        assert_eq!(t.prefetched_windows(), 0);
    }
}
