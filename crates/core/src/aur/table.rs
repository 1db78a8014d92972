//! The table of live windows: the memory side of the AUR store (paper
//! §4.2, Figure 7).
//!
//! One entry per live `(key, window)` pair holds the window's
//! **Stat-table** row, its share of the **write buffer** and its share of
//! the **prefetch buffer**, so an append, a trigger and a flush cost one
//! probe. Unlike the paper, the row also lists where its data sits: one
//! [`DiskRecord`] (16 B) per data-log record, so every read goes straight
//! to them and no running read walks the index log. A window's live
//! records are exactly those its row lists; a consumed window's are in
//! no row.

use flowkv_common::backend::ValueSink;
use flowkv_common::error::Result;
use flowkv_common::logfile::{RecordLocation, RECORD_HEADER_LEN};
use flowkv_common::types::{Timestamp, WindowId};

use super::index_log::ValueRun;
use crate::ett::EttPredictor;
use crate::table::WindowMap;

/// One data-log record of a live window: what its index entry says of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskRecord {
    /// Offset of the record in the data log.
    pub offset: u64,
    /// Payload length, the record header excluded.
    pub len: u32,
    /// Number of values in the record.
    pub count: u32,
}

impl DiskRecord {
    /// Bytes a listed record costs the table.
    pub const MEMORY_BYTES: usize = std::mem::size_of::<DiskRecord>();

    /// On-disk footprint of the record, header included.
    pub fn disk_len(&self) -> u64 {
        RECORD_HEADER_LEN + u64::from(self.len)
    }
}

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
    /// The data-log records holding this window's state, in append order
    /// (which is offset order within a generation).
    pub records: Vec<DiskRecord>,
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

    /// Lists `record` as the window's next one on disk.
    fn add_disk(&mut self, record: DiskRecord) {
        self.disk_bytes += record.disk_len();
        self.records.push(record);
    }
}

/// A window chosen for a batch read, as it then was.
pub struct Pick {
    pub key: Vec<u8>,
    pub window: WindowId,
    pub disk_bytes: u64,
    pub records: Vec<DiskRecord>,
}

impl Pick {
    /// The selection record of `(key, window)`, whose entry is `lw`.
    pub fn of(key: &[u8], window: WindowId, lw: &LiveWindow) -> Self {
        Pick {
            key: key.to_vec(),
            window,
            disk_bytes: lw.disk_bytes,
            records: lw.records.clone(),
        }
    }
}

/// The live windows of one store instance, with the byte accounting of
/// the write and prefetch buffers and the listed records spread over
/// them.
#[derive(Default)]
pub struct LiveTable {
    windows: WindowMap<LiveWindow>,
    buffer_bytes: usize,
    prefetched: usize,
    prefetch_bytes: usize,
    listed: usize,
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

    /// Rebuilds one window's bookkeeping from a recovered index entry:
    /// the persisted `max_ts` re-derives the trigger-time estimate, and
    /// the entry's record joins the window's list.
    pub fn rebuild_entry(
        &mut self,
        key: &[u8],
        window: WindowId,
        max_ts: Timestamp,
        record: DiskRecord,
        predictor: &EttPredictor,
    ) {
        self.listed += 1;
        self.windows.upsert(key, window, LiveWindow::new, |lw| {
            lw.max_ts = lw.max_ts.max(max_ts);
            lw.ett = predictor.predict(key, window, lw.max_ts);
            lw.add_disk(record);
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
        self.listed -= lw.records.len();
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
    /// put on disk (the data record at the location it returns) from the
    /// window's buffer to its record list and, to keep it complete, to
    /// the end of a prefetched copy.
    pub fn flush_each(
        &mut self,
        mut write: impl FnMut(&[u8], WindowId, &LiveWindow) -> Result<RecordLocation>,
    ) -> Result<()> {
        let mut groups: Vec<(&[u8], WindowId, &mut LiveWindow)> = self
            .windows
            .iter_mut()
            .filter(|(.., lw)| lw.buffered.count() > 0)
            .collect();
        groups.sort_unstable_by(|a, b| (a.2.ett, a.0, a.1).cmp(&(b.2.ett, b.0, b.1)));
        for (key, window, lw) in groups {
            let loc = write(key, window, lw)?;
            let count = u32::try_from(lw.buffered.count())
                .expect("a record holds fewer values than its u32 length has bytes");
            lw.add_disk(DiskRecord {
                offset: loc.offset,
                len: loc.len,
                count,
            });
            self.listed += 1;
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
    /// batch, so loading it in the same batch read is cheaper than a
    /// miss of its own (DESIGN.md §5). With them, the
    /// earliest ETT later than `due_ett` among all windows with on-disk
    /// state: the bound stream time must reach before another window
    /// becomes due, `Timestamp::MAX` when there is none.
    pub fn select_soonest(
        &self,
        n: usize,
        due_ett: Option<Timestamp>,
        mut skip: impl FnMut(&[u8], WindowId, &LiveWindow) -> bool,
    ) -> (Vec<Pick>, Timestamp) {
        let mut next_due = Timestamp::MAX;
        let mut due = 0;
        let mut candidates: Vec<(Timestamp, &[u8], WindowId, &LiveWindow)> = Vec::new();
        for (key, window, lw) in self.on_disk() {
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
        (picks, next_due)
    }

    /// Every window with on-disk state.
    pub fn on_disk(&self) -> impl Iterator<Item = (&[u8], WindowId, &LiveWindow)> {
        self.windows
            .iter()
            .filter(|(.., lw)| !lw.records.is_empty())
    }

    /// Moves every listed record to where a compaction put it: `moved`
    /// holds `(old offset, new offset)` of every listed record, sorted by
    /// old offset.
    pub fn relocated(&mut self, moved: &[(u64, u64)]) {
        for (.., lw) in self.windows.iter_mut() {
            for record in &mut lw.records {
                let at = moved.binary_search_by_key(&record.offset, |&(old, _)| old);
                record.offset = moved[at.expect("a compaction moves every listed record")].1;
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
    /// prefetched values, the table itself and the records it lists.
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes
            + self.prefetch_bytes
            + self.windows.memory_bytes()
            + self.listed * DiskRecord::MEMORY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAP: EttPredictor = EttPredictor::SessionGap { gap: 10 };

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    /// A disk record of `len` payload bytes at data-log `offset`.
    fn record(offset: u64, len: u32) -> DiskRecord {
        DiskRecord {
            offset,
            len,
            count: 1,
        }
    }

    /// A table holding `rows` as windows `[0, 200)` with one 10-byte
    /// disk record each.
    fn on_disk(rows: &[(&[u8], Timestamp)]) -> LiveTable {
        let mut t = LiveTable::default();
        for (at, &(key, ts)) in (0..).zip(rows) {
            t.rebuild_entry(key, w(0, 200), ts, record(100 * at, 2), &GAP);
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
                Ok(RecordLocation { offset, len })
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
        let listed = [
            DiskRecord {
                offset: 800,
                len: 43,
                count: 1,
            },
            DiskRecord {
                offset: 900,
                len: 44,
                count: 2,
            },
        ];
        assert_eq!(lw.records, listed);
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
            Ok(RecordLocation { offset: 0, len: 1 })
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
        t.rebuild_entry(b"k", w(0, 50), 1, record(0, 92), &GAP);
        t.rebuild_entry(b"k", w(50, 90), 1, record(100, 2), &GAP);
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
        t.rebuild_entry(
            b"k",
            w(0, 100),
            5,
            record(0, 2),
            &EttPredictor::Unpredictable,
        );
        let (picks, _) = t.select_soonest(10, None, |_, _, _| false);
        assert!(picks.is_empty());
        // Its records are live all the same.
        assert_eq!(t.on_disk().count(), 1);
    }

    #[test]
    fn memory_counts_sixteen_bytes_per_listed_record() {
        assert_eq!(DiskRecord::MEMORY_BYTES, 16);
        let mut t = on_disk(&[(b"a", 10), (b"b", 20)]);
        let two = t.memory_bytes();
        t.rebuild_entry(b"a", w(0, 200), 10, record(300, 2), &GAP);
        t.rebuild_entry(b"a", w(0, 200), 10, record(400, 2), &GAP);
        assert_eq!(
            t.memory_bytes(),
            two + 2 * 16,
            "same rows, two more records"
        );
        t.append(b"b", w(0, 200), b"v", 30, &GAP);
        let buffered = t.memory_bytes();
        t.flush_each(|_, _, _| {
            Ok(RecordLocation {
                offset: 500,
                len: 2,
            })
        })
        .unwrap();
        assert_eq!(t.memory_bytes() + (1 + 56 + 1), buffered + 16);
        // A consumed window's records leave with it.
        t.consume(b"a", w(0, 200));
        t.consume(b"b", w(0, 200));
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn a_compaction_moves_every_listed_record() {
        let mut t = on_disk(&[(b"a", 10), (b"b", 20)]);
        t.rebuild_entry(b"a", w(0, 200), 10, record(300, 2), &GAP);
        t.relocated(&[(0, 0), (100, 18), (300, 36)]);
        let offsets = |key: &[u8]| -> Vec<u64> {
            let lw = t.get(key, w(0, 200)).unwrap();
            lw.records.iter().map(|r| r.offset).collect()
        };
        assert_eq!(offsets(b"a"), [0, 36]);
        assert_eq!(offsets(b"b"), [18]);
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
        t.flush_each(|_, _, _| Ok(RecordLocation { offset: 64, len: 1 }))
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
        t.flush_each(|_, _, _| Ok(RecordLocation { offset: 64, len: 1 }))
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
            t.rebuild_entry(key, window, 1, record(0, 2), &GAP);
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
