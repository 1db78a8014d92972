//! The published snapshot: one immutable base plus a short chain of
//! per-epoch deltas, all behind `Arc`s.
//!
//! Every layer is one byte arena plus fixed-size rows sorted by
//! `(key, window)`, each row pointing at its key and value bytes in the
//! arena. A point lookup is a binary search with a borrowed `&[u8]` (no
//! allocation), a prefix scan seeks and walks, merging layers sorts the
//! rows above the oldest by key head and makes one pass against it that
//! copies bytes into a new arena, and dropping a layer frees two
//! buffers. See the [module documentation](super) for what a reader pins
//! and when the chain is folded.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use crate::backend::Pattern;
use crate::metrics::MetricsSnapshot;
use crate::types::{Timestamp, WindowId, MAX_TIMESTAMP, MIN_TIMESTAMP};

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

/// Bytes of the little-endian `u32` length before each value of a list.
const FRAME: usize = 4;

fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a view layer holds under 4 GiB")
}

/// Appends `value` to `arena` as one value of a list.
fn frame(arena: &mut Vec<u8>, value: &[u8]) {
    arena.extend_from_slice(&offset(value.len()).to_le_bytes());
    arena.extend_from_slice(value);
}

/// A byte range of an arena: where it starts and how long it is.
#[derive(Clone, Copy, Debug)]
struct Span(u32, u32);

impl Span {
    /// The bytes `write` appends to `arena`.
    fn write(arena: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> Span {
        let at = arena.len();
        write(arena);
        Span(offset(at), offset(arena.len() - at))
    }

    fn of(self, arena: &[u8]) -> &[u8] {
        &arena[self.0 as usize..][..self.1 as usize]
    }
}

/// What a row's value bytes are, and what they do to the layers below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The pair was taken: it is gone, whatever the layers below hold.
    Tombstone,
    /// The pair's whole value is this aggregate; hides the layers below.
    Aggregate,
    /// The pair's whole value is this list; hides the layers below.
    Values,
    /// Values appended after whatever the layers below hold.
    Append,
}

/// One pair of a layer, or one call of an epoch's log.
#[derive(Clone, Copy, Debug)]
struct Row {
    /// [`key_head`] of the key, so that most comparisons of a binary
    /// search are decided without following `key` to its bytes.
    head: u64,
    window: WindowId,
    key: Span,
    value: Span,
    kind: Kind,
    /// In an epoch's log and the delta it collapses to, what the pair
    /// held before the call ([`pack`]ed); read nowhere else.
    held: u32,
}

impl Row {
    fn pos<'a>(&self, arena: &'a [u8]) -> Pos<'a> {
        Pos {
            head: self.head,
            key: self.key.of(arena),
            window: self.window,
        }
    }

    fn change<'a>(&self, arena: &'a [u8]) -> Change<'a> {
        Change(self.kind, self.value.of(arena))
    }
}

/// Sorts `items` stably by the `u64` that `head` reads from each: a
/// counting pass on the highest byte in which two heads differ, then the
/// same within each bucket, down to buckets of a few items, which are
/// sorted by comparison. `scratch` holds a copy during a pass.
fn sort_by_head<T: Copy>(items: &mut [T], scratch: &mut Vec<T>, head: impl Fn(&T) -> u64 + Copy) {
    let Some(first) = items.first().map(head) else {
        return;
    };
    if items.len() <= 24 {
        return items.sort_by_key(head);
    }
    let spread = items
        .iter()
        .fold(0, |spread, item| spread | (head(item) ^ first));
    if spread == 0 {
        return;
    }
    let shift = (63 - spread.leading_zeros()) / 8 * 8;
    let digit = |item: &T| (head(item) >> shift) as u8 as usize;
    let mut starts = [0; 257];
    items.iter().for_each(|item| starts[digit(item) + 1] += 1);
    (1..257).for_each(|d| starts[d] += starts[d - 1]);
    scratch.clear();
    scratch.extend_from_slice(items);
    let mut next = starts;
    for item in scratch.iter() {
        items[next[digit(item)]] = *item;
        next[digit(item)] += 1;
    }
    for bucket in starts.windows(2).filter(|b| b[1] - b[0] > 1) {
        sort_by_head(&mut items[bucket[0]..bucket[1]], scratch, head);
    }
}

/// Sorts `items` stably by position: by the head that `head` reads
/// ([`sort_by_head`]), then each run of tied heads by `cmp`, unless the
/// run is in order already (as a run of one key's calls mostly is).
fn sort_by_pos<T: Copy>(
    items: &mut [T],
    scratch: &mut Vec<T>,
    head: impl Fn(&T) -> u64 + Copy,
    cmp: impl Fn(&T, &T) -> Ordering,
) {
    sort_by_head(items, scratch, head);
    for tied in items.chunk_by_mut(|a, b| head(a) == head(b)) {
        if !tied.is_sorted_by(|a, b| cmp(a, b).is_le()) {
            tied.sort_by(&cmp);
        }
    }
}

/// Orders two rows (each with its arena) by position, reading no key
/// byte where the heads decide or hold both keys whole: two keys of at
/// most eight bytes with one head differ only in trailing zeros, so the
/// shorter sorts first.
fn by_pos((a, of_a): (&Row, &[u8]), (b, of_b): (&Row, &[u8])) -> Ordering {
    a.head
        .cmp(&b.head)
        .then_with(|| match a.key.1.max(b.key.1) {
            ..=8 => (a.key.1, a.window).cmp(&(b.key.1, b.window)),
            _ => a.pos(of_a).cmp(&b.pos(of_b)),
        })
}

/// What one layer says about one pair, read in place: kind and bytes.
#[derive(Clone, Copy, Debug)]
struct Change<'a>(Kind, &'a [u8]);

impl<'a> Change<'a> {
    /// The values of a list.
    fn values(self) -> impl Iterator<Item = &'a [u8]> {
        let mut rest = self.1;
        std::iter::from_fn(move || {
            let (len, tail) = rest.split_first_chunk::<FRAME>()?;
            let (value, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            rest = tail;
            Some(value)
        })
    }

    /// [`ViewValue::memory_size`] of the value.
    fn size(self) -> usize {
        let values = (self.0 != Kind::Aggregate).then(|| self.values().count());
        self.1.len() + values.unwrap_or(0) * (value_size(&[]) - FRAME)
    }
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pos<'a> {
    head: u64,
    key: &'a [u8],
    window: WindowId,
}

impl<'a> Pos<'a> {
    fn new(key: &'a [u8], window: WindowId) -> Self {
        let head = key_head(key);
        Pos { head, key, window }
    }
}

/// What an entry with a live value of `value_size` adds to `memory_bytes`.
fn footprint(key_len: usize, value_size: usize) -> usize {
    key_len + 16 + value_size
}

/// One layer: rows sorted by `(key, window)` over an arena of their bytes.
#[derive(Debug, Default)]
struct Layer {
    bytes: Vec<u8>,
    rows: Vec<Row>,
}

impl Layer {
    fn with_capacity(rows: usize, bytes: usize) -> Self {
        let (bytes, rows) = (Vec::with_capacity(bytes), Vec::with_capacity(rows));
        Layer { bytes, rows }
    }

    /// The layer as written, with no spare capacity left to pin.
    fn finish(mut self) -> Self {
        self.bytes.shrink_to_fit();
        self.rows.shrink_to_fit();
        self
    }

    /// Index of the first row at or after `pos`.
    fn seek(&self, pos: Pos<'_>) -> usize {
        // `|` keeps the common case, a head that decides, free of branches.
        let tied = |row: &Row| row.head == pos.head && row.pos(&self.bytes) < pos;
        self.rows
            .partition_point(|row| (row.head < pos.head) | tied(row))
    }

    fn find(&self, pos: Pos<'_>) -> Option<Change<'_>> {
        let row = self.rows.get(self.seek(pos))?;
        (row.pos(&self.bytes) == pos).then(|| row.change(&self.bytes))
    }

    /// The greatest window the layer has for `key`, below `before` if given.
    fn latest_before(&self, key: &[u8], before: Option<WindowId>) -> Option<WindowId> {
        let head = key_head(key);
        let end = match before {
            Some(window) => self.seek(Pos { head, key, window }),
            None => {
                let tied = |row: &Row| row.head == head && row.key.of(&self.bytes) <= key;
                self.rows
                    .partition_point(|row| (row.head < head) | tied(row))
            }
        };
        let row = self.rows.get(end.checked_sub(1)?)?;
        (row.head == head && row.key.of(&self.bytes) == key).then_some(row.window)
    }

    /// Writes a row for `pos` whose value `write` appends to the arena.
    fn push(&mut self, pos: Pos<'_>, kind: Kind, held: u32, write: impl FnOnce(&mut Vec<u8>)) {
        let key = Span::write(&mut self.bytes, |arena| arena.extend_from_slice(pos.key));
        let (head, window, value) = (pos.head, pos.window, Span::write(&mut self.bytes, write));
        self.rows.push(Row {
            head,
            window,
            key,
            value,
            kind,
            held,
        });
    }

    /// Copies the rows `run` of `from` through unchanged. Every layer
    /// writes each row's key and value after the row before's, so the
    /// run's bytes are one stretch of `from`'s arena: one copy moves
    /// them, and each row's spans shift by where the stretch lands.
    fn copy_run(&mut self, from: &Layer, run: Range<usize>) {
        let rows = &from.rows[run];
        let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
            return;
        };
        let (start, end) = (first.key.0, last.value.0 + last.value.1);
        let shift = offset(self.bytes.len()).wrapping_sub(start);
        let moved = |span: Span| Span(span.0.wrapping_add(shift), span.1);
        self.bytes
            .extend_from_slice(&from.bytes[start as usize..end as usize]);
        offset(self.bytes.len());
        let rows = rows.iter().map(|row| Row {
            key: moved(row.key),
            value: moved(row.value),
            ..*row
        });
        self.rows.extend(rows);
    }

    /// Writes the one change that `changes`, one pair's newest first,
    /// amount to. `live`: only a live value, as a whole one (what a base
    /// holds); else tombstones and bare appends stay, as in a delta.
    fn push_collapsed<'a, I>(&mut self, pos: Pos<'_>, changes: I, live: bool, held: u32)
    where
        I: DoubleEndedIterator<Item = Change<'a>> + ExactSizeIterator + Clone,
    {
        let Some(Change(newest, value)) = changes.clone().next() else {
            return;
        };
        // The newest change hides the rest, or is the only one.
        if newest != Kind::Append || changes.len() == 1 {
            let kind = match newest {
                Kind::Tombstone if live => return,
                Kind::Append if live => Kind::Values,
                kind => kind,
            };
            return self.push(pos, kind, held, |arena| arena.extend_from_slice(value));
        }
        let appended = changes.clone().take_while(|c| c.0 == Kind::Append).count();
        let floor = changes.clone().nth(appended);
        let kind = match floor {
            None if !live => Kind::Append,
            _ => Kind::Values,
        };
        // A value list never sits on an aggregate (a store has one
        // pattern); if it did, the list wins.
        let below = floor.filter(|floor| floor.0 == Kind::Values);
        let parts = below.into_iter().chain(changes.take(appended).rev());
        self.push(pos, kind, held, |arena| {
            parts.for_each(|part| arena.extend_from_slice(part.1))
        });
    }
}

/// The value a pair's changes, newest first, leave live, if any.
fn live_value<'a>(mut changes: impl Iterator<Item = Change<'a>>) -> Option<ViewValue> {
    let mut appended = Vec::new();
    let floor = loop {
        match changes.next() {
            Some(change) if change.0 == Kind::Append => appended.push(change),
            other => break other,
        }
    };
    match floor {
        _ if !appended.is_empty() => {}
        Some(Change(Kind::Aggregate, value)) => return Some(ViewValue::Aggregate(value.to_vec())),
        None | Some(Change(Kind::Tombstone, _)) => return None,
        Some(_) => {}
    }
    let below = floor.filter(|floor| floor.0 == Kind::Values);
    let lists = below.into_iter().chain(appended.into_iter().rev());
    let values = lists.flat_map(Change::values).map(<[u8]>::to_vec);
    Some(ViewValue::Values(values.collect()))
}

/// [`ViewValue::memory_size`] of what [`live_value`] leaves, unbuilt.
fn live_size<'a>(changes: impl Iterator<Item = Change<'a>>) -> Option<usize> {
    let mut appended: Option<usize> = None;
    for change in changes {
        match change.0 {
            Kind::Append => *appended.get_or_insert(0) += change.size(),
            Kind::Tombstone => break,
            Kind::Aggregate => return appended.or(Some(change.size())),
            Kind::Values => return Some(change.size() + appended.unwrap_or(0)),
        }
    }
    appended
}

/// A walk over several sorted layers, newest first, as one sorted
/// sequence: each layer's unread rows, and the head of the first
/// (`u64::MAX` past the last) so that a step scans a few words.
struct Walk<'a> {
    layers: Vec<(&'a Layer, &'a [Row])>,
    heads: Vec<u64>,
}

impl<'a> Walk<'a> {
    fn new(layers: impl Iterator<Item = (&'a Layer, &'a [Row])>) -> Self {
        let layers: Vec<_> = layers.collect();
        let first = |rows: &[Row]| rows.first().map_or(u64::MAX, |row| row.head);
        let heads = layers.iter().map(|(_, rows)| first(rows)).collect();
        Walk { layers, heads }
    }

    /// Steps to the next `(key, window)` position any layer mentions and
    /// fills `changes` with every layer's change there, newest first.
    fn next(&mut self, changes: &mut Vec<Change<'a>>) -> Option<Pos<'a>> {
        let least = *self.heads.iter().min()?;
        let (mut next, mut at) = (None, 0u64);
        for i in (0..self.heads.len()).filter(|&i| self.heads[i] == least) {
            let (layer, rows) = self.layers[i];
            let Some(row) = rows.first() else { continue };
            let pos = row.pos(&layer.bytes);
            match next.map(|next| pos.cmp(&next)) {
                Some(Ordering::Greater) => continue,
                Some(Ordering::Equal) => {}
                _ => (changes.clear(), at = 0, next = Some(pos)).0,
            }
            changes.push(row.change(&layer.bytes));
            at |= 1 << i;
        }
        for (i, (_, rows)) in self.layers.iter_mut().enumerate() {
            if at & 1 << i != 0 {
                *rows = &rows[1..];
                self.heads[i] = rows.first().map_or(u64::MAX, |row| row.head);
            }
        }
        next
    }
}

/// `layers`, newest first, merged into one new layer: a base when
/// `live`, else a delta (see [`Layer::push_collapsed`]). A pair of a
/// `dropped` window keeps only what the newest layer says of it.
///
/// The oldest layer is the floor. The rows above it (together about the
/// size of the floor, by the size rule) are gathered into one run by
/// position: a stable sort of the layers laid end to end, newest first,
/// keeps each position's rows newest first. One two-way pass of that
/// run against the floor writes the result, copying each stretch of
/// floor rows nothing above touches straight through.
fn merged(layers: &[&Layer], live: bool, dropped: &[(WindowId, usize)]) -> Layer {
    let Some((floor, above)) = layers.split_last() else {
        return Layer::default();
    };
    // A merge writes no byte and no row its inputs do not hold.
    let rows = layers.iter().map(|layer| layer.rows.len()).sum();
    let bytes = layers.iter().map(|layer| layer.bytes.len()).sum();
    let mut out = Layer::with_capacity(rows, bytes);
    // Each row as its head, layer and index: most comparisons read no row.
    let mut run = Vec::with_capacity(rows - floor.rows.len());
    for (i, layer) in above.iter().enumerate() {
        let rows = layer.rows.iter().enumerate();
        run.extend(rows.map(|(r, row)| (row.head, i as u32, r as u32)));
    }
    let row = |&(_, i, r): &(u64, u32, u32)| {
        (
            &above[i as usize].rows[r as usize],
            &above[i as usize].bytes[..],
        )
    };
    // Tied heads are mostly one key in several layers.
    sort_by_pos(
        &mut run,
        &mut Vec::new(),
        |e| e.0,
        |a, b| by_pos(row(a), row(b)),
    );
    let is_dropped = |window| dropped.iter().any(|&(w, _)| w == window);
    // Floor rows go through unless their window was dropped.
    let copy = |out: &mut Layer, run: Range<usize>| match dropped {
        [] => out.copy_run(floor, run),
        _ => run
            .filter(|&i| !is_dropped(floor.rows[i].window))
            .for_each(|i| out.copy_run(floor, i..i + 1)),
    };
    let (mut at, mut next, mut changes) = (0, 0, Vec::new());
    let on_floor = |at: usize| (&floor.rows[at], &floor.bytes[..]);
    while next < run.len() {
        let (newest, first) = (row(&run[next]), next);
        next += 1;
        while run
            .get(next)
            .is_some_and(|e| e.0 == newest.0.head && by_pos(row(e), newest).is_eq())
        {
            next += 1;
        }
        let untouched = at;
        while at < floor.rows.len() && by_pos(on_floor(at), newest).is_lt() {
            at += 1;
        }
        copy(&mut out, untouched..at);
        let below = (at < floor.rows.len() && by_pos(on_floor(at), newest).is_eq()).then_some(at);
        at += usize::from(below.is_some());
        let (kind, at_pos) = (newest.0.kind, newest.0.pos(newest.1));
        let dropped_here = is_dropped(at_pos.window);
        if kind != Kind::Append && !dropped_here {
            // The newest change hides the rest: its row goes through.
            if !(live && kind == Kind::Tombstone) {
                let (i, r) = (run[first].1 as usize, run[first].2 as usize);
                out.copy_run(above[i], r..r + 1);
            }
            continue;
        }
        changes.clear();
        changes.extend(run[first..next].iter().map(|e| {
            let (row, bytes) = row(e);
            row.change(bytes)
        }));
        changes.extend(below.map(|at| floor.rows[at].change(&floor.bytes)));
        if dropped_here {
            changes.truncate(usize::from(run[first].1 == 0));
        }
        out.push_collapsed(at_pos, changes.iter().copied(), live, UNKNOWN);
    }
    copy(&mut out, at..floor.rows.len());
    out.finish()
}

/// What a pair held before a call: the [`ViewValue::memory_size`] of its
/// value (`Some(None)`: nothing), known from a take's or an update's
/// answer. `None`: not known, [`StateView::apply`] looks it up.
pub(super) type Held = Option<Option<usize>>;

/// [`Held`] as a log row keeps it: a size, or one of two marks (a size
/// too large to keep is looked up instead).
const UNKNOWN: u32 = u32::MAX;
const NOTHING: u32 = u32::MAX - 1;

fn pack(held: Held) -> u32 {
    let size = |size| u32::try_from(size).ok().filter(|&s| s < NOTHING);
    held.map_or(UNKNOWN, |held| {
        held.map_or(Some(NOTHING), size).unwrap_or(UNKNOWN)
    })
}

fn unpack(held: u32) -> Held {
    (held != UNKNOWN).then_some((held != NOTHING).then_some(held as usize))
}

/// A log is collapsed in place once it holds this many rows and more
/// than the view has entries.
const LOG_FLOOR: usize = 4_096;

/// The changes one epoch made to a store: one row per call, in call
/// order, over one arena. Publishing sorts and collapses it per pair;
/// its buffers then serve the next epoch.
///
/// Dropped windows apply first: a window drop removes every entry of
/// that window the view held *before* this delta, then the pair changes
/// go on top. A drop takes its place in the log: one recorded after a
/// pair change of the same window removes that change too.
#[derive(Debug, Default)]
pub(super) struct ViewDelta {
    /// One row per pair change, in call order, each with what its pair
    /// held before it.
    log: Layer,
    /// Each dropped window with the rows logged before its last drop.
    dropped: Vec<(WindowId, usize)>,
    /// Rows past which the log is collapsed in place: the view's entries
    /// when last published, or twice what the last collapse left.
    limit: usize,
    /// The buffers an in-place collapse writes into, and the rows'
    /// order during a collapse: kept, so that neither allocates again.
    spare: Layer,
    order: Vec<(u64, usize)>,
    scratch: Vec<(u64, usize)>,
}

impl ViewDelta {
    /// An empty log for a view of `entries` entries.
    pub(super) fn bounded(entries: usize) -> Self {
        let (limit, delta) = (entries, ViewDelta::default());
        ViewDelta { limit, ..delta }
    }

    fn record(&mut self, key: &[u8], window: WindowId, kind: Kind, value: &[u8], held: Held) {
        let (pos, log) = (Pos::new(key, window), &mut self.log);
        // A whole value or a take right after a change of the same pair,
        // with no drop between, replaces that row and keeps its `held`.
        // (The last drop is the latest: drops are logged in row order.)
        let undropped = self.dropped.last().is_none_or(|d| d.1 < log.rows.len());
        let same = |last: &&mut Row| {
            last.head == pos.head && last.window == window && last.key.of(&log.bytes) == key
        };
        if let Some(last) = log.rows.last_mut().filter(same) {
            if kind != Kind::Append && undropped {
                // Its value is the arena's tail: the new one is written over it.
                log.bytes.truncate(last.value.0 as usize);
                let value = Span::write(&mut log.bytes, |arena| arena.extend_from_slice(value));
                (last.kind, last.value) = (kind, value);
                return;
            }
        }
        if log.rows.len() >= self.limit.max(LOG_FLOOR) {
            self.collapse_in_place();
        }
        self.log.push(pos, kind, pack(held), |arena| match kind {
            Kind::Append => frame(arena, value),
            _ => arena.extend_from_slice(value),
        });
    }

    /// `put_aggregate` (`held` unknown) or `update_aggregate` (`held`:
    /// the size of the aggregate the store lent the update): the pair
    /// now holds exactly `aggregate`.
    pub(super) fn put_aggregate(
        &mut self,
        key: &[u8],
        window: WindowId,
        held: Held,
        aggregate: &[u8],
    ) {
        self.record(key, window, Kind::Aggregate, aggregate, held);
    }

    /// `append`: `value` joins the end of the pair's list.
    pub(super) fn append(&mut self, key: &[u8], window: WindowId, value: &[u8]) {
        self.record(key, window, Kind::Append, value, None);
    }

    /// `take_values` / `take_aggregate`: the pair is gone. `taken` is
    /// the [`ViewValue::memory_size`] of what the take returned, `None`
    /// if it found nothing — what the pair held, so the view need not
    /// look it up to keep its entry and byte counts.
    pub(super) fn remove(&mut self, key: &[u8], window: WindowId, taken: Option<usize>) {
        self.record(key, window, Kind::Tombstone, &[], Some(taken));
    }

    /// First `get_window_chunk` of `window`: every pair of it is gone.
    pub(super) fn drop_window(&mut self, window: WindowId) {
        self.dropped.retain(|(dropped, _)| *dropped != window);
        self.dropped.push((window, self.log.rows.len()));
    }

    /// Heap bytes the log holds, spare capacity included: its buffers
    /// outlive each publish to serve the next epoch.
    pub(crate) fn memory_bytes(&self) -> usize {
        let layer = |l: &Layer| l.bytes.capacity() + l.rows.capacity() * size_of::<Row>();
        layer(&self.log)
            + layer(&self.spare)
            + (self.order.capacity() + self.scratch.capacity()) * size_of::<(u64, usize)>()
            + self.dropped.capacity() * size_of::<(WindowId, usize)>()
    }

    /// Orders the log by pair and collapses each pair's rows into `out`
    /// (empty) as one change: the last whole value or take wins, the
    /// appends after it concatenate, and the pair keeps what its first
    /// row says it held. Leaves out rows a later drop removed, and the
    /// log empty.
    ///
    /// The operator sorts each batch by key, so a log is a few sorted
    /// runs, and most pairs change once an epoch: such a pair's row is
    /// copied as it is.
    fn collapse_into(&mut self, out: &mut Layer) {
        let ViewDelta {
            log,
            dropped,
            order,
            scratch,
            ..
        } = self;
        let (rows, bytes) = (&log.rows, &log.bytes[..]);
        let kept = |i: usize| dropped.iter().all(|&(w, n)| w != rows[i].window || i >= n);
        order.clear();
        order.reserve(rows.len());
        order.extend(
            (0..rows.len())
                .filter(|&i| kept(i))
                .map(|i| (rows[i].head, i)),
        );
        let row = |&(_, i): &(u64, usize)| (&rows[i], bytes);
        // By position, then call order.
        sort_by_pos(order, scratch, |e| e.0, |a, b| by_pos(row(a), row(b)));
        out.rows.reserve(order.len());
        out.bytes.reserve(bytes.len());
        for pair in order.chunk_by(|a, b| a.0 == b.0 && by_pos(row(a), row(b)).is_eq()) {
            let first = &rows[pair[0].1];
            match pair {
                [(_, i)] => out.copy_run(log, *i..*i + 1),
                _ => {
                    let changes = pair.iter().rev().map(|&(_, i)| rows[i].change(bytes));
                    out.push_collapsed(first.pos(bytes), changes, false, first.held);
                }
            }
        }
        log.bytes.clear();
        log.rows.clear();
    }

    /// Collapses the log into one row per pair where it stands, so that
    /// an epoch's log grows with the pairs it changes, not its calls.
    fn collapse_in_place(&mut self) {
        let mut out = std::mem::take(&mut self.spare);
        self.collapse_into(&mut out);
        self.spare = std::mem::replace(&mut self.log, out);
        // Every row left was logged after the drops it outlived.
        self.dropped.iter_mut().for_each(|drop| drop.1 = 0);
        self.limit = self.limit.max(2 * self.log.rows.len());
    }
}

/// An immutable point-in-time snapshot of one store's live state.
///
/// Cloning a view clones `Arc`s, never entries: the clone and the
/// original share every layer, and changes put on one never change what
/// the other reads.
#[derive(Clone, Debug, Default)]
pub struct StateView {
    /// Access pattern of the source store, if known.
    pub pattern: Option<Pattern>,
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
    /// Every live entry as of the last fold, as whole values.
    base: Arc<Layer>,
    /// What changed since, oldest first, each with how many rounds of
    /// merging made it; levels never increase along the chain.
    deltas: Vec<(u32, Arc<Layer>)>,
    /// Live `(key, window)` entries through all layers.
    len: usize,
    /// Footprint of those entries (see [`memory_bytes`](Self::memory_bytes)).
    bytes: usize,
}

impl StateView {
    /// An empty view, useful as a published placeholder before the first
    /// watermark.
    pub fn empty(pattern: Option<Pattern>) -> Self {
        StateView {
            pattern,
            watermark: MIN_TIMESTAMP,
            ..StateView::default()
        }
    }

    /// A view holding exactly `entries` — what a store's `read_view`
    /// returns.
    pub fn from_entries(
        pattern: Option<Pattern>,
        entries: BTreeMap<(Vec<u8>, WindowId), ViewValue>,
    ) -> Self {
        // Every entry is a pair of its own: nothing to collapse early.
        let mut log = ViewDelta::bounded(usize::MAX);
        let mut list = Vec::new();
        for ((key, window), value) in &entries {
            let (kind, value) = match value {
                ViewValue::Aggregate(aggregate) => (Kind::Aggregate, &aggregate[..]),
                ViewValue::Values(values) => {
                    list.clear();
                    values.iter().for_each(|value| frame(&mut list, value));
                    (Kind::Values, &list[..])
                }
            };
            log.record(key, *window, kind, value, None);
        }
        // Onto nothing, the log folds into the base.
        let mut view = StateView::empty(pattern);
        view.apply(&mut log);
        view
    }

    /// Every live entry, resolved through all layers into one owned
    /// map: the form `read_view` builds, for comparing views and for
    /// callers that need the state rather than a lookup.
    pub fn to_entries(&self) -> BTreeMap<(Vec<u8>, WindowId), ViewValue> {
        // Every window ends after the first instant and overlaps all time.
        let all = self.scan_filtered(&[], MIN_TIMESTAMP, MAX_TIMESTAMP, usize::MAX);
        let owned = all
            .into_iter()
            .map(|(key, w, value)| ((key.to_vec(), w), value));
        owned.collect()
    }

    /// The layers, newest first.
    fn layers(&self) -> impl Iterator<Item = &Layer> + Clone {
        let deltas = self.deltas.iter().rev().map(|(_, delta)| &**delta);
        deltas.chain(std::iter::once(&*self.base))
    }

    /// What the layers say about the pair at `pos`, newest first.
    fn changes_at<'a>(&'a self, pos: Pos<'a>) -> impl Iterator<Item = Change<'a>> {
        self.layers().filter_map(move |layer| layer.find(pos))
    }

    /// Looks up `key` in an exact `window`.
    pub fn get(&self, key: &[u8], window: WindowId) -> Option<ViewValue> {
        live_value(self.changes_at(Pos::new(key, window)))
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
                .filter_map(|layer| layer.latest_before(key, before))
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
        let from = Pos::new(prefix, WindowId::new(MIN_TIMESTAMP, MIN_TIMESTAMP));
        let mut merge = Walk::new(self.layers().map(|l| (l, &l.rows[l.seek(from)..])));
        let (mut changes, mut out) = (Vec::new(), Vec::new());
        while out.len() < limit {
            let Some(pos) = merge.next(&mut changes) else {
                break;
            };
            if !pos.key.starts_with(prefix) {
                break;
            }
            // A window is half-open: one that ends at `range_start`
            // holds no instant of the range.
            if pos.window.start > range_end || pos.window.end <= range_start {
                continue;
            }
            if let Some(value) = live_value(changes.iter().copied()) {
                out.push((pos.key, pos.window, value));
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

    /// Puts the changes `delta` logged on top of the view and returns
    /// how many entries that materialised (the delta's own, plus
    /// whatever a merge or fold rewrote). The log is left empty, its
    /// buffers kept for the next epoch.
    ///
    /// The chain is kept short by two rules. Every `MERGE_FANOUT`
    /// deltas of one level merge into one delta of the next (unless a
    /// fold is about to make that moot), so the chain grows with the
    /// logarithm of the publishes since the last fold. And the chain is
    /// **folded** into a fresh base when the deltas together hold as
    /// many entries as the base (rewriting the base then costs no more
    /// than the changes that forced it — amortised O(changed) per
    /// epoch), when it would outgrow `MAX_CHAIN`, or when the delta
    /// drops a window: a window drop names a window's worth of entries
    /// at once, and counting what it removed is the same pass as
    /// removing it.
    ///
    /// Views cloned before the call keep reading exactly what they read
    /// before it.
    pub(super) fn apply(&mut self, delta: &mut ViewDelta) -> usize {
        let mut top = Layer::default();
        delta.collapse_into(&mut top);
        let dropped = std::mem::take(&mut delta.dropped);
        let written = self.stack(top.finish(), &dropped);
        delta.limit = self.len;
        written
    }

    /// Puts the collapsed `top` and the `dropped` windows on the view.
    fn stack(&mut self, top: Layer, dropped: &[(WindowId, usize)]) -> usize {
        if top.rows.is_empty() && dropped.is_empty() {
            return 0;
        }
        let changed = top.rows.len();
        let in_deltas = changed + self.deltas.iter().map(|(_, d)| d.rows.len()).sum::<usize>();
        let base = self.base.rows.len();
        if !dropped.is_empty() || in_deltas >= base || self.deltas.len() >= MAX_CHAIN {
            return changed + self.fold(&top, dropped);
        }
        self.account(&top);
        self.deltas.push((0, Arc::new(top)));
        // At this epoch's rate the size rule folds within MERGE_FANOUT
        // epochs, and would only rewrite what a merge wrote now.
        if in_deltas + changed * MERGE_FANOUT >= base {
            return changed;
        }
        changed + self.merge_levels()
    }

    /// Adjusts `len` and `bytes` for `top` going on top of the layers;
    /// each row says what its pair held, where the log knew it.
    fn account(&mut self, top: &Layer) {
        for row in &top.rows {
            let (pos, own) = (row.pos(&top.bytes), std::iter::once(row.change(&top.bytes)));
            let (before, after) = match unpack(row.held) {
                // First touched by a take: a tombstone or a whole value.
                Some(before) => (before, live_size(own)),
                None => (
                    live_size(self.changes_at(pos)),
                    live_size(own.chain(self.changes_at(pos))),
                ),
            };
            let size = |s| footprint(pos.key.len(), s);
            self.len = self.len + usize::from(after.is_some()) - usize::from(before.is_some());
            self.bytes = self.bytes + after.map_or(0, size) - before.map_or(0, size);
        }
    }

    /// Merges the newest deltas while [`MERGE_FANOUT`] of them share a
    /// level; returns the entries written.
    fn merge_levels(&mut self) -> usize {
        let mut written = 0;
        while let Some(&(level, _)) = self.deltas.last() {
            let run = self.deltas.iter().rev().take_while(|(l, _)| *l == level);
            let oldest = self.deltas.len() - run.count();
            if self.deltas.len() - oldest < MERGE_FANOUT {
                break;
            }
            // Tombstones stay: they still hide the layers below.
            let run: Vec<_> = self.deltas[oldest..]
                .iter()
                .rev()
                .map(|(_, d)| &**d)
                .collect();
            let delta = merged(&run, false, &[]);
            written += delta.rows.len();
            self.deltas.truncate(oldest);
            self.deltas.push((level + 1, Arc::new(delta)));
        }
        written
    }

    /// Rebuilds the base from `top` over every current layer, with the
    /// `dropped` windows removed from below `top`; returns the new
    /// base's size.
    fn fold(&mut self, top: &Layer, dropped: &[(WindowId, usize)]) -> usize {
        let layers: Vec<_> = std::iter::once(top).chain(self.layers()).collect();
        let base = merged(&layers, true, dropped);
        let sizes = base
            .rows
            .iter()
            .map(|row| (row.key.1, row.change(&base.bytes).size()));
        self.bytes = sizes
            .map(|(key, value)| footprint(key as usize, value))
            .sum();
        self.len = base.rows.len();
        self.base = Arc::new(base);
        self.deltas.clear();
        self.len
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
            Some(Pattern::Rmw),
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
    fn a_scan_skips_a_window_that_ends_where_the_range_starts() {
        // Windows are half-open and a scan's range is inclusive:
        // `[0, 10)` holds no instant of `[10, 20]`, `[20, 30)` holds 20.
        let view = view_with(vec![
            (b"a", w(0, 10), ViewValue::Values(vec![vec![1]])),
            (b"b", w(10, 20), ViewValue::Values(vec![vec![2]])),
            (b"c", w(20, 30), ViewValue::Values(vec![vec![3]])),
        ]);
        let hits = view.scan_filtered(&[], 10, 20, 100);
        let keys: Vec<&[u8]> = hits.iter().map(|(key, _, _)| *key).collect();
        assert_eq!(keys, [&b"b"[..], &b"c"[..]]);
        assert_eq!(view.scan_filtered(&[], 9, 9, 100).len(), 1);
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
        view.apply(&mut delta);
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
                delta.put_aggregate(&key, window, None, &[byte; 3]);
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

    /// Seeds of the random-epoch model check: 24 unless
    /// `PROPTEST_CASES` says otherwise (CI's crash-matrix job runs 256).
    fn seeds() -> u64 {
        let cases = std::env::var("PROPTEST_CASES").ok();
        cases.and_then(|n| n.parse().ok()).unwrap_or(24)
    }

    #[test]
    fn layered_reads_match_a_rebuilt_view_under_random_deltas() {
        for seed in 0..seeds() {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few keys: deltas soon outweigh the base and fold. Many
            // keys: small deltas stack and merge level by level.
            let keys = if seed.is_multiple_of(2) { 12 } else { 400 };
            let mut model = Model::new();
            let mut seeded = ViewDelta::default();
            for _ in 0..keys * 3 {
                random_op(&mut rng, keys, &mut model, &mut seeded);
            }
            let mut view = StateView::empty(None);
            view.apply(&mut seeded);
            let (mut merged, mut folded, mut longest) = (false, false, 0);
            for epoch in 0..160 {
                let mut delta = ViewDelta::default();
                for _ in 0..rng.gen_range(0..6usize) {
                    random_op(&mut rng, keys, &mut model, &mut delta);
                }
                let before = view.chain_len();
                view.apply(&mut delta);
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
        let mut view = StateView::empty(None);
        view.apply(&mut delta);
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
            view.apply(&mut delta);
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

    /// Runs `epochs` epochs over a view seeded with `keys` keys, each
    /// epoch's calls made by `calls` on the model and the delta, and
    /// checks every epoch against a view rebuilt from the model. Returns
    /// the longest chain seen and whether a fold happened.
    fn run_epochs(
        seed: u64,
        keys: u32,
        epochs: usize,
        mut calls: impl FnMut(&mut StdRng, &mut Model, &mut ViewDelta),
    ) -> (usize, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut model, mut seeded) = (Model::new(), ViewDelta::default());
        for k in 0..keys {
            model.insert((key(k), w(0, 10)), ViewValue::Aggregate(vec![1; 3]));
            seeded.put_aggregate(&key(k), w(0, 10), None, &[1; 3]);
        }
        let mut view = StateView::empty(None);
        view.apply(&mut seeded);
        let (mut longest, mut folded) = (0, false);
        for epoch in 0..epochs {
            let mut delta = ViewDelta::default();
            calls(&mut rng, &mut model, &mut delta);
            let before = view.chain_len();
            view.apply(&mut delta);
            folded |= before > 0 && view.chain_len() == 0;
            longest = longest.max(before);
            let ctx = format!("seed {seed} epoch {epoch}");
            assert_reads_as(&view, &model, &mut rng, keys, &ctx);
        }
        (longest, folded)
    }

    #[test]
    fn epochs_of_key_sorted_runs_read_as_a_rebuilt_view() {
        // As an operator that sorts each batch by key calls the store:
        // a few runs per epoch, each in key order.
        for seed in 0..seeds() {
            run_epochs(seed, 200, 40, |rng, model, delta| {
                for _ in 0..rng.gen_range(1..4) {
                    let mut run: Vec<u32> = (0..rng.gen_range(1..40))
                        .map(|_| rng.gen_range(0..200))
                        .collect();
                    run.sort_unstable();
                    for k in run {
                        let byte = rng.gen_range(0..=255u8);
                        let prior =
                            model.insert((key(k), w(0, 10)), ViewValue::Aggregate(vec![byte; 3]));
                        let held = Some(prior.map(|v| v.memory_size()));
                        delta.put_aggregate(&key(k), w(0, 10), held, &[byte; 3]);
                    }
                }
            });
        }
    }

    #[test]
    fn a_long_chain_of_small_deltas_folds_into_the_same_reads() {
        // Few changes per epoch over many keys: the size rule lets a
        // dozen level-0 deltas pile up before the fold merges them.
        for seed in 0..seeds() {
            let (longest, folded) = run_epochs(seed, 400, 60, |rng, model, delta| {
                for _ in 0..rng.gen_range(25..40) {
                    let (key, window) = (key(rng.gen_range(0..400)), w(0, 10));
                    let byte = rng.gen_range(0..=255u8);
                    if byte < 16 {
                        let taken = model.remove(&(key.clone(), window));
                        delta.remove(&key, window, taken.map(|v| v.memory_size()));
                    } else {
                        let value = ViewValue::Aggregate(vec![byte; 2]);
                        let prior = model.insert((key.clone(), window), value);
                        let prior = prior.map(|v| v.memory_size());
                        delta.put_aggregate(&key, window, Some(prior), &[byte; 2]);
                    }
                }
            });
            assert!(longest >= 12, "seed {seed}: the chain grew to {longest}");
            assert!(folded, "seed {seed}: no fold happened");
        }
    }

    #[test]
    fn a_pair_changed_in_several_layers_with_takes_between_reads_as_rebuilt() {
        // Four keys changed every epoch, in turns a put, an append, a take:
        // each pair's changes and tombstones sit in many layers at once.
        for seed in 0..seeds() {
            let mut turn = 0u32;
            run_epochs(seed, 300, 40, |rng, model, delta| {
                for k in 0..4 {
                    let (key, window) = (key(k * 7), w(10, 20));
                    let byte = rng.gen_range(0..=255u8);
                    match (turn + k) % 3 {
                        0 => {
                            model.insert((key.clone(), window), ViewValue::Aggregate(vec![byte]));
                            delta.put_aggregate(&key, window, None, &[byte]);
                        }
                        1 => {
                            let taken = model.remove(&(key.clone(), window));
                            delta.remove(&key, window, taken.map(|v| v.memory_size()));
                        }
                        _ => {
                            match model
                                .entry((key.clone(), window))
                                .or_insert(ViewValue::Values(vec![]))
                            {
                                ViewValue::Values(values) => values.push(vec![byte]),
                                whole => *whole = ViewValue::Values(vec![vec![byte]]),
                            }
                            delta.append(&key, window, &[byte]);
                        }
                    }
                }
                turn += 1;
            });
        }
    }

    #[test]
    fn a_window_dropped_and_appended_again_in_one_epoch_reads_as_rebuilt() {
        for seed in 0..seeds() {
            run_epochs(seed, 50, 30, |rng, model, delta| {
                let window = w(20, 30);
                for k in 0..rng.gen_range(0..8) {
                    model
                        .entry((key(k), window))
                        .or_insert(ViewValue::Values(vec![]));
                    if let Some(ViewValue::Values(values)) = model.get_mut(&(key(k), window)) {
                        values.push(vec![1]);
                    }
                    delta.append(&key(k), window, &[1]);
                }
                model.retain(|(_, win), _| *win != window);
                delta.drop_window(window);
                for k in 0..rng.gen_range(0..8) {
                    let values = vec![vec![2], vec![k as u8]];
                    model.insert((key(k), window), ViewValue::Values(values));
                    delta.append(&key(k), window, &[2]);
                    delta.append(&key(k), window, &[k as u8]);
                }
            });
        }
    }

    #[test]
    fn a_log_past_its_bound_collapses_in_place_and_reads_the_same() {
        // Far more calls in one epoch than the view has entries: the log
        // collapses where it stands, drops and first-held sizes intact,
        // and stays within a few times the floor.
        for seed in 0..seeds().min(32) {
            let mut most = 0;
            run_epochs(seed, 60, 3, |rng, model, delta| {
                for _ in 0..3 * LOG_FLOOR {
                    random_op(rng, 60, model, delta);
                    most = most.max(delta.log.rows.len());
                }
            });
            assert!(most <= LOG_FLOOR, "seed {seed}: the log held {most} rows");
        }
    }

    /// Appends `value` to `key`'s list in `window`, in the model and the
    /// log.
    fn append_to(
        model: &mut Model,
        delta: &mut ViewDelta,
        key: &[u8],
        window: WindowId,
        value: u8,
    ) {
        let entry = model.entry((key.to_vec(), window));
        match entry.or_insert(ViewValue::Values(vec![])) {
            ViewValue::Values(values) => values.push(vec![value]),
            whole => *whole = ViewValue::Values(vec![vec![value]]),
        }
        delta.append(key, window, &[value]);
    }

    // Paced publication: one log spans several watermarks, so what a
    // pair or a window went through between two publishes is longer
    // than one watermark's worth. Each test below runs `k` simulated
    // watermarks per epoch and checks every publish against the model.

    #[test]
    fn a_window_dropped_at_one_watermark_and_appended_at_a_later_one_reads_as_rebuilt() {
        for seed in 0..seeds() {
            run_epochs(seed, 40, 30, |rng, model, delta| {
                let (fired, open) = (w(20, 30), w(30, 40));
                let drop_at = rng.gen_range(0..3);
                for watermark in 0..rng.gen_range(3..6) {
                    for _ in 0..rng.gen_range(0..6) {
                        let k = key(rng.gen_range(0..40));
                        let value = rng.gen_range(0..=255u8);
                        append_to(model, delta, &k, fired, value);
                        append_to(model, delta, &k, open, value);
                    }
                    // The window fires (its drain drops it) at one
                    // watermark, and now and then at a second one too.
                    if watermark == drop_at || (watermark > drop_at && rng.gen_bool(0.3)) {
                        model.retain(|(_, win), _| *win != fired);
                        delta.drop_window(fired);
                    }
                }
            });
        }
    }

    #[test]
    fn a_take_then_put_of_one_pair_across_watermarks_reads_as_rebuilt() {
        for seed in 0..seeds() {
            run_epochs(seed, 200, 30, |rng, model, delta| {
                let window = w(0, 10);
                // Pairs taken at one watermark, put back at a later one.
                let mut taken: Vec<u32> = Vec::new();
                for _ in 0..rng.gen_range(2..6) {
                    for k in taken.drain(..) {
                        let byte = rng.gen_range(0..=255u8);
                        model.insert((key(k), window), ViewValue::Aggregate(vec![byte; 4]));
                        delta.put_aggregate(&key(k), window, None, &[byte; 4]);
                    }
                    for _ in 0..rng.gen_range(5..30) {
                        let k = rng.gen_range(0..200);
                        let byte = rng.gen_range(0..=255u8);
                        if byte < 48 {
                            let held = model.remove(&(key(k), window));
                            delta.remove(&key(k), window, held.map(|v| v.memory_size()));
                            taken.push(k);
                        } else {
                            let value = ViewValue::Aggregate(vec![byte; 2]);
                            let prior = model.insert((key(k), window), value);
                            let prior = prior.map(|v| v.memory_size());
                            delta.put_aggregate(&key(k), window, Some(prior), &[byte; 2]);
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn an_in_place_collapse_in_the_middle_of_a_paced_epoch_reads_as_rebuilt() {
        // Three watermarks of two thirds of the log's bound each, every
        // one ending in a window's drop and appends to it again: the log
        // collapses in place between the first watermark and the last,
        // with drops logged on both sides of it.
        for seed in 0..seeds().min(32) {
            let mut collapsed_at = Vec::new();
            run_epochs(seed, 60, 3, |rng, model, delta| {
                for watermark in 0..3 {
                    for _ in 0..2 * LOG_FLOOR / 3 {
                        let before = delta.log.rows.len();
                        random_op(rng, 60, model, delta);
                        if delta.log.rows.len() < before {
                            collapsed_at.push(watermark);
                        }
                    }
                    let fired = w(watermark * 10, watermark * 10 + 10);
                    model.retain(|(_, win), _| *win != fired);
                    delta.drop_window(fired);
                    for k in 0..rng.gen_range(0..8) {
                        append_to(model, delta, &key(k), fired, 9);
                    }
                }
            });
            assert!(
                collapsed_at.iter().any(|&at| at > 0 && at < 2),
                "seed {seed}: collapses at watermarks {collapsed_at:?}"
            );
        }
    }

    #[test]
    fn an_empty_delta_adds_no_layer() {
        let mut view = view_with(vec![(b"a", w(0, 10), ViewValue::Aggregate(vec![1]))]);
        assert_eq!(view.apply(&mut ViewDelta::default()), 0);
        assert_eq!(view.chain_len(), 0);
        assert_eq!(view.len(), 1);
    }
}
