//! An executable specification of the eight NEXMark queries: each
//! query's answer computed straight from the event list, by definition,
//! with sorted vectors and `BTreeMap`s — no engine, no store, no timers.
//!
//! What it defines:
//!
//! - **Assignment.** A periodic window is `[offset + k·slide,
//!   offset + k·slide + size)` and holds every timestamp inside it
//!   (fixed windows: `slide = size`, `offset = 0`). A session is a
//!   maximal run of a key's tuples, in timestamp order, in which each
//!   tuple lies at most `gap` after the latest one before it: a tuple at
//!   `ts ≤ max_ts + gap` joins (touching counts), and the session covers
//!   `[min_ts, max_ts + gap)`. The global window covers all of event
//!   time. A window's result carries timestamp `end − 1`
//!   (`MAX_TIMESTAMP − 1` for the global window). A count window of
//!   `size` takes a key's tuples in arrival order, `size` at a time: it
//!   closes on the key's `size`-th tuple since the last one closed and
//!   its result carries that tuple's timestamp; a key's last, unfilled
//!   window emits nothing.
//! - **The late rule.** The source puts a watermark after every
//!   `interval`-th tuple, at the largest timestamp so far minus `slack`
//!   (`MIN_TIMESTAMP` before the first). A tuple is late — dropped at the
//!   first window stage — when its timestamp is below the last watermark
//!   before it. A later stage drops nothing: a window stage stamps each
//!   result `end − 1` of a window the previous watermark had not closed.
//! - **The pre-checkpoint rule.** A barrier follows tuple number
//!   `barrier_after`, ahead of a watermark that shares its offset. An
//!   output is pre-checkpoint when its window was due by the last
//!   watermark before the barrier: a periodic or global window once the
//!   watermark reaches its end, a session once the watermark is past its
//!   end (a tuple at exactly the end would still join it). A count
//!   window is due as its closing tuple arrives: before the barrier when
//!   that tuple is.
//!
//! - **The interval join.** A left and a right tuple of one key join
//!   when `r.ts ∈ [l.ts + lower, l.ts + upper]`, and the pair emits the
//!   combined payloads at the later of its two timestamps. Its
//!   pre-checkpoint rule: both inputs came before the barrier.
//!
//! It takes from the program only the tuple vocabulary, the generator's
//! events and the queries' names and parameters.
#![allow(dead_code)]

use std::collections::BTreeMap;

use flowkv_common::types::{Timestamp, Tuple, MAX_TIMESTAMP, MIN_TIMESTAMP};
use flowkv_nexmark::{Event, QueryId, QueryParams};

use super::SortedOutputs;

/// One tuple: key, value, timestamp.
pub type Triple = (Vec<u8>, Vec<u8>, Timestamp);

/// Where the source puts its watermarks and its barrier.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Tuples between watermarks.
    pub interval: u64,
    /// Subtracted from the largest timestamp seen to make a watermark.
    pub slack: i64,
    /// The barrier follows this many tuples.
    pub barrier_after: Option<u64>,
}

impl Schedule {
    /// The last watermark before each tuple of a stream with these
    /// timestamps.
    fn watermarks_before(&self, timestamps: &[Timestamp]) -> Vec<Timestamp> {
        let (mut watermark, mut max_ts) = (MIN_TIMESTAMP, MIN_TIMESTAMP);
        (1..)
            .zip(timestamps)
            .map(|(count, &ts)| {
                let before = watermark;
                max_ts = max_ts.max(ts);
                if count % self.interval == 0 {
                    watermark = max_ts.saturating_sub(self.slack);
                }
                before
            })
            .collect()
    }
}

/// A window function, by definition.
#[derive(Clone, Copy, Debug)]
pub enum Windows {
    /// `[offset + k·slide, offset + k·slide + size)` for every integer `k`.
    Periodic { size: i64, slide: i64, offset: i64 },
    /// Per-key runs of tuples at most `gap` apart.
    Session { gap: i64 },
    /// One window over all of event time.
    Global,
    /// Per-key runs of `size` tuples in arrival order.
    Count { size: usize },
}

impl Windows {
    /// Fixed windows of `size`.
    pub fn fixed(size: i64) -> Windows {
        Windows::Periodic {
            size,
            slide: size,
            offset: 0,
        }
    }
}

/// What a window emits for one key from its values; `None` emits
/// nothing.
pub type WindowFn = fn(key: &[u8], values: &[&[u8]]) -> Option<Vec<u8>>;

/// A query's answer.
#[derive(Debug)]
pub struct Answer {
    /// Every output, sorted.
    pub outputs: SortedOutputs,
    /// The outputs whose window was due by the last watermark before the
    /// barrier, sorted.
    pub pre_checkpoint: SortedOutputs,
    /// The first window stage's inputs the late rule drops, sorted.
    pub late: SortedOutputs,
}

/// A key and one of its windows' bounds.
type KeyWindow = (Vec<u8>, Timestamp, Timestamp);

/// When a window stage's result is due.
#[derive(Clone, Copy, Debug)]
enum Due {
    /// Once the watermark reaches this: a window's end, one past it for
    /// a session.
    Watermark(Timestamp),
    /// As the tuple at this position of the source stream arrives: a
    /// count window's closing tuple.
    Arrival(usize),
}

/// One window stage's result and when it is due.
type Closing = (Triple, Due);

/// `query`'s answer over `events` fed under `schedule`.
pub fn answer(query: QueryId, params: QueryParams, events: &[Event], schedule: Schedule) -> Answer {
    let sliding = Windows::Periodic {
        size: params.window_ms,
        slide: params.slide_ms,
        offset: 0,
    };
    let session = Windows::Session {
        gap: params.session_gap_ms,
    };
    let (windows, f): (Windows, WindowFn) = match query {
        QueryId::Q5 | QueryId::Q5Append => (sliding, count),
        QueryId::Q7 => (Windows::fixed(params.window_ms), max),
        QueryId::Q7Session => (session, max),
        QueryId::Q8 => (Windows::fixed(params.window_ms), person_with_auction),
        QueryId::Q11 => (session, count),
        QueryId::Q11Median => (session, median),
        QueryId::Q12 => (Windows::Global, count),
    };
    let first = windowed(events, |e| first_stage(query, e), schedule, windows, f);
    if !matches!(query, QueryId::Q5 | QueryId::Q5Append) {
        return first;
    }
    // The second stage: every count onto one key, the largest per
    // sliding window.
    let all = first.outputs.into_iter();
    let all = all
        .map(|(_, count, ts)| (b"all".to_vec(), count, ts))
        .collect();
    let closing = window_stage(all, sliding, max);
    Answer {
        outputs: closed_by(&closing, MAX_TIMESTAMP, usize::MAX),
        pre_checkpoint: pre_checkpoint(&closing, events, schedule),
        late: first.late,
    }
}

/// One window stage over a source stream: `stage` is what the stateless
/// stages before it make of a source event, if anything.
pub fn windowed(
    events: &[Event],
    stage: impl Fn(&Event) -> Option<Triple>,
    schedule: Schedule,
    windows: Windows,
    f: WindowFn,
) -> Answer {
    let timestamps: Vec<Timestamp> = events.iter().map(Event::timestamp).collect();
    let watermarks = schedule.watermarks_before(&timestamps);
    let (mut late, mut on_time) = (Vec::new(), Vec::new());
    for (at, (event, watermark)) in events.iter().zip(watermarks).enumerate() {
        match stage(event) {
            Some(t) if t.2 < watermark => late.push(t),
            Some(t) => on_time.push((at, t)),
            None => {}
        }
    }
    let closing = match windows {
        Windows::Count { size } => count_stage(on_time, size, f),
        _ => window_stage(on_time.into_iter().map(|(_, t)| t).collect(), windows, f),
    };
    Answer {
        outputs: closed_by(&closing, MAX_TIMESTAMP, usize::MAX),
        pre_checkpoint: pre_checkpoint(&closing, events, schedule),
        late: sorted(late),
    }
}

/// The results due once the source's first `arrived` tuples have
/// arrived and the watermark is at `watermark`, sorted; the end of the
/// stream (`MAX_TIMESTAMP`, every tuple) makes every result due.
fn closed_by(closing: &[Closing], watermark: Timestamp, arrived: usize) -> SortedOutputs {
    let due = closing.iter().filter(|(_, due)| match *due {
        Due::Watermark(closes) => closes <= watermark,
        Due::Arrival(at) => at < arrived,
    });
    sorted(due.map(|(t, _)| t.clone()).collect())
}

/// The results the last watermark before the barrier closed; none
/// without a barrier.
fn pre_checkpoint(closing: &[Closing], events: &[Event], schedule: Schedule) -> SortedOutputs {
    let Some(after) = schedule.barrier_after.map(|n| n as usize) else {
        return Vec::new();
    };
    let timestamps: Vec<Timestamp> = events[..after].iter().map(Event::timestamp).collect();
    // The watermark at the barrier's own offset comes after it.
    closed_by(
        closing,
        schedule.watermarks_before(&timestamps)[after - 1],
        after,
    )
}

/// Count windows of `size` over `tuples`, each with its position in the
/// source stream: a key's tuples in that order, `size` at a time, the
/// last one's timestamp on the result.
fn count_stage(mut tuples: Vec<(usize, Triple)>, size: usize, f: WindowFn) -> Vec<Closing> {
    // The tuples come in arrival order, and a stable sort by key keeps
    // each key's in it.
    tuples.sort_by(|a, b| a.1 .0.cmp(&b.1 .0));
    let mut closing = Vec::new();
    for of_key in tuples.chunk_by(|a, b| a.1 .0 == b.1 .0) {
        for window in of_key.chunks_exact(size) {
            let values: Vec<&[u8]> = window.iter().map(|(_, t)| t.1.as_slice()).collect();
            let (at, (key, _, ts)) = window.last().expect("a full window");
            if let Some(value) = f(key, &values) {
                closing.push(((key.clone(), value, *ts), Due::Arrival(*at)));
            }
        }
    }
    closing
}

/// Groups `tuples` by key and window and applies `f` to each group.
fn window_stage(mut tuples: Vec<Triple>, windows: Windows, f: WindowFn) -> Vec<Closing> {
    // (key, start, end) → the window's values.
    let mut groups: BTreeMap<KeyWindow, Vec<Vec<u8>>> = BTreeMap::new();
    // A key's tuples in timestamp order: a session grows while the next
    // one lies within `gap` of its latest.
    tuples.sort_by(|a, b| (&a.0, a.2).cmp(&(&b.0, b.2)));
    let mut sessions: Vec<(KeyWindow, Vec<Vec<u8>>)> = Vec::new();
    for (key, value, ts) in tuples {
        match windows {
            Windows::Periodic {
                size,
                slide,
                offset,
            } => {
                let mut start = offset + (ts - offset).div_euclid(slide) * slide;
                while start + size > ts {
                    let window = (key.clone(), start, start + size);
                    groups.entry(window).or_default().push(value.clone());
                    start -= slide;
                }
            }
            Windows::Global => {
                let window = (key, MIN_TIMESTAMP, MAX_TIMESTAMP);
                groups.entry(window).or_default().push(value);
            }
            Windows::Session { gap } => match sessions.last_mut() {
                Some(((k, _, end), values)) if *k == key && ts <= *end => {
                    *end = ts + gap;
                    values.push(value);
                }
                _ => sessions.push(((key, ts, ts + gap), vec![value])),
            },
            Windows::Count { .. } => unreachable!("count windows close by arrival"),
        }
    }
    groups.extend(sessions);
    // A tuple at a session's end would still join it.
    let touching = i64::from(matches!(windows, Windows::Session { .. }));
    groups
        .into_iter()
        .filter_map(|((key, _, end), values)| {
            let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            let value = f(&key, &values)?;
            Some(((key, value, end - 1), Due::Watermark(end + touching)))
        })
        .collect()
}

/// What the stateless stages ahead of `query`'s first window make of
/// one event.
fn first_stage(query: QueryId, event: &Event) -> Option<Triple> {
    let ts = event.timestamp();
    match (query, event) {
        (QueryId::Q5 | QueryId::Q5Append, Event::Bid(b)) => Some((le(b.auction), le(1), ts)),
        (QueryId::Q8, Event::Person(p)) => Some((le(p.id), vec![0], ts)),
        (QueryId::Q8, Event::Auction(a)) => Some((le(a.seller), [vec![1], le(a.id)].concat(), ts)),
        (QueryId::Q8, Event::Bid(_)) => None,
        _ => bids_by_bidder(event),
    }
}

/// A bid keyed by its bidder, valued at its price.
pub fn bids_by_bidder(event: &Event) -> Option<Triple> {
    match event {
        Event::Bid(b) => Some((le(b.bidder), le(b.price), b.date_time)),
        _ => None,
    }
}

fn le(n: u64) -> Vec<u8> {
    n.to_le_bytes().to_vec()
}

fn numbers(values: &[&[u8]]) -> Vec<u64> {
    let number = |v: &&[u8]| u64::from_le_bytes(<[u8; 8]>::try_from(*v).expect("8-byte number"));
    values.iter().map(number).collect()
}

/// The number of values.
pub fn count(_key: &[u8], values: &[&[u8]]) -> Option<Vec<u8>> {
    Some(le(values.len() as u64))
}

/// The largest value.
pub fn max(_key: &[u8], values: &[&[u8]]) -> Option<Vec<u8>> {
    numbers(values).into_iter().max().map(le)
}

/// NEXMark's median: the central value, or the two central values'
/// mean rounded down.
pub fn median(_key: &[u8], values: &[&[u8]]) -> Option<Vec<u8>> {
    let mut v = numbers(values);
    v.sort_unstable();
    let n = v.len();
    let m = match n % 2 {
        1 => v[n / 2],
        _ => ((u128::from(v[n / 2 - 1]) + u128::from(v[n / 2])) / 2) as u64,
    };
    Some(le(m))
}

/// Q8: the person's id when the window holds their registration and at
/// least one auction of theirs.
pub fn person_with_auction(key: &[u8], values: &[&[u8]]) -> Option<Vec<u8>> {
    let has = |tag: u8| values.iter().any(|v| v.first() == Some(&tag));
    (has(0) && has(1)).then(|| key.to_vec())
}

/// What an interval join emits for one key from a left and a right
/// payload; `None` emits nothing.
pub type JoinFn = fn(key: &[u8], left: &[u8], right: &[u8]) -> Option<Vec<u8>>;

/// One interval-join output and the position in the stream of its later
/// input.
pub type Joined = (usize, Triple);

/// The first byte of a left tuple's value, then its payload.
pub const LEFT: u8 = 0;
/// The first byte of a right tuple's value.
pub const RIGHT: u8 = 1;

/// The interval join of a stream of side-tagged tuples in timestamp
/// order, so that the late rule drops none of them.
pub fn interval_join(tuples: &[Tuple], lower: i64, upper: i64, combine: JoinFn) -> Vec<Joined> {
    let in_order = tuples.windows(2).all(|w| w[0].timestamp <= w[1].timestamp);
    assert!(in_order, "the stream is not in timestamp order");
    let mut by_key: BTreeMap<&[u8], Vec<(usize, &Tuple)>> = BTreeMap::new();
    for (at, t) in tuples.iter().enumerate() {
        by_key.entry(&t.key).or_default().push((at, t));
    }
    let mut joined = Vec::new();
    for (key, rows) in by_key {
        for &(i, l) in &rows {
            let Some(left) = tagged(l, LEFT) else {
                continue;
            };
            for &(j, r) in &rows {
                let Some(right) = tagged(r, RIGHT) else {
                    continue;
                };
                let window = l.timestamp + lower..=l.timestamp + upper;
                if !window.contains(&r.timestamp) {
                    continue;
                }
                if let Some(value) = combine(key, left, right) {
                    let ts = l.timestamp.max(r.timestamp);
                    joined.push((i.max(j), (key.to_vec(), value, ts)));
                }
            }
        }
    }
    joined
}

/// `t`'s payload when it is tagged `side`.
fn tagged(t: &Tuple, side: u8) -> Option<&[u8]> {
    let (tag, payload) = t.value.split_first()?;
    (*tag == side).then_some(payload)
}

/// The join outputs whose later input sits at position `from` or past
/// it, sorted: every output for 0, and for a barrier after `from`
/// tuples the outputs it does not precede.
pub fn joined_from(joined: &[Joined], from: usize) -> SortedOutputs {
    let after = joined.iter().filter(|(at, _)| *at >= from);
    sorted(after.map(|(_, t)| t.clone()).collect())
}

fn sorted(mut v: SortedOutputs) -> SortedOutputs {
    v.sort();
    v
}
