//! The window operator: assignment, state access, and triggering.
//!
//! One operator instance runs per physical partition and owns its state
//! backend exclusively (paper §2.1). The operator translates arriving
//! tuples and watermarks into the store calls of the pattern chosen at
//! launch:
//!
//! | pattern | on element | on trigger |
//! |---|---|---|
//! | append + aligned | `append` | drain `drain_window_chunk` into the trigger arena |
//! | append + unaligned | `append` | `take_values_with` per session initial, into the trigger arena |
//! | read-modify-write | `update_aggregate` | `take_aggregate` |
//!
//! Session windows merge engine-side: the operator tracks each key's open
//! sessions and the *initial window boundaries* under which their tuples
//! were stored — FlowKV's AUR store keys state by those initial
//! boundaries because session extents move (paper §4.2).
//!
//! A session is one per-key window whose boundary moves, so it needs one
//! trigger, not one per boundary it ever had. The timer invariant: every
//! open session of key `K` has at least one `(t, K)` in `session_timers`
//! with `t ≤ cover.end`. Opening or bridging a session arms one timer at
//! its end; extending it arms nothing (`cover.end` only grows); a pop of
//! `(t, K)` that leaves `K` with open sessions re-arms `K` once, at the
//! earliest of their ends. A watermark therefore pops the key of every
//! session it expires, and fires what it expired key by key, a key's
//! sessions by their end — a function of the sessions, not of which
//! timers exist, and the order every other per-key trigger of this
//! operator fires in.
//!
//! [`KeyedOperator`] is the contract every keyed stage's operator — this
//! one and the interval join — offers the worker that feeds it.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use flowkv_common::backend::StateBackend;
use flowkv_common::codec::{put_len_prefixed, put_varint_i64, put_varint_u64, Decoder};
use flowkv_common::dict::{group_stable, ByteDict};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::hash::KeyHash;
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::types::{Timestamp, Tuple, TupleRef, WindowId};

use crate::batch::TupleBatch;
use crate::job::{AggregateSpec, WindowSpec};
use crate::latency::Stamped;
use crate::window::WindowAssigner;

/// The file of an operator checkpoint holding its engine-state record.
const OPSTATE: &str = "OPSTATE";

/// One keyed operator over one partition's store, fed micro-batches and
/// watermarks by a single worker thread (paper §2.1, Figure 1(b)).
///
/// Implementors supply the per-element and per-watermark steps, their
/// engine state's encoding and a batch-preparation hook; the batch loop
/// and the checkpoint frame are written once, as provided methods.
pub trait KeyedOperator {
    /// Processes one tuple, emitting any per-element results into `out`.
    /// A tuple behind the watermark is dropped as late instead.
    fn on_element(&mut self, tuple: TupleRef<'_>, out: &mut Vec<Tuple>) -> Result<()>;

    /// Advances event time, emitting what it fires into `out`.
    fn on_watermark(&mut self, watermark: Timestamp, out: &mut Vec<Tuple>) -> Result<()>;

    /// The operator's state backend.
    fn backend_mut(&mut self) -> &mut dyn StateBackend;

    /// Tuples dropped for arriving behind the watermark.
    fn dropped_late(&self) -> u64;

    /// Keeps every tuple dropped as late from now on, for
    /// [`take_late`](Self::take_late) (Flink's late-data side output).
    fn set_collect_late(&mut self, collect: bool);

    /// Drains the tuples kept as late since the last call.
    fn take_late(&mut self) -> Vec<Tuple>;

    /// Appends the engine-side state a checkpoint keeps beside the
    /// store's snapshot.
    fn encode_engine_state(&self, buf: &mut Vec<u8>);

    /// Replaces the engine-side state with what
    /// [`encode_engine_state`](Self::encode_engine_state) wrote.
    fn decode_engine_state(&mut self, dec: &mut Decoder<'_>) -> Result<()>;

    /// Readies a batch before its rows run: a reordering the operator's
    /// semantics allow, and any hint the store wants about what is coming.
    fn prepare_batch(&mut self, batch: &mut TupleBatch) -> Result<()>;

    /// Processes one exchange micro-batch, reading each row in place and
    /// emitting any per-element results (count windows, joins) into `out`
    /// with each input's own origin stamp.
    fn on_batch(&mut self, batch: &mut TupleBatch, out: &mut Vec<Stamped>) -> Result<()> {
        self.prepare_batch(batch)?;
        // Reused across the batch's rows; allocated by the first output.
        let mut scratch = Vec::new();
        for (tuple, origin) in batch.iter() {
            self.on_element(tuple, &mut scratch)?;
            out.extend(scratch.drain(..).map(|tuple| Stamped { tuple, origin }));
        }
        Ok(())
    }

    /// Checkpoints the store and the engine state into `dir`.
    ///
    /// Called when an aligned checkpoint barrier has arrived on every
    /// input (paper §8: engine-coordinated snapshots, not store WALs).
    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("operator checkpoint dir", e))?;
        self.backend_mut().checkpoint(dir)?;
        let mut buf = Vec::new();
        self.encode_engine_state(&mut buf);
        let mut writer = LogWriter::create(dir.join(OPSTATE))?;
        writer.append(&buf)?;
        writer.sync()
    }

    /// Restores the operator from a checkpoint written by
    /// [`checkpoint`](Self::checkpoint).
    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.backend_mut().restore(dir)?;
        let mut reader = LogReader::open(dir.join(OPSTATE))?;
        let (_, payload) = reader
            .next_record()?
            .ok_or_else(|| StoreError::invalid_state("empty operator checkpoint"))?;
        self.decode_engine_state(&mut Decoder::new(&payload))
    }
}

/// The late-drop rule both keyed operators hold: a tuple behind the
/// watermark is counted and, when the run collects them, kept.
#[derive(Default)]
pub(crate) struct LateDrops {
    pub(crate) count: u64,
    pub(crate) collect: bool,
    pub(crate) kept: Vec<Tuple>,
}

impl LateDrops {
    /// `true` when `tuple` is behind `watermark` and so dropped.
    pub(crate) fn drops(&mut self, tuple: TupleRef<'_>, watermark: Timestamp) -> bool {
        if tuple.timestamp >= watermark {
            return false;
        }
        self.count += 1;
        if self.collect {
            self.kept.push(tuple.to_tuple());
        }
        true
    }
}

/// Returns `true` when two session extents overlap or touch.
fn merges_with(a: &WindowId, b: &WindowId) -> bool {
    a.start <= b.end && b.start <= a.end
}

/// Writes one tuple to the store under `window`: appended to the window's
/// full list, or folded into its aggregate where the store holds it.
/// Returns whether the store said the pair already held an aggregate
/// (an append does not ask: `false`). A free function over the two
/// fields it needs, so a caller may hold its session or count state
/// across it.
fn store_tuple(
    aggregate: &AggregateSpec,
    backend: &mut dyn StateBackend,
    tuple: TupleRef<'_>,
    window: WindowId,
) -> Result<bool> {
    match aggregate {
        AggregateSpec::FullList(_) => {
            backend.append(tuple.key, window, tuple.value, tuple.timestamp)?;
            Ok(false)
        }
        AggregateSpec::Incremental(agg) => {
            let mut existed = false;
            backend.update_aggregate(tuple.key, window, &mut |acc, held| {
                existed = held;
                if !held {
                    *acc = agg.create();
                }
                agg.add(acc, tuple.value);
            })?;
            Ok(existed)
        }
    }
}

/// What a trigger's store reads lent, copied once: every value's bytes
/// back to back and, for the pairs of an aligned window, every distinct
/// key once with a key number per value (so a window's values stay under
/// 4 GiB). Grouping is a counting pass over those numbers — no `Vec` per
/// pair or per key — and keys fire in the order the drain first showed
/// them, a function of the input. A per-key trigger (session, count,
/// custom window) fills `values` alone.
#[derive(Default)]
struct TriggerArena {
    keys: ByteDict,
    values: ByteDict,
    /// The key number of each value.
    key_of: Vec<u32>,
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl TriggerArena {
    fn push(&mut self, key: &[u8], value: &[u8]) {
        self.key_of.push(self.keys.intern(key));
        self.values.push(value);
    }

    /// Hands `fire` each key with its values in the order they were
    /// pushed, and empties the arena, keeping its allocations.
    fn fire_each_key(&mut self, mut fire: impl FnMut(&[u8], &[&[u8]])) {
        let TriggerArena {
            keys,
            values,
            key_of,
            starts,
            order,
        } = self;
        group_stable(key_of.len(), keys.len(), |at| key_of[at], starts, order);
        let mut list: Vec<&[u8]> = Vec::new();
        for key in 0..keys.len() {
            let of_key = &order[starts[key] as usize..starts[key + 1] as usize];
            list.clear();
            list.extend(of_key.iter().map(|&at| values.get(at)));
            fire(keys.get(key as u32), &list);
        }
        drop(list);
        self.clear();
    }

    /// Hands `fire` every value in push order as one list — what the
    /// takes of one key's trigger lent — and empties the arena.
    fn fire_all(&mut self, fire: impl FnOnce(&[&[u8]])) {
        let values = &self.values;
        let list: Vec<&[u8]> = (0..values.len() as u32).map(|at| values.get(at)).collect();
        fire(&list);
        drop(list);
        self.clear();
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.key_of.clear();
    }
}

/// An open session of one key.
#[derive(Clone, Debug)]
struct Session {
    /// Current extent (grows as tuples arrive).
    cover: WindowId,
    /// Store windows holding this session's tuples, sorted by start.
    initials: Vec<WindowId>,
}

/// Per-key count-window progress.
#[derive(Clone, Copy, Debug, Default)]
struct CountState {
    seq: u64,
    in_window: u64,
}

/// One key's open sessions in transit: `(cover, initials)` pairs, the
/// raw fields of the private [`Session`] struct.
pub(crate) type SessionRows = Vec<(WindowId, Vec<WindowId>)>;

/// One migration target's slice of an operator's engine-side state,
/// produced by [`WindowOperator::export_engine_shards`] and folded back
/// in by [`WindowOperator::absorb_engine_shard`]. Sessions and counts
/// travel as raw tuples (`(cover, initials)` / `(key, seq, in_window)`)
/// so the private engine structs stay private. A checkpoint stores the
/// operator's single shard in the codec below.
pub(crate) struct EngineShard {
    pub(crate) watermark: Timestamp,
    pub(crate) dropped_late: u64,
    pub(crate) aligned_timers: BTreeSet<(Timestamp, WindowId)>,
    pub(crate) trigger_keys: HashMap<WindowId, BTreeSet<Vec<u8>>>,
    pub(crate) sessions: Vec<(Vec<u8>, SessionRows)>,
    pub(crate) session_timers: BTreeSet<(Timestamp, Vec<u8>)>,
    pub(crate) counts: Vec<(Vec<u8>, u64, u64)>,
}

impl EngineShard {
    /// Appends the shard's checkpoint encoding to `buf`.
    fn encode_to(&self, buf: &mut Vec<u8>) {
        put_varint_i64(buf, self.watermark);
        put_varint_u64(buf, self.dropped_late);
        put_varint_u64(buf, self.aligned_timers.len() as u64);
        for (ts, w) in &self.aligned_timers {
            put_varint_i64(buf, *ts);
            w.encode_to(buf);
        }
        put_varint_u64(buf, self.trigger_keys.len() as u64);
        for (w, keys) in &self.trigger_keys {
            w.encode_to(buf);
            put_varint_u64(buf, keys.len() as u64);
            for k in keys {
                put_len_prefixed(buf, k);
            }
        }
        put_varint_u64(buf, self.sessions.len() as u64);
        for (key, sessions) in &self.sessions {
            put_len_prefixed(buf, key);
            put_varint_u64(buf, sessions.len() as u64);
            for (cover, initials) in sessions {
                cover.encode_to(buf);
                put_varint_u64(buf, initials.len() as u64);
                for w in initials {
                    w.encode_to(buf);
                }
            }
        }
        put_varint_u64(buf, self.session_timers.len() as u64);
        for (ts, key) in &self.session_timers {
            put_varint_i64(buf, *ts);
            put_len_prefixed(buf, key);
        }
        put_varint_u64(buf, self.counts.len() as u64);
        for (key, seq, in_window) in &self.counts {
            put_len_prefixed(buf, key);
            put_varint_u64(buf, *seq);
            put_varint_u64(buf, *in_window);
        }
    }

    /// Inverse of [`EngineShard::encode_to`].
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        let watermark = dec.get_varint_i64()?;
        let dropped_late = dec.get_varint_u64()?;
        let mut aligned_timers = BTreeSet::new();
        for _ in 0..dec.get_varint_u64()? {
            let ts = dec.get_varint_i64()?;
            aligned_timers.insert((ts, WindowId::decode_from(dec)?));
        }
        let mut trigger_keys = HashMap::new();
        for _ in 0..dec.get_varint_u64()? {
            let w = WindowId::decode_from(dec)?;
            let mut keys = BTreeSet::new();
            for _ in 0..dec.get_varint_u64()? {
                keys.insert(dec.get_len_prefixed()?.to_vec());
            }
            trigger_keys.insert(w, keys);
        }
        let mut sessions = Vec::new();
        for _ in 0..dec.get_varint_u64()? {
            let key = dec.get_len_prefixed()?.to_vec();
            let mut rows = SessionRows::new();
            for _ in 0..dec.get_varint_u64()? {
                let cover = WindowId::decode_from(dec)?;
                let mut initials = Vec::new();
                for _ in 0..dec.get_varint_u64()? {
                    initials.push(WindowId::decode_from(dec)?);
                }
                rows.push((cover, initials));
            }
            sessions.push((key, rows));
        }
        let mut session_timers = BTreeSet::new();
        for _ in 0..dec.get_varint_u64()? {
            let ts = dec.get_varint_i64()?;
            session_timers.insert((ts, dec.get_len_prefixed()?.to_vec()));
        }
        let mut counts = Vec::new();
        for _ in 0..dec.get_varint_u64()? {
            let key = dec.get_len_prefixed()?.to_vec();
            counts.push((key, dec.get_varint_u64()?, dec.get_varint_u64()?));
        }
        Ok(EngineShard {
            watermark,
            dropped_late,
            aligned_timers,
            trigger_keys,
            sessions,
            session_timers,
            counts,
        })
    }
}

/// A window operator bound to one state-backend partition.
pub struct WindowOperator {
    spec: WindowSpec,
    backend: Box<dyn StateBackend>,
    /// Aligned windows awaiting their trigger.
    aligned_timers: BTreeSet<(Timestamp, WindowId)>,
    /// Keys needing per-key firing per window: the RMW trigger set for
    /// aligned windows, and every pattern's trigger set for custom
    /// windows (whose store is per-key unaligned). Ordered sets: a window
    /// fires key by key in key order, a function of the input.
    trigger_keys: HashMap<WindowId, BTreeSet<Vec<u8>>>,
    /// Open sessions per key.
    sessions: HashMap<Vec<u8>, Vec<Session>, KeyHash>,
    /// Session trigger times: at least one at or before the end of every
    /// open session of the key (the module docs' timer invariant). One
    /// that finds nothing expired re-arms its key or lapses.
    session_timers: BTreeSet<(Timestamp, Vec<u8>)>,
    /// Timers inserted into `session_timers` by this operator.
    #[cfg(test)]
    timers_armed: u64,
    /// Count-window progress per key.
    counts: HashMap<Vec<u8>, CountState, KeyHash>,
    watermark: Timestamp,
    late: LateDrops,
    /// Reused by every aligned assignment.
    assigned: Vec<WindowId>,
    /// Reused by every full-list trigger (boxed: only those operators
    /// ever fill it).
    arena: Box<TriggerArena>,
}

impl WindowOperator {
    /// Creates an operator for `spec` over `backend`.
    pub fn new(spec: WindowSpec, backend: Box<dyn StateBackend>) -> Self {
        WindowOperator {
            spec,
            backend,
            aligned_timers: BTreeSet::new(),
            trigger_keys: HashMap::new(),
            sessions: HashMap::default(),
            session_timers: BTreeSet::new(),
            #[cfg(test)]
            timers_armed: 0,
            counts: HashMap::default(),
            watermark: Timestamp::MIN,
            late: LateDrops::default(),
            assigned: Vec::new(),
            arena: Box::default(),
        }
    }

    /// Tells the backend which `(key, window)` aggregates this batch is
    /// about to read-modify-write, so block-oriented stores can warm
    /// their caches while the batch's earlier elements are processed.
    /// Only aligned assigners have a pure assignment the hint can
    /// anticipate; the hint is advisory and never changes results.
    fn warm_hint(&mut self, batch: &TupleBatch) -> Result<()> {
        if !matches!(self.spec.aggregate, AggregateSpec::Incremental(_))
            || !matches!(
                self.spec.assigner,
                WindowAssigner::Fixed { .. } | WindowAssigner::Sliding { .. }
            )
        {
            return Ok(());
        }
        let mut pairs: Vec<(&[u8], WindowId)> = Vec::new();
        for (tuple, _) in batch.iter() {
            if tuple.timestamp < self.watermark {
                continue; // Dropped as late; never read.
            }
            self.spec
                .assigner
                .assign_into(tuple.timestamp, &mut self.assigned);
            for &window in &self.assigned {
                let pair = (tuple.key, window);
                // The batch is key-sorted, so duplicates are adjacent.
                if pairs.last() != Some(&pair) {
                    pairs.push(pair);
                }
            }
        }
        if pairs.is_empty() {
            return Ok(());
        }
        self.backend.warm(&pairs)
    }

    /// Splits the engine-side state (timers, sessions, count progress,
    /// trigger sets) into `n` migration shards, routing every per-key
    /// structure through `route`.
    ///
    /// Aligned timers are window-level, not key-level, so each shard
    /// gets the full set: firing a window a shard holds no state for
    /// emits nothing, while a missing timer would silently drop a
    /// window. `dropped_late` is a job-level counter and goes to shard 0
    /// alone so a later merge does not multiply it.
    pub(crate) fn export_engine_shards(
        &self,
        n: usize,
        route: &dyn Fn(&[u8]) -> usize,
    ) -> Vec<EngineShard> {
        let mut shards: Vec<EngineShard> = (0..n)
            .map(|i| EngineShard {
                watermark: self.watermark,
                dropped_late: if i == 0 { self.late.count } else { 0 },
                aligned_timers: self.aligned_timers.clone(),
                trigger_keys: HashMap::new(),
                sessions: Vec::new(),
                session_timers: BTreeSet::new(),
                counts: Vec::new(),
            })
            .collect();
        for (window, keys) in &self.trigger_keys {
            for key in keys {
                shards[route(key)]
                    .trigger_keys
                    .entry(*window)
                    .or_default()
                    .insert(key.clone());
            }
        }
        for (key, sessions) in &self.sessions {
            shards[route(key)].sessions.push((
                key.clone(),
                sessions
                    .iter()
                    .map(|s| (s.cover, s.initials.clone()))
                    .collect(),
            ));
        }
        for (ts, key) in &self.session_timers {
            shards[route(key)].session_timers.insert((*ts, key.clone()));
        }
        for (key, c) in &self.counts {
            shards[route(key)]
                .counts
                .push((key.clone(), c.seq, c.in_window));
        }
        shards
    }

    /// Folds one migration shard into this operator; the inverse of
    /// [`WindowOperator::export_engine_shards`]. Sources checkpointed at
    /// the same aligned barrier agree on the watermark; per-key state is
    /// disjoint across sources (each key lived on exactly one old
    /// worker), so absorption is a plain union.
    pub(crate) fn absorb_engine_shard(&mut self, shard: EngineShard) {
        self.watermark = self.watermark.max(shard.watermark);
        self.late.count += shard.dropped_late;
        self.aligned_timers.extend(shard.aligned_timers);
        for (window, keys) in shard.trigger_keys {
            self.trigger_keys.entry(window).or_default().extend(keys);
        }
        for (key, sessions) in shard.sessions {
            self.sessions.entry(key).or_default().extend(
                sessions
                    .into_iter()
                    .map(|(cover, initials)| Session { cover, initials }),
            );
        }
        self.session_timers.extend(shard.session_timers);
        for (key, seq, in_window) in shard.counts {
            self.counts.insert(key, CountState { seq, in_window });
        }
    }

    /// Windows with deterministic boundaries: fixed, sliding, global, and
    /// custom ones from the user function. Aggregates fire key by key, so
    /// their windows track the keys to trigger; so do the full lists of
    /// custom windows, whose state lives per key in the store (classified
    /// unaligned, paper §8). An aligned full list is drained whole.
    fn on_aligned_element(&mut self, tuple: TupleRef<'_>) -> Result<()> {
        let per_key = matches!(self.spec.assigner, WindowAssigner::Custom { .. })
            || matches!(self.spec.aggregate, AggregateSpec::Incremental(_));
        self.spec
            .assigner
            .assign_into(tuple.timestamp, &mut self.assigned);
        for at in 0..self.assigned.len() {
            let window = self.assigned[at];
            if store_tuple(&self.spec.aggregate, self.backend.as_mut(), tuple, window)? {
                // A held aggregate has its key tracked and its timer
                // armed: the three are set, fired, checkpointed and
                // migrated together. Nearly every RMW tuple ends here.
                debug_assert!(
                    self.aligned_timers.contains(&(window.end, window))
                        && self.trigger_keys[&window].contains(tuple.key)
                );
                continue;
            }
            // A window with tracked keys has its timer armed (the two
            // are set and fired together): only a new window or key is
            // written down.
            let armed = per_key && {
                let keys = self.trigger_keys.entry(window).or_default();
                let armed = !keys.is_empty();
                if !keys.contains(tuple.key) {
                    keys.insert(tuple.key.to_vec());
                }
                armed
            };
            if !armed {
                self.aligned_timers.insert((window.end, window));
            }
        }
        Ok(())
    }

    fn on_session_element(&mut self, tuple: TupleRef<'_>, gap: i64) -> Result<()> {
        let proto = WindowId::new(tuple.timestamp, tuple.timestamp.saturating_add(gap));
        let extended = self.sessions.get_mut(tuple.key).and_then(|sessions| {
            let mut merging =
                (0..sessions.len()).filter(|&i| merges_with(&sessions[i].cover, &proto));
            match (merging.next(), merging.next()) {
                (Some(at), None) => Some((sessions, at)),
                _ => None,
            }
        });
        let Some((sessions, at)) = extended else {
            return self.merge_sessions(tuple, proto);
        };
        // The tuple extends exactly one open session of its key — nearly
        // every tuple of a long session: the session grows in place and
        // moves to the back of the key's list, where `merge_sessions`
        // would leave it, with the same store calls and nothing
        // allocated. Its initials and store window do not change, and no
        // timer is armed: the one that covers the session sits at or
        // before the end it had, and the end only grows.
        sessions[at..].rotate_left(1);
        let session = sessions.last_mut().expect("rotated to the back");
        let store_window = session.initials[0];
        store_tuple(
            &self.spec.aggregate,
            self.backend.as_mut(),
            tuple,
            store_window,
        )?;
        session.cover = proto.cover(&session.cover);
        Ok(())
    }

    /// The general session step: the tuple opens a session, or bridges
    /// the sessions its proto window touches into one.
    fn merge_sessions(&mut self, tuple: TupleRef<'_>, proto: WindowId) -> Result<()> {
        let sessions = self.sessions.entry(tuple.key.to_vec()).or_default();
        // Split off the sessions the new tuple bridges. Touching windows
        // merge too (two events exactly `gap` apart share a session, as
        // in Flink's session merging).
        let (mut merged, kept): (Vec<Session>, Vec<Session>) = std::mem::take(sessions)
            .into_iter()
            .partition(|s| merges_with(&s.cover, &proto));
        let mut cover = proto;
        let mut initials: Vec<WindowId> = Vec::new();
        for s in &merged {
            cover = cover.cover(&s.cover);
            initials.extend(s.initials.iter().copied());
        }
        initials.sort_unstable();
        let session = match &self.spec.aggregate {
            AggregateSpec::FullList(_) => {
                // New tuples are stored under the session's first initial
                // boundary; a brand-new session stores under its proto.
                let store_window = initials.first().copied().unwrap_or(proto);
                if initials.is_empty() {
                    initials.push(proto);
                }
                self.backend
                    .append(tuple.key, store_window, tuple.value, tuple.timestamp)?;
                Session { cover, initials }
            }
            AggregateSpec::Incremental(agg) => {
                // Merge the accumulators of bridged sessions (each RMW
                // session keeps exactly one initial).
                let mut acc: Option<Vec<u8>> = None;
                for s in &merged {
                    let initial = s.initials[0];
                    if let Some(prev) = self.backend.take_aggregate(tuple.key, initial)? {
                        acc = Some(match acc {
                            None => prev,
                            Some(a) => agg.merge(&a, &prev),
                        });
                    }
                }
                let mut acc = acc.unwrap_or_else(|| agg.create());
                agg.add(&mut acc, tuple.value);
                let store_window = initials.first().copied().unwrap_or(proto);
                self.backend.put_aggregate(tuple.key, store_window, &acc)?;
                Session {
                    cover,
                    initials: vec![store_window],
                }
            }
        };
        merged.clear();
        let trigger_at = session.cover.end;
        let mut rebuilt = kept;
        rebuilt.push(session);
        *sessions = rebuilt;
        self.arm_session(trigger_at, tuple.key.to_vec());
        Ok(())
    }

    fn arm_session(&mut self, at: Timestamp, key: Vec<u8>) {
        self.session_timers.insert((at, key));
        #[cfg(test)]
        {
            self.timers_armed += 1;
        }
    }

    fn on_count_element(
        &mut self,
        tuple: TupleRef<'_>,
        size: u64,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        if !self.counts.contains_key(tuple.key) {
            self.counts
                .insert(tuple.key.to_vec(), CountState::default());
        }
        let state = self.counts.get_mut(tuple.key);
        let state = state.expect("present or just inserted");
        let window = WindowId::new((state.seq * size) as i64, ((state.seq + 1) * size) as i64);
        store_tuple(&self.spec.aggregate, self.backend.as_mut(), tuple, window)?;
        state.in_window += 1;
        if state.in_window >= size {
            state.seq += 1;
            state.in_window = 0;
            self.fire_key_window(tuple.key, &[window], window, tuple.timestamp, out)?;
        }
        Ok(())
    }

    /// Fires aligned windows whose end time the watermark passed.
    fn fire_aligned(&mut self, watermark: Timestamp, out: &mut Vec<Tuple>) -> Result<()> {
        loop {
            let Some(&(end, window)) = self.aligned_timers.iter().next() else {
                return Ok(());
            };
            if end > watermark {
                return Ok(());
            }
            self.aligned_timers.remove(&(end, window));
            let out_ts = window.end.saturating_sub(1);
            let custom = matches!(self.spec.assigner, WindowAssigner::Custom { .. });
            match self.spec.aggregate.clone() {
                AggregateSpec::FullList(_) if custom => {
                    // Custom windows live in a per-key (unaligned) store:
                    // fire each tracked key individually.
                    for key in self.trigger_keys.remove(&window).unwrap_or_default() {
                        self.fire_key_window(&key, &[window], window, out_ts, out)?;
                    }
                }
                AggregateSpec::FullList(f) => {
                    // Gradual loading: the store lends the window step by
                    // step, the arena keeps the bytes, then each complete
                    // key is processed over slices of it.
                    let arena = &mut self.arena;
                    // A drain that failed half-way left its pairs behind.
                    arena.clear();
                    let mut keep = |key: &[u8], value: &[u8]| arena.push(key, value);
                    while self.backend.drain_window_chunk(window, &mut keep)? {}
                    arena.fire_each_key(|key, values| {
                        for output in f.process(key, window, values) {
                            out.push(Tuple::new(key.to_vec(), output, out_ts));
                        }
                    });
                }
                AggregateSpec::Incremental(agg) => {
                    for key in self.trigger_keys.remove(&window).unwrap_or_default() {
                        if let Some(acc) = self.backend.take_aggregate(&key, window)? {
                            out.push(Tuple::new(key, agg.result(&acc), out_ts));
                        }
                    }
                }
            }
        }
    }

    /// Fires sessions whose gap the watermark passed: every due timer is
    /// popped, its key's sessions split in place into the expired and the
    /// open, and what expired fires in `(key, cover.end)` order.
    ///
    /// Not in order of their ends: the AUR store reads a missed window
    /// together with every window due no later than it, so a drain that
    /// asks for the earliest end first — the end-of-stream watermark
    /// expires every open session at once — pays an index walk for every
    /// few windows, where key order, unrelated to the ends, halves what
    /// is left with each walk (EXPERIMENTS.md, "Session path").
    fn fire_sessions(&mut self, watermark: Timestamp, out: &mut Vec<Tuple>) -> Result<()> {
        // `(key, cover, initials)` per expired session. Two sessions of a
        // key never share an end (they would have merged).
        let mut expired: Vec<(Vec<u8>, WindowId, Vec<WindowId>)> = Vec::new();
        while self
            .session_timers
            .first()
            .is_some_and(|(at, _)| *at <= watermark)
        {
            let (_, key) = self.session_timers.pop_first().expect("checked above");
            let Some(sessions) = self.sessions.get_mut(key.as_slice()) else {
                continue;
            };
            sessions.retain_mut(|s| {
                let open = s.cover.end > watermark;
                if !open {
                    expired.push((key.clone(), s.cover, std::mem::take(&mut s.initials)));
                }
                open
            });
            // One timer at the earliest open end is at or before every
            // open end of the key; it lies past the watermark, so this
            // loop does not pop it.
            match sessions.iter().map(|s| s.cover.end).min() {
                Some(at) => self.arm_session(at, key),
                None => {
                    self.sessions.remove(key.as_slice());
                }
            }
        }
        expired.sort_unstable_by(|a, b| (&a.0, a.1.end).cmp(&(&b.0, b.1.end)));
        for (key, cover, initials) in expired {
            let out_ts = cover.end.saturating_sub(1);
            self.fire_key_window(&key, &initials, cover, out_ts, out)?;
        }
        Ok(())
    }

    /// Reads, aggregates, and emits one key's window state.
    fn fire_key_window(
        &mut self,
        key: &[u8],
        store_windows: &[WindowId],
        logical: WindowId,
        out_ts: Timestamp,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        match self.spec.aggregate.clone() {
            AggregateSpec::FullList(f) => {
                // The store lends each value once, the arena keeps the
                // bytes, the window function reads slices of it.
                let arena = &mut self.arena;
                // A take that failed half-way left its values behind.
                arena.clear();
                let mut keep = |value: &[u8]| {
                    arena.values.push(value);
                };
                for w in store_windows {
                    self.backend.take_values_with(key, *w, &mut keep)?;
                }
                if arena.values.is_empty() {
                    return Ok(());
                }
                arena.fire_all(|values| {
                    for output in f.process(key, logical, values) {
                        out.push(Tuple::new(key.to_vec(), output, out_ts));
                    }
                });
            }
            AggregateSpec::Incremental(agg) => {
                let mut acc: Option<Vec<u8>> = None;
                for w in store_windows {
                    if let Some(a) = self.backend.take_aggregate(key, *w)? {
                        acc = Some(match acc {
                            None => a,
                            Some(prev) => agg.merge(&prev, &a),
                        });
                    }
                }
                if let Some(acc) = acc {
                    out.push(Tuple::new(key.to_vec(), agg.result(&acc), out_ts));
                }
            }
        }
        Ok(())
    }
}

impl KeyedOperator for WindowOperator {
    /// The store copies what it keeps of the lent bytes.
    fn on_element(&mut self, tuple: TupleRef<'_>, out: &mut Vec<Tuple>) -> Result<()> {
        if self.late.drops(tuple, self.watermark) {
            return Ok(());
        }
        match self.spec.assigner {
            WindowAssigner::Fixed { .. }
            | WindowAssigner::Sliding { .. }
            | WindowAssigner::Global
            | WindowAssigner::Custom { .. } => self.on_aligned_element(tuple),
            WindowAssigner::Session { gap } => self.on_session_element(tuple, gap),
            WindowAssigner::Count { size } => self.on_count_element(tuple, size, out),
        }
    }

    fn on_watermark(&mut self, watermark: Timestamp, out: &mut Vec<Tuple>) -> Result<()> {
        self.watermark = watermark;
        self.fire_aligned(watermark, out)?;
        self.fire_sessions(watermark, out)
    }

    fn backend_mut(&mut self) -> &mut dyn StateBackend {
        self.backend.as_mut()
    }

    fn dropped_late(&self) -> u64 {
        self.late.count
    }

    fn set_collect_late(&mut self, collect: bool) {
        self.late.collect = collect;
    }

    fn take_late(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.late.kept)
    }

    /// The one shard of [`export_engine_shards`](Self::export_engine_shards).
    fn encode_engine_state(&self, buf: &mut Vec<u8>) {
        let mut shards = self.export_engine_shards(1, &|_| 0);
        shards.pop().expect("one shard").encode_to(buf);
    }

    /// The shard absorbed into an emptied engine.
    fn decode_engine_state(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        let shard = EngineShard::decode_from(dec)?;
        self.watermark = Timestamp::MIN;
        self.late.count = 0;
        self.aligned_timers.clear();
        self.trigger_keys.clear();
        self.sessions.clear();
        self.session_timers.clear();
        self.counts.clear();
        self.absorb_engine_shard(shard);
        Ok(())
    }

    /// Elements run in arrival order, the order a batch size of one runs
    /// them in: batching changes no store call. Only a backend that
    /// wants the [`warm_hint`](Self::warm_hint) (the LSM) gets the rows
    /// stably sorted by key first, for the hint's dedupe of adjacent
    /// pairs; per-key arrival order survives and the watermark cannot
    /// move inside a batch (batches flush before watermarks), so no
    /// window assignment, session merge, late-drop or per-key value
    /// order changes.
    fn prepare_batch(&mut self, batch: &mut TupleBatch) -> Result<()> {
        if !self.backend.wants_warm() {
            return Ok(());
        }
        if batch.len() > 1 {
            batch.sort_by_key_stable();
        }
        self.warm_hint(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{CountAggregate, FnProcess, MedianProcess, SumAggregate};
    use crate::memstore::InMemoryBackend;
    use flowkv_common::types::MAX_TIMESTAMP;
    use std::sync::Arc;

    fn op(assigner: WindowAssigner, aggregate: AggregateSpec) -> WindowOperator {
        WindowOperator::new(
            WindowSpec {
                name: "test".into(),
                assigner,
                aggregate,
            },
            Box::new(InMemoryBackend::new(1 << 20, 8)),
        )
    }

    fn t(key: &str, value: u64, ts: i64) -> Tuple {
        Tuple::new(key.into(), value.to_le_bytes().to_vec(), ts)
    }

    fn u64_of(bytes: &[u8]) -> u64 {
        crate::functions::decode_u64(bytes)
    }

    #[test]
    fn fixed_rmw_counts_per_key() {
        let mut o = op(
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        );
        let mut out = Vec::new();
        for i in 0..10 {
            o.on_element(t("a", i, 10 + i as i64).borrowed(), &mut out)
                .unwrap();
        }
        o.on_element(t("b", 1, 50).borrowed(), &mut out).unwrap();
        // Nothing fires before the watermark passes the window end.
        o.on_watermark(99, &mut out).unwrap();
        assert!(out.is_empty());
        o.on_watermark(100, &mut out).unwrap();
        let mut results: Vec<(Vec<u8>, u64)> = out
            .iter()
            .map(|t| (t.key.clone(), u64_of(&t.value)))
            .collect();
        results.sort();
        assert_eq!(results, vec![(b"a".to_vec(), 10), (b"b".to_vec(), 1)]);
        // Windows fire once.
        out.clear();
        o.on_watermark(200, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn a_tracked_keys_next_tuple_writes_nothing_down_and_the_window_fires_once() {
        let mut o = op(
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        );
        let mut out = Vec::new();
        o.on_element(t("a", 1, 10).borrowed(), &mut out).unwrap();
        let tracked = (o.trigger_keys.clone(), o.aligned_timers.clone());
        assert_eq!((tracked.0.len(), tracked.1.len()), (1, 1));
        o.on_element(t("a", 2, 20).borrowed(), &mut out).unwrap();
        assert_eq!((o.trigger_keys.clone(), o.aligned_timers.clone()), tracked);
        // A new key joins the window's set under the timer already armed.
        o.on_element(t("b", 3, 30).borrowed(), &mut out).unwrap();
        assert_eq!(o.trigger_keys[&WindowId::new(0, 100)].len(), 2);
        assert_eq!(o.aligned_timers, tracked.1);
        o.on_watermark(100, &mut out).unwrap();
        let mut results: Vec<(Vec<u8>, u64)> = out
            .iter()
            .map(|t| (t.key.clone(), u64_of(&t.value)))
            .collect();
        results.sort();
        assert_eq!(results, vec![(b"a".to_vec(), 2), (b"b".to_vec(), 1)]);
        assert!(o.trigger_keys.is_empty() && o.aligned_timers.is_empty());
    }

    #[test]
    fn a_key_repeating_within_and_across_chunks_yields_one_result() {
        // One store instance, so the AAR drain serves pairs in arrival
        // order: with keys alternating, no two pairs of a key are
        // adjacent and every chunk entry is a run of one.
        use flowkv::{FlowKvConfig, FlowKvStore};
        use flowkv_common::backend::{AggregateKind, OperatorSemantics, WindowKind};
        use flowkv_common::scratch::ScratchDir;
        let dir = ScratchDir::new("op-chunk-runs").unwrap();
        let open = |name: &str| {
            let semantics =
                OperatorSemantics::new(AggregateKind::FullList, WindowKind::Fixed { size: 100 });
            let cfg = FlowKvConfig {
                store_instances: 1,
                chunk_entries: 4,
                ..FlowKvConfig::small_for_tests()
            };
            FlowKvStore::open(&dir.path().join(name), semantics, cfg).unwrap()
        };
        let tuples: Vec<Tuple> = (0..12u64)
            .map(|i| t(["a", "b", "c"][i as usize % 3], i, i as i64))
            .collect();
        let mut bare = open("bare");
        for tuple in &tuples {
            bare.append(&tuple.key, WindowId::new(0, 100), &tuple.value, 0)
                .unwrap();
        }
        let first = bare.get_window_chunk(WindowId::new(0, 100)).unwrap();
        let keys: Vec<Vec<u8>> = first.unwrap().into_iter().map(|(key, _)| key).collect();
        assert_eq!(keys, [b"a", b"b", b"c", b"a"].map(|k| k.to_vec()));

        let spec = WindowSpec {
            name: "test".into(),
            assigner: WindowAssigner::Fixed { size: 100 },
            // A key's result: the first byte of each of its values.
            aggregate: AggregateSpec::FullList(Arc::new(FnProcess::new(|_, _, values| {
                vec![values.iter().map(|v| v[0]).collect()]
            }))),
        };
        let mut o = WindowOperator::new(spec, Box::new(open("operator")));
        let mut out = Vec::new();
        for tuple in &tuples {
            o.on_element(tuple.borrowed(), &mut out).unwrap();
        }
        o.on_watermark(100, &mut out).unwrap();
        let mut results: Vec<(Vec<u8>, Vec<u8>)> =
            out.into_iter().map(|t| (t.key, t.value)).collect();
        results.sort();
        let expect = [
            (b"a", [0, 3, 6, 9]),
            (b"b", [1, 4, 7, 10]),
            (b"c", [2, 5, 8, 11]),
        ];
        assert_eq!(results, expect.map(|(k, v)| (k.to_vec(), v.to_vec())));
    }

    #[test]
    fn an_aligned_full_list_window_fires_the_same_output_in_the_same_order_every_run() {
        use flowkv::{FlowKvConfig, FlowKvStore};
        use flowkv_common::backend::{AggregateKind, OperatorSemantics, WindowKind};
        use flowkv_common::scratch::ScratchDir;
        let dir = ScratchDir::new("op-fire-order").unwrap();
        let run = |name: &str, store_instances: usize| {
            let semantics =
                OperatorSemantics::new(AggregateKind::FullList, WindowKind::Fixed { size: 100 });
            let cfg = FlowKvConfig {
                store_instances,
                ..FlowKvConfig::small_for_tests()
            };
            let store = FlowKvStore::open(&dir.path().join(name), semantics, cfg).unwrap();
            let spec = WindowSpec {
                name: "test".into(),
                assigner: WindowAssigner::Fixed { size: 100 },
                aggregate: AggregateSpec::FullList(Arc::new(FnProcess::new(|_, _, values| {
                    vec![(values.len() as u64).to_le_bytes().to_vec()]
                }))),
            };
            let mut o = WindowOperator::new(spec, Box::new(store));
            let mut out = Vec::new();
            // Spills to the window file several times on the way.
            for i in 0..400u64 {
                let key = format!("key-{}", i * 7 % 41);
                o.on_element(t(&key, i, (i % 100) as i64).borrowed(), &mut out)
                    .unwrap();
            }
            o.on_watermark(100, &mut out).unwrap();
            out
        };
        // One store instance drains in arrival order: keys fire in the
        // order they first arrived.
        let first = run("one-a", 1);
        let arrival: Vec<Vec<u8>> = (0..41u64)
            .map(|i| format!("key-{}", i * 7 % 41).into_bytes())
            .collect();
        let fired: Vec<Vec<u8>> = first.iter().map(|t| t.key.clone()).collect();
        assert_eq!(fired, arrival);
        assert_eq!(run("one-b", 1), first);
        // Two instances drain one after the other: still one order.
        let both = run("two-a", 2);
        assert_eq!(both.len(), 41);
        assert_eq!(run("two-b", 2), both);
    }

    #[test]
    fn an_aligned_rmw_window_fires_the_same_output_in_the_same_order_every_run() {
        use flowkv::{FlowKvConfig, FlowKvStore};
        use flowkv_common::backend::{AggregateKind, OperatorSemantics, WindowKind};
        use flowkv_common::scratch::ScratchDir;
        let dir = ScratchDir::new("op-rmw-fire-order").unwrap();
        let run = |name: &str, store_instances: usize| {
            let semantics =
                OperatorSemantics::new(AggregateKind::Incremental, WindowKind::Fixed { size: 100 });
            let cfg = FlowKvConfig {
                store_instances,
                ..FlowKvConfig::small_for_tests()
            };
            let store = FlowKvStore::open(&dir.path().join(name), semantics, cfg).unwrap();
            let spec = WindowSpec {
                name: "test".into(),
                assigner: WindowAssigner::Fixed { size: 100 },
                aggregate: AggregateSpec::Incremental(Arc::new(SumAggregate)),
            };
            let mut o = WindowOperator::new(spec, Box::new(store));
            let mut out = Vec::new();
            for i in 0..400u64 {
                let key = format!("key-{:02}", i * 7 % 41);
                o.on_element(t(&key, i, (i % 200) as i64).borrowed(), &mut out)
                    .unwrap();
            }
            o.on_watermark(200, &mut out).unwrap();
            out
        };
        // Window by window, and within a window key by key.
        let first = run("one-a", 1);
        let fired: Vec<(i64, Vec<u8>)> =
            first.iter().map(|t| (t.timestamp, t.key.clone())).collect();
        let mut sorted = fired.clone();
        sorted.sort();
        assert_eq!((fired.len(), &fired), (82, &sorted));
        assert_eq!(run("one-b", 1), first);
        // The trigger set is the operator's: the store's instances do
        // not show in the order.
        assert_eq!(run("two-a", 2), first);
        assert_eq!(run("two-b", 2), first);
    }

    #[test]
    fn sliding_append_assigns_to_two_windows() {
        let mut o = op(
            WindowAssigner::Sliding {
                size: 100,
                slide: 50,
            },
            AggregateSpec::FullList(Arc::new(FnProcess::new(|_k, _w, vals| {
                vec![(vals.len() as u64).to_le_bytes().to_vec()]
            }))),
        );
        let mut out = Vec::new();
        o.on_element(t("k", 1, 75).borrowed(), &mut out).unwrap();
        o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
        // The tuple lives in [0,100) and [50,150): two firings of count 1.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| u64_of(&t.value) == 1));
    }

    #[test]
    fn session_windows_merge_and_fire_per_key() {
        let mut o = op(
            WindowAssigner::Session { gap: 50 },
            AggregateSpec::FullList(Arc::new(MedianProcess)),
        );
        let mut out = Vec::new();
        // Key `a`: two bursts separated by more than the gap.
        o.on_element(t("a", 10, 0).borrowed(), &mut out).unwrap();
        o.on_element(t("a", 20, 30).borrowed(), &mut out).unwrap();
        o.on_element(t("a", 90, 200).borrowed(), &mut out).unwrap();
        // Key `b`: one burst.
        o.on_element(t("b", 5, 40).borrowed(), &mut out).unwrap();
        o.on_watermark(150, &mut out).unwrap();
        // Session a[0,80) (median 15) and b[40,90) (median 5) fired.
        let mut fired: Vec<(Vec<u8>, u64)> = out
            .iter()
            .map(|t| (t.key.clone(), u64_of(&t.value)))
            .collect();
        fired.sort();
        assert_eq!(fired, vec![(b"a".to_vec(), 15), (b"b".to_vec(), 5)]);
        out.clear();
        o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(u64_of(&out[0].value), 90);
    }

    #[test]
    fn session_merge_bridges_two_sessions() {
        let mut o = op(
            WindowAssigner::Session { gap: 20 },
            AggregateSpec::FullList(Arc::new(FnProcess::new(|_k, _w, vals| {
                vec![(vals.len() as u64).to_le_bytes().to_vec()]
            }))),
        );
        let mut out = Vec::new();
        // Two sessions [0,20) and [40,60), bridged by ts=20 whose proto
        // [20,40) touches both.
        o.on_element(t("k", 1, 0).borrowed(), &mut out).unwrap();
        o.on_element(t("k", 2, 40).borrowed(), &mut out).unwrap();
        o.on_element(t("k", 3, 20).borrowed(), &mut out).unwrap();
        o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
        assert_eq!(out.len(), 1, "bridged sessions must fire once: {out:?}");
        assert_eq!(u64_of(&out[0].value), 3);
    }

    #[test]
    fn session_rmw_merges_accumulators() {
        let mut o = op(
            WindowAssigner::Session { gap: 20 },
            AggregateSpec::Incremental(Arc::new(SumAggregate)),
        );
        let mut out = Vec::new();
        o.on_element(t("k", 10, 0).borrowed(), &mut out).unwrap();
        o.on_element(t("k", 20, 40).borrowed(), &mut out).unwrap();
        o.on_element(t("k", 30, 20).borrowed(), &mut out).unwrap();
        o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(u64_of(&out[0].value), 60);
    }

    /// A backend that logs every call the session paths make, so two
    /// operators can be compared call for call.
    struct Recording {
        inner: InMemoryBackend,
        calls: Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl Recording {
        fn log(&self, call: String) {
            self.calls.lock().unwrap().push(call);
        }
    }

    impl StateBackend for Recording {
        fn append(&mut self, k: &[u8], w: WindowId, v: &[u8], ts: Timestamp) -> Result<()> {
            self.log(format!("append {k:?} {w:?} {v:?} {ts}"));
            self.inner.append(k, w, v, ts)
        }
        fn get_window_chunk(
            &mut self,
            w: WindowId,
        ) -> Result<Option<flowkv_common::backend::WindowChunk>> {
            self.inner.get_window_chunk(w)
        }
        fn take_values(&mut self, k: &[u8], w: WindowId) -> Result<Vec<Vec<u8>>> {
            self.log(format!("take_values {k:?} {w:?}"));
            self.inner.take_values(k, w)
        }
        fn peek_values(&mut self, k: &[u8], w: WindowId) -> Result<Vec<Vec<u8>>> {
            self.inner.peek_values(k, w)
        }
        fn take_aggregate(&mut self, k: &[u8], w: WindowId) -> Result<Option<Vec<u8>>> {
            self.log(format!("take_aggregate {k:?} {w:?}"));
            self.inner.take_aggregate(k, w)
        }
        fn put_aggregate(&mut self, k: &[u8], w: WindowId, a: &[u8]) -> Result<()> {
            self.log(format!("put_aggregate {k:?} {w:?} {a:?}"));
            self.inner.put_aggregate(k, w, a)
        }
        fn flush(&mut self) -> Result<()> {
            self.inner.flush()
        }
        fn extract_range(
            &mut self,
            in_range: flowkv_common::backend::KeyFilter<'_>,
            kind: flowkv_common::backend::AggregateKind,
        ) -> Result<Vec<flowkv_common::backend::StateEntry>> {
            self.inner.extract_range(in_range, kind)
        }
        fn metrics(&self) -> Arc<flowkv_common::metrics::StoreMetrics> {
            self.inner.metrics()
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn checkpoint(&mut self, dir: &std::path::Path) -> Result<()> {
            self.inner.checkpoint(dir)
        }
        fn restore(&mut self, dir: &std::path::Path) -> Result<()> {
            self.inner.restore(dir)
        }
        fn close(&mut self) -> Result<()> {
            self.inner.close()
        }
    }

    impl WindowOperator {
        /// [`WindowOperator::on_element`] for a session operator with
        /// every tuple sent through the general step: the reference the
        /// in-place extend is checked against.
        fn on_session_element_reference(&mut self, tuple: &Tuple, gap: i64) {
            if self.late.drops(tuple.borrowed(), self.watermark) {
                return;
            }
            let proto = WindowId::new(tuple.timestamp, tuple.timestamp.saturating_add(gap));
            self.merge_sessions(tuple.borrowed(), proto).unwrap();
        }
    }

    /// The timer invariant: every open session of a key has a timer of
    /// that key at or before its end.
    fn assert_timer_invariant(o: &WindowOperator) {
        for (key, sessions) in &o.sessions {
            for s in sessions {
                let covered = |(at, k): &(Timestamp, Vec<u8>)| k == key && *at <= s.cover.end;
                assert!(
                    o.session_timers.iter().any(covered),
                    "no timer covers {s:?} of {key:?} in {:?}",
                    o.session_timers
                );
            }
        }
    }

    fn session_median_op(gap: i64) -> WindowOperator {
        op(
            WindowAssigner::Session { gap },
            AggregateSpec::FullList(Arc::new(MedianProcess)),
        )
    }

    #[test]
    fn a_watermark_fires_its_expired_sessions_in_key_then_end_order_every_run() {
        let run = || {
            let mut o = session_median_op(10);
            let mut out = Vec::new();
            // `a` holds two sessions with one of `b` ending between them,
            // `c` one that in-place extensions moved past both of `d`'s
            // (its only timer sits at its first end, 13, and pops before
            // either of `d`'s), `e` one the watermark leaves open.
            let tuples = [
                ("a", 0),
                ("a", 50),
                ("b", 20),
                ("c", 3),
                ("c", 9),
                ("c", 15),
                ("c", 21),
                ("d", 5),
                ("d", 18),
                ("e", 95),
            ];
            for (i, (key, ts)) in tuples.into_iter().enumerate() {
                o.on_element(t(key, i as u64, ts).borrowed(), &mut out)
                    .unwrap();
            }
            o.on_watermark(100, &mut out).unwrap();
            assert_timer_invariant(&o);
            assert_eq!(o.sessions.len(), 1);
            out
        };
        let out = run();
        let fired: Vec<(i64, &[u8])> = out.iter().map(|t| (t.timestamp + 1, &t.key[..])).collect();
        let expect: [(i64, &[u8]); 6] = [
            (10, b"a"),
            (60, b"a"),
            (30, b"b"),
            (31, b"c"),
            (15, b"d"),
            (28, b"d"),
        ];
        assert_eq!(fired, expect);
        // The session maps hash under a fresh seed per operator.
        for _ in 0..4 {
            assert_eq!(run(), out);
        }
    }

    #[test]
    fn extending_sessions_arms_no_timer_and_a_pop_re_arms_its_key_once() {
        const KEYS: u64 = 50;
        const GAP: i64 = 100;
        let mut o = session_median_op(GAP);
        let mut out = Vec::new();
        let key = |k: u64| format!("key-{k:02}");
        // Five keys open two sessions each and a late tuple bridges them.
        let mut merges = 0;
        for k in 0..5 {
            for ts in [0, 2 * GAP, GAP] {
                o.on_element(t(&key(k), 0, ts).borrowed(), &mut out)
                    .unwrap();
                merges += 1;
            }
        }
        // Every key then extends its one session, a tuple every 50 ms
        // against a gap of 100, with a watermark every 400 tuples that
        // pops every key's timer and expires nothing.
        let (mut tuples, mut pops, mut watermarks) = (merges, 0, 0);
        for i in 0..KEYS * 80 {
            let ts = 5 * GAP / 2 + i as i64;
            let k = i % KEYS;
            merges += u64::from(k >= 5 && i < KEYS);
            o.on_element(t(&key(k), i, ts).borrowed(), &mut out)
                .unwrap();
            tuples += 1;
            if i % 400 == 399 {
                let due = |(at, _): &&(Timestamp, Vec<u8>)| *at <= ts;
                pops += o.session_timers.iter().filter(due).count() as u64;
                o.on_watermark(ts, &mut out).unwrap();
                watermarks += 1;
                assert!(out.is_empty(), "a session expired early");
            }
            assert!(o.session_timers.len() as u64 <= merges);
            assert_timer_invariant(&o);
        }
        assert_eq!((tuples, merges, watermarks), (4_015, 60, 10));
        assert!(pops >= KEYS * watermarks);
        assert!(o.timers_armed <= merges + pops, "{}", o.timers_armed);
        // One timer per tuple would be eight times that.
        assert!(o.timers_armed < tuples / 4, "{}", o.timers_armed);
        o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
        assert_eq!(out.len() as u64, KEYS);
        assert!(o.sessions.is_empty() && o.session_timers.is_empty());
    }

    #[test]
    fn a_snapshot_holding_one_timer_per_tuple_restores_and_fires_like_a_fresh_run() {
        use flowkv_common::scratch::ScratchDir;
        const GAP: i64 = 30;
        let key = |i: u64| format!("key-{}", i * 7 % 5);
        let prefix: Vec<Tuple> = (0..60u64).map(|i| t(&key(i), i, i as i64 * 4)).collect();
        let suffix: Vec<Tuple> = (60..140u64)
            .map(|i| t(&key(i), i, i as i64 * 4 + (i % 3) as i64 * 40))
            .collect();
        let fed = |tuples: &[Tuple]| {
            let mut o = session_median_op(GAP);
            for tuple in tuples {
                o.on_element(tuple.borrowed(), &mut Vec::new()).unwrap();
            }
            o
        };
        // What this operator holds at the cut, and what its parent held:
        // a timer for every end a session ever had.
        let native = ScratchDir::new("op-timers-native").unwrap();
        fed(&prefix).checkpoint(native.path()).unwrap();
        let mut parent = fed(&prefix);
        for tuple in &prefix {
            parent
                .session_timers
                .insert((tuple.timestamp + GAP, tuple.key.clone()));
        }
        assert_eq!(parent.session_timers.len(), prefix.len());
        let old = ScratchDir::new("op-timers-parent").unwrap();
        parent.checkpoint(old.path()).unwrap();
        let size = |dir: &ScratchDir| std::fs::metadata(dir.path().join("OPSTATE")).unwrap().len();
        assert!(size(&native) < size(&old));

        let finish = |mut o: WindowOperator| {
            let mut out = Vec::new();
            for (i, tuple) in suffix.iter().enumerate() {
                o.on_element(tuple.borrowed(), &mut out).unwrap();
                if i % 16 == 15 {
                    o.on_watermark(tuple.timestamp - 60, &mut out).unwrap();
                    assert_timer_invariant(&o);
                }
            }
            o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
            assert!(o.sessions.is_empty() && o.session_timers.is_empty());
            (out, o.dropped_late())
        };
        let fresh = finish(fed(&prefix));
        assert!(fresh.0.len() > 10);
        for snapshot in [&native, &old] {
            let mut restored = session_median_op(GAP);
            restored.restore(snapshot.path()).unwrap();
            assert_eq!(finish(restored), fresh);
        }
    }

    #[derive(Clone, Debug)]
    enum SessionOp {
        Element { key: u8, value: u8, ts: i64 },
        Watermark(i64),
    }

    use proptest::prelude::*;

    /// 64 cases unless `PROPTEST_CASES` says otherwise (CI's crash-matrix
    /// job runs 256).
    fn cases() -> u32 {
        let cases = std::env::var("PROPTEST_CASES").ok();
        cases.and_then(|n| n.parse().ok()).unwrap_or(64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// In-order, out-of-order, bridging and late tuples interleaved
        /// with watermarks: the in-place extend and the general step
        /// fire byte-identical outputs, issue the identical store-call
        /// sequence, and leave the same sessions behind — under different
        /// timer sets (the general step arms one per tuple), each of
        /// which keeps the timer invariant.
        #[test]
        fn extending_a_session_in_place_matches_the_general_step(
            ops in prop::collection::vec(
                prop_oneof![
                    8 => (0u8..3, any::<u8>(), 0i64..400).prop_map(
                        |(key, value, ts)| SessionOp::Element { key, value, ts }),
                    1 => (0i64..400).prop_map(SessionOp::Watermark),
                ],
                1..120,
            ),
            incremental in any::<bool>(),
        ) {
            const GAP: i64 = 20;
            let make = || {
                let calls = Arc::new(std::sync::Mutex::new(Vec::new()));
                let aggregate = if incremental {
                    AggregateSpec::Incremental(Arc::new(SumAggregate))
                } else {
                    AggregateSpec::FullList(Arc::new(MedianProcess))
                };
                let spec = WindowSpec {
                    name: "test".into(),
                    assigner: WindowAssigner::Session { gap: GAP },
                    aggregate,
                };
                let backend = Recording {
                    inner: InMemoryBackend::new(1 << 20, 8),
                    calls: Arc::clone(&calls),
                };
                (WindowOperator::new(spec, Box::new(backend)), calls)
            };
            let (mut fast, fast_calls) = make();
            let (mut reference, reference_calls) = make();
            let (mut fast_out, mut reference_out) = (Vec::new(), Vec::new());
            let mut watermark = i64::MIN;
            let finish = SessionOp::Watermark(MAX_TIMESTAMP);
            for op in ops.iter().chain([&finish]) {
                match *op {
                    SessionOp::Element { key, value, ts } => {
                        let tuple = t(&format!("k{key}"), u64::from(value), ts);
                        fast.on_element(tuple.borrowed(), &mut fast_out).unwrap();
                        reference.on_session_element_reference(&tuple, GAP);
                    }
                    SessionOp::Watermark(ts) => {
                        watermark = watermark.max(ts);
                        fast.on_watermark(watermark, &mut fast_out).unwrap();
                        reference.on_watermark(watermark, &mut reference_out).unwrap();
                    }
                }
                assert_eq!(*fast_calls.lock().unwrap(), *reference_calls.lock().unwrap());
                assert_eq!(fast_out, reference_out);
                assert_eq!(fast.dropped_late(), reference.dropped_late());
                let sessions = |o: &WindowOperator| {
                    let mut rows: Vec<_> = o
                        .sessions
                        .iter()
                        .map(|(k, ss)| (k.clone(), format!("{ss:?}")))
                        .collect();
                    rows.sort();
                    rows
                };
                assert_eq!(sessions(&fast), sessions(&reference));
                assert_timer_invariant(&fast);
                assert_timer_invariant(&reference);
            }
        }
    }

    #[test]
    fn count_windows_fire_on_size() {
        let mut o = op(
            WindowAssigner::Count { size: 3 },
            AggregateSpec::Incremental(Arc::new(SumAggregate)),
        );
        let mut out = Vec::new();
        for i in 1..=7u64 {
            o.on_element(t("k", i, i as i64).borrowed(), &mut out)
                .unwrap();
        }
        // Two full windows fired: 1+2+3 and 4+5+6.
        assert_eq!(out.len(), 2);
        assert_eq!(u64_of(&out[0].value), 6);
        assert_eq!(u64_of(&out[1].value), 15);
    }

    #[test]
    fn late_tuples_can_be_collected_as_side_output() {
        let mut o = op(
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        );
        o.set_collect_late(true);
        let mut out = Vec::new();
        o.on_watermark(100, &mut out).unwrap();
        o.on_element(t("k", 7, 50).borrowed(), &mut out).unwrap();
        let late = o.take_late();
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].timestamp, 50);
        assert!(o.take_late().is_empty());
    }

    #[test]
    fn late_tuples_are_dropped() {
        let mut o = op(
            WindowAssigner::Fixed { size: 100 },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        );
        let mut out = Vec::new();
        o.on_element(t("k", 1, 10).borrowed(), &mut out).unwrap();
        o.on_watermark(100, &mut out).unwrap();
        out.clear();
        o.on_element(t("k", 1, 50).borrowed(), &mut out).unwrap();
        assert_eq!(o.dropped_late(), 1);
        o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn checkpoint_restores_engine_and_store_state() {
        use flowkv_common::scratch::ScratchDir;
        let ckpt = ScratchDir::new("op-ckpt").unwrap();
        let make = || {
            op(
                WindowAssigner::Session { gap: 50 },
                AggregateSpec::FullList(Arc::new(MedianProcess)),
            )
        };
        let mut a = make();
        let mut out = Vec::new();
        // First half of the stream: open sessions for three keys.
        for (key, v, ts) in [("a", 10, 0), ("a", 20, 30), ("b", 5, 40), ("c", 7, 45)] {
            a.on_element(t(key, v, ts).borrowed(), &mut out).unwrap();
        }
        a.checkpoint(ckpt.path()).unwrap();

        // Continue on the original operator for reference outputs.
        let mut ref_out = Vec::new();
        a.on_element(t("a", 30, 60).borrowed(), &mut ref_out)
            .unwrap();
        a.on_watermark(MAX_TIMESTAMP, &mut ref_out).unwrap();

        // Restore into a fresh operator and replay the same remainder.
        let mut b = make();
        b.restore(ckpt.path()).unwrap();
        let mut res_out = Vec::new();
        b.on_element(t("a", 30, 60).borrowed(), &mut res_out)
            .unwrap();
        b.on_watermark(MAX_TIMESTAMP, &mut res_out).unwrap();

        let sorted = |mut v: Vec<Tuple>| {
            v.sort_by(|x, y| (&x.key, &x.value).cmp(&(&y.key, &y.value)));
            v
        };
        assert_eq!(sorted(res_out), sorted(ref_out));
    }

    #[test]
    fn checkpoint_restores_count_window_progress() {
        use flowkv_common::scratch::ScratchDir;
        let ckpt = ScratchDir::new("op-count-ckpt").unwrap();
        let make = || {
            op(
                WindowAssigner::Count { size: 3 },
                AggregateSpec::Incremental(Arc::new(SumAggregate)),
            )
        };
        let mut a = make();
        let mut out = Vec::new();
        a.on_element(t("k", 1, 1).borrowed(), &mut out).unwrap();
        a.on_element(t("k", 2, 2).borrowed(), &mut out).unwrap();
        a.checkpoint(ckpt.path()).unwrap();

        let mut b = make();
        b.restore(ckpt.path()).unwrap();
        let mut out = Vec::new();
        // The third element completes the restored window: 1 + 2 + 3.
        b.on_element(t("k", 3, 3).borrowed(), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(u64_of(&out[0].value), 6);
    }

    #[test]
    fn global_window_fires_at_end_of_stream() {
        let mut o = op(
            WindowAssigner::Global,
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        );
        let mut out = Vec::new();
        for i in 0..5 {
            o.on_element(t("k", i, i as i64).borrowed(), &mut out)
                .unwrap();
        }
        o.on_watermark(1_000_000, &mut out).unwrap();
        assert!(out.is_empty(), "global window fired early");
        o.on_watermark(MAX_TIMESTAMP, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(u64_of(&out[0].value), 5);
    }
}
