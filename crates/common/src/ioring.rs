//! Background I/O ring: a completion-queue-style submission API backed by
//! a small thread pool over the [`Vfs`](crate::vfs::Vfs) seam.
//!
//! The ring exists so stores can move *anticipatable* reads — predictive
//! batch reads ahead of an ETT-predicted trigger, per-window AAR log
//! scans, LSM block warm-ups, serving snapshots — off the worker's hot
//! path. The shape deliberately mirrors io_uring: callers `submit` jobs
//! tagged with an opaque `tag`, the pool executes them against the ring's
//! shared `Arc<dyn Vfs>`, and callers later `drain_tag` finished
//! completions (non-blocking) or `wait` on a specific submission.
//!
//! Two properties make the ring safe to thread through a deterministic,
//! fault-injected system:
//!
//! 1. **Faults still fire.** Jobs receive the ring's VFS handle — the
//!    *same* `FaultVfs` the rest of the worker uses — so the global fault
//!    op counter covers background I/O too. A `FaultKind::Crash` that
//!    fires on a pool thread panics there; the ring catches the unwind,
//!    parks the payload in the completion, and re-raises it verbatim on
//!    the worker thread when the completion is consumed
//!    ([`Completion::into_result`]). The supervisor sees an ordinary
//!    worker panic and recovery proceeds as if the read had been
//!    synchronous.
//! 2. **Order never matters.** Completions are a bag, not a queue:
//!    consumers must validate results against current store state before
//!    installing them. [`IoRing::with_shuffle_seed`] builds a ring that
//!    inserts completions at seeded pseudo-random positions so tests can
//!    prove output equivalence under adversarial completion orderings.
//!
//! Stores do not drive the ring directly. Every read-ahead user — AAR
//! window files, AUR predictive batches, the cold tier's blocks, the
//! LSM's block warm-ups — goes through one [`Lane`], which owns the
//! submission lifecycle (in-flight table, byte budget, drain, wait,
//! abandon, panic re-raise, accounting); a store supplies only its
//! candidates, the job body and the validate-then-install check. The
//! lane is also the only code that knows whether a ring exists: a store
//! without one holds a lane of width zero, which runs the same job
//! bodies on the worker thread.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::io;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::telemetry::{Counter, Histogram, Telemetry};
use crate::types::Timestamp;
use crate::vfs::Vfs;

/// A background job: runs on a pool thread against the ring's VFS and
/// returns an arbitrary payload for the submitter to downcast.
pub type IoJob = Box<dyn FnOnce(&Arc<dyn Vfs>) -> io::Result<Box<dyn Any + Send>> + Send>;

/// How a background job ended.
pub enum IoOutcome {
    /// The job returned a payload.
    Ok(Box<dyn Any + Send>),
    /// The job returned an I/O error (e.g. an injected fault).
    Err(io::Error),
    /// The job panicked; the unwind payload is carried so the consumer
    /// can re-raise it on its own thread.
    Panicked(Box<dyn Any + Send>),
}

impl std::fmt::Debug for IoOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoOutcome::Ok(_) => f.write_str("IoOutcome::Ok(..)"),
            IoOutcome::Err(e) => write!(f, "IoOutcome::Err({e})"),
            IoOutcome::Panicked(_) => f.write_str("IoOutcome::Panicked(..)"),
        }
    }
}

/// A finished submission.
///
/// The three timestamps (nanoseconds from the ring's creation) record
/// the job's full lifecycle — `submit` when it was queued, `start`
/// when a pool thread picked it up, `done` when it finished — so
/// consumers can distinguish queueing delay from execution time. The
/// `start − submit` gap also feeds the `prefetch_queue_delay_nanos`
/// histogram when the ring carries a telemetry handle.
#[derive(Debug)]
pub struct Completion {
    /// The id `submit` returned for this job.
    pub id: u64,
    /// The caller-chosen routing tag the job was submitted under.
    pub tag: u64,
    /// The job's result.
    pub outcome: IoOutcome,
    /// Nanoseconds (ring epoch) when the job was submitted.
    pub submit_nanos: u64,
    /// Nanoseconds (ring epoch) when a pool thread started the job.
    pub start_nanos: u64,
    /// Nanoseconds (ring epoch) when the job finished.
    pub done_nanos: u64,
}

impl Completion {
    /// Time the job sat queued before a pool thread picked it up.
    pub fn queue_delay_nanos(&self) -> u64 {
        self.start_nanos.saturating_sub(self.submit_nanos)
    }
}

impl Completion {
    /// Unwraps the payload, re-raising a captured panic on the calling
    /// thread — this is what keeps injected crash faults deterministic:
    /// the original panic payload surfaces on the worker exactly where
    /// the completion is consumed.
    pub fn into_result(self) -> io::Result<Box<dyn Any + Send>> {
        match self.outcome {
            IoOutcome::Ok(payload) => Ok(payload),
            IoOutcome::Err(e) => Err(e),
            IoOutcome::Panicked(payload) => resume_unwind(payload),
        }
    }
}

/// Per-worker I/O policy: how many ring threads each backend runs.
/// Carried on [`OperatorContext`](crate::backend::OperatorContext) so each
/// backend factory can build a ring over its own VFS.
#[derive(Clone, Debug)]
pub struct IoPolicy {
    /// Pool threads per backend ring. `0` builds no ring: the stores
    /// keep their [`Lane::inline`] lane and every read runs on the
    /// worker thread.
    pub threads: usize,
    /// Test knob: when set, completions are inserted at seeded
    /// pseudo-random queue positions to exercise reordering.
    pub shuffle_seed: Option<u64>,
}

impl IoPolicy {
    /// A policy with `threads` ring threads and in-order completions.
    pub fn with_threads(threads: usize) -> Self {
        IoPolicy {
            threads,
            shuffle_seed: None,
        }
    }
}

struct QueuedJob {
    id: u64,
    tag: u64,
    job: IoJob,
    submit_nanos: u64,
    /// Trace context captured from the submitting thread, so the pool
    /// thread's span parents to the exact store call that issued the
    /// read ([`crate::trace`]).
    ctx: Option<crate::trace::TraceCtx>,
}

struct RingState {
    queue: VecDeque<QueuedJob>,
    completions: Vec<Completion>,
    in_flight: usize,
    next_id: u64,
    shutdown: bool,
    shuffle: Option<u64>,
}

struct Shared {
    state: Mutex<RingState>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when a completion lands.
    done: Condvar,
    /// Clock origin for the completion timestamps.
    epoch: std::time::Instant,
    /// When present: queue-delay histogram plus span recording for
    /// traced jobs.
    telemetry: Option<Arc<crate::telemetry::Telemetry>>,
}

/// The ring itself. Clone the `Arc<IoRing>` freely; submissions from any
/// thread are fair-queued to the pool.
pub struct IoRing {
    shared: Arc<Shared>,
    vfs: Arc<dyn Vfs>,
    workers: Vec<JoinHandle<()>>,
}

impl IoRing {
    /// Builds a ring with `threads` pool threads (min 1) over `vfs`.
    pub fn new(vfs: Arc<dyn Vfs>, threads: usize) -> Self {
        Self::build(vfs, threads, None, None)
    }

    /// Like [`IoRing::new`] but completions are inserted at seeded
    /// pseudo-random positions among the already-pending completions, so
    /// drain order is adversarial yet reproducible.
    pub fn with_shuffle_seed(vfs: Arc<dyn Vfs>, threads: usize, seed: u64) -> Self {
        Self::build(vfs, threads, Some(seed), None)
    }

    /// The constructor backend factories use: optional seeded shuffle
    /// plus a telemetry handle. With telemetry the ring records the
    /// `prefetch_queue_delay_nanos` histogram on every completion and,
    /// when a tracer is installed, an `io`-category span for every job
    /// submitted under an active trace context.
    pub fn with_telemetry(
        vfs: Arc<dyn Vfs>,
        threads: usize,
        shuffle: Option<u64>,
        telemetry: Option<Arc<crate::telemetry::Telemetry>>,
    ) -> Self {
        Self::build(vfs, threads, shuffle, telemetry)
    }

    fn build(
        vfs: Arc<dyn Vfs>,
        threads: usize,
        shuffle: Option<u64>,
        telemetry: Option<Arc<crate::telemetry::Telemetry>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(RingState {
                queue: VecDeque::new(),
                completions: Vec::new(),
                in_flight: 0,
                next_id: 0,
                shutdown: false,
                shuffle,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch: std::time::Instant::now(),
            telemetry,
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let vfs = Arc::clone(&vfs);
                std::thread::Builder::new()
                    .name(format!("flowkv-ioring-{i}"))
                    .spawn(move || worker_loop(shared, vfs))
                    .expect("spawn ioring worker")
            })
            .collect();
        IoRing {
            shared,
            vfs,
            workers,
        }
    }

    /// The VFS the ring's jobs run against.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Queues `job` under `tag` and returns its submission id. The
    /// submitting thread's active trace context (if any) rides along so
    /// the job's span links back to the store call that issued it.
    pub fn submit(&self, tag: u64, job: IoJob) -> u64 {
        let submit_nanos = self.shared.epoch.elapsed().as_nanos() as u64;
        let ctx = crate::trace::current();
        let mut st = self.shared.state.lock().expect("ioring lock");
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push_back(QueuedJob {
            id,
            tag,
            job,
            submit_nanos,
            ctx,
        });
        drop(st);
        self.shared.work.notify_one();
        id
    }

    /// Removes and returns every finished completion for `tag` without
    /// blocking. Jobs still queued or running are left alone.
    pub fn drain_tag(&self, tag: u64) -> Vec<Completion> {
        let mut st = self.shared.state.lock().expect("ioring lock");
        let mut out = Vec::new();
        let mut i = 0;
        while i < st.completions.len() {
            if st.completions[i].tag == tag {
                out.push(st.completions.remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Blocks until submission `id` completes and returns it.
    pub fn wait(&self, id: u64) -> Completion {
        let mut st = self.shared.state.lock().expect("ioring lock");
        loop {
            if let Some(pos) = st.completions.iter().position(|c| c.id == id) {
                return st.completions.remove(pos);
            }
            st = self.shared.done.wait(st).expect("ioring wait");
        }
    }

    /// Blocks until nothing is queued or running. Finished completions
    /// are left in place for `drain_tag`/`wait`.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("ioring lock");
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.shared.done.wait(st).expect("ioring idle");
        }
    }

    /// Submissions queued or running (completions not yet drained do not
    /// count).
    pub fn pending(&self) -> usize {
        let st = self.shared.state.lock().expect("ioring lock");
        st.queue.len() + st.in_flight
    }
}

impl Drop for IoRing {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("ioring lock");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, vfs: Arc<dyn Vfs>) {
    // Resolved lazily because the tracer is typically installed on the
    // telemetry handle after the backend (and its ring) was built.
    let mut recorder: Option<Arc<crate::trace::SpanRecorder>> = None;
    let queue_delay = shared
        .telemetry
        .as_ref()
        .map(|t| t.registry().histogram("prefetch_queue_delay_nanos"));
    loop {
        let queued = {
            let mut st = shared.state.lock().expect("ioring lock");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).expect("ioring worker wait");
            }
        };
        let QueuedJob {
            id,
            tag,
            job,
            submit_nanos,
            ctx,
        } = queued;
        let start_nanos = shared.epoch.elapsed().as_nanos() as u64;
        let span = ctx.and_then(|ctx| {
            if recorder.is_none() {
                recorder = shared.telemetry.as_ref().and_then(|t| t.trace()).map(|h| {
                    let name = std::thread::current()
                        .name()
                        .unwrap_or("ioring")
                        .to_string();
                    h.thread(&name)
                });
            }
            recorder.as_ref().map(|rec| {
                rec.begin_with(
                    "io_job",
                    "io",
                    Some(ctx),
                    vec![
                        ("job", id as i64),
                        ("tag", tag as i64),
                        (
                            "queue_delay",
                            start_nanos.saturating_sub(submit_nanos) as i64,
                        ),
                    ],
                )
            })
        });
        let outcome = match catch_unwind(AssertUnwindSafe(|| job(&vfs))) {
            Ok(Ok(payload)) => IoOutcome::Ok(payload),
            Ok(Err(e)) => IoOutcome::Err(e),
            Err(payload) => IoOutcome::Panicked(payload),
        };
        let done_nanos = shared.epoch.elapsed().as_nanos() as u64;
        if let (Some(span), Some(rec)) = (span, recorder.as_ref()) {
            rec.end_with(
                span,
                "io_job",
                "io",
                vec![("ok", matches!(outcome, IoOutcome::Ok(_)) as i64)],
            );
        }
        if let Some(h) = &queue_delay {
            h.record(start_nanos.saturating_sub(submit_nanos));
        }
        let mut st = shared.state.lock().expect("ioring lock");
        st.in_flight -= 1;
        let completion = Completion {
            id,
            tag,
            outcome,
            submit_nanos,
            start_nanos,
            done_nanos,
        };
        match st.shuffle {
            Some(ref mut seed) => {
                // SplitMix64 step, mirroring vfs::FaultPlan's generator, so
                // reorder tests are reproducible from a single seed.
                *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let pos = (z as usize) % (st.completions.len() + 1);
                st.completions.insert(pos, completion);
            }
            None => st.completions.push(completion),
        }
        drop(st);
        shared.done.notify_all();
    }
}

/// How far past current stream time (milliseconds of event time) a
/// window's trigger may lie for its state to be read ahead.
const PREFETCH_HORIZON_MS: i64 = 500;

/// Soft cap on bytes of read-ahead state per lane: what the store holds
/// installed plus what is still in flight.
const PREFETCH_BUDGET_BYTES: u64 = 8 << 20;

/// Prefetch-accuracy telemetry of one store instance.
///
/// The Zapridou & Ailamaki framing: a prefetch is only useful when it is
/// both *timely* (completes before the window fires) and *accurate* (the
/// data is still what the trigger needs). These families measure exactly
/// that:
///
/// - `prefetch_issued_total{store=…}` — windows submitted to the ring;
/// - `prefetch_hits_total{store=…}` — reads served from prefetched state;
/// - `prefetch_late_total{store=…}` — windows whose trigger fired while
///   their read was still in flight (the foreground fell back to a
///   synchronous read); counted once, at the trigger — the completion
///   that later finds the window consumed is waste, not a second late;
/// - `prefetch_wasted_bytes{store=…}` — bytes loaded in the background
///   and then discarded because validation failed (the store compacted,
///   restored, or appended under the in-flight read);
/// - `prefetch_timeliness_ms{store=…}` — histogram of the ETT
///   predicted-vs-actual absolute error on prefetch-served reads: how
///   much slack (or deficit) the predictor gave the scheduler.
///
/// The store counts what its foreground reads observe (`hits`, `late`,
/// `timeliness_ms`); submissions and waste are counted by the [`Lane`]
/// the probe is attached to.
#[derive(Clone)]
pub struct PrefetchProbe {
    issued: Arc<Counter>,
    wasted_bytes: Arc<Counter>,
    /// Reads served from prefetched state.
    pub hits: Arc<Counter>,
    /// Prefetches that lost the race with their window's trigger.
    pub late: Arc<Counter>,
    /// ETT |actual − predicted| (ms) on prefetch-served reads.
    pub timeliness_ms: Arc<Histogram>,
}

impl PrefetchProbe {
    /// Resolves the probe's metric families, labelled `{store=tag}`.
    pub fn new(telemetry: &Telemetry, tag: &str) -> Self {
        let registry = telemetry.registry();
        PrefetchProbe {
            issued: registry.counter(&format!("prefetch_issued_total{{store={tag}}}")),
            hits: registry.counter(&format!("prefetch_hits_total{{store={tag}}}")),
            late: registry.counter(&format!("prefetch_late_total{{store={tag}}}")),
            wasted_bytes: registry.counter(&format!("prefetch_wasted_bytes{{store={tag}}}")),
            timeliness_ms: registry.histogram(&format!("prefetch_timeliness_ms{{store={tag}}}")),
        }
    }
}

/// How a lane job's [`StoreError`](crate::error::StoreError) reaches
/// the foreground: as text, which the caller re-wraps with path context.
fn as_io_error(e: crate::error::StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Wraps a typed lane job as a ring job.
fn erase<R: Send + 'static>(
    job: impl FnOnce(&Arc<dyn Vfs>) -> crate::error::Result<R> + Send + 'static,
) -> IoJob {
    Box::new(move |vfs| match job(vfs) {
        Ok(payload) => Ok(Box::new(payload) as Box<dyn Any + Send>),
        Err(e) => Err(as_io_error(e)),
    })
}

/// Unwraps a completion of an [`erase`]d job, re-raising a captured
/// panic on the calling thread.
fn unerase<R: 'static>(completion: Completion) -> io::Result<R> {
    completion.into_result().map(|payload| {
        *payload
            .downcast::<R>()
            .expect("lane completion carries the payload type its job returned")
    })
}

/// Where a lane's jobs run.
enum Pool {
    /// On the threads of a (possibly shared) ring, against its VFS.
    Ring(Arc<IoRing>),
    /// On the calling thread, against this VFS: the lane of width zero.
    Inline(Arc<dyn Vfs>),
}

/// One store's read-ahead lane on a (possibly shared) [`IoRing`].
///
/// The lane owns everything about a background read that is not the
/// store's own business: the ring handle and routing tag, which keys
/// (`K`: a window, a `(key, window)` pair, a block) have a read in
/// flight and how many bytes those reads are expected to bring, the
/// horizon and byte budget that bound read-ahead, collecting finished
/// reads, and the `prefetch_*` accounting. Payloads (`T`) are a bag:
/// they arrive in any order and the store must validate each against
/// its current state before installing it.
///
/// The lane is also the one place that knows whether a ring exists. A
/// lane [without threads](Lane::inline) has width zero: it admits no
/// read-ahead, so nothing is ever in flight, and a read-through job
/// runs on the calling thread — the same closure against the same
/// `Vfs`, its error crossing back as the same text. Stores therefore
/// hold a plain `Lane` and never ask which kind they have.
///
/// A panic captured on a pool thread (an injected crash fault)
/// re-raises on the calling thread from whichever method consumes that
/// completion, after the lane's own bookkeeping is unwound.
pub struct Lane<K, T> {
    pool: Pool,
    tag: u64,
    /// Submission id → (keys the read covers, estimated bytes).
    inflight: HashMap<u64, (Vec<K>, u64)>,
    /// Key → the submission covering it.
    by_key: HashMap<K, u64>,
    inflight_bytes: u64,
    probe: Option<PrefetchProbe>,
    _payload: PhantomData<fn() -> T>,
}

impl<K: Hash + Eq + Clone, T: Send + 'static> Lane<K, T> {
    /// A lane submitting to `ring` under routing tag `tag`.
    pub fn new(ring: Arc<IoRing>, tag: u64) -> Self {
        Self::on(Pool::Ring(ring), tag)
    }

    /// A lane without threads over `vfs`: no read-ahead, and every
    /// read-through job runs on the caller's thread.
    pub fn inline(vfs: Arc<dyn Vfs>) -> Self {
        Self::on(Pool::Inline(vfs), 0)
    }

    fn on(pool: Pool, tag: u64) -> Self {
        Lane {
            pool,
            tag,
            inflight: HashMap::new(),
            by_key: HashMap::new(),
            inflight_bytes: 0,
            probe: None,
            _payload: PhantomData,
        }
    }

    /// Counts this lane's submissions and waste on `probe`.
    pub fn set_probe(&mut self, probe: PrefetchProbe) {
        self.probe = Some(probe);
    }

    /// Latest trigger time worth reading ahead for at `stream_time`.
    pub fn due(&self, stream_time: Timestamp) -> Timestamp {
        stream_time.saturating_add(PREFETCH_HORIZON_MS)
    }

    /// Whether a read of `est_bytes` fits the budget, given `resident`
    /// bytes of read-ahead state the store already holds installed. A
    /// lane without threads admits nothing, not even `admits(0, 0)` —
    /// which is how a store asks whether read-ahead is worth planning.
    pub fn admits(&self, resident: u64, est_bytes: u64) -> bool {
        matches!(self.pool, Pool::Ring(_))
            && resident + self.inflight_bytes + est_bytes <= PREFETCH_BUDGET_BYTES
    }

    /// The byte budget itself: what a store without a ring, whose reads
    /// never pass [`Lane::admits`], bounds its read-ahead state by.
    pub fn budget(&self) -> u64 {
        PREFETCH_BUDGET_BYTES
    }

    /// True when no submission is outstanding.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// True when an outstanding submission covers `key`.
    pub fn covers(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    /// Submits one background read covering `keys`, expected to bring
    /// about `est_bytes`. The job runs on a pool thread against the
    /// ring's VFS and must not touch store state. Read-ahead is
    /// advisory, so a lane without threads refuses: the job is dropped
    /// unrun and nothing is ever in flight.
    pub fn submit(
        &mut self,
        keys: Vec<K>,
        est_bytes: u64,
        job: impl FnOnce(&Arc<dyn Vfs>) -> crate::error::Result<T> + Send + 'static,
    ) {
        let Pool::Ring(ring) = &self.pool else {
            return;
        };
        let id = ring.submit(self.tag, erase(job));
        if let Some(p) = &self.probe {
            p.issued.add(keys.len() as u64);
        }
        for key in &keys {
            self.by_key.insert(key.clone(), id);
        }
        self.inflight.insert(id, (keys, est_bytes));
        self.inflight_bytes += est_bytes;
    }

    /// The ring behind a read in flight: only a lane with one admits a
    /// submission.
    fn ring(&self) -> &IoRing {
        match &self.pool {
            Pool::Ring(ring) => ring,
            Pool::Inline(_) => unreachable!("a read in flight implies a ring"),
        }
    }

    /// Drops the bookkeeping of submission `id`; false when the lane
    /// never tracked it.
    fn forget(&mut self, id: u64) -> bool {
        let Some((keys, est_bytes)) = self.inflight.remove(&id) else {
            return false;
        };
        for key in &keys {
            self.by_key.remove(key);
        }
        self.inflight_bytes -= est_bytes;
        true
    }

    /// Collects every finished read without blocking. An `Err` is a
    /// read that failed in the background — never a store failure: the
    /// foreground simply reads synchronously when it needs the data.
    pub fn drain(&mut self) -> Vec<io::Result<T>> {
        if self.is_idle() {
            return Vec::new();
        }
        let mut done = self.ring().drain_tag(self.tag);
        done.retain(|c| self.forget(c.id));
        done.into_iter().map(unerase).collect()
    }

    /// Blocks until the read covering `key` finishes and returns it, or
    /// `None` when no outstanding submission covers `key`.
    pub fn wait_for(&mut self, key: &K) -> Option<io::Result<T>> {
        let id = *self.by_key.get(key)?;
        let completion = self.ring().wait(id);
        self.forget(id);
        Some(unerase(completion))
    }

    /// Blocks until every outstanding read finishes and returns them
    /// all — for callers about to move the bytes those reads target.
    pub fn wait_all(&mut self) -> Vec<io::Result<T>> {
        let ids: Vec<u64> = self.inflight.keys().copied().collect();
        let done: Vec<Completion> = ids.into_iter().map(|id| self.ring().wait(id)).collect();
        self.inflight.clear();
        self.by_key.clear();
        self.inflight_bytes = 0;
        done.into_iter().map(unerase).collect()
    }

    /// Waits out every outstanding read and discards the payloads as
    /// waste (`bytes_of` each) — for callers invalidating the state the
    /// reads were planned against (close, restore).
    pub fn abandon(&mut self, bytes_of: impl Fn(&T) -> u64) {
        for payload in self.wait_all().into_iter().flatten() {
            self.waste(bytes_of(&payload));
        }
    }

    /// Records that validation installed `reads` finished reads.
    pub fn installed(&self, reads: i64) {
        if reads > 0 {
            crate::trace::instant_here("prefetch_install", "prefetch", &[("reads", reads)]);
        }
    }

    /// Records `bytes` read in the background and then discarded.
    pub fn waste(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(p) = &self.probe {
            p.wasted_bytes.add(bytes);
        }
        crate::trace::instant_here("prefetch_waste", "prefetch", &[("bytes", bytes as i64)]);
    }

    /// Runs `job` and blocks for its result: on the pool when the lane
    /// has one — a synchronous read that still happens off the worker
    /// thread, sharing the telemetry of background reads — and on the
    /// calling thread otherwise. Either way the job reads through the
    /// same VFS, so injected faults fire at the same operation.
    pub fn read_through<R: Send + 'static>(
        &self,
        job: impl FnOnce(&Arc<dyn Vfs>) -> crate::error::Result<R> + Send + 'static,
    ) -> io::Result<R> {
        self.read_through_each([job])
            .pop()
            .expect("one job, one result")
    }

    /// [`Lane::read_through`] for several jobs submitted together, so
    /// the pool overlaps them; results come back in job order.
    pub fn read_through_each<R: Send + 'static, J>(
        &self,
        jobs: impl IntoIterator<Item = J>,
    ) -> Vec<io::Result<R>>
    where
        J: FnOnce(&Arc<dyn Vfs>) -> crate::error::Result<R> + Send + 'static,
    {
        match &self.pool {
            Pool::Inline(vfs) => jobs
                .into_iter()
                .map(|job| job(vfs).map_err(as_io_error))
                .collect(),
            Pool::Ring(ring) => {
                let ids: Vec<u64> = jobs
                    .into_iter()
                    .map(|job| ring.submit(self.tag, erase(job)))
                    .collect();
                ids.into_iter().map(|id| unerase(ring.wait(id))).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn ring(threads: usize) -> IoRing {
        IoRing::new(StdVfs::shared(), threads)
    }

    #[test]
    fn submit_and_drain_by_tag() {
        let r = ring(2);
        for i in 0..4u64 {
            r.submit(i % 2, Box::new(move |_vfs| Ok(Box::new(i) as _)));
        }
        let mut even: Vec<u64> = Vec::new();
        while even.len() < 2 {
            for c in r.drain_tag(0) {
                even.push(*c.into_result().unwrap().downcast::<u64>().unwrap());
            }
        }
        even.sort_unstable();
        assert_eq!(even, vec![0, 2]);
        r.wait_idle();
        assert!(r.drain_tag(0).is_empty());
        assert_eq!(r.drain_tag(1).len(), 2);
    }

    #[test]
    fn wait_blocks_for_specific_id() {
        let r = ring(1);
        let slow = r.submit(
            7,
            Box::new(|_vfs| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(Box::new("slow".to_string()) as _)
            }),
        );
        let fast = r.submit(7, Box::new(|_vfs| Ok(Box::new("fast".to_string()) as _)));
        let c = r.wait(fast);
        assert_eq!(
            *c.into_result().unwrap().downcast::<String>().unwrap(),
            "fast"
        );
        let c = r.wait(slow);
        assert_eq!(
            *c.into_result().unwrap().downcast::<String>().unwrap(),
            "slow"
        );
    }

    #[test]
    fn panics_are_captured_and_re_raised() {
        let r = ring(1);
        let id = r.submit(0, Box::new(|_vfs| panic!("flowkv-fault: injected crash")));
        let c = r.wait(id);
        assert!(matches!(c.outcome, IoOutcome::Panicked(_)));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = c.into_result();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "flowkv-fault: injected crash");
    }

    #[test]
    fn io_errors_surface_as_err() {
        let r = ring(1);
        let id = r.submit(
            0,
            Box::new(|vfs| {
                vfs.read(std::path::Path::new("/definitely/not/here.aurd"))?;
                Ok(Box::new(()) as _)
            }),
        );
        let c = r.wait(id);
        assert!(c.into_result().is_err());
    }

    #[test]
    fn shuffled_completion_order_is_deterministic() {
        let order = |seed: u64| -> Vec<u64> {
            let r = IoRing::with_shuffle_seed(StdVfs::shared(), 1, seed);
            for i in 0..8u64 {
                r.submit(0, Box::new(move |_vfs| Ok(Box::new(i) as _)));
            }
            r.wait_idle();
            r.drain_tag(0)
                .into_iter()
                .map(|c| *c.into_result().unwrap().downcast::<u64>().unwrap())
                .collect()
        };
        // One pool thread finishes jobs in submission order, so any
        // deviation below comes from the seeded insert position.
        assert_eq!(order(42), order(42));
        assert_ne!(order(42), order(43));
    }

    #[test]
    fn completions_carry_lifecycle_timestamps() {
        let telemetry = crate::telemetry::Telemetry::new_shared();
        let r = IoRing::with_telemetry(StdVfs::shared(), 1, None, Some(Arc::clone(&telemetry)));
        // One slow job holds the single pool thread so the second job
        // accrues measurable queue delay.
        r.submit(
            0,
            Box::new(|_vfs| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(Box::new(()) as _)
            }),
        );
        let id = r.submit(0, Box::new(|_vfs| Ok(Box::new(()) as _)));
        let c = r.wait(id);
        assert!(c.submit_nanos <= c.start_nanos);
        assert!(c.start_nanos <= c.done_nanos);
        assert!(c.queue_delay_nanos() >= 5_000_000, "second job waited");
        let snap = telemetry
            .registry()
            .histogram("prefetch_queue_delay_nanos")
            .snapshot();
        assert!(snap.count >= 2);
    }

    #[test]
    fn traced_submission_records_io_span() {
        let telemetry = crate::telemetry::Telemetry::new_shared();
        let tracer = crate::trace::Tracer::new();
        telemetry.set_trace(crate::trace::TraceHandle {
            tracer: Arc::clone(&tracer),
            pid: 0,
        });
        let r = IoRing::with_telemetry(StdVfs::shared(), 1, None, Some(Arc::clone(&telemetry)));
        let rec = tracer.thread(0, "submitter");
        let id = {
            let _scope = crate::trace::enter(
                &rec,
                crate::trace::TraceCtx {
                    trace: 9,
                    span: 4,
                    born: 0,
                },
            );
            r.submit(1, Box::new(|_vfs| Ok(Box::new(()) as _)))
        };
        let _ = r.wait(id);
        let threads = tracer.snapshot();
        let io = threads
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.name == "io_job")
            .expect("io span recorded");
        assert_eq!(io.trace, 9);
        assert_eq!(io.parent, 4);
        // Untraced submissions stay silent.
        let before: usize = tracer.snapshot().iter().map(|t| t.events.len()).sum();
        let id = r.submit(1, Box::new(|_vfs| Ok(Box::new(()) as _)));
        let _ = r.wait(id);
        let after: usize = tracer.snapshot().iter().map(|t| t.events.len()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn wait_idle_waits_for_running_jobs() {
        let r = ring(2);
        for _ in 0..6 {
            r.submit(
                3,
                Box::new(|_vfs| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    Ok(Box::new(()) as _)
                }),
            );
        }
        r.wait_idle();
        assert_eq!(r.pending(), 0);
        assert_eq!(r.drain_tag(3).len(), 6);
    }

    fn lane(threads: usize) -> Lane<u32, u64> {
        Lane::new(Arc::new(ring(threads)), 9)
    }

    /// The panic message `f` unwinds with.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_err();
        err.downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string()
    }

    /// Submits a job on key 1 that panics on its pool thread, plus a
    /// healthy one on key 2, and waits for both to finish.
    fn lane_with_crashed_read() -> Lane<u32, u64> {
        let mut l = lane(1);
        l.submit(vec![1], 100, |_vfs| panic!("flowkv-fault: injected crash"));
        l.submit(vec![2], 50, |_vfs| Ok(2));
        l.ring().wait_idle();
        assert!(l.covers(&1) && l.covers(&2));
        assert_eq!(l.inflight_bytes, 150);
        l
    }

    #[test]
    fn lane_drain_re_raises_pool_panics_after_unwinding_its_books() {
        let mut l = lane_with_crashed_read();
        let msg = panic_message(|| drop(l.drain()));
        assert_eq!(msg, "flowkv-fault: injected crash");
        assert!(l.is_idle() && !l.covers(&1) && !l.covers(&2));
        assert_eq!(l.inflight_bytes, 0);
    }

    #[test]
    fn lane_wait_for_re_raises_pool_panics_after_unwinding_its_books() {
        let mut l = lane_with_crashed_read();
        let msg = panic_message(|| drop(l.wait_for(&1)));
        assert_eq!(msg, "flowkv-fault: injected crash");
        assert!(!l.covers(&1));
        assert_eq!(l.inflight_bytes, 50);
        // The healthy read is untouched and still collectable; a key
        // nobody submitted is not waited for.
        assert_eq!(l.wait_for(&2).unwrap().unwrap(), 2);
        assert!(l.wait_for(&3).is_none());
        assert_eq!(l.inflight_bytes, 0);
    }

    #[test]
    fn lane_abandon_re_raises_pool_panics_after_unwinding_its_books() {
        let mut l = lane_with_crashed_read();
        let msg = panic_message(|| l.abandon(|_| 0));
        assert_eq!(msg, "flowkv-fault: injected crash");
        assert!(l.is_idle());
        assert_eq!(l.inflight_bytes, 0);
        assert_eq!(l.ring().pending(), 0);
    }

    #[test]
    fn lane_abandon_counts_discarded_payloads_as_waste() {
        let telemetry = Telemetry::new_shared();
        let mut l = lane(2);
        l.set_probe(PrefetchProbe::new(&telemetry, "t"));
        l.submit(vec![1, 2], 10, |_vfs| Ok(7));
        l.submit(vec![3], 10, |vfs| {
            vfs.read(std::path::Path::new("/definitely/not/here.aurd"))?;
            Ok(0)
        });
        l.abandon(|payload| *payload);
        assert!(l.is_idle());
        let count = |name: &str| telemetry.registry().counter(name).get();
        // Issued counts keys, not submissions; a failed read wastes nothing.
        assert_eq!(count("prefetch_issued_total{store=t}"), 3);
        assert_eq!(count("prefetch_wasted_bytes{store=t}"), 7);
    }

    #[test]
    fn lane_admission_respects_the_byte_budget() {
        let mut l = lane(1);
        let half = PREFETCH_BUDGET_BYTES / 2;
        assert!(l.admits(0, half));
        l.submit(vec![1], half, |_vfs| Ok(1));
        assert!(l.admits(0, half));
        // What the store already holds installed counts too.
        assert!(!l.admits(1, half));
        l.submit(vec![2], half, |_vfs| Ok(2));
        assert!(!l.admits(0, 1));
        // Finished reads leave the in-flight total once drained.
        l.ring().wait_idle();
        let mut got: Vec<u64> = l.drain().into_iter().map(Result::unwrap).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(l.admits(0, PREFETCH_BUDGET_BYTES));
        assert!(!l.admits(0, PREFETCH_BUDGET_BYTES + 1));
        assert_eq!(l.due(1_000), 1_000 + PREFETCH_HORIZON_MS);
        assert_eq!(l.due(Timestamp::MAX), Timestamp::MAX);
    }

    /// The same job through a lane of width zero and of width one.
    fn both_widths<R: Send + 'static>(
        vfs: impl Fn() -> Arc<dyn Vfs>,
        job: impl Fn(&Arc<dyn Vfs>) -> crate::error::Result<R> + Clone + Send + 'static,
    ) -> [io::Result<R>; 2] {
        let inline: Lane<u32, u64> = Lane::inline(vfs());
        let pooled: Lane<u32, u64> = Lane::new(Arc::new(IoRing::new(vfs(), 1)), 9);
        [inline.read_through(job.clone()), pooled.read_through(job)]
    }

    #[test]
    fn threadless_lane_runs_read_through_on_the_calling_thread() {
        let [inline, pooled] = both_widths(StdVfs::shared, |_vfs| Ok(std::thread::current().id()));
        assert_eq!(inline.unwrap(), std::thread::current().id());
        assert_ne!(pooled.unwrap(), std::thread::current().id());
    }

    #[test]
    fn threadless_lane_surfaces_job_errors_with_the_ring_paths_text() {
        let [inline, pooled] = both_widths(StdVfs::shared, |vfs| {
            let path = std::path::Path::new("/definitely/not/here.aurd");
            vfs.read(path)
                .map_err(|e| crate::error::StoreError::io_at("lane test read", path, e))
        });
        let (inline, pooled) = (inline.unwrap_err(), pooled.unwrap_err());
        assert!(inline.to_string().contains("lane test read"), "{inline}");
        assert_eq!(inline.to_string(), pooled.to_string());
        assert_eq!(inline.kind(), pooled.kind());
    }

    #[test]
    fn threadless_lane_fires_faults_at_the_same_op_index() {
        use crate::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = crate::scratch::ScratchDir::new("lane-fault").unwrap();
        let path = dir.path().join("f");
        std::fs::write(&path, b"x").unwrap();
        // Three faultable ops per job; the fault is planted on the second.
        let faulty = || -> Arc<dyn Vfs> {
            FaultVfs::new(
                StdVfs::shared(),
                FaultPlan::new().with_fault(2, FaultKind::Enospc),
            )
        };
        let [inline, pooled] = both_widths(faulty, move |vfs| {
            Ok([vfs.read(&path), vfs.read(&path), vfs.read(&path)].map(|r| r.is_ok()))
        });
        assert_eq!(inline.unwrap(), [true, false, true]);
        assert_eq!(pooled.unwrap(), [true, false, true]);
        // An injected crash unwinds the caller from either lane.
        let crashing =
            || -> Arc<dyn Vfs> { FaultVfs::new(StdVfs::shared(), FaultPlan::crash_at(1)) };
        let inline: Lane<u32, u64> = Lane::inline(crashing());
        let pooled: Lane<u32, u64> = Lane::new(Arc::new(IoRing::new(crashing(), 1)), 9);
        for lane in [inline, pooled] {
            let msg = panic_message(|| {
                let _ = lane.read_through(|vfs| Ok(vfs.read(std::path::Path::new("/x")).is_ok()));
            });
            assert_eq!(msg, "flowkv-fault: injected crash");
        }
    }

    #[test]
    fn threadless_lane_is_always_idle_and_refuses_submissions() {
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut l: Lane<u32, u64> = Lane::inline(StdVfs::shared());
        assert!(l.is_idle());
        assert!(!l.admits(0, 0), "a lane without threads admits nothing");
        let flag = Arc::clone(&ran);
        l.submit(vec![1], 10, move |_vfs| {
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
            Ok(1)
        });
        assert!(l.is_idle() && !l.covers(&1));
        assert_eq!(l.inflight_bytes, 0);
        assert!(l.drain().is_empty());
        assert!(l.wait_for(&1).is_none());
        assert!(l.wait_all().is_empty());
        l.abandon(|_| 0);
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst), "job ran");
        // Read-through still works, in job order.
        let through = l.read_through_each((0..3u8).map(|i| move |_vfs: &Arc<dyn Vfs>| Ok(i)));
        let through: Vec<u8> = through.into_iter().map(Result::unwrap).collect();
        assert_eq!(through, vec![0, 1, 2]);
    }

    #[test]
    fn lane_payloads_arrive_intact_under_shuffled_completions() {
        let shuffled = IoRing::with_shuffle_seed(StdVfs::shared(), 1, 42);
        let mut l: Lane<u64, (u64, Vec<u8>)> = Lane::new(Arc::new(shuffled), 0);
        for i in 0..8u64 {
            l.submit(vec![i], 1, move |_vfs| Ok((i, vec![i as u8; 4])));
        }
        // A read-through sharing the lane's tag is never mistaken for
        // one of its background reads.
        let through = l.read_through_each((0..3u8).map(|i| move |_vfs: &Arc<dyn Vfs>| Ok(i)));
        let through: Vec<u8> = through.into_iter().map(Result::unwrap).collect();
        assert_eq!(through, vec![0, 1, 2]);
        l.ring().wait_idle();
        let got: Vec<(u64, Vec<u8>)> = l.drain().into_iter().map(Result::unwrap).collect();
        // One pool thread finishes in submission order, so any other
        // order is the seeded shuffle.
        assert_ne!(
            got.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        for (i, bytes) in &got {
            assert_eq!(bytes, &vec![*i as u8; 4]);
        }
        assert_eq!(got.len(), 8);
        assert!(l.is_idle());
    }
}
