//! Background I/O: a worker's thread pool and the read-ahead lanes that
//! run store reads on it.
//!
//! The pool exists so stores can move *anticipatable* reads — predictive
//! batch reads ahead of an ETT-predicted trigger, per-window AAR log
//! scans, LSM block warm-ups, serving snapshots — off the worker's hot
//! path. [`IoRing`] is only threads: it runs the jobs it is handed, in
//! submission order, and knows no files, no tags and no results. The
//! executor builds one per keyed worker and every store of that worker
//! shares it.
//!
//! Everything else belongs to a store's [`Lane`]: which keys have a read
//! in flight, the byte budget, the job's `Vfs`, and the typed queue its
//! finished reads land in. Two properties make that safe to thread
//! through a deterministic, fault-injected system:
//!
//! 1. **Faults still fire.** A lane's jobs run against the store's own
//!    `Vfs` — the *same* `FaultVfs` the rest of the worker uses — so the
//!    global fault op counter covers background I/O too. A
//!    `FaultKind::Crash` that fires on a pool thread panics there; the
//!    lane captures the unwind into its queue and re-raises it verbatim
//!    on the worker thread when that read is collected. The supervisor
//!    sees an ordinary worker panic and recovery proceeds as if the read
//!    had been synchronous.
//! 2. **Order never matters.** A lane's finished reads are a bag, not a
//!    queue: consumers validate each against current store state before
//!    installing it. A ring built with a shuffle seed makes every lane on
//!    it deliver at seeded pseudo-random positions, so tests can prove
//!    output equivalence under adversarial completion orderings.
//!
//! A store supplies only its candidates, the job body and the
//! validate-then-install check. The lane is also the only code that
//! knows whether a pool exists: a store without one holds a lane of
//! width zero, which runs the same job bodies on the worker thread.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::telemetry::{Counter, Histogram, Telemetry};
use crate::types::Timestamp;
use crate::vfs::Vfs;

struct Queued {
    /// The job owns its result: it delivers it wherever its submitter
    /// waits.
    job: Box<dyn FnOnce() + Send>,
    submitted: Instant,
    /// Trace context captured from the submitting thread, so the pool
    /// thread's span parents to the exact store call that issued the
    /// read ([`crate::trace`]).
    ctx: Option<crate::trace::TraceCtx>,
}

struct PoolState {
    queue: VecDeque<Queued>,
    running: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when a job finishes.
    finished: Condvar,
    /// When present: the queue-delay histogram, plus span recording for
    /// traced jobs.
    telemetry: Option<Arc<Telemetry>>,
}

/// A worker's background I/O pool: `flowkv-ioring-<n>` threads that run
/// lane jobs in submission order. Share the `Arc<IoRing>` freely.
pub struct IoRing {
    shared: Arc<Shared>,
    shuffle_seed: Option<u64>,
    workers: Vec<JoinHandle<()>>,
}

impl IoRing {
    /// Builds a pool of `threads` threads (min 1). With `shuffle_seed`,
    /// every lane on the pool delivers its finished reads at seeded
    /// pseudo-random positions — a test knob proving that order never
    /// matters. With `telemetry`, the pool records the
    /// `prefetch_queue_delay_nanos` histogram for every job and, once a
    /// tracer is installed, an `io`-category span for every job
    /// submitted under an active trace context.
    pub fn new(
        threads: usize,
        shuffle_seed: Option<u64>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
            telemetry,
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flowkv-ioring-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn ioring worker")
            })
            .collect();
        IoRing {
            shared,
            shuffle_seed,
            workers,
        }
    }

    /// Queues `job`. The submitting thread's active trace context (if
    /// any) rides along so the job's span links back to the store call
    /// that issued it. `job` must not unwind — a lane's jobs capture
    /// their own panics — or it takes its pool thread down with it.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let queued = Queued {
            job: Box::new(job),
            submitted: Instant::now(),
            ctx: crate::trace::current(),
        };
        let mut st = self.shared.state.lock().expect("ioring lock");
        st.queue.push_back(queued);
        drop(st);
        self.shared.work.notify_one();
    }

    /// Blocks until nothing is queued or running.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("ioring lock");
        while !st.queue.is_empty() || st.running > 0 {
            st = self.shared.finished.wait(st).expect("ioring idle");
        }
    }

    /// Jobs queued or running.
    pub fn pending(&self) -> usize {
        let st = self.shared.state.lock().expect("ioring lock");
        st.queue.len() + st.running
    }
}

impl std::fmt::Debug for IoRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoRing")
            .field("threads", &self.workers.len())
            .field("shuffle_seed", &self.shuffle_seed)
            .finish()
    }
}

impl Drop for IoRing {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The next queued job, or `None` once the pool shuts down with nothing
/// left to run.
fn next_job(shared: &Shared) -> Option<Queued> {
    let mut st = shared.state.lock().expect("ioring lock");
    loop {
        if let Some(queued) = st.queue.pop_front() {
            st.running += 1;
            return Some(queued);
        }
        if st.shutdown {
            return None;
        }
        st = shared.work.wait(st).expect("ioring worker wait");
    }
}

fn worker_loop(shared: &Shared) {
    // Resolved lazily because the tracer is typically installed on the
    // telemetry handle after the pool was built.
    let mut recorder: Option<Arc<crate::trace::SpanRecorder>> = None;
    let queue_delay =
        (shared.telemetry.as_ref()).map(|t| t.registry().histogram("prefetch_queue_delay_nanos"));
    while let Some(Queued {
        job,
        submitted,
        ctx,
    }) = next_job(shared)
    {
        let delay = submitted.elapsed().as_nanos() as u64;
        // Recorded before the job runs: the job's own delivery is what
        // wakes its waiter.
        if let Some(h) = &queue_delay {
            h.record(delay);
        }
        let span = ctx.and_then(|ctx| {
            if recorder.is_none() {
                let tracer = shared.telemetry.as_ref().and_then(|t| t.trace());
                recorder = tracer.map(|tracer| {
                    let name = std::thread::current()
                        .name()
                        .unwrap_or("ioring")
                        .to_string();
                    tracer.thread(&name)
                });
            }
            let args = vec![("queue_delay", delay as i64)];
            (recorder.as_ref()).map(|rec| rec.begin_with("io_job", "io", Some(ctx), args))
        });
        job();
        if let (Some(span), Some(rec)) = (span, recorder.as_ref()) {
            rec.end(span, "io_job", "io");
        }
        let mut st = shared.state.lock().expect("ioring lock");
        st.running -= 1;
        drop(st);
        shared.finished.notify_all();
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

/// What a job on the pool left: its result, or the panic it unwound with.
type Outcome<T> = Result<io::Result<T>, Box<dyn Any + Send>>;

/// The result of `outcome`, re-raising a captured panic on the calling
/// thread — which is what keeps injected crash faults deterministic.
fn settle<T>(outcome: Outcome<T>) -> io::Result<T> {
    outcome.unwrap_or_else(|payload| resume_unwind(payload))
}

/// Finished jobs by submission id, in delivery order, and the condvar
/// their waiters block on.
struct Completions<T> {
    landed: Mutex<Landed<T>>,
    arrived: Condvar,
}

struct Landed<T> {
    done: Vec<(u64, Outcome<T>)>,
    /// SplitMix64 state when delivery is at seeded positions.
    shuffle: Option<u64>,
}

impl<T> Completions<T> {
    fn new(shuffle: Option<u64>) -> Arc<Self> {
        Arc::new(Completions {
            landed: Mutex::new(Landed {
                done: Vec::new(),
                shuffle,
            }),
            arrived: Condvar::new(),
        })
    }

    /// Files job `id`'s outcome: last, or at a seeded position among
    /// those already waiting.
    fn deliver(&self, id: u64, outcome: Outcome<T>) {
        let mut guard = self.landed.lock().expect("lane completions lock");
        let landed = &mut *guard;
        let pos = match &mut landed.shuffle {
            // The fault plans' generator, so reorder tests are
            // reproducible from a single seed.
            Some(seed) => (crate::vfs::splitmix64(seed) as usize) % (landed.done.len() + 1),
            None => landed.done.len(),
        };
        landed.done.insert(pos, (id, outcome));
        drop(guard);
        self.arrived.notify_all();
    }

    /// Blocks until `pick` takes something from the landed outcomes.
    fn take<R>(&self, mut pick: impl FnMut(&mut Vec<(u64, Outcome<T>)>) -> Option<R>) -> R {
        let mut landed = self.landed.lock().expect("lane completions lock");
        loop {
            if let Some(taken) = pick(&mut landed.done) {
                return taken;
            }
            landed = self.arrived.wait(landed).expect("lane completions wait");
        }
    }
}

/// Queues `job` on `ring` against `vfs`. Its outcome — result or panic,
/// captured once — lands in `done` under `id`.
fn enqueue<R: Send + 'static>(
    ring: &IoRing,
    vfs: &Arc<dyn Vfs>,
    done: &Arc<Completions<R>>,
    id: u64,
    job: impl FnOnce(&Arc<dyn Vfs>) -> crate::error::Result<R> + Send + 'static,
) {
    let (vfs, done) = (Arc::clone(vfs), Arc::clone(done));
    ring.submit(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| job(&vfs).map_err(as_io_error)));
        done.deliver(id, outcome);
    });
}

/// One store's read-ahead lane, on the threads of its worker's
/// [`IoRing`] when it has one.
///
/// The lane owns everything about a background read that is not the
/// store's own business: the `Vfs` its jobs read through, which keys
/// (`K`: a window, a `(key, window)` pair, a block) have a read in
/// flight and how many bytes those reads are expected to bring, the
/// horizon and byte budget that bound read-ahead, the queue its finished
/// reads land in, and the `prefetch_*` accounting. Payloads (`T`) are a
/// bag: they arrive in any order and the store must validate each
/// against its current state before installing it.
///
/// The lane is also the one place that knows whether a pool exists. A
/// lane [without threads](Lane::inline) has width zero: it admits no
/// read-ahead, so nothing is ever in flight, and a read-through job
/// runs on the calling thread — the same closure against the same
/// `Vfs`, its error crossing back as the same text. Stores therefore
/// hold a plain `Lane` and never ask which kind they have.
///
/// A panic captured on a pool thread (an injected crash fault)
/// re-raises on the calling thread from whichever method collects that
/// read, after the lane's own bookkeeping is unwound.
pub struct Lane<K, T> {
    vfs: Arc<dyn Vfs>,
    ring: Option<Arc<IoRing>>,
    done: Arc<Completions<T>>,
    next_id: u64,
    /// Submission id → (keys the read covers, estimated bytes).
    inflight: HashMap<u64, (Vec<K>, u64)>,
    /// Key → the submission covering it.
    by_key: HashMap<K, u64>,
    inflight_bytes: u64,
    probe: Option<PrefetchProbe>,
}

impl<K: Hash + Eq + Clone, T: Send + 'static> Lane<K, T> {
    /// A lane without threads over `vfs`: no read-ahead, and every
    /// read-through job runs on the caller's thread.
    pub fn inline(vfs: Arc<dyn Vfs>) -> Self {
        Lane {
            vfs,
            ring: None,
            done: Completions::new(None),
            next_id: 0,
            inflight: HashMap::new(),
            by_key: HashMap::new(),
            inflight_bytes: 0,
            probe: None,
        }
    }

    /// Gives the lane the threads of `ring`: from now on it reads ahead,
    /// and read-through jobs run on the pool, still against the lane's
    /// own `Vfs`.
    pub fn attach(&mut self, ring: Arc<IoRing>) {
        assert!(self.is_idle(), "a lane changes pools only when idle");
        self.done = Completions::new(ring.shuffle_seed);
        self.ring = Some(ring);
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
        self.ring.is_some() && resident + self.inflight_bytes + est_bytes <= PREFETCH_BUDGET_BYTES
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
    /// lane's VFS and must not touch store state. Read-ahead is
    /// advisory, so a lane without threads refuses: the job is dropped
    /// unrun and nothing is ever in flight.
    pub fn submit(
        &mut self,
        keys: Vec<K>,
        est_bytes: u64,
        job: impl FnOnce(&Arc<dyn Vfs>) -> crate::error::Result<T> + Send + 'static,
    ) {
        let Some(ring) = &self.ring else {
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        enqueue(ring, &self.vfs, &self.done, id, job);
        if let Some(p) = &self.probe {
            p.issued.add(keys.len() as u64);
        }
        for key in &keys {
            self.by_key.insert(key.clone(), id);
        }
        self.inflight.insert(id, (keys, est_bytes));
        self.inflight_bytes += est_bytes;
    }

    /// Drops the bookkeeping of the submissions `done` finishes, then
    /// settles them in order.
    fn settle_all(&mut self, done: Vec<(u64, Outcome<T>)>) -> Vec<io::Result<T>> {
        for (id, _) in &done {
            let (keys, est_bytes) = self.inflight.remove(id).expect("a lane read in flight");
            for key in &keys {
                self.by_key.remove(key);
            }
            self.inflight_bytes -= est_bytes;
        }
        done.into_iter()
            .map(|(_, outcome)| settle(outcome))
            .collect()
    }

    /// Collects every finished read without blocking. An `Err` is a
    /// read that failed in the background — never a store failure: the
    /// foreground simply reads synchronously when it needs the data.
    pub fn drain(&mut self) -> Vec<io::Result<T>> {
        if self.is_idle() {
            return Vec::new();
        }
        let done = self.done.take(|done| Some(std::mem::take(done)));
        self.settle_all(done)
    }

    /// Blocks until the read covering `key` finishes and returns it, or
    /// `None` when no outstanding submission covers `key`.
    pub fn wait_for(&mut self, key: &K) -> Option<io::Result<T>> {
        let id = *self.by_key.get(key)?;
        let landed = self.done.take(|done| {
            let pos = done.iter().position(|(landed, _)| *landed == id)?;
            Some(done.remove(pos))
        });
        self.settle_all(vec![landed]).pop()
    }

    /// Blocks until every outstanding read finishes and returns them
    /// all — for callers about to move the bytes those reads target.
    pub fn wait_all(&mut self) -> Vec<io::Result<T>> {
        let done = self.landed_all();
        self.settle_all(done)
    }

    /// Blocks until every outstanding read has delivered, and takes them.
    fn landed_all(&self) -> Vec<(u64, Outcome<T>)> {
        let outstanding = self.inflight.len();
        self.done
            .take(|done| (done.len() == outstanding).then(|| std::mem::take(done)))
    }

    /// Waits out every outstanding read and discards the payloads as
    /// waste (`bytes_of` each) — for callers invalidating the state the
    /// reads were planned against (close, restore).
    pub fn abandon(&mut self, bytes_of: impl Fn(&T) -> u64) {
        let done = self.landed_all();
        // A pool thread delivers a job's outcome before it counts the job
        // finished: once the last outcome is in, wait for the ring to go
        // idle, so no job of this lane is still on a pool thread.
        if let (false, Some(ring)) = (done.is_empty(), &self.ring) {
            ring.wait_idle();
        }
        for payload in self.settle_all(done).into_iter().flatten() {
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
        let Some(ring) = &self.ring else {
            let run = |job: J| job(&self.vfs).map_err(as_io_error);
            return jobs.into_iter().map(run).collect();
        };
        // These reads are waited for here, so they land in a queue of
        // their own, never among the lane's read-ahead.
        let done = Completions::new(None);
        let mut submitted = 0;
        for (i, job) in jobs.into_iter().enumerate() {
            enqueue(ring, &self.vfs, &done, i as u64, job);
            submitted += 1;
        }
        let mut landed = done.take(|d| (d.len() == submitted).then(|| std::mem::take(d)));
        landed.sort_unstable_by_key(|(i, _)| *i);
        landed
            .into_iter()
            .map(|(_, outcome)| settle(outcome))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use std::sync::mpsc;

    impl<K, T> Lane<K, T> {
        /// The pool a test lane runs on.
        fn ring(&self) -> &IoRing {
            self.ring.as_deref().expect("a lane with threads")
        }
    }

    fn ring(threads: usize) -> IoRing {
        IoRing::new(threads, None, None)
    }

    /// A lane over `vfs` on the threads of `ring`.
    fn lane_on<K: Hash + Eq + Clone, T: Send + 'static>(
        vfs: Arc<dyn Vfs>,
        ring: IoRing,
    ) -> Lane<K, T> {
        let mut lane = Lane::inline(vfs);
        lane.attach(Arc::new(ring));
        lane
    }

    fn lane(threads: usize) -> Lane<u32, u64> {
        lane_on(StdVfs::shared(), ring(threads))
    }

    /// A job that blocks its pool thread until the returned sender fires.
    fn gated(
        payload: u64,
    ) -> (
        mpsc::Sender<()>,
        impl FnOnce(&Arc<dyn Vfs>) -> crate::error::Result<u64>,
    ) {
        let (open, gate) = mpsc::channel::<()>();
        (open, move |_vfs: &Arc<dyn Vfs>| {
            gate.recv().expect("the test opens the gate");
            Ok(payload)
        })
    }

    #[test]
    fn lane_drain_takes_only_finished_reads() {
        let mut l = lane(2);
        let (open, slow) = gated(1);
        l.submit(vec![1], 10, slow);
        l.submit(vec![2], 10, |_vfs| Ok(2));
        assert_eq!(l.wait_for(&2).unwrap().unwrap(), 2);
        // The gated read is still running: drain leaves it in flight.
        assert!(l.drain().is_empty());
        assert!(l.covers(&1) && !l.is_idle());
        open.send(()).unwrap();
        l.ring().wait_idle();
        let got: Vec<u64> = l.drain().into_iter().map(Result::unwrap).collect();
        assert_eq!(got, vec![1]);
        assert!(l.is_idle() && l.drain().is_empty());
    }

    #[test]
    fn lane_wait_for_blocks_until_its_read_lands() {
        let mut l = lane(1);
        let (open, slow) = gated(1);
        l.submit(vec![1], 10, slow);
        l.submit(vec![2], 10, |_vfs| Ok(2));
        std::thread::scope(|s| {
            s.spawn(move || open.send(()).unwrap());
            // One pool thread runs reads in order: key 2 lands only after
            // the gated read on key 1, which the wait must step over.
            assert_eq!(l.wait_for(&2).unwrap().unwrap(), 2);
        });
        assert!(l.covers(&1) && !l.covers(&2));
        assert_eq!(l.wait_for(&1).unwrap().unwrap(), 1);
        assert!(l.is_idle());
    }

    #[test]
    fn panics_are_captured_and_re_raised() {
        let l = lane(1);
        let msg = panic_message(|| {
            let _ = l.read_through(|_vfs| -> crate::error::Result<u64> {
                panic!("flowkv-fault: injected crash")
            });
        });
        assert_eq!(msg, "flowkv-fault: injected crash");
        // The panic unwound the job, not its pool thread.
        assert_eq!(l.read_through(|_vfs| Ok(5)).unwrap(), 5);
    }

    #[test]
    fn io_errors_surface_as_err() {
        let mut l = lane(1);
        l.submit(vec![1], 10, |vfs| {
            let path = std::path::Path::new("/definitely/not/here.aurd");
            vfs.read(path)
                .map_err(|e| crate::error::StoreError::io_at("lane test read", path, e))?;
            Ok(0)
        });
        l.ring().wait_idle();
        let err = l.drain().pop().unwrap().unwrap_err();
        assert!(err.to_string().contains("lane test read"), "{err}");
        assert!(l.is_idle());
    }

    #[test]
    fn shuffled_completion_order_is_deterministic() {
        let order = |seed: u64| -> Vec<u64> {
            let mut l: Lane<u64, u64> = lane_on(StdVfs::shared(), IoRing::new(1, Some(seed), None));
            for i in 0..8u64 {
                l.submit(vec![i], 1, move |_vfs| Ok(i));
            }
            l.ring().wait_idle();
            l.drain().into_iter().map(Result::unwrap).collect()
        };
        // One pool thread finishes jobs in submission order, so any
        // deviation below comes from the seeded insert position.
        assert_eq!(order(42), order(42));
        assert_ne!(order(42), order(43));
    }

    #[test]
    fn queue_delay_is_recorded_per_job() {
        let telemetry = Telemetry::new_shared();
        let mut l: Lane<u32, u64> = lane_on(
            StdVfs::shared(),
            IoRing::new(1, None, Some(Arc::clone(&telemetry))),
        );
        // The gated read holds the single pool thread, so the second
        // read queues behind it for at least the time the gate stays shut.
        let (open, slow) = gated(1);
        l.submit(vec![1], 10, slow);
        let queued = Instant::now();
        l.submit(vec![2], 10, |_vfs| Ok(2));
        std::thread::sleep(std::time::Duration::from_millis(5));
        open.send(()).unwrap();
        l.ring().wait_idle();
        let snap = telemetry
            .registry()
            .histogram("prefetch_queue_delay_nanos")
            .snapshot();
        assert_eq!(snap.count, 2);
        assert!(snap.max >= 5_000_000, "the second read waited");
        assert!(snap.max <= queued.elapsed().as_nanos() as u64);
    }

    #[test]
    fn traced_submission_records_io_span() {
        let telemetry = Telemetry::new_shared();
        let tracer = crate::trace::Tracer::new();
        telemetry.set_trace(Arc::clone(&tracer));
        let mut l: Lane<u32, u64> = lane_on(
            StdVfs::shared(),
            IoRing::new(1, None, Some(Arc::clone(&telemetry))),
        );
        let rec = tracer.thread("submitter");
        {
            let _scope = crate::trace::enter(
                &rec,
                crate::trace::TraceCtx {
                    trace: 9,
                    span: 4,
                    born: 0,
                },
            );
            l.submit(vec![1], 10, |_vfs| Ok(1));
        }
        l.ring().wait_idle();
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
        l.read_through(|_vfs| Ok(())).unwrap();
        l.ring().wait_idle();
        let after: usize = tracer.snapshot().iter().map(|t| t.events.len()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn wait_idle_waits_for_running_jobs() {
        let mut l = lane(2);
        for i in 0..6 {
            l.submit(vec![i], 1, |_vfs| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Ok(0)
            });
        }
        l.ring().wait_idle();
        assert_eq!(l.ring().pending(), 0);
        assert_eq!(l.drain().len(), 6);
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
        let pooled: Lane<u32, u64> = lane_on(vfs(), ring(1));
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
        let pooled: Lane<u32, u64> = lane_on(crashing(), ring(1));
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
        let shuffled = IoRing::new(1, Some(42), None);
        let mut l: Lane<u64, (u64, Vec<u8>)> = lane_on(StdVfs::shared(), shuffled);
        for i in 0..8u64 {
            l.submit(vec![i], 1, move |_vfs| Ok((i, vec![i as u8; 4])));
        }
        // A read-through on the same lane is never mistaken for one of
        // its background reads.
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
