//! Allocation counts of the borrowed AAR drain, counted rather than
//! timed: the same key set with four times the pairs per key must not
//! allocate anywhere near four times as often — the drain and the tier's
//! demotion allocate per file, per block and per doubling of a buffer,
//! never per pair. Of the in-place RMW update: a fold into a buffered
//! aggregate allocates nothing, captured for serving or not. And of the
//! borrowed AUR take: the store lends a list of any length without
//! allocating and the operator's session trigger allocates per fire,
//! where the owned take allocates per value. And of a whole job: a
//! micro-batch crosses the exchange as one arena, so the threads between
//! the source and the store allocate per batch, not per tuple.
//!
//! The counter is per thread (the stores under test run no thread of
//! their own), so the tests of this binary do not see each other; the
//! one job test counts the threads it enrolls into a counter of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use flowkv::tier::TierConfig;
use flowkv::{FlowKvConfig, FlowKvFactory, TieredFactory};
use flowkv_common::backend::{
    AggregateKind, OperatorContext, OperatorSemantics, StateBackend, StateBackendFactory,
    WindowKind,
};
use flowkv_common::registry::ViewCapture;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::types::WindowId;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread's allocations also count into
    /// [`JOB_ALLOCATIONS`].
    static ENROLLED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations of every enrolled thread: those of the one job under test.
static JOB_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    if ENROLLED.with(Cell::get) {
        JOB_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialised thread-local
// `Cell` without a destructor, so touching it allocates nothing and cannot
// re-enter the allocator; so is the flag, and the job counter is an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes inside `work`.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const KEYS: u32 = 256;
const WINDOW: WindowId = WindowId {
    start: 0,
    end: 1_000,
};

fn open(dir: &ScratchDir, name: &str, hot_bytes: Option<usize>) -> Box<dyn StateBackend> {
    open_for(dir, name, AggregateKind::FullList, hot_bytes)
}

fn open_for(
    dir: &ScratchDir,
    name: &str,
    aggregate: AggregateKind,
    hot_bytes: Option<usize>,
) -> Box<dyn StateBackend> {
    let window = WindowKind::Fixed { size: 1_000 };
    open_with(
        dir,
        name,
        OperatorSemantics::new(aggregate, window),
        hot_bytes,
    )
}

fn open_with(
    dir: &ScratchDir,
    name: &str,
    semantics: OperatorSemantics,
    hot_bytes: Option<usize>,
) -> Box<dyn StateBackend> {
    let cfg = FlowKvConfig {
        write_buffer_bytes: 1 << 20,
        chunk_entries: 64,
        ..FlowKvConfig::small_for_tests()
    };
    let ctx = OperatorContext {
        operator: name.to_string(),
        partition: 0,
        semantics,
        data_dir: dir.path().to_path_buf(),
        telemetry: None,
        io: None,
    };
    let store = FlowKvFactory::new(cfg);
    match hot_bytes {
        None => store.create(&ctx),
        Some(hot_bytes) => {
            TieredFactory::new(std::sync::Arc::new(store), TierConfig::new(hot_bytes)).create(&ctx)
        }
    }
    .unwrap()
}

/// Appends `per_key` pairs to each of [`KEYS`] keys, round robin, so no
/// two pairs of a key are adjacent.
fn fill(store: &mut dyn StateBackend, per_key: u32) {
    let mut key = *b"key-0000";
    for i in 0..KEYS * per_key {
        key[4..].copy_from_slice(&(i % KEYS).to_be_bytes());
        store
            .append(&key, WINDOW, &u64::from(i).to_le_bytes(), 0)
            .unwrap();
    }
}

/// Drains [`WINDOW`] through the borrowed step, returning the pairs and
/// bytes it was lent.
fn drain(store: &mut dyn StateBackend) -> (u64, usize) {
    let (mut pairs, mut bytes) = (0, 0);
    let mut sink = |key: &[u8], value: &[u8]| {
        pairs += 1;
        bytes += key.len() + value.len();
    };
    while store.drain_window_chunk(WINDOW, &mut sink).unwrap() {}
    (pairs, bytes)
}

fn assert_not_per_pair(what: &str, few: (u64, u32), many: (u64, u32)) {
    let ((few, few_pairs), (many, many_pairs)) = (few, many);
    assert!(
        many * 2 < few * 3,
        "{what}: {few} allocations for {few_pairs} pairs, {many} for {many_pairs}"
    );
    assert!(
        many < u64::from(many_pairs) / 8,
        "{what}: {many} allocations for {many_pairs} pairs"
    );
}

#[test]
fn draining_a_flushed_window_through_the_borrowed_step_allocates_per_file_not_per_pair() {
    let dir = ScratchDir::new("alloc-aar-drain").unwrap();
    let counted = |per_key: u32| {
        // `FlowKvStore` behind the trait: a front that fell back to the
        // default step would copy every pair.
        let mut store = open(&dir, &format!("drain-{per_key}"), None);
        fill(store.as_mut(), per_key);
        store.flush().unwrap();
        let (allocations, (pairs, bytes)) = allocations_of(|| drain(store.as_mut()));
        assert_eq!(pairs, u64::from(KEYS * per_key));
        assert_eq!(bytes, (KEYS * per_key) as usize * 16);
        store.close().unwrap();
        (allocations, KEYS * per_key)
    };
    assert_not_per_pair("flushed drain", counted(8), counted(32));
}

#[test]
fn a_tier_demote_then_drain_cycle_allocates_per_block_not_per_pair() {
    let dir = ScratchDir::new("alloc-tier-cycle").unwrap();
    let counted = |per_key: u32| {
        // A pair charges 24 bytes to the hot tier: whatever the size,
        // the budget is passed three times on the way and what is left
        // drains out of the wrapped store behind the cold blocks.
        let hot_bytes = (KEYS * per_key) as usize * 24 * 3 / 10;
        let mut store = open(&dir, &format!("cycle-{per_key}"), Some(hot_bytes));
        let (allocations, (pairs, bytes)) = allocations_of(|| {
            fill(store.as_mut(), per_key);
            drain(store.as_mut())
        });
        assert_eq!(pairs, u64::from(KEYS * per_key));
        assert_eq!(bytes, (KEYS * per_key) as usize * 16);
        let demoted = store.metrics().snapshot().bytes_written;
        assert!(demoted > 0, "nothing was demoted");
        store.close().unwrap();
        (allocations, KEYS * per_key)
    };
    assert_not_per_pair("tier cycle", counted(8), counted(32));
}

/// `calls` read-modify-writes of a little-endian counter, round robin
/// over [`KEYS`] keys: one `update_aggregate` each, or the take and the
/// put it replaces.
fn count_up(store: &mut dyn StateBackend, calls: u32, in_place: bool) {
    let mut key = *b"key-0000";
    let bump = |count: &mut Vec<u8>| {
        count.resize(8, 0);
        let n = u64::from_le_bytes(count[..].try_into().unwrap()) + 1;
        count.copy_from_slice(&n.to_le_bytes());
    };
    for i in 0..calls {
        key[4..].copy_from_slice(&(i % KEYS).to_be_bytes());
        if in_place {
            store
                .update_aggregate(&key, WINDOW, &mut |count, _| bump(count))
                .unwrap();
        } else {
            let mut count = store.take_aggregate(&key, WINDOW).unwrap().unwrap();
            bump(&mut count);
            store.put_aggregate(&key, WINDOW, &count).unwrap();
        }
    }
}

#[test]
fn an_update_of_a_buffered_aggregate_allocates_nothing_where_take_and_put_allocate_per_call() {
    let dir = ScratchDir::new("alloc-rmw-update").unwrap();
    // `FlowKvStore` behind the trait: a front that fell back to the
    // default would take and put.
    let mut store = open_for(&dir, "update", AggregateKind::Incremental, None);
    count_up(store.as_mut(), KEYS, true);
    let (in_place, ()) = allocations_of(|| count_up(store.as_mut(), 10_000, true));
    assert_eq!(in_place, 0);
    // The key, its slot list and the aggregate, freed and made again.
    let (two_calls, ()) = allocations_of(|| count_up(store.as_mut(), 10_000, false));
    assert!(two_calls >= 3 * 10_000, "{two_calls}");
    assert_eq!(store.metrics().snapshot().flushes, 0);
    store.close().unwrap();
}

#[test]
fn a_captured_update_allocates_for_a_pairs_first_change_of_an_epoch_only() {
    let dir = ScratchDir::new("alloc-rmw-capture").unwrap();
    let store = open_for(&dir, "capture", AggregateKind::Incremental, None);
    let (mut store, mut capture) = ViewCapture::wrap(store);
    count_up(store.as_mut(), KEYS, true);
    for _epoch in 0..3 {
        capture.advance(store.as_mut()).unwrap().unwrap();
        // Recording a pair's first change of the epoch makes its entry:
        // the key, its window list, the value and its bytes, a map node
        // now and then.
        let (first, ()) = allocations_of(|| count_up(store.as_mut(), KEYS, true));
        assert!(first <= 6 * u64::from(KEYS), "{first}");
        let (rest, ()) = allocations_of(|| count_up(store.as_mut(), 10_000, true));
        assert_eq!(rest, 0);
    }
    assert_eq!(capture.view().len(), KEYS as usize);
    store.close().unwrap();
}

const SESSION_GAP: i64 = 1_000;

/// An AUR store: full lists under session windows.
fn open_aur(dir: &ScratchDir, name: &str) -> Box<dyn StateBackend> {
    let semantics = OperatorSemantics::new(
        AggregateKind::FullList,
        WindowKind::Session { gap: SESSION_GAP },
    );
    open_with(dir, name, semantics, None)
}

/// Where the values of a window about to be taken sit.
#[derive(Clone, Copy, Debug)]
enum Held {
    /// In the write buffer.
    Buffered,
    /// On disk, with a prefetched copy resident.
    Prefetched,
    /// Half in the copy, half appended after it.
    Both,
}

/// Gives `key` `values` eight-byte values in [`WINDOW`], held as `held`.
fn hold(store: &mut dyn StateBackend, key: &[u8], values: u64, held: Held) {
    let append = |store: &mut dyn StateBackend, range: std::ops::Range<u64>| {
        for i in range {
            store.append(key, WINDOW, &i.to_le_bytes(), 0).unwrap();
        }
    };
    let on_disk = match held {
        Held::Buffered => 0,
        Held::Prefetched => values,
        Held::Both => values / 2,
    };
    if on_disk > 0 {
        append(store, 0..on_disk);
        store.flush().unwrap();
        // A read that consumes nothing leaves the copy it loaded.
        assert_eq!(
            store.peek_values(key, WINDOW).unwrap().len() as u64,
            on_disk
        );
    }
    append(store, on_disk..values);
}

#[test]
fn a_borrowed_aur_take_allocates_nothing_where_the_owned_take_allocates_per_value() {
    let dir = ScratchDir::new("alloc-aur-take").unwrap();
    // `FlowKvStore` behind the trait: a front that fell back to the
    // default would take the owned list.
    let mut store = open_aur(&dir, "take");
    for held in [Held::Buffered, Held::Prefetched, Held::Both] {
        let mut borrowed = |key: &[u8], values: u64| {
            hold(store.as_mut(), key, values, held);
            let mut sum = 0;
            let mut add = |value: &[u8]| sum += u64::from_le_bytes(value.try_into().unwrap());
            let (allocations, lent) =
                allocations_of(|| store.take_values_with(key, WINDOW, &mut add).unwrap());
            assert_eq!((lent as u64, sum), (values, values * (values - 1) / 2));
            allocations
        };
        let (few, many) = (borrowed(b"few", 16), borrowed(b"many", 1_024));
        assert_eq!(
            (few, many),
            (0, 0),
            "{held:?}: allocations for 16 and for 1 024"
        );
        hold(store.as_mut(), b"owned", 1_024, held);
        let (owned, values) = allocations_of(|| store.take_values(b"owned", WINDOW).unwrap());
        assert!(values.len() == 1_024 && owned >= 1_024, "{held:?}: {owned}");
    }
    assert_eq!(store.metrics().snapshot().compactions, 0);
    store.close().unwrap();
}

#[test]
fn a_session_trigger_allocates_per_fire_not_per_value() {
    use flowkv_common::types::Tuple;
    use flowkv_spe::functions::MedianProcess;
    use flowkv_spe::job::WindowSpec;
    use flowkv_spe::operator::{KeyedOperator, WindowOperator};
    use flowkv_spe::{AggregateSpec, WindowAssigner};

    // Few enough that 1 024 values each stay in the 1 MiB write buffer.
    const SESSIONS: u64 = 8;
    let dir = ScratchDir::new("alloc-session-fire").unwrap();
    let counted = |per_session: u64| {
        let spec = WindowSpec {
            name: "sessions".into(),
            assigner: WindowAssigner::Session { gap: SESSION_GAP },
            aggregate: AggregateSpec::FullList(std::sync::Arc::new(MedianProcess)),
        };
        let store = open_aur(&dir, &format!("fire-{per_session}"));
        let mut operator = WindowOperator::new(spec, store);
        let mut out = Vec::new();
        for i in 0..per_session {
            for k in 0..SESSIONS {
                let key = format!("key-{k:02}").into_bytes();
                let tuple = Tuple::new(key, i.to_le_bytes().to_vec(), i as i64);
                operator.on_element(tuple.borrowed(), &mut out).unwrap();
            }
        }
        let end = per_session as i64 - 1 + SESSION_GAP;
        operator.on_watermark(end - 1, &mut out).unwrap();
        assert!(out.is_empty());
        let (allocations, ()) = allocations_of(|| operator.on_watermark(end, &mut out).unwrap());
        assert_eq!(out.len() as u64, SESSIONS);
        assert_eq!(operator.backend_mut().metrics().snapshot().flushes, 0);
        operator.backend_mut().close().unwrap();
        allocations
    };
    let (few, many) = (counted(16), counted(1_024));
    // Per fire: the key, the slice list, the decoded numbers, the result
    // and its tuple; per watermark, the expired list, the output and the
    // doublings of the arena the first fire fills.
    assert!(few <= 12 * SESSIONS, "{few}");
    assert!(
        many <= few + 32,
        "{few} for 16 values a session, {many} for 1 024"
    );
}

/// Builds each store on the worker thread that will own it, and enrolls
/// that thread.
struct Enrolling(FlowKvFactory);

impl StateBackendFactory for Enrolling {
    fn create(&self, ctx: &OperatorContext) -> flowkv_common::error::Result<Box<dyn StateBackend>> {
        ENROLLED.with(|e| e.set(true));
        self.0.create(ctx)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[test]
fn a_q7_shaped_job_allocates_per_batch_not_per_tuple_between_source_and_store() {
    use flowkv_common::types::Tuple;
    use flowkv_spe::functions::{decode_u64, FnProcess};
    use flowkv_spe::{run_job, AggregateSpec, JobBuilder, RunOptions, WindowAssigner};

    const BID: u8 = 2;
    // Q7's shape: a stateless stage that keeps the bids of an event
    // stream and re-keys them by bidder, then the highest price per
    // bidder over a fixed window kept as a full list (AAR). One window
    // holds the whole stream, so the trigger's work does not grow with it.
    let job = JobBuilder::new("q7-shaped")
        .parallelism(2)
        .stateless("bids-by-bidder", |t, out| {
            if t.value[0] == BID {
                out(&t.value[1..9], &t.value[9..], t.timestamp);
            }
        })
        .window(
            "highest-bid",
            WindowAssigner::Fixed { size: 1 << 30 },
            AggregateSpec::FullList(std::sync::Arc::new(FnProcess::new(|_, _, prices| {
                let max = prices.iter().map(|p| decode_u64(p)).max().unwrap_or(0);
                vec![max.to_le_bytes().to_vec()]
            }))),
        )
        .build();
    let dir = ScratchDir::new("alloc-q7-job").unwrap();
    let counted = |tuples: u64| {
        // Made here, on an unenrolled thread: the harness owns the input,
        // and the source frees it.
        let input: Vec<Tuple> = (0..tuples)
            .map(|i| {
                let mut event = vec![if i % 5 == 0 { 1 } else { BID }];
                event.extend_from_slice(&(i % 64).to_le_bytes());
                event.extend_from_slice(&(i * 7 % 1_000).to_le_bytes());
                Tuple::new(i.to_le_bytes().to_vec(), event, i as i64)
            })
            .collect();
        let mut opts = RunOptions::new(dir.path().join(format!("run-{tuples}")));
        opts.watermark_interval = 500;
        let cfg = FlowKvConfig {
            write_buffer_bytes: 1 << 20,
            ..FlowKvConfig::small_for_tests()
        };
        let before = JOB_ALLOCATIONS.load(Ordering::Relaxed);
        let result = run_job(
            &job,
            input
                .into_iter()
                .inspect(|_| ENROLLED.with(|e| e.set(true))),
            std::sync::Arc::new(Enrolling(FlowKvFactory::new(cfg))),
            &opts,
        )
        .unwrap();
        assert_eq!((result.input_count, result.output_count), (tuples, 64));
        JOB_ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    const N: u64 = 20_000;
    let (once, twice) = (counted(N), counted(2 * N));
    let per_added_tuple = twice.saturating_sub(once) as f64 / N as f64;
    eprintln!("{once} allocations for {N} tuples, {twice} for {}", 2 * N);
    // A tuple at a time this is at least two: the stateless stage's
    // re-keyed key and value, freed by the worker after the store copied
    // them.
    assert!(
        per_added_tuple < 0.05,
        "{once} allocations for {N} tuples, {twice} for {}: {per_added_tuple:.3} per added tuple",
        2 * N
    );
}
