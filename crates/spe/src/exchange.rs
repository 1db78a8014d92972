//! The channels between a run's threads: the [`Msg`]s they carry, and
//! the [`Outbox`] each sender batches into (DESIGN.md § Exchange and
//! batching).

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Sender, TrySendError};

use flowkv_common::hash::partition_of;
use flowkv_common::telemetry::{Counter, Histogram, Telemetry};
use flowkv_common::trace::{self as ftrace, SpanRecorder, TraceCtx, Tracer};
use flowkv_common::types::{Timestamp, TupleRef};

use crate::batch::TupleBatch;
use crate::executor::RunCtx;
use crate::job::Chain;

/// One message on an inter-stage channel.
///
/// # Ordering invariant
///
/// Channels are FIFO per `(sender, channel)` pair, and every sender
/// flushes its pending micro-batches *before* emitting a control message
/// (watermark, barrier, end). Consequently a receiver observes, per
/// upstream: all tuples produced before a watermark ahead of that
/// watermark, and all pre-snapshot tuples ahead of that sender's
/// barrier. Checkpoint alignment and the sink's pre/post-barrier output
/// split both rely on this; the sink debug-asserts its observable
/// consequence (per-sender watermarks never regress).
pub(crate) enum Msg {
    /// A micro-batch of tuples, each carrying its own origin stamp and,
    /// when the batch was sampled for tracing, its causal context.
    Batch(TupleBatch, Option<BatchTrace>),
    Watermark {
        ts: Timestamp,
        origin: u64,
    },
    /// An aligned checkpoint barrier (Chandy–Lamport style, as in
    /// Flink's snapshotting; paper §8).
    Barrier,
    End,
}

pub(crate) struct Envelope {
    pub(crate) sender: usize,
    pub(crate) msg: Msg,
}

/// Trace context riding on a sampled [`Msg::Batch`], plus the tracer
/// nanos at which the sender sealed it — the receiver's `queue_wait`
/// instant is `now − sent_nanos` (one shared clock, so the difference
/// is a duration even though the stamps cross threads).
#[derive(Clone, Copy)]
pub(crate) struct BatchTrace {
    pub(crate) ctx: TraceCtx,
    sent_nanos: u64,
}

impl BatchTrace {
    /// Records the batch's `queue_wait` on the receiving thread's `rec`;
    /// returns the tracer instant it was received at.
    pub(crate) fn queue_wait(self, rec: &SpanRecorder, tuples: usize) -> u64 {
        let now = rec.now_nanos();
        let wait = now.saturating_sub(self.sent_nanos) as i64;
        let args = vec![("wait", wait), ("tuples", tuples as i64)];
        rec.instant("queue_wait", "queue", Some(self.ctx), args);
        now
    }
}

/// How an [`Outbox`] participates in tracing.
enum ExchangeTrace {
    /// The source exchange *originates* traces: every `sample`-th sealed
    /// batch gets a fresh trace id and a `source_batch` root instant.
    Source {
        tracer: Arc<Tracer>,
        recorder: Arc<SpanRecorder>,
        sample: u64,
        sealed: u64,
    },
    /// Worker exchanges *propagate* the thread's active context (set
    /// while the worker processes a sampled batch) onto the batches they
    /// seal, stamping a fresh `sent_nanos`.
    Inherit { tracer: Arc<Tracer> },
}

/// Registry handles for one exchange's backpressure accounting.
///
/// Only built when telemetry is enabled; the disabled path never takes a
/// clock reading on a send.
struct ExchangeProbe {
    /// Nanoseconds spent inside channel sends (time blocked on a full
    /// downstream queue dominates — the backpressure-stall signal).
    stall_nanos: Arc<Counter>,
    /// Tuples per sealed batch, recorded at flush time. Compare against
    /// the configured batch size for the fill ratio.
    batch_fill: Arc<Histogram>,
}

impl ExchangeProbe {
    fn new(telemetry: &Telemetry, operator: &str, partition: usize) -> Self {
        let labels = format!("{{operator={operator},partition={partition}}}");
        let registry = telemetry.registry();
        ExchangeProbe {
            stall_nanos: registry.counter(&format!("exchange_stall_nanos{labels}")),
            batch_fill: registry.histogram(&format!("exchange_batch_fill{labels}")),
        }
    }
}

/// A batching sender over one channel boundary: the stateless stages
/// between this sender and the next keyed stage (or the sink), and
/// per-destination micro-batches of what they emit, sealed at
/// `batch_size` tuples. Control messages go through
/// [`Outbox::broadcast`], which force-flushes every pending batch first
/// so the [`Msg`] ordering invariant holds at any batch size.
pub(crate) struct Outbox {
    chain: Chain,
    txs: Vec<Sender<Envelope>>,
    pending: Vec<TupleBatch>,
    batch_size: usize,
    sender: usize,
    probe: Option<ExchangeProbe>,
    trace: Option<ExchangeTrace>,
}

impl Outbox {
    /// The outbox of stage `name`'s sender `sender` into `txs`, batching
    /// at `batch_size` and probed when the run has telemetry. In a traced
    /// run, the source's outbox originates traces on its recorder
    /// `origin`; a worker's (`None`) inherits them.
    pub(crate) fn new(
        ctx: &RunCtx,
        batch_size: usize,
        chain: Chain,
        txs: Vec<Sender<Envelope>>,
        name: &str,
        sender: usize,
        origin: Option<Arc<SpanRecorder>>,
    ) -> Self {
        let batch_size = batch_size.max(1);
        let pending = (txs.iter())
            .map(|_| TupleBatch::with_capacity(batch_size, 0))
            .collect();
        let trace = ctx.tracer.clone().map(|tracer| match origin {
            Some(recorder) => ExchangeTrace::Source {
                tracer,
                recorder,
                sample: ctx.trace_sample,
                sealed: 0,
            },
            None => ExchangeTrace::Inherit { tracer },
        });
        Outbox {
            chain,
            txs,
            pending,
            batch_size,
            sender,
            probe: (ctx.telemetry.as_deref()).map(|t| ExchangeProbe::new(t, name, sender)),
            trace,
        }
    }

    /// Runs one lent tuple through the stateless chain and queues every
    /// tuple it becomes — each carrying the input's `origin` — for its
    /// key's partition. Returns `false` when the receiver hung up.
    pub(crate) fn send(&mut self, tuple: TupleRef<'_>, origin: u64) -> bool {
        // The chain is lent out while its emits push into the batches.
        let chain = std::mem::take(&mut self.chain);
        let mut ok = true;
        chain.run(tuple, &mut |key, value, timestamp| {
            ok &= self.push(key, value, timestamp, origin);
        });
        self.chain = chain;
        ok
    }

    /// Decides the trace context for a batch being sealed now. A source
    /// batch it samples is entered until the returned scope drops, the
    /// way a worker enters the batch it handles, so the batch's send
    /// records through the active context on either thread.
    fn seal_trace(&mut self) -> (Option<BatchTrace>, Option<ftrace::ActiveScope>) {
        match &mut self.trace {
            None => (None, None),
            Some(ExchangeTrace::Source {
                tracer,
                recorder,
                sample,
                sealed,
            }) => {
                *sealed += 1;
                if *sample == 0 || !(*sealed).is_multiple_of(*sample) {
                    return (None, None);
                }
                let born = tracer.now_nanos();
                let ctx = TraceCtx {
                    trace: tracer.next_trace_id(),
                    span: 0,
                    born,
                };
                recorder.instant("source_batch", "source", Some(ctx), Vec::new());
                let bt = BatchTrace {
                    ctx,
                    sent_nanos: born,
                };
                (Some(bt), Some(ftrace::enter(recorder, ctx)))
            }
            Some(ExchangeTrace::Inherit { tracer }) => {
                let bt = ftrace::current().map(|ctx| BatchTrace {
                    ctx,
                    sent_nanos: tracer.now_nanos(),
                });
                (bt, None)
            }
        }
    }

    /// Copies one tuple into its key's pending batch, sending the batch
    /// once full. Returns `false` when the receiver hung up.
    fn push(&mut self, key: &[u8], value: &[u8], timestamp: Timestamp, origin: u64) -> bool {
        let dest = if self.txs.len() == 1 {
            0
        } else {
            partition_of(key, self.txs.len())
        };
        self.pending[dest].push(key, value, timestamp, origin);
        self.pending[dest].len() < self.batch_size || self.flush_dest(dest)
    }

    fn flush_dest(&mut self, dest: usize) -> bool {
        if self.pending[dest].is_empty() {
            return true;
        }
        // The next batch starts with the room this one grew to: a run of
        // like-sized tuples fills it without reallocating.
        let next = TupleBatch::with_capacity(self.batch_size, self.pending[dest].byte_capacity());
        let batch = std::mem::replace(&mut self.pending[dest], next);
        let (bt, _scope) = self.seal_trace();
        // An `exchange_send` span brackets the channel operation for
        // sampled batches; its duration is the send-side backpressure
        // share of the batch's latency.
        let send_span = ftrace::begin_here("exchange_send", "exchange");
        let rows = batch.len() as u64;
        let env = Envelope {
            sender: self.sender,
            msg: Msg::Batch(batch, bt),
        };
        let ok = match &self.probe {
            None => self.txs[dest].send(env).is_ok(),
            Some(probe) => {
                probe.batch_fill.record(rows);
                // Clock the send only when the channel is actually full:
                // the uncontended path stays timer-free, and the stall
                // counter measures pure backpressure wait.
                match self.txs[dest].try_send(env) {
                    Ok(()) => true,
                    Err(TrySendError::Disconnected(_)) => false,
                    Err(TrySendError::Full(env)) => {
                        let start = Instant::now();
                        let ok = self.txs[dest].send(env).is_ok();
                        probe.stall_nanos.add(start.elapsed().as_nanos() as u64);
                        ok
                    }
                }
            }
        };
        ftrace::end_here(send_span, &[]);
        ok
    }

    /// Flushes every pending batch.
    pub(crate) fn flush(&mut self) -> bool {
        let mut ok = true;
        for dest in 0..self.txs.len() {
            ok &= self.flush_dest(dest);
        }
        ok
    }

    /// `true` while some destination holds an unsent partial batch.
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.iter().any(|p| !p.is_empty())
    }

    /// Flushes pending batches, then sends one control message to every
    /// destination (disconnects are ignored, as on the tuple path the
    /// caller already observed them).
    pub(crate) fn broadcast(&mut self, make: impl Fn() -> Msg) {
        self.flush();
        for tx in &self.txs {
            let _ = tx.send(Envelope {
                sender: self.sender,
                msg: make(),
            });
        }
    }
}
