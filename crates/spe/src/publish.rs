//! Queryable state: a keyed worker's views of its store, published into
//! the [`StateRegistry`] the serving layer reads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv_common::backend::StateBackend;
use flowkv_common::error::StoreError;
use flowkv_common::registry::{capture, StateKey, StateRegistry};
use flowkv_common::telemetry::{Counter, Gauge, Histogram, Telemetry};
use flowkv_common::types::{Timestamp, MAX_TIMESTAMP};

/// What publishing costs one worker, and how fresh its view is, labelled
/// `{operator=<stage>,partition=<worker>}` like the worker's own probe.
struct PublishProbe {
    /// Nanoseconds spent building and publishing views (merges and
    /// folds included; recording the changes, which happens inside the
    /// store calls, is not).
    nanos: Arc<Counter>,
    /// The newest published view's epoch, watermark and
    /// [`StateView::memory_bytes`](flowkv_common::registry::StateView::memory_bytes).
    epoch: Arc<Gauge>,
    watermark: Arc<Gauge>,
    view_bytes: Arc<Gauge>,
    /// Wall time from the newest publish to the worker's latest
    /// watermark advance, in microseconds.
    age_us: Arc<Gauge>,
    /// At each advance, how far in event time the worker's watermark
    /// is ahead of the newest published view's.
    staleness_ms: Arc<Histogram>,
}

impl PublishProbe {
    /// The probe, and the counter the capture adaptor adds the entries
    /// it materialises for publication to: each epoch's changed pairs,
    /// plus whatever a delta merge, a fold or a base rebuild rewrote.
    fn new(telemetry: &Telemetry, operator: &str, worker: usize) -> (Self, Arc<Counter>) {
        let labels = format!("{{operator={operator},partition={worker}}}");
        let registry = telemetry.registry();
        let entries = registry.counter(&format!("view_publish_entries_total{labels}"));
        let probe = PublishProbe {
            nanos: registry.counter(&format!("view_publish_nanos{labels}")),
            epoch: registry.gauge(&format!("view_epoch{labels}")),
            watermark: registry.gauge(&format!("view_watermark{labels}")),
            view_bytes: registry.gauge(&format!("view_memory_bytes{labels}")),
            age_us: registry.gauge(&format!("view_age_us{labels}")),
            staleness_ms: registry.histogram(&format!("view_staleness_ms{labels}")),
        };
        (probe, entries)
    }
}

/// The least wall time between two views a worker publishes at
/// watermarks. A watermark advance less than this after the worker's
/// last publish publishes nothing; the changes wait in the epoch log
/// and the next due advance publishes them all at once. Measured on
/// `q12-rmw-serve` (EXPERIMENTS.md, "Publication paced by period"):
/// at 1 ms the gain in ingest has reached its plateau. While
/// watermarks keep coming, a view is replaced within one period plus
/// one watermark interval of wall time.
pub const PUBLISH_PERIOD: Duration = Duration::from_millis(1);

/// Whether a worker publishes at an advance `now`: always at the end of
/// its stream and for its first view (`last` is `None`), otherwise once
/// [`PUBLISH_PERIOD`] has passed since the `last` publish.
fn publish_due(last: Option<Instant>, now: Instant, end: bool) -> bool {
    end || last.is_none_or(|last| now.saturating_duration_since(last) >= PUBLISH_PERIOD)
}

/// Publishes one worker's state into the queryable-state registry. The
/// worker is the sole writer of its store and publishes between tuples,
/// so a view never shows a half-applied update; it publishes at a
/// watermark advance at most once per [`PUBLISH_PERIOD`], and always at
/// the end of its stream.
pub(crate) struct ViewPublisher {
    registry: Arc<StateRegistry>,
    key: StateKey,
    /// Monotone snapshot counter.
    epoch: u64,
    /// When the last view was published, and the watermark it is
    /// aligned to.
    pub(crate) last: Option<(Instant, Timestamp)>,
    /// A watermark the period held back, while the store is still as
    /// that watermark left it.
    pub(crate) pending: Option<Timestamp>,
    ttl_ms: Option<u64>,
    probe: Option<PublishProbe>,
}

impl ViewPublisher {
    /// Wraps `backend` in the capture adaptor (outermost, so store spans
    /// stay the store's own time) and returns it with the publisher of
    /// its views under `key`, each with the advisory per-entry `ttl_ms`.
    pub(crate) fn attach(
        backend: Box<dyn StateBackend>,
        registry: &Arc<StateRegistry>,
        key: StateKey,
        ttl_ms: Option<u64>,
        telemetry: Option<&Arc<Telemetry>>,
    ) -> (Box<dyn StateBackend>, Self) {
        let (probe, entries) = telemetry
            .map(|t| PublishProbe::new(t, &key.operator, key.partition))
            .unzip();
        let publisher = ViewPublisher {
            registry: Arc::clone(registry),
            key,
            epoch: 0,
            last: None,
            pending: None,
            ttl_ms,
            probe,
        };
        (capture(backend, entries), publisher)
    }

    /// At a watermark advance (`end`: the stream's end), publishes the
    /// store's state as of now aligned to `watermark` if
    /// [`publish_due`] says so.
    pub(crate) fn advance(
        &mut self,
        backend: &mut dyn StateBackend,
        watermark: Timestamp,
        end: bool,
    ) -> Result<(), StoreError> {
        let now = Instant::now();
        if publish_due(self.last.map(|(at, _)| at), now, end) {
            self.publish(backend, watermark, now)?;
        } else {
            self.pending = Some(watermark);
        }
        if let (Some(probe), Some((at, published))) = (&self.probe, self.last) {
            probe
                .age_us
                .set(now.saturating_duration_since(at).as_micros() as i64);
            if watermark != MAX_TIMESTAMP {
                probe
                    .staleness_ms
                    .record(watermark.saturating_sub(published) as u64);
            }
        }
        Ok(())
    }

    /// Publishes the store's state as of `now`, aligned to `watermark`:
    /// the view the capture adaptor's `read_view` answers, the previous
    /// one plus what changed since (a store that is not queryable
    /// publishes nothing).
    pub(crate) fn publish(
        &mut self,
        backend: &mut dyn StateBackend,
        watermark: Timestamp,
        now: Instant,
    ) -> Result<(), StoreError> {
        let Some(mut view) = backend.read_view()? else {
            return Ok(());
        };
        self.epoch += 1;
        self.last = Some((now, watermark));
        self.pending = None;
        view.epoch = self.epoch;
        view.watermark = watermark;
        view.ttl_ms = self.ttl_ms;
        view.metrics = backend.metrics().snapshot();
        let view_bytes = view.memory_bytes();
        self.registry.publish(self.key.clone(), view);
        if let Some(probe) = &self.probe {
            probe.nanos.add(now.elapsed().as_nanos() as u64);
            probe.epoch.set(self.epoch as i64);
            probe.view_bytes.set(view_bytes as i64);
            // Like the worker's own gauge, never the end-of-stream sentinel.
            if watermark != MAX_TIMESTAMP {
                probe.watermark.set(watermark);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_watermark_publishes_the_first_view_then_once_per_period_and_the_end_always() {
        let t0 = Instant::now();
        assert!(publish_due(None, t0, false), "the first view");
        assert!(!publish_due(Some(t0), t0, false));
        assert!(!publish_due(Some(t0), t0 + PUBLISH_PERIOD / 2, false));
        assert!(publish_due(Some(t0), t0 + PUBLISH_PERIOD, false));
        assert!(publish_due(Some(t0), t0 + 3 * PUBLISH_PERIOD, false));
        assert!(publish_due(Some(t0), t0, true), "the end");
        // An instant before the last publish is no time at all.
        assert!(!publish_due(Some(t0 + PUBLISH_PERIOD), t0, false));
    }
}
