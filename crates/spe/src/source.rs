//! Replayable sources: the Kafka analog.
//!
//! The paper's fault-tolerance model (§8) assumes a *rewindable* data
//! source: on failure, the engine restores a checkpoint and replays
//! tuples from the checkpoint's offset. [`TupleLog`] persists a tuple
//! stream into a checksummed log file and [`LogSource`] replays it from
//! any offset — exactly the contract Kafka provides the paper's
//! deployment. (The broker's other role, the fixed-rate feed of the
//! paper's latency runs (§6.2), is `RunOptions::rate_limit`.)
//! `Schedule` places the watermarks and the barrier in a tuple stream.

use std::io::Write as _;
use std::path::Path;

use flowkv_common::codec::Decoder;
use flowkv_common::error::{Result, StoreError};
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::types::{Timestamp, Tuple, MIN_TIMESTAMP};
use flowkv_common::vfs::StdVfs;

use crate::run::RunOptions;

/// Writer persisting a tuple stream to a replayable log file.
pub struct TupleLog;

impl TupleLog {
    /// Writes every tuple of `stream` to `path`, returning the count.
    pub fn record(path: impl AsRef<Path>, stream: impl Iterator<Item = Tuple>) -> Result<u64> {
        let mut writer = LogWriter::create_in(&StdVfs::shared(), path)?;
        let mut buf = Vec::new();
        let mut count = 0u64;
        for tuple in stream {
            buf.clear();
            tuple.encode_to(&mut buf);
            writer.append(&buf)?;
            count += 1;
        }
        writer.sync()?;
        Ok(count)
    }
}

/// Replays a [`TupleLog`] file as an iterator of tuples.
///
/// Opening checks the whole log with one pass of a reader: every record
/// must frame, pass its checksum and decode as a tuple, except a torn
/// tail — what a crash mid-append leaves — which ends the stream. Any
/// other bad record, or an I/O error, fails the open: a replay of a
/// shorter input would be a silently wrong answer.
///
/// # Examples
///
/// ```
/// use flowkv_common::scratch::ScratchDir;
/// use flowkv_common::types::Tuple;
/// use flowkv_spe::source::{LogSource, TupleLog};
///
/// let dir = ScratchDir::new("source-doc").unwrap();
/// let path = dir.path().join("stream.log");
/// let tuples = vec![Tuple::new(b"k".to_vec(), b"v".to_vec(), 7)];
/// TupleLog::record(&path, tuples.clone().into_iter()).unwrap();
/// let replayed: Vec<Tuple> = LogSource::open(&path).unwrap().collect();
/// assert_eq!(replayed, tuples);
/// ```
pub struct LogSource {
    reader: LogReader,
    /// Where the intact records end: the end of the file or a torn tail.
    end: u64,
    /// Tuples consumed so far (the replay offset).
    position: u64,
}

impl LogSource {
    /// Opens `path` for replay from the beginning.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_at(path, 0)
    }

    /// Opens `path` and skips the first `offset` tuples — the resume
    /// path after restoring a checkpoint taken at that offset.
    pub fn open_at(path: impl AsRef<Path>, offset: u64) -> Result<Self> {
        let (path, vfs) = (path.as_ref(), StdVfs::shared());
        let (mut start, mut position) = (0, 0);
        let end = LogReader::open_in(&vfs, path)?.for_each_intact(|loc, payload| {
            Tuple::decode_from(&mut Decoder::new(payload))
                .map_err(|e| StoreError::corruption(path, loc.offset, e.to_string()))?;
            if position < offset {
                (start, position) = (loc.end_offset(), position + 1);
            }
            Ok(())
        })?;
        Ok(LogSource {
            reader: LogReader::open_at_in(&vfs, path, start)?,
            end,
            position,
        })
    }

    /// Number of tuples consumed so far.
    pub fn position(&self) -> u64 {
        self.position
    }
}

impl Iterator for LogSource {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.reader.offset() >= self.end {
            return None;
        }
        // Every record before `end` framed and decoded at open: a failure
        // now is the file changing under the replay, which must not pass
        // for the end of the input.
        let tuple = self.reader.next_record().and_then(|record| {
            let (_, payload) = record.expect("the file the reader opened reaches `end`");
            Tuple::decode_from(&mut Decoder::new(&payload))
        });
        self.position += 1;
        Some(tuple.unwrap_or_else(|e| panic!("input log changed after its check: {e}")))
    }
}

/// One element of the source stream the runner consumes.
///
/// [`run_job`](crate::run_job) and every supervised attempt derive the stream from a
/// tuple iterator with [`Schedule`]; a rescale splits one schedule
/// between its two phases at the barrier.
#[derive(Debug)]
pub(crate) enum SourceItem {
    /// A data tuple.
    Tuple(Tuple),
    /// A source watermark.
    Watermark(Timestamp),
    /// An aligned checkpoint barrier.
    Barrier,
    /// Ends the stream *without* the final `MAX_TIMESTAMP` watermark:
    /// open windows stay open in the operators' checkpointed state
    /// instead of firing. This is how a rescale ends its first phase —
    /// the un-fired windows migrate and fire at the new parallelism.
    Halt,
}

/// The source schedule: the one place that decides where a tuple stream
/// carries a watermark or a checkpoint barrier.
///
/// Every `interval` tuples a watermark follows, at the largest timestamp
/// seen so far minus `slack`. A barrier follows tuple number
/// `checkpoint_after`; when both fall on the same tuple the barrier
/// comes first, so the snapshot never holds the effect of firing the
/// watermark that shares its offset.
pub(crate) struct Schedule<I> {
    tuples: I,
    interval: u64,
    slack: i64,
    checkpoint_after: Option<u64>,
    count: u64,
    max_ts: Timestamp,
    barrier_due: bool,
    watermark_due: Option<Timestamp>,
}

impl<I: Iterator<Item = Tuple>> Schedule<I> {
    /// The schedule `options` ask for over `tuples`.
    pub(crate) fn new(tuples: I, options: &RunOptions) -> Self {
        Schedule {
            tuples,
            interval: options.watermark_interval.max(1) as u64,
            slack: options.watermark_slack,
            checkpoint_after: options.checkpoint_after_tuples,
            count: 0,
            max_ts: MIN_TIMESTAMP,
            barrier_due: false,
            watermark_due: None,
        }
    }
}

impl<I: Iterator<Item = Tuple>> Iterator for Schedule<I> {
    type Item = SourceItem;

    fn next(&mut self) -> Option<SourceItem> {
        if std::mem::take(&mut self.barrier_due) {
            return Some(SourceItem::Barrier);
        }
        if let Some(wm) = self.watermark_due.take() {
            return Some(SourceItem::Watermark(wm));
        }
        let tuple = self.tuples.next()?;
        self.count += 1;
        self.max_ts = self.max_ts.max(tuple.timestamp);
        self.barrier_due = self.checkpoint_after == Some(self.count);
        if self.count.is_multiple_of(self.interval) {
            self.watermark_due = Some(self.max_ts.saturating_sub(self.slack));
        }
        Some(SourceItem::Tuple(tuple))
    }
}

/// Name of the file inside a checkpoint directory recording the source
/// offset (in tuples) at which the aligned barrier was injected.
pub(crate) const SOURCE_OFFSET_FILE: &str = "SOURCE_OFFSET";

/// Writes `offset` as the checkpoint in `dir`'s [`SOURCE_OFFSET_FILE`]:
/// a temporary file, fsynced, then renamed over the final name.
pub(crate) fn write_source_offset(dir: &Path, offset: u64) -> std::io::Result<()> {
    let tmp = dir.join(format!("{SOURCE_OFFSET_FILE}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(offset.to_string().as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, dir.join(SOURCE_OFFSET_FILE))
}

/// Reads the source offset recorded beside a completed checkpoint. It is
/// part of the checkpoint: without it, replaying from any offset would
/// double or drop input on top of the restored state.
pub(crate) fn read_source_offset(dir: &Path) -> Result<u64> {
    let path = dir.join(SOURCE_OFFSET_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| StoreError::io_at("checkpoint source offset", &path, e))?;
    text.trim()
        .parse()
        .map_err(|_| StoreError::corruption(&path, 0, "unparsable source offset"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::scratch::ScratchDir;

    fn tuples(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    format!("key-{}", i % 5).into_bytes(),
                    i.to_le_bytes().to_vec(),
                    i as i64,
                )
            })
            .collect()
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let dir = ScratchDir::new("source-roundtrip").unwrap();
        let path = dir.path().join("s.log");
        let original = tuples(500);
        let count = TupleLog::record(&path, original.clone().into_iter()).unwrap();
        assert_eq!(count, 500);
        let replayed: Vec<Tuple> = LogSource::open(&path).unwrap().collect();
        assert_eq!(replayed, original);
    }

    #[test]
    fn open_at_resumes_from_offset() {
        let dir = ScratchDir::new("source-offset").unwrap();
        let path = dir.path().join("s.log");
        let original = tuples(100);
        TupleLog::record(&path, original.clone().into_iter()).unwrap();
        let resumed: Vec<Tuple> = LogSource::open_at(&path, 40).unwrap().collect();
        assert_eq!(resumed, original[40..].to_vec());
        // Offsets past the end yield an empty stream, not an error.
        assert_eq!(LogSource::open_at(&path, 1_000).unwrap().count(), 0);
    }

    #[test]
    fn position_tracks_consumption() {
        let dir = ScratchDir::new("source-pos").unwrap();
        let path = dir.path().join("s.log");
        TupleLog::record(&path, tuples(10).into_iter()).unwrap();
        let mut s = LogSource::open(&path).unwrap();
        assert_eq!(s.position(), 0);
        s.next().unwrap();
        s.next().unwrap();
        assert_eq!(s.position(), 2);
    }

    #[test]
    fn torn_tail_ends_the_stream_cleanly() {
        let dir = ScratchDir::new("source-torn").unwrap();
        let path = dir.path().join("s.log");
        TupleLog::record(&path, tuples(50).into_iter()).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let replayed: Vec<Tuple> = LogSource::open(&path).unwrap().collect();
        assert_eq!(replayed.len(), 49);
    }
}
