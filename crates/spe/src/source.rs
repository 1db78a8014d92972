//! Replayable sources: the Kafka analog.
//!
//! The paper's fault-tolerance model (§8) assumes a *rewindable* data
//! source: on failure, the engine restores a checkpoint and replays
//! tuples from the checkpoint's offset. [`TupleLog`] persists a tuple
//! stream into a checksummed log file and [`LogSource`] replays it from
//! any offset — exactly the contract Kafka provides the paper's
//! deployment. (The broker's other role, the fixed-rate feed of the
//! paper's latency runs (§6.2), is `RunOptions::rate_limit`.)

use std::path::Path;

use flowkv_common::codec::Decoder;
use flowkv_common::error::{Result, StoreError};
use flowkv_common::logfile::{LogReader, LogWriter};
use flowkv_common::types::Tuple;
use flowkv_common::vfs::StdVfs;

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
