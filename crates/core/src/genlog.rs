//! One compactable append-only log, kept as a sequence of *generations*.
//!
//! AUR's data and index logs, RMW's value log and the tier's cold log
//! share one on-disk life (paper §4.2/§4.3, §5, §8): records are appended
//! to `<stem>_<generation>.<ext>` until dead bytes dominate, then the live
//! ones are rewritten into generation + 1. [`GenLog`] owns all of it but
//! the record *content*: name, recovery at open, writer and reader,
//! `total`/`dead` accounting, the amplification rule, rewrite, checkpoint.
//!
//! **Stage → rename → remove.** A rewrite is synced under `<name>.tmp`;
//! [`GenLog::commit`] makes it current with one rename, and only then
//! removes the previous file. A final name therefore always holds a
//! complete file, and [`GenLog::open`] takes the highest generation:
//! the right one whichever side of the rename a fault fell on.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::logfile::{
    record_payload, scan_records_in, LogWriter, RandomAccessLog, RecordLocation,
};
use flowkv_common::vfs::Vfs;

/// A generation-named append-only log.
pub(crate) struct GenLog {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    stem: &'static str,
    ext: &'static str,
    generation: u64,
    /// Open exactly when the current generation's file exists.
    writer: Option<LogWriter>,
    /// Read handle over the current generation, opened on first use.
    reader: Option<RandomAccessLog>,
    /// Bytes of the current generation the store no longer refers to.
    dead: u64,
}

/// A rewrite synced under its temporary name, for [`GenLog::commit`].
pub(crate) struct Staged {
    generation: u64,
    writer: LogWriter,
}

impl GenLog {
    /// Opens the log `<stem>_<N>.<ext>` in the existing `dir` at its
    /// highest generation — or at `pin`, when another log decides it —
    /// deleting every other generation and temp, truncating a torn tail.
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        stem: &'static str,
        ext: &'static str,
        pin: Option<u64>,
    ) -> Result<Self> {
        let names = vfs
            .read_dir_names(dir)
            .map_err(|e| StoreError::io_at("log scan", dir, e))?;
        let mut log = GenLog {
            vfs,
            dir: dir.to_path_buf(),
            stem,
            ext,
            generation: 0,
            writer: None,
            reader: None,
            dead: 0,
        };
        let own: Vec<(String, Option<u64>)> = names
            .into_iter()
            .filter_map(|name| log.parse_name(&name).map(|generation| (name, generation)))
            .collect();
        let highest = own.iter().filter_map(|(_, generation)| *generation).max();
        log.generation = pin.or(highest).unwrap_or(0);
        for (name, generation) in own {
            if generation != Some(log.generation) {
                let _ = log.vfs.remove_file(&log.dir.join(name));
            }
        }
        log.adopt()?;
        Ok(log)
    }

    fn file_name(&self, generation: u64) -> String {
        format!("{}_{generation}.{}", self.stem, self.ext)
    }

    /// `Some(Some(generation))` for a file of this log, `Some(None)` for
    /// a temp of it, `None` for any other name.
    fn parse_name(&self, name: &str) -> Option<Option<u64>> {
        let rest = name.strip_prefix(self.stem)?.strip_prefix('_')?;
        let (rest, temp) = (rest.trim_end_matches(".tmp"), rest.ends_with(".tmp"));
        let (generation, ext) = rest.split_once('.')?;
        let generation = generation.parse().ok().filter(|_| ext == self.ext)?;
        Some((!temp).then_some(generation))
    }

    /// Adopts the current generation's file, if any, less a torn tail.
    fn adopt(&mut self) -> Result<()> {
        if self.vfs.exists(&self.path()) {
            self.writer = Some(LogWriter::open_append_in(&self.vfs, self.path())?);
        }
        Ok(())
    }

    /// The current generation (bumped by each committed rewrite).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Path of the current generation's file.
    pub(crate) fn path(&self) -> PathBuf {
        self.dir.join(self.file_name(self.generation))
    }

    /// Bytes in the current generation, live and dead.
    pub(crate) fn total(&self) -> u64 {
        self.writer.as_ref().map_or(0, LogWriter::offset)
    }

    /// Bytes retired since the last rewrite.
    pub(crate) fn dead(&self) -> u64 {
        self.dead
    }

    /// Appends one record, creating the file on first use.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<RecordLocation> {
        if self.writer.is_none() {
            self.writer = Some(LogWriter::create_in(&self.vfs, self.path())?);
        }
        self.writer.as_mut().expect("opened above").append(payload)
    }

    /// Pushes buffered appends to the file, where a reader sees them.
    pub(crate) fn flush(&mut self) -> Result<()> {
        self.writer.as_mut().map_or(Ok(()), LogWriter::flush)
    }

    /// [`GenLog::flush`], then fsync.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.writer.as_mut().map_or(Ok(()), LogWriter::sync)
    }

    /// [`GenLog::flush`], then the path to scan, if there is a file.
    pub(crate) fn flushed_path(&mut self) -> Result<Option<PathBuf>> {
        self.flush()?;
        Ok(self.writer.is_some().then(|| self.path()))
    }

    /// The cached positioned reader, with buffered appends flushed first.
    pub(crate) fn reader(&mut self) -> Result<&mut RandomAccessLog> {
        self.flush()?;
        if self.reader.is_none() {
            self.reader = Some(RandomAccessLog::open_in(&self.vfs, self.path())?);
        }
        Ok(self.reader.as_mut().expect("opened above"))
    }

    /// Hands every record of the log to `each`, in log order.
    pub(crate) fn scan(
        &mut self,
        each: impl FnMut(RecordLocation, &[u8]) -> Result<()>,
    ) -> Result<()> {
        match self.flushed_path()? {
            Some(path) => scan_records_in(&self.vfs, &path, 0, u64::MAX, each),
            None => Ok(()),
        }
    }

    /// Cuts the log back to its first `len` bytes, a record boundary.
    pub(crate) fn truncate(&mut self, len: u64) -> Result<()> {
        (self.writer, self.reader) = (None, None);
        let path = self.path();
        let cut = self.vfs.open_rw(&path).and_then(|file| file.set_len(len));
        cut.map_err(|e| StoreError::io_at("log truncate", path, e))?;
        self.adopt()
    }

    /// Marks `bytes` of the log dead: the store no longer refers to them.
    pub(crate) fn retire(&mut self, bytes: u64) {
        self.dead += bytes;
    }

    /// The one rewrite rule (paper §4.2; MSA, §6.4): space amplification
    /// `total / (total − dead)` exceeds `msa` and the log holds `floor` B.
    pub(crate) fn amplified(&self, msa: f64, floor: u64) -> bool {
        let (total, live) = (self.total(), self.total() - self.dead);
        self.dead > 0 && total >= floor && (live == 0 || total as f64 / live as f64 > msa)
    }

    /// Writes what `fill` appends as the next generation's temp, synced.
    fn stage(
        &mut self,
        fill: impl FnOnce(&mut Self, &mut LogWriter) -> Result<()>,
    ) -> Result<Staged> {
        let generation = self.generation + 1;
        let tmp = self.dir.join(self.file_name(generation) + ".tmp");
        let mut writer = LogWriter::create_in(&self.vfs, tmp)?;
        fill(self, &mut writer)?;
        writer.sync()?;
        Ok(Staged { generation, writer })
    }

    /// Stages a rewrite of the records at `live` — `(offset, on-disk
    /// length)`, offset-sorted by callers so the copy is one pass — as
    /// verified raw bytes (paper §5); `moved(i, o)`: `live[i]` is now at `o`.
    pub(crate) fn relocate(
        &mut self,
        live: &[(u64, u64)],
        mut moved: impl FnMut(usize, u64) -> Result<()>,
    ) -> Result<Staged> {
        self.stage(|log, writer| match live {
            [] => Ok(()),
            _ => log.reader()?.read_records(live, |i, record| {
                moved(i, writer.append(record_payload(record))?.offset)
            }),
        })
    }

    /// Stages a rewrite holding exactly `payloads`, one record each;
    /// `placed(o)`: the next of them is at `o`.
    pub(crate) fn replace<P: AsRef<[u8]>>(
        &mut self,
        payloads: impl IntoIterator<Item = P>,
        mut placed: impl FnMut(u64),
    ) -> Result<Staged> {
        let mut payloads = payloads.into_iter();
        self.stage(|_, writer| {
            payloads.try_for_each(|p| writer.append(p.as_ref()).map(|loc| placed(loc.offset)))
        })
    }

    /// Makes each rewrite its log's current generation, in the order
    /// given: one rename per log, no previous file removed before the
    /// last. A group so committed reopens consistently if the *last*
    /// log's generation is taken as authoritative.
    pub(crate) fn commit<'a>(
        rewrites: impl IntoIterator<Item = (&'a mut GenLog, Staged)>,
    ) -> Result<()> {
        let mut previous = Vec::new();
        for (log, staged) in rewrites {
            let path = log.dir.join(log.file_name(staged.generation));
            log.vfs
                .rename(staged.writer.path(), &path)
                .map_err(|e| StoreError::io_at("log commit rename", &path, e))?;
            previous.push((Arc::clone(&log.vfs), log.path()));
            // The writer's handle follows the file across the rename.
            (log.generation, log.writer) = (staged.generation, Some(staged.writer));
            (log.reader, log.dead) = (None, 0);
        }
        for (vfs, path) in previous {
            let _ = vfs.remove_file(&path);
        }
        Ok(())
    }

    /// Syncs the log and copies it to `name` in the checkpoint directory
    /// `dir` (created if missing); a log with no file leaves an empty one.
    pub(crate) fn checkpoint_to(&mut self, dir: &Path, name: &str) -> Result<()> {
        self.sync()?;
        let dst = dir.join(name);
        self.vfs
            .create_dir_all(dir)
            .and_then(|()| match &self.writer {
                Some(_) => self.vfs.copy(&self.path(), &dst).map(drop),
                None => self.vfs.write(&dst, &[]),
            })
            .map_err(|e| StoreError::io_at("log checkpoint copy", dst, e))
    }

    /// Replaces the log with the copy `name` in the checkpoint directory
    /// `dir` (an empty log when there is none), as generation 0.
    pub(crate) fn restore_from(&mut self, dir: &Path, name: &str) -> Result<()> {
        self.destroy();
        let src = dir.join(name);
        self.vfs
            .create_dir_all(&self.dir)
            .and_then(|()| match self.vfs.exists(&src) {
                true => self.vfs.copy(&src, &self.path()).map(drop),
                false => Ok(()),
            })
            .map_err(|e| StoreError::io_at("log restore copy", src, e))?;
        self.adopt()
    }

    /// Deletes the log's file and resets it to an empty generation 0.
    pub(crate) fn destroy(&mut self) {
        (self.writer, self.reader) = (None, None);
        let _ = self.vfs.remove_file(&self.path());
        (self.generation, self.dead) = (0, 0);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use flowkv_common::metrics::MetricsSnapshot;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::{FaultKind, FaultPlan, FaultVfs, StdVfs, VfsFile};
    use std::io::{self, Read, Seek, SeekFrom, Write};
    use std::time::Duration;

    /// A filesystem on which every write through a file handle takes
    /// `delay`: what the stores' timer tests flush against, so a flush
    /// counted twice shows up as more store time than wall time.
    pub(crate) struct SlowWrites {
        inner: Arc<dyn Vfs>,
        delay: Duration,
    }

    impl SlowWrites {
        pub(crate) fn shared(delay: Duration) -> Arc<dyn Vfs> {
            Arc::new(SlowWrites {
                inner: StdVfs::shared(),
                delay,
            })
        }

        fn slow(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
            Ok(Box::new(SlowFile {
                inner: file?,
                delay: self.delay,
            }))
        }
    }

    struct SlowFile {
        inner: Box<dyn VfsFile>,
        delay: Duration,
    }

    impl Read for SlowFile {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl Write for SlowFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            std::thread::sleep(self.delay);
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Seek for SlowFile {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    impl VfsFile for SlowFile {
        fn sync_data(&mut self) -> io::Result<()> {
            self.inner.sync_data()
        }
        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            self.inner.read_exact_at(buf, offset)
        }
        fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
            std::thread::sleep(self.delay);
            self.inner.write_all_at(buf, offset)
        }
        fn set_len(&self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }
        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
    }

    impl Vfs for SlowWrites {
        fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.slow(self.inner.create(path))
        }
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.slow(self.inner.open_append(path))
        }
        fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.inner.open_read(path)
        }
        fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            self.slow(self.inner.open_rw(path))
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn copy(&self, from: &Path, to: &Path) -> io::Result<u64> {
            self.inner.copy(from, to)
        }
        fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.link_or_copy(from, to)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.inner.write(path, data)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn file_len(&self, path: &Path) -> io::Result<u64> {
            self.inner.file_len(path)
        }
        fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
            self.inner.read_dir_names(path)
        }
    }

    /// What each store's timer test ends on, after driving flushes (and
    /// compactions) through [`SlowWrites`] at 1 ms a write: the writes
    /// were timed, and no nanosecond was charged to two timers.
    pub(crate) fn assert_no_time_counted_twice(m: &MetricsSnapshot, wall_nanos: u64) {
        assert!(m.flushes >= 10, "{m:?}");
        assert!(m.write_nanos >= m.flushes * 1_000_000, "writes slept {m:?}");
        assert!(
            m.total_store_nanos() <= wall_nanos,
            "write + read + compaction = {} ns of {wall_nanos} ns wall: {m:?}",
            m.total_store_nanos()
        );
    }

    fn open_in(vfs: Arc<dyn Vfs>, dir: &Path, pin: Option<u64>) -> GenLog {
        GenLog::open(vfs, dir, "data", "aurd", pin).unwrap()
    }

    fn open(dir: &Path, pin: Option<u64>) -> GenLog {
        open_in(StdVfs::shared(), dir, pin)
    }

    /// Every payload of the log, in order.
    fn payloads(log: &mut GenLog) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        log.scan(|_, payload| {
            out.push(payload.to_vec());
            Ok(())
        })
        .unwrap();
        out
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names = StdVfs.read_dir_names(dir).unwrap();
        names.sort();
        names
    }

    #[test]
    fn names_round_trip_and_foreign_names_are_left_alone() {
        let dir = ScratchDir::new("genlog-names").unwrap();
        let log = open(dir.path(), None);
        for generation in [0, 7, u64::MAX] {
            let name = log.file_name(generation);
            assert_eq!(log.parse_name(&name), Some(Some(generation)), "{name}");
            assert_eq!(log.parse_name(&format!("{name}.tmp")), Some(None));
        }
        assert_eq!(log.file_name(3), "data_3.aurd");
        for foreign in [
            "index_3.auri",
            "data_3.auri",
            "data_x.aurd",
            "data_3.aurd.bak",
            "data_3aurd",
            "data3.aurd",
            "data_.aurd",
        ] {
            assert_eq!(log.parse_name(foreign), None, "{foreign}");
        }
    }

    #[test]
    fn reopen_takes_the_highest_generation_and_deletes_the_rest() {
        let dir = ScratchDir::new("genlog-reopen").unwrap();
        let write = |name: &str, payload: &[u8]| {
            let mut w = LogWriter::create(dir.path().join(name)).unwrap();
            w.append(payload).unwrap();
            w.flush().unwrap();
        };
        write("data_1.aurd", b"one");
        write("data_3.aurd", b"three");
        write("data_4.aurd.tmp", b"staged, never committed");
        write("data_2.aurd.tmp", b"older temp");
        write("index_9.auri", b"another log's file");

        let mut log = open(dir.path(), None);
        assert_eq!(log.generation(), 3);
        assert_eq!(payloads(&mut log), vec![b"three".to_vec()]);
        assert_eq!(names(dir.path()), ["data_3.aurd", "index_9.auri"]);
        drop(log);

        // A pinned log follows the generation it is told, not the
        // highest it finds: the other side of a group commit decided.
        write("data_4.aurd", b"committed ahead of its index");
        let mut log = open(dir.path(), Some(3));
        assert_eq!(log.generation(), 3);
        assert_eq!(payloads(&mut log), vec![b"three".to_vec()]);
        assert_eq!(names(dir.path()), ["data_3.aurd", "index_9.auri"]);
    }

    #[test]
    fn a_torn_tail_is_truncated_at_open() {
        let dir = ScratchDir::new("genlog-torn").unwrap();
        let mut log = open(dir.path(), None);
        let intact = log.append(b"intact").unwrap();
        let torn = log.append(b"will be torn").unwrap();
        log.flush().unwrap();
        let path = log.path();
        drop(log);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(torn.offset + torn.disk_len() / 2).unwrap();
        drop(file);

        let mut log = open(dir.path(), None);
        assert_eq!(log.total(), intact.end_offset());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact.end_offset());
        assert_eq!(log.append(b"after").unwrap().offset, torn.offset);
        assert_eq!(
            payloads(&mut log),
            vec![b"intact".to_vec(), b"after".to_vec()]
        );
    }

    #[test]
    fn relocate_reports_every_offset_and_moves_the_original_bytes() {
        let dir = ScratchDir::new("genlog-relocate").unwrap();
        let mut log = open(dir.path(), None);
        let records: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 10 + 50 * i as usize]).collect();
        let locs: Vec<RecordLocation> = records.iter().map(|r| log.append(r).unwrap()).collect();
        log.flush().unwrap();
        let old_path = log.path();
        let old_bytes = std::fs::read(&old_path).unwrap();
        let live: Vec<usize> = vec![1, 2, 5];
        for (i, loc) in locs.iter().enumerate() {
            if !live.contains(&i) {
                log.retire(loc.disk_len());
            }
        }
        let wanted: Vec<(u64, u64)> = live
            .iter()
            .map(|&i| (locs[i].offset, locs[i].disk_len()))
            .collect();

        let mut moved = vec![None; wanted.len()];
        let staged = log
            .relocate(&wanted, |i, offset| {
                moved[i] = Some(offset);
                Ok(())
            })
            .unwrap();
        // Staged, not current: the old generation is untouched.
        assert_eq!((log.generation(), log.path()), (0, old_path.clone()));
        assert_eq!(names(dir.path()), ["data_0.aurd", "data_1.aurd.tmp"]);
        GenLog::commit([(&mut log, staged)]).unwrap();
        assert_eq!(names(dir.path()), ["data_1.aurd"]);
        assert_eq!((log.generation(), log.dead()), (1, 0));

        let mut expect = Vec::new();
        let mut offsets = Vec::new();
        for &(offset, len) in &wanted {
            offsets.push(Some(expect.len() as u64));
            expect.extend_from_slice(&old_bytes[offset as usize..(offset + len) as usize]);
        }
        assert_eq!(moved, offsets);
        assert_eq!(std::fs::read(log.path()).unwrap(), expect);
        assert_eq!(log.total(), expect.len() as u64);

        // The log goes on from the rewrite: appends land behind it and
        // positioned reads find the relocated records.
        let appended = log.append(b"next").unwrap();
        assert_eq!(appended.offset, expect.len() as u64);
        let mut read = Vec::new();
        let at = (moved[1].unwrap(), wanted[1].1);
        log.reader()
            .unwrap()
            .read_records(&[at], |_, record| {
                read = record_payload(record).to_vec();
                Ok(())
            })
            .unwrap();
        assert_eq!(read, records[2]);
        drop(log);
        let mut log = open(dir.path(), None);
        let mut all: Vec<Vec<u8>> = live.iter().map(|&i| records[i].clone()).collect();
        all.push(b"next".to_vec());
        assert_eq!(payloads(&mut log), all);
    }

    #[test]
    fn a_group_commit_cut_short_reopens_the_old_pair() {
        // Two logs rewritten together, the second's generation
        // authoritative — AUR's data and index. An `ENOSPC` on the second
        // rename leaves data at 1 and index at 0 on disk.
        let dir = ScratchDir::new("genlog-group").unwrap();
        let pair = |vfs: Arc<dyn Vfs>| {
            let index = GenLog::open(Arc::clone(&vfs), dir.path(), "index", "auri", None).unwrap();
            let data = open_in(vfs, dir.path(), Some(index.generation()));
            (data, index)
        };
        let counting = FaultVfs::counting(StdVfs::shared());
        let (mut data, mut index) = pair(counting.clone());
        data.append(b"value").unwrap();
        index.append(b"entry").unwrap();
        let rewrite = |data: &mut GenLog, index: &mut GenLog| {
            let d = data.replace(&[b"value".to_vec()], |_| ())?;
            let i = index.replace(&[b"entry".to_vec()], |_| ())?;
            GenLog::commit([(data, d), (index, i)])
        };
        let before = counting.ops();
        rewrite(&mut data, &mut index).unwrap();
        let ops = counting.ops() - before;
        assert_eq!((data.generation(), index.generation()), (1, 1));
        drop((data, index));

        let mut cut_short = 0;
        for op in 1..=ops {
            // Opening costs ops too, as many as the files on disk make it.
            let counting = FaultVfs::counting(StdVfs::shared());
            drop(pair(counting.clone()));
            let plan = FaultPlan::new().with_fault(counting.ops() + op, FaultKind::Enospc);
            let (mut data, mut index) = pair(FaultVfs::new(StdVfs::shared(), plan));
            let from = index.generation();
            let failed = rewrite(&mut data, &mut index).is_err();
            drop((data, index));
            let (mut data, mut index) = pair(StdVfs::shared());
            assert_eq!(data.generation(), index.generation(), "fault at op {op}");
            let expect = if failed { from } else { from + 1 };
            assert_eq!(index.generation(), expect, "fault at op {op}");
            assert_eq!(payloads(&mut data), vec![b"value".to_vec()], "op {op}");
            assert_eq!(payloads(&mut index), vec![b"entry".to_vec()], "op {op}");
            cut_short += u32::from(failed);
        }
        assert!(cut_short >= 4, "{cut_short} of {ops} faults surfaced");
    }

    #[test]
    fn the_rewrite_rule_is_amplification_past_a_floor() {
        let dir = ScratchDir::new("genlog-rule").unwrap();
        let mut log = open(dir.path(), None);
        // (total, dead, msa, floor) → rewrite?
        let table = [
            ((0, 0, 1.5, 0), false),       // empty
            ((100, 0, 1.5, 0), false),     // nothing dead
            ((100, 30, 1.5, 0), false),    // 100 / 70 < 1.5
            ((150, 50, 1.5, 0), false),    // exactly the MSA: not past it
            ((150, 51, 1.5, 0), true),     // just past it
            ((150, 51, 1.5, 150), true),   // at the floor
            ((150, 51, 1.5, 151), false),  // below the floor
            ((100, 100, 1.5, 0), true),    // nothing live: infinite
            ((100, 100, 1.5, 101), false), // ... but still below the floor
            ((100, 100, 1e9, 0), true),
            ((100, 51, 2.0, 0), true), // the tier's factor: over half dead
            ((100, 50, 2.0, 0), false),
        ];
        for ((total, dead, msa, floor), rewrite) in table {
            log.destroy();
            if total > 0 {
                let header = flowkv_common::logfile::RECORD_HEADER_LEN;
                log.append(&vec![0u8; (total - header) as usize]).unwrap();
            }
            log.dead = dead;
            assert_eq!(
                log.amplified(msa, floor),
                rewrite,
                "total {total}, dead {dead}, msa {msa}, floor {floor}"
            );
        }
    }
}
