//! The `Vfs` seam covers every backend's checkpoint: each file a store
//! leaves in a checkpoint directory was written through the `Vfs` the
//! factory was built with, so a fault or a count injected there reaches
//! it. Every backend runs a small checkpointing job over a `Vfs` that
//! records the paths it creates or writes, plain and tiered, and each
//! file under the checkpoint directory must be among them.
//!
//! Two files are written by the engine, not by a store, and bypass the
//! seam (DESIGN.md §13): each worker's `OPSTATE` (its timers, sessions
//! and count progress) and the root's `SOURCE_OFFSET`.

mod common;

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use common::nexmark_shape;
use flowkv::tier::TierConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::vfs::{StdVfs, Vfs, VfsFile};
use flowkv_nexmark::{EventGenerator, QueryId, QueryParams};
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, RunOptions};

/// The files of a checkpoint the engine writes itself, past the `Vfs`.
const ENGINE_FILES: [&str; 2] = ["OPSTATE", "SOURCE_OFFSET"];

/// A `Vfs` over the real file system that records every path it
/// creates, opens for writing, or writes, renames, copies or links to.
struct Recording {
    inner: Arc<dyn Vfs>,
    written: Mutex<BTreeSet<PathBuf>>,
}

impl Recording {
    fn note(&self, path: &Path) {
        self.written.lock().unwrap().insert(path.to_path_buf());
    }
}

impl Vfs for Recording {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.note(path);
        self.inner.create(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.note(path);
        self.inner.open_append(path)
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_read(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.note(path);
        self.inner.open_rw(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.note(to);
        self.inner.rename(from, to)
    }

    fn copy(&self, from: &Path, to: &Path) -> io::Result<u64> {
        self.note(to);
        self.inner.copy(from, to)
    }

    fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.note(to);
        self.inner.link_or_copy(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.note(path);
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

/// Every file under `dir`, at any depth.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files
}

/// Runs `query` on `backend` with a checkpoint barrier mid-stream, over
/// a recording `Vfs`, and checks the checkpoint's files against it.
fn checkpoint_goes_through_the_seam(query: QueryId, backend: &BackendChoice, tier: bool) {
    let label = format!(
        "{} on {}{}",
        query.name(),
        backend.name(),
        if tier { " tiered" } else { "" }
    );
    let dir = ScratchDir::new("vfs-seam").unwrap();
    let ckpt = dir.path().join("ckpt");
    let recording = Arc::new(Recording {
        inner: StdVfs::shared(),
        written: Mutex::new(BTreeSet::new()),
    });
    let mut options = FactoryOptions::new().vfs(recording.clone());
    if tier {
        options = options.tiered(TierConfig::new(0));
    }
    let mut opts = RunOptions::new(dir.path().join("data"));
    opts.watermark_interval = 100;
    opts.checkpoint_after_tuples = Some(2_000);
    opts.checkpoint_dir = Some(ckpt.clone());
    let job = query.build(QueryParams::new(1_000).with_parallelism(2));
    let source = EventGenerator::new(nexmark_shape(4_000, 11)).tuples();
    let result = run_job(&job, source, backend.build(options), &opts)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(result.checkpoint_taken, "{label}: no checkpoint");

    let written = recording.written.lock().unwrap();
    let mut store_files = 0;
    for file in files_under(&ckpt) {
        let name = file.file_name().unwrap().to_string_lossy();
        if ENGINE_FILES.contains(&name.as_ref()) {
            continue;
        }
        assert!(
            written.contains(&file),
            "{label}: {} was written past the Vfs",
            file.display()
        );
        store_files += 1;
    }
    assert!(
        store_files > 0,
        "{label}: the checkpoint holds no store file"
    );
}

#[test]
fn every_backends_checkpoint_is_written_through_its_vfs() {
    for backend in BackendChoice::all_small_for_tests() {
        for query in [QueryId::Q7, QueryId::Q11Median, QueryId::Q12] {
            checkpoint_goes_through_the_seam(query, &backend, false);
        }
    }
}

#[test]
fn every_tiered_backends_checkpoint_is_written_through_its_vfs() {
    for backend in BackendChoice::all_small_for_tests() {
        for query in [QueryId::Q7, QueryId::Q11Median, QueryId::Q12] {
            checkpoint_goes_through_the_seam(query, &backend, true);
        }
    }
}
