//! Compaction: merging input tables into new output tables.
//!
//! The actual rewrite work lives here; the policy deciding *when* and
//! *what* to compact lives in [`crate::db`]. Inputs are provided as a
//! merging iterator over sources ordered newest-first; outputs split at a
//! target file size. At the bottom of the tree, tombstones are dropped
//! and `DeleteMerge` entries collapse.

use std::path::Path;
use std::sync::Arc;

use flowkv_common::error::Result;
use flowkv_common::vfs::Vfs;

use crate::iter::MergingIter;
use crate::sstable::{SstBuilder, SstMeta};

/// Parameters for one compaction run.
pub struct CompactionParams {
    /// Split output files when they reach this size.
    pub target_file_size: u64,
    /// Data-block target within output files.
    pub block_size: usize,
    /// Whether the output level is the bottom of the tree.
    pub bottom: bool,
}

/// Merges `inputs` into new table files in `dir`, written through `vfs`,
/// allocating file numbers from `next_file_no`.
pub fn compact(
    vfs: &Arc<dyn Vfs>,
    mut inputs: MergingIter<'_>,
    dir: &Path,
    next_file_no: &mut u64,
    params: &CompactionParams,
) -> Result<Vec<SstMeta>> {
    let mut outputs = Vec::new();
    let mut builder: Option<SstBuilder> = None;
    while let Some((key, entry)) = inputs.next_combined()? {
        let entry = if params.bottom {
            match entry.finalize_bottom() {
                Some(e) => e,
                None => continue,
            }
        } else {
            entry
        };
        if builder.is_none() {
            let file_no = *next_file_no;
            *next_file_no += 1;
            let path = dir.join(SstMeta::file_name(file_no));
            builder = Some(SstBuilder::create(vfs, &path, file_no, params.block_size)?);
        }
        let b = builder.as_mut().expect("just created");
        b.add(&key, &entry)?;
        if b.estimated_size() >= params.target_file_size {
            outputs.push(builder.take().expect("present").finish()?);
        }
    }
    if let Some(b) = builder {
        if b.entries() > 0 {
            outputs.push(b.finish()?);
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Entry, Resolved};
    use crate::iter::{EntrySource, VecSource};
    use flowkv_common::metrics::StoreMetrics;
    use flowkv_common::scratch::ScratchDir;
    use flowkv_common::vfs::StdVfs;

    fn b(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    fn run(sources: Vec<Vec<(Vec<u8>, Entry)>>, bottom: bool, dir: &Path) -> (Vec<SstMeta>, u64) {
        let boxed: Vec<Box<dyn EntrySource>> = sources
            .into_iter()
            .map(|v| Box::new(VecSource::new(v)) as Box<dyn EntrySource>)
            .collect();
        let merging = MergingIter::new(boxed).unwrap();
        let mut next = 1;
        let outs = compact(
            &StdVfs::shared(),
            merging,
            dir,
            &mut next,
            &CompactionParams {
                target_file_size: 1 << 20,
                block_size: 512,
                bottom,
            },
        )
        .unwrap();
        (outs, next)
    }

    fn read_all(dir: &Path, meta: SstMeta) -> Vec<(Vec<u8>, Entry)> {
        let r = crate::sstable::SstReader::open(
            &StdVfs::shared(),
            dir,
            meta,
            crate::cache::BlockCache::new(1 << 20),
            StoreMetrics::new_shared(),
        )
        .unwrap();
        let mut it = r.iter();
        let mut out = Vec::new();
        while let Some(pair) = it.next_entry().unwrap() {
            out.push(pair);
        }
        out
    }

    #[test]
    fn merges_and_keeps_tombstones_above_bottom() {
        let dir = ScratchDir::new("compact-mid").unwrap();
        let (outs, next) = run(
            vec![
                vec![(b("a"), Entry::Delete)],
                vec![(b("a"), Entry::Put(b("old"))), (b("b"), Entry::Put(b("x")))],
            ],
            false,
            dir.path(),
        );
        assert_eq!(next, 2);
        let entries = read_all(dir.path(), outs[0].clone());
        assert_eq!(entries[0], (b("a"), Entry::Delete));
        assert_eq!(entries[1], (b("b"), Entry::Put(b("x"))));
    }

    #[test]
    fn bottom_drops_tombstones() {
        let dir = ScratchDir::new("compact-bottom").unwrap();
        let (outs, _) = run(
            vec![
                vec![(b("a"), Entry::Delete)],
                vec![(b("a"), Entry::Put(b("old"))), (b("b"), Entry::Put(b("x")))],
            ],
            true,
            dir.path(),
        );
        let entries = read_all(dir.path(), outs[0].clone());
        assert_eq!(entries, vec![(b("b"), Entry::Put(b("x")))]);
    }

    #[test]
    fn merge_operands_concatenate_oldest_first() {
        let dir = ScratchDir::new("compact-merge").unwrap();
        let (outs, _) = run(
            vec![
                vec![(b("k"), Entry::Merge(vec![b("2")]))],
                vec![(b("k"), Entry::Merge(vec![b("1")]))],
            ],
            true,
            dir.path(),
        );
        let entries = read_all(dir.path(), outs[0].clone());
        assert_eq!(
            entries[0].1.clone().resolve(),
            Resolved::List(vec![b("1"), b("2")])
        );
    }

    #[test]
    fn output_splits_at_target_size() {
        let dir = ScratchDir::new("compact-split").unwrap();
        let source: Vec<(Vec<u8>, Entry)> = (0..100)
            .map(|i| {
                (
                    format!("key-{i:04}").into_bytes(),
                    Entry::Put(vec![7u8; 200]),
                )
            })
            .collect();
        let boxed: Vec<Box<dyn EntrySource>> = vec![Box::new(VecSource::new(source))];
        let merging = MergingIter::new(boxed).unwrap();
        let mut next = 1;
        let outs = compact(
            &StdVfs::shared(),
            merging,
            dir.path(),
            &mut next,
            &CompactionParams {
                target_file_size: 2048,
                block_size: 512,
                bottom: true,
            },
        )
        .unwrap();
        assert!(outs.len() > 1, "expected multiple output files");
        let total: u64 = outs.iter().map(|m| m.entries).sum();
        assert_eq!(total, 100);
        // Output files must have disjoint, ascending ranges.
        for pair in outs.windows(2) {
            assert!(pair[0].largest < pair[1].smallest);
        }
    }

    #[test]
    fn empty_input_produces_no_files() {
        let dir = ScratchDir::new("compact-empty").unwrap();
        let (outs, next) = run(vec![vec![]], true, dir.path());
        assert!(outs.is_empty());
        assert_eq!(next, 1);
    }
}
