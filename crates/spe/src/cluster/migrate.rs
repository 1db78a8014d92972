//! Key-range state migration: repartitioning a coordinated checkpoint
//! from N workers to M.
//!
//! Rescaling is recovery at a different parallelism (paper §8 applied
//! sideways): every store already persists per-key state keyed by
//! `(key, window)`, and the single-writer-per-partition discipline means
//! a partition's files can be opened, drained, and re-injected without
//! coordinating with anyone. Migration therefore needs no store-specific
//! file surgery — it restores each old `(worker, partition)` operator,
//! extracts its state as [`StateEntry`]s (AAR/AUR value lists and RMW
//! aggregates alike, via `StateBackend::extract_range`), routes every
//! entry by the *new* key-range partitioner, and replays it into the new
//! `(worker, partition)` operators through the same `append` /
//! `put_aggregate` calls that built it. Engine-side state (open
//! sessions, timers, count progress) splits along the same key routes
//! via [`WindowOperator::export_engine_shards`].

use std::path::Path;
use std::sync::Arc;

use flowkv::KeyRangePartitioner;
use flowkv_common::backend::{OperatorContext, StateBackendFactory, StateEntry};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::hash::partition_of;
use flowkv_common::trace::SpanRecorder;

use crate::executor::worker_ckpt_dir;
use crate::job::{Job, Stage, WindowSpec};
use crate::operator::{KeyedOperator, WindowOperator};

/// Per-worker checkpoint root inside a cluster checkpoint directory.
pub(crate) fn cluster_ckpt_dir(root: &Path, worker: usize) -> std::path::PathBuf {
    root.join(format!("w{worker}"))
}

/// The checkpoint directory of one operator partition of one shard, in
/// the layout the runner writes.
fn partition_ckpt_dir(
    root: &Path,
    worker: usize,
    stage: &str,
    partition: usize,
) -> std::path::PathBuf {
    worker_ckpt_dir(&cluster_ckpt_dir(root, worker), stage, partition)
}

/// Repartitions the coordinated checkpoint under `old_root` (written by
/// `old_n` workers) into a new coordinated checkpoint under `new_root`
/// for `new_n` workers. `scratch` receives the transient store
/// directories of the migration operators; the caller owns its cleanup.
/// When `rec` is set, each old `(worker, partition)` contributes
/// `migrate_extract` / `migrate_inject` spans and the final checkpoint
/// of the new shard set records as one `migrate_commit` span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn repartition(
    worker_job: &Job,
    factory: &Arc<dyn StateBackendFactory>,
    old_root: &Path,
    old_n: usize,
    new_root: &Path,
    new_n: usize,
    scratch: &Path,
    rec: Option<&SpanRecorder>,
) -> Result<()> {
    let Some(Stage::Window(spec)) = worker_job.stages.first() else {
        return Err(StoreError::invalid_state(
            "cluster rescale requires a window stage".to_string(),
        ));
    };
    let p = worker_job.parallelism;
    let new_part = KeyRangePartitioner::new(new_n);
    let kind = spec.aggregate.kind();
    // Every key routes to one global target: worker `shard_of(key)` at
    // internal partition `partition_of(key, p)` — the same two hashes
    // the router and the executor's exchange will use on resume.
    let route = |key: &[u8]| -> usize { new_part.shard_of(key) * p + partition_of(key, p) };
    let targets_len = new_n * p;

    let mut targets: Vec<WindowOperator> = Vec::with_capacity(targets_len);
    for j in 0..new_n {
        for k in 0..p {
            targets.push(open_operator(
                spec,
                factory,
                k,
                &scratch.join(format!("new-w{j}-p{k}")),
            )?);
        }
    }

    for i in 0..old_n {
        for k in 0..p {
            let extract = rec.map(|r| {
                r.begin_with(
                    "migrate_extract",
                    "migrate",
                    None,
                    vec![("worker", i as i64), ("partition", k as i64)],
                )
            });
            let mut op = open_operator(spec, factory, k, &scratch.join(format!("old-w{i}-p{k}")))?;
            op.restore(&partition_ckpt_dir(old_root, i, &spec.name, k))?;
            let entries = op.backend_mut().extract_range(&|_| true, kind)?;
            let mut per_target: Vec<Vec<StateEntry>> =
                (0..targets_len).map(|_| Vec::new()).collect();
            for entry in entries {
                per_target[route(entry.key())].push(entry);
            }
            if let (Some(r), Some(span)) = (rec, extract) {
                let routed: i64 = per_target.iter().map(|b| b.len() as i64).sum();
                r.end_with(
                    span,
                    "migrate_extract",
                    "migrate",
                    vec![("entries", routed)],
                );
            }
            let inject = rec.map(|r| {
                r.begin_with(
                    "migrate_inject",
                    "migrate",
                    None,
                    vec![("worker", i as i64), ("partition", k as i64)],
                )
            });
            for (target, batch) in targets.iter_mut().zip(per_target) {
                if !batch.is_empty() {
                    target.backend_mut().inject_entries(batch)?;
                }
            }
            for (target, shard) in targets
                .iter_mut()
                .zip(op.export_engine_shards(targets_len, &route))
            {
                target.absorb_engine_shard(shard);
            }
            if let (Some(r), Some(span)) = (rec, inject) {
                r.end(span, "migrate_inject", "migrate");
            }
            op.backend_mut().close()?;
        }
    }

    let commit = rec.map(|r| {
        r.begin_with(
            "migrate_commit",
            "migrate",
            None,
            vec![("targets", targets_len as i64)],
        )
    });
    for (idx, mut target) in targets.into_iter().enumerate() {
        let (j, k) = (idx / p, idx % p);
        target.checkpoint(&partition_ckpt_dir(new_root, j, &spec.name, k))?;
        target.backend_mut().close()?;
    }
    if let (Some(r), Some(span)) = (rec, commit) {
        r.end(span, "migrate_commit", "migrate");
    }
    Ok(())
}

/// Builds a standalone window operator over a fresh backend rooted at
/// `data_dir`, used only to host state in transit.
fn open_operator(
    spec: &WindowSpec,
    factory: &Arc<dyn StateBackendFactory>,
    partition: usize,
    data_dir: &Path,
) -> Result<WindowOperator> {
    let ctx = OperatorContext {
        operator: spec.name.clone(),
        partition,
        semantics: spec.semantics(),
        data_dir: data_dir.to_path_buf(),
        telemetry: None,
        io: None,
    };
    Ok(WindowOperator::new(spec.clone(), factory.create(&ctx)?))
}
