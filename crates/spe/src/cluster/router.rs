//! The coordinator's source router: one pass over the scheduled source
//! stream that slices tuples across key-range shards while every shard
//! receives the *global* watermark/barrier schedule.
//!
//! A shard that derived its own watermarks from the tuples it happens to
//! own would lag the global event clock (its max timestamp trails the
//! stream's), and a lagging watermark can flip a session-window merge
//! decision at the gap boundary — producing output that differs from the
//! N=1 run. The router therefore runs the full stream through the same
//! [`Schedule`] the single-worker run uses and copies each of its
//! watermarks into every shard.
//!
//! For a rescale the same pass splits the stream at the barrier: tuples
//! up to and including offset `B` go to the old shards followed by a
//! [`SourceItem::Barrier`] and a [`SourceItem::Halt`]; everything after
//! the barrier — including the watermark due *at* `B`, which must not
//! fire windows the barrier just snapshotted — goes to the new shards.

use flowkv::KeyRangePartitioner;
use flowkv_common::types::Tuple;

use crate::executor::{Schedule, SourceItem};
use crate::job::{Chain, Stage};

/// The routed item streams for one cluster run.
pub(crate) struct RoutePlan {
    /// Per-shard items at the initial parallelism.
    pub(crate) phase1: Vec<Vec<SourceItem>>,
    /// Per-shard items at the rescaled parallelism (rescale runs only).
    pub(crate) phase2: Option<Vec<Vec<SourceItem>>>,
    /// Source tuples consumed.
    pub(crate) input_count: u64,
    /// Whether the rescale barrier was actually reached.
    pub(crate) barrier_taken: bool,
}

/// Routes `source` into per-shard item streams.
///
/// `prefix` is the job's leading stateless stages, applied here so
/// routing sees the keys the stateful stage will group by. `rescale`
/// carries the target partitioner and the barrier offset (in source
/// tuples) at which the stream splits.
pub(crate) fn route(
    source: impl Iterator<Item = Tuple>,
    prefix: &[Stage],
    partitioner: &KeyRangePartitioner,
    rescale: Option<(&KeyRangePartitioner, u64)>,
    wm_interval: usize,
    slack: i64,
) -> RoutePlan {
    let mut phase1: Vec<Vec<SourceItem>> = vec![Vec::new(); partitioner.shards()];
    let mut phase2: Option<Vec<Vec<SourceItem>>> =
        rescale.map(|(p, _)| vec![Vec::new(); p.shards()]);
    let mut barrier_taken = false;
    let mut count: u64 = 0;
    let chain = Chain::leading(prefix);
    for item in Schedule::new(source, wm_interval, slack, rescale.map(|(_, b)| b)) {
        // Everything the schedule emits after the barrier — the
        // watermark sharing its offset included — belongs to phase 2:
        // firing that watermark in phase 1 would consume window state
        // the barrier just checkpointed, and the migrated state would
        // fire the same windows again.
        let (part, shards) = match (&mut phase2, barrier_taken) {
            (Some(p2), true) => (rescale.expect("phase 2 implies rescale").0, p2),
            _ => (partitioner, &mut phase1),
        };
        match item {
            SourceItem::Tuple(tuple) => {
                count += 1;
                chain.run(tuple.borrowed(), &mut |key, value, timestamp| {
                    let derived = Tuple::new(key.to_vec(), value.to_vec(), timestamp);
                    shards[part.shard_of(key)].push(SourceItem::Tuple(derived));
                });
            }
            SourceItem::Barrier => {
                for shard in &mut phase1 {
                    shard.push(SourceItem::Barrier);
                }
                barrier_taken = true;
            }
            control => {
                for shard in shards.iter_mut() {
                    shard.push(control.clone());
                }
            }
        }
    }
    if barrier_taken {
        for shard in &mut phase1 {
            shard.push(SourceItem::Halt);
        }
    }
    RoutePlan {
        phase1,
        phase2,
        input_count: count,
        barrier_taken,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::types::TupleRef;

    fn t(key: &str, ts: i64) -> Tuple {
        Tuple::new(key.into(), vec![1], ts)
    }

    /// A hundred tuples, one per millisecond, each on its own key.
    fn hundred() -> impl Iterator<Item = Tuple> {
        (0..100i64).map(|i| t(&format!("k{i}"), i))
    }

    /// The schedule's control items with their positions in tuples:
    /// `(tuples seen so far, item)`.
    fn controls(schedule: impl Iterator<Item = SourceItem>) -> Vec<(u64, SourceItem)> {
        let mut seen = 0;
        let mut out = Vec::new();
        for item in schedule {
            match item {
                SourceItem::Tuple(_) => seen += 1,
                control => out.push((seen, control)),
            }
        }
        out
    }

    #[test]
    fn schedule_puts_the_barrier_before_the_watermark_of_the_same_count() {
        let got = controls(Schedule::new(hundred(), 10, 0, Some(50)));
        let at_50: Vec<&SourceItem> = got
            .iter()
            .filter(|(seen, _)| *seen == 50)
            .map(|(_, item)| item)
            .collect();
        assert!(
            matches!(at_50[..], [SourceItem::Barrier, SourceItem::Watermark(49)]),
            "{at_50:?}"
        );
        // One barrier in the whole stream, and the cadence is untouched
        // around it.
        assert_eq!(got.len(), 11, "{got:?}");
    }

    #[test]
    fn schedule_applies_the_slack_to_every_watermark() {
        let got = controls(Schedule::new(hundred(), 10, 2, None));
        let want: Vec<(u64, i64)> = (1..=10).map(|i| (i * 10, i as i64 * 10 - 1 - 2)).collect();
        let wms: Vec<(u64, i64)> = got
            .iter()
            .map(|(seen, item)| match item {
                SourceItem::Watermark(ts) => (*seen, *ts),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(wms, want);
    }

    #[test]
    fn checkpoint_offset_beyond_the_stream_end_emits_no_barrier() {
        let got = controls(Schedule::new(hundred(), 10, 0, Some(101)));
        assert!(
            got.iter()
                .all(|(_, item)| matches!(item, SourceItem::Watermark(_))),
            "{got:?}"
        );
        let old = KeyRangePartitioner::new(2);
        let new = KeyRangePartitioner::new(4);
        let plan = route(hundred(), &[], &old, Some((&new, 101)), 10, 0);
        assert!(!plan.barrier_taken);
        assert!(plan.phase2.unwrap().iter().all(|shard| shard.is_empty()));
    }

    #[test]
    fn every_shard_sees_the_same_watermark_schedule() {
        let part = KeyRangePartitioner::new(3);
        let plan = route(hundred(), &[], &part, None, 10, 2);
        assert_eq!(plan.input_count, 100);
        assert!(!plan.barrier_taken);
        let wms = |shard: &[SourceItem]| -> Vec<i64> {
            shard
                .iter()
                .filter_map(|i| match i {
                    SourceItem::Watermark(ts) => Some(*ts),
                    _ => None,
                })
                .collect()
        };
        let want: Vec<i64> = (1..=10).map(|i| i * 10 - 1 - 2).collect();
        for shard in &plan.phase1 {
            assert_eq!(wms(shard), want);
        }
        // Every tuple landed exactly once, on its key's shard.
        let total: usize = plan
            .phase1
            .iter()
            .map(|s| {
                s.iter()
                    .filter(|i| matches!(i, SourceItem::Tuple(_)))
                    .count()
            })
            .sum();
        assert_eq!(total, 100);
        for (idx, shard) in plan.phase1.iter().enumerate() {
            for item in shard {
                if let SourceItem::Tuple(t) = item {
                    assert_eq!(part.shard_of(&t.key), idx);
                }
            }
        }
    }

    #[test]
    fn rescale_splits_at_the_barrier_with_halt_and_carried_schedule() {
        let old = KeyRangePartitioner::new(2);
        let new = KeyRangePartitioner::new(4);
        let plan = route(hundred(), &[], &old, Some((&new, 50)), 10, 0);
        assert!(plan.barrier_taken);
        let phase2 = plan.phase2.as_ref().unwrap();
        for shard in &plan.phase1 {
            // Barrier then Halt close every old shard; no watermark in
            // between (the one due at offset 50 moved to phase 2).
            let tail: Vec<&SourceItem> = shard.iter().rev().take(2).collect();
            assert!(matches!(tail[0], SourceItem::Halt), "{tail:?}");
            assert!(matches!(tail[1], SourceItem::Barrier), "{tail:?}");
            assert!(shard
                .iter()
                .skip_while(|i| !matches!(i, SourceItem::Barrier))
                .all(|i| !matches!(i, SourceItem::Watermark(_))));
        }
        // Phase 2 opens with the watermark due at the barrier offset and
        // continues the global cadence.
        for shard in phase2 {
            assert!(
                matches!(shard.first(), Some(SourceItem::Watermark(49))),
                "{:?}",
                shard.first()
            );
        }
        let p1: usize = plan
            .phase1
            .iter()
            .flatten()
            .filter(|i| matches!(i, SourceItem::Tuple(_)))
            .count();
        let p2: usize = phase2
            .iter()
            .flatten()
            .filter(|i| matches!(i, SourceItem::Tuple(_)))
            .count();
        assert_eq!((p1, p2), (50, 50));
    }

    #[test]
    fn prefix_is_applied_before_routing() {
        let part = KeyRangePartitioner::new(4);
        let prefix = vec![Stage::Stateless {
            name: "rekey".into(),
            f: std::sync::Arc::new(|t: TupleRef<'_>, out: &mut crate::job::Emit<'_>| {
                out(b"fixed", t.value, t.timestamp);
            }),
        }];
        let source = (0..20i64).map(|i| t(&format!("k{i}"), i));
        let plan = route(source, &prefix, &part, None, 1000, 0);
        // All derived tuples share one key, so exactly one shard is
        // non-empty and it is that key's shard.
        let owner = part.shard_of(b"fixed");
        for (idx, shard) in plan.phase1.iter().enumerate() {
            let tuples = shard
                .iter()
                .filter(|i| matches!(i, SourceItem::Tuple(_)))
                .count();
            assert_eq!(tuples, if idx == owner { 20 } else { 0 });
        }
    }
}
