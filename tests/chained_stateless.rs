//! Stateless stages run inside their sender, not on threads of their
//! own: NEXMark Q5 (stateless → window → stateless → window) exercises
//! both a chain in the source's exchange and one in a keyed worker's.
//!
//! One telemetry-enabled run shows which threads exist (only `source`
//! and the two window stages own `operator=` series) and that its
//! outputs are the specification's. (Q5's batch, barrier and resume
//! cells are `batching_equivalence`'s
//! `q5_chained_batching_invisible`.)
//!
//! A chain composes its stages by nesting their emit calls; a proptest
//! holds random chains to the stages composed one after the other over
//! owned tuples.

mod common;

use std::collections::BTreeSet;

use common::{nexmark_shape, sorted_triples, spec_outputs};
use flowkv::FlowKvConfig;
use flowkv_common::scratch::ScratchDir;
use flowkv_common::telemetry::Telemetry;
use flowkv_common::types::{Tuple, TupleRef};
use flowkv_nexmark::{EventGenerator, QueryId, QueryParams};
use flowkv_spe::job::Emit;
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobBuilder, RunOptions};
use proptest::prelude::*;

const PARALLELISM: usize = 2;

#[test]
fn q5_chains_run_in_their_senders_and_change_no_output() {
    let dir = ScratchDir::new("chained-q5").unwrap();
    let shape = nexmark_shape(20_000, 11);
    let job = QueryId::Q5.build(QueryParams::new(1_000).with_parallelism(PARALLELISM));
    let telemetry = Telemetry::new_shared();
    let mut opts = RunOptions::new(dir.path());
    opts.collect_outputs = true;
    opts.watermark_interval = 100;
    opts.telemetry = Some(telemetry.clone());
    let observed = run_job(
        &job,
        EventGenerator::new(shape.clone()).tuples(),
        BackendChoice::FlowKv(FlowKvConfig::small_for_tests()).build(FactoryOptions::new()),
        &opts,
    )
    .expect("Q5 run failed");

    // Who recorded anything: every engine series is labelled with the
    // stage whose thread wrote it.
    let samples = telemetry.registry().snapshot();
    let operators: BTreeSet<&str> = samples
        .iter()
        .filter_map(|s| s.name.split_once("operator="))
        .map(|(_, rest)| rest.split([',', '}']).next().unwrap())
        .collect();
    assert_eq!(
        operators.into_iter().collect::<Vec<_>>(),
        ["count-bids", "max-bids", "source"],
        "a stateless stage owns telemetry series"
    );
    // One `operator_busy_nanos` series per worker thread: threads per
    // job = source + sink + keyed stages × parallelism.
    let workers = samples
        .iter()
        .filter(|s| s.name.starts_with("operator_busy_nanos{"))
        .count();
    assert_eq!(workers, 2 * PARALLELISM);
    assert_eq!(
        sorted_triples(&observed.outputs),
        spec_outputs(QueryId::Q5, shape)
    );
}

/// One stateless stage, as data, so a case can print and rebuild it.
#[derive(Clone, Copy, Debug)]
enum StageOp {
    /// Keeps a tuple when `(timestamp + key length) % modulus == rest`.
    Filter { modulus: i64, rest: i64 },
    /// Emits the tuple, then a copy with a longer value a millisecond on.
    Duplicate,
    /// Keys by `salt` and the value's first byte (none when empty, and
    /// then by nothing at all when `salt` is 0); the old key becomes the
    /// value.
    Rekey { salt: u8 },
}

impl StageOp {
    fn apply(self, t: TupleRef<'_>, out: &mut Emit<'_>) {
        match self {
            StageOp::Filter { modulus, rest } => {
                if (t.timestamp + t.key.len() as i64).rem_euclid(modulus) == rest {
                    out(t.key, t.value, t.timestamp);
                }
            }
            StageOp::Duplicate => {
                out(t.key, t.value, t.timestamp);
                let mut longer = t.value.to_vec();
                longer.push(0xff);
                out(t.key, &longer, t.timestamp + 1);
            }
            StageOp::Rekey { salt } => {
                let mut key = [salt; 2];
                let len = match (salt, t.value.first()) {
                    (0, _) => 0,
                    (_, None) => 1,
                    (_, Some(&first)) => {
                        key[1] = first;
                        2
                    }
                };
                out(&key[..len], t.key, t.timestamp);
            }
        }
    }
}

fn stage_op() -> impl Strategy<Value = StageOp> {
    prop_oneof![
        2 => (1i64..4, 0i64..4).prop_map(|(modulus, rest)| StageOp::Filter {
            modulus,
            rest: rest % modulus,
        }),
        1 => Just(StageOp::Duplicate),
        2 => (0u8..4).prop_map(|salt| StageOp::Rekey { salt }),
    ]
}

/// The stages composed one after the other: each stage's outputs are
/// collected as owned tuples before the next stage reads them.
fn composed_owned(ops: &[StageOp], input: &[Tuple]) -> Vec<Tuple> {
    let mut tuples = input.to_vec();
    for op in ops {
        let mut next = Vec::new();
        for t in &tuples {
            op.apply(t.borrowed(), &mut |key, value, timestamp| {
                next.push(Tuple::new(key.to_vec(), value.to_vec(), timestamp))
            });
        }
        tuples = next;
    }
    tuples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A job of random filter / duplicate / re-key stages and nothing
    /// else runs its chain in the source's exchange and sends what it
    /// emits straight to the sink, in order: exactly what composing the
    /// stages over owned tuples makes, at any batch size.
    #[test]
    fn an_emit_chain_equals_its_stages_composed_over_owned_tuples(
        ops in prop::collection::vec(stage_op(), 0..5),
        input in prop::collection::vec(
            (prop::collection::vec(0u8..3, 0..3), prop::collection::vec(any::<u8>(), 0..3)),
            0..40,
        ),
        batch_size in prop_oneof![Just(1usize), Just(3usize), Just(256usize)],
    ) {
        let input: Vec<Tuple> = input
            .into_iter()
            .enumerate()
            .map(|(ts, (key, value))| Tuple::new(key, value, ts as i64))
            .collect();
        let mut builder = JobBuilder::new("chain").parallelism(2);
        for (i, op) in ops.iter().copied().enumerate() {
            builder = builder.stateless(format!("op{i}"), move |t, out| op.apply(t, out));
        }
        let dir = ScratchDir::new("chained-proptest").unwrap();
        let mut opts = RunOptions::new(dir.path());
        opts.collect_outputs = true;
        opts.batch_size = batch_size;
        opts.watermark_interval = 7;
        let result = run_job(
            &builder.build(),
            input.clone().into_iter(),
            BackendChoice::InMemory { budget_per_partition: 1 << 20 }.build(FactoryOptions::new()),
            &opts,
        )
        .unwrap();
        prop_assert_eq!(result.outputs, composed_owned(&ops, &input), "{:?}", ops);
    }
}
