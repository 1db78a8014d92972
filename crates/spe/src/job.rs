//! The dataflow job model: logical pipelines of stateless and window
//! stages (paper §2.1, Figure 1(a)).
//!
//! A [`Job`] is a linear pipeline; each stage boundary repartitions
//! tuples by key hash, so every stage runs as `parallelism` independent
//! workers over disjoint key ranges (Figure 1(b)). Two-input operations
//! (windowed joins, side inputs) are expressed by merging the input
//! streams before a window stage and tagging values, which is how the
//! NEXMark queries in `flowkv-nexmark` build Q7 and Q8.

use std::sync::Arc;

use flowkv_common::backend::{AggregateKind, OperatorSemantics, StateBackend};
use flowkv_common::types::{Timestamp, TupleRef};

use crate::functions::{AggregateFunction, ProcessWindowFunction};
use crate::join::{IntervalJoinOperator, IntervalJoinSpec, JoinFn};
use crate::operator::{KeyedOperator, WindowOperator};
use crate::window::WindowAssigner;

/// How a window stage aggregates (determines the store pattern).
#[derive(Clone)]
pub enum AggregateSpec {
    /// Incremental aggregation: the read-modify-write pattern.
    Incremental(Arc<dyn AggregateFunction>),
    /// Full-list aggregation: the append pattern.
    FullList(Arc<dyn ProcessWindowFunction>),
}

impl AggregateSpec {
    /// The launch-time aggregate-function signature seen by the store.
    pub fn kind(&self) -> AggregateKind {
        match self {
            AggregateSpec::Incremental(_) => AggregateKind::Incremental,
            AggregateSpec::FullList(_) => AggregateKind::FullList,
        }
    }
}

/// Where a stateless stage sends what it makes of a tuple: one call per
/// output, `(key, value, timestamp)`. The slices need only outlive the
/// call — the receiver copies what it keeps — so a stage may emit bytes
/// of its input or of its own stack.
pub type Emit<'a> = dyn FnMut(&[u8], &[u8], Timestamp) + 'a;

/// A stateless flat-map: reads one lent tuple, emits zero or more.
pub type StatelessFn = Arc<dyn Fn(TupleRef<'_>, &mut Emit<'_>) + Send + Sync>;

/// Configuration of one window stage.
#[derive(Clone)]
pub struct WindowSpec {
    /// Operator name, unique within the job (used for store directories).
    pub name: String,
    /// The window function.
    pub assigner: WindowAssigner,
    /// The aggregate function.
    pub aggregate: AggregateSpec,
}

impl WindowSpec {
    /// The operator semantics handed to the state-backend factory.
    pub fn semantics(&self) -> OperatorSemantics {
        OperatorSemantics::new(self.aggregate.kind(), self.assigner.kind())
    }
}

/// One stage of a pipeline.
#[derive(Clone)]
pub enum Stage {
    /// A stateless transformation.
    Stateless {
        /// Stage name (diagnostics only).
        name: String,
        /// The flat-map function.
        f: StatelessFn,
    },
    /// A stateful window operation.
    Window(WindowSpec),
    /// A two-stream interval join over tagged inputs (paper §8).
    IntervalJoin(IntervalJoinSpec),
}

impl Stage {
    /// The stage's name.
    pub fn name(&self) -> &str {
        match self {
            Stage::Stateless { name, .. } => name,
            Stage::Window(spec) => &spec.name,
            Stage::IntervalJoin(spec) => &spec.name,
        }
    }

    /// The semantics a keyed stage's stores are created under; `None` for
    /// a stateless stage, which owns no store and runs inside its sender.
    pub(crate) fn semantics(&self) -> Option<OperatorSemantics> {
        match self {
            Stage::Stateless { .. } => None,
            Stage::Window(spec) => Some(spec.semantics()),
            Stage::IntervalJoin(spec) => Some(spec.semantics()),
        }
    }

    /// A keyed stage's operator over one partition's store; `None` for a
    /// stateless stage.
    pub(crate) fn operator(
        &self,
        backend: Box<dyn StateBackend>,
    ) -> Option<Box<dyn KeyedOperator>> {
        match self {
            Stage::Stateless { .. } => None,
            Stage::Window(spec) => Some(Box::new(WindowOperator::new(spec.clone(), backend))),
            Stage::IntervalJoin(spec) => {
                Some(Box::new(IntervalJoinOperator::new(spec.clone(), backend)))
            }
        }
    }
}

/// A run of stateless stages applied as one function: the tuples one
/// input becomes after every stage of the run, in order.
///
/// Stateless stages own no thread; whoever produces their input (the
/// source or a keyed worker) applies the run before it partitions by
/// key. Stages compose by nesting their emit calls, so nothing between
/// the input and the last stage's output is buffered.
pub(crate) struct Chain {
    fns: Vec<StatelessFn>,
}

impl Chain {
    /// The stateless stages `stages` starts with, up to its first keyed
    /// stage.
    pub(crate) fn leading(stages: &[Stage]) -> Chain {
        let fns = stages
            .iter()
            .map_while(|stage| match stage {
                Stage::Stateless { f, .. } => Some(Arc::clone(f)),
                Stage::Window(_) | Stage::IntervalJoin(_) => None,
            })
            .collect();
        Chain { fns }
    }

    /// Hands `emit` every tuple `tuple` becomes, in order.
    pub(crate) fn run(&self, tuple: TupleRef<'_>, emit: &mut Emit<'_>) {
        run_stages(&self.fns, tuple, emit);
    }
}

/// `fns[0]`, each of whose outputs runs through the rest of `fns`.
fn run_stages(fns: &[StatelessFn], tuple: TupleRef<'_>, emit: &mut Emit<'_>) {
    match fns.split_first() {
        None => emit(tuple.key, tuple.value, tuple.timestamp),
        Some((f, rest)) => f(tuple, &mut |key, value, timestamp| {
            run_stages(
                rest,
                TupleRef {
                    key,
                    value,
                    timestamp,
                },
                emit,
            )
        }),
    }
}

/// A runnable dataflow job.
#[derive(Clone)]
pub struct Job {
    /// Job name (diagnostics and data directories).
    pub name: String,
    /// Degree of parallelism `n` for every stage.
    pub parallelism: usize,
    /// The pipeline stages in order.
    pub stages: Vec<Stage>,
}

impl Job {
    /// Number of window stages in the pipeline.
    pub fn window_stage_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s, Stage::Window(_)))
            .count()
    }
}

/// Fluent builder for [`Job`].
///
/// # Examples
///
/// ```
/// use flowkv_spe::functions::CountAggregate;
/// use flowkv_spe::job::{AggregateSpec, JobBuilder};
/// use flowkv_spe::window::WindowAssigner;
/// use std::sync::Arc;
///
/// let job = JobBuilder::new("counts")
///     .parallelism(2)
///     .stateless("pass", |t, out| out(t.key, t.value, t.timestamp))
///     .window(
///         "count-per-key",
///         WindowAssigner::Fixed { size: 1_000 },
///         AggregateSpec::Incremental(Arc::new(CountAggregate)),
///     )
///     .build();
/// assert_eq!(job.stages.len(), 2);
/// ```
pub struct JobBuilder {
    name: String,
    parallelism: usize,
    stages: Vec<Stage>,
}

impl JobBuilder {
    /// Starts a job named `name` with parallelism 1.
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder {
            name: name.into(),
            parallelism: 1,
            stages: Vec::new(),
        }
    }

    /// Sets the degree of parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn parallelism(mut self, n: usize) -> Self {
        assert!(n > 0, "parallelism must be positive");
        self.parallelism = n;
        self
    }

    /// Appends a stateless flat-map stage.
    pub fn stateless(
        mut self,
        name: impl Into<String>,
        f: impl Fn(TupleRef<'_>, &mut Emit<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.stages.push(Stage::Stateless {
            name: name.into(),
            f: Arc::new(f),
        });
        self
    }

    /// Appends a window stage.
    pub fn window(
        mut self,
        name: impl Into<String>,
        assigner: WindowAssigner,
        aggregate: AggregateSpec,
    ) -> Self {
        self.stages.push(Stage::Window(WindowSpec {
            name: name.into(),
            assigner,
            aggregate,
        }));
        self
    }

    /// Appends an interval-join stage over tagged inputs (see
    /// [`crate::join::tag_left`] / [`crate::join::tag_right`]): rows join
    /// when `right.ts ∈ [left.ts + lower, left.ts + upper]`.
    pub fn interval_join(
        mut self,
        name: impl Into<String>,
        lower: i64,
        upper: i64,
        bucket_ms: i64,
        join: JoinFn,
    ) -> Self {
        self.stages.push(Stage::IntervalJoin(IntervalJoinSpec {
            name: name.into(),
            lower,
            upper,
            bucket_ms,
            join,
        }));
        self
    }

    /// Finishes the job.
    pub fn build(self) -> Job {
        Job {
            name: self.name,
            parallelism: self.parallelism,
            stages: self.stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{CountAggregate, MedianProcess};
    use flowkv_common::backend::WindowKind;
    use flowkv_common::types::Tuple;

    #[test]
    fn builder_assembles_stages() {
        let job = JobBuilder::new("j")
            .parallelism(3)
            .stateless("a", |t, out| out(t.key, t.value, t.timestamp))
            .window(
                "w",
                WindowAssigner::Session { gap: 10 },
                AggregateSpec::FullList(Arc::new(MedianProcess)),
            )
            .build();
        assert_eq!(job.parallelism, 3);
        assert_eq!(job.stages.len(), 2);
        assert_eq!(job.stages[0].name(), "a");
        assert_eq!(job.stages[1].name(), "w");
        assert_eq!(job.window_stage_count(), 1);
    }

    #[test]
    fn chain_applies_the_leading_stateless_run_in_order() {
        let job = JobBuilder::new("j")
            .stateless("drop-odd", |t, out| {
                if t.timestamp % 2 == 0 {
                    out(t.key, t.value, t.timestamp);
                }
            })
            .stateless("twice", |t, out| {
                out(t.key, t.value, t.timestamp);
                out(b"copy", t.value, t.timestamp);
            })
            .window(
                "w",
                WindowAssigner::Fixed { size: 10 },
                AggregateSpec::Incremental(Arc::new(CountAggregate)),
            )
            .stateless("after", |_, _| panic!("past the keyed stage"))
            .build();
        let run = |chain: &Chain, tuple: &Tuple| {
            let mut out = Vec::new();
            chain.run(tuple.borrowed(), &mut |key, value, timestamp| {
                out.push(Tuple::new(key.to_vec(), value.to_vec(), timestamp))
            });
            out
        };
        let chain = Chain::leading(&job.stages);
        let out = run(&chain, &Tuple::new(b"k".to_vec(), vec![7], 4));
        let keys: Vec<&[u8]> = out.iter().map(|t| &t.key[..]).collect();
        assert_eq!(keys, [&b"k"[..], b"copy"]);
        assert!(run(&chain, &Tuple::new(b"k".to_vec(), vec![7], 5)).is_empty());

        // No stateless stage in front: the tuple passes through.
        let empty = Chain::leading(&job.stages[2..]);
        let tuple = Tuple::new(b"k".to_vec(), vec![7], 5);
        assert_eq!(run(&empty, &tuple), [tuple]);
    }

    #[test]
    fn window_spec_semantics() {
        let spec = WindowSpec {
            name: "w".into(),
            assigner: WindowAssigner::Fixed { size: 7 },
            aggregate: AggregateSpec::Incremental(Arc::new(CountAggregate)),
        };
        let sem = spec.semantics();
        assert_eq!(sem.aggregate, AggregateKind::Incremental);
        assert_eq!(sem.window, WindowKind::Fixed { size: 7 });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parallelism_panics() {
        let _ = JobBuilder::new("j").parallelism(0);
    }
}
