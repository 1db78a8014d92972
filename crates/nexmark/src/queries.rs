//! The eight NEXMark queries of the FlowKV evaluation (paper §6).
//!
//! Every query is a [`Job`]: a first stateless stage decodes events,
//! filters, and re-keys; window stages do the stateful work. Two-input
//! shapes (Q8's windowed join) merge both entity kinds into one keyed
//! stream with tagged values, which is how the engine expresses joins.

use std::sync::Arc;

use flowkv_common::types::TupleRef;
use flowkv_spe::functions::{CountAggregate, FnProcess, MaxAggregate, MedianProcess};
use flowkv_spe::job::{AggregateSpec, Emit, Job, JobBuilder};
use flowkv_spe::window::WindowAssigner;

use crate::model::{BidRef, Event};

/// Value tags for Q8's merged person/auction stream.
const TAG_PERSON: u8 = 0;
const TAG_AUCTION: u8 = 1;

/// Window parameters of one query instantiation.
#[derive(Clone, Copy, Debug)]
pub struct QueryParams {
    /// Fixed/sliding window length in event-time milliseconds.
    pub window_ms: i64,
    /// Sliding interval; the paper uses half the window size (§6.1).
    pub slide_ms: i64,
    /// Session gap for the session-window queries.
    pub session_gap_ms: i64,
    /// Degree of parallelism.
    pub parallelism: usize,
}

impl QueryParams {
    /// Paper-style parameters: slide is half the window, and the session
    /// gap scales with the window so session state grows with it.
    pub fn new(window_ms: i64) -> Self {
        QueryParams {
            window_ms,
            slide_ms: (window_ms / 2).max(1),
            session_gap_ms: (window_ms / 10).max(1),
            parallelism: 2,
        }
    }

    /// Overrides the parallelism.
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// Overrides the session gap.
    pub fn with_session_gap(mut self, gap_ms: i64) -> Self {
        self.session_gap_ms = gap_ms.max(1);
        self
    }
}

/// The eight evaluated queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryId {
    /// Most-bids auction over consecutive sliding windows (RMW + RMW).
    Q5,
    /// Q5 without incremental aggregation in the second window
    /// (RMW + AAR).
    Q5Append,
    /// Highest bid per bidder over fixed windows (AAR).
    Q7,
    /// Q7 over session windows (AUR).
    Q7Session,
    /// New users who open an auction: windowed join (AAR).
    Q8,
    /// Bids per user over session windows (RMW).
    Q11,
    /// Median bid per user over session windows (AUR).
    Q11Median,
    /// Bids per user over a global window (RMW).
    Q12,
}

impl QueryId {
    /// Every evaluated query, in the paper's order.
    pub fn all() -> [QueryId; 8] {
        [
            QueryId::Q5,
            QueryId::Q5Append,
            QueryId::Q7,
            QueryId::Q7Session,
            QueryId::Q8,
            QueryId::Q11,
            QueryId::Q11Median,
            QueryId::Q12,
        ]
    }

    /// The paper's name for the query.
    pub fn name(&self) -> &'static str {
        match self {
            QueryId::Q5 => "Q5",
            QueryId::Q5Append => "Q5-Append",
            QueryId::Q7 => "Q7",
            QueryId::Q7Session => "Q7-Session",
            QueryId::Q8 => "Q8",
            QueryId::Q11 => "Q11",
            QueryId::Q11Median => "Q11-Median",
            QueryId::Q12 => "Q12",
        }
    }

    /// The dominant state-access pattern (paper Table in §6).
    pub fn pattern(&self) -> &'static str {
        match self {
            QueryId::Q5 => "RMW+RMW",
            QueryId::Q5Append => "RMW+AAR",
            QueryId::Q7 => "AAR",
            QueryId::Q7Session => "AUR",
            QueryId::Q8 => "AAR",
            QueryId::Q11 => "RMW",
            QueryId::Q11Median => "AUR",
            QueryId::Q12 => "RMW",
        }
    }

    /// Builds the query's dataflow job.
    pub fn build(&self, params: QueryParams) -> Job {
        match self {
            QueryId::Q5 => q5(params, true),
            QueryId::Q5Append => q5(params, false),
            QueryId::Q7 => q7_like(
                params,
                "q7",
                WindowAssigner::Fixed {
                    size: params.window_ms,
                },
            ),
            QueryId::Q7Session => q7_like(
                params,
                "q7-session",
                WindowAssigner::Session {
                    gap: params.session_gap_ms,
                },
            ),
            QueryId::Q8 => q8(params),
            QueryId::Q11 => q11(params),
            QueryId::Q11Median => q11_median(params),
            QueryId::Q12 => q12(params),
        }
    }
}

/// Stage 1 of the bid queries: decode in place, keep bids, key by
/// bidder, value = little-endian price.
fn bids_by_bidder(t: TupleRef<'_>, out: &mut Emit<'_>) {
    if let Ok(Some(bid)) = BidRef::decode(t.value) {
        out(
            &bid.bidder.to_le_bytes(),
            &bid.price.to_le_bytes(),
            t.timestamp,
        );
    }
}

/// Stage 1 of Q5: decode in place, keep bids, key by auction, value = 1.
fn bids_by_auction(t: TupleRef<'_>, out: &mut Emit<'_>) {
    if let Ok(Some(bid)) = BidRef::decode(t.value) {
        out(&bid.auction.to_le_bytes(), &1u64.to_le_bytes(), t.timestamp);
    }
}

/// Q5 / Q5-Append: count bids per auction over sliding windows, then
/// find the auction count maximum over consecutive sliding windows.
fn q5(params: QueryParams, incremental_second: bool) -> Job {
    let sliding = WindowAssigner::Sliding {
        size: params.window_ms,
        slide: params.slide_ms,
    };
    let second = if incremental_second {
        AggregateSpec::Incremental(Arc::new(MaxAggregate))
    } else {
        // The derived Q5-Append keeps the full count list and maximizes
        // at trigger time, forcing the append pattern (paper §6).
        AggregateSpec::FullList(Arc::new(FnProcess::new(|_k, _w, values| {
            let max = values
                .iter()
                .map(|v| flowkv_spe::functions::decode_u64(v))
                .max()
                .unwrap_or(0);
            vec![max.to_le_bytes().to_vec()]
        })))
    };
    let name = if incremental_second {
        "q5"
    } else {
        "q5-append"
    };
    JobBuilder::new(name)
        .parallelism(params.parallelism)
        .stateless("bids-by-auction", bids_by_auction)
        .window(
            "count-bids",
            sliding.clone(),
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .stateless("counts-to-hot-key", |t, out| {
            // The second window maximizes across all auctions, so counts
            // collapse onto one key.
            out(b"all", t.value, t.timestamp);
        })
        .window("max-bids", sliding, second)
        .build()
}

/// Q7 / Q7-Session: highest bid per bidder, kept as a full list (the
/// paper's side-input formulation enforces the append pattern).
fn q7_like(params: QueryParams, name: &str, assigner: WindowAssigner) -> Job {
    JobBuilder::new(name)
        .parallelism(params.parallelism)
        .stateless("bids-by-bidder", bids_by_bidder)
        .window(
            "highest-bid",
            assigner,
            AggregateSpec::FullList(Arc::new(FnProcess::new(|_k, _w, values| {
                let max = values
                    .iter()
                    .map(|v| flowkv_spe::functions::decode_u64(v))
                    .max()
                    .unwrap_or(0);
                vec![max.to_le_bytes().to_vec()]
            }))),
        )
        .build()
}

/// Q8: persons joined with their auctions inside fixed windows.
fn q8(params: QueryParams) -> Job {
    JobBuilder::new("q8")
        .parallelism(params.parallelism)
        .stateless("tag-persons-and-auctions", |t, out| {
            match Event::decode(t.value) {
                Ok(Event::Person(p)) => out(&p.id.to_le_bytes(), &[TAG_PERSON], t.timestamp),
                Ok(Event::Auction(a)) => {
                    let mut value = [TAG_AUCTION; 9];
                    value[1..].copy_from_slice(&a.id.to_le_bytes());
                    out(&a.seller.to_le_bytes(), &value, t.timestamp);
                }
                _ => {}
            }
        })
        .window(
            "join-new-sellers",
            WindowAssigner::Fixed {
                size: params.window_ms,
            },
            AggregateSpec::FullList(Arc::new(FnProcess::new(|key, _w, values| {
                // Emit the person id once if the window holds both the
                // registration and at least one auction.
                let has_person = values.iter().any(|v| v.first() == Some(&TAG_PERSON));
                let auctions = values
                    .iter()
                    .filter(|v| v.first() == Some(&TAG_AUCTION))
                    .count();
                if has_person && auctions > 0 {
                    vec![key.to_vec()]
                } else {
                    Vec::new()
                }
            }))),
        )
        .build()
}

/// Q11: bids per user over session windows (RMW).
fn q11(params: QueryParams) -> Job {
    JobBuilder::new("q11")
        .parallelism(params.parallelism)
        .stateless("bids-by-bidder", bids_by_bidder)
        .window(
            "count-per-session",
            WindowAssigner::Session {
                gap: params.session_gap_ms,
            },
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .build()
}

/// Q11-Median: median bid price per user over session windows (AUR).
fn q11_median(params: QueryParams) -> Job {
    JobBuilder::new("q11-median")
        .parallelism(params.parallelism)
        .stateless("bids-by-bidder", bids_by_bidder)
        .window(
            "median-per-session",
            WindowAssigner::Session {
                gap: params.session_gap_ms,
            },
            AggregateSpec::FullList(Arc::new(MedianProcess)),
        )
        .build()
}

/// Q12: bids per user over a global window (RMW).
fn q12(params: QueryParams) -> Job {
    JobBuilder::new("q12")
        .parallelism(params.parallelism)
        .stateless("bids-by-bidder", bids_by_bidder)
        .window(
            "count-global",
            WindowAssigner::Global,
            AggregateSpec::Incremental(Arc::new(CountAggregate)),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkv_common::backend::{AggregateKind, WindowKind};
    use flowkv_spe::job::Stage;

    fn window_semantics(job: &Job) -> Vec<(AggregateKind, WindowKind)> {
        job.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Window(spec) => {
                    let sem = spec.semantics();
                    Some((sem.aggregate, sem.window))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn all_eight_queries_build() {
        let params = QueryParams::new(1_000);
        for q in QueryId::all() {
            let job = q.build(params);
            assert!(job.window_stage_count() >= 1, "{}", q.name());
        }
    }

    #[test]
    fn patterns_match_paper_table() {
        let params = QueryParams::new(1_000);
        // Q7: one full-list window over fixed windows → AAR.
        let sem = window_semantics(&QueryId::Q7.build(params));
        assert_eq!(
            sem,
            vec![(AggregateKind::FullList, WindowKind::Fixed { size: 1_000 })]
        );
        // Q7-Session: AUR.
        let sem = window_semantics(&QueryId::Q7Session.build(params));
        assert_eq!(
            sem,
            vec![(AggregateKind::FullList, WindowKind::Session { gap: 100 })]
        );
        // Q11: RMW over sessions.
        let sem = window_semantics(&QueryId::Q11.build(params));
        assert_eq!(
            sem,
            vec![(AggregateKind::Incremental, WindowKind::Session { gap: 100 })]
        );
        // Q12: RMW over the global window.
        let sem = window_semantics(&QueryId::Q12.build(params));
        assert_eq!(sem, vec![(AggregateKind::Incremental, WindowKind::Global)]);
        // Q5: two incremental sliding windows.
        let sem = window_semantics(&QueryId::Q5.build(params));
        assert_eq!(sem.len(), 2);
        assert!(sem.iter().all(|(a, w)| *a == AggregateKind::Incremental
            && *w
                == WindowKind::Sliding {
                    size: 1_000,
                    slide: 500
                }));
        // Q5-Append: second window is full-list.
        let sem = window_semantics(&QueryId::Q5Append.build(params));
        assert_eq!(sem[1].0, AggregateKind::FullList);
    }

    #[test]
    fn names_and_patterns_are_stable() {
        let names: Vec<&str> = QueryId::all().iter().map(|q| q.name()).collect();
        assert_eq!(
            names,
            vec![
                "Q5",
                "Q5-Append",
                "Q7",
                "Q7-Session",
                "Q8",
                "Q11",
                "Q11-Median",
                "Q12"
            ]
        );
        assert_eq!(QueryId::Q11Median.pattern(), "AUR");
        assert_eq!(QueryId::Q8.pattern(), "AAR");
    }

    #[test]
    fn params_derive_slide_and_gap() {
        let p = QueryParams::new(2_000);
        assert_eq!(p.slide_ms, 1_000);
        assert_eq!(p.session_gap_ms, 200);
        assert_eq!(p.with_parallelism(8).parallelism, 8);
        assert_eq!(p.with_session_gap(5).session_gap_ms, 5);
    }
}
