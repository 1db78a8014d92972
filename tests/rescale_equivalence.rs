//! Rescale equivalence: for every backend, Q7 / Q11-Median / Q11
//! produce the specification's answer at parallelism 1 and 4 (N=1≡N=k,
//! through the exchange) and across a 2→4 and a 4→2 rescale at a
//! barrier after 2 500 tuples, which must pause the job. Two FlowKV-only
//! cells repeat the 2→4 rescale with every row demoted to the cold
//! tier, and on a two-thread I/O ring that shuffles its completions.

mod common;

use common::matrix::{check_row, every_backend, flowkv, short, Query, Tweak, N, PLAIN};
use flowkv_nexmark::QueryId::*;

fn rescale_row(query: Query) {
    let queries = &[query];
    for (row, parallelism) in [("parallelism_1", 1), ("parallelism_4", 4)] {
        let tweak = Tweak {
            parallelism,
            ..PLAIN
        };
        check_row(row, queries, every_backend, short(), tweak);
    }
    let up = Tweak {
        barrier: Some(2_500),
        rescale_to: Some(4),
        ..PLAIN
    };
    let down = Tweak {
        parallelism: 4,
        rescale_to: Some(2),
        ..up
    };
    check_row("rescale_2_to_4", queries, every_backend, short(), up);
    check_row("rescale_4_to_2", queries, every_backend, short(), down);
    let cold = Tweak {
        hot_bytes: Some(0),
        ..up
    };
    check_row("rescale_2_to_4_hot_0", queries, flowkv, short(), cold);
    let ring = Tweak {
        ring: Some(0),
        ..up
    };
    check_row("rescale_2_to_4_ring", queries, flowkv, short(), ring);
}

#[test]
fn rescale_equivalence_q7() {
    rescale_row(N(Q7));
}

#[test]
fn rescale_equivalence_q11_median() {
    rescale_row(N(Q11Median));
}

#[test]
fn rescale_equivalence_q11() {
    rescale_row(N(Q11));
}
