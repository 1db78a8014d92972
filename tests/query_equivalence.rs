//! Cross-backend equivalence: every NEXMark query produces exactly the
//! specification's answer on the in-memory store, FlowKV, the LSM
//! baseline and the hash baseline — the plain run of the query matrix
//! (`common/matrix.rs`) over 20 000 events. The reference is the
//! specification, not another store, so a bug all four share is red.

mod common;

use common::matrix::{every_backend, long, N, PLAIN};
use flowkv_nexmark::QueryId::*;

matrix! {
    // row:                               queries,           backends,      shape, tweak;
    q5_equivalent_across_backends:        &[N(Q5)],          every_backend, long,  PLAIN;
    q5_append_equivalent_across_backends: &[N(Q5Append)],    every_backend, long,  PLAIN;
    q7_equivalent_across_backends:        &[N(Q7)],          every_backend, long,  PLAIN;
    q7_session_equivalent_across_backends: &[N(Q7Session)],  every_backend, long,  PLAIN;
    q8_equivalent_across_backends:        &[N(Q8)],          every_backend, long,  PLAIN;
    q11_equivalent_across_backends:       &[N(Q11)],         every_backend, long,  PLAIN;
    q11_median_equivalent_across_backends: &[N(Q11Median)],  every_backend, long,  PLAIN;
    q12_equivalent_across_backends:       &[N(Q12)],         every_backend, long,  PLAIN;
}
