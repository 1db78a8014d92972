//! The query matrix's own rows: the cells no older suite asked about.
//! Short session gaps, where the merge rule decides most outputs; the
//! ring sharded over four workers; every query under 50 ms of disorder
//! at zero slack (late drops and the side output held to the
//! specification's late rule); and at 50 ms slack (no drops) the
//! queries `out_of_order` does not run. The engine, and the list of
//! suites that hold the other rows, are in `common/matrix.rs`; each row
//! is one test, so a filter on its name (`cargo test --test matrix
//! disorder_`) selects it.

mod common;

use common::matrix::{every_backend, flowkv, jittered, short, Query, Tweak, N, NEXMARK, PLAIN};
use flowkv_nexmark::QueryId::*;

const SESSIONS: &[Query] = &[N(Q7Session), N(Q11), N(Q11Median)];
/// Q7 and Q11 run at slack 50 and 200 on every backend in `out_of_order`.
const OTHERS: &[Query] = &[
    N(Q5),
    N(Q5Append),
    N(Q7Session),
    N(Q8),
    N(Q11Median),
    N(Q12),
];

matrix! {
    // row:            queries,         backends,      shape,    tweak;
    session_gap_10:    SESSIONS,        every_backend, short,    Tweak { session_gap: Some(10), ..PLAIN };
    ring_p4:           &[N(Q11Median)], flowkv,        short,    Tweak { parallelism: 4, ring: Some(0), ..PLAIN };
    disorder_slack_0:  NEXMARK,         flowkv,        jittered, Tweak { collect_late: true, ..PLAIN };
    disorder_slack_50: OTHERS,          flowkv,        jittered, Tweak { watermark_slack: 50, ..PLAIN };
}
