//! The NEXMark benchmark: data model, generator, and the eight queries
//! of the FlowKV evaluation (paper §6, "Workload").
//!
//! NEXMark emulates an online auction: a stream of person, auction, and
//! bid events in a 2 % / 6 % / 92 % mix. The FlowKV paper evaluates
//! eight original and derived queries chosen to exercise all three state
//! access patterns:
//!
//! | query | pattern(s) | description |
//! |---|---|---|
//! | Q5 | RMW + RMW | most-bids auction over consecutive sliding windows |
//! | Q5-Append | RMW + AAR | same, without incremental aggregation |
//! | Q7 | AAR | highest bid per bidder, fixed windows (side input style) |
//! | Q7-Session | AUR | Q7 with session windows |
//! | Q8 | AAR | new users who auction, windowed join |
//! | Q11 | RMW | bids per user, session windows |
//! | Q11-Median | AUR | median bid per user, session windows |
//! | Q12 | RMW | bids per user, global window |

pub mod generator;
pub mod model;
pub mod queries;

pub use generator::{EventGenerator, GeneratorConfig};
pub use model::{Auction, Bid, BidRef, Event, Person};
pub use queries::{QueryId, QueryParams};
