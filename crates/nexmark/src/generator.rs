//! The NEXMark event generator.
//!
//! Follows the Beam generator's structure (paper §6, "Input dataset"):
//! deterministic given a seed, with each block of 50 events containing
//! 1 person, 3 auctions, and 46 bids (2 % / 6 % / 92 %). Event time
//! advances at a configurable rate, so a fixed `events_per_second`
//! directly controls how many tuples each window contains.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flowkv_common::types::{Timestamp, Tuple};

use crate::model::{Auction, Bid, Event, Person};

/// Events per 50-event block, following the Beam NEXMark generator.
const PERSONS_PER_BLOCK: u64 = 1;
const AUCTIONS_PER_BLOCK: u64 = 3;
const BLOCK: u64 = 50;

const US_STATES: [&str; 8] = ["AZ", "CA", "ID", "KY", "MO", "NY", "OR", "WA"];
const CHANNELS: [&str; 4] = [
    "flink-mobile",
    "aol-mail",
    "baidu-search",
    "apps-like-Gmail",
];
const FIRST_NAMES: [&str; 8] = [
    "Peter", "Paul", "Luke", "John", "Saul", "Vicky", "Kate", "Julie",
];
const LAST_NAMES: [&str; 8] = [
    "Shultz", "Abrams", "Spencer", "White", "Bartels", "Walton", "Smith", "Jones",
];

/// Configuration of one generated stream.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Total number of events to produce.
    pub num_events: u64,
    /// Seed for deterministic generation.
    pub seed: u64,
    /// Timestamp of the first event.
    pub first_ts: Timestamp,
    /// Event-time rate: events per second of stream time.
    pub events_per_second: u64,
    /// Number of distinct people actively bidding.
    pub active_people: u64,
    /// Number of distinct auctions receiving bids.
    pub active_auctions: u64,
    /// Fraction of bids routed to a small hot set (NEXMark skew).
    pub hot_ratio: f64,
    /// Maximum backward timestamp jitter in milliseconds: each event's
    /// timestamp is shifted back by a uniform amount in `[0, this]`,
    /// producing the bounded out-of-orderness real sources exhibit.
    pub out_of_order_ms: i64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_events: 100_000,
            seed: 42,
            first_ts: 0,
            events_per_second: 10_000,
            active_people: 1_000,
            active_auctions: 1_000,
            hot_ratio: 0.1,
            out_of_order_ms: 0,
        }
    }
}

impl GeneratorConfig {
    /// Event timestamp of the `i`-th event.
    pub fn timestamp_of(&self, i: u64) -> Timestamp {
        self.first_ts + (i * 1_000 / self.events_per_second.max(1)) as i64
    }

    /// Total event-time span of the stream in milliseconds.
    pub fn stream_span_ms(&self) -> i64 {
        self.timestamp_of(self.num_events.saturating_sub(1)) - self.first_ts
    }
}

/// Deterministic NEXMark event stream.
pub struct EventGenerator {
    cfg: GeneratorConfig,
    rng: StdRng,
    next: u64,
    next_person_id: u64,
    next_auction_id: u64,
}

impl EventGenerator {
    /// Creates a generator for `cfg`.
    pub fn new(cfg: GeneratorConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        EventGenerator {
            cfg,
            rng,
            next: 0,
            next_person_id: 0,
            next_auction_id: 0,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Converts the event stream into engine tuples: the key is the event
    /// sequence number (queries re-key in their first stage) and the
    /// value is the serialized event.
    pub fn tuples(self) -> impl Iterator<Item = Tuple> {
        self.tuples_with_telemetry(None)
    }

    /// Like [`tuples`](Self::tuples), additionally publishing generator
    /// telemetry when a handle is given: per-type event counters
    /// (`nexmark_events_total{type=person|auction|bid}`) and the latest
    /// generated event time (`nexmark_event_time_ms`), which together
    /// with the executor's `operator_watermark` gauges make end-to-end
    /// ingest lag observable. `None` costs nothing per event.
    pub fn tuples_with_telemetry(
        self,
        telemetry: Option<std::sync::Arc<flowkv_common::telemetry::Telemetry>>,
    ) -> impl Iterator<Item = Tuple> {
        let probe = telemetry.map(|t| {
            let registry = t.registry();
            (
                registry.counter("nexmark_events_total{type=person}"),
                registry.counter("nexmark_events_total{type=auction}"),
                registry.counter("nexmark_events_total{type=bid}"),
                registry.gauge("nexmark_event_time_ms"),
            )
        });
        let mut seq: u64 = 0;
        // Each event is encoded into one reused buffer and copied out at
        // its exact length.
        let mut scratch = Vec::new();
        self.map(move |event| {
            let ts = event.timestamp();
            if let Some((people, auctions, bids, event_time)) = &probe {
                match &event {
                    Event::Person(_) => people.inc(),
                    Event::Auction(_) => auctions.inc(),
                    Event::Bid(_) => bids.inc(),
                }
                event_time.set(ts);
            }
            scratch.clear();
            event.encode_into(&mut scratch);
            let t = Tuple::new(seq.to_le_bytes().to_vec(), scratch.to_vec(), ts);
            seq += 1;
            t
        })
    }

    fn person_id_for_bid(&mut self) -> u64 {
        let people = self.cfg.active_people.max(1);
        if self.rng.gen_bool(self.cfg.hot_ratio.clamp(0.0, 1.0)) {
            // The hot set is the most recent ~2 % of people.
            let hot = (people / 50).max(1);
            self.rng.gen_range(0..hot)
        } else {
            self.rng.gen_range(0..people)
        }
    }

    fn auction_id_for_bid(&mut self) -> u64 {
        let auctions = self.cfg.active_auctions.max(1);
        if self.rng.gen_bool(self.cfg.hot_ratio.clamp(0.0, 1.0)) {
            let hot = (auctions / 50).max(1);
            self.rng.gen_range(0..hot)
        } else {
            self.rng.gen_range(0..auctions)
        }
    }
}

impl Iterator for EventGenerator {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.next >= self.cfg.num_events {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let mut ts = self.cfg.timestamp_of(i);
        if self.cfg.out_of_order_ms > 0 {
            ts -= self.rng.gen_range(0..=self.cfg.out_of_order_ms);
            ts = ts.max(self.cfg.first_ts);
        }
        let slot = i % BLOCK;
        Some(if slot < PERSONS_PER_BLOCK {
            let id = self.next_person_id;
            self.next_person_id += 1;
            Event::Person(Person {
                id,
                name: format!(
                    "{} {}",
                    FIRST_NAMES[self.rng.gen_range(0..FIRST_NAMES.len())],
                    LAST_NAMES[self.rng.gen_range(0..LAST_NAMES.len())]
                ),
                state: US_STATES[self.rng.gen_range(0..US_STATES.len())].to_string(),
                date_time: ts,
            })
        } else if slot < PERSONS_PER_BLOCK + AUCTIONS_PER_BLOCK {
            let id = self.next_auction_id;
            self.next_auction_id += 1;
            // Most sellers are recent people, as in the Beam generator.
            let seller = if self.next_person_id > 0 {
                let window = self.next_person_id.min(100);
                self.next_person_id - 1 - self.rng.gen_range(0..window)
            } else {
                0
            };
            Event::Auction(Auction {
                id,
                seller,
                category: self.rng.gen_range(0..10),
                initial_bid: self.rng.gen_range(100..10_000),
                date_time: ts,
                expires: ts + self.rng.gen_range(10_000..100_000),
            })
        } else {
            Event::Bid(Bid {
                auction: self.auction_id_for_bid(),
                bidder: self.person_id_for_bid(),
                price: self.rng.gen_range(100..1_000_000),
                channel: CHANNELS[self.rng.gen_range(0..CHANNELS.len())].to_string(),
                date_time: ts,
            })
        })
    }

    /// Exact: the events left to generate.
    fn size_hint(&self) -> (usize, Option<usize>) {
        match usize::try_from(self.cfg.num_events - self.next) {
            Ok(left) => (left, Some(left)),
            Err(_) => (usize::MAX, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(n: u64) -> Vec<Event> {
        EventGenerator::new(GeneratorConfig {
            num_events: n,
            ..GeneratorConfig::default()
        })
        .collect()
    }

    #[test]
    fn proportions_match_nexmark() {
        let events = gen(5_000);
        let persons = events
            .iter()
            .filter(|e| matches!(e, Event::Person(_)))
            .count();
        let auctions = events
            .iter()
            .filter(|e| matches!(e, Event::Auction(_)))
            .count();
        let bids = events.iter().filter(|e| matches!(e, Event::Bid(_))).count();
        assert_eq!(persons, 100); // 2 %
        assert_eq!(auctions, 300); // 6 %
        assert_eq!(bids, 4_600); // 92 %
    }

    #[test]
    fn deterministic_given_seed() {
        let a = gen(1_000);
        let b = gen(1_000);
        assert_eq!(a, b);
        let c: Vec<Event> = EventGenerator::new(GeneratorConfig {
            num_events: 1_000,
            seed: 7,
            ..GeneratorConfig::default()
        })
        .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_are_monotone_and_rate_controlled() {
        let cfg = GeneratorConfig {
            num_events: 10_000,
            events_per_second: 1_000,
            ..GeneratorConfig::default()
        };
        let span = cfg.stream_span_ms();
        // 10k events at 1k events/sec of stream time = ~10 s.
        assert_eq!(span, 9_999);
        let events: Vec<Event> = EventGenerator::new(cfg).collect();
        for pair in events.windows(2) {
            assert!(pair[0].timestamp() <= pair[1].timestamp());
        }
    }

    #[test]
    fn out_of_order_jitter_is_bounded() {
        let cfg = GeneratorConfig {
            num_events: 5_000,
            events_per_second: 1_000,
            out_of_order_ms: 50,
            ..GeneratorConfig::default()
        };
        let reference = GeneratorConfig {
            out_of_order_ms: 0,
            ..cfg.clone()
        };
        let jittered: Vec<Event> = EventGenerator::new(cfg.clone()).collect();
        let mut disordered = 0;
        for (i, e) in jittered.iter().enumerate() {
            let ideal = reference.timestamp_of(i as u64);
            assert!(e.timestamp() <= ideal);
            assert!(e.timestamp() >= ideal - 50);
            if i > 0 && e.timestamp() < jittered[i - 1].timestamp() {
                disordered += 1;
            }
        }
        assert!(disordered > 0, "jitter produced no out-of-order pairs");
    }

    #[test]
    fn bid_ids_respect_active_ranges() {
        let cfg = GeneratorConfig {
            num_events: 5_000,
            active_people: 10,
            active_auctions: 20,
            ..GeneratorConfig::default()
        };
        for event in EventGenerator::new(cfg) {
            if let Event::Bid(b) = event {
                assert!(b.bidder < 10);
                assert!(b.auction < 20);
            }
        }
    }

    #[test]
    fn tuples_carry_serialized_events() {
        let cfg = GeneratorConfig {
            num_events: 100,
            ..GeneratorConfig::default()
        };
        let tuples: Vec<Tuple> = EventGenerator::new(cfg).tuples().collect();
        assert_eq!(tuples.len(), 100);
        for t in &tuples {
            let event = Event::decode(&t.value).unwrap();
            assert_eq!(event.timestamp(), t.timestamp);
        }
        // Keys are distinct sequence numbers (spreads source routing).
        let mut keys: Vec<&Vec<u8>> = tuples.iter().map(|t| &t.key).collect();
        keys.dedup();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn average_bid_size_is_compact() {
        let events = gen(1_000);
        let bid_sizes: Vec<usize> = events
            .iter()
            .filter(|e| matches!(e, Event::Bid(_)))
            .map(|e| e.encode().len())
            .collect();
        let avg = bid_sizes.iter().sum::<usize>() as f64 / bid_sizes.len() as f64;
        assert!(avg > 10.0 && avg < 84.0, "avg bid size {avg}");
    }
}
