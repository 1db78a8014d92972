//! The generated input, pinned: the count and CRC-32 of `tuples()` for
//! the two generator shapes the benchmark's workloads use, at a few
//! seeds. A change to how tuples are built must not move a byte of them.
//! Each value is also `Event::encode` of the event at its place, holds no
//! spare capacity, and the iterator's `size_hint` is exact at every step.

use flowkv_common::codec::crc32;
use flowkv_nexmark::{EventGenerator, GeneratorConfig};

/// The generator shape of a workload: its stream at 10 000 events per
/// second of event time, people and auctions both `people`.
fn shape(events: u64, people: u64, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_events: events,
        seed,
        first_ts: 0,
        events_per_second: 10_000,
        active_people: people,
        active_auctions: people,
        hot_ratio: 0.1,
        out_of_order_ms: 0,
    }
}

/// The tuple count and the CRC-32 of every tuple's key, value length,
/// value and timestamp, in stream order; checks each tuple on the way.
fn pin(cfg: GeneratorConfig) -> (u64, u32) {
    let mut events = EventGenerator::new(cfg.clone());
    let mut tuples = EventGenerator::new(cfg).tuples();
    let (mut count, mut bytes) = (0u64, Vec::new());
    loop {
        let left = events.size_hint();
        assert_eq!(left, (left.0, Some(left.0)), "inexact after {count}");
        assert_eq!(tuples.size_hint(), left, "tuples() after {count}");
        let Some(tuple) = tuples.next() else {
            assert!(events.next().is_none() && left.0 == 0);
            return (count, crc32(&bytes));
        };
        let event = events.next().expect("as many events as tuples");
        assert_eq!(tuple.value, event.encode(), "tuple {count}");
        assert_eq!(tuple.value.capacity(), tuple.value.len(), "tuple {count}");
        assert_eq!(tuple.key, count.to_le_bytes());
        bytes.extend_from_slice(&tuple.key);
        bytes.extend_from_slice(&(tuple.value.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&tuple.value);
        bytes.extend_from_slice(&tuple.timestamp.to_le_bytes());
        count += 1;
    }
}

#[test]
fn the_q7_aar_max_input_is_pinned() {
    // `q7-aar-max`'s stream: 600 000 events over 2 000 people.
    let pins = [(1, 0xb095_5c3b), (2, 0x709d_a889), (3, 0x3c87_d5d2)];
    for (seed, crc) in pins {
        assert_eq!(
            pin(shape(600_000, 2_000, seed)),
            (600_000, crc),
            "seed {seed}"
        );
    }
}

#[test]
fn the_q11m_aur_cold_input_is_pinned() {
    // `q11m-aur-cold`'s stream: 12 500 events over 400 people.
    let pins = [(1, 0x199c_7b4b), (2, 0x1cbe_87ad), (3, 0x99cc_1da2)];
    for (seed, crc) in pins {
        assert_eq!(pin(shape(12_500, 400, seed)), (12_500, crc), "seed {seed}");
    }
}
