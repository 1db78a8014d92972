//! Criterion micro-benchmarks of the two hot-path kernels tuned for the
//! micro-batched exchange:
//!
//! - `exchange`: cross-thread tuple transfer over the same bounded
//!   crossbeam channels the executor uses, at exchange batch sizes
//!   1/64/256, in the two batch forms the executor has had: a `Vec` of
//!   owned tuples (`vec_tuple`, two heap buffers per tuple made on the
//!   producer and freed on the consumer) and one [`TupleBatch`] arena
//!   (`tuple_batch`, two buffers per batch). The tuples are Q7's bids
//!   after the stateless prefix: an 8-byte bidder key, an 8-byte price;
//! - `crc32`: the record checksum (`flowkv_common::codec::crc32`,
//!   slicing-by-8) at log-record-relevant payload sizes.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crossbeam::channel::{bounded, Receiver, Sender};
use flowkv_common::codec::crc32;
use flowkv_common::types::Tuple;
use flowkv_spe::{Stamped, TupleBatch};

/// Mirrors the executor's channel capacity.
const CHANNEL_CAPACITY: usize = 256;
/// Tuples transferred per measured iteration.
const TUPLES: u64 = 65_536;

/// The `i`-th bid: bidder key, price value.
fn bid(i: u64) -> ([u8; 8], [u8; 8]) {
    ((i % 2_000).to_le_bytes(), (i * 7 % 10_000).to_le_bytes())
}

/// Runs `produce` against a consumer thread that drains `rx` with
/// `consume`, returning the consumer's checksum.
fn transfer<B: Send + 'static>(
    produce: impl FnOnce(Sender<B>),
    consume: impl Fn(&B) -> u64 + Send + 'static,
) -> u64 {
    let (tx, rx): (Sender<B>, Receiver<B>) = bounded(CHANNEL_CAPACITY);
    let consumer = std::thread::spawn(move || {
        let mut sum = 0u64;
        while let Ok(batch) = rx.recv() {
            sum = sum.wrapping_add(consume(&batch));
        }
        sum
    });
    produce(tx);
    consumer.join().unwrap()
}

fn owned_tuples(batch_size: usize) -> u64 {
    transfer(
        |tx| {
            let mut pending = Vec::with_capacity(batch_size);
            for i in 0..TUPLES {
                let (key, value) = bid(i);
                let tuple = Tuple::new(key.to_vec(), value.to_vec(), i as i64);
                pending.push(Stamped { tuple, origin: i });
                if pending.len() >= batch_size {
                    let full = std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
                    tx.send(full).unwrap();
                }
            }
            if !pending.is_empty() {
                tx.send(pending).unwrap();
            }
        },
        |batch: &Vec<Stamped>| {
            batch
                .iter()
                .map(|s| s.origin + u64::from(s.tuple.key[0] ^ s.tuple.value[0]))
                .sum()
        },
    )
}

fn arena_batches(batch_size: usize) -> u64 {
    transfer(
        |tx| {
            let mut pending = TupleBatch::with_capacity(batch_size, 0);
            for i in 0..TUPLES {
                let (key, value) = bid(i);
                pending.push(&key, &value, i as i64, i);
                if pending.len() >= batch_size {
                    // Sized as the executor sizes the next batch: the
                    // room the full one grew to.
                    let next = TupleBatch::with_capacity(batch_size, 16 * batch_size);
                    tx.send(std::mem::replace(&mut pending, next)).unwrap();
                }
            }
            if !pending.is_empty() {
                tx.send(pending).unwrap();
            }
        },
        |batch: &TupleBatch| {
            batch
                .iter()
                .map(|(t, origin)| origin + u64::from(t.key[0] ^ t.value[0]))
                .sum()
        },
    )
}

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    assert_eq!(owned_tuples(7), arena_batches(7), "the two forms disagree");
    for batch_size in [1usize, 64, 256] {
        group.bench_function(BenchmarkId::new("vec_tuple", batch_size), |b| {
            b.iter(|| owned_tuples(batch_size));
        });
        group.bench_function(BenchmarkId::new("tuple_batch", batch_size), |b| {
            b.iter(|| arena_batches(batch_size));
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    group.measurement_time(Duration::from_secs(5));
    for (label, len) in [("64B", 64usize), ("4KiB", 4 << 10), ("1MiB", 1 << 20)] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| crc32(&data));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exchange, bench_crc32);
criterion_main!(benches);
