//! A blocked-free, double-hashing Bloom filter for SSTables.
//!
//! RocksDB attaches a Bloom filter to every table file so point lookups
//! can skip files that cannot contain the key; we do the same. The filter
//! uses Kirsch–Mitzenmacher double hashing over the shared 64-bit key
//! hash, which is within a fraction of a percent of k independent hashes.

use flowkv_common::codec::{put_varint_u64, Decoder};
use flowkv_common::error::Result;
use flowkv_common::hash::hash64_seeded;

/// An immutable Bloom filter over a set of byte keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    num_bits: u64,
    k: u32,
}

impl BloomFilter {
    /// Builds a filter for `keys` at `bits_per_key` bits of budget each.
    ///
    /// `bits_per_key = 10` gives roughly a 1 % false-positive rate.
    pub fn build<'a>(keys: impl IntoIterator<Item = &'a [u8]>, bits_per_key: usize) -> Self {
        let keys: Vec<&[u8]> = keys.into_iter().collect();
        let num_bits = (keys.len() * bits_per_key).max(64) as u64;
        // The optimal number of probes is ln(2) * bits/key.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let mut bits = vec![0u8; num_bits.div_ceil(8) as usize];
        for key in keys {
            let (h1, h2) = Self::hash_pair(key);
            let mut h = h1;
            for _ in 0..k {
                let bit = h % num_bits;
                bits[(bit / 8) as usize] |= 1 << (bit % 8);
                h = h.wrapping_add(h2);
            }
        }
        BloomFilter { bits, num_bits, k }
    }

    /// Returns `false` only when `key` is definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = Self::hash_pair(key);
        let mut h = h1;
        for _ in 0..self.k {
            let bit = h % self.num_bits;
            if self.bits[(bit / 8) as usize] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(h2);
        }
        true
    }

    /// Appends the binary encoding of the filter to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        put_varint_u64(buf, self.num_bits);
        put_varint_u64(buf, u64::from(self.k));
        buf.extend_from_slice(&self.bits);
    }

    /// Decodes a filter previously written by [`BloomFilter::encode_to`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self> {
        let num_bits = dec.get_varint_u64()?;
        let k = dec.get_varint_u64()? as u32;
        let n_bytes = num_bits.div_ceil(8) as usize;
        let bits = dec.take(n_bytes, "bloom bits")?.to_vec();
        Ok(BloomFilter { bits, num_bits, k })
    }

    fn hash_pair(key: &[u8]) -> (u64, u64) {
        let h1 = hash64_seeded(key, 0xb100);
        let h2 = hash64_seeded(key, 0xb200) | 1;
        (h1, h2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i:06}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(5000);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 10);
        for k in &ks {
            assert!(filter.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ks = keys(5000);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 10);
        let mut fp = 0usize;
        let probes = 10_000;
        for i in 0..probes {
            let absent = format!("absent-{i:06}");
            if filter.may_contain(absent.as_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.05, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_rejects() {
        let filter = BloomFilter::build(std::iter::empty(), 10);
        assert!(!filter.may_contain(b"anything"));
    }

    #[test]
    fn codec_roundtrip() {
        let ks = keys(100);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 10);
        let mut buf = Vec::new();
        filter.encode_to(&mut buf);
        let mut dec = Decoder::new(&buf);
        let back = BloomFilter::decode_from(&mut dec).unwrap();
        assert_eq!(back, filter);
    }
}
