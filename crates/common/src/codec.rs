//! Byte-level encoding primitives: varints, fixed-width integers,
//! length-prefixed slices, and CRC32.
//!
//! Every on-disk structure in the workspace is built from these
//! primitives, so the encoding is deliberately small and allocation-free
//! on the read path (the [`Decoder`] borrows its input).
//!
//! Decoding sits on the hottest read paths — every record an AUR batch
//! read loads, every serve frame, every checkpoint — so the
//! [`Decoder`]'s methods are `#[inline]` (callers in other crates inline
//! them without LTO) and fail with a [`DecodeError`]: a two-case `Copy`
//! enum with no destructor, so a decoded value comes back in registers.
//! `?` turns it into the matching [`StoreError`] at the first function
//! that returns one; the conversion is `#[cold]`, off the success path.
//!
//! [`crc32`] checksums every log record, cold block and SSTable block.
//! It has two kernels with bit-identical output: carry-less-multiply
//! folding, 16 bytes per multiply, on x86_64 CPUs where `pclmulqdq` is
//! detected at run time and the input is 64 bytes or more; and
//! slicing-by-8, the fallback for shorter inputs, the folded kernel's
//! < 16-byte tail, other CPUs and other targets. The folded kernel's
//! module holds the crate's only `unsafe`.

use crate::error::StoreError;

/// Maximum encoded size of a 64-bit varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` to `buf` as a LEB128 varint.
#[inline]
pub fn put_varint_u64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends `v` to `buf` as a zigzag-encoded varint.
#[inline]
pub fn put_varint_i64(buf: &mut Vec<u8>, v: i64) {
    put_varint_u64(buf, zigzag_encode(v));
}

/// Appends `v` to `buf` as a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` to `buf` as a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` to `buf` as a little-endian `i64`.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a varint length followed by the bytes of `data`.
#[inline]
pub fn put_len_prefixed(buf: &mut Vec<u8>, data: &[u8]) {
    put_varint_u64(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Maps a signed integer to an unsigned one so small magnitudes stay small.
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Why a [`Decoder`] read failed. Each case converts to the
/// [`StoreError`] variant of the same name, message unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside the value being decoded.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// A varint ran past ten bytes, or its tenth byte carried bits
    /// beyond the 64th.
    VarintOverflow,
}

impl From<DecodeError> for StoreError {
    #[cold]
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::UnexpectedEof { what } => StoreError::UnexpectedEof { what },
            DecodeError::VarintOverflow => StoreError::VarintOverflow,
        }
    }
}

/// A zero-copy cursor over an encoded byte slice.
///
/// # Examples
///
/// ```
/// use flowkv_common::codec::{put_varint_u64, Decoder};
///
/// let mut buf = Vec::new();
/// put_varint_u64(&mut buf, 300);
/// let mut dec = Decoder::new(&buf);
/// assert_eq!(dec.get_varint_u64().unwrap(), 300);
/// assert!(dec.is_empty());
/// ```
#[derive(Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Returns `true` once all input has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Number of bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset from the start of the input.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads a LEB128 varint. Its tenth byte may carry only bit 63: any
    /// other bit, or a continuation, is [`DecodeError::VarintOverflow`].
    #[inline]
    pub fn get_varint_u64(&mut self) -> Result<u64, DecodeError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(DecodeError::UnexpectedEof { what: "varint" });
            };
            self.pos += 1;
            if shift == 63 && byte > 0x01 {
                return Err(DecodeError::VarintOverflow);
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded varint.
    #[inline]
    pub fn get_varint_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(zigzag_decode(self.get_varint_u64()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let bytes = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(
            bytes.try_into().expect("length checked"),
        ))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("length checked"),
        ))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        let bytes = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(
            bytes.try_into().expect("length checked"),
        ))
    }

    /// Reads a varint length followed by that many bytes.
    #[inline]
    pub fn get_len_prefixed(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_varint_u64()? as usize;
        self.take(len, "length-prefixed bytes")
    }

    /// Consumes exactly `n` bytes, failing with
    /// [`DecodeError::UnexpectedEof`] when fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`.
///
/// Every log record, cold block and SSTable block written or verified in
/// the workspace pays this checksum, so two kernels compute it, bit for
/// bit the same:
///
/// - **Carry-less-multiply folding** on x86_64 CPUs with `pclmulqdq`
///   (detected at run time), for inputs of 64 bytes and more: four
///   128-bit lanes fold 16 bytes per multiply, then one lane, then a
///   Barrett reduction to 32 bits — the construction of Intel's "Fast CRC
///   Computation Using PCLMULQDQ" and of Linux's `crc32-pclmul`.
/// - **Slicing-by-8** for shorter inputs, the folded kernel's < 16-byte
///   tail and every other CPU or target: eight compile-time tables fold
///   eight input bytes per iteration with eight independent lookups.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN {
        if let Some(crc) = clmul::crc32(data) {
            return crc;
        }
    }
    crc32_sliced(data)
}

/// CRC32 of `data` by slicing-by-8 alone.
fn crc32_sliced(data: &[u8]) -> u32 {
    !sliced_update(0xffff_ffff, data)
}

/// Advances the running (pre-inversion) CRC `crc` over `data`, eight
/// bytes per step.
fn sliced_update(mut crc: u32, data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("chunk is 8 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("chunk is 8 bytes"));
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        let idx = ((crc ^ u32::from(byte)) & 0xff) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    crc
}

/// The carry-less-multiply folding kernel. Its constants are Linux's
/// `crc32-pclmul` ones: residues of powers of `x` modulo the IEEE
/// polynomial `P`, bit-reflected as the input is, each of which moves a
/// 64-bit half of a lane a fixed distance forward in the message.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Below this many bytes the table kernel is as fast: the folded one
    /// needs four lanes' worth of input to start.
    pub(super) const MIN_LEN: usize = 64;

    /// `(R1, R2)`: fold a lane's low and high halves 512 bits forward,
    /// across the four lanes.
    const FOLD_BY_4: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// `(R3, R4)`: fold a lane 128 bits forward, into the next; `R4` also
    /// folds 128 bits to 64.
    const FOLD_BY_1: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// `R5`: folds 64 bits to 32.
    const FOLD_64: i64 = 0x1_63cd_6124;
    /// `P` itself and `μ = ⌊x^64 / P⌋`, for the Barrett reduction.
    const POLY_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// CRC32 of `data` by folding, or `None` when the CPU lacks
    /// `pclmulqdq`. Inputs under [`MIN_LEN`] bytes go to the table kernel.
    pub(super) fn crc32(data: &[u8]) -> Option<u32> {
        if !is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        // SAFETY: `update` needs `pclmulqdq`, detected on this CPU just
        // above.
        Some(!unsafe { update(0xffff_ffff, data) })
    }

    /// Advances the running CRC `crc` over `data`: whole 16-byte blocks
    /// by folding, the tail (and an input under [`MIN_LEN`]) by table.
    /// Calling it needs `pclmulqdq` on the running CPU, which [`crc32`]
    /// detects first.
    #[target_feature(enable = "pclmulqdq")]
    fn update(crc: u32, data: &[u8]) -> u32 {
        if data.len() < MIN_LEN {
            return super::sliced_update(crc, data);
        }
        let mut blocks = data.chunks_exact(16);
        let tail = blocks.remainder();
        let mut next = || {
            let block = blocks.next().expect("a block was counted");
            // SAFETY: `block` is 16 readable bytes, and the load needs no
            // alignment.
            unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
        };
        let mut left = data.len() / 16 - 4;
        let mut lanes = [next(), next(), next(), next()];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let by_4 = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
        while left >= 4 {
            for lane in &mut lanes {
                *lane = fold(*lane, by_4, next());
            }
            left -= 4;
        }
        let by_1 = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
        let mut x = lanes[0];
        for lane in &lanes[1..] {
            x = fold(x, by_1, *lane);
        }
        for _ in 0..left {
            x = fold(x, by_1, next());
        }
        // 128 bits to 64: the low half times R4, onto the high half.
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x01>(by_1, x),
        );
        // 64 bits to 32 (plus the 32 zero bits a CRC appends).
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k = _mm_set_epi64x(0, FOLD_64);
        let folded = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k);
        x = _mm_xor_si128(folded, _mm_srli_si128::<4>(x));
        // Barrett: q = ⌊x · μ⌋, x ⊕ q · P leaves the remainder in bits 32..64.
        let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
        let crc = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, qp))) as u32;
        super::sliced_update(crc, tail)
    }

    /// `lane` folded 128 bits forward by the constants `k`, onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }
}

/// The reference byte-at-a-time implementation both kernels must agree
/// with bit for bit.
#[cfg(test)]
fn crc32_scalar(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc: u32 = 0xffff_ffff;
    for &byte in data {
        let idx = ((crc ^ u32::from(byte)) & 0xff) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

/// Builds the reflected CRC32 lookup table at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Builds the eight slicing tables: `TABLES[0]` is the classic table, and
/// `TABLES[k][i]` advances the CRC of byte `i` through `k` extra zero
/// bytes, so eight lookups fold one aligned 8-byte word.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let base = crc32_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ base[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut dec = Decoder::new(&buf);
            assert_eq!(dec.get_varint_u64().unwrap(), v);
            assert!(dec.is_empty());
        }
    }

    #[test]
    fn signed_varint_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut buf = Vec::new();
            put_varint_i64(&mut buf, v);
            let mut dec = Decoder::new(&buf);
            assert_eq!(dec.get_varint_i64().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let buf = [0x80u8, 0x80];
        let mut dec = Decoder::new(&buf);
        assert!(matches!(
            dec.get_varint_u64(),
            Err(DecodeError::UnexpectedEof { what: "varint" })
        ));
    }

    #[test]
    fn oversized_varint_is_overflow() {
        let buf = [0xffu8; 11];
        let mut dec = Decoder::new(&buf);
        assert!(matches!(
            dec.get_varint_u64(),
            Err(DecodeError::VarintOverflow)
        ));
    }

    #[test]
    fn tenth_varint_byte_carries_only_bit_63() {
        // Bits 1-6 of a tenth byte fall past bit 63: once dropped
        // silently, these decoded to 0 and to i64::MAX.
        let zero_tail = [[0x80u8; 9].as_slice(), &[0x7e]].concat();
        let ones_tail = [[0xffu8; 9].as_slice(), &[0x02]].concat();
        for buf in [zero_tail, ones_tail] {
            assert_eq!(
                Decoder::new(&buf).get_varint_u64(),
                Err(DecodeError::VarintOverflow),
                "{buf:x?}"
            );
        }
        // Bit 63 alone is the one legal tenth byte.
        let top = [[0x80u8; 9].as_slice(), &[0x01]].concat();
        assert_eq!(Decoder::new(&top).get_varint_u64(), Ok(1 << 63));
        let max = [[0xffu8; 9].as_slice(), &[0x01]].concat();
        assert_eq!(Decoder::new(&max).get_varint_u64(), Ok(u64::MAX));
    }

    #[test]
    fn decode_errors_convert_to_the_store_errors_they_replaced() {
        let eof = StoreError::from(DecodeError::UnexpectedEof { what: "u64" });
        assert!(matches!(eof, StoreError::UnexpectedEof { what: "u64" }));
        assert_eq!(
            eof.to_string(),
            "unexpected end of input while decoding u64"
        );
        let overflow = StoreError::from(DecodeError::VarintOverflow);
        assert!(matches!(overflow, StoreError::VarintOverflow));
        assert_eq!(overflow.to_string(), "varint exceeded ten bytes");
        // Through `?`, as every decoder that returns a store error uses it.
        let through = || -> crate::error::Result<u64> { Ok(Decoder::new(&[]).get_u64()?) };
        assert!(matches!(
            through(),
            Err(StoreError::UnexpectedEof { what: "u64" })
        ));
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, 0x0123_4567_89ab_cdef);
        put_i64(&mut buf, -12345);
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(dec.get_i64().unwrap(), -12345);
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_len_prefixed(&mut buf, b"hello");
        put_len_prefixed(&mut buf, b"");
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.get_len_prefixed().unwrap(), b"hello");
        assert_eq!(dec.get_len_prefixed().unwrap(), b"");
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Both kernels, called directly, against the byte-at-a-time
    /// reference: every start offset 0..16, every length 0..=1 024, and
    /// 4 KiB and 64 KiB — each side of the folded kernel's 64-byte entry,
    /// its four-lane loop and its one-lane and table tails.
    #[test]
    fn both_crc_kernels_match_scalar_at_every_offset_and_length() {
        let data: Vec<u8> = (0..(64u32 << 10) + 16)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8 ^ (i >> 11) as u8)
            .collect();
        let lengths = (0..=1_024).chain([4 << 10, 64 << 10]);
        for len in lengths {
            for start in 0..16 {
                let input = &data[start..start + len];
                let expect = crc32_scalar(input);
                assert_eq!(
                    crc32_sliced(input),
                    expect,
                    "sliced: start {start} len {len}"
                );
                #[cfg(target_arch = "x86_64")]
                if let Some(folded) = clmul::crc32(input) {
                    assert_eq!(folded, expect, "folded: start {start} len {len}");
                }
            }
        }
    }

    /// One flipped bit anywhere in an input long enough to fold changes
    /// the checksum both kernels compute.
    #[test]
    fn a_flipped_bit_changes_both_kernels_checksums() {
        let data: Vec<u8> = (0..300u32).map(|i| i.wrapping_mul(31) as u8).collect();
        let clean = crc32_scalar(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32_sliced(&flipped), clean, "sliced: bit {bit}");
            #[cfg(target_arch = "x86_64")]
            if let Some(folded) = clmul::crc32(&flipped) {
                assert_ne!(folded, clean, "folded: bit {bit}");
            }
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Cases per property: 64 unless `PROPTEST_CASES` says otherwise
        /// (CI's crash-matrix job runs 256).
        fn cases() -> u32 {
            let cases = std::env::var("PROPTEST_CASES").ok();
            cases.and_then(|n| n.parse().ok()).unwrap_or(64)
        }

        /// The first varint of `bytes` decoded in 128 bits, with the
        /// bytes it spans: a value past 64 bits, or a tenth byte that
        /// continues, is an overflow.
        fn reference_varint(bytes: &[u8]) -> Result<(u64, usize), DecodeError> {
            let mut value = 0u128;
            for (i, &byte) in bytes.iter().enumerate() {
                if i == MAX_VARINT_LEN - 1 && byte & 0x80 != 0 {
                    return Err(DecodeError::VarintOverflow);
                }
                value |= u128::from(byte & 0x7f) << (7 * i);
                if byte & 0x80 == 0 {
                    let value = u64::try_from(value).map_err(|_| DecodeError::VarintOverflow)?;
                    return Ok((value, i + 1));
                }
            }
            Err(DecodeError::UnexpectedEof { what: "varint" })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]
            #[test]
            fn sliced_crc_equals_scalar(data in prop::collection::vec(any::<u8>(), 0..4096)) {
                prop_assert_eq!(crc32(&data), crc32_scalar(&data));
            }

            /// Any byte string, mostly continuation bytes so long and
            /// over-long varints are common: the decoder reads the value
            /// the 128-bit reference does, or fails as it does.
            #[test]
            fn varint_decode_is_exact_or_fails(
                bytes in prop::collection::vec((any::<u8>(), 0u8..4), 0..13)
            ) {
                let bytes: Vec<u8> = bytes
                    .into_iter()
                    .map(|(b, more)| if more > 0 { b | 0x80 } else { b })
                    .collect();
                let mut dec = Decoder::new(&bytes);
                let decoded = dec.get_varint_u64().map(|v| (v, dec.position()));
                prop_assert_eq!(decoded, reference_varint(&bytes));
            }
        }
    }

    #[test]
    fn crc32_detects_bit_flip() {
        let a = crc32(b"stream processing");
        let b = crc32(b"strean processing");
        assert_ne!(a, b);
    }
}
