//! The NEXMark data model: persons, auctions, and bids.
//!
//! Events are serialized with the workspace codec into compact binary
//! records, the paper's byte-serialized tuples: ≈ 21 B persons, 14 B
//! auctions and 23 B bids, 22.7 B per event over the 600 000-event
//! `q7-aar-max` stream at seed 3.

use flowkv_common::codec::{
    put_len_prefixed, put_varint_i64, put_varint_u64, zigzag_decode, Decoder,
};
use flowkv_common::error::{Result, StoreError};
use flowkv_common::types::Timestamp;

/// A registered user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Person {
    /// Unique person id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Two-letter state code.
    pub state: String,
    /// Event time the person registered.
    pub date_time: Timestamp,
}

/// An item put up for auction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Auction {
    /// Unique auction id.
    pub id: u64,
    /// The selling person's id.
    pub seller: u64,
    /// Item category.
    pub category: u32,
    /// Opening price in cents.
    pub initial_bid: u64,
    /// Event time the auction opened.
    pub date_time: Timestamp,
    /// Event time the auction closes.
    pub expires: Timestamp,
}

/// A bid on an auction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bid {
    /// The auction being bid on.
    pub auction: u64,
    /// The bidding person's id.
    pub bidder: u64,
    /// Bid price in cents.
    pub price: u64,
    /// Marketing channel (8–15 bytes of the record).
    pub channel: String,
    /// Event time of the bid.
    pub date_time: Timestamp,
}

/// A bid read in place: [`Bid`] with its channel lent from the record
/// instead of copied into a `String`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BidRef<'a> {
    /// The auction being bid on.
    pub auction: u64,
    /// The bidding person's id.
    pub bidder: u64,
    /// Bid price in cents.
    pub price: u64,
    /// Marketing channel (checked to be UTF-8, as [`Bid::channel`]).
    pub channel: &'a str,
    /// Event time of the bid.
    pub date_time: Timestamp,
}

/// Tag byte of a bid record.
const BID_TAG: u8 = 2;

impl<'a> BidRef<'a> {
    /// Decodes `data` when it is a bid record, skipping others cheaply;
    /// [`Event::decode_bid`] owns what it lends.
    ///
    /// Every bid of the stream passes here, so a well-formed one takes a
    /// lean path: varints of up to nine bytes read inline and an ASCII
    /// channel. Whatever that path does not accept — a ten-byte varint,
    /// a non-ASCII channel, any malformed record — is decoded by
    /// `decode_body`, the general [`Decoder`] path [`Event::decode`]
    /// takes, so the answer, `Ok` or `Err`, is always that path's.
    #[inline]
    pub fn decode(data: &'a [u8]) -> Result<Option<BidRef<'a>>> {
        let Some((&BID_TAG, body)) = data.split_first() else {
            return Ok(None);
        };
        match BidRef::decode_lean(body) {
            Some(bid) => Ok(Some(bid)),
            None => BidRef::decode_body(&mut Decoder::new(body)).map(Some),
        }
    }

    /// The fields after the tag when every varint is at most nine bytes
    /// (no overflow is possible) and the channel is ASCII; `None` for any
    /// other input. Bytes after the timestamp are ignored, as
    /// [`BidRef::decode_body`] ignores them.
    #[inline]
    fn decode_lean(body: &'a [u8]) -> Option<BidRef<'a>> {
        let mut at = 0;
        let auction = lean_varint(body, &mut at)?;
        let bidder = lean_varint(body, &mut at)?;
        let price = lean_varint(body, &mut at)?;
        let len = usize::try_from(lean_varint(body, &mut at)?).ok()?;
        let channel = body.get(at..at.checked_add(len)?)?;
        at += len;
        if !channel.is_ascii() {
            return None;
        }
        // SAFETY: ASCII bytes are valid UTF-8.
        let channel = unsafe { std::str::from_utf8_unchecked(channel) };
        let date_time = zigzag_decode(lean_varint(body, &mut at)?);
        Some(BidRef {
            auction,
            bidder,
            price,
            channel,
            date_time,
        })
    }

    /// The fields after the tag, through the general [`Decoder`].
    fn decode_body(dec: &mut Decoder<'a>) -> Result<BidRef<'a>> {
        Ok(BidRef {
            auction: dec.get_varint_u64()?,
            bidder: dec.get_varint_u64()?,
            price: dec.get_varint_u64()?,
            channel: utf8(dec.get_len_prefixed()?)?,
            date_time: dec.get_varint_i64()?,
        })
    }

    /// Copies the bid into its owned form.
    pub fn to_bid(&self) -> Bid {
        Bid {
            auction: self.auction,
            bidder: self.bidder,
            price: self.price,
            channel: self.channel.to_string(),
            date_time: self.date_time,
        }
    }
}

/// One event of the auction stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A new person registered.
    Person(Person),
    /// A new auction opened.
    Auction(Auction),
    /// A bid was placed.
    Bid(Bid),
}

impl Event {
    /// The event's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        match self {
            Event::Person(p) => p.date_time,
            Event::Auction(a) => a.date_time,
            Event::Bid(b) => b.date_time,
        }
    }

    /// Serializes the event into a tagged binary record.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// [`Event::encode`], appended to `buf`.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Event::Person(p) => {
                buf.push(0);
                put_varint_u64(buf, p.id);
                put_len_prefixed(buf, p.name.as_bytes());
                put_len_prefixed(buf, p.state.as_bytes());
                put_varint_i64(buf, p.date_time);
            }
            Event::Auction(a) => {
                buf.push(1);
                put_varint_u64(buf, a.id);
                put_varint_u64(buf, a.seller);
                put_varint_u64(buf, u64::from(a.category));
                put_varint_u64(buf, a.initial_bid);
                put_varint_i64(buf, a.date_time);
                put_varint_i64(buf, a.expires);
            }
            Event::Bid(b) => {
                buf.push(BID_TAG);
                put_varint_u64(buf, b.auction);
                put_varint_u64(buf, b.bidder);
                put_varint_u64(buf, b.price);
                put_len_prefixed(buf, b.channel.as_bytes());
                put_varint_i64(buf, b.date_time);
            }
        }
    }

    /// Parses an event from [`Event::encode`] output.
    pub fn decode(data: &[u8]) -> Result<Event> {
        let mut dec = Decoder::new(data);
        let tag = dec.take(1, "event tag")?[0];
        Ok(match tag {
            0 => Event::Person(Person {
                id: dec.get_varint_u64()?,
                name: utf8(dec.get_len_prefixed()?)?.to_string(),
                state: utf8(dec.get_len_prefixed()?)?.to_string(),
                date_time: dec.get_varint_i64()?,
            }),
            1 => Event::Auction(Auction {
                id: dec.get_varint_u64()?,
                seller: dec.get_varint_u64()?,
                category: dec.get_varint_u64()? as u32,
                initial_bid: dec.get_varint_u64()?,
                date_time: dec.get_varint_i64()?,
                expires: dec.get_varint_i64()?,
            }),
            BID_TAG => Event::Bid(BidRef::decode_body(&mut dec)?.to_bid()),
            other => {
                return Err(StoreError::invalid_state(format!(
                    "unknown event tag {other}"
                )))
            }
        })
    }

    /// Decodes only when the event is a bid, skipping others cheaply:
    /// the owned form of [`BidRef::decode`].
    pub fn decode_bid(data: &[u8]) -> Result<Option<Bid>> {
        Ok(BidRef::decode(data)?.map(|bid| bid.to_bid()))
    }
}

/// A LEB128 varint of at most nine bytes at `*at`, advancing past it;
/// `None` when the input ends first or the varint is longer.
#[inline(always)]
fn lean_varint(body: &[u8], at: &mut usize) -> Option<u64> {
    let mut value = 0;
    let mut shift = 0;
    while shift < 63 {
        let byte = *body.get(*at)?;
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(value);
        }
        shift += 7;
    }
    None
}

fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes)
        .map_err(|_| StoreError::invalid_state("invalid UTF-8 in event".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bid() -> Bid {
        Bid {
            auction: 1007,
            bidder: 42,
            price: 1_234_567,
            channel: "channel-apps-like-Gmail".to_string(),
            date_time: 987_654,
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        let events = vec![
            Event::Person(Person {
                id: 5,
                name: "Alice Johnson".into(),
                state: "OR".into(),
                date_time: 1000,
            }),
            Event::Auction(Auction {
                id: 77,
                seller: 5,
                category: 10,
                initial_bid: 100,
                date_time: 2000,
                expires: 50_000,
            }),
            Event::Bid(sample_bid()),
        ];
        for e in events {
            assert_eq!(Event::decode(&e.encode()).unwrap(), e);
        }
    }

    #[test]
    fn decode_bid_skips_non_bids() {
        let p = Event::Person(Person {
            id: 1,
            name: "x".into(),
            state: "CA".into(),
            date_time: 0,
        });
        assert_eq!(Event::decode_bid(&p.encode()).unwrap(), None);
        let b = Event::Bid(sample_bid());
        assert_eq!(Event::decode_bid(&b.encode()).unwrap(), Some(sample_bid()));
    }

    #[test]
    fn timestamps_extracted() {
        assert_eq!(Event::Bid(sample_bid()).timestamp(), 987_654);
    }

    #[test]
    fn unknown_tag_is_error() {
        assert!(Event::decode(&[9]).is_err());
    }

    #[test]
    fn a_lent_bid_is_the_owned_bid() {
        let bytes = Event::Bid(sample_bid()).encode();
        let lent = BidRef::decode(&bytes).unwrap().unwrap();
        assert_eq!(lent.channel, "channel-apps-like-Gmail");
        assert_eq!(lent.to_bid(), sample_bid());
    }

    proptest::proptest! {
        /// Every prefix of a bid record, and the record with bytes of its
        /// channel overwritten by non-ASCII ones (mostly invalid UTF-8):
        /// the lent and the owned decoder accept and reject the same
        /// inputs, agree on what they accept, and agree with
        /// [`Event::decode`].
        #[test]
        fn lent_and_owned_bid_decoders_reject_the_same_inputs(
            auction in proptest::prelude::any::<u64>(),
            price in proptest::prelude::any::<u64>(),
            channel in proptest::collection::vec(b'a'..=b'z', 0..24),
            cut in proptest::prelude::any::<usize>(),
            garbage in proptest::collection::vec(0x80u8..=0xff, 1..4),
            at in proptest::prelude::any::<usize>(),
        ) {
            let channel = String::from_utf8(channel).unwrap();
            let bid = Bid { auction, bidder: 42, price, channel, date_time: -7 };
            let whole = Event::Bid(bid.clone()).encode();
            let truncated = whole[..cut % (whole.len() + 1)].to_vec();
            // The channel's bytes end just before the one-byte timestamp.
            let channel_end = whole.len() - 1;
            let channel_start = channel_end - bid.channel.len();
            let mut invalid = whole.clone();
            let at = channel_start + at % (bid.channel.len() + 1);
            for (slot, byte) in invalid[at..channel_end].iter_mut().zip(garbage) {
                *slot = byte;
            }
            for data in [whole, truncated, invalid] {
                let lent = BidRef::decode(&data);
                let owned = Event::decode_bid(&data);
                proptest::prop_assert_eq!(lent.is_err(), owned.is_err());
                let (lent, owned) = (lent.ok().flatten(), owned.ok().flatten());
                proptest::prop_assert_eq!(lent.map(|b| b.to_bid()), owned.clone());
                if data.first() == Some(&BID_TAG) {
                    let event = Event::decode(&data).ok();
                    proptest::prop_assert_eq!(event, owned.map(Event::Bid));
                }
            }
        }
    }

    /// `BidRef::decode` against the general decoder it falls back to.
    mod lean_decoder {
        use super::*;
        use proptest::prelude::*;

        /// Cases per property: 64 unless `PROPTEST_CASES` says otherwise
        /// (CI's deep property step runs 256).
        fn cases() -> u32 {
            let cases = std::env::var("PROPTEST_CASES").ok();
            cases.and_then(|n| n.parse().ok()).unwrap_or(64)
        }

        /// What `BidRef::decode` answered before it had a lean path.
        fn general(data: &[u8]) -> Result<Option<BidRef<'_>>> {
            match data.split_first() {
                Some((&BID_TAG, body)) => BidRef::decode_body(&mut Decoder::new(body)).map(Some),
                _ => Ok(None),
            }
        }

        /// The same `Ok` fields, or an error of the same variant and text.
        fn assert_same(data: &[u8]) -> TestCaseResult {
            match (BidRef::decode(data), general(data)) {
                (Ok(lean), Ok(general)) => prop_assert_eq!(lean, general, "{:?}", data),
                (Err(lean), Err(general)) => {
                    prop_assert_eq!(format!("{lean:?}"), format!("{general:?}"), "{:?}", data);
                    prop_assert_eq!(lean.to_string(), general.to_string());
                }
                (lean, general) => {
                    prop_assert!(false, "{data:?}: lean {lean:?}, general {general:?}")
                }
            }
            Ok(())
        }

        /// A bid record with `channel` as its channel bytes, valid UTF-8 or
        /// not.
        fn record(fields: [u64; 3], channel: &[u8], date_time: i64) -> Vec<u8> {
            let mut buf = vec![BID_TAG];
            for field in fields {
                put_varint_u64(&mut buf, field);
            }
            put_len_prefixed(&mut buf, channel);
            put_varint_i64(&mut buf, date_time);
            buf
        }

        /// A field value: small, one byte short of the lean path's nine,
        /// or any, which is ten bytes half the time.
        fn field() -> impl Strategy<Value = u64> {
            prop_oneof![0u64..300, (1u64 << 56)..(1u64 << 63), any::<u64>(),]
        }

        /// Channel bytes: ASCII, non-ASCII UTF-8, or arbitrary (mostly
        /// invalid UTF-8).
        fn channel() -> impl Strategy<Value = Vec<u8>> {
            prop_oneof![
                prop::collection::vec(0u8..0x80, 0..30),
                prop::collection::vec(0u32..0x800, 0..12).prop_map(|chars| {
                    let s: String = chars.into_iter().filter_map(char::from_u32).collect();
                    s.into_bytes()
                }),
                prop::collection::vec(any::<u8>(), 0..30),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]

            /// Arbitrary bytes, half of them tagged as a bid.
            #[test]
            fn the_lean_decoder_answers_arbitrary_bytes_as_the_general_one(
                tagged in any::<bool>(),
                bytes in prop::collection::vec(any::<u8>(), 0..48),
            ) {
                let mut data = bytes;
                if tagged {
                    data.insert(0, BID_TAG);
                }
                assert_same(&data)?;
            }

            /// Well-formed bids, then each cut, bit-flipped, given a
            /// ten-byte or an overflowing varint, and followed by
            /// trailing bytes.
            #[test]
            fn the_lean_decoder_answers_mutated_bids_as_the_general_one(
                fields in (field(), field(), field()),
                date_time in any::<i64>(),
                channel in channel(),
                cut in any::<usize>(),
                flip in any::<usize>(),
                which in 0usize..5,
                overflow in 2u8..0x80,
                trailing in prop::collection::vec(any::<u8>(), 1..8),
            ) {
                let whole = record([fields.0, fields.1, fields.2], &channel, date_time);
                assert_same(&whole)?;
                assert_same(&whole[..cut % whole.len()])?;
                let mut flipped = whole.clone();
                flipped[flip / 8 % whole.len()] ^= 1 << (flip % 8);
                assert_same(&flipped)?;
                // Field `which` (the channel's length is field 3, the
                // timestamp 4) re-encoded in ten bytes, then with a tenth
                // byte past bit 63, then running to eleven.
                let varints = |last: &[u8]| {
                    let mut data = vec![BID_TAG];
                    for at in 0..5 {
                        if at == which {
                            data.extend_from_slice(&[0x81; 9]);
                            data.extend_from_slice(last);
                        } else {
                            put_varint_u64(&mut data, 1);
                        }
                        if at == 3 {
                            data.push(b'x');
                        }
                    }
                    data
                };
                assert_same(&varints(&[0x00]))?;
                assert_same(&varints(&[0x01]))?;
                assert_same(&varints(&[overflow]))?;
                assert_same(&varints(&[0x80, 0x00]))?;
                let mut longer = whole;
                longer.extend_from_slice(&trailing);
                assert_same(&longer)?;
            }
        }
    }
}
