//! The NEXMark data model: persons, auctions, and bids.
//!
//! Events are serialized with the workspace codec into compact binary
//! records, matching the paper's byte-serialized tuples (≈16 B persons
//! and auctions, ≈84 B bids once bid extras are included).

use flowkv_common::codec::{put_len_prefixed, put_varint_i64, put_varint_u64, Decoder};
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
    /// Marketing channel, padding the record toward the paper's ~84 B
    /// serialized bids.
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
    /// Decodes `data` when it is a bid record, skipping others cheaply.
    /// The one bid decoder: [`Event::decode`] and [`Event::decode_bid`]
    /// own what it lends.
    pub fn decode(data: &'a [u8]) -> Result<Option<BidRef<'a>>> {
        if data.first() != Some(&BID_TAG) {
            return Ok(None);
        }
        BidRef::decode_body(&mut Decoder::new(&data[1..])).map(Some)
    }

    /// The fields after the tag.
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
        match self {
            Event::Person(p) => {
                buf.push(0);
                put_varint_u64(&mut buf, p.id);
                put_len_prefixed(&mut buf, p.name.as_bytes());
                put_len_prefixed(&mut buf, p.state.as_bytes());
                put_varint_i64(&mut buf, p.date_time);
            }
            Event::Auction(a) => {
                buf.push(1);
                put_varint_u64(&mut buf, a.id);
                put_varint_u64(&mut buf, a.seller);
                put_varint_u64(&mut buf, u64::from(a.category));
                put_varint_u64(&mut buf, a.initial_bid);
                put_varint_i64(&mut buf, a.date_time);
                put_varint_i64(&mut buf, a.expires);
            }
            Event::Bid(b) => {
                buf.push(BID_TAG);
                put_varint_u64(&mut buf, b.auction);
                put_varint_u64(&mut buf, b.bidder);
                put_varint_u64(&mut buf, b.price);
                put_len_prefixed(&mut buf, b.channel.as_bytes());
                put_varint_i64(&mut buf, b.date_time);
            }
        }
        buf
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
}
