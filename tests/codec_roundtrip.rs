//! Property-based wire-codec corpus: for *random* messages — every
//! `Msg` variant, arbitrary intention lists and vote sets — encode →
//! decode must be the identity, a frame must be its header around the
//! bare message, and the negative paths every real frame decoder meets
//! (truncated prefix, flipped byte, a kind other than 0) must return
//! `CodecError`s, never panic. The hand-written rows
//! in `rfc_core::codec`'s unit tests pin the format; this file searches
//! the message space around them, mirroring how `checkpoint_prop.rs`
//! searches around `checkpoint_resume.rs`.

use proptest::prelude::*;
use rfc_core::certificate::{CertData, VoteRec};
use rfc_core::codec::{
    decode_msg, encode_msg, encode_msg_frame, encoded_msg_len, put_varint, read_frame, CodecError,
    Reader, FRAME_MAGIC, FRAME_VERSION,
};
use rfc_core::msg::{IntentEntry, Msg};
use rfc_core::params::Params;
use rfc_core::payload::PayloadPool;

/// Value domain `[m]` used by the certificate strategy (`m = n³` in the
/// protocol; any bound below `u64::MAX` works for the codec).
const M: u64 = 1 << 40;

/// A message with its payload spelled out: the strategies draw these, and
/// each test puts them into its own payload pool.
#[derive(Debug, Clone)]
enum Spec {
    Plain(Msg),
    Intents(Vec<IntentEntry>),
    Cert(CertData),
}

impl Spec {
    fn into_msg(self, pool: &PayloadPool) -> Msg {
        match self {
            Spec::Plain(msg) => msg,
            Spec::Intents(entries) => pool.list_msg(pool.insert_list(entries)),
            Spec::Cert(cert) => pool.cert_msg(pool.insert_cert(cert)),
        }
    }
}

fn pool() -> PayloadPool {
    PayloadPool::new(Params::new(1 << 14, 2.0), 0)
}

/// A message as its resolved payload: its encoding. Two messages from
/// different pools (or two handles of equal payloads) compare by this.
fn resolved(msg: &Msg, pool: &PayloadPool) -> Vec<u8> {
    let mut out = Vec::new();
    encode_msg(msg, pool, &mut out);
    out
}

fn intent_entries() -> impl Strategy<Value = Vec<IntentEntry>> {
    proptest::collection::vec(
        (0u64..M, any::<u32>()).prop_map(|(value, target)| IntentEntry { value, target }),
        0..24,
    )
}

fn vote_recs() -> impl Strategy<Value = Vec<VoteRec>> {
    proptest::collection::vec(
        (any::<u32>(), any::<u16>(), 0u64..M).prop_map(|(voter, round, value)| VoteRec {
            voter,
            round,
            value,
        }),
        0..24,
    )
}

fn msgs() -> impl Strategy<Value = Spec> {
    prop_oneof![
        Just(Spec::Plain(Msg::QIntent)),
        intent_entries().prop_map(Spec::Intents),
        (any::<u64>(), any::<u16>())
            .prop_map(|(value, round)| Spec::Plain(Msg::Vote { value, round })),
        Just(Spec::Plain(Msg::QMinCert)),
        (any::<u32>(), any::<u32>(), vote_recs())
            .prop_map(|(owner, color, votes)| Spec::Cert(CertData::build(owner, color, votes, M))),
    ]
}

/// `msg`'s frame.
fn frame(msg: &Msg, pool: &PayloadPool) -> Vec<u8> {
    let mut out = Vec::new();
    encode_msg_frame(msg, pool, &mut out);
    out
}

/// Decode one frame from the front of `bytes`: the message and the bytes
/// consumed.
fn decode_frame(bytes: &[u8], pool: &PayloadPool) -> Result<(Msg, usize), CodecError> {
    let mut r = Reader::new(bytes);
    let msg = read_frame(&mut r, pool)?;
    Ok((msg, r.pos()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_message_round_trips(spec in msgs()) {
        let pool = pool();
        let msg = spec.into_msg(&pool);
        let mut buf = Vec::new();
        encode_msg(&msg, &pool, &mut buf);
        prop_assert_eq!(buf.len(), encoded_msg_len(&msg, &pool), "length oracle disagrees");
        // Into its own pool, a message decodes to its own handle...
        let (back, used) = decode_msg(&buf, &pool).expect("round trip");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back, msg);
        // ...and into another pool, to the same payload.
        let other = self::pool();
        let (moved, _) = decode_msg(&buf, &other).expect("round trip");
        prop_assert_eq!(resolved(&moved, &other), buf);
    }

    #[test]
    fn every_message_round_trips_through_a_frame(spec in msgs()) {
        let (pool, other) = (pool(), pool());
        let msg = spec.into_msg(&pool);
        let buf = frame(&msg, &pool);
        let (back, used) = decode_frame(&buf, &other).expect("round trip");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(resolved(&back, &other), resolved(&msg, &pool));
    }

    #[test]
    fn message_frames_are_a_header_around_the_bare_message(spec in msgs()) {
        // The bytes `rfc-node` writes: magic, version, kind 0, the body
        // length, then exactly the bare message encoding.
        let pool = pool();
        let msg = spec.into_msg(&pool);
        let mut want = FRAME_MAGIC.to_vec();
        want.extend_from_slice(&[FRAME_VERSION, 0]);
        put_varint(&mut want, encoded_msg_len(&msg, &pool) as u64);
        encode_msg(&msg, &pool, &mut want);
        prop_assert_eq!(frame(&msg, &pool), want);
    }

    #[test]
    fn frames_of_any_other_kind_are_refused(spec in msgs(), kind in 1u8..=255) {
        // Kind 1 was the batch frame; it and every other non-zero kind
        // come back as a typed error, however well-formed the body.
        let pool = pool();
        let mut buf = frame(&spec.into_msg(&pool), &pool);
        buf[3] = kind;
        prop_assert_eq!(
            decode_frame(&buf, &pool).err(),
            Some(CodecError::Corrupt("unknown frame kind"))
        );
    }

    #[test]
    fn truncated_prefixes_error_and_never_panic(spec in msgs()) {
        let pool = pool();
        let buf = frame(&spec.into_msg(&pool), &pool);
        for cut in 0..buf.len() {
            prop_assert!(
                decode_frame(&buf[..cut], &pool).is_err(),
                "a {cut}-byte prefix of a {}-byte frame parsed", buf.len()
            );
        }
    }

    #[test]
    fn bit_flips_never_panic(spec in msgs(), pos in any::<usize>(), bit in 0u8..8) {
        let pool = pool();
        let mut buf = frame(&spec.into_msg(&pool), &pool);
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        // A flipped byte may still decode (a changed value is a legal
        // different message) — the contract is a clean Ok/Err, no panic,
        // and a consumed length that never exceeds the input.
        if let Ok((_, used)) = decode_frame(&buf, &pool) {
            prop_assert!(used <= buf.len());
        }
    }
}
