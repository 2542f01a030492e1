//! Property-based wire-codec corpus: for *random* messages and batches —
//! every `Msg` variant, arbitrary intention lists and vote sets, batch
//! tag elision — encode → decode must be the identity, and the two
//! negative paths every real decoder meets (truncated prefix, flipped
//! byte) must return `CodecError`s, never panic. The hand-written rows
//! in `rfc_core::codec`'s unit tests pin the format; this file searches
//! the message space around them, mirroring how `checkpoint_prop.rs`
//! searches around `checkpoint_resume.rs`.

use proptest::prelude::*;
use rfc_core::certificate::{CertData, VoteRec};
use rfc_core::codec::{
    decode_frame, decode_msg, encode_frame, encode_msg, encode_msg_frame, encoded_msg_len,
};
use rfc_core::msg::{Batch, IntentEntry, Msg};
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

fn batches() -> impl Strategy<Value = Vec<(u32, Spec)>> {
    proptest::collection::vec((any::<u32>(), msgs()), 1..5)
}

fn batch_in(parts: Vec<(u32, Spec)>, pool: &PayloadPool) -> Batch<Msg> {
    let mut b = Batch::new();
    for (instance, spec) in parts {
        b.push(instance, spec.into_msg(pool));
    }
    b
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
    fn every_batch_round_trips_through_a_frame(parts in batches()) {
        let (pool, other) = (pool(), pool());
        let batch = batch_in(parts, &pool);
        let mut buf = Vec::new();
        encode_frame(&batch, &pool, &mut buf);
        let (back, used) = decode_frame(&buf, &other).expect("round trip");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back.len(), batch.len());
        for (b, a) in back.parts().iter().zip(batch.parts()) {
            prop_assert_eq!(b.instance, a.instance);
            prop_assert_eq!(resolved(&b.payload, &other), resolved(&a.payload, &pool));
        }
    }

    #[test]
    fn singleton_instance0_elision_is_invisible_to_decoders(spec in msgs()) {
        // The realized first-part tag elision: framing the bare message
        // and framing its singleton instance-0 batch are the same bytes,
        // and both decode to the same batch.
        let pool = pool();
        let msg = spec.into_msg(&pool);
        let mut bare = Vec::new();
        encode_msg_frame(&msg, &pool, &mut bare);
        let mut asbatch = Vec::new();
        encode_frame(&Batch::single(0, msg), &pool, &mut asbatch);
        prop_assert_eq!(&bare, &asbatch, "elision must be bit-for-bit");
        let (back, _) = decode_frame(&bare, &pool).expect("decode");
        prop_assert_eq!(back.parts().len(), 1);
        prop_assert_eq!(back.parts()[0].instance, 0);
        prop_assert_eq!(&back.parts()[0].payload, &msg);
    }

    #[test]
    fn truncated_prefixes_error_and_never_panic(parts in batches()) {
        let pool = pool();
        let batch = batch_in(parts, &pool);
        let mut buf = Vec::new();
        encode_frame(&batch, &pool, &mut buf);
        for cut in 0..buf.len() {
            prop_assert!(
                decode_frame(&buf[..cut], &pool).is_err(),
                "a {cut}-byte prefix of a {}-byte frame parsed", buf.len()
            );
        }
    }

    #[test]
    fn bit_flips_never_panic(parts in batches(), pos in any::<usize>(), bit in 0u8..8) {
        let pool = pool();
        let batch = batch_in(parts, &pool);
        let mut buf = Vec::new();
        encode_frame(&batch, &pool, &mut buf);
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
