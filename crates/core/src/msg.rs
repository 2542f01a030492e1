//! The protocol's wire messages and their bit-level size accounting.
//!
//! Five message kinds cover all of Algorithm 1's communication:
//!
//! | message | phase | direction | size (bits) |
//! |---|---|---|---|
//! | [`Msg::QIntent`] | Commitment | pull query | `O(1)` |
//! | [`Msg::Intents`] | Commitment | pull reply | `q·(log m + log n) = O(log² n)` |
//! | [`Msg::Vote`] | Voting | push | `log m + log q = O(log n)` |
//! | [`Msg::QMinCert`] | Find-Min | pull query | `O(1)` |
//! | [`Msg::Cert`] | Find-Min / Coherence | pull reply / push | `O(log² n)` w.h.p. |
//!
//! The certificate is the largest message: it carries `Θ(log n)` votes of
//! `Θ(log n)` bits each (Theorem 4's `O(log² n)` bound — validated by
//! experiment E2).
//!
//! Payload-bearing messages carry a handle into their network's
//! [`PayloadPool`](crate::payload::PayloadPool) and the payload's length:
//! the length is all [`MsgSize`] metering reads, so pricing a message
//! never consults the pool, and every message stays 16 bytes.

use crate::payload::{CertId, ListId};
use gossip_net::ids::AgentId;
use gossip_net::size::{MsgSize, SizeEnv};

/// One entry `(h, z)` of a vote-intention list `H_u`: "I will send value
/// `h` to agent `z`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntentEntry {
    /// The vote value `h ∈ [m]`.
    pub value: u64,
    /// The vote's recipient `z ∈ [n]`.
    pub target: AgentId,
}

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Commitment pull query: "send me your vote intentions".
    QIntent,
    /// Commitment pull reply: the sender's full intention list `H_v`.
    Intents {
        /// The list, in the network's payload pool.
        list: ListId,
        /// Its number of entries.
        len: u32,
    },
    /// Voting push: `value` is `h_{u,round}`, `round` its index in `H_u`.
    Vote {
        /// The vote value `h ∈ [m]`.
        value: u64,
        /// Index of this vote in the sender's intention list.
        round: u16,
    },
    /// Find-Min pull query: "send me your current minimum certificate".
    QMinCert,
    /// A certificate (Find-Min reply, Coherence push).
    Cert {
        /// The certificate, in the network's payload pool.
        cert: CertId,
        /// Its number of votes.
        votes: u32,
    },
}

impl Msg {
    /// Is this one of the two constant-size query tags?
    pub fn is_query(&self) -> bool {
        matches!(self, Msg::QIntent | Msg::QMinCert)
    }
}

impl MsgSize for Msg {
    fn size_bits(&self, env: &SizeEnv) -> u64 {
        SizeEnv::TAG_BITS
            + match self {
                Msg::QIntent | Msg::QMinCert => 0,
                Msg::Intents { len, .. } => *len as u64 * env.intent_entry_bits(),
                Msg::Vote { .. } => env.value_bits as u64 + env.round_bits as u64,
                Msg::Cert { votes, .. } => {
                    // k + color + owner + votes
                    env.value_bits as u64
                        + env.color_bits as u64
                        + env.id_bits as u64
                        + *votes as u64 * env.vote_record_bits()
                }
            }
    }
}

/// Wire bits of the instance tag each *non-first* part of a [`Batch`]
/// pays: a 32-bit instance index. The first part's tag is elided — a
/// singleton batch is bit-for-bit the size of its bare payload, which
/// is what keeps the single-instance metering (and with it every
/// pre-instance-plane golden digest) unchanged.
pub const INSTANCE_TAG_BITS: u64 = 32;

/// One instance-tagged payload inside a [`Batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPart<P> {
    /// Index of the protocol instance this payload belongs to.
    pub instance: u32,
    /// The instance's own wire message.
    pub payload: P,
}

/// A multiplexed delivery: every instance payload sharing one
/// `(edge, round)` pair travels as a single wire message, amortizing
/// per-round delivery cost across co-hosted instances (the instance
/// plane's batching layer — see `rfc_core::instances`).
///
/// Size accounting: the first part costs exactly its payload size (tag
/// elided); each further part costs [`INSTANCE_TAG_BITS`] plus its
/// payload. Parts keep the order their instances emitted them in, which
/// the receiving multiplexer relies on to pair replies with pulls.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<P> {
    parts: Vec<BatchPart<P>>,
}

impl<P> Batch<P> {
    /// An empty batch (push parts before handing it to the engine).
    pub fn new() -> Self {
        Batch { parts: Vec::new() }
    }

    /// A one-part batch — the single-instance fast path.
    pub fn single(instance: u32, payload: P) -> Self {
        Batch { parts: vec![BatchPart { instance, payload }] }
    }

    /// Append one instance's payload.
    pub fn push(&mut self, instance: u32, payload: P) {
        self.parts.push(BatchPart { instance, payload });
    }

    /// The parts, in emission order.
    pub fn parts(&self) -> &[BatchPart<P>] {
        &self.parts
    }

    /// Consume the batch into its parts.
    pub fn into_parts(self) -> Vec<BatchPart<P>> {
        self.parts
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl<P> Default for Batch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: MsgSize> MsgSize for Batch<P> {
    fn size_bits(&self, env: &SizeEnv) -> u64 {
        self.parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let tag = if i == 0 { 0 } else { INSTANCE_TAG_BITS };
                tag + p.payload.size_bits(env)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{CertData, VoteRec};
    use crate::params::Params;
    use crate::payload::PayloadPool;

    fn env() -> SizeEnv {
        SizeEnv::for_n(1024) // id 10, value 30, round ~5, color 10
    }

    #[test]
    fn singleton_batch_is_exactly_its_payload_size() {
        let e = env();
        for msg in [Msg::QIntent, Msg::Vote { value: 3, round: 1 }] {
            let inner = msg.size_bits(&e);
            assert_eq!(
                Batch::single(0, msg).size_bits(&e),
                inner,
                "singleton batch must elide the instance tag"
            );
        }
    }

    #[test]
    fn extra_batch_parts_pay_the_instance_tag() {
        let e = env();
        let mut b = Batch::new();
        b.push(0, Msg::QIntent);
        b.push(7, Msg::Vote { value: 9, round: 0 });
        b.push(9, Msg::QMinCert);
        let expect = Msg::QIntent.size_bits(&e)
            + INSTANCE_TAG_BITS
            + Msg::Vote { value: 9, round: 0 }.size_bits(&e)
            + INSTANCE_TAG_BITS
            + Msg::QMinCert.size_bits(&e);
        assert_eq!(b.size_bits(&e), expect);
        assert_eq!(b.len(), 3);
        assert_eq!(b.parts()[1].instance, 7);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn messages_stay_sixteen_bytes() {
        assert!(std::mem::size_of::<Msg>() <= 16);
    }

    #[test]
    fn queries_are_constant_size() {
        let e = env();
        assert_eq!(Msg::QIntent.size_bits(&e), SizeEnv::TAG_BITS);
        assert_eq!(Msg::QMinCert.size_bits(&e), SizeEnv::TAG_BITS);
        assert!(Msg::QIntent.is_query());
        assert!(Msg::QMinCert.is_query());
        assert!(!Msg::Vote { value: 0, round: 0 }.is_query());
    }

    #[test]
    fn vote_size_is_logarithmic() {
        let e = env();
        let v = Msg::Vote {
            value: 123,
            round: 4,
        };
        assert_eq!(
            v.size_bits(&e),
            SizeEnv::TAG_BITS + e.value_bits as u64 + e.round_bits as u64
        );
    }

    #[test]
    fn intents_scale_with_list_length() {
        let e = env();
        let pool = PayloadPool::new(Params::new(1024, 1.0), 0);
        let list = pool.insert_list(
            (0..20)
                .map(|i| IntentEntry {
                    value: i,
                    target: (i % 7) as AgentId,
                })
                .collect(),
        );
        let m = pool.list_msg(list);
        assert_eq!(m, Msg::Intents { list, len: 20 });
        assert_eq!(
            m.size_bits(&e),
            SizeEnv::TAG_BITS + 20 * e.intent_entry_bits()
        );
    }

    #[test]
    fn cert_size_counts_votes() {
        let e = env();
        let votes: Vec<_> = (0..15)
            .map(|i| VoteRec {
                voter: i,
                round: 0,
                value: i as u64,
            })
            .collect();
        let pool = PayloadPool::new(Params::new(1024, 1.0), 0);
        let m = pool.cert_msg(pool.insert_cert(CertData::build(3, 1, votes, 1 << 30)));
        let fixed = e.value_bits as u64 + e.color_bits as u64 + e.id_bits as u64;
        assert_eq!(
            m.size_bits(&e),
            SizeEnv::TAG_BITS + fixed + 15 * e.vote_record_bits()
        );
    }

    #[test]
    fn empty_cert_still_pays_fixed_fields() {
        let e = env();
        let pool = PayloadPool::new(Params::new(1024, 1.0), 0);
        let m = pool.cert_msg(pool.insert_cert(CertData::build(0, 0, vec![], 100)));
        assert!(m.size_bits(&e) > SizeEnv::TAG_BITS);
    }

    #[test]
    fn certificate_message_is_o_log_squared() {
        // With q = Θ(log n) votes of Θ(log n) bits the certificate is
        // Θ(log² n): check the measured size at two scales.
        for exp in [10u32, 20] {
            let n = 1usize << exp;
            let e = SizeEnv::for_n(n);
            let q = 2 * exp as usize;
            let votes: Vec<_> = (0..q)
                .map(|i| VoteRec {
                    voter: (i % n) as AgentId,
                    round: i as u16,
                    value: 1,
                })
                .collect();
            let pool = PayloadPool::new(Params::new(1024, 1.0), 0);
            let cert = pool.insert_cert(CertData::build(0, 0, votes, (n as u64).pow(3)));
            let bits = pool.cert_msg(cert).size_bits(&e);
            let log2n = exp as u64;
            // 2·log n votes · ~4.5·log n bits each ⇒ bits ≈ 9·log²n.
            assert!(bits < 16 * log2n * log2n, "cert too large: {bits}");
            assert!(bits > 4 * log2n * log2n, "cert suspiciously small: {bits}");
        }
    }
}
