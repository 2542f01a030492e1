//! Hostile-input fuzzing of the honest agent: arbitrary message
//! sequences, injected at arbitrary rounds from arbitrary senders, must
//! never panic, never violate the state machine's invariants, and never
//! trick an agent into accepting out-of-protocol data.
//!
//! This is the local complement of the adversary crate: the strategies
//! there are *plausible* attackers; this fuzzer is an *implausible* one
//! (arbitrary bytes-on-the-wire shapes), checking total robustness of the
//! message handlers.

use gossip_net::agent::{Agent, RoundCtx};
use gossip_net::rng::DetRng;
use gossip_net::topology::Topology;
use proptest::prelude::*;
use rfc_core::certificate::{CertData, VoteRec};
use rfc_core::engine::{HonestAgent, ProtocolCore};
use rfc_core::msg::{IntentEntry, Msg};
use rfc_core::{Params, PayloadPool};

/// An arbitrary message with its payload spelled out; [`Spec::into_msg`]
/// puts the payload into the receiving agent's pool, as a decoder would.
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
            Spec::Intents(entries) => pool.list_msg(pool.intern_list(entries)),
            Spec::Cert(cert) => pool.cert_msg(pool.intern_cert(cert)),
        }
    }
}

/// Generator for arbitrary protocol messages (including malformed ones).
fn arb_msg() -> impl proptest::strategy::Strategy<Value = Spec> {
    prop_oneof![
        Just(Spec::Plain(Msg::QIntent)),
        Just(Spec::Plain(Msg::QMinCert)),
        (any::<u64>(), any::<u16>())
            .prop_map(|(value, round)| Spec::Plain(Msg::Vote { value, round })),
        proptest::collection::vec((any::<u64>(), any::<u32>()), 0..40).prop_map(|entries| {
            Spec::Intents(
                entries
                    .into_iter()
                    .map(|(value, target)| IntentEntry {
                        value,
                        target: target % 64,
                    })
                    .collect(),
            )
        }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec((any::<u32>(), any::<u16>(), any::<u64>()), 0..30)
        )
            .prop_map(|(k, color, owner, votes)| {
                Spec::Cert(CertData {
                    k,
                    votes: votes
                        .into_iter()
                        .map(|(voter, round, value)| VoteRec {
                            voter: voter % 64,
                            round,
                            value,
                        })
                        .collect(),
                    color,
                    owner: owner % 64,
                })
            }),
    ]
}

fn fresh_agent(seed: u64) -> (HonestAgent, Params) {
    let params = Params::new(32, 2.0);
    let core = ProtocolCore::new(
        3,
        params,
        params.sync_schedule(),
        1,
        DetRng::seeded(seed, 3),
    );
    (HonestAgent::new(core), params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary message storms never panic the agent, and its invariants
    /// hold afterwards: vote values are recorded verbatim only during
    /// Voting; the minimum certificate is always structurally valid; a
    /// failed agent stays failed.
    #[test]
    fn message_storm_never_panics(
        msgs in proptest::collection::vec((arb_msg(), 0u32..32, 0usize..200), 0..120),
        seed in any::<u64>(),
    ) {
        let topo = Topology::complete(32);
        let (mut agent, params) = fresh_agent(seed);
        for (spec, from, round) in msgs {
            let msg = spec.into_msg(agent.core().pool());
            let ctx = RoundCtx { round, topology: &topo };
            // Alternate between delivery paths.
            match round % 3 {
                0 => agent.on_push(from, &msg, &ctx),
                1 => { let _ = agent.on_pull(from, &msg, &ctx); }
                _ => agent.on_reply(from, Some(msg), &ctx),
            }
        }
        // Invariants after the storm:
        let core = agent.core();
        if let Some(ce) = core.min_cert_data() {
            prop_assert!(
                ce.structurally_valid(params.n, params.m, params.q)
                    || ce.owner == core.id,
                "agent adopted a structurally invalid foreign certificate"
            );
        }
        // Votes were only recorded while in the Voting phase window.
        prop_assert!(core.votes.len() <= 120);
    }

    /// Driving act() through all rounds interleaved with hostile input
    /// still terminates with a decision or a clean failure.
    #[test]
    fn full_run_with_interleaved_garbage(
        garbage in proptest::collection::vec((arb_msg(), 0u32..32), 0..60),
        seed in any::<u64>(),
    ) {
        let topo = Topology::complete(32);
        let (mut agent, params) = fresh_agent(seed);
        let total = params.total_rounds();
        let mut g = garbage.into_iter();
        for round in 0..total {
            let ctx = RoundCtx { round, topology: &topo };
            let _ = agent.act(&ctx);
            if let Some((spec, from)) = g.next() {
                let msg = spec.into_msg(agent.core().pool());
                agent.on_push(from, &msg, &ctx);
            }
        }
        let ctx = RoundCtx { round: total, topology: &topo };
        agent.finalize(&ctx);
        let core = agent.core();
        prop_assert!(
            core.failed || core.decided.is_some(),
            "agent must end decided or failed"
        );
    }

    /// Pull floods: answering arbitrary queries never mutates the
    /// intention list (the commitment is binding).
    #[test]
    fn pulls_cannot_mutate_commitments(
        queries in proptest::collection::vec((arb_msg(), 0u32..32, 0usize..100), 1..60),
        seed in any::<u64>(),
    ) {
        let topo = Topology::complete(32);
        let (mut agent, _) = fresh_agent(seed);
        let before: Vec<IntentEntry> = agent.core().intent_list().to_vec();
        for (spec, from, round) in queries {
            let q = spec.into_msg(agent.core().pool());
            let ctx = RoundCtx { round, topology: &topo };
            let _ = agent.on_pull(from, &q, &ctx);
        }
        prop_assert_eq!(before, agent.core().intent_list().to_vec());
    }

    /// Replies carrying wrong message kinds during Commitment mark the
    /// peer faulty rather than corrupting the ledger.
    #[test]
    fn wrong_kind_replies_mark_faulty(
        spec in arb_msg(),
        from in 0u32..32,
        seed in any::<u64>(),
    ) {
        let topo = Topology::complete(32);
        let (mut agent, params) = fresh_agent(seed);
        let ctx = RoundCtx { round: 0, topology: &topo };
        let is_good_intents = match &spec {
            Spec::Intents(list) => {
                list.len() == params.q
                    && list
                        .iter()
                        .all(|e| e.value < params.m && (e.target as usize) < params.n)
            }
            _ => false,
        };
        let msg = spec.into_msg(agent.core().pool());
        agent.on_reply(from, Some(msg), &ctx);
        let entry = agent.core().ledger.find(from).expect("entry recorded");
        match (&entry.decl, is_good_intents) {
            (rfc_core::Declaration::Intents(_), true) => {}
            (rfc_core::Declaration::Faulty, false) => {}
            (decl, good) => {
                return Err(TestCaseError::fail(format!(
                    "classification mismatch: good={good}, decl={decl:?}"
                )));
            }
        }
    }
}
