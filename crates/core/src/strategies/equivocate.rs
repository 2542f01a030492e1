//! Equivocation: declare different intention lists to different pullers.
//!
//! A coalition member keeps two independently drawn intention lists. The
//! first puller (and every odd-numbered one) receives version A; even
//! ones receive version B. Actual votes follow version A.
//!
//! The paper's machinery pins this down through *first declarations*
//! (`h*` in the Theorem 7 proof): the analysis only credits the earliest
//! declaration made to an honest agent, and Verification makes any
//! divergence lethal — if the eventual winner is targeted by entries
//! where A and B differ, the B-holding verifiers see votes that do not
//! match their ledgers and fail the protocol. The deviator cannot even
//! tell which version a given verifier holds.

use crate::agent_plane::AgentSlot;
use crate::coalition::Coalition;
use crate::engine::{ConsensusAgent, ProtocolCore, Role};
use crate::msg::{IntentEntry, Msg};
use crate::payload::ListId;
use crate::strategies::Strategy;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// The equivocation strategy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Equivocate;

impl Strategy for Equivocate {
    fn name(&self) -> &'static str {
        "equivocate"
    }

    fn description(&self) -> &'static str {
        "answer different intention lists to different pullers (caught via first-declaration binding)"
    }

    fn build(&self, mut core: ProtocolCore, _coalition: Coalition) -> AgentSlot {
        // Version A: the core's own list (votes follow it).
        // Version B: an independent draw from the same distribution.
        let m = core.params.m;
        let n = core.params.n;
        let entries = (0..core.params.q)
            .map(|_| IntentEntry {
                value: core.rng.below(m),
                target: core.rng.index(n) as AgentId,
            })
            .collect();
        let version_b = core.pool().insert_list(entries);
        AgentSlot::Equivocate(EquivocatorAgent {
            core,
            version_b,
            pulls_seen: 0,
        })
    }
}

/// The equivocating agent: version A to odd pullers, B to even ones.
pub struct EquivocatorAgent {
    core: ProtocolCore,
    version_b: ListId,
    pulls_seen: usize,
}

impl Agent<Msg> for EquivocatorAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        self.core.act_honest(ctx)
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        if matches!(query, Msg::QIntent) {
            self.pulls_seen += 1;
            let list = if self.pulls_seen.is_multiple_of(2) {
                self.version_b
            } else {
                self.core.intents
            };
            return Some(self.core.pool().list_msg(list));
        }
        self.core.on_pull_honest(from, query, ctx)
    }

    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        self.core.on_push_honest(from, msg, ctx)
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        self.core.on_reply_honest(from, reply, ctx)
    }

    fn finalize(&mut self, _ctx: &RoundCtx) {
        self.core.finalize_honest();
    }
}

impl ConsensusAgent for EquivocatorAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator("equivocate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::new_coalition;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;
    use crate::params::Params;

    fn extract(agent: &AgentSlot, reply: Option<Msg>) -> Vec<IntentEntry> {
        match reply {
            Some(Msg::Intents { list, .. }) => agent.core().pool().list(list).to_vec(),
            other => panic!("expected intents, got {other:?}"),
        }
    }

    #[test]
    fn alternates_between_two_versions() {
        let params = Params::new(32, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            1,
            params,
            params.sync_schedule(),
            0,
            DetRng::seeded(4, 1),
        );
        let mut agent = Equivocate.build(core, new_coalition(vec![1], 0));
        let topo = Topology::complete(32);
        let ctx = RoundCtx {
            round: 0,
            topology: &topo,
        };
        let first = agent.on_pull(3, &Msg::QIntent, &ctx);
        let second = agent.on_pull(4, &Msg::QIntent, &ctx);
        let third = agent.on_pull(5, &Msg::QIntent, &ctx);
        let (first, second, third) = (
            extract(&agent, first),
            extract(&agent, second),
            extract(&agent, third),
        );
        assert_ne!(first, second, "A and B must differ");
        assert_eq!(first, third, "odd pulls get version A");
    }

    #[test]
    fn both_versions_are_plausible() {
        let params = Params::new(32, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            1,
            params,
            params.sync_schedule(),
            0,
            DetRng::seeded(4, 1),
        );
        let agent_box = Equivocate.build(core, new_coalition(vec![1], 0));
        let c = agent_box.core();
        assert_eq!(c.intent_list().len(), params.q);
        // Both versions pass the same plausibility test honest verifiers
        // apply.
        let AgentSlot::Equivocate(eq) = &agent_box else {
            panic!("equivocate builds its own variant");
        };
        assert!(c.pool().plausible(c.intents));
        assert!(c.pool().plausible(eq.version_b));
    }
}
