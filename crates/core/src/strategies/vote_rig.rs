//! Vote-rigging: concentrate all declared votes on the coalition leader.
//!
//! Coalition members replace their uniformly-drawn intention lists with
//! lists whose every entry targets the leader. This is *undetectable* —
//! Verification checks that votes match declarations, not that
//! declarations were drawn uniformly — and it is the cleanest test of
//! Claim 2's deferred-decision argument: the leader's `k` picks up `t·q`
//! coalition-controlled summands plus at least one unknown honest vote
//! (Def. 5(3)), so it remains uniform on `[m]` and the leader's win
//! probability stays `1/|A|`. Expected measurement: neutral, within
//! confidence intervals of the honest arm.

use crate::agent_plane::AgentSlot;
use crate::coalition::Coalition;
use crate::engine::{ConsensusAgent, ProtocolCore, Role};
use crate::msg::{IntentEntry, Msg};
use crate::strategies::Strategy;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// The vote-rigging strategy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct VoteRig;

impl Strategy for VoteRig {
    fn name(&self) -> &'static str {
        "vote-rig"
    }

    fn description(&self) -> &'static str {
        "declare every vote for the coalition leader (undetectable, provably neutral)"
    }

    fn build(&self, mut core: ProtocolCore, coalition: Coalition) -> AgentSlot {
        // Re-draw the intention list: same uniform values, but every
        // target is the leader. Done at construction time — i.e. in the
        // Voting-Intention phase, before any communication.
        let leader = coalition.leader;
        let m = core.params.m;
        let entries = (0..core.params.q)
            .map(|_| IntentEntry {
                value: core.rng.below(m),
                target: leader,
            })
            .collect();
        core.intents = core.pool().insert_list(entries);
        AgentSlot::VoteRig(VoteRigAgent { core })
    }
}

/// Behaviourally honest agent over a rigged intention list.
pub struct VoteRigAgent {
    core: ProtocolCore,
}

impl Agent<Msg> for VoteRigAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        self.core.act_honest(ctx)
    }
    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
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

impl ConsensusAgent for VoteRigAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator("vote-rig")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::new_coalition;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;
    use crate::params::Params;

    #[test]
    fn all_intents_target_the_leader() {
        let params = Params::new(64, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            9,
            params,
            params.sync_schedule(),
            1,
            DetRng::seeded(3, 9),
        );
        let coalition = new_coalition(vec![4, 9, 20], 1);
        let agent = VoteRig.build(core, coalition);
        let c = agent.core();
        assert_eq!(c.intent_list().len(), params.q);
        assert!(c.intent_list().iter().all(|e| e.target == 4));
        assert!(c.intent_list().iter().all(|e| e.value < params.m));
    }

    #[test]
    fn rigged_values_are_not_constant() {
        let params = Params::new(64, 3.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            9,
            params,
            params.sync_schedule(),
            1,
            DetRng::seeded(3, 9),
        );
        let agent = VoteRig.build(core, new_coalition(vec![9], 1));
        let values: Vec<u64> = agent.core().intent_list().iter().map(|e| e.value).collect();
        let first = values[0];
        assert!(
            values.iter().any(|&v| v != first),
            "values should still be random draws"
        );
    }
}
