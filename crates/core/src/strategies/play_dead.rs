//! Play-dead: pretend to be a permanently faulty node.
//!
//! The paper highlights this deviation explicitly (§1): "a rational
//! active agent can pretend to be a faulty node in some rounds, and hence
//! the protocol must be robust also against this kind of (potentially
//! profitable) deviations." A member that stays silent during Commitment
//! is marked faulty by every agent that pulls it — those agents pin its
//! votes to zero.
//!
//! Two variants:
//!
//! * **silent** — also abstains from Voting. Externally a perfect crash:
//!   harmless, but the member forfeits all influence while its color
//!   keeps only its proportional chance. Strictly nothing gained.
//! * **voting** — stays "dead" in Commitment but *does* vote. If any of
//!   its votes lands in the eventual winner's `W_min`, every verifier
//!   that marked it faulty sees a vote from a "faulty" agent ⇒
//!   `VoteFromFaulty` ⇒ fail. Pure sabotage risk, no win path.

use crate::agent_plane::AgentSlot;
use crate::coalition::Coalition;
use crate::engine::{ConsensusAgent, ProtocolCore, Role};
use crate::msg::Msg;
use crate::params::Phase;
use crate::strategies::Strategy;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// The play-dead strategy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct PlayDead {
    vote_anyway: bool,
}

impl PlayDead {
    /// Fully silent variant (perfect crash emulation).
    pub fn silent() -> Self {
        PlayDead { vote_anyway: false }
    }

    /// Dead-in-Commitment but votes in Voting (triggers `VoteFromFaulty`).
    pub fn voting() -> Self {
        PlayDead { vote_anyway: true }
    }
}

impl Strategy for PlayDead {
    fn name(&self) -> &'static str {
        if self.vote_anyway {
            "play-dead-voting"
        } else {
            "play-dead-silent"
        }
    }

    fn description(&self) -> &'static str {
        if self.vote_anyway {
            "silent in Commitment but votes anyway (caught as VoteFromFaulty)"
        } else {
            "perfect crash emulation: silent in Commitment, abstains from Voting"
        }
    }

    fn build(&self, core: ProtocolCore, _coalition: Coalition) -> AgentSlot {
        AgentSlot::PlayDead(DeadAgent {
            core,
            vote_anyway: self.vote_anyway,
            name: self.name(),
        })
    }
}

/// The play-dead agent (silent or voting variant).
pub struct DeadAgent {
    core: ProtocolCore,
    vote_anyway: bool,
    name: &'static str,
}

impl Agent<Msg> for DeadAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        match self.core.phase(ctx.round) {
            // Stays quiet in Commitment (gathers nothing, asks nothing —
            // a faulty node would not pull either).
            Phase::Commitment => None,
            Phase::Voting => {
                if self.vote_anyway {
                    self.core.act_honest(ctx)
                } else {
                    None
                }
            }
            // Rejoins the protocol from Find-Min on: it wants to know the
            // outcome, and participating there is indistinguishable from
            // having been slow.
            _ => self.core.act_honest(ctx),
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        match (self.core.phase(ctx.round), query) {
            // The defining move: never answer intention pulls.
            (_, Msg::QIntent) => None,
            _ => self.core.on_pull_honest(from, query, ctx),
        }
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

impl ConsensusAgent for DeadAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::new_coalition;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;
    use crate::params::Params;

    fn mk(variant: PlayDead) -> crate::agent_plane::AgentSlot {
        let params = Params::new(32, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            2,
            params,
            params.sync_schedule(),
            1,
            DetRng::seeded(8, 2),
        );
        variant.build(core, new_coalition(vec![2], 1))
    }

    #[test]
    fn never_answers_intent_pulls() {
        let mut a = mk(PlayDead::voting());
        let topo = Topology::complete(32);
        let ctx = RoundCtx {
            round: 0,
            topology: &topo,
        };
        assert!(a.on_pull(5, &Msg::QIntent, &ctx).is_none());
    }

    #[test]
    fn silent_variant_never_votes() {
        let mut a = mk(PlayDead::silent());
        let topo = Topology::complete(32);
        let q = Params::new(32, 2.0).q;
        for r in 0..2 * q {
            let ctx = RoundCtx {
                round: r,
                topology: &topo,
            };
            assert!(
                a.act(&ctx).is_none(),
                "silent agent acted in round {r}"
            );
        }
    }

    #[test]
    fn voting_variant_votes() {
        let mut a = mk(PlayDead::voting());
        let topo = Topology::complete(32);
        let q = Params::new(32, 2.0).q;
        let ctx = RoundCtx {
            round: q,
            topology: &topo,
        };
        match a.act(&ctx) {
            Some(Op::Push {
                msg: Msg::Vote { .. },
                ..
            }) => {}
            other => panic!("expected a vote push, got {other:?}"),
        }
    }

    #[test]
    fn rejoins_find_min() {
        let mut a = mk(PlayDead::silent());
        let topo = Topology::complete(32);
        let q = Params::new(32, 2.0).q;
        let ctx = RoundCtx {
            round: 2 * q,
            topology: &topo,
        };
        assert!(matches!(
            a.act(&ctx),
            Some(Op::Pull {
                query: Msg::QMinCert,
                ..
            })
        ));
    }
}
