//! The monomorphic agent plane: one enum, one jump table, no vtables.
//!
//! [`AgentSlot`] is the closed sum of every agent the workspace ships —
//! the honest protocol agent plus one variant per deviation strategy in
//! [`crate::strategies`] — with a [`AgentSlot::Custom`] escape hatch for
//! out-of-tree strategies. Networks on the Monte-Carlo hot path are
//! `Network<Msg, AgentSlot>`:
//!
//! * **dispatch** is a match on the discriminant (a jump table the
//!   optimizer can see through and often hoist), not an opaque indirect
//!   call through a per-object vtable pointer;
//! * **storage** is one contiguous `Vec<AgentSlot>` — agents live inline,
//!   id-order iteration in `Network::step` walks memory linearly instead
//!   of chasing `n` heap pointers;
//! * **construction** costs no per-agent `Box` allocation, which matters
//!   because the Monte-Carlo harness builds `n` agents per trial,
//!   millions of times.
//!
//! Use [`AgentSlot::Custom`] only for agents defined outside this crate
//! (see `examples/custom_strategy.rs`): that variant pays the old boxed
//! vtable cost for its agent, while every other agent in the same network
//! still rides the fast path. The dyn-vs-enum equivalence is pinned by
//! `tests/dispatch_equivalence.rs` — same seed, bit-identical report.

use crate::engine::{ConsensusAgent, HonestAgent, ProtocolCore, Role};
use crate::msg::Msg;
use crate::strategies::equivocate::EquivocatorAgent;
use crate::strategies::forge_cert::ForgeAgent;
use crate::strategies::play_dead::DeadAgent;
use crate::strategies::spite_abort::SpiteAgent;
use crate::strategies::spy_tune::SpyAgent;
use crate::strategies::suppress_min::CensorAgent;
use crate::strategies::vote_rig::VoteRigAgent;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// Every agent type that can occupy a network slot, dispatched by enum
/// discriminant (see the module docs for why).
pub enum AgentSlot {
    /// Follows protocol `P` exactly.
    Honest(HonestAgent),
    /// Vote-rigging deviator ([`crate::strategies::vote_rig`]).
    VoteRig(VoteRigAgent),
    /// Certificate-forging deviator ([`crate::strategies::forge_cert`]).
    ForgeCert(ForgeAgent),
    /// Spy-and-tune deviator ([`crate::strategies::spy_tune`]).
    SpyTune(SpyAgent),
    /// Play-dead deviator ([`crate::strategies::play_dead`]).
    PlayDead(DeadAgent),
    /// Equivocating deviator ([`crate::strategies::equivocate`]).
    Equivocate(EquivocatorAgent),
    /// Minimum-suppressing deviator ([`crate::strategies::suppress_min`]).
    SuppressMin(CensorAgent),
    /// Spite-abort deviator ([`crate::strategies::spite_abort`]).
    SpiteAbort(SpiteAgent),
    /// Escape hatch for out-of-tree agents: boxed dynamic dispatch for
    /// this slot only. Everything else in the network stays monomorphic.
    Custom(Box<dyn ConsensusAgent>),
}

impl AgentSlot {
    /// Wrap an honest protocol core.
    pub fn honest(core: ProtocolCore) -> Self {
        AgentSlot::Honest(HonestAgent::new(core))
    }

    /// Box an out-of-tree agent into the escape hatch.
    pub fn custom(agent: impl ConsensusAgent + 'static) -> Self {
        AgentSlot::Custom(Box::new(agent))
    }
}

impl From<HonestAgent> for AgentSlot {
    fn from(a: HonestAgent) -> Self {
        AgentSlot::Honest(a)
    }
}

impl From<Box<dyn ConsensusAgent>> for AgentSlot {
    fn from(a: Box<dyn ConsensusAgent>) -> Self {
        AgentSlot::Custom(a)
    }
}

/// Apply one expression to whichever agent occupies the slot. For the
/// `Custom` variant the binding is the `Box<dyn ConsensusAgent>` itself
/// (both `Agent` and `ConsensusAgent` forward through `Box`).
macro_rules! dispatch {
    ($slot:expr, $a:ident => $body:expr) => {
        match $slot {
            AgentSlot::Honest($a) => $body,
            AgentSlot::VoteRig($a) => $body,
            AgentSlot::ForgeCert($a) => $body,
            AgentSlot::SpyTune($a) => $body,
            AgentSlot::PlayDead($a) => $body,
            AgentSlot::Equivocate($a) => $body,
            AgentSlot::SuppressMin($a) => $body,
            AgentSlot::SpiteAbort($a) => $body,
            AgentSlot::Custom($a) => $body,
        }
    };
}

impl Agent<Msg> for AgentSlot {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        dispatch!(self, a => a.act(ctx))
    }
    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        dispatch!(self, a => a.on_pull(from, query, ctx))
    }
    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        dispatch!(self, a => a.on_push(from, msg, ctx))
    }
    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        dispatch!(self, a => a.on_reply(from, reply, ctx))
    }
    fn finalize(&mut self, ctx: &RoundCtx) {
        dispatch!(self, a => a.finalize(ctx))
    }
}

impl ConsensusAgent for AgentSlot {
    fn core(&self) -> &ProtocolCore {
        dispatch!(self, a => ConsensusAgent::core(a))
    }
    fn role(&self) -> Role {
        dispatch!(self, a => ConsensusAgent::role(a))
    }
}

// The staged round engine shards one trial's `Vec<AgentSlot>` (and the
// in-flight `Op<Msg>` buffer) across scoped worker threads. These
// assertions fail to *compile* if any slot variant or message payload
// regresses to thread-bound state (`Rc`, `Cell`, `RefCell`).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<AgentSlot>();
    assert_send::<Msg>();
    assert_sync::<Msg>(); // deliveries hand shards a shared `&Msg`
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;

    fn mk_core(id: AgentId) -> ProtocolCore {
        let params = Params::new(16, 2.0);
        let rng = DetRng::seeded(3, id as u64);
        ProtocolCore::new_on(&Topology::complete(16), id, params, params.sync_schedule(), 1, rng)
    }

    #[test]
    fn honest_slot_behaves_like_honest_agent() {
        let topo = Topology::complete(16);
        let ctx = RoundCtx { round: 0, topology: &topo };
        let mut slot = AgentSlot::honest(mk_core(1));
        let mut direct = HonestAgent::new(mk_core(1));
        assert_eq!(slot.act(&ctx), direct.act(&ctx));
        assert_eq!(ConsensusAgent::core(&slot).color, 1);
        assert_eq!(ConsensusAgent::role(&slot), Role::Honest);
    }

    #[test]
    fn custom_slot_forwards_role_and_core() {
        let slot = AgentSlot::custom(HonestAgent::new(mk_core(2)));
        assert_eq!(ConsensusAgent::role(&slot), Role::Honest);
        assert_eq!(ConsensusAgent::core(&slot).id, 2);
        assert!(matches!(slot, AgentSlot::Custom(_)));
    }

    #[test]
    fn strategy_builds_land_in_their_variant() {
        use crate::coalition::{new_coalition, Coalition};
        use crate::strategies::{self, Strategy};
        let coalition = new_coalition(vec![1], 1);
        type Case = (Box<dyn Strategy>, fn(&AgentSlot) -> bool);
        let cases: Vec<Case> = vec![
            (Box::new(strategies::vote_rig::VoteRig), |s| {
                matches!(s, AgentSlot::VoteRig(_))
            }),
            (Box::new(strategies::forge_cert::ForgeCert::zero_k()), |s| {
                matches!(s, AgentSlot::ForgeCert(_))
            }),
            (Box::new(strategies::spy_tune::SpyAndTune), |s| {
                matches!(s, AgentSlot::SpyTune(_))
            }),
            (Box::new(strategies::play_dead::PlayDead::silent()), |s| {
                matches!(s, AgentSlot::PlayDead(_))
            }),
            (Box::new(strategies::equivocate::Equivocate), |s| {
                matches!(s, AgentSlot::Equivocate(_))
            }),
            (Box::new(strategies::suppress_min::SuppressMin), |s| {
                matches!(s, AgentSlot::SuppressMin(_))
            }),
            (Box::new(strategies::spite_abort::SpiteAbort), |s| {
                matches!(s, AgentSlot::SpiteAbort(_))
            }),
        ];
        for (strategy, is_variant) in cases {
            let slot = strategy.build(mk_core(1), Coalition::clone(&coalition));
            assert!(is_variant(&slot), "{} built the wrong variant", strategy.name());
            assert_eq!(
                ConsensusAgent::role(&slot),
                Role::Deviator(strategy.name()),
                "{} role mismatch",
                strategy.name()
            );
        }
    }
}
