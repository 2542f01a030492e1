//! The agent interface: what a (possibly selfish) node may do each round.
//!
//! An [`Agent`] is a local algorithm `σ_u` in the paper's sense: an
//! adaptive rule that, given everything the agent has seen so far, decides
//! the next action. Honest agents implement the protocol `P`; rational
//! deviators implement anything else expressible against this same
//! interface. The interface is intentionally *exactly* as powerful as the
//! GOSSIP model allows — one active push or pull per round, arbitrary
//! message content, optional silence — so the strategy space of an
//! implementation coincides with the strategy space quantified over in
//! Theorem 7.

use crate::ids::AgentId;
use crate::topology::Topology;

/// The single active operation an agent may perform in one round.
#[derive(Debug, Clone, PartialEq)]
pub enum Op<M> {
    /// Send `msg` to `to`. Delivery is guaranteed within the round if the
    /// edge exists; faulty receivers silently drop it.
    Push {
        /// The receiver.
        to: AgentId,
        /// The message.
        msg: M,
    },
    /// Ask `from` the question `query`; `from` may answer with one message
    /// or stay silent. The reply (or its absence) is delivered via
    /// [`Agent::on_reply`] in the same round.
    Pull {
        /// The agent being pulled.
        from: AgentId,
        /// The query message.
        query: M,
    },
}

impl<M> Op<M> {
    /// Convenience constructor for a push.
    pub fn push(to: AgentId, msg: M) -> Self {
        Op::Push { to, msg }
    }

    /// Convenience constructor for a pull.
    pub fn pull(from: AgentId, query: M) -> Self {
        Op::Pull { from, query }
    }

    /// The peer this operation addresses.
    pub fn peer(&self) -> AgentId {
        match self {
            Op::Push { to, .. } => *to,
            Op::Pull { from, .. } => *from,
        }
    }
}

/// Per-round context handed to every agent callback.
///
/// Carries only *public* knowledge: the current round number and the
/// topology (every agent knows `n` and how to address every other agent —
/// paper §2). Private state (color, RNG, collected votes) lives inside the
/// agent itself.
#[derive(Debug, Clone, Copy)]
pub struct RoundCtx<'a> {
    /// Current round, starting at 0.
    pub round: usize,
    /// The network topology (agents sample peers through this).
    pub topology: &'a Topology,
}

impl<'a> RoundCtx<'a> {
    /// Number of agents in the network.
    #[inline]
    pub fn n(&self) -> usize {
        self.topology.n()
    }
}

/// A local algorithm run by one network node.
///
/// All methods have no-op defaults except [`Agent::act`]; a passive agent
/// that never communicates is just `fn act(..) -> None`.
///
/// Deliveries are **by reference**: the engine retains ownership of the
/// in-flight operation and hands each receiver a `&M`, so a delivery
/// costs no clone — an agent copies only the parts it actually keeps
/// (rfc-core's protocol messages are `Copy`: their payloads are handles
/// into a per-network pool). The reply to a pull is the one owned
/// message an agent produces per delivery, and it is *moved* to the
/// puller via [`Agent::on_reply`].
///
/// Implementations must be deterministic functions of (constructor
/// arguments, observed messages, own RNG stream) — the simulator provides
/// no other entropy source, which is what makes whole runs replayable.
pub trait Agent<M> {
    /// Called once per round (in agent-id order). Return the at-most-one
    /// active operation for this round, or `None` to stay passive.
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<M>>;

    /// Multi-op variant of [`Agent::act`], used by the synchronous
    /// engines. A plain agent keeps the paper's one-op-per-round
    /// contract via the default (it forwards to `act`); a *multiplexer*
    /// agent hosting several protocol instances on one network node
    /// (see rfc-core's instance plane) overrides this to emit one op per
    /// hosted instance per round — each instance individually still
    /// plays by GOSSIP rules, the node aggregates their traffic.
    ///
    /// Ops are appended to `out` (which arrives empty) and are treated
    /// by the engine exactly as if consecutive ids had emitted them:
    /// same-sender ops keep their emission order through every delivery
    /// stage. `out` is engine-owned scratch; implementations must only
    /// push into it.
    fn act_multi(&mut self, ctx: &RoundCtx, out: &mut Vec<Op<M>>) {
        if let Some(op) = self.act(ctx) {
            out.push(op);
        }
    }

    /// Another agent pulled us: `from` is the authenticated peer label,
    /// `query` its question. Return `Some(reply)` to answer or `None` to
    /// stay silent (the puller observes silence, exactly like pulling a
    /// faulty node — the "pretend to be faulty" deviation of §1).
    fn on_pull(&mut self, from: AgentId, query: &M, ctx: &RoundCtx) -> Option<M> {
        let _ = (from, query, ctx);
        None
    }

    /// A pushed message arrived (authenticated sender `from`). The
    /// message is borrowed from the sender's op; clone what you keep.
    fn on_push(&mut self, from: AgentId, msg: &M, ctx: &RoundCtx) {
        let _ = (from, msg, ctx);
    }

    /// The reply to *our* pull this round: `Some(msg)` if the peer
    /// answered, `None` if it was faulty or chose silence.
    fn on_reply(&mut self, from: AgentId, reply: Option<M>, ctx: &RoundCtx) {
        let _ = (from, reply, ctx);
    }

    /// Called once after the final round; agents finish local computation
    /// here (e.g. the protocol's Verification phase).
    fn finalize(&mut self, ctx: &RoundCtx) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Unit;

    struct Passive;
    impl Agent<Unit> for Passive {
        fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Unit>> {
            None
        }
    }

    #[test]
    fn op_peer_extracts_target() {
        let p: Op<Unit> = Op::push(3, Unit);
        assert_eq!(p.peer(), 3);
        let q: Op<Unit> = Op::pull(9, Unit);
        assert_eq!(q.peer(), 9);
    }

    #[test]
    fn default_handlers_are_silent() {
        let topo = Topology::complete(4);
        let ctx = RoundCtx {
            round: 0,
            topology: &topo,
        };
        let mut a = Passive;
        assert!(a.act(&ctx).is_none());
        assert!(a.on_pull(1, &Unit, &ctx).is_none());
        a.on_push(1, &Unit, &ctx);
        a.on_reply(1, None, &ctx);
        a.finalize(&ctx);
    }

    #[test]
    fn ctx_exposes_n() {
        let topo = Topology::complete(7);
        let ctx = RoundCtx {
            round: 5,
            topology: &topo,
        };
        assert_eq!(ctx.n(), 7);
        assert_eq!(ctx.round, 5);
    }
}
