//! Shared golden-corpus digest — the single definition of "bit-identical"
//! that both `golden_runs.rs` (static/sequential corpus) and
//! `sharded_engine.rs` (PerAgent corpus) pin against. Keeping one copy is
//! load-bearing: if `RunReport` ever grows a deterministic field, it is
//! added *here* (with a corpus regen) and every suite moves together.
//!
//! Also the contract tests' oracle: [`Recorded`] wraps each agent of a
//! network and records the operations it performs, so a test checks the
//! engine's meters against what the agents did, not against a record the
//! engine keeps of itself.

// Each suite that shares this module uses part of it.
#![allow(dead_code)]

use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::network::Network;
use gossip_net::rng::DetRng;
use gossip_net::topology::Topology;
use rfc_core::engine::{ConsensusAgent, ProtocolCore, Role};
use rfc_core::runner::RunReport;
use rfc_core::{AgentSlot, Msg, Params};

/// The simulator's digest: FNV-1a's offset basis and xor-multiply step
/// with the multiplier `0x1_0000_01b3`, which is not FNV's prime — the
/// same hash as `rfc_core::Fnv1a::sim_digest`.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest every deterministic field of a [`RunReport`] **that existed
/// before the dynamics subsystem** — keeping this field set frozen is
/// what lets the static rows of `golden_runs.rs` stay the literal
/// pre-dynamics captures. The one post-dynamics meter,
/// `metrics.undelivered`, is pinned as its own column in each corpus
/// instead of being folded into the digest.
pub fn report_digest(r: &RunReport) -> u64 {
    let mut d = Digest::new();
    d.str(&format!("{:?}", r.outcome));
    d.u64(r.rounds as u64);
    d.str(&format!("{:?}", r.winner));
    d.str(&format!("{:?}", r.decisions));
    for &c in &r.initial_colors {
        d.u64(c as u64);
    }
    d.u64(r.n_active as u64);
    d.str(&format!("{:?}", r.verify_failures));
    d.u64(r.metrics.messages_sent);
    d.u64(r.metrics.bits_sent);
    d.u64(r.metrics.max_message_bits);
    d.u64(r.metrics.rounds);
    d.u64(r.metrics.ticks);
    d.u64(r.metrics.max_active_links);
    for (name, t) in &r.metrics.phases {
        d.str(name);
        d.u64(t.messages);
        d.u64(t.bits);
        d.u64(t.max_message_bits);
    }
    d.str(&format!("{:?}", r.audit));
    d.finish()
}

/// What kind of operation an agent performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A push from `from` to `to`.
    Push,
    /// A pull by `from` of `to` whose reply reached `from`.
    Pull,
    /// A pull by `from` of `to` that `from` heard nothing back from.
    PullUnanswered,
}

/// One operation an agent performed, in the round (or tick) it acted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    pub round: usize,
    pub kind: OpKind,
    pub from: AgentId,
    pub to: AgentId,
}

/// An [`AgentSlot`] that records every operation it performs. A reply
/// turns the agent's last pull from `PullUnanswered` into `Pull`, and
/// must answer that pull: the engine hands a puller one reply per pull,
/// from the peer it pulled, in the round it pulled.
pub struct Recorded {
    slot: AgentSlot,
    id: AgentId,
    pub ops: Vec<OpRecord>,
}

/// A slot factory that wraps each agent `make` builds in [`Recorded`].
pub fn recording(
    mut make: impl FnMut(AgentId, Params, ColorId, DetRng, &Topology) -> AgentSlot,
) -> impl FnMut(AgentId, Params, ColorId, DetRng, &Topology) -> Recorded {
    move |id, params, color, rng, topo| Recorded {
        slot: make(id, params, color, rng, topo),
        id,
        ops: Vec::new(),
    }
}

impl Agent<Msg> for Recorded {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        let op = self.slot.act(ctx)?;
        let (kind, to) = match &op {
            Op::Push { to, .. } => (OpKind::Push, *to),
            Op::Pull { from, .. } => (OpKind::PullUnanswered, *from),
        };
        self.ops.push(OpRecord { round: ctx.round, kind, from: self.id, to });
        Some(op)
    }
    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        self.slot.on_pull(from, query, ctx)
    }
    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        self.slot.on_push(from, msg, ctx)
    }
    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        let last = self.ops.last_mut().expect("a reply without a pull");
        assert_eq!(
            (last.round, last.kind, last.to),
            (ctx.round, OpKind::PullUnanswered, from),
            "agent {}: a reply that answers no pending pull",
            self.id
        );
        if reply.is_some() {
            last.kind = OpKind::Pull;
        }
        self.slot.on_reply(from, reply, ctx)
    }
    fn finalize(&mut self, ctx: &RoundCtx) {
        self.slot.finalize(ctx)
    }
}

impl ConsensusAgent for Recorded {
    fn core(&self) -> &ProtocolCore {
        self.slot.core()
    }
    fn role(&self) -> Role {
        self.slot.role()
    }
}

/// Every operation the agents of `net` performed, by round, then by
/// agent id.
pub fn recorded_ops(net: &Network<Msg, Recorded>) -> Vec<OpRecord> {
    let mut ops: Vec<OpRecord> = net.agents().iter().flat_map(|a| a.ops.iter().copied()).collect();
    ops.sort_by_key(|op| (op.round, op.from));
    ops
}

/// The `(messages_sent, undelivered)` meters `ops` imply for a run that
/// loses no reply in transit: one message per push and per pull query,
/// one more per answered pull, and one undelivered per operation whose
/// addressee `blocked` says could not take it.
pub fn implied_meters(ops: &[OpRecord], blocked: impl Fn(&OpRecord) -> bool) -> (u64, u64) {
    let answered = ops.iter().filter(|op| op.kind == OpKind::Pull).count();
    let undelivered = ops.iter().filter(|op| blocked(op)).count();
    ((ops.len() + answered) as u64, undelivered as u64)
}

/// The `(messages_sent, undelivered)` meters of `net`.
pub fn meters<A: Agent<Msg>>(net: &Network<Msg, A>) -> (u64, u64) {
    (net.metrics().messages_sent, net.metrics().undelivered)
}
