//! Writing your own deviation strategy against protocol `P`.
//!
//! ```sh
//! cargo run --release --example custom_strategy
//! ```
//!
//! Theorem 7 quantifies over *every* restricted protocol for the
//! coalition; the built-in suite covers the proof's attack surfaces, but
//! the point of the library is that anyone can implement a new strategy
//! and measure it. This example builds a **self-promoter** from scratch:
//! an agent that follows the protocol except that during Find-Min it
//! never adopts anyone else's certificate and always advertises its own
//! (a mild, "deniable" censorship). The harness then compares it against
//! honest play.
//!
//! ## The `Custom` escape hatch
//!
//! Built-in agents live in dedicated [`AgentSlot`] variants — a
//! monomorphic enum the network dispatches through a jump table. An
//! out-of-tree strategy cannot add a variant, so its `build` returns
//! [`AgentSlot::Custom`] (a `Box<dyn ConsensusAgent>`): *that slot* pays
//! one boxed indirect call per delivery, while every honest agent in the
//! same run still rides the enum fast path. Messages are small `Copy`
//! values: a certificate or intention list travels as a handle into the
//! network's payload pool, which the agent's core reaches through
//! `core.pool()` (resolve a handle with `pool().cert(id)`, build a
//! message with `pool().cert_msg(id)`).
//!
//! Prediction: self-promotion cannot help. The deviator's own `k` is
//! still uniform (it cannot choose it), honest agents learn the true
//! minimum from each other, and if its stubborn certificate ever survives
//! into Coherence alongside the real minimum, the mismatch fails the run.

use rational_fair_consensus::adversary::coalition::Coalition;
use rational_fair_consensus::adversary::prelude::*;
use rational_fair_consensus::gossip_net::agent::{Agent, Op, RoundCtx};
use rational_fair_consensus::gossip_net::ids::AgentId;
use rational_fair_consensus::rfc_core::agent_plane::AgentSlot;
use rational_fair_consensus::rfc_core::engine::{ConsensusAgent, ProtocolCore, Role};
use rational_fair_consensus::rfc_core::msg::Msg;
use rational_fair_consensus::rfc_core::params::Phase;

/// The strategy object: a factory for deviating agents.
#[derive(Debug)]
struct SelfPromoter;

impl Strategy for SelfPromoter {
    fn name(&self) -> &'static str {
        "self-promoter"
    }
    fn description(&self) -> &'static str {
        "never adopt other certificates; always advertise one's own"
    }
    fn build(&self, core: ProtocolCore, _coalition: Coalition) -> AgentSlot {
        // Out-of-tree agent ⇒ the boxed escape hatch. Everything else in
        // the network keeps jump-table dispatch.
        AgentSlot::custom(SelfPromoterAgent { core })
    }
}

/// The agent: honest everywhere except certificate adoption/advertising.
struct SelfPromoterAgent {
    core: ProtocolCore,
}

impl SelfPromoterAgent {
    /// The message carrying this agent's own certificate.
    fn own_cert_msg(&mut self) -> Msg {
        self.core.ensure_certificate();
        let own = self.core.own_cert.expect("certificate just ensured");
        self.core.pool().cert_msg(own)
    }
}

impl Agent<Msg> for SelfPromoterAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        match self.core.phase(ctx.round) {
            Phase::Coherence => {
                // Push own certificate, not the network minimum.
                let own = self.own_cert_msg();
                let peer = ctx
                    .topology
                    .sample_peer(self.core.id, &mut self.core.rng);
                Some(Op::push(peer, own))
            }
            _ => self.core.act_honest(ctx),
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        if matches!(query, Msg::QMinCert) && self.core.phase(ctx.round) >= Phase::FindMin {
            // Advertise own certificate, whatever we have seen.
            return Some(self.own_cert_msg());
        }
        self.core.on_pull_honest(from, query, ctx)
    }

    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        // Ignore Coherence mismatches against ourselves; accept votes.
        if let (Phase::Coherence, Msg::Cert { .. }) = (self.core.phase(ctx.round), msg) {
            return;
        }
        self.core.on_push_honest(from, msg, ctx)
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        if self.core.phase(ctx.round) == Phase::FindMin {
            return; // the defining move: never adopt
        }
        self.core.on_reply_honest(from, reply, ctx)
    }

    fn finalize(&mut self, _ctx: &RoundCtx) {
        self.core.finalize_honest();
    }
}

impl ConsensusAgent for SelfPromoterAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator("self-promoter")
    }
}

fn main() {
    let n = 64;
    let trials = 200;
    println!("custom strategy 'self-promoter' vs honest play on K_{n} ({trials} paired trials)\n");
    for t in [1usize, 4, 8] {
        let spec = AttackSpec {
            strategy: &SelfPromoter,
            t,
            selection: CoalitionSelection::Random,
            chi: 1.0,
        };
        let rep = run_equilibrium(n, 3.0, &spec, trials, 0xC057);
        println!(
            "t = {t}: honest win {:.3}, deviating win {:.3}, dev fails {:.3}, Δ utility {:+.3} → {}",
            rep.honest.coalition_color_wins as f64 / rep.honest.trials as f64,
            rep.deviating.coalition_color_wins as f64 / rep.deviating.trials as f64,
            rep.deviating.fail_rate(),
            rep.utility_delta(),
            if rep.no_significant_gain() {
                "no gain"
            } else {
                "GAIN (!)"
            }
        );
    }
    println!(
        "\nas predicted: self-promotion either changes nothing (its own k loses the\n\
         lottery anyway) or survives into Coherence and burns the run to ⊥ — it\n\
         cannot manufacture wins. Implementing a strategy = one Agent impl + one\n\
         Strategy impl returning AgentSlot::custom(...); the harness does the rest,\n\
         and only the deviating slots pay for dynamic dispatch."
    );
}
