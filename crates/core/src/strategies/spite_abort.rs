//! Spite-abort: force failure whenever the coalition is about to lose.
//!
//! The "scorched earth" deviation. Members follow the protocol until the
//! end of Find-Min; if the converged minimum's color is not the
//! coalition's, they spend the Coherence phase pushing a *fabricated
//! different* certificate, which makes every honest receiver fail
//! (Coherence compares certificates for equality).
//!
//! This attack reliably *works* — failure is trivially achievable in any
//! protocol where one agent can refuse to cooperate — but it is exactly
//! what the utility model prices in: turning a `0` (another color won)
//! into a `−χ` (everybody loses) can never increase a member's expected
//! utility for `χ ≥ 0`, and strictly decreases it for `χ > 0`. The
//! experiment measures the utility delta as a function of `χ`.

use crate::agent_plane::AgentSlot;
use crate::certificate::{CertData, VoteLanes};
use crate::coalition::Coalition;
use crate::engine::{ConsensusAgent, ProtocolCore, Role};
use crate::msg::Msg;
use crate::params::Phase;
use crate::payload::CertId;
use crate::strategies::Strategy;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// The spite-abort strategy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct SpiteAbort;

impl Strategy for SpiteAbort {
    fn name(&self) -> &'static str {
        "spite-abort"
    }

    fn description(&self) -> &'static str {
        "sabotage Coherence with a fabricated certificate whenever the coalition color lost"
    }

    fn build(&self, core: ProtocolCore, coalition: Coalition) -> AgentSlot {
        AgentSlot::SpiteAbort(SpiteAgent {
            core,
            coalition,
            poison: None,
        })
    }
}

/// The spite-abort agent: sabotages Coherence when the coalition loses.
pub struct SpiteAgent {
    core: ProtocolCore,
    coalition: Coalition,
    /// Fabricated certificate used for sabotage (built lazily).
    poison: Option<CertId>,
}

impl SpiteAgent {
    fn losing(&self) -> bool {
        match self.core.min_cert_data() {
            Some(ce) => ce.color != self.coalition.color,
            None => false,
        }
    }

    /// The sabotage message: the poison certificate, built once.
    fn poison_msg(&mut self) -> Msg {
        let pool = self.core.pool();
        // A structurally valid certificate that cannot equal the honest
        // minimum: claims our id as owner with an empty vote set.
        let p = *self.poison.get_or_insert_with(|| {
            pool.insert_cert(CertData {
                k: 0,
                votes: VoteLanes::new(),
                color: self.coalition.color,
                owner: self.core.id,
            })
        });
        pool.cert_msg(p)
    }
}

impl Agent<Msg> for SpiteAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        match self.core.phase(ctx.round) {
            Phase::Coherence if self.losing() => {
                let poison = self.poison_msg();
                let peer = ctx.topology.sample_peer(self.core.id, &mut self.core.rng);
                Some(Op::push(peer, poison))
            }
            _ => self.core.act_honest(ctx),
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        // Also answer Find-Min pulls with poison once losing is apparent
        // (harsher variant of the same sabotage).
        if matches!(query, Msg::QMinCert)
            && self.core.phase(ctx.round) == Phase::Coherence
            && self.losing()
        {
            return Some(self.poison_msg());
        }
        self.core.on_pull_honest(from, query, ctx)
    }

    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        // Ignore Coherence mismatches against ourselves; stay honest
        // otherwise.
        if let (Phase::Coherence, Msg::Cert { .. }) = (self.core.phase(ctx.round), msg) {
            return;
        }
        self.core.on_push_honest(from, msg, ctx)
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        self.core.on_reply_honest(from, reply, ctx)
    }

    fn finalize(&mut self, _ctx: &RoundCtx) {
        self.core.finalize_honest();
    }
}

impl ConsensusAgent for SpiteAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator("spite-abort")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::new_coalition;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;
    use crate::params::Params;

    fn mk() -> SpiteAgent {
        let params = Params::new(32, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            3,
            params,
            params.sync_schedule(),
            1,
            DetRng::seeded(7, 3),
        );
        SpiteAgent {
            core,
            coalition: new_coalition(vec![3], 1),
            poison: None,
        }
    }

    #[test]
    fn losing_detection() {
        let mut a = mk();
        a.core.ensure_certificate();
        assert!(!a.losing(), "own color == coalition color");
        a.core.min_cert = Some(a.core.pool().insert_cert(CertData {
            k: 0,
            votes: VoteLanes::new(),
            color: 0, // not the coalition color
            owner: 9,
        }));
        assert!(a.losing());
    }

    #[test]
    fn pushes_poison_in_coherence_when_losing() {
        let mut a = mk();
        let q = a.core.params.q;
        a.core.ensure_certificate();
        a.core.min_cert = Some(a.core.pool().insert_cert(CertData {
            k: 0,
            votes: VoteLanes::new(),
            color: 0,
            owner: 9,
        }));
        let topo = Topology::complete(32);
        let ctx = RoundCtx {
            round: 3 * q,
            topology: &topo,
        };
        match a.act(&ctx) {
            Some(Op::Push {
                msg: Msg::Cert { cert, .. },
                ..
            }) => {
                let ce = a.core.pool().cert(cert);
                assert_eq!(ce.owner, 3, "poison claims own ownership");
                assert_ne!(ce.color, 0);
            }
            other => panic!("expected poison push, got {other:?}"),
        }
    }

    #[test]
    fn behaves_honestly_when_winning() {
        let mut a = mk();
        let q = a.core.params.q;
        a.core.ensure_certificate();
        // min cert color == coalition color == 1 (own certificate).
        let topo = Topology::complete(32);
        let ctx = RoundCtx {
            round: 3 * q,
            topology: &topo,
        };
        match a.act(&ctx) {
            Some(Op::Push {
                msg: Msg::Cert { cert, .. },
                ..
            }) => assert_eq!(Some(cert), a.core.min_cert),
            other => panic!("expected honest coherence push, got {other:?}"),
        }
    }

    #[test]
    fn poison_is_cached() {
        let mut a = mk();
        let p1 = a.poison_msg();
        let p2 = a.poison_msg();
        assert_eq!(p1, p2, "one poison certificate, one handle");
        assert_eq!(a.core.pool().cert_count(), 1);
    }
}
