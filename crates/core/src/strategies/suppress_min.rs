//! Minimum suppression: censor the true minimum during Find-Min.
//!
//! Coalition members act as censors in the rumor-spreading phase: they
//! keep pulling (to track the true state), but when *answering* pulls
//! they advertise the best coalition-owned certificate they have seen
//! instead of the true minimum, hoping a member's `k` ends up winning.
//!
//! Lemma 6(2) and the Θ(log n) pull-broadcast analysis explain why this
//! cannot work for `t = o(n/log n)`: honest agents pull *each other*
//! `Θ(n log n)` times during the phase, so the true minimum spreads
//! through honest-only channels; censors only remove `o(n)` of those
//! channels. If suppression ever "succeeds" partially, the network splits
//! between two certificates and Coherence fails the run — a loss, not a
//! win.

use crate::agent_plane::AgentSlot;
use crate::coalition::Coalition;
use crate::engine::{ConsensusAgent, ProtocolCore, Role};
use crate::msg::Msg;
use crate::params::Phase;
use crate::payload::CertId;
use crate::strategies::Strategy;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// The minimum-suppression strategy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct SuppressMin;

impl Strategy for SuppressMin {
    fn name(&self) -> &'static str {
        "suppress-min"
    }

    fn description(&self) -> &'static str {
        "censor non-coalition minima while spreading the best coalition certificate"
    }

    fn build(&self, core: ProtocolCore, coalition: Coalition) -> AgentSlot {
        AgentSlot::SuppressMin(CensorAgent {
            core,
            coalition,
            best_coalition_cert: None,
        })
    }
}

/// The censoring agent: advertises coalition certificates over the truth.
pub struct CensorAgent {
    core: ProtocolCore,
    coalition: Coalition,
    /// Best (lowest-k) certificate owned by a coalition member seen so far.
    best_coalition_cert: Option<CertId>,
}

impl CensorAgent {
    /// Track coalition-owned certificates passing by.
    fn observe(&mut self, ce: CertId) {
        let pool = self.core.pool();
        let seen = pool.cert(ce);
        if self.coalition.contains(seen.owner) {
            let better = match self.best_coalition_cert {
                None => true,
                Some(cur) => seen.k < pool.cert(cur).k,
            };
            if better {
                self.best_coalition_cert = Some(ce);
            }
        }
    }

    /// What this censor advertises: the best coalition certificate if any,
    /// else its own (it must answer *something* plausible to avoid being
    /// marked faulty-looking in a phase where silence is suspicious).
    fn advertised(&mut self) -> Option<Msg> {
        self.core.ensure_certificate();
        let cert = self.best_coalition_cert.or(self.core.min_cert)?;
        Some(self.core.pool().cert_msg(cert))
    }
}

impl Agent<Msg> for CensorAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        match self.core.phase(ctx.round) {
            Phase::Coherence => {
                let cert = self.advertised()?;
                let peer = ctx.topology.sample_peer(self.core.id, &mut self.core.rng);
                Some(Op::push(peer, cert))
            }
            // Everything else (incl. Find-Min pulls, to keep tracking the
            // true minimum) is honest-shaped.
            _ => self.core.act_honest(ctx),
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        if matches!(query, Msg::QMinCert) && self.core.phase(ctx.round) >= Phase::FindMin {
            // The censoring move: advertise coalition certs, not the truth.
            self.core.ensure_certificate();
            if let Some(own) = self.core.min_cert {
                self.observe(own);
            }
            return self.advertised();
        }
        self.core.on_pull_honest(from, query, ctx)
    }

    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        match (self.core.phase(ctx.round), msg) {
            (Phase::Coherence, Msg::Cert { cert, .. }) => {
                // Track, never fail ourselves.
                self.observe(*cert);
            }
            _ => self.core.on_push_honest(from, msg, ctx),
        }
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        if let Some(Msg::Cert { cert, .. }) = reply {
            self.observe(cert);
        }
        // Keep the true minimum internally (honest adoption) so the censor
        // knows what the network will converge to.
        self.core.on_reply_honest(from, reply, ctx);
    }

    fn finalize(&mut self, _ctx: &RoundCtx) {
        self.core.finalize_honest();
    }
}

impl ConsensusAgent for CensorAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator("suppress-min")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::new_coalition;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;
    use crate::certificate::{CertData, VoteLanes};
    use crate::params::Params;

    fn mk() -> CensorAgent {
        let params = Params::new(32, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            5,
            params,
            params.sync_schedule(),
            1,
            DetRng::seeded(6, 5),
        );
        CensorAgent {
            core,
            coalition: new_coalition(vec![5, 9], 1),
            best_coalition_cert: None,
        }
    }

    fn cert(a: &CensorAgent, owner: AgentId, k: u64) -> CertId {
        a.core.pool().insert_cert(CertData {
            k,
            votes: VoteLanes::new(),
            color: 1,
            owner,
        })
    }

    fn best_k(a: &CensorAgent) -> u64 {
        a.core.pool().cert(a.best_coalition_cert.unwrap()).k
    }

    /// The owner of the certificate a censor's message advertises.
    fn owner(a: &CensorAgent, msg: Msg) -> AgentId {
        match msg {
            Msg::Cert { cert, .. } => a.core.pool().cert(cert).owner,
            other => panic!("expected a certificate, got {other:?}"),
        }
    }

    #[test]
    fn tracks_best_coalition_cert_only() {
        let mut a = mk();
        a.observe(cert(&a, 2, 1)); // honest-owned: ignored
        assert!(a.best_coalition_cert.is_none());
        a.observe(cert(&a, 9, 500));
        assert_eq!(best_k(&a), 500);
        a.observe(cert(&a, 9, 100));
        assert_eq!(best_k(&a), 100);
        a.observe(cert(&a, 9, 300)); // worse: kept at 100
        assert_eq!(best_k(&a), 100);
    }

    #[test]
    fn advertises_coalition_cert_over_truth() {
        let mut a = mk();
        // Give the censor a nonzero own k so smaller honest certs can be
        // adopted internally.
        a.core.votes.push(crate::VoteRec {
            voter: 2,
            round: 0,
            value: 500,
        });
        a.core.ensure_certificate();
        // The censor knows a tiny honest minimum…
        a.core.consider_certificate(cert(&a, 2, 1));
        assert_eq!(a.core.min_cert_data().unwrap().owner, 2);
        // …but advertises the (worse) coalition one.
        a.observe(cert(&a, 9, 100));
        let adv = a.advertised().unwrap();
        assert_eq!(owner(&a, adv), 9);
    }

    #[test]
    fn falls_back_to_own_when_no_coalition_cert() {
        let mut a = mk();
        let adv = a.advertised().unwrap();
        assert_eq!(owner(&a, adv), 5, "own certificate is the fallback");
    }
}
