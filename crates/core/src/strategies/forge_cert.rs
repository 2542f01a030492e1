//! Forged-minimum-certificate attacks.
//!
//! The coalition's most direct path to victory: since the minimum `k`
//! wins, claim a certificate with `k = 0`. The leader fabricates
//! `CE* = (0, W*, c_C, leader)` at the start of Find-Min; all members
//! advertise `CE*` in Find-Min replies, push it in Coherence, never adopt
//! honest certificates, and never fail on mismatches.
//!
//! Three fabrication modes, in increasing sophistication:
//!
//! * **zero-k** — keep the true received votes `W`, declare `k = 0`.
//!   `k ≠ Σ W mod m`, so every verifier rejects with `BadSum`.
//! * **tuned-vote** — append one fabricated vote from a fellow member
//!   with value `(m − Σ W) mod m`, making the sum check pass. Any honest
//!   agent that pulled the claimed voter during Commitment sees a vote
//!   that was never declared ⇒ `VoteMismatch` ⇒ fail (Def. 5(1) makes
//!   such an agent exist w.h.p.).
//! * **drop-votes** — claim `W* = ∅`, `k = 0` (sum check passes
//!   trivially). Any honest agent that pulled *any* agent which declared
//!   a vote for the leader sees a missing vote ⇒ fail.
//!
//! Per Claim 1, a good execution that does not fail can only crown the
//! *legitimate* winner, so these attacks convert would-be losses into
//! `⊥` — never into wins.

use crate::agent_plane::AgentSlot;
use crate::certificate::{CertData, VoteRec};
use crate::coalition::Coalition;
use crate::engine::{ConsensusAgent, ProtocolCore, Role};
use crate::msg::Msg;
use crate::params::Phase;
use crate::payload::CertId;
use crate::strategies::Strategy;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// Fabrication mode for the forged certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForgeMode {
    /// Keep true `W`, lie that `k = 0`.
    ZeroK,
    /// Add one fabricated balancing vote so `Σ W* ≡ 0 (mod m)`.
    TunedVote,
    /// Claim the empty vote set (`k = 0` consistently).
    DropVotes,
}

/// The forged-certificate strategy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct ForgeCert {
    mode: ForgeMode,
}

impl ForgeCert {
    /// `zero-k` mode.
    pub fn zero_k() -> Self {
        ForgeCert {
            mode: ForgeMode::ZeroK,
        }
    }
    /// `tuned-vote` mode.
    pub fn tuned_vote() -> Self {
        ForgeCert {
            mode: ForgeMode::TunedVote,
        }
    }
    /// `drop-votes` mode.
    pub fn drop_votes() -> Self {
        ForgeCert {
            mode: ForgeMode::DropVotes,
        }
    }
}

impl Strategy for ForgeCert {
    fn name(&self) -> &'static str {
        match self.mode {
            ForgeMode::ZeroK => "forge-zero-k",
            ForgeMode::TunedVote => "forge-tuned-vote",
            ForgeMode::DropVotes => "forge-drop-votes",
        }
    }

    fn description(&self) -> &'static str {
        match self.mode {
            ForgeMode::ZeroK => "claim k=0 over the true vote set (fails the sum check)",
            ForgeMode::TunedVote => {
                "forge a balancing vote so k=0 passes the sum check (fails ledger checks)"
            }
            ForgeMode::DropVotes => "claim an empty vote set with k=0 (fails ledger checks)",
        }
    }

    fn build(&self, core: ProtocolCore, coalition: Coalition) -> AgentSlot {
        AgentSlot::ForgeCert(ForgeAgent {
            core,
            coalition,
            mode: self.mode,
            strategy_name: self.name(),
        })
    }
}

/// The certificate-forging agent (one of the three fabrication modes).
pub struct ForgeAgent {
    core: ProtocolCore,
    coalition: Coalition,
    mode: ForgeMode,
    strategy_name: &'static str,
}

impl ForgeAgent {
    fn is_leader(&self) -> bool {
        self.core.id == self.coalition.leader
    }

    /// Leader-side: fabricate the coalition's certificate from the true
    /// received votes.
    ///
    /// Reads the receipt-order vote buffer, so it must run *before*
    /// `ensure_certificate` (which consumes the buffer into the honest
    /// own-certificate) — see the call-site ordering in `act`.
    fn forge(&mut self) -> CertId {
        let m = self.core.params.m;
        let (votes, k) = match self.mode {
            ForgeMode::ZeroK => (self.core.votes.clone(), 0),
            ForgeMode::DropVotes => (crate::certificate::VoteLanes::new(), 0),
            ForgeMode::TunedVote => {
                let mut votes = self.core.votes.clone();
                let sum = votes.sum_mod(m);
                // Attribute the balancing vote to a fellow member when one
                // exists (its declarations are also coalition-controlled),
                // else to ourselves.
                let accomplice: AgentId = self
                    .coalition
                    .members
                    .iter()
                    .copied()
                    .find(|&u| u != self.core.id)
                    .unwrap_or(self.core.id);
                votes.push(VoteRec {
                    voter: accomplice,
                    round: 0,
                    value: (m - sum) % m,
                });
                votes.sort_canonical();
                (votes, 0)
            }
        };
        let cert = self.core.pool().insert_cert(CertData {
            k,
            votes,
            color: self.coalition.color,
            owner: self.core.id,
        });
        self.coalition.intel().promoted_cert = Some(cert);
        cert
    }

    /// The certificate this member currently advertises: the promoted
    /// forgery once it exists, else the honest minimum.
    fn advertised(&mut self) -> Option<Msg> {
        let promoted = self.coalition.intel().promoted_cert;
        let cert = promoted.or_else(|| {
            self.core.ensure_certificate();
            self.core.min_cert
        })?;
        Some(self.core.pool().cert_msg(cert))
    }
}

impl Agent<Msg> for ForgeAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        match self.core.phase(ctx.round) {
            // Honest through Commitment and Voting: the coalition needs
            // its commitments to look legitimate.
            Phase::Commitment | Phase::Voting => self.core.act_honest(ctx),
            Phase::FindMin => {
                if self.is_leader()
                    && self.coalition.intel().promoted_cert.is_none()
                {
                    // Forge first (it reads the receipt-order vote
                    // buffer), build the honest own-certificate second
                    // (it consumes that buffer), then promote the
                    // forgery — the same final state as the historical
                    // ensure-then-forge order.
                    let forged = self.forge();
                    self.core.ensure_certificate();
                    self.core.min_cert = Some(forged);
                } else {
                    self.core.ensure_certificate();
                }
                // Keep pulling like honest agents (camouflage), but never
                // adopt what comes back (see on_reply).
                let peer = ctx.topology.sample_peer(self.core.id, &mut self.core.rng);
                Some(Op::pull(peer, Msg::QMinCert))
            }
            Phase::Coherence => {
                let cert = self.advertised()?;
                let peer = ctx.topology.sample_peer(self.core.id, &mut self.core.rng);
                Some(Op::push(peer, cert))
            }
            Phase::Finished => None,
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        match query {
            // Commitment answers stay honest (the coalition's own votes
            // must verify).
            Msg::QIntent => self.core.on_pull_honest(from, query, ctx),
            Msg::QMinCert => {
                if self.core.phase(ctx.round) >= Phase::FindMin {
                    self.advertised()
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        // Accept votes honestly; ignore Coherence mismatches (a deviator
        // never "fails itself").
        if self.core.phase(ctx.round) == Phase::Voting && matches!(msg, Msg::Vote { .. }) {
            self.core.on_push_honest(from, msg, ctx);
        }
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        // Find-Min replies are discarded (the coalition sticks to its
        // forged minimum); Commitment replies are processed honestly.
        if self.core.phase(ctx.round) == Phase::Commitment {
            self.core.on_reply_honest(from, reply, ctx);
        }
    }

    fn finalize(&mut self, _ctx: &RoundCtx) {
        // A deviator "decides" its own color; the network outcome is
        // determined by the honest agents.
        self.core.decided = Some(self.coalition.color);
    }
}

impl ConsensusAgent for ForgeAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator(self.strategy_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::new_coalition;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;
    use crate::params::Params;

    fn agent_with(mode: ForgeMode, members: Vec<AgentId>) -> ForgeAgent {
        let params = Params::new(32, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            members[0],
            params,
            params.sync_schedule(),
            1,
            DetRng::seeded(1, members[0] as u64),
        );
        let coalition = new_coalition(members, 1);
        ForgeAgent {
            core,
            coalition,
            mode,
            strategy_name: "test",
        }
    }

    #[test]
    fn zero_k_forges_inconsistent_sum() {
        let mut a = agent_with(ForgeMode::ZeroK, vec![0, 1]);
        a.core.votes.push(VoteRec {
            voter: 5,
            round: 0,
            value: 123,
        });
        let forged = a.forge();
        let cert = a.core.pool().cert(forged);
        assert_eq!(cert.k, 0);
        assert_ne!(cert.derived_k(a.core.params.m), 0, "sum check must fail");
        assert_eq!(cert.color, 1);
        assert_eq!(cert.owner, 0);
    }

    #[test]
    fn tuned_vote_passes_sum_check() {
        let mut a = agent_with(ForgeMode::TunedVote, vec![0, 7]);
        a.core.votes.push(VoteRec {
            voter: 5,
            round: 0,
            value: 123,
        });
        let forged = a.forge();
        let cert = a.core.pool().cert(forged);
        assert_eq!(cert.k, 0);
        assert_eq!(cert.derived_k(a.core.params.m), 0, "sum check must pass");
        // The balancing vote is attributed to the accomplice (id 7).
        assert!(cert.votes.iter().any(|v| v.voter == 7));
    }

    #[test]
    fn drop_votes_is_internally_consistent() {
        let mut a = agent_with(ForgeMode::DropVotes, vec![3, 9]);
        a.core.votes.push(VoteRec {
            voter: 5,
            round: 0,
            value: 99,
        });
        let forged = a.forge();
        let cert = a.core.pool().cert(forged);
        assert_eq!(cert.k, 0);
        assert!(cert.votes.is_empty());
        assert_eq!(cert.derived_k(a.core.params.m), 0);
    }

    #[test]
    fn forged_cert_is_shared_via_intel() {
        let mut a = agent_with(ForgeMode::DropVotes, vec![0, 1]);
        assert!(a.coalition.intel().promoted_cert.is_none());
        let _ = a.forge();
        assert!(a.coalition.intel().promoted_cert.is_some());
    }

    #[test]
    fn solo_coalition_attributes_tuned_vote_to_self() {
        let mut a = agent_with(ForgeMode::TunedVote, vec![4]);
        a.core.votes.push(VoteRec {
            voter: 2,
            round: 1,
            value: 7,
        });
        let forged = a.forge();
        let cert = a.core.pool().cert(forged);
        assert!(cert.votes.iter().any(|v| v.voter == 4));
    }
}
