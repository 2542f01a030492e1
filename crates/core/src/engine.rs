//! The protocol state machine (`ProtocolCore`) and the honest agent.
//!
//! [`ProtocolCore`] holds the full local state of protocol `P` for one
//! agent — intentions `H_u`, ledger `L_u`, vote set `W_u`, accumulated
//! `k_u`, current minimum certificate — together with methods implementing
//! the *honest* behaviour of every phase. [`HonestAgent`] is the thin
//! [`Agent`] wrapper that always follows those methods.
//!
//! Deviating strategies (crate `adversary`) embed the same core and
//! override selected actions; this mirrors the paper's strategy space
//! where a coalition member may replace any subset of the local rules
//! while remaining subject to the GOSSIP constraints.
//!
//! ## Fidelity notes
//!
//! * **Fail semantics** — "make the protocol fail" (paper: the agent
//!   enters an invalid state, e.g. supports a color outside `Σ`). Here a
//!   failed agent sets [`ProtocolCore::failed`] and from then on behaves
//!   exactly like a faulty node (no actions, no replies): externally
//!   indistinguishable from a crash, and the run's outcome is already
//!   `Fail` whichever way the remaining rounds play out.
//! * **Query answering across phases** — honest agents answer `QIntent`
//!   in *any* phase (the list is already committed; this avoids spurious
//!   faulty-markings under the asynchronous schedule where per-agent
//!   phase boundaries are slightly skewed) and answer `QMinCert` only
//!   once their own certificate exists (from Find-Min on).
//! * **Vote acceptance** — votes are accepted only while the *receiver*
//!   is in its Voting phase; early or late vote injections by deviators
//!   are dropped, matching the paper's implicit synchrony.
//! * **Find-Min acceptance** — any structurally plausible certificate
//!   with a smaller `k` is adopted (semantic checks are deferred to
//!   Verification, exactly as in Algorithm 1). Ties on `k` keep the
//!   current certificate; if a tie ever splits the network the Coherence
//!   phase fails it, and Lemma 3(2) makes ties vanishing-rare.

use crate::certificate::{CertData, VoteLanes, VoteRec};
use crate::ledger::{ConsistencyError, Ledger};
use crate::msg::{IntentEntry, Msg};
use crate::params::{Params, Phase, PhaseSchedule};
use crate::payload::{CertId, ListId, PayloadPool};
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::rng::DetRng;
use std::sync::Arc;

/// Why Verification rejected the winning certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyFailure {
    /// `k ≠ Σ W mod m`: the declared accumulator doesn't match the votes.
    BadSum,
    /// The certificate fails structural field-range checks.
    Structural,
    /// The vote set contradicts this agent's commitment ledger.
    Inconsistent(ConsistencyError),
    /// The vote set contradicts the agent's *own* declared votes.
    SelfVoteMismatch,
    /// The agent failed earlier (Coherence mismatch), before Verification.
    FailedEarlier,
}

/// Whether the agent follows the protocol or runs a named deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Follows protocol `P` exactly.
    Honest,
    /// Runs the named deviating strategy (see crate `adversary`).
    Deviator(&'static str),
}

/// Full local protocol state for one agent.
#[derive(Debug, Clone)]
pub struct ProtocolCore {
    /// This agent's label.
    pub id: AgentId,
    /// Shared protocol parameters.
    pub params: Params,
    /// Round→phase mapping (synchronous or asynchronous).
    pub schedule: PhaseSchedule,
    /// Initial color `c_u`.
    pub color: ColorId,
    /// Private randomness stream.
    pub rng: DetRng,
    /// The network's payload pool, which every handle below names into.
    /// Taken once, at construction.
    pool: Arc<PayloadPool>,
    /// Vote intentions `H_u` drawn in the Voting-Intention phase.
    pub intents: ListId,
    /// Commitment ledger `L_u`.
    pub ledger: Ledger,
    /// Received votes `W_u`, in struct-of-arrays lanes (receipt order).
    /// This is a *receipt buffer*: [`ProtocolCore::ensure_certificate`]
    /// moves it into `own_cert` instead of cloning it, so after the
    /// certificate is built the lanes are empty — read
    /// [`ProtocolCore::votes_received`] for the count, which survives.
    pub votes: VoteLanes,
    /// Votes received during Voting (monotone; unlike `votes`, not
    /// consumed by certificate construction).
    pub votes_recv: u32,
    /// Next intention index to push during Voting.
    pub vote_idx: usize,
    /// Own certificate `CE_u` (built at the end of Voting).
    pub own_cert: Option<CertId>,
    /// Current minimum certificate `CE_u^min`.
    pub min_cert: Option<CertId>,
    /// Set when the agent makes the protocol fail.
    pub failed: bool,
    /// Diagnostic: why verification failed (if it did).
    pub verify_failure: Option<VerifyFailure>,
    /// Final decision (the winning color) if verification succeeded.
    pub decided: Option<ColorId>,
}

impl ProtocolCore {
    /// Initialize the agent: draws the vote-intention list `H_u`
    /// (`q` pairs, values u.a.r. in `[m]`, targets u.a.r. among the
    /// agent's neighbors in `topology`) — the paper's `Initialize` +
    /// `Voting-Intention` steps — into the payload pool of the network
    /// being built (see [`PayloadPool::building`]). On the complete
    /// graph the targets are u.a.r. in `[n]`, the paper's rule; other
    /// topologies are the E12 extension.
    pub fn new_on(
        topology: &gossip_net::topology::Topology,
        id: AgentId,
        params: Params,
        schedule: PhaseSchedule,
        color: ColorId,
        mut rng: DetRng,
    ) -> Self {
        let pool = PayloadPool::current(params);
        let intents = pool.draw_list(id, params.q, || IntentEntry {
            value: rng.below(params.m),
            target: topology.sample_peer(id, &mut rng),
        });
        Self::with_intents(pool, id, params, schedule, color, rng, intents)
    }

    /// Core constructor over an explicit intention list in `pool`.
    pub fn with_intents(
        pool: Arc<PayloadPool>,
        id: AgentId,
        params: Params,
        schedule: PhaseSchedule,
        color: ColorId,
        rng: DetRng,
        intents: ListId,
    ) -> Self {
        ProtocolCore {
            id,
            params,
            schedule,
            color,
            rng,
            pool,
            intents,
            ledger: Ledger::with_capacity(params.q + 1),
            votes: VoteLanes::with_capacity(params.q + 8),
            votes_recv: 0,
            vote_idx: 0,
            own_cert: None,
            min_cert: None,
            failed: false,
            verify_failure: None,
            decided: None,
        }
    }

    /// The payload pool this agent's handles name into.
    #[inline]
    pub fn pool(&self) -> &PayloadPool {
        &self.pool
    }

    /// The entries of the agent's own intention list `H_u`.
    #[inline]
    pub fn intent_list(&self) -> &[IntentEntry] {
        self.pool.list(self.intents)
    }

    /// The agent's own certificate, once built.
    pub fn own_cert_data(&self) -> Option<&CertData> {
        self.own_cert.map(|c| self.pool.cert(c))
    }

    /// The agent's current minimum certificate, once it holds one.
    pub fn min_cert_data(&self) -> Option<&CertData> {
        self.min_cert.map(|c| self.pool.cert(c))
    }

    /// The phase this agent attributes to global round `round`.
    #[inline]
    pub fn phase(&self, round: usize) -> Phase {
        self.schedule.phase_of(round)
    }

    /// Enter the invalid state ("make the protocol fail").
    pub fn fail(&mut self, why: VerifyFailure) {
        if !self.failed {
            self.failed = true;
            self.verify_failure = Some(why);
        }
    }

    /// Build `CE_u` from the received votes if not yet built, and seed the
    /// minimum certificate with it. Idempotent.
    ///
    /// The receipt buffer is *moved* into the certificate, not cloned:
    /// vote acceptance is phase-gated to Voting and certificate
    /// construction happens at Find-Min entry, so no later push can miss
    /// the buffer. (This halves the per-agent vote footprint — the old
    /// clone kept both the receipt-order buffer and the sorted copy
    /// alive to the end of the run.) Deviator strategies that need the
    /// receipt-order votes must read them *before* this call.
    pub fn ensure_certificate(&mut self) {
        if self.own_cert.is_none() {
            let votes = std::mem::take(&mut self.votes);
            let data = CertData::build_lanes(self.id, self.color, votes, self.params.m);
            let cert = self.pool.own_cert(self.id, data);
            self.own_cert = Some(cert);
            if self.min_cert.is_none() {
                self.min_cert = Some(cert);
            }
        }
    }

    /// Total votes accepted during Voting — stable across certificate
    /// construction (which consumes the receipt buffer itself).
    #[inline]
    pub fn votes_received(&self) -> usize {
        self.votes_recv as usize
    }

    /// `k_u`, available from the end of the Voting phase.
    pub fn k(&self) -> Option<u64> {
        self.own_cert_data().map(|c| c.k)
    }

    // ------------------------------------------------------------------
    // Honest per-phase behaviour
    // ------------------------------------------------------------------

    /// Honest action for the current round.
    pub fn act_honest(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        if self.failed {
            return None;
        }
        match self.phase(ctx.round) {
            Phase::Commitment => {
                let peer = ctx.topology.sample_peer(self.id, &mut self.rng);
                Some(Op::pull(peer, Msg::QIntent))
            }
            Phase::Voting => {
                let intents = self.pool.list(self.intents);
                if self.vote_idx < intents.len() {
                    let e = intents[self.vote_idx];
                    let msg = Msg::Vote {
                        value: e.value,
                        round: self.vote_idx as u16,
                    };
                    self.vote_idx += 1;
                    Some(Op::push(e.target, msg))
                } else {
                    None
                }
            }
            Phase::FindMin => {
                self.ensure_certificate();
                let peer = ctx.topology.sample_peer(self.id, &mut self.rng);
                Some(Op::pull(peer, Msg::QMinCert))
            }
            Phase::Coherence => {
                self.ensure_certificate();
                let peer = ctx.topology.sample_peer(self.id, &mut self.rng);
                let cert = self.min_cert.expect("cert ensured");
                Some(Op::push(peer, self.pool.cert_msg(cert)))
            }
            Phase::Finished => None,
        }
    }

    /// Honest pull-answering (the query is borrowed from the engine).
    pub fn on_pull_honest(&mut self, _from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        if self.failed {
            return None;
        }
        match query {
            Msg::QIntent => Some(self.pool.list_msg(self.intents)),
            Msg::QMinCert => {
                if self.phase(ctx.round) >= Phase::FindMin {
                    self.ensure_certificate();
                    self.min_cert.map(|c| self.pool.cert_msg(c))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Honest push-handling (the message is borrowed from the engine;
    /// only the kept parts — a vote record — are copied out).
    pub fn on_push_honest(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        if self.failed {
            return;
        }
        match (self.phase(ctx.round), msg) {
            (Phase::Voting, Msg::Vote { value, round }) => {
                self.votes.push(VoteRec {
                    voter: from,
                    round: *round,
                    value: *value,
                });
                self.votes_recv += 1;
            }
            (Phase::Coherence, Msg::Cert { cert: ce, .. }) => {
                self.ensure_certificate();
                let mine = self.min_cert.expect("cert ensured");
                // Handle-equality fast path: the network minimum spreads
                // as copies of one handle, so agreeing agents usually hold
                // the *same pool entry* — skip the O(|W|) payload
                // comparison. Equal handles name equal payloads, so the
                // verdict is unchanged.
                if mine != *ce && self.pool.cert(mine) != self.pool.cert(*ce) {
                    self.fail(VerifyFailure::FailedEarlier);
                }
            }
            _ => {} // out-of-phase traffic is dropped
        }
    }

    /// Honest reply-handling.
    pub fn on_reply_honest(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        if self.failed {
            return;
        }
        match self.phase(ctx.round) {
            Phase::Commitment => match reply {
                Some(Msg::Intents { list, .. }) if self.pool.plausible(list) => {
                    self.ledger.declare(from, ctx.round as u32, list);
                }
                // Silence or an unexpected reply: marked faulty, votes
                // pinned to zero (paper footnote 4). Overrides earlier
                // declarations.
                _ => self.ledger.mark_faulty(from, ctx.round as u32),
            },
            Phase::FindMin => {
                if let Some(Msg::Cert { cert, .. }) = reply {
                    self.consider_certificate(cert);
                }
            }
            _ => {}
        }
    }

    /// Find-Min adoption rule: keep the certificate with the smaller `k`.
    pub fn consider_certificate(&mut self, ce: CertId) {
        self.ensure_certificate();
        let current = self.min_cert.expect("cert ensured");
        if ce == current {
            return; // the minimum this agent already holds
        }
        let (new, current) = (self.pool.cert(ce), self.pool.cert(current));
        // Hot-path order: the k comparison first — a certificate that
        // would not be adopted anyway (the overwhelmingly common case
        // once the minimum has spread) never pays the O(|W|) structural
        // scan. Observationally identical to validating first: both
        // orders adopt exactly the structurally valid certificates with
        // smaller k.
        if new.k >= current.k {
            return;
        }
        if !new.structurally_valid(self.params.n, self.params.m, self.params.q) {
            return; // implausible garbage is ignored
        }
        self.min_cert = Some(ce);
    }

    /// The Verification phase (paper, last block of Algorithm 1): accept
    /// the winner's color iff the certificate checks out; otherwise fail.
    pub fn finalize_honest(&mut self) {
        if self.failed {
            return;
        }
        self.ensure_certificate();
        let win = self.pool.cert(self.min_cert.expect("cert ensured"));
        let verdict = if !win.structurally_valid(self.params.n, self.params.m, self.params.q) {
            Err(VerifyFailure::Structural)
        } else if win.k != win.derived_k(self.params.m) {
            Err(VerifyFailure::BadSum)
        } else if let Err(e) = self.ledger.check_certificate(&self.pool, win) {
            Err(VerifyFailure::Inconsistent(e))
        } else if !self.self_votes_consistent(win) {
            Err(VerifyFailure::SelfVoteMismatch)
        } else {
            Ok(win.color)
        };
        match verdict {
            Ok(color) => self.decided = Some(color),
            Err(why) => self.fail(why),
        }
    }

    /// Check the winner's vote set against this agent's *own* sent votes:
    /// every vote we pushed toward the winner must appear verbatim, and no
    /// extra votes may be attributed to us.
    fn self_votes_consistent(&self, win: &CertData) -> bool {
        let mut expected: Vec<(u16, u64)> = self
            .intent_list()
            .iter()
            .take(self.vote_idx) // only votes actually sent
            .enumerate()
            .filter(|(_, e)| e.target == win.owner)
            .map(|(i, e)| (i as u16, e.value))
            .collect();
        let mut actual: Vec<(u16, u64)> = win
            .votes_from(self.id)
            .map(|r| (r.round, r.value))
            .collect();
        expected.sort_unstable();
        actual.sort_unstable();
        expected == actual
    }

    /// Final decision: `Some(color)` if this agent terminated in consensus.
    pub fn decision(&self) -> Option<ColorId> {
        if self.failed {
            None
        } else {
            self.decided
        }
    }
}

/// An agent that follows protocol `P` exactly.
#[derive(Debug, Clone)]
pub struct HonestAgent {
    core: ProtocolCore,
}

impl HonestAgent {
    /// Wrap a protocol core in honest behaviour.
    pub fn new(core: ProtocolCore) -> Self {
        HonestAgent { core }
    }

    /// Read access to the protocol state.
    pub fn core(&self) -> &ProtocolCore {
        &self.core
    }
}

impl Agent<Msg> for HonestAgent {
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

/// The common interface for every agent participating in protocol `P`,
/// honest or deviating — used by the runner and audits to inspect final
/// state regardless of the concrete strategy type.
///
/// `Send` is a supertrait: the staged round engine
/// (`gossip_net::network::staged`) shards one trial's agents across
/// worker threads, so every slot — including [`crate::AgentSlot::Custom`]
/// boxes — must be movable across threads. All built-in agents are
/// `Send`: payloads are `Copy` handles into a `Sync` pool, and coalition
/// intel is Mutex-guarded. An out-of-tree agent just needs to avoid
/// `Rc`/`RefCell` state.
pub trait ConsensusAgent: Agent<Msg> + Send {
    /// The protocol state (every strategy carries one, since deviators
    /// must still produce plausible protocol traffic).
    fn core(&self) -> &ProtocolCore;

    /// Honest or named deviator.
    fn role(&self) -> Role {
        Role::Honest
    }
}

impl ConsensusAgent for HonestAgent {
    fn core(&self) -> &ProtocolCore {
        HonestAgent::core(self)
    }
}

impl ConsensusAgent for Box<dyn ConsensusAgent> {
    fn core(&self) -> &ProtocolCore {
        (**self).core()
    }
    fn role(&self) -> Role {
        (**self).role()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::topology::Topology;

    fn mk_core(id: AgentId, n: usize, seed: u64) -> ProtocolCore {
        let params = Params::new(n, 1.0);
        let schedule = params.sync_schedule();
        let rng = DetRng::seeded(seed, id as u64);
        ProtocolCore::new_on(&Topology::complete(n), id, params, schedule, id % 3, rng)
    }

    fn ctx_at(topo: &Topology, round: usize) -> RoundCtx<'_> {
        RoundCtx {
            round,
            topology: topo,
        }
    }

    #[test]
    fn intentions_have_q_entries_in_range() {
        let core = mk_core(0, 64, 7);
        assert_eq!(core.intent_list().len(), core.params.q);
        for e in core.intent_list() {
            assert!(e.value < core.params.m);
            assert!((e.target as usize) < 64);
        }
    }

    #[test]
    fn commitment_phase_pulls_intents() {
        let topo = Topology::complete(16);
        let mut core = mk_core(0, 16, 1);
        let op = core.act_honest(&ctx_at(&topo, 0)).unwrap();
        match op {
            Op::Pull { query, .. } => assert_eq!(query, Msg::QIntent),
            _ => panic!("commitment must pull"),
        }
    }

    #[test]
    fn voting_phase_pushes_declared_votes_in_order() {
        let topo = Topology::complete(16);
        let mut core = mk_core(0, 16, 1);
        let q = core.params.q;
        let intents = core.intent_list().to_vec();
        assert_eq!(intents.len(), q);
        for (i, e) in intents.iter().enumerate() {
            let op = core.act_honest(&ctx_at(&topo, q + i)).unwrap();
            match op {
                Op::Push { to, msg: Msg::Vote { value, round } } => {
                    assert_eq!(to, e.target);
                    assert_eq!(value, e.value);
                    assert_eq!(round as usize, i);
                }
                other => panic!("expected vote push, got {other:?}"),
            }
        }
        // Intentions exhausted: no further votes.
        assert!(core.vote_idx == q);
    }

    #[test]
    fn find_min_phase_builds_cert_and_pulls() {
        let topo = Topology::complete(16);
        let mut core = mk_core(2, 16, 3);
        let q = core.params.q;
        let op = core.act_honest(&ctx_at(&topo, 2 * q)).unwrap();
        assert!(matches!(op, Op::Pull { query: Msg::QMinCert, .. }));
        assert!(core.own_cert.is_some());
        assert_eq!(core.min_cert, core.own_cert);
        // No votes received: k = 0 (empty modular sum).
        assert_eq!(core.k(), Some(0));
    }

    #[test]
    fn votes_accumulate_only_in_voting_phase() {
        let topo = Topology::complete(16);
        let mut core = mk_core(1, 16, 4);
        let q = core.params.q;
        let vote = Msg::Vote { value: 42, round: 0 };
        core.on_push_honest(3, &vote, &ctx_at(&topo, 0)); // commitment: dropped
        assert!(core.votes.is_empty());
        core.on_push_honest(3, &vote, &ctx_at(&topo, q)); // voting: kept
        assert_eq!(core.votes.len(), 1);
        core.on_push_honest(3, &vote, &ctx_at(&topo, 2 * q)); // find-min: dropped
        assert_eq!(core.votes.len(), 1);
        assert_eq!(core.votes.get(0).voter, 3);
        assert_eq!(core.votes_received(), 1);
    }

    #[test]
    fn k_is_sum_of_votes_mod_m() {
        let topo = Topology::complete(16);
        let mut core = mk_core(1, 16, 4);
        let q = core.params.q;
        let m = core.params.m;
        core.on_push_honest(2, &Msg::Vote { value: m - 1, round: 0 }, &ctx_at(&topo, q));
        core.on_push_honest(3, &Msg::Vote { value: 5, round: 1 }, &ctx_at(&topo, q));
        core.ensure_certificate();
        assert_eq!(core.k(), Some(4)); // (m-1+5) mod m
    }

    #[test]
    fn commitment_reply_declares_or_marks_faulty() {
        let topo = Topology::complete(16);
        let mut core = mk_core(0, 16, 5);
        let good = core.pool().insert_list(
            (0..core.params.q)
                .map(|i| IntentEntry {
                    value: i as u64,
                    target: 1,
                })
                .collect(),
        );
        let good = core.pool().list_msg(good);
        core.on_reply_honest(7, Some(good), &ctx_at(&topo, 0));
        assert!(core.ledger.find(7).is_some());
        // Silence marks faulty.
        core.on_reply_honest(8, None, &ctx_at(&topo, 1));
        assert!(matches!(
            core.ledger.find(8).unwrap().decl,
            crate::ledger::Declaration::Faulty
        ));
        // Wrong-length list is "unexpected" → faulty.
        let short = core.pool().insert_list(vec![IntentEntry {
            value: 0,
            target: 0,
        }]);
        let short = core.pool().list_msg(short);
        core.on_reply_honest(9, Some(short), &ctx_at(&topo, 2));
        assert!(matches!(
            core.ledger.find(9).unwrap().decl,
            crate::ledger::Declaration::Faulty
        ));
    }

    #[test]
    fn later_silence_downgrades_declaration() {
        let topo = Topology::complete(16);
        let mut core = mk_core(0, 16, 5);
        let good = core.pool().insert_list(vec![
            IntentEntry {
                value: 1,
                target: 1
            };
            core.params.q
        ]);
        let good = core.pool().list_msg(good);
        core.on_reply_honest(7, Some(good), &ctx_at(&topo, 0));
        core.on_reply_honest(7, None, &ctx_at(&topo, 1));
        assert!(matches!(
            core.ledger.find(7).unwrap().decl,
            crate::ledger::Declaration::Faulty
        ));
    }

    #[test]
    fn find_min_adopts_smaller_k_only() {
        let mut core = mk_core(1, 16, 6);
        core.ensure_certificate();
        let my_k = core.k().unwrap();
        // A structurally valid cert with k = my_k + 1 is not adopted...
        let bigger = core.pool().insert_cert(CertData {
            k: my_k + 1,
            votes: VoteLanes::new(),
            color: 5,
            owner: 2,
        });
        core.consider_certificate(bigger);
        assert_eq!(core.min_cert_data().unwrap().owner, 1);
        // ...but any smaller k is (semantics checked later).
        // my_k is 0 here (no votes), so craft a smaller one via a fresh core
        // that has votes.
        let mut core2 = mk_core(2, 16, 7);
        let topo = Topology::complete(16);
        let q = core2.params.q;
        core2.on_push_honest(3, &Msg::Vote { value: 100, round: 0 }, &ctx_at(&topo, q));
        core2.ensure_certificate();
        assert_eq!(core2.k(), Some(100));
        let smaller = core2.pool().insert_cert(CertData {
            k: 50,
            votes: VoteLanes::new(),
            color: 9,
            owner: 4,
        });
        core2.consider_certificate(smaller);
        assert_eq!(core2.min_cert_data().unwrap().owner, 4);
    }

    #[test]
    fn find_min_ignores_structurally_invalid() {
        let mut core = mk_core(1, 16, 8);
        core.ensure_certificate();
        let invalid = core.pool().insert_cert(CertData {
            k: core.params.m, // out of range
            votes: VoteLanes::new(),
            color: 0,
            owner: 2,
        });
        core.consider_certificate(invalid);
        assert_eq!(core.min_cert_data().unwrap().owner, 1);
    }

    #[test]
    fn coherence_mismatch_fails_protocol() {
        let topo = Topology::complete(16);
        let mut core = mk_core(1, 16, 9);
        let q = core.params.q;
        core.ensure_certificate();
        let other = core.pool().insert_cert(CertData {
            k: 7,
            votes: VoteLanes::new(),
            color: 2,
            owner: 3,
        });
        let other = core.pool().cert_msg(other);
        core.on_push_honest(3, &other, &ctx_at(&topo, 3 * q));
        assert!(core.failed);
        assert_eq!(core.decision(), None);
    }

    #[test]
    fn coherence_match_keeps_running() {
        let topo = Topology::complete(16);
        let mut core = mk_core(1, 16, 10);
        let q = core.params.q;
        core.ensure_certificate();
        let same = core.pool().cert_msg(core.min_cert.unwrap());
        core.on_push_honest(3, &same, &ctx_at(&topo, 3 * q));
        assert!(!core.failed);
    }

    #[test]
    fn coherence_equal_copy_keeps_running() {
        // A certificate equal to the minimum but held as a separate copy
        // must pass the payload comparison, not only the identity check.
        let topo = Topology::complete(16);
        let mut core = mk_core(1, 16, 10);
        let q = core.params.q;
        core.on_push_honest(2, &Msg::Vote { value: 9, round: 0 }, &ctx_at(&topo, q));
        core.ensure_certificate();
        let copy = core
            .pool()
            .insert_cert(core.min_cert_data().unwrap().clone());
        assert_ne!(Some(copy), core.min_cert, "a separate pool entry");
        let copy = core.pool().cert_msg(copy);
        core.on_push_honest(3, &copy, &ctx_at(&topo, 3 * q));
        assert!(!core.failed);
    }

    #[test]
    fn failed_agent_goes_quiescent() {
        let topo = Topology::complete(16);
        let mut core = mk_core(1, 16, 11);
        core.fail(VerifyFailure::FailedEarlier);
        assert!(core.act_honest(&ctx_at(&topo, 0)).is_none());
        assert!(core
            .on_pull_honest(2, &Msg::QIntent, &ctx_at(&topo, 0))
            .is_none());
    }

    #[test]
    fn verification_accepts_own_consistent_cert() {
        // An agent whose min-cert is its own (no votes, empty ledger)
        // verifies trivially and decides its own color.
        let mut core = mk_core(1, 16, 12);
        core.finalize_honest();
        assert_eq!(core.decision(), Some(core.color));
    }

    #[test]
    fn verification_rejects_bad_sum() {
        let mut core = mk_core(1, 16, 13);
        core.ensure_certificate();
        core.min_cert = Some(core.pool().insert_cert(CertData {
            k: 5, // but no votes: derived k = 0
            votes: VoteLanes::new(),
            color: 0,
            owner: 2,
        }));
        core.finalize_honest();
        assert!(core.failed);
        assert_eq!(core.verify_failure, Some(VerifyFailure::BadSum));
    }

    #[test]
    fn verification_rejects_ledger_inconsistency() {
        let topo = Topology::complete(16);
        let mut core = mk_core(0, 16, 14);
        // Agent 7 declared a vote (value 9, index 0) for agent 2.
        let mut entries = vec![
            IntentEntry {
                value: 9,
                target: 2,
            };
            core.params.q
        ];
        for (i, e) in entries.iter_mut().enumerate().skip(1) {
            e.target = 3; // only index 0 targets the winner
            e.value = i as u64;
        }
        let declared = core.pool().list_msg(core.pool().insert_list(entries));
        core.on_reply_honest(7, Some(declared), &ctx_at(&topo, 0));
        // Winner cert from agent 2 omits 7's declared vote.
        core.ensure_certificate();
        let winner = CertData::build(2, 1, vec![], core.params.m);
        core.min_cert = Some(core.pool().insert_cert(winner));
        core.finalize_honest();
        assert!(matches!(
            core.verify_failure,
            Some(VerifyFailure::Inconsistent(_))
        ));
    }

    #[test]
    fn verification_rejects_self_vote_tampering() {
        let topo = Topology::complete(16);
        let mut core = mk_core(0, 16, 15);
        let q = core.params.q;
        // Send all votes.
        for i in 0..q {
            let _ = core.act_honest(&ctx_at(&topo, q + i));
        }
        // Find my first intent's target; craft a winner cert from that
        // target that *drops* my vote.
        let target = core.intent_list()[0].target;
        core.ensure_certificate();
        let winner = CertData::build(target, 1, vec![], core.params.m);
        core.min_cert = Some(core.pool().insert_cert(winner));
        core.finalize_honest();
        // My declared vote for `target` is missing from W: self-check fails
        // (unless I never voted for the winner, but index 0 targets it).
        assert_eq!(core.verify_failure, Some(VerifyFailure::SelfVoteMismatch));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn per_agent_state_stays_compact() {
        // Every plan and apply pass streams the agent array: at
        // n = 65 536 an `AgentSlot` byte is 64 KiB of traffic per pass.
        assert!(std::mem::size_of::<ProtocolCore>() <= 320);
        assert!(std::mem::size_of::<crate::AgentSlot>() <= 368);
    }

    #[test]
    fn honest_agent_delegates() {
        let topo = Topology::complete(8);
        let params = Params::new(8, 1.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            0,
            params,
            params.sync_schedule(),
            2,
            DetRng::seeded(1, 0),
        );
        let mut agent = HonestAgent::new(core);
        let ctx = ctx_at(&topo, 0);
        assert!(agent.act(&ctx).is_some());
        assert_eq!(ConsensusAgent::core(&agent).color, 2);
        assert_eq!(agent.role(), Role::Honest);
    }
}
