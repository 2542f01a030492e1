//! Spy-and-tune: the adaptive commitment attack of Definition 5(3).
//!
//! The strongest information-based attack the model allows. During the
//! Commitment phase each coalition member:
//!
//! 1. **spies** — spends its pulls harvesting honest intention lists,
//!    accumulating (into the shared blackboard) the sum of all *known*
//!    votes addressed to the coalition leader;
//! 2. **delays** — keeps its own intention list undeclared for as long as
//!    possible (a declaration binds; silence would get it marked faulty,
//!    which backfires in Verification);
//! 3. **tunes** — at the moment of its first incoming pull (or at the
//!    start of Voting if nobody asked), finalizes an intention list whose
//!    every entry targets the leader, with the last value chosen so that
//!
//!    `known_honest_sum + planned_coalition_sum ≡ 0 (mod m)`.
//!
//! If the coalition knew *every* vote addressed to the leader this would
//! pin `k_leader = 0` — an unbeatable minimum that passes all checks. The
//! paper's Lemma 6(3) says exactly why it cannot: w.h.p. at least one
//! honest agent outside the spied set `M` votes for the leader, and by
//! deferred decision that single unknown uniform summand keeps `k_leader`
//! uniform on `[m]`. Expected measurement: win rate `≈ 1/|A|` per member,
//! flat in `t` until `t` approaches `n` itself.

use crate::agent_plane::AgentSlot;
use crate::coalition::Coalition;
use crate::engine::{ConsensusAgent, ProtocolCore, Role};
use crate::msg::{IntentEntry, Msg};
use crate::params::Phase;
use crate::payload::ListId;
use crate::strategies::Strategy;
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;

/// The spy-and-tune strategy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct SpyAndTune;

impl Strategy for SpyAndTune {
    fn name(&self) -> &'static str {
        "spy-tune"
    }

    fn description(&self) -> &'static str {
        "harvest honest intentions, then tune own votes to drive the leader's k toward 0"
    }

    fn build(&self, core: ProtocolCore, coalition: Coalition) -> AgentSlot {
        AgentSlot::SpyTune(SpyAgent {
            core,
            coalition,
            declared: false,
            spy_cursor: 0,
        })
    }
}

/// The spy-and-tune agent (see module docs).
pub struct SpyAgent {
    core: ProtocolCore,
    coalition: Coalition,
    /// Whether our intention list has been finalized (bound).
    declared: bool,
    /// Round-robin cursor over spy targets.
    spy_cursor: usize,
}

impl SpyAgent {
    /// Finalize (and bind) the tuned intention list. Idempotent.
    fn finalize_intents(&mut self) {
        if self.declared {
            return;
        }
        let m = self.core.params.m;
        let q = self.core.params.q;
        let leader = self.coalition.leader;
        let mut intel = self.coalition.intel();
        // Our q votes all target the leader. The first q-1 carry random
        // values; the last balances everything known so far toward 0.
        let mut entries: Vec<IntentEntry> = (0..q - 1)
            .map(|_| IntentEntry {
                value: self.core.rng.below(m),
                target: leader,
            })
            .collect();
        let own_partial: u64 = entries.iter().fold(0, |acc, e| (acc + e.value) % m);
        let known = (intel.known_sum_for_leader + intel.planned_tuned_votes) % m;
        let balance = (m - (known + own_partial) % m) % m;
        entries.push(IntentEntry {
            value: balance,
            target: leader,
        });
        let total: u64 = entries.iter().fold(0, |acc, e| (acc + e.value) % m);
        intel.planned_tuned_votes = (intel.planned_tuned_votes + total) % m;
        self.core.intents = self.core.pool().insert_list(entries);
        self.declared = true;
    }

    /// Record a harvested intention list into the shared blackboard.
    fn harvest(&mut self, owner: AgentId, list: ListId) {
        if self.coalition.contains(owner) {
            return; // our own plans are tracked separately
        }
        let m = self.core.params.m;
        let leader = self.coalition.leader;
        let mut intel = self.coalition.intel();
        if intel.learned_intents.iter().any(|(o, _)| *o == owner) {
            return; // already harvested — avoid double counting
        }
        let contribution: u64 = self
            .core
            .pool()
            .list(list)
            .iter()
            .filter(|e| e.target == leader)
            .fold(0, |acc, e| (acc + e.value) % m);
        intel.known_sum_for_leader = (intel.known_sum_for_leader + contribution) % m;
        intel.coverage += 1;
        intel.learned_intents.push((owner, list));
    }

    /// Next spy target: sweep all non-member ids round-robin, starting
    /// from a per-agent offset so members cover different ranges.
    fn next_spy_target(&mut self, n: usize) -> AgentId {
        loop {
            let idx =
                (self.core.id as usize + 1 + self.spy_cursor * 131) % n;
            self.spy_cursor += 1;
            let candidate = idx as AgentId;
            if !self.coalition.contains(candidate) || self.spy_cursor > 4 * n {
                return candidate;
            }
        }
    }
}

impl Agent<Msg> for SpyAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        match self.core.phase(ctx.round) {
            Phase::Commitment => {
                // Spy instead of sampling uniformly. (Both are legal pull
                // patterns; honest agents cannot tell.)
                let target = self.next_spy_target(ctx.n());
                Some(Op::pull(target, Msg::QIntent))
            }
            Phase::Voting => {
                self.finalize_intents(); // bind at the latest possible moment
                self.core.act_honest(ctx)
            }
            // From Find-Min on: fully honest (the attack is already done).
            _ => self.core.act_honest(ctx),
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        if matches!(query, Msg::QIntent) {
            // A pull binds us: finalize now, then answer consistently.
            self.finalize_intents();
        }
        self.core.on_pull_honest(from, query, ctx)
    }

    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        self.core.on_push_honest(from, msg, ctx)
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        if self.core.phase(ctx.round) == Phase::Commitment {
            if let Some(Msg::Intents { list, .. }) = reply {
                if self.core.pool().plausible(list) {
                    self.harvest(from, list);
                }
            }
            // Also keep the honest ledger (deviators verify too — they
            // prefer a consensus they might win over a failure).
            self.core.on_reply_honest(from, reply, ctx);
        } else {
            self.core.on_reply_honest(from, reply, ctx);
        }
    }

    fn finalize(&mut self, _ctx: &RoundCtx) {
        self.core.finalize_honest();
    }
}

impl ConsensusAgent for SpyAgent {
    fn core(&self) -> &ProtocolCore {
        &self.core
    }
    fn role(&self) -> Role {
        Role::Deviator("spy-tune")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::new_coalition;
    use gossip_net::rng::DetRng;
    use gossip_net::topology::Topology;
    use crate::params::Params;

    fn mk_spy(id: AgentId, members: Vec<AgentId>) -> SpyAgent {
        let params = Params::new(32, 2.0);
        let core = ProtocolCore::new_on(
            &Topology::complete(params.n),
            id,
            params,
            params.sync_schedule(),
            1,
            DetRng::seeded(5, id as u64),
        );
        SpyAgent {
            core,
            coalition: new_coalition(members, 1),
            declared: false,
            spy_cursor: 0,
        }
    }

    #[test]
    fn tuned_intents_sum_to_minus_known(
    ) {
        let mut spy = mk_spy(3, vec![3, 8]);
        spy.coalition.intel().known_sum_for_leader = 1000;
        spy.finalize_intents();
        let m = spy.core.params.m;
        let own: u64 = spy
            .core
            .intent_list()
            .iter()
            .fold(0, |a, e| (a + e.value) % m);
        assert_eq!((1000 + own) % m, 0, "known + own ≡ 0 (mod m)");
        assert!(spy.core.intent_list().iter().all(|e| e.target == 3));
    }

    #[test]
    fn two_members_tune_jointly() {
        let coalition = new_coalition(vec![3, 8], 1);
        let params = Params::new(32, 2.0);
        let mk = |id: AgentId| SpyAgent {
            core: ProtocolCore::new_on(
                &Topology::complete(params.n),
                id,
                params,
                params.sync_schedule(),
                1,
                DetRng::seeded(5, id as u64),
            ),
            coalition: Coalition::clone(&coalition),
            declared: false,
            spy_cursor: 0,
        };
        let mut a = mk(3);
        let mut b = mk(8);
        coalition.intel().known_sum_for_leader = 777;
        a.finalize_intents();
        b.finalize_intents();
        let m = params.m;
        let sum_a: u64 = a
            .core
            .intent_list()
            .iter()
            .fold(0, |x, e| (x + e.value) % m);
        let sum_b: u64 = b
            .core
            .intent_list()
            .iter()
            .fold(0, |x, e| (x + e.value) % m);
        assert_eq!((777 + sum_a + sum_b) % m, 0, "joint tuning nets to zero");
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut spy = mk_spy(3, vec![3]);
        spy.finalize_intents();
        let first: Vec<_> = spy.core.intent_list().to_vec();
        spy.finalize_intents();
        assert_eq!(first, spy.core.intent_list().to_vec());
    }

    #[test]
    fn harvest_ignores_members_and_duplicates() {
        let mut spy = mk_spy(3, vec![3, 8]);
        let list = spy.core.pool().insert_list(vec![
            IntentEntry {
                value: 10,
                target: 3
            };
            spy.core.params.q
        ]);
        spy.harvest(8, list); // member: ignored
        assert_eq!(spy.coalition.intel().coverage, 0);
        spy.harvest(5, list);
        assert_eq!(spy.coalition.intel().coverage, 1);
        let expected = (10 * spy.core.params.q as u64) % spy.core.params.m;
        assert_eq!(
            spy.coalition.intel().known_sum_for_leader,
            expected
        );
        spy.harvest(5, list); // duplicate: ignored
        assert_eq!(spy.coalition.intel().coverage, 1);
    }

    #[test]
    fn spy_targets_avoid_members() {
        let mut spy = mk_spy(3, vec![3, 8]);
        for _ in 0..50 {
            let t = spy.next_spy_target(32);
            assert_ne!(t, 8, "should not waste pulls on fellow members");
        }
    }

    #[test]
    fn full_knowledge_pins_k_to_zero() {
        // If the coalition harvests EVERY honest vote for the leader, the
        // tuned sum makes k_leader = 0 — demonstrating what Lemma 6(3)
        // must (and does) prevent at scale.
        let mut spy = mk_spy(3, vec![3]);
        let m = spy.core.params.m;
        // Simulate total knowledge: honest votes for leader sum to 5555.
        spy.coalition.intel().known_sum_for_leader = 5555;
        spy.finalize_intents();
        let own: u64 = spy
            .core
            .intent_list()
            .iter()
            .fold(0, |a, e| (a + e.value) % m);
        assert_eq!((5555 + own) % m, 0);
    }
}
