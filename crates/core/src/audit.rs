//! Good-execution auditing (paper Definition 2).
//!
//! A *good* execution of the cooperative protocol satisfies three global
//! events, none of which any single agent can observe locally:
//!
//! 1. every active agent received `Θ(log n)` votes,
//! 2. all accumulated `k_u` values are distinct (so `k_min` is unique),
//! 3. after Find-Min every active agent holds the same minimum
//!    certificate.
//!
//! Lemma 3 proves each holds w.h.p.; experiment E5 *measures* how often
//! they hold at finite `n` as a function of `γ`. The audit inspects the
//! post-run agent states directly (the simulator is allowed the global
//! view that the agents themselves are denied).

use crate::engine::{ConsensusAgent, ProtocolCore};
use crate::msg::Msg;
use crate::payload::CertId;
use gossip_net::ids::AgentId;
use gossip_net::network::Network;

/// Measured good-execution events for one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodExecutionReport {
    /// Minimum votes received by any active agent (G1 raw data).
    pub votes_min: usize,
    /// Maximum votes received by any active agent.
    pub votes_max: usize,
    /// Mean votes received over active agents.
    pub votes_mean: f64,
    /// G1 (as used by the proofs): every active agent received ≥ 1 vote,
    /// so its `k_u` is a uniform draw no coalition controls.
    pub every_agent_voted_on: bool,
    /// G2: the `k_u` values of active agents are pairwise distinct.
    pub k_values_distinct: bool,
    /// G3: all active agents finished Find-Min with the same certificate.
    pub minima_agree: bool,
    /// Number of active agents audited.
    pub n_active: usize,
}

impl GoodExecutionReport {
    /// The conjunction of the three events of Definition 2.
    pub fn is_good(&self) -> bool {
        self.every_agent_voted_on && self.k_values_distinct && self.minima_agree
    }
}

/// Audit a finished network for the Definition-2 events.
///
/// "Active" is the survivor set — agents active **at finalization**
/// ([`Network::fault_state`]) — matching the survivor-set outcome
/// accounting of `collect_report`: an agent still crashed at the end is
/// not audited (it holds no votes by construction), one that recovered
/// is audited for whatever it managed to collect. Identical to the plan
/// view for static runs.
pub fn audit_good_execution<A: ConsensusAgent>(net: &Network<Msg, A>) -> GoodExecutionReport {
    let faults = net.fault_state();
    let mut votes_min = usize::MAX;
    let mut votes_max = 0usize;
    let mut votes_sum = 0usize;
    let mut ks: Vec<u64> = Vec::with_capacity(faults.n_active());
    let mut minimum: Option<(&ProtocolCore, CertId)> = None;
    let mut minima_agree = true;
    let mut n_active = 0usize;

    for id in 0..net.n() as AgentId {
        if faults.is_down(id) {
            continue;
        }
        n_active += 1;
        let core = net.agent(id).core();
        // `votes_received()` (monotone counter), not `votes.len()`: the
        // receipt buffer moves into `own_cert` at certificate build, so
        // its length is 0 by audit time.
        let nv = core.votes_received();
        votes_min = votes_min.min(nv);
        votes_max = votes_max.max(nv);
        votes_sum += nv;
        if let Some(k) = core.k() {
            ks.push(k);
        }
        match (minimum, core.min_cert) {
            (None, Some(ce)) => minimum = Some((core, ce)),
            (Some((first, prev)), Some(ce)) => {
                if first.pool().cert(prev) != core.pool().cert(ce) {
                    minima_agree = false;
                }
            }
            (_, None) => minima_agree = false,
        }
    }

    ks.sort_unstable();
    let k_values_distinct = ks.windows(2).all(|w| w[0] != w[1]) && ks.len() == n_active;

    GoodExecutionReport {
        votes_min: if n_active == 0 { 0 } else { votes_min },
        votes_max,
        votes_mean: if n_active == 0 {
            0.0
        } else {
            votes_sum as f64 / n_active as f64
        },
        every_agent_voted_on: n_active > 0 && votes_min >= 1,
        k_values_distinct,
        minima_agree,
        n_active,
    }
}

#[cfg(test)]
mod tests {

    use crate::runner::{run_protocol, RunConfig};
    use gossip_net::fault::Placement;

    #[test]
    fn honest_runs_are_good_at_moderate_gamma() {
        let cfg = RunConfig::builder(64)
            .gamma(3.0)
            .colors(vec![32, 32])
            .record_ops(true)
            .build();
        for seed in 0..5 {
            let report = run_protocol(&cfg, seed);
            let audit = report.audit.expect("audit requested");
            assert!(
                audit.is_good(),
                "seed {seed}: expected good execution, got {audit:?}"
            );
            assert!(audit.votes_mean > 0.0);
            assert_eq!(audit.n_active, 64);
        }
    }

    #[test]
    fn good_executions_survive_faults() {
        let cfg = RunConfig::builder(64)
            .gamma(4.0)
            .colors(vec![32, 32])
            .faults(0.3, Placement::Random { seed: 1 })
            .record_ops(true)
            .build();
        let report = run_protocol(&cfg, 11);
        let audit = report.audit.unwrap();
        assert!(audit.is_good(), "{audit:?}");
        assert_eq!(audit.n_active, 64 - 19);
    }

    #[test]
    fn audit_counts_the_survivor_set_under_churn() {
        // Regression: the audit used to consult the immutable FaultPlan,
        // so scripted-crash agents were audited as active — a round-0
        // crash (behaviorally identical to a plan fault) then reported
        // n_active = n and is_good() = false purely from churn
        // accounting. It must audit the survivor set instead.
        let cfg = RunConfig::builder(32)
            .gamma(3.0)
            .colors(vec![16, 16])
            .record_ops(true)
            .scenario(gossip_net::dynamics::ScenarioScript::new().crash(0, (24..32).collect()))
            .build();
        let report = run_protocol(&cfg, 7);
        assert!(report.outcome.is_consensus());
        assert_eq!(report.n_active, 24);
        let audit = report.audit.unwrap();
        assert_eq!(audit.n_active, 24, "audit must cover the survivor set");
        assert!(audit.is_good(), "round-0 churn ≈ plan faults: {audit:?}");
    }

    #[test]
    fn vote_counts_concentrate_around_q_times_active_fraction() {
        // Each active agent sends q votes to uniform targets, so a target
        // expects q·|A|/n votes; with no faults that is q.
        let n = 128;
        let cfg = RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![64, 64])
            .record_ops(true)
            .build();
        let q = cfg.params().q as f64;
        let report = run_protocol(&cfg, 5);
        let audit = report.audit.unwrap();
        assert!(
            (audit.votes_mean - q).abs() < 0.5,
            "mean votes {} should be ≈ q = {q}",
            audit.votes_mean
        );
    }

    #[test]
    fn tiny_m_breaks_k_distinctness() {
        // E11 preview: with m = 2 the k values collide massively.
        let cfg = RunConfig::builder(64)
            .gamma(3.0)
            .colors(vec![32, 32])
            .m(2)
            .record_ops(true)
            .build();
        let report = run_protocol(&cfg, 3);
        let audit = report.audit.unwrap();
        assert!(!audit.k_values_distinct, "m=2 must produce k collisions");
    }
}
