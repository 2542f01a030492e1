//! The equilibrium test harness: honest arm vs. deviating arm.
//!
//! For a given attack specification, the harness runs paired trials —
//! identical `(config, seed)` with every agent honest, and with the
//! coalition replaced by the strategy's agents — and compares:
//!
//! * the coalition's *color* win rate against its fair share
//!   `N(A, c_C)/|A|` (Theorem 4 / fairness),
//! * the rate at which the Winner is a coalition member against
//!   `|C|/|A|` (Claim 4),
//! * the per-member expected utility under the paper's payoff scheme
//!   (Definition 1's inequality: some member must not gain).
//!
//! Pairing trials by seed makes the comparison a within-pair contrast, so
//! far fewer trials are needed to resolve utility deltas.
//!
//! Dynamic adversity composes: a [`RunConfig`] carrying a
//! `ScenarioScript` or `LossSchedule` (see `rfc_core::ScenarioScript`)
//! flows through [`run_equilibrium_with`] unchanged, so both arms of
//! every pair face the *same* scripted churn/partition/loss timeline —
//! the deviation's profitability is measured under identical dynamic
//! conditions (pinned by `equilibrium_composes_with_dynamic_scenarios`).

use crate::coalition::{new_coalition, select_members, Coalition, CoalitionSelection};
use crate::strategies::Strategy;
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::rng::derive_seed;
use rfc_core::agent_plane::AgentSlot;
use rfc_core::engine::ProtocolCore;
use rfc_core::outcome::{utility, Outcome};
use rfc_core::runner::{RunConfig, RunReport, TrialArena};
use rfc_core::Params;
use rfc_stats::ci::{wilson95, Interval};

/// The coalition's color in harness-generated configurations.
pub const COALITION_COLOR: ColorId = 1;

/// Specification of one equilibrium experiment.
#[derive(Debug)]
pub struct AttackSpec<'a> {
    /// The deviation strategy under test.
    pub strategy: &'a dyn Strategy,
    /// Coalition size `t`.
    pub t: usize,
    /// How members are chosen from `[n]`.
    pub selection: CoalitionSelection,
    /// Failure penalty `χ ≥ 0` in the utility model.
    pub chi: f64,
}

/// Aggregated statistics for one arm (honest or deviating).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArmStats {
    /// Trials executed.
    pub trials: u64,
    /// Runs reaching consensus.
    pub consensus: u64,
    /// Runs failing (`⊥`).
    pub fails: u64,
    /// Runs won by the coalition color.
    pub coalition_color_wins: u64,
    /// Runs whose Winner (certificate owner) is a coalition member.
    pub winner_in_coalition: u64,
    /// Sum of per-trial member utility (members share the coalition
    /// color, so utilities coincide).
    utility_sum: f64,
}

impl ArmStats {
    /// Fold one run into the arm (utility uses the coalition color).
    pub fn record(&mut self, report: &RunReport, coalition: &[AgentId], chi: f64) {
        self.trials += 1;
        match report.outcome {
            Outcome::Consensus(c) => {
                self.consensus += 1;
                if c == COALITION_COLOR {
                    self.coalition_color_wins += 1;
                }
                if let Some(w) = report.winner {
                    if coalition.binary_search(&w).is_ok() {
                        self.winner_in_coalition += 1;
                    }
                }
            }
            Outcome::Fail => self.fails += 1,
        }
        self.utility_sum += utility(report.outcome, COALITION_COLOR, chi);
    }

    /// Mean utility of a coalition member.
    pub fn mean_utility(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.utility_sum / self.trials as f64
        }
    }

    /// Wilson 95% CI on the coalition-color win rate.
    pub fn color_win_ci(&self) -> Interval {
        wilson95(self.coalition_color_wins, self.trials.max(1))
    }

    /// Wilson 95% CI on the winner-in-coalition rate.
    pub fn winner_ci(&self) -> Interval {
        wilson95(self.winner_in_coalition, self.trials.max(1))
    }

    /// Merge another arm's tallies (parallel aggregation).
    pub fn merge(&mut self, other: &ArmStats) {
        self.trials += other.trials;
        self.consensus += other.consensus;
        self.fails += other.fails;
        self.coalition_color_wins += other.coalition_color_wins;
        self.winner_in_coalition += other.winner_in_coalition;
        self.utility_sum += other.utility_sum;
    }

    /// Empirical failure rate.
    pub fn fail_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.fails as f64 / self.trials as f64
        }
    }
}

/// Outcome of one full equilibrium experiment.
#[derive(Debug, Clone)]
pub struct EquilibriumReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Network size.
    pub n: usize,
    /// Coalition size.
    pub t: usize,
    /// Trials per arm.
    pub trials: u64,
    /// Fair benchmark `t/n` (= `|C|/|A|` with no faults).
    pub fair_share: f64,
    /// All-honest control arm.
    pub honest: ArmStats,
    /// Deviating arm.
    pub deviating: ArmStats,
}

impl EquilibriumReport {
    /// Per-member expected-utility gain from deviating (the quantity
    /// Theorem 7 proves cannot be positive for every member; with a
    /// shared coalition color it is one number).
    pub fn utility_delta(&self) -> f64 {
        self.deviating.mean_utility() - self.honest.mean_utility()
    }

    /// Does the measurement refute profitability? True when the deviating
    /// win rate is **not** significantly above the honest one (CI
    /// overlap test at 95%).
    pub fn no_significant_gain(&self) -> bool {
        self.deviating.color_win_ci().lo <= self.honest.color_win_ci().hi
    }
}

/// Build the explicit color vector: coalition members support
/// [`COALITION_COLOR`], everyone else color 0.
pub fn coalition_colors(n: usize, members: &[AgentId]) -> Vec<ColorId> {
    let mut colors = vec![0 as ColorId; n];
    for &m in members {
        colors[m as usize] = COALITION_COLOR;
    }
    colors
}

/// Run a single deviating trial: coalition members run the strategy,
/// everyone else is honest. Builds a fresh network; Monte-Carlo loops
/// should prefer [`run_attack_trial_in`] with a per-worker arena.
pub fn run_attack_trial(
    cfg: &RunConfig,
    strategy: &dyn Strategy,
    members: &[AgentId],
    seed: u64,
) -> RunReport {
    run_attack_trial_in(&mut TrialArena::new(), cfg, strategy, members, seed)
}

/// [`run_attack_trial`] into a reusable [`TrialArena`]: the deviating
/// agents land in their dedicated [`AgentSlot`] variants, so attack
/// trials ride the same jump-table dispatch and recycled allocations as
/// honest ones. Same `(cfg, seed)` ⇒ bit-identical report either way.
pub fn run_attack_trial_in(
    arena: &mut TrialArena,
    cfg: &RunConfig,
    strategy: &dyn Strategy,
    members: &[AgentId],
    seed: u64,
) -> RunReport {
    // Coalition agents share mutable intel, so their handler
    // interleaving is observable — the sharded engine's determinism
    // argument (handlers touch only their own agent) does not cover
    // them. Attack trials therefore always run on the sequential
    // engine, whatever the incoming config says; this also keeps the
    // paired honest arm comparable (same engine, same loss discipline).
    let cfg = &RunConfig {
        threads: 1,
        rng_discipline: gossip_net::rng::RngDiscipline::Sequential,
        ..cfg.clone()
    };
    let member_set: Vec<AgentId> = members.to_vec();
    let coalition: Coalition = new_coalition(member_set.clone(), COALITION_COLOR);
    let mut factory = |id: AgentId,
                       params: Params,
                       color: ColorId,
                       rng,
                       topo: &gossip_net::topology::Topology| {
        let core = ProtocolCore::new_on(topo, id, params, params.sync_schedule(), color, rng);
        if member_set.binary_search(&id).is_ok() {
            strategy.build(core, Coalition::clone(&coalition))
        } else {
            AgentSlot::honest(core)
        }
    };
    arena.run_with(cfg, seed, &mut factory)
}

/// Run the full paired experiment: `trials` seeds through both arms.
pub fn run_equilibrium(
    n: usize,
    gamma: f64,
    spec: &AttackSpec,
    trials: u64,
    master_seed: u64,
) -> EquilibriumReport {
    run_equilibrium_with(
        RunConfig::builder(n).gamma(gamma),
        spec,
        trials,
        master_seed,
    )
}

/// Like [`run_equilibrium`] but over a caller-prepared config builder
/// (to add faults, ablations, …). The color spec is overwritten with the
/// coalition assignment: members, drawn from `master_seed`, support
/// [`COALITION_COLOR`]. Trial `i` runs both arms on the seed
/// `derive_seed(master_seed, i)`.
pub fn run_equilibrium_with(
    builder: rfc_core::runner::RunConfigBuilder,
    spec: &AttackSpec,
    trials: u64,
    master_seed: u64,
) -> EquilibriumReport {
    let mut cfg = builder.build();
    let n = cfg.n;
    let members = select_members(n, spec.t, spec.selection, master_seed);
    cfg.colors = rfc_core::runner::ColorSpec::Explicit(coalition_colors(n, &members));
    // Both arms on the sequential engine (the attack arm is forced
    // there anyway — see `run_attack_trial_in`): the paired comparison
    // needs one loss discipline across honest and deviating runs.
    cfg.threads = 1;
    cfg.rng_discipline = gossip_net::rng::RngDiscipline::Sequential;
    let mut honest = ArmStats::default();
    let mut deviating = ArmStats::default();
    // One arena serves both arms of every paired trial: honest and
    // deviating runs alternate through the same recycled network.
    let mut arena = TrialArena::new();
    for i in 0..trials {
        let seed = derive_seed(master_seed, i);
        let h = arena.run_protocol(&cfg, seed);
        honest.record(&h, &members, spec.chi);
        let d = run_attack_trial_in(&mut arena, &cfg, spec.strategy, &members, seed);
        deviating.record(&d, &members, spec.chi);
    }
    EquilibriumReport {
        strategy: spec.strategy.name(),
        n,
        t: spec.t,
        trials,
        fair_share: spec.t as f64 / n as f64,
        honest,
        deviating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::forge_cert::ForgeCert;
    use crate::strategies::vote_rig::VoteRig;

    #[test]
    fn attack_trials_are_pinned_to_the_sequential_engine() {
        // Coalition agents share mutable intel, so sharded execution
        // would make their runs scheduler-dependent. The harness must
        // ignore any sharded spelling in the incoming config: same
        // (cfg, seed) ⇒ the exact sequential report, however the caller
        // set threads/discipline.
        let members = [0, 1, 2, 3];
        let colors = coalition_colors(16, &members);
        let base = RunConfig::builder(16)
            .gamma(3.0)
            .explicit_colors(colors)
            .message_loss(0.1);
        let key = |r: &RunReport| {
            format!("{:?}|{:?}|{:?}|{:?}", r.outcome, r.winner, r.decisions, r.metrics)
        };
        let mut arena = TrialArena::new();
        let sequential = key(&run_attack_trial_in(
            &mut arena,
            &base.clone().build(),
            &ForgeCert::zero_k(),
            &members,
            9,
        ));
        for sharded_cfg in [base.clone().sharded(4).build(), base.clone().threads(0).build()] {
            let got = key(&run_attack_trial_in(
                &mut arena,
                &sharded_cfg,
                &ForgeCert::zero_k(),
                &members,
                9,
            ));
            assert_eq!(got, sequential, "harness must force the sequential engine");
        }
    }

    #[test]
    fn honest_arm_wins_fair_share() {
        let spec = AttackSpec {
            strategy: &VoteRig,
            t: 8,
            selection: CoalitionSelection::Random,
            chi: 1.0,
        };
        let rep = run_equilibrium(32, 3.0, &spec, 60, 0xFA1);
        // Fair share = 8/32 = 0.25; the honest arm must be near it.
        assert!(
            rep.honest.color_win_ci().contains(rep.fair_share),
            "honest win rate CI {:?} should contain {}",
            rep.honest.color_win_ci(),
            rep.fair_share
        );
        assert_eq!(rep.honest.fails, 0, "honest runs never fail");
    }

    #[test]
    fn vote_rig_is_neutral() {
        let spec = AttackSpec {
            strategy: &VoteRig,
            t: 8,
            selection: CoalitionSelection::Random,
            chi: 1.0,
        };
        let rep = run_equilibrium(32, 3.0, &spec, 60, 0xFA2);
        assert!(rep.no_significant_gain());
        assert_eq!(rep.deviating.fails, 0, "vote-rig cannot cause failure");
    }

    #[test]
    fn forge_attacks_fail_not_win() {
        for strategy in [
            ForgeCert::zero_k(),
            ForgeCert::tuned_vote(),
            ForgeCert::drop_votes(),
        ] {
            let spec = AttackSpec {
                strategy: &strategy,
                t: 4,
                selection: CoalitionSelection::Random,
                chi: 1.0,
            };
            let rep = run_equilibrium(32, 3.0, &spec, 30, 0xFA3);
            assert!(
                rep.no_significant_gain(),
                "{}: gained significantly",
                strategy.name()
            );
            assert!(
                rep.deviating.fail_rate() > 0.5,
                "{}: forgery should usually fail the run (rate {})",
                strategy.name(),
                rep.deviating.fail_rate()
            );
            assert!(
                rep.utility_delta() < 0.0,
                "{}: deviation must cost utility at χ=1",
                strategy.name()
            );
        }
    }

    #[test]
    fn equilibrium_composes_with_dynamic_scenarios() {
        // Phase-boundary churn of non-coalition agents: the paired
        // harness must thread the script through both arms. Crashing at
        // a phase boundary is tolerated quiescence (E15a), so the honest
        // arm keeps its fair-share behavior over the survivor set.
        let n = 32;
        let q = rfc_core::RunConfig::builder(n).gamma(3.0).build().params().q;
        let script = rfc_core::ScenarioScript::new().crash(2 * q, vec![28, 29, 30, 31]);
        let spec = AttackSpec {
            strategy: &VoteRig,
            t: 8,
            selection: CoalitionSelection::LowIds,
            chi: 1.0,
        };
        let builder = rfc_core::RunConfig::builder(n).gamma(3.0).scenario(script);
        let rep = run_equilibrium_with(builder, &spec, 40, 0xD1A);
        assert_eq!(rep.honest.trials, 40);
        assert!(
            rep.honest.consensus >= 30,
            "boundary churn must leave the honest arm mostly succeeding: {:?}",
            rep.honest
        );
        assert!(rep.no_significant_gain(), "vote-rig must stay unprofitable under churn");
    }

    #[test]
    fn coalition_colors_mark_members() {
        let colors = coalition_colors(6, &[1, 4]);
        assert_eq!(colors, vec![0, 1, 0, 0, 1, 0]);
    }
}
