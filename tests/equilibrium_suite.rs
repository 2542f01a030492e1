//! Integration tests for the rational-agent claims (Theorem 7 and its
//! Claims 1–4): the whole attack suite at several coalition sizes.

use rational_fair_consensus::adversary::prelude::*;
use rational_fair_consensus::adversary::harness::run_equilibrium;
use rational_fair_consensus::adversary::strategies::{
    forge_cert::ForgeCert, play_dead::PlayDead, spite_abort::SpiteAbort, spy_tune::SpyAndTune,
    vote_rig::VoteRig,
};
use rational_fair_consensus::rfc_core::Outcome;

const N: usize = 48;
const TRIALS: u64 = 60;

fn spec<'a>(strategy: &'a dyn Strategy, t: usize) -> AttackSpec<'a> {
    AttackSpec {
        strategy,
        t,
        selection: CoalitionSelection::Random,
        chi: 1.0,
    }
}

#[test]
fn no_attack_in_the_suite_gains() {
    for strategy in standard_attacks() {
        for t in [1usize, 6] {
            let rep = run_equilibrium(N, 3.0, &spec(strategy.as_ref(), t), TRIALS, 0xE7);
            assert!(
                rep.no_significant_gain(),
                "{} at t={t}: honest {:?} vs deviating {:?}",
                strategy.name(),
                rep.honest.color_win_ci(),
                rep.deviating.color_win_ci()
            );
        }
    }
}

#[test]
fn forgeries_reliably_burn_the_run() {
    // Claim 1 mechanics: a forged minimum that is not the legitimate
    // winner forces failure (never an illegitimate win).
    for strategy in [ForgeCert::zero_k(), ForgeCert::tuned_vote(), ForgeCert::drop_votes()] {
        let rep = run_equilibrium(N, 3.0, &spec(&strategy, 4), TRIALS, 0xE8);
        assert!(
            rep.deviating.fail_rate() > 0.8,
            "{}: fail rate only {}",
            strategy.name(),
            rep.deviating.fail_rate()
        );
        assert!(
            rep.utility_delta() < -0.5,
            "{}: forging must be strongly negative at χ=1 (Δ={})",
            strategy.name(),
            rep.utility_delta()
        );
    }
}

#[test]
fn undetectable_strategies_are_neutral_not_harmful() {
    // Claim 2 mechanics: vote-rig and spy-tune cannot shift k's
    // distribution; they must neither gain nor cause failures.
    for (name, rep) in [
        ("vote-rig", run_equilibrium(N, 3.0, &spec(&VoteRig, 6), TRIALS, 0xE9)),
        ("spy-tune", run_equilibrium(N, 3.0, &spec(&SpyAndTune, 6), TRIALS, 0xEA)),
    ] {
        assert!(
            rep.deviating.fail_rate() < 0.1,
            "{name} should not cause failures: {}",
            rep.deviating.fail_rate()
        );
        assert!(rep.no_significant_gain(), "{name} gained");
    }
}

#[test]
fn spite_abort_trades_losses_for_failures() {
    let rep = run_equilibrium(N, 3.0, &spec(&SpiteAbort, 4), TRIALS, 0xEB);
    // Fail rate ≈ honest losing rate (1 − fair share); utility delta ≤ 0.
    assert!(
        rep.deviating.fail_rate() > 0.5,
        "spite should burn most losing runs: {}",
        rep.deviating.fail_rate()
    );
    assert!(
        rep.utility_delta() <= 0.05,
        "spite cannot profit: Δ = {}",
        rep.utility_delta()
    );
    // Conditional on not failing, the coalition still wins ≈ fair share —
    // spite does not convert losses into wins.
    let win_given_done = rep.deviating.coalition_color_wins as f64
        / rep.deviating.consensus.max(1) as f64;
    assert!(
        win_given_done > 0.5,
        "surviving runs should mostly be coalition wins by construction: {win_given_done}"
    );
}

#[test]
fn play_dead_voting_triggers_verification_failures() {
    // The §1 deviation: pretending to be faulty while voting gets caught
    // whenever a "dead" agent's vote lands in the winner's certificate.
    let rep = run_equilibrium(N, 3.0, &spec(&PlayDead::voting(), 8), 100, 0xEC);
    assert!(
        rep.deviating.fails > 0,
        "with 8 dead-voters some run must catch a ghost vote"
    );
    assert!(rep.no_significant_gain());
}

#[test]
fn play_dead_silent_is_harmless() {
    let rep = run_equilibrium(N, 3.0, &spec(&PlayDead::silent(), 4), TRIALS, 0xED);
    assert!(
        rep.deviating.fail_rate() < 0.1,
        "a perfect crash cannot fail the run: {}",
        rep.deviating.fail_rate()
    );
    assert!(rep.no_significant_gain());
}

#[test]
fn claim4_winner_in_coalition_bounded_by_fair_share() {
    // Pr(Winner ∈ C) ≤ |C|/|A| across the suite (non-failing runs).
    for strategy in standard_attacks() {
        let t = 6;
        let rep = run_equilibrium(N, 3.0, &spec(strategy.as_ref(), t), TRIALS, 0xEE);
        let ci = rep.deviating.winner_ci();
        assert!(
            ci.lo <= t as f64 / N as f64 + 0.05,
            "{}: winner-in-coalition CI {:?} exceeds fair share",
            strategy.name(),
            ci
        );
    }
}

#[test]
fn solo_deviator_cannot_beat_fair_share() {
    // t = 1 is the pure Nash-deviation case.
    for strategy in [
        Box::new(ForgeCert::tuned_vote()) as Box<dyn Strategy>,
        Box::new(SpyAndTune),
        Box::new(VoteRig),
    ] {
        let rep = run_equilibrium(N, 3.0, &spec(strategy.as_ref(), 1), 100, 0xEF);
        assert!(
            rep.no_significant_gain(),
            "{} gains as a solo deviator",
            strategy.name()
        );
    }
}

#[test]
fn attack_trials_report_outcomes_for_all_agents() {
    use rational_fair_consensus::adversary::harness::{coalition_colors, run_attack_trial};
    use rational_fair_consensus::rfc_core::{ColorSpec, RunConfig};
    let members = vec![3u32, 9];
    let mut cfg = RunConfig::builder(N).gamma(3.0).build();
    cfg.colors = ColorSpec::Explicit(coalition_colors(N, &members));
    let strategy = ForgeCert::drop_votes();
    let report = run_attack_trial(&cfg, &strategy, &members, 1);
    assert_eq!(report.decisions.len(), N);
    assert_eq!(report.outcome, Outcome::Fail, "drop-votes should fail the run");
}

mod paired_trials {
    //! `run_equilibrium_with` runs both arms of every paired trial
    //! through one recycled `TrialArena`. These tests rebuild its sweep
    //! from fresh single runs — trial `i` plays both arms on
    //! `derive_seed(master_seed, i)` — so state one run leaves in the
    //! arena cannot leak into the next without a test noticing.

    use super::*;
    use rational_fair_consensus::adversary::harness::{coalition_colors, run_equilibrium_with};
    use rational_fair_consensus::gossip_net::rng::{derive_seed, RngDiscipline};
    use rational_fair_consensus::rfc_core::{run_protocol, ColorSpec, RunConfig, RunConfigBuilder};
    use std::ops::Range;

    const MASTER_SEED: u64 = 0xA11CE;
    const TRIALS: u64 = 12;

    fn builder() -> RunConfigBuilder {
        RunConfig::builder(24).gamma(3.0).message_loss(0.1)
    }

    fn paired_spec(strategy: &dyn Strategy) -> AttackSpec<'_> {
        AttackSpec {
            strategy,
            t: 4,
            selection: CoalitionSelection::Spread,
            chi: 1.0,
        }
    }

    /// The honest and deviating arms of `trials`, each run on a fresh
    /// network.
    fn fresh_arms(spec: &AttackSpec, trials: Range<u64>) -> (ArmStats, ArmStats) {
        let mut cfg = builder().build();
        let members = select_members(cfg.n, spec.t, spec.selection, MASTER_SEED);
        cfg.colors = ColorSpec::Explicit(coalition_colors(cfg.n, &members));
        cfg.threads = 1;
        cfg.rng_discipline = RngDiscipline::Sequential;
        let mut honest = ArmStats::default();
        let mut deviating = ArmStats::default();
        for i in trials {
            let seed = derive_seed(MASTER_SEED, i);
            honest.record(&run_protocol(&cfg, seed), &members, spec.chi);
            let attack = run_attack_trial(&cfg, spec.strategy, &members, seed);
            deviating.record(&attack, &members, spec.chi);
        }
        (honest, deviating)
    }

    #[test]
    fn honest_arm_replays_as_fresh_runs() {
        let strategy = VoteRig;
        let spec = paired_spec(&strategy);
        let rep = run_equilibrium_with(builder(), &spec, TRIALS, MASTER_SEED);
        assert_eq!(rep.honest.trials, TRIALS);
        assert_eq!(rep.honest, fresh_arms(&spec, 0..TRIALS).0);
    }

    #[test]
    fn deviating_arm_replays_as_fresh_attack_trials() {
        for strategy in standard_attacks() {
            let spec = paired_spec(strategy.as_ref());
            let rep = run_equilibrium_with(builder(), &spec, TRIALS, MASTER_SEED);
            assert_eq!(rep.deviating.trials, TRIALS);
            assert_eq!(
                rep.deviating,
                fresh_arms(&spec, 0..TRIALS).1,
                "{}: deviating arm left its fresh replay",
                strategy.name()
            );
        }
    }

    #[test]
    fn honest_arm_does_not_depend_on_the_strategy() {
        // The arena runs each strategy's deviating agents between honest
        // runs; the honest arm must come out the same whichever it was.
        let arms: Vec<(&str, ArmStats)> = standard_attacks()
            .iter()
            .map(|s| {
                let rep =
                    run_equilibrium_with(builder(), &paired_spec(s.as_ref()), TRIALS, MASTER_SEED);
                (s.name(), rep.honest)
            })
            .collect();
        for (name, arm) in &arms[1..] {
            assert_eq!(
                arm, &arms[0].1,
                "{name}'s honest arm differs from {}'s",
                arms[0].0
            );
        }
    }

    #[test]
    fn arm_tallies_merge_across_any_split_of_the_trials() {
        // E7 folds the trials on several workers and merges their arms.
        // With χ = 1 every utility is -1, 0 or 1, so the merged float sums
        // are exact and any split must reproduce the one-pass sweep.
        let strategy = ForgeCert::zero_k();
        let spec = paired_spec(&strategy);
        let rep = run_equilibrium_with(builder(), &spec, TRIALS, MASTER_SEED);
        for k in 0..=TRIALS {
            let (mut honest, mut deviating) = fresh_arms(&spec, 0..k);
            let (tail_honest, tail_deviating) = fresh_arms(&spec, k..TRIALS);
            honest.merge(&tail_honest);
            deviating.merge(&tail_deviating);
            assert_eq!(honest, rep.honest, "honest arm diverged when split at {k}");
            assert_eq!(
                deviating, rep.deviating,
                "deviating arm diverged when split at {k}"
            );
        }
    }
}
