//! Theorem 7 + Theorem 4 combined: the equilibrium must survive the
//! simultaneous presence of worst-case permanent faults and a rational
//! coalition (the paper proves both for any `αn` faults, `t = o(n/log n)`
//! coalition). Also sweeps coalition sizes beyond the theorem's regime to
//! probe the bound's slack.

use rational_fair_consensus::adversary::harness::run_equilibrium_with;
use rational_fair_consensus::adversary::prelude::*;
use rational_fair_consensus::adversary::strategies::{
    forge_cert::ForgeCert, spy_tune::SpyAndTune, vote_rig::VoteRig,
};
use rational_fair_consensus::gossip_net::fault::Placement;
use rational_fair_consensus::rfc_core::RunConfig;

const N: usize = 64;
const TRIALS: u64 = 50;

fn spec<'a>(strategy: &'a dyn Strategy, t: usize) -> AttackSpec<'a> {
    AttackSpec {
        strategy,
        t,
        selection: CoalitionSelection::Random,
        chi: 1.0,
    }
}

#[test]
fn coalition_plus_faults_still_no_gain() {
    // α = 0.25 faults + coalition of 6, γ sized for the faults.
    for strategy in [
        Box::new(ForgeCert::tuned_vote()) as Box<dyn Strategy>,
        Box::new(VoteRig),
        Box::new(SpyAndTune),
    ] {
        let builder = RunConfig::builder(N)
            .gamma(4.0)
            .faults(0.25, Placement::Random { seed: 3 });
        let rep = run_equilibrium_with(builder, &spec(strategy.as_ref(), 6), TRIALS, 0xFA);
        assert!(
            rep.no_significant_gain(),
            "{} gains under faults: honest {:?} vs dev {:?}",
            strategy.name(),
            rep.honest.color_win_ci(),
            rep.deviating.color_win_ci()
        );
    }
}

#[test]
fn honest_arm_with_faults_respects_active_fair_share() {
    // With random faults, the coalition's fair share is computed over the
    // active set; the honest arm must stay within CI of E[share].
    let builder = RunConfig::builder(N)
        .gamma(4.0)
        .faults(0.25, Placement::Random { seed: 3 });
    let rep = run_equilibrium_with(builder, &spec(&VoteRig, 8), 120, 0xFB);
    // Coalition members can themselves be faulted; expected active share
    // stays 8/64 in expectation. Allow the CI to do the work.
    assert!(
        rep.honest.color_win_ci().contains(8.0 / 64.0)
            || rep.honest.color_win_ci().hi >= 8.0 / 64.0 * 0.5,
        "honest fault-arm share implausible: {:?}",
        rep.honest.color_win_ci()
    );
}

#[test]
fn undetectable_strategies_track_fair_share_even_for_large_t() {
    // Beyond the theorem's o(n/log n) regime: t = n/4 and t = n/2. The
    // undetectable deviations still cannot beat the fair share — the
    // lottery stays uniform as long as ONE honest vote per candidate
    // remains unknown, which holds far beyond the proof's regime.
    for t in [N / 4, N / 2] {
        let rep = run_equilibrium(N, 3.0, &spec(&VoteRig, t), 80, 0xFC);
        let fair = t as f64 / N as f64;
        let ci = rep.deviating.color_win_ci();
        assert!(
            ci.lo <= fair + 0.12,
            "vote-rig at t={t}: win CI {ci:?} should track fair {fair}"
        );
        assert!(rep.no_significant_gain(), "vote-rig at t={t} gained");
    }
}

#[test]
fn spy_tune_breaks_the_equilibrium_at_t_theta_n() {
    // FINDING (measured by E7's tightness-probe table, "E7b" in
    // crates/experiments/src/e07_equilibrium.rs): at t = n/2 — far outside
    // the theorem's t = o(n/log n) regime — spy-and-tune WINS almost
    // every run. With Θ(n) spies, the coalition harvests every honest
    // intention list before its last member is forced to bind its own
    // declaration, so the balancing vote pins k_leader = 0 exactly: an
    // unbeatable, fully *verifiable* minimum. Lemma 6(3)'s "some honest
    // vote stays unknown" genuinely fails here, which demonstrates the
    // theorem's coalition bound is essential, not proof slack.
    let t = N / 2;
    let rep = run_equilibrium(N, 3.0, &spec(&SpyAndTune, t), 80, 0xFD);
    let ci = rep.deviating.color_win_ci();
    assert!(
        ci.lo > 0.8,
        "spy-tune at t=n/2 should break fairness: {ci:?}"
    );
    assert!(
        rep.deviating.fail_rate() < 0.05,
        "the break is undetectable (no failures): {}",
        rep.deviating.fail_rate()
    );
    // At t = n/8, still inside a comfortable margin, it must NOT break.
    let rep_small = run_equilibrium(N, 3.0, &spec(&SpyAndTune, N / 8), 80, 0xFD);
    assert!(
        rep_small.no_significant_gain(),
        "spy-tune at t=n/8 must stay fair"
    );
}

#[test]
fn forgery_under_faults_still_burns() {
    let builder = RunConfig::builder(N)
        .gamma(4.0)
        .faults(0.3, Placement::Random { seed: 9 });
    let rep = run_equilibrium_with(builder, &spec(&ForgeCert::drop_votes(), 4), TRIALS, 0xFE);
    assert!(
        rep.deviating.fail_rate() > 0.8,
        "forgery must fail even amid faults: {}",
        rep.deviating.fail_rate()
    );
}
