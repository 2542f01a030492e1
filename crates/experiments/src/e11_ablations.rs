//! E11 — ablations: every design choice pays its way.
//!
//! Three knobs are removed one at a time and the damage measured:
//!
//! * **m = n³ → small m** — `k` values collide, the minimum stops being
//!   unique, the network splits between equal-k certificates and
//!   Coherence converts the split into failure (Lemma 3(2)'s purpose).
//! * **drop Verification** — the forge-tuned-vote attack, harmless
//!   against full `P`, now wins outright: the fabricated `k = 0`
//!   certificate spreads, nobody checks `W` against the ledgers.
//! * **drop Coherence** — partial Find-Min convergence goes *undetected*:
//!   instead of a clean failure the network silently splits (measured as
//!   disagreement), which is how suppression-style censorship becomes
//!   dangerous.

use crate::opts::ExpOptions;
use crate::parallel::run_trials;
use crate::table::{fmt, Table};
use adversary::harness::{coalition_colors, run_attack_trial};
use adversary::strategies::forge_cert::ForgeCert;
use rfc_core::outcome::Outcome;
use rfc_core::runner::{run_protocol, ColorSpec, RunConfig};

/// Run E11 and produce its tables.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let n = 64;
    let gamma = 3.0;
    let trials = opts.trials(300);

    // (a) vote-space size m.
    let mut m_table = Table::new(
        format!("E11a — ablating m = n³ (n = {n}, {trials} trials)"),
        &["m", "k collisions", "success rate"],
    );
    for (label, m) in [
        ("n³ (paper)", (n as u64).pow(3)),
        ("n²", (n as u64).pow(2)),
        ("n", n as u64),
        ("8", 8u64),
    ] {
        let cfg = RunConfig::builder(n)
            .gamma(gamma)
            .m(m)
            .record_ops(true)
            .build();
        let results = run_trials(trials, opts.threads_for(trials), opts.seed, |seed| {
            let r = run_protocol(&cfg, seed);
            let audit = r.audit.expect("record_ops(true) builds the audit");
            (!audit.k_values_distinct, r.outcome.is_consensus())
        });
        let collisions = results.iter().filter(|r| r.0).count() as u64;
        let success = results.iter().filter(|r| r.1).count() as u64;
        m_table.row(vec![
            label.to_string(),
            fmt::rate_ci(collisions, trials as u64),
            fmt::rate_ci(success, trials as u64),
        ]);
    }
    m_table.note("small m ⇒ birthday collisions ⇒ non-unique minimum ⇒ split ⇒ Coherence fails the run");

    // (b) + (c): component ablations under the forge-tuned-vote attack.
    let members = vec![11u32];
    let strategy = ForgeCert::tuned_vote();
    let mut comp = Table::new(
        format!("E11b — protocol components vs the forge-tuned-vote attack (n = {n}, t = 1, {trials} trials)"),
        &["configuration", "coalition win rate", "fail rate", "honest-split rate"],
    );
    for (label, skip_verification, skip_coherence) in [
        ("full protocol P", false, false),
        ("no verification", true, false),
        ("no coherence", false, true),
        ("neither check", true, true),
    ] {
        let mut cfg = RunConfig::builder(n)
            .gamma(gamma)
            .skip_verification(skip_verification)
            .skip_coherence(skip_coherence)
            .build();
        cfg.colors = ColorSpec::Explicit(coalition_colors(n, &members));
        let results = run_trials(trials, opts.threads_for(trials), opts.seed, |seed| {
            let r = run_attack_trial(&cfg, &strategy, &members, seed);
            let split = matches!(r.outcome, Outcome::Fail)
                && r.decisions
                    .iter()
                    .filter_map(|d| match d {
                        rfc_core::Decision::Decided(c) => Some(*c),
                        _ => None,
                    })
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    > 1;
            (r.outcome, split)
        });
        let wins = results
            .iter()
            .filter(|r| r.0 == Outcome::Consensus(adversary::COALITION_COLOR))
            .count() as u64;
        let fails = results.iter().filter(|r| r.0 == Outcome::Fail).count() as u64;
        let splits = results.iter().filter(|r| r.1).count() as u64;
        comp.row(vec![
            label.to_string(),
            fmt::rate_ci(wins, trials as u64),
            fmt::f3(fails as f64 / trials as f64),
            fmt::f3(splits as f64 / trials as f64),
        ]);
    }
    comp.note("fair share for t = 1 is 1/64 ≈ 0.016; 'no verification' hands the coalition every run");
    comp.note("honest-split: active honest agents decided *different* colors (silent safety violation)");
    vec![m_table, comp]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_verification_is_load_bearing() {
        let tables = run(&ExpOptions::quick());
        let comp = &tables[1];
        let win_of = |label: &str| -> f64 {
            comp.rows
                .iter()
                .find(|r| r[0] == label)
                .unwrap_or_else(|| panic!("row {label}"))[1]
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(win_of("full protocol P") < 0.2, "P must resist the attack");
        assert!(
            win_of("no verification") > 0.8,
            "without verification the forgery must win"
        );
    }

    #[test]
    fn e11_small_m_collides() {
        let tables = run(&ExpOptions::quick());
        let m_table = &tables[0];
        let coll_m8: f64 = m_table.rows[3][1].split(' ').next().unwrap().parse().unwrap();
        assert!(coll_m8 > 0.9, "m=8 must collide almost surely");
        let coll_paper: f64 = m_table.rows[0][1].split(' ').next().unwrap().parse().unwrap();
        assert!(coll_paper < 0.05, "m=n³ must (almost) never collide");
    }
}
