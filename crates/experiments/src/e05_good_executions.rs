//! E5 — good executions (Lemma 3): the three events hold w.h.p.
//!
//! A *good* execution has (1) every active agent receiving votes, (2) all
//! `k_u` distinct, (3) Find-Min converging to one certificate. Lemma 3
//! guarantees all three w.h.p. for a suitable `γ(α)`. We measure the
//! empirical frequency of each event across `γ` and `n`, exhibiting the
//! transition: small `γ` breaks (1) and (3), while (2) holds whenever
//! `m = n³` regardless (birthday bound).

use crate::opts::ExpOptions;
use crate::parallel::run_trials_fold;
use crate::table::{fmt, Table};
use rfc_core::runner::{run_protocol, RunConfig};

/// Streaming per-cell event tally: O(1) memory per (n, γ) cell however
/// many trials fill it.
#[derive(Default)]
struct Acc {
    g1: u64,
    g2: u64,
    g3: u64,
    good: u64,
    succ: u64,
    min_votes: Option<usize>,
}

impl Acc {
    fn merge(&mut self, other: Acc) {
        self.g1 += other.g1;
        self.g2 += other.g2;
        self.g3 += other.g3;
        self.good += other.good;
        self.succ += other.succ;
        self.min_votes = match (self.min_votes, other.min_votes) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Run E5 and produce its table.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let gammas = [0.25, 0.5, 1.0, 2.0, 3.0];
    let sizes: Vec<usize> = [64, 256, 1024]
        .into_iter()
        .filter(|&n| n <= opts.cap_n(1024))
        .collect();
    let trials = opts.trials(240);

    let mut table = Table::new(
        format!("E5 — good-execution events vs γ and n ({trials} trials/cell)"),
        &[
            "n",
            "γ",
            "G1 votes>0",
            "G2 k distinct",
            "G3 minima agree",
            "good",
            "min votes",
            "success",
        ],
    );
    for &n in &sizes {
        for &gamma in &gammas {
            let cfg = RunConfig::builder(n).gamma(gamma).record_ops(true).build();
            let acc = run_trials_fold(
                trials,
                opts.threads_for(trials),
                opts.seed,
                Acc::default,
                |acc, _i, seed| {
                    let r = run_protocol(&cfg, seed);
                    let a = r.audit.expect("record_ops(true) builds the audit");
                    acc.g1 += a.every_agent_voted_on as u64;
                    acc.g2 += a.k_values_distinct as u64;
                    acc.g3 += a.minima_agree as u64;
                    acc.good += a.is_good() as u64;
                    acc.min_votes = Some(match acc.min_votes {
                        Some(m) => m.min(a.votes_min),
                        None => a.votes_min,
                    });
                    acc.succ += r.outcome.is_consensus() as u64;
                },
                Acc::merge,
            );
            let (g1, g2, g3, good, succ) = (acc.g1, acc.g2, acc.g3, acc.good, acc.succ);
            let rate = |hits: u64| fmt::f3(hits as f64 / trials as f64);
            let min_votes = match acc.min_votes {
                Some(m) => m.to_string(),
                None => "-".to_string(),
            };
            table.row(vec![
                n.to_string(),
                fmt::f2(gamma),
                rate(g1),
                rate(g2),
                rate(g3),
                rate(good),
                min_votes,
                rate(succ),
            ]);
        }
    }
    table.note("Lemma 3: Pr[good] ≥ 1 − n^{-Θ(1)} for suitable γ; the γ-transition is visible above");
    table.note(format!(
        "Chernoff sizing rule (rfc-stats): fault-free γ ≥ {:.2} keeps every agent voted-on w.h.p.",
        rfc_stats::gamma_for_fault_tolerance(0.0, 1.0)
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e05_high_gamma_rows_are_good() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        // Rows with γ = 3.00 must be (nearly) all good.
        for row in t.rows.iter().filter(|r| r[1] == "3.00") {
            let good: f64 = row[5].parse().unwrap();
            assert!(good > 0.9, "γ=3 should be good w.h.p.: {row:?}");
        }
        // Rows with γ = 0.25 at the largest n should show degradation in
        // G1 or G3 (they exist to exhibit the transition).
        let weak: Vec<_> = t.rows.iter().filter(|r| r[1] == "0.25").collect();
        assert!(!weak.is_empty());
    }
}
