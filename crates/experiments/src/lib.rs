#![warn(missing_docs)]
//! # experiments — the Monte-Carlo harness regenerating every experiment
//!
//! The paper is theory-only (no empirical tables or figures), so the
//! reproduction target is its *stated analytical results*: every theorem,
//! lemma, and complexity claim maps to one experiment here (this index is
//! authoritative):
//!
//! | id | claim |
//! |----|-------|
//! | E1 | Theorem 4 — consensus in `O(log n)` rounds |
//! | E2 | Theorem 4 — messages of `O(log² n)` bits |
//! | E3 | `O(n log³ n)` total communication vs `Ω(n²)` LOCAL baselines |
//! | E4 | Fairness: `Pr[win = c] = fraction(c)` (+ unfair plurality contrast) |
//! | E5 | Lemma 3 — good executions w.h.p., the γ-transition |
//! | E6 | Theorem 4 — `αn` worst-case permanent faults, γ(α) sizing |
//! | E7 | Theorem 7 — whp t-strong equilibrium vs the 10-attack suite |
//! | E8 | Naive min-badge election is NOT an equilibrium; `P` is |
//! | E9 | Fair leader election (`c_u = u`): uniform over active agents |
//! | E10 | Find-Min = pull rumor spreading, Θ(log n) |
//! | E11 | Ablations: m = n³, Verification, Coherence all load-bearing |
//! | E12 | Extensions: other graph classes + sequential GOSSIP |
//! | E13 | Failure injection: per-message loss vs the reliable-channel assumption |
//! | E14 | Production-scale throughput sweep (n up to 10⁵, streaming fold) |
//! | E15 | Dynamic adversity: scripted churn, partitions, loss bursts |
//! | E16 | Million-agent single trials: intra-trial sharding (staged engine) |
//! | E17 | Multi-instance plane: concurrent instances multiplexed over one network |
//!
//! Every number is a deterministic function of `(experiment, master
//! seed)` regardless of thread count ([`parallel`]); results render as
//! aligned text, CSV, and JSON ([`table`]). Run them via the
//! `rfc-experiments` binary or [`run_by_id`] / [`all_experiments`].
//! (The throughput/RSS columns of E14 and E16 are the one exception:
//! they are wall-clock measurements by design — their digest/count
//! columns stay seed-deterministic.)
//!
//! ## Aggregation
//!
//! [`parallel`] runs every sweep through one streaming fold,
//! [`run_trials_fold_with_scratch`]: trials fold into mergeable
//! accumulators (see `rfc_stats::{Summary, Tally, Histogram}`) block by
//! block with O(threads) peak memory and **bit-identical** output for
//! every thread count. [`run_trials_fold`] is that fold without scratch
//! state (E1, E4, E5, E13), and [`run_trials`] collects every trial's
//! result into a `Vec` in trial order for modest sweeps that need each
//! sample. The scratch is per-worker state: E7, E14 and E15 pass
//! `rfc_core::TrialArena::new`, so each worker recycles one simulation
//! network (enum-dispatched agents, reused buffers) across all its trials
//! instead of rebuilding boxed agents per trial.

pub mod e01_rounds;
pub mod e02_message_size;
pub mod e03_communication;
pub mod e04_fairness;
pub mod e05_good_executions;
pub mod e06_fault_tolerance;
pub mod e07_equilibrium;
pub mod e08_naive_attack;
pub mod e09_leader_election;
pub mod e10_rumor;
pub mod e11_ablations;
pub mod e12_extensions;
pub mod e13_message_loss;
pub mod e14_scale;
pub mod e15_dynamics;
pub mod e16_million;
pub mod e17_instances;
pub mod opts;
pub mod parallel;
pub mod table;

pub use opts::ExpOptions;
pub use parallel::{default_threads, run_trials, run_trials_fold, run_trials_fold_with_scratch};
pub use table::Table;

/// A registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Short id, e.g. `"e04"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Entry point.
    pub run: fn(&ExpOptions) -> Vec<Table>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

/// All experiments in id order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e01",
            title: "rounds to consensus (Theorem 4)",
            run: e01_rounds::run,
        },
        Experiment {
            id: "e02",
            title: "message sizes (Theorem 4)",
            run: e02_message_size::run,
        },
        Experiment {
            id: "e03",
            title: "total communication vs LOCAL baseline",
            run: e03_communication::run,
        },
        Experiment {
            id: "e04",
            title: "fairness of the winning-color distribution",
            run: e04_fairness::run,
        },
        Experiment {
            id: "e05",
            title: "good executions (Lemma 3)",
            run: e05_good_executions::run,
        },
        Experiment {
            id: "e06",
            title: "fault tolerance (αn permanent faults)",
            run: e06_fault_tolerance::run,
        },
        Experiment {
            id: "e07",
            title: "whp t-strong equilibrium (Theorem 7)",
            run: e07_equilibrium::run,
        },
        Experiment {
            id: "e08",
            title: "naive protocol attack vs P",
            run: e08_naive_attack::run,
        },
        Experiment {
            id: "e09",
            title: "fair leader election uniformity",
            run: e09_leader_election::run,
        },
        Experiment {
            id: "e10",
            title: "pull rumor spreading (Find-Min budget)",
            run: e10_rumor::run,
        },
        Experiment {
            id: "e11",
            title: "ablations (m, Verification, Coherence)",
            run: e11_ablations::run,
        },
        Experiment {
            id: "e12",
            title: "extensions: graphs + async GOSSIP",
            run: e12_extensions::run,
        },
        Experiment {
            id: "e13",
            title: "failure injection: message loss",
            run: e13_message_loss::run,
        },
        Experiment {
            id: "e14",
            title: "production-scale throughput sweep (streaming fold)",
            run: e14_scale::run,
        },
        Experiment {
            id: "e15",
            title: "dynamic adversity: churn, partitions, loss bursts",
            run: e15_dynamics::run,
        },
        Experiment {
            id: "e16",
            title: "million-agent single trials (staged engine, shard sweep)",
            run: e16_million::run,
        },
        Experiment {
            id: "e17",
            title: "multi-instance gossip plane (throughput, priority, interference)",
            run: e17_instances::run,
        },
    ]
}

/// Run one experiment by id (`"e01"`…`"e17"`); `None` if unknown.
pub fn run_by_id(id: &str, opts: &ExpOptions) -> Option<Vec<Table>> {
    all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 17);
        for (i, e) in exps.iter().enumerate() {
            assert_eq!(e.id, format!("e{:02}", i + 1));
            assert!(!e.title.is_empty());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("e99", &ExpOptions::quick()).is_none());
    }
}
