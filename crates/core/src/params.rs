//! Protocol parameters and the phase schedule.
//!
//! Protocol `P` is parametrized (paper, Algorithm 1) by:
//!
//! * the network size `n`, known to every agent;
//! * the per-phase round budget `q = γ·log n`, where `γ = γ(α)` grows with
//!   the fault-tolerance parameter `α` (the analysis only requires "a
//!   suitable constant"; experiments E5/E6 measure how large is enough);
//! * the vote space `[m]` with `m = n³`, which makes all accumulated `k_u`
//!   values distinct w.h.p. (paper Lemma 3, point 2 — birthday bound).
//!
//! The run consists of four communicating phases of `q` rounds each —
//! Commitment, Voting, Find-Min, Coherence — preceded by the local
//! Voting-Intention draw and followed by the local Verification step.
//! [`PhaseSchedule`] maps a global round number to a phase and yields
//! the phase windows every run walks; the
//! synchronous schedule uses `phase_len = q`, while the asynchronous
//! (sequential-GOSSIP) extension stretches each phase to `Θ(n·q)` ticks so
//! every agent gets `≥ q` activations per phase w.h.p.

use gossip_net::ids::ceil_log2;
use std::fmt;

/// The protocol's communicating phases, plus the terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Pull vote intentions from random agents (builds the ledger `L_u`).
    Commitment,
    /// Push the declared votes (builds the vote set `W_u`).
    Voting,
    /// Pull-broadcast of the minimum-`k` certificate.
    FindMin,
    /// Push the held minimum certificate; any mismatch fails the protocol.
    Coherence,
    /// All communication done; only Verification (local) remains.
    Finished,
}

impl Phase {
    /// Human-readable phase label (also the metrics phase name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Commitment => "commitment",
            Phase::Voting => "voting",
            Phase::FindMin => "find-min",
            Phase::Coherence => "coherence",
            Phase::Finished => "finished",
        }
    }

    /// The four communicating phases in execution order.
    pub const COMMUNICATING: [Phase; 4] = [
        Phase::Commitment,
        Phase::Voting,
        Phase::FindMin,
        Phase::Coherence,
    ];
}

/// Maps global round numbers to protocol phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSchedule {
    /// Rounds (sync) or ticks (async) allotted to each phase.
    pub phase_len: usize,
}

impl PhaseSchedule {
    /// The phase active at global round `round`.
    ///
    /// This is called several times per delivered message (every agent
    /// callback keys its behaviour off the phase), so it avoids the
    /// integer division a naive `round / phase_len` would pay on every
    /// call — a few predictable compares against multiples of
    /// `phase_len` cost ~1 cycle each, a division by a runtime divisor
    /// ~20+.
    #[inline]
    pub fn phase_of(&self, round: usize) -> Phase {
        let l = self.phase_len;
        if round < 2 * l {
            if round < l {
                Phase::Commitment
            } else {
                Phase::Voting
            }
        } else if round < 3 * l {
            Phase::FindMin
        } else if round < 4 * l {
            Phase::Coherence
        } else {
            Phase::Finished
        }
    }

    /// Total communicating rounds (after which Verification runs).
    #[inline]
    pub fn total_rounds(&self) -> usize {
        4 * self.phase_len
    }

    /// The communicating phases as `(label, end)` windows in execution
    /// order: phase `i` runs rounds `[i·phase_len, (i+1)·phase_len)`
    /// under its metrics label. This is the list
    /// [`crate::runner::drive_phases`] walks.
    pub fn windows(&self) -> [(&'static str, usize); 4] {
        let mut end = 0;
        Phase::COMMUNICATING.map(|phase| {
            end += self.phase_len;
            (phase.name(), end)
        })
    }
}

/// Schedule arithmetic that cannot be represented on this target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// `slack·n·q` ticks per phase (or `4·slack·n·q` total) overflow
    /// `usize` — the asynchronous run cannot be scheduled at this scale.
    TickBudgetOverflow {
        /// The requested slack multiplier.
        slack: usize,
        /// The network size.
        n: usize,
        /// The per-phase round budget.
        q: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TickBudgetOverflow { slack, n, q } => write!(
                f,
                "async tick budget slack·n·q = {slack}·{n}·{q} overflows usize on this target"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// All protocol parameters, fixed before round 0 and shared by every agent
/// (each agent knows `n` and the fault-tolerance parameter — paper §3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Number of agents `n`.
    pub n: usize,
    /// Per-phase round budget `q = max(1, ceil(γ·log₂ n))`.
    pub q: usize,
    /// Vote-space size `m` (paper: `n³`).
    pub m: u64,
    /// The constant `γ` used to derive `q`.
    pub gamma: f64,
}

impl Params {
    /// Canonical parameters for `n` agents: `q = ceil(γ·log₂ n)`, `m = n³`.
    pub fn new(n: usize, gamma: f64) -> Self {
        assert!(n >= 2, "protocol needs at least two agents");
        assert!(gamma > 0.0, "γ must be positive");
        let q = ((gamma * ceil_log2(n) as f64).ceil() as usize).max(1);
        Params {
            n,
            q,
            m: (n as u64).saturating_pow(3),
            gamma,
        }
    }

    /// Override the vote-space size `m` (E11 ablation: `m = n` produces
    /// `k` collisions and breaks the uniqueness of the minimum).
    pub fn with_m(mut self, m: u64) -> Self {
        assert!(m >= 2, "vote space must have at least two values");
        self.m = m;
        self
    }

    /// The synchronous schedule: each phase takes exactly `q` rounds.
    pub fn sync_schedule(&self) -> PhaseSchedule {
        PhaseSchedule { phase_len: self.q }
    }

    /// The asynchronous (sequential-GOSSIP) schedule: each phase is
    /// stretched to `slack · n · q` ticks so that every agent is activated
    /// at least `q` times per phase w.h.p. (activations per agent per phase
    /// are Binomial(slack·n·q, 1/n), mean `slack·q`).
    ///
    /// Panics if the tick budget overflows `usize`; fallible callers
    /// (landmark-scale sweeps, 32-bit targets where `slack·n·q` wraps
    /// well inside realistic parameters) should use
    /// [`Params::try_async_schedule`].
    pub fn async_schedule(&self, slack: usize) -> PhaseSchedule {
        match self.try_async_schedule(slack) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked form of [`Params::async_schedule`]: errors instead of
    /// silently wrapping when `slack·n·q` (or the 4-phase total the run
    /// loop iterates) does not fit in `usize`. The unchecked multiply
    /// wrapped on 32-bit targets at landmark scales — a wrapped budget
    /// truncates every phase to a sliver of its ticks and the run fails
    /// *plausibly* instead of loudly.
    pub fn try_async_schedule(&self, slack: usize) -> Result<PhaseSchedule, ScheduleError> {
        assert!(slack >= 1);
        let overflow = || ScheduleError::TickBudgetOverflow {
            slack,
            n: self.n,
            q: self.q,
        };
        let phase_len = slack
            .checked_mul(self.n)
            .and_then(|v| v.checked_mul(self.q))
            .ok_or_else(overflow)?;
        // The driver iterates all four phases back to back; the total
        // must be addressable too or the round counter itself wraps.
        phase_len.checked_mul(4).ok_or_else(overflow)?;
        Ok(PhaseSchedule { phase_len })
    }

    /// Total synchronous rounds of the four communicating phases.
    pub fn total_rounds(&self) -> usize {
        self.sync_schedule().total_rounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_scales_with_log_n() {
        let p = Params::new(1024, 2.0);
        assert_eq!(p.q, 20); // 2 * log2(1024)
        let p = Params::new(1 << 16, 1.0);
        assert_eq!(p.q, 16);
    }

    #[test]
    fn q_is_at_least_one() {
        let p = Params::new(2, 0.1);
        assert!(p.q >= 1);
    }

    #[test]
    fn m_is_n_cubed() {
        let p = Params::new(100, 1.0);
        assert_eq!(p.m, 1_000_000);
    }

    #[test]
    fn m_saturates_instead_of_overflowing() {
        let p = Params::new(u32::MAX as usize, 1.0);
        assert_eq!(p.m, u64::MAX); // saturating_pow
    }

    #[test]
    fn phase_of_partitions_rounds() {
        let p = Params::new(64, 1.0); // q = 6
        let s = p.sync_schedule();
        assert_eq!(s.phase_of(0), Phase::Commitment);
        assert_eq!(s.phase_of(5), Phase::Commitment);
        assert_eq!(s.phase_of(6), Phase::Voting);
        assert_eq!(s.phase_of(12), Phase::FindMin);
        assert_eq!(s.phase_of(18), Phase::Coherence);
        assert_eq!(s.phase_of(23), Phase::Coherence);
        assert_eq!(s.phase_of(24), Phase::Finished);
        assert_eq!(s.phase_of(1000), Phase::Finished);
    }

    #[test]
    fn windows_tile_the_schedule() {
        let s = Params::new(256, 1.5).sync_schedule();
        let mut lo = 0;
        for ((label, end), ph) in s.windows().into_iter().zip(Phase::COMMUNICATING) {
            assert_eq!(label, ph.name());
            assert_eq!(end - lo, s.phase_len);
            assert_eq!(s.phase_of(lo), ph);
            assert_eq!(s.phase_of(end - 1), ph);
            lo = end;
        }
        assert_eq!(lo, s.total_rounds());
        assert_eq!(s.phase_of(lo), Phase::Finished);
    }

    #[test]
    fn async_schedule_stretches_phases() {
        let p = Params::new(64, 1.0);
        let s = p.async_schedule(2);
        assert_eq!(s.phase_len, 2 * 64 * p.q);
        assert_eq!(s.phase_of(0), Phase::Commitment);
        assert_eq!(s.phase_of(2 * 64 * p.q), Phase::Voting);
    }

    #[test]
    fn builder_overrides() {
        let p = Params::new(64, 1.0).with_m(64);
        assert_eq!(p.m, 64);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn rejects_tiny_n() {
        let _ = Params::new(1, 1.0);
    }

    #[test]
    fn async_schedule_overflow_is_a_typed_error() {
        // Params fields are pub, so a landmark-scale config that cannot
        // exist via `Params::new` on this target is still constructible
        // for the arithmetic check.
        let p = Params {
            n: usize::MAX / 4,
            q: 16,
            m: u64::MAX,
            gamma: 3.0,
        };
        let err = p.try_async_schedule(2).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::TickBudgetOverflow { slack: 2, q: 16, .. }
        ));
        assert!(err.to_string().contains("overflows"));
        // The 4-phase total must fit as well, not just one phase.
        let p = Params {
            n: usize::MAX / 3,
            q: 1,
            m: u64::MAX,
            gamma: 3.0,
        };
        assert!(p.try_async_schedule(1).is_err());
        // Sane parameters still succeed and agree with the panicking form.
        let p = Params::new(64, 1.0);
        assert_eq!(p.try_async_schedule(2).unwrap(), p.async_schedule(2));
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn unchecked_async_schedule_panics_loudly_on_overflow() {
        let p = Params {
            n: usize::MAX / 2,
            q: 8,
            m: u64::MAX,
            gamma: 3.0,
        };
        let _ = p.async_schedule(4);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::Commitment.name(), "commitment");
        assert_eq!(Phase::FindMin.name(), "find-min");
    }
}
