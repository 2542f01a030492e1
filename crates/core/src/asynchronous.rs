//! The asynchronous (sequential) GOSSIP extension.
//!
//! The paper's Conclusions pose as an open problem "the study of this
//! problem in the asynchronous (i.e. sequential) GOSSIP model where, at
//! every round, only one (possibly random) agent is awake". This module
//! implements the natural adaptation of protocol `P` to that model:
//!
//! * Global ticks replace rounds; each tick wakes one uniformly random
//!   agent, which performs one complete operation.
//! * Each phase is stretched to `slack·n·q` ticks. An agent's activations
//!   within a phase are `Binomial(slack·n·q, 1/n)` (mean `slack·q`), so
//!   with `slack ≥ 2` every agent is activated at least `q` times per
//!   phase w.h.p. — enough to send all `q` declared votes, make `≥ q`
//!   commitment pulls, and participate in Find-Min/Coherence.
//! * Agents act purely by the global tick's phase; the per-agent protocol
//!   logic ([`crate::engine::ProtocolCore`]) is reused *unchanged* (it
//!   tracks its own progress inside each phase), which is the point of
//!   keeping the core schedule-agnostic.
//!
//! If an unlucky agent gets fewer than `q` voting activations, some of its
//! declared votes are never delivered and Verification can fail the run —
//! the failure probability decays exponentially in `q` (measured in E12).
//!
//! [`run_protocol_async`] drives the scheduler with the phase clock
//! ([`crate::runner::drive_phases`]) over the async schedule's windows
//! (three under the `skip_coherence` ablation, as synchronous runs),
//! one [`Network::run_async`](gossip_net::network::Network::run_async)
//! tick per unit — the same advance step the `rfc-node` session takes.
//! Every operation completes (pull round-trip included) inside its tick,
//! so nothing is in flight when the budget runs out. The runs are pinned
//! by digest in `tests/event_runtime.rs`.

use crate::agent_plane::AgentSlot;
use crate::engine::ProtocolCore;
use crate::params::Params;
use crate::runner::{
    build_network_slots, collect_report, drive_phases, run_windows, unchecked, RunConfig, RunReport,
};
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::rng::DetRng;

/// Scheduler RNG stream label: the tick-by-tick wake sequence is
/// `DetRng::seeded(seed, SCHEDULER_STREAM)`. Public so the `rfc-node`
/// session drives its endpoint's network on the wake sequence of the
/// simulated run, which is how both endpoints agree on every tick.
pub const SCHEDULER_STREAM: u64 = 0x5EC;

/// Run protocol `P` under the sequential-GOSSIP scheduler.
///
/// `slack` multiplies the per-phase tick budget (`slack·n·q` ticks per
/// phase); `slack = 2` already succeeds w.h.p. for moderate `γ`.
///
/// # Panics
///
/// Panics (with the [`crate::params::ScheduleError`] message) if
/// `slack·n·q` overflows `usize` — use [`Params::try_async_schedule`] to
/// pre-flight landmark-scale budgets on narrow targets.
pub fn run_protocol_async(cfg: &RunConfig, seed: u64, slack: usize) -> RunReport {
    // Checked: a silent wrap would truncate every phase window.
    let schedule = cfg.params().async_schedule(slack);
    let mut factory = move |id: AgentId,
                            params: Params,
                            color: ColorId,
                            rng: DetRng,
                            topo: &gossip_net::topology::Topology| {
        AgentSlot::honest(ProtocolCore::new_on(topo, id, params, schedule, color, rng))
    };
    let mut net = build_network_slots(cfg, seed, &mut factory);
    let mut scheduler = DetRng::seeded(seed, SCHEDULER_STREAM);
    let Ok(()) = drive_phases(
        &mut net,
        run_windows(cfg, schedule),
        |net| net.run_async(1, &mut scheduler),
        unchecked,
    );
    collect_report(&net, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    #[test]
    fn async_run_reaches_consensus() {
        let cfg = RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build();
        let report = run_protocol_async(&cfg, 21, 3);
        assert!(
            report.outcome.is_consensus(),
            "async run should succeed: {:?}",
            report.outcome
        );
    }

    #[test]
    fn async_ticks_are_theta_n_log_n_per_phase() {
        let cfg = RunConfig::builder(24).gamma(2.0).colors(vec![12, 12]).build();
        let params = cfg.params();
        let report = run_protocol_async(&cfg, 3, 2);
        assert_eq!(
            report.metrics.ticks as usize,
            4 * 2 * 24 * params.q,
            "each phase runs slack·n·q ticks"
        );
    }

    #[test]
    fn async_is_deterministic() {
        let cfg = RunConfig::builder(16).gamma(3.0).colors(vec![8, 8]).build();
        let a = run_protocol_async(&cfg, 77, 2);
        let b = run_protocol_async(&cfg, 77, 2);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
    }

    #[test]
    fn insufficient_slack_can_fail() {
        // With slack = 1 some agent misses voting activations reasonably
        // often at small n; across seeds we should observe at least one
        // failure AND at least one success (the mechanism works, it is
        // just not w.h.p. at this slack).
        let cfg = RunConfig::builder(12).gamma(1.0).colors(vec![6, 6]).build();
        let outcomes: Vec<bool> = (0..30)
            .map(|s| run_protocol_async(&cfg, s, 1).outcome.is_consensus())
            .collect();
        assert!(outcomes.iter().any(|&b| b), "some run should succeed");
        assert!(outcomes.iter().any(|&b| !b), "some run should fail");
    }

    #[test]
    fn skip_coherence_drops_the_async_coherence_window() {
        // The ablation removes the Coherence phase under the async
        // scheduler too: three windows of slack·n·q ticks, no more.
        let (n, slack) = (24, 3);
        let cfg = RunConfig::builder(n)
            .gamma(3.0)
            .skip_coherence(true)
            .build();
        let report = run_protocol_async(&cfg, 7, slack);
        assert_eq!(
            report.metrics.ticks as usize,
            3 * slack * n * cfg.params().q
        );
        let labels: Vec<&str> = report
            .metrics
            .phases
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(labels, ["commitment", "voting", "find-min"]);
    }
}
