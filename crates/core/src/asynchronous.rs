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
//! One driver, [`run_protocol_events`], runs the scheduler on the event
//! runtime ([`gossip_net::network::Network::drive_events`]): every
//! message leg draws a delivery delay from [`DELAY_STREAM`], uniform in
//! `[0, max_delay]` ticks. With `max_delay > 0` replies can outlive the
//! phase budget, and the terminal
//! [`drain_in_flight`](gossip_net::network::Network::drain_in_flight)
//! keeps the metering contract honest (`messages_sent - undelivered`
//! == handler invocations, in-flight messages counted undelivered).
//! [`run_protocol_async`] is its `max_delay == 0` case: no delay draws,
//! and every operation completes (pull round-trip included) inside its
//! tick. Both are pinned by digest in `tests/event_runtime.rs`.

use crate::agent_plane::AgentSlot;
use crate::engine::ProtocolCore;
use crate::params::{Params, Phase};
use crate::runner::{build_network_slots, collect_report, RunConfig, RunReport};
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::rng::DetRng;

/// Scheduler RNG stream label: the tick-by-tick wake sequence is
/// `DetRng::seeded(seed, SCHEDULER_STREAM)`. Public so the `rfc-node`
/// session drives its endpoint's network on the wake sequence of the
/// simulated run, which is how both endpoints agree on every tick.
pub const SCHEDULER_STREAM: u64 = 0x5EC;

/// Delivery-delay RNG stream label for [`run_protocol_events`]. Distinct
/// from every other stream in `runner::streams`, so turning delays on
/// (or off) never perturbs agent, color, fault, loss, or scheduler
/// randomness.
pub const DELAY_STREAM: u64 = 0xDE1A;

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
    run_protocol_events(cfg, seed, slack, 0)
}

/// Run protocol `P` on the **event-driven** runtime: the same
/// sequential-GOSSIP wake schedule as [`run_protocol_async`], but every
/// message leg draws a delivery delay uniform in `[0, max_delay]` ticks
/// from [`DELAY_STREAM`].
///
/// `max_delay == 0` is [`run_protocol_async`]: no delay draws are
/// consumed. With `max_delay > 0`, messages can land ticks after they
/// were sent — in a later phase, or never (budget expiry): the terminal
/// drain counts those metered-but-undelivered, per the metering
/// contract.
///
/// # Panics
///
/// As [`run_protocol_async`].
pub fn run_protocol_events(
    cfg: &RunConfig,
    seed: u64,
    slack: usize,
    max_delay: usize,
) -> RunReport {
    assert!(slack >= 1);
    let params = cfg.params();
    // Checked: a silent wrap here would truncate the per-phase tick
    // loop below (each phase runs exactly `schedule.phase_len` ticks).
    let schedule = match params.try_async_schedule(slack) {
        Ok(s) => s,
        Err(e) => panic!("{e}"),
    };
    let mut factory = move |id: AgentId,
                            params: Params,
                            color: ColorId,
                            rng: DetRng,
                            topo: &gossip_net::topology::Topology| {
        AgentSlot::honest(ProtocolCore::new_on(topo, id, params, schedule, color, rng))
    };
    let mut net = build_network_slots(cfg, seed, &mut factory);
    let mut scheduler = DetRng::seeded(seed, SCHEDULER_STREAM);
    let mut delays = DetRng::seeded(seed, DELAY_STREAM);
    for phase in Phase::COMMUNICATING {
        net.enter_phase(phase.name());
        // The delivery queue deliberately survives the phase boundary: a
        // delayed message sent near the end of one phase lands during
        // the next, exactly as on a real wire.
        net.drive_events(schedule.phase_len, &mut scheduler, &mut delays, max_delay);
    }
    // Budget over: whatever is still in flight was metered at send but
    // will never reach a handler — count it undelivered.
    net.drain_in_flight();
    net.finalize();
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
    }

    #[test]
    fn delayed_events_still_reach_consensus() {
        // Small delays relative to the phase budget: the protocol has
        // enough slack to absorb late deliveries.
        let cfg = RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build();
        let report = run_protocol_events(&cfg, 21, 4, 2);
        assert!(
            report.outcome.is_consensus(),
            "delayed run should still succeed: {:?}",
            report.outcome
        );
    }

    #[test]
    fn delayed_events_are_deterministic() {
        let cfg = RunConfig::builder(16).gamma(3.0).colors(vec![8, 8]).build();
        let a = run_protocol_events(&cfg, 9, 3, 5);
        let b = run_protocol_events(&cfg, 9, 3, 5);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
        assert_eq!(a.metrics.bits_sent, b.metrics.bits_sent);
        assert_eq!(a.metrics.undelivered, b.metrics.undelivered);
    }
}
