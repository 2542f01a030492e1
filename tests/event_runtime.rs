//! Asynchronous-engine pins.
//!
//! `run_protocol_async` runs the phase clock with one
//! `Network::run_async` tick per unit. This suite pins its output —
//! `report_digest` plus the `undelivered` meter — on a corpus captured
//! before the async tick loops merged, so a change to delivery order or
//! loss-stream alignment moves a digest instead of passing silently.
//! Faulty, lossy and churn rows cover every delivery path: pushes and
//! pull round trips delivered in their tick, sends to down or crashed
//! agents, and messages lost in transit.
//!
//! Regenerating (after an *intentional* behavior change only):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test event_runtime -- --nocapture
//! ```
//!
//! then paste the printed table over `ASYNC_GOLDEN` and say in the
//! change why the digests moved.
//!
//! The contract tests after the pins rebuild runs the way
//! `run_protocol_async` does, with every agent recording the operations
//! it performs (`common::Recorded`): only the woken agent acts in a tick,
//! down agents stay silent, and the meters are exactly what the agents'
//! records imply — one message per push and per pull query, one more
//! per answered pull, and one undelivered per send to a down, cut-off or
//! lost addressee.

mod common;

use common::{
    implied_meters, meters, recorded_ops, recording, report_digest, OpRecord, Recorded,
};
use gossip_net::fault::Placement;
use gossip_net::ids::AgentId;
use gossip_net::rng::DetRng;
use gossip_net::topology::Topology;
use gossip_net::Network;
use proptest::prelude::*;
use rfc_core::runner::{build_network_slots, collect_report, drive_phases, run_windows, RunConfig};
use rfc_core::{
    run_protocol_async, AgentSlot, LossSchedule, Msg, Params, PartitionCut, ProtocolCore,
    RngDiscipline, ScenarioScript, SCHEDULER_STREAM,
};
use std::convert::Infallible;

fn cfg(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .build()
}

fn faulty(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .faults(0.1, Placement::Random { seed: 0 })
        .build()
}

fn lossy(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .message_loss(0.1)
        .build()
}

fn faulty_lossy(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .faults(0.1, Placement::Random { seed: 0 })
        .message_loss(0.1)
        .build()
}

/// The agents `churn` crashes, and the one of them it recovers.
const CRASHED: [AgentId; 3] = [3, 4, 5];
const RECOVERED: AgentId = 4;

/// `churn`'s crash and recovery ticks: early in the Voting phase and
/// halfway through Find-Min (ticks are the async engine's rounds).
fn churn_ticks(n: usize, slack: usize) -> (usize, usize) {
    let phase_len = slack * n * cfg(n).params().q;
    (phase_len + phase_len / 8, 2 * phase_len + phase_len / 2)
}

/// Three agents crash early in the Voting phase and one recovers during
/// Find-Min (ticks are the async engine's rounds).
fn churn(n: usize, slack: usize) -> RunConfig {
    let (crash_at, recover_at) = churn_ticks(n, slack);
    let script = ScenarioScript::new()
        .crash(crash_at, CRASHED.to_vec())
        .recover(recover_at, vec![RECOVERED]);
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .message_loss(0.1)
        .scenario(script)
        .build()
}

/// `run_protocol_async` corpus: label, config, seed, slack.
fn async_corpus() -> Vec<(&'static str, RunConfig, u64, usize)> {
    vec![
        ("n16/seed21", cfg(16), 21, 3),
        ("n24/seed7", cfg(24), 7, 3),
        ("n32/seed5/slack2", cfg(32), 5, 2),
        ("n48/faults-0.1", faulty(48), 1234, 3),
        ("n32/loss-0.1", lossy(32), 99, 3),
        ("n40/faults-0.1+loss-0.1", faulty_lossy(40), 17, 3),
        ("n24/churn+loss-0.1", churn(24, 3), 8, 3),
    ]
}

/// Pinned `(label, report_digest, metrics.undelivered)` rows.
const ASYNC_GOLDEN: &[(&str, u64, u64)] = &[
    ("n16/seed21", 0x2b3d0831bd6797e6, 0),
    ("n24/seed7", 0xaade19d2f5e3fee9, 0),
    ("n32/seed5/slack2", 0x48adf47620dad49f, 0),
    ("n48/faults-0.1", 0x6038a9684acfbbd0, 677),
    ("n32/loss-0.1", 0xdb948876cb77aed6, 700),
    ("n40/faults-0.1+loss-0.1", 0x19b2333cbb0eaeb3, 1551),
    ("n24/churn+loss-0.1", 0xb1b3e7a97a7f4c22, 725),
];

#[test]
fn async_runs_match_pinned_digests() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    let mut failures = Vec::new();
    if regen {
        println!("const ASYNC_GOLDEN: &[(&str, u64, u64)] = &[");
    }
    for (label, c, seed, slack) in async_corpus() {
        let report = run_protocol_async(&c, seed, slack);
        let got = report_digest(&report);
        let undelivered = report.metrics.undelivered;
        if regen {
            println!("    (\"{label}\", {got:#018x}, {undelivered}),");
            continue;
        }
        match ASYNC_GOLDEN.iter().find(|(l, _, _)| *l == label) {
            Some((_, want, want_u)) if *want == got && *want_u == undelivered => {}
            Some((_, want, want_u)) => failures.push(format!(
                "{label}: digest {got:#018x} / undelivered {undelivered} != pinned {want:#018x} / {want_u}"
            )),
            None => failures.push(format!("{label}: no pinned digest ({got:#018x} / {undelivered})")),
        }
    }
    if regen {
        println!("];");
        return;
    }
    assert!(
        failures.is_empty(),
        "ASYNC_GOLDEN drifted:\n{}",
        failures.join("\n")
    );
}

/// The pinned `(report_digest, undelivered)` of corpus row `label`.
fn pinned(label: &str) -> (u64, u64) {
    let (_, digest, undelivered) = ASYNC_GOLDEN
        .iter()
        .find(|(l, _, _)| *l == label)
        .unwrap_or_else(|| panic!("{label}: no pinned row"));
    (*digest, *undelivered)
}

/// The network `run_protocol_async` builds for `(cfg, seed, slack)`,
/// each agent wrapped in a recorder, with its scheduler and the phase
/// windows it walks, before the first tick.
fn async_network(
    cfg: &RunConfig,
    seed: u64,
    slack: usize,
) -> (Network<Msg, Recorded>, DetRng, Vec<(&'static str, usize)>) {
    let schedule = cfg.params().async_schedule(slack);
    let mut factory = recording(|id: AgentId, params: Params, color, rng, topo: &Topology| {
        AgentSlot::honest(ProtocolCore::new_on(topo, id, params, schedule, color, rng))
    });
    let net = build_network_slots(cfg, seed, &mut factory);
    (
        net,
        DetRng::seeded(seed, SCHEDULER_STREAM),
        run_windows(cfg, schedule).collect(),
    )
}

/// `run_protocol_async`'s run, one tick per clock unit, returning the
/// finished network.
fn run_async_net(cfg: &RunConfig, seed: u64, slack: usize) -> Network<Msg, Recorded> {
    let (mut net, mut scheduler, windows) = async_network(cfg, seed, slack);
    let Ok(()) = drive_phases(
        &mut net,
        windows,
        |net| net.run_async(1, &mut scheduler),
        |_| Ok::<(), Infallible>(()),
    );
    net
}

#[test]
fn async_runs_meter_every_tick_and_phase() {
    for (label, c, seed, slack) in async_corpus() {
        let r = run_protocol_async(&c, seed, slack);
        let m = &r.metrics;
        let windows: Vec<_> = run_windows(&c, c.params().async_schedule(slack)).collect();
        assert_eq!(
            Some(m.ticks as usize),
            windows.last().map(|&(_, end)| end),
            "{label}: one tick per budgeted unit"
        );
        assert_eq!(m.rounds, m.ticks, "{label}: every tick records one round");
        assert!(
            m.max_active_links <= 1,
            "{label}: a tick performs one operation at most"
        );
        assert!(
            m.undelivered <= m.messages_sent,
            "{label}: undelivered exceeds sent"
        );
        let labels: Vec<&str> = m.phases.iter().map(|(name, _)| name.as_str()).collect();
        let names: Vec<&str> = windows.iter().map(|&(name, _)| name).collect();
        assert_eq!(labels, names, "{label}: phase labels");
        let messages: u64 = m.phases.iter().map(|(_, t)| t.messages).sum();
        let bits: u64 = m.phases.iter().map(|(_, t)| t.bits).sum();
        assert_eq!(messages, m.messages_sent, "{label}: phases miss messages");
        assert_eq!(bits, m.bits_sent, "{label}: phases miss bits");
    }
}

#[test]
fn whole_phase_windows_match_tick_by_tick_runs() {
    // `run_protocol_async` and the `rfc-node` session advance one tick
    // per clock unit. A caller that drives each phase window through one
    // `run_async` call must land on the same pinned run.
    for (label, c, seed, slack) in async_corpus() {
        let (mut net, mut scheduler, windows) = async_network(&c, seed, slack);
        for (name, end) in windows {
            net.enter_phase(name);
            net.run_async(end - net.round(), &mut scheduler);
        }
        net.finalize();
        let r = collect_report(&net, &c);
        assert_eq!(
            (report_digest(&r), r.metrics.undelivered),
            pinned(label),
            "{label}: whole-window run left the pinned run"
        );
    }
}

#[test]
fn each_tick_runs_only_the_woken_agent() {
    for (label, c, seed, slack) in async_corpus() {
        let net = run_async_net(&c, seed, slack);
        let mut scheduler = DetRng::seeded(seed, SCHEDULER_STREAM);
        let woken: Vec<usize> = (0..net.round()).map(|_| scheduler.index(net.n())).collect();
        let ops = recorded_ops(&net);
        assert!(!ops.is_empty(), "{label}: no agent acted");
        assert!(
            ops.windows(2).all(|w| w[0].round < w[1].round),
            "{label}: a tick performed two operations"
        );
        for op in &ops {
            assert_eq!(
                op.from as usize, woken[op.round],
                "{label}: tick {} acted for an agent it did not wake",
                op.round
            );
        }
    }
}

#[test]
fn down_agents_never_act() {
    // Plan faults stay silent for the whole run.
    let net = run_async_net(&faulty(48), 1234, 3);
    assert!(net.faults().n_faulty() > 0);
    for op in recorded_ops(&net) {
        assert!(
            !net.faults().is_faulty(op.from),
            "faulty agent {} acted at tick {}",
            op.from,
            op.round
        );
    }
    // A scripted crash silences an agent from its crash tick on, until
    // it recovers.
    let (n, slack) = (24, 3);
    let (crash_at, recover_at) = churn_ticks(n, slack);
    let net = run_async_net(&churn(n, slack), 8, slack);
    let ops = recorded_ops(&net);
    for op in ops.iter().filter(|op| CRASHED.contains(&op.from)) {
        let tick = op.round;
        assert!(
            tick < crash_at || (op.from == RECOVERED && tick >= recover_at),
            "agent {} acted at tick {tick} while crashed",
            op.from
        );
    }
    assert!(
        ops.iter()
            .any(|op| op.from == RECOVERED && op.round >= recover_at),
        "the recovered agent never acted again"
    );
}

#[test]
fn sends_to_down_agents_are_metered_undelivered() {
    let net = run_async_net(&faulty(48), 1234, 3);
    let plan = net.faults();
    assert_eq!(
        meters(&net),
        implied_meters(&recorded_ops(&net), |op| plan.is_faulty(op.to)),
        "n48/faults-0.1"
    );
    // The churn row without its loss: sends to an agent while it is
    // crashed are the only undelivered ones.
    let (n, slack) = (24, 3);
    let (crash_at, recover_at) = churn_ticks(n, slack);
    let mut c = churn(n, slack);
    c.loss = LossSchedule::constant(0.0);
    let net = run_async_net(&c, 8, slack);
    let down = |op: &OpRecord| {
        let tick = op.round;
        CRASHED.contains(&op.to) && tick >= crash_at && !(op.to == RECOVERED && tick >= recover_at)
    };
    let ops = recorded_ops(&net);
    assert!(ops.iter().any(down));
    assert_eq!(meters(&net), implied_meters(&ops, down), "n24/churn");
}

#[test]
fn partition_cut_sends_are_metered_undelivered() {
    let (n, slack) = (24, 3);
    let phase_len = slack * n * cfg(n).params().q;
    let (cut_at, heal_at) = (phase_len / 2, 2 * phase_len);
    let cut = PartitionCut::split_at(n, n / 2);
    let mut c = cfg(n);
    c.scenario = ScenarioScript::new()
        .partition(cut_at, cut.clone())
        .heal(heal_at);
    let net = run_async_net(&c, 13, slack);
    let across =
        |op: &OpRecord| (cut_at..heal_at).contains(&op.round) && cut.blocks(op.from, op.to);
    let ops = recorded_ops(&net);
    assert!(ops.iter().any(across));
    assert_eq!(meters(&net), implied_meters(&ops, across));
}

#[test]
fn loss_schedule_applies_tick_by_tick() {
    // A burst that drops every message in a window of ticks and none
    // outside it: exactly the operations inside the window go
    // undelivered, and no pull there is answered.
    let (n, slack) = (24, 3);
    let phase_len = slack * n * cfg(n).params().q;
    let (from, until) = (phase_len, phase_len + phase_len / 4);
    let mut c = cfg(n);
    c.loss = LossSchedule::burst(0.0, 1.0, from, until);
    let net = run_async_net(&c, 5, slack);
    let in_burst = |op: &OpRecord| (from..until).contains(&op.round);
    let ops = recorded_ops(&net);
    assert!(ops.iter().any(in_burst));
    assert_eq!(meters(&net), implied_meters(&ops, in_burst));
}

#[test]
fn async_runs_are_the_same_at_every_thread_count() {
    // Ticks run on the calling thread whatever the config says; only
    // the closing Verification shards across the worker pool, one agent
    // per handler.
    let label = "n40/faults-0.1+loss-0.1";
    for discipline in [RngDiscipline::Sequential, RngDiscipline::PerAgent] {
        let runs: Vec<(u64, u64)> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let mut c = faulty_lossy(40);
                c.rng_discipline = discipline;
                c.threads = threads;
                c.shard_floor = Some(0);
                let r = run_protocol_async(&c, 17, 3);
                (report_digest(&r), r.metrics.undelivered)
            })
            .collect();
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "{label} under {discipline:?}: {runs:x?}"
        );
        if discipline == RngDiscipline::Sequential {
            assert_eq!(runs[0], pinned(label));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any static fault plan: a lossless async run meters every send,
    /// and exactly the sends addressed to faulty agents go undelivered.
    #[test]
    fn async_metering_is_exact_for_any_fault_plan(
        n in 8usize..40,
        alpha in 0.0f64..0.5,
        placement_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let c = RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![n - n / 2, n / 2])
            .faults(alpha, Placement::Random { seed: placement_seed })
            .build();
        let net = run_async_net(&c, seed, 2);
        let plan = net.faults();
        let ops = recorded_ops(&net);
        prop_assert!(ops.iter().all(|op| !plan.is_faulty(op.from)));
        prop_assert_eq!(meters(&net), implied_meters(&ops, |op| plan.is_faulty(op.to)));
    }
}
