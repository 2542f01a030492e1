//! Dispatch equivalence: the monomorphic agent plane (enum jump table,
//! reusable arena) and the dyn escape hatch (`AgentSlot::Custom`) are
//! *representations* of the same simulation — for any `(config, seed)`
//! they must produce bit-identical [`RunReport`]s: same decisions, same
//! rounds, same message/bit meters, same winner, same audit.
//!
//! This is the refactor's safety net: any divergence (an extra RNG draw,
//! a reordered delivery, state leaking through an arena reset) shows up
//! here as a hard failure.

use gossip_net::dynamics::{LossSchedule, PartitionCut, ScenarioScript};
use gossip_net::fault::Placement;
use rfc_core::engine::HonestAgent;
use rfc_core::runner::{
    build_network_slots, collect_report, drive_network, run_protocol, RunConfig, RunReport,
    TrialArena,
};
use rfc_core::{AgentSlot, InstancePlan, ProtocolCore};

/// Field-by-field report equality (audit included when requested).
fn assert_reports_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds");
    assert_eq!(a.winner, b.winner, "{what}: winner");
    assert_eq!(a.decisions, b.decisions, "{what}: decisions");
    assert_eq!(a.initial_colors, b.initial_colors, "{what}: colors");
    assert_eq!(a.n_active, b.n_active, "{what}: n_active");
    assert_eq!(a.verify_failures, b.verify_failures, "{what}: verify_failures");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics (messages/bits/phases)");
    assert_eq!(a.audit, b.audit, "{what}: audit");
}

fn configs() -> Vec<RunConfig> {
    vec![
        RunConfig::builder(32).gamma(3.0).colors(vec![16, 16]).build(),
        RunConfig::builder(48)
            .gamma(4.0)
            .colors(vec![16, 16, 16])
            .faults(0.25, Placement::Random { seed: 5 })
            .record_ops(true)
            .build(),
        RunConfig::builder(24)
            .gamma(3.0)
            .colors(vec![12, 12])
            .message_loss(0.2)
            .build(),
    ]
}

/// Dynamic-adversity configs: churn, a partition window, and a loss
/// burst — every representation (enum/custom/arena) must agree on these
/// too, including the mutable `FaultState` threaded through resets.
fn dynamic_configs() -> Vec<RunConfig> {
    let n = 32;
    let q = RunConfig::builder(n).gamma(3.0).build().params().q;
    vec![
        RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![16, 16])
            .scenario(
                ScenarioScript::new()
                    .crash(q / 2, (24..32).collect())
                    .recover(2 * q, (24..32).collect()),
            )
            .build(),
        RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![16, 16])
            .record_ops(true)
            .scenario(
                ScenarioScript::new()
                    .partition(2 * q, PartitionCut::split_at(n, 16))
                    .heal(2 * q + q / 2),
            )
            .build(),
        RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![16, 16])
            .loss_schedule(LossSchedule::burst(0.1, 0.8, q, q + 4))
            .scenario(ScenarioScript::new().crash(3 * q, vec![0, 1]))
            .build(),
    ]
}

#[test]
fn custom_escape_hatch_equals_enum_fast_path() {
    // The same honest agent, routed through `AgentSlot::Custom(Box<dyn …>)`
    // instead of `AgentSlot::Honest`: one extra indirection, zero
    // behavioral difference — on static and dynamic configs alike.
    for (ci, cfg) in configs().iter().chain(&dynamic_configs()).enumerate() {
        for seed in [1u64, 42] {
            let fast = run_protocol(cfg, seed);
            let mut custom_factory =
                |id, params: rfc_core::Params, color, rng, topo: &gossip_net::topology::Topology| {
                    let core =
                        ProtocolCore::new_on(topo, id, params, params.sync_schedule(), color, rng);
                    AgentSlot::custom(HonestAgent::new(core))
                };
            let mut net = build_network_slots(cfg, seed, &mut custom_factory);
            drive_network(&mut net, cfg);
            let custom = collect_report(&net, cfg);
            assert_reports_identical(&fast, &custom, &format!("custom cfg {ci} seed {seed}"));
        }
    }
}

#[test]
fn arena_reuse_equals_fresh_networks() {
    // One arena, many trials across *different* configs and seeds: every
    // report must match a freshly built network's, in any order — no
    // state may survive a reset.
    let cfgs = configs();
    let mut arena = TrialArena::new();
    let schedule: Vec<(usize, u64)> = vec![(0, 3), (1, 3), (0, 9), (2, 11), (1, 9), (0, 3)];
    for (ci, seed) in schedule {
        let from_arena = arena.run_protocol(&cfgs[ci], seed);
        let fresh = run_protocol(&cfgs[ci], seed);
        assert_reports_identical(&from_arena, &fresh, &format!("arena cfg {ci} seed {seed}"));
    }
}

#[test]
fn arena_reuse_equals_fresh_networks_under_dynamic_scenarios() {
    // One arena cycling through churn, partition and burst configs in an
    // interleaved schedule: every report must match a fresh network's —
    // no `FaultState`, partition overlay, event cursor or schedule state
    // may leak through a reset.
    let cfgs = dynamic_configs();
    let mut arena = TrialArena::new();
    let schedule: Vec<(usize, u64)> =
        vec![(0, 1), (1, 1), (2, 1), (0, 8), (2, 8), (1, 8), (0, 1)];
    for (ci, seed) in schedule {
        let from_arena = arena.run_protocol(&cfgs[ci], seed);
        let fresh = run_protocol(&cfgs[ci], seed);
        assert_reports_identical(
            &from_arena,
            &fresh,
            &format!("dynamic arena cfg {ci} seed {seed}"),
        );
    }
    // A dynamic trial must not contaminate a following static one.
    let static_cfg = RunConfig::builder(32).gamma(3.0).colors(vec![16, 16]).build();
    let from_arena = arena.run_protocol(&static_cfg, 5);
    let fresh = run_protocol(&static_cfg, 5);
    assert_reports_identical(&from_arena, &fresh, "static after dynamic");
}

#[test]
fn single_instance_plane_equals_legacy_path() {
    // The instance plane's safety net: one consensus instance pushed
    // through the multiplexer (batched messages, per-instance meters)
    // must be a pure generalization — its legacy-shaped report
    // is field-identical to `run_protocol`'s, for the monolithic engine
    // at several thread counts and the sharded per-agent discipline,
    // lossy configs included.
    let bases = [
        RunConfig::builder(32).gamma(3.0).colors(vec![16, 16]).build(),
        RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).message_loss(0.2).build(),
        RunConfig::builder(32)
            .gamma(3.0)
            .colors(vec![16, 16])
            .faults(0.25, Placement::Random { seed: 5 })
            .build(),
    ];
    for (ci, base) in bases.iter().enumerate() {
        for threads in [1usize, 2, 8] {
            let mut cfg = base.clone();
            cfg.threads = threads;
            let seed = 13;
            let legacy = run_protocol(&cfg, seed);
            let plane = rfc_core::run_plane(&cfg, &InstancePlan::consensus(1), seed);
            let mux = plane.legacy.as_ref().expect("single-consensus plan has a legacy view");
            assert_reports_identical(
                mux,
                &legacy,
                &format!("mux cfg {ci} threads {threads}"),
            );
            // The per-instance view agrees with the whole-run view.
            assert_eq!(plane.instances.len(), 1);
            assert_eq!(plane.instances[0].outcome.as_ref(), Some(&legacy.outcome));
        }
        // Sharded per-agent discipline (its own pinned stream family).
        let mut cfg = base.clone();
        cfg.rng_discipline = gossip_net::rng::RngDiscipline::PerAgent;
        cfg.threads = 4;
        let legacy = run_protocol(&cfg, 29);
        let plane = rfc_core::run_plane(&cfg, &InstancePlan::consensus(1), 29);
        assert_reports_identical(
            plane.legacy.as_ref().expect("legacy view"),
            &legacy,
            &format!("mux sharded cfg {ci}"),
        );
    }
}

#[test]
fn arena_handles_changing_network_sizes() {
    // Resizing between trials rebuilds what must be rebuilt and nothing
    // else; reports stay exact.
    let mut arena = TrialArena::new();
    for n in [16usize, 64, 16, 32] {
        let cfg = RunConfig::builder(n).gamma(3.0).colors(vec![n - n / 2, n / 2]).build();
        let a = arena.run_protocol(&cfg, 5);
        let f = run_protocol(&cfg, 5);
        assert_reports_identical(&a, &f, &format!("resize n={n}"));
    }
}
