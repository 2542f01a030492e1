//! Dynamics edge cases: partition overlays, churn event ordering, and
//! the loss-draw discipline.
//!
//! Three families:
//!
//! * **Property tests** — the partition mask preserves CSR symmetry for
//!   any cut over any graph; `sample_peer` keeps its self-delivery
//!   contract on isolated / fully-partitioned vertices; `ring(n)`
//!   enforces its minimum size.
//! * **Engine semantics** — crash stops an agent's sends and receipts
//!   from its round on, recover resumes them; same-round events apply
//!   in script order (recover-then-crash leaves the agent down); a
//!   cross-cut delivery is metered but suppressed.
//! * **Loss-draw audit** — in a dynamic run the loss stream is derived
//!   per round, so editing a burst window or adding scenario events
//!   cannot perturb the delivery pattern of unrelated rounds.

use gossip_net::dynamics::{LossSchedule, PartitionCut, ScenarioScript};
use gossip_net::fault::{FaultPlan, Placement};
use gossip_net::network::{Network, NetworkConfig};
use gossip_net::rng::DetRng;
use gossip_net::size::{MsgSize, SizeEnv};
use gossip_net::topology::Topology;
use gossip_net::{Agent, AgentId, Op, RoundCtx};
use proptest::prelude::*;

/// Test message: one number, 8 bits.
#[derive(Clone, Debug, PartialEq)]
struct Num(u64);
impl MsgSize for Num {
    fn size_bits(&self, _env: &SizeEnv) -> u64 {
        8
    }
}

/// Pushes its id to a fixed target every round; records `(round, from)`
/// for everything it hears.
struct Recorder {
    id: AgentId,
    target: AgentId,
    heard: Vec<(usize, AgentId)>,
    sent: Vec<usize>,
}

impl Recorder {
    fn new(id: AgentId, target: AgentId) -> Self {
        Recorder {
            id,
            target,
            heard: vec![],
            sent: vec![],
        }
    }
}

impl Agent<Num> for Recorder {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Num>> {
        self.sent.push(ctx.round);
        Some(Op::push(self.target, Num(self.id as u64)))
    }
    fn on_push(&mut self, from: AgentId, _msg: &Num, ctx: &RoundCtx) {
        self.heard.push((ctx.round, from));
    }
}

fn recorder_net(
    n: usize,
    target: AgentId,
    config: NetworkConfig,
) -> Network<Num, Recorder> {
    let agents = (0..n as AgentId).map(|id| Recorder::new(id, target)).collect();
    Network::with_config(
        Topology::complete(n),
        SizeEnv::for_n(n),
        agents,
        FaultPlan::none(n),
        config,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Masking any symmetric graph by any cut yields a symmetric graph
    /// (the overlay removes edges in both directions at once).
    #[test]
    fn partition_mask_preserves_csr_symmetry(
        n in 3usize..48,
        p in 0.0f64..1.0,
        split in 0usize..48,
        seed in any::<u64>(),
    ) {
        let split = split % (n + 1);
        let cut = PartitionCut::split_at(n, split);
        for base in [Topology::complete(n), Topology::erdos_renyi(n, p, seed), Topology::ring(n)] {
            match cut.mask(&base) {
                Topology::Sparse(csr) => prop_assert!(csr.is_symmetric()),
                Topology::Complete { .. } => prop_assert!(false, "mask must be sparse"),
            }
        }
    }

    /// The mask keeps exactly the non-crossing edges: `connected` on the
    /// masked graph agrees with `connected && !blocks` on the base.
    #[test]
    fn partition_mask_agrees_with_blocks(
        n in 3usize..32,
        p in 0.0f64..1.0,
        split in 0usize..32,
        seed in any::<u64>(),
    ) {
        let split = split % (n + 1);
        let cut = PartitionCut::split_at(n, split);
        let base = Topology::erdos_renyi(n, p, seed);
        let masked = cut.mask(&base);
        for u in 0..n as AgentId {
            for v in 0..n as AgentId {
                if u == v {
                    continue; // self-addressing handled by `connected` uniformly
                }
                prop_assert_eq!(
                    masked.connected(u, v),
                    base.connected(u, v) && !cut.blocks(u, v),
                    "mask mismatch at ({}, {})", u, v
                );
            }
        }
    }

    /// `sample_peer` self-delivery contract survives the overlay: a
    /// vertex whose entire neighborhood is cross-cut becomes isolated in
    /// the masked graph and must sample itself.
    #[test]
    fn fully_partitioned_vertex_samples_itself(
        n in 4usize..40,
        seed in any::<u64>(),
    ) {
        // Side 0 = {0}: vertex 0 is alone on its side, so the masked
        // graph isolates it from every base neighbor.
        let cut = PartitionCut::split_at(n, 1);
        let mut rng = DetRng::seeded(seed, 0);
        for base in [Topology::complete(n), Topology::ring(n)] {
            let masked = cut.mask(&base);
            prop_assert_eq!(masked.degree(0), 0);
            for _ in 0..20 {
                prop_assert_eq!(masked.sample_peer(0, &mut rng), 0,
                    "isolated vertex must self-deliver");
            }
            // Untouched vertices keep sampling within their own side.
            let v = masked.sample_peer(2, &mut rng);
            prop_assert!(v >= 1, "side-1 vertices never sample the cut-off vertex");
        }
    }
}

#[test]
#[should_panic(expected = "at least three")]
fn ring_rejects_fewer_than_three_vertices() {
    let _ = Topology::ring(2);
}

#[test]
fn ring_minimum_size_is_three() {
    let t = Topology::ring(3);
    assert_eq!(t.n(), 3);
    for u in 0..3 {
        assert_eq!(t.degree(u), 2);
    }
}

// ---------------------------------------------------------------------
// Engine semantics
// ---------------------------------------------------------------------

#[test]
fn crash_silences_and_recover_resumes() {
    // Everyone pushes to agent 0; agent 1 is down for rounds 4..8.
    let script = ScenarioScript::new().crash(4, vec![1]).recover(8, vec![1]);
    let mut net = recorder_net(
        3,
        0,
        NetworkConfig {
            scenario: script,
            ..NetworkConfig::default()
        },
    );
    net.run(12);
    // Sender side: agent 1 acted every round except 4..8.
    let sent = &net.agent(1).sent;
    let expect: Vec<usize> = (0..12).filter(|r| !(4..8).contains(r)).collect();
    assert_eq!(sent, &expect);
    // Receiver side: agent 0 heard agent 1 exactly in those rounds.
    let heard_from_1: Vec<usize> = net
        .agent(0)
        .heard
        .iter()
        .filter(|(_, from)| *from == 1)
        .map(|(r, _)| *r)
        .collect();
    assert_eq!(heard_from_1, expect);
    // While down, pushes TO agent 1 were dropped: it heard nothing in 4..8.
    assert!(net.agent(1).heard.iter().all(|(r, _)| !(4..8).contains(r)));
    // Metering: every push was metered (3 per round), the ones to/from a
    // crashed agent show up as undelivered only on the receive side.
    assert_eq!(net.metrics().messages_sent, 3 * 12 - 4 /* agent 1 silent 4 rounds */);
}

#[test]
fn same_round_events_apply_in_script_order() {
    // recover-then-crash within one round ⇒ the agent is down that round.
    let down_wins = ScenarioScript::new()
        .crash(0, vec![1])
        .recover(5, vec![1])
        .crash(5, vec![1]);
    let mut net = recorder_net(
        2,
        0,
        NetworkConfig {
            scenario: down_wins,
            ..NetworkConfig::default()
        },
    );
    net.run(8);
    assert!(net.agent(1).sent.is_empty(), "re-crash in the same round wins");
    assert!(net.fault_state().is_down(1));

    // crash-then-recover within one round ⇒ the agent stays up.
    let up_wins = ScenarioScript::new().crash(5, vec![1]).recover(5, vec![1]);
    let mut net = recorder_net(
        2,
        0,
        NetworkConfig {
            scenario: up_wins,
            ..NetworkConfig::default()
        },
    );
    net.run(8);
    assert_eq!(net.agent(1).sent.len(), 8, "crash-then-recover is a no-op round");
    assert!(!net.fault_state().is_down(1));
}

#[test]
fn plan_faults_never_recover_via_script() {
    let script = ScenarioScript::new().recover(2, vec![0]);
    let agents = (0..3).map(|id| Recorder::new(id, 2)).collect();
    let mut net: Network<Num, Recorder> = Network::with_config(
        Topology::complete(3),
        SizeEnv::for_n(3),
        agents,
        FaultPlan::place(3, 1, Placement::LowIds),
        NetworkConfig {
            scenario: script,
            ..NetworkConfig::default()
        },
    );
    net.run(6);
    assert!(net.agent(0).sent.is_empty(), "plan fault must stay quiescent");
    assert!(net.fault_state().is_down(0));
}

#[test]
fn partition_blocks_and_meters_cross_cut_pushes() {
    // 0 and 1 on side A, 2 and 3 on side B; everyone pushes to agent 0.
    let cut = PartitionCut::split_at(4, 2);
    let script = ScenarioScript::new().partition(3, cut).heal(6);
    let mut net = recorder_net(
        4,
        0,
        NetworkConfig {
            scenario: script,
            ..NetworkConfig::default()
        },
    );
    net.run(9);
    // All 4 agents push every round: all metered.
    assert_eq!(net.metrics().messages_sent, 4 * 9);
    // Cross-cut pushes from 2 and 3 during rounds 3..6 are undelivered.
    assert_eq!(net.metrics().undelivered, 2 * 3);
    let heard_cross: Vec<&(usize, AgentId)> = net
        .agent(0)
        .heard
        .iter()
        .filter(|(r, from)| (3..6).contains(r) && *from >= 2)
        .collect();
    assert!(heard_cross.is_empty(), "no cross-cut delivery while partitioned");
    // Same-side and post-heal traffic flows.
    assert!(net.agent(0).heard.iter().any(|(r, from)| *r == 4 && *from == 1));
    assert!(net.agent(0).heard.iter().any(|(r, from)| *r == 7 && *from == 3));
}

#[test]
fn partition_yields_silence_to_cross_cut_pulls() {
    struct Puller {
        target: AgentId,
        replies: Vec<(usize, bool)>,
    }
    impl Agent<Num> for Puller {
        fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
            Some(Op::pull(self.target, Num(0)))
        }
        fn on_pull(&mut self, _f: AgentId, _q: &Num, _c: &RoundCtx) -> Option<Num> {
            Some(Num(1))
        }
        fn on_reply(&mut self, _f: AgentId, reply: Option<Num>, ctx: &RoundCtx) {
            self.replies.push((ctx.round, reply.is_some()));
        }
    }
    let cut = PartitionCut::split_at(2, 1);
    let script = ScenarioScript::new().partition(2, cut).heal(5);
    let agents = vec![Puller { target: 1, replies: vec![] }, Puller { target: 0, replies: vec![] }];
    let mut net: Network<Num, Puller> = Network::with_config(
        Topology::complete(2),
        SizeEnv::for_n(2),
        agents,
        FaultPlan::none(2),
        NetworkConfig {
            scenario: script,
            ..NetworkConfig::default()
        },
    );
    net.run(8);
    for agent in net.agents() {
        for &(r, answered) in &agent.replies {
            assert_eq!(
                answered,
                !(2..5).contains(&r),
                "cross-cut pull must observe silence exactly while partitioned (round {r})"
            );
        }
    }
    // 2 queries/round metered; replies produced only outside the cut
    // window; cross-cut queries counted undelivered.
    assert_eq!(net.metrics().messages_sent, 2 * 8 + 2 * 5);
    assert_eq!(net.metrics().undelivered, 2 * 3);
}

#[test]
fn scheduled_loss_follows_the_piecewise_probability() {
    // p = 0 except a total blackout in rounds 50..60.
    let schedule = LossSchedule::burst(0.0, 1.0, 50, 60);
    let mut net = recorder_net(
        2,
        0,
        NetworkConfig {
            loss: schedule,
            loss_seed: 7,
            ..NetworkConfig::default()
        },
    );
    net.run(100);
    let heard_from_1: Vec<usize> = net
        .agent(0)
        .heard
        .iter()
        .filter(|(_, f)| *f == 1)
        .map(|(r, _)| *r)
        .collect();
    let expect: Vec<usize> = (0..100).filter(|r| !(50..60).contains(r)).collect();
    assert_eq!(heard_from_1, expect, "blackout must drop exactly its window");
    assert_eq!(net.metrics().messages_sent, 200, "lost messages are still metered");
    assert_eq!(net.metrics().undelivered, 2 * 10);
}

// ---------------------------------------------------------------------
// Loss-draw audit: the dynamic discipline isolates rounds
// ---------------------------------------------------------------------

/// Delivery fingerprint: the sorted (round, sender) pairs agent 0 heard,
/// restricted to rounds outside `window`.
fn heard_outside(net: &Network<Num, Recorder>, window: std::ops::Range<usize>) -> Vec<(usize, AgentId)> {
    net.agent(0)
        .heard
        .iter()
        .filter(|(r, _)| !window.contains(r))
        .copied()
        .collect()
}

#[test]
fn editing_a_burst_window_cannot_perturb_other_rounds() {
    let run = |schedule: LossSchedule| {
        let mut net = recorder_net(
            4,
            0,
            NetworkConfig {
                loss: schedule,
                loss_seed: 99,
                ..NetworkConfig::default()
            },
        );
        net.run(40);
        net
    };
    // Both runs are dynamic (multi-piece schedules) and agree on p
    // outside [10, 20): the delivery pattern there must be identical,
    // draw for draw, no matter what the window does.
    let mild = run(LossSchedule::burst(0.3, 0.5, 10, 20));
    let brutal = run(LossSchedule::burst(0.3, 1.0, 10, 20));
    assert_eq!(
        heard_outside(&mild, 10..20),
        heard_outside(&brutal, 10..20),
        "rounds outside the burst window must see identical loss draws"
    );
    // Sanity: the window itself differs (total blackout vs partial).
    assert!(mild.agent(0).heard.iter().any(|(r, _)| (10..20).contains(r)));
    assert!(!brutal.agent(0).heard.iter().any(|(r, _)| (10..20).contains(r)));
}

#[test]
fn enabling_a_scenario_script_cannot_perturb_loss_draws_elsewhere() {
    let run = |scenario: ScenarioScript| {
        let mut net = recorder_net(
            4,
            0,
            NetworkConfig {
                loss: LossSchedule::constant(0.3),
                loss_seed: 41,
                scenario,
                ..NetworkConfig::default()
            },
        );
        net.run(40);
        net
    };
    // A no-op event (heal with no cut installed) vs a real partition
    // during [12, 18): both runs are dynamic with the same constant loss
    // probability. Outside the partition window, the same messages flow
    // in the same order — so the per-round loss streams must give
    // identical delivery patterns even though the partition suppressed
    // traffic (and thus shifted any naive shared-stream draw count).
    let baseline = run(ScenarioScript::new().heal(0));
    let cut = PartitionCut::split_at(4, 2);
    let partitioned = run(ScenarioScript::new().partition(12, cut).heal(18));
    assert_eq!(
        heard_outside(&baseline, 12..18),
        heard_outside(&partitioned, 12..18),
        "scenario events must not perturb the loss stream of unrelated rounds"
    );
}

#[test]
fn reset_into_replays_dynamic_scenarios_bit_for_bit() {
    let mk_cfg = || NetworkConfig {
        loss: LossSchedule::burst(0.2, 0.9, 5, 9),
        loss_seed: 5,
        scenario: ScenarioScript::new()
            .crash(3, vec![2])
            .partition(6, PartitionCut::split_at(4, 2))
            .heal(10)
            .recover(12, vec![2]),
        ..NetworkConfig::default()
    };
    let mut fresh = recorder_net(4, 0, mk_cfg());
    fresh.run(20);

    let mut arena = recorder_net(4, 1, NetworkConfig::default());
    arena.run(7); // dirty the arena with an unrelated static run
    arena.reset_into(
        Topology::complete(4),
        SizeEnv::for_n(4),
        FaultPlan::none(4),
        mk_cfg(),
        |agents, _| agents.extend((0..4).map(|id| Recorder::new(id, 0))),
    );
    arena.run(20);
    assert_eq!(fresh.agent(0).heard, arena.agent(0).heard);
    assert_eq!(fresh.metrics(), arena.metrics());
    assert_eq!(fresh.fault_state(), arena.fault_state());
}
