//! Property-based invariants of the network engine: the GOSSIP model's
//! guarantees must hold for *arbitrary* (including adversarial-shaped)
//! agent behaviours, fault plans, and loss processes.

use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::fault::{FaultPlan, Placement};
use gossip_net::network::{Network, NetworkConfig};
use gossip_net::rng::DetRng;
use gossip_net::size::{MsgSize, SizeEnv};
use gossip_net::topology::Topology;
use gossip_net::AgentId;
use proptest::prelude::*;

/// A small message with a configurable wire size.
#[derive(Clone, Debug, PartialEq)]
struct Blob(u8);
impl MsgSize for Blob {
    fn size_bits(&self, _env: &SizeEnv) -> u64 {
        self.0 as u64 + 1
    }
}

/// An agent driven by a behaviour script derived from its RNG: each round
/// it pushes, pulls, or stays silent with equal probability, and answers
/// every other pull — an arbitrary-behaviour generator.
///
/// Design note: the *action* stream has its own RNG, and the pull-answer
/// policy is a deterministic function of how many pulls arrived. This
/// keeps the agent's outgoing behaviour identical across runs that differ
/// only in delivery (e.g. the loss-monotonicity properties below) — a
/// single shared RNG would couple future actions to whether a query was
/// delivered, making message counts legitimately non-monotone under loss
/// (a proptest run found exactly that).
struct ChaoticAgent {
    id: AgentId,
    rng: DetRng,
    pulls_answered: u32,
    acts: u32,
    received: u32,
    replies_seen: u32,
}

impl ChaoticAgent {
    fn new(id: AgentId, seed: u64) -> Self {
        ChaoticAgent {
            id,
            rng: DetRng::seeded(seed, id as u64),
            pulls_answered: 0,
            acts: 0,
            received: 0,
            replies_seen: 0,
        }
    }
}

impl Agent<Blob> for ChaoticAgent {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Blob>> {
        self.acts += 1;
        let peer = ctx.topology.sample_peer(self.id, &mut self.rng);
        match self.rng.below(3) {
            0 => Some(Op::push(peer, Blob(self.rng.below(32) as u8))),
            1 => Some(Op::pull(peer, Blob(0))),
            _ => None,
        }
    }
    fn on_pull(&mut self, _from: AgentId, _q: &Blob, _ctx: &RoundCtx) -> Option<Blob> {
        // Answer every second pull, deterministically in arrival count.
        self.pulls_answered += 1;
        if self.pulls_answered % 2 == 1 {
            Some(Blob((self.pulls_answered % 32) as u8))
        } else {
            None
        }
    }
    fn on_push(&mut self, _from: AgentId, _m: &Blob, _ctx: &RoundCtx) {
        self.received += 1;
    }
    fn on_reply(&mut self, _from: AgentId, reply: Option<Blob>, _ctx: &RoundCtx) {
        if reply.is_some() {
            self.replies_seen += 1;
        }
    }
}

fn run_chaos(
    n: usize,
    rounds: usize,
    fault_frac: f64,
    loss: f64,
    seed: u64,
) -> Network<Blob, ChaoticAgent> {
    let agents: Vec<ChaoticAgent> = (0..n as AgentId)
        .map(|id| ChaoticAgent::new(id, seed))
        .collect();
    let faults = if fault_frac > 0.0 {
        FaultPlan::fraction(n, fault_frac, Placement::Random { seed })
    } else {
        FaultPlan::none(n)
    };
    let mut net = Network::with_config(
        Topology::complete(n),
        SizeEnv::for_n(n),
        agents,
        faults,
        NetworkConfig {
            record_ops: true,
            loss_probability: loss,
            loss_seed: seed,
            ..NetworkConfig::default()
        },
    );
    net.run(rounds);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Active-link bound: no round ever has more active operations than
    /// active agents (the defining GOSSIP constraint).
    #[test]
    fn one_active_op_per_agent(
        n in 3usize..40,
        rounds in 1usize..30,
        fault_frac in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        let net = run_chaos(n, rounds, fault_frac, 0.0, seed);
        prop_assert!(net.metrics().max_active_links <= net.faults().n_active() as u64);
        prop_assert_eq!(net.metrics().rounds, rounds as u64);
    }

    /// Faulty agents never act: every logged op originates from an
    /// active agent, and faulty agents never answer pulls.
    #[test]
    fn faulty_agents_are_quiescent(
        n in 3usize..40,
        rounds in 1usize..20,
        fault_frac in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let net = run_chaos(n, rounds, fault_frac, 0.0, seed);
        for ev in net.oplog().events() {
            prop_assert!(
                !net.faults().is_faulty(ev.from),
                "faulty agent {} issued an op",
                ev.from
            );
            if net.faults().is_faulty(ev.to) {
                prop_assert_ne!(
                    ev.kind,
                    gossip_net::OpKind::Pull,
                    "faulty agent {} answered a pull",
                    ev.to
                );
            }
        }
        // Faulty agents received nothing.
        for id in 0..n as AgentId {
            if net.faults().is_faulty(id) {
                prop_assert_eq!(net.agent(id).acts, 0);
                prop_assert_eq!(net.agent(id).received, 0);
            }
        }
    }

    /// Determinism: the whole run is a pure function of the seed — even
    /// with faults, loss, and chaotic behaviours.
    #[test]
    fn runs_are_deterministic(
        n in 3usize..24,
        rounds in 1usize..16,
        loss in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let a = run_chaos(n, rounds, 0.2, loss, seed);
        let b = run_chaos(n, rounds, 0.2, loss, seed);
        prop_assert_eq!(a.metrics().messages_sent, b.metrics().messages_sent);
        prop_assert_eq!(a.metrics().bits_sent, b.metrics().bits_sent);
        prop_assert_eq!(a.oplog().len(), b.oplog().len());
        for id in 0..n as AgentId {
            prop_assert_eq!(a.agent(id).received, b.agent(id).received);
            prop_assert_eq!(a.agent(id).replies_seen, b.agent(id).replies_seen);
        }
    }

    /// Loss monotonicity: a lossier channel never delivers more pushes.
    #[test]
    fn loss_reduces_deliveries(
        n in 4usize..24,
        rounds in 5usize..25,
        seed in any::<u64>(),
    ) {
        let lossless = run_chaos(n, rounds, 0.0, 0.0, seed);
        let lossy = run_chaos(n, rounds, 0.0, 0.6, seed);
        let delivered = |net: &Network<Blob, ChaoticAgent>| -> u32 {
            (0..n as AgentId).map(|id| net.agent(id).received).sum()
        };
        // Identical op pattern (same seeds), so deliveries can only drop.
        prop_assert!(delivered(&lossy) <= delivered(&lossless));
    }

    /// Metering under loss: outgoing behaviour is identical (decoupled
    /// action RNG), so pushes and queries are metered identically; only
    /// replies can disappear (lost queries are never answered; produced
    /// replies can be dropped in flight). Hence lossy ≤ lossless. Note
    /// the answer-every-second-pull policy is deterministic in *arrival*
    /// count, so fewer arrivals can flip which pulls get answered —
    /// but never increase the total beyond the arrival count, which is
    /// itself monotone.
    #[test]
    fn metering_counts_sent_not_delivered(
        n in 4usize..16,
        rounds in 2usize..12,
        seed in any::<u64>(),
    ) {
        let lossless = run_chaos(n, rounds, 0.0, 0.0, seed);
        let lossy = run_chaos(n, rounds, 0.0, 0.7, seed);
        // Pushes + queries are identical; replies bounded by arrivals.
        let ops_floor = lossless.oplog().len() as u64; // pushes + pulls issued
        prop_assert_eq!(lossy.oplog().len() as u64, ops_floor,
            "active operations must be identical across loss settings");
        prop_assert!(lossy.metrics().messages_sent <= lossless.metrics().messages_sent);
        prop_assert!(lossy.metrics().messages_sent > 0 || rounds == 0);
    }
}

#[test]
fn async_scheduler_is_deterministic_and_bounded() {
    let n = 16;
    let agents: Vec<ChaoticAgent> = (0..n as AgentId)
        .map(|id| ChaoticAgent::new(id, 3))
        .collect();
    let mut net = Network::new(
        Topology::complete(n),
        SizeEnv::for_n(n),
        agents,
        FaultPlan::none(n),
    );
    let mut rng = DetRng::seeded(1, 2);
    net.run_async(500, &mut rng);
    assert_eq!(net.metrics().ticks, 500);
    assert!(net.metrics().max_active_links <= 1, "async: one op per tick");
}

// ---------------------------------------------------------------------
// Arena resets across topology shape changes
// ---------------------------------------------------------------------

/// Fingerprint of everything a recycled arena could leak: metrics, op
/// log length, per-agent observation counters, and the current round.
fn chaos_fingerprint(net: &Network<Blob, ChaoticAgent>) -> (String, usize, Vec<(u32, u32, u32, u32)>, usize) {
    let agents = net
        .agents()
        .iter()
        .map(|a| (a.acts, a.pulls_answered, a.received, a.replies_seen))
        .collect();
    (
        format!("{:?}", net.metrics()),
        net.oplog().len(),
        agents,
        net.round(),
    )
}

/// Run a fresh network over `topology` and return its fingerprint.
fn fresh_run(topology: Topology, seed: u64, rounds: usize) -> (String, usize, Vec<(u32, u32, u32, u32)>, usize) {
    let n = topology.n();
    let agents: Vec<ChaoticAgent> = (0..n as AgentId)
        .map(|id| ChaoticAgent::new(id, seed))
        .collect();
    let mut net = Network::with_config(
        topology,
        SizeEnv::for_n(n),
        agents,
        FaultPlan::none(n),
        NetworkConfig {
            record_ops: true,
            loss_probability: 0.2,
            loss_seed: seed,
            ..NetworkConfig::default()
        },
    );
    net.run(rounds);
    chaos_fingerprint(&net)
}

/// Re-arm `net` in place over `topology` and return the trial fingerprint.
fn reset_run(
    net: &mut Network<Blob, ChaoticAgent>,
    topology: Topology,
    seed: u64,
    rounds: usize,
) -> (String, usize, Vec<(u32, u32, u32, u32)>, usize) {
    let n = topology.n();
    net.reset_into(
        topology,
        SizeEnv::for_n(n),
        FaultPlan::none(n),
        NetworkConfig {
            record_ops: true,
            loss_probability: 0.2,
            loss_seed: seed,
            ..NetworkConfig::default()
        },
        |agents, _topo| {
            agents.extend((0..n as AgentId).map(|id| ChaoticAgent::new(id, seed)))
        },
    );
    net.run(rounds);
    chaos_fingerprint(net)
}

/// `reset_into` across size and shape changes: a recycled network must
/// be indistinguishable from a fresh one when the incoming trial grows,
/// shrinks, or swaps graph family — no stale edges (the old topology's
/// connectivity must not gate deliveries) and no stale agent or scratch
/// state may survive the reset.
#[test]
fn reset_into_survives_topology_size_and_shape_changes() {
    let rounds = 12;
    // A trial sequence that exercises grow, shrink, and family changes:
    // complete(8) → complete(24) grow → ring(24) family change at equal
    // size → random_regular(40, 6) grow+family → complete(6) shrink.
    let trials: Vec<(Topology, u64)> = vec![
        (Topology::complete(8), 10),
        (Topology::complete(24), 11),
        (Topology::ring(24), 12),
        (Topology::random_regular(40, 6, 99), 13),
        (Topology::complete(6), 14),
    ];
    // Arena: one network driven through every trial in sequence.
    let first = &trials[0];
    let agents: Vec<ChaoticAgent> = (0..first.0.n() as AgentId)
        .map(|id| ChaoticAgent::new(id, first.1))
        .collect();
    let mut arena = Network::with_config(
        first.0.clone(),
        SizeEnv::for_n(first.0.n()),
        agents,
        FaultPlan::none(first.0.n()),
        NetworkConfig {
            record_ops: true,
            loss_probability: 0.2,
            loss_seed: first.1,
            ..NetworkConfig::default()
        },
    );
    arena.run(rounds);
    assert_eq!(
        chaos_fingerprint(&arena),
        fresh_run(first.0.clone(), first.1, rounds),
        "trial 0 (construction) must match a fresh run"
    );
    for (i, (topology, seed)) in trials.iter().enumerate().skip(1) {
        let got = reset_run(&mut arena, topology.clone(), *seed, rounds);
        let want = fresh_run(topology.clone(), *seed, rounds);
        assert_eq!(
            got, want,
            "trial {i} ({:?} n={}) leaked state through reset_into",
            std::mem::discriminant(topology),
            topology.n()
        );
    }
}

/// The same grow/shrink/family sequence through the *staged* engine:
/// the staged scratch (CSR ledgers, reply slots, plan buffers) is also
/// recycled by `reset_into` and must never leak across shapes either.
#[test]
fn reset_into_recycles_staged_scratch_across_shapes() {
    use gossip_net::rng::RngDiscipline;
    let rounds = 10;
    let run_staged_fresh = |topology: Topology, seed: u64| {
        let n = topology.n();
        let agents: Vec<ChaoticAgent> =
            (0..n as AgentId).map(|id| ChaoticAgent::new(id, seed)).collect();
        let mut net = Network::with_config(
            topology,
            SizeEnv::for_n(n),
            agents,
            FaultPlan::none(n),
            NetworkConfig {
                record_ops: true,
                loss_probability: 0.3,
                loss_seed: seed,
                rng_discipline: RngDiscipline::PerAgent,
                threads: 3,
                ..NetworkConfig::default()
            },
        );
        net.run_staged(rounds);
        chaos_fingerprint(&net)
    };
    let trials: Vec<(Topology, u64)> = vec![
        (Topology::complete(9), 20),
        (Topology::ring(30), 21),      // grow + family change
        (Topology::complete(5), 22),   // shrink
        (Topology::random_regular(16, 4, 7), 23),
    ];
    let first = &trials[0];
    let agents: Vec<ChaoticAgent> = (0..first.0.n() as AgentId)
        .map(|id| ChaoticAgent::new(id, first.1))
        .collect();
    let mut arena = Network::with_config(
        first.0.clone(),
        SizeEnv::for_n(first.0.n()),
        agents,
        FaultPlan::none(first.0.n()),
        NetworkConfig {
            record_ops: true,
            loss_probability: 0.3,
            loss_seed: first.1,
            rng_discipline: RngDiscipline::PerAgent,
            threads: 3,
            ..NetworkConfig::default()
        },
    );
    arena.run_staged(rounds);
    assert_eq!(chaos_fingerprint(&arena), run_staged_fresh(first.0.clone(), first.1));
    for (topology, seed) in trials.iter().skip(1) {
        let n = topology.n();
        arena.reset_into(
            topology.clone(),
            SizeEnv::for_n(n),
            FaultPlan::none(n),
            NetworkConfig {
                record_ops: true,
                loss_probability: 0.3,
                loss_seed: *seed,
                rng_discipline: RngDiscipline::PerAgent,
                threads: 3,
                ..NetworkConfig::default()
            },
            |agents, _| agents.extend((0..n as AgentId).map(|id| ChaoticAgent::new(id, *seed))),
        );
        arena.run_staged(rounds);
        assert_eq!(
            chaos_fingerprint(&arena),
            run_staged_fresh(topology.clone(), *seed),
            "staged scratch leaked across reset_into (n={n})"
        );
    }
}
