//! Staged-engine replay properties.
//!
//! The staged engine's exchange stage compiles each round's op list into
//! a CSR delivery ledger. Loss-free, that ledger must *replay the
//! monolithic engine exactly*: same metrics, same operations and same
//! observations in every agent — for any topology, any fault plan,
//! and any shard count (the two disciplines differ only in their loss
//! streams, and a `p = 0` round draws none). This suite pins that with
//! one property test quantified over `topology × fault plan`, the CSR
//! ledger's only cross-engine check, plus the per-agent discipline's
//! shard invariance under loss and the sharded metering merge.

use gossip_net::dynamics::LossSchedule;
use gossip_net::fault::{FaultPlan, Placement};
use gossip_net::metrics::Metrics;
use gossip_net::network::{Network, NetworkConfig};
use gossip_net::rng::RngDiscipline;
use gossip_net::size::{MsgSize, SizeEnv};
use gossip_net::topology::Topology;
use gossip_net::{Agent, AgentId, Op, RoundCtx};
use proptest::prelude::*;

#[derive(Clone, Debug, PartialEq)]
struct Num(u64);
impl MsgSize for Num {
    fn size_bits(&self, _env: &SizeEnv) -> u64 {
        8
    }
}

/// A deterministic mixed-traffic agent: its op each round is a pure
/// function of `(id, round)` — pushes, pulls, and silence all occur, and
/// targets sweep the whole id space so off-edge sends, faulty targets,
/// and self-delivery all happen. Records every push it makes and every
/// observation; each pull it makes shows as its reply, answered or not.
struct Weaver {
    id: AgentId,
    n: usize,
    pushed: Vec<(usize, AgentId)>,
    heard: Vec<(usize, AgentId, u64)>,
    answered: Vec<(usize, AgentId)>,
    replies: Vec<(usize, AgentId, Option<u64>)>,
}

impl Weaver {
    fn new(id: AgentId, n: usize) -> Self {
        Weaver { id, n, pushed: vec![], heard: vec![], answered: vec![], replies: vec![] }
    }
    fn observations(&self) -> String {
        format!("{:?}|{:?}|{:?}|{:?}", self.pushed, self.heard, self.answered, self.replies)
    }
}

impl Agent<Num> for Weaver {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Num>> {
        let r = ctx.round;
        let target = ((self.id as usize + r * 7 + 3) % self.n) as AgentId;
        match (self.id as usize + r) % 3 {
            0 => {
                self.pushed.push((r, target));
                Some(Op::push(target, Num(self.id as u64 * 1000 + r as u64)))
            }
            1 => Some(Op::pull(target, Num(r as u64))),
            _ => None,
        }
    }
    fn on_pull(&mut self, from: AgentId, _q: &Num, ctx: &RoundCtx) -> Option<Num> {
        self.answered.push((ctx.round, from));
        // Decline every third answer so unanswered pulls also arise from
        // *choice*, not just masks.
        if (self.id as usize + ctx.round).is_multiple_of(3) {
            None
        } else {
            Some(Num(self.id as u64))
        }
    }
    fn on_push(&mut self, from: AgentId, msg: &Num, ctx: &RoundCtx) {
        self.heard.push((ctx.round, from, msg.0));
    }
    fn on_reply(&mut self, from: AgentId, reply: Option<Num>, ctx: &RoundCtx) {
        self.replies.push((ctx.round, from, reply.map(|m| m.0)));
    }
}

fn build_topology(kind: u8, n: usize, seed: u64) -> Topology {
    match kind {
        0 => Topology::complete(n),
        1 => Topology::ring(n),
        2 => Topology::erdos_renyi(n, 0.3, seed),
        _ => {
            let d = 4.min(n - 1);
            let d = if (n * d).is_multiple_of(2) { d } else { d - 1 };
            if d == 0 {
                Topology::complete(n)
            } else {
                Topology::random_regular(n, d, seed)
            }
        }
    }
}

fn build_faults(n: usize, frac: f64, placement: u8, seed: u64) -> FaultPlan {
    if frac <= 0.0 {
        return FaultPlan::none(n);
    }
    let placement = match placement % 3 {
        0 => Placement::LowIds,
        1 => Placement::HighIds,
        _ => Placement::Random { seed },
    };
    FaultPlan::fraction(n, frac, placement)
}

type Observation = (Metrics, Vec<String>, usize);

/// A loss-free run: `None` = the monolithic `step()`, `Some(t)` = the
/// staged `PerAgent` pipeline on `t` shards.
fn run_engine(
    engine_threads: Option<usize>,
    topology: &Topology,
    faults: &FaultPlan,
    rounds: usize,
) -> Observation {
    let n = topology.n();
    let agents: Vec<Weaver> = (0..n as AgentId).map(|id| Weaver::new(id, n)).collect();
    let config = NetworkConfig {
        rng_discipline: match engine_threads {
            None => RngDiscipline::Sequential,
            Some(_) => RngDiscipline::PerAgent,
        },
        threads: engine_threads.unwrap_or(1),
        ..NetworkConfig::default()
    };
    let mut net = Network::with_config(
        topology.clone(),
        SizeEnv::for_n(n),
        agents,
        faults.clone(),
        config,
    );
    match engine_threads {
        None => net.run(rounds),
        Some(_) => net.run_staged(rounds),
    }
    let obs = net.agents().iter().map(|a| a.observations()).collect();
    (net.metrics().clone(), obs, net.round())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE replay property: for any topology family and fault plan, the
    /// loss-free staged `PerAgent` pipeline produces the monolithic
    /// engine's *exact* metrics and every agent's exact operations and
    /// observations — at 1, 2, and 5 shards.
    #[test]
    fn csr_ledger_replays_legacy_delivery_order(
        topo_kind in 0u8..4,
        n in 6usize..28,
        topo_seed in 0u64..1000,
        fault_frac in prop_oneof![Just(0.0), Just(0.2), Just(0.45)],
        placement in 0u8..3,
        fault_seed in 0u64..1000,
    ) {
        let topology = build_topology(topo_kind, n, topo_seed);
        let faults = build_faults(n, fault_frac, placement, fault_seed);
        let rounds = 9;
        let legacy = run_engine(None, &topology, &faults, rounds);
        for threads in [1usize, 2, 5] {
            let staged = run_engine(Some(threads), &topology, &faults, rounds);
            prop_assert_eq!(
                &staged.0, &legacy.0,
                "metrics diverged (threads={}, topo={}, n={})", threads, topo_kind, n
            );
            prop_assert_eq!(
                &staged.1, &legacy.1,
                "agent operations or observations diverged (threads={})", threads
            );
            prop_assert_eq!(staged.2, legacy.2);
        }
    }

    /// The per-agent discipline never replays the sequential loss
    /// pattern (different streams), but its own output is invariant in
    /// the shard count for the same quantified matrix.
    #[test]
    fn per_agent_discipline_is_shard_invariant_everywhere(
        topo_kind in 0u8..4,
        n in 6usize..24,
        topo_seed in 0u64..1000,
        fault_frac in prop_oneof![Just(0.0), Just(0.3)],
        placement in 0u8..3,
        fault_seed in 0u64..1000,
        loss_p in prop_oneof![Just(0.0), Just(0.35)],
        loss_seed in 0u64..1000,
    ) {
        let topology = build_topology(topo_kind, n, topo_seed);
        let faults = build_faults(n, fault_frac, placement, fault_seed);
        let run = |threads: usize| {
            let agents: Vec<Weaver> =
                (0..n as AgentId).map(|id| Weaver::new(id, n)).collect();
            let mut net = Network::with_config(
                topology.clone(),
                SizeEnv::for_n(n),
                agents,
                faults.clone(),
                NetworkConfig {
                    loss: LossSchedule::constant(loss_p),
                    loss_seed,
                    rng_discipline: RngDiscipline::PerAgent,
                    threads,
                    ..NetworkConfig::default()
                },
            );
            net.run_staged(8);
            let obs: Vec<String> = net.agents().iter().map(|a| a.observations()).collect();
            (net.metrics().clone(), obs)
        };
        let one = run(1);
        for threads in [2usize, 7] {
            let t = run(threads);
            prop_assert_eq!(&t, &one, "per-agent output changed at threads={}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sharded send-time metering contract: folding an op stream into
    /// per-shard [`Tally`]s (the staged engine's contiguous chunking) and
    /// merging them in shard order via [`Metrics::record_bulk`] is
    /// bit-identical to walking the stream sequentially through
    /// [`Metrics::record_message`] — sums and maxes commute, and phase
    /// attribution lands in the same scope either way.
    #[test]
    fn sharded_tally_merge_equals_sequential_metering(
        bits in prop::collection::vec(0u64..100_000, 0..300),
        shards in 1usize..12,
        phased in any::<bool>(),
    ) {
        use gossip_net::metrics::Tally;

        // Sequential spelling: one record_message per message, in order.
        let mut seq = Metrics::default();
        if phased {
            seq.enter_phase("find-min");
        }
        for &b in &bits {
            seq.record_message(b);
        }

        // Sharded spelling: contiguous chunks (the engine's op-range
        // split), one exact Tally per shard, merged in shard order.
        let mut sharded = Metrics::default();
        if phased {
            sharded.enter_phase("find-min");
        }
        let chunk = bits.len().div_ceil(shards).max(1);
        let mut tallies = vec![Tally::default(); shards];
        for (s, part) in bits.chunks(chunk).enumerate() {
            for &b in part {
                tallies[s].record(b);
            }
        }
        for t in &tallies {
            sharded.record_bulk(t, 0);
        }
        prop_assert_eq!(&sharded, &seq, "sharded metering diverged");

        // The pure Tally algebra underneath: merge of the per-shard
        // tallies equals one sequential tally.
        let mut one = Tally::default();
        for &b in &bits {
            one.record(b);
        }
        let mut merged = Tally::default();
        for t in &tallies {
            merged.merge(t);
        }
        prop_assert_eq!(merged, one);
    }
}
