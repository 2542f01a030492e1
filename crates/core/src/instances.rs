//! The instance plane: multiplex many concurrent protocol instances
//! over one GOSSIP network.
//!
//! Each network node hosts one *cell* per instance; a [`MuxAgent`] is
//! the node-level multiplexer that drives every cell it hosts, batches
//! all instance payloads sharing an `(edge, round)` pair into one wire
//! message ([`Batch`]), and demultiplexes arriving batches back to the
//! addressed cells. Every instance individually still plays by GOSSIP
//! rules — at most one active operation per round *per instance* — the
//! node merely aggregates their traffic, which is the standard
//! multi-tenancy picture for gossip substrates (one physical overlay,
//! many logical dissemination streams).
//!
//! ## Guarantees
//!
//! * **One path.** Every plan runs the phase clock
//!   ([`crate::runner::drive_phases`]) over
//!   [`crate::runner::drive_network`]'s windows, and every instance acts
//!   on the engine's round from round 0. Loss, faults and partitions
//!   apply in the engine, per wire message: a lost batch loses every
//!   part. A singleton [`Batch`] is bit-for-bit the size of its bare
//!   payload, so a one-consensus plan is *digest-identical* to
//!   [`crate::run_protocol`] (pinned by `tests/dispatch_equivalence.rs`
//!   and a golden row).
//! * **Seed independence.** Instance `j > 0` seeds all its private coins
//!   from `derive_seed(master, INSTANCE_BASE + j)`. On a loss-free
//!   network, adding or removing an instance therefore never perturbs
//!   another instance's report — E17's interference table pins
//!   instance 0's report with 0 and 10³ co-hosted neighbours.
//!
//! ## Metering
//!
//! Per-instance meters charge **payload bits only**, at send time; the
//! batch's instance-tag overhead ([`crate::msg::INSTANCE_TAG_BITS`] per
//! non-first part) and every engine suppression (loss, off-edge,
//! partition, crashed receiver) appear only in the *aggregate* engine
//! metrics, so an instance's `undelivered` reads 0.
//!
//! ## Priority classes
//!
//! A plan may cap each node's sends with
//! [`InstancePlan::send_budget`]: per round, [`Priority::High`] cells
//! spend the budget first (rotating within a class for fairness), and a
//! budget-skipped *pull* is observed by its cell as peer silence — a
//! deferred `on_reply(None)` delivered before the cell next acts.

use crate::agent_plane::AgentSlot;
use crate::engine::ProtocolCore;
use crate::msg::{Batch, Msg};
use crate::outcome::{Decision, Outcome};
use crate::payload::PayloadPool;
use crate::runner::{
    drive_network, network_ingredients, report_of_agents, streams, RunConfig, RunReport,
};
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::AgentId;
use gossip_net::metrics::{Metrics, Tally};
use gossip_net::network::Network;
use gossip_net::rng::{derive_seed, DetRng};
use gossip_net::size::{MsgSize, SizeEnv};
use std::collections::VecDeque;
use std::sync::Arc;

/// Stream label separating instance `j`'s private randomness from the
/// master seed: instance 0 uses the master seed itself (legacy-exact),
/// instance `j > 0` uses `derive_seed(master, INSTANCE_BASE + j)`.
pub const INSTANCE_BASE: u64 = 0x1257_0000;

/// Per-agent RNG stream base for rumor-vote cells (the consensus cells
/// reuse the legacy `streams::AGENT_BASE`, off the instance seed).
const RUMOR_AGENT_BASE: u64 = 0xB0B0_0000;

/// What protocol an instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceKind {
    /// The paper's rational-fair-consensus protocol `P`.
    Consensus,
    /// k-of-n rumor voting: a single source starts a rumor, every agent
    /// that learns it adds its own vote, and an agent *decides* once it
    /// has seen `k` distinct voters (push-pull spreading).
    RumorVote {
        /// Votes required to decide.
        k: usize,
    },
}

/// Send-budget priority class of an instance (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Served first when a send budget is set.
    High,
    /// Served from whatever budget remains.
    Low,
}

/// One instance in a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceSpec {
    /// Protocol this instance runs.
    pub kind: InstanceKind,
    /// Send-budget class.
    pub priority: Priority,
}

impl InstanceSpec {
    /// A high-priority instance.
    pub fn new(kind: InstanceKind) -> Self {
        InstanceSpec { kind, priority: Priority::High }
    }

    /// Set the priority class.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }
}

/// The set of concurrent instances one [`run_plane`] call multiplexes.
#[derive(Debug, Clone, PartialEq)]
pub struct InstancePlan {
    /// The instances, index-addressed (the index is the wire tag).
    pub specs: Vec<InstanceSpec>,
    /// Per-node, per-round cap on active operations across all hosted
    /// instances (`None` = every instance acts every round).
    pub send_budget: Option<usize>,
}

impl InstancePlan {
    /// `count` consensus instances, all high priority.
    /// `consensus(1)` runs exactly what [`crate::run_protocol`] runs.
    pub fn consensus(count: usize) -> Self {
        InstancePlan {
            specs: vec![InstanceSpec::new(InstanceKind::Consensus); count],
            send_budget: None,
        }
    }

    /// `count` k-of-n rumor-vote instances.
    pub fn rumor(count: usize, k: usize) -> Self {
        InstancePlan {
            specs: vec![InstanceSpec::new(InstanceKind::RumorVote { k }); count],
            send_budget: None,
        }
    }

    /// Append an instance.
    pub fn with_spec(mut self, spec: InstanceSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Cap per-node sends per round (priority classes split it).
    pub fn budget(mut self, ops_per_round: usize) -> Self {
        self.send_budget = Some(ops_per_round);
        self
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the plan is empty (invalid for [`run_plane`]).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// A fixed-width bitmap of agent ids that have voted for a rumor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoterSet {
    n: u32,
    words: Vec<u64>,
}

impl VoterSet {
    /// The empty set over `n` agents.
    pub fn empty(n: usize) -> Self {
        VoterSet { n: n as u32, words: vec![0; n.div_ceil(64)] }
    }

    /// Add a voter; returns true if it was new.
    pub fn insert(&mut self, id: AgentId) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Is `id` in the set?
    pub fn contains(&self, id: AgentId) -> bool {
        self.words[id as usize / 64] & (1 << (id as usize % 64)) != 0
    }

    /// Union another set into this one.
    pub fn union_with(&mut self, other: &VoterSet) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of voters.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitmap width in bits (= `n`), its wire size.
    pub fn width_bits(&self) -> u64 {
        self.n as u64
    }
}

/// Wire messages of the k-of-n rumor-vote instance kind.
#[derive(Debug, Clone, PartialEq)]
pub enum RumorVoteMsg {
    /// "Tell me the rumor and its votes" (pull query).
    Query,
    /// The rumor's value plus the bitmap of known voters.
    Votes {
        /// The rumor payload.
        value: u64,
        /// Every voter the sender knows of.
        voters: VoterSet,
    },
}

/// One instance's payload on the multiplexed wire.
#[derive(Debug, Clone, PartialEq)]
pub enum InstPayload {
    /// A consensus-protocol message.
    Consensus(Msg),
    /// A rumor-vote message.
    Rumor(RumorVoteMsg),
}

impl MsgSize for InstPayload {
    fn size_bits(&self, env: &SizeEnv) -> u64 {
        match self {
            InstPayload::Consensus(m) => m.size_bits(env),
            InstPayload::Rumor(RumorVoteMsg::Query) => SizeEnv::TAG_BITS,
            InstPayload::Rumor(RumorVoteMsg::Votes { voters, .. }) => {
                SizeEnv::TAG_BITS + env.value_bits as u64 + voters.width_bits()
            }
        }
    }
}

/// The multiplexed wire message: instance payloads batched per edge.
pub type PlaneMsg = Batch<InstPayload>;

/// Per-agent state of one k-of-n rumor-vote instance.
#[derive(Debug)]
pub struct RumorVoteCore {
    id: AgentId,
    k: usize,
    rng: DetRng,
    /// `Some((value, voters))` once informed.
    known: Option<(u64, VoterSet)>,
    /// Round at which this agent first saw `k` voters.
    pub decided_at: Option<usize>,
}

impl RumorVoteCore {
    /// A fresh cell; the source agent starts informed with its own vote.
    pub fn new(id: AgentId, n: usize, k: usize, value: u64, source: AgentId, rng: DetRng) -> Self {
        let mut core = RumorVoteCore { id, k, rng, known: None, decided_at: None };
        if id == source {
            let mut voters = VoterSet::empty(n);
            voters.insert(id);
            core.known = Some((value, voters));
            core.check_decided(0);
        }
        core
    }

    fn check_decided(&mut self, round: usize) {
        if self.decided_at.is_none()
            && self.known.as_ref().is_some_and(|(_, v)| v.count() >= self.k)
        {
            self.decided_at = Some(round);
        }
    }

    /// Merge an incoming vote set (and cast our own vote).
    fn absorb(&mut self, value: u64, voters: &VoterSet, round: usize) {
        match &mut self.known {
            Some((_, mine)) => mine.union_with(voters),
            None => {
                let mut mine = voters.clone();
                mine.insert(self.id);
                self.known = Some((value, mine));
            }
        }
        self.check_decided(round);
    }

    /// PushPull spreading: uninformed agents pull; informed-but-
    /// undecided agents alternate pushing their votes (spreading) with
    /// pulling (collecting votes they are still missing — one pull of
    /// any already-decided peer closes the gap); decided agents go
    /// passive but keep answering pulls.
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<RumorVoteMsg>> {
        if self.decided_at.is_some() {
            return None;
        }
        let peer = ctx.topology.sample_peer(self.id, &mut self.rng);
        match &self.known {
            Some((value, voters)) if ctx.round.is_multiple_of(2) => Some(Op::push(
                peer,
                RumorVoteMsg::Votes { value: *value, voters: voters.clone() },
            )),
            Some(_) | None => Some(Op::pull(peer, RumorVoteMsg::Query)),
        }
    }

    fn on_pull(&mut self) -> Option<RumorVoteMsg> {
        self.known
            .as_ref()
            .map(|(value, voters)| RumorVoteMsg::Votes { value: *value, voters: voters.clone() })
    }

    fn on_msg(&mut self, msg: &RumorVoteMsg, round: usize) {
        if let RumorVoteMsg::Votes { value, voters } = msg {
            self.absorb(*value, voters, round);
        }
    }
}

/// One hosted instance inside a [`MuxAgent`].
struct Cell {
    priority: Priority,
    inner: CellInner,
}

enum CellInner {
    Consensus(AgentSlot),
    Rumor(RumorVoteCore),
}

/// A pull this node sent and whose reply has not arrived yet:
/// the engine answers pulls strictly in op order, so a FIFO suffices.
struct PendingPull {
    peer: AgentId,
    /// The instances whose queries the pull carried, in part order.
    covered: Vec<u32>,
}

/// The node-level multiplexer: one per network slot, hosting one cell
/// per instance of the plan (see the module docs).
pub struct MuxAgent {
    env: SizeEnv,
    cells: Vec<Cell>,
    /// Cell indices by priority class, in plan order.
    high: Vec<u32>,
    low: Vec<u32>,
    send_budget: Option<usize>,
    pending_pulls: VecDeque<PendingPull>,
    /// Budget-skipped pulls owed a synthetic `on_reply(None)`:
    /// `(instance, peer it meant to pull, round of the skipped pull)`.
    deferred_silence: Vec<(u32, AgentId, usize)>,
    /// Per-instance send meters (payload bits only; see module docs).
    inst_sent: Vec<Tally>,
    /// Scratch: `(peer, kind) -> out-op slot + 1` for batch grouping.
    group_slot: Vec<u32>,
    touched: Vec<usize>,
}

impl MuxAgent {
    fn new(env: SizeEnv, cells: Vec<Cell>, send_budget: Option<usize>) -> Self {
        let mut high = Vec::new();
        let mut low = Vec::new();
        for (j, c) in cells.iter().enumerate() {
            match c.priority {
                Priority::High => high.push(j as u32),
                Priority::Low => low.push(j as u32),
            }
        }
        let k = cells.len();
        MuxAgent {
            env,
            cells,
            high,
            low,
            send_budget,
            pending_pulls: VecDeque::new(),
            deferred_silence: Vec::new(),
            inst_sent: vec![Tally::default(); k],
            group_slot: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Deliver the synthetic silences owed to budget-skipped pulls.
    fn flush_deferred(&mut self, ctx: &RoundCtx) {
        for (inst, peer, round) in self.deferred_silence.drain(..) {
            if let CellInner::Consensus(slot) = &mut self.cells[inst as usize].inner {
                let silent = RoundCtx {
                    round,
                    topology: ctx.topology,
                };
                slot.on_reply(peer, None, &silent);
            }
        }
    }

    /// One cell's intended op this round.
    fn cell_intent(&mut self, j: u32, ctx: &RoundCtx) -> Option<Op<InstPayload>> {
        match &mut self.cells[j as usize].inner {
            CellInner::Consensus(slot) => {
                slot.act(ctx).map(|op| map_op(op, InstPayload::Consensus))
            }
            CellInner::Rumor(core) => core.act(ctx).map(|op| map_op(op, InstPayload::Rumor)),
        }
    }

    /// Append `(instance, op)` to the batched out-ops, merging ops that
    /// share `(peer, kind)` into one wire message.
    fn group_into(
        &mut self,
        out: &mut Vec<Op<PlaneMsg>>,
        out_base: usize,
        inst: u32,
        op: Op<InstPayload>,
    ) {
        // group_slot was sized to 2·n by act_multi before any grouping.
        let (peer, is_pull, payload) = match op {
            Op::Push { to, msg } => (to, false, msg),
            Op::Pull { from, query } => (from, true, query),
        };
        self.inst_sent[inst as usize].record(payload.size_bits(&self.env));
        let key = peer as usize * 2 + is_pull as usize;
        match self.group_slot[key] {
            0 => {
                let batch = Batch::single(inst, payload);
                out.push(if is_pull {
                    Op::Pull { from: peer, query: batch }
                } else {
                    Op::Push { to: peer, msg: batch }
                });
                self.group_slot[key] = (out.len() - out_base) as u32;
                self.touched.push(key);
            }
            slot => {
                match &mut out[out_base + slot as usize - 1] {
                    Op::Push { msg, .. } => msg.push(inst, payload),
                    Op::Pull { query, .. } => query.push(inst, payload),
                }
            }
        }
    }
}

fn map_op<A, B>(op: Op<A>, f: impl FnOnce(A) -> B) -> Op<B> {
    match op {
        Op::Push { to, msg } => Op::Push { to, msg: f(msg) },
        Op::Pull { from, query } => Op::Pull { from, query: f(query) },
    }
}

impl Agent<PlaneMsg> for MuxAgent {
    /// The plane acts via [`Agent::act_multi`] only; the async engine
    /// (which calls `act`) does not drive instance planes.
    fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<PlaneMsg>> {
        None
    }

    fn act_multi(&mut self, ctx: &RoundCtx, out: &mut Vec<Op<PlaneMsg>>) {
        self.flush_deferred(ctx);
        if self.group_slot.len() < 2 * ctx.n() {
            self.group_slot.resize(2 * ctx.n(), 0);
        }
        let out_base = out.len();
        let mut budget = self.send_budget.unwrap_or(usize::MAX);
        for class in [std::mem::take(&mut self.high), std::mem::take(&mut self.low)] {
            // Rotate the class start index by round so a tight budget is
            // shared fairly within a class (no-op when unbudgeted).
            let offset = if self.send_budget.is_some() && !class.is_empty() {
                ctx.round % class.len()
            } else {
                0
            };
            for k in 0..class.len() {
                let j = class[(k + offset) % class.len()];
                let Some(op) = self.cell_intent(j, ctx) else { continue };
                if budget == 0 {
                    // Over budget: the op is suppressed on the wire. A
                    // suppressed pull is owed a synthetic silence so the
                    // cell observes "peer did not answer".
                    if let Op::Pull { from: peer, .. } = op {
                        self.deferred_silence.push((j, peer, ctx.round));
                    }
                    continue;
                }
                budget -= 1;
                self.group_into(out, out_base, j, op);
            }
            match (self.high.is_empty(), self.low.is_empty()) {
                (true, _) => self.high = class,
                (_, true) => self.low = class,
                _ => unreachable!("class vectors restored twice"),
            }
        }
        // Register pending pulls in op order (the engine answers them in
        // exactly this order) and reset the grouping scratch.
        for op in &out[out_base..] {
            if let Op::Pull { from, query } = op {
                let covered = query.parts().iter().map(|p| p.instance).collect();
                self.pending_pulls.push_back(PendingPull { peer: *from, covered });
            }
        }
        for key in self.touched.drain(..) {
            self.group_slot[key] = 0;
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &PlaneMsg, ctx: &RoundCtx) -> Option<PlaneMsg> {
        let mut reply: Option<PlaneMsg> = None;
        for part in query.parts() {
            let inst = part.instance;
            let answer = match (&mut self.cells[inst as usize].inner, &part.payload) {
                (CellInner::Consensus(slot), InstPayload::Consensus(q)) => {
                    slot.on_pull(from, q, ctx).map(InstPayload::Consensus)
                }
                (CellInner::Rumor(core), InstPayload::Rumor(_)) => {
                    core.on_pull().map(InstPayload::Rumor)
                }
                _ => {
                    debug_assert!(false, "instance {inst}: payload kind mismatch");
                    None
                }
            };
            if let Some(payload) = answer {
                self.inst_sent[inst as usize].record(payload.size_bits(&self.env));
                reply.get_or_insert_with(Batch::new).push(inst, payload);
            }
        }
        reply
    }

    fn on_push(&mut self, from: AgentId, msg: &PlaneMsg, ctx: &RoundCtx) {
        for part in msg.parts() {
            let inst = part.instance;
            match (&mut self.cells[inst as usize].inner, &part.payload) {
                (CellInner::Consensus(slot), InstPayload::Consensus(m)) => {
                    slot.on_push(from, m, ctx)
                }
                (CellInner::Rumor(core), InstPayload::Rumor(m)) => core.on_msg(m, ctx.round),
                _ => debug_assert!(false, "instance {inst}: payload kind mismatch"),
            }
        }
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<PlaneMsg>, ctx: &RoundCtx) {
        let pending = self
            .pending_pulls
            .pop_front()
            .expect("reply delivered with no pull outstanding");
        debug_assert_eq!(pending.peer, from, "replies must arrive in pull order");
        let mut parts = reply.map(Batch::into_parts).unwrap_or_default().into_iter().peekable();
        for inst in pending.covered {
            // The pullee preserved part order and only omitted silent
            // parts, so a single forward pass pairs them back up.
            let payload = match parts.peek() {
                Some(p) if p.instance == inst => parts.next().map(|p| p.payload),
                _ => None,
            };
            match (&mut self.cells[inst as usize].inner, payload) {
                (CellInner::Consensus(slot), Some(InstPayload::Consensus(m))) => {
                    slot.on_reply(from, Some(m), ctx)
                }
                (CellInner::Consensus(slot), None) => slot.on_reply(from, None, ctx),
                (CellInner::Rumor(core), Some(InstPayload::Rumor(m))) => core.on_msg(&m, ctx.round),
                (CellInner::Rumor(_), None) => {}
                _ => debug_assert!(false, "instance {inst}: payload kind mismatch"),
            }
        }
    }

    fn finalize(&mut self, ctx: &RoundCtx) {
        self.flush_deferred(ctx);
        for cell in &mut self.cells {
            if let CellInner::Consensus(slot) = &mut cell.inner {
                slot.finalize(ctx);
            }
        }
    }
}

// The staged engine shards `Vec<MuxAgent>` across worker threads and
// hands shards shared `&PlaneMsg` deliveries.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<MuxAgent>();
    assert_send::<PlaneMsg>();
    assert_sync::<PlaneMsg>();
};

/// Report for one instance of a plane run. On a loss-free network all
/// fields are pure functions of the instance's own seed streams and
/// traffic — adding a co-hosted instance never changes them (unless a
/// send budget couples the instances on purpose). Under loss, co-hosted
/// parts share their batch's fate.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// The spec this instance ran.
    pub spec: InstanceSpec,
    /// Consensus instances: the combined outcome over active agents.
    pub outcome: Option<Outcome>,
    /// Consensus instances: the agreed certificate's owner.
    pub winner: Option<AgentId>,
    /// Consensus instances: per-agent terminal status.
    pub decisions: Vec<Decision>,
    /// Rumor instances: per-agent round of decision.
    pub decided_at: Vec<Option<usize>>,
    /// Agents that decided (consensus: `Decided`; rumor: saw `k` votes).
    pub decided: usize,
    /// Rounds until the instance as a whole decided (rumor: the
    /// slowest active agent's decision round; consensus: the run's
    /// rounds).
    pub rounds_to_decision: Option<usize>,
    /// Payload-only meters (see module docs for the metering contract).
    pub metrics: Metrics,
}

/// Report of a whole plane run.
#[derive(Debug, Clone)]
pub struct PlaneReport {
    /// Per-instance reports, plan-ordered.
    pub instances: Vec<InstanceReport>,
    /// The engine's aggregate metrics: *all* wire traffic, including
    /// batch tag overhead and engine-suppressed deliveries.
    pub aggregate: Metrics,
    /// Engine rounds executed.
    pub rounds: usize,
    /// When instance 0 is a consensus instance: a [`RunReport`] over its
    /// cells and the aggregate engine metrics — digest-identical to
    /// [`crate::run_protocol`] on the single-instance plan.
    pub legacy: Option<RunReport>,
}

/// Execute `plan` over the network of `(cfg, seed)` (see module docs).
///
/// Every plan runs [`crate::runner::drive_network`] — the phase clock
/// over the synchronous windows, as [`crate::run_protocol`] does — with
/// the engine's own loss, faults and partitions, so a one-consensus plan
/// is bit-identical to [`crate::run_protocol`]. Good-execution audits
/// are not supported on the plane (`record_ops` must be off).
pub fn run_plane(cfg: &RunConfig, plan: &InstancePlan, seed: u64) -> PlaneReport {
    assert!(!plan.is_empty(), "an instance plan needs at least one instance");
    assert!(!cfg.record_ops, "instance planes do not support good-execution audits");
    let (params, colors0, faults, topology, env, net_cfg) = network_ingredients(cfg, seed);
    let n = cfg.n;

    // Per-instance ingredients: instance 0 replicates the legacy seed
    // streams exactly; instance j > 0 derives everything from its own
    // sub-seed, making its streams co-hosting-invariant.
    let mut per_instance_colors: Vec<Option<Vec<gossip_net::ids::ColorId>>> = Vec::new();
    let inst_seeds: Vec<u64> = (0..plan.len() as u64)
        .map(|j| if j == 0 { seed } else { derive_seed(seed, INSTANCE_BASE + j) })
        .collect();
    for (j, spec) in plan.specs.iter().enumerate() {
        per_instance_colors.push(match spec.kind {
            InstanceKind::Consensus => Some(if j == 0 {
                colors0.clone()
            } else {
                cfg.assign_colors(inst_seeds[j])
            }),
            InstanceKind::RumorVote { .. } => None,
        });
    }

    // One payload pool per consensus instance: instances never see each
    // other's certificates or lists, and each keeps one slot per agent.
    let pools: Vec<Option<Arc<PayloadPool>>> = plan
        .specs
        .iter()
        .map(|spec| {
            matches!(spec.kind, InstanceKind::Consensus).then(|| PayloadPool::for_network(params))
        })
        .collect();
    let agents: Vec<MuxAgent> = (0..n)
        .map(|i| {
            let cells = plan
                .specs
                .iter()
                .enumerate()
                .map(|(j, spec)| {
                    let inner = match spec.kind {
                        InstanceKind::Consensus => {
                            let colors = per_instance_colors[j].as_ref().expect("consensus colors");
                            let rng = DetRng::seeded(inst_seeds[j], streams::AGENT_BASE + i as u64);
                            let pool = pools[j].as_ref().expect("consensus pool");
                            let core = PayloadPool::building(pool, || {
                                ProtocolCore::new_on(
                                    &topology,
                                    i as AgentId,
                                    params,
                                    params.sync_schedule(),
                                    colors[i],
                                    rng,
                                )
                            });
                            CellInner::Consensus(AgentSlot::honest(core))
                        }
                        InstanceKind::RumorVote { k } => {
                            let rng = DetRng::seeded(inst_seeds[j], RUMOR_AGENT_BASE + i as u64);
                            CellInner::Rumor(RumorVoteCore::new(
                                i as AgentId,
                                n,
                                k,
                                j as u64 + 1,
                                (j % n) as AgentId,
                                rng,
                            ))
                        }
                    };
                    Cell {
                        priority: spec.priority,
                        inner,
                    }
                })
                .collect();
            MuxAgent::new(env, cells, plan.send_budget)
        })
        .collect();

    let mut net = Network::with_config(topology, env, agents, faults, net_cfg);
    drive_network(&mut net, cfg);

    collect_plane_report(&net, cfg, plan)
}

fn collect_plane_report(
    net: &Network<PlaneMsg, MuxAgent>,
    cfg: &RunConfig,
    plan: &InstancePlan,
) -> PlaneReport {
    let faults = net.fault_state();
    let n = net.n();
    let mut instances = Vec::with_capacity(plan.len());
    for (j, spec) in plan.specs.iter().enumerate() {
        // Payload meters: sum every node's per-instance tallies.
        let mut tally = Tally::default();
        for a in net.agents() {
            tally.merge(&a.inst_sent[j]);
        }
        let mut metrics = Metrics::new();
        metrics.record_bulk(&tally, 0);
        metrics.rounds = net.round() as u64;

        let mut report = InstanceReport {
            spec: *spec,
            outcome: None,
            winner: None,
            decisions: Vec::new(),
            decided_at: Vec::new(),
            decided: 0,
            rounds_to_decision: None,
            metrics,
        };
        match spec.kind {
            InstanceKind::Consensus => {
                let r = report_of_agents(
                    consensus_slots(net, j),
                    faults,
                    cfg,
                    net.round(),
                    Metrics::new(),
                );
                report.decided =
                    r.decisions.iter().filter(|d| matches!(d, Decision::Decided(_))).count();
                report.rounds_to_decision = r.outcome.is_consensus().then_some(net.round());
                report.outcome = Some(r.outcome);
                report.winner = r.winner;
                report.decisions = r.decisions;
            }
            InstanceKind::RumorVote { .. } => {
                let mut decided_at = Vec::with_capacity(n);
                let mut all = true;
                let mut slowest = 0usize;
                for i in 0..n as AgentId {
                    let CellInner::Rumor(core) = &net.agent(i).cells[j].inner else {
                        unreachable!("cell kind matches spec kind")
                    };
                    decided_at.push(core.decided_at);
                    if !faults.is_down(i) {
                        match core.decided_at {
                            Some(r) => slowest = slowest.max(r),
                            None => all = false,
                        }
                    }
                }
                report.decided = decided_at.iter().flatten().count();
                report.rounds_to_decision = all.then_some(slowest);
                report.decided_at = decided_at;
            }
        }
        instances.push(report);
    }

    // Instance 0's report shaped exactly like `collect_report`'s output,
    // so the single-instance plane run digests identically to
    // `run_protocol`.
    let legacy = (plan.specs[0].kind == InstanceKind::Consensus).then(|| {
        report_of_agents(
            consensus_slots(net, 0),
            faults,
            cfg,
            net.round(),
            net.metrics().clone(),
        )
    });

    PlaneReport {
        instances,
        aggregate: net.metrics().clone(),
        rounds: net.round(),
        legacy,
    }
}

/// Instance `j`'s consensus slots, id-indexed.
fn consensus_slots(
    net: &Network<PlaneMsg, MuxAgent>,
    j: usize,
) -> impl ExactSizeIterator<Item = &AgentSlot> {
    net.agents().iter().map(move |a| match &a.cells[j].inner {
        CellInner::Consensus(slot) => slot,
        CellInner::Rumor(_) => unreachable!("cell kind matches spec kind"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ConsensusAgent;
    use crate::ledger::{Declaration, LedgerEntry};
    use crate::params::Params;
    use gossip_net::topology::Topology;

    #[test]
    fn voter_set_counts_and_unions() {
        let mut a = VoterSet::empty(130);
        assert!(a.insert(0));
        assert!(a.insert(129));
        assert!(!a.insert(0), "reinsert is not fresh");
        let mut b = VoterSet::empty(130);
        b.insert(64);
        a.union_with(&b);
        assert_eq!(a.count(), 3);
        assert!(a.contains(64) && a.contains(129));
        assert_eq!(a.width_bits(), 130);
    }

    #[test]
    fn rumor_instances_all_decide_on_complete_graph() {
        let cfg = RunConfig::builder(16).build();
        let report = run_plane(&cfg, &InstancePlan::rumor(3, 11), 7);
        assert_eq!(report.instances.len(), 3);
        for (j, inst) in report.instances.iter().enumerate() {
            assert_eq!(inst.decided, 16, "instance {j}: every agent sees k votes");
            assert!(inst.rounds_to_decision.is_some(), "instance {j} decided");
            assert!(inst.metrics.messages_sent > 0);
        }
        assert!(report.legacy.is_none(), "rumor instance 0 has no legacy view");
    }

    #[test]
    fn consensus_instances_each_reach_consensus() {
        let cfg = RunConfig::builder(24).colors(vec![12, 12]).build();
        let report = run_plane(&cfg, &InstancePlan::consensus(3), 11);
        for (j, inst) in report.instances.iter().enumerate() {
            let outcome = inst.outcome.as_ref().expect("consensus instance");
            assert!(outcome.is_consensus(), "instance {j}: {outcome:?}");
            assert_eq!(inst.decided, 24);
        }
        // Different instance seeds: the three winners are not forced equal,
        // but each instance's initial colors respect the config's counts.
        assert!(report.legacy.is_some());
    }

    #[test]
    fn send_budget_priority_classes_skew_latency() {
        // 6 rumor instances, half Low priority, 2 ops/node/round: High
        // instances must decide no later on average than Low ones.
        let k = 12;
        let mut plan = InstancePlan { specs: Vec::new(), send_budget: Some(2) };
        for j in 0..6 {
            let prio = if j < 3 { Priority::High } else { Priority::Low };
            plan.specs
                .push(InstanceSpec::new(InstanceKind::RumorVote { k }).priority(prio));
        }
        let report = run_plane(&RunConfig::builder(16).build(), &plan, 19);
        let mean = |range: std::ops::Range<usize>| {
            let rs: Vec<usize> = range
                .filter_map(|j| report.instances[j].rounds_to_decision)
                .collect();
            assert!(!rs.is_empty(), "at least one instance in the class decided");
            rs.iter().sum::<usize>() as f64 / rs.len() as f64
        };
        assert!(
            mean(0..3) <= mean(3..6),
            "High-priority instances should not be slower than Low"
        );
    }

    #[test]
    fn plane_rejects_op_log_audits() {
        let cfg = RunConfig::builder(8).record_ops(true).build();
        let plan = InstancePlan::rumor(2, 4);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_plane(&cfg, &plan, 1)));
        assert!(err.is_err(), "record_ops must be rejected on the plane");
    }

    #[test]
    fn budget_skipped_pulls_are_silence_from_the_skipped_peer() {
        // Two consensus cells share a budget of one op per round, so in
        // a Commitment round one cell's pull is suppressed; the silence
        // it is owed must mark the peer it meant to pull, not agent 0.
        let n = 16;
        let params = Params::new(n, 4.0);
        let topo = Topology::complete(n);
        let core = |stream: u64| {
            let rng = DetRng::seeded(stream, streams::AGENT_BASE + 5);
            ProtocolCore::new_on(&topo, 5, params, params.sync_schedule(), 0, rng)
        };
        let cells = (0..2)
            .map(|j| Cell {
                priority: Priority::High,
                inner: CellInner::Consensus(AgentSlot::honest(core(j))),
            })
            .collect();
        let mut mux = MuxAgent::new(SizeEnv::for_n(n), cells, Some(1));
        let ctx = RoundCtx { round: 0, topology: &topo };
        // Round 0 starts the rotation at cell 0, so cell 1 is skipped.
        let Some(Op::Pull { from: peer, .. }) = AgentSlot::honest(core(1)).act(&ctx) else {
            panic!("an honest agent pulls in Commitment");
        };
        assert_ne!(peer, 0, "the check needs a peer other than agent 0");
        let mut out = Vec::new();
        mux.act_multi(&ctx, &mut out);
        assert_eq!(out.len(), 1, "the budget lets one op through");
        mux.flush_deferred(&ctx);
        let CellInner::Consensus(skipped) = &mux.cells[1].inner else {
            unreachable!("cell 1 is a consensus cell")
        };
        let faulty = LedgerEntry { agent: peer, round: 0, decl: Declaration::Faulty };
        assert_eq!(skipped.core().ledger.entries(), [faulty]);
    }
}
