//! The network engine: synchronous rounds and the async (sequential)
//! extension.
//!
//! [`Network::run`] executes the paper's synchronous GOSSIP model. One
//! round proceeds in four deterministic steps:
//!
//! 1. **act** — every active agent is asked (in id order) for its at most
//!    one operation. Faulty agents are never asked.
//! 2. **answer pulls** — every pull query is put to its target's
//!    [`Agent::on_pull`] (in puller-id order); replies are *computed* now
//!    but *delivered* later, so no agent's reply can depend on a message
//!    delivered in the same round. Faulty or out-of-neighborhood targets
//!    yield silence.
//! 3. **deliver pushes** — every push reaches its target's
//!    [`Agent::on_push`] (in sender-id order), unless the target is faulty
//!    (quiescent nodes drop input) or the edge does not exist.
//! 4. **deliver replies** — every puller's [`Agent::on_reply`] receives
//!    `Some(msg)` or `None`.
//!
//! The engine enforces the GOSSIP constraints *outside* the agents: one op
//! per agent per round (the `act` signature makes more impossible),
//! authenticated sender labels on every delivery, topology respected, and
//! faulty agents fully quiescent.
//!
//! # Metering contract
//!
//! Every wire message is metered via [`MsgSize`] **at send time**, in
//! both the synchronous and the asynchronous engine:
//!
//! * **pushes** — metered when sent, even if the edge does not exist,
//!   the receiver is faulty, or the loss process drops the message;
//! * **pull queries** — metered when issued, even if the query is lost
//!   or the target is faulty/unreachable;
//! * **pull replies** — metered when the pullee *produces* one (its
//!   [`Agent::on_pull`] returns `Some`), even if the reply is then lost
//!   in transit. No reply message exists — and none is metered — when
//!   the query never arrived, the target is faulty or out of
//!   neighborhood, or the pullee chooses silence.
//!
//! In short: lost messages are still metered (they were sent); messages
//! that were never sent are not. So under loss probability `p`,
//! `messages_sent == pushes + queries + produced replies` exactly, for
//! every `p`.
//!
//! **Dynamic adversity** (see [`crate::dynamics`]) extends, but never
//! changes, this contract:
//!
//! * a push or pull query addressed to a **crashed** agent (down via
//!   [`ScenarioEvent::Crash`]) is metered at send time and never
//!   delivered — exactly like one addressed to a plan-faulty agent;
//! * a push or pull query crossing an installed **partition cut** is
//!   metered at send time and never delivered — exactly like one
//!   addressed off-edge; a pull across the cut produces no reply (the
//!   query never arrived), so no reply is metered;
//! * a **recovered** agent is metered like any active agent from the
//!   round its [`ScenarioEvent::Recover`] fires;
//! * the per-round probability of a [`LossSchedule`] decides whether a
//!   message is *delivered*, never whether it is *metered*.
//!
//! Every metered-but-undelivered message (off-edge, cross-cut, faulty or
//! crashed receiver, or lost in transit) additionally increments
//! [`Metrics::undelivered`], so `messages_sent - undelivered` is the
//! exact count of handler invocations the wire produced.
//!
//! [`Network::run_async`] implements the sequential variant from the
//! paper's Conclusions: at each tick exactly one uniformly-random agent
//! wakes and performs one operation, which completes (including the pull
//! reply) before the next tick. Async metrics count **rounds ==
//! activations == ticks**, independent of fault placement. A tick sends
//! through the same two steps as a synchronous round (answer a pull,
//! deliver a push), so both engines meter, mask, draw losses and log ops
//! in one place.
//!
//! Each round model has one code path. A synchronous round under the
//! default [`RngDiscipline::Sequential`] is [`Network::step`]; under
//! [`RngDiscipline::PerAgent`] it is the staged plan → exchange → apply
//! pipeline (module [`staged`]), whose stages shard across worker
//! threads — the intra-trial parallelism axis — and which runs one
//! shard as the same pipeline at `k = 1`. [`Network::step_staged`]
//! runs one round on whichever engine the discipline selects; see the
//! [`staged`] module docs for the discipline contract and the
//! sharded-apply metering addendum.

use crate::agent::{Agent, Op, RoundCtx};
use crate::dynamics::{FaultState, LossSchedule, PartitionCut, ScenarioEvent, ScenarioScript};
use crate::fault::FaultPlan;
use crate::ids::AgentId;
use crate::metrics::Metrics;
use crate::oplog::{OpKind, OpLog};
use crate::rng::{DetRng, RngDiscipline};
use crate::size::{MsgSize, SizeEnv};
use crate::topology::Topology;

pub mod staged;

/// Engine options.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Record every active operation into an [`OpLog`] for audits.
    pub record_ops: bool,
    /// Independent per-message drop probability in `[0.0, 1.0]`, per
    /// round (failure injection; the paper's model assumes reliable
    /// channels, the default `LossSchedule::constant(0.0)`, and 1.0
    /// models total channel failure). Applies to pushes, pull queries,
    /// and pull replies; dropped messages are still metered (they were
    /// sent) but never delivered, and a dropped query or reply is
    /// indistinguishable from the peer's silence. A constant schedule
    /// with an empty scenario is the static path.
    pub loss: LossSchedule,
    /// Seed for the loss process (kept separate from agent randomness so
    /// loss patterns are reproducible and orthogonal).
    pub loss_seed: u64,
    /// Timed adversity events (churn, partitions). The empty script is
    /// the static case and takes the historical code path bit for bit.
    pub scenario: ScenarioScript,
    /// Which loss-draw discipline the run uses (see [`RngDiscipline`]),
    /// and with it the synchronous engine [`Network::step_staged`] runs:
    /// `Sequential` (the default, which keeps every historical digest)
    /// is the monolithic [`Network::step`], `PerAgent` the staged
    /// pipeline ([`staged`]). [`Network::step`] itself is always
    /// `Sequential`.
    pub rng_discipline: RngDiscipline,
    /// Worker threads for the staged pipeline's shards and for
    /// [`Network::finalize`] (`0` = available parallelism). Has **no
    /// effect on results** — output is bit-identical for every thread
    /// count — and none on a `Sequential` round, which is serial.
    pub threads: usize,
    /// Minimum agents per shard (`0` = no floor, shard exactly as
    /// `threads` says). Below the floor the effective thread count is
    /// clamped so each shard keeps at least this many agents — barrier
    /// overhead otherwise eats the win at small `n`. Pure throughput
    /// knob: clamping is as result-invisible as `threads` itself.
    pub shard_floor: usize,
    /// Accumulate a wall-clock breakdown of the staged pipeline's stages
    /// (plan/exchange/apply) into [`Network::stage_times`]. Timing never
    /// feeds engine logic, so results are identical either way; off by
    /// default to keep `Instant` calls off the hot path. `Sequential`
    /// rounds are not timed.
    pub time_stages: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            record_ops: false,
            loss: LossSchedule::constant(0.0),
            loss_seed: 0,
            scenario: ScenarioScript::new(),
            rng_discipline: RngDiscipline::Sequential,
            threads: 1,
            shard_floor: 0,
            time_stages: false,
        }
    }
}

/// Cumulative wall-clock spent in each staged-engine stage, µs
/// (see [`NetworkConfig::time_stages`]). `exchange_us` covers the
/// exchange proper plus the pull-apply leg and op-log pass — everything
/// between the plan barrier and the final delivery fan-out — and is
/// itself broken into the five sub-clocks below. Only
/// [`RngDiscipline::PerAgent`] rounds run the staged pipeline, so a
/// `Sequential` run's clocks stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Scenario replay + the sharded plan stage (including the parallel
    /// scatter of per-shard plan buffers into the flat op list).
    pub plan_us: u64,
    /// Everything between the plan barrier and the delivery fan-out
    /// (the sum of the five sub-clocks, plus loose change like the
    /// `mem::take` bookkeeping the sub-clocks don't cover).
    pub exchange_us: u64,
    /// The sharded push/reply delivery stage.
    pub apply_us: u64,
    /// Sub-clock of `exchange_us`: the send-time metering pass
    /// (per-shard exact tallies merged in shard order).
    pub meter_us: u64,
    /// Sub-clock of `exchange_us`: CSR ledger construction — histograms,
    /// the offset prefix sum, and the entry scatter.
    pub build_us: u64,
    /// Sub-clock of `exchange_us`: the op-log write (zero when
    /// [`NetworkConfig::record_ops`] is off).
    pub log_us: u64,
    /// Sub-clock of `exchange_us`: mask/loss verdict resolution.
    pub resolve_us: u64,
    /// Sub-clock of `exchange_us`: the pull-apply leg — `on_pull`
    /// handlers, reply metering, and the reply slots they fill.
    pub pull_us: u64,
}

impl StageTimes {
    /// The metering + op-log share of the exchange clock — the two
    /// formerly serial sections the prefix-sum drain attacked; reported
    /// by E16's breakdown table.
    pub fn meter_log_us(&self) -> u64 {
        self.meter_us + self.log_us
    }
}

/// Stream base for the **dynamic** loss-draw discipline: in a dynamic
/// run the loss RNG for round `r` is `seeded(loss_seed, BASE + r)`, so
/// the loss pattern of a round depends only on that round's messages
/// (see [`crate::dynamics`] module docs). Static runs keep the single
/// stream `seeded(loss_seed, 0x1055)` for bit-compatibility with the
/// pre-dynamics corpus.
const LOSS_ROUND_STREAM_BASE: u64 = 0x1055_0000_0000;

/// The mutable engine-side state of a run at a **round boundary** —
/// everything [`Network`] owns that a checkpoint must carry beyond what
/// is derivable from `(config, seed)`. Immutable ingredients (topology,
/// size env, fault *plan*, the scenario script and loss schedule inside
/// [`NetworkConfig`]) are rebuilt by the restorer, never captured; the
/// round's `current_p` and the `dynamic` flag are recomputed by the next
/// `begin_round`, which sets them unconditionally.
///
/// `Metrics` and the op log travel alongside (they are plain `Clone`
/// data with public mutators) — see [`Network::engine_state`] /
/// [`Network::restore_engine_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Rounds executed so far (the next round to run).
    pub round: usize,
    /// Cursor into the scenario timeline: events `< next_event` have
    /// been applied.
    pub next_event: usize,
    /// Live per-agent down flags (plan faults ∪ scripted crashes).
    pub down: Vec<bool>,
    /// Installed partition overlay, as its per-agent side assignment.
    pub partition_sides: Option<Vec<u8>>,
    /// Raw xoshiro256++ state of the sequential loss stream, if the run
    /// has one. Dynamic runs re-seed this stream every `begin_round`, so
    /// for them the captured words are dead weight kept only for
    /// uniformity; for static lossy runs they are load-bearing.
    pub loss_rng: Option<[u64; 4]>,
}

/// A network of agents driven in synchronous GOSSIP rounds.
///
/// `M` is the protocol's message type (`MsgSize` for wire metering;
/// deliveries are by reference, so `M` does not need `Clone`); `A` is the
/// agent type — ideally a concrete type or a monomorphic enum such as
/// rfc-core's `AgentSlot` (jump-table dispatch, agents stored inline), or
/// a boxed trait object like `Box<dyn Agent<M>>` when dynamism is needed
/// (a blanket impl forwards `Agent` through `Box`).
pub struct Network<M, A = Box<dyn Agent<M>>> {
    topology: Topology,
    env: SizeEnv,
    agents: Vec<A>,
    faults: FaultPlan,
    // Dynamic-adversity state, layered over the immutable plan/topology:
    // the live fault flags, the installed partition overlay (if any), the
    // cursor into the scenario timeline, the round's loss probability,
    // and whether the run is dynamic at all (decides the loss-draw
    // discipline; see `begin_round`).
    fault_state: FaultState,
    partition: Option<PartitionCut>,
    next_event: usize,
    current_p: f64,
    dynamic: bool,
    metrics: Metrics,
    oplog: OpLog,
    config: NetworkConfig,
    loss_rng: Option<DetRng>,
    round: usize,
    // Workhorse buffers reused across rounds (perf-book: reuse collections).
    ops: Vec<(AgentId, Op<M>)>,
    replies: Vec<(AgentId, AgentId, Option<M>)>,
    // Scratch for `Agent::act_multi` (one agent's ops before they are
    // tagged with its id and appended to `ops`).
    multi_buf: Vec<Op<M>>,
    // Persistent worker pool for the staged engine's sharded stages and
    // `finalize` — built lazily on first use (no threads at one shard;
    // see `gossip_net::pool`) and resized by the next use if the thread
    // count changes.
    pool: Option<crate::pool::ScopedPool>,
    // Staged-engine scratch (CSR ledgers, reply slots, shard buffers) —
    // empty and allocation-free until a `PerAgent` round first runs.
    staged: staged::StagedScratch<M>,
    // Cumulative per-stage wall clock, populated only when
    // `config.time_stages` is set (see `StageTimes`).
    stage_times: StageTimes,
}

impl<M: MsgSize, A: Agent<M>> Network<M, A> {
    /// Build a network. `agents.len()` must equal the topology size and the
    /// fault plan size.
    pub fn new(
        topology: Topology,
        env: SizeEnv,
        agents: Vec<A>,
        faults: FaultPlan,
    ) -> Self {
        Self::with_config(topology, env, agents, faults, NetworkConfig::default())
    }

    /// Build a network with explicit [`NetworkConfig`].
    pub fn with_config(
        topology: Topology,
        env: SizeEnv,
        agents: Vec<A>,
        faults: FaultPlan,
        config: NetworkConfig,
    ) -> Self {
        let n = agents.len();
        // Placeholders for the per-trial state; `arm` sets all of it.
        let mut net = Network {
            topology,
            env,
            agents,
            faults: FaultPlan::none(0),
            fault_state: FaultState::from_plan(&FaultPlan::none(0)),
            partition: None,
            next_event: 0,
            current_p: 0.0,
            dynamic: false,
            metrics: Metrics::new(),
            oplog: OpLog::new(),
            config: NetworkConfig::default(),
            loss_rng: None,
            round: 0,
            ops: Vec::with_capacity(n),
            replies: Vec::with_capacity(n),
            multi_buf: Vec::new(),
            pool: None,
            staged: staged::StagedScratch::new(),
            stage_times: StageTimes::default(),
        };
        net.arm(faults, config);
        net
    }

    /// Re-arm this network for a fresh trial **in place**, reusing every
    /// reusable allocation: the agent storage (`fill` pushes the new
    /// agents into the cleared, capacity-retaining vector), the op/reply
    /// scratch buffers, the metrics' phase table, and the op log's event
    /// buffer. This is the trial-arena primitive: a Monte-Carlo worker
    /// keeps one `Network` alive and calls `reset_into` per trial instead
    /// of rebuilding the world.
    ///
    /// Semantics are exactly those of [`Network::with_config`] — a reset
    /// network is observationally identical to a freshly built one (same
    /// seed ⇒ bit-identical run), only cheaper: both arm the per-trial
    /// state through the same private step.
    pub fn reset_into(
        &mut self,
        topology: Topology,
        env: SizeEnv,
        faults: FaultPlan,
        config: NetworkConfig,
        fill: impl FnOnce(&mut Vec<A>, &Topology),
    ) {
        self.topology = topology;
        self.env = env;
        self.agents.clear();
        fill(&mut self.agents, &self.topology);
        self.arm(faults, config);
    }

    /// Check `faults` and `config` against the agents and topology in
    /// place, then set every piece of per-trial state from them: fault
    /// plan and live flags, scenario cursor, loss stream,
    /// round counter, metrics, op log, scratch buffers and stage clocks.
    /// The worker pool outlives trials (that is its whole point); its
    /// next use re-sizes it if the new config wants a different thread
    /// count.
    fn arm(&mut self, faults: FaultPlan, config: NetworkConfig) {
        let n = self.agents.len();
        assert_eq!(n, self.topology.n(), "agent count must match topology size");
        assert_eq!(n, faults.n(), "fault plan size must match agent count");
        config.scenario.validate(n);
        self.faults = faults;
        self.fault_state.reset_from(&self.faults);
        self.partition = None;
        self.next_event = 0;
        self.dynamic = !config.scenario.is_empty() || !config.loss.is_constant();
        self.current_p = 0.0;
        self.loss_rng = (config.loss.max_p() > 0.0).then(|| DetRng::seeded(config.loss_seed, 0x1055));
        self.config = config;
        self.round = 0;
        self.metrics.reset();
        self.oplog.clear();
        self.ops.clear();
        self.replies.clear();
        self.multi_buf.clear();
        self.staged.clear();
        self.stage_times = StageTimes::default();
    }

    /// The cumulative staged-stage wall-clock breakdown (all-zero unless
    /// [`NetworkConfig::time_stages`] was set and staged rounds ran).
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }

    /// Open round (or async tick) `round`: apply every scenario event
    /// due at or before it — in timeline order, so same-round events
    /// apply in script order — and fix the round's loss probability.
    ///
    /// Loss-draw discipline: a **static** run (empty script, constant
    /// schedule) keeps the single loss stream seeded at construction —
    /// bit-identical to the pre-dynamics engine. A **dynamic** run
    /// re-derives the stream per round from `(loss_seed, round)`, so
    /// events or schedule edits in one round can never perturb the loss
    /// draws of another.
    fn begin_round(&mut self, round: usize) {
        loop {
            let ev = match self.config.scenario.events().get(self.next_event) {
                Some(ev) if ev.round() <= round => ev.clone(),
                _ => break,
            };
            self.next_event += 1;
            match ev {
                ScenarioEvent::Crash { set, .. } => self.fault_state.crash(&set),
                ScenarioEvent::Recover { set, .. } => self.fault_state.recover(&set),
                ScenarioEvent::Partition { cut, .. } => self.partition = Some(cut),
                ScenarioEvent::Heal { .. } => self.partition = None,
            }
        }
        self.current_p = self.config.loss.p_at(round);
        if self.dynamic {
            if let Some(rng) = &mut self.loss_rng {
                *rng = DetRng::seeded(
                    self.config.loss_seed,
                    LOSS_ROUND_STREAM_BASE + round as u64,
                );
            }
        }
    }

    /// Sample the loss process: true if the current message is dropped.
    /// Draws from the loss stream only while the round's probability is
    /// positive (a `p = 0` round consumes no draws — in a static run
    /// that is the whole run, matching the legacy no-RNG path).
    #[inline]
    fn dropped(&mut self) -> bool {
        if self.current_p <= 0.0 {
            return false;
        }
        match &mut self.loss_rng {
            Some(rng) => {
                let p = self.current_p;
                rng.chance(p)
            }
            None => false,
        }
    }

    /// Effective connectivity: the base topology minus any installed
    /// partition overlay (delivery masking; see [`crate::dynamics`]).
    #[inline]
    fn reachable(&self, u: AgentId, v: AgentId) -> bool {
        self.topology.connected(u, v)
            && !matches!(&self.partition, Some(cut) if cut.blocks(u, v))
    }

    /// Run `rounds` synchronous rounds (without finalizing).
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Execute one synchronous round. Scenario events due this round are
    /// applied first, before any `act` call.
    pub fn step(&mut self) {
        let round = self.round;
        self.begin_round(round);
        // -- 1. act ------------------------------------------------------
        self.ops.clear();
        {
            let ctx = RoundCtx {
                round,
                topology: &self.topology,
            };
            let mut multi_buf = std::mem::take(&mut self.multi_buf);
            for id in 0..self.agents.len() {
                if self.fault_state.is_down(id as AgentId) {
                    continue; // quiescent: never acts
                }
                self.agents[id].act_multi(&ctx, &mut multi_buf);
                for op in multi_buf.drain(..) {
                    self.ops.push((id as AgentId, op));
                }
            }
            self.multi_buf = multi_buf;
        }
        self.metrics.record_round(self.ops.len() as u64);

        // -- 2. answer pulls (compute replies before any delivery) -------
        // Both scratch buffers are borrowed out via `take` and put back
        // exactly once, emptied *before* the put-back, so their grown
        // capacity always survives into the next round (a two-step
        // `self.ops = ops; self.ops.clear()` could silently discard the
        // buffer if code between the steps ever touched `self.ops`).
        self.replies.clear();
        let mut ops = std::mem::take(&mut self.ops);
        for (from, op) in &ops {
            if let Op::Pull { from: target, query } = op {
                let reply = self.answer_pull(*from, *target, query, round);
                self.replies.push((*from, *target, reply));
            }
        }

        // -- 3. deliver pushes -------------------------------------------
        for (from, op) in &ops {
            if let Op::Push { to, msg } = op {
                self.deliver_push(*from, *to, msg, round);
            }
        }
        ops.clear();
        debug_assert!(self.ops.is_empty(), "ops buffer grew during delivery");
        self.ops = ops;

        // -- 4. deliver replies (already metered at send time in
        //    `answer_pull`; a reply lost in transit was still sent) ------
        let mut replies = std::mem::take(&mut self.replies);
        {
            let ctx = RoundCtx {
                round,
                topology: &self.topology,
            };
            for (puller, pullee, reply) in replies.drain(..) {
                self.agents[puller as usize].on_reply(pullee, reply, &ctx);
            }
        }
        debug_assert!(self.replies.is_empty(), "replies buffer grew during delivery");
        self.replies = replies;

        self.round += 1;
    }

    /// Put one pull through the wire and return the reply the puller
    /// receives. The query is metered HERE, at send time, and then
    /// resolved against reachability, loss and the pullee's fault state;
    /// a metered query that does not reach a live handler is counted
    /// `undelivered` and no reply exists. Otherwise the pullee's
    /// [`Agent::on_pull`] answers, any produced reply is metered at send
    /// time and draws its own transit loss, and the op is logged.
    fn answer_pull(
        &mut self,
        puller: AgentId,
        pullee: AgentId,
        query: &M,
        round: usize,
    ) -> Option<M> {
        // The pull *query* travels on the wire regardless of the answer.
        self.metrics.record_message(query.size_bits(&self.env));
        // The loss draw is consumed unconditionally (matching the
        // historical stream even for off-edge queries).
        let reachable = self.reachable(puller, pullee);
        let query_lost = self.dropped();
        if !reachable || query_lost || self.fault_state.is_down(pullee) {
            // The query never reached a live handler (off-edge, cross-cut,
            // lost, or a faulty/crashed pullee): no reply exists.
            self.metrics.record_undelivered();
            self.record_pull_op(round, puller, pullee, false);
            return None;
        }
        let reply = {
            let ctx = RoundCtx {
                round,
                topology: &self.topology,
            };
            // By-ref delivery: the pullee reads the engine-owned query.
            self.agents[pullee as usize].on_pull(puller, query, &ctx)
        };
        // A produced reply is metered HERE, at send time: it went on the
        // wire whether or not it survives transit. (Metering at delivery
        // would make lost replies invisible in bits_sent/messages_sent,
        // contradicting the metering contract and under-counting E13.)
        if let Some(msg) = &reply {
            self.metrics.record_message(msg.size_bits(&self.env));
        }
        // A produced reply can itself be lost in transit.
        let reply = if reply.is_some() && self.dropped() {
            self.metrics.record_undelivered();
            None
        } else {
            reply
        };
        self.record_pull_op(round, puller, pullee, reply.is_some());
        reply
    }

    /// Op-log record for a completed pull attempt (answered or not).
    fn record_pull_op(&mut self, round: usize, puller: AgentId, pullee: AgentId, answered: bool) {
        if self.config.record_ops {
            let kind = if answered {
                OpKind::Pull
            } else {
                OpKind::PullUnanswered
            };
            self.oplog.record(round as u32, kind, puller, pullee);
        }
    }

    /// Put one push through the wire. Metering contract: a push is
    /// metered HERE, at send time — *before* the edge/partition/fault/loss
    /// checks below. A push addressed off-edge (no such link), across an
    /// installed partition cut, to a faulty or crashed receiver, or lost
    /// in transit was still *sent* by its author and still occupied the
    /// wire on the sender's side, so it counts toward messages_sent and
    /// bits_sent even though it is never delivered.
    fn deliver_push(&mut self, from: AgentId, to: AgentId, msg: &M, round: usize) {
        self.metrics.record_message(msg.size_bits(&self.env));
        if self.config.record_ops {
            self.oplog.record(round as u32, OpKind::Push, from, to);
        }
        if !self.reachable(from, to) || self.fault_state.is_down(to) || self.dropped() {
            // No such edge / cross-cut, quiescent receiver, or lost.
            self.metrics.record_undelivered();
            return;
        }
        let ctx = RoundCtx {
            round,
            topology: &self.topology,
        };
        // By-ref delivery: no clone on the push path.
        self.agents[to as usize].on_push(from, msg, &ctx);
    }

    /// Run the **asynchronous (sequential) GOSSIP** variant: `ticks`
    /// activations, each waking one uniformly-random agent which performs
    /// one complete operation (including the pull round-trip). The round
    /// index exposed to agents is the tick index.
    ///
    /// Metrics semantics: **rounds == activations == ticks**. Every tick
    /// records a round — including ticks that wake a faulty (quiescent)
    /// agent or an agent that declines to act — so `metrics.rounds`
    /// always equals `metrics.ticks` and never depends on fault
    /// placement. The active-op count of a tick is 1 if an operation was
    /// performed, else 0.
    ///
    /// A tick's operation goes through the synchronous round's own
    /// steps: a push through its delivery step, a pull through its
    /// answer step, whose reply (`None` when the query or the reply was
    /// lost, the pullee is down or out of reach, or it stayed silent)
    /// reaches the puller's [`Agent::on_reply`] within the same tick.
    pub fn run_async(&mut self, ticks: usize, scheduler_rng: &mut DetRng) {
        let n = self.agents.len();
        for _ in 0..ticks {
            let round = self.round;
            self.begin_round(round);
            self.metrics.record_tick();
            let id = scheduler_rng.index(n) as AgentId;
            if self.fault_state.is_down(id) {
                self.metrics.record_round(0); // activation with no op
                self.round += 1;
                continue;
            }
            let op = {
                let ctx = RoundCtx {
                    round,
                    topology: &self.topology,
                };
                self.agents[id as usize].act(&ctx)
            };
            let performed = op.is_some() as u64;
            match op {
                None => {}
                Some(Op::Push { to, msg }) => self.deliver_push(id, to, &msg, round),
                Some(Op::Pull { from: target, query }) => {
                    let reply = self.answer_pull(id, target, &query, round);
                    let ctx = RoundCtx {
                        round,
                        topology: &self.topology,
                    };
                    self.agents[id as usize].on_reply(target, reply, &ctx);
                }
            }
            self.metrics.record_round(performed);
            self.round += 1;
        }
    }

    /// Label the current metrics phase (see [`Metrics::enter_phase`]).
    pub fn enter_phase(&mut self, name: &str) {
        self.metrics.enter_phase(name);
    }

    /// Current round index (== rounds executed so far).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.agents.len()
    }

    /// The fault plan (the adversary's immutable pre-round-0 choice).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The live fault flags (plan ∪ scripted crashes): who is down *now*
    /// — after the last executed round's events.
    pub fn fault_state(&self) -> &FaultState {
        &self.fault_state
    }

    /// The currently installed partition cut, if any.
    pub fn partition(&self) -> Option<&PartitionCut> {
        self.partition.as_ref()
    }

    /// Communication metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The operation log (empty unless `record_ops` was set).
    pub fn oplog(&self) -> &OpLog {
        &self.oplog
    }

    /// The size environment used for metering.
    pub fn env(&self) -> &SizeEnv {
        &self.env
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to agent `u` (for post-run inspection).
    pub fn agent(&self, u: AgentId) -> &A {
        &self.agents[u as usize]
    }

    /// Mutable access to agent `u` (tests / instrumentation).
    pub fn agent_mut(&mut self, u: AgentId) -> &mut A {
        &mut self.agents[u as usize]
    }

    /// All agents, id-indexed (for post-run inspection).
    pub fn agents(&self) -> &[A] {
        &self.agents
    }

    /// Consume the network, returning the agents for inspection.
    pub fn into_agents(self) -> Vec<A> {
        self.agents
    }

    /// Capture the mutable engine state at the current round boundary
    /// (checkpoint support). At a boundary the op/reply buffers and the
    /// staged scratch hold only dead last-round data (the monolithic
    /// path drains them at the end of `step`, the staged path clears
    /// them at the start of the next), so none of them are captured.
    pub fn engine_state(&self) -> EngineState {
        EngineState {
            round: self.round,
            next_event: self.next_event,
            down: self.fault_state.down_vec(),
            partition_sides: self.partition.as_ref().map(|c| c.sides().to_vec()),
            loss_rng: self.loss_rng.as_ref().map(|r| r.state()),
        }
    }

    /// Re-install a captured [`EngineState`] (plus the checkpointed
    /// metrics and op log) into a freshly built network — the inverse of
    /// [`Network::engine_state`]. The network must have been constructed
    /// with the *same* config and ingredients the state was captured
    /// under; this only swaps the mutable layer, it cannot retarget a
    /// run. The restored `Metrics` continues exact counts — the
    /// metering contract extends across the checkpoint seam.
    ///
    /// A state this network's config cannot hold is refused with the
    /// reason, and the network is left as it was: flag or cut lengths
    /// other than `n`, a scenario cursor past the script, loss-stream
    /// words without a loss process (or none with one), or a plan fault
    /// marked up.
    pub fn restore_engine_state(
        &mut self,
        state: EngineState,
        metrics: Metrics,
        oplog: OpLog,
    ) -> Result<(), &'static str> {
        let n = self.agents.len();
        if state.next_event > self.config.scenario.events().len() {
            return Err("restored scenario cursor out of range");
        }
        if matches!(&state.partition_sides, Some(sides) if sides.len() != n) {
            return Err("restored partition cut must match agent count");
        }
        if state.loss_rng.is_some() != self.loss_rng.is_some() {
            return Err("restored loss-stream presence must match the config (max_p > 0)");
        }
        self.fault_state = FaultState::restore(&self.faults, state.down)
            .ok_or("restored down flags must cover every agent and keep plan faults down")?;
        self.round = state.round;
        self.next_event = state.next_event;
        self.partition = state.partition_sides.map(PartitionCut::from_sides);
        self.loss_rng = state.loss_rng.map(DetRng::from_state);
        // `current_p` and `dynamic` are recomputed: `dynamic` was already
        // derived from the (identical) config at construction, and the
        // next `begin_round` sets `current_p` unconditionally.
        self.metrics = metrics;
        self.oplog = oplog;
        Ok(())
    }
}

impl<M: MsgSize + Send + Sync, A: Agent<M> + Send> Network<M, A> {
    /// Call [`Agent::finalize`] on every agent active **at finalization
    /// time** — the survivor set: plan-active agents that are not
    /// currently crashed. An agent that crashed and recovered before the
    /// end is finalized; one still down is not.
    ///
    /// Sharded like a staged round: contiguous agent ranges finalize on
    /// the network's worker pool, one per effective thread (see
    /// [`NetworkConfig::threads`]); one thread runs its single range
    /// inline. `finalize` touches only its own agent, so the result is
    /// the same for every thread count and either discipline.
    pub fn finalize(&mut self) {
        let threads = self.effective_threads();
        let Network { pool, agents, topology, fault_state, round, .. } = self;
        let ctx = RoundCtx { round: *round, topology };
        let fault_state: &FaultState = fault_state;
        let finalize_range = |base: usize, part: &mut [A]| {
            for (off, agent) in part.iter_mut().enumerate() {
                if !fault_state.is_down((base + off) as AgentId) {
                    agent.finalize(&ctx);
                }
            }
        };
        let chunk = agents.len().div_ceil(threads).max(1);
        let pool = staged::ensure_pool(pool, threads);
        pool.scope(|scope| {
            for (s, part) in agents.chunks_mut(chunk).enumerate() {
                let finalize_range = &finalize_range;
                scope.spawn(move || finalize_range(s * chunk, part));
            }
        });
    }
}

// Forward `Agent` through `Box` so trait objects (and richer protocol
// sub-traits) can be stored directly as the network's agent type.
impl<M, T: Agent<M> + ?Sized> Agent<M> for Box<T> {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<M>> {
        (**self).act(ctx)
    }
    fn act_multi(&mut self, ctx: &RoundCtx, out: &mut Vec<Op<M>>) {
        (**self).act_multi(ctx, out)
    }
    fn on_pull(&mut self, from: AgentId, query: &M, ctx: &RoundCtx) -> Option<M> {
        (**self).on_pull(from, query, ctx)
    }
    fn on_push(&mut self, from: AgentId, msg: &M, ctx: &RoundCtx) {
        (**self).on_push(from, msg, ctx)
    }
    fn on_reply(&mut self, from: AgentId, reply: Option<M>, ctx: &RoundCtx) {
        (**self).on_reply(from, reply, ctx)
    }
    fn finalize(&mut self, ctx: &RoundCtx) {
        (**self).finalize(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Placement;

    /// Test message: a number; 8 bits on the wire.
    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl MsgSize for Num {
        fn size_bits(&self, _env: &SizeEnv) -> u64 {
            8
        }
    }

    /// Pushes its id to a fixed target every round; counts what it hears.
    struct FixedPusher {
        id: AgentId,
        target: AgentId,
        heard: Vec<(AgentId, u64)>,
    }
    impl Agent<Num> for FixedPusher {
        fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
            Some(Op::push(self.target, Num(self.id as u64)))
        }
        fn on_push(&mut self, from: AgentId, msg: &Num, _ctx: &RoundCtx) {
            self.heard.push((from, msg.0));
        }
    }

    /// Pulls a fixed target; the pullee answers with its id.
    struct FixedPuller {
        target: AgentId,
        answers: Vec<Option<u64>>,
    }
    impl Agent<Num> for FixedPuller {
        fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
            Some(Op::pull(self.target, Num(0)))
        }
        fn on_pull(&mut self, _from: AgentId, _q: &Num, _ctx: &RoundCtx) -> Option<Num> {
            Some(Num(77))
        }
        fn on_reply(&mut self, _from: AgentId, reply: Option<Num>, _ctx: &RoundCtx) {
            self.answers.push(reply.map(|m| m.0));
        }
    }

    fn pushers(n: usize, target: AgentId) -> Vec<Box<dyn Agent<Num>>> {
        (0..n as AgentId)
            .map(|id| {
                Box::new(FixedPusher {
                    id,
                    target,
                    heard: vec![],
                }) as Box<dyn Agent<Num>>
            })
            .collect()
    }

    #[test]
    fn pushes_are_delivered_with_authentic_sender() {
        let n = 4;
        let mut net = Network::new(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 0),
            FaultPlan::none(n),
        );
        net.run(1);
        let a0 = net.into_agents().remove(0);
        // Can't downcast dyn Agent easily; rebuild instead with direct refs.
        drop(a0);

        // Re-run with agent_mut-based inspection via a second network.
        let mut net = Network::new(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 0),
            FaultPlan::none(n),
        );
        net.run(1);
        // Everyone (including 0) pushed to 0: agent 0 heard 4 messages with
        // senders 0,1,2,3 in id order.
        assert_eq!(net.metrics().messages_sent, 4);
    }

    #[test]
    fn faulty_agents_never_act_and_drop_input() {
        let n = 4;
        let faults = FaultPlan::place(n, 1, Placement::LowIds); // agent 0 faulty
        let mut net = Network::new(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 0),
            faults,
        );
        net.run(3);
        // Only agents 1..3 act: 3 pushes per round.
        assert_eq!(net.metrics().messages_sent, 9);
        assert_eq!(net.metrics().max_active_links, 3);
    }

    #[test]
    fn pulls_to_faulty_agents_yield_silence() {
        let n = 3;
        let faults = FaultPlan::place(n, 1, Placement::HighIds); // agent 2 faulty
        let agents: Vec<Box<dyn Agent<Num>>> = vec![
            Box::new(FixedPuller {
                target: 2,
                answers: vec![],
            }),
            Box::new(FixedPuller {
                target: 0,
                answers: vec![],
            }),
            Box::new(FixedPuller {
                target: 0,
                answers: vec![],
            }),
        ];
        let mut net = Network::new(
            Topology::complete(n),
            SizeEnv::for_n(n),
            agents,
            faults,
        );
        net.run(2);
        // Pull queries metered: 2 pullers x 2 rounds = 4 queries; replies:
        // only agent 1's pull of agent 0 is answered (2 replies).
        assert_eq!(net.metrics().messages_sent, 4 + 2);
    }

    #[test]
    fn oplog_records_pull_outcomes() {
        let n = 3;
        let faults = FaultPlan::place(n, 1, Placement::HighIds);
        let agents: Vec<Box<dyn Agent<Num>>> = vec![
            Box::new(FixedPuller {
                target: 2,
                answers: vec![],
            }),
            Box::new(FixedPuller {
                target: 0,
                answers: vec![],
            }),
            Box::new(FixedPuller {
                target: 0,
                answers: vec![],
            }),
        ];
        let mut net = Network::with_config(
            Topology::complete(n),
            SizeEnv::for_n(n),
            agents,
            faults,
            NetworkConfig {
                record_ops: true,
                ..NetworkConfig::default()
            },
        );
        net.run(1);
        let events = net.oplog().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, OpKind::PullUnanswered); // 0 pulled faulty 2
        assert_eq!(events[1].kind, OpKind::Pull); // 1 pulled live 0
    }

    #[test]
    fn ring_topology_blocks_non_edges() {
        // On a ring, agent 0 pushing to agent 3 (not a neighbor) is dropped.
        struct PushFar;
        impl Agent<Num> for PushFar {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                Some(Op::push(3, Num(1)))
            }
        }
        struct CountPushes(u32);
        impl Agent<Num> for CountPushes {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                None
            }
            fn on_push(&mut self, _f: AgentId, _m: &Num, _c: &RoundCtx) {
                self.0 += 1;
            }
        }
        let agents: Vec<Box<dyn Agent<Num>>> = vec![
            Box::new(PushFar),
            Box::new(CountPushes(0)),
            Box::new(CountPushes(0)),
            Box::new(CountPushes(0)),
            Box::new(CountPushes(0)),
            Box::new(CountPushes(0)),
        ];
        let mut net = Network::new(
            Topology::ring(6),
            SizeEnv::for_n(6),
            agents,
            FaultPlan::none(6),
        );
        net.run(1);
        // Message was metered (it was sent) but not delivered.
        assert_eq!(net.metrics().messages_sent, 1);
    }

    #[test]
    fn round_counter_advances() {
        let n = 2;
        let mut net = Network::new(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 0),
            FaultPlan::none(n),
        );
        assert_eq!(net.round(), 0);
        net.run(5);
        assert_eq!(net.round(), 5);
        assert_eq!(net.metrics().rounds, 5);
    }

    #[test]
    fn async_run_activates_one_agent_per_tick() {
        let n = 8;
        let mut net = Network::new(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 0),
            FaultPlan::none(n),
        );
        let mut rng = DetRng::seeded(7, 0);
        net.run_async(100, &mut rng);
        assert_eq!(net.metrics().ticks, 100);
        // At most one message per tick (pure pushes here).
        assert!(net.metrics().messages_sent <= 100);
    }

    #[test]
    fn lossy_channel_drops_a_fraction_of_pushes() {
        // Count deliveries under 30% loss: ~70% should arrive.
        struct Recv(u32);
        impl Agent<Num> for Recv {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                None
            }
            fn on_push(&mut self, _f: AgentId, _m: &Num, _c: &RoundCtx) {
                self.0 += 1;
            }
        }
        struct Send;
        impl Agent<Num> for Send {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                Some(Op::push(1, Num(7)))
            }
        }
        let agents: Vec<Box<dyn Agent<Num>>> = vec![Box::new(Send), Box::new(Recv(0))];
        let mut net = Network::with_config(
            Topology::complete(2),
            SizeEnv::for_n(2),
            agents,
            FaultPlan::none(2),
            NetworkConfig {
                loss: LossSchedule::constant(0.3),
                loss_seed: 5,
                ..NetworkConfig::default()
            },
        );
        let rounds = 2000;
        net.run(rounds);
        // All sends metered…
        assert_eq!(net.metrics().messages_sent, rounds as u64);
        // …but only ~70% delivered. Extract via downcast-free trick: run a
        // probe round where the receiver pushes its count.
        // (We can read the concrete agent because A = Box<dyn Agent<Num>>;
        // instead, recreate with concrete type.)
        let agents: Vec<ProbeAgent> = vec![ProbeAgent::sender(), ProbeAgent::receiver()];
        let mut net = Network::with_config(
            Topology::complete(2),
            SizeEnv::for_n(2),
            agents,
            FaultPlan::none(2),
            NetworkConfig {
                loss: LossSchedule::constant(0.3),
                loss_seed: 5,
                ..NetworkConfig::default()
            },
        );
        net.run(rounds);
        let got = net.agent(1).received;
        let frac = got as f64 / rounds as f64;
        assert!(
            (0.6..0.8).contains(&frac),
            "expected ~70% delivery, got {frac}"
        );
    }

    struct ProbeAgent {
        sender: bool,
        received: u32,
    }
    impl ProbeAgent {
        fn sender() -> Self {
            ProbeAgent {
                sender: true,
                received: 0,
            }
        }
        fn receiver() -> Self {
            ProbeAgent {
                sender: false,
                received: 0,
            }
        }
    }
    impl Agent<Num> for ProbeAgent {
        fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
            if self.sender {
                Some(Op::push(1, Num(7)))
            } else {
                None
            }
        }
        fn on_push(&mut self, _f: AgentId, _m: &Num, _c: &RoundCtx) {
            self.received += 1;
        }
    }

    /// Always pulls `target`; counts replies it *produces* (as pullee)
    /// and replies actually *delivered* to it (as puller).
    struct CountingPuller {
        target: AgentId,
        produced: u64,
        delivered: u64,
    }
    impl CountingPuller {
        fn new(target: AgentId) -> Self {
            CountingPuller {
                target,
                produced: 0,
                delivered: 0,
            }
        }
    }
    impl Agent<Num> for CountingPuller {
        fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
            Some(Op::pull(self.target, Num(0)))
        }
        fn on_pull(&mut self, _from: AgentId, _q: &Num, _ctx: &RoundCtx) -> Option<Num> {
            self.produced += 1;
            Some(Num(7))
        }
        fn on_reply(&mut self, _from: AgentId, reply: Option<Num>, _ctx: &RoundCtx) {
            self.delivered += reply.is_some() as u64;
        }
    }

    #[test]
    fn lossy_pulls_yield_silence_not_errors() {
        let agents = vec![CountingPuller::new(1), CountingPuller::new(0)];
        let mut net = Network::with_config(
            Topology::complete(2),
            SizeEnv::for_n(2),
            agents,
            FaultPlan::none(2),
            NetworkConfig {
                loss: LossSchedule::constant(0.5),
                loss_seed: 9,
                ..NetworkConfig::default()
            },
        );
        net.run(400);
        // 800 queries metered; a reply is produced only for the ~50% of
        // queries that arrive, and metered whether or not it survives the
        // return leg.
        let produced: u64 = net.agents().iter().map(|a| a.produced).sum();
        let delivered: u64 = net.agents().iter().map(|a| a.delivered).sum();
        assert_eq!(net.metrics().messages_sent, 800 + produced);
        assert!((250..550).contains(&produced), "~half the queries arrive: {produced}");
        assert!(delivered > 0, "some replies should survive");
        assert!(
            delivered < produced,
            "with 50% loss on the return leg, some produced replies are lost"
        );
    }

    #[test]
    fn dropped_pull_replies_are_metered_at_send() {
        // Regression (metering contract): under loss, messages_sent must
        // equal pushes + queries + PRODUCED replies. The old engine
        // converted a lost reply to None before metering, silently
        // under-counting the wire traffic.
        struct Pusher;
        impl Agent<Num> for Pusher {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                Some(Op::push(1, Num(3)))
            }
        }
        enum Mixed {
            Push(Pusher),
            Pull(CountingPuller),
        }
        impl Agent<Num> for Mixed {
            fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Num>> {
                match self {
                    Mixed::Push(a) => a.act(ctx),
                    Mixed::Pull(a) => a.act(ctx),
                }
            }
            fn on_pull(&mut self, from: AgentId, q: &Num, ctx: &RoundCtx) -> Option<Num> {
                match self {
                    Mixed::Push(a) => a.on_pull(from, q, ctx),
                    Mixed::Pull(a) => a.on_pull(from, q, ctx),
                }
            }
            fn on_push(&mut self, from: AgentId, m: &Num, ctx: &RoundCtx) {
                match self {
                    Mixed::Push(a) => a.on_push(from, m, ctx),
                    Mixed::Pull(a) => a.on_push(from, m, ctx),
                }
            }
            fn on_reply(&mut self, from: AgentId, r: Option<Num>, ctx: &RoundCtx) {
                match self {
                    Mixed::Push(a) => a.on_reply(from, r, ctx),
                    Mixed::Pull(a) => a.on_reply(from, r, ctx),
                }
            }
        }
        let agents = vec![
            Mixed::Push(Pusher),
            Mixed::Pull(CountingPuller::new(2)),
            Mixed::Pull(CountingPuller::new(1)),
        ];
        let rounds = 500u64;
        let mut net = Network::with_config(
            Topology::complete(3),
            SizeEnv::for_n(3),
            agents,
            FaultPlan::none(3),
            NetworkConfig {
                loss: LossSchedule::constant(0.3),
                loss_seed: 17,
                ..NetworkConfig::default()
            },
        );
        net.run(rounds as usize);
        let produced: u64 = net
            .agents()
            .iter()
            .map(|a| match a {
                Mixed::Pull(p) => p.produced,
                Mixed::Push(_) => 0,
            })
            .sum();
        let pushes = rounds;
        let queries = 2 * rounds;
        assert!(produced < queries, "30% of queries are lost before the pullee");
        assert_eq!(
            net.metrics().messages_sent,
            pushes + queries + produced,
            "every sent message — including replies later lost in transit — must be metered"
        );
    }

    #[test]
    fn async_pull_messages_are_metered_exactly_once() {
        // Loss-free async: every tick is one pull — one query + one
        // produced reply = exactly two wire messages, never double-metered.
        let agents = vec![CountingPuller::new(1), CountingPuller::new(0)];
        let mut net = Network::new(
            Topology::complete(2),
            SizeEnv::for_n(2),
            agents,
            FaultPlan::none(2),
        );
        let mut rng = DetRng::seeded(3, 0);
        net.run_async(250, &mut rng);
        assert_eq!(net.metrics().messages_sent, 2 * 250);
        let produced: u64 = net.agents().iter().map(|a| a.produced).sum();
        let delivered: u64 = net.agents().iter().map(|a| a.delivered).sum();
        assert_eq!(produced, 250);
        assert_eq!(delivered, 250);
    }

    #[test]
    fn zero_loss_is_byte_identical_to_default() {
        let mk = |loss: f64| {
            let agents = pushers(4, 0);
            let mut net = Network::with_config(
                Topology::complete(4),
                SizeEnv::for_n(4),
                agents,
                FaultPlan::none(4),
                NetworkConfig {
                    loss: LossSchedule::constant(loss),
                    loss_seed: 1,
                    ..NetworkConfig::default()
                },
            );
            net.run(20);
            net.metrics().messages_sent
        };
        assert_eq!(mk(0.0), mk(0.0));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_probability_above_one_is_rejected() {
        let _ = Network::with_config(
            Topology::complete(2),
            SizeEnv::for_n(2),
            pushers(2, 0),
            FaultPlan::none(2),
            NetworkConfig {
                loss: LossSchedule::constant(1.5),
                loss_seed: 0,
                ..NetworkConfig::default()
            },
        );
    }

    #[test]
    fn total_loss_is_accepted_and_delivers_nothing() {
        // A constant loss of 1.0 is a legitimate failure-injection
        // scenario (total channel failure): everything sent is metered,
        // nothing arrives.
        let agents = vec![ProbeAgent::sender(), ProbeAgent::receiver()];
        let mut net = Network::with_config(
            Topology::complete(2),
            SizeEnv::for_n(2),
            agents,
            FaultPlan::none(2),
            NetworkConfig {
                loss: LossSchedule::constant(1.0),
                loss_seed: 4,
                ..NetworkConfig::default()
            },
        );
        net.run(50);
        assert_eq!(net.metrics().messages_sent, 50, "sends are still metered");
        assert_eq!(net.agent(1).received, 0, "nothing may arrive at p = 1");
    }

    #[test]
    fn async_rounds_equal_ticks_for_any_fault_placement() {
        // Regression: a faulty agent's tick used to skip record_round,
        // making metrics.rounds depend on where the faults sit. The
        // defined semantics are rounds == activations == ticks.
        let n = 8;
        let ticks = 200;
        for faults in [
            FaultPlan::none(n),
            FaultPlan::place(n, 3, Placement::LowIds),
            FaultPlan::place(n, 3, Placement::HighIds),
        ] {
            let mut net = Network::new(
                Topology::complete(n),
                SizeEnv::for_n(n),
                pushers(n, 0),
                faults,
            );
            let mut rng = DetRng::seeded(11, 0);
            net.run_async(ticks, &mut rng);
            assert_eq!(net.metrics().ticks, ticks as u64);
            assert_eq!(
                net.metrics().rounds,
                ticks as u64,
                "rounds must equal ticks regardless of fault placement"
            );
        }
    }

    #[test]
    #[should_panic(expected = "agent count must match")]
    fn size_mismatch_is_rejected() {
        let _ = Network::new(
            Topology::complete(3),
            SizeEnv::for_n(3),
            pushers(2, 0),
            FaultPlan::none(2),
        );
    }

    #[test]
    fn pushes_to_unreachable_targets_are_metered_at_send_time() {
        // Metering contract (pinned): a push is "sent" the moment its
        // author emits it, so it is metered even when the target edge
        // does not exist AND even when the target is faulty — the checks
        // that suppress *delivery* must never suppress *metering*.
        struct Quiet;
        impl Agent<Num> for Quiet {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                None
            }
        }
        struct PushOffEdge;
        impl Agent<Num> for PushOffEdge {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                Some(Op::push(3, Num(9))) // ring of 6: 0–3 is not an edge
            }
        }
        let mut agents: Vec<Box<dyn Agent<Num>>> = vec![Box::new(PushOffEdge)];
        agents.extend((1..6).map(|_| Box::new(Quiet) as Box<dyn Agent<Num>>));
        let faults = FaultPlan::place(6, 1, Placement::HighIds); // 5 faulty
        let mut net = Network::new(Topology::ring(6), SizeEnv::for_n(6), agents, faults);
        net.run(4);
        // 4 rounds × 1 off-edge push: all metered, none delivered.
        assert_eq!(net.metrics().messages_sent, 4);
        assert_eq!(net.metrics().bits_sent, 4 * 8);

        // Same for a push to a *faulty* neighbor: metered, not delivered.
        struct PushToFaulty;
        impl Agent<Num> for PushToFaulty {
            fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
                Some(Op::push(5, Num(1))) // 5 is a ring neighbor of 0, faulty
            }
        }
        let mut agents: Vec<Box<dyn Agent<Num>>> = vec![Box::new(PushToFaulty)];
        agents.extend((1..6).map(|_| Box::new(Quiet) as Box<dyn Agent<Num>>));
        let faults = FaultPlan::place(6, 1, Placement::HighIds);
        let mut net = Network::new(Topology::ring(6), SizeEnv::for_n(6), agents, faults);
        net.run(4);
        assert_eq!(net.metrics().messages_sent, 4);
    }

    #[test]
    fn reset_into_matches_fresh_network_bit_for_bit() {
        let n = 8;
        let mk_cfg = || NetworkConfig {
            record_ops: true,
            loss: LossSchedule::constant(0.25),
            loss_seed: 13,
            ..NetworkConfig::default()
        };
        let run = |net: &mut Network<Num, Box<dyn Agent<Num>>>| {
            net.enter_phase("a");
            net.run(10);
            net.enter_phase("b");
            net.run(10);
            (net.metrics().clone(), net.oplog().len(), net.round())
        };
        let mut fresh = Network::with_config(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 0),
            FaultPlan::none(n),
            mk_cfg(),
        );
        let expected = run(&mut fresh);

        // Arena path: one network, reset twice, must reproduce `expected`
        // both times (no state may leak through the reset).
        let mut arena = Network::with_config(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 7), // different agents on purpose
            FaultPlan::none(n),
            NetworkConfig::default(),
        );
        run(&mut arena);
        for _ in 0..2 {
            arena.reset_into(
                Topology::complete(n),
                SizeEnv::for_n(n),
                FaultPlan::none(n),
                mk_cfg(),
                |agents, _topo| agents.extend(pushers(n, 0)),
            );
            let got = run(&mut arena);
            assert_eq!(got, expected, "reset network must be indistinguishable");
        }
    }

    #[test]
    #[should_panic(expected = "agent count must match")]
    fn reset_into_rejects_size_mismatch() {
        let n = 4;
        let mut net = Network::new(
            Topology::complete(n),
            SizeEnv::for_n(n),
            pushers(n, 0),
            FaultPlan::none(n),
        );
        net.reset_into(
            Topology::complete(n),
            SizeEnv::for_n(n),
            FaultPlan::none(n),
            NetworkConfig::default(),
            |agents, _| agents.extend(pushers(n - 1, 0)),
        );
    }

    /// Logs every handler call in arrival order: `(tick, kind, peer)`,
    /// kind 0 = pull answered, 1 = push, 2 = empty reply, 3 = reply.
    struct OrderLog {
        id: AgentId,
        n: usize,
        log: Vec<(usize, u8, AgentId)>,
    }
    impl Agent<Num> for OrderLog {
        fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Num>> {
            let r = ctx.round;
            let to = ((self.id as usize + 7 * r + 1) % self.n) as AgentId;
            if (self.id as usize + r).is_multiple_of(2) {
                Some(Op::push(to, Num(r as u64)))
            } else {
                Some(Op::pull(to, Num(r as u64)))
            }
        }
        fn on_pull(&mut self, from: AgentId, q: &Num, ctx: &RoundCtx) -> Option<Num> {
            self.log.push((ctx.round, 0, from));
            Some(Num(q.0))
        }
        fn on_push(&mut self, from: AgentId, _msg: &Num, ctx: &RoundCtx) {
            self.log.push((ctx.round, 1, from));
        }
        fn on_reply(&mut self, from: AgentId, reply: Option<Num>, ctx: &RoundCtx) {
            self.log.push((ctx.round, 2 + reply.is_some() as u8, from));
        }
    }

    #[test]
    fn async_delivery_order_is_pinned() {
        // Pinned before the async tick loops merged: every agent's
        // handler calls, in order, plus the meters, for an async run
        // over a small lossy, churning network where one agent often
        // gets several deliveries in one tick. A change to the delivery
        // order moves the digest even where a protocol's handlers would
        // commute.
        let n = 6;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x1_0000_01b3);
            }
        };
        let mut net = Network::with_config(
            Topology::complete(n),
            SizeEnv::for_n(n),
            (0..n as AgentId).map(|id| OrderLog { id, n, log: vec![] }).collect(),
            FaultPlan::none(n),
            NetworkConfig {
                record_ops: true,
                loss: LossSchedule::constant(0.2),
                loss_seed: 5,
                scenario: ScenarioScript::new().crash(100, vec![2]).recover(200, vec![2]),
                ..NetworkConfig::default()
            },
        );
        let mut sched = DetRng::seeded(8, 0);
        net.run_async(300, &mut sched);
        for agent in net.agents() {
            for &(tick, kind, peer) in &agent.log {
                eat(((tick as u64) << 40) | ((kind as u64) << 32) | peer as u64);
            }
        }
        let m = net.metrics();
        for v in [m.messages_sent, m.bits_sent, m.undelivered, net.oplog().len() as u64] {
            eat(v);
        }
        assert_eq!(digest, 0xceb4_1af0_ab5f_747e, "delivery order changed: {digest:#018x}");
    }
}
