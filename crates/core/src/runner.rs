//! Orchestration: configure, build, drive, and report on protocol runs.
//!
//! [`RunConfig`] captures everything that defines one run — network
//! size, `γ`, the initial color configuration, fault fraction and
//! placement, loss schedule and scenario, parameter ablations — and
//! nothing a run does not read: the instance plane takes its
//! [`InstancePlan`](crate::instances::InstancePlan) as an argument.
//! [`run_protocol`] executes one fully honest run on the monomorphic
//! agent plane; [`build_network_slots`] + [`drive_network`] +
//! [`collect_report`] expose the pieces so the adversary harness can
//! inject deviating agents into the same pipeline.
//!
//! ## The trial arena
//!
//! Monte-Carlo loops should hold a [`TrialArena`] per worker and call
//! [`TrialArena::run_protocol`] / [`TrialArena::run_with`] per trial: the
//! arena keeps one `Network<Msg, AgentSlot>` alive and re-arms it in
//! place ([`Network::reset_into`]), so the per-trial cost is re-seeding
//! agent state, not reallocating agent storage, scratch buffers, metrics
//! and op-log. `run_protocol(cfg, seed)` and
//! `arena.run_protocol(cfg, seed)` return bit-identical reports.
//!
//! ## One engine per discipline
//!
//! The drivers here never choose an engine: they call
//! [`Network::step_staged`], which runs each round on the engine
//! [`RunConfig::rng_discipline`] selects — the serial [`Network::step`]
//! under `Sequential` (every historical digest), the staged pipeline
//! under `PerAgent` (on `threads` shards, one included). Fully dynamic
//! agents plug into the same pipeline as [`AgentSlot::Custom`].
//!
//! Every run — synchronous rounds, checkpointed runs, the instance
//! plane, async ticks, the `rfc-node` session — walks one phase clock,
//! [`drive_phases`], the only code that enters phase labels and
//! finalizes.
//!
//! Determinism: every run is a pure function of `(RunConfig, seed)`. The
//! master seed is split into independent streams for color assignment,
//! fault placement, and each agent's private coins.

use crate::agent_plane::AgentSlot;
use crate::audit::{audit_good_execution, GoodExecutionReport};
use crate::engine::{ConsensusAgent, ProtocolCore, Role, VerifyFailure};
use crate::msg::Msg;
use crate::outcome::{combine_decisions, Decision, Outcome};
use crate::params::Params;
use crate::payload::PayloadPool;
use gossip_net::agent::Agent;
use gossip_net::dynamics::{FaultState, LossSchedule, ScenarioScript};
use gossip_net::fault::{FaultPlan, Placement};
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::metrics::Metrics;
use gossip_net::network::{Network, NetworkConfig, StageTimes};
use gossip_net::rng::{DetRng, RngDiscipline};
use gossip_net::size::SizeEnv;
use gossip_net::topology::Topology;
use std::sync::Arc;

/// RNG stream labels: one sub-stream per independent randomness consumer.
/// Public so external drivers — the instance plane replicating the legacy
/// per-agent streams for its instance 0 — derive the exact same
/// randomness from `(seed, stream)`.
pub mod streams {
    /// Color-assignment permutation stream.
    pub const COLORS: u64 = 0x01;
    /// Fault-placement stream.
    pub const FAULTS: u64 = 0x02;
    /// Message-loss process stream.
    pub const LOSS: u64 = 0x03;
    /// Agent `i`'s private stream is `AGENT_BASE + i`.
    pub const AGENT_BASE: u64 = 0x1000;
}

/// How initial colors are assigned to agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColorSpec {
    /// `counts[c]` agents get color `c`; the assignment to ids is a
    /// seeded random permutation. Counts must sum to `n`.
    Counts(Vec<usize>),
    /// Fair leader election: every agent's color is its own id.
    LeaderElection,
    /// Explicit per-agent colors (id-indexed; length must equal `n`).
    /// Used by the adversary harness to pin coalition colors.
    Explicit(Vec<ColorId>),
    /// All agents share color 0 (degenerate sanity case).
    Uniform,
}

/// Network topology selector (complete graph unless testing extensions).
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's setting: the complete graph `K_n`.
    Complete,
    /// Erdős–Rényi `G(n, p)`.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
    },
    /// Random `d`-regular graph.
    RandomRegular {
        /// Vertex degree.
        d: usize,
    },
    /// The cycle `C_n` (worst case for rumor spreading).
    Ring,
}

/// Everything defining one protocol-run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Number of agents `n`.
    pub n: usize,
    /// The constant `γ` in `q = γ·log₂ n`.
    pub gamma: f64,
    /// Override the vote-space size `m` (default `n³`; E11 ablation).
    pub m_override: Option<u64>,
    /// Initial color configuration.
    pub colors: ColorSpec,
    /// Fraction `α` of faulty agents.
    pub fault_fraction: f64,
    /// Where the adversary places the faults.
    pub fault_placement: Placement,
    /// Topology (complete graph in the paper).
    pub topology: TopologySpec,
    /// Record the operation log and produce a good-execution audit.
    pub record_ops: bool,
    /// Disable the Coherence phase (E11 ablation: equivocation becomes
    /// undetectable and coalition attacks succeed).
    pub skip_coherence: bool,
    /// Disable ledger verification (E11 ablation: fake-min attacks win).
    pub skip_verification: bool,
    /// Per-message drop probability over rounds (failure injection,
    /// E13/E15). The paper's model assumes reliable channels, the
    /// default `LossSchedule::constant(0.0)`; a constant schedule with
    /// an empty script is the static path.
    pub loss: LossSchedule,
    /// Timed adversity events (churn, partitions; E15). The empty
    /// script is the static path, bit-identical to the pre-dynamics
    /// engine.
    pub scenario: ScenarioScript,
    /// Loss-draw discipline (see [`RngDiscipline`]), and with it the
    /// round engine. `Sequential` (the default) runs the serial
    /// monolithic engine, bit-identical to every historical digest.
    /// `PerAgent` runs the staged, sharded engine, whose digests are
    /// pinned by their own golden rows.
    pub rng_discipline: RngDiscipline,
    /// Worker threads for intra-trial sharding (`0` = available
    /// parallelism): the shards of a `PerAgent` round, and of
    /// Verification under either discipline. A `Sequential` round is
    /// serial whatever this says. A pure throughput knob: the report is
    /// bit-identical for every value — *for agents whose handlers touch
    /// only their own state*, which every slot satisfies except
    /// coalition deviators (shared intel). The adversary harness
    /// therefore forces attack trials onto one thread regardless of
    /// this field.
    pub threads: usize,
    /// Minimum agents per shard before an extra shard pays for itself
    /// (the small-`n` "sharding cliff" guard). `None` uses the tuned
    /// default [`gossip_net::MIN_AGENTS_PER_SHARD`]; `Some(0)` disables
    /// the floor (tests that must exercise real multi-shard execution at
    /// tiny `n` set this); `Some(k)` sets a custom floor. The floor
    /// clamps the effective shard count (down to one shard, which is
    /// the same pipeline); the engine is thread-invariant, so this is a
    /// pure throughput knob — checkpoint fingerprints normalize it away
    /// like `threads`.
    pub shard_floor: Option<usize>,
    /// Collect the per-stage wall-clock breakdown
    /// ([`RunReport::stage_times`]). Observability only: timing reads
    /// the clock but never feeds back into execution, so digests are
    /// unaffected. Only the staged engine is instrumented, so only
    /// `PerAgent` runs report it; `Sequential` runs report `None`.
    pub time_stages: bool,
}

impl RunConfig {
    /// Start building a config for `n` agents (γ = 3, two equal colors,
    /// no faults, complete graph).
    pub fn builder(n: usize) -> RunConfigBuilder {
        RunConfigBuilder::new(n)
    }

    /// The derived protocol parameters.
    pub fn params(&self) -> Params {
        let p = Params::new(self.n, self.gamma);
        self.m_override.map_or(p, |m| p.with_m(m))
    }

    /// Build the topology instance (seeded for the random families).
    pub fn topology(&self, seed: u64) -> Topology {
        match &self.topology {
            TopologySpec::Complete => Topology::complete(self.n),
            TopologySpec::ErdosRenyi { p } => Topology::erdos_renyi(self.n, *p, seed),
            TopologySpec::RandomRegular { d } => Topology::random_regular(self.n, *d, seed),
            TopologySpec::Ring => Topology::ring(self.n),
        }
    }

    /// Assign initial colors (seeded permutation for `Counts`).
    pub fn assign_colors(&self, seed: u64) -> Vec<ColorId> {
        match &self.colors {
            ColorSpec::Uniform => vec![0; self.n],
            ColorSpec::LeaderElection => (0..self.n as ColorId).collect(),
            ColorSpec::Explicit(colors) => {
                assert_eq!(colors.len(), self.n, "explicit colors must cover all agents");
                colors.clone()
            }
            ColorSpec::Counts(counts) => {
                let total: usize = counts.iter().sum();
                assert_eq!(
                    total, self.n,
                    "color counts must sum to n ({total} != {})",
                    self.n
                );
                let mut colors: Vec<ColorId> = counts
                    .iter()
                    .enumerate()
                    .flat_map(|(c, &k)| std::iter::repeat_n(c as ColorId, k))
                    .collect();
                let mut rng = DetRng::seeded(seed, streams::COLORS);
                rng.shuffle(&mut colors);
                colors
            }
        }
    }

    /// Build the fault plan.
    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        if self.fault_fraction <= 0.0 {
            FaultPlan::none(self.n)
        } else {
            let placement = match self.fault_placement {
                Placement::Random { .. } => Placement::Random {
                    seed: gossip_net::rng::derive_seed(seed, streams::FAULTS),
                },
                other => other,
            };
            FaultPlan::fraction(self.n, self.fault_fraction, placement)
        }
    }
}

/// Fluent builder for [`RunConfig`].
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    fn new(n: usize) -> Self {
        RunConfigBuilder {
            cfg: RunConfig {
                n,
                gamma: 3.0,
                m_override: None,
                colors: ColorSpec::Counts(vec![n - n / 2, n / 2]),
                fault_fraction: 0.0,
                fault_placement: Placement::Random { seed: 0 },
                topology: TopologySpec::Complete,
                record_ops: false,
                skip_coherence: false,
                skip_verification: false,
                loss: LossSchedule::constant(0.0),
                scenario: ScenarioScript::new(),
                rng_discipline: RngDiscipline::Sequential,
                threads: 1,
                shard_floor: None,
                time_stages: false,
            },
        }
    }

    /// Set `γ` (per-phase budget `q = γ·log₂ n`).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.cfg.gamma = gamma;
        self
    }

    /// Set color counts (must sum to `n`).
    pub fn colors(mut self, counts: Vec<usize>) -> Self {
        self.cfg.colors = ColorSpec::Counts(counts);
        self
    }

    /// Fair leader election mode: every agent supports its own id.
    pub fn leader_election(mut self) -> Self {
        self.cfg.colors = ColorSpec::LeaderElection;
        self
    }

    /// Explicit per-agent colors (id-indexed).
    pub fn explicit_colors(mut self, colors: Vec<ColorId>) -> Self {
        self.cfg.colors = ColorSpec::Explicit(colors);
        self
    }

    /// Fault a fraction `α` of agents with the given placement.
    pub fn faults(mut self, alpha: f64, placement: Placement) -> Self {
        self.cfg.fault_fraction = alpha;
        self.cfg.fault_placement = placement;
        self
    }

    /// Override the vote-space size `m`.
    pub fn m(mut self, m: u64) -> Self {
        self.cfg.m_override = Some(m);
        self
    }

    /// Select a non-complete topology.
    pub fn topology(mut self, t: TopologySpec) -> Self {
        self.cfg.topology = t;
        self
    }

    /// Record the op log and produce a good-execution audit.
    pub fn record_ops(mut self, yes: bool) -> Self {
        self.cfg.record_ops = yes;
        self
    }

    /// Ablation: drop the Coherence phase.
    pub fn skip_coherence(mut self, yes: bool) -> Self {
        self.cfg.skip_coherence = yes;
        self
    }

    /// Ablation: drop ledger verification.
    pub fn skip_verification(mut self, yes: bool) -> Self {
        self.cfg.skip_verification = yes;
        self
    }

    /// Failure injection: independent per-message drop probability `p`
    /// in every round (panics unless `p ∈ [0, 1]`).
    pub fn message_loss(self, p: f64) -> Self {
        self.loss_schedule(LossSchedule::constant(p))
    }

    /// Time-varying loss: a piecewise-constant schedule.
    pub fn loss_schedule(mut self, schedule: LossSchedule) -> Self {
        self.cfg.loss = schedule;
        self
    }

    /// Dynamic adversity: a scripted timeline of crash/recover/
    /// partition/heal events applied by the network before each round.
    pub fn scenario(mut self, script: ScenarioScript) -> Self {
        self.cfg.scenario = script;
        self
    }

    /// Select the loss-draw discipline (see [`RngDiscipline`]).
    pub fn rng_discipline(mut self, d: RngDiscipline) -> Self {
        self.cfg.rng_discipline = d;
        self
    }

    /// Intra-trial worker threads (`0` = available parallelism). Results
    /// are bit-identical for every value; see [`RunConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Convenience: the sharded engine preset — [`RngDiscipline::PerAgent`]
    /// with `threads` plan/apply shards (`0` = available parallelism).
    pub fn sharded(self, threads: usize) -> Self {
        self.rng_discipline(RngDiscipline::PerAgent).threads(threads)
    }

    /// Override the minimum agents-per-shard floor (`0` disables it);
    /// see [`RunConfig::shard_floor`].
    pub fn shard_floor(mut self, floor: usize) -> Self {
        self.cfg.shard_floor = Some(floor);
        self
    }

    /// Collect the per-stage wall-clock breakdown into
    /// [`RunReport::stage_times`].
    pub fn time_stages(mut self, on: bool) -> Self {
        self.cfg.time_stages = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> RunConfig {
        self.cfg
    }
}

/// Result of one protocol run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Global outcome.
    pub outcome: Outcome,
    /// Communicating rounds executed (`4q` for the sync schedule).
    pub rounds: usize,
    /// Wire metrics (messages, bits, per-phase tallies).
    pub metrics: Metrics,
    /// Owner of the agreed certificate, if consensus was reached.
    pub winner: Option<AgentId>,
    /// Per-agent terminal status (id-indexed). Under a dynamic scenario
    /// an agent still crashed at finalization is reported
    /// [`Decision::Faulty`], exactly like a plan-permanent fault — the
    /// outcome is defined over the **survivor set**.
    pub decisions: Vec<Decision>,
    /// Initial colors (id-indexed).
    pub initial_colors: Vec<ColorId>,
    /// Number of agents active **at finalization** (the survivor set:
    /// plan-active and not crashed, or crashed-and-recovered). Equals
    /// the plan's active count for static runs; validity and fairness
    /// ([`Self::active_fraction`]) are measured over this set.
    pub n_active: usize,
    /// Per-agent failure diagnostics (id-indexed; `None` = did not fail).
    pub verify_failures: Vec<Option<VerifyFailure>>,
    /// Good-execution audit (present when `record_ops` was set).
    pub audit: Option<GoodExecutionReport>,
    /// Cumulative per-stage wall-clock breakdown (present when
    /// [`RunConfig::time_stages`] was set on a `PerAgent` run).
    /// Observability only — never part of a digest.
    pub stage_times: Option<StageTimes>,
}

impl RunReport {
    /// Count the honest-agent failure kinds of this run (diagnostics for
    /// attack experiments: which check caught the deviation?).
    pub fn failure_histogram(&self) -> Vec<(VerifyFailure, usize)> {
        let mut out: Vec<(VerifyFailure, usize)> = Vec::new();
        for vf in self.verify_failures.iter().flatten() {
            if let Some(e) = out.iter_mut().find(|(k, _)| k == vf) {
                e.1 += 1;
            } else {
                out.push((*vf, 1));
            }
        }
        out
    }

    /// Ids of the agents active at finalization (the survivor set the
    /// outcome was combined over).
    pub fn survivors(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| !matches!(d, Decision::Faulty))
            .map(|(i, _)| i as AgentId)
    }

    /// Fraction of *surviving* agents initially supporting `c` — the
    /// fairness target probability for color `c`.
    pub fn active_fraction(&self, c: ColorId) -> f64 {
        if self.n_active == 0 {
            return 0.0;
        }
        let cnt = self
            .decisions
            .iter()
            .zip(&self.initial_colors)
            .filter(|(d, &col)| !matches!(d, Decision::Faulty) && col == c)
            .count();
        cnt as f64 / self.n_active as f64
    }
}

/// Agent factory for [`build_network_slots`]: receives the agent's id,
/// protocol parameters, initial color, private RNG stream, and the run
/// topology (so intention targets can respect sparse graphs), and
/// returns the agent. The default output is an [`AgentSlot`] — the
/// monomorphic agent plane, where built-in agents avoid boxing and only
/// [`AgentSlot::Custom`] pays for dynamism. Other slot types wrap the
/// same agents: the `rfc-node` session wraps each one with the socket
/// that carries its cross-process traffic.
pub type SlotFactory<'a, A = AgentSlot> =
    dyn FnMut(AgentId, Params, ColorId, DetRng, &Topology) -> A + 'a;

/// Everything derived from `(cfg, seed)` that a network build needs.
/// Crate-visible so `crate::checkpoint` can rebuild the immutable
/// ingredients on restore instead of serializing them.
pub(crate) fn network_ingredients(
    cfg: &RunConfig,
    seed: u64,
) -> (Params, Vec<ColorId>, FaultPlan, Topology, SizeEnv, NetworkConfig) {
    let params = cfg.params();
    let colors = cfg.assign_colors(seed);
    let faults = cfg.fault_plan(seed);
    let topology = cfg.topology(seed);
    let env = SizeEnv::with_params(cfg.n, params.m, params.q, color_space_size(cfg));
    let net_cfg = NetworkConfig {
        record_ops: cfg.record_ops,
        loss: cfg.loss.clone(),
        loss_seed: gossip_net::rng::derive_seed(seed, streams::LOSS),
        scenario: cfg.scenario.clone(),
        rng_discipline: cfg.rng_discipline,
        threads: cfg.threads,
        shard_floor: resolved_shard_floor(cfg),
        time_stages: cfg.time_stages,
    };
    (params, colors, faults, topology, env, net_cfg)
}

/// The effective agents-per-shard floor: the run's override, or the
/// tuned [`gossip_net::MIN_AGENTS_PER_SHARD`] default.
pub(crate) fn resolved_shard_floor(cfg: &RunConfig) -> usize {
    cfg.shard_floor.unwrap_or(gossip_net::MIN_AGENTS_PER_SHARD)
}

/// Push the `n` per-trial agents (fresh RNG stream each) into `agents`.
fn fill_agents<A>(
    agents: &mut Vec<A>,
    cfg: &RunConfig,
    seed: u64,
    params: Params,
    colors: &[ColorId],
    topology: &Topology,
    factory: &mut dyn FnMut(AgentId, Params, ColorId, DetRng, &Topology) -> A,
) {
    agents.reserve(cfg.n);
    for (i, &color) in colors[..cfg.n].iter().enumerate() {
        let rng = DetRng::seeded(seed, streams::AGENT_BASE + i as u64);
        agents.push(factory(i as AgentId, params, color, rng, topology));
    }
}

/// Build a ready-to-run network of the agents `factory` makes — every
/// world ingredient (topology, colors, faults, per-agent RNG streams,
/// metering environment) derived from `(cfg, seed)`, and a fresh
/// [`PayloadPool`] the agents' cores join. Every runner in this crate
/// builds through here or [`build_network_in`].
pub fn build_network_slots<A: Agent<Msg>>(
    cfg: &RunConfig,
    seed: u64,
    factory: &mut SlotFactory<A>,
) -> Network<Msg, A> {
    build_network_in(cfg, seed, &PayloadPool::for_network(cfg.params()), factory)
}

/// [`build_network_slots`] with the caller's payload pool — the
/// `rfc-node` session builds each endpoint's network this way, so it can
/// encode and decode the endpoint's socket traffic through the pool.
pub fn build_network_in<A: Agent<Msg>>(
    cfg: &RunConfig,
    seed: u64,
    pool: &Arc<PayloadPool>,
    factory: &mut SlotFactory<A>,
) -> Network<Msg, A> {
    let (params, colors, faults, topology, env, net_cfg) = network_ingredients(cfg, seed);
    let mut agents: Vec<A> = Vec::new();
    PayloadPool::building(pool, || {
        fill_agents(&mut agents, cfg, seed, params, &colors, &topology, factory)
    });
    Network::with_config(topology, env, agents, faults, net_cfg)
}

/// The honest [`SlotFactory`]: every agent runs protocol `P` on the
/// synchronous schedule.
pub fn honest_slot_factory(
    id: AgentId,
    params: Params,
    color: ColorId,
    rng: DetRng,
    topo: &Topology,
) -> AgentSlot {
    AgentSlot::honest(ProtocolCore::new_on(topo, id, params, params.sync_schedule(), color, rng))
}

/// A reusable per-worker simulation arena (see the module docs).
///
/// Holds one slot-typed network and its payload pool across trials and
/// re-arms both in place, so steady-state trials reuse the agent vector,
/// the op/reply scratch buffers, the metrics phase table, the op-log
/// event buffer and the pool's tables instead of reallocating them.
/// Dropping the arena frees everything.
#[derive(Default)]
pub struct TrialArena {
    net: Option<Network<Msg, AgentSlot>>,
    pool: Option<Arc<PayloadPool>>,
}

impl TrialArena {
    /// An empty arena (the first trial builds the network).
    pub fn new() -> Self {
        TrialArena::default()
    }

    /// Run one fully honest trial in the arena. Bit-identical to
    /// [`run_protocol`] for the same `(cfg, seed)`.
    pub fn run_protocol(&mut self, cfg: &RunConfig, seed: u64) -> RunReport {
        self.run_with(cfg, seed, &mut honest_slot_factory)
    }

    /// Run one trial with custom agent construction (the adversary
    /// harness plugs deviating slots in here).
    pub fn run_with(&mut self, cfg: &RunConfig, seed: u64, factory: &mut SlotFactory) -> RunReport {
        let (params, colors, faults, topology, env, net_cfg) = network_ingredients(cfg, seed);
        let pool_slot = &mut self.pool;
        let mut fill = |agents: &mut Vec<AgentSlot>, topo: &Topology| {
            // The last trial's agents are gone by now, and with them
            // every other reference to the pool.
            let pool = match pool_slot.as_mut().and_then(Arc::get_mut) {
                Some(pool) => {
                    pool.rearm(params, cfg.n);
                    pool_slot.as_ref().expect("pool just re-armed")
                }
                None => pool_slot.insert(PayloadPool::for_network(params)),
            };
            PayloadPool::building(pool, || {
                fill_agents(agents, cfg, seed, params, &colors, topo, factory)
            });
        };
        match &mut self.net {
            Some(net) => net.reset_into(topology, env, faults, net_cfg, fill),
            None => {
                let mut agents: Vec<AgentSlot> = Vec::new();
                fill(&mut agents, &topology);
                self.net = Some(Network::with_config(topology, env, agents, faults, net_cfg));
            }
        }
        let net = self.net.as_mut().expect("arena network just ensured");
        drive_network(net, cfg);
        collect_report(net, cfg)
    }
}

fn color_space_size(cfg: &RunConfig) -> usize {
    match &cfg.colors {
        ColorSpec::Counts(c) => c.len().max(2),
        ColorSpec::LeaderElection => cfg.n,
        ColorSpec::Uniform => 2,
        ColorSpec::Explicit(colors) => {
            colors.iter().map(|&c| c as usize + 1).max().unwrap_or(2).max(2)
        }
    }
}

/// The phase clock every run walks, for rounds and ticks alike.
///
/// `phases` lists `(label, end)` windows in order; windows `net.round()`
/// has already passed are skipped, so a mid-phase restore re-enters only
/// the in-flight label. Each remaining window enters its metrics label
/// once, then calls `advance` (one round or tick) and `after` until the
/// round reaches `end`. An `after` error is returned at once, nothing
/// finalized. After the last window the clock runs Verification
/// ([`Network::finalize`]).
pub fn drive_phases<M, A, E>(
    net: &mut Network<M, A>,
    phases: impl IntoIterator<Item = (&'static str, usize)>,
    mut advance: impl FnMut(&mut Network<M, A>),
    mut after: impl FnMut(&Network<M, A>) -> Result<(), E>,
) -> Result<(), E>
where
    M: gossip_net::size::MsgSize + Send + Sync,
    A: Agent<M> + Send,
{
    for (label, end) in phases {
        if net.round() >= end {
            continue;
        }
        net.enter_phase(label);
        while net.round() < end {
            advance(net);
            after(net)?;
        }
    }
    net.finalize();
    Ok(())
}

/// The `after` hook of a run that checks nothing.
pub(crate) fn unchecked<M, A>(_: &Network<M, A>) -> Result<(), std::convert::Infallible> {
    Ok(())
}

/// Drive the communicating phases from the network's current round and
/// finalize: [`drive_phases`] over the synchronous windows, one
/// [`Network::step_staged`] per round — so the engine is the one
/// [`RunConfig::rng_discipline`] selects: the monolithic
/// [`Network::step`] under `Sequential` (every historical digest) and
/// the staged pipeline under `PerAgent`, bit-identical across thread
/// counts.
pub fn drive_network<M, A>(net: &mut Network<M, A>, cfg: &RunConfig)
where
    M: gossip_net::size::MsgSize + Send + Sync,
    A: Agent<M> + Send,
{
    let Ok(()) = drive_phases(net, sync_windows(cfg), Network::step_staged, unchecked);
}

/// The synchronous phase windows of `cfg`: all four, or three under the
/// `skip_coherence` ablation, whose agents proceed to Verification with
/// whatever certificate Find-Min left them.
pub(crate) fn sync_windows(cfg: &RunConfig) -> impl Iterator<Item = (&'static str, usize)> {
    let kept = if cfg.skip_coherence { 3 } else { 4 };
    let windows = cfg.params().sync_schedule().windows();
    windows.into_iter().take(kept)
}

/// The synchronous rounds a run of `cfg` takes.
pub(crate) fn sync_rounds(cfg: &RunConfig) -> usize {
    sync_windows(cfg).last().map_or(0, |(_, end)| end)
}

/// Extract a [`RunReport`] from a finished network.
///
/// The global outcome is the agreement reached by the *honest* active
/// agents: a deviator that refuses to terminate cannot nullify a
/// consensus the rest of the network reached (the coalition's utility is
/// determined by the color the network converges to — paper §3.2, where
/// the Winner is defined by the certificate held after Coherence).
///
/// Survivor-set accounting: "active" means active **at finalization**
/// ([`Network::fault_state`]), so scripted churn is reflected — an agent
/// still crashed at the end counts as [`Decision::Faulty`], one that
/// recovered counts by whatever it decided. For static runs this is the
/// plan's active set, unchanged.
pub fn collect_report<A: ConsensusAgent>(net: &Network<Msg, A>, cfg: &RunConfig) -> RunReport {
    let mut report = report_of_agents(
        net.agents().iter(),
        net.fault_state(),
        cfg,
        net.round(),
        net.metrics().clone(),
    );
    report.audit = cfg.record_ops.then(|| audit_good_execution(net));
    report.stage_times = (cfg.time_stages && cfg.rng_discipline == RngDiscipline::PerAgent)
        .then(|| net.stage_times());
    report
}

/// [`collect_report`]'s decision, winner and outcome walk over any
/// id-indexed sequence of consensus agents (the instance plane passes one
/// instance's cells). `rounds` and `metrics` are stored as given; `audit`
/// and `stage_times` are left `None`.
pub(crate) fn report_of_agents<'a, A: ConsensusAgent + 'a>(
    agents: impl ExactSizeIterator<Item = &'a A>,
    faults: &FaultState,
    cfg: &RunConfig,
    rounds: usize,
    metrics: Metrics,
) -> RunReport {
    let n = agents.len();
    let mut decisions = Vec::with_capacity(n);
    let mut honest_decisions = Vec::with_capacity(n);
    let mut initial_colors = Vec::with_capacity(n);
    let mut verify_failures = Vec::with_capacity(n);
    let mut winner: Option<AgentId> = None;
    for (id, agent) in (0..n as AgentId).zip(agents) {
        let core = agent.core();
        initial_colors.push(core.color);
        verify_failures.push(core.verify_failure);
        let d = if faults.is_down(id) {
            Decision::Faulty
        } else {
            match effective_decision(core, cfg) {
                Some(c) => {
                    if winner.is_none() && agent.role() == Role::Honest {
                        winner = core.min_cert_data().map(|ce| ce.owner);
                    }
                    Decision::Decided(c)
                }
                None => Decision::Failed,
            }
        };
        if agent.role() == Role::Honest {
            honest_decisions.push(d);
        }
        decisions.push(d);
    }
    let outcome = combine_decisions(&honest_decisions);
    if !outcome.is_consensus() {
        winner = None;
    }
    RunReport {
        outcome,
        rounds,
        metrics,
        winner,
        decisions,
        initial_colors,
        n_active: faults.n_active(),
        verify_failures,
        audit: None,
        stage_times: None,
    }
}

/// Apply the `skip_verification` ablation: when verification is disabled
/// an agent simply adopts its minimum certificate's color (even one that
/// would have failed the checks).
pub(crate) fn effective_decision(core: &ProtocolCore, cfg: &RunConfig) -> Option<ColorId> {
    if cfg.skip_verification {
        if core.failed && core.verify_failure != Some(crate::engine::VerifyFailure::FailedEarlier)
        {
            // Verification-type failures are bypassed by the ablation…
            return core.min_cert_data().map(|c| c.color);
        }
        if core.failed {
            // …but Coherence failures still count (it is a separate phase).
            return None;
        }
        return core.min_cert_data().map(|c| c.color);
    }
    core.decision()
}

/// Run protocol `P` with every agent honest, on the monomorphic agent
/// plane. The canonical entry point. (Monte-Carlo loops should prefer a
/// per-worker [`TrialArena`], which additionally reuses allocations
/// across trials; both produce bit-identical reports.)
pub fn run_protocol(cfg: &RunConfig, seed: u64) -> RunReport {
    let mut net = build_network_slots(cfg, seed, &mut honest_slot_factory);
    drive_network(&mut net, cfg);
    collect_report(&net, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_run_reaches_consensus() {
        let cfg = RunConfig::builder(32).gamma(3.0).colors(vec![16, 16]).build();
        let report = run_protocol(&cfg, 42);
        assert!(
            report.outcome.is_consensus(),
            "fault-free honest run must succeed: {:?}",
            report.outcome
        );
        assert_eq!(report.rounds, cfg.params().total_rounds());
        assert_eq!(report.n_active, 32);
    }

    #[test]
    fn consensus_color_is_winners_initial_color() {
        let cfg = RunConfig::builder(32).colors(vec![10, 12, 10]).build();
        let report = run_protocol(&cfg, 7);
        let c = report.outcome.winning_color().expect("consensus");
        let w = report.winner.expect("winner id");
        assert_eq!(report.initial_colors[w as usize], c);
    }

    #[test]
    fn different_seeds_can_give_different_winners() {
        let cfg = RunConfig::builder(32).colors(vec![16, 16]).build();
        let mut winners = std::collections::HashSet::new();
        for seed in 0..20 {
            winners.insert(run_protocol(&cfg, seed).winner);
        }
        assert!(winners.len() > 1, "winner should vary across seeds");
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let cfg = RunConfig::builder(24).colors(vec![8, 8, 8]).build();
        let a = run_protocol(&cfg, 123);
        let b = run_protocol(&cfg, 123);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
        assert_eq!(a.metrics.bits_sent, b.metrics.bits_sent);
    }

    #[test]
    fn faulty_agents_get_faulty_decisions() {
        let cfg = RunConfig::builder(32)
            .colors(vec![16, 16])
            .faults(0.25, Placement::LowIds)
            .gamma(4.0)
            .build();
        let report = run_protocol(&cfg, 9);
        let n_faulty = report
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::Faulty))
            .count();
        assert_eq!(n_faulty, 8);
        assert_eq!(report.n_active, 24);
        assert!(report.outcome.is_consensus());
    }

    #[test]
    fn color_assignment_respects_counts() {
        let cfg = RunConfig::builder(20).colors(vec![5, 7, 8]).build();
        let colors = cfg.assign_colors(11);
        let count = |c: ColorId| colors.iter().filter(|&&x| x == c).count();
        assert_eq!(count(0), 5);
        assert_eq!(count(1), 7);
        assert_eq!(count(2), 8);
    }

    #[test]
    #[should_panic(expected = "must sum to n")]
    fn bad_color_counts_panic() {
        let cfg = RunConfig::builder(10).colors(vec![3, 3]).build();
        let _ = cfg.assign_colors(0);
    }

    #[test]
    fn leader_election_assigns_ids() {
        let cfg = RunConfig::builder(10).leader_election().build();
        let colors = cfg.assign_colors(0);
        assert_eq!(colors, (0..10).collect::<Vec<ColorId>>());
    }

    #[test]
    fn active_fraction_counts_only_active() {
        let cfg = RunConfig::builder(16)
            .colors(vec![8, 8])
            .faults(0.5, Placement::LowIds)
            .gamma(4.0)
            .build();
        let report = run_protocol(&cfg, 3);
        let f0 = report.active_fraction(0);
        let f1 = report.active_fraction(1);
        assert!((f0 + f1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn audit_present_iff_requested() {
        let cfg = RunConfig::builder(16).record_ops(true).build();
        assert!(run_protocol(&cfg, 1).audit.is_some());
        let cfg = RunConfig::builder(16).record_ops(false).build();
        assert!(run_protocol(&cfg, 1).audit.is_none());
    }

    #[test]
    fn message_sizes_are_polylog() {
        // Theorem 4: messages of size O(log² n).
        let n = 256;
        let cfg = RunConfig::builder(n).build();
        let report = run_protocol(&cfg, 5);
        let log2n = 8u64;
        assert!(
            report.metrics.max_message_bits <= 40 * log2n * log2n,
            "max message {} bits exceeds O(log² n) ballpark",
            report.metrics.max_message_bits
        );
    }

    fn report_key(r: &RunReport) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}",
            r.outcome, r.winner, r.decisions, r.metrics, r.rounds, r.initial_colors,
            r.verify_failures
        )
    }

    #[test]
    fn sharded_loss_free_run_matches_sequential() {
        // With p = 0 neither discipline draws loss coins, so the sharded
        // engine's report equals the sequential one exactly.
        let base = RunConfig::builder(32).colors(vec![16, 16]).shard_floor(0);
        let want = report_key(&run_protocol(&base.clone().build(), 9));
        let cfg = base.clone().sharded(4).build();
        assert_eq!(report_key(&run_protocol(&cfg, 9)), want);
    }

    #[test]
    fn sharded_run_is_thread_invariant() {
        let base = RunConfig::builder(32)
            .colors(vec![16, 16])
            .message_loss(0.05)
            .record_ops(true)
            .shard_floor(0);
        let want = report_key(&run_protocol(&base.clone().sharded(1).build(), 17));
        for threads in [2usize, 8] {
            let got = report_key(&run_protocol(&base.clone().sharded(threads).build(), 17));
            assert_eq!(got, want, "sharded report must not depend on thread count");
        }
    }

    #[test]
    fn shard_floor_clamp_is_digest_invisible() {
        // Below the floor `PerAgent` clamps its shard count, which must
        // be invisible in the report. n = 24 is far under the default
        // 2048-agents-per-shard floor, so the default floor runs one
        // shard and `shard_floor(0)` the real multi-shard path.
        let base = RunConfig::builder(24)
            .colors(vec![12, 12])
            .message_loss(0.15)
            .record_ops(true);
        let per_floored = report_key(&run_protocol(&base.clone().sharded(4).build(), 23));
        let per_unfloored =
            report_key(&run_protocol(&base.clone().sharded(4).shard_floor(0).build(), 23));
        assert_eq!(per_floored, per_unfloored, "PerAgent shard-count clamp diverged");
    }

    #[test]
    fn arena_reuses_sharded_runs_bit_for_bit() {
        let cfg =
            RunConfig::builder(24).colors(vec![12, 12]).sharded(3).shard_floor(0).build();
        let fresh = report_key(&run_protocol(&cfg, 5));
        let mut arena = TrialArena::new();
        // Interleave other shapes to try to poison the scratch.
        let other = RunConfig::builder(16).colors(vec![8, 8]).build();
        let _ = arena.run_protocol(&other, 1);
        assert_eq!(report_key(&arena.run_protocol(&cfg, 5)), fresh);
        let _ = arena.run_protocol(&other, 2);
        assert_eq!(report_key(&arena.run_protocol(&cfg, 5)), fresh);
    }

    #[test]
    fn clock_error_ends_the_run_at_that_unit_unfinalized() {
        let cfg = RunConfig::builder(16).colors(vec![8, 8]).build();
        let q = cfg.params().q;
        let labels = ["commitment", "voting", "find-min", "coherence"];
        for k in [1, q, q + 1, 3 * q + 2, 4 * q] {
            let mut net = build_network_slots(&cfg, 3, &mut honest_slot_factory);
            let stopped = drive_phases(&mut net, sync_windows(&cfg), Network::step_staged, |net| {
                if net.round() == k {
                    Err(net.round())
                } else {
                    Ok(())
                }
            });
            assert_eq!(stopped, Err(k));
            assert_eq!(net.round(), k);
            assert!(
                net.agents().iter().all(|a| a.core().decision().is_none()),
                "unit {k}: an agent decided without Verification"
            );
            let metrics = net.metrics();
            let entered: Vec<&str> = metrics.phases.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(entered, labels[..(k - 1) / q + 1], "unit {k}");
        }
    }

    #[test]
    fn uniform_colors_always_win() {
        let cfg = RunConfig::builder(16)
            .gamma(2.0)
            .build();
        let mut cfg = cfg;
        cfg.colors = ColorSpec::Uniform;
        let report = run_protocol(&cfg, 2);
        assert_eq!(report.outcome, Outcome::Consensus(0));
    }
}
