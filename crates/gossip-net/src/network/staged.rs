//! The staged round engine: plan → exchange → apply, sharded across
//! worker threads **inside** one trial.
//!
//! [`Network::step`] walks agents one by one; trial-level parallelism
//! (`experiments::parallel`) therefore tops out where one trial stops
//! fitting the experiment — the million-agent regime has no per-trial
//! parallelism to offer it. This module runs the
//! [`RngDiscipline::PerAgent`] round as three explicit stages:
//!
//! 1. **plan** — every active agent is asked for its at-most-one [`Op`],
//!    *in parallel over contiguous agent shards*; per-shard intent
//!    buffers are concatenated in shard order, which reproduces exactly
//!    the id-order op list the monolithic engine builds (an agent's
//!    `act` touches only its own state and private RNG, so acts
//!    commute).
//! 2. **exchange** — the flat op list is turned into a CSR-style
//!    *delivery ledger* grouped by receiver (one ledger for pushes by
//!    receiver, one for pull queries by pullee, one flat list of pulls
//!    by puller), and every dynamics mask — topology edge, partition
//!    cut, crash/fault state, loss draw — is applied once per message,
//!    at send time, exactly as the metering contract demands. The
//!    ledgers are built by a sharded counting-sort pipeline
//!    (`build_ledgers`: per-shard histograms → offset prefix sum →
//!    parallel scatter → sharded mask resolution).
//! 3. **apply** — deliveries run *in parallel over receiver shards*:
//!    first every pull query reaches its pullee's `on_pull`, then every
//!    delivered push reaches `on_push` and every reply reaches its
//!    puller's `on_reply`. A receiver's deliveries stay in ledger
//!    (= sender-id) order, and handlers mutate only their own agent, so
//!    the interleaving across shards is unobservable.
//!
//! One shard is not a special case: it is the same pipeline at `k = 1`,
//! whose single job per stage runs inline on the caller (the network's
//! worker pool, `ScopedPool`, holds no worker then).
//!
//! ## Determinism: bit-identical for any thread count
//!
//! Nothing any stage computes depends on the shard count: plan buffers
//! scatter into the flat op list at offsets prefix-summed in shard
//! order (= id order), ledger scatter positions come from a global
//! counting sort, send-time meters and per-shard reply meters are
//! exact [`Tally`]s merged in shard order (sums and maxes commute), and
//! every loss draw comes from a stream whose identity is independent of
//! sharding. No per-round pass over the op list remains serial.
//! `threads` is a pure throughput knob — pinned by the
//! thread-invariance suite (`tests/sharded_engine.rs`) and the sharded
//! golden rows.
//!
//! ## The two RNG disciplines
//!
//! [`Network::step_staged`] runs one round on the engine the
//! configured discipline selects:
//!
//! * [`RngDiscipline::Sequential`] (default): the monolithic
//!   [`Network::step`]. Pull queries are answered inline, in puller
//!   order, drawing the query/reply loss coins from the single
//!   sequential loss stream; every historical digest pins this
//!   interleaving. It is serial by construction — the shared stream
//!   orders every draw — so `threads` does not shard it (only
//!   Verification, [`Network::finalize`], shards).
//! * [`RngDiscipline::PerAgent`]: this module's pipeline. Every loss
//!   draw for a message agent `v` receives in round `r` comes from the
//!   stream [`loss_streams::per_agent`]`(loss_seed, FAMILY, r, v)` —
//!   families [`loss_streams::QUERY`], [`loss_streams::PUSH`],
//!   [`loss_streams::REPLY`] keep the three legs independent — drawn in
//!   ledger order. Draws no longer thread through a shared stream, so
//!   the *reply* coin can be pre-drawn at exchange time (one draw per
//!   pull, consumed whether or not the pullee answers) and `on_pull`
//!   moves into the parallel apply stage. This discipline produces
//!   different (equally valid) loss patterns than `Sequential`, so it
//!   has its own golden rows; with `p = 0` it differs from `Sequential`
//!   only in handler interleaving, which is unobservable (pinned over
//!   topologies and fault plans by `staged_properties.rs`).
//!
//! ## Metering contract addendum (sharded apply + sharded send-time)
//!
//! The send-time metering contract of [`crate::network`] is unchanged
//! in *meaning*: pushes and pull queries are metered at send time, in
//! op order, before any mask. Its *implementation* is now sharded too:
//! each exchange shard folds its contiguous op range into an exact
//! per-shard [`Tally`] and the tallies are merged into [`Metrics`] in
//! shard order ([`Metrics::record_bulk`]). A [`Tally`] is three sums
//! and a max, all of which commute and associate, so the merged meters
//! equal the sequential op-order pass bit for bit (pinned by a proptest
//! in `staged_properties.rs`). Pull replies are likewise metered where
//! they are *produced* — inside the parallel pull-apply shards — into
//! per-shard [`Tally`]s merged in shard order. A produced reply whose
//! pre-drawn transit coin came up "lost" is metered and counted
//! undelivered, like every other lost message.

use super::*;
use crate::bits::{atomic_set, BitSet};
use crate::metrics::Tally;
use crate::rng::loss_streams;
use std::mem::MaybeUninit;

/// Tuned default for [`NetworkConfig::shard_floor`]: below ~2048 agents
/// per shard the per-round barrier/merge overhead of an extra shard
/// outweighs its share of the work (the "sharding cliff" E16's shard
/// sweep measures), so runners clamp the shard count to keep at least
/// this many agents per shard unless explicitly overridden.
pub const MIN_AGENTS_PER_SHARD: usize = 2048;

/// Reusable scratch for the staged engine: the delivery ledgers, reply
/// slots, delivery-verdict bitsets, and per-shard plan/count buffers.
/// All buffers are retained across rounds (and across
/// [`Network::reset_into`] trials, cleared) — the steady-state staged
/// round allocates only when a high-water mark grows.
///
/// Delivery verdicts live in [`BitSet`]s indexed by **ledger position**
/// (the entry's index in its ledger) rather than as fields of the
/// entries. That keeps the entries at two words (struct-of-arrays: the
/// cold verdict bits stop riding along on every entry copy), and because
/// a resolve shard owns the contiguous ledger range of its receivers, the
/// parallel shards set their verdicts with relaxed atomic ORs into
/// disjoint words — only the word at a range boundary is shared (see
/// [`crate::bits`]). Op-indexed verdicts put every shard's bits in every
/// word, and each OR then bounced a cache line between cores.
#[derive(Debug)]
pub struct StagedScratch<M> {
    /// Per-shard plan output, concatenated into `Network::ops` in shard
    /// order after the plan barrier.
    plan_bufs: Vec<Vec<(AgentId, Op<M>)>>,
    /// Per-shard `act_multi` scratch (one agent's ops before they are
    /// id-tagged into the shard's plan buffer).
    plan_tmp: Vec<Vec<Op<M>>>,
    /// Push ledger offsets by receiver (`n + 1`).
    push_off: Vec<u32>,
    /// Push ledger entries, grouped by receiver, op order within a
    /// receiver.
    push_entries: Vec<PushEntry>,
    /// Query ledger offsets by pullee (`n + 1`).
    query_off: Vec<u32>,
    /// Query ledger entries, grouped by pullee.
    query_entries: Vec<QueryEntry>,
    /// All pulls of the round, in op (= puller-id) order.
    pulls: Vec<PullRec>,
    /// Reply slots, one per pull, at the pull's `qpos`: aligned with
    /// `query_entries` and written by the pull-apply shards. The
    /// delivery shards move each puller's reply straight out of its
    /// slot.
    replies: Vec<Option<M>>,
    /// Push delivery verdicts, by push-ledger position.
    push_delivered: BitSet,
    /// Query delivery verdicts, by query-ledger position.
    query_delivered: BitSet,
    /// Pre-drawn reply transit coins, by op index of the pull.
    reply_lost: BitSet,
    /// Per-shard query histograms for the parallel ledger build, shard
    /// `s` at `s * n..(s + 1) * n` (turned into absolute scatter cursors
    /// by the offset merge).
    shard_qcounts: Vec<u32>,
    /// Per-shard push histograms (same layout and life cycle as
    /// `shard_qcounts`).
    shard_pcounts: Vec<u32>,
    /// `(queries, pushes)` of shard `s`'s op range addressed to receiver
    /// range `r`, at `s * threads + r` — what the sharded offset merge
    /// needs to start each receiver range at its global offset.
    shard_ranges: Vec<(u32, u32)>,
    /// Per-shard pull totals (sizes the contiguous `pulls` segments).
    shard_pulls: Vec<u32>,
    /// Per-shard undelivered counts from the parallel mask resolution,
    /// merged into [`Metrics`] after the barrier.
    shard_undelivered: Vec<u64>,
    /// Per-shard reply meters for `apply_pulls` (kept here so the
    /// steady-state round does not allocate the merge buffer).
    shard_meters: Vec<(Tally, u64)>,
    /// Per-shard send-time meters for the exchange stage's sharded
    /// metering pass (merged in shard order).
    meter_tallies: Vec<Tally>,
}

/// One push delivery: `from` pushed op `op`. The mask verdict lives in
/// [`StagedScratch::push_delivered`] at the entry's ledger position.
#[derive(Debug, Clone, Copy)]
struct PushEntry {
    from: AgentId,
    op: u32,
}

/// One pull-query delivery to a pullee. The `on_pull` gate lives in
/// [`StagedScratch::query_delivered`] at the entry's ledger position,
/// the pre-drawn reply transit coin in [`StagedScratch::reply_lost`] at
/// bit `op`.
#[derive(Debug, Clone, Copy)]
struct QueryEntry {
    puller: AgentId,
    op: u32,
}

/// One pull, in op order: `qpos` is its reply slot in
/// [`StagedScratch::replies`] — the index of its query entry in the
/// query ledger.
#[derive(Debug, Clone, Copy)]
struct PullRec {
    puller: AgentId,
    pullee: AgentId,
    qpos: u32,
}

impl<M> StagedScratch<M> {
    /// Empty scratch; every buffer allocates lazily on first staged
    /// round.
    pub fn new() -> Self {
        StagedScratch {
            plan_bufs: Vec::new(),
            plan_tmp: Vec::new(),
            push_off: Vec::new(),
            push_entries: Vec::new(),
            query_off: Vec::new(),
            query_entries: Vec::new(),
            pulls: Vec::new(),
            replies: Vec::new(),
            push_delivered: BitSet::new(),
            query_delivered: BitSet::new(),
            reply_lost: BitSet::new(),
            shard_qcounts: Vec::new(),
            shard_pcounts: Vec::new(),
            shard_ranges: Vec::new(),
            shard_pulls: Vec::new(),
            shard_undelivered: Vec::new(),
            shard_meters: Vec::new(),
            meter_tallies: Vec::new(),
        }
    }

    /// Forget all round state, retaining allocations (arena reuse).
    pub fn clear(&mut self) {
        for buf in &mut self.plan_bufs {
            buf.clear();
        }
        for tmp in &mut self.plan_tmp {
            tmp.clear();
        }
        self.push_off.clear();
        self.push_entries.clear();
        self.query_off.clear();
        self.query_entries.clear();
        self.pulls.clear();
        self.replies.clear();
        self.push_delivered.reset(0);
        self.query_delivered.reset(0);
        self.reply_lost.reset(0);
        self.shard_qcounts.clear();
        self.shard_pcounts.clear();
        self.shard_ranges.clear();
        self.shard_pulls.clear();
        self.shard_undelivered.clear();
        self.shard_meters.clear();
        self.meter_tallies.clear();
    }
}

/// A raw shared-mutable view for the sharded passes. Each shard touches
/// only indices that no other shard of the same scope touches: the
/// counting sort's absolute cursors (pairwise disjoint across `(shard,
/// receiver)` pairs by construction), one receiver range of every
/// shard's histogram in the offset merge, or the reply slots of its own
/// pullers (every pull owns a distinct slot).
struct SharedWriter<T>(*mut T);
// SAFETY: every access goes to an index no other thread touches during
// the scope; T: Send carries the values across.
unsafe impl<T: Send> Send for SharedWriter<T> {}
unsafe impl<T: Send> Sync for SharedWriter<T> {}
// Manual impls: a raw pointer is always copyable — the derive would
// needlessly bound `T: Copy`, and the plan scatter moves non-`Copy`
// ops through this.
impl<T> Clone for SharedWriter<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedWriter<T> {}

impl<T> SharedWriter<T> {
    fn new(slice: &mut [T]) -> Self {
        SharedWriter(slice.as_mut_ptr())
    }

    /// Write `val` at `idx`.
    ///
    /// SAFETY: `idx` must be in bounds of the source slice and no other
    /// thread may touch `idx` during the scope.
    unsafe fn write(&self, idx: usize, val: T) {
        unsafe { self.0.add(idx).write(val) }
    }

    /// Move `len` values from `src` into `idx..idx + len`.
    ///
    /// SAFETY: the range must be in bounds and untouched by any other
    /// thread during the scope, `src..src + len` must not overlap it,
    /// and the caller must forget the source values (this is a move).
    unsafe fn write_block(&self, idx: usize, src: *const T, len: usize) {
        unsafe { std::ptr::copy_nonoverlapping(src, self.0.add(idx), len) }
    }

    /// Move the element at `idx` out, leaving the slot logically
    /// uninitialized.
    ///
    /// SAFETY: as for [`Self::write`]; the slot must be initialized, and
    /// the owning buffer must not drop it again (set its length to 0
    /// first).
    unsafe fn read(&self, idx: usize) -> T {
        unsafe { self.0.add(idx).read() }
    }

    /// The element at `idx`, for reading and writing in place.
    ///
    /// SAFETY: as for [`Self::write`], and the slot must be initialized.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, idx: usize) -> &mut T {
        unsafe { &mut *self.0.add(idx) }
    }
}

impl<M> Default for StagedScratch<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: MsgSize + Send + Sync, A: Agent<M> + Send> Network<M, A> {
    /// Worker threads the staged stages shard over: the configured
    /// count, `0` meaning available parallelism, capped by `n`, then
    /// clamped by [`NetworkConfig::shard_floor`] so every shard keeps at
    /// least `shard_floor` agents (the per-agent discipline is
    /// thread-invariant, so the clamp is a pure throughput knob).
    pub(super) fn effective_threads(&self) -> usize {
        let n = self.agents.len();
        let t = if self.config.threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            self.config.threads
        };
        let t = t.clamp(1, n.max(1));
        match self.config.shard_floor {
            0 => t,
            floor => t.min((n / floor).max(1)),
        }
    }

    /// Execute one round on the engine [`NetworkConfig::rng_discipline`]
    /// selects: the monolithic [`Network::step`] under
    /// [`RngDiscipline::Sequential`], this module's staged pipeline
    /// under [`RngDiscipline::PerAgent`] (see the module docs). Output
    /// is bit-identical for every `NetworkConfig::threads` value.
    pub fn step_staged(&mut self) {
        if self.config.rng_discipline == RngDiscipline::Sequential {
            self.step();
            return;
        }
        let round = self.round;
        let timed = self.config.time_stages;
        let t0 = timed.then(std::time::Instant::now);
        self.begin_round(round);
        let threads = self.effective_threads();
        self.plan(round, threads);
        if let Some(t) = t0 {
            self.stage_times.plan_us += t.elapsed().as_micros() as u64;
        }
        self.metrics.record_round(self.ops.len() as u64);
        let t1 = timed.then(std::time::Instant::now);
        self.exchange(round, threads);
        let tp = timed.then(std::time::Instant::now);
        self.apply_pulls(round, threads);
        if let Some(t) = tp {
            self.stage_times.pull_us += t.elapsed().as_micros() as u64;
        }
        if let Some(t) = t1 {
            self.stage_times.exchange_us += t.elapsed().as_micros() as u64;
        }
        let t2 = timed.then(std::time::Instant::now);
        self.apply_deliveries(round, threads);
        if let Some(t) = t2 {
            self.stage_times.apply_us += t.elapsed().as_micros() as u64;
        }
        self.round += 1;
    }

    /// Run `rounds` rounds on the discipline's engine (without
    /// finalizing; see [`Self::step_staged`]).
    pub fn run_staged(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step_staged();
        }
    }

    // ------------------------------------------------------------------
    // Stage 1: plan
    // ------------------------------------------------------------------

    /// Collect every active agent's ops into `self.ops`, sharded. The
    /// per-shard buffers concatenate in shard order, i.e. id order —
    /// exactly the monolithic act loop's output. Multi-op agents
    /// (overridden [`Agent::act_multi`]) keep their emission order
    /// within their id slot.
    fn plan(&mut self, round: usize, threads: usize) {
        let Network { pool, agents, staged, topology, fault_state, ops, .. } = self;
        ops.clear();
        let n = agents.len();
        let topology: &Topology = topology;
        let fault_state: &FaultState = fault_state;
        let chunk = n.div_ceil(threads);
        let bufs = &mut staged.plan_bufs;
        let tmps = &mut staged.plan_tmp;
        if bufs.len() < threads {
            bufs.resize_with(threads, Vec::new);
        }
        if tmps.len() < threads {
            tmps.resize_with(threads, Vec::new);
        }
        let pool = ensure_pool(pool, threads);
        pool.scope(|scope| {
            let mut rest: &mut [A] = agents;
            let mut base = 0usize;
            for (buf, tmp) in bufs[..threads].iter_mut().zip(tmps[..threads].iter_mut()) {
                let take = chunk.min(rest.len());
                if take == 0 {
                    break;
                }
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let lo = base;
                base += take;
                scope.spawn(move || {
                    // Fill owned buffers and put them back at the end:
                    // the shards' `Vec` headers share a cache line in
                    // `plan_bufs`/`plan_tmp`, and every push or drain
                    // through the slot would write it.
                    let mut out = std::mem::take(buf);
                    let mut ops_of = std::mem::take(tmp);
                    out.clear();
                    let ctx = RoundCtx { round, topology };
                    for (off, agent) in head.iter_mut().enumerate() {
                        let id = (lo + off) as AgentId;
                        if fault_state.is_down(id) {
                            continue;
                        }
                        agent.act_multi(&ctx, &mut ops_of);
                        for op in ops_of.drain(..) {
                            out.push((id, op));
                        }
                    }
                    *buf = out;
                    *tmp = ops_of;
                });
            }
        });
        // Concatenate in shard order — as a parallel scatter: a length
        // prefix sum over the shard buffers gives each shard its
        // destination offset in the pre-sized `ops` Vec, so the serial
        // shard-order `append` loop this replaces becomes one more
        // disjoint-range parallel write. The result is the identical
        // id-ordered op list.
        let total: usize = staged.plan_bufs[..threads].iter().map(Vec::len).sum();
        ops.reserve(total);
        let dst = SharedWriter(ops.as_mut_ptr());
        pool.scope(|scope| {
            let mut base = 0usize;
            for buf in staged.plan_bufs[..threads].iter_mut() {
                let lo = base;
                base += buf.len();
                if buf.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    // SAFETY: `lo..lo + buf.len()` is this shard's
                    // disjoint slot of the reserved tail, and the
                    // block write + `set_len(0)` pair *moves* the
                    // elements out of `buf` — nothing is dropped or
                    // duplicated.
                    unsafe {
                        dst.write_block(lo, buf.as_ptr(), buf.len());
                        buf.set_len(0);
                    }
                });
            }
        });
        // SAFETY: every slot in `0..total` was initialized by exactly
        // one shard above.
        unsafe { ops.set_len(total) };
        debug_assert!(
            ops.windows(2).all(|w| w[0].0 <= w[1].0),
            "plan merge must produce id-ordered ops"
        );
    }

    // ------------------------------------------------------------------
    // Stage 2: exchange
    // ------------------------------------------------------------------

    /// Exchange: meter everything (sharded exact tallies, merged in
    /// shard order — see the metering addendum), then build both
    /// delivery ledgers with the sharded counting-sort pipeline. No
    /// agent code runs here, so the whole apply stage can shard
    /// afterwards. Scatter positions come from one global counting sort,
    /// and every loss stream is keyed by `(seed, family, round, agent)` —
    /// never by shard.
    fn exchange(&mut self, round: usize, threads: usize) {
        let timed = self.config.time_stages;
        let ops = std::mem::take(&mut self.ops);
        let t0 = timed.then(std::time::Instant::now);
        self.meter_ops(&ops, threads);
        if let Some(t) = t0 {
            self.stage_times.meter_us += t.elapsed().as_micros() as u64;
        }
        self.build_ledgers(&ops, round, threads);
        self.ops = ops;
    }

    /// Send-time metering over the round's op list (before any mask).
    /// Instead of a serial op-order `record_message` walk, each shard
    /// folds its contiguous op range into an exact [`Tally`] and the
    /// tallies merge into [`Metrics`] in shard order — sums and maxes
    /// commute, so the result equals the sequential pass bit for bit.
    /// Even on one shard this is a win: one phase lookup per round
    /// instead of one per message.
    fn meter_ops(&mut self, ops: &[(AgentId, Op<M>)], threads: usize) {
        let n_ops = ops.len();
        let Network { pool, staged: st, metrics, env, .. } = self;
        let env: &SizeEnv = env;
        if n_ops < threads {
            metrics.record_bulk(&tally_ops(ops, env), 0);
            return;
        }
        let chunk = n_ops.div_ceil(threads).max(1);
        st.meter_tallies.clear();
        st.meter_tallies.resize_with(threads, Tally::default);
        let pool = ensure_pool(pool, threads);
        pool.scope(|scope| {
            for (s, tally) in st.meter_tallies.iter_mut().enumerate() {
                let lo = s * chunk;
                let hi = (lo + chunk).min(n_ops);
                if lo >= hi {
                    continue;
                }
                let ops_range = &ops[lo..hi];
                scope.spawn(move || *tally = tally_ops(ops_range, env));
            }
        });
        for tally in st.meter_tallies.drain(..) {
            metrics.record_bulk(&tally, 0);
        }
    }

    /// The ledger build. Stage A: each shard histograms its op range,
    /// then sums its histogram over each receiver range. Stage B
    /// (sharded over receiver ranges): the per-shard counts are merged
    /// into the global CSR offsets and, in place, into absolute scatter
    /// cursors — shard `s`'s cursor for receiver `v` starts at `off[v] +
    /// Σ_{s' < s} counts[s'][v]`, so scatter positions are those of one
    /// stable counting sort over the whole op list; each receiver range
    /// starts from the stage-A range sums of every range before it.
    /// Stage C: shards scatter their op ranges through those cursors
    /// ([`SharedWriter`]; positions pairwise disjoint by construction),
    /// write pull records into contiguous per-shard `pulls` segments
    /// (shard order = op order), and pre-draw the reply coins into the
    /// shared op-indexed bitset (relaxed atomic ORs — each bit has
    /// exactly one writer, so the verdict is interleaving-independent).
    /// Stage D: mask/loss resolution shards over *receivers* — one loss
    /// stream per receiver, drawn in ledger order — counting undelivered
    /// per shard and merging after the barrier (a sum, so the merge is
    /// exact).
    fn build_ledgers(&mut self, ops: &[(AgentId, Op<M>)], round: usize, threads: usize) {
        let n = self.agents.len();
        let p = self.current_p;
        let loss_seed = self.config.loss_seed;
        let n_ops = ops.len();
        let chunk = n_ops.div_ceil(threads).max(1);
        let timed = self.config.time_stages;
        let Network {
            pool, staged: st, fault_state, topology, partition, metrics, stage_times, ..
        } = self;
        let fault_state: &FaultState = fault_state;
        let topology: &Topology = topology;
        let partition = partition.as_ref();
        let pool = ensure_pool(pool, threads);
        let t_build = timed.then(std::time::Instant::now);

        // Stage A: per-shard histograms over disjoint op ranges, each
        // summed over the receiver ranges stage B shards over.
        let agents_chunk = n.div_ceil(threads).max(1);
        if st.shard_qcounts.len() != threads * n {
            st.shard_qcounts.clear();
            st.shard_qcounts.resize(threads * n, 0);
            st.shard_pcounts.clear();
            st.shard_pcounts.resize(threads * n, 0);
        }
        st.shard_ranges.clear();
        st.shard_ranges.resize(threads * threads, (0, 0));
        st.shard_pulls.clear();
        st.shard_pulls.resize(threads, 0);
        pool.scope(|scope| {
            for (s, (((qc, pc), ranges), np)) in st
                .shard_qcounts
                .chunks_mut(n)
                .zip(st.shard_pcounts.chunks_mut(n))
                .zip(st.shard_ranges.chunks_mut(threads))
                .zip(st.shard_pulls.iter_mut())
                .enumerate()
            {
                let lo = s * chunk;
                let hi = (lo + chunk).min(n_ops);
                if lo >= hi {
                    // Stage B still reads this shard's counters.
                    qc.fill(0);
                    pc.fill(0);
                    continue;
                }
                let ops_range = &ops[lo..hi];
                scope.spawn(move || {
                    qc.fill(0);
                    pc.fill(0);
                    let mut pulls = 0u32;
                    for (_, op) in ops_range {
                        match op {
                            Op::Pull { from: target, .. } => {
                                qc[*target as usize] += 1;
                                pulls += 1;
                            }
                            Op::Push { to, .. } => pc[*to as usize] += 1,
                        }
                    }
                    *np = pulls;
                    for ((q, p), range) in
                        qc.chunks(agents_chunk).zip(pc.chunks(agents_chunk)).zip(ranges)
                    {
                        *range = (q.iter().sum(), p.iter().sum());
                    }
                });
            }
        });

        // Stage B: offset merge, sharded over receiver ranges; the
        // per-shard histograms become the per-shard absolute scatter
        // cursors in place. The merge rewrites every offset, so the
        // offset arrays need no serial zero-fill, only their length.
        st.query_off.resize(n + 1, 0);
        st.push_off.resize(n + 1, 0);
        let (total_queries, total_pushes) = st
            .shard_ranges
            .iter()
            .fold((0usize, 0usize), |(q, p), &(rq, rp)| (q + rq as usize, p + rp as usize));
        st.query_off[n] = total_queries as u32;
        st.push_off[n] = total_pushes as u32;
        {
            let ranges = &st.shard_ranges[..];
            let qcw = SharedWriter::new(&mut st.shard_qcounts);
            let pcw = SharedWriter::new(&mut st.shard_pcounts);
            pool.scope(|scope| {
                for (r, (q_off, p_off)) in st.query_off[..n]
                    .chunks_mut(agents_chunk)
                    .zip(st.push_off[..n].chunks_mut(agents_chunk))
                    .enumerate()
                {
                    scope.spawn(move || {
                        // This range starts after every earlier range's
                        // entries, over all shards.
                        let (mut qacc, mut pacc) = (0u32, 0u32);
                        for s in 0..threads {
                            for &(q, p) in &ranges[s * threads..s * threads + r] {
                                qacc += q;
                                pacc += p;
                            }
                        }
                        let lo = r * agents_chunk;
                        for (v, (qo, po)) in (lo..).zip(q_off.iter_mut().zip(p_off.iter_mut())) {
                            *qo = qacc;
                            *po = pacc;
                            for s in 0..threads {
                                // SAFETY: receiver `v` belongs to this
                                // job's range alone, so `s * n + v` is
                                // touched by no other job; in bounds.
                                let qc = unsafe { qcw.slot(s * n + v) };
                                let c = *qc;
                                *qc = qacc;
                                qacc += c;
                                let pc = unsafe { pcw.slot(s * n + v) };
                                let c = *pc;
                                *pc = pacc;
                                pacc += c;
                            }
                        }
                    });
                }
            });
        }
        debug_assert_eq!(
            st.shard_pulls.iter().map(|&c| c as usize).sum::<usize>(),
            total_queries,
            "per-shard pull totals must cover the query ledger"
        );

        // Stage C: scatter, into reserved capacity — the counting sort
        // writes every slot of the three arrays exactly once, so they
        // need no serial zero-fill first.
        st.query_entries.clear();
        st.query_entries.reserve(total_queries);
        st.push_entries.clear();
        st.push_entries.reserve(total_pushes);
        st.pulls.clear();
        st.pulls.reserve(total_queries);
        st.query_delivered.reset(total_queries);
        st.push_delivered.reset(total_pushes);
        st.reply_lost.reset(n_ops);
        let qw = SharedWriter(st.query_entries.as_mut_ptr());
        let pw = SharedWriter(st.push_entries.as_mut_ptr());
        let lw = SharedWriter(st.pulls.as_mut_ptr());
        let reply_lost = st.reply_lost.as_atomic();
        pool.scope(|scope| {
            let mut pulls_before = 0usize;
            for (s, ((qc, pc), &seg_len)) in st
                .shard_qcounts
                .chunks_mut(n)
                .zip(st.shard_pcounts.chunks_mut(n))
                .zip(st.shard_pulls.iter())
                .enumerate()
            {
                // This shard's pull records fill `seg..seg + seg_len`:
                // contiguous segments in shard order are op order.
                let seg = pulls_before;
                pulls_before += seg_len as usize;
                let lo = s * chunk;
                let hi = (lo + chunk).min(n_ops);
                if lo >= hi {
                    continue;
                }
                let ops_range = &ops[lo..hi];
                scope.spawn(move || {
                    let mut l = seg;
                    for (off, (from, op)) in ops_range.iter().enumerate() {
                        let i = lo + off;
                        match op {
                            Op::Pull { from: target, .. } => {
                                let cursor = &mut qc[*target as usize];
                                let pos = *cursor;
                                *cursor += 1;
                                // SAFETY: `pos` walks this shard's
                                // disjoint cursor range of the
                                // counting sort, and `l` its own pull
                                // segment; both within the reserved
                                // capacity by the offset merge.
                                unsafe {
                                    qw.write(
                                        pos as usize,
                                        QueryEntry { puller: *from, op: i as u32 },
                                    );
                                    lw.write(l, PullRec { puller: *from, pullee: *target, qpos: pos });
                                }
                                l += 1;
                                if p > 0.0 {
                                    let mut rng = loss_streams::per_agent(
                                        loss_seed,
                                        loss_streams::REPLY,
                                        round,
                                        *from,
                                    );
                                    if rng.chance(p) {
                                        atomic_set(reply_lost, i);
                                    }
                                }
                            }
                            Op::Push { to, .. } => {
                                let cursor = &mut pc[*to as usize];
                                let pos = *cursor;
                                *cursor += 1;
                                // SAFETY: as above, for `push_entries`.
                                unsafe {
                                    pw.write(
                                        pos as usize,
                                        PushEntry { from: *from, op: i as u32 },
                                    );
                                }
                            }
                        }
                    }
                    debug_assert_eq!(l, seg + seg_len as usize, "pull segment sized by its stage-A count");
                });
            }
        });
        // SAFETY: the scatter above initialized every slot below these
        // lengths exactly once (the elements are `Copy`).
        unsafe {
            st.query_entries.set_len(total_queries);
            st.push_entries.set_len(total_pushes);
            st.pulls.set_len(total_queries);
        }

        if let Some(t) = t_build {
            stage_times.build_us += t.elapsed().as_micros() as u64;
        }
        let t_resolve = timed.then(std::time::Instant::now);

        // Stage D: mask/loss resolution over receiver ranges.
        st.shard_undelivered.clear();
        st.shard_undelivered.resize(threads, 0);
        {
            let q_entries = &st.query_entries[..];
            let q_off = &st.query_off[..];
            let p_entries = &st.push_entries[..];
            let p_off = &st.push_off[..];
            let query_delivered = st.query_delivered.as_atomic();
            let push_delivered = st.push_delivered.as_atomic();
            pool.scope(|scope| {
                for (s, slot) in st.shard_undelivered.iter_mut().enumerate() {
                    let lo = s * agents_chunk;
                    let hi = (lo + agents_chunk).min(n);
                    if lo >= hi {
                        continue;
                    }
                    scope.spawn(move || {
                        *slot = resolve_masks_range(
                            lo,
                            hi,
                            q_entries,
                            q_off,
                            p_entries,
                            p_off,
                            query_delivered,
                            push_delivered,
                            p,
                            loss_seed,
                            round,
                            fault_state,
                            topology,
                            partition,
                        );
                    });
                }
            });
        }
        let undelivered: u64 = st.shard_undelivered.iter().sum();
        metrics.record_bulk(&Tally::default(), undelivered);
        if let Some(t) = t_resolve {
            stage_times.resolve_us += t.elapsed().as_micros() as u64;
        }
    }

    // ------------------------------------------------------------------
    // Stage 3: apply
    // ------------------------------------------------------------------

    /// Apply, leg one: deliver every gated query to its
    /// pullee's `on_pull`, sharded over pullees. Produced replies are
    /// metered into per-shard tallies (merged in shard order) and
    /// written into the ledger-aligned reply slots, where the delivery
    /// shards pick them up by each pull's `qpos`.
    fn apply_pulls(&mut self, round: usize, threads: usize) {
        let n = self.agents.len();
        let Network { pool, agents, staged: st, topology, env, ops, metrics, .. } = self;
        let total = st.query_entries.len();
        st.replies.clear();
        st.replies.reserve(total);
        let topology: &Topology = topology;
        let env: &SizeEnv = env;
        let ops: &[(AgentId, Op<M>)] = ops;
        let entries = &st.query_entries[..];
        let off = &st.query_off[..];
        let delivered = &st.query_delivered;
        let reply_lost = &st.reply_lost;
        let slots = &mut st.replies.spare_capacity_mut()[..total];
        let chunk = n.div_ceil(threads);
        // Shard meters are written in place by the pool jobs (an unused
        // trailing slot stays a zero tally, which merges as a no-op), so
        // shard order is positional, not join order.
        st.shard_meters.clear();
        st.shard_meters.resize_with(threads, Default::default);
        let pool = ensure_pool(pool, threads);
        pool.scope(|scope| {
            let mut agents_rest: &mut [A] = agents;
            let mut reply_rest = slots;
            let mut meters_rest: &mut [(Tally, u64)] = &mut st.shard_meters;
            let mut consumed = off[0] as usize; // == 0
            let mut lo = 0usize;
            while lo < n {
                let hi = (lo + chunk).min(n);
                let (agents_chunk, ar) = agents_rest.split_at_mut(hi - lo);
                agents_rest = ar;
                let e_hi = off[hi] as usize;
                let (reply_chunk, rr) = reply_rest.split_at_mut(e_hi - consumed);
                reply_rest = rr;
                consumed = e_hi;
                let (meter_slot, mr) = meters_rest.split_first_mut().expect("meter slot per shard");
                meters_rest = mr;
                let base = lo;
                scope.spawn(move || {
                    *meter_slot = apply_pull_chunk(
                        agents_chunk,
                        base,
                        entries,
                        off,
                        delivered,
                        reply_lost,
                        reply_chunk,
                        ops,
                        round,
                        topology,
                        env,
                    );
                });
                lo = hi;
            }
        });
        // SAFETY: the pullee shards cover `0..total` (the query ledger's
        // receiver ranges) and write every slot of their range.
        unsafe { st.replies.set_len(total) };
        // Merge per-shard reply meters in shard order — exact, so the
        // totals equal single-threaded metering bit for bit.
        for (tally, undelivered) in st.shard_meters.drain(..) {
            metrics.record_bulk(&tally, undelivered);
        }
    }

    /// Apply, final leg: deliver gated pushes to
    /// `on_push` and each pull's reply slot to `on_reply`, sharded over
    /// receivers. Pushes of one receiver arrive in ledger (sender-id)
    /// order; each puller's single reply follows its pushes — handlers
    /// mutate only their own agent, so this matches the monolithic
    /// all-pushes-then-all-replies order observationally.
    fn apply_deliveries(&mut self, round: usize, threads: usize) {
        let n = self.agents.len();
        let Network { pool, agents, staged: st, topology, ops, .. } = self;
        let topology: &Topology = topology;
        let ops: &[(AgentId, Op<M>)] = ops;
        let entries = &st.push_entries[..];
        let off = &st.push_off[..];
        let delivered = &st.push_delivered;
        // Every pull owns a distinct reply slot (its `qpos`), so the
        // puller shards move their replies out without a gather pass —
        // reads only, so no two shards write one cache line. The buffer
        // forgets its contents first: a panicking handler then leaks the
        // replies not yet moved rather than dropping moved ones twice.
        // SAFETY: shrinking the length only forgets the elements (a leak
        // at worst); each is moved out exactly once below.
        unsafe { st.replies.set_len(0) };
        let replies = SharedWriter(st.replies.as_mut_ptr());
        let chunk = n.div_ceil(threads);
        let pool = ensure_pool(pool, threads);
        pool.scope(|scope| {
            let mut agents_rest: &mut [A] = agents;
            let mut pulls_rest: &[PullRec] = &st.pulls;
            let mut lo = 0usize;
            while lo < n {
                let hi = (lo + chunk).min(n);
                let (agents_chunk, ar) = agents_rest.split_at_mut(hi - lo);
                agents_rest = ar;
                // A multi-op puller has several adjacent pulls; the
                // partition point stays correct because `pulls` is
                // puller-ordered (op order).
                let k = pulls_rest.partition_point(|p| (p.puller as usize) < hi);
                let (pulls_chunk, pr) = pulls_rest.split_at(k);
                pulls_rest = pr;
                let base = lo;
                scope.spawn(move || {
                    apply_delivery_chunk(
                        agents_chunk,
                        base,
                        entries,
                        off,
                        delivered,
                        pulls_chunk,
                        replies,
                        ops,
                        round,
                        topology,
                    );
                });
                lo = hi;
            }
        });
    }
}

/// Get the network's persistent worker pool for `threads` shards,
/// (re)building it lazily if it does not exist yet or the configured
/// thread count changed. The calling thread runs the last shard of every
/// scope itself, so the pool holds `threads - 1` workers — none at one
/// shard, where every job runs inline. The pool
/// outlives rounds *and* trials — replacing a per-round
/// `std::thread::scope` spawn/join with a job-slot hand-off (perfbench's
/// `sync-sharded` workload and its traced `staged.shard_efficiency`
/// measure what remains).
pub(super) fn ensure_pool(
    slot: &mut Option<crate::pool::ScopedPool>,
    threads: usize,
) -> &mut crate::pool::ScopedPool {
    let rebuild = !matches!(slot, Some(p) if p.workers() == threads - 1);
    if rebuild {
        *slot = Some(crate::pool::ScopedPool::new(threads - 1));
    }
    slot.as_mut().expect("pool just ensured")
}

/// Fold one contiguous op range into a send-time meter tally: every
/// push and every pull query, metered at its wire size. The shard
/// decomposition is invisible to the result — tallies merged in shard
/// order equal one op-order pass exactly. The tally is a local, stored
/// once by the caller: the shards' slots share a cache line.
fn tally_ops<M: MsgSize>(ops: &[(AgentId, Op<M>)], env: &SizeEnv) -> Tally {
    let mut tally = Tally::default();
    for (_, op) in ops {
        match op {
            Op::Pull { query, .. } => tally.record(query.size_bits(env)),
            Op::Push { msg, .. } => tally.record(msg.size_bits(env)),
        }
    }
    tally
}

/// Resolve masks and loss coins for the receivers `lo..hi` of both
/// ledgers, setting position-indexed verdict bits and returning the range's
/// undelivered count. One loss stream per receiver per family per
/// round, one draw per inbound entry (ledger order), drawn whether or
/// not a mask already suppresses the delivery — the draws of one
/// agent's inbox never depend on another agent's traffic, which is what
/// makes this callable from any shard decomposition with bit-identical
/// results.
#[allow(clippy::too_many_arguments)]
fn resolve_masks_range(
    lo: usize,
    hi: usize,
    q_entries: &[QueryEntry],
    q_off: &[u32],
    p_entries: &[PushEntry],
    p_off: &[u32],
    query_delivered: &[std::sync::atomic::AtomicU64],
    push_delivered: &[std::sync::atomic::AtomicU64],
    p: f64,
    loss_seed: u64,
    round: usize,
    fault_state: &FaultState,
    topology: &Topology,
    partition: Option<&PartitionCut>,
) -> u64 {
    let mut undelivered = 0u64;
    for v in lo..hi {
        let va = v as AgentId;
        let (qlo, qhi) = (q_off[v] as usize, q_off[v + 1] as usize);
        if qlo != qhi {
            let down = fault_state.is_down(va);
            let mut rng = (p > 0.0)
                .then(|| loss_streams::per_agent(loss_seed, loss_streams::QUERY, round, va));
            for (pos, e) in (qlo..).zip(&q_entries[qlo..qhi]) {
                let lost = rng.as_mut().map(|r| r.chance(p)).unwrap_or(false);
                let reachable = topology.connected(e.puller, va)
                    && !matches!(partition, Some(cut) if cut.blocks(e.puller, va));
                if reachable && !down && !lost {
                    atomic_set(query_delivered, pos);
                } else {
                    undelivered += 1;
                }
            }
        }
        let (plo, phi) = (p_off[v] as usize, p_off[v + 1] as usize);
        if plo != phi {
            let down = fault_state.is_down(va);
            let mut rng = (p > 0.0)
                .then(|| loss_streams::per_agent(loss_seed, loss_streams::PUSH, round, va));
            for (pos, e) in (plo..).zip(&p_entries[plo..phi]) {
                let lost = rng.as_mut().map(|r| r.chance(p)).unwrap_or(false);
                let reachable = topology.connected(e.from, va)
                    && !matches!(partition, Some(cut) if cut.blocks(e.from, va));
                if reachable && !down && !lost {
                    atomic_set(push_delivered, pos);
                } else {
                    undelivered += 1;
                }
            }
        }
    }
    undelivered
}

/// Deliver queries to one contiguous pullee shard (`agents` holds ids
/// `base..base + agents.len()`); returns the shard's reply meter
/// `(tally of produced replies, undelivered count)`.
#[allow(clippy::too_many_arguments)]
fn apply_pull_chunk<M: MsgSize, A: Agent<M>>(
    agents: &mut [A],
    base: usize,
    entries: &[QueryEntry],
    off: &[u32],
    delivered: &BitSet,
    reply_lost: &BitSet,
    reply_out: &mut [MaybeUninit<Option<M>>],
    ops: &[(AgentId, Op<M>)],
    round: usize,
    topology: &Topology,
    env: &SizeEnv,
) -> (Tally, u64) {
    let ctx = RoundCtx { round, topology };
    let mut tally = Tally::default();
    let mut undelivered = 0u64;
    let e_base = off[base] as usize;
    for (local, agent) in agents.iter_mut().enumerate() {
        let v = base + local;
        let lo = off[v] as usize;
        let hi = off[v + 1] as usize;
        for pos in lo..hi {
            let e = &entries[pos];
            let mut arrived = None;
            if delivered.get(pos) {
                let query = match &ops[e.op as usize].1 {
                    Op::Pull { query, .. } => query,
                    Op::Push { .. } => unreachable!("query ledger entry points at a push"),
                };
                if let Some(msg) = agent.on_pull(e.puller, query, &ctx) {
                    // Metering contract: the reply went on the wire at
                    // production, whether or not it survives transit.
                    tally.record(msg.size_bits(env));
                    if reply_lost.get(e.op as usize) {
                        undelivered += 1;
                    } else {
                        arrived = Some(msg);
                    }
                }
            }
            // Every slot is written, so the caller may mark the whole
            // range initialized.
            reply_out[pos - e_base].write(arrived);
        }
    }
    (tally, undelivered)
}

/// Deliver pushes and replies to one contiguous receiver shard
/// (`pulls` are exactly the pulls of its agents).
#[allow(clippy::too_many_arguments)]
fn apply_delivery_chunk<M: MsgSize, A: Agent<M>>(
    agents: &mut [A],
    base: usize,
    entries: &[PushEntry],
    off: &[u32],
    delivered: &BitSet,
    pulls: &[PullRec],
    replies: SharedWriter<Option<M>>,
    ops: &[(AgentId, Op<M>)],
    round: usize,
    topology: &Topology,
) {
    let ctx = RoundCtx { round, topology };
    for (local, agent) in agents.iter_mut().enumerate() {
        let v = base + local;
        let (lo, hi) = (off[v] as usize, off[v + 1] as usize);
        for (pos, e) in (lo..hi).zip(&entries[lo..hi]) {
            if !delivered.get(pos) {
                continue;
            }
            let msg = match &ops[e.op as usize].1 {
                Op::Push { msg, .. } => msg,
                Op::Pull { .. } => unreachable!("push ledger entry points at a pull"),
            };
            agent.on_push(e.from, msg, &ctx);
        }
    }
    for pull in pulls {
        let local = pull.puller as usize - base;
        // SAFETY: `qpos` is this pull's own initialized slot below the
        // buffer's former length, read by no other pull; the buffer's
        // length is already 0.
        let reply = unsafe { replies.read(pull.qpos as usize) };
        agents[local].on_reply(pull.pullee, reply, &ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Placement;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl MsgSize for Num {
        fn size_bits(&self, _env: &SizeEnv) -> u64 {
            8
        }
    }

    /// Mixed workload: even agents push to `(id + 1) % n`, odd agents
    /// pull `(id + 3) % n`; everyone answers pulls with its own id and
    /// remembers everything it hears (pushes, produced pulls, and each
    /// reply with the pullee it came from).
    struct Mixer {
        id: AgentId,
        n: usize,
        heard: Vec<(AgentId, u64)>,
        answered: u64,
        replies: Vec<(AgentId, Option<u64>)>,
    }
    impl Mixer {
        fn new(id: AgentId, n: usize) -> Self {
            Mixer { id, n, heard: vec![], answered: 0, replies: vec![] }
        }
    }
    impl Agent<Num> for Mixer {
        fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
            if self.id.is_multiple_of(2) {
                Some(Op::push((self.id + 1) % self.n as AgentId, Num(self.id as u64)))
            } else {
                Some(Op::pull((self.id + 3) % self.n as AgentId, Num(0)))
            }
        }
        fn on_pull(&mut self, _from: AgentId, _q: &Num, _ctx: &RoundCtx) -> Option<Num> {
            self.answered += 1;
            Some(Num(self.id as u64))
        }
        fn on_push(&mut self, from: AgentId, msg: &Num, _ctx: &RoundCtx) {
            self.heard.push((from, msg.0));
        }
        fn on_reply(&mut self, from: AgentId, reply: Option<Num>, _ctx: &RoundCtx) {
            self.replies.push((from, reply.map(|m| m.0)));
        }
    }

    fn mk_net(n: usize, cfg: NetworkConfig) -> Network<Num, Mixer> {
        let agents = (0..n).map(|id| Mixer::new(id as AgentId, n)).collect();
        Network::with_config(
            Topology::complete(n),
            SizeEnv::for_n(n),
            agents,
            FaultPlan::place(n, n / 5, Placement::HighIds),
            cfg,
        )
    }

    /// Every observable a test can compare: metrics and each agent's
    /// full observation history.
    fn observe(net: &Network<Num, Mixer>) -> (Metrics, Vec<String>) {
        let agents = net
            .agents()
            .iter()
            .map(|a| format!("{:?}|{}|{:?}", a.heard, a.answered, a.replies))
            .collect();
        (net.metrics().clone(), agents)
    }

    #[test]
    fn per_agent_discipline_is_thread_invariant() {
        let cfg = NetworkConfig {
            loss: LossSchedule::constant(0.25),
            loss_seed: 7,
            rng_discipline: RngDiscipline::PerAgent,
            ..NetworkConfig::default()
        };
        let mut one = mk_net(24, NetworkConfig { threads: 1, ..cfg.clone() });
        one.run_staged(10);
        let want = observe(&one);
        for threads in [2usize, 3, 8, 24] {
            let mut net = mk_net(24, NetworkConfig { threads, ..cfg.clone() });
            net.run_staged(10);
            assert_eq!(observe(&net), want, "threads={threads} changed per-agent output");
        }
    }

    #[test]
    fn per_agent_loss_free_matches_sequential_loss_free() {
        // With p = 0 the disciplines draw nothing: the only difference
        // is handler interleaving, which must be unobservable.
        let mut seq = mk_net(16, NetworkConfig::default());
        seq.run(8);
        let mut per = mk_net(
            16,
            NetworkConfig {
                rng_discipline: RngDiscipline::PerAgent,
                threads: 3,
                ..NetworkConfig::default()
            },
        );
        per.run_staged(8);
        assert_eq!(observe(&seq), observe(&per));
    }

    #[test]
    fn per_agent_metering_identity_holds_under_loss() {
        // messages_sent - undelivered == handler invocations, exactly.
        let cfg = NetworkConfig {
            loss: LossSchedule::constant(0.4),
            loss_seed: 3,
            rng_discipline: RngDiscipline::PerAgent,
            threads: 4,
            ..NetworkConfig::default()
        };
        let mut net = mk_net(30, cfg);
        net.run_staged(20);
        let m = net.metrics().clone();
        let delivered_pushes: u64 = net.agents().iter().map(|a| a.heard.len() as u64).sum();
        let delivered_queries: u64 = net.agents().iter().map(|a| a.answered).sum();
        let delivered_replies: u64 = net
            .agents()
            .iter()
            .flat_map(|a| &a.replies)
            .filter(|(_, r)| r.is_some())
            .count() as u64;
        assert_eq!(
            m.messages_sent - m.undelivered,
            delivered_pushes + delivered_queries + delivered_replies,
            "metering contract: sent - undelivered must equal deliveries"
        );
        assert!(m.undelivered > 0, "40% loss must suppress something");
    }

    #[test]
    fn staged_respects_scenario_scripts() {
        // Crash half the network mid-run under the sharded discipline:
        // crashed agents stop acting and stop hearing, deterministically
        // across thread counts.
        let script = ScenarioScript::new().crash(3, (0..8).collect());
        let cfg = NetworkConfig {
            scenario: script,
            rng_discipline: RngDiscipline::PerAgent,
            ..NetworkConfig::default()
        };
        let mut one = mk_net(16, NetworkConfig { threads: 1, ..cfg.clone() });
        one.run_staged(8);
        let want = observe(&one);
        let mut eight = mk_net(16, NetworkConfig { threads: 8, ..cfg.clone() });
        eight.run_staged(8);
        assert_eq!(observe(&eight), want);
        assert!(one.fault_state().is_down(0), "scripted crash must hold");
    }
}
