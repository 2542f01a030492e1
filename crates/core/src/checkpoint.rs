//! # Checkpoint / resume for deterministic runs
//!
//! A run is a pure function of `(RunConfig, seed)`, executed in
//! synchronous rounds. That makes snapshot-at-round-boundary +
//! deterministic replay the complete checkpoint story: capture the
//! **mutable** state between two rounds, rebuild every immutable
//! ingredient from `(cfg, seed)` on restore, and continue. The contract
//! — pinned by `tests/checkpoint_resume.rs` — is absolute:
//! checkpoint-at-round-`r` + restore + run-to-completion is
//! **bit-identical** (report digest, metrics and audit) to the
//! straight-through run, under both
//! [`RngDiscipline`](gossip_net::rng::RngDiscipline) variants and any
//! thread count.
//!
//! ## What a checkpoint carries
//!
//! * a self-describing header: magic `RFCK`, format version, a
//!   checksum, the run `seed`, a fingerprint of the (thread-normalized)
//!   [`RunConfig`], `n`, and the round;
//! * the engine's mutable layer ([`gossip_net::network::EngineState`]):
//!   round, scenario cursor, live fault flags, installed partition cut,
//!   and the sequential loss stream's raw xoshiro256++ words;
//! * [`Metrics`] counters — a restored run **continues exact counts**
//!   (the metering contract extends across the seam) — and one zero
//!   byte, where format 2 reserves an op-log count (the engine keeps no
//!   op log; restore refuses any other value);
//! * per-agent protocol state: color, RNG words, the intention list,
//!   the commitment ledger, received votes, certificates, and the
//!   verification verdict.
//!
//! What it does *not* carry: topology, size env, fault plan, scenario
//! script, loss schedule, params — all derived from `(cfg, seed)` by the
//! restorer, which is also what lets the header detect a config/seed
//! mismatch instead of deserializing garbage.
//!
//! The checksum is FNV-1a 64 ([`Fnv1a::standard`]) of every byte after
//! it: the rest of the header and the whole body. FNV's multiplier is
//! odd, so each step is one-to-one and any changed byte changes the
//! hash. [`restore_network`] checks it right after reading the header,
//! before the `n`, fingerprint and round checks and before decoding any
//! body byte, so an altered file never resumes as another run.
//!
//! ## Sharing-preserving encoding
//!
//! Intention lists and certificates live once in the network's
//! [`PayloadPool`] and agents hold handles to them (one agent's
//! declaration lands in many ledgers; one winning certificate is held by
//! everyone after Find-Min). The encoder writes each handle's payload
//! once, in first-encounter order, into two file pools and stores file
//! pool indices; restore interns the file pools into a fresh network
//! pool, so it rebuilds the same sharing — compact on disk *and* in
//! memory. The pool's side tables (plausibility, Verification memos) are
//! derived from the entries and recomputed, never serialized.
//!
//! ## Scope
//!
//! Only fully **honest** networks are checkpointable mid-run: deviating
//! [`AgentSlot`] variants carry strategy-private state this module
//! cannot see, so [`checkpoint_network`] returns
//! [`CheckpointError::UnsupportedAgent`] for them. Async
//! (sequential-GOSSIP) runs are likewise out of scope: [`drive_with_checkpoints`] is the phase
//! clock ([`crate::runner::drive_phases`]) over the synchronous windows
//! plus a snapshot hook.

use std::fmt;
use std::sync::Arc;

use gossip_net::ids::{AgentId, ColorId};
use gossip_net::metrics::{Metrics, Tally};
use gossip_net::network::{EngineState, Network};

use crate::agent_plane::AgentSlot;
use crate::certificate::VoteLanes;
use crate::codec::{
    put_varint, read_cert, read_intents, read_vote_rec, write_cert, write_intents, write_vote_rec,
    CodecError, Reader,
};
use crate::engine::{ConsensusAgent, ProtocolCore, Role, VerifyFailure};
use crate::fnv::Fnv1a;
use crate::ledger::{ConsistencyError, Declaration};
use crate::msg::Msg;
use crate::payload::{CertId, ListId, PayloadPool};
use crate::runner::{
    build_network_slots, collect_report, drive_network, drive_phases, honest_slot_factory,
    network_ingredients, sync_rounds, sync_windows, RunConfig, RunReport,
};

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"RFCK";

/// Current checkpoint format version. Bump on any layout change; old
/// versions are rejected with [`CheckpointError::WrongVersion`], never
/// best-effort parsed.
pub const FORMAT_VERSION: u16 = 2;

/// Why a checkpoint could not be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the structure did.
    Truncated,
    /// The first four bytes are not `RFCK`.
    BadMagic,
    /// A version this build does not speak.
    WrongVersion {
        /// The version tag found in the file.
        found: u16,
    },
    /// The checkpoint was taken at a different population size than the
    /// [`RunConfig`] it is being restored under.
    NMismatch {
        /// `cfg.n` of the restoring config.
        expected: usize,
        /// `n` recorded in the checkpoint.
        found: usize,
    },
    /// The restoring [`RunConfig`] is not the one the checkpoint was
    /// taken under (thread count excluded — resuming on a different
    /// thread count is legal and bit-identical).
    ConfigMismatch {
        /// Fingerprint of the restoring config.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// The network holds a non-honest agent, whose strategy-private
    /// state this module cannot capture.
    UnsupportedAgent {
        /// The offending agent.
        id: AgentId,
        /// Its role label (strategy name, or `"custom"`).
        role: &'static str,
    },
    /// An agent's core names its payloads in another pool than agent
    /// 0's: a snapshot encodes one network's pool.
    SplitPool {
        /// The first agent outside agent 0's pool.
        id: AgentId,
    },
    /// Structurally invalid content behind a valid header.
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::WrongVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (this build speaks {FORMAT_VERSION})")
            }
            CheckpointError::NMismatch { expected, found } => {
                write!(f, "checkpoint is for n = {found}, config has n = {expected}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config fingerprint {found:#018x} does not match the restoring config ({expected:#018x})"
            ),
            CheckpointError::UnsupportedAgent { id, role } => write!(
                f,
                "agent {id} is not checkpointable mid-run (role: {role}); only fully honest networks are"
            ),
            CheckpointError::SplitPool { id } => {
                write!(f, "agent {id} holds payloads outside the network's pool")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => CheckpointError::Truncated,
            CodecError::Corrupt(what) => CheckpointError::Corrupt(what),
            // Frame-header errors; a checkpoint body holds no frames.
            CodecError::BadMagic | CodecError::WrongVersion { .. } => {
                CheckpointError::Corrupt("wire frame error")
            }
        }
    }
}

/// The self-describing header of a checkpoint, readable without
/// touching the body (CLI display, pre-restore validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (always [`FORMAT_VERSION`] after a successful read).
    pub version: u16,
    /// FNV-1a 64 of every byte after this field, as written (see the
    /// module docs); [`peek_header`] reads it without checking it.
    pub checksum: u64,
    /// The run seed.
    pub seed: u64,
    /// [`config_fingerprint`] of the originating config.
    pub config_fingerprint: u64,
    /// Population size.
    pub n: usize,
    /// The round boundary the snapshot was taken at.
    pub round: usize,
}

/// Fingerprint of everything in a [`RunConfig`] that determines run
/// *behavior*. `threads`, `shard_floor` and `time_stages` are
/// normalized out: staged output is bit-identical for every thread
/// count / floor, and stage timing is observability-only, so a
/// checkpoint taken under one setting legally resumes under another.
/// `rng_discipline` stays in — the disciplines are distinct behaviors
/// with distinct digests.
pub fn config_fingerprint(cfg: &RunConfig) -> u64 {
    let mut norm = cfg.clone();
    norm.threads = 1;
    norm.shard_floor = None;
    norm.time_stages = false;
    let mut h = Fnv1a::sim_digest();
    h.write(format!("{norm:?}").as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------
// Bytes: the wire codec's reader, varints and payload bodies, plus the
// three forms the codec lacks — raw little-endian words for RNG state
// (full-entropy, varints would only inflate it), bit-packed flags and
// strings.
// ---------------------------------------------------------------------

fn put_word(out: &mut Vec<u8>, w: u64) {
    out.extend_from_slice(&w.to_le_bytes());
}

fn read_word(r: &mut Reader) -> Result<u64, CodecError> {
    let mut w = [0u8; 8];
    w.copy_from_slice(r.take(8)?);
    Ok(u64::from_le_bytes(w))
}

/// Four raw xoshiro256++ words; all-zero is the generator's fixed
/// point, never a live state.
fn read_rng_words(r: &mut Reader, what: &'static str) -> Result<[u64; 4], CheckpointError> {
    let mut words = [0u64; 4];
    for w in &mut words {
        *w = read_word(r)?;
    }
    if words == [0; 4] {
        return Err(CheckpointError::Corrupt(what));
    }
    Ok(words)
}

/// Bit-packed, LSB-first within each byte.
fn put_flags(out: &mut Vec<u8>, flags: &[bool]) {
    for chunk in flags.chunks(8) {
        let mut b = 0u8;
        for (i, &f) in chunk.iter().enumerate() {
            b |= (f as u8) << i;
        }
        out.push(b);
    }
}

fn read_flags(r: &mut Reader, n: usize) -> Result<Vec<bool>, CodecError> {
    let bytes = r.take(n.div_ceil(8))?;
    Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader) -> Result<String, CheckpointError> {
    let len = r.count()?;
    String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| CheckpointError::Corrupt("non-UTF-8 string"))
}

/// A one-byte `0`/`1` tag; anything else is corrupt.
fn read_flag(r: &mut Reader, what: &'static str) -> Result<bool, CheckpointError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Corrupt(what)),
    }
}

/// An optional varint: tag `0`, or tag `1` and the value.
fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_varint(out, v);
        }
    }
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

/// Where the checksummed bytes start: after magic, version and the
/// checksum itself.
const SEALED_FROM: usize = 4 + 2 + 8;

/// The checksum of a checkpoint's bytes, which hold at least a whole
/// header: FNV-1a 64 of everything from [`SEALED_FROM`] on.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::standard();
    h.write(&bytes[SEALED_FROM..]);
    h.finish()
}

fn encode_header(out: &mut Vec<u8>, h: &Header) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&h.version.to_le_bytes());
    put_word(out, h.checksum);
    put_word(out, h.seed);
    put_word(out, h.config_fingerprint);
    put_varint(out, h.n as u64);
    put_varint(out, h.round as u64);
}

fn decode_header(r: &mut Reader) -> Result<Header, CheckpointError> {
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let v = r.take(2)?;
    let version = u16::from_le_bytes([v[0], v[1]]);
    if version != FORMAT_VERSION {
        return Err(CheckpointError::WrongVersion { found: version });
    }
    Ok(Header {
        version,
        checksum: read_word(r)?,
        seed: read_word(r)?,
        config_fingerprint: read_word(r)?,
        n: r.int("count overflows usize")?,
        round: r.int("count overflows usize")?,
    })
}

/// Read just the header of a checkpoint (cheap validation / display).
pub fn peek_header(bytes: &[u8]) -> Result<Header, CheckpointError> {
    decode_header(&mut Reader::new(bytes))
}

// ---------------------------------------------------------------------
// Interning pools
// ---------------------------------------------------------------------

/// A file pool index not handed out yet.
const UNSEEN: u32 = u32::MAX;

/// The snapshot's two file pools: each payload a core names, once, with
/// its file index looked up by handle.
struct Pools<'p> {
    pool: &'p PayloadPool,
    /// Handle index → file index (or [`UNSEEN`]).
    intent_idx: Vec<u32>,
    intents: Vec<ListId>,
    cert_idx: Vec<u32>,
    certs: Vec<CertId>,
}

impl<'p> Pools<'p> {
    fn new(pool: &'p PayloadPool) -> Self {
        Pools {
            pool,
            intent_idx: vec![UNSEEN; pool.list_handles()],
            intents: Vec::new(),
            cert_idx: vec![UNSEEN; pool.cert_handles()],
            certs: Vec::new(),
        }
    }

    fn intern_intents(&mut self, list: ListId) -> u32 {
        let idx = &mut self.intent_idx[list.index()];
        if *idx == UNSEEN {
            *idx = self.intents.len() as u32;
            self.intents.push(list);
        }
        *idx
    }

    fn intern_cert(&mut self, cert: CertId) -> u32 {
        let idx = &mut self.cert_idx[cert.index()];
        if *idx == UNSEEN {
            *idx = self.certs.len() as u32;
            self.certs.push(cert);
        }
        *idx
    }
}

/// Collect every payload the cores name in deterministic first-encounter
/// order (agents by id; within an agent: own intents, ledger order, own
/// cert, min cert) so the same state always encodes to the same bytes.
fn build_pools<'p>(pool: &'p PayloadPool, cores: &[&ProtocolCore]) -> Pools<'p> {
    let mut pools = Pools::new(pool);
    for core in cores {
        pools.intern_intents(core.intents);
        for entry in core.ledger.entries() {
            if let Declaration::Intents(list) = entry.decl {
                pools.intern_intents(list);
            }
        }
        for cert in [core.own_cert, core.min_cert].into_iter().flatten() {
            pools.intern_cert(cert);
        }
    }
    pools
}

/// Both pools, each as a count and its payloads in the wire codec's
/// body encoding.
fn encode_pools(out: &mut Vec<u8>, pools: &Pools) {
    put_varint(out, pools.intents.len() as u64);
    for &list in &pools.intents {
        write_intents(out, pools.pool.list(list));
    }
    put_varint(out, pools.certs.len() as u64);
    for &cert in &pools.certs {
        write_cert(out, pools.pool.cert(cert));
    }
}

/// Read both file pools, interning their payloads into `pool`; returns
/// each file index's handle.
fn decode_pools(
    r: &mut Reader,
    pool: &PayloadPool,
) -> Result<(Vec<ListId>, Vec<CertId>), CodecError> {
    let n_lists = r.count()?;
    let intents = (0..n_lists)
        .map(|_| read_intents(r).map(|entries| pool.intern_list(entries)))
        .collect::<Result<_, _>>()?;
    let n_certs = r.count()?;
    let certs = (0..n_certs)
        .map(|_| read_cert(r).map(|cert| pool.intern_cert(cert)))
        .collect::<Result<_, _>>()?;
    Ok((intents, certs))
}

fn pool_ref<'p, T>(pool: &'p [T], idx: u64, what: &'static str) -> Result<&'p T, CheckpointError> {
    usize::try_from(idx)
        .ok()
        .and_then(|i| pool.get(i))
        .ok_or(CheckpointError::Corrupt(what))
}

/// An optional pool entry, written by [`put_opt`] as its index.
fn read_pool_opt<T: Clone>(
    r: &mut Reader,
    pool: &[T],
    what: &'static str,
) -> Result<Option<T>, CheckpointError> {
    if !read_flag(r, what)? {
        return Ok(None);
    }
    pool_ref(pool, r.varint()?, what).cloned().map(Some)
}

// ---------------------------------------------------------------------
// Per-agent state
// ---------------------------------------------------------------------

/// `VerifyFailure` wire tags (`Option<VerifyFailure>` flattened).
const VF_NONE: u8 = 0;
const VF_BAD_SUM: u8 = 1;
const VF_STRUCTURAL: u8 = 2;
const VF_VOTE_MISMATCH: u8 = 3;
const VF_VOTE_FROM_FAULTY: u8 = 4;
const VF_SELF_VOTE: u8 = 5;
const VF_FAILED_EARLIER: u8 = 6;

fn encode_core(out: &mut Vec<u8>, core: &ProtocolCore, pools: &mut Pools) {
    put_varint(out, core.color as u64);
    for w in core.rng.state() {
        put_word(out, w);
    }
    put_varint(out, pools.intern_intents(core.intents) as u64);
    put_varint(out, core.ledger.entries().len() as u64);
    for entry in core.ledger.entries() {
        put_varint(out, entry.agent as u64);
        put_varint(out, entry.round as u64);
        // `Faulty` is the absent list.
        let list = match entry.decl {
            Declaration::Faulty => None,
            Declaration::Intents(list) => Some(pools.intern_intents(list) as u64),
        };
        put_opt(out, list);
    }
    put_varint(out, core.votes.len() as u64);
    for v in core.votes.iter() {
        write_vote_rec(out, &v);
    }
    put_varint(out, core.votes_recv as u64);
    put_varint(out, core.vote_idx as u64);
    for cert in [core.own_cert, core.min_cert] {
        put_opt(out, cert.map(|c| pools.intern_cert(c) as u64));
    }
    out.push(core.failed as u8);
    match core.verify_failure {
        None => out.push(VF_NONE),
        Some(VerifyFailure::BadSum) => out.push(VF_BAD_SUM),
        Some(VerifyFailure::Structural) => out.push(VF_STRUCTURAL),
        Some(VerifyFailure::Inconsistent(ConsistencyError::VoteMismatch { voter })) => {
            out.push(VF_VOTE_MISMATCH);
            put_varint(out, voter as u64);
        }
        Some(VerifyFailure::Inconsistent(ConsistencyError::VoteFromFaulty { voter })) => {
            out.push(VF_VOTE_FROM_FAULTY);
            put_varint(out, voter as u64);
        }
        Some(VerifyFailure::SelfVoteMismatch) => out.push(VF_SELF_VOTE),
        Some(VerifyFailure::FailedEarlier) => out.push(VF_FAILED_EARLIER),
    }
    put_opt(out, core.decided.map(u64::from));
}

fn decode_core(
    r: &mut Reader,
    id: AgentId,
    params: crate::Params,
    pool: &Arc<PayloadPool>,
    intents_pool: &[ListId],
    cert_pool: &[CertId],
) -> Result<ProtocolCore, CheckpointError> {
    let color: ColorId = r.int("color overflows u32")?;
    let rng = gossip_net::rng::DetRng::from_state(read_rng_words(r, "all-zero RNG state")?);
    let own_intents = *pool_ref(intents_pool, r.varint()?, "intent pool index out of range")?;
    // The agent pushes its votes to these targets: one outside the
    // network would address no agent.
    if pool
        .list(own_intents)
        .iter()
        .any(|e| e.target as usize >= params.n)
    {
        return Err(CheckpointError::Corrupt(
            "intent target outside the network",
        ));
    }
    let mut core = ProtocolCore::with_intents(
        Arc::clone(pool),
        id,
        params,
        params.sync_schedule(),
        color,
        rng,
        own_intents,
    );
    // Ledger: replay the recorded rows in order. Each agent appears at
    // most once in a live ledger, so `declare`/`mark_faulty` reproduce
    // the exact entry vector (same order, same rounds).
    let n_entries = r.count()?;
    for _ in 0..n_entries {
        let agent: AgentId = r.int("agent id overflows u32")?;
        let round: u32 = r.int("ledger round overflows u32")?;
        match read_pool_opt(r, intents_pool, "bad ledger declaration")? {
            None => core.ledger.mark_faulty(agent, round),
            Some(list) => {
                if !core.ledger.declare(agent, round, list) {
                    return Err(CheckpointError::Corrupt(
                        "duplicate ledger row for one agent",
                    ));
                }
            }
        }
    }
    let n_votes = r.count()?;
    let mut votes = VoteLanes::with_capacity(n_votes);
    for _ in 0..n_votes {
        votes.push(read_vote_rec(r)?);
    }
    core.votes = votes;
    core.votes_recv = r.int("vote counter overflows u32")?;
    core.vote_idx = r.int("count overflows usize")?;
    core.own_cert = read_pool_opt(r, cert_pool, "bad certificate reference")?;
    core.min_cert = read_pool_opt(r, cert_pool, "bad certificate reference")?;
    core.failed = read_flag(r, "bad failed flag")?;
    core.verify_failure = match r.u8()? {
        VF_NONE => None,
        VF_BAD_SUM => Some(VerifyFailure::BadSum),
        VF_STRUCTURAL => Some(VerifyFailure::Structural),
        VF_VOTE_MISMATCH => Some(VerifyFailure::Inconsistent(
            ConsistencyError::VoteMismatch {
                voter: r.int("agent id overflows u32")?,
            },
        )),
        VF_VOTE_FROM_FAULTY => Some(VerifyFailure::Inconsistent(
            ConsistencyError::VoteFromFaulty {
                voter: r.int("agent id overflows u32")?,
            },
        )),
        VF_SELF_VOTE => Some(VerifyFailure::SelfVoteMismatch),
        VF_FAILED_EARLIER => Some(VerifyFailure::FailedEarlier),
        _ => return Err(CheckpointError::Corrupt("bad verify-failure tag")),
    };
    core.decided = match read_flag(r, "bad decision tag")? {
        false => None,
        true => Some(r.int("decision overflows u32")?),
    };
    Ok(core)
}

// ---------------------------------------------------------------------
// Engine + metrics sections
// ---------------------------------------------------------------------

fn encode_engine(out: &mut Vec<u8>, state: &EngineState, n: usize) {
    put_varint(out, state.next_event as u64);
    debug_assert_eq!(state.down.len(), n);
    put_flags(out, &state.down);
    match &state.partition_sides {
        None => out.push(0),
        Some(sides) => {
            out.push(1);
            debug_assert_eq!(sides.len(), n);
            out.extend_from_slice(sides);
        }
    }
    match state.loss_rng {
        None => out.push(0),
        Some(words) => {
            out.push(1);
            for w in words {
                put_word(out, w);
            }
        }
    }
}

fn decode_engine(r: &mut Reader, n: usize, round: usize) -> Result<EngineState, CheckpointError> {
    let next_event = r.int("count overflows usize")?;
    let down = read_flags(r, n)?;
    let partition_sides = match read_flag(r, "bad partition tag")? {
        false => None,
        true => Some(r.take(n)?.to_vec()),
    };
    let loss_rng = match read_flag(r, "bad loss RNG tag")? {
        false => None,
        true => Some(read_rng_words(r, "all-zero loss RNG state")?),
    };
    Ok(EngineState {
        round,
        next_event,
        down,
        partition_sides,
        loss_rng,
    })
}

fn encode_metrics(out: &mut Vec<u8>, m: &Metrics) {
    for v in [
        m.messages_sent,
        m.undelivered,
        m.bits_sent,
        m.max_message_bits,
        m.rounds,
        m.ticks,
        m.max_active_links,
    ] {
        put_varint(out, v);
    }
    put_varint(out, m.phases.len() as u64);
    for (name, t) in &m.phases {
        put_str(out, name);
        put_varint(out, t.messages);
        put_varint(out, t.bits);
        put_varint(out, t.max_message_bits);
    }
    match m.current_phase_name() {
        None => out.push(0),
        Some(name) => {
            out.push(1);
            put_str(out, name);
        }
    }
}

fn decode_metrics(r: &mut Reader) -> Result<Metrics, CheckpointError> {
    // `Metrics` cannot be built by struct literal outside its module
    // (the current-phase pointer is private); every counter field is
    // public, so restore by assignment, then re-enter the recorded
    // current phase — `enter_phase` on an existing name is exactly
    // "set the pointer, keep the tally".
    let mut m = Metrics::new();
    m.messages_sent = r.varint()?;
    m.undelivered = r.varint()?;
    m.bits_sent = r.varint()?;
    m.max_message_bits = r.varint()?;
    m.rounds = r.varint()?;
    m.ticks = r.varint()?;
    m.max_active_links = r.varint()?;
    let n_phases = r.count()?;
    let mut phases = Vec::with_capacity(n_phases);
    for _ in 0..n_phases {
        let name = read_str(r)?;
        let t = Tally {
            messages: r.varint()?,
            bits: r.varint()?,
            max_message_bits: r.varint()?,
        };
        phases.push((name, t));
    }
    m.phases = phases;
    if read_flag(r, "bad current-phase tag")? {
        let name = read_str(r)?;
        if !m.phases.iter().any(|(n, _)| *n == name) {
            return Err(CheckpointError::Corrupt("current phase not in phase table"));
        }
        // Re-entering an existing name continues its tally and sets
        // the (private) current-phase pointer — exact restoration.
        m.enter_phase(&name);
    }
    Ok(m)
}

// ---------------------------------------------------------------------
// Whole-network snapshot / restore
// ---------------------------------------------------------------------

/// Serialize a fully honest network at its current round boundary.
///
/// Errors with [`CheckpointError::UnsupportedAgent`] if any slot is not
/// [`AgentSlot::Honest`] — deviating strategies carry private state this
/// module cannot see, and a silent partial capture would violate the
/// bit-identity contract.
pub fn checkpoint_network(
    net: &Network<Msg, AgentSlot>,
    cfg: &RunConfig,
    seed: u64,
) -> Result<Vec<u8>, CheckpointError> {
    let mut cores: Vec<&ProtocolCore> = Vec::with_capacity(net.n());
    for (i, slot) in net.agents().iter().enumerate() {
        match slot {
            AgentSlot::Honest(h) => {
                let pool = h.core().pool();
                if cores
                    .first()
                    .is_some_and(|first| !std::ptr::eq(first.pool(), pool))
                {
                    return Err(CheckpointError::SplitPool { id: i as AgentId });
                }
                cores.push(h.core());
            }
            other => {
                let role = match other.role() {
                    Role::Deviator(name) => name,
                    Role::Honest => "custom",
                };
                return Err(CheckpointError::UnsupportedAgent { id: i as AgentId, role });
            }
        }
    }
    let state = net.engine_state();
    let mut out = Vec::new();
    encode_header(
        &mut out,
        &Header {
            version: FORMAT_VERSION,
            checksum: 0,
            seed,
            config_fingerprint: config_fingerprint(cfg),
            n: net.n(),
            round: state.round,
        },
    );
    encode_engine(&mut out, &state, net.n());
    encode_metrics(&mut out, net.metrics());
    out.push(0); // the empty op-log section of format 2
    let empty = PayloadPool::new(cfg.params(), 0);
    let mut pools = build_pools(cores.first().map_or(&empty, |c| c.pool()), &cores);
    encode_pools(&mut out, &pools);
    for core in &cores {
        encode_core(&mut out, core, &mut pools);
    }
    let sum = checksum(&out);
    out[SEALED_FROM - 8..SEALED_FROM].copy_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// A network rebuilt from a checkpoint, ready to be driven from
/// [`RestoredRun::round`] to completion.
pub struct RestoredRun {
    /// The restored network (fully honest agents).
    pub net: Network<Msg, AgentSlot>,
    /// The run seed, read from the checkpoint header.
    pub seed: u64,
    /// The round boundary the snapshot was taken at.
    pub round: usize,
}

/// Rebuild a run from checkpoint bytes under `cfg`.
///
/// The header is validated **before** any state is constructed: bad
/// magic, an unknown version, a checksum mismatch (checked next, as
/// `Corrupt("checksum mismatch")`), an `n` mismatch, or a
/// config-fingerprint mismatch all error out cleanly without
/// deserializing the body. A snapshot whose state the config cannot
/// hold (a round past the end of the run, a scenario cursor past the
/// script, loss-stream words without a loss process or the reverse, a
/// plan fault marked up, a nonzero op-log count, an agent's intent
/// target outside the network) is [`CheckpointError::Corrupt`].
pub fn restore_network(cfg: &RunConfig, bytes: &[u8]) -> Result<RestoredRun, CheckpointError> {
    let mut r = Reader::new(bytes);
    let header = decode_header(&mut r)?;
    if header.checksum != checksum(bytes) {
        return Err(CheckpointError::Corrupt("checksum mismatch"));
    }
    if header.n != cfg.n {
        return Err(CheckpointError::NMismatch { expected: cfg.n, found: header.n });
    }
    let expected = config_fingerprint(cfg);
    if header.config_fingerprint != expected {
        return Err(CheckpointError::ConfigMismatch {
            expected,
            found: header.config_fingerprint,
        });
    }
    if header.round > sync_rounds(cfg) {
        return Err(CheckpointError::Corrupt("round past the end of the run"));
    }
    let engine = decode_engine(&mut r, header.n, header.round)?;
    let metrics = decode_metrics(&mut r)?;
    if r.u8()? != 0 {
        return Err(CheckpointError::Corrupt("op-log section is not empty"));
    }
    let (params, _colors, faults, topology, env, net_cfg) = network_ingredients(cfg, header.seed);
    let pool = PayloadPool::for_network(params);
    let (intent_pool, cert_pool) = decode_pools(&mut r, &pool)?;
    let mut agents = Vec::with_capacity(header.n);
    for i in 0..header.n {
        let core = decode_core(
            &mut r,
            i as AgentId,
            params,
            &pool,
            &intent_pool,
            &cert_pool,
        )?;
        agents.push(AgentSlot::honest(core));
    }
    r.finish("trailing bytes after checkpoint body")?;
    let mut net = Network::with_config(topology, env, agents, faults, net_cfg);
    net.restore_engine_state(engine, metrics)
        .map_err(CheckpointError::Corrupt)?;
    Ok(RestoredRun { net, seed: header.seed, round: header.round })
}

// ---------------------------------------------------------------------
// Snapshots on the phase clock
// ---------------------------------------------------------------------

/// Drive `net` from its current round to completion on the phase clock
/// ([`drive_phases`]) over [`crate::runner::drive_network`]'s windows,
/// emitting a checkpoint into `sink` every `every` rounds (`None` =
/// never). The snapshot hook only reads the network, so the run is
/// operation-for-operation the hook-free one; a mid-phase restore
/// re-enters the in-flight phase label, which continues its metrics
/// tally (the metering contract).
pub fn drive_with_checkpoints(
    net: &mut Network<Msg, AgentSlot>,
    cfg: &RunConfig,
    seed: u64,
    every: Option<usize>,
    sink: &mut dyn FnMut(usize, &[u8]),
) -> Result<(), CheckpointError> {
    let every = every.filter(|&k| k > 0);
    drive_phases(net, sync_windows(cfg), Network::step_staged, |net| {
        if every.is_some_and(|k| net.round().is_multiple_of(k)) {
            sink(net.round(), &checkpoint_network(net, cfg, seed)?);
        }
        Ok(())
    })
}

/// [`crate::run_protocol`], emitting a checkpoint every `every` rounds.
/// The report is bit-identical to the checkpoint-free run.
pub fn run_protocol_with_checkpoints(
    cfg: &RunConfig,
    seed: u64,
    every: usize,
    sink: &mut dyn FnMut(usize, &[u8]),
) -> Result<RunReport, CheckpointError> {
    let mut net = build_network_slots(cfg, seed, &mut honest_slot_factory);
    drive_with_checkpoints(&mut net, cfg, seed, Some(every), sink)?;
    Ok(collect_report(&net, cfg))
}

/// Restore from checkpoint bytes and run to completion. The returned
/// report is bit-identical to the straight-through run of the same
/// `(cfg, seed)` — the resume-equivalence contract.
pub fn resume_protocol(cfg: &RunConfig, bytes: &[u8]) -> Result<RunReport, CheckpointError> {
    let mut net = restore_network(cfg, bytes)?.net;
    drive_network(&mut net, cfg);
    Ok(collect_report(&net, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_errors_map_to_checkpoint_errors() {
        // 11 continuation bytes can never be a valid u64 varint.
        let bytes = [0xffu8; 11];
        let err = CheckpointError::from(Reader::new(&bytes).varint().unwrap_err());
        assert!(matches!(err, CheckpointError::Corrupt(_)));
        let err = CheckpointError::from(Reader::new(&[0x80]).varint().unwrap_err());
        assert_eq!(err, CheckpointError::Truncated);
    }

    #[test]
    fn bool_packing_round_trips() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut out = Vec::new();
            put_flags(&mut out, &flags);
            let mut r = Reader::new(&out);
            assert_eq!(read_flags(&mut r, n).unwrap(), flags);
            r.finish("trailing").unwrap();
        }
    }

    #[test]
    fn header_round_trips_and_rejects() {
        let h = Header {
            version: FORMAT_VERSION,
            checksum: 7,
            seed: 0xdead_beef,
            config_fingerprint: 42,
            n: 1024,
            round: 96,
        };
        let mut buf = Vec::new();
        encode_header(&mut buf, &h);
        assert_eq!(peek_header(&buf).unwrap(), h);
        // Wrong version tag.
        let mut bad = buf.clone();
        bad[4] = 99;
        assert_eq!(
            peek_header(&bad),
            Err(CheckpointError::WrongVersion { found: 99 })
        );
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(peek_header(&bad), Err(CheckpointError::BadMagic));
        // Truncation anywhere in the header.
        for cut in 0..buf.len() {
            assert_eq!(peek_header(&buf[..cut]), Err(CheckpointError::Truncated));
        }
    }
}
