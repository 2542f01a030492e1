//! # Checkpoint / resume for deterministic runs
//!
//! A run is a pure function of `(RunConfig, seed)`, executed in
//! synchronous rounds. That makes snapshot-at-round-boundary +
//! deterministic replay the complete checkpoint story: capture the
//! **mutable** state between two rounds, rebuild every immutable
//! ingredient from `(cfg, seed)` on restore, and continue. The contract
//! — pinned by `tests/checkpoint_resume.rs` — is absolute:
//! checkpoint-at-round-`r` + restore + run-to-completion is
//! **bit-identical** (report digest and op log, event for event) to the
//! straight-through run, under both [`RngDiscipline`] variants and any
//! thread count.
//!
//! ## What a checkpoint carries
//!
//! * a self-describing header: magic `RFCK`, format version, the run
//!   `seed`, a fingerprint of the (thread-normalized) [`RunConfig`],
//!   `n`, and the round;
//! * the engine's mutable layer ([`gossip_net::network::EngineState`]):
//!   round, scenario cursor, live fault flags, installed partition cut,
//!   and the sequential loss stream's raw xoshiro256++ words;
//! * [`Metrics`] counters and the op log — a restored run **continues
//!   exact counts** (the metering contract extends across the seam);
//! * per-agent protocol state: color, RNG words, the intention list,
//!   the commitment ledger, received votes, certificates, and the
//!   verification verdict.
//!
//! What it does *not* carry: topology, size env, fault plan, scenario
//! script, loss schedule, params — all derived from `(cfg, seed)` by the
//! restorer, which is also what lets the header detect a config/seed
//! mismatch instead of deserializing garbage.
//!
//! ## Sharing-preserving encoding
//!
//! Intention lists and certificates are reference-counted and heavily
//! shared (one agent's declaration lands in many ledgers; one winning
//! certificate is held by everyone after Find-Min). The encoder interns
//! both by allocation identity into two pools and stores pool indices,
//! so restore rebuilds the same sharing graph — compact on disk *and*
//! cheap in memory. The memo fields inside [`crate::msg::IntentListData`]
//! are pure caches of the entries and are recomputed, never serialized.
//!
//! ## Scope
//!
//! Only fully **honest** networks are checkpointable mid-run: deviating
//! [`AgentSlot`] variants carry strategy-private state this module
//! cannot see, so [`checkpoint_network`] returns
//! [`CheckpointError::UnsupportedAgent`] for them (equilibrium
//! experiments checkpoint at *trial* granularity instead — see
//! `experiments::parallel::run_trials_fold_resumable` and the adversary
//! harness). Async (sequential-GOSSIP) runs are likewise out of scope:
//! the checkpoint driver is the synchronous phase clock.

use std::collections::HashMap;
use std::fmt;

use gossip_net::ids::{AgentId, ColorId};
use gossip_net::metrics::{Metrics, Tally};
use gossip_net::network::{EngineState, Network};
use gossip_net::oplog::{OpKind, OpLog};

use crate::agent_plane::AgentSlot;
use crate::certificate::{CertData, Certificate, VoteRec};
use crate::engine::{ConsensusAgent, ProtocolCore, Role, VerifyFailure};
use crate::ledger::{ConsistencyError, Declaration};
use crate::msg::{IntentEntry, IntentList, Msg};
use crate::runner::{
    build_network_slots, collect_report, honest_slot_factory, network_ingredients, RunConfig,
    RunReport,
};
use crate::sharing::Shared;

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"RFCK";

/// Current checkpoint format version. Bump on any layout change; old
/// versions are rejected with [`CheckpointError::WrongVersion`], never
/// best-effort parsed.
pub const FORMAT_VERSION: u16 = 1;

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
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The self-describing header of a checkpoint, readable without
/// touching the body (CLI display, pre-restore validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (always [`FORMAT_VERSION`] after a successful read).
    pub version: u16,
    /// The run seed.
    pub seed: u64,
    /// [`config_fingerprint`] of the originating config.
    pub config_fingerprint: u64,
    /// Population size.
    pub n: usize,
    /// The round boundary the snapshot was taken at.
    pub round: usize,
}

/// FNV-1a 64-bit (the corpus digest primitive, reused for the config
/// fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
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
    fnv1a(format!("{norm:?}").as_bytes())
}

// ---------------------------------------------------------------------
// Byte-level encoder / decoder: LEB128 varints for counters and ids,
// raw little-endian words for RNG state (full-entropy, varints would
// only inflate it).
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64_raw(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                break;
            }
            self.buf.push(b | 0x80);
        }
    }
    fn usize(&mut self, v: usize) {
        self.varint(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bools(&mut self, flags: &[bool]) {
        // Bit-packed, LSB-first within each byte.
        for chunk in flags.chunks(8) {
            let mut b = 0u8;
            for (i, &f) in chunk.iter().enumerate() {
                b |= (f as u8) << i;
            }
            self.buf.push(b);
        }
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(len).ok_or(CheckpointError::Truncated)?;
        if end > self.b.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u64_raw(&mut self) -> Result<u64, CheckpointError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }
    fn varint(&mut self) -> Result<u64, CheckpointError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CheckpointError::Corrupt("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CheckpointError::Corrupt("varint too long"));
            }
        }
    }
    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.varint()?).map_err(|_| CheckpointError::Corrupt("count overflows usize"))
    }
    /// A length that will be used to allocate: bounded by the bytes
    /// actually remaining, so a corrupt count cannot OOM the decoder.
    fn len_capped(&mut self) -> Result<usize, CheckpointError> {
        let v = self.usize()?;
        if v > self.b.len().saturating_sub(self.pos) {
            return Err(CheckpointError::Truncated);
        }
        Ok(v)
    }
    fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.len_capped()?;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| CheckpointError::Corrupt("non-UTF-8 string"))
    }
    fn bools(&mut self, n: usize) -> Result<Vec<bool>, CheckpointError> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }
    fn done(&self) -> Result<(), CheckpointError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt("trailing bytes after checkpoint body"))
        }
    }
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

fn encode_header(e: &mut Enc, h: &Header) {
    e.buf.extend_from_slice(&MAGIC);
    e.u16(h.version);
    e.u64_raw(h.seed);
    e.u64_raw(h.config_fingerprint);
    e.usize(h.n);
    e.usize(h.round);
}

fn decode_header(d: &mut Dec) -> Result<Header, CheckpointError> {
    if d.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = d.u16()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::WrongVersion { found: version });
    }
    Ok(Header {
        version,
        seed: d.u64_raw()?,
        config_fingerprint: d.u64_raw()?,
        n: d.usize()?,
        round: d.usize()?,
    })
}

/// Read just the header of a checkpoint (cheap validation / display).
pub fn peek_header(bytes: &[u8]) -> Result<Header, CheckpointError> {
    decode_header(&mut Dec::new(bytes))
}

// ---------------------------------------------------------------------
// Interning pools
// ---------------------------------------------------------------------

#[derive(Default)]
struct Pools {
    intent_idx: HashMap<usize, u32>,
    intents: Vec<IntentList>,
    cert_idx: HashMap<usize, u32>,
    certs: Vec<Certificate>,
}

impl Pools {
    fn intern_intents(&mut self, list: &IntentList) -> u32 {
        let key = IntentList::as_ptr(list) as usize;
        *self.intent_idx.entry(key).or_insert_with(|| {
            self.intents.push(list.clone());
            (self.intents.len() - 1) as u32
        })
    }
    fn intern_cert(&mut self, cert: &Certificate) -> u32 {
        let key = Shared::as_ptr(cert) as usize;
        *self.cert_idx.entry(key).or_insert_with(|| {
            self.certs.push(Certificate::clone(cert));
            (self.certs.len() - 1) as u32
        })
    }
}

/// Collect every shared payload in deterministic first-encounter order
/// (agents by id; within an agent: own intents, ledger order, own cert,
/// min cert) so the same state always encodes to the same bytes.
fn build_pools(cores: &[&ProtocolCore]) -> Pools {
    let mut pools = Pools::default();
    for core in cores {
        pools.intern_intents(&core.intents);
        for entry in core.ledger.entries() {
            if let Declaration::Intents(list) = &entry.decl {
                pools.intern_intents(list);
            }
        }
        if let Some(c) = &core.own_cert {
            pools.intern_cert(c);
        }
        if let Some(c) = &core.min_cert {
            pools.intern_cert(c);
        }
    }
    pools
}

fn encode_vote(e: &mut Enc, v: &VoteRec) {
    e.varint(v.voter as u64);
    e.varint(v.round as u64);
    e.varint(v.value);
}

fn decode_vote(d: &mut Dec) -> Result<VoteRec, CheckpointError> {
    Ok(VoteRec {
        voter: decode_agent_id(d)?,
        round: u16::try_from(d.varint()?).map_err(|_| CheckpointError::Corrupt("vote round overflows u16"))?,
        value: d.varint()?,
    })
}

fn decode_agent_id(d: &mut Dec) -> Result<AgentId, CheckpointError> {
    u32::try_from(d.varint()?).map_err(|_| CheckpointError::Corrupt("agent id overflows u32"))
}

fn encode_pools(e: &mut Enc, pools: &Pools) {
    e.usize(pools.intents.len());
    for list in &pools.intents {
        e.usize(list.len());
        for entry in list.iter() {
            e.varint(entry.value);
            e.varint(entry.target as u64);
        }
    }
    e.usize(pools.certs.len());
    for cert in &pools.certs {
        e.varint(cert.k);
        e.varint(cert.color as u64);
        e.varint(cert.owner as u64);
        e.usize(cert.votes.len());
        for v in cert.votes.iter() {
            encode_vote(e, &v);
        }
    }
}

fn decode_pools(d: &mut Dec) -> Result<(Vec<IntentList>, Vec<Certificate>), CheckpointError> {
    let n_lists = d.len_capped()?;
    let mut intents = Vec::with_capacity(n_lists);
    for _ in 0..n_lists {
        let len = d.len_capped()?;
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            entries.push(IntentEntry {
                value: d.varint()?,
                target: decode_agent_id(d)?,
            });
        }
        intents.push(IntentList::from(entries));
    }
    let n_certs = d.len_capped()?;
    let mut certs = Vec::with_capacity(n_certs);
    for _ in 0..n_certs {
        let k = d.varint()?;
        let color = u32::try_from(d.varint()?)
            .map_err(|_| CheckpointError::Corrupt("color overflows u32"))? as ColorId;
        let owner = decode_agent_id(d)?;
        let n_votes = d.len_capped()?;
        let mut votes = Vec::with_capacity(n_votes);
        for _ in 0..n_votes {
            votes.push(decode_vote(d)?);
        }
        certs.push(Shared::new(CertData { k, votes: votes.into(), color, owner }));
    }
    Ok((intents, certs))
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

fn encode_core(e: &mut Enc, core: &ProtocolCore, pools: &mut Pools) {
    e.varint(core.color as u64);
    for w in core.rng.state() {
        e.u64_raw(w);
    }
    e.varint(pools.intern_intents(&core.intents) as u64);
    e.usize(core.ledger.entries().len());
    for entry in core.ledger.entries() {
        e.varint(entry.agent as u64);
        e.varint(entry.round as u64);
        match &entry.decl {
            Declaration::Faulty => e.u8(0),
            Declaration::Intents(list) => {
                e.u8(1);
                e.varint(pools.intern_intents(list) as u64);
            }
        }
    }
    e.usize(core.votes.len());
    for v in core.votes.iter() {
        encode_vote(e, &v);
    }
    e.varint(core.votes_recv as u64);
    e.usize(core.vote_idx);
    for cert in [&core.own_cert, &core.min_cert] {
        match cert {
            None => e.u8(0),
            Some(c) => {
                e.u8(1);
                e.varint(pools.intern_cert(c) as u64);
            }
        }
    }
    e.u8(core.failed as u8);
    match core.verify_failure {
        None => e.u8(VF_NONE),
        Some(VerifyFailure::BadSum) => e.u8(VF_BAD_SUM),
        Some(VerifyFailure::Structural) => e.u8(VF_STRUCTURAL),
        Some(VerifyFailure::Inconsistent(ConsistencyError::VoteMismatch { voter })) => {
            e.u8(VF_VOTE_MISMATCH);
            e.varint(voter as u64);
        }
        Some(VerifyFailure::Inconsistent(ConsistencyError::VoteFromFaulty { voter })) => {
            e.u8(VF_VOTE_FROM_FAULTY);
            e.varint(voter as u64);
        }
        Some(VerifyFailure::SelfVoteMismatch) => e.u8(VF_SELF_VOTE),
        Some(VerifyFailure::FailedEarlier) => e.u8(VF_FAILED_EARLIER),
    }
    match core.decided {
        None => e.u8(0),
        Some(c) => {
            e.u8(1);
            e.varint(c as u64);
        }
    }
}

fn pool_ref<'p, T>(pool: &'p [T], idx: u64, what: &'static str) -> Result<&'p T, CheckpointError> {
    usize::try_from(idx)
        .ok()
        .and_then(|i| pool.get(i))
        .ok_or(CheckpointError::Corrupt(what))
}

fn decode_core(
    d: &mut Dec,
    id: AgentId,
    params: crate::Params,
    intents_pool: &[IntentList],
    cert_pool: &[Certificate],
) -> Result<ProtocolCore, CheckpointError> {
    let color = u32::try_from(d.varint()?)
        .map_err(|_| CheckpointError::Corrupt("color overflows u32"))? as ColorId;
    let mut rng_state = [0u64; 4];
    for w in &mut rng_state {
        *w = d.u64_raw()?;
    }
    if rng_state == [0; 4] {
        return Err(CheckpointError::Corrupt("all-zero RNG state"));
    }
    let rng = gossip_net::rng::DetRng::from_state(rng_state);
    let own_intents = pool_ref(intents_pool, d.varint()?, "intent pool index out of range")?.clone();
    let mut core = ProtocolCore::with_intents(
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
    let n_entries = d.len_capped()?;
    for _ in 0..n_entries {
        let agent = decode_agent_id(d)?;
        let round = u32::try_from(d.varint()?)
            .map_err(|_| CheckpointError::Corrupt("ledger round overflows u32"))?;
        match d.u8()? {
            0 => core.ledger.mark_faulty(agent, round),
            1 => {
                let list =
                    pool_ref(intents_pool, d.varint()?, "intent pool index out of range")?.clone();
                if !core.ledger.declare(agent, round, list) {
                    return Err(CheckpointError::Corrupt("duplicate ledger row for one agent"));
                }
            }
            _ => return Err(CheckpointError::Corrupt("bad ledger declaration tag")),
        }
    }
    let n_votes = d.len_capped()?;
    let mut votes = crate::certificate::VoteLanes::with_capacity(n_votes);
    for _ in 0..n_votes {
        votes.push(decode_vote(d)?);
    }
    core.votes = votes;
    core.votes_recv = u32::try_from(d.varint()?)
        .map_err(|_| CheckpointError::Corrupt("vote counter overflows u32"))?;
    core.vote_idx = d.usize()?;
    let mut certs = [None, None];
    for slot in &mut certs {
        *slot = match d.u8()? {
            0 => None,
            1 => Some(Certificate::clone(pool_ref(
                cert_pool,
                d.varint()?,
                "certificate pool index out of range",
            )?)),
            _ => return Err(CheckpointError::Corrupt("bad certificate tag")),
        };
    }
    let [own_cert, min_cert] = certs;
    core.own_cert = own_cert;
    core.min_cert = min_cert;
    core.failed = match d.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CheckpointError::Corrupt("bad failed flag")),
    };
    core.verify_failure = match d.u8()? {
        VF_NONE => None,
        VF_BAD_SUM => Some(VerifyFailure::BadSum),
        VF_STRUCTURAL => Some(VerifyFailure::Structural),
        VF_VOTE_MISMATCH => Some(VerifyFailure::Inconsistent(ConsistencyError::VoteMismatch {
            voter: decode_agent_id(d)?,
        })),
        VF_VOTE_FROM_FAULTY => Some(VerifyFailure::Inconsistent(
            ConsistencyError::VoteFromFaulty { voter: decode_agent_id(d)? },
        )),
        VF_SELF_VOTE => Some(VerifyFailure::SelfVoteMismatch),
        VF_FAILED_EARLIER => Some(VerifyFailure::FailedEarlier),
        _ => return Err(CheckpointError::Corrupt("bad verify-failure tag")),
    };
    core.decided = match d.u8()? {
        0 => None,
        1 => Some(
            u32::try_from(d.varint()?)
                .map_err(|_| CheckpointError::Corrupt("decision overflows u32"))? as ColorId,
        ),
        _ => return Err(CheckpointError::Corrupt("bad decision tag")),
    };
    Ok(core)
}

// ---------------------------------------------------------------------
// Engine + metrics + op log sections
// ---------------------------------------------------------------------

fn encode_engine(e: &mut Enc, state: &EngineState, n: usize) {
    e.usize(state.next_event);
    debug_assert_eq!(state.down.len(), n);
    e.bools(&state.down);
    match &state.partition_sides {
        None => e.u8(0),
        Some(sides) => {
            e.u8(1);
            debug_assert_eq!(sides.len(), n);
            e.buf.extend_from_slice(sides);
        }
    }
    match state.loss_rng {
        None => e.u8(0),
        Some(words) => {
            e.u8(1);
            for w in words {
                e.u64_raw(w);
            }
        }
    }
}

fn decode_engine(d: &mut Dec, n: usize, round: usize) -> Result<EngineState, CheckpointError> {
    let next_event = d.usize()?;
    let down = d.bools(n)?;
    let partition_sides = match d.u8()? {
        0 => None,
        1 => Some(d.take(n)?.to_vec()),
        _ => return Err(CheckpointError::Corrupt("bad partition tag")),
    };
    let loss_rng = match d.u8()? {
        0 => None,
        1 => {
            let mut words = [0u64; 4];
            for w in &mut words {
                *w = d.u64_raw()?;
            }
            if words == [0; 4] {
                return Err(CheckpointError::Corrupt("all-zero loss RNG state"));
            }
            Some(words)
        }
        _ => return Err(CheckpointError::Corrupt("bad loss RNG tag")),
    };
    Ok(EngineState {
        round,
        next_event,
        down,
        partition_sides,
        loss_rng,
    })
}

fn encode_metrics(e: &mut Enc, m: &Metrics) {
    e.varint(m.messages_sent);
    e.varint(m.undelivered);
    e.varint(m.bits_sent);
    e.varint(m.max_message_bits);
    e.varint(m.rounds);
    e.varint(m.ticks);
    e.varint(m.max_active_links);
    e.usize(m.phases.len());
    for (name, t) in &m.phases {
        e.str(name);
        e.varint(t.messages);
        e.varint(t.bits);
        e.varint(t.max_message_bits);
    }
    match m.current_phase_name() {
        None => e.u8(0),
        Some(name) => {
            e.u8(1);
            e.str(name);
        }
    }
}

fn decode_metrics(d: &mut Dec) -> Result<Metrics, CheckpointError> {
    // `Metrics` cannot be built by struct literal outside its module
    // (the current-phase pointer is private); every counter field is
    // public, so restore by assignment, then re-enter the recorded
    // current phase — `enter_phase` on an existing name is exactly
    // "set the pointer, keep the tally".
    let mut m = Metrics::new();
    m.messages_sent = d.varint()?;
    m.undelivered = d.varint()?;
    m.bits_sent = d.varint()?;
    m.max_message_bits = d.varint()?;
    m.rounds = d.varint()?;
    m.ticks = d.varint()?;
    m.max_active_links = d.varint()?;
    let n_phases = d.len_capped()?;
    let mut phases = Vec::with_capacity(n_phases);
    for _ in 0..n_phases {
        let name = d.str()?;
        let t = Tally {
            messages: d.varint()?,
            bits: d.varint()?,
            max_message_bits: d.varint()?,
        };
        phases.push((name, t));
    }
    m.phases = phases;
    match d.u8()? {
        0 => {}
        1 => {
            let name = d.str()?;
            if !m.phases.iter().any(|(n, _)| *n == name) {
                return Err(CheckpointError::Corrupt("current phase not in phase table"));
            }
            // Re-entering an existing name continues its tally and sets
            // the (private) current-phase pointer — exact restoration.
            m.enter_phase(&name);
        }
        _ => return Err(CheckpointError::Corrupt("bad current-phase tag")),
    }
    Ok(m)
}

fn encode_oplog(e: &mut Enc, log: &OpLog) {
    e.usize(log.len());
    let mut prev_round = 0u32;
    for ev in log.events() {
        // Rounds are non-decreasing: delta-encode them so long recorded
        // runs stay one byte per event here.
        e.varint((ev.round - prev_round) as u64);
        prev_round = ev.round;
        e.u8(match ev.kind {
            OpKind::Push => 0,
            OpKind::Pull => 1,
            OpKind::PullUnanswered => 2,
        });
        e.varint(ev.from as u64);
        e.varint(ev.to as u64);
    }
}

fn decode_oplog(d: &mut Dec) -> Result<OpLog, CheckpointError> {
    let mut log = OpLog::new();
    let count = d.len_capped()?;
    let mut round = 0u32;
    for _ in 0..count {
        let delta = u32::try_from(d.varint()?)
            .map_err(|_| CheckpointError::Corrupt("op round overflows u32"))?;
        round = round
            .checked_add(delta)
            .ok_or(CheckpointError::Corrupt("op round overflows u32"))?;
        let kind = match d.u8()? {
            0 => OpKind::Push,
            1 => OpKind::Pull,
            2 => OpKind::PullUnanswered,
            _ => return Err(CheckpointError::Corrupt("bad op kind")),
        };
        let from = decode_agent_id(d)?;
        let to = decode_agent_id(d)?;
        log.record(round, kind, from, to);
    }
    Ok(log)
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
            AgentSlot::Honest(h) => cores.push(h.core()),
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
    let mut e = Enc::new();
    encode_header(
        &mut e,
        &Header {
            version: FORMAT_VERSION,
            seed,
            config_fingerprint: config_fingerprint(cfg),
            n: net.n(),
            round: state.round,
        },
    );
    encode_engine(&mut e, &state, net.n());
    encode_metrics(&mut e, net.metrics());
    encode_oplog(&mut e, net.oplog());
    let mut pools = build_pools(&cores);
    encode_pools(&mut e, &pools);
    for core in &cores {
        encode_core(&mut e, core, &mut pools);
    }
    Ok(e.buf)
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
/// magic, an unknown version, an `n` mismatch, or a config-fingerprint
/// mismatch all error out cleanly without deserializing the body.
pub fn restore_network(cfg: &RunConfig, bytes: &[u8]) -> Result<RestoredRun, CheckpointError> {
    let mut d = Dec::new(bytes);
    let header = decode_header(&mut d)?;
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
    let engine = decode_engine(&mut d, header.n, header.round)?;
    let metrics = decode_metrics(&mut d)?;
    let oplog = decode_oplog(&mut d)?;
    let (intent_pool, cert_pool) = decode_pools(&mut d)?;
    let (params, _colors, faults, topology, env, net_cfg) = network_ingredients(cfg, header.seed);
    let mut agents = Vec::with_capacity(header.n);
    for i in 0..header.n {
        let core = decode_core(&mut d, i as AgentId, params, &intent_pool, &cert_pool)?;
        agents.push(AgentSlot::honest(core));
    }
    d.done()?;
    let mut net = Network::with_config(topology, env, agents, faults, net_cfg);
    net.restore_engine_state(engine, metrics, oplog);
    Ok(RestoredRun { net, seed: header.seed, round: header.round })
}

// ---------------------------------------------------------------------
// The checkpointing phase-clock driver
// ---------------------------------------------------------------------

/// Drive `net` from its current round to completion under the
/// synchronous phase clock, emitting a checkpoint into `sink` every
/// `every` rounds (`None` = never). Operation-for-operation identical to
/// [`crate::runner::drive_network`] when started from round 0 — phases
/// are entered once each, at the same points, and `run_staged` chunking
/// is bit-invariant — and it picks up mid-phase restores by
/// re-entering the in-flight phase label (which continues its metrics
/// tally; the metering contract).
pub fn drive_with_checkpoints(
    net: &mut Network<Msg, AgentSlot>,
    cfg: &RunConfig,
    seed: u64,
    every: Option<usize>,
    sink: &mut dyn FnMut(usize, &[u8]),
) -> Result<(), CheckpointError> {
    let params = cfg.params();
    let schedule = params.sync_schedule();
    let q = params.q;
    let total = if cfg.skip_coherence { 3 * q } else { 4 * q };
    let mut entered: Option<&'static str> = None;
    while net.round() < total {
        let name = schedule.phase_of(net.round()).name();
        if entered != Some(name) {
            net.enter_phase(name);
            entered = Some(name);
        }
        net.run_staged(1);
        if let Some(k) = every {
            if k > 0 && net.round() % k == 0 {
                let bytes = checkpoint_network(net, cfg, seed)?;
                sink(net.round(), &bytes);
            }
        }
    }
    net.finalize();
    Ok(())
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
    resume_protocol_with_checkpoints(cfg, bytes, None, &mut |_, _| {})
}

/// [`resume_protocol`], itself emitting further checkpoints (so a
/// resumed mega-run stays resumable).
pub fn resume_protocol_with_checkpoints(
    cfg: &RunConfig,
    bytes: &[u8],
    every: Option<usize>,
    sink: &mut dyn FnMut(usize, &[u8]),
) -> Result<RunReport, CheckpointError> {
    let restored = restore_network(cfg, bytes)?;
    let mut net = restored.net;
    drive_with_checkpoints(&mut net, cfg, restored.seed, every, sink)?;
    Ok(collect_report(&net, cfg))
}

/// The checkpoint rounds a driver with cadence `every` emits for a run
/// of `total` rounds: multiples of `every` in `[every, total]` (a
/// snapshot exactly at `total` is legal — resume just finalizes).
pub fn checkpoint_rounds(total: usize, every: usize) -> Vec<usize> {
    if every == 0 {
        return Vec::new();
    }
    (1..=total / every).map(|i| i * every).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        let mut e = Enc::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            e.varint(v);
        }
        let mut d = Dec::new(&e.buf);
        for &v in &values {
            assert_eq!(d.varint().unwrap(), v);
        }
        d.done().unwrap();
    }

    #[test]
    fn varint_overflow_is_corrupt() {
        // 11 continuation bytes can never be a valid u64 varint.
        let bytes = [0xffu8; 11];
        assert!(matches!(
            Dec::new(&bytes).varint(),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn bool_packing_round_trips() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut e = Enc::new();
            e.bools(&flags);
            let mut d = Dec::new(&e.buf);
            assert_eq!(d.bools(n).unwrap(), flags);
        }
    }

    #[test]
    fn header_round_trips_and_rejects() {
        let h = Header {
            version: FORMAT_VERSION,
            seed: 0xdead_beef,
            config_fingerprint: 42,
            n: 1024,
            round: 96,
        };
        let mut e = Enc::new();
        encode_header(&mut e, &h);
        assert_eq!(peek_header(&e.buf).unwrap(), h);
        // Wrong version tag.
        let mut bad = e.buf.clone();
        bad[4] = 99;
        assert_eq!(
            peek_header(&bad),
            Err(CheckpointError::WrongVersion { found: 99 })
        );
        // Bad magic.
        let mut bad = e.buf.clone();
        bad[0] = b'X';
        assert_eq!(peek_header(&bad), Err(CheckpointError::BadMagic));
        // Truncation anywhere in the header.
        for cut in 0..e.buf.len() {
            assert_eq!(peek_header(&e.buf[..cut]), Err(CheckpointError::Truncated));
        }
    }

    #[test]
    fn checkpoint_rounds_cadence() {
        assert_eq!(checkpoint_rounds(96, 24), vec![24, 48, 72, 96]);
        assert_eq!(checkpoint_rounds(96, 40), vec![40, 80]);
        assert_eq!(checkpoint_rounds(96, 0), Vec::<usize>::new());
        assert_eq!(checkpoint_rounds(10, 96), Vec::<usize>::new());
    }
}
