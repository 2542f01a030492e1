//! The payload pool: one store per network for the certificates and
//! intention lists its messages and agents name by handle.
//!
//! Find-Min and Coherence send `Θ(n log n)` certificates but only copy
//! at most `n` distinct ones (Theorem 4); Commitment's `Θ(n log n)`
//! replies each carry one of `n` intention lists. So a message carries a
//! `u32` handle — [`CertId`] or [`ListId`] — plus the payload's length
//! (all that metering needs), and agent state holds handles too.
//! Forwarding a payload copies a handle: nothing is reference-counted,
//! so two shards never write one cache line to pass the same
//! certificate around.
//!
//! Every agent reaches its network's pool through an `Arc` it takes once,
//! at construction. Handle values carry no meaning beyond "this pool's
//! entry": they may differ between shard counts, and nothing orders,
//! hashes or digests by them.
//!
//! # Regions
//!
//! * **Reserved** — one slot per agent id for the honest payloads. The
//!   intention list is drawn into its slot while the network is built
//!   (a table of `q` entries per agent, sealed at the first read),
//!   and the certificate is set once, at Find-Min entry, by the agent's
//!   own shard into a [`OnceLock`]; other shards read it only after the
//!   round barrier that delivers its handle.
//! * **Runtime** — every other payload: forged certificates, the
//!   equivocator's second list, decoded and restored payloads. Appends
//!   serialize on one lock; reads never lock (append-only chunks of
//!   `OnceLock` slots that never move). [`PayloadPool::insert_cert`] and
//!   [`PayloadPool::insert_list`] always append — a payload the
//!   simulator builds afresh gets a fresh handle — while
//!   [`PayloadPool::intern_cert`] and [`PayloadPool::intern_list`]
//!   (decoders) return the handle of an equal payload already in the
//!   pool, so a pool grows with distinct payloads, not with traffic.
//!
//! # Side tables
//!
//! A list's plausibility (`q` entries, every field in range) is decided
//! once, when the list enters the pool. Verification's "how many of this
//! list's votes name owner `w`" is memoized per handle, keyed by owner:
//! one relaxed `AtomicU64` each, 8 bytes a list instead of a miss into
//! the list itself. A memo race is benign — the value is a pure function
//! of immutable entries, so racing writers store the same word.
//!
//! # Building
//!
//! [`build_network_slots`](crate::runner::build_network_slots), the
//! trial arena, the instance plane and checkpoint restore construct
//! their cores inside [`PayloadPool::building`], which is how the
//! agent factories' plain `ProtocolCore::new_on(..)` calls find the pool
//! of the network being built. A core constructed outside any build gets
//! a standalone pool without reserved slots.

use crate::certificate::CertData;
use crate::msg::{IntentEntry, Msg};
use crate::params::Params;
use gossip_net::ids::AgentId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Handle of an intention list in its network's [`PayloadPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListId(NonZeroU32);

/// Handle of a certificate in its network's [`PayloadPool`]. Stored as
/// index + 1, so an `Option<CertId>` is 4 bytes in agent state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertId(NonZeroU32);

/// The handle for position `index` of a pool's handle space.
fn handle(index: usize) -> NonZeroU32 {
    u32::try_from(index + 1)
        .ok()
        .and_then(NonZeroU32::new)
        .expect("payload handle space exhausted")
}

impl ListId {
    fn new(index: usize) -> Self {
        ListId(handle(index))
    }

    /// Position in the pool's list handle space (`0..list_handles()`).
    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

impl CertId {
    fn new(index: usize) -> Self {
        CertId(handle(index))
    }

    /// Position in the pool's certificate handle space.
    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// A drawn list's plausibility state in the reserved table.
const NOT_DRAWN: u8 = 0;
const IMPLAUSIBLE: u8 = 1;
const PLAUSIBLE: u8 = 2;

/// Verification memo word for "no owner queried yet" (a real count is
/// bounded by the list length and never reaches `u32::MAX`).
const MEMO_UNSET: u64 = u64::MAX;

/// Agents per block of the reserved list table. A table-sized
/// allocation would be a fresh mapping, page-faulted in again on every
/// build; blocks this size are recycled by the allocator.
const BLOCK: usize = 512;

/// The reserved list table: agent `i`'s list is `q` entries at
/// `(i % BLOCK)·q` in `blocks[i / BLOCK]`.
#[derive(Default)]
struct Drawn {
    q: usize,
    blocks: Vec<Vec<IntentEntry>>,
    /// Per agent: [`NOT_DRAWN`], [`IMPLAUSIBLE`] or [`PLAUSIBLE`].
    state: Vec<u8>,
}

impl Drawn {
    /// Agent `i`'s drawn list.
    #[inline]
    fn list(&self, i: usize) -> &[IntentEntry] {
        let at = (i % BLOCK) * self.q;
        &self.blocks[i / BLOCK][at..at + self.q]
    }
}

/// A runtime-region list and its side-table row.
struct RuntimeList {
    entries: Box<[IntentEntry]>,
    plausible: bool,
    memo: AtomicU64,
}

/// Runtime-region bookkeeping, guarded by the one runtime lock.
#[derive(Default)]
struct Runtime {
    lists: u32,
    certs: u32,
    /// Content hash → handle, for `intern_*`.
    list_index: HashMap<u64, ListId>,
    cert_index: HashMap<u64, CertId>,
    /// Whether the reserved lists are in `list_index` yet.
    drawn_indexed: bool,
}

/// Slots in the first runtime chunk; chunk `c` holds `FIRST_CHUNK << c`.
const FIRST_CHUNK: usize = 64;
/// Enough chunks for the whole `u32` handle space.
const CHUNKS: usize = 27;

/// An append-only slot arena whose entries never move: lock-free reads
/// of any slot that was set, growth by whole chunks.
struct Chunked<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
}

/// `(chunk, offset)` of runtime slot `i`.
fn locate(i: usize) -> (usize, usize) {
    let unit = i / FIRST_CHUNK + 1;
    let c = (usize::BITS - 1 - unit.leading_zeros()) as usize;
    (c, i - FIRST_CHUNK * ((1 << c) - 1))
}

impl<T> Chunked<T> {
    fn new() -> Self {
        Chunked {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Set slot `i`; callers hand out each `i` once (under the runtime
    /// lock).
    fn set(&self, i: usize, v: T) {
        let (c, off) = locate(i);
        let chunk =
            self.chunks[c].get_or_init(|| (0..FIRST_CHUNK << c).map(|_| OnceLock::new()).collect());
        assert!(
            chunk[off].set(v).is_ok(),
            "runtime payload slot {i} set twice"
        );
    }

    fn get(&self, i: usize) -> Option<&T> {
        let (c, off) = locate(i);
        self.chunks.get(c)?.get()?.get(off)?.get()
    }

    /// Empty every slot, keeping the chunks.
    fn clear(&mut self) {
        for chunk in self.chunks.iter_mut().filter_map(OnceLock::get_mut) {
            for slot in chunk.iter_mut() {
                slot.take();
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One step of the content hash (FxHash's multiply-rotate). The index
/// only needs equal payloads to collide; an unequal collision just
/// leaves the later payload out of the index.
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn list_hash(entries: &[IntentEntry]) -> u64 {
    entries.iter().fold(entries.len() as u64, |h, e| {
        mix(mix(h, e.value), e.target as u64)
    })
}

fn cert_hash(cert: &CertData) -> u64 {
    let votes = &cert.votes;
    let h = mix(
        mix(mix(cert.k, cert.color as u64), cert.owner as u64),
        votes.len() as u64,
    );
    let h = votes.voters().iter().fold(h, |h, &v| mix(h, v as u64));
    let h = votes.rounds().iter().fold(h, |h, &r| mix(h, r as u64));
    votes.values().iter().fold(h, |h, &v| mix(h, v))
}

/// The plausibility predicate: `q` entries, every field in range.
/// Branchless fold: honest lists pass every entry, so short-circuiting
/// would never fire, while the accumulator form vectorizes.
fn entries_plausible(params: &Params, list: &[IntentEntry]) -> bool {
    let m = params.m;
    let n = params.n as u32;
    list.len() == params.q
        && list
            .iter()
            .fold(true, |ok, e| ok & (e.value < m) & (e.target < n))
}

/// One network's certificates and intention lists (see the module docs).
pub struct PayloadPool {
    params: Params,
    /// Agent ids with a reserved slot (`0` for a standalone pool).
    reserved: usize,
    /// The reserved list table while the network is built...
    building: Mutex<Option<Drawn>>,
    /// ...and after its first read.
    drawn: OnceLock<Drawn>,
    /// Verification memo of each reserved list.
    drawn_memo: Vec<AtomicU64>,
    /// Each agent's own certificate.
    own_certs: Vec<OnceLock<CertData>>,
    runtime: Mutex<Runtime>,
    runtime_lists: Chunked<RuntimeList>,
    runtime_certs: Chunked<CertData>,
}

impl fmt::Debug for PayloadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PayloadPool")
            .field("reserved", &self.reserved)
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// The pool of the network whose cores this thread is constructing.
    static BUILDING: RefCell<Option<Arc<PayloadPool>>> = const { RefCell::new(None) };
}

impl PayloadPool {
    /// An empty pool for runs under `params`, with a reserved slot for
    /// each of the first `reserved` agent ids (a network pool reserves
    /// `params.n`; `0` makes a pool without reserved slots).
    pub fn new(params: Params, reserved: usize) -> Self {
        let mut pool = PayloadPool {
            params,
            reserved: 0,
            building: Mutex::new(Some(Drawn::default())),
            drawn: OnceLock::new(),
            drawn_memo: Vec::new(),
            own_certs: Vec::new(),
            runtime: Mutex::new(Runtime::default()),
            runtime_lists: Chunked::new(),
            runtime_certs: Chunked::new(),
        };
        pool.rearm(params, reserved);
        pool
    }

    /// The pool of a network of `params.n` agents, shared.
    pub fn for_network(params: Params) -> Arc<Self> {
        Arc::new(Self::new(params, params.n))
    }

    /// Empty the pool for a new trial under `params` with `reserved`
    /// reserved slots, keeping every allocation it made.
    pub(crate) fn rearm(&mut self, params: Params, reserved: usize) {
        assert!(
            reserved < u32::MAX as usize,
            "reserved ids exceed the u32 handle space"
        );
        self.params = params;
        self.reserved = reserved;
        let mut drawn = self
            .drawn
            .take()
            .or_else(|| {
                self.building
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
            })
            .unwrap_or_default();
        drawn.q = params.q;
        drawn.blocks.iter_mut().for_each(Vec::clear);
        drawn.state.clear();
        drawn.state.resize(reserved, NOT_DRAWN);
        *self
            .building
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Some(drawn);
        for memo in &mut self.drawn_memo {
            *memo.get_mut() = MEMO_UNSET;
        }
        self.drawn_memo
            .resize_with(reserved, || AtomicU64::new(MEMO_UNSET));
        for cert in &mut self.own_certs {
            cert.take();
        }
        self.own_certs.resize_with(reserved, OnceLock::new);
        let rt = self
            .runtime
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        rt.lists = 0;
        rt.certs = 0;
        rt.list_index.clear();
        rt.cert_index.clear();
        rt.drawn_indexed = false;
        self.runtime_lists.clear();
        self.runtime_certs.clear();
    }

    /// Run `f` with `pool` as the pool every core constructed on this
    /// thread joins (see the module docs). Scopes nest.
    pub fn building<R>(pool: &Arc<PayloadPool>, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<PayloadPool>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                BUILDING.with(|b| *b.borrow_mut() = prev);
            }
        }
        let _restore = Restore(BUILDING.with(|b| b.replace(Some(Arc::clone(pool)))));
        f()
    }

    /// The pool a core constructed now joins: the build in progress on
    /// this thread, else a fresh standalone one.
    pub(crate) fn current(params: Params) -> Arc<PayloadPool> {
        BUILDING
            .with(|b| b.borrow().clone())
            .unwrap_or_else(|| Arc::new(PayloadPool::new(params, 0)))
    }

    // -----------------------------------------------------------------
    // Intention lists
    // -----------------------------------------------------------------

    /// The reserved list table, sealed at its first read: lists drawn
    /// after that go to the runtime region.
    fn drawn(&self) -> &Drawn {
        self.drawn
            .get_or_init(|| lock(&self.building).take().unwrap_or_default())
    }

    /// Draw agent `id`'s `q`-entry list, entry by entry from `entry`,
    /// into its reserved slot — or into the runtime region if the slot
    /// is taken, the table is sealed, or `q` is not the pool's.
    pub(crate) fn draw_list(
        &self,
        id: AgentId,
        q: usize,
        mut entry: impl FnMut() -> IntentEntry,
    ) -> ListId {
        let i = id as usize;
        if let Some(d) = lock(&self.building).as_mut() {
            if i < self.reserved && q == d.q && d.state[i] == NOT_DRAWN {
                if d.blocks.len() <= i / BLOCK {
                    d.blocks.resize_with(i / BLOCK + 1, Vec::new);
                }
                let block = &mut d.blocks[i / BLOCK];
                let at = (i % BLOCK) * q;
                block.reserve((BLOCK * q).saturating_sub(block.len()));
                // Blocks grow by whole lists; a gap (ids drawn out of
                // order) is zero-filled and drawn over later.
                if block.len() <= at {
                    block.resize(at, IntentEntry { value: 0, target: 0 });
                    block.extend((0..q).map(|_| entry()));
                } else {
                    block[at..at + q].iter_mut().for_each(|e| *e = entry());
                }
                let plausible = entries_plausible(&self.params, &block[at..at + q]);
                d.state[i] = if plausible { PLAUSIBLE } else { IMPLAUSIBLE };
                return ListId::new(i);
            }
        }
        self.insert_list((0..q).map(|_| entry()).collect())
    }

    /// The entries of list `id`.
    ///
    /// # Panics
    /// If `id` is not a handle of this pool.
    #[inline]
    pub fn list(&self, id: ListId) -> &[IntentEntry] {
        let i = id.index();
        if i < self.reserved {
            self.drawn().list(i)
        } else {
            &self.runtime_list(i).entries
        }
    }

    fn runtime_list(&self, i: usize) -> &RuntimeList {
        self.runtime_lists
            .get(i - self.reserved)
            .expect("list handle from another pool")
    }

    /// Does list `id` have the committed shape: `q` entries, every field
    /// in range? Decided when the list entered the pool.
    #[inline]
    pub fn plausible(&self, id: ListId) -> bool {
        let i = id.index();
        if i < self.reserved {
            self.drawn().state[i] == PLAUSIBLE
        } else {
            self.runtime_list(i).plausible
        }
    }

    /// How many entries of list `id` target `owner`, through the
    /// per-handle memo (recomputed when a different owner is asked —
    /// verifiers converge on one winner).
    #[inline]
    pub fn votes_for(&self, id: ListId, owner: AgentId) -> u32 {
        let i = id.index();
        let memo = if i < self.reserved {
            &self.drawn_memo[i]
        } else {
            &self.runtime_list(i).memo
        };
        let packed = memo.load(Ordering::Relaxed);
        if packed != MEMO_UNSET && (packed >> 32) as AgentId == owner {
            return packed as u32;
        }
        let count = self.list(id).iter().filter(|e| e.target == owner).count() as u32;
        memo.store((owner as u64) << 32 | count as u64, Ordering::Relaxed);
        count
    }

    /// Add a list the simulator built afresh: always a new handle.
    pub fn insert_list(&self, entries: Vec<IntentEntry>) -> ListId {
        let key = list_hash(&entries);
        let mut rt = lock(&self.runtime);
        self.append_list(&mut rt, key, entries)
    }

    /// Add a decoded list: the handle of an equal list already in the
    /// pool, else a new one.
    pub fn intern_list(&self, entries: Vec<IntentEntry>) -> ListId {
        let key = list_hash(&entries);
        let mut rt = lock(&self.runtime);
        if !rt.drawn_indexed {
            rt.drawn_indexed = true;
            let d = self.drawn();
            for (i, _) in d.state.iter().enumerate().filter(|(_, &s)| s != NOT_DRAWN) {
                rt.list_index
                    .entry(list_hash(d.list(i)))
                    .or_insert(ListId::new(i));
            }
        }
        if let Some(&id) = rt.list_index.get(&key) {
            if self.list(id) == &entries[..] {
                return id;
            }
        }
        self.append_list(&mut rt, key, entries)
    }

    fn append_list(&self, rt: &mut Runtime, key: u64, entries: Vec<IntentEntry>) -> ListId {
        let id = ListId::new(self.reserved + rt.lists as usize);
        self.runtime_lists.set(
            rt.lists as usize,
            RuntimeList {
                plausible: entries_plausible(&self.params, &entries),
                entries: entries.into_boxed_slice(),
                memo: AtomicU64::new(MEMO_UNSET),
            },
        );
        rt.lists += 1;
        // On a hash collision the first payload keeps the index entry;
        // the later one is stored, just not found by `intern_list`.
        rt.list_index.entry(key).or_insert(id);
        id
    }

    /// The commitment reply carrying list `id`.
    #[inline]
    pub fn list_msg(&self, id: ListId) -> Msg {
        let len = if id.index() < self.reserved {
            self.drawn().q
        } else {
            self.list(id).len()
        };
        Msg::Intents {
            list: id,
            len: len as u32,
        }
    }

    // -----------------------------------------------------------------
    // Certificates
    // -----------------------------------------------------------------

    /// The certificate `id`.
    ///
    /// # Panics
    /// If `id` is not a handle of this pool.
    #[inline]
    pub fn cert(&self, id: CertId) -> &CertData {
        let i = id.index();
        let cert = if i < self.reserved {
            self.own_certs[i].get()
        } else {
            self.runtime_certs.get(i - self.reserved)
        };
        cert.expect("certificate handle from another pool")
    }

    /// Store agent `owner`'s own certificate in its reserved slot, or in
    /// the runtime region if it has none or the slot is already set.
    pub(crate) fn own_cert(&self, owner: AgentId, data: CertData) -> CertId {
        let data = match self.own_certs.get(owner as usize) {
            Some(slot) => match slot.set(data) {
                Ok(()) => return CertId::new(owner as usize),
                Err(data) => data,
            },
            None => data,
        };
        self.insert_cert(data)
    }

    /// Add a certificate the simulator built afresh (a forgery, a
    /// poison): always a new handle.
    pub fn insert_cert(&self, data: CertData) -> CertId {
        let key = cert_hash(&data);
        let mut rt = lock(&self.runtime);
        self.append_cert(&mut rt, key, data)
    }

    /// Add a decoded certificate: the handle of an equal certificate
    /// already in the pool (its owner's own, or an interned one), else a
    /// new one.
    pub fn intern_cert(&self, data: CertData) -> CertId {
        let owner = data.owner;
        if let Some(own) = self.own_certs.get(owner as usize).and_then(OnceLock::get) {
            if *own == data {
                return CertId::new(owner as usize);
            }
        }
        let key = cert_hash(&data);
        let mut rt = lock(&self.runtime);
        if let Some(&id) = rt.cert_index.get(&key) {
            if *self.cert(id) == data {
                return id;
            }
        }
        self.append_cert(&mut rt, key, data)
    }

    fn append_cert(&self, rt: &mut Runtime, key: u64, data: CertData) -> CertId {
        let id = CertId::new(self.reserved + rt.certs as usize);
        self.runtime_certs.set(rt.certs as usize, data);
        rt.certs += 1;
        rt.cert_index.entry(key).or_insert(id);
        id
    }

    /// The message carrying certificate `id`.
    #[inline]
    pub fn cert_msg(&self, id: CertId) -> Msg {
        Msg::Cert {
            cert: id,
            votes: self.cert(id).votes.len() as u32,
        }
    }

    // -----------------------------------------------------------------
    // Accounting
    // -----------------------------------------------------------------

    /// Lists stored: drawn reserved lists plus the runtime region's.
    pub fn list_count(&self) -> usize {
        let drawn = self
            .drawn()
            .state
            .iter()
            .filter(|&&s| s != NOT_DRAWN)
            .count();
        drawn + lock(&self.runtime).lists as usize
    }

    /// Certificates stored: set reserved slots plus the runtime region's.
    pub fn cert_count(&self) -> usize {
        let own = self.own_certs.iter().filter(|c| c.get().is_some()).count();
        own + lock(&self.runtime).certs as usize
    }

    /// One past the largest list handle handed out so far.
    pub(crate) fn list_handles(&self) -> usize {
        self.reserved + lock(&self.runtime).lists as usize
    }

    /// One past the largest certificate handle handed out so far.
    pub(crate) fn cert_handles(&self) -> usize {
        self.reserved + lock(&self.runtime).certs as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::VoteRec;

    fn params() -> Params {
        Params::new(16, 1.0)
    }

    fn entries(q: usize, salt: u64) -> Vec<IntentEntry> {
        (0..q as u64)
            .map(|i| IntentEntry {
                value: i * 7 + salt,
                target: (i % 16) as AgentId,
            })
            .collect()
    }

    fn cert(owner: AgentId, k: u64) -> CertData {
        let votes = vec![VoteRec {
            voter: 3,
            round: 0,
            value: k,
        }];
        CertData::build(owner, 1, votes, params().m)
    }

    #[test]
    fn chunks_cover_the_handle_space_without_gaps() {
        let mut next = 0;
        for i in 0..10 * FIRST_CHUNK {
            let (c, off) = locate(i);
            assert!(off < FIRST_CHUNK << c, "slot {i}");
            if off == 0 {
                assert_eq!(i, next, "chunk {c} starts where the last ended");
                next += FIRST_CHUNK << c;
            }
        }
        let (c, off) = locate(u32::MAX as usize);
        assert!(c < CHUNKS && off < FIRST_CHUNK << c);
    }

    #[test]
    fn interning_an_equal_payload_twice_returns_one_handle() {
        let pool = PayloadPool::new(params(), 4);
        let q = params().q;
        let a = pool.intern_list(entries(q, 1));
        let b = pool.intern_list(entries(q, 1));
        assert_eq!(a, b);
        assert_eq!(pool.list_count(), 1);
        let c = pool.intern_cert(cert(9, 5));
        let d = pool.intern_cert(cert(9, 5));
        assert_eq!(c, d);
        assert_eq!(pool.cert_count(), 1);
        // A different payload is a different entry.
        assert_ne!(pool.intern_list(entries(q, 2)), a);
        assert_ne!(pool.intern_cert(cert(9, 6)), c);
        assert_eq!((pool.list_count(), pool.cert_count()), (2, 2));
    }

    #[test]
    fn fresh_payloads_get_fresh_handles_and_interning_finds_them() {
        let pool = PayloadPool::new(params(), 0);
        let q = params().q;
        let a = pool.insert_list(entries(q, 1));
        let b = pool.insert_list(entries(q, 1));
        assert_ne!(a, b);
        assert_eq!(pool.intern_list(entries(q, 1)), a);
        let c = pool.insert_cert(cert(2, 5));
        assert_ne!(pool.insert_cert(cert(2, 5)), c);
        assert_eq!(pool.intern_cert(cert(2, 5)), c);
    }

    #[test]
    fn interning_finds_reserved_payloads() {
        let pool = PayloadPool::new(params(), 4);
        let q = params().q;
        let mut drawn = entries(q, 3).into_iter();
        let list = pool.draw_list(1, q, || drawn.next().unwrap());
        assert_eq!(list.index(), 1);
        assert_eq!(pool.intern_list(entries(q, 3)), list);
        let own = pool.own_cert(2, cert(2, 8));
        assert_eq!(own.index(), 2);
        assert_eq!(pool.intern_cert(cert(2, 8)), own);
        assert_eq!((pool.list_count(), pool.cert_count()), (1, 1));
    }

    #[test]
    fn reserved_slots_fall_back_to_the_runtime_region() {
        let pool = PayloadPool::new(params(), 2);
        let q = params().q;
        let first = pool.own_cert(1, cert(1, 1));
        let second = pool.own_cert(1, cert(1, 2));
        assert_eq!(first.index(), 1);
        assert_ne!(second, first);
        assert_eq!(pool.cert(second).votes.get(0).value, 2);
        let mut e = entries(q, 0).into_iter().cycle();
        let a = pool.draw_list(0, q, || e.next().unwrap());
        let b = pool.draw_list(0, q, || e.next().unwrap());
        assert_eq!(a.index(), 0);
        assert_ne!(b, a, "a slot is drawn once");
        // Reading seals the table: later draws go to the runtime region.
        assert_eq!(pool.list(a), &entries(q, 0)[..]);
        let c = pool.draw_list(1, q, || e.next().unwrap());
        assert_ne!(c.index(), 1);
    }

    #[test]
    fn plausibility_is_decided_on_entry() {
        let pool = PayloadPool::new(params(), 0);
        let q = params().q;
        assert!(pool.plausible(pool.insert_list(entries(q, 0))));
        assert!(!pool.plausible(pool.insert_list(entries(q - 1, 0))));
        let mut bad = entries(q, 0);
        bad[0].target = 16;
        assert!(!pool.plausible(pool.insert_list(bad)));
    }

    #[test]
    fn vote_counts_are_keyed_by_owner() {
        let pool = PayloadPool::new(params(), 0);
        let list = pool.insert_list(vec![
            IntentEntry {
                value: 1,
                target: 2,
            },
            IntentEntry {
                value: 2,
                target: 5,
            },
            IntentEntry {
                value: 3,
                target: 2,
            },
        ]);
        for (owner, want) in [(2, 2), (5, 1), (2, 2), (7, 0), (5, 1)] {
            assert_eq!(pool.votes_for(list, owner), want, "owner {owner}");
        }
    }

    #[test]
    fn rearm_empties_the_pool_in_place() {
        let mut pool = PayloadPool::new(params(), 4);
        let q = params().q;
        let mut e = entries(q, 0).into_iter().cycle();
        pool.draw_list(0, q, || e.next().unwrap());
        pool.own_cert(0, cert(0, 1));
        pool.insert_cert(cert(3, 3));
        pool.rearm(params(), 4);
        assert_eq!(pool.draw_list(0, q, || e.next().unwrap()).index(), 0);
        assert_eq!(pool.own_cert(0, cert(0, 1)).index(), 0);
        assert_eq!((pool.list_count(), pool.cert_count()), (1, 1));
        pool.rearm(params(), 4);
        assert_eq!((pool.list_count(), pool.cert_count()), (0, 0));
    }

    #[test]
    fn reserved_lists_may_be_drawn_out_of_order() {
        let pool = PayloadPool::new(params(), 4);
        let q = params().q;
        let (mut late, mut early) = (entries(q, 5).into_iter(), entries(q, 9).into_iter());
        let three = pool.draw_list(3, q, || late.next().unwrap());
        let one = pool.draw_list(1, q, || early.next().unwrap());
        assert_eq!((three.index(), one.index()), (3, 1));
        assert_eq!(pool.list(three), &entries(q, 5)[..]);
        assert_eq!(pool.list(one), &entries(q, 9)[..]);
        assert!(pool.plausible(one) && pool.plausible(three));
    }

    #[test]
    fn building_scopes_nest_and_restore() {
        let outer = PayloadPool::for_network(params());
        let inner = PayloadPool::for_network(params());
        PayloadPool::building(&outer, || {
            assert!(Arc::ptr_eq(&PayloadPool::current(params()), &outer));
            PayloadPool::building(&inner, || {
                assert!(Arc::ptr_eq(&PayloadPool::current(params()), &inner));
            });
            assert!(Arc::ptr_eq(&PayloadPool::current(params()), &outer));
        });
        let lone = PayloadPool::current(params());
        assert!(!Arc::ptr_eq(&lone, &outer) && !Arc::ptr_eq(&lone, &inner));
    }
}
