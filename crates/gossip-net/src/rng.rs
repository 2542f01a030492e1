//! Deterministic randomness: seed derivation and per-agent RNG streams.
//!
//! Reproducibility discipline: a run is identified by a single `u64` master
//! seed. Every independent consumer of randomness (each agent, each
//! Monte-Carlo trial, the fault planner, the async scheduler, …) receives
//! its own *stream* derived as `derive_seed(master, stream_index)`. Streams
//! are decorrelated by running the (master, index) pair through two rounds
//! of the SplitMix64 finalizer, the standard generator used to seed
//! xoshiro-family PRNGs.
//!
//! [`DetRng`] wraps `rand::rngs::SmallRng` (xoshiro256++ on 64-bit
//! platforms): non-cryptographic, extremely fast, and entirely sufficient —
//! the protocol's adversary is a *rational deviator*, not a seed-predicting
//! cryptanalyst, matching the paper's model where honest coin flips are
//! private but not cryptographically hidden.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// One step of the SplitMix64 sequence: advances `*state` and returns the
/// next output. This is the reference finalizer from Steele, Lea &
/// Flood (2014), used pervasively to expand small seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for stream `stream` of master seed `master`.
///
/// Distinct `(master, stream)` pairs map to distinct, decorrelated seeds;
/// the same pair always maps to the same seed.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut s = master ^ stream.rotate_left(32);
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(17)
}

/// How the engine's loss process consumes randomness (see
/// [`crate::network::staged`] for the full discipline contract).
///
/// * [`RngDiscipline::Sequential`] — the historical discipline: one loss
///   stream for the whole run, drawn message by message in the engine's
///   sequential delivery order (dynamic runs re-derive it per round, see
///   [`crate::dynamics`]). This is the default; every pre-PR-5 digest —
///   including the static golden corpus — is a `Sequential` run.
/// * [`RngDiscipline::PerAgent`] — the sharded discipline: every loss
///   draw comes from a stream keyed on `(loss_seed, round, agent)` (the
///   *receiving* agent), so the draws of one agent's inbox are
///   independent of every other agent's traffic and of the thread count.
///   This is what lets the staged engine run plan and apply in parallel
///   over agent shards while staying bit-identical for any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RngDiscipline {
    /// One sequential loss stream, drawn in delivery order (legacy).
    #[default]
    Sequential,
    /// Per-`(seed, round, agent)` loss streams (sharded engine).
    PerAgent,
}

/// Stream families of the [`RngDiscipline::PerAgent`] discipline: the
/// loss draws for the messages agent `v` *receives* in round `r` come
/// from `DetRng::seeded(derive_seed(loss_seed, FAMILY + r), v)`. Three
/// disjoint families keep query, push, and reply legs independent, so
/// each per-agent stream is opened exactly once per round. Every wire
/// message draws once, so a multi-instance batch is lost or delivered
/// whole.
pub mod loss_streams {
    use super::{derive_seed, DetRng};
    use crate::ids::AgentId;

    /// Family tag for pull-query deliveries (keyed on the pullee).
    pub const QUERY: u64 = 0x51AE_0000_0000_0000;
    /// Family tag for push deliveries (keyed on the receiver).
    pub const PUSH: u64 = 0x52AE_0000_0000_0000;
    /// Family tag for pull-reply deliveries (keyed on the puller).
    pub const REPLY: u64 = 0x53AE_0000_0000_0000;

    /// The per-agent loss stream for `(family, round, agent)`.
    #[inline]
    pub fn per_agent(loss_seed: u64, family: u64, round: usize, agent: AgentId) -> DetRng {
        DetRng::seeded(derive_seed(loss_seed, family + round as u64), agent as u64)
    }
}

/// A deterministic, seedable RNG for simulator components.
///
/// Thin wrapper over `SmallRng` so downstream crates depend on one concrete
/// type (keeping trait objects object-safe and avoiding generic infection
/// of every agent type).
///
/// ## Bounded-draw fast path
///
/// [`DetRng::below`]/[`DetRng::index`] are the simulator's hottest calls
/// (every peer sample and vote draw). The generic `gen_range` pays two
/// 64-bit divisions per draw (`zone` setup and the final `v % range`);
/// agents, however, draw from the *same* bound over and over (`n`, `m`).
/// `DetRng` therefore caches, per bound, the rejection `zone` and a
/// 128-bit reciprocal of the bound, replacing both divisions with
/// multiplies. The algorithm (modulo rejection over xoshiro256++ output)
/// and every returned value are **bit-identical** to the generic path —
/// pinned by the `bounded_draws_match_generic_gen_range` test.
#[derive(Debug, Clone)]
pub struct DetRng {
    rng: SmallRng,
    /// Two per-bound constant slots (bound, zone, reciprocal). Two, not
    /// one: the hottest loop — intention drawing — alternates between
    /// the vote-space bound `m` and the peer bound `n` every entry, and
    /// a single-slot cache would recompute the (slow, u128-division)
    /// constants on every draw.
    cache: [BoundCache; 2],
    /// Which cache slot was used last (the other one is the eviction
    /// victim).
    last_slot: u8,
}

/// Precomputed sampling constants for one bound.
#[derive(Debug, Clone, Copy, Default)]
struct BoundCache {
    /// The bound (0 = slot empty).
    range: u64,
    /// Rejection threshold (inclusive).
    zone: u64,
    /// `floor((2^128 - 1) / range)`: reciprocal for division-free `v % range`.
    recip: u128,
}

/// Exact `v / d` via the precomputed reciprocal `recip = floor((2^128-1)/d)`:
/// the high-128 product underestimates the true quotient by at most one,
/// fixed up with a single compare. No division instructions anywhere.
#[inline]
fn fast_div(v: u64, d: u64, recip: u128) -> u64 {
    // (recip * v) >> 128, computed in 64-bit halves to avoid overflow.
    let lo = (recip as u64 as u128) * (v as u128);
    let mid = (recip >> 64) * (v as u128) + (lo >> 64);
    let mut q = (mid >> 64) as u64;
    // q ∈ {true_q - 1, true_q}: one fixup step suffices.
    if v.wrapping_sub(q.wrapping_mul(d)) >= d {
        q += 1;
    }
    q
}

impl DetRng {
    /// RNG for stream `stream` of `master` (see [`derive_seed`]).
    pub fn seeded(master: u64, stream: u64) -> Self {
        Self::wrap(SmallRng::seed_from_u64(derive_seed(master, stream)))
    }

    fn wrap(rng: SmallRng) -> Self {
        DetRng {
            rng,
            cache: [BoundCache::default(); 2],
            last_slot: 0,
        }
    }

    /// The raw xoshiro256++ state words (checkpoint support). The
    /// per-bound cache slots are *not* part of the state: each slot's
    /// constants are a pure function of its bound, so a restored
    /// generator recomputes identical constants on first use and every
    /// subsequent draw is bit-identical.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuild a generator from state captured by [`DetRng::state`].
    /// Panics on the all-zero state (invalid for xoshiro256++ and never
    /// produced by any seeding path).
    pub fn from_state(state: [u64; 4]) -> Self {
        Self::wrap(SmallRng::from_state(state))
    }

    /// Fetch (or compute into the least-recently-used slot) the sampling
    /// constants for `range`.
    #[inline]
    fn bound_cache(&mut self, range: u64) -> BoundCache {
        if self.cache[0].range == range {
            self.last_slot = 0;
            return self.cache[0];
        }
        if self.cache[1].range == range {
            self.last_slot = 1;
            return self.cache[1];
        }
        // Same zone the generic rejection sampler derives:
        // zone = MAX - ((MAX - range + 1) % range).
        let ints_to_reject = (u64::MAX - range + 1) % range;
        let fresh = BoundCache {
            range,
            zone: u64::MAX - ints_to_reject,
            recip: u128::MAX / range as u128,
        };
        let victim = 1 - self.last_slot as usize;
        self.cache[victim] = fresh;
        self.last_slot = victim as u8;
        fresh
    }

    /// Uniform draw from `0..bound` (`bound > 0`). Bit-identical to
    /// `gen_range(0..bound)` on the same generator state.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        let cache = self.bound_cache(bound);
        // Classic modulo rejection, divisions strength-reduced away.
        loop {
            let v = self.rng.next_u64();
            if v <= cache.zone {
                return v - fast_div(v, bound, cache.recip) * bound;
            }
        }
    }

    /// Uniform draw from `0..n` as a `usize` index.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "index(0) is meaningless");
        self.below(n as u64) as usize
    }

    /// Uniform `u64` over the full range.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

// Allow `DetRng` wherever a `rand` RNG is expected (distributions etc.).
impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let master = 0xDEAD_BEEF;
        let mut seen = std::collections::HashSet::new();
        for stream in 0..10_000u64 {
            assert!(
                seen.insert(derive_seed(master, stream)),
                "collision at stream {stream}"
            );
        }
    }

    #[test]
    fn derive_seed_separates_masters() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..10_000u64 {
            assert!(seen.insert(derive_seed(master, 7)));
        }
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 reference implementation
        // seeded with 0: first output.
        let mut s = 0u64;
        let first = splitmix64(&mut s);
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn det_rng_reproducible() {
        let mut a = DetRng::seeded(99, 3);
        let mut b = DetRng::seeded(99, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn det_rng_streams_differ() {
        let mut a = DetRng::seeded(99, 3);
        let mut b = DetRng::seeded(99, 4);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams look correlated: {same}/64 equal draws");
    }

    #[test]
    fn bounded_draws_match_generic_gen_range() {
        // The cached fast path must replay gen_range's exact outputs:
        // same generator state, same rejection pattern, same values —
        // for small, large, power-of-two and near-MAX bounds, including
        // bound switches that thrash the one-entry cache.
        let bounds: Vec<u64> = vec![
            1, 2, 3, 7, 8, 256, 1000, 1 << 20, (1 << 40) + 7,
            u64::MAX / 2, u64::MAX - 1, u64::MAX,
        ];
        let mut fast = DetRng::seeded(42, 9);
        let mut slow = SmallRng::seed_from_u64(derive_seed(42, 9));
        for round in 0..2000u64 {
            let bound = bounds[(round % bounds.len() as u64) as usize];
            assert_eq!(
                fast.below(bound),
                slow.gen_range(0..bound),
                "diverged at round {round} bound {bound}"
            );
        }
        // usize index path too.
        let mut fast = DetRng::seeded(7, 1);
        let mut slow = SmallRng::seed_from_u64(derive_seed(7, 1));
        for _ in 0..500 {
            assert_eq!(fast.index(321), slow.gen_range(0..321usize));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seeded(1, 1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DetRng::seeded(5, 0);
        let mut counts = [0usize; 8];
        let trials = 80_000;
        for _ in 0..trials {
            counts[r.below(8) as usize] += 1;
        }
        let expect = trials / 8;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.05, "value {v} count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn unit_in_range_and_chance_extremes() {
        let mut r = DetRng::seeded(2, 2);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seeded(3, 3);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_actually_permutes() {
        let mut r = DetRng::seeded(4, 4);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }
}
