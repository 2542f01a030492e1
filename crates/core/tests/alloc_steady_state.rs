//! Steady-state allocation discipline of the SoA agent plane.
//!
//! The struct-of-arrays layout (bitset flags, flat vote lanes, arena-owned
//! scratch) exists so that the hot loop *reuses* memory: after a phase's
//! buffers reach their high-water mark, further rounds of that phase must
//! not touch the allocator at all. This test installs a counting global
//! allocator and proves it — for the monolithic engine and for the staged
//! engine — by warming each communicating phase for a few rounds and then
//! asserting that the remaining rounds of the phase perform **zero**
//! allocations (and zero reallocations).
//!
//! One carve-out: the Voting phase *accumulates* received votes, and an
//! agent's receipt count is Poisson(q)-distributed — the `q + 8` lanes
//! reserved at construction cover the bulk but not every tail agent
//! (reserving a tail-safe bound would cost ~1 KB/agent at 10⁷ scale for
//! memory that is almost never touched). When the tail is crossed the
//! lanes grow geometrically: a handful of *growth events* (3 lane
//! allocations each) per trial, never per round. The Voting assertion
//! is therefore a small constant event bound instead of exact zero.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is a per-binary choice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use gossip_net::network::Network;
use rfc_core::runner::{build_network_slots, drive_phases, honest_slot_factory, RunConfig};
use rfc_core::RngDiscipline;

/// `System`, plus a relaxed counter of every allocating entry point.
///
/// Counting is *armed*, not always-on: the libtest harness's main
/// thread lazily allocates an mpmc waiter context the first time it
/// blocks waiting for a test thread — whether that lands inside a
/// measured window is a scheduling race (the same one
/// `gossip-net/tests/zero_alloc_step.rs` hit). The exact-zero tests
/// run the engine inline on the measuring thread, so they arm only
/// that thread ([`MEASURING`], `const`-init keeps the TLS access
/// allocation-free). The multi-shard test must also see pool-worker
/// allocations (workers grow the data-plane buffers), so it arms
/// [`ALL_THREADS`] instead — its generous per-round ceiling absorbs
/// the harness's couple of stray allocations.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALL_THREADS: AtomicBool = AtomicBool::new(false);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ALL_THREADS.load(Ordering::Relaxed) || MEASURING.with(|m| m.get()) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Serializes [`measure`] across the harness's test threads: the counter
/// is process-wide, so a window armed for [`ALL_THREADS`] would also
/// count a concurrent test's allocations, and a concurrent test would
/// read them in its own window.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Drive every communicating phase on the phase clock, measuring the
/// allocator inside each phase: rounds `[warmup, q)` must be silent.
/// Returns per-phase `(name, allocs_after_warmup)`. `all_threads` picks
/// the arming mode (see [`CountingAlloc`]). The engine is the one the
/// config's discipline selects, as in every run.
fn measure(cfg: &RunConfig, seed: u64, all_threads: bool) -> Vec<(&'static str, u64)> {
    let _serial = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let schedule = cfg.params().sync_schedule();
    let q = schedule.phase_len;
    let warmup = 4.min(q);
    let arm = |on: bool| {
        if all_threads {
            ALL_THREADS.store(on, Ordering::Relaxed);
        } else {
            MEASURING.with(|m| m.set(on));
        }
    };
    let mut net = build_network_slots(cfg, seed, &mut honest_slot_factory);
    let mut out = Vec::with_capacity(schedule.windows().len());
    let mut before = 0;
    // Between arming and disarming the hook only reads two counters.
    let Ok(()) = drive_phases(&mut net, schedule.windows(), Network::step_staged, |net| {
        let done_in_phase = (net.round() - 1) % q + 1;
        if done_in_phase == warmup {
            before = alloc_calls();
            arm(true);
        }
        if done_in_phase == q {
            arm(false);
            let allocs = alloc_calls() - before;
            out.push((schedule.phase_of(net.round() - 1).name(), allocs));
        }
        Ok::<(), Infallible>(())
    });
    out
}

/// Zero allocations after warm-up, except the Voting carve-out (see the
/// module docs): at most three lane-growth events — 9 allocations —
/// for tail agents whose receipt count outruns the `q + 8` reservation.
/// The bound is a constant per trial; per-round growth (the bug class
/// this suite exists for) would blow past it within a few rounds.
fn assert_steady(engine: &str, phase: &str, allocs: u64) {
    let ceiling = if phase == "voting" { 9 } else { 0 };
    assert!(
        allocs <= ceiling,
        "{engine}: {phase} allocated {allocs}× after warm-up (ceiling {ceiling})"
    );
}

#[test]
fn monolithic_steady_state_rounds_are_zero_alloc() {
    let cfg = RunConfig::builder(64).gamma(3.0).colors(vec![32, 32]).build();
    for (phase, allocs) in measure(&cfg, 7, false) {
        assert_steady("monolithic engine", phase, allocs);
    }
}

#[test]
fn staged_single_shard_steady_state_rounds_are_zero_alloc() {
    // The staged engine's scratch (CSR ledgers, delivery bitsets, pull
    // records, per-shard counters) must also reach a high-water mark and
    // stay there. At one shard every job runs inline on a zero-worker
    // pool — unboxed, no hand-off — so the bound is exactly zero, like
    // the monolithic path.
    let mut cfg = RunConfig::builder(64).gamma(3.0).colors(vec![32, 32]).build();
    cfg.rng_discipline = RngDiscipline::PerAgent;
    for (phase, allocs) in measure(&cfg, 7, false) {
        assert_steady("staged engine (1 shard)", phase, allocs);
    }
}

#[test]
fn staged_multi_shard_steady_state_allocs_are_dispatch_only() {
    // With real shards, the only allowed allocator traffic is the
    // ScopedPool's job dispatch: one `Box<dyn FnOnce>` per job handed
    // to a worker, a *constant per round* that never grows
    // with rounds run or data volume. The agent-plane and ledger
    // buffers themselves must stay at their high-water mark, which is
    // what the generous-but-constant per-round ceiling pins.
    let mut cfg = RunConfig::builder(64).gamma(3.0).colors(vec![32, 32]).build();
    cfg.rng_discipline = RngDiscipline::PerAgent;
    cfg.threads = 4;
    cfg.shard_floor = Some(0);
    let q = cfg.params().q;
    let measured_rounds = (q - 4.min(q)) as u64;
    // ≤ 4 shards × ~6 dispatch points per round × 2 allocations each.
    let per_round_ceiling = 48;
    for (phase, allocs) in measure(&cfg, 7, true) {
        assert!(
            allocs <= measured_rounds * per_round_ceiling,
            "staged engine (4 shards): {phase} allocated {allocs}× over \
             {measured_rounds} rounds — data-plane buffers are growing"
        );
    }
}

#[test]
fn lossy_steady_state_rounds_are_zero_alloc() {
    // Loss draws must come from stream state, not fresh buffers — for
    // the monolithic engine and the staged engine's inline path alike.
    let mut cfg = RunConfig::builder(48)
        .gamma(3.0)
        .colors(vec![24, 24])
        .message_loss(0.2)
        .build();
    for discipline in [RngDiscipline::Sequential, RngDiscipline::PerAgent] {
        cfg.rng_discipline = discipline;
        for (phase, allocs) in measure(&cfg, 11, false) {
            assert_steady(&format!("lossy run ({discipline:?})"), phase, allocs);
        }
    }
}
