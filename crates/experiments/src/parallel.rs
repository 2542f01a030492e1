//! Embarrassingly-parallel Monte-Carlo trial execution.
//!
//! Every experiment reduces to "run `f(seed)` for `trials` independent
//! seeds and aggregate". Two execution styles are offered:
//!
//! * **Buffered** ([`run_trials`] / [`par_map`]): workers claim indices
//!   from a shared atomic counter and write results into pre-allocated
//!   slots; the caller gets a `Vec` in trial order. Memory is O(trials) —
//!   fine for sweeps of hundreds of points, wrong for million-trial runs.
//! * **Streaming** ([`run_trials_fold`] / [`par_fold`]): trials are
//!   folded into accumulators block by block and the block partials are
//!   merged *in block order* as they complete. Peak result-buffer memory
//!   is O(threads) (bounded out-of-order window, no per-slot lock, no
//!   `Vec` of length `trials`), which is what opens the million-trial
//!   workload class.
//!
//! The streaming contract is *thread-count invariant bit-for-bit*: the
//! aggregate is defined as `merge(fold(block 0), fold(block 1), …)` over
//! blocks of [`fold_block_size`] consecutive trials (a pure function of
//! the trial count, at most [`FOLD_BLOCK`]), folded in trial order
//! within each block and merged left-to-right in block order. That
//! definition never mentions threads, and both the serial and the
//! parallel paths compute exactly it — so floating-point accumulators
//! (sums, Welford states) come out bit-identical for any `threads`, not
//! merely "close".
//!
//! Trial `i` always receives `derive_seed(master_seed, i)`, making every
//! aggregate a pure function of `(experiment, master_seed)` regardless of
//! parallelism — the property that lets the docs quote exact numbers.
//!
//! The `*_with_scratch` variants add **per-worker state**: each worker
//! thread owns one scratch value (typically an `rfc_core::TrialArena`)
//! that survives across all the blocks it processes, so per-trial setup
//! cost (agent storage, network buffers) is paid once per worker, not
//! once per trial. Scratch state must not influence results — the
//! aggregate stays a pure function of `(experiment, master_seed)`.

use gossip_net::rng::derive_seed;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};

/// Largest trials-per-fold-block. The actual block size is
/// [`fold_block_size`] — a pure function of the trial count (never of
/// the thread count), which is what makes the block-merge contract
/// thread-invariant. It is deliberately a constant, not a tunable:
/// changing it changes floating-point merge order (and thus quoted
/// digits).
pub const FOLD_BLOCK: usize = 32;

/// Block size used for a fold over `count` items: `FOLD_BLOCK`, shrunk
/// for small counts so even a few expensive trials (E14's large-`n`
/// points run tens of trials, not thousands) split into enough blocks to
/// occupy every worker. Depends on `count` only — the aggregate stays a
/// pure function of `(count, fold, merge)` for any thread count.
pub fn fold_block_size(count: usize) -> usize {
    FOLD_BLOCK.min(count.div_ceil(64)).max(1)
}

/// Instrumentation from a streaming fold (see
/// [`run_trials_fold_with_stats`]); used to *verify*, not just assert,
/// the O(threads) memory claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Number of blocks the trial range was split into.
    pub blocks: usize,
    /// Largest number of completed-but-unmerged block partials ever held
    /// at once (bounded by `3·threads` by construction: a claim gate
    /// blocks new claims at `2·threads` pending, plus at most one
    /// in-flight block per worker).
    pub peak_pending: usize,
}

/// Ordered-merge state shared by the fold workers.
struct Merger<A> {
    /// Next block index the in-order merge is waiting for.
    next_to_merge: usize,
    /// Completed blocks that arrived ahead of `next_to_merge`.
    pending: Vec<(usize, A)>,
    /// The left-to-right merge of blocks `0..next_to_merge`.
    result: Option<A>,
    peak_pending: usize,
}

/// Core streaming engine: fold `count` indexed items into block
/// accumulators and merge the blocks in order. `produce(acc, scratch, i)`
/// folds item `i`; blocks are [`fold_block_size`]`(count)` consecutive
/// indices (≤ `FOLD_BLOCK`, a pure function of `count`).
///
/// `scratch_init` builds one **per-worker scratch state** (a simulation
/// arena, a reusable buffer, …): the serial path makes exactly one, the
/// parallel path one per worker thread, created *on* that thread — so
/// the scratch type needs neither `Send` nor `Sync`, and its lifetime
/// spans every block the worker processes. Correctness requirement
/// (pinned by the bit-identity tests): `produce` must give results
/// independent of the scratch's prior state, otherwise the aggregate
/// would depend on which worker processed which block.
fn fold_indexed<S, A, SI, I, P, M>(
    count: usize,
    threads: usize,
    scratch_init: SI,
    init: I,
    produce: P,
    merge: M,
) -> (A, FoldStats)
where
    A: Send,
    SI: Fn() -> S + Sync,
    I: Fn() -> A + Sync,
    P: Fn(&mut A, &mut S, usize) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    fold_indexed_from(count, threads, scratch_init, init, produce, merge, None, &|_, _| {})
}

/// [`fold_indexed`] with a **resume point** and an in-order progress
/// hook — the substrate of harness-level sweep checkpointing.
///
/// `resume = Some((blocks_done, acc))` skips blocks `0..blocks_done` and
/// seeds the in-order merge with `acc`, which **must** be the
/// left-to-right merge of exactly those blocks (the value a prior
/// `on_progress(blocks_done, &acc)` reported). Because the block size is
/// a pure function of `count` and the merge continues *into* the resumed
/// accumulator, the final aggregate is bit-identical to the
/// straight-through fold — float merge order included — for any thread
/// count on either side of the seam.
///
/// `on_progress(blocks_done, &prefix)` fires every time the in-order
/// merged prefix advances (serial: after every block; parallel: after
/// each drain of the ordered-merge window, under the merge lock — keep
/// it cheap or accept claim-gate stalls while it runs). A checkpointing
/// caller snapshots `(blocks_done, prefix)` there; `blocks_done ·`
/// [`fold_block_size`]`(count)` is the number of items folded in.
#[allow(clippy::too_many_arguments)]
fn fold_indexed_from<S, A, SI, I, P, M>(
    count: usize,
    threads: usize,
    scratch_init: SI,
    init: I,
    produce: P,
    merge: M,
    resume: Option<(usize, A)>,
    on_progress: &(dyn Fn(usize, &A) + Sync),
) -> (A, FoldStats)
where
    A: Send,
    SI: Fn() -> S + Sync,
    I: Fn() -> A + Sync,
    P: Fn(&mut A, &mut S, usize) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    let threads = threads.max(1).min(count.max(1));
    let block_size = fold_block_size(count);
    let blocks = count.div_ceil(block_size);
    let (start_block, seed_acc) = match resume {
        Some((b, acc)) => {
            assert!(b <= blocks, "resume point beyond the block count");
            (b, Some(acc))
        }
        None => (0, None),
    };
    let fold_block = |b: usize, scratch: &mut S| {
        let mut acc = init();
        let lo = b * block_size;
        let hi = (lo + block_size).min(count);
        for i in lo..hi {
            produce(&mut acc, scratch, i);
        }
        acc
    };
    if count == 0 {
        return (seed_acc.unwrap_or_else(&init), FoldStats::default());
    }
    if start_block >= blocks {
        return (
            seed_acc.expect("a completed resume point carries its accumulator"),
            FoldStats { blocks, peak_pending: 0 },
        );
    }
    if threads == 1 {
        // Same block structure as the parallel path, so the result is
        // bit-identical for any thread count.
        let mut scratch = scratch_init();
        let mut result = seed_acc;
        for b in start_block..blocks {
            let acc = fold_block(b, &mut scratch);
            match &mut result {
                None => result = Some(acc),
                Some(r) => merge(r, acc),
            }
            on_progress(b + 1, result.as_ref().expect("just seeded"));
        }
        return (
            result.expect("at least one block"),
            FoldStats { blocks, peak_pending: 0 },
        );
    }
    // Out-of-order completions wait in `pending`; a worker may not claim
    // a new block while the window is full, so peak memory is O(threads)
    // accumulators even if one early block is pathologically slow.
    let window = 2 * threads;
    let next = AtomicUsize::new(start_block);
    let merger = StdMutex::new(Merger {
        next_to_merge: start_block,
        pending: Vec::with_capacity(window),
        result: seed_acc,
        peak_pending: 0,
    });
    let not_full = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Worker-local scratch: created on this thread, reused
                // across every block this worker claims.
                let mut scratch = scratch_init();
                loop {
                    {
                        // Claim gate: keep the out-of-order window bounded.
                        let guard = merger.lock().expect("fold merger lock");
                        let _guard = not_full
                            .wait_while(guard, |m| m.pending.len() >= window)
                            .expect("fold merger wait");
                    }
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= blocks {
                        break;
                    }
                    let acc = fold_block(b, &mut scratch);
                    let mut m = merger.lock().expect("fold merger lock");
                    m.pending.push((b, acc));
                    m.peak_pending = m.peak_pending.max(m.pending.len());
                    // Drain everything now mergeable, in block order.
                    let before = m.next_to_merge;
                    while let Some(pos) =
                        m.pending.iter().position(|(i, _)| *i == m.next_to_merge)
                    {
                        let (_, acc) = m.pending.swap_remove(pos);
                        match &mut m.result {
                            None => m.result = Some(acc),
                            Some(r) => merge(r, acc),
                        }
                        m.next_to_merge += 1;
                    }
                    if m.next_to_merge > before {
                        let done = m.next_to_merge;
                        on_progress(done, m.result.as_ref().expect("prefix nonempty"));
                    }
                    drop(m);
                    not_full.notify_all();
                }
            });
        }
    });
    let m = merger.into_inner().expect("fold merger poisoned");
    let stats = FoldStats {
        blocks,
        peak_pending: m.peak_pending,
    };
    (m.result.expect("at least one block"), stats)
}

/// Streaming fold over `trials` independent trials: `fold(acc, i, seed)`
/// folds trial `i` (with its derived per-trial seed) into the
/// accumulator, and `merge` combines two accumulators.
///
/// The result is bit-identical for every `threads` value (see the module
/// docs for the block-merge contract) and peak result-buffer memory is
/// O(threads) accumulators — there is no `Vec` of length `trials`
/// anywhere on this path.
pub fn run_trials_fold<A, I, F, M>(
    trials: usize,
    threads: usize,
    master_seed: u64,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, u64) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    run_trials_fold_with_stats(trials, threads, master_seed, init, fold, merge).0
}

/// [`run_trials_fold`] with **per-worker scratch state**: `scratch_init`
/// builds one `S` per worker (serial: one total), and the fold closure
/// receives `&mut S` alongside the accumulator. This is how the
/// simulation arenas ride the harness: pass
/// `rfc_core::TrialArena::new` as `scratch_init` and run each trial
/// through the arena — agent storage, scratch buffers, metrics and
/// op-log are then recycled across every trial a worker executes.
///
/// The block-merge contract is unchanged: results are bit-identical for
/// any thread count provided each trial's result does not depend on the
/// scratch's prior state (true for arenas by construction — pinned by
/// the `arena_reuse_equals_fresh_networks` and thread-invariance tests).
pub fn run_trials_fold_with_scratch<S, A, SI, I, F, M>(
    trials: usize,
    threads: usize,
    master_seed: u64,
    scratch_init: SI,
    init: I,
    fold: F,
    merge: M,
) -> (A, FoldStats)
where
    A: Send,
    SI: Fn() -> S + Sync,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, &mut S, usize, u64) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    fold_indexed(
        trials,
        threads,
        scratch_init,
        init,
        |acc, scratch, i| fold(acc, scratch, i, derive_seed(master_seed, i as u64)),
        merge,
    )
}

/// A resumable sweep position: the left-to-right merge of the first
/// `blocks_done` fold blocks. `blocks_done · `[`fold_block_size`]`(trials)`
/// is the index of the first trial **not** folded into `acc` (clamped to
/// `trials` on the last block).
///
/// Produced by the progress hook of [`run_trials_fold_resumable`] and fed
/// back as its `resume` argument; because the merge continues *into*
/// `acc` in block order, the resumed sweep's final accumulator is
/// bit-identical to a straight-through run — float merge order included —
/// regardless of the thread counts used on either side of the seam.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldCheckpoint<A> {
    /// Number of leading blocks already merged into `acc`.
    pub blocks_done: usize,
    /// The in-order merged prefix accumulator.
    pub acc: A,
}

/// [`run_trials_fold_with_scratch`] with **mid-sweep checkpointing**:
/// resume from a prior [`FoldCheckpoint`] and observe every in-order
/// prefix advance through `on_progress(blocks_done, &prefix)`.
///
/// A checkpointing caller clones `(blocks_done, prefix)` inside
/// `on_progress` (it runs under the merge lock on the parallel path —
/// keep it cheap) and persists it however it likes; feeding the snapshot
/// back as `resume` skips the already-folded trials and reproduces the
/// straight-through result bit for bit. `trials` and `master_seed` must
/// match between the two runs — block boundaries are a pure function of
/// `trials`, and per-trial seeds derive from `master_seed`.
#[allow(clippy::too_many_arguments)]
pub fn run_trials_fold_resumable<S, A, SI, I, F, M>(
    trials: usize,
    threads: usize,
    master_seed: u64,
    scratch_init: SI,
    init: I,
    fold: F,
    merge: M,
    resume: Option<FoldCheckpoint<A>>,
    on_progress: &(dyn Fn(usize, &A) + Sync),
) -> (A, FoldStats)
where
    A: Send,
    SI: Fn() -> S + Sync,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, &mut S, usize, u64) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    fold_indexed_from(
        trials,
        threads,
        scratch_init,
        init,
        |acc, scratch, i| fold(acc, scratch, i, derive_seed(master_seed, i as u64)),
        merge,
        resume.map(|c| (c.blocks_done, c.acc)),
        on_progress,
    )
}

/// [`run_trials_fold`] plus [`FoldStats`] instrumentation (used by tests
/// to demonstrate the O(threads) memory behavior).
pub fn run_trials_fold_with_stats<A, I, F, M>(
    trials: usize,
    threads: usize,
    master_seed: u64,
    init: I,
    fold: F,
    merge: M,
) -> (A, FoldStats)
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, u64) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    fold_indexed(
        trials,
        threads,
        || (),
        init,
        |acc, _scratch, i| fold(acc, i, derive_seed(master_seed, i as u64)),
        merge,
    )
}

/// Fold-variant of [`par_map`]: streams `fold(acc, i, &inputs[i])` over
/// an explicit input list with the same block-merge contract (and the
/// same O(threads) memory bound) as [`run_trials_fold`].
pub fn par_fold<T, A, I, F, M>(
    inputs: &[T],
    threads: usize,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, &T) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    fold_indexed(
        inputs.len(),
        threads,
        || (),
        init,
        |acc, _scratch, i| fold(acc, i, &inputs[i]),
        merge,
    )
    .0
}

/// [`par_fold`] with per-worker scratch state (see
/// [`run_trials_fold_with_scratch`] for the contract).
pub fn par_fold_with_scratch<T, S, A, SI, I, F, M>(
    inputs: &[T],
    threads: usize,
    scratch_init: SI,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    SI: Fn() -> S + Sync,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, &mut S, usize, &T) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    fold_indexed(
        inputs.len(),
        threads,
        scratch_init,
        init,
        |acc, scratch, i| fold(acc, scratch, i, &inputs[i]),
        merge,
    )
    .0
}

/// Number of worker threads to use: the available parallelism, capped by
/// the trial count (spawning more workers than trials is pure overhead).
pub fn default_threads(trials: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(trials.max(1))
}

/// Run `trials` independent trials of `f` in parallel; `f` receives the
/// per-trial seed. Results are returned in trial order.
pub fn run_trials<T, F>(trials: usize, threads: usize, master_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = threads.max(1).min(trials.max(1));
    if threads == 1 {
        return (0..trials)
            .map(|i| f(derive_seed(master_seed, i as u64)))
            .collect();
    }
    let mut slots: Vec<Mutex<Option<T>>> = Vec::with_capacity(trials);
    slots.resize_with(trials, || Mutex::new(None));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let result = f(derive_seed(master_seed, i as u64));
                *slots[i].lock() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot filled"))
        .collect()
}

/// Parallel map over an explicit input list (used for parameter sweeps
/// where each point is itself expensive); preserves input order.
pub fn par_map<I, T, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send + Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = inputs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return inputs.iter().map(&f).collect();
    }
    let mut slots: Vec<Mutex<Option<T>>> = Vec::with_capacity(n);
    slots.resize_with(n, || Mutex::new(None));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(&inputs[i]);
                *slots[i].lock() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(100, 4, 7, |seed| seed);
        let expected: Vec<u64> = (0..100).map(|i| derive_seed(7, i)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = run_trials(50, 1, 3, |s| s.wrapping_mul(3));
        let parallel = run_trials(50, 8, 3, |s| s.wrapping_mul(3));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = run_trials(0, 4, 1, |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_preserves_order() {
        let inputs: Vec<u32> = (0..37).collect();
        let out = par_map(inputs.clone(), 5, |&x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn default_threads_is_capped_by_trials() {
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(1000) >= 1);
    }

    #[test]
    fn fold_is_bit_identical_across_thread_counts() {
        // A float accumulator whose value depends on merge order: the
        // block contract must make 1, 2, and 8 workers agree bit-for-bit.
        let fold = |acc: &mut (f64, u64), _i: usize, seed: u64| {
            acc.0 += (seed % 1000) as f64 * 0.001 + acc.0 * 1e-9;
            acc.1 += 1;
        };
        let merge = |a: &mut (f64, u64), b: (f64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        let run = |threads| {
            run_trials_fold(1000, threads, 99, || (0.0f64, 0u64), fold, merge)
        };
        let one = run(1);
        for threads in [2, 8] {
            let t = run(threads);
            assert_eq!(one.0.to_bits(), t.0.to_bits(), "threads={threads}");
            assert_eq!(one.1, t.1);
        }
        assert_eq!(one.1, 1000);
    }

    #[test]
    fn resumable_fold_is_bit_identical_at_every_checkpoint() {
        use std::sync::Mutex;
        // Float accumulator so merge order matters: capture every
        // in-order prefix a straight run reports, then resume from each
        // one and demand bit-identity with the straight-through result —
        // including across thread counts on either side of the seam.
        let fold = |acc: &mut (f64, u64), _s: &mut (), i: usize, seed: u64| {
            acc.0 += (seed % 1000) as f64 * 0.001 + acc.0 * 1e-9 + i as f64 * 1e-6;
            acc.1 += 1;
        };
        let merge = |a: &mut (f64, u64), b: (f64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        let trials = 777;
        let snaps: Mutex<Vec<FoldCheckpoint<(f64, u64)>>> = Mutex::new(Vec::new());
        let (straight, stats) = run_trials_fold_resumable(
            trials,
            1,
            42,
            || (),
            || (0.0f64, 0u64),
            fold,
            merge,
            None,
            &|done, acc| {
                snaps.lock().unwrap().push(FoldCheckpoint {
                    blocks_done: done,
                    acc: *acc,
                })
            },
        );
        let snaps = snaps.into_inner().unwrap();
        assert_eq!(snaps.len(), stats.blocks, "serial path reports every block");
        assert_eq!(snaps.last().unwrap().acc.1, trials as u64);
        for snap in snaps {
            for threads in [1, 4] {
                let (resumed, _) = run_trials_fold_resumable(
                    trials,
                    threads,
                    42,
                    || (),
                    || (0.0f64, 0u64),
                    fold,
                    merge,
                    Some(snap.clone()),
                    &|_, _| {},
                );
                assert_eq!(
                    straight.0.to_bits(),
                    resumed.0.to_bits(),
                    "resume at block {} threads {threads}",
                    snap.blocks_done
                );
                assert_eq!(straight.1, resumed.1);
            }
        }
        // A parallel straight run reports monotonically increasing
        // prefixes and lands on the same result.
        let last = Mutex::new(0usize);
        let (par, _) = run_trials_fold_resumable(
            trials,
            4,
            42,
            || (),
            || (0.0f64, 0u64),
            fold,
            merge,
            None,
            &|done, _| {
                let mut l = last.lock().unwrap();
                assert!(done > *l, "prefix advances in order");
                *l = done;
            },
        );
        assert_eq!(*last.lock().unwrap(), stats.blocks);
        assert_eq!(straight.0.to_bits(), par.0.to_bits());
    }

    #[test]
    fn fold_matches_buffered_aggregate() {
        // Exact (integer) accumulators must agree with the buffered path.
        let buffered: u64 = run_trials(500, 4, 7, |s| s % 17).iter().sum();
        let folded = run_trials_fold(
            500,
            4,
            7,
            || 0u64,
            |acc, _i, seed| *acc += seed % 17,
            |a, b| *a += b,
        );
        assert_eq!(buffered, folded);
    }

    #[test]
    fn fold_peak_pending_is_o_threads_not_o_trials() {
        let trials = 10_000;
        let threads = 8;
        let (count, stats) = run_trials_fold_with_stats(
            trials,
            threads,
            3,
            || 0u64,
            |acc, _i, _seed| *acc += 1,
            |a, b| *a += b,
        );
        assert_eq!(count, trials as u64);
        assert_eq!(stats.blocks, trials.div_ceil(fold_block_size(trials)));
        assert!(
            stats.peak_pending <= 3 * threads,
            "peak pending {} exceeds 3·threads",
            stats.peak_pending
        );
        assert!(stats.peak_pending < stats.blocks / 4, "window must not scale with trials");
    }

    #[test]
    fn small_trial_counts_still_split_into_many_blocks() {
        // A 25-trial fold (E14's n = 10⁵ point) must not collapse into
        // one serial block — every worker should get work.
        assert_eq!(fold_block_size(25), 1);
        assert_eq!(fold_block_size(640), 10);
        assert_eq!(fold_block_size(10_000), FOLD_BLOCK);
        assert_eq!(fold_block_size(0), 1);
        let (sum, stats) = run_trials_fold_with_stats(
            25,
            8,
            1,
            || 0u64,
            |acc, i, _| *acc += i as u64,
            |a, b| *a += b,
        );
        assert_eq!(sum, (0..25).sum::<u64>());
        assert_eq!(stats.blocks, 25);
    }

    #[test]
    fn fold_zero_trials_returns_init() {
        let out = run_trials_fold(0, 4, 1, || 41u32, |acc, _, _| *acc += 1, |a, b| *a += b);
        assert_eq!(out, 41);
    }

    #[test]
    fn fold_seeds_match_run_trials_seeds() {
        // Trial i must see derive_seed(master, i), exactly like run_trials.
        let seeds = run_trials(100, 1, 5, |s| s);
        let folded: Vec<u64> = run_trials_fold(
            100,
            1,
            5,
            Vec::new,
            |acc: &mut Vec<u64>, _i, seed| acc.push(seed),
            |a, mut b| a.append(&mut b),
        );
        assert_eq!(seeds, folded);
    }

    #[test]
    fn par_fold_streams_inputs_in_order() {
        let inputs: Vec<u32> = (0..301).collect();
        let folded: Vec<u32> = par_fold(
            &inputs,
            5,
            Vec::new,
            |acc: &mut Vec<u32>, _i, &x| acc.push(x * 2),
            |a, mut b| a.append(&mut b),
        );
        assert_eq!(folded, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_fold_is_bit_identical_and_reuses_worker_state() {
        // Scratch state must not change results: a fold that counts via
        // an arena-like scratch (here: a Vec used as a reusable buffer)
        // agrees with the plain fold for every thread count.
        let plain = run_trials_fold(
            777,
            4,
            21,
            || 0u64,
            |acc, _i, seed| *acc = acc.wrapping_add(seed % 97),
            |a, b| *a = a.wrapping_add(b),
        );
        for threads in [1usize, 3, 8] {
            let (scratched, _) = run_trials_fold_with_scratch(
                777,
                threads,
                21,
                Vec::<u64>::new,
                || 0u64,
                |acc, scratch: &mut Vec<u64>, _i, seed| {
                    // Reuse the scratch buffer across trials (its prior
                    // content must be irrelevant).
                    scratch.clear();
                    scratch.push(seed % 97);
                    *acc = acc.wrapping_add(scratch[0]);
                },
                |a, b| *a = a.wrapping_add(b),
            );
            assert_eq!(plain, scratched, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_per_worker_not_per_trial() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let created = AtomicUsize::new(0);
        let threads = 4;
        let trials = 2000;
        let _ = run_trials_fold_with_scratch(
            trials,
            threads,
            3,
            || {
                created.fetch_add(1, Ordering::Relaxed);
            },
            || 0u64,
            |acc, _s, _i, _seed| *acc += 1,
            |a, b| *a += b,
        );
        let made = created.load(Ordering::Relaxed);
        assert!(
            made <= threads,
            "scratch must be created once per worker, not per trial/block (made {made})"
        );
        assert!(made >= 1);
    }

    #[test]
    fn arena_scratch_trials_match_fresh_runs() {
        // The real thing: protocol trials through per-worker TrialArenas
        // must aggregate exactly like fresh-network trials.
        let cfg = rfc_core::RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build();
        let fresh = run_trials_fold(
            24,
            4,
            9,
            || (0u64, 0u64),
            |acc, _i, seed| {
                let r = rfc_core::run_protocol(&cfg, seed);
                acc.0 += r.outcome.is_consensus() as u64;
                acc.1 += r.metrics.bits_sent;
            },
            |a, b| {
                a.0 += b.0;
                a.1 += b.1;
            },
        );
        let (arena_agg, _) = run_trials_fold_with_scratch(
            24,
            4,
            9,
            rfc_core::TrialArena::new,
            || (0u64, 0u64),
            |acc, arena, _i, seed| {
                let r = arena.run_protocol(&cfg, seed);
                acc.0 += r.outcome.is_consensus() as u64;
                acc.1 += r.metrics.bits_sent;
            },
            |a, b| {
                a.0 += b.0;
                a.1 += b.1;
            },
        );
        assert_eq!(fresh, arena_agg);
    }

    #[test]
    fn heavy_closure_parallelism_smoke() {
        // Use actual protocol runs to confirm Send/Sync composition works.
        // (n = 16 has a ~3% per-run chance of a k-collision — a legitimate
        // w.h.p. failure — so require most, not all, runs to succeed.)
        let cfg = rfc_core::RunConfig::builder(16).gamma(2.0).build();
        let outcomes = run_trials(8, 4, 11, |seed| {
            rfc_core::run_protocol(&cfg, seed).outcome.is_consensus()
        });
        assert!(outcomes.iter().filter(|&&b| b).count() >= 6);
    }
}
