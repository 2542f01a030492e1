//! A persistent scoped worker pool for the staged round engine.
//!
//! The staged engine's plan and apply stages shard one round's work
//! across threads. Doing that with `std::thread::scope` costs an OS
//! thread spawn + join per stage per round — the ROADMAP flags exactly
//! this per-round spawning as the suspect for the sharding losses the
//! E16 table shows at small `n`. [`ScopedPool`] keeps the workers alive
//! across rounds (and across trials: [`crate::network::Network`] owns
//! one for the lifetime of its arena) and replaces spawn/join with a
//! hand-off through a per-worker job slot and a counter wait.
//!
//! ## Dispatch
//!
//! A pool of `w` workers runs a scope's jobs on `w + 1` threads: job `k`
//! of a scope goes to worker `k`'s slot for `k < w`, and every later job
//! runs **inline on the calling thread**, inside [`Scope::spawn`]. The
//! staged engine spawns one job per shard, so at `s` shards it keeps a
//! pool of `s - 1` workers and the caller runs the last shard itself:
//! one fewer hand-off per scope, and the caller does useful work instead
//! of sleeping through it. When the scope body returns, the caller also
//! runs every job still sitting in a slot: a worker that is descheduled
//! or still waking up never holds up the scope by more than the job it
//! has already started. (On a 2-vCPU VM whose host preempts a busy vCPU
//! now and then, a worker starting ~0.2 ms late a hundred times per run
//! made a 2-shard run at n = 4096 slower than one shard.)
//!
//! A pool of `w = 0` workers starts no thread: every job runs inline and
//! unboxed, in spawn order. That is how one shard runs the same staged
//! pipeline as `k` shards, with no hand-off and no allocation.
//!
//! Idle threads sleep and never poll: a worker parks on its slot's
//! condvar, the caller on the job counter's. A scope therefore costs a
//! condvar wake-up on each side (11–15 µs per empty 2-job scope on a
//! 2-vCPU VM), which the caller's own shard hides whenever it runs
//! longer than the worker takes to wake. Polling would save the wake-up
//! but keeps every vCPU of a virtual machine busy without a break, and
//! the host then stops placing the vCPUs next to each other. On a
//! shared 2-vCPU KVM guest (AMD EPYC), threads that polled for up to
//! 2 ms before parking spent about a third of their 2-shard decisions
//! at n = 65 536 with the two vCPUs on different last-level caches,
//! where a cache line takes ~400 ns instead of ~70 ns to cross and a
//! decision takes ~40% longer; threads that slept spent about an eighth
//! there — presumably because every sleep ends in a wake-up at which the
//! host may place the woken vCPU beside the one that woke it.
//!
//! ## The scoped-dispatch pattern
//!
//! [`ScopedPool::scope`] accepts jobs that borrow the caller's stack
//! (`'env` closures), like `std::thread::scope` does, but runs them on
//! the persistent workers. Soundness rests on one invariant, upheld in
//! exactly one place: **`scope` does not return — not even by panic —
//! until every job dispatched inside it has finished.** The wait runs
//! unconditionally after the scope body (an inline job's panic unwinds
//! through the body and is caught there like any other body panic), and
//! worker panics are caught (and re-raised on the caller) rather than
//! allowed to strand the job counter. Given that invariant, erasing the
//! job's `'env` lifetime to park it in a slot is safe: no borrow inside
//! a job can outlive the data it references.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased job after its scope lifetime has been erased (see the
/// module docs for why that is sound).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One worker's hand-off point.
struct Slot {
    /// The job dispatched to this worker and not yet claimed — by the
    /// worker, or by the caller at the end of the scope.
    job: Mutex<Option<Job>>,
    /// Set by the dispatcher after filling `job`; the worker waits for
    /// it.
    pending: AtomicBool,
    /// The worker is (about to be) asleep on `wake`.
    parked: AtomicBool,
    park: Mutex<()>,
    wake: Condvar,
}

/// Job accounting shared between the dispatching side and the workers.
struct Shared {
    slots: Vec<Slot>,
    /// Jobs put in slots and not yet finished.
    outstanding: AtomicUsize,
    /// Slot jobs that finished by panicking since the last `scope`
    /// returned.
    panicked: AtomicUsize,
    /// The pool is dropping: workers exit.
    shutdown: AtomicBool,
    /// Guards the caller's condvar hand-off only; the counters are
    /// atomics.
    lock: Mutex<()>,
    all_done: Condvar,
}

impl Shared {
    /// Run a claimed slot job and account for it.
    fn run(&self, job: Job) {
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
        // Release: the job's writes happen-before the caller's Acquire
        // load that sees the count reach 0.
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Taking the lock orders this wake-up after a caller that saw
            // a non-zero count under it has gone to sleep, so the notify
            // cannot be lost.
            drop(self.lock.lock().unwrap());
            self.all_done.notify_all();
        }
    }

    /// Worker `k`'s loop: wait for its slot to fill, claim and run the
    /// job (unless the caller claimed it first), until shutdown.
    fn work(&self, k: usize) {
        let slot = &self.slots[k];
        let ready = || slot.pending.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst);
        loop {
            // Park. `parked` is set before `pending` is re-checked and
            // read by the dispatcher after it sets `pending` (both
            // SeqCst), so one of the two sees the other; the condvar wait
            // releases `park` atomically.
            let mut guard = slot.park.lock().unwrap();
            slot.parked.store(true, Ordering::SeqCst);
            while !ready() {
                guard = slot.wake.wait(guard).unwrap();
            }
            slot.parked.store(false, Ordering::SeqCst);
            drop(guard);
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            slot.pending.store(false, Ordering::SeqCst);
            let claimed = slot.job.lock().unwrap().take();
            if let Some(job) = claimed {
                self.run(job);
            }
        }
    }

    /// Wake worker `k` if it is parked.
    fn wake(&self, k: usize) {
        let slot = &self.slots[k];
        if slot.parked.load(Ordering::SeqCst) {
            drop(slot.park.lock().unwrap());
            slot.wake.notify_one();
        }
    }
}

/// A fixed-size pool of persistent worker threads with scoped dispatch
/// (see module docs).
pub struct ScopedPool {
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ScopedPool {
    /// Spawn a pool of `workers` persistent threads. Scopes run on those
    /// threads plus the caller; with `workers == 0` no thread starts and
    /// every job runs inline on the caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            slots: (0..workers)
                .map(|_| Slot {
                    job: Mutex::new(None),
                    pending: AtomicBool::new(false),
                    parked: AtomicBool::new(false),
                    park: Mutex::new(()),
                    wake: Condvar::new(),
                })
                .collect(),
            outstanding: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            lock: Mutex::new(()),
            all_done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.work(k))
            })
            .collect();
        ScopedPool { handles, shared }
    }

    /// Number of worker threads (the caller is one more executor).
    pub fn workers(&self) -> usize {
        self.shared.slots.len()
    }

    /// Run a dispatch scope: `f` may [`Scope::spawn`] jobs that borrow
    /// data outside the call; `scope` returns only after every spawned
    /// job has completed. If any job panicked (or `f` itself did), the
    /// panic is re-raised here — after the wait, so borrows stay valid
    /// even on the unwind path.
    pub fn scope<'env, F>(&mut self, f: F)
    where
        F: FnOnce(&mut Scope<'env, '_>),
    {
        let body = catch_unwind(AssertUnwindSafe(|| {
            let mut scope = Scope { pool: self, dispatched: 0, _env: PhantomData };
            f(&mut scope);
        }));
        // Run what no worker has claimed yet, on success and unwind alike.
        for slot in &self.shared.slots {
            let unclaimed = slot.job.lock().unwrap().take();
            if let Some(job) = unclaimed {
                self.shared.run(job);
            }
        }
        // The load-bearing wait: runs on success AND unwind.
        self.wait_idle();
        let panicked = self.shared.panicked.swap(0, Ordering::Relaxed);
        if let Err(p) = body {
            resume_unwind(p);
        }
        if panicked > 0 {
            panic!("{panicked} pool job(s) panicked");
        }
    }

    /// Sleep until no dispatched job is outstanding.
    fn wait_idle(&self) {
        let sh = &*self.shared;
        let mut guard = sh.lock.lock().unwrap();
        while sh.outstanding.load(Ordering::Acquire) > 0 {
            guard = sh.all_done.wait(guard).unwrap();
        }
    }
}

impl Drop for ScopedPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for k in 0..self.workers() {
            self.shared.wake(k);
        }
        for h in self.handles.drain(..) {
            let _ = h.join(); // worker panics were already re-raised in scope
        }
    }
}

impl std::fmt::Debug for ScopedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedPool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// Dispatch handle passed to the closure of [`ScopedPool::scope`].
pub struct Scope<'env, 'pool> {
    pool: &'pool mut ScopedPool,
    /// Jobs spawned so far in this scope.
    dispatched: usize,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env, '_> {
    /// Run one job: in the next worker's slot while this scope has one,
    /// otherwise inline on the calling thread before returning. The job
    /// may borrow anything that outlives the enclosing
    /// [`ScopedPool::scope`] call.
    pub fn spawn(&mut self, job: impl FnOnce() + Send + 'env) {
        let k = self.dispatched;
        self.dispatched += 1;
        let shared = &*self.pool.shared;
        let Some(slot) = shared.slots.get(k) else {
            job();
            return;
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: `ScopedPool::scope` runs every job still in a slot and
        // then waits for `outstanding == 0` before returning, on both the
        // success and the unwind path, so this job — and every `'env`
        // borrow it captures — is finished before the borrowed data can
        // be touched again. The counter is incremented *before* the job
        // is visible in the slot, so the wait can never miss it.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job)
        };
        shared.outstanding.fetch_add(1, Ordering::AcqRel);
        *slot.job.lock().unwrap() = Some(job);
        slot.pending.store(true, Ordering::SeqCst);
        shared.wake(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_scope_waits() {
        let mut pool = ScopedPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn jobs_may_borrow_mutable_chunks() {
        let mut pool = ScopedPool::new(3);
        let mut data = vec![0u64; 9];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(3).enumerate() {
                s.spawn(move || {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 3 + j) as u64;
                    }
                });
            }
        });
        assert_eq!(data, (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn caller_and_workers_write_disjoint_mut_chunks() {
        // One worker plus the caller: chunk 0 goes to the worker's slot,
        // the rest run inline. Every chunk must still be written, and the
        // inline ones on the calling thread.
        let mut pool = ScopedPool::new(1);
        let caller = std::thread::current().id();
        let mut data = vec![0u64; 12];
        let mut ran_on = [None; 4];
        pool.scope(|s| {
            for ((i, chunk), slot) in data.chunks_mut(3).enumerate().zip(ran_on.iter_mut()) {
                s.spawn(move || {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 3 + j) as u64 + 1;
                    }
                    *slot = Some(std::thread::current().id());
                });
            }
        });
        assert_eq!(data, (1..=12).collect::<Vec<u64>>());
        // Job 0 runs on the worker, or on the caller if the worker had
        // not claimed it by the end of the scope body.
        assert!(ran_on[1..].iter().all(|t| *t == Some(caller)), "later jobs run inline");
    }

    #[test]
    fn pool_is_reusable_across_scopes() {
        let mut pool = ScopedPool::new(2);
        let mut total = 0u64;
        for round in 0..50u64 {
            let mut parts = [0u64; 2];
            pool.scope(|s| {
                let (a, b) = parts.split_at_mut(1);
                s.spawn(move || a[0] = round);
                s.spawn(move || b[0] = round * 2);
            });
            total += parts[0] + parts[1];
        }
        assert_eq!(total, (0..50u64).map(|r| 3 * r).sum::<u64>());
    }

    #[test]
    fn job_panic_is_relayed_after_the_wait() {
        let mut pool = ScopedPool::new(2);
        let flag = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {
                    flag.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(res.is_err(), "job panic must propagate to the caller");
        assert_eq!(flag.load(Ordering::SeqCst), 1, "sibling job still ran");
        // The pool survives a panicked scope.
        pool.scope(|s| {
            s.spawn(|| {
                flag.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(flag.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn inline_job_panic_waits_for_every_worker_job() {
        // The caller's own job panics at once while the worker's job is
        // still running: the panic may reach the caller only after the
        // worker job has finished (its borrow of `done` ends there).
        let mut pool = ScopedPool::new(1);
        let done = AtomicBool::new(false);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(50));
                    done.store(true, Ordering::SeqCst);
                });
                s.spawn(|| panic!("inline boom"));
            });
        }));
        let msg = res.expect_err("the inline job's panic must propagate");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"inline boom"));
        assert!(done.load(Ordering::SeqCst), "re-raised before the worker job finished");
    }

    #[test]
    fn pool_is_reusable_after_a_panicked_inline_job() {
        let mut pool = ScopedPool::new(1);
        for _ in 0..3 {
            let res = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    s.spawn(|| {});
                    s.spawn(|| panic!("inline boom"));
                });
            }));
            assert!(res.is_err());
        }
        let mut parts = [0u32; 2];
        pool.scope(|s| {
            let (a, b) = parts.split_at_mut(1);
            s.spawn(move || a[0] = 1);
            s.spawn(move || b[0] = 2);
        });
        assert_eq!(parts, [1, 2], "both executors still run jobs");
    }

    #[test]
    fn slot_jobs_run_exactly_once_whoever_claims_them() {
        // The caller's inline job is empty, so it reaches the end of the
        // body while the worker is still picking up its slot: the two
        // race to claim it, and either way the job must run exactly once
        // and be finished when `scope` returns.
        let mut pool = ScopedPool::new(1);
        let runs = AtomicUsize::new(0);
        for i in 0..2000 {
            pool.scope(|s| {
                s.spawn(|| {
                    runs.fetch_add(1, Ordering::SeqCst);
                });
                s.spawn(|| {});
            });
            assert_eq!(runs.load(Ordering::SeqCst), i + 1);
        }
    }

    #[test]
    fn zero_worker_pool_runs_every_job_inline_in_spawn_order() {
        let mut pool = ScopedPool::new(0);
        assert_eq!(pool.workers(), 0);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for k in 0..5 {
                let order = &order;
                s.spawn(move || {
                    assert_eq!(std::thread::current().id(), caller, "job {k} left the caller");
                    order.lock().unwrap().push(k);
                });
            }
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);

        // An inline job's panic stops the body and is re-raised after the
        // scope; the pool stays usable.
        let ran = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                s.spawn(|| panic!("inline boom"));
                s.spawn(|| {
                    ran.fetch_add(10, Ordering::SeqCst);
                });
            });
        }));
        let msg = res.expect_err("the inline job's panic must propagate");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"inline boom"));
        assert_eq!(ran.load(Ordering::SeqCst), 1, "jobs after the panic never ran");
        pool.scope(|s| {
            s.spawn(|| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn more_jobs_than_workers_run_inline() {
        let mut pool = ScopedPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..7 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 7);
    }
}
