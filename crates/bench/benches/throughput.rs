//! Throughput benchmarks for the two layers the streaming pipeline
//! rides on: the round engine (`Network::step` cost vs `n`) and the
//! Monte-Carlo harness (buffered `run_trials` vs streaming
//! `run_trials_fold`), so the fold path's speed and O(threads) memory
//! behavior are *measured*, not asserted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use experiments::parallel::{run_trials, run_trials_fold, run_trials_fold_with_stats};
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::fault::FaultPlan;
use gossip_net::ids::AgentId;
use gossip_net::network::Network;
use gossip_net::size::{MsgSize, SizeEnv};
use gossip_net::topology::Topology;
use rfc_core::runner::{run_protocol, RunConfig};
use std::hint::black_box;

/// Minimal wire message: a 64-bit ping.
#[derive(Clone)]
struct Ping;
impl MsgSize for Ping {
    fn size_bits(&self, _env: &SizeEnv) -> u64 {
        64
    }
}

/// Pushes to the next agent on the ring of ids — every agent acts every
/// round, so one `step()` is `n` sends + `n` deliveries.
struct RingPusher {
    id: AgentId,
    n: usize,
}
impl Agent<Ping> for RingPusher {
    fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Ping>> {
        let to = (self.id as usize + 1) % self.n;
        Some(Op::push(to as AgentId, Ping))
    }
}

fn bench_round_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_engine_step_vs_n");
    group.sample_size(10);
    for n in [1024usize, 8192, 65536] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let agents: Vec<RingPusher> =
                (0..n).map(|id| RingPusher { id: id as AgentId, n }).collect();
            let mut net = Network::new(
                Topology::complete(n),
                SizeEnv::for_n(n),
                agents,
                FaultPlan::none(n),
            );
            b.iter(|| {
                net.step();
                black_box(net.round())
            });
        });
    }
    group.finish();
}

fn bench_trial_fold(c: &mut Criterion) {
    // Harness overhead head-to-head: the buffered Vec<Mutex<Option<T>>>
    // path against the streaming block-fold path, light per-trial work so
    // the harness cost dominates.
    let mut group = c.benchmark_group("trial_fold_harness_overhead");
    group.sample_size(10);
    let trials = 8192usize;
    for threads in [1usize, 4, 8] {
        group.throughput(Throughput::Elements(trials as u64));
        group.bench_with_input(
            BenchmarkId::new("buffered_run_trials", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let v = run_trials(trials, threads, 7, |seed| seed.wrapping_mul(0x9E37));
                    black_box(v.iter().copied().fold(0u64, u64::wrapping_add))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming_fold", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(run_trials_fold(
                        trials,
                        threads,
                        7,
                        || 0u64,
                        |acc, _i, seed| *acc = acc.wrapping_add(seed.wrapping_mul(0x9E37)),
                        |a, b| *a = a.wrapping_add(b),
                    ))
                })
            },
        );
    }
    group.finish();

    // Same comparison under real per-trial work (full protocol runs), and
    // a printed witness that the fold window stayed O(threads).
    let mut group = c.benchmark_group("trial_fold_protocol_runs");
    group.sample_size(10);
    let cfg = RunConfig::builder(64).gamma(3.0).colors(vec![32, 32]).build();
    let trials = 64usize;
    let threads = 8usize;
    group.throughput(Throughput::Elements(trials as u64));
    group.bench_function("buffered_run_trials", |b| {
        b.iter(|| {
            let v = run_trials(trials, threads, 5, |seed| {
                run_protocol(&cfg, seed).outcome.is_consensus() as u64
            });
            black_box(v.iter().sum::<u64>())
        })
    });
    group.bench_function("streaming_fold", |b| {
        b.iter(|| {
            black_box(run_trials_fold(
                trials,
                threads,
                5,
                || 0u64,
                |acc, _i, seed| *acc += run_protocol(&cfg, seed).outcome.is_consensus() as u64,
                |a, b| *a += b,
            ))
        })
    });
    group.finish();
    let (_, stats) = run_trials_fold_with_stats(
        4096,
        threads,
        5,
        || 0u64,
        |acc, _i, seed| *acc = acc.wrapping_add(seed),
        |a, b| *a = a.wrapping_add(b),
    );
    println!(
        "fold window witness: {} blocks, peak {} pending partials (bound 3·threads = {})",
        stats.blocks,
        stats.peak_pending,
        3 * threads
    );
}

fn bench_intra_trial(c: &mut Criterion) {
    // The staged engine's intra-trial axis: one protocol trial, sharded
    // plan/apply. Shard counts beyond the core count still measure the
    // staging overhead (and the 1-shard row measures the staged engine
    // against the monolithic baseline below it).
    let mut group = c.benchmark_group("intra_trial_sharding");
    group.sample_size(10);
    let n = 8192usize;
    let cfg_seq = RunConfig::builder(n).gamma(3.0).colors(vec![n / 2, n / 2]).build();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("monolithic_step", |b| {
        b.iter(|| black_box(run_protocol(&cfg_seq, 11).rounds))
    });
    for shards in [1usize, 2, 4] {
        let cfg = RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![n / 2, n / 2])
            .sharded(shards)
            .build();
        group.bench_with_input(
            BenchmarkId::new("staged_per_agent", shards),
            &shards,
            |b, _| b.iter(|| black_box(run_protocol(&cfg, 11).rounds)),
        );
    }
    group.finish();

    // Composition: shards within a trial × arenas across trials — the
    // two parallelism layers the workspace now has, working together.
    let mut group = c.benchmark_group("intra_trial_x_arena_composition");
    group.sample_size(10);
    let n = 2048usize;
    let trials = 8usize;
    let cfg = RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n / 2, n / 2])
        .sharded(2)
        .build();
    group.throughput(Throughput::Elements((n * trials) as u64));
    group.bench_function("sharded_trials_through_one_arena", |b| {
        use rfc_core::runner::TrialArena;
        b.iter(|| {
            let mut arena = TrialArena::new();
            let mut consensus = 0u64;
            for t in 0..trials {
                consensus += arena
                    .run_protocol(&cfg, 100 + t as u64)
                    .outcome
                    .is_consensus() as u64;
            }
            black_box(consensus)
        })
    });
    group.finish();
}

fn bench_serial_sections(c: &mut Criterion) {
    // The three per-round sections the staged engine drained, isolated
    // head-to-head at 1/2/4/8 shards: op-order metering vs per-shard
    // Tally merge, sequential op-log append vs pre-sized scatter, and
    // serial plan-buffer concat vs offset scatter. `rfc-bench serial`
    // runs the same comparison as a gate-compatible table; this group is
    // the criterion-grade version with per-arm statistics.
    use gossip_net::metrics::{Metrics, Tally};
    use gossip_net::oplog::{OpEvent, OpKind, OpLog};
    use gossip_net::rng::DetRng;
    use gossip_net::ScopedPool;

    let n = 1usize << 16;
    let mut rng = DetRng::seeded(0x5E41A1, 1);
    let bits: Vec<u64> = (0..n).map(|_| rng.below(100_000)).collect();
    let events: Vec<OpEvent> = (0..n)
        .map(|i| OpEvent {
            round: (i / 4096) as u32,
            kind: if rng.index(2) == 0 { OpKind::Push } else { OpKind::Pull },
            from: rng.index(4096) as u32,
            to: rng.index(4096) as u32,
        })
        .collect();

    let mut group = c.benchmark_group("serial_sections");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("metering_serial", |b| {
        b.iter(|| {
            let mut m = Metrics::default();
            m.enter_phase("bench");
            for &x in &bits {
                m.record_message(x);
            }
            black_box(m.bits_sent)
        })
    });
    group.bench_function("oplog_append_serial", |b| {
        b.iter(|| {
            let mut log = OpLog::new();
            for e in &events {
                log.record(e.round, e.kind, e.from, e.to);
            }
            black_box(log.len())
        })
    });
    group.bench_function("concat_serial", |b| {
        let mut ops: Vec<OpEvent> = Vec::with_capacity(n);
        b.iter(|| {
            ops.clear();
            for part in events.chunks(n.div_ceil(4)) {
                ops.extend_from_slice(part);
            }
            black_box(ops.len())
        })
    });
    for shards in [1usize, 2, 4, 8] {
        let chunk = n.div_ceil(shards).max(1);
        group.bench_with_input(
            BenchmarkId::new("metering_sharded", shards),
            &shards,
            |b, &shards| {
                let mut pool = ScopedPool::new(shards);
                b.iter(|| {
                    let mut m = Metrics::default();
                    m.enter_phase("bench");
                    let mut tallies = vec![Tally::default(); shards];
                    pool.scope(|s| {
                        for (t, part) in tallies.iter_mut().zip(bits.chunks(chunk)) {
                            s.spawn(move || {
                                for &x in part {
                                    t.record(x);
                                }
                            });
                        }
                    });
                    for t in &tallies {
                        m.record_bulk(t, 0);
                    }
                    black_box(m.bits_sent)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("oplog_scatter", shards),
            &shards,
            |b, _| {
                let mut pool = ScopedPool::new(shards);
                b.iter(|| {
                    let mut log = OpLog::new();
                    let tail = log.scatter_tail(n);
                    pool.scope(|s| {
                        for (dst, src) in tail.chunks_mut(chunk).zip(events.chunks(chunk)) {
                            s.spawn(move || {
                                for (slot, e) in dst.iter_mut().zip(src) {
                                    *slot = *e;
                                }
                            });
                        }
                    });
                    black_box(log.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("concat_scatter", shards),
            &shards,
            |b, _| {
                let mut pool = ScopedPool::new(shards);
                let mut ops: Vec<OpEvent> = Vec::with_capacity(n);
                b.iter(|| {
                    ops.clear();
                    let spare = &mut ops.spare_capacity_mut()[..n];
                    pool.scope(|s| {
                        for (dst, src) in spare.chunks_mut(chunk).zip(events.chunks(chunk)) {
                            s.spawn(move || {
                                for (slot, e) in dst.iter_mut().zip(src) {
                                    slot.write(*e);
                                }
                            });
                        }
                    });
                    // SAFETY: the chunks partition 0..n; every slot written.
                    unsafe { ops.set_len(n) };
                    black_box(ops.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_pool_spawn(c: &mut Criterion) {
    // Isolates the per-round worker-spawn overhead the staged engine
    // used to pay: each "round" dispatches `workers` trivial jobs,
    // either through a freshly spawned `std::thread::scope` (the old
    // per-round cost) or through one reusable `ScopedPool` whose
    // threads persist across rounds (what `run_staged` does now). The
    // job body is a single atomic increment, so the gap between the two
    // arms *is* the spawn/join overhead.
    use gossip_net::ScopedPool;
    use std::sync::atomic::{AtomicU64, Ordering};

    let mut group = c.benchmark_group("scoped_pool_spawn_overhead");
    group.sample_size(10);
    let rounds = 256usize;
    for workers in [2usize, 4, 8] {
        group.throughput(Throughput::Elements(rounds as u64));
        group.bench_with_input(
            BenchmarkId::new("respawned_thread_scope", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let acc = AtomicU64::new(0);
                    for _ in 0..rounds {
                        std::thread::scope(|s| {
                            for _ in 0..workers {
                                s.spawn(|| {
                                    acc.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                    black_box(acc.load(Ordering::Relaxed))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reusable_scoped_pool", workers),
            &workers,
            |b, &workers| {
                let mut pool = ScopedPool::new(workers);
                b.iter(|| {
                    let acc = AtomicU64::new(0);
                    for _ in 0..rounds {
                        pool.scope(|s| {
                            for _ in 0..workers {
                                s.spawn(|| {
                                    acc.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                    black_box(acc.load(Ordering::Relaxed))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round_engine,
    bench_trial_fold,
    bench_intra_trial,
    bench_serial_sections,
    bench_pool_spawn
);
criterion_main!(benches);
