//! Instance-plane independence corpus (tier-2).
//!
//! The multi-instance plane's core contract: every instance's behavior
//! is a pure function of `(master seed, instance index)` — co-hosted
//! instances share wire batches and engine rounds but can never perturb
//! each other's RNG or loss streams. These tests pin:
//!
//! * **stream keying** — `loss_streams::per_instance` draws are stable
//!   per key and distinct across instances;
//! * **co-hosting invariance** — appending instances to a plan leaves
//!   every existing instance's full `InstanceReport` identical, under
//!   loss, at several thread counts;
//! * **thread invariance** — a multi-instance plane produces the same
//!   reports at every thread count (the per-part keyed loss draws are
//!   order-free, so the staged engine's sharding is unobservable).

use gossip_net::rng::loss_streams;
use rfc_core::runner::RunConfig;
use rfc_core::{run_plane, InstanceKind, InstancePlan, InstanceSpec, Priority};

/// A mixed-kind plan: consensus + rumor instances, one staggered start,
/// one Low priority — exercises every per-instance axis at once.
fn mixed_plan(extra_rumor: usize) -> InstancePlan {
    let mut plan = InstancePlan::consensus(1)
        .with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 12 }))
        .with_spec(
            InstanceSpec::new(InstanceKind::RumorVote { k: 12 })
                .priority(Priority::Low)
                .start_at(5),
        );
    for _ in 0..extra_rumor {
        plan = plan.with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 12 }));
    }
    plan
}

fn lossy_cfg(threads: usize) -> RunConfig {
    let mut cfg = RunConfig::builder(16)
        .gamma(3.0)
        .colors(vec![8, 8])
        .message_loss(0.25)
        .build();
    cfg.threads = threads;
    cfg.shard_floor = Some(0); // tiny n: keep real multi-shard runs
    cfg
}

#[test]
fn per_instance_loss_streams_are_keyed_independently() {
    let seed = 0xFEED_BEEF;
    let draw = |family: u64, round: usize, instance: u64, agent: u32, peer: u32| {
        loss_streams::per_instance(seed, family, round, instance, agent, peer).chance(0.5)
    };
    // Stable: the same key always yields the same coin.
    for family in [loss_streams::QUERY, loss_streams::PUSH, loss_streams::REPLY] {
        assert_eq!(draw(family, 3, 7, 2, 9), draw(family, 3, 7, 2, 9));
    }
    // Distinct across instances: two instances sharing (family, round,
    // agent, peer) must not share one coin stream. A single pair could
    // collide by chance, so check many keys disagree somewhere.
    let coins = |instance: u64| -> Vec<bool> {
        (0..64usize)
            .map(|r| draw(loss_streams::PUSH, r, instance, (r % 16) as u32, ((r + 1) % 16) as u32))
            .collect()
    };
    assert_ne!(coins(0), coins(1), "instances 0 and 1 share a loss stream");
    assert_ne!(coins(1), coins(2), "instances 1 and 2 share a loss stream");
}

#[test]
fn appending_instances_never_perturbs_existing_reports() {
    // The independence property the `per_instance` keying exists for:
    // instance i's report — decisions, clocks, payload meters, observed
    // loss — is invariant to co-hosting more instances, under loss, at
    // several thread counts (engine sharding included).
    for threads in [1usize, 4] {
        let small = run_plane(&lossy_cfg(threads), &mixed_plan(0), 21);
        let large = run_plane(&lossy_cfg(threads), &mixed_plan(8), 21);
        assert_eq!(small.instances.len() + 8, large.instances.len());
        for (j, (a, b)) in small.instances.iter().zip(&large.instances).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "instance {j} perturbed by co-hosting (threads {threads})"
            );
        }
    }
}

#[test]
fn multi_instance_plane_is_thread_invariant() {
    let baseline = run_plane(&lossy_cfg(1), &mixed_plan(3), 9);
    let want: Vec<String> =
        baseline.instances.iter().map(|i| format!("{i:?}")).collect();
    for threads in [2usize, 8] {
        let plane = run_plane(&lossy_cfg(threads), &mixed_plan(3), 9);
        let got: Vec<String> = plane.instances.iter().map(|i| format!("{i:?}")).collect();
        assert_eq!(got, want, "instance reports drifted at threads={threads}");
        assert_eq!(plane.rounds, baseline.rounds);
        assert_eq!(
            plane.aggregate, baseline.aggregate,
            "aggregate metrics drifted at threads={threads}"
        );
    }
}
