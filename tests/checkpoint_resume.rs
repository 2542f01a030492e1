//! Resume-equivalence corpus (tier-2): checkpoint-at-r + restore +
//! run-to-completion must be **bit-identical** to the straight-through
//! run — same `report_digest`, same `Metrics` (full `PartialEq`,
//! including the current-phase pointer), same good-execution audit.
//!
//! The corpus mirrors the golden matrices exactly: every static row of
//! `golden_runs.rs` (sequential engine), every sharded row of
//! `sharded_engine.rs` under `RngDiscipline::PerAgent` at the
//! `RFC_THREADS` counts, plus cross-thread resume (snapshot under one
//! shard count, resume under another).
//! Straight-through runs go through `run_protocol` — the canonical
//! runner, itself pinned by the golden suites — so this file needs no
//! pinned constants of its own: if resume matches straight-through and
//! straight-through matches the golden capture, resume matches the
//! capture.
//!
//! Negative paths ride along: truncated files, wrong version, wrong
//! `n`, wrong config, altered bytes (the checksum) and garbage bodies
//! must come back as typed [`CheckpointError`]s, never panics.

mod common;

use common::{report_digest, Digest};
use gossip_net::fault::Placement;
use rfc_core::checkpoint::{
    self, config_fingerprint, drive_with_checkpoints, peek_header, restore_network, CheckpointError,
};
use rfc_core::codec::{put_varint, varint_len};
use rfc_core::runner::{RunConfig, RunReport, TopologySpec};
use rfc_core::{
    build_network_slots, collect_report, honest_slot_factory, run_protocol, ConsensusAgent, Fnv1a,
    LossSchedule, PartitionCut, RngDiscipline, ScenarioScript,
};

/// The static golden matrix (mirrors `golden_runs.rs` row for row).
fn static_corpus() -> Vec<(&'static str, RunConfig, u64)> {
    let q = RunConfig::builder(32).gamma(3.0).build().params().q;
    vec![
        (
            "complete/n24/balanced",
            RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build(),
            1,
        ),
        (
            "complete/n24/balanced/seed2",
            RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build(),
            2,
        ),
        (
            "complete/n32/faults-random",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.25, Placement::Random { seed: 5 })
                .build(),
            3,
        ),
        (
            "complete/n32/faults-lowids",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.25, Placement::LowIds)
                .build(),
            4,
        ),
        (
            "ring/n48/three-colors",
            RunConfig::builder(48)
                .gamma(4.0)
                .colors(vec![16, 16, 16])
                .topology(TopologySpec::Ring)
                .build(),
            5,
        ),
        (
            "erdos-renyi/n48",
            RunConfig::builder(48)
                .gamma(4.0)
                .colors(vec![24, 24])
                .topology(TopologySpec::ErdosRenyi { p: 0.3 })
                .build(),
            6,
        ),
        (
            "random-regular/n40/d8",
            RunConfig::builder(40)
                .gamma(4.0)
                .colors(vec![20, 20])
                .topology(TopologySpec::RandomRegular { d: 8 })
                .build(),
            7,
        ),
        (
            "complete/n32/loss-0.25",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .message_loss(0.25)
                .build(),
            8,
        ),
        (
            "complete/n24/record-ops",
            RunConfig::builder(24)
                .gamma(3.0)
                .colors(vec![12, 12])
                .record_ops(true)
                .build(),
            9,
        ),
        (
            "complete/n24/leader-election",
            RunConfig::builder(24).gamma(3.0).leader_election().build(),
            10,
        ),
        (
            "complete/n32/faults-highids+loss",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.125, Placement::HighIds)
                .message_loss(0.1)
                .build(),
            11,
        ),
        (
            "complete/n32/skip-coherence",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .skip_coherence(true)
                .build(),
            12,
        ),
        (
            "dynamic/n32/churn",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .scenario(
                    ScenarioScript::new()
                        .crash(q / 2, (24..32).collect())
                        .recover(2 * q, (28..32).collect()),
                )
                .build(),
            13,
        ),
        (
            "dynamic/n32/partition-heal",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .scenario(
                    ScenarioScript::new()
                        .partition(2 * q, PartitionCut::split_at(32, 16))
                        .heal(2 * q + q / 2),
                )
                .build(),
            14,
        ),
        (
            "dynamic/n32/loss-burst",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .loss_schedule(LossSchedule::burst(0.05, 0.9, 2 * q, 2 * q + 4))
                .build(),
            15,
        ),
    ]
}

/// The sharded golden matrix (mirrors `sharded_engine.rs`), spelled
/// sequential; the caller applies PerAgent + a thread count.
fn sharded_corpus() -> Vec<(&'static str, RunConfig, u64)> {
    let q = RunConfig::builder(32).gamma(3.0).build().params().q;
    vec![
        (
            "sharded/complete/n24/balanced",
            RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build(),
            1,
        ),
        (
            "sharded/complete/n32/faults+loss",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.25, Placement::Random { seed: 5 })
                .message_loss(0.25)
                .build(),
            2,
        ),
        (
            "sharded/ring/n48/three-colors",
            RunConfig::builder(48)
                .gamma(4.0)
                .colors(vec![16, 16, 16])
                .topology(TopologySpec::Ring)
                .build(),
            3,
        ),
        (
            "sharded/complete/n24/record-ops+loss",
            RunConfig::builder(24)
                .gamma(3.0)
                .colors(vec![12, 12])
                .record_ops(true)
                .message_loss(0.1)
                .build(),
            4,
        ),
        (
            "sharded/dynamic/n32/churn+burst",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .scenario(
                    ScenarioScript::new()
                        .crash(q / 2, (24..32).collect())
                        .recover(2 * q, (28..32).collect()),
                )
                .loss_schedule(LossSchedule::burst(0.05, 0.9, 2 * q, 2 * q + 4))
                .build(),
            5,
        ),
        (
            "sharded/dynamic/n32/partition-heal",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .scenario(
                    ScenarioScript::new()
                        .partition(2 * q, PartitionCut::split_at(32, 16))
                        .heal(2 * q + q / 2),
                )
                .build(),
            6,
        ),
        (
            "sharded/complete/n40/leader-election",
            RunConfig::builder(40).gamma(3.0).leader_election().build(),
            7,
        ),
        (
            "sharded/complete/n64/record-ops+loss",
            RunConfig::builder(64)
                .gamma(3.0)
                .colors(vec![32, 32])
                .record_ops(true)
                .message_loss(0.15)
                .build(),
            8,
        ),
    ]
}

/// `RFC_THREADS` counts (the ci.sh knob), default `{1, 2, 8}`.
fn thread_counts() -> Vec<usize> {
    match std::env::var("RFC_THREADS") {
        Ok(s) => {
            let counts: Vec<usize> =
                s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
            assert!(!counts.is_empty(), "RFC_THREADS set but unparsable: {s:?}");
            counts
        }
        Err(_) => vec![1, 2, 8],
    }
}

/// Everything a straight-through run produces that resume must
/// reproduce: the report (compared via digest, full `Metrics` equality
/// and the audit of `record_ops` rows), plus its snapshots.
struct Baseline {
    report: RunReport,
    snapshots: Vec<(usize, Vec<u8>)>,
}

/// One straight-through run, snapshotting at every multiple of `every`.
fn straight_with_snapshots(cfg: &RunConfig, seed: u64, every: usize) -> Baseline {
    let mut net = build_network_slots(cfg, seed, &mut honest_slot_factory);
    let mut snapshots = Vec::new();
    drive_with_checkpoints(&mut net, cfg, seed, Some(every), &mut |round, bytes| {
        snapshots.push((round, bytes.to_vec()));
    })
    .expect("straight run with snapshots");
    Baseline {
        report: collect_report(&net, cfg),
        snapshots,
    }
}

/// Restore `bytes` under `cfg` and run to completion; return the report.
fn finish_from(cfg: &RunConfig, bytes: &[u8]) -> RunReport {
    let restored = restore_network(cfg, bytes).expect("restore");
    let mut net = restored.net;
    drive_with_checkpoints(&mut net, cfg, restored.seed, None, &mut |_, _| {})
        .expect("finish restored run");
    collect_report(&net, cfg)
}

/// Resume cadence: about five snapshots per run (plus the final
/// boundary), so the quadratic corpus stays CI-sized while still
/// crossing every phase of the schedule.
fn cadence(cfg: &RunConfig) -> usize {
    let q = cfg.params().q;
    let total = if cfg.skip_coherence { 3 * q } else { 4 * q };
    (total / 5).max(1)
}

/// The core contract, applied to one row: every snapshot of the
/// straight run resumes to the identical end state.
fn assert_resume_equivalent(label: &str, cfg: &RunConfig, seed: u64) {
    let every = cadence(cfg);
    let base = straight_with_snapshots(cfg, seed, every);
    // The straight-with-snapshots path must itself match the canonical
    // runner (snapshot emission cannot perturb the run).
    let canonical = run_protocol(cfg, seed);
    assert_eq!(
        report_digest(&base.report),
        report_digest(&canonical),
        "{label}: snapshot emission changed the run"
    );
    assert_eq!(
        base.report.metrics, canonical.metrics,
        "{label}: snapshot emission changed the metrics"
    );
    let q = cfg.params().q;
    let total = if cfg.skip_coherence { 3 * q } else { 4 * q };
    assert_eq!(
        base.snapshots.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
        (every..=total).step_by(every).collect::<Vec<_>>(),
        "{label}: snapshot rounds off-cadence"
    );
    for (round, bytes) in &base.snapshots {
        let header = peek_header(bytes).expect("self-describing header");
        assert_eq!(header.round, *round, "{label}: header round");
        assert_eq!(header.n, cfg.n, "{label}: header n");
        assert_eq!(header.seed, seed, "{label}: header seed");
        let report = finish_from(cfg, bytes);
        assert_eq!(
            report_digest(&report),
            report_digest(&base.report),
            "{label}: resume at round {round} diverged"
        );
        assert_eq!(
            report.metrics, base.report.metrics,
            "{label}: resume at round {round} diverged in metrics"
        );
        assert_eq!(
            report.audit, base.report.audit,
            "{label}: resume at round {round} diverged in the audit"
        );
    }
}

#[test]
fn static_corpus_resumes_bit_identically() {
    for (label, cfg, seed) in static_corpus() {
        assert_resume_equivalent(label, &cfg, seed);
    }
}

#[test]
fn sharded_corpus_resumes_bit_identically() {
    for &threads in &thread_counts() {
        for (label, cfg, seed) in sharded_corpus() {
            let mut cfg = cfg;
            cfg.rng_discipline = RngDiscipline::PerAgent;
            cfg.threads = threads;
            cfg.shard_floor = Some(0); // tiny n: keep real multi-shard runs
            assert_resume_equivalent(&format!("{label}@t{threads}"), &cfg, seed);
        }
    }
}

#[test]
fn resume_is_thread_count_portable() {
    // Snapshot under one shard count, resume under another: the config
    // fingerprint normalizes `threads`, and the staged engine is
    // thread-invariant, so every pairing must land on the same digest.
    let counts = thread_counts();
    for (label, cfg, seed) in sharded_corpus().into_iter().take(3) {
        let spell = |threads: usize| {
            let mut c = cfg.clone();
            c.rng_discipline = RngDiscipline::PerAgent;
            c.threads = threads;
            c.shard_floor = Some(0); // tiny n: keep real multi-shard runs
            c
        };
        let from = spell(counts[0]);
        let base = straight_with_snapshots(&from, seed, cadence(&from));
        let (mid_round, mid_bytes) = &base.snapshots[base.snapshots.len() / 2];
        for &to in &counts[1..] {
            let to_cfg = spell(to);
            let report = finish_from(&to_cfg, mid_bytes);
            assert_eq!(
                report_digest(&report),
                report_digest(&base.report),
                "{label}: snapshot@t{} round {mid_round} resumed@t{to} diverged",
                counts[0]
            );
            assert_eq!(report.audit, base.report.audit, "{label}: cross-thread audit diverged");
        }
    }
}

#[test]
fn loss_schedule_edges_resume_at_their_boundaries() {
    // Loss-schedule edge shapes, snapshotted exactly ON each schedule
    // boundary (the round a burst begins / ends is the round most
    // likely to expose an off-by-one between `p_at(round)` and the
    // restored round counter): zero-width burst (normalizes to
    // constant), overlapping bursts (piecewise), and a burst whose
    // window starts right at a snapshot round.
    let q = RunConfig::builder(32).gamma(3.0).build().params().q;
    let rows: Vec<(&str, LossSchedule, Vec<usize>)> = vec![
        (
            "zero-width-burst",
            LossSchedule::burst(0.2, 0.9, 2 * q, 2 * q),
            vec![2 * q],
        ),
        (
            "overlapping-bursts",
            LossSchedule::piecewise(vec![
                (0, 0.05),
                (q, 0.9),
                (2 * q, 0.05),
                (q + q / 2, 0.8),
                (2 * q + 4, 0.05),
            ]),
            vec![q, q + q / 2, 2 * q, 2 * q + 4],
        ),
        (
            "burst-at-boundary",
            LossSchedule::burst(0.05, 0.9, 2 * q, 2 * q + 4),
            vec![2 * q - 1, 2 * q, 2 * q + 4],
        ),
    ];
    for (label, schedule, boundaries) in rows {
        let cfg = RunConfig::builder(32)
            .gamma(3.0)
            .colors(vec![16, 16])
            .loss_schedule(schedule)
            .build();
        let mut net = build_network_slots(&cfg, 21, &mut honest_slot_factory);
        let mut wanted = Vec::new();
        drive_with_checkpoints(&mut net, &cfg, 21, Some(1), &mut |round, bytes| {
            if boundaries.contains(&round) {
                wanted.push((round, bytes.to_vec()));
            }
        })
        .expect("straight run");
        let straight = collect_report(&net, &cfg);
        assert_eq!(wanted.len(), boundaries.len(), "{label}: missed a boundary");
        for (round, bytes) in &wanted {
            let report = finish_from(&cfg, bytes);
            assert_eq!(
                report_digest(&report),
                report_digest(&straight),
                "{label}: resume on boundary round {round} diverged"
            );
            assert_eq!(report.metrics, straight.metrics, "{label}@{round}");
        }
    }
}

#[test]
fn resumed_runs_stay_resumable() {
    // Chained resume: snapshot → resume while snapshotting again →
    // resume the second-generation snapshot. All three end states match.
    let (label, cfg, seed) = &static_corpus()[7]; // loss-0.25
    let every = cadence(cfg);
    let base = straight_with_snapshots(cfg, *seed, every);
    let (_, first) = &base.snapshots[0];
    let restored = restore_network(cfg, first).expect("restore gen-1");
    let mut net = restored.net;
    let mut gen2 = Vec::new();
    drive_with_checkpoints(&mut net, cfg, restored.seed, Some(every), &mut |round, bytes| {
        gen2.push((round, bytes.to_vec()));
    })
    .expect("resume gen-1");
    assert_eq!(
        report_digest(&collect_report(&net, cfg)),
        report_digest(&base.report),
        "{label}: gen-1 resume diverged"
    );
    assert!(!gen2.is_empty(), "resumed run emitted no snapshots");
    let (round, bytes) = gen2.last().unwrap();
    let report = finish_from(cfg, bytes);
    assert_eq!(
        report_digest(&report),
        report_digest(&base.report),
        "{label}: gen-2 resume at round {round} diverged"
    );
    assert_eq!(report.metrics, base.report.metrics);
}

#[test]
fn checkpoints_are_compact_and_self_describing() {
    // "Compact": a mid-run snapshot of a 48-agent ledger-heavy run must
    // cost far less than the ~n² intent-list blowup a naive (non-
    // interned) encoder would pay. Every agent's ledger holds up to n
    // intent lists of q pairs; interning makes that n lists total, so
    // the per-agent cost stays O(n + q·own-data), not O(n·q).
    let cfg = RunConfig::builder(48)
        .gamma(4.0)
        .colors(vec![24, 24])
        .build();
    let q = cfg.params().q;
    let base = straight_with_snapshots(&cfg, 6, cadence(&cfg));
    let (round, bytes) = &base.snapshots[base.snapshots.len() / 2];
    assert!(*round > q, "want a post-commitment snapshot");
    let n = cfg.n;
    // Interned budget: pool of n intent lists (q entries × ~2×u64 varint
    // ≤ 18 bytes each) + per-agent ledger refs/votes/rng. The naive
    // bound is n× larger; assert we stay within a small multiple of the
    // interned estimate.
    let interned_estimate = n * q * 18 + n * (n * 4 + q * 10 + 64);
    assert!(
        bytes.len() < interned_estimate,
        "checkpoint is {} bytes; interned-sharing estimate is {}",
        bytes.len(),
        interned_estimate
    );
    let naive_floor = n * n * q * 8; // every ledger row re-serialized
    assert!(
        bytes.len() * 4 < naive_floor,
        "checkpoint ({} bytes) should be ≪ the naive no-sharing floor ({})",
        bytes.len(),
        naive_floor
    );
    let header = peek_header(bytes).expect("header");
    assert_eq!(header.n, n);
    assert_eq!(header.round, *round);
    assert_eq!(header.config_fingerprint, config_fingerprint(&cfg));
}

/// The simulator's digest (`tests/common`'s `Digest`) over every
/// cadence snapshot of `(cfg, seed)`, each prefixed by its round.
fn snapshot_bytes_digest(cfg: &RunConfig, seed: u64) -> u64 {
    let mut d = Digest::new();
    for (round, bytes) in straight_with_snapshots(cfg, seed, cadence(cfg)).snapshots {
        d.u64(round as u64);
        d.bytes(&bytes);
    }
    d.finish()
}

#[test]
fn checkpoint_bytes_are_pinned() {
    // The byte format itself, not just its round trip: every snapshot
    // of four rows (static lossy, sharded faults+loss, a scenario with
    // a crash and a partition, plan faults) hashes to the value
    // captured when format version 2 put the checksum after the
    // version. A layout change must move these AND bump
    // `FORMAT_VERSION`; a failure prints the fresh hash.
    assert_eq!(checkpoint::FORMAT_VERSION, 2);
    let q = RunConfig::builder(32).gamma(3.0).build().params().q;
    let row = |corpus: Vec<(&'static str, RunConfig, u64)>, label: &str| {
        corpus
            .into_iter()
            .find(|(l, _, _)| *l == label)
            .unwrap_or_else(|| panic!("no corpus row {label}"))
    };
    let (_, lossy, lossy_seed) = row(static_corpus(), "complete/n32/loss-0.25");
    let (_, faults, faults_seed) = row(static_corpus(), "complete/n32/faults-random");
    let (_, sharded, sharded_seed) = row(sharded_corpus(), "sharded/complete/n32/faults+loss");
    let crash_partition = RunConfig::builder(32)
        .gamma(3.0)
        .colors(vec![16, 16])
        .scenario(
            ScenarioScript::new()
                .crash(q / 2, (24..32).collect())
                .partition(2 * q, PartitionCut::split_at(32, 16))
                .heal(2 * q + q / 2),
        )
        .build();
    let mut rows: Vec<(String, RunConfig, u64)> = vec![
        ("static/loss-0.25".into(), lossy, lossy_seed),
        ("static/faults-random".into(), faults, faults_seed),
        ("dynamic/crash+partition".into(), crash_partition, 16),
    ];
    for threads in thread_counts() {
        let mut cfg = sharded.clone();
        cfg.rng_discipline = RngDiscipline::PerAgent;
        cfg.threads = threads;
        cfg.shard_floor = Some(0);
        rows.push((format!("sharded/faults+loss@t{threads}"), cfg, sharded_seed));
    }
    let pinned = |label: &str| -> u64 {
        match label.split('@').next().unwrap() {
            "static/loss-0.25" => 0x0073c104a184469e,
            "static/faults-random" => 0x05a93df6adb30a13,
            "dynamic/crash+partition" => 0x959ce44ddd6ba917,
            "sharded/faults+loss" => 0xab29cb7252c76904,
            other => panic!("no pin for {other}"),
        }
    };
    for (label, cfg, seed) in rows {
        let got = snapshot_bytes_digest(&cfg, seed);
        assert_eq!(
            got,
            pinned(&label),
            "{label}: checkpoint bytes moved to {got:#018x}"
        );
    }
}

// ---------------------------------------------------------------------
// Negative paths: typed errors, never panics.
// ---------------------------------------------------------------------

fn some_checkpoint() -> (RunConfig, Vec<u8>) {
    let cfg = RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build();
    let base = straight_with_snapshots(&cfg, 1, cadence(&cfg));
    let bytes = base.snapshots[1].1.clone();
    (cfg, bytes)
}

#[test]
fn truncated_checkpoints_error_cleanly() {
    let (cfg, bytes) = some_checkpoint();
    // Every strict prefix must fail with a typed error, not a panic.
    // (Step 7 keeps the loop linear; the header boundary and a byte
    // sweep near it are covered exactly.)
    for cut in (0..bytes.len()).step_by(7).chain(bytes.len() - 3..bytes.len()) {
        let err = match restore_network(&cfg, &bytes[..cut]) {
            Err(e) => e,
            Ok(_) => panic!("cut at {cut}: prefix accepted"),
        };
        match err {
            CheckpointError::Truncated | CheckpointError::Corrupt(_) => {}
            other => panic!("cut at {cut}: unexpected error {other}"),
        }
    }
}

#[test]
fn wrong_version_is_reported() {
    let (cfg, mut bytes) = some_checkpoint();
    bytes[4] = 99; // version u16 LE lives right after the 4-byte magic
    match restore_network(&cfg, &bytes) {
        Err(CheckpointError::WrongVersion { found }) => assert_eq!(found, 99),
        Err(other) => panic!("expected WrongVersion, got {other}"),
        Ok(_) => panic!("wrong version accepted"),
    }
}

#[test]
fn bad_magic_is_reported() {
    let (cfg, mut bytes) = some_checkpoint();
    bytes[0] = b'X';
    assert!(matches!(
        restore_network(&cfg, &bytes),
        Err(CheckpointError::BadMagic)
    ));
}

#[test]
fn n_mismatch_is_reported_before_body_decode() {
    let (_, bytes) = some_checkpoint();
    let other = RunConfig::builder(32).gamma(3.0).colors(vec![16, 16]).build();
    match restore_network(&other, &bytes) {
        Err(CheckpointError::NMismatch { expected, found }) => {
            assert_eq!((expected, found), (32, 24));
        }
        Err(other) => panic!("expected NMismatch, got {other}"),
        Ok(_) => panic!("n mismatch accepted"),
    }
}

#[test]
fn config_mismatch_is_reported() {
    let (_, bytes) = some_checkpoint();
    // Same n, different protocol parameters ⇒ fingerprint mismatch.
    let other = RunConfig::builder(24).gamma(4.0).colors(vec![12, 12]).build();
    assert!(matches!(
        restore_network(&other, &bytes),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    // But a different *thread spelling* of the same run is accepted:
    // the fingerprint normalizes threads (cross-thread resume is legal).
    let (cfg, bytes) = some_checkpoint();
    let mut resharded = cfg.clone();
    resharded.threads = 4;
    assert!(restore_network(&resharded, &bytes).is_ok());
}

/// Where a checkpoint's checksum lives: the eight bytes after magic and
/// version.
const CHECKSUM: std::ops::Range<usize> = 6..14;

/// Re-seal crafted bytes: write the FNV-1a 64 checksum of everything
/// after the checksum field, so the restorer reaches the checks past it.
fn reseal(bytes: &mut [u8]) {
    let mut h = Fnv1a::standard();
    h.write(&bytes[CHECKSUM.end..]);
    bytes[CHECKSUM].copy_from_slice(&h.finish().to_le_bytes());
}

#[test]
fn every_bit_flip_is_refused() {
    // The checksum covers every byte after itself, header fields and
    // body alike, and FNV-1a's odd multiplier makes each step one-to-one:
    // any single-bit flip must be refused, by the magic, the version or
    // the checksum, before the header's fields are checked or the body
    // is decoded.
    let (cfg, bytes) = some_checkpoint();
    assert!(restore_network(&cfg, &bytes).is_ok());
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut b = bytes.clone();
            b[pos] ^= 1 << bit;
            match (pos, restore_network(&cfg, &b)) {
                (0..=3, Err(CheckpointError::BadMagic)) => {}
                (4..=5, Err(CheckpointError::WrongVersion { .. })) => {}
                (6.., Err(CheckpointError::Corrupt("checksum mismatch"))) => {}
                (_, Err(other)) => panic!("byte {pos} bit {bit}: unexpected error {other}"),
                (_, Ok(_)) => panic!("byte {pos} bit {bit}: altered checkpoint accepted"),
            }
        }
    }
}

#[test]
fn garbage_bodies_error_cleanly() {
    let (cfg, bytes) = some_checkpoint();
    // Flip bytes throughout the body and re-seal the checksum, so the
    // decoder itself meets the garbage; any outcome but a panic or an
    // accepted-but-different run is fine, and most flips must be caught.
    let header_len = 4 + 2 + 8 + 8 + 8; // magic + version + checksum + seed + fingerprint
    let mut caught = 0usize;
    let mut tried = 0usize;
    for pos in (header_len..bytes.len()).step_by(11) {
        let mut b = bytes.clone();
        b[pos] ^= 0xA5;
        reseal(&mut b);
        tried += 1;
        match restore_network(&cfg, &b) {
            Err(_) => caught += 1,
            Ok(restored) => {
                // A flip the decoder structurally tolerated (e.g. inside
                // an RNG word) — it must still finish without panicking.
                let mut net = restored.net;
                let _ = drive_with_checkpoints(&mut net, &cfg, restored.seed, None, &mut |_, _| {});
            }
        }
    }
    assert!(tried > 20, "sweep too small: {tried}");
    assert!(
        caught * 2 > tried,
        "only {caught}/{tried} corruptions were caught as typed errors"
    );
    // Pure noise never parses.
    let noise: Vec<u8> = (0..256u32).map(|i| (i * 37 + 11) as u8).collect();
    assert!(restore_network(&cfg, &noise).is_err());
    assert!(restore_network(&cfg, &[]).is_err());
    assert!(checkpoint::peek_header(&noise).is_err());
}

/// Offset of agent 0's intent list in a snapshot of `(cfg, seed)`: the
/// first entry of the intent pool, which follows the metrics, the
/// reserved op-log byte and the pool's list count.
fn own_list_at(cfg: &RunConfig, seed: u64, bytes: &[u8]) -> usize {
    let net = build_network_slots(cfg, seed, &mut honest_slot_factory);
    let own = net.agent(0).core().intent_list();
    let mut list = Vec::new();
    put_varint(&mut list, own.len() as u64);
    for e in own.iter() {
        put_varint(&mut list, e.value);
        put_varint(&mut list, e.target as u64);
    }
    bytes
        .windows(list.len())
        .position(|w| w == list.as_slice())
        .expect("agent 0's intent list is pooled")
}

/// Offset of a checkpoint's engine section. It follows the header:
/// magic, version, checksum, seed, fingerprint, varint n, varint round.
fn engine_offset(bytes: &[u8]) -> usize {
    let h = peek_header(bytes).expect("header");
    4 + 2 + 8 + 8 + 8 + varint_len(h.n as u64) + varint_len(h.round as u64)
}

#[test]
fn engine_states_the_config_cannot_hold_are_corrupt() {
    // Snapshots that pass every lexical check and match the config's `n`
    // and fingerprint, but carry a state the config rules out. Each must
    // be a typed `Corrupt`, not a panic inside the network or a run that
    // cannot happen. The engine section is: varint scenario cursor, n
    // down bits, partition tag (+ n sides), loss tag (+ four u64 words).
    // Each crafted snapshot is re-sealed, so the checksum passes and the
    // check under test is the one that refuses it.
    let expect_corrupt = |label: &str, cfg: &RunConfig, b: &[u8]| {
        let mut b = b.to_vec();
        reseal(&mut b);
        match restore_network(cfg, &b) {
            Err(CheckpointError::Corrupt("checksum mismatch")) => {
                panic!("{label}: refused by the checksum, not by the check under test")
            }
            Err(CheckpointError::Corrupt(_)) => {}
            Err(other) => panic!("{label}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{label}: accepted"),
        }
    };
    let (cfg, bytes) = some_checkpoint();
    let cursor = engine_offset(&bytes);

    // A round past the end of the run (the header's last varint).
    let end = 4 * cfg.params().q;
    assert!(peek_header(&bytes).expect("header").round < 0x7f && end < 0x7f);
    let mut b = bytes.clone();
    b[cursor - 1] = 0x7f;
    expect_corrupt("round past the end", &cfg, &b);

    // A scenario cursor past the end of the (empty) script.
    assert_eq!(bytes[cursor], 0, "static row: cursor 0");
    let mut b = bytes.clone();
    b[cursor] = 1;
    expect_corrupt("cursor past script", &cfg, &b);

    // Loss-stream words for a config without loss.
    let loss_tag = cursor + 1 + cfg.n.div_ceil(8) + 1;
    assert_eq!(bytes[loss_tag - 1], 0, "no partition cut");
    assert_eq!(bytes[loss_tag], 0, "no loss stream");
    let mut b = bytes.clone();
    b[loss_tag] = 1;
    b.splice(loss_tag + 1..loss_tag + 1, [0x5au8; 32]);
    expect_corrupt("loss words without loss", &cfg, &b);

    // A plan-faulty agent marked up (agent 0 under low-id placement).
    let faulty = RunConfig::builder(24)
        .gamma(3.0)
        .colors(vec![12, 12])
        .faults(0.25, Placement::LowIds)
        .build();
    let base = straight_with_snapshots(&faulty, 1, cadence(&faulty));
    let snap = &base.snapshots[1].1;
    let down = engine_offset(snap) + 1;
    assert_eq!(snap[down] & 1, 1, "agent 0 is plan-faulty");
    let mut b = snap.clone();
    b[down] &= !1;
    expect_corrupt("plan fault up", &faulty, &b);

    // An agent's own intent target outside the network (its vote push
    // would address no agent).
    let net = build_network_slots(&cfg, 1, &mut honest_slot_factory);
    let own = net.agent(0).core().intent_list();
    let at = own_list_at(&cfg, 1, &bytes);
    let first = own.iter().next().expect("non-empty list");
    let target = at + varint_len(own.len() as u64) + varint_len(first.value);
    assert_eq!(bytes[target] as u32, first.target, "one-byte target varint");
    let mut b = bytes.clone();
    b[target] = 100;
    expect_corrupt("intent target outside", &cfg, &b);
}

#[test]
fn a_nonzero_op_log_count_is_corrupt() {
    // Format 2 reserves a byte after the metrics for an op-log count.
    // The engine keeps no op log, so the byte is written as 0, and a
    // re-sealed snapshot with any other value there is refused.
    let (cfg, bytes) = some_checkpoint();
    let count = own_list_at(&cfg, 1, &bytes) - 2;
    assert_eq!(bytes[count + 1] as usize, cfg.n, "one pooled list per agent");
    assert_eq!(bytes[count], 0, "the op-log count is written as 0");
    for v in [1u8, 0x7f] {
        let mut b = bytes.clone();
        b[count] = v;
        reseal(&mut b);
        match restore_network(&cfg, &b) {
            Err(CheckpointError::Corrupt("op-log section is not empty")) => {}
            Err(other) => panic!("op-log count {v}: expected Corrupt, got {other}"),
            Ok(_) => panic!("op-log count {v}: accepted"),
        }
    }
}
