//! Verification soundness under randomized tampering.
//!
//! The equilibrium rests on one mechanism: any discrepancy between the
//! winning certificate and what agents committed to is caught by *some*
//! honest verifier. These property tests drive a real protocol run to
//! completion, then apply randomized mutations to the agreed certificate
//! and check that the verifier set rejects every mutation that touches
//! verifiable state — and accepts the genuine certificate.

use gossip_net::rng::DetRng;
use proptest::prelude::*;
use rfc_core::certificate::{CertData, VoteRec};
use rfc_core::engine::{ConsensusAgent, ProtocolCore};
use rfc_core::runner::{build_network_slots, drive_network, honest_slot_factory, RunConfig};
use rfc_core::Params;

/// Run a full honest protocol and harvest (verifier cores, winning cert).
/// The cores keep their network's payload pool.
fn finished_run(n: usize, seed: u64) -> (Vec<ProtocolCore>, CertData) {
    let cfg = RunConfig::builder(n).gamma(3.0).colors(vec![n - n / 2, n / 2]).build();
    let mut net = build_network_slots(&cfg, seed, &mut honest_slot_factory);
    drive_network(&mut net, &cfg);
    let cert = net
        .agent(0)
        .core()
        .min_cert_data()
        .cloned()
        .expect("agent 0 holds a certificate");
    let cores: Vec<ProtocolCore> = (0..n as u32)
        .map(|id| net.agent(id).core().clone())
        .collect();
    (cores, cert)
}

/// Re-run Verification of `cert` against every agent's ledger/self-votes;
/// count rejections.
fn rejections(cores: &[ProtocolCore], cert: &CertData) -> usize {
    let cert = cores[0].pool().insert_cert(cert.clone());
    cores
        .iter()
        .filter(|core| {
            let mut c = (*core).clone();
            c.failed = false;
            c.verify_failure = None;
            c.decided = None;
            c.min_cert = Some(cert);
            c.finalize_honest();
            c.decision().is_none()
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The genuine winning certificate passes every verifier.
    #[test]
    fn genuine_certificate_verifies_everywhere(seed in any::<u64>()) {
        let (cores, cert) = finished_run(24, seed);
        prop_assert_eq!(rejections(&cores, &cert), 0);
    }

    /// Altering any single vote's value is caught by at least one
    /// verifier (whoever pulled that voter, plus the voter itself via the
    /// self-vote check).
    #[test]
    fn value_tampering_is_rejected(seed in any::<u64>(), pick in any::<prop::sample::Index>()) {
        let (cores, cert) = finished_run(24, seed);
        prop_assume!(!cert.votes.is_empty());
        let idx = pick.index(cert.votes.len());
        let mut data = cert.clone();
        let mut v = data.votes.get(idx);
        v.value = (v.value + 1) % cores[0].params.m;
        data.votes.set(idx, v);
        data.k = data.derived_k(cores[0].params.m); // keep the sum check green
        let tampered = data;
        prop_assert!(
            rejections(&cores, &tampered) > 0,
            "no verifier caught a mutated vote value"
        );
    }

    /// Dropping any single vote is caught.
    #[test]
    fn vote_removal_is_rejected(seed in any::<u64>(), pick in any::<prop::sample::Index>()) {
        let (cores, cert) = finished_run(24, seed);
        prop_assume!(!cert.votes.is_empty());
        let idx = pick.index(cert.votes.len());
        let mut data = cert.clone();
        data.votes.remove(idx);
        data.k = data.derived_k(cores[0].params.m);
        let tampered = data;
        prop_assert!(rejections(&cores, &tampered) > 0, "vote removal not caught");
    }

    /// Injecting a fabricated vote from a random agent is caught.
    #[test]
    fn vote_injection_is_rejected(
        seed in any::<u64>(),
        voter in 0u32..24,
        value in any::<u64>(),
    ) {
        let (cores, cert) = finished_run(24, seed);
        let m = cores[0].params.m;
        let mut data = cert.clone();
        data.votes.push(VoteRec {
            voter,
            round: 0,
            value: value % m,
        });
        data.votes.sort_canonical();
        data.votes.dedup();
        data.k = data.derived_k(m);
        let tampered = data;
        // If dedup removed the injection (it collided with a real vote)
        // the cert is genuine again; otherwise it must be rejected.
        if tampered != cert {
            prop_assert!(rejections(&cores, &tampered) > 0, "vote injection not caught");
        }
    }

    /// Lying about k (without touching W) is caught by everyone.
    #[test]
    fn k_lies_are_rejected_by_all(seed in any::<u64>(), delta in 1u64..1000) {
        let (cores, cert) = finished_run(24, seed);
        let m = cores[0].params.m;
        let mut data = cert.clone();
        data.k = (data.k + delta) % m;
        let tampered = data;
        prop_assert_eq!(
            rejections(&cores, &tampered),
            cores.len(),
            "a bad sum must fail at every verifier"
        );
    }

    /// Swapping the color (keeping everything else) is NOT detectable by
    /// the W-checks alone… but it changes the certificate, so Coherence
    /// would catch a split; verification-wise the cert still passes. This
    /// documents the division of labor between phases.
    #[test]
    fn color_swap_passes_verification_but_not_equality(seed in any::<u64>()) {
        let (cores, cert) = finished_run(24, seed);
        let mut data = cert.clone();
        data.color = data.color.wrapping_add(1);
        let recolored = data;
        prop_assert_ne!(&recolored, &cert);
        // Verification alone accepts it (the ledger checks only bind W):
        prop_assert_eq!(rejections(&cores, &recolored), 0);
        // …which is exactly why the Coherence phase exists: an attacker
        // must show the SAME certificate to everyone, and the honest
        // winner's own copy differs ⇒ mismatch ⇒ fail.
    }
}

#[test]
fn verify_failure_kinds_are_accurately_reported() {
    let (cores, cert) = finished_run(24, 5);
    let m = cores[0].params.m;
    // Bad sum.
    let mut bad_sum = cert.clone();
    bad_sum.k = (bad_sum.k + 1) % m;
    let mut c = cores[0].clone();
    c.min_cert = Some(c.pool().insert_cert(bad_sum));
    c.finalize_honest();
    assert_eq!(
        c.verify_failure,
        Some(rfc_core::VerifyFailure::BadSum),
        "k-lie must be classified as BadSum"
    );
}

#[test]
fn every_vote_in_winning_cert_was_declared() {
    // Cross-check the winning certificate against the global truth: all
    // votes in W_min match the voters' actual intention lists.
    let (cores, cert) = finished_run(32, 9);
    for v in cert.votes.iter() {
        let voter_core = &cores[v.voter as usize];
        let intent = voter_core.intent_list()[v.round as usize];
        assert_eq!(intent.value, v.value, "vote value differs from declaration");
        assert_eq!(
            intent.target, cert.owner,
            "vote target differs from declaration"
        );
    }
}

#[test]
fn winning_k_is_minimum_over_active_agents() {
    let (cores, cert) = finished_run(32, 11);
    let min_k = cores
        .iter()
        .filter_map(|c| c.own_cert_data().map(|ce| ce.k))
        .min()
        .unwrap();
    assert_eq!(cert.k, min_k, "Find-Min must deliver the global minimum");
}

#[test]
fn verification_uses_queries_not_trust() {
    // A verifier with an empty ledger accepts anything sum-consistent —
    // the security is collective (union of ledgers), not individual.
    let params = Params::new(16, 2.0);
    let mut lone = ProtocolCore::new(0, params, params.sync_schedule(), 0, DetRng::seeded(1, 0));
    let fake = lone
        .pool()
        .insert_cert(CertData::build(3, 1, vec![], params.m));
    lone.min_cert = Some(fake);
    lone.finalize_honest();
    assert_eq!(lone.decision(), Some(1), "no evidence ⇒ no rejection");
}
