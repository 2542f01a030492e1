//! Shared golden-corpus digest — the single definition of "bit-identical"
//! that both `golden_runs.rs` (static/sequential corpus) and
//! `sharded_engine.rs` (PerAgent corpus) pin against. Keeping one copy is
//! load-bearing: if `RunReport` ever grows a deterministic field, it is
//! added *here* (with a corpus regen) and every suite moves together.

use rfc_core::runner::RunReport;

/// The simulator's digest: FNV-1a's offset basis and xor-multiply step
/// with the multiplier `0x1_0000_01b3`, which is not FNV's prime — the
/// same hash as `rfc_core::Fnv1a::sim_digest`.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest every deterministic field of a [`RunReport`] **that existed
/// before the dynamics subsystem** — keeping this field set frozen is
/// what lets the static rows of `golden_runs.rs` stay the literal
/// pre-dynamics captures. The one post-dynamics meter,
/// `metrics.undelivered`, is pinned as its own column in each corpus
/// instead of being folded into the digest.
pub fn report_digest(r: &RunReport) -> u64 {
    let mut d = Digest::new();
    d.str(&format!("{:?}", r.outcome));
    d.u64(r.rounds as u64);
    d.str(&format!("{:?}", r.winner));
    d.str(&format!("{:?}", r.decisions));
    for &c in &r.initial_colors {
        d.u64(c as u64);
    }
    d.u64(r.n_active as u64);
    d.str(&format!("{:?}", r.verify_failures));
    d.u64(r.metrics.messages_sent);
    d.u64(r.metrics.bits_sent);
    d.u64(r.metrics.max_message_bits);
    d.u64(r.metrics.rounds);
    d.u64(r.metrics.ticks);
    d.u64(r.metrics.max_active_links);
    for (name, t) in &r.metrics.phases {
        d.str(name);
        d.u64(t.messages);
        d.u64(t.bits);
        d.u64(t.max_message_bits);
    }
    d.str(&format!("{:?}", r.audit));
    d.finish()
}
