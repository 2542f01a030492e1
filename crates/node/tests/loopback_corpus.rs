//! The node is the simulator: a loopback session's decisions equal
//! `run_protocol_async` on the configuration both endpoints derive, and
//! every endpoint's wire output is pinned byte for byte.
//!
//! Each row runs both endpoints over a Unix socketpair with every
//! written byte folded into an FNV-1a hash, then checks:
//! - both endpoints' `decisions` equal `run_protocol_async(cfg, seed, 3)`;
//! - `ticks` equals the simulator's tick count;
//! - the pinned `digest`, each endpoint's `msgs_sent` and `bytes_sent`,
//!   and each endpoint's written-byte hash.

use rfc_core::{run_protocol_async, RunConfig};
use rfc_node::{run_session, NodeParams, SessionReport, Side};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;

const GAMMA: f64 = 3.0;
const SLACK: usize = 3;

/// A stream that hashes (FNV-1a) every byte written through it.
struct Hashing<S> {
    inner: S,
    fnv: u64,
}

impl<S> Hashing<S> {
    fn new(inner: S) -> Self {
        Hashing {
            inner,
            fnv: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl<S: Read> Read for Hashing<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Hashing<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let k = self.inner.write(buf)?;
        for &b in &buf[..k] {
            self.fnv ^= b as u64;
            self.fnv = self.fnv.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(k)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One pinned session: `(n, seed, digest, msgs_sent, bytes_sent,
/// written-byte FNV-1a)`, each pair as `[low, high]`.
type Row = (usize, u64, u64, [u64; 2], [u64; 2], [u64; 2]);

/// Captured before the node ran on the simulator's `Network`.
#[rustfmt::skip]
const CORPUS: [Row; 36] = [
    (4, 0, 0x83bc82a00de6a725, [195, 189], [2010, 2104], [0xed3d5c8e2825d99f, 0x6e03dc45daa22450]),
    (4, 1, 0x83bc82a00de6a725, [183, 201], [1750, 1812], [0x8823056be32a39a9, 0x2b6233766cd6573e]),
    (4, 2, 0xc2cbeab6dd900f25, [192, 192], [2322, 1712], [0x33e2771d73ceb96c, 0x1dac13a33dd316df]),
    (4, 3, 0xc2cbeab6dd900f25, [185, 199], [1791, 1985], [0x7242525cac33097e, 0x4a8d935ba97f9a7c]),
    (4, 4, 0xc2cbeab6dd900f25, [216, 168], [2456, 2159], [0xffe921591482e196, 0xf17d75e66eba9fac]),
    (4, 5, 0xc2cbeab6dd900f25, [191, 193], [1873, 1897], [0x6ac444e1af75d1fa, 0x2360d41c9e712de0]),
    (5, 0, 0xdbc27a7a1ded63e2, [298, 422], [4707, 4845], [0xf9fd19a518715260, 0x1f54d49185573382]),
    (5, 1, 0x0716c23c591d1603, [266, 454], [3681, 4251], [0x54433ebe849cc69c, 0xfaf61d0e024e74ee]),
    (5, 2, 0xdbc27a7a1ded63e2, [309, 411], [5614, 5066], [0xee717ba1d6e2e598, 0x45674dddbf7d64a2]),
    (5, 3, 0x0716c23c591d1603, [294, 426], [4089, 3802], [0xd558875d79d2ef1c, 0xfaee5522a9416534]),
    (5, 4, 0x0716c23c591d1603, [278, 442], [5501, 5707], [0xe884136fad1d44d4, 0x124e20bd931a00e9]),
    (5, 5, 0x0716c23c591d1603, [291, 429], [4029, 4447], [0xd854e205b886ce2f, 0x436bf0100e9b1eaa]),
    (8, 0, 0x73324823f0659825, [593, 559], [8290, 8333], [0xe888eb2a39f166f3, 0xb099f7462e9c4049]),
    (8, 1, 0x73324823f0659825, [608, 544], [9044, 8596], [0xced91253177e34c0, 0x6017498512b7501a]),
    (8, 2, 0x73324823f0659825, [596, 556], [7211, 8290], [0x3702333c43079643, 0xc458d0062c39c051]),
    (8, 3, 0x73324823f0659825, [590, 562], [9149, 9126], [0x75eadb3ab11fa6e4, 0x1fc67807bf87746f]),
    (8, 4, 0x73324823f0659825, [542, 610], [10027, 9274], [0xbcba6cae5b17bc82, 0xa6857d5b66ada349]),
    (8, 5, 0x842508dff9d46825, [549, 603], [8507, 8649], [0xab370df1500c057e, 0x52ce3716dd1a8f14]),
    (16, 0, 0x6803c14f9c7cf925, [1555, 1517], [31487, 31302], [0xf10d98dd92ea5410, 0x32f7db0a1cb9b597]),
    (16, 1, 0x6803c14f9c7cf925, [1536, 1536], [32627, 32583], [0xfda5e4c06a38b405, 0xd7f06235b02f4fa9]),
    (16, 2, 0xe7f3a0da392f5925, [1494, 1578], [27608, 30330], [0xfaccd7f755db5238, 0x2b9a90095a7bf38f]),
    (16, 3, 0xe7f3a0da392f5925, [1493, 1579], [22443, 24604], [0x1bd403b833f481bc, 0xc7b2d67728b60cab]),
    (16, 4, 0xe7f3a0da392f5925, [1539, 1533], [30829, 31397], [0x7fe17444ab4cc957, 0x7372f6c2e391a156]),
    (16, 5, 0xe7f3a0da392f5925, [1548, 1524], [29608, 30108], [0x1179d3672cbd212f, 0xac0ccccb8ec71fef]),
    (33, 0, 0xa6a5fbf70df26367, [4639, 4865], [124718, 127566], [0x5254623835f78346, 0x7778f5092fcc1f58]),
    (33, 1, 0xa6a5fbf70df26367, [4514, 4990], [120451, 122407], [0x696222892681d8aa, 0x6cdb0eb45aa9eb9c]),
    (33, 2, 0x8149f25cefefd946, [4590, 4914], [129628, 127058], [0xcf760d357a00599a, 0xf5122bb1ffcb9af5]),
    (33, 3, 0xa6a5fbf70df26367, [4688, 4816], [138710, 133667], [0x59105937a3e036ce, 0x2e2167e28ea00d95]),
    (33, 4, 0xa6a5fbf70df26367, [4601, 4903], [127730, 128471], [0x05b9862672ec9384, 0x9d10ce3c6de33a98]),
    (33, 5, 0xa6a5fbf70df26367, [4662, 4842], [153904, 152878], [0x87b276f058a789b3, 0x015c2ffbb7393f16]),
    (64, 0, 0x420486f6afb71925, [9197, 9235], [297191, 283763], [0x236dcf6abda2bf52, 0xa70390745cba6c0b]),
    (64, 1, 0x3d4b4f7816555925, [9055, 9377], [311362, 318091], [0x0dc8b7248109d8f1, 0x9753c554c9149bc4]),
    (64, 2, 0x3d4b4f7816555925, [9304, 9128], [225295, 216665], [0x3d8e70154f070fbb, 0x4ce29f0006aad71f]),
    (64, 3, 0x420486f6afb71925, [9261, 9171], [294041, 280074], [0x5ae6acd4f77ebde3, 0xcb0069d84f01c216]),
    (64, 4, 0x420486f6afb71925, [9210, 9222], [282826, 272080], [0x250531302bd4514a, 0x7239a0a7d1b1cb98]),
    (64, 5, 0x420486f6afb71925, [9237, 9195], [198970, 196171], [0x3ff0458b7b3c1ac1, 0x327b7b7f1f201657]),
];

/// Run both endpoints over a socketpair; returns each endpoint's report
/// and written-byte hash, low first.
fn session(np: &NodeParams) -> [(SessionReport, u64); 2] {
    let (a, b) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        let high = scope.spawn(|| {
            let mut sock = Hashing::new(b);
            let r = run_session(&mut sock, Side::High, np).expect("high endpoint");
            (r, sock.fnv)
        });
        let mut sock = Hashing::new(a);
        let low = run_session(&mut sock, Side::Low, np).expect("low endpoint");
        [(low, sock.fnv), high.join().expect("high endpoint thread")]
    })
}

#[test]
fn loopback_sessions_match_the_simulator_byte_for_byte() {
    for &(n, seed, digest, msgs, bytes, fnv) in &CORPUS {
        let np = NodeParams {
            n,
            gamma: GAMMA,
            seed,
            slack: SLACK,
        };
        let cfg = RunConfig::builder(n)
            .gamma(GAMMA)
            .colors(vec![n - n / 2, n / 2])
            .build();
        let reference = run_protocol_async(&cfg, seed, SLACK);
        let [(low, low_fnv), (high, high_fnv)] = session(&np);
        let row = format!("n={n} seed={seed}");
        for r in [&low, &high] {
            assert_eq!(r.decisions, reference.decisions, "{row}: decisions");
            assert_eq!(r.ticks, reference.metrics.ticks, "{row}: ticks");
            assert_eq!(r.digest, digest, "{row}: digest");
        }
        assert_eq!([low.msgs_sent, high.msgs_sent], msgs, "{row}: msgs_sent");
        assert_eq!(
            [low.bytes_sent, high.bytes_sent],
            bytes,
            "{row}: bytes_sent"
        );
        assert_eq!([low_fnv, high_fnv], fnv, "{row}: written bytes");
    }
}

#[test]
fn endpoint_pools_grow_with_distinct_payloads_not_traffic() {
    // Each of the n agents owns one list and one certificate, so no
    // endpoint may hold more, however many copies cross the socket
    // (about n·q certificates per session).
    let n = 64;
    let np = NodeParams {
        n,
        gamma: GAMMA,
        seed: 3,
        slack: SLACK,
    };
    for (r, _) in session(&np) {
        assert!(r.msgs_sent > 4 * n as u64, "the session moved real traffic");
        assert!(r.pool_lists <= n, "{} lists held", r.pool_lists);
        assert!(r.pool_certs <= n, "{} certificates held", r.pool_certs);
        assert!(
            r.pool_lists >= n / 2,
            "at least the hosted agents' own lists"
        );
    }
}
