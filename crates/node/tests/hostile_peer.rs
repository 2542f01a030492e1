//! A peer that answers Hello and then misbehaves must end the session in
//! an `Err`, never a panic.
//!
//! The test plays a scripted High endpoint against a real Low endpoint.
//! The seed is picked so the first wake is High-hosted: Low's first read
//! after the handshake is the tick packet the script replaces.

use gossip_net::ids::AgentId;
use gossip_net::rng::DetRng;
use rfc_core::{Msg, Params, PayloadPool, SCHEDULER_STREAM};
use rfc_node::{read_packet, run_session, write_packet, NodeParams, Packet, Side};
use std::io::{self, ErrorKind};
use std::os::unix::net::UnixStream;

const N: usize = 16;

/// Session parameters whose first wake is an agent the High side hosts.
fn high_first_params() -> NodeParams {
    let seed = (0..)
        .find(|&seed| DetRng::seeded(seed, SCHEDULER_STREAM).index(N) >= N / 2)
        .expect("some seed wakes a High agent first");
    NodeParams {
        n: N,
        gamma: 3.0,
        seed,
        slack: 3,
    }
}

/// Run Low against a High peer that completes the handshake, writes
/// `script` and hangs up; returns Low's error.
fn low_against(script: Vec<Packet>) -> io::Error {
    let np = high_first_params();
    let (low, mut peer) = UnixStream::pair().expect("socketpair");
    let hello = Packet::Hello {
        fingerprint: np.fingerprint(),
        side: 1,
    };
    let peer = std::thread::spawn(move || -> io::Result<()> {
        match read_packet(&mut peer)? {
            Packet::Hello { .. } => {}
            other => panic!("expected Low's Hello, got {other:?}"),
        }
        write_packet(&mut peer, &hello)?;
        for pkt in &script {
            write_packet(&mut peer, pkt)?;
        }
        Ok(())
    });
    let session = run_session(low, Side::Low, &np);
    peer.join().expect("peer thread").expect("peer script");
    session.expect_err("a hostile peer must fail the session")
}

/// The pool a scripted message's payload is encoded from (the scripts
/// send payload-free messages, so any pool does).
fn pool() -> PayloadPool {
    PayloadPool::new(Params::new(N, 3.0), 0)
}

/// Agent ids Low must refuse: out of range, or on the peer's own half.
const BAD_IDS: [AgentId; 3] = [N as AgentId, AgentId::MAX, N as AgentId - 1];

#[test]
fn push_to_an_agent_not_hosted_here_is_invalid_data() {
    for to in BAD_IDS {
        let msg = Msg::Vote { value: 1, round: 0 };
        let err = low_against(vec![Packet::push(to, &msg, &pool())]);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "push to {to}: {err}");
    }
}

#[test]
fn query_to_an_agent_not_hosted_here_is_invalid_data() {
    for to in BAD_IDS {
        let err = low_against(vec![Packet::query(to, &Msg::QIntent, &pool())]);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "query to {to}: {err}");
    }
}

#[test]
fn a_tick_whose_frame_does_not_decode_is_invalid_data() {
    let Packet::TickPush { frame, .. } = Packet::push(0, &Msg::QMinCert, &pool()) else {
        unreachable!("push builds a TickPush");
    };
    for bad in [
        Vec::new(),
        frame[..frame.len() - 1].to_vec(),
        [frame.as_slice(), &[0]].concat(),
    ] {
        let err = low_against(vec![Packet::TickPush {
            to: 0,
            frame: bad.clone(),
        }]);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "frame {bad:?}: {err}");
    }
}

#[test]
fn a_non_tick_packet_where_a_tick_is_due_is_invalid_data() {
    let np = high_first_params();
    for pkt in [
        Packet::Summary {
            decisions: vec![(N as AgentId - 1, Some(0))],
        },
        Packet::Hello {
            fingerprint: np.fingerprint(),
            side: 1,
        },
    ] {
        let err = low_against(vec![pkt.clone()]);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{pkt:?}: {err}");
    }
}

#[test]
fn a_hang_up_after_hello_is_unexpected_eof() {
    let err = low_against(Vec::new());
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
}
