//! The node-to-node packet layer.
//!
//! One lockstep session exchanges **packets**; protocol messages inside
//! packets travel as full `rfc_core::codec` frames (magic, version,
//! kind, length — the same bytes a standalone capture of the socket
//! would have to parse). A packet holds its message as that frame: a
//! message names its payload in the sender's payload pool, so it is
//! encoded through that pool ([`Packet::push`], [`Packet::query`],
//! [`Packet::reply`]) and decoded into the receiver's ([`read_msg_frame`]),
//! while this layer only delimits bytes. Packet layout:
//!
//! ```text
//! packet := type (1 byte) | varint body_len | body
//! ```
//!
//! | type | packet | body |
//! |---|---|---|
//! | `0` | `Hello`       | varint fingerprint, side byte |
//! | `1` | `TickNothing` | — (the tick owner acted locally or not at all) |
//! | `2` | `TickPush`    | varint to, codec frame |
//! | `3` | `TickQuery`   | varint to, codec frame |
//! | `4` | `Reply`       | `0` \| `1` + codec frame |
//! | `5` | `Summary`     | varint count, count × (varint id, decision) |
//!
//! A decision is `0` (failed) or `1` followed by a varint color.

use gossip_net::ids::{AgentId, ColorId};
use rfc_core::codec::{self, CodecError, Reader};
use rfc_core::msg::Msg;
use rfc_core::payload::PayloadPool;
use std::io::{self, Read, Write};

/// One lockstep packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Handshake: both sides must derive the same session fingerprint
    /// from their CLI parameters, and must sit on opposite sides.
    Hello {
        /// Fingerprint of `(n, γ, seed, slack, wire version)`.
        fingerprint: u64,
        /// `0` = low half (serve), `1` = high half (join).
        side: u8,
    },
    /// The tick owner performed no cross-process communication.
    TickNothing,
    /// The tick owner pushed a message to the peer-hosted agent `to`.
    TickPush {
        /// The receiving agent (hosted by the packet's receiver).
        to: AgentId,
        /// The pushed message's codec frame.
        frame: Vec<u8>,
    },
    /// The tick owner pulls the peer-hosted agent `to`; a [`Packet::Reply`]
    /// must come back before the tick completes.
    TickQuery {
        /// The pullee (hosted by the packet's receiver).
        to: AgentId,
        /// The query message's codec frame.
        frame: Vec<u8>,
    },
    /// The pull reply (`None` = the pullee stayed silent).
    Reply {
        /// The reply message's codec frame, if the pullee produced one.
        reply: Option<Vec<u8>>,
    },
    /// Terminal exchange: the sender's local agents' decisions.
    Summary {
        /// `(agent id, terminal color or failure)` for every hosted agent.
        decisions: Vec<(AgentId, Option<ColorId>)>,
    },
}

const PKT_HELLO: u8 = 0;
const PKT_TICK_NOTHING: u8 = 1;
const PKT_TICK_PUSH: u8 = 2;
const PKT_TICK_QUERY: u8 = 3;
const PKT_REPLY: u8 = 4;
const PKT_SUMMARY: u8 = 5;

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// A codec error as the session's I/O error.
pub fn codec_err(e: CodecError) -> io::Error {
    bad(format!("wire codec: {e}"))
}

/// `msg`'s codec frame, its payload read from `pool`.
fn frame(msg: &Msg, pool: &PayloadPool) -> Vec<u8> {
    let mut out = Vec::new();
    codec::encode_msg_frame(msg, pool, &mut out);
    out
}

impl Packet {
    /// The push of `msg` to the peer-hosted agent `to`.
    pub fn push(to: AgentId, msg: &Msg, pool: &PayloadPool) -> Packet {
        Packet::TickPush {
            to,
            frame: frame(msg, pool),
        }
    }

    /// The pull of the peer-hosted agent `to` with `query`.
    pub fn query(to: AgentId, query: &Msg, pool: &PayloadPool) -> Packet {
        Packet::TickQuery {
            to,
            frame: frame(query, pool),
        }
    }

    /// The reply to a pull (`None` = silence).
    pub fn reply(reply: Option<&Msg>, pool: &PayloadPool) -> Packet {
        Packet::Reply {
            reply: reply.map(|msg| frame(msg, pool)),
        }
    }
}

/// Serialize `pkt` into `out` (appended).
pub fn encode_packet(pkt: &Packet, out: &mut Vec<u8>) {
    let mut body = Vec::new();
    let ty = match pkt {
        Packet::Hello { fingerprint, side } => {
            codec::put_varint(&mut body, *fingerprint);
            body.push(*side);
            PKT_HELLO
        }
        Packet::TickNothing => PKT_TICK_NOTHING,
        Packet::TickPush { to, frame } => {
            codec::put_varint(&mut body, *to as u64);
            body.extend_from_slice(frame);
            PKT_TICK_PUSH
        }
        Packet::TickQuery { to, frame } => {
            codec::put_varint(&mut body, *to as u64);
            body.extend_from_slice(frame);
            PKT_TICK_QUERY
        }
        Packet::Reply { reply } => {
            match reply {
                None => body.push(0),
                Some(frame) => {
                    body.push(1);
                    body.extend_from_slice(frame);
                }
            }
            PKT_REPLY
        }
        Packet::Summary { decisions } => {
            codec::put_varint(&mut body, decisions.len() as u64);
            for (id, d) in decisions {
                codec::put_varint(&mut body, *id as u64);
                match d {
                    None => body.push(0),
                    Some(c) => {
                        body.push(1);
                        codec::put_varint(&mut body, *c as u64);
                    }
                }
            }
            PKT_SUMMARY
        }
    };
    out.push(ty);
    codec::put_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Write one packet and flush (lockstep turns require the bytes out now).
pub fn write_packet<W: Write>(w: &mut W, pkt: &Packet) -> io::Result<usize> {
    let mut buf = Vec::new();
    encode_packet(pkt, &mut buf);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(buf.len())
}

/// The body-length varint, read from the stream byte by byte (at most
/// the ten bytes a `u64` varint can take) and parsed by the codec.
fn read_len_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 10];
    let mut len = 0;
    loop {
        r.read_exact(&mut buf[len..=len])?;
        len += 1;
        if buf[len - 1] & 0x80 == 0 || len == buf.len() {
            break;
        }
    }
    Reader::new(&buf[..len]).varint().map_err(codec_err)
}

/// Upper bound on a packet body: a `Summary` for the largest plausible
/// network plus slack. Anything bigger is a corrupt length, not a
/// message — refuse before allocating.
const MAX_BODY: u64 = 64 << 20;

/// Decode a packet's frame, which must be exactly one codec frame
/// carrying one instance-0 message; its payload is interned into `pool`.
pub fn read_msg_frame(frame: &[u8], pool: &PayloadPool) -> Result<Msg, CodecError> {
    let mut r = Reader::new(frame);
    let mut parts = codec::read_frame(&mut r, pool)?.into_parts();
    r.finish("trailing bytes after the packet's frame")?;
    if parts.len() != 1 || parts[0].instance != 0 {
        return Err(CodecError::Corrupt(
            "node packets carry single-instance frames",
        ));
    }
    Ok(parts.remove(0).payload)
}

/// Parse one packet body of type `ty`.
fn decode_body(ty: u8, body: &[u8]) -> Result<Packet, CodecError> {
    const AGENT: &str = "agent id exceeds u32";
    let mut r = Reader::new(body);
    // A message frame runs to the end of its packet body.
    let frame = |r: &mut Reader| r.take(body.len() - r.pos()).map(<[u8]>::to_vec);
    let pkt = match ty {
        PKT_HELLO => Packet::Hello {
            fingerprint: r.varint()?,
            side: r.u8()?,
        },
        PKT_TICK_NOTHING => Packet::TickNothing,
        PKT_TICK_PUSH => Packet::TickPush {
            to: r.int(AGENT)?,
            frame: frame(&mut r)?,
        },
        PKT_TICK_QUERY => Packet::TickQuery {
            to: r.int(AGENT)?,
            frame: frame(&mut r)?,
        },
        PKT_REPLY => Packet::Reply {
            reply: match r.u8()? {
                0 => None,
                1 => Some(frame(&mut r)?),
                _ => return Err(CodecError::Corrupt("reply flag must be 0 or 1")),
            },
        },
        PKT_SUMMARY => {
            let count = r.count()?;
            let mut decisions = Vec::with_capacity(count);
            for _ in 0..count {
                let id: AgentId = r.int(AGENT)?;
                let d: Option<ColorId> = match r.u8()? {
                    0 => None,
                    1 => Some(r.int("color exceeds u32")?),
                    _ => return Err(CodecError::Corrupt("decision flag must be 0 or 1")),
                };
                decisions.push((id, d));
            }
            Packet::Summary { decisions }
        }
        _ => return Err(CodecError::Corrupt("unknown packet type")),
    };
    r.finish("trailing bytes after packet body")?;
    Ok(pkt)
}

/// Read one packet (blocking until it fully arrives).
pub fn read_packet<R: Read>(r: &mut R) -> io::Result<Packet> {
    let mut ty = [0u8; 1];
    r.read_exact(&mut ty)?;
    let len = read_len_varint(r)?;
    if len > MAX_BODY {
        return Err(bad(format!("packet body of {len} bytes exceeds cap")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_body(ty[0], &body).map_err(codec_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_core::params::Params;

    fn pool() -> PayloadPool {
        PayloadPool::new(Params::new(16, 3.0), 0)
    }

    fn roundtrip(pkt: Packet) {
        let mut buf = Vec::new();
        encode_packet(&pkt, &mut buf);
        let back = read_packet(&mut buf.as_slice()).expect("round trip");
        assert_eq!(back, pkt);
    }

    #[test]
    fn packets_round_trip() {
        let pool = pool();
        roundtrip(Packet::Hello { fingerprint: 0xDEAD_BEEF, side: 1 });
        roundtrip(Packet::TickNothing);
        roundtrip(Packet::push(
            7,
            &Msg::Vote {
                value: 300,
                round: 2,
            },
            &pool,
        ));
        roundtrip(Packet::query(1, &Msg::QIntent, &pool));
        roundtrip(Packet::Reply { reply: None });
        roundtrip(Packet::reply(Some(&Msg::QMinCert), &pool));
        roundtrip(Packet::Summary {
            decisions: vec![(0, Some(3)), (1, None), (2, Some(0))],
        });
    }

    #[test]
    fn truncated_packets_error_cleanly() {
        let mut buf = Vec::new();
        encode_packet(
            &Packet::push(3, &Msg::Vote { value: 9, round: 1 }, &pool()),
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert!(read_packet(&mut &buf[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn frames_decode_into_the_receivers_pool() {
        use rfc_core::certificate::CertData;
        let (sender, receiver) = (pool(), pool());
        let cert = sender.insert_cert(CertData::build(3, 1, vec![], 4096));
        let Packet::Reply { reply: Some(frame) } =
            Packet::reply(Some(&sender.cert_msg(cert)), &sender)
        else {
            panic!("a reply with a message");
        };
        let got = read_msg_frame(&frame, &receiver).expect("decodes");
        let Msg::Cert { cert: back, .. } = got else {
            panic!("a certificate, got {got:?}");
        };
        assert_eq!(receiver.cert(back), sender.cert(cert));
        // A second copy is the same entry, and garbage is an error.
        assert_eq!(read_msg_frame(&frame, &receiver).unwrap(), got);
        assert_eq!(receiver.cert_count(), 1);
        assert!(read_msg_frame(&frame[..frame.len() - 1], &receiver).is_err());
        let mut padded = frame.clone();
        padded.push(0);
        assert!(read_msg_frame(&padded, &receiver).is_err());
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        // type byte + varint(huge): must refuse, not try to allocate.
        let mut buf = vec![PKT_SUMMARY];
        codec::put_varint(&mut buf, u64::MAX / 2);
        assert!(read_packet(&mut buf.as_slice()).is_err());
        // A length varint longer than any u64's is refused after its
        // tenth byte, not read on.
        let mut buf = vec![PKT_SUMMARY];
        buf.extend_from_slice(&[0xff; 12]);
        let err = read_packet(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
