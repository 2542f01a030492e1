//! The real wire codec: `Msg`/`Batch` as measurable bytes.
//!
//! `gossip_net::size` prices messages in *idealized* information-
//! theoretic bits (fixed field widths, a free first-part batch tag) —
//! the accounting the paper's `O(log² n)` claims are stated in, and the
//! quantity every digest-pinned run meters. This module is the byte
//! format those estimates stand in for: a compact, self-delimiting
//! binary encoding that `rfc-node` puts on real sockets and that the
//! size-honesty tests compare the estimates against.
//!
//! # Message encoding
//!
//! Every message starts with a one-byte variant tag; multi-byte fields
//! are LEB128 varints (the same discipline `rfc_core::checkpoint`
//! uses — small values, the common case, cost one byte):
//!
//! | variant | tag | body |
//! |---|---|---|
//! | `QIntent`  | `0` | — |
//! | `Intents`  | `1` | `len, len × (value, target)` |
//! | `Vote`     | `2` | `value, round` |
//! | `QMinCert` | `3` | — |
//! | `Cert`     | `4` | `k, color, owner, len, len × (voter, round, value)` |
//!
//! # Frames
//!
//! A frame wraps one [`Batch`] for transport:
//!
//! ```text
//! frame := "RW" (2 bytes) | version (1 byte) | kind (1 byte)
//!          | varint body_len | body
//! kind 0 (MSG):   body is one bare message — the batch is the
//!                 singleton `{instance 0, msg}`, its instance tag
//!                 elided exactly as the idealized accounting elides
//!                 the first part's tag (the frame header, not the
//!                 payload, carries the singleton-ness).
//! kind 1 (BATCH): body is `varint count, count × (varint instance,
//!                 msg)`.
//! ```
//!
//! So the overwhelmingly common single-instance payload costs the
//! 4-byte header + `body_len` + the bare message, with no per-part tag
//! — mirroring `msg.rs`'s first-part tag elision byte for byte.
//!
//! # Honesty contract vs the idealized accounting
//!
//! For every honestly-valued message (fields inside the width ranges a
//! [`SizeEnv`] declares), the real encoding satisfies the **documented
//! slack bound**
//!
//! ```text
//! 8·encoded_len(msg) ≤ 8·(1 + Σ_fields ceil(width_f / 7) + len_fields)
//! ```
//!
//! — one byte of tag (vs `TAG_BITS = 3` idealized), `ceil(w/7)` bytes
//! per varint field of idealized width `w` (LEB128's 7-bit payload per
//! byte), and one varint per collection length (a field the idealized
//! accounting gives away for free, bounded by `varint_len(len)` bytes).
//! [`max_encoded_bits`] computes the bound; the per-variant tests (here
//! and in `tests/codec_roundtrip.rs`) assert it, alongside the
//! representability checks (`SizeEnv::covers_*`) that caught the
//! under-priced `for_n` round width.
//!
//! A message names its payload by handle into a
//! [`PayloadPool`]; the bytes carry the payload itself. So encoding reads
//! the body from the pool, and decoding interns it: a payload equal to
//! one the pool already holds comes back as that entry's handle, so a
//! decoder's pool grows with distinct payloads, not with traffic.
//!
//! Decoding arbitrary bytes never panics: truncation, bad magic, wrong
//! version, and lexically invalid fields come back as a typed
//! [`CodecError`]; collection lengths are capped by the bytes actually
//! remaining, so a corrupt count cannot OOM the decoder. Every decoder
//! reads through one [`Reader`], and each payload body (intention list,
//! certificate, vote record) has one writer/reader pair — the
//! `checkpoint` module and `rfc-node`'s packets reuse both.

use crate::certificate::{CertData, VoteLanes, VoteRec};
use crate::msg::{Batch, IntentEntry, Msg};
use crate::payload::PayloadPool;
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::size::SizeEnv;
use std::fmt;

/// Frame magic: "RW" (Rfc Wire).
pub const FRAME_MAGIC: [u8; 2] = *b"RW";
/// Wire format version this build encodes and accepts.
pub const FRAME_VERSION: u8 = 1;

/// Frame kind: one bare message (singleton instance-0 batch, tag elided).
const KIND_MSG: u8 = 0;
/// Frame kind: an explicit multi-part (or non-instance-0) batch.
const KIND_BATCH: u8 = 1;

const TAG_QINTENT: u8 = 0;
const TAG_INTENTS: u8 = 1;
const TAG_VOTE: u8 = 2;
const TAG_QMINCERT: u8 = 3;
const TAG_CERT: u8 = 4;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the structure it promised.
    Truncated,
    /// The frame does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// The frame's version byte is not [`FRAME_VERSION`].
    WrongVersion {
        /// The version byte found on the wire.
        found: u8,
    },
    /// Structurally well-delimited but lexically invalid content.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "wire bytes truncated"),
            CodecError::BadMagic => write!(f, "frame magic mismatch (not an rfc wire frame)"),
            CodecError::WrongVersion { found } => {
                write!(f, "wire format version {found} (this build speaks {FRAME_VERSION})")
            }
            CodecError::Corrupt(what) => write!(f, "corrupt wire bytes: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Varints and the bounds-checked reader
// ---------------------------------------------------------------------

/// Append `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Encoded length of `v` as a varint, in bytes.
pub fn varint_len(v: u64) -> usize {
    ((64 - v.max(1).leading_zeros()) as usize).div_ceil(7)
}

/// A cursor over untrusted bytes that enforces every bound: each read
/// returns its value or a [`CodecError`], never panics, and no count it
/// hands out can exceed the bytes that remain. The wire codec, the
/// checkpoint body and the `rfc-node` packet bodies all parse through it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let rest = &self.bytes[self.pos..];
        let s = rest.get(..len).ok_or(CodecError::Truncated)?;
        self.pos += len;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// A LEB128 varint. Overflow-checked.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Corrupt("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Corrupt("varint too long"));
            }
        }
    }

    /// A varint that must fit `T` (`u16`, `u32`, `usize`); `what` names
    /// the field in the [`CodecError::Corrupt`] it returns otherwise.
    pub fn int<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, CodecError> {
        T::try_from(self.varint()?).map_err(|_| CodecError::Corrupt(what))
    }

    /// A length about to size an allocation or a slice: capped by the
    /// bytes that remain (each element costs at least one byte), so a
    /// corrupt count cannot OOM the decoder.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let v = self.varint()?;
        let remaining = self.bytes.len() - self.pos;
        if v > remaining as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(v as usize)
    }

    /// Require that every byte was consumed; `what` names the trailing
    /// bytes in the [`CodecError::Corrupt`] it returns otherwise.
    pub fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(what))
        }
    }
}

// ---------------------------------------------------------------------
// Payload bodies: one writer/reader pair each
// ---------------------------------------------------------------------

/// Append an intention list: `len, len × (value, target)`.
pub fn write_intents(out: &mut Vec<u8>, list: &[IntentEntry]) {
    put_varint(out, list.len() as u64);
    for e in list.iter() {
        put_varint(out, e.value);
        put_varint(out, e.target as u64);
    }
}

/// Read an intention list written by [`write_intents`].
pub fn read_intents(r: &mut Reader) -> Result<Vec<IntentEntry>, CodecError> {
    let len = r.count()?;
    let mut entries = Vec::with_capacity(len);
    for _ in 0..len {
        let value = r.varint()?;
        let target: AgentId = r.int("intent target exceeds u32")?;
        entries.push(IntentEntry { value, target });
    }
    Ok(entries)
}

/// Append one vote record: `voter, round, value`.
pub fn write_vote_rec(out: &mut Vec<u8>, v: &VoteRec) {
    put_varint(out, v.voter as u64);
    put_varint(out, v.round as u64);
    put_varint(out, v.value);
}

/// Read a vote record written by [`write_vote_rec`].
pub fn read_vote_rec(r: &mut Reader) -> Result<VoteRec, CodecError> {
    Ok(VoteRec {
        voter: r.int("vote voter exceeds u32")?,
        round: r.int("vote-record round exceeds u16")?,
        value: r.varint()?,
    })
}

/// Append a certificate: `k, color, owner, len, len × vote record`.
pub fn write_cert(out: &mut Vec<u8>, cert: &CertData) {
    put_varint(out, cert.k);
    put_varint(out, cert.color as u64);
    put_varint(out, cert.owner as u64);
    put_varint(out, cert.votes.len() as u64);
    for v in cert.votes.iter() {
        write_vote_rec(out, &v);
    }
}

/// Read a certificate written by [`write_cert`]. The bytes are
/// authoritative: no re-sort, no `k` re-derivation — a deviator's
/// ill-formed certificate must arrive as sent so Verification can fail
/// it.
pub fn read_cert(r: &mut Reader) -> Result<CertData, CodecError> {
    let k = r.varint()?;
    let color: ColorId = r.int("cert color exceeds u32")?;
    let owner: AgentId = r.int("cert owner exceeds u32")?;
    let len = r.count()?;
    let mut votes = VoteLanes::with_capacity(len);
    for _ in 0..len {
        votes.push(read_vote_rec(r)?);
    }
    Ok(CertData {
        k,
        votes,
        color,
        owner,
    })
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Append the wire encoding of one message, its payload read from
/// `pool`.
pub fn encode_msg(msg: &Msg, pool: &PayloadPool, out: &mut Vec<u8>) {
    match msg {
        Msg::QIntent => out.push(TAG_QINTENT),
        Msg::QMinCert => out.push(TAG_QMINCERT),
        Msg::Vote { value, round } => {
            out.push(TAG_VOTE);
            put_varint(out, *value);
            put_varint(out, *round as u64);
        }
        Msg::Intents { list, .. } => {
            out.push(TAG_INTENTS);
            write_intents(out, pool.list(*list));
        }
        Msg::Cert { cert, .. } => {
            out.push(TAG_CERT);
            write_cert(out, pool.cert(*cert));
        }
    }
}

/// Decode one message from the front of `bytes`, interning its payload
/// into `pool`; returns the message and the bytes consumed. Trailing
/// bytes are the caller's business (frames delimit; streams decode back
/// to back).
pub fn decode_msg(bytes: &[u8], pool: &PayloadPool) -> Result<(Msg, usize), CodecError> {
    let mut r = Reader::new(bytes);
    let msg = read_msg(&mut r, pool)?;
    Ok((msg, r.pos()))
}

/// Read one message written by [`encode_msg`], interning its payload
/// into `pool`.
pub fn read_msg(r: &mut Reader, pool: &PayloadPool) -> Result<Msg, CodecError> {
    match r.u8()? {
        TAG_QINTENT => Ok(Msg::QIntent),
        TAG_QMINCERT => Ok(Msg::QMinCert),
        TAG_VOTE => Ok(Msg::Vote {
            value: r.varint()?,
            round: r.int("vote round exceeds u16")?,
        }),
        TAG_INTENTS => Ok(pool.list_msg(pool.intern_list(read_intents(r)?))),
        TAG_CERT => Ok(pool.cert_msg(pool.intern_cert(read_cert(r)?))),
        _ => Err(CodecError::Corrupt("unknown message tag")),
    }
}

/// Exact encoded length of one message, without encoding it.
pub fn encoded_msg_len(msg: &Msg, pool: &PayloadPool) -> usize {
    match msg {
        Msg::QIntent | Msg::QMinCert => 1,
        Msg::Vote { value, round } => 1 + varint_len(*value) + varint_len(*round as u64),
        Msg::Intents { list, .. } => {
            let list = pool.list(*list);
            1 + varint_len(list.len() as u64)
                + list
                    .iter()
                    .map(|e| varint_len(e.value) + varint_len(e.target as u64))
                    .sum::<usize>()
        }
        Msg::Cert { cert, .. } => {
            let data = pool.cert(*cert);
            1 + varint_len(data.k)
                + varint_len(data.color as u64)
                + varint_len(data.owner as u64)
                + varint_len(data.votes.len() as u64)
                + data
                    .votes
                    .iter()
                    .map(|v| {
                        varint_len(v.voter as u64)
                            + varint_len(v.round as u64)
                            + varint_len(v.value)
                    })
                    .sum::<usize>()
        }
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Append one framed batch: header, length, body. A singleton
/// instance-0 batch takes the `MSG` kind — its body is bit-for-bit the
/// bare message (the first-part tag elision, realized).
pub fn encode_frame(batch: &Batch<Msg>, pool: &PayloadPool, out: &mut Vec<u8>) {
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    let mut body = Vec::new();
    if batch.len() == 1 && batch.parts()[0].instance == 0 {
        out.push(KIND_MSG);
        encode_msg(&batch.parts()[0].payload, pool, &mut body);
    } else {
        out.push(KIND_BATCH);
        put_varint(&mut body, batch.len() as u64);
        for part in batch.parts() {
            put_varint(&mut body, part.instance as u64);
            encode_msg(&part.payload, pool, &mut body);
        }
    }
    put_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Convenience: frame one bare message (a singleton instance-0 batch).
pub fn encode_msg_frame(msg: &Msg, pool: &PayloadPool, out: &mut Vec<u8>) {
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(KIND_MSG);
    put_varint(out, encoded_msg_len(msg, pool) as u64);
    encode_msg(msg, pool, out);
}

/// Decode one frame from the front of `bytes`, interning its payloads
/// into `pool`; returns the batch and the total bytes consumed (header +
/// body). Bytes after the frame are the next frame's business.
pub fn decode_frame(bytes: &[u8], pool: &PayloadPool) -> Result<(Batch<Msg>, usize), CodecError> {
    let mut r = Reader::new(bytes);
    let batch = read_frame(&mut r, pool)?;
    Ok((batch, r.pos()))
}

/// Read one frame written by [`encode_frame`], interning its payloads
/// into `pool`.
pub fn read_frame(r: &mut Reader, pool: &PayloadPool) -> Result<Batch<Msg>, CodecError> {
    if r.take(2)? != FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8()?;
    if version != FRAME_VERSION {
        return Err(CodecError::WrongVersion { found: version });
    }
    let kind = r.u8()?;
    let body_len = r.count()?;
    let mut body = Reader::new(r.take(body_len)?);
    match kind {
        KIND_MSG => {
            let msg = read_msg(&mut body, pool)?;
            body.finish("trailing bytes after bare message body")?;
            Ok(Batch::single(0, msg))
        }
        KIND_BATCH => {
            let count = body.count()?;
            let mut batch = Batch::new();
            for _ in 0..count {
                let instance = body.int("batch instance exceeds u32")?;
                batch.push(instance, read_msg(&mut body, pool)?);
            }
            body.finish("trailing bytes after batch body")?;
            Ok(batch)
        }
        _ => Err(CodecError::Corrupt("unknown frame kind")),
    }
}

// ---------------------------------------------------------------------
// The documented slack bound
// ---------------------------------------------------------------------

/// Upper bound, in bits, that the real encoding of an honestly-valued
/// message is allowed to cost under the documented slack contract:
/// one tag byte, `ceil(w/7)` bytes per varint field of idealized width
/// `w`, plus the collection-length varints the idealized accounting
/// does not charge. The honesty tests assert
/// `8·encoded_msg_len(msg) ≤ max_encoded_bits(msg, env)` for every
/// variant.
pub fn max_encoded_bits(msg: &Msg, env: &SizeEnv) -> u64 {
    let vb = |w: u32| (w as u64).div_ceil(7); // varint bytes for a w-bit field
    let bytes = match msg {
        Msg::QIntent | Msg::QMinCert => 1,
        Msg::Vote { .. } => 1 + vb(env.value_bits) + vb(env.round_bits),
        Msg::Intents { len, .. } => {
            let len = *len as u64;
            1 + varint_len(len) as u64 + len * (vb(env.value_bits) + vb(env.id_bits))
        }
        Msg::Cert { votes, .. } => {
            let votes = *votes as u64;
            1 + vb(env.value_bits)
                + vb(env.color_bits)
                + vb(env.id_bits)
                + varint_len(votes) as u64
                + votes * (vb(env.id_bits) + vb(env.round_bits) + vb(env.value_bits))
        }
    };
    8 * bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use gossip_net::size::MsgSize;

    /// A test's payload pool. Decoding into the pool a payload came from
    /// interns it back to its own handle, so round trips compare whole
    /// messages.
    fn pool() -> PayloadPool {
        PayloadPool::new(Params::new(4096, 3.0), 0)
    }

    fn sample_cert(pool: &PayloadPool, n_votes: usize) -> Msg {
        let votes: Vec<VoteRec> = (0..n_votes)
            .map(|i| VoteRec {
                voter: (i * 3 % 97) as AgentId,
                round: (i % 24) as u16,
                value: (i as u64) * 977 % (1 << 30),
            })
            .collect();
        pool.cert_msg(pool.insert_cert(CertData::build(7, 3, votes, 1 << 30)))
    }

    fn sample_intents(pool: &PayloadPool, len: usize) -> Msg {
        pool.list_msg(
            pool.insert_list(
                (0..len)
                    .map(|i| IntentEntry {
                        value: (i as u64) * 131 % (1 << 30),
                        target: (i % 89) as AgentId,
                    })
                    .collect(),
            ),
        )
    }

    fn variants(pool: &PayloadPool) -> Vec<Msg> {
        vec![
            Msg::QIntent,
            Msg::QMinCert,
            Msg::Vote { value: 0, round: 0 },
            Msg::Vote { value: u64::MAX, round: u16::MAX },
            sample_intents(pool, 0),
            sample_intents(pool, 24),
            sample_cert(pool, 0),
            sample_cert(pool, 30),
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        let pool = &pool();
        for msg in variants(pool) {
            let mut buf = Vec::new();
            encode_msg(&msg, pool, &mut buf);
            assert_eq!(buf.len(), encoded_msg_len(&msg, pool), "{msg:?}");
            let (back, used) = decode_msg(&buf, pool).expect("round trip");
            assert_eq!(used, buf.len());
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn decoding_into_another_pool_carries_the_payload() {
        let pool = &pool();
        let other = PayloadPool::new(Params::new(4096, 3.0), 0);
        for msg in [sample_intents(pool, 24), sample_cert(pool, 30)] {
            let mut buf = Vec::new();
            encode_msg(&msg, pool, &mut buf);
            let (back, _) = decode_msg(&buf, &other).expect("decodes");
            let mut again = Vec::new();
            encode_msg(&back, &other, &mut again);
            assert_eq!(again, buf, "the same payload, re-encoded");
            assert_eq!(
                back.size_bits(&SizeEnv::for_n(4096)),
                msg.size_bits(&SizeEnv::for_n(4096))
            );
        }
        // One entry per distinct payload, however often it arrives.
        let msg = sample_cert(pool, 5);
        let mut buf = Vec::new();
        encode_msg(&msg, pool, &mut buf);
        let before = other.cert_count();
        let first = decode_msg(&buf, &other).unwrap().0;
        assert_eq!(decode_msg(&buf, &other).unwrap().0, first);
        assert_eq!(other.cert_count(), before + 1);
    }

    #[test]
    fn decode_reports_consumed_length_with_trailing_bytes() {
        let pool = &pool();
        let mut buf = Vec::new();
        encode_msg(
            &Msg::Vote {
                value: 300,
                round: 2,
            },
            pool,
            &mut buf,
        );
        let clean = buf.len();
        buf.extend_from_slice(&[0xde, 0xad]);
        let (msg, used) = decode_msg(&buf, pool).unwrap();
        assert_eq!(used, clean);
        assert_eq!(msg, Msg::Vote { value: 300, round: 2 });
    }

    #[test]
    fn singleton_instance0_frame_elides_the_batch_layer() {
        let pool = &pool();
        // The realized first-part tag elision: a singleton instance-0
        // batch's frame body is bit-for-bit the bare message.
        let msg = sample_cert(pool, 12);
        let mut bare = Vec::new();
        encode_msg(&msg, pool, &mut bare);
        let mut framed = Vec::new();
        encode_frame(&Batch::single(0, msg), pool, &mut framed);
        assert_eq!(&framed[framed.len() - bare.len()..], &bare[..]);
        let mut msg_framed = Vec::new();
        encode_msg_frame(&msg, pool, &mut msg_framed);
        assert_eq!(framed, msg_framed);
        let (batch, used) = decode_frame(&framed, pool).unwrap();
        assert_eq!(used, framed.len());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.parts()[0].instance, 0);
        assert_eq!(batch.parts()[0].payload, msg);
    }

    #[test]
    fn multi_part_batches_round_trip_with_instances() {
        let pool = &pool();
        let mut b = Batch::new();
        b.push(5, Msg::QIntent);
        b.push(0, Msg::Vote { value: 9, round: 1 });
        b.push(4096, sample_intents(pool, 3));
        let mut buf = Vec::new();
        encode_frame(&b, pool, &mut buf);
        let (back, used) = decode_frame(&buf, pool).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, b);
        // A singleton on a non-zero instance cannot elide its tag.
        let single5 = Batch::single(5, Msg::QIntent);
        let mut buf5 = Vec::new();
        encode_frame(&single5, pool, &mut buf5);
        let (back5, _) = decode_frame(&buf5, pool).unwrap();
        assert_eq!(back5, single5);
        // Empty batches are legal on the wire.
        let empty: Batch<Msg> = Batch::new();
        let mut bufe = Vec::new();
        encode_frame(&empty, pool, &mut bufe);
        assert!(decode_frame(&bufe, pool).unwrap().0.is_empty());
    }

    #[test]
    fn frame_error_taxonomy() {
        let pool = &pool();
        let mut good = Vec::new();
        encode_msg_frame(&Msg::QIntent, pool, &mut good);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_frame(&bad, pool).unwrap_err(), CodecError::BadMagic);
        // Wrong version.
        let mut bad = good.clone();
        bad[2] = 9;
        assert_eq!(
            decode_frame(&bad, pool).unwrap_err(),
            CodecError::WrongVersion { found: 9 }
        );
        // Unknown kind.
        let mut bad = good.clone();
        bad[3] = 7;
        assert!(matches!(
            decode_frame(&bad, pool).unwrap_err(),
            CodecError::Corrupt(_)
        ));
        // Every truncated prefix errors without panicking.
        for cut in 0..good.len() {
            assert!(
                decode_frame(&good[..cut], pool).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn lexical_range_errors_are_corrupt_not_panics() {
        let pool = &pool();
        // vote round > u16::MAX
        let mut buf = vec![TAG_VOTE];
        put_varint(&mut buf, 1);
        put_varint(&mut buf, u16::MAX as u64 + 1);
        assert!(matches!(
            decode_msg(&buf, pool).unwrap_err(),
            CodecError::Corrupt(_)
        ));
        // intent target > u32::MAX
        let mut buf = vec![TAG_INTENTS];
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 5);
        put_varint(&mut buf, u32::MAX as u64 + 1);
        assert!(matches!(
            decode_msg(&buf, pool).unwrap_err(),
            CodecError::Corrupt(_)
        ));
        // absurd length claims are Truncated (capped), never an OOM
        let mut buf = vec![TAG_INTENTS];
        put_varint(&mut buf, u64::MAX / 2);
        assert_eq!(decode_msg(&buf, pool).unwrap_err(), CodecError::Truncated);
        // unknown tag
        assert!(matches!(
            decode_msg(&[99], pool).unwrap_err(),
            CodecError::Corrupt(_)
        ));
        // empty input
        assert_eq!(decode_msg(&[], pool).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn reader_enforces_every_bound() {
        let mut r = Reader::new(&[3, 0xaa, 0xbb]);
        // A count may claim at most the bytes that remain.
        assert_eq!(r.clone().count().unwrap_err(), CodecError::Truncated);
        assert_eq!(r.clone().take(4).unwrap_err(), CodecError::Truncated);
        assert_eq!(r.u8().unwrap(), 3);
        assert!(matches!(r.finish("trailing"), Err(CodecError::Corrupt("trailing"))));
        assert_eq!(r.take(2).unwrap(), &[0xaa, 0xbb]);
        r.finish("trailing").unwrap();
        assert_eq!(r.u8().unwrap_err(), CodecError::Truncated);
        // A varint that does not fit the asked-for width names the field.
        let mut buf = Vec::new();
        put_varint(&mut buf, u16::MAX as u64 + 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.clone().int::<u32>("wide").unwrap(), u16::MAX as u32 + 1);
        assert_eq!(r.int::<u16>("narrow").unwrap_err(), CodecError::Corrupt("narrow"));
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 300, 1 << 14, (1 << 21) - 1, 1 << 21, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "v = {v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.finish("trailing").unwrap();
        }
    }

    #[test]
    fn real_bytes_respect_the_documented_slack_per_variant() {
        let pool = &pool();
        // The honesty bound the idealized accounting is now held to:
        // for honestly-valued messages, real bits ≤ max_encoded_bits.
        let env = SizeEnv::with_params(4096, (4096u64).pow(3), 36, 2);
        let q = 36usize;
        let honest: Vec<Msg> = vec![
            Msg::QIntent,
            Msg::QMinCert,
            Msg::Vote { value: (4096u64).pow(3) - 1, round: (q - 1) as u16 },
            pool.list_msg(
                pool.insert_list(
                    (0..q)
                        .map(|i| IntentEntry {
                            value: (4096u64).pow(3) - 1 - i as u64,
                            target: 4095,
                        })
                        .collect(),
                ),
            ),
            pool.cert_msg(
                pool.insert_cert(CertData::build(
                    4095,
                    1,
                    (0..q)
                        .map(|i| VoteRec {
                            voter: 4095,
                            round: i as u16,
                            value: (4096u64).pow(3) - 1,
                        })
                        .collect(),
                    (4096u64).pow(3),
                )),
            ),
        ];
        for msg in honest {
            let real_bits = 8 * encoded_msg_len(&msg, pool) as u64;
            let bound = max_encoded_bits(&msg, &env);
            assert!(
                real_bits <= bound,
                "{msg:?}: real {real_bits} bits > slack bound {bound}"
            );
            // And the idealized price stays a genuine lower-order
            // estimate: the bound is within 8/7 + per-field rounding of
            // the ideal, never an order of magnitude apart.
            let ideal = msg.size_bits(&env);
            assert!(bound <= 2 * ideal + 64, "{msg:?}: bound {bound} vs ideal {ideal}");
        }
    }

    #[test]
    fn tag_byte_addresses_every_variant() {
        // TAG_BITS = 3 claims ≤ 8 variants; the codec's tag byte
        // enumerates exactly the five that exist.
        let tags = [TAG_QINTENT, TAG_INTENTS, TAG_VOTE, TAG_QMINCERT, TAG_CERT];
        assert!(tags.len() <= SizeEnv::MAX_TAGGED_VARIANTS);
        assert!(tags.iter().all(|&t| (t as usize) < SizeEnv::MAX_TAGGED_VARIANTS));
    }
}
