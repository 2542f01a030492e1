//! A timing and counting adaptor for a node endpoint's socket.
//!
//! `rfc_node::run_session` is generic over `Read + Write`, so the traced
//! `node-session` run hands it a [`Tap`] around the bare stream. The tap
//! times every `read` (time blocked waiting for the peer) and every
//! `write`/`flush`, counts calls and bytes, and keeps a copy of the bytes
//! written so the packet mix can be decoded afterwards with
//! `rfc_node::wire::read_packet`. The untraced run uses bare sockets.
//! A tap can also note when the bytes read first reach a given count:
//! the `node-session` set-up probe stops its clock there, once the
//! peer's Hello has been read.

use rfc_node::wire::{read_packet, Packet};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Counters collected by a [`Tap`].
#[derive(Debug, Default, Clone)]
pub struct TapStats {
    /// Time spent inside `read` calls.
    pub read_wait: Duration,
    /// Time spent inside `write` and `flush` calls.
    pub write_time: Duration,
    /// Number of `read` calls.
    pub reads: u64,
    /// Number of `write` calls.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// Wraps a stream, timing and counting every call (see module docs).
pub struct Tap<S> {
    inner: S,
    /// What the tap has seen so far.
    pub stats: TapStats,
    /// Every byte written through the tap.
    pub written: Vec<u8>,
    /// When the bytes read first reached the count given to
    /// [`Tap::watch_reads`].
    pub reached: Option<Instant>,
    watch: Option<u64>,
}

impl<S> Tap<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Tap {
            inner,
            stats: TapStats::default(),
            written: Vec::new(),
            reached: None,
            watch: None,
        }
    }

    /// Note in [`Tap::reached`] the instant the bytes read reach `len`.
    pub fn watch_reads(mut self, len: u64) -> Self {
        self.watch = Some(len);
        self
    }
}

impl<S: Read> Read for Tap<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let got = self.inner.read(buf);
        self.stats.read_wait += t.elapsed();
        self.stats.reads += 1;
        if let Ok(k) = got {
            self.stats.bytes_read += k as u64;
            if self.reached.is_none() && self.watch.is_some_and(|w| self.stats.bytes_read >= w) {
                self.reached = Some(Instant::now());
            }
        }
        got
    }
}

impl<S: Write> Write for Tap<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let put = self.inner.write(buf);
        self.stats.write_time += t.elapsed();
        self.stats.writes += 1;
        if let Ok(k) = put {
            self.written.extend_from_slice(&buf[..k]);
            self.stats.bytes_written += k as u64;
        }
        put
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        self.stats.write_time += t.elapsed();
        r
    }
}

/// Tick packets in one endpoint's written bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TickMix {
    /// `TickNothing` packets: the tick's operation stayed local.
    pub nothing: u64,
    /// `TickPush` and `TickQuery` packets: the operation crossed the wire.
    pub crossing: u64,
}

/// Decode a captured byte stream packet by packet and count tick packets.
pub fn tick_mix(bytes: &[u8]) -> io::Result<TickMix> {
    let mut cursor = io::Cursor::new(bytes);
    let mut mix = TickMix::default();
    while (cursor.position() as usize) < bytes.len() {
        match read_packet(&mut cursor)? {
            Packet::TickNothing => mix.nothing += 1,
            Packet::TickPush { .. } | Packet::TickQuery { .. } => mix.crossing += 1,
            Packet::Hello { .. } | Packet::Reply { .. } | Packet::Summary { .. } => {}
        }
    }
    Ok(mix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_node::wire::write_packet;

    #[test]
    fn tap_counts_and_captures_what_it_writes() {
        let mut tap = Tap::new(Vec::<u8>::new());
        let a = write_packet(
            &mut tap,
            &Packet::Hello {
                fingerprint: 9,
                side: 0,
            },
        )
        .unwrap();
        let b = write_packet(&mut tap, &Packet::TickNothing).unwrap();
        let c = write_packet(&mut tap, &Packet::Reply { reply: None }).unwrap();
        assert_eq!(tap.stats.bytes_written, (a + b + c) as u64);
        assert_eq!(tap.written, tap.inner);
        assert_eq!(tap.stats.writes, 3);
        let mix = tick_mix(&tap.written).unwrap();
        assert_eq!(
            mix,
            TickMix {
                nothing: 1,
                crossing: 0
            }
        );
    }

    #[test]
    fn tap_times_reads_and_notes_the_watched_count() {
        let mut tap = Tap::new(io::Cursor::new(vec![1u8, 2, 3, 4])).watch_reads(3);
        let mut buf = [0u8; 2];
        tap.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2]);
        assert!(tap.stats.reads >= 1);
        assert_eq!(tap.reached, None, "2 of 3 watched bytes read");
        tap.read_exact(&mut buf).unwrap();
        assert_eq!(tap.stats.bytes_read, 4);
        assert!(tap.reached.is_some());
    }
}
