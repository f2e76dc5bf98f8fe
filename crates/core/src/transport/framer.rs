//! Frame reassembly ([`Framer`]) and per-session outbound queues
//! ([`SendQueue`]) over any [`Transport`].

use std::collections::VecDeque;

use super::{FrameError, Transport, TransportError};
use crate::inp::{self, InpMessage, HEADER_LEN};

/// Default maximum accepted frame body. Far above any legitimate INP
/// message here, far below the u24 wire limit — a hostile length prefix is
/// rejected before the reassembly buffer grows to meet it.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// Bytes of the per-frame checksum trailer in checked framing mode: the
/// little-endian rsync weak sum of header + body. Any single-byte flip in
/// a correctly-sliced frame changes the sum's low 16-bit component, so
/// in-flight corruption is always caught, never silently decoded.
pub const CHECKSUM_TRAILER_LEN: usize = 4;

/// What [`Framer::pull`] reads at a time while it does not yet know how
/// long the frame is; a frame with more than this still to come is
/// received in place.
const RECV_CHUNK: usize = 4096;

/// Length-prefixed frame reassembly over the INP header.
///
/// The INP header *is* the length prefix — magic, version, message type,
/// and a u24 body length — so a frame on the wire is exactly
/// [`InpMessage::to_bytes`]. The framer buffers arbitrary chunks
/// ([`push`](Self::push) or [`pull`](Self::pull) straight from a
/// [`Transport`]) and yields complete messages one at a time; a stream
/// split at any byte boundary reassembles to the same message sequence.
/// Garbage prefixes ([`FrameError::BadPrefix`]) and hostile length
/// declarations ([`FrameError::Oversized`]) are rejected before the
/// buffer grows to meet them.
#[derive(Debug)]
pub struct Framer {
    /// Reassembly storage. `buf[..filled]` has arrived; the rest, when
    /// there is any, is room for the remainder of a large frame that
    /// [`pull`](Self::pull) receives into, so its bytes land where they
    /// are parsed from.
    buf: Vec<u8>,
    filled: usize,
    max_body: usize,
    checksum: bool,
}

impl Default for Framer {
    fn default() -> Framer {
        Framer::new()
    }
}

impl Framer {
    /// A framer with the default [`MAX_FRAME_BODY`] limit.
    pub fn new() -> Framer {
        Framer::with_max_body(MAX_FRAME_BODY)
    }

    /// A framer rejecting bodies longer than `max_body`.
    pub fn with_max_body(max_body: usize) -> Framer {
        Framer { buf: Vec::new(), filled: 0, max_body, checksum: false }
    }

    /// Switches this framer to checked framing: every frame must carry a
    /// [`CHECKSUM_TRAILER_LEN`]-byte weak-sum trailer (produce such frames
    /// with [`frame_checked`](Self::frame_checked)); a mismatch surfaces
    /// as [`FrameError::Corrupt`] instead of a silently-decoded message.
    pub fn with_checksum(mut self) -> Framer {
        self.checksum = true;
        self
    }

    /// Encodes one message as a wire frame (header + body).
    pub fn frame(msg: &InpMessage) -> Vec<u8> {
        msg.to_bytes()
    }

    /// Encodes one message as a checked wire frame: header + body plus
    /// the weak-sum trailer a [`with_checksum`](Self::with_checksum)
    /// framer verifies on receipt.
    pub fn frame_checked(msg: &InpMessage) -> Vec<u8> {
        let mut bytes = msg.to_bytes_with_room(CHECKSUM_TRAILER_LEN);
        let sum = fractal_crypto::checksum::weak_sum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Appends received bytes to the reassembly buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.truncate(self.filled);
        self.buf.extend_from_slice(bytes);
        self.filled = self.buf.len();
    }

    /// Bytes of checksum behind every frame in this framer's mode.
    fn trailer_len(&self) -> usize {
        if self.checksum {
            CHECKSUM_TRAILER_LEN
        } else {
            0
        }
    }

    /// Bytes still to come of the frame whose header is buffered, trailer
    /// included; `0` without a header, or with one [`next_frame`] is about
    /// to refuse (so a hostile length reserves nothing).
    ///
    /// [`next_frame`]: Self::next_frame
    fn rest_of_frame(&self) -> usize {
        let Some(header) = self.buf[..self.filled].get(..HEADER_LEN) else { return 0 };
        match inp::header_info(header) {
            Ok((_, len)) if len <= self.max_body => {
                (HEADER_LEN + len + self.trailer_len()).saturating_sub(self.filled)
            }
            _ => 0,
        }
    }

    /// Drains every currently-readable byte of `t` into the buffer;
    /// returns how many arrived. Once a header declares a frame longer
    /// than a chunk, the storage is sized for all of it and `recv` writes
    /// straight into it. Until then, and for short frames, bytes come
    /// through a stack chunk: room held in every idle framer instead
    /// would be resident memory per connection.
    pub fn pull(&mut self, t: &mut dyn Transport) -> Result<usize, TransportError> {
        let mut total = 0;
        loop {
            let rest = self.rest_of_frame();
            let n = if rest > RECV_CHUNK {
                let end = self.filled + rest;
                if self.buf.len() < end {
                    self.buf.resize(end, 0);
                }
                let n = t.recv(&mut self.buf[self.filled..end])?;
                self.filled += n;
                n
            } else {
                let mut chunk = [0u8; RECV_CHUNK];
                let n = t.recv(&mut chunk)?;
                self.push(&chunk[..n]);
                n
            };
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.filled
    }

    /// Whether [`next_frame`](Self::next_frame) would make progress right
    /// now — a complete frame is buffered, or the buffered prefix is
    /// already known-bad (an error is progress too: it must be surfaced).
    pub fn frame_ready(&self) -> bool {
        if self.filled < HEADER_LEN {
            return false;
        }
        let trailer = self.trailer_len();
        match inp::header_info(&self.buf[..HEADER_LEN]) {
            Err(_) => true,
            Ok((_, len)) => len > self.max_body || self.filled >= HEADER_LEN + len + trailer,
        }
    }

    /// Yields the next complete message, `Ok(None)` while the buffer holds
    /// only a partial frame. A framing error is unrecoverable: the byte
    /// stream has no resync points.
    pub fn next_frame(&mut self) -> Result<Option<InpMessage>, FrameError> {
        if self.filled < HEADER_LEN {
            return Ok(None);
        }
        let (_, len) =
            inp::header_info(&self.buf[..HEADER_LEN]).map_err(|_| FrameError::BadPrefix)?;
        if len > self.max_body {
            return Err(FrameError::Oversized { len, max: self.max_body });
        }
        let frame_len = HEADER_LEN + len;
        let trailer = self.trailer_len();
        if self.filled < frame_len + trailer {
            return Ok(None);
        }
        if self.checksum {
            let mut sum = [0u8; CHECKSUM_TRAILER_LEN];
            sum.copy_from_slice(&self.buf[frame_len..frame_len + trailer]);
            let got = u32::from_le_bytes(sum);
            let expected = fractal_crypto::checksum::weak_sum(&self.buf[..frame_len]);
            if got != expected {
                return Err(FrameError::Corrupt { expected, got });
            }
        }
        let msg = InpMessage::from_bytes(&self.buf[..frame_len]).map_err(FrameError::Malformed)?;
        self.buf.drain(..frame_len + trailer);
        self.filled -= frame_len + trailer;
        Ok(Some(msg))
    }

    /// Discards all buffered bytes (session teardown).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.filled = 0;
    }
}

/// Per-session outbound frames awaiting `writable()` budget.
///
/// Frames queue here when the peer's window is full (backpressure) and
/// drain front-first, possibly a partial frame per flush — the cursor
/// remembers how far into the front frame the wire got.
#[derive(Debug, Default)]
pub struct SendQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already on the wire.
    sent: usize,
}

impl SendQueue {
    /// An empty queue.
    pub fn new() -> SendQueue {
        SendQueue::default()
    }

    /// Enqueues one encoded frame.
    pub fn push(&mut self, frame: Vec<u8>) {
        debug_assert!(!frame.is_empty());
        self.frames.push_back(frame);
    }

    /// Number of frames not yet fully on the wire (the backpressure-gauge
    /// unit), counting a partially-sent front frame.
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Writes as much pending data as `t` accepts; returns bytes moved.
    pub fn flush(&mut self, t: &mut dyn Transport) -> Result<usize, TransportError> {
        let mut moved = 0;
        while let Some(front) = self.frames.front() {
            let n = t.send(&front[self.sent..])?;
            if n == 0 {
                break;
            }
            moved += n;
            self.sent += n;
            if self.sent == front.len() {
                self.frames.pop_front();
                self.sent = 0;
            }
        }
        Ok(moved)
    }

    /// Discards all pending frames (session teardown).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.sent = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::AppId;
    use crate::transport::{LoopbackTransport, TransportPair};

    fn msg(n: usize) -> InpMessage {
        InpMessage::InitReq { app_id: AppId(7), payload: vec![0xAB; n] }
    }

    #[test]
    fn framer_reassembles_across_arbitrary_chunks() {
        let messages = [msg(0), msg(3), msg(600), msg(1)];
        let stream: Vec<u8> = messages.iter().flat_map(Framer::frame).collect();
        let mut framer = Framer::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(7) {
            framer.push(chunk);
            while let Some(m) = framer.next_frame().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, messages);
        assert_eq!(framer.buffered(), 0);
    }

    #[test]
    fn framer_rejects_garbage_prefix() {
        let mut framer = Framer::new();
        framer.push(b"GARBAGE!");
        assert!(framer.frame_ready(), "a known-bad prefix is deliverable progress");
        assert_eq!(framer.next_frame(), Err(FrameError::BadPrefix));
    }

    #[test]
    fn framer_rejects_oversized_declaration_before_buffering_it() {
        let mut framer = Framer::with_max_body(64);
        let mut frame = Framer::frame(&msg(600));
        assert!(frame.len() > 64);
        frame.truncate(HEADER_LEN); // only the header has arrived
        framer.push(&frame);
        assert_eq!(framer.next_frame(), Err(FrameError::Oversized { len: 608, max: 64 }));
    }

    #[test]
    fn framer_waits_on_partial_frames() {
        let frame = Framer::frame(&msg(32));
        let mut framer = Framer::new();
        framer.push(&frame[..HEADER_LEN + 5]);
        assert!(!framer.frame_ready());
        assert_eq!(framer.next_frame(), Ok(None));
        framer.push(&frame[HEADER_LEN + 5..]);
        assert_eq!(framer.next_frame(), Ok(Some(msg(32))));
    }

    #[test]
    fn checked_framer_reassembles_across_arbitrary_chunks() {
        let messages = [msg(0), msg(3), msg(600), msg(1)];
        let stream: Vec<u8> = messages.iter().flat_map(Framer::frame_checked).collect();
        let mut framer = Framer::new().with_checksum();
        let mut out = Vec::new();
        for chunk in stream.chunks(5) {
            framer.push(chunk);
            while let Some(m) = framer.next_frame().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, messages);
        assert_eq!(framer.buffered(), 0);
    }

    #[test]
    fn checked_framer_rejects_every_single_byte_flip() {
        let frame = Framer::frame_checked(&msg(64));
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xA5;
            let mut framer = Framer::new().with_checksum();
            framer.push(&bad);
            match framer.next_frame() {
                // A flipped length byte can leave the framer waiting on
                // bytes that never come — not-delivered is acceptable;
                // delivering a message is not.
                Ok(None) | Err(_) => {}
                Ok(Some(m)) => panic!("flip at byte {i} decoded as {m:?}"),
            }
        }
    }

    #[test]
    fn checked_framer_waits_for_the_trailer() {
        let frame = Framer::frame_checked(&msg(16));
        let mut framer = Framer::new().with_checksum();
        framer.push(&frame[..frame.len() - 1]);
        assert!(!framer.frame_ready(), "trailer incomplete");
        assert_eq!(framer.next_frame(), Ok(None));
        framer.push(&frame[frame.len() - 1..]);
        assert!(framer.frame_ready());
        assert_eq!(framer.next_frame(), Ok(Some(msg(16))));
    }

    #[test]
    fn pull_receives_a_large_frame_in_place_across_partial_reads() {
        // 200 KB through a 1000-byte ring: hundreds of partial reads, the
        // storage sized once from the header, and a second frame behind.
        let big = InpMessage::AppRep {
            content_id: 1,
            version: 2,
            protocol: fractal_protocols::ProtocolId::Gzip,
            payload: (0..200 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>().into(),
        };
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(1000);
        let mut q = SendQueue::new();
        q.push(Framer::frame_checked(&big));
        q.push(Framer::frame_checked(&msg(3)));
        let mut framer = Framer::new().with_checksum();
        let mut got = Vec::new();
        while !q.is_empty() || framer.buffered() > 0 {
            q.flush(client.as_mut()).unwrap();
            framer.pull(service.as_mut()).unwrap();
            if framer.rest_of_frame() > RECV_CHUNK {
                assert_eq!(framer.buf.len(), big.wire_len() + CHECKSUM_TRAILER_LEN);
            }
            while let Some(m) = framer.next_frame().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, [big, msg(3)]);
    }

    #[test]
    fn pull_reserves_nothing_for_a_length_it_will_refuse() {
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(64);
        let header = &Framer::frame(&msg(100_000))[..HEADER_LEN];
        assert_eq!(client.send(header).unwrap(), HEADER_LEN);
        let mut framer = Framer::with_max_body(64);
        assert_eq!(framer.pull(service.as_mut()).unwrap(), HEADER_LEN);
        assert!(framer.buf.len() <= HEADER_LEN + RECV_CHUNK);
        assert!(matches!(framer.next_frame(), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn send_queue_flushes_under_backpressure() {
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(10);
        let mut q = SendQueue::new();
        q.push(vec![1u8; 8]);
        q.push(vec![2u8; 8]);
        assert_eq!(q.frames(), 2);
        assert_eq!(q.flush(client.as_mut()).unwrap(), 10, "first frame + part of second");
        assert_eq!(q.frames(), 1, "partially-sent frame still counts");
        let mut buf = [0u8; 16];
        assert_eq!(service.recv(&mut buf).unwrap(), 10);
        assert_eq!(q.flush(client.as_mut()).unwrap(), 6);
        assert!(q.is_empty());
        assert_eq!(service.recv(&mut buf).unwrap(), 6);
        assert_eq!(&buf[..6], &[2u8; 6], "frame bytes arrive in order");
    }
}
