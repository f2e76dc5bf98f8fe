//! Frame reassembly ([`Framer`]) and per-session outbound queues
//! ([`SendQueue`]) over any [`Transport`].

use std::collections::VecDeque;

use fractal_crypto::wire::{Cursor, Sink, Truncated};

use super::{FrameError, Transport, TransportError};
use crate::inp::{self, Frame, InpMessage, HEADER_LEN};

/// Maximum accepted frame body. Far above any legitimate INP message
/// here, far below the u24 wire limit — a hostile length prefix is
/// rejected before the reassembly buffer grows to meet it.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// Bytes of the per-frame checksum trailer in checked framing mode: the
/// little-endian rsync weak sum of header + body. Any single-byte flip in
/// a correctly-sliced frame changes the sum's low 16-bit component, so
/// in-flight corruption is always caught, never silently decoded.
pub const CHECKSUM_TRAILER_LEN: usize = 4;

/// Bytes of checksum behind every frame, checked or not.
fn trailer_len(checked: bool) -> usize {
    if checked {
        CHECKSUM_TRAILER_LEN
    } else {
        0
    }
}

/// What [`Framer::pull`] reads at a time while it does not yet know how
/// long the frame is; a frame with more than this still to come is
/// received in place.
const RECV_CHUNK: usize = 4096;

/// Length-prefixed frame reassembly over the INP header.
///
/// The INP header *is* the length prefix — magic, generation, version,
/// message type, and a u24 body length — so a frame on the wire is exactly
/// [`InpMessage::to_bytes`] at its generation. The framer buffers arbitrary
/// chunks ([`push`](Self::push) or [`pull`](Self::pull) straight from a
/// [`Transport`]) and yields complete frames one at a time; a stream
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
    checksum: bool,
}

impl Default for Framer {
    fn default() -> Framer {
        Framer::new()
    }
}

#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
impl Framer {
    /// A framer rejecting bodies longer than [`MAX_FRAME_BODY`].
    pub fn new() -> Framer {
        Framer { buf: Vec::new(), filled: 0, checksum: false }
    }

    /// Switches this framer to checked framing: every frame must carry a
    /// [`CHECKSUM_TRAILER_LEN`]-byte weak-sum trailer (produce such frames
    /// with [`frame_checked`](Self::frame_checked)); a mismatch surfaces
    /// as [`FrameError::Corrupt`] instead of a silently-decoded message.
    pub fn with_checksum(mut self) -> Framer {
        self.checksum = true;
        self
    }

    /// Encodes one message as a wire frame (header + body) at generation 0.
    pub fn frame(msg: &InpMessage) -> Vec<u8> {
        Framer::frame_at(0, msg, false)
    }

    /// Encodes one message as a checked wire frame at generation 0: header
    /// and body, then the weak-sum trailer a
    /// [`with_checksum`](Self::with_checksum) framer verifies on receipt.
    pub fn frame_checked(msg: &InpMessage) -> Vec<u8> {
        Framer::frame_at(0, msg, true)
    }

    /// Encodes one message stamped with generation `gen`, checked or not.
    pub fn frame_at(gen: u8, msg: &InpMessage, checked: bool) -> Vec<u8> {
        let mut bytes = msg.to_bytes_with_room(gen, trailer_len(checked));
        if checked {
            bytes.u32(fractal_crypto::checksum::weak_sum(&bytes));
        }
        bytes
    }

    /// Appends received bytes to the reassembly buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.truncate(self.filled);
        self.buf.extend_from_slice(bytes);
        self.filled = self.buf.len();
    }

    /// The header rule, written once: the buffered frame's extent (header,
    /// body and trailer), `Ok(None)` while its header has not all arrived,
    /// or the error a bad prefix or an oversized declaration is.
    fn extent(&self) -> Result<Option<usize>, FrameError> {
        if self.filled < HEADER_LEN {
            return Ok(None);
        }
        // `buf[..filled]` has arrived, and the header lies inside it.
        let (_, len) = inp::header_info(&self.buf).map_err(|_| FrameError::BadPrefix)?;
        if len > MAX_FRAME_BODY {
            return Err(FrameError::Oversized { len, max: MAX_FRAME_BODY });
        }
        Ok(Some(HEADER_LEN + len + trailer_len(self.checksum)))
    }

    /// Bytes still to come of the frame whose header is buffered, trailer
    /// included; `0` without a header, or with one [`next_frame`] is about
    /// to refuse (so a hostile length reserves nothing).
    ///
    /// [`next_frame`]: Self::next_frame
    fn rest_of_frame(&self) -> usize {
        match self.extent() {
            Ok(Some(end)) => end.saturating_sub(self.filled),
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
        // The error for a `recv` that reports more bytes than it was given room for.
        let overran = TransportError::Io(std::io::ErrorKind::InvalidData);
        let mut total = 0;
        loop {
            let rest = self.rest_of_frame();
            let n = if rest > RECV_CHUNK {
                let end = self.filled + rest;
                if self.buf.len() < end {
                    self.buf.resize(end, 0);
                }
                let n = t.recv(self.buf.get_mut(self.filled..end).ok_or(overran)?)?;
                self.filled += n;
                n
            } else {
                let mut chunk = [0u8; RECV_CHUNK];
                let n = t.recv(&mut chunk)?;
                self.push(chunk.get(..n).ok_or(overran)?);
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
        match self.extent() {
            Ok(None) => false,
            Ok(Some(end)) => self.filled >= end,
            Err(_) => true,
        }
    }

    /// Yields the next complete frame, `Ok(None)` while the buffer holds
    /// only a partial one. A framing error is unrecoverable: the byte
    /// stream has no resync points.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let Some(end) = self.extent()? else { return Ok(None) };
        if self.filled < end {
            return Ok(None);
        }
        let mut c = Cursor::new(&self.buf);
        let malformed = |e: Truncated| FrameError::Malformed(e.into());
        let bytes = c.take(end - trailer_len(self.checksum)).map_err(malformed)?;
        if self.checksum {
            let got = u32::from_le_bytes(c.array().map_err(malformed)?);
            let expected = fractal_crypto::checksum::weak_sum(bytes);
            if got != expected {
                return Err(FrameError::Corrupt { expected, got });
            }
        }
        let frame = Frame::from_bytes(bytes).map_err(FrameError::Malformed)?;
        self.buf.drain(..end);
        self.filled -= end;
        Ok(Some(frame))
    }

    /// Discards all buffered bytes and frees their storage (session
    /// teardown: a reactor keeps a torn-down slot until its sessions are
    /// collected, so a kept buffer would be the session's largest frame).
    pub fn clear(&mut self) {
        self.buf = Vec::new();
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

    /// Discards all pending frames and frees the queue's storage (session
    /// teardown, as [`Framer::clear`]).
    pub fn clear(&mut self) {
        self.frames = VecDeque::new();
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
            while let Some(f) = framer.next_frame().unwrap() {
                out.push(f.msg);
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
        let mut framer = Framer::new();
        let mut frame = Framer::frame(&msg(MAX_FRAME_BODY));
        assert!(frame.len() > MAX_FRAME_BODY);
        frame.truncate(HEADER_LEN); // only the header has arrived
        framer.push(&frame);
        let len = MAX_FRAME_BODY + 8;
        assert_eq!(framer.next_frame(), Err(FrameError::Oversized { len, max: MAX_FRAME_BODY }));
    }

    #[test]
    fn framer_waits_on_partial_frames() {
        let frame = Framer::frame(&msg(32));
        let mut framer = Framer::new();
        framer.push(&frame[..HEADER_LEN + 5]);
        assert!(!framer.frame_ready());
        assert_eq!(framer.next_frame(), Ok(None));
        framer.push(&frame[HEADER_LEN + 5..]);
        assert_eq!(framer.next_frame(), Ok(Some(Frame { gen: 0, msg: msg(32) })));
    }

    #[test]
    fn checked_framer_reassembles_across_arbitrary_chunks() {
        let messages = [msg(0), msg(3), msg(600), msg(1)];
        let stream: Vec<u8> = messages.iter().flat_map(Framer::frame_checked).collect();
        let mut framer = Framer::new().with_checksum();
        let mut out = Vec::new();
        for chunk in stream.chunks(5) {
            framer.push(chunk);
            while let Some(f) = framer.next_frame().unwrap() {
                out.push(f.msg);
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
        assert_eq!(framer.next_frame(), Ok(Some(Frame { gen: 0, msg: msg(16) })));
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
            while let Some(f) = framer.next_frame().unwrap() {
                got.push(f.msg);
            }
        }
        assert_eq!(got, [big, msg(3)]);
    }

    #[test]
    fn pull_reserves_nothing_for_a_length_it_will_refuse() {
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(64);
        let header = &Framer::frame(&msg(MAX_FRAME_BODY))[..HEADER_LEN];
        assert_eq!(client.send(header).unwrap(), HEADER_LEN);
        let mut framer = Framer::new();
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

    /// Teardown frees what a session's largest frame grew: a reactor keeps
    /// torn-down slots until it is collected, one per session it served.
    #[test]
    fn clear_frees_the_storage_a_large_frame_grew() {
        let mut framer = Framer::new();
        framer.push(&Framer::frame(&msg(16 * 1024)));
        assert!(framer.buf.capacity() > 16 * 1024);
        framer.clear();
        assert_eq!((framer.buf.capacity(), framer.buffered()), (0, 0));

        let mut q = SendQueue::new();
        q.push(vec![1u8; 16 * 1024]);
        q.clear();
        assert_eq!(q.frames.capacity(), 0);
    }
}
