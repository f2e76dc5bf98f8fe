//! In-memory loopback pair: a capacity-bounded byte ring per direction,
//! optionally gated by a [`fractal_net::Link`] on a per-pair simulated
//! clock.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fractal_net::Link;

use super::{Transport, TransportError, TransportPair};

/// One direction of the pipe.
#[derive(Debug, Default)]
struct Wire {
    /// Every unread byte, readable or still in flight.
    bytes: VecDeque<u8>,
    /// Timed pairs only: `(ready_at µs, len)` per sent chunk, in send
    /// order, covering `bytes` exactly. The first entry that is not ready
    /// yet gates every byte behind it, so the stream stays FIFO even when
    /// a handoff to a faster link prices a later chunk earlier. Always
    /// empty on an untimed pair.
    ledger: VecDeque<(u64, usize)>,
    /// When the sender's last serialization finishes (µs); the link is a
    /// shared medium, so the next chunk serializes after this.
    busy_until: u64,
}

impl Wire {
    /// Bytes readable at `now`: all of them but those at and behind the
    /// first ledger entry still in flight.
    fn readable_at(&self, now: u64) -> usize {
        let in_flight: usize =
            self.ledger.iter().skip_while(|&&(at, _)| at <= now).map(|&(_, len)| len).sum();
        self.bytes.len() - in_flight
    }
}

#[derive(Debug)]
struct LoopState {
    /// Indexed by the reading end: `[toward the client, toward the service]`.
    wires: [Wire; 2],
    capacity: usize,
    closed: bool,
    /// The link pricing each send; `None` on an untimed pair.
    link: Option<Link>,
    /// The pair's private simulated clock (µs), 0 forever on an untimed
    /// pair. Pairs are causally independent, so each advances on its own —
    /// a session's timeline is a pure function of that session's traffic,
    /// never of its batchmates.
    now: u64,
}

/// Index of the client end's inbound wire; the service end reads the other.
const TO_CLIENT: usize = 0;

/// In-memory transport pair: a capacity-bounded byte ring per direction.
///
/// From [`pair`](Self::pair), bytes are readable the instant they are
/// written: the deterministic default, under which reactor runs depend
/// only on the poll order. From [`over`](Self::over), each `send` occupies
/// the link for the chunk's serialization time at goodput `ρ × bandwidth`
/// (Equation 3) and becomes readable after serialization plus one-way
/// propagation latency, on the pair's simulated clock; `capacity` then
/// bounds unread in-flight bytes, so `writable()` models a flow-control
/// window.
#[derive(Debug)]
pub struct LoopbackTransport {
    state: Rc<RefCell<LoopState>>,
    /// Index of this end's inbound wire in [`LoopState::wires`].
    rx: usize,
}

impl LoopbackTransport {
    /// Builds an untimed connected pair with the given per-direction
    /// `capacity`.
    pub fn pair(capacity: usize) -> TransportPair {
        Self::connect(capacity, None).0
    }

    /// Builds a connected pair over `link` with the given in-flight
    /// `capacity` per direction, starting at simulated time 0.
    pub fn over(link: Link, capacity: usize) -> TransportPair {
        Self::over_with_handoff(link, capacity).0
    }

    /// Like [`over`](Self::over), but also returns a [`LinkHandoff`]
    /// handle that can swap the link model mid-session — the mobility
    /// primitive (walk out of WLAN range, fall back to Bluetooth).
    pub fn over_with_handoff(link: Link, capacity: usize) -> (TransportPair, LinkHandoff) {
        let (pair, state) = Self::connect(capacity, Some(link));
        (pair, LinkHandoff { state })
    }

    fn connect(capacity: usize, link: Option<Link>) -> (TransportPair, Rc<RefCell<LoopState>>) {
        assert!(capacity > 0, "transport capacity must be positive");
        let state = Rc::new(RefCell::new(LoopState {
            wires: Default::default(),
            capacity,
            closed: false,
            link,
            now: 0,
        }));
        let end = |rx| Box::new(LoopbackTransport { state: Rc::clone(&state), rx });
        let pair = TransportPair { client: end(TO_CLIENT), service: end(1 - TO_CLIENT) };
        (pair, state)
    }
}

/// A handle onto a live timed [`LoopbackTransport`] pair's link model.
///
/// [`switch`](Self::switch) swaps the link under the pair mid-session:
/// chunks already in flight keep the delivery times the old link priced
/// them at (they are already on the old medium), while every subsequent
/// `send` serializes at the new link's goodput and latency.
#[derive(Debug)]
pub struct LinkHandoff {
    state: Rc<RefCell<LoopState>>,
}

impl LinkHandoff {
    /// Swaps the pair onto `link` at the pair's current simulated time.
    pub fn switch(&self, link: Link) {
        self.state.borrow_mut().link = Some(link);
    }
}

impl Transport for LoopbackTransport {
    fn writable(&self) -> usize {
        let s = self.state.borrow();
        if s.closed {
            return 0;
        }
        s.capacity - s.wires[1 - self.rx].bytes.len()
    }

    fn readable(&self) -> usize {
        let s = self.state.borrow();
        s.wires[self.rx].readable_at(s.now)
    }

    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Err(TransportError::Closed);
        }
        let (capacity, link, now) = (s.capacity, s.link, s.now);
        let out = &mut s.wires[1 - self.rx];
        let n = bytes.len().min(capacity - out.bytes.len());
        if let Some(link) = link.filter(|_| n > 0) {
            let start = now.max(out.busy_until);
            out.busy_until = start + link.serialization_time(n as u64).as_micros();
            out.ledger.push_back((out.busy_until + link.latency.as_micros(), n));
        }
        out.bytes.extend(&bytes[..n]);
        Ok(n)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        let mut s = self.state.borrow_mut();
        let (closed, now) = (s.closed, s.now);
        let inbound = &mut s.wires[self.rx];
        if inbound.bytes.is_empty() {
            return if closed { Err(TransportError::Closed) } else { Ok(0) };
        }
        let n = buf.len().min(inbound.readable_at(now));
        // The ring's content is at most two runs: up to the end of the
        // allocation, then from its start.
        let (front, back) = inbound.bytes.as_slices();
        let k = n.min(front.len());
        buf[..k].copy_from_slice(&front[..k]);
        buf[k..n].copy_from_slice(&back[..n - k]);
        inbound.bytes.drain(..n);
        let mut left = n;
        while let Some(entry) = inbound.ledger.front_mut().filter(|_| left > 0) {
            let take = left.min(entry.1);
            entry.1 -= take;
            left -= take;
            if entry.1 == 0 {
                inbound.ledger.pop_front();
            }
        }
        Ok(n)
    }

    fn close(&mut self) {
        self.state.borrow_mut().closed = true;
    }

    fn is_closed(&self) -> bool {
        self.state.borrow().closed
    }

    fn now_us(&self) -> u64 {
        self.state.borrow().now
    }

    fn next_ready_at(&self) -> Option<u64> {
        let s = self.state.borrow();
        s.wires[self.rx].ledger.iter().map(|&(at, _)| at).find(|&at| at > s.now)
    }

    fn advance_to(&mut self, t_us: u64) {
        let mut s = self.state.borrow_mut();
        if s.link.is_some() {
            s.now = s.now.max(t_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_net::LinkKind;

    #[test]
    fn loopback_round_trip_with_partial_reads() {
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(64);
        assert_eq!(client.writable(), 64);
        assert_eq!(client.send(b"hello world").unwrap(), 11);
        assert_eq!(service.readable(), 11);
        let mut buf = [0u8; 4];
        assert_eq!(service.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"hell");
        let mut rest = [0u8; 16];
        assert_eq!(service.recv(&mut rest).unwrap(), 7);
        assert_eq!(&rest[..7], b"o world");
        assert_eq!(service.recv(&mut rest).unwrap(), 0, "drained");
    }

    #[test]
    fn loopback_partial_reads_across_the_ring_wrap_point() {
        // At most 64 bytes are ever queued, so 2000 bytes of interleaved
        // sends and short reads walk the ring's head around its allocation
        // many times and reads straddle the wrap point at varying offsets;
        // the bytes must still come out in the order they went in.
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(64);
        let sent: Vec<u8> = (0..2000u32).map(|i| (i * 31 % 251) as u8).collect();
        let (mut tx, mut got) = (0, Vec::new());
        let mut round = 0usize;
        while got.len() < sent.len() {
            round += 1;
            let want = (round * 7 % 23 + 1).min(sent.len() - tx);
            tx += client.send(&sent[tx..tx + want]).unwrap();
            let mut buf = [0u8; 16];
            let take = round * 5 % 16 + 1;
            let n = service.recv(&mut buf[..take]).unwrap();
            assert_eq!(n, take.min(tx - got.len()), "round {round}");
            assert_eq!(service.readable(), tx - got.len() - n);
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, sent);
    }

    #[test]
    fn loopback_capacity_bounds_send() {
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(8);
        assert_eq!(client.send(&[1u8; 20]).unwrap(), 8, "partial write at the window");
        assert_eq!(client.writable(), 0);
        assert_eq!(client.send(&[2u8; 4]).unwrap(), 0, "window full");
        let mut buf = [0u8; 3];
        service.recv(&mut buf).unwrap();
        assert_eq!(client.writable(), 3, "reading frees the window");
    }

    #[test]
    fn loopback_close_drains_then_errors() {
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(32);
        client.send(b"bye").unwrap();
        client.close();
        assert!(service.is_closed());
        assert_eq!(client.send(b"x"), Err(TransportError::Closed));
        let mut buf = [0u8; 8];
        assert_eq!(service.recv(&mut buf).unwrap(), 3, "backlog still drains");
        assert_eq!(service.recv(&mut buf), Err(TransportError::Closed));
    }

    #[test]
    fn an_untimed_pair_has_no_clock() {
        let TransportPair { mut client, mut service } = LoopbackTransport::pair(32);
        client.send(b"now").unwrap();
        assert_eq!(service.next_ready_at(), None, "everything sent is readable already");
        service.advance_to(500);
        assert_eq!(service.now_us(), 0, "advances are ignored");
        assert_eq!(service.readable(), 3);
    }

    #[test]
    fn timed_pair_gates_readability_on_serialization_plus_latency() {
        let link = LinkKind::Bluetooth.link();
        let TransportPair { mut client, mut service } = LoopbackTransport::over(link, 4096);
        assert_eq!(client.send(&[9u8; 1000]).unwrap(), 1000);
        assert_eq!(service.readable(), 0, "nothing readable at t=0");
        let expected = link.serialization_time(1000).as_micros() + link.latency.as_micros();
        assert_eq!(service.next_ready_at(), Some(expected));
        service.advance_to(expected - 1);
        assert_eq!(service.readable(), 0, "one microsecond early");
        service.advance_to(expected);
        assert_eq!(service.readable(), 1000);
        let mut buf = vec![0u8; 1000];
        assert_eq!(service.recv(&mut buf).unwrap(), 1000);
        assert_eq!(service.next_ready_at(), None, "nothing left in flight");
    }

    #[test]
    fn timed_pair_serializes_chunks_back_to_back() {
        let link = LinkKind::Wlan.link();
        let TransportPair { mut client, mut service } = LoopbackTransport::over(link, 4096);
        client.send(&[1u8; 500]).unwrap();
        let first = service.next_ready_at().unwrap();
        client.send(&[2u8; 500]).unwrap();
        assert_eq!(service.next_ready_at(), Some(first), "front chunk unchanged");
        // The second chunk serializes after the first (shared medium), so
        // it is ready exactly one serialization slot later.
        let ser = link.serialization_time(500).as_micros();
        service.advance_to(first + ser - 1);
        assert_eq!(service.readable(), 500);
        service.advance_to(first + ser);
        assert_eq!(service.readable(), 1000, "second chunk ready one serialization later");
    }

    #[test]
    fn timed_pair_capacity_is_a_flow_control_window() {
        let link = LinkKind::Lan.link();
        let TransportPair { mut client, mut service } = LoopbackTransport::over(link, 100);
        assert_eq!(client.send(&[3u8; 150]).unwrap(), 100, "window-bounded");
        assert_eq!(client.writable(), 0);
        assert_eq!(client.send(&[3u8; 10]).unwrap(), 0);
        let t = service.next_ready_at().unwrap();
        service.advance_to(t);
        let mut buf = [0u8; 40];
        service.recv(&mut buf).unwrap();
        assert_eq!(client.writable(), 40, "receiving opens the window");
    }

    #[test]
    fn timed_pair_closed_with_bytes_in_flight_delivers_them_before_closed() {
        let TransportPair { mut client, mut service } =
            LoopbackTransport::over(LinkKind::Bluetooth.link(), 4096);
        assert_eq!(client.send(&[5u8; 100]).unwrap(), 100);
        client.close();
        assert_eq!(service.next_ready_at(), Some(21_383));
        let mut buf = [0u8; 128];
        assert_eq!(service.recv(&mut buf), Ok(0), "in flight is not closed");
        service.advance_to(21_383);
        assert_eq!(service.recv(&mut buf), Ok(100), "the backlog arrives");
        assert_eq!(service.recv(&mut buf), Err(TransportError::Closed), "then the close");
    }

    #[test]
    fn handoff_reprices_subsequent_sends() {
        let wlan = LinkKind::Wlan.link();
        let bt = LinkKind::Bluetooth.link();
        let (TransportPair { mut client, mut service }, handoff) =
            LoopbackTransport::over_with_handoff(wlan, 4096);
        client.send(&[1u8; 500]).unwrap();
        let first = service.next_ready_at().unwrap();
        assert_eq!(first, wlan.serialization_time(500).as_micros() + wlan.latency.as_micros());
        // Drain the WLAN chunk, then switch mediums.
        service.advance_to(first);
        let mut buf = [0u8; 512];
        service.recv(&mut buf).unwrap();
        handoff.switch(bt);
        client.send(&[2u8; 500]).unwrap();
        assert_eq!(
            service.next_ready_at(),
            Some(first + bt.serialization_time(500).as_micros() + bt.latency.as_micros()),
            "post-handoff chunk priced at the new link"
        );
    }

    #[test]
    fn handoff_to_a_faster_link_keeps_the_stream_fifo() {
        let (bt, lan) = (LinkKind::Bluetooth.link(), LinkKind::Lan.link());
        let (TransportPair { mut client, mut service }, handoff) =
            LoopbackTransport::over_with_handoff(bt, 4096);
        client.send(&[1u8; 100]).unwrap();
        handoff.switch(lan);
        client.send(&[2u8; 100]).unwrap();
        // The LAN chunk's own ready time (1 593 µs) comes before the
        // Bluetooth chunk's (21 383 µs), but it is behind it on the wire.
        let bt_done = bt.serialization_time(100).as_micros();
        let us = |l: Link| l.serialization_time(100).as_micros() + l.latency.as_micros();
        assert_eq!((us(bt), bt_done + us(lan)), (21_383, 1_593));
        service.advance_to(1_593);
        assert_eq!(service.readable(), 0, "the later chunk does not overtake");
        assert_eq!(service.next_ready_at(), Some(21_383));
        service.advance_to(21_383);
        let mut buf = [0u8; 256];
        assert_eq!(service.recv(&mut buf), Ok(200));
        assert_eq!(&buf[..100], &[1u8; 100]);
        assert_eq!(&buf[100..200], &[2u8; 100]);
        assert_eq!(service.next_ready_at(), None);
    }
}
