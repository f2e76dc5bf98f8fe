//! Simulated-link pair: the loopback pipe gated by a [`fractal_net::Link`]
//! on a per-pair simulated clock.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fractal_net::Link;

use super::{Side, Transport, TransportError, TransportPair};

/// One in-flight chunk: bytes that surface to the reader at `ready_at`.
#[derive(Debug)]
struct Chunk {
    ready_at: u64,
    data: Vec<u8>,
    taken: usize,
}

/// One direction of the simulated pipe.
#[derive(Debug, Default)]
struct SimWire {
    /// In-flight and readable-but-unread chunks, in `ready_at` order
    /// (serialization is FIFO, latency is constant).
    chunks: VecDeque<Chunk>,
    /// Total unread bytes — the flow-control window in use.
    in_flight: usize,
    /// When the sender's last serialization finishes (µs); the link is a
    /// shared medium, so the next chunk serializes after this.
    busy_until: u64,
}

impl SimWire {
    fn readable_at(&self, now: u64) -> usize {
        self.chunks.iter().take_while(|c| c.ready_at <= now).map(|c| c.data.len() - c.taken).sum()
    }
}

#[derive(Debug)]
struct SimState {
    link: Link,
    capacity: usize,
    /// The pair's private simulated clock (µs). Pairs are causally
    /// independent, so each advances on its own — a session's timeline is
    /// a pure function of that session's traffic, never of its batchmates.
    now: u64,
    closed: bool,
    to_service: SimWire,
    to_client: SimWire,
}

/// A transport pair gated by a [`fractal_net::Link`]: each `send` occupies
/// the link for the chunk's serialization time at goodput (Equation 3) and
/// becomes readable after serialization plus one-way propagation latency.
/// `capacity` bounds unread in-flight bytes per direction, so `writable()`
/// models a flow-control window.
#[derive(Debug)]
pub struct SimLinkTransport {
    state: Rc<RefCell<SimState>>,
    side: Side,
}

impl SimLinkTransport {
    /// Builds a connected pair over `link` with the given in-flight
    /// `capacity` per direction, starting at simulated time 0.
    pub fn pair(link: Link, capacity: usize) -> TransportPair {
        assert!(capacity > 0, "transport capacity must be positive");
        let state = Rc::new(RefCell::new(SimState {
            link,
            capacity,
            now: 0,
            closed: false,
            to_service: SimWire::default(),
            to_client: SimWire::default(),
        }));
        TransportPair {
            client: Box::new(SimLinkTransport { state: Rc::clone(&state), side: Side::Client }),
            service: Box::new(SimLinkTransport { state, side: Side::Service }),
        }
    }

    /// Like [`pair`](Self::pair), but also returns a [`LinkHandoff`]
    /// handle that can swap the link model mid-session — the mobility
    /// primitive (walk out of WLAN range, fall back to Bluetooth).
    pub fn pair_with_handoff(link: Link, capacity: usize) -> (TransportPair, LinkHandoff) {
        assert!(capacity > 0, "transport capacity must be positive");
        let state = Rc::new(RefCell::new(SimState {
            link,
            capacity,
            now: 0,
            closed: false,
            to_service: SimWire::default(),
            to_client: SimWire::default(),
        }));
        let pair = TransportPair {
            client: Box::new(SimLinkTransport { state: Rc::clone(&state), side: Side::Client }),
            service: Box::new(SimLinkTransport { state: Rc::clone(&state), side: Side::Service }),
        };
        (pair, LinkHandoff { state })
    }
}

/// A handle onto a live [`SimLinkTransport`] pair's link model.
///
/// [`switch`](Self::switch) swaps the link under the pair mid-session:
/// chunks already in flight keep the delivery times the old link priced
/// them at (they are already on the old medium), while every subsequent
/// `send` serializes at the new link's goodput and latency.
#[derive(Debug)]
pub struct LinkHandoff {
    state: Rc<RefCell<SimState>>,
}

impl LinkHandoff {
    /// Swaps the pair onto `link` at the pair's current simulated time.
    pub fn switch(&self, link: Link) {
        self.state.borrow_mut().link = link;
    }

    /// The link currently under the pair.
    pub fn link(&self) -> Link {
        self.state.borrow().link
    }
}

impl Transport for SimLinkTransport {
    fn writable(&self) -> usize {
        let s = self.state.borrow();
        if s.closed {
            return 0;
        }
        let out = match self.side {
            Side::Client => &s.to_service,
            Side::Service => &s.to_client,
        };
        s.capacity - out.in_flight
    }

    fn readable(&self) -> usize {
        let s = self.state.borrow();
        let inbound = match self.side {
            Side::Client => &s.to_client,
            Side::Service => &s.to_service,
        };
        inbound.readable_at(s.now)
    }

    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Err(TransportError::Closed);
        }
        let (capacity, now, link) = (s.capacity, s.now, s.link);
        let out = match self.side {
            Side::Client => &mut s.to_service,
            Side::Service => &mut s.to_client,
        };
        let n = bytes.len().min(capacity - out.in_flight);
        if n == 0 {
            return Ok(0);
        }
        let start = now.max(out.busy_until);
        let serialized = start + link.serialization_time(n as u64).as_micros();
        out.busy_until = serialized;
        out.chunks.push_back(Chunk {
            ready_at: serialized + link.latency.as_micros(),
            data: bytes[..n].to_vec(),
            taken: 0,
        });
        out.in_flight += n;
        Ok(n)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        let mut s = self.state.borrow_mut();
        let (closed, now) = (s.closed, s.now);
        let inbound = match self.side {
            Side::Client => &mut s.to_client,
            Side::Service => &mut s.to_service,
        };
        let mut read = 0;
        while read < buf.len() {
            let Some(front) = inbound.chunks.front_mut() else { break };
            if front.ready_at > now {
                break;
            }
            let n = (buf.len() - read).min(front.data.len() - front.taken);
            buf[read..read + n].copy_from_slice(&front.data[front.taken..front.taken + n]);
            front.taken += n;
            read += n;
            inbound.in_flight -= n;
            if front.taken == front.data.len() {
                inbound.chunks.pop_front();
            }
        }
        if read == 0 && closed {
            return Err(TransportError::Closed);
        }
        Ok(read)
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
        let inbound = match self.side {
            Side::Client => &s.to_client,
            Side::Service => &s.to_service,
        };
        inbound.chunks.iter().map(|c| c.ready_at).find(|&t| t > s.now)
    }

    fn advance_to(&mut self, t_us: u64) {
        let mut s = self.state.borrow_mut();
        s.now = s.now.max(t_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_net::LinkKind;

    #[test]
    fn simlink_gates_readability_on_serialization_plus_latency() {
        let link = LinkKind::Bluetooth.link();
        let TransportPair { mut client, mut service } = SimLinkTransport::pair(link, 4096);
        let n = client.send(&[9u8; 1000]).unwrap();
        assert_eq!(n, 1000);
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
    fn simlink_serializes_chunks_back_to_back() {
        let link = LinkKind::Wlan.link();
        let TransportPair { mut client, service } = SimLinkTransport::pair(link, 4096);
        client.send(&[1u8; 500]).unwrap();
        let first = service.next_ready_at().unwrap();
        client.send(&[2u8; 500]).unwrap();
        // The second chunk serializes after the first (shared medium), so
        // it is ready exactly one serialization slot later.
        let second = service.next_ready_at().unwrap();
        assert_eq!(first, second, "front chunk unchanged");
        let ser = link.serialization_time(500).as_micros();
        let s = // both chunks' ready times, via readable sweep
            { let mut svc = service; svc.advance_to(first + ser); svc.readable() };
        assert_eq!(s, 1000, "second chunk ready one serialization later");
    }

    #[test]
    fn simlink_capacity_is_a_flow_control_window() {
        let link = LinkKind::Lan.link();
        let TransportPair { mut client, mut service } = SimLinkTransport::pair(link, 100);
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
    fn simlink_is_deterministic() {
        let run = || {
            let link = LinkKind::Wlan.link();
            let TransportPair { mut client, mut service } = SimLinkTransport::pair(link, 512);
            let mut log = Vec::new();
            for i in 0..5u8 {
                client.send(&[i; 300]).unwrap();
                if let Some(t) = service.next_ready_at() {
                    service.advance_to(t);
                }
                let mut buf = [0u8; 1024];
                let n = service.recv(&mut buf).unwrap();
                log.push((service.now_us(), n));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn link_handoff_reprices_subsequent_sends() {
        let wlan = LinkKind::Wlan.link();
        let bt = LinkKind::Bluetooth.link();
        let (TransportPair { mut client, mut service }, handoff) =
            SimLinkTransport::pair_with_handoff(wlan, 4096);
        client.send(&[1u8; 500]).unwrap();
        let first = service.next_ready_at().unwrap();
        assert_eq!(first, wlan.serialization_time(500).as_micros() + wlan.latency.as_micros());
        // Drain the WLAN chunk, then switch mediums.
        service.advance_to(first);
        let mut buf = [0u8; 512];
        service.recv(&mut buf).unwrap();
        handoff.switch(bt);
        assert_eq!(handoff.link(), bt);
        client.advance_to(first);
        client.send(&[2u8; 500]).unwrap();
        let second = service.next_ready_at().unwrap();
        assert_eq!(
            second,
            first + bt.serialization_time(500).as_micros() + bt.latency.as_micros(),
            "post-handoff chunk priced at the new link"
        );
    }
}
