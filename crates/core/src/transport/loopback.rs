//! In-memory loopback pair: a capacity-bounded byte ring per direction.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use super::{Side, Transport, TransportError, TransportPair};

#[derive(Debug)]
struct LoopState {
    to_service: VecDeque<u8>,
    to_client: VecDeque<u8>,
    capacity: usize,
    closed: bool,
}

/// In-memory transport pair: a capacity-bounded byte ring per direction,
/// bytes readable the instant they are written. The deterministic default
/// — reactor runs over it depend only on the poll order, exactly like the
/// old in-memory delivery path.
#[derive(Debug)]
pub struct LoopbackTransport {
    state: Rc<RefCell<LoopState>>,
    side: Side,
}

impl LoopbackTransport {
    /// Builds a connected pair with the given per-direction `capacity`.
    pub fn pair(capacity: usize) -> TransportPair {
        assert!(capacity > 0, "transport capacity must be positive");
        let state = Rc::new(RefCell::new(LoopState {
            to_service: VecDeque::new(),
            to_client: VecDeque::new(),
            capacity,
            closed: false,
        }));
        TransportPair {
            client: Box::new(LoopbackTransport { state: Rc::clone(&state), side: Side::Client }),
            service: Box::new(LoopbackTransport { state, side: Side::Service }),
        }
    }
}

impl Transport for LoopbackTransport {
    fn writable(&self) -> usize {
        let s = self.state.borrow();
        if s.closed {
            return 0;
        }
        let out = match self.side {
            Side::Client => &s.to_service,
            Side::Service => &s.to_client,
        };
        s.capacity - out.len()
    }

    fn readable(&self) -> usize {
        let s = self.state.borrow();
        match self.side {
            Side::Client => s.to_client.len(),
            Side::Service => s.to_service.len(),
        }
    }

    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Err(TransportError::Closed);
        }
        let capacity = s.capacity;
        let out = match self.side {
            Side::Client => &mut s.to_service,
            Side::Service => &mut s.to_client,
        };
        let n = bytes.len().min(capacity - out.len());
        out.extend(&bytes[..n]);
        Ok(n)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        let mut s = self.state.borrow_mut();
        let closed = s.closed;
        let inbound = match self.side {
            Side::Client => &mut s.to_client,
            Side::Service => &mut s.to_service,
        };
        if inbound.is_empty() {
            return if closed { Err(TransportError::Closed) } else { Ok(0) };
        }
        let n = buf.len().min(inbound.len());
        // The ring's content is at most two runs: up to the end of the
        // allocation, then from its start.
        let (front, back) = inbound.as_slices();
        let k = n.min(front.len());
        buf[..k].copy_from_slice(&front[..k]);
        buf[k..n].copy_from_slice(&back[..n - k]);
        inbound.drain(..n);
        Ok(n)
    }

    fn close(&mut self) {
        self.state.borrow_mut().closed = true;
    }

    fn is_closed(&self) -> bool {
        self.state.borrow().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
