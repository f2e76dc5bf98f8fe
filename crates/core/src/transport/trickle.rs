//! Delivery-rate clamp around any [`Transport`] end (test harness).

use super::{Transport, TransportError, TransportPair};

/// A delivery-rate clamp around any [`Transport`] end: at most `per_tick`
/// bytes surface per simulated-microsecond tick, so a frame that crossed
/// the inner pipe whole arrives at the reader one dribble at a time —
/// exactly what a real TCP stream does to framing code. With
/// `per_tick = 1` every header and body split at every byte boundary.
///
/// The wrapper plugs into the reactor's starvation protocol: when the tick
/// budget is spent but the inner end still holds bytes,
/// [`next_ready_at`](Transport::next_ready_at) names the next tick and
/// [`advance_to`](Transport::advance_to) refills the budget — so
/// [`Reactor::run`](crate::reactor::Reactor::run) drives a trickled pair
/// to completion instead of reporting a stall.
pub struct TrickleTransport {
    inner: Box<dyn Transport>,
    per_tick: usize,
    budget: usize,
    now: u64,
}

impl TrickleTransport {
    /// Clamps `inner` to `per_tick` received bytes per tick.
    pub fn new(inner: Box<dyn Transport>, per_tick: usize) -> TrickleTransport {
        assert!(per_tick > 0, "trickle rate must be positive");
        TrickleTransport { inner, per_tick, budget: per_tick, now: 0 }
    }

    /// Wraps both ends of a pair, so each direction dribbles.
    pub fn wrap_pair(pair: TransportPair, per_tick: usize) -> TransportPair {
        TransportPair {
            client: Box::new(TrickleTransport::new(pair.client, per_tick)),
            service: Box::new(TrickleTransport::new(pair.service, per_tick)),
        }
    }
}

impl Transport for TrickleTransport {
    fn writable(&self) -> usize {
        self.inner.writable()
    }

    fn readable(&self) -> usize {
        self.inner.readable().min(self.budget)
    }

    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        self.inner.send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        if self.budget == 0 {
            // Budget spent this tick; Closed still wins once the inner
            // backlog is truly empty (ask with an empty window).
            return match self.inner.recv(&mut []) {
                Err(e) => Err(e),
                Ok(_) => Ok(0),
            };
        }
        let n = buf.len().min(self.budget);
        let got = self.inner.recv(&mut buf[..n])?;
        self.budget -= got;
        Ok(got)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn now_us(&self) -> u64 {
        self.now.max(self.inner.now_us())
    }

    fn next_ready_at(&self) -> Option<u64> {
        if self.budget == 0 && self.inner.readable() > 0 {
            // Starved by the clamp, not the wire: ready next tick.
            return Some(self.now + 1);
        }
        self.inner.next_ready_at()
    }

    fn advance_to(&mut self, t_us: u64) {
        if t_us > self.now {
            self.now = t_us;
            self.budget = self.per_tick;
        }
        self.inner.advance_to(t_us);
    }
}
