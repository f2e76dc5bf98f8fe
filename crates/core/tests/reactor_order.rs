//! The reactor's ready-queue rule. A session that still has work after its
//! poll is pumped again next, so a burst on untimed pairs is served first
//! come, first served; a session waiting on its wire gives the reactor to
//! the next one, so sessions over a timed link still overlap. A write arms
//! the peer end for reading, so the same holds over ends that, like a
//! kernel socket, report nothing readable until told.

use fractal_core::reactor::{InpSession, Reactor, SessionPhase};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_core::transport::{
    LoopbackTransport, Transport, TransportError, TransportPair, DEFAULT_CAPACITY,
};
use fractal_core::ClientClass;
use fractal_net::LinkKind;

fn testbed_with_pages(n: u32) -> Testbed {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..n {
        let seed = id as u8 + 1;
        let page = (0..9_000).map(|i| ((i / 5) as u8).wrapping_mul(seed).wrapping_add(seed));
        tb.server.publish(id, page.collect::<Vec<u8>>());
    }
    tb
}

/// Spawns `N` sessions of mixed classes at once, each on the pair `pair`
/// builds, and drives them with `poll` alone. They finish in spawn order,
/// and the last of them has not been pumped — it is still in the phase it
/// opened in — when the first is done.
fn a_burst_finishes_in_spawn_order(pair: impl Fn() -> TransportPair) {
    const N: usize = 8;
    let tb = testbed_with_pages(N as u32);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    for i in 0..N {
        let class = ClientClass::ALL[i % ClientClass::ALL.len()];
        reactor.spawn_on(InpSession::new(tb.client(class), tb.app_id, i as u32, 0), pair());
    }
    let last = N - 1;
    assert_eq!(reactor.session(last).phase(), SessionPhase::MetaExchange);

    let mut done_order = Vec::new();
    let mut last_pumped = false;
    while let Some(id) = reactor.poll() {
        last_pumped |= id == last;
        let phase = reactor.session(id).phase();
        assert_ne!(phase, SessionPhase::Failed, "session {id}");
        if phase == SessionPhase::Done && !done_order.contains(&id) {
            if done_order.is_empty() {
                assert!(!last_pumped, "session {last} was pumped before session {id} finished");
                assert_eq!(reactor.session(last).phase(), SessionPhase::MetaExchange);
            }
            done_order.push(id);
        }
    }
    assert_eq!(
        reactor.in_flight(),
        0,
        "the ready queue ran dry with sessions live; finished: {done_order:?}"
    );
    assert_eq!(done_order, (0..N).collect::<Vec<_>>());
    assert_eq!(reactor.report().completed, N);
}

#[test]
fn a_burst_on_untimed_pairs_finishes_in_spawn_order() {
    a_burst_finishes_in_spawn_order(|| LoopbackTransport::pair(DEFAULT_CAPACITY));
}

/// An untimed in-memory end with a kernel socket's readiness shape: it
/// reports nothing readable, and reads nothing, until
/// [`set_ready`](Transport::set_ready) arms it, and a read that drains it
/// disarms it. No kernel, so no scheduling noise.
struct Armed {
    inner: Box<dyn Transport>,
    armed: bool,
}

impl Armed {
    fn pair() -> TransportPair {
        let TransportPair { client, service } = LoopbackTransport::pair(DEFAULT_CAPACITY);
        let arm = |inner| Box::new(Armed { inner, armed: false }) as Box<dyn Transport>;
        TransportPair { client: arm(client), service: arm(service) }
    }
}

impl Transport for Armed {
    fn writable(&self) -> usize {
        self.inner.writable()
    }

    fn readable(&self) -> usize {
        if self.armed {
            self.inner.readable()
        } else {
            0
        }
    }

    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        self.inner.send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        if !self.armed {
            return Ok(0);
        }
        let n = self.inner.recv(buf)?;
        self.armed = self.inner.readable() > 0;
        Ok(n)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn set_ready(&mut self, readable: bool, _writable: bool) {
        self.armed |= readable;
    }
}

/// The burst over ends that only a readiness hint makes readable, with no
/// kernel event ever applied: a session's own write arms its peer, so it
/// still runs to `Done` before the next one starts.
#[test]
fn a_write_arms_its_peer_so_a_burst_on_armed_pairs_finishes_in_spawn_order() {
    a_burst_finishes_in_spawn_order(Armed::pair);
}

/// Two sessions over a timed WLAN link: each waits on its wire after every
/// send, and a waiting session gives the reactor to the other, so both
/// have left their opening phase before either is done.
#[test]
fn sessions_on_a_timed_link_still_overlap() {
    let tb = testbed_with_pages(2);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let ids: Vec<_> = [ClientClass::LaptopWlan, ClientClass::PdaBluetooth]
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let session = InpSession::new(tb.client(class), tb.app_id, i as u32, 0);
            let pair = LoopbackTransport::over(LinkKind::Wlan.link(), DEFAULT_CAPACITY);
            reactor.spawn_on(session, pair)
        })
        .collect();
    let phases = |r: &Reactor| ids.iter().map(|&id| r.session(id).phase()).collect::<Vec<_>>();

    reactor.run_until(|r| phases(r).contains(&SessionPhase::Done)).unwrap();
    let at_first_done = phases(&reactor);
    assert!(
        at_first_done.iter().all(|&p| p != SessionPhase::MetaExchange),
        "a session was still opening when the other finished: {at_first_done:?}"
    );
    let report = reactor.run().unwrap();
    assert_eq!((report.completed, report.failed), (2, 0));
}
