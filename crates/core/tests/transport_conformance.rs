//! One conformance body, three transports.
//!
//! Every [`Transport`] implementation must honor the same readiness
//! contract — short writes at the window, partial reads, `Ok(0)` as
//! "no budget", a short read that empties the end, drain-then-`Closed`
//! teardown — because the reactor's pump loop is written against the
//! contract, not an implementation. This suite runs each behavioral case
//! against an untimed `LoopbackTransport`, one built over a WLAN link, and
//! the socket-backed `TcpTransport`, so an edge case found on one (EAGAIN
//! flag handling, split frames, FIN ordering, close with bytes in flight)
//! is pinned for all.
//!
//! The driver below is transport-agnostic: progress comes from `pump`,
//! which advances simulated clocks where the pair has them and feeds
//! `poll(2)` readiness where the pair has file descriptors.

#![cfg(unix)]

use std::time::Duration;

use fractal_core::inp::InpMessage;
use fractal_core::reactor::{InpSession, Reactor, SessionPhase};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::sys::{Interest, Poller};
use fractal_core::testbed::Testbed;
use fractal_core::transport::{
    Framer, LoopbackTransport, SendQueue, TcpTransport, TransportError, TransportPair,
    DEFAULT_CAPACITY,
};
use fractal_core::{ClientClass, PadMeta};
use fractal_net::LinkKind;

/// The pairs under test. Small in-memory capacities so multi-hundred-byte
/// payloads must cross in several partial writes.
fn transports() -> Vec<(&'static str, TransportPair)> {
    vec![
        ("loopback", LoopbackTransport::pair(256)),
        ("loopback over WLAN", LoopbackTransport::over(LinkKind::Wlan.link(), 256)),
        ("tcp", TcpTransport::pair().expect("loopback TCP pair")),
    ]
}

/// One transport-agnostic progress step: advance the pair's simulated
/// clock to its next delivery instant (timed transports) and feed one
/// `poll(2)` round of kernel readiness back in (socket transports).
fn pump(pair: &mut TransportPair) {
    let next = match (pair.client.next_ready_at(), pair.service.next_ready_at()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    if let Some(t) = next {
        pair.client.advance_to(t);
        pair.service.advance_to(t);
    }
    let mut poller = Poller::new();
    if let Some(fd) = pair.client.raw_fd() {
        poller.register(fd, 0, Interest::READ_WRITE);
    }
    if let Some(fd) = pair.service.raw_fd() {
        poller.register(fd, 1, Interest::READ_WRITE);
    }
    if poller.registered() > 0 {
        let events = poller.wait(Some(Duration::from_millis(500))).expect("poll");
        for ev in events {
            let end = if ev.token == 0 { &mut pair.client } else { &mut pair.service };
            end.set_ready(ev.readable, ev.writable);
        }
    }
}

/// Receives exactly `n` bytes at the service end, `chunk` bytes at a time.
fn recv_exactly(pair: &mut TransportPair, n: usize, chunk: usize) -> Vec<u8> {
    let mut got = Vec::new();
    let mut buf = vec![0u8; chunk];
    for _ in 0..100_000 {
        if got.len() >= n {
            return got;
        }
        let r = pair.service.recv(&mut buf).expect("recv");
        got.extend_from_slice(&buf[..r]);
        if r == 0 {
            pump(pair);
        }
    }
    panic!("recv made no progress ({}/{n} bytes)", got.len());
}

#[test]
fn round_trip_survives_partial_reads() {
    for (name, mut pair) in transports() {
        // The payload exceeds the in-memory window (256 bytes), so the
        // sender must interleave with the reader through backpressure;
        // a 7-byte read buffer makes every read partial.
        let payload: Vec<u8> = (0..2_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut buf = [0u8; 7];
        for _ in 0..100_000 {
            if got.len() == payload.len() {
                break;
            }
            if sent < payload.len() {
                sent += pair.client.send(&payload[sent..]).expect("send");
            }
            let r = pair.service.recv(&mut buf).expect("recv");
            got.extend_from_slice(&buf[..r]);
            if r == 0 {
                pump(&mut pair);
            }
        }
        assert_eq!(got, payload, "{name}: bytes must arrive intact and in order");
        let mut probe = [0u8; 16];
        assert_eq!(pair.service.recv(&mut probe).expect(name), 0, "{name}: drained pipe reads 0");
    }
}

#[test]
fn framed_messages_reassemble_across_short_writes() {
    for (name, mut pair) in transports() {
        let messages = [
            InpMessage::InitReq { app_id: fractal_core::AppId(3), payload: vec![1; 5] },
            InpMessage::InitReq { app_id: fractal_core::AppId(4), payload: vec![2; 1_500] },
            InpMessage::InitRep,
        ];
        let mut queue = SendQueue::new();
        for m in &messages {
            queue.push(Framer::frame(m));
        }
        let mut framer = Framer::new();
        let mut out = Vec::new();
        for _ in 0..100_000 {
            if out.len() == messages.len() {
                break;
            }
            queue.flush(pair.client.as_mut()).expect("flush");
            pump(&mut pair);
            framer.pull(pair.service.as_mut()).expect("pull");
            while let Some(frame) = framer.next_frame().expect("frame") {
                out.push(frame.msg);
            }
        }
        assert_eq!(out, messages, "{name}: frames must survive arbitrary write splits");
        assert!(queue.is_empty(), "{name}: queue fully drained");
        assert_eq!(framer.buffered(), 0, "{name}: no stray bytes");
    }
}

#[test]
fn backpressure_zeroes_writable_and_draining_reopens_it() {
    for (name, mut pair) in transports() {
        // Fill the window: in-memory pairs cap at their ring capacity, the
        // kernel caps at the socket buffer. Either way send must start
        // returning Ok(0) with writable() == 0 instead of blocking.
        let chunk = vec![0xA5u8; 64 * 1024];
        let mut queued = 0usize;
        let mut stalls = 0;
        while stalls < 3 {
            let n = pair.client.send(&chunk).expect("send");
            queued += n;
            if n == 0 {
                stalls += 1;
            } else {
                stalls = 0;
            }
            assert!(queued < 64 << 20, "{name}: window never closed");
        }
        assert_eq!(pair.client.writable(), 0, "{name}: closed window reports zero budget");
        assert!(queued > 0, "{name}: something entered the window first");

        // Drain the whole backlog at the peer (the kernel only reports
        // POLLOUT once a sizable share of the send buffer is free, so a
        // token drain is not enough), pump readiness home, and the window
        // must reopen.
        recv_exactly(&mut pair, queued, 4096);
        for _ in 0..1_000 {
            if pair.client.writable() > 0 {
                break;
            }
            pump(&mut pair);
        }
        assert!(pair.client.writable() > 0, "{name}: draining must reopen the window");
    }
}

#[test]
fn close_mid_frame_drains_backlog_then_reports_closed() {
    for (name, mut pair) in transports() {
        // Half a frame enters the pipe, then the sender goes away with it
        // still in flight.
        let frame = Framer::frame(&InpMessage::InitReq {
            app_id: fractal_core::AppId(9),
            payload: vec![7; 64],
        });
        let half = frame.len() / 2;
        assert_eq!(pair.client.send(&frame[..half]), Ok(half), "{name}: fits the window");
        pair.client.close();
        assert!(pair.client.is_closed(), "{name}: closing end knows");
        assert_eq!(
            pair.client.send(b"late"),
            Err(TransportError::Closed),
            "{name}: send after close errors"
        );
        // The receiver first drains every byte that entered the pipe…
        let got = recv_exactly(&mut pair, half, 11);
        assert_eq!(got, &frame[..half], "{name}: backlog intact");
        // …and only then sees Closed, never a silent hang.
        let mut buf = [0u8; 32];
        let verdict: Result<usize, TransportError> = loop {
            match pair.service.recv(&mut buf) {
                Err(e) => break Err(e),
                Ok(0) => pump(&mut pair),
                Ok(n) => panic!("{name}: {n} surprise bytes after drain"),
            }
        };
        assert_eq!(verdict, Err(TransportError::Closed), "{name}");
    }
}

#[test]
fn a_short_read_empties_the_end_and_loses_neither_later_bytes_nor_the_fin() {
    for (name, mut pair) in transports() {
        let mut buf = [0u8; 4096];
        assert_eq!(pair.client.send(&[1; 100]), Ok(100), "{name}: fits the window");
        for _ in 0..100 {
            if pair.service.readable() > 0 {
                break;
            }
            pump(&mut pair);
        }
        let n = pair.service.recv(&mut buf).expect(name);
        assert_eq!(&buf[..n], &[1; 100][..n], "{name}");
        assert!((1..buf.len()).contains(&n), "{name}: a read shorter than its buffer, got {n}");
        // The short read emptied the end: a socket reports nothing until
        // the next poll(2) round, an in-memory end reports the truth.
        let rest = pair.service.readable();
        if name == "tcp" {
            assert_eq!(rest, 0, "{name}: a short read clears the flag");
        }
        let more = pair.service.recv(&mut buf).expect(name);
        assert_eq!(more, rest, "{name}: readable() after a short read is what recv yields");
        assert_eq!(n + more, 100, "{name}: every byte arrived once");

        // Bytes sent after the short read arrive after one pump.
        assert_eq!(pair.client.send(&[2; 50]), Ok(50), "{name}");
        pump(&mut pair);
        assert_eq!(pair.service.recv(&mut buf), Ok(50), "{name}: one pump delivers them");
        assert_eq!(&buf[..50], &[2; 50][..], "{name}");

        // A close behind the bytes: they arrive by a short read, and the
        // FIN behind them still ends in Closed.
        assert_eq!(pair.client.send(&[3; 30]), Ok(30), "{name}");
        pair.client.close();
        let mut got = Vec::new();
        let verdict = (0..100).find_map(|_| match pair.service.recv(&mut buf) {
            Ok(0) => {
                pump(&mut pair);
                None
            }
            Ok(n) => {
                got.extend_from_slice(&buf[..n]);
                None
            }
            Err(e) => Some(e),
        });
        assert_eq!(got, [3; 30], "{name}: the backlog before the FIN");
        assert_eq!(verdict, Some(TransportError::Closed), "{name}: the FIN was lost");
    }
}

/// Runs one cold session over an untimed loopback pair of `capacity` bytes
/// per direction; returns its phase, decision and decoded content.
fn session_over(capacity: usize) -> (SessionPhase, Option<Vec<PadMeta>>, Vec<u8>) {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    tb.server.publish(0, (0..4_000).map(|i| (i % 200) as u8).collect::<Vec<u8>>());
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let session = InpSession::new(tb.client(ClientClass::PdaBluetooth), tb.app_id, 0, 0);
    let id = reactor.spawn_on(session, LoopbackTransport::pair(capacity));
    reactor.run().expect("session completes");
    let session = reactor.session(id);
    let content = session.client().cached_content(0).map(|c| c.bytes.to_vec());
    assert_eq!(content.as_deref(), tb.server.content(0, 0).as_deref(), "capacity {capacity}");
    (session.phase(), session.negotiated().map(<[_]>::to_vec), content.unwrap_or_default())
}

#[test]
fn byte_at_a_time_arrival_still_completes_a_full_session() {
    // Regression for real-TCP dribble: with one byte of window per
    // direction every INP header and body splits at every byte boundary,
    // in both directions, through the whole negotiation + PAD download +
    // app exchange. The framer must reassemble and the reactor must keep
    // pumping (no stall).
    let (phase, decision, _) = session_over(1);
    assert_eq!(phase, SessionPhase::Done);
    // Decisions are unchanged by delivery granularity.
    let oracle_tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let expect =
        oracle_tb.proxy.negotiate(oracle_tb.app_id, ClientClass::PdaBluetooth.env()).unwrap();
    assert_eq!(decision, Some(expect));
}

#[test]
fn decisions_and_content_agree_at_every_capacity() {
    let oracle = session_over(DEFAULT_CAPACITY);
    for capacity in [1, 3, 64] {
        assert_eq!(session_over(capacity), oracle, "capacity {capacity}");
    }
}
