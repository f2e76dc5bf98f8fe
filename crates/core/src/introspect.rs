//! Live introspection plane: `/metrics`, `/healthz`, `/journal`, and
//! `/stalls` over plain HTTP/1.0, served from the repo's own event loop.
//!
//! A sharded run is opaque from the outside: its telemetry registries are
//! per-shard and private, and its flight recorders live on the shard
//! threads. This module inverts that without giving up the share-nothing
//! layout. The [`ShardedReactor`](crate::shard::ShardedReactor) builds
//! its per-shard [`Telemetry`] bundles (registry + journal) *before* the
//! shard threads spawn, so the driver can
//! [`attach`](IntrospectSource::attach) live bundles to an
//! [`IntrospectSource`]; a sidecar [`IntrospectServer`]
//! thread then serves merged snapshots over loopback TCP while the run
//! is in flight.
//!
//! Two properties matter more than HTTP fidelity:
//!
//! * **Scrape monotonicity.** Counters must never appear to go
//!   backwards across scrapes, even as runs start and finish. Finished
//!   runs are [`retire`](IntrospectSource::retire)d by folding their
//!   final snapshot into a `baseline` that every later merge includes —
//!   the merged view only ever grows.
//! * **Exact reconciliation.** A scrape is not a sample: when the
//!   workload is quiescent, the `/metrics` body must equal
//!   [`IntrospectSource::merged_snapshot`] rendered in-process, byte for
//!   byte. The integration tests pin this.
//!
//! The server is deliberately minimal — HTTP/1.0, `Connection: close`,
//! GET only — and is built on [`sys::Poller`](crate::sys::Poller) +
//! [`TcpTransport`], the same readiness
//! machinery the INP server itself uses. No new dependencies, no second
//! I/O idiom to maintain.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fractal_crypto::wire::Cursor;
use fractal_telemetry::journal::JournalSnapshot;
use fractal_telemetry::{Snapshot, Telemetry};
use parking_lot::Mutex;

use crate::sys::{Interest, Poller};
use crate::transport::{TcpTransport, Transport};

/// How long the serve loop sleeps in `poll(2)` per round. Bounds both
/// accept latency and shutdown latency.
const SERVE_SLICE: Duration = Duration::from_millis(50);

/// Requests whose headers exceed this are answered `400` and closed —
/// the plane serves `curl`, not the open internet. A connection stops
/// reading once its buffer passes this, so a peer streaming a request
/// with no header terminator costs at most one read chunk more.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Connections the sidecar serves at once; further ones wait in the
/// listen backlog until a live one finishes.
const MAX_CONNECTIONS: usize = 64;

/// Poller token reserved for the listener (connections use their index).
const LISTENER_TOKEN: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Source: what the plane observes
// ---------------------------------------------------------------------------

/// The aggregation point between workload threads and the HTTP sidecar.
///
/// Workloads [`attach`](Self::attach) live [`Telemetry`] bundles
/// (registry plus, when attached, journal) while a run is in flight and
/// [`retire`](Self::retire) them when it completes; stall diagnostics
/// are pushed as they happen. Every accessor merges `baseline ∪ live`,
/// so scrapes see one continuous, monotonically growing series across
/// run boundaries.
#[derive(Default)]
pub struct IntrospectSource {
    inner: Mutex<SourceInner>,
}

#[derive(Default)]
struct SourceInner {
    /// Folded-in snapshots of every retired bundle.
    baseline: Snapshot,
    /// Folded-in journals of every retired bundle.
    baseline_journal: JournalSnapshot,
    /// Live bundles: `(id, telemetry)`.
    live: Vec<(u64, Telemetry)>,
    /// Rendered stall reports, in arrival order.
    stalls: Vec<String>,
    next_id: u64,
}

impl IntrospectSource {
    /// An empty source behind an [`Arc`], ready to share with a server.
    pub fn new() -> Arc<IntrospectSource> {
        Arc::new(IntrospectSource::default())
    }

    /// Registers a live bundle; the returned id names it to
    /// [`retire`](Self::retire).
    pub fn attach(&self, tele: Telemetry) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.live.push((id, tele));
        id
    }

    /// Unregisters a bundle, folding its **final** snapshot and journal
    /// into the baseline. The merged view is unchanged at the instant of
    /// retirement and keeps growing afterwards — this is what makes
    /// scrape counters monotonic across consecutive runs.
    pub fn retire(&self, id: u64) {
        let mut inner = self.inner.lock();
        if let Some(ix) = inner.live.iter().position(|(i, _)| *i == id) {
            let (_, tele) = inner.live.swap_remove(ix);
            let (snap, jsnap) = (tele.snapshot(), tele.journal_snapshot());
            inner.baseline.merge(&snap);
            inner.baseline_journal.merge(&jsnap);
        }
    }

    /// Baseline plus every live registry, merged into one snapshot.
    pub fn merged_snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut merged = inner.baseline.clone();
        for (_, tele) in &inner.live {
            merged.merge(&tele.snapshot());
        }
        merged
    }

    /// Baseline plus every live flight recorder, canonically merged.
    pub fn merged_journal(&self) -> JournalSnapshot {
        let inner = self.inner.lock();
        let mut merged = inner.baseline_journal.clone();
        for (_, tele) in &inner.live {
            merged.merge(&tele.journal_snapshot());
        }
        merged
    }

    /// Appends a rendered stall diagnostic (served verbatim by
    /// `/stalls`).
    pub fn record_stall(&self, report: impl std::fmt::Display) {
        self.inner.lock().stalls.push(report.to_string());
    }

    /// Every stall recorded so far, in arrival order.
    pub fn stalls(&self) -> Vec<String> {
        self.inner.lock().stalls.clone()
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

/// One accepted connection: read until the blank line, answer, flush,
/// close.
struct Conn {
    transport: TcpTransport,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    sent: usize,
    responding: bool,
}

impl Conn {
    fn new(transport: TcpTransport) -> Conn {
        Conn { transport, inbuf: Vec::new(), outbuf: Vec::new(), sent: 0, responding: false }
    }

    /// Drives the connection as far as readiness allows. Returns `false`
    /// when it is finished (response flushed or peer gone) and should be
    /// dropped.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    fn pump(&mut self, source: &IntrospectSource) -> bool {
        if !self.responding {
            let mut buf = [0u8; 1024];
            while self.inbuf.len() <= MAX_REQUEST_BYTES {
                match self.transport.recv(&mut buf).map(|n| Cursor::new(&buf).take(n)) {
                    Ok(Ok([])) => break,
                    Ok(Ok(got)) => self.inbuf.extend_from_slice(got),
                    Ok(Err(_)) | Err(_) => return false,
                }
            }
            let header_end = self.inbuf.windows(4).position(|w| w == b"\r\n\r\n");
            if let Some(_end) = header_end {
                let head = String::from_utf8_lossy(&self.inbuf);
                self.outbuf = respond(head.lines().next().unwrap_or(""), source);
                self.responding = true;
            } else if self.inbuf.len() > MAX_REQUEST_BYTES {
                self.outbuf = render_response(400, "text/plain", "request too large\n");
                self.responding = true;
            } else if self.transport.is_closed() {
                return false;
            }
        }
        if self.responding {
            while self.sent < self.outbuf.len() {
                match self.transport.send(self.outbuf.get(self.sent..).unwrap_or_default()) {
                    Ok(0) => break,
                    Ok(n) => self.sent += n,
                    Err(_) => return false,
                }
            }
            if self.sent == self.outbuf.len() {
                self.transport.close();
                return false;
            }
        }
        true
    }
}

/// Builds the full response for a request line (`GET /path?query
/// HTTP/1.x`).
fn respond(request_line: &str, source: &IntrospectSource) -> Vec<u8> {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return render_response(405, "text/plain", "method not allowed\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            let body = source.merged_snapshot().render_prometheus();
            render_response(200, "text/plain; version=0.0.4", &body)
        }
        "/healthz" => render_response(200, "text/plain", "ok\n"),
        "/journal" => {
            let session = query_param(query, "session").and_then(|v| v.parse::<u64>().ok());
            let n =
                query_param(query, "n").and_then(|v| v.parse::<usize>().ok()).unwrap_or(usize::MAX);
            let merged = source.merged_journal();
            let body = match session {
                Some(id) => {
                    let tail = merged.tail(id, n);
                    let mut out = String::new();
                    for ev in &tail {
                        out.push_str(&ev.to_string());
                        out.push('\n');
                    }
                    out.push_str(&format!("# session={id} events={}\n", tail.len()));
                    out
                }
                None => merged.render(),
            };
            render_response(200, "text/plain", &body)
        }
        "/stalls" => {
            let stalls = source.stalls();
            let mut body = String::new();
            for s in &stalls {
                body.push_str(s);
                body.push('\n');
            }
            body.push_str(&format!("# stalls={}\n", stalls.len()));
            render_response(200, "text/plain", &body)
        }
        _ => render_response(404, "text/plain", "not found\n"),
    }
}

fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| match pair.split_once('=') {
        Some((k, v)) if k == key => Some(v),
        _ => None,
    })
}

fn render_response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut out = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The HTTP/1.0 sidecar: one thread, one [`Poller`], at most
/// `MAX_CONNECTIONS` (64) connections at once. Binds `127.0.0.1:<port>`
/// (`0` picks an ephemeral port — read it back from
/// [`addr`](Self::addr)). Dropping the server signals shutdown and joins
/// the thread.
pub struct IntrospectServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectServer {
    /// Binds and starts serving `source` on a background thread.
    pub fn spawn(port: u16, source: Arc<IntrospectSource>) -> std::io::Result<IntrospectServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("fractal-introspect".into())
            .spawn(move || serve(listener, &source, &flag))?;
        Ok(IntrospectServer { addr, shutdown, handle: Some(handle) })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for IntrospectServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve(listener: TcpListener, source: &IntrospectSource, shutdown: &AtomicBool) {
    use std::os::fd::AsRawFd;
    let mut poller = Poller::new();
    let mut conns: Vec<Conn> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        while conns.len() < MAX_CONNECTIONS {
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(t) = TcpTransport::new(stream) {
                        conns.push(Conn::new(t));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
        conns.retain_mut(|c| c.pump(source));
        poller.clear();
        if conns.len() < MAX_CONNECTIONS {
            poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
        }
        for (ix, c) in conns.iter().enumerate() {
            if let Some(fd) = c.transport.raw_fd() {
                let interest = if c.responding { Interest::READ_WRITE } else { Interest::READ };
                poller.register(fd, ix, interest);
            }
        }
        let events = match poller.wait(Some(SERVE_SLICE)) {
            Ok(events) => events,
            Err(_) => continue,
        };
        for ev in events {
            if ev.token == LISTENER_TOKEN {
                continue;
            }
            if let Some(c) = conns.get_mut(ev.token) {
                c.transport.set_ready(ev.readable, ev.writable);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scrape-side helpers (tests, bins, CI probes)
// ---------------------------------------------------------------------------

/// Blocking GET over a plain std stream: connect, send, read to EOF.
/// Returns the raw response (status line + headers + body).
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: introspect\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// The body of a raw HTTP response (everything after the blank line).
pub fn response_body(response: &str) -> &str {
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body,
        None => response,
    }
}

/// Parses a Prometheus text page into `(series name, value)` pairs,
/// skipping comments. Series names keep their label sets verbatim.
pub fn parse_prometheus(body: &str) -> Vec<(String, f64)> {
    body.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.trim().parse::<f64>().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_telemetry::{Registry, VirtualClock};

    fn bundle() -> Telemetry {
        Telemetry::new(Arc::new(Registry::new()), Arc::new(VirtualClock::starting_at(3, 0)))
            .with_journal(64)
    }

    #[test]
    fn healthz_and_unknown_routes_over_real_tcp() {
        let source = IntrospectSource::new();
        let server = IntrospectServer::spawn(0, source).expect("bind ephemeral");
        let ok = http_get(server.addr(), "/healthz").unwrap();
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert_eq!(response_body(&ok), "ok\n");
        let missing = http_get(server.addr(), "/nope").unwrap();
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    }

    #[test]
    fn metrics_scrape_equals_in_process_render() {
        let source = IntrospectSource::new();
        let tele = bundle();
        tele.counter("fractal_demo_total").add(41);
        tele.gauge("fractal_demo_depth").set(7);
        source.attach(tele);
        let server = IntrospectServer::spawn(0, source.clone()).expect("bind");
        let scraped = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(
            response_body(&scraped),
            source.merged_snapshot().render_prometheus(),
            "scrape must reconcile exactly with the in-process snapshot"
        );
        let series = parse_prometheus(response_body(&scraped));
        assert!(series.iter().any(|(n, v)| n == "fractal_demo_total" && *v == 41.0));
    }

    #[test]
    fn retire_folds_into_baseline_and_keeps_counters_monotonic() {
        let source = IntrospectSource::new();
        let tele = bundle();
        tele.counter("fractal_runs_total").inc();
        let id = source.attach(tele);
        let before = source.merged_snapshot();
        assert_eq!(before.counters["fractal_runs_total"], 1);
        source.retire(id);
        let after = source.merged_snapshot();
        assert_eq!(after, before, "retirement must not change the merged view");
        // A second run on a fresh bundle keeps growing the same series.
        let tele2 = bundle();
        tele2.counter("fractal_runs_total").inc();
        source.attach(tele2);
        assert_eq!(source.merged_snapshot().counters["fractal_runs_total"], 2);
    }

    #[test]
    fn journal_route_serves_merged_events_and_session_tails() {
        let source = IntrospectSource::new();
        let tele = bundle();
        let journal = tele.journal().unwrap();
        journal.record(9, "phase:MetaExchange");
        journal.record(9, "phase:Done");
        journal.record(2, "phase:MetaExchange");
        source.attach(tele);
        let server = IntrospectServer::spawn(0, source).expect("bind");
        let all = http_get(server.addr(), "/journal").unwrap();
        assert!(response_body(&all).contains("session=9 seq=1"), "{all}");
        let tail = http_get(server.addr(), "/journal?session=9&n=1").unwrap();
        let body = response_body(&tail);
        assert!(body.contains("kind=phase:Done"), "{body}");
        assert!(!body.contains("kind=phase:MetaExchange"), "n=1 tail: {body}");
        assert!(body.contains("# session=9 events=1"), "{body}");
    }

    #[test]
    fn stalls_route_reports_recorded_diagnostics() {
        let source = IntrospectSource::new();
        source.record_stall("1 stuck of 4 after 200ms quiet");
        let server = IntrospectServer::spawn(0, source).expect("bind");
        let resp = http_get(server.addr(), "/stalls").unwrap();
        let body = response_body(&resp);
        assert!(body.contains("1 stuck of 4"), "{body}");
        assert!(body.contains("# stalls=1"), "{body}");
    }

    #[test]
    fn a_request_without_a_header_terminator_is_refused_at_the_cap() {
        use std::io::Write;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        // The peer streams 1 MiB with no `\r\n\r\n`; the write ends
        // (with an error) once the connection is closed under it.
        let writer = std::thread::spawn(move || {
            let _ = peer.write_all(&vec![b'a'; 1 << 20]);
        });
        // Wait until far more than the cap is buffered for the server end.
        let mut probe = vec![0u8; 2 * MAX_REQUEST_BYTES];
        while stream.peek(&mut probe).unwrap() < probe.len() {}
        let mut conn = Conn::new(TcpTransport::new(stream).unwrap());
        conn.transport.set_ready(true, true);
        conn.pump(&IntrospectSource::default());
        assert!(conn.responding, "one pump past the cap answers");
        assert!(conn.outbuf.starts_with(b"HTTP/1.0 400"));
        assert!(conn.inbuf.len() <= MAX_REQUEST_BYTES + 1024, "read {} bytes", conn.inbuf.len());
        drop(conn);
        writer.join().unwrap();
    }
}
