//! Sharded reactors behind one TCP acceptor: the C100k front-end.
//!
//! One [`Reactor`] is single-threaded by design (its transport pairs and
//! framers are not shared), so scaling past one core means *more
//! reactors*, not a bigger one. [`ShardedReactor`] runs N of them behind a
//! single loopback listener:
//!
//! * the **driver** (caller's thread) connects one nonblocking TCP stream
//!   per session and registers it with the acceptor;
//! * the **acceptor** thread matches each accepted stream to its
//!   registered client end (by the connection's peer address — exact, not
//!   heuristic: a loopback 4-tuple is unique) and deals complete
//!   [`TcpTransport`] pairs round-robin across the shards;
//! * each **shard** thread owns one `Reactor`, one
//!   [`sys::Poller`](crate::sys::Poller), and its slice of the sessions.
//!   It admits everything the acceptor deals it, then alternates "drain
//!   the ready queue" with "sleep in `poll(2)` until the kernel marks a
//!   registered socket ready" — sessions wake on readiness edges, never by
//!   scanning.
//!
//! Acceptor-distributes was chosen over work-stealing deliberately: a
//! session's sockets, framers, and send queues stay on one thread for
//! their whole life, so shards share **nothing** mutable — they only read
//! the `&self` proxy/server/PAD-repo trio, which is exactly the
//! concurrency contract those services already honor (lock-striped and
//! read-only respectively). Stealing would require every slot behind a
//! lock for a rebalancing win that a round-robin deal of thousands of
//! statistically identical sessions doesn't need.
//!
//! Each shard records into its **own** telemetry registry and its own
//! flight-recorder [`Journal`]; the outcome merges them with
//! [`Snapshot::merge`] / [`JournalSnapshot::merge`] and can
//! [`reconcile`](ShardedOutcome::reconcile) the merged counters against
//! the aggregate [`ReactorReport`] — the cross-check that per-shard
//! accounting neither dropped nor double-counted a session. Sessions are
//! journal-labeled by their **spawn order** (gid), not their shard slot,
//! so under a pinned [`VirtualClock`]
//! ([`ReactorConfig::virtual_time`]) the merged
//! journal is byte-identical at any shard count.
//!
//! Stalls cannot rely on the simulated-clock protocol ([`Reactor::run`]'s
//! device): a kernel socket has no `next_ready_at`. Instead a shard that
//! sees no readiness for [`stall_timeout`](ReactorConfig::stall_timeout)
//! while sessions are live returns the same typed
//! [`ReactorStalled`](crate::reactor::ReactorStalled) diagnostic, so the
//! CI smoke gate's `timeout` wrapper stays a deadlock detector of last
//! resort, not the primary one.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use fractal_telemetry::journal::{Journal, JournalSnapshot, DEFAULT_JOURNAL_CAPACITY};
use fractal_telemetry::{MonotonicClock, Registry, SharedClock, Snapshot, Telemetry, VirtualClock};

use crate::error::InpError;
use crate::introspect::IntrospectSource;
use crate::proxy::AdaptationProxy;
use crate::reactor::{InpSession, Reactor, ReactorConfig, ReactorReport};
use crate::server::ApplicationServer;
use crate::session::PadRepo;
use crate::sys::{Interest, Poller};
use crate::transport::{TcpTransport, TransportError, TransportPair};

/// How long a shard sleeps per `poll(2)` call while waiting for readiness.
/// Small enough that admission-close and stall detection stay responsive,
/// large enough that an idle shard costs ~20 syscalls/s.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Default consecutive-quiet time before a shard declares its live
/// sessions protocol-stuck.
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(5);

fn io_err(e: std::io::Error) -> InpError {
    InpError::Transport(TransportError::Io(e.kind()))
}

/// One connection dealt to a shard: the session plus both socket ends.
struct ShardItem {
    gid: usize,
    session: InpSession,
    client: TcpTransport,
    service: TcpTransport,
}

/// A session awaiting its accepted peer: `(client local addr, gid,
/// session, client stream)`.
type Registration = (SocketAddr, usize, InpSession, TcpStream);

/// What one shard produced.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index (deal order).
    pub shard: usize,
    /// The shard reactor's progress summary.
    pub report: ReactorReport,
    /// The shard's private telemetry registry, snapshotted at completion.
    pub snapshot: Snapshot,
    /// The shard's flight-recorder journal, snapshotted at completion.
    pub journal: JournalSnapshot,
    sessions: Vec<(usize, InpSession)>,
}

/// The combined result of a sharded run.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Per-shard outcomes, indexed by shard.
    pub shards: Vec<ShardOutcome>,
}

impl ShardedOutcome {
    /// Sums the shard reports. `peak_in_flight` adds too: every shard held
    /// its full deal live at once (admission completes before driving), so
    /// the sum is the true process-wide concurrent-session peak.
    pub fn aggregate_report(&self) -> ReactorReport {
        let mut agg = ReactorReport::default();
        for s in &self.shards {
            agg.completed += s.report.completed;
            agg.failed += s.report.failed;
            agg.polls += s.report.polls;
            agg.peak_in_flight += s.report.peak_in_flight;
        }
        agg
    }

    /// Folds every shard's registry into one snapshot
    /// ([`Snapshot::merge`] is associative and commutative, so shard
    /// order does not matter).
    pub fn merged_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for s in &self.shards {
            merged.merge(&s.snapshot);
        }
        merged
    }

    /// Folds every shard's flight-recorder journal into one canonical
    /// snapshot ([`JournalSnapshot::merge`] is associative and
    /// commutative, and sessions are journal-labeled by spawn order, so
    /// the result is independent of both shard order and shard count).
    pub fn merged_journal(&self) -> JournalSnapshot {
        let mut merged = JournalSnapshot::default();
        for s in &self.shards {
            merged.merge(&s.journal);
        }
        merged
    }

    /// The merged totals **plus** each shard's series under a
    /// `{shard="i"}` label — one snapshot carrying both views, shaped for
    /// embedding in `BENCH_*.json`.
    pub fn labeled_snapshot(&self) -> Snapshot {
        let mut out = self.merged_snapshot();
        for s in &self.shards {
            out.merge(&s.snapshot.labeled("shard", &s.shard.to_string()));
        }
        out
    }

    /// Cross-checks per-shard telemetry against per-shard reports, and the
    /// merged snapshot against the aggregate report
    /// ([`ReactorReport::reconcile`]), shard by shard and in total.
    pub fn reconcile(&self) -> Result<(), String> {
        for s in &self.shards {
            s.report.reconcile(&s.snapshot).map_err(|e| format!("shard {}: {e}", s.shard))?;
        }
        self.aggregate_report()
            .reconcile(&self.merged_snapshot())
            .map_err(|e| format!("merged: {e}"))
    }

    /// Every session, restored to the caller's original spawn order (the
    /// round-robin deal is an implementation detail).
    pub fn into_sessions(self) -> Vec<InpSession> {
        let mut all: Vec<(usize, InpSession)> =
            self.shards.into_iter().flat_map(|s| s.sessions).collect();
        all.sort_by_key(|(gid, _)| *gid);
        all.into_iter().map(|(_, s)| s).collect()
    }
}

/// N reactors behind one loopback TCP acceptor, sharing the `&self`
/// proxy/server/PAD-repo trio. See the module docs for the thread layout.
pub struct ShardedReactor<'a> {
    proxy: &'a AdaptationProxy,
    server: &'a ApplicationServer,
    pad_repo: &'a PadRepo,
    shards: usize,
    frame_checksums: bool,
    stall_timeout: Duration,
    virtual_tick: Option<u64>,
    journal_capacity: usize,
    introspect: Option<Arc<IntrospectSource>>,
}

impl<'a> ShardedReactor<'a> {
    /// A sharded front-end over `shards` reactors (must be ≥ 1), every
    /// knob at its [`ReactorConfig`] default.
    pub fn new(
        proxy: &'a AdaptationProxy,
        server: &'a ApplicationServer,
        pad_repo: &'a PadRepo,
        shards: usize,
    ) -> ShardedReactor<'a> {
        ShardedReactor::with_config(proxy, server, pad_repo, shards, ReactorConfig::new())
    }

    /// A sharded front-end configured by one [`ReactorConfig`]. The
    /// sharded driver reads `frame_checksums`, `stall_timeout`,
    /// `virtual_time`, `journal_capacity`, and `introspect`; per-shard
    /// clocks, registries, and journals are built internally, so the
    /// single-reactor knobs (`transport`, `clock`, `telemetry`,
    /// `journal`, `tracer`) are ignored — see the knob table on
    /// [`ReactorConfig`].
    pub fn with_config(
        proxy: &'a AdaptationProxy,
        server: &'a ApplicationServer,
        pad_repo: &'a PadRepo,
        shards: usize,
        config: ReactorConfig,
    ) -> ShardedReactor<'a> {
        assert!(shards > 0, "at least one shard");
        ShardedReactor {
            proxy,
            server,
            pad_repo,
            shards,
            frame_checksums: config.frame_checksums,
            stall_timeout: config.stall_timeout.unwrap_or(DEFAULT_STALL_TIMEOUT),
            virtual_tick: config.virtual_tick,
            journal_capacity: config.journal_capacity.unwrap_or(DEFAULT_JOURNAL_CAPACITY),
            introspect: config.introspect,
        }
    }

    /// One shard's observability bundle: a private registry + a private
    /// flight-recorder ring, both on the same clock. Built on the caller's
    /// thread (before the shard spawns) so live handles can be attached to
    /// an introspection plane while the run is in flight.
    fn shard_bundle(&self) -> (Telemetry, Arc<Journal>) {
        let clock: SharedClock = match self.virtual_tick {
            Some(tick) => Arc::new(VirtualClock::starting_at(0, tick)),
            None => MonotonicClock::shared(),
        };
        let tele = Telemetry::new(Arc::new(Registry::new()), clock.clone());
        let journal = Arc::new(Journal::new(self.journal_capacity).with_clock(clock));
        (tele, journal)
    }

    /// Runs every session to a terminal phase over live loopback TCP.
    ///
    /// Connects one socket per session, deals the accepted pairs
    /// round-robin across the shards, drives all shards concurrently, and
    /// returns the per-shard outcomes. A shard whose sessions go quiet
    /// returns the typed stall; the first shard error wins (it is the root
    /// cause — acceptor/driver failures that follow from it are
    /// secondary).
    pub fn run(&self, sessions: Vec<InpSession>) -> Result<ShardedOutcome, InpError> {
        let total = sessions.len();
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;

        let (reg_tx, reg_rx) = mpsc::channel::<Registration>();
        let mut shard_txs = Vec::with_capacity(self.shards);
        let mut shard_rxs = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            let (tx, rx) = mpsc::channel::<ShardItem>();
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }
        let abort = AtomicBool::new(false);
        // Observability bundles are built up front, on this thread: live
        // registry/journal handles exist before any shard spawns, which is
        // what lets an introspection plane watch a run mid-flight.
        let bundles: Vec<(Telemetry, Arc<Journal>)> =
            (0..self.shards).map(|_| self.shard_bundle()).collect();
        let attached: Vec<u64> = match &self.introspect {
            Some(src) => bundles.iter().map(|(t, j)| src.attach(t.clone(), j.clone())).collect(),
            None => Vec::new(),
        };

        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| {
                accept_and_deal(&listener, total, reg_rx, shard_txs, &abort, self.stall_timeout)
            });
            let shard_handles: Vec<_> = shard_rxs
                .into_iter()
                .zip(bundles)
                .enumerate()
                .map(|(ix, (rx, (tele, journal)))| {
                    scope.spawn(move || self.drive_shard(ix, rx, tele, journal))
                })
                .collect();

            // Driver: one nonblocking connect + registration per session.
            let connect_res: Result<(), InpError> = (|| {
                for (gid, session) in sessions.into_iter().enumerate() {
                    // Journal-label by spawn order unless the caller chose
                    // a label, so event streams are shard-assignment
                    // independent.
                    let session = if session.label().is_none() {
                        session.with_label(gid as u64)
                    } else {
                        session
                    };
                    let stream = TcpStream::connect(addr).map_err(io_err)?;
                    let local = stream.local_addr().map_err(io_err)?;
                    reg_tx
                        .send((local, gid, session, stream))
                        .map_err(|_| io_err(std::io::ErrorKind::BrokenPipe.into()))?;
                }
                Ok(())
            })();
            drop(reg_tx);
            if connect_res.is_err() {
                abort.store(true, Ordering::Relaxed);
            }

            let acceptor_res = acceptor.join().expect("acceptor panicked");
            let mut outcomes = Vec::with_capacity(self.shards);
            let mut shard_err: Option<InpError> = None;
            for h in shard_handles {
                match h.join().expect("shard panicked") {
                    Ok(out) => outcomes.push(out),
                    Err(e) => {
                        if let (Some(src), InpError::Stalled(stall)) = (&self.introspect, &e) {
                            src.record_stall(stall);
                        }
                        if shard_err.is_none() {
                            shard_err = Some(e);
                        }
                    }
                }
            }
            // Fold final registries/journals into the plane's baseline —
            // on success *and* on failure, so scrapes stay monotonic and
            // post-mortem journals survive the shard threads.
            if let Some(src) = &self.introspect {
                for id in &attached {
                    src.retire(*id);
                }
            }
            if let Some(e) = shard_err {
                return Err(e);
            }
            connect_res?;
            acceptor_res?;
            outcomes.sort_by_key(|o| o.shard);
            Ok(ShardedOutcome { shards: outcomes })
        })
    }

    /// One shard: admit everything the acceptor deals, then alternate
    /// ready-queue drains with kernel readiness waits until every session
    /// is terminal.
    fn drive_shard(
        &self,
        shard: usize,
        rx: mpsc::Receiver<ShardItem>,
        tele: Telemetry,
        journal: Arc<Journal>,
    ) -> Result<ShardOutcome, InpError> {
        let mut cfg = ReactorConfig::new().telemetry(&tele).journal(journal.clone());
        if self.frame_checksums {
            cfg = cfg.frame_checksums();
        }
        let mut reactor = Reactor::with_config(self.proxy, self.server, self.pad_repo, cfg);
        let mut gids = Vec::new();
        // Admission: block until the acceptor has dealt the whole run
        // (senders dropped). Every session is then live before the first
        // byte is pumped, so the shard's peak-in-flight equals its deal.
        for item in rx.iter() {
            gids.push(item.gid);
            reactor.spawn_on(
                item.session,
                TransportPair { client: Box::new(item.client), service: Box::new(item.service) },
            );
        }
        let mut poller = Poller::new();
        let mut quiet = Duration::ZERO;
        loop {
            while reactor.poll().is_some() {}
            if reactor.in_flight() == 0 {
                break;
            }
            poller.clear();
            reactor.register_interest(&mut poller);
            let slice = WAIT_SLICE.min(self.stall_timeout);
            let events = poller.wait(Some(slice)).map_err(io_err)?;
            if events.is_empty() {
                quiet += slice;
                if quiet >= self.stall_timeout {
                    return Err(InpError::Stalled(reactor.stall_report()));
                }
            } else {
                quiet = Duration::ZERO;
                for ev in events {
                    reactor.apply_event(ev);
                }
            }
        }
        let report = reactor.report();
        let sessions = gids.into_iter().zip(reactor.into_sessions()).collect();
        Ok(ShardOutcome {
            shard,
            report,
            snapshot: tele.snapshot(),
            journal: journal.snapshot(),
            sessions,
        })
    }
}

/// The acceptor: accept `total` connections, match each to its registered
/// client end by peer address, and deal the completed pairs round-robin.
/// Runs the listener nonblocking under the same [`Poller`] so a driver
/// failure (`abort`) or a dried-up run cannot leave it parked in
/// `accept(2)` forever.
fn accept_and_deal(
    listener: &TcpListener,
    total: usize,
    reg_rx: mpsc::Receiver<Registration>,
    shard_txs: Vec<mpsc::Sender<ShardItem>>,
    abort: &AtomicBool,
    patience: Duration,
) -> Result<(), InpError> {
    use std::os::fd::AsRawFd;
    let mut pending: HashMap<SocketAddr, (usize, InpSession, TcpStream)> = HashMap::new();
    let mut poller = Poller::new();
    let mut quiet = Duration::ZERO;
    let mut accepted = 0;
    while accepted < total {
        if abort.load(Ordering::Relaxed) {
            return Err(io_err(std::io::ErrorKind::ConnectionAborted.into()));
        }
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                poller.clear();
                poller.register(listener.as_raw_fd(), 0, Interest::READ);
                let slice = WAIT_SLICE.min(patience);
                if poller.wait(Some(slice)).map_err(io_err)?.is_empty() {
                    quiet += slice;
                    if quiet >= patience {
                        return Err(io_err(std::io::ErrorKind::TimedOut.into()));
                    }
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        };
        quiet = Duration::ZERO;
        // The registration for this peer may still be in the channel
        // behind others; drain until it surfaces. Every accepted
        // connection comes from a driver connect, and the driver always
        // registers right after connecting, so the recv terminates.
        let (gid, session, client) = loop {
            if let Some(found) = pending.remove(&peer) {
                break found;
            }
            match reg_rx.recv() {
                Ok((local, gid, session, stream)) => {
                    pending.insert(local, (gid, session, stream));
                }
                Err(_) => return Err(io_err(std::io::ErrorKind::NotFound.into())),
            }
        };
        let item = ShardItem {
            gid,
            session,
            client: TcpTransport::new(client).map_err(io_err)?,
            service: TcpTransport::new(stream).map_err(io_err)?,
        };
        if shard_txs[accepted % shard_txs.len()].send(item).is_err() {
            // The shard died (it reports its own root cause); stop dealing.
            return Err(io_err(std::io::ErrorKind::BrokenPipe.into()));
        }
        accepted += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::ClientClass;
    use crate::reactor::SessionPhase;
    use crate::server::AdaptiveContentMode;
    use crate::testbed::Testbed;

    fn content(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i / 5) as u8).wrapping_mul(seed).wrapping_add(seed)).collect()
    }

    fn testbed_with_pages(n: u32) -> Testbed {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        for id in 0..n {
            tb.server.publish(id, content(id as u8 + 1, 6_000));
        }
        tb
    }

    #[test]
    fn sharded_run_completes_and_matches_serial_decisions() {
        const N: u32 = 24;
        const SHARDS: usize = 3;
        let tb = testbed_with_pages(N);
        let oracle_tb = testbed_with_pages(N);
        let classes: Vec<ClientClass> = (0..N).map(|i| ClientClass::ALL[i as usize % 3]).collect();

        let sessions: Vec<InpSession> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| InpSession::new(tb.client(c), tb.app_id, i as u32, 0))
            .collect();
        let sharded = ShardedReactor::new(&tb.proxy, &tb.server, &tb.pad_repo, SHARDS);
        let outcome = sharded.run(sessions).expect("sharded run completes");

        let agg = outcome.aggregate_report();
        assert_eq!(agg.completed, N as usize);
        assert_eq!(agg.failed, 0);
        assert_eq!(agg.peak_in_flight, N as usize, "hold-until-dealt admission");
        assert_eq!(outcome.shards.len(), SHARDS);
        assert!(outcome.shards.iter().all(|s| s.report.completed == N as usize / SHARDS));

        outcome.reconcile().expect("telemetry reconciles with reports");

        // Decision identity vs direct serial negotiation, in spawn order.
        let finished = outcome.into_sessions();
        assert_eq!(finished.len(), N as usize);
        for (i, (s, &class)) in finished.iter().zip(classes.iter()).enumerate() {
            assert_eq!(s.phase(), SessionPhase::Done, "session {i}");
            let expect = oracle_tb.proxy.negotiate(oracle_tb.app_id, class.env()).unwrap();
            assert_eq!(s.negotiated().unwrap(), expect.as_slice(), "session {i} ({class})");
            assert_eq!(
                s.client().cached_content(i as u32).unwrap().bytes,
                tb.server.content(i as u32, 0).unwrap(),
                "session {i} content"
            );
        }
    }

    #[test]
    fn merged_and_labeled_snapshots_cover_every_shard() {
        let tb = testbed_with_pages(8);
        let sessions: Vec<InpSession> = (0..8)
            .map(|i| InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, i, 0))
            .collect();
        let outcome =
            ShardedReactor::new(&tb.proxy, &tb.server, &tb.pad_repo, 2).run(sessions).unwrap();
        let labeled = outcome.labeled_snapshot();
        assert_eq!(labeled.counters["fractal_reactor_completed_total"], 8);
        assert_eq!(labeled.counters["fractal_reactor_completed_total{shard=\"0\"}"], 4);
        assert_eq!(labeled.counters["fractal_reactor_completed_total{shard=\"1\"}"], 4);
    }

    #[test]
    fn merged_journal_is_byte_identical_across_shard_counts() {
        const N: u32 = 8;
        let mut renders: Vec<String> = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let tb = testbed_with_pages(N);
            let sessions: Vec<InpSession> = (0..N)
                .map(|i| {
                    InpSession::new(tb.client(ClientClass::ALL[i as usize % 3]), tb.app_id, i, 0)
                })
                .collect();
            let outcome = ShardedReactor::with_config(
                &tb.proxy,
                &tb.server,
                &tb.pad_repo,
                shards,
                ReactorConfig::new().virtual_time(0),
            )
            .run(sessions)
            .expect("sharded run completes");
            let merged = outcome.merged_journal();
            assert_eq!(merged.sessions().len(), N as usize, "{shards} shards");
            assert_eq!(merged.dropped, 0, "{shards} shards: ring must not wrap");
            renders.push(merged.render());
        }
        for (i, other) in renders.iter().enumerate().skip(1) {
            assert_eq!(&renders[0], other, "shard count {} vs 1", [1, 2, 4, 8][i]);
        }
        // The render is substantive, not trivially equal-because-empty:
        // every session contributed its full phase chain.
        assert!(renders[0].contains("kind=phase:Done"));
        assert!(renders[0].contains("session=7"));
    }

    #[test]
    fn stall_diagnostics_carry_journal_tails_over_real_sockets() {
        let tb = testbed_with_pages(1);
        let mut session = InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0);
        session.start().unwrap();
        let sharded = ShardedReactor::with_config(
            &tb.proxy,
            &tb.server,
            &tb.pad_repo,
            1,
            ReactorConfig::new().stall_timeout(Duration::from_millis(200)),
        );
        let err = sharded.run(vec![session]).unwrap_err();
        let InpError::Stalled(stall) = err else {
            panic!("expected typed stall, got {err:?}");
        };
        let stuck = &stall.stuck[0];
        assert_eq!(stuck.queue_depth, 0, "nothing queued: protocol-stuck, not starved");
        let kinds: Vec<&str> = stuck.recent.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["phase:Init", "phase:MetaExchange", "stall:mark"]);
    }

    #[test]
    fn quiet_shard_reports_typed_stall_not_hang() {
        let tb = testbed_with_pages(1);
        // Pre-starting the session makes spawn_on's start() return
        // AlreadyStarted, so the opening frames are lost in transit —
        // the socket never carries a byte and the shard must detect it.
        let mut session = InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0);
        session.start().unwrap();
        let sharded = ShardedReactor::with_config(
            &tb.proxy,
            &tb.server,
            &tb.pad_repo,
            1,
            ReactorConfig::new().stall_timeout(Duration::from_millis(200)),
        );
        let err = sharded.run(vec![session]).unwrap_err();
        let InpError::Stalled(stall) = err else {
            panic!("expected typed stall, got {err:?}");
        };
        assert_eq!(stall.stuck.len(), 1);
        assert_eq!(stall.stuck[0].phase, "MetaExchange");
    }
}
