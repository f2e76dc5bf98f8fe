//! Sharded reactors, each behind its own loopback TCP listener: the C100k
//! front-end.
//!
//! One [`Reactor`] is single-threaded by design (its transport pairs and
//! framers are not shared), so scaling past one core means *more
//! reactors*, not a bigger one. [`ShardedReactor`] runs N of them, one
//! thread each and no other thread:
//!
//! * the **caller's thread** deals the sessions up front — session `gid`
//!   goes to shard `gid % N` — and joins the shards;
//! * each **shard** thread owns one `Reactor`, one
//!   [`sys::Poller`](crate::sys::Poller), one `127.0.0.1:0` listener and
//!   its slice of the sessions. Each turn of its one loop pairs and admits
//!   up to `ADMIT_BATCH` sessions (connect a client stream, accept it at
//!   once, wrap both ends in [`TcpTransport`]s, `spawn_on`), drains the
//!   ready queue, and polls its sockets: without sleeping while sessions
//!   remain to admit, for up to a wait slice once all are in. So a shard
//!   serves the sessions it holds while it is still admitting the rest,
//!   and sessions wake on readiness edges or their own write, never by
//!   scanning: a write arms the peer end of the same pair, which lives on
//!   the same shard, so a session runs from `INIT_REQ` to `APP_REP` in
//!   back-to-back polls while the kernel keeps up, and falls back to
//!   `poll(2)` when it does not.
//!
//! A shard's accept queue never holds more than the one connection it has
//! just made, so pairing needs no peer matching and no backlog can
//! overflow, and admission runs on every shard at once.
//!
//! Dealing up front was chosen over work-stealing deliberately: a
//! session's sockets, framers, and send queues stay on one thread for
//! their whole life, so shards share **nothing** mutable — they only read
//! the `&self` proxy/server/PAD-repo trio, which is exactly the
//! concurrency contract those services already honor (lock-striped and
//! read-only respectively). Stealing would require every slot behind a
//! lock for a rebalancing win that a round-robin deal of thousands of
//! statistically identical sessions doesn't need.
//!
//! Each shard records into its **own** telemetry bundle — a private
//! registry plus a flight-recorder
//! [`Journal`](fractal_telemetry::Journal) on the shard's one clock;
//! the outcome merges them with
//! [`Snapshot::merge`] / [`JournalSnapshot::merge`] and can
//! [`reconcile`](ShardedOutcome::reconcile) the merged counters against
//! the aggregate [`ReactorReport`] — the cross-check that per-shard
//! accounting neither dropped nor double-counted a session. Sessions are
//! journal-labeled by their **spawn order** (gid), not their shard slot,
//! so under a pinned [`VirtualClock`]
//! ([`ReactorConfig::virtual_time`]) the merged journal is byte-identical
//! at any shard count, and so is the merged registry but for one gauge:
//! `fractal_reactor_peak_in_flight` sums shard peaks, which measure how far
//! each shard's sessions overlapped.
//!
//! Stalls cannot rely on the simulated-clock protocol ([`Reactor::run`]'s
//! device): a kernel socket has no `next_ready_at`. Instead a shard that
//! sees no readiness for [`stall_timeout`](ReactorConfig::stall_timeout)
//! while sessions are live returns the same typed
//! [`ReactorStalled`](crate::reactor::ReactorStalled) diagnostic, and one
//! that cannot pair within it returns a typed timeout, so the CI smoke
//! gate's `timeout` wrapper stays a deadlock detector of last resort, not
//! the primary one.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use fractal_telemetry::journal::{JournalSnapshot, DEFAULT_JOURNAL_CAPACITY};
use fractal_telemetry::{MonotonicClock, Registry, SharedClock, Snapshot, Telemetry, VirtualClock};

use crate::error::InpError;
use crate::proxy::AdaptationProxy;
use crate::reactor::{InpSession, Reactor, ReactorConfig, ReactorReport};
use crate::server::ApplicationServer;
use crate::session::PadRepo;
use crate::sys::{Interest, Poller};
use crate::transport::{TcpTransport, TransportError, TransportPair};

/// How long a shard sleeps per `poll(2)` call once it has admitted all
/// its sessions. Small enough that stall detection stays responsive,
/// large enough that an idle shard costs ~20 syscalls/s.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Sessions a shard pairs and admits per turn of its loop, between
/// pumping and `poll(2)`. Kept at 4 by an alternated `tcp_wave` sweep over
/// 1, 4, 8 and 16 run since a write arms its peer (CHANGES.md has it, with
/// the change that made socket sessions run to completion): a session
/// admitted in a batch now runs to `Done` before the next batch is
/// paired, so the batch no longer moves p50: 4, 8 and 16 read the same
/// within noise, and at 1, where every session pays a turn of its own,
/// p99 read higher than at 4 in 7 of 8 rounds.
const ADMIT_BATCH: usize = 4;

/// Default consecutive-quiet time before a shard declares its live
/// sessions protocol-stuck.
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(5);

fn io_err(e: std::io::Error) -> InpError {
    InpError::Transport(TransportError::Io(e.kind()))
}

/// Connects one stream to the shard's own `listener` at `addr` and
/// accepts it. The accept queue holds only this connection, so the
/// accepted stream is the connected one's peer. A loopback `connect(2)`
/// returns with the handshake done, so the accept rarely waits, and never
/// longer than `patience`.
fn pair(
    listener: &TcpListener,
    addr: SocketAddr,
    patience: Duration,
) -> Result<TransportPair, InpError> {
    let client = TcpStream::connect(addr).map_err(io_err)?;
    let service = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut poller = Poller::new();
                poller.register(listener.as_raw_fd(), 0, Interest::READ);
                if poller.wait(Some(patience)).map_err(io_err)?.is_empty() {
                    return Err(io_err(std::io::ErrorKind::TimedOut.into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    };
    Ok(TransportPair {
        client: Box::new(TcpTransport::new(client).map_err(io_err)?),
        service: Box::new(TcpTransport::new(service).map_err(io_err)?),
    })
}

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
    /// Sums the shard reports. `peak_in_flight` adds the shard peaks too;
    /// shards reach their peaks at different moments, so the sum is an
    /// upper bound of the process-wide concurrent-session peak.
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

/// N reactors, each behind its own loopback TCP listener, sharing the
/// `&self` proxy/server/PAD-repo trio. See the module docs for the thread
/// layout.
pub struct ShardedReactor<'a> {
    proxy: &'a AdaptationProxy,
    server: &'a ApplicationServer,
    pad_repo: &'a PadRepo,
    shards: usize,
    config: ReactorConfig,
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
    /// `virtual_time`, `journal_capacity`, and `introspect`. Each shard's
    /// reactor runs this config with the shard's own bundle (clock,
    /// registry, journal) in place of `telemetry`, so that knob is
    /// ignored — see the knob table on [`ReactorConfig`].
    pub fn with_config(
        proxy: &'a AdaptationProxy,
        server: &'a ApplicationServer,
        pad_repo: &'a PadRepo,
        shards: usize,
        config: ReactorConfig,
    ) -> ShardedReactor<'a> {
        assert!(shards > 0, "at least one shard");
        ShardedReactor { proxy, server, pad_repo, shards, config }
    }

    /// One shard's observability bundle: a private registry + a private
    /// flight-recorder ring, both on the clock the shard's reactor times
    /// its phases by. Built on the caller's thread (before the shard
    /// spawns) so live handles can be attached to an introspection plane
    /// while the run is in flight.
    fn shard_bundle(&self) -> Telemetry {
        let clock: SharedClock = match self.config.virtual_tick {
            Some(tick) => Arc::new(VirtualClock::starting_at(0, tick)),
            None => MonotonicClock::shared(),
        };
        let capacity = self.config.journal_capacity.unwrap_or(DEFAULT_JOURNAL_CAPACITY);
        Telemetry::new(Arc::new(Registry::new()), clock).with_journal(capacity)
    }

    /// Runs every session to a terminal phase over live loopback TCP.
    ///
    /// Deals session `gid` to shard `gid % N`, drives all shards
    /// concurrently (each pairs its own sessions), and returns the
    /// per-shard outcomes. A shard whose sessions go quiet returns the
    /// typed stall; the first shard error in shard order wins.
    pub fn run(&self, sessions: Vec<InpSession>) -> Result<ShardedOutcome, InpError> {
        let mut deals: Vec<Vec<(usize, InpSession)>> =
            (0..self.shards).map(|_| Vec::new()).collect();
        for (gid, session) in sessions.into_iter().enumerate() {
            // Journal-label by spawn order unless the caller chose a
            // label, so event streams are shard-assignment independent.
            let session =
                if session.label().is_none() { session.with_label(gid as u64) } else { session };
            deals[gid % self.shards].push((gid, session));
        }
        // Observability bundles are built up front, on this thread: live
        // registry/journal handles exist before any shard spawns, which is
        // what lets an introspection plane watch a run mid-flight.
        let bundles: Vec<Telemetry> = (0..self.shards).map(|_| self.shard_bundle()).collect();
        let attached: Vec<u64> = match &self.config.introspect {
            Some(src) => bundles.iter().map(|t| src.attach(t.clone())).collect(),
            None => Vec::new(),
        };

        std::thread::scope(|scope| {
            let handles: Vec<_> = deals
                .into_iter()
                .zip(bundles)
                .enumerate()
                .map(|(ix, (deal, tele))| scope.spawn(move || self.drive_shard(ix, deal, tele)))
                .collect();
            let mut outcomes = Vec::with_capacity(self.shards);
            let mut shard_err: Option<InpError> = None;
            for h in handles {
                match h.join().expect("shard panicked") {
                    Ok(out) => outcomes.push(out),
                    Err(e) => {
                        if let (Some(src), InpError::Stalled(stall)) = (&self.config.introspect, &e)
                        {
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
            if let Some(src) = &self.config.introspect {
                for id in &attached {
                    src.retire(*id);
                }
            }
            match shard_err {
                Some(e) => Err(e),
                None => Ok(ShardedOutcome { shards: outcomes }),
            }
        })
    }

    /// One shard, one loop. Each turn pairs and admits up to
    /// [`ADMIT_BATCH`] of the `deal`'s sessions on the shard's own
    /// listener, drains the ready queue, then polls the live sessions'
    /// sockets: at once while sessions remain to admit, for up to a
    /// [`WAIT_SLICE`] after. Returns once every session is admitted and
    /// terminal.
    fn drive_shard(
        &self,
        shard: usize,
        deal: Vec<(usize, InpSession)>,
        tele: Telemetry,
    ) -> Result<ShardOutcome, InpError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let cfg = self.config.clone().telemetry(&tele);
        let mut reactor = Reactor::with_config(self.proxy, self.server, self.pad_repo, cfg);
        let gids: Vec<usize> = deal.iter().map(|&(gid, _)| gid).collect();
        let mut unadmitted = deal.into_iter().map(|(_, session)| session);
        let mut poller = Poller::new();
        let stall_timeout = self.config.stall_timeout.unwrap_or(DEFAULT_STALL_TIMEOUT);
        let mut quiet = Duration::ZERO;
        loop {
            for session in unadmitted.by_ref().take(ADMIT_BATCH) {
                let pair = pair(&listener, addr, stall_timeout)?;
                reactor.spawn_on(session, pair);
            }
            while reactor.poll().is_some() {}
            let admitting = unadmitted.len() > 0;
            if !admitting && reactor.in_flight() == 0 {
                break;
            }
            poller.clear();
            reactor.register_interest(&mut poller);
            let slice = if admitting { Duration::ZERO } else { WAIT_SLICE.min(stall_timeout) };
            let events = poller.wait(Some(slice)).map_err(io_err)?;
            if !events.is_empty() {
                quiet = Duration::ZERO;
            } else if !admitting {
                // Only live sessions can be stuck; a shard still admitting
                // is making progress.
                quiet += slice;
                if quiet >= stall_timeout {
                    return Err(InpError::Stalled(reactor.stall_report()));
                }
            }
            for ev in events {
                reactor.apply_event(ev);
            }
        }
        let report = reactor.report();
        let sessions = gids.into_iter().zip(reactor.into_sessions()).collect();
        Ok(ShardOutcome {
            shard,
            report,
            snapshot: tele.snapshot(),
            journal: tele.journal_snapshot(),
            sessions,
        })
    }
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
        assert!((1..=N as usize).contains(&agg.peak_in_flight), "{}", agg.peak_in_flight);
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
    fn a_shard_finishes_sessions_before_it_has_admitted_its_last() {
        const N: usize = 256;
        let tb = testbed_with_pages(1);
        let sessions: Vec<InpSession> = (0..N)
            .map(|_| InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0))
            .collect();
        let config = ReactorConfig::new().journal_capacity(8 * N);
        let outcome = ShardedReactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, 1, config)
            .run(sessions)
            .expect("sharded run completes");
        assert_eq!(outcome.aggregate_report().completed, N);
        let journal = &outcome.shards[0].journal;
        assert_eq!(journal.dropped, 0, "the ring must not wrap");
        let at = |kind: &'static str| {
            journal.events.iter().filter(move |e| e.kind == kind).map(|e| e.t_ns)
        };
        let last_init = at("phase:Init").max().expect("sessions were admitted");
        let first_done = at("phase:Done").min().expect("sessions finished");
        assert!(
            first_done < last_init,
            "the first session finished at {first_done} ns, after the last was admitted at \
             {last_init} ns: the shard admitted everything before it pumped"
        );
    }

    /// A write arms its in-shard peer, so a session runs from `INIT_REQ`
    /// to `APP_REP` in back-to-back polls: the first session admitted is
    /// done before the shard admits its fifth batch. Waiting for a
    /// `poll(2)` round per hop would take it past that; the slack of
    /// four batches allows for a hint that came before the kernel had
    /// delivered the bytes.
    #[test]
    fn a_session_runs_to_completion_within_its_first_admission_batches() {
        const N: usize = 64;
        let tb = testbed_with_pages(1);
        let sessions: Vec<InpSession> = (0..N)
            .map(|_| InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0))
            .collect();
        let config = ReactorConfig::new().journal_capacity(8 * N);
        let outcome = ShardedReactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, 1, config)
            .run(sessions)
            .expect("sharded run completes");
        assert_eq!(outcome.aggregate_report().completed, N);
        let journal = &outcome.shards[0].journal;
        assert_eq!(journal.dropped, 0, "the ring must not wrap");
        let at = |gid: usize, kind: &str| {
            let event = journal.events.iter().find(|e| e.session == gid as u64 && e.kind == kind);
            event.unwrap_or_else(|| panic!("session {gid} has no {kind}")).t_ns
        };
        let fifth_batch = 4 * ADMIT_BATCH;
        let (done, init) = (at(0, "phase:Done"), at(fifth_batch, "phase:Init"));
        assert!(
            done < init,
            "session 0 finished at {done} ns, after session {fifth_batch} was admitted at \
             {init} ns: its hops waited for poll(2)"
        );
    }

    #[test]
    fn merged_and_labeled_snapshots_cover_every_shard() {
        let tb = testbed_with_pages(8);
        let sessions: Vec<InpSession> = (0..8)
            .map(|i| InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, i, 0))
            .collect();
        let outcome =
            ShardedReactor::new(&tb.proxy, &tb.server, &tb.pad_repo, 2).run(sessions).unwrap();
        let done = |snap: &Snapshot| snap.counters["fractal_reactor_completed_total"];
        assert_eq!(done(&outcome.merged_snapshot()), 8);
        assert_eq!(outcome.shards.len(), 2);
        for s in &outcome.shards {
            assert_eq!(done(&s.snapshot), 4, "shard {}", s.shard);
        }
    }

    #[test]
    fn merged_journal_is_byte_identical_across_shard_counts() {
        const N: u32 = 8;
        let mut renders: Vec<String> = Vec::new();
        let mut registries: Vec<Snapshot> = Vec::new();
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
            // The shard reactors time phases on the same pinned clock, so
            // the merged registry is deal-independent too — except the
            // summed shard peaks, which measure how far the shards' own
            // sessions overlapped.
            let mut registry = outcome.merged_snapshot();
            let peak = registry.gauges.remove("fractal_reactor_peak_in_flight");
            assert!(matches!(peak, Some(p) if (1..=N as i64).contains(&p)), "{shards}: {peak:?}");
            registries.push(registry);
        }
        for (i, other) in renders.iter().enumerate().skip(1) {
            assert_eq!(&renders[0], other, "shard count {} vs 1", [1, 2, 4, 8][i]);
            assert_eq!(
                registries[0],
                registries[i],
                "registry: shard count {} vs 1",
                [1, 2, 4, 8][i]
            );
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
