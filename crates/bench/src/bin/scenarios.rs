//! scenarios: the adversity soak matrix — every way a pervasive session
//! goes wrong, each as a bounded deterministic run.
//!
//! The paper's setting is hostile by construction: PDA-class clients on
//! flaky wireless links that corrupt, lose, and reorder bytes, walk out
//! of WLAN range mid-session, and stampede the proxy after a PAD
//! republish. The unit benches prove the happy path; this driver proves
//! the *typed-failure* contract under adversity, scenario by scenario:
//!
//! * `burst_arrivals` — self-similar arrival waves from the β-model
//!   cascade ([`BurstCascade`]) instead of a uniform schedule; every
//!   session still completes and decides exactly like the serial oracle.
//! * `lossy_link` — seeded loss + duplication + corruption + reorder over
//!   checksummed framing; every session either completes with exact
//!   content, fails with a typed error, or surfaces in a typed stall
//!   report. Never a hang, never silently wrong bytes.
//! * `partition_recovery` — a transient partition parks bytes mid-flight;
//!   the link heals and every session completes with oracle decisions.
//! * `handoff_renegotiation` — WLAN→Bluetooth mid-session: the transport
//!   link swaps underneath while the INP session renegotiates; the new
//!   decision matches the serial oracle for the new environment.
//! * `cache_stampede` — a population of all-distinct client environments
//!   hits a cold adaptation cache at once, twice: wave one is all misses,
//!   wave two all hits, counted exactly.
//! * `pad_rollout_rollback` — the server republishes mid-traffic and then
//!   rolls back; warm clients ride their protocol cache through all three
//!   versions and end with byte-exact content for each.
//! * `live_republish` — cascade-shaped `&self` publish bursts land on the
//!   epoch-versioned server while the whole population is in flight,
//!   pinned to version 0; every session still decodes version 0's exact
//!   bytes with the oracle's decision, versions append monotonically,
//!   and every superseded snapshot generation is reclaimed by the end.
//!
//! Every scenario runs **twice** per invocation under the same seed and a
//! virtual clock; the two outcomes — decision fingerprints, fault-event
//! logs, and merged telemetry — must be identical, or the run fails.
//! Results land as the `"scenarios"` section of `BENCH_scenarios.json`,
//! one member per scenario, each row stamped with the scenario name and
//! fault seed so any row can be replayed. `scripts/scenario_rows.sh`
//! runs this driver against a copy of the committed file and fails on any
//! row that moved; `--long` is the 10× soak behind `workflow_dispatch`.
//! An *unexpected* stall writes `STALL_<name>.txt` with the stuck-session
//! phase report and exits nonzero.

use std::sync::{Arc, OnceLock};

use fractal_bench::bench_env::BenchEnv;
use fractal_bench::fig9a::client_env;
use fractal_bench::json::Json;
use fractal_bench::report::render_table;
use fractal_bench::{fold, FNV_OFFSET};
use fractal_core::error::InpError;
use fractal_core::fault::{FaultKind, FaultLog, FaultPlan};
use fractal_core::introspect::{http_get, response_body, IntrospectServer, IntrospectSource};
use fractal_core::meta::{decision_fingerprint, ClientEnv};
use fractal_core::reactor::{
    InpSession, Reactor, ReactorConfig, ReactorReport, SessionError, SessionPhase, DROPPED_METRICS,
};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_core::transport::{FrameError, LoopbackTransport, TransportPair};
use fractal_core::FractalError;
use fractal_net::LinkKind;
use fractal_telemetry::journal::JournalSnapshot;
use fractal_telemetry::{Registry, Snapshot, Telemetry, VirtualClock};
use fractal_workload::BurstCascade;

/// One scenario's body: `n` sessions (per wave) under a fault seed.
type Scenario = fn(usize, u64) -> Result<Outcome, Box<Failure>>;

/// The scenario matrix, in the order the full run drives it: each name,
/// the transport its sessions cross (the row's `transport` stamp) and its
/// body. CI fans one matrix job per name; `--scenario <name>` selects a
/// single one.
const SCENARIOS: [(&str, &str, Scenario); 7] = [
    ("burst_arrivals", "loopback", burst_arrivals),
    ("lossy_link", "loopback+faults", lossy_link),
    ("partition_recovery", "loopback+link+faults", partition_recovery),
    ("handoff_renegotiation", "loopback+link", handoff_renegotiation),
    ("cache_stampede", "loopback", cache_stampede),
    ("pad_rollout_rollback", "loopback", pad_rollout_rollback),
    ("live_republish", "loopback", live_republish),
];

/// Base fault seed; each scenario soaks under `BASE_SEED + its index` so
/// the streams are distinct but every row remains replayable.
const BASE_SEED: u64 = 0xF2AC_7A15;

/// Distinct pages published per scenario; sessions round-robin over them.
const PAGES: u32 = 16;

/// Sessions per scenario (per wave, for the multi-wave scenarios); the
/// `workflow_dispatch` long soak (`--long`) runs 10× as many.
const SESSIONS: usize = 192;

/// Cascade depth of the bursty scenarios (2^levels arrival slots).
const CASCADE_LEVELS: u32 = 6;

/// Everything observable about one scenario run. Two runs under the same
/// seed must compare equal, field for field — including the merged
/// telemetry snapshot — or the scenario is nondeterministic and fails.
#[derive(Clone, PartialEq, Debug)]
struct Outcome {
    sessions: usize,
    completed: usize,
    failed: usize,
    /// Live-but-stuck sessions surfaced by a *typed* stall (lossy_link
    /// only — everywhere else a stall is a scenario failure).
    stuck: usize,
    /// Injected fault actions across all sessions' logs.
    fault_events: u64,
    /// Fold of every session's fault-log fingerprint, in session order.
    fault_fp: u64,
    /// Fold of completed sessions' decision fingerprints, in session
    /// order (checked against the serial oracle inside each scenario).
    decision_fp: u64,
    /// Scenario-specific row members.
    extras: Vec<(&'static str, u64)>,
    telemetry: Snapshot,
    /// The run's flight-recorder snapshot: phase transitions, handoffs,
    /// and injected faults on one causal stream per session. Part of the
    /// equality contract — two runs must journal identically too.
    journal: JournalSnapshot,
}

/// What a failing scenario hands back: the message plus the failing
/// pass's telemetry snapshot (each run starts a fresh registry, so the
/// snapshot *is* the diff for that pass) and its flight-recorder
/// snapshot — everything `STALL_<name>.txt` embeds.
struct Failure {
    msg: String,
    telemetry: Snapshot,
    journal: JournalSnapshot,
}

impl Failure {
    /// A failure carrying the failing pass's run bundle: its registry
    /// and flight-recorder snapshots.
    fn of(msg: String, bundle: &Telemetry) -> Box<Failure> {
        Box::new(Failure { msg, telemetry: bundle.snapshot(), journal: bundle.journal_snapshot() })
    }
}

/// The live introspection plane, when `--introspect` is up. Scenario
/// bundles attach here as they are created and are never retired: the
/// registries only grow, so scrapes stay monotonic for the process
/// lifetime.
static INTROSPECT: OnceLock<Arc<IntrospectSource>> = OnceLock::new();

/// One run of a scenario: its telemetry bundle and what the run collects
/// on the way — reactor reports, completed sessions' decisions, fault
/// logs — which [`Pass::finish`] turns into the [`Outcome`]. The scenario
/// keeps its testbed, so its reactors borrow that, not the pass.
struct Pass {
    bundle: Telemetry,
    /// Every wave's report, summed the way the shared bundle sees
    /// consecutive reactors: counters add, the peak gauge keeps the
    /// maximum.
    report: ReactorReport,
    /// Fold of completed sessions' decision fingerprints, in the order
    /// the scenario checks them against its oracle.
    decision_fp: u64,
    /// One fault log per fault-wrapped session, in session order.
    logs: Vec<FaultLog>,
}

impl Pass {
    /// A pass on a fresh bundle with a flight recorder, on a virtual
    /// clock: phase timings, metric values and journal timestamps become
    /// pure functions of event order, so run-to-run snapshot equality is
    /// meaningful (and the reconciliation in `finish` exact).
    fn new() -> Pass {
        let bundle =
            Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(1)).with_journal(4096);
        if let Some(src) = INTROSPECT.get() {
            src.attach(bundle.clone());
        }
        Pass { bundle, report: ReactorReport::default(), decision_fp: FNV_OFFSET, logs: Vec::new() }
    }

    fn fail(&self, msg: String) -> Box<Failure> {
        Failure::of(msg, &self.bundle)
    }

    /// A reactor over `tb`, timed on and journaling to this pass's bundle.
    fn reactor<'a>(&self, tb: &'a Testbed, cfg: ReactorConfig) -> Reactor<'a> {
        Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg.telemetry(&self.bundle))
    }

    /// `inner` under session `i`'s stream of `plan`. The fault layer
    /// journals onto the stream the reactor uses for that session
    /// (session id = spawn order = slot id), so injected faults
    /// interleave causally with phase transitions.
    fn faulty(&mut self, plan: &FaultPlan, i: usize, inner: TransportPair) -> TransportPair {
        let journal = self.bundle.journal().expect("run bundles carry a journal").session(i as u64);
        let (pair, log) = plan.for_session(i as u64).wrap_pair_journaled(inner, journal);
        self.logs.push(log);
        pair
    }

    /// Adds one reactor's report to the pass's.
    fn add(&mut self, wave: ReactorReport) {
        let total = &mut self.report;
        total.completed += wave.completed;
        total.failed += wave.failed;
        total.polls += wave.polls;
        total.peak_in_flight = total.peak_in_flight.max(wave.peak_in_flight);
    }

    /// Runs `reactor` until every session is terminal; each must be `Done`.
    fn complete(&mut self, reactor: &mut Reactor, what: &str) -> Result<(), Box<Failure>> {
        let report = reactor.run().map_err(|e| self.fail(format!("{what} stalled: {e}")))?;
        assert_eq!(report.failed, 0, "{what} broke sessions");
        self.add(report);
        Ok(())
    }

    /// Folds a completed session's decision fingerprint into the pass's,
    /// and returns it for the scenario's oracle check.
    fn decided(&mut self, s: &InpSession) -> u64 {
        let fp = decision_fingerprint(s.negotiated().expect("completed session negotiated"));
        self.decision_fp = fold(self.decision_fp, fp);
        fp
    }

    /// The outcome of `sessions` sessions: the summed reports' counts (a
    /// session neither done nor failed is stuck), the fault logs' and
    /// decisions' folds, and the bundle's telemetry — which must agree
    /// with the reports ([`ReactorReport::reconcile`]) — and journal.
    fn finish(&self, sessions: usize, extras: Vec<(&'static str, u64)>) -> Outcome {
        let snap = self.bundle.snapshot();
        self.report.reconcile(&snap).expect("telemetry disagrees with the reactor reports");
        let (mut fault_events, mut fault_fp) = (0u64, 0u64);
        if !self.logs.is_empty() {
            fault_fp = FNV_OFFSET;
            for log in &self.logs {
                fault_events += log.events().len() as u64;
                fault_fp = fold(fault_fp, log.fingerprint());
            }
            assert!(fault_events > 0, "the adversary never acted");
        }
        let ReactorReport { completed, failed, .. } = self.report;
        Outcome {
            sessions,
            completed,
            failed,
            stuck: sessions - completed - failed,
            fault_events,
            fault_fp,
            decision_fp: self.decision_fp,
            extras,
            telemetry: snap,
            journal: self.bundle.journal_snapshot(),
        }
    }
}

fn testbed_with_pages() -> Testbed {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..PAGES {
        tb.server.publish(id, page_bytes(id as u8 + 1, 4_000));
    }
    tb
}

fn page_bytes(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i / 5) as u8).wrapping_mul(seed).wrapping_add(seed)).collect()
}

/// Session `i` of a population: a client under `env` asking for version
/// 0 of page `i mod PAGES`.
fn session(tb: &Testbed, env: ClientEnv, i: usize) -> InpSession {
    InpSession::new(tb.client_with_env(env), tb.app_id, i as u32 % PAGES, 0)
}

/// The serial oracle's decision for `env`.
fn oracle(tb: &Testbed, env: ClientEnv) -> u64 {
    decision_fingerprint(&tb.proxy.negotiate(tb.app_id, env).unwrap())
}

/// Serial oracle decisions for `n` sessions under `env`'s schedule, on a
/// testbed the scenario never touches.
fn oracle_decisions(n: usize, env: fn(usize) -> ClientEnv) -> Vec<u64> {
    let tb = testbed_with_pages();
    (0..n).map(|i| oracle(&tb, env(i))).collect()
}

/// Up to `polls` polls: a partial pump between two bursts.
fn pump(reactor: &mut Reactor, polls: usize) {
    for _ in 0..polls {
        if reactor.poll().is_none() {
            break;
        }
    }
}

/// Cascade-shaped arrival waves over the untimed loopback: admission
/// pressure comes in bursts (one spawn wave per cascade slot, partial
/// pumping between waves) instead of all-at-once, yet every session must
/// complete with the oracle's decision.
fn burst_arrivals(n: usize, seed: u64) -> Result<Outcome, Box<Failure>> {
    let cascade = BurstCascade::new(seed, CASCADE_LEVELS, 0.8);
    let counts = cascade.counts(n);
    let peak_wave = counts.iter().copied().max().unwrap_or(0);
    let oracle = oracle_decisions(n, client_env);

    let tb = testbed_with_pages();
    let mut pass = Pass::new();
    let mut reactor = pass.reactor(&tb, ReactorConfig::new());
    let mut spawned = 0usize;
    for &wave in &counts {
        for _ in 0..wave {
            reactor.spawn(session(&tb, client_env(spawned), spawned));
            spawned += 1;
        }
        // The burst arrives onto a reactor that is still mid-flight with
        // the previous ones.
        pump(&mut reactor, wave * 4);
    }
    assert_eq!(spawned, n, "cascade counts must conserve the population");
    pass.complete(&mut reactor, "burst_arrivals")?;
    for (i, s) in reactor.into_sessions().iter().enumerate() {
        assert_eq!(
            pass.decided(s),
            oracle[i],
            "burst arrival order changed decision for session {i}"
        );
    }
    Ok(pass
        .finish(n, vec![("cascade_slots", counts.len() as u64), ("peak_wave", peak_wave as u64)]))
}

/// The `lossy_link` row's failure reasons, in row order.
const FAILURE_REASONS: [&str; 5] = [
    "failed_corrupt",
    "failed_bad_prefix",
    "failed_unexpected_message",
    "failed_gauntlet",
    "failed_other",
];

/// Which of [`FAILURE_REASONS`] a failed session's error is.
fn failure_reason(error: &InpError) -> usize {
    match error {
        InpError::Frame(FrameError::Corrupt { .. }) => 0,
        InpError::Frame(FrameError::BadPrefix) => 1,
        InpError::Session(SessionError::UnexpectedMessage { .. }) => 2,
        InpError::Session(SessionError::Fractal(
            FractalError::PadRejected(_)
            | FractalError::PadUnverifiable(_)
            | FractalError::PadInfeasible { .. },
        )) => 3,
        _ => 4,
    }
}

/// Seeded loss/dup/corrupt/reorder over checksummed framing. Outcomes
/// are classified, never hung: exact content on completion, a typed
/// error on failure (counted per reason), a typed stall report for
/// sessions the adversary starved — and corruption must be *caught* at
/// least once. A duplicated frame is dropped by the receive rule, never a
/// failure: the row counts those drops beside the failures.
fn lossy_link(n: usize, seed: u64) -> Result<Outcome, Box<Failure>> {
    let plan = FaultPlan::new(seed).with_drop(20).with_dup(40).with_corrupt(30).with_reorder(60);
    let tb = testbed_with_pages();
    let mut pass = Pass::new();
    let mut reactor = pass.reactor(&tb, ReactorConfig::new().frame_checksums());
    for i in 0..n {
        let pair = pass.faulty(&plan, i, LoopbackTransport::pair(4096));
        reactor.spawn_on(session(&tb, client_env(i), i), pair);
    }
    // Dropped frames have no retransmit at this layer, so starved
    // sessions are expected — but only as a *typed* stall.
    match reactor.run() {
        Ok(_) | Err(InpError::Stalled(_)) => {}
        Err(e) => return Err(pass.fail(format!("lossy_link died untypedly: {e}"))),
    }
    pass.add(reactor.report());

    let mut reasons = [0u64; FAILURE_REASONS.len()];
    for i in 0..n {
        let s = reactor.session(i);
        match s.phase() {
            SessionPhase::Done => {
                let content_id = i as u32 % PAGES;
                assert_eq!(
                    s.client().cached_content(content_id).unwrap().bytes,
                    tb.server.content(content_id, 0).unwrap(),
                    "session {i} completed with corrupted content"
                );
                pass.decided(s);
            }
            SessionPhase::Failed => {
                let error = s.error().expect("a failed session keeps its typed error");
                reasons[failure_reason(error)] += 1;
            }
            _ => {}
        }
    }
    assert!(pass.report.completed > 0, "the fault mix starved every single session");
    let corruptions: u64 = pass
        .logs
        .iter()
        .flat_map(|log| log.events())
        .filter(|e| matches!(e.kind, FaultKind::Corrupted { .. }))
        .count() as u64;
    if corruptions > 0 {
        // Checked framing means a flipped byte can only surface as a
        // typed rejection (failure/stall), never as accepted content —
        // the content equality above already proved acceptance is clean.
        assert!(
            pass.report.completed < n,
            "{corruptions} corruptions injected yet every session completed untouched"
        );
    }
    let mut extras = vec![("corruptions_injected", corruptions)];
    extras.extend(FAILURE_REASONS.into_iter().zip(reasons));
    let mut outcome = pass.finish(n, extras);
    for (key, metric) in ["dropped_dup", "dropped_stale"].into_iter().zip(DROPPED_METRICS) {
        outcome.extras.push((key, outcome.telemetry.counters[metric]));
    }
    Ok(outcome)
}

/// A transient partition parks every in-flight byte, the link heals on
/// the simulated clock, and every session still completes with the
/// oracle's decision — recovery, not typed failure, is the bar here.
fn partition_recovery(n: usize, seed: u64) -> Result<Outcome, Box<Failure>> {
    let plan = FaultPlan::new(seed).with_partition(4, 20_000);
    let oracle = oracle_decisions(n, client_env);
    let tb = testbed_with_pages();
    let mut pass = Pass::new();
    let mut reactor = pass.reactor(&tb, ReactorConfig::new());
    for i in 0..n {
        let pair = pass.faulty(&plan, i, LoopbackTransport::over(LinkKind::Wlan.link(), 4096));
        reactor.spawn_on(session(&tb, client_env(i), i), pair);
    }
    pass.complete(&mut reactor, "partition_recovery")?;
    for (i, s) in reactor.into_sessions().iter().enumerate() {
        assert_eq!(
            pass.decided(s),
            oracle[i],
            "partition recovery changed decision for session {i}"
        );
    }
    let healed = pass
        .logs
        .iter()
        .filter(|log| log.events().iter().any(|e| e.kind == FaultKind::PartitionHeal))
        .count();
    assert!(healed > 0, "no session ever saw its partition heal");
    Ok(pass.finish(n, vec![("sessions_healed", healed as u64)]))
}

/// Mid-session mobility: sessions negotiate on WLAN, then the link swaps
/// to Bluetooth underneath while the INP session renegotiates. Every
/// re-negotiated decision must match the serial oracle for the *new*
/// environment, and every client must have negotiated exactly twice.
fn handoff_renegotiation(n: usize, _seed: u64) -> Result<Outcome, Box<Failure>> {
    let tb = testbed_with_pages();
    let oracle_tb = testbed_with_pages();
    let mut pass = Pass::new();
    let mut reactor = pass.reactor(&tb, ReactorConfig::new());
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (pair, handle) = LoopbackTransport::over_with_handoff(LinkKind::Wlan.link(), 4096);
        handles.push(handle);
        reactor.spawn_on(session(&tb, client_env(i), i), pair);
    }
    // Drive until the whole population is deep in flight (or done —
    // pumping can walk a session through Sessioning early).
    reactor
        .run_until(|r| {
            (0..n).all(|id| {
                let p = r.session(id).phase();
                p == SessionPhase::Sessioning || p.is_terminal()
            })
        })
        .map_err(|e| pass.fail(format!("never reached the handoff point: {e}")))?;

    // Walk out of WLAN range: swap the physical link *and* force the
    // protocol back through renegotiation on every still-live session.
    let new_ntwk = fractal_core::ClientClass::PdaBluetooth.env().ntwk;
    let mut handoffs = 0usize;
    for (id, handle) in handles.iter().enumerate() {
        if reactor.session(id).phase().is_terminal() {
            continue;
        }
        reactor
            .handoff(id, new_ntwk)
            .map_err(|e| pass.fail(format!("handoff of {id} refused: {e}")))?;
        handle.switch(LinkKind::Bluetooth.link());
        handoffs += 1;
    }
    assert!(handoffs > 0, "population finished before any handoff could fire");
    pass.complete(&mut reactor, "post-handoff")?;

    for i in 0..n {
        let s = reactor.session(i);
        let mut env = client_env(i);
        if s.client().stats().negotiations == 2 {
            // Renegotiated: the oracle question is the NEW environment.
            env.ntwk = new_ntwk;
        }
        let expect = oracle(&oracle_tb, env);
        assert_eq!(
            pass.decided(s),
            expect,
            "session {i} decision diverged from its environment oracle"
        );
        let content_id = i as u32 % PAGES;
        assert_eq!(
            s.client().cached_content(content_id).unwrap().bytes,
            tb.server.content(content_id, 0).unwrap(),
            "session {i} content wrong after renegotiation"
        );
    }
    Ok(pass.finish(n, vec![("handoffs", handoffs as u64)]))
}

/// An all-distinct client environment for stampede index `i`: the class
/// cycles and the memory size never repeats, so every environment is a
/// distinct adaptation-cache key.
fn stampede_env(i: usize) -> ClientEnv {
    let mut env = client_env(i);
    env.dev.memory_mb = env.dev.memory_mb.saturating_add(13 * i as u32 + 1);
    env
}

/// A population of all-distinct environments hits the cold adaptation
/// cache at once — every negotiation is a miss. The identical second
/// wave must be answered entirely from cache, counted exactly.
fn cache_stampede(n: usize, _seed: u64) -> Result<Outcome, Box<Failure>> {
    let tb = testbed_with_pages();
    let oracle = oracle_decisions(n, stampede_env);
    let mut pass = Pass::new();

    let before = tb.proxy.stats();
    assert_eq!((before.cache_hits, before.cache_misses), (0, 0), "scenario proxy must be cold");
    for wave in 0..2 {
        let mut reactor = pass.reactor(&tb, ReactorConfig::new());
        for i in 0..n {
            // Wave-global journal labels: wave two's streams must not
            // splice into wave one's.
            reactor.spawn(session(&tb, stampede_env(i), i).with_label((wave * n + i) as u64));
        }
        pass.complete(&mut reactor, &format!("stampede wave {wave}"))?;
        for (i, s) in reactor.into_sessions().iter().enumerate() {
            assert_eq!(
                pass.decided(s),
                oracle[i],
                "wave {wave} session {i} diverged from the oracle"
            );
        }
    }
    let stats = tb.proxy.stats();
    assert_eq!(
        stats.cache_misses, n as u64,
        "wave one must miss exactly once per distinct environment"
    );
    assert_eq!(stats.cache_hits, n as u64, "wave two must be answered entirely from cache");
    Ok(pass.finish(
        2 * n,
        vec![("cache_misses", stats.cache_misses), ("cache_hits", stats.cache_hits)],
    ))
}

/// The server republishes mid-traffic (v0 → v1) and then rolls back
/// (v2 = v0's bytes). Warm clients carry their protocol cache through
/// all three waves — one negotiation ever — and end each wave with
/// byte-exact content for the version that wave asked for.
fn pad_rollout_rollback(n: usize, _seed: u64) -> Result<Outcome, Box<Failure>> {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let content_id = 0u32;
    let v0_bytes = page_bytes(3, 4_000);
    let v1_bytes = page_bytes(9, 5_000);
    assert_eq!(tb.server.publish(content_id, v0_bytes.clone()), 0);
    let oracle = oracle_decisions(n, client_env);
    let mut pass = Pass::new();

    let mut clients: Vec<fractal_core::client::FractalClient> =
        (0..n).map(|i| tb.client_with_env(client_env(i))).collect();
    // (wave, version to request, bytes that version must decode to)
    let waves: [(&str, u32, &[u8]); 3] =
        [("rollout-base", 0, &v0_bytes), ("rollout", 1, &v1_bytes), ("rollback", 2, &v0_bytes)];
    for (w, (label, want, expect_bytes)) in waves.iter().enumerate() {
        if *want > 0 {
            // Republish mid-traffic: v1 is new content, v2 the rollback
            // to v0's exact bytes.
            assert_eq!(tb.server.publish(content_id, expect_bytes.to_vec()), *want);
        }
        let mut reactor = pass.reactor(&tb, ReactorConfig::new());
        for (i, client) in clients.drain(..).enumerate() {
            reactor.spawn(
                InpSession::new(client, tb.app_id, content_id, *want)
                    .with_label((w * n + i) as u64),
            );
        }
        pass.complete(&mut reactor, &format!("{label} wave"))?;
        for (i, session) in reactor.into_sessions().into_iter().enumerate() {
            if w == 0 {
                let fp = pass.decided(&session);
                assert_eq!(fp, oracle[i], "{label} session {i} diverged from the oracle");
            }
            let client = session.into_client();
            assert_eq!(
                client.cached_content(content_id).unwrap().bytes,
                *expect_bytes,
                "{label} session {i} holds the wrong version's bytes"
            );
            clients.push(client);
        }
    }
    // The protocol cache carried every client through the republishes:
    // one full negotiation ever, a cache hit per following wave.
    for (i, client) in clients.iter().enumerate() {
        let stats = client.stats();
        assert_eq!(stats.negotiations, 1, "client {i} renegotiated on a republish");
        assert_eq!(stats.protocol_cache_hits, 2, "client {i} missed its protocol cache");
    }
    Ok(pass.finish(waves.len() * n, vec![("waves", 3), ("republishes", 2)]))
}

/// Cascade-shaped publish bursts against the epoch-versioned server
/// while the whole population is in flight. One publish per session
/// index, shaped by [`BurstCascade`] into bursts that land between
/// partial event-loop pumps (same thread, virtual clock — so the
/// interleaving is deterministic and the run-twice contract is
/// meaningful). Sessions are pinned to version 0: no matter how many
/// successors a burst appends, each must decode version 0's exact bytes
/// with the oracle's decision. The writer side asserts every publish
/// appends exactly one version; the end of the run asserts every
/// superseded snapshot generation was reclaimed.
fn live_republish(n: usize, seed: u64) -> Result<Outcome, Box<Failure>> {
    let cascade = BurstCascade::new(seed, CASCADE_LEVELS, 0.8);
    let bursts = cascade.counts(n);
    let peak_burst = bursts.iter().copied().max().unwrap_or(0);
    let oracle = oracle_decisions(n, client_env);

    let tb = testbed_with_pages();
    let generation_before = tb.server.generation();
    let mut pass = Pass::new();
    let mut reactor = pass.reactor(&tb, ReactorConfig::new());
    for i in 0..n {
        reactor.spawn(session(&tb, client_env(i), i));
    }

    // The publish bursts, mid-soak: every page id gains versions while
    // sessions decode against it.
    let mut next_version: Vec<u32> = vec![1; PAGES as usize];
    let mut published = 0u64;
    for &burst in &bursts {
        for _ in 0..burst {
            let id = (published % PAGES as u64) as u32;
            let v = tb.server.publish(id, page_bytes((published % 199) as u8 + 31, 3_000));
            assert_eq!(
                v, next_version[id as usize],
                "republish of page {id} must append exactly one version"
            );
            next_version[id as usize] += 1;
            published += 1;
        }
        pump(&mut reactor, burst * 4);
    }
    assert_eq!(published, n as u64, "cascade counts must conserve the publish budget");
    pass.complete(&mut reactor, "live_republish")?;

    for (i, s) in reactor.into_sessions().iter().enumerate() {
        assert_eq!(pass.decided(s), oracle[i], "republish bursts changed decision for session {i}");
        let content_id = i as u32 % PAGES;
        assert_eq!(
            s.client().cached_content(content_id).unwrap().bytes,
            tb.server.content(content_id, 0).unwrap(),
            "session {i} decoded bytes other than the version it negotiated"
        );
    }
    for id in 0..PAGES {
        assert_eq!(
            tb.server.latest_version(id),
            Some(next_version[id as usize] - 1),
            "page {id} lost a version"
        );
    }
    let generation = tb.server.generation();
    assert_eq!(generation, generation_before + published, "a publish was lost");
    // Grace periods complete: readers quiesced, so only the current
    // snapshot generation may remain alive.
    let epoch = tb.server.epoch_stats();
    assert_eq!(epoch.live, 1, "superseded generations must be reclaimed: {epoch:?}");

    Ok(pass.finish(
        n,
        vec![
            ("publish_bursts", bursts.len() as u64),
            ("peak_burst", peak_burst as u64),
            ("republishes", published),
            ("server_generation", generation),
        ],
    ))
}

/// The row for one scenario, stamped with provenance + scenario + seed
/// via [`BenchEnv::members`].
fn row(env: &BenchEnv, o: &Outcome) -> Json {
    let mut row = env.members();
    row.extend([
        ("sessions", o.sessions.into()),
        ("completed", o.completed.into()),
        ("failed", o.failed.into()),
        ("stuck", o.stuck.into()),
        ("fault_events", o.fault_events.into()),
        ("fault_fingerprint", format!("{:#018x}", o.fault_fp).as_str().into()),
        ("decision_fingerprint", format!("{:#018x}", o.decision_fp).as_str().into()),
    ]);
    row.extend(o.extras.iter().map(|&(k, v)| (k, v.into())));
    row.extend([
        ("runs", 2u64.into()),
        ("deterministic_across_runs", Json::Bool(true)),
        ("telemetry", (&o.telemetry).into()),
    ]);
    Json::object(row)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let long = args.iter().any(|a| a == "--long");
    let names = SCENARIOS.map(|(name, ..)| name);
    let only = args.iter().position(|a| a == "--scenario").map(|p| {
        args.get(p + 1).cloned().unwrap_or_else(|| {
            eprintln!("--scenario needs a name; one of: {names:?}");
            std::process::exit(2);
        })
    });
    if let Some(name) = &only {
        if !names.contains(&name.as_str()) {
            eprintln!("unknown scenario {name:?}; one of: {names:?}");
            std::process::exit(2);
        }
    }
    let introspect_server = args.iter().position(|a| a == "--introspect").map(|ix| {
        let port: u16 = args.get(ix + 1).and_then(|p| p.parse().ok()).unwrap_or_else(|| {
            eprintln!("--introspect needs a port (0 for ephemeral)");
            std::process::exit(2);
        });
        let source = IntrospectSource::new();
        let server =
            IntrospectServer::spawn(port, source.clone()).expect("bind introspection endpoint");
        println!(
            "introspection plane live at http://{} (/metrics /healthz /journal /stalls)\n",
            server.addr()
        );
        INTROSPECT.set(source).ok().expect("introspect source set once");
        server
    });
    let (n, mode) = if long { (10 * SESSIONS, "long") } else { (SESSIONS, "full") };
    let env = BenchEnv::capture();
    println!(
        "scenarios ({mode}): {n} session(s) per scenario, every scenario run twice under its \
         seed (host has {} cpu(s), rev {})\n",
        env.host_cpus, env.git_sha
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut sections: Vec<(&str, Json)> = Vec::new();
    let mut failures = 0usize;
    for (i, &(name, transport, scenario)) in SCENARIOS.iter().enumerate() {
        if only.as_deref().is_some_and(|only| only != name) {
            continue;
        }
        let seed = BASE_SEED + i as u64;
        // The determinism contract, enforced in-process: the same seed
        // must yield identical decisions, fault logs, and telemetry.
        let outcome = match (scenario(n, seed), scenario(n, seed)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{name}: two runs under seed {seed:#x} diverged");
                a
            }
            (Err(f), _) | (_, Err(f)) => {
                let path = format!("STALL_{name}.txt");
                let mut report =
                    format!("scenario {name} (seed {seed:#x}, {mode} scale) failed:\n{}\n", f.msg);
                // Each run starts a fresh registry on a virtual clock, so
                // this snapshot is exactly the failing pass's diff from a
                // zero baseline — where the counters stopped is where the
                // run died.
                report.push_str("\n== telemetry snapshot of the failing pass ==\n");
                if f.telemetry.is_empty() {
                    report.push_str("(empty: failure before first record)\n");
                } else {
                    report.push_str(&f.telemetry.render_prometheus());
                }
                report.push_str("\n== flight recorder of the failing pass ==\n");
                report.push_str(&f.journal.render());
                let _ = std::fs::write(&path, &report);
                if let Some(src) = INTROSPECT.get() {
                    src.record_stall(format!("{name}: {}", f.msg));
                }
                eprintln!("FAIL {name}: {}\n  (stall report written to {path})", f.msg);
                failures += 1;
                continue;
            }
        };
        rows.push(vec![
            name.to_string(),
            outcome.sessions.to_string(),
            outcome.completed.to_string(),
            outcome.failed.to_string(),
            outcome.stuck.to_string(),
            outcome.fault_events.to_string(),
            format!("{:#018x}", outcome.decision_fp),
        ]);
        let stamped = BenchEnv::capture().with_transport(transport).with_scenario(name, seed);
        sections.push((name, row(&stamped, &outcome)));
    }

    println!(
        "{}",
        render_table(
            &["scenario", "sessions", "done", "failed", "stuck", "faults", "decision_fp"],
            &rows
        )
    );
    println!(
        "\nevery scenario above ran twice under its seed: decisions, fault logs, and merged \
         telemetry identical; injected faults terminated in typed errors or recovery, never hangs"
    );

    if !sections.is_empty() {
        let path = "BENCH_scenarios.json";
        let mut doc = Json::load(path).unwrap_or_else(|e| panic!("{e}"));
        let mut section = doc.get("scenarios").cloned().unwrap_or(Json::Obj(Vec::new()));
        for (name, row) in sections {
            section.insert(name, row);
        }
        doc.insert("scenarios", section);
        doc.save(path);
    }
    // With the sidecar up, close the loop over real TCP: the quiescent
    // scrape must reconcile exactly with the in-process merged snapshot.
    if let Some(server) = &introspect_server {
        let source = INTROSPECT.get().expect("source set with server");
        let resp = http_get(server.addr(), "/metrics").expect("introspection self-scrape");
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "bad scrape status: {resp}");
        let body = response_body(&resp);
        assert_eq!(
            body,
            source.merged_snapshot().render_prometheus(),
            "self-scrape must reconcile exactly with the in-process snapshot"
        );
        println!(
            "\nintrospection self-scrape reconciled exactly ({} bytes of /metrics)",
            body.len()
        );
    }
    if failures > 0 {
        eprintln!("\n{failures} scenario(s) failed");
        std::process::exit(1);
    }
}
