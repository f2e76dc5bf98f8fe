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
//! fault seed so any row can be replayed. `--smoke` trims the population
//! and builds and reads back the document without writing it (the CI
//! gate); `--long` is the 10× soak behind
//! `workflow_dispatch`. An *unexpected* stall writes `STALL_<name>.txt`
//! with the stuck-session phase report and exits nonzero.

use std::sync::{Arc, OnceLock};

use fractal_bench::bench_env::BenchEnv;
use fractal_bench::fig9a::client_env;
use fractal_bench::json::Json;
use fractal_bench::report::render_table;
use fractal_bench::{fingerprint, fold, FNV_OFFSET};
use fractal_core::error::InpError;
use fractal_core::fault::{FaultKind, FaultLog, FaultPlan};
use fractal_core::introspect::{http_get, response_body, IntrospectServer, IntrospectSource};
use fractal_core::meta::ClientEnv;
use fractal_core::reactor::{
    InpSession, Reactor, ReactorConfig, ReactorReport, SessionError, SessionPhase, DROPPED_METRICS,
};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_core::transport::{FrameError, LoopbackTransport};
use fractal_core::FractalError;
use fractal_net::LinkKind;
use fractal_telemetry::journal::JournalSnapshot;
use fractal_telemetry::{Registry, Snapshot, Telemetry, VirtualClock};
use fractal_workload::BurstCascade;

/// The scenario matrix, in the order the full run drives it. CI fans one
/// matrix job per name; `--scenario <name>` selects a single one.
const SCENARIOS: [&str; 7] = [
    "burst_arrivals",
    "lossy_link",
    "partition_recovery",
    "handoff_renegotiation",
    "cache_stampede",
    "pad_rollout_rollback",
    "live_republish",
];

/// Base fault seed; each scenario soaks under `BASE_SEED + its index` so
/// the streams are distinct but every row remains replayable.
const BASE_SEED: u64 = 0xF2AC_7A15;

/// Distinct pages published per scenario; sessions round-robin over them.
const PAGES: u32 = 16;

/// Population knobs per invocation mode.
struct Scale {
    /// Sessions per scenario (per wave, for the multi-wave scenarios).
    sessions: usize,
    /// Cascade depth for `burst_arrivals` (2^levels arrival slots).
    levels: u32,
}

const SMOKE: Scale = Scale { sessions: 24, levels: 4 };
const FULL: Scale = Scale { sessions: 192, levels: 6 };
/// The `workflow_dispatch` long soak: 10× the full population.
const LONG: Scale = Scale { sessions: 1920, levels: 6 };

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
    /// A failure with no observability to attach (pre-run errors).
    fn bare(msg: String) -> Box<Failure> {
        Box::new(Failure {
            msg,
            telemetry: Snapshot::default(),
            journal: JournalSnapshot::default(),
        })
    }

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

/// A fresh per-run telemetry bundle with a flight recorder, on a virtual
/// clock: phase timings, metric values and journal timestamps become
/// pure functions of event order, so run-to-run snapshot equality is
/// meaningful (and the reconciliation below exact).
fn run_bundle() -> Telemetry {
    let tele =
        Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(1)).with_journal(4096);
    if let Some(src) = INTROSPECT.get() {
        src.attach(tele.clone());
    }
    tele
}

/// The telemetry-reconciliation leg of the contract: every scenario's run
/// bundle must agree with its reactor report(s)
/// ([`ReactorReport::reconcile`]).
const RECONCILE: &str = "telemetry disagrees with the reactor reports";

/// Folds one wave's report into the scenario total, the way the shared
/// run bundle sees consecutive reactors: counters add, the peak gauge
/// keeps the maximum.
fn add_wave(total: &mut ReactorReport, wave: ReactorReport) {
    total.completed += wave.completed;
    total.failed += wave.failed;
    total.polls += wave.polls;
    total.peak_in_flight = total.peak_in_flight.max(wave.peak_in_flight);
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

/// Serial oracle decisions for `n` sessions under the standard
/// environment schedule, on a testbed the scenario never touches.
fn oracle_decisions(n: usize) -> Vec<u64> {
    let tb = testbed_with_pages();
    (0..n).map(|i| fingerprint(&tb.proxy.negotiate(tb.app_id, client_env(i)).unwrap())).collect()
}

/// Cascade-shaped arrival waves over the untimed loopback: admission
/// pressure comes in bursts (one spawn wave per cascade slot, partial
/// pumping between waves) instead of all-at-once, yet every session must
/// complete with the oracle's decision.
fn burst_arrivals(scale: &Scale, seed: u64) -> Result<Outcome, Box<Failure>> {
    let n = scale.sessions;
    let cascade = BurstCascade::new(seed, scale.levels, 0.8);
    let counts = cascade.counts(n);
    let peak_wave = counts.iter().copied().max().unwrap_or(0);
    let oracle = oracle_decisions(n);

    let tb = testbed_with_pages();
    let bundle = run_bundle();
    let fail = |msg: String| Failure::of(msg, &bundle);
    let cfg = ReactorConfig::new().telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    let mut spawned = 0usize;
    for &wave in &counts {
        for _ in 0..wave {
            let env = client_env(spawned);
            let session =
                InpSession::new(tb.client_with_env(env), tb.app_id, spawned as u32 % PAGES, 0);
            reactor.spawn(session);
            spawned += 1;
        }
        // Partial pump between waves: the burst arrives onto a reactor
        // that is still mid-flight with the previous ones.
        for _ in 0..wave * 4 {
            if reactor.poll().is_none() {
                break;
            }
        }
    }
    assert_eq!(spawned, n, "cascade counts must conserve the population");
    let report = reactor.run().map_err(|e| fail(format!("burst_arrivals stalled: {e}")))?;
    assert_eq!((report.completed, report.failed), (n, 0), "bursty admission broke sessions");

    let mut decision_fp = FNV_OFFSET;
    for (i, s) in reactor.into_sessions().iter().enumerate() {
        let fp = fingerprint(s.negotiated().expect("completed session negotiated"));
        assert_eq!(fp, oracle[i], "burst arrival order changed decision for session {i}");
        decision_fp = fold(decision_fp, fp);
    }
    let snap = bundle.snapshot();
    report.reconcile(&snap).expect(RECONCILE);
    Ok(Outcome {
        sessions: n,
        completed: n,
        failed: 0,
        stuck: 0,
        fault_events: 0,
        fault_fp: 0,
        decision_fp,
        extras: vec![("cascade_slots", counts.len() as u64), ("peak_wave", peak_wave as u64)],
        telemetry: snap,
        journal: bundle.journal_snapshot(),
    })
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
fn lossy_link(scale: &Scale, seed: u64) -> Result<Outcome, Box<Failure>> {
    let n = scale.sessions;
    let plan = FaultPlan::new(seed).with_drop(20).with_dup(40).with_corrupt(30).with_reorder(60);
    let tb = testbed_with_pages();
    let bundle = run_bundle();
    let fail = |msg: String| Failure::of(msg, &bundle);
    let cfg = ReactorConfig::new().frame_checksums().telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    let mut logs: Vec<FaultLog> = Vec::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        // The fault layer journals onto the same per-session stream the
        // reactor uses (session id = spawn order = slot id), so injected
        // faults interleave causally with phase transitions.
        let (pair, log) = plan.for_session(i as u64).wrap_pair_journaled(
            LoopbackTransport::pair(4096),
            bundle.journal().expect("run bundles carry a journal").session(i as u64),
        );
        logs.push(log);
        let session =
            InpSession::new(tb.client_with_env(client_env(i)), tb.app_id, i as u32 % PAGES, 0);
        ids.push(reactor.spawn_on(session, pair));
    }
    // Dropped frames have no retransmit at this layer, so starved
    // sessions are expected — but only as a *typed* stall.
    match reactor.run() {
        Ok(_) | Err(InpError::Stalled(_)) => {}
        Err(e) => return Err(fail(format!("lossy_link died untypedly: {e}"))),
    }

    let (mut completed, mut failed, mut stuck) = (0usize, 0usize, 0usize);
    let mut reasons = [0u64; FAILURE_REASONS.len()];
    let mut decision_fp = FNV_OFFSET;
    for &id in &ids {
        let s = reactor.session(id);
        match s.phase() {
            SessionPhase::Done => {
                completed += 1;
                let content_id = id as u32 % PAGES;
                assert_eq!(
                    s.client().cached_content(content_id).unwrap().bytes,
                    tb.server.content(content_id, 0).unwrap(),
                    "session {id} completed with corrupted content"
                );
                decision_fp = fold(decision_fp, fingerprint(s.negotiated().unwrap()));
            }
            SessionPhase::Failed => {
                failed += 1;
                let error = s.error().expect("a failed session keeps its typed error");
                reasons[failure_reason(error)] += 1;
            }
            _ => stuck += 1,
        }
    }
    assert!(completed > 0, "the fault mix starved every single session");

    let mut fault_events = 0u64;
    let mut fault_fp = FNV_OFFSET;
    let mut corruptions = 0u64;
    for log in &logs {
        let events = log.events();
        fault_events += events.len() as u64;
        corruptions +=
            events.iter().filter(|e| matches!(e.kind, FaultKind::Corrupted { .. })).count() as u64;
        fault_fp = fold(fault_fp, log.fingerprint());
    }
    assert!(fault_events > 0, "the adversary never acted");
    if corruptions > 0 {
        // Checked framing means a flipped byte can only surface as a
        // typed rejection (failure/stall), never as accepted content —
        // the content equality above already proved acceptance is clean.
        assert!(
            failed + stuck > 0,
            "{corruptions} corruptions injected yet every session completed untouched"
        );
    }
    let snap = bundle.snapshot();
    reactor.report().reconcile(&snap).expect(RECONCILE);
    let mut extras = vec![("corruptions_injected", corruptions)];
    extras.extend(FAILURE_REASONS.into_iter().zip(reasons));
    for (key, metric) in ["dropped_dup", "dropped_stale"].into_iter().zip(DROPPED_METRICS) {
        extras.push((key, snap.counters[metric]));
    }
    Ok(Outcome {
        sessions: n,
        completed,
        failed,
        stuck,
        fault_events,
        fault_fp,
        decision_fp,
        extras,
        telemetry: snap,
        journal: bundle.journal_snapshot(),
    })
}

/// A transient partition parks every in-flight byte, the link heals on
/// the simulated clock, and every session still completes with the
/// oracle's decision — recovery, not typed failure, is the bar here.
fn partition_recovery(scale: &Scale, seed: u64) -> Result<Outcome, Box<Failure>> {
    let n = scale.sessions;
    let plan = FaultPlan::new(seed).with_partition(4, 20_000);
    let oracle = oracle_decisions(n);
    let tb = testbed_with_pages();
    let bundle = run_bundle();
    let fail = |msg: String| Failure::of(msg, &bundle);
    let cfg = ReactorConfig::new().telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    let mut logs = Vec::with_capacity(n);
    for i in 0..n {
        let inner = LoopbackTransport::over(LinkKind::Wlan.link(), 4096);
        let (pair, log) = plan.for_session(i as u64).wrap_pair_journaled(
            inner,
            bundle.journal().expect("run bundles carry a journal").session(i as u64),
        );
        logs.push(log);
        let session =
            InpSession::new(tb.client_with_env(client_env(i)), tb.app_id, i as u32 % PAGES, 0);
        reactor.spawn_on(session, pair);
    }
    let report = reactor.run().map_err(|e| fail(format!("partition never healed: {e}")))?;
    assert_eq!((report.completed, report.failed), (n, 0), "partitioned sessions must recover");

    let mut decision_fp = FNV_OFFSET;
    for (i, s) in reactor.into_sessions().iter().enumerate() {
        let fp = fingerprint(s.negotiated().expect("recovered session negotiated"));
        assert_eq!(fp, oracle[i], "partition recovery changed decision for session {i}");
        decision_fp = fold(decision_fp, fp);
    }
    let mut fault_events = 0u64;
    let mut fault_fp = FNV_OFFSET;
    let mut healed = 0usize;
    for log in &logs {
        let events = log.events();
        fault_events += events.len() as u64;
        if events.iter().any(|e| matches!(e.kind, FaultKind::PartitionHeal)) {
            healed += 1;
        }
        fault_fp = fold(fault_fp, log.fingerprint());
    }
    assert!(healed > 0, "no session ever saw its partition heal");
    let snap = bundle.snapshot();
    report.reconcile(&snap).expect(RECONCILE);
    Ok(Outcome {
        sessions: n,
        completed: n,
        failed: 0,
        stuck: 0,
        fault_events,
        fault_fp,
        decision_fp,
        extras: vec![("sessions_healed", healed as u64)],
        telemetry: snap,
        journal: bundle.journal_snapshot(),
    })
}

/// Mid-session mobility: sessions negotiate on WLAN, then the link swaps
/// to Bluetooth underneath while the INP session renegotiates. Every
/// re-negotiated decision must match the serial oracle for the *new*
/// environment, and every client must have negotiated exactly twice.
fn handoff_renegotiation(scale: &Scale, _seed: u64) -> Result<Outcome, Box<Failure>> {
    let n = scale.sessions;
    let tb = testbed_with_pages();
    let oracle_tb = testbed_with_pages();
    let bundle = run_bundle();
    let fail = |msg: String| Failure::of(msg, &bundle);
    let cfg = ReactorConfig::new().telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    let mut handles = Vec::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let (pair, handle) = LoopbackTransport::over_with_handoff(LinkKind::Wlan.link(), 4096);
        handles.push(handle);
        let session =
            InpSession::new(tb.client_with_env(client_env(i)), tb.app_id, i as u32 % PAGES, 0);
        ids.push(reactor.spawn_on(session, pair));
    }
    // Drive until the whole population is deep in flight (or done —
    // pumping can walk a session through Sessioning early).
    reactor
        .run_until(|r| {
            ids.iter().all(|&id| {
                let p = r.session(id).phase();
                p == SessionPhase::Sessioning || p.is_terminal()
            })
        })
        .map_err(|e| fail(format!("never reached the handoff point: {e}")))?;

    // Walk out of WLAN range: swap the physical link *and* force the
    // protocol back through renegotiation on every still-live session.
    let new_ntwk = fractal_core::ClientClass::PdaBluetooth.env().ntwk;
    let mut handoffs = 0usize;
    for (i, &id) in ids.iter().enumerate() {
        if reactor.session(id).phase().is_terminal() {
            continue;
        }
        reactor.handoff(id, new_ntwk).map_err(|e| fail(format!("handoff of {id} refused: {e}")))?;
        handles[i].switch(LinkKind::Bluetooth.link());
        handoffs += 1;
    }
    assert!(handoffs > 0, "population finished before any handoff could fire");
    let report = reactor.run().map_err(|e| fail(format!("post-handoff stall: {e}")))?;
    assert_eq!((report.completed, report.failed), (n, 0), "handoff broke sessions");

    let mut decision_fp = FNV_OFFSET;
    for (i, &id) in ids.iter().enumerate() {
        let s = reactor.session(id);
        let fp = fingerprint(s.negotiated().expect("completed session negotiated"));
        let stats = s.client().stats();
        let mut env = client_env(i);
        if stats.negotiations == 2 {
            // Renegotiated: the oracle question is the NEW environment.
            env.ntwk = new_ntwk;
        }
        let expect = fingerprint(&oracle_tb.proxy.negotiate(oracle_tb.app_id, env).unwrap());
        assert_eq!(fp, expect, "session {i} decision diverged from its environment oracle");
        let content_id = i as u32 % PAGES;
        assert_eq!(
            s.client().cached_content(content_id).unwrap().bytes,
            tb.server.content(content_id, 0).unwrap(),
            "session {i} content wrong after renegotiation"
        );
        decision_fp = fold(decision_fp, fp);
    }
    let snap = bundle.snapshot();
    report.reconcile(&snap).expect(RECONCILE);
    Ok(Outcome {
        sessions: n,
        completed: n,
        failed: 0,
        stuck: 0,
        fault_events: 0,
        fault_fp: 0,
        decision_fp,
        extras: vec![("handoffs", handoffs as u64)],
        telemetry: snap,
        journal: bundle.journal_snapshot(),
    })
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
fn cache_stampede(scale: &Scale, _seed: u64) -> Result<Outcome, Box<Failure>> {
    let n = scale.sessions;
    let tb = testbed_with_pages();
    let oracle_tb = testbed_with_pages();
    let oracle: Vec<u64> = (0..n)
        .map(|i| {
            fingerprint(&oracle_tb.proxy.negotiate(oracle_tb.app_id, stampede_env(i)).unwrap())
        })
        .collect();
    let bundle = run_bundle();
    let fail = |msg: String| Failure::of(msg, &bundle);

    let before = tb.proxy.stats();
    assert_eq!((before.cache_hits, before.cache_misses), (0, 0), "scenario proxy must be cold");
    let mut decision_fp = FNV_OFFSET;
    let mut total = ReactorReport::default();
    for wave in 0..2 {
        let cfg = ReactorConfig::new().telemetry(&bundle);
        let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
        for i in 0..n {
            // Wave-global journal labels: wave two's streams must not
            // splice into wave one's.
            let session = InpSession::new(
                tb.client_with_env(stampede_env(i)),
                tb.app_id,
                i as u32 % PAGES,
                0,
            )
            .with_label((wave * n + i) as u64);
            reactor.spawn(session);
        }
        let report =
            reactor.run().map_err(|e| fail(format!("stampede wave {wave} stalled: {e}")))?;
        assert_eq!((report.completed, report.failed), (n, 0), "stampede wave {wave} broke");
        add_wave(&mut total, report);
        for (i, s) in reactor.into_sessions().iter().enumerate() {
            let fp = fingerprint(s.negotiated().expect("completed session negotiated"));
            assert_eq!(fp, oracle[i], "wave {wave} session {i} diverged from the oracle");
            decision_fp = fold(decision_fp, fp);
        }
    }
    let stats = tb.proxy.stats();
    assert_eq!(
        stats.cache_misses, n as u64,
        "wave one must miss exactly once per distinct environment"
    );
    assert_eq!(stats.cache_hits, n as u64, "wave two must be answered entirely from cache");

    let snap = bundle.snapshot();
    total.reconcile(&snap).expect(RECONCILE);
    Ok(Outcome {
        sessions: 2 * n,
        completed: 2 * n,
        failed: 0,
        stuck: 0,
        fault_events: 0,
        fault_fp: 0,
        decision_fp,
        extras: vec![("cache_misses", stats.cache_misses), ("cache_hits", stats.cache_hits)],
        telemetry: snap,
        journal: bundle.journal_snapshot(),
    })
}

/// The server republishes mid-traffic (v0 → v1) and then rolls back
/// (v2 = v0's bytes). Warm clients carry their protocol cache through
/// all three waves — one negotiation ever — and end each wave with
/// byte-exact content for the version that wave asked for.
fn pad_rollout_rollback(scale: &Scale, _seed: u64) -> Result<Outcome, Box<Failure>> {
    let n = scale.sessions;
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let content_id = 0u32;
    let v0_bytes = page_bytes(3, 4_000);
    let v1_bytes = page_bytes(9, 5_000);
    assert_eq!(tb.server.publish(content_id, v0_bytes.clone()), 0);

    let oracle_tb = testbed_with_pages();
    let oracle: Vec<u64> = (0..n)
        .map(|i| fingerprint(&oracle_tb.proxy.negotiate(oracle_tb.app_id, client_env(i)).unwrap()))
        .collect();
    let bundle = run_bundle();
    let fail = |msg: String| Failure::of(msg, &bundle);

    let mut clients: Vec<fractal_core::client::FractalClient> =
        (0..n).map(|i| tb.client_with_env(client_env(i))).collect();
    let mut decision_fp = FNV_OFFSET;
    let mut total = ReactorReport::default();
    // (wave, version to request, bytes that version must decode to)
    let waves: [(&str, u32, &[u8]); 3] =
        [("rollout-base", 0, &v0_bytes), ("rollout", 1, &v1_bytes), ("rollback", 2, &v0_bytes)];
    for (w, (label, want, expect_bytes)) in waves.iter().enumerate() {
        if *want > 0 {
            // Republish mid-traffic: v1 is new content, v2 the rollback
            // to v0's exact bytes.
            let bytes = if *label == "rollback" { v0_bytes.clone() } else { v1_bytes.clone() };
            assert_eq!(tb.server.publish(content_id, bytes), *want);
        }
        let cfg = ReactorConfig::new().telemetry(&bundle);
        let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
        for (i, client) in clients.drain(..).enumerate() {
            reactor.spawn(
                InpSession::new(client, tb.app_id, content_id, *want)
                    .with_label((w * n + i) as u64),
            );
        }
        let report = reactor.run().map_err(|e| fail(format!("{label} wave stalled: {e}")))?;
        assert_eq!((report.completed, report.failed), (n, 0), "{label} wave broke sessions");
        add_wave(&mut total, report);
        for (i, session) in reactor.into_sessions().into_iter().enumerate() {
            if w == 0 {
                let fp = fingerprint(session.negotiated().expect("cold session negotiated"));
                assert_eq!(fp, oracle[i], "{label} session {i} diverged from the oracle");
                decision_fp = fold(decision_fp, fp);
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
    let snap = bundle.snapshot();
    total.reconcile(&snap).expect(RECONCILE);
    let completed = total.completed;
    Ok(Outcome {
        sessions: completed,
        completed,
        failed: 0,
        stuck: 0,
        fault_events: 0,
        fault_fp: 0,
        decision_fp,
        extras: vec![("waves", 3), ("republishes", 2)],
        telemetry: snap,
        journal: bundle.journal_snapshot(),
    })
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
fn live_republish(scale: &Scale, seed: u64) -> Result<Outcome, Box<Failure>> {
    let n = scale.sessions;
    let cascade = BurstCascade::new(seed, scale.levels, 0.8);
    let bursts = cascade.counts(n);
    let peak_burst = bursts.iter().copied().max().unwrap_or(0);
    let oracle = oracle_decisions(n);

    let tb = testbed_with_pages();
    let generation_before = tb.server.generation();
    let bundle = run_bundle();
    let fail = |msg: String| Failure::of(msg, &bundle);
    let cfg = ReactorConfig::new().telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    for i in 0..n {
        let session =
            InpSession::new(tb.client_with_env(client_env(i)), tb.app_id, i as u32 % PAGES, 0);
        reactor.spawn(session);
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
        for _ in 0..burst * 4 {
            if reactor.poll().is_none() {
                break;
            }
        }
    }
    assert_eq!(published, n as u64, "cascade counts must conserve the publish budget");
    let report = reactor.run().map_err(|e| fail(format!("live_republish stalled: {e}")))?;
    assert_eq!((report.completed, report.failed), (n, 0), "republish bursts broke sessions");

    let mut decision_fp = FNV_OFFSET;
    for (i, s) in reactor.into_sessions().iter().enumerate() {
        let fp = fingerprint(s.negotiated().expect("completed session negotiated"));
        assert_eq!(fp, oracle[i], "republish bursts changed decision for session {i}");
        decision_fp = fold(decision_fp, fp);
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

    let snap = bundle.snapshot();
    report.reconcile(&snap).expect(RECONCILE);
    Ok(Outcome {
        sessions: n,
        completed: n,
        failed: 0,
        stuck: 0,
        fault_events: 0,
        fault_fp: 0,
        decision_fp,
        extras: vec![
            ("publish_bursts", bursts.len() as u64),
            ("peak_burst", peak_burst as u64),
            ("republishes", published),
            ("server_generation", generation),
        ],
        telemetry: snap,
        journal: bundle.journal_snapshot(),
    })
}

fn run_scenario(name: &str, scale: &Scale, seed: u64) -> Result<Outcome, Box<Failure>> {
    match name {
        "burst_arrivals" => burst_arrivals(scale, seed),
        "lossy_link" => lossy_link(scale, seed),
        "partition_recovery" => partition_recovery(scale, seed),
        "handoff_renegotiation" => handoff_renegotiation(scale, seed),
        "cache_stampede" => cache_stampede(scale, seed),
        "pad_rollout_rollback" => pad_rollout_rollback(scale, seed),
        "live_republish" => live_republish(scale, seed),
        other => Err(Failure::bare(format!("unknown scenario {other:?}"))),
    }
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
    let smoke = args.iter().any(|a| a == "--smoke");
    let long = args.iter().any(|a| a == "--long");
    let only = args.iter().position(|a| a == "--scenario").map(|p| {
        args.get(p + 1).cloned().unwrap_or_else(|| {
            eprintln!("--scenario needs a name; one of: {SCENARIOS:?}");
            std::process::exit(2);
        })
    });
    if let Some(name) = &only {
        if !SCENARIOS.contains(&name.as_str()) {
            eprintln!("unknown scenario {name:?}; one of: {SCENARIOS:?}");
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
    let scale = if smoke {
        SMOKE
    } else if long {
        LONG
    } else {
        FULL
    };
    let mode = if smoke {
        "smoke"
    } else if long {
        "long"
    } else {
        "full"
    };
    let env = BenchEnv::capture();
    println!(
        "scenarios ({mode}): {} session(s) per scenario, every scenario run twice under its \
         seed (host has {} cpu(s), rev {})\n",
        scale.sessions, env.host_cpus, env.git_sha
    );

    let selected: Vec<&str> = match &only {
        Some(name) => vec![SCENARIOS.iter().find(|s| *s == name).unwrap()],
        None => SCENARIOS.to_vec(),
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut sections: Vec<(&str, Json)> = Vec::new();
    let mut failures = 0usize;
    for name in selected {
        let seed = BASE_SEED + SCENARIOS.iter().position(|s| *s == name).unwrap() as u64;
        // The determinism contract, enforced in-process: the same seed
        // must yield identical decisions, fault logs, and telemetry.
        let first = run_scenario(name, &scale, seed);
        let outcome = match (first, run_scenario(name, &scale, seed)) {
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
        let transport = match name {
            "lossy_link" => "loopback+faults",
            "partition_recovery" => "loopback+link+faults",
            "handoff_renegotiation" => "loopback+link",
            _ => "loopback",
        };
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
        doc.save(path, smoke);
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
