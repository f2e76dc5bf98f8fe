//! Closed-loop wave drivers: hand a wave of sessions to the program, drive
//! it to completion, check every session, repeat. One span is recorded
//! around every call into a layer (a no-op while the recorder is off).

use std::time::Instant;

use fractal_core::reactor::{InpSession, Reactor, ReactorConfig, SessionPhase};
use fractal_core::shard::ShardedReactor;

use crate::bed::{fingerprint, Bed, COLD_ID, WARM_CLIENTS, WARM_ID_BASE};
use crate::trace::{Recorder, NONE};
use crate::{os, stats, Shape, Workload};

/// Shards `tcp_wave` runs: one per processor of the reference box, so the
/// process never has more busy threads than processors.
pub const SHARDS: usize = 2;

/// What the shards reported about one `tcp_wave` wave.
#[derive(Clone, Debug)]
pub struct ShardWave {
    /// Wall time of `ShardedReactor::run`, s.
    pub run_s: f64,
    /// Journal time of the last `phase:Init` event — when the last session
    /// was admitted to a shard — s since `run()` began.
    pub admission_s: f64,
    /// Most sessions any shard completed over fewest.
    pub imbalance: f64,
}

/// Running totals over a set of rounds.
#[derive(Default)]
pub struct Tally {
    /// Sessions handed off.
    pub attempted: u64,
    /// Sessions that failed, stalled, were refused, or decoded wrongly.
    pub failed: u64,
    /// Decoded content bytes delivered by the sessions that passed.
    pub bytes: u64,
    /// Hand-off → terminal, µs, of every session that passed.
    pub latency_us: Vec<f64>,
    /// Per wave: the median of its sessions' hand-off → terminal times, µs,
    /// without the round's share of stolen time (see [`Round::effective_s`]).
    pub wave_p50_us: Vec<f64>,
    /// Per wave: the 99th percentile of the same (over a wave of six, the
    /// slowest session), µs.
    pub wave_p99_us: Vec<f64>,
    /// `Reactor::poll` calls that pumped a session.
    pub polls: u64,
    /// Frames delivered to sessions (`ReactorReport::polls`).
    pub frames: u64,
    /// PADs the clients deployed (`ClientStats::pads_deployed`).
    pub deploys: u64,
    /// Most sessions live at once in any wave.
    pub peak_in_flight: usize,
    /// A cross-check other than a session's own failed (journal dropped
    /// events, a terminal time after the wave ended, a shard run error).
    pub cross_check_failed: Option<String>,
    /// `tcp_wave` only: one entry per wave.
    pub shard_waves: Vec<ShardWave>,
}

/// One round as the rate metrics see it.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Wall time of the round, s.
    pub wall_s: f64,
    /// Sessions that passed.
    pub passed: u64,
    /// Decoded content bytes they delivered.
    pub bytes: u64,
    /// Process CPU (user + system, every thread) the round took, s.
    pub cpu_s: f64,
    /// Time the hypervisor stole from the machine during the round, s.
    pub stolen_s: f64,
}

impl Round {
    /// Processors the round kept busy: its CPU over its wall time, at least
    /// one.
    fn busy_cpus(&self) -> f64 {
        (self.cpu_s / self.wall_s).clamp(1.0, os::nproc() as f64)
    }

    /// The round's wall time without what the hypervisor stole from the
    /// processors it ran on: the time the machine really gave the program.
    /// Rates and latencies are taken against this, because on the shared
    /// reference box steal was up to half of busy time and doubled the wall
    /// time of identical rounds. (`/proc/stat` sums steal over all
    /// processors; a round that kept two busy lost half of it in wall time.)
    pub fn effective_s(&self) -> f64 {
        (self.wall_s - self.stolen_s / self.busy_cpus()).max(0.1 * self.wall_s)
    }

    /// Verified sessions per effective second.
    pub fn sessions_per_s(&self) -> f64 {
        self.passed as f64 / self.effective_s()
    }

    /// The round's process CPU, s. The guest charges part of the stolen
    /// time to whoever was running, so this is capped at what the machine
    /// gave the processors the round used.
    pub fn cpu_effective_s(&self) -> f64 {
        self.cpu_s.min(self.effective_s() * self.busy_cpus().ceil())
    }
}

/// Runs one round — `shape.waves_per_round` waves over the round's fixed
/// session order — and returns its wall time and yield.
pub fn run_round(bed: &Bed, shape: &Shape, rec: &mut Recorder, tally: &mut Tally) -> Round {
    let (passed0, bytes0) = (tally.attempted - tally.failed, tally.bytes);
    let first_wave = tally.wave_p50_us.len();
    let cpu0 = os::cpu_total_seconds();
    let stolen0 = os::stolen_seconds();
    let start = Instant::now();
    for w in 0..shape.waves_per_round {
        let order = &bed.inputs.order[w * shape.wave..(w + 1) * shape.wave];
        let first = tally.latency_us.len();
        match bed.workload {
            Workload::ColdLoopback | Workload::RepublishMixed => cold_wave(bed, order, rec, tally),
            Workload::WarmFetch => warm_wave(bed, order, rec, tally),
            Workload::TcpWave => tcp_wave(bed, order, rec, tally),
        }
        let mut latencies = tally.latency_us[first..].to_vec();
        stats::sort(&mut latencies);
        tally.wave_p50_us.push(stats::percentile(&latencies, 50.0));
        tally.wave_p99_us.push(stats::percentile(&latencies, 99.0));
    }
    let round = Round {
        wall_s: start.elapsed().as_secs_f64(),
        passed: tally.attempted - tally.failed - passed0,
        bytes: tally.bytes - bytes0,
        cpu_s: os::cpu_total_seconds() - cpu0,
        stolen_s: os::stolen_seconds() - stolen0,
    };
    // Steal is only known per round (10 ms ticks): spread it evenly over
    // the round's waves.
    let kept = round.effective_s() / round.wall_s;
    for us in tally.wave_p50_us[first_wave..].iter_mut().chain(&mut tally.wave_p99_us[first_wave..])
    {
        *us *= kept;
    }
    round
}

/// Polls `reactor` until no session has actionable work; returns, per
/// slot, when the benchmark first saw the session terminal (µs since
/// `t0`). Over in-memory rings nothing is ever in flight between polls,
/// so a live session left behind is a stalled one.
fn pump(
    reactor: &mut Reactor<'_>,
    n: usize,
    t0: Instant,
    wave_span: u32,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Vec<Option<f64>> {
    let mut done_at = vec![None; n];
    loop {
        let span = rec.begin("core.reactor.poll", wave_span, NONE);
        let polled = reactor.poll();
        rec.end(span);
        let Some(id) = polled else { break };
        rec.set_session(span, id as u32);
        tally.polls += 1;
        if done_at[id].is_none() && reactor.session(id).phase().is_terminal() {
            done_at[id] = Some(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    done_at
}

/// Checks one finished session against the oracle and the server, and
/// books it. `latency_us` is `None` when the session never turned
/// terminal.
fn book(
    tally: &mut Tally,
    session: &InpSession,
    want_fingerprint: u64,
    content_id: u32,
    want_version: u32,
    want_bytes: Option<&[u8]>,
    latency_us: Option<f64>,
) {
    tally.attempted += 1;
    let decided = session.negotiated().map(fingerprint) == Some(want_fingerprint);
    let decoded = match (session.client().cached_content(content_id), want_bytes) {
        (Some(got), Some(want)) => got.version == want_version && got.bytes.as_ref() == want,
        _ => false,
    };
    match latency_us {
        Some(us) if session.phase() == SessionPhase::Done && decided && decoded => {
            tally.latency_us.push(us);
            tally.bytes += want_bytes.map_or(0, |b| b.len() as u64);
        }
        _ => tally.failed += 1,
    }
}

/// A wave of fresh clients, each running the full Figure-4 exchange for
/// version 0 of the cold page on one reactor over in-memory rings.
fn cold_wave(bed: &Bed, envs: &[usize], rec: &mut Recorder, tally: &mut Tally) {
    let wave_span = rec.begin("bench.wave", NONE, NONE);
    let t0 = Instant::now();
    let want = bed.tb.server.content(COLD_ID, 0);
    let mut reactor = bed.tb.reactor_with(bed.reactor_config());
    for (i, &env) in envs.iter().enumerate() {
        let span = rec.begin("core.client.new", wave_span, i as u32);
        let client = (bed.client_factory)(&bed.tb, env);
        let session = InpSession::new(client, bed.tb.app_id, COLD_ID, 0);
        rec.end(span);
        let span = rec.begin("core.reactor.spawn", wave_span, i as u32);
        reactor.spawn(session);
        rec.end(span);
    }
    let done_at = pump(&mut reactor, envs.len(), t0, wave_span, rec, tally);
    let report = reactor.report();
    tally.frames += report.polls;
    tally.peak_in_flight = tally.peak_in_flight.max(report.peak_in_flight);

    let span = rec.begin("bench.verify", wave_span, NONE);
    let sessions = reactor.into_sessions();
    for ((session, &env), at) in sessions.iter().zip(envs).zip(done_at) {
        tally.deploys += session.client().stats().pads_deployed;
        book(tally, session, bed.oracle[env].fingerprint, COLD_ID, 0, want.as_deref(), at);
    }
    rec.end(span);
    // Dropping the wave frees every client's VM memories.
    let span = rec.begin("core.reactor.drop", wave_span, NONE);
    drop(sessions);
    rec.end(span);
    rec.end(wave_span);
}

/// A wave of the six warm clients: protocol-cache hit, PAD deployed, each
/// holding version 0 of a page and fetching version 1 over checksummed
/// frames.
fn warm_wave(bed: &Bed, pages: &[usize], rec: &mut Recorder, tally: &mut Tally) {
    let wave_span = rec.begin("bench.wave", NONE, NONE);
    let t0 = Instant::now();
    let clients = bed.warm_clients.take();
    assert_eq!(clients.len(), WARM_CLIENTS, "the warm clients come back after every wave");
    let mut reactor = bed.tb.reactor_with(bed.reactor_config());
    let mut deployed_before = 0;
    for (c, (mut client, &page)) in clients.into_iter().zip(pages).enumerate() {
        let id = WARM_ID_BASE + page as u32;
        deployed_before += client.stats().pads_deployed;
        client.store_content(id, 0, bed.warm_content[page].v0.clone());
        let session = InpSession::new(client, bed.tb.app_id, id, 1);
        let span = rec.begin("core.reactor.spawn", wave_span, c as u32);
        reactor.spawn(session);
        rec.end(span);
    }
    let done_at = pump(&mut reactor, pages.len(), t0, wave_span, rec, tally);
    let report = reactor.report();
    tally.frames += report.polls;
    tally.peak_in_flight = tally.peak_in_flight.max(report.peak_in_flight);

    let span = rec.begin("bench.verify", wave_span, NONE);
    for (c, ((session, &page), at)) in
        reactor.into_sessions().into_iter().zip(pages).zip(done_at).enumerate()
    {
        let id = WARM_ID_BASE + page as u32;
        let want = Some(&bed.warm_content[page].v1[..]);
        book(tally, &session, bed.oracle[c].fingerprint, id, 1, want, at);
        tally.deploys += session.client().stats().pads_deployed;
        bed.warm_clients.borrow_mut().push(session.into_client());
    }
    // `pads_deployed` counts over a client's life and these clients live
    // across waves: only this wave's deploys (none, if they stay warm) count.
    tally.deploys -= deployed_before;
    rec.end(span);
    rec.end(wave_span);
}

/// A wave of cold sessions through `ShardedReactor` over live loopback
/// TCP. Session times come from the shards' journals, whose clocks start
/// when `run()` does. (Public for the traced run's one burst of 512.)
pub fn tcp_wave(bed: &Bed, envs: &[usize], rec: &mut Recorder, tally: &mut Tally) {
    let wave_span = rec.begin("bench.wave", NONE, NONE);
    let want = bed.tb.server.content(COLD_ID, 0);
    let sessions: Vec<InpSession> = envs
        .iter()
        .map(|&env| InpSession::new((bed.client_factory)(&bed.tb, env), bed.tb.app_id, COLD_ID, 0))
        .collect();
    // Six phase events per session; sized so no shard's ring wraps even
    // if the deal were maximally uneven.
    let config = ReactorConfig::new().frame_checksums().journal_capacity(8 * envs.len());
    let sharded = ShardedReactor::with_config(
        &bed.tb.proxy,
        &bed.tb.server,
        &bed.tb.pad_repo,
        SHARDS,
        config,
    );

    let span = rec.begin("core.shard.run", wave_span, NONE);
    let t0 = Instant::now();
    let outcome = sharded.run(sessions);
    let run_s = t0.elapsed().as_secs_f64();
    rec.end(span);

    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            // The sessions went down with the run: all of them failed.
            tally.attempted += envs.len() as u64;
            tally.failed += envs.len() as u64;
            tally.cross_check_failed.get_or_insert(format!("sharded run failed: {e}"));
            rec.end(wave_span);
            return;
        }
    };

    let span = rec.begin("bench.verify", wave_span, NONE);
    let mut done_at: Vec<Option<f64>> = vec![None; envs.len()];
    let mut admission_ns = 0u64;
    let (mut most, mut fewest) = (0usize, usize::MAX);
    for shard in &outcome.shards {
        if shard.journal.dropped > 0 {
            tally
                .cross_check_failed
                .get_or_insert(format!("shard {} journal dropped events", shard.shard));
        }
        most = most.max(shard.report.completed);
        fewest = fewest.min(shard.report.completed);
        tally.frames += shard.report.polls;
        for event in &shard.journal.events {
            match event.kind.as_str() {
                "phase:Init" => admission_ns = admission_ns.max(event.t_ns),
                "phase:Done" | "phase:Failed" => {
                    if let Some(slot) = done_at.get_mut(event.session as usize) {
                        *slot = Some(event.t_ns as f64 / 1e3);
                    }
                }
                _ => {}
            }
        }
    }
    tally.peak_in_flight = tally.peak_in_flight.max(outcome.aggregate_report().peak_in_flight);
    tally.shard_waves.push(ShardWave {
        run_s,
        admission_s: admission_ns as f64 / 1e9,
        imbalance: most as f64 / fewest.max(1) as f64,
    });
    if done_at.iter().flatten().any(|&us| us > run_s * 1e6) {
        tally
            .cross_check_failed
            .get_or_insert("a journal terminal time lies after the wave ended".to_string());
    }
    let sessions = outcome.into_sessions();
    for ((session, &env), at) in sessions.iter().zip(envs).zip(done_at) {
        tally.deploys += session.client().stats().pads_deployed;
        book(tally, session, bed.oracle[env].fingerprint, COLD_ID, 0, want.as_deref(), at);
    }
    rec.end(span);
    let span = rec.begin("core.reactor.drop", wave_span, NONE);
    drop(sessions);
    rec.end(span);
    rec.end(wave_span);
}
