//! Turns what a run measured into the metrics `BENCHMARK.json` lists, and
//! into the context lines a human reads next to them.

use crate::drive::{tcp_wave, Round, ShardWave, Tally};
use crate::gen::{N_ENVS, PUBLISH_IDS};
use crate::probe::{self, RunFacts};
use crate::run::{Raw, PUBLISH_HZ, PUSH_HZ};
use crate::trace::Recorder;
use crate::{os, stats, Config, Metric, RunOutput, Workload};

/// End-to-end metrics: name and unit, as `BENCHMARK.json` lists them.
/// Reported for every workload by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sessions_per_s", "1/s"),
    ("session_p50_us", "us"),
    ("session_p99_us", "us"),
    ("goodput_mb_per_s", "MB/s"),
    ("cpu_ms_per_session", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit, as `BENCHMARK.json` lists them.
/// Reported for every workload by a traced run; a row reads 0 where the
/// workload does not exercise the layer.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("crypto.sha1_ns_per_deploy", "ns"),
    ("crypto.hmac_verify_ns_per_deploy", "ns"),
    ("vm.parse_ns_per_deploy", "ns"),
    ("vm.verify_ns_per_deploy", "ns"),
    ("vm.analyze_ns_per_deploy", "ns"),
    ("pads.instantiate_ns_per_deploy", "ns"),
    ("core.client.deploy_pad_us_p50", "us"),
    ("core.client.deploy_pad_us_p99", "us"),
    ("core.client.deploys_per_session", "count"),
    ("core.client.rss_kb_per_live_session", "KB"),
    ("core.server.respond_us_per_page.direct", "us"),
    ("core.server.respond_us_per_page.gzip", "us"),
    ("core.server.respond_us_per_page.bitmap", "us"),
    ("core.server.respond_us_per_page.vary", "us"),
    ("protocols.payload_bytes_per_page.direct", "bytes"),
    ("protocols.payload_bytes_per_page.gzip", "bytes"),
    ("protocols.payload_bytes_per_page.bitmap", "bytes"),
    ("protocols.payload_bytes_per_page.vary", "bytes"),
    ("pads.decode_us_per_page.direct", "us"),
    ("pads.decode_us_per_page.gzip", "us"),
    ("pads.decode_us_per_page.bitmap", "us"),
    ("pads.decode_us_per_page.vary", "us"),
    ("vm.fuel_per_page.direct", "fuel"),
    ("vm.fuel_per_page.gzip", "fuel"),
    ("vm.fuel_per_page.bitmap", "fuel"),
    ("vm.fuel_per_page.vary", "fuel"),
    ("core.server.respond_small_us", "us"),
    ("core.inp.encode_ns_per_msg", "ns"),
    ("core.inp.decode_ns_per_msg", "ns"),
    ("core.inp.encode_ns_per_kb", "ns"),
    ("core.transport.frame_ns_per_kb", "ns"),
    ("core.transport.frame_checked_ns_per_kb", "ns"),
    ("core.transport.deframe_ns_per_kb", "ns"),
    ("core.transport.deframe_checked_ns_per_kb", "ns"),
    ("core.transport.loopback_copy_ns_per_kb", "ns"),
    ("core.transport.tcp_roundtrip_us", "us"),
    ("core.proxy.negotiate_hit_ns", "ns"),
    ("core.proxy.negotiate_miss_ns", "ns"),
    ("core.proxy.cache_hit_ratio", "ratio"),
    ("core.proxy.push_app_metas_us_p50", "us"),
    ("core.proxy.misses_per_push", "count"),
    ("core.server.publish_us_p50", "us"),
    ("core.server.publish_us_p99", "us"),
    ("core.epoch.versions_at_end", "count"),
    ("core.epoch.live_generations_at_end", "count"),
    ("gen.writer_late_us_p99", "us"),
    ("core.reactor.spawn_us_per_session", "us"),
    ("core.reactor.poll_us_p50", "us"),
    ("core.reactor.poll_us_p99", "us"),
    ("core.reactor.polls_per_session", "count"),
    ("core.reactor.frames_per_session", "count"),
    ("core.reactor.drop_us_per_session", "us"),
    ("core.reactor.residual_us_per_session", "us"),
    ("budget.coverage", "ratio"),
    ("core.shard.run_s_p50", "s"),
    ("core.shard.admission_s_p50", "s"),
    ("core.shard.pump_s_p50", "s"),
    ("core.shard.cpu_share", "ratio"),
    ("core.shard.imbalance", "ratio"),
    ("core.sys.listen_overflows_per_wave", "count"),
    ("core.sys.poller_wait_us.n512", "us"),
    ("gen.trace_overhead_share", "ratio"),
    ("gen.input_hash", "hash"),
];

fn rates(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().map(Round::sessions_per_s).collect()
}

/// The verdict and the lines every run prints, whatever its mode.
pub fn header(cfg: &Config, raw: &Raw, nofile: u64) -> RunOutput {
    let t = &raw.tally;
    let mut out = RunOutput {
        attempted: t.attempted,
        failed: t.failed,
        correct: t.failed == 0
            && raw.warmup_failed == 0
            && t.cross_check_failed.is_none()
            && t.attempted > 0,
        ..RunOutput::default()
    };
    if let Some(why) = &t.cross_check_failed {
        out.notes.push(format!("CROSS-CHECK FAILED: {why}"));
    }
    let pinned = std::env::var("MALLOC_MMAP_THRESHOLD_").map_or(
        "unpinned (glibc adjusts its mmap threshold as it goes: expect modes)".to_string(),
        |v| format!("MALLOC_MMAP_THRESHOLD_={v}"),
    );
    out.notes.push(format!(
        "{}: seed {}, {} nproc, nofile {nofile}, allocator {pinned}; traffic over {}",
        cfg.workload.name(),
        cfg.seed,
        os::nproc(),
        cfg.workload.path()
    ));
    out.notes.push(format!(
        "closed loop: waves of {} sessions, {} per round; {} warm-up + {} measured rounds \
         ({} traced) in {:.2} s; failed_share {}/{}",
        raw.shape.wave,
        raw.shape.waves_per_round,
        raw.shape.warmup_rounds,
        raw.untraced.len() + raw.traced.len(),
        raw.traced.len(),
        raw.wall_s,
        t.failed,
        t.attempted
    ));
    if cfg.workload == Workload::RepublishMixed {
        out.notes.push(format!(
            "open loop writer: publish {PUBLISH_HZ}/s over {PUBLISH_IDS} ids, push_app_metas \
             {PUSH_HZ}/s; timed from the due instant: publish_p50_us {:.1} publish_p99_us {:.1} \
             (n={}), push p50 {:.1} us (n={}); the generator ran late by p99 {:.1} us",
            raw.publish.from_due_p50_us,
            raw.publish.from_due_p99_us,
            raw.publish.count,
            raw.push.from_due_p50_us,
            raw.push.count,
            raw.publish.late_p99_us
        ));
    }
    out.notes.push(format!(
        "cpu user {:.2} s + sys {:.2} s over {:.2} s wall, of which the hypervisor stole {:.2} s \
         from the machine; rates and latencies are taken against wall minus stolen time, per round",
        raw.cpu_user_s, raw.cpu_sys_s, raw.wall_s, raw.stolen_s
    ));
    out
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(raw: &Raw, out: &mut RunOutput) {
    let t = &raw.tally;
    let per_round = |f: fn(&Round) -> f64| -> Vec<f64> { raw.untraced.iter().map(f).collect() };
    let session_rates = rates(&raw.untraced);
    let (q1, q3) = stats::quartiles(&session_rates);
    out.notes.push(format!(
        "rates and cpu are the median of {} rounds (sessions_per_s quartiles {q1:.1} / {q3:.1}); \
         latency percentiles are taken within each wave and the median of {} waves is reported \
         ({} sessions)",
        session_rates.len(),
        t.wave_p50_us.len(),
        t.latency_us.len()
    ));
    let shown: Vec<String> = session_rates.iter().map(|r| format!("{r:.0}")).collect();
    out.notes.push(format!("sessions_per_s by round: {}", shown.join(" ")));
    out.notes.push(format!(
        "against raw wall time the median round reads {:.1} sessions/s",
        stats::median(&per_round(|r| r.passed as f64 / r.wall_s))
    ));
    let values = [
        stats::median(&session_rates),
        stats::median(&t.wave_p50_us),
        stats::median(&t.wave_p99_us),
        stats::median(&per_round(|r| r.bytes as f64 / r.effective_s() / 1e6)),
        stats::median(&per_round(Round::cpu_effective_s)) * 1e3 / raw.shape.round_sessions() as f64,
        os::peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
        stats::median(&raw.setup_s),
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        out.metrics.push(Metric { name, value, unit });
    }
}

/// Every per-layer row of a traced run: the probe pass, the span roll-up of
/// the traced rounds, the writer, the shards, and the budget they add up to.
pub fn per_layer(raw: &Raw, out: &mut RunOutput) {
    let mut rows: Vec<Metric> =
        PER_LAYER.iter().map(|&(name, unit)| Metric { name, value: 0.0, unit }).collect();
    let mut set = |name: &str, value: f64| {
        rows.iter_mut().find(|m| m.name == name).expect("a listed per-layer metric").value = value;
    };
    let t = &raw.tally;
    let attempted = t.attempted.max(1) as f64;
    let traced_sessions = (raw.traced.len() * raw.shape.round_sessions()).max(1) as f64;
    let negotiations = (raw.cache_hits + raw.cache_misses) as f64;
    let facts = RunFacts {
        deploys_per_session: t.deploys as f64 / attempted,
        cache_hit_ratio: if negotiations > 0.0 {
            raw.cache_hits as f64 / negotiations
        } else {
            0.0
        },
        negotiations_per_session: negotiations / attempted,
    };
    // Memory first: the probe pass deploys PADs of its own.
    let peak_kb = os::peak_rss_kb().unwrap_or(0);
    let probes = probe::run(&raw.bed, &facts, raw.shape.probe_ms);
    for metric in &probes.metrics {
        set(metric.name, metric.value);
    }
    if let Some(what) = &probes.mismatch {
        out.notes.push(format!("PROBE MISMATCH: {what}"));
        out.correct = false;
    }

    let spans = raw.rec.summary();
    let span = |name: &str| spans.iter().find(|s| s.name == name);
    let span_per_session = |name: &str| span(name).map_or(0.0, |s| s.total_us / traced_sessions);
    let frames_per_session = t.frames as f64 / attempted;
    // What the rows must add up to: the traced waves' own wall time, on the
    // same clock and in the same minutes as the spans and the probes.
    let wall_per_session_us = span_per_session("bench.wave");

    // The budget: spans around the benchmark's own calls, and between them
    // the probe rows for what happens inside `Reactor::poll`.
    let mut budget: Vec<(&'static str, f64)> = vec![
        ("core.client.new", span_per_session("core.client.new")),
        ("core.reactor.spawn", span_per_session("core.reactor.spawn")),
    ];
    budget.extend(probes.per_session_us.iter().copied());
    budget.push(("bench.verify", span_per_session("bench.verify")));
    budget.push(("core.reactor.drop", span_per_session("core.reactor.drop")));
    let covered: f64 = budget.iter().map(|r| r.1).sum();

    set("core.client.deploys_per_session", facts.deploys_per_session);
    set(
        "core.client.rss_kb_per_live_session",
        peak_kb.saturating_sub(raw.rss_before_kb) as f64 / t.peak_in_flight.max(1) as f64,
    );
    set("core.proxy.cache_hit_ratio", facts.cache_hit_ratio);
    set("core.reactor.spawn_us_per_session", span_per_session("core.reactor.spawn"));
    set("core.reactor.poll_us_p50", span("core.reactor.poll").map_or(0.0, |s| s.p50_us));
    set("core.reactor.poll_us_p99", span("core.reactor.poll").map_or(0.0, |s| s.p99_us));
    set("core.reactor.polls_per_session", t.polls as f64 / attempted);
    set("core.reactor.frames_per_session", frames_per_session);
    set("core.reactor.drop_us_per_session", span_per_session("core.reactor.drop"));
    set("core.reactor.residual_us_per_session", wall_per_session_us - covered);
    set("budget.coverage", covered / wall_per_session_us);
    set(
        "gen.trace_overhead_share",
        1.0 - stats::median(&rates(&raw.traced)) / stats::median(&rates(&raw.untraced)),
    );
    // 48 bits: a JSON number every reader holds exactly.
    set("gen.input_hash", (raw.bed.inputs.hash & ((1 << 48) - 1)) as f64);
    set(
        "core.epoch.versions_at_end",
        (0..PUBLISH_IDS as u32)
            .filter_map(|id| raw.bed.tb.server.latest_version(id))
            .map(|v| f64::from(v) + 1.0)
            .sum(),
    );
    set("core.epoch.live_generations_at_end", raw.bed.tb.server.epoch_stats().live as f64);

    if raw.push.count > 0 {
        set("core.proxy.push_app_metas_us_p50", raw.push.service_p50_us);
        set("core.proxy.misses_per_push", raw.cache_misses as f64 / raw.push.count as f64);
        set("core.server.publish_us_p50", raw.publish.service_p50_us);
        set("core.server.publish_us_p99", raw.publish.service_p99_us);
        set("gen.writer_late_us_p99", raw.publish.late_p99_us);
    }

    if !t.shard_waves.is_empty() {
        let waves = &t.shard_waves;
        let col =
            |f: fn(&ShardWave) -> f64| stats::median(&waves.iter().map(f).collect::<Vec<f64>>());
        set("core.shard.run_s_p50", col(|w| w.run_s));
        set("core.shard.admission_s_p50", col(|w| w.admission_s));
        set("core.shard.pump_s_p50", col(|w| w.run_s - w.admission_s));
        set("core.shard.cpu_share", (raw.cpu_user_s + raw.cpu_sys_s) / raw.wall_s);
        set("core.shard.imbalance", col(|w| w.imbalance));
        set(
            "core.sys.listen_overflows_per_wave",
            raw.listen_overflows.map_or(0.0, |n| n as f64 / waves.len() as f64),
        );
    }
    out.metrics = rows;
    if raw.bed.workload == Workload::TcpWave {
        burst(raw, out);
    }

    out.notes.push(format!(
        "probe budget, µs per session of {wall_per_session_us:.1} wall in the traced waves (spans \
         around the benchmark's calls; between spawn and verify, probes of what `Reactor::poll` runs):"
    ));
    for (name, us) in &budget {
        out.notes
            .push(format!("  {name:<34} {us:>10.2}  {:>5.1} %", 100.0 * us / wall_per_session_us));
    }
    out.notes.push(format!(
        "  {:<34} {:>10.2}  {:>5.1} %  (reactor bookkeeping, queues, allocator; on tcp_wave, waiting)",
        "residual",
        wall_per_session_us - covered,
        100.0 * (1.0 - covered / wall_per_session_us)
    ));
    if (probes.transcript_frames_per_session - frames_per_session).abs() > 1e-9 {
        out.notes.push(format!(
            "note: the replayed transcript has {} frames per session, the reactor delivered {}",
            probes.transcript_frames_per_session, frames_per_session
        ));
    }
    out.notes.push("spans (traced rounds): name count total_us self_us p50_us p99_us".to_string());
    for s in &spans {
        out.notes.push(format!(
            "  {:<22} {:>8} {:>14.1} {:>14.1} {:>10.2} {:>10.2}",
            s.name, s.count, s.total_us, s.self_us, s.p50_us, s.p99_us
        ));
    }
}

/// Sessions in the traced `tcp_wave` run's one burst.
const BURST: usize = 512;

/// One wave of [`BURST`] sessions, four times the listener's backlog: the
/// driver connects faster than the acceptor accepts, the kernel drops SYNs at
/// the full accept queue, and they come back after 1 s and 3 s. Whether that
/// happens in a given wave is a race, so the burst is shown for the reader
/// and kept out of the metrics.
fn burst(raw: &Raw, out: &mut RunOutput) {
    let order: Vec<usize> = (0..BURST).map(|i| i % N_ENVS).collect();
    let mut tally = Tally::default();
    let before = os::listen_overflows();
    tcp_wave(&raw.bed, &order, &mut Recorder::new(), &mut tally);
    let overflows = os::listen_overflows().zip(before).map_or(0, |(b, a)| b - a);
    if tally.failed > 0 {
        out.correct = false;
    }
    if let Some(wave) = tally.shard_waves.first() {
        out.notes.push(format!(
            "one burst of {BURST} sessions (4x the listen backlog): run {:.3} s, of which admission \
             {:.3} s; {overflows} listen overflows; {} of {} sessions failed",
            wave.run_s, wave.admission_s, tally.failed, tally.attempted
        ));
    }
}
