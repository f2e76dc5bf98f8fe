//! One run of one workload: set-up, warm-up, measured rounds of equal work,
//! and (for `republish_mixed`) the open-loop writer beside them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fractal_core::meta::AppMeta;
use fractal_core::proxy::AdaptationProxy;
use fractal_core::server::ApplicationServer;
use fractal_core::sys::raise_nofile_limit;

use crate::bed::{unchanged_app_meta, Bed};
use crate::drive::{run_round, Round, Tally};
use crate::gen::PUBLISH_IDS;
use crate::trace::Recorder;
use crate::{os, report, stats, Config, RunOutput, Shape, Workload};

/// The writer's publish rate, 1/s.
pub const PUBLISH_HZ: u64 = 200;
/// The writer's `AppMeta` push rate, 1/s.
pub const PUSH_HZ: u64 = 10;

/// One write as the open-loop generator saw it, ns since the origin.
#[derive(Clone, Copy)]
struct Write {
    due: u64,
    start: u64,
    end: u64,
}

/// Everything the writer did.
#[derive(Default)]
struct WriterLog {
    publishes: Vec<Write>,
    pushes: Vec<Write>,
}

/// Sleeps until shortly before `due`, then spins: a plain sleep overshoots
/// by the timer slack, which would show up as write latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The open-loop writer of `republish_mixed`: `publish` at [`PUBLISH_HZ`]
/// rotating over the content ids, `push_app_metas` of the unchanged
/// `AppMeta` at [`PUSH_HZ`], each on its own schedule regardless of how
/// long the last write took.
fn writer(
    server: &ApplicationServer,
    proxy: &AdaptationProxy,
    meta: &[AppMeta],
    bodies: &[Vec<u8>],
    origin: Instant,
    stop: &AtomicBool,
) -> WriterLog {
    let publish_period = 1_000_000_000 / PUBLISH_HZ;
    let push_period = 1_000_000_000 / PUSH_HZ;
    // Pushes fall halfway between two publishes instead of on top of one.
    let mut next = [publish_period, push_period + publish_period / 2];
    let mut log = WriterLog::default();
    let mut published = 0usize;
    let since = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    while !stop.load(Ordering::Relaxed) {
        let kind = if next[0] <= next[1] { 0 } else { 1 };
        let due = next[kind];
        let body = bodies[published % PUBLISH_IDS].clone();
        wait_until(origin + Duration::from_nanos(due));
        let start = Instant::now();
        if kind == 0 {
            server.publish((published % PUBLISH_IDS) as u32, body);
            published += 1;
        } else {
            proxy.push_app_metas(meta);
        }
        let write = Write { due, start: since(start), end: since(Instant::now()) };
        if kind == 0 {
            log.publishes.push(write);
            next[0] += publish_period;
        } else {
            log.pushes.push(write);
            next[1] += push_period;
        }
    }
    log
}

/// Percentiles, µs, of one kind of write whose due instant fell inside the
/// measured window.
#[derive(Clone, Copy, Default, Debug)]
pub struct WriteStats {
    /// Writes in the window.
    pub count: usize,
    /// The call itself, start to return: median.
    pub service_p50_us: f64,
    /// The call itself: 99th percentile.
    pub service_p99_us: f64,
    /// From the instant the write was due until it returned — what an
    /// open-loop client sees, queueing behind a slow write included: median.
    pub from_due_p50_us: f64,
    /// From the due instant: 99th percentile.
    pub from_due_p99_us: f64,
    /// How late the generator started the write: 99th percentile.
    pub late_p99_us: f64,
}

impl WriteStats {
    fn of(writes: &[Write], window: (u64, u64)) -> WriteStats {
        let inside: Vec<&Write> =
            writes.iter().filter(|w| w.due >= window.0 && w.due < window.1).collect();
        let sorted = |f: fn(&Write) -> u64| {
            let mut v: Vec<f64> = inside.iter().map(|w| f(w) as f64 / 1e3).collect();
            stats::sort(&mut v);
            v
        };
        let service = sorted(|w| w.end - w.start);
        let from_due = sorted(|w| w.end - w.due);
        let late = sorted(|w| w.start - w.due);
        WriteStats {
            count: inside.len(),
            service_p50_us: stats::percentile(&service, 50.0),
            service_p99_us: stats::percentile(&service, 99.0),
            from_due_p50_us: stats::percentile(&from_due, 50.0),
            from_due_p99_us: stats::percentile(&from_due, 99.0),
            late_p99_us: stats::percentile(&late, 99.0),
        }
    }
}

/// Everything one run measured, before `report` turns it into metrics.
pub struct Raw {
    /// The sizes the run used.
    pub shape: Shape,
    /// The bed the rounds ran on (the last of the set-ups).
    pub bed: Bed,
    /// Wall time of every set-up, s.
    pub setup_s: Vec<f64>,
    /// Resident memory after set-up, before the first wave, KB.
    pub rss_before_kb: u64,
    /// Measured rounds that ran with the recorder off.
    pub untraced: Vec<Round>,
    /// Measured rounds that ran with the recorder on (`--trace 1` only).
    pub traced: Vec<Round>,
    /// Totals over all measured rounds.
    pub tally: Tally,
    /// Sessions that failed during warm-up: not in the metrics, but the
    /// run is not correct if there were any.
    pub warmup_failed: u64,
    /// Wall time of the measured rounds, s.
    pub wall_s: f64,
    /// User CPU of the process over the measured rounds, s.
    pub cpu_user_s: f64,
    /// System CPU of the process over the measured rounds, s.
    pub cpu_sys_s: f64,
    /// Time the hypervisor stole from the machine over the measured rounds, s.
    pub stolen_s: f64,
    /// Adaptation-cache hits during the measured rounds.
    pub cache_hits: u64,
    /// Adaptation-cache misses during the measured rounds.
    pub cache_misses: u64,
    /// `TcpExt ListenOverflows` ticks during the measured rounds.
    pub listen_overflows: Option<u64>,
    /// `republish_mixed` only: the writer's publishes.
    pub publish: WriteStats,
    /// `republish_mixed` only: the writer's `AppMeta` pushes.
    pub push: WriteStats,
    /// The spans of the traced rounds.
    pub rec: Recorder,
}

/// Sets up, warms up, and runs rounds of equal work until `cfg.seconds`
/// have passed (half of it in a traced run, which keeps the rest for the
/// probe pass). With `cfg.trace`, every other round is recorded.
///
/// # Panics
/// If set-up itself fails (see [`Bed::build`]).
pub fn measure(cfg: &Config) -> Raw {
    let shape = Shape::of(cfg.workload, cfg.quick);
    // Set up `shape.setups` times before the rounds and once more after every
    // measured round, so the set-up samples meet the same stretch of machine
    // noise as every other metric; `setup_s` is the median of them all.
    let set_up = || {
        let t = Instant::now();
        let bed = Bed::build(cfg.workload, cfg.seed, &shape);
        (t.elapsed().as_secs_f64(), bed)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bed = None;
    for _ in 0..shape.setups {
        drop(bed.take());
        let (took, built) = set_up();
        setup_s.push(took);
        bed = Some(built);
    }
    let bed = bed.expect("at least one set-up");
    let rss_before_kb = os::rss_kb().unwrap_or(0);

    let mut rec = Recorder::new();
    let origin = Instant::now();
    let since_origin = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let stop = AtomicBool::new(false);
    let seconds = if cfg.trace { cfg.seconds * 0.5 } else { cfg.seconds };
    // Traced runs alternate untraced and traced rounds: two of each at least.
    let min_rounds = if cfg.trace { 4 } else { shape.min_rounds };

    let mut warmup = Tally::default();
    let mut tally = Tally::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (before, after, log) = std::thread::scope(|scope| {
        let writer = (cfg.workload == Workload::RepublishMixed).then(|| {
            let (tb, bodies) = (&bed.tb, &bed.inputs.publish_bodies);
            let meta = [unchanged_app_meta(tb)];
            let stop = &stop;
            scope.spawn(move || writer(&tb.server, &tb.proxy, &meta, bodies, origin, stop))
        });
        for _ in 0..shape.warmup_rounds {
            run_round(&bed, &shape, &mut rec, &mut warmup);
        }
        let before = Reading::take(&bed);
        let mut rounds = 0;
        while rounds < min_rounds || before.at.elapsed().as_secs_f64() < seconds {
            rec.enabled = cfg.trace && rounds % 2 == 1;
            let round = run_round(&bed, &shape, &mut rec, &mut tally);
            if rec.enabled { &mut traced } else { &mut untraced }.push(round);
            rounds += 1;
            if !cfg.quick {
                setup_s.push(set_up().0);
            }
        }
        rec.enabled = false;
        let after = Reading::take(&bed);
        stop.store(true, Ordering::Relaxed);
        let log = writer.map(|w| w.join().expect("writer thread panicked")).unwrap_or_default();
        (before, after, log)
    });

    let window = (since_origin(before.at), since_origin(after.at));
    Raw {
        shape,
        setup_s,
        rss_before_kb,
        untraced,
        traced,
        tally,
        warmup_failed: warmup.failed,
        wall_s: (after.at - before.at).as_secs_f64(),
        cpu_user_s: after.cpu.0 - before.cpu.0,
        cpu_sys_s: after.cpu.1 - before.cpu.1,
        stolen_s: after.stolen_s - before.stolen_s,
        cache_hits: after.cache.0 - before.cache.0,
        cache_misses: after.cache.1 - before.cache.1,
        listen_overflows: after.listen_overflows.zip(before.listen_overflows).map(|(b, a)| b - a),
        publish: WriteStats::of(&log.publishes, window),
        push: WriteStats::of(&log.pushes, window),
        rec,
        bed,
    }
}

/// The counters read at both ends of the measured rounds.
struct Reading {
    at: Instant,
    /// Process CPU so far: (user, system), s.
    cpu: (f64, f64),
    /// Adaptation cache so far: (hits, misses).
    cache: (u64, u64),
    listen_overflows: Option<u64>,
    stolen_s: f64,
}

impl Reading {
    fn take(bed: &Bed) -> Reading {
        let proxy = bed.tb.proxy.stats();
        Reading {
            at: Instant::now(),
            cpu: os::cpu_seconds().unwrap_or_default(),
            cache: (proxy.cache_hits, proxy.cache_misses),
            listen_overflows: os::listen_overflows(),
            stolen_s: os::stolen_seconds(),
        }
    }
}

/// Runs `cfg` and reports: end-to-end metrics untraced, per-layer metrics
/// traced.
///
/// # Panics
/// If set-up itself fails (see [`Bed::build`]).
pub fn run(cfg: &Config) -> RunOutput {
    // tcp_wave holds two sockets per session; the probe pass holds 512.
    let nofile = raise_nofile_limit(4096).unwrap_or(0);
    let raw = measure(cfg);
    let mut out = report::header(cfg, &raw, nofile);
    if cfg.trace {
        report::per_layer(&raw, &mut out);
        if let Some(path) = &cfg.spans_out {
            let written =
                std::fs::File::create(path).map(std::io::BufWriter::new).and_then(|mut f| {
                    raw.rec.write_tsv(&mut f).and_then(|()| std::io::Write::flush(&mut f))
                });
            out.notes.push(match written {
                Ok(()) => format!("{} spans written to {}", raw.rec.spans().len(), path.display()),
                Err(e) => format!("could not write spans to {}: {e}", path.display()),
            });
        }
    } else {
        report::end_to_end(&raw, &mut out);
    }
    for metric in &mut out.metrics {
        if !metric.value.is_finite() {
            out.notes.push(format!("{} was not finite", metric.name));
            metric.value = 0.0;
            out.correct = false;
        }
    }
    out
}
