//! Figure 9(a): average negotiation time vs. number of clients.
//!
//! Up to 300 clients negotiate with one adaptation proxy within a fixed
//! arrival window. Each negotiation costs four INP legs on the client's
//! link plus proxy service time; concurrent negotiations queue at the
//! proxy's worker pool. The paper's observation — negotiation time stays
//! "in a relatively stable range" with fluctuations — follows from (1) the
//! path-search being cheap and (2) the adaptation cache absorbing repeat
//! environments.

use std::collections::HashSet;

use fractal_core::inp::InpMessage;
use fractal_core::meta::ClientEnv;
use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_net::jitter::Jitter;
use fractal_net::queue::{FifoQueue, Job};
use fractal_net::time::{SimDuration, SimTime};

use crate::parallel;
use crate::report::{ms, render_table};

/// Negotiation workers at the proxy.
const PROXY_WORKERS: usize = 4;
/// Arrival window over which the batch of clients starts.
const ARRIVAL_WINDOW: SimDuration = SimDuration::secs(1);

/// One point of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Number of clients.
    pub clients: usize,
    /// Mean negotiation time (INIT_REQ → PAD_META_REP).
    pub mean_negotiation: SimDuration,
    /// Adaptation-cache hit count at the proxy.
    pub cache_hits: u64,
}

/// Produces an environment for client `i`: one of the three classes with a
/// small amount of device diversity (memory size), so the adaptation cache
/// sees repeats but not a single key.
pub fn client_env(i: usize) -> ClientEnv {
    let class = ClientClass::ALL[i % 3];
    let mut env = class.env();
    env.dev.memory_mb = match (i / 3) % 4 {
        0 => env.dev.memory_mb,
        1 => env.dev.memory_mb / 2,
        2 => env.dev.memory_mb * 2,
        _ => env.dev.memory_mb + 128,
    };
    env
}

/// Runs the experiment for one client count on one thread.
pub fn run_point(n_clients: usize, cache_enabled: bool, seed: u64) -> Point {
    run_point_threads(n_clients, cache_enabled, seed, 1)
}

/// Runs one point with the per-client stage fanned out over `n_threads`
/// workers. The result is byte-identical to [`run_point`] at any thread
/// count: the jitter stream is pre-drawn serially, cache warmth is derived
/// from the deterministic index order (not from racy live queries), and
/// the sharded proxy counts exactly one miss per distinct environment
/// regardless of interleaving.
pub fn run_point_threads(
    n_clients: usize,
    cache_enabled: bool,
    seed: u64,
    n_threads: usize,
) -> Point {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let proxy = if cache_enabled {
        tb.proxy
    } else {
        // Rebuild without cache.
        let tb2 = Testbed::case_study(AdaptiveContentMode::Reactive);
        tb2.proxy.with_cache_disabled()
    };
    let app_id = tb.app_id;

    // Pre-draw the jitter stream in serial-driver order: one leg factor,
    // then one service factor, per client.
    let mut jitter = Jitter::new(seed, 0.15);
    let factors: Vec<(f64, f64)> =
        (0..n_clients).map(|_| (jitter.factor(), jitter.factor())).collect();

    // What the serial driver observes right before each negotiation: the
    // environment is warm iff a smaller index already presented it.
    let mut seen: HashSet<ClientEnv> = HashSet::new();
    let warm: Vec<bool> =
        (0..n_clients).map(|i| cache_enabled && !seen.insert(client_env(i))).collect();

    // Per-client stage: negotiate against the shared proxy and price the
    // wire legs (request, ack+meta-req, meta-rep, pad-meta-rep).
    let proxy_ref = &proxy;
    let per_client: Vec<(SimDuration, Job)> = parallel::run_indexed(n_threads, n_clients, |i| {
        let env = client_env(i);
        let class = ClientClass::ALL[i % 3];
        let link = class.link();
        let pads = proxy_ref.negotiate(app_id, env).expect("negotiation succeeds");

        let init_req = InpMessage::InitReq { app_id, payload: b"app-request".to_vec() };
        let meta_rep = InpMessage::CliMetaRep { dev: env.dev, ntwk: env.ntwk };
        let pads_rep = InpMessage::PadMetaRep { pads };
        let mut leg_time = SimDuration::ZERO;
        leg_time += link.transfer_time(init_req.wire_len() as u64);
        leg_time += link.transfer_time(
            (InpMessage::InitRep.wire_len() + InpMessage::CliMetaReq.wire_len()) as u64,
        );
        leg_time += link.transfer_time(meta_rep.wire_len() as u64);
        leg_time += link.transfer_time(pads_rep.wire_len() as u64);

        let service = proxy_ref.service_time(app_id, warm[i]).scale(factors[i].1);
        let arrival = SimTime::ZERO
            + SimDuration::micros(ARRIVAL_WINDOW.as_micros() * i as u64 / n_clients.max(1) as u64);
        (leg_time.scale(factors[i].0), Job { arrival, service })
    });
    let (legs, jobs): (Vec<SimDuration>, Vec<Job>) = per_client.into_iter().unzip();

    // Queue the proxy service; negotiation time = queueing sojourn + legs.
    let queue = FifoQueue::new(PROXY_WORKERS);
    let completions = queue.run(&jobs);
    let total: u64 = completions
        .iter()
        .zip(&jobs)
        .zip(&legs)
        .map(|((done, job), leg)| done.since(job.arrival).as_micros() + leg.as_micros())
        .sum();

    Point {
        clients: n_clients,
        mean_negotiation: SimDuration::micros(total / n_clients.max(1) as u64),
        cache_hits: proxy.stats().cache_hits,
    }
}

/// The full sweep: 20..=300 clients.
pub fn run_sweep(cache_enabled: bool) -> Vec<Point> {
    run_sweep_threads(cache_enabled, 1)
}

/// The full sweep with the 15 independent points spread over `n_threads`
/// workers.
pub fn run_sweep_threads(cache_enabled: bool, n_threads: usize) -> Vec<Point> {
    parallel::run_indexed(n_threads, 15, |idx| {
        let k = idx + 1;
        run_point(k * 20, cache_enabled, 9 + k as u64)
    })
}

/// Prints Figure 9(a): average negotiation time vs. number of clients,
/// with the cache-disabled ablation below it.
pub fn print(_n_pages: u32) {
    println!("Figure 9(a): average negotiation time vs number of clients (one proxy)");
    println!("paper expectation: stays in a relatively stable range, with fluctuations\n");

    let rows: Vec<Vec<String>> = run_sweep(true)
        .into_iter()
        .map(|p| vec![p.clients.to_string(), ms(p.mean_negotiation), p.cache_hits.to_string()])
        .collect();
    println!("{}", render_table(&["clients", "mean negotiation (ms)", "cache hits"], &rows));

    println!("ablation: adaptation cache disabled");
    let rows: Vec<Vec<String>> = run_sweep(false)
        .into_iter()
        .map(|p| vec![p.clients.to_string(), ms(p.mean_negotiation)])
        .collect();
    println!("{}", render_table(&["clients", "mean negotiation (ms)"], &rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_time_stays_stable() {
        let p20 = run_point(20, true, 1);
        let p200 = run_point(200, true, 2);
        // The paper's claim: flat-ish in client count. Allow 3× slack for
        // fluctuations; the centralized-download curve grows ~10× over the
        // same range, so this still discriminates.
        let ratio = p200.mean_negotiation.as_secs_f64() / p20.mean_negotiation.as_secs_f64();
        assert!(ratio < 3.0, "negotiation should stay stable, grew {ratio:.1}x");
    }

    #[test]
    fn cache_absorbs_repeat_environments() {
        let p = run_point(120, true, 3);
        // 12 distinct environments → at most 12 misses.
        assert!(p.cache_hits >= 108, "hits = {}", p.cache_hits);
    }

    #[test]
    fn disabled_cache_is_slower_or_equal() {
        let with = run_point(150, true, 4);
        let without = run_point(150, false, 4);
        assert!(without.mean_negotiation >= with.mean_negotiation);
    }

    #[test]
    fn parallel_point_is_byte_identical_to_serial() {
        let serial = run_point(90, true, 11);
        for threads in [2, 4, 8] {
            let par = run_point_threads(90, true, 11, threads);
            assert_eq!(par.clients, serial.clients);
            assert_eq!(par.mean_negotiation, serial.mean_negotiation, "threads = {threads}");
            assert_eq!(par.cache_hits, serial.cache_hits, "threads = {threads}");
        }
    }
}
