//! Figure 9(a): average negotiation time vs. number of clients.
//!
//! Up to 300 clients negotiate with one adaptation proxy within a fixed
//! arrival window. Each negotiation costs four INP legs on the client's
//! link plus proxy service time; concurrent negotiations queue at the
//! proxy's worker pool. The paper's observation — negotiation time stays
//! "in a relatively stable range" with fluctuations — follows from (1) the
//! path-search being cheap and (2) the adaptation cache absorbing repeat
//! environments.

use fractal_core::inp::InpMessage;
use fractal_core::meta::ClientEnv;
use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_net::jitter::Jitter;
use fractal_net::queue::{FifoQueue, Job};
use fractal_net::time::{SimDuration, SimTime};

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

/// Runs the experiment for one client count.
pub fn run_point(n_clients: usize, cache_enabled: bool, seed: u64) -> Point {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let proxy = if cache_enabled {
        tb.proxy
    } else {
        // Rebuild without cache.
        let tb2 = Testbed::case_study(AdaptiveContentMode::Reactive);
        tb2.proxy.with_cache_disabled()
    };
    let app_id = tb.app_id;

    // Per client: negotiate against the proxy and price the wire legs
    // (request, ack+meta-req, meta-rep, pad-meta-rep), then jitter the legs
    // and the proxy service, in that order.
    let mut jitter = Jitter::new(seed, 0.15);
    let mut legs = Vec::with_capacity(n_clients);
    let mut jobs = Vec::with_capacity(n_clients);
    for i in 0..n_clients {
        let env = client_env(i);
        let link = ClientClass::ALL[i % 3].link();
        let warm = proxy.cached(app_id, &env);
        let pads = proxy.negotiate(app_id, env).expect("negotiation succeeds");

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
        legs.push(jitter.apply(leg_time));

        let service = jitter.apply(proxy.service_time(app_id, warm));
        let arrival = SimTime::ZERO
            + SimDuration::micros(ARRIVAL_WINDOW.as_micros() * i as u64 / n_clients.max(1) as u64);
        jobs.push(Job { arrival, service });
    }

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
    (1..=15).map(|k| run_point(k * 20, cache_enabled, 9 + k as u64)).collect()
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
    fn ninety_client_points_are_pinned() {
        // 90 clients present 12 distinct environments: 12 misses, 78 hits.
        let with = run_point(90, true, 11);
        assert_eq!(
            (with.clients, with.mean_negotiation.as_micros(), with.cache_hits),
            (90, 30_206, 78)
        );
        let without = run_point(90, false, 11);
        assert_eq!(
            (without.clients, without.mean_negotiation.as_micros(), without.cache_hits),
            (90, 30_431, 0)
        );
    }
}
