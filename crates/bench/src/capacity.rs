//! System-capacity extension of §4.4.1: how many concurrent sessions the
//! application server sustains under each protocol.
//!
//! The paper measures negotiation capacity (Fig. 9(a)) and PAD-retrieval
//! capacity (Fig. 9(b)); the remaining server-side bottleneck is the
//! *adaptive content computation* itself. Reactive vary-sized blocking
//! spends ~300 ms of server CPU per page (Figure 10), so a single server
//! saturates at ~3 pages/s — while Direct and Bitmap barely load it. This
//! experiment pushes a batch of concurrent requests through a server
//! compute queue per protocol and reports throughput and p95 sojourn,
//! quantifying the capacity cost of each protocol choice (and the benefit
//! of proactive adaptive content).

use fractal_core::overhead::STD_CPU_MHZ;
use fractal_core::presets::pad_overhead;
use fractal_net::queue::{FifoQueue, Job};
use fractal_net::time::{SimDuration, SimTime};
use fractal_protocols::ProtocolId;

use crate::report::render_table;

/// Server CPU in MHz (matches `OverheadModel::paper`).
const SERVER_CPU_MHZ: f64 = 2800.0;
/// Server worker threads.
const SERVER_WORKERS: usize = 2;
/// Page size driving the compute cost.
const PAGE_BYTES: f64 = 135_000.0;

/// Result of one capacity point.
#[derive(Clone, Copy, Debug)]
pub struct CapacityPoint {
    /// Protocol under load.
    pub protocol: ProtocolId,
    /// Offered load, requests per second.
    pub offered_rps: f64,
    /// Mean sojourn (queue + service) per request.
    pub mean_sojourn: SimDuration,
    /// Whether the server kept up (sojourn bounded by ~2× service time).
    pub saturated: bool,
}

/// Per-request server compute for `protocol` on one page.
pub fn service_time(protocol: ProtocolId) -> SimDuration {
    let ms_per_mb = pad_overhead(protocol).server_ms_per_mb;
    SimDuration::from_secs_f64(
        ms_per_mb * (PAGE_BYTES / 1e6) * (STD_CPU_MHZ / SERVER_CPU_MHZ) / 1000.0,
    )
}

/// Simulates `n_requests` arriving uniformly at `offered_rps` and measures
/// the sojourn through the server's compute queue.
pub fn run_point(protocol: ProtocolId, offered_rps: f64, n_requests: usize) -> CapacityPoint {
    let service = service_time(protocol);
    let spacing_us = (1e6 / offered_rps) as u64;
    let jobs: Vec<Job> =
        (0..n_requests).map(|i| Job { arrival: SimTime(i as u64 * spacing_us), service }).collect();
    let queue = FifoQueue::new(SERVER_WORKERS);
    let mean_sojourn = queue.mean_sojourn(&jobs);
    // Saturated when queueing dominates: sojourn well above pure service.
    let saturated = mean_sojourn.as_micros() > service.as_micros().max(1) * 3;
    CapacityPoint { protocol, offered_rps, mean_sojourn, saturated }
}

/// Sweeps offered load for every case-study protocol; returns, per
/// protocol, the highest offered load that did not saturate.
pub fn knee_per_protocol() -> Vec<(ProtocolId, f64)> {
    ProtocolId::PAPER_FOUR
        .into_iter()
        .map(|p| {
            let mut knee = 0.0;
            for k in 1..=60 {
                let rps = k as f64 * 2.0;
                let point = run_point(p, rps, 200);
                if !point.saturated {
                    knee = rps;
                } else {
                    break;
                }
            }
            (p, knee)
        })
        .collect()
}

/// Prints the per-protocol capacity knees and the sojourn curve of
/// vary-sized blocking under rising load.
pub fn print(_n_pages: u32) {
    println!("System capacity: server compute queue (2 workers, 2.8 GHz), 135 KB pages\n");

    let rows: Vec<Vec<String>> = knee_per_protocol()
        .iter()
        .map(|&(p, knee)| {
            vec![
                p.name().to_string(),
                format!("{:.1}", service_time(p).as_millis_f64()),
                if knee >= 120.0 { ">120".into() } else { format!("{knee:.0}") },
            ]
        })
        .collect();
    println!("{}", render_table(&["protocol", "server ms/page", "max sustainable rps"], &rows));

    println!("\nsojourn under load (vary-sized blocking):");
    for rps in [2.0, 5.0, 8.0, 12.0] {
        let p = run_point(ProtocolId::VaryBlock, rps, 200);
        println!(
            "  {:>5.1} rps  mean sojourn {:>10}  {}",
            rps,
            p.mean_sojourn.to_string(),
            if p.saturated { "SATURATED" } else { "ok" }
        );
    }
    println!(
        "\nReactive vary-sized blocking caps the whole server at a handful of\n\
         requests/second — the capacity argument behind proactive adaptive\n\
         content and behind disqualifying Vary in Figure 10."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vary_saturates_first() {
        let knees = knee_per_protocol();
        let knee = |p: ProtocolId| knees.iter().find(|(q, _)| *q == p).unwrap().1;
        // Direct has no server compute: never saturates in the sweep.
        assert!(knee(ProtocolId::Direct) >= knee(ProtocolId::Gzip));
        assert!(knee(ProtocolId::Gzip) > knee(ProtocolId::VaryBlock));
        assert!(knee(ProtocolId::Bitmap) > knee(ProtocolId::VaryBlock));
        // Vary's knee is in single-digit requests/second: ~290 ms service
        // on 2 workers ≈ 7 rps.
        assert!(knee(ProtocolId::VaryBlock) < 12.0, "vary knee {}", knee(ProtocolId::VaryBlock));
    }

    #[test]
    fn knees_are_pinned() {
        // Direct, Gzip and Bitmap never saturate below the 120 rps ceiling.
        assert_eq!(
            knee_per_protocol(),
            [
                (ProtocolId::Direct, 120.0),
                (ProtocolId::Gzip, 120.0),
                (ProtocolId::Bitmap, 120.0),
                (ProtocolId::VaryBlock, 6.0)
            ]
        );
    }

    #[test]
    fn light_load_never_saturates() {
        for p in ProtocolId::PAPER_FOUR {
            let point = run_point(p, 1.0, 50);
            assert!(!point.saturated, "{p} at 1 rps");
        }
    }

    #[test]
    fn service_times_track_cost_table() {
        assert_eq!(service_time(ProtocolId::Direct), SimDuration::ZERO);
        assert!(service_time(ProtocolId::VaryBlock) > service_time(ProtocolId::Gzip));
        assert!(service_time(ProtocolId::Gzip) > service_time(ProtocolId::Bitmap));
    }
}
