//! Determinism suite: reactor batches recording into per-batch registries
//! and flight-recorder journals under virtual clocks produce byte-identical
//! merged snapshots, phase traces and simulated wire times at 1, 2, 4, and
//! 8 worker threads.
//!
//! Each work unit is a pure function of its index (own testbed, own
//! registry, own clock, own journal, own simulated link), the parallel
//! driver only decides *where* an index runs, and aggregation folds
//! results in index order. Under that discipline the scheduler cannot leak
//! into the numbers — neither `fractal-telemetry`'s, nor the per-session
//! wire clocks of the LAN / WLAN / Bluetooth `SimLinkTransport` pairs.

use std::sync::Arc;

use fractal_bench::parallel::{self, THREAD_SWEEP};
use fractal_core::reactor::{InpSession, Reactor, ReactorConfig, PHASE_METRICS};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_core::ClientClass;
use fractal_net::LinkKind;
use fractal_telemetry::{Journal, Registry, Snapshot, Telemetry, VirtualClock};

/// Batches per run — enough to keep every worker in the 8-thread sweep
/// stealing, small enough for a test binary.
const BATCHES: usize = 5;
/// Event-driven sessions multiplexed inside one batch's reactor.
const SESSIONS: usize = 3;
/// Simulated link every session of a batch crosses, rotated by batch index.
const LINKS: [LinkKind; 3] = [LinkKind::Lan, LinkKind::Wlan, LinkKind::Bluetooth];

fn page(item: usize, id: u32) -> Vec<u8> {
    let seed = (item as u8).wrapping_mul(31).wrapping_add(id as u8 + 1);
    (0..6_000).map(|i| ((i / 7) as u8).wrapping_mul(seed).wrapping_add(seed)).collect()
}

/// One self-contained work unit: a fresh testbed and a single-threaded
/// reactor recording into a per-batch registry and journal over a virtual
/// clock whose tick also depends only on the index, every session behind
/// its own simulated link. Returns the batch's snapshot and its trace: the
/// rendered journal (one line per phase transition), then each session's
/// simulated negotiation and completion times on the wire.
fn batch(item: usize) -> (Snapshot, String) {
    let bundle = Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(7 + item as u64));
    let journal = Arc::new(Journal::new(256).with_clock(bundle.clock()));

    let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let spare = Testbed::case_study(AdaptiveContentMode::Reactive).proxy;
    tb.proxy = std::mem::replace(&mut tb.proxy, spare).with_telemetry(&bundle);
    for id in 0..SESSIONS as u32 {
        tb.server.publish(id, page(item, id));
    }

    let link = LINKS[item % LINKS.len()];
    let cfg = ReactorConfig::new()
        .transport(link)
        .clock(bundle.clock())
        .telemetry(&bundle)
        .journal(Arc::clone(&journal));
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    let ids: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let class = ClientClass::ALL[(item + s) % 3];
            let client = tb.client(class).with_telemetry(&bundle);
            reactor.spawn(InpSession::new(client, tb.app_id, s as u32, 0))
        })
        .collect();
    let report = reactor.run().expect("batch sessions complete");
    assert_eq!(report.failed, 0);

    let mut trace = format!("== batch {item} over {link:?} ==\n{}", journal.snapshot().render());
    for id in ids {
        let t = reactor.transport_times(id);
        let negotiated_us = t.negotiated_us.expect("cold sessions negotiate on the wire");
        let done_us = t.done_us.expect("sessions finish on the wire");
        assert!(0 < negotiated_us && negotiated_us < done_us, "batch {item} session {id}: {t:?}");
        trace.push_str(&format!(
            "wire session={id} negotiated_us={negotiated_us} done_us={done_us}\n"
        ));
    }
    (bundle.snapshot(), trace)
}

/// Runs all batches on `threads` workers and aggregates in index order.
fn sweep_at(threads: usize) -> (Snapshot, String) {
    let per_batch = parallel::run_indexed(threads, BATCHES, batch);
    let mut merged = Snapshot::default();
    let mut trace = String::new();
    for (snap, text) in &per_batch {
        merged.merge(snap);
        trace.push_str(text);
    }
    (merged, trace)
}

#[test]
fn snapshots_and_traces_identical_at_every_thread_count() {
    let (baseline_snap, baseline_trace) = sweep_at(1);
    assert_eq!(
        baseline_trace.matches("kind=phase:Done\n").count(),
        BATCHES * SESSIONS,
        "every session's phase chain must close once the reactor drains:\n{baseline_trace}"
    );
    for &threads in &THREAD_SWEEP[1..] {
        let (snap, trace) = sweep_at(threads);
        assert_eq!(snap, baseline_snap, "snapshot diverged at {threads} threads");
        assert_eq!(trace, baseline_trace, "trace diverged at {threads} threads");
        // Rendered artifacts are byte-identical too, not just structurally.
        assert_eq!(snap.render_prometheus(), baseline_snap.render_prometheus());
    }
}

#[test]
fn every_batch_fills_all_five_phase_histograms() {
    for item in 0..BATCHES {
        let (snap, _) = batch(item);
        for name in PHASE_METRICS {
            let h = &snap.histograms[name];
            assert!(!h.is_empty(), "batch {item}: {name} must be non-empty");
            assert!(h.sum > 0, "batch {item}: {name} must accumulate virtual time");
        }
        assert_eq!(
            snap.counters["fractal_reactor_completed_total"], SESSIONS as u64,
            "batch {item}"
        );
    }
}

#[test]
fn merge_grouping_does_not_change_the_aggregate() {
    let parts: Vec<Snapshot> = (0..BATCHES).map(|i| batch(i).0).collect();

    // Left fold: ((((s0 + s1) + s2) + s3) + s4).
    let mut left = Snapshot::default();
    for p in &parts {
        left.merge(p);
    }

    // Right fold: s0 + (s1 + (s2 + (s3 + s4))).
    let mut right = Snapshot::default();
    for p in parts.iter().rev() {
        let mut acc = p.clone();
        acc.merge(&right);
        right = acc;
    }

    // Pairwise tree: (s0 + s1) + ((s2 + s3) + s4).
    let mut ab = parts[0].clone();
    ab.merge(&parts[1]);
    let mut cd = parts[2].clone();
    cd.merge(&parts[3]);
    cd.merge(&parts[4]);
    let mut tree = ab;
    tree.merge(&cd);

    assert_eq!(left, right, "merge must be associative+commutative (left vs right fold)");
    assert_eq!(left, tree, "merge must be associative (left fold vs pairwise tree)");
}
