//! The benchmark checking itself: the same seed gives the same inputs and
//! the same exact-count rows, failures are counted rather than dropped, and
//! every metric the program prints is one `BENCHMARK.json` lists.

use fractal_benchmark::bed::Bed;
use fractal_benchmark::drive::{run_round, Tally};
use fractal_benchmark::report::{END_TO_END, PER_LAYER};
use fractal_benchmark::run::run;
use fractal_benchmark::trace::Recorder;
use fractal_benchmark::{Config, Shape, Workload};
use fractal_core::presets::ClientClass;

/// Rows that are counts of what the program did, not times: they must
/// repeat exactly on the same seed.
const EXACT: [&str; 5] = [
    "gen.input_hash",
    "core.reactor.frames_per_session",
    "core.client.deploys_per_session",
    "protocols.payload_bytes_per_page.",
    "vm.fuel_per_page.",
];

fn quick(workload: Workload, seed: u64, trace: bool) -> Config {
    Config { workload, seed, seconds: 0.1, trace, quick: true, spans_out: None }
}

fn exact_rows(workload: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let out = run(&quick(workload, seed, true));
    assert!(out.correct, "{workload:?}: {:?}", out.notes);
    assert_eq!(out.failed, 0);
    assert_eq!(out.metrics.len(), PER_LAYER.len(), "a traced run reports every per-layer metric");
    out.metrics
        .iter()
        .filter(|m| EXACT.iter().any(|prefix| m.name.starts_with(prefix)))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn same_seed_same_inputs_and_exact_counts() {
    for workload in [Workload::ColdLoopback, Workload::WarmFetch] {
        let first = exact_rows(workload, 7);
        assert_eq!(first.len(), 11, "hash, frames, deploys, four payload and four fuel rows");
        assert_eq!(first, exact_rows(workload, 7), "{workload:?}: same seed, same counts");
        let other = exact_rows(workload, 8);
        let hash =
            |rows: &[(&str, f64)]| rows.iter().find(|r| r.0 == "gen.input_hash").map(|r| r.1);
        assert_ne!(hash(&first), hash(&other), "{workload:?}: the seed drives the inputs");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let out = run(&quick(workload, 2005, false));
        assert!(out.correct, "{workload:?}: {:?}", out.notes);
        assert!(out.attempted > 0 && out.failed == 0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, listed, "{workload:?}");
        for m in &out.metrics {
            assert!(m.value > 0.0, "{workload:?}: {} must never read 0", m.name);
        }
        let line = out.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    }
}

#[test]
fn failures_are_counted_not_dropped() {
    let shape = Shape::of(Workload::ColdLoopback, true);
    let mut bed = Bed::build(Workload::ColdLoopback, 2005, &shape);
    // A client that trusts nobody rejects every PAD at the signature check.
    bed.client_factory = |tb, _| tb.untrusting_client(ClientClass::DesktopLan);
    let mut tally = Tally::default();
    let round = run_round(&bed, &shape, &mut Recorder::new(), &mut tally);
    assert_eq!(tally.attempted, shape.round_sessions() as u64);
    assert_eq!(tally.failed, tally.attempted, "failed_share is 1, not 0 of 0");
    assert_eq!(round.passed, 0);
    assert!(tally.latency_us.is_empty(), "a failed session has no latency to report");
}

#[test]
fn metric_names_are_well_formed_and_listed_in_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            spec.contains(&format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"")),
            "{name} ({unit}) is not in BENCHMARK.json"
        );
    }
    assert_eq!(spec.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    for workload in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
