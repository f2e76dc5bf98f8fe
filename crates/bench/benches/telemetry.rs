//! Criterion: absolute cost of the always-on telemetry on the hot paths.
//!
//! `telemetry_negotiate_cached` is the read-lock fast path, where
//! one mirrored cache-hit counter weighs the most relative to the work;
//! the other four price the primitives themselves, the flight recorder's
//! `telemetry_journal_record` among them (DESIGN.md §4.14). The last off-vs-on
//! pair measured before the recording gate was deleted (164 → 168 ns
//! cached negotiate) is kept in DESIGN.md §4.9.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use fractal_bench::fig9a::client_env;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_telemetry::{MonotonicClock, Registry, Telemetry};

fn bench_telemetry(c: &mut Criterion) {
    // Cached negotiation against a warm shared proxy: each call mirrors
    // one cache-hit counter.
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let proxy = &tb.proxy;
    proxy.negotiate(tb.app_id, client_env(0)).unwrap();
    c.bench_function("telemetry_negotiate_cached", |b| {
        b.iter(|| proxy.negotiate(tb.app_id, black_box(client_env(0))).unwrap())
    });

    // Primitive recording costs: one relaxed fetch_add for a counter, five
    // for a histogram record.
    let bundle = Telemetry::new(Arc::new(Registry::new()), MonotonicClock::shared());
    let counter = bundle.counter("bench_ops_total");
    c.bench_function("telemetry_counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            black_box(&counter);
        })
    });

    let hist = bundle.histogram("bench_lat_ns");
    c.bench_function("telemetry_histogram_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(0x9E37_79B9);
            hist.record(black_box(v));
        })
    });

    // Snapshot cost — the once-per-pass read side, not a hot path, but it
    // bounds what embedding metrics into BENCH_*.json adds to a run.
    c.bench_function("telemetry_snapshot", |b| b.iter(|| black_box(bundle.snapshot())));

    // Flight-recorder cost: one event through a session handle — the
    // journal's lock, the session's seq lookup, one clock read and one
    // ring slot (the ring is full after the first 4096, so every later
    // record also retires the oldest event, as a long run does).
    let journaled = bundle.clone().with_journal(4096);
    let session = journaled.journal().expect("with_journal attaches one").session(7);
    c.bench_function("telemetry_journal_record", |b| {
        b.iter(|| session.record(black_box("phase:Sessioning")))
    });
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
