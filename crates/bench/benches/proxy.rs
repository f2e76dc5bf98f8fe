//! Criterion: sharded-proxy scaling — cold vs cached negotiation, and the
//! Fig. 9(a) mixed-client stream on one shared proxy at 1 vs 8 threads
//! through the work-stealing driver.

use criterion::{criterion_group, criterion_main, Criterion};
use fractal_bench::fig9a::client_env;
use fractal_bench::parallel;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;

fn bench_proxy(c: &mut Criterion) {
    // Cold: fresh proxy per iteration, adaptation cache empty.
    c.bench_function("proxy_negotiate_cold", |b| {
        b.iter_batched(
            || Testbed::case_study(AdaptiveContentMode::Reactive),
            |tb| tb.proxy.negotiate(tb.app_id, client_env(0)).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });

    // Cached: warm proxy, pure read-lock fast path.
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let proxy = &tb.proxy;
    proxy.negotiate(tb.app_id, client_env(0)).unwrap();
    c.bench_function("proxy_negotiate_cached", |b| {
        b.iter(|| proxy.negotiate(tb.app_id, std::hint::black_box(client_env(0))).unwrap())
    });

    // The mixed-client stream (12 distinct environments) against the
    // shared proxy, serial vs fanned out over 8 workers.
    for threads in [1usize, 8] {
        c.bench_function(&format!("proxy_stream_{threads}_threads"), |b| {
            b.iter(|| {
                parallel::run_indexed(threads, 384, |i| {
                    proxy.negotiate(tb.app_id, client_env(i)).unwrap().len()
                })
            })
        });
    }
}

criterion_group!(benches, bench_proxy);
criterion_main!(benches);
