//! Criterion: sharded-proxy scaling — cold vs cached negotiation, and the
//! Fig. 9(a) mixed-client stream on one shared proxy at 1 vs 8 scoped
//! threads, each negotiating an interleaved stripe of the stream.

use criterion::{criterion_group, criterion_main, Criterion};
use fractal_bench::fig9a::client_env;
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
    let (proxy, app_id) = (&tb.proxy, tb.app_id);
    proxy.negotiate(app_id, client_env(0)).unwrap();
    c.bench_function("proxy_negotiate_cached", |b| {
        b.iter(|| proxy.negotiate(app_id, std::hint::black_box(client_env(0))).unwrap())
    });

    // The mixed-client stream (12 distinct environments) against the
    // shared proxy, serial vs fanned out over 8 workers.
    for threads in [1usize, 8] {
        c.bench_function(&format!("proxy_stream_{threads}_threads"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..threads)
                        .map(|w| {
                            scope.spawn(move || {
                                (w..384)
                                    .step_by(threads)
                                    .map(|i| proxy.negotiate(app_id, client_env(i)).unwrap().len())
                                    .sum::<usize>()
                            })
                        })
                        .collect();
                    workers.into_iter().map(|h| h.join().unwrap()).sum::<usize>()
                })
            })
        });
    }
}

criterion_group!(benches, bench_proxy);
criterion_main!(benches);
