//! System-capacity extension: server throughput knee per protocol.

use fractal_bench::bench_env::BenchEnv;
use fractal_bench::capacity::{knee_per_protocol, print, service_time};
use fractal_bench::json::Json;

fn main() {
    print(0);

    // No bytes cross a wire here — the capacity knees come out of the
    // server-side queueing model; the stamp says so explicitly.
    let env = BenchEnv::capture().with_transport("queueing-model");
    let knees = knee_per_protocol()
        .into_iter()
        .map(|(p, knee)| {
            Json::object([
                ("protocol", p.name().into()),
                ("server_ms_per_page", Json::rounded(service_time(p).as_millis_f64(), 1)),
                ("max_sustainable_rps", Json::rounded(knee, 0)),
            ])
        })
        .collect();
    let mut doc = vec![("bench", "capacity".into())];
    doc.extend(env.members());
    doc.push(("knees", Json::Arr(knees)));
    println!();
    Json::object(doc).save("BENCH_capacity.json");
}
