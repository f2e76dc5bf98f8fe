//! Re-derives a cost table from live measurements of the native codecs on
//! this machine — the "native regime" alternative to the paper-calibrated
//! table in `fractal-core::presets` (EXPERIMENTS.md, "Calibration note").
//!
//! Usage: `cargo run --release -p fractal-bench --bin calibrate [n_pages]`

use std::time::Instant;

use fractal_bench::workbench::workload_pages;
use fractal_core::server::codec_for;
use fractal_protocols::ProtocolId;

fn main() {
    let n_pages: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(20);
    let pairs: Vec<(Vec<u8>, Vec<u8>)> =
        workload_pages(n_pages).into_iter().map(|p| (p.v0, p.v1)).collect();
    let total_mb: f64 = pairs.iter().map(|(_, new)| new.len() as f64).sum::<f64>() / 1_000_000.0;

    println!("calibrating on {n_pages} pages ({total_mb:.1} MB of content), native Rust codecs\n");
    println!(
        "{:<22} {:>16} {:>16} {:>14}",
        "protocol", "encode (ms/MB)", "decode (ms/MB)", "traffic ratio"
    );
    println!("{}", "-".repeat(72));

    for protocol in ProtocolId::ALL {
        let codec = codec_for(protocol);

        // Warm up and collect payloads.
        let payloads: Vec<_> = pairs.iter().map(|(old, new)| codec.encode(old, new)).collect();
        let wire: u64 = payloads.iter().map(|p| p.len() as u64).sum::<u64>()
            + pairs.iter().map(|(old, _)| codec.upstream_bytes(old.len())).sum::<u64>();
        let content: u64 = pairs.iter().map(|(_, new)| new.len() as u64).sum();

        let t0 = Instant::now();
        for (old, new) in &pairs {
            std::hint::black_box(codec.encode(old, new));
        }
        let encode_ms = t0.elapsed().as_secs_f64() * 1000.0 / total_mb;

        let t0 = Instant::now();
        for ((old, _), payload) in pairs.iter().zip(&payloads) {
            std::hint::black_box(codec.decode(old, payload).unwrap());
        }
        let decode_ms = t0.elapsed().as_secs_f64() * 1000.0 / total_mb;

        println!(
            "{:<22} {:>16.2} {:>16.2} {:>14.3}",
            protocol.name(),
            encode_ms,
            decode_ms,
            wire as f64 / content as f64
        );
    }

    println!(
        "\nTo run the framework in the native regime, put these encode/decode\n\
         numbers into `pad_overhead()` in crates/core/src/presets.rs (scaled\n\
         by your machine's clock relative to the 500 MHz reference). The\n\
         default table is instead calibrated to the paper's 2005 Java\n\
         prototype so the published adaptation decisions reproduce."
    );
}
