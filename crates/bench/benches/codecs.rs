//! Criterion: native codec encode/decode throughput on one workload page
//! (warm pair, localized edits) — the real compute costs behind the
//! Figure 10 bars — and the encode of a 16 KB page from nothing, where a
//! codec's per-call fixed cost is not hidden behind 135 KB of search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fractal_core::server::codec_for;
use fractal_protocols::ProtocolId;
use fractal_workload::mutate::EditProfile;
use fractal_workload::PageSet;

fn bench_codecs(c: &mut Criterion) {
    let pages = PageSet::new(2005, 1);
    let old = pages.original(0).to_bytes();
    let new = pages.version(0, 1, EditProfile::Localized).to_bytes();

    // The warm pair, then what a cold session makes the server do: no old
    // version, small page.
    for (name, old, new) in
        [("encode", &old[..], &new[..]), ("encode_cold_16k", &[], &old[..16 * 1024])]
    {
        let mut group = c.benchmark_group(name);
        group.throughput(Throughput::Bytes(new.len() as u64));
        for p in ProtocolId::ALL {
            let codec = codec_for(p);
            group.bench_with_input(BenchmarkId::from_parameter(p.slug()), &p, |b, _| {
                b.iter(|| codec.encode(std::hint::black_box(old), std::hint::black_box(new)))
            });
        }
        group.finish();
    }

    let mut group = c.benchmark_group("decode");
    group.throughput(Throughput::Bytes(new.len() as u64));
    for p in ProtocolId::ALL {
        let codec = codec_for(p);
        let payload = codec.encode(&old, &new);
        group.bench_with_input(BenchmarkId::from_parameter(p.slug()), &p, |b, _| {
            b.iter(|| {
                codec.decode(std::hint::black_box(&old), std::hint::black_box(&payload)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
