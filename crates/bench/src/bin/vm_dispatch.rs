//! Interpreter dispatch-path microbenchmark: what admission buys at run time.
//!
//! Runs every shipped PAD decode workload on the fully **checked**
//! interpreter and on the **analyzed fast path**: the register form, in
//! which operand-stack slots are frame registers, branches are
//! pre-resolved and a run such as `local.get·local.get·geu·jmpif` or
//! `local.get·push·add·local.set` is one three-address slot, charged op
//! for op. Reports
//! MB/s per path and the speedup, after asserting the two paths agree on
//! output *and* fuel, byte for byte.
//!
//! Results land in `BENCH_vm_dispatch.json` with the standard provenance
//! stamp. Under `--smoke` (the CI gate mode) the pass counts are trimmed
//! and the document is built and read back but not written.
//!
//! **Caveat for CI numbers:** single-CPU runners time-share the
//! measurement thread, so treat absolute MB/s there as noise-bounded;
//! the speedup column (same interference on both paths) and the local
//! multi-core numbers are the meaningful signal.

use std::time::Instant;

use fractal_bench::bench_env::BenchEnv;
use fractal_bench::json::Json;
use fractal_bench::report::render_table;
use fractal_core::server::codec_for;
use fractal_crypto::sign::SignerRegistry;
use fractal_pads::artifact::{build_deflate_pad, build_pad, open_unchecked};
use fractal_pads::runtime::PadRuntime;
use fractal_protocols::{DiffCodec, ProtocolId};
use fractal_vm::{Module, SandboxPolicy};
use fractal_workload::mutate::EditProfile;
use fractal_workload::PageSet;

/// One decode workload: a module plus a genuine payload for it.
struct Workload {
    name: String,
    module: Module,
    old: Vec<u8>,
    payload: Vec<u8>,
    new_len: usize,
}

fn workloads() -> Vec<Workload> {
    let pages = PageSet::new(2005, 1);
    let old = pages.original(0).to_bytes();
    let new = pages.version(0, 1, EditProfile::Localized).to_bytes();
    let signer = SignerRegistry::new().provision("vm-dispatch");

    let mut out = Vec::new();
    for p in [ProtocolId::Gzip, ProtocolId::Bitmap, ProtocolId::VaryBlock] {
        let payload = codec_for(p).encode(&old, &new);
        out.push(Workload {
            name: p.slug().to_string(),
            module: open_unchecked(&build_pad(p, &signer)),
            old: old.clone(),
            payload: payload.to_vec(),
            new_len: new.len(),
        });
    }
    // The DEFLATE extension PAD is the hottest interpreter loop we ship.
    let payload = fractal_protocols::deflate::Deflate.encode(&[], &new);
    out.push(Workload {
        name: "deflate".to_string(),
        module: open_unchecked(&build_deflate_pad(&signer)),
        old: Vec::new(),
        payload: payload.to_vec(),
        new_len: new.len(),
    });
    out
}

/// Times `reps` decodes on one runtime; returns best-of-pass MB/s.
fn measure(rt: &mut PadRuntime, w: &Workload, reps: usize, passes: usize) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..passes {
        let t0 = Instant::now();
        for _ in 0..reps {
            let out = rt.decode(&w.old, &w.payload).expect("decode");
            std::hint::black_box(out);
        }
        let secs = t0.elapsed().as_secs_f64();
        let mbs = (w.new_len * reps) as f64 / 1e6 / secs;
        best = best.max(mbs);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, passes) = if smoke { (2, 1) } else { (20, 5) };
    let env = BenchEnv::capture();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for w in workloads() {
        let policy = SandboxPolicy::for_pads;
        let mut checked = PadRuntime::new_checked(w.module.clone(), policy()).unwrap();
        let mut fast = PadRuntime::new(w.module.clone(), policy()).unwrap();
        assert!(fast.is_fast_path(), "{}: should analyze onto the fast path", w.name);

        // Correctness gate before timing: identical output and fuel.
        let out_checked = checked.decode(&w.old, &w.payload).expect("checked decode");
        let out_fast = fast.decode(&w.old, &w.payload).expect("fast decode");
        assert_eq!(out_checked, out_fast, "{}: paths disagree on output", w.name);
        assert_eq!(checked.fuel_used(), fast.fuel_used(), "{}: paths disagree on fuel", w.name);

        let mbs_checked = measure(&mut checked, &w, reps, passes);
        let mbs_fast = measure(&mut fast, &w, reps, passes);
        let speedup = mbs_fast / mbs_checked;
        rows.push(vec![
            w.name.clone(),
            format!("{mbs_checked:.2}"),
            format!("{mbs_fast:.2}"),
            format!("{speedup:.3}x"),
        ]);
        json_rows.push(Json::object([
            ("workload", w.name.as_str().into()),
            ("checked_mbs", Json::rounded(mbs_checked, 3)),
            ("fast_mbs", Json::rounded(mbs_fast, 3)),
            ("speedup", Json::rounded(speedup, 4)),
        ]));
    }

    println!("vm dispatch paths (decode MB/s, best of {passes} passes x {reps} reps)");
    println!("{}", render_table(&["workload", "checked", "analyzed-fast", "speedup"], &rows));
    println!(
        "note: on 1-CPU CI runners absolute MB/s is noise-bounded; compare the speedup \
         column (host_cpus={})",
        env.host_cpus
    );

    let mut doc = env.members();
    doc.extend([
        (
            "note",
            "speedup = analyzed fast path vs checked interpreter; on 1-CPU CI runners absolute \
             MB/s is noise-bounded, compare speedup"
                .into(),
        ),
        ("rows", Json::Arr(json_rows)),
    ]);
    Json::object(doc).save("BENCH_vm_dispatch.json", smoke);
}
