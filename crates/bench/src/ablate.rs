//! Ablations called out in DESIGN.md:
//!
//! * **ratio matrices off** — the pure linear model mis-selects when a PAD
//!   cannot run at all on the client's platform (the §3.4.2
//!   WinMedia/Kinoma scenario reconstructed on the PAT);
//! * **ρ sensitivity** — how the negotiated winner moves as the
//!   application-level utilization factor varies over the paper's 0.6–0.8
//!   band (and beyond);
//! * **entropy stage** — what DEFLATE's Huffman stage would buy the Gzip
//!   PAD in bytes, and what it costs in compute.

use std::time::Instant;

use fractal_core::meta::{AppId, OsType, PadId, PadMeta, PadOverhead};
use fractal_core::overhead::OverheadModel;
use fractal_core::pat::Pat;
use fractal_core::presets::{case_study_app_meta, paper_ratios, ClientClass};
use fractal_core::ratio::Ratios;
use fractal_core::search::search;
use fractal_crypto::sha1::sha1;
use fractal_protocols::deflate::Deflate;
use fractal_protocols::gzip::Gzip;
use fractal_protocols::{DiffCodec, ProtocolId};
use fractal_workload::mutate::EditProfile;
use fractal_workload::PageSet;

use crate::report::render_table;

/// Result of the ratio-matrix ablation.
#[derive(Clone, Copy, Debug)]
pub struct RatioAblation {
    /// What the full model picks.
    pub with_ratios: PadId,
    /// What the pure linear model picks.
    pub linear_only: PadId,
    /// Whether the linear model picked a PAD that cannot run (the failure
    /// the matrices exist to prevent).
    pub linear_picked_infeasible: bool,
}

/// Reconstructs the WinMedia/Kinoma example on a PAT: two "player" PADs,
/// where the linear model prefers the one that cannot run on the client's
/// OS.
pub fn ratio_ablation() -> RatioAblation {
    let winmedia = PadId(100);
    let kinoma = PadId(101);
    let player = |id: PadId, client_ms: f64| PadMeta {
        id,
        protocol: ProtocolId::Direct,
        size: 1000,
        overhead: PadOverhead {
            server_ms_per_mb: 0.0,
            client_ms_per_mb: client_ms,
            traffic_ratio: 1.0,
        },
        digest: sha1(&id.0.to_le_bytes()),
        url: String::new(),
        parent: None,
        children: vec![],
    };
    let mut pat = Pat::new(AppId(50));
    // Linear estimates: Kinoma looks 2.5× cheaper.
    pat.insert(player(winmedia, 5000.0), None).unwrap();
    pat.insert(player(kinoma, 2000.0), None).unwrap();

    // Client: a WinCE Pocket PC.
    let env = ClientClass::PdaBluetooth.env();

    // Full model: Kinoma cannot run on WinCE (∞).
    let mut ratios = Ratios::linear();
    ratios.os.set(kinoma, OsType::WinCe42, f64::INFINITY);
    let with = search(&pat, &OverheadModel::paper(ratios), &env, 1_000_000).unwrap();

    // Pure linear model.
    let linear = search(&pat, &OverheadModel::paper(Ratios::linear()), &env, 1_000_000).unwrap();

    RatioAblation {
        with_ratios: with.pads[0],
        linear_only: linear.pads[0],
        linear_picked_infeasible: linear.pads[0] == kinoma,
    }
}

/// One point of the ρ sweep.
#[derive(Clone, Copy, Debug)]
pub struct RhoPoint {
    /// The utilization factor.
    pub rho: f64,
    /// Winner for the laptop at this ρ.
    pub laptop_pick: ProtocolId,
    /// Winner for the PDA at this ρ.
    pub pda_pick: ProtocolId,
}

/// Sweeps ρ from 0.3 to 1.0, re-running the case-study negotiation.
pub fn rho_sweep() -> Vec<RhoPoint> {
    let artifacts: Vec<_> =
        ProtocolId::PAPER_FOUR.iter().map(|&p| (p, sha1(p.slug().as_bytes()), 3000u32)).collect();
    let meta = case_study_app_meta(AppId(1), &artifacts);
    let pat = Pat::from_app_meta(&meta);

    (3..=10)
        .map(|k| {
            let rho = k as f64 / 10.0;
            let model = OverheadModel::paper(paper_ratios()).with_rho(rho);
            let pick = |class: ClientClass| {
                let path = search(&pat, &model, &class.env(), 1_000_000).unwrap();
                pat.meta(path.pads[0]).unwrap().protocol
            };
            RhoPoint {
                rho,
                laptop_pick: pick(ClientClass::LaptopWlan),
                pda_pick: pick(ClientClass::PdaBluetooth),
            }
        })
        .collect()
}

/// Prints the ratio-matrix ablation (the §3.4.2 WinMedia/Kinoma scenario).
pub fn print_ratio(_n_pages: u32) {
    let r = ratio_ablation();
    println!("Ablation: normalized ratio matrices (WinMedia/Kinoma on WinCE)\n");
    println!("full model picks:         {}", r.with_ratios);
    println!("pure linear model picks:  {}", r.linear_only);
    println!("linear picked infeasible: {}", r.linear_picked_infeasible);
    println!(
        "\npaper's point: without the matrices the linear model selects the \
         player that cannot run on the client's OS at all."
    );
}

/// Prints the sensitivity of the negotiated winner to the utilization
/// factor ρ (the paper fixes ρ = 0.8; real deployments sit in 0.6–0.8).
pub fn print_rho(_n_pages: u32) {
    println!("Ablation: negotiated winner vs utilization factor rho\n");
    let rows: Vec<Vec<String>> = rho_sweep()
        .into_iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.rho),
                p.laptop_pick.name().to_string(),
                p.pda_pick.name().to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["rho", "laptop pick", "PDA pick"], &rows));
    println!("\nThe paper's operating point is rho = 0.8.");
}

/// Prints the entropy-stage ablation. The paper's gzip is DEFLATE = LZ77 +
/// Huffman; the shipped Gzip PAD uses the byte-aligned LZ77 token stream
/// so the mobile-code decoder stays a bulk-copy loop. This quantifies what
/// the Huffman stage would buy in bytes — and what it costs in
/// encode/decode compute (wall-clock) — on the real workload.
pub fn print_entropy(n_pages: u32) {
    let pages = PageSet::new(2005, n_pages);
    let contents: Vec<Vec<u8>> =
        (0..n_pages).map(|p| pages.version(p, 1, EditProfile::Localized).to_bytes()).collect();
    let total: usize = contents.iter().map(Vec::len).sum();

    println!("Ablation: LZ77 alone vs LZ77+Huffman on {n_pages} pages ({} KB)\n", total / 1024);

    for (name, codec) in
        [("gzip (LZ77 only)", &Gzip as &dyn DiffCodec), ("deflate (LZ77+Huffman)", &Deflate)]
    {
        let t0 = Instant::now();
        let payloads: Vec<_> = contents.iter().map(|c| codec.encode(&[], c)).collect();
        let enc = t0.elapsed();
        let t0 = Instant::now();
        for (c, p) in contents.iter().zip(&payloads) {
            assert_eq!(&codec.decode(&[], p).unwrap(), c);
        }
        let dec = t0.elapsed();
        let wire: usize = payloads.iter().map(|p| p.len()).sum();
        println!(
            "{:<24} {:>8.1} KB wire ({:>4.1}%)   encode {:>7.1} ms   decode {:>7.1} ms",
            name,
            wire as f64 / 1024.0,
            wire as f64 / total as f64 * 100.0,
            enc.as_secs_f64() * 1000.0,
            dec.as_secs_f64() * 1000.0,
        );
    }

    // And prove the entropy-coded protocol still ships as mobile code:
    // decode one page through the DEFLATE FVM PAD.
    let signer = fractal_crypto::sign::SignerRegistry::new().provision("ablate");
    let artifact = fractal_pads::artifact::build_deflate_pad(&signer);
    let mut rt = fractal_pads::runtime::PadRuntime::new(
        fractal_pads::artifact::open_unchecked(&artifact),
        fractal_vm::SandboxPolicy::for_pads(),
    )
    .unwrap();
    let payload = Deflate.encode(&[], &contents[0]);
    let t0 = Instant::now();
    let decoded = rt.decode(&[], &payload).unwrap();
    let vm_time = t0.elapsed();
    assert_eq!(decoded, contents[0]);
    println!(
        "\nDEFLATE as mobile code: {} byte PAD decoded a {} KB page in {:.1} ms\n\
         ({} fuel) inside the sandbox.",
        artifact.wire_len(),
        contents[0].len() / 1024,
        vm_time.as_secs_f64() * 1000.0,
        rt.fuel_used(),
    );

    println!(
        "\nThe entropy stage buys a further byte reduction but replaces the\n\
         PAD decoder's bulk copies with bit-serial work — the trade the\n\
         framework would weigh via the PAD's overhead profile."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_misselects_without_ratios() {
        let r = ratio_ablation();
        assert_eq!(r.with_ratios, PadId(100), "full model picks the runnable player");
        assert!(r.linear_picked_infeasible, "linear model should fall into the trap");
        assert_ne!(r.with_ratios, r.linear_only);
    }

    #[test]
    fn rho_sweep_is_monotone_in_transmission_weight() {
        let sweep = rho_sweep();
        assert_eq!(sweep.len(), 8);
        // At low ρ transmission dominates → low-traffic protocols win on
        // slow links; the PDA never picks Direct anywhere in the band.
        for p in &sweep {
            assert_ne!(p.pda_pick, ProtocolId::Direct, "rho={}", p.rho);
        }
        // The paper's operating point (ρ=0.8) reproduces the headline picks.
        let at08 = sweep.iter().find(|p| (p.rho - 0.8).abs() < 1e-9).unwrap();
        assert_eq!(at08.laptop_pick, ProtocolId::Gzip);
        assert_eq!(at08.pda_pick, ProtocolId::Bitmap);
    }
}
