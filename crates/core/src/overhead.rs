//! The total-overhead estimator of Equations 1 and 3.
//!
//! For a client with CPU speed `c` MHz (processor type *i*, OS type *j*)
//! and network bandwidth `w` kbps (network type *k*), the estimated total
//! overhead of a PAD over a session transferring `content` bytes is
//!
//! ```text
//! total = size(pad) / (ρ·w)                                  PAD download
//!       + β_j(pad) · server_comp(pad) · (Std_cpu / server_cpu)  server compute
//!       + α_i(pad) · β_j(pad) · client_comp(pad) · (Std_cpu / c)  client compute
//!       + γ_k(pad) · traffic(pad) / (ρ·w)                    session traffic
//! ```
//!
//! where compute profiles are normalized to the 500 MHz reference CPU
//! (`Std_cpu`, Equation 1), traffic to the content size via the PAD's
//! measured traffic ratio, and ρ defaults to the paper's 0.8. Any ∞ ratio
//! makes the total ∞, disqualifying the PAD (Figure 5's ∞-marked nodes).

use crate::meta::{ClientEnv, PadMeta};
use crate::ratio::Ratios;
use crate::server::AdaptiveContentMode;

/// `Std_cpu`: the 500 MHz reference processor of Equation 1.
pub const STD_CPU_MHZ: f64 = 500.0;
/// The paper's default application-level utilization factor.
pub const DEFAULT_RHO: f64 = 0.8;

/// A broken-down overhead estimate, in seconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OverheadBreakdown {
    /// PAD download time.
    pub pad_download_s: f64,
    /// Server-side compute (zero under [`AdaptiveContentMode::Proactive`]).
    pub server_compute_s: f64,
    /// Client-side compute.
    pub client_compute_s: f64,
    /// Session traffic transmission time.
    pub traffic_s: f64,
}

impl OverheadBreakdown {
    /// Sum of the components.
    pub fn total(&self) -> f64 {
        self.pad_download_s + self.server_compute_s + self.client_compute_s + self.traffic_s
    }
}

/// The Equation 3 estimator, parameterized by the ratio matrices, ρ, and
/// the server's own CPU speed.
#[derive(Clone, Debug)]
pub struct OverheadModel {
    /// The normalized ratio matrices (𝓐, 𝓑, 𝓡).
    pub ratios: Ratios,
    /// Application-level utilization factor ρ.
    pub rho: f64,
    /// The application server's CPU in MHz (server compute scales by
    /// `Std_cpu / server_cpu`).
    pub server_cpu_mhz: f64,
    /// How the server generates adaptive content (§3.1): reactively
    /// (encoded per request, so server compute is charged; Fig. 10(a–c),
    /// 11(b)) or proactively (pre-computed, so it is not; Fig. 10(d),
    /// 11(c), where the PDA's winner flips from Bitmap to Vary-sized
    /// blocking).
    pub mode: AdaptiveContentMode,
}

impl OverheadModel {
    /// The paper's configuration: ρ = 0.8, a 2.8 GHz application server,
    /// reactive content (server compute included).
    pub fn paper(ratios: Ratios) -> OverheadModel {
        OverheadModel {
            ratios,
            rho: DEFAULT_RHO,
            server_cpu_mhz: 2800.0,
            mode: AdaptiveContentMode::Reactive,
        }
    }

    /// Returns a copy pricing the server's content `mode`.
    pub fn with_mode(mut self, mode: AdaptiveContentMode) -> OverheadModel {
        self.mode = mode;
        self
    }

    /// Returns a copy with a different ρ (sensitivity ablation).
    pub fn with_rho(mut self, rho: f64) -> OverheadModel {
        assert!(rho > 0.0 && rho <= 1.0);
        self.rho = rho;
        self
    }

    /// Estimated total overhead (seconds) of `pad` for `client` over a
    /// session delivering `content_bytes`. Returns ∞ when any ratio
    /// disqualifies the PAD.
    pub fn pad_total(&self, pad: &PadMeta, client: &ClientEnv, content_bytes: u64) -> f64 {
        self.breakdown(pad, client, content_bytes).map_or(f64::INFINITY, |b| b.total())
    }

    /// Full component breakdown; `None` when the PAD is disqualified.
    pub fn breakdown(
        &self,
        pad: &PadMeta,
        client: &ClientEnv,
        content_bytes: u64,
    ) -> Option<OverheadBreakdown> {
        let alpha = self.ratios.cpu.get(pad.id, client.dev.cpu);
        let beta = self.ratios.os.get(pad.id, client.dev.os);
        let gamma = self.ratios.net.get(pad.id, client.ntwk.kind);
        if alpha.is_infinite() || beta.is_infinite() || gamma.is_infinite() {
            return None;
        }

        let goodput_bytes_per_s = self.rho * client.ntwk.bandwidth_kbps as f64 * 1000.0 / 8.0;

        let pad_download_s = pad.size as f64 / goodput_bytes_per_s;
        let server_compute_s = match self.mode {
            AdaptiveContentMode::Reactive => self.server_compute_s(pad, client, content_bytes),
            AdaptiveContentMode::Proactive => 0.0,
        };
        let client_compute_s = self.client_compute_s(pad, client, content_bytes);
        let traffic_s =
            gamma * pad.overhead.traffic_ratio * content_bytes as f64 / goodput_bytes_per_s;

        Some(OverheadBreakdown { pad_download_s, server_compute_s, client_compute_s, traffic_s })
    }

    /// Equation 3's server-compute term in seconds, whatever
    /// [`mode`](Self::mode) says: the session driver charges it whenever
    /// the server really encoded on request.
    pub fn server_compute_s(&self, pad: &PadMeta, client: &ClientEnv, content_bytes: u64) -> f64 {
        let beta = self.ratios.os.get(pad.id, client.dev.os);
        let content_mb = content_bytes as f64 / 1_000_000.0;
        beta * pad.overhead.server_ms_per_mb * content_mb * (STD_CPU_MHZ / self.server_cpu_mhz)
            / 1000.0
    }

    /// Equation 3's client-compute term in seconds.
    pub fn client_compute_s(&self, pad: &PadMeta, client: &ClientEnv, content_bytes: u64) -> f64 {
        let alpha = self.ratios.cpu.get(pad.id, client.dev.cpu);
        let beta = self.ratios.os.get(pad.id, client.dev.os);
        let content_mb = content_bytes as f64 / 1_000_000.0;
        alpha
            * beta
            * pad.overhead.client_ms_per_mb
            * content_mb
            * (STD_CPU_MHZ / client.dev.cpu_mhz as f64)
            / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{CpuType, DevMeta, NtwkMeta, OsType, PadId, PadOverhead};
    use fractal_net::link::LinkKind;
    use fractal_protocols::ProtocolId;

    fn pad(id: u64, server: f64, client: f64, ratio: f64, size: u32) -> PadMeta {
        PadMeta {
            id: PadId(id),
            protocol: ProtocolId::Gzip,
            size,
            overhead: PadOverhead {
                server_ms_per_mb: server,
                client_ms_per_mb: client,
                traffic_ratio: ratio,
            },
            digest: fractal_crypto::Digest::ZERO,
            url: String::new(),
            parent: None,
            children: vec![],
        }
    }

    fn client(cpu_mhz: u32, kind: LinkKind, bw: u32) -> ClientEnv {
        ClientEnv {
            dev: DevMeta {
                os: OsType::FedoraCore2,
                cpu: CpuType::PentiumIv2000,
                cpu_mhz,
                memory_mb: 512,
            },
            ntwk: NtwkMeta { kind, bandwidth_kbps: bw },
        }
    }

    #[test]
    fn traffic_term_matches_hand_math() {
        // Pure traffic PAD: ratio 1.0, 1 MB content, 1 Mbps at ρ=0.8 → 10 s.
        let model = OverheadModel::paper(Ratios::linear());
        let p = pad(1, 0.0, 0.0, 1.0, 0);
        let c = client(2000, LinkKind::Wan, 1000);
        let b = model.breakdown(&p, &c, 1_000_000).unwrap();
        assert!((b.traffic_s - 10.0).abs() < 1e-9, "{}", b.traffic_s);
        assert_eq!(b.server_compute_s, 0.0);
        assert_eq!(b.client_compute_s, 0.0);
    }

    #[test]
    fn client_compute_scales_inversely_with_cpu() {
        let model = OverheadModel::paper(Ratios::linear());
        let p = pad(1, 0.0, 1000.0, 0.0, 0);
        let fast = client(2000, LinkKind::Lan, 100_000);
        let slow = client(500, LinkKind::Lan, 100_000);
        let bf = model.breakdown(&p, &fast, 1_000_000).unwrap();
        let bs = model.breakdown(&p, &slow, 1_000_000).unwrap();
        // 1000 ms/MB at reference 500MHz: slow(500MHz) = 1.0 s, fast(2GHz) = 0.25 s.
        assert!((bs.client_compute_s - 1.0).abs() < 1e-9);
        assert!((bf.client_compute_s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn server_compute_mode_toggles_term() {
        let model = OverheadModel::paper(Ratios::linear());
        let p = pad(1, 2800.0, 0.0, 0.0, 0);
        let c = client(2000, LinkKind::Lan, 100_000);
        let with = model.breakdown(&p, &c, 1_000_000).unwrap();
        // 2800 ms/MB at 500MHz ref on a 2.8GHz server → ×(500/2800) → 0.5 s.
        assert!((with.server_compute_s - 0.5).abs() < 1e-9);
        let without = model
            .clone()
            .with_mode(AdaptiveContentMode::Proactive)
            .breakdown(&p, &c, 1_000_000)
            .unwrap();
        assert_eq!(without.server_compute_s, 0.0);
        assert!(without.total() < with.total());
    }

    #[test]
    fn pad_download_term() {
        let model = OverheadModel::paper(Ratios::linear());
        let p = pad(1, 0.0, 0.0, 0.0, 100_000); // 100 KB PAD
        let c = client(2000, LinkKind::Wan, 1000); // 0.8 Mbps goodput = 100 KB/s
        let b = model.breakdown(&p, &c, 0).unwrap();
        assert!((b.pad_download_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_ratio_disqualifies() {
        let mut ratios = Ratios::linear();
        ratios.os.set(PadId(1), OsType::FedoraCore2, f64::INFINITY);
        let model = OverheadModel::paper(ratios);
        let p = pad(1, 1.0, 1.0, 1.0, 10);
        let c = client(2000, LinkKind::Lan, 100_000);
        assert!(model.breakdown(&p, &c, 1000).is_none());
        assert!(model.pad_total(&p, &c, 1000).is_infinite());
    }

    #[test]
    fn finite_ratios_multiply() {
        let mut ratios = Ratios::linear();
        ratios.cpu.set(PadId(1), CpuType::PentiumIv2000, 2.0);
        let model = OverheadModel::paper(ratios);
        let p = pad(1, 0.0, 1000.0, 0.0, 0);
        let c = client(500, LinkKind::Lan, 100_000);
        let b = model.breakdown(&p, &c, 1_000_000).unwrap();
        assert!((b.client_compute_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rho_scales_transmission_terms() {
        let base = OverheadModel::paper(Ratios::linear());
        let loose = base.clone().with_rho(0.4);
        let p = pad(1, 0.0, 0.0, 1.0, 1000);
        let c = client(2000, LinkKind::Wan, 1000);
        let b1 = base.breakdown(&p, &c, 100_000).unwrap();
        let b2 = loose.breakdown(&p, &c, 100_000).unwrap();
        assert!((b2.traffic_s / b1.traffic_s - 2.0).abs() < 1e-9);
        assert!((b2.pad_download_s / b1.pad_download_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let model = OverheadModel::paper(Ratios::linear());
        let p = pad(1, 100.0, 100.0, 0.5, 5000);
        let c = client(2000, LinkKind::Wlan, 11_000);
        let b = model.breakdown(&p, &c, 135_000).unwrap();
        let sum = b.pad_download_s + b.server_compute_s + b.client_compute_s + b.traffic_s;
        assert!((b.total() - sum).abs() < 1e-12);
        assert!(b.total() > 0.0);
    }
}
