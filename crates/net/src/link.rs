//! Network link profiles and transfer-time math.
//!
//! The experimental platform (paper Figure 7) connects three client classes
//! over LAN, Wireless LAN, and Bluetooth. Each [`Link`] has a nominal
//! bandwidth, a propagation latency, and the application-level utilization
//! factor ρ from Equation 3 ("usually between 0.6 to 0.8 … we approximate
//! ρ as 0.8"): the achievable goodput is `ρ × bandwidth`.

use crate::time::SimDuration;

/// The link technologies modeled (2005-era nominal rates). The
/// discriminant is the id INP's network metadata carries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// Switched Ethernet LAN: 100 Mbps, sub-millisecond latency.
    Lan = 0,
    /// 802.11b wireless LAN: 11 Mbps, a couple of milliseconds.
    Wlan = 1,
    /// Bluetooth 1.x: 723 kbps, tens of milliseconds.
    Bluetooth = 2,
    /// V.90 dialup: 56 kbps, ~150 ms.
    Dialup = 3,
    /// Wide-area path (client ↔ distant server): 1.5 Mbps, ~40 ms.
    Wan = 4,
}

impl LinkKind {
    /// All kinds, for sweeps.
    pub const ALL: [LinkKind; 5] =
        [LinkKind::Lan, LinkKind::Wlan, LinkKind::Bluetooth, LinkKind::Dialup, LinkKind::Wan];

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            LinkKind::Lan => "LAN",
            LinkKind::Wlan => "Wireless LAN",
            LinkKind::Bluetooth => "Bluetooth",
            LinkKind::Dialup => "Dialup",
            LinkKind::Wan => "WAN",
        }
    }

    /// Nominal bandwidth in kbps.
    pub fn bandwidth_kbps(self) -> u64 {
        match self {
            LinkKind::Lan => 100_000,
            LinkKind::Wlan => 11_000,
            LinkKind::Bluetooth => 723,
            LinkKind::Dialup => 56,
            LinkKind::Wan => 1_500,
        }
    }

    /// One-way propagation latency.
    pub fn latency(self) -> SimDuration {
        match self {
            LinkKind::Lan => SimDuration::micros(200),
            LinkKind::Wlan => SimDuration::millis(2),
            LinkKind::Bluetooth => SimDuration::millis(20),
            LinkKind::Dialup => SimDuration::millis(150),
            LinkKind::Wan => SimDuration::millis(40),
        }
    }

    /// Builds the default link for this kind (ρ = 0.8, the paper's value).
    pub fn link(self) -> Link {
        Link {
            kind: self,
            bandwidth_kbps: self.bandwidth_kbps(),
            latency: self.latency(),
            rho: 0.8,
        }
    }
}

impl core::fmt::Display for LinkKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete link with its transfer-time model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Link {
    /// The technology (drives defaults and reporting).
    pub kind: LinkKind,
    /// Nominal bandwidth in kbps.
    pub bandwidth_kbps: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Application-level utilization factor ρ (Equation 3).
    pub rho: f64,
}

impl Link {
    /// Returns a copy with a different ρ (for the ρ-sensitivity ablation).
    pub fn with_rho(mut self, rho: f64) -> Link {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        self.rho = rho;
        self
    }

    /// Achievable goodput in bytes per second (`ρ × bandwidth`).
    pub fn goodput_bytes_per_sec(&self) -> f64 {
        self.rho * self.bandwidth_kbps as f64 * 1000.0 / 8.0
    }

    /// Pure serialization time for `bytes` (no latency term).
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.goodput_bytes_per_sec())
    }

    /// One-way transfer time for a message of `bytes`: latency plus
    /// serialization at goodput.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + self.serialization_time(bytes)
    }

    /// Round-trip time for a small control message.
    pub fn rtt(&self) -> SimDuration {
        self.latency + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_speed() {
        assert!(LinkKind::Lan.bandwidth_kbps() > LinkKind::Wlan.bandwidth_kbps());
        assert!(LinkKind::Wlan.bandwidth_kbps() > LinkKind::Bluetooth.bandwidth_kbps());
        assert!(LinkKind::Bluetooth.bandwidth_kbps() > LinkKind::Dialup.bandwidth_kbps());
        assert!(LinkKind::Lan.latency() < LinkKind::Bluetooth.latency());
    }

    #[test]
    fn transfer_time_math() {
        // 1 MB over a 1 Mbps link at ρ=0.8: 8 Mbit / 0.8 Mbps = 10 s.
        let link = Link {
            kind: LinkKind::Wan,
            bandwidth_kbps: 1000,
            latency: SimDuration::ZERO,
            rho: 0.8,
        };
        let t = link.transfer_time(1_000_000);
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-6, "{t}");
    }

    #[test]
    fn latency_dominates_small_messages() {
        let link = LinkKind::Bluetooth.link();
        let t = link.transfer_time(10);
        assert!(t >= link.latency);
        assert!(t < link.latency + SimDuration::millis(1));
    }

    #[test]
    fn rho_scales_goodput() {
        let fast = LinkKind::Wlan.link().with_rho(1.0);
        let slow = LinkKind::Wlan.link().with_rho(0.5);
        let bytes = 1_000_000;
        let tf = fast.serialization_time(bytes).as_micros() as f64;
        let ts = slow.serialization_time(bytes).as_micros() as f64;
        assert!((ts / tf - 2.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "rho must be")]
    fn invalid_rho_panics() {
        let _ = LinkKind::Lan.link().with_rho(0.0);
    }

    #[test]
    fn exchange_and_rtt() {
        let link = LinkKind::Lan.link();
        assert_eq!(link.rtt().as_micros(), 400);
        // A request/response exchange is one transfer each way, so it
        // costs more than the bare round trip.
        assert!(link.transfer_time(100) + link.transfer_time(100) > link.rtt());
    }

    #[test]
    fn bluetooth_page_transfer_is_seconds() {
        // The paper's 135 KB page over Bluetooth should take ~2 s — the
        // regime where differencing protocols win.
        let t = LinkKind::Bluetooth.link().transfer_time(135 * 1024);
        assert!(t.as_secs_f64() > 1.0 && t.as_secs_f64() < 4.0, "{t}");
    }

    #[test]
    fn lan_page_transfer_is_milliseconds() {
        let t = LinkKind::Lan.link().transfer_time(135 * 1024);
        assert!(t.as_secs_f64() < 0.05, "{t}");
    }
}
