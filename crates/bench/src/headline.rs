//! The headline claim: "For some clients, the total communication overhead
//! reduces 41% compared with no protocol adaptation mechanism, and 14%
//! compared with the static protocol adaptation approach."
//!
//! Three scenarios over the same workload (paper §4.4.2):
//!
//! * **No protocol adaptation** — every client talks Direct.
//! * **Fixed (static) protocol adaptation** — "all clients always use one
//!   protocol, Vary-sized blocking, to talk with the Web server without
//!   the negotiation procedure".
//! * **Adaptive** — full Fractal.

use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_protocols::ProtocolId;

use crate::report::{render_table, secs};
use crate::workbench::{measure_adaptive, measure_protocol, workload_pages, CellReport};

/// The comparison for one client class.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    /// Client class.
    pub class: ClientClass,
    /// The Direct-only scenario.
    pub none: CellReport,
    /// The static Vary-sized-blocking scenario.
    pub fixed: CellReport,
    /// Full Fractal.
    pub adaptive: CellReport,
    /// What Fractal picked.
    pub picked: ProtocolId,
}

impl Comparison {
    /// Relative reduction of adaptive vs. no adaptation (0.41 ≙ 41%).
    pub fn vs_none(&self) -> f64 {
        1.0 - self.adaptive.total.as_secs_f64() / self.none.total.as_secs_f64()
    }

    /// Relative reduction of adaptive vs. static adaptation.
    pub fn vs_fixed(&self) -> f64 {
        1.0 - self.adaptive.total.as_secs_f64() / self.fixed.total.as_secs_f64()
    }
}

/// Runs the three scenarios for every class over one rendering of
/// `n_pages` pages; each measurement builds its own testbed.
pub fn run(n_pages: u32) -> Vec<Comparison> {
    let mode = AdaptiveContentMode::Reactive;
    let pages = workload_pages(n_pages);
    ClientClass::ALL
        .into_iter()
        .map(|class| {
            let none = measure_protocol(class, ProtocolId::Direct, &pages, mode);
            let fixed = measure_protocol(class, ProtocolId::VaryBlock, &pages, mode);
            let (adaptive, picked) = measure_adaptive(class, &pages, mode);
            Comparison { class, none, fixed, adaptive, picked }
        })
        .collect()
}

/// Prints the headline comparison: adaptive Fractal vs. no adaptation and
/// vs. static adaptation.
pub fn print(n_pages: u32) {
    println!("Headline comparison over {n_pages} pages (warm sessions)\n");

    let rows: Vec<Vec<String>> = run(n_pages)
        .into_iter()
        .map(|c| {
            vec![
                c.class.name().to_string(),
                secs(c.none.total),
                secs(c.fixed.total),
                secs(c.adaptive.total),
                c.picked.name().to_string(),
                format!("{:.0}%", c.vs_none() * 100.0),
                format!("{:.0}%", c.vs_fixed() * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "client",
                "none (s)",
                "static/vary (s)",
                "adaptive (s)",
                "picked",
                "vs none",
                "vs static"
            ],
            &rows
        )
    );
    println!("\npaper claim: for some clients −41% vs no adaptation, −14% vs static.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn some_client_sees_large_reduction_vs_none() {
        let comps = run(3);
        // "For some clients" — the PDA on Bluetooth is the paper's best
        // case. Tens of percent vs. no adaptation.
        let best = comps.iter().map(|c| c.vs_none()).fold(f64::MIN, f64::max);
        assert!(best > 0.30, "best reduction vs none was {best:.2}");
    }

    #[test]
    fn some_client_sees_positive_reduction_vs_static() {
        let comps = run(3);
        let best = comps.iter().map(|c| c.vs_fixed()).fold(f64::MIN, f64::max);
        assert!(best > 0.05, "best reduction vs static was {best:.2}");
    }

    #[test]
    fn adaptive_never_loses_to_either_baseline() {
        for c in run(3) {
            assert!(
                c.adaptive.total <= c.none.total,
                "{}: adaptive {} worse than none {}",
                c.class,
                c.adaptive.total,
                c.none.total
            );
            assert!(
                c.adaptive.total <= c.fixed.total,
                "{}: adaptive {} worse than fixed {}",
                c.class,
                c.adaptive.total,
                c.fixed.total
            );
        }
    }
}
