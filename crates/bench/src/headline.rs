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
//!
//! All three are cells of Figure 11 with server-side computing.

use fractal_core::presets::ClientClass;
use fractal_protocols::ProtocolId;

use crate::fig11::Figure11;
use crate::report::{render_table, secs};
use crate::workbench::CellReport;

/// The comparison for one client class.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    /// Client class.
    pub class: ClientClass,
    /// The Direct-only scenario.
    pub none: CellReport,
    /// The static Vary-sized-blocking scenario.
    pub fixed: CellReport,
    /// Full Fractal; its `protocol` is what Fractal picked.
    pub adaptive: CellReport,
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

/// The three scenarios for every class, read off Figure 11's cells with
/// server-side computing.
pub fn comparisons(fig: &Figure11) -> [Comparison; 3] {
    let cells = fig.with_server();
    ClientClass::ALL.map(|class| Comparison {
        class,
        none: *cells.forced(class, ProtocolId::Direct),
        fixed: *cells.forced(class, ProtocolId::VaryBlock),
        adaptive: *cells.adaptive(class),
    })
}

/// Prints the headline comparison: adaptive Fractal vs. no adaptation and
/// vs. static adaptation.
pub fn print(fig: &Figure11) {
    println!("Headline comparison over {} pages (warm sessions)\n", fig.n_pages);

    let rows: Vec<Vec<String>> = comparisons(fig)
        .into_iter()
        .map(|c| {
            vec![
                c.class.name().to_string(),
                secs(c.none.total),
                secs(c.fixed.total),
                secs(c.adaptive.total),
                c.adaptive.protocol.name().to_string(),
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
    use crate::fig11::shared;

    #[test]
    fn some_client_sees_large_reduction_vs_none() {
        let comps = comparisons(shared());
        // "For some clients" — the PDA on Bluetooth is the paper's best
        // case. Tens of percent vs. no adaptation.
        let best = comps.iter().map(|c| c.vs_none()).fold(f64::MIN, f64::max);
        assert!(best > 0.30, "best reduction vs none was {best:.2}");
    }

    #[test]
    fn some_client_sees_positive_reduction_vs_static() {
        let comps = comparisons(shared());
        let best = comps.iter().map(|c| c.vs_fixed()).fold(f64::MIN, f64::max);
        assert!(best > 0.05, "best reduction vs static was {best:.2}");
    }

    #[test]
    fn adaptive_never_loses_to_either_baseline() {
        for c in comparisons(shared()) {
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
