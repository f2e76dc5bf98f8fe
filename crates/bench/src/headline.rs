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

use crate::parallel;
use crate::report::{render_table, secs};
use crate::workbench::{measure_adaptive, measure_protocol, CellReport};

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

/// Runs the three scenarios for every class.
pub fn run(n_pages: u32) -> Vec<Comparison> {
    run_threads(n_pages, 1)
}

/// Runs the headline comparison with one worker per (class, scenario)
/// cell; each cell builds its own testbed, so the nine measurements are
/// independent.
pub fn run_threads(n_pages: u32, n_threads: usize) -> Vec<Comparison> {
    // Scenario encoding: cell 3k+0 = none, 3k+1 = fixed, 3k+2 = adaptive
    // (the adaptive cell also carries what the negotiation picked).
    let mode = AdaptiveContentMode::Reactive;
    let cells: Vec<(CellReport, ProtocolId)> =
        parallel::run_indexed(n_threads, ClientClass::ALL.len() * 3, |idx| {
            let class = ClientClass::ALL[idx / 3];
            match idx % 3 {
                0 => {
                    (measure_protocol(class, ProtocolId::Direct, n_pages, mode), ProtocolId::Direct)
                }
                1 => (
                    measure_protocol(class, ProtocolId::VaryBlock, n_pages, mode),
                    ProtocolId::VaryBlock,
                ),
                _ => measure_adaptive(class, n_pages, mode, false),
            }
        });
    cells
        .chunks_exact(3)
        .zip(ClientClass::ALL)
        .map(|(chunk, class)| Comparison {
            class,
            none: chunk[0].0,
            fixed: chunk[1].0,
            adaptive: chunk[2].0,
            picked: chunk[2].1,
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
    fn parallel_run_is_byte_identical_to_serial() {
        let serial = run(2);
        let par = run_threads(2, 4);
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.class, p.class);
            assert_eq!(s.picked, p.picked);
            assert_eq!(s.none.total, p.none.total);
            assert_eq!(s.fixed.total, p.fixed.total);
            assert_eq!(s.adaptive.total, p.adaptive.total);
            assert_eq!(s.adaptive.bytes, p.adaptive.bytes);
        }
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
