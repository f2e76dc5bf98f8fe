//! Figure 11: (a) bytes transferred per protocol; (b) total time with
//! server-side difference computing; (c) total time without.
//!
//! Expected shape (paper §4.4.2): Direct moves the most bytes, Vary-sized
//! blocking the least, Gzip and Bitmap in between. With server compute the
//! winners are Direct (Desktop/LAN), Gzip (Laptop/WLAN), Bitmap (PDA/BT);
//! without it the PDA's winner becomes Vary-sized blocking while the other
//! two keep theirs.

use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_protocols::ProtocolId;

use crate::report::{kb, render_table, secs};
use crate::workbench::{Cells, Measured};

/// The full figure: every priced cell, in both modes, each mode measured
/// when first read. Figure 10 and the headline are views of the same cells.
#[derive(Clone, Debug)]
pub struct Figure11 {
    /// Workload pages the cells are measured over.
    pub n_pages: u32,
    cells: Measured,
}

/// The figure over `n_pages` of the workload, rendered once; a mode's
/// cells are measured when first read.
pub fn run(n_pages: u32) -> Figure11 {
    Figure11 { n_pages, cells: Measured::new(n_pages) }
}

impl Figure11 {
    /// Cells with server compute (panels (a) and (b)).
    pub fn with_server(&self) -> &Cells {
        self.cells.cells(AdaptiveContentMode::Reactive)
    }

    /// The same without server compute (panel (c)).
    pub fn without_server(&self) -> &Cells {
        self.cells.cells(AdaptiveContentMode::Proactive)
    }

    /// Mean bytes per page per protocol (panel (a)): the paper notes they
    /// are the same across client classes for identical requests, and here
    /// one trace set prices every class (P53).
    pub fn bytes_per_protocol(&self) -> Vec<(ProtocolId, u64)> {
        let bytes = |p| self.with_server().forced(ClientClass::DesktopLan, p).bytes;
        ProtocolId::PAPER_FOUR.map(|p| (p, bytes(p))).into()
    }
}

/// The 3-page figure the crate's unit tests read, measured once for all.
#[cfg(test)]
pub(crate) fn shared() -> &'static Figure11 {
    static FIGURE: std::sync::OnceLock<Figure11> = std::sync::OnceLock::new();
    FIGURE.get_or_init(|| run(3))
}

/// Prints Figure 11: (a) bytes transferred, (b) total time with
/// server-side computing, (c) total time without.
pub fn print(fig: &Figure11) {
    println!("Figure 11 over {} pages (warm sessions, localized edits)\n", fig.n_pages);

    println!("(a) bytes transferred per page (mean, up + down)");
    let rows: Vec<Vec<String>> = fig
        .bytes_per_protocol()
        .into_iter()
        .map(|(p, b)| vec![p.name().to_string(), kb(b)])
        .collect();
    println!("{}", render_table(&["protocol", "KB"], &rows));
    println!("paper expectation: Direct most, Vary-sized least, Gzip/Bitmap between\n");

    for (label, with_server) in [
        ("(b) total time WITH server-side computing (s)", true),
        ("(c) total time WITHOUT server-side computing (s)", false),
    ] {
        println!("{label}");
        let cells = if with_server { fig.with_server() } else { fig.without_server() };
        let mut rows = Vec::new();
        for p in ProtocolId::PAPER_FOUR {
            let mut row = vec![p.name().to_string()];
            for class in ClientClass::ALL {
                row.push(secs(cells.forced(class, p).total));
            }
            rows.push(row);
        }
        println!("{}", render_table(&["protocol", "Desktop/LAN", "Laptop/WLAN", "PDA/BT"], &rows));
        for c in &cells.adaptive {
            println!("  adaptive pick for {}: {}", c.class, c.protocol);
        }
        println!();
    }
    println!("paper expectation: winners Direct/Gzip/Bitmap with server computing;");
    println!("PDA winner becomes Vary-sized blocking without it.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_shape_holds() {
        let fig = shared();

        // Panel (a): the per-protocol byte means, exactly — payload plus
        // the APP_REQ the protocol really sends plus the PAD's upstream
        // message — so byte accounting cannot drift unnoticed; then the
        // ordering Direct > {Gzip, Bitmap} > Vary.
        assert_eq!(
            fig.bytes_per_protocol(),
            [
                (ProtocolId::Direct, 135_339),
                (ProtocolId::Gzip, 47_612),
                (ProtocolId::Bitmap, 17_664),
                (ProtocolId::VaryBlock, 15_492),
            ]
        );
        let bytes: std::collections::HashMap<_, _> = fig.bytes_per_protocol().into_iter().collect();
        assert!(bytes[&ProtocolId::Direct] > bytes[&ProtocolId::Gzip]);
        assert!(bytes[&ProtocolId::Direct] > bytes[&ProtocolId::Bitmap]);
        assert!(bytes[&ProtocolId::Gzip] > bytes[&ProtocolId::VaryBlock]);
        assert!(bytes[&ProtocolId::Bitmap] > bytes[&ProtocolId::VaryBlock]);

        // Panel (b): winners per class.
        let picks = |class| fig.with_server().adaptive(class).protocol;
        assert_eq!(picks(ClientClass::DesktopLan), ProtocolId::Direct);
        assert_eq!(picks(ClientClass::LaptopWlan), ProtocolId::Gzip);
        assert_eq!(picks(ClientClass::PdaBluetooth), ProtocolId::Bitmap);

        // Panel (c): PDA flips to Vary, others keep theirs.
        let picks_wo = |class| fig.without_server().adaptive(class).protocol;
        assert_eq!(picks_wo(ClientClass::DesktopLan), ProtocolId::Direct);
        assert_eq!(picks_wo(ClientClass::LaptopWlan), ProtocolId::Gzip);
        assert_eq!(picks_wo(ClientClass::PdaBluetooth), ProtocolId::VaryBlock);
    }

    #[test]
    fn measured_winner_matches_negotiated_winner() {
        // "The adaptive protocols pointed by the oval … comply exactly with
        // the negotiation results from Fractal."
        //
        // The negotiation winner minimizes the *model's* overhead estimate
        // for standardized 1MB content; the measured totals come from real
        // workload pages through real encoders. Where two protocols land
        // within a few percent of each other (Bitmap vs Gzip on PDA/BT the
        // estimate-vs-measurement gap is ~3%), the measured ordering can
        // flip, so the winner must be best within a 5% tolerance band
        // rather than strictly minimal.
        const TOLERANCE: f64 = 1.05;
        let fig = shared();
        for class in ClientClass::ALL {
            let picked = fig.with_server().adaptive(class).protocol;
            let picked_total = fig.with_server().forced(class, picked).total;
            for p in ProtocolId::PAPER_FOUR {
                let t = fig.with_server().forced(class, p).total;
                let band = t.as_secs_f64() * TOLERANCE;
                assert!(
                    picked_total.as_secs_f64() <= band,
                    "{class}: negotiated {picked} ({picked_total}) beaten by {p} ({t}) \
                     beyond the {TOLERANCE}x tolerance band"
                );
            }
        }
    }
}
