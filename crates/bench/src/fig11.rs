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
use crate::workbench::{measure_adaptive, measure_protocol, CellReport};

/// The full figure: one matrix of cells per panel.
#[derive(Clone, Debug)]
pub struct Figure11 {
    /// (class, protocol) cells with server compute (panels (a) and (b)).
    pub with_server: Vec<CellReport>,
    /// The same without server compute (panel (c)).
    pub without_server: Vec<CellReport>,
    /// Adaptive pick per class with server compute.
    pub picks_with: Vec<(ClientClass, ProtocolId)>,
    /// Adaptive pick per class without server compute.
    pub picks_without: Vec<(ClientClass, ProtocolId)>,
}

/// Runs the figure over `n_pages` of the workload.
pub fn run(n_pages: u32) -> Figure11 {
    let mut with_server = Vec::new();
    let mut without_server = Vec::new();
    let mut picks_with = Vec::new();
    let mut picks_without = Vec::new();
    for class in ClientClass::ALL {
        for protocol in ProtocolId::PAPER_FOUR {
            with_server.push(measure_protocol(
                class,
                protocol,
                n_pages,
                AdaptiveContentMode::Reactive,
            ));
            without_server.push(measure_protocol(
                class,
                protocol,
                n_pages,
                AdaptiveContentMode::Proactive,
            ));
        }
        let (_, p_with) = measure_adaptive(class, n_pages, AdaptiveContentMode::Reactive, false);
        picks_with.push((class, p_with));
        let (_, p_without) = measure_adaptive(class, n_pages, AdaptiveContentMode::Proactive, true);
        picks_without.push((class, p_without));
    }
    Figure11 { with_server, without_server, picks_with, picks_without }
}

impl Figure11 {
    /// Mean bytes per protocol (panel (a); the paper notes bytes are the
    /// same across client classes for identical requests).
    pub fn bytes_per_protocol(&self) -> Vec<(ProtocolId, u64)> {
        ProtocolId::PAPER_FOUR
            .iter()
            .map(|&p| {
                let cells: Vec<&CellReport> =
                    self.with_server.iter().filter(|c| c.protocol == p).collect();
                let mean = cells.iter().map(|c| c.bytes).sum::<u64>() / cells.len() as u64;
                (p, mean)
            })
            .collect()
    }

    /// The cell for (class, protocol) in the with-server panel.
    pub fn cell_with(&self, class: ClientClass, protocol: ProtocolId) -> &CellReport {
        self.with_server
            .iter()
            .find(|c| c.class == class && c.protocol == protocol)
            .expect("cell exists")
    }

    /// The cell for (class, protocol) in the without-server panel.
    pub fn cell_without(&self, class: ClientClass, protocol: ProtocolId) -> &CellReport {
        self.without_server
            .iter()
            .find(|c| c.class == class && c.protocol == protocol)
            .expect("cell exists")
    }
}

/// Prints Figure 11: (a) bytes transferred, (b) total time with
/// server-side computing, (c) total time without.
pub fn print(n_pages: u32) {
    println!("Figure 11 over {n_pages} pages (warm sessions, localized edits)\n");
    let fig = run(n_pages);

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
        let mut rows = Vec::new();
        for p in ProtocolId::PAPER_FOUR {
            let mut row = vec![p.name().to_string()];
            for class in ClientClass::ALL {
                let cell =
                    if with_server { fig.cell_with(class, p) } else { fig.cell_without(class, p) };
                row.push(secs(cell.total));
            }
            rows.push(row);
        }
        println!("{}", render_table(&["protocol", "Desktop/LAN", "Laptop/WLAN", "PDA/BT"], &rows));
        let picks = if with_server { &fig.picks_with } else { &fig.picks_without };
        for (class, p) in picks {
            println!("  adaptive pick for {class}: {p}");
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
        let fig = run(3);

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
        let picks: std::collections::HashMap<_, _> = fig.picks_with.iter().copied().collect();
        assert_eq!(picks[&ClientClass::DesktopLan], ProtocolId::Direct);
        assert_eq!(picks[&ClientClass::LaptopWlan], ProtocolId::Gzip);
        assert_eq!(picks[&ClientClass::PdaBluetooth], ProtocolId::Bitmap);

        // Panel (c): PDA flips to Vary, others keep theirs.
        let picks_wo: std::collections::HashMap<_, _> = fig.picks_without.iter().copied().collect();
        assert_eq!(picks_wo[&ClientClass::DesktopLan], ProtocolId::Direct);
        assert_eq!(picks_wo[&ClientClass::LaptopWlan], ProtocolId::Gzip);
        assert_eq!(picks_wo[&ClientClass::PdaBluetooth], ProtocolId::VaryBlock);
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
        let fig = run(3);
        for &(class, picked) in &fig.picks_with {
            let picked_total = fig.cell_with(class, picked).total;
            for p in ProtocolId::PAPER_FOUR {
                let t = fig.cell_with(class, p).total;
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
