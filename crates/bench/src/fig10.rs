//! Figure 10: computing overhead (server + client) per protocol per client
//! configuration, in the three adaptation scenarios, with and without
//! server-side computing.
//!
//! Panels (a)–(c) include the server-side term; panel (d) repeats the PDA
//! with server compute pre-computed (proactive adaptive content), where the
//! negotiated protocol flips from Bitmap to Vary-sized blocking.

use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_protocols::ProtocolId;

use crate::report::{ms, render_table};
use crate::workbench::{measure_adaptive, measure_protocol, workload_pages, CellReport, PagePair};

/// One panel of the figure: every protocol measured for one class, plus
/// the adaptive pick.
#[derive(Clone, Debug)]
pub struct Panel {
    /// The client configuration.
    pub class: ClientClass,
    /// Whether server compute is on the request path.
    pub with_server_compute: bool,
    /// Per-protocol measurements.
    pub cells: Vec<CellReport>,
    /// What full Fractal negotiates for this class.
    pub adaptive_pick: ProtocolId,
}

/// Runs one panel over `pages` of the workload.
pub fn run_panel(class: ClientClass, with_server_compute: bool, pages: &[PagePair]) -> Panel {
    let mode = if with_server_compute {
        AdaptiveContentMode::Reactive
    } else {
        AdaptiveContentMode::Proactive
    };
    let cells =
        ProtocolId::PAPER_FOUR.iter().map(|&p| measure_protocol(class, p, pages, mode)).collect();
    let (_, adaptive_pick) = measure_adaptive(class, pages, mode);
    Panel { class, with_server_compute, cells, adaptive_pick }
}

/// All four panels: (a) desktop, (b) laptop, (c) PDA with server compute;
/// (d) PDA without; all four over one rendering of `n_pages` pages.
pub fn run_all(n_pages: u32) -> Vec<Panel> {
    let pages = workload_pages(n_pages);
    vec![
        run_panel(ClientClass::DesktopLan, true, &pages),
        run_panel(ClientClass::LaptopWlan, true, &pages),
        run_panel(ClientClass::PdaBluetooth, true, &pages),
        run_panel(ClientClass::PdaBluetooth, false, &pages),
    ]
}

/// Prints Figure 10, panels (a)–(d).
pub fn print(n_pages: u32) {
    println!("Figure 10: computing overhead (server + client) per protocol");
    println!("workload: {n_pages} pages, warm sessions, localized edits\n");

    for (i, panel) in run_all(n_pages).into_iter().enumerate() {
        let label = ["(a)", "(b)", "(c)", "(d)"][i];
        let mode = if panel.with_server_compute {
            "with server-side computing"
        } else {
            "without server-side computing (proactive)"
        };
        println!("panel {label}: {} — {mode}", panel.class);
        let rows: Vec<Vec<String>> = panel
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.protocol.name().to_string(),
                    ms(c.server_compute),
                    ms(c.client_compute),
                    ms(c.server_compute + c.client_compute),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["protocol", "server (ms)", "client (ms)", "total compute (ms)"], &rows)
        );
        println!("negotiated (adaptive) protocol: {}\n", panel.adaptive_pick);
    }
    println!("paper expectation: vary-sized blocking's server compute dominates (a)-(c);");
    println!("panel (d) PDA adaptive pick flips from Bitmap to Vary-sized blocking.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_net::time::SimDuration;

    #[test]
    fn varyblock_server_compute_dominates() {
        // The paper: "Vary-sized blocking has huge server side computing
        // time, which disqualifies it" (Fig. 10(a–c)).
        let panel = run_panel(ClientClass::LaptopWlan, true, &workload_pages(3));
        let vary = panel.cells.iter().find(|c| c.protocol == ProtocolId::VaryBlock).unwrap();
        for c in &panel.cells {
            if c.protocol != ProtocolId::VaryBlock {
                assert!(
                    vary.server_compute > c.server_compute.scale(5.0),
                    "vary {} vs {} {}",
                    vary.server_compute,
                    c.protocol,
                    c.server_compute
                );
            }
        }
        assert_ne!(panel.adaptive_pick, ProtocolId::VaryBlock);
    }

    #[test]
    fn pda_panel_d_flips_to_varyblock() {
        let pages = workload_pages(3);
        let with = run_panel(ClientClass::PdaBluetooth, true, &pages);
        assert_eq!(with.adaptive_pick, ProtocolId::Bitmap);
        let without = run_panel(ClientClass::PdaBluetooth, false, &pages);
        assert_eq!(without.adaptive_pick, ProtocolId::VaryBlock);
        // Panel (d): server compute off the request path.
        let vary_d = without.cells.iter().find(|c| c.protocol == ProtocolId::VaryBlock).unwrap();
        assert!(vary_d.server_compute < SimDuration::millis(1));
    }
}
