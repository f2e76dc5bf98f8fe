//! Figure 10: computing overhead (server + client) per protocol per client
//! configuration, in the three adaptation scenarios, with and without
//! server-side computing.
//!
//! Panels (a)–(c) include the server-side term; panel (d) repeats the PDA
//! with server compute pre-computed (proactive adaptive content), where the
//! negotiated protocol flips from Bitmap to Vary-sized blocking. The
//! cells are Figure 11's, read panel by panel.

use fractal_core::presets::ClientClass;
use fractal_protocols::ProtocolId;

use crate::fig11::Figure11;
use crate::report::{ms, render_table};

/// Prints Figure 10, panels (a)–(d): (a) desktop, (b) laptop, (c) PDA
/// with server compute; (d) PDA without.
pub fn print(fig: &Figure11) {
    println!("Figure 10: computing overhead (server + client) per protocol");
    println!("workload: {} pages, warm sessions, localized edits\n", fig.n_pages);

    for (label, class, with_server) in [
        ("(a)", ClientClass::DesktopLan, true),
        ("(b)", ClientClass::LaptopWlan, true),
        ("(c)", ClientClass::PdaBluetooth, true),
        ("(d)", ClientClass::PdaBluetooth, false),
    ] {
        let cells = if with_server { fig.with_server() } else { fig.without_server() };
        let mode = if with_server {
            "with server-side computing"
        } else {
            "without server-side computing (proactive)"
        };
        println!("panel {label}: {class} — {mode}");
        let rows: Vec<Vec<String>> = ProtocolId::PAPER_FOUR
            .iter()
            .map(|&p| {
                let c = cells.forced(class, p);
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
        println!("negotiated (adaptive) protocol: {}\n", cells.adaptive(class).protocol);
    }
    println!("paper expectation: vary-sized blocking's server compute dominates (a)-(c);");
    println!("panel (d) PDA adaptive pick flips from Bitmap to Vary-sized blocking.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig11::shared;
    use fractal_net::time::SimDuration;

    #[test]
    fn varyblock_server_compute_dominates() {
        // The paper: "Vary-sized blocking has huge server side computing
        // time, which disqualifies it" (Fig. 10(a–c)); panel (b).
        let fig = shared();
        let (panel, class) = (fig.with_server(), ClientClass::LaptopWlan);
        let vary = panel.forced(class, ProtocolId::VaryBlock);
        for c in ProtocolId::PAPER_FOUR.map(|p| panel.forced(class, p)) {
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
        assert_ne!(panel.adaptive(class).protocol, ProtocolId::VaryBlock);
    }

    #[test]
    fn pda_panel_d_flips_to_varyblock() {
        let fig = shared();
        let (with, without) = (fig.with_server(), fig.without_server());
        assert_eq!(with.adaptive(ClientClass::PdaBluetooth).protocol, ProtocolId::Bitmap);
        assert_eq!(without.adaptive(ClientClass::PdaBluetooth).protocol, ProtocolId::VaryBlock);
        // Panel (d): server compute off the request path.
        let vary_d = without.forced(ClientClass::PdaBluetooth, ProtocolId::VaryBlock);
        assert!(vary_d.server_compute < SimDuration::millis(1));
    }
}
