//! Shared experiment plumbing: the measured-session workbench.
//!
//! The figures of §4.4 all reduce to "run warm sessions of the 75-page
//! workload through one protocol for one client class and aggregate".
//! [`measure_protocol`] does exactly that by building a single-leaf PAT so
//! the negotiation is forced to the protocol under test, then running real
//! sessions (real encoders, real FVM decoding) and averaging the reports.

use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::session::{run_session, SessionReport};
use fractal_core::testbed::Testbed;
use fractal_net::time::SimDuration;
use fractal_protocols::ProtocolId;
use fractal_workload::mutate::EditProfile;
use fractal_workload::PageSet;

/// The workload seed shared by every figure so they describe the same
/// content.
pub const WORKLOAD_SEED: u64 = 2005;

/// Aggregated measurements for one (class, protocol) cell.
#[derive(Clone, Copy, Debug)]
pub struct CellReport {
    /// Protocol measured.
    pub protocol: ProtocolId,
    /// Client class measured.
    pub class: ClientClass,
    /// Mean server compute per page.
    pub server_compute: SimDuration,
    /// Mean client compute per page.
    pub client_compute: SimDuration,
    /// Mean wire bytes per page (up + down).
    pub bytes: u64,
    /// Mean transmission time per page.
    pub transmission: SimDuration,
    /// Mean total time per page (Figure 11(b)/(c)).
    pub total: SimDuration,
}

/// Runs `n_pages` warm sessions (client holds version 0, fetches version 1)
/// through `protocol` for `class`, with localized-edit evolution — the
/// paper's medical-imaging scenario.
pub fn measure_protocol(
    class: ClientClass,
    protocol: ProtocolId,
    n_pages: u32,
    mode: AdaptiveContentMode,
) -> CellReport {
    let reports = run_pages(&Testbed::with_protocols(&[protocol], mode), class, n_pages);
    for report in &reports {
        assert_eq!(report.protocol, protocol, "forced PAT must pick {protocol}");
    }
    aggregate(class, protocol, &reports)
}

/// Runs the *adaptive* scenario: the full four-protocol PAT, letting the
/// negotiation pick. Returns the aggregate plus the protocol it picked.
pub fn measure_adaptive(
    class: ClientClass,
    n_pages: u32,
    mode: AdaptiveContentMode,
    exclude_server_compute: bool,
) -> (CellReport, ProtocolId) {
    let mut tb = Testbed::case_study(mode);
    if exclude_server_compute {
        tb.proxy.set_mode(fractal_core::overhead::ServerComputeMode::Exclude);
    }
    let reports = run_pages(&tb, class, n_pages);
    let picked = reports[0].protocol;
    (aggregate(class, picked, &reports), picked)
}

/// The page loop both measurements share: one client of `class` on `tb`,
/// each page published at versions 0 and 1, the client warmed with
/// version 0 (that transfer is not counted) and fetching version 1.
fn run_pages(tb: &Testbed, class: ClientClass, n_pages: u32) -> Vec<SessionReport> {
    let pages = PageSet::new(WORKLOAD_SEED, n_pages);
    let link = class.link();
    let mut client = tb.client(class);
    (0..n_pages)
        .map(|page| {
            let v0 = pages.original(page).to_bytes();
            let v1 = pages.version(page, 1, EditProfile::Localized).to_bytes();
            tb.server.publish(page, v0.clone());
            tb.server.publish(page, v1);
            client.store_content(page, 0, v0);
            run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, page, 1)
                .expect("session succeeds")
        })
        .collect()
}

fn aggregate(class: ClientClass, protocol: ProtocolId, reports: &[SessionReport]) -> CellReport {
    let n = reports.len() as u64;
    let mean =
        |f: &dyn Fn(&SessionReport) -> u64| -> u64 { reports.iter().map(f).sum::<u64>() / n };
    CellReport {
        protocol,
        class,
        server_compute: SimDuration::micros(mean(&|r| r.server_compute.as_micros())),
        client_compute: SimDuration::micros(mean(&|r| r.client_compute.as_micros())),
        bytes: mean(&|r| r.traffic.total()),
        transmission: SimDuration::micros(mean(&|r| r.transmission.as_micros())),
        total: SimDuration::micros(mean(&|r| r.total().as_micros())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_protocol_is_used() {
        let cell = measure_protocol(
            ClientClass::DesktopLan,
            ProtocolId::Gzip,
            2,
            AdaptiveContentMode::Reactive,
        );
        assert_eq!(cell.protocol, ProtocolId::Gzip);
        assert!(cell.bytes > 0);
        assert!(cell.total > SimDuration::ZERO);
    }

    #[test]
    fn adaptive_picks_per_class() {
        let (_, picked) =
            measure_adaptive(ClientClass::DesktopLan, 2, AdaptiveContentMode::Reactive, false);
        assert_eq!(picked, ProtocolId::Direct);
    }
}
