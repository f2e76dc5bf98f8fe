//! Shared experiment plumbing: the measured-session workbench.
//!
//! The figures of §4.4 all reduce to "run warm sessions of the 75-page
//! workload through one protocol for one client class and aggregate".
//! [`measure_protocol`] does exactly that by building a single-leaf PAT so
//! the negotiation is forced to the protocol under test, then running real
//! sessions (real encoders, real FVM decoding) and averaging the reports.
//! A figure renders its pages once, with [`workload_pages`], and hands
//! the same pairs to every cell it measures.

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

/// One page of the figure workload: the version a warmed client holds
/// and the one it fetches.
#[derive(Clone, Debug)]
pub struct PagePair {
    /// Version 0 bytes.
    pub v0: Vec<u8>,
    /// Version 1 bytes (localized edits of `v0`).
    pub v1: Vec<u8>,
}

/// The first `n_pages` pages of the shared workload, each stepped once
/// from its original along the localized-edit chain. The one place the
/// harness synthesizes pages (an audit holds it to that): rendering is
/// most of what a page costs, so a figure builds its set here once.
pub fn workload_pages(n_pages: u32) -> Vec<PagePair> {
    let set = PageSet::new(WORKLOAD_SEED, n_pages);
    (0..n_pages)
        .map(|id| {
            let mut chain = set.versions(id, EditProfile::Localized);
            let mut next = || chain.next().expect("a version chain never ends").to_bytes();
            PagePair { v0: next(), v1: next() }
        })
        .collect()
}

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

/// Runs one warm session per page of `pages` (client holds version 0,
/// fetches version 1) through `protocol` for `class`, with localized-edit
/// evolution — the paper's medical-imaging scenario.
pub fn measure_protocol(
    class: ClientClass,
    protocol: ProtocolId,
    pages: &[PagePair],
    mode: AdaptiveContentMode,
) -> CellReport {
    let reports = run_pages(&Testbed::with_protocols(&[protocol], mode), class, pages);
    for report in &reports {
        assert_eq!(report.protocol, protocol, "forced PAT must pick {protocol}");
    }
    aggregate(class, protocol, &reports)
}

/// Runs the *adaptive* scenario: the full four-protocol PAT, letting the
/// negotiation pick. Returns the aggregate plus the protocol it picked.
pub fn measure_adaptive(
    class: ClientClass,
    pages: &[PagePair],
    mode: AdaptiveContentMode,
) -> (CellReport, ProtocolId) {
    let reports = run_pages(&Testbed::case_study(mode), class, pages);
    let picked = reports[0].protocol;
    (aggregate(class, picked, &reports), picked)
}

/// The page loop both measurements share: one client of `class` on `tb`,
/// each page published at versions 0 and 1, the client warmed with
/// version 0 (that transfer is not counted) and fetching version 1.
fn run_pages(tb: &Testbed, class: ClientClass, pages: &[PagePair]) -> Vec<SessionReport> {
    let link = class.link();
    let mut client = tb.client(class);
    (0u32..)
        .zip(pages)
        .map(|(page, PagePair { v0, v1 })| {
            tb.server.publish(page, v0.clone());
            tb.server.publish(page, v1.clone());
            client.store_content(page, 0, v0.clone());
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
            &workload_pages(2),
            AdaptiveContentMode::Reactive,
        );
        assert_eq!(cell.protocol, ProtocolId::Gzip);
        assert!(cell.bytes > 0);
        assert!(cell.total > SimDuration::ZERO);
    }

    #[test]
    fn adaptive_picks_per_class() {
        let (_, picked) = measure_adaptive(
            ClientClass::DesktopLan,
            &workload_pages(2),
            AdaptiveContentMode::Reactive,
        );
        assert_eq!(picked, ProtocolId::Direct);
    }
}
