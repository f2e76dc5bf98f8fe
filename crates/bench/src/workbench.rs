//! Shared experiment plumbing: the measured-session workbench.
//!
//! Figures 10 and 11 and the headline of §4.4 all price warm sessions of
//! the 75-page workload, rendered once by [`workload_pages`], per client
//! class and protocol. [`measure`] runs real sessions (real encoders, real
//! FVM decoding) in [`trace_pages`] and prices them per class in
//! [`price_pages`]: a forced protocol (a single-leaf PAT) sends the same
//! messages for every class, so it is traced once; an adaptive
//! negotiation picks per class, so it is traced per class. [`Measured`]
//! measures each adaptive-content mode on first use, so a section that
//! reads one mode's cells pays for that mode alone.

use std::sync::OnceLock;

use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::session::{price, trace, SessionReport, SessionTrace};
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
    /// Mean total time per page (Figure 11(b)/(c)).
    pub total: SimDuration,
}

/// Every priced cell of one mode (server compute on the request path or
/// not): Figures 10 and 11 and the headline read these.
#[derive(Clone, Debug)]
pub struct Cells {
    /// One cell per (protocol, class), the protocol forced.
    pub forced: Vec<CellReport>,
    /// One cell per class: the protocol full Fractal negotiates.
    pub adaptive: Vec<CellReport>,
}

impl Cells {
    /// The cell of `protocol` forced on `class`.
    pub fn forced(&self, class: ClientClass, protocol: ProtocolId) -> &CellReport {
        self.forced
            .iter()
            .find(|c| c.class == class && c.protocol == protocol)
            .expect("cell exists")
    }

    /// The adaptive cell of `class`; its `protocol` is the pick.
    pub fn adaptive(&self, class: ClientClass) -> &CellReport {
        self.adaptive.iter().find(|c| c.class == class).expect("cell exists")
    }
}

/// A figure's pages and, measured when first read, each mode's cells.
#[derive(Clone, Debug)]
pub struct Measured {
    pages: Vec<PagePair>,
    reactive: OnceLock<Cells>,
    proactive: OnceLock<Cells>,
}

impl Measured {
    /// The first `n_pages` workload pages, rendered now; no cell is
    /// measured yet.
    pub fn new(n_pages: u32) -> Measured {
        let pages = workload_pages(n_pages);
        Measured { pages, reactive: OnceLock::new(), proactive: OnceLock::new() }
    }

    /// Every cell of `mode`, [measured](measure) on the first call.
    pub fn cells(&self, mode: AdaptiveContentMode) -> &Cells {
        let once = match mode {
            AdaptiveContentMode::Reactive => &self.reactive,
            AdaptiveContentMode::Proactive => &self.proactive,
        };
        once.get_or_init(|| measure(&self.pages, mode))
    }
}

/// Every cell of `mode` over `pages` (client holds version 0, fetches
/// version 1, localized-edit evolution: the paper's medical-imaging
/// scenario): 4 forced trace sets and 3 adaptive ones.
pub fn measure(pages: &[PagePair], mode: AdaptiveContentMode) -> Cells {
    let mut cells = Cells { forced: Vec::new(), adaptive: Vec::new() };
    for protocol in ProtocolId::PAPER_FOUR {
        let tb = Testbed::with_protocols(&[protocol], mode);
        let traces = trace_pages(&tb, ClientClass::DesktopLan, pages);
        assert!(
            traces.iter().all(|t| t.pad.protocol == protocol),
            "forced PAT must pick {protocol}"
        );
        for class in ClientClass::ALL {
            cells.forced.push(aggregate(class, protocol, &price_pages(&tb, class, &traces)));
        }
    }
    for class in ClientClass::ALL {
        let tb = Testbed::case_study(mode);
        let reports = price_pages(&tb, class, &trace_pages(&tb, class, pages));
        cells.adaptive.push(aggregate(class, reports[0].protocol, &reports));
    }
    cells
}

/// The one place the harness runs sessions (an audit holds it to that):
/// one client of `class` on `tb`, each page published at versions 0 and
/// 1, the client warmed with version 0 (that transfer is not traced) and
/// fetching version 1.
pub fn trace_pages(tb: &Testbed, class: ClientClass, pages: &[PagePair]) -> Vec<SessionTrace> {
    let mut client = tb.client(class);
    (0u32..)
        .zip(pages)
        .map(|(page, PagePair { v0, v1 })| {
            tb.server.publish(page, v0.clone());
            tb.server.publish(page, v1.clone());
            client.store_content(page, 0, v0.clone());
            trace(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, tb.app_id, page, 1)
                .expect("session succeeds")
        })
        .collect()
}

/// `traces` priced for `class`: its link and environment, under the
/// model of `tb`, the testbed they were traced on.
pub fn price_pages(
    tb: &Testbed,
    class: ClientClass,
    traces: &[SessionTrace],
) -> Vec<SessionReport> {
    let (link, env) = (class.link(), class.env());
    traces.iter().map(|t| price(t, &link, tb.proxy.model(), &env)).collect()
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
        total: SimDuration::micros(mean(&|r| r.total().as_micros())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_protocol_is_used() {
        let tb = Testbed::with_protocols(&[ProtocolId::Gzip], AdaptiveContentMode::Reactive);
        let traces = trace_pages(&tb, ClientClass::DesktopLan, &workload_pages(2));
        assert!(traces.iter().all(|t| t.pad.protocol == ProtocolId::Gzip));
        let reports = price_pages(&tb, ClientClass::LaptopWlan, &traces);
        let cell = aggregate(ClientClass::LaptopWlan, ProtocolId::Gzip, &reports);
        assert!(cell.bytes > 0);
        assert!(cell.total > SimDuration::ZERO);
    }

    #[test]
    fn adaptive_picks_per_class() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let traces = trace_pages(&tb, ClientClass::DesktopLan, &workload_pages(2));
        assert_eq!(traces[0].pad.protocol, ProtocolId::Direct);
    }
}
