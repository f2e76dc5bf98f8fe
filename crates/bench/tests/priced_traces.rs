//! Pricing a trace equals running the session (DESIGN.md P53).
//!
//! The figure harness traces each forced-protocol page set once, with one
//! client class, and prices it for every class. That is only Figures 10
//! and 11 if a forced protocol's messages do not depend on the class that
//! sent them and the price reads its class from the arguments alone: for
//! each protocol and adaptive-content mode, a trace by any class, priced
//! for a class, must equal, field for field, what `run_session` reports
//! for a client of that class on its own testbed.

use fractal_bench::workbench::{price_pages, trace_pages, workload_pages, PagePair};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::session::{run_session, SessionReport};
use fractal_core::testbed::Testbed;
use fractal_core::ClientClass;
use fractal_protocols::ProtocolId;

/// The harness's page loop, run by `class` itself through `run_session`.
fn run_pages(
    protocol: ProtocolId,
    mode: AdaptiveContentMode,
    class: ClientClass,
    pages: &[PagePair],
) -> Vec<SessionReport> {
    let tb = Testbed::with_protocols(&[protocol], mode);
    let (mut client, link) = (tb.client(class), class.link());
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

#[test]
fn a_forced_trace_prices_to_every_class_own_session() {
    let pages = workload_pages(3);
    for mode in [AdaptiveContentMode::Reactive, AdaptiveContentMode::Proactive] {
        for protocol in ProtocolId::PAPER_FOUR {
            let runs = ClientClass::ALL.map(|class| run_pages(protocol, mode, class, &pages));
            for traced_by in ClientClass::ALL {
                let tb = Testbed::with_protocols(&[protocol], mode);
                let traces = trace_pages(&tb, traced_by, &pages);
                for (class, run) in ClientClass::ALL.into_iter().zip(&runs) {
                    let priced = price_pages(&tb, class, &traces);
                    assert_eq!(priced.len(), run.len());
                    for (page, (priced, run)) in priced.iter().zip(run).enumerate() {
                        let case = format!("{protocol} {mode:?}, traced by {traced_by}");
                        assert_eq!(priced, run, "{case}, priced for {class}, page {page}");
                    }
                }
            }
        }
    }
}
