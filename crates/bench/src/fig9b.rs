//! Figure 9(b): average PAD retrieval time — centralized server vs.
//! distributed CDN edge servers — as simultaneous client count grows.
//!
//! "The average PAD retrieval time rapidly goes up with the increasing
//! number of clients in centralized PAD server scenario, but it steadily
//! keeps in a small fluctuating range … using distributed PAD servers."

use fractal_cdn::deployment::{Deployment, RetrievalRequest};
use fractal_cdn::edge::EdgeServer;
use fractal_cdn::origin::OriginStore;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_net::link::LinkKind;
use fractal_net::time::{SimDuration, SimTime};
use fractal_net::topology::{NodeId, Position, Topology};

use crate::report::{ms, render_table};

/// Edge servers in the distributed deployment (the paper used "some nodes
/// from PlanetLab").
pub const N_EDGES: usize = 20;
/// Server egress capacity, bytes/second (throttled PlanetLab-node-class
/// uplink, matching the paper's academic testbed).
pub const EGRESS_BPS: f64 = 2.5e5;

/// One point of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Simultaneous clients.
    pub clients: usize,
    /// Mean retrieval time from the centralized PAD server.
    pub centralized: SimDuration,
    /// Mean retrieval time from the distributed edges.
    pub distributed: SimDuration,
}

/// The experiment fixture: real PAD bytes published to a CDN.
pub struct Fixture {
    topo: Topology,
    origin: OriginStore,
    digest: fractal_crypto::Digest,
    central_node: NodeId,
    edge_nodes: Vec<NodeId>,
}

impl Fixture {
    /// Builds the topology, publishes the (real) Gzip PAD artifact, and
    /// places the servers.
    pub fn new() -> Fixture {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        // Use the biggest real artifact so transfer times are visible.
        let wire =
            tb.pad_repo.wires().into_iter().max_by_key(|w| w.len()).expect("repo has artifacts");
        let mut topo = Topology::new();
        let central_node = topo.add_node(Position { x: 0.5, y: 0.5 });
        let edge_nodes = topo.add_spread_nodes(N_EDGES, 7);
        let mut origin = OriginStore::new();
        let digest = origin.publish(wire);
        Fixture { topo, origin, digest, central_node, edge_nodes }
    }

    /// Runs one point: `n` clients all requesting the PAD at t=0.
    pub fn run_point(&mut self, n: usize) -> Point {
        let client_nodes = self.topo.add_spread_nodes(n, 1000 + n as u32);
        let requests: Vec<RetrievalRequest> = client_nodes
            .iter()
            .map(|&node| RetrievalRequest {
                client_node: node,
                last_mile: LinkKind::Wlan.link(),
                digest: self.digest,
                start: SimTime::ZERO,
            })
            .collect();

        let central =
            Deployment::Centralized { node: self.central_node, egress_bytes_per_sec: EGRESS_BPS };
        let edges: Vec<EdgeServer> = self
            .edge_nodes
            .iter()
            .map(|&node| EdgeServer::new(node, EGRESS_BPS, 64 * 1024 * 1024))
            .collect();
        for e in &edges {
            e.warm(&self.origin, &[self.digest]);
        }
        let distributed = Deployment::Distributed { edges };

        let tc = central.retrieve_batch(&self.topo, &self.origin, &requests);
        let td = distributed.retrieve_batch(&self.topo, &self.origin, &requests);
        Point { clients: n, centralized: mean(&tc), distributed: mean(&td) }
    }
}

impl Default for Fixture {
    fn default() -> Self {
        Self::new()
    }
}

fn mean(ds: &[SimDuration]) -> SimDuration {
    SimDuration::micros(ds.iter().map(|d| d.as_micros()).sum::<u64>() / ds.len().max(1) as u64)
}

/// Runs one point on a fresh fixture. Client placement depends only on
/// `(n, salt)` — `Topology::add_spread_nodes` derives positions from the
/// salt, not from how many nodes already exist — so a standalone point is
/// value-identical to the same point inside an accumulated serial sweep.
pub fn run_point_fresh(n: usize) -> Point {
    Fixture::new().run_point(n)
}

/// The full sweep: 20..=300 simultaneous clients, each point on a fresh
/// fixture.
pub fn run_sweep() -> Vec<Point> {
    (1..=15).map(|k| run_point_fresh(k * 20)).collect()
}

/// Prints Figure 9(b): average PAD retrieval time, centralized vs.
/// distributed PAD servers.
pub fn print(_n_pages: u32) {
    println!("Figure 9(b): average PAD retrieval time vs number of simultaneous clients");
    println!("paper expectation: centralized climbs rapidly; distributed stays flat\n");

    let rows: Vec<Vec<String>> = run_sweep()
        .into_iter()
        .map(|p| {
            vec![
                p.clients.to_string(),
                ms(p.centralized),
                ms(p.distributed),
                format!("{:.1}x", p.centralized.as_secs_f64() / p.distributed.as_secs_f64()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["clients", "centralized (ms)", "distributed (ms)", "ratio"], &rows)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centralized_climbs_distributed_stays_flat() {
        let mut fx = Fixture::new();
        let small = fx.run_point(20);
        let big = fx.run_point(300);
        let central_growth = big.centralized.as_secs_f64() / small.centralized.as_secs_f64();
        let dist_growth = big.distributed.as_secs_f64() / small.distributed.as_secs_f64();
        assert!(central_growth > 4.0, "centralized grew only {central_growth:.1}x");
        assert!(dist_growth < 3.0, "distributed grew {dist_growth:.1}x");
        assert!(big.centralized > big.distributed);
    }

    #[test]
    fn standalone_point_matches_accumulated_fixture() {
        // The sweep runs each point on a fresh fixture; assert that equals
        // accumulating every point in one fixture.
        let mut fx = Fixture::new();
        let acc20 = fx.run_point(20);
        let acc60 = fx.run_point(60);
        for (acc, fresh) in [(acc20, run_point_fresh(20)), (acc60, run_point_fresh(60))] {
            assert_eq!(acc.clients, fresh.clients);
            assert_eq!(acc.centralized, fresh.centralized);
            assert_eq!(acc.distributed, fresh.distributed);
        }
    }
}
