//! Planar network topology: node placement and distance-derived latency.
//!
//! The CDN substrate routes each client to its *closest* edge server —
//! "it is the CDN's responsibility to find the closest edgeserver which
//! holds the PAD" (§3.2). We model closeness with points on a unit plane;
//! wide-area latency grows linearly with Euclidean distance, which captures
//! the paper's PlanetLab emulation well enough for the Figure 9(b) shape.

use crate::time::SimDuration;

/// Identifies a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A point on the unit plane.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Position {
    /// X coordinate in [0, 1].
    pub x: f64,
    /// Y coordinate in [0, 1].
    pub y: f64,
}

impl Position {
    /// Euclidean distance.
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Node placement plus the latency model.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Position>,
    /// One-way latency for a unit distance; default 80 ms (continental
    /// span), so nearby nodes see a few milliseconds.
    latency_per_unit: SimDuration,
    /// Floor added to every path (local loop, stack traversal).
    latency_floor: SimDuration,
}

impl Topology {
    /// Creates an empty topology with default latency parameters.
    pub fn new() -> Topology {
        Topology {
            nodes: Vec::new(),
            latency_per_unit: SimDuration::millis(80),
            latency_floor: SimDuration::millis(1),
        }
    }

    /// Adds a node at `pos`, returning its id.
    pub fn add_node(&mut self, pos: Position) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(pos);
        id
    }

    /// Places `n` nodes deterministically spread over the plane using a
    /// low-discrepancy (Halton-like) sequence seeded by `salt`.
    pub fn add_spread_nodes(&mut self, n: usize, salt: u32) -> Vec<NodeId> {
        (0..n)
            .map(|i| {
                let k = i as u32 + salt.wrapping_mul(7919) + 1;
                self.add_node(Position { x: halton(k, 2), y: halton(k, 3) })
            })
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Position {
        self.nodes[id.0 as usize]
    }

    /// One-way latency between two nodes.
    pub fn latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        let d = self.position(a).distance(&self.position(b));
        self.latency_floor + self.latency_per_unit.scale(d)
    }

    /// The node from `candidates` with the lowest latency to `from`
    /// (closest-edge routing). Returns `None` when `candidates` is empty.
    pub fn closest(&self, from: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        candidates.iter().copied().min_by_key(|&c| self.latency(from, c))
    }
}

/// Halton low-discrepancy sequence element `index` in the given base.
fn halton(mut index: u32, base: u32) -> f64 {
    let mut f = 1.0f64;
    let mut r = 0.0f64;
    while index > 0 {
        f /= base as f64;
        r += f * (index % base) as f64;
        index /= base;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_latency() {
        let mut t = Topology::new();
        let a = t.add_node(Position { x: 0.0, y: 0.0 });
        let b = t.add_node(Position { x: 1.0, y: 0.0 });
        let lat = t.latency(a, b);
        // floor 1ms + 80ms/unit × 1.0
        assert_eq!(lat, SimDuration::millis(81));
        assert_eq!(t.latency(a, a), SimDuration::millis(1));
        assert_eq!(t.latency(a, b), t.latency(b, a));
    }

    #[test]
    fn closest_picks_nearest() {
        let mut t = Topology::new();
        let client = t.add_node(Position { x: 0.1, y: 0.1 });
        let near = t.add_node(Position { x: 0.2, y: 0.1 });
        let far = t.add_node(Position { x: 0.9, y: 0.9 });
        assert_eq!(t.closest(client, &[far, near]), Some(near));
        assert_eq!(t.closest(client, &[]), None);
    }

    #[test]
    fn spread_nodes_are_deterministic_and_distinct() {
        let mut t1 = Topology::new();
        let mut t2 = Topology::new();
        let ids1 = t1.add_spread_nodes(10, 42);
        let ids2 = t2.add_spread_nodes(10, 42);
        assert_eq!(ids1.len(), 10);
        for (&a, &b) in ids1.iter().zip(&ids2) {
            assert_eq!(t1.position(a).x, t2.position(b).x);
            assert_eq!(t1.position(a).y, t2.position(b).y);
        }
        // Different salts give different layouts.
        let mut t3 = Topology::new();
        let ids3 = t3.add_spread_nodes(10, 43);
        let same =
            ids1.iter().zip(&ids3).filter(|(&a, &b)| t1.position(a).x == t3.position(b).x).count();
        assert!(same < 10);
    }

    #[test]
    fn spread_nodes_in_unit_square() {
        let mut t = Topology::new();
        for id in t.add_spread_nodes(100, 7) {
            let p = t.position(id);
            assert!((0.0..=1.0).contains(&p.x));
            assert!((0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    fn custom_latency_model() {
        let mut t = Topology {
            latency_per_unit: SimDuration::millis(10),
            latency_floor: SimDuration::ZERO,
            ..Topology::new()
        };
        let a = t.add_node(Position { x: 0.0, y: 0.0 });
        let b = t.add_node(Position { x: 0.0, y: 0.5 });
        assert_eq!(t.latency(a, b), SimDuration::millis(5));
    }

    #[test]
    fn latency_is_the_floor_plus_a_rate_per_unit_distance() {
        let mut t = Topology::new();
        let a = t.add_node(Position { x: 0.0, y: 0.0 });
        let b = t.add_node(Position { x: 0.0, y: 0.5 });
        assert_eq!(t.latency(a, a), SimDuration::millis(1));
        assert_eq!(t.latency(a, b), SimDuration::millis(41));
    }

    #[test]
    fn len_and_empty() {
        let mut t = Topology::new();
        assert!(t.is_empty());
        t.add_node(Position { x: 0.5, y: 0.5 });
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
