//! Workload generators: lists of [`MessageSpec`]s for the experiments.
//!
//! The paper leaves the number of messages and their sizes uninterpreted;
//! these generators produce the concrete workloads the tests, campaigns
//! and the `ledger/` benchmark run: uniform random traffic, the classical
//! permutation patterns (transpose, bit-complement), hotspot traffic, and
//! adversarial patterns that drive deadlock-prone routers into their cycles.

use genoc_core::spec::MessageSpec;
use genoc_core::NodeId;
use genoc_topology::mesh::Mesh;
use rand::RngExt;

use crate::rng::seeded;

/// `count` messages with uniformly random distinct source/destination nodes
/// and uniformly random flit counts in `flits`.
///
/// # Panics
///
/// Panics if `nodes < 2` or `flits` is empty.
pub fn uniform_random(
    nodes: usize,
    count: usize,
    flits: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> Vec<MessageSpec> {
    assert!(nodes >= 2, "uniform traffic needs at least two nodes");
    assert!(!flits.is_empty(), "empty flit range");
    let mut rng = seeded(seed);
    (0..count)
        .map(|_| {
            let source = rng.random_range(0..nodes);
            let mut dest = rng.random_range(0..nodes - 1);
            if dest >= source {
                dest += 1;
            }
            MessageSpec::new(
                NodeId::from_index(source),
                NodeId::from_index(dest),
                rng.random_range(flits.clone()),
            )
        })
        .collect()
}

/// The transpose permutation on a square mesh: node `(x, y)` sends to
/// `(y, x)`. Diagonal nodes (which would send to themselves) are skipped.
///
/// # Panics
///
/// Panics if the mesh is not square.
pub fn transpose(mesh: &Mesh, flits: usize) -> Vec<MessageSpec> {
    assert_eq!(mesh.width(), mesh.height(), "transpose needs a square mesh");
    let mut specs = Vec::new();
    for n in genoc_core::network::Network::nodes(mesh) {
        let (x, y) = mesh.node_coords(n);
        if x != y {
            specs.push(MessageSpec::new(n, mesh.node(y, x), flits));
        }
    }
    specs
}

/// The bit-complement permutation: node `(x, y)` sends to
/// `(W-1-x, H-1-y)`. On a 2×2 mesh this is exactly the four-corner turn
/// storm that closes the cycle of the mixed XY/YX router.
pub fn bit_complement(mesh: &Mesh, flits: usize) -> Vec<MessageSpec> {
    let (w, h) = (mesh.width(), mesh.height());
    let mut specs = Vec::new();
    for n in genoc_core::network::Network::nodes(mesh) {
        let (x, y) = mesh.node_coords(n);
        let dest = (w - 1 - x, h - 1 - y);
        if dest != (x, y) {
            specs.push(MessageSpec::new(n, mesh.node(dest.0, dest.1), flits));
        }
    }
    specs
}

/// Hotspot traffic: `count` messages whose destination is `hotspot` with the
/// given probability (percent), uniform otherwise.
///
/// # Panics
///
/// Panics if `nodes < 2`, `hotspot >= nodes`, or `percent > 100`.
pub fn hotspot(
    nodes: usize,
    count: usize,
    hotspot: usize,
    percent: u32,
    flits: usize,
    seed: u64,
) -> Vec<MessageSpec> {
    assert!(nodes >= 2 && hotspot < nodes && percent <= 100);
    let mut rng = seeded(seed);
    (0..count)
        .map(|_| {
            let source = rng.random_range(0..nodes);
            let dest = if rng.random_range(0..100u32) < percent && source != hotspot {
                hotspot
            } else {
                let mut d = rng.random_range(0..nodes - 1);
                if d >= source {
                    d += 1;
                }
                d
            };
            MessageSpec::new(NodeId::from_index(source), NodeId::from_index(dest), flits)
        })
        .collect()
}

/// Every ordered pair of distinct nodes exchanges one message.
pub fn all_to_all(nodes: usize, flits: usize) -> Vec<MessageSpec> {
    let mut specs = Vec::with_capacity(nodes * (nodes - 1));
    for s in 0..nodes {
        for d in 0..nodes {
            if s != d {
                specs.push(MessageSpec::new(
                    NodeId::from_index(s),
                    NodeId::from_index(d),
                    flits,
                ));
            }
        }
    }
    specs
}

/// Ring pressure: every node sends `offset` hops clockwise. With
/// `offset ≈ nodes/2 - 1` and long packets this saturates one direction of a
/// ring and reliably triggers the shortest-path routing deadlock.
pub fn ring_offset(nodes: usize, offset: usize, flits: usize) -> Vec<MessageSpec> {
    (0..nodes)
        .map(|s| {
            MessageSpec::new(
                NodeId::from_index(s),
                NodeId::from_index((s + offset) % nodes),
                flits,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_never_sends_to_self() {
        for spec in uniform_random(5, 200, 1..=4, 7) {
            assert_ne!(spec.source, spec.dest);
            assert!((1..=4).contains(&spec.flits));
        }
    }

    #[test]
    fn uniform_is_reproducible() {
        assert_eq!(
            uniform_random(6, 50, 2..=2, 3),
            uniform_random(6, 50, 2..=2, 3)
        );
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mesh = Mesh::new(3, 3, 1);
        let specs = transpose(&mesh, 2);
        assert_eq!(specs.len(), 6, "three diagonal nodes skipped");
        for s in &specs {
            let (sx, sy) = mesh.node_coords(s.source);
            let (dx, dy) = mesh.node_coords(s.dest);
            assert_eq!((sx, sy), (dy, dx));
        }
    }

    #[test]
    fn bit_complement_on_2x2_is_the_corner_storm() {
        let mesh = Mesh::new(2, 2, 1);
        let specs = bit_complement(&mesh, 3);
        assert_eq!(specs.len(), 4);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let specs = hotspot(8, 400, 3, 80, 1, 11);
        let hot = specs.iter().filter(|s| s.dest.index() == 3).count();
        assert!(hot > 200, "expected concentration, got {hot}/400");
        for s in &specs {
            assert_ne!(s.source, s.dest);
        }
    }

    #[test]
    fn all_to_all_counts() {
        assert_eq!(all_to_all(4, 1).len(), 12);
    }

    #[test]
    fn ring_offset_wraps() {
        let specs = ring_offset(6, 2, 2);
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[5].dest.index(), 1);
    }
}
