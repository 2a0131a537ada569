//! The *flows* of the paper's (C-3) proof (Fig. 4), made executable.
//!
//! A flow is a set of ports that a dependency chain, once entered, can only
//! leave through a local ejection port (vertical flows) or through a vertical
//! flow (horizontal flows). The paper's parametric proof of (C-3) shows that
//! after at most one hop every chain is trapped in a flow whose coordinate
//! progresses monotonically — contradicting any cycle. This module classifies
//! mesh ports into their flows and checks the escape lemmas on a concrete
//! dependency graph.

use genoc_core::network::Direction;
use genoc_core::PortId;
use genoc_topology::mesh::{Cardinal, Mesh};

use crate::graph::DiGraph;

/// The flow a mesh port belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Flow {
    /// `S-in` and `N-out` ports: traffic moving north (decreasing `y`).
    Northern,
    /// `N-in` and `S-out` ports: traffic moving south (increasing `y`).
    Southern,
    /// `W-in` and `E-out` ports: traffic moving east (increasing `x`).
    Eastern,
    /// `E-in` and `W-out` ports: traffic moving west (decreasing `x`).
    Western,
    /// Local injection ports (`L-in`).
    Injection,
    /// Local ejection ports (`L-out`) — the only escape from a flow.
    Ejection,
}

impl Flow {
    /// Whether this is one of the two vertical flows.
    pub fn is_vertical(self) -> bool {
        matches!(self, Flow::Northern | Flow::Southern)
    }
}

/// Classifies a mesh port into its flow.
pub fn classify(mesh: &Mesh, p: PortId) -> Flow {
    let info = mesh.info(p);
    match (info.card, info.dir) {
        (Cardinal::South, Direction::In) | (Cardinal::North, Direction::Out) => Flow::Northern,
        (Cardinal::North, Direction::In) | (Cardinal::South, Direction::Out) => Flow::Southern,
        (Cardinal::West, Direction::In) | (Cardinal::East, Direction::Out) => Flow::Eastern,
        (Cardinal::East, Direction::In) | (Cardinal::West, Direction::Out) => Flow::Western,
        (Cardinal::Local, Direction::In) => Flow::Injection,
        (Cardinal::Local, Direction::Out) => Flow::Ejection,
    }
}

/// One violated escape rule.
#[derive(Clone, Debug)]
pub struct FlowViolation {
    /// Source port of the offending edge.
    pub from: PortId,
    /// Target port of the offending edge.
    pub to: PortId,
    /// Human-readable description.
    pub reason: String,
}

/// Checks the escape lemmas of the paper's flow argument on a dependency
/// graph `g` of `mesh`:
///
/// 1. vertical flows only continue within themselves or escape into an
///    ejection port ("the only way to escape a Northern flow is by entering
///    a local out-port");
/// 2. horizontal flows only continue within themselves, turn into a vertical
///    flow, or escape into an ejection port;
/// 3. ejection ports have no successors;
/// 4. within every flow the carried coordinate progresses strictly
///    monotonically.
pub fn check_flow_escapes(mesh: &Mesh, g: &DiGraph) -> Vec<FlowViolation> {
    let mut violations = Vec::new();
    for (u, v) in g.edges() {
        let fu = classify(mesh, u);
        let fv = classify(mesh, v);
        let ok = match fu {
            Flow::Ejection => false,
            Flow::Injection => fv != Flow::Injection,
            Flow::Northern | Flow::Southern => fv == fu || fv == Flow::Ejection,
            Flow::Eastern | Flow::Western => fv == fu || fv.is_vertical() || fv == Flow::Ejection,
        };
        if !ok {
            violations.push(FlowViolation {
                from: u,
                to: v,
                reason: format!("{fu:?} flow may not continue into {fv:?}"),
            });
            continue;
        }
        if fu == fv {
            // Monotone progress within a flow: the pair (coordinate,
            // in-phase) must strictly advance. In-ports sit "later" than the
            // out-port of the same link, so compare the scaled coordinate
            // with a direction-dependent phase bonus.
            let iu = mesh.info(u);
            let iv = mesh.info(v);
            let key = |x: usize, y: usize, dir: Direction, flow: Flow| -> i64 {
                let coord = match flow {
                    Flow::Northern => -(y as i64),
                    Flow::Southern => y as i64,
                    Flow::Eastern => x as i64,
                    Flow::Western => -(x as i64),
                    _ => 0,
                };
                // Within a node the in-port precedes the out-port.
                2 * coord + i64::from(dir == Direction::Out)
            };
            let ku = key(iu.x, iu.y, iu.dir, fu);
            let kv = key(iv.x, iv.y, iv.dir, fv);
            if kv <= ku {
                violations.push(FlowViolation {
                    from: u,
                    to: v,
                    reason: format!("{fu:?} flow does not progress ({ku} -> {kv})"),
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{port_dependency_graph, xy_mesh_dependency_graph};
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_routing::xy::XyRouting;
    use genoc_topology::mesh::Mesh;

    #[test]
    fn xy_graph_satisfies_all_escape_lemmas() {
        for (w, h) in [(2, 2), (3, 3), (4, 2), (6, 6)] {
            let mesh = Mesh::new(w, h, 1);
            let g = xy_mesh_dependency_graph(&mesh);
            let violations = check_flow_escapes(&mesh, &g);
            assert!(violations.is_empty(), "{w}x{h}: {violations:?}");
        }
    }

    #[test]
    fn mixed_routing_violates_the_flow_discipline() {
        let mesh = Mesh::new(3, 3, 1);
        let g = port_dependency_graph(&mesh, &MixedXyYxRouting::new(&mesh));
        assert!(
            !check_flow_escapes(&mesh, &g).is_empty(),
            "YX legs turn from vertical flows into horizontal ones"
        );
    }

    #[test]
    fn classification_covers_every_port_kind() {
        let mesh = Mesh::new(3, 3, 1);
        let g = port_dependency_graph(&mesh, &XyRouting::new(&mesh));
        let mut seen = std::collections::BTreeSet::new();
        for p in genoc_core::network::Network::ports(&mesh) {
            seen.insert(format!("{:?}", classify(&mesh, p)));
        }
        assert_eq!(seen.len(), 6, "{seen:?}");
        // Ejection ports are sinks in the dependency graph.
        for p in genoc_core::network::Network::ports(&mesh) {
            if classify(&mesh, p) == Flow::Ejection {
                assert_eq!(g.out_degree(p), 0);
            }
        }
    }

    #[test]
    fn vertical_flows_walk_one_column() {
        let mesh = Mesh::new(2, 4, 1);
        let g = xy_mesh_dependency_graph(&mesh);
        for (u, v) in g.edges() {
            if classify(&mesh, u) == Flow::Northern && classify(&mesh, v) == Flow::Northern {
                assert_eq!(mesh.info(u).x, mesh.info(v).x);
                assert!(mesh.info(v).y <= mesh.info(u).y);
            }
        }
    }
}
