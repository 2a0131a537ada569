//! Wormhole switching `Swh` — the policy of the paper (after Borrione et
//! al.'s executable specification).
//!
//! Messages are decomposed into flits; the header claims one port after
//! another (a port accepts flits of at most one packet), body flits follow in
//! pipeline, and ownership of a port is released when the tail passes. Each
//! switching step advances every message that can make progression by at
//! most one hop. It is [`Switching`] of kind
//! [`SwitchingKind::Wormhole`](crate::SwitchingKind::Wormhole).

use crate::Switching;

/// The earlier name of [`Switching`], kept for callers that still use it;
/// its `Default` is wormhole switching under fixed priority.
///
/// # Examples
///
/// ```
/// use genoc_core::config::Config;
/// use genoc_core::injection::IdentityInjection;
/// use genoc_core::interpreter::{run, Outcome, RunOptions};
/// use genoc_core::spec::MessageSpec;
/// use genoc_core::switching::SwitchingPolicy;
/// use genoc_switching::wormhole::WormholePolicy;
/// use genoc_topology::mesh::Mesh;
/// use genoc_routing::xy::XyRouting;
///
/// # fn main() -> Result<(), genoc_core::Error> {
/// let mesh = Mesh::new(3, 3, 1);
/// let routing = XyRouting::new(&mesh);
/// let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 4)];
/// let cfg = Config::from_specs(&mesh, &routing, &specs)?;
/// let mut policy = WormholePolicy::default();
/// assert_eq!(policy.name(), "wormhole/fixed");
/// let result = run(&mesh, &IdentityInjection, &mut policy, cfg, &RunOptions::default())?;
/// assert_eq!(result.outcome, Outcome::Evacuated);
/// # Ok(())
/// # }
/// ```
pub type WormholePolicy = Switching;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Arbitration;
    use genoc_core::config::Config;
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions, RunResult};
    use genoc_core::network::Network;
    use genoc_core::spec::MessageSpec;
    use genoc_core::switching::SwitchingPolicy;
    use genoc_routing::xy::XyRouting;
    use genoc_topology::mesh::Mesh;

    fn run_mesh(specs: &[MessageSpec], arbitration: Arbitration) -> RunResult {
        let mesh = Mesh::new(3, 3, 2);
        let routing = XyRouting::new(&mesh);
        let cfg = Config::from_specs(&mesh, &routing, specs).unwrap();
        let options = RunOptions {
            check_invariants: true,
            ..RunOptions::default()
        };
        run(
            &mesh,
            &IdentityInjection,
            &mut WormholePolicy::wormhole(arbitration),
            cfg,
            &options,
        )
        .unwrap()
    }

    #[test]
    fn crossing_workload_evacuates_under_both_arbitrations() {
        let mesh = Mesh::new(3, 3, 2);
        let mut specs = Vec::new();
        for n in mesh.nodes() {
            let (x, y) = mesh.node_coords(n);
            specs.push(MessageSpec::new(n, mesh.node(2 - x, 2 - y), 3));
        }
        for arb in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
            let r = run_mesh(&specs, arb);
            assert_eq!(r.outcome, Outcome::Evacuated, "{arb:?}");
            assert_eq!(r.config.arrived().len(), specs.len());
        }
    }

    #[test]
    fn single_long_worm_pipelines() {
        let mesh = Mesh::new(3, 3, 1);
        let routing = XyRouting::new(&mesh);
        let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 8)];
        let cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
        let r = run(
            &mesh,
            &IdentityInjection,
            &mut WormholePolicy::default(),
            cfg,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Evacuated);
        // Pipelining: steps ~ hops + flits, far below hops * flits.
        let hops = 2 * 4 + 1;
        assert!(r.steps <= (hops + 8 + 2) as u64, "steps = {}", r.steps);
    }

    #[test]
    fn policy_reports_its_name() {
        assert_eq!(WormholePolicy::default().name(), "wormhole/fixed");
        assert_eq!(
            WormholePolicy::wormhole(Arbitration::RoundRobin).name(),
            "wormhole/round-robin"
        );
    }
}
