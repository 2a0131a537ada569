//! Wormhole switching `Swh` — the policy of the paper (after Borrione et
//! al.'s executable specification).
//!
//! Messages are decomposed into flits; the header claims one port after
//! another (a port accepts flits of at most one packet), body flits follow in
//! pipeline, and ownership of a port is released when the tail passes. Each
//! switching step advances every message that can make progression by at
//! most one hop.

use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::network::Network;
use genoc_core::step::StepScratch;
use genoc_core::switching::{KernelSpec, StepReport, SwitchingPolicy};
use genoc_core::trace::Trace;

use crate::arbitration::Arbitration;
use crate::motion::{any_move_possible_with, step_all, AlwaysAdmit};

static ADMISSION: AlwaysAdmit = AlwaysAdmit;

/// The wormhole switching policy.
///
/// # Examples
///
/// ```
/// use genoc_core::config::Config;
/// use genoc_core::injection::IdentityInjection;
/// use genoc_core::interpreter::{run, Outcome, RunOptions};
/// use genoc_core::spec::MessageSpec;
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
/// let result = run(&mesh, &IdentityInjection, &mut policy, cfg, &RunOptions::default())?;
/// assert_eq!(result.outcome, Outcome::Evacuated);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct WormholePolicy {
    arbitration: Arbitration,
    scratch: StepScratch,
    step_count: u64,
}

impl WormholePolicy {
    /// Creates a wormhole policy with the given arbitration scheme.
    pub fn new(arbitration: Arbitration) -> Self {
        WormholePolicy {
            arbitration,
            scratch: StepScratch::default(),
            step_count: 0,
        }
    }

    /// The arbitration scheme in force.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }
}

impl SwitchingPolicy for WormholePolicy {
    fn name(&self) -> String {
        format!("wormhole/{}", self.arbitration.label())
    }

    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut Trace,
    ) -> Result<StepReport> {
        self.scratch.reset(net.port_count());
        let order = self.arbitration.order(cfg.travels().len(), self.step_count);
        self.step_count += 1;
        step_all(cfg, order, &mut self.scratch, trace, &AlwaysAdmit)
    }

    fn is_deadlock(&self, _net: &dyn Network, cfg: &Config) -> bool {
        !cfg.is_evacuated() && !any_move_possible_with(cfg, &AlwaysAdmit)
    }

    fn kernel_spec(&self) -> Option<KernelSpec> {
        Some(KernelSpec {
            arbitration: self.arbitration,
            admission: &ADMISSION,
            first_step: self.step_count,
        })
    }

    fn note_kernel_steps(&mut self, steps: u64) {
        self.step_count += steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions};
    use genoc_core::spec::MessageSpec;
    use genoc_routing::xy::XyRouting;
    use genoc_topology::mesh::Mesh;

    fn run_mesh(
        specs: &[MessageSpec],
        arbitration: Arbitration,
    ) -> genoc_core::interpreter::RunResult {
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
            &mut WormholePolicy::new(arbitration),
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
            WormholePolicy::new(Arbitration::RoundRobin).name(),
            "wormhole/round-robin"
        );
    }
}
