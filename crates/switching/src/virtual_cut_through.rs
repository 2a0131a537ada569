//! Virtual cut-through switching.
//!
//! Flits pipeline as under wormhole switching, but the header only claims a
//! port that could buffer the *entire* packet — so a blocked packet always
//! collapses into a single port instead of holding a chain of them. This
//! trades buffer space for much weaker coupling between blocked packets
//! (deadlock cycles need whole-packet buffers to fill).

use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::network::Network;
use genoc_core::step::StepScratch;
use genoc_core::switching::{Arbitration, KernelSpec, StepReport, SwitchingPolicy};
use genoc_core::trace::Trace;

use crate::motion::{any_move_possible_with, step_all, WholePacketRoom};

static ADMISSION: WholePacketRoom = WholePacketRoom;

/// The virtual cut-through switching policy.
///
/// As for store-and-forward, every port on a packet's route needs capacity
/// for the whole packet ([`VirtualCutThroughPolicy::workload_fits`]).
#[derive(Clone, Debug, Default)]
pub struct VirtualCutThroughPolicy {
    scratch: StepScratch,
}

impl VirtualCutThroughPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        VirtualCutThroughPolicy::default()
    }

    /// Whether every travel of `cfg` fits into every port of its route.
    pub fn workload_fits(net: &dyn Network, cfg: &Config) -> bool {
        cfg.travels().iter().all(|t| {
            t.route()
                .iter()
                .all(|&p| net.attrs(p).capacity as usize >= t.flit_count())
        })
    }
}

impl SwitchingPolicy for VirtualCutThroughPolicy {
    fn name(&self) -> String {
        "virtual-cut-through".into()
    }

    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut Trace,
    ) -> Result<StepReport> {
        self.scratch.reset(net.port_count());
        let order = 0..cfg.travels().len();
        step_all(cfg, order, &mut self.scratch, trace, &WholePacketRoom)
    }

    fn is_deadlock(&self, _net: &dyn Network, cfg: &Config) -> bool {
        !cfg.is_evacuated() && !any_move_possible_with(cfg, &WholePacketRoom)
    }

    fn kernel_spec(&self) -> Option<KernelSpec> {
        Some(KernelSpec {
            arbitration: Arbitration::FixedPriority,
            admission: &ADMISSION,
            first_step: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_forward::StoreForwardPolicy;
    use crate::wormhole::WormholePolicy;
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions};
    use genoc_core::line::{LineNetwork, LineRouting};
    use genoc_core::spec::MessageSpec;
    use genoc_core::switching::SwitchingPolicy;
    use genoc_core::NodeId;

    fn steps_with(policy: &mut dyn SwitchingPolicy) -> u64 {
        let net = LineNetwork::new(5, 4);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(4),
            4,
        )];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let r = run(
            &net,
            &IdentityInjection,
            policy,
            cfg,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Evacuated);
        r.steps
    }

    #[test]
    fn vct_pipelines_like_wormhole_and_beats_store_and_forward() {
        let wormhole = steps_with(&mut WormholePolicy::default());
        let vct = steps_with(&mut VirtualCutThroughPolicy::new());
        let saf = steps_with(&mut StoreForwardPolicy::new());
        assert_eq!(
            vct, wormhole,
            "with ample buffers VCT pipelines identically"
        );
        assert!(saf > vct, "store-and-forward serialises: {saf} <= {vct}");
    }

    #[test]
    fn vct_refuses_ports_smaller_than_the_packet() {
        let net = LineNetwork::new(3, 2);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(2),
            3,
        )];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let r = run(
            &net,
            &IdentityInjection,
            &mut VirtualCutThroughPolicy::new(),
            cfg,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Deadlock);
    }
}
