//! Store-and-forward packet switching.
//!
//! A packet is fully received in a port before it is forwarded: the header
//! may only advance when every flit of the packet sits in its current port
//! and the next port can buffer the whole packet. Latency scales with
//! `hops × flits` (no pipelining) — the baseline wormhole switching was
//! invented to beat, reproduced here for the switching-comparison ablation.

use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::network::Network;
use genoc_core::step::StepScratch;
use genoc_core::switching::{Arbitration, KernelSpec, StepReport, SwitchingPolicy};
use genoc_core::trace::Trace;

use crate::motion::{any_move_possible_with, step_all, StoreAndForwardAdmission};

static ADMISSION: StoreAndForwardAdmission = StoreAndForwardAdmission;

/// The store-and-forward switching policy.
///
/// Every port on a packet's route must have capacity for the whole packet;
/// [`StoreForwardPolicy::workload_fits`] checks this precondition. A
/// workload that violates it wedges immediately and is reported as a
/// deadlock by the interpreter.
#[derive(Clone, Debug, Default)]
pub struct StoreForwardPolicy {
    scratch: StepScratch,
}

impl StoreForwardPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        StoreForwardPolicy::default()
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

impl SwitchingPolicy for StoreForwardPolicy {
    fn name(&self) -> String {
        "store-and-forward".into()
    }

    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut Trace,
    ) -> Result<StepReport> {
        self.scratch.reset(net.port_count());
        let order = 0..cfg.travels().len();
        step_all(
            cfg,
            order,
            &mut self.scratch,
            trace,
            &StoreAndForwardAdmission,
        )
    }

    fn is_deadlock(&self, _net: &dyn Network, cfg: &Config) -> bool {
        !cfg.is_evacuated() && !any_move_possible_with(cfg, &StoreAndForwardAdmission)
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
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions};
    use genoc_core::line::{LineNetwork, LineRouting};
    use genoc_core::spec::MessageSpec;
    use genoc_core::NodeId;

    fn line_run(capacity: u32, flits: usize) -> genoc_core::interpreter::RunResult {
        let net = LineNetwork::new(4, capacity);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(3),
            flits,
        )];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let options = RunOptions {
            check_invariants: true,
            ..RunOptions::default()
        };
        run(
            &net,
            &IdentityInjection,
            &mut StoreForwardPolicy::new(),
            cfg,
            &options,
        )
        .unwrap()
    }

    #[test]
    fn packet_walks_hop_by_hop() {
        let r = line_run(3, 3);
        assert_eq!(r.outcome, Outcome::Evacuated);
        // Store-and-forward serialises: at least hops * flits steps.
        let hops = 7; // L-in + 3 links (out+in) = route len 8 - 1
        assert!(
            r.steps >= (hops * 3 / 2) as u64,
            "expected serialised transfer, took only {} steps",
            r.steps
        );
    }

    #[test]
    fn oversized_packet_is_a_wedge_not_a_panic() {
        let r = line_run(2, 3);
        assert_eq!(r.outcome, Outcome::Deadlock, "packet cannot fit anywhere");
    }

    #[test]
    fn workload_fits_checks_capacities() {
        let net = LineNetwork::new(3, 2);
        let routing = LineRouting::new(&net);
        let ok = Config::from_specs(
            &net,
            &routing,
            &[MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(2),
                2,
            )],
        )
        .unwrap();
        assert!(StoreForwardPolicy::workload_fits(&net, &ok));
        let too_big = Config::from_specs(
            &net,
            &routing,
            &[MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(2),
                3,
            )],
        )
        .unwrap();
        assert!(!StoreForwardPolicy::workload_fits(&net, &too_big));
    }
}
