//! Termination measures for the evacuation theorem.
//!
//! Proof obligation (C-5) requires a measure `μ` with
//! `σ.T ≠ ∅ ∧ ¬Ω(σ) ⟹ μ(S(R(σ))) < μ(σ)`: as long as messages remain and
//! there is no deadlock, every switching step strictly decreases the measure.
//! Termination of the GeNoC interpreter — and with it the evacuation theorem
//! — follows.

use crate::config::Config;

/// A termination measure over configurations.
pub trait TerminationMeasure {
    /// Human-readable name, e.g. `"mu_xy"`.
    fn name(&self) -> String;

    /// The measure value of a configuration.
    fn measure(&self, cfg: &Config) -> u64;
}

/// The paper's measure `μxy(σ) = Σ { |m.r| | m ∈ σ.T }`: the summed remaining
/// route lengths of all in-flight messages.
///
/// `μxy` decreases whenever some header flit advances, but is *constant*
/// during steps in which the only progress is a worm draining into its
/// destination. It is therefore weakly decreasing under wormhole switching;
/// the strictly decreasing measure the interpreter enforces is
/// [`ProgressMeasure`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RouteLengthMeasure;

impl TerminationMeasure for RouteLengthMeasure {
    fn name(&self) -> String {
        "mu_xy".into()
    }

    fn measure(&self, cfg: &Config) -> u64 {
        cfg.route_length_measure()
    }
}

/// The refined measure: the exact number of flit moves (entries, hops,
/// ejections) still required to deliver every in-flight message. Every flit
/// move decreases it by exactly one, so it is strictly decreasing on every
/// progressing step — discharging (C-5) for any routing function that
/// pre-computes terminating routes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProgressMeasure;

impl TerminationMeasure for ProgressMeasure {
    fn name(&self) -> String {
        "progress".into()
    }

    fn measure(&self, cfg: &Config) -> u64 {
        cfg.progress_measure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::ids::NodeId;
    use crate::line::{LineNetwork, LineRouting};
    use crate::spec::MessageSpec;

    #[test]
    fn measures_agree_on_empty_configuration() {
        let net = LineNetwork::new(2, 1);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, &[]).unwrap();
        assert_eq!(RouteLengthMeasure.measure(&cfg), 0);
        assert_eq!(ProgressMeasure.measure(&cfg), 0);
    }

    #[test]
    fn progress_measure_dominates_route_length() {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(3),
            3,
        )];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        assert!(ProgressMeasure.measure(&cfg) > RouteLengthMeasure.measure(&cfg));
    }
}
