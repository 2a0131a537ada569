//! Executable statements of the three global GeNoC theorems.
//!
//! * **CorrThm** — every message reaching a destination was emitted at a
//!   valid source, was destined to that destination, and followed a valid
//!   route ([`check_correctness`]).
//! * **EvacThm** — `GeNoC(σ).A = σ.T`: every injected message arrives and
//!   leaves the network ([`check_evacuation`]).
//! * **DeadThm** — the routing function is deadlock-free iff its port
//!   dependency graph is acyclic; the graph machinery lives in
//!   `genoc-depgraph` and the executable two-directional check in
//!   `genoc-verif`.

use std::collections::BTreeSet;

use crate::ids::MsgId;
use crate::interpreter::{Outcome, RunResult};
use crate::network::Network;
use crate::routing::{is_valid_route, RoutingFunction};
use crate::spec::MessageSpec;

/// Result of checking the evacuation theorem on a finished run.
#[derive(Clone, Debug)]
pub struct EvacuationReport {
    /// Whether `GeNoC(σ).A = σ.T` held.
    pub holds: bool,
    /// How the run ended.
    pub outcome: Outcome,
    /// Messages that were injected but never arrived.
    pub missing: Vec<MsgId>,
    /// Messages that arrived but were never injected.
    pub unexpected: Vec<MsgId>,
}

/// Checks the evacuation theorem: the run terminated with every injected
/// message — and only those — in the arrived list.
///
/// # Examples
///
/// ```
/// use genoc_core::line::{LineNetwork, LineRouting, LineSwitching};
/// use genoc_core::injection::IdentityInjection;
/// use genoc_core::interpreter::{run, RunOptions};
/// use genoc_core::spec::MessageSpec;
/// use genoc_core::config::Config;
/// use genoc_core::theorems::check_evacuation;
/// use genoc_core::{MsgId, NodeId};
///
/// # fn main() -> Result<(), genoc_core::Error> {
/// let net = LineNetwork::new(3, 1);
/// let routing = LineRouting::new(&net);
/// let specs = [MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2)];
/// let cfg = Config::from_specs(&net, &routing, &specs)?;
/// let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
/// let result = run(&net, &IdentityInjection, &mut LineSwitching::default(), cfg,
///                  &RunOptions::default())?;
/// assert!(check_evacuation(&injected, &result).holds);
/// # Ok(())
/// # }
/// ```
pub fn check_evacuation(injected: &[MsgId], result: &RunResult) -> EvacuationReport {
    let injected: BTreeSet<MsgId> = injected.iter().copied().collect();
    let arrived: BTreeSet<MsgId> = result.config.arrived().iter().map(|t| t.id()).collect();
    let missing: Vec<MsgId> = injected.difference(&arrived).copied().collect();
    let unexpected: Vec<MsgId> = arrived.difference(&injected).copied().collect();
    EvacuationReport {
        holds: result.outcome == Outcome::Evacuated && missing.is_empty() && unexpected.is_empty(),
        outcome: result.outcome,
        missing,
        unexpected,
    }
}

/// Result of checking the correctness theorem on a finished run.
#[derive(Clone, Debug)]
pub struct CorrectnessReport {
    /// Number of arrived messages whose trajectory was validated.
    pub messages_checked: usize,
    /// Human-readable descriptions of every violation found.
    pub violations: Vec<String>,
}

impl CorrectnessReport {
    /// Whether the correctness theorem held for every arrived message.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the original GeNoC correctness theorem against a recorded trace:
/// every arrived message was emitted at the local in-port of its declared
/// source node, ended at the local out-port of its declared destination node,
/// and the port path its header followed is a valid route of the routing
/// function.
///
/// The run must have been executed with `RunOptions::record_trace` enabled;
/// otherwise every arrived message is reported as a violation (an empty
/// trajectory is not a valid route).
pub fn check_correctness(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    result: &RunResult,
) -> CorrectnessReport {
    let mut violations = Vec::new();
    let mut checked = 0;
    let index = result.trace.flit_index();
    for t in result.config.arrived() {
        checked += 1;
        let id = t.id();
        let path = index.path(id, 0);
        if path.is_empty() {
            violations.push(format!("{id}: no recorded trajectory"));
            continue;
        }
        // Emitted at a valid source: the declared source node's local in-port.
        let spec = match specs.get(id.index()) {
            Some(s) => s,
            None => {
                violations.push(format!("{id}: arrived but was never specified"));
                continue;
            }
        };
        let expected_start = net.local_in(spec.source);
        if path[0] != expected_start {
            violations.push(format!(
                "{id}: emitted at {} instead of {}",
                net.port_label(path[0]),
                net.port_label(expected_start)
            ));
        }
        // Destined to d: the declared destination node's local out-port.
        let expected_end = net.local_out(spec.dest);
        let end = *path.last().expect("non-empty");
        if end != expected_end {
            violations.push(format!(
                "{id}: arrived at {} instead of {}",
                net.port_label(end),
                net.port_label(expected_end)
            ));
        }
        // Followed a valid route.
        if !is_valid_route(net, routing, path) {
            violations.push(format!("{id}: header path is not a valid route"));
        }
        // Every flit was delivered and followed the header's path.
        for f in 0..t.flit_count() {
            if !index.delivered(id, f as u32) {
                violations.push(format!("{id}: flit {f} never delivered in trace"));
            }
            if f > 0 && index.path(id, f as u32) != path {
                violations.push(format!("{id}: flit {f} deviated from the header path"));
            }
        }
    }
    CorrectnessReport {
        messages_checked: checked,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::ids::NodeId;
    use crate::injection::IdentityInjection;
    use crate::interpreter::{run, RunOptions};
    use crate::line::{LineNetwork, LineRouting, LineSwitching};

    fn spec(s: usize, d: usize, flits: usize) -> MessageSpec {
        MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), flits)
    }

    fn traced_run(specs: &[MessageSpec]) -> (LineNetwork, LineRouting, RunResult) {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let cfg = Config::from_specs(&net, &routing, specs).unwrap();
        let options = RunOptions {
            record_trace: true,
            ..RunOptions::default()
        };
        let result = run(
            &net,
            &IdentityInjection,
            &mut LineSwitching::default(),
            cfg,
            &options,
        )
        .unwrap();
        (net, routing, result)
    }

    #[test]
    fn evacuation_holds_on_line() {
        let specs = [spec(0, 3, 2), spec(3, 1, 3), spec(2, 2, 1)];
        let (_, _, result) = traced_run(&specs);
        let injected: Vec<MsgId> = (0..specs.len()).map(MsgId::from_index).collect();
        let report = check_evacuation(&injected, &result);
        assert!(report.holds, "{report:?}");
    }

    #[test]
    fn evacuation_detects_missing_messages() {
        let specs = [spec(0, 3, 1)];
        let (_, _, result) = traced_run(&specs);
        let phantom = MsgId::from_index(99);
        let report = check_evacuation(&[MsgId::from_index(0), phantom], &result);
        assert!(!report.holds);
        assert_eq!(report.missing, vec![phantom]);
    }

    #[test]
    fn correctness_holds_on_line() {
        let specs = [spec(0, 3, 2), spec(3, 0, 2)];
        let (net, routing, result) = traced_run(&specs);
        let report = check_correctness(&net, &routing, &specs, &result);
        assert!(report.holds(), "{:?}", report.violations);
        assert_eq!(report.messages_checked, 2);
    }

    #[test]
    fn correctness_needs_a_trace() {
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        let specs = [spec(0, 2, 1)];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let result = run(
            &net,
            &IdentityInjection,
            &mut LineSwitching::default(),
            cfg,
            &RunOptions::default(),
        )
        .unwrap();
        let report = check_correctness(&net, &routing, &specs, &result);
        assert!(!report.holds());
    }

    #[test]
    fn correctness_flags_wrong_destination_claim() {
        let specs = [spec(0, 3, 1)];
        let (net, routing, result) = traced_run(&specs);
        // Lie about the workload: claim the message was destined elsewhere.
        let lied = [spec(0, 1, 1)];
        let report = check_correctness(&net, &routing, &lied, &result);
        assert!(!report.holds());
        let id = MsgId::from_index(0);
        let (went, claimed) = (NodeId::from_index(3), NodeId::from_index(1));
        assert_eq!(
            report.violations,
            [format!(
                "{id}: arrived at {} instead of {}",
                net.port_label(net.local_out(went)),
                net.port_label(net.local_out(claimed))
            )]
        );
    }
}
