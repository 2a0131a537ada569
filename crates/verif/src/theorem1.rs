//! The executable deadlock theorem (Theorem 1): deadlock-freedom iff the
//! port dependency graph is acyclic.
//!
//! For a *cyclic* graph both constructive directions are executed: the cycle
//! is compiled into a configuration satisfying `Ω` (sufficiency), and a
//! deadlock reached live by the simulator is decompiled into a dependency
//! cycle (necessity): the hunt's wait-for cycle
//! ([`genoc_core::blocking::find_wait_cycle`]), expanded to ports. For an
//! *acyclic* graph, deadlock-freedom is the guaranteed side of the theorem;
//! a bounded randomized hunt corroborates it empirically.

use genoc_core::error::Result;
use genoc_core::PortId;
use genoc_depgraph::witness::deadlock_from_cycle_with;
use genoc_sim::deadlock_hunt::{hunt_random, HuntOptions};
use genoc_switching::Switching;

use crate::instance::Instance;

/// Outcome of exercising Theorem 1 on one instance.
#[derive(Clone, Debug)]
pub struct Theorem1Report {
    /// Instance name.
    pub instance: String,
    /// The cycle of the port dependency graph, if it has one.
    pub cycle: Option<Vec<PortId>>,
    /// Sufficiency: the cycle was compiled into a configuration and `Ω`
    /// verified on it.
    pub witness_deadlock_verified: Option<bool>,
    /// Necessity: a live deadlock was reached by simulation (bounded hunt).
    pub live_deadlock_found: Option<bool>,
    /// Necessity: the live deadlock's wait-for cycle, expanded to ports, is
    /// a cycle of the dependency graph.
    pub extracted_cycle_valid: Option<bool>,
    /// Human-readable findings.
    pub notes: Vec<String>,
}

impl Theorem1Report {
    /// Whether the port dependency graph contains a cycle.
    pub fn cyclic(&self) -> bool {
        self.cycle.is_some()
    }

    /// Whether every executed direction of the theorem held.
    pub fn holds(&self) -> bool {
        self.witness_deadlock_verified != Some(false)
            && self.extracted_cycle_valid != Some(false)
            // An acyclic graph must not produce a live deadlock.
            && (self.cyclic() || self.live_deadlock_found != Some(true))
    }
}

/// Exercises Theorem 1 on an instance with the given hunting budget.
///
/// # Errors
///
/// Propagates internal errors from witness compilation or simulation (which
/// indicate bugs in the harness, not properties of the instance).
pub fn check_theorem1(instance: &Instance, hunt: &HuntOptions) -> Result<Theorem1Report> {
    let net = instance.net.as_ref();
    let routing = instance.routing.as_ref();
    let analysis = instance.analysis();
    let cycle = analysis.acyclicity.cycle();
    let mut notes = Vec::new();
    let mut witness_deadlock_verified = None;
    let mut live_deadlock_found = None;
    let mut extracted_cycle_valid = None;

    if let Some(cycle) = cycle {
        if instance.deterministic {
            // Sufficiency: compile the cycle into a deadlock configuration.
            match deadlock_from_cycle_with(net, routing, analysis, cycle) {
                Ok(witness) => {
                    let omega = !witness.config.any_move_possible();
                    witness_deadlock_verified = Some(omega);
                    if !omega {
                        notes.push("compiled witness configuration is not deadlocked".into());
                    }
                }
                Err(e) => {
                    witness_deadlock_verified = Some(false);
                    notes.push(format!("witness compilation failed: {e}"));
                }
            }
        } else {
            notes.push(
                "adaptive routing: cycle does not imply deadlock (Theorem 1 needs determinism)"
                    .into(),
            );
        }
    }

    // Live hunt: deterministic instances only (the simulator executes
    // pre-computed routes).
    if instance.deterministic {
        let mut policy = Switching::default();
        let found = hunt_random(net, routing, &mut policy, hunt)?;
        live_deadlock_found = Some(found.is_some());
        if let Some(found) = found {
            match found.witness {
                Some(witness) => {
                    let valid = genoc_depgraph::cycle::is_cycle_of(&analysis.graph, &witness.ports);
                    extracted_cycle_valid = Some(valid);
                    if !valid {
                        notes.push("extracted cycle is not a dependency-graph cycle".into());
                    }
                    if cycle.is_none() {
                        notes.push(
                            "live deadlock on an acyclic instance: Theorem 1 violated!".into(),
                        );
                    }
                }
                None => {
                    extracted_cycle_valid = Some(false);
                    notes.push("cycle extraction failed: no wait-for cycle".into());
                }
            }
        }
    }

    Ok(Theorem1Report {
        instance: instance.name.clone(),
        cycle: cycle.map(<[PortId]>::to_vec),
        witness_deadlock_verified,
        live_deadlock_found,
        extracted_cycle_valid,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hunt() -> HuntOptions {
        HuntOptions {
            attempts: 12,
            messages: 12,
            flits: 4,
            max_steps: 20_000,
            first_seed: 0,
        }
    }

    #[test]
    fn xy_mesh_is_acyclic_and_survives_hunting() {
        let report = check_theorem1(&Instance::mesh_xy(3, 3, 1), &small_hunt()).unwrap();
        assert!(!report.cyclic());
        assert_eq!(report.live_deadlock_found, Some(false));
        assert!(report.holds(), "{report:?}");
    }

    #[test]
    fn mixed_mesh_executes_both_directions() {
        let report = check_theorem1(&Instance::mesh_mixed(2, 2, 1), &small_hunt()).unwrap();
        assert!(report.cyclic());
        assert_eq!(
            report.witness_deadlock_verified,
            Some(true),
            "{:?}",
            report.notes
        );
        assert!(report.holds(), "{report:?}");
    }

    #[test]
    fn ring_shortest_deadlocks_live() {
        let report = check_theorem1(&Instance::ring_shortest(6, 1), &small_hunt()).unwrap();
        assert!(report.cyclic());
        assert_eq!(
            report.witness_deadlock_verified,
            Some(true),
            "{:?}",
            report.notes
        );
        if report.live_deadlock_found == Some(true) {
            assert_eq!(
                report.extracted_cycle_valid,
                Some(true),
                "{:?}",
                report.notes
            );
        }
    }
}
