//! Pluggable recovery policies: what to do with a detected deadlock cycle.
//!
//! Three strategies, covering the classical design space:
//!
//! * [`AbortAndEvacuate`] — sacrifice the *youngest* cycle member (highest
//!   message id); the freed ports un-block its predecessor and the survivors
//!   drain by the evacuation theorem.
//! * [`EscapeChannel`] — divert cycle members onto reserved escape resources
//!   (an [`EscapeRoute`] provider); nothing is lost, at the price of longer
//!   escape paths. Falls back to one abort if no member can divert.
//! * [`DrainAll`] — evict every in-flight message back to its source and
//!   hand them to the engine for strictly serialized re-injection: maximal
//!   cost, but delivery of *everything* is guaranteed (a lone message on a
//!   duplicate-free route cannot block).

use genoc_core::blocking::WaitCycle;
use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::network::Network;
use genoc_core::travel::Travel;
use genoc_core::MsgId;

use crate::escape::EscapeRoute;

/// What one recovery invocation did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryOutcome {
    /// Messages evicted and dropped.
    pub aborted: Vec<MsgId>,
    /// Messages diverted onto escape routes.
    pub rerouted: Vec<MsgId>,
    /// Messages evicted and staged for serialized re-injection (the engine
    /// feeds them back one at a time as the network drains).
    pub staged: Vec<Travel>,
    /// Whether this recovery was a full drain-and-restart round.
    pub restarted: bool,
}

impl RecoveryOutcome {
    /// Whether the recovery changed the configuration at all.
    pub fn acted(&self) -> bool {
        !self.aborted.is_empty() || !self.rerouted.is_empty() || self.restarted
    }
}

/// A deadlock recovery strategy, applied by the detection engine whenever
/// the exact detector reports a wait-for cycle.
///
/// # Examples
///
/// Strategies differ in what they sacrifice. On the same deadlocked corner
/// storm, [`AbortAndEvacuate`] drops one message while [`DrainAll`] delivers
/// everything at the price of serialized re-injection:
///
/// ```
/// use genoc_core::config::Config;
/// use genoc_detect::{AbortAndEvacuate, DetectionEngine, DrainAll, EngineOptions, RecoveryPolicy};
/// use genoc_routing::mixed::MixedXyYxRouting;
/// use genoc_sim::{simulate_config, workload, SimOptions};
/// use genoc_switching::Switching;
/// use genoc_topology::mesh::Mesh;
///
/// # fn main() -> Result<(), genoc_core::Error> {
/// let mesh = Mesh::new(2, 2, 1);
/// let routing = MixedXyYxRouting::new(&mesh);
/// let storm = workload::bit_complement(&mesh, 4); // deadlocks untreated
///
/// for (policy, delivered) in [
///     (Box::new(AbortAndEvacuate) as Box<dyn RecoveryPolicy>, 3),
///     (Box::new(DrainAll::default()), 4),
/// ] {
///     let name = policy.name();
///     let mut engine = DetectionEngine::with_policy(EngineOptions::default(), policy);
///     let result = simulate_config(
///         &mesh,
///         &mut Switching::default(),
///         Config::from_specs(&mesh, &routing, &storm)?,
///         &SimOptions::default(),
///         Some(&mut engine),
///         None,
///     )?;
///     assert!(result.evacuated(), "{name} saves the run");
///     assert_eq!(result.run.config.arrived().len(), delivered, "{name}");
/// }
/// # Ok(())
/// # }
/// ```
pub trait RecoveryPolicy {
    /// Short display name, e.g. `"abort-and-evacuate"`.
    fn name(&self) -> String;

    /// Breaks `cycle` by mutating `cfg`. Implementations must make progress
    /// possible for at least one formerly blocked message (or stage evicted
    /// travels for re-injection); the engine re-checks for remaining cycles
    /// and applies the policy again as needed.
    ///
    /// # Errors
    ///
    /// Propagates configuration-surgery failures (which indicate bugs, not
    /// properties of the workload).
    fn recover(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        cycle: &WaitCycle,
    ) -> Result<RecoveryOutcome>;
}

/// The youngest member of a cycle: the one with the highest message id
/// (message ids are issued in injection order).
fn youngest(cycle: &WaitCycle) -> MsgId {
    *cycle
        .msgs
        .iter()
        .max()
        .expect("wait cycles are never empty")
}

/// Abort the youngest cycle member and let the survivors evacuate.
#[derive(Clone, Copy, Debug, Default)]
pub struct AbortAndEvacuate;

impl RecoveryPolicy for AbortAndEvacuate {
    fn name(&self) -> String {
        "abort-and-evacuate".into()
    }

    fn recover(
        &mut self,
        _net: &dyn Network,
        cfg: &mut Config,
        cycle: &WaitCycle,
    ) -> Result<RecoveryOutcome> {
        let victim = youngest(cycle);
        cfg.remove_travel(victim)?;
        Ok(RecoveryOutcome {
            aborted: vec![victim],
            ..RecoveryOutcome::default()
        })
    }
}

/// Divert cycle members onto a reserved escape channel; abort the youngest
/// member only if no diversion is possible.
pub struct EscapeChannel {
    escape: Box<dyn EscapeRoute>,
}

impl EscapeChannel {
    /// Builds the policy around an escape-route provider.
    pub fn new(escape: Box<dyn EscapeRoute>) -> Self {
        EscapeChannel { escape }
    }
}

impl std::fmt::Debug for EscapeChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EscapeChannel")
            .field("escape", &self.escape.name())
            .finish()
    }
}

impl RecoveryPolicy for EscapeChannel {
    fn name(&self) -> String {
        format!("escape-channel/{}", self.escape.name())
    }

    fn recover(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        cycle: &WaitCycle,
    ) -> Result<RecoveryOutcome> {
        let mut outcome = RecoveryOutcome::default();
        for &m in &cycle.msgs {
            let Some(t) = cfg.travel_by_id(m) else {
                continue;
            };
            if let Some(route) = self.escape.escape_route(net, t) {
                // A diversion the validator rejects (e.g. the escape path
                // would revisit a port) is skipped, not fatal: reroute
                // validates before mutating.
                if cfg.reroute_travel(net, m, route).is_ok() {
                    outcome.rerouted.push(m);
                }
            }
        }
        if outcome.rerouted.is_empty() {
            let victim = youngest(cycle);
            cfg.remove_travel(victim)?;
            outcome.aborted.push(victim);
        }
        Ok(outcome)
    }
}

/// Evict every in-flight message and re-inject serially.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainAll;

impl RecoveryPolicy for DrainAll {
    fn name(&self) -> String {
        "drain-all".into()
    }

    fn recover(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        _cycle: &WaitCycle,
    ) -> Result<RecoveryOutcome> {
        let mut outcome = RecoveryOutcome {
            restarted: true,
            ..RecoveryOutcome::default()
        };
        let ids: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
        for id in ids {
            let t = cfg.remove_travel(id)?;
            // Reset to a fresh pending travel on the same route. Travels that
            // did not start at an injection port (hand-built mid-flight
            // configurations) cannot be re-staged and are dropped instead.
            match Travel::from_route(net, t.id(), t.route().to_vec(), t.flit_count()) {
                Ok(fresh) => outcome.staged.push(fresh),
                Err(_) => outcome.aborted.push(id),
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::blocking::find_wait_cycle;
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_sim::workload::bit_complement;
    use genoc_switching::Switching;
    use genoc_topology::mesh::Mesh;

    /// Drive the corner storm into its deadlock and return net + config.
    fn deadlocked() -> (Mesh, Config) {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let hunt = genoc_sim::hunt_workload(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            0,
            10_000,
        )
        .unwrap()
        .expect("the corner storm deadlocks");
        (mesh, hunt.config)
    }

    #[test]
    fn abort_frees_the_predecessor() {
        let (mesh, mut cfg) = deadlocked();
        let cycle = find_wait_cycle(&cfg).expect("deadlock has a cycle");
        let before = cfg.travels().len();
        let outcome = AbortAndEvacuate.recover(&mesh, &mut cfg, &cycle).unwrap();
        assert_eq!(outcome.aborted.len(), 1);
        assert_eq!(outcome.aborted[0], *cycle.msgs.iter().max().unwrap());
        assert_eq!(cfg.travels().len(), before - 1);
        cfg.validate(&mesh).unwrap();
        assert!(
            cfg.any_move_possible(),
            "breaking the cycle must re-enable progress"
        );
    }

    #[test]
    fn drain_all_stages_everything() {
        let (mesh, mut cfg) = deadlocked();
        let cycle = find_wait_cycle(&cfg).unwrap();
        let inflight = cfg.travels().len();
        let outcome = DrainAll.recover(&mesh, &mut cfg, &cycle).unwrap();
        assert!(outcome.restarted);
        assert_eq!(outcome.staged.len() + outcome.aborted.len(), inflight);
        assert!(cfg.is_evacuated(), "everything evicted");
        assert!(cfg.state().ports().all(|p| p.available()));
        for t in &outcome.staged {
            assert!(!t.occupies_network());
        }
    }
}
