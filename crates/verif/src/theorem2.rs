//! The executable evacuation theorem (Theorem 2): `GeNoC(σ).A = σ.T`.
//!
//! Given an instance whose obligations hold, every workload must terminate
//! with the arrived list equal to the injected travel list — and, with a
//! trace recorded, satisfy the original correctness theorem (`CorrThm`) as
//! well.

use genoc_core::error::Result;
use genoc_core::spec::MessageSpec;
use genoc_core::switching::SwitchingPolicy;
use genoc_core::theorems::{check_correctness, check_evacuation};
use genoc_sim::runner::{simulate, SimOptions, SimResult};
use genoc_switching::Switching;

use crate::instance::Instance;

/// Outcome of exercising Theorem 2 (and `CorrThm`) on one workload.
#[derive(Clone, Debug)]
pub struct Theorem2Report {
    /// Instance name.
    pub instance: String,
    /// Number of messages in the workload.
    pub messages: usize,
    /// Switching steps until termination.
    pub steps: u64,
    /// Flits delivered into destination IP cores (all of them when
    /// evacuated; the partial count on a deadlocked run).
    pub delivered_flits: u64,
    /// Wall-clock milliseconds of the simulation alone (the correctness
    /// and evacuation checks over the trace are not included) — the basis
    /// for throughput figures.
    pub sim_ms: f64,
    /// Whether `GeNoC(σ).A = σ.T` held.
    pub evacuated: bool,
    /// Whether every arrived message satisfied the correctness theorem.
    pub correct: bool,
    /// Human-readable findings.
    pub notes: Vec<String>,
}

impl Theorem2Report {
    /// Whether both theorems held.
    pub fn holds(&self) -> bool {
        self.evacuated && self.correct
    }

    /// Judges one finished run of `specs` on `instance` — evacuation and,
    /// over the run's trace, correctness — with `sim_ms` the run's own wall
    /// clock. The run must have recorded its trace
    /// ([`SimOptions::record_trace`]). An adaptive instance's run follows
    /// one selected route per message, and its notes say so.
    pub fn judge(
        instance: &Instance,
        specs: &[MessageSpec],
        sim: &SimResult,
        sim_ms: f64,
    ) -> Theorem2Report {
        let run = &sim.run;
        let evac = check_evacuation(&sim.injected, run);
        let corr = check_correctness(instance.net.as_ref(), instance.routing.as_ref(), specs, run);
        let mut notes = Vec::new();
        if !evac.holds && instance.deterministic {
            notes.push(format!(
                "evacuation failed: outcome {:?}, {} missing, {} unexpected",
                evac.outcome,
                evac.missing.len(),
                evac.unexpected.len()
            ));
        }
        notes.extend(corr.violations.iter().cloned());
        if !evac.holds {
            notes.push(if instance.deterministic {
                format!("run ended after {} steps", run.steps)
            } else {
                format!(
                    "selection did not evacuate: outcome {:?} after {} steps",
                    run.outcome, run.steps
                )
            });
        }
        Theorem2Report {
            instance: instance.name.clone(),
            messages: specs.len(),
            steps: run.steps,
            delivered_flits: run.config.delivered_flits(),
            sim_ms,
            evacuated: evac.holds,
            correct: corr.holds(),
            notes,
        }
    }
}

/// Runs `specs` on the instance under wormhole switching and checks
/// evacuation plus correctness.
///
/// # Errors
///
/// Propagates configuration and interpreter errors.
pub fn check_theorem2(instance: &Instance, specs: &[MessageSpec]) -> Result<Theorem2Report> {
    check_theorem2_with(instance, specs, &mut Switching::default())
}

/// Like [`check_theorem2`], but under an arbitrary switching policy: one
/// traced run of `specs`, then [`Theorem2Report::judge`].
///
/// # Errors
///
/// Propagates configuration and interpreter errors.
pub fn check_theorem2_with(
    instance: &Instance,
    specs: &[MessageSpec],
    policy: &mut dyn SwitchingPolicy,
) -> Result<Theorem2Report> {
    let options = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };
    let sim_start = std::time::Instant::now();
    let sim = simulate(
        instance.net.as_ref(),
        instance.routing.as_ref(),
        policy,
        specs,
        &options,
    )?;
    let sim_ms = sim_start.elapsed().as_secs_f64() * 1e3;
    Ok(Theorem2Report::judge(instance, specs, &sim, sim_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::meta::SwitchingKind;
    use genoc_sim::workload::{all_to_all, uniform_random};

    #[test]
    fn xy_mesh_evacuates_all_to_all() {
        let instance = Instance::mesh_xy(3, 3, 2);
        let specs = all_to_all(9, 2);
        let report = check_theorem2(&instance, &specs).unwrap();
        assert!(report.holds(), "{:?}", report.notes);
        assert_eq!(report.messages, 72);
    }

    #[test]
    fn dateline_ring_evacuates_random_traffic() {
        let instance = Instance::ring_dateline(8, 1);
        let specs = uniform_random(8, 24, 1..=5, 3);
        let report = check_theorem2(&instance, &specs).unwrap();
        assert!(report.holds(), "{:?}", report.notes);
    }

    #[test]
    fn other_policies_evacuate_with_whole_packet_buffers() {
        // Cut-through and store-and-forward admit a head only when the whole
        // packet fits downstream, so buffers at least as deep as the longest
        // worm keep the run admissible.
        let specs = uniform_random(9, 12, 1..=4, 11);
        let vct = check_theorem2_with(
            &Instance::mesh_xy(3, 3, 4),
            &specs,
            &mut Switching::new(SwitchingKind::VirtualCutThrough),
        )
        .unwrap();
        assert!(vct.holds(), "{:?}", vct.notes);
        let saf = check_theorem2_with(
            &Instance::mesh_xy(3, 3, 4),
            &specs,
            &mut Switching::new(SwitchingKind::StoreForward),
        )
        .unwrap();
        assert!(saf.holds(), "{:?}", saf.notes);
        assert!(
            saf.steps >= vct.steps,
            "store-and-forward serialises every hop"
        );
    }

    #[test]
    fn mixed_router_fails_evacuation_on_the_corner_storm() {
        let instance = Instance::mesh_mixed(2, 2, 1);
        let mesh = genoc_topology::Mesh::new(2, 2, 1);
        let specs = genoc_sim::workload::bit_complement(&mesh, 4);
        let report = check_theorem2(&instance, &specs).unwrap();
        assert!(
            !report.evacuated,
            "the corner storm deadlocks the mixed router"
        );
    }
}
