//! Randomised deadlock hunting.
//!
//! The necessity direction of Theorem 1 needs *live* deadlocks: deadlocked
//! configurations actually reached by the switching policy. The hunter runs
//! randomized or adversarial workloads until the interpreter reports `Ω`,
//! then hands the deadlocked configuration to
//! `genoc_depgraph::witness::cycle_from_deadlock` for cycle extraction. A
//! hunt that comes up empty on an acyclic router (and it always does — see
//! `tests/theorem1_equivalence.rs`) is the bounded empirical reading of the
//! sufficiency direction.

use genoc_core::blocking::{find_wait_cycle, WaitCycle};
use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::interpreter::Outcome;
use genoc_core::moves::Move;
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::step::{AlwaysAdmit, HeadAdmission};
use genoc_core::switching::SwitchingPolicy;
use genoc_explore::{explore_workload, ExploreOptions};

use crate::runner::{simulate, SimOptions};
use crate::workload::uniform_random;

/// A deadlock found by the hunter.
#[derive(Clone, Debug)]
pub struct Hunt {
    /// Seed of the workload that deadlocked.
    pub seed: u64,
    /// The workload itself.
    pub specs: Vec<MessageSpec>,
    /// Steps until `Ω` held.
    pub steps: u64,
    /// The deadlocked configuration.
    pub config: Config,
    /// Structured witness: the blocked-port cycle extracted from the
    /// deadlocked configuration's wait-for structure. `Some` for every
    /// wormhole deadlock; `None` only when the deadlock arose from a
    /// stricter admission rule (virtual cut-through, store-and-forward)
    /// that blocks heads the wormhole rules would admit.
    pub witness: Option<WaitCycle>,
    /// Path of a structured event log recording a run of this workload to
    /// the deadlock, when one was written (see `genoc-obs::record_hunt`).
    /// Plain data — the hunter itself never performs I/O.
    pub wal: Option<std::path::PathBuf>,
}

/// Hunting parameters.
#[derive(Clone, Copy, Debug)]
pub struct HuntOptions {
    /// Number of random workloads to try.
    pub attempts: u64,
    /// First seed (seeds are consecutive).
    pub first_seed: u64,
    /// Messages per workload.
    pub messages: usize,
    /// Flits per message (longer worms deadlock more easily).
    pub flits: usize,
    /// Step limit per attempt.
    pub max_steps: u64,
}

impl Default for HuntOptions {
    fn default() -> Self {
        HuntOptions {
            attempts: 64,
            first_seed: 0,
            messages: 16,
            flits: 4,
            max_steps: 100_000,
        }
    }
}

/// Runs random workloads until one deadlocks; returns the first deadlock
/// found, or `None` if every attempt evacuated.
///
/// # Errors
///
/// Propagates interpreter errors (which indicate bugs, not deadlocks).
pub fn hunt_random(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    options: &HuntOptions,
) -> Result<Option<Hunt>> {
    for attempt in 0..options.attempts {
        let seed = options.first_seed + attempt;
        let specs = uniform_random(
            net.node_count(),
            options.messages,
            options.flits..=options.flits,
            seed,
        );
        if let Some(hunt) = hunt_workload(net, routing, policy, &specs, seed, options.max_steps)? {
            return Ok(Some(hunt));
        }
    }
    Ok(None)
}

/// Runs one specific workload; returns the deadlock if `Ω` was reached.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn hunt_workload(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    specs: &[MessageSpec],
    seed: u64,
    max_steps: u64,
) -> Result<Option<Hunt>> {
    let options = SimOptions {
        max_steps,
        ..SimOptions::default()
    };
    let result = simulate(net, routing, policy, specs, &options)?;
    if result.run.outcome == Outcome::Deadlock {
        let witness = find_wait_cycle(&result.run.config);
        Ok(Some(Hunt {
            seed,
            specs: specs.to_vec(),
            steps: result.run.steps,
            config: result.run.config,
            witness,
            wal: None,
        }))
    } else {
        Ok(None)
    }
}

/// Workloads at most this many messages wide are candidates for shrinking.
const SHRINK_MAX_MESSAGES: usize = 8;
/// …carrying at most this many flits in total…
const SHRINK_MAX_FLITS: usize = 24;
/// …explored up to this many states. Shrinking runs without symmetry
/// reduction (no [`genoc_core::meta::InstanceMeta`] is available here to
/// derive automorphism candidates from), so the budget is sized for the raw
/// space: the 2×2 corner storm with 4-flit worms needs ~78k states.
const SHRINK_MAX_STATES: usize = 100_000;

/// Shrinks a greedy deadlock to a BFS-minimal move trace by exhaustively
/// exploring the workload's interleavings
/// ([`genoc_explore::explore_workload`]), when the instance is small
/// enough; call it on a [`Hunt`]'s `specs`. The random prefix that *found*
/// the deadlock is typically thousands of kernel steps; the minimal trace
/// to a deadlock of the same workload, replayable via
/// [`genoc_explore::replay`], is usually a few dozen single-flit moves. Any
/// failure (too large, bound hit, or the greedy deadlock's interleaving
/// class not reached within the bound) degrades to `None` — the `steps`-long
/// greedy run then remains the only path to the deadlock.
///
/// Shrinking explores with partial-order reduction by default — ample sets
/// preserve both the verdict and the minimal trace length (see
/// `genoc_explore::por`) and make the search several times cheaper. Pass
/// `full_bfs = true` to force the unreduced search, e.g. to cross-check the
/// reduction; the returned trace length must be identical either way.
pub fn shrink_witness(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &dyn SwitchingPolicy,
    specs: &[MessageSpec],
    full_bfs: bool,
) -> Option<Vec<Move>> {
    let total_flits: usize = specs.iter().map(|s| s.flits).sum();
    if specs.len() > SHRINK_MAX_MESSAGES || total_flits > SHRINK_MAX_FLITS {
        return None;
    }
    let admission = policy
        .kernel_spec()
        .map_or(&AlwaysAdmit as &dyn HeadAdmission, |s| s.admission);
    let options = ExploreOptions {
        max_states: SHRINK_MAX_STATES,
        symmetry: false,
        por: !full_bfs,
        ..ExploreOptions::default()
    };
    let result = explore_workload(net, routing, specs, admission, &options).ok()?;
    result.counterexample().map(|cex| cex.trace.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{bit_complement, ring_offset};
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_routing::ring::RingShortestRouting;
    use genoc_routing::xy::XyRouting;
    use genoc_switching::Switching;
    use genoc_topology::mesh::Mesh;
    use genoc_topology::ring::Ring;

    #[test]
    fn corner_storm_deadlocks_the_mixed_router() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let hunt = hunt_workload(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            0,
            10_000,
        )
        .unwrap();
        let hunt = hunt.expect("the four-corner storm must deadlock mixed routing");
        assert!(!hunt.config.any_move_possible());
        let witness = hunt.witness.expect("wormhole deadlocks carry a witness");
        assert!(!witness.msgs.is_empty());
        assert!(witness.ports.len() >= witness.msgs.len());
        for &m in &witness.msgs {
            assert!(hunt.config.travel_by_id(m).is_some());
        }
    }

    #[test]
    fn corner_storm_witness_shrinks_to_a_minimal_replayable_trace() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let mut policy = Switching::default();
        let hunt = hunt_workload(&mesh, &routing, &mut policy, &specs, 0, 10_000)
            .unwrap()
            .expect("the four-corner storm must deadlock mixed routing");
        let trace = shrink_witness(&mesh, &routing, &policy, &hunt.specs, false)
            .expect("a 4-message workload is well inside the shrink budget");
        // The minimal trace is single-flit moves; the greedy run took
        // `steps` kernel rounds, each moving many flits. Minimality means
        // the trace can't exceed the flit-moves the greedy run spent.
        assert!(!trace.is_empty());
        let replayed = genoc_explore::replay(&mesh, &routing, &specs, &trace)
            .expect("the minimal trace replays");
        assert!(
            !replayed.any_move_possible(),
            "replaying the minimal trace must land in a deadlock"
        );
        assert!(!replayed.travels().is_empty());
    }

    #[test]
    fn por_shrink_matches_the_full_bfs_shrink_length() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let policy = Switching::default();
        let por = shrink_witness(&mesh, &routing, &policy, &specs, false)
            .expect("POR shrink finds the corner-storm deadlock");
        let full = shrink_witness(&mesh, &routing, &policy, &specs, true)
            .expect("full-BFS shrink finds the corner-storm deadlock");
        // Ample sets preserve minimal deadlock depth, so both searches
        // must report traces of identical length.
        assert_eq!(por.len(), full.len());
        let replayed = genoc_explore::replay(&mesh, &routing, &specs, &por).unwrap();
        assert!(!replayed.any_move_possible());
    }

    #[test]
    fn oversized_workloads_skip_the_shrink() {
        let mesh = Mesh::new(3, 3, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let options = HuntOptions {
            attempts: 32,
            messages: 40,
            flits: 8,
            ..HuntOptions::default()
        };
        let mut policy = Switching::default();
        let hunt = hunt_random(&mesh, &routing, &mut policy, &options)
            .unwrap()
            .expect("heavy random traffic trips the cyclic router");
        assert!(
            shrink_witness(&mesh, &routing, &policy, &hunt.specs, false).is_none(),
            "40 messages x 8 flits is far beyond the shrink budget"
        );
    }

    #[test]
    fn ring_pressure_deadlocks_shortest_path_routing() {
        let ring = Ring::new(6, 1);
        let routing = RingShortestRouting::new(&ring);
        let specs = ring_offset(6, 2, 4);
        let hunt = hunt_workload(
            &ring,
            &routing,
            &mut Switching::default(),
            &specs,
            0,
            10_000,
        )
        .unwrap();
        assert!(
            hunt.is_some(),
            "clockwise pressure must deadlock the plain ring"
        );
    }

    #[test]
    fn xy_routing_survives_the_same_pressure() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let hunt = hunt_workload(
            &mesh,
            &routing,
            &mut Switching::default(),
            &specs,
            0,
            10_000,
        )
        .unwrap();
        assert!(hunt.is_none(), "XY is deadlock-free");
    }

    #[test]
    fn random_hunt_finds_mixed_router_deadlocks() {
        let mesh = Mesh::new(3, 3, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        // Heavy traffic (long worms, ~4.4 messages per node) keeps the
        // per-workload deadlock probability high enough that 32 attempts
        // always suffice, independent of the RNG's exact stream.
        let options = HuntOptions {
            attempts: 32,
            messages: 40,
            flits: 8,
            ..HuntOptions::default()
        };
        let hunt = hunt_random(&mesh, &routing, &mut Switching::default(), &options).unwrap();
        assert!(
            hunt.is_some(),
            "random traffic should trip the cyclic router"
        );
    }
}
