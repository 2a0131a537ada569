//! Randomised deadlock hunting.
//!
//! The necessity direction of Theorem 1 needs *live* deadlocks: deadlocked
//! configurations actually reached by the switching policy. The hunter runs
//! randomized or adversarial workloads until the interpreter reports `Ω`,
//! and keeps the deadlocked configuration's wait-for cycle
//! ([`find_wait_cycle`], expanded to ports) as its witness: the dependency
//! cycle the necessity direction asks for. An attempt that evacuates or
//! reaches its step limit counts as "no deadlock". A hunt that comes up
//! empty on an acyclic router (and it always does — see
//! `tests/theorem1_equivalence.rs`) is the bounded empirical reading of the
//! sufficiency direction.
//!
//! Attempts run on the arena loop's quiet path (`runner.rs`), in one
//! [`ArenaConfig`] and one [`ArenaKernel`] for the whole hunt: each attempt
//! loads its workload's routes straight into the arena's pools and restarts
//! the kernel in place, and a [`Config`] is materialised only for an attempt
//! that ends in `Ω`. A policy the arena cannot run is hunted on the
//! reference loop through [`simulate`], as any plain run of it is.

use genoc_core::arena::{ArenaConfig, ArenaKernel};
use genoc_core::blocking::{find_wait_cycle, WaitCycle};
use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::interpreter::Outcome;
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::switching::SwitchingPolicy;

use crate::runner::{arena_loop, arena_spec, simulate, Audience, SimOptions};
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
}

impl Hunt {
    /// The hunt of `specs` (seed `seed`) that reached `Ω` in `config` after
    /// `steps` steps, with its witness extracted.
    fn new(seed: u64, specs: &[MessageSpec], steps: u64, config: Config) -> Self {
        Hunt {
            seed,
            specs: specs.to_vec(),
            steps,
            witness: find_wait_cycle(&config),
            config,
        }
    }
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
/// found, or `None` if no attempt reached `Ω`: an attempt that stops at
/// [`HuntOptions::max_steps`] counts as no deadlock, as one that evacuates
/// does. All attempts share one arena and one kernel, and `policy` carries
/// its step count from one attempt to the next, as it would across as many
/// [`simulate`] calls.
///
/// # Errors
///
/// [`Error::InvalidSpec`] for a network of fewer than two nodes, which has
/// no uniform traffic; otherwise propagates interpreter errors (which
/// indicate bugs, not deadlocks).
pub fn hunt_random(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    options: &HuntOptions,
) -> Result<Option<Hunt>> {
    if net.node_count() < 2 {
        return Err(Error::InvalidSpec(format!(
            "a random hunt needs at least two nodes for uniform traffic; the network has {}",
            net.node_count()
        )));
    }
    let mut rig = Rig::default();
    for attempt in 0..options.attempts {
        let seed = options.first_seed + attempt;
        let specs = uniform_random(
            net.node_count(),
            options.messages,
            options.flits..=options.flits,
            seed,
        );
        if let Some(hunt) = rig.attempt(net, routing, policy, &specs, seed, options.max_steps)? {
            return Ok(Some(hunt));
        }
    }
    Ok(None)
}

/// Runs one specific workload; returns the deadlock if `Ω` was reached
/// (one attempt of [`hunt_random`]).
///
/// # Errors
///
/// Propagates configuration-construction and interpreter errors.
pub fn hunt_workload(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    specs: &[MessageSpec],
    seed: u64,
    max_steps: u64,
) -> Result<Option<Hunt>> {
    Rig::default().attempt(net, routing, policy, specs, seed, max_steps)
}

/// The arena and kernel a hunt's attempts run in, kept from one attempt to
/// the next so that their buffers are.
#[derive(Default)]
struct Rig {
    arena: ArenaConfig,
    kernel: Option<ArenaKernel>,
}

impl Rig {
    /// One attempt: `specs` run to termination under `policy` within
    /// `max_steps` steps, and the hunt if they end in `Ω`.
    fn attempt(
        &mut self,
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
        let Some(aspec) = arena_spec(policy, &options) else {
            let run = simulate(net, routing, policy, specs, &options)?.run;
            return Ok((run.outcome == Outcome::Deadlock)
                .then(|| Hunt::new(seed, specs, run.steps, run.config)));
        };
        self.arena.load_specs(net, routing, specs)?;
        let kernel = match &mut self.kernel {
            Some(kernel) => {
                kernel.restart(&self.arena, aspec);
                kernel
            }
            None => self.kernel.insert(ArenaKernel::new(&self.arena, aspec)),
        };
        let run = arena_loop(
            net,
            &mut self.arena,
            kernel,
            &options,
            Audience::Quiet(None),
        )?;
        policy.note_kernel_steps(run.steps);
        if run.outcome != Outcome::Deadlock {
            return Ok(None);
        }
        let config = self.arena.to_config(net)?;
        Ok(Some(Hunt::new(seed, specs, run.steps, config)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{bit_complement, ring_offset};
    use genoc_core::meta::{InstanceMeta, RoutingKind};
    use genoc_core::moves::Move;
    use genoc_core::step::{AlwaysAdmit, HeadAdmission};
    use genoc_explore::{explore, replay, ExploreOptions};
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

    /// A BFS-minimal move trace to a deadlock of `specs`, from an exhaustive
    /// search of the workload's interleavings without symmetry reduction;
    /// `por` switches the ample sets on.
    fn minimal_trace(
        mesh: &Mesh,
        routing: &MixedXyYxRouting,
        policy: &Switching,
        specs: &[MessageSpec],
        por: bool,
    ) -> Option<Vec<Move>> {
        let admission = policy
            .kernel_spec()
            .map_or(&AlwaysAdmit as &dyn HeadAdmission, |s| s.admission);
        let meta = InstanceMeta::new(RoutingKind::MixedXyYx, mesh.width(), mesh.height(), 1);
        let options = ExploreOptions {
            symmetry: false,
            por,
            ..ExploreOptions::default()
        };
        let result = explore(mesh, routing, &meta, specs, admission, &options).ok()?;
        result.counterexample().map(|cex| cex.trace.clone())
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
        let trace = minimal_trace(&mesh, &routing, &policy, &hunt.specs, true)
            .expect("the hunted workload deadlocks under exhaustive search");
        // The minimal trace is single-flit moves; the greedy run took
        // `steps` kernel rounds, each moving many flits.
        assert!(!trace.is_empty());
        let replayed = replay(&mesh, &routing, &specs, &trace).expect("the minimal trace replays");
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
        let por = minimal_trace(&mesh, &routing, &policy, &specs, true)
            .expect("POR search finds the corner-storm deadlock");
        let full = minimal_trace(&mesh, &routing, &policy, &specs, false)
            .expect("full-BFS search finds the corner-storm deadlock");
        // Ample sets preserve minimal deadlock depth, so both searches
        // must report traces of identical length.
        assert_eq!(por.len(), full.len());
        let replayed = replay(&mesh, &routing, &specs, &por).unwrap();
        assert!(!replayed.any_move_possible());
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
    fn a_network_of_one_node_is_refused_with_a_typed_error() {
        // Uniform traffic needs two distinct nodes: the hunt says so instead
        // of panicking in the workload generator.
        let mesh = Mesh::new(1, 1, 1);
        let routing = XyRouting::new(&mesh);
        let hunt = hunt_random(
            &mesh,
            &routing,
            &mut Switching::default(),
            &HuntOptions::default(),
        );
        match hunt {
            Err(Error::InvalidSpec(text)) => assert!(text.contains("two nodes"), "{text}"),
            other => panic!("{other:?}"),
        }
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
