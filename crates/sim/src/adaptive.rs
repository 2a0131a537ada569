//! Simulating *adaptive* routing functions (the paper's future-work
//! frontier) by randomized route selection.
//!
//! An adaptive function offers several next hops per (port, destination)
//! pair. Fixing one admissible choice per message yields a per-message
//! deterministic route, and any selection out of an *acyclic* adaptive
//! relation is itself acyclic — so a turn-model router remains deadlock-free
//! under every selection, while a selection from a cyclic relation (minimal
//! fully-adaptive) can recreate the deadlock. Both sides are exercised by
//! the tests.

use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::travel::Travel;
use genoc_core::{MsgId, PortId};
use rand::RngExt;

use crate::rng::seeded;

/// Selects one admissible route per message by walking the adaptive relation
/// and picking uniformly among the offered hops.
///
/// # Errors
///
/// Returns [`Error::NoRoute`] if the adaptive function offers no hop before
/// the destination is reached, [`Error::RouteDiverged`] if a walk exceeds
/// `4 × port_count` hops, and specification errors for malformed messages.
pub fn select_routes(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    seed: u64,
) -> Result<Vec<Travel>> {
    let mut rng = seeded(seed);
    let limit = 4 * net.port_count().max(4);
    let mut travels = Vec::with_capacity(specs.len());
    let mut hops = Vec::with_capacity(4);
    for (i, spec) in specs.iter().enumerate() {
        if spec.source.index() >= net.node_count() || spec.dest.index() >= net.node_count() {
            return Err(Error::InvalidSpec(format!(
                "message {i} references an unknown node"
            )));
        }
        let source = net.local_in(spec.source);
        let dest = net.local_out(spec.dest);
        let mut route: Vec<PortId> = vec![source];
        let mut current = source;
        while current != dest {
            if route.len() > limit {
                return Err(Error::RouteDiverged {
                    from: source,
                    dest,
                    limit,
                });
            }
            hops.clear();
            routing.next_hops(current, dest, &mut hops);
            if hops.is_empty() {
                return Err(Error::NoRoute {
                    from: current,
                    dest,
                });
            }
            let pick = hops[rng.random_range(0..hops.len())];
            route.push(pick);
            current = pick;
        }
        travels.push(Travel::from_route(
            net,
            MsgId::from_index(i),
            route,
            spec.flits,
        )?);
    }
    Ok(travels)
}

/// Builds an initial configuration with adaptively selected routes. This is
/// how adaptive routing functions ride the arena stepper: hand the result to
/// [`simulate_config`](crate::runner::simulate_config); the selection fixes
/// deterministic routes up front, and the stepper never needs to know the
/// relation was adaptive.
///
/// # Errors
///
/// As for [`select_routes`].
pub fn config_with_selected_routes(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    seed: u64,
) -> Result<Config> {
    Config::from_travels(net, select_routes(net, routing, specs, seed)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions};
    use genoc_routing::adaptive::MinimalAdaptiveRouting;
    use genoc_routing::turn_model::{TurnModel, TurnModelRouting};
    use genoc_switching::Switching;
    use genoc_topology::mesh::Mesh;

    #[test]
    fn selected_routes_are_admissible_and_minimal() {
        let mesh = Mesh::new(4, 4, 1);
        let routing = MinimalAdaptiveRouting::new(&mesh);
        let specs = crate::workload::uniform_random(16, 40, 1..=3, 5);
        let travels = select_routes(&mesh, &routing, &specs, 9).unwrap();
        for (t, s) in travels.iter().zip(&specs) {
            let (sx, sy) = mesh.node_coords(s.source);
            let (dx, dy) = mesh.node_coords(s.dest);
            assert_eq!(t.route().len(), 2 + 2 * (sx.abs_diff(dx) + sy.abs_diff(dy)));
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn different_seeds_pick_different_routes() {
        let mesh = Mesh::new(4, 4, 1);
        let routing = MinimalAdaptiveRouting::new(&mesh);
        let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(3, 3), 1)];
        let routes: std::collections::BTreeSet<Vec<usize>> = (0..32)
            .map(|seed| {
                select_routes(&mesh, &routing, &specs, seed).unwrap()[0]
                    .route()
                    .iter()
                    .map(|p| p.index())
                    .collect()
            })
            .collect();
        assert!(routes.len() > 1, "adaptivity must show in the selection");
    }

    #[test]
    fn turn_model_selections_always_evacuate() {
        let mesh = Mesh::new(3, 3, 1);
        for model in [
            TurnModel::WestFirst,
            TurnModel::NorthLast,
            TurnModel::NegativeFirst,
        ] {
            let routing = TurnModelRouting::new(&mesh, model);
            for seed in 0..10 {
                let specs = crate::workload::uniform_random(9, 16, 2..=4, seed);
                let cfg = config_with_selected_routes(&mesh, &routing, &specs, seed).unwrap();
                let r = run(
                    &mesh,
                    &IdentityInjection,
                    &mut Switching::default(),
                    cfg,
                    &RunOptions::default(),
                )
                .unwrap();
                assert_eq!(r.outcome, Outcome::Evacuated, "{model:?} seed {seed}");
            }
        }
    }

    #[test]
    fn minimal_adaptive_selection_can_deadlock() {
        // The corner storm on a 2x2 mesh: with the right per-message
        // choices the four worms close the cycle (probability ≥ 1/8 per
        // seed), which no turn-model selection can do.
        let mesh = Mesh::new(2, 2, 1);
        let routing = MinimalAdaptiveRouting::new(&mesh);
        let specs = crate::workload::bit_complement(&mesh, 4);
        let mut deadlocked = false;
        for seed in 0..100 {
            let cfg = config_with_selected_routes(&mesh, &routing, &specs, seed).unwrap();
            let r = run(
                &mesh,
                &IdentityInjection,
                &mut Switching::default(),
                cfg,
                &RunOptions {
                    max_steps: 10_000,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            if r.outcome == Outcome::Deadlock {
                deadlocked = true;
                break;
            }
        }
        assert!(deadlocked, "some selection must close the corner cycle");
    }
}
