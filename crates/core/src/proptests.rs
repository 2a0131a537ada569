//! Property-based tests over the core data structures: random admissible
//! move sequences keep every invariant intact, measures behave as specified,
//! and the greedy step agrees with the deadlock predicate.

#![cfg(test)]

use proptest::prelude::*;

use crate::config::Config;
use crate::ids::NodeId;
use crate::injection::IdentityInjection;
use crate::interpreter::{run, Outcome, RunOptions};
use crate::line::{LineNetwork, LineRouting, LineSwitching};
use crate::spec::MessageSpec;
use crate::step::{step_all, AlwaysAdmit, StepScratch};
use crate::trace::Trace;

fn specs_strategy(nodes: usize) -> impl Strategy<Value = Vec<MessageSpec>> {
    proptest::collection::vec((0..nodes, 0..nodes, 1usize..=5), 0..10).prop_map(|v| {
        v.into_iter()
            .map(|(s, d, f)| MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), f))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any workload on the line evacuates, and every intermediate
    /// configuration passes the full structural validation.
    #[test]
    fn line_runs_preserve_all_invariants(
        nodes in 1usize..=6,
        capacity in 1u32..=3,
        specs in specs_strategy(6),
    ) {
        let net = LineNetwork::new(nodes, capacity);
        let routing = LineRouting::new(&net);
        let specs: Vec<MessageSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.source = NodeId::from_index(s.source.index() % nodes);
                s.dest = NodeId::from_index(s.dest.index() % nodes);
                s
            })
            .collect();
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let options = RunOptions { check_invariants: true, ..RunOptions::default() };
        let result = run(&net, &IdentityInjection, &mut LineSwitching::default(), cfg, &options)
            .unwrap();
        prop_assert_eq!(result.outcome, Outcome::Evacuated);
        prop_assert_eq!(result.config.arrived().len(), specs.len());
    }

    /// The progress measure decreases by exactly the number of flit moves
    /// performed in a step.
    #[test]
    fn progress_measure_counts_moves_exactly(
        nodes in 2usize..=5,
        capacity in 1u32..=3,
        specs in specs_strategy(5),
        steps in 1usize..20,
    ) {
        let net = LineNetwork::new(nodes, capacity);
        let routing = LineRouting::new(&net);
        let specs: Vec<MessageSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.source = NodeId::from_index(s.source.index() % nodes);
                s.dest = NodeId::from_index(s.dest.index() % nodes);
                s
            })
            .collect();
        let mut cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let mut scratch = StepScratch::new(crate::network::Network::port_count(&net));
        let mut trace = Trace::new(false);
        for _ in 0..steps {
            if cfg.is_evacuated() {
                break;
            }
            let before = cfg.progress_measure();
            scratch.reset(crate::network::Network::port_count(&net));
            let order = 0..cfg.travels().len();
            let report = step_all(&mut cfg, order, &mut scratch, &mut trace, &AlwaysAdmit).unwrap();
            cfg.drain_arrived();
            let after = cfg.progress_measure();
            prop_assert_eq!(before - after, report.moves() as u64);
        }
    }

    /// The deadlock predicate agrees with the step function: on the line
    /// (acyclic routing) a non-evacuated configuration always moves.
    #[test]
    fn step_moves_iff_not_deadlocked(
        nodes in 2usize..=5,
        specs in specs_strategy(5),
    ) {
        let net = LineNetwork::new(nodes, 1);
        let routing = LineRouting::new(&net);
        let specs: Vec<MessageSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.source = NodeId::from_index(s.source.index() % nodes);
                s.dest = NodeId::from_index(s.dest.index() % nodes);
                s
            })
            .collect();
        let mut cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let mut scratch = StepScratch::new(crate::network::Network::port_count(&net));
        let mut trace = Trace::new(false);
        for _ in 0..200 {
            if cfg.is_evacuated() {
                break;
            }
            prop_assert!(cfg.any_move_possible(), "line routing cannot deadlock");
            scratch.reset(crate::network::Network::port_count(&net));
            let order = 0..cfg.travels().len();
            let report = step_all(&mut cfg, order, &mut scratch, &mut trace, &AlwaysAdmit).unwrap();
            prop_assert!(report.moves() > 0);
            cfg.drain_arrived();
        }
        prop_assert!(cfg.is_evacuated(), "200 steps must suffice on a 5-node line");
    }

    /// `from_travels` round-trips any state reachable by admissible moves.
    #[test]
    fn from_travels_round_trips_reachable_states(
        seed_steps in 0usize..15,
        specs in specs_strategy(4),
    ) {
        let net = LineNetwork::new(4, 2);
        let routing = LineRouting::new(&net);
        let specs: Vec<MessageSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.source = NodeId::from_index(s.source.index() % 4);
                s.dest = NodeId::from_index(s.dest.index() % 4);
                s
            })
            .collect();
        let mut cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let mut scratch = StepScratch::new(crate::network::Network::port_count(&net));
        let mut trace = Trace::new(false);
        for _ in 0..seed_steps {
            if cfg.is_evacuated() {
                break;
            }
            scratch.reset(crate::network::Network::port_count(&net));
            let order = 0..cfg.travels().len();
            step_all(&mut cfg, order, &mut scratch, &mut trace, &AlwaysAdmit).unwrap();
            cfg.drain_arrived();
        }
        let all: Vec<_> =
            cfg.travels().iter().chain(cfg.arrived().iter()).cloned().collect();
        let rebuilt = Config::from_travels(&net, all).unwrap();
        prop_assert_eq!(rebuilt.state(), cfg.state());
        prop_assert_eq!(rebuilt.travels().len(), cfg.travels().len());
        prop_assert_eq!(rebuilt.arrived().len(), cfg.arrived().len());
    }

    /// μxy never exceeds the progress measure and both reach zero together.
    #[test]
    fn measures_are_ordered(
        nodes in 2usize..=5,
        specs in specs_strategy(5),
    ) {
        let net = LineNetwork::new(nodes, 1);
        let routing = LineRouting::new(&net);
        let specs: Vec<MessageSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.source = NodeId::from_index(s.source.index() % nodes);
                s.dest = NodeId::from_index(s.dest.index() % nodes);
                s
            })
            .collect();
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        prop_assert!(cfg.route_length_measure() <= cfg.progress_measure());
        if cfg.travels().is_empty() {
            prop_assert_eq!(cfg.progress_measure(), 0);
        }
    }
}
