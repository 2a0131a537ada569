//! Failure injection: deliberately broken constituents must be *caught*,
//! not silently tolerated — the run-time counterpart of the proof
//! obligations.

use genoc::prelude::*;
use genoc_core::config::Config;
use genoc_core::error::Error;
use genoc_core::injection::IdentityInjection;
use genoc_core::interpreter::{run, RunOptions};
use genoc_core::switching::{StepReport, SwitchingPolicy};
use genoc_core::trace::Trace;
use genoc_core::travel::{FlitPos, Travel};

/// A policy that claims configurations are never deadlocked but also never
/// moves anything — violating the progress half of the (C-5) contract.
struct LazyPolicy;

impl SwitchingPolicy for LazyPolicy {
    fn name(&self) -> String {
        "lazy".into()
    }
    fn step(
        &mut self,
        _net: &dyn Network,
        _cfg: &mut Config,
        _trace: &mut Trace,
    ) -> genoc_core::Result<StepReport> {
        Ok(StepReport::default())
    }
    fn is_deadlock(&self, _net: &dyn Network, _cfg: &Config) -> bool {
        false
    }
}

#[test]
fn lazy_policy_is_reported_as_progress_violation() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(1, 1), 1)];
    let cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
    let err = run(
        &mesh,
        &IdentityInjection,
        &mut LazyPolicy,
        cfg,
        &RunOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, Error::ProgressViolation { step: 0 }), "{err}");
}

/// A policy that moves flits but lies about deadlock — the interpreter
/// reports a deadlock outcome early; the evacuation checker then fails.
struct DefeatistPolicy(Switching);

impl SwitchingPolicy for DefeatistPolicy {
    fn name(&self) -> String {
        "defeatist".into()
    }
    fn step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        trace: &mut Trace,
    ) -> genoc_core::Result<StepReport> {
        self.0.step(net, cfg, trace)
    }
    fn is_deadlock(&self, _net: &dyn Network, cfg: &Config) -> bool {
        !cfg.is_evacuated() // claims deadlock whenever work remains
    }
}

#[test]
fn defeatist_policy_fails_the_evacuation_theorem() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(1, 1), 1)];
    let cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
    let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
    let result = run(
        &mesh,
        &IdentityInjection,
        &mut DefeatistPolicy(Switching::default()),
        cfg,
        &RunOptions::default(),
    )
    .unwrap();
    let report = check_evacuation(&injected, &result);
    assert!(!report.holds);
    assert_eq!(report.missing, injected);
}

#[test]
fn movement_primitives_reject_inadmissible_moves() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(1, 1), 2)];
    let mut cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
    // Body flit cannot enter before the head.
    assert!(cfg.enter_flit(0, 1).is_err());
    // Head cannot advance before entering.
    assert!(cfg.advance_flit(0, 0).is_err());
    // Nothing can eject from the source.
    assert!(cfg.eject_flit(0, 0).is_err());
    // Admissible entry still works afterwards.
    cfg.enter_flit(0, 0).unwrap();
    cfg.validate(&mesh).unwrap();
}

#[test]
fn conflicting_witness_configurations_are_rejected() {
    let mesh = Mesh::new(2, 2, 2);
    let routing = XyRouting::new(&mesh);
    // Two mid-flight travels claiming the same port must be rejected by
    // configuration reconstruction.
    let route = genoc_core::routing::compute_route(
        &mesh,
        &routing,
        mesh.local_in(mesh.node(0, 0)),
        mesh.local_out(mesh.node(1, 1)),
    )
    .unwrap();
    let a = Travel::mid_flight(&mesh, MsgId::from_index(0), route.clone(), 1).unwrap();
    let b = Travel::mid_flight(&mesh, MsgId::from_index(1), route, 1).unwrap();
    assert!(Config::from_travels(&mesh, vec![a, b]).is_err());
}

#[test]
fn duplicate_travel_ids_are_rejected_by_push_travel() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = XyRouting::new(&mesh);
    let spec = MessageSpec::new(mesh.node(0, 0), mesh.node(1, 1), 1);
    let t = Travel::from_spec(&mesh, &routing, MsgId::from_index(0), &spec).unwrap();
    let mut cfg = Config::from_specs(&mesh, &routing, &[spec]).unwrap();
    assert!(cfg.push_travel(t).is_err(), "id 0 already present");
}

#[test]
fn lazy_policy_fails_c5_at_its_first_step() {
    let report = check_c5_with(&Instance::mesh_xy(2, 2, 1), &mut LazyPolicy, 2);
    assert!(!report.holds());
    assert_eq!(report.cases, 1);
    assert_eq!(
        report.violations,
        vec!["step 0: no flit moved although ¬Ω".to_string()]
    );
}

#[test]
fn cycle_extraction_refuses_live_configurations() {
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 3)];
    let cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
    assert!(find_wait_cycle(&cfg).is_none());
}

#[test]
fn corrupted_worm_shapes_fail_validation() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = XyRouting::new(&mesh);
    let spec = MessageSpec::new(mesh.node(0, 0), mesh.node(1, 1), 2);
    let mut t = Travel::from_spec(&mesh, &routing, MsgId::from_index(0), &spec).unwrap();
    // Put the tail ahead of the head.
    t.set_flit_pos(1, FlitPos::InNetwork(2));
    t.set_flit_pos(0, FlitPos::InNetwork(0));
    assert!(t.check_invariants().is_err());
    assert!(Config::from_travels(&mesh, vec![t]).is_err());
}

#[test]
fn bogus_ranking_certificates_are_rejected_with_a_witness_edge() {
    let mesh = Mesh::new(3, 3, 1);
    let g = xy_mesh_dependency_graph(&mesh);
    let mut rank = xy_mesh_ranking(&mesh);
    // Corrupt one entry: some edge must be reported.
    rank[0] = 0;
    let result = verify_ranking(&g, &rank);
    if let Err((u, v)) = result {
        assert!(g.has_edge(u, v), "reported violation must be a real edge");
    }
    // Flat ranking always fails on a non-empty graph.
    let flat = vec![1u64; g.vertex_count()];
    assert!(verify_ranking(&g, &flat).is_err());
}
