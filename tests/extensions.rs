//! Extensions beyond the paper's verified scope, from its future-work
//! discussion (Section IX): scheduled (non-identity) injection and the
//! rephrased evacuation theorem — every message that is *eventually*
//! injected eventually leaves the network — plus a bounded-injection-time
//! observation.

use genoc::prelude::*;
use genoc_core::injection::ScheduledInjection;
use genoc_core::interpreter::{run, Outcome, RunOptions};
use genoc_core::travel::Travel;

fn travels_for(mesh: &Mesh, routing: &XyRouting, specs: &[MessageSpec]) -> Vec<Travel> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| Travel::from_spec(mesh, routing, MsgId::from_index(i), s).unwrap())
        .collect()
}

#[test]
fn staggered_injection_evacuates_on_xy_mesh() {
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(9, 20, 1..=4, 41);
    let travels = travels_for(&mesh, &routing, &specs);
    // Release one message every 3 steps.
    let schedule: Vec<(u64, Travel)> = travels
        .into_iter()
        .enumerate()
        .map(|(i, t)| (3 * i as u64, t))
        .collect();
    let injection = ScheduledInjection::new(schedule);
    let cfg = Config::from_specs(&mesh, &routing, &[]).unwrap();
    let result = run(
        &mesh,
        &injection,
        &mut Switching::default(),
        cfg,
        &RunOptions {
            check_invariants: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(result.outcome, Outcome::Evacuated);
    assert_eq!(result.config.arrived().len(), specs.len());
    assert_eq!(injection.remaining(), 0);
}

#[test]
fn bursty_injection_with_long_gaps_fast_forwards() {
    let mesh = Mesh::new(2, 2, 1);
    let routing = XyRouting::new(&mesh);
    let specs = [
        MessageSpec::new(mesh.node(0, 0), mesh.node(1, 1), 2),
        MessageSpec::new(mesh.node(1, 1), mesh.node(0, 0), 2),
    ];
    let travels = travels_for(&mesh, &routing, &specs);
    let schedule: Vec<(u64, Travel)> = travels
        .into_iter()
        .enumerate()
        .map(|(i, t)| (1_000_000 * i as u64, t))
        .collect();
    let injection = ScheduledInjection::new(schedule);
    let cfg = Config::from_specs(&mesh, &routing, &[]).unwrap();
    let result = run(
        &mesh,
        &injection,
        &mut Switching::default(),
        cfg,
        &RunOptions::default(),
    )
    .unwrap();
    assert_eq!(result.outcome, Outcome::Evacuated);
    assert_eq!(result.config.arrived().len(), 2);
    assert!(
        result.steps < 1000,
        "idle gaps are skipped, not simulated: {} steps",
        result.steps
    );
}

#[test]
fn injection_time_is_bounded_on_a_deadlock_free_network() {
    // The paper argues deadlock-freedom is necessary for bounded injection
    // time ("otherwise there is no guarantee that an unavailable injection
    // buffer eventually becomes available"). On XY, every scheduled message
    // is injected within a bounded number of steps of its release: here we
    // check all releases entered the network (nothing starved).
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    // Ten messages all competing for the same source node's injection port.
    let specs: Vec<MessageSpec> = (0..10)
        .map(|_| MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 3))
        .collect();
    let travels = travels_for(&mesh, &routing, &specs);
    let schedule: Vec<(u64, Travel)> = travels.into_iter().map(|t| (0u64, t)).collect();
    let injection = ScheduledInjection::new(schedule);
    let cfg = Config::from_specs(&mesh, &routing, &[]).unwrap();
    let result = run(
        &mesh,
        &injection,
        &mut Switching::default(),
        cfg,
        &RunOptions::default(),
    )
    .unwrap();
    assert_eq!(result.outcome, Outcome::Evacuated);
    assert_eq!(result.config.arrived().len(), 10);
}

#[test]
fn scheduled_injection_on_cyclic_router_still_deadlocks() {
    // The extension does not rescue a cyclic router: releasing the corner
    // storm through the scheduler still wedges the 2x2 mixed mesh. (The
    // four messages must be in flight together for the cycle to close, so
    // they share a release step.)
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    let travels: Vec<Travel> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| Travel::from_spec(&mesh, &routing, MsgId::from_index(i), s).unwrap())
        .collect();
    let schedule: Vec<(u64, Travel)> = travels.into_iter().map(|t| (0u64, t)).collect();
    let injection = ScheduledInjection::new(schedule);
    let cfg = Config::from_specs(&mesh, &routing, &[]).unwrap();
    let result = run(
        &mesh,
        &injection,
        &mut Switching::default(),
        cfg,
        &RunOptions {
            max_steps: 10_000,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(result.outcome, Outcome::Deadlock);
}
