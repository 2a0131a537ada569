//! The arena kernel's deadlock predicate and its step agree with the
//! reference semantics on every reachable state.
//!
//! The explorer calls a state a deadlock when no move is enabled and some
//! travel is still in flight: the paper's Ω over single flit moves. The
//! arena kernel — what every simulated run steps on — judges Ω over its own
//! SoA columns, its run queue and its parked gates, and steps with a
//! bandwidth epoch and gate parking that the reference sweep does not have.
//! Here a breadth-first search of the raw space (no symmetry quotient, no
//! ample sets) visits every state σ reachable from the all-pending
//! configuration of the exhaustive-tier workloads (the first three pressure
//! messages) on the 2×2 and 3×3 XY and mixed XY/YX meshes and on ring-4, at
//! capacity 1 and 2, and checks, with
//! `arena = ArenaConfig::from_config(net, σ)`, that
//!
//! * under wormhole and virtual cut-through switching,
//!   `ArenaKernel::new(&arena, spec).is_deadlock(&arena)` holds exactly
//!   when σ has no enabled move and is not evacuated, and
//!   `arena.is_evacuated() == σ.is_evacuated()`;
//! * under each of the four policies — the three kinds, and wormhole with
//!   round-robin arbitration — on the same cells, but with three messages
//!   converging on one node on the XY meshes and the 3×3 meshes (where the
//!   first three pressure messages never block one another, so wormhole
//!   would park nothing), one kernel step from `arena` records the
//!   trace events of one `Switching::step` from σ, ends in the same
//!   configuration, and its moves, applied one by one through
//!   `MoveEnumerator::apply`, are each an enabled move of the state they
//!   leave: the kernel's step is a path of the explored graph;
//! * under the same four policies, an observed kernel (one that wakes on
//!   every leave and logs status transitions) makes the same step, every
//!   travel whose last transition is `Blocked(p)` is blocked on `p` in the
//!   configuration σ' after the step (`step::blocked_port_with`), and under
//!   wormhole the reference loop's `BlockDiff` from σ to σ' has its
//!   wait-for edge on `p`. Wormhole parks travels on every cell.
//!
//! Debug builds check the 2×2 meshes and the ring; release builds add the
//! 3×3 meshes. Whole-packet policies run packets that fit a buffer.

use std::collections::{HashSet, VecDeque};

use genoc::core::moves::{Move, MoveEnumerator, MoveKind};
use genoc::core::step::blocked_port_with;
use genoc::core::trace::{Event, Trace, Zone};
use genoc::explore::Workload;
use genoc::prelude::*;

/// The messages a state space is built from.
#[derive(Clone, Copy)]
enum Load {
    /// The first `n` pressure messages.
    Pressure(usize),
    /// Three messages into one node: from the top corners and the
    /// bottom-right corner of a mesh to that corner's west neighbour. Two of
    /// them share a link on the way under XY and under YX, and all three
    /// share the last node's ports, so wormhole parks travels.
    Converging,
}

/// Calls `visit(index, key, σ, moves)` on every state σ reachable on
/// `instance` under `kind`'s admission with `load`, in breadth-first
/// order, with σ's enabled moves.
fn for_each_state(
    instance: &Instance,
    kind: SwitchingKind,
    load: Load,
    mut visit: impl FnMut(usize, &[u16], &Config, &[Move]),
) {
    let net = instance.net.as_ref();
    // Whole-packet policies can only admit a packet that fits a buffer.
    let flits = kind.workload_flits(2, instance.meta.capacity);
    let specs = match load {
        Load::Pressure(messages) => {
            let mut specs = pressure_specs(&instance.meta, flits);
            specs.truncate(messages);
            specs
        }
        Load::Converging => {
            let (w, h) = (instance.meta.width, instance.meta.height);
            let node = NodeId::from_index;
            [0, w - 1, w * h - 1]
                .map(|source| MessageSpec::new(node(source), node(w * h - 2), flits))
                .to_vec()
        }
    };
    let kernel_spec = Switching::new(kind)
        .kernel_spec()
        .expect("closed-world policy");
    let enumerator = MoveEnumerator::new(kernel_spec.admission);
    let workload = Workload::new(net, instance.routing.as_ref(), &specs).unwrap();
    let root = workload.initial_key().into_vec();
    let mut stored = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root]);
    let mut index = 0;
    while let Some(key) = queue.pop_front() {
        let sigma = workload.decode(net, &key).unwrap();
        let moves = enumerator.moves(&sigma);
        visit(index, &key, &sigma, &moves);
        index += 1;
        for &mv in &moves {
            let mut child = key.clone();
            workload.patch(&mut child, mv);
            if stored.insert(child.clone()) {
                queue.push_back(child);
            }
        }
    }
}

/// Holds the kernel's Ω to the explorer's on every state reachable on
/// `instance` under `kind` with the first `messages` pressure messages;
/// returns how many states were checked and how many were deadlocks.
fn omega_agrees(instance: &Instance, kind: SwitchingKind, messages: usize) -> (usize, usize) {
    let net = instance.net.as_ref();
    let kernel_spec = Switching::new(kind)
        .kernel_spec()
        .expect("closed-world policy");
    let spec = ArenaSpec::from_kernel_spec(&kernel_spec).expect("closed-world admission");
    let (mut checked, mut deadlocks) = (0, 0);
    let load = Load::Pressure(messages);
    for_each_state(instance, kind, load, |_, key, sigma, moves| {
        let arena = ArenaConfig::from_config(net, sigma).unwrap();
        let omega = moves.is_empty() && !sigma.is_evacuated();
        assert_eq!(
            ArenaKernel::new(&arena, spec).is_deadlock(&arena),
            omega,
            "{} under {kind:?}: Ω at {key:?}",
            instance.name
        );
        assert_eq!(
            arena.is_evacuated(),
            sigma.is_evacuated(),
            "{} under {kind:?}: evacuation at {key:?}",
            instance.name
        );
        checked += 1;
        deadlocks += usize::from(omega);
    });
    (checked, deadlocks)
}

/// The policies whose moves `kind`'s state space enumerates: wormhole's
/// under both arbitrations, otherwise the one policy of `kind`.
fn policies(kind: SwitchingKind) -> Vec<Switching> {
    let mut policies = vec![Switching::new(kind)];
    if kind == SwitchingKind::Wormhole {
        policies.push(Switching::wormhole(Arbitration::RoundRobin));
    }
    policies
}

/// The single-flit move a trace event records.
fn move_of(event: &Event) -> Move {
    let kind = match (event.from, event.to) {
        (Zone::Source, _) => MoveKind::Enter,
        (_, Zone::Delivered) => MoveKind::Eject,
        _ => MoveKind::Advance,
    };
    Move {
        msg: event.msg,
        flit: event.flit as usize,
        kind,
    }
}

/// Holds one arena-kernel step from every state σ reachable on `instance`
/// under `kind` to one reference sweep of a fresh policy from σ, for each
/// of [`policies`]`(kind)`: the same trace events, none exactly when σ
/// enables no move, the same configuration afterwards, and every prefix of
/// the kernel's moves admitted, one at a time, by the interleaving
/// semantics the explorer branches on. The
/// policy's step counter starts at σ's breadth-first index, so round robin
/// starts its sweep at every travel in turn. An observed kernel steps from
/// σ too, and every park it logs is checked against σ' (and, under
/// wormhole, against the reference loop's [`BlockDiff`]). Returns the states
/// checked per policy, and the parks checked in all.
fn step_refines(instance: &Instance, kind: SwitchingKind, load: Load) -> (usize, usize) {
    let net = instance.net.as_ref();
    let (mut checked, mut parks) = (0, 0);
    for_each_state(instance, kind, load, |index, key, sigma, moves| {
        let imported = ArenaConfig::from_config(net, sigma).unwrap();
        for mut policy in policies(kind) {
            policy.note_kernel_steps(index as u64);
            let kernel_spec = policy.kernel_spec().expect("closed-world policy");
            let spec = ArenaSpec::from_kernel_spec(&kernel_spec).expect("closed-world admission");
            let mut arena = imported.clone();
            let mut kernel = ArenaKernel::new(&arena, spec);
            let mut kernel_trace = Trace::new(true);
            kernel.step(&mut arena, &mut kernel_trace).unwrap();
            kernel.drain_arrived(&mut arena);

            let mut reference = sigma.clone();
            let mut trace = Trace::new(true);
            policy.step(net, &mut reference, &mut trace).unwrap();
            let at = || {
                let (name, capacity) = (&instance.name, instance.meta.capacity);
                format!(
                    "{name}@c{capacity} under {}: step from {key:?}",
                    policy.name()
                )
            };
            assert_eq!(kernel_trace.events(), trace.events(), "{}: events", at());
            assert_eq!(
                trace.events().is_empty(),
                moves.is_empty(),
                "{}: idle",
                at()
            );
            let arrivals = reference.drain_arrived();
            assert_eq!(kernel.newly_arrived(), arrivals, "{}: arrivals", at());
            assert_eq!(arena.to_config(net).unwrap(), reference, "{}: σ'", at());

            let enumerator = MoveEnumerator::new(kernel_spec.admission);
            let mut replayed = sigma.clone();
            for (i, event) in kernel_trace.events().iter().enumerate() {
                let mv = move_of(event);
                if let Err(e) = enumerator.apply(&mut replayed, mv) {
                    panic!("{}: move {i} ({mv}) is not admitted: {e}", at());
                }
            }
            replayed.drain_arrived();
            assert_eq!(replayed, reference, "{}: replayed moves", at());

            // An observed kernel wakes on every leave and logs its parks: the
            // same moves, and each travel it leaves parked on `p` is blocked
            // on `p` in σ'. Under wormhole the reference loop's diff from σ
            // to σ' holds that wait-for edge too.
            let mut arena = imported.clone();
            let mut kernel = ArenaKernel::new(&arena, spec);
            kernel.set_observed(true);
            let mut observed_trace = Trace::new(true);
            kernel.step(&mut arena, &mut observed_trace).unwrap();
            kernel.drain_arrived(&mut arena);
            let events = observed_trace.events();
            assert_eq!(events, trace.events(), "{}: observed events", at());
            let mut diff = BlockDiff::default();
            diff.rebaseline(sigma);
            diff.step(&reference, &arrivals);
            for (i, travel) in reference.travels().iter().enumerate() {
                let msg = travel.id();
                let last = kernel.transitions().iter().rfind(|t| t.msg == msg);
                let Some(TravelStatus::Blocked(p)) = last.map(|t| t.status) else {
                    continue;
                };
                let blocked = blocked_port_with(&reference, i, kernel_spec.admission);
                assert_eq!(blocked, Some(p), "{}: {msg} parked", at());
                if kind == SwitchingKind::Wormhole {
                    let wants = diff.edge(msg).map(|e| e.wants);
                    assert_eq!(wants, Some(p), "{}: {msg} in the diff", at());
                }
                parks += 1;
            }
        }
        checked += 1;
    });
    (checked, parks)
}

fn cells(side: usize) -> Vec<Instance> {
    [1, 2]
        .into_iter()
        .flat_map(|capacity| {
            let mut cells = vec![
                Instance::mesh_xy(side, side, capacity),
                Instance::mesh_mixed(side, side, capacity),
            ];
            if side == 2 {
                cells.push(Instance::ring_shortest(4, capacity));
            }
            cells
        })
        .collect()
}

/// The load a cell's step is checked on. The first three pressure
/// messages park one another on the 2×2 mixed mesh and on the ring, but
/// never meet on an XY mesh or a 3×3 mesh: there the kernel would log no
/// park to check, so those cells take converging messages.
fn step_load(instance: &Instance) -> Load {
    if instance.meta.routing == RoutingKind::Xy || instance.meta.width == 3 {
        Load::Converging
    } else {
        Load::Pressure(3)
    }
}

const KINDS: [SwitchingKind; 2] = [SwitchingKind::Wormhole, SwitchingKind::VirtualCutThrough];

#[test]
fn the_kernel_judges_omega_as_the_explorer_does_on_small_cells() {
    for instance in cells(2) {
        for kind in KINDS {
            let (checked, dead) = omega_agrees(&instance, kind, 3);
            eprintln!(
                "{} {kind:?}: {checked} states, {dead} deadlocks",
                instance.name
            );
            assert!(checked > 100, "{}: {checked} states", instance.name);
        }
    }
}

#[test]
fn the_kernel_sees_every_deadlock_of_the_ring_comparator() {
    // No exhaustive-tier workload can deadlock, so Ω is only ever false
    // there. All four ring messages can: here both sides are checked.
    let ring = Instance::ring_shortest(4, 1);
    let (checked, dead) = omega_agrees(&ring, SwitchingKind::Wormhole, 4);
    eprintln!(
        "{} with 4 messages: {checked} states, {dead} deadlocks",
        ring.name
    );
    assert!(dead > 0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: ~10^5 states per cell")]
fn the_kernel_judges_omega_as_the_explorer_does_on_3x3_meshes() {
    for instance in cells(3) {
        for kind in KINDS {
            let (checked, dead) = omega_agrees(&instance, kind, 3);
            eprintln!(
                "{} {kind:?}: {checked} states, {dead} deadlocks",
                instance.name
            );
            assert!(checked > 100, "{}: {checked} states", instance.name);
        }
    }
}

#[test]
fn the_kernel_step_refines_the_reference_sweep_on_small_cells() {
    for instance in cells(2) {
        for kind in SwitchingKind::ALL {
            let (checked, parks) = step_refines(&instance, kind, step_load(&instance));
            eprintln!(
                "{} {kind:?}: {checked} states, {parks} parks",
                instance.name
            );
            assert!(checked > 100, "{}: {checked} states", instance.name);
            if kind == SwitchingKind::Wormhole {
                assert!(parks > 0, "{}: no park to check", instance.name);
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: ~10^5 states per cell")]
fn the_kernel_step_refines_the_reference_sweep_on_3x3_meshes() {
    for instance in cells(3) {
        for kind in SwitchingKind::ALL {
            let (checked, parks) = step_refines(&instance, kind, step_load(&instance));
            eprintln!(
                "{} {kind:?}: {checked} states, {parks} parks",
                instance.name
            );
            assert!(checked > 100, "{}: {checked} states", instance.name);
            if kind == SwitchingKind::Wormhole {
                assert!(parks > 0, "{}: no park to check", instance.name);
            }
        }
    }
}
