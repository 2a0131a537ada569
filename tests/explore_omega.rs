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
//!   round-robin arbitration — one kernel step from `arena` records the
//!   trace events of one `Switching::step` from σ, ends in the same
//!   configuration, and its moves, applied one by one through
//!   `MoveEnumerator::apply`, are each an enabled move of the state they
//!   leave: the kernel's step is a path of the explored graph.
//!
//! Debug builds check the 2×2 meshes and the ring; release builds add the
//! 3×3 meshes. Whole-packet policies run packets that fit a buffer.

use std::collections::{HashSet, VecDeque};

use genoc::core::moves::{Move, MoveEnumerator, MoveKind};
use genoc::core::trace::{Event, Trace, Zone};
use genoc::explore::Workload;
use genoc::prelude::*;

/// Calls `visit(index, key, σ, moves)` on every state σ reachable on
/// `instance` under `kind`'s admission with the first `messages` pressure
/// messages, in breadth-first order, with σ's enabled moves.
fn for_each_state(
    instance: &Instance,
    kind: SwitchingKind,
    messages: usize,
    mut visit: impl FnMut(usize, &[u16], &Config, &[Move]),
) {
    let net = instance.net.as_ref();
    // Whole-packet policies can only admit a packet that fits a buffer.
    let flits = kind.workload_flits(2, instance.meta.capacity);
    let mut specs = pressure_specs(&instance.meta, flits);
    specs.truncate(messages);
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
    for_each_state(instance, kind, messages, |_, key, sigma, moves| {
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
/// starts its sweep at every travel in turn. Returns the states checked
/// per policy.
fn step_refines(instance: &Instance, kind: SwitchingKind, messages: usize) -> usize {
    let net = instance.net.as_ref();
    let mut checked = 0;
    for_each_state(instance, kind, messages, |index, key, sigma, moves| {
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
        }
        checked += 1;
    });
    checked
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
            let checked = step_refines(&instance, kind, 3);
            eprintln!("{} {kind:?}: {checked} states", instance.name);
            assert!(checked > 100, "{}: {checked} states", instance.name);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: ~10^5 states per cell")]
fn the_kernel_step_refines_the_reference_sweep_on_3x3_meshes() {
    for instance in cells(3) {
        for kind in SwitchingKind::ALL {
            let checked = step_refines(&instance, kind, 3);
            eprintln!("{} {kind:?}: {checked} states", instance.name);
            assert!(checked > 100, "{}: {checked} states", instance.name);
        }
    }
}
