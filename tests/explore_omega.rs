//! The arena kernel's deadlock predicate agrees with the explorer's on every
//! reachable state.
//!
//! The explorer calls a state a deadlock when no move is enabled and some
//! travel is still in flight: the paper's Ω over single flit moves. The
//! arena kernel — what every simulated run steps on — judges Ω over its own
//! SoA columns, its run queue and its parked gates. Here a breadth-first
//! search of the raw space (no symmetry quotient, no ample sets) visits
//! every state σ reachable from the all-pending configuration of the
//! exhaustive-tier workloads (the first three pressure messages) on the
//! 2×2 and 3×3 XY and mixed XY/YX meshes and on ring-4, at capacity 1 and
//! 2, under wormhole and virtual cut-through switching, and checks, with
//! `arena = ArenaConfig::from_config(net, σ)`, that
//!
//! * `ArenaKernel::new(&arena, spec).is_deadlock(&arena)` holds exactly
//!   when σ has no enabled move and is not evacuated, and
//! * `arena.is_evacuated() == σ.is_evacuated()`.
//!
//! Debug builds check the 2×2 meshes and the ring; release builds add the
//! 3×3 meshes.

use std::collections::{HashSet, VecDeque};

use genoc::core::moves::MoveEnumerator;
use genoc::explore::Workload;
use genoc::prelude::*;

/// Holds the kernel's Ω to the explorer's on every state reachable on
/// `instance` under `kind` with the first `messages` pressure messages;
/// returns how many states were checked and how many were deadlocks.
fn omega_agrees(instance: &Instance, kind: SwitchingKind, messages: usize) -> (usize, usize) {
    let net = instance.net.as_ref();
    // Whole-packet policies can only admit a packet that fits a buffer.
    let flits = if kind.requires_whole_packet_buffering() {
        2.min(instance.meta.capacity as usize)
    } else {
        2
    };
    let mut specs = pressure_specs(&instance.meta, flits);
    specs.truncate(messages);
    let policy = Switching::new(kind);
    let kernel_spec = policy.kernel_spec().expect("closed-world policy");
    let spec = ArenaSpec::from_kernel_spec(&kernel_spec).expect("closed-world admission");
    let enumerator = MoveEnumerator::new(kernel_spec.admission);
    let workload = Workload::new(net, instance.routing.as_ref(), &specs).unwrap();
    let root = workload.initial_key().into_vec();
    let mut stored = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root]);
    let (mut checked, mut deadlocks) = (0, 0);
    while let Some(key) = queue.pop_front() {
        let sigma = workload.decode(net, &key).unwrap();
        let moves = enumerator.moves(&sigma);
        let arena = ArenaConfig::from_config(net, &sigma).unwrap();
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
        for mv in moves {
            let mut child = key.clone();
            workload.patch(&mut child, mv);
            if stored.insert(child.clone()) {
                queue.push_back(child);
            }
        }
    }
    (checked, deadlocks)
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
