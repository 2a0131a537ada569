//! Differential tests of the ample-set selector against the closure it
//! replaced.
//!
//! [`AmpleSelector`] keeps one wait row per slot across states, re-derives a
//! row only for a travel that moved, and closes each seed by bitmask
//! reachability. The fixpoint it replaced — rebuild every guard set, grow
//! each seed's set until no footprint meets the union of its guards, keep
//! the first smallest — is rebuilt here from public pieces and kept as the
//! oracle. On every expanded state of four searches the two must choose the
//! same ample set, move for move, or both decline to reduce:
//!
//! * the ring-4 capacity-2 cell the benchmark explores (`explore-ram`),
//!   whole in release builds and its first states in debug ones;
//! * the 2×2 mixed XY/YX mesh under its pressure workload;
//! * every pressure message of ring-4 sent twice, so each slot has a twin;
//! * 80 messages on a 9×9 XY mesh, so a slot set is two words.
//!
//! Last, one selector fed the states of a search in shuffled order must
//! agree with a fresh selector per state: a kept row depends on its travel's
//! positions alone, never on the states seen before.

use std::collections::{HashSet, VecDeque};

use genoc::core::moves::{Move, MoveEnumerator};
use genoc::core::step::HeadAdmission;
use genoc::explore::{slot_perms, AmpleSelector, Workload};
use genoc::prelude::*;

/// The fixpoint closure as it was: per state, every guard set rebuilt; per
/// seed, the set grown until no outside footprint meets its guards.
struct Reference {
    blocks: usize,
    /// Static route footprint per slot, `slots × blocks`.
    footprints: Vec<u64>,
}

impl Reference {
    fn new(workload: &Workload, port_count: usize) -> Reference {
        let blocks = port_count.div_ceil(64).max(1);
        let mut footprints = vec![0u64; workload.slots() * blocks];
        for (s, (route, _)) in workload.routes().iter().enumerate() {
            for p in route {
                footprints[s * blocks + p.index() / 64] |= 1 << (p.index() % 64);
            }
        }
        Reference { blocks, footprints }
    }

    /// The ample set of `moves` at `cfg`, or `None` where it keeps them all.
    fn select(&self, cfg: &Config, moves: &[Move]) -> Option<Vec<Move>> {
        if moves.len() <= 1 {
            return None;
        }
        let blocks = self.blocks;
        let slots = self.footprints.len() / blocks;
        let mut guards = vec![0u64; slots * blocks];
        let mut enabled = vec![0u32; slots];
        let live: Vec<usize> = cfg.travels().iter().map(|t| t.id().index()).collect();
        for t in cfg.travels() {
            let s = t.id().index();
            let route = t.route();
            let mut guard =
                |p: PortId| guards[s * blocks + p.index() / 64] |= 1 << (p.index() % 64);
            for pos in t.flit_positions() {
                match pos {
                    FlitPos::Pending => guard(route[0]),
                    FlitPos::InNetwork(k) => {
                        guard(route[k]);
                        if k + 1 < route.len() {
                            guard(route[k + 1]);
                        }
                    }
                    FlitPos::Delivered => {}
                }
            }
        }
        for mv in moves {
            enabled[mv.msg.index()] += 1;
        }
        let mut best: Option<(u32, Vec<bool>)> = None;
        for &seed in &live {
            if enabled[seed] == 0 {
                continue;
            }
            let mut in_d = vec![false; slots];
            in_d[seed] = true;
            let mut union = guards[seed * blocks..(seed + 1) * blocks].to_vec();
            let mut score = enabled[seed];
            loop {
                let mut grew = false;
                for &j in &live {
                    let footprint = &self.footprints[j * blocks..(j + 1) * blocks];
                    if in_d[j] || !footprint.iter().zip(&union).any(|(f, u)| f & u != 0) {
                        continue;
                    }
                    in_d[j] = true;
                    for (u, g) in union.iter_mut().zip(&guards[j * blocks..(j + 1) * blocks]) {
                        *u |= g;
                    }
                    score += enabled[j];
                    grew = true;
                }
                if !grew {
                    break;
                }
            }
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((score, in_d));
            }
        }
        let (score, in_d) = best?;
        ((score as usize) < moves.len()).then(|| {
            moves
                .iter()
                .copied()
                .filter(|m| in_d[m.msg.index()])
                .collect()
        })
    }
}

/// What a search held to the reference saw.
struct Seen {
    /// Every expanded state's key, in expansion order.
    keys: Vec<Vec<u16>>,
    /// Expanded states whose ample set left some enabled move out.
    reduced: usize,
}

/// Breadth-first search over the POR-reduced, symmetry-quotiented space of
/// `specs` on `instance` — the explorer's own graph — holding the selector
/// to the reference on every expanded state. Stops after `max_expanded`
/// expansions, or at the first deadlock, as the sequential explorer does.
fn held_to_the_reference(
    instance: &Instance,
    specs: &[MessageSpec],
    admission: &dyn HeadAdmission,
    max_expanded: usize,
) -> Seen {
    let net = instance.net.as_ref();
    let workload = Workload::new(net, instance.routing.as_ref(), specs).unwrap();
    let perms = slot_perms(net, &instance.meta, &workload.routes());
    let enumerator = MoveEnumerator::new(admission);
    let mut selector = AmpleSelector::new(&workload, net.port_count());
    let reference = Reference::new(&workload, net.port_count());
    let root = workload.initial_key().into_vec();
    let mut stored = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root]);
    let mut cfg = workload.blank();
    let (mut moves, mut ample) = (Vec::new(), Vec::new());
    let mut seen = Seen {
        keys: Vec::new(),
        reduced: 0,
    };
    while let Some(key) = queue.pop_front() {
        if seen.keys.len() == max_expanded {
            break;
        }
        workload.decode_into(&mut cfg, &key).unwrap();
        moves.clear();
        enumerator.push_moves(&cfg, &mut moves);
        if moves.is_empty() {
            if cfg.is_evacuated() {
                continue;
            }
            break;
        }
        let reduced = selector.select(&cfg, &moves, &mut ample);
        let want = reference.select(&cfg, &moves);
        assert_eq!(
            reduced.then_some(&ample),
            want.as_ref(),
            "{}: ample set at {key:?}",
            instance.name
        );
        seen.reduced += usize::from(reduced);
        for &mv in if reduced { &ample } else { &moves } {
            let mut child = key.clone();
            workload.patch(&mut child, mv);
            let (canonical, _) = workload.canonicalize(&child, &perms);
            if stored.insert(canonical.to_vec()) {
                queue.push_back(canonical.into_vec());
            }
        }
        seen.keys.push(key);
    }
    seen
}

/// The wormhole admission predicate.
fn wormhole() -> &'static dyn HeadAdmission {
    Switching::default()
        .kernel_spec()
        .expect("closed-world policy")
        .admission
}

/// Every pressure message of `instance`, `copies` times over.
fn pressure(instance: &Instance, flits: usize, copies: usize) -> Vec<MessageSpec> {
    pressure_specs(&instance.meta, flits)
        .into_iter()
        .flat_map(|s| std::iter::repeat_n(s, copies))
        .collect()
}

#[test]
fn the_benchmark_cell_picks_the_reference_ample_sets() {
    // Whole in release: 99,607 expansions before the first deadlock.
    let instance = Instance::ring_shortest(4, 2);
    let limit = if cfg!(debug_assertions) {
        4_000
    } else {
        usize::MAX
    };
    let seen = held_to_the_reference(&instance, &pressure(&instance, 3, 1), wormhole(), limit);
    if !cfg!(debug_assertions) {
        assert_eq!(seen.keys.len(), 99_607);
    }
    assert!(seen.reduced > seen.keys.len() / 10, "{}", seen.reduced);
}

#[test]
fn mixed_routing_and_twin_slots_pick_the_reference_ample_sets() {
    let mixed = Instance::mesh_mixed(2, 2, 1);
    let seen = held_to_the_reference(&mixed, &pressure(&mixed, 2, 1), wormhole(), 20_000);
    assert!(seen.reduced > 0, "{}: POR must bite", mixed.name);

    // Each one-flit message twice: twin slots, sorted by the canonicaliser.
    let twins = Instance::ring_shortest(4, 1);
    let seen = held_to_the_reference(&twins, &pressure(&twins, 1, 2), wormhole(), 20_000);
    assert!(seen.reduced > 0, "{}: POR must bite", twins.name);
}

#[test]
fn more_than_64_slots_pick_the_reference_ample_sets() {
    let instance = Instance::mesh_xy(9, 9, 1);
    let specs = pressure(&instance, 1, 1);
    assert_eq!(specs.len(), 80);
    let limit = if cfg!(debug_assertions) { 300 } else { 3_000 };
    let seen = held_to_the_reference(&instance, &specs, wormhole(), limit);
    assert_eq!(seen.keys.len(), limit);
    assert!(seen.reduced > 0);
}

/// SplitMix64: the shuffle, reproducible from its seed alone.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn a_kept_selector_agrees_with_a_fresh_one_in_any_state_order() {
    let cells = [
        (Instance::ring_shortest(4, 1), 1, 2, 2_000),
        (Instance::mesh_mixed(2, 2, 1), 2, 1, 2_000),
        (Instance::mesh_xy(9, 9, 1), 1, 1, 200),
    ];
    for (instance, flits, copies, limit) in cells {
        let net = instance.net.as_ref();
        let specs = pressure(&instance, flits, copies);
        let mut keys = held_to_the_reference(&instance, &specs, wormhole(), limit).keys;
        let mut rng = 0x5eed;
        for i in (1..keys.len()).rev() {
            keys.swap(i, (next(&mut rng) % (i as u64 + 1)) as usize);
        }
        let workload = Workload::new(net, instance.routing.as_ref(), &specs).unwrap();
        let enumerator = MoveEnumerator::new(wormhole());
        let mut kept = AmpleSelector::new(&workload, net.port_count());
        let mut cfg = workload.blank();
        let (mut ample, mut fresh_ample) = (Vec::new(), Vec::new());
        for key in &keys {
            workload.decode_into(&mut cfg, key).unwrap();
            let moves = enumerator.moves(&cfg);
            let reduced = kept.select(&cfg, &moves, &mut ample);
            let mut fresh = AmpleSelector::new(&workload, net.port_count());
            let fresh_reduced = fresh.select(&cfg, &moves, &mut fresh_ample);
            assert_eq!(
                (reduced, &ample),
                (fresh_reduced, &fresh_ample),
                "{}: kept selector at {key:?}",
                instance.name
            );
        }
    }
}
