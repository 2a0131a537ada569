//! Regression pins for the explorer's exact reachable-state counts.
//!
//! The numbers below are ground truth for tiny instances, computed once and
//! pinned forever: any change to move enumeration, state canonicalization,
//! or symmetry lifting that alters a count is a semantic change to the
//! explored transition system and must be deliberate. (mCRL2 users pin
//! `lps2lts` state counts for exactly this reason — the count is the
//! cheapest fingerprint of the whole LTS.)
//!
//! All workloads are the standard pressure patterns, every message sent
//! `copies` times over, at capacity 1 under wormhole admission.
//!
//! Each cell is pinned a third time under partial-order reduction, which
//! must keep its depth and verdict and, wherever the whole space is
//! enumerated, store at most a fifth of it. The cell that bound is usually
//! quoted on is all four corner-exchange messages (203,175 states in full,
//! 2,183 under ample sets, depth 56 both ways), whose full run takes 7.6 s
//! in a debug build; the three-message cell below is the largest that fits.

use genoc::prelude::*;
use genoc_core::step::AlwaysAdmit;

struct Pin {
    instance: Instance,
    /// Keep only the first N pressure messages (0 = all).
    messages: usize,
    /// Flits per message.
    flits: usize,
    /// How many times each message is sent: 2 makes every slot a twin.
    copies: usize,
    /// (states, transitions, depth, group) with symmetry reduction on.
    with_symmetry: (usize, u64, usize, usize),
    /// (states, transitions, depth) of the raw, unquotiented space.
    raw: (usize, u64, usize),
    /// (states, transitions) the ample sets keep of `with_symmetry`'s space.
    por: (usize, u64),
    deadlock: bool,
}

fn explore_pin(pin: &Pin, symmetry: bool, por: bool) -> Exploration {
    let mut specs = pressure_specs(&pin.instance.meta, pin.flits);
    if pin.messages > 0 {
        specs.truncate(pin.messages);
    }
    let specs: Vec<MessageSpec> = specs
        .into_iter()
        .flat_map(|s| std::iter::repeat_n(s, pin.copies))
        .collect();
    let options = ExploreOptions {
        max_states: 150_000,
        symmetry,
        por,
        ..ExploreOptions::default()
    };
    explore(
        pin.instance.net.as_ref(),
        pin.instance.routing.as_ref(),
        &pin.instance.meta,
        &specs,
        &AlwaysAdmit,
        &options,
    )
    .unwrap()
}

#[test]
fn reachable_state_counts_are_pinned() {
    let pins = [
        // 3 of the 4 corner-exchange messages: 30 interleaving positions per
        // message, fully independent routes — exactly 30³ raw states. The
        // truncation breaks the half-turn symmetry, so the group is trivial
        // and both runs see the same space.
        Pin {
            instance: Instance::mesh_xy(2, 2, 1),
            messages: 3,
            flits: 2,
            copies: 1,
            with_symmetry: (27_000, 118_800, 42, 1),
            raw: (27_000, 118_800, 42),
            por: (88, 132),
            deadlock: false,
        },
        // All three clockwise messages on the 3-ring; the rotation group of
        // order 3 cuts 4913 = 17³ raw states to 1649 canonical ones.
        Pin {
            instance: Instance::ring_shortest(3, 1),
            messages: 0,
            flits: 2,
            copies: 1,
            with_symmetry: (1_649, 6_402, 30, 3),
            raw: (4_913, 19_074, 30),
            por: (139, 185),
            deadlock: false,
        },
        // The dateline splits the ring into inequivalent positions — no
        // rotation survives the route-matching check, so the quotient is
        // trivial and equals the raw space of the plain ring above.
        Pin {
            instance: Instance::ring_dateline(3, 1),
            messages: 0,
            flits: 2,
            copies: 1,
            with_symmetry: (4_913, 19_074, 30, 1),
            raw: (4_913, 19_074, 30),
            por: (49, 66),
            deadlock: false,
        },
        // The deadlocking comparator: 4 messages, 2 hops each, clockwise.
        // BFS stops at the first deadlock, so these counts pin the visited
        // prefix and the minimal depth of 20 moves, not the full space.
        Pin {
            instance: Instance::ring_shortest(4, 1),
            messages: 0,
            flits: 2,
            copies: 1,
            with_symmetry: (4_846, 19_183, 20, 4),
            raw: (20_170, 79_662, 20),
            por: (1_580, 4_424),
            deadlock: true,
        },
        // The same comparator with every one-flit message sent twice: twin
        // sorting composes with the four rotations, on every edge and in the
        // counterexample folded back through them. Without symmetry the
        // twins are still sorted, which is all that keeps the raw space
        // under the bound.
        Pin {
            instance: Instance::ring_shortest(4, 1),
            messages: 0,
            flits: 1,
            copies: 2,
            with_symmetry: (19_403, 91_515, 20, 4),
            raw: (80_782, 379_907, 20),
            por: (8_259, 24_996),
            deadlock: true,
        },
    ];
    for pin in &pins {
        let sym = explore_pin(pin, true, false);
        assert_eq!(
            (sym.states, sym.transitions, sym.depth, sym.group_size),
            pin.with_symmetry,
            "{}: symmetry-reduced counts moved",
            pin.instance.name
        );
        let raw = explore_pin(pin, false, false);
        assert_eq!(
            (raw.states, raw.transitions, raw.depth),
            pin.raw,
            "{}: raw counts moved",
            pin.instance.name
        );
        assert_eq!(raw.group_size, 1);
        let por = explore_pin(pin, true, true);
        assert_eq!(
            (por.states, por.transitions, por.depth),
            (pin.por.0, pin.por.1, sym.depth),
            "{}: ample-set counts moved, or the reduction changed the depth",
            pin.instance.name
        );
        for result in [&sym, &raw, &por] {
            assert_eq!(
                result.counterexample().is_some(),
                pin.deadlock,
                "{}: verdict moved",
                pin.instance.name
            );
        }
        // The quotient never inflates the space, and both views agree on
        // the minimal counterexample depth.
        assert!(sym.states <= raw.states);
        if let (Some(a), Some(b)) = (sym.counterexample(), raw.counterexample()) {
            assert_eq!(a.trace.len(), b.trace.len());
        }
        // Where no deadlock stops the search early both runs enumerate
        // their whole space, and the reduction must be worth having: at
        // most a fifth of the states stored.
        if !pin.deadlock {
            assert!(matches!(por.verdict, Verdict::NoReachableDeadlock));
            assert!(
                sym.states >= 5 * por.states,
                "{}: ample sets keep {} of {} states",
                pin.instance.name,
                por.states,
                sym.states
            );
        }
    }
}

/// Where the state bound stops each engine on `explore`'s default cell, the
/// 2×2 XY mesh's pressure workload with 2-flit messages: the sequential
/// search checks the bound after each state it stores, the parallel one when
/// a BFS level ends.
#[test]
fn the_state_bound_stops_each_engine_where_it_checks() {
    let instance = Instance::mesh_xy(2, 2, 1);
    let specs = pressure_specs(&instance.meta, 2);
    let stored = |max_states, jobs| {
        let options = ExploreOptions {
            max_states,
            jobs,
            ..ExploreOptions::default()
        };
        let result = explore(
            instance.net.as_ref(),
            instance.routing.as_ref(),
            &instance.meta,
            &specs,
            &AlwaysAdmit,
            &options,
        )
        .unwrap();
        assert!(matches!(result.verdict, Verdict::BoundExceeded));
        assert_eq!(result.bound, Some(genoc::explore::BoundReason::States));
        (result.states, result.depth)
    };
    // One job: at the bound, mid-level, but never before the root's first
    // successor.
    assert_eq!(stored(3, 1), (3, 1));
    assert_eq!(stored(1, 1), (2, 0));
    assert_eq!(stored(0, 1), (2, 0));
    // Two jobs: at the end of the first level that reaches the bound, the
    // same level for any bound up to its last state.
    assert_eq!(stored(3, 2), (6, 2));
    assert_eq!(stored(6, 2), (6, 2));
}
