//! Differential tests of the explorer's packed-key expansion against the
//! path it replaced.
//!
//! The explorer no longer clones a configuration per successor, nor builds
//! one per decoded state, nor allocates per canonicalization. Each of the
//! three short cuts is held here to the long way round, rebuilt from public
//! pieces and kept as the oracle:
//!
//! * **patch ≡ apply**: the parent key with one entry rewritten
//!   ([`Workload::patch`]) equals `Config::clone`, `MoveEnumerator::apply`,
//!   `Config::position_key`, for every enumerated move along seeded random
//!   walks, on every instance of the standard suite under wormhole, virtual
//!   cut-through and store-and-forward admission;
//! * **re-seat ≡ rebuild**: [`Workload::decode_into`] on one reused
//!   configuration, jumping between unrelated keys, equals a fresh
//!   [`Workload::decode`] and a `Config::from_travels` rebuild under full
//!   `Config` equality (`T` and `A` order, `ST`);
//! * **canonicalizer ≡ reference**: [`Workload::canonicalize`] and
//!   [`Workload::canonicalize_into`], which compare the permuted images
//!   without building them, return the key and permutation of a
//!   straightforward build-every-image minimization — on workloads with
//!   identical-message groups, and on the twin-free symmetric cells the
//!   benchmark explores.

use genoc::core::moves::{Move, MoveEnumerator};
use genoc::core::step::HeadAdmission;
use genoc::explore::{slot_perms, Workload};
use genoc::prelude::*;
use genoc::sim::workload::uniform_random;

/// SplitMix64: the walks' move choices, reproducible from the seed alone.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The successor key the long way round.
fn applied_key(enumerator: &MoveEnumerator<'_>, cfg: &Config, mv: Move) -> Vec<u16> {
    let mut child = cfg.clone();
    enumerator.apply(&mut child, mv).expect("enumerated move");
    child.position_key()
}

/// Decoding as it was: fresh travels, one `set_flit_pos` per flit,
/// `Config::from_travels`.
fn rebuilt(instance: &Instance, specs: &[MessageSpec], key: &[u16]) -> Config {
    let net = instance.net.as_ref();
    let blank = Config::from_specs(net, instance.routing.as_ref(), specs).unwrap();
    let mut travels = blank.travels().to_vec();
    let mut positions = key.iter();
    for t in &mut travels {
        for f in 0..t.flit_count() {
            t.set_flit_pos(
                f,
                match *positions.next().expect("one position per flit") {
                    0 => FlitPos::Pending,
                    u16::MAX => FlitPos::Delivered,
                    k => FlitPos::InNetwork(usize::from(k) - 1),
                },
            );
        }
    }
    Config::from_travels(net, travels).unwrap()
}

/// One random walk from the all-pending key to a terminal state, checking
/// patch ≡ apply on every enabled move of every state passed. Returns the
/// keys visited.
fn walk(
    instance: &Instance,
    workload: &Workload,
    admission: &dyn HeadAdmission,
    seed: u64,
) -> Vec<Vec<u16>> {
    let net = instance.net.as_ref();
    let enumerator = MoveEnumerator::new(admission);
    let mut rng = seed;
    let mut key = workload.initial_key().into_vec();
    let mut visited = vec![key.clone()];
    loop {
        let cfg = workload.decode(net, &key).unwrap();
        let moves = enumerator.moves(&cfg);
        if moves.is_empty() {
            return visited;
        }
        for &mv in &moves {
            let mut patched = key.clone();
            let (at, was) = workload.patch(&mut patched, mv);
            assert_eq!(
                patched,
                applied_key(&enumerator, &cfg, mv),
                "{}: {mv} at {key:?}",
                instance.name
            );
            patched[at] = was;
            assert_eq!(patched, key, "the patch undoes");
        }
        let mv = moves[(next(&mut rng) % moves.len() as u64) as usize];
        workload.patch(&mut key, mv);
        visited.push(key.clone());
    }
}

/// The three admission rules, with the largest packet each can ever admit
/// into a `capacity`-buffer port.
fn policies(capacity: usize) -> [(Switching, usize); 3] {
    [
        (Switching::default(), 3),
        (Switching::new(SwitchingKind::VirtualCutThrough), capacity),
        (Switching::new(SwitchingKind::StoreForward), capacity),
    ]
}

#[test]
fn patched_keys_and_reseated_configs_match_the_rebuilt_ones_on_every_family() {
    for instance in Instance::standard_suite() {
        let net = instance.net.as_ref();
        for (p, (policy, max_flits)) in policies(instance.meta.capacity as usize)
            .into_iter()
            .enumerate()
        {
            let admission = policy.kernel_spec().expect("closed-world policy").admission;
            let seed = 0x5eed + p as u64;
            let specs = uniform_random(net.node_count(), 4, 1..=max_flits, seed);
            let workload = Workload::new(net, instance.routing.as_ref(), &specs).unwrap();
            let mut keys = Vec::new();
            for w in 0..6 {
                keys.extend(walk(&instance, &workload, admission, seed ^ (w << 8)));
            }
            assert!(keys.len() > 6, "{}: walks must move", instance.name);

            // Jump between unrelated keys on one reused configuration.
            let mut reused = workload.blank();
            let mut rng = seed;
            for _ in 0..keys.len() {
                let key = &keys[(next(&mut rng) % keys.len() as u64) as usize];
                workload.decode_into(&mut reused, key).unwrap();
                assert_eq!(reused, workload.decode(net, key).unwrap());
                assert_eq!(
                    reused,
                    rebuilt(&instance, &specs, key),
                    "{}: {key:?}",
                    instance.name
                );
                assert_eq!(reused.position_key(), *key);
            }
        }
    }
}

/// `Workload::canonicalize` as it was first written: permute, stably sort
/// each identical-message group by block, keep the first strict minimum.
fn reference_canonicalize(
    routes: &[(Vec<PortId>, usize)],
    key: &[u16],
    perms: &[Vec<usize>],
) -> (Vec<u16>, Vec<usize>) {
    let mut offsets = vec![0usize];
    for (_, flits) in routes {
        offsets.push(offsets.last().unwrap() + flits);
    }
    let mut best: Option<(Vec<u16>, Vec<usize>)> = None;
    for perm in perms {
        let mut blocks: Vec<(Vec<u16>, usize)> = perm
            .iter()
            .map(|&s| (key[offsets[s]..offsets[s + 1]].to_vec(), s))
            .collect();
        for (s, route) in routes.iter().enumerate() {
            let group: Vec<usize> = (0..routes.len()).filter(|&j| routes[j] == *route).collect();
            if group[0] != s || group.len() < 2 {
                continue;
            }
            let mut sorted: Vec<(Vec<u16>, usize)> =
                group.iter().map(|&j| blocks[j].clone()).collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            for (&j, block) in group.iter().zip(sorted) {
                blocks[j] = block;
            }
        }
        let total: Vec<usize> = blocks.iter().map(|(_, s)| *s).collect();
        let candidate: Vec<u16> = blocks.into_iter().flat_map(|(b, _)| b).collect();
        if best.as_ref().is_none_or(|(b, _)| candidate < *b) {
            best = Some((candidate, total));
        }
    }
    best.expect("perms contains the identity")
}

/// Holds [`Workload::canonicalize`] and [`Workload::canonicalize_into`] to
/// the reference, key and permutation, on every key of eight random walks
/// over the pressure workload of `instance` with each message sent `copies`
/// times. The reused buffers start out dirty and longer than any key, as a
/// previous, larger workload would leave them. Returns how many keys a
/// non-identity permutation canonicalized.
fn held_to_the_reference(instance: &Instance, copies: usize, flits: usize) -> usize {
    let net = instance.net.as_ref();
    let specs: Vec<MessageSpec> = pressure_specs(&instance.meta, flits)
        .into_iter()
        .flat_map(|s| std::iter::repeat_n(s, copies))
        .collect();
    let workload = Workload::new(net, instance.routing.as_ref(), &specs).unwrap();
    let routes = workload.routes();
    let perms = slot_perms(net, &instance.meta, &routes);
    assert!(perms.len() > 1, "{}: symmetric workload", instance.name);
    let mut keys = Vec::new();
    for w in 0..8 {
        keys.extend(walk(
            instance,
            &workload,
            &genoc::core::step::AlwaysAdmit,
            w,
        ));
    }
    let identity: Vec<usize> = (0..workload.slots()).collect();
    // Every element fixes the all-pending key; the first one, the identity,
    // is the one reported.
    assert_eq!(workload.canonicalize(&keys[0], &perms).1, identity);
    let mut best = vec![0xabcd; 3 * keys[0].len()];
    let mut scratch = best.clone();
    let mut non_identity = 0;
    for key in &keys {
        let (want_key, want_perm) = reference_canonicalize(&routes, key, &perms);
        let (got_key, got_perm) = workload.canonicalize(key, &perms);
        assert_eq!(
            (&*got_key, &got_perm),
            (&*want_key, &want_perm),
            "{}",
            instance.name
        );
        // Reused buffers, dirty from the previous key.
        let into_perm = workload.canonicalize_into(key, &perms, &mut best, &mut scratch);
        assert_eq!((&best, &into_perm), (&want_key, &want_perm));
        // No permutations at all is the identity alone, not a panic.
        assert_eq!(
            workload.canonicalize(key, &[]),
            workload.canonicalize(key, std::slice::from_ref(&identity))
        );
        // The permutation is the one that produced the key.
        let mut at = 0;
        for (j, &s) in got_perm.iter().enumerate() {
            let from: usize = routes[..s].iter().map(|(_, flits)| flits).sum();
            let len = routes[j].1;
            assert_eq!(got_key[at..at + len], key[from..from + len]);
            at += len;
        }
        non_identity += usize::from(want_perm != identity);
    }
    non_identity
}

#[test]
fn scratch_canonicalizer_matches_the_reference_on_duplicate_groups() {
    // Every pressure message `copies` times over: each slot has twins, and
    // the topology's symmetries survive.
    let cells = [
        (Instance::ring_shortest(4, 2), 2usize, 2usize),
        (Instance::mesh_xy(2, 2, 2), 3, 1),
        (Instance::torus_dor(3, 3, 1), 2, 2),
    ];
    for (instance, copies, flits) in cells {
        let sorted = held_to_the_reference(&instance, copies, flits);
        assert!(sorted > 0, "{}: some key must need sorting", instance.name);
    }
}

#[test]
fn canonicalizer_matches_the_reference_on_symmetry_only_cells() {
    // No twins, as in both benchmark cells (the first is theirs): the total
    // permutation is a group element as `slot_perms` gave it.
    let cells = [
        (Instance::ring_shortest(4, 2), 3usize),
        (Instance::mesh_xy(2, 2, 2), 2),
        (Instance::torus_dor(3, 3, 1), 2),
    ];
    for (instance, flits) in cells {
        let moved = held_to_the_reference(&instance, 1, flits);
        assert!(moved > 0, "{}: some key must be moved", instance.name);
    }
}
