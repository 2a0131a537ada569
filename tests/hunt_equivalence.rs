//! The deadlock hunter against a hunt rebuilt from the reference loop.
//!
//! `hunt_random` runs its attempts in one arena and one kernel, refilled in
//! place, and builds a `Config` only for an attempt that ends in `Ω`;
//! `hunt_workload` is one such attempt. The reference here does what the
//! hunter did before it kept anything between attempts: one `simulate` per
//! attempt on `Stepper::Legacy` (the reference loop, stepping the policy
//! itself), the same seeds, the first `Ω` kept. Both must report the same
//! `(seed, steps, config, witness)` or both none, and leave the policy at
//! the same step count, on six instances under every switching policy and
//! round-robin arbitration, with options that make attempts deadlock,
//! evacuate and stop at the step limit.

use std::collections::BTreeSet;

use genoc::prelude::*;

/// What a hunt reports, in a form two hunts can be compared in.
type Found = Option<(u64, u64, Config, Option<WaitCycle>)>;

fn found(hunt: Option<Hunt>) -> Found {
    hunt.map(|h| (h.seed, h.steps, h.config, h.witness))
}

/// One attempt of the reference: `specs` on the reference loop.
fn reference_attempt(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    specs: &[MessageSpec],
    seed: u64,
    max_steps: u64,
) -> Found {
    let options = SimOptions {
        max_steps,
        stepper: Stepper::Legacy,
        ..SimOptions::default()
    };
    let run = simulate(net, routing, policy, specs, &options).unwrap().run;
    (run.outcome == Outcome::Deadlock).then(|| {
        let witness = find_wait_cycle(&run.config);
        (seed, run.steps, run.config, witness)
    })
}

/// `hunt_random` as a loop of reference attempts.
fn reference_hunt(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    policy: &mut dyn SwitchingPolicy,
    options: &HuntOptions,
) -> Found {
    (0..options.attempts).find_map(|attempt| {
        let seed = options.first_seed + attempt;
        let specs = genoc::sim::workload::uniform_random(
            net.node_count(),
            options.messages,
            options.flits..=options.flits,
            seed,
        );
        reference_attempt(net, routing, policy, &specs, seed, options.max_steps)
    })
}

/// The four policies: each switching kind under fixed priority, and
/// round-robin wormhole, whose service order depends on the step count the
/// policy carries from one attempt to the next.
fn policies() -> [Switching; 4] {
    [
        Switching::new(SwitchingKind::Wormhole),
        Switching::new(SwitchingKind::VirtualCutThrough),
        Switching::new(SwitchingKind::StoreForward),
        Switching::wormhole(Arbitration::RoundRobin),
    ]
}

fn steps_so_far(policy: &Switching) -> u64 {
    policy
        .kernel_spec()
        .expect("every shipped policy")
        .first_step
}

/// A network and a routing function, named.
type Case = (&'static str, Box<dyn Network>, Box<dyn RoutingFunction>);

/// The six instances, named, at capacity 2: room for a whole two-flit
/// packet, so virtual cut-through and store-and-forward move those, and
/// wedge at once on longer ones.
fn instances() -> Vec<Case> {
    let mesh = |side| Mesh::new(side, side, 2);
    let ring = Ring::new(6, 2);
    let torus = Torus::new(3, 3, 2);
    vec![
        (
            "mesh-2x2/xy",
            Box::new(mesh(2)),
            Box::new(XyRouting::new(&mesh(2))),
        ),
        (
            "mesh-3x3/xy",
            Box::new(mesh(3)),
            Box::new(XyRouting::new(&mesh(3))),
        ),
        (
            "mesh-2x2/mixed",
            Box::new(mesh(2)),
            Box::new(MixedXyYxRouting::new(&mesh(2))),
        ),
        (
            "mesh-3x3/mixed",
            Box::new(mesh(3)),
            Box::new(MixedXyYxRouting::new(&mesh(3))),
        ),
        (
            "ring-6/shortest",
            Box::new(ring.clone()),
            Box::new(RingShortestRouting::new(&ring)),
        ),
        (
            "torus-3x3/dor",
            Box::new(torus.clone()),
            Box::new(TorusDorRouting::new(&torus)),
        ),
    ]
}

/// Light traffic that evacuates; heavy traffic of short packets, which
/// deadlocks the cyclic instances under every policy, and of long ones,
/// which deadlocks them under wormhole switching and wedges the other two
/// at once; and heavy traffic cut off after a few steps.
fn option_sets() -> [HuntOptions; 4] {
    let base = HuntOptions {
        attempts: 3,
        first_seed: 11,
        messages: 3,
        flits: 2,
        max_steps: 10_000,
    };
    let heavy = HuntOptions {
        messages: 64,
        attempts: 4,
        ..base
    };
    [
        base,
        heavy,
        HuntOptions {
            flits: 6,
            messages: 24,
            ..heavy
        },
        HuntOptions {
            max_steps: 3,
            ..heavy
        },
    ]
}

/// Tallies what the hunts of one test reported.
#[derive(Default)]
struct Tally {
    /// Policies under which some hunt reached `Ω` after moving flits, so
    /// not at once, on a workload too long for the policy's buffers.
    stepped_into_omega: BTreeSet<String>,
    /// Hunts that found nothing.
    empty: usize,
}

impl Tally {
    fn note(&mut self, policy: &Switching, got: &Found) {
        match got {
            Some((_, steps, ..)) if *steps > 0 => _ = self.stepped_into_omega.insert(policy.name()),
            Some(_) => {}
            None => self.empty += 1,
        }
    }

    /// Every policy deadlocked somewhere, and some hunt came up empty.
    fn check(&self) {
        assert_eq!(
            self.stepped_into_omega.len(),
            4,
            "{:?}",
            self.stepped_into_omega
        );
        assert!(self.empty > 0, "every hunt found Ω");
    }
}

#[test]
fn hunt_random_equals_the_per_attempt_reference() {
    let mut tally = Tally::default();
    for (name, net, routing) in instances() {
        for mut policy in policies() {
            let mut reference = policy.clone();
            for options in option_sets() {
                let cell = format!("{name}, {}, {options:?}", policy.name());
                let got = found(hunt_random(&*net, &*routing, &mut policy, &options).unwrap());
                let want = reference_hunt(&*net, &*routing, &mut reference, &options);
                assert_eq!(got, want, "{cell}");
                assert_eq!(steps_so_far(&policy), steps_so_far(&reference), "{cell}");
                tally.note(&policy, &got);
            }
        }
    }
    tally.check();
}

#[test]
fn hunt_workload_equals_one_reference_attempt() {
    let mut tally = Tally::default();
    for (name, net, routing) in instances() {
        for mut policy in policies() {
            let mut reference = policy.clone();
            // The same policy through three workloads, so that round-robin
            // starts the later ones mid-order.
            for (seed, messages, flits) in [(5, 3, 2), (6, 64, 2), (7, 24, 6)] {
                let cell = format!("{name}, {}, seed {seed}", policy.name());
                let specs = genoc::sim::workload::uniform_random(
                    net.node_count(),
                    messages,
                    flits..=flits,
                    seed,
                );
                let got = hunt_workload(&*net, &*routing, &mut policy, &specs, seed, 10_000);
                let got = found(got.unwrap());
                let want =
                    reference_attempt(&*net, &*routing, &mut reference, &specs, seed, 10_000);
                assert_eq!(got, want, "{cell}");
                assert_eq!(steps_so_far(&policy), steps_so_far(&reference), "{cell}");
                tally.note(&policy, &got);
            }
        }
    }
    tally.check();
}

#[test]
fn a_hunt_that_finds_nothing_still_counts_its_steps() {
    // Every attempt on the acyclic XY mesh evacuates: the policy has stepped
    // through all of them, as on the reference loop.
    let mesh = Mesh::new(3, 3, 2);
    let routing = XyRouting::new(&mesh);
    let options = HuntOptions {
        attempts: 5,
        messages: 10,
        flits: 3,
        ..HuntOptions::default()
    };
    let mut policy = Switching::wormhole(Arbitration::RoundRobin);
    let mut reference = policy.clone();
    assert!(hunt_random(&mesh, &routing, &mut policy, &options)
        .unwrap()
        .is_none());
    assert!(reference_hunt(&mesh, &routing, &mut reference, &options).is_none());
    assert!(steps_so_far(&policy) > 0);
    assert_eq!(steps_so_far(&policy), steps_so_far(&reference));
}
