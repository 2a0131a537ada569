//! Free-list soundness of the arena under arbitrary interleavings of
//! inject / step / remove / reroute.
//!
//! The properties: no operation sequence produces a dangling slot or
//! aliases a recycled slot to two live messages; public `MsgId`s stay
//! stable across recycling (a live message keeps resolving to its own
//! state no matter how many other slots were freed and reused around it);
//! and the arena stays observationally equal to a shadow `Config` driven
//! through the same operations — applied to both sides one by one, or to
//! the shadow alone in batches the arena then catches up with
//! (`ArenaConfig::follow`, what a listened arena run does after a
//! recovery), and travels injected mid-run run to the reference's end.
//! Beside them: the arena's exit (`write_back`) against the `Config` it
//! materialises from nothing, every park its transition feed reports
//! against `blocked_port_with`, and a quiet kernel, which wakes a parked
//! travel only when its gate is released, stepped beside an observed one.

use genoc::core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
use genoc::core::step::{blocked_port_with, HeadAdmission};
use genoc::core::trace::{Event, Trace};
use genoc::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

/// One operation of the interleaving. Indices are taken modulo the live
/// set at application time, so any generated sequence is applicable.
#[derive(Clone, Debug)]
enum Op {
    /// Inject a fresh message source→dest with this many flits.
    Inject(usize, usize, usize),
    /// One kernel step (moves replayed onto the shadow config).
    Step,
    /// Remove the n-th in-flight message, if any.
    Remove(usize),
    /// Attempt to reroute the n-th in-flight message onto its YX route;
    /// arena and shadow must agree on acceptance and on the result.
    Reroute(usize),
}

fn op_strategy(nodes: usize) -> impl Strategy<Value = Op> {
    // Weighted choice by hand (the shim has no `prop_oneof!`):
    // 0..3 inject, 3..7 step, 7..9 remove, 9 reroute.
    (0usize..10, 0..nodes, 0..nodes, 1usize..=4, 0usize..32).prop_map(|(w, s, d, f, n)| match w {
        0..=2 => Op::Inject(s, d, f),
        3..=6 => Op::Step,
        7..=8 => Op::Remove(n),
        _ => Op::Reroute(n),
    })
}

struct Harness {
    mesh: Mesh,
    xy: XyRouting,
    yx: YxRouting,
    cfg: Config,
    arena: ArenaConfig,
    next_id: usize,
    spec: ArenaSpec,
    /// Injections, removals and reroutes go to the shadow alone, as a
    /// recovery hook's do; the arena follows before the next step.
    lazy: bool,
}

impl Harness {
    fn new() -> Harness {
        let mesh = Mesh::new(3, 3, 2);
        let xy = XyRouting::new(&mesh);
        let yx = YxRouting::new(&mesh);
        let cfg = Config::from_travels(&mesh, Vec::new()).unwrap();
        let arena = ArenaConfig::from_config(&mesh, &cfg).unwrap();
        let spec =
            ArenaSpec::from_kernel_spec(&Switching::default().kernel_spec().unwrap()).unwrap();
        Harness {
            mesh,
            xy,
            yx,
            cfg,
            arena,
            next_id: 0,
            spec,
            lazy: false,
        }
    }

    /// The arena brought up to the shadow in place, and the change of the
    /// progress measure it reports against the shadow's own.
    fn follow(&mut self) {
        let before = self.arena.progress_measure();
        let delta = self.arena.follow(&self.mesh, &self.cfg).unwrap();
        assert_eq!(
            before.wrapping_add_signed(delta),
            self.cfg.progress_measure(),
            "the arena's account of what the mutations were worth"
        );
        self.check();
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Inject(s, d, f) => {
                let spec = MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), f);
                let t =
                    Travel::from_spec(&self.mesh, &self.xy, MsgId::from_index(self.next_id), &spec)
                        .unwrap();
                self.next_id += 1;
                if !self.lazy {
                    self.arena.push_travel(&self.mesh, &t).unwrap();
                }
                self.cfg.push_travel(t).unwrap();
            }
            Op::Step => {
                if self.lazy {
                    self.follow();
                }
                if self.arena.flight_count() == 0 {
                    return;
                }
                let mut kernel = ArenaKernel::new(&self.arena, self.spec);
                if kernel.is_deadlock(&self.arena) {
                    return;
                }
                self.step_with(&mut kernel);
            }
            Op::Remove(n) => {
                if self.cfg.travels().is_empty() {
                    return;
                }
                let id = self.cfg.travels()[n % self.cfg.travels().len()].id();
                let from_cfg = self.cfg.remove_travel(id).unwrap();
                if !self.lazy {
                    let from_arena = self.arena.remove_travel(&self.mesh, id).unwrap();
                    assert_eq!(from_cfg, from_arena, "both sides evict the same travel");
                }
            }
            Op::Reroute(n) => {
                if self.cfg.travels().is_empty() {
                    return;
                }
                let t = &self.cfg.travels()[n % self.cfg.travels().len()];
                let id = t.id();
                let source = t.route()[0];
                let dest = *t.route().last().unwrap();
                let Ok(route) = compute_route(&self.mesh, &self.yx, source, dest) else {
                    return;
                };
                let c = self.cfg.reroute_travel(&self.mesh, id, route.clone());
                if !self.lazy {
                    let a = self.arena.reroute_travel(&self.mesh, id, route);
                    assert_eq!(
                        a.is_ok(),
                        c.is_ok(),
                        "arena and shadow agree on reroute admissibility"
                    );
                }
            }
        }
    }

    /// One step of `kernel`, its moves replayed onto the shadow config.
    fn step_with(&mut self, kernel: &mut ArenaKernel) {
        kernel.set_observed(true);
        let mut trace = Trace::new(false);
        let mut before = self.cfg.clone();
        kernel.step(&mut self.arena, &mut trace).unwrap();
        // While a step is in progress the flight list mirrors
        // `cfg.travels()` order, so move indices transfer directly.
        kernel.replay_moves(&mut self.cfg).unwrap();
        if kernel.take_saw_arrival() {
            kernel.drain_arrived(&mut self.arena);
            let newly = self.cfg.drain_arrived();
            assert_eq!(newly, kernel.newly_arrived());
        }
        // The step written back into the configuration it started from —
        // recycled slots, sparse ids, rerouted travels and all.
        self.arena.write_back(&mut before).unwrap();
        assert_eq!(before, self.cfg, "write-back ≡ replayed shadow");
    }

    /// The structural soundness checks run after every operation.
    fn check(&self) {
        // Observational equality with the shadow config.
        let materialized = self.arena.to_config(&self.mesh).unwrap();
        assert_eq!(materialized, self.cfg, "arena ≡ shadow config");

        // Slot accounting: every slot is exactly one of in-flight,
        // arrived, or free.
        let slots = self.arena.slot_count();
        assert_eq!(
            slots,
            self.arena.flight_count() + self.arena.arrived_count() + self.arena.free_count(),
            "membership lists partition the slots"
        );

        // No aliasing: live public ids resolve to distinct slots, and each
        // resolves back to the same id (slot_of ∘ public_id = identity).
        let mut seen = HashSet::new();
        for t in self.cfg.travels().iter().chain(self.cfg.arrived()) {
            let slot = self
                .arena
                .slot_of(t.id())
                .expect("live message must have a slot");
            assert!(seen.insert(slot), "two live messages share slot {slot}");
            assert_eq!(
                self.arena.public_id(slot),
                t.id(),
                "public id stable across recycling"
            );
        }
        assert_eq!(seen.len(), slots - self.arena.free_count());

        // Measures agree (the (C-5) ledger rests on this). The arena's
        // delivered count includes in-flight delivered prefixes, so add
        // those to the config's arrived-only figure.
        assert_eq!(self.arena.progress_measure(), self.cfg.progress_measure());
        let in_flight_delivered: u64 = self
            .cfg
            .travels()
            .iter()
            .flat_map(Travel::flit_positions)
            .filter(|p| *p == FlitPos::Delivered)
            .count() as u64;
        assert_eq!(
            self.arena.delivered_flits(),
            self.cfg.delivered_flits() + in_flight_delivered,
            "delivered-flit accounting"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn interleavings_never_dangle_or_alias(ops in vec(op_strategy(9), 1..80)) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
            h.check();
        }
    }

    /// The same interleavings with every injection, removal and reroute
    /// between two steps made on the shadow alone: `follow` finds the batch
    /// by comparing `T` with the flight list, applies it in place, and
    /// reports what it was worth — over recycled slots, a travel pushed and
    /// removed in one batch, reroutes of travels that have not moved yet.
    #[test]
    fn follow_catches_up_with_any_batch_of_mutations(ops in vec(op_strategy(9), 1..80)) {
        let mut h = Harness::new();
        h.lazy = true;
        for op in &ops {
            h.apply(op);
        }
        h.follow();
    }
}

/// Travels injected mid-run with `push_travel` land where
/// `Config::push_travel` puts them: an arena stepped a dozen times and
/// topped up with a second wave materialises to its own image topped up
/// the same way, and a fresh kernel runs it on to the end the reference
/// interpreter reaches from that image.
#[test]
fn mid_run_injection_agrees_under_wormhole_switching() {
    let mesh = Mesh::new(4, 4, 1);
    let routing = XyRouting::new(&mesh);
    let first = genoc::sim::workload::uniform_random(16, 24, 1..=4, 29);
    let second = genoc::sim::workload::uniform_random(16, 12, 1..=4, 31);
    let cfg = Config::from_specs(&mesh, &routing, &first).unwrap();
    let spec = ArenaSpec::from_kernel_spec(&Switching::default().kernel_spec().unwrap()).unwrap();
    let mut arena = ArenaConfig::from_config(&mesh, &cfg).unwrap();
    let mut kernel = ArenaKernel::new(&arena, spec);
    let mut trace = Trace::new(false);
    for _ in 0..12 {
        kernel.step(&mut arena, &mut trace).unwrap();
        if kernel.take_saw_arrival() {
            kernel.drain_arrived(&mut arena);
        }
    }
    let mut shadow = arena.to_config(&mesh).unwrap();
    assert!(!shadow.is_evacuated(), "the second wave lands mid-flight");
    for (i, s) in second.iter().enumerate() {
        let id = MsgId::from_index(first.len() + i);
        let t = Travel::from_spec(&mesh, &routing, id, s).unwrap();
        arena.push_travel(&mesh, &t).unwrap();
        shadow.push_travel(t).unwrap();
    }
    assert_eq!(arena.to_config(&mesh).unwrap(), shadow);

    let reference = run(
        &mesh,
        &IdentityInjection,
        &mut Switching::default(),
        shadow,
        &RunOptions::default(),
    )
    .unwrap();
    assert_eq!(reference.outcome, Outcome::Evacuated);
    let mut kernel = ArenaKernel::new(&arena, spec);
    let mut steps = 0;
    while !arena.is_evacuated() {
        assert!(!kernel.is_deadlock(&arena), "step {steps}");
        kernel.step(&mut arena, &mut trace).unwrap();
        if kernel.take_saw_arrival() {
            kernel.drain_arrived(&mut arena);
        }
        steps += 1;
    }
    assert_eq!(steps, reference.steps);
    assert_eq!(arena.to_config(&mesh).unwrap(), reference.config);
}

/// A hook that takes a travel out of `T` and puts it back has moved it to
/// the end: `follow` sees the removal, and the travel returns as a push, so
/// that flight positions keep addressing the shadow's travels.
#[test]
fn follow_keeps_flight_order_when_a_travel_is_removed_and_pushed_again() {
    let mut h = Harness::new();
    for i in 0..4 {
        h.apply(&Op::Inject(i, 8 - i, 2));
    }
    h.apply(&Op::Step);
    h.lazy = true;
    let moved = h.cfg.travels()[1].id();
    let travel = h.cfg.remove_travel(moved).unwrap();
    h.cfg.push_travel(travel).unwrap();
    h.follow();
    assert_eq!(h.cfg.travels().last().map(Travel::id), Some(moved));
    let mut kernel = ArenaKernel::new(&h.arena, h.spec);
    while h.arena.flight_count() > 0 {
        h.step_with(&mut kernel);
        h.check();
    }
}

#[test]
fn recycled_slots_keep_public_ids_stable() {
    let mut h = Harness::new();
    // Fill, evict half, refill: the survivors' ids must keep resolving to
    // their own travels while their neighbours' slots are reused.
    for i in 0..8 {
        h.apply(&Op::Inject(i, 8 - i, 2));
    }
    let survivors: Vec<MsgId> = h
        .cfg
        .travels()
        .iter()
        .skip(1)
        .step_by(2)
        .map(|t| t.id())
        .collect();
    for n in [0, 1, 2, 3] {
        h.apply(&Op::Remove(n)); // indices shift as we remove; any four
        h.check();
    }
    let before: Vec<u32> = survivors
        .iter()
        .filter_map(|&id| h.arena.slot_of(id))
        .collect();
    for i in 0..4 {
        h.apply(&Op::Inject(i, i + 4, 1)); // recycle the freed slots
        h.check();
    }
    assert_eq!(h.arena.free_count(), 0, "free list fully recycled");
    for (id, slot) in survivors.iter().zip(&before) {
        assert_eq!(
            h.arena.slot_of(*id),
            Some(*slot),
            "survivor {id} moved slots during recycling"
        );
    }
}

/// After evictions and refills the flight order is no longer the slot
/// order, so a travel's kernel rank, its slot and (once arrivals drain) its
/// flight position are three different numbers. One kernel then steps the
/// lot to evacuation with no resync in between, and every move it logs must
/// still address the right travel of the shadow config.
#[test]
fn lockstep_holds_when_rank_slot_and_position_all_differ() {
    let mut h = Harness::new();
    for i in 0..9 {
        h.apply(&Op::Inject(i, 8 - i.min(7), 3));
    }
    for n in [0, 2, 4, 1] {
        h.apply(&Op::Remove(n));
    }
    for i in 0..6 {
        h.apply(&Op::Inject(8 - i, i, 2)); // four recycled slots, two new
    }
    let slots: Vec<u32> = (h.cfg.travels().iter())
        .map(|t| h.arena.slot_of(t.id()).unwrap())
        .collect();
    assert!(
        slots.windows(2).any(|w| w[0] > w[1]),
        "flight order must not be slot order: {slots:?}"
    );
    h.check();

    let mut kernel = ArenaKernel::new(&h.arena, h.spec);
    let mut steps = 0;
    while h.arena.flight_count() > 0 {
        assert!(!kernel.is_deadlock(&h.arena), "XY routing evacuates");
        h.step_with(&mut kernel);
        h.check();
        steps += 1;
        assert!(steps < 1_000);
    }
    assert_eq!(h.cfg.arrived().len(), 11);
}

fn arena_spec(kind: SwitchingKind) -> ArenaSpec {
    ArenaSpec::from_kernel_spec(&Switching::new(kind).kernel_spec().unwrap()).unwrap()
}

/// How a stepped arena was left.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum End {
    Evacuated,
    Deadlocked,
    /// Cut by the step limit with flits in the network and ports owned.
    MidFlight,
}

/// Steps `cfg` on the arena until it evacuates, deadlocks or has taken
/// `limit` steps, then writes the arena back into the untouched `cfg` and
/// compares with the `Config` the arena materialises from nothing.
fn write_back_matches_to_config(
    net: &dyn Network,
    kind: SwitchingKind,
    cfg: &Config,
    limit: u64,
) -> End {
    let mut arena = ArenaConfig::from_config(net, cfg).unwrap();
    let mut kernel = ArenaKernel::new(&arena, arena_spec(kind));
    let mut trace = Trace::new(false);
    let mut steps = 0;
    let end = loop {
        if arena.is_evacuated() {
            break End::Evacuated;
        }
        if kernel.is_deadlock(&arena) {
            break End::Deadlocked;
        }
        if steps == limit {
            break End::MidFlight;
        }
        kernel.step(&mut arena, &mut trace).unwrap();
        if kernel.take_saw_arrival() {
            kernel.drain_arrived(&mut arena);
        }
        steps += 1;
    };
    let expected = arena.to_config(net).unwrap();
    let mut written = cfg.clone();
    arena.write_back(&mut written).unwrap();
    assert_eq!(written, expected, "{kind:?}, {end:?} after {steps} steps");
    written.validate(net).unwrap();
    // And once more over a configuration that is no longer the initial one:
    // `T` and `A` both populated, in the arena's order.
    arena.write_back(&mut written).unwrap();
    assert_eq!(written, expected, "{kind:?}, written back twice over");
    if end == End::MidFlight {
        let owned = written.state().ports().filter(|p| p.owner().is_some());
        assert!(owned.count() > 0, "cut mid-flight: ports are owned");
        assert!(written.travels().iter().any(Travel::occupies_network));
    }
    end
}

/// The exit of a quiet arena run against the one it replaced, on every kind of
/// end a run can have: seeded uniform traffic × the three switching
/// policies × XY (evacuates) and mixed XY/YX (deadlocks) × run to the end
/// or cut after a few steps.
#[test]
fn write_back_equals_to_config_on_every_kind_of_end() {
    use std::collections::HashMap;
    let mut seen: HashMap<(SwitchingKind, End), u32> = HashMap::new();
    for kind in [
        SwitchingKind::Wormhole,
        SwitchingKind::VirtualCutThrough,
        SwitchingKind::StoreForward,
    ] {
        // On XY, packets every policy can move: the run evacuates. On mixed
        // XY/YX, long worms at capacity 1 deadlock wormhole switching in the
        // network; the whole-packet policies get some packets a flit longer
        // than a buffer, which stay at their sources while the rest arrive.
        let (capacity, fitting, pressing) = match kind {
            SwitchingKind::Wormhole => (1, 4..=8, 4..=8),
            _ => (2, 1..=2, 1..=3),
        };
        let mesh = Mesh::new(4, 4, capacity);
        let xy = XyRouting::new(&mesh);
        let mixed = MixedXyYxRouting::new(&mesh);
        for seed in 0..24u64 {
            let messages = 64 + 8 * (seed as usize % 9);
            for (routing, flits) in [(&xy as &dyn RoutingFunction, &fitting), (&mixed, &pressing)] {
                let specs = genoc::sim::workload::uniform_random(16, messages, flits.clone(), seed);
                let cfg = Config::from_specs(&mesh, routing, &specs).unwrap();
                for limit in [u64::MAX, 3 + seed % 7] {
                    let end = write_back_matches_to_config(&mesh, kind, &cfg, limit);
                    *seen.entry((kind, end)).or_default() += 1;
                }
            }
        }
        for end in [End::Evacuated, End::Deadlocked, End::MidFlight] {
            assert!(
                seen.get(&(kind, end)).is_some_and(|&n| n >= 3),
                "{kind:?} never ended {end:?}: {seen:?}"
            );
        }
    }
}

/// Folds the arena's transition feed into "last seen `Blocked(p)`" per
/// travel and, after every step, holds each such park against the reference
/// over the shadow `Config`: the travel cannot move, and `p` is the port
/// that gates it.
struct ParkAudit {
    admission: &'static dyn HeadAdmission,
    /// By message index: the port of the travel's last transition, if that
    /// was a park.
    parked: Vec<Option<PortId>>,
    checks: u64,
}

impl RunObserver for ParkAudit {
    fn on_step(
        &mut self,
        cfg: &Config,
        step: u64,
        transitions: &[Transition],
        _freed: &[PortId],
        _moves: &[Event],
        _arrived: &[MsgId],
    ) -> genoc::core::Result<()> {
        for tr in transitions {
            let i = tr.msg.index();
            if self.parked.len() <= i {
                self.parked.resize(i + 1, None);
            }
            self.parked[i] = match tr.status {
                TravelStatus::Blocked(p) => Some(p),
                _ => None,
            };
        }
        for (i, t) in cfg.travels().iter().enumerate() {
            if let Some(&Some(p)) = self.parked.get(t.id().index()) {
                let gate = blocked_port_with(cfg, i, self.admission);
                assert_eq!(gate, Some(p), "step {step}: {} parked on {p}", t.id());
                self.checks += 1;
            }
        }
        Ok(())
    }

    /// A hook mutation resyncs the kernel, which reclassifies every travel
    /// without a transition: what the feed said before is void.
    fn on_mutation(&mut self, _cfg: &Config, _steps_done: u64) -> genoc::core::Result<()> {
        self.parked.clear();
        Ok(())
    }
}

/// A parked travel really is blocked, and on that port: the arena's feed
/// against `blocked_port_with`, on observed hotspot runs across the three
/// admissions, both arbitrations, XY and the mixed routing that deadlocks —
/// wormhole at capacity 1 under detect-and-abort recovery there, so the
/// audit crosses resyncs too.
#[test]
fn every_park_the_arena_reports_is_a_blocked_port_of_the_reference() {
    // Buffer depth beside each policy: the whole-packet admissions need room
    // for a 3-flit packet, wormhole needs to be short of it to deadlock.
    let policies = [
        (1, Switching::default()),
        (1, Switching::wormhole(Arbitration::RoundRobin)),
        (3, Switching::new(SwitchingKind::VirtualCutThrough)),
        (3, Switching::new(SwitchingKind::StoreForward)),
    ];
    let (mut checks, mut recoveries) = (0, 0);
    for seed in 0..6u64 {
        let specs = genoc::sim::workload::hotspot(36, 200, seed as usize % 36, 40, 3, seed);
        for (capacity, policy) in &policies {
            let mesh = Mesh::new(6, 6, *capacity);
            let xy = XyRouting::new(&mesh);
            let mixed = MixedXyYxRouting::new(&mesh);
            for routing in [&xy as &dyn RoutingFunction, &mixed] {
                let mut policy = policy.clone();
                let mut audit = ParkAudit {
                    admission: policy.kernel_spec().unwrap().admission,
                    parked: Vec::new(),
                    checks: 0,
                };
                // Wait-for cycles are a wormhole notion; the whole-packet
                // policies run unwatched and may end in Ω.
                let mut engine = DetectionEngine::with_policy(
                    EngineOptions::default(),
                    Box::new(AbortAndEvacuate),
                );
                let hook: &mut dyn DetectorHook = if policy.name().starts_with("wormhole") {
                    &mut engine
                } else {
                    &mut NullHook
                };
                let cfg = Config::from_specs(&mesh, routing, &specs).unwrap();
                let options = SimOptions::default();
                let result =
                    simulate_observed_config(&mesh, &mut policy, cfg, &options, hook, &mut audit)
                        .unwrap();
                assert_ne!(result.run.outcome, Outcome::StepLimit);
                assert!(audit.checks > 0, "{}: nothing ever parked", policy.name());
                checks += audit.checks;
                recoveries += engine.detections().len();
            }
        }
    }
    assert!(checks > 100_000, "only {checks} parks audited");
    assert!(recoveries > 0, "no run crossed a resync");
}

/// One more 64-bit word into an FNV-1a hash, a byte at a time.
fn fnv(hash: u64, word: u64) -> u64 {
    (word.to_le_bytes().iter()).fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds an observed run's whole feed into one FNV-1a value: per step its
/// number, its `(msg, status)` transitions and its freed ports, both in
/// order; a marker per hook mutation; the outcome and the step count.
struct StreamFold {
    hash: u64,
    mutations: u64,
}

impl RunObserver for StreamFold {
    fn on_step(
        &mut self,
        _cfg: &Config,
        step: u64,
        transitions: &[Transition],
        freed: &[PortId],
        _moves: &[Event],
        _arrived: &[MsgId],
    ) -> genoc::core::Result<()> {
        let mut h = fnv(fnv(self.hash, step), transitions.len() as u64);
        for tr in transitions {
            let status = match tr.status {
                TravelStatus::Pending => 0,
                TravelStatus::Active => 1,
                TravelStatus::Delivered => 2,
                TravelStatus::Blocked(p) => 3 + p.index() as u64,
            };
            h = fnv(fnv(h, tr.msg.index() as u64), status);
        }
        h = fnv(h, freed.len() as u64);
        self.hash = (freed.iter()).fold(h, |h, p| fnv(h, p.index() as u64));
        Ok(())
    }

    fn on_mutation(&mut self, _cfg: &Config, steps_done: u64) -> genoc::core::Result<()> {
        self.hash = fnv(fnv(self.hash, u64::MAX), steps_done);
        self.mutations += 1;
        Ok(())
    }

    fn on_run_end(
        &mut self,
        outcome: Outcome,
        steps: u64,
        _cfg: &Config,
    ) -> genoc::core::Result<()> {
        self.hash = fnv(fnv(self.hash, outcome as u64), steps);
        Ok(())
    }
}

/// `(cell, steps, fold)` of every cell below, taken by running the test on
/// the kernel that still re-scanned a woken travel's worm at every serve, so
/// they hold that kernel's transition and freed-port feed, step by step.
const PINNED_STREAMS: [(&str, u64, u64); 5] = [
    (
        "8x8 xy hotspot, wormhole, fixed priority",
        460,
        4_757_481_770_082_563_186,
    ),
    (
        "8x8 xy hotspot, wormhole, round robin",
        472,
        11_836_395_391_268_965_239,
    ),
    (
        "6x6 xy cap 3, virtual cut-through",
        244,
        3_547_028_029_866_108_354,
    ),
    (
        "6x6 xy cap 3, store-and-forward",
        362,
        13_791_919_061_931_308_801,
    ),
    (
        "6x6 mixed xy/yx cap 1, wormhole, abort-and-evacuate",
        225,
        7_341_390_879_115_749_926,
    ),
];

/// One cell of [`PINNED_STREAMS`]: its mesh, a fresh policy, its messages
/// and their configuration, and whether it is the mixed-routing cell.
struct PinnedCell {
    name: &'static str,
    mesh: Mesh,
    policy: Switching,
    specs: Vec<MessageSpec>,
    cfg: Config,
    mixed: bool,
}

/// The cells of [`PINNED_STREAMS`]: hotspot traffic parks and wakes most
/// travels over and over, the whole-packet admissions gate the head on room
/// for the packet, and the mixed-routing cell deadlocks.
fn pinned_cells() -> Vec<PinnedCell> {
    let cells = [
        (8, 2, false, Switching::default()),
        (8, 2, false, Switching::wormhole(Arbitration::RoundRobin)),
        (
            6,
            3,
            false,
            Switching::new(SwitchingKind::VirtualCutThrough),
        ),
        (6, 3, false, Switching::new(SwitchingKind::StoreForward)),
        (6, 1, true, Switching::default()),
    ];
    let cells = cells.into_iter().zip(PINNED_STREAMS);
    cells
        .map(|((side, capacity, mixed, policy), (name, ..))| {
            let nodes = side * side;
            let mesh = Mesh::new(side, side, capacity);
            let (specs, cfg) = if mixed {
                let specs = genoc::sim::workload::uniform_random(nodes, 240, 2..=6, 23);
                let cfg = Config::from_specs(&mesh, &MixedXyYxRouting::new(&mesh), &specs);
                (specs, cfg)
            } else {
                let specs =
                    genoc::sim::workload::hotspot(nodes, 6 * nodes, nodes / 2 + 3, 40, 3, 23);
                let cfg = Config::from_specs(&mesh, &XyRouting::new(&mesh), &specs);
                (specs, cfg)
            };
            PinnedCell {
                name,
                mesh,
                policy,
                specs,
                cfg: cfg.unwrap(),
                mixed,
            }
        })
        .collect()
}

/// The kernel's transition and freed-port logs, order included, pinned per
/// cell; the mixed-routing cell recovers, so its feed crosses resyncs.
#[test]
fn the_transition_stream_is_pinned_per_cell() {
    let mut streams = Vec::new();
    for cell in pinned_cells() {
        let PinnedCell {
            name,
            mesh,
            mut policy,
            specs,
            cfg,
            mixed,
        } = cell;
        let mut engine =
            DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
        let hook: &mut dyn DetectorHook = if mixed { &mut engine } else { &mut NullHook };
        let mut fold = StreamFold {
            hash: 0xcbf2_9ce4_8422_2325,
            mutations: 0,
        };
        let result = simulate_observed_config(
            &mesh,
            &mut policy,
            cfg,
            &SimOptions::default(),
            hook,
            &mut fold,
        )
        .unwrap();
        assert_eq!(result.run.outcome, Outcome::Evacuated, "{name}");
        // Each recovery aborts one travel; every other travel arrives.
        let aborted = if mixed { engine.detections().len() } else { 0 };
        assert_eq!(fold.mutations > 0, mixed, "{name}: recoveries");
        assert_eq!(
            result.run.arrival_order.len() + aborted,
            specs.len(),
            "{name}"
        );
        streams.push((name, result.run.steps, fold.hash));
    }
    assert_eq!(streams, PINNED_STREAMS);
}

/// Steps a quiet kernel and an observed one side by side on clones of the
/// arena of `cfg` until they evacuate, deadlock with no wait cycle, or
/// take `limit` steps. Each step they must make the same moves in the same
/// order, drain the same arrivals and leave the same `Config` (`T` and `A`
/// in the same order), and before each step give the same Ω verdict. At a
/// deadlock with a wait cycle both abort the cycle's first travel and
/// resync, as a recovery does, so the comparison crosses resyncs. Returns
/// how the two ended and the number of recoveries.
fn quiet_steps_like_observed(
    net: &dyn Network,
    spec: ArenaSpec,
    cfg: &Config,
    limit: u64,
) -> (End, usize) {
    let arena = ArenaConfig::from_config(net, cfg).unwrap();
    let mut arenas = [arena.clone(), arena];
    let mut kernels = [0, 1].map(|i| ArenaKernel::new(&arenas[i], spec));
    kernels[1].set_observed(true);
    let mut traces = [Trace::new(true), Trace::new(true)];
    let (mut steps, mut recoveries) = (0u64, 0usize);
    let end = loop {
        if arenas[0].is_evacuated() {
            assert!(arenas[1].is_evacuated());
            break End::Evacuated;
        }
        let omega = [0, 1].map(|i| kernels[i].is_deadlock(&arenas[i]));
        assert_eq!(omega[0], omega[1], "Ω before step {steps}");
        if omega[0] {
            let Some(cycle) = find_wait_cycle(&arenas[0].to_config(net).unwrap()) else {
                break End::Deadlocked;
            };
            for (arena, kernel) in arenas.iter_mut().zip(&mut kernels) {
                arena.remove_travel(net, cycle.msgs[0]).unwrap();
                kernel.resync(arena);
            }
            recoveries += 1;
            continue;
        }
        if steps == limit {
            break End::MidFlight;
        }
        let seen = traces[0].events().len();
        for ((arena, kernel), trace) in arenas.iter_mut().zip(&mut kernels).zip(&mut traces) {
            trace.begin_step(steps);
            assert!(kernel.step(arena, trace).unwrap().moves() > 0);
            if kernel.take_saw_arrival() {
                kernel.drain_arrived(arena);
            }
        }
        assert_eq!(
            traces[0].events()[seen..],
            traces[1].events()[seen..],
            "moves of step {steps}"
        );
        assert_eq!(kernels[0].newly_arrived(), kernels[1].newly_arrived());
        assert!(kernels[0].transitions().is_empty() && kernels[0].freed_ports().is_empty());
        assert_eq!(
            arenas[0].to_config(net).unwrap(),
            arenas[1].to_config(net).unwrap(),
            "after step {steps}"
        );
        steps += 1;
    };
    assert_eq!(
        arenas[0].to_config(net).unwrap(),
        arenas[1].to_config(net).unwrap(),
        "the same end"
    );
    (end, recoveries)
}

/// The quiet kernel on the five stream-pinned cells, which run it to
/// evacuation: the mixed-routing cell through its recoveries.
#[test]
fn quiet_kernels_step_like_observed_ones_on_the_pinned_cells() {
    for cell in pinned_cells() {
        let spec = ArenaSpec::from_kernel_spec(&cell.policy.kernel_spec().unwrap()).unwrap();
        let (end, recoveries) = quiet_steps_like_observed(&cell.mesh, spec, &cell.cfg, u64::MAX);
        assert_eq!(end, End::Evacuated, "{}", cell.name);
        assert_eq!(recoveries > 0, cell.mixed, "{}", cell.name);
    }
}

/// [`quiet_steps_like_observed`] under the three admissions — wormhole
/// (`Always`), virtual cut-through (`WholePacketRoom`) and store-and-forward
/// (`StoreAndForward`) — run to the end or cut after `cut` steps.
fn quiet_steps_like_observed_everywhere(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    round_robin: bool,
    cut: u64,
) {
    let cfg = Config::from_specs(net, routing, specs).unwrap();
    let arbitration = if round_robin {
        Arbitration::RoundRobin
    } else {
        Arbitration::FixedPriority
    };
    for kind in [
        SwitchingKind::Wormhole,
        SwitchingKind::VirtualCutThrough,
        SwitchingKind::StoreForward,
    ] {
        let spec = ArenaSpec {
            arbitration,
            ..arena_spec(kind)
        };
        for limit in [u64::MAX, cut] {
            quiet_steps_like_observed(net, spec, &cfg, limit);
        }
    }
}

/// A workload drawn as (source, dest, flits) triples over `nodes` nodes.
fn workload_strategy(
    nodes: usize,
    max_messages: usize,
    max_flits: usize,
) -> impl Strategy<Value = Vec<MessageSpec>> {
    vec((0..nodes, 0..nodes, 1..=max_flits), 0..=max_messages).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(s, d, f)| MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), f))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The cyclic comparator: wormhole deadlocks and recovers, the
    /// whole-packet admissions strand packets longer than a buffer.
    #[test]
    fn quiet_kernels_step_like_observed_ones_on_the_mixed_mesh(
        specs in workload_strategy(16, 48, 5),
        capacity in 1u32..=3,
        round_robin in 0u32..2,
        cut in 1u64..12,
    ) {
        let mesh = Mesh::new(4, 4, capacity);
        let routing = MixedXyYxRouting::new(&mesh);
        quiet_steps_like_observed_everywhere(&mesh, &routing, &specs, round_robin == 1, cut);
    }

    #[test]
    fn quiet_kernels_step_like_observed_ones_on_the_six_ring(
        specs in workload_strategy(6, 24, 4),
        capacity in 1u32..=3,
        round_robin in 0u32..2,
        cut in 1u64..12,
    ) {
        let ring = Ring::new(6, capacity);
        let routing = RingShortestRouting::new(&ring);
        quiet_steps_like_observed_everywhere(&ring, &routing, &specs, round_robin == 1, cut);
    }

    /// Most travels queue for one node: the futile wakes the quiet kernel
    /// skips are most of an observed kernel's.
    #[test]
    fn quiet_kernels_step_like_observed_ones_on_an_eight_by_eight_hotspot(
        seed in 0u64..1_000_000,
        messages in 64usize..=256,
        hotspot in 0usize..64,
        capacity in 1u32..=3,
        flits in 1usize..=4,
        round_robin in 0u32..2,
        cut in 1u64..24,
    ) {
        let mesh = Mesh::new(8, 8, capacity);
        let routing = XyRouting::new(&mesh);
        let specs = genoc::sim::workload::hotspot(64, messages, hotspot, 40, flits, seed);
        quiet_steps_like_observed_everywhere(&mesh, &routing, &specs, round_robin == 1, cut);
    }
}
