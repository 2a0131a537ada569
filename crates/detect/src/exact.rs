//! The exact online detector: an incrementally maintained wait-for graph.
//!
//! Each blocked travel has at most one out-edge, toward the owner of the
//! port its head wants: a functional graph, in which a deadlock is a cycle.
//! Two feeds, one per way of being driven:
//!
//! * [`observe`](ExactDetector::observe), for the full-rescan stepper,
//!   re-derives every in-flight travel's blocking event after each step
//!   (`O(Σ flits)` with early exit), diffs it against the stored edges and,
//!   when an edge was *added* (removals cannot create cycles), searches the
//!   configuration with [`find_wait_cycle`].
//! * [`apply_kernel_transitions`](ExactDetector::apply_kernel_transitions),
//!   for the two kernels, folds the step's status transitions into the
//!   stored edges and decides "did a cycle close this step?" by walking them
//!   from this step's parks, in `O(transitions + travels visited)` and
//!   allocating nothing. [`find_wait_cycle`] only extracts the witness of a
//!   cycle known to exist, so both feeds report the same cycle, in the same
//!   rotation, at the same step.
//!
//! **Stored or derived.** A stored `Some(edge)` is true at the end of the
//! step: it is written from [`block_event`] when the travel parks, cleared
//! by its `Active`/`Delivered` transition, and while the travel stays parked
//! the port it wants cannot change owner without being freed, which wakes
//! it. A `None` slot means *unknown*, not *unblocked*: a travel the kernel
//! still holds runnable (it moved and was free then, or was woken behind the
//! cursor) can be blocked by the end of the step, a travel served later
//! having claimed the port it wants. The walk derives that edge on arrival;
//! reading `None` as "no edge" would report such a cycle one step late.
//!
//! **This step's parks are starts enough.** Both kernels re-test a served
//! travel after its moves and park it in the same step. Take a cycle present
//! at the end of step `k` and absent at the end of `k − 1`. Some member's
//! edge is new: that member moved during `k`, or the port it wants changed
//! owner and its successor did. Of the members that moved, let `m` be the
//! one served last. Were `m` free after that service, it could be blocked
//! now only because its successor claimed the wanted port later still — a
//! member that moved, served after `m`. So `m` parked: its `Blocked`
//! transition is in the step's log and the walk from `m` goes round the
//! cycle. Debug builds check every verdict against the full search.
//!
//! **When the graph is void.** A recovery changes the configuration without
//! transitions, so the engine calls [`reset`](ExactDetector::reset) once it
//! finds the configuration repaired. While a reported cycle stands (no
//! policy, or the recovery budget spent) nothing is walked: a step that adds
//! an edge re-reports the standing cycle, as the full search always did.
//!
//! No false positives (the exact side of Verbeek–Schmaltz's verified
//! detection algorithm): a reported cycle is a set of travels each blocked on
//! the next, which under wormhole ownership can never dissolve (see
//! `genoc_core::blocking`) — a genuine, permanent deadlock, reported the
//! step it forms rather than when the whole network seizes.

use genoc_core::blocking::{block_event, find_wait_cycle, BlockEvent, WaitCycle};
use genoc_core::config::Config;
use genoc_core::kernel::{Transition, TravelStatus};
use genoc_core::{MsgId, PortId};

/// One wait-for edge: the blocked travel's wanted port and its owner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Edge {
    wants: PortId,
    on: MsgId,
}

/// The exact online deadlock detector.
///
/// Feed it the configuration after every switching step via
/// [`observe`](ExactDetector::observe), or the kernel's transitions via
/// [`apply_kernel_transitions`](ExactDetector::apply_kernel_transitions); it
/// returns a [`WaitCycle`] whenever the step completed a cycle in the
/// wait-for graph. It must start on a configuration without one (every
/// configuration built from specs is: pending travels own no port).
#[derive(Clone, Debug, Default)]
pub struct ExactDetector {
    /// Out-edge per message id index (`None` = not known to be blocked).
    edges: Vec<Option<Edge>>,
    /// Walk stamp per message id index, parallel to `edges`.
    stamps: Vec<u64>,
    /// The last stamp handed out: every walk takes a fresh one.
    stamp: u64,
    /// A reported cycle has not been repaired: every added edge re-reports it.
    standing: bool,
    /// Persistent id → travel-index map for the kernel-transition feed.
    /// Entries are validated against the configuration on every use (an
    /// id hit is proof of correctness, ids being unique among live
    /// travels), so the map survives across calls and is rebuilt only
    /// when a structural change — a travel removal shifting indices, or a
    /// recovery going through [`reset`](ExactDetector::reset) — actually
    /// falsified a lookup.
    index_map: Vec<usize>,
    /// How many times the index map was rebuilt (a removal/reset tax, not
    /// a per-call one; exposed for the overhead benchmarks).
    rebuilds: u64,
    /// How many times the kernel feed ran [`find_wait_cycle`].
    full_scans: u64,
}

impl ExactDetector {
    /// Creates a detector with an empty wait-for graph.
    pub fn new() -> Self {
        ExactDetector::default()
    }

    fn ensure(&mut self, id: MsgId) {
        if id.index() >= self.edges.len() {
            self.edges.resize(id.index() + 1, None);
            self.stamps.resize(id.index() + 1, 0);
        }
    }

    /// Folds the current blocking events of `cfg` into the wait-for graph
    /// and returns a cycle if one newly closed. Edges of travels that moved,
    /// arrived, or were removed are dropped; the cycle chase runs only when
    /// an edge was added.
    pub fn observe(&mut self, cfg: &Config) -> Option<WaitCycle> {
        let mut added = false;
        for i in 0..cfg.travels().len() {
            let id = cfg.travel(i).id();
            self.ensure(id);
            let new = edge_at(cfg, i);
            let slot = &mut self.edges[id.index()];
            if *slot != new {
                added |= new.is_some();
                *slot = new;
            }
        }
        if added {
            // The edges just refreshed mirror the configuration exactly, so
            // the chase over the live wait-for structure is authoritative —
            // stale entries of departed travels are unreachable from it.
            find_wait_cycle(cfg)
        } else {
            None
        }
    }

    /// Folds a kernel step's status [`Transition`]s — all of them, in order —
    /// into the wait-for graph and returns a cycle if one newly closed: the
    /// same cycles at the same steps as [`observe`](ExactDetector::observe),
    /// for `O(transitions + travels visited)` instead of a rescan of every
    /// travel. The module docs say why the walk from this step's parks is
    /// exact.
    pub fn apply_kernel_transitions(
        &mut self,
        cfg: &Config,
        transitions: &[Transition],
    ) -> Option<WaitCycle> {
        let mut rebuilt = false;
        let mut added = false;
        for tr in transitions {
            self.ensure(tr.msg);
            let new = match tr.status {
                TravelStatus::Blocked(_) => self.derive(cfg, tr.msg, &mut rebuilt),
                TravelStatus::Pending | TravelStatus::Active | TravelStatus::Delivered => None,
            };
            // Gated on the transition itself, not on the slot changing: a
            // travel woken and parked again re-derives the edge it had.
            added |= new.is_some();
            self.edges[tr.msg.index()] = new;
        }
        let closed = added && (self.standing || self.chase(cfg, transitions, &mut rebuilt));
        debug_assert_eq!(
            closed,
            (added || !self.standing) && find_wait_cycle(cfg).is_some(),
            "the walk from this step's parks and the full search disagree"
        );
        if !closed {
            return None;
        }
        self.full_scans += 1;
        let cycle = find_wait_cycle(cfg);
        self.standing = cycle.is_some();
        cycle
    }

    /// Walks the wait-for graph from each travel that parked this step. One
    /// stamped by the walk in progress closes a cycle; one stamped earlier
    /// in this call leads where that walk already went.
    fn chase(&mut self, cfg: &Config, transitions: &[Transition], rebuilt: &mut bool) -> bool {
        let before = self.stamp;
        for tr in transitions {
            if !matches!(tr.status, TravelStatus::Blocked(_)) {
                continue;
            }
            self.stamp += 1;
            let mut cur = tr.msg;
            loop {
                self.ensure(cur);
                let seen = std::mem::replace(&mut self.stamps[cur.index()], self.stamp);
                if seen == self.stamp {
                    return true;
                }
                if seen > before {
                    break;
                }
                // `None` is "unknown": ask the configuration.
                match self.edges[cur.index()].or_else(|| self.derive(cfg, cur, rebuilt)) {
                    Some(edge) => cur = edge.on,
                    None => break,
                }
            }
        }
        false
    }

    /// The wait-for edge of travel `id` as `cfg` has it now.
    fn derive(&mut self, cfg: &Config, id: MsgId, rebuilt: &mut bool) -> Option<Edge> {
        let mut index = self.lookup_valid(cfg, id);
        if index.is_none() && !*rebuilt {
            // A parked travel or a port's owner is live, so a miss means
            // the map went stale: rebuild once and retry.
            self.rebuild_index(cfg);
            *rebuilt = true;
            index = self.lookup_valid(cfg, id);
        }
        edge_at(cfg, index?)
    }

    /// A validated map lookup: a hit is authoritative (ids are unique
    /// among live travels), a miss means absent-or-stale.
    fn lookup_valid(&self, cfg: &Config, id: MsgId) -> Option<usize> {
        self.index_map
            .get(id.index())
            .copied()
            .filter(|&i| i != usize::MAX)
            .filter(|&i| cfg.travels().get(i).is_some_and(|t| t.id() == id))
    }

    /// Re-derives the id → travel-index map from the configuration.
    fn rebuild_index(&mut self, cfg: &Config) {
        let slots = cfg
            .travels()
            .iter()
            .map(|t| t.id().index())
            .max()
            .map_or(0, |m| m + 1);
        self.index_map.clear();
        self.index_map.resize(slots, usize::MAX);
        for (i, t) in cfg.travels().iter().enumerate() {
            self.index_map[t.id().index()] = i;
        }
        self.rebuilds += 1;
    }

    /// How many times the persistent index map had to be rebuilt so far —
    /// the cost a travel removal, reroute, or resync pays; steady-state
    /// steps pay none.
    pub fn index_rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// How many times the kernel feed ran [`find_wait_cycle`]: once per cycle
    /// it reported, never to learn that there is none.
    pub fn full_scans(&self) -> u64 {
        self.full_scans
    }

    /// Clears the graph, invalidates the index map and forgets a standing
    /// cycle: recovery repaired (or rebuilt) the configuration, without transitions.
    pub fn reset(&mut self) {
        self.edges.iter_mut().for_each(|e| *e = None);
        self.index_map.clear();
        self.standing = false;
    }

    /// Recovery gave up with a cycle still in the configuration.
    pub(crate) fn cycle_stands(&mut self) {
        self.standing = true;
    }
}

/// The wait-for edge of the travel at index `i`, if it is blocked on an owner.
fn edge_at(cfg: &Config, i: usize) -> Option<Edge> {
    let BlockEvent { wants, on, .. } = block_event(cfg, i)?;
    Some(Edge { wants, on: on? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
    use genoc_core::interpreter::Outcome;
    use genoc_core::network::{Direction, Network};
    use genoc_core::spec::MessageSpec;
    use genoc_core::step::blocked_port_with;
    use genoc_core::switching::SwitchingPolicy;
    use genoc_core::trace::Trace;
    use genoc_core::travel::{FlitPos, Travel};
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_routing::xy::XyRouting;
    use genoc_sim::workload::bit_complement;
    use genoc_switching::Switching;
    use genoc_topology::mesh::Mesh;

    /// Step the policy manually, observing after every step; returns the
    /// step of the first detection (if any) and the step Ω first held.
    fn drive(
        mesh: &Mesh,
        routing: &dyn genoc_core::routing::RoutingFunction,
        specs: &[MessageSpec],
    ) -> (Option<u64>, Option<u64>, Outcome) {
        let mut cfg = Config::from_specs(mesh, routing, specs).unwrap();
        let mut policy = Switching::default();
        let mut detector = ExactDetector::new();
        let mut trace = Trace::new(false);
        let mut detected = None;
        for step in 0..10_000u64 {
            if cfg.is_evacuated() {
                return (detected, None, Outcome::Evacuated);
            }
            if policy.is_deadlock(mesh, &cfg) {
                return (detected, Some(step), Outcome::Deadlock);
            }
            policy.step(mesh, &mut cfg, &mut trace).unwrap();
            cfg.drain_arrived();
            if detected.is_none() {
                if let Some(cycle) = detector.observe(&cfg) {
                    assert!(!cycle.msgs.is_empty());
                    detected = Some(step);
                }
            } else {
                detector.observe(&cfg);
            }
        }
        (detected, None, Outcome::StepLimit)
    }

    #[test]
    fn detects_the_corner_storm_no_later_than_omega() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let (detected, omega, outcome) = drive(&mesh, &routing, &specs);
        assert_eq!(outcome, Outcome::Deadlock);
        let detected = detected.expect("the storm's cycle must be detected");
        assert!(detected <= omega.unwrap(), "{detected} vs {omega:?}");
    }

    #[test]
    fn silent_on_deadlock_free_routing() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let (detected, _, outcome) = drive(&mesh, &routing, &specs);
        assert_eq!(outcome, Outcome::Evacuated);
        assert_eq!(detected, None, "XY never deadlocks");
    }

    #[test]
    fn kernel_feed_reuses_the_index_map_across_calls() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
        let mut rig = Rig::new(&mesh, cfg.travels().to_vec());
        let mut steps = 0u64;
        let mut cycle = None;
        while cycle.is_none() && !rig.kernel.is_deadlock(&rig.arena) {
            cycle = rig.step();
            steps += 1;
        }
        assert!(cycle.is_some(), "the storm's cycle must be detected");
        let detector = &mut rig.detector;
        let rebuilds = detector.index_rebuilds();
        assert!(rebuilds >= 1, "the first park must build the map");
        assert!(
            rebuilds < steps,
            "the map must persist across calls: {rebuilds} rebuilds in {steps} steps"
        );
        // A reset invalidates the map: the next park rebuilds exactly once.
        detector.reset();
        assert!(detector.index_map.is_empty());
    }

    // The walk's hard cases, each built by hand on the 2×2 capacity-1 mesh
    // and driven by the arena kernel, so the transitions are the ones a run
    // would produce. The eight link ports going round the mesh one way share
    // nothing with the eight going the other way.

    /// The link ports round the mesh from node (0,0): out-port, facing
    /// in-port, out-port, … — east first when `clockwise`, south first
    /// otherwise.
    fn ring(mesh: &Mesh, clockwise: bool) -> Vec<PortId> {
        use genoc_topology::mesh::Cardinal::{East, North, South, West};
        let hops = if clockwise {
            [(0, 0, East), (1, 0, South), (1, 1, West), (0, 1, North)]
        } else {
            [(0, 0, South), (0, 1, East), (1, 1, North), (1, 0, West)]
        };
        let mut ports = Vec::new();
        for (x, y, card) in hops {
            let out = mesh.port(x, y, card, Direction::Out).unwrap();
            ports.extend([out, mesh.next_in(out).unwrap()]);
        }
        ports
    }

    /// A worm whose route is a local in-port, the `hops` ring ports from
    /// offset `from`, and the local out-port there; flit `i` sits at route
    /// index `at[i]`, or in the source core if that is `SOURCE`.
    fn worm(
        mesh: &Mesh,
        ring: &[PortId],
        id: usize,
        from: usize,
        hops: usize,
        at: &[usize],
    ) -> Travel {
        let mut route: Vec<PortId> = (0..hops).map(|h| ring[(from + h) % 8]).collect();
        route.insert(0, mesh.local_in(mesh.attrs(route[0]).node));
        route.push(mesh.local_out(mesh.attrs(route[hops]).node));
        let mut t = Travel::from_route(mesh, MsgId::from_index(id), route, at.len()).unwrap();
        for (i, &k) in at.iter().enumerate() {
            if k != SOURCE {
                t.set_flit_pos(i, FlitPos::InNetwork(k));
            }
        }
        t
    }

    const SOURCE: usize = usize::MAX;

    /// A configuration under the arena kernel with a detector on its feed.
    /// The arena steps; `cfg` is kept current by
    /// [`ArenaConfig::write_back`] after every step.
    struct Rig {
        mesh: Mesh,
        cfg: Config,
        arena: ArenaConfig,
        kernel: ArenaKernel,
        detector: ExactDetector,
    }

    impl Rig {
        /// Seats `travels`, and feeds the detector the parks the kernel
        /// makes while classifying them (`blocked_port_with` names the port
        /// of each): no cycle may stand yet.
        fn new(mesh: &Mesh, travels: Vec<Travel>) -> Rig {
            let cfg = Config::from_travels(mesh, travels).unwrap();
            let spec = Switching::default().kernel_spec().unwrap();
            let arena = ArenaConfig::from_config(mesh, &cfg).unwrap();
            let mut kernel = ArenaKernel::new(&arena, ArenaSpec::from_kernel_spec(&spec).unwrap());
            kernel.set_observed(true);
            let parks: Vec<Transition> = (0..cfg.travels().len())
                .filter_map(|i| {
                    let p = blocked_port_with(&cfg, i, spec.admission)?;
                    Some(Transition {
                        msg: cfg.travel(i).id(),
                        status: TravelStatus::Blocked(p),
                    })
                })
                .collect();
            let mut detector = ExactDetector::new();
            assert_eq!(detector.apply_kernel_transitions(&cfg, &parks), None);
            assert_eq!(find_wait_cycle(&cfg), None);
            Rig {
                mesh: mesh.clone(),
                cfg,
                arena,
                kernel,
                detector,
            }
        }

        /// One kernel step, fed to the detector.
        fn step(&mut self) -> Option<WaitCycle> {
            let mut trace = Trace::new(false);
            self.kernel.step(&mut self.arena, &mut trace).unwrap();
            if self.kernel.take_saw_arrival() {
                self.kernel.drain_arrived(&mut self.arena);
            }
            self.arena.write_back(&mut self.cfg).unwrap();
            self.detector
                .apply_kernel_transitions(&self.cfg, self.kernel.transitions())
        }

        /// After an outside mutation of `cfg`: the arena brought up to it
        /// in place, the kernel reclassified, as the hooked runner does.
        fn resync(&mut self) {
            let (mesh, arena) = (&self.mesh, &mut self.arena);
            self.kernel.follow(mesh, arena, &self.cfg).unwrap();
        }

        fn last_status(&self, id: usize) -> Option<TravelStatus> {
            let of = |tr: &&Transition| tr.msg == MsgId::from_index(id);
            self.kernel.transitions().iter().rfind(of).map(|t| t.status)
        }
    }

    fn ids(msgs: &[MsgId]) -> Vec<usize> {
        msgs.iter().map(|m| m.index()).collect()
    }

    /// Two four-flit worms, X (1) and Y (2), each about to want a port the
    /// other holds: Y is blocked on X already, X has one more hop to make.
    /// E (0) waits at the source for the local port X's tail sits in; Z (3)
    /// waits behind X's body.
    fn duel() -> Rig {
        let mesh = Mesh::new(2, 2, 1);
        let cw = ring(&mesh, true);
        let travels = vec![
            worm(&mesh, &cw, 0, 0, 2, &[SOURCE]),
            worm(&mesh, &cw, 1, 0, 6, &[3, 2, 1, 0]),
            worm(&mesh, &cw, 2, 4, 6, &[4, 3, 2, 1]),
            worm(&mesh, &cw, 3, 2, 2, &[0]),
        ];
        Rig::new(&mesh, travels)
    }

    #[test]
    fn a_travel_that_moves_and_parks_in_one_step_closes_the_cycle() {
        let mut rig = duel();
        let found = rig.step();
        // X advanced one hop and was parked by the re-test after its moves.
        assert!(matches!(rig.last_status(1), Some(TravelStatus::Blocked(_))));
        assert_eq!(found, find_wait_cycle(&rig.cfg));
        assert_eq!(ids(&found.unwrap().msgs), [1, 2]);
        assert_eq!(rig.detector.full_scans(), 1);
    }

    #[test]
    fn a_standing_cycle_is_re_reported_by_every_step_that_adds_an_edge() {
        let mut rig = duel();
        let first = rig.step().expect("the duel deadlocks in one step");
        // X's tail left the local port, so E enters it now and parks behind
        // X: an added edge, off the cycle, with nothing repaired.
        let again = rig.step();
        assert!(matches!(rig.last_status(0), Some(TravelStatus::Blocked(_))));
        assert_eq!(again, find_wait_cycle(&rig.cfg));
        assert_eq!(again, Some(first));
        assert_eq!(rig.detector.full_scans(), 2);
        // No added edge, no report: the cycle is old news.
        assert!(rig.kernel.is_deadlock(&rig.arena));
        let woke = Transition {
            msg: MsgId::from_index(0),
            status: TravelStatus::Active,
        };
        assert_eq!(rig.detector.apply_kernel_transitions(&rig.cfg, &[]), None);
        assert_eq!(
            rig.detector.apply_kernel_transitions(&rig.cfg, &[woke]),
            None
        );
        assert_eq!(rig.detector.full_scans(), 2);
    }

    #[test]
    fn after_an_abort_no_walk_follows_an_edge_to_the_removed_travel() {
        let mut rig = duel();
        let cycle = rig.step().expect("the duel deadlocks in one step");
        // What the engine does on `AbortAndEvacuate`: remove the youngest
        // member, find the configuration repaired, void the stored graph.
        let victim = *cycle.msgs.iter().max().unwrap();
        rig.cfg.remove_travel(victim).unwrap();
        assert_eq!(find_wait_cycle(&rig.cfg), None);
        rig.detector.reset();
        rig.resync();
        // X runs on; a flit of it leaves the port Z wants and the next one
        // enters, so Z is woken and parks behind X again. The walk from Z
        // reaches X — whose edge toward the victim, and the victim's back,
        // must be gone (kept, they would close a cycle that is not there).
        let found = rig.step();
        assert!(matches!(rig.last_status(3), Some(TravelStatus::Blocked(_))));
        assert_eq!(found, None);
        assert_eq!(find_wait_cycle(&rig.cfg), None);
        assert_eq!(rig.detector.full_scans(), 1);
    }

    /// W (0) waits for the port the tail of the long worm L (2) sits in, S
    /// (1) waits for W, and C (3) waits at the local port for the same port
    /// as W. L is free to move, and once moved will want a port S holds.
    fn squeeze() -> Rig {
        let mesh = Mesh::new(2, 2, 1);
        let cw = ring(&mesh, true);
        let travels = vec![
            worm(&mesh, &cw, 0, 6, 4, &[2, 1]),
            worm(&mesh, &cw, 1, 4, 4, &[2]),
            worm(&mesh, &cw, 2, 0, 6, &[4, 3, 2, 1]),
            worm(&mesh, &cw, 3, 0, 2, &[0]),
        ];
        Rig::new(&mesh, travels)
    }

    #[test]
    fn a_chain_that_ends_in_an_unblocked_travel_is_no_cycle() {
        // `Rig::new` walked S → W → L and C → L: L can move, so no report.
        let rig = squeeze();
        let on = |id: usize| rig.detector.edges[id].map(|e| e.on.index());
        assert_eq!(
            [on(0), on(1), on(2), on(3)],
            [Some(2), Some(0), None, Some(2)]
        );
        assert_eq!(rig.detector.full_scans(), 0);
    }

    #[test]
    fn a_member_woken_behind_the_cursor_and_re_blocked_has_its_edge_derived() {
        let mut rig = squeeze();
        let found = rig.step();
        // L's tail freed the port: W and C were woken, W behind the cursor,
        // so its slot says nothing; C, ahead of it, took the port and parked
        // behind L, which had parked behind S. W now waits for C.
        assert_eq!(rig.last_status(0), Some(TravelStatus::Active));
        assert_eq!(rig.detector.edges[0], None);
        assert!(matches!(rig.last_status(2), Some(TravelStatus::Blocked(_))));
        assert!(matches!(rig.last_status(3), Some(TravelStatus::Blocked(_))));
        assert_eq!(found, find_wait_cycle(&rig.cfg));
        assert_eq!(ids(&found.unwrap().msgs), [0, 3, 2, 1]);
    }

    #[test]
    fn two_cycles_closing_in_one_step_report_the_full_scans_witness() {
        let mesh = Mesh::new(2, 2, 1);
        let (cw, acw) = (ring(&mesh, true), ring(&mesh, false));
        // Clockwise, 1 and 2 both move and park this step (and 2's body,
        // shifting through the port 1 wants, wakes 1 behind the cursor); the
        // other way round 0 is parked already and 3 closes on it.
        let travels = vec![
            worm(&mesh, &acw, 0, 2, 6, &[4, 3, 2, 1]),
            worm(&mesh, &cw, 1, 0, 6, &[3, 2, 1, 0]),
            worm(&mesh, &cw, 2, 4, 6, &[3, 2, 1, 0]),
            worm(&mesh, &acw, 3, 6, 6, &[3, 2, 1, 0]),
        ];
        let mut rig = Rig::new(&mesh, travels);
        let found = rig.step();
        assert_eq!(rig.last_status(1), Some(TravelStatus::Active));
        for id in 2..4 {
            assert!(matches!(
                rig.last_status(id),
                Some(TravelStatus::Blocked(_))
            ));
        }
        // The first walk closes on 2 → 1 → 2; the witness is the cycle the
        // full scan meets first, in its rotation.
        assert_eq!(found, find_wait_cycle(&rig.cfg));
        assert_eq!(ids(&found.unwrap().msgs), [0, 3]);
        assert_eq!(rig.detector.full_scans(), 1);
    }

    #[test]
    fn reset_clears_the_graph() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = MixedXyYxRouting::new(&mesh);
        let specs = bit_complement(&mesh, 4);
        let mut cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
        let mut policy = Switching::default();
        let mut detector = ExactDetector::new();
        let mut trace = Trace::new(false);
        let mut cycle = None;
        for _ in 0..10_000 {
            if policy.is_deadlock(&mesh, &cfg) {
                break;
            }
            policy.step(&mesh, &mut cfg, &mut trace).unwrap();
            cfg.drain_arrived();
            if let Some(c) = detector.observe(&cfg) {
                cycle = Some(c);
                break;
            }
        }
        assert!(cycle.is_some());
        detector.reset();
        assert!(detector.edges.iter().all(Option::is_none));
    }
}
