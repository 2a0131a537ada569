//! Struct-of-arrays arena storage for configurations, and an arena-native
//! kernel stepper for million-flit workloads.
//!
//! The paper states everything over configurations `σ = ⟨T, ST, A⟩`; the
//! [`Config`] representation mirrors that statement directly (a `Vec` of
//! [`Travel`]s, each owning its route and flit vectors), which is ideal for
//! the proofs but hostile to caches at scale: stepping a 64×64 mesh with a
//! million flits chases a pointer per travel and per route.
//!
//! [`ArenaConfig`] flattens the same state into dense parallel columns keyed
//! by `u32` *slot* ids:
//!
//! * `route_pool` / `flit_pool` hold every route port and encoded flit
//!   position contiguously; per-slot `(off, len)` pairs index into them;
//! * encoded flit positions are a single `u32` (`0` = pending, `k + 1` =
//!   in-network at route index `k`, `u32::MAX` = delivered), so a worm's
//!   occupancy is one cache-line-friendly integer scan;
//! * each port is one 16-byte record indexed by [`PortId`] — capacity,
//!   occupancy, owner, and the step stamp of its last entry — so that a
//!   flit's advance reads one cache line per port it tests, and the stamps
//!   and their epoch travel with the arena, not the kernel;
//! * `flight` and `arrived` are membership lists mirroring the order of
//!   `Config::travels()` and `Config::arrived()`, so a materialised
//!   round-trip reproduces the exact `Config` (including iteration order);
//! * freed slots go on a free list and are recycled by later injections,
//!   while the *public* [`MsgId`] of each travel is stable for the whole
//!   run — detectors, WALs, and campaign reports keep using public ids and
//!   never observe slot recycling.
//!
//! Because `Clone` on a struct of `Vec`s is a fixed number of `memcpy`s
//! (one per column) regardless of travel count, an arena snapshot is the
//! cheap `Config` clone that campaign shards were missing.
//!
//! [`ArenaKernel`] is the incremental stepper over this layout. The
//! reference step loop ([`step_all`](crate::step::step_all), driven by
//! [`interpreter::run`](crate::interpreter::run)) re-examines every flit of
//! every in-flight travel on every step, so a run costs
//! `O(steps × travels × flits)` even when most worms are delivered or
//! permanently blocked. The kernel replaces the full rescan with a run queue
//! built on three observations:
//!
//! 1. **Delivered travels never move again** — they are drained from the
//!    loop for good (the reference loop already does this).
//! 2. **A fully blocked travel is gated by exactly one port**: its head's
//!    next hop (see [`blocked_port_with`](crate::step::blocked_port_with)).
//!    Body flits only wait on ports the worm itself owns, which drain
//!    exclusively through the worm's own moves, and a head at the
//!    destination port can always eject.
//! 3. **Only a release opens a foreign head's gate**: the gate is the next
//!    hop of the travel's head, which its own worm never owns, and a head
//!    enters no port another worm owns, under every [`SwitchingKind`]
//!    (`Ports::can_enter`). A worm owns a port from its head's entry to its
//!    tail's leave, the paper's wormhole discipline, so the tail leaving is
//!    the only event that can open the gate; flits entering a port only
//!    reduce its availability. The releases a step makes are therefore a
//!    *complete* wake condition.
//!
//! Each travel therefore carries a [`TravelStatus`]; blocked travels are
//! parked on the wake-list of the port they wait for (intrusive,
//! `u32`-linked — zero allocation) and skipped until a tail releases that
//! port.
//!
//! A kernel is *quiet* by default: it wakes a port's waiters only when the
//! port is released, and it keeps none of the logs below. An *observed*
//! kernel ([`ArenaKernel::set_observed`]) logs every move, status
//! [`Transition`] and freed port, and wakes a port's waiters on every flit
//! that leaves it, release or not. The extra wakes move nothing — each such
//! travel parks again at its serve — but they are in the transition stream
//! that detectors, the event WAL and `tests/arena_props.rs` pin, so the
//! observed kernel keeps them until that stream is pinned anew.
//!
//! A corollary of 2: while a travel is parked, none of its flits moves and
//! none of the ports its body waits on changes, so **a parked travel can
//! move exactly when its head may pass its gate** — one port test plus the
//! head's admission. The kernel keeps the gate of each park, and the first
//! serve after a wake tests it alone. A woken gate may be shut again by the
//! time that serve comes: another head took the released port first, or,
//! in an observed kernel, a body flit left a port its worm still owns and
//! the worm's next flit filled it in the same sub-step. Such a travel parks
//! again in O(1), with the same `Blocked(p)` transition and wake-list push,
//! and its worm is not walked at all. A serve that does walk the worm walks
//! it once: the pass that moves the flits also judges, flit by flit, whether
//! the travel can still move afterwards, which is the question its park
//! depends on.
//!
//! Wake-ups are processed *immediately* after the sub-step that freed
//! the port, which is what makes the schedule move-for-move identical to the
//! reference sweep: a travel whose gate opens mid-step is examined this step
//! exactly when its turn in the arbitration order is still to come —
//! precisely the situations in which the full sweep would have moved it.
//!
//! Because the performed moves are the reference's moves in the reference's
//! order, the greedy-order semantics, the one-entry/one-ejection-per-port
//! bandwidth rule, and therefore proof obligations (C-1)…(C-5) and Theorems
//! 1–2 transfer unchanged: `tests/arena_equivalence.rs` checks traces,
//! latencies, and final configurations against the reference interpreter on
//! every smoke cell, and `tests/arena_props.rs` checks every park against
//! `blocked_port_with`. The status transitions double as the wait-for events
//! online deadlock detection consumes: a `Blocked(p)` transition *is* a
//! wait-for edge toward the owner of `p` (see `genoc-detect`).
//!
//! The only piece of a switching policy the reference sweep consults
//! dynamically is the head-admission predicate, which closes over `Config`.
//! The arena stepper instead interprets the closed-world
//! [`SwitchingKind`] the predicate names; policies whose predicate has no such
//! description (`HeadAdmission::kind()` returns `None`) simply cannot run
//! on the arena, and callers fall back to the reference interpreter.

use crate::config::Config;
use crate::error::{Error, Result};
use crate::ids::{MsgId, NodeId, PortId};
use crate::kernel::{Transition, TravelStatus};
use crate::meta::SwitchingKind;
use crate::moves::MoveKind;
use crate::network::Network;
use crate::routing::{extend_route, RoutingFunction};
use crate::spec::MessageSpec;
use crate::switching::{KernelSpec, StepReport};
use crate::trace::{Trace, Zone};
use crate::travel::{check_spec, FlitPos, Travel};

/// Sentinel for "no slot" / "empty list" in dense `u32` columns.
const NONE: u32 = u32::MAX;
/// Encoded flit position: still queued in the source IP core.
const FLIT_PENDING: u32 = 0;
/// Encoded flit position: delivered to the destination IP core.
const FLIT_DELIVERED: u32 = u32::MAX;

#[inline]
fn encode(pos: FlitPos) -> u32 {
    match pos {
        FlitPos::Pending => FLIT_PENDING,
        FlitPos::InNetwork(k) => k as u32 + 1,
        FlitPos::Delivered => FLIT_DELIVERED,
    }
}

#[inline]
fn decode(v: u32) -> FlitPos {
    match v {
        FLIT_PENDING => FlitPos::Pending,
        FLIT_DELIVERED => FlitPos::Delivered,
        p => FlitPos::InNetwork((p - 1) as usize),
    }
}

/// The arena-native description of a kernel-capable switching policy:
/// [`KernelSpec`] with the admission predicate replaced by the closed-world
/// [`SwitchingKind`] it names.
#[derive(Clone, Copy, Debug)]
pub struct ArenaSpec {
    /// The service order of the policy's step sweep.
    pub arbitration: crate::switching::Arbitration,
    /// The switching policy whose head-admission rule the kernel applies.
    pub admission: SwitchingKind,
    /// The step count the policy has already performed.
    pub first_step: u64,
}

impl ArenaSpec {
    /// Derives an arena spec from a [`KernelSpec`], or `None` when the
    /// policy's admission predicate has no closed-world description.
    pub fn from_kernel_spec(spec: &KernelSpec) -> Option<Self> {
        spec.admission.kind().map(|admission| ArenaSpec {
            arbitration: spec.arbitration,
            admission,
            first_step: spec.first_step,
        })
    }
}

/// A configuration `σ = ⟨T, ST, A⟩` stored as struct-of-arrays columns.
///
/// Semantically equivalent to [`Config`] — [`ArenaConfig::from_config`] and
/// [`ArenaConfig::to_config`] round-trip exactly, including travel
/// iteration order —
/// but with every travel flattened into dense `u32`-indexed columns and
/// all routes/flits pooled into two contiguous arrays.
///
/// # Id lifecycle
///
/// Each resident travel occupies a *slot* (`u32`). Slots of removed
/// travels go on a free list and are recycled by later injections; the
/// public [`MsgId`] is never recycled and `slot_of` maps it back to the
/// current slot. Pool ranges of removed travels are orphaned for the rest
/// of the run, and a recycled slot takes a fresh range: the pools never
/// hold more than what the arena was built from plus every route and flit
/// vector pushed or rerouted into it since (removal is a rare recovery
/// action; `tests/arena_alloc.rs` holds a drain-and-restart run to that
/// bound).
///
/// # Snapshot semantics
///
/// `Clone` copies each column with one `memcpy` — a fixed number of
/// allocations regardless of how many travels are resident. This is the
/// cheap snapshot used by campaign shards in place of deep-cloning a
/// `Config`.
#[derive(Clone, Debug, Default)]
pub struct ArenaConfig {
    /// Public message id of each slot (stale for freed slots).
    public: Vec<MsgId>,
    route_off: Vec<u32>,
    route_len: Vec<u32>,
    flit_off: Vec<u32>,
    flit_len: Vec<u32>,
    /// Number of delivered flits of each slot; delivered flits always form
    /// a prefix of the flit range (flits eject in order), so the stepper
    /// skips them wholesale.
    delivered: Vec<u32>,
    route_pool: Vec<PortId>,
    flit_pool: Vec<u32>,
    ports: Ports,
    /// In-flight slots, mirroring the order of `Config::travels()`.
    flight: Vec<u32>,
    /// Arrived slots, mirroring the order of `Config::arrived()`.
    arrived: Vec<u32>,
    /// Recyclable slots.
    free: Vec<u32>,
    /// `MsgId::index() → slot` (or `NONE`), the stable public-id mapping.
    slot_of: Vec<u32>,
}

/// One port's entry in `ST`: its capacity, occupancy and owner, beside the
/// stamp of the last step a flit entered it. A candidate advance tests the
/// stamp and then the buffer and owner of the same port, so they share a
/// record, four to a cache line.
#[repr(C, align(16))]
#[derive(Clone, Copy, Debug, Default)]
struct PortRec {
    cap: u32,
    occ: u32,
    /// Owning slot, or `NONE`. Always released before a slot is freed, so
    /// recycled slot ids never alias stale ownership.
    owner: u32,
    /// [`Ports::epoch`] of the last step a flit entered the port: one entry
    /// per port per step.
    entered: u32,
}

/// The port state `ST`, one [`PortRec`] per [`PortId`], and the step
/// bandwidth stamps. A field of its own, so that a sub-step can hold its
/// worm's route and flits as slices of the pools while it moves them
/// through ports.
///
/// The stamps and the epoch they are compared with live here, not in the
/// kernel: a kernel built over an arena another kernel stepped, or over a
/// clone of one, advances the epoch past every stamp the arena holds.
#[derive(Clone, Debug, Default)]
struct Ports {
    rec: Vec<PortRec>,
    /// Per port, the epoch of the last step a flit ejected from it. Cold:
    /// ejections are a small share of the moves.
    ejected: Vec<u32>,
    /// The step stamp: advanced by every kernel step, never `0` during one.
    epoch: u32,
}

impl Ports {
    #[inline]
    fn free(&self, p: PortId) -> u32 {
        let r = &self.rec[p.index()];
        r.cap - r.occ
    }

    /// Whether a flit of `slot` may enter `p`: a free buffer, and `p` owned
    /// by `slot` — or by no one, when the flit is a head.
    #[inline]
    fn can_enter(&self, p: PortId, slot: u32, is_head: bool) -> bool {
        let r = &self.rec[p.index()];
        if r.occ >= r.cap {
            return false;
        }
        if r.owner == NONE {
            is_head
        } else {
            r.owner == slot
        }
    }

    /// [`can_enter`](Self::can_enter), and the entry when it holds: one
    /// check-and-enter.
    #[inline]
    fn try_enter(&mut self, p: PortId, slot: u32, is_head: bool) -> bool {
        if !self.can_enter(p, slot, is_head) {
            return false;
        }
        let r = &mut self.rec[p.index()];
        r.owner = slot;
        r.occ += 1;
        true
    }

    /// A flit of `slot` leaves `p`; the tail releases it. `public` names
    /// the travel in the error.
    #[inline]
    fn leave(&mut self, p: PortId, slot: u32, is_tail: bool, public: &[MsgId]) -> Result<()> {
        let r = &mut self.rec[p.index()];
        if r.occ == 0 {
            return Err(Error::Invariant(format!("flit leaves empty port {p}")));
        }
        if r.owner != slot {
            return Err(Error::Invariant(format!(
                "travel {} leaves port {p} it does not own",
                public[slot as usize]
            )));
        }
        r.occ -= 1;
        if is_tail {
            r.owner = NONE;
        }
        Ok(())
    }

    /// Whether no flit has entered `p` this step.
    #[inline]
    fn may_enter(&self, p: PortId) -> bool {
        self.rec[p.index()].entered != self.epoch
    }

    /// Whether no flit has ejected from `p` this step.
    #[inline]
    fn may_eject(&self, p: PortId) -> bool {
        self.ejected[p.index()] != self.epoch
    }

    /// Starts a step's bandwidth: every port may take one entry and one
    /// ejection again. When the epoch wraps, every stamp is cleared and the
    /// count restarts at 1, so no stamp from an earlier lap equals it.
    #[inline]
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.rec.iter_mut().for_each(|r| r.entered = 0);
            self.ejected.fill(0);
            self.epoch = 1;
        }
    }
}

/// The error for a column that would leave `u32` index space.
fn pool_overflow() -> Error {
    Error::Invariant("arena pools exceed u32 index space".to_string())
}

impl ArenaConfig {
    // ------------------------------------------------------------------
    // Construction and materialisation
    // ------------------------------------------------------------------

    /// Imports a [`Config`] into arena form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the configuration cannot be
    /// represented (duplicate ids, routes whose endpoints disagree with the
    /// travel's source/destination nodes, or pools exceeding `u32` index
    /// space).
    pub fn from_config(net: &dyn Network, cfg: &Config) -> Result<Self> {
        let mut a = Self::default();
        a.route_pool.reserve(
            cfg.travels()
                .iter()
                .chain(cfg.arrived())
                .map(|t| t.route().len())
                .sum(),
        );
        a.flit_pool.reserve(
            cfg.travels()
                .iter()
                .chain(cfg.arrived())
                .map(Travel::flit_count)
                .sum(),
        );
        for t in cfg.travels() {
            let s = a.alloc_slot(net, t)?;
            a.flight.push(s);
        }
        for t in cfg.arrived() {
            let s = a.alloc_slot(net, t)?;
            a.arrived.push(s);
        }
        for (i, ps) in cfg.state().ports().enumerate() {
            let owner = match ps.owner() {
                None => NONE,
                Some(m) => a.slot_of(m).ok_or_else(|| {
                    Error::Invariant(format!(
                        "port {} owned by travel {m} which is not resident",
                        PortId::from_index(i)
                    ))
                })?,
            };
            a.ports.rec.push(PortRec {
                cap: ps.capacity(),
                occ: ps.occupied(),
                owner,
                entered: 0,
            });
        }
        a.ports.ejected = vec![0; a.ports.rec.len()];
        Ok(a)
    }

    /// Materialises the arena back into a [`Config`].
    ///
    /// The result is *exactly* the `Config` this arena evolved from: same
    /// travel order in `T` and `A`, same flit positions, same port state
    /// (rebuilt by `Config::from_travels`, which revalidates everything).
    ///
    /// # Errors
    ///
    /// Propagates validation failures, which indicate an arena bug.
    pub fn to_config(&self, net: &dyn Network) -> Result<Config> {
        let mut travels = Vec::with_capacity(self.flight.len() + self.arrived.len());
        for &s in self.flight.iter().chain(self.arrived.iter()) {
            travels.push(self.materialize(net, s)?);
        }
        Config::from_travels(net, travels)
    }

    /// Writes the arena's state into `cfg`, the configuration it was
    /// imported from (or one equal to it): afterwards `cfg` is what
    /// [`to_config`](Self::to_config) would build, without building it. Flit
    /// positions, `ST` and the `T`/`A` split are re-seated with every
    /// dynamic check `Config::from_travels` applies; the static half — each
    /// route visits no port twice and ends at its travel's nodes — is
    /// carried over from the validation `cfg` went through when it was
    /// built, by comparing each slot's route with the travel's own.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] or [`Error::CapacityExceeded`] when the arena
    /// does not hold exactly `cfg`'s travels on their routes, or its flit
    /// positions are no legal state (an arena bug); `cfg` is inconsistent
    /// then.
    pub fn write_back(&self, cfg: &mut Config) -> Result<()> {
        cfg.reseat_in_order(self.flight.iter().chain(&self.arrived).map(|&sv| {
            let s = sv as usize;
            (self.public[s], self.route(s), self.flits(s))
        }))
    }

    /// Rebuilds the slot's [`Travel`] from the columns.
    fn materialize(&self, net: &dyn Network, slot: u32) -> Result<Travel> {
        let s = slot as usize;
        let (route, flits) = (self.route(s).to_vec(), self.flit_len[s] as usize);
        let mut t = Travel::mid_flight(net, self.public[s], route, flits)?;
        for (f, pos) in self.flits(s).enumerate() {
            t.set_flit_pos(f, pos);
        }
        Ok(t)
    }

    /// Writes a travel's columns into a (recycled or fresh) slot and
    /// registers its public id. Does **not** touch port state or
    /// membership lists.
    fn alloc_slot(&mut self, net: &dyn Network, t: &Travel) -> Result<u32> {
        let at = self.route_pool.len();
        self.route_pool.extend_from_slice(t.route());
        let nodes = (t.source_node(), t.dest_node());
        self.write_slot(net, t.id(), nodes, at, t.flit_positions())
    }

    /// The one slot writer: the travel `id` from `nodes.0` to `nodes.1`,
    /// whose route is the route pool from `route_at` on (the caller has
    /// just appended it) and whose flits are at `flits`, goes into a
    /// (recycled or fresh) slot under its public id. Does **not** touch port
    /// state or membership lists.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] if `id` is resident already, if the route's
    /// endpoints are not at `nodes`, or if a column would leave `u32` index
    /// space; the route is taken off the pool again then.
    fn write_slot(
        &mut self,
        net: &dyn Network,
        id: MsgId,
        nodes: (NodeId, NodeId),
        route_at: usize,
        flits: impl ExactSizeIterator<Item = FlitPos>,
    ) -> Result<u32> {
        let (ro, rl, fo, fl) = match self.check_slot(net, id, nodes, route_at, flits.len()) {
            Ok(placed) => placed,
            Err(e) => {
                self.route_pool.truncate(route_at);
                return Err(e);
            }
        };
        let mut dp = 0u32;
        let mut in_prefix = true;
        for pos in flits {
            let v = encode(pos);
            if in_prefix && v == FLIT_DELIVERED {
                dp += 1;
            } else {
                in_prefix = false;
            }
            self.flit_pool.push(v);
        }
        let slot = match self.free.pop() {
            Some(sv) => {
                let s = sv as usize;
                self.public[s] = id;
                self.route_off[s] = ro;
                self.route_len[s] = rl;
                self.flit_off[s] = fo;
                self.flit_len[s] = fl;
                self.delivered[s] = dp;
                sv
            }
            None => {
                let sv = u32::try_from(self.public.len())
                    .ok()
                    .filter(|&sv| sv != NONE)
                    .ok_or_else(pool_overflow)?;
                self.public.push(id);
                self.route_off.push(ro);
                self.route_len.push(rl);
                self.flit_off.push(fo);
                self.flit_len.push(fl);
                self.delivered.push(dp);
                sv
            }
        };
        let idx = id.index();
        if self.slot_of.len() <= idx {
            self.slot_of.resize(idx + 1, NONE);
        }
        self.slot_of[idx] = slot;
        Ok(slot)
    }

    /// [`write_slot`](Self::write_slot)'s checks: returns the route's and
    /// the flits' `(offset, length)` in their pools.
    fn check_slot(
        &self,
        net: &dyn Network,
        id: MsgId,
        (source, dest): (NodeId, NodeId),
        route_at: usize,
        flits: usize,
    ) -> Result<(u32, u32, u32, u32)> {
        if self.slot_of(id).is_some() {
            return Err(Error::Invariant(format!(
                "travel {id} already present in configuration"
            )));
        }
        let route = &self.route_pool[route_at..];
        let (Some(&first), Some(&last)) = (route.first(), route.last()) else {
            return Err(Error::Invariant(format!("travel {id} has an empty route")));
        };
        if net.attrs(first).node != source || net.attrs(last).node != dest {
            return Err(Error::Invariant(format!(
                "travel {id}: route endpoints do not determine its source/destination nodes"
            )));
        }
        let rl = u32::try_from(route.len())
            .ok()
            .filter(|&n| n < FLIT_DELIVERED)
            .ok_or_else(pool_overflow)?;
        let fl = u32::try_from(flits).map_err(|_| pool_overflow())?;
        let ro = u32::try_from(route_at).map_err(|_| pool_overflow())?;
        ro.checked_add(rl).ok_or_else(pool_overflow)?;
        let fo = u32::try_from(self.flit_pool.len()).map_err(|_| pool_overflow())?;
        fo.checked_add(fl).ok_or_else(pool_overflow)?;
        Ok((ro, rl, fo, fl))
    }

    /// Refills the arena with the initial configuration of `specs` — what
    /// `from_config(net, &Config::from_specs(net, routing, specs)?)` builds,
    /// in the same slots — in place: each route is computed straight into
    /// the route pool and every column keeps its capacity, so a warm arena
    /// loads a workload no larger than the ones before it with one
    /// allocation, the route computation's hop buffer. Each message is
    /// checked as [`Travel::from_spec`] checks it and its slot written by the
    /// writer [`from_config`](Self::from_config) uses.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] for a message [`Travel::from_spec`] rejects,
    /// route-computation errors, and [`Error::Invariant`] for a workload
    /// whose columns would leave `u32` index space. The arena holds part of
    /// the workload then.
    pub fn load_specs(
        &mut self,
        net: &dyn Network,
        routing: &dyn RoutingFunction,
        specs: &[MessageSpec],
    ) -> Result<()> {
        self.clear();
        self.ports.rec.extend(net.ports().map(|p| PortRec {
            cap: net.attrs(p).capacity,
            occ: 0,
            owner: NONE,
            entered: 0,
        }));
        self.ports.ejected.resize(self.ports.rec.len(), 0);
        let mut hops = Vec::with_capacity(4);
        for (i, spec) in specs.iter().enumerate() {
            let id = MsgId::from_index(i);
            check_spec(net, id, spec)?;
            let (source, dest) = (net.local_in(spec.source), net.local_out(spec.dest));
            let at = self.route_pool.len();
            extend_route(net, routing, source, dest, &mut self.route_pool, &mut hops)?;
            let flits = std::iter::repeat_n(FlitPos::Pending, spec.flits);
            let slot = self.write_slot(net, id, (spec.source, spec.dest), at, flits)?;
            self.flight.push(slot);
        }
        Ok(())
    }

    /// Empties every column, keeping its capacity: the arena
    /// `ArenaConfig::default()` builds, with warm buffers.
    fn clear(&mut self) {
        let ArenaConfig {
            public,
            route_off,
            route_len,
            flit_off,
            flit_len,
            delivered,
            route_pool,
            flit_pool,
            ports:
                Ports {
                    rec,
                    ejected,
                    epoch,
                },
            flight,
            arrived,
            free,
            slot_of,
        } = self;
        for column in [
            route_off, route_len, flit_off, flit_len, delivered, flit_pool, ejected, flight,
            arrived, free, slot_of,
        ] {
            column.clear();
        }
        public.clear();
        route_pool.clear();
        rec.clear();
        *epoch = 0;
    }

    // ------------------------------------------------------------------
    // Injection, removal, reroute
    // ------------------------------------------------------------------

    /// Appends a travel to `T`, registering any in-network flits and owned
    /// ports. The arena analogue of `Config::push_travel`; returns the slot
    /// the travel occupies.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the travel violates the worm-shape
    /// invariant, is already present, or conflicts with resident packets.
    pub fn push_travel(&mut self, net: &dyn Network, travel: &Travel) -> Result<u32> {
        travel.check_invariants()?;
        let slot = self.alloc_slot(net, travel)?;
        for pos in travel.flit_positions() {
            if let FlitPos::InNetwork(k) = pos {
                self.port_enter(travel.route()[k], slot)?;
            }
        }
        if let Some((lo, hi)) = travel.owned_route_range() {
            for k in lo..=hi {
                self.port_claim(travel.route()[k], slot)?;
            }
        }
        self.flight.push(slot);
        Ok(slot)
    }

    /// Removes an in-flight travel, returning its buffers and owned ports
    /// to the network and its slot to the free list. The arena analogue of
    /// `Config::remove_travel` (abort-based recovery).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTravel`] if `id` is not in flight.
    pub fn remove_travel(&mut self, net: &dyn Network, id: MsgId) -> Result<Travel> {
        let Some(slot) = self.slot_of(id) else {
            return Err(Error::UnknownTravel(id));
        };
        let Some(at) = self.flight.iter().position(|&sv| sv == slot) else {
            return Err(Error::UnknownTravel(id)); // arrived travels are not removable
        };
        self.remove_at(net, at)
    }

    /// [`remove_travel`](Self::remove_travel) of the travel at flight
    /// position `at`.
    fn remove_at(&mut self, net: &dyn Network, at: usize) -> Result<Travel> {
        let slot = self.flight[at];
        let travel = self.materialize(net, slot)?;
        self.flight.remove(at);
        for pos in travel.flit_positions() {
            if let FlitPos::InNetwork(k) = pos {
                self.port_leave(travel.route()[k], slot, false)?;
            }
        }
        if let Some((lo, hi)) = travel.owned_route_range() {
            for k in lo..=hi {
                self.port_release(travel.route()[k], slot)?;
            }
        }
        self.slot_of[travel.id().index()] = NONE;
        self.delivered[slot as usize] = 0;
        self.free.push(slot);
        Ok(travel)
    }

    /// Replaces the not-yet-claimed route suffix of an in-flight travel
    /// (escape-channel recovery). The arena analogue of
    /// `Config::reroute_travel`; all of [`Travel::reroute`]'s validation
    /// applies.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTravel`] if `id` is not in flight, and
    /// propagates [`Travel::reroute`] rejections.
    pub fn reroute_travel(
        &mut self,
        net: &dyn Network,
        id: MsgId,
        new_route: Vec<PortId>,
    ) -> Result<()> {
        let Some(slot) = self.slot_of(id) else {
            return Err(Error::UnknownTravel(id));
        };
        if !self.flight.contains(&slot) {
            return Err(Error::UnknownTravel(id));
        }
        self.reroute_slot(net, slot, new_route)
    }

    /// [`reroute_travel`](Self::reroute_travel) of the in-flight travel in
    /// `slot`.
    fn reroute_slot(&mut self, net: &dyn Network, slot: u32, new_route: Vec<PortId>) -> Result<()> {
        let mut t = self.materialize(net, slot)?;
        t.reroute(net, new_route)?;
        let s = slot as usize;
        let rl = u32::try_from(t.route().len())
            .ok()
            .filter(|&n| n < FLIT_DELIVERED)
            .ok_or_else(pool_overflow)?;
        if rl <= self.route_len[s] {
            // The new route fits in place; the stale tail is orphaned.
            let ro = self.route_off[s] as usize;
            self.route_pool[ro..ro + rl as usize].copy_from_slice(t.route());
        } else {
            let ro = u32::try_from(self.route_pool.len()).map_err(|_| pool_overflow())?;
            ro.checked_add(rl).ok_or_else(pool_overflow)?;
            self.route_pool.extend_from_slice(t.route());
            self.route_off[s] = ro;
        }
        self.route_len[s] = rl;
        Ok(())
    }

    /// Brings the arena up to `shadow`, a configuration that was equal to it
    /// until a recovery hook changed `T` through
    /// `Config::{push_travel, remove_travel, reroute_travel}` — the only
    /// ways a hook has of changing one. Those leave `T` as the survivors in
    /// their old order followed by the pushes, so one ordered pass of
    /// `shadow.travels()` against the flight list names every change: a
    /// flight member that is not the shadow's travel at its position (by
    /// public id, then by flit positions) was removed, a survivor whose route
    /// column differs was rerouted, and what the shadow holds past the last
    /// survivor was pushed. Each is applied in place by the method of the
    /// same name, with all of its validation. A travel that only changed
    /// place in `T` is taken for removed and comes back as a push, so the
    /// flight list ends in `shadow.travels()` order whatever was done to `T`.
    ///
    /// Returns the change of [`progress_measure`](Self::progress_measure),
    /// summed over the travels touched from the arena's own columns, never
    /// from `shadow`: a (C-5) ledger adjusted by it and then compared with
    /// the shadow's measure still tells an arena that had drifted from its
    /// shadow before the hook ran.
    ///
    /// # Errors
    ///
    /// Propagates the three methods' rejections; the arena then holds part
    /// of the change.
    pub fn follow(&mut self, net: &dyn Network, shadow: &Config) -> Result<i64> {
        let travels = shadow.travels();
        let mut delta = 0i64;
        let mut at = 0;
        while let Some(&slot) = self.flight.get(at) {
            let s = slot as usize;
            match travels.get(at) {
                Some(t) if self.public[s] == t.id() && self.flits(s).eq(t.flit_positions()) => {
                    if self.route(s) != t.route() {
                        let before = self.slot_potential(s);
                        self.reroute_slot(net, slot, t.route().to_vec())?;
                        delta = delta.wrapping_add_unsigned(self.slot_potential(s));
                        delta = delta.wrapping_sub_unsigned(before);
                    }
                    at += 1;
                }
                _ => {
                    let gone = self.remove_at(net, at)?;
                    delta = delta.wrapping_sub_unsigned(gone.progress_potential());
                }
            }
        }
        for t in &travels[at..] {
            let slot = self.push_travel(net, t)?;
            delta = delta.wrapping_add_unsigned(self.slot_potential(slot as usize));
        }
        // The rebuild this replaced, as the oracle. Equality covers the
        // order of `T`, which move replay relies on: it addresses the
        // shadow's travels by flight position.
        debug_assert_eq!(self.to_config(net)?, *shadow, "in place ≡ rebuilt");
        Ok(delta)
    }

    // ------------------------------------------------------------------
    // Port records (mirror `NetworkState` exactly)
    // ------------------------------------------------------------------

    /// The injection path's entry: [`Ports::try_enter`] with the refusal
    /// typed.
    fn port_enter(&mut self, p: PortId, slot: u32) -> Result<()> {
        if self.ports.try_enter(p, slot, true) {
            return Ok(());
        }
        let r = self.ports.rec[p.index()];
        if r.occ >= r.cap {
            return Err(Error::CapacityExceeded {
                port: p,
                capacity: r.cap,
            });
        }
        Err(Error::Invariant(format!(
            "port {p} owned by travel {} cannot admit travel {}",
            self.public[r.owner as usize], self.public[slot as usize]
        )))
    }

    fn port_leave(&mut self, p: PortId, slot: u32, is_tail: bool) -> Result<()> {
        self.ports.leave(p, slot, is_tail, &self.public)
    }

    fn port_claim(&mut self, p: PortId, slot: u32) -> Result<()> {
        let r = &mut self.ports.rec[p.index()];
        let o = r.owner;
        if o == NONE {
            r.owner = slot;
        } else if o != slot {
            return Err(Error::Invariant(format!(
                "port {p} owned by travel {} cannot be claimed by travel {}",
                self.public[o as usize], self.public[slot as usize]
            )));
        }
        Ok(())
    }

    fn port_release(&mut self, p: PortId, slot: u32) -> Result<()> {
        let r = &mut self.ports.rec[p.index()];
        if r.owner == slot && r.occ == 0 {
            r.owner = NONE;
            Ok(())
        } else {
            Err(Error::Invariant(format!(
                "travel {} releases port {p} it does not exclusively own",
                self.public[slot as usize]
            )))
        }
    }

    // ------------------------------------------------------------------
    // Predicates, measures, accessors
    // ------------------------------------------------------------------

    #[inline]
    fn slot_is_arrived(&self, s: usize) -> bool {
        self.delivered[s] == self.flit_len[s]
    }

    #[inline]
    fn slot_occupies_network(&self, s: usize) -> bool {
        self.delivered[s] < self.flit_len[s]
            && self.flit_pool[(self.flit_off[s] + self.delivered[s]) as usize] != FLIT_PENDING
    }

    /// Whether `T` is empty (the evacuation terminal predicate).
    pub fn is_evacuated(&self) -> bool {
        self.flight.is_empty()
    }

    /// The route column of slot `s`.
    fn route(&self, s: usize) -> &[PortId] {
        let ro = self.route_off[s] as usize;
        &self.route_pool[ro..ro + self.route_len[s] as usize]
    }

    /// The encoded flit positions of slot `s`, head first.
    fn flit_codes(&self, s: usize) -> &[u32] {
        let fo = self.flit_off[s] as usize;
        &self.flit_pool[fo..fo + self.flit_len[s] as usize]
    }

    /// The port the head of slot `s` enters next: its entry port while it
    /// is pending, none once it has reached its destination port.
    fn next_hop(&self, s: usize) -> Option<PortId> {
        let route = self.route(s);
        match self.flit_codes(s)[0] {
            FLIT_PENDING => Some(route[0]),
            FLIT_DELIVERED => None,
            p => route.get(p as usize).copied(),
        }
    }

    /// The flit positions of slot `s`, head first.
    fn flits(&self, s: usize) -> impl ExactSizeIterator<Item = FlitPos> + '_ {
        self.flit_codes(s).iter().map(|&v| decode(v))
    }

    /// [`Travel::progress_potential`] of slot `s`, from the columns.
    fn slot_potential(&self, s: usize) -> u64 {
        let len = self.route_len[s] as u64;
        (self.flit_codes(s).iter())
            .filter(|&&p| p != FLIT_DELIVERED)
            .map(|&p| len + 1 - p as u64)
            .sum()
    }

    /// The strictly-decreasing progress measure of the paper's Theorem 2:
    /// every flit move decreases this by exactly one.
    pub fn progress_measure(&self) -> u64 {
        (self.flight.iter())
            .map(|&sv| self.slot_potential(sv as usize))
            .sum()
    }

    /// Sum over `T` of the header's remaining route length.
    pub fn route_length_measure(&self) -> u64 {
        let mut sum = 0u64;
        for &sv in &self.flight {
            let s = sv as usize;
            let len = self.route_len[s] as u64;
            sum += match self.flit_pool[self.flit_off[s] as usize] {
                FLIT_PENDING => len - 1,
                FLIT_DELIVERED => 0,
                p => len - p as u64,
            };
        }
        sum
    }

    /// Total delivered flits across in-flight and arrived travels.
    pub fn delivered_flits(&self) -> u64 {
        self.flight
            .iter()
            .chain(self.arrived.iter())
            .map(|&sv| self.delivered[sv as usize] as u64)
            .sum()
    }

    /// The slot currently backing public id `id`, if resident.
    pub fn slot_of(&self, id: MsgId) -> Option<u32> {
        match self.slot_of.get(id.index()) {
            Some(&s) if s != NONE => Some(s),
            _ => None,
        }
    }

    /// The public id of a slot. Stale for freed slots.
    pub fn public_id(&self, slot: u32) -> MsgId {
        self.public[slot as usize]
    }

    /// Number of allocated slots (live + free).
    pub fn slot_count(&self) -> usize {
        self.public.len()
    }

    /// Number of recyclable slots on the free list.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of in-flight travels (`|T|`).
    pub fn flight_count(&self) -> usize {
        self.flight.len()
    }

    /// Number of arrived travels (`|A|`).
    pub fn arrived_count(&self) -> usize {
        self.arrived.len()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.rec.len()
    }

    /// Length of the shared route pool (orphaned ranges included).
    pub fn route_pool_len(&self) -> usize {
        self.route_pool.len()
    }

    /// Length of the shared flit pool (orphaned ranges included).
    pub fn flit_pool_len(&self) -> usize {
        self.flit_pool.len()
    }
}

/// One recorded move: which in-flight travel (by its index in the flight
/// list, which mirrors `Config::travels()` order), which flit, what kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MoveRec {
    /// *Position*: index into the flight list at the time of the move
    /// (neither a slot nor a kernel rank).
    pub travel: u32,
    /// Flit index within the message (0 is the header).
    pub flit: u32,
    /// What the flit did.
    pub kind: MoveKind,
}

/// The incremental stepper over [`ArenaConfig`] (the module documentation
/// has the argument): move-for-move identical to the reference sweep, with
/// all per-step state arena-backed — intrusive wake lists and reusable logs
/// here, the epoch-stamped bandwidth marks in the arena's port records.
/// After warm-up a step performs no heap allocation. Quiet unless
/// [`set_observed`](Self::set_observed): quiet and observed kernels make the
/// same moves in the same order.
///
/// Three index spaces meet here. A *slot* addresses the [`ArenaConfig`]
/// columns. A *position* is an index into `arena.flight` right now. A
/// *rank* is a travel's position as of the last [`resync`](Self::resync):
/// between resyncs `T` only shrinks, so ranks never shift, and rank order
/// is flight order. The schedule is rank-indexed — a step visits the set
/// bits of `run` in the words `busy` marks, not every member of `T` nor
/// every word of `run`.
#[derive(Debug)]
pub struct ArenaKernel {
    spec: ArenaSpec,
    step_count: u64,
    /// Rank → slot: `arena.flight` as of the last resync.
    order: Vec<u32>,
    /// Per-rank status lattice (`Pending → Active ⇄ Blocked(p)`).
    status: Vec<TravelStatus>,
    /// Per rank: the port its last park waited on. A wake leaves it in
    /// place; the rank's next serve consumes it.
    gate: Vec<Option<PortId>>,
    /// Bitset over ranks: neither parked nor complete — the run queue.
    /// Only [`set_run`](Self::set_run) and [`clear_run`](Self::clear_run)
    /// write it, so that `busy` follows.
    run: Vec<u64>,
    /// Bitset over the words of `run`: bit `w` is set iff `run[w] != 0`.
    /// A step and [`is_deadlock`](Self::is_deadlock) visit these words only.
    busy: Vec<u64>,
    /// Bitset over ranks: still a member of `arena.flight`. The position of
    /// a rank in word `w` is `below[w]` plus the `live` bits below it in
    /// that word.
    live: Vec<u64>,
    /// Per word of `live`: the `live` ranks in the words before it. Built by
    /// `resync`, lowered by `drain_arrived`; a step leaves it alone.
    below: Vec<u32>,
    /// Intrusive wake list: next rank in the same port's list, or `NONE`.
    wake_next: Vec<u32>,
    /// Head (a rank) of each port's wake list, or `NONE`. Push-front/
    /// pop-front: a LIFO per port.
    wake_head: Vec<u32>,
    /// `(position, rank)` of every complete travel still in `arena.flight`.
    done: Vec<(u32, u32)>,
    /// Ports the current travel's sub-step woke: every port a flit left
    /// when observed, the ports its tail released when quiet.
    freed: Vec<PortId>,
    /// All ports freed during the current step, in order (observed only).
    freed_log: Vec<PortId>,
    /// Status transitions of the current step, in public ids (observed
    /// only).
    transitions: Vec<Transition>,
    /// Flit moves of the current step (observed only).
    moves: Vec<MoveRec>,
    /// Whether the three logs are kept and every leave wakes.
    observed: bool,
    /// Arrivals drained after the current step, in flight order.
    newly: Vec<MsgId>,
    saw_arrival: bool,
}

impl ArenaKernel {
    /// Builds a quiet kernel for `arena` and synchronises with its state.
    pub fn new(arena: &ArenaConfig, spec: ArenaSpec) -> Self {
        let mut k = ArenaKernel {
            spec,
            step_count: 0,
            order: Vec::new(),
            status: Vec::new(),
            gate: Vec::new(),
            run: Vec::new(),
            busy: Vec::new(),
            live: Vec::new(),
            below: Vec::new(),
            wake_next: Vec::new(),
            wake_head: Vec::new(),
            done: Vec::new(),
            freed: Vec::new(),
            freed_log: Vec::new(),
            transitions: Vec::new(),
            moves: Vec::new(),
            observed: false,
            newly: Vec::new(),
            saw_arrival: false,
        };
        k.restart(arena, spec);
        k
    }

    /// Starts the kernel over on `arena` under `spec`: the quiet kernel
    /// [`new`](Self::new) builds, in this one's buffers, so a kernel that
    /// runs one workload after another allocates only for a workload larger
    /// than every one before it. `spec.first_step` is where the arbitration
    /// order resumes.
    pub fn restart(&mut self, arena: &ArenaConfig, spec: ArenaSpec) {
        self.spec = spec;
        self.step_count = spec.first_step;
        self.observed = false;
        self.resync(arena);
    }

    /// Status transitions of the last step, in occurrence order, keyed by
    /// stable public ids (detector and WAL consumers never see slots).
    /// Empty unless the kernel is [observed](Self::set_observed).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Ports freed during the last step, in order. Empty unless the kernel
    /// is [observed](Self::set_observed).
    pub fn freed_ports(&self) -> &[PortId] {
        &self.freed_log
    }

    /// Flit moves of the last step. Empty unless the kernel is
    /// [observed](Self::set_observed).
    pub fn moves(&self) -> &[MoveRec] {
        &self.moves
    }

    /// Makes the kernel observed or quiet (the default). An observed kernel
    /// logs each step's moves (which listened runs replay onto a shadow
    /// `Config`), status transitions and freed ports, and wakes a port's
    /// waiters whenever a flit leaves it. A quiet kernel keeps no log and
    /// wakes them only when a tail releases the port, the one leave that can
    /// open a waiting head's gate: both make the same moves.
    pub fn set_observed(&mut self, on: bool) {
        self.observed = on;
    }

    /// Replays the last step's logged moves onto `shadow`, a configuration
    /// whose `T` was in flight-list order when the step began, through the
    /// validated `Config` movement methods — each rejects what the reference
    /// semantics would not do and lowers the shadow's progress measure by
    /// exactly one. Returns how many moves were replayed.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] for the first move `shadow` does not admit.
    pub fn replay_moves(&self, shadow: &mut Config) -> Result<usize> {
        for mv in &self.moves {
            shadow.move_flit(mv.travel as usize, mv.flit as usize, mv.kind)?;
        }
        Ok(self.moves.len())
    }

    /// Arrivals drained after the last step, in flight order.
    pub fn newly_arrived(&self) -> &[MsgId] {
        &self.newly
    }

    /// Whether the last step completed a travel; clears the flag.
    pub fn take_saw_arrival(&mut self) -> bool {
        std::mem::take(&mut self.saw_arrival)
    }

    /// Rebuilds all incremental state from the arena (required after any
    /// external mutation: injection, removal, reroute).
    pub fn resync(&mut self, arena: &ArenaConfig) {
        let n = arena.flight.len();
        let ports = arena.port_count();
        self.order.clear();
        self.order.extend_from_slice(&arena.flight);
        self.status.clear();
        self.status.resize(n, TravelStatus::Pending);
        self.gate.clear();
        self.gate.resize(n, None);
        let words = n.div_ceil(64);
        self.run.clear();
        self.run.resize(words, 0);
        self.busy.clear();
        self.busy.resize(words.div_ceil(64), 0);
        self.live.clear();
        self.live.resize(words, 0);
        self.below.clear();
        self.below.extend((0..words).map(|w| (w * 64) as u32));
        self.wake_next.clear();
        self.wake_next.resize(n, NONE);
        self.wake_head.clear();
        self.wake_head.resize(ports, NONE);
        self.transitions.clear();
        self.freed.clear();
        self.freed_log.clear();
        self.moves.clear();
        self.newly.clear();
        // Sized here so that neither a step nor a drain ever grows it.
        self.done.clear();
        self.done.reserve(n);
        self.saw_arrival = false;
        for rank in 0..n {
            let s = self.order[rank] as usize;
            self.live[rank / 64] |= 1 << (rank % 64);
            let status = if let Some(p) = self.blocked_port(arena, s) {
                self.gate[rank] = Some(p);
                self.wake_next[rank] = self.wake_head[p.index()];
                self.wake_head[p.index()] = rank as u32;
                TravelStatus::Blocked(p)
            } else if arena.slot_occupies_network(s) || arena.delivered[s] > 0 {
                TravelStatus::Active
            } else {
                TravelStatus::Pending
            };
            self.status[rank] = status;
            if arena.slot_is_arrived(s) {
                // Already complete in `T`: the next drain moves it to `A`.
                self.saw_arrival = true;
                self.done.push((rank as u32, rank as u32));
            } else if !matches!(status, TravelStatus::Blocked(_)) {
                self.set_run(rank);
            }
        }
        debug_assert!(self.summaries_hold(), "resync left busy or below stale");
    }

    /// Puts `rank` on the run queue.
    #[inline]
    fn set_run(&mut self, rank: usize) {
        let w = rank / 64;
        self.run[w] |= 1 << (rank % 64);
        self.busy[w / 64] |= 1 << (w % 64);
    }

    /// Takes `rank` off the run queue.
    #[inline]
    fn clear_run(&mut self, rank: usize) {
        let w = rank / 64;
        self.run[w] &= !(1 << (rank % 64));
        if self.run[w] == 0 {
            self.busy[w / 64] &= !(1 << (w % 64));
        }
    }

    /// Whether `busy` marks exactly the non-zero words of `run`, and each
    /// `below[w]` counts the `live` bits of the words before `w`.
    fn summaries_hold(&self) -> bool {
        let mut below = 0;
        (self.run.iter().zip(&self.live).zip(&self.below).enumerate()).all(
            |(w, ((&run, &live), &b))| {
                let marked = self.busy[w / 64] & (1 << (w % 64)) != 0;
                let held = marked == (run != 0) && b == below;
                below += live.count_ones();
                held
            },
        ) && self.busy.len() == self.run.len().div_ceil(64)
    }

    /// [`ArenaConfig::follow`] for an arena under this kernel: `arena`
    /// takes the changes a hook made to `shadow` in place, then every travel
    /// is reclassified ([`resync`](Self::resync)) — without a [`Transition`],
    /// wake lists in rank order, as after a rebuild of the arena from
    /// `shadow`. Returns `follow`'s change of the progress measure.
    ///
    /// # Errors
    ///
    /// As [`ArenaConfig::follow`]; the kernel is out of step with the arena
    /// then.
    pub fn follow(
        &mut self,
        net: &dyn Network,
        arena: &mut ArenaConfig,
        shadow: &Config,
    ) -> Result<i64> {
        let delta = arena.follow(net, shadow)?;
        self.resync(arena);
        Ok(delta)
    }

    // ------------------------------------------------------------------
    // Admission over columns (the closed-world predicates)
    // ------------------------------------------------------------------

    /// Whether the policy admits the head of the worm whose flits are
    /// `flits` into `to`: its next hop, or its entry port while it is
    /// pending.
    #[inline]
    fn admit_head(&self, ports: &Ports, to: PortId, flits: &[u32]) -> bool {
        match self.spec.admission {
            SwitchingKind::Wormhole => true,
            SwitchingKind::VirtualCutThrough => ports.free(to) as usize >= flits.len(),
            // Every flit with the head — at entry they all are, pending.
            SwitchingKind::StoreForward => {
                ports.free(to) as usize >= flits.len() && flits.iter().all(|&p| p == flits[0])
            }
        }
    }
}

impl ArenaKernel {
    /// One greedy sub-step of the travel in slot `s` at flight position
    /// `at`, move-for-move identical to `step_travel_with` on the
    /// materialised `Config`.
    ///
    /// Two layout-enabled prunings, both semantics-preserving:
    /// the delivered prefix is skipped wholesale (delivered flits fail
    /// every movement predicate), and the scan ends at the first pending
    /// flit (all later flits are pending behind it, and a pending flit
    /// with a pending predecessor cannot enter).
    ///
    /// The route and flit ranges are taken as slices once, beside the port
    /// records, and a flit passes a port's check and enters it in one call.
    /// The step-bandwidth test (`Ports::may_enter`) and the entry stamp read
    /// and write the same record, on the line that call loads.
    /// In-network codes compare like route indices, and a delivered flit's
    /// code exceeds every one of them, so "the flit ahead has moved past
    /// this one" is a single comparison of codes.
    ///
    /// Also returns whether the travel can move in the state the pass
    /// leaves ([`travel_can_move`](Self::travel_can_move) of it), judged in
    /// the same pass: a flit's movability depends on the flit ahead, its
    /// next port and the delivered prefix, and once the pass is past the
    /// flit, the flits behind it change none of them.
    fn step_travel(
        &mut self,
        arena: &mut ArenaConfig,
        s: usize,
        at: u32,
        trace: &mut Trace,
    ) -> Result<(StepReport, bool)> {
        let ArenaConfig {
            public,
            route_off,
            route_len,
            flit_off,
            flit_len,
            delivered,
            route_pool,
            flit_pool,
            ports,
            ..
        } = arena;
        let ro = route_off[s] as usize;
        let route = &route_pool[ro..ro + route_len[s] as usize];
        let fo = flit_off[s] as usize;
        let flits = &mut flit_pool[fo..fo + flit_len[s] as usize];
        let (sv, id, tail) = (s as u32, public[s], flits.len() - 1);
        let mut rep = StepReport::default();
        let mut movable = false;
        for f in delivered[s] as usize..flits.len() {
            let pos = flits[f];
            if pos == FLIT_PENDING {
                let entry = route[0];
                let entered = (f == 0 || flits[f - 1] != FLIT_PENDING)
                    && ports.may_enter(entry)
                    && (f != 0 || self.admit_head(ports, entry, flits))
                    && ports.try_enter(entry, sv, f == 0);
                if entered {
                    flits[f] = 1;
                    ports.rec[entry.index()].entered = ports.epoch;
                    trace.record(id, f, Zone::Source, Zone::Port(entry));
                    self.log_move(at, f, MoveKind::Enter);
                    rep.entries += 1;
                }
                // Nothing behind this flit moves: judge it, and the flit
                // behind it if that one is now first in the queue.
                let done = delivered[s] as usize;
                movable = movable
                    || self.flit_can_move(ports, route, flits, f, done, sv)
                    || (entered
                        && f < tail
                        && self.flit_can_move(ports, route, flits, f + 1, done, sv));
                break;
            }
            debug_assert_ne!(pos, FLIT_DELIVERED, "delivered prefix was skipped");
            let here = route[pos as usize - 1];
            match route.get(pos as usize) {
                // At the destination port: ejection is the only move left,
                // admissible once every flit ahead has been delivered
                // (i.e. this flit heads the undelivered suffix).
                None => {
                    if f == delivered[s] as usize && ports.may_eject(here) {
                        ports.leave(here, sv, f == tail, public)?;
                        flits[f] = FLIT_DELIVERED;
                        delivered[s] += 1;
                        ports.ejected[here.index()] = ports.epoch;
                        self.note_leave(here, f == tail);
                        trace.record(id, f, Zone::Port(here), Zone::Delivered);
                        self.log_move(at, f, MoveKind::Eject);
                        rep.ejections += 1;
                    }
                }
                Some(&to) => {
                    if (f == 0 || flits[f - 1] > pos)
                        && ports.may_enter(to)
                        && (f != 0 || self.admit_head(ports, to, flits))
                        && ports.try_enter(to, sv, f == 0)
                    {
                        ports.leave(here, sv, f == tail, public)?;
                        flits[f] = pos + 1;
                        ports.rec[to.index()].entered = ports.epoch;
                        self.note_leave(here, f == tail);
                        trace.record(id, f, Zone::Port(here), Zone::Port(to));
                        self.log_move(at, f, MoveKind::Advance);
                        rep.advances += 1;
                    }
                }
            }
            // The head is judged after the pass: store-and-forward admission
            // reads the flits behind it.
            movable = movable
                || (f > 0 && self.flit_can_move(ports, route, flits, f, delivered[s] as usize, sv));
        }
        movable = movable || self.flit_can_move(ports, route, flits, 0, delivered[s] as usize, sv);
        Ok((rep, movable))
    }

    /// A flit left `here`, releasing it when it was the tail: a wake for
    /// the port's waiters if that can open their gate, or if the kernel is
    /// observed.
    #[inline]
    fn note_leave(&mut self, here: PortId, released: bool) {
        if released || self.observed {
            self.freed.push(here);
        }
    }

    #[inline]
    fn log_move(&mut self, at: u32, flit: usize, kind: MoveKind) {
        if self.observed {
            self.moves.push(MoveRec {
                travel: at,
                flit: flit as u32,
                kind,
            });
        }
    }

    /// Whether flit `f` of the worm of slot `sv` (`route`, `flits`, `done`
    /// flits delivered) could move right now, admission included and
    /// bandwidth aside: one flit's term of `travel_can_move_with`.
    #[inline]
    fn flit_can_move(
        &self,
        ports: &Ports,
        route: &[PortId],
        flits: &[u32],
        f: usize,
        done: usize,
        sv: u32,
    ) -> bool {
        let pos = flits[f];
        let to = match pos {
            FLIT_DELIVERED => return false,
            FLIT_PENDING if f > 0 && flits[f - 1] == FLIT_PENDING => return false,
            FLIT_PENDING => route[0],
            _ => match route.get(pos as usize) {
                // At the destination port: it ejects once it heads the
                // undelivered suffix.
                None => return f == done,
                Some(_) if f > 0 && flits[f - 1] <= pos => return false,
                Some(&to) => to,
            },
        };
        ports.can_enter(to, sv, f == 0) && (f > 0 || self.admit_head(ports, to, flits))
    }

    /// Whether any flit of slot `s` could move right now, admission
    /// included — the arena mirror of `travel_can_move_with`. The scan ends
    /// at the first pending flit: the flits behind it cannot enter.
    fn travel_can_move(&self, arena: &ArenaConfig, s: usize) -> bool {
        let (sv, route, flits) = (s as u32, arena.route(s), arena.flit_codes(s));
        let done = arena.delivered[s] as usize;
        for f in done..flits.len() {
            if self.flit_can_move(&arena.ports, route, flits, f, done, sv) {
                return true;
            }
            if flits[f] == FLIT_PENDING {
                return false;
            }
        }
        false
    }

    /// Whether the travel of slot `s`, parked on `gate` and not served
    /// since, can move now. Its body waits on ports the worm owns, which
    /// only its own moves drain, so the head's test at `gate` decides
    /// (observation 2). Debug builds hold it to the full scan.
    fn gate_open(&self, arena: &ArenaConfig, s: usize, gate: PortId) -> bool {
        let open = arena.ports.can_enter(gate, s as u32, true)
            && self.admit_head(&arena.ports, gate, arena.flit_codes(s));
        debug_assert_eq!(
            open,
            self.travel_can_move(arena, s),
            "a parked travel can move exactly when its gate is open"
        );
        open
    }

    /// The port the head flit is waiting for, or `None` when the travel
    /// can move (or its head is delivered). Mirrors `blocked_port_with`.
    fn blocked_port(&self, arena: &ArenaConfig, s: usize) -> Option<PortId> {
        if self.travel_can_move(arena, s) {
            return None;
        }
        arena.next_hop(s)
    }

    /// The paper's deadlock predicate `Ω(σ)` over the run queue: `T` is
    /// non-empty and no runnable travel can move. A travel woken but not yet
    /// served is judged by its gate.
    pub fn is_deadlock(&self, arena: &ArenaConfig) -> bool {
        if arena.is_evacuated() {
            return false;
        }
        let mut next = self.next_busy(0, self.run.len());
        while let Some(w) = next {
            let mut bits = self.run[w];
            while bits != 0 {
                let rank = w * 64 + bits.trailing_zeros() as usize;
                let s = self.order[rank] as usize;
                let movable = match self.gate[rank] {
                    Some(gate) => self.gate_open(arena, s, gate),
                    None => self.travel_can_move(arena, s),
                };
                if movable {
                    return false;
                }
                bits &= bits - 1;
            }
            next = self.next_busy(w + 1, self.run.len());
        }
        true
    }

    /// The first word of `run` at or after `from` and before `end` that
    /// `busy` marks.
    #[inline]
    fn next_busy(&self, from: usize, end: usize) -> Option<usize> {
        let mut i = from / 64;
        let mut bits = *self.busy.get(i)? & (!0u64 << (from % 64));
        while bits == 0 {
            i += 1;
            if i * 64 >= end {
                return None;
            }
            bits = self.busy[i];
        }
        let w = i * 64 + bits.trailing_zeros() as usize;
        (w < end).then_some(w)
    }

    fn park(&mut self, arena: &ArenaConfig, rank: usize, p: PortId) {
        self.status[rank] = TravelStatus::Blocked(p);
        self.gate[rank] = Some(p);
        self.clear_run(rank);
        self.wake_next[rank] = self.wake_head[p.index()];
        self.wake_head[p.index()] = rank as u32;
        self.log_transition(arena, self.order[rank], TravelStatus::Blocked(p));
    }

    #[inline]
    fn log_transition(&mut self, arena: &ArenaConfig, slot: u32, status: TravelStatus) {
        if self.observed {
            self.transitions.push(Transition {
                msg: arena.public[slot as usize],
                status,
            });
        }
    }

    /// Whether no travel off the run queue can move: the invariant that
    /// makes skipping them sound, held by a quiet kernel's release-only
    /// wakes as by an observed kernel's eager ones.
    fn parked_stay_put(&self, arena: &ArenaConfig) -> bool {
        (self.live.iter().zip(&self.run).enumerate()).all(|(w, (&live, &run))| {
            let mut off = live & !run;
            while off != 0 {
                let rank = w * 64 + off.trailing_zeros() as usize;
                if self.travel_can_move(arena, self.order[rank] as usize) {
                    return false;
                }
                off &= off - 1;
            }
            true
        })
    }

    /// One switching step over the run queue: the moves of one reference
    /// sweep in the spec's arbitration order, plus the step's freed-port and
    /// status-transition logs. It opens with a new epoch in the arena's
    /// port records, so every port may take one entry and one ejection.
    ///
    /// # Errors
    ///
    /// Propagates port bookkeeping violations (which indicate a bug).
    pub fn step(&mut self, arena: &mut ArenaConfig, trace: &mut Trace) -> Result<StepReport> {
        self.transitions.clear();
        self.freed_log.clear();
        self.moves.clear();
        self.newly.clear();
        arena.ports.next_epoch();
        let n = arena.flight.len();
        let start = self.spec.arbitration.start(n, self.step_count);
        self.step_count += 1;
        let mut total = StepReport::default();
        // Service starts at the rank holding flight position `start` and
        // wraps: the dense `(start..n).chain(0..start)` order.
        let first = self.select(start);
        self.sweep(arena, trace, first..self.order.len(), &mut total)?;
        self.sweep(arena, trace, 0..first, &mut total)?;
        debug_assert!(
            self.observed || self.parked_stay_put(arena),
            "a quiet step left a travel that can move off the run queue"
        );
        debug_assert!(self.summaries_hold(), "a step left busy or below stale");
        Ok(total)
    }

    /// The rank at flight position `at` (the `at`-th set bit of `live`), or
    /// the end of the ranks when `T` has no such position: the last word
    /// with fewer than `at + 1` live ranks before it holds it.
    fn select(&self, at: usize) -> usize {
        let w = self.below.partition_point(|&b| b as usize <= at);
        let Some(w) = w.checked_sub(1) else {
            return self.order.len();
        };
        let mut bits = self.live[w];
        for _ in self.below[w] as usize..at {
            bits &= bits.wrapping_sub(1);
        }
        match bits {
            0 => self.order.len(),
            _ => w * 64 + bits.trailing_zeros() as usize,
        }
    }

    /// Serves the set bits of `run` with a rank in `ranks`, ascending, in
    /// the words `busy` marks. The word is read again after every serve,
    /// and `busy` after every word, so a travel woken ahead of the cursor
    /// is served in this sweep and one woken behind it waits for the next
    /// step, as in a sweep that tests every member of `T`. A step leaves
    /// `live` and `below` alone, so a served rank's flight position is
    /// `below` of its word plus one popcount.
    fn sweep(
        &mut self,
        arena: &mut ArenaConfig,
        trace: &mut Trace,
        ranks: std::ops::Range<usize>,
        total: &mut StepReport,
    ) -> Result<()> {
        let end = ranks.end.div_ceil(64);
        let mut next = self.next_busy(ranks.start / 64, end);
        while let Some(w) = next {
            // The bits of word `w` that are inside `ranks` and not yet passed.
            let mut ahead = !0u64;
            if w == ranks.start / 64 {
                ahead <<= ranks.start % 64;
            }
            if w == ranks.end / 64 {
                ahead &= !(!0u64 << (ranks.end % 64));
            }
            while self.run[w] & ahead != 0 {
                let bit = (self.run[w] & ahead).trailing_zeros();
                ahead &= !1u64 << bit; // bit 63 leaves nothing: no shift by 64
                let at = self.below[w] + (self.live[w] & !(!0u64 << bit)).count_ones();
                self.serve(arena, trace, w * 64 + bit as usize, at, total)?;
            }
            next = self.next_busy(w + 1, end);
        }
        Ok(())
    }

    /// The sub-step of the travel of rank `rank` at flight position `at`,
    /// with its wakes, its park, or its entry in the `done` log. `live` is
    /// left alone: later positions in this sweep count the uncompacted `T`.
    fn serve(
        &mut self,
        arena: &mut ArenaConfig,
        trace: &mut Trace,
        rank: usize,
        at: u32,
        total: &mut StepReport,
    ) -> Result<()> {
        let s = self.order[rank] as usize;
        debug_assert_eq!(arena.flight[at as usize], self.order[rank]);
        if let Some(gate) = self.gate[rank].take() {
            if !self.gate_open(arena, s, gate) {
                // Woken, but the gate is shut again — taken before this turn
                // came, or, observed, still owned by the worm a body flit
                // left it from: nothing can move, so the travel parks where
                // it was, with the transition and wake-list push the full
                // serve makes.
                self.park(arena, rank, gate);
                return Ok(());
            }
        }
        let before = self.status[rank];
        let (rep, movable) = self.step_travel(arena, s, at, trace)?;
        debug_assert_eq!(
            movable,
            self.travel_can_move(arena, s),
            "the pass judges movability as the full scan does"
        );
        if rep.moves() > 0 {
            total.entries += rep.entries;
            total.advances += rep.advances;
            total.ejections += rep.ejections;
            if before == TravelStatus::Pending {
                self.status[rank] = TravelStatus::Active;
                self.log_transition(arena, s as u32, TravelStatus::Active);
            }
            // Mid-step wakes: every travel blocked on a port this sub-step
            // woke becomes runnable before the sweep moves on.
            for fi in 0..self.freed.len() {
                let p = self.freed[fi];
                if self.observed {
                    self.freed_log.push(p);
                }
                let pi = p.index();
                loop {
                    let w = self.wake_head[pi];
                    if w == NONE {
                        break;
                    }
                    let wr = w as usize;
                    self.wake_head[pi] = self.wake_next[wr];
                    self.wake_next[wr] = NONE;
                    self.status[wr] = TravelStatus::Active;
                    self.set_run(wr);
                    self.log_transition(arena, self.order[wr], TravelStatus::Active);
                }
            }
            self.freed.clear();
            if rep.ejections > 0 && arena.slot_is_arrived(s) {
                self.saw_arrival = true;
                self.clear_run(rank);
                self.done.push((at, rank as u32));
                return Ok(());
            }
        }
        if movable {
            return Ok(());
        }
        // Park at once, also when the moves left the travel blocked (the
        // worm just compacted against an owned port, say): it cannot move
        // again before a wake, and the transition reaches detectors the same
        // step the blocking event forms.
        if let Some(p) = arena.next_hop(s) {
            self.park(arena, rank, p);
        }
        Ok(())
    }

    /// Moves every fully-delivered travel from `T` to `A` (order
    /// preserving), records their `Delivered` transitions, and returns how
    /// many arrived. The arrivals themselves are in
    /// [`newly_arrived`](Self::newly_arrived).
    pub fn drain_arrived(&mut self, arena: &mut ArenaConfig) -> usize {
        self.done.sort_unstable();
        for (i, &(at, rank)) in self.done.iter().enumerate() {
            let (at, rank) = (at as usize, rank as usize);
            let sv = self.order[rank];
            self.newly.push(arena.public[sv as usize]);
            arena.arrived.push(sv);
            self.status[rank] = TravelStatus::Delivered;
            self.live[rank / 64] &= !(1 << (rank % 64));
            if self.observed {
                self.transitions.push(Transition {
                    msg: arena.public[sv as usize],
                    status: TravelStatus::Delivered,
                });
            }
            let next = self.done.get(i + 1).copied();
            // The survivors up to the next arrival close the `i + 1` gaps.
            let to = next.map_or(arena.flight.len(), |d| d.0 as usize);
            arena.flight.copy_within(at + 1..to, at - i);
            // The words after this arrival's, up to the next arrival's, have
            // `i + 1` fewer live ranks before them.
            let words = rank / 64 + 1..next.map_or(self.below.len(), |d| d.1 as usize / 64 + 1);
            for below in &mut self.below[words] {
                *below -= i as u32 + 1;
            }
        }
        arena.flight.truncate(arena.flight.len() - self.done.len());
        self.done.clear();
        debug_assert!(self.summaries_hold(), "a drain left busy or below stale");
        self.newly.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::line::{LineNetwork, LineRouting};
    use crate::spec::MessageSpec;
    use crate::step::AlwaysAdmit;
    use crate::switching::Arbitration;
    use crate::trace::Event;

    static ALWAYS: AlwaysAdmit = AlwaysAdmit;

    fn spec() -> KernelSpec {
        KernelSpec {
            arbitration: Arbitration::FixedPriority,
            admission: &ALWAYS,
            first_step: 0,
        }
    }

    fn contended_line(nodes: usize, capacity: u32, flits: usize) -> (LineNetwork, Config) {
        let net = LineNetwork::new(nodes, capacity);
        let routing = LineRouting::new(&net);
        let specs = contended_specs(nodes, flits);
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        (net, cfg)
    }

    /// Messages from every node of a `nodes`-node line to either end.
    fn contended_specs(nodes: usize, flits: usize) -> Vec<MessageSpec> {
        let mut specs = Vec::new();
        for i in 0..nodes - 1 {
            specs.push(MessageSpec::new(
                NodeId::from_index(i),
                NodeId::from_index(nodes - 1),
                flits,
            ));
            specs.push(MessageSpec::new(
                NodeId::from_index(nodes - 1 - i),
                NodeId::from_index(0),
                flits,
            ));
        }
        specs
    }

    #[test]
    fn roundtrip_reproduces_the_exact_config() {
        let (net, cfg) = contended_line(5, 1, 3);
        let arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        let back = arena.to_config(&net).unwrap();
        assert_eq!(back.position_key(), cfg.position_key());
        assert_eq!(back.state_hash(), cfg.state_hash());
        back.validate(&net).unwrap();
    }

    #[test]
    fn free_list_recycles_slots_and_keeps_public_ids_stable() {
        let (net, cfg) = contended_line(5, 2, 2);
        let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        let slots = arena.slot_count();
        let victim = arena.public_id(0);
        let removed = arena.remove_travel(&net, victim).unwrap();
        assert_eq!(removed.id(), victim);
        assert_eq!(arena.free_count(), 1);
        assert_eq!(arena.slot_of(victim), None);
        assert!(arena.remove_travel(&net, victim).is_err());

        // A fresh travel recycles the slot but keeps its own public id.
        let routing = LineRouting::new(&net);
        let fresh = Config::from_specs(
            &net,
            &routing,
            &[MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(4),
                2,
            )],
        )
        .unwrap();
        let mut t = fresh.travels()[0].clone();
        t = Travel::mid_flight(&net, MsgId::from_index(slots + 7), t.route().to_vec(), 2).unwrap();
        for f in 0..2 {
            t.set_flit_pos(f, FlitPos::Pending);
        }
        let slot = arena.push_travel(&net, &t).unwrap();
        assert_eq!(arena.free_count(), 0);
        assert_eq!(arena.slot_count(), slots, "slot was recycled, not grown");
        assert_eq!(arena.public_id(slot), t.id());
        assert_eq!(arena.slot_of(t.id()), Some(slot));
        arena.to_config(&net).unwrap().validate(&net).unwrap();
    }

    #[test]
    fn snapshot_clone_is_independent() {
        let (net, cfg) = contended_line(5, 1, 3);
        let arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        let snap = arena.clone();
        let mut live = arena;
        let victim = live.public_id(0);
        live.remove_travel(&net, victim).unwrap();
        assert_eq!(snap.flight_count(), live.flight_count() + 1);
        assert_eq!(
            snap.to_config(&net).unwrap().position_key(),
            cfg.position_key()
        );
    }

    #[test]
    fn measures_match_the_config_measures() {
        let (net, cfg) = contended_line(6, 2, 3);
        let arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        assert_eq!(arena.progress_measure(), cfg.progress_measure());
        assert_eq!(arena.route_length_measure(), cfg.route_length_measure());
        assert_eq!(arena.delivered_flits(), cfg.delivered_flits());
    }

    fn kernel_for(arena: &ArenaConfig, arbitration: Arbitration) -> ArenaKernel {
        let spec = KernelSpec {
            arbitration,
            ..spec()
        };
        let mut kernel = ArenaKernel::new(arena, ArenaSpec::from_kernel_spec(&spec).unwrap());
        // The tests read its logs.
        kernel.set_observed(true);
        kernel
    }

    /// Steps until a travel completes and leaves it undrained in `T`.
    fn step_to_an_arrival(arena: &mut ArenaConfig, kernel: &mut ArenaKernel) {
        let mut trace = Trace::new(false);
        while !kernel.take_saw_arrival() {
            assert!(kernel.step(arena, &mut trace).unwrap().moves() > 0);
        }
    }

    /// A capacity-1 line where worm A (4 flits, node 1 → 2) streams through
    /// node 1's forward out-port, the gate, ahead of B (1 flit, node 0 → 2),
    /// and the port on B's route before the gate.
    fn gate_line() -> (LineNetwork, Config, PortId, PortId) {
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        let node = NodeId::from_index;
        let specs = [
            MessageSpec::new(node(1), node(2), 4),
            MessageSpec::new(node(0), node(2), 1),
        ];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let (before_gate, gate) = (cfg.travels()[1].route()[2], cfg.travels()[1].route()[3]);
        assert_eq!(Some(gate), net.fwd_out(1));
        (net, cfg, gate, before_gate)
    }

    /// The moves of one step's trace events through `gate`, as
    /// `(travel, flit, from, to)`.
    fn moves_through(
        events: &[crate::trace::Event],
        gate: PortId,
    ) -> Vec<(MsgId, u32, Zone, Zone)> {
        (events.iter())
            .filter(|e| e.from == Zone::Port(gate) || e.to == Zone::Port(gate))
            .map(|e| (e.msg, e.flit, e.from, e.to))
            .collect()
    }

    /// On [`gate_line`], B parks on the gate. Observed, a body flit of A
    /// leaving the gate wakes B, but A's next flit fills it in the same
    /// sub-step: B's serve parks it again, with no move. A's tail leaving
    /// the port releases it, and B's serve in that step moves B through it.
    #[test]
    fn a_woken_travel_parks_again_until_its_gates_owner_lets_go() {
        let (net, cfg, gate, before_gate) = gate_line();
        let (a, b) = (cfg.travels()[0].id(), cfg.travels()[1].id());
        let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        let slot_a = arena.slot_of(a).unwrap();
        let mut kernel = kernel_for(&arena, Arbitration::FixedPriority);
        let mut trace = Trace::new(true);
        // One step: B's transitions, and the moves of flits through `gate`
        // as `(travel, flit, from, to)`.
        let mut step = |arena: &mut ArenaConfig, n: u64| {
            trace.begin_step(n);
            let seen = trace.events().len();
            kernel.step(arena, &mut trace).unwrap();
            kernel.drain_arrived(arena);
            let of_b: Vec<TravelStatus> = (kernel.transitions().iter())
                .filter(|t| t.msg == b)
                .map(|t| t.status)
                .collect();
            (of_b, moves_through(&trace.events()[seen..], gate))
        };
        let (at_gate, short_of_it) = (Zone::Port(gate), Zone::Port(before_gate));
        for n in 0..2 {
            let (of_b, _) = step(&mut arena, n);
            assert!(
                of_b.len() <= 1 && of_b[..] != [TravelStatus::Blocked(gate)],
                "step {n}"
            );
        }
        // Step 2: B moves up to the port before the gate, which A's second
        // flit has just taken, and parks at once.
        let (of_b, _) = step(&mut arena, 2);
        assert_eq!(of_b, [TravelStatus::Blocked(gate)]);

        // Steps 3 and 4: a body flit of A leaves the gate, so A keeps it,
        // and A's next flit fills it. B is woken and parks again, unmoved.
        for (n, body) in [(3, 1), (4, 2)] {
            let (of_b, through) = step(&mut arena, n);
            assert_eq!(
                through.iter().map(|m| (m.0, m.1)).collect::<Vec<_>>(),
                [(a, body), (a, body + 1)],
                "step {n}: A's flit {body} leaves the gate, the next one fills it, B stays"
            );
            assert_eq!((through[0].2, through[1].3), (at_gate, at_gate));
            assert_eq!(arena.ports.rec[gate.index()].owner, slot_a);
            assert_eq!(
                of_b,
                [TravelStatus::Active, TravelStatus::Blocked(gate)],
                "step {n}: woken and parked again"
            );
        }

        // Step 5: A's tail leaves the gate and releases it; B's serve comes
        // after A's in the same step and moves B into it — right behind A's
        // tail, so B parks at once on its next port.
        let (of_b, through) = step(&mut arena, 5);
        let next = TravelStatus::Blocked(cfg.travels()[1].route()[4]);
        assert_eq!(of_b, [TravelStatus::Active, next]);
        assert_eq!(
            through,
            [(a, 3, at_gate, through[0].3), (b, 0, short_of_it, at_gate)],
            "the tail leaves the gate, then B's head enters it"
        );
    }

    /// The same line under a quiet kernel: A's body flits leaving the gate
    /// in steps 3 and 4 do not release it, so B is never woken and stays
    /// off the run queue, parked; A's tail releases the gate in step 5, and
    /// B moves through it in that step, as under the observed kernel. The
    /// quiet kernel keeps no log.
    #[test]
    fn a_quiet_kernel_wakes_a_parked_travel_when_its_gate_is_released() {
        let (net, cfg, gate, before_gate) = gate_line();
        let (a, b) = (cfg.travels()[0].id(), cfg.travels()[1].id());
        let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        let slot_a = arena.slot_of(a).unwrap();
        let mut kernel = kernel_for(&arena, Arbitration::FixedPriority);
        kernel.set_observed(false);
        let rank_b = 1;
        assert_eq!(kernel.order[rank_b], arena.slot_of(b).unwrap());
        let mut trace = Trace::new(true);
        let (at_gate, short_of_it) = (Zone::Port(gate), Zone::Port(before_gate));
        for n in 0..6 {
            trace.begin_step(n);
            let seen = trace.events().len();
            kernel.step(&mut arena, &mut trace).unwrap();
            kernel.drain_arrived(&mut arena);
            assert!(kernel.transitions().is_empty(), "step {n}");
            assert!(kernel.freed_ports().is_empty() && kernel.moves().is_empty());
            let through = moves_through(&trace.events()[seen..], gate);
            let queued = kernel.run[rank_b / 64] & (1 << (rank_b % 64)) != 0;
            if (2..=4).contains(&n) {
                assert_eq!(kernel.status[rank_b], TravelStatus::Blocked(gate));
                assert!(!queued, "step {n}: B is off the run queue");
                assert_eq!(kernel.wake_head[gate.index()], rank_b as u32);
                assert_eq!(arena.ports.rec[gate.index()].owner, slot_a);
            }
            if n == 3 || n == 4 {
                let body = n as u32 - 2;
                assert_eq!(
                    through.iter().map(|m| (m.0, m.1)).collect::<Vec<_>>(),
                    [(a, body), (a, body + 1)],
                    "step {n}: A's flit {body} leaves the gate, the next one fills it"
                );
            }
            if n == 5 {
                assert_eq!(
                    through,
                    [(a, 3, at_gate, through[0].3), (b, 0, short_of_it, at_gate)],
                    "the tail leaves the gate, then B's head enters it"
                );
                let next = cfg.travels()[1].route()[4];
                assert_eq!(kernel.status[rank_b], TravelStatus::Blocked(next));
            }
        }
    }

    #[test]
    fn step_on_an_evacuated_arena_is_a_no_op() {
        let (net, cfg) = contended_line(4, 1, 2);
        let empty = Config::from_travels(&net, Vec::new()).unwrap();
        for arbitration in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
            // Never held a travel: the bitsets have no word at all.
            let mut arena = ArenaConfig::from_config(&net, &empty).unwrap();
            let mut kernel = kernel_for(&arena, arbitration);
            let mut trace = Trace::new(true);
            for _ in 0..3 {
                let report = kernel.step(&mut arena, &mut trace).unwrap();
                assert_eq!(report, StepReport::default());
            }
            assert!(!kernel.is_deadlock(&arena));

            // Ran dry: ranks remain, none of them live.
            let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
            let mut kernel = kernel_for(&arena, arbitration);
            while !arena.is_evacuated() {
                kernel.step(&mut arena, &mut trace).unwrap();
                kernel.drain_arrived(&mut arena);
            }
            let moves = trace.events().len();
            for _ in 0..3 {
                let report = kernel.step(&mut arena, &mut trace).unwrap();
                assert_eq!(report, StepReport::default());
            }
            assert_eq!(trace.events().len(), moves);
            assert!(kernel.transitions().is_empty() && kernel.freed_ports().is_empty());
        }
    }

    #[test]
    fn resync_finds_a_travel_already_complete_in_flight() {
        let (net, cfg) = contended_line(5, 2, 2);
        let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        let mut kernel = kernel_for(&arena, Arbitration::FixedPriority);
        step_to_an_arrival(&mut arena, &mut kernel);
        let flight = arena.flight.clone();
        let complete: Vec<u32> = (flight.iter().copied())
            .filter(|&sv| arena.slot_is_arrived(sv as usize))
            .collect();
        assert!(!complete.is_empty());

        // A kernel built now has only `resync` to learn of them from.
        let mut fresh = kernel_for(&arena, Arbitration::FixedPriority);
        assert!(fresh.take_saw_arrival());
        assert_eq!(fresh.drain_arrived(&mut arena), complete.len());
        assert_eq!(arena.arrived, complete);
        let survivors: Vec<u32> = (flight.iter().copied())
            .filter(|sv| !complete.contains(sv))
            .collect();
        assert_eq!(arena.flight, survivors, "order-preserving compaction");
        let ids: Vec<MsgId> = complete.iter().map(|&sv| arena.public_id(sv)).collect();
        assert_eq!(fresh.newly_arrived(), ids);
        assert_eq!(fresh.transitions().len(), complete.len());

        // A second drain finds nothing left to do.
        fresh.drain_arrived(&mut arena);
        assert_eq!(arena.flight, survivors);
        assert_eq!(arena.arrived, complete);
        assert_eq!(fresh.transitions().len(), complete.len());
        arena.to_config(&net).unwrap().validate(&net).unwrap();
    }

    #[test]
    fn an_undrained_travel_neither_moves_nor_changes_omega() {
        let (net, cfg) = contended_line(6, 1, 3);
        let mut drained = ArenaConfig::from_config(&net, &cfg).unwrap();
        let mut kernel_d = kernel_for(&drained, Arbitration::FixedPriority);
        step_to_an_arrival(&mut drained, &mut kernel_d);
        let mut skipped = drained.clone();
        let mut kernel_s = kernel_for(&skipped, Arbitration::FixedPriority);
        assert!(kernel_s.take_saw_arrival());
        kernel_d.drain_arrived(&mut drained);
        assert!(!drained.is_evacuated());

        // One step with the complete travel still in `T`, against the same
        // step with it drained: same Ω, same moves, same freed ports.
        assert_eq!(
            kernel_s.is_deadlock(&skipped),
            kernel_d.is_deadlock(&drained)
        );
        let (mut trace_s, mut trace_d) = (Trace::new(true), Trace::new(true));
        let report_s = kernel_s.step(&mut skipped, &mut trace_s).unwrap();
        let report_d = kernel_d.step(&mut drained, &mut trace_d).unwrap();
        assert!(report_d.moves() > 0);
        assert_eq!(report_s, report_d);
        assert_eq!(trace_s.events(), trace_d.events());
        assert_eq!(kernel_s.freed_ports(), kernel_d.freed_ports());
        assert_eq!(kernel_s.transitions(), kernel_d.transitions());

        // The late drain then catches up with everything complete so far.
        kernel_s.drain_arrived(&mut skipped);
        kernel_d.drain_arrived(&mut drained);
        assert_eq!(skipped.flight, drained.flight);
        assert_eq!(
            kernel_s.is_deadlock(&skipped),
            kernel_d.is_deadlock(&drained)
        );
        skipped.to_config(&net).unwrap().validate(&net).unwrap();
    }

    /// Steps `arena` until `done` holds.
    fn step_until(arena: &mut ArenaConfig, done: impl Fn(&ArenaConfig) -> bool) {
        let mut kernel = kernel_for(arena, Arbitration::FixedPriority);
        let mut trace = Trace::new(false);
        while !done(arena) {
            assert!(kernel.step(arena, &mut trace).unwrap().moves() > 0);
            kernel.drain_arrived(arena);
        }
    }

    #[test]
    fn write_back_reproduces_to_config_in_the_given_config() {
        let (net, cfg) = contended_line(5, 2, 3);
        let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        // Mid-flight, with arrivals: `A` in arrival order, `T` compacted.
        step_until(&mut arena, |a| a.arrived_count() >= 2);
        assert!(arena.flight_count() > 0);
        let mut written = cfg.clone();
        arena.write_back(&mut written).unwrap();
        assert_eq!(written, arena.to_config(&net).unwrap());
        written.validate(&net).unwrap();
        // From there to the end, over a configuration whose `A` is not empty.
        step_until(&mut arena, ArenaConfig::is_evacuated);
        arena.write_back(&mut written).unwrap();
        assert_eq!(written, arena.to_config(&net).unwrap());
        assert!(written.is_evacuated());
    }

    #[test]
    fn write_back_rejects_what_to_config_would_have_rejected() {
        /// `arena.write_back(cfg)` fails with a typed error that says `what`.
        fn rejects(arena: &ArenaConfig, cfg: &Config, what: &str) {
            let err = arena.write_back(&mut cfg.clone()).unwrap_err();
            assert!(
                matches!(err, Error::Invariant(_) | Error::CapacityExceeded { .. }),
                "{what}: {err:?}"
            );
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        fn slot(arena: &ArenaConfig, id: usize) -> usize {
            arena.slot_of(MsgId::from_index(id)).unwrap() as usize
        }
        let (net, cfg) = contended_line(5, 2, 2);
        let fresh = || ArenaConfig::from_config(&net, &cfg).unwrap();

        // A position beyond the route.
        let mut a = fresh();
        let s = slot(&a, 0);
        a.flit_pool[a.flit_off[s] as usize] = a.route_len[s] + 1;
        rejects(&a, &cfg, "lies outside its");

        // A flit short.
        let mut a = fresh();
        let s = slot(&a, 0);
        a.flit_len[s] -= 1;
        rejects(&a, &cfg, "positions for");

        // A broken worm shape: the body flit one port ahead of the head.
        let mut a = fresh();
        let fo = a.flit_off[slot(&a, 0)] as usize;
        (a.flit_pool[fo], a.flit_pool[fo + 1]) = (1, 2);
        rejects(&a, &cfg, "is ahead of flit");

        // Two owners of one port: travels 0 (0 → 4) and 2 (1 → 4) share
        // every port from node 1's out-port on; both heads sit in that one.
        let mut a = fresh();
        let (s0, s2) = (slot(&a, 0), slot(&a, 2));
        let shared = a.route_pool[a.route_off[s2] as usize + 1];
        let k0 = (0..a.route_len[s0])
            .find(|&k| a.route_pool[(a.route_off[s0] + k) as usize] == shared)
            .expect("the two routes share a port");
        a.flit_pool[a.flit_off[s0] as usize] = k0 + 1;
        a.flit_pool[a.flit_off[s2] as usize] = 2;
        rejects(&a, &cfg, "owned by");

        // An over-full port: two flits in a one-flit buffer.
        let (shallow_net, shallow) = contended_line(5, 1, 2);
        let mut a = ArenaConfig::from_config(&shallow_net, &shallow).unwrap();
        let fo = a.flit_off[slot(&a, 0)] as usize;
        (a.flit_pool[fo], a.flit_pool[fo + 1]) = (1, 1);
        rejects(&a, &shallow, "over-subscribed");

        // A travel written back twice.
        let mut a = fresh();
        a.flight[1] = a.flight[0];
        rejects(&a, &cfg, "written back twice or into");

        // A route that differs from the configuration's.
        let mut a = fresh();
        let ro = a.route_off[slot(&a, 0)] as usize;
        a.route_pool.swap(ro + 1, ro + 2);
        rejects(&a, &cfg, "route that differs");

        // The arena and the configuration hold different travels: one
        // fewer, one more, as many but not the same.
        let mut a = fresh();
        let (gone, other) = (a.public_id(0), a.public_id(1));
        a.remove_travel(&net, gone).unwrap();
        rejects(&a, &cfg, "written back into a configuration of");
        let mut fewer = cfg.clone();
        fewer.remove_travel(other).unwrap();
        rejects(&fresh(), &fewer, "written back into a configuration of");
        rejects(&a, &fewer, "does not hold it");

        // None of them was the fixture's fault.
        fresh().write_back(&mut cfg.clone()).unwrap();
    }

    /// Four records fill a 64-byte cache line and none straddles two, and a
    /// port's entry stamp sits on the line `Ports::try_enter` loads next, so
    /// the step-bandwidth check costs no line of its own.
    #[test]
    fn a_port_record_is_sixteen_bytes_on_a_sixteen_byte_boundary() {
        assert_eq!(std::mem::size_of::<PortRec>(), 16);
        assert_eq!(std::mem::align_of::<PortRec>(), 16);
    }

    /// `busy` and `below` follow `run` and `live` through runs that park,
    /// wake and drain across two words of `run`, quiet and observed, under
    /// both arbitrations. In each run a wake refills a word of `run` that
    /// had emptied, so its `busy` bit must come back.
    #[test]
    fn busy_and_below_follow_run_and_live_across_words() {
        let (net, cfg) = contended_line(40, 1, 2);
        for arbitration in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
            for observed in [false, true] {
                let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
                let mut kernel = kernel_for(&arena, arbitration);
                kernel.set_observed(observed);
                assert_eq!(kernel.run.len(), 2);
                assert!(kernel.summaries_hold());
                let (mut trace, mut refilled) = (Trace::new(false), false);
                while !arena.is_evacuated() {
                    assert!(!kernel.is_deadlock(&arena));
                    let idle = kernel.run.iter().map(|&w| w == 0).collect::<Vec<_>>();
                    kernel.step(&mut arena, &mut trace).unwrap();
                    assert!(kernel.summaries_hold(), "after a step");
                    kernel.drain_arrived(&mut arena);
                    assert!(kernel.summaries_hold(), "after a drain");
                    refilled |= (0..2).any(|w| idle[w] && kernel.run[w] != 0);
                }
                assert!(refilled, "{arbitration:?} observed {observed}");
            }
        }
    }

    /// Steps `arena` under `kernel` until it is evacuated or deadlocked:
    /// every move as a trace event, the step count and whether it evacuated.
    fn run_out(arena: &mut ArenaConfig, kernel: &mut ArenaKernel) -> (Vec<Event>, u64, bool) {
        let mut trace = Trace::new(true);
        let mut steps = 0;
        while !arena.is_evacuated() && !kernel.is_deadlock(arena) {
            trace.begin_step(steps);
            assert!(kernel.step(arena, &mut trace).unwrap().moves() > 0);
            kernel.drain_arrived(arena);
            steps += 1;
        }
        (trace.events().to_vec(), steps, arena.is_evacuated())
    }

    /// A run whose epoch wraps mid-way makes the moves of one started at
    /// epoch 0. The line has 2-flit buffers and 4-flit worms, so a worm's
    /// pending flits queue behind one entry per port per step: a stamp left
    /// equal to the epoch across the wrap would refuse an entry.
    #[test]
    fn a_wrapping_epoch_clears_the_stamps_and_keeps_the_moves() {
        let (net, cfg) = contended_line(6, 2, 4);
        let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        let mut kernel = kernel_for(&arena, Arbitration::RoundRobin);
        let reference = run_out(&mut arena, &mut kernel);
        assert!(reference.1 > 3, "the run crosses the wrap");
        assert_eq!(arena.ports.epoch as u64, reference.1);

        let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
        arena.ports.epoch = u32::MAX - 1;
        // Stamps a lap old, as if written 2³² steps ago: the run's third
        // step has epoch 2 after the wrap, and would find every port taken.
        arena.ports.rec.iter_mut().for_each(|r| r.entered = 2);
        arena.ports.ejected.fill(2);
        let mut kernel = kernel_for(&arena, Arbitration::RoundRobin);
        assert_eq!(run_out(&mut arena, &mut kernel), reference);
        // Steps 1 and 2 used `u32::MAX` and, after the wrap, 1.
        assert_eq!(arena.ports.epoch as u64, reference.1 - 1);
    }

    /// A kernel built over a mid-run clone of a stepped arena, and a kernel
    /// that follows a hook's change, each make exactly the moves of the
    /// kernel they replace: the stamps the arena carries are all older than
    /// the next step's epoch, so none refuses an entry.
    #[test]
    fn a_kernel_over_a_stepped_arena_meets_no_stale_stamp() {
        let (net, cfg) = contended_line(6, 2, 4);
        // Four steps in: the arena carries stamps of epochs 1 to 4.
        let stepped = || {
            let mut arena = ArenaConfig::from_config(&net, &cfg).unwrap();
            let mut kernel = kernel_for(&arena, Arbitration::RoundRobin);
            let mut trace = Trace::new(false);
            for _ in 0..4 {
                kernel.step(&mut arena, &mut trace).unwrap();
                kernel.drain_arrived(&mut arena);
            }
            (arena, kernel)
        };
        let spec = KernelSpec {
            arbitration: Arbitration::RoundRobin,
            first_step: 4,
            ..spec()
        };
        let spec = ArenaSpec::from_kernel_spec(&spec).unwrap();

        // A fresh kernel over a clone, against the kernel that stepped it.
        let (mut arena, mut kernel) = stepped();
        let mut clone = arena.clone();
        let mut fresh = ArenaKernel::new(&clone, spec);
        let replaced = run_out(&mut arena, &mut kernel);
        assert!(!replaced.0.is_empty());
        assert_eq!(run_out(&mut clone, &mut fresh), replaced);

        // A kernel following a hook's removal, against a kernel over the
        // arena rebuilt from the hook's `Config`, whose stamps are all 0.
        let (mut arena, mut kernel) = stepped();
        let mut shadow = arena.to_config(&net).unwrap();
        shadow
            .remove_travel(arena.public_id(arena.flight[0]))
            .unwrap();
        kernel.follow(&net, &mut arena, &shadow).unwrap();
        let mut rebuilt = ArenaConfig::from_config(&net, &shadow).unwrap();
        let mut rebuilt_kernel = ArenaKernel::new(&rebuilt, spec);
        let followed = run_out(&mut arena, &mut kernel);
        assert!(!followed.0.is_empty());
        assert_eq!(followed, run_out(&mut rebuilt, &mut rebuilt_kernel));
    }

    /// A loaded arena is the arena imported from `Config::from_specs`, and a
    /// restarted kernel runs it as a new one does: from a fresh arena, and
    /// from one a longer run on a larger line left with stamps, arrivals and
    /// a freed slot, whose buffers it keeps.
    #[test]
    fn load_specs_refills_the_arena_from_specs_in_place() {
        let arena_spec = |first_step| {
            let spec = KernelSpec {
                arbitration: Arbitration::RoundRobin,
                first_step,
                ..spec()
            };
            ArenaSpec::from_kernel_spec(&spec).unwrap()
        };
        let (big, big_cfg) = contended_line(7, 2, 4);
        let mut arena = ArenaConfig::from_config(&big, &big_cfg).unwrap();
        let mut kernel = ArenaKernel::new(&arena, arena_spec(0));
        step_to_an_arrival(&mut arena, &mut kernel);
        kernel.drain_arrived(&mut arena);
        arena
            .remove_travel(&big, arena.public_id(arena.flight[0]))
            .unwrap();
        let mut loaded = [ArenaConfig::default(), arena];
        let net = LineNetwork::new(5, 1);
        let routing = LineRouting::new(&net);
        let specs = contended_specs(5, 3);
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        for arena in &mut loaded {
            arena.load_specs(&net, &routing, &specs).unwrap();
            assert_eq!(arena.to_config(&net).unwrap(), cfg);
            assert_eq!(arena.slot_count(), specs.len());
            assert_eq!(arena.free_count(), 0);
            let routes: usize = cfg.travels().iter().map(|t| t.route().len()).sum();
            assert_eq!(arena.route_pool_len(), routes);
            kernel.restart(arena, arena_spec(3));
            let mut imported = ArenaConfig::from_config(&net, &cfg).unwrap();
            let mut fresh = ArenaKernel::new(&imported, arena_spec(3));
            let run = run_out(arena, &mut kernel);
            assert!(run.2, "the line evacuates");
            assert_eq!(run, run_out(&mut imported, &mut fresh));
        }
    }

    #[test]
    fn load_specs_rejects_what_from_specs_rejects() {
        let net = LineNetwork::new(3, 1);
        let routing = LineRouting::new(&net);
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(2));
        for bad in [
            MessageSpec::new(a, b, 0),
            MessageSpec::new(a, NodeId::from_index(3), 1),
        ] {
            let specs = [MessageSpec::new(b, a, 2), bad];
            let want = Config::from_specs(&net, &routing, &specs).unwrap_err();
            let got = ArenaConfig::default()
                .load_specs(&net, &routing, &specs)
                .unwrap_err();
            assert!(matches!(got, Error::InvalidSpec(_)), "{got:?}");
            assert_eq!(got.to_string(), want.to_string());
        }
    }
}
