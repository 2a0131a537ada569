//! Partial-order reduction: per-state ample sets from move independence.
//!
//! Most single-flit moves commute: two moves of *different* travels whose
//! routes share no port read and write disjoint parts of the configuration,
//! so exploring both interleavings only multiplies the state count without
//! changing what is reachable. The explorer exploits this with a
//! *persistent-set* scheme (Godefroid): at each expanded state it picks a
//! subset `D` of the in-flight travels, explores only the enabled moves of
//! `D`-travels (the **ample set**), and prunes the rest.
//!
//! # The independence relation
//!
//! A move of travel `i` reads the travel's own flit positions plus the state
//! (free-buffer count, worm ownership) of its *target* port, and writes the
//! flit position plus the source and target ports — all ports on `i`'s
//! static route. This closed-world description holds for every shipped
//! admission predicate ([`SwitchingKind`](genoc_core::meta::SwitchingKind):
//! wormhole, whole-packet room, store-and-forward all inspect only the
//! target port and the travel's own flits), which is why the selector is
//! only used when `HeadAdmission::kind()` is `Some(_)`; an opaque admission
//! could read arbitrary ports and the reduction would be unsound for it.
//! Two moves of different travels with disjoint route port sets are
//! therefore independent: neither can enable, disable, or alter the effect
//! of the other.
//!
//! # The ample-set condition and why it preserves deadlocks
//!
//! For a state `s`, define the travel's *guard set* `G_i(s)` as the ports
//! its flits currently occupy plus each flit's next target port
//! (`route[0]` for pending flits, `route[k+1]` for a flit at index `k`).
//! The selector seeds `D` with one travel that has an enabled move and
//! closes it: any travel whose static route footprint intersects
//! `⋃_{i∈D} G_i(s)` joins `D`, to a fixpoint. At the fixpoint, travels
//! outside `D` can never touch a `D`-guard port — not now, not after any
//! sequence of non-`D` moves — because everything they ever touch lies in
//! their own footprints.
//!
//! Take any full-graph path `σ` from `s` to a deadlock.
//!
//! * If `σ` contains no move of a `D`-travel, every move in it is disjoint
//!   from `G_D(s)`, so the seed's enabled move — whose enabledness reads
//!   only its own flits and a `G_D` port — is still enabled at the end of
//!   `σ`: the end is not a deadlock. Contradiction, so this case is
//!   impossible.
//! * Otherwise let `m` be the first `D`-travel move in `σ`. The moves
//!   before it are non-`D`, hence touch neither `m`'s travel's flits nor
//!   its target port (both in `G_D(s)`): `m` was already enabled *at `s`*
//!   — i.e. `m` is in the ample set — and commutes backwards over the
//!   prefix. The permuted path reaches the *same* deadlock configuration
//!   through an ample first move.
//!
//! Inducting along the reduced graph, **every** deadlock configuration
//! reachable in the full graph stays reachable in the reduced one. Depth
//! minimality comes for free: the number of moves needed to reach a given
//! configuration is a function of the configuration alone (each move
//! advances exactly one flit by one position), so all paths to a deadlock
//! have equal length and BFS over the reduced graph reports the same
//! minimal counterexample depth as BFS over the full graph.
//!
//! # Computing the closure: wait rows
//!
//! A travel joins `D` when its footprint meets the guard set of a travel
//! already in `D`, so the fixpoint is reachability in a directed graph over
//! the in-flight slots: slot `s` points at slot `j` when `j`'s static
//! footprint meets `G_s`. The selector keeps that graph as one *wait row*
//! per slot, a bitset over slots of `⌈slots / 64⌉` words — one path for
//! every slot count. A row is the union, over the ports of `G_s`, of the
//! slots whose route crosses that port, so it is a function of slot `s`'s
//! own flit positions and nothing else: footprints are static, and `G_s`
//! reads only `s`'s flits and route.
//!
//! That is why a row can be kept across states. The selector stores each
//! row with the flit positions it was derived at and re-derives it only for
//! a travel whose positions differ from the stored copy, whatever state the
//! caller hands it next and in whatever order. Between consecutive
//! expansions most travels have not moved, so most rows are reused.
//!
//! Each seed's closure is then reachability over `rows & live`, a level of
//! the breadth-first walk at a time (delivered travels have left `cfg` and
//! can never move again). Seeds are visited in `cfg.travels()` order and
//! the first closure with the fewest enabled moves wins, as the fixpoint
//! this replaced chose: the closures are the same sets, so the ample set
//! and its move order are too. Two cuts skip closures that cannot win, and
//! neither changes the choice:
//!
//! * a closure is dropped once it holds as many enabled moves as the best
//!   so far (at the start, all of them: that would reduce nothing), since a
//!   closure only grows;
//! * a closure that takes in an earlier seed contains that seed's whole
//!   closure, so it scores at least as much — and the earlier seed scored
//!   at least the bound it met, which only falls. It cannot be strictly
//!   smaller: a seed once tried weighs `u32::MAX` moves, so such a closure
//!   is dropped as soon as it takes the seed in.
//!
//! # The cycle proviso
//!
//! Classical ample-set reduction needs a *cycle proviso* to stop an
//! infinite run from postponing a relevant move forever. Here the
//! transition system is a DAG — every move strictly decreases
//! [`Config::progress_measure`](genoc_core::config::Config), so no cycle
//! exists and the proviso is vacuously satisfied. The fallback that the
//! proviso would force — expanding the full enabled set — still occurs
//! naturally whenever the dependency closure saturates (the selector
//! returns `false` and the caller uses every enabled move).

use genoc_core::config::Config;
use genoc_core::moves::Move;
use genoc_core::travel::FlitPos;
use genoc_core::PortId;

use crate::state::Workload;

/// Per-workload ample-set selector: every slot's wait row, kept across
/// states with the flit positions it was derived at, plus reusable
/// per-state scratch, so selection allocates nothing on the hot path.
pub struct AmpleSelector {
    /// `⌈slots / 64⌉` words per slot set.
    words: usize,
    /// Per port, the slots whose static route crosses it: `ports × words`.
    users: Vec<u64>,
    /// Per slot, its wait row (see the module doc): `slots × words`.
    rows: Vec<u64>,
    /// The flit positions each row was derived at, as codes: slot `s`'s at
    /// `at[first[s]..first[s + 1]]`.
    at: Vec<u32>,
    first: Vec<usize>,
    /// Enabled-move count per slot in the current state (in-flight slots
    /// only; the rest are stale and never read), raised to `u32::MAX` once
    /// the slot has been tried as a seed.
    enabled: Vec<u32>,
    /// The in-flight slots of the current state.
    live: Vec<u64>,
    /// Four slot sets of scratch for the closures: the closure being built,
    /// the best one, and a walk's two levels.
    scratch: Vec<u64>,
}

/// A delivered flit's code: it waits on nothing.
const DELIVERED: u32 = u32::MAX;

/// A flit position as the selector stores it: 0 for pending, `k + 1` in the
/// port of route index `k`.
fn code(pos: FlitPos) -> u32 {
    match pos {
        FlitPos::Pending => 0,
        FlitPos::InNetwork(k) => k as u32 + 1,
        FlitPos::Delivered => DELIVERED,
    }
}

/// A slot's wait row with its flits at `codes` on `route`: the slots whose
/// footprint holds a port a flit occupies or targets next.
fn derive_row(users: &[u64], route: &[PortId], codes: &[u32], row: &mut [u64]) {
    let words = row.len();
    let users = |p: &PortId, w: usize| users[p.index() * words + w];
    for (w, r) in row.iter_mut().enumerate() {
        *r = codes.iter().fold(0, |acc, &c| match c {
            0 => acc | users(&route[0], w),
            DELIVERED => acc,
            k => route[k as usize - 1..]
                .iter()
                .take(2)
                .fold(acc, |acc, p| acc | users(p, w)),
        });
    }
}

/// A state's wait graph over its in-flight slots, as the closures read it:
/// each slot weighs its enabled moves, and a seed already tried weighs
/// `u32::MAX` (see the module doc).
struct WaitGraph<'a> {
    rows: &'a [u64],
    live: &'a [u64],
    weight: &'a [u32],
}

impl WaitGraph<'_> {
    /// `score` plus the weights of the slots in word `w` of a slot set.
    fn weigh(&self, w: usize, mut bits: u64, mut score: u32) -> u32 {
        while bits != 0 {
            let s = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            score = score.saturating_add(self.weight[s]);
        }
        score
    }

    /// Writes `seed`'s closure into `reach` and returns its weight, or
    /// gives up, with a weight of at least `bound`, once the weight reaches
    /// `bound`. `frontier` and `next` are scratch of the same length.
    fn close<'s>(
        &self,
        seed: usize,
        bound: u32,
        reach: &mut [u64],
        mut frontier: &'s mut [u64],
        mut next: &'s mut [u64],
    ) -> u32 {
        let words = self.live.len();
        // The first level is the seed's own row.
        let row = &self.rows[seed * words..(seed + 1) * words];
        let mut score = self.weight[seed];
        for (w, ((r, f), (&named, &live))) in reach
            .iter_mut()
            .zip(frontier.iter_mut())
            .zip(row.iter().zip(self.live))
            .enumerate()
        {
            let own = if w == seed / 64 { 1 << (seed % 64) } else { 0 };
            let fresh = named & live & !own;
            *r = fresh | own;
            *f = fresh;
            score = self.weigh(w, fresh, score);
        }
        while score < bound {
            // One level: the slots the frontier's rows name, a word at a
            // time, less those already reached or no longer in flight.
            let mut grew = false;
            for w in 0..words {
                let mut named = 0;
                for (fw, &word) in frontier.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let s = fw * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        named |= self.rows[s * words + w];
                    }
                }
                let fresh = named & self.live[w] & !reach[w];
                reach[w] |= fresh;
                next[w] = fresh;
                grew |= fresh != 0;
                score = self.weigh(w, fresh, score);
            }
            if !grew {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        score
    }
}

impl AmpleSelector {
    /// Builds the selector for a workload on a network with `port_count`
    /// ports.
    pub fn new(workload: &Workload, port_count: usize) -> AmpleSelector {
        let slots = workload.slots();
        let words = slots.div_ceil(64).max(1);
        let routes = workload.routes();
        // Per port, the slots whose static route crosses it.
        let mut users = vec![0u64; port_count * words];
        for (s, (route, _)) in routes.iter().enumerate() {
            for p in route {
                users[p.index() * words + s / 64] |= 1 << (s % 64);
            }
        }
        let mut first = vec![0];
        for (_, flits) in &routes {
            first.push(first[first.len() - 1] + flits);
        }
        // Every row starts out derived at the all-pending state.
        let at = vec![code(FlitPos::Pending); first[slots]];
        let mut rows = vec![0u64; slots * words];
        for (s, row) in rows.chunks_exact_mut(words).enumerate() {
            derive_row(&users, &routes[s].0, &at[first[s]..first[s + 1]], row);
        }
        AmpleSelector {
            words,
            users,
            rows,
            at,
            first,
            enabled: vec![0; slots],
            live: vec![0; words],
            scratch: vec![0; 4 * words],
        }
    }

    /// Selects an ample subset of `moves` (the full enabled set of `cfg`)
    /// into `out`. Returns `true` if `out` is a strict subset; on `false`
    /// the caller should expand the full set (`out` is left empty).
    ///
    /// The choice is deterministic: among all seed travels, in
    /// `cfg.travels()` order, it keeps the first closure with the fewest
    /// enabled moves, so explorations are reproducible run to run — and do
    /// not depend on which states the selector saw before.
    pub fn select(&mut self, cfg: &Config, moves: &[Move], out: &mut Vec<Move>) -> bool {
        out.clear();
        if moves.len() <= 1 {
            return false;
        }
        let words = self.words;
        // Phase 1: the in-flight slots, the rows of travels that moved
        // since their row was derived, and the enabled counts.
        self.live.fill(0);
        for t in cfg.travels() {
            let s = t.id().index();
            self.live[s / 64] |= 1 << (s % 64);
            self.enabled[s] = 0;
            let at = &mut self.at[self.first[s]..self.first[s + 1]];
            let mut moved = false;
            for (a, pos) in at.iter_mut().zip(t.flit_positions()) {
                let c = code(pos);
                moved |= *a != c;
                *a = c;
            }
            if moved {
                let row = &mut self.rows[s * words..(s + 1) * words];
                derive_row(&self.users, t.route(), at, row);
            }
        }
        for mv in moves {
            self.enabled[mv.msg.index()] += 1;
        }
        // Phase 2: each seed's closure; keep the first smallest, which must
        // leave some enabled move out to be worth anything.
        let (mut reach, rest) = self.scratch.split_at_mut(words);
        let (mut best, rest) = rest.split_at_mut(words);
        let (frontier, next) = rest.split_at_mut(words);
        let mut bound = moves.len() as u32;
        let mut found = false;
        for t in cfg.travels() {
            let seed = t.id().index();
            if self.enabled[seed] == 0 {
                continue;
            }
            let graph = WaitGraph {
                rows: &self.rows,
                live: &self.live,
                weight: &self.enabled,
            };
            let score = graph.close(seed, bound, reach, frontier, next);
            if score < bound {
                bound = score;
                found = true;
                std::mem::swap(&mut reach, &mut best);
            }
            self.enabled[seed] = u32::MAX;
        }
        if !found {
            return false;
        }
        let best = &*best;
        out.extend(
            moves
                .iter()
                .copied()
                .filter(|m| best[m.msg.index() / 64] & (1 << (m.msg.index() % 64)) != 0),
        );
        debug_assert_eq!(out.len(), bound as usize);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::moves::MoveEnumerator;
    use genoc_core::network::Network;
    use genoc_core::spec::MessageSpec;
    use genoc_core::step::AlwaysAdmit;
    use genoc_core::NodeId;
    use genoc_routing::xy::XyRouting;
    use genoc_topology::mesh::Mesh;

    fn spec(s: usize, d: usize, flits: usize) -> MessageSpec {
        MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), flits)
    }

    #[test]
    fn disjoint_travels_reduce_to_a_single_travel() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        // Opposing corner pairs: fully disjoint routes.
        let specs = [spec(0, 3, 2), spec(3, 0, 2)];
        let workload = Workload::new(&mesh, &routing, &specs).unwrap();
        let cfg = genoc_core::config::Config::from_specs(&mesh, &routing, &specs).unwrap();
        let en = MoveEnumerator::new(&AlwaysAdmit);
        let moves = en.moves(&cfg);
        assert!(moves.len() >= 2, "both headers can enter");
        let mut sel = AmpleSelector::new(&workload, mesh.port_count());
        let mut ample = Vec::new();
        assert!(sel.select(&cfg, &moves, &mut ample));
        // Disjoint footprints: the closure stays a singleton, and the
        // deterministic tie-break picks the lowest slot.
        let slots: Vec<usize> = ample.iter().map(|m| m.msg.index()).collect();
        assert!(slots.iter().all(|&s| s == slots[0]));
        assert_eq!(slots[0], 0);
        assert!(ample.len() < moves.len());
    }

    #[test]
    fn overlapping_travels_fall_back_to_the_full_set() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        // Same source row and column segments: footprints overlap.
        let specs = [spec(0, 3, 2), spec(1, 3, 2)];
        let workload = Workload::new(&mesh, &routing, &specs).unwrap();
        let cfg = genoc_core::config::Config::from_specs(&mesh, &routing, &specs).unwrap();
        let en = MoveEnumerator::new(&AlwaysAdmit);
        let moves = en.moves(&cfg);
        let mut sel = AmpleSelector::new(&workload, mesh.port_count());
        let mut ample = Vec::new();
        let reduced = sel.select(&cfg, &moves, &mut ample);
        if reduced {
            // Any reduction must still be a non-empty strict subset of the
            // enabled set.
            assert!(!ample.is_empty() && ample.len() < moves.len());
            assert!(ample.iter().all(|m| moves.contains(m)));
        } else {
            assert!(ample.is_empty());
        }
    }
}
