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

/// Per-workload ample-set selector: static route footprints plus reusable
/// per-state scratch, so selection allocates nothing on the hot path.
pub struct AmpleSelector {
    /// `⌈port_count / 64⌉` words per bitset.
    blocks: usize,
    /// Static per-slot route footprint bitsets, `slots × blocks`.
    footprints: Vec<u64>,
    /// Dynamic per-slot guard bitsets for the current state.
    guards: Vec<u64>,
    /// Enabled-move count per slot in the current state.
    enabled: Vec<u32>,
    /// Current-state closure membership scratch.
    in_d: Vec<bool>,
    best_d: Vec<bool>,
    union: Vec<u64>,
    /// Slots of travels still in flight in the current state.
    live: Vec<usize>,
}

fn set_bit(bits: &mut [u64], port: PortId) {
    let i = port.index();
    bits[i / 64] |= 1u64 << (i % 64);
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

impl AmpleSelector {
    /// Builds the selector for a workload on a network with `port_count`
    /// ports.
    pub fn new(workload: &Workload, port_count: usize) -> AmpleSelector {
        let blocks = port_count.div_ceil(64).max(1);
        let slots = workload.slots();
        let mut footprints = vec![0u64; slots * blocks];
        for (s, (route, _)) in workload.routes().iter().enumerate() {
            for &p in route {
                set_bit(&mut footprints[s * blocks..(s + 1) * blocks], p);
            }
        }
        AmpleSelector {
            blocks,
            footprints,
            guards: vec![0; slots * blocks],
            enabled: vec![0; slots],
            in_d: vec![false; slots],
            best_d: vec![false; slots],
            union: vec![0; blocks],
            live: Vec::with_capacity(slots),
        }
    }

    /// Selects an ample subset of `moves` (the full enabled set of `cfg`)
    /// into `out`. Returns `true` if `out` is a strict subset; on `false`
    /// the caller should expand the full set (`out` is left empty).
    ///
    /// The choice is deterministic: among all seed travels it keeps the
    /// closure with the fewest enabled moves, breaking ties by lowest slot
    /// index, so explorations are reproducible run to run.
    pub fn select(&mut self, cfg: &Config, moves: &[Move], out: &mut Vec<Move>) -> bool {
        out.clear();
        if moves.len() <= 1 {
            return false;
        }
        let blocks = self.blocks;
        // Phase 1: dynamic guard sets and enabled counts, over in-flight
        // travels only (delivered travels are partitioned out of `cfg` and
        // can never move again, so they are invisible to the closure).
        self.enabled.fill(0);
        self.live.clear();
        for t in cfg.travels() {
            let s = t.id().index();
            self.live.push(s);
            let guard = &mut self.guards[s * blocks..(s + 1) * blocks];
            guard.fill(0);
            let route = t.route();
            for f in 0..t.flit_count() {
                match t.flit_pos(f) {
                    FlitPos::Pending => set_bit(guard, route[0]),
                    FlitPos::InNetwork(k) => {
                        set_bit(guard, route[k]);
                        if k + 1 < route.len() {
                            set_bit(guard, route[k + 1]);
                        }
                    }
                    FlitPos::Delivered => {}
                }
            }
        }
        for mv in moves {
            self.enabled[mv.msg.index()] += 1;
        }
        // Phase 2: closure per seed; keep the smallest ample set.
        let mut best: Option<u32> = None;
        for &seed in &self.live {
            if self.enabled[seed] == 0 {
                continue;
            }
            self.in_d.fill(false);
            self.in_d[seed] = true;
            self.union
                .copy_from_slice(&self.guards[seed * blocks..(seed + 1) * blocks]);
            let mut score = self.enabled[seed];
            loop {
                let mut grew = false;
                for &j in &self.live {
                    if self.in_d[j]
                        || !intersects(&self.footprints[j * blocks..(j + 1) * blocks], &self.union)
                    {
                        continue;
                    }
                    self.in_d[j] = true;
                    let guard = &self.guards[j * blocks..(j + 1) * blocks];
                    for (u, g) in self.union.iter_mut().zip(guard) {
                        *u |= g;
                    }
                    score += self.enabled[j];
                    grew = true;
                }
                if !grew {
                    break;
                }
            }
            if best.is_none_or(|b| score < b) {
                best = Some(score);
                self.best_d.copy_from_slice(&self.in_d);
            }
        }
        match best {
            Some(score) if (score as usize) < moves.len() => {
                out.extend(moves.iter().copied().filter(|m| self.best_d[m.msg.index()]));
                debug_assert_eq!(out.len(), score as usize);
                true
            }
            _ => false,
        }
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
