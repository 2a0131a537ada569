//! The bounded model checker: BFS over nondeterministic move interleavings.
//!
//! Where the kernel commits *every* admissible flit move per step in a fixed
//! arbitration order, the explorer branches on *each* admissible move
//! individually ([`MoveEnumerator`]) and searches the resulting transition
//! system breadth-first. Every configuration any greedy schedule can reach
//! decomposes into single-flit moves, so the explored graph contains every
//! kernel-reachable state — and many more: a deadlock is reachable in this
//! graph if and only if *some* interleaving of the workload deadlocks.
//!
//! BFS order makes the first deadlock found depth-minimal: its trace is the
//! shortest move sequence from the initial (all-pending) configuration to
//! any configuration satisfying `Ω`. This is the native analogue of
//! `lps2lts -Dt` + `tracepp` in the mCRL2 workflow the paper's authors used
//! (SNIPPETS.md): exhaustive enumeration with witness traces, rather than
//! schedule sampling.

use std::ops::ControlFlow;

use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::meta::InstanceMeta;
use genoc_core::moves::{Move, MoveEnumerator};
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::step::{AlwaysAdmit, HeadAdmission};
use genoc_core::switching::SwitchingPolicy;
use genoc_core::MsgId;

use crate::expand::Expander;
use crate::state::{StateArena, Workload};
use crate::symmetry::slot_perms;

/// The most worker threads, and the most frontier shards, the parallel
/// engine runs with. A level holds one bucket per (block, worker, shard),
/// up to `jobs × jobs × shards`: at 64 the empty ones take ≈ 15 MB.
/// Asking for more is an [`Error::ParallelismBound`].
pub const MAX_PARALLELISM: usize = 64;

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// The state bound: the search gives up with
    /// [`Verdict::BoundExceeded`] once it has stored at least this many
    /// (canonical) states, as far as it checks. The sequential engine checks
    /// after each state it stores, so it stops at exactly this many — but
    /// not before the root's first successor, so at 2 states under a bound
    /// of 0 or 1. The parallel engine ([`runs_parallel`]) checks when a BFS
    /// level ends, so it stops after the level that reaches the bound, with
    /// up to that level's fresh states more.
    ///
    /// [`runs_parallel`]: ExploreOptions::runs_parallel
    pub max_states: usize,
    /// Quotient the state space by verified node automorphisms.
    pub symmetry: bool,
    /// Record the full transition graph for `.aut`/DOT export (memory
    /// proportional to the number of transitions). Graph recording forces
    /// the sequential path even when `jobs > 1`.
    pub record_graph: bool,
    /// Prune commuting interleavings with per-state ample sets (see
    /// [`crate::por`]). Verdicts and minimal counterexample depths are
    /// unchanged; state and transition counts shrink. Silently ignored when
    /// the admission predicate is opaque
    /// ([`HeadAdmission::kind`] returns `None`), where the independence
    /// relation is not known to hold.
    pub por: bool,
    /// Worker threads. With `jobs > 1` (and `record_graph` off) the search
    /// runs as a level-synchronized sharded frontier; verdicts and minimal
    /// counterexample depths are independent of the job count. At most
    /// [`MAX_PARALLELISM`] on the parallel path.
    pub jobs: usize,
    /// Frontier shards for the parallel path; `0` means one per job. The
    /// verdict is independent of the shard count. At most
    /// [`MAX_PARALLELISM`].
    pub shards: usize,
    /// Approximate memory budget in bytes for interned states and edges.
    /// Without a [`spill_dir`](ExploreOptions::spill_dir), exceeding it
    /// ends the search with [`Verdict::BoundExceeded`], like `max_states`;
    /// with one, cold arena segments and frontier blocks spill to disk and
    /// the search continues.
    ///
    /// The budget is held against [`Exploration::peak_bytes`]' accounting:
    /// each edge counts as its 40-byte record, not with the canonicalising
    /// permutation it owns on the heap, and allocator slack is not counted.
    /// It bounds that accounted store, not the process.
    pub mem_limit: Option<usize>,
    /// Directory for the disk-spill tier (see [`crate::spill`]). Setting it
    /// routes the search through the parallel engine even at `jobs = 1`
    /// (graph recording still forces the sequential path) and turns
    /// [`mem_limit`](ExploreOptions::mem_limit) from a stop condition into
    /// a spill trigger. Verdicts, depths, and stored-state counts are
    /// invariant under spilling.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 100_000,
            symmetry: true,
            record_graph: false,
            por: false,
            jobs: 1,
            shards: 0,
            mem_limit: None,
            spill_dir: None,
        }
    }
}

impl ExploreOptions {
    /// Whether these options run the parallel engine: more than one job or
    /// a spill directory, and no graph recording.
    pub fn runs_parallel(&self) -> bool {
        (self.jobs > 1 || self.spill_dir.is_some()) && !self.record_graph
    }
}

/// What stopped a [`Verdict::BoundExceeded`] search (see
/// [`Exploration::bound`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BoundReason {
    /// [`ExploreOptions::max_states`] was reached.
    States,
    /// [`ExploreOptions::mem_limit`] was exceeded with no spill directory
    /// configured.
    Memory,
}

impl BoundReason {
    /// Short machine-readable label (`state-bound`, `memory-bound`).
    pub fn label(self) -> &'static str {
        match self {
            BoundReason::States => "state-bound",
            BoundReason::Memory => "memory-bound",
        }
    }
}

/// Exploration outcome.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The *entire* reachable state space was enumerated and no
    /// configuration satisfies `Ω`: an exhaustive deadlock-freedom proof
    /// for this workload under every move interleaving.
    NoReachableDeadlock,
    /// A reachable deadlock exists; the counterexample trace is
    /// depth-minimal.
    Deadlock(Counterexample),
    /// The state bound was hit with frontier states unexpanded: no verdict.
    BoundExceeded,
}

impl Verdict {
    /// Short machine-readable label (`no-deadlock`, `deadlock`, `bound`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::NoReachableDeadlock => "no-deadlock",
            Verdict::Deadlock(_) => "deadlock",
            Verdict::BoundExceeded => "bound",
        }
    }
}

/// A depth-minimal move sequence from the initial configuration to a
/// configuration where `Ω` holds, in the *concrete* frame (symmetry
/// canonicalizations folded back out), replayable via [`replay`].
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The moves, in order.
    pub trace: Vec<Move>,
    /// The deadlocked configuration the trace reaches.
    pub config: Config,
}

/// Terminal status of a recorded state (graph export only).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateStatus {
    /// Some move is admissible.
    Live,
    /// All messages delivered.
    Evacuated,
    /// `Ω` holds.
    Deadlock,
}

/// A recorded transition graph (see [`ExploreOptions::record_graph`]).
pub struct StateGraph {
    /// Transitions `(source id, move, target id)`, moves labelled in the
    /// source state's canonical frame.
    pub edges: Vec<(u32, Move, u32)>,
    /// Per-state terminal status, indexed by state id. States never
    /// expanded (bound hit, or discovered after a deadlock) are `Live`.
    pub status: Vec<StateStatus>,
}

/// Result of an exploration.
pub struct Exploration {
    /// The verdict.
    pub verdict: Verdict,
    /// Canonical states discovered.
    pub states: usize,
    /// Transitions traversed (successor applications).
    pub transitions: u64,
    /// Enabled moves summed over expanded states, *before* any ample-set
    /// reduction; with [`ExploreOptions::por`] the ratio
    /// `enabled_moves / transitions` is the per-state branching reduction.
    pub enabled_moves: u64,
    /// Largest BFS depth expanded.
    pub depth: usize,
    /// Size of the symmetry group used (1 = identity only).
    pub group_size: usize,
    /// Peak resident bytes of the state store (arena + edges + frontier),
    /// sampled at level/expansion granularity — the figure `--mem-limit`
    /// bounds. An edge counts as its 40-byte record: the canonicalising
    /// permutation it owns on the heap is not counted, and neither is
    /// allocator slack, so the process holds more than this.
    pub peak_bytes: usize,
    /// Total bytes written to the disk-spill tier (0 without
    /// [`ExploreOptions::spill_dir`]).
    pub spilled_bytes: u64,
    /// Why a [`Verdict::BoundExceeded`] search stopped; `None` for
    /// conclusive verdicts.
    pub bound: Option<BoundReason>,
    /// The recorded graph, if requested.
    pub graph: Option<StateGraph>,
}

impl Exploration {
    /// The counterexample, if the verdict is a deadlock.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match &self.verdict {
            Verdict::Deadlock(cex) => Some(cex),
            _ => None,
        }
    }
}

pub(crate) struct Edge {
    pub(crate) parent: u32,
    pub(crate) mv: Move,
    /// Canonicalization permutation applied when this state was interned
    /// (`None` = identity): `canonical_child[j] = concrete_child[perm[j]]`.
    pub(crate) perm: Option<Box<[usize]>>,
    pub(crate) depth: u32,
}

/// Explores every reachable configuration of `specs` on the instance under
/// the given head-admission rule, breadth-first, up to
/// [`ExploreOptions::max_states`].
///
/// `meta` drives symmetry-candidate generation only; pass the instance's
/// own metadata (or disable symmetry).
///
/// # Errors
///
/// Propagates route-computation errors and configuration-invariant
/// violations (which indicate bugs, not deadlocks).
pub fn explore(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    meta: &InstanceMeta,
    specs: &[MessageSpec],
    admission: &dyn HeadAdmission,
    options: &ExploreOptions,
) -> Result<Exploration> {
    let workload = Workload::new(net, routing, specs)?;
    let perms = if options.symmetry {
        slot_perms(net, meta, &workload.routes())
    } else {
        vec![(0..workload.slots()).collect()]
    };
    // The spill tier lives in the parallel engine's level/block machinery,
    // so a spill directory routes through it even single-threaded.
    if options.runs_parallel() {
        return crate::parallel::explore_parallel(
            net, routing, specs, admission, options, &workload, &perms,
        );
    }
    let group_size = perms.len();
    let mut expander = Expander::new(net, &workload, &perms, admission, options.por);

    let root_key = workload.initial_key();
    let mut table = StateArena::new(root_key.len());
    let mut edges: Vec<Option<Edge>> = Vec::new();
    let (root, _) = table.intern(&root_key);
    edges.push(None);
    let mut queue = std::collections::VecDeque::from([root]);
    let mut graph = options.record_graph.then(|| StateGraph {
        edges: Vec::new(),
        status: vec![StateStatus::Live],
    });

    let mut transitions = 0u64;
    let mut enabled_moves = 0u64;
    let mut depth = 0usize;
    // The expanded state's key, out of the arena its children go into.
    let mut key = Vec::with_capacity(root_key.len());
    let mut bounded = None;
    let mut deadlock = None;
    let mut peak_bytes = 0usize;

    while let Some(id) = queue.pop_front() {
        peak_bytes = peak_bytes.max(resident_bytes(&table, &edges));
        let at_depth = edges[id as usize].as_ref().map_or(0, |e| e.depth) as usize;
        depth = depth.max(at_depth);
        key.clear();
        key.extend_from_slice(table.key(id));
        let status = expander.expand(&key, |mv, child, perm| {
            transitions += 1;
            let (child_id, fresh) = table.intern(child);
            if fresh {
                edges.push(Some(Edge {
                    parent: id,
                    mv,
                    perm: perm.map(Box::from),
                    depth: at_depth as u32 + 1,
                }));
                if let Some(g) = graph.as_mut() {
                    g.status.push(StateStatus::Live);
                }
                queue.push_back(child_id);
            }
            if let Some(g) = graph.as_mut() {
                g.edges.push((id, mv, child_id));
            }
            if table.len() >= options.max_states {
                bounded = Some(BoundReason::States);
            } else if (options.mem_limit).is_some_and(|l| resident_bytes(&table, &edges) >= l) {
                bounded = Some(BoundReason::Memory);
            }
            match bounded {
                Some(_) => ControlFlow::Break(()),
                None => ControlFlow::Continue(()),
            }
        })?;
        enabled_moves += expander.enabled() as u64;
        if let Some(g) = graph.as_mut() {
            g.status[id as usize] = status;
        }
        // BFS pops in depth order, so at a deadlock `depth` is its depth.
        deadlock = (status == StateStatus::Deadlock).then_some(id);
        if deadlock.is_some() || bounded.is_some() {
            break;
        }
    }

    peak_bytes = peak_bytes.max(resident_bytes(&table, &edges));
    let verdict = if let Some(id) = deadlock {
        Verdict::Deadlock(rebuild_counterexample(
            net, routing, specs, &edges, id, &workload,
        )?)
    } else if bounded.is_some() || !queue.is_empty() {
        Verdict::BoundExceeded
    } else {
        Verdict::NoReachableDeadlock
    };
    let bound =
        matches!(verdict, Verdict::BoundExceeded).then(|| bounded.unwrap_or(BoundReason::States));
    Ok(Exploration {
        verdict,
        states: table.len(),
        transitions,
        enabled_moves,
        depth,
        group_size,
        peak_bytes,
        spilled_bytes: 0,
        bound,
        graph,
    })
}

/// Resident bytes of the sequential search: the arena plus the edge store,
/// what [`ExploreOptions::mem_limit`] bounds.
fn resident_bytes(table: &StateArena, edges: &[Option<Edge>]) -> usize {
    table.bytes() + std::mem::size_of_val(edges)
}

/// Explores under a switching policy's admission rule (wormhole admission
/// if the policy exposes no kernel spec).
///
/// # Errors
///
/// As [`explore`].
pub fn explore_policy(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    meta: &InstanceMeta,
    specs: &[MessageSpec],
    policy: &dyn SwitchingPolicy,
    options: &ExploreOptions,
) -> Result<Exploration> {
    let admission = policy
        .kernel_spec()
        .map_or(&AlwaysAdmit as &dyn HeadAdmission, |s| s.admission);
    explore(net, routing, meta, specs, admission, options)
}

/// Folds the canonical parent chain of `id` back into the concrete frame.
fn rebuild_counterexample(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    edges: &[Option<Edge>],
    id: u32,
    workload: &Workload,
) -> Result<Counterexample> {
    let mut chain = Vec::new();
    let mut at = id;
    while let Some(edge) = edges[at as usize].as_ref() {
        chain.push((edge.mv, edge.perm.as_deref()));
        at = edge.parent;
    }
    chain.reverse();
    concretize_trace(net, routing, specs, workload, &chain)
}

/// Turns a root-to-deadlock chain of canonical moves (each paired with the
/// canonicalization permutation applied when its target was interned) into
/// a concrete, replay-validated counterexample: walking from the root, each
/// stored move's slot is routed through the composition of the
/// permutations seen so far.
pub(crate) fn concretize_trace(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    workload: &Workload,
    chain: &[(Move, Option<&[usize]>)],
) -> Result<Counterexample> {
    let slots = workload.slots();
    // pi maps canonical slots to concrete slots: canonical[j] = concrete[pi[j]].
    let mut pi: Vec<usize> = (0..slots).collect();
    let mut trace = Vec::with_capacity(chain.len());
    for (mv, perm) in chain {
        let canonical_slot = mv.msg.index();
        trace.push(Move {
            msg: MsgId::from_index(pi[canonical_slot]),
            ..*mv
        });
        if let Some(perm) = perm {
            pi = perm.iter().map(|&s| pi[s]).collect();
        }
    }
    let config = replay(net, routing, specs, &trace)?;
    Ok(Counterexample { trace, config })
}

/// Replays a move trace from the initial configuration of `specs`,
/// re-validating every move, and returns the configuration reached.
///
/// Replay is admission-agnostic on purpose: it checks each move against the
/// *wormhole* rules (the weakest admission), so traces produced under any
/// stricter policy replay too. Callers wanting the policy's own `Ω` should
/// test the result with a [`MoveEnumerator`] over that policy's admission.
///
/// # Errors
///
/// [`Error::Invariant`] if some move is inadmissible where the trace plays
/// it — a trace/instance mismatch or an explorer bug.
pub fn replay(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    trace: &[Move],
) -> Result<Config> {
    let mut cfg = Config::from_specs(net, routing, specs)?;
    let enumerator = MoveEnumerator::new(&AlwaysAdmit);
    for (i, mv) in trace.iter().enumerate() {
        enumerator.apply(&mut cfg, *mv).map_err(|e| {
            Error::Invariant(format!(
                "counterexample replay failed at move {i} ({mv}): {e}"
            ))
        })?;
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::meta::RoutingKind;
    use genoc_core::step::any_move_possible_with;
    use genoc_core::NodeId;
    use genoc_routing::ring::RingShortestRouting;
    use genoc_routing::xy::XyRouting;
    use genoc_topology::mesh::Mesh;
    use genoc_topology::ring::Ring;

    fn spec(s: usize, d: usize, flits: usize) -> MessageSpec {
        MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), flits)
    }

    #[test]
    fn xy_cross_traffic_is_exhaustively_deadlock_free() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        let meta = InstanceMeta::new(RoutingKind::Xy, 2, 2, 1);
        // Routes of opposing corner pairs are disjoint, so the state space
        // is near-multiplicative: three messages keep it comfortably under
        // the default bound while still interleaving on shared links.
        let specs = [spec(0, 3, 2), spec(3, 0, 2), spec(1, 2, 2)];
        let result = explore(
            &mesh,
            &routing,
            &meta,
            &specs,
            &AlwaysAdmit,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(
            matches!(result.verdict, Verdict::NoReachableDeadlock),
            "XY must be deadlock-free under every interleaving ({} states)",
            result.states
        );
        assert!(result.states > 1);
    }

    #[test]
    fn ring_pressure_yields_minimal_counterexample() {
        let ring = Ring::new(4, 1);
        let routing = RingShortestRouting::new(&ring);
        let meta = InstanceMeta::new(RoutingKind::RingShortest, 4, 1, 1);
        // Every node sends two hops clockwise (cw wins the distance tie):
        // four worms saturate the cw cycle.
        let specs: Vec<MessageSpec> = (0..4).map(|i| spec(i, (i + 2) % 4, 2)).collect();
        let result = explore(
            &ring,
            &routing,
            &meta,
            &specs,
            &AlwaysAdmit,
            &ExploreOptions::default(),
        )
        .unwrap();
        let cex = result
            .counterexample()
            .expect("saturating the cw ring cycle must deadlock");
        assert_eq!(cex.trace.len(), result.depth);
        assert!(!any_move_possible_with(&cex.config, &AlwaysAdmit));
        assert!(cex.config.travels().iter().any(|t| !t.is_arrived()));
        // Replay from scratch reproduces the same configuration.
        let replayed = replay(&ring, &routing, &specs, &cex.trace).unwrap();
        assert_eq!(replayed.position_key(), cex.config.position_key());
    }

    #[test]
    fn symmetry_reduces_without_changing_the_verdict() {
        let ring = Ring::new(4, 1);
        let routing = RingShortestRouting::new(&ring);
        let meta = InstanceMeta::new(RoutingKind::RingShortest, 4, 1, 1);
        let specs: Vec<MessageSpec> = (0..4).map(|i| spec(i, (i + 2) % 4, 2)).collect();
        let base = ExploreOptions {
            symmetry: false,
            ..ExploreOptions::default()
        };
        let full = explore(&ring, &routing, &meta, &specs, &AlwaysAdmit, &base).unwrap();
        let reduced = explore(
            &ring,
            &routing,
            &meta,
            &specs,
            &AlwaysAdmit,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(reduced.group_size > 1, "rotational symmetry must survive");
        assert_eq!(full.verdict.label(), reduced.verdict.label());
        // Minimal depth is a graph invariant; the quotient preserves it.
        assert_eq!(full.depth, reduced.depth);
    }

    #[test]
    fn bound_is_respected() {
        let mesh = Mesh::new(3, 3, 1);
        let routing = XyRouting::new(&mesh);
        let meta = InstanceMeta::new(RoutingKind::Xy, 3, 3, 1);
        let specs: Vec<MessageSpec> = (0..8).map(|i| spec(i, (i + 4) % 9, 3)).collect();
        let options = ExploreOptions {
            max_states: 50,
            symmetry: false,
            ..ExploreOptions::default()
        };
        let result = explore(&mesh, &routing, &meta, &specs, &AlwaysAdmit, &options).unwrap();
        assert!(matches!(result.verdict, Verdict::BoundExceeded));
        assert!(result.states <= 50);
    }

    #[test]
    fn por_and_parallel_agree_with_the_full_sequential_search() {
        let ring = Ring::new(4, 1);
        let routing = RingShortestRouting::new(&ring);
        let meta = InstanceMeta::new(RoutingKind::RingShortest, 4, 1, 1);
        let specs: Vec<MessageSpec> = (0..4).map(|i| spec(i, (i + 2) % 4, 2)).collect();
        let full = explore(
            &ring,
            &routing,
            &meta,
            &specs,
            &AlwaysAdmit,
            &ExploreOptions::default(),
        )
        .unwrap();
        for options in [
            ExploreOptions {
                por: true,
                ..ExploreOptions::default()
            },
            ExploreOptions {
                jobs: 3,
                ..ExploreOptions::default()
            },
            ExploreOptions {
                por: true,
                jobs: 2,
                shards: 5,
                ..ExploreOptions::default()
            },
        ] {
            let run = explore(&ring, &routing, &meta, &specs, &AlwaysAdmit, &options).unwrap();
            assert_eq!(run.verdict.label(), full.verdict.label(), "{options:?}");
            assert_eq!(run.depth, full.depth, "{options:?}");
            let cex = run.counterexample().expect("the cw cycle deadlocks");
            assert_eq!(cex.trace.len(), full.counterexample().unwrap().trace.len());
            // Replay must validate the trace in the concrete frame.
            let replayed = replay(&ring, &routing, &specs, &cex.trace).unwrap();
            assert_eq!(replayed.position_key(), cex.config.position_key());
            if options.por {
                assert!(
                    run.states <= full.states,
                    "POR must not grow the state count ({options:?})"
                );
            }
        }
    }

    #[test]
    fn parallel_completes_exhaustive_proofs_identically() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        let meta = InstanceMeta::new(RoutingKind::Xy, 2, 2, 1);
        let specs = [spec(0, 3, 2), spec(3, 0, 2), spec(1, 2, 2)];
        let seq = explore(
            &mesh,
            &routing,
            &meta,
            &specs,
            &AlwaysAdmit,
            &ExploreOptions::default(),
        )
        .unwrap();
        let par = explore(
            &mesh,
            &routing,
            &meta,
            &specs,
            &AlwaysAdmit,
            &ExploreOptions {
                jobs: 4,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(par.verdict, Verdict::NoReachableDeadlock));
        // A complete exploration visits the same canonical quotient no
        // matter how it is scheduled.
        assert_eq!(par.states, seq.states);
        assert_eq!(par.depth, seq.depth);
    }

    #[test]
    fn mem_limit_yields_bound_exceeded() {
        let mesh = Mesh::new(3, 3, 1);
        let routing = XyRouting::new(&mesh);
        let meta = InstanceMeta::new(RoutingKind::Xy, 3, 3, 1);
        let specs: Vec<MessageSpec> = (0..8).map(|i| spec(i, (i + 4) % 9, 3)).collect();
        for jobs in [1, 2] {
            let options = ExploreOptions {
                symmetry: false,
                jobs,
                mem_limit: Some(16 * 1024),
                ..ExploreOptions::default()
            };
            let result = explore(&mesh, &routing, &meta, &specs, &AlwaysAdmit, &options).unwrap();
            assert!(
                matches!(result.verdict, Verdict::BoundExceeded),
                "a 16 KiB budget cannot hold this space (jobs={jobs})"
            );
        }
    }

    #[test]
    fn empty_workload_is_trivially_evacuated() {
        let mesh = Mesh::new(2, 2, 1);
        let routing = XyRouting::new(&mesh);
        let meta = InstanceMeta::new(RoutingKind::Xy, 2, 2, 1);
        let result = explore(
            &mesh,
            &routing,
            &meta,
            &[],
            &AlwaysAdmit,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(matches!(result.verdict, Verdict::NoReachableDeadlock));
        assert_eq!(result.states, 1);
    }
}
