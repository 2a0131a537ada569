//! The traced run: each workload's engine call replaced by a loop the
//! benchmark owns, built from the crates' public pieces and timed from this
//! side of every call.
//!
//! A probe must reproduce the outputs its engine produces — the same pinned
//! values are checked — or its per-layer numbers describe some other
//! computation. End-to-end metrics are never taken from here: every probe
//! also makes one untraced engine call, only to express its own time as a
//! ratio of the real thing (`trace.overhead_ratio`) and to take the engine's
//! self time as the difference.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::Instant;

use genoc_campaign::{run_campaign, CampaignReport};
use genoc_core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
use genoc_core::config::Config;
use genoc_core::error::Result as CoreResult;
use genoc_core::interpreter::Outcome;
use genoc_core::kernel::Transition;
use genoc_core::moves::{Move, MoveEnumerator};
use genoc_core::network::Network;
use genoc_core::routing::{compute_route, RoutingFunction};
use genoc_core::spec::MessageSpec;
use genoc_core::step::{AlwaysAdmit, HeadAdmission};
use genoc_core::switching::SwitchingPolicy;
use genoc_core::trace::{Event, Trace};
use genoc_core::{MsgId, PortId};
use genoc_explore::{
    pressure_specs, slot_perms, AmpleSelector, ExploreOptions, SpillDir, StateArena, Workload,
};
use genoc_sim::{DetectorHook, NullObserver, RunObserver};
use genoc_switching::wormhole::WormholePolicy;
use genoc_verif::Instance;

use crate::trace::{Laps, SpanId, Tracer};
use crate::workloads::{
    self, campaign_outputs, clear_wal, explore_outputs, explore_ram_options, observed_run,
    read_back, record_and_flush, recover_outputs, recovery_engine, replay_final, run_explore,
    run_recorded, run_simulate, sim_options, sim_run_outputs, CampaignCell, ExploreCell, Output,
    Prepared, SimCell, WorkloadId, JOBS,
};

/// Per-layer metric values by name; a metric a probe does not set reads 0 —
/// the layer did no work on that workload.
pub type Values = BTreeMap<&'static str, f64>;

/// What a traced run hands back.
pub struct Probed {
    /// Per-layer metric values.
    pub values: Values,
    /// The probe's outputs, checked like an untraced rep's.
    pub outputs: Vec<(&'static str, Output)>,
    /// The spans.
    pub tracer: Tracer,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Wall seconds of `f`, untraced.
fn wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn text<T>(result: CoreResult<T>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

/// Sets the two harness metrics: how much of the probe's wall its layers'
/// busy time explains, and the probe's engine-equivalent span against the
/// untraced engine call.
fn harness_metrics(v: &mut Values, busy_s: f64, probe_s: f64, engine_s: f64, untraced_s: f64) {
    v.insert("trace.coverage", ratio(busy_s, probe_s));
    v.insert("trace.overhead_ratio", ratio(engine_s, untraced_s));
}

// ---------------------------------------------------------------------------
// sim probe: sim-uniform, sim-hotspot
// ---------------------------------------------------------------------------

/// What [`arena_replica`] saw and how long each public call kept `core`
/// busy.
pub struct ArenaRun {
    /// How the run ended.
    pub outcome: Outcome,
    /// Switching steps.
    pub steps: u64,
    /// Flit moves.
    pub moves: u64,
    /// Delivered flits at the end.
    pub delivered_flits: u64,
    /// Arrived messages at the end.
    pub arrived_msgs: u64,
    /// `Config::from_specs`, route computation included.
    pub from_specs_s: f64,
    /// `ArenaConfig::from_config` + `ArenaKernel::new`.
    pub arena_build_s: f64,
    /// One `ArenaConfig::clone` of the freshly built arena.
    pub clone_s: f64,
    /// Busy time of `is_deadlock`, `step` and `drain_arrived`.
    pub laps: Laps<3>,
}

/// `simulate` on the arena stepper, rebuilt from public pieces: the
/// configuration, the arena, and the Ω-check / step / drain loop of
/// `core::arena::run_arena`, with one clock read per call boundary.
pub fn arena_replica(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    max_steps: u64,
    t: &mut Tracer,
    parent: SpanId,
) -> Result<ArenaRun, String> {
    let (cfg, from_specs_s) = t.time("Config::from_specs", "core", Some(parent), || {
        Config::from_specs(net, routing, specs)
    });
    let cfg = text(cfg)?;
    let spec = WormholePolicy::default()
        .kernel_spec()
        .and_then(|s| ArenaSpec::from_kernel_spec(&s))
        .ok_or("wormhole switching has no arena spec")?;
    let build = t.open(
        "ArenaConfig::from_config + ArenaKernel::new",
        "core",
        Some(parent),
    );
    let mut arena = text(ArenaConfig::from_config(net, &cfg))?;
    let mut kernel = ArenaKernel::new(&arena, spec);
    let arena_build_s = t.close(build);
    drop(cfg);
    let (_, clone_s) = t.time("ArenaConfig::clone", "core", Some(parent), || {
        std::hint::black_box(arena.clone());
    });

    let loop_span = t.open("arena loop", "sim", Some(parent));
    let mut trace = Trace::new(false);
    let (mut steps, mut moves) = (0u64, 0u64);
    let mut laps = Laps::<3>::new();
    let outcome = loop {
        if arena.is_evacuated() {
            break Outcome::Evacuated;
        }
        laps.start();
        let deadlock = kernel.is_deadlock(&arena);
        laps.lap(0);
        if deadlock {
            break Outcome::Deadlock;
        }
        if steps >= max_steps {
            break Outcome::StepLimit;
        }
        trace.begin_step(steps);
        laps.start();
        let report = text(kernel.step(&mut arena, &mut trace))?;
        laps.lap(1);
        if kernel.take_saw_arrival() {
            kernel.drain_arrived(&mut arena);
        }
        laps.lap(2);
        if report.moves() == 0 {
            return Err(format!("no flit moved in step {steps}"));
        }
        moves += report.moves() as u64;
        steps += 1;
    };
    t.close(loop_span);
    for (phase, name) in [
        "ArenaKernel::is_deadlock",
        "ArenaKernel::step",
        "ArenaKernel::drain_arrived",
    ]
    .into_iter()
    .enumerate()
    {
        t.calls(
            loop_span,
            name,
            "core",
            laps.count[phase],
            laps.busy_ns[phase],
        );
    }
    Ok(ArenaRun {
        outcome,
        steps,
        moves,
        delivered_flits: arena.delivered_flits(),
        arrived_msgs: arena.arrived_count() as u64,
        from_specs_s,
        arena_build_s,
        clone_s,
        laps,
    })
}

/// Builds a simulated workload's cell piece by piece, timing the mesh
/// (`topology.build_s`) and the traffic generator (`sim.workload_gen_s`).
fn traced_cell(id: WorkloadId, seed: u64, t: &mut Tracer, root: SpanId, v: &mut Values) -> SimCell {
    let (mesh, topology_s) = t.time("Mesh::new", "topology", Some(root), || {
        workloads::sim_mesh(id)
    });
    let routing = workloads::sim_routing(id, &mesh);
    let (specs, gen_s) = t.time("workload generation", "sim", Some(root), || {
        workloads::sim_specs(id, mesh.node_count(), seed)
    });
    v.insert("topology.build_s", topology_s);
    v.insert("sim.workload_gen_s", gen_s);
    SimCell {
        mesh,
        routing,
        specs,
    }
}

fn sim_probe(id: WorkloadId, seed: u64) -> Result<Probed, String> {
    let mut t = Tracer::new(id.name());
    let mut v = Values::new();
    let root = t.open("probe", "harness", None);

    let cell = traced_cell(id, seed, &mut t, root, &mut v);
    let net: &dyn Network = &cell.mesh;

    // Route computation on its own, so the routing layer's share of
    // `Config::from_specs` (which makes the same calls) is known.
    let route_span = t.open("compute_route per spec", "routing", Some(root));
    let mut hops = 0u64;
    for spec in &cell.specs {
        let (from, to) = (net.local_in(spec.source), net.local_out(spec.dest));
        hops += text(compute_route(net, cell.routing.as_ref(), from, to))?.len() as u64 - 1;
    }
    let route_s = t.close(route_span);

    let engine = t.open("simulate replica", "sim", Some(root));
    let max_steps = sim_options().max_steps;
    let run = arena_replica(
        net,
        cell.routing.as_ref(),
        &cell.specs,
        max_steps,
        &mut t,
        engine,
    )?;
    let engine_s = t.close(engine);
    let probe_s = t.close(root);

    let (result, untraced_s) = wall(|| run_simulate(&cell));
    let result = result?;
    if (run.outcome, run.steps) != (result.run.outcome, result.run.steps) {
        return Err(format!(
            "probe drifted from the engine: {:?} after {} steps here, {:?} after {} in simulate",
            run.outcome, run.steps, result.run.outcome, result.run.steps
        ));
    }

    let [is_deadlock_s, step_s, drain_s] = [0, 1, 2].map(|p| run.laps.seconds(p));
    v.insert("routing.route_s", route_s);
    v.insert("routing.routes", cell.specs.len() as f64);
    v.insert("routing.ns_per_hop", ratio(route_s * 1e9, hops as f64));
    v.insert("core.config_build_s", (run.from_specs_s - route_s).max(0.0));
    v.insert("core.arena_build_s", run.arena_build_s);
    v.insert("core.arena_step_s", step_s);
    v.insert("core.arena_steps", run.steps as f64);
    v.insert("core.arena_moves", run.moves as f64);
    v.insert(
        "core.arena_ns_per_move",
        ratio(step_s * 1e9, run.moves as f64),
    );
    v.insert(
        "core.arena_ns_per_step",
        ratio(step_s * 1e9, run.steps as f64),
    );
    v.insert("core.arena_is_deadlock_s", is_deadlock_s);
    v.insert("core.arena_drain_s", drain_s);
    v.insert("core.arena_clone_s", run.clone_s);
    let children = run.from_specs_s + run.arena_build_s + step_s + is_deadlock_s + drain_s;
    v.insert("sim.runner_self_s", untraced_s - children);
    let busy = v["topology.build_s"] + v["sim.workload_gen_s"] + route_s + children + run.clone_s;
    harness_metrics(&mut v, busy, probe_s, engine_s, untraced_s);

    let outputs = sim_run_outputs(
        &cell.specs,
        run.outcome,
        run.steps,
        run.delivered_flits,
        run.arrived_msgs,
    );
    Ok(Probed {
        values: v,
        outputs,
        tracer: t,
    })
}

// ---------------------------------------------------------------------------
// observed probe: sim-recover-wal
// ---------------------------------------------------------------------------

/// Busy time and call count of the calls a shim forwarded.
#[derive(Default)]
pub struct CallTimer {
    /// Nanoseconds spent inside the wrapped calls.
    pub busy_ns: u64,
    /// Calls forwarded.
    pub calls: u64,
}

impl CallTimer {
    fn charge<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

/// A [`DetectorHook`] that times every call into the hook it wraps.
pub struct TimedHook<'a, H: DetectorHook> {
    inner: &'a mut H,
    /// What the inner hook cost.
    pub timer: CallTimer,
}

impl<'a, H: DetectorHook> TimedHook<'a, H> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut H) -> Self {
        TimedHook {
            inner,
            timer: CallTimer::default(),
        }
    }
}

impl<H: DetectorHook> DetectorHook for TimedHook<'_, H> {
    fn after_step(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> CoreResult<()> {
        let inner = &mut *self.inner;
        self.timer.charge(|| inner.after_step(net, cfg, step))
    }

    fn after_kernel_step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        transitions: &[Transition],
        step: u64,
    ) -> CoreResult<bool> {
        let inner = &mut *self.inner;
        self.timer
            .charge(|| inner.after_kernel_step(net, cfg, transitions, step))
    }

    fn on_deadlock(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> CoreResult<bool> {
        let inner = &mut *self.inner;
        self.timer.charge(|| inner.on_deadlock(net, cfg, step))
    }

    fn on_drained(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> CoreResult<bool> {
        let inner = &mut *self.inner;
        self.timer.charge(|| inner.on_drained(net, cfg, step))
    }
}

/// A [`RunObserver`] that times every call into the observer it wraps.
pub struct TimedObserver<'a, O: RunObserver> {
    inner: &'a mut O,
    /// What the inner observer cost.
    pub timer: CallTimer,
}

impl<'a, O: RunObserver> TimedObserver<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut O) -> Self {
        TimedObserver {
            inner,
            timer: CallTimer::default(),
        }
    }
}

impl<O: RunObserver> RunObserver for TimedObserver<'_, O> {
    fn wants_moves(&self) -> bool {
        self.inner.wants_moves()
    }

    fn on_run_start(&mut self, net: &dyn Network, cfg: &Config) -> CoreResult<()> {
        let inner = &mut *self.inner;
        self.timer.charge(|| inner.on_run_start(net, cfg))
    }

    fn on_step(
        &mut self,
        cfg: &Config,
        step: u64,
        transitions: &[Transition],
        freed: &[PortId],
        moves: &[Event],
        arrived: &[MsgId],
    ) -> CoreResult<()> {
        let inner = &mut *self.inner;
        self.timer
            .charge(|| inner.on_step(cfg, step, transitions, freed, moves, arrived))
    }

    fn on_mutation(&mut self, cfg: &Config, steps_done: u64) -> CoreResult<()> {
        let inner = &mut *self.inner;
        self.timer.charge(|| inner.on_mutation(cfg, steps_done))
    }

    fn on_run_end(&mut self, outcome: Outcome, steps: u64, cfg: &Config) -> CoreResult<()> {
        let inner = &mut *self.inner;
        self.timer.charge(|| inner.on_run_end(outcome, steps, cfg))
    }
}

fn observed_probe(id: WorkloadId, seed: u64, wal_path: &Path) -> Result<Probed, String> {
    let mut t = Tracer::new(id.name());
    let mut v = Values::new();
    let root = t.open("probe", "harness", None);

    let cell = traced_cell(id, seed, &mut t, root, &mut v);

    // The real `simulate_observed_config`, with shims around hook and
    // observer: what is left of its wall is the runner's own stepping.
    clear_wal(wal_path)?;
    let engine = t.open("recorded run", "sim", Some(root));
    let run_span = t.open("simulate_observed_config", "sim", Some(engine));
    let mut timers = (CallTimer::default(), CallTimer::default());
    let (recorded, writer) = run_recorded(&cell, seed, wal_path, |hook, recorder, cfg| {
        let mut hook = TimedHook::new(hook);
        let mut observer = TimedObserver::new(recorder);
        let result = observed_run(&cell, &mut hook, &mut observer, cfg);
        timers = (hook.timer, observer.timer);
        result
    })?;
    let run_s = t.close(run_span);
    let (hook, observer) = timers;
    t.calls(
        run_span,
        "DetectorHook calls",
        "detect",
        hook.calls,
        hook.busy_ns,
    );
    t.calls(
        run_span,
        "RunObserver calls",
        "obs",
        observer.calls,
        observer.busy_ns,
    );
    let (finished, finish_s) = t.time("WalWriter::finish", "obs", Some(engine), || writer.finish());
    finished.map_err(|e| e.to_string())?;
    let engine_s = t.close(engine);

    let (log, read_s) = t.time("read_wal", "obs", Some(root), || read_back(wal_path));
    let net: &dyn Network = &cell.mesh;
    let log = log?;
    let (replayed, replay_s) = t.time("recorded_outcome + replay_to", "obs", Some(root), || {
        replay_final(net, &log)
    });
    let replayed = replayed?;
    drop(log);
    let probe_s = t.close(root);

    // Untraced: the same recorded run, and the same run with nothing
    // recorded (same engine, no WAL, no observer) as the base of
    // `obs.record_over_plain`.
    clear_wal(wal_path)?;
    let (untraced, untraced_s) = wall(|| record_and_flush(&cell, seed, wal_path));
    untraced?;
    let (plain, plain_s) = wall(|| {
        let cfg = text(Config::from_specs(net, cell.routing.as_ref(), &cell.specs))?;
        observed_run(&cell, &mut recovery_engine(), &mut NullObserver, cfg)
    });
    if plain?.run.steps != recorded.result.run.steps {
        return Err("recording steered the run: step counts differ".into());
    }

    let (hook_s, observer_s) = (hook.busy_ns as f64 / 1e9, observer.busy_ns as f64 / 1e9);
    v.insert("sim.runner_self_s", run_s - hook_s - observer_s);
    v.insert("detect.hook_s", hook_s);
    v.insert("detect.hook_calls", hook.calls as f64);
    v.insert(
        "detect.ns_per_call",
        ratio(hook.busy_ns as f64, hook.calls as f64),
    );
    v.insert("detect.detections", recorded.detections as f64);
    v.insert("detect.aborted_msgs", recorded.aborted_msgs as f64);
    v.insert("obs.on_step_s", observer_s);
    v.insert("obs.wal_records", recorded.wal_records as f64);
    v.insert("obs.wal_bytes", recorded.wal_bytes as f64);
    v.insert(
        "obs.ns_per_record",
        ratio(observer.busy_ns as f64, recorded.wal_records as f64),
    );
    v.insert("obs.finish_s", finish_s);
    v.insert("obs.read_s", read_s);
    v.insert("obs.replay_s", replay_s);
    v.insert(
        "obs.read_mib_per_s",
        ratio(recorded.wal_bytes as f64 / (1 << 20) as f64, read_s),
    );
    v.insert("obs.record_over_plain", ratio(untraced_s, plain_s));
    let busy =
        v["topology.build_s"] + v["sim.workload_gen_s"] + run_s + finish_s + read_s + replay_s;
    harness_metrics(&mut v, busy, probe_s, engine_s, untraced_s);

    Ok(Probed {
        values: v,
        outputs: recover_outputs(&cell, &recorded, &replayed),
        tracer: t,
    })
}

// ---------------------------------------------------------------------------
// explore probe: explore-ram, explore-spill
// ---------------------------------------------------------------------------

/// Phases of the per-state loop, in the order [`bfs_replica`] laps them.
const BFS_PHASES: [(&str, &str, &str); 7] = [
    ("explore.decode_s", "Workload::decode", "explore"),
    (
        "core.moves_enumerate_s",
        "MoveEnumerator::push_moves",
        "core",
    ),
    ("explore.ample_s", "AmpleSelector::select", "explore"),
    (
        "core.moves_apply_s",
        "Config::clone + MoveEnumerator::apply",
        "core",
    ),
    ("core.position_key_s", "Config::position_key", "core"),
    (
        "explore.canonicalize_s",
        "Workload::canonicalize_into",
        "explore",
    ),
    ("explore.intern_s", "StateArena::intern", "explore"),
];

/// What [`bfs_replica`] found, in the engine's terms.
pub struct BfsRun {
    /// `deadlock`, `no-deadlock` or `bound`.
    pub verdict: &'static str,
    /// Canonical states stored.
    pub states: u64,
    /// Successor applications.
    pub transitions: u64,
    /// Enabled moves before ample-set reduction.
    pub enabled_moves: u64,
    /// Depth of the deadlock, or the largest depth expanded.
    pub depth: u64,
    /// Symmetry group size.
    pub group_size: u64,
    /// `Workload::new`.
    pub workload_build_s: f64,
    /// `slot_perms`.
    pub symmetry_s: f64,
    /// Busy time per phase of [`BFS_PHASES`].
    pub laps: Laps<7>,
}

/// The sequential explorer's breadth-first search (`explorer.rs`), rebuilt
/// from the explore and core crates' public pieces. Successors of one state
/// are taken through each phase as a batch, so the clock is read once per
/// phase per state rather than once per successor; interning order — and
/// with it every state id and count — is the engine's.
pub fn bfs_replica(
    cell: &ExploreCell,
    options: &ExploreOptions,
    t: &mut Tracer,
    parent: SpanId,
) -> Result<BfsRun, String> {
    let net = cell.instance.net.as_ref();
    let routing = cell.instance.routing.as_ref();
    let policy = WormholePolicy::default();
    let admission = policy
        .kernel_spec()
        .map_or(&AlwaysAdmit as &dyn HeadAdmission, |s| s.admission);

    let (workload, workload_build_s) = t.time("Workload::new", "explore", Some(parent), || {
        Workload::new(net, routing, &cell.specs)
    });
    let workload = text(workload)?;
    let (perms, symmetry_s) = t.time("slot_perms", "explore", Some(parent), || {
        slot_perms(net, &cell.instance.meta, &workload.routes())
    });
    let enumerator = MoveEnumerator::new(admission);
    let mut selector = (options.por && admission.kind().is_some())
        .then(|| AmpleSelector::new(&workload, net.port_count()));

    let search = t.open("breadth-first search", "explore", Some(parent));
    let root_key = workload.initial_key();
    let mut table = StateArena::new(root_key.len());
    let (root, _) = table.intern(&root_key);
    let mut depth_of = vec![0u32];
    let mut queue = VecDeque::from([root]);
    let (mut transitions, mut enabled_moves, mut depth) = (0u64, 0u64, 0u64);
    let mut moves: Vec<Move> = Vec::new();
    let mut ample: Vec<Move> = Vec::new();
    let mut children: Vec<Config> = Vec::new();
    let mut keys: Vec<Vec<u16>> = Vec::new();
    let mut ckeys: Vec<Vec<u16>> = Vec::new();
    let mut scratch = Vec::new();
    let mut laps = Laps::<7>::new();
    let mut verdict = "no-deadlock";

    'search: while let Some(id) = queue.pop_front() {
        laps.start();
        let cfg = text(workload.decode(net, table.key(id)))?;
        laps.lap(0);
        let at_depth = depth_of[id as usize] as u64;
        depth = depth.max(at_depth);
        moves.clear();
        laps.start();
        enumerator.push_moves(&cfg, &mut moves);
        laps.lap(1);
        if moves.is_empty() {
            if !cfg.is_evacuated() {
                verdict = "deadlock";
                depth = at_depth;
                break;
            }
            continue;
        }
        enabled_moves += moves.len() as u64;
        laps.start();
        let reduced = selector
            .as_mut()
            .is_some_and(|sel| sel.select(&cfg, &moves, &mut ample));
        laps.lap(2);
        let expand: &[Move] = if reduced { &ample } else { &moves };

        children.clear();
        for &mv in expand {
            let mut child = cfg.clone();
            text(enumerator.apply(&mut child, mv))?;
            children.push(child);
        }
        laps.lap(3);
        keys.clear();
        keys.extend(children.iter().map(Config::position_key));
        laps.lap(4);
        ckeys.resize_with(keys.len(), Vec::new);
        for (key, ckey) in keys.iter().zip(ckeys.iter_mut()) {
            workload.canonicalize_into(key, &perms, ckey, &mut scratch);
        }
        laps.lap(5);
        for ckey in &ckeys {
            transitions += 1;
            let (child_id, fresh) = table.intern(ckey);
            if fresh {
                depth_of.push(at_depth as u32 + 1);
                queue.push_back(child_id);
            }
            if table.len() >= options.max_states {
                verdict = "bound";
                laps.lap(6);
                break 'search;
            }
        }
        laps.lap(6);
    }
    t.close(search);
    for (phase, (_, name, layer)) in BFS_PHASES.into_iter().enumerate() {
        t.calls(search, name, layer, laps.count[phase], laps.busy_ns[phase]);
    }
    Ok(BfsRun {
        verdict,
        states: table.len() as u64,
        transitions,
        enabled_moves,
        depth,
        group_size: perms.len() as u64,
        workload_build_s,
        symmetry_s,
        laps,
    })
}

/// Moves `bytes` through a spill file in 64 KiB blocks, out and back.
/// Returns `(write_s, read_s)`.
fn spill_io(root: &Path, bytes: u64, t: &mut Tracer, parent: SpanId) -> Result<(f64, f64), String> {
    const BLOCK: usize = 32 * 1024;
    let dir = text(SpillDir::create(root))?;
    let mut file = text(dir.file("probe"))?;
    let block: Vec<u16> = (0..BLOCK as u32).map(|i| i as u16).collect();
    let blocks = bytes.div_ceil(2 * BLOCK as u64);
    let write = t.open("SpillFile::append_u16s", "explore", Some(parent));
    let mut offsets = Vec::with_capacity(blocks as usize);
    for _ in 0..blocks {
        offsets.push(text(file.append_u16s(&block))?);
    }
    let write_s = t.close(write);
    let read = t.open("SpillFile::read_u16s", "explore", Some(parent));
    let mut back = Vec::new();
    for &offset in &offsets {
        text(file.read_u16s(offset, BLOCK, &mut back))?;
        if back != block {
            return Err(format!("spill block at {offset} read back changed"));
        }
    }
    let read_s = t.close(read);
    Ok((write_s, read_s))
}

fn explore_probe(id: WorkloadId, cell: &ExploreCell, scratch: &Path) -> Result<Probed, String> {
    let mut t = Tracer::new(id.name());
    let mut v = Values::new();
    let ram = explore_ram_options();

    let root = t.open("probe", "harness", None);
    let run = bfs_replica(cell, &ram, &mut t, root)?;
    let mut probe_s = t.close(root);
    let engine_s = probe_s;
    let mut busy = run.workload_build_s + run.symmetry_s;
    for (phase, (metric, _, _)) in BFS_PHASES.into_iter().enumerate() {
        v.insert(metric, run.laps.seconds(phase));
        busy += run.laps.seconds(phase);
    }

    // Untraced engine calls: the sequential one always (the replica mirrors
    // it), and for `explore-spill` the workload's own call plus the same
    // pool without a budget, which separates the pool from the disk tier.
    let (ram_result, ram_s) = wall(|| run_explore(cell, &ram));
    let ram_result = ram_result?;
    let mirrored = (
        ram_result.states as u64,
        ram_result.transitions,
        ram_result.enabled_moves,
        ram_result.depth as u64,
    );
    if (run.states, run.transitions, run.enabled_moves, run.depth) != mirrored {
        return Err(format!(
            "probe drifted from the engine: (states, transitions, enabled, depth) = {:?} here, \
             {mirrored:?} in explore_policy",
            (run.states, run.transitions, run.enabled_moves, run.depth)
        ));
    }
    let mut untraced_s = ram_s;
    if id == WorkloadId::ExploreSpill {
        let (spilled, spill_s) = wall(|| run_explore(cell, &cell.options));
        let pool = ExploreOptions {
            jobs: JOBS,
            ..ram.clone()
        };
        let (pooled, pool_s) = wall(|| run_explore(cell, &pool));
        pooled?;
        let io = t.open("spill i/o", "harness", None);
        let (write_s, read_s) = spill_io(scratch, spilled?.spilled_bytes, &mut t, io)?;
        probe_s += t.close(io);
        busy += write_s + read_s;
        untraced_s = spill_s;
        v.insert("explore.spill_write_s", write_s);
        v.insert("explore.spill_read_s", read_s);
        v.insert("explore.spill_over_ram", ratio(spill_s, ram_s));
        v.insert("explore.jobs2_over_jobs1", ratio(pool_s, ram_s));
    }

    v.insert("core.enabled_moves", run.enabled_moves as f64);
    v.insert("explore.workload_build_s", run.workload_build_s);
    v.insert("explore.symmetry_s", run.symmetry_s);
    v.insert("explore.states", run.states as f64);
    v.insert("explore.transitions", run.transitions as f64);
    v.insert(
        "explore.fresh_ratio",
        ratio(run.states as f64, run.transitions as f64),
    );
    v.insert(
        "explore.ample_ratio",
        ratio(run.transitions as f64, run.enabled_moves as f64),
    );
    v.insert("explore.engine_self_s", untraced_s - busy);
    harness_metrics(&mut v, busy, probe_s, engine_s, ram_s);

    let outputs = vec![
        ("verdict", Output::Label(run.verdict)),
        ("states", Output::Count(run.states)),
        ("depth", Output::Count(run.depth)),
        ("group_size", Output::Count(run.group_size)),
    ];
    if outputs != explore_outputs(&ram_result) {
        return Err("probe drifted from the engine: verdicts differ".into());
    }
    Ok(Probed {
        values: v,
        outputs,
        tracer: t,
    })
}

// ---------------------------------------------------------------------------
// campaign probe: campaign-full, campaign-oracle-mesh
// ---------------------------------------------------------------------------

/// The per-layer metric and the layer a campaign check's clock is charged to.
fn check_layer(check: &str) -> (&'static str, &'static str) {
    match check {
        "obligation-c3" => ("depgraph.c3_s", "depgraph"),
        "theorem1" => ("verif.theorem1_s", "verif"),
        "theorem2" => ("verif.theorem2_s", "verif"),
        "oracle" => ("verif.oracle_s", "verif"),
        "hunt" => ("sim.hunt_s", "sim"),
        "detect" => ("detect.check_s", "detect"),
        // construct, well-formed and the remaining obligations
        _ => ("verif.obligations_s", "verif"),
    }
}

/// Calls and seconds per `(metric, layer)`, from the campaign's own per-check
/// clocks (`CheckOutcome::millis`) read off its public report.
pub fn campaign_layers(
    report: &CampaignReport,
) -> BTreeMap<(&'static str, &'static str), (u64, f64)> {
    let mut layers: BTreeMap<_, (u64, f64)> = BTreeMap::new();
    for check in report.outcomes.iter().flat_map(|o| &o.checks) {
        let entry = layers.entry(check_layer(check.check)).or_default();
        entry.0 += 1;
        entry.1 += check.millis / 1e3;
    }
    layers
}

/// `Workload::new` and `slot_perms` over the exhaustive-tier workload of
/// every deterministic cell: the set-up a small exploration pays before its
/// first state. Returns `(workload_build_s, symmetry_s)`.
fn oracle_setup(cell: &CampaignCell, t: &mut Tracer, parent: SpanId) -> Result<(f64, f64), String> {
    let span = t.open("oracle set-up per cell", "explore", Some(parent));
    let mut laps = Laps::<2>::new();
    for scenario in &cell.scenarios {
        let instance = Instance::from_meta(&scenario.meta)?;
        if !instance.deterministic {
            continue;
        }
        let mut specs = pressure_specs(&instance.meta, scenario.workload_flits(2));
        specs.truncate(3);
        laps.start();
        let workload = text(Workload::new(
            instance.net.as_ref(),
            instance.routing.as_ref(),
            &specs,
        ))?;
        laps.lap(0);
        std::hint::black_box(slot_perms(
            instance.net.as_ref(),
            &instance.meta,
            &workload.routes(),
        ));
        laps.lap(1);
    }
    t.close(span);
    t.calls(
        span,
        "Workload::new",
        "explore",
        laps.count[0],
        laps.busy_ns[0],
    );
    t.calls(
        span,
        "slot_perms",
        "explore",
        laps.count[1],
        laps.busy_ns[1],
    );
    Ok((laps.seconds(0), laps.seconds(1)))
}

fn campaign_probe(id: WorkloadId, seed: u64, scratch: &Path) -> Result<Probed, String> {
    let mut t = Tracer::new(id.name());
    let mut v = Values::new();
    let root = t.open("probe", "harness", None);

    let (prepared, expand_s) = t.time("ScenarioMatrix::expand", "campaign", Some(root), || {
        workloads::prepare(id, seed, scratch)
    });
    let Prepared::Campaign(cell) = prepared else {
        return Err(format!("{} is not a campaign", id.name()));
    };
    let run_span = t.open("run_campaign", "campaign", Some(root));
    let report = run_campaign(&cell.scenarios, &cell.options);
    let engine_s = t.close(run_span);
    let (json, report_json_s) = t.time("CampaignReport::to_json", "campaign", Some(root), || {
        report.to_json()
    });
    std::hint::black_box(json);
    if id == WorkloadId::CampaignOracleMesh {
        let (build_s, symmetry_s) = oracle_setup(&cell, &mut t, root)?;
        v.insert("explore.workload_build_s", build_s);
        v.insert("explore.symmetry_s", symmetry_s);
    }
    t.close(root);

    let mut all_checks_s = 0.0;
    for ((metric, layer), (count, seconds)) in campaign_layers(&report) {
        v.insert(metric, seconds);
        t.calls(run_span, metric, layer, count, (seconds * 1e9) as u64);
        all_checks_s += seconds;
    }

    let cpu_s = report.cpu_ms() / 1e3;
    let wall_s = report.wall_ms / 1e3;
    let workers = &report.worker_scenarios;
    let mean = workers.iter().sum::<usize>() as f64 / workers.len().max(1) as f64;
    v.insert("campaign.expand_s", expand_s);
    v.insert("campaign.cpu_s", cpu_s);
    v.insert(
        "campaign.parallel_efficiency",
        ratio(cpu_s, wall_s * report.jobs as f64),
    );
    v.insert(
        "campaign.shard_imbalance",
        ratio(workers.iter().copied().max().unwrap_or(0) as f64, mean),
    );
    v.insert("campaign.report_json_s", report_json_s);
    // Two threads share the wall, so the layers are set against the cells'
    // summed clocks; the traced and untraced engine calls are one and the
    // same here, hence an overhead of 1 by construction.
    v.insert("trace.coverage", ratio(all_checks_s, cpu_s));
    v.insert("trace.overhead_ratio", ratio(engine_s, wall_s));

    Ok(Probed {
        values: v,
        outputs: campaign_outputs(&report),
        tracer: t,
    })
}

/// Runs the traced replica of a workload once.
///
/// # Errors
///
/// An engine error, or a probe whose counts drifted from its engine's.
pub fn run(id: WorkloadId, seed: u64, scratch: &Path) -> Result<Probed, String> {
    // One untraced rep first, so that neither the replica nor the untraced
    // call it is set against pays the process's first-touch costs alone.
    workloads::rep(&workloads::prepare(id, seed, scratch), seed)?;
    match id {
        WorkloadId::SimUniform | WorkloadId::SimHotspot => sim_probe(id, seed),
        WorkloadId::SimRecoverWal => observed_probe(id, seed, &scratch.join("probe.wal")),
        WorkloadId::ExploreRam | WorkloadId::ExploreSpill => {
            let Prepared::Explore(cell) = workloads::prepare(id, seed, scratch) else {
                return Err(format!("{} is not an exploration", id.name()));
            };
            explore_probe(id, &cell, scratch)
        }
        WorkloadId::CampaignFull | WorkloadId::CampaignOracleMesh => {
            campaign_probe(id, seed, scratch)
        }
    }
}

#[cfg(test)]
mod tests {
    //! A miniature of each probe against its engine, so that a probe that
    //! drifts from the code it mirrors is caught in seconds.

    use super::*;
    use crate::spec::{layer_of, PER_LAYER};
    use crate::sys::TempDir;
    use genoc_campaign::{CampaignOptions, EffortProfile, ScenarioMatrix};
    use genoc_explore::explore_policy;
    use genoc_routing::mixed::MixedXyYxRouting;
    use genoc_routing::xy::XyRouting;
    use genoc_sim::workload::uniform_random;
    use genoc_topology::mesh::Mesh;

    fn mini_cell(mixed: bool) -> SimCell {
        let mesh = Mesh::new(4, 4, 1);
        let routing: Box<dyn RoutingFunction> = if mixed {
            Box::new(MixedXyYxRouting::new(&mesh))
        } else {
            Box::new(XyRouting::new(&mesh))
        };
        SimCell {
            specs: uniform_random(16, 96, 2..=5, 7),
            mesh,
            routing,
        }
    }

    #[test]
    fn the_arena_replica_takes_the_engine_s_steps() {
        let cell = mini_cell(false);
        let engine = run_simulate(&cell).unwrap();
        let mut t = Tracer::new("mini");
        let root = t.open("probe", "harness", None);
        let run = arena_replica(
            &cell.mesh,
            cell.routing.as_ref(),
            &cell.specs,
            1 << 20,
            &mut t,
            root,
        )
        .unwrap();
        assert_eq!(
            (run.outcome, run.steps),
            (engine.run.outcome, engine.run.steps)
        );
        assert_eq!(run.delivered_flits, engine.run.config.delivered_flits());
        assert_eq!(run.arrived_msgs, cell.specs.len() as u64);
        assert_eq!(run.laps.count[1], run.steps);
        assert!(run.moves >= run.delivered_flits);
    }

    #[test]
    fn the_timing_shims_do_not_steer_the_observed_run() {
        let cell = mini_cell(true);
        let tmp = TempDir::create().unwrap();
        let plain = run_recorded(&cell, 7, &tmp.path().join("plain.wal"), |h, r, cfg| {
            observed_run(&cell, h, r, cfg)
        })
        .unwrap()
        .0;
        let mut calls = (0, 0);
        let (shimmed, writer) =
            run_recorded(&cell, 7, &tmp.path().join("shim.wal"), |h, r, cfg| {
                let (mut hook, mut observer) = (TimedHook::new(h), TimedObserver::new(r));
                let result = observed_run(&cell, &mut hook, &mut observer, cfg);
                calls = (hook.timer.calls, observer.timer.calls);
                result
            })
            .unwrap();
        writer.finish().unwrap();
        assert!(plain.detections > 0, "the mixed router must deadlock here");
        assert_eq!(shimmed.result.run.steps, plain.result.run.steps);
        assert_eq!(
            (
                shimmed.detections,
                shimmed.aborted_msgs,
                shimmed.wal_records,
                shimmed.wal_bytes
            ),
            (
                plain.detections,
                plain.aborted_msgs,
                plain.wal_records,
                plain.wal_bytes
            )
        );
        // One hook call and one observer call per step at the least.
        assert!(calls.0 >= plain.result.run.steps && calls.1 >= plain.result.run.steps);
        let log = read_back(&tmp.path().join("shim.wal")).unwrap();
        let replayed = replay_final(&cell.mesh, &log).unwrap();
        assert_eq!(replayed.recorded.1, plain.result.run.steps);
        assert_eq!(
            replayed.arrived_msgs,
            plain.result.run.config.arrived().len() as u64
        );
    }

    #[test]
    fn the_bfs_replica_counts_what_the_explorer_counts() {
        let instance = Instance::ring_shortest(4, 1);
        let cell = ExploreCell {
            specs: pressure_specs(&instance.meta, 2),
            instance,
            options: explore_ram_options(),
        };
        for (por, max_states) in [(true, 100_000), (false, 100_000), (true, 50)] {
            let options = ExploreOptions {
                por,
                max_states,
                ..explore_ram_options()
            };
            let engine = explore_policy(
                cell.instance.net.as_ref(),
                cell.instance.routing.as_ref(),
                &cell.instance.meta,
                &cell.specs,
                &WormholePolicy::default() as &dyn SwitchingPolicy,
                &options,
            )
            .unwrap();
            let mut t = Tracer::new("mini");
            let root = t.open("probe", "harness", None);
            let run = bfs_replica(&cell, &options, &mut t, root).unwrap();
            assert_eq!(
                (
                    run.verdict,
                    run.states,
                    run.transitions,
                    run.enabled_moves,
                    run.depth
                ),
                (
                    engine.verdict.label(),
                    engine.states as u64,
                    engine.transitions,
                    engine.enabled_moves,
                    engine.depth as u64
                ),
                "por {por}, bound {max_states}"
            );
            assert_eq!(run.group_size, engine.group_size as u64);
        }
    }

    #[test]
    fn every_campaign_check_lands_on_a_per_layer_metric() {
        let scenarios: Vec<_> = ScenarioMatrix::oracle()
            .expand()
            .into_iter()
            .take(3)
            .collect();
        let report = run_campaign(
            &scenarios,
            &CampaignOptions {
                jobs: 1,
                seed: 7,
                effort: EffortProfile::oracle(),
                matrix: "mini".into(),
                wal_dir: None,
            },
        );
        let layers = campaign_layers(&report);
        let checks: usize = report.outcomes.iter().map(|o| o.checks.len()).sum();
        assert_eq!(layers.values().map(|l| l.0).sum::<u64>(), checks as u64);
        for (metric, layer) in layers.keys() {
            assert!(PER_LAYER.iter().any(|(name, _)| name == metric), "{metric}");
            assert_eq!(layer_of(metric), *layer);
        }
        assert!(layers.contains_key(&("verif.oracle_s", "verif")));
        assert_eq!(campaign_outputs(&report)[0], ("cells", Output::Count(3)));
    }

    #[test]
    fn spilled_blocks_come_back_unchanged() {
        let tmp = TempDir::create().unwrap();
        let mut t = Tracer::new("mini");
        let root = t.open("probe", "harness", None);
        let (write_s, read_s) = spill_io(tmp.path(), 200_000, &mut t, root).unwrap();
        assert!(write_s > 0.0 && read_s > 0.0);
    }
}
