//! The seven workloads: how each is built from `--seed`, what one rep runs,
//! and which outputs a rep reports for checking.
//!
//! Everything here calls the engines exactly as their users do — `simulate`,
//! `simulate_observed_config`, `explore_policy`, `run_campaign` — with
//! tracing off. The traced replicas live in [`crate::probes`].

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use genoc_campaign::{
    run_campaign, CampaignOptions, CampaignReport, EffortProfile, ScenarioMatrix, ScenarioSpec,
};
use genoc_core::config::Config;
use genoc_core::interpreter::Outcome;
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::switching::SwitchingPolicy;
use genoc_detect::{AbortAndEvacuate, DetectionEngine, EngineOptions};
use genoc_explore::{explore_policy, pressure_specs, Exploration, ExploreOptions};
use genoc_obs::{read_wal, recorded_outcome, replay_to, shared, ObservedEngine, Recorder};
use genoc_obs::{WalLog, WalWriter};
use genoc_routing::mixed::MixedXyYxRouting;
use genoc_routing::xy::XyRouting;
use genoc_sim::workload::{hotspot, uniform_random};
use genoc_sim::{
    simulate, simulate_observed_config, DetectorHook, RunObserver, SimOptions, SimResult, Stepper,
};
use genoc_switching::wormhole::WormholePolicy;
use genoc_topology::mesh::Mesh;
use genoc_verif::Instance;

use crate::sys;

/// The seed whose outputs `pinned.json` records.
pub const DEFAULT_SEED: u64 = 23;

/// Threads the two-thread workloads use (`nproc` is 2 on the reference box).
pub const JOBS: usize = 2;

// Sizes. Shapes (mesh side, capacity, routing, flit ranges, hotspot share,
// explorer cell, campaign presets) are the issue's; message counts are cut
// so that one rep takes 0.4–1.2 s here and a 10 s run holds enough reps for
// a steady median (see README.md, "Sizes").
const UNIFORM_SIDE: usize = 64;
const UNIFORM_MESSAGES: usize = 12_000;
const HOTSPOT_SIDE: usize = 32;
const HOTSPOT_MESSAGES: usize = 12_288;
const HOTSPOT_PERCENT: u32 = 40;
const HOTSPOT_FLITS: usize = 6;
const RECOVER_SIDE: usize = 8;
const RECOVER_MESSAGES: usize = 1536;
const EXPLORE_RING: usize = 4;
const EXPLORE_CAPACITY: u32 = 2;
const EXPLORE_FLITS: usize = 3;
const EXPLORE_MAX_STATES: usize = 600_000;
const SPILL_MEM_LIMIT: usize = 1 << 20;
/// `campaign-full` runs every `FULL_STRIDE`-th cell of the full matrix.
const FULL_STRIDE: usize = 4;

/// One of the seven workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadId {
    /// 64×64 XY mesh under uniform traffic: move-dominated stepping.
    SimUniform,
    /// 32×32 XY mesh with a hotspot: step-overhead-dominated stepping.
    SimHotspot,
    /// 8×8 mixed XY/YX mesh, detect-and-recover, recorded to a file WAL.
    SimRecoverWal,
    /// Ring-4 capacity-2 pressure cell, sequential explorer, all in RAM.
    ExploreRam,
    /// The same cell on the parallel engine with a 1 MiB budget and spill.
    ExploreSpill,
    /// The full campaign matrix at standard effort.
    CampaignFull,
    /// The oracle matrix's mesh cells at oracle effort.
    CampaignOracleMesh,
}

impl WorkloadId {
    /// All workloads, in reporting order.
    pub const ALL: [WorkloadId; 7] = [
        WorkloadId::SimUniform,
        WorkloadId::SimHotspot,
        WorkloadId::SimRecoverWal,
        WorkloadId::ExploreRam,
        WorkloadId::ExploreSpill,
        WorkloadId::CampaignFull,
        WorkloadId::CampaignOracleMesh,
    ];

    /// The name used in `BENCHMARK.json`, on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SimUniform => "sim-uniform",
            WorkloadId::SimHotspot => "sim-hotspot",
            WorkloadId::SimRecoverWal => "sim-recover-wal",
            WorkloadId::ExploreRam => "explore-ram",
            WorkloadId::ExploreSpill => "explore-spill",
            WorkloadId::CampaignFull => "campaign-full",
            WorkloadId::CampaignOracleMesh => "campaign-oracle-mesh",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The end-to-end throughput metric this workload's work is counted in.
    pub fn throughput_metric(self) -> &'static str {
        match self {
            WorkloadId::SimUniform | WorkloadId::SimHotspot | WorkloadId::SimRecoverWal => {
                "sim_flits_per_s"
            }
            WorkloadId::ExploreRam | WorkloadId::ExploreSpill => "explore_states_per_s",
            WorkloadId::CampaignFull | WorkloadId::CampaignOracleMesh => "campaign_cells_per_s",
        }
    }

    /// Threads a rep keeps busy: the yardstick is timed on as many.
    pub fn threads(self) -> usize {
        match self {
            WorkloadId::SimUniform
            | WorkloadId::SimHotspot
            | WorkloadId::SimRecoverWal
            | WorkloadId::ExploreRam => 1,
            WorkloadId::ExploreSpill
            | WorkloadId::CampaignFull
            | WorkloadId::CampaignOracleMesh => JOBS,
        }
    }

    /// Whether the inputs depend on `--seed`. The explorer cell is the
    /// deterministic pressure pattern of its instance, so its pinned outputs
    /// hold under every seed.
    pub fn seeded(self) -> bool {
        !matches!(self, WorkloadId::ExploreRam | WorkloadId::ExploreSpill)
    }
}

/// A mesh instance with its routing function and generated traffic.
pub struct SimCell {
    /// The network.
    pub mesh: Mesh,
    /// XY for the two plain workloads, mixed XY/YX for the recovering one.
    pub routing: Box<dyn RoutingFunction>,
    /// The generated messages.
    pub specs: Vec<MessageSpec>,
}

/// The explorer cell.
pub struct ExploreCell {
    /// Ring-4 with shortest-path routing.
    pub instance: Instance,
    /// Its pressure workload.
    pub specs: Vec<MessageSpec>,
    /// Sequential-in-RAM or parallel-with-spill options.
    pub options: ExploreOptions,
}

/// A campaign: the expanded cells and how to run them.
pub struct CampaignCell {
    /// The cells.
    pub scenarios: Vec<ScenarioSpec>,
    /// Jobs, seed and effort.
    pub options: CampaignOptions,
}

/// A workload's generated inputs — all the program under test receives.
pub enum Prepared {
    /// `sim-uniform` and `sim-hotspot`.
    Sim(SimCell),
    /// `sim-recover-wal`, with the file its WAL goes to.
    Recover(SimCell, PathBuf),
    /// `explore-ram` and `explore-spill`.
    Explore(ExploreCell),
    /// `campaign-full` and `campaign-oracle-mesh`.
    Campaign(CampaignCell),
}

impl Prepared {
    /// Size in bytes of the generated inputs: the message specs, or the
    /// campaign's cell list. Depends on the workload's fixed counts only.
    pub fn input_bytes(&self) -> u64 {
        let bytes = match self {
            Prepared::Sim(cell) | Prepared::Recover(cell, _) => std::mem::size_of_val(&*cell.specs),
            Prepared::Explore(cell) => std::mem::size_of_val(&*cell.specs),
            Prepared::Campaign(cell) => std::mem::size_of_val(&*cell.scenarios),
        };
        bytes as u64
    }
}

/// The options every simulated workload runs with.
pub fn sim_options() -> SimOptions {
    SimOptions {
        stepper: Stepper::Arena,
        max_steps: 10_000_000,
        ..SimOptions::default()
    }
}

/// Options of the sequential, all-in-RAM exploration.
pub fn explore_ram_options() -> ExploreOptions {
    ExploreOptions {
        por: true,
        jobs: 1,
        max_states: EXPLORE_MAX_STATES,
        ..ExploreOptions::default()
    }
}

/// The mesh of a simulated workload.
pub fn sim_mesh(id: WorkloadId) -> Mesh {
    match id {
        WorkloadId::SimUniform => Mesh::new(UNIFORM_SIDE, UNIFORM_SIDE, 2),
        WorkloadId::SimHotspot => Mesh::new(HOTSPOT_SIDE, HOTSPOT_SIDE, 2),
        _ => Mesh::new(RECOVER_SIDE, RECOVER_SIDE, 1),
    }
}

/// Its routing function: XY, or the deadlock-prone mixture for
/// `sim-recover-wal`.
pub fn sim_routing(id: WorkloadId, mesh: &Mesh) -> Box<dyn RoutingFunction> {
    match id {
        WorkloadId::SimRecoverWal => Box::new(MixedXyYxRouting::new(mesh)),
        _ => Box::new(XyRouting::new(mesh)),
    }
}

/// Its traffic over `nodes` nodes, generated from the seed.
pub fn sim_specs(id: WorkloadId, nodes: usize, seed: u64) -> Vec<MessageSpec> {
    match id {
        WorkloadId::SimUniform => uniform_random(nodes, UNIFORM_MESSAGES, 4..=8, seed),
        WorkloadId::SimHotspot => hotspot(
            nodes,
            HOTSPOT_MESSAGES,
            nodes / 2,
            HOTSPOT_PERCENT,
            HOTSPOT_FLITS,
            seed,
        ),
        _ => uniform_random(nodes, RECOVER_MESSAGES, 4..=8, seed),
    }
}

/// Builds the mesh, routing function and traffic of a simulated workload.
pub fn sim_cell(id: WorkloadId, seed: u64) -> SimCell {
    let mesh = sim_mesh(id);
    let routing = sim_routing(id, &mesh);
    let specs = sim_specs(id, mesh.node_count(), seed);
    SimCell {
        mesh,
        routing,
        specs,
    }
}

/// The seed of a run's `nth` input: `--seed` itself for the first, so that
/// `pinned.json` describes the first input of a run at seed 23, and a fixed
/// scramble of the two for the rest.
pub fn input_seed(seed: u64, nth: usize) -> u64 {
    seed ^ (nth as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generates a workload's inputs from the seed. `scratch` is where the WAL
/// file and the spill directory go.
pub fn prepare(id: WorkloadId, seed: u64, scratch: &Path) -> Prepared {
    match id {
        WorkloadId::SimUniform | WorkloadId::SimHotspot => Prepared::Sim(sim_cell(id, seed)),
        WorkloadId::SimRecoverWal => {
            Prepared::Recover(sim_cell(id, seed), scratch.join("recover.wal"))
        }
        WorkloadId::ExploreRam | WorkloadId::ExploreSpill => {
            let instance = Instance::ring_shortest(EXPLORE_RING, EXPLORE_CAPACITY);
            let specs = pressure_specs(&instance.meta, EXPLORE_FLITS);
            let mut options = explore_ram_options();
            if id == WorkloadId::ExploreSpill {
                options.jobs = JOBS;
                options.mem_limit = Some(SPILL_MEM_LIMIT);
                options.spill_dir = Some(scratch.join("spill"));
            }
            Prepared::Explore(ExploreCell {
                instance,
                specs,
                options,
            })
        }
        WorkloadId::CampaignFull => Prepared::Campaign(CampaignCell {
            scenarios: ScenarioMatrix::full()
                .expand()
                .into_iter()
                .step_by(FULL_STRIDE)
                .collect(),
            options: CampaignOptions {
                jobs: JOBS,
                seed,
                effort: EffortProfile::standard(),
                matrix: "full".into(),
                wal_dir: None,
            },
        }),
        WorkloadId::CampaignOracleMesh => Prepared::Campaign(CampaignCell {
            scenarios: ScenarioMatrix::oracle()
                .expand()
                .into_iter()
                .filter(|s| s.name().contains("mesh") && s.meta.capacity == 1)
                .collect(),
            options: CampaignOptions {
                jobs: JOBS,
                seed,
                effort: EffortProfile::oracle(),
                matrix: "oracle".into(),
                wal_dir: None,
            },
        }),
    }
}

/// One output of a rep, compared with `pinned.json` or checked against an
/// invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// A count.
    Count(u64),
    /// A label (an outcome or a verdict).
    Label(&'static str),
}

/// What one rep measured and produced.
pub struct Rep {
    /// What the engine call cost.
    pub cost: Cost,
    /// Work done, in the unit of [`WorkloadId::throughput_metric`].
    pub work: u64,
    /// `read_wal` + `recorded_outcome` + `replay_to(final)`, where there is
    /// a WAL.
    pub wal_replay_s: Option<f64>,
    /// `Exploration::peak_bytes`, where there is an exploration.
    pub explore_peak_bytes: Option<u64>,
    /// WAL bytes written or explorer bytes spilled.
    pub io_bytes: Option<u64>,
    /// Named outputs, in a fixed order.
    pub outputs: Vec<(&'static str, Output)>,
}

fn outcome_label(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Evacuated => "evacuated",
        Outcome::Deadlock => "deadlock",
        Outcome::StepLimit => "step-limit",
    }
}

/// Wall and CPU seconds of one engine call.
pub struct Cost {
    /// Wall seconds (for `sim-recover-wal`: the recorded run with the WAL
    /// flushed).
    pub wall_s: f64,
    /// Process CPU seconds over the same interval, all threads.
    pub cpu_s: f64,
}

/// Runs `f` and returns its result with what it cost.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu = sys::process_cpu_s();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cost = Cost {
        wall_s,
        cpu_s: sys::process_cpu_s() - cpu,
    };
    (out, cost)
}

/// The plain simulation both untraced sim workloads run.
pub fn run_simulate(cell: &SimCell) -> Result<SimResult, String> {
    simulate(
        &cell.mesh,
        cell.routing.as_ref(),
        &mut WormholePolicy::default(),
        &cell.specs,
        &sim_options(),
    )
    .map_err(|e| e.to_string())
}

/// The outputs of a simulated run, from wherever its counts were read.
pub fn sim_run_outputs(
    specs: &[MessageSpec],
    outcome: Outcome,
    steps: u64,
    delivered_flits: u64,
    arrived_msgs: u64,
) -> Vec<(&'static str, Output)> {
    vec![
        ("outcome", Output::Label(outcome_label(outcome))),
        ("steps", Output::Count(steps)),
        ("injected_msgs", Output::Count(specs.len() as u64)),
        (
            "injected_flits",
            Output::Count(specs.iter().map(|s| s.flits as u64).sum()),
        ),
        ("delivered_flits", Output::Count(delivered_flits)),
        ("arrived_msgs", Output::Count(arrived_msgs)),
    ]
}

fn sim_outputs(cell: &SimCell, result: &SimResult) -> Vec<(&'static str, Output)> {
    let run = &result.run;
    sim_run_outputs(
        &cell.specs,
        run.outcome,
        run.steps,
        run.config.delivered_flits(),
        run.config.arrived().len() as u64,
    )
}

/// What the recorded detect-and-recover run leaves behind.
pub struct Recorded {
    /// The simulation result.
    pub result: SimResult,
    /// Detections the engine raised.
    pub detections: u64,
    /// Recovery invocations.
    pub recoveries: u64,
    /// Messages the recovery policy aborted.
    pub aborted_msgs: u64,
    /// Records appended to the WAL.
    pub wal_records: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
}

/// The recovering engine `sim-recover-wal` runs under.
pub fn recovery_engine() -> DetectionEngine {
    DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate))
}

/// The recorded run of `sim-recover-wal`: detect, recover, and stream every
/// event to a file WAL at `wal_path`. `run` receives the hook, the observer
/// and the initial configuration, so the traced run can put its timing shims
/// around the first two. The writer comes back unflushed: the caller ends
/// the log with `WalWriter::finish`.
pub fn run_recorded(
    cell: &SimCell,
    seed: u64,
    wal_path: &Path,
    run: impl FnOnce(&mut ObservedEngine, &mut Recorder, Config) -> Result<SimResult, String>,
) -> Result<(Recorded, WalWriter), String> {
    let cfg = Config::from_specs(&cell.mesh, cell.routing.as_ref(), &cell.specs)
        .map_err(|e| e.to_string())?;
    let wal = shared(WalWriter::create(wal_path).map_err(|e| e.to_string())?);
    let mut hook = ObservedEngine::new(recovery_engine(), Some(Rc::clone(&wal)));
    let mut recorder = Recorder::with_wal(Rc::clone(&wal), seed, None);
    let result = run(&mut hook, &mut recorder, cfg)?;
    drop(recorder);
    let engine = hook.into_engine();
    let writer = Rc::try_unwrap(wal)
        .map_err(|_| "the WAL is still shared after the run".to_string())?
        .into_inner();
    let stats = engine.stats();
    let recorded = Recorded {
        result,
        detections: engine.detections().len() as u64,
        recoveries: stats.recoveries,
        aborted_msgs: stats.aborted.len() as u64,
        wal_records: writer.records_written(),
        wal_bytes: writer.bytes_written(),
    };
    Ok((recorded, writer))
}

/// `simulate_observed_config` as `sim-recover-wal` calls it.
pub fn observed_run(
    cell: &SimCell,
    hook: &mut dyn DetectorHook,
    observer: &mut dyn RunObserver,
    cfg: Config,
) -> Result<SimResult, String> {
    simulate_observed_config(
        &cell.mesh,
        &mut WormholePolicy::default(),
        cfg,
        &sim_options(),
        hook,
        observer,
    )
    .map_err(|e| e.to_string())
}

/// What reading a WAL back and replaying it to its last step yields.
pub struct Replayed {
    /// The `(outcome, steps)` its `RunEnd` record holds.
    pub recorded: (Outcome, u64),
    /// Arrived messages in the replayed final configuration.
    pub arrived_msgs: u64,
}

/// Decodes the WAL at `wal_path`.
pub fn read_back(wal_path: &Path) -> Result<WalLog, String> {
    let log = read_wal(wal_path).map_err(|e| e.to_string())?;
    match &log.damage {
        Some(damage) => Err(format!("WAL read back damaged: {damage}")),
        None => Ok(log),
    }
}

/// Replays a decoded log to the step its `RunEnd` record names.
pub fn replay_final(net: &dyn Network, log: &WalLog) -> Result<Replayed, String> {
    let recorded =
        recorded_outcome(&log.events).ok_or_else(|| "WAL holds no RunEnd".to_string())?;
    let replayed = replay_to(net, &log.events, recorded.1).map_err(|e| e.to_string())?;
    Ok(Replayed {
        arrived_msgs: replayed.arrived().len() as u64,
        recorded,
    })
}

/// The outputs of a recorded run and of the replay of its log.
pub fn recover_outputs(
    cell: &SimCell,
    recorded: &Recorded,
    replayed: &Replayed,
) -> Vec<(&'static str, Output)> {
    let mut outputs = sim_outputs(cell, &recorded.result);
    outputs.extend([
        ("detections", Output::Count(recorded.detections)),
        ("recoveries", Output::Count(recorded.recoveries)),
        ("aborted_msgs", Output::Count(recorded.aborted_msgs)),
        ("wal_records", Output::Count(recorded.wal_records)),
        ("wal_bytes", Output::Count(recorded.wal_bytes)),
        (
            "replay_outcome",
            Output::Label(outcome_label(replayed.recorded.0)),
        ),
        ("replay_steps", Output::Count(replayed.recorded.1)),
        ("replay_arrived_msgs", Output::Count(replayed.arrived_msgs)),
    ]);
    outputs
}

/// The recorded run as `sim-recover-wal` times it: nothing around hook or
/// observer, the WAL flushed before returning.
pub fn record_and_flush(cell: &SimCell, seed: u64, wal_path: &Path) -> Result<Recorded, String> {
    let (recorded, writer) = run_recorded(cell, seed, wal_path, |hook, recorder, cfg| {
        observed_run(cell, hook, recorder, cfg)
    })?;
    writer.finish().map_err(|e| e.to_string())?;
    Ok(recorded)
}

/// Removes the last recording, so that the next one goes to a new file as a
/// user's does. Truncating the old log instead makes ext4 start writing the
/// new one out as soon as it is closed (`auto_da_alloc`), and the timed run
/// then waits on the disk.
pub fn clear_wal(wal_path: &Path) -> Result<(), String> {
    match std::fs::remove_file(wal_path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.to_string()),
        _ => Ok(()),
    }
}

fn recover_rep(cell: &SimCell, seed: u64, wal_path: &Path) -> Result<Rep, String> {
    clear_wal(wal_path)?;
    let (recorded, cost) = timed(|| record_and_flush(cell, seed, wal_path));
    let recorded = recorded?;
    let start = Instant::now();
    let log = read_back(wal_path)?;
    let replayed = replay_final(&cell.mesh, &log)?;
    let wal_replay_s = start.elapsed().as_secs_f64();
    drop(log);
    Ok(Rep {
        cost,
        work: recorded.result.run.config.delivered_flits(),
        wal_replay_s: Some(wal_replay_s),
        explore_peak_bytes: None,
        io_bytes: Some(recorded.wal_bytes),
        outputs: recover_outputs(cell, &recorded, &replayed),
    })
}

/// The exploration both explorer workloads run.
pub fn run_explore(cell: &ExploreCell, options: &ExploreOptions) -> Result<Exploration, String> {
    let policy = WormholePolicy::default();
    explore_policy(
        cell.instance.net.as_ref(),
        cell.instance.routing.as_ref(),
        &cell.instance.meta,
        &cell.specs,
        &policy as &dyn SwitchingPolicy,
        options,
    )
    .map_err(|e| e.to_string())
}

/// The outputs of an exploration that must not depend on the engine, the
/// job count or the memory tier.
pub fn explore_outputs(result: &Exploration) -> Vec<(&'static str, Output)> {
    vec![
        ("verdict", Output::Label(result.verdict.label())),
        ("states", Output::Count(result.states as u64)),
        ("depth", Output::Count(result.depth as u64)),
        ("group_size", Output::Count(result.group_size as u64)),
    ]
}

fn explore_rep(cell: &ExploreCell) -> Result<Rep, String> {
    let (result, cost) = timed(|| run_explore(cell, &cell.options));
    let result = result?;
    let mut outputs = explore_outputs(&result);
    outputs.extend([
        ("transitions", Output::Count(result.transitions)),
        ("enabled_moves", Output::Count(result.enabled_moves)),
        ("peak_bytes", Output::Count(result.peak_bytes as u64)),
        ("spilled_bytes", Output::Count(result.spilled_bytes)),
    ]);
    Ok(Rep {
        cost,
        work: result.states as u64,
        wal_replay_s: None,
        explore_peak_bytes: Some(result.peak_bytes as u64),
        io_bytes: cell
            .options
            .spill_dir
            .is_some()
            .then_some(result.spilled_bytes),
        outputs,
    })
}

/// The outputs of a campaign report.
pub fn campaign_outputs(report: &CampaignReport) -> Vec<(&'static str, Output)> {
    let checks: usize = report.outcomes.iter().map(|o| o.checks.len()).sum();
    vec![
        ("cells", Output::Count(report.total() as u64)),
        ("cells_passed", Output::Count(report.passed() as u64)),
        ("checks", Output::Count(checks as u64)),
        ("deadlocks_seen", Output::Count(report.deadlocks_seen())),
    ]
}

fn campaign_rep(cell: &CampaignCell) -> Rep {
    let (report, cost) = timed(|| run_campaign(&cell.scenarios, &cell.options));
    Rep {
        cost,
        work: report.total() as u64,
        wal_replay_s: None,
        explore_peak_bytes: None,
        io_bytes: None,
        outputs: campaign_outputs(&report),
    }
}

/// Runs one rep of a prepared workload with tracing off.
///
/// # Errors
///
/// An engine error, as text: the rep failed and contributes no timing.
pub fn rep(prepared: &Prepared, seed: u64) -> Result<Rep, String> {
    Ok(match prepared {
        Prepared::Sim(cell) => {
            let (result, cost) = timed(|| run_simulate(cell));
            let result = result?;
            Rep {
                cost,
                work: result.run.config.delivered_flits(),
                wal_replay_s: None,
                explore_peak_bytes: None,
                io_bytes: None,
                outputs: sim_outputs(cell, &result),
            }
        }
        Prepared::Recover(cell, wal_path) => recover_rep(cell, seed, wal_path)?,
        Prepared::Explore(cell) => explore_rep(cell)?,
        Prepared::Campaign(cell) => campaign_rep(cell),
    })
}
