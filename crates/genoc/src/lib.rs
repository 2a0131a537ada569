//! # GeNoC-rs
//!
//! An executable, generic model of networks-on-chips with machine-checked
//! deadlock-freedom and evacuation, reproducing *"Formal Specification of
//! Networks-on-Chips: Deadlock and Evacuation"* (F. Verbeek and J. Schmaltz,
//! DATE 2010).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the generic GeNoC model: configurations
//!   `σ = ⟨T, ST, A⟩`, the interpreter with its deadlock predicate `Ω`,
//!   termination measures, traces, executable theorem statements;
//! * [`topology`] — HERMES mesh, torus, ring, Spidergon
//!   (virtual channels modelled as extra ports);
//! * [`routing`] — the paper's `Rxy` plus YX, turn models,
//!   dimension-order with datelines, Spidergon across-first, and
//!   deliberately deadlock-prone comparators;
//! * [`switching`] — wormhole `Swh`, virtual cut-through,
//!   store-and-forward;
//! * [`depgraph`] — port/channel dependency graphs, one cycle
//!   search returning a cycle or a ranking certificate, flows, the
//!   Theorem 1 sufficiency witness;
//! * [`explore`] — the exhaustive bounded state-space oracle: BFS over
//!   all move interleavings with symmetry reduction, minimal
//!   counterexample traces, `.aut`/DOT state-graph export
//!   (`cargo run -p genoc --bin explore`);
//! * [`sim`] — workloads, statistics, deadlock hunting;
//! * [`detect`] — online deadlock detection (exact wait-for graph
//!   plus timeout heuristic) and recovery (abort, escape channel, drain);
//! * [`obs`] — observability: the structured event WAL, deterministic
//!   replay of any recorded step, post-mortem tails, and the hand-rolled
//!   Prometheus metrics registry (`cargo run -p genoc --bin replay`);
//! * [`verif`] — the obligation-discharge engine, the Table I
//!   effort analogue, and the runtime-vs-static detection cross-check;
//! * [`campaign`] — the sharded verification-campaign runner: scenario
//!   matrices, the work-stealing executor, JSON/markdown reports
//!   (`cargo run -p genoc --bin campaign`).
//!
//! ## Quickstart
//!
//! ```
//! use genoc::prelude::*;
//!
//! # fn main() -> Result<(), genoc_core::Error> {
//! // The paper's instance: XY routing on a HERMES mesh.
//! let mesh = Mesh::new(3, 3, 1);
//! let routing = XyRouting::new(&mesh);
//!
//! // Discharge (C-3): the port dependency graph is acyclic.
//! let graph = port_dependency_graph(&mesh, &routing);
//! assert!(acyclicity(&graph).is_acyclic());
//!
//! // Run a workload and check the evacuation theorem.
//! let specs = [MessageSpec::new(mesh.node(0, 0), mesh.node(2, 2), 4)];
//! let cfg = Config::from_specs(&mesh, &routing, &specs)?;
//! let injected: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
//! let result = run(&mesh, &IdentityInjection, &mut Switching::default(), cfg,
//!                  &RunOptions::default())?;
//! assert!(check_evacuation(&injected, &result).holds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use genoc_campaign as campaign;
pub use genoc_core as core;
pub use genoc_depgraph as depgraph;
pub use genoc_detect as detect;
pub use genoc_explore as explore;
pub use genoc_obs as obs;
pub use genoc_routing as routing;
pub use genoc_sim as sim;
pub use genoc_switching as switching;
pub use genoc_topology as topology;
pub use genoc_verif as verif;

/// The most commonly used items of every crate, for glob import.
pub mod prelude {
    pub use genoc_campaign::{
        run_campaign, run_scenario, run_scenario_with, scenario_seed, CampaignOptions,
        CampaignReport, CheckStatus, EffortProfile, ScenarioMatrix, ScenarioMetrics,
        ScenarioOutcome, ScenarioSpec,
    };
    pub use genoc_core::arena::{ArenaConfig, ArenaKernel, ArenaSpec, MoveRec};
    pub use genoc_core::blocking::{
        block_events, find_wait_cycle, BlockDiff, BlockEvent, WaitCycle,
    };
    pub use genoc_core::config::Config;
    pub use genoc_core::ids::{MsgId, NodeId, PortId};
    pub use genoc_core::injection::{IdentityInjection, InjectionMethod, ScheduledInjection};
    pub use genoc_core::interpreter::{run, run_hooked, Outcome, RunOptions, RunResult};
    pub use genoc_core::kernel::{Transition, TravelStatus};
    pub use genoc_core::measure::{ProgressMeasure, RouteLengthMeasure, TerminationMeasure};
    pub use genoc_core::meta::{InstanceMeta, RoutingKind, SwitchingKind, TopologyKind};
    pub use genoc_core::network::{Direction, Network, PortAttrs};
    pub use genoc_core::obligations::{ObligationId, ObligationReport};
    pub use genoc_core::routing::{compute_route, RoutingFunction};
    pub use genoc_core::spec::MessageSpec;
    pub use genoc_core::switching::{KernelSpec, StepReport, SwitchingPolicy};
    pub use genoc_core::theorems::{check_correctness, check_evacuation};
    pub use genoc_core::travel::{FlitPos, Travel};
    pub use genoc_depgraph::{
        acyclicity, channel_dependency_graph, check_flow_escapes, deadlock_from_cycle,
        port_dependency_graph, to_dot, verify_ranking, xy_mesh_dependency_graph, xy_mesh_ranking,
        Acyclicity, DiGraph,
    };
    pub use genoc_detect::{
        AbortAndEvacuate, DetectionEngine, DrainAll, EngineOptions, EscapeChannel, EscapeRoute,
        ExactDetector, RecoveryPolicy, RingEscape, TimeoutDetector,
    };
    pub use genoc_explore::{
        explore, explore_policy, pressure_specs, replay, Counterexample, Exploration,
        ExploreOptions, Verdict,
    };
    pub use genoc_obs::{
        read_wal, read_wal_bytes, replay_to, shared, tail_lines, MetricsRegistry, ObsSummary,
        ObservedEngine, Recorder, RecorderOptions, WalEvent, WalLog, WalMeta, WalWriter,
    };
    pub use genoc_routing::{
        AcrossFirstDatelineRouting, AcrossFirstRouting, MinimalAdaptiveRouting, MixedXyYxRouting,
        RingDatelineRouting, RingShortestRouting, TorusDorDatelineRouting, TorusDorRouting,
        TurnModel, TurnModelRouting, XyRouting, YxRouting,
    };
    pub use genoc_sim::adaptive::{config_with_selected_routes, select_routes};
    pub use genoc_sim::{
        hunt_random, hunt_workload, simulate, simulate_config, simulate_observed_config,
        DetectorHook, Hunt, HuntOptions, LatencySummary, NullHook, NullObserver, RecoverySummary,
        RunObserver, SimOptions, SimResult, Stepper,
    };
    pub use genoc_switching::{Arbitration, Switching};
    pub use genoc_topology::{Cardinal, Fabric, Mesh, Ring, RingDir, Spidergon, Torus};
    pub use genoc_verif::{
        check_all, check_c5_with, check_detection, check_theorem1, check_theorem2,
        check_theorem2_with, effort_table, explore_check, render_effort_table,
        DetectionCheckOptions, DetectionReport, ExploreCheckOptions, ExploreReport, Instance,
        TextTable,
    };
}
