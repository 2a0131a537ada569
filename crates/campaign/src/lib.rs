//! # genoc-campaign
//!
//! The sharded, parallel verification-campaign runner: where `genoc-verif`
//! checks *one* instance at a time, this crate expands a
//! [`ScenarioMatrix`] — topology × routing × switching × size × capacity —
//! into hundreds-to-thousands of scenarios, runs the full verification
//! battery on each (obligations (C-1)…(C-5), Theorem 1 both directions,
//! Theorem 2 / evacuation, bounded deadlock hunts, the online-detection
//! cross-check) across a work-stealing shard executor, and aggregates
//! everything into a [`CampaignReport`] with JSON and markdown renderings.
//!
//! Three layers:
//!
//! * **[`matrix`]** — [`ScenarioMatrix`] builds the sweep; expansion drops
//!   unconstructible combinations and anything a user predicate vetoes,
//!   producing plain-data [`ScenarioSpec`]s (`Copy + Send`).
//! * **[`executor`]** — [`run_campaign`] deals specs across per-worker
//!   deques under [`std::thread::scope`]; idle workers steal from the
//!   busiest shard. Per-scenario seeds derive from the campaign seed and
//!   scenario name, so outcomes are identical at any `--jobs` count.
//! * **[`report`]** — [`CampaignReport`] rolls up pass/fail/witness/timing,
//!   serialises to `target/campaign.json`, and renders a markdown summary.
//!
//! The CLI lives in the facade crate:
//! `cargo run --release -p genoc --bin campaign -- --matrix default --jobs 8`.
//!
//! ## Example
//!
//! ```
//! use genoc_campaign::{run_campaign, CampaignOptions, EffortProfile, ScenarioMatrix};
//!
//! // Four small wormhole scenarios, two workers.
//! let scenarios = ScenarioMatrix::empty()
//!     .routings([genoc_core::meta::RoutingKind::Xy])
//!     .switchings([genoc_core::meta::SwitchingKind::Wormhole])
//!     .mesh_sizes([(2, 2), (3, 3)])
//!     .capacities([1, 2])
//!     .expand();
//! assert_eq!(scenarios.len(), 4);
//!
//! let report = run_campaign(
//!     &scenarios,
//!     &CampaignOptions {
//!         jobs: 2,
//!         effort: EffortProfile::quick(),
//!         ..CampaignOptions::default()
//!     },
//! );
//! assert!(report.all_passed(), "{}", report.render_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod json;
pub mod matrix;
pub mod report;
pub mod run;

pub use crate::executor::{run_campaign, CampaignOptions};
pub use crate::matrix::{Expansion, ScenarioMatrix, ScenarioSpec};
pub use crate::report::CampaignReport;
pub use crate::run::{
    run_scenario, run_scenario_with, scenario_seed, CheckOutcome, CheckStatus, EffortProfile,
    ScenarioMetrics, ScenarioOutcome, ScenarioThroughput,
};

/// Looks a preset up by name (`"smoke"`, `"default"`/`"standard"`,
/// `"full"`, `"large"`, `"oracle"`): its matrix and the effort it runs at.
pub fn preset(name: &str) -> Option<(ScenarioMatrix, EffortProfile)> {
    Some(match name {
        "smoke" => (ScenarioMatrix::smoke(), EffortProfile::quick()),
        "default" | "standard" => (ScenarioMatrix::standard(), EffortProfile::standard()),
        "full" => (ScenarioMatrix::full(), EffortProfile::standard()),
        "large" => (ScenarioMatrix::large(), EffortProfile::large()),
        "oracle" => (ScenarioMatrix::oracle(), EffortProfile::oracle()),
        _ => return None,
    })
}
