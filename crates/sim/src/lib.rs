//! # genoc-sim
//!
//! Simulation substrate for GeNoC-rs: reproducible workload generation
//! ([`workload`]), statistics ([`stats`]), a runner driving the GeNoC
//! interpreter ([`runner`]), and randomized deadlock hunting
//! ([`deadlock_hunt`]) for the necessity direction of the deadlock theorem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod deadlock_hunt;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod workload;

pub use crate::adaptive::{config_with_selected_routes, select_routes};
pub use crate::deadlock_hunt::{hunt_random, hunt_workload, Hunt, HuntOptions};
pub use crate::runner::{
    simulate, simulate_config, simulate_observed_config, DetectorHook, NullHook, NullObserver,
    RunObserver, SimOptions, SimResult, Stepper,
};
pub use crate::stats::{try_percentile, LatencySummary, RecoverySummary};
