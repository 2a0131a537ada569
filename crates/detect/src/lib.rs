//! # genoc-detect
//!
//! Online deadlock detection and recovery for GeNoC-rs — the runtime
//! counterpart to the statically checked deadlock theorem. Where
//! `genoc-depgraph` *proves* a routing function deadlock-free (or compiles a
//! cycle into a deadlock) and `genoc-sim`'s hunter *stumbles into* deadlocks
//! after the fact, this crate watches a run as it executes, catches a
//! deadlock the step it forms, and can recover from it — so deadlock-prone
//! instances become *runnable* instead of merely diagnosable.
//!
//! Three layers:
//!
//! * **Detection** — [`ExactDetector`], an incrementally maintained wait-for
//!   graph over blocking events (no false positives, fires the step a cycle
//!   closes), and [`TimeoutDetector`], the cheap stall-counter heuristic
//!   (bounded latency, possible false alarms, no false negatives) — the
//!   exact-vs-heuristic split of Verbeek–Schmaltz's verified detection
//!   algorithm.
//! * **Recovery** — pluggable [`RecoveryPolicy`] strategies:
//!   [`AbortAndEvacuate`] (sacrifice the youngest cycle member),
//!   [`EscapeChannel`] (divert members onto a reserved escape VC via an
//!   [`EscapeRoute`] provider such as [`RingEscape`]), and [`DrainAll`]
//!   (evict everything and re-inject serially — guaranteed delivery).
//! * **Integration** — [`DetectionEngine`] implements
//!   [`DetectorHook`](genoc_core::interpreter::DetectorHook), so any
//!   simulation becomes self-healing by handing the engine to
//!   [`genoc_sim::simulate_config`] as its hook. The engine assembles
//!   [`genoc_sim::RecoverySummary`] statistics (detection latency, recovery
//!   cost, throughput under recovery), and `genoc-verif`'s `detect_check`
//!   cross-validates every runtime-detected cycle against the static
//!   dependency graph.
//!
//! # Examples
//!
//! Watch a deadlock-prone run and catch the cycle the step it forms:
//!
//! ```
//! use genoc_core::config::Config;
//! use genoc_detect::{DetectionEngine, EngineOptions};
//! use genoc_routing::mixed::MixedXyYxRouting;
//! use genoc_sim::{simulate_config, workload, SimOptions};
//! use genoc_switching::Switching;
//! use genoc_topology::mesh::Mesh;
//!
//! # fn main() -> Result<(), genoc_core::Error> {
//! let mesh = Mesh::new(2, 2, 1);
//! let routing = MixedXyYxRouting::new(&mesh); // deliberately deadlock-prone
//! let mut engine = DetectionEngine::detector(EngineOptions::default());
//! let result = simulate_config(
//!     &mesh,
//!     &mut Switching::default(),
//!     Config::from_specs(&mesh, &routing, &workload::bit_complement(&mesh, 4))?,
//!     &SimOptions::default(),
//!     Some(&mut engine),
//!     None,
//! )?;
//! assert!(!result.evacuated(), "no recovery policy installed — the run deadlocks");
//! assert!(engine.fired(), "…but the detector caught the wait-for cycle");
//! let detection = &engine.detections()[0];
//! assert!(!detection.cycle.msgs.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! Install a [`RecoveryPolicy`] (see its docs for the strategy trade-offs)
//! and the same run evacuates instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod escape;
pub mod exact;
pub mod recovery;
pub mod timeout;

pub use crate::engine::{Detection, DetectionEngine, EngineOptions};
pub use crate::escape::{EscapeRoute, RingEscape};
pub use crate::exact::ExactDetector;
pub use crate::recovery::{
    AbortAndEvacuate, DrainAll, EscapeChannel, RecoveryOutcome, RecoveryPolicy,
};
pub use crate::timeout::{TimeoutDetector, DEFAULT_THRESHOLD};
