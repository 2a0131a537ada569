//! # genoc-obs
//!
//! Observability for GeNoC-rs: the kernel already produces exactly the
//! evidence stream the paper's deadlock story runs on — status
//! [`Transition`](genoc_core::kernel::Transition)s (a `Blocked(p)`
//! transition *is* a wait-for edge), the freed-port wake log, detector
//! firings — and this crate makes that stream durable and queryable instead
//! of rerun-only. Three layers:
//!
//! * **WAL** ([`wal`]) — an append-only binary event log per run: framed,
//!   checksummed records for injections, flit moves, status transitions,
//!   freed ports, wait-for edge add/remove, detector firings, recovery
//!   actions, and periodic full-state snapshots. Damaged or truncated tails
//!   are detected, never fatal. A log is verified whole when it is read,
//!   streamed through one fixed buffer, and kept as its open file and an
//!   index ([`WalRecords`]); records are read back from the file and
//!   decoded where a reader looks at them.
//! * **Replay** ([`replay`]) — [`replay_to`] reconstructs the full
//!   [`Config`](genoc_core::config::Config) after any number of steps from
//!   the nearest snapshot plus the move tail, provably identical to a fresh
//!   rerun (the differential suite in `tests/obs_replay.rs` checks every
//!   smoke-matrix scenario). Deadlock post-mortems become "print the last K
//!   events before the cycle closed" ([`tail_lines`], `bin/replay`).
//! * **Metrics** ([`metrics`]) — a hand-rolled [`MetricsRegistry`] of
//!   counters and gauges (flits/sec, blocked-set peak, detector latency,
//!   recovery cost, WAL bytes/records), rendered as Prometheus text to a
//!   snapshot file and summarized per scenario in campaign.json.
//!
//! The capture side rides the runner's
//! [`RunObserver`](genoc_sim::RunObserver) hook — the passive sibling of
//! `DetectorHook` — via [`Recorder`], with [`ObservedEngine`] wrapping a
//! `DetectionEngine` so detections land in the same log:
//!
//! ```
//! use genoc_obs::{read_wal_bytes, recorded_outcome, replay_to, shared, Recorder, WalWriter};
//! use genoc_routing::xy::XyRouting;
//! use genoc_core::config::Config;
//! use genoc_sim::{simulate_observed_config, NullHook, SimOptions};
//! use genoc_switching::Switching;
//! use genoc_topology::mesh::Mesh;
//!
//! let mesh = Mesh::new(3, 3, 2);
//! let routing = XyRouting::new(&mesh);
//! let specs = genoc_sim::workload::transpose(&mesh, 2);
//! let wal = shared(WalWriter::in_memory());
//! let mut recorder = Recorder::with_wal(wal.clone(), 7, None);
//! let result = simulate_observed_config(
//!     &mesh,
//!     &mut Switching::default(),
//!     Config::from_specs(&mesh, &routing, &specs).unwrap(),
//!     &SimOptions::default(),
//!     &mut NullHook,
//!     &mut recorder,
//! )
//! .unwrap();
//! drop(recorder);
//! let writer = std::rc::Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
//! let writer_records = writer.records_written();
//! let bytes = writer.finish().unwrap().unwrap();
//! // Every record is verified here, and none is decoded yet:
//! let log = read_wal_bytes(&bytes);
//! assert!(log.damage.is_none());
//! assert_eq!(log.events.len() as u64, writer_records);
//! // The footer comes from the log's index,
//! let (_, steps) = recorded_outcome(&log.events).unwrap();
//! assert_eq!(steps, result.run.steps);
//! // and any step of the run is reconstructible without a rerun, from the
//! // nearest snapshot and the records after it:
//! let mid = replay_to(&mesh, &log.events, steps / 2).unwrap();
//! assert!(!mid.travels().is_empty() || !mid.arrived().is_empty());
//! // Records are read back and decoded one by one, on demand:
//! let read = log.events.iter().collect::<Result<Vec<_>, _>>().unwrap();
//! assert_eq!(read.len(), log.events.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod observer;
pub mod replay;
pub mod wal;

pub use crate::metrics::{MetricKind, MetricsRegistry};
pub use crate::observer::{
    shared, ObsSummary, ObservedEngine, Recorder, RecorderOptions, SharedWal,
};
pub use crate::replay::{
    describe, detections, final_steps, initial_config, recorded_outcome, replay_to, run_start,
    tail_lines,
};
pub use crate::wal::{
    read_wal, read_wal_bytes, RecoveryAction, SnapshotImages, TravelImage, WalEvent, WalLog,
    WalMeta, WalRecords, WalWriter, WAL_MAGIC, WAL_READ_BUFFER, WAL_VERSION,
};
