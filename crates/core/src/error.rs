//! Error types for the GeNoC model.

use std::fmt;

use crate::ids::{MsgId, PortId};

/// Errors produced while constructing or executing a GeNoC specification.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The routing function produced no next hop for a pair of ports that was
    /// claimed reachable.
    NoRoute {
        /// Port the route computation was stuck at.
        from: PortId,
        /// Requested destination port.
        dest: PortId,
    },
    /// Route computation exceeded the hop limit without reaching the
    /// destination, which indicates a livelocked (non-terminating) routing
    /// function.
    RouteDiverged {
        /// Port the route computation started from.
        from: PortId,
        /// Requested destination port.
        dest: PortId,
        /// Hop limit that was exhausted.
        limit: usize,
    },
    /// A message specification was malformed (unknown node, zero flits, …).
    InvalidSpec(String),
    /// A configuration violated one of the structural invariants
    /// (buffer over-subscription, inconsistent ownership, …).
    Invariant(String),
    /// A port was asked to hold more flits than its capacity.
    CapacityExceeded {
        /// The over-subscribed port.
        port: PortId,
        /// Capacity of the port.
        capacity: u32,
    },
    /// The switching policy reported a non-deadlocked configuration but then
    /// failed to move any flit — a violation of proof obligation (C-5)'s
    /// premise that every non-deadlocked step makes progress.
    ProgressViolation {
        /// Step number at which the violation occurred.
        step: u64,
    },
    /// The termination measure failed to strictly decrease on a
    /// non-deadlocked step — a violation of proof obligation (C-5).
    MeasureViolation {
        /// Step number at which the violation occurred.
        step: u64,
        /// Measure before the step.
        before: u64,
        /// Measure after the step.
        after: u64,
    },
    /// A travel identifier was not found in the configuration.
    UnknownTravel(MsgId),
    /// A disk-spill I/O operation of the explorer failed (file create,
    /// read, or write under `--spill-dir`).
    Spill(String),
    /// A record of an event log that was verified when the log was read no
    /// longer reads back as it was verified: the file was cut short,
    /// rewritten or became unreadable since.
    WalChanged {
        /// Byte offset of the record's frame in the log.
        offset: u64,
        /// What failed, naming the byte it failed at.
        what: String,
    },
    /// The explorer's parallel engine was asked for more worker threads or
    /// frontier shards than it allows: every block of a level holds one
    /// bucket per (worker, shard), so a level holds up to
    /// `jobs × jobs × shards` of them.
    ParallelismBound {
        /// Worker threads asked for.
        jobs: usize,
        /// Frontier shards asked for; `0` when none were, and the count
        /// follows the jobs.
        shards: usize,
        /// The largest job count, and the largest shard count, allowed.
        max: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoRoute { from, dest } => {
                write!(
                    f,
                    "routing function returned no next hop from {from} toward {dest}"
                )
            }
            Error::RouteDiverged { from, dest, limit } => write!(
                f,
                "route from {from} toward {dest} did not terminate within {limit} hops"
            ),
            Error::InvalidSpec(msg) => write!(f, "invalid message specification: {msg}"),
            Error::Invariant(msg) => write!(f, "configuration invariant violated: {msg}"),
            Error::CapacityExceeded { port, capacity } => {
                write!(f, "port {port} over-subscribed beyond capacity {capacity}")
            }
            Error::ProgressViolation { step } => write!(
                f,
                "switching step {step} moved no flit although the configuration was not a deadlock"
            ),
            Error::MeasureViolation {
                step,
                before,
                after,
            } => write!(
                f,
                "termination measure did not decrease on step {step} ({before} -> {after})"
            ),
            Error::UnknownTravel(id) => write!(f, "travel {id} not present in configuration"),
            Error::Spill(msg) => write!(f, "spill I/O failed: {msg}"),
            Error::WalChanged { what, .. } => {
                write!(f, "event log changed since it was read: {what}")
            }
            Error::ParallelismBound {
                jobs,
                shards: 0,
                max,
            } => write!(
                f,
                "{jobs} jobs asked for: the parallel explorer's bound is {max} jobs"
            ),
            Error::ParallelismBound { jobs, shards, max } => write!(
                f,
                "{jobs} jobs and {shards} shards asked for: the parallel explorer's bound is \
                 {max} of each"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_ports() {
        let e = Error::NoRoute {
            from: PortId::from_index(1),
            dest: PortId::from_index(2),
        };
        let msg = e.to_string();
        assert!(msg.contains("p1") && msg.contains("p2"), "{msg}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn measure_violation_shows_values() {
        let e = Error::MeasureViolation {
            step: 3,
            before: 10,
            after: 10,
        };
        assert!(e.to_string().contains("10 -> 10"));
    }

    #[test]
    fn parallelism_bound_names_only_what_was_asked_for() {
        let derived = Error::ParallelismBound {
            jobs: 65,
            shards: 0,
            max: 64,
        };
        assert_eq!(
            derived.to_string(),
            "65 jobs asked for: the parallel explorer's bound is 64 jobs"
        );
        let both = Error::ParallelismBound {
            jobs: 2,
            shards: 65,
            max: 64,
        };
        assert_eq!(
            both.to_string(),
            "2 jobs and 65 shards asked for: the parallel explorer's bound is 64 of each"
        );
    }
}
