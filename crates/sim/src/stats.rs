//! Summary statistics over simulation runs.

use genoc_core::MsgId;

/// Statistics of a run under online deadlock detection and recovery
/// (assembled by `genoc-detect`'s engine): how quickly deadlocks were
/// caught, what recovery cost, and what throughput the run sustained.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoverySummary {
    /// Wait-for cycles reported by the exact detector.
    pub exact_detections: u64,
    /// Step of the first exact detection, if any.
    pub first_exact_step: Option<u64>,
    /// Step of the first timeout-heuristic alarm, if any.
    pub first_heuristic_step: Option<u64>,
    /// Heuristic alarms raised while no wait-for cycle existed.
    pub heuristic_false_alarms: u64,
    /// Recovery invocations (one per policy application).
    pub recoveries: u64,
    /// Messages aborted by recovery, in abort order.
    pub aborted: Vec<MsgId>,
    /// Messages rerouted through an escape channel, in reroute order.
    pub rerouted: Vec<MsgId>,
    /// Drain-and-restart rounds performed.
    pub restarts: u64,
    /// Messages delivered by the end of the run.
    pub delivered: u64,
    /// Total switching steps of the run.
    pub total_steps: u64,
}

impl RecoverySummary {
    /// Detection latency of the heuristic relative to the exact detector, in
    /// steps (`None` unless both fired).
    pub fn detection_latency(&self) -> Option<u64> {
        match (self.first_exact_step, self.first_heuristic_step) {
            (Some(e), Some(h)) => Some(h.saturating_sub(e)),
            _ => None,
        }
    }

    /// Records `ids` as aborted, skipping ids already on the abort list.
    ///
    /// A batch-injected cohort shares an injection step, so a
    /// drain-and-restart round can re-inject a message that a later cycle
    /// evicts again; counting it twice would break the
    /// `delivered + aborted` accounting.
    pub fn note_aborted(&mut self, ids: impl IntoIterator<Item = MsgId>) {
        for id in ids {
            if !self.aborted.contains(&id) {
                self.aborted.push(id);
            }
        }
    }

    /// Records `ids` as rerouted, skipping ids already on the reroute list
    /// (a message diverted onto an escape route can be caught in a second
    /// cycle and diverted again; it is still one disturbed message).
    pub fn note_rerouted(&mut self, ids: impl IntoIterator<Item = MsgId>) {
        for id in ids {
            if !self.rerouted.contains(&id) {
                self.rerouted.push(id);
            }
        }
    }

    /// Delivered messages per switching step (0 for an empty run).
    pub fn throughput(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.delivered as f64 / self.total_steps as f64
        }
    }
}

/// Latency and throughput summary of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of messages the summary covers.
    pub messages: usize,
    /// Smallest per-message latency (steps from injection start to tail
    /// ejection).
    pub min: u64,
    /// Mean latency.
    pub mean: f64,
    /// Largest latency.
    pub max: u64,
}

impl LatencySummary {
    /// Summarises a list of per-message latencies; `None` if empty.
    pub fn from_latencies(latencies: &[u64]) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        let min = *latencies.iter().min().expect("non-empty");
        let max = *latencies.iter().max().expect("non-empty");
        let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
        Some(LatencySummary {
            messages: latencies.len(),
            min,
            mean,
            max,
        })
    }
}

/// Mean of a slice of `u64` samples (0 for empty input).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// The `p`-th percentile (0–100) of the samples, by the nearest-rank
/// method: `None` for an empty sample set (a run that delivered nothing)
/// or `p > 100`.
pub fn try_percentile(samples: &[u64], p: u32) -> Option<u64> {
    if samples.is_empty() || p > 100 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p as usize * sorted.len()).div_ceil(100)).max(1);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_computes_min_mean_max() {
        let s = LatencySummary::from_latencies(&[2, 4, 6]).unwrap();
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 6);
        assert!((s.mean - 4.0).abs() < 1e-9);
        assert_eq!(s.messages, 3);
    }

    #[test]
    fn empty_latencies_yield_none() {
        assert!(LatencySummary::from_latencies(&[]).is_none());
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples = [10, 20, 30, 40, 50];
        assert_eq!(try_percentile(&samples, 50), Some(30));
        assert_eq!(try_percentile(&samples, 100), Some(50));
        assert_eq!(try_percentile(&samples, 1), Some(10));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn try_percentile_covers_the_panicking_edges() {
        assert_eq!(try_percentile(&[], 50), None);
        assert_eq!(try_percentile(&[7], 101), None);
        assert_eq!(try_percentile(&[7], 0), Some(7));
        let samples = [10, 20, 30, 40, 50];
        for (p, rank) in [(0, 1), (1, 1), (50, 3), (99, 5), (100, 5)] {
            assert_eq!(try_percentile(&samples, p), Some(samples[rank - 1]));
        }
    }

    #[test]
    fn empty_run_summaries_are_all_zero_not_panics() {
        // A run that injected nothing and stepped nowhere: every derived
        // figure degrades to zero/None instead of dividing by zero.
        let s = RecoverySummary::default();
        assert_eq!(s.detection_latency(), None);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(try_percentile(&[], 99), None);
        assert!(LatencySummary::from_latencies(&[]).is_none());
        // One-sided detection (heuristic never confirmed, or exact never
        // fired) reports no latency rather than a misleading zero.
        let exact_only = RecoverySummary {
            first_exact_step: Some(5),
            ..RecoverySummary::default()
        };
        assert_eq!(exact_only.detection_latency(), None);
        let heuristic_only = RecoverySummary {
            first_heuristic_step: Some(5),
            ..RecoverySummary::default()
        };
        assert_eq!(heuristic_only.detection_latency(), None);
    }

    #[test]
    fn recovery_summary_derives_latency_cost_throughput() {
        let s = RecoverySummary {
            exact_detections: 2,
            first_exact_step: Some(10),
            first_heuristic_step: Some(42),
            aborted: vec![MsgId::from_index(3)],
            rerouted: vec![MsgId::from_index(1), MsgId::from_index(2)],
            delivered: 15,
            total_steps: 60,
            ..RecoverySummary::default()
        };
        assert_eq!(s.detection_latency(), Some(32));
        assert_eq!(s.aborted.len() + s.rerouted.len(), 3);
        assert!((s.throughput() - 0.25).abs() < 1e-9);
        assert_eq!(RecoverySummary::default().detection_latency(), None);
        assert_eq!(RecoverySummary::default().throughput(), 0.0);
    }

    #[test]
    fn same_step_cohorts_are_not_double_counted() {
        // A batch-injected cohort shares one injection step; a
        // drain-and-restart round can hand the same messages back to a later
        // recovery. Recording them again must not inflate the lists.
        let cohort = [MsgId::from_index(4), MsgId::from_index(5)];
        let mut s = RecoverySummary::default();
        s.note_aborted(cohort);
        s.note_aborted(cohort); // second recovery round, same cohort
        s.note_aborted([MsgId::from_index(6)]);
        assert_eq!(
            s.aborted,
            vec![
                MsgId::from_index(4),
                MsgId::from_index(5),
                MsgId::from_index(6)
            ],
            "each message counts once, in first-abort order"
        );
        s.note_rerouted(cohort);
        s.note_rerouted([MsgId::from_index(5), MsgId::from_index(7)]);
        assert_eq!(
            s.rerouted,
            vec![
                MsgId::from_index(4),
                MsgId::from_index(5),
                MsgId::from_index(7)
            ]
        );
        assert_eq!(
            s.aborted.len() + s.rerouted.len(),
            6,
            "3 distinct aborts + 3 distinct reroutes"
        );
    }
}
