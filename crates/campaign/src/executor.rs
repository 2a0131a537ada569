//! The sharded campaign executor: scenario specs dealt across per-worker
//! deques ([`genoc_core::steal`]), run on scoped threads, with idle workers
//! stealing from the busiest shard.
//!
//! Scenario costs vary by two orders of magnitude (a 2×2 mesh obligation
//! sweep vs an 8-attempt deadlock hunt on a 6×6 mesh), so static chunking
//! would leave shards idle; stealing keeps every core busy until the queue
//! drains. Determinism is preserved because per-scenario seeds derive from
//! the campaign seed and scenario name ([`crate::run::scenario_seed`]) —
//! `--jobs 1` and `--jobs 32` produce identical outcomes, in identical
//! report order (results are written back by scenario index).

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use genoc_core::steal::StealQueues;

use crate::matrix::ScenarioSpec;
use crate::report::CampaignReport;
use crate::run::{run_scenario_with, EffortProfile, ScenarioOutcome};

/// Campaign-wide execution knobs.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Campaign seed, folded into every per-scenario seed.
    pub seed: u64,
    /// Per-scenario effort.
    pub effort: EffortProfile,
    /// Matrix name recorded in the report.
    pub matrix: String,
    /// Directory for per-scenario event WALs (`None` disables capture).
    /// Scenario names are sanitized into file names; the directory is
    /// created on first write.
    pub wal_dir: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            jobs: 0,
            seed: 0,
            effort: EffortProfile::standard(),
            matrix: "custom".into(),
            wal_dir: None,
        }
    }
}

impl CampaignOptions {
    /// The effective worker count: `jobs`, or the machine's available
    /// parallelism when `jobs == 0`.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Runs every scenario and aggregates the results into a
/// [`CampaignReport`].
///
/// Workers are scoped threads ([`std::thread::scope`]), so the function
/// borrows `scenarios` plainly and returns only when the queue is drained.
pub fn run_campaign(scenarios: &[ScenarioSpec], options: &CampaignOptions) -> CampaignReport {
    let start = Instant::now();
    // More workers than scenarios would only spawn idle threads (and a
    // pathological --jobs could exhaust thread creation), so clamp.
    let jobs = options.effective_jobs().clamp(1, scenarios.len().max(1));
    let queues = StealQueues::new(jobs);
    queues.fill(u32::try_from(scenarios.len()).expect("a campaign has fewer than 2^32 scenarios"));
    let results: Vec<Mutex<Option<ScenarioOutcome>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    let executed: Vec<Mutex<usize>> = (0..jobs).map(|_| Mutex::new(0)).collect();

    std::thread::scope(|scope| {
        for me in 0..jobs {
            let queues = &queues;
            let results = &results;
            let executed = &executed;
            scope.spawn(move || {
                // Scenario costs differ a hundredfold, so one at a time:
                // a batch would hold cheap cells hostage behind a hunt.
                let mut next = Vec::with_capacity(1);
                while queues.pop_batch(me, 1, &mut next) {
                    let index = next[0] as usize;
                    let outcome = run_scenario_with(
                        &scenarios[index],
                        options.seed,
                        &options.effort,
                        options.wal_dir.as_deref(),
                    );
                    *results[index].lock().expect("result poisoned") = Some(outcome);
                    *executed[me].lock().expect("counter poisoned") += 1;
                }
            });
        }
    });

    let outcomes: Vec<ScenarioOutcome> = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result poisoned")
                .expect("queue drained, so every scenario ran")
        })
        .collect();
    CampaignReport {
        matrix: options.matrix.clone(),
        seed: options.seed,
        jobs,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        worker_scenarios: executed
            .into_iter()
            .map(|c| c.into_inner().expect("counter poisoned"))
            .collect(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;

    fn smoke_options(jobs: usize) -> CampaignOptions {
        CampaignOptions {
            jobs,
            seed: 42,
            effort: EffortProfile::quick(),
            matrix: "smoke".into(),
            wal_dir: None,
        }
    }

    #[test]
    fn campaign_runs_every_scenario_and_preserves_order() {
        let scenarios = ScenarioMatrix::smoke().expand();
        let report = run_campaign(&scenarios, &smoke_options(2));
        assert_eq!(report.outcomes.len(), scenarios.len());
        assert!(report.all_passed(), "{}", report.render_markdown());
        for (spec, outcome) in scenarios.iter().zip(&report.outcomes) {
            assert_eq!(spec.name(), outcome.name, "report preserves matrix order");
        }
        assert_eq!(report.jobs, 2);
        assert_eq!(
            report.worker_scenarios.iter().sum::<usize>(),
            scenarios.len()
        );
    }

    #[test]
    fn worker_count_is_clamped_to_the_scenario_count() {
        let scenarios: Vec<_> = ScenarioMatrix::smoke()
            .expand()
            .into_iter()
            .take(3)
            .collect();
        let report = run_campaign(&scenarios, &smoke_options(4096));
        assert_eq!(report.jobs, 3, "no idle threads beyond the queue length");
        assert_eq!(report.worker_scenarios.len(), 3);
    }

    #[test]
    fn shard_count_does_not_change_outcomes() {
        // The determinism contract: scheduling decides where a scenario
        // runs, never what it computes.
        let scenarios: Vec<_> = ScenarioMatrix::smoke()
            .expand()
            .into_iter()
            .take(6)
            .collect();
        let serial = run_campaign(&scenarios, &smoke_options(1));
        let parallel = run_campaign(&scenarios, &smoke_options(3));
        for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.passed(), b.passed());
            assert_eq!(a.deadlocks_seen, b.deadlocks_seen);
            let statuses = |o: &ScenarioOutcome| {
                o.checks
                    .iter()
                    .map(|c| (c.check, c.status, c.cases))
                    .collect::<Vec<_>>()
            };
            assert_eq!(statuses(a), statuses(b));
        }
    }
}
