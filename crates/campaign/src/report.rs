//! Campaign aggregation: pass/fail/witness/timing roll-ups, JSON export,
//! and a rendered markdown summary.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::run::ScenarioOutcome;

/// Everything a campaign produced, in matrix order.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Matrix name (`"smoke"`, `"default"`, `"full"`, or `"custom"`).
    pub matrix: String,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock milliseconds for the whole campaign.
    pub wall_ms: f64,
    /// Scenarios executed per worker (work-stealing balance). It depends on
    /// steal timing, so neither rendering prints it: at a fixed seed both
    /// differ between runs only in their clock fields.
    pub worker_scenarios: Vec<usize>,
    /// Per-scenario outcomes, in matrix order regardless of scheduling.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    /// Scenario count.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Scenarios with no failed check.
    pub fn passed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.passed()).count()
    }

    /// Scenarios with at least one failed check.
    pub fn failed(&self) -> usize {
        self.total() - self.passed()
    }

    /// Whether every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0
    }

    /// Live deadlocks observed across the campaign (hunts, evacuation
    /// runs, detection sweeps) — the cyclic comparators at work.
    pub fn deadlocks_seen(&self) -> u64 {
        self.outcomes.iter().map(|o| o.deadlocks_seen).sum()
    }

    /// Sum of per-scenario wall clocks — the serial cost the shards divided.
    pub fn cpu_ms(&self) -> f64 {
        self.outcomes.iter().map(|o| o.elapsed_ms).sum()
    }

    /// The failing scenarios.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.passed())
    }

    /// Serialises the full report as JSON.
    pub fn to_json(&self) -> String {
        let outcomes: Vec<Json> = self.outcomes.iter().map(outcome_json).collect();
        Json::obj([
            ("matrix", Json::str(&self.matrix)),
            ("seed", Json::U64(self.seed)),
            ("jobs", Json::U64(self.jobs as u64)),
            ("wall_ms", Json::F64(self.wall_ms)),
            ("cpu_ms", Json::F64(self.cpu_ms())),
            ("scenarios", Json::U64(self.total() as u64)),
            ("passed", Json::U64(self.passed() as u64)),
            ("failed", Json::U64(self.failed() as u64)),
            ("deadlocks_seen", Json::U64(self.deadlocks_seen())),
            ("outcomes", Json::Arr(outcomes)),
        ])
        .render()
    }

    /// Writes the JSON report, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Renders the human-facing markdown summary: the headline verdict, a
    /// per-(topology × switching) breakdown, and any failures in full.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# Campaign `{}` — {}/{} scenarios passed\n\n",
            self.matrix,
            self.passed(),
            self.total()
        ));
        out.push_str(&format!(
            "- seed `{}`, `{}` worker{} — wall {:.1} s, cpu {:.1} s ({:.2}x)\n",
            self.seed,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.wall_ms / 1e3,
            self.cpu_ms() / 1e3,
            if self.wall_ms > 0.0 {
                self.cpu_ms() / self.wall_ms
            } else {
                0.0
            }
        ));
        out.push_str(&format!(
            "- {} live deadlocks observed (cyclic comparators doing their job)\n\n",
            self.deadlocks_seen()
        ));

        // Per (topology × switching) breakdown, with aggregate throughput
        // of the Theorem 2 evacuation runs.
        #[derive(Default)]
        struct Group {
            total: usize,
            passed: usize,
            steps: u64,
            flits: u64,
            run_secs: f64,
        }
        let mut groups: BTreeMap<(String, String), Group> = BTreeMap::new();
        for o in &self.outcomes {
            let key = (
                o.spec.meta.topology.label().to_string(),
                o.spec.switching.label().to_string(),
            );
            let entry = groups.entry(key).or_default();
            entry.total += 1;
            if o.passed() {
                entry.passed += 1;
            }
            if let Some(t) = &o.throughput {
                entry.steps += t.steps;
                entry.flits += t.delivered_flits;
                entry.run_secs += t.run_ms / 1e3;
            }
        }
        out.push_str("| topology | switching | passed | scenarios | steps | flits | kflit/s |\n");
        out.push_str("|---|---|---:|---:|---:|---:|---:|\n");
        for ((topo, sw), g) in &groups {
            let rate = if g.run_secs > 0.0 {
                g.flits as f64 / g.run_secs / 1e3
            } else {
                0.0
            };
            out.push_str(&format!(
                "| {topo} | {sw} | {} | {} | {} | {} | {rate:.0} |\n",
                g.passed, g.total, g.steps, g.flits
            ));
        }

        let mut failures = self.failures().peekable();
        if failures.peek().is_some() {
            out.push_str("\n## Failures\n\n");
            for o in failures {
                out.push_str(&format!("- **{}** (seed `{}`):\n", o.name, o.seed));
                for c in o.failures() {
                    out.push_str(&format!(
                        "  - `{}`: {}\n",
                        c.check,
                        if c.notes.is_empty() {
                            "violation".to_string()
                        } else {
                            c.notes.join("; ")
                        }
                    ));
                }
            }
        } else {
            out.push_str("\nNo failures.\n");
        }

        // The five slowest scenarios, for effort tuning.
        let mut by_cost: Vec<&ScenarioOutcome> = self.outcomes.iter().collect();
        by_cost.sort_by(|a, b| b.elapsed_ms.total_cmp(&a.elapsed_ms));
        if !by_cost.is_empty() {
            out.push_str("\n## Slowest scenarios\n\n");
            for o in by_cost.iter().take(5) {
                out.push_str(&format!("- {:.0} ms — {}\n", o.elapsed_ms, o.name));
            }
        }
        out
    }
}

fn outcome_json(o: &ScenarioOutcome) -> Json {
    Json::obj([
        ("name", Json::str(&o.name)),
        ("topology", Json::str(o.spec.meta.topology.label())),
        ("routing", Json::str(o.spec.meta.routing.label())),
        ("switching", Json::str(o.spec.switching.label())),
        ("width", Json::U64(o.spec.meta.width as u64)),
        ("height", Json::U64(o.spec.meta.height as u64)),
        ("vcs", Json::U64(o.spec.meta.vcs as u64)),
        ("capacity", Json::U64(u64::from(o.spec.meta.capacity))),
        ("seed", Json::U64(o.seed)),
        ("deterministic", Json::Bool(o.deterministic)),
        ("expect_acyclic", Json::Bool(o.expect_acyclic)),
        ("passed", Json::Bool(o.passed())),
        ("deadlocks_seen", Json::U64(o.deadlocks_seen)),
        ("elapsed_ms", Json::F64(o.elapsed_ms)),
        (
            "throughput",
            match &o.throughput {
                Some(t) => Json::obj([
                    ("steps", Json::U64(t.steps)),
                    ("delivered_flits", Json::U64(t.delivered_flits)),
                    ("run_ms", Json::F64(t.run_ms)),
                    ("flits_per_sec", Json::F64(t.flits_per_sec)),
                ]),
                None => Json::Null,
            },
        ),
        (
            "metrics",
            match (&o.throughput, &o.metrics) {
                (Some(t), Some(m)) => Json::obj([
                    ("steps", Json::U64(t.steps)),
                    ("flits_per_sec", Json::F64(t.flits_per_sec)),
                    ("blocked_peak", Json::U64(m.blocked_peak)),
                    (
                        "detector_first_step",
                        m.detector_first_step.map_or(Json::Null, Json::U64),
                    ),
                    (
                        "detection_latency",
                        m.detection_latency.map_or(Json::Null, Json::U64),
                    ),
                    ("wal_bytes", Json::U64(m.wal_bytes)),
                    ("wal_records", Json::U64(m.wal_records)),
                ]),
                _ => Json::Null,
            },
        ),
        (
            "checks",
            Json::Arr(
                o.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.check)),
                            ("status", Json::str(c.status.label())),
                            ("cases", Json::U64(c.cases)),
                            ("millis", Json::F64(c.millis)),
                            ("notes", Json::Arr(c.notes.iter().map(Json::str).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_campaign, CampaignOptions};
    use crate::matrix::ScenarioMatrix;
    use crate::run::EffortProfile;

    fn tiny_report() -> CampaignReport {
        let scenarios: Vec<_> = ScenarioMatrix::smoke()
            .expand()
            .into_iter()
            .take(4)
            .collect();
        run_campaign(
            &scenarios,
            &CampaignOptions {
                jobs: 2,
                seed: 1,
                effort: EffortProfile::quick(),
                matrix: "tiny".into(),
                wal_dir: None,
            },
        )
    }

    #[test]
    fn json_is_structurally_sound_and_complete() {
        let report = tiny_report();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches("\"name\":").count(),
            report.total()
                + report
                    .outcomes
                    .iter()
                    .map(|o| o.checks.len())
                    .sum::<usize>(),
            "one name per scenario and per check"
        );
        for o in &report.outcomes {
            assert!(json.contains(&format!("\"name\":\"{}\"", o.name)));
        }
        assert!(json.contains("\"matrix\":\"tiny\""));
        assert!(
            !json.contains("worker_scenarios"),
            "steal timing is not reported"
        );
    }

    #[test]
    fn markdown_summarises_verdict_and_balance() {
        let report = tiny_report();
        let md = report.render_markdown();
        assert!(md.contains("# Campaign `tiny`"));
        // The per-group balance of passed scenarios; the per-worker balance
        // after stealing is timing, not outcome, and is left out.
        assert!(md.contains("| topology | switching | passed | scenarios |"));
        assert!(!md.contains("shard balance"));
        if report.all_passed() {
            assert!(md.contains("No failures."));
        }
    }

    /// Zeroes what the clock decides: wall times and throughput rates. (The
    /// explorer notes' `ms=N` would be one too, but the smoke preset runs no
    /// explorer.)
    fn without_clocks(mut report: CampaignReport) -> CampaignReport {
        report.wall_ms = 0.0;
        for o in &mut report.outcomes {
            o.elapsed_ms = 0.0;
            if let Some(t) = &mut o.throughput {
                t.run_ms = 0.0;
                t.flits_per_sec = 0.0;
            }
            for c in &mut o.checks {
                c.millis = 0.0;
            }
        }
        report
    }

    #[test]
    fn smoke_reports_are_reproducible_at_a_fixed_seed() {
        let scenarios = ScenarioMatrix::smoke().expand();
        let options = CampaignOptions {
            jobs: 2,
            seed: 0,
            effort: EffortProfile::quick(),
            matrix: "smoke".into(),
            wal_dir: None,
        };
        let first = without_clocks(run_campaign(&scenarios, &options));
        let second = without_clocks(run_campaign(&scenarios, &options));
        assert_eq!(first.total(), scenarios.len());
        assert_eq!(first.to_json(), second.to_json());
    }

    #[test]
    fn write_json_creates_parent_directories() {
        let report = tiny_report();
        let dir = std::env::temp_dir().join("genoc-campaign-test");
        let path = dir.join("nested").join("campaign.json");
        let _ = std::fs::remove_dir_all(&dir);
        report.write_json(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
