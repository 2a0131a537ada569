//! Output checks. Every comparison is one operation; every mismatch is one
//! failed operation, and any failed operation fails the run.
//!
//! Under the pinned seed — the first input of a run at `--seed 23` — and
//! under every seed for the explorer cell, whose inputs do not depend on it,
//! each output is compared with `pinned.json`: a simulator that got faster
//! must still produce every simulated statistic unchanged. Under any other
//! seed only invariants can be checked.

use genoc_campaign::json::Json;

use crate::jsonio::{get, parse};
use crate::workloads::{Output, WorkloadId, DEFAULT_SEED};

/// The outputs every workload produced at seed 23 when the benchmark was
/// defined.
pub const PINNED_JSON: &str = include_str!("../pinned.json");

/// Parses [`PINNED_JSON`].
pub fn pinned() -> Result<Json, String> {
    parse(PINNED_JSON)
}

/// Checks made and the mismatches among them.
#[derive(Default, Debug)]
pub struct Checked {
    /// Comparisons made.
    pub ops: u64,
    /// One line per comparison that did not hold.
    pub failures: Vec<String>,
}

impl Checked {
    fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !holds {
            self.failures.push(what());
        }
    }
}

fn matches(pinned: &Json, output: &Output) -> bool {
    match (pinned, output) {
        (Json::U64(p), Output::Count(c)) => p == c,
        (Json::Str(p), Output::Label(l)) => p == l,
        _ => false,
    }
}

fn count(outputs: &[(&'static str, Output)], name: &str) -> Option<u64> {
    outputs.iter().find_map(|(n, o)| match o {
        Output::Count(c) if *n == name => Some(*c),
        _ => None,
    })
}

fn label(outputs: &[(&'static str, Output)], name: &str) -> Option<&'static str> {
    outputs.iter().find_map(|(n, o)| match o {
        Output::Label(l) if *n == name => Some(*l),
        _ => None,
    })
}

/// Compares every output with the pinned value of the same name under
/// `pinned.workloads.<section>`.
fn against_pinned(
    checked: &mut Checked,
    pinned: &Json,
    section: &str,
    outputs: &[(&'static str, Output)],
) {
    let table = get(pinned, "workloads").and_then(|w| get(w, section));
    for (name, output) in outputs {
        let want = table.and_then(|t| get(t, name));
        checked.expect(want.is_some_and(|w| matches(w, output)), || {
            format!(
                "{section}.{name}: got {output:?}, pinned {}",
                want.map_or("nothing".to_string(), Json::render)
            )
        });
    }
}

/// Checks one rep's (or one probe's) outputs.
pub fn check(
    id: WorkloadId,
    seed: u64,
    outputs: &[(&'static str, Output)],
    pinned: &Json,
) -> Checked {
    let mut c = Checked::default();
    let pinned_seed = get(pinned, "seed") == Some(&Json::U64(seed)) && seed == DEFAULT_SEED;
    if pinned_seed || !id.seeded() {
        against_pinned(&mut c, pinned, id.name(), outputs);
    }
    let equal = |c: &mut Checked, a: &str, b: &str| {
        let (x, y) = (count(outputs, a), count(outputs, b));
        c.expect(x.is_some() && x == y, || {
            format!("{}: {a} = {x:?} but {b} = {y:?}", id.name())
        });
    };
    match id {
        WorkloadId::SimUniform | WorkloadId::SimHotspot => {
            c.expect(label(outputs, "outcome") == Some("evacuated"), || {
                format!("{}: the run did not evacuate", id.name())
            });
            equal(&mut c, "delivered_flits", "injected_flits");
            equal(&mut c, "arrived_msgs", "injected_msgs");
        }
        WorkloadId::SimRecoverWal => {
            c.expect(label(outputs, "outcome") == Some("evacuated"), || {
                format!("{}: recovery did not evacuate the run", id.name())
            });
            let settled = count(outputs, "arrived_msgs").zip(count(outputs, "aborted_msgs"));
            c.expect(
                settled.map(|(a, b)| a + b) == count(outputs, "injected_msgs"),
                || format!("{}: delivered + aborted ≠ injected messages", id.name()),
            );
            c.expect(
                label(outputs, "replay_outcome") == label(outputs, "outcome"),
                || format!("{}: the WAL records another outcome", id.name()),
            );
            equal(&mut c, "replay_steps", "steps");
            equal(&mut c, "replay_arrived_msgs", "arrived_msgs");
        }
        WorkloadId::ExploreRam => {}
        WorkloadId::ExploreSpill => {
            // Neither the pool nor the disk tier may change what is found.
            let shared: Vec<_> = outputs
                .iter()
                .filter(|(n, _)| ["verdict", "states", "depth", "group_size"].contains(n))
                .cloned()
                .collect();
            against_pinned(&mut c, pinned, WorkloadId::ExploreRam.name(), &shared);
        }
        WorkloadId::CampaignFull | WorkloadId::CampaignOracleMesh => {
            equal(&mut c, "cells_passed", "cells");
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_outputs(steps: u64, delivered: u64) -> Vec<(&'static str, Output)> {
        vec![
            ("outcome", Output::Label("evacuated")),
            ("steps", Output::Count(steps)),
            ("injected_msgs", Output::Count(10)),
            ("injected_flits", Output::Count(50)),
            ("delivered_flits", Output::Count(delivered)),
            ("arrived_msgs", Output::Count(10)),
        ]
    }

    fn pins(steps: u64) -> Json {
        parse(&format!(
            r#"{{"seed": 23, "workloads": {{"sim-uniform": {{"outcome": "evacuated",
            "steps": {steps}, "injected_msgs": 10, "injected_flits": 50,
            "delivered_flits": 50, "arrived_msgs": 10}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn matching_outputs_pass_and_every_comparison_is_counted() {
        let c = check(WorkloadId::SimUniform, 23, &sim_outputs(7, 50), &pins(7));
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert_eq!(c.ops, 6 + 3);
    }

    #[test]
    fn a_wrong_pinned_count_is_a_failed_op() {
        let c = check(WorkloadId::SimUniform, 23, &sim_outputs(7, 50), &pins(8));
        assert_eq!(c.failures.len(), 1);
        assert!(
            c.failures[0].contains("sim-uniform.steps"),
            "{:?}",
            c.failures
        );
    }

    #[test]
    fn other_seeds_check_invariants_only() {
        let good = check(WorkloadId::SimUniform, 5, &sim_outputs(99, 50), &pins(7));
        assert!(good.failures.is_empty());
        assert_eq!(good.ops, 3);
        let lost = check(WorkloadId::SimUniform, 5, &sim_outputs(99, 49), &pins(7));
        assert_eq!(lost.failures.len(), 1);
    }

    #[test]
    fn only_the_first_input_of_the_pinned_seed_is_pinned() {
        use crate::workloads::input_seed;
        assert_eq!(input_seed(DEFAULT_SEED, 0), DEFAULT_SEED);
        let later = input_seed(DEFAULT_SEED, 1);
        assert!(later != DEFAULT_SEED && later != input_seed(DEFAULT_SEED, 2));
        let c = check(
            WorkloadId::SimUniform,
            later,
            &sim_outputs(99, 50),
            &pins(7),
        );
        assert!(c.failures.is_empty());
        assert_eq!(c.ops, 3);
    }

    #[test]
    fn the_committed_pins_cover_every_workload() {
        let pinned = pinned().unwrap();
        for id in WorkloadId::ALL {
            let section = get(&pinned, "workloads").and_then(|w| get(w, id.name()));
            assert!(section.is_some(), "{}", id.name());
        }
        assert_eq!(get(&pinned, "seed"), Some(&Json::U64(DEFAULT_SEED)));
    }
}
