//! The benchmark's contract: the metric names and units this code emits, and
//! `BENCHMARK.json` — bounds, run length, workload list — read at build time.
//! A unit test holds the two to each other, name for name.

use crate::jsonio::{as_f64, as_str, get, items, parse};

/// `BENCHMARK.json` as committed at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The end-to-end metrics, `(name, unit)`, in reporting order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_flits_per_s", "flits/s"),
    ("explore_states_per_s", "states/s"),
    ("campaign_cells_per_s", "cells/s"),
    ("wal_replay_s", "s"),
    ("peak_rss_bytes", "bytes"),
    ("explore_peak_bytes", "bytes"),
    ("io_bytes", "bytes"),
];

/// Metrics that are deterministic counts: two runs of one seed are compared
/// exactly, whatever bound `BENCHMARK.json` gives them for the driver's
/// across-seed comparison.
pub const EXACT: [&str; 2] = ["explore_peak_bytes", "io_bytes"];

/// The per-layer metrics, `(name, unit)`; the layer is the name's prefix.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("topology.build_s", "s"),
    ("routing.route_s", "s"),
    ("routing.routes", "count"),
    ("routing.ns_per_hop", "ns"),
    ("core.config_build_s", "s"),
    ("core.arena_build_s", "s"),
    ("core.arena_step_s", "s"),
    ("core.arena_steps", "count"),
    ("core.arena_moves", "count"),
    ("core.arena_ns_per_move", "ns"),
    ("core.arena_ns_per_step", "ns"),
    ("core.arena_is_deadlock_s", "s"),
    ("core.arena_drain_s", "s"),
    ("core.arena_clone_s", "s"),
    ("core.moves_enumerate_s", "s"),
    ("core.moves_apply_s", "s"),
    ("core.position_key_s", "s"),
    ("core.enabled_moves", "count"),
    ("sim.workload_gen_s", "s"),
    ("sim.runner_self_s", "s"),
    ("sim.hunt_s", "s"),
    ("detect.hook_s", "s"),
    ("detect.hook_calls", "count"),
    ("detect.ns_per_call", "ns"),
    ("detect.detections", "count"),
    ("detect.aborted_msgs", "count"),
    ("detect.check_s", "s"),
    ("obs.on_step_s", "s"),
    ("obs.wal_records", "count"),
    ("obs.wal_bytes", "bytes"),
    ("obs.ns_per_record", "ns"),
    ("obs.finish_s", "s"),
    ("obs.read_s", "s"),
    ("obs.replay_s", "s"),
    ("obs.read_mib_per_s", "MiB/s"),
    ("obs.record_over_plain", "ratio"),
    ("explore.workload_build_s", "s"),
    ("explore.symmetry_s", "s"),
    ("explore.decode_s", "s"),
    ("explore.ample_s", "s"),
    ("explore.canonicalize_s", "s"),
    ("explore.intern_s", "s"),
    ("explore.states", "count"),
    ("explore.transitions", "count"),
    ("explore.fresh_ratio", "ratio"),
    ("explore.ample_ratio", "ratio"),
    ("explore.engine_self_s", "s"),
    ("explore.spill_write_s", "s"),
    ("explore.spill_read_s", "s"),
    ("explore.spill_over_ram", "ratio"),
    ("explore.jobs2_over_jobs1", "ratio"),
    ("depgraph.c3_s", "s"),
    ("verif.obligations_s", "s"),
    ("verif.theorem1_s", "s"),
    ("verif.theorem2_s", "s"),
    ("verif.oracle_s", "s"),
    ("campaign.expand_s", "s"),
    ("campaign.cpu_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("campaign.shard_imbalance", "ratio"),
    ("campaign.report_json_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The layer (crate) a per-layer metric belongs to.
pub fn layer_of(metric: &str) -> &str {
    metric
        .split_once('.')
        .map_or("end-to-end", |(layer, _)| layer)
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether smaller is better.
    pub lower_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

/// What the harness needs from `BENCHMARK.json`.
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// End-to-end metrics with direction and bound.
    pub end_to_end: Vec<Bound>,
}

impl Spec {
    /// Parses the committed `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message when the file is not the JSON this harness was built for.
    pub fn load() -> Result<Spec, String> {
        let doc = parse(BENCHMARK_JSON)?;
        let list = |key| get(&doc, key).ok_or(format!("BENCHMARK.json has no `{key}`"));
        let end_to_end = items(list("end_to_end")?)
            .iter()
            .map(|m| {
                Some(Bound {
                    name: as_str(get(m, "name")?)?.to_string(),
                    lower_is_better: as_str(get(m, "better")?)? == "lower",
                    bound: as_f64(get(m, "bound")?)?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
        Ok(Spec {
            run_seconds: as_f64(list("run_seconds")?).ok_or("run_seconds is not a number")? as u64,
            end_to_end,
        })
    }

    /// The bound entry of an end-to-end metric.
    pub fn bound(&self, metric: &str) -> Option<&Bound> {
        self.end_to_end.iter().find(|b| b.name == metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadId;

    /// `(name, unit)` of every entry of a `BENCHMARK.json` list.
    fn names_and_units(key: &str) -> Vec<(String, String)> {
        let doc = parse(BENCHMARK_JSON).unwrap();
        items(get(&doc, key).unwrap())
            .iter()
            .map(|m| {
                let field = |k| get(m, k).and_then(as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_and_the_code_name_the_same_things() {
        let workloads: Vec<String> = names_and_units("workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let in_code: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, in_code);
        assert_eq!(names_and_units("end_to_end"), own(&END_TO_END));
        assert_eq!(names_and_units("per_layer"), own(&PER_LAYER));
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
        for name in in_code.into_iter().chain(metrics.map(|(n, _)| *n)) {
            assert!(well_formed(name), "{name}");
        }
        let spec = Spec::load().unwrap();
        for exact in EXACT {
            assert!(spec.bound(exact).is_some(), "{exact}");
        }
    }

    #[test]
    fn the_contract_s_limits_hold() {
        let spec = Spec::load().unwrap();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(spec
            .end_to_end
            .iter()
            .all(|b| (0.0..=0.25).contains(&b.bound)));
        let setup = spec.bound("setup_s").unwrap();
        assert!(setup.lower_is_better);
        assert!(spec.end_to_end.iter().all(|b| b.bound <= setup.bound));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let legal = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(unit.len() <= 16 && unit.chars().all(legal), "{unit}");
        }
    }

    #[test]
    fn layers_are_crate_names() {
        assert_eq!(layer_of("core.arena_step_s"), "core");
        assert_eq!(layer_of("wall_s"), "end-to-end");
    }
}
