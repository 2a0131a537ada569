//! Per-instance discharge of the proof obligations (C-1)…(C-5).
//!
//! Each checker is the decision procedure the paper's parametric proof
//! reduces to on a fixed instance: exhaustive case analysis for (C-1) and
//! (C-2), one depth-first search that returns a cycle or a ranking
//! certificate (the ranking then verified edge by edge) for (C-3),
//! configuration equality for (C-4), and a monitored run for (C-5). Each
//! returns an [`ObligationReport`] whose `cases` count is the executable
//! analogue of the per-row effort of the paper's Table I.

use std::time::Instant;

use genoc_core::config::Config;
use genoc_core::error::Error;
use genoc_core::injection::{IdentityInjection, InjectionMethod};
use genoc_core::interpreter::{run, Outcome, RunOptions};
use genoc_core::obligations::{ObligationId, ObligationReport};
use genoc_core::switching::SwitchingPolicy;
use genoc_depgraph::cycle::Acyclicity;
use genoc_depgraph::ranking::verify_ranking;
use genoc_switching::Switching;

use crate::instance::Instance;

/// Discharges (C-1) on an instance: every routing step `(s, p)` taken for a
/// destination reachable from `s` must be an edge of the candidate
/// dependency graph (the closed-form graph when the instance carries one,
/// the exhaustive graph otherwise).
pub fn check_c1(instance: &Instance) -> ObligationReport {
    let start = Instant::now();
    let net = instance.net.as_ref();
    let analysis = instance.analysis();
    let candidate = instance.closed_form.as_ref().unwrap_or(&analysis.graph);
    let mut cases = 0u64;
    let mut violations = Vec::new();
    let mut hops = Vec::with_capacity(4);
    for s in net.ports() {
        for &d in analysis.destinations() {
            if s == d || !analysis.reachable(s, d) {
                continue;
            }
            hops.clear();
            instance.routing.next_hops(s, d, &mut hops);
            for &p in &hops {
                cases += 1;
                if !candidate.has_edge(s, p) {
                    violations.push(format!(
                        "routing step {} -> {} (dest {}) is not a dependency edge",
                        net.port_label(s),
                        net.port_label(p),
                        net.port_label(d)
                    ));
                }
            }
        }
    }
    ObligationReport {
        id: ObligationId::C1,
        instance: instance.name.clone(),
        cases,
        violations,
        elapsed: start.elapsed(),
    }
}

/// Discharges (C-2) on an instance: every edge `(p0, p1)` of the candidate
/// dependency graph must have a witness destination `d` with `p0 R d` and
/// `p1 ∈ R(p0, d)`.
pub fn check_c2(instance: &Instance) -> ObligationReport {
    let start = Instant::now();
    let net = instance.net.as_ref();
    let analysis = instance.analysis();
    let candidate = instance.closed_form.as_ref().unwrap_or(&analysis.graph);
    let mut cases = 0u64;
    let mut violations = Vec::new();
    let mut hops = Vec::with_capacity(4);
    for (p0, p1) in candidate.edges() {
        cases += 1;
        let witness = analysis.destinations().iter().copied().find(|&d| {
            if p0 == d || !analysis.reachable(p0, d) {
                return false;
            }
            hops.clear();
            instance.routing.next_hops(p0, d, &mut hops);
            hops.contains(&p1)
        });
        if witness.is_none() {
            violations.push(format!(
                "edge {} -> {} has no witness destination",
                net.port_label(p0),
                net.port_label(p1)
            ));
        }
    }
    ObligationReport {
        id: ObligationId::C2,
        instance: instance.name.clone(),
        cases,
        violations,
        elapsed: start.elapsed(),
    }
}

/// Discharges (C-3) on an instance: the port dependency graph must be
/// acyclic. It reads the instance's one [`Acyclicity`] verdict: a cycle is
/// the violation; a ranking is a certificate, verified along every edge,
/// and so is the closed-form ranking when the instance carries one (which
/// must in turn fail on a cyclic graph).
pub fn check_c3(instance: &Instance) -> ObligationReport {
    let start = Instant::now();
    let net = instance.net.as_ref();
    let analysis = instance.analysis();
    let graph = &analysis.graph;
    let cases = graph.edge_count() as u64;
    let mut violations = Vec::new();

    match &analysis.acyclicity {
        Acyclicity::Cyclic(cycle) => {
            let labels: Vec<String> = cycle.iter().map(|&p| net.port_label(p)).collect();
            violations.push(format!(
                "cycle of {} ports: {}",
                cycle.len(),
                labels.join(" -> ")
            ));
            if let Some(rank) = &instance.ranking {
                if verify_ranking(graph, rank).is_ok() {
                    violations
                        .push("INTERNAL: ranking certificate verified on a cyclic graph".into());
                }
            }
        }
        Acyclicity::Acyclic(dfs_rank) => {
            let closed_form = instance.ranking.iter().map(|rank| ("closed-form", rank));
            for (source, rank) in std::iter::once(("DFS", dfs_rank)).chain(closed_form) {
                if let Err((u, v)) = verify_ranking(graph, rank) {
                    violations.push(format!(
                        "INTERNAL: {source} ranking certificate fails on acyclic graph at {} -> {}",
                        net.port_label(u),
                        net.port_label(v)
                    ));
                }
            }
        }
    }
    ObligationReport {
        id: ObligationId::C3,
        instance: instance.name.clone(),
        cases,
        violations,
        elapsed: start.elapsed(),
    }
}

/// Discharges (C-4) on an instance: the identity injection leaves sample
/// configurations unchanged.
pub fn check_c4(instance: &Instance) -> ObligationReport {
    let start = Instant::now();
    let net = instance.net.as_ref();
    let mut cases = 0u64;
    let mut violations = Vec::new();
    let nodes = net.node_count();
    let workloads = [
        genoc_sim::workload::all_to_all(nodes, 1),
        genoc_sim::workload::uniform_random(nodes.max(2), 8, 1..=4, 1),
        Vec::new(),
    ];
    for specs in &workloads {
        match Config::from_specs(net, instance.routing.as_ref(), specs) {
            Ok(mut cfg) => {
                cases += 1;
                let before = cfg.clone();
                if IdentityInjection.inject(net, &mut cfg).is_err() || cfg != before {
                    violations.push("identity injection changed the configuration".into());
                }
            }
            Err(e) => violations.push(format!("workload construction failed: {e}")),
        }
    }
    ObligationReport {
        id: ObligationId::C4,
        instance: instance.name.clone(),
        cases,
        violations,
        elapsed: start.elapsed(),
    }
}

/// Discharges (C-5) on an instance: along a monitored wormhole run of a
/// sample workload, every non-deadlocked step must move at least one flit,
/// strictly decrease the progress measure, and weakly decrease the paper's
/// `μxy`. Reaching a deadlock ends the run without violating (C-5) — the
/// obligation is conditional on `¬Ω(σ)`.
pub fn check_c5(instance: &Instance) -> ObligationReport {
    check_c5_with(instance, &mut Switching::default(), 4)
}

/// Like [`check_c5`], but under an arbitrary switching policy and with the
/// workload's packet length capped at `max_flits` — cut-through and
/// store-and-forward only admit packets that fit whole into a port buffer,
/// so campaign scenarios cap `max_flits` at the port capacity.
///
/// The monitored run is the reference loop ([`run`]) with the measures
/// recorded: it refuses a step that moves nothing or does not lower the
/// progress measure, and `μxy` is checked over the recorded values. `cases`
/// counts the steps taken.
pub fn check_c5_with(
    instance: &Instance,
    policy: &mut dyn SwitchingPolicy,
    max_flits: usize,
) -> ObligationReport {
    let start = Instant::now();
    let net = instance.net.as_ref();
    let mut cases = 0u64;
    let mut violations = Vec::new();
    let specs =
        genoc_sim::workload::uniform_random(net.node_count().max(2), 12, 1..=max_flits.max(1), 7);
    match Config::from_specs(net, instance.routing.as_ref(), &specs) {
        Err(e) => violations.push(format!("workload construction failed: {e}")),
        Ok(cfg) => {
            let mu_initial = cfg.route_length_measure();
            let options = RunOptions {
                record_measures: true,
                ..RunOptions::default()
            };
            // The reference loop checks progress and the strict decrease of
            // the progress measure on every step, and stops at Ω: (C-5) is
            // conditional on ¬Ω(σ).
            match run(net, &IdentityInjection, policy, cfg, &options) {
                Err(Error::ProgressViolation { step }) => {
                    cases = step + 1;
                    violations.push(format!("step {step}: no flit moved although ¬Ω"));
                }
                Err(Error::MeasureViolation {
                    step,
                    before,
                    after,
                }) => {
                    cases = step + 1;
                    violations.push(format!("step {step}: progress measure {before} -> {after}"));
                }
                Err(e) => violations.push(format!("switching step failed: {e}")),
                Ok(result) => {
                    cases = result.steps;
                    if result.outcome == Outcome::StepLimit {
                        violations.push("step limit exhausted: suspected livelock".into());
                    }
                    let mut mu_before = mu_initial;
                    for (step, &(mu, _)) in result.measures.iter().enumerate() {
                        if mu > mu_before {
                            violations.push(format!("step {step}: mu_xy increased"));
                        }
                        mu_before = mu;
                    }
                }
            }
        }
    }
    ObligationReport {
        id: ObligationId::C5,
        instance: instance.name.clone(),
        cases,
        violations,
        elapsed: start.elapsed(),
    }
}

/// Discharges all five obligations on an instance, in paper order.
pub fn check_all(instance: &Instance) -> Vec<ObligationReport> {
    vec![
        check_c1(instance),
        check_c2(instance),
        check_c3(instance),
        check_c4(instance),
        check_c5(instance),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_mesh_discharges_every_obligation() {
        let instance = Instance::mesh_xy(3, 3, 1);
        for report in check_all(&instance) {
            assert!(report.holds(), "{report}");
            assert!(report.cases > 0, "{report}");
        }
    }

    #[test]
    fn mixed_router_fails_exactly_c3() {
        let instance = Instance::mesh_mixed(2, 2, 1);
        let reports = check_all(&instance);
        for report in &reports {
            match report.id {
                ObligationId::C3 => assert!(!report.holds(), "cycle expected"),
                _ => assert!(report.holds(), "{report}"),
            }
        }
    }

    #[test]
    fn ring_dateline_discharges_c3() {
        let instance = Instance::ring_dateline(6, 1);
        assert!(check_c3(&instance).holds());
        let plain = Instance::ring_shortest(6, 1);
        assert!(!check_c3(&plain).holds());
    }

    #[test]
    fn c1_counts_grow_with_mesh_size() {
        let small = check_c1(&Instance::mesh_xy(2, 2, 1));
        let large = check_c1(&Instance::mesh_xy(4, 4, 1));
        assert!(large.cases > small.cases);
    }
}
