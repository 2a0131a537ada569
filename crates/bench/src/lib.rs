//! # genoc-bench
//!
//! Shared fixtures for the Criterion benches in `benches/`. The first eight
//! below regenerate the paper's table and figures (README, "Paper-to-code
//! map"); the other five time the engines grown since. Medians land in
//! `target/bench-results.json`, a CI artifact; the numbers a performance
//! claim rests on come from the `ledger/` package (`ledger/README.md`).
//!
//! * `table1_obligations` — Table I (per-obligation discharge effort);
//! * `fig3_depgraph` — Fig. 3 (dependency-graph construction);
//! * `fig4_flows` — Fig. 4 (flow/ranking certificates vs cycle search);
//! * `theorem1_witness` — Theorem 1 (witness compilation both ways);
//! * `evacuation` — Theorem 2 (GeNoC runs to evacuation);
//! * `switching_compare` — wormhole vs cut-through vs store-and-forward;
//! * `vc_ablation` — dateline virtual channels on ring/torus;
//! * `discharge_strategies` — DFS vs SCC vs ranking for (C-3);
//! * `detect_overhead` — online-detection overhead on clean runs and
//!   time-to-detect/recover on the mixed XY/YX negative instance;
//! * `campaign_throughput` — per-scenario battery cost and work-stealing
//!   executor scaling at 1/2/4 shards on the smoke matrix;
//! * `arena_throughput` — arena vs legacy full-rescan stepper on the 32×32
//!   hotspot cell, the arena alone on 16×16 uniform traffic and on a 64×64
//!   cell with ~1M flits in flight;
//! * `wal_overhead` — one run with observation disabled, metrics only, and
//!   the full event WAL, and that log read back;
//! * `explore_throughput` — full BFS vs partial-order reduction, and the
//!   parallel frontier at 1/2/4 workers.
//!
//! Benches that take `SimOptions::default()`, `hunt_workload` or an
//! `EffortProfile` preset — `detect_overhead`, `campaign_throughput` and
//! the hunt in `theorem1_witness` — time whatever stepper is the default.
//! Since PR 17 that is the arena, so their medians are not comparable with
//! artifacts from before it. `wal_overhead` and
//! `detect_overhead/kernel-feed-xy-8x8` ran on the `Config`-backed kernel
//! until PR 19 deleted it and run on the arena since (the feed bench now
//! also pays a `write_back` a step to keep the detector's `Config` current),
//! so theirs are not comparable across that line either. `wal_overhead`'s
//! `wal` median moved once more with WAL format version 2 (PR 20: the record
//! checksum folds 8-byte words, not bytes), which is also where `read-back`
//! starts. No CI ratio gate
//! reads any of them: the gated ratios (`arena_throughput`,
//! `explore_throughput`) name their steppers or never simulate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use genoc_core::spec::MessageSpec;
use genoc_routing::xy::XyRouting;
use genoc_topology::mesh::Mesh;

/// A square HERMES mesh with XY routing, the paper's instantiation.
pub fn xy_mesh(size: usize, capacity: u32) -> (Mesh, XyRouting) {
    let mesh = Mesh::new(size, size, capacity);
    let routing = XyRouting::new(&mesh);
    (mesh, routing)
}

/// A reproducible uniform workload over an `n`-node network.
pub fn uniform(nodes: usize, messages: usize, flits: usize, seed: u64) -> Vec<MessageSpec> {
    genoc_sim::workload::uniform_random(nodes, messages, 1..=flits, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (mesh, _) = xy_mesh(4, 1);
        assert_eq!(genoc_core::network::Network::node_count(&mesh), 16);
        assert_eq!(uniform(16, 10, 3, 0).len(), 10);
    }
}
