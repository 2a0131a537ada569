//! Batch injection equivalence: `ArenaConfig::push_batch` must be
//! observationally identical to pushing each travel in order — same final
//! configuration, same wait-for graph — across the smoke matrix and for
//! cohorts injected mid-run under wormhole switching.
//!
//! Batch injection exists so campaign shards can stage whole workloads
//! without per-travel pool reallocation; it must stay a pure performance
//! optimisation with no semantic surface.

use genoc::core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
use genoc::core::interpreter::RunOptions;
use genoc::prelude::*;

fn travels_for(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    first_id: usize,
) -> Vec<Travel> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| Travel::from_spec(net, routing, MsgId::from_index(first_id + i), s).unwrap())
        .collect()
}

/// Injects the cohort both ways into clones of `base` and asserts the two
/// arenas materialise to the same configuration with the same wait-for
/// graph (blocking structure drives detection, so it must match too).
fn assert_batch_equivalent(net: &dyn Network, base: &ArenaConfig, cohort: &[Travel]) {
    let mut batched = base.clone();
    let mut sequential = base.clone();
    let batch_slots = batched.push_batch(net, cohort).unwrap();
    let seq_slots: Vec<u32> = cohort
        .iter()
        .map(|t| sequential.push_travel(net, t).unwrap())
        .collect();
    assert_eq!(batch_slots, seq_slots, "same slot assignment order");
    let b = batched.to_config(net).unwrap();
    let s = sequential.to_config(net).unwrap();
    assert_eq!(b, s, "same final configuration");
    assert_eq!(
        block_events(&b),
        block_events(&s),
        "same wait-for graph after injection"
    );
}

#[test]
fn batch_injection_matches_sequential_on_every_smoke_cell() {
    for spec in ScenarioMatrix::smoke().expand() {
        let instance = Instance::from_meta(&spec.meta).unwrap();
        if !instance.deterministic {
            continue; // adaptive instances have no canonical route per spec
        }
        let net = instance.net.as_ref();
        let nodes = net.node_count();
        let flits = spec.workload_flits(3);
        let seed = scenario_seed(13, &spec.name());
        let specs = genoc::sim::workload::uniform_random(nodes.max(2), nodes * 2, 1..=flits, seed);
        let cohort = travels_for(net, instance.routing.as_ref(), &specs, 0);
        let base = ArenaConfig::default();
        assert_batch_equivalent(net, &base, &cohort);
    }
}

#[test]
fn mid_run_batches_agree_under_wormhole_switching() {
    let mesh = Mesh::new(4, 4, 1);
    let routing = XyRouting::new(&mesh);
    // First wave runs for a while; the second wave lands mid-flight.
    let first = genoc::sim::workload::uniform_random(16, 24, 1..=4, 29);
    let second = genoc::sim::workload::uniform_random(16, 12, 1..=4, 31);
    let cfg = Config::from_specs(&mesh, &routing, &first).unwrap();
    let spec = Switching::default().kernel_spec().unwrap();
    let aspec = ArenaSpec::from_kernel_spec(&spec).unwrap();

    let mut arena = ArenaConfig::from_config(&mesh, &cfg).unwrap();
    let mut kernel = ArenaKernel::new(&arena, aspec);
    let mut trace = genoc::core::trace::Trace::new(false);
    for _ in 0..12 {
        kernel.step(&mut arena, &mut trace).unwrap();
        if kernel.take_saw_arrival() {
            kernel.drain_arrived(&mut arena);
        }
    }
    let cohort = travels_for(&mesh, &routing, &second, first.len());
    assert_batch_equivalent(&mesh, &arena, &cohort);

    // And the continuations stay in lockstep: batch-inject vs sequential
    // inject, then run both to completion on the reference interpreter.
    let mut finals = Vec::new();
    for batch in [true, false] {
        let mut a = arena.clone();
        if batch {
            a.push_batch(&mesh, &cohort).unwrap();
        } else {
            for t in &cohort {
                a.push_travel(&mesh, t).unwrap();
            }
        }
        let resumed = a.to_config(&mesh).unwrap();
        let result = run(
            &mesh,
            &IdentityInjection,
            &mut Switching::default(),
            resumed,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(result.outcome, Outcome::Evacuated);
        finals.push((result.steps, result.arrival_order.clone(), result.config));
    }
    assert_eq!(finals[0], finals[1]);
}

#[test]
fn batch_slots_reuse_the_free_list_in_order() {
    let mesh = Mesh::new(3, 3, 1);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(9, 6, 1..=3, 37);
    let cohort = travels_for(&mesh, &routing, &specs, 0);
    let mut arena = ArenaConfig::default();
    arena.push_batch(&mesh, &cohort).unwrap();
    // Free three slots, then batch-inject three fresh messages: the batch
    // must recycle the freed slots exactly as sequential pushes would.
    for t in cohort.iter().take(3) {
        arena.remove_travel(&mesh, t.id()).unwrap();
    }
    assert_eq!(arena.free_count(), 3);
    let fresh_specs = genoc::sim::workload::uniform_random(9, 3, 1..=3, 41);
    let fresh = travels_for(&mesh, &routing, &fresh_specs, cohort.len());
    assert_batch_equivalent(&mesh, &arena, &fresh);
    let mut arena2 = arena.clone();
    let slots = arena2.push_batch(&mesh, &fresh).unwrap();
    assert_eq!(arena2.free_count(), 0, "batch drains the free list first");
    for &s in &slots {
        assert!((s as usize) < arena2.slot_count());
    }
}
