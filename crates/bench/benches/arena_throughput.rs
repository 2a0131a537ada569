//! Arena stepper throughput, against the legacy full-rescan loop and at
//! million-flit scale.
//!
//! The scaling claim behind the run queue: on big fabrics most in-flight
//! worms are entry-queued or blocked at any instant, so the legacy step pays
//! `O(travels × flits)` per step for work that moves nothing, while the arena
//! pays nothing per parked travel — and its flat `u32`-indexed
//! struct-of-arrays storage keeps the hot loop cache-dense, with zero heap
//! allocations in steady state. The 32×32 hotspot cell runs under both
//! steppers — their medians in `target/bench-results.json` feed the CI ratio
//! check — the 16×16 cell records the arena's median on uniform traffic, and
//! a 64×64 cell with ~1M flits in flight shows the arena holds its stepping
//! rate at a scale the per-travel layout was never sized for. Step-count
//! identity is asserted wherever two steppers run.
//!
//! Medians land in `target/bench-results.json` via the criterion shim.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use genoc_bench::xy_mesh;
use genoc_core::spec::MessageSpec;
use genoc_sim::{simulate, SimOptions, Stepper};
use genoc_switching::wormhole::WormholePolicy;
use std::hint::black_box;
use std::time::Instant;

struct Workload {
    label: &'static str,
    mesh_side: usize,
    samples: usize,
    /// Whether the legacy loop runs the cell too.
    legacy: bool,
    specs: fn(usize) -> Vec<MessageSpec>,
}

// Thirty-two messages per node of long-worm uniform traffic: deep entry
// queues, so most travels are parked at any instant.
const UNIFORM: Workload = Workload {
    label: "mesh-16x16",
    mesh_side: 16,
    samples: 5,
    legacy: false,
    specs: |nodes| genoc_sim::workload::uniform_random(nodes, nodes * 32, 4..=8, 23),
};

// The classic heavy-traffic stress: thousands of messages converging on a
// hotspot (a memory-controller-style sink). The hotspot's ejection port
// serialises deliveries, so nearly every travel spends nearly the whole run
// blocked in a tree of wait-for chains — the regime the per-port wake-lists
// exist for, and the worst case for the legacy stepper's full per-flit
// rescans. The cell both steppers run.
const HEAVY: Workload = Workload {
    label: "mesh-32x32-heavy",
    mesh_side: 32,
    samples: 3,
    legacy: true,
    specs: |nodes| genoc_sim::workload::hotspot(nodes, 4096, nodes / 2, 40, 6, 23),
};

// ~1.05M flits over a 64×64 mesh: the million-flit cell the arena's
// storage layout targets. One sample — the run is the statement.
const MILLION: Workload = Workload {
    label: "mesh-64x64-million",
    mesh_side: 64,
    samples: 1,
    legacy: false,
    specs: |nodes| genoc_sim::workload::uniform_random(nodes, 175_000, 4..=8, 23),
};

fn specs_for(w: &Workload) -> Vec<MessageSpec> {
    (w.specs)(w.mesh_side * w.mesh_side)
}

fn total_flits(specs: &[MessageSpec]) -> u64 {
    specs.iter().map(|s| s.flits as u64).sum()
}

fn run_once(w: &Workload, specs: &[MessageSpec], stepper: Stepper) -> u64 {
    let (mesh, routing) = xy_mesh(w.mesh_side, 2);
    let options = SimOptions {
        stepper,
        max_steps: 10_000_000,
        ..SimOptions::default()
    };
    let r = simulate(
        &mesh,
        &routing,
        &mut WormholePolicy::default(),
        specs,
        &options,
    )
    .unwrap();
    assert!(r.evacuated(), "XY evacuates at any scale");
    r.run.steps
}

/// One group per cell: the arena everywhere, the legacy loop beside it on
/// the 32×32 hotspot (the legacy baseline at the other scales is covered by
/// that ratio; one arena sample of the million-flit cell proves it steps at
/// a measurable rate and records its flits/sec median).
fn bench_steppers(c: &mut Criterion) {
    for w in [&UNIFORM, &HEAVY, &MILLION] {
        let specs = specs_for(w);
        let mut group = c.benchmark_group(format!("arena_throughput/{}", w.label));
        group.sample_size(w.samples);
        group.throughput(Throughput::Elements(total_flits(&specs)));
        if w.legacy {
            group.bench_function("legacy", |b| {
                b.iter(|| black_box(run_once(w, &specs, Stepper::Legacy)))
            });
        }
        group.bench_function("arena", |b| {
            b.iter(|| black_box(run_once(w, &specs, Stepper::Arena)))
        });
        group.finish();
    }
}

/// Headline single-shot comparisons: legacy vs arena wall clock on the
/// hotspot cell (the acceptance number), and the million-flit cell's
/// stepping rate.
fn bench_speedup_headline(_c: &mut Criterion) {
    let specs = specs_for(&HEAVY);
    let start = Instant::now();
    let legacy_steps = run_once(&HEAVY, &specs, Stepper::Legacy);
    let legacy = start.elapsed();
    let start = Instant::now();
    let arena_steps = run_once(&HEAVY, &specs, Stepper::Arena);
    let arena = start.elapsed();
    assert_eq!(legacy_steps, arena_steps, "steppers must agree exactly");
    let ratio = legacy.as_secs_f64() / arena.as_secs_f64().max(1e-9);
    println!(
        "arena_throughput/speedup/{:<24} legacy {legacy:>10.2?}  arena {arena:>10.2?}  \
         => {ratio:.1}x ({} steps, {} flits)",
        HEAVY.label,
        legacy_steps,
        total_flits(&specs),
    );
    let specs = specs_for(&MILLION);
    let start = Instant::now();
    let steps = run_once(&MILLION, &specs, Stepper::Arena);
    let wall = start.elapsed();
    let rate = steps as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "arena_throughput/million/{:<24} arena {wall:>10.2?}  => {rate:.0} steps/s \
         ({} steps, {} flits)",
        MILLION.label,
        steps,
        total_flits(&specs),
    );
}

criterion_group!(benches, bench_steppers, bench_speedup_headline);
criterion_main!(benches);
