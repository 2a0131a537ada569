//! Online-detection overhead and time-to-detect.
//!
//! Two questions a self-healing runtime must answer:
//!
//! * what does watching cost on a *clean* run? — the `detect_overhead/*`
//!   groups run the same deadlock-free workload undetected, under the exact
//!   wait-for detector, under the timeout heuristic, and under both;
//! * how fast does detection pay off on a *deadlocking* run? — the
//!   `time_to_detect/*` group compares letting the mixed XY/YX negative
//!   instance run into the global predicate `Ω` against catching the cycle
//!   online, and against the full detect-and-recover round trip.
//!
//! Medians land in `target/bench-results.json` via the criterion shim.

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use genoc_bench::{uniform, xy_mesh};
use genoc_core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
use genoc_core::config::Config;
use genoc_core::interpreter::Outcome;
use genoc_core::switching::SwitchingPolicy;
use genoc_core::trace::Trace;
use genoc_detect::{AbortAndEvacuate, DetectionEngine, EngineOptions, ExactDetector};
use genoc_routing::mixed::MixedXyYxRouting;
use genoc_sim::workload::bit_complement;
use genoc_sim::{simulate, simulate_hooked, SimOptions};
use genoc_switching::wormhole::WormholePolicy;
use genoc_topology::mesh::Mesh;
use std::hint::black_box;

/// Detector configurations compared on the clean run.
fn engine_variants() -> [(&'static str, EngineOptions); 3] {
    [
        (
            "exact",
            EngineOptions {
                exact: true,
                heuristic_threshold: None,
                ..EngineOptions::default()
            },
        ),
        (
            "heuristic",
            EngineOptions {
                exact: false,
                heuristic_threshold: Some(genoc_detect::DEFAULT_THRESHOLD),
                ..EngineOptions::default()
            },
        ),
        ("exact+heuristic", EngineOptions::default()),
    ]
}

fn bench_clean_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_overhead/clean-xy-8x8");
    group.sample_size(10);
    let (mesh, routing) = xy_mesh(8, 2);
    let specs = uniform(64, 128, 4, 23);
    group.bench_function("undetected", |b| {
        b.iter(|| {
            let r = simulate(
                &mesh,
                &routing,
                &mut WormholePolicy::default(),
                &specs,
                &SimOptions::default(),
            )
            .unwrap();
            assert_eq!(r.run.outcome, Outcome::Evacuated);
            black_box(r.run.steps)
        })
    });
    for (label, options) in engine_variants() {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut engine = DetectionEngine::detector(options);
                let r = simulate_hooked(
                    &mesh,
                    &routing,
                    &mut WormholePolicy::default(),
                    &specs,
                    &SimOptions::default(),
                    &mut engine,
                )
                .unwrap();
                assert_eq!(r.run.outcome, Outcome::Evacuated);
                assert!(!engine.fired(), "clean runs must raise no alarm");
                black_box(r.run.steps)
            })
        });
    }
    group.finish();
}

/// The kernel-transition feed in isolation: drive the deadlock-free 8×8
/// run on the arena kernel (the `Config` the detector reads kept current by
/// `write_back`), hand the detector each step's transitions, and record
/// how rarely the persistent id → travel-index map has to be rebuilt (a
/// removal tax, not a per-call one — the win over re-deriving the map on
/// every parking step) and that no call searched the whole configuration
/// (the walk from the step's parks answers "no cycle").
fn bench_kernel_feed(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_overhead/kernel-feed-xy-8x8");
    group.sample_size(10);
    let (mesh, routing) = xy_mesh(8, 2);
    let specs = uniform(64, 128, 4, 23);
    let feed = || {
        let mut cfg = Config::from_specs(&mesh, &routing, &specs).expect("workload is valid");
        let spec = WormholePolicy::default()
            .kernel_spec()
            .and_then(|spec| ArenaSpec::from_kernel_spec(&spec))
            .expect("wormhole runs on the arena");
        let mut arena = ArenaConfig::from_config(&mesh, &cfg).expect("workload is valid");
        let mut kernel = ArenaKernel::new(&arena, spec);
        let mut trace = Trace::new(false);
        let mut detector = ExactDetector::new();
        let mut calls = 0u64;
        while !arena.is_evacuated() {
            kernel.step(&mut arena, &mut trace).expect("clean run");
            if kernel.take_saw_arrival() {
                kernel.drain_arrived(&mut arena);
            }
            arena
                .write_back(&mut cfg)
                .expect("the arena holds cfg's travels");
            calls += 1;
            assert!(
                detector
                    .apply_kernel_transitions(&cfg, kernel.transitions())
                    .is_none(),
                "XY never deadlocks"
            );
        }
        (calls, detector.index_rebuilds(), detector.full_scans())
    };
    group.bench_function("incremental-map", |b| b.iter(|| black_box(feed())));
    group.finish();
    let (calls, rebuilds, full_scans) = feed();
    record_metric(
        "detect_overhead/kernel-feed-xy-8x8/feed_calls",
        calls as f64,
    );
    record_metric(
        "detect_overhead/kernel-feed-xy-8x8/index_rebuilds",
        rebuilds as f64,
    );
    record_metric(
        "detect_overhead/kernel-feed-xy-8x8/full_scans",
        full_scans as f64,
    );
    println!(
        "detect_overhead/kernel-feed-xy-8x8                    {rebuilds} map rebuilds and \
         {full_scans} full scans over {calls} feed calls"
    );
    assert!(
        rebuilds < calls,
        "the persistent map must not rebuild on every call"
    );
    assert_eq!(full_scans, 0, "a run without a cycle needs no full scan");
}

fn bench_time_to_detect(c: &mut Criterion) {
    let mut group = c.benchmark_group("time_to_detect/mixed-2x2-storm");
    group.sample_size(10);
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = bit_complement(&mesh, 4);
    group.bench_function("undetected-to-omega", |b| {
        b.iter(|| {
            let r = simulate(
                &mesh,
                &routing,
                &mut WormholePolicy::default(),
                &specs,
                &SimOptions::default(),
            )
            .unwrap();
            assert_eq!(r.run.outcome, Outcome::Deadlock);
            black_box(r.run.steps)
        })
    });
    group.bench_function("exact-detect", |b| {
        b.iter(|| {
            let mut engine = DetectionEngine::detector(EngineOptions {
                heuristic_threshold: None,
                ..EngineOptions::default()
            });
            let r = simulate_hooked(
                &mesh,
                &routing,
                &mut WormholePolicy::default(),
                &specs,
                &SimOptions::default(),
                &mut engine,
            )
            .unwrap();
            assert!(engine.fired());
            black_box((r.run.steps, engine.detections()[0].step))
        })
    });
    group.bench_function("abort-and-recover", |b| {
        b.iter(|| {
            let mut engine =
                DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
            let r = simulate_hooked(
                &mesh,
                &routing,
                &mut WormholePolicy::default(),
                &specs,
                &SimOptions::default(),
                &mut engine,
            )
            .unwrap();
            assert_eq!(r.run.outcome, Outcome::Evacuated);
            black_box(r.run.steps)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clean_overhead,
    bench_kernel_feed,
    bench_time_to_detect
);
criterion_main!(benches);
