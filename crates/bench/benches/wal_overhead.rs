//! Observation overhead: what recording costs a run.
//!
//! Three configurations of the same heavy 16×16 uniform workload, all on the
//! arena stepper and all through the observed runner (so the loop under
//! test is identical and only the observer varies), and the way back:
//!
//! - `disabled` — [`NullObserver`]: the observation machinery is present but
//!   switched off, the baseline;
//! - `metrics` — a [`Recorder`] with no WAL attached: counters, peaks and
//!   step totals only (the campaign's always-on mode);
//! - `wal` — the full treatment, every injection, move, transition, wait-for
//!   edge and snapshot streamed into an in-memory event WAL;
//! - `read-back` — [`read_wal_bytes`] over the log `wal` produced: every
//!   record's checksum verified, every snapshot's structure checked.
//!
//! The acceptance target: disabled observation costs nothing (the observer
//! sits outside the kernel's hot wake-list loop), and metrics-only
//! observation — the mode the campaign enables on every probe — is free to
//! within noise. Full WAL recording is the opt-in post-mortem mode; its cost
//! is proportional to the evidence volume (this stress workload logs over a
//! thousand records per step), so the headline reports its encode
//! and decode throughput alongside the ratio. Medians land in
//! `target/bench-results.json` via the criterion shim.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use genoc_bench::xy_mesh;
use genoc_core::config::Config;
use genoc_core::spec::MessageSpec;
use genoc_obs::{read_wal_bytes, shared, ObsSummary, Recorder, WalWriter};
use genoc_sim::{simulate_observed_config, NullHook, NullObserver, RunObserver, SimOptions};
use genoc_switching::wormhole::WormholePolicy;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

const MESH_SIDE: usize = 16;
const SEED: u64 = 23;

fn workload() -> Vec<MessageSpec> {
    let nodes = MESH_SIDE * MESH_SIDE;
    genoc_sim::workload::uniform_random(nodes, nodes * 8, 2..=6, SEED)
}

fn total_flits(specs: &[MessageSpec]) -> u64 {
    specs.iter().map(|s| s.flits as u64).sum()
}

/// One observed run; the observer is the only thing that varies between the
/// bench's configurations.
fn run_observed(specs: &[MessageSpec], observer: &mut dyn RunObserver) -> u64 {
    let (mesh, routing) = xy_mesh(MESH_SIDE, 2);
    let r = simulate_observed_config(
        &mesh,
        &mut WormholePolicy::default(),
        Config::from_specs(&mesh, &routing, specs).unwrap(),
        &SimOptions::default(),
        &mut NullHook,
        observer,
    )
    .unwrap();
    assert!(r.evacuated(), "XY evacuates the uniform workload");
    r.run.steps
}

/// The baseline: the observed runner with observation switched off.
fn run_disabled(specs: &[MessageSpec]) -> u64 {
    run_observed(specs, &mut NullObserver)
}

/// Metrics-only recording: the observer tallies counters but writes nothing.
fn run_metrics(specs: &[MessageSpec]) -> u64 {
    let mut recorder = Recorder::new(SEED);
    run_observed(specs, &mut recorder)
}

/// Full WAL recording into an in-memory buffer (no disk in the loop, so the
/// measured cost is the encoding itself); the log comes back for `read-back`.
fn run_wal(specs: &[MessageSpec]) -> (u64, ObsSummary, Vec<u8>) {
    let wal = shared(WalWriter::in_memory());
    let mut recorder = Recorder::with_wal(Rc::clone(&wal), SEED, None);
    let steps = run_observed(specs, &mut recorder);
    let summary = recorder.summary();
    drop(recorder);
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    let log = writer
        .finish()
        .expect("in-memory flush")
        .expect("in-memory writer returns its bytes");
    (steps, summary, log)
}

/// Decodes `log`, which must come back whole; returns its record count.
fn read_back(log: &[u8]) -> usize {
    let decoded = read_wal_bytes(log);
    assert!(decoded.damage.is_none(), "{:?}", decoded.damage);
    decoded.events.len()
}

fn bench_wal_overhead(c: &mut Criterion) {
    let specs = workload();
    let mut group = c.benchmark_group("wal_overhead/mesh-16x16");
    group.sample_size(5);
    group.throughput(Throughput::Elements(total_flits(&specs)));
    group.bench_function("disabled", |b| b.iter(|| black_box(run_disabled(&specs))));
    group.bench_function("metrics", |b| b.iter(|| black_box(run_metrics(&specs))));
    group.bench_function("wal", |b| b.iter(|| black_box(run_wal(&specs))));
    let (_, _, log) = run_wal(&specs);
    group.throughput(Throughput::Bytes(log.len() as u64));
    group.bench_function("read-back", |b| b.iter(|| black_box(read_back(&log))));
    group.finish();
}

/// Headline overhead ratios against the disabled baseline (best of three
/// runs per configuration, to keep the ratio out of scheduler noise).
fn bench_overhead_headline(_c: &mut Criterion) {
    let specs = workload();
    let best = |f: &dyn Fn() -> u64| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                let steps = f();
                (start.elapsed(), steps)
            })
            .min()
            .expect("three runs")
    };
    let (base, base_steps) = best(&|| run_disabled(&specs));
    let (metrics, metrics_steps) = best(&|| run_metrics(&specs));
    let start = Instant::now();
    let (wal_steps, summary, log) = run_wal(&specs);
    let mut wal = start.elapsed();
    for _ in 0..2 {
        let start = Instant::now();
        run_wal(&specs);
        wal = wal.min(start.elapsed());
    }
    let read = (0..3)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(read_back(&log) as u64, summary.wal_records);
            start.elapsed()
        })
        .min()
        .expect("three runs");
    assert_eq!(base_steps, metrics_steps, "observation must not steer");
    assert_eq!(base_steps, wal_steps, "recording must not steer");
    let base_s = base.as_secs_f64().max(1e-9);
    println!(
        "wal_overhead/headline  disabled {base:>10.2?}  metrics {metrics:>10.2?} ({:+.1}%)  \
         wal {wal:>10.2?} ({:+.1}%)",
        (metrics.as_secs_f64() / base_s - 1.0) * 100.0,
        (wal.as_secs_f64() / base_s - 1.0) * 100.0,
    );
    println!(
        "wal_overhead/volume    {} records ({} KiB) over {} steps \
         => {:.0} records/step, {:.0} MiB/s encoded, {:.0} MiB/s read back",
        summary.wal_records,
        summary.wal_bytes / 1024,
        base_steps,
        summary.wal_records as f64 / base_steps.max(1) as f64,
        summary.wal_bytes as f64 / (1 << 20) as f64 / (wal.as_secs_f64() - base_s).max(1e-9),
        summary.wal_bytes as f64 / (1 << 20) as f64 / read.as_secs_f64().max(1e-9),
    );
}

criterion_group!(benches, bench_wal_overhead, bench_overhead_headline);
criterion_main!(benches);
