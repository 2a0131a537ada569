//! Table I: per-component verification effort for the mesh/XY instantiation.
//!
//! One Criterion group per paper row — `Rxy`, `(C-1)xy`, `(C-2)xy`,
//! `(C-3)xy`, `(C-4)`, `(C-5)` — timed over mesh sizes. The paper's CPU
//! column ordering (C-2 heaviest, C-1/C-3 heavy, Iid trivial) is the shape
//! to compare against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genoc_core::routing::compute_route;
use genoc_verif::instance::Instance;
use genoc_verif::obligations;
use std::hint::black_box;

const SIZES: [usize; 3] = [4, 8, 12];

fn bench_rxy(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/Rxy");
    for size in SIZES {
        let instance = Instance::mesh_xy(size, size, 1);
        group.bench_with_input(BenchmarkId::from_parameter(size), &instance, |b, inst| {
            b.iter(|| {
                let net = inst.net.as_ref();
                let mut total = 0usize;
                for s in net.nodes() {
                    for d in net.nodes() {
                        let r = compute_route(
                            net,
                            inst.routing.as_ref(),
                            net.local_in(s),
                            net.local_out(d),
                        )
                        .expect("xy routes");
                        total += r.len();
                    }
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_obligation(
    c: &mut Criterion,
    name: &str,
    check: fn(&Instance) -> genoc_core::obligations::ObligationReport,
) {
    let mut group = c.benchmark_group(format!("table1/{name}"));
    group.sample_size(10);
    for size in SIZES {
        let instance = Instance::mesh_xy(size, size, 1);
        group.bench_with_input(BenchmarkId::from_parameter(size), &instance, |b, inst| {
            b.iter(|| {
                let report = check(inst);
                assert!(report.holds());
                black_box(report.cases)
            })
        });
    }
    group.finish();
}

fn bench_all(c: &mut Criterion) {
    bench_rxy(c);
    bench_obligation(c, "C-1", obligations::check_c1);
    bench_obligation(c, "C-2", obligations::check_c2);
    bench_obligation(c, "C-3", obligations::check_c3);
    bench_obligation(c, "C-4", obligations::check_c4);
    bench_obligation(c, "C-5", obligations::check_c5);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
