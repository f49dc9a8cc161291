//! E8 / E10 / E11 ablations: the Section 6 datatype congruences, the
//! hybrid driver's overhead, and the cost of Section 7 polyvariance.

use stcfa_core::hybrid::HybridCfa;
use stcfa_core::{Analysis, AnalysisOptions, DatatypePolicy, PolyAnalysis};
use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_workloads::{funlist, join_point};
use std::hint::black_box;

fn bench_congruences(c: &mut Criterion) {
    let mut group = c.benchmark_group("congruence");
    group.sample_size(10);
    for &n in &[16usize, 64] {
        let p = funlist::program(n);
        for policy in [
            DatatypePolicy::Forget,
            DatatypePolicy::Congruence1,
            DatatypePolicy::Congruence2,
        ] {
            group.bench_with_input(BenchmarkId::new(policy.name(), n), &p, |b, p| {
                b.iter(|| {
                    black_box(
                        Analysis::run_with(
                            p,
                            AnalysisOptions {
                                policy,
                                max_nodes: None,
                            },
                        )
                        .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_hybrid_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("hybrid");
    group.sample_size(10);
    let p = join_point::program(64);
    group.bench_function("direct", |b| {
        b.iter(|| black_box(Analysis::run(&p).unwrap()))
    });
    group.bench_function("hybrid_wrapper", |b| {
        b.iter(|| black_box(HybridCfa::run(&p, AnalysisOptions::default())))
    });
    group.finish();
}

fn bench_polyvariance(c: &mut Criterion) {
    let mut group = c.benchmark_group("polyvariance");
    group.sample_size(10);
    for &n in &[8usize, 32] {
        let p = join_point::program(n);
        group.bench_with_input(BenchmarkId::new("monovariant", n), &p, |b, p| {
            b.iter(|| black_box(Analysis::run(p).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("polyvariant", n), &p, |b, p| {
            b.iter(|| black_box(PolyAnalysis::run(p).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_congruences,
    bench_hybrid_overhead,
    bench_polyvariance
);
criterion_main!(benches);
