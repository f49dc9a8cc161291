//! E4–E6: the linear-time CFA-consuming applications (effects, k-limited,
//! called-once) against their quadratic reference pipelines.

use stcfa_apps::{effects, effects_via_cfa0, CalledOnce, KLimited};
use stcfa_cfa0::Cfa0;
use stcfa_core::{Analysis, QueryEngine};
use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_workloads::{cubic, join_point, synth};
use std::hint::black_box;

fn bench_effects(c: &mut Criterion) {
    let mut group = c.benchmark_group("effects");
    group.sample_size(10);
    for &n in &[200usize, 1600] {
        let p = synth::generate(&synth::SynthConfig {
            seed: 9,
            target_size: n,
            effect_prob: 0.15,
            ..Default::default()
        });
        group.bench_with_input(BenchmarkId::new("graph_plus_colouring", n), &p, |b, p| {
            b.iter(|| {
                let a = Analysis::run(p).unwrap();
                black_box(effects(p, &a))
            })
        });
        group.bench_with_input(BenchmarkId::new("cfa_plus_post_pass", n), &p, |b, p| {
            b.iter(|| {
                let cfa = Cfa0::analyze(p);
                black_box(effects_via_cfa0(p, &cfa))
            })
        });
    }
    group.finish();
}

fn bench_klimited(c: &mut Criterion) {
    let mut group = c.benchmark_group("klimited");
    group.sample_size(10);
    for &n in &[32usize, 256] {
        let p = join_point::program(n);
        let a = Analysis::run(&p).unwrap();
        for k in [1usize, 3] {
            group.bench_with_input(BenchmarkId::new(format!("k{k}"), n), &a, |b, a| {
                b.iter(|| black_box(KLimited::run(a, k)))
            });
        }
    }
    group.finish();
}

fn bench_called_once(c: &mut Criterion) {
    let mut group = c.benchmark_group("called_once");
    group.sample_size(10);
    for &n in &[32usize, 256] {
        let p = cubic::program(n);
        let a = Analysis::run(&p).unwrap();
        group.bench_with_input(
            BenchmarkId::new("propagation", n),
            &(&p, &a),
            |b, (p, a)| b.iter(|| black_box(CalledOnce::run(p, &QueryEngine::freeze(a)))),
        );
        group.bench_with_input(
            BenchmarkId::new("query_per_site_reference", n),
            &(&p, &a),
            |b, (p, a)| b.iter(|| black_box(CalledOnce::via_queries(p, a))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_effects, bench_klimited, bench_called_once);
criterion_main!(benches);
