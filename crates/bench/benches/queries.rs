//! E1 / the Section 2 complexity table: the four control-flow queries,
//! standard algorithm vs subtransitive graph, at two program sizes (the
//! scaling *ratio* is the result; absolute numbers depend on the host) —
//! plus the frozen [`QueryEngine`] variants: the same queries off the
//! SCC-condensed bit-parallel summary.

use stcfa_cfa0::Cfa0;
use stcfa_core::{Analysis, QueryEngine};
use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_workloads::cubic;
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries");
    group.sample_size(10);
    for &n in &[16usize, 64] {
        let p = cubic::program(n);
        // The standard algorithm answers any query by computing everything.
        group.bench_with_input(BenchmarkId::new("std_any_query", n), &p, |b, p| {
            b.iter(|| black_box(Cfa0::analyze(p)))
        });
        let a = Analysis::run(&p).unwrap();
        let e = p.root();
        let l = p.all_labels().next().unwrap();
        group.bench_with_input(BenchmarkId::new("new_member", n), &a, |b, a| {
            b.iter(|| black_box(a.label_reaches(e, l)))
        });
        group.bench_with_input(BenchmarkId::new("new_labels_of", n), &a, |b, a| {
            b.iter(|| black_box(a.labels_of(e)))
        });
        group.bench_with_input(BenchmarkId::new("new_inverse", n), &a, |b, a| {
            b.iter(|| black_box(a.exprs_with_label(l)))
        });
        group.bench_with_input(
            BenchmarkId::new("new_all_label_sets", n),
            &(&p, &a),
            |b, (p, a)| b.iter(|| black_box(a.all_label_sets(p))),
        );

        // Freezing cost (CSR + condensation, no sweep).
        group.bench_with_input(BenchmarkId::new("engine_freeze", n), &a, |b, a| {
            b.iter(|| black_box(QueryEngine::freeze(a)))
        });
        // Engine variants off the completed summary sweep.
        let q = QueryEngine::freeze(&a);
        q.prepare();
        group.bench_with_input(BenchmarkId::new("engine_member", n), &q, |b, q| {
            b.iter(|| black_box(q.label_reaches(e, l)))
        });
        group.bench_with_input(BenchmarkId::new("engine_labels_of", n), &q, |b, q| {
            b.iter(|| black_box(q.labels_of(e)))
        });
        group.bench_with_input(BenchmarkId::new("engine_inverse", n), &q, |b, q| {
            b.iter(|| black_box(q.exprs_with_label(l)))
        });
        // Freeze + sweep + read everything: the honest comparison against
        // new_all_label_sets, which amortizes nothing.
        group.bench_with_input(
            BenchmarkId::new("engine_all_label_sets_cold", n),
            &a,
            |b, a| {
                b.iter(|| {
                    let q = QueryEngine::freeze(a);
                    black_box(q.all_label_sets())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("engine_all_label_sets", n), &q, |b, q| {
            b.iter(|| black_box(q.all_label_sets()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
