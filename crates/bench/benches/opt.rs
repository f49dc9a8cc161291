//! Cost of the flow-directed optimizer: what does a full fixpoint run
//! pay on top of the analysis it reuses, and how do the passes split
//! that bill? Three measurements per input —
//!
//! 1. `analyze_only` — parse-to-snapshot baseline (`Analysis::run` +
//!    `QueryEngine::freeze`), the work the optimizer would do anyway;
//! 2. `optimize_full` — the default pipeline to fixpoint, including
//!    every per-round re-analysis and the 0-CFA oracle. Counters carry
//!    the node-count reduction and rewrites performed, so rewrites/sec
//!    falls out as `performed / min_ns`;
//! 3. `pass/<name>` — each pass alone, isolating which one dominates.
//!
//! Inputs are the corpus program with real dead code (the optimizer's
//! acceptance workload) and a seeded synthesized program (realistic
//! shape, little to rewrite — the "optimizer as no-op" overhead case).
//! Sizes stay small: the *ratios* are the result and the CI host is
//! single-core.

use stcfa_core::{Analysis, QueryEngine};
use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_lambda::Program;
use stcfa_opt::{optimize, OptOptions, Pass, PassSet};
use stcfa_workloads::synth::{generate, SynthConfig};
use std::hint::black_box;

fn inputs() -> Vec<(String, Program)> {
    let dead_code = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/dead_code.ml");
    let src = std::fs::read_to_string(dead_code).expect("corpus/dead_code.ml exists");
    let mut out = vec![("dead_code".to_owned(), Program::parse(&src).unwrap())];
    out.push((
        "synth300".to_owned(),
        generate(&SynthConfig {
            seed: 7,
            target_size: 300,
            max_type_depth: 2,
            effect_prob: 0.15,
            max_tuple_width: 3,
            datatypes: true,
        }),
    ));
    out
}

fn options(passes: PassSet) -> OptOptions {
    OptOptions {
        passes,
        ..OptOptions::default()
    }
}

fn bench_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt");
    group.sample_size(10);
    for (name, p) in inputs() {
        // 1. The snapshot the optimizer consumes — its lower bound.
        group.bench_with_input(BenchmarkId::new("analyze_only", &name), &p, |b, p| {
            b.iter(|| {
                let a = Analysis::run(p).unwrap();
                black_box(QueryEngine::freeze(&a))
            })
        });

        // 2. Default pipeline to fixpoint. The counters make the
        // wall-clock interpretable: performed / min_ns is rewrites/sec,
        // and nodes_before - nodes_after is what the time bought.
        let out = optimize(&p, &options(PassSet::all())).unwrap();
        group.bench_with_input(BenchmarkId::new("optimize_full", &name), &p, |b, p| {
            b.iter(|| black_box(optimize(p, &options(PassSet::all())).unwrap()))
        });
        group
            .counter("nodes_before", out.report.nodes_before as u64)
            .counter("nodes_after", out.report.nodes_after as u64)
            .counter("rewrites_performed", out.report.performed_total() as u64)
            .counter("rounds", out.report.rounds as u64);

        // 3. Each pass alone — where the bill lands.
        for pass in Pass::all() {
            let solo = optimize(&p, &options(PassSet::only(pass))).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("pass/{}", pass.name()), &name),
                &p,
                |b, p| b.iter(|| black_box(optimize(p, &options(PassSet::only(pass))).unwrap())),
            );
            group.counter("rewrites_performed", solo.report.performed_total() as u64);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_opt);
criterion_main!(benches);
