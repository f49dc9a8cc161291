//! What does the rule layer cost? Three measurements per program size —
//!
//! 1. the full lint report (all eight rules, STCFA007/008 evaluated by
//!    the rule engine, including `ExtDb` construction the way a cold
//!    request pays it);
//! 2. the call graph's dominator tree, cold (fresh `ExtDb`) and warm
//!    (call graph cached); beside it, the stratified `nd`/`dom` program
//!    that specifies it, evaluated warm, to keep the specification's
//!    cost visible; and STCFA008's whole dominated-redundant analysis
//!    on a fresh `ExtDb`;
//! 3. taint reachability, full sweep vs a single demand-mode
//!    membership query — the asymmetry the demand evaluator exists for.
//!
//! Inputs are the parameterized cubic-family program (dense flow) and a
//! seeded synthesized program (realistic shape). Sizes are kept small:
//! the *ratios* are the result, and the CI host is single-core.

use stcfa_core::{Analysis, QueryEngine};
use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_lambda::Program;
use stcfa_lint::{lint, LintOptions};
use stcfa_rules::analyses::dominators_program;
use stcfa_rules::{
    dominated_redundant, dominators, expr_is_tainted, tainted_exprs, Evaluator, ExtDb,
};
use stcfa_workloads::cubic;
use stcfa_workloads::synth::{generate, SynthConfig};
use std::hint::black_box;

fn inputs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for &n in &[16usize, 64] {
        out.push((format!("cubic{n}"), cubic::program(n)));
    }
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

fn bench_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("rules");
    group.sample_size(10);
    for (name, p) in inputs() {
        let a = Analysis::run(&p).unwrap();
        let q = QueryEngine::freeze(&a);
        q.prepare();

        // 1. The full lint report.
        group.bench_with_input(
            BenchmarkId::new("lint_hand_fused", &name),
            &(&p, &a, &q),
            |b, (p, a, q)| b.iter(|| black_box(lint(p, a, q, &LintOptions::default()))),
        );

        // 2. Dominators: cold pays ExtDb + call-graph derivation, warm
        // reuses the cached call graph and measures the tree alone; the
        // program row evaluates the specification over the same graph.
        group.bench_with_input(
            BenchmarkId::new("dominators_cold", &name),
            &(&p, &a, &q),
            |b, (p, a, q)| {
                b.iter(|| {
                    let db = ExtDb::new(p, a, q);
                    black_box(dominators(&db))
                })
            },
        );
        let db = ExtDb::new(&p, &a, &q);
        db.callgraph();
        group.bench_with_input(BenchmarkId::new("dominators_warm", &name), &db, |b, db| {
            b.iter(|| black_box(dominators(db)))
        });
        let (spec, _, dom) = dominators_program();
        group.bench_with_input(
            BenchmarkId::new("dominators_program_warm", &name),
            &db,
            |b, db| {
                b.iter(|| {
                    let mut ev = Evaluator::new(&spec, db).expect("program is well-formed");
                    ev.run();
                    black_box(ev.pairs(dom))
                })
            },
        );
        // STCFA008's rule-layer cost as lint pays it: a fresh `ExtDb`,
        // the call graph, the dominator tree and the witness sweep.
        group.bench_with_input(
            BenchmarkId::new("dominated_redundant_cold", &name),
            &(&p, &a, &q),
            |b, (p, a, q)| {
                b.iter(|| {
                    let db = ExtDb::new(p, a, q);
                    black_box(dominated_redundant(&db))
                })
            },
        );

        // 3. Taint: the whole-program sweep vs one demand-mode
        // membership question at the root, same sources (the
        // effectful-bodied labels, or label 0 when there are none).
        let sources: Vec<_> = {
            let mut s: Vec<_> = p
                .all_labels()
                .filter(|&l| db.label_is_effectful(l))
                .collect();
            if s.is_empty() {
                s.extend(p.all_labels().take(1));
            }
            s
        };
        group.bench_with_input(
            BenchmarkId::new("taint_full", &name),
            &(&db, &sources),
            |b, (db, sources)| b.iter(|| black_box(tainted_exprs(db, sources))),
        );
        let root = p.root();
        group.bench_with_input(
            BenchmarkId::new("taint_demand_root", &name),
            &(&db, &sources),
            |b, (db, sources)| b.iter(|| black_box(expr_is_tainted(db, sources, root))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rules);
criterion_main!(benches);
