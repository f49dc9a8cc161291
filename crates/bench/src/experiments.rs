//! One function per experiment in DESIGN.md's per-experiment index
//! (E1–E11). Each returns a rendered table (plus commentary) so the
//! `tables` binary and EXPERIMENTS.md stay in sync with the code, and
//! records its headline measurements (times and work counters) into a
//! [`Report`] so the same run also produces machine-readable
//! `BENCH_paper_tables.json` for the perf trajectory.

use stcfa_apps::{effects, effects_via_cfa0, CalledOnce, KLimited};
use stcfa_cfa0::Cfa0;
use stcfa_core::hybrid::HybridCfa;
use stcfa_core::{Analysis, AnalysisOptions, DatatypePolicy, PolyAnalysis, QueryEngine};
use stcfa_lambda::{ExprKind, Program};
use stcfa_sba::Sba;
use stcfa_types::{TypeMetrics, TypedProgram};
use stcfa_unify::UnifyCfa;
use stcfa_workloads::{cubic, funlist, join_point, lexgen, life, synth};

use crate::{best_of, fmt_duration, Table};
use stcfa_devkit::bench::Report;

/// How many repetitions feed the "fastest of N" measurement (the paper
/// uses 10; the quick mode of the `tables` binary uses fewer).
#[derive(Clone, Copy, Debug)]
pub struct Runs(pub usize);

impl Default for Runs {
    fn default() -> Self {
        Runs(5)
    }
}

fn avg_call_targets(p: &Program, labels_of: impl Fn(stcfa_lambda::ExprId) -> usize) -> f64 {
    let mut total = 0usize;
    let mut sites = 0usize;
    for app in p.app_sites() {
        let ExprKind::App { func, .. } = p.kind(app) else {
            unreachable!()
        };
        total += labels_of(*func);
        sites += 1;
    }
    total as f64 / sites.max(1) as f64
}

/// E1 — the Section 2 complexity table: per-query scaling, Std vs New.
pub fn e1_query_complexity(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E1 — Section 2 query complexity (standard algorithm vs subtransitive graph)",
        &[
            "n (copies)",
            "nodes",
            "Std: all-sets solve",
            "New: build+close",
            "New: is l∈L(e)?",
            "New: L(e)",
            "New: {e : l∈L(e)}",
            "New: all sets",
            "Engine: freeze+sweep",
            "Engine: all sets",
        ],
    );
    for &n in &[4usize, 16, 64, 256] {
        let p = cubic::program(n);
        // The standard algorithm computes everything at once; its cost is
        // the same for any of the four queries.
        let (_, std_t) = best_of(runs.0, || Cfa0::analyze(&p));
        let (a, build_t) = best_of(runs.0, || Analysis::run(&p).unwrap());
        let e = p.root();
        let l = p.all_labels().next().unwrap();
        let (_, q_member) = best_of(runs.0, || a.label_reaches(e, l));
        let (_, q_labels) = best_of(runs.0, || a.labels_of(e));
        let (_, q_inverse) = best_of(runs.0, || a.exprs_with_label(l));
        let (_, q_all) = best_of(runs.0.min(3), || a.all_label_sets(&p));
        // The frozen engine: one CSR freeze + SCC condensation +
        // bit-parallel sweep buys O(1)-per-row answers to the same list.
        let (_, eng_freeze) = best_of(runs.0, || {
            let q = QueryEngine::freeze(&a);
            q.prepare();
            q
        });
        let engine = QueryEngine::freeze(&a);
        engine.prepare();
        let (_, eng_all) = best_of(runs.0.min(3), || engine.all_label_sets());
        let samples = runs.0 as u32;
        report
            .time("E1", format!("std_all_sets/{n}"), std_t, samples)
            .counter("nodes", p.size() as u64);
        report.time("E1", format!("build_close/{n}"), build_t, samples);
        report.time("E1", format!("query_member/{n}"), q_member, samples);
        report.time("E1", format!("query_labels_of/{n}"), q_labels, samples);
        report.time("E1", format!("query_inverse/{n}"), q_inverse, samples);
        report.time("E1", format!("query_all_sets/{n}"), q_all, samples.min(3));
        report.time(
            "E1",
            format!("engine_freeze_sweep/{n}"),
            eng_freeze,
            samples,
        );
        let qs = engine.query_stats();
        report
            .time(
                "E1",
                format!("engine_all_sets/{n}"),
                eng_all,
                samples.min(3),
            )
            .counter("queries_answered", qs.queries)
            .counter("cache_hits", qs.summary_hits)
            .counter("sccs", engine.comp_count() as u64);
        t.row(vec![
            n.to_string(),
            p.size().to_string(),
            fmt_duration(std_t),
            fmt_duration(build_t),
            fmt_duration(q_member),
            fmt_duration(q_labels),
            fmt_duration(q_inverse),
            fmt_duration(q_all),
            fmt_duration(eng_freeze),
            fmt_duration(eng_all),
        ]);
    }
    format!(
        "{}\nShape to check: Std grows superlinearly; New build and the three\n\
         single queries grow ~linearly; \"all sets\" grows ~quadratically\n\
         (it is the output size). The frozen engine's all-sets column should\n\
         beat the per-node BFS column by a widening factor: its sweep is one\n\
         O(E·L/64) pass, after which each row is a table read.\n",
        t.render()
    )
}

/// E2 — Table 1: the parameterized cubic benchmark.
pub fn e2_cubic_benchmark(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E2 — Table 1: parameterized benchmark (SBA vs linear-time algorithm)",
        &[
            "size",
            "nodes",
            "SBA time",
            "SBA work",
            "build time",
            "build nodes",
            "close time",
            "close nodes",
            "query-all time",
            "pairs",
        ],
    );
    for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
        let p = cubic::program(n);
        let (sba, sba_t) = best_of(runs.0, || Sba::analyze(&p));
        let (a, total_t) = best_of(runs.0, || Analysis::run(&p).unwrap());
        let s = a.stats();
        // Estimate the build/close split from counted work: the build is a
        // single linear pass, so attribute time ∝ edges processed.
        let build_frac = s.build_edges as f64 / (s.build_edges + s.close_edges).max(1) as f64;
        let build_t = total_t.mul_f64(build_frac);
        let close_t = total_t.mul_f64(1.0 - build_frac);
        // "writing out the control flow information for all non-trivial
        // applications".
        let (pairs, query_t) = best_of(runs.0.min(3), || {
            let mut pairs = 0usize;
            for app in p.nontrivial_apps() {
                let ExprKind::App { func, .. } = p.kind(app) else {
                    unreachable!()
                };
                pairs += a.labels_of(*func).len();
            }
            pairs
        });
        let samples = runs.0 as u32;
        report
            .time("E2", format!("sba_total/{n}"), sba_t, samples)
            .counter("work_units", sba.stats().work_units);
        report
            .time("E2", format!("build_close/{n}"), total_t, samples)
            .counter("build_nodes", s.build_nodes as u64)
            .counter("close_nodes", s.close_nodes as u64);
        report
            .time(
                "E2",
                format!("query_all_nontrivial/{n}"),
                query_t,
                samples.min(3),
            )
            .counter("pairs", pairs as u64);
        t.row(vec![
            n.to_string(),
            p.size().to_string(),
            fmt_duration(sba_t),
            sba.stats().work_units.to_string(),
            fmt_duration(build_t),
            s.build_nodes.to_string(),
            fmt_duration(close_t),
            s.close_nodes.to_string(),
            fmt_duration(query_t),
            pairs.to_string(),
        ]);
    }
    format!(
        "{}\nShape to check (paper, Table 1): SBA work is clearly superlinear\n\
         (cubic trend); build/close nodes grow linearly; querying all\n\
         non-trivial applications is quadratic (there are O(n) of them and\n\
         each costs O(n)).\n",
        t.render()
    )
}

/// E3 — Table 2: the `life` and `lexgen` substitutes.
pub fn e3_ml_programs(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E3 — Table 2: ML benchmarks (substitutes; see DESIGN.md)",
        &[
            "prog",
            "lines",
            "SBA total",
            "our total",
            "build nodes",
            "close nodes",
            "speedup",
        ],
    );
    let progs: Vec<(&str, String)> = vec![
        ("life", life::SOURCE.to_owned()),
        ("lexgen", lexgen::source(lexgen::DEFAULT_STATES)),
    ];
    for (name, src) in progs {
        let p = Program::parse(&src).unwrap();
        let lines = src.lines().filter(|l| !l.trim().is_empty()).count();
        let (_, sba_t) = best_of(runs.0, || Sba::analyze(&p));
        let (a, our_t) = best_of(runs.0, || Analysis::run(&p).unwrap());
        let s = a.stats();
        let samples = runs.0 as u32;
        report.time("E3", format!("sba_total/{name}"), sba_t, samples);
        report
            .time("E3", format!("subtransitive_total/{name}"), our_t, samples)
            .counter("build_nodes", s.build_nodes as u64)
            .counter("close_nodes", s.close_nodes as u64);
        t.row(vec![
            name.to_string(),
            lines.to_string(),
            fmt_duration(sba_t),
            fmt_duration(our_t),
            s.build_nodes.to_string(),
            s.close_nodes.to_string(),
            format!("{:.2}x", sba_t.as_secs_f64() / our_t.as_secs_f64()),
        ]);
    }
    format!(
        "{}\nShape to check (paper, Table 2): the linear algorithm beats SBA\n\
         (the paper reports 2.5–3x); close nodes stay of the order of build\n\
         nodes; build nodes track program size.\n",
        t.render()
    )
}

/// E4 — Section 8: linear-time effects analysis.
pub fn e4_effects(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E4 — Section 8: effects analysis (graph colouring vs CFA+post-pass)",
        &[
            "calls",
            "nodes",
            "effectful",
            "colouring",
            "CFA+post",
            "agree",
        ],
    );
    for &n in &[8usize, 32, 128, 512] {
        let p = join_point::program_with_effects(n);
        // End-to-end pipelines, as the paper compares them: graph + colour
        // vs cubic CFA + post-pass.
        let (fast, fast_t) = best_of(runs.0, || {
            let a = Analysis::run(&p).unwrap();
            effects(&p, &a)
        });
        let (slow, slow_t) = best_of(runs.0, || {
            let cfa = Cfa0::analyze(&p);
            effects_via_cfa0(&p, &cfa)
        });
        let agree = fast.effectful_exprs() == slow.effectful_exprs();
        let samples = runs.0 as u32;
        report
            .time("E4", format!("colouring/{n}"), fast_t, samples)
            .counter("effectful", fast.count() as u64);
        report.time("E4", format!("cfa_post_pass/{n}"), slow_t, samples);
        t.row(vec![
            n.to_string(),
            p.size().to_string(),
            fast.count().to_string(),
            fmt_duration(fast_t),
            fmt_duration(slow_t),
            agree.to_string(),
        ]);
    }
    format!(
        "{}\nShape to check: identical answers; colouring time grows linearly\n\
         with program size (the reference includes a quadratic-size\n\
         intermediate).\n",
        t.render()
    )
}

/// E5 — Section 9: k-limited CFA.
pub fn e5_klimited(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E5 — Section 9: k-limited CFA (linear-time annotation propagation)",
        &[
            "calls", "nodes", "k=1 time", "k=2 time", "k=3 time", "many@k=1",
        ],
    );
    for &n in &[8usize, 32, 128, 512] {
        let p = join_point::program(n);
        let a = Analysis::run(&p).unwrap();
        let mut row = vec![n.to_string(), p.size().to_string()];
        let mut many = 0usize;
        for k in 1..=3usize {
            let (kl, kt) = best_of(runs.0, || KLimited::run(&a, k));
            if k == 1 {
                many = p
                    .app_sites()
                    .iter()
                    .filter(|&&app| kl.call_targets(&p, &a, app).is_some_and(|s| s.is_many()))
                    .count();
            }
            report.time("E5", format!("k{k}/{n}"), kt, runs.0 as u32);
            row.push(fmt_duration(kt));
        }
        report.counters("E5", format!("many_at_k1/{n}"), &[("sites", many as u64)]);
        row.push(many.to_string());
        t.row(row);
    }
    format!(
        "{}\nShape to check: time grows linearly in program size for every k\n\
         (each node's annotation changes at most k+1 times).\n",
        t.render()
    )
}

/// E6 — called-once analysis.
pub fn e6_called_once(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E6 — called-once analysis (linear site-set propagation)",
        &[
            "n",
            "nodes",
            "functions",
            "called-once",
            "never-called",
            "fast",
            "reference",
        ],
    );
    for &n in &[8usize, 32, 128, 512] {
        let p = cubic::program(n);
        let a = Analysis::run(&p).unwrap();
        // The linear path pays for its freeze (CSR and condensation) on
        // every run, as the per-site reference pays for nothing up front.
        let (fast, fast_t) = best_of(runs.0, || CalledOnce::run(&p, &QueryEngine::freeze(&a)));
        let (_slow, slow_t) = best_of(runs.0.min(3), || CalledOnce::via_queries(&p, &a));
        report
            .time("E6", format!("propagation/{n}"), fast_t, runs.0 as u32)
            .counter("called_once", fast.called_once().len() as u64)
            .counter("never_called", fast.never_called().len() as u64);
        report.time(
            "E6",
            format!("query_per_site/{n}"),
            slow_t,
            runs.0.min(3) as u32,
        );
        t.row(vec![
            n.to_string(),
            p.size().to_string(),
            p.label_count().to_string(),
            fast.called_once().len().to_string(),
            fast.never_called().len().to_string(),
            fmt_duration(fast_t),
            fmt_duration(slow_t),
        ]);
    }
    format!(
        "{}\nShape to check: the propagation stays linear while the
query-per-site reference grows quadratically.\n",
        t.render()
    )
}

/// E7 — the constant factor: close/build node ratio and k_avg.
pub fn e7_constants(_runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E7 — Section 10 constants: k_avg and close/build node ratio",
        &[
            "workload",
            "nodes",
            "k_avg",
            "k_max",
            "build nodes",
            "close nodes",
            "close/build",
        ],
    );
    let mut progs: Vec<(String, Program)> = vec![
        ("life".into(), life::program()),
        ("lexgen".into(), lexgen::program()),
        ("cubic(32)".into(), cubic::program(32)),
        ("join(32)".into(), join_point::program(32)),
    ];
    for depth in 1..=3usize {
        progs.push((
            format!("synth(k-depth {depth})"),
            synth::generate(&synth::SynthConfig {
                seed: 4,
                target_size: 600,
                max_type_depth: depth,
                ..Default::default()
            }),
        ));
    }
    for (name, p) in progs {
        let typed = TypedProgram::infer(&p).unwrap();
        let m = TypeMetrics::compute(&p, &typed);
        let a = Analysis::run(&p).unwrap();
        let s = a.stats();
        report.counters(
            "E7",
            &name,
            &[
                ("nodes", p.size() as u64),
                ("k_avg_milli", (m.avg_size * 1000.0) as u64),
                ("k_max", m.max_size as u64),
                ("build_nodes", s.build_nodes as u64),
                ("close_nodes", s.close_nodes as u64),
            ],
        );
        t.row(vec![
            name,
            p.size().to_string(),
            format!("{:.2}", m.avg_size),
            m.max_size.to_string(),
            s.build_nodes.to_string(),
            s.close_nodes.to_string(),
            format!("{:.2}", s.close_nodes as f64 / s.build_nodes.max(1) as f64),
        ]);
    }
    format!(
        "{}\nShape to check (paper): k_avg \"typically around 2 or 3\"; close\n\
         nodes \"typically no more than the number of nodes in the build\n\
         phase\"; both ratios rise with type depth.\n",
        t.render()
    )
}

/// E8 — Section 6 congruence ablation (≈₁ vs ≈₂ vs Forget).
pub fn e8_congruences(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E8 — Section 6 datatype congruences on function-list workloads",
        &["n", "policy", "time", "nodes", "avg call targets"],
    );
    for &n in &[4usize, 16, 64] {
        let p = funlist::program(n);
        for (name, policy) in [
            ("Forget", DatatypePolicy::Forget),
            ("≈1", DatatypePolicy::Congruence1),
            ("≈2", DatatypePolicy::Congruence2),
        ] {
            let (a, at) = best_of(runs.0, || {
                Analysis::run_with(
                    &p,
                    AnalysisOptions {
                        policy,
                        max_nodes: None,
                    },
                )
                .unwrap()
            });
            let avg = avg_call_targets(&p, |f| a.labels_of(f).len());
            report
                .time("E8", format!("{name}/{n}"), at, runs.0 as u32)
                .counter("nodes", a.node_count() as u64)
                .counter("avg_targets_milli", (avg * 1000.0) as u64);
            t.row(vec![
                n.to_string(),
                name.to_string(),
                fmt_duration(at),
                a.node_count().to_string(),
                format!("{avg:.2}"),
            ]);
        }
    }
    format!(
        "{}\nShape to check (paper, Section 6): ≈2 is strictly more accurate\n\
         than ≈1 (smaller target sets) at moderate extra node cost; Forget\n\
         is cheapest and coarsest.\n",
        t.render()
    )
}

/// E9 — precision of equality-based CFA vs inclusion-based.
pub fn e9_unification(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E9 — equality-based (almost-linear) CFA: the precision it gives up",
        &[
            "workload",
            "unify time",
            "cfa0 time",
            "sub time",
            "unify avg",
            "exact avg",
            "blowup",
        ],
    );
    let progs: Vec<(String, Program)> = vec![
        ("join(16)".into(), join_point::program(16)),
        ("cubic(16)".into(), cubic::program(16)),
        ("life".into(), life::program()),
        (
            "lexgen(24)".into(),
            Program::parse(&lexgen::source(24)).unwrap(),
        ),
    ];
    for (name, p) in progs {
        let (uni, ut) = best_of(runs.0, || UnifyCfa::analyze(&p));
        let (cfa, ct) = best_of(runs.0, || Cfa0::analyze(&p));
        let (_a, at) = best_of(runs.0, || Analysis::run(&p).unwrap());
        let uni_avg = avg_call_targets(&p, |f| uni.labels(f).len());
        let exact_avg = avg_call_targets(&p, |f| cfa.labels(&p, f).len());
        let samples = runs.0 as u32;
        report
            .time("E9", format!("unify/{name}"), ut, samples)
            .counter("avg_targets_milli", (uni_avg * 1000.0) as u64);
        report
            .time("E9", format!("cfa0/{name}"), ct, samples)
            .counter("avg_targets_milli", (exact_avg * 1000.0) as u64);
        report.time("E9", format!("subtransitive/{name}"), at, samples);
        t.row(vec![
            name,
            fmt_duration(ut),
            fmt_duration(ct),
            fmt_duration(at),
            format!("{uni_avg:.2}"),
            format!("{exact_avg:.2}"),
            format!("{:.2}x", uni_avg / exact_avg.max(1e-9)),
        ]);
    }
    format!(
        "{}\nShape to check (paper, Section 1/11): equality-based analysis is\n\
         fast but computes strictly coarser sets; the subtransitive\n\
         algorithm shows \"this loss of information is not necessary\".\n",
        t.render()
    )
}

/// E10 — the hybrid driver from the conclusion.
pub fn e10_hybrid(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E10 — hybrid: linear on bounded types, cubic fallback otherwise",
        &["program", "engine", "time", "budget hit"],
    );
    let progs: Vec<(String, Program)> = vec![
        ("cubic(32)".into(), cubic::program(32)),
        ("life".into(), life::program()),
        (
            "Ω (untyped)".into(),
            Program::parse("(fn x => x x) (fn x => x x)").unwrap(),
        ),
    ];
    for (name, p) in progs {
        let (h, ht) = best_of(runs.0, || HybridCfa::run(&p, AnalysisOptions::default()));
        report
            .time("E10", format!("hybrid/{name}"), ht, runs.0 as u32)
            .counter("fell_back", u64::from(!h.is_linear()));
        t.row(vec![
            name,
            if h.is_linear() {
                "subtransitive".into()
            } else {
                "cubic fallback".into()
            },
            fmt_duration(ht),
            (!h.is_linear()).to_string(),
        ]);
    }
    format!(
        "{}\nShape to check: bounded-type programs use the linear engine; the\n\
         untyped Ω exceeds its node budget and falls back, still answering.\n",
        t.render()
    )
}

/// E11 — Section 7 polyvariance.
pub fn e11_polyvariance(runs: Runs, report: &mut Report) -> String {
    let mut t = Table::new(
        "E11 — Section 7 polyvariance: summary instantiation",
        &[
            "calls",
            "mono avg targets",
            "poly avg targets",
            "mono time",
            "poly time",
            "instances",
        ],
    );
    for &n in &[4usize, 8, 16, 32] {
        let p = join_point::program(n);
        let (mono, mt) = best_of(runs.0, || Analysis::run(&p).unwrap());
        let (poly, pt) = best_of(runs.0, || PolyAnalysis::run(&p).unwrap());
        let mono_avg = avg_call_targets(&p, |f| mono.labels_of(f).len());
        let poly_avg = avg_call_targets(&p, |f| poly.labels_of(f).len());
        let samples = runs.0 as u32;
        report
            .time("E11", format!("monovariant/{n}"), mt, samples)
            .counter("avg_targets_milli", (mono_avg * 1000.0) as u64);
        report
            .time("E11", format!("polyvariant/{n}"), pt, samples)
            .counter("avg_targets_milli", (poly_avg * 1000.0) as u64)
            .counter("instances", poly.instance_count() as u64);
        t.row(vec![
            n.to_string(),
            format!("{mono_avg:.2}"),
            format!("{poly_avg:.2}"),
            fmt_duration(mt),
            fmt_duration(pt),
            poly.instance_count().to_string(),
        ]);
    }
    format!(
        "{}\nShape to check: the monovariant join point collects all n\n\
         arguments at every site; polyvariant summaries cut each site to\n\
         its own argument (avg → 1) at modest extra cost.\n",
        t.render()
    )
}

/// E12 — incremental analysis: update cost vs re-analysis as a session
/// grows (the paper's "simple, incremental, demand-driven" remark).
pub fn e12_incremental(runs: Runs, report: &mut Report) -> String {
    use stcfa_core::incremental::IncrementalAnalysis;
    use stcfa_lambda::session::SessionProgram;

    let mut t = Table::new(
        "E12 — incremental analysis over a growing session",
        &[
            "fragments",
            "total nodes",
            "incremental (all updates)",
            "re-analysis (each step)",
            "speedup",
        ],
    );
    for &n in &[8usize, 32, 128] {
        let fragments: Vec<String> = std::iter::once("fun id x = x;".to_owned())
            .chain((0..n).map(|i| format!("val v{i} = id (fn q{i} => q{i} + {i});")))
            .collect();
        let (nodes, inc_t) = best_of(runs.0, || {
            let mut session = SessionProgram::new();
            let mut a = IncrementalAnalysis::new(Default::default());
            for f in &fragments {
                session.define(f).unwrap();
                a.update(&session).unwrap();
            }
            a.node_count()
        });
        let (_, scratch_t) = best_of(runs.0, || {
            let mut session = SessionProgram::new();
            for f in &fragments {
                session.define(f).unwrap();
                let mut a = IncrementalAnalysis::new(Default::default());
                a.update(&session).unwrap();
            }
        });
        let samples = runs.0 as u32;
        report
            .time("E12", format!("incremental/{n}"), inc_t, samples)
            .counter("nodes", nodes as u64);
        report.time("E12", format!("rescratch/{n}"), scratch_t, samples);
        t.row(vec![
            (n + 1).to_string(),
            nodes.to_string(),
            fmt_duration(inc_t),
            fmt_duration(scratch_t),
            format!("{:.2}x", scratch_t.as_secs_f64() / inc_t.as_secs_f64()),
        ]);
    }
    format!(
        "{}\nShape to check: updating after each fragment costs the delta, so\n\
         the whole incremental session is linear; re-analyzing from scratch\n\
         per fragment is quadratic in session length — the gap widens.\n",
        t.render()
    )
}

/// Runs every experiment, in order, recording measurements into `report`.
pub fn all(runs: Runs, report: &mut Report) -> Vec<(&'static str, String)> {
    vec![
        ("E1", e1_query_complexity(runs, report)),
        ("E2", e2_cubic_benchmark(runs, report)),
        ("E3", e3_ml_programs(runs, report)),
        ("E4", e4_effects(runs, report)),
        ("E5", e5_klimited(runs, report)),
        ("E6", e6_called_once(runs, report)),
        ("E7", e7_constants(runs, report)),
        ("E8", e8_congruences(runs, report)),
        ("E9", e9_unification(runs, report)),
        ("E10", e10_hybrid(runs, report)),
        ("E11", e11_polyvariance(runs, report)),
        ("E12", e12_incremental(runs, report)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-test the cheap experiments so the harness cannot rot.
    #[test]
    fn small_experiments_render() {
        // E7 type-infers lexgen, whose deep let-chain wants a roomy stack
        // in debug builds.
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let runs = Runs(1);
                let mut report = Report::new();
                for s in [
                    e7_constants(runs, &mut report),
                    e10_hybrid(runs, &mut report),
                ] {
                    assert!(s.contains('|'), "table body missing");
                    assert!(s.contains("Shape to check"));
                }
                assert!(!report.is_empty(), "experiments must record measurements");
                let json = report.to_json("smoke");
                assert!(json.contains("\"E7\""), "E7 records missing from JSON");
                assert!(json.contains("\"E10\""), "E10 records missing from JSON");
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
