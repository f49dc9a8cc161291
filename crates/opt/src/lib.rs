//! Flow-directed optimizer backend — the lowering pipeline the paper's
//! analyses exist to feed ("Examples of these kinds of applications
//! include inlining and specialization").
//!
//! The pipeline consumes a frozen [`QueryEngine`] snapshot and runs up to
//! four passes over the immutable program arena:
//!
//! - **dead-app** elides applications proven flow-dead (`STCFA001`
//!   evidence) *and* never evaluated;
//! - **inline-once** beta-reduces applications of functions proven
//!   called exactly once (`STCFA003` evidence);
//! - **prune-params** replaces arguments that feed only unused
//!   parameters (`STCFA004` evidence) with `()`;
//! - **direct-calls** records, without rewriting, every application the
//!   engine (oracle-confirmed) resolves to a single target.
//!
//! The rewriting passes run in rounds to a fixpoint: each pass
//! re-analyzes the current program, plans from the shared
//! [`stcfa_lint::evidence`] functions (so a lint finding and the rewrite
//! it licenses can never disagree), and applies its plan in one arena
//! rebuild. A round that performs no rewrite ends the loop. Every
//! decision — applied or declined, with reason — lands in the
//! [`OptReport`].
//!
//! The cubic oracles ([`Cfa0`] per program version, [`LiveCfa0`] per
//! dead-app plan) are built only when a planner has a candidate to check.
//!
//! Static soundness arguments live with each planner in [`plan`]; the
//! [`oracle`] module re-checks them dynamically by running the original
//! and optimized programs under the CBV evaluator and comparing outcomes.

pub mod oracle;
pub mod plan;
pub mod report;
pub mod rewrite;

use stcfa_cfa0::{Cfa0, LiveCfa0};
use stcfa_core::{Analysis, QueryEngine};
use stcfa_lambda::Program;

pub use report::{DirectCall, OptReport, Pass, PassReport, PassSet, Skip, SkipReason};

use std::cell::OnceCell;
use std::error::Error;
use std::fmt;

/// Optimizer knobs.
#[derive(Clone, Copy, Debug)]
pub struct OptOptions {
    /// Which passes run. Defaults to all of them.
    pub passes: PassSet,
    /// Fixpoint round cap; the pipeline usually converges in two or
    /// three.
    pub max_rounds: usize,
    /// Per-pass, per-round rewrite budget. Candidates past the budget
    /// are skipped (and typically picked up next round).
    pub budget: usize,
    /// Unread: engine batches run on the calling thread. Kept only
    /// because the repository benchmark (`benchmark/`) sets it; it goes
    /// with the next change to the benchmark (ROADMAP item 7).
    #[deprecated(note = "unread: engine batches run on the calling thread")]
    pub threads: usize,
}

impl Default for OptOptions {
    #[allow(deprecated)] // the struct literal must name the kept field
    fn default() -> Self {
        OptOptions {
            passes: PassSet::all(),
            max_rounds: 8,
            budget: 1024,
            threads: 1,
        }
    }
}

/// Why an optimizer run failed. Rewrites themselves cannot fail — these
/// are environment failures (the analysis refusing a program) or broken
/// internal invariants.
#[derive(Clone, Debug)]
pub enum OptError {
    /// The flow analysis failed on the input or an intermediate program.
    Analysis(String),
    /// A rewrite plan violated an invariant during the rebuild.
    Rewrite(String),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Analysis(m) => write!(f, "analysis failed: {m}"),
            OptError::Rewrite(m) => write!(f, "rewrite failed: {m}"),
        }
    }
}

impl Error for OptError {}

/// The result of one optimizer run.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The optimized program (behaviourally equivalent to the input; see
    /// [`oracle::check`]).
    pub program: Program,
    /// The full decision record.
    pub report: OptReport,
}

/// Analyzes `program` and runs the pipeline.
pub fn optimize(program: &Program, options: &OptOptions) -> Result<Optimized, OptError> {
    let analysis = Analysis::run(program).map_err(|e| OptError::Analysis(e.to_string()))?;
    let engine = QueryEngine::freeze(&analysis);
    optimize_with(program, &engine, options)
}

/// Runs the pipeline starting from an existing frozen snapshot of
/// `program` (the daemon reuses its session snapshots this way). Later
/// rounds re-analyze the rewritten programs internally.
pub fn optimize_with(
    program: &Program,
    engine: &QueryEngine,
    options: &OptOptions,
) -> Result<Optimized, OptError> {
    let mut report = OptReport {
        nodes_before: program.size(),
        nodes_after: program.size(),
        labels_before: program.label_count(),
        labels_after: program.label_count(),
        rounds: 0,
        passes: Vec::new(),
        direct_calls: Vec::new(),
    };
    let mut current = program.clone();
    // The caller's engine serves round 1; every rebuild re-freezes.
    let mut owned_engine: Option<QueryEngine> = None;
    let mut cfa: OnceCell<Cfa0> = OnceCell::new();

    let rewriting = [Pass::DeadApp, Pass::InlineOnce, Pass::PruneParams];
    let any_rewriting = rewriting.iter().any(|&p| options.passes.contains(p));
    if any_rewriting {
        for round in 1..=options.max_rounds {
            report.rounds = round;
            let mut performed_this_round = 0;
            for pass in rewriting {
                if !options.passes.contains(pass) {
                    continue;
                }
                let engine = owned_engine.as_ref().unwrap_or(engine);
                let oracle = || cfa.get_or_init(|| Cfa0::analyze(&current));
                let live = || LiveCfa0::analyze(&current);
                let pp = match pass {
                    Pass::DeadApp => {
                        plan::dead_apps(&current, engine, oracle, live, options.budget)
                    }
                    Pass::InlineOnce => plan::inline_once(&current, engine, oracle, options.budget),
                    Pass::PruneParams => {
                        plan::prune_params(&current, engine, oracle, options.budget)
                    }
                    Pass::DirectCalls => unreachable!("not a rewriting pass"),
                };
                let planned = pp.plan.rewrites();
                let mut performed = 0;
                let mut skipped = pp.skipped;
                if !pp.plan.is_empty() {
                    match rewrite::apply(&current, &pp.plan).map_err(OptError::Rewrite)? {
                        Some(rewritten) => {
                            performed = rewritten.performed;
                            current = rewritten.program;
                            let analysis = Analysis::run(&current)
                                .map_err(|e| OptError::Analysis(e.to_string()))?;
                            owned_engine = Some(QueryEngine::freeze(&analysis));
                            cfa = OnceCell::new();
                        }
                        // The rebuild would nest past the parser's limit
                        // and is dropped whole: every planned rewrite is
                        // reported as skipped for that reason.
                        None => skipped.extend(pp.plan.sites().into_iter().map(|at| Skip {
                            at,
                            reason: SkipReason::HeightLimit,
                        })),
                    }
                }
                performed_this_round += performed;
                report.passes.push(PassReport {
                    pass,
                    round,
                    planned,
                    performed,
                    skipped,
                });
            }
            if performed_this_round == 0 {
                break;
            }
        }
    }

    if options.passes.contains(Pass::DirectCalls) {
        let engine = owned_engine.as_ref().unwrap_or(engine);
        let oracle = || cfa.get_or_init(|| Cfa0::analyze(&current));
        report.direct_calls = plan::direct_calls(&current, engine, oracle);
    }

    report.nodes_after = current.size();
    report.labels_after = current.label_count();
    Ok(Optimized {
        program: current,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_lambda::eval::{eval, EvalOptions, Value};

    fn parse(src: &str) -> Program {
        Program::parse(src).expect("parses")
    }

    fn int_of(p: &Program) -> i64 {
        match eval(p, EvalOptions::default()).expect("evaluates").value {
            Value::Int(n) => n,
            other => panic!("expected int, got {other:?}"),
        }
    }

    #[test]
    fn inline_chain_converges_in_one_rebuild() {
        let p = parse("let val f = fn x => x + 1 in let val g = fn y => f y in g 41 end end");
        let out = optimize(&p, &OptOptions::default()).expect("optimizes");
        assert_eq!(int_of(&out.program), 42);
        assert_eq!(out.program.label_count(), 0, "both functions inlined away");
        assert!(out.program.size() < p.size());
        assert_eq!(
            oracle::check(&p, &out.program, &EvalOptions::default()),
            Ok(oracle::Agreement::Values)
        );
    }

    #[test]
    fn dead_code_program_shrinks() {
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../corpus/dead_code.ml"
        ))
        .expect("corpus file");
        let p = parse(&src);
        let out = optimize(&p, &OptOptions::default()).expect("optimizes");
        assert!(
            out.program.size() < p.size(),
            "dead_code.ml must get strictly smaller ({} -> {})",
            p.size(),
            out.program.size()
        );
        assert!(out.report.performed_total() > 0);
        assert_eq!(
            oracle::check(&p, &out.program, &EvalOptions::default()),
            Ok(oracle::Agreement::Values)
        );
    }

    #[test]
    fn prune_then_nothing_left_to_do() {
        let p = parse("fun konst a b = a; konst 1 2");
        let opts = OptOptions {
            passes: PassSet::only(Pass::PruneParams),
            ..OptOptions::default()
        };
        let out = optimize(&p, &opts).expect("optimizes");
        assert_eq!(int_of(&out.program), 1);
        let pruned: usize = out
            .report
            .passes
            .iter()
            .filter(|pr| pr.pass == Pass::PruneParams)
            .map(|pr| pr.performed)
            .sum();
        assert_eq!(pruned, 1);
        // Re-running on the already-pruned program performs nothing.
        let again = optimize(&out.program, &opts).expect("optimizes");
        assert_eq!(again.report.performed_total(), 0);
        assert_eq!(again.report.rounds, 1);
    }

    #[test]
    fn empty_pass_set_is_identity() {
        let p = parse("(fn x => x * x) 6");
        let opts = OptOptions {
            passes: PassSet::empty(),
            ..OptOptions::default()
        };
        let out = optimize(&p, &opts).expect("optimizes");
        assert_eq!(out.program.size(), p.size());
        assert_eq!(out.report.rounds, 0);
        assert!(out.report.passes.is_empty());
        assert!(out.report.direct_calls.is_empty());
    }

    #[test]
    fn direct_calls_only_reports_without_rewriting() {
        let p = parse("fun id x = x; val a = id 1; val b = id 2; b");
        let opts = OptOptions {
            passes: PassSet::only(Pass::DirectCalls),
            ..OptOptions::default()
        };
        let out = optimize(&p, &opts).expect("optimizes");
        assert_eq!(out.program.size(), p.size());
        assert_eq!(out.report.direct_calls.len(), 2);
        assert_eq!(out.report.performed_total(), 0);
    }

    #[test]
    fn effects_survive_the_full_pipeline() {
        let p = parse("let val f = fn x => let val u = print x in x + 1 end in f 6 end");
        let before = eval(&p, EvalOptions::default()).expect("evaluates");
        let out = optimize(&p, &OptOptions::default()).expect("optimizes");
        let after = eval(&out.program, EvalOptions::default()).expect("evaluates");
        assert_eq!(before.outputs, after.outputs);
        assert_eq!(
            oracle::check(&p, &out.program, &EvalOptions::default()),
            Ok(oracle::Agreement::Values)
        );
    }

    #[test]
    fn inlining_that_would_grow_past_the_height_limit_is_dropped() {
        // Each function wraps the previous one's call in 600 `not`s.
        // Every body parses, but inlining the whole chain into one
        // expression would build a tree about 3,600 levels tall.
        let mut src = String::from("fun f0 x = not x;\n");
        for i in 1..7 {
            src.push_str(&format!(
                "fun f{i} x = {}(f{} x);\n",
                "not ".repeat(600),
                i - 1
            ));
        }
        src.push_str("f6 true");
        let height = |p: &Program| {
            let mut heights = vec![0usize; p.size()];
            for e in p.exprs() {
                let mut below = 0;
                p.for_each_child(e, |c| below = below.max(heights[c.index()]));
                heights[e.index()] = below + 1;
            }
            heights[p.root().index()]
        };
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(move || {
                let p = parse(&src);
                let opts = OptOptions {
                    passes: PassSet::only(Pass::InlineOnce),
                    ..OptOptions::default()
                };
                let out = optimize(&p, &opts).expect("optimizes");
                let inline = &out.report.passes[0];
                assert!(inline.planned >= 6, "{:?}", out.report.passes);
                assert_eq!(inline.performed, 0, "the tall rebuild is dropped");
                let dropped: Vec<_> = inline
                    .skipped
                    .iter()
                    .filter(|s| s.reason == SkipReason::HeightLimit)
                    .collect();
                assert_eq!(dropped.len(), inline.planned, "{:?}", inline.skipped);
                assert!(out
                    .report
                    .to_json()
                    .to_line()
                    .contains(r#""reason":"height-limit""#));
                assert_eq!(out.program.size(), p.size());
                assert!(height(&out.program) <= stcfa_lambda::parser::MAX_HEIGHT);
            })
            .expect("spawn")
            .join()
            .expect("optimizer thread");
    }
}
