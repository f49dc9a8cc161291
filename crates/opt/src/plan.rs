//! Per-pass planners: evidence in, [`RewritePlan`] plus skips out.
//!
//! All evidence comes from [`stcfa_lint::evidence`] — the same functions
//! the lint rules report from — so a finding and the rewrite it licenses
//! can never disagree. On top of the shared evidence each planner applies
//! the pass's own soundness gates (reachability for elision, the direct
//! sole-occurrence binding restriction for inlining, value-form arguments
//! for pruning), and every gate refusal is recorded as a [`Skip`].
//!
//! The cubic oracles come in as builders (`cfa`, `live`), called only at
//! a candidate that has passed every gate before the oracle check.

use std::collections::HashMap;

use stcfa_apps::called_once::CalledOnce;
use stcfa_cfa0::{Cfa0, LiveCfa0};
use stcfa_core::QueryEngine;
use stcfa_lambda::{ExprId, ExprKind, Label, Literal, Program};
use stcfa_lint::evidence;

use crate::report::{Skip, SkipReason};
use crate::rewrite::{Action, RewritePlan};

/// One pass's planning outcome.
#[derive(Debug, Default)]
pub struct PassPlan {
    /// The edits to apply (empty when nothing is provable).
    pub plan: RewritePlan,
    /// Candidates declined, with reasons, in evidence order.
    pub skipped: Vec<Skip>,
}

impl PassPlan {
    fn skip(&mut self, at: ExprId, reason: SkipReason) {
        self.skipped.push(Skip { at, reason });
    }
}

/// Plans dead-application elision (`STCFA001` evidence). A site is
/// elided only when the engine proves its operator flow-dead, the cubic
/// oracle confirms it, *and* the reachability analysis proves the site is
/// never evaluated — a reachable flow-dead application still raises a
/// dynamic type error (or diverges in its operator) at runtime, so
/// deleting it would change behaviour.
pub fn dead_apps<'o>(
    program: &Program,
    engine: &QueryEngine,
    cfa: impl Fn() -> &'o Cfa0,
    live: impl FnOnce() -> LiveCfa0,
    budget: usize,
) -> PassPlan {
    let mut out = PassPlan::default();
    let ev = evidence::app_evidence(program, engine);
    if ev.flow_dead.is_empty() {
        return out;
    }
    let confirmed = evidence::confirm_flow_dead(program, cfa(), &ev.flow_dead);
    for c in &ev.flow_dead {
        if !confirmed.contains(c) {
            out.skip(c.app, SkipReason::OracleDisputed);
        }
    }
    if confirmed.is_empty() {
        return out;
    }
    let live = live();
    for c in confirmed {
        if live.is_live(c.app) {
            out.skip(c.app, SkipReason::MayEvaluate);
        } else if out.plan.rewrites() >= budget {
            out.skip(c.app, SkipReason::Budget);
        } else {
            out.plan.insert(c.app, Action::ElideApp);
        }
    }
    out
}

/// Plans called-once inlining (`STCFA003` evidence). Two shapes are
/// accepted:
///
/// - a direct redex `(fn x => body) arg`, where beta-reduction is
///   unconditionally sound; and
/// - `f arg` where `f` is bound *directly* to the called-once abstraction
///   by an enclosing `let`/`letrec` and occurs nowhere else in the whole
///   program. The body is copied to the site and the binding dropped in
///   the same rebuild, so no subtree is ever duplicated. Immutable
///   bindings plus program-wide unique binders make the move sound even
///   when the site sits under a different abstraction: the body's free
///   variables are bound by binders enclosing the binding, hence the
///   site, and every activation sees the same values.
///
/// Anything subtler (the operator is a projection, a conditional, a
/// re-bound variable…) is skipped: flow evidence alone cannot justify
/// moving the body when closures cross activations.
pub fn inline_once<'o>(
    program: &Program,
    engine: &QueryEngine,
    cfa: impl Fn() -> &'o Cfa0,
    budget: usize,
) -> PassPlan {
    let mut out = PassPlan::default();
    let ev = evidence::called_once_evidence(program, &CalledOnce::run(program, engine));
    if ev.is_empty() {
        return out;
    }
    // binder -> (binding node, bound abstraction), for the Var case.
    let mut binding_of: HashMap<usize, (ExprId, ExprId)> = HashMap::new();
    for e in program.exprs() {
        match program.kind(e) {
            ExprKind::Let { binder, rhs, .. }
                if matches!(program.kind(*rhs), ExprKind::Lam { .. }) =>
            {
                binding_of.insert(binder.index(), (e, *rhs));
            }
            ExprKind::LetRec { binder, lambda, .. } => {
                binding_of.insert(binder.index(), (e, *lambda));
            }
            _ => {}
        }
    }
    for (label, site) in ev {
        let ExprKind::App { func, .. } = program.kind(site) else {
            continue;
        };
        let lam = program.lam_of_label(label);
        if out.plan.rewrites() >= budget {
            out.skip(site, SkipReason::Budget);
            continue;
        }
        match program.kind(*func) {
            ExprKind::Lam {
                label: operator, ..
            } if *operator == label => {
                if cfa().call_targets(program, site) == Some(vec![label]) {
                    out.plan.insert(site, Action::InlineRedex);
                } else {
                    out.skip(site, SkipReason::OracleDisputed);
                }
            }
            ExprKind::Var(v) => match binding_of.get(&v.index()) {
                Some(&(binding, bound)) if bound == lam => {
                    if engine.occurrence_count(*v) != 1 {
                        out.skip(site, SkipReason::MultipleUses);
                    } else if cfa().labels(program, *func) != vec![label] {
                        out.skip(site, SkipReason::OracleDisputed);
                    } else if out.plan.insert(site, Action::InlineBound { lam }) {
                        out.plan.insert(binding, Action::DropBinding);
                    }
                }
                _ => out.skip(site, SkipReason::NotDirectOperator),
            },
            _ => out.skip(site, SkipReason::NotDirectOperator),
        }
    }
    out
}

/// Plans useless-parameter pruning (`STCFA004` evidence). An argument is
/// replaced with `()` only when
///
/// - every abstraction in the engine's target set for the site has an
///   unused parameter, and the cubic oracle's (never larger under ≈₁,
///   but independent under `Forget`) target set agrees — so the value
///   provably flows only into parameters nobody reads; and
/// - the argument is a value form (variable, literal, abstraction), so
///   evaluating `()` in its place cannot lose effects, input/output, or
///   divergence; and
/// - the argument is not already `()` (otherwise the pass would claim
///   progress forever).
pub fn prune_params<'o>(
    program: &Program,
    engine: &QueryEngine,
    cfa: impl Fn() -> &'o Cfa0,
    budget: usize,
) -> PassPlan {
    let mut out = PassPlan::default();
    let useless = evidence::useless_param_evidence(program, engine);
    if useless.is_empty() {
        return out;
    }
    let useless_label = |l: &Label| {
        let lam = program.lam_of_label(*l);
        useless.iter().any(|&(e, _)| e == lam)
    };
    for app in program.app_sites() {
        let ExprKind::App { func, arg } = program.kind(app) else {
            unreachable!("app site")
        };
        let targets = engine.labels_of(*func);
        if targets.is_empty() || !targets.iter().all(useless_label) {
            continue; // not evidenced at this site; dead sites are the elision pass's business
        }
        match program.kind(*arg) {
            ExprKind::Lit(Literal::Unit) => out.skip(app, SkipReason::ArgAlreadyUnit),
            ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Lam { .. } => {
                let oracle_agrees = match cfa().call_targets(program, app) {
                    Some(ts) => !ts.is_empty() && ts.iter().all(useless_label),
                    None => false,
                };
                if !oracle_agrees {
                    out.skip(app, SkipReason::OracleDisputed);
                } else if out.plan.rewrites() >= budget {
                    out.skip(app, SkipReason::Budget);
                } else {
                    out.plan.insert(app, Action::UnitArg);
                }
            }
            _ => out.skip(app, SkipReason::ArgNotValue),
        }
    }
    out
}

/// Collects the report-only direct-call facts: applications whose engine
/// target set is a singleton the cubic oracle agrees on. No rewrite —
/// this is the classic CFA client (turning indirect calls direct) as
/// metadata a code generator could consume.
pub fn direct_calls<'o>(
    program: &Program,
    engine: &QueryEngine,
    cfa: impl Fn() -> &'o Cfa0,
) -> Vec<crate::report::DirectCall> {
    engine
        .singleton_call_targets(program)
        .into_iter()
        .filter(|&(app, target)| cfa().call_targets(program, app) == Some(vec![target]))
        .map(|(app, target)| crate::report::DirectCall { app, target })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_core::{Analysis, AnalysisOptions, DatatypePolicy};

    fn setup(src: &str) -> (Program, QueryEngine, Cfa0) {
        let p = Program::parse(src).expect("parses");
        let a = Analysis::run(&p).expect("analyzes");
        let e = QueryEngine::freeze(&a);
        let cfa = Cfa0::analyze(&p);
        (p, e, cfa)
    }

    fn unforced() -> &'static Cfa0 {
        panic!("the planner forced the cubic oracle")
    }

    fn unbuilt() -> LiveCfa0 {
        panic!("the planner built the liveness analysis")
    }

    #[test]
    fn reachable_flow_dead_app_is_not_elided() {
        let (p, e, cfa) = setup("let val f = #1 (1, 2) in f 3 end");
        let pp = dead_apps(&p, &e, || &cfa, || LiveCfa0::analyze(&p), usize::MAX);
        assert!(pp.plan.is_empty());
        assert_eq!(pp.skipped.len(), 1);
        assert_eq!(pp.skipped[0].reason, SkipReason::MayEvaluate);
    }

    #[test]
    fn unreachable_flow_dead_app_is_planned() {
        let (p, e, cfa) = setup("let val dead = fn d => (#1 (1, 2)) 3 in 42 end");
        let pp = dead_apps(&p, &e, || &cfa, || LiveCfa0::analyze(&p), usize::MAX);
        assert_eq!(pp.plan.rewrites(), 1);
        assert!(pp.skipped.is_empty());
    }

    #[test]
    fn rebound_operator_is_not_inlined() {
        let (p, e, _) = setup("let val f = fn x => x in let val g = f in g 1 end end");
        let pp = inline_once(&p, &e, unforced, usize::MAX);
        assert!(pp.plan.is_empty());
        assert!(pp
            .skipped
            .iter()
            .any(|s| s.reason == SkipReason::NotDirectOperator));
    }

    #[test]
    fn escaping_function_is_not_inlined() {
        // `f` is called once but also escapes into the record, so the
        // binding cannot be dropped.
        let (p, e, _) = setup("let val f = fn x => x in (f, f 1) end");
        let pp = inline_once(&p, &e, unforced, usize::MAX);
        assert!(pp.plan.is_empty());
        assert!(pp
            .skipped
            .iter()
            .any(|s| s.reason == SkipReason::MultipleUses));
    }

    #[test]
    fn budget_limits_planned_rewrites() {
        let (p, e, cfa) = setup("fun konst a b = a; konst 1 2");
        let pp = prune_params(&p, &e, || &cfa, 0);
        assert!(pp.plan.is_empty());
        assert!(pp.skipped.iter().any(|s| s.reason == SkipReason::Budget));
    }

    #[test]
    fn effectful_argument_is_not_pruned() {
        let (p, e, _) = setup("fun konst a b = a; konst 1 (print 9)");
        let pp = prune_params(&p, &e, unforced, usize::MAX);
        assert!(pp.plan.is_empty());
        assert!(pp
            .skipped
            .iter()
            .any(|s| s.reason == SkipReason::ArgNotValue));
    }

    #[test]
    fn direct_calls_are_confirmed_singletons() {
        let (p, e, cfa) = setup("fun id x = x; val a = id 1; val b = id 2; b");
        let facts = direct_calls(&p, &e, || &cfa);
        assert_eq!(facts.len(), 2);
    }

    #[test]
    fn planners_without_candidates_run_no_cubic_analysis() {
        // Every site calls one of two targets, both of which read their
        // parameter: no pass has a candidate here.
        let (p, e, _) = setup(
            "let val f = if true then fn x => x + 1 else fn y => y * 2 \
             in (f 1) + (f 2) end",
        );
        for pp in [
            dead_apps(&p, &e, unforced, unbuilt, usize::MAX),
            inline_once(&p, &e, unforced, usize::MAX),
            prune_params(&p, &e, unforced, usize::MAX),
        ] {
            assert!(pp.plan.is_empty() && pp.skipped.is_empty(), "{pp:?}");
        }
        assert!(direct_calls(&p, &e, unforced).is_empty());
    }

    #[test]
    fn disputed_flow_dead_candidates_build_no_liveness() {
        // Under `Forget` the case binder stands for every abstraction, so
        // the engine finds nothing under `#1 r`; the cubic oracle sees the
        // stored function and disputes the candidate.
        let p = Program::parse(
            "datatype box = B of ((int -> int) * int); \
             case B((fn y => y, 1)) of B(r) => (#1 r) 3",
        )
        .expect("parses");
        let options = AnalysisOptions {
            policy: DatatypePolicy::Forget,
            max_nodes: None,
        };
        let e = QueryEngine::freeze(&Analysis::run_with(&p, options).expect("analyzes"));
        let cfa = Cfa0::analyze(&p);
        let pp = dead_apps(&p, &e, || &cfa, unbuilt, usize::MAX);
        assert!(pp.plan.is_empty());
        assert!(!pp.skipped.is_empty());
        assert!(pp
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::OracleDisputed));
    }
}
