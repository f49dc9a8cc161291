//! The flow-powered rules.
//!
//! Every rule consumes the frozen [`QueryEngine`] snapshot — one summary
//! sweep shared across all rules — instead of re-running a BFS per
//! question. The only non-linear work is the cubic-CFA cross-check for
//! `STCFA001`, and it runs lazily: only when at least one flow-dead
//! candidate exists, and only to *suppress* findings the oracle disputes
//! (so the rule stays sound even under under-approximating analysis
//! policies such as `Forget`).

use std::cell::OnceCell;

use stcfa_apps::called_once::{CallSites, CalledOnce};
use stcfa_cfa0::Cfa0;
use stcfa_core::{Analysis, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};
use stcfa_precision::SuspicionIndex;
use stcfa_rules::{dominated_redundant, mixed_purity, ExtDb};

use crate::diag::{Diagnostic, RuleCode};
use crate::evidence;

/// Knobs for one lint run. It has none today.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Unread: engine batches run on the calling thread. Kept only
    /// because the repository benchmark (`benchmark/`) builds this
    /// struct literally; it goes with the next change to the benchmark
    /// (ROADMAP item 7).
    #[deprecated(note = "unread: engine batches run on the calling thread")]
    pub threads: usize,
}

/// A short source location for cross-references inside messages.
fn place(program: &Program, e: ExprId) -> String {
    match program.span(e) {
        Some(s) => format!("{}:{}", s.start.line, s.start.col),
        None => format!("occurrence {}", e.index()),
    }
}

/// Runs every rule and returns the diagnostics sorted by occurrence id,
/// then rule code — deterministic for a given program.
///
/// `engine` must be frozen from `analysis` (the effects colouring walks
/// the analysis graph directly; everything else goes through the
/// snapshot). The degradation detector's index is built here from that
/// matched pair; a caller holding an engine whose node table did *not*
/// come from `analysis` — a disk-warmed linked snapshot rebuilds its
/// analysis from the replayed program, which does not reproduce the
/// incrementally linked node table — must use [`lint_with_suspicion`]
/// and supply the index that was persisted alongside the engine.
pub fn lint(
    program: &Program,
    analysis: &Analysis,
    engine: &QueryEngine,
    opts: &LintOptions,
) -> Vec<Diagnostic> {
    let suspicion = SuspicionIndex::build(analysis, engine);
    lint_with_suspicion(program, analysis, engine, &suspicion, opts)
}

/// [`lint`] with a caller-supplied detector index. `suspicion` must
/// score `engine`'s condensation (same `comp_count`); `analysis` is
/// consulted only for program-keyed facts (the effects colouring), so
/// it may be a rebuild that does not share `engine`'s node table.
pub fn lint_with_suspicion(
    program: &Program,
    analysis: &Analysis,
    engine: &QueryEngine,
    suspicion: &SuspicionIndex,
    _opts: &LintOptions,
) -> Vec<Diagnostic> {
    engine.prepare();
    let mut out: Vec<Diagnostic> = Vec::new();

    // --- STCFA001 / STCFA006: applications whose operator has an empty
    // label set, split by the shared evidence module (one positional
    // batch, so order is stable).
    let apps = evidence::app_evidence(program, engine);
    for app in apps.stuck {
        out.push(Diagnostic::at(
            RuleCode::StuckApplication,
            app,
            program,
            "stuck application: the operator is a non-function value".to_string(),
        ));
    }
    // Cross-check candidates against the cubic CFA before reporting (see
    // `evidence::confirm_flow_dead` for the soundness argument). The
    // oracle is shared lazily with STCFA007/008 below: at most one cubic
    // run per lint invocation, and none when no rule needs it.
    let cfa_cell: OnceCell<Cfa0> = OnceCell::new();
    if !apps.flow_dead.is_empty() {
        let cfa = cfa_cell.get_or_init(|| Cfa0::analyze(program));
        for c in evidence::confirm_flow_dead(program, cfa, &apps.flow_dead) {
            out.push(Diagnostic::at(
                RuleCode::FlowDeadApplication,
                c.app,
                program,
                "flow-dead application: no abstraction flows to the operator".to_string(),
            ));
        }
    }

    // --- STCFA002 / STCFA003: call-site counts per abstraction, via the
    // engine-backed called-once analysis. Labels that flow to the program
    // result escape to the consumer, so "never invoked" does not apply.
    // STCFA002 is proven when the whole snapshot is suspicion-free: the
    // engine then equals the exact analysis, so absence of call sites is
    // exact absence (under `Forget` the engine can also *cut* flow, so
    // engine-absence alone does not prove anything).
    let sites = CalledOnce::via_engine(program, engine);
    let escaping = engine.labels_of(program.root());
    for l in program.all_labels() {
        // Lambdas introduced by desugaring (`$…` parameters) are not the
        // user's code; neither rule should point at them.
        if evidence::is_machinery(program, program.lam_of_label(l)) {
            continue;
        }
        if matches!(sites.of(l), CallSites::None) && escaping.binary_search(&l).is_err() {
            let d = Diagnostic::at(
                RuleCode::NeverInvokedAbstraction,
                program.lam_of_label(l),
                program,
                format!("abstraction {} is never invoked", program.label_name(l)),
            );
            out.push(if suspicion.all_exact() { d.proven() } else { d });
        }
    }
    for (l, site) in evidence::called_once_evidence(program, &sites) {
        let mut d = Diagnostic::at(
            RuleCode::CalledOnceInline,
            program.lam_of_label(l),
            program,
            format!(
                "abstraction {} is called exactly once (at {}); inline candidate",
                program.label_name(l),
                place(program, site)
            ),
        );
        // "Exactly once" is exact when the one site's operator set is
        // certified: the site then really invokes `l` (not a congruence
        // artifact), and over-approximation already rules out unseen
        // extra sites.
        if let ExprKind::App { func, .. } = program.kind(site) {
            if suspicion.of_expr(engine, *func) == 0 {
                d = d.proven();
            }
        }
        out.push(d);
    }

    // --- STCFA004: parameters with no occurrence, exemptions applied by
    // the shared evidence module.
    for (lam, param) in evidence::useless_param_evidence(program, engine) {
        out.push(Diagnostic::at(
            RuleCode::UselessParameter,
            lam,
            program,
            format!("parameter `{}` is never used", program.var_name(param)),
        ));
    }

    // --- STCFA005: effectful closures escaping to the program result.
    // The linear colouring needs the analysis graph itself; the rule
    // database computes it once for this rule and STCFA007. Proven when
    // the program result's cone is suspicion-free: "escapes" was read
    // off `L(root)`, and a certified-exact root set cannot carry a
    // spurious label.
    let db = ExtDb::new(program, analysis, engine);
    let root_exact = suspicion.of_expr(engine, program.root()) == 0;
    for &l in &escaping {
        if db.label_is_effectful(l) {
            let d = Diagnostic::at(
                RuleCode::EscapingEffectfulClosure,
                program.lam_of_label(l),
                program,
                format!(
                    "effectful closure {} escapes to the program result",
                    program.label_name(l)
                ),
            );
            out.push(if root_exact { d.proven() } else { d });
        }
    }

    // --- STCFA007 / STCFA008: the rule-engine analyses. Both fire from
    // the linear rule evaluation and are confirmed against the cubic CFA
    // oracle before reporting, exactly like STCFA001: over-approximated
    // label sets may merge an effectful and a pure abstraction (007) or
    // are still singletons under the exact analysis (008) only when the
    // oracle agrees.
    let mixed = mixed_purity(&db);
    if !mixed.is_empty() {
        let eff_of = |l: Label| db.label_is_effectful(l);
        let cfa = cfa_cell.get_or_init(|| Cfa0::analyze(program));
        for (app, func) in mixed {
            let exact = cfa.labels(program, func);
            if !exact.iter().any(|&l| eff_of(l)) || !exact.iter().any(|&l| !eff_of(l)) {
                continue;
            }
            let approx = engine.labels_of(func);
            let effectful = approx.iter().copied().find(|&l| eff_of(l));
            let pure = approx.iter().copied().find(|&l| !eff_of(l));
            let (Some(e), Some(p)) = (effectful, pure) else {
                continue;
            };
            out.push(Diagnostic::at(
                RuleCode::TaintedEffectfulFlow,
                app,
                program,
                format!(
                    "mixed-purity call: the operator may invoke effectful {} or pure {}",
                    program.label_name(e),
                    program.label_name(p)
                ),
            ));
        }
    }
    let redundant = dominated_redundant(&db);
    if !redundant.is_empty() {
        let cfa = cfa_cell.get_or_init(|| Cfa0::analyze(program));
        for r in redundant {
            // Desugaring machinery is not the user's code; skip it,
            // matching STCFA002/003.
            if evidence::is_machinery(program, program.lam_of_label(r.target)) {
                continue;
            }
            let exact = cfa.labels(program, r.func);
            if exact.is_empty() || exact.iter().any(|&l| l != r.target) {
                continue;
            }
            out.push(Diagnostic::at(
                RuleCode::DominatedRedundantApplication,
                r.app,
                program,
                format!(
                    "dominated-redundant application: every call path already applies {} at {}",
                    program.label_name(r.target),
                    place(program, r.by_app)
                ),
            ));
        }
    }

    out.sort_by_key(|d| (d.expr.index(), d.code));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn lint_src(src: &str) -> (Program, Vec<Diagnostic>) {
        let p = Program::parse(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"));
        let a = Analysis::run(&p).expect("analysis");
        let engine = QueryEngine::freeze(&a);
        let diags = lint(&p, &a, &engine, &LintOptions::default());
        (p, diags)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_program_is_quiet() {
        let (_, d) = lint_src("fun double x = x + x; double 21");
        assert!(
            d.iter().all(|x| x.code == RuleCode::CalledOnceInline),
            "unexpected diagnostics: {d:?}"
        );
    }

    #[test]
    fn flow_dead_application_fires() {
        // `f` is a tuple field holding an int, so no abstraction ever
        // flows to the operator of `f 3`.
        let (_, d) = lint_src(
            "let val box = (1, 2) in\n\
             let val f = #1 box in f 3 end end",
        );
        assert!(codes(&d).contains(&"STCFA001"), "got {d:?}");
        let diag = d
            .iter()
            .find(|x| x.code == RuleCode::FlowDeadApplication)
            .unwrap();
        assert_eq!(diag.severity, Severity::Warning);
        assert!(diag.span.is_some(), "parsed programs carry spans");
    }

    #[test]
    fn stuck_application_takes_precedence() {
        let (_, d) = lint_src("let val r = (1, 2) in r 3 end");
        // The operator is a variable bound to a record — flow-dead, not
        // structurally stuck.
        assert!(codes(&d).contains(&"STCFA001"), "got {d:?}");
        // A structurally-stuck operator reports STCFA006 instead.
        let (_, d) = lint_src("(1, 2) 3");
        assert!(codes(&d).contains(&"STCFA006"), "got {d:?}");
        assert!(
            !codes(&d).contains(&"STCFA001"),
            "006 suppresses 001 at the same site: {d:?}"
        );
        let stuck = d
            .iter()
            .find(|x| x.code == RuleCode::StuckApplication)
            .unwrap();
        assert_eq!(stuck.severity, Severity::Error);
    }

    #[test]
    fn never_invoked_abstraction_fires() {
        let (_, d) = lint_src("fun ghost x = x; 1 + 2");
        assert!(codes(&d).contains(&"STCFA002"), "got {d:?}");
    }

    #[test]
    fn escaping_lambda_is_not_never_invoked() {
        // The lambda is the program result: its caller is outside the
        // program, so STCFA002 stays quiet.
        let (_, d) = lint_src("fn x => x + 1");
        assert!(!codes(&d).contains(&"STCFA002"), "got {d:?}");
    }

    #[test]
    fn called_once_inline_candidate_fires() {
        let (p, d) = lint_src("fun once x = x + 1; once 5");
        let inline = d
            .iter()
            .find(|x| x.code == RuleCode::CalledOnceInline)
            .expect("STCFA003");
        assert_eq!(inline.severity, Severity::Info);
        assert!(matches!(p.kind(inline.expr), ExprKind::Lam { .. }));
        assert!(inline.message.contains("exactly once"));
    }

    #[test]
    fn useless_parameter_fires_and_underscore_is_exempt() {
        let (_, d) = lint_src("fun konst a b = a; konst 1 2");
        assert!(codes(&d).contains(&"STCFA004"), "got {d:?}");
        let (_, d) = lint_src("fun konst a _b = a; konst 1 2");
        assert!(!codes(&d).contains(&"STCFA004"), "got {d:?}");
    }

    #[test]
    fn escaping_effectful_closure_fires() {
        let (_, d) = lint_src("fn x => print x");
        assert!(codes(&d).contains(&"STCFA005"), "got {d:?}");
        // A pure escaping closure stays quiet.
        let (_, d) = lint_src("fn x => x + 1");
        assert!(!codes(&d).contains(&"STCFA005"), "got {d:?}");
    }

    #[test]
    fn mixed_purity_call_fires() {
        let (_, d) =
            lint_src("fun pick b = if b then (fn x => print x) else (fn y => y); (pick true) 5");
        let mixed = d
            .iter()
            .find(|x| x.code == RuleCode::TaintedEffectfulFlow)
            .unwrap_or_else(|| panic!("STCFA007 in {d:?}"));
        assert_eq!(mixed.severity, Severity::Warning);
        assert!(mixed.message.contains("effectful"), "{}", mixed.message);
        assert!(mixed.message.contains("pure"), "{}", mixed.message);
        // Single-purity operators stay quiet.
        let (_, d) = lint_src("fun pr x = print x; pr 1");
        assert!(!codes(&d).contains(&"STCFA007"), "got {d:?}");
    }

    #[test]
    fn dominated_redundant_application_fires() {
        let (_, d) = lint_src("fun f x = x; fun g y = f y; val a = f 1; g 2");
        let dup = d
            .iter()
            .find(|x| x.code == RuleCode::DominatedRedundantApplication)
            .unwrap_or_else(|| panic!("STCFA008 in {d:?}"));
        assert_eq!(dup.severity, Severity::Info);
        assert!(dup.message.contains("already applies"), "{}", dup.message);
        // Sibling calls in one encloser do not dominate each other.
        let (_, d) = lint_src("fun f x = x; val a = f 1; val b = f 2; b");
        assert!(!codes(&d).contains(&"STCFA008"), "got {d:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_thread_stable() {
        let src = "fun ghost x = x;\n\
                   fun konst a b = a;\n\
                   let val r = (1, 2) in\n\
                   let val f = #1 r in (konst 1 2) + (konst 3 4) + f 9 end end";
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).expect("analysis");
        let engine = QueryEngine::freeze(&a);
        let base = lint(&p, &a, &engine, &LintOptions::default());
        let mut sorted = base.clone();
        sorted.sort_by_key(|x| (x.expr.index(), x.code));
        assert_eq!(base, sorted, "output must be input-ordered");
    }
}
