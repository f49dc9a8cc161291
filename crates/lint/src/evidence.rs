//! Shared rule evidence: the facts behind the *fixable* rules.
//!
//! `STCFA001` (flow-dead application), `STCFA003` (called exactly once)
//! and `STCFA004` (useless parameter) are consumed twice — once by the
//! lint engine to report findings, and once by the `stcfa-opt` lowering
//! passes to rewrite the program. Both callers go through the functions
//! here, so a finding and the rewrite it licenses can never disagree:
//! the predicate is evaluated exactly once, in one place.
//!
//! All evidence is computed against the frozen [`QueryEngine`] snapshot;
//! the STCFA001 candidates additionally require cubic-CFA confirmation
//! ([`confirm_flow_dead`]) before anything acts on them, exactly as the
//! lint rule does.

use stcfa_apps::called_once::{CallSites, CalledOnce};
use stcfa_cfa0::Cfa0;
use stcfa_core::{Answer, Query, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program, VarId};

/// A candidate application whose operator the engine proves flow-dead,
/// before oracle confirmation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowDeadCandidate {
    /// The application occurrence.
    pub app: ExprId,
    /// Its operator occurrence.
    pub func: ExprId,
}

/// The engine-side split of empty-operator applications: structurally
/// stuck sites (`STCFA006`) versus flow-dead candidates (`STCFA001`,
/// still awaiting oracle confirmation).
#[derive(Clone, Debug, Default)]
pub struct AppEvidence {
    /// Applications whose operator is structurally a non-function value.
    pub stuck: Vec<ExprId>,
    /// Applications with an empty engine label set at the operator and a
    /// non-value operator shape.
    pub flow_dead: Vec<FlowDeadCandidate>,
}

/// Classifies every application site by its engine `call_targets` answer,
/// in site order (one positional batch).
pub fn app_evidence(program: &Program, engine: &QueryEngine) -> AppEvidence {
    let apps = program.app_sites();
    let queries: Vec<Query> = apps
        .iter()
        .map(|&a| Query::call_targets(program, a).expect("app site"))
        .collect();
    let answers = engine.batch(&queries);
    let mut out = AppEvidence::default();
    for (&app, answer) in apps.iter().zip(&answers) {
        let Answer::Labels(labels) = answer else {
            unreachable!("LabelsOf answers Labels")
        };
        if !labels.is_empty() {
            continue;
        }
        let ExprKind::App { func, .. } = program.kind(app) else {
            unreachable!("app site")
        };
        match program.kind(*func) {
            ExprKind::Lit(_) | ExprKind::Record(_) | ExprKind::Con { .. } => out.stuck.push(app),
            _ => out.flow_dead.push(FlowDeadCandidate { app, func: *func }),
        }
    }
    out
}

/// Keeps only the flow-dead candidates the cubic CFA oracle agrees on.
/// Under the default ≈₁ policy the engine over-approximates, so an empty
/// engine set implies an empty exact set — but under `Forget` it does
/// not, and this confirmation keeps both the lint rule and the dead-app
/// elision pass sound everywhere.
pub fn confirm_flow_dead(
    program: &Program,
    cfa: &Cfa0,
    candidates: &[FlowDeadCandidate],
) -> Vec<FlowDeadCandidate> {
    candidates
        .iter()
        .copied()
        .filter(|c| cfa.labels(program, c.func).is_empty())
        .collect()
}

/// Whether the abstraction at `lam` is desugaring machinery (a `$…`
/// parameter): not the user's code, exempt from user-facing rules and
/// from rewrites alike.
pub fn is_machinery(program: &Program, lam: ExprId) -> bool {
    match program.kind(lam) {
        ExprKind::Lam { param, .. } => program.var_name(*param).starts_with('$'),
        _ => false,
    }
}

/// The `STCFA003` evidence: every non-machinery abstraction that
/// `sites` (the engine-backed [`CalledOnce::via_engine`] count) proves
/// invoked from exactly one call site, with that site. Sorted by label
/// index (the program's label order).
pub fn called_once_evidence(program: &Program, sites: &CalledOnce) -> Vec<(Label, ExprId)> {
    let mut out = Vec::new();
    for l in program.all_labels() {
        if is_machinery(program, program.lam_of_label(l)) {
            continue;
        }
        if let CallSites::One(site) = sites.of(l) {
            out.push((l, site));
        }
    }
    out
}

/// The `STCFA004` evidence: abstractions whose parameter has no
/// occurrence in the body. Parameters named with a leading `_`
/// (user-declared intent) or `$` (machinery) are exempt, exactly as in
/// the lint rule. Sorted by occurrence id (the `exprs()` order).
pub fn useless_param_evidence(program: &Program, engine: &QueryEngine) -> Vec<(ExprId, VarId)> {
    let mut out = Vec::new();
    for e in program.exprs() {
        if let ExprKind::Lam { param, .. } = program.kind(e) {
            let name = program.var_name(*param);
            if name.starts_with('_') || name.starts_with('$') {
                continue;
            }
            if engine.occurrences_of(*param).next().is_none() {
                out.push((e, *param));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_core::Analysis;

    fn setup(src: &str) -> (Program, QueryEngine) {
        let p = Program::parse(src).expect("parses");
        let a = Analysis::run(&p).expect("analyzes");
        (p, QueryEngine::freeze(&a))
    }

    #[test]
    fn flow_dead_candidates_survive_oracle() {
        let (p, engine) = setup("let val f = #1 (1, 2) in f 3 end");
        let ev = app_evidence(&p, &engine);
        assert_eq!(ev.stuck, Vec::<ExprId>::new());
        assert_eq!(ev.flow_dead.len(), 1);
        let cfa = Cfa0::analyze(&p);
        assert_eq!(confirm_flow_dead(&p, &cfa, &ev.flow_dead).len(), 1);
    }

    #[test]
    fn stuck_sites_are_split_out() {
        let (p, engine) = setup("(1, 2) 3");
        let ev = app_evidence(&p, &engine);
        assert_eq!(ev.stuck.len(), 1);
        assert!(ev.flow_dead.is_empty());
    }

    #[test]
    fn called_once_and_useless_params() {
        let (p, engine) = setup("fun konst a b = a; konst 1 2");
        let sites = CalledOnce::via_engine(&p, &engine);
        assert!(!called_once_evidence(&p, &sites).is_empty());
        let useless = useless_param_evidence(&p, &engine);
        assert_eq!(useless.len(), 1);
        assert_eq!(p.var_name(useless[0].1), "b");
    }

    #[test]
    fn underscore_params_are_exempt() {
        let (p, engine) = setup("fun konst a _b = a; konst 1 2");
        assert!(useless_param_evidence(&p, &engine).is_empty());
    }
}
