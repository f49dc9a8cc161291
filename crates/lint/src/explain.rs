//! `stcfa lint --explain CODE`: the definition behind each rule code.
//!
//! Rule-backed codes (STCFA007, STCFA008) print their declarative
//! program from [`stcfa_rules`], rendered in Datalog surface syntax.
//! Neither program is evaluated in production: STCFA007's candidates
//! are read off the engine's label rows and STCFA008's dominator
//! relation is computed as a dominator tree. Each printed program is the
//! specification its production answer is tested against. The other
//! codes are computed by the hand-fused rules in [`crate::rules`] and
//! get prose instead.

use std::fmt::Write as _;

use stcfa_rules::analyses;

use crate::diag::RuleCode;

/// Returns the explanation for `code` (e.g. `"STCFA004"`; matching is
/// case-insensitive), or `None` when the code is unknown.
pub fn explain(code: &str) -> Option<String> {
    let code = RuleCode::all()
        .into_iter()
        .find(|c| c.as_str().eq_ignore_ascii_case(code))?;
    let mut out = String::new();
    let header = |out: &mut String, title: &str| {
        let _ = writeln!(out, "{} ({}): {}", code.as_str(), code.severity(), title);
        out.push('\n');
    };
    match code {
        RuleCode::FlowDeadApplication => {
            header(&mut out, "flow-dead application");
            out.push_str(
                "The subtransitive flow analysis proves that no abstraction label\n\
                 reaches the operator of this application, and the cubic 0-CFA\n\
                 oracle confirms the exact set is empty too. The call can never\n\
                 apply a function; the expression is dead or a bug.\n\n\
                 Not rule-backed: the finding couples the engine's (possibly\n\
                 under-approximating) answer with a lazily-run exact oracle.\n",
            );
        }
        RuleCode::NeverInvokedAbstraction => {
            header(&mut out, "never-invoked abstraction");
            out.push_str(
                "No application in the program can call this abstraction, and it\n\
                 does not escape to the program result (where an outside caller\n\
                 could apply it). Desugaring machinery (`$` parameters) is\n\
                 exempt. Computed from the engine-backed called-once analysis\n\
                 (a per-label site count) and the label set of the program\n\
                 result.\n",
            );
        }
        RuleCode::CalledOnceInline => {
            header(&mut out, "called exactly once");
            out.push_str(
                "Exactly one call site anywhere in the program applies this\n\
                 abstraction, so inlining or specializing it cannot duplicate\n\
                 work. Computed by the engine-backed called-once analysis\n\
                 (a per-label site count, not a rule program).\n",
            );
        }
        RuleCode::UselessParameter => {
            header(&mut out, "useless parameter");
            out.push_str(
                "The bound variable has no occurrence in the body. Names starting\n\
                 with `_` (declared intent) or `$` (desugaring machinery) are\n\
                 exempt. Read off the engine's binder-occurrence index; the\n\
                 optimizer's prune-params pass acts on the same evidence.\n",
            );
        }
        RuleCode::EscapingEffectfulClosure => {
            header(&mut out, "escaping effectful closure");
            out.push_str(
                "An abstraction whose body performs effects flows to the program\n\
                 result, so whether (and how often) those effects run is decided\n\
                 by the consumer. Computed from the label set of the program\n\
                 result and the linear effects colouring (paper, Section 8).\n",
            );
        }
        RuleCode::StuckApplication => {
            header(&mut out, "stuck application");
            out.push_str(
                "The operator is structurally a non-function value — a literal,\n\
                 record, or constructor — so the application cannot evaluate.\n\
                 Purely syntactic; no rule program involved.\n",
            );
        }
        RuleCode::TaintedEffectfulFlow => {
            header(&mut out, "mixed-purity call");
            out.push_str(
                "Both an effectful-bodied and a pure-bodied abstraction flow to\n\
                 the same operator: whether the call performs effects depends on\n\
                 which one arrives at run time. Reported only when the cubic CFA\n\
                 oracle confirms the mix is exact. Candidates are the calls\n\
                 whose operator's label set meets both the effectful and the\n\
                 pure labels, read off the engine; specified by this program\n\
                 (`ereach`/`preach` close the two origin sets over the\n\
                 subtransitive edges):\n\n",
            );
            let _ = write!(out, "{}", analyses::mixed_purity_program().0);
        }
        RuleCode::DominatedRedundantApplication => {
            header(&mut out, "dominated-redundant application");
            out.push_str(
                "This application has a single possible target, and another call\n\
                 site with the same sole target sits in a call-graph node that\n\
                 strictly dominates this one — every path here already applied\n\
                 that abstraction. Built on the call graph's dominator relation,\n\
                 computed as a dominator tree; specified by this program\n\
                 (`nd(n, d)` is \"the entry reaches `n` avoiding `d`\"; `dom` is\n\
                 its negation on reachable nodes):\n\n",
            );
            let _ = write!(out, "{}", analyses::dominators_program().0);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_has_an_explanation() {
        for code in RuleCode::all() {
            let text = explain(code.as_str()).expect("known code");
            assert!(text.starts_with(code.as_str()), "{text}");
            assert!(
                text.contains(code.severity().as_str()),
                "severity missing: {text}"
            );
        }
    }

    #[test]
    fn rule_backed_codes_print_their_programs() {
        for code in RuleCode::all() {
            let text = explain(code.as_str()).unwrap();
            // Only STCFA007/008 are rule programs; the hand-fused rules
            // are explained in prose.
            let rule_backed = matches!(
                code,
                RuleCode::TaintedEffectfulFlow | RuleCode::DominatedRedundantApplication
            );
            assert_eq!(text.contains(":-"), rule_backed, "{text}");
            assert_eq!(text.contains(".edb "), rule_backed, "{text}");
        }
        let dom = explain("STCFA008").unwrap();
        assert!(dom.contains("dom(n, d)"), "{dom}");
    }

    #[test]
    fn matching_is_case_insensitive_and_total() {
        assert!(explain("stcfa004").is_some());
        assert!(explain("STCFA999").is_none());
        assert!(explain("").is_none());
    }
}
