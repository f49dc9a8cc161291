//! Pass identifiers, skip bookkeeping, and the per-run [`OptReport`].
//!
//! Every pass invocation records what it *planned*, what it actually
//! *performed* during the rebuild, and every candidate it declined with a
//! machine-readable reason — so a run with zero rewrites still explains
//! itself. The JSON renderer is a pure function of the report, matching
//! the determinism discipline of the lint renderers.

use std::fmt::Write as _;

use stcfa_lambda::{ExprId, Label};

/// One lowering pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Replace oracle-confirmed flow-dead, provably-unevaluated
    /// applications with `()` (acts on `STCFA001` evidence).
    DeadApp,
    /// Beta-reduce applications of functions the engine proves called
    /// exactly once (acts on `STCFA003` evidence).
    InlineOnce,
    /// Replace arguments that flow only into unused parameters with `()`
    /// (acts on `STCFA004` evidence).
    PruneParams,
    /// Report-only: mark applications whose operator has a singleton
    /// target set as direct calls (no rewrite, metadata for a backend).
    DirectCalls,
}

impl Pass {
    /// The stable kebab-case name used on the CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Pass::DeadApp => "dead-app",
            Pass::InlineOnce => "inline-once",
            Pass::PruneParams => "prune-params",
            Pass::DirectCalls => "direct-calls",
        }
    }

    /// Parses a pass name as written on the CLI.
    pub fn from_name(name: &str) -> Option<Pass> {
        Pass::all().into_iter().find(|p| p.name() == name)
    }

    /// All passes, in pipeline order.
    pub fn all() -> [Pass; 4] {
        [
            Pass::DeadApp,
            Pass::InlineOnce,
            Pass::PruneParams,
            Pass::DirectCalls,
        ]
    }
}

/// A set of enabled passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassSet(u8);

impl PassSet {
    /// No passes enabled (the optimizer becomes an expensive identity).
    pub fn empty() -> PassSet {
        PassSet(0)
    }

    /// Every pass enabled — the default pipeline.
    pub fn all() -> PassSet {
        Pass::all()
            .into_iter()
            .fold(PassSet::empty(), PassSet::with)
    }

    /// Exactly one pass enabled.
    pub fn only(pass: Pass) -> PassSet {
        PassSet::empty().with(pass)
    }

    /// This set plus `pass`.
    pub fn with(self, pass: Pass) -> PassSet {
        PassSet(self.0 | 1 << pass as u8)
    }

    /// This set minus `pass`.
    pub fn without(self, pass: Pass) -> PassSet {
        PassSet(self.0 & !(1 << pass as u8))
    }

    /// Whether `pass` is enabled.
    pub fn contains(self, pass: Pass) -> bool {
        self.0 & 1 << pass as u8 != 0
    }
}

impl Default for PassSet {
    fn default() -> Self {
        PassSet::all()
    }
}

/// Why a candidate rewrite was declined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// Dead-app: the reachability analysis cannot prove the site is never
    /// evaluated, so deleting it could suppress a runtime error or a
    /// divergence.
    MayEvaluate,
    /// The cubic CFA oracle does not confirm the engine's evidence.
    OracleDisputed,
    /// Inline: the operator is neither the abstraction itself nor a
    /// variable bound directly to it by an enclosing `let`/`letrec`.
    NotDirectOperator,
    /// Inline: the bound variable occurs elsewhere too, so the binding
    /// cannot be dropped and inlining would duplicate the body.
    MultipleUses,
    /// Prune: the argument is not a value form (variable, literal,
    /// abstraction), so replacing it could drop effects or divergence.
    ArgNotValue,
    /// Prune: the argument is already `()` — nothing to do.
    ArgAlreadyUnit,
    /// The per-pass rewrite budget for this round is exhausted.
    Budget,
    /// The rebuild applying the pass's plan would be taller than the
    /// parser's height limit, so the whole plan was dropped this round.
    HeightLimit,
}

impl SkipReason {
    /// The stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SkipReason::MayEvaluate => "may-evaluate",
            SkipReason::OracleDisputed => "oracle-disputed",
            SkipReason::NotDirectOperator => "not-direct-operator",
            SkipReason::MultipleUses => "multiple-uses",
            SkipReason::ArgNotValue => "arg-not-value",
            SkipReason::ArgAlreadyUnit => "arg-already-unit",
            SkipReason::Budget => "budget-exhausted",
            SkipReason::HeightLimit => "height-limit",
        }
    }
}

/// One declined candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Skip {
    /// The occurrence the rewrite would have touched.
    pub at: ExprId,
    /// Why it was declined.
    pub reason: SkipReason,
}

/// What one pass invocation (one pass in one round) did.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Which pass ran.
    pub pass: Pass,
    /// Which fixpoint round it ran in (1-based).
    pub round: usize,
    /// Rewrites planned from the evidence (an inline counts once, even
    /// though it also drops the binding).
    pub planned: usize,
    /// Rewrites actually performed during the rebuild. Can be smaller
    /// than `planned` when one rewrite subsumes another (a dead
    /// application nested inside a larger dead application).
    pub performed: usize,
    /// Candidates declined, with reasons, in evidence order.
    pub skipped: Vec<Skip>,
}

/// A report-only direct-call fact from the final snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectCall {
    /// The application.
    pub app: ExprId,
    /// The single abstraction that can be called there.
    pub target: Label,
}

/// The full record of one optimizer run.
#[derive(Clone, Debug)]
pub struct OptReport {
    /// Occurrence count of the input program.
    pub nodes_before: usize,
    /// Occurrence count of the optimized program.
    pub nodes_after: usize,
    /// Abstraction count of the input program.
    pub labels_before: usize,
    /// Abstraction count of the optimized program.
    pub labels_after: usize,
    /// Fixpoint rounds executed (a round that performs nothing still
    /// counts — it is the evidence the pipeline converged).
    pub rounds: usize,
    /// One entry per pass invocation, in execution order.
    pub passes: Vec<PassReport>,
    /// Direct-call facts from the final snapshot (empty unless the
    /// `direct-calls` pass is enabled).
    pub direct_calls: Vec<DirectCall>,
}

impl OptReport {
    /// Total rewrites performed across all passes and rounds.
    pub fn performed_total(&self) -> usize {
        self.passes.iter().map(|p| p.performed).sum()
    }

    /// Renders the report as a single JSON object (stable key order),
    /// terminated by a newline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"nodes_before\":{},\"nodes_after\":{},\"labels_before\":{},\"labels_after\":{},\"rounds\":{},\"passes\":[",
            self.nodes_before, self.nodes_after, self.labels_before, self.labels_after, self.rounds
        );
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pass\":\"{}\",\"round\":{},\"planned\":{},\"performed\":{},\"skipped\":[",
                p.pass.name(),
                p.round,
                p.planned,
                p.performed
            );
            for (j, s) in p.skipped.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"at\":{},\"reason\":\"{}\"}}",
                    s.at.index(),
                    s.reason.name()
                );
            }
            out.push_str("]}");
        }
        out.push_str("],\"direct_calls\":[");
        for (i, d) in self.direct_calls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"app\":{},\"target\":{}}}",
                d.app.index(),
                d.target.index()
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Renders a short human-readable summary, one pass invocation per
    /// line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "opt: {} -> {} nodes, {} -> {} abstractions, {} round{}",
            self.nodes_before,
            self.nodes_after,
            self.labels_before,
            self.labels_after,
            self.rounds,
            if self.rounds == 1 { "" } else { "s" }
        );
        for p in &self.passes {
            let _ = writeln!(
                out,
                "  round {} {}: {} performed, {} skipped",
                p.round,
                p.pass.name(),
                p.performed,
                p.skipped.len()
            );
        }
        if !self.direct_calls.is_empty() {
            let _ = writeln!(out, "  direct calls: {}", self.direct_calls.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_names_round_trip() {
        for p in Pass::all() {
            assert_eq!(Pass::from_name(p.name()), Some(p));
        }
        assert_eq!(Pass::from_name("no-such-pass"), None);
    }

    #[test]
    fn pass_set_algebra() {
        let s = PassSet::all();
        for p in Pass::all() {
            assert!(s.contains(p));
            assert!(!s.without(p).contains(p));
            assert!(PassSet::only(p).contains(p));
        }
        assert!(!PassSet::empty().contains(Pass::DeadApp));
    }

    #[test]
    fn json_shape_is_stable() {
        let report = OptReport {
            nodes_before: 10,
            nodes_after: 8,
            labels_before: 2,
            labels_after: 1,
            rounds: 2,
            passes: vec![PassReport {
                pass: Pass::DeadApp,
                round: 1,
                planned: 1,
                performed: 1,
                skipped: vec![Skip {
                    at: ExprId::from_index(7),
                    reason: SkipReason::MayEvaluate,
                }],
            }],
            direct_calls: vec![DirectCall {
                app: ExprId::from_index(3),
                target: Label::from_index(1),
            }],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"nodes_before\":10,\"nodes_after\":8,\"labels_before\":2,\"labels_after\":1,\
             \"rounds\":2,\"passes\":[{\"pass\":\"dead-app\",\"round\":1,\"planned\":1,\
             \"performed\":1,\"skipped\":[{\"at\":7,\"reason\":\"may-evaluate\"}]}],\
             \"direct_calls\":[{\"app\":3,\"target\":1}]}\n"
        );
        assert_eq!(report.performed_total(), 1);
        assert!(report.to_text().contains("round 1 dead-app"));
    }
}
