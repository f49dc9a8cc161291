//! Flow-powered lint engine: CFA-backed source diagnostics over the
//! subtransitive graph.
//!
//! Section 8 of Heintze & McAllester (PLDI 1997) argues that the payoff of
//! the subtransitive graph is that CFA-*consuming* analyses run in linear
//! time directly on the graph. This crate turns those analyses into a
//! user-facing diagnostics product: a set of rules with stable codes
//! (`STCFA001`–`STCFA008`), severities, and source spans, all answered
//! through a frozen [`QueryEngine`](stcfa_core::QueryEngine) snapshot —
//! no per-rule BFS, no materialized quadratic closure.
//!
//! # Rules
//!
//! | code | severity | rule |
//! |------|----------|------|
//! | `STCFA001` | warning | flow-dead application (no abstraction reaches the operator; cross-checked against cubic CFA) |
//! | `STCFA002` | warning | never-invoked abstraction (no call site anywhere; result-escaping lambdas exempt) |
//! | `STCFA003` | info    | called exactly once — inline candidate |
//! | `STCFA004` | warning | useless parameter (bound variable has no occurrence) |
//! | `STCFA005` | warning | effectful closure escapes to the program result |
//! | `STCFA006` | error   | stuck application (the operator is structurally a non-function value) |
//! | `STCFA007` | warning | mixed-purity call (both an effectful and a pure abstraction reach the operator; oracle-confirmed) |
//! | `STCFA008` | info    | dominated-redundant application (another call of the same sole target dominates this one) |
//!
//! Output is deterministic and input-ordered: diagnostics are sorted by
//! occurrence id then rule code, and every engine query is answered
//! positionally on the calling thread.
//!
//! `STCFA007/008` come from the [`stcfa_rules`] layer, which answers
//! them off the engine and specifies each by a declarative rule
//! program; [`explain`](explain()) prints that program, and the
//! definition behind every other code.
//!
//! # Example
//!
//! ```
//! use stcfa_core::{Analysis, QueryEngine};
//! use stcfa_lambda::Program;
//! use stcfa_lint::{lint, LintOptions};
//!
//! let p = Program::parse("fun unused x = x; 1 + 2").expect("parses");
//! let a = Analysis::run(&p).expect("analyzes");
//! let engine = QueryEngine::freeze(&a);
//! let diags = lint(&p, &a, &engine, &LintOptions::default());
//! assert!(diags.iter().any(|d| d.code.as_str() == "STCFA002"));
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod evidence;
pub mod explain;
pub mod render;
pub mod rules;

pub use diag::Confidence;
pub use diag::{Diagnostic, RuleCode, Severity};
pub use explain::explain;
pub use render::{render_json, render_text};
pub use rules::{lint, lint_with_suspicion, LintOptions};
