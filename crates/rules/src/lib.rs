//! A Datalog-flavoured rule layer over the frozen subtransitive engine.
//!
//! The subtransitive analyses — what the query engine, the lints, and
//! the protocol all compute — are relational at heart: label sets are a
//! reachability relation, lints are joins with negation over it, and
//! the linear-time guarantee comes from never materializing the
//! transitive closure. This crate states the shipped rule analyses as
//! Datalog and answers them off the engine. It has four parts:
//!
//! - [`program`] — a typed Rust builder DSL (no parser) for relation
//!   declarations and Horn clauses. Registration is the type checker:
//!   arity, per-column domains, left-to-right boundness, and stratified
//!   negation are all rejected with a [`program::RuleError`] before
//!   anything evaluates.
//! - [`edb`] — the extensional database: the nine input relations the
//!   shipped programs read, each a zero-copy view over structures the
//!   engine already owns (CSR edges, label origins, the effects
//!   colouring, the call graph).
//! - [`eval`] — a semi-naive worklist evaluator with bitset stores and
//!   stratified negation. It is the oracle: tests and benches evaluate
//!   the shipped programs with it, and no production path does.
//! - [`analyses`] — the shipped programs and their production functions:
//!   taint-style source→sink reachability and STCFA007's mixed-purity
//!   candidates, each read off the engine's label rows, and the
//!   call-graph dominator relation behind STCFA008's dominated-redundant
//!   analysis, computed as the call graph's dominator tree
//!   ([`stcfa_graph::DomTree`]). Each program is what
//!   `lint --explain` prints (STCFA007/008) and what its function is
//!   tested against.
//!
//! [`rule_answer`] renders the dominator and taint answers as the one
//! JSON object that `stcfa rule` prints and the daemon's `rule` op
//! returns.
//!
//! ```
//! use stcfa_core::{Analysis, QueryEngine};
//! use stcfa_lambda::Program;
//! use stcfa_rules::edb::ExtDb;
//!
//! let p = Program::parse("fun pick b = if b then (fn x => print x) else (fn y => y); (pick true) 5")
//!     .unwrap();
//! let a = Analysis::run(&p).unwrap();
//! let engine = QueryEngine::freeze(&a);
//! let db = ExtDb::new(&p, &a, &engine);
//! let mixed = stcfa_rules::analyses::mixed_purity(&db);
//! assert_eq!(mixed.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod analyses;
pub mod edb;
pub mod eval;
pub mod program;

pub use analyses::{
    dominated_redundant, dominators, expr_is_tainted, mixed_purity, rule_answer, tainted_exprs,
    DomRelation, DominatedRedundant, RuleQuery,
};
pub use edb::{edb_catalog, edb_schema, ExtDb};
pub use eval::{EvalStats, Evaluator};
pub use program::{
    cst, head, neg, neq, pos, var, Dom, Head, Lit, RelId, RuleError, RuleProgram, Term, WILD,
};
