//! Linear-time subtransitive control-flow analysis — the primary
//! contribution of Heintze & McAllester, *Linear-time Subtransitive Control
//! Flow Analysis* (PLDI 1997).
//!
//! The standard (inclusion-based, monovariant) CFA algorithm runs in
//! `O(n³)` because it intertwines transitive closure with the discovery of
//! new flow edges. This crate implements the paper's decoupling: a **build
//! phase** adds `O(n)` basic edges over program nodes extended with
//! `dom(·)`/`ran(·)` (and `proj_j(·)`, de-constructor) operator nodes, and a
//! demand-driven **close phase** applies the primed closure rules. For
//! bounded-type programs the resulting graph has `O(k·n)` nodes and edges,
//! and its *transitive closure* is exactly standard CFA — so:
//!
//! - `l ∈ L(e)`?, `L(e)`, and `{e : l ∈ L(e)}` are all single graph
//!   reachabilities (`O(n)`);
//! - listing all label sets is `O(n²)` (optimal — that is the output size);
//! - CFA-consuming applications (see `stcfa-apps`) run directly on the
//!   graph in linear time.
//!
//! # Quickstart
//!
//! ```
//! use stcfa_lambda::Program;
//! use stcfa_core::Analysis;
//!
//! let p = Program::parse("(fn x => x x) (fn y => y)").unwrap();
//! let analysis = Analysis::run(&p).unwrap();
//! let labels = analysis.labels_of(p.root());
//! assert_eq!(labels.len(), 1); // only λy.y can be the program's value
//! ```
//!
//! # Datatypes
//!
//! Recursive datatypes make the exact node space unbounded (the problem is
//! 2-NPDA-hard, per the paper's Section 6); choose a
//! [`DatatypePolicy`]: `Forget`, the linear congruence ≈₁ (default), the
//! finer congruence ≈₂, or `Exact` under a node budget.
//!
//! # Termination
//!
//! Types are never consulted, but they bound the construction: on programs
//! without simple types the close phase can diverge, so every run carries a
//! node budget and reports [`AnalysisError::BudgetExceeded`] instead of
//! hanging. [`hybrid::HybridCfa`] falls back to the cubic algorithm in that
//! case, giving the conclusion's "linear on bounded-type programs,
//! terminating on all programs" combination.

#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod expand;
pub mod graph;
pub mod hybrid;
pub mod incremental;
pub mod node;
pub mod polyvariance;
pub mod queryeng;

pub use analysis::{Analysis, AnalysisError, AnalysisOptions, AnalysisStats};
pub use incremental::{SessionSnapshot, StaleSnapshot};
pub use node::{DatatypePolicy, NodeId, NodeKind, NodeTable};
pub use polyvariance::{PolyAnalysis, PolyOptions};
pub use queryeng::{EngineParts, EnginePartsRef, QueryEngine, QueryStats};
