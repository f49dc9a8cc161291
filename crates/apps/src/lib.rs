//! Linear-time CFA-consuming applications (paper, Sections 8–9 and the
//! abstract).
//!
//! The paper's thesis is that the "all calls from all call sites" view of
//! CFA is the wrong interface: consumers should run directly on the
//! subtransitive graph, never materializing the quadratic table. This
//! crate implements the paper's three consumers plus the call graph the
//! rule layer's dominators read:
//!
//! - [`mod@effects`] — which expressions may have side effects (Section 8), by
//!   graph colouring; with a quadratic reference implementation for
//!   differential testing.
//! - [`klimited`] — per-call-site function sets cut off at `k` with a
//!   "many" token (Section 9).
//! - [`called_once`] — functions called from exactly one call site
//!   (abstract, third bullet).
//! - [`callgraph`] — per-function call-graph construction (reachability,
//!   recursion detection, each expression's enclosing abstraction).
//!
//! The optimization these analyses motivate — called-once inlining and
//! dead-code removal — is the `stcfa-opt` pipeline.
//!
//! ```
//! use stcfa_lambda::Program;
//! use stcfa_core::Analysis;
//! use stcfa_apps::effects::effects;
//!
//! let p = Program::parse("(fn x => print x) 3").unwrap();
//! let a = Analysis::run(&p).unwrap();
//! assert!(effects(&p, &a).is_effectful(p.root()));
//! ```

#![warn(missing_docs)]

pub mod called_once;
pub mod callgraph;
pub mod effects;
pub mod klimited;

pub use called_once::{CallSites, CalledOnce};
pub use callgraph::CallGraph;
pub use effects::{effects, effects_via_cfa0, Effects};
pub use klimited::{KLimited, KSet};
