//! Directed-graph substrate for control-flow analyses.
//!
//! The subtransitive control-flow graph of Heintze & McAllester (PLDI 1997)
//! reduces every CFA query to plain graph reachability; this crate provides
//! that machinery: a compact adjacency-list [`DiGraph`], [`BitSet`]s for
//! frontiers and label sets, an SCC decomposition and a (deliberately
//! quadratic) transitive closure for the "all label sets" experiment, a
//! Cooper–Harvey–Kennedy [`DomTree`] (built by [`DiGraph::dominator_tree`]),
//! the [`Worklist`] shared by all fixed-point solvers in the workspace, and —
//! for finished graphs — a frozen [`Csr`] snapshot with its SCC
//! [`Condensation`], the substrate of the frozen query engine in
//! `stcfa-core`.
//!
//! ```
//! use stcfa_graph::DiGraph;
//!
//! let mut g = DiGraph::with_nodes(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! assert!(g.reachable_from(0).contains(2));
//! assert!(!g.reachable_from(2).contains(0));
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod condense;
pub mod csr;
pub mod digraph;
pub mod dominators;
pub mod worklist;

pub use bitset::BitSet;
pub use condense::Condensation;
pub use csr::Csr;
pub use digraph::DiGraph;
pub use dominators::DomTree;
pub use worklist::Worklist;
