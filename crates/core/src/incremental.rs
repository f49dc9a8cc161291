//! Incremental subtransitive analysis over a growing program.
//!
//! The paper remarks that its algorithm is "simple, incremental,
//! demand-driven". This module makes the incrementality concrete: because
//! the subtransitive graph is built by *local* rules (one basic edge per
//! syntax construct, closure rules that only ever add edges), analyzing a
//! program that has **grown** — a REPL session that gained a fragment, a
//! compilation unit added to a library — only requires adding the new
//! nodes' basic edges and resuming the (monotone) close phase. Nothing
//! computed for the old program is revisited; the cost of an update is
//! proportional to the delta, not the program.
//!
//! Works with [`stcfa_lambda::session::SessionProgram`]:
//!
//! ```
//! use stcfa_lambda::session::SessionProgram;
//! use stcfa_core::incremental::IncrementalAnalysis;
//!
//! let mut session = SessionProgram::new();
//! let mut analysis = IncrementalAnalysis::new(Default::default());
//!
//! session.define("fun id x = x;").unwrap();
//! analysis.update(&session).unwrap();
//!
//! let f = session.define("id (fn u => u)").unwrap();
//! let delta = analysis.update(&session).unwrap();
//! assert!(delta.new_edges > 0);
//!
//! let labels = analysis.labels_of(session.program(), f.value.unwrap());
//! assert_eq!(labels.len(), 1);
//! ```

use stcfa_lambda::session::SessionProgram;
use stcfa_lambda::{ExprId, Label, Program, VarId};

use crate::analysis::{
    Analysis, AnalysisError, AnalysisOptions, AnalysisStats, Engine, EngineParts,
};
use crate::graph::GraphMark;
use crate::node::{NodeId, NodeKind};
use crate::queryeng::QueryEngine;

/// What one [`IncrementalAnalysis::update`] added.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateDelta {
    /// Graph nodes created by this update.
    pub new_nodes: usize,
    /// Graph edges created by this update.
    pub new_edges: usize,
    /// Expressions newly covered.
    pub new_exprs: usize,
}

/// A persistent analysis that follows a [`SessionProgram`] as it grows.
#[derive(Clone, Debug)]
pub struct IncrementalAnalysis {
    options: AnalysisOptions,
    parts: EngineParts,
    processed_bindings: usize,
    /// Bumped by every [`IncrementalAnalysis::update`] that changes the
    /// graph; frozen into [`SessionSnapshot`]s for staleness checks.
    generation: u64,
}

/// A rewind point for an [`IncrementalAnalysis`] (see
/// [`IncrementalAnalysis::mark`]).
///
/// Every structure an update touches is append-only — the node table, the
/// journaled graph, the per-expr/per-binder node maps — so a mark is the
/// extent of each plus the few scalar fields, and rewinding then replaying
/// the same session suffix reproduces the analysis bit for bit (including
/// the generation counter, so snapshot staleness checks stay
/// deterministic).
#[derive(Clone, Copy, Debug)]
pub struct AnalysisMark {
    nodes: usize,
    graph: GraphMark,
    exprs: usize,
    binders: usize,
    top_fun: Option<NodeId>,
    stats: AnalysisStats,
    processed_bindings: usize,
    generation: u64,
}

/// Use of a [`SessionSnapshot`] whose session has since been updated.
///
/// A frozen query engine describes the graph *as of one generation*; using
/// it after the session grew would silently return under-approximate label
/// sets. [`SessionSnapshot::engine`] turns that hazard into this checked
/// error instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleSnapshot {
    /// The generation the snapshot was frozen at.
    pub frozen_at: u64,
    /// The session's current generation.
    pub current: u64,
}

impl std::fmt::Display for StaleSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale session snapshot: frozen at generation {}, session is at generation {}",
            self.frozen_at, self.current
        )
    }
}

impl std::error::Error for StaleSnapshot {}

/// A [`QueryEngine`] frozen from an [`IncrementalAnalysis`] at a specific
/// generation. Access the engine only through
/// [`SessionSnapshot::engine`], which re-checks the generation against the
/// live session — extending the session after freezing makes the snapshot
/// a checked error, never a silently wrong answer.
pub struct SessionSnapshot {
    engine: QueryEngine,
    frozen_at: u64,
}

impl SessionSnapshot {
    /// The generation this snapshot was frozen at.
    pub fn generation(&self) -> u64 {
        self.frozen_at
    }

    /// The frozen engine, if `analysis` has not been updated since the
    /// freeze.
    pub fn engine(&self, analysis: &IncrementalAnalysis) -> Result<&QueryEngine, StaleSnapshot> {
        if analysis.generation != self.frozen_at {
            return Err(StaleSnapshot {
                frozen_at: self.frozen_at,
                current: analysis.generation,
            });
        }
        Ok(&self.engine)
    }
}

impl IncrementalAnalysis {
    /// Creates an analysis with the given options; nothing is analyzed
    /// until the first [`IncrementalAnalysis::update`].
    pub fn new(options: AnalysisOptions) -> IncrementalAnalysis {
        let mut parts = EngineParts::default();
        // Incremental analyses journal the graph so the session linker can
        // rewind to an edit point instead of cloning checkpoints. One-shot
        // analyses (`Analysis::run`) never enable this and pay nothing.
        parts.graph.enable_journal();
        IncrementalAnalysis {
            options,
            parts,
            processed_bindings: 0,
            generation: 0,
        }
    }

    /// The analysis's current extent, for [`IncrementalAnalysis::rewind`].
    pub fn mark(&self) -> AnalysisMark {
        AnalysisMark {
            nodes: self.parts.nodes.len(),
            graph: self.parts.graph.mark(),
            exprs: self.parts.expr_nodes.len(),
            binders: self.parts.binder_nodes.len(),
            top_fun: self.parts.top_fun,
            stats: self.parts.stats,
            processed_bindings: self.processed_bindings,
            generation: self.generation,
        }
    }

    /// Rewinds to an earlier [`AnalysisMark`], exactly undoing every
    /// update since; re-applying the same session suffix then reproduces
    /// the pre-rewind state bit for bit. The caller must rewind the
    /// session program to the matching extent (see
    /// [`SessionProgram::rewind`](stcfa_lambda::session::SessionProgram))
    /// before the next [`IncrementalAnalysis::update`].
    pub fn rewind(&mut self, mark: AnalysisMark) {
        self.parts.nodes.rewind(mark.nodes);
        self.parts.graph.rewind(mark.graph);
        self.parts.expr_nodes.truncate(mark.exprs);
        self.parts.binder_nodes.truncate(mark.binders);
        self.parts.top_fun = mark.top_fun;
        self.parts.stats = mark.stats;
        self.processed_bindings = mark.processed_bindings;
        self.generation = mark.generation;
    }

    /// The current generation: the number of graph-changing updates so
    /// far. Snapshots frozen at an older generation are stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The options the analysis was created with.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Whether `session` is a *forward extension* of what this analysis
    /// has processed: every expression and session binding already
    /// analyzed is still present. Updates are only sound for forward
    /// extensions — an analysis can never "un-see" a fragment. The
    /// session linker (`stcfa-session`) relies on this to decide when a
    /// checkpointed prefix analysis can resume against an edited
    /// workspace and when it must fall back to an earlier checkpoint.
    pub fn covers(&self, session: &SessionProgram) -> bool {
        self.parts.expr_nodes.len() <= session.program().size()
            && self.processed_bindings <= session.bindings().len()
    }

    /// Catches up with everything defined in `session` since the last
    /// update. Cost is proportional to the new fragments (plus whatever
    /// closure they transitively demand), not to the whole session.
    pub fn update(&mut self, session: &SessionProgram) -> Result<UpdateDelta, AnalysisError> {
        debug_assert!(
            self.covers(session),
            "update on a rewound session: the analysis has processed more \
             than the session contains"
        );
        let program = session.program();
        let parts = std::mem::take(&mut self.parts);
        let nodes_before = parts.nodes.len();
        let edges_before = parts.graph.edge_count();
        let exprs_before = parts.expr_nodes.len();

        let mut engine = Engine::resume(program, self.options, parts);
        engine.build_delta();
        // Session bindings are not `let` expressions; add their flow edges
        // (binder → rhs, the same edge a `let` would induce).
        for b in &session.bindings()[self.processed_bindings..] {
            let binder = engine.binder_nodes[b.binder.index()];
            let rhs = engine.expr_nodes[b.rhs.index()];
            engine.graph.add_edge(binder, rhs);
        }
        self.processed_bindings = session.bindings().len();
        let result = engine.close();
        self.parts = engine.into_parts();
        result?;
        let delta = UpdateDelta {
            new_nodes: self.parts.nodes.len() - nodes_before,
            new_edges: self.parts.graph.edge_count() - edges_before,
            new_exprs: self.parts.expr_nodes.len() - exprs_before,
        };
        if delta != UpdateDelta::default() {
            self.generation += 1;
        }
        Ok(delta)
    }

    /// `L(e)` on the current graph. `program` must be the session's
    /// program as of the last update.
    pub fn labels_of(&self, program: &Program, e: ExprId) -> Vec<Label> {
        self.labels_from(program, self.parts.expr_nodes[e.index()])
    }

    /// `L(x)` for a binder.
    pub fn labels_of_binder(&self, program: &Program, v: VarId) -> Vec<Label> {
        self.labels_from(program, self.parts.binder_nodes[v.index()])
    }

    fn labels_from(&self, program: &Program, start: NodeId) -> Vec<Label> {
        let mut seen = vec![false; self.parts.nodes.len()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if let NodeKind::Expr(e) = self.parts.nodes.kind(n) {
                if let Some(l) = program.label_of(e) {
                    out.push(l);
                }
            }
            for &s in self.parts.graph.succs(n) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(NodeId::from_index(s as usize));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total graph nodes so far.
    pub fn node_count(&self) -> usize {
        self.parts.nodes.len()
    }

    /// Total graph edges so far.
    pub fn edge_count(&self) -> usize {
        self.parts.graph.edge_count()
    }

    /// Materializes a full [`Analysis`] view of the current state (clones
    /// the graph; use the direct queries for cheap per-fragment lookups).
    pub fn snapshot(&self, program: &Program) -> Analysis {
        // The materialized view is never rewound: copy everything but the
        // graph's mutation journal.
        let engine = Engine::resume(program, self.options, self.parts.clone_unjournaled());
        engine.finish()
    }

    /// Freezes the current state into a generation-tagged [`QueryEngine`]
    /// (see [`SessionSnapshot`]). The engine answers queries for the
    /// session *as of now*; after the next graph-changing
    /// [`IncrementalAnalysis::update`] the snapshot reports
    /// [`StaleSnapshot`] instead of stale answers.
    pub fn freeze(&self, program: &Program) -> SessionSnapshot {
        let analysis = self.snapshot(program);
        SessionSnapshot {
            engine: QueryEngine::freeze_tagged(&analysis, Some(self.generation)),
            frozen_at: self.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A from-scratch analysis of a session forest: build everything, add
    /// all binding edges, close — for equivalence checks.
    fn from_scratch(session: &SessionProgram, options: AnalysisOptions) -> IncrementalAnalysis {
        let mut a = IncrementalAnalysis::new(options);
        a.update(session).unwrap();
        a
    }

    #[test]
    fn incremental_equals_from_scratch_at_every_step() {
        let fragments = [
            "fun id x = x;",
            "val a = id (fn u => u);",
            "fun apply f = fn y => f y;",
            "val b = apply (fn v => v) (fn w => w);",
            "a",
        ];
        let mut session = SessionProgram::new();
        let mut incremental = IncrementalAnalysis::new(AnalysisOptions::default());
        for (i, frag) in fragments.iter().enumerate() {
            session.define(frag).unwrap();
            incremental.update(&session).unwrap();
            let scratch = from_scratch(&session, AnalysisOptions::default());
            let program = session.program();
            for e in program.exprs() {
                assert_eq!(
                    incremental.labels_of(program, e),
                    scratch.labels_of(program, e),
                    "divergence after fragment {i} at {e:?}"
                );
            }
        }
    }

    #[test]
    fn updates_cost_only_the_delta() {
        let mut session = SessionProgram::new();
        let mut a = IncrementalAnalysis::new(AnalysisOptions::default());
        session.define("fun id x = x;").unwrap();
        let d1 = a.update(&session).unwrap();
        // A big second fragment...
        let mut big = String::new();
        for i in 0..50 {
            big.push_str(&format!("val v{i} = id (fn q{i} => q{i});\n"));
        }
        session.define(&big).unwrap();
        let d2 = a.update(&session).unwrap();
        // ...then a tiny third one.
        session.define("val last = id (fn z => z);").unwrap();
        let d3 = a.update(&session).unwrap();
        assert!(d2.new_exprs > 10 * d3.new_exprs, "{d2:?} vs {d3:?}");
        assert!(
            d3.new_nodes < d2.new_nodes / 5,
            "third update should be delta-sized: {d3:?} vs {d2:?}"
        );
        let _ = d1;
    }

    #[test]
    fn cross_fragment_flow_is_seen() {
        let mut session = SessionProgram::new();
        let mut a = IncrementalAnalysis::new(AnalysisOptions::default());
        session.define("fun id x = x;").unwrap();
        a.update(&session).unwrap();
        let f = session.define("id (fn u => u)").unwrap();
        a.update(&session).unwrap();
        let labels = a.labels_of(session.program(), f.value.unwrap());
        assert_eq!(
            labels.len(),
            1,
            "the identity returns the fragment-2 lambda"
        );
        // The shared binder joins flows from both fragments.
        let x = session
            .program()
            .vars()
            .find(|&v| session.program().var_name(v) == "x")
            .unwrap();
        assert_eq!(a.labels_of_binder(session.program(), x).len(), 1);
    }

    #[test]
    fn monovariant_join_across_fragments() {
        let mut session = SessionProgram::new();
        let mut a = IncrementalAnalysis::new(AnalysisOptions::default());
        session.define("fun id x = x;").unwrap();
        session.define("val p = id (fn u => u);").unwrap();
        a.update(&session).unwrap();
        let f = session.define("id (fn v => v)").unwrap();
        a.update(&session).unwrap();
        // Monovariant: both arguments joined at the shared id.
        let labels = a.labels_of(session.program(), f.value.unwrap());
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn snapshot_agrees_with_direct_queries() {
        let mut session = SessionProgram::new();
        let mut a = IncrementalAnalysis::new(AnalysisOptions::default());
        session
            .define("fun id x = x; val r = id (fn u => u);")
            .unwrap();
        a.update(&session).unwrap();
        let program = session.program();
        let snap = a.snapshot(program);
        for e in program.exprs() {
            assert_eq!(a.labels_of(program, e), snap.labels_of(e));
        }
    }

    #[test]
    fn closure_invariants_hold_after_every_update() {
        let mut session = SessionProgram::new();
        let mut a = IncrementalAnalysis::new(AnalysisOptions::default());
        for frag in [
            "fun apply f = fn y => f y;",
            "val p = apply (fn u => u);",
            "val q = p (fn v => v);",
            "q 0",
        ] {
            session.define(frag).unwrap();
            a.update(&session).unwrap();
            a.snapshot(session.program())
                .check_invariants()
                .unwrap_or_else(|e| panic!("after {frag:?}: {e}"));
        }
    }

    #[test]
    fn rewind_then_replay_is_bit_identical() {
        let fragments = ["fun id x = x;", "val a = id (fn u => u);", "id (fn v => v)"];
        // Straight-through reference.
        let mut s1 = SessionProgram::new();
        let mut a1 = IncrementalAnalysis::new(AnalysisOptions::default());
        for f in fragments {
            s1.define(f).unwrap();
            a1.update(&s1).unwrap();
        }
        // Detour: analyze an extra fragment, rewind it away, replay the
        // real suffix — must match the reference exactly.
        let mut s2 = SessionProgram::new();
        let mut a2 = IncrementalAnalysis::new(AnalysisOptions::default());
        s2.define(fragments[0]).unwrap();
        a2.update(&s2).unwrap();
        let sm = s2.mark();
        let am = a2.mark();
        s2.define("fun detour y = id (id y);").unwrap();
        a2.update(&s2).unwrap();
        s2.rewind(sm);
        a2.rewind(am);
        for f in &fragments[1..] {
            s2.define(f).unwrap();
            a2.update(&s2).unwrap();
        }
        assert_eq!(a1.node_count(), a2.node_count());
        assert_eq!(a1.edge_count(), a2.edge_count());
        assert_eq!(a1.generation(), a2.generation());
        let p1 = s1.program();
        let p2 = s2.program();
        assert_eq!(p1.size(), p2.size());
        for e in p1.exprs() {
            assert_eq!(a1.labels_of(p1, e), a2.labels_of(p2, e));
        }
    }

    #[test]
    fn datatypes_defined_incrementally() {
        let mut session = SessionProgram::new();
        let mut a = IncrementalAnalysis::new(AnalysisOptions::default());
        session.define("datatype box = B of (int -> int);").unwrap();
        a.update(&session).unwrap();
        let f = session
            .define("case B(fn n => n + 1) of B(g) => g")
            .unwrap();
        a.update(&session).unwrap();
        assert_eq!(a.labels_of(session.program(), f.value.unwrap()).len(), 1);
    }
}
