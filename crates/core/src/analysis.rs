//! The linear-time subtransitive CFA: build phase, demand-driven close
//! phase, and reachability queries.
//!
//! The build phase makes one linear pass over the program, adding the basic
//! edges of system LC′ (paper, Section 3) plus the Section 6 extensions:
//!
//! ```text
//! (ABS-1)   x → dom(λˡx.e)                 (ABS-2)  ran(λˡx.e) → e
//! (APP-1)   dom(e₁) → e₂                   (APP-2)  (e₁ e₂) → ran(e₁)
//! (LETREC)  letrec f = λˡx.e₁ in e₂ → e₂,  f → λˡx.e₁
//! (RECORD)  proj_j((e₁,…,eₙ)) → e_j        (PROJ)   #j e → proj_j(e)
//! (CON)     c_i⁻¹(c(e₁,…,eₙ)) → e_i        (CASE)   xᵢ → c_i⁻¹(scrutinee)
//! ```
//!
//! The close phase then applies the *demand-driven* closure rules — an
//! operator application `op(n)` participates only once it has an incoming
//! edge:
//!
//! ```text
//! (CLOSE-DOM′)  n₁ → n₂, m → dom(n₂)  ⟹  dom(n₂) → dom(n₁)
//! (CLOSE-RAN′)  n₁ → n₂, m → ran(n₁)  ⟹  ran(n₁) → ran(n₂)
//! ```
//!
//! plus covariant analogues for `proj_j` and de-constructors. The
//! transitive closure of the resulting graph is exactly standard CFA
//! (Propositions 1 and 2); every query below is plain reachability.
//!
//! Types are never consulted (except that datatype *declarations* name the
//! component types used by the ≈₁/≈₂ congruences): as in the paper, types
//! only bound the node count. For untyped or recursively-typed programs the
//! close phase may not terminate, so a configurable node budget aborts with
//! [`AnalysisError::BudgetExceeded`] — see `crate::hybrid` for the
//! fall-back driver.

use std::error::Error;
use std::fmt;

use stcfa_lambda::{ExprId, ExprKind, Label, Program, VarId};

use crate::graph::{DemandOp, SubGraph};
use crate::node::{DatatypePolicy, NodeId, NodeKind, NodeTable};

/// Knobs for one analysis run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalysisOptions {
    /// Datatype treatment (default: the paper's ≈₁ congruence).
    pub policy: DatatypePolicy,
    /// Node budget; `None` picks `64·|P| + 4096`, far above the `2–3·|P|`
    /// the paper reports for real programs, so only genuinely unbounded
    /// closures (untyped programs under [`DatatypePolicy::Exact`]) hit it.
    pub max_nodes: Option<usize>,
}

/// Why an analysis run failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The close phase exceeded the node budget; the program is (or behaves
    /// like) an unbounded-type program.
    BudgetExceeded {
        /// Nodes created when the run aborted.
        nodes: usize,
        /// The budget in force.
        budget: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::BudgetExceeded { nodes, budget } => write!(
                f,
                "subtransitive close phase exceeded its node budget ({nodes} nodes > {budget}); \
                 the program likely has unbounded types"
            ),
        }
    }
}

impl Error for AnalysisError {}

/// Size and work counters, matching the build/close split the paper's
/// Tables 1–2 report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Nodes after the build phase (≈ syntax nodes).
    pub build_nodes: usize,
    /// Edges after the build phase.
    pub build_edges: usize,
    /// Nodes added by the close phase (the paper's key constant-factor
    /// measure: "typically no more than the number of nodes in the build
    /// phase").
    pub close_nodes: usize,
    /// Edges added by the close phase.
    pub close_edges: usize,
    /// Edges popped and examined by the closure loop.
    pub edges_processed: u64,
    /// Demand registrations performed.
    pub demand_registrations: u64,
    /// Queries answered by a frozen [`QueryEngine`](crate::QueryEngine)
    /// over this analysis (zero until one is frozen and consulted).
    pub queries_answered: u64,
    /// Query-engine cache hits: answers served from the completed summary
    /// sweep or from a memoized demand-mode component.
    pub query_cache_hits: u64,
    /// Query-engine cache misses: demand-mode components computed plus
    /// full summary sweeps performed.
    pub query_cache_misses: u64,
}

impl std::ops::AddAssign for AnalysisStats {
    /// Field-wise sum, for totals over several analyses.
    fn add_assign(&mut self, rhs: AnalysisStats) {
        let AnalysisStats {
            build_nodes,
            build_edges,
            close_nodes,
            close_edges,
            edges_processed,
            demand_registrations,
            queries_answered,
            query_cache_hits,
            query_cache_misses,
        } = rhs;
        self.build_nodes += build_nodes;
        self.build_edges += build_edges;
        self.close_nodes += close_nodes;
        self.close_edges += close_edges;
        self.edges_processed += edges_processed;
        self.demand_registrations += demand_registrations;
        self.queries_answered += queries_answered;
        self.query_cache_hits += query_cache_hits;
        self.query_cache_misses += query_cache_misses;
    }
}

impl AnalysisStats {
    /// Total nodes.
    pub fn nodes(&self) -> usize {
        self.build_nodes + self.close_nodes
    }

    /// Total edges.
    pub fn edges(&self) -> usize {
        self.build_edges + self.close_edges
    }
}

/// A finished subtransitive control-flow graph with its query interface.
///
/// The graph is *subtransitive*: its transitive closure — not the edge set
/// itself — is the standard-CFA flow relation, and queries are formulated
/// as reachability:
///
/// - [`Analysis::labels_of`] — `L(e)` in `O(graph)` (paper, Algorithm 2);
/// - [`Analysis::label_reaches`] — `l ∈ L(e)?` in `O(graph)` (Algorithm 1);
/// - [`Analysis::exprs_with_label`] — `{e : l ∈ L(e)}` in `O(graph)`;
/// - [`Analysis::all_label_sets`] — all of `L` in `O(n·graph)` (optimal
///   quadratic output size).
#[derive(Clone, Debug)]
pub struct Analysis {
    nodes: NodeTable,
    pub(crate) graph: SubGraph,
    policy: DatatypePolicy,
    stats: AnalysisStats,
    /// Expression occurrence → node (variable occurrences share their
    /// binder's node).
    pub(crate) expr_nodes: Vec<NodeId>,
    /// Binder → node.
    pub(crate) binder_nodes: Vec<NodeId>,
    /// Node → abstraction label (`u32::MAX` = none).
    pub(crate) node_label: Vec<u32>,
    /// Label → the abstraction's node.
    pub(crate) label_nodes: Vec<NodeId>,
    /// Binder → its variable occurrences, for inverse queries, grouped
    /// CSR-style: binder `v`'s occurrences are
    /// `occ_exprs[occ_offsets[v]..occ_offsets[v + 1]]`, in expression
    /// order.
    pub(crate) occ_offsets: Vec<u32>,
    pub(crate) occ_exprs: Vec<u32>,
}

impl Analysis {
    /// Runs the analysis with default options (≈₁ datatype congruence,
    /// default node budget).
    pub fn run(program: &Program) -> Result<Analysis, AnalysisError> {
        Self::run_with(program, AnalysisOptions::default())
    }

    /// Runs the analysis with explicit options.
    pub fn run_with(
        program: &Program,
        options: AnalysisOptions,
    ) -> Result<Analysis, AnalysisError> {
        let mut engine = Engine::new(program, options);
        engine.build();
        engine.finish_build_stats();
        engine.close()?;
        Ok(engine.finish())
    }

    /// Runs the analysis but, on budget exhaustion, returns the *partial*
    /// graph together with the error instead of discarding it. The partial
    /// result is **not sound** (closure consequences are missing); it
    /// exists for diagnostics — inspecting what grew when a program turns
    /// out not to be bounded-type.
    #[doc(hidden)]
    pub fn run_partial(
        program: &Program,
        options: AnalysisOptions,
    ) -> (Analysis, Option<AnalysisError>) {
        let mut engine = Engine::new(program, options);
        engine.build();
        engine.finish_build_stats();
        let err = engine.close().err();
        (engine.finish(), err)
    }

    /// The datatype policy the analysis ran with.
    pub fn policy(&self) -> DatatypePolicy {
        self.policy
    }

    /// Size and work counters.
    pub fn stats(&self) -> AnalysisStats {
        self.stats
    }

    /// Total number of graph nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of graph edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The node representing expression occurrence `e`.
    pub fn node_of_expr(&self, e: ExprId) -> NodeId {
        self.expr_nodes[e.index()]
    }

    /// The node representing binder `v`.
    pub fn node_of_binder(&self, v: VarId) -> NodeId {
        self.binder_nodes[v.index()]
    }

    /// The node table (for consumers that walk the graph directly, such as
    /// the linear-time applications in `stcfa-apps`).
    pub fn nodes(&self) -> &NodeTable {
        &self.nodes
    }

    /// Successors of a node (towards value *sources*).
    pub fn succs(&self, n: NodeId) -> &[u32] {
        self.graph.succs(n)
    }

    /// Predecessors of a node (towards value *consumers*).
    pub fn preds(&self, n: NodeId) -> &[u32] {
        self.graph.preds(n)
    }

    /// The abstraction label carried by node `n`, if it is an abstraction.
    pub fn label_of_node(&self, n: NodeId) -> Option<Label> {
        match self.node_label[n.index()] {
            u32::MAX => None,
            l => Some(Label::from_index(l as usize)),
        }
    }

    /// The node of the abstraction labelled `l`.
    pub fn node_of_label(&self, l: Label) -> NodeId {
        self.label_nodes[l.index()]
    }

    /// Every node carrying label `l` — the abstraction itself plus, in a
    /// polyvariant analysis, its instance roots.
    pub fn nodes_with_label(&self, l: Label) -> Vec<NodeId> {
        self.node_label
            .iter()
            .enumerate()
            .filter(|&(_i, &v)| v == l.index() as u32)
            .map(|(i, &_v)| NodeId::from_index(i))
            .collect()
    }

    /// Algorithm 2: `L(e)` — the labels of all abstractions reachable from
    /// `e`'s node, sorted. Linear in the (linear-sized) graph.
    pub fn labels_of(&self, e: ExprId) -> Vec<Label> {
        self.labels_from_node(self.node_of_expr(e))
    }

    /// `L(x)` for a binder.
    pub fn labels_of_binder(&self, v: VarId) -> Vec<Label> {
        self.labels_from_node(self.node_of_binder(v))
    }

    /// Labels reachable from an arbitrary graph node.
    pub fn labels_from_node(&self, start: NodeId) -> Vec<Label> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if let Some(l) = self.label_of_node(n) {
                out.push(l);
            }
            for &s in self.graph.succs(n) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(NodeId::from_index(s as usize));
                }
            }
        }
        out.sort_unstable();
        out.dedup(); // several nodes may carry one label under polyvariance
        out
    }

    /// Algorithm 1: is `l ∈ L(e)`? Early-exit reachability.
    pub fn label_reaches(&self, e: ExprId, l: Label) -> bool {
        let target = self.label_nodes[l.index()];
        let start = self.node_of_expr(e);
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            for &s in self.graph.succs(n) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(NodeId::from_index(s as usize));
                }
            }
        }
        false
    }

    /// A *witness path* for `l ∈ L(e)`: the sequence of graph nodes from
    /// `e`'s node to the abstraction's node, or `None` if `l ∉ L(e)`.
    ///
    /// This is exactly the paper's Proposition 1 in the concrete: the
    /// single DTC transition `e → λˡx.e′` spelled out as the multi-step
    /// LC path `e → n₁ → … → nₖ → λˡx.e′`.
    pub fn witness_path(&self, e: ExprId, l: Label) -> Option<Vec<NodeId>> {
        let start = self.node_of_expr(e);
        let target = self.label_nodes[l.index()];
        let mut parent: Vec<u32> = vec![u32::MAX; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            if n == target {
                let mut path = vec![n];
                let mut cur = n;
                while cur != start {
                    cur = NodeId::from_index(parent[cur.index()] as usize);
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &s in self.graph.succs(n) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    parent[s as usize] = n.index() as u32;
                    queue.push_back(NodeId::from_index(s as usize));
                }
            }
        }
        None
    }

    /// Inverse query: `{e : l ∈ L(e)}` — all expression occurrences that
    /// may evaluate to the abstraction labelled `l`. Reverse reachability;
    /// linear in the graph.
    pub fn exprs_with_label(&self, l: Label) -> Vec<ExprId> {
        let mut seen = vec![false; self.nodes.len()];
        let start = self.label_nodes[l.index()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            match self.nodes.kind(n) {
                NodeKind::Expr(e) => out.push(e),
                NodeKind::Binder(v) => {
                    let (lo, hi) = (self.occ_offsets[v.index()], self.occ_offsets[v.index() + 1]);
                    let occ = &self.occ_exprs[lo as usize..hi as usize];
                    out.extend(occ.iter().map(|&e| ExprId::from_index(e as usize)));
                }
                _ => {}
            }
            for &p in self.graph.preds(n) {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(NodeId::from_index(p as usize));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All label sets (complete CFA information): one [`Analysis::labels_of`]
    /// per occurrence — the optimal quadratic-time listing.
    pub fn all_label_sets(&self, program: &Program) -> Vec<(ExprId, Vec<Label>)> {
        program.exprs().map(|e| (e, self.labels_of(e))).collect()
    }

    /// The functions callable from application site `app` (`L(e₁)` for
    /// `app = (e₁ e₂)`), or `None` if `app` is not an application.
    pub fn call_targets(&self, program: &Program, app: ExprId) -> Option<Vec<Label>> {
        match program.kind(app) {
            ExprKind::App { func, .. } => Some(self.labels_of(*func)),
            _ => None,
        }
    }

    /// Verifies the closure invariants of the finished graph:
    ///
    /// 1. **demand registration** — every operator node with an incoming
    ///    edge has the corresponding demand registered on its operand;
    /// 2. **saturation** — for every flow edge `n₁ → n₂` and every
    ///    registered demand, the primed closure rule's conclusion edge is
    ///    present (so the close phase really reached its fixpoint).
    ///
    /// `O(edges × ops)`; intended for tests and post-incremental-update
    /// audits, not production paths. Returns a description of the first
    /// violation, if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        let op_of = |kind: NodeKind| -> Option<(NodeId, DemandOp)> {
            match kind {
                NodeKind::Dom(n) => Some((n, DemandOp::Dom)),
                NodeKind::Ran(n) => Some((n, DemandOp::Ran)),
                NodeKind::Proj(j, n) => Some((n, DemandOp::Proj(j))),
                NodeKind::DeCon { con, index, of } => Some((of, DemandOp::Decon(con, index))),
                NodeKind::DeConClass { data, base } => Some((base, DemandOp::DeconData(data))),
                _ => None,
            }
        };
        // 1. Demand registration.
        for id in self.nodes.ids() {
            if self.graph.preds(id).is_empty() {
                continue;
            }
            if let Some((base, op)) = op_of(self.nodes.kind(id)) {
                if !self.graph.is_demanded(base, op) {
                    return Err(format!(
                        "operator node {id:?} has in-edges but no demand {op:?} on {base:?}"
                    ));
                }
            }
        }
        // 2. Saturation of the primed rules. Reconstruct each conclusion
        // node by *lookup* (never creation): a missing node means the rule
        // did not fire.
        let lookup = |op: DemandOp, base: NodeId| -> Option<NodeId> {
            match op {
                DemandOp::Dom => self.nodes.get(NodeKind::Dom(base)),
                DemandOp::Ran => self.nodes.get(NodeKind::Ran(base)),
                DemandOp::Proj(j) => self.nodes.get(NodeKind::Proj(j, base)),
                // De-constructor conclusions depend on the policy's
                // canonicalization; checked only for exact nodes.
                DemandOp::Decon(con, index) => self.nodes.get(NodeKind::DeCon {
                    con,
                    index,
                    of: base,
                }),
                DemandOp::DeconData(data) => self.nodes.get(NodeKind::DeConClass {
                    data,
                    base: self.nodes.base(base),
                }),
            }
        };
        for u in self.nodes.ids() {
            for &sv in self.graph.succs(u) {
                let v = NodeId::from_index(sv as usize);
                // Contravariant: demanded dom(v) ⟹ dom(v) → dom(u).
                if self.graph.is_demanded(v, DemandOp::Dom) {
                    let (Some(src), Some(dst)) =
                        (lookup(DemandOp::Dom, v), lookup(DemandOp::Dom, u))
                    else {
                        return Err(format!(
                            "CLOSE-DOM conclusion nodes missing for edge {u:?} → {v:?}"
                        ));
                    };
                    if src != dst && !self.graph.has_edge(src, dst) {
                        return Err(format!(
                            "unsaturated CLOSE-DOM: {u:?} → {v:?} demands {src:?} → {dst:?}"
                        ));
                    }
                }
                // Covariant rules on u.
                for &op in self.graph.demands(u) {
                    if matches!(op, DemandOp::Dom) {
                        continue;
                    }
                    let (Some(src), Some(dst)) = (lookup(op, u), lookup(op, v)) else {
                        return Err(format!(
                            "covariant conclusion nodes missing for {op:?} on {u:?} → {v:?}"
                        ));
                    };
                    if src != dst && !self.graph.has_edge(src, dst) {
                        return Err(format!(
                            "unsaturated {op:?}: {u:?} → {v:?} demands {src:?} → {dst:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The analysis engine. `pub(crate)` so that the polyvariant driver
/// (`crate::polyvariance`) can interleave its instance-copying step between
/// the build and close phases.
pub(crate) struct Engine<'a> {
    pub(crate) program: &'a Program,
    pub(crate) nodes: NodeTable,
    pub(crate) graph: SubGraph,
    policy: DatatypePolicy,
    budget: usize,
    stats: AnalysisStats,
    pub(crate) expr_nodes: Vec<NodeId>,
    pub(crate) binder_nodes: Vec<NodeId>,
    top_fun: Option<NodeId>,
    /// Variable occurrences that receive their *own* node (not their
    /// binder's) and no flow edge — the polyvariant instantiation points.
    pub(crate) poly_split: std::collections::HashSet<ExprId>,
    /// Extra label carriers applied at `finish` (instance roots carry the
    /// label of the abstraction they instantiate).
    pub(crate) extra_labels: Vec<(NodeId, Label)>,
}

/// The program-independent state of an [`Engine`], detachable so that an
/// incremental analysis (see [`crate::incremental`]) can persist it across
/// program growth.
#[derive(Clone, Debug)]
pub(crate) struct EngineParts {
    pub(crate) nodes: NodeTable,
    pub(crate) graph: SubGraph,
    pub(crate) expr_nodes: Vec<NodeId>,
    pub(crate) binder_nodes: Vec<NodeId>,
    pub(crate) top_fun: Option<NodeId>,
    pub(crate) stats: AnalysisStats,
}

impl Default for EngineParts {
    fn default() -> Self {
        EngineParts {
            nodes: NodeTable::new(),
            graph: SubGraph::new(),
            expr_nodes: Vec::new(),
            binder_nodes: Vec::new(),
            top_fun: None,
            stats: AnalysisStats::default(),
        }
    }
}

impl EngineParts {
    /// A copy for a view that will never be rewound: everything but the
    /// graph's mutation journal.
    pub(crate) fn clone_unjournaled(&self) -> EngineParts {
        EngineParts {
            nodes: self.nodes.clone(),
            graph: self.graph.clone_unjournaled(),
            expr_nodes: self.expr_nodes.clone(),
            binder_nodes: self.binder_nodes.clone(),
            top_fun: self.top_fun,
            stats: self.stats,
        }
    }
}

impl<'a> Engine<'a> {
    pub(crate) fn new(program: &'a Program, options: AnalysisOptions) -> Engine<'a> {
        Self::resume(program, options, EngineParts::default())
    }

    /// Re-attaches persisted state to a (grown) program.
    pub(crate) fn resume(
        program: &'a Program,
        options: AnalysisOptions,
        parts: EngineParts,
    ) -> Engine<'a> {
        let budget = options.max_nodes.unwrap_or(64 * program.size() + 4096);
        Engine {
            program,
            nodes: parts.nodes,
            graph: parts.graph,
            policy: options.policy,
            budget,
            stats: parts.stats,
            expr_nodes: parts.expr_nodes,
            binder_nodes: parts.binder_nodes,
            top_fun: parts.top_fun,
            poly_split: std::collections::HashSet::new(),
            extra_labels: Vec::new(),
        }
    }

    /// Detaches the persistent state.
    pub(crate) fn into_parts(self) -> EngineParts {
        EngineParts {
            nodes: self.nodes,
            graph: self.graph,
            expr_nodes: self.expr_nodes,
            binder_nodes: self.binder_nodes,
            top_fun: self.top_fun,
            stats: self.stats,
        }
    }

    pub(crate) fn finish_build_stats(&mut self) {
        self.stats.build_nodes = self.nodes.len();
        self.stats.build_edges = self.graph.edge_count();
    }

    // --- build phase --------------------------------------------------------

    pub(crate) fn build(&mut self) {
        self.build_delta();
    }

    /// Adds nodes and basic edges for every binder/expression not yet
    /// covered (all of them on a fresh engine; only the new suffix when
    /// resuming over a grown arena).
    pub(crate) fn build_delta(&mut self) {
        let program = self.program;
        let expr_start = self.expr_nodes.len();
        // Binder nodes first, then expression nodes (variable occurrences
        // share their binder's node).
        for i in self.binder_nodes.len()..program.var_count() {
            let v = VarId::from_index(i);
            let n = self.nodes.intern(NodeKind::Binder(v));
            self.binder_nodes.push(n);
        }
        for i in expr_start..program.size() {
            let e = ExprId::from_index(i);
            let n = match program.kind(e) {
                ExprKind::Var(v) if !self.poly_split.contains(&e) => self.binder_nodes[v.index()],
                _ => self.nodes.intern(NodeKind::Expr(e)),
            };
            self.expr_nodes.push(n);
        }
        self.graph.ensure_nodes(self.nodes.len());

        for e in program.exprs().skip(expr_start) {
            let en = self.expr_nodes[e.index()];
            match program.kind(e) {
                ExprKind::Var(_) | ExprKind::Lit(_) | ExprKind::Prim { .. } => {}
                ExprKind::Lam { param, body, .. } => {
                    // ABS-1: x → dom(λ) — this edge *demands* dom on λ.
                    let dom = self.nodes.intern(NodeKind::Dom(en));
                    self.demand(en, DemandOp::Dom);
                    self.graph.add_edge(self.binder_nodes[param.index()], dom);
                    // ABS-2: ran(λ) → body (no demand: ran(λ) only gains
                    // meaning once some application asks for it).
                    let ran = self.nodes.intern(NodeKind::Ran(en));
                    self.graph.add_edge(ran, self.expr_nodes[body.index()]);
                }
                ExprKind::App { func, arg } => {
                    let fnode = self.expr_nodes[func.index()];
                    // APP-1: dom(e₁) → e₂.
                    let dom = self.nodes.intern(NodeKind::Dom(fnode));
                    self.graph.add_edge(dom, self.expr_nodes[arg.index()]);
                    // APP-2: (e₁ e₂) → ran(e₁) — demands ran on e₁.
                    let ran = self.nodes.intern(NodeKind::Ran(fnode));
                    self.demand(fnode, DemandOp::Ran);
                    self.graph.add_edge(en, ran);
                }
                ExprKind::Let { binder, rhs, body } => {
                    self.graph.add_edge(
                        self.binder_nodes[binder.index()],
                        self.expr_nodes[rhs.index()],
                    );
                    self.graph.add_edge(en, self.expr_nodes[body.index()]);
                }
                ExprKind::LetRec {
                    binder,
                    lambda,
                    body,
                } => {
                    self.graph.add_edge(
                        self.binder_nodes[binder.index()],
                        self.expr_nodes[lambda.index()],
                    );
                    self.graph.add_edge(en, self.expr_nodes[body.index()]);
                }
                ExprKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.graph
                        .add_edge(en, self.expr_nodes[then_branch.index()]);
                    self.graph
                        .add_edge(en, self.expr_nodes[else_branch.index()]);
                }
                ExprKind::Record(items) => {
                    // proj_j((e₁,…,eₙ)) → e_j.
                    for (j, &item) in items.iter().enumerate() {
                        let proj = self.nodes.intern(NodeKind::Proj(j as u32, en));
                        self.graph.add_edge(proj, self.expr_nodes[item.index()]);
                    }
                }
                ExprKind::Proj { index, tuple } => {
                    // #j e → proj_j(e) — demands proj_j on e.
                    let tnode = self.expr_nodes[tuple.index()];
                    let proj = self.nodes.intern(NodeKind::Proj(*index, tnode));
                    self.demand(tnode, DemandOp::Proj(*index));
                    self.graph.add_edge(en, proj);
                }
                ExprKind::Con { con, args } => {
                    // c_i⁻¹(c(…)) → e_i (under Forget, contents are simply
                    // not tracked).
                    for (i, &arg) in args.iter().enumerate() {
                        if let Some(d) =
                            self.nodes
                                .decon(self.program, self.policy, *con, i as u32, en)
                        {
                            self.graph.add_edge(d, self.expr_nodes[arg.index()]);
                        }
                    }
                }
                ExprKind::Case {
                    scrutinee,
                    arms,
                    default,
                } => {
                    let snode = self.expr_nodes[scrutinee.index()];
                    for arm in arms.iter() {
                        self.graph.add_edge(en, self.expr_nodes[arm.body.index()]);
                        for (i, &b) in arm.binders.iter().enumerate() {
                            let bn = self.binder_nodes[b.index()];
                            match self.nodes.decon(
                                self.program,
                                self.policy,
                                arm.con,
                                i as u32,
                                snode,
                            ) {
                                Some(d) => {
                                    // xᵢ → c_i⁻¹(scrutinee) — demands the
                                    // de-constructor on the scrutinee.
                                    if let Some(op) = self.decon_demand_op(d, arm.con, i as u32) {
                                        self.demand(snode, op);
                                    }
                                    self.graph.add_edge(bn, d);
                                }
                                None => {
                                    // Forget: the extracted value could be
                                    // any abstraction in the program.
                                    let top = self.top_fun();
                                    self.graph.add_edge(bn, top);
                                }
                            }
                        }
                    }
                    if let Some(d) = default {
                        self.graph.add_edge(en, self.expr_nodes[d.index()]);
                    }
                }
            }
        }
    }

    /// The demand operator to register on the operand of a de-constructor
    /// node, or `None` when the node is a global class (≈₁) that needs no
    /// flow propagation.
    fn decon_demand_op(
        &self,
        decon_node: NodeId,
        con: stcfa_lambda::ConId,
        i: u32,
    ) -> Option<DemandOp> {
        match self.nodes.kind(decon_node) {
            NodeKind::DataClass(_) | NodeKind::Slot(..) | NodeKind::TopFun => None,
            NodeKind::DeConClass { data, .. } => Some(DemandOp::DeconData(data)),
            _ => Some(DemandOp::Decon(con, i)),
        }
    }

    pub(crate) fn top_fun(&mut self) -> NodeId {
        if let Some(t) = self.top_fun {
            return t;
        }
        let t = self.nodes.intern(NodeKind::TopFun);
        // TopFun reaches every abstraction in the program.
        for e in self.program.exprs() {
            if matches!(self.program.kind(e), ExprKind::Lam { .. }) {
                let lam = self.expr_nodes[e.index()];
                self.graph.add_edge(t, lam);
            }
        }
        self.top_fun = Some(t);
        t
    }

    pub(crate) fn demand(&mut self, n: NodeId, op: DemandOp) {
        self.graph.pending_demands.push_back((n, op));
    }

    /// Adds an edge, registering the demand implied by the target's shape
    /// (used when copying summary edges in the polyvariant driver; the
    /// normal build/close paths register demands at their creation sites).
    pub(crate) fn add_edge_demanding(&mut self, u: NodeId, v: NodeId) {
        match self.nodes.kind(v) {
            NodeKind::Dom(n) => self.demand(n, DemandOp::Dom),
            NodeKind::Ran(n) => self.demand(n, DemandOp::Ran),
            NodeKind::Proj(j, n) => self.demand(n, DemandOp::Proj(j)),
            NodeKind::DeCon { con, index, of } => self.demand(of, DemandOp::Decon(con, index)),
            NodeKind::DeConClass { data, base } => self.demand(base, DemandOp::DeconData(data)),
            NodeKind::Expr(_)
            | NodeKind::Binder(_)
            | NodeKind::DataClass(_)
            | NodeKind::Slot(..)
            | NodeKind::TopFun => {}
        }
        self.graph.add_edge(u, v);
    }

    // --- close phase --------------------------------------------------------

    pub(crate) fn close(&mut self) -> Result<(), AnalysisError> {
        let res = self.close_inner();
        self.stats.close_nodes = self.nodes.len() - self.stats.build_nodes;
        self.stats.close_edges = self.graph.edge_count() - self.stats.build_edges;
        res
    }

    fn close_inner(&mut self) -> Result<(), AnalysisError> {
        loop {
            if self.nodes.len() > self.budget {
                return Err(AnalysisError::BudgetExceeded {
                    nodes: self.nodes.len(),
                    budget: self.budget,
                });
            }
            if let Some((n, op)) = self.graph.pending_demands.pop_front() {
                if self.graph.register_demand(n, op) {
                    self.stats.demand_registrations += 1;
                    self.retro_fire(n, op);
                }
            } else if let Some((u, v)) = self.graph.pending_edges.pop_front() {
                self.stats.edges_processed += 1;
                self.fire_edge(u, v);
            } else {
                break;
            }
        }
        Ok(())
    }

    /// A new demand `(n, op)`: apply the closure rule over the edges already
    /// adjacent to `n`.
    ///
    /// Conclusions may append to `n`'s adjacency while the loop runs.
    /// Lists only ever grow at the tail, so walking the first `len`
    /// entries visits exactly the edges present when the demand arrived,
    /// without copying them.
    fn retro_fire(&mut self, n: NodeId, op: DemandOp) {
        match op {
            DemandOp::Dom => {
                // CLOSE-DOM′ is contravariant: edges n₁ → n (into n).
                let len = self.graph.preds(n).len();
                for i in 0..len {
                    let p = self.graph.preds(n)[i];
                    self.conclude(DemandOp::Dom, n, NodeId::from_index(p as usize));
                }
            }
            _ => {
                // Covariant rules: edges n → n₂ (out of n).
                let len = self.graph.succs(n).len();
                for i in 0..len {
                    let s = self.graph.succs(n)[i];
                    self.conclude(op, n, NodeId::from_index(s as usize));
                }
            }
        }
    }

    /// A new edge `u → v`: apply every closure rule whose demand is already
    /// registered. Conclusions only queue demands, so `u`'s registered
    /// operators cannot change during the loop.
    fn fire_edge(&mut self, u: NodeId, v: NodeId) {
        if self.graph.is_demanded(v, DemandOp::Dom) {
            self.conclude(DemandOp::Dom, v, u);
        }
        for i in 0..self.graph.demands(u).len() {
            let op = self.graph.demands(u)[i];
            if !matches!(op, DemandOp::Dom) {
                self.conclude(op, u, v);
            }
        }
    }

    /// Adds the conclusion `op(src_base) → op(dst_base)` and propagates the
    /// demand to `dst_base`. For `Dom`, callers pass `(n₂, n₁)` so that the
    /// conclusion is `dom(n₂) → dom(n₁)`.
    fn conclude(&mut self, op: DemandOp, src_base: NodeId, dst_base: NodeId) {
        let src = self.apply_op(op, src_base);
        let dst = self.apply_op(op, dst_base);
        let (Some(src), Some(dst)) = (src, dst) else {
            return;
        };
        if src == dst {
            return;
        }
        // The new edge lands *into* an operator node: the demand travels.
        if let Some(next) = self.transferred_demand(op, dst) {
            self.demand(dst_base, next);
            // ≈₂ class nodes are keyed by the *canonical* base, which can
            // differ from `dst_base` when deconstruction chains through
            // another operator node (recursive datatypes). The value also
            // flows along the canonical node's own edges, so the demand
            // must sit there too or those conclusions never fire.
            if matches!(next, DemandOp::DeconData(_)) {
                let canonical = self.nodes.base(dst_base);
                if canonical != dst_base {
                    self.demand(canonical, next);
                }
            }
        }
        self.graph.add_edge(src, dst);
    }

    /// Materializes `op(base)`.
    fn apply_op(&mut self, op: DemandOp, base: NodeId) -> Option<NodeId> {
        match op {
            DemandOp::Dom => Some(self.nodes.intern(NodeKind::Dom(base))),
            DemandOp::Ran => Some(self.nodes.intern(NodeKind::Ran(base))),
            DemandOp::Proj(j) => Some(self.nodes.intern(NodeKind::Proj(j, base))),
            DemandOp::Decon(c, i) => self.nodes.decon(self.program, self.policy, c, i, base),
            DemandOp::DeconData(d) => {
                let b = self.nodes.base(base);
                Some(self.nodes.intern(NodeKind::DeConClass { data: d, base: b }))
            }
        }
    }

    /// The demand to register on the destination base so the closure keeps
    /// propagating; `None` when the destination is a global class node.
    fn transferred_demand(&self, op: DemandOp, dst_node: NodeId) -> Option<DemandOp> {
        match self.nodes.kind(dst_node) {
            NodeKind::DataClass(_) | NodeKind::Slot(..) | NodeKind::TopFun => None,
            NodeKind::DeConClass { data, .. } => Some(DemandOp::DeconData(data)),
            _ => Some(op),
        }
    }

    pub(crate) fn finish(self) -> Analysis {
        let program = self.program;
        let mut node_label = vec![u32::MAX; self.nodes.len()];
        let mut label_nodes = vec![NodeId::from_index(0); program.label_count()];
        for l in program.all_labels() {
            let lam = program.lam_of_label(l);
            let n = self.expr_nodes[lam.index()];
            node_label[n.index()] = l.index() as u32;
            label_nodes[l.index()] = n;
        }
        for (n, l) in &self.extra_labels {
            node_label[n.index()] = l.index() as u32;
        }
        // Occurrences by counting sort over binders, in expression order.
        let mut occ_offsets = vec![0u32; program.var_count() + 1];
        for e in program.exprs() {
            if let ExprKind::Var(v) = program.kind(e) {
                occ_offsets[v.index() + 1] += 1;
            }
        }
        for v in 0..program.var_count() {
            occ_offsets[v + 1] += occ_offsets[v];
        }
        let mut cursor = occ_offsets.clone();
        let mut occ_exprs = vec![0u32; occ_offsets[program.var_count()] as usize];
        for e in program.exprs() {
            if let ExprKind::Var(v) = program.kind(e) {
                occ_exprs[cursor[v.index()] as usize] = e.index() as u32;
                cursor[v.index()] += 1;
            }
        }
        let mut graph = self.graph;
        graph.ensure_nodes(self.nodes.len());
        Analysis {
            nodes: self.nodes,
            graph,
            policy: self.policy,
            stats: self.stats,
            expr_nodes: self.expr_nodes,
            binder_nodes: self.binder_nodes,
            node_label,
            label_nodes,
            occ_offsets,
            occ_exprs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_lambda::Program;

    fn labels_at_root(src: &str) -> Vec<usize> {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        a.labels_of(p.root())
            .into_iter()
            .map(|l| l.index())
            .collect()
    }

    #[test]
    fn paper_example_self_application() {
        // Section 3's worked example: (λx.(x x)) (λ'x'.x') — the multi-step
        // LC path must reach λ'.
        assert_eq!(labels_at_root("(fn x => x x) (fn y => y)"), vec![1]);
    }

    #[test]
    fn identity_application() {
        assert_eq!(labels_at_root("(fn i => i) (fn z => z)"), vec![1]);
    }

    #[test]
    fn nested_application_chain() {
        // (λf.λg.f (g (λz.z))) id id — the result is λz.z.
        let labels = labels_at_root("(fn f => fn g => f (g (fn z => z))) (fn p => p) (fn q => q)");
        assert_eq!(labels.len(), 1);
    }

    #[test]
    fn monovariant_join_point() {
        let src = "\
            fun id x = x;\n\
            val a = id (fn u => u);\n\
            val b = id (fn v => v);\n\
            a";
        assert_eq!(labels_at_root(src).len(), 2);
    }

    #[test]
    fn records_are_field_precise() {
        assert_eq!(labels_at_root("#1 ((fn x => x), (fn y => y))").len(), 1);
    }

    #[test]
    fn inverse_query_finds_occurrences() {
        let p = Program::parse("(fn x => x x) (fn y => y)").unwrap();
        let a = Analysis::run(&p).unwrap();
        let id_label = Label::from_index(1);
        let exprs = a.exprs_with_label(id_label);
        // λ'y.y flows to: itself, x (both occurrences), (x x), the root.
        assert!(exprs.len() >= 4, "got {exprs:?}");
        assert!(exprs.contains(&p.root()));
    }

    #[test]
    fn label_reaches_is_consistent_with_labels_of() {
        let p = Program::parse("fun id x = x; val a = id (fn u => u); a").unwrap();
        let a = Analysis::run(&p).unwrap();
        for e in p.exprs() {
            let ls = a.labels_of(e);
            for l in p.all_labels() {
                assert_eq!(a.label_reaches(e, l), ls.contains(&l));
            }
        }
    }

    #[test]
    fn build_phase_is_linear_sized() {
        let p = Program::parse("fun id x = x; val a = id id; val b = id id; b").unwrap();
        let a = Analysis::run(&p).unwrap();
        let s = a.stats();
        assert!(
            s.build_nodes <= 3 * p.size(),
            "build nodes {} vs size {}",
            s.build_nodes,
            p.size()
        );
        assert!(
            s.close_nodes <= 4 * s.build_nodes,
            "close should stay small"
        );
    }

    #[test]
    fn untyped_self_application_stays_within_budget_or_errors() {
        // ω ω has no simple type; with a tiny budget the analysis either
        // finishes (it may — ω ω is small) or reports budget exhaustion,
        // but never hangs.
        let p = Program::parse("(fn x => x x) (fn x => x x)").unwrap();
        let r = Analysis::run_with(
            &p,
            AnalysisOptions {
                max_nodes: Some(50),
                ..Default::default()
            },
        );
        match r {
            Ok(a) => assert!(a.node_count() <= 50),
            Err(AnalysisError::BudgetExceeded { budget, .. }) => assert_eq!(budget, 50),
        }
    }

    #[test]
    fn datatype_extraction_congruence1() {
        let src = "\
            datatype flist = FNil | FCons of (int -> int) * flist;\n\
            fun head xs = case xs of FCons(f, t) => f | FNil => fn z => z;\n\
            head (FCons(fn a => a + 1, FNil))";
        let labels = labels_at_root(src);
        // Both the stored function and the FNil fallback can emerge.
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn call_targets() {
        let p = Program::parse("(fn x => x) 1").unwrap();
        let a = Analysis::run(&p).unwrap();
        assert_eq!(a.call_targets(&p, p.root()).unwrap().len(), 1);
    }

    #[test]
    fn witness_paths_are_real_graph_paths() {
        let p = Program::parse("(fn x => x x) (fn y => y)").unwrap();
        let a = Analysis::run(&p).unwrap();
        let l = Label::from_index(1); // λy.y
        let path = a.witness_path(p.root(), l).expect("l ∈ L(root)");
        assert!(
            path.len() >= 3,
            "Proposition 1: a multi-step path, got {}",
            path.len()
        );
        // Every hop is an actual edge.
        for w in path.windows(2) {
            assert!(
                a.succs(w[0]).contains(&(w[1].index() as u32)),
                "non-edge in witness path"
            );
        }
        assert_eq!(path.first().copied(), Some(a.node_of_expr(p.root())));
        assert_eq!(a.label_of_node(*path.last().unwrap()), Some(l));
        // No witness when the label is unreachable.
        assert!(a.witness_path(p.root(), Label::from_index(0)).is_none());
    }
}
