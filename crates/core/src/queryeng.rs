//! The frozen batch query engine over a finished subtransitive graph.
//!
//! After the build and close phases every CFA question is *graph
//! reachability* (paper, Section 2) — but [`Analysis`] answers each query
//! with a fresh BFS over growable adjacency lists, so the quadratic
//! "all label sets" listing pays `n` independent traversals with the worst
//! possible constants. [`QueryEngine`] freezes the analysis into an
//! immutable snapshot tuned for answering *many* queries:
//!
//! 1. the graph is packed into a [`Csr`] (plus its cheap transpose);
//! 2. strongly connected components are condensed
//!    ([`Condensation`]) — every node in an SCC has the same label set;
//! 3. one **reverse-topological bit-parallel sweep** computes every
//!    component's label set in `O(E·L/64)` — after which `labels_of`,
//!    `label_reaches`, `exprs_with_label`, `call_targets` and
//!    `all_label_sets` are table lookups.
//!
//! Before (or instead of) the full sweep, demand-mode queries resolve
//! through a **memoized per-component cache**: only the components
//! reachable from the queried node are summarized, and never twice.
//!
//! [`QueryEngine::batch`] completes the sweep (and, if needed, the
//! inverse index) and then answers a query list in input order on the
//! calling thread: every answer is a table read by then, cheaper than a
//! thread spawn (docs/QUERYENG.md, "Batches and threading").
//!
//! The engine is a *snapshot*: it does not follow later growth of an
//! incremental session. Snapshots taken through
//! [`IncrementalAnalysis::freeze`](crate::incremental::IncrementalAnalysis::freeze)
//! carry a generation tag and refuse to answer once stale (see
//! [`crate::incremental::SessionSnapshot`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use stcfa_graph::{Condensation, Csr};
use stcfa_lambda::{ExprId, ExprKind, Label, Program, VarId};

use crate::analysis::{Analysis, AnalysisStats};
use crate::node::NodeId;

/// One question for [`QueryEngine::batch`] (single-shot methods exist for
/// all of them too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `L(e)` for an expression occurrence.
    LabelsOf(ExprId),
    /// `L(x)` for a binder.
    LabelsOfBinder(VarId),
    /// `l ∈ L(e)`?
    Member(ExprId, Label),
    /// `{e : l ∈ L(e)}`.
    ExprsWithLabel(Label),
}

impl Query {
    /// The call-targets question for application site `app` (`L(e₁)` for
    /// `app = (e₁ e₂)`), or `None` if `app` is not an application.
    pub fn call_targets(program: &Program, app: ExprId) -> Option<Query> {
        match program.kind(app) {
            ExprKind::App { func, .. } => Some(Query::LabelsOf(*func)),
            _ => None,
        }
    }
}

/// One answer, in the same position as its [`Query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// For [`Query::LabelsOf`]/[`Query::LabelsOfBinder`]: the sorted label
    /// set.
    Labels(Vec<Label>),
    /// For [`Query::Member`].
    Member(bool),
    /// For [`Query::ExprsWithLabel`]: the sorted occurrence list.
    Exprs(Vec<ExprId>),
}

/// Work and cache-hit counters of one engine (monotone; read them with
/// [`QueryEngine::query_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries answered (single-shot and batched).
    pub queries: u64,
    /// Answers served from the completed full sweep.
    pub summary_hits: u64,
    /// Demand-mode answers served from an already-memoized component.
    pub demand_hits: u64,
    /// Components summarized on demand (the demand cache's misses).
    pub demand_misses: u64,
    /// Full bit-parallel sweeps performed (0 or 1).
    pub sweeps: u64,
    /// `batch` invocations.
    pub batches: u64,
}

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    summary_hits: AtomicU64,
    demand_hits: AtomicU64,
    demand_misses: AtomicU64,
    sweeps: AtomicU64,
    batches: AtomicU64,
}

/// Demand-mode state: per-component label rows computed so far.
struct DemandMemo {
    rows: Vec<Option<Box<[u64]>>>,
}

/// A borrowed view of an engine's frozen arrays, for serialization
/// (see [`QueryEngine::to_parts`]). Only the forward CSR and the
/// node → component assignment are exported: the reverse CSR, the DAG,
/// the member lists, the summary rows and the inverse index are all
/// rederivable in `O(V + E)` (the rows in `O(E·L/64)`) and are rebuilt
/// on decode rather than trusted off disk.
#[derive(Clone, Copy, Debug)]
pub struct EnginePartsRef<'a> {
    /// Forward CSR (offsets + targets via its accessors).
    pub csr: &'a Csr,
    /// Node → SCC id, reverse-topological.
    pub comp_of: &'a [u32],
    /// Node → label index (`u32::MAX` = none).
    pub node_label: &'a [u32],
    /// Expression occurrence → node.
    pub expr_nodes: &'a [u32],
    /// Binder → node.
    pub binder_nodes: &'a [u32],
    /// Binder → occurrence-list offsets (CSR-style over `occ_exprs`).
    pub occ_offsets: &'a [u32],
    /// Flattened variable-occurrence expression ids.
    pub occ_exprs: &'a [u32],
    /// Number of abstraction labels.
    pub label_count: usize,
    /// The frozen analysis' build-phase statistics.
    pub base_stats: AnalysisStats,
    /// The session generation tag, if any.
    pub generation: Option<u64>,
}

/// Owned decoded arrays for [`QueryEngine::from_parts`] (the persistence
/// tier's decode path). Field meanings match [`EnginePartsRef`].
#[derive(Clone, Debug, Default)]
pub struct EngineParts {
    /// Forward CSR offsets (`node_count + 1` entries).
    pub csr_offsets: Vec<u32>,
    /// Forward CSR targets.
    pub csr_targets: Vec<u32>,
    /// Node → SCC id, reverse-topological.
    pub comp_of: Vec<u32>,
    /// Node → label index (`u32::MAX` = none).
    pub node_label: Vec<u32>,
    /// Expression occurrence → node.
    pub expr_nodes: Vec<u32>,
    /// Binder → node.
    pub binder_nodes: Vec<u32>,
    /// Binder → occurrence-list offsets.
    pub occ_offsets: Vec<u32>,
    /// Flattened variable-occurrence expression ids.
    pub occ_exprs: Vec<u32>,
    /// Number of abstraction labels.
    pub label_count: usize,
    /// The frozen analysis' build-phase statistics.
    pub base_stats: AnalysisStats,
    /// The session generation tag, if any.
    pub generation: Option<u64>,
}

/// An immutable, thread-shareable query snapshot of a finished
/// [`Analysis`]. See the [module docs](self) for the design.
pub struct QueryEngine {
    /// Forward CSR (towards value sources, like [`Analysis::succs`]).
    csr: Csr,
    /// Transposed CSR (towards consumers), for demand-mode inverse queries.
    rev: Csr,
    cond: Condensation,
    /// Node → label index (`u32::MAX` = none).
    node_label: Vec<u32>,
    /// Expression occurrence → node.
    expr_nodes: Vec<u32>,
    /// Binder → node.
    binder_nodes: Vec<u32>,
    /// Binder → variable occurrences (flattened), for demand-mode inverse
    /// queries.
    occ_offsets: Vec<u32>,
    occ_exprs: Vec<u32>,
    label_count: usize,
    /// `u64` words per label row.
    words: usize,
    /// Component label rows from the full sweep (`comp_count × words`).
    summaries: OnceLock<Vec<u64>>,
    /// Label → occurrences, derived from the sweep (the inverse index).
    inverse: OnceLock<Vec<Vec<ExprId>>>,
    demand: Mutex<DemandMemo>,
    counters: Counters,
    base_stats: AnalysisStats,
    generation: Option<u64>,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("nodes", &self.csr.node_count())
            .field("edges", &self.csr.edge_count())
            .field("comps", &self.cond.comp_count())
            .field("labels", &self.label_count)
            .field("swept", &self.summaries.get().is_some())
            .field("generation", &self.generation)
            .finish()
    }
}

impl QueryEngine {
    /// Freezes a finished analysis into an immutable snapshot. `O(V + E)`.
    pub fn freeze(analysis: &Analysis) -> QueryEngine {
        Self::freeze_tagged(analysis, None)
    }

    /// Like [`QueryEngine::freeze`], but tags the snapshot with an
    /// externally managed generation counter (reported by
    /// [`QueryEngine::generation`]). Used by the session workspace
    /// (`stcfa-session`), whose linked snapshots carry the workspace
    /// generation for the same staleness discipline the REPL's
    /// [`crate::incremental::SessionSnapshot`] enforces.
    pub fn freeze_with_generation(analysis: &Analysis, generation: u64) -> QueryEngine {
        Self::freeze_tagged(analysis, Some(generation))
    }

    pub(crate) fn freeze_tagged(analysis: &Analysis, generation: Option<u64>) -> QueryEngine {
        let n = analysis.node_count();
        let csr = Csr::from_succs(n, |u| analysis.graph.succs(NodeId::from_index(u)));
        let rev = csr.reverse();
        let cond = Condensation::build(&csr);
        // Debug-mode foundation audit: the snapshot consumers (lint rules,
        // batch queries) assume the graph is rule-saturated, the CSR arrays
        // are well-formed, and condensation ids are reverse-topological.
        // Verify all three before handing out the frozen view.
        #[cfg(debug_assertions)]
        {
            if let Err(e) = analysis.check_invariants() {
                panic!("freeze audit: analysis not rule-saturated: {e}");
            }
            if let Err(e) = csr.audit() {
                panic!("freeze audit: forward CSR malformed: {e}");
            }
            if let Err(e) = rev.audit() {
                panic!("freeze audit: reverse CSR malformed: {e}");
            }
            if let Err(e) = cond.check_order() {
                panic!("freeze audit: condensation order violated: {e}");
            }
        }
        let label_count = analysis.label_nodes.len();
        let words = label_count.div_ceil(64).max(1);
        QueryEngine {
            csr,
            rev,
            cond,
            node_label: analysis.node_label.clone(),
            expr_nodes: analysis
                .expr_nodes
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
            binder_nodes: analysis
                .binder_nodes
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
            occ_offsets: analysis.occ_offsets.clone(),
            occ_exprs: analysis.occ_exprs.clone(),
            label_count,
            words,
            summaries: OnceLock::new(),
            inverse: OnceLock::new(),
            demand: Mutex::new(DemandMemo { rows: Vec::new() }),
            counters: Counters::default(),
            base_stats: analysis.stats(),
            generation,
        }
    }

    // --- persistence --------------------------------------------------------

    /// Borrows the engine's frozen arrays for serialization (the
    /// persistence tier's encode path). The parts round-trip exactly
    /// through [`QueryEngine::from_parts`]: a decoded engine answers every
    /// query identically, node for node.
    pub fn to_parts(&self) -> EnginePartsRef<'_> {
        EnginePartsRef {
            csr: &self.csr,
            comp_of: self.cond.comp_of_slice(),
            node_label: &self.node_label,
            expr_nodes: &self.expr_nodes,
            binder_nodes: &self.binder_nodes,
            occ_offsets: &self.occ_offsets,
            occ_exprs: &self.occ_exprs,
            label_count: self.label_count,
            base_stats: self.base_stats,
            generation: self.generation,
        }
    }

    /// Reassembles an engine from decoded parts (the persistence tier's
    /// decode path). The input is *untrusted* — it may come off disk — so
    /// every structural invariant the query paths rely on is re-verified:
    /// a malformed shape is a structured error, never a panic and never a
    /// wrong answer. The reverse CSR is rederived here; the summary rows
    /// and inverse index start empty and are derived on first use (or by
    /// [`QueryEngine::prepare`]), exactly as on a freshly frozen engine.
    pub fn from_parts(parts: EngineParts) -> Result<QueryEngine, String> {
        let csr = Csr::from_raw_parts(parts.csr_offsets, parts.csr_targets)?;
        let cond = Condensation::from_comp_of(&csr, parts.comp_of)?;
        let n = csr.node_count();
        if parts.node_label.len() != n {
            return Err(format!(
                "engine: node_label has {} entries for {n} nodes",
                parts.node_label.len()
            ));
        }
        for (i, &l) in parts.node_label.iter().enumerate() {
            if l != u32::MAX && l as usize >= parts.label_count {
                return Err(format!(
                    "engine: node {i} carries label {l}, out of range {}",
                    parts.label_count
                ));
            }
        }
        for (what, nodes) in [
            ("expr_nodes", &parts.expr_nodes),
            ("binder_nodes", &parts.binder_nodes),
        ] {
            if let Some(&bad) = nodes.iter().find(|&&v| v as usize >= n) {
                return Err(format!(
                    "engine: {what} references node {bad}, out of range {n}"
                ));
            }
        }
        if parts.occ_offsets.len() != parts.binder_nodes.len() + 1 {
            return Err(format!(
                "engine: occ_offsets has {} entries for {} binders",
                parts.occ_offsets.len(),
                parts.binder_nodes.len()
            ));
        }
        if parts.occ_offsets.first() != Some(&0) {
            return Err("engine: occ_offsets must start at 0".to_owned());
        }
        if parts.occ_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("engine: occ_offsets not monotone".to_owned());
        }
        if *parts.occ_offsets.last().expect("non-empty") as usize != parts.occ_exprs.len() {
            return Err(format!(
                "engine: final occ_offset {} != occurrence count {}",
                parts.occ_offsets.last().expect("non-empty"),
                parts.occ_exprs.len()
            ));
        }
        if let Some(&bad) = parts
            .occ_exprs
            .iter()
            .find(|&&e| e as usize >= parts.expr_nodes.len())
        {
            return Err(format!(
                "engine: occurrence references expression {bad}, out of range {}",
                parts.expr_nodes.len()
            ));
        }
        let words = parts.label_count.div_ceil(64).max(1);
        let rev = csr.reverse();
        Ok(QueryEngine {
            csr,
            rev,
            cond,
            node_label: parts.node_label,
            expr_nodes: parts.expr_nodes,
            binder_nodes: parts.binder_nodes,
            occ_offsets: parts.occ_offsets,
            occ_exprs: parts.occ_exprs,
            label_count: parts.label_count,
            words,
            summaries: OnceLock::new(),
            inverse: OnceLock::new(),
            demand: Mutex::new(DemandMemo { rows: Vec::new() }),
            counters: Counters::default(),
            base_stats: parts.base_stats,
            generation: parts.generation,
        })
    }

    // --- snapshot shape -----------------------------------------------------

    /// Number of graph nodes frozen into the snapshot.
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of graph edges frozen into the snapshot.
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// Number of strongly connected components.
    pub fn comp_count(&self) -> usize {
        self.cond.comp_count()
    }

    /// Number of abstraction labels.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// The generation of the incremental session this snapshot was frozen
    /// from, if any (see [`crate::incremental::SessionSnapshot`]).
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// An estimate of this snapshot's resident heap weight, in bytes:
    /// both CSR directions, the condensation, the node/expression index
    /// arrays, and — when materialized — the summary rows and inverse
    /// index. Cache layers use it for byte-accounted capacity decisions;
    /// it deliberately over-counts slightly rather than under-counting.
    pub fn approx_bytes(&self) -> usize {
        let nodes = self.csr.node_count();
        let edges = self.csr.edge_count();
        // Forward + reverse CSR: offsets (nodes+1 each) and targets.
        let csr = 2 * (4 * (nodes + 1) + 4 * edges);
        // Condensation: comp-of array, member lists, DAG edges (bounded
        // by the graph's edges).
        let cond = 4 * nodes + 4 * nodes + 8 * (self.cond.comp_count() + 1) + 4 * edges;
        let indexes = 4 * self.node_label.len()
            + 4 * self.expr_nodes.len()
            + 4 * self.binder_nodes.len()
            + 4 * self.occ_offsets.len()
            + 4 * self.occ_exprs.len();
        let summaries = self
            .summaries
            .get()
            .map_or(0, |rows| rows.len() * std::mem::size_of::<u64>());
        let inverse = self
            .inverse
            .get()
            .map_or(0, |idx| idx.iter().map(|v| 24 + 4 * v.len()).sum());
        csr + cond + indexes + summaries + inverse
    }

    /// The frozen forward CSR.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The frozen reverse CSR.
    pub fn rev_csr(&self) -> &Csr {
        &self.rev
    }

    /// The SCC condensation.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    // --- relation views -----------------------------------------------------
    //
    // Zero-copy accessors for the rule engine (`stcfa-rules`): its
    // extensional relations are views over these frozen arrays, so a rule
    // program evaluates against the same memory the hand-fused analyses
    // read — no copies, no re-derivation.

    /// `u64` words per component label row (`⌈label_count/64⌉`, min 1).
    pub fn row_words(&self) -> usize {
        self.words
    }

    /// The completed-sweep label row of component `c`, as raw bit words
    /// ([`QueryEngine::row_words`] of them). Forces the full sweep on
    /// first call. Bit `l` set means label `l` reaches the component.
    pub fn summary_row(&self, c: usize) -> &[u64] {
        let rows = self.summaries();
        &rows[c * self.words..(c + 1) * self.words]
    }

    /// `L(e)` as the raw label row of `e`'s component (see
    /// [`QueryEngine::summary_row`]): no copy, no allocation. Forces the
    /// full sweep on first call.
    pub fn label_row(&self, e: ExprId) -> &[u64] {
        self.summary_row(self.cond.comp_of(self.expr_nodes[e.index()] as usize))
    }

    /// The graph node carrying expression occurrence `e`.
    pub fn node_of_expr(&self, e: ExprId) -> NodeId {
        NodeId::from_index(self.expr_nodes[e.index()] as usize)
    }

    /// The graph node carrying binder `v`.
    pub fn node_of_binder(&self, v: VarId) -> NodeId {
        NodeId::from_index(self.binder_nodes[v.index()] as usize)
    }

    /// The abstraction label introduced *at* `node` (its own bit in the
    /// sweep), if any. Several nodes may carry the same label under
    /// polyvariant instantiation.
    pub fn own_label(&self, node: NodeId) -> Option<Label> {
        match self.node_label[node.index()] {
            u32::MAX => None,
            l => Some(Label::from_index(l as usize)),
        }
    }

    // --- label rows ---------------------------------------------------------

    /// Seeds `row` with the labels carried by the members of component `c`.
    fn own_bits(&self, c: usize, row: &mut [u64]) {
        for &m in self.cond.members(c) {
            let l = self.node_label[m as usize];
            if l != u32::MAX {
                row[(l / 64) as usize] |= 1u64 << (l % 64);
            }
        }
    }

    /// The full sweep: every component's label row, computed bottom-up in
    /// one pass. Component ids are in reverse topological order (edges go
    /// to smaller ids), so processing `0, 1, 2, …` sees every successor
    /// finished.
    fn summaries(&self) -> &[u64] {
        self.summaries.get_or_init(|| {
            self.counters.sweeps.fetch_add(1, Ordering::Relaxed);
            let cc = self.cond.comp_count();
            let w = self.words;
            let mut rows = vec![0u64; cc * w];
            for c in 0..cc {
                let (done, current) = rows.split_at_mut(c * w);
                let row = &mut current[..w];
                for &s in self.cond.dag().succs(c) {
                    let s = s as usize;
                    debug_assert!(s < c, "condensation order violated");
                    let src = &done[s * w..(s + 1) * w];
                    for (a, b) in row.iter_mut().zip(src) {
                        *a |= b;
                    }
                }
                self.own_bits(c, row);
            }
            rows
        })
    }

    /// Forces the full summary sweep now (it otherwise runs lazily on the
    /// first whole-graph query or batch). Call before a long run of
    /// single-shot queries to skip demand mode entirely.
    pub fn prepare(&self) {
        self.summaries();
    }

    /// The label row of `node`'s component, preferring the completed sweep
    /// and falling back to the memoized demand cache.
    fn row_of_node(&self, node: usize) -> Box<[u64]> {
        let c = self.cond.comp_of(node);
        if let Some(rows) = self.summaries.get() {
            self.counters.summary_hits.fetch_add(1, Ordering::Relaxed);
            return rows[c * self.words..(c + 1) * self.words].into();
        }
        self.demand_row(c)
    }

    /// Demand mode: summarize only the components reachable from `c`,
    /// memoizing every row computed along the way.
    fn demand_row(&self, c: usize) -> Box<[u64]> {
        let w = self.words;
        let mut memo = self.demand.lock().expect("demand cache poisoned");
        if memo.rows.is_empty() {
            memo.rows = (0..self.cond.comp_count()).map(|_| None).collect();
        }
        if let Some(row) = &memo.rows[c] {
            self.counters.demand_hits.fetch_add(1, Ordering::Relaxed);
            return row.clone();
        }
        // Collect the unmemoized components reachable from `c`. Their ids
        // are all ≤ c (reverse-topological numbering), so computing them in
        // increasing id order sees every dependency finished.
        let mut todo: Vec<usize> = Vec::new();
        let mut stack = vec![c];
        let mut seen = vec![false; self.cond.comp_count()];
        seen[c] = true;
        while let Some(x) = stack.pop() {
            if memo.rows[x].is_some() {
                continue;
            }
            todo.push(x);
            for &s in self.cond.dag().succs(x) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s as usize);
                }
            }
        }
        todo.sort_unstable();
        self.counters
            .demand_misses
            .fetch_add(todo.len() as u64, Ordering::Relaxed);
        for &x in &todo {
            let mut row = vec![0u64; w].into_boxed_slice();
            for &s in self.cond.dag().succs(x) {
                let src = memo.rows[s as usize].as_ref().expect("dependency computed");
                for (a, b) in row.iter_mut().zip(src.iter()) {
                    *a |= b;
                }
            }
            self.own_bits(x, &mut row);
            memo.rows[x] = Some(row);
        }
        memo.rows[c].as_ref().expect("just computed").clone()
    }

    fn row_to_labels(&self, row: &[u64]) -> Vec<Label> {
        let mut out = Vec::new();
        for (wi, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push(Label::from_index(wi * 64 + b));
            }
        }
        out
    }

    // --- queries ------------------------------------------------------------

    /// `L(e)`, sorted — identical to [`Analysis::labels_of`].
    pub fn labels_of(&self, e: ExprId) -> Vec<Label> {
        self.labels_from_node(NodeId::from_index(self.expr_nodes[e.index()] as usize))
    }

    /// `L(x)` for a binder — identical to [`Analysis::labels_of_binder`].
    pub fn labels_of_binder(&self, v: VarId) -> Vec<Label> {
        self.labels_from_node(NodeId::from_index(self.binder_nodes[v.index()] as usize))
    }

    /// Labels reachable from an arbitrary graph node.
    pub fn labels_from_node(&self, start: NodeId) -> Vec<Label> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let row = self.row_of_node(start.index());
        self.row_to_labels(&row)
    }

    /// Is `l ∈ L(e)`? — identical to [`Analysis::label_reaches`].
    pub fn label_reaches(&self, e: ExprId, l: Label) -> bool {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let row = self.row_of_node(self.expr_nodes[e.index()] as usize);
        let i = l.index();
        row[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The label → occurrences inverse index, derived from the sweep: one
    /// scan over the expressions, `O(n·L/64 + output)` once, `O(1)` per
    /// query after.
    fn inverse_index(&self) -> &Vec<Vec<ExprId>> {
        self.inverse.get_or_init(|| {
            let rows = self.summaries();
            let w = self.words;
            let mut index: Vec<Vec<ExprId>> = vec![Vec::new(); self.label_count];
            for (i, &node) in self.expr_nodes.iter().enumerate() {
                let c = self.cond.comp_of(node as usize);
                let row = &rows[c * w..(c + 1) * w];
                for (wi, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        index[wi * 64 + b].push(ExprId::from_index(i));
                    }
                }
            }
            index
        })
    }

    /// `{e : l ∈ L(e)}`, sorted — identical to
    /// [`Analysis::exprs_with_label`]. First call builds the full inverse
    /// index; every later call is a table lookup.
    pub fn exprs_with_label(&self, l: Label) -> Vec<ExprId> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        if self.inverse.get().is_some() {
            self.counters.summary_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.inverse_index()[l.index()].clone()
    }

    /// Demand-mode inverse query: reverse reachability over the transposed
    /// CSR from every carrier of `l`, without building the full index.
    /// Identical answers to [`QueryEngine::exprs_with_label`]; linear in
    /// the graph per call. Exposed for consumers that ask about one or two
    /// labels and then throw the snapshot away.
    pub fn exprs_with_label_demand(&self, l: Label) -> Vec<ExprId> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let n = self.csr.node_count();
        let mut seen = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        // Every carrier of `l` (the abstraction, plus instance roots under
        // polyvariance) seeds the reverse traversal.
        for (node, &lab) in self.node_label.iter().enumerate() {
            if lab as usize == l.index() && !seen[node] {
                seen[node] = true;
                stack.push(node as u32);
            }
        }
        let mut out: Vec<ExprId> = Vec::new();
        let mut hit = vec![false; self.expr_nodes.len().max(1)];
        while let Some(u) = stack.pop() {
            for &p in self.rev.succs(u as usize) {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        // One pass over the occurrences: an expression is in the answer iff
        // its node was reached.
        for (i, &node) in self.expr_nodes.iter().enumerate() {
            if seen[node as usize] && !hit[i] {
                hit[i] = true;
                out.push(ExprId::from_index(i));
            }
        }
        out
    }

    /// All label sets — one row lookup per occurrence after a single
    /// `O(E·L/64)` sweep, against `n` BFS traversals on the unfrozen
    /// analysis.
    pub fn all_label_sets(&self) -> Vec<(ExprId, Vec<Label>)> {
        let rows = self.summaries();
        let w = self.words;
        self.counters
            .queries
            .fetch_add(self.expr_nodes.len() as u64, Ordering::Relaxed);
        self.counters
            .summary_hits
            .fetch_add(self.expr_nodes.len() as u64, Ordering::Relaxed);
        self.expr_nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                let c = self.cond.comp_of(node as usize);
                let labels = self.row_to_labels(&rows[c * w..(c + 1) * w]);
                (ExprId::from_index(i), labels)
            })
            .collect()
    }

    /// The functions callable from application site `app`, or `None` if
    /// `app` is not an application — identical to
    /// [`Analysis::call_targets`].
    pub fn call_targets(&self, program: &Program, app: ExprId) -> Option<Vec<Label>> {
        match program.kind(app) {
            ExprKind::App { func, .. } => Some(self.labels_of(*func)),
            _ => None,
        }
    }

    /// Known-call evidence for the optimizer backend: every application
    /// site whose engine target set is a *singleton*, with that sole
    /// target, in site order (answered as one positional batch).
    pub fn singleton_call_targets(&self, program: &Program) -> Vec<(ExprId, Label)> {
        let apps = program.app_sites();
        let queries: Vec<Query> = apps
            .iter()
            .filter_map(|&a| Query::call_targets(program, a))
            .collect();
        let answers = self.batch(&queries);
        apps.iter()
            .zip(&answers)
            .filter_map(|(&app, answer)| match answer {
                Answer::Labels(labels) if labels.len() == 1 => Some((app, labels[0])),
                _ => None,
            })
            .collect()
    }

    /// The number of distinct variable occurrences of binder `v` — the
    /// sole-occurrence test behind called-once inlining, without
    /// materializing the occurrence list.
    pub fn occurrence_count(&self, v: VarId) -> usize {
        self.occ_offsets[v.index() + 1] as usize - self.occ_offsets[v.index()] as usize
    }

    /// The variable occurrences of binder `v` (frozen from the analysis;
    /// used by consumers that walk inverse results back to source).
    pub fn occurrences_of(&self, v: VarId) -> impl Iterator<Item = ExprId> + '_ {
        self.occ_exprs
            [self.occ_offsets[v.index()] as usize..self.occ_offsets[v.index() + 1] as usize]
            .iter()
            .map(|&e| ExprId::from_index(e as usize))
    }

    // --- batch --------------------------------------------------------------

    fn answer(&self, q: &Query) -> Answer {
        match *q {
            Query::LabelsOf(e) => Answer::Labels(self.labels_of(e)),
            Query::LabelsOfBinder(v) => Answer::Labels(self.labels_of_binder(v)),
            Query::Member(e, l) => Answer::Member(self.label_reaches(e, l)),
            Query::ExprsWithLabel(l) => Answer::Exprs(self.exprs_with_label(l)),
        }
    }

    /// Answers `queries` in input order. The full sweep (and, if needed,
    /// the inverse index) is completed up front, after which every answer
    /// is a pure read of the frozen tables.
    pub fn batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.summaries();
        if queries
            .iter()
            .any(|q| matches!(q, Query::ExprsWithLabel(_)))
        {
            self.inverse_index();
        }
        queries.iter().map(|q| self.answer(q)).collect()
    }

    // --- counters -----------------------------------------------------------

    /// A snapshot of the work/cache counters.
    pub fn query_stats(&self) -> QueryStats {
        QueryStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            summary_hits: self.counters.summary_hits.load(Ordering::Relaxed),
            demand_hits: self.counters.demand_hits.load(Ordering::Relaxed),
            demand_misses: self.counters.demand_misses.load(Ordering::Relaxed),
            sweeps: self.counters.sweeps.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
        }
    }

    /// The frozen analysis' [`AnalysisStats`] with this engine's query
    /// counters filled in.
    pub fn stats(&self) -> AnalysisStats {
        let q = self.query_stats();
        AnalysisStats {
            queries_answered: q.queries,
            query_cache_hits: q.summary_hits + q.demand_hits,
            query_cache_misses: q.demand_misses + q.sweeps,
            ..self.base_stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_lambda::Program;

    fn engine_for(src: &str) -> (Program, Analysis, QueryEngine) {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        let q = QueryEngine::freeze(&a);
        (p, a, q)
    }

    const SELF_APP: &str = "(fn x => x x) (fn y => y)";
    const JOIN: &str = "fun id x = x;\nval a = id (fn u => u);\nval b = id (fn v => v);\na";

    #[test]
    fn labels_match_bfs_reference() {
        for src in [SELF_APP, JOIN, "#1 ((fn x => x), (fn y => y)) 4"] {
            let (p, a, q) = engine_for(src);
            for e in p.exprs() {
                assert_eq!(q.labels_of(e), a.labels_of(e), "at {e:?} in {src:?}");
            }
            for v in p.vars() {
                assert_eq!(q.labels_of_binder(v), a.labels_of_binder(v));
            }
        }
    }

    #[test]
    fn member_and_inverse_match_bfs_reference() {
        for src in [SELF_APP, JOIN] {
            let (p, a, q) = engine_for(src);
            for l in p.all_labels() {
                assert_eq!(q.exprs_with_label(l), a.exprs_with_label(l), "{l:?}");
                assert_eq!(q.exprs_with_label_demand(l), a.exprs_with_label(l));
                for e in p.exprs() {
                    assert_eq!(q.label_reaches(e, l), a.label_reaches(e, l));
                }
            }
        }
    }

    #[test]
    fn all_label_sets_matches_bfs_reference() {
        let (p, a, q) = engine_for(JOIN);
        assert_eq!(q.all_label_sets(), a.all_label_sets(&p));
    }

    #[test]
    fn call_targets_match() {
        let (p, a, q) = engine_for("(fn x => x) (fn y => y)");
        for e in p.exprs() {
            assert_eq!(q.call_targets(&p, e), a.call_targets(&p, e));
        }
    }

    #[test]
    fn demand_mode_memoizes() {
        let (p, _, q) = engine_for(JOIN);
        let e = p.root();
        let first = q.labels_of(e);
        let s1 = q.query_stats();
        assert!(s1.demand_misses > 0, "first query computes components");
        assert_eq!(s1.sweeps, 0, "no full sweep in demand mode");
        let second = q.labels_of(e);
        let s2 = q.query_stats();
        assert_eq!(first, second);
        assert_eq!(
            s2.demand_misses, s1.demand_misses,
            "second query is a cache hit"
        );
        assert_eq!(s2.demand_hits, s1.demand_hits + 1);
    }

    #[test]
    fn batch_is_input_ordered_and_thread_invariant() {
        let (p, _, q) = engine_for(JOIN);
        let mut queries: Vec<Query> = p.exprs().map(Query::LabelsOf).collect();
        queries.extend(p.all_labels().map(Query::ExprsWithLabel));
        queries.extend(
            p.exprs()
                .flat_map(|e| p.all_labels().map(move |l| Query::Member(e, l))),
        );
        let answers = q.batch(&queries);
        assert_eq!(answers.len(), queries.len());
        for (query, answer) in queries.iter().zip(&answers) {
            assert_eq!(answer, &q.answer(query), "{query:?}");
        }
        assert_eq!(q.query_stats().batches, 1);
    }

    fn owned_parts(q: &QueryEngine) -> EngineParts {
        let p = q.to_parts();
        EngineParts {
            csr_offsets: p.csr.offsets().to_vec(),
            csr_targets: p.csr.targets().to_vec(),
            comp_of: p.comp_of.to_vec(),
            node_label: p.node_label.to_vec(),
            expr_nodes: p.expr_nodes.to_vec(),
            binder_nodes: p.binder_nodes.to_vec(),
            occ_offsets: p.occ_offsets.to_vec(),
            occ_exprs: p.occ_exprs.to_vec(),
            label_count: p.label_count,
            base_stats: p.base_stats,
            generation: p.generation,
        }
    }

    #[test]
    fn parts_round_trip_answers_identically() {
        for src in [SELF_APP, JOIN, "#1 ((fn x => x), (fn y => y)) 4"] {
            let (p, _, q) = engine_for(src);
            q.prepare();
            let r = QueryEngine::from_parts(owned_parts(&q)).expect("round trip");
            // The parts carry no summary rows: the rebuilt engine derives
            // its own with one sweep when prepared.
            assert_eq!(r.query_stats().sweeps, 0);
            r.prepare();
            assert_eq!(r.query_stats().sweeps, 1);
            for e in p.exprs() {
                assert_eq!(q.labels_of(e), r.labels_of(e), "at {e:?} in {src:?}");
            }
            for v in p.vars() {
                assert_eq!(q.labels_of_binder(v), r.labels_of_binder(v));
                assert_eq!(
                    q.occurrences_of(v).collect::<Vec<_>>(),
                    r.occurrences_of(v).collect::<Vec<_>>()
                );
            }
            for l in p.all_labels() {
                assert_eq!(q.exprs_with_label(l), r.exprs_with_label(l));
            }
            assert_eq!(q.all_label_sets(), r.all_label_sets());
            assert_eq!(q.base_stats, r.base_stats);
            assert_eq!(q.generation(), r.generation());
            // Prepared, it answers from its own sweep: no demand-mode
            // misses, no second sweep.
            assert_eq!(r.query_stats().sweeps, 1);
            assert_eq!(r.query_stats().demand_misses, 0);
        }
    }

    #[test]
    fn from_parts_rejects_malformed_shapes() {
        let (_, _, q) = engine_for(JOIN);
        q.prepare();
        let good = owned_parts(&q);
        assert!(QueryEngine::from_parts(good.clone()).is_ok());
        type Mutation = Box<dyn Fn(&mut EngineParts)>;
        let cases: Vec<(&str, Mutation)> = vec![
            (
                "truncated node_label",
                Box::new(|p| {
                    p.node_label.pop();
                }),
            ),
            (
                "label out of range",
                Box::new(|p| p.node_label[0] = 1 << 20),
            ),
            (
                "expr node out of range",
                Box::new(|p| p.expr_nodes[0] = u32::MAX - 1),
            ),
            (
                "binder node out of range",
                Box::new(|p| p.binder_nodes[0] = u32::MAX - 1),
            ),
            (
                "occ_offsets non-monotone",
                Box::new(|p| p.occ_offsets[0] = 9),
            ),
            (
                "occurrence out of range",
                Box::new(|p| {
                    if p.occ_exprs.is_empty() {
                        p.occ_exprs.push(u32::MAX);
                        p.occ_offsets.pop();
                    } else {
                        p.occ_exprs[0] = u32::MAX;
                    }
                }),
            ),
            (
                "comp_of length mismatch",
                Box::new(|p| {
                    p.comp_of.pop();
                }),
            ),
            ("csr offsets corrupted", Box::new(|p| p.csr_offsets[0] = 3)),
        ];
        for (what, mutate) in cases {
            let mut parts = good.clone();
            mutate(&mut parts);
            assert!(
                QueryEngine::from_parts(parts).is_err(),
                "{what}: malformed parts must be a structured error"
            );
        }
    }

    #[test]
    fn stats_merge_into_analysis_stats() {
        let (p, a, q) = engine_for(SELF_APP);
        let _ = q.labels_of(p.root());
        let s = q.stats();
        assert_eq!(s.build_nodes, a.stats().build_nodes);
        assert_eq!(s.queries_answered, 1);
        assert!(s.query_cache_misses > 0);
    }
}
