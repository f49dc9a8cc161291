//! Extensional relations: zero-copy views over the frozen engine.
//!
//! The rule engine never materializes its inputs. Every extensional
//! relation in the catalog below is answered straight out of structures
//! the analysis already owns:
//!
//! | relation | view over |
//! |----------|-----------|
//! | `edge(node, node)` | the frozen forward CSR (`QueryEngine::csr`) |
//! | `dag_edge(comp, comp)` | the SCC condensation DAG |
//! | `node_comp(node, comp)` | `Condensation::comp_of` |
//! | `comp_label(comp, label)` | the per-SCC summary bit rows (word slices) |
//! | `expr_node(expr, node)` | the frozen occurrence→node array |
//! | `expr_label(expr, label)` | the summary row of the occurrence's SCC |
//! | `label_origin(label, node)` | the nodes carrying each label's own bit |
//! | `occurrence(var, expr)` | the frozen binder→occurrences index |
//! | `lam_label(label, expr)` | `Program::lam_of_label` |
//! | `param(var, expr)` | the λ parameter of each abstraction |
//! | `app_func(expr, expr)` | application sites and their operators |
//! | `root_expr(expr)` | the program root |
//! | `effectful_label(label)` / `pure_label(label)` | the linear effects colouring |
//! | `machinery_label(label)` | `$`-parameter (desugaring) lambdas |
//! | `exempt_var(var)` | `_`/`$`-prefixed binders |
//! | `cg_edge(cgnode, cgnode)` | the call graph (labels + virtual root) |
//! | `cg_entry(cgnode)` / `cg_node(cgnode)` | the call graph's root / node set |
//! | `app_encloser(expr, cgnode)` | each application's enclosing abstraction |
//!
//! `comp_label` and `expr_label` additionally expose their raw `u64`
//! rows ([`ExtDb::row_words`]), which the evaluator unions word-parallel
//! into rule heads — the same `O(E·L/64)` arithmetic the hand-fused
//! sweep consumers use.
//!
//! Derived inputs that are not free (the effects colouring, the call
//! graph with its encloser map) are computed lazily, at most once per
//! [`ExtDb`], and only when a program actually references them.

use std::cell::OnceCell;

use stcfa_apps::callgraph::CallGraph;
use stcfa_apps::effects::{effects, Effects};
use stcfa_core::{Analysis, NodeId, QueryEngine};
use stcfa_graph::bitset::ones;
use stcfa_lambda::{ExprId, ExprKind, Label, Program, VarId};

use crate::program::Dom;

/// One extensional relation from the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EdbRel {
    Edge,
    DagEdge,
    NodeComp,
    CompLabel,
    ExprNode,
    ExprLabel,
    LabelOrigin,
    Occurrence,
    LamLabel,
    Param,
    AppFunc,
    RootExpr,
    EffectfulLabel,
    PureLabel,
    MachineryLabel,
    ExemptVar,
    CgEdge,
    CgEntry,
    CgNode,
    AppEncloser,
}

/// The catalog: wire name, view, schema.
const CATALOG: &[(&str, EdbRel, &[Dom])] = &[
    ("edge", EdbRel::Edge, &[Dom::Node, Dom::Node]),
    ("dag_edge", EdbRel::DagEdge, &[Dom::Comp, Dom::Comp]),
    ("node_comp", EdbRel::NodeComp, &[Dom::Node, Dom::Comp]),
    ("comp_label", EdbRel::CompLabel, &[Dom::Comp, Dom::Label]),
    ("expr_node", EdbRel::ExprNode, &[Dom::Expr, Dom::Node]),
    ("expr_label", EdbRel::ExprLabel, &[Dom::Expr, Dom::Label]),
    (
        "label_origin",
        EdbRel::LabelOrigin,
        &[Dom::Label, Dom::Node],
    ),
    ("occurrence", EdbRel::Occurrence, &[Dom::Var, Dom::Expr]),
    ("lam_label", EdbRel::LamLabel, &[Dom::Label, Dom::Expr]),
    ("param", EdbRel::Param, &[Dom::Var, Dom::Expr]),
    ("app_func", EdbRel::AppFunc, &[Dom::Expr, Dom::Expr]),
    ("root_expr", EdbRel::RootExpr, &[Dom::Expr]),
    ("effectful_label", EdbRel::EffectfulLabel, &[Dom::Label]),
    ("pure_label", EdbRel::PureLabel, &[Dom::Label]),
    ("machinery_label", EdbRel::MachineryLabel, &[Dom::Label]),
    ("exempt_var", EdbRel::ExemptVar, &[Dom::Var]),
    ("cg_edge", EdbRel::CgEdge, &[Dom::CgNode, Dom::CgNode]),
    ("cg_entry", EdbRel::CgEntry, &[Dom::CgNode]),
    ("cg_node", EdbRel::CgNode, &[Dom::CgNode]),
    (
        "app_encloser",
        EdbRel::AppEncloser,
        &[Dom::Expr, Dom::CgNode],
    ),
];

/// The catalog schema of an extensional relation name, if it exists.
pub fn edb_schema(name: &str) -> Option<&'static [Dom]> {
    CATALOG
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, schema)| *schema)
}

/// Every extensional relation name in the catalog, with its schema.
pub fn edb_catalog() -> impl Iterator<Item = (&'static str, &'static [Dom])> {
    CATALOG.iter().map(|(n, _, s)| (*n, *s))
}

impl EdbRel {
    pub(crate) fn from_name(name: &str) -> Option<EdbRel> {
        CATALOG
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, rel, _)| *rel)
    }
}

/// The extensional database: borrowed program/analysis/engine plus the
/// lazily derived inputs. `engine` must be frozen from `analysis`.
pub struct ExtDb<'a> {
    program: &'a Program,
    analysis: &'a Analysis,
    engine: &'a QueryEngine,
    effects: OnceCell<Effects>,
    callgraph: OnceCell<CallGraph>,
    /// Binder → its λ's expression (`u32::MAX` = not a λ parameter).
    param_lam: OnceCell<Vec<u32>>,
    /// Label → the nodes carrying its own bit.
    origins: OnceCell<Vec<Vec<u32>>>,
    apps: OnceCell<Vec<ExprId>>,
}

impl<'a> ExtDb<'a> {
    /// Wraps the borrowed inputs. `engine` must be frozen from
    /// `analysis` over `program` (the same contract the lint crate's
    /// `lint()` documents).
    pub fn new(program: &'a Program, analysis: &'a Analysis, engine: &'a QueryEngine) -> ExtDb<'a> {
        ExtDb {
            program,
            analysis,
            engine,
            effects: OnceCell::new(),
            callgraph: OnceCell::new(),
            param_lam: OnceCell::new(),
            origins: OnceCell::new(),
            apps: OnceCell::new(),
        }
    }

    /// The borrowed program.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The borrowed frozen engine.
    pub fn engine(&self) -> &'a QueryEngine {
        self.engine
    }

    /// The size of a domain's dense index space.
    pub fn dom_size(&self, dom: Dom) -> usize {
        match dom {
            Dom::Node => self.engine.node_count(),
            Dom::Comp => self.engine.comp_count(),
            Dom::Label => self.engine.label_count(),
            Dom::Expr => self.program.size(),
            Dom::Var => self.program.var_count(),
            Dom::CgNode => self.engine.label_count() + 1,
        }
    }

    // --- lazily derived inputs ---------------------------------------------

    /// The linear effects colouring (computed once, on first use).
    pub fn effects(&self) -> &Effects {
        self.effects
            .get_or_init(|| effects(self.program, self.analysis))
    }

    /// Whether the body of the abstraction carrying `l` may perform
    /// effects, read off the linear colouring (the `effectful_label`
    /// view; `pure_label` is its complement).
    pub fn label_is_effectful(&self, l: Label) -> bool {
        match self.program.kind(self.program.lam_of_label(l)) {
            ExprKind::Lam { body, .. } => self.effects().is_effectful(*body),
            _ => false,
        }
    }

    /// The call graph (computed once, on first use).
    pub fn callgraph(&self) -> &CallGraph {
        self.callgraph
            .get_or_init(|| CallGraph::build_with_engine(self.program, self.engine))
    }

    /// The application sites, in program order.
    pub fn app_sites(&self) -> &[ExprId] {
        self.apps.get_or_init(|| self.program.app_sites())
    }

    /// The call-graph node lexically enclosing `e` (the call graph's
    /// encloser map, as a relation column).
    fn encloser_of(&self, e: ExprId) -> u32 {
        self.callgraph().encloser_of(e) as u32
    }

    fn param_lam(&self) -> &[u32] {
        self.param_lam.get_or_init(|| {
            let mut out = vec![u32::MAX; self.program.var_count()];
            for e in self.program.exprs() {
                if let ExprKind::Lam { param, .. } = self.program.kind(e) {
                    out[param.index()] = e.index() as u32;
                }
            }
            out
        })
    }

    fn origins(&self) -> &[Vec<u32>] {
        self.origins.get_or_init(|| {
            let mut out = vec![Vec::new(); self.engine.label_count()];
            for n in 0..self.engine.node_count() {
                if let Some(l) = self.engine.own_label(NodeId::from_index(n)) {
                    out[l.index()].push(n as u32);
                }
            }
            out
        })
    }

    fn label_is_machinery(&self, l: usize) -> bool {
        let lam = self.program.lam_of_label(Label::from_index(l));
        match self.program.kind(lam) {
            ExprKind::Lam { param, .. } => self.program.var_name(*param).starts_with('$'),
            _ => false,
        }
    }

    fn var_is_exempt(&self, v: usize) -> bool {
        let name = self.program.var_name(VarId::from_index(v));
        name.starts_with('_') || name.starts_with('$')
    }

    fn app_operator(&self, e: usize) -> Option<u32> {
        match self.program.kind(ExprId::from_index(e)) {
            ExprKind::App { func, .. } => Some(func.index() as u32),
            _ => None,
        }
    }

    // --- relation access ----------------------------------------------------
    //
    // Keys arriving here come from joins over the relation's declared
    // domains, so they are always in range for the corresponding arrays;
    // constants supplied by rule authors are checked by the evaluator
    // against `dom_size` before they get this far.

    /// Enumerates a relation's tuples (unary relations emit `b = 0`).
    pub(crate) fn for_each(&self, rel: EdbRel, f: &mut dyn FnMut(u32, u32)) {
        match rel {
            EdbRel::Edge => {
                for u in 0..self.engine.node_count() {
                    for &v in self.engine.csr().succs(u) {
                        f(u as u32, v);
                    }
                }
            }
            EdbRel::DagEdge => {
                let dag = self.engine.condensation().dag();
                for c in 0..self.engine.comp_count() {
                    for &d in dag.succs(c) {
                        f(c as u32, d);
                    }
                }
            }
            EdbRel::NodeComp => {
                let cond = self.engine.condensation();
                for n in 0..self.engine.node_count() {
                    f(n as u32, cond.comp_of(n) as u32);
                }
            }
            EdbRel::CompLabel => {
                for c in 0..self.engine.comp_count() {
                    self.for_each_matching(rel, c as u32, &mut |l| f(c as u32, l));
                }
            }
            EdbRel::ExprNode => {
                for e in 0..self.program.size() {
                    let n = self.engine.node_of_expr(ExprId::from_index(e));
                    f(e as u32, n.index() as u32);
                }
            }
            EdbRel::ExprLabel => {
                for e in 0..self.program.size() {
                    self.for_each_matching(rel, e as u32, &mut |l| f(e as u32, l));
                }
            }
            EdbRel::LabelOrigin => {
                for (l, nodes) in self.origins().iter().enumerate() {
                    for &n in nodes {
                        f(l as u32, n);
                    }
                }
            }
            EdbRel::Occurrence => {
                for v in 0..self.program.var_count() {
                    for e in self.engine.occurrences_of(VarId::from_index(v)) {
                        f(v as u32, e.index() as u32);
                    }
                }
            }
            EdbRel::LamLabel => {
                for l in self.program.all_labels() {
                    f(
                        l.index() as u32,
                        self.program.lam_of_label(l).index() as u32,
                    );
                }
            }
            EdbRel::Param => {
                for (v, &lam) in self.param_lam().iter().enumerate() {
                    if lam != u32::MAX {
                        f(v as u32, lam);
                    }
                }
            }
            EdbRel::AppFunc => {
                for &a in self.app_sites() {
                    if let Some(func) = self.app_operator(a.index()) {
                        f(a.index() as u32, func);
                    }
                }
            }
            EdbRel::RootExpr => f(self.program.root().index() as u32, 0),
            EdbRel::EffectfulLabel => {
                for l in 0..self.engine.label_count() {
                    if self.label_is_effectful(Label::from_index(l)) {
                        f(l as u32, 0);
                    }
                }
            }
            EdbRel::PureLabel => {
                for l in 0..self.engine.label_count() {
                    if !self.label_is_effectful(Label::from_index(l)) {
                        f(l as u32, 0);
                    }
                }
            }
            EdbRel::MachineryLabel => {
                for l in 0..self.engine.label_count() {
                    if self.label_is_machinery(l) {
                        f(l as u32, 0);
                    }
                }
            }
            EdbRel::ExemptVar => {
                for v in 0..self.program.var_count() {
                    if self.var_is_exempt(v) {
                        f(v as u32, 0);
                    }
                }
            }
            EdbRel::CgEdge => {
                let g = self.callgraph().graph();
                for u in 0..g.node_count() {
                    for &v in g.succs(u) {
                        f(u as u32, v);
                    }
                }
            }
            EdbRel::CgEntry => f(self.engine.label_count() as u32, 0),
            EdbRel::CgNode => {
                for n in 0..=self.engine.label_count() {
                    f(n as u32, 0);
                }
            }
            EdbRel::AppEncloser => {
                for &a in self.app_sites() {
                    f(a.index() as u32, self.encloser_of(a));
                }
            }
        }
    }

    /// Enumerates the second column of a binary relation under a bound
    /// first column.
    pub(crate) fn for_each_matching(&self, rel: EdbRel, key: u32, f: &mut dyn FnMut(u32)) {
        match rel {
            EdbRel::Edge => {
                for &v in self.engine.csr().succs(key as usize) {
                    f(v);
                }
            }
            EdbRel::DagEdge => {
                for &d in self.engine.condensation().dag().succs(key as usize) {
                    f(d);
                }
            }
            EdbRel::NodeComp => f(self.engine.condensation().comp_of(key as usize) as u32),
            EdbRel::CompLabel => {
                for l in ones(self.engine.summary_row(key as usize)) {
                    f(l as u32);
                }
            }
            EdbRel::ExprNode => f(self
                .engine
                .node_of_expr(ExprId::from_index(key as usize))
                .index() as u32),
            EdbRel::ExprLabel => {
                for l in ones(self.engine.label_row(ExprId::from_index(key as usize))) {
                    f(l as u32);
                }
            }
            EdbRel::LabelOrigin => {
                for &n in &self.origins()[key as usize] {
                    f(n);
                }
            }
            EdbRel::Occurrence => {
                for e in self.engine.occurrences_of(VarId::from_index(key as usize)) {
                    f(e.index() as u32);
                }
            }
            EdbRel::LamLabel => f(self
                .program
                .lam_of_label(Label::from_index(key as usize))
                .index() as u32),
            EdbRel::Param => {
                let lam = self.param_lam()[key as usize];
                if lam != u32::MAX {
                    f(lam);
                }
            }
            EdbRel::AppFunc => {
                if let Some(func) = self.app_operator(key as usize) {
                    f(func);
                }
            }
            EdbRel::CgEdge => {
                for &v in self.callgraph().graph().succs(key as usize) {
                    f(v);
                }
            }
            EdbRel::AppEncloser => {
                if self.app_operator(key as usize).is_some() {
                    f(self.encloser_of(ExprId::from_index(key as usize)));
                }
            }
            EdbRel::RootExpr
            | EdbRel::EffectfulLabel
            | EdbRel::PureLabel
            | EdbRel::MachineryLabel
            | EdbRel::ExemptVar
            | EdbRel::CgEntry
            | EdbRel::CgNode => unreachable!("unary relation has no second column"),
        }
    }

    /// Membership test (`b` is ignored for unary relations).
    pub(crate) fn contains(&self, rel: EdbRel, a: u32, b: u32) -> bool {
        match rel {
            EdbRel::Edge => self.engine.csr().succs(a as usize).contains(&b),
            EdbRel::DagEdge => self
                .engine
                .condensation()
                .dag()
                .succs(a as usize)
                .contains(&b),
            EdbRel::NodeComp => self.engine.condensation().comp_of(a as usize) as u32 == b,
            EdbRel::CompLabel => {
                let row = self.engine.summary_row(a as usize);
                row[b as usize / 64] & (1u64 << (b % 64)) != 0
            }
            EdbRel::ExprNode => {
                self.engine
                    .node_of_expr(ExprId::from_index(a as usize))
                    .index() as u32
                    == b
            }
            EdbRel::ExprLabel => self.engine.label_reaches(
                ExprId::from_index(a as usize),
                Label::from_index(b as usize),
            ),
            EdbRel::LabelOrigin => self.origins()[a as usize].contains(&b),
            EdbRel::Occurrence => self
                .engine
                .occurrences_of(VarId::from_index(a as usize))
                .any(|e| e.index() as u32 == b),
            EdbRel::LamLabel => {
                self.program
                    .lam_of_label(Label::from_index(a as usize))
                    .index() as u32
                    == b
            }
            EdbRel::Param => self.param_lam()[a as usize] == b,
            EdbRel::AppFunc => self.app_operator(a as usize) == Some(b),
            EdbRel::RootExpr => self.program.root().index() as u32 == a,
            EdbRel::EffectfulLabel => self.label_is_effectful(Label::from_index(a as usize)),
            EdbRel::PureLabel => !self.label_is_effectful(Label::from_index(a as usize)),
            EdbRel::MachineryLabel => self.label_is_machinery(a as usize),
            EdbRel::ExemptVar => self.var_is_exempt(a as usize),
            EdbRel::CgEdge => self.callgraph().graph().has_edge(a as usize, b as usize),
            EdbRel::CgEntry => a as usize == self.engine.label_count(),
            EdbRel::CgNode => (a as usize) <= self.engine.label_count(),
            EdbRel::AppEncloser => {
                self.app_operator(a as usize).is_some()
                    && self.encloser_of(ExprId::from_index(a as usize)) == b
            }
        }
    }

    /// Whether any tuple has first column `key` (binary relations).
    pub(crate) fn has_key(&self, rel: EdbRel, key: u32) -> bool {
        match rel {
            EdbRel::Edge => !self.engine.csr().succs(key as usize).is_empty(),
            EdbRel::DagEdge => !self
                .engine
                .condensation()
                .dag()
                .succs(key as usize)
                .is_empty(),
            EdbRel::NodeComp | EdbRel::ExprNode | EdbRel::LamLabel => true,
            EdbRel::CompLabel => self
                .engine
                .summary_row(key as usize)
                .iter()
                .any(|&w| w != 0),
            EdbRel::ExprLabel => self
                .engine
                .label_row(ExprId::from_index(key as usize))
                .iter()
                .any(|&w| w != 0),
            EdbRel::LabelOrigin => !self.origins()[key as usize].is_empty(),
            EdbRel::Occurrence => self
                .engine
                .occurrences_of(VarId::from_index(key as usize))
                .next()
                .is_some(),
            EdbRel::Param => self.param_lam()[key as usize] != u32::MAX,
            EdbRel::AppFunc => self.app_operator(key as usize).is_some(),
            EdbRel::CgEdge => !self.callgraph().graph().succs(key as usize).is_empty(),
            EdbRel::AppEncloser => self.app_operator(key as usize).is_some(),
            EdbRel::RootExpr
            | EdbRel::EffectfulLabel
            | EdbRel::PureLabel
            | EdbRel::MachineryLabel
            | EdbRel::ExemptVar
            | EdbRel::CgEntry
            | EdbRel::CgNode => unreachable!("unary relation has no second column"),
        }
    }

    /// The raw `u64` row of a bitset-backed relation under a bound first
    /// column, for word-parallel union joins. `None` for relations
    /// without a bitset row representation.
    pub(crate) fn row_words(&self, rel: EdbRel, key: u32) -> Option<&[u64]> {
        match rel {
            EdbRel::CompLabel => Some(self.engine.summary_row(key as usize)),
            EdbRel::ExprLabel => Some(self.engine.label_row(ExprId::from_index(key as usize))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_for(src: &str) -> (Program, Analysis) {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        (p, a)
    }

    #[test]
    fn expr_label_view_matches_engine_answers() {
        let (p, a) = db_for("fun apply f = fn y => f y; apply (fn n => n + 1) 7");
        let engine = QueryEngine::freeze(&a);
        let db = ExtDb::new(&p, &a, &engine);
        for e in p.exprs() {
            let mut via_view: Vec<u32> = Vec::new();
            db.for_each_matching(EdbRel::ExprLabel, e.index() as u32, &mut |l| {
                via_view.push(l)
            });
            let direct: Vec<u32> = engine
                .labels_of(e)
                .iter()
                .map(|l| l.index() as u32)
                .collect();
            assert_eq!(via_view, direct, "expr {e:?}");
            // The raw row agrees bit-for-bit with the enumeration.
            let row = db.row_words(EdbRel::ExprLabel, e.index() as u32).unwrap();
            for &l in &direct {
                assert!(row[l as usize / 64] & (1 << (l % 64)) != 0);
            }
        }
    }

    #[test]
    fn catalog_names_resolve_and_schemas_agree() {
        for (name, schema) in edb_catalog() {
            assert!(EdbRel::from_name(name).is_some(), "{name}");
            assert_eq!(edb_schema(name), Some(schema), "{name}");
            assert!(!schema.is_empty() && schema.len() <= 2, "{name}");
        }
        assert!(EdbRel::from_name("nope").is_none());
    }

    #[test]
    fn effect_views_partition_the_labels() {
        let (p, a) = db_for("let val f = fn x => print x in fn y => y end");
        let engine = QueryEngine::freeze(&a);
        let db = ExtDb::new(&p, &a, &engine);
        let mut eff = Vec::new();
        let mut pure = Vec::new();
        db.for_each(EdbRel::EffectfulLabel, &mut |l, _| eff.push(l));
        db.for_each(EdbRel::PureLabel, &mut |l, _| pure.push(l));
        assert_eq!(eff.len() + pure.len(), p.label_count());
        assert_eq!(eff.len(), 1, "only `fn x => print x` is effectful");
    }

    #[test]
    fn enclosers_attribute_apps_to_their_lambda() {
        let (p, a) = db_for("fun apply f = fn y => f y; apply (fn n => n + 1) 7");
        let engine = QueryEngine::freeze(&a);
        let db = ExtDb::new(&p, &a, &engine);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        db.for_each(EdbRel::AppEncloser, &mut |a, o| pairs.push((a, o)));
        assert_eq!(pairs.len(), p.app_sites().len());
        // `f y` sits inside `fn y => …`; the outer applications are
        // top-level (owner = virtual root).
        let root = p.label_count() as u32;
        assert!(pairs.iter().any(|&(_, o)| o != root), "f y has a λ owner");
        assert!(pairs.iter().any(|&(_, o)| o == root), "top-level apps");
    }
}
