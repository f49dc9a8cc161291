//! Extensional relations: zero-copy views over the frozen engine.
//!
//! The rule engine never materializes its inputs. Every extensional
//! relation in the catalog below is answered straight out of structures
//! the analysis already owns:
//!
//! | relation | view over |
//! |----------|-----------|
//! | `edge(node, node)` | the frozen forward CSR (`QueryEngine::csr`) |
//! | `expr_node(expr, node)` | the frozen occurrence→node array |
//! | `label_origin(label, node)` | the nodes carrying each label's own bit |
//! | `app_func(expr, expr)` | application sites and their operators |
//! | `effectful_label(label)` / `pure_label(label)` | the linear effects colouring |
//! | `cg_edge(cgnode, cgnode)` | the call graph (labels + virtual root) |
//! | `cg_entry(cgnode)` / `cg_node(cgnode)` | the call graph's root / node set |
//!
//! These are the relations the three shipped programs read
//! ([`crate::analyses`]). The catalog is not an extension point: the
//! programs are the specifications of the shipped analyses, and the
//! evaluator that runs them is their test oracle.
//!
//! Derived inputs that are not free (the effects colouring, the call
//! graph) are computed lazily, at most once per [`ExtDb`], and only when
//! something actually references them.

use std::cell::OnceCell;

use stcfa_apps::callgraph::CallGraph;
use stcfa_apps::effects::{effects, Effects};
use stcfa_core::{Analysis, NodeId, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};

use crate::program::Dom;

/// One extensional relation from the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EdbRel {
    Edge,
    ExprNode,
    LabelOrigin,
    AppFunc,
    EffectfulLabel,
    PureLabel,
    CgEdge,
    CgEntry,
    CgNode,
}

/// The catalog: wire name, view, schema.
const CATALOG: &[(&str, EdbRel, &[Dom])] = &[
    ("edge", EdbRel::Edge, &[Dom::Node, Dom::Node]),
    ("expr_node", EdbRel::ExprNode, &[Dom::Expr, Dom::Node]),
    (
        "label_origin",
        EdbRel::LabelOrigin,
        &[Dom::Label, Dom::Node],
    ),
    ("app_func", EdbRel::AppFunc, &[Dom::Expr, Dom::Expr]),
    ("effectful_label", EdbRel::EffectfulLabel, &[Dom::Label]),
    ("pure_label", EdbRel::PureLabel, &[Dom::Label]),
    ("cg_edge", EdbRel::CgEdge, &[Dom::CgNode, Dom::CgNode]),
    ("cg_entry", EdbRel::CgEntry, &[Dom::CgNode]),
    ("cg_node", EdbRel::CgNode, &[Dom::CgNode]),
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
    /// Label → the nodes carrying its own bit.
    origins: OnceCell<Vec<Vec<u32>>>,
    apps: OnceCell<Vec<ExprId>>,
}

impl<'a> ExtDb<'a> {
    /// Wraps the borrowed inputs. `engine` must be frozen from
    /// `analysis` over `program` (the same contract the lint crate's
    /// `lint()` documents). `analysis` is read only for the effects
    /// colouring ([`ExtDb::effects`]); every other input is a view over
    /// `program` and `engine`.
    pub fn new(program: &'a Program, analysis: &'a Analysis, engine: &'a QueryEngine) -> ExtDb<'a> {
        ExtDb {
            program,
            analysis,
            engine,
            effects: OnceCell::new(),
            callgraph: OnceCell::new(),
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
            Dom::Label => self.engine.label_count(),
            Dom::Expr => self.program.size(),
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
            EdbRel::ExprNode => {
                for e in 0..self.program.size() {
                    let n = self.engine.node_of_expr(ExprId::from_index(e));
                    f(e as u32, n.index() as u32);
                }
            }
            EdbRel::LabelOrigin => {
                for (l, nodes) in self.origins().iter().enumerate() {
                    for &n in nodes {
                        f(l as u32, n);
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
            EdbRel::ExprNode => f(self
                .engine
                .node_of_expr(ExprId::from_index(key as usize))
                .index() as u32),
            EdbRel::LabelOrigin => {
                for &n in &self.origins()[key as usize] {
                    f(n);
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
            EdbRel::EffectfulLabel | EdbRel::PureLabel | EdbRel::CgEntry | EdbRel::CgNode => {
                unreachable!("unary relation has no second column")
            }
        }
    }

    /// Membership test (`b` is ignored for unary relations).
    pub(crate) fn contains(&self, rel: EdbRel, a: u32, b: u32) -> bool {
        match rel {
            EdbRel::Edge => self.engine.csr().succs(a as usize).contains(&b),
            EdbRel::ExprNode => {
                self.engine
                    .node_of_expr(ExprId::from_index(a as usize))
                    .index() as u32
                    == b
            }
            EdbRel::LabelOrigin => self.origins()[a as usize].contains(&b),
            EdbRel::AppFunc => self.app_operator(a as usize) == Some(b),
            EdbRel::EffectfulLabel => self.label_is_effectful(Label::from_index(a as usize)),
            EdbRel::PureLabel => !self.label_is_effectful(Label::from_index(a as usize)),
            EdbRel::CgEdge => self.callgraph().graph().has_edge(a as usize, b as usize),
            EdbRel::CgEntry => a as usize == self.engine.label_count(),
            EdbRel::CgNode => (a as usize) <= self.engine.label_count(),
        }
    }

    /// Whether any tuple has first column `key` (binary relations).
    pub(crate) fn has_key(&self, rel: EdbRel, key: u32) -> bool {
        match rel {
            EdbRel::Edge => !self.engine.csr().succs(key as usize).is_empty(),
            EdbRel::ExprNode => true,
            EdbRel::LabelOrigin => !self.origins()[key as usize].is_empty(),
            EdbRel::AppFunc => self.app_operator(key as usize).is_some(),
            EdbRel::CgEdge => !self.callgraph().graph().succs(key as usize).is_empty(),
            EdbRel::EffectfulLabel | EdbRel::PureLabel | EdbRel::CgEntry | EdbRel::CgNode => {
                unreachable!("unary relation has no second column")
            }
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
    fn catalog_names_resolve_and_schemas_agree() {
        for (name, schema) in edb_catalog() {
            assert!(EdbRel::from_name(name).is_some(), "{name}");
            assert_eq!(edb_schema(name), Some(schema), "{name}");
            assert!(!schema.is_empty() && schema.len() <= 2, "{name}");
        }
        assert!(EdbRel::from_name("nope").is_none());
        // Exactly the relations the shipped programs read.
        let names: Vec<&str> = edb_catalog().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "edge",
                "expr_node",
                "label_origin",
                "app_func",
                "effectful_label",
                "pure_label",
                "cg_edge",
                "cg_entry",
                "cg_node"
            ]
        );
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
}
