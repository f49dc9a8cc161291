//! The shipped rule programs: the call-graph dominator relation,
//! taint-style source→sink reachability, and the mixed-purity /
//! dominated-redundant analyses behind lint codes STCFA007 and STCFA008.
//!
//! Each analysis comes as a pair: a `*_program()` constructor returning
//! the declarative [`RuleProgram`] (what `stcfa lint --explain` prints)
//! and a function that reads the answer off the frozen engine. Taint reads
//! one label row per occurrence and mixed purity one per application,
//! against masks of the source (or effectful) labels; the dominator
//! relation is the call graph's dominator tree (Cooper–Harvey–Kennedy,
//! [`stcfa_graph::DomTree`]). The programs stay as those functions'
//! specifications and test oracles, evaluated by [`crate::Evaluator`]
//! only in tests and benches: the role the cubic references play for
//! the engine.

use stcfa_devkit::json::Json;
use stcfa_graph::bitset::ones;
use stcfa_graph::DomTree;
use stcfa_lambda::{ExprId, ExprKind, Label};

use crate::edb::ExtDb;
use crate::program::{head, neg, neq, pos, var, Dom, RelId, RuleProgram};

/// The call-graph dominator relation, as stratified Datalog:
/// `nd(n, d)` — the entry reaches `n` on a path avoiding `d` — is the
/// positive complement, and `dom(n, d) = reach(n) ∧ ¬nd(n, d)`. Every
/// reachable node dominates itself; the entry is dominated only by
/// itself.
///
/// This is the specification [`dominators`] meets, not how it computes:
/// evaluating it derives `O(C·(C + E))` `nd` tuples over `C` call-graph
/// nodes, so only `lint --explain`, the tests and the rules bench use it.
pub fn dominators_program() -> (RuleProgram, RelId, RelId) {
    let mut p = RuleProgram::new();
    let entry = p.edb("cg_entry", &[Dom::CgNode]);
    let edge = p.edb("cg_edge", &[Dom::CgNode, Dom::CgNode]);
    let node = p.edb("cg_node", &[Dom::CgNode]);
    let reach = p.decl("reach", &[Dom::CgNode]);
    let nd = p.decl("nd", &[Dom::CgNode, Dom::CgNode]);
    let dom = p.decl("dom", &[Dom::CgNode, Dom::CgNode]);
    p.rule(head(reach, &[var("n")]), vec![pos(entry, &[var("n")])])
        .expect("well-formed");
    p.rule(
        head(reach, &[var("n")]),
        vec![pos(reach, &[var("p")]), pos(edge, &[var("p"), var("n")])],
    )
    .expect("well-formed");
    p.rule(
        head(nd, &[var("n"), var("d")]),
        vec![
            pos(entry, &[var("n")]),
            pos(node, &[var("d")]),
            neq(var("n"), var("d")),
        ],
    )
    .expect("well-formed");
    p.rule(
        head(nd, &[var("n"), var("d")]),
        vec![
            pos(nd, &[var("p"), var("d")]),
            pos(edge, &[var("p"), var("n")]),
            neq(var("n"), var("d")),
        ],
    )
    .expect("well-formed");
    p.rule(
        head(dom, &[var("n"), var("d")]),
        vec![
            pos(reach, &[var("n")]),
            pos(node, &[var("d")]),
            neg(nd, &[var("n"), var("d")]),
        ],
    )
    .expect("well-formed");
    (p, reach, dom)
}

/// The dominator relation over call-graph nodes (labels plus the
/// virtual entry at index `label_count()`), held as the call graph's
/// dominator tree: `O(C)` arrays, `O(1)` dominance tests.
pub type DomRelation = DomTree;

/// The call graph's dominator tree, rooted at its virtual entry; the
/// relation [`dominators_program`] specifies.
pub fn dominators(db: &ExtDb<'_>) -> DomRelation {
    let cg = db.callgraph();
    cg.graph().dominator_tree(cg.root())
}

/// Taint reachability: `src_label` is seeded with the source labels,
/// their origin nodes become sources, and `treach` closes over the
/// subtransitive edges — so an occurrence is tainted exactly when its
/// label set meets the sources.
pub fn taint_program() -> (RuleProgram, RelId, RelId) {
    let mut p = RuleProgram::new();
    let origin = p.edb("label_origin", &[Dom::Label, Dom::Node]);
    let edge = p.edb("edge", &[Dom::Node, Dom::Node]);
    let src_label = p.decl("src_label", &[Dom::Label]);
    let src = p.decl("src", &[Dom::Node]);
    let treach = p.decl("treach", &[Dom::Node]);
    p.rule(
        head(src, &[var("n")]),
        vec![
            pos(src_label, &[var("l")]),
            pos(origin, &[var("l"), var("n")]),
        ],
    )
    .expect("well-formed");
    p.rule(head(treach, &[var("n")]), vec![pos(src, &[var("n")])])
        .expect("well-formed");
    p.rule(
        head(treach, &[var("n")]),
        vec![pos(edge, &[var("n"), var("m")]), pos(treach, &[var("m")])],
    )
    .expect("well-formed");
    (p, src_label, treach)
}

/// `labels` as a mask over the engine's label rows.
fn label_mask(db: &ExtDb<'_>, labels: impl Iterator<Item = Label>) -> Vec<u64> {
    let mut mask = vec![0u64; db.engine().row_words()];
    for l in labels {
        mask[l.index() / 64] |= 1 << (l.index() % 64);
    }
    mask
}

/// Whether a label row and a mask share a label.
fn meets(row: &[u64], mask: &[u64]) -> bool {
    row.iter().zip(mask).any(|(r, m)| r & m != 0)
}

/// Every occurrence whose value may carry one of `sources`: the
/// occurrences whose label row meets the sources. Sorted by expression
/// id; [`taint_program`]'s `treach` over their nodes.
pub fn tainted_exprs(db: &ExtDb<'_>, sources: &[Label]) -> Vec<ExprId> {
    let mask = label_mask(db, sources.iter().copied());
    let engine = db.engine();
    db.program()
        .exprs()
        .filter(|&e| meets(engine.label_row(e), &mask))
        .collect()
}

/// Whether occurrence `e` may carry one of `sources`: one label-row read.
pub fn expr_is_tainted(db: &ExtDb<'_>, sources: &[Label], e: ExprId) -> bool {
    meets(
        db.engine().label_row(e),
        &label_mask(db, sources.iter().copied()),
    )
}

/// `mixed_purity`: applications whose operator may evaluate to *both*
/// an effectful-bodied and a pure-bodied abstraction (the specification
/// of STCFA007's candidates, which [`mixed_purity`] meets). `ereach` and
/// `preach` close the two origin sets over the subtransitive edges and
/// meet at the operator's node.
pub fn mixed_purity_program() -> (RuleProgram, RelId) {
    let mut p = RuleProgram::new();
    let effectful = p.edb("effectful_label", &[Dom::Label]);
    let pure = p.edb("pure_label", &[Dom::Label]);
    let origin = p.edb("label_origin", &[Dom::Label, Dom::Node]);
    let edge = p.edb("edge", &[Dom::Node, Dom::Node]);
    let app_func = p.edb("app_func", &[Dom::Expr, Dom::Expr]);
    let expr_node = p.edb("expr_node", &[Dom::Expr, Dom::Node]);
    let esrc = p.decl("esrc", &[Dom::Node]);
    let psrc = p.decl("psrc", &[Dom::Node]);
    let ereach = p.decl("ereach", &[Dom::Node]);
    let preach = p.decl("preach", &[Dom::Node]);
    let report = p.decl("mixed_purity", &[Dom::Expr, Dom::Expr]);
    p.rule(
        head(esrc, &[var("n")]),
        vec![
            pos(effectful, &[var("l")]),
            pos(origin, &[var("l"), var("n")]),
        ],
    )
    .expect("well-formed");
    p.rule(
        head(psrc, &[var("n")]),
        vec![pos(pure, &[var("l")]), pos(origin, &[var("l"), var("n")])],
    )
    .expect("well-formed");
    p.rule(head(ereach, &[var("n")]), vec![pos(esrc, &[var("n")])])
        .expect("well-formed");
    p.rule(
        head(ereach, &[var("n")]),
        vec![pos(edge, &[var("n"), var("m")]), pos(ereach, &[var("m")])],
    )
    .expect("well-formed");
    p.rule(head(preach, &[var("n")]), vec![pos(psrc, &[var("n")])])
        .expect("well-formed");
    p.rule(
        head(preach, &[var("n")]),
        vec![pos(edge, &[var("n"), var("m")]), pos(preach, &[var("m")])],
    )
    .expect("well-formed");
    p.rule(
        head(report, &[var("a"), var("f")]),
        vec![
            pos(app_func, &[var("a"), var("f")]),
            pos(expr_node, &[var("f"), var("n")]),
            pos(ereach, &[var("n")]),
            pos(preach, &[var("n")]),
        ],
    )
    .expect("well-formed");
    (p, report)
}

/// The `(application, operator)` pairs whose operator's label row holds
/// both an effectful and a pure label, in increasing application order;
/// [`mixed_purity_program`]'s `mixed_purity` relation.
pub fn mixed_purity(db: &ExtDb<'_>) -> Vec<(ExprId, ExprId)> {
    let program = db.program();
    let engine = db.engine();
    let labels = (0..engine.label_count()).map(Label::from_index);
    let effectful = label_mask(db, labels.clone().filter(|&l| db.label_is_effectful(l)));
    let pure = label_mask(db, labels.filter(|&l| !db.label_is_effectful(l)));
    db.app_sites()
        .iter()
        .filter_map(|&app| match program.kind(app) {
            ExprKind::App { func, .. } => {
                let row = engine.label_row(*func);
                (meets(row, &effectful) && meets(row, &pure)).then_some((app, *func))
            }
            _ => None,
        })
        .collect()
}

/// One STCFA008 finding: `app` applies the sole target `target`, and so
/// does `by_app`, whose enclosing abstraction strictly dominates `app`'s
/// in the call graph — every call path reaching `app`'s encloser already
/// went through `by_app`'s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DominatedRedundant {
    /// The dominated (reported) application.
    pub app: ExprId,
    /// Its operator expression.
    pub func: ExprId,
    /// The single abstraction both applications call.
    pub target: Label,
    /// The earlier application in the dominating encloser.
    pub by_app: ExprId,
}

/// Applications with a singleton call target whose encloser is strictly
/// dominated by another same-target application's encloser (the glue
/// analysis behind STCFA008). Sorted by reported application id; each
/// reported application cites the smallest qualifying witness.
///
/// One sort and one dominator-tree sweep: per target, the enclosers are
/// visited in tree preorder with a stack holding the chain of the
/// target's enclosers that dominate the current one, each paired with the
/// smallest application at or above it.
pub fn dominated_redundant(db: &ExtDb<'_>) -> Vec<DominatedRedundant> {
    let dom = dominators(db);
    let program = db.program();
    let engine = db.engine();
    let cg = db.callgraph();
    // (target, encloser's preorder number, application, operator, encloser)
    // for every application with a singleton target and a reachable encloser.
    let mut sites: Vec<(Label, usize, ExprId, ExprId, usize)> = Vec::new();
    for &app in db.app_sites() {
        let ExprKind::App { func, .. } = program.kind(app) else {
            continue;
        };
        let mut targets = ones(engine.label_row(*func));
        if let (Some(only), None) = (targets.next(), targets.next()) {
            let enc = cg.encloser_of(app);
            if let Some(pre) = dom.pre(enc) {
                sites.push((Label::from_index(only), pre, app, *func, enc));
            }
        }
    }
    sites.sort_unstable();
    let mut out = Vec::new();
    let mut chain: Vec<(usize, ExprId)> = Vec::new();
    let mut i = 0;
    while i < sites.len() {
        let (target, _, first, _, enc) = sites[i];
        if i == 0 || sites[i - 1].0 != target {
            chain.clear();
        }
        while chain
            .last()
            .is_some_and(|&(top, _)| !dom.dominates(top, enc))
        {
            chain.pop();
        }
        let witness = chain.last().map(|&(_, by_app)| by_app);
        // Every application of this target in this encloser, smallest first.
        while i < sites.len() && sites[i].0 == target && sites[i].4 == enc {
            let (_, _, app, func, _) = sites[i];
            if let Some(by_app) = witness {
                out.push(DominatedRedundant {
                    app,
                    func,
                    target,
                    by_app,
                });
            }
            i += 1;
        }
        chain.push((enc, witness.map_or(first, |w| w.min(first))));
    }
    out.sort_by_key(|r| r.app);
    out
}

/// A question for one of the shipped rule programs that `stcfa rule`
/// and the daemon's `rule` op answer. Each surface validates its own
/// parameters (with its own error messages) before building one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleQuery {
    /// The dominator list of every reachable call-graph node.
    Dominators,
    /// Taint from `sources` (`None`: every effectful-bodied
    /// abstraction): the whole tainted set, or with `expr` that one
    /// occurrence's answer.
    Taint {
        /// Source labels, in any order and possibly repeated.
        sources: Option<Vec<Label>>,
        /// The one occurrence to ask about.
        expr: Option<ExprId>,
    },
}

/// Answers `query` as the JSON object both surfaces return:
///
/// ```text
/// {"rule":"dominators","entry":E,"nodes":[{"node":N,"doms":[D,…]},…]}
/// {"rule":"taint","sources":[L,…],"tainted":[X,…]}
/// {"rule":"taint","sources":[L,…],"expr":X,"tainted":true}
/// ```
///
/// Sources are listed sorted and deduplicated.
pub fn rule_answer(db: &ExtDb<'_>, query: RuleQuery) -> Json {
    let n = |v: usize| Json::num(v as u64);
    match query {
        RuleQuery::Dominators => {
            let dom = dominators(db);
            let nodes = (0..=dom.entry())
                .filter(|&node| dom.is_reachable(node))
                .map(|node| {
                    let doms = dom.doms_of(node).into_iter().map(|d| n(d as usize));
                    Json::obj(vec![("node", n(node)), ("doms", Json::Arr(doms.collect()))])
                });
            Json::obj(vec![
                ("rule", Json::str("dominators")),
                ("entry", n(dom.entry())),
                ("nodes", Json::Arr(nodes.collect())),
            ])
        }
        RuleQuery::Taint { sources, expr } => {
            let sources = match sources {
                Some(mut list) => {
                    list.sort_unstable();
                    list.dedup();
                    list
                }
                None => db
                    .program()
                    .all_labels()
                    .filter(|&l| db.label_is_effectful(l))
                    .collect(),
            };
            let mut pairs = vec![
                ("rule", Json::str("taint")),
                (
                    "sources",
                    Json::Arr(sources.iter().map(|l| n(l.index())).collect()),
                ),
            ];
            match expr {
                Some(e) => pairs.extend([
                    ("expr", n(e.index())),
                    ("tainted", Json::Bool(expr_is_tainted(db, &sources, e))),
                ]),
                None => {
                    let tainted = tainted_exprs(db, &sources);
                    pairs.push((
                        "tainted",
                        Json::Arr(tainted.iter().map(|e| n(e.index())).collect()),
                    ));
                }
            }
            Json::obj(pairs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_core::{Analysis, QueryEngine};
    use stcfa_graph::BitSet;
    use stcfa_lambda::Program;

    struct Fixture {
        program: Program,
        analysis: Analysis,
        engine: QueryEngine,
    }

    impl Fixture {
        fn new(src: &str) -> Fixture {
            let program = Program::parse(src).unwrap();
            let analysis = Analysis::run(&program).unwrap();
            let engine = QueryEngine::freeze(&analysis);
            Fixture {
                program,
                analysis,
                engine,
            }
        }
        fn db(&self) -> ExtDb<'_> {
            ExtDb::new(&self.program, &self.analysis, &self.engine)
        }
    }

    /// Brute-force check: `dom(n, d)` iff the entry cannot reach `n`
    /// when `d` is removed from the call graph.
    #[test]
    fn dominators_match_avoid_one_bfs() {
        let fx = Fixture::new("fun f x = x; fun g y = f y; val a = f 1; val b = g 2; b");
        let db = fx.db();
        let dom = dominators(&db);
        let g = db.callgraph().graph();
        let n = g.node_count();
        let entry = dom.entry();
        assert_eq!(entry, fx.program.label_count());
        for d in 0..n {
            // BFS from the entry that refuses to enter `d`.
            let mut seen = BitSet::new(n);
            if entry != d {
                seen.insert(entry);
                let mut stack = vec![entry];
                while let Some(u) = stack.pop() {
                    for &v in g.succs(u) {
                        let v = v as usize;
                        if v != d && seen.insert(v) {
                            stack.push(v);
                        }
                    }
                }
            }
            for node in 0..n {
                let want = dom.is_reachable(node) && !seen.contains(node);
                assert_eq!(dom.dominates(d, node), want, "dominates({d}, {node})");
            }
        }
        // Spot checks: reflexive, and the entry dominates everything
        // reachable but is dominated only by itself.
        for node in 0..n {
            if dom.is_reachable(node) {
                assert!(dom.dominates(node, node));
                assert!(dom.dominates(entry, node));
            } else {
                assert!(dom.doms_of(node).is_empty());
            }
        }
        assert_eq!(dom.doms_of(entry), &[entry as u32]);
    }

    #[test]
    fn taint_full_and_demand_agree() {
        let fx = Fixture::new("fun apply f = fn y => f y; apply (fn n => print n) 7");
        let db = fx.db();
        // Sources: every effectful-bodied label — the printer itself
        // and `fn y => f y`, whose body may call it.
        let sources: Vec<Label> = fx
            .program
            .all_labels()
            .filter(|&l| db.label_is_effectful(l))
            .collect();
        assert_eq!(sources.len(), 2);
        let full = tainted_exprs(&db, &sources);
        assert!(!full.is_empty(), "the printer flows somewhere");
        for e in fx.program.exprs() {
            assert_eq!(
                expr_is_tainted(&db, &sources, e),
                full.binary_search(&e).is_ok(),
                "expr {e:?}"
            );
        }
        // Tainting is exactly `label set meets sources`.
        for &e in &full {
            let labels = fx.engine.labels_of(e);
            assert!(labels.iter().any(|l| sources.contains(l)), "{e:?}");
        }
    }

    #[test]
    fn mixed_purity_reports_the_forked_operator() {
        let fx = Fixture::new(
            "fun pick b = if b then (fn x => print x) else (fn y => y); (pick true) 5",
        );
        let db = fx.db();
        let got = mixed_purity(&db);
        assert_eq!(got.len(), 1, "only the fork call mixes purity");
        let (_, func) = got[0];
        let labels = fx.engine.labels_of(func);
        assert_eq!(labels.len(), 2, "operator sees both branches");
        // A purely pure program reports nothing.
        let fx2 = Fixture::new("fun apply f = fn y => f y; apply (fn n => n + 1) 7");
        assert!(mixed_purity(&fx2.db()).is_empty());
    }

    #[test]
    fn dominated_redundant_flags_the_inner_call() {
        let fx = Fixture::new("fun f x = x; fun g y = f y; val a = f 1; g 2");
        let db = fx.db();
        let got = dominated_redundant(&db);
        assert_eq!(got.len(), 1, "{got:?}");
        let r = got[0];
        // The dominated call is `f y` inside `g`; the witness is the
        // top-level `f 1`.
        assert!(matches!(
            fx.program.kind(r.app),
            ExprKind::App { func, .. }
                if matches!(fx.program.kind(*func), ExprKind::Var { .. })
        ));
        assert_eq!(fx.program.lam_of_label(r.target), {
            // target is the `fun f` lambda
            let mut lam = None;
            for l in fx.program.all_labels() {
                let e = fx.program.lam_of_label(l);
                if let ExprKind::Lam { param, .. } = fx.program.kind(e) {
                    if fx.program.var_name(*param) == "x" {
                        lam = Some(e);
                    }
                }
            }
            lam.unwrap()
        });
        assert_ne!(r.app, r.by_app);
        // Sibling calls in the same encloser never dominate each other.
        let fx2 = Fixture::new("fun f x = x; val a = f 1; val b = f 2; b");
        assert!(dominated_redundant(&fx2.db()).is_empty());
    }

    #[test]
    fn dominated_redundant_cites_the_smallest_witness() {
        // `g` is applied at top level, in `f` (called only from top
        // level) and in `fn w` (called only from `f`). The innermost call
        // has two dominating witnesses and cites the smaller id, the
        // top-level `g 1`, not the nearer `g y`.
        let fx = Fixture::new(
            "fun g x = x; val a = g 1; \
             fun f y = let val b = g y in (fn w => g w) b end; f 2",
        );
        let got = dominated_redundant(&fx.db());
        assert_eq!(got.len(), 2, "{got:?}");
        let first = fx.program.app_sites()[0];
        assert!(got.iter().all(|r| r.by_app == first), "{got:?}");
    }
}
