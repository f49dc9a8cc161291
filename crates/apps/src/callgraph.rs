//! Call-graph construction — the "block and loop structure" artifact the
//! paper's introduction motivates CFA with: "The control-flow graph of a
//! program plays a central role in compilation."
//!
//! Nodes are the program's abstractions plus a virtual root (top-level
//! code); there is an edge `f → g` when some application site lexically
//! inside `f`'s body may call `g`. Built from per-site call targets, so
//! worst-case quadratic output (it *is* the "all calls from all call
//! sites" view, organized per function) — the paper's point is that most
//! consumers should avoid materializing it; this module is for the ones
//! that genuinely need it (inliner heuristics, recursion detection,
//! reachability).

use stcfa_core::QueryEngine;
use stcfa_graph::bitset::ones;
use stcfa_graph::DiGraph;
use stcfa_lambda::{ExprId, ExprKind, Label, Program};

/// The call graph of a program.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Graph over `label_count() + 1` nodes; node `label_count()` is the
    /// virtual root (top-level evaluation).
    graph: DiGraph,
    labels: usize,
    /// Expression → the node of its nearest enclosing abstraction.
    encloser: Vec<u32>,
}

impl CallGraph {
    /// Builds the call graph from subtransitive per-site call targets,
    /// read off a frozen [`QueryEngine`]'s label rows (one bit-parallel
    /// sweep instead of one BFS per site).
    pub fn build_with_engine(program: &Program, engine: &QueryEngine) -> CallGraph {
        let labels = program.label_count();
        let mut graph = DiGraph::with_nodes(labels + 1);
        // Map every expression to its enclosing abstraction (or the root)
        // by an iterative top-down walk: children inherit their parent's
        // owner; a lambda's body switches to the lambda's label.
        let mut encloser = vec![labels as u32; program.size()];
        let mut stack = vec![(program.root(), labels as u32)];
        while let Some((e, owner)) = stack.pop() {
            encloser[e.index()] = owner;
            match program.kind(e) {
                ExprKind::Lam { label, body, .. } => stack.push((*body, label.index() as u32)),
                _ => program.for_each_child(e, |c| stack.push((c, owner))),
            }
        }
        // Each caller's edges in first-occurrence order over its sites in
        // program order. Visiting the sites grouped by caller (a stable
        // sort) lets one stamp per callee deduplicate in O(1).
        let mut sites = program.app_sites();
        sites.sort_by_key(|app| encloser[app.index()]);
        let mut stamp = vec![u32::MAX; labels];
        for app in sites {
            let ExprKind::App { func, .. } = program.kind(app) else {
                unreachable!()
            };
            let caller = encloser[app.index()];
            for callee in ones(engine.label_row(*func)) {
                if stamp[callee] != caller {
                    stamp[callee] = caller;
                    graph.add_edge(caller as usize, callee);
                }
            }
        }
        CallGraph {
            graph,
            labels,
            encloser,
        }
    }

    /// The virtual root node id.
    pub fn root(&self) -> usize {
        self.labels
    }

    /// The node lexically enclosing `e`: the label of its nearest
    /// enclosing abstraction, or [`CallGraph::root`] for top-level code.
    pub fn encloser_of(&self, e: ExprId) -> usize {
        self.encloser[e.index()] as usize
    }

    /// Whether `caller` may directly call `callee`.
    pub fn calls(&self, caller: Option<Label>, callee: Label) -> bool {
        let from = caller.map_or(self.labels, |l| l.index());
        self.graph.has_edge(from, callee.index())
    }

    /// Direct callees of a function (or of top-level code for `None`).
    pub fn callees(&self, caller: Option<Label>) -> Vec<Label> {
        let from = caller.map_or(self.labels, |l| l.index());
        let mut out: Vec<Label> = self
            .graph
            .succs(from)
            .iter()
            .map(|&l| Label::from_index(l as usize))
            .collect();
        out.sort_unstable();
        out
    }

    /// Functions transitively reachable (callable) from top-level code.
    pub fn reachable_from_root(&self) -> Vec<Label> {
        let r = self.graph.reachable_from(self.labels);
        (0..self.labels)
            .filter(|&l| r.contains(l))
            .map(Label::from_index)
            .collect()
    }

    /// Whether a function can (transitively) call itself.
    pub fn is_recursive(&self, l: Label) -> bool {
        let (comp, _) = self.graph.sccs();
        // Same-SCC self test: either a self-loop or a larger cycle.
        if self.graph.has_edge(l.index(), l.index()) {
            return true;
        }
        (0..self.labels).any(|other| other != l.index() && comp[other] == comp[l.index()])
    }

    /// The underlying graph (node `root()` is top-level code).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_cfa0::LiveCfa0;
    use stcfa_core::Analysis;
    use stcfa_lambda::Program;

    fn build(src: &str) -> (Program, CallGraph) {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        let cg = CallGraph::build_with_engine(&p, &QueryEngine::freeze(&a));
        (p, cg)
    }

    fn label_named(p: &Program, name: &str) -> Label {
        p.all_labels()
            .find(|&l| {
                let lam = p.lam_of_label(l);
                matches!(p.kind(lam), ExprKind::Lam { param, .. } if p.var_name(*param) == name)
            })
            .unwrap()
    }

    #[test]
    fn direct_calls_from_top_level() {
        let (p, cg) = build("(fn x => x + 1) 2");
        let f = p.all_labels().next().unwrap();
        assert!(cg.calls(None, f));
        assert_eq!(cg.callees(None), vec![f]);
    }

    #[test]
    fn nested_calls_attributed_to_enclosing_function() {
        // apply's body calls its argument; top-level calls apply.
        let src = "fun apply f = fn y => f y; apply (fn n => n + 1) 7";
        let (p, cg) = build(src);
        let apply_outer = label_named(&p, "f"); // fn f => …
        let apply_inner = label_named(&p, "y"); // fn y => f y
        let arg = label_named(&p, "n");
        assert!(cg.calls(None, apply_outer));
        assert!(
            cg.calls(None, apply_inner),
            "the curried second call is top-level"
        );
        assert!(cg.calls(Some(apply_inner), arg), "f y happens inside fn y");
        assert!(!cg.calls(Some(arg), apply_outer));
        for app in p.app_sites() {
            let ExprKind::App { func, .. } = p.kind(app) else {
                unreachable!()
            };
            let inner = matches!(p.kind(*func), ExprKind::Var(v) if p.var_name(*v) == "f");
            let want = if inner {
                apply_inner.index()
            } else {
                cg.root()
            };
            assert_eq!(cg.encloser_of(app), want, "{app:?}");
        }
    }

    #[test]
    fn edges_keep_first_occurrence_order_per_caller() {
        // The reference construction: every site in program order, each
        // target added unless its caller already has the edge. The last
        // program interleaves `f`'s sites with `fn y`'s.
        let srcs = [
            "fun apply f = fn y => f y; apply (fn n => n + 1) 7",
            "fun fact n = if n = 0 then 1 else n * fact (n - 1); fact 5",
            "fun pick b = if b then (fn x => x) else (fn y => y + 1);\n\
             fun go g = (pick true) (g ((pick false) 1)); val r = go (fn z => z); (pick true) r",
            "fun g x = x; fun f x = let val a = g x in (fn y => g y) (g a) end; f 1",
        ];
        for src in srcs {
            let p = Program::parse(src).unwrap();
            let a = Analysis::run(&p).unwrap();
            let cg = CallGraph::build_with_engine(&p, &QueryEngine::freeze(&a));
            let mut want = DiGraph::with_nodes(p.label_count() + 1);
            for app in p.app_sites() {
                let ExprKind::App { func, .. } = p.kind(app) else {
                    unreachable!()
                };
                for callee in a.labels_of(*func) {
                    want.add_edge_dedup(cg.encloser_of(app), callee.index());
                }
            }
            for node in 0..want.node_count() {
                assert_eq!(
                    cg.graph().succs(node),
                    want.succs(node),
                    "{src:?} node {node}"
                );
            }
        }
    }

    #[test]
    fn recursion_is_detected() {
        let (p, cg) = build("fun fact n = if n = 0 then 1 else n * fact (n - 1); fact 5");
        let fact = p.all_labels().next().unwrap();
        assert!(cg.is_recursive(fact));
        let (p2, cg2) = build("(fn x => x + 1) 2");
        assert!(!cg2.is_recursive(p2.all_labels().next().unwrap()));
    }

    #[test]
    fn reachability_over_approximates_liveness() {
        // A function is call-graph-reachable whenever its body is live
        // (the converse can fail: reachability ignores case/branch
        // pruning the live analysis performs).
        let srcs = [
            "let val dead = fn x => (fn y => y) 1 in (fn z => z) 2 end",
            "fun apply f = fn y => f y; apply (fn n => n + 1) 7",
            "fun id x = x; val a = id (fn u => u); a 3",
        ];
        for src in srcs {
            let p = Program::parse(src).unwrap();
            let a = Analysis::run(&p).unwrap();
            let cg = CallGraph::build_with_engine(&p, &QueryEngine::freeze(&a));
            let live = LiveCfa0::analyze(&p);
            let reachable = cg.reachable_from_root();
            for l in p.all_labels() {
                let lam = p.lam_of_label(l);
                let ExprKind::Lam { body, .. } = p.kind(lam) else {
                    unreachable!()
                };
                if live.is_live(*body) {
                    assert!(
                        reachable.contains(&l),
                        "live body of {l:?} but not reachable in {src:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_order_targets_appear() {
        // The stored closure is called from inside `head`'s consumer.
        let src = "\
            datatype fl = N | C of (int -> int) * fl;\n\
            fun head xs = fn d => case xs of C(f, t) => f | N => d;\n\
            (head (C(fn a => a + 1, N)) (fn z => z)) 5";
        let (p, cg) = build(src);
        let stored = label_named(&p, "a");
        assert!(
            cg.calls(None, stored),
            "the extracted closure is called at top level"
        );
    }
}
