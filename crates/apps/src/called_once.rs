//! Linear-time called-once analysis (abstract, third bullet): "identify
//! all functions called from only one call-site".
//!
//! A label `l` is called from call site `a = (e₁ e₂)` when `l ∈ L(e₁)`.
//! Counting call sites per label by querying every site is quadratic; the
//! linear algorithm runs a 1-limited *site*-set propagation in the flow
//! direction of the subtransitive graph: seed each operator node with its
//! application site, saturate at two sites ("many"), and read the answer
//! off at each abstraction's node.
//!
//! [`CalledOnce::run`] performs that propagation as one descending sweep
//! over a frozen engine's condensation; [`CalledOnce::via_queries`] is
//! its quadratic reference.

use stcfa_core::{Analysis, NodeId, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};

/// How many call sites can call one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallSites {
    /// The function is never called (dead, or only passed around).
    None,
    /// Exactly one call site (the inlining/specialization candidate).
    One(ExprId),
    /// Two or more call sites.
    Many,
}

impl CallSites {
    fn merge(&mut self, other: CallSites) -> bool {
        use CallSites::*;
        let next = match (*self, other) {
            (None, x) | (x, None) => x,
            (One(a), One(b)) if a == b => One(a),
            _ => Many,
        };
        if next != *self {
            *self = next;
            true
        } else {
            false
        }
    }
}

/// Per-label call-site counts.
#[derive(Clone, Debug)]
pub struct CalledOnce {
    per_label: Vec<CallSites>,
}

impl CalledOnce {
    /// Runs the linear-time propagation over `engine`'s condensation,
    /// `O(V + E)`. Component ids are reverse-topological (DAG edges go to
    /// smaller ids), so a descending sweep reaches each component after
    /// every component that can flow into it: seed each operator's
    /// component with its site, push each component's site set to its
    /// DAG successors, then read every label off the components of the
    /// nodes that carry it.
    pub fn run(program: &Program, engine: &QueryEngine) -> CalledOnce {
        let cond = engine.condensation();
        let mut ann = vec![CallSites::None; cond.comp_count()];
        for e in program.exprs() {
            if let ExprKind::App { func, .. } = program.kind(e) {
                ann[cond.comp_of(engine.node_of_expr(*func).index())].merge(CallSites::One(e));
            }
        }
        for c in (0..cond.comp_count()).rev() {
            let here = ann[c];
            if here == CallSites::None {
                continue;
            }
            for &s in cond.dag().succs(c) {
                ann[s as usize].merge(here);
            }
        }
        let mut per_label = vec![CallSites::None; program.label_count()];
        for node in 0..engine.node_count() {
            if let Some(l) = engine.own_label(NodeId::from_index(node)) {
                per_label[l.index()].merge(ann[cond.comp_of(node)]);
            }
        }
        CalledOnce { per_label }
    }

    /// The quadratic reference: query `L(e₁)` at every application site
    /// with a fresh BFS (kept as the trusted slow path tests diff against).
    pub fn via_queries(program: &Program, analysis: &Analysis) -> CalledOnce {
        let mut per_label = vec![CallSites::None; program.label_count()];
        for e in program.exprs() {
            if let ExprKind::App { func, .. } = program.kind(e) {
                for l in analysis.labels_of(*func) {
                    per_label[l.index()].merge(CallSites::One(e));
                }
            }
        }
        CalledOnce { per_label }
    }

    /// Call-site summary for `l`.
    pub fn of(&self, l: Label) -> CallSites {
        self.per_label[l.index()]
    }

    /// Labels called from exactly one site.
    pub fn called_once(&self) -> Vec<(Label, ExprId)> {
        self.per_label
            .iter()
            .enumerate()
            .filter_map(|(i, cs)| match cs {
                CallSites::One(site) => Some((Label::from_index(i), *site)),
                _ => None,
            })
            .collect()
    }

    /// Labels never called from any site (dead or escaping-only functions).
    pub fn never_called(&self) -> Vec<Label> {
        self.per_label
            .iter()
            .enumerate()
            .filter(|&(_i, cs)| matches!(cs, CallSites::None))
            .map(|(i, _cs)| Label::from_index(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_core::Analysis;
    use stcfa_lambda::Program;

    fn run(src: &str) -> (Program, Analysis, CalledOnce) {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        let c = CalledOnce::run(&p, &QueryEngine::freeze(&a));
        (p, a, c)
    }

    #[test]
    fn single_call_site() {
        let (p, _, c) = run("(fn x => x + 1) 2");
        let l = p.all_labels().next().unwrap();
        assert!(matches!(c.of(l), CallSites::One(_)));
        assert_eq!(c.called_once().len(), 1);
    }

    #[test]
    fn never_called_function() {
        let (p, _, c) = run("let val dead = fn x => x in 1 end");
        let l = p.all_labels().next().unwrap();
        assert_eq!(c.of(l), CallSites::None);
        assert_eq!(c.never_called(), vec![l]);
    }

    #[test]
    fn two_call_sites_is_many() {
        let (p, _, c) = run("fun id x = x; val a = id 1; val b = id 2; b");
        // id's lambda is called from two sites.
        let id_label = p.all_labels().next().unwrap();
        assert_eq!(c.of(id_label), CallSites::Many);
    }

    #[test]
    fn same_site_through_merge_stays_one() {
        // Both branches produce different functions, called at one site.
        let (p, _, c) = run("(if true then fn a => a else fn b => b) 1");
        for l in p.all_labels() {
            assert!(matches!(c.of(l), CallSites::One(_)), "label {l:?}");
        }
    }

    #[test]
    fn matches_quadratic_reference() {
        let corpus = [
            "(fn x => x + 1) 2",
            "fun id x = x; val a = id 1; val b = id 2; b",
            "fun apply f = fn x => f x; apply (fn n => n) 7",
            "let val t = fn s => s s in t (fn w => w) end",
            "(if true then fn a => a else fn b => b) 1",
            "fun compose f = fn g => fn x => f (g x); compose (fn a => a) (fn b => b) (fn c => c)",
            "let val dead = fn x => x in (fn y => y) 1 end",
        ];
        for src in corpus {
            let p = Program::parse(src).unwrap();
            let a = Analysis::run(&p).unwrap();
            let fast = CalledOnce::run(&p, &QueryEngine::freeze(&a));
            let slow = CalledOnce::via_queries(&p, &a);
            for l in p.all_labels() {
                assert_eq!(fast.of(l), slow.of(l), "label {l:?} in {src:?}");
            }
        }
    }

    #[test]
    fn higher_order_callee_counted_at_indirect_site() {
        // `f` is called inside apply: the argument function's call site is
        // apply's internal application, once.
        let (p, _, c) = run("fun apply f = fn x => f x; apply (fn n => n) 7");
        let arg_label = p.all_labels().last().unwrap();
        assert!(matches!(c.of(arg_label), CallSites::One(_)));
    }
}
