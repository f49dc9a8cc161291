//! The typed builder DSL: relation declarations, rules, and the
//! registration-time checks (arity, domains, boundness, stratified
//! negation).
//!
//! Rules are authored directly in Rust — no parser — with
//! [`RuleProgram::edb`]/[`RuleProgram::decl`] declaring relations and
//! [`RuleProgram::rule`] registering Horn clauses over them:
//!
//! ```
//! use stcfa_rules::program::{head, neg, pos, var, Dom, RuleProgram, WILD};
//!
//! let mut p = RuleProgram::new();
//! let app_func = p.edb("app_func", &[Dom::Expr, Dom::Expr]);
//! let expr_node = p.edb("expr_node", &[Dom::Expr, Dom::Node]);
//! let edge = p.edb("edge", &[Dom::Node, Dom::Node]);
//! let origin = p.edb("label_origin", &[Dom::Label, Dom::Node]);
//! let flows = p.decl("flows", &[Dom::Node]);
//! let invoked = p.decl("invoked", &[Dom::Label]);
//! let report = p.decl("report", &[Dom::Label]);
//! p.rule(
//!     head(flows, &[var("n")]),
//!     vec![pos(app_func, &[WILD, var("f")]), pos(expr_node, &[var("f"), var("n")])],
//! )
//! .unwrap();
//! p.rule(
//!     head(flows, &[var("m")]),
//!     vec![pos(flows, &[var("n")]), pos(edge, &[var("n"), var("m")])],
//! )
//! .unwrap();
//! p.rule(
//!     head(invoked, &[var("l")]),
//!     vec![pos(origin, &[var("l"), var("n")]), pos(flows, &[var("n")])],
//! )
//! .unwrap();
//! p.rule(
//!     head(report, &[var("l")]),
//!     vec![pos(origin, &[var("l"), WILD]), neg(invoked, &[var("l")])],
//! )
//! .unwrap();
//! assert!(p.to_string().contains("invoked(l) :- label_origin(l, n), flows(n)."));
//! ```
//!
//! Every structural error — arity mismatch, a variable used at two
//! different domains, an unbound variable under negation, or a negation
//! inside a recursive clique — is rejected at registration with a
//! [`RuleError`], never at evaluation time.

use std::fmt;

use stcfa_graph::DiGraph;

use crate::edb::edb_schema;

/// Typed value domains. Every relation column carries one, and the
/// builder rejects rules that join a variable across two domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dom {
    /// Nodes of the frozen subtransitive graph (CSR indices).
    Node,
    /// Abstraction labels.
    Label,
    /// Expression occurrences.
    Expr,
    /// Call-graph nodes: the program's labels plus the virtual root
    /// (`label_count()`).
    CgNode,
}

impl Dom {
    /// The lowercase name used by the pretty-printer.
    pub fn as_str(self) -> &'static str {
        match self {
            Dom::Node => "node",
            Dom::Label => "label",
            Dom::Expr => "expr",
            Dom::CgNode => "cgnode",
        }
    }
}

/// A handle to a declared relation, scoped to the [`RuleProgram`] that
/// returned it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RelId(pub(crate) u32);

/// One term of an atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Term {
    /// A named variable, scoped to one rule.
    Var(&'static str),
    /// A constant value in the column's domain (a dense index).
    Const(u32),
    /// An anonymous variable: matches anything, binds nothing.
    Wild,
}

/// A named variable term.
pub const fn var(name: &'static str) -> Term {
    Term::Var(name)
}

/// A constant term (a dense index into the column's domain).
pub const fn cst(value: u32) -> Term {
    Term::Const(value)
}

/// The anonymous variable.
pub const WILD: Term = Term::Wild;

/// A body literal: a positive or negated atom, or a disequality filter.
#[derive(Clone, Debug)]
pub enum Lit {
    /// `rel(terms…)`.
    Pos(RelId, Vec<Term>),
    /// `!rel(terms…)` — stratified negation.
    Neg(RelId, Vec<Term>),
    /// `a != b` — both sides must be bound when the filter runs.
    Neq(Term, Term),
}

/// A positive body atom.
pub fn pos(rel: RelId, terms: &[Term]) -> Lit {
    Lit::Pos(rel, terms.to_vec())
}

/// A negated body atom.
pub fn neg(rel: RelId, terms: &[Term]) -> Lit {
    Lit::Neg(rel, terms.to_vec())
}

/// A disequality filter.
pub fn neq(a: Term, b: Term) -> Lit {
    Lit::Neq(a, b)
}

/// A head atom.
#[derive(Clone, Debug)]
pub struct Head {
    pub(crate) rel: RelId,
    pub(crate) terms: Vec<Term>,
}

/// Builds a head atom.
pub fn head(rel: RelId, terms: &[Term]) -> Head {
    Head {
        rel,
        terms: terms.to_vec(),
    }
}

/// A registration error: the rule (or program) violated a static check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleError(pub String);

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RuleError {}

/// What a relation is to the evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RelKind {
    /// Extensional: a zero-copy view over the frozen engine, resolved by
    /// name against the [`crate::edb`] catalog.
    Edb,
    /// Intensional: derived by rules (and/or seeded facts).
    Idb,
}

/// A declared relation.
#[derive(Clone, Debug)]
pub(crate) struct RelDecl {
    pub(crate) name: &'static str,
    pub(crate) schema: Vec<Dom>,
    pub(crate) kind: RelKind,
}

/// A compiled term: variables interned to per-rule indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CTerm {
    Var(u8),
    Const(u32),
    Wild,
}

/// A compiled atom.
#[derive(Clone, Debug)]
pub(crate) struct CAtom {
    pub(crate) rel: usize,
    pub(crate) terms: Vec<CTerm>,
}

/// A compiled literal.
#[derive(Clone, Debug)]
pub(crate) enum CLit {
    Pos(CAtom),
    Neg(CAtom),
    Neq(CTerm, CTerm),
}

/// A compiled rule.
#[derive(Clone, Debug)]
pub(crate) struct CRule {
    pub(crate) head: CAtom,
    pub(crate) body: Vec<CLit>,
    /// Variable names, indexed by the `CTerm::Var` payload.
    pub(crate) vars: Vec<&'static str>,
}

/// Evaluation groups: the SCCs of the rule dependency graph, in
/// topological (dependencies-first) order. Mutually recursive relations
/// share a group; negation always crosses group boundaries (enforced at
/// registration).
#[derive(Clone, Debug)]
pub(crate) struct Groups {
    /// Relation → group index.
    pub(crate) group_of: Vec<usize>,
    /// Groups in evaluation order; each lists its relation ids.
    pub(crate) order: Vec<Vec<usize>>,
}

/// A Datalog-flavoured rule program: declarations plus Horn clauses.
///
/// Registration is the type checker — see the [module docs](self) for
/// the checks. Evaluate with [`crate::eval::Evaluator`].
#[derive(Clone, Debug, Default)]
pub struct RuleProgram {
    pub(crate) rels: Vec<RelDecl>,
    pub(crate) rules: Vec<CRule>,
}

impl RuleProgram {
    /// An empty program.
    pub fn new() -> RuleProgram {
        RuleProgram::default()
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.rels.iter().position(|r| r.name == name)
    }

    /// Declares (or re-fetches) an extensional relation: a named
    /// zero-copy view from the [`crate::edb`] catalog.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog, if `schema` disagrees with
    /// the catalog, or if `name` was already declared intensional —
    /// these are authoring bugs, not data errors.
    pub fn edb(&mut self, name: &'static str, schema: &[Dom]) -> RelId {
        let want = edb_schema(name)
            .unwrap_or_else(|| panic!("`{name}` is not an extensional relation in the catalog"));
        assert_eq!(
            want, schema,
            "extensional relation `{name}` has catalog schema {want:?}"
        );
        if let Some(i) = self.find(name) {
            assert_eq!(
                self.rels[i].kind,
                RelKind::Edb,
                "`{name}` was already declared intensional"
            );
            return RelId(i as u32);
        }
        self.rels.push(RelDecl {
            name,
            schema: schema.to_vec(),
            kind: RelKind::Edb,
        });
        RelId(self.rels.len() as u32 - 1)
    }

    /// Declares an intensional relation (derived by rules and/or seeded
    /// facts). Arity must be 1 or 2.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name, an empty schema, or arity > 2.
    pub fn decl(&mut self, name: &'static str, schema: &[Dom]) -> RelId {
        assert!(
            self.find(name).is_none(),
            "relation `{name}` declared twice"
        );
        assert!(
            !schema.is_empty() && schema.len() <= 2,
            "relation `{name}`: arity must be 1 or 2 (got {})",
            schema.len()
        );
        assert!(
            edb_schema(name).is_none(),
            "`{name}` shadows an extensional relation; pick another name"
        );
        self.rels.push(RelDecl {
            name,
            schema: schema.to_vec(),
            kind: RelKind::Idb,
        });
        RelId(self.rels.len() as u32 - 1)
    }

    /// Registers one rule, running every static check. On error the
    /// program is left exactly as it was.
    pub fn rule(&mut self, head: Head, body: Vec<Lit>) -> Result<(), RuleError> {
        let compiled = self.compile_rule(&head, &body)?;
        self.rules.push(compiled);
        // Stratification is a whole-program property: re-check it with
        // the candidate rule included, and back it out on failure so a
        // rejected rule leaves no trace.
        if let Err(e) = self.groups() {
            self.rules.pop();
            return Err(e);
        }
        Ok(())
    }

    fn rel_decl(&self, rel: RelId, what: &str) -> Result<&RelDecl, RuleError> {
        self.rels
            .get(rel.0 as usize)
            .ok_or_else(|| RuleError(format!("{what}: unknown relation handle {rel:?}")))
    }

    /// Compiles and checks one rule without installing it.
    fn compile_rule(&self, head_atom: &Head, body: &[Lit]) -> Result<CRule, RuleError> {
        let head_decl = self.rel_decl(head_atom.rel, "head")?;
        if head_decl.kind != RelKind::Idb {
            return Err(RuleError(format!(
                "head relation `{}` is extensional; rules may only derive intensional relations",
                head_decl.name
            )));
        }
        let mut vars: Vec<&'static str> = Vec::new();
        let mut var_doms: Vec<Dom> = Vec::new();
        let intern = |name: &'static str,
                      dom: Dom,
                      vars: &mut Vec<&'static str>,
                      var_doms: &mut Vec<Dom>|
         -> Result<u8, RuleError> {
            if let Some(i) = vars.iter().position(|&v| v == name) {
                if var_doms[i] != dom {
                    return Err(RuleError(format!(
                        "variable `{name}` used at both {} and {}",
                        var_doms[i].as_str(),
                        dom.as_str()
                    )));
                }
                return Ok(i as u8);
            }
            if vars.len() == u8::MAX as usize {
                return Err(RuleError("too many variables in one rule".to_string()));
            }
            vars.push(name);
            var_doms.push(dom);
            Ok(vars.len() as u8 - 1)
        };
        let compile_atom = |rel: RelId,
                            terms: &[Term],
                            wild_ok: bool,
                            what: &str,
                            vars: &mut Vec<&'static str>,
                            var_doms: &mut Vec<Dom>|
         -> Result<CAtom, RuleError> {
            let decl = self.rel_decl(rel, what)?;
            if decl.schema.len() != terms.len() {
                return Err(RuleError(format!(
                    "{what} `{}` has arity {}, got {} terms",
                    decl.name,
                    decl.schema.len(),
                    terms.len()
                )));
            }
            let mut out = Vec::with_capacity(terms.len());
            for (t, &dom) in terms.iter().zip(&decl.schema) {
                out.push(match *t {
                    Term::Var(name) => CTerm::Var(intern(name, dom, vars, var_doms)?),
                    Term::Const(v) => CTerm::Const(v),
                    Term::Wild => {
                        if !wild_ok {
                            return Err(RuleError(format!(
                                "{what} `{}`: wildcards are not allowed here",
                                decl.name
                            )));
                        }
                        CTerm::Wild
                    }
                });
            }
            Ok(CAtom {
                rel: rel.0 as usize,
                terms: out,
            })
        };

        // Compile the body in order, tracking which variables each
        // positive atom binds: negation and disequality must only see
        // already-bound variables (left-to-right), which is also the
        // order the evaluator joins in.
        let mut bound = vec![false; u8::MAX as usize];
        let mut cbody = Vec::with_capacity(body.len());
        for lit in body {
            match lit {
                Lit::Pos(rel, terms) => {
                    let atom = compile_atom(*rel, terms, true, "atom", &mut vars, &mut var_doms)?;
                    for t in &atom.terms {
                        if let CTerm::Var(v) = t {
                            bound[*v as usize] = true;
                        }
                    }
                    cbody.push(CLit::Pos(atom));
                }
                Lit::Neg(rel, terms) => {
                    let atom =
                        compile_atom(*rel, terms, true, "negated atom", &mut vars, &mut var_doms)?;
                    for t in &atom.terms {
                        if let CTerm::Var(v) = t {
                            if !bound[*v as usize] {
                                return Err(RuleError(format!(
                                    "negated atom `{}`: variable `{}` is not bound by an \
                                     earlier positive atom",
                                    self.rels[atom.rel].name, vars[*v as usize]
                                )));
                            }
                        }
                    }
                    cbody.push(CLit::Neg(atom));
                }
                Lit::Neq(a, b) => {
                    let side = |t: &Term| -> Result<CTerm, RuleError> {
                        match *t {
                            Term::Wild => Err(RuleError(
                                "disequality over a wildcard is always ambiguous".to_string(),
                            )),
                            Term::Const(v) => Ok(CTerm::Const(v)),
                            Term::Var(name) => {
                                let i = vars.iter().position(|&v| v == name).ok_or_else(|| {
                                    RuleError(format!(
                                        "disequality variable `{name}` is not bound by an \
                                         earlier positive atom"
                                    ))
                                })?;
                                if !bound[i] {
                                    return Err(RuleError(format!(
                                        "disequality variable `{name}` is not bound by an \
                                         earlier positive atom"
                                    )));
                                }
                                Ok(CTerm::Var(i as u8))
                            }
                        }
                    };
                    cbody.push(CLit::Neq(side(a)?, side(b)?));
                }
            }
        }

        let chead = compile_atom(
            head_atom.rel,
            &head_atom.terms,
            false,
            "head",
            &mut vars,
            &mut var_doms,
        )?;
        for t in &chead.terms {
            if let CTerm::Var(v) = t {
                if !bound[*v as usize] {
                    return Err(RuleError(format!(
                        "head variable `{}` is not bound by a positive body atom",
                        vars[*v as usize]
                    )));
                }
            }
        }
        Ok(CRule {
            head: chead,
            body: cbody,
            vars,
        })
    }

    /// Computes the evaluation groups (dependency SCCs in topological
    /// order), rejecting negation inside a recursive clique — the
    /// stratified-negation check.
    pub(crate) fn groups(&self) -> Result<Groups, RuleError> {
        let n = self.rels.len();
        let mut dep = DiGraph::with_nodes(n);
        // (body rel, head rel) pairs carrying a negation.
        let mut neg_edges: Vec<(usize, usize)> = Vec::new();
        for rule in &self.rules {
            for lit in &rule.body {
                match lit {
                    CLit::Pos(a) => dep.add_edge_dedup(a.rel, rule.head.rel),
                    CLit::Neg(a) => {
                        neg_edges.push((a.rel, rule.head.rel));
                        dep.add_edge_dedup(a.rel, rule.head.rel)
                    }
                    CLit::Neq(..) => continue,
                };
            }
        }
        let (comp, comp_count) = dep.sccs();
        for &(from, to) in &neg_edges {
            if comp[from] == comp[to] {
                return Err(RuleError(format!(
                    "unstratifiable negation: `{}` is negated inside a recursive clique \
                     with `{}`",
                    self.rels[from].name, self.rels[to].name
                )));
            }
        }
        // Kahn's algorithm over the component DAG, smallest component id
        // first — deterministic evaluation order.
        let mut deps_left = vec![0usize; comp_count];
        let mut comp_succs: Vec<Vec<usize>> = vec![Vec::new(); comp_count];
        for u in 0..n {
            for &v in dep.succs(u) {
                let (cu, cv) = (comp[u], comp[v as usize]);
                if cu != cv && !comp_succs[cu].contains(&cv) {
                    comp_succs[cu].push(cv);
                    deps_left[cv] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..comp_count).filter(|&c| deps_left[c] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop() takes the smallest
        let mut topo: Vec<usize> = Vec::with_capacity(comp_count);
        while let Some(c) = ready.pop() {
            topo.push(c);
            for &s in &comp_succs[c] {
                deps_left[s] -= 1;
                if deps_left[s] == 0 {
                    let at = ready.partition_point(|&r| r > s);
                    ready.insert(at, s);
                }
            }
        }
        debug_assert_eq!(topo.len(), comp_count, "component DAG is acyclic");
        let mut group_of = vec![usize::MAX; n];
        let mut order: Vec<Vec<usize>> = Vec::with_capacity(comp_count);
        for &c in &topo {
            let members: Vec<usize> = (0..n).filter(|&r| comp[r] == c).collect();
            for &r in &members {
                group_of[r] = order.len();
            }
            order.push(members);
        }
        Ok(Groups { group_of, order })
    }
}

impl fmt::Display for RuleProgram {
    /// Pretty-prints the program in Datalog surface syntax — the form
    /// `stcfa lint --explain` shows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for decl in &self.rels {
            let kw = match decl.kind {
                RelKind::Edb => ".edb",
                RelKind::Idb => ".decl",
            };
            let doms: Vec<&str> = decl.schema.iter().map(|d| d.as_str()).collect();
            writeln!(f, "{kw} {}({})", decl.name, doms.join(", "))?;
        }
        for rule in &self.rules {
            let term = |t: &CTerm| -> String {
                match t {
                    CTerm::Var(v) => rule.vars[*v as usize].to_string(),
                    CTerm::Const(c) => c.to_string(),
                    CTerm::Wild => "_".to_string(),
                }
            };
            let atom = |a: &CAtom| -> String {
                let ts: Vec<String> = a.terms.iter().map(&term).collect();
                format!("{}({})", self.rels[a.rel].name, ts.join(", "))
            };
            let body: Vec<String> = rule
                .body
                .iter()
                .map(|lit| match lit {
                    CLit::Pos(a) => atom(a),
                    CLit::Neg(a) => format!("!{}", atom(a)),
                    CLit::Neq(a, b) => format!("{} != {}", term(a), term(b)),
                })
                .collect();
            if body.is_empty() {
                writeln!(f, "{}.", atom(&rule.head))?;
            } else {
                writeln!(f, "{} :- {}.", atom(&rule.head), body.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (RuleProgram, RelId, RelId) {
        let mut p = RuleProgram::new();
        let edge = p.edb("edge", &[Dom::Node, Dom::Node]);
        let reach = p.decl("reach", &[Dom::Node]);
        (p, edge, reach)
    }

    #[test]
    fn transitive_reach_registers_and_prints() {
        let (mut p, edge, reach) = toy();
        p.rule(
            head(reach, &[var("x")]),
            vec![pos(edge, &[var("x"), var("y")]), pos(reach, &[var("y")])],
        )
        .unwrap();
        let text = p.to_string();
        assert!(text.contains(".edb edge(node, node)"), "{text}");
        assert!(text.contains("reach(x) :- edge(x, y), reach(y)."), "{text}");
    }

    #[test]
    fn arity_and_domain_errors_are_rejected() {
        let (mut p, edge, reach) = toy();
        let err = p
            .rule(head(reach, &[var("x")]), vec![pos(edge, &[var("x")])])
            .unwrap_err();
        assert!(err.0.contains("arity"), "{err}");
        // `x` is a node in edge but would be a label here.
        let lab = p.decl("lab", &[Dom::Label]);
        let err = p
            .rule(head(lab, &[var("x")]), vec![pos(edge, &[var("x"), WILD])])
            .unwrap_err();
        assert!(err.0.contains("used at both"), "{err}");
    }

    #[test]
    fn unbound_head_and_negation_are_rejected() {
        let (mut p, edge, reach) = toy();
        let err = p.rule(head(reach, &[var("z")]), vec![]).unwrap_err();
        assert!(err.0.contains("not bound"), "{err}");
        let err = p
            .rule(
                head(reach, &[var("x")]),
                vec![neg(reach, &[var("x")]), pos(edge, &[var("x"), WILD])],
            )
            .unwrap_err();
        assert!(
            err.0.contains("not bound by an earlier positive atom"),
            "{err}"
        );
    }

    #[test]
    fn negation_in_a_recursive_clique_is_unstratifiable() {
        let mut p = RuleProgram::new();
        let edge = p.edb("edge", &[Dom::Node, Dom::Node]);
        let a = p.decl("a", &[Dom::Node]);
        let b = p.decl("b", &[Dom::Node]);
        p.rule(
            head(a, &[var("x")]),
            vec![pos(edge, &[var("x"), WILD]), neg(b, &[var("x")])],
        )
        .unwrap();
        let before = p.rules.len();
        let err = p
            .rule(head(b, &[var("x")]), vec![pos(a, &[var("x")])])
            .unwrap_err();
        assert!(err.0.contains("unstratifiable"), "{err}");
        assert_eq!(p.rules.len(), before, "rejected rule leaves no trace");
    }

    #[test]
    fn groups_come_out_in_dependency_order() {
        let (mut p, edge, reach) = toy();
        let report = p.decl("report", &[Dom::Node]);
        p.rule(
            head(reach, &[var("x")]),
            vec![pos(edge, &[var("x"), var("y")]), pos(reach, &[var("y")])],
        )
        .unwrap();
        p.rule(
            head(report, &[var("x")]),
            vec![pos(edge, &[var("x"), WILD]), neg(reach, &[var("x")])],
        )
        .unwrap();
        let groups = p.groups().unwrap();
        let g = |r: RelId| groups.group_of[r.0 as usize];
        assert!(g(edge) < g(reach), "EDB before its consumers");
        assert!(g(reach) < g(report), "negated relation strictly earlier");
    }

    #[test]
    #[should_panic(expected = "not an extensional relation")]
    fn unknown_edb_name_panics() {
        RuleProgram::new().edb("no_such_relation", &[Dom::Node]);
    }
}
