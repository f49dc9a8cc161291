//! Semi-naive, delta-driven evaluation with bitset-backed stores.
//!
//! The evaluator walks the program's dependency groups (SCCs of the
//! relation dependency graph, dependencies first — see
//! [`RuleProgram`]'s registration checks) and runs each group to
//! fixpoint before the next starts, which is exactly what stratified
//! negation needs: a negated relation always lives in an earlier,
//! already-complete group.
//!
//! Within a group, evaluation is **semi-naive**: each rule is joined in
//! full once (the naive round, which also picks up seeded facts), and
//! every tuple inserted after that is pushed onto a worklist and driven
//! through each same-group occurrence in each rule body — so a fact is
//! considered at each recursive position exactly once.
//!
//! Every rule runs through this one join; there are no fast paths. The
//! evaluator is the oracle for the shipped analyses, whose production
//! functions read the same facts off the engine's label rows and the call
//! graph's dominator tree (see [`crate::analyses`]): tests and benches
//! evaluate each program here and compare.

use stcfa_graph::BitSet;

use crate::edb::{EdbRel, ExtDb};
use crate::program::{CLit, CRule, CTerm, Groups, RelId, RelKind, RuleError, RuleProgram};

const UNBOUND: u32 = u32::MAX;

/// Where a relation's tuples live during evaluation.
enum Store {
    /// Extensional: answered by the [`ExtDb`] view, never written.
    Extern(EdbRel),
    /// Unary intensional: a bitset over the column's domain.
    Unary(BitSet),
    /// Binary intensional: per-key bitset rows over the value domain,
    /// allocated only for inhabited keys.
    Binary {
        rows: Vec<Option<BitSet>>,
        val_size: usize,
        len: usize,
    },
}

/// Evaluation counters, for tests and the bench harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Tuples inserted by rules (seeds not included).
    pub derived: usize,
    /// Worklist tuples driven through recursive occurrences.
    pub rounds: usize,
}

/// An evaluation of one [`RuleProgram`] against one [`ExtDb`].
pub struct Evaluator<'a> {
    prog: &'a RuleProgram,
    db: &'a ExtDb<'a>,
    stores: Vec<Store>,
    groups: Groups,
    /// Rule indices per group (rules whose head lives in the group).
    group_rules: Vec<Vec<usize>>,
    /// Per relation: `(rule, body index)` of each same-group positive
    /// occurrence — the positions delta tuples are driven through.
    occurrences: Vec<Vec<(usize, usize)>>,
    evaluated: Vec<bool>,
    stats: EvalStats,
}

impl<'a> Evaluator<'a> {
    /// Prepares an evaluation: resolves extensional views, sizes the
    /// intensional stores, computes the group order, and validates every
    /// constant against its column's domain.
    pub fn new(prog: &'a RuleProgram, db: &'a ExtDb<'a>) -> Result<Evaluator<'a>, RuleError> {
        let groups = prog.groups()?;
        let mut stores = Vec::with_capacity(prog.rels.len());
        for decl in &prog.rels {
            stores.push(match decl.kind {
                RelKind::Edb => Store::Extern(EdbRel::from_name(decl.name).ok_or_else(|| {
                    RuleError(format!("`{}` is not in the extensional catalog", decl.name))
                })?),
                RelKind::Idb => {
                    if decl.schema.len() == 1 {
                        Store::Unary(BitSet::new(db.dom_size(decl.schema[0])))
                    } else {
                        Store::Binary {
                            rows: vec![None; db.dom_size(decl.schema[0])],
                            val_size: db.dom_size(decl.schema[1]),
                            len: 0,
                        }
                    }
                }
            });
        }
        // Constants must be dense indices of their column's domain.
        for rule in &prog.rules {
            let atoms = rule.body.iter().filter_map(|l| match l {
                CLit::Pos(a) | CLit::Neg(a) => Some(a),
                CLit::Neq(..) => None,
            });
            for atom in atoms.chain(std::iter::once(&rule.head)) {
                let schema = &prog.rels[atom.rel].schema;
                for (t, &dom) in atom.terms.iter().zip(schema) {
                    if let CTerm::Const(c) = t {
                        if *c as usize >= db.dom_size(dom) {
                            return Err(RuleError(format!(
                                "constant {c} is out of range for domain {} (size {})",
                                dom.as_str(),
                                db.dom_size(dom)
                            )));
                        }
                    }
                }
            }
        }
        let mut group_rules = vec![Vec::new(); groups.order.len()];
        let mut occurrences = vec![Vec::new(); prog.rels.len()];
        for (ri, rule) in prog.rules.iter().enumerate() {
            let g = groups.group_of[rule.head.rel];
            group_rules[g].push(ri);
            for (li, lit) in rule.body.iter().enumerate() {
                if let CLit::Pos(a) = lit {
                    if groups.group_of[a.rel] == g {
                        occurrences[a.rel].push((ri, li));
                    }
                }
            }
        }
        let n_groups = groups.order.len();
        Ok(Evaluator {
            prog,
            db,
            stores,
            groups,
            group_rules,
            occurrences,
            evaluated: vec![false; n_groups],
            stats: EvalStats::default(),
        })
    }

    /// Seeds a fact into an intensional relation (program inputs, e.g.
    /// taint sources). Must run before the relation's group evaluates.
    ///
    /// # Panics
    ///
    /// Panics on an extensional relation, an arity mismatch, an
    /// out-of-domain index, or a relation whose group already ran.
    pub fn seed(&mut self, rel: RelId, tuple: &[u32]) {
        let r = rel.0 as usize;
        let decl = &self.prog.rels[r];
        assert_eq!(
            decl.kind,
            RelKind::Idb,
            "cannot seed extensional `{}`",
            decl.name
        );
        assert_eq!(
            decl.schema.len(),
            tuple.len(),
            "`{}` has arity {}",
            decl.name,
            decl.schema.len()
        );
        for (x, &dom) in tuple.iter().zip(&decl.schema) {
            assert!(
                (*x as usize) < self.db.dom_size(dom),
                "seed {x} out of range for domain {}",
                dom.as_str()
            );
        }
        assert!(
            !self.evaluated[self.groups.group_of[r]],
            "`{}` already evaluated; seed before running",
            decl.name
        );
        let (a, b) = (tuple[0], tuple.get(1).copied().unwrap_or(0));
        self.insert(r, a, b);
    }

    /// Runs every group to fixpoint, dependencies first. Idempotent.
    pub fn run(&mut self) {
        for g in 0..self.groups.order.len() {
            if !self.evaluated[g] {
                self.eval_group(g);
                self.evaluated[g] = true;
            }
        }
    }

    /// The evaluation counters so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Membership test against the current stores (extensional relations
    /// are answered by the view). Call [`Evaluator::run`] first for
    /// intensional relations.
    pub fn contains(&self, rel: RelId, tuple: &[u32]) -> bool {
        let r = rel.0 as usize;
        assert_eq!(
            self.prog.rels[r].schema.len(),
            tuple.len(),
            "arity mismatch"
        );
        self.rel_contains(r, tuple[0], tuple.get(1).copied().unwrap_or(0))
    }

    /// The elements of a unary relation, in increasing order.
    pub fn unary(&self, rel: RelId) -> Vec<u32> {
        let r = rel.0 as usize;
        assert_eq!(self.prog.rels[r].schema.len(), 1, "`unary` needs arity 1");
        match &self.stores[r] {
            Store::Unary(s) => s.iter().map(|x| x as u32).collect(),
            Store::Extern(e) => {
                let mut out = Vec::new();
                self.db.for_each(*e, &mut |a, _| out.push(a));
                out.sort_unstable();
                out
            }
            Store::Binary { .. } => unreachable!("arity checked above"),
        }
    }

    /// The tuples of a binary relation, sorted.
    pub fn pairs(&self, rel: RelId) -> Vec<(u32, u32)> {
        let r = rel.0 as usize;
        assert_eq!(self.prog.rels[r].schema.len(), 2, "`pairs` needs arity 2");
        let mut out = Vec::new();
        match &self.stores[r] {
            Store::Binary { rows, .. } => {
                for (k, row) in rows.iter().enumerate() {
                    if let Some(row) = row {
                        out.extend(row.iter().map(|v| (k as u32, v as u32)));
                    }
                }
            }
            Store::Extern(e) => {
                self.db.for_each(*e, &mut |a, b| out.push((a, b)));
                out.sort_unstable();
            }
            Store::Unary(_) => unreachable!("arity checked above"),
        }
        out
    }

    // --- group evaluation --------------------------------------------------

    fn eval_group(&mut self, g: usize) {
        let rules = self.group_rules[g].clone();
        // Naive round: every rule joined in full (sees seeds and the
        // results of earlier rules in this group), fresh tuples queued.
        let mut wl: Vec<(usize, u32, u32)> = Vec::new();
        for &ri in &rules {
            self.eval_rule(ri, usize::MAX, None, &mut wl);
        }
        // Delta rounds: drive each fresh tuple through every same-group
        // positive occurrence exactly once.
        while let Some((rel, a, b)) = wl.pop() {
            self.stats.rounds += 1;
            for i in 0..self.occurrences[rel].len() {
                let (ri, li) = self.occurrences[rel][i];
                self.eval_rule(ri, li, Some((a, b)), &mut wl);
            }
        }
    }

    /// Evaluates one rule. With `tuple`, body literal `skip` is pre-bound
    /// to the delta tuple and excluded from the join; with `skip ==
    /// usize::MAX` the rule is joined in full. Fresh head tuples are
    /// inserted and queued on `wl`.
    fn eval_rule(
        &mut self,
        ri: usize,
        skip: usize,
        tuple: Option<(u32, u32)>,
        wl: &mut Vec<(usize, u32, u32)>,
    ) {
        let prog = self.prog;
        let rule = &prog.rules[ri];
        let mut binds = vec![UNBOUND; rule.vars.len()];
        if let Some((a, b)) = tuple {
            let CLit::Pos(atom) = &rule.body[skip] else {
                unreachable!("delta occurrences are positive atoms")
            };
            for (t, v) in atom.terms.iter().zip([a, b]) {
                if unify(*t, v, &mut binds).is_err() {
                    return;
                }
            }
        }
        let mut out: Vec<(u32, u32)> = Vec::new();
        self.join_from(rule, 0, skip, &mut binds, &mut out);
        let head_rel = rule.head.rel;
        for (a, b) in out {
            if self.insert(head_rel, a, b) {
                self.stats.derived += 1;
                wl.push((head_rel, a, b));
            }
        }
    }

    /// Left-to-right nested-loop join over `body[li..]`, skipping the
    /// pre-bound literal `skip`. Past the last literal the head tuple is
    /// materialized into `out`.
    fn join_from(
        &self,
        rule: &CRule,
        li: usize,
        skip: usize,
        binds: &mut [u32],
        out: &mut Vec<(u32, u32)>,
    ) {
        if li == rule.body.len() {
            let a = resolve(rule.head.terms[0], binds).expect("head bound");
            let b = rule
                .head
                .terms
                .get(1)
                .map(|t| resolve(*t, binds).expect("head bound"))
                .unwrap_or(0);
            out.push((a, b));
            return;
        }
        if li == skip {
            return self.join_from(rule, li + 1, skip, binds, out);
        }
        match &rule.body[li] {
            CLit::Neq(a, b) => {
                let (a, b) = (
                    resolve(*a, binds).expect("neq operand bound"),
                    resolve(*b, binds).expect("neq operand bound"),
                );
                if a != b {
                    self.join_from(rule, li + 1, skip, binds, out);
                }
            }
            CLit::Neg(atom) => {
                if !self.atom_exists(atom, binds) {
                    self.join_from(rule, li + 1, skip, binds, out);
                }
            }
            CLit::Pos(atom) if atom.terms.len() == 1 => {
                let t = atom.terms[0];
                match resolve(t, binds) {
                    Some(x) => {
                        if self.rel_contains(atom.rel, x, 0) {
                            self.join_from(rule, li + 1, skip, binds, out);
                        }
                    }
                    None => match t {
                        CTerm::Var(v) => {
                            self.rel_for_each(atom.rel, &mut |x, _| {
                                binds[v as usize] = x;
                                self.join_from(rule, li + 1, skip, binds, out);
                            });
                            binds[v as usize] = UNBOUND;
                        }
                        CTerm::Wild => {
                            if self.rel_any(atom.rel) {
                                self.join_from(rule, li + 1, skip, binds, out);
                            }
                        }
                        CTerm::Const(_) => unreachable!("constants resolve"),
                    },
                }
            }
            CLit::Pos(atom) => {
                let (t0, t1) = (atom.terms[0], atom.terms[1]);
                match resolve(t0, binds) {
                    Some(k) => match (resolve(t1, binds), t1) {
                        (Some(v), _) => {
                            if self.rel_contains(atom.rel, k, v) {
                                self.join_from(rule, li + 1, skip, binds, out);
                            }
                        }
                        (None, CTerm::Var(v1)) => {
                            self.rel_matching(atom.rel, k, &mut |v| {
                                binds[v1 as usize] = v;
                                self.join_from(rule, li + 1, skip, binds, out);
                            });
                            binds[v1 as usize] = UNBOUND;
                        }
                        (None, CTerm::Wild) => {
                            if self.rel_has_key(atom.rel, k) {
                                self.join_from(rule, li + 1, skip, binds, out);
                            }
                        }
                        (None, CTerm::Const(_)) => unreachable!("constants resolve"),
                    },
                    None => {
                        // First column unbound: full scan with unification
                        // (no reverse index; acceptable for the catalog's
                        // small key-unbound uses).
                        self.rel_for_each(atom.rel, &mut |a, b| {
                            let Ok(u0) = unify(t0, a, binds) else { return };
                            if let Ok(u1) = unify(t1, b, binds) {
                                self.join_from(rule, li + 1, skip, binds, out);
                                if let Some(v) = u1 {
                                    binds[v as usize] = UNBOUND;
                                }
                            }
                            if let Some(v) = u0 {
                                binds[v as usize] = UNBOUND;
                            }
                        });
                    }
                }
            }
        }
    }

    /// Existence check for a negated atom; unbound positions are wilds.
    fn atom_exists(&self, atom: &crate::program::CAtom, binds: &[u32]) -> bool {
        if atom.terms.len() == 1 {
            return match resolve(atom.terms[0], binds) {
                Some(x) => self.rel_contains(atom.rel, x, 0),
                None => self.rel_any(atom.rel),
            };
        }
        match (resolve(atom.terms[0], binds), resolve(atom.terms[1], binds)) {
            (Some(a), Some(b)) => self.rel_contains(atom.rel, a, b),
            (Some(a), None) => self.rel_has_key(atom.rel, a),
            (None, Some(b)) => {
                let mut any = false;
                self.rel_for_each(atom.rel, &mut |_, v| any |= v == b);
                any
            }
            (None, None) => self.rel_any(atom.rel),
        }
    }

    // --- store access -------------------------------------------------------

    fn insert(&mut self, rel: usize, a: u32, b: u32) -> bool {
        match &mut self.stores[rel] {
            Store::Unary(s) => s.insert(a as usize),
            Store::Binary {
                rows,
                val_size,
                len,
            } => {
                let row = rows[a as usize].get_or_insert_with(|| BitSet::new(*val_size));
                let fresh = row.insert(b as usize);
                if fresh {
                    *len += 1;
                }
                fresh
            }
            Store::Extern(_) => unreachable!("rules cannot derive extensional relations"),
        }
    }

    fn rel_contains(&self, rel: usize, a: u32, b: u32) -> bool {
        match &self.stores[rel] {
            Store::Extern(e) => self.db.contains(*e, a, b),
            Store::Unary(s) => s.contains(a as usize),
            Store::Binary { rows, .. } => rows[a as usize]
                .as_ref()
                .is_some_and(|r| r.contains(b as usize)),
        }
    }

    fn rel_for_each(&self, rel: usize, f: &mut dyn FnMut(u32, u32)) {
        match &self.stores[rel] {
            Store::Extern(e) => self.db.for_each(*e, f),
            Store::Unary(s) => {
                for x in s.iter() {
                    f(x as u32, 0);
                }
            }
            Store::Binary { rows, .. } => {
                for (k, row) in rows.iter().enumerate() {
                    if let Some(row) = row {
                        for v in row.iter() {
                            f(k as u32, v as u32);
                        }
                    }
                }
            }
        }
    }

    fn rel_matching(&self, rel: usize, key: u32, f: &mut dyn FnMut(u32)) {
        match &self.stores[rel] {
            Store::Extern(e) => self.db.for_each_matching(*e, key, f),
            Store::Binary { rows, .. } => {
                if let Some(row) = &rows[key as usize] {
                    for v in row.iter() {
                        f(v as u32);
                    }
                }
            }
            Store::Unary(_) => unreachable!("unary relation has no second column"),
        }
    }

    fn rel_has_key(&self, rel: usize, key: u32) -> bool {
        match &self.stores[rel] {
            Store::Extern(e) => self.db.has_key(*e, key),
            Store::Binary { rows, .. } => {
                rows[key as usize].as_ref().is_some_and(|r| !r.is_empty())
            }
            Store::Unary(_) => unreachable!("unary relation has no second column"),
        }
    }

    fn rel_any(&self, rel: usize) -> bool {
        match &self.stores[rel] {
            Store::Extern(e) => {
                let mut any = false;
                self.db.for_each(*e, &mut |_, _| any = true);
                any
            }
            Store::Unary(s) => !s.is_empty(),
            Store::Binary { len, .. } => *len > 0,
        }
    }
}

fn resolve(t: CTerm, binds: &[u32]) -> Option<u32> {
    match t {
        CTerm::Const(c) => Some(c),
        CTerm::Wild => None,
        CTerm::Var(v) => match binds[v as usize] {
            UNBOUND => None,
            x => Some(x),
        },
    }
}

/// Matches `t` against `val`: `Ok(Some(v))` freshly bound variable `v`
/// (caller unbinds after backtracking), `Ok(None)` matched without
/// binding, `Err(())` mismatch.
fn unify(t: CTerm, val: u32, binds: &mut [u32]) -> Result<Option<u8>, ()> {
    match t {
        CTerm::Wild => Ok(None),
        CTerm::Const(c) => {
            if c == val {
                Ok(None)
            } else {
                Err(())
            }
        }
        CTerm::Var(v) => {
            let slot = &mut binds[v as usize];
            if *slot == UNBOUND {
                *slot = val;
                Ok(Some(v))
            } else if *slot == val {
                Ok(None)
            } else {
                Err(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{head, neg, pos, var, Dom, RelId, RuleProgram, WILD};
    use stcfa_core::{Analysis, QueryEngine};
    use stcfa_lambda::Program;

    fn setup(src: &str) -> (Program, Analysis) {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        (p, a)
    }

    const HIGHER_ORDER: &str = "fun apply f = fn y => f y; apply (fn n => print n) 7";

    /// `invoked(l)`: the labels reaching some application's operator.
    /// The operators' nodes are closed forward over the subtransitive
    /// edges (a node's label set is the labels its successors carry) and
    /// joined with the label origins.
    fn invoked_program() -> (RuleProgram, RelId) {
        let mut rp = RuleProgram::new();
        let app_func = rp.edb("app_func", &[Dom::Expr, Dom::Expr]);
        let expr_node = rp.edb("expr_node", &[Dom::Expr, Dom::Node]);
        let edge = rp.edb("edge", &[Dom::Node, Dom::Node]);
        let origin = rp.edb("label_origin", &[Dom::Label, Dom::Node]);
        let flows = rp.decl("flows", &[Dom::Node]);
        let invoked = rp.decl("invoked", &[Dom::Label]);
        rp.rule(
            head(flows, &[var("n")]),
            vec![
                pos(app_func, &[WILD, var("f")]),
                pos(expr_node, &[var("f"), var("n")]),
            ],
        )
        .unwrap();
        rp.rule(
            head(flows, &[var("m")]),
            vec![pos(flows, &[var("n")]), pos(edge, &[var("n"), var("m")])],
        )
        .unwrap();
        rp.rule(
            head(invoked, &[var("l")]),
            vec![pos(origin, &[var("l"), var("n")]), pos(flows, &[var("n")])],
        )
        .unwrap();
        (rp, invoked)
    }

    /// `invoked` must agree with the engine's own per-application label
    /// sets.
    #[test]
    fn invoked_labels_match_engine_answers() {
        let (p, a) = setup(HIGHER_ORDER);
        let engine = QueryEngine::freeze(&a);
        let db = ExtDb::new(&p, &a, &engine);
        let (rp, invoked) = invoked_program();

        let mut want: Vec<u32> = Vec::new();
        for app in p.app_sites() {
            if let stcfa_lambda::ExprKind::App { func, .. } = p.kind(app) {
                want.extend(engine.labels_of(*func).iter().map(|l| l.index() as u32));
            }
        }
        want.sort_unstable();
        want.dedup();
        assert!(!want.is_empty(), "something is applied");

        let mut ev = Evaluator::new(&rp, &db).unwrap();
        ev.run();
        assert_eq!(ev.unary(invoked), want);
    }

    /// Binary recursion (transitive closure) against brute force, and
    /// seeded facts flowing through rules.
    #[test]
    fn binary_transitive_closure_matches_brute_force() {
        let (p, a) = setup(HIGHER_ORDER);
        let engine = QueryEngine::freeze(&a);
        let db = ExtDb::new(&p, &a, &engine);
        let mut rp = RuleProgram::new();
        let edge = rp.edb("edge", &[Dom::Node, Dom::Node]);
        let tc = rp.decl("tc", &[Dom::Node, Dom::Node]);
        rp.rule(
            head(tc, &[var("x"), var("y")]),
            vec![pos(edge, &[var("x"), var("y")])],
        )
        .unwrap();
        rp.rule(
            head(tc, &[var("x"), var("z")]),
            vec![
                pos(tc, &[var("x"), var("y")]),
                pos(edge, &[var("y"), var("z")]),
            ],
        )
        .unwrap();
        let mut ev = Evaluator::new(&rp, &db).unwrap();
        ev.run();
        let got = ev.pairs(tc);

        // Brute force: BFS from every node over the CSR.
        let csr = engine.csr();
        let mut want: Vec<(u32, u32)> = Vec::new();
        for s in 0..engine.node_count() {
            let mut seen = BitSet::new(engine.node_count());
            let mut stack: Vec<usize> = csr.succs(s).iter().map(|&v| v as usize).collect();
            while let Some(u) = stack.pop() {
                if seen.insert(u) {
                    want.push((s as u32, u as u32));
                    stack.extend(csr.succs(u).iter().map(|&v| v as usize));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(ev.stats().rounds > 0, "delta rounds ran");
        assert!(ev.stats().derived >= got.len());
    }

    /// Stratified negation over real views: labels never invoked.
    #[test]
    fn negation_filters_against_completed_stratum() {
        let (p, a) = setup("let val dead = fn x => x in (fn y => y) 1 end");
        let engine = QueryEngine::freeze(&a);
        let db = ExtDb::new(&p, &a, &engine);
        let (mut rp, invoked) = invoked_program();
        let origin = rp.edb("label_origin", &[Dom::Label, Dom::Node]);
        let dead = rp.decl("dead", &[Dom::Label]);
        rp.rule(
            head(dead, &[var("l")]),
            vec![pos(origin, &[var("l"), WILD]), neg(invoked, &[var("l")])],
        )
        .unwrap();
        let mut ev = Evaluator::new(&rp, &db).unwrap();
        ev.run();
        assert_eq!(p.label_count(), 2);
        assert_eq!(ev.unary(invoked).len(), 1, "only fn y is applied");
        assert_eq!(ev.unary(dead).len(), 1, "fn x is dead");
        assert_ne!(ev.unary(invoked), ev.unary(dead));
    }

    /// Seeds flow through recursive rules, and out-of-contract seeds are
    /// rejected.
    #[test]
    fn seeding_and_guards() {
        let (p, a) = setup(HIGHER_ORDER);
        let engine = QueryEngine::freeze(&a);
        let db = ExtDb::new(&p, &a, &engine);
        let mut rp = RuleProgram::new();
        let edge = rp.edb("edge", &[Dom::Node, Dom::Node]);
        let treach = rp.decl("treach", &[Dom::Node]);
        rp.rule(
            head(treach, &[var("n")]),
            vec![pos(edge, &[var("n"), var("m")]), pos(treach, &[var("m")])],
        )
        .unwrap();
        let mut ev = Evaluator::new(&rp, &db).unwrap();
        // Without seeds the relation is empty even after a full run.
        let mut empty = Evaluator::new(&rp, &db).unwrap();
        empty.run();
        assert!(empty.unary(treach).is_empty());
        // Seed one node: at least that node holds.
        ev.seed(treach, &[0]);
        ev.run();
        assert!(ev.contains(treach, &[0]));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut e2 = Evaluator::new(&rp, &db).unwrap();
            e2.seed(edge, &[0, 0]);
        }));
        assert!(res.is_err(), "seeding an extensional relation panics");
    }
}
