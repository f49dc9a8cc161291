//! The rewrite engine: applies one pass's [`RewritePlan`] in a single
//! arena rebuild.
//!
//! Programs are immutable arenas with program-wide unique binders, so a
//! rewrite is a *copy with edits*: walk the source from the root, rebuild
//! every node through a fresh [`ProgramBuilder`], and substitute at the
//! planned occurrences. Because each pass performs at most one rebuild,
//! every source node is copied at most once and binder freshening can
//! never collide — the property the sound inlining restriction (sole
//! occurrence, binding dropped in the same rebuild) relies on.

use std::collections::HashMap;

use stcfa_lambda::parser::MAX_HEIGHT;
use stcfa_lambda::{ExprId, ExprKind, Literal, Program, ProgramBuilder, TyExpr, VarId};

/// One planned edit, keyed by the source occurrence it replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Replace the application (operator, operand and all) with `()`.
    /// Only planned for sites proven both flow-dead and never evaluated.
    ElideApp,
    /// `(fn x => body) arg` becomes `let x = arg in body end`.
    InlineRedex,
    /// `f arg` (with `f` bound directly to `lam` and occurring nowhere
    /// else) becomes `let x = arg in body end`, copying `lam`'s body here.
    /// Always paired with [`Action::DropBinding`] on the binding node.
    InlineBound {
        /// The abstraction whose body is inlined at the site.
        lam: ExprId,
    },
    /// Replace the operand with `()` (the argument only feeds parameters
    /// proven unused).
    UnitArg,
    /// Replace the `let`/`letrec` with its body, dropping the binding
    /// whose sole use was inlined away.
    DropBinding,
}

/// The edits one pass wants to make, at most one per occurrence.
#[derive(Clone, Debug, Default)]
pub struct RewritePlan {
    actions: HashMap<usize, Action>,
    rewrites: usize,
}

impl RewritePlan {
    /// Records an edit at `at`. Returns `false` (and records nothing) if
    /// the occurrence already has one.
    pub fn insert(&mut self, at: ExprId, action: Action) -> bool {
        if self.actions.contains_key(&at.index()) {
            return false;
        }
        if !matches!(action, Action::DropBinding) {
            self.rewrites += 1;
        }
        self.actions.insert(at.index(), action);
        true
    }

    /// Planned rewrites. Bookkeeping edits ([`Action::DropBinding`]) do
    /// not count: an inline is one rewrite, not two.
    pub fn rewrites(&self) -> usize {
        self.rewrites
    }

    /// Whether the plan has no edits at all.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The occurrences of the planned rewrites, in arena order
    /// (bookkeeping edits excluded, as in [`RewritePlan::rewrites`]).
    pub fn sites(&self) -> Vec<ExprId> {
        let mut sites: Vec<usize> = self
            .actions
            .iter()
            .filter(|(_, action)| !matches!(action, Action::DropBinding))
            .map(|(&at, _)| at)
            .collect();
        sites.sort_unstable();
        sites.into_iter().map(ExprId::from_index).collect()
    }

    fn get(&self, at: ExprId) -> Option<Action> {
        self.actions.get(&at.index()).copied()
    }
}

/// The outcome of applying a plan.
#[derive(Debug)]
pub struct Rewritten {
    /// The rebuilt (validated) program.
    pub program: Program,
    /// Rewrites actually performed. Smaller than planned when one rewrite
    /// subsumes another (a dead application inside a dead application).
    pub performed: usize,
}

/// Applies `plan` to `src` in one rebuild. Errors only on a broken plan
/// invariant (a variable escaping its scope, an action on the wrong node
/// shape) — planning against live evidence never produces one.
///
/// Returns `Ok(None)` when the rebuilt program would be taller than the
/// parser's [`MAX_HEIGHT`]: inlining a body copies it below its call
/// site, so a rebuild can be taller than any program the parser accepts,
/// and every recursive walker downstream relies on that bound. The
/// rebuild stops at the limit, so the copy itself stays within it too.
pub fn apply(src: &Program, plan: &RewritePlan) -> Result<Option<Rewritten>, String> {
    let mut copier = Copier {
        src,
        b: ProgramBuilder::new(),
        var_map: vec![None; src.var_count()],
        plan,
        performed: 0,
        error: None,
        depth: 0,
        too_deep: false,
    };
    copier.copy_data_env();
    let root = copier.copy(src.root());
    if let Some(e) = copier.error {
        return Err(e);
    }
    if copier.too_deep {
        return Ok(None);
    }
    let performed = copier.performed;
    let program = copier
        .b
        .finish(root)
        .map_err(|e| format!("rewritten program failed validation: {e}"))?;
    Ok(Some(Rewritten { program, performed }))
}

struct Copier<'a> {
    src: &'a Program,
    b: ProgramBuilder,
    var_map: Vec<Option<VarId>>,
    plan: &'a RewritePlan,
    performed: usize,
    error: Option<String>,
    /// Open [`Copier::copy`] calls: a bound on the height of the output
    /// built below the current one.
    depth: usize,
    /// Whether the rebuild reached [`MAX_HEIGHT`] and was cut short.
    too_deep: bool,
}

impl Copier<'_> {
    fn copy_data_env(&mut self) {
        let env = self.src.data_env();
        for d in env.datas() {
            let name = self.src.interner().resolve(env.data(d).name).to_owned();
            let nd = self.b.declare_data(&name);
            debug_assert_eq!(nd, d, "datatype ids are preserved in order");
            for &c in &env.data(d).cons.clone() {
                let cname = self.src.interner().resolve(env.con(c).name).to_owned();
                let tys: Vec<TyExpr> = env.con(c).arg_tys.to_vec();
                let nc = self.b.declare_con(nd, &cname, tys);
                debug_assert_eq!(nc, c, "constructor ids are preserved in order");
            }
        }
    }

    fn fresh_like(&mut self, old: VarId) -> VarId {
        let name = self.src.var_name(old).to_owned();
        let nv = self.b.fresh_var(&name);
        self.var_map[old.index()] = Some(nv);
        nv
    }

    fn fail(&mut self, message: String) -> ExprId {
        if self.error.is_none() {
            self.error = Some(message);
        }
        self.b.unit() // placeholder; the error aborts the result
    }

    fn copy(&mut self, e: ExprId) -> ExprId {
        if self.depth == MAX_HEIGHT {
            self.too_deep = true;
            return self.b.unit(); // placeholder; the rebuild is dropped
        }
        self.depth += 1;
        let copied = self.copy_step(e);
        self.depth -= 1;
        copied
    }

    fn copy_step(&mut self, e: ExprId) -> ExprId {
        match self.plan.get(e) {
            Some(Action::ElideApp) => {
                self.performed += 1;
                return self.b.unit();
            }
            Some(Action::InlineRedex) => return self.inline_redex(e),
            Some(Action::InlineBound { lam }) => return self.inline_bound(e, lam),
            Some(Action::UnitArg) => return self.unit_arg(e),
            Some(Action::DropBinding) => return self.drop_binding(e),
            None => {}
        }
        match self.src.kind(e).clone() {
            ExprKind::Var(v) => match self.var_map[v.index()] {
                Some(nv) => self.b.var(nv),
                None => {
                    let name = self.src.var_name(v).to_owned();
                    self.fail(format!("variable `{name}` escaped its scope at {e:?}"))
                }
            },
            ExprKind::Lam { param, body, .. } => {
                let np = self.fresh_like(param);
                let nb = self.copy(body);
                self.b.lam(np, nb)
            }
            ExprKind::App { func, arg } => {
                let nf = self.copy(func);
                let na = self.copy(arg);
                self.b.app(nf, na)
            }
            ExprKind::Let { binder, rhs, body } => {
                let nr = self.copy(rhs);
                let nb = self.fresh_like(binder);
                let nbody = self.copy(body);
                self.b.let_(nb, nr, nbody)
            }
            ExprKind::LetRec {
                binder,
                lambda,
                body,
            } => {
                let nb = self.fresh_like(binder);
                let nl = self.copy(lambda);
                let nbody = self.copy(body);
                self.b.letrec(nb, nl, nbody)
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let nc = self.copy(cond);
                let nt = self.copy(then_branch);
                let ne = self.copy(else_branch);
                self.b.if_(nc, nt, ne)
            }
            ExprKind::Record(items) => {
                let nitems: Vec<ExprId> = items.iter().map(|&i| self.copy(i)).collect();
                self.b.record(nitems)
            }
            ExprKind::Proj { index, tuple } => {
                let nt = self.copy(tuple);
                self.b.proj(index, nt)
            }
            ExprKind::Con { con, args } => {
                let nargs: Vec<ExprId> = args.iter().map(|&a| self.copy(a)).collect();
                self.b.con(con, nargs)
            }
            ExprKind::Case {
                scrutinee,
                arms,
                default,
            } => {
                let ns = self.copy(scrutinee);
                let narms: Vec<_> = arms
                    .iter()
                    .map(|arm| {
                        let nbinders: Vec<VarId> =
                            arm.binders.iter().map(|&b| self.fresh_like(b)).collect();
                        let nbody = self.copy(arm.body);
                        (arm.con, nbinders, nbody)
                    })
                    .collect();
                let ndefault = default.map(|d| self.copy(d));
                self.b.case(ns, narms, ndefault)
            }
            ExprKind::Lit(Literal::Int(n)) => self.b.int(n),
            ExprKind::Lit(Literal::Bool(v)) => self.b.bool(v),
            ExprKind::Lit(Literal::Unit) => self.b.unit(),
            ExprKind::Prim { op, args } => {
                let nargs: Vec<ExprId> = args.iter().map(|&a| self.copy(a)).collect();
                self.b.prim(op, nargs)
            }
        }
    }

    /// `(fn x => body) arg` → `let x = arg in body end`. The operator is
    /// the abstraction itself, so no binding is dropped. Evaluation order
    /// is preserved: the abstraction evaluated first in the source, but to
    /// a closure, effect-free.
    fn inline_redex(&mut self, site: ExprId) -> ExprId {
        let ExprKind::App { func, arg } = self.src.kind(site).clone() else {
            return self.fail(format!("inline-redex planned at non-application {site:?}"));
        };
        let ExprKind::Lam { param, body, .. } = self.src.kind(func).clone() else {
            return self.fail(format!(
                "inline-redex operator is not an abstraction: {func:?}"
            ));
        };
        self.performed += 1;
        let narg = self.copy(arg);
        let nparam = self.fresh_like(param);
        let nbody = self.copy(body);
        self.b.let_(nparam, narg, nbody)
    }

    /// `f arg` → `let x = arg in body end`, where `body` is `lam`'s body
    /// copied here — its only copy, because the binding that held `lam` is
    /// dropped in this same rebuild. Free variables of the body are bound
    /// by binders enclosing the (dropped) binding, hence enclosing this
    /// site, hence already mapped.
    fn inline_bound(&mut self, site: ExprId, lam: ExprId) -> ExprId {
        let ExprKind::App { arg, .. } = self.src.kind(site).clone() else {
            return self.fail(format!("inline planned at non-application {site:?}"));
        };
        let ExprKind::Lam { param, body, .. } = self.src.kind(lam).clone() else {
            return self.fail(format!("inline target is not an abstraction: {lam:?}"));
        };
        self.performed += 1;
        let narg = self.copy(arg);
        let nparam = self.fresh_like(param);
        let nbody = self.copy(body);
        self.b.let_(nparam, narg, nbody)
    }

    /// `f arg` → `f ()`. Planned only when the argument is a value form,
    /// so dropping it cannot lose effects or divergence.
    fn unit_arg(&mut self, site: ExprId) -> ExprId {
        let ExprKind::App { func, .. } = self.src.kind(site).clone() else {
            return self.fail(format!("prune planned at non-application {site:?}"));
        };
        self.performed += 1;
        let nf = self.copy(func);
        let na = self.b.unit();
        self.b.app(nf, na)
    }

    /// `let f = … in body end` → `body`. The right-hand side is not
    /// copied here; for an inline pairing, its body is copied at the call
    /// site instead.
    fn drop_binding(&mut self, e: ExprId) -> ExprId {
        match self.src.kind(e).clone() {
            ExprKind::Let { body, .. } | ExprKind::LetRec { body, .. } => self.copy(body),
            _ => self.fail(format!("drop-binding planned at non-binding {e:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_lambda::eval::{eval, EvalOptions, Value};

    fn int_of(p: &Program) -> i64 {
        match eval(p, EvalOptions::default()).expect("evaluates").value {
            Value::Int(n) => n,
            other => panic!("expected int, got {other:?}"),
        }
    }

    #[test]
    fn empty_plan_is_an_alpha_renaming() {
        let p = Program::parse("let val f = fn x => x + 1 in f 41 end").unwrap();
        let r = apply(&p, &RewritePlan::default()).unwrap().unwrap();
        assert_eq!(r.performed, 0);
        assert_eq!(r.program.size(), p.size());
        assert_eq!(int_of(&r.program), 42);
    }

    #[test]
    fn inline_bound_drops_the_binding() {
        let p = Program::parse("let val f = fn x => x + 1 in f 41 end").unwrap();
        let site = p.app_sites()[0];
        let lam = p.lam_of_label(p.all_labels().next().unwrap());
        let letn = p.root();
        let mut plan = RewritePlan::default();
        assert!(plan.insert(site, Action::InlineBound { lam }));
        assert!(plan.insert(letn, Action::DropBinding));
        assert_eq!(plan.rewrites(), 1);
        let r = apply(&p, &plan).unwrap().unwrap();
        assert_eq!(r.performed, 1);
        assert_eq!(int_of(&r.program), 42);
        assert_eq!(r.program.label_count(), 0);
        assert!(r.program.size() < p.size());
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let p = Program::parse("(fn x => x) 1").unwrap();
        let mut plan = RewritePlan::default();
        assert!(plan.insert(p.root(), Action::InlineRedex));
        assert!(!plan.insert(p.root(), Action::ElideApp));
        assert_eq!(plan.rewrites(), 1);
    }

    #[test]
    fn nested_elisions_are_subsumed() {
        // Both applications inside the never-invoked abstraction are
        // planned; the outer elision swallows the inner one.
        let p = Program::parse("let val dead = fn d => (d 1) 2 in 7 end").unwrap();
        let mut plan = RewritePlan::default();
        let mut apps = p.app_sites();
        apps.sort_by_key(|e| e.index());
        for a in &apps {
            plan.insert(*a, Action::ElideApp);
        }
        assert_eq!(plan.rewrites(), 2);
        let r = apply(&p, &plan).unwrap().unwrap();
        assert_eq!(r.performed, 1);
        assert_eq!(int_of(&r.program), 7);
    }
}
