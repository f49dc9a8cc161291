//! Pins `validate`'s verdicts on damaged arenas.
//!
//! Each case builds an arena with [`ProgramBuilder`], some of them
//! deliberately not trees or not closed, and pins the `Display` of the
//! error `finish` reports. Several cases damage an arena in two ways at
//! once, so the checks' precedence (tree, then scopes, then labels, then
//! shapes) and, within a check, which of several faults is reported
//! (the lowest id for the tree and shape checks, the first in the scope
//! walk's depth-first order for scopes) are pinned too.
//!
//! The property below draws random arenas, most of them damaged, and
//! requires `validate` to agree with `reference`, a direct transcription
//! of the invariants as four separate passes.

use stcfa::lambda::{
    validate::{validate, ValidateError},
    ConId, ExprId, ExprKind, PrimOp, Program, ProgramBuilder, TyExpr, VarId,
};
use stcfa_devkit::prelude::*;

fn verdict(b: ProgramBuilder, root: ExprId) -> String {
    match b.finish(root) {
        Ok(_) => "ok".to_owned(),
        Err(e) => e.to_string(),
    }
}

/// `datatype t = A | B of int` and `datatype u = C`.
fn with_datatypes() -> (ProgramBuilder, [ConId; 3]) {
    let mut b = ProgramBuilder::new();
    let t = b.declare_data("t");
    let a = b.declare_con(t, "A", vec![]);
    let bc = b.declare_con(t, "B", vec![TyExpr::Int]);
    let u = b.declare_data("u");
    let c = b.declare_con(u, "C", vec![]);
    (b, [a, bc, c])
}

type Case = (&'static str, fn() -> (ProgramBuilder, ExprId), &'static str);

fn cases() -> Vec<Case> {
    vec![
        (
            "well-formed",
            || {
                let mut b = ProgramBuilder::new();
                let x = b.fresh_var("x");
                let xv = b.var(x);
                let id = b.lam(x, xv);
                let one = b.int(1);
                let root = b.app(id, one);
                (b, root)
            },
            "ok",
        ),
        (
            "shared child",
            || {
                let mut b = ProgramBuilder::new();
                let one = b.int(1);
                let root = b.prim(PrimOp::Add, vec![one, one]);
                (b, root)
            },
            "expression ExprId(0) has multiple parents (arena is not a tree)",
        ),
        (
            "orphan",
            || {
                let mut b = ProgramBuilder::new();
                b.int(1);
                let root = b.int(2);
                (b, root)
            },
            "expression ExprId(0) is unreachable from the root",
        ),
        (
            "root used as a child",
            || {
                let mut b = ProgramBuilder::new();
                let t = b.bool(true);
                b.prim(PrimOp::Not, vec![t]);
                (b, t)
            },
            "expression ExprId(0) has multiple parents (arena is not a tree)",
        ),
        (
            "unbound occurrence",
            || {
                let mut b = ProgramBuilder::new();
                let x = b.fresh_var("x");
                let xv = b.var(x);
                let lam = b.lam(x, xv);
                let escaped = b.var(x);
                let root = b.app(lam, escaped);
                (b, root)
            },
            "variable `x` at ExprId(2) is not in scope",
        ),
        (
            "rebound binder",
            || {
                let mut b = ProgramBuilder::new();
                let x = b.fresh_var("x");
                let xv = b.var(x);
                let inner = b.lam(x, xv);
                let root = b.lam(x, inner);
                (b, root)
            },
            "binder `x` is introduced more than once",
        ),
        (
            "case repeats a constructor",
            || {
                let (mut b, [a, ..]) = with_datatypes();
                let scrut = b.con(a, vec![]);
                let one = b.int(1);
                let two = b.int(2);
                let root = b.case(scrut, vec![(a, vec![], one), (a, vec![], two)], None);
                (b, root)
            },
            "case at ExprId(3) mixes datatypes or repeats a constructor",
        ),
        (
            "case mixes datatypes",
            || {
                let (mut b, [a, _, c]) = with_datatypes();
                let scrut = b.con(a, vec![]);
                let one = b.int(1);
                let two = b.int(2);
                let root = b.case(scrut, vec![(a, vec![], one), (c, vec![], two)], None);
                (b, root)
            },
            "case at ExprId(3) mixes datatypes or repeats a constructor",
        ),
        (
            "tree before scopes",
            || {
                // An unbound occurrence that is also shared.
                let mut b = ProgramBuilder::new();
                let y = b.fresh_var("y");
                let yv = b.var(y);
                let root = b.app(yv, yv);
                (b, root)
            },
            "expression ExprId(0) has multiple parents (arena is not a tree)",
        ),
        (
            "orphan before scopes",
            || {
                let mut b = ProgramBuilder::new();
                b.int(7);
                let y = b.fresh_var("y");
                let root = b.var(y);
                (b, root)
            },
            "expression ExprId(0) is unreachable from the root",
        ),
        (
            "scopes before shapes",
            || {
                // A repeated constructor whose arm uses an unbound name.
                let (mut b, [a, ..]) = with_datatypes();
                let z = b.fresh_var("z");
                let scrut = b.con(a, vec![]);
                let zv = b.var(z);
                let two = b.int(2);
                let root = b.case(scrut, vec![(a, vec![], zv), (a, vec![], two)], None);
                (b, root)
            },
            "variable `z` at ExprId(1) is not in scope",
        ),
        (
            "tree before shapes",
            || {
                let (mut b, [a, _, c]) = with_datatypes();
                let scrut = b.con(a, vec![]);
                let one = b.int(1);
                let two = b.int(2);
                let case = b.case(scrut, vec![(a, vec![], one), (c, vec![], two)], None);
                let root = b.prim(PrimOp::Add, vec![case, case]);
                (b, root)
            },
            "expression ExprId(3) has multiple parents (arena is not a tree)",
        ),
        (
            "root used as a child before an orphan",
            || {
                let mut b = ProgramBuilder::new();
                b.int(0);
                let t = b.bool(true);
                b.prim(PrimOp::Not, vec![t]);
                (b, t)
            },
            "expression ExprId(1) has multiple parents (arena is not a tree)",
        ),
        (
            "lowest id among orphan and shared child",
            || {
                let mut b = ProgramBuilder::new();
                let one = b.int(1);
                b.int(2);
                let root = b.prim(PrimOp::Add, vec![one, one]);
                (b, root)
            },
            "expression ExprId(0) has multiple parents (arena is not a tree)",
        ),
        (
            "lowest id among shared child and orphan",
            || {
                let mut b = ProgramBuilder::new();
                b.int(2);
                let one = b.int(1);
                let root = b.prim(PrimOp::Add, vec![one, one]);
                (b, root)
            },
            "expression ExprId(0) is unreachable from the root",
        ),
        (
            "lowest id among two shared children",
            || {
                let mut b = ProgramBuilder::new();
                let one = b.int(1);
                let two = b.int(2);
                let sum = b.prim(PrimOp::Add, vec![two, two]);
                let pair = b.record(vec![one, one]);
                let root = b.record(vec![sum, pair]);
                (b, root)
            },
            "expression ExprId(0) has multiple parents (arena is not a tree)",
        ),
        (
            "scope walk order, not id order",
            || {
                // The operand is built first, so it has the lower id, but the
                // walk visits the operator's body first.
                let mut b = ProgramBuilder::new();
                let z = b.fresh_var("z");
                let zv = b.var(z);
                let x = b.fresh_var("x");
                let y = b.fresh_var("y");
                let yv = b.var(y);
                let lam = b.lam(x, yv);
                let root = b.app(lam, zv);
                (b, root)
            },
            "variable `y` at ExprId(1) is not in scope",
        ),
        (
            "rebinding found before a later unbound occurrence",
            || {
                let mut b = ProgramBuilder::new();
                let x = b.fresh_var("x");
                let q = b.fresh_var("q");
                let one = b.int(1);
                let inner = b.lam(x, one);
                let outer = b.lam(x, inner);
                let qv = b.var(q);
                let root = b.app(outer, qv);
                (b, root)
            },
            "binder `x` is introduced more than once",
        ),
        (
            "let binds after its right-hand side",
            || {
                // `let x = x in x`: the right-hand side is outside the binding.
                let mut b = ProgramBuilder::new();
                let x = b.fresh_var("x");
                let rhs = b.var(x);
                let body = b.var(x);
                let root = b.let_(x, rhs, body);
                (b, root)
            },
            "variable `x` at ExprId(0) is not in scope",
        ),
        (
            "case binders scope over their arm only",
            || {
                let (mut b, [a, bc, _]) = with_datatypes();
                let n = b.fresh_var("n");
                let one = b.int(1);
                let scrut = b.con(bc, vec![one]);
                let nv = b.var(n);
                let nv2 = b.var(n);
                let root = b.case(scrut, vec![(bc, vec![n], nv), (a, vec![], nv2)], None);
                (b, root)
            },
            "variable `n` at ExprId(3) is not in scope",
        ),
        (
            "lowest id among two malformed cases",
            || {
                let (mut b, [a, _, c]) = with_datatypes();
                let s1 = b.con(a, vec![]);
                let one = b.int(1);
                let two = b.int(2);
                let first = b.case(s1, vec![(a, vec![], one), (c, vec![], two)], None);
                let s2 = b.con(c, vec![]);
                let three = b.int(3);
                let four = b.int(4);
                let second = b.case(s2, vec![(c, vec![], three), (c, vec![], four)], None);
                let root = b.record(vec![first, second]);
                (b, root)
            },
            "case at ExprId(3) mixes datatypes or repeats a constructor",
        ),
        (
            "children after their parent form a tree",
            || {
                let mut b = ProgramBuilder::new();
                let root = b.app(ExprId::from_index(1), ExprId::from_index(2));
                b.int(1);
                b.int(2);
                (b, root)
            },
            "ok",
        ),
        (
            "a child after its parent, shared",
            || {
                let mut b = ProgramBuilder::new();
                let root = b.app(ExprId::from_index(1), ExprId::from_index(1));
                b.int(1);
                (b, root)
            },
            "expression ExprId(1) has multiple parents (arena is not a tree)",
        ),
    ]
}

#[test]
fn verdicts_on_damaged_arenas_are_pinned() {
    for (name, build, want) in cases() {
        let (b, root) = build();
        assert_eq!(verdict(b, root), want, "{name}");
    }
}

/// The invariants as four separate passes over the whole arena: tree
/// shape, then scopes (a recursive walk from the root), then the label
/// table, then local shapes. `validate` must return exactly its verdict.
fn reference(program: &Program) -> Result<(), ValidateError> {
    let n = program.size();
    let mut parents = vec![0u8; n];
    for id in program.exprs() {
        program.for_each_child(id, |c| {
            parents[c.index()] = parents[c.index()].saturating_add(1)
        });
    }
    if parents[program.root().index()] != 0 {
        return Err(ValidateError::NotATree(program.root()));
    }
    for id in program.exprs() {
        if id != program.root() && parents[id.index()] == 0 {
            return Err(ValidateError::Orphan(id));
        }
        if parents[id.index()] > 1 {
            return Err(ValidateError::NotATree(id));
        }
    }
    let mut in_scope = vec![false; program.var_count()];
    let mut ever_bound = vec![false; program.var_count()];
    scopes(program, program.root(), &mut in_scope, &mut ever_bound)?;
    for l in program.all_labels() {
        let lam = program.lam_of_label(l);
        match program.kind(lam) {
            ExprKind::Lam { label, .. } if *label == l => {}
            _ => return Err(ValidateError::LabelMismatch(lam)),
        }
    }
    for id in program.exprs() {
        if let ExprKind::Lam { label, .. } = program.kind(id) {
            if program.lam_of_label(*label) != id {
                return Err(ValidateError::LabelMismatch(id));
            }
        }
    }
    let env = program.data_env();
    for id in program.exprs() {
        match program.kind(id) {
            ExprKind::LetRec { lambda, .. }
                if !matches!(program.kind(*lambda), ExprKind::Lam { .. }) =>
            {
                return Err(ValidateError::LetRecNotLambda(id));
            }
            ExprKind::Con { con, args } if args.len() != env.arity(*con) => {
                return Err(ValidateError::ArityMismatch(id));
            }
            ExprKind::Prim { op, args } if args.len() != op.arity() => {
                return Err(ValidateError::ArityMismatch(id));
            }
            ExprKind::Record(items) if items.len() < 2 => {
                return Err(ValidateError::SmallRecord(id));
            }
            ExprKind::Case { arms, default, .. } => {
                if arms.is_empty() && default.is_none() {
                    return Err(ValidateError::MalformedCase(id));
                }
                let mut seen = Vec::new();
                let mut datatype = None;
                for arm in arms.iter() {
                    if arm.binders.len() != env.arity(arm.con) {
                        return Err(ValidateError::ArityMismatch(id));
                    }
                    if seen.contains(&arm.con) {
                        return Err(ValidateError::MalformedCase(id));
                    }
                    seen.push(arm.con);
                    let d = env.con(arm.con).data;
                    if *datatype.get_or_insert(d) != d {
                        return Err(ValidateError::MalformedCase(id));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn bind(
    program: &Program,
    v: VarId,
    in_scope: &mut [bool],
    ever_bound: &mut [bool],
) -> Result<(), ValidateError> {
    if ever_bound[v.index()] {
        return Err(ValidateError::Rebound {
            var: v,
            name: program.var_name(v).to_owned(),
        });
    }
    ever_bound[v.index()] = true;
    in_scope[v.index()] = true;
    Ok(())
}

fn scopes(
    program: &Program,
    id: ExprId,
    in_scope: &mut [bool],
    ever_bound: &mut [bool],
) -> Result<(), ValidateError> {
    match program.kind(id) {
        ExprKind::Var(v) if !in_scope[v.index()] => Err(ValidateError::Unbound {
            occurrence: id,
            var: *v,
            name: program.var_name(*v).to_owned(),
        }),
        ExprKind::Lam { param, body, .. } => {
            bind(program, *param, in_scope, ever_bound)?;
            scopes(program, *body, in_scope, ever_bound)?;
            in_scope[param.index()] = false;
            Ok(())
        }
        ExprKind::Let { binder, rhs, body } => {
            scopes(program, *rhs, in_scope, ever_bound)?;
            bind(program, *binder, in_scope, ever_bound)?;
            scopes(program, *body, in_scope, ever_bound)?;
            in_scope[binder.index()] = false;
            Ok(())
        }
        ExprKind::LetRec {
            binder,
            lambda,
            body,
        } => {
            bind(program, *binder, in_scope, ever_bound)?;
            scopes(program, *lambda, in_scope, ever_bound)?;
            scopes(program, *body, in_scope, ever_bound)?;
            in_scope[binder.index()] = false;
            Ok(())
        }
        ExprKind::Case {
            scrutinee,
            arms,
            default,
        } => {
            scopes(program, *scrutinee, in_scope, ever_bound)?;
            for arm in arms.iter() {
                for &v in arm.binders.iter() {
                    bind(program, v, in_scope, ever_bound)?;
                }
                scopes(program, arm.body, in_scope, ever_bound)?;
                for &v in arm.binders.iter() {
                    in_scope[v.index()] = false;
                }
            }
            match default {
                Some(d) => scopes(program, *d, in_scope, ever_bound),
                None => Ok(()),
            }
        }
        _ => {
            let mut r = Ok(());
            program.for_each_child(id, |c| {
                if r.is_ok() {
                    r = scopes(program, c, in_scope, ever_bound);
                }
            });
            r
        }
    }
}

/// A random arena of about `size` nodes. Each new node takes its
/// children mostly from the nodes no parent has claimed yet, newest
/// first, and sometimes from anywhere, so the arena is usually close to
/// a tree but may share a node, leave one orphaned, use a binder out of
/// scope, bind one twice or build a malformed case.
fn random_arena(seed: u64, size: usize) -> (ProgramBuilder, ExprId) {
    let mut rng = Rng::seed_from_u64(seed);
    let (mut b, cons) = with_datatypes();
    let names = ["x", "y", "f", "k"];
    let mut vars: Vec<VarId> = Vec::new();
    let mut free: Vec<ExprId> = Vec::new();
    let mut lams: Vec<ExprId> = Vec::new();
    let mut all: Vec<ExprId> = Vec::new();
    let child = |rng: &mut Rng, b: &mut ProgramBuilder, free: &mut Vec<ExprId>, all: &[ExprId]| {
        if !all.is_empty() && rng.gen_bool(0.04) {
            all[rng.below(all.len() as u64) as usize]
        } else if let Some(c) = free.pop() {
            c
        } else {
            b.int(rng.below(10) as i64)
        }
    };
    while b.expr_count() < size {
        let fresh = vars.is_empty() || rng.gen_bool(0.6);
        let var = |rng: &mut Rng, b: &mut ProgramBuilder, vars: &mut Vec<VarId>| {
            if fresh {
                let v = b.fresh_var(names[rng.below(names.len() as u64) as usize]);
                vars.push(v);
                v
            } else {
                vars[rng.below(vars.len() as u64) as usize]
            }
        };
        let id = match rng.below(11) {
            0 | 1 => {
                let v = if vars.is_empty() || rng.gen_bool(0.2) {
                    var(&mut rng, &mut b, &mut vars)
                } else {
                    vars[rng.below(vars.len() as u64) as usize]
                };
                b.var(v)
            }
            2 => b.int(rng.below(100) as i64),
            3 => {
                let body = child(&mut rng, &mut b, &mut free, &all);
                let v = var(&mut rng, &mut b, &mut vars);
                let lam = b.lam(v, body);
                lams.push(lam);
                lam
            }
            4 => {
                let f = child(&mut rng, &mut b, &mut free, &all);
                let a = child(&mut rng, &mut b, &mut free, &all);
                b.app(f, a)
            }
            5 => {
                let rhs = child(&mut rng, &mut b, &mut free, &all);
                let body = child(&mut rng, &mut b, &mut free, &all);
                let v = var(&mut rng, &mut b, &mut vars);
                b.let_(v, rhs, body)
            }
            6 if !lams.is_empty() => {
                let lam = if rng.gen_bool(0.7) {
                    match free.iter().rposition(|e| lams.contains(e)) {
                        Some(i) => free.remove(i),
                        None => lams[rng.below(lams.len() as u64) as usize],
                    }
                } else {
                    lams[rng.below(lams.len() as u64) as usize]
                };
                let body = child(&mut rng, &mut b, &mut free, &all);
                let v = var(&mut rng, &mut b, &mut vars);
                b.letrec(v, lam, body)
            }
            7 => {
                let c = child(&mut rng, &mut b, &mut free, &all);
                let t = child(&mut rng, &mut b, &mut free, &all);
                let e = child(&mut rng, &mut b, &mut free, &all);
                b.if_(c, t, e)
            }
            8 => {
                let width = 2 + rng.below(2) as usize;
                let items = (0..width)
                    .map(|_| child(&mut rng, &mut b, &mut free, &all))
                    .collect();
                b.record(items)
            }
            9 => {
                let arg = child(&mut rng, &mut b, &mut free, &all);
                let op = if rng.gen_bool(0.5) {
                    PrimOp::Not
                } else {
                    PrimOp::Print
                };
                b.prim(op, vec![arg])
            }
            _ => {
                let scrut = child(&mut rng, &mut b, &mut free, &all);
                let arm_count = 1 + rng.below(3) as usize;
                let mut arms = Vec::new();
                for _ in 0..arm_count {
                    let kinds = if rng.gen_bool(0.9) { 2 } else { 3 };
                    let con = cons[rng.below(kinds) as usize];
                    let binders = if b.data_env().arity(con) == 1 {
                        vec![var(&mut rng, &mut b, &mut vars)]
                    } else {
                        Vec::new()
                    };
                    let body = child(&mut rng, &mut b, &mut free, &all);
                    arms.push((con, binders, body));
                }
                let default = rng
                    .gen_bool(0.3)
                    .then(|| child(&mut rng, &mut b, &mut free, &all));
                b.case(scrut, arms, default)
            }
        };
        free.push(id);
        all.push(id);
    }
    let root = if rng.gen_bool(0.9) {
        *all.last().expect("non-empty arena")
    } else {
        all[rng.below(all.len() as u64) as usize]
    };
    (b, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validate_agrees_with_the_reference(seed in any::<u64>()) {
        let size = 1 + (seed % 40) as usize;
        let (b, root) = random_arena(seed, size);
        let program = b.finish_unchecked(Some(root));
        prop_assert_eq!(validate(&program), reference(&program), "seed {}", seed);
    }
}
