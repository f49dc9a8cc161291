//! Structural validation of [`Program`]s.
//!
//! Every [`Program`] that reaches an analysis satisfies the invariants
//! checked here; the parser and builder both funnel through
//! [`validate`]. The invariants are exactly the conventions the paper
//! assumes: programs are closed terms, bound variables are distinct, each
//! abstraction has a unique label, and constructors/primitives are
//! saturated.

use std::error::Error;
use std::fmt;

use crate::ast::{ExprId, ExprKind, Program, VarId};

/// A structural invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A node is referenced as a child by more than one parent, or the root
    /// is referenced as a child: the arena is not a tree.
    NotATree(ExprId),
    /// A node in the arena is unreachable from the root.
    Orphan(ExprId),
    /// A variable occurrence is not in the scope of its binder.
    Unbound {
        /// The out-of-scope occurrence.
        occurrence: ExprId,
        /// The referenced binder.
        var: VarId,
        /// Source name of the binder.
        name: String,
    },
    /// A binder is introduced by more than one binding form.
    Rebound {
        /// The doubly-introduced binder.
        var: VarId,
        /// Source name of the binder.
        name: String,
    },
    /// A `letrec` right-hand side is not an abstraction.
    LetRecNotLambda(ExprId),
    /// An abstraction label points at the wrong expression.
    LabelMismatch(ExprId),
    /// A case expression mixes constructors from different datatypes, or
    /// repeats a constructor.
    MalformedCase(ExprId),
    /// A constructor or case arm has the wrong number of arguments/binders.
    ArityMismatch(ExprId),
    /// A record has fewer than two fields.
    SmallRecord(ExprId),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::NotATree(e) => {
                write!(
                    f,
                    "expression {e:?} has multiple parents (arena is not a tree)"
                )
            }
            ValidateError::Orphan(e) => write!(f, "expression {e:?} is unreachable from the root"),
            ValidateError::Unbound {
                occurrence, name, ..
            } => {
                write!(f, "variable `{name}` at {occurrence:?} is not in scope")
            }
            ValidateError::Rebound { name, .. } => {
                write!(f, "binder `{name}` is introduced more than once")
            }
            ValidateError::LetRecNotLambda(e) => {
                write!(f, "letrec right-hand side at {e:?} is not an abstraction")
            }
            ValidateError::LabelMismatch(e) => {
                write!(f, "label table does not match abstraction at {e:?}")
            }
            ValidateError::MalformedCase(e) => {
                write!(f, "case at {e:?} mixes datatypes or repeats a constructor")
            }
            ValidateError::ArityMismatch(e) => {
                write!(f, "arity mismatch at {e:?}")
            }
            ValidateError::SmallRecord(e) => {
                write!(f, "record at {e:?} has fewer than two fields")
            }
        }
    }
}

impl Error for ValidateError {}

/// Checks all structural invariants of `program`.
pub fn validate(program: &Program) -> Result<(), ValidateError> {
    check_tree(program)?;
    check_scopes(program)?;
    check_labels(program)?;
    check_shapes(program)?;
    Ok(())
}

/// Validates the *new trees* of a forest (incremental-session) program:
/// each given root's subtree must be a proper tree, disjoint from the
/// others; scoping is checked with the session binders in `ambient`
/// treated as bound; local shapes are checked for the subtree nodes.
/// Nodes outside the given subtrees are not inspected (they were validated
/// when their own fragment was accepted).
pub fn validate_forest(
    program: &Program,
    roots: &[ExprId],
    ambient: &[VarId],
) -> Result<(), ValidateError> {
    // Tree-shape: single parent within the union of subtrees; disjoint.
    let mut seen = vec![false; program.size()];
    for &root in roots {
        if seen[root.index()] {
            return Err(ValidateError::NotATree(root));
        }
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(e) = stack.pop() {
            let mut dup = None;
            program.for_each_child(e, |c| {
                if seen[c.index()] {
                    dup = Some(c);
                } else {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            });
            if let Some(c) = dup {
                return Err(ValidateError::NotATree(c));
            }
        }
    }
    // Scoping with ambient binders, shared "introduced once" across roots.
    let mut in_scope = vec![false; program.var_count()];
    let mut ever_bound = vec![false; program.var_count()];
    for &v in ambient {
        in_scope[v.index()] = true;
        ever_bound[v.index()] = true;
    }
    for &root in roots {
        scope_walk(program, root, &mut in_scope, &mut ever_bound)?;
    }
    // Local shapes and label consistency for the new nodes.
    for e in program.exprs().filter(|e| seen[e.index()]) {
        check_shape_at(program, e)?;
        if let crate::ast::ExprKind::Lam { label, .. } = program.kind(e) {
            if program.lam_of_label(*label) != e {
                return Err(ValidateError::LabelMismatch(e));
            }
        }
    }
    Ok(())
}

/// Each node has exactly one parent (except the root, which has none), and
/// every node is reachable from the root.
fn check_tree(program: &Program) -> Result<(), ValidateError> {
    let n = program.size();
    let mut parents = vec![0u8; n];
    for id in program.exprs() {
        program.for_each_child(id, |c| {
            parents[c.index()] = parents[c.index()].saturating_add(1);
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
    Ok(())
}

/// Scope check: every variable occurrence is under its binder, and every
/// binder is introduced at most once.
fn check_scopes(program: &Program) -> Result<(), ValidateError> {
    let mut in_scope = vec![false; program.var_count()];
    let mut ever_bound = vec![false; program.var_count()];
    scope_walk(program, program.root(), &mut in_scope, &mut ever_bound)
}

fn bind_var(
    program: &Program,
    var: VarId,
    in_scope: &mut [bool],
    ever_bound: &mut [bool],
) -> Result<(), ValidateError> {
    if ever_bound[var.index()] {
        return Err(ValidateError::Rebound {
            var,
            name: program.var_name(var).to_owned(),
        });
    }
    ever_bound[var.index()] = true;
    in_scope[var.index()] = true;
    Ok(())
}

fn scope_walk(
    program: &Program,
    id: ExprId,
    in_scope: &mut Vec<bool>,
    ever_bound: &mut Vec<bool>,
) -> Result<(), ValidateError> {
    match program.kind(id) {
        ExprKind::Var(v) => {
            if !in_scope[v.index()] {
                return Err(ValidateError::Unbound {
                    occurrence: id,
                    var: *v,
                    name: program.var_name(*v).to_owned(),
                });
            }
        }
        ExprKind::Lam { param, body, .. } => {
            bind_var(program, *param, in_scope, ever_bound)?;
            scope_walk(program, *body, in_scope, ever_bound)?;
            in_scope[param.index()] = false;
        }
        ExprKind::Let { binder, rhs, body } => {
            scope_walk(program, *rhs, in_scope, ever_bound)?;
            bind_var(program, *binder, in_scope, ever_bound)?;
            scope_walk(program, *body, in_scope, ever_bound)?;
            in_scope[binder.index()] = false;
        }
        ExprKind::LetRec {
            binder,
            lambda,
            body,
        } => {
            bind_var(program, *binder, in_scope, ever_bound)?;
            scope_walk(program, *lambda, in_scope, ever_bound)?;
            scope_walk(program, *body, in_scope, ever_bound)?;
            in_scope[binder.index()] = false;
        }
        ExprKind::Case {
            scrutinee,
            arms,
            default,
        } => {
            scope_walk(program, *scrutinee, in_scope, ever_bound)?;
            for arm in arms.iter() {
                for &b in arm.binders.iter() {
                    bind_var(program, b, in_scope, ever_bound)?;
                }
                scope_walk(program, arm.body, in_scope, ever_bound)?;
                for &b in arm.binders.iter() {
                    in_scope[b.index()] = false;
                }
            }
            if let Some(d) = default {
                scope_walk(program, *d, in_scope, ever_bound)?;
            }
        }
        _ => {
            let mut r = Ok(());
            program.for_each_child(id, |c| {
                if r.is_ok() {
                    r = scope_walk(program, c, in_scope, ever_bound);
                }
            });
            r?;
        }
    }
    Ok(())
}

/// Label table consistency: `labels[l]` is a `Lam` carrying label `l`.
fn check_labels(program: &Program) -> Result<(), ValidateError> {
    for l in program.all_labels() {
        let lam = program.lam_of_label(l);
        match program.kind(lam) {
            ExprKind::Lam { label, .. } if *label == l => {}
            _ => return Err(ValidateError::LabelMismatch(lam)),
        }
    }
    // Every lam appears in the table under its own label.
    for id in program.exprs() {
        if let ExprKind::Lam { label, .. } = program.kind(id) {
            if program.lam_of_label(*label) != id {
                return Err(ValidateError::LabelMismatch(id));
            }
        }
    }
    Ok(())
}

/// Local shape checks: letrec binds lambdas, cases are well-formed,
/// constructors/prims saturated, records non-trivial.
fn check_shapes(program: &Program) -> Result<(), ValidateError> {
    for id in program.exprs() {
        check_shape_at(program, id)?;
    }
    Ok(())
}

/// The shape check for one expression.
fn check_shape_at(program: &Program, id: ExprId) -> Result<(), ValidateError> {
    let env = program.data_env();
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
                match datatype {
                    None => datatype = Some(d),
                    Some(prev) if prev == d => {}
                    Some(_) => return Err(ValidateError::MalformedCase(id)),
                }
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn validates_well_formed_case() {
        let mut b = ProgramBuilder::new();
        let list = b.declare_data("intlist");
        let nil = b.declare_con(list, "Nil", vec![]);
        let cons = b.declare_con(
            list,
            "Cons",
            vec![crate::ast::TyExpr::Int, crate::ast::TyExpr::Data(list)],
        );
        let n = b.con(nil, vec![]);
        let h = b.fresh_var("h");
        let t = b.fresh_var("t");
        let hv = b.var(h);
        let zero = b.int(0);
        let root = b.case(n, vec![(cons, vec![h, t], hv)], Some(zero));
        assert!(b.finish(root).is_ok());
    }

    #[test]
    fn rejects_duplicate_case_arm() {
        let mut b = ProgramBuilder::new();
        let d = b.declare_data("t");
        let c = b.declare_con(d, "C", vec![]);
        let scrut = b.con(c, vec![]);
        let one = b.int(1);
        let two = b.int(2);
        let root = b.case(scrut, vec![(c, vec![], one), (c, vec![], two)], None);
        assert_eq!(
            b.finish(root).unwrap_err(),
            ValidateError::MalformedCase(root)
        );
    }

    #[test]
    fn rejects_cross_datatype_case() {
        let mut b = ProgramBuilder::new();
        let d1 = b.declare_data("t1");
        let c1 = b.declare_con(d1, "C1", vec![]);
        let d2 = b.declare_data("t2");
        let c2 = b.declare_con(d2, "C2", vec![]);
        let scrut = b.con(c1, vec![]);
        let one = b.int(1);
        let two = b.int(2);
        let root = b.case(scrut, vec![(c1, vec![], one), (c2, vec![], two)], None);
        assert!(matches!(
            b.finish(root),
            Err(ValidateError::MalformedCase(_))
        ));
    }

    #[test]
    fn rejects_var_escaping_scope() {
        let mut b = ProgramBuilder::new();
        let x = b.fresh_var("x");
        let xv1 = b.var(x);
        let lam = b.lam(x, xv1);
        let xv2 = b.var(x); // x used outside the lambda
        let root = b.app(lam, xv2);
        assert!(matches!(b.finish(root), Err(ValidateError::Unbound { .. })));
    }

    #[test]
    fn rejects_rebound_binder() {
        let mut b = ProgramBuilder::new();
        let x = b.fresh_var("x");
        let xv = b.var(x);
        let inner = b.lam(x, xv); // binds x
        let outer = b.lam(x, inner); // binds x again
        assert!(matches!(
            b.finish(outer),
            Err(ValidateError::Rebound { .. })
        ));
    }
}
