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
///
/// One forward pass over the ids claims each node's children, checks
/// its shape and its label, and measures its height (children precede
/// their parents, so a node's children are measured before it); one
/// iterative walk from the root then checks scopes. Of several faults,
/// the one reported is a tree fault (the lowest faulty id), else a scope
/// fault (the first in depth-first order), else a label fault, else a
/// local shape fault (the lowest faulty id).
pub fn validate(program: &Program) -> Result<(), ValidateError> {
    check(program, None).map_err(|refusal| match refusal {
        Refusal::Invalid(e) => e,
        Refusal::TooTall(_) => unreachable!("no height limit was set"),
    })
}

/// Why [`check`] or [`check_forest`] refuses an arena.
pub(crate) enum Refusal {
    /// The lowest id whose children already reach the height limit.
    TooTall(ExprId),
    /// A structural invariant fails.
    Invalid(ValidateError),
}

impl From<ValidateError> for Refusal {
    fn from(e: ValidateError) -> Self {
        Refusal::Invalid(e)
    }
}

/// [`validate`], refusing first a tree taller than `height_limit`
/// levels (the parser's bound, see `crate::parser::MAX_HEIGHT`).
pub(crate) fn check(program: &Program, height_limit: Option<usize>) -> Result<(), Refusal> {
    let mut pass = forward(program, 0, height_limit);
    if let Some(id) = pass.too_tall {
        return Err(Refusal::TooTall(id));
    }
    pass.tree(program, &[program.root()])?;
    let mut state = vec![UNSEEN; program.var_count()];
    walk_scopes(program, &[program.root()], 0, &mut state, |_| false)?;
    if pass.lams != program.label_count() || pass.bad_label.is_some() {
        for l in program.all_labels() {
            let lam = program.lam_of_label(l);
            match program.kind(lam) {
                ExprKind::Lam { label, .. } if *label == l => {}
                _ => return Err(ValidateError::LabelMismatch(lam).into()),
            }
        }
    }
    pass.local()?;
    Ok(())
}

/// Checks the trees a session fragment appended to a forest program:
/// the nodes from `exprs` on and the binders from `vars` on. `roots`
/// are the fragment's trees and `bindings` the binders of its top-level
/// bindings. An older binder may occur in the new trees only when
/// `ambient` holds for it (it is a session binding), and may never be
/// bound there. Nothing below the two extents is inspected, so the
/// check costs what the fragment costs.
pub(crate) fn check_forest(
    program: &Program,
    exprs: usize,
    vars: usize,
    roots: &[ExprId],
    bindings: &[VarId],
    ambient: impl Fn(VarId) -> bool,
    height_limit: Option<usize>,
) -> Result<(), Refusal> {
    let mut pass = forward(program, exprs, height_limit);
    if let Some(id) = pass.too_tall {
        return Err(Refusal::TooTall(id));
    }
    pass.tree(program, roots)?;
    let mut state = vec![UNSEEN; program.var_count() - vars];
    for v in bindings {
        if let Some(k) = v.index().checked_sub(vars) {
            state[k] = AMBIENT;
        }
    }
    walk_scopes(program, roots, vars, &mut state, ambient)?;
    pass.local()?;
    Ok(())
}

/// A node's entry in [`Forward::nodes`]: claimed by a parent.
const CLAIMED: u16 = 1 << 15;
/// Claimed by a second parent.
const SHARED: u16 = 1 << 14;
/// The rest of the entry: the node's height, saturated.
const HEIGHT: u16 = SHARED - 1;

// Heights up to the parser's limit are exact.
const _: () = assert!(crate::parser::MAX_HEIGHT < HEIGHT as usize);

/// What the forward pass over the nodes from `lo` on found.
struct Forward {
    /// From `lo`: the number of the first node.
    lo: usize,
    /// Per node from `lo`: [`CLAIMED`], [`SHARED`] and the height.
    nodes: Vec<u16>,
    /// Child references seen.
    edges: usize,
    /// Whether some node was claimed twice.
    shared: bool,
    /// The lowest child below `lo` that a new node claims.
    old_child: Option<ExprId>,
    /// Abstractions seen.
    lams: usize,
    /// The lowest abstraction whose label's entry names another node.
    bad_label: Option<ExprId>,
    /// The lowest node with a malformed shape, and its fault.
    bad_shape: Option<ValidateError>,
    /// The lowest node whose children reach the height limit.
    too_tall: Option<ExprId>,
}

fn forward(program: &Program, lo: usize, height_limit: Option<usize>) -> Forward {
    let n = program.size();
    let limit = height_limit.map(|h| h.min(usize::from(HEIGHT)) as u16);
    let mut pass = Forward {
        lo,
        nodes: vec![0; n - lo],
        edges: 0,
        shared: false,
        old_child: None,
        lams: 0,
        bad_label: None,
        bad_shape: None,
        too_tall: None,
    };
    for i in lo..n {
        let id = ExprId::from_index(i);
        let kind = program.kind(id);
        let mut below = 0;
        kind.for_each_child(|c| {
            pass.edges += 1;
            let Some(k) = c.index().checked_sub(lo) else {
                pass.old_child = Some(pass.old_child.map_or(c, |o| o.min(c)));
                return;
            };
            let entry = &mut pass.nodes[k];
            if *entry & CLAIMED != 0 {
                *entry |= SHARED;
                pass.shared = true;
            }
            *entry |= CLAIMED;
            below = below.max(*entry & HEIGHT);
        });
        if limit.is_some_and(|l| below >= l) && pass.too_tall.is_none() {
            pass.too_tall = Some(id);
        }
        let entry = &mut pass.nodes[i - lo];
        *entry = (*entry & !HEIGHT) | (below + 1).min(HEIGHT);
        if let ExprKind::Lam { label, .. } = kind {
            pass.lams += 1;
            if pass.bad_label.is_none() && program.lam_of_label(*label) != id {
                pass.bad_label = Some(id);
            }
        } else if pass.bad_shape.is_none() {
            pass.bad_shape = check_shape_at(program, id).err();
        }
    }
    pass
}

impl Forward {
    /// The tree verdict: every root unclaimed, every other node claimed
    /// exactly once, and no node below `lo` claimed. Marks the roots
    /// claimed.
    fn tree(&mut self, program: &Program, roots: &[ExprId]) -> Result<(), ValidateError> {
        if let Some(c) = self.old_child {
            return Err(ValidateError::NotATree(c));
        }
        for &root in roots {
            match root.index().checked_sub(self.lo) {
                Some(k) if self.nodes[k] & CLAIMED == 0 => self.nodes[k] |= CLAIMED,
                _ => return Err(ValidateError::NotATree(root)),
            }
        }
        if !self.shared && self.edges + roots.len() == program.size() - self.lo {
            return Ok(());
        }
        for (k, &entry) in self.nodes.iter().enumerate() {
            let id = ExprId::from_index(self.lo + k);
            if entry & CLAIMED == 0 {
                return Err(ValidateError::Orphan(id));
            }
            if entry & SHARED != 0 {
                return Err(ValidateError::NotATree(id));
            }
        }
        Ok(())
    }

    /// The label and shape verdicts of the new nodes.
    fn local(&self) -> Result<(), ValidateError> {
        if let Some(id) = self.bad_label {
            return Err(ValidateError::LabelMismatch(id));
        }
        match &self.bad_shape {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

/// A binder the scope walk has not met.
const UNSEEN: u8 = 0;
/// A binder whose binding form encloses the walk's position.
const IN_SCOPE: u8 = 1;
/// A binder whose binding form the walk has left.
const RELEASED: u8 = 2;
/// A session binding's binder: in scope everywhere, bound by no tree.
const AMBIENT: u8 = 3;

/// One step of the scope walk.
#[derive(Clone, Copy)]
enum Step {
    Visit(ExprId),
    Bind(VarId),
    Release(VarId),
}

/// Checks that every occurrence under `roots` is in the scope of its
/// binder and that every binder is introduced once, visiting the trees
/// depth first from the left. `state` holds the binders from `vars` on;
/// an older binder is in scope only where `ambient` holds for it and
/// may not be bound again.
fn walk_scopes(
    program: &Program,
    roots: &[ExprId],
    vars: usize,
    state: &mut [u8],
    ambient: impl Fn(VarId) -> bool,
) -> Result<(), ValidateError> {
    let rebound = |v: VarId| ValidateError::Rebound {
        var: v,
        name: program.var_name(v).to_owned(),
    };
    // Brings `v` into scope, or says it was bound before.
    let bind = |state: &mut [u8], v: VarId| match v.index().checked_sub(vars) {
        Some(k) if state[k] == UNSEEN => {
            state[k] = IN_SCOPE;
            true
        }
        _ => false,
    };
    // The walk goes straight on to a node's first child and leaves the
    // rest of its steps on the stack.
    let mut stack = Vec::new();
    for &root in roots {
        let mut next = Some(root);
        loop {
            let id = match next.take() {
                Some(id) => id,
                None => match stack.pop() {
                    None => break,
                    Some(Step::Visit(id)) => id,
                    Some(Step::Bind(v)) => {
                        if !bind(state, v) {
                            return Err(rebound(v));
                        }
                        continue;
                    }
                    Some(Step::Release(v)) => {
                        state[v.index() - vars] = RELEASED;
                        continue;
                    }
                },
            };
            match program.kind(id) {
                ExprKind::Var(v) => {
                    let bound = match v.index().checked_sub(vars) {
                        Some(k) => matches!(state[k], IN_SCOPE | AMBIENT),
                        None => ambient(*v),
                    };
                    if !bound {
                        return Err(ValidateError::Unbound {
                            occurrence: id,
                            var: *v,
                            name: program.var_name(*v).to_owned(),
                        });
                    }
                }
                ExprKind::Lam { param, body, .. } => {
                    if !bind(state, *param) {
                        return Err(rebound(*param));
                    }
                    stack.push(Step::Release(*param));
                    next = Some(*body);
                }
                ExprKind::App { func, arg } => {
                    stack.push(Step::Visit(*arg));
                    next = Some(*func);
                }
                ExprKind::Let { binder, rhs, body } => {
                    stack.extend([
                        Step::Release(*binder),
                        Step::Visit(*body),
                        Step::Bind(*binder),
                    ]);
                    next = Some(*rhs);
                }
                ExprKind::LetRec {
                    binder,
                    lambda,
                    body,
                } => {
                    if !bind(state, *binder) {
                        return Err(rebound(*binder));
                    }
                    stack.extend([Step::Release(*binder), Step::Visit(*body)]);
                    next = Some(*lambda);
                }
                ExprKind::Case {
                    scrutinee,
                    arms,
                    default,
                } => {
                    stack.extend(default.map(Step::Visit));
                    for arm in arms.iter().rev() {
                        stack.extend(arm.binders.iter().map(|&b| Step::Release(b)));
                        stack.push(Step::Visit(arm.body));
                        stack.extend(arm.binders.iter().rev().map(|&b| Step::Bind(b)));
                    }
                    next = Some(*scrutinee);
                }
                kind => {
                    let first = stack.len();
                    kind.for_each_child(|c| stack.push(Step::Visit(c)));
                    stack[first..].reverse();
                }
            }
        }
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
    use crate::ast::PrimOp;
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

    /// A program built by `build`, then damaged by `damage` in ways the
    /// builder refuses to build.
    fn damaged(
        build: impl FnOnce(&mut ProgramBuilder) -> ExprId,
        damage: impl FnOnce(&mut Program),
    ) -> String {
        let mut b = ProgramBuilder::new();
        let root = build(&mut b);
        let mut program = b.finish_unchecked(Some(root));
        damage(&mut program);
        match validate(&program) {
            Ok(()) => "ok".to_owned(),
            Err(e) => e.to_string(),
        }
    }

    fn identity(b: &mut ProgramBuilder) -> ExprId {
        let x = b.fresh_var("x");
        let xv = b.var(x);
        b.lam(x, xv)
    }

    #[test]
    fn label_and_shape_verdicts_are_pinned() {
        use crate::ast::Literal;
        // The label table names a non-abstraction: the table's own
        // check reports it before the abstraction's.
        assert_eq!(
            damaged(identity, |p| p.labels[0] = ExprId::from_index(0)),
            "label table does not match abstraction at ExprId(0)"
        );
        // Two abstractions, the second label naming the first.
        let two = |b: &mut ProgramBuilder| {
            let f = identity(b);
            let g = identity(b);
            b.app(f, g)
        };
        assert_eq!(
            damaged(two, |p| p.labels[1] = ExprId::from_index(1)),
            "label table does not match abstraction at ExprId(1)"
        );
        // A letrec whose abstraction became a `not`: the label table
        // check comes first, then the shape check.
        let letrec = |b: &mut ProgramBuilder| {
            let f = b.fresh_var("f");
            let lam = identity(b);
            let fv = b.var(f);
            b.letrec(f, lam, fv)
        };
        let unlam = |p: &mut Program| {
            p.exprs[0] = ExprKind::Lit(Literal::Int(1));
            let args = vec![ExprId::from_index(0)].into();
            p.exprs[1] = ExprKind::Prim {
                op: PrimOp::Not,
                args,
            };
        };
        assert_eq!(
            damaged(letrec, unlam),
            "label table does not match abstraction at ExprId(1)"
        );
        assert_eq!(
            damaged(letrec, |p| {
                unlam(p);
                p.labels.clear();
            }),
            "letrec right-hand side at ExprId(3) is not an abstraction"
        );
        // Shapes: the wrong arity, a one-field record, an empty case,
        // and the lowest id of two.
        let one_arg = |b: &mut ProgramBuilder| {
            let t = b.bool(true);
            let f = b.bool(false);
            b.record(vec![t, f])
        };
        assert_eq!(
            damaged(one_arg, |p| {
                let args = vec![ExprId::from_index(0), ExprId::from_index(1)].into();
                p.exprs[2] = ExprKind::Prim {
                    op: PrimOp::Not,
                    args,
                };
            }),
            "arity mismatch at ExprId(2)"
        );
        let not = |b: &mut ProgramBuilder| {
            let t = b.bool(true);
            b.prim(PrimOp::Not, vec![t])
        };
        assert_eq!(
            damaged(not, |p| p.exprs[1] =
                ExprKind::Record(vec![ExprId::from_index(0)].into())),
            "record at ExprId(1) has fewer than two fields"
        );
        assert_eq!(
            damaged(not, |p| {
                p.exprs[1] = ExprKind::Case {
                    scrutinee: ExprId::from_index(0),
                    arms: Vec::new().into(),
                    default: None,
                }
            }),
            "case at ExprId(1) mixes datatypes or repeats a constructor"
        );
        let nots = |b: &mut ProgramBuilder| {
            let t = b.bool(true);
            let inner = b.prim(PrimOp::Not, vec![t]);
            b.prim(PrimOp::Not, vec![inner])
        };
        assert_eq!(
            damaged(nots, |p| {
                p.exprs[1] = ExprKind::Record(vec![ExprId::from_index(0)].into());
                p.exprs[2] = ExprKind::Record(vec![ExprId::from_index(1)].into());
            }),
            "record at ExprId(1) has fewer than two fields"
        );
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
