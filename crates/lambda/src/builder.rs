//! Programmatic construction of [`Program`]s.
//!
//! The builder is the single constructor of programs (the parser lowers
//! through it too). It assigns fresh abstraction labels, keeps binders
//! distinct by construction, and checks the structural invariants when
//! [`ProgramBuilder::finish`] is called.
//!
//! ```
//! use stcfa_lambda::builder::ProgramBuilder;
//!
//! // (fn x => x x) (fn y => y)
//! let mut b = ProgramBuilder::new();
//! let x = b.fresh_var("x");
//! let xx = {
//!     let x1 = b.var(x);
//!     let x2 = b.var(x);
//!     b.app(x1, x2)
//! };
//! let f = b.lam(x, xx);
//! let y = b.fresh_var("y");
//! let id = {
//!     let yv = b.var(y);
//!     b.lam(y, yv)
//! };
//! let root = b.app(f, id);
//! let program = b.finish(root).unwrap();
//! assert_eq!(program.size(), 7);
//! assert_eq!(program.label_count(), 2);
//! ```

use crate::ast::{
    CaseArm, ConId, DataEnv, DataId, ExprId, ExprKind, Label, Literal, PrimOp, Program, TyExpr,
    VarId,
};
use crate::intern::{Interner, Symbol};
use crate::lexer::Span;
use crate::validate::{self, ValidateError};

/// Incremental builder for [`Program`]s.
///
/// Expression-forming methods panic on *structural* misuse (arity
/// mismatches, unknown ids) because those are programming errors in the
/// caller; scope and tree-shape errors are reported by
/// [`ProgramBuilder::finish`] as [`ValidateError`]s.
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    interner: Interner,
    exprs: Vec<ExprKind>,
    /// Parallel to `exprs`; `None` until [`ProgramBuilder::set_span`].
    spans: Vec<Option<Span>>,
    vars: Vec<Symbol>,
    labels: Vec<ExprId>,
    data: DataEnv,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder whose expression arena has room for
    /// `exprs` nodes before it reallocates.
    pub fn with_capacity(exprs: usize) -> Self {
        ProgramBuilder {
            exprs: Vec::with_capacity(exprs),
            spans: Vec::with_capacity(exprs),
            ..Self::default()
        }
    }

    fn push(&mut self, kind: ExprKind) -> ExprId {
        let id = ExprId::from_index(self.exprs.len());
        self.exprs.push(kind);
        self.spans.push(None);
        id
    }

    /// Records the source span of an already-built expression (the parser
    /// calls this as it closes each production). Overwrites any earlier
    /// span for the same node.
    pub fn set_span(&mut self, id: ExprId, span: Span) {
        self.spans[id.index()] = span.into();
    }

    /// The recorded span of an already-built expression, if any.
    pub fn span(&self, id: ExprId) -> Option<Span> {
        self.spans[id.index()]
    }

    /// Interns a name.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Creates a fresh binder with the given source name. Binders with the
    /// same name are still distinct.
    pub fn fresh_var(&mut self, name: &str) -> VarId {
        let sym = self.interner.intern(name);
        self.fresh_binder(sym)
    }

    /// [`ProgramBuilder::fresh_var`] for an already interned name.
    pub(crate) fn fresh_binder(&mut self, name: Symbol) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars.push(name);
        id
    }

    /// Number of binders created so far.
    pub(crate) fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The names interned so far.
    pub(crate) fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Declares a datatype. Panics on duplicate names.
    pub fn declare_data(&mut self, name: &str) -> DataId {
        let sym = self.interner.intern(name);
        self.data
            .declare_data(sym)
            .expect("duplicate datatype name")
    }

    /// Declares a constructor. Panics on duplicate names.
    pub fn declare_con(&mut self, data: DataId, name: &str, arg_tys: Vec<TyExpr>) -> ConId {
        let sym = self.interner.intern(name);
        self.data
            .declare_con(data, sym, arg_tys)
            .expect("duplicate constructor name")
    }

    /// Variable occurrence.
    pub fn var(&mut self, var: VarId) -> ExprId {
        assert!(var.index() < self.vars.len(), "unknown VarId");
        self.push(ExprKind::Var(var))
    }

    /// Abstraction `fn param => body`; assigns the next fresh label.
    pub fn lam(&mut self, param: VarId, body: ExprId) -> ExprId {
        let label = Label::from_index(self.labels.len());
        let id = self.push(ExprKind::Lam { label, param, body });
        self.labels.push(id);
        id
    }

    /// Application `(func arg)`.
    pub fn app(&mut self, func: ExprId, arg: ExprId) -> ExprId {
        self.push(ExprKind::App { func, arg })
    }

    /// Curried application `(f a₁ … aₙ)`.
    pub fn apps(&mut self, func: ExprId, args: impl IntoIterator<Item = ExprId>) -> ExprId {
        args.into_iter().fold(func, |f, a| self.app(f, a))
    }

    /// Non-recursive let.
    pub fn let_(&mut self, binder: VarId, rhs: ExprId, body: ExprId) -> ExprId {
        self.push(ExprKind::Let { binder, rhs, body })
    }

    /// Recursive let; `lambda` must be an abstraction.
    pub fn letrec(&mut self, binder: VarId, lambda: ExprId, body: ExprId) -> ExprId {
        assert!(
            matches!(self.exprs[lambda.index()], ExprKind::Lam { .. }),
            "letrec right-hand side must be an abstraction"
        );
        self.push(ExprKind::LetRec {
            binder,
            lambda,
            body,
        })
    }

    /// Conditional.
    pub fn if_(&mut self, cond: ExprId, then_branch: ExprId, else_branch: ExprId) -> ExprId {
        self.push(ExprKind::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    /// Record (tuple) of two or more fields.
    pub fn record(&mut self, items: Vec<ExprId>) -> ExprId {
        assert!(items.len() >= 2, "records have at least two fields");
        self.push(ExprKind::Record(items.into()))
    }

    /// Projection `#index expr` with a zero-based index.
    pub fn proj(&mut self, index: u32, tuple: ExprId) -> ExprId {
        self.push(ExprKind::Proj { index, tuple })
    }

    /// Saturated constructor application.
    pub fn con(&mut self, con: ConId, args: Vec<ExprId>) -> ExprId {
        assert_eq!(
            args.len(),
            self.data.arity(con),
            "constructor {} applied to wrong number of arguments",
            self.interner.resolve(self.data.con(con).name),
        );
        self.push(ExprKind::Con {
            con,
            args: args.into(),
        })
    }

    /// Case expression. Each arm is `(constructor, binders, body)`.
    pub fn case(
        &mut self,
        scrutinee: ExprId,
        arms: Vec<(ConId, Vec<VarId>, ExprId)>,
        default: Option<ExprId>,
    ) -> ExprId {
        let arms = arms
            .into_iter()
            .map(|(con, binders, body)| {
                assert_eq!(
                    binders.len(),
                    self.data.arity(con),
                    "case arm for {} binds wrong number of variables",
                    self.interner.resolve(self.data.con(con).name),
                );
                CaseArm {
                    con,
                    binders: binders.into(),
                    body,
                }
            })
            .collect();
        self.case_arms(scrutinee, arms, default)
    }

    /// [`ProgramBuilder::case`] with the arms already assembled, as the
    /// parser assembles them (it has checked each arm's arity).
    pub(crate) fn case_arms(
        &mut self,
        scrutinee: ExprId,
        arms: Box<[CaseArm]>,
        default: Option<ExprId>,
    ) -> ExprId {
        assert!(
            !arms.is_empty() || default.is_some(),
            "case must have at least one arm"
        );
        self.push(ExprKind::Case {
            scrutinee,
            arms,
            default,
        })
    }

    /// Literal.
    pub fn lit(&mut self, lit: Literal) -> ExprId {
        self.push(ExprKind::Lit(lit))
    }

    /// Integer literal.
    pub fn int(&mut self, value: i64) -> ExprId {
        self.lit(Literal::Int(value))
    }

    /// Boolean literal.
    pub fn bool(&mut self, value: bool) -> ExprId {
        self.lit(Literal::Bool(value))
    }

    /// Unit literal.
    pub fn unit(&mut self) -> ExprId {
        self.lit(Literal::Unit)
    }

    /// Saturated primitive application.
    pub fn prim(&mut self, op: PrimOp, args: Vec<ExprId>) -> ExprId {
        assert_eq!(
            args.len(),
            op.arity(),
            "primitive {} applied to wrong arity",
            op.name()
        );
        self.push(ExprKind::Prim {
            op,
            args: args.into(),
        })
    }

    /// Number of expressions created so far.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// The shape of an already-built expression.
    pub fn kind(&self, id: ExprId) -> &ExprKind {
        &self.exprs[id.index()]
    }

    /// Read access to the datatype environment built so far.
    pub fn data_env(&self) -> &DataEnv {
        &self.data
    }

    /// Finalizes the program with `root` as the top-level expression,
    /// validating all structural invariants (tree shape, no orphans,
    /// closedness, unique binding, letrec shape, case-arm consistency).
    pub fn finish(self, root: ExprId) -> Result<Program, ValidateError> {
        let program = self.finish_unchecked(Some(root));
        validate::validate(&program)?;
        Ok(program)
    }

    /// Finalizes without whole-program validation — for *forest* programs
    /// (incremental sessions), whose fragments are validated individually
    /// as [`crate::parser::parse_fragment`] accepts them. With `root: None` a unit
    /// expression is appended to serve as the (meaningless) root.
    pub fn finish_unchecked(mut self, root: Option<ExprId>) -> Program {
        let root = root.unwrap_or_else(|| self.unit());
        Program {
            interner: self.interner,
            exprs: self.exprs,
            spans: self.spans,
            vars: self.vars,
            labels: self.labels,
            data: self.data,
            root,
        }
    }

    /// Re-opens a program for appending (the existing arena, binders,
    /// labels and datatypes keep their ids).
    pub fn from_program(program: Program) -> ProgramBuilder {
        ProgramBuilder {
            interner: program.interner,
            exprs: program.exprs,
            spans: program.spans,
            vars: program.vars,
            labels: program.labels,
            data: program.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_identity_application() {
        let mut b = ProgramBuilder::new();
        let x = b.fresh_var("x");
        let xv = b.var(x);
        let id1 = b.lam(x, xv);
        let y = b.fresh_var("y");
        let yv = b.var(y);
        let id2 = b.lam(y, yv);
        let root = b.app(id1, id2);
        let p = b.finish(root).unwrap();
        assert_eq!(p.size(), 5);
        assert_eq!(p.label_count(), 2);
        assert_eq!(p.var_count(), 2);
        assert_eq!(p.root(), root);
    }

    #[test]
    fn labels_map_back_to_lams() {
        let mut b = ProgramBuilder::new();
        let x = b.fresh_var("x");
        let xv = b.var(x);
        let lam = b.lam(x, xv);
        let p = b.finish(lam).unwrap();
        let l = p.label_of(lam).unwrap();
        assert_eq!(p.lam_of_label(l), lam);
    }

    #[test]
    #[should_panic(expected = "letrec right-hand side")]
    fn letrec_requires_lambda() {
        let mut b = ProgramBuilder::new();
        let f = b.fresh_var("f");
        let one = b.int(1);
        let body = b.var(f);
        b.letrec(f, one, body);
    }

    #[test]
    fn open_programs_are_rejected() {
        let mut b = ProgramBuilder::new();
        let x = b.fresh_var("x");
        let root = b.var(x); // x is never bound
        assert!(b.finish(root).is_err());
    }

    #[test]
    fn orphan_nodes_are_rejected() {
        let mut b = ProgramBuilder::new();
        let _orphan = b.int(1);
        let root = b.int(2);
        assert!(b.finish(root).is_err());
    }

    #[test]
    fn shared_subtrees_are_rejected() {
        let mut b = ProgramBuilder::new();
        let one = b.int(1);
        let root = b.prim(PrimOp::Add, vec![one, one]); // `one` used twice
        assert!(b.finish(root).is_err());
    }

    #[test]
    fn apps_folds_left() {
        let mut b = ProgramBuilder::new();
        let f = b.fresh_var("f");
        let x = b.fresh_var("x");
        let fv = b.var(f);
        let a1 = b.int(1);
        let a2 = b.int(2);
        let call = b.apps(fv, [a1, a2]);
        let inner = b.lam(x, call);
        // bind f to the identity to close the program
        let z = b.fresh_var("z");
        let zv = b.var(z);
        let idf = b.lam(z, zv);
        let outer = b.lam(f, inner);
        let partial = b.app(outer, idf);
        let arg = b.int(0);
        let root = b.app(partial, arg);
        let p = b.finish(root).unwrap();
        // ((f 1) 2) — outermost app's func is itself an app
        match p.kind(call) {
            ExprKind::App { func, .. } => {
                assert!(matches!(p.kind(*func), ExprKind::App { .. }));
            }
            other => panic!("expected app, got {other:?}"),
        }
    }
}
