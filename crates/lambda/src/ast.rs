//! Core abstract syntax.
//!
//! The input language is the labelled lambda calculus of the paper extended,
//! as in its Section 6, with `let`/`letrec`, records (tuples), monomorphic
//! datatypes with constructors and single-depth `case` patterns, literals,
//! and fully-applied primitive operators (some of which are side-effecting,
//! for the Section 8 effects analysis).
//!
//! A [`Program`] owns an arena of expression *occurrences*: every syntactic
//! occurrence of a sub-expression has its own [`ExprId`], matching the
//! paper's footnote that control-flow information is associated with
//! occurrences, not with expressions up to equality. Every abstraction
//! carries a unique [`Label`], and all bound variables are distinct by
//! construction ([`VarId`]s are binder identities, not names).

use std::fmt;

use crate::intern::{Interner, Symbol};
use crate::lexer::Span;

macro_rules! define_index {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an id from a dense index.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("index overflow"))
            }

            /// Returns the dense index of this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

define_index!(
    /// Identity of one expression occurrence in a [`Program`] arena.
    ExprId
);
define_index!(
    /// Identity of one binder. Distinct binders are distinct `VarId`s even
    /// when their source names collide, so programs satisfy the paper's
    /// "bound variables are distinct" convention by construction.
    VarId
);
define_index!(
    /// The unique label of one abstraction, as in `λˡx.e`.
    Label
);
define_index!(
    /// Identity of a data constructor.
    ConId
);
define_index!(
    /// Identity of a datatype declaration.
    DataId
);

/// Literal constants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// Machine integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// The unit value `()`.
    Unit,
}

/// Primitive operators. All primitives are *fully applied* in the AST, as
/// the paper assumes ("all side-effecting primitives are fully applied").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrimOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (division by zero is an evaluation error).
    Div,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Leq,
    /// Integer equality.
    IntEq,
    /// Boolean negation.
    Not,
    /// Side effect: print an integer.
    Print,
    /// Side effect: read an integer from the environment.
    ReadInt,
}

impl PrimOp {
    /// Number of arguments the operator takes.
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Add
            | PrimOp::Sub
            | PrimOp::Mul
            | PrimOp::Div
            | PrimOp::Lt
            | PrimOp::Leq
            | PrimOp::IntEq => 2,
            PrimOp::Not | PrimOp::Print => 1,
            PrimOp::ReadInt => 0,
        }
    }

    /// Whether applying the operator has an observable side effect.
    ///
    /// This is the seed set for the linear-time effects analysis
    /// (paper, Section 8).
    pub fn is_effectful(self) -> bool {
        matches!(self, PrimOp::Print | PrimOp::ReadInt)
    }

    /// Surface-syntax name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "div",
            PrimOp::Lt => "<",
            PrimOp::Leq => "<=",
            PrimOp::IntEq => "=",
            PrimOp::Not => "not",
            PrimOp::Print => "print",
            PrimOp::ReadInt => "readint",
        }
    }

    /// All primitive operators.
    pub const ALL: [PrimOp; 10] = [
        PrimOp::Add,
        PrimOp::Sub,
        PrimOp::Mul,
        PrimOp::Div,
        PrimOp::Lt,
        PrimOp::Leq,
        PrimOp::IntEq,
        PrimOp::Not,
        PrimOp::Print,
        PrimOp::ReadInt,
    ];
}

/// One arm of a `case` expression: a single-depth constructor pattern
/// `c(x₁, …, xₙ) => body`, the form the paper's de-constructor treatment
/// (Section 6) covers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseArm {
    /// The matched constructor.
    pub con: ConId,
    /// Fresh binders for the constructor's arguments.
    pub binders: Box<[VarId]>,
    /// The arm body.
    pub body: ExprId,
}

/// The shape of one expression occurrence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExprKind {
    /// A variable occurrence referring to its binder.
    Var(VarId),
    /// A labelled abstraction `λˡx.e` (`fn x => e`).
    Lam {
        /// Unique label of this abstraction.
        label: Label,
        /// The bound variable.
        param: VarId,
        /// The function body.
        body: ExprId,
    },
    /// Application `(e₁ e₂)`.
    App {
        /// The operator position.
        func: ExprId,
        /// The operand position.
        arg: ExprId,
    },
    /// Non-recursive `let val x = rhs in body end`.
    Let {
        /// The bound variable.
        binder: VarId,
        /// The bound expression.
        rhs: ExprId,
        /// The let body.
        body: ExprId,
    },
    /// Recursive binding `letrec f = λˡx.e in body` (paper, Section 6).
    /// The bound expression must be an abstraction.
    LetRec {
        /// The recursive variable.
        binder: VarId,
        /// The recursive abstraction (always [`ExprKind::Lam`]).
        lambda: ExprId,
        /// The letrec body.
        body: ExprId,
    },
    /// Two-way conditional on a boolean.
    If {
        /// Condition.
        cond: ExprId,
        /// `then` branch.
        then_branch: ExprId,
        /// `else` branch.
        else_branch: ExprId,
    },
    /// Record (tuple) creation `(e₁, …, eₙ)` with `n ≥ 2`.
    Record(Box<[ExprId]>),
    /// Record projection `#j e` (1-based in surface syntax, 0-based here).
    Proj {
        /// Zero-based field index.
        index: u32,
        /// The record expression.
        tuple: ExprId,
    },
    /// Saturated constructor application `c(e₁, …, eₙ)`.
    Con {
        /// The constructor.
        con: ConId,
        /// Constructor arguments (length equals the declared arity).
        args: Box<[ExprId]>,
    },
    /// Single-depth pattern match
    /// `case e of c₁(xs) => e₁ | … | _ => d`.
    Case {
        /// The scrutinee.
        scrutinee: ExprId,
        /// Constructor arms (distinct constructors of one datatype).
        arms: Box<[CaseArm]>,
        /// Optional wildcard arm.
        default: Option<ExprId>,
    },
    /// A literal constant.
    Lit(Literal),
    /// Fully-applied primitive `op(e₁, …, eₙ)`.
    Prim {
        /// The operator.
        op: PrimOp,
        /// Arguments (length equals [`PrimOp::arity`]).
        args: Box<[ExprId]>,
    },
}

impl ExprKind {
    /// Calls `f` on every direct child, in left-to-right order.
    #[inline]
    pub fn for_each_child(&self, mut f: impl FnMut(ExprId)) {
        match self {
            ExprKind::Var(_) | ExprKind::Lit(_) => {}
            ExprKind::Lam { body, .. } => f(*body),
            ExprKind::App { func, arg } => {
                f(*func);
                f(*arg);
            }
            ExprKind::Let { rhs, body, .. } => {
                f(*rhs);
                f(*body);
            }
            ExprKind::LetRec { lambda, body, .. } => {
                f(*lambda);
                f(*body);
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                f(*cond);
                f(*then_branch);
                f(*else_branch);
            }
            ExprKind::Record(items) => {
                for &e in items.iter() {
                    f(e);
                }
            }
            ExprKind::Proj { tuple, .. } => f(*tuple),
            ExprKind::Con { args, .. } => {
                for &e in args.iter() {
                    f(e);
                }
            }
            ExprKind::Case {
                scrutinee,
                arms,
                default,
            } => {
                f(*scrutinee);
                for arm in arms.iter() {
                    f(arm.body);
                }
                if let Some(d) = default {
                    f(*d);
                }
            }
            ExprKind::Prim { args, .. } => {
                for &e in args.iter() {
                    f(e);
                }
            }
        }
    }
}

/// Surface-level (monomorphic) type expressions, used in datatype
/// declarations to give constructor argument types.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TyExpr {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `unit`
    Unit,
    /// A declared datatype.
    Data(DataId),
    /// `t₁ -> t₂`
    Arrow(Box<TyExpr>, Box<TyExpr>),
    /// `t₁ * … * tₙ`
    Tuple(Box<[TyExpr]>),
}

/// A constructor declaration.
#[derive(Clone, Debug)]
pub struct ConInfo {
    /// Source name.
    pub name: Symbol,
    /// Owning datatype.
    pub data: DataId,
    /// Declared argument types (the arity is `arg_tys.len()`).
    pub arg_tys: Box<[TyExpr]>,
}

/// A datatype declaration.
#[derive(Clone, Debug)]
pub struct DataInfo {
    /// Source name.
    pub name: Symbol,
    /// Constructors belonging to this datatype, in declaration order.
    pub cons: Vec<ConId>,
}

/// The datatype environment of a program: all `datatype` declarations.
#[derive(Clone, Debug, Default)]
pub struct DataEnv {
    datatypes: Vec<DataInfo>,
    cons: Vec<ConInfo>,
    /// The constructor each symbol names, by symbol index.
    con_by_name: Vec<Option<ConId>>,
    /// The datatype each symbol names, by symbol index.
    data_by_name: Vec<Option<DataId>>,
}

/// The entry for `name` in a table indexed by symbol, grown on demand.
fn entry<T: Copy>(table: &mut Vec<Option<T>>, name: Symbol) -> &mut Option<T> {
    if table.len() <= name.index() {
        table.resize(name.index() + 1, None);
    }
    &mut table[name.index()]
}

impl DataEnv {
    /// Declares a datatype with no constructors yet; constructors are added
    /// with [`DataEnv::declare_con`].
    ///
    /// Returns `None` if the name is already taken by another datatype.
    pub fn declare_data(&mut self, name: Symbol) -> Option<DataId> {
        let id = DataId::from_index(self.datatypes.len());
        let slot = entry(&mut self.data_by_name, name);
        if slot.is_some() {
            return None;
        }
        *slot = Some(id);
        self.datatypes.push(DataInfo {
            name,
            cons: Vec::new(),
        });
        Some(id)
    }

    /// Declares a constructor for `data`.
    ///
    /// Returns `None` if the constructor name is already taken.
    pub fn declare_con(
        &mut self,
        data: DataId,
        name: Symbol,
        arg_tys: impl Into<Box<[TyExpr]>>,
    ) -> Option<ConId> {
        let id = ConId::from_index(self.cons.len());
        let slot = entry(&mut self.con_by_name, name);
        if slot.is_some() {
            return None;
        }
        *slot = Some(id);
        self.cons.push(ConInfo {
            name,
            data,
            arg_tys: arg_tys.into(),
        });
        self.datatypes[data.index()].cons.push(id);
        Some(id)
    }

    /// Looks up a constructor by name.
    pub fn con_by_name(&self, name: Symbol) -> Option<ConId> {
        self.con_by_name.get(name.index()).copied().flatten()
    }

    /// Looks up a datatype by name.
    pub fn data_by_name(&self, name: Symbol) -> Option<DataId> {
        self.data_by_name.get(name.index()).copied().flatten()
    }

    /// Constructor metadata.
    pub fn con(&self, id: ConId) -> &ConInfo {
        &self.cons[id.index()]
    }

    /// Datatype metadata.
    pub fn data(&self, id: DataId) -> &DataInfo {
        &self.datatypes[id.index()]
    }

    /// Number of declared constructors.
    pub fn con_count(&self) -> usize {
        self.cons.len()
    }

    /// Number of declared datatypes.
    pub fn data_count(&self) -> usize {
        self.datatypes.len()
    }

    /// Forgets every datatype and constructor declared at or beyond the
    /// given counts. Declarations are append-only (a fragment's
    /// constructors always belong to datatypes of the same fragment), so
    /// truncation restores an earlier extent exactly.
    pub(crate) fn rewind(&mut self, datatypes: usize, cons: usize) {
        for d in &self.datatypes[datatypes..] {
            self.data_by_name[d.name.index()] = None;
        }
        for c in &self.cons[cons..] {
            self.con_by_name[c.name.index()] = None;
        }
        self.datatypes.truncate(datatypes);
        self.cons.truncate(cons);
        for d in &mut self.datatypes {
            d.cons.retain(|c| c.index() < cons);
        }
    }

    /// Iterates over all constructor ids.
    pub fn cons(&self) -> impl Iterator<Item = ConId> + '_ {
        (0..self.cons.len()).map(ConId::from_index)
    }

    /// Iterates over all datatype ids.
    pub fn datas(&self) -> impl Iterator<Item = DataId> + '_ {
        (0..self.datatypes.len()).map(DataId::from_index)
    }

    /// Arity of a constructor.
    pub fn arity(&self, id: ConId) -> usize {
        self.con(id).arg_tys.len()
    }

    /// Datatype *nesting levels* (paper, Section 6): "label a datatype
    /// definition that does not mention other datatypes with 0, and label
    /// any other datatype definition with the maximum of the labels of all
    /// datatypes it uses, plus 1". Self-references do not raise the level.
    /// Bounded nesting makes the ≈₂ congruence linear.
    pub fn nesting_levels(&self) -> Vec<usize> {
        fn mentioned(t: &TyExpr, out: &mut Vec<DataId>) {
            match t {
                TyExpr::Data(d) => out.push(*d),
                TyExpr::Arrow(a, b) => {
                    mentioned(a, out);
                    mentioned(b, out);
                }
                TyExpr::Tuple(parts) => {
                    for p in parts.iter() {
                        mentioned(p, out);
                    }
                }
                TyExpr::Int | TyExpr::Bool | TyExpr::Unit => {}
            }
        }
        let n = self.datatypes.len();
        let mut uses: Vec<Vec<DataId>> = vec![Vec::new(); n];
        for (i, info) in self.datatypes.iter().enumerate() {
            let mut ms = Vec::new();
            for &c in &info.cons {
                for t in self.con(c).arg_tys.iter() {
                    mentioned(t, &mut ms);
                }
            }
            ms.sort_unstable();
            ms.dedup();
            ms.retain(|d| d.index() != i); // self-reference is free
            uses[i] = ms;
        }
        // Declarations can only reference earlier (or own) datatypes, so a
        // single pass in declaration order suffices.
        let mut level = vec![0usize; n];
        for i in 0..n {
            level[i] = uses[i]
                .iter()
                .map(|d| level[d.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        level
    }

    /// The maximum datatype nesting level (0 when there are no datatypes).
    pub fn max_nesting_level(&self) -> usize {
        self.nesting_levels().into_iter().max().unwrap_or(0)
    }
}

/// A complete, closed program: an expression arena, binder table, label
/// table and datatype environment.
///
/// Programs are built by the [`crate::parser`] or the
/// [`crate::builder::ProgramBuilder`]; both guarantee the invariants that
/// the analyses rely on (closedness, distinct binders, unique labels,
/// saturated constructors and primitives).
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) interner: Interner,
    pub(crate) exprs: Vec<ExprKind>,
    /// Source span per occurrence, parallel to `exprs`. `None` for
    /// programmatically built nodes (workload generators, inliner output).
    pub(crate) spans: Vec<Option<Span>>,
    pub(crate) vars: Vec<Symbol>,
    pub(crate) labels: Vec<ExprId>,
    pub(crate) data: DataEnv,
    pub(crate) root: ExprId,
}

impl Program {
    /// Parses a program from surface syntax. Convenience for
    /// [`crate::parser::parse`].
    pub fn parse(source: &str) -> Result<Program, crate::parser::ParseError> {
        crate::parser::parse(source)
    }

    /// The root (top-level) expression.
    pub fn root(&self) -> ExprId {
        self.root
    }

    /// The shape of expression `id`.
    #[inline]
    pub fn kind(&self, id: ExprId) -> &ExprKind {
        &self.exprs[id.index()]
    }

    /// Number of expression occurrences — the paper's program-size measure
    /// `n` ("number of syntax nodes").
    pub fn size(&self) -> usize {
        self.exprs.len()
    }

    /// Iterates over every expression occurrence.
    pub fn exprs(&self) -> impl Iterator<Item = ExprId> + '_ {
        (0..self.exprs.len()).map(ExprId::from_index)
    }

    /// Number of binders.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Iterates over every binder.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId::from_index)
    }

    /// Source name of a binder.
    pub fn var_name(&self, var: VarId) -> &str {
        self.interner.resolve(self.vars[var.index()])
    }

    /// Number of abstraction labels (= number of abstractions).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Restores the arena to an earlier extent: every table is
    /// append-only during fragment parsing (see
    /// [`crate::parser::parse_fragment`]), so truncating the parallel
    /// vectors — and un-interning the symbols and datatype declarations
    /// minted since — is an exact undo. Used by the session layer to
    /// rewind a failed or superseded fragment without cloning the arena.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rewind(
        &mut self,
        exprs: usize,
        vars: usize,
        labels: usize,
        datatypes: usize,
        cons: usize,
        interned: usize,
        root: ExprId,
    ) {
        self.exprs.truncate(exprs);
        self.spans.truncate(exprs);
        self.vars.truncate(vars);
        self.labels.truncate(labels);
        self.data.rewind(datatypes, cons);
        self.interner.rewind(interned);
        self.root = root;
    }

    /// Iterates over every abstraction label.
    pub fn all_labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.labels.len()).map(Label::from_index)
    }

    /// The abstraction expression carrying `label`.
    pub fn lam_of_label(&self, label: Label) -> ExprId {
        self.labels[label.index()]
    }

    /// The display name of the abstraction carrying `label`:
    /// `λ<param>#<label index>`, as the CLI, the protocol, lint messages
    /// and DOT output print it.
    pub fn label_name(&self, label: Label) -> String {
        let ExprKind::Lam { param, .. } = self.kind(self.lam_of_label(label)) else {
            unreachable!("every label carries an abstraction")
        };
        format!("λ{}#{}", self.var_name(*param), label.index())
    }

    /// If `id` is an abstraction, its label.
    pub fn label_of(&self, id: ExprId) -> Option<Label> {
        match self.kind(id) {
            ExprKind::Lam { label, .. } => Some(*label),
            _ => None,
        }
    }

    /// The source span of occurrence `id`, if known. Parsed programs carry
    /// spans on every node (desugared nodes inherit their binding's span);
    /// programmatically built nodes have none.
    pub fn span(&self, id: ExprId) -> Option<Span> {
        self.spans[id.index()]
    }

    /// Returns an alpha-renamed copy: every binder's source name becomes
    /// `rename(current_name, binder_index)`. Because binders are identities
    /// rather than names ([`VarId`]), the structure, ids, labels and spans
    /// are untouched — renaming is purely a change of the name table, which
    /// is exactly alpha-conversion for this representation.
    pub fn rename_binders(&self, mut rename: impl FnMut(&str, usize) -> String) -> Program {
        let names: Vec<String> = (0..self.vars.len())
            .map(|i| rename(self.interner.resolve(self.vars[i]), i))
            .collect();
        let mut out = self.clone();
        for (i, name) in names.iter().enumerate() {
            out.vars[i] = out.interner.intern(name);
        }
        out
    }

    /// The datatype environment.
    pub fn data_env(&self) -> &DataEnv {
        &self.data
    }

    /// The interner used for names in this program.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Calls `f` on every direct child of `id`, in left-to-right order.
    pub fn for_each_child(&self, id: ExprId, f: impl FnMut(ExprId)) {
        self.kind(id).for_each_child(f);
    }

    /// Direct children of `id`, in left-to-right order.
    pub fn children(&self, id: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.for_each_child(id, |c| out.push(c));
        out
    }

    /// Number of non-trivial applications, the query population used by the
    /// paper's benchmarks: applications `(e₁ e₂)` where `e₁` is neither a
    /// variable bound to a known function (`fun`/`letrec` identifier) nor a
    /// literal abstraction.
    pub fn nontrivial_apps(&self) -> Vec<ExprId> {
        // Variables bound by letrec are "function identifiers".
        let mut is_fun_ident = vec![false; self.vars.len()];
        for id in self.exprs() {
            if let ExprKind::LetRec { binder, .. } = self.kind(id) {
                is_fun_ident[binder.index()] = true;
            }
        }
        self.exprs()
            .filter(|&id| {
                if let ExprKind::App { func, .. } = self.kind(id) {
                    match self.kind(*func) {
                        ExprKind::Lam { .. } => false,
                        ExprKind::Var(v) => !is_fun_ident[v.index()],
                        _ => true,
                    }
                } else {
                    false
                }
            })
            .collect()
    }

    /// All application sites `(e₁ e₂)`.
    pub fn app_sites(&self) -> Vec<ExprId> {
        self.exprs()
            .filter(|&id| matches!(self.kind(id), ExprKind::App { .. }))
            .collect()
    }

    /// Pretty-prints the program to surface syntax. Convenience for
    /// [`crate::pretty::pretty`].
    pub fn to_source(&self) -> String {
        crate::pretty::pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_arities_are_consistent_with_names() {
        for op in PrimOp::ALL {
            assert!(op.arity() <= 2);
            assert!(!op.name().is_empty());
        }
    }

    #[test]
    fn effectful_prims() {
        assert!(PrimOp::Print.is_effectful());
        assert!(PrimOp::ReadInt.is_effectful());
        assert!(!PrimOp::Add.is_effectful());
        assert!(!PrimOp::IntEq.is_effectful());
    }

    #[test]
    fn data_env_declarations() {
        let mut interner = Interner::new();
        let mut env = DataEnv::default();
        let list = env.declare_data(interner.intern("intlist")).unwrap();
        let nil = env
            .declare_con(list, interner.intern("Nil"), Vec::new())
            .unwrap();
        let cons = env
            .declare_con(
                list,
                interner.intern("Cons"),
                vec![TyExpr::Int, TyExpr::Data(list)],
            )
            .unwrap();
        assert_eq!(env.arity(nil), 0);
        assert_eq!(env.arity(cons), 2);
        assert_eq!(env.data(list).cons, vec![nil, cons]);
        assert_eq!(env.con_by_name(interner.intern("Cons")), Some(cons));
        // duplicate names are rejected
        assert!(env.declare_data(interner.intern("intlist")).is_none());
        assert!(env
            .declare_con(list, interner.intern("Nil"), Vec::new())
            .is_none());
    }

    #[test]
    fn index_round_trip() {
        let e = ExprId::from_index(42);
        assert_eq!(e.index(), 42);
        assert_eq!(format!("{e:?}"), "ExprId(42)");
    }

    #[test]
    fn nesting_levels_follow_the_papers_definition() {
        let mut interner = Interner::new();
        let mut env = DataEnv::default();
        // level 0: a self-recursive list of ints.
        let ilist = env.declare_data(interner.intern("ilist")).unwrap();
        env.declare_con(ilist, interner.intern("INil"), Vec::new())
            .unwrap();
        env.declare_con(
            ilist,
            interner.intern("ICons"),
            vec![TyExpr::Int, TyExpr::Data(ilist)],
        )
        .unwrap();
        // level 1: a list of int-lists.
        let llist = env.declare_data(interner.intern("llist")).unwrap();
        env.declare_con(llist, interner.intern("LNil"), Vec::new())
            .unwrap();
        env.declare_con(
            llist,
            interner.intern("LCons"),
            vec![TyExpr::Data(ilist), TyExpr::Data(llist)],
        )
        .unwrap();
        // level 2: wraps the level-1 datatype.
        let wrap = env.declare_data(interner.intern("wrap")).unwrap();
        env.declare_con(wrap, interner.intern("W"), vec![TyExpr::Data(llist)])
            .unwrap();

        assert_eq!(env.nesting_levels(), vec![0, 1, 2]);
        assert_eq!(env.max_nesting_level(), 2);
    }
}
