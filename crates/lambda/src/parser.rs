//! Recursive-descent parser for the ML-flavoured surface syntax.
//!
//! The grammar, informally:
//!
//! ```text
//! program  := decl* expr?
//! decl     := "datatype" lid "=" conbind ("|" conbind)* [";"]
//!           | "fun" lid lid+ "=" expr [";"]            -- recursive, curried
//!           | "val" lid "=" expr [";"]
//!           | "val" "rec" lid "=" expr [";"]           -- rhs must be `fn`
//! conbind  := UId ["of" tyarg ("*" tyarg)*]
//! tyarg    := tyatom ["->" tyarg]
//! tyatom   := "int" | "bool" | "unit" | lid | "(" tyarg ")"
//! expr     := "fn" lid "=>" expr
//!           | "let" decl+ "in" expr "end"
//!           | "if" expr "then" expr "else" expr
//!           | "case" expr "of" ["|"] arm ("|" arm)*
//!           | cmp
//! arm      := UId ["(" lid ("," lid)* ")"] "=>" expr | "_" "=>" expr
//! cmp      := add [("<" | "<=" | "=") add]
//! add      := mul (("+" | "-") mul)*
//! mul      := appexpr (("*" | "div") appexpr)*
//! appexpr  := atom+                                     -- application
//! atom     := lid | UId ["(" expr ("," expr)* ")"] | literal
//!           | "(" ")" | "(" expr ")" | "(" expr ("," expr)+ ")"
//!           | "#" INT atom | "not" atom | "print" atom | "readint"
//! ```
//!
//! Top-level and `let` declarations desugar to nested `let`/`letrec`; `fun`
//! with several parameters curries. A program with no final expression
//! evaluates to `()`.

use std::error::Error;
use std::fmt;

use crate::ast::{CaseArm, DataId, ExprId, ExprKind, PrimOp, Program, TyExpr, VarId};
use crate::builder::ProgramBuilder;
use crate::intern::Symbol;
use crate::lexer::{lex, Kw, LexError, Pos, Span, Tok};
use crate::validate::{self, Refusal, ValidateError};

/// A parse (or lex, or validation) failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Position of the offending token (line 0 for post-parse validation
    /// errors).
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            pos: e.pos,
            message: e.message,
        }
    }
}

/// The deepest the parser recurses, in levels: every open expression,
/// atom and type expression is one level (a parenthesized expression is
/// two, its atom and the expression inside). Source nested deeper is a
/// parse error naming this limit, raised before the recursion can
/// exhaust the stack.
///
/// Set by measurement on a release build: the deepest program the
/// benchmark pool draws (`synth8000`, 200 seeds) nests 402 levels, and
/// input at the limit, in every shape that reaches it, runs `analyze`,
/// `lint` and `opt --emit` within a 2 MiB thread. A debug build needs
/// about 8.6 MiB; the daemon's request workers get 16 MiB.
pub const MAX_NESTING: usize = 1000;

/// The tallest expression tree the parser builds, in levels. Loops build
/// trees taller than the parser nests (declaration chains, curried `fun`
/// parameters, application spines, operator chains), and every recursive
/// walker downstream — validation, type inference, the pretty printer,
/// the optimizer's copier, lint evidence — inherits this bound.
///
/// A fixed multiple of [`MAX_NESTING`], so one number tunes both: a tree
/// level costs a walker a quarter to a half of the stack a level of
/// parser recursion costs. The paper's own workloads need the headroom:
/// the cubic benchmark at 512 copies is a 2,053-level declaration chain
/// that nests only four levels deep.
pub const MAX_HEIGHT: usize = 3 * MAX_NESTING;

fn too_deep() -> String {
    format!("input nests deeper than the limit of {MAX_NESTING} levels")
}

fn too_tall() -> String {
    format!("expression tree is taller than the limit of {MAX_HEIGHT} levels")
}

/// The parser's own results. An error is boxed, so a result fits in
/// two registers on the way up the recursive descent.
type PResult<T> = Result<T, Box<ParseError>>;

const NOWHERE: Pos = Pos {
    offset: 0,
    line: 0,
    col: 0,
};

impl From<ValidateError> for ParseError {
    fn from(e: ValidateError) -> Self {
        ParseError {
            pos: NOWHERE,
            message: e.to_string(),
        }
    }
}

/// The parse error for a tree the validator refused: a tree taller than
/// [`MAX_HEIGHT`] is refused at the first node past the limit.
fn refused(program: &Program, refusal: Refusal) -> ParseError {
    match refusal {
        Refusal::TooTall(id) => ParseError {
            pos: program.span(id).map_or(NOWHERE, |s| s.start),
            message: too_tall(),
        },
        Refusal::Invalid(e) => e.into(),
    }
}

/// Parses a complete program.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let toks = lex(source)?;
    // Programs carry roughly one expression per two tokens.
    let b = ProgramBuilder::with_capacity(toks.len() / 2);
    let mut p = Parser::new(toks, b, Scope::default());
    let root = p.program().map_err(|e| *e)?;
    let program = p.b.finish_unchecked(Some(root));
    validate::check(&program, Some(MAX_HEIGHT)).map_err(|r| refused(&program, r))?;
    Ok(program)
}

/// The names in force while parsing, by symbol.
///
/// Each name's innermost binder sits at its symbol's index, and a
/// journal records every binding with the binder it shadowed, so
/// bindings undo in reverse. A whole program's parse releases every
/// binding it makes. A session keeps one `Scope` across its fragments
/// (see [`parse_fragment`]): a fragment's top-level bindings stay in
/// force, and their journal entries are what the session rewinds.
#[derive(Clone, Debug, Default)]
pub struct Scope {
    /// By symbol index: the innermost binder of that name.
    binder: Vec<Option<VarId>>,
    /// Every binding still in force, oldest first.
    journal: Vec<Shadowing>,
}

/// One journal entry of a [`Scope`].
#[derive(Clone, Copy, Debug)]
struct Shadowing {
    name: Symbol,
    binder: VarId,
    /// The binder `binder` shadows.
    outer: Option<VarId>,
}

impl Scope {
    /// The innermost binder of `name`.
    pub fn lookup(&self, name: Symbol) -> Option<VarId> {
        self.binder.get(name.index()).copied().flatten()
    }

    /// Brings `binder` into scope as `name`.
    fn push(&mut self, name: Symbol, binder: VarId) {
        if self.binder.len() <= name.index() {
            self.binder.resize(name.index() + 1, None);
        }
        let outer = self.binder[name.index()].replace(binder);
        self.journal.push(Shadowing {
            name,
            binder,
            outer,
        });
    }

    /// Releases `binder`, which must be the most recent binding still in
    /// force: scopes nest.
    fn pop(&mut self, binder: VarId) {
        let top = self.journal.last().expect("unbind of empty scope");
        assert_eq!(top.binder, binder, "unbind out of scope order");
        self.rewind(self.journal.len() - 1);
    }

    /// Number of bindings in force, for [`Scope::rewind`].
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Releases every binding made after the first `len`.
    pub(crate) fn rewind(&mut self, len: usize) {
        while self.journal.len() > len {
            let entry = self.journal.pop().expect("len checked");
            self.binder[entry.name.index()] = entry.outer;
        }
    }

    /// Whether one of the first `len` bindings binds `v`. A session's
    /// bindings are made in binder order, so their entries are sorted.
    fn binds(&self, len: usize, v: VarId) -> bool {
        self.journal[..len]
            .binary_search_by_key(&v, |entry| entry.binder)
            .is_ok()
    }
}

/// One freshly parsed session binding (see [`crate::session`]).
#[derive(Clone, Debug)]
pub struct RawBinding {
    /// Source name.
    pub name: String,
    /// The fresh binder.
    pub binder: VarId,
    /// The bound expression.
    pub rhs: ExprId,
    /// Whether the binding is recursive.
    pub recursive: bool,
}

/// One freshly parsed fragment: top-level bindings and/or a value.
#[derive(Clone, Debug)]
pub struct RawFragment {
    /// Bindings introduced, in order.
    pub bindings: Vec<RawBinding>,
    /// The trailing value expression, if any.
    pub value: Option<ExprId>,
}

/// Parses a REPL-style fragment into an existing program arena (taken
/// apart and reassembled through [`ProgramBuilder::from_program`]), with
/// `scope` giving the top-level names already in force. The fragment's
/// bindings are *not* wrapped in `let` expressions — the caller records
/// them (see [`crate::session::SessionProgram`]). On success they stay
/// in `scope`; on error `scope` is as it was.
///
/// The new trees are validated here, as a fragment of a forest: only
/// the nodes and binders the fragment added are inspected, and the
/// bindings already in `scope` are the names they may use from outside.
pub fn parse_fragment(
    program: &mut Program,
    scope: &mut Scope,
    source: &str,
) -> Result<RawFragment, ParseError> {
    let toks = lex(source)?;
    // A session arena's root is meaningless (the session layer tracks
    // per-fragment values instead); keep the incoming root rather than
    // allocating a placeholder per fragment, so a program split into `k`
    // fragments builds the *same* arena as the unsplit program — the
    // node-for-node guarantee the session linker's differential tests
    // rely on.
    let old_root = program.root();
    let placeholder = ProgramBuilder::new().finish_unchecked(None);
    let owned = std::mem::replace(program, placeholder);
    let session = scope.journal_len();
    let mut p = Parser::new(
        toks,
        ProgramBuilder::from_program(owned),
        std::mem::take(scope),
    );

    let (exprs, vars) = (p.b.expr_count(), p.b.var_count());
    let result = p.fragment().map_err(|e| *e);
    // Reassemble the arena whether or not parsing succeeded; the session
    // layer discards the scratch copy on error.
    *program = p.b.finish_unchecked(Some(old_root));
    *scope = p.scope;
    let result = result.and_then(|fragment| {
        let roots: Vec<ExprId> = fragment
            .bindings
            .iter()
            .map(|b| b.rhs)
            .chain(fragment.value)
            .collect();
        let binders: Vec<VarId> = fragment.bindings.iter().map(|b| b.binder).collect();
        validate::check_forest(
            program,
            exprs,
            vars,
            &roots,
            &binders,
            |v| scope.binds(session, v),
            Some(MAX_HEIGHT),
        )
        .map_err(|r| refused(program, r))?;
        Ok(fragment)
    });
    if result.is_err() {
        scope.rewind(session);
    }
    result
}

impl Parser<'_> {
    /// `program := decl* expr?`
    fn program(&mut self) -> PResult<ExprId> {
        let root = self.decl_block(BlockKind::TopLevel)?;
        self.expect(&Tok::Eof)?;
        Ok(root)
    }

    /// `fragment := (datatype-decl | fun-binding | val-binding)* expr?`
    fn fragment(&mut self) -> PResult<RawFragment> {
        let mut bindings = Vec::new();
        loop {
            match self.peek() {
                Tok::Kw(Kw::Datatype) => self.datatype_decl()?,
                Tok::Kw(Kw::Fun) => {
                    self.bump();
                    let names = self.scan_fun_group()?;
                    if names.is_empty() {
                        let (name, binder, rhs) = self.fun_binding()?;
                        // Stays bound: later bindings and the value see it.
                        bindings.push(RawBinding {
                            name: name.to_owned(),
                            binder,
                            rhs,
                            recursive: true,
                        });
                    } else {
                        let group = self.mutual_group(&names)?;
                        // The pack is a session binding too, under a name
                        // no source can spell.
                        let pack = self.b.intern("$pack");
                        self.scope.push(pack, group.pack);
                        bindings.push(RawBinding {
                            name: "$pack".into(),
                            binder: group.pack,
                            rhs: group.pack_lam,
                            recursive: true,
                        });
                        for (name, binder, rhs) in group.outer {
                            self.push_scope(name, binder);
                            bindings.push(RawBinding {
                                name: name.to_owned(),
                                binder,
                                rhs,
                                recursive: false,
                            });
                        }
                    }
                }
                Tok::Kw(Kw::Val) => {
                    self.bump();
                    let (name, binder, rhs, recursive) = self.val_binding()?;
                    bindings.push(RawBinding {
                        name: name.to_owned(),
                        binder,
                        rhs,
                        recursive,
                    });
                }
                _ => break,
            }
        }
        let value = if self.peek() == Tok::Eof {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(&Tok::Eof)?;
        Ok(RawFragment { bindings, value })
    }
}

enum BlockKind {
    TopLevel,
    Let,
}

/// The desugared pieces of an `and`-connected `fun` group.
struct MutualGroup<'a> {
    /// The hidden recursive pack binder.
    pack: VarId,
    /// `λ$d. let wrappers in (member₁, …, memberₙ)`.
    pack_lam: ExprId,
    /// Outer wrappers `(name, binder, rhs)` for the continuation.
    outer: Vec<(&'a str, VarId, ExprId)>,
}

/// A parsed declaration whose `let`/`letrec` node waits for the rest of
/// its block (see [`Parser::decl_block`]).
enum Pending<'a> {
    /// `fun f p₁ … pₙ = body`.
    Fun {
        start: Pos,
        binder: VarId,
        lam: ExprId,
    },
    /// An `and`-connected `fun` group.
    Group { start: Pos, group: MutualGroup<'a> },
    /// `val [rec] x = rhs`.
    Val {
        start: Pos,
        binder: VarId,
        rhs: ExprId,
        recursive: bool,
    },
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, Span)>,
    idx: usize,
    /// End of the most recently consumed token — the right edge of every
    /// span the parser closes.
    prev_end: Pos,
    b: ProgramBuilder,
    /// The names in force, by symbol.
    scope: Scope,
    /// Recursive parsing steps currently open (see [`Parser::nested`]).
    depth: usize,
    /// Scratch stacks shared by every open block, tuple and case, so a
    /// node's parts cost one exact allocation (or none): the declarations
    /// of open blocks, the items of open tuples and constructor
    /// applications, and the arms of open cases. Each open construct
    /// owns the top of its stack from where it began.
    pending: Vec<Pending<'a>>,
    items: Vec<ExprId>,
    arms: Vec<CaseArm>,
}

impl<'a> Parser<'a> {
    fn new(toks: Vec<(Tok<'a>, Span)>, b: ProgramBuilder, scope: Scope) -> Self {
        Parser {
            toks,
            idx: 0,
            prev_end: NOWHERE,
            b,
            scope,
            depth: 0,
            pending: Vec::new(),
            items: Vec::new(),
            arms: Vec::new(),
        }
    }

    fn peek(&self) -> Tok<'a> {
        self.toks[self.idx].0
    }

    fn peek2(&self) -> Tok<'a> {
        self.toks[(self.idx + 1).min(self.toks.len() - 1)].0
    }

    fn pos(&self) -> Pos {
        self.toks[self.idx].1.start
    }

    fn bump(&mut self) {
        self.prev_end = self.toks[self.idx].1.end;
        if self.idx + 1 < self.toks.len() {
            self.idx += 1;
        }
    }

    /// Records `start ‥ end-of-last-consumed-token` as the span of `id`.
    fn mark(&mut self, id: ExprId, start: Pos) -> ExprId {
        self.b.set_span(
            id,
            Span {
                start,
                end: self.prev_end,
            },
        );
        id
    }

    /// Gives every still-unspanned node built since `lo` the span
    /// `start ‥ end-of-last-consumed-token`. Desugared helpers (currying,
    /// mutual-recursion packs and wrappers) have no tokens of their own;
    /// they inherit the whole binding's span through this.
    fn fill_spans(&mut self, lo: usize, start: Pos) {
        let span = Span {
            start,
            end: self.prev_end,
        };
        for i in lo..self.b.expr_count() {
            let id = ExprId::from_index(i);
            if self.b.span(id).is_none() {
                self.b.set_span(id, span);
            }
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(Box::new(ParseError {
            pos: self.pos(),
            message: message.into(),
        }))
    }

    fn expect(&mut self, tok: &Tok<'_>) -> PResult<()> {
        if self.peek() == *tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> PResult<()> {
        self.expect(&Tok::Kw(kw))
    }

    fn lident(&mut self) -> PResult<&'a str> {
        match self.peek() {
            Tok::LIdent(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// Runs one recursive parsing step a level deeper, refusing input
    /// that nests past [`MAX_NESTING`] before it can exhaust the stack.
    fn nested<T>(&mut self, step: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth == MAX_NESTING {
            return self.err(too_deep());
        }
        self.depth += 1;
        let result = step(self);
        self.depth -= 1;
        result
    }

    // --- scope management -------------------------------------------------

    /// A fresh binder named `name`, brought into scope.
    fn bind(&mut self, name: &str) -> VarId {
        let sym = self.b.intern(name);
        let v = self.b.fresh_binder(sym);
        self.scope.push(sym, v);
        v
    }

    /// Brings the existing binder `v` into scope as `name`.
    fn push_scope(&mut self, name: &str, v: VarId) {
        let sym = self.b.intern(name);
        self.scope.push(sym, v);
    }

    /// Releases `v`, the most recent binding still in force.
    fn unbind(&mut self, v: VarId) {
        self.scope.pop(v);
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scope.lookup(self.b.interner().get(name)?)
    }

    // --- declarations ------------------------------------------------------

    /// Parses a sequence of declarations followed by the block body, and
    /// builds the nested `let`/`letrec` expression.
    ///
    /// The declarations are parsed in a loop, not by recursion: a block
    /// with many declarations costs one stack frame, and only the tree
    /// it builds is as deep as the declaration count (bounded by
    /// [`MAX_HEIGHT`]). The `let` nodes are built innermost
    /// first once the body is parsed, the order recursion would give.
    fn decl_block(&mut self, kind: BlockKind) -> PResult<ExprId> {
        let first = self.pending.len();
        loop {
            match self.peek() {
                Tok::Kw(Kw::Datatype) => self.datatype_decl()?,
                Tok::Kw(Kw::Fun) => {
                    let start = self.pos();
                    self.bump();
                    let names = self.scan_fun_group()?;
                    if names.is_empty() {
                        let (_, binder, lam) = self.fun_binding()?;
                        self.pending.push(Pending::Fun { start, binder, lam });
                    } else {
                        let group = self.mutual_group(&names)?;
                        for (name, binder, _) in &group.outer {
                            self.push_scope(name, *binder);
                        }
                        self.pending.push(Pending::Group { start, group });
                    }
                }
                Tok::Kw(Kw::Val) => {
                    let start = self.pos();
                    self.bump();
                    let (_, binder, rhs, recursive) = self.val_binding()?;
                    self.pending.push(Pending::Val {
                        start,
                        binder,
                        rhs,
                        recursive,
                    });
                }
                _ => break,
            }
        }
        let mut body = match kind {
            BlockKind::TopLevel => {
                if self.peek() == Tok::Eof {
                    self.b.unit()
                } else {
                    self.expr()?
                }
            }
            BlockKind::Let => {
                self.expect_kw(Kw::In)?;
                let body = self.expr()?;
                self.expect_kw(Kw::End)?;
                body
            }
        };
        while self.pending.len() > first {
            let decl = self.pending.pop().expect("len checked");
            body = match decl {
                Pending::Fun { start, binder, lam } => {
                    self.unbind(binder);
                    let node = self.b.letrec(binder, lam, body);
                    self.mark(node, start)
                }
                Pending::Group { start, group } => {
                    for &(_, binder, _) in group.outer.iter().rev() {
                        self.unbind(binder);
                    }
                    for (_, binder, rhs) in group.outer.iter().rev() {
                        body = self.b.let_(*binder, *rhs, body);
                        self.mark(body, start);
                    }
                    let node = self.b.letrec(group.pack, group.pack_lam, body);
                    self.mark(node, start)
                }
                Pending::Val {
                    start,
                    binder,
                    rhs,
                    recursive,
                } => {
                    self.unbind(binder);
                    let node = if recursive {
                        self.b.letrec(binder, rhs, body)
                    } else {
                        self.b.let_(binder, rhs, body)
                    };
                    self.mark(node, start)
                }
            };
        }
        Ok(body)
    }

    /// Token-level lookahead from just after `fun`: the names of the
    /// `and`-connected group, or none when there is no `and` (a single
    /// function, which allocates nothing). `let`/`end` nesting is tracked
    /// so that `and` inside nested blocks is ignored; `and` cannot
    /// otherwise occur inside expressions (it is a keyword).
    fn scan_fun_group(&self) -> PResult<Vec<&'a str>> {
        let mut names = Vec::new();
        let mut i = self.idx;
        let first = match self.toks[i].0 {
            Tok::LIdent(s) => s,
            other => {
                return Err(Box::new(ParseError {
                    pos: self.toks[i].1.start,
                    message: format!("expected function name, found {other}"),
                }))
            }
        };
        i += 1;
        let mut depth = 0i32;
        loop {
            match &self.toks[i].0 {
                Tok::Kw(Kw::Let) => depth += 1,
                Tok::Kw(Kw::End) => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                Tok::Kw(Kw::And) if depth == 0 => {
                    i += 1;
                    match self.toks[i].0 {
                        Tok::LIdent(s) => {
                            if names.is_empty() {
                                names.push(first);
                            }
                            names.push(s);
                        }
                        other => {
                            return Err(Box::new(ParseError {
                                pos: self.toks[i].1.start,
                                message: format!(
                                    "expected function name after `and`, found {other}"
                                ),
                            }))
                        }
                    }
                }
                Tok::Kw(Kw::Fun | Kw::Val | Kw::Datatype | Kw::In) if depth == 0 => break,
                Tok::Semi if depth == 0 => break,
                Tok::Eof => break,
                _ => {}
            }
            i += 1;
        }
        Ok(names)
    }

    /// One eta-wrapper `λa. (#index (pack 0)) a` — the indirection through
    /// which a member of a mutual-recursion group is reached.
    fn wrapper_lam(&mut self, pack: VarId, index: u32) -> ExprId {
        let a = self.b.fresh_var("$a");
        let packv = self.b.var(pack);
        let zero = self.b.int(0);
        let call = self.b.app(packv, zero);
        let proj = self.b.proj(index, call);
        let av = self.b.var(a);
        let app = self.b.app(proj, av);
        self.b.lam(a, app)
    }

    /// Parses an `and`-connected `fun` group, desugaring to a single
    /// recursive *pack*:
    ///
    /// ```text
    /// fun f x = E and g y = F
    /// ⟹ letrec $pack = λ$d.
    ///       let f = λa.(#1 ($pack 0)) a in
    ///       let g = λa.(#2 ($pack 0)) a in
    ///       (λx.E, λy.F)
    ///    in let f = λa.(#1 ($pack 0)) a in
    ///       let g = λa.(#2 ($pack 0)) a in …
    /// ```
    ///
    /// Bodies `E`/`F` see the group through the eta-wrappers, so mutual
    /// calls flow through one extra abstraction (visible to CFA consumers
    /// as a wrapper label). The group is monomorphic within itself and
    /// generalized outside — SML's typing of `and`.
    fn mutual_group(&mut self, names: &[&'a str]) -> PResult<MutualGroup<'a>> {
        let start = self.pos();
        let lo = self.b.expr_count();
        let pack = self.b.fresh_var("$pack");
        let d = self.b.fresh_var("$d");
        // Inner wrappers, in scope for the group bodies.
        let inner: Vec<(VarId, ExprId)> = (0..names.len())
            .map(|i| {
                let w = self.b.fresh_var(names[i]);
                let lam = self.wrapper_lam(pack, i as u32);
                (w, lam)
            })
            .collect();
        for (&name, (w, _)) in names.iter().zip(&inner) {
            self.push_scope(name, *w);
        }
        // Parse each member.
        let mut lams = Vec::new();
        for (i, expected) in names.iter().enumerate() {
            if i > 0 {
                self.expect(&Tok::Kw(Kw::And))?;
            }
            let member_start = self.pos();
            let got = self.lident()?;
            if got != *expected {
                return self.err(format!(
                    "mutual-recursion scan expected `{expected}`, found `{got}`"
                ));
            }
            let mut params = Vec::new();
            while let Tok::LIdent(_) = self.peek() {
                params.push(self.lident()?);
            }
            if params.is_empty() {
                return self.err("`fun` needs at least one parameter");
            }
            let pvars: Vec<VarId> = params.iter().map(|&p| self.bind(p)).collect();
            self.expect(&Tok::Equals)?;
            let mut body = self.expr()?;
            for &pv in pvars.iter().rev() {
                self.unbind(pv);
            }
            let curried = self.b.expr_count();
            for &pv in pvars.iter().skip(1).rev() {
                body = self.b.lam(pv, body);
            }
            lams.push(self.b.lam(pvars[0], body));
            // The curried member lambdas carry the member's source range.
            self.fill_spans(curried, member_start);
        }
        if self.peek() == Tok::Semi {
            self.bump();
        }
        for &(w, _) in inner.iter().rev() {
            self.unbind(w);
        }
        let tuple = self.b.record(lams);
        let mut inner_body = tuple;
        for (w, wl) in inner.iter().rev() {
            inner_body = self.b.let_(*w, *wl, inner_body);
        }
        let pack_lam = self.b.lam(d, inner_body);
        // Fresh outer wrappers for the continuation.
        let outer = names
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let o = self.b.fresh_var(name);
                let rhs = self.wrapper_lam(pack, i as u32);
                (name, o, rhs)
            })
            .collect();
        // Pack machinery (wrappers, tuple, pack lambda) has no tokens of
        // its own: give it the whole group's span.
        self.fill_spans(lo, start);
        Ok(MutualGroup {
            pack,
            pack_lam,
            outer,
        })
    }

    /// Parses `f p₁ … pₙ = body [;]` after the `fun` keyword. The binder
    /// stays in scope for the caller to release (or keep, for fragments).
    fn fun_binding(&mut self) -> PResult<(&'a str, VarId, ExprId)> {
        let start = self.pos();
        let fname = self.lident()?;
        let f = self.bind(fname);
        let mut param_vars = Vec::new();
        while let Tok::LIdent(pname) = self.peek() {
            self.bump();
            param_vars.push(self.bind(pname));
        }
        if param_vars.is_empty() {
            return self.err("`fun` needs at least one parameter");
        }
        self.expect(&Tok::Equals)?;
        let mut body = self.expr()?;
        for &pv in param_vars.iter().rev() {
            self.unbind(pv);
        }
        // Curry: fn p1 => fn p2 => ... => body.
        let curried = self.b.expr_count();
        for &pv in param_vars.iter().skip(1).rev() {
            body = self.b.lam(pv, body);
        }
        let lam = self.b.lam(param_vars[0], body);
        // The curried lambdas inherit the binding's source range; the
        // body's nodes all carry spans of their own.
        self.fill_spans(curried, start);
        if self.peek() == Tok::Semi {
            self.bump();
        }
        Ok((fname, f, lam))
    }

    /// Parses `[rec] x = rhs [;]` after the `val` keyword. The binder
    /// stays in scope for the caller to release (or keep, for fragments).
    fn val_binding(&mut self) -> PResult<(&'a str, VarId, ExprId, bool)> {
        let recursive = if self.peek() == Tok::Kw(Kw::Rec) {
            self.bump();
            true
        } else {
            false
        };
        let name = self.lident()?;
        let (v, rhs) = if recursive {
            let v = self.bind(name);
            self.expect(&Tok::Equals)?;
            let rhs = self.expr()?;
            if !matches!(self.b.kind(rhs), ExprKind::Lam { .. }) {
                return self.err("`val rec` right-hand side must be `fn`");
            }
            (v, rhs)
        } else {
            self.expect(&Tok::Equals)?;
            let rhs = self.expr()?;
            let v = self.bind(name);
            (v, rhs)
        };
        if self.peek() == Tok::Semi {
            self.bump();
        }
        Ok((name, v, rhs, recursive))
    }

    fn datatype_decl(&mut self) -> PResult<()> {
        self.expect_kw(Kw::Datatype)?;
        let name = self.lident()?;
        let sym_exists = {
            let s = self.b.intern(name);
            self.b.data_env().data_by_name(s).is_some()
        };
        if sym_exists {
            return self.err(format!("datatype `{name}` is declared twice"));
        }
        let data = self.b.declare_data(name);
        self.expect(&Tok::Equals)?;
        loop {
            self.conbind(data)?;
            if self.peek() == Tok::Bar {
                self.bump();
            } else {
                break;
            }
        }
        if self.peek() == Tok::Semi {
            self.bump();
        }
        Ok(())
    }

    fn conbind(&mut self, data: DataId) -> PResult<()> {
        let name = match self.peek() {
            Tok::UIdent(s) => {
                self.bump();
                s
            }
            other => return self.err(format!("expected constructor name, found {other}")),
        };
        let exists = {
            let s = self.b.intern(name);
            self.b.data_env().con_by_name(s).is_some()
        };
        if exists {
            return self.err(format!("constructor `{name}` is declared twice"));
        }
        let mut arg_tys = Vec::new();
        if self.peek() == Tok::Kw(Kw::Of) {
            self.bump();
            loop {
                arg_tys.push(self.tyarg()?);
                if self.peek() == Tok::Star {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.b.declare_con(data, name, arg_tys);
        Ok(())
    }

    fn tyarg(&mut self) -> PResult<TyExpr> {
        self.nested(Self::tyarg_step)
    }

    fn tyarg_step(&mut self) -> PResult<TyExpr> {
        let lhs = self.tyatom()?;
        if self.peek() == Tok::Arrow {
            self.bump();
            let rhs = self.tyarg()?;
            Ok(TyExpr::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn tyatom(&mut self) -> PResult<TyExpr> {
        match self.peek() {
            Tok::Kw(Kw::Int) => {
                self.bump();
                Ok(TyExpr::Int)
            }
            Tok::Kw(Kw::Bool) => {
                self.bump();
                Ok(TyExpr::Bool)
            }
            Tok::Kw(Kw::Unit) => {
                self.bump();
                Ok(TyExpr::Unit)
            }
            Tok::LIdent(name) => {
                self.bump();
                let sym = self.b.intern(name);
                match self.b.data_env().data_by_name(sym) {
                    Some(d) => Ok(TyExpr::Data(d)),
                    None => self.err(format!("unknown type `{name}`")),
                }
            }
            Tok::LParen => {
                self.bump();
                // Allow tuple types inside parens: (t1 * t2 * ...).
                let mut parts = vec![self.tyarg()?];
                while self.peek() == Tok::Star {
                    self.bump();
                    parts.push(self.tyarg()?);
                }
                self.expect(&Tok::RParen)?;
                if parts.len() == 1 {
                    Ok(parts.pop().expect("one part"))
                } else {
                    Ok(TyExpr::Tuple(parts.into()))
                }
            }
            other => self.err(format!("expected type, found {other}")),
        }
    }

    // --- expressions --------------------------------------------------------

    fn expr(&mut self) -> PResult<ExprId> {
        self.nested(Self::expr_step)
    }

    fn expr_step(&mut self) -> PResult<ExprId> {
        let start = self.pos();
        match self.peek() {
            Tok::Kw(Kw::Fn) => {
                self.bump();
                let name = self.lident()?;
                let v = self.bind(name);
                self.expect(&Tok::FatArrow)?;
                let body = self.expr()?;
                self.unbind(v);
                let node = self.b.lam(v, body);
                Ok(self.mark(node, start))
            }
            Tok::Kw(Kw::Let) => {
                self.bump();
                self.decl_block(BlockKind::Let)
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                let cond = self.expr()?;
                self.expect_kw(Kw::Then)?;
                let t = self.expr()?;
                self.expect_kw(Kw::Else)?;
                let e = self.expr()?;
                let node = self.b.if_(cond, t, e);
                Ok(self.mark(node, start))
            }
            Tok::Kw(Kw::Case) => {
                self.bump();
                let scrutinee = self.expr()?;
                self.expect_kw(Kw::Of)?;
                if self.peek() == Tok::Bar {
                    self.bump();
                }
                let first = self.arms.len();
                let mut default = None;
                loop {
                    if self.peek() == Tok::Underscore {
                        self.bump();
                        self.expect(&Tok::FatArrow)?;
                        default = Some(self.expr()?);
                        if self.peek() == Tok::Bar {
                            return self.err("wildcard arm must be last");
                        }
                        break;
                    }
                    let con_name = match self.peek() {
                        Tok::UIdent(s) => {
                            self.bump();
                            s
                        }
                        other => return self.err(format!("expected case pattern, found {other}")),
                    };
                    let con = {
                        let sym = self.b.intern(con_name);
                        match self.b.data_env().con_by_name(sym) {
                            Some(c) => c,
                            None => {
                                return self
                                    .err(format!("unknown constructor `{con_name}` in pattern"))
                            }
                        }
                    };
                    let arity = self.b.data_env().arity(con);
                    let mut binders = Vec::with_capacity(arity);
                    if self.peek() == Tok::LParen {
                        self.bump();
                        loop {
                            let name = self.lident()?;
                            binders.push(self.bind(name));
                            if self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    if binders.len() != arity {
                        return self.err(format!(
                            "constructor `{con_name}` has arity {arity}, pattern binds {}",
                            binders.len()
                        ));
                    }
                    self.expect(&Tok::FatArrow)?;
                    let body = self.expr()?;
                    for &b in binders.iter().rev() {
                        self.unbind(b);
                    }
                    self.arms.push(CaseArm {
                        con,
                        binders: binders.into(),
                        body,
                    });
                    if self.peek() == Tok::Bar {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let arms = self.arms.drain(first..).collect();
                let node = self.b.case_arms(scrutinee, arms, default);
                Ok(self.mark(node, start))
            }
            _ => self.cmp(),
        }
    }

    fn cmp(&mut self) -> PResult<ExprId> {
        let start = self.pos();
        let lhs = self.add()?;
        let op = match self.peek() {
            Tok::Lt => PrimOp::Lt,
            Tok::Leq => PrimOp::Leq,
            Tok::Equals => PrimOp::IntEq,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add()?;
        let node = self.b.prim(op, vec![lhs, rhs]);
        Ok(self.mark(node, start))
    }

    fn add(&mut self) -> PResult<ExprId> {
        let start = self.pos();
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => PrimOp::Add,
                Tok::Minus => PrimOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul()?;
            lhs = self.b.prim(op, vec![lhs, rhs]);
            self.mark(lhs, start);
        }
    }

    fn mul(&mut self) -> PResult<ExprId> {
        let start = self.pos();
        let mut lhs = self.appexpr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => PrimOp::Mul,
                Tok::Kw(Kw::Div) => PrimOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.appexpr()?;
            lhs = self.b.prim(op, vec![lhs, rhs]);
            self.mark(lhs, start);
        }
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Tok::LIdent(_)
                | Tok::UIdent(_)
                | Tok::Int(_)
                | Tok::LParen
                | Tok::Hash
                | Tok::Kw(Kw::True)
                | Tok::Kw(Kw::False)
                | Tok::Kw(Kw::Not)
                | Tok::Kw(Kw::Print)
                | Tok::Kw(Kw::Readint)
        )
    }

    fn appexpr(&mut self) -> PResult<ExprId> {
        let start = self.pos();
        let mut head = self.atom()?;
        while self.starts_atom() {
            let arg = self.atom()?;
            head = self.b.app(head, arg);
            self.mark(head, start);
        }
        Ok(head)
    }

    fn atom(&mut self) -> PResult<ExprId> {
        self.nested(Self::atom_step)
    }

    /// `first ("," expr)*`, collected in one exact allocation.
    fn items(&mut self, first: ExprId) -> PResult<Vec<ExprId>> {
        let base = self.items.len();
        self.items.push(first);
        while self.peek() == Tok::Comma {
            self.bump();
            let item = self.expr()?;
            self.items.push(item);
        }
        let items = self.items[base..].to_vec();
        self.items.truncate(base);
        Ok(items)
    }

    fn atom_step(&mut self) -> PResult<ExprId> {
        let start = self.pos();
        match self.peek() {
            Tok::LIdent(name) => {
                self.bump();
                match self.lookup(name) {
                    Some(v) => {
                        let node = self.b.var(v);
                        Ok(self.mark(node, start))
                    }
                    None => self.err(format!("unbound variable `{name}`")),
                }
            }
            Tok::UIdent(name) => {
                self.bump();
                let con = {
                    let sym = self.b.intern(name);
                    match self.b.data_env().con_by_name(sym) {
                        Some(c) => c,
                        None => return self.err(format!("unknown constructor `{name}`")),
                    }
                };
                let arity = self.b.data_env().arity(con);
                if arity == 0 {
                    let node = self.b.con(con, Vec::new());
                    return Ok(self.mark(node, start));
                }
                self.expect(&Tok::LParen)?;
                let first = self.expr()?;
                let args = self.items(first)?;
                self.expect(&Tok::RParen)?;
                if args.len() == arity {
                    let node = self.b.con(con, args);
                    Ok(self.mark(node, start))
                } else if arity == 1 && args.len() > 1 {
                    // C(a, b) for a unary constructor takes one tuple.
                    let tuple = self.b.record(args);
                    self.mark(tuple, start);
                    let node = self.b.con(con, vec![tuple]);
                    Ok(self.mark(node, start))
                } else {
                    self.err(format!(
                        "constructor `{name}` has arity {arity}, got {} arguments",
                        args.len()
                    ))
                }
            }
            Tok::Int(n) => {
                self.bump();
                let node = self.b.int(n);
                Ok(self.mark(node, start))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                let node = self.b.bool(true);
                Ok(self.mark(node, start))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                let node = self.b.bool(false);
                Ok(self.mark(node, start))
            }
            Tok::Kw(Kw::Not) => {
                self.bump();
                let a = self.atom()?;
                let node = self.b.prim(PrimOp::Not, vec![a]);
                Ok(self.mark(node, start))
            }
            Tok::Kw(Kw::Print) => {
                self.bump();
                let a = self.atom()?;
                let node = self.b.prim(PrimOp::Print, vec![a]);
                Ok(self.mark(node, start))
            }
            Tok::Kw(Kw::Readint) => {
                self.bump();
                // Allow an optional `()` argument for readability.
                if self.peek() == Tok::LParen && self.peek2() == Tok::RParen {
                    self.bump();
                    self.bump();
                }
                let node = self.b.prim(PrimOp::ReadInt, Vec::new());
                Ok(self.mark(node, start))
            }
            Tok::Hash => {
                self.bump();
                let index = match self.peek() {
                    Tok::Int(n) if n >= 1 => match u32::try_from(n) {
                        Ok(n) => {
                            self.bump();
                            n - 1
                        }
                        Err(_) => {
                            return self.err(format!(
                                "field index `{n}` is larger than the limit of {}",
                                u32::MAX
                            ))
                        }
                    },
                    other => {
                        return self.err(format!(
                            "expected positive field index after `#`, found {other}"
                        ))
                    }
                };
                let tuple = self.atom()?;
                let node = self.b.proj(index, tuple);
                Ok(self.mark(node, start))
            }
            Tok::LParen => {
                self.bump();
                if self.peek() == Tok::RParen {
                    self.bump();
                    let node = self.b.unit();
                    return Ok(self.mark(node, start));
                }
                let first = self.expr()?;
                if self.peek() != Tok::Comma {
                    self.expect(&Tok::RParen)?;
                    // A parenthesized expression keeps its own (inner) span.
                    return Ok(first);
                }
                let items = self.items(first)?;
                self.expect(&Tok::RParen)?;
                let node = self.b.record(items);
                Ok(self.mark(node, start))
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ExprKind, Literal};

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse of {src:?} failed: {e}"),
        }
    }

    #[test]
    fn parses_self_application() {
        let p = parse_ok("(fn x => x x) (fn y => y)");
        assert_eq!(p.label_count(), 2);
        assert!(matches!(p.kind(p.root()), ExprKind::App { .. }));
    }

    #[test]
    fn application_is_left_associative() {
        let p = parse_ok("fn f => fn x => f x x");
        // body of inner lam: ((f x) x)
        let ExprKind::Lam { body: outer, .. } = p.kind(p.root()) else {
            panic!()
        };
        let ExprKind::Lam { body, .. } = p.kind(*outer) else {
            panic!()
        };
        let ExprKind::App { func, .. } = p.kind(*body) else {
            panic!()
        };
        assert!(matches!(p.kind(*func), ExprKind::App { .. }));
    }

    #[test]
    fn parses_top_level_decls() {
        let p = parse_ok(
            "fun id x = x;\n\
             val y = id id;\n\
             y",
        );
        assert!(matches!(p.kind(p.root()), ExprKind::LetRec { .. }));
    }

    #[test]
    fn fun_curries() {
        let p = parse_ok("fun k x y = x; k");
        let ExprKind::LetRec { lambda, .. } = p.kind(p.root()) else {
            panic!()
        };
        let ExprKind::Lam { body, .. } = p.kind(*lambda) else {
            panic!()
        };
        assert!(matches!(p.kind(*body), ExprKind::Lam { .. }));
    }

    #[test]
    fn parses_let_blocks() {
        let p = parse_ok("let val x = 1 fun f y = y in f x end");
        assert!(matches!(p.kind(p.root()), ExprKind::Let { .. }));
    }

    #[test]
    fn parses_datatypes_and_case() {
        let p = parse_ok(
            "datatype intlist = Nil | Cons of int * intlist;\n\
             val xs = Cons(1, Cons(2, Nil));\n\
             case xs of Cons(h, t) => h | Nil => 0",
        );
        assert_eq!(p.data_env().data_count(), 1);
        assert_eq!(p.data_env().con_count(), 2);
    }

    #[test]
    fn rejects_unbound_variable() {
        assert!(parse("x").is_err());
    }

    #[test]
    fn rejects_unknown_constructor() {
        assert!(parse("Mystery(1)").is_err());
    }

    #[test]
    fn rejects_wrong_pattern_arity() {
        let src = "datatype t = C of int; case C(1) of C => 2";
        assert!(parse(src).is_err());
    }

    #[test]
    fn shadowing_resolves_to_innermost() {
        let p = parse_ok("fn x => fn x => x");
        let ExprKind::Lam {
            param: outer_param,
            body,
            ..
        } = p.kind(p.root())
        else {
            panic!()
        };
        let ExprKind::Lam {
            param: inner_param,
            body: inner_body,
            ..
        } = p.kind(*body)
        else {
            panic!()
        };
        assert_ne!(outer_param, inner_param);
        let ExprKind::Var(v) = p.kind(*inner_body) else {
            panic!()
        };
        assert_eq!(v, inner_param);
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let p = parse_ok("1 + 2 * 3 < 10");
        let ExprKind::Prim {
            op: PrimOp::Lt,
            args,
        } = p.kind(p.root())
        else {
            panic!()
        };
        let ExprKind::Prim {
            op: PrimOp::Add,
            args: add_args,
        } = p.kind(args[0])
        else {
            panic!()
        };
        assert!(
            matches!(
                p.kind(add_args[1]),
                ExprKind::Prim {
                    op: PrimOp::Mul,
                    ..
                }
            ),
            "multiplication should bind tighter than addition"
        );
    }

    #[test]
    fn parses_records_and_projection() {
        let p = parse_ok("#1 (1, true, ())");
        let ExprKind::Proj { index, tuple } = p.kind(p.root()) else {
            panic!()
        };
        assert_eq!(*index, 0);
        let ExprKind::Record(items) = p.kind(*tuple) else {
            panic!()
        };
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn field_indices_past_u32_are_refused() {
        for src in ["#4294967296 e", "#4294967297 e"] {
            let err = parse(src).unwrap_err();
            assert_eq!((err.pos.line, err.pos.col), (1, 2), "{src}: {err}");
            assert_eq!(
                err.message,
                format!(
                    "field index `{}` is larger than the limit of 4294967295",
                    &src[1..11]
                )
            );
        }
        let p = parse_ok("#4294967295 (1, 2)");
        assert!(matches!(
            p.kind(p.root()),
            ExprKind::Proj {
                index: 4294967294,
                ..
            }
        ));
        assert!(p.to_source().starts_with("#4294967295 "));
    }

    #[test]
    fn parses_effects() {
        let p = parse_ok("print (readint + 1)");
        assert!(matches!(
            p.kind(p.root()),
            ExprKind::Prim {
                op: PrimOp::Print,
                ..
            }
        ));
    }

    #[test]
    fn val_rec_requires_fn() {
        assert!(parse("val rec f = 1; f").is_err());
        assert!(parse("val rec f = fn x => f x; f").is_ok());
    }

    #[test]
    fn empty_program_is_unit() {
        let p = parse_ok("");
        assert!(matches!(p.kind(p.root()), ExprKind::Lit(Literal::Unit)));
    }

    #[test]
    fn comments_are_ignored() {
        let p = parse_ok("(* a comment *) 42 -- trailing");
        assert!(matches!(p.kind(p.root()), ExprKind::Lit(Literal::Int(42))));
    }

    #[test]
    fn unary_constructor_with_tuple_sugar() {
        let p = parse_ok("datatype t = Boxed of (int * bool); Boxed(1, true)");
        let ExprKind::Con { args, .. } = p.kind(p.root()) else {
            panic!()
        };
        assert_eq!(args.len(), 1);
        assert!(matches!(p.kind(args[0]), ExprKind::Record(_)));
    }

    #[test]
    fn if_then_else() {
        let p = parse_ok("if 1 < 2 then 3 else 4");
        assert!(matches!(p.kind(p.root()), ExprKind::If { .. }));
    }

    #[test]
    fn reports_position() {
        let err = parse("fn x =>\n  y").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }

    const EVEN_ODD: &str = "\
        fun even n = if n = 0 then true else odd (n - 1)\n\
        and odd n = if n = 0 then false else even (n - 1);\n\
        even 10";

    #[test]
    fn parses_mutual_recursion() {
        let p = parse_ok(EVEN_ODD);
        // The desugaring introduces the pack letrec at the root.
        assert!(matches!(p.kind(p.root()), ExprKind::LetRec { .. }));
    }

    #[test]
    fn mutual_recursion_evaluates() {
        use crate::eval::{eval, EvalOptions, Value};
        let p = parse_ok(EVEN_ODD);
        let out = eval(&p, EvalOptions::default()).unwrap();
        assert!(matches!(out.value, Value::Bool(true)));
        let p2 = parse_ok(&EVEN_ODD.replace("even 10", "odd 10"));
        let out2 = eval(&p2, EvalOptions::default()).unwrap();
        assert!(matches!(out2.value, Value::Bool(false)));
    }

    #[test]
    fn three_way_mutual_group() {
        use crate::eval::{eval, EvalOptions, Value};
        let src = "\
            fun a n = if n = 0 then 0 else b (n - 1)\n\
            and b n = if n = 0 then 1 else c (n - 1)\n\
            and c n = if n = 0 then 2 else a (n - 1);\n\
            a 7";
        let p = parse_ok(src);
        // a 7 → b 6 → c 5 → a 4 → b 3 → c 2 → a 1 → b 0 = 1.
        let out = eval(&p, EvalOptions::default()).unwrap();
        assert!(matches!(out.value, Value::Int(1)));
    }

    #[test]
    fn and_inside_nested_let_blocks_is_scoped_correctly() {
        use crate::eval::{eval, EvalOptions, Value};
        // The outer group's first body contains a nested single `fun`
        // inside a let-block; the scanner must not treat the nested
        // declarations as group members.
        let src = "\
            fun outer n =\n\
              let fun helper k = k * 2 in\n\
                if n = 0 then helper 1 else partner (n - 1)\n\
              end\n\
            and partner n = outer n + 1;\n\
            outer 2";
        let p = parse_ok(src);
        // outer 2 → partner 1 → outer 1 + 1 → (partner 0) + 1 → (outer 0 + 1) + 1
        //        → (helper 1 + 1) + 1 = 4.
        let out = eval(&p, EvalOptions::default()).unwrap();
        assert!(matches!(out.value, Value::Int(4)));
    }

    #[test]
    fn mutual_recursion_in_let_blocks() {
        use crate::eval::{eval, EvalOptions, Value};
        let src = "\
            let fun ping n = if n = 0 then 1 else pong (n - 1)\n\
                and pong n = if n = 0 then 2 else ping (n - 1)\n\
            in ping 3 end";
        let p = parse_ok(src);
        let out = eval(&p, EvalOptions::default()).unwrap();
        assert!(matches!(out.value, Value::Int(2)));
    }

    #[test]
    fn and_group_round_trips_through_pretty() {
        let p = parse_ok(EVEN_ODD);
        let printed = p.to_source();
        let q = parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(p.size(), q.size());
    }

    #[test]
    fn and_requires_function_name() {
        assert!(parse("fun f x = x and 3 y = y; 0").is_err());
    }

    #[test]
    fn every_node_carries_a_span() {
        let srcs = [
            "fun fact n = if n = 0 then 1 else n * fact (n - 1); fact 5",
            EVEN_ODD,
            "let val p = (1, true) in #1 p end",
            "datatype shape = Circle of int | Square of int;\n\
             case Circle(3) of Circle(r) => r | Square(s) => s",
            "fun twice f x = f (f x); twice (fn y => y + 1) 0",
        ];
        for src in srcs {
            let p = parse_ok(src);
            for e in p.exprs() {
                assert!(
                    p.span(e).is_some(),
                    "expr {:?} ({:?}) has no span in {src:?}",
                    e,
                    p.kind(e)
                );
            }
        }
    }

    #[test]
    fn spans_report_source_positions() {
        // The root letrec spans the whole program; the `fact 5` application
        // starts at the `fact` occurrence (col 17) and ends after the `5`.
        let src = "fun fact n = n; fact 5";
        let p = parse_ok(src);
        let root_span = p.span(p.root()).expect("root span");
        assert_eq!((root_span.start.line, root_span.start.col), (1, 1));
        assert_eq!(root_span.end.col, 23);
        let app = p
            .exprs()
            .find(|&e| matches!(p.kind(e), ExprKind::App { .. }))
            .expect("app node");
        let span = p.span(app).expect("app span");
        assert_eq!((span.start.line, span.start.col), (1, 17));
        assert_eq!(span.end.col, 23);
    }

    #[test]
    fn desugared_nodes_inherit_binding_spans() {
        // Curried `fun` bindings desugar into nested lambdas that have no
        // direct token; they inherit the binding's overall span.
        let src = "fun add a b = a + b; add 1 2";
        let p = parse_ok(src);
        for e in p.exprs() {
            let span = p.span(e).unwrap();
            assert!(span.start.line >= 1 && span.start.col >= 1);
        }
    }

    /// Runs `f` on a thread with room for debug-build parser frames at the
    /// nesting limit (a release build needs about a fifth of this).
    fn with_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("test thread");
    }

    fn tree_height(p: &Program) -> usize {
        let mut heights = vec![0usize; p.size()];
        for e in p.exprs() {
            let mut below = 0;
            p.for_each_child(e, |c| below = below.max(heights[c.index()]));
            heights[e.index()] = below + 1;
        }
        heights[p.root().index()]
    }

    fn assert_refused(result: Result<Program, ParseError>, limit: usize) {
        let err = result.expect_err("input past the limit must not parse");
        assert!(
            err.message.contains(&format!("limit of {limit} levels")),
            "{err}"
        );
    }

    fn assert_too_deep(result: Result<Program, ParseError>) {
        assert_refused(result, MAX_NESTING);
    }

    fn assert_too_tall(result: Result<Program, ParseError>) {
        assert_refused(result, MAX_HEIGHT);
    }

    #[test]
    fn parser_recursion_at_the_limit_parses_and_one_level_more_fails() {
        with_stack(|| {
            // `not` recurses atom → atom: n prefixes open the expression,
            // n atoms and the operand's atom, n + 2 levels.
            let nots = |n: usize| format!("{}true", "not ".repeat(n));
            let p = parse(&nots(MAX_NESTING - 2)).unwrap();
            assert_eq!(tree_height(&p), MAX_NESTING - 1);
            assert_too_deep(parse(&nots(MAX_NESTING - 1)));
            // `fn` recurses expression → expression: n + 2 levels again.
            let fns = |n: usize| format!("{}x", "fn x => ".repeat(n));
            assert!(parse(&fns(MAX_NESTING - 2)).is_ok());
            assert_too_deep(parse(&fns(MAX_NESTING - 1)));
            // A parenthesized expression is an atom and an expression.
            let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
            assert!(parse(&parens(MAX_NESTING / 2 - 1)).is_ok());
            assert_too_deep(parse(&parens(MAX_NESTING / 2)));
            // Type expressions nest through `tyarg`: n parentheses open
            // n + 1 levels.
            let ty =
                |n: usize| format!("datatype t = A of {}int{}; 1", "(".repeat(n), ")".repeat(n));
            assert!(parse(&ty(MAX_NESTING - 1)).is_ok());
            assert_too_deep(parse(&ty(MAX_NESTING)));
            let arrows = |n: usize| format!("datatype t = A of {}int; 1", "int -> ".repeat(n));
            assert!(parse(&arrows(MAX_NESTING - 1)).is_ok());
            assert_too_deep(parse(&arrows(MAX_NESTING)));
        });
    }

    #[test]
    fn tree_height_at_the_limit_parses_and_one_level_more_fails() {
        with_stack(|| {
            // n top-level declarations desugar into a chain of n `let`s
            // over the body: height n + 1, parsed by a loop.
            let vals = |n: usize| format!("{}x", "val x = 1;\n".repeat(n));
            let p = parse(&vals(MAX_HEIGHT - 1)).unwrap();
            assert_eq!(tree_height(&p), MAX_HEIGHT);
            assert_too_tall(parse(&vals(MAX_HEIGHT)));
            // k curried parameters: k lambdas and the body under a
            // `letrec`, height k + 2.
            let curried = |k: usize| {
                let params: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
                format!("fun f {} = x0;\nf", params.join(" "))
            };
            let p = parse(&curried(MAX_HEIGHT - 2)).unwrap();
            assert_eq!(tree_height(&p), MAX_HEIGHT);
            assert_too_tall(parse(&curried(MAX_HEIGHT - 1)));
            // Application spines and operator chains are built by loops.
            let spine = |n: usize| format!("fun f x = x;\nf{}", " 1".repeat(n));
            assert!(parse(&spine(MAX_HEIGHT - 2)).is_ok());
            assert_too_tall(parse(&spine(MAX_HEIGHT - 1)));
            let sums = |n: usize| format!("1{}", " + 1".repeat(n));
            assert!(parse(&sums(MAX_HEIGHT - 1)).is_ok());
            assert_too_tall(parse(&sums(MAX_HEIGHT)));
            // Recursion and loops stack: a `not` chain at the parser's
            // limit under a declaration chain that makes the tree exactly
            // as tall as allowed.
            let mixed = |n: usize| {
                format!(
                    "{}{}true",
                    "val x = 1;\n".repeat(n),
                    "not ".repeat(MAX_NESTING - 2)
                )
            };
            let p = parse(&mixed(MAX_HEIGHT - MAX_NESTING + 1)).unwrap();
            assert_eq!(tree_height(&p), MAX_HEIGHT);
            assert_too_tall(parse(&mixed(MAX_HEIGHT - MAX_NESTING + 2)));
        });
    }

    #[test]
    fn far_too_deep_input_fails_at_the_limit() {
        with_stack(|| {
            for src in [
                format!("{}fn x => x{}", "(".repeat(100_000), ")".repeat(100_000)),
                format!("{}x", "fn x => ".repeat(100_000)),
                format!("{}true", "not ".repeat(100_000)),
            ] {
                assert_too_deep(parse(&src));
            }
            for src in [
                format!("{}x", "val x = 1;\n".repeat(100_000)),
                format!("1{}", " + 1".repeat(100_000)),
            ] {
                assert_too_tall(parse(&src));
            }
        });
    }

    #[test]
    fn session_fragments_are_bounded_too() {
        with_stack(|| {
            let mut program = parse("0").unwrap();
            let deep = format!("val v = {}1{};", "(".repeat(100_000), ")".repeat(100_000));
            let mut scope = Scope::default();
            let err = parse_fragment(&mut program, &mut scope, &deep).unwrap_err();
            assert!(err.message.contains("limit"), "{err}");
            let tall = format!("val v = 1{};", " + 1".repeat(100_000));
            let err = parse_fragment(&mut program, &mut scope, &tall).unwrap_err();
            assert!(err.message.contains("limit"), "{err}");
            // The arena still takes a fragment within the limit.
            let ok = parse_fragment(&mut program, &mut scope, "val w = 2;").unwrap();
            assert_eq!(ok.bindings.len(), 1);
        });
    }
}
