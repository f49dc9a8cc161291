//! Pretty-printing back to surface syntax.
//!
//! The output of [`pretty`] re-parses to a structurally identical program
//! (same tree shape, labels and binder structure; ids may be renumbered),
//! which the round-trip tests rely on. Binder names are disambiguated with
//! a numeric suffix when a source name is reused.
//!
//! The usual form parenthesizes defensively, which costs the parser
//! levels of recursion the source may not have spent. When that form
//! would nest past [`MAX_NESTING`], the program prints *flat*: a
//! projection of a projection drops its parentheses (`#1 #1 x`), a
//! `case`'s last arm drops the ones around its body, and every `let`
//! chain prints as one block — so a program the parser accepted always
//! prints as text it accepts again.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ast::{ExprId, ExprKind, Literal, PrimOp, Program, TyExpr, VarId};
use crate::parser::MAX_NESTING;

/// Precedence levels, loosest (0) to tightest (5 = atom).
const LVL_EXPR: u8 = 0;
const LVL_CMP: u8 = 1;
const LVL_ADD: u8 = 2;
const LVL_MUL: u8 = 3;
const LVL_APP: u8 = 4;
const LVL_ATOM: u8 = 5;

/// A chain of directly nested `let`s longer than this prints as one
/// `let` block. Nested `let ... in` text costs the parser a level of
/// recursion per binding, and a declaration chain the parser built by a
/// loop can be far longer than it may nest; a block's declarations are
/// read by a loop again. Shorter chains keep the nested form.
const LONG_CHAIN: usize = MAX_NESTING / 2;

/// Renders `program` as parseable surface syntax, including its `datatype`
/// declarations.
pub fn pretty(program: &Program) -> String {
    let names = binder_names(program);
    let mut out = String::new();
    let env = program.data_env();
    for d in env.datas() {
        let info = env.data(d);
        write!(out, "datatype {} = ", program.interner().resolve(info.name)).unwrap();
        for (i, &c) in info.cons.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let con = env.con(c);
            out.push_str(program.interner().resolve(con.name));
            if !con.arg_tys.is_empty() {
                out.push_str(" of ");
                for (j, t) in con.arg_tys.iter().enumerate() {
                    if j > 0 {
                        out.push_str(" * ");
                    }
                    ty_expr(program, t, &mut out);
                }
            }
        }
        out.push_str(";\n");
    }
    let mut p = Printer {
        program,
        names: &names,
        out,
        flat: false,
    };
    p.flat = p.nesting(program.root(), LVL_EXPR, Entry::Expr) > MAX_NESTING;
    p.expr(program.root(), LVL_EXPR);
    p.out
}

/// How the parser reaches a printed subexpression: through `expr` or
/// `atom`, one level each, or as an operand of an operator or an
/// application spine, which opens no level before the operand's first
/// atom.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Entry {
    Expr,
    Atom,
    Op,
}

fn ty_expr(program: &Program, t: &TyExpr, out: &mut String) {
    match t {
        TyExpr::Int => out.push_str("int"),
        TyExpr::Bool => out.push_str("bool"),
        TyExpr::Unit => out.push_str("unit"),
        TyExpr::Data(d) => {
            out.push_str(program.interner().resolve(program.data_env().data(*d).name))
        }
        TyExpr::Arrow(a, b) => {
            out.push('(');
            ty_expr(program, a, out);
            out.push_str(" -> ");
            ty_expr(program, b, out);
            out.push(')');
        }
        TyExpr::Tuple(parts) => {
            out.push('(');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" * ");
                }
                ty_expr(program, p, out);
            }
            out.push(')');
        }
    }
}

/// Chooses a printable, collision-free name for every binder.
fn binder_names(program: &Program) -> Vec<String> {
    const KEYWORDS: &[&str] = &[
        "fn", "fun", "val", "rec", "let", "in", "end", "if", "then", "else", "case", "of",
        "datatype", "true", "false", "not", "print", "readint", "div", "and", "int", "bool",
        "unit",
    ];
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for v in program.vars() {
        *counts.entry(program.var_name(v)).or_default() += 1;
    }
    program
        .vars()
        .map(|v| {
            let raw = program.var_name(v);
            let base: String = if raw.is_empty()
                || raw.starts_with(|c: char| !c.is_ascii_lowercase())
                || KEYWORDS.contains(&raw)
                || !raw
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'')
            {
                format!("v_{raw}")
                    .chars()
                    .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect()
            } else {
                raw.to_owned()
            };
            if counts.get(raw).copied().unwrap_or(0) > 1 || base != raw {
                format!("{base}_{}", v.index())
            } else {
                base
            }
        })
        .collect()
}

struct Printer<'a> {
    program: &'a Program,
    names: &'a [String],
    out: String,
    /// Print the flat forms (see the module docs).
    flat: bool,
}

impl Printer<'_> {
    fn name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    fn paren(&mut self, needed: bool, f: impl FnOnce(&mut Self)) {
        if needed {
            self.out.push('(');
        }
        f(self);
        if needed {
            self.out.push(')');
        }
    }

    /// The number of directly nested `let`s and `letrec`s from `id` down
    /// its bodies, up to one more than [`LONG_CHAIN`].
    fn chain(&self, mut id: ExprId) -> usize {
        let mut n = 0;
        while n <= LONG_CHAIN {
            match self.program.kind(id) {
                ExprKind::Let { body, .. } | ExprKind::LetRec { body, .. } => id = *body,
                _ => break,
            }
            n += 1;
        }
        n
    }

    /// Whether the `let` chain at `id` prints as one block.
    fn as_block(&self, id: ExprId) -> bool {
        self.flat || self.chain(id) > LONG_CHAIN
    }

    /// The level a projection's operand prints at: flat, a projection of
    /// a projection needs no parentheses (`#1 #2 x` reads as
    /// `#1 (#2 x)`).
    fn proj_operand(&self, tuple: ExprId) -> u8 {
        if self.flat && matches!(self.program.kind(tuple), ExprKind::Proj { .. }) {
            LVL_APP
        } else {
            LVL_ATOM
        }
    }

    /// The level a `not` or `print` operand prints at. `not print x`
    /// reads as `not (print x)`: an operand that is itself `not` or
    /// `print` needs no parentheses, which would cost the parser two more
    /// levels per operator.
    fn prefix_operand(&self, arg: ExprId) -> u8 {
        let prefix = matches!(
            self.program.kind(arg),
            ExprKind::Prim {
                op: PrimOp::Not | PrimOp::Print,
                ..
            }
        );
        if prefix {
            LVL_APP
        } else {
            LVL_ATOM
        }
    }

    /// The level an arm body prints at. Flat, the last arm (with no
    /// wildcard after it) has nothing left to swallow, so its body needs
    /// no parentheses.
    fn arm_lvl(&self, last: bool) -> u8 {
        if self.flat && last {
            LVL_EXPR
        } else {
            LVL_CMP
        }
    }

    /// Whether `id` printed at `min_lvl` is parenthesized: the one rule
    /// [`Printer::expr`] prints by and [`Printer::nesting`] counts by.
    fn parenthesized(&self, id: ExprId, min_lvl: u8) -> bool {
        match self.program.kind(id) {
            ExprKind::Lit(Literal::Int(n)) => *n < 0 && min_lvl > LVL_ADD,
            ExprKind::Lam { .. }
            | ExprKind::Let { .. }
            | ExprKind::LetRec { .. }
            | ExprKind::If { .. }
            | ExprKind::Case { .. } => min_lvl > LVL_EXPR,
            ExprKind::App { .. } | ExprKind::Proj { .. } => min_lvl > LVL_APP,
            ExprKind::Prim { op, .. } => match op {
                PrimOp::Add | PrimOp::Sub => min_lvl > LVL_ADD,
                PrimOp::Mul | PrimOp::Div => min_lvl > LVL_MUL,
                PrimOp::Lt | PrimOp::Leq | PrimOp::IntEq => min_lvl > LVL_CMP,
                PrimOp::Not | PrimOp::Print => min_lvl > LVL_APP,
                PrimOp::ReadInt => false,
            },
            _ => false,
        }
    }

    /// How many levels of parser recursion the text [`Printer::expr`]
    /// prints for `id` at `min_lvl` opens, when the parser reaches it by
    /// `entry`. Mirrors `expr` case by case; `pretty` compares the
    /// root's count with [`MAX_NESTING`] to choose the flat forms.
    fn nesting(&self, id: ExprId, min_lvl: u8, entry: Entry) -> usize {
        let expr = |e: ExprId| self.nesting(e, LVL_EXPR, Entry::Expr);
        if self.parenthesized(id, min_lvl) {
            // `(` is an atom, and `expr` parses what it holds.
            let atom = if entry == Entry::Expr { 2 } else { 1 };
            return atom + expr(id);
        }
        let program = self.program;
        let keyword = match program.kind(id) {
            ExprKind::Lam { body, .. } => Some(expr(*body)),
            ExprKind::Let { .. } | ExprKind::LetRec { .. } if self.as_block(id) => {
                let mut deepest = 0;
                let mut at = id;
                loop {
                    match *program.kind(at) {
                        ExprKind::Let { rhs, body, .. } => {
                            deepest = deepest.max(expr(rhs));
                            at = body;
                        }
                        ExprKind::LetRec { lambda, body, .. } => {
                            deepest = deepest.max(expr(lambda));
                            at = body;
                        }
                        _ => break,
                    }
                }
                Some(deepest.max(expr(at)))
            }
            ExprKind::Let { rhs, body, .. } => Some(expr(*rhs).max(expr(*body))),
            ExprKind::LetRec { lambda, body, .. } => Some(expr(*lambda).max(expr(*body))),
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => Some(expr(*cond).max(expr(*then_branch)).max(expr(*else_branch))),
            ExprKind::Case {
                scrutinee,
                arms,
                default,
            } => {
                let mut deepest = expr(*scrutinee).max(default.map_or(0, expr));
                for (i, arm) in arms.iter().enumerate() {
                    let last = i + 1 == arms.len() && default.is_none();
                    deepest = deepest.max(self.nesting(arm.body, self.arm_lvl(last), Entry::Expr));
                }
                Some(deepest)
            }
            _ => None,
        };
        // Keyword forms print unparenthesized only where `expr` parses
        // them; everything else sits below `cmp`, and `expr` spends a
        // level on the way down.
        let levels = if entry == Entry::Expr { 1 } else { 0 };
        if let Some(inner) = keyword {
            return levels + inner;
        }
        levels
            + match program.kind(id) {
                ExprKind::App { func, arg } => self
                    .nesting(*func, LVL_APP, Entry::Op)
                    .max(self.nesting(*arg, LVL_ATOM, Entry::Atom)),
                ExprKind::Prim { op, args } => match op {
                    PrimOp::Add | PrimOp::Sub => self
                        .nesting(args[0], LVL_ADD, Entry::Op)
                        .max(self.nesting(args[1], LVL_MUL, Entry::Op)),
                    PrimOp::Mul | PrimOp::Div => self
                        .nesting(args[0], LVL_MUL, Entry::Op)
                        .max(self.nesting(args[1], LVL_APP, Entry::Op)),
                    PrimOp::Lt | PrimOp::Leq | PrimOp::IntEq => self
                        .nesting(args[0], LVL_ADD, Entry::Op)
                        .max(self.nesting(args[1], LVL_ADD, Entry::Op)),
                    PrimOp::Not | PrimOp::Print => {
                        1 + self.nesting(args[0], self.prefix_operand(args[0]), Entry::Atom)
                    }
                    PrimOp::ReadInt => 1,
                },
                ExprKind::Record(items) => 1 + items.iter().map(|&e| expr(e)).max().unwrap_or(0),
                ExprKind::Con { args, .. } => 1 + args.iter().map(|&e| expr(e)).max().unwrap_or(0),
                ExprKind::Proj { tuple, .. } => {
                    1 + self.nesting(*tuple, self.proj_operand(*tuple), Entry::Atom)
                }
                // A variable, a literal, or `0 - n`: atoms only.
                _ => 1,
            }
    }

    /// `let val x = e … val rec f = fn … in body end` for the whole chain
    /// of `let`s and `letrec`s from `id`.
    fn let_block(&mut self, mut id: ExprId) {
        self.out.push_str("let");
        loop {
            let (binder, rhs, body, rec) = match *self.program.kind(id) {
                ExprKind::Let { binder, rhs, body } => (binder, rhs, body, ""),
                ExprKind::LetRec {
                    binder,
                    lambda,
                    body,
                } => (binder, lambda, body, "rec "),
                _ => break,
            };
            let name = self.name(binder).to_owned();
            write!(self.out, " val {rec}{name} = ").unwrap();
            self.expr(rhs, LVL_EXPR);
            id = body;
        }
        self.out.push_str(" in ");
        self.expr(id, LVL_EXPR);
        self.out.push_str(" end");
    }

    fn expr(&mut self, id: ExprId, min_lvl: u8) {
        let program = self.program;
        let paren = self.parenthesized(id, min_lvl);
        match program.kind(id) {
            ExprKind::Var(v) => {
                let name = self.name(*v).to_owned();
                self.out.push_str(&name);
            }
            ExprKind::Lit(Literal::Int(n)) => {
                if *n < 0 {
                    // Negative literals need parens under application/ops.
                    self.paren(paren, |p| {
                        write!(p.out, "0 - {}", n.unsigned_abs()).unwrap()
                    });
                } else {
                    write!(self.out, "{n}").unwrap();
                }
            }
            ExprKind::Lit(Literal::Bool(b)) => write!(self.out, "{b}").unwrap(),
            ExprKind::Lit(Literal::Unit) => self.out.push_str("()"),
            ExprKind::Lam { param, body, .. } => {
                let param = *param;
                let body = *body;
                self.paren(paren, |p| {
                    let name = p.name(param).to_owned();
                    write!(p.out, "fn {name} => ").unwrap();
                    p.expr(body, LVL_EXPR);
                });
            }
            ExprKind::App { func, arg } => {
                let (func, arg) = (*func, *arg);
                self.paren(paren, |p| {
                    p.expr(func, LVL_APP);
                    p.out.push(' ');
                    p.expr(arg, LVL_ATOM);
                });
            }
            ExprKind::Let { .. } | ExprKind::LetRec { .. } if self.as_block(id) => {
                self.paren(paren, |p| p.let_block(id));
            }
            ExprKind::Let { binder, rhs, body } => {
                let (binder, rhs, body) = (*binder, *rhs, *body);
                self.paren(paren, |p| {
                    let name = p.name(binder).to_owned();
                    write!(p.out, "let val {name} = ").unwrap();
                    p.expr(rhs, LVL_EXPR);
                    p.out.push_str(" in ");
                    p.expr(body, LVL_EXPR);
                    p.out.push_str(" end");
                });
            }
            ExprKind::LetRec {
                binder,
                lambda,
                body,
            } => {
                let (binder, lambda, body) = (*binder, *lambda, *body);
                self.paren(paren, |p| {
                    let name = p.name(binder).to_owned();
                    write!(p.out, "let val rec {name} = ").unwrap();
                    p.expr(lambda, LVL_EXPR);
                    p.out.push_str(" in ");
                    p.expr(body, LVL_EXPR);
                    p.out.push_str(" end");
                });
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let (c, t, e) = (*cond, *then_branch, *else_branch);
                self.paren(paren, |p| {
                    p.out.push_str("if ");
                    p.expr(c, LVL_EXPR);
                    p.out.push_str(" then ");
                    p.expr(t, LVL_EXPR);
                    p.out.push_str(" else ");
                    p.expr(e, LVL_EXPR);
                });
            }
            ExprKind::Record(items) => {
                let items: Vec<ExprId> = items.to_vec();
                self.out.push('(');
                for (i, e) in items.into_iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e, LVL_EXPR);
                }
                self.out.push(')');
            }
            ExprKind::Proj { index, tuple } => {
                let (index, tuple) = (*index, *tuple);
                let lvl = self.proj_operand(tuple);
                self.paren(paren, |p| {
                    write!(p.out, "#{} ", u64::from(index) + 1).unwrap();
                    p.expr(tuple, lvl);
                });
            }
            ExprKind::Con { con, args } => {
                let name = self
                    .program
                    .interner()
                    .resolve(self.program.data_env().con(*con).name)
                    .to_owned();
                let args: Vec<ExprId> = args.to_vec();
                self.out.push_str(&name);
                if !args.is_empty() {
                    self.out.push('(');
                    for (i, a) in args.into_iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.expr(a, LVL_EXPR);
                    }
                    self.out.push(')');
                }
            }
            ExprKind::Case {
                scrutinee,
                arms,
                default,
            } => {
                let scrutinee = *scrutinee;
                let arms = arms.clone();
                let default = *default;
                self.paren(paren, |p| {
                    p.out.push_str("case ");
                    p.expr(scrutinee, LVL_EXPR);
                    p.out.push_str(" of ");
                    for (i, arm) in arms.iter().enumerate() {
                        if i > 0 {
                            p.out.push_str(" | ");
                        }
                        let name = p
                            .program
                            .interner()
                            .resolve(p.program.data_env().con(arm.con).name)
                            .to_owned();
                        p.out.push_str(&name);
                        if !arm.binders.is_empty() {
                            p.out.push('(');
                            for (j, &b) in arm.binders.iter().enumerate() {
                                if j > 0 {
                                    p.out.push_str(", ");
                                }
                                let n = p.name(b).to_owned();
                                p.out.push_str(&n);
                            }
                            p.out.push(')');
                        }
                        p.out.push_str(" => ");
                        // Arm bodies that are themselves case/fn would
                        // swallow following `|`; parenthesize defensively.
                        let last = i + 1 == arms.len() && default.is_none();
                        p.expr(arm.body, p.arm_lvl(last));
                    }
                    if let Some(d) = default {
                        if !arms.is_empty() {
                            p.out.push_str(" | ");
                        }
                        p.out.push_str("_ => ");
                        p.expr(d, LVL_EXPR);
                    }
                });
            }
            ExprKind::Prim { op, args } => {
                let op = *op;
                let args: Vec<ExprId> = args.to_vec();
                match op {
                    PrimOp::Add | PrimOp::Sub => self.paren(paren, |p| {
                        p.expr(args[0], LVL_ADD);
                        write!(p.out, " {} ", op.name()).unwrap();
                        p.expr(args[1], LVL_MUL);
                    }),
                    PrimOp::Mul | PrimOp::Div => self.paren(paren, |p| {
                        p.expr(args[0], LVL_MUL);
                        write!(p.out, " {} ", op.name()).unwrap();
                        p.expr(args[1], LVL_APP);
                    }),
                    PrimOp::Lt | PrimOp::Leq | PrimOp::IntEq => self.paren(paren, |p| {
                        p.expr(args[0], LVL_ADD);
                        write!(p.out, " {} ", op.name()).unwrap();
                        p.expr(args[1], LVL_ADD);
                    }),
                    PrimOp::Not | PrimOp::Print => self.paren(paren, |p| {
                        write!(p.out, "{} ", op.name()).unwrap();
                        p.expr(args[0], p.prefix_operand(args[0]));
                    }),
                    PrimOp::ReadInt => self.out.push_str("readint"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Structural equality of two programs up to id renumbering: compare
    /// pretty-printed normal forms after one round trip.
    fn round_trip(src: &str) {
        let p1 = parse(src).unwrap_or_else(|e| panic!("{e}"));
        let printed1 = pretty(&p1);
        let p2 = parse(&printed1).unwrap_or_else(|e| panic!("re-parse of {printed1:?}: {e}"));
        let printed2 = pretty(&p2);
        assert_eq!(
            printed1, printed2,
            "pretty is not a normal form for {src:?}"
        );
        assert_eq!(p1.size(), p2.size(), "round trip changed size for {src:?}");
        assert_eq!(p1.label_count(), p2.label_count());
    }

    #[test]
    fn round_trips_lambda_core() {
        round_trip("(fn x => x x) (fn y => y)");
        round_trip("fn f => fn x => f (f x)");
        round_trip("let val x = 1 in x + x end");
    }

    #[test]
    fn round_trips_arith_precedence() {
        round_trip("1 + 2 * 3 - 4 div 2");
        round_trip("(1 + 2) * 3");
        round_trip("1 < 2");
        round_trip("not (1 = 2)");
    }

    #[test]
    fn round_trips_declarations() {
        round_trip("fun id x = x; val y = id id; y");
        round_trip("fun k x y = x; k 1 2");
        round_trip("val rec loop = fn x => loop x; loop");
    }

    #[test]
    fn round_trips_datatypes() {
        round_trip(
            "datatype intlist = Nil | Cons of int * intlist;\n\
             fun sum xs = case xs of Cons(h, t) => h + sum t | Nil => 0;\n\
             sum (Cons(1, Cons(2, Nil)))",
        );
    }

    #[test]
    fn round_trips_records_and_effects() {
        round_trip("#2 (1, (2, 3))");
        round_trip("print (readint + 1)");
        round_trip("(fn p => #1 p) (1, true)");
    }

    #[test]
    fn round_trips_shadowing() {
        round_trip("fn x => fn x => x x");
        round_trip("let val x = 1 in let val x = 2 in x end end");
    }

    #[test]
    fn round_trips_if() {
        round_trip("if true then 1 else 2");
        round_trip("(if true then fn x => x else fn y => y) 3");
    }
}
