//! Incremental (REPL-style) program growth.
//!
//! A [`SessionProgram`] accumulates *fragments* — batches of top-level
//! declarations and/or a value expression — into one append-only arena.
//! Names defined by earlier fragments are visible to later ones (with
//! shadowing); each fragment's trees are validated on entry. Unlike
//! [`crate::Program`]'s single rooted tree, a session is a *forest*: one
//! root per binding right-hand side and per value expression, plus a
//! table of session bindings. The subtransitive analysis is flow-based and
//! never needs a distinguished root, which is what makes the paper's
//! "incremental" remark practical: see `stcfa-core`'s `IncrementalAnalysis`.

use crate::ast::{ExprId, Program, VarId};
use crate::parser::{parse_fragment, ParseError, Scope};

/// One accepted fragment: what it defined, and its value expression.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Bindings introduced, in order.
    pub bindings: Vec<SessionBinding>,
    /// The trailing value expression, if the fragment had one.
    pub value: Option<ExprId>,
}

/// A top-level session binding.
#[derive(Clone, Debug)]
pub struct SessionBinding {
    /// Source name.
    pub name: String,
    /// The binder (referenced by later fragments).
    pub binder: VarId,
    /// The bound expression.
    pub rhs: ExprId,
    /// Whether the binding is recursive (`fun` / `val rec`).
    pub recursive: bool,
}

/// An append-only program plus its top-level scope.
#[derive(Clone, Debug)]
pub struct SessionProgram {
    program: Program,
    /// Latest binder for each top-level name, by symbol, with the
    /// journal that restores shadowed bindings on rewind.
    scope: Scope,
    /// All session bindings in definition order.
    bindings: Vec<SessionBinding>,
    /// Value expressions of fragments, in order.
    values: Vec<ExprId>,
}

/// A rewind point for a [`SessionProgram`] (see [`SessionProgram::mark`]).
///
/// Everything a fragment adds — expressions, binders, labels, datatype
/// declarations, interned symbols, scope entries — is appended, so a mark
/// is just the extent of each table.
#[derive(Clone, Copy, Debug)]
pub struct SessionMark {
    exprs: usize,
    vars: usize,
    labels: usize,
    datatypes: usize,
    cons: usize,
    interned: usize,
    bindings: usize,
    values: usize,
    scope_log: usize,
    root: ExprId,
}

impl Default for SessionProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionProgram {
    /// Creates an empty session.
    pub fn new() -> SessionProgram {
        let program = crate::builder::ProgramBuilder::new().finish_unchecked(None);
        SessionProgram {
            program,
            scope: Scope::default(),
            bindings: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The current (forest) program. Its `root()` is meaningless; use the
    /// fragment records instead.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// All bindings defined so far.
    pub fn bindings(&self) -> &[SessionBinding] {
        &self.bindings
    }

    /// Looks up a top-level name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.scope.lookup(self.program.interner.get(name)?)
    }

    /// The session's current extent, for [`SessionProgram::rewind`].
    pub fn mark(&self) -> SessionMark {
        SessionMark {
            exprs: self.program.size(),
            vars: self.program.var_count(),
            labels: self.program.label_count(),
            datatypes: self.program.data.data_count(),
            cons: self.program.data.con_count(),
            interned: self.program.interner.len(),
            bindings: self.bindings.len(),
            values: self.values.len(),
            scope_log: self.scope.journal_len(),
            root: self.program.root(),
        }
    }

    /// Rewinds the session to an earlier [`SessionMark`], exactly
    /// undoing every fragment defined since: the arena, scope, binding
    /// and value tables are restored, and a replay of the same sources
    /// rebuilds a byte-identical arena. `mark` must come from this
    /// session and must not predate an earlier rewind's target.
    pub fn rewind(&mut self, mark: SessionMark) {
        self.scope.rewind(mark.scope_log);
        self.bindings.truncate(mark.bindings);
        self.values.truncate(mark.values);
        self.program.rewind(
            mark.exprs,
            mark.vars,
            mark.labels,
            mark.datatypes,
            mark.cons,
            mark.interned,
            mark.root,
        );
    }

    /// Parses and appends one fragment (declarations and/or an
    /// expression). On error the session is unchanged. The work is
    /// proportional to the fragment, not to the session: the scope is
    /// kept by symbol across fragments, and only the new trees are
    /// validated.
    pub fn define(&mut self, source: &str) -> Result<Fragment, ParseError> {
        // Parse in place — fragment parsing only ever appends — and
        // rewind on error, so failures cannot corrupt the arena and the
        // success path never clones it.
        let mark = self.mark();
        let raw = match parse_fragment(&mut self.program, &mut self.scope, source) {
            Ok(raw) => raw,
            Err(e) => {
                self.rewind(mark);
                return Err(e);
            }
        };
        let fragment = Fragment {
            bindings: raw
                .bindings
                .into_iter()
                .map(|b| SessionBinding {
                    name: b.name,
                    binder: b.binder,
                    rhs: b.rhs,
                    recursive: b.recursive,
                })
                .collect(),
            value: raw.value,
        };
        self.bindings.extend(fragment.bindings.iter().cloned());
        self.values.extend(raw.value);
        Ok(fragment)
    }

    /// Value expressions of all fragments so far.
    pub fn values(&self) -> &[ExprId] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defines_and_references_across_fragments() {
        let mut s = SessionProgram::new();
        let f1 = s.define("fun id x = x;").unwrap();
        assert_eq!(f1.bindings.len(), 1);
        assert!(f1.value.is_none());
        let f2 = s.define("id (fn u => u)").unwrap();
        assert!(f2.value.is_some());
        assert_eq!(s.bindings().len(), 1);
        assert_eq!(s.values().len(), 1);
    }

    #[test]
    fn shadowing_rebinds_for_later_fragments() {
        let mut s = SessionProgram::new();
        s.define("val x = 1;").unwrap();
        let first = s.lookup("x").unwrap();
        s.define("val x = 2;").unwrap();
        let second = s.lookup("x").unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn unknown_names_are_rejected_without_corruption() {
        let mut s = SessionProgram::new();
        let size_before = s.program().size();
        assert!(s.define("missing 1").is_err());
        assert_eq!(
            s.program().size(),
            size_before,
            "failed define must not grow the arena"
        );
        // The session still works afterwards.
        s.define("val ok = 3;").unwrap();
    }

    #[test]
    fn datatypes_persist_across_fragments() {
        let mut s = SessionProgram::new();
        s.define("datatype t = A | B of int;").unwrap();
        let f = s.define("case B(1) of B(n) => n | A => 0").unwrap();
        assert!(f.value.is_some());
    }

    #[test]
    fn recursive_bindings() {
        let mut s = SessionProgram::new();
        let f = s
            .define("fun fact n = if n = 0 then 1 else n * fact (n - 1);")
            .unwrap();
        assert!(f.bindings[0].recursive);
        s.define("fact 5").unwrap();
    }

    #[test]
    fn mutual_recursion_fragments() {
        let mut s = SessionProgram::new();
        let f = s
            .define(
                "fun even n = if n = 0 then true else odd (n - 1)\n\
                 and odd n = if n = 0 then false else even (n - 1);",
            )
            .unwrap();
        // The pack plus the two wrappers.
        assert_eq!(f.bindings.len(), 3);
        assert!(s.lookup("even").is_some());
        assert!(s.lookup("odd").is_some());
        s.define("even 4").unwrap();
    }
}
