//! Nodes of the subtransitive control-flow graph.
//!
//! Section 3 of the paper extends the program's expression nodes with
//! *constructed* nodes `dom(n)` and `ran(n)`; Section 6 adds record
//! projections `proj_j(n)` and per-constructor de-constructors `c_i⁻¹(n)`.
//! This module hash-conses all of them into a dense [`NodeId`] space and
//! implements the two datatype node *congruences* (≈₁ and ≈₂) the paper
//! uses to bound the node count in the presence of recursive datatypes.

use std::collections::HashMap;

use stcfa_lambda::{ConId, DataId, ExprId, Program, TyExpr, VarId};

/// Identity of one node in the subtransitive graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a dense index (as returned in adjacency
    /// lists by [`crate::Analysis::succs`]/[`crate::Analysis::preds`]).
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node count overflow"))
    }
}

/// How to treat (recursive) datatypes — the Section 6 accuracy/complexity
/// trade-off.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DatatypePolicy {
    /// Ignore datatypes: a function stored in a data structure and later
    /// extracted could be *any* abstraction in the program. Linear, very
    /// coarse ("One possibility is to ignore recursive data types…").
    Forget,
    /// The paper's coarser congruence ≈₁: de-constructor nodes are merged
    /// by the *type* of the extracted component (datatype-typed components
    /// collapse to one node per datatype; other components to one node per
    /// constructor slot). Linear node count for bounded-type programs.
    ///
    /// This is the default: it matches the paper's recommended operating
    /// point for a linear-time analysis with datatypes.
    #[default]
    Congruence1,
    /// The paper's finer congruence ≈₂: de-constructor chains are merged
    /// only when they extract the same datatype from the same *base node*.
    /// Strictly more accurate than ≈₁; up to quadratic nodes in general,
    /// linear if datatype nesting depth is bounded.
    Congruence2,
    /// No congruence at all: exact de-constructor nodes. Matches standard
    /// CFA precision but need not terminate on recursive datatypes — use
    /// together with a node budget (see `AnalysisOptions::max_nodes`).
    Exact,
}

/// The shape of one node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// A program expression occurrence. Variable occurrences are
    /// canonicalized to their [`NodeKind::Binder`] instead.
    Expr(ExprId),
    /// A binder `x` (the paper treats each distinct bound variable as a
    /// node).
    Binder(VarId),
    /// `dom(n)` — the arguments of the abstractions `n` may evaluate to.
    Dom(NodeId),
    /// `ran(n)` — the results of the abstractions `n` may evaluate to.
    Ran(NodeId),
    /// `proj_j(n)` — field `j` of the records `n` may evaluate to.
    Proj(u32, NodeId),
    /// `c_i⁻¹(n)` — argument `i` of constructor `c` of the constructions
    /// `n` may evaluate to (policy [`DatatypePolicy::Exact`], or ≈₂ when
    /// the component type is not a datatype).
    DeCon {
        /// The constructor.
        con: ConId,
        /// Zero-based argument index.
        index: u32,
        /// The node being de-constructed.
        of: NodeId,
    },
    /// ≈₁ class node: *all* datatype-typed positions of datatype `D`.
    DataClass(DataId),
    /// ≈₁ class node: the non-datatype-typed slot `(c, i)` of a
    /// constructor.
    Slot(ConId, u32),
    /// ≈₂ class node: all datatype-typed de-constructor chains of datatype
    /// `D` hanging off the same base node.
    DeConClass {
        /// The extracted datatype.
        data: DataId,
        /// The base (expression/binder/class) node of the chain.
        base: NodeId,
    },
    /// [`DatatypePolicy::Forget`] sink: "could be any abstraction".
    TopFun,
}

/// Hash-consing table for nodes, plus the base-node map the ≈₂ congruence
/// needs.
///
/// The four common kinds — `Expr`, `Binder`, `Dom` and `Ran`, about 95% of
/// all interns — are looked up in dense slot arrays indexed by expression,
/// binder and operand node; only the rare kinds (record projections,
/// de-constructors, the ≈₁/≈₂ class nodes and `TopFun`) go through a hash
/// map. Interning order, and therefore every node id, is the same either
/// way.
#[derive(Clone, Debug, Default)]
pub struct NodeTable {
    kinds: Vec<NodeKind>,
    /// Base node of each node: for `α(n)` with `α` a (possibly empty)
    /// sequence of operators, the underlying basic node.
    bases: Vec<NodeId>,
    /// `Expr(e)` by expression index (`NO_SLOT` = not interned).
    exprs: Vec<u32>,
    /// `Binder(v)` by binder index.
    binders: Vec<u32>,
    /// `Dom(n)` by operand node index.
    doms: Vec<u32>,
    /// `Ran(n)` by operand node index.
    rans: Vec<u32>,
    /// Every other kind.
    rare: HashMap<NodeKind, NodeId>,
}

/// An empty slot in [`NodeTable`]'s dense arrays.
const NO_SLOT: u32 = u32::MAX;

impl NodeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The shape of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// The base node of `id` (itself, for basic nodes).
    #[inline]
    pub fn base(&self, id: NodeId) -> NodeId {
        self.bases[id.index()]
    }

    /// The dense slot array and index for `kind`, or `None` for a rare
    /// kind.
    #[inline]
    fn slot(&self, kind: NodeKind) -> Option<(&[u32], usize)> {
        match kind {
            NodeKind::Expr(e) => Some((&self.exprs, e.index())),
            NodeKind::Binder(v) => Some((&self.binders, v.index())),
            NodeKind::Dom(n) => Some((&self.doms, n.index())),
            NodeKind::Ran(n) => Some((&self.rans, n.index())),
            _ => None,
        }
    }

    /// Mutable form of [`NodeTable::slot`].
    #[inline]
    fn slot_mut(&mut self, kind: NodeKind) -> Option<(&mut Vec<u32>, usize)> {
        match kind {
            NodeKind::Expr(e) => Some((&mut self.exprs, e.index())),
            NodeKind::Binder(v) => Some((&mut self.binders, v.index())),
            NodeKind::Dom(n) => Some((&mut self.doms, n.index())),
            NodeKind::Ran(n) => Some((&mut self.rans, n.index())),
            _ => None,
        }
    }

    /// Interns a node, computing its base from its shape.
    pub fn intern(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::from_index(self.kinds.len());
        match self.slot_mut(kind) {
            Some((slots, i)) => {
                if i >= slots.len() {
                    slots.resize(i + 1, NO_SLOT);
                } else if slots[i] != NO_SLOT {
                    return NodeId(slots[i]);
                }
                slots[i] = id.0;
            }
            None => {
                if let Some(&old) = self.rare.get(&kind) {
                    return old;
                }
                self.rare.insert(kind, id);
            }
        }
        let base = match kind {
            NodeKind::Expr(_)
            | NodeKind::Binder(_)
            | NodeKind::DataClass(_)
            | NodeKind::Slot(..)
            | NodeKind::TopFun => id,
            NodeKind::Dom(n) | NodeKind::Ran(n) | NodeKind::Proj(_, n) => self.base(n),
            NodeKind::DeCon { of, .. } => self.base(of),
            NodeKind::DeConClass { base, .. } => base,
        };
        self.kinds.push(kind);
        self.bases.push(base);
        id
    }

    /// Looks a node up without creating it.
    pub fn get(&self, kind: NodeKind) -> Option<NodeId> {
        match self.slot(kind) {
            Some((slots, i)) => slots.get(i).filter(|&&s| s != NO_SLOT).map(|&s| NodeId(s)),
            None => self.rare.get(&kind).copied(),
        }
    }

    /// Forgets every node at index `len` and above. Interning
    /// deduplicates, so each kind appears in `kinds` at most once and
    /// clearing the truncated tail's slots and map entries exactly
    /// restores the earlier extent; replays then intern identical ids.
    pub fn rewind(&mut self, len: usize) {
        for i in len..self.kinds.len() {
            let kind = self.kinds[i];
            match self.slot_mut(kind) {
                Some((slots, at)) => slots[at] = NO_SLOT,
                None => {
                    self.rare.remove(&kind);
                }
            }
        }
        self.kinds.truncate(len);
        self.bases.truncate(len);
        // Operands at `len` and above are gone with their nodes.
        self.doms.truncate(len);
        self.rans.truncate(len);
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len()).map(NodeId::from_index)
    }

    /// The canonical de-constructor node for extracting argument `index`
    /// of constructor `con` from node `of`, under `policy`.
    ///
    /// Under [`DatatypePolicy::Forget`] this returns `None` — extraction is
    /// not tracked (callers connect to [`NodeKind::TopFun`] instead).
    pub fn decon(
        &mut self,
        program: &Program,
        policy: DatatypePolicy,
        con: ConId,
        index: u32,
        of: NodeId,
    ) -> Option<NodeId> {
        let arg_ty = &program.data_env().con(con).arg_tys[index as usize];
        match policy {
            DatatypePolicy::Forget => None,
            DatatypePolicy::Congruence1 => Some(match arg_ty {
                TyExpr::Data(d) => self.intern(NodeKind::DataClass(*d)),
                _ => self.intern(NodeKind::Slot(con, index)),
            }),
            DatatypePolicy::Congruence2 => Some(match arg_ty {
                TyExpr::Data(d) => {
                    let base = self.base(of);
                    self.intern(NodeKind::DeConClass { data: *d, base })
                }
                _ => self.intern(NodeKind::DeCon { con, index, of }),
            }),
            DatatypePolicy::Exact => Some(self.intern(NodeKind::DeCon { con, index, of })),
        }
    }

    /// Whether a ≈₂-style congruence makes this node's de-constructor
    /// children independent of the flow of `of` (so no closure rule is
    /// needed through it). True exactly for ≈₁ canonical nodes.
    pub fn is_class(&self, id: NodeId) -> bool {
        matches!(
            self.kind(id),
            NodeKind::DataClass(_) | NodeKind::Slot(..) | NodeKind::TopFun
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_lambda::Program;

    fn list_program() -> Program {
        Program::parse(
            "datatype flist = FNil | FCons of (int -> int) * flist;\n\
             FCons(fn x => x, FNil)",
        )
        .unwrap()
    }

    #[test]
    fn interning_deduplicates() {
        let mut t = NodeTable::new();
        let e = t.intern(NodeKind::Expr(ExprId::from_index(0)));
        let d1 = t.intern(NodeKind::Dom(e));
        let d2 = t.intern(NodeKind::Dom(e));
        assert_eq!(d1, d2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(NodeKind::Dom(e)), Some(d1));
        assert_eq!(t.get(NodeKind::Ran(e)), None);
    }

    /// One node of every kind: the four slotted kinds and all the hashed
    /// ones, with operators stacked on `base` (a node from before any
    /// mark) and on each other.
    fn intern_every_kind(t: &mut NodeTable, base: NodeId, salt: usize) -> Vec<NodeKind> {
        let (con, data) = (ConId::from_index(salt), DataId::from_index(salt));
        let mut kinds = vec![
            NodeKind::Expr(ExprId::from_index(100 + salt)),
            NodeKind::Binder(VarId::from_index(100 + salt)),
            NodeKind::Dom(base),
            NodeKind::Ran(base),
            NodeKind::Proj(salt as u32, base),
            NodeKind::DeCon {
                con,
                index: 1,
                of: base,
            },
            NodeKind::DataClass(data),
            NodeKind::Slot(con, 0),
            NodeKind::DeConClass { data, base },
        ];
        if salt == 0 {
            kinds.push(NodeKind::TopFun);
        }
        for kind in kinds.clone() {
            let id = t.intern(kind);
            // Operators on the node just made, so the tail nests.
            kinds.push(NodeKind::Dom(id));
            kinds.push(NodeKind::Proj(7, id));
            t.intern(NodeKind::Dom(id));
            t.intern(NodeKind::Proj(7, id));
        }
        kinds
    }

    #[test]
    fn rewind_forgets_every_kind_and_replays_identically() {
        let mut t = NodeTable::new();
        let base = t.intern(NodeKind::Expr(ExprId::from_index(0)));
        let other = t.intern(NodeKind::Binder(VarId::from_index(0)));
        let before = intern_every_kind(&mut t, base, 0);
        let mark = t.len();
        let ids_before: Vec<NodeId> = before.iter().map(|&k| t.get(k).unwrap()).collect();

        let after = intern_every_kind(&mut t, other, 1);
        let first_pass: Vec<(NodeKind, NodeId)> =
            after.iter().map(|&k| (k, t.get(k).unwrap())).collect();
        assert!(first_pass.iter().all(|&(_, id)| id.index() >= mark));
        t.rewind(mark);

        assert_eq!(t.len(), mark);
        for &(kind, _) in &first_pass {
            assert_eq!(t.get(kind), None, "{kind:?} survived the rewind");
        }
        for (&kind, &id) in before.iter().zip(&ids_before) {
            assert_eq!(t.get(kind), Some(id), "{kind:?} lost by the rewind");
        }
        assert_eq!(intern_every_kind(&mut t, other, 1), after);
        for &(kind, id) in &first_pass {
            assert_eq!(t.get(kind), Some(id), "{kind:?} replayed to a new id");
            assert_eq!(t.kind(id), kind);
        }
    }

    #[test]
    fn bases_follow_operator_chains() {
        let mut t = NodeTable::new();
        let e = t.intern(NodeKind::Expr(ExprId::from_index(7)));
        let d = t.intern(NodeKind::Dom(e));
        let rd = t.intern(NodeKind::Ran(d));
        let p = t.intern(NodeKind::Proj(0, rd));
        assert_eq!(t.base(e), e);
        assert_eq!(t.base(d), e);
        assert_eq!(t.base(rd), e);
        assert_eq!(t.base(p), e);
    }

    #[test]
    fn congruence1_merges_by_type() {
        let p = list_program();
        let env = p.data_env();
        let fcons = env.con_by_name(p.interner().get("FCons").unwrap()).unwrap();
        let mut t = NodeTable::new();
        let a = t.intern(NodeKind::Expr(ExprId::from_index(0)));
        let b = t.intern(NodeKind::Expr(ExprId::from_index(1)));
        // Tail slots (datatype) merge into one class regardless of parent.
        let ta = t
            .decon(&p, DatatypePolicy::Congruence1, fcons, 1, a)
            .unwrap();
        let tb = t
            .decon(&p, DatatypePolicy::Congruence1, fcons, 1, b)
            .unwrap();
        assert_eq!(ta, tb);
        assert!(t.is_class(ta));
        // Head slots (function type) merge per constructor slot.
        let ha = t
            .decon(&p, DatatypePolicy::Congruence1, fcons, 0, a)
            .unwrap();
        let hb = t
            .decon(&p, DatatypePolicy::Congruence1, fcons, 0, b)
            .unwrap();
        assert_eq!(ha, hb);
        assert_ne!(ha, ta);
    }

    #[test]
    fn congruence2_merges_per_base() {
        let p = list_program();
        let env = p.data_env();
        let fcons = env.con_by_name(p.interner().get("FCons").unwrap()).unwrap();
        let mut t = NodeTable::new();
        let a = t.intern(NodeKind::Expr(ExprId::from_index(0)));
        let b = t.intern(NodeKind::Expr(ExprId::from_index(1)));
        let pol = DatatypePolicy::Congruence2;
        // cdr(a) and cdr(cdr(a)) merge (same base), cdr(b) stays apart.
        let ta = t.decon(&p, pol, fcons, 1, a).unwrap();
        let tta = t.decon(&p, pol, fcons, 1, ta).unwrap();
        let tb = t.decon(&p, pol, fcons, 1, b).unwrap();
        assert_eq!(ta, tta);
        assert_ne!(ta, tb);
        // Heads off merged tails are distinguished by base via the parent.
        let ha = t.decon(&p, pol, fcons, 0, ta).unwrap();
        let hb = t.decon(&p, pol, fcons, 0, tb).unwrap();
        assert_ne!(ha, hb);
    }

    #[test]
    fn exact_never_merges_distinct_parents() {
        let p = list_program();
        let env = p.data_env();
        let fcons = env.con_by_name(p.interner().get("FCons").unwrap()).unwrap();
        let mut t = NodeTable::new();
        let a = t.intern(NodeKind::Expr(ExprId::from_index(0)));
        let pol = DatatypePolicy::Exact;
        let ta = t.decon(&p, pol, fcons, 1, a).unwrap();
        let tta = t.decon(&p, pol, fcons, 1, ta).unwrap();
        assert_ne!(ta, tta, "exact policy keeps the chain growing");
    }

    #[test]
    fn forget_tracks_nothing() {
        let p = list_program();
        let env = p.data_env();
        let fcons = env.con_by_name(p.interner().get("FCons").unwrap()).unwrap();
        let mut t = NodeTable::new();
        let a = t.intern(NodeKind::Expr(ExprId::from_index(0)));
        assert_eq!(t.decon(&p, DatatypePolicy::Forget, fcons, 1, a), None);
    }
}
