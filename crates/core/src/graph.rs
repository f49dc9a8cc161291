//! Storage for the subtransitive control-flow graph: adjacency in both
//! directions, edge deduplication, the pending work queues of the
//! demand-driven close phase, and per-node demand registrations.

use std::collections::{HashSet, VecDeque};

use stcfa_lambda::{ConId, DataId};

use crate::node::NodeId;

/// An operator whose application to a node has been *demanded* (received an
/// incoming edge), in the sense of the primed closure rules CLOSE-DOM′ /
/// CLOSE-RAN′ (and their record/datatype analogues).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DemandOp {
    /// `dom(·)` — contravariant.
    Dom,
    /// `ran(·)` — covariant.
    Ran,
    /// `proj_j(·)` — covariant.
    Proj(u32),
    /// `c_i⁻¹(·)` — covariant (Exact policy, or ≈₂ non-datatype slots).
    Decon(ConId, u32),
    /// Merged datatype extraction for datatype `D` — covariant (≈₂ class
    /// chains).
    DeconData(DataId),
}

/// Mutable graph state shared by the build and close phases.
#[derive(Clone, Debug, Default)]
pub struct SubGraph {
    succs: Vec<Adjacency>,
    preds: Vec<Adjacency>,
    /// Every edge out of a source whose out-degree is at least
    /// [`SCAN_LIMIT`], and no other edge. Narrower sources deduplicate by
    /// scanning their successor list.
    wide_edges: HashSet<u64>,
    /// Edges whose closure consequences have not been drawn yet.
    pub(crate) pending_edges: VecDeque<(NodeId, NodeId)>,
    /// Demand registrations not yet retro-fired.
    pub(crate) pending_demands: VecDeque<(NodeId, DemandOp)>,
    /// Per node: operators demanded on it (short lists; bounded by the
    /// type size in bounded-type programs).
    demands: Vec<Demands>,
    edge_count: usize,
    /// Mutation journal, present only after [`SubGraph::enable_journal`].
    journal: Option<Journal>,
}

/// Out-degree from which a source's edges are deduplicated through
/// [`SubGraph`]'s hashed edge set instead of a scan of its successor
/// list. The set keeps dedup constant-time on the wide fan-outs a
/// client's program can create (one binder flowing to every use site,
/// `TopFun` reaching every abstraction). On the benchmark's programs 94%
/// of dedup checks meet a list of at most three entries and under 0.1%
/// of nodes ever reach 16 successors; limits from 4 to 64 analyze them
/// equally fast, and 16 keeps a scan within 64 bytes (DESIGN.md,
/// "Engine storage").
const SCAN_LIMIT: usize = 16;

/// One node's successor or predecessor list, in insertion order: up to
/// three neighbours in place, a heap vector beyond that. Three `u32`s
/// are as many as fit in the 24 bytes of a `Vec`, so the inline form
/// costs no memory over a vector, and they hold over 99% of successor
/// and predecessor lists on every benchmark workload.
type Adjacency = SmallList<u32, 3>;

/// One node's demanded operators, in registration order. No node in the
/// benchmark's programs carries more than two (`dom` and `ran` on a
/// function value).
type Demands = SmallList<DemandOp, 2>;

/// A short append-only list kept inline up to `N` entries and spilled to a
/// heap vector beyond that.
#[derive(Clone, Debug)]
enum SmallList<T, const N: usize> {
    /// `items[..len]` are the entries; the rest is filler.
    Inline {
        len: u8,
        items: [T; N],
    },
    Spilled(Vec<T>),
}

impl<T: Copy, const N: usize> SmallList<T, N> {
    /// An empty list; `filler` only initializes the unused inline slots.
    fn empty(filler: T) -> Self {
        SmallList::Inline {
            len: 0,
            items: [filler; N],
        }
    }

    #[inline]
    fn as_slice(&self) -> &[T] {
        match self {
            SmallList::Inline { len, items } => &items[..*len as usize],
            SmallList::Spilled(v) => v,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    fn push(&mut self, x: T) {
        match self {
            SmallList::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = x;
                *len += 1;
            }
            SmallList::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * N + 2);
                v.extend_from_slice(items);
                v.push(x);
                *self = SmallList::Spilled(v);
            }
            SmallList::Spilled(v) => v.push(x),
        }
    }

    /// Removes the most recent entry. A spilled list stays spilled.
    fn pop(&mut self) -> Option<T> {
        match self {
            SmallList::Inline { len: 0, .. } => None,
            SmallList::Inline { len, items } => {
                *len -= 1;
                Some(items[*len as usize])
            }
            SmallList::Spilled(v) => v.pop(),
        }
    }
}

/// The hashed edge set's key for `u → v`.
#[inline]
fn edge_key(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Append-only record of graph mutations, enabling [`SubGraph::rewind`].
///
/// Edges and demands are only ever *added* (both `add_edge` and
/// `register_demand` deduplicate), and each addition pushes onto the tail
/// of exactly one adjacency/demand vector — so popping the journal in
/// reverse undoes mutations exactly.
#[derive(Clone, Debug, Default)]
struct Journal {
    edges: Vec<(u32, u32)>,
    demands: Vec<(u32, DemandOp)>,
}

/// A rewind point for a journaled [`SubGraph`] (see [`SubGraph::mark`]).
#[derive(Clone, Copy, Debug)]
pub struct GraphMark {
    nodes: usize,
    edges: usize,
    demand_entries: usize,
}

impl SubGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows per-node storage to cover `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.succs.len() < n {
            self.succs.resize(n, Adjacency::empty(0));
            self.preds.resize(n, Adjacency::empty(0));
            self.demands.resize(n, Demands::empty(DemandOp::Dom));
        }
    }

    /// Number of nodes currently covered.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds `u → v` if new, enqueueing it for closure processing.
    /// Self-loops are ignored. Returns `true` if the edge was new.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        let (su, sv) = (u.index() as u32, v.index() as u32);
        self.ensure_nodes(u.index().max(v.index()) + 1);
        let out = &mut self.succs[u.index()];
        out.push(sv);
        let degree = out.len();
        if degree == SCAN_LIMIT {
            // From here on this source deduplicates through the set.
            let out = self.succs[u.index()].as_slice();
            self.wide_edges.extend(out.iter().map(|&w| edge_key(su, w)));
        } else if degree > SCAN_LIMIT {
            self.wide_edges.insert(edge_key(su, sv));
        }
        self.preds[v.index()].push(su);
        self.edge_count += 1;
        self.pending_edges.push_back((u, v));
        if let Some(j) = &mut self.journal {
            j.edges.push((su, sv));
        }
        true
    }

    /// Starts journaling mutations so the graph can be [rewound]
    /// (`SubGraph::rewind`). Must be called while the graph is empty;
    /// one-shot analyses never enable it and pay nothing.
    pub fn enable_journal(&mut self) {
        debug_assert_eq!(self.node_count(), 0, "enable_journal on a used graph");
        self.journal = Some(Journal::default());
    }

    /// A copy of the graph without its mutation journal, for a view that
    /// will never be rewound (a materialized snapshot). Cloning the
    /// journal only to drop it would copy every edge once more.
    pub fn clone_unjournaled(&self) -> SubGraph {
        SubGraph {
            succs: self.succs.clone(),
            preds: self.preds.clone(),
            wide_edges: self.wide_edges.clone(),
            pending_edges: self.pending_edges.clone(),
            pending_demands: self.pending_demands.clone(),
            demands: self.demands.clone(),
            edge_count: self.edge_count,
            journal: None,
        }
    }

    /// The graph's current extent, for [`SubGraph::rewind`]. Requires
    /// [`SubGraph::enable_journal`].
    pub fn mark(&self) -> GraphMark {
        let j = self.journal.as_ref().expect("mark requires a journal");
        GraphMark {
            nodes: self.node_count(),
            edges: j.edges.len(),
            demand_entries: j.demands.len(),
        }
    }

    /// Rewinds the graph to an earlier [`GraphMark`], exactly undoing
    /// every edge, demand and node added since. Pending queues are
    /// cleared: at a fixpoint they are empty anyway, and after a budget
    /// abort their contents are about to be discarded with the rest of
    /// the suffix.
    pub fn rewind(&mut self, mark: GraphMark) {
        let j = self.journal.as_mut().expect("rewind requires a journal");
        while j.edges.len() > mark.edges {
            let (u, v) = j.edges.pop().expect("len checked");
            let out = &mut self.succs[u as usize];
            let degree = out.len();
            let popped_succ = out.pop();
            let popped_pred = self.preds[v as usize].pop();
            debug_assert_eq!(popped_succ, Some(v));
            debug_assert_eq!(popped_pred, Some(u));
            if degree >= SCAN_LIMIT {
                let removed = self.wide_edges.remove(&edge_key(u, v));
                debug_assert!(removed);
                if degree == SCAN_LIMIT {
                    // Back under the limit: the rest goes back to scanning.
                    for &w in self.succs[u as usize].as_slice() {
                        self.wide_edges.remove(&edge_key(u, w));
                    }
                }
            }
            self.edge_count -= 1;
        }
        while j.demands.len() > mark.demand_entries {
            let (n, op) = j.demands.pop().expect("len checked");
            let popped = self.demands[n as usize].pop();
            debug_assert_eq!(popped, Some(op));
        }
        self.pending_edges.clear();
        self.pending_demands.clear();
        self.succs.truncate(mark.nodes);
        self.preds.truncate(mark.nodes);
        self.demands.truncate(mark.nodes);
    }

    /// Whether `u → v` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let Some(out) = self.succs.get(u.index()) else {
            return false;
        };
        let out = out.as_slice();
        if out.len() < SCAN_LIMIT {
            out.contains(&(v.index() as u32))
        } else {
            self.wide_edges
                .contains(&edge_key(u.index() as u32, v.index() as u32))
        }
    }

    /// Successors of `u` (value sources: reachability along `succs` finds
    /// the values of `u`), in insertion order.
    #[inline]
    pub fn succs(&self, u: NodeId) -> &[u32] {
        self.succs[u.index()].as_slice()
    }

    /// Predecessors of `u` (value consumers), in insertion order.
    #[inline]
    pub fn preds(&self, u: NodeId) -> &[u32] {
        self.preds[u.index()].as_slice()
    }

    /// Records that `op` is demanded on `n`. Returns `true` if this is a
    /// new registration (the caller must then retro-fire over the current
    /// adjacency).
    pub fn register_demand(&mut self, n: NodeId, op: DemandOp) -> bool {
        self.ensure_nodes(n.index() + 1);
        let list = &mut self.demands[n.index()];
        if list.as_slice().contains(&op) {
            return false;
        }
        list.push(op);
        if let Some(j) = &mut self.journal {
            j.demands.push((n.index() as u32, op));
        }
        true
    }

    /// Whether `op` is demanded on `n`.
    pub fn is_demanded(&self, n: NodeId, op: DemandOp) -> bool {
        self.demands
            .get(n.index())
            .is_some_and(|l| l.as_slice().contains(&op))
    }

    /// The operators demanded on `n`.
    pub fn demands(&self, n: NodeId) -> &[DemandOp] {
        static EMPTY: [DemandOp; 0] = [];
        self.demands
            .get(n.index())
            .map_or(&EMPTY[..], |l| l.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn edges_deduplicate_and_enqueue() {
        let mut g = SubGraph::new();
        assert!(g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(2), n(2)), "self loops ignored");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.pending_edges.len(), 1);
        assert!(g.has_edge(n(0), n(1)));
        assert!(!g.has_edge(n(1), n(0)));
    }

    #[test]
    fn adjacency_both_directions() {
        let mut g = SubGraph::new();
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(1));
        assert_eq!(g.succs(n(0)), &[1]);
        assert_eq!(g.preds(n(1)), &[0, 2]);
        assert!(g.succs(n(1)).is_empty());
    }

    #[test]
    fn demand_registration_deduplicates() {
        let mut g = SubGraph::new();
        assert!(g.register_demand(n(3), DemandOp::Dom));
        assert!(!g.register_demand(n(3), DemandOp::Dom));
        assert!(g.register_demand(n(3), DemandOp::Proj(0)));
        assert!(g.register_demand(n(3), DemandOp::Proj(1)));
        assert!(g.is_demanded(n(3), DemandOp::Dom));
        assert!(!g.is_demanded(n(3), DemandOp::Ran));
        assert_eq!(g.demands(n(3)).len(), 3);
        assert!(g.demands(n(99)).is_empty());
    }

    #[test]
    fn rewind_restores_an_earlier_extent_exactly() {
        let mut g = SubGraph::new();
        g.enable_journal();
        g.add_edge(n(0), n(1));
        g.register_demand(n(1), DemandOp::Dom);
        g.pending_edges.clear();
        let mark = g.mark();
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(2));
        g.register_demand(n(1), DemandOp::Ran);
        g.register_demand(n(2), DemandOp::Dom);
        g.rewind(mark);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(n(0), n(1)));
        assert!(!g.has_edge(n(1), n(2)));
        assert!(!g.has_edge(n(0), n(2)));
        assert_eq!(g.succs(n(0)), &[1]);
        assert_eq!(g.preds(n(1)), &[0]);
        assert_eq!(g.demands(n(1)), &[DemandOp::Dom]);
        assert!(g.pending_edges.is_empty());
        // Replaying the same additions reproduces the same state.
        g.add_edge(n(1), n(2));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.succs(n(1)), &[2]);
    }

    /// Everything a rewind must restore: both adjacency directions, the
    /// demands, the edge count, and `has_edge` over every node pair.
    type Shape = (
        Vec<Vec<u32>>,
        Vec<Vec<u32>>,
        Vec<Vec<DemandOp>>,
        usize,
        Vec<bool>,
    );

    fn shape(g: &SubGraph, nodes: usize) -> Shape {
        let ids = || (0..g.node_count()).map(n);
        let pairs = (0..nodes).flat_map(|u| (0..nodes).map(move |v| (u, v)));
        (
            ids().map(|u| g.succs(u).to_vec()).collect(),
            ids().map(|u| g.preds(u).to_vec()).collect(),
            ids().map(|u| g.demands(u).to_vec()).collect(),
            g.edge_count(),
            pairs.map(|(u, v)| g.has_edge(n(u), n(v))).collect(),
        )
    }

    #[test]
    fn rewind_across_the_inline_and_scan_limits_replays_identically() {
        const HUB: usize = 0;
        const WIDE: usize = SCAN_LIMIT + 8;
        const NODES: usize = WIDE + 2;
        // Mark node 0 at every interesting out-degree: empty, inline,
        // just spilled, either side of the scan limit, and above it.
        for at_mark in [0, 2, 3, 4, SCAN_LIMIT - 1, SCAN_LIMIT, SCAN_LIMIT + 1] {
            let mut g = SubGraph::new();
            g.enable_journal();
            g.register_demand(n(1), DemandOp::Dom);
            for v in 1..=at_mark {
                // The hub fans out; node WIDE + 1 collects the same
                // count of predecessors.
                g.add_edge(n(HUB), n(v));
                g.add_edge(n(v), n(WIDE + 1));
            }
            g.pending_edges.clear();
            let mark = g.mark();
            let before = shape(&g, NODES);
            let grow = |g: &mut SubGraph| {
                for v in at_mark + 1..=WIDE {
                    assert!(g.add_edge(n(HUB), n(v)), "degree {at_mark}: {v} new");
                    assert!(g.add_edge(n(v), n(WIDE + 1)));
                    assert!(!g.add_edge(n(HUB), n(v)), "degree {at_mark}: {v} duplicate");
                }
                for v in 1..=WIDE {
                    assert!(!g.add_edge(n(HUB), n(v)), "degree {at_mark}: {v} duplicate");
                }
                g.register_demand(n(1), DemandOp::Ran);
                g.register_demand(n(1), DemandOp::Proj(0));
                g.register_demand(n(1), DemandOp::Proj(1));
            };
            grow(&mut g);
            let first = shape(&g, NODES);
            g.rewind(mark);
            assert_eq!(shape(&g, NODES), before, "rewind to degree {at_mark}");
            grow(&mut g);
            assert_eq!(shape(&g, NODES), first, "replay from degree {at_mark}");
            // A different suffix from the same mark: once the hub is wide
            // again, the edges only the first suffix added are gone.
            g.rewind(mark);
            for v in 0..WIDE {
                assert!(g.add_edge(n(HUB), n(NODES + v)));
            }
            for v in at_mark + 1..=WIDE {
                assert!(
                    !g.has_edge(n(HUB), n(v)),
                    "degree {at_mark}: stale edge to {v}"
                );
            }
        }
    }
}
