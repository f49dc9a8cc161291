//! Dominator trees by the iterative algorithm of Cooper, Harvey and
//! Kennedy ("A Simple, Fast Dominance Algorithm", 2001).
//!
//! A node `d` *dominates* `n` when every path from the entry to `n`
//! passes through `d`. The algorithm numbers the nodes the entry reaches
//! in reverse postorder of one DFS from the entry, then repeats a pass
//! over that order until no immediate dominator changes: a node's
//! immediate dominator is the nearest common ancestor, in the tree built
//! so far, of its already-processed predecessors. Reducible graphs settle
//! in two passes.
//!
//! The finished tree is numbered by one preorder/postorder walk, so
//! [`DomTree::dominates`] is two comparisons: `d` dominates `n` exactly
//! when `n`'s interval nests inside `d`'s.

use crate::csr::Csr;
use crate::digraph::DiGraph;

/// Marks a node the entry does not reach.
const UNREACHED: u32 = u32::MAX;

/// The dominator tree of a graph, rooted at one entry node.
///
/// Nodes the entry does not reach are outside the tree: they dominate
/// nothing and nothing dominates them.
#[derive(Clone, Debug)]
pub struct DomTree {
    entry: usize,
    /// Per node: its immediate dominator; the entry's is itself.
    idom: Vec<u32>,
    /// Per node: its preorder number in the tree.
    pre: Vec<u32>,
    /// Per node: its postorder number in the tree.
    post: Vec<u32>,
}

impl DomTree {
    /// The root of the tree.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Whether the entry reaches `n`.
    pub fn is_reachable(&self, n: usize) -> bool {
        self.pre[n] != UNREACHED
    }

    /// The immediate dominator of `n`; `None` for the entry and for nodes
    /// the entry does not reach.
    pub fn idom(&self, n: usize) -> Option<usize> {
        (n != self.entry && self.is_reachable(n)).then(|| self.idom[n] as usize)
    }

    /// `n`'s preorder number in the tree (the entry's is 0), or `None` if
    /// the entry does not reach `n`. A node's dominators all precede it.
    pub fn pre(&self, n: usize) -> Option<usize> {
        self.is_reachable(n).then(|| self.pre[n] as usize)
    }

    /// `n`'s postorder number in the tree (the entry's is the largest),
    /// or `None` if the entry does not reach `n`.
    pub fn post(&self, n: usize) -> Option<usize> {
        self.is_reachable(n).then(|| self.post[n] as usize)
    }

    /// Whether `d` dominates `n` (reflexive on reachable nodes). `O(1)`.
    pub fn dominates(&self, d: usize, n: usize) -> bool {
        self.is_reachable(n) && self.pre[d] <= self.pre[n] && self.post[n] <= self.post[d]
    }

    /// Whether `d` dominates `n` and `d != n`.
    pub fn strictly_dominates(&self, d: usize, n: usize) -> bool {
        d != n && self.dominates(d, n)
    }

    /// The dominators of `n` in increasing node order, `n` included;
    /// empty if the entry does not reach `n`. Walks the idom chain.
    pub fn doms_of(&self, n: usize) -> Vec<u32> {
        let mut out = Vec::new();
        if self.is_reachable(n) {
            let mut x = n;
            out.push(x as u32);
            while x != self.entry {
                x = self.idom[x] as usize;
                out.push(x as u32);
            }
            out.sort_unstable();
        }
        out
    }
}

impl DiGraph {
    /// The dominator tree rooted at `entry` (Cooper–Harvey–Kennedy over
    /// a reverse postorder from `entry`). Each pass is `O(V + E)` up to
    /// the length of the idom chains it walks.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn dominator_tree(&self, entry: usize) -> DomTree {
        let n = self.node_count();
        assert!(entry < n, "entry {entry} out of range {n}");
        // Reverse postorder of one DFS from the entry; `rpo` maps nodes
        // to positions in it and marks the unreached.
        let mut rpo = vec![UNREACHED; n];
        let mut order: Vec<u32> = Vec::new();
        let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
        rpo[entry] = 0;
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if let Some(&v) = self.succs(u).get(*i) {
                *i += 1;
                if rpo[v as usize] == UNREACHED {
                    rpo[v as usize] = 0;
                    stack.push((v as usize, 0));
                }
            } else {
                order.push(u as u32);
                stack.pop();
            }
        }
        order.reverse();
        for (k, &u) in order.iter().enumerate() {
            rpo[u as usize] = k as u32;
        }
        let m = order.len();
        // Predecessors, in positions, of every reached node.
        let mut edges = Vec::new();
        for (k, &u) in order.iter().enumerate() {
            for &v in self.succs(u as usize) {
                edges.push((rpo[v as usize], k as u32));
            }
        }
        let preds = Csr::from_edges(m, &edges);
        // Immediate dominators, in positions. Every idom precedes its
        // node, so walking an idom chain strictly decreases.
        let mut doms = vec![UNREACHED; m];
        doms[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..m {
                let mut new_idom = UNREACHED;
                for &p in preds.succs(b) {
                    if doms[p as usize] == UNREACHED {
                        continue;
                    }
                    new_idom = if new_idom == UNREACHED {
                        p
                    } else {
                        intersect(&doms, p, new_idom)
                    };
                }
                if doms[b] != new_idom {
                    doms[b] = new_idom;
                    changed = true;
                }
            }
        }
        // Number the tree by one preorder/postorder walk.
        let tree_edges: Vec<(u32, u32)> = (1..m).map(|b| (doms[b], b as u32)).collect();
        let children = Csr::from_edges(m, &tree_edges);
        let mut idom = vec![UNREACHED; n];
        let mut pre = vec![UNREACHED; n];
        let mut post = vec![UNREACHED; n];
        let (mut next_pre, mut next_post) = (0u32, 0u32);
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        pre[entry] = 0;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let node = order[b] as usize;
            if let Some(&c) = children.succs(b).get(*i) {
                *i += 1;
                next_pre += 1;
                pre[order[c as usize] as usize] = next_pre;
                stack.push((c as usize, 0));
            } else {
                idom[node] = order[doms[b] as usize];
                post[node] = next_post;
                next_post += 1;
                stack.pop();
            }
        }
        DomTree {
            entry,
            idom,
            pre,
            post,
        }
    }
}

/// The nearest common ancestor of `a` and `b` in the idom tree built so
/// far (positions are reverse-postorder numbers).
fn intersect(doms: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = doms[a as usize];
        }
        while b > a {
            b = doms[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        let mut g = DiGraph::with_nodes(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The dominance relation by definition: `d` dominates `n` iff the
    /// entry reaches `n` but not once `d` is removed.
    fn avoid_one(g: &DiGraph, entry: usize, d: usize, n: usize) -> bool {
        let reach = g.reachable_from(entry);
        if !reach.contains(n) {
            return false;
        }
        if d == entry || d == n {
            return true;
        }
        let mut seen = vec![false; g.node_count()];
        seen[entry] = true;
        seen[d] = true;
        let mut stack = vec![entry];
        while let Some(u) = stack.pop() {
            for &v in g.succs(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        !seen[n]
    }

    fn assert_matches_definition(g: &DiGraph, entry: usize) -> DomTree {
        let t = g.dominator_tree(entry);
        for d in 0..g.node_count() {
            for n in 0..g.node_count() {
                assert_eq!(
                    t.dominates(d, n),
                    avoid_one(g, entry, d, n),
                    "dominates({d}, {n})"
                );
            }
        }
        t
    }

    #[test]
    fn diamond_joins_at_the_entry() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let t = assert_matches_definition(&g, 0);
        assert_eq!(t.idom(0), None);
        assert_eq!(t.idom(3), Some(0));
        assert_eq!(t.doms_of(3), vec![0, 3]);
        assert_eq!(t.pre(0), Some(0));
        assert_eq!(t.post(0), Some(3));
    }

    #[test]
    fn self_loops_change_nothing() {
        let g = graph(3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]);
        let t = assert_matches_definition(&g, 0);
        assert_eq!(t.idom(1), Some(0));
        assert_eq!(t.idom(2), Some(1));
        assert_eq!(t.doms_of(2), vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_nodes_are_outside_the_tree() {
        // 3 and 4 are unreached; 4 has an edge into the tree.
        let g = graph(5, &[(0, 1), (1, 2), (3, 4), (4, 2)]);
        let t = assert_matches_definition(&g, 0);
        for u in [3, 4] {
            assert!(!t.is_reachable(u));
            assert_eq!(t.idom(u), None);
            assert_eq!(t.pre(u), None);
            assert!(t.doms_of(u).is_empty());
            assert!(!t.dominates(u, u));
        }
        assert_eq!(t.idom(2), Some(1), "the unreached edge 4 → 2 is ignored");
    }

    #[test]
    fn irreducible_loop_is_dominated_by_its_split_point() {
        // 1 and 2 form a loop with two entries (from 0 and from 3); the
        // loop's nodes dominate neither each other nor the exit 4.
        let g = graph(5, &[(0, 1), (0, 3), (3, 2), (1, 2), (2, 1), (1, 4), (2, 4)]);
        let t = assert_matches_definition(&g, 0);
        assert_eq!(t.idom(1), Some(0));
        assert_eq!(t.idom(2), Some(0));
        assert_eq!(t.idom(4), Some(0));
        assert!(!t.dominates(1, 2) && !t.dominates(2, 1));
    }

    #[test]
    fn entry_without_predecessors_in_a_nonzero_slot() {
        // The entry is the last node, like the call graph's virtual root.
        let g = graph(4, &[(3, 0), (0, 1), (1, 0), (0, 2), (2, 1)]);
        let t = assert_matches_definition(&g, 3);
        assert_eq!(t.entry(), 3);
        assert_eq!(t.doms_of(3), vec![3]);
        assert_eq!(t.idom(1), Some(0));
        assert!(t.strictly_dominates(3, 0));
        assert!(!t.strictly_dominates(0, 0));
    }

    #[test]
    fn lone_entry_dominates_only_itself() {
        let g = graph(2, &[]);
        let t = assert_matches_definition(&g, 1);
        assert_eq!(t.doms_of(1), vec![1]);
        assert!(!t.is_reachable(0));
    }
}
