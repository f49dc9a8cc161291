//! Property tests for the graph substrate: reachability, SCCs, the
//! transitive closure and the dominator tree must agree with each other
//! on random graphs.

// Index-based loops intentionally mirror the dense-id indexing the
// assertions compare; iterators would obscure the parallel access.
#![allow(clippy::needless_range_loop)]

use stcfa_devkit::prelude::*;
use stcfa_graph::{BitSet, DiGraph};

fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (
        2usize..40,
        collection::vec((0usize..40, 0usize..40), 0..120),
    )
        .prop_map(|(n, edges)| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v) in edges {
                g.add_edge(u % n, v % n);
            }
            g
        })
}

proptest! {
    #[test]
    fn closure_equals_reachability(g in arb_graph()) {
        let tc = g.transitive_closure();
        for u in 0..g.node_count() {
            let direct = g.reachable_from(u);
            prop_assert_eq!(
                tc[u].iter().collect::<Vec<_>>(),
                direct.iter().collect::<Vec<_>>(),
                "node {}", u
            );
        }
    }

    #[test]
    fn same_scc_iff_mutually_reachable(g in arb_graph()) {
        let (comp, _) = g.sccs();
        let tc = g.transitive_closure();
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                let mutual = tc[u].contains(v) && tc[v].contains(u);
                prop_assert_eq!(comp[u] == comp[v], mutual, "nodes {} {}", u, v);
            }
        }
    }

    #[test]
    fn scc_numbering_is_reverse_topological(g in arb_graph()) {
        let (comp, _) = g.sccs();
        for u in 0..g.node_count() {
            for &v in g.succs(u) {
                // An edge can only go to an equal-or-smaller component id.
                prop_assert!(comp[u] >= comp[v as usize]);
            }
        }
    }

    #[test]
    fn reverse_preserves_edge_count_and_flips(g in arb_graph()) {
        let r = g.reverse();
        prop_assert_eq!(g.edge_count(), r.edge_count());
        for u in 0..g.node_count() {
            for &v in g.succs(u) {
                prop_assert!(r.has_edge(v as usize, u));
            }
        }
    }

    #[test]
    fn postorder_is_a_permutation(g in arb_graph()) {
        let order = g.postorder();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.node_count()).collect::<Vec<_>>());
    }

    #[test]
    fn dominator_tree_matches_removal_reachability(g in arb_graph()) {
        // By definition: `d` dominates a reachable `n` iff the entry
        // cannot reach `n` once `d` is removed.
        let entry = g.node_count() - 1;
        let tree = g.dominator_tree(entry);
        let reach = g.reachable_from(entry);
        for d in 0..g.node_count() {
            let mut avoiding = BitSet::new(g.node_count());
            if d != entry {
                avoiding.insert(entry);
                let mut stack = vec![entry];
                while let Some(u) = stack.pop() {
                    for &v in g.succs(u) {
                        if v as usize != d && avoiding.insert(v as usize) {
                            stack.push(v as usize);
                        }
                    }
                }
            }
            for n in 0..g.node_count() {
                let want = reach.contains(n) && !avoiding.contains(n);
                prop_assert_eq!(tree.dominates(d, n), want, "dominates({}, {})", d, n);
            }
        }
        for n in 0..g.node_count() {
            prop_assert_eq!(tree.is_reachable(n), reach.contains(n), "node {}", n);
            if let Some(i) = tree.idom(n) {
                prop_assert!(tree.strictly_dominates(i, n), "idom({}) = {}", n, i);
                prop_assert!(tree.pre(i) < tree.pre(n));
            }
        }
    }

    #[test]
    fn bitset_union_is_idempotent_and_monotone(
        a in collection::vec(0usize..256, 0..64),
        b in collection::vec(0usize..256, 0..64),
    ) {
        let mut x = BitSet::new(256);
        for &i in &a { x.insert(i); }
        let mut y = BitSet::new(256);
        for &i in &b { y.insert(i); }
        let before = x.len();
        x.union_with(&y);
        prop_assert!(x.len() >= before);
        prop_assert!(x.len() >= y.len().max(before));
        let snapshot: Vec<usize> = x.iter().collect();
        prop_assert!(!x.union_with(&y), "second union must be a no-op");
        prop_assert_eq!(snapshot, x.iter().collect::<Vec<usize>>());
        for &i in a.iter().chain(&b) {
            prop_assert!(x.contains(i));
        }
    }
}
