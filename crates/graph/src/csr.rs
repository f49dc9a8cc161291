//! A frozen compressed-sparse-row (CSR) view of a directed graph.
//!
//! The growable [`DiGraph`](crate::DiGraph) (and the analyses' own
//! adjacency stores) spend one heap allocation per node and chase a
//! pointer per neighbour list; once a graph stops changing, queries want
//! the opposite trade-off. [`Csr`] packs all adjacency into two flat
//! arrays (`offsets`, `targets`), so a full-graph sweep touches memory
//! strictly left to right and a node's neighbour slice costs two loads.
//!
//! Freezing is `O(V + E)` by counting sort, and [`Csr::reverse`] produces
//! the transposed CSR by the same counting pass — no per-node vectors are
//! ever materialized.

use crate::digraph::DiGraph;

/// An immutable directed graph in compressed-sparse-row form.
///
/// Nodes are `0..node_count()`; the successors of `u` are the slice
/// `targets[offsets[u]..offsets[u + 1]]`. Duplicate edges are preserved
/// exactly as given (freeze what you had; deduplicate upstream if needed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    /// `node_count() + 1` cumulative degrees.
    offsets: Vec<u32>,
    /// Edge targets, grouped by source.
    targets: Vec<u32>,
}

impl Csr {
    /// Freezes an edge list over `n` nodes. Edges may arrive in any order;
    /// within one source, the original relative order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or the edge count overflows `u32`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut degree = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range {n}"
            );
            degree[u as usize + 1] += 1;
        }
        for i in 0..n {
            degree[i + 1] += degree[i];
        }
        let total = u32::try_from(edges.len()).expect("edge count overflow");
        debug_assert_eq!(degree[n], total);
        let mut cursor = degree.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(u, v) in edges {
            let slot = cursor[u as usize];
            targets[slot as usize] = v;
            cursor[u as usize] += 1;
        }
        Csr {
            offsets: degree,
            targets,
        }
    }

    /// Freezes per-node successor slices (e.g. an analysis' adjacency
    /// lists) without an intermediate edge list.
    pub fn from_succs<'a>(n: usize, succs: impl Fn(usize) -> &'a [u32]) -> Csr {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0usize;
        for u in 0..n {
            total += succs(u).len();
            offsets.push(u32::try_from(total).expect("edge count overflow"));
        }
        let mut targets = Vec::with_capacity(total);
        for u in 0..n {
            targets.extend_from_slice(succs(u));
        }
        Csr { offsets, targets }
    }

    /// Wraps arrays a constructor in this crate has just built and knows
    /// to be well formed (the condensation's DAG).
    pub(crate) fn from_trusted_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Csr {
        let csr = Csr { offsets, targets };
        debug_assert_eq!(csr.audit(), Ok(()));
        csr
    }

    /// Freezes a [`DiGraph`].
    pub fn from_digraph(g: &DiGraph) -> Csr {
        Self::from_succs(g.node_count(), |u| g.succs(u))
    }

    /// Reassembles a CSR from its two raw arrays (the persistence tier's
    /// decode path). Unlike the freezing constructors this input is
    /// *untrusted* — the arrays may come off disk — so the full
    /// [`Csr::audit`] runs and a malformed shape is a structured error,
    /// never a panic.
    pub fn from_raw_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Result<Csr, String> {
        if offsets.is_empty() {
            return Err("csr: offsets array is empty (needs node_count + 1 entries)".to_owned());
        }
        let csr = Csr { offsets, targets };
        csr.audit()?;
        Ok(csr)
    }

    /// The raw offset array (`node_count() + 1` entries), for serializers.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw target array, grouped by source, for serializers.
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Successors of `u`.
    #[inline]
    pub fn succs(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// The transposed graph, built by one counting pass (`O(V + E)`, no
    /// per-node allocations). Within one target, sources appear in
    /// increasing order.
    pub fn reverse(&self) -> Csr {
        let n = self.node_count();
        let mut degree = vec![0u32; n + 1];
        for &v in &self.targets {
            degree[v as usize + 1] += 1;
        }
        for i in 0..n {
            degree[i + 1] += degree[i];
        }
        let mut cursor = degree.clone();
        let mut targets = vec![0u32; self.targets.len()];
        for u in 0..n {
            for &v in self.succs(u) {
                let slot = cursor[v as usize];
                targets[slot as usize] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        Csr {
            offsets: degree,
            targets,
        }
    }

    /// Iterates over all edges as `(source, target)` pairs, grouped by
    /// source.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count()).flat_map(move |u| self.succs(u).iter().map(move |&v| (u as u32, v)))
    }

    /// Structural audit of the frozen representation: offsets start at 0,
    /// are monotone non-decreasing, the final offset equals the target
    /// array length, and every target is a valid node id.
    ///
    /// Freezing already establishes these properties; the audit re-verifies
    /// them on the finished arrays so downstream consumers (e.g. the query
    /// engine's `debug_assertions` auditor) can assert on a self-checked
    /// foundation rather than trusting construction.
    pub fn audit(&self) -> Result<(), String> {
        if self.offsets.first() != Some(&0) {
            return Err(format!(
                "csr: first offset is {:?}, expected 0",
                self.offsets.first()
            ));
        }
        for (i, w) in self.offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err(format!(
                    "csr: offsets not monotone at node {i}: {} > {}",
                    w[0], w[1]
                ));
            }
        }
        let last = *self.offsets.last().expect("offsets non-empty") as usize;
        if last != self.targets.len() {
            return Err(format!(
                "csr: final offset {last} != target count {}",
                self.targets.len()
            ));
        }
        let n = self.node_count();
        for (i, &v) in self.targets.iter().enumerate() {
            if (v as usize) >= n {
                return Err(format!("csr: target {v} at slot {i} out of range {n}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_groups_by_source() {
        let g = Csr::from_edges(4, &[(2, 3), (0, 1), (0, 2), (1, 3)]);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.succs(1), &[3]);
        assert_eq!(g.succs(2), &[3]);
        assert!(g.succs(3).is_empty());
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn from_digraph_matches_adjacency() {
        let mut g = DiGraph::with_nodes(5);
        g.add_edge(4, 0);
        g.add_edge(1, 2);
        g.add_edge(1, 4);
        let c = Csr::from_digraph(&g);
        for u in 0..5 {
            assert_eq!(c.succs(u), g.succs(u), "node {u}");
        }
    }

    #[test]
    fn reverse_transposes() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.succs(3), &[1, 2]);
        assert_eq!(r.succs(1), &[0]);
        assert_eq!(r.succs(2), &[0]);
        assert!(r.succs(0).is_empty());
        // Reversing twice restores the edge multiset per node.
        let rr = r.reverse();
        for u in 0..g.node_count() {
            let mut a = g.succs(u).to_vec();
            let mut b = rr.succs(u).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn duplicate_edges_survive_freezing() {
        let g = Csr::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.succs(0), &[1, 1]);
        assert_eq!(g.reverse().succs(1), &[0, 0]);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = diamond();
        let pairs: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(Csr::from_edges(4, &pairs), g);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.reverse().node_count(), 0);
    }

    #[test]
    fn audit_accepts_frozen_graphs() {
        assert_eq!(diamond().audit(), Ok(()));
        assert_eq!(diamond().reverse().audit(), Ok(()));
        assert_eq!(Csr::from_edges(0, &[]).audit(), Ok(()));
    }

    #[test]
    fn from_raw_parts_round_trips_and_rejects_malformed() {
        let g = diamond();
        let rebuilt = Csr::from_raw_parts(g.offsets().to_vec(), g.targets().to_vec()).unwrap();
        assert_eq!(rebuilt, g);
        // Malformed inputs are structured errors, never panics.
        assert!(Csr::from_raw_parts(vec![], vec![]).is_err());
        assert!(
            Csr::from_raw_parts(vec![1, 0], vec![0]).is_err(),
            "non-monotone"
        );
        assert!(
            Csr::from_raw_parts(vec![0, 1], vec![7]).is_err(),
            "target out of range"
        );
        assert!(
            Csr::from_raw_parts(vec![0, 2], vec![0]).is_err(),
            "final offset overshoots"
        );
    }

    #[test]
    fn audit_rejects_corrupted_offsets() {
        let mut g = diamond();
        g.offsets[1] = 99;
        assert!(g.audit().is_err());
        let mut g = diamond();
        g.targets[0] = 42;
        assert!(g.audit().is_err());
    }
}
