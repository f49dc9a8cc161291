//! SCC condensation of a frozen [`Csr`] graph.
//!
//! Queries on the subtransitive control-flow graph are reachability
//! questions, and reachability factors through strongly connected
//! components: every node in an SCC reaches exactly what the component
//! reaches. [`Condensation`] computes the components (iterative Tarjan, so
//! deep graphs cannot overflow the stack) and the condensed DAG, again in
//! CSR form.
//!
//! # Ordering invariant
//!
//! Component ids come out of Tarjan in **reverse topological order**: every
//! edge of the condensed DAG goes from a *larger* component id to a
//! *smaller* one (a component can only reach components with smaller ids).
//! Bottom-up dataflow — union what your successors know, then add your own
//! — is therefore a single sweep over ids `0, 1, 2, …` with no explicit
//! topological sort. [`Condensation::check_order`] asserts the invariant.

use crate::csr::Csr;

/// The strongly-connected-component structure of a [`Csr`] graph.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Node → component id (reverse topological: edges go to smaller ids).
    comp_of: Vec<u32>,
    /// Number of components.
    comp_count: usize,
    /// Condensed DAG (deduplicated, self-edges removed) over component ids.
    dag: Csr,
    /// Members of each component, grouped CSR-style: component `c`'s nodes
    /// are `member_nodes[member_offsets[c]..member_offsets[c + 1]]`.
    member_offsets: Vec<u32>,
    member_nodes: Vec<u32>,
}

impl Condensation {
    /// Condenses `graph`.
    pub fn build(graph: &Csr) -> Condensation {
        let (comp_of, comp_count) = tarjan(graph);
        Self::assemble(graph, comp_of, comp_count)
    }

    /// Derives the condensed DAG and member lists from a node → component
    /// assignment. `comp_of` is trusted here; the public entry points are
    /// [`Condensation::build`] (Tarjan computed it) and
    /// [`Condensation::from_comp_of`] (validated first).
    fn assemble(graph: &Csr, comp_of: Vec<u32>, comp_count: usize) -> Condensation {
        // Members, by counting sort over component ids.
        let n = graph.node_count();
        let mut member_offsets = vec![0u32; comp_count + 1];
        for &c in &comp_of {
            member_offsets[c as usize + 1] += 1;
        }
        for i in 0..comp_count {
            member_offsets[i + 1] += member_offsets[i];
        }
        let mut cursor = member_offsets.clone();
        let mut member_nodes = vec![0u32; n];
        for (u, &c) in comp_of.iter().enumerate() {
            member_nodes[cursor[c as usize] as usize] = u as u32;
            cursor[c as usize] += 1;
        }

        // Condensed edges, one component at a time: walk the members'
        // successors, keep each target component once (`last_source`
        // remembers the latest component that listed it) and sort the
        // component's short target list. That is the sorted, deduplicated
        // edge list a global sort would give, in linear time plus the
        // per-component sorts.
        let mut dag_offsets = Vec::with_capacity(comp_count + 1);
        dag_offsets.push(0u32);
        let mut dag_targets: Vec<u32> = Vec::new();
        let mut last_source = vec![u32::MAX; comp_count];
        for c in 0..comp_count {
            let start = dag_targets.len();
            let members = &member_nodes[member_offsets[c] as usize..member_offsets[c + 1] as usize];
            for &u in members {
                for &v in graph.succs(u as usize) {
                    let cv = comp_of[v as usize];
                    if cv as usize != c && last_source[cv as usize] != c as u32 {
                        last_source[cv as usize] = c as u32;
                        dag_targets.push(cv);
                    }
                }
            }
            dag_targets[start..].sort_unstable();
            dag_offsets.push(u32::try_from(dag_targets.len()).expect("edge count overflow"));
        }
        let dag = Csr::from_trusted_parts(dag_offsets, dag_targets);

        Condensation {
            comp_of,
            comp_count,
            dag,
            member_offsets,
            member_nodes,
        }
    }

    /// Reassembles a condensation from a persisted node → component
    /// assignment (the persistence tier's decode path), skipping Tarjan.
    ///
    /// The input is *untrusted*: every id must be in range, every
    /// component in `0..max+1` must be inhabited, and the reassembled DAG
    /// must satisfy the reverse-topological numbering invariant
    /// ([`Condensation::check_order`]) — any violation is a structured
    /// error, never a panic. (Whether the partition is the *true* SCC
    /// partition is not re-proved here; the persistence layer's
    /// whole-file integrity digest guards against corrupted-but-
    /// well-formed assignments.)
    pub fn from_comp_of(graph: &Csr, comp_of: Vec<u32>) -> Result<Condensation, String> {
        if comp_of.len() != graph.node_count() {
            return Err(format!(
                "condensation: comp_of has {} entries for {} nodes",
                comp_of.len(),
                graph.node_count()
            ));
        }
        let comp_count = comp_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let mut inhabited = vec![false; comp_count];
        for &c in &comp_of {
            inhabited[c as usize] = true;
        }
        if let Some(empty) = inhabited.iter().position(|&b| !b) {
            return Err(format!("condensation: component {empty} has no members"));
        }
        let cond = Self::assemble(graph, comp_of, comp_count);
        cond.check_order()?;
        Ok(cond)
    }

    /// The raw node → component array, for serializers.
    #[inline]
    pub fn comp_of_slice(&self) -> &[u32] {
        &self.comp_of
    }

    /// The component of `node`.
    #[inline]
    pub fn comp_of(&self, node: usize) -> usize {
        self.comp_of[node] as usize
    }

    /// Number of components.
    #[inline]
    pub fn comp_count(&self) -> usize {
        self.comp_count
    }

    /// The condensed DAG. Edges go from larger to smaller component ids.
    #[inline]
    pub fn dag(&self) -> &Csr {
        &self.dag
    }

    /// The nodes of component `c`, in increasing node order.
    #[inline]
    pub fn members(&self, c: usize) -> &[u32] {
        &self.member_nodes[self.member_offsets[c] as usize..self.member_offsets[c + 1] as usize]
    }

    /// Whether component `c` contains a cycle (more than one node, or a
    /// self-loop in the original graph).
    pub fn is_cyclic(&self, c: usize, graph: &Csr) -> bool {
        let m = self.members(c);
        m.len() > 1 || graph.succs(m[0] as usize).contains(&m[0])
    }

    /// Verifies the reverse-topological numbering: every condensed edge
    /// goes from a larger id to a smaller one. `O(E)`; for tests.
    pub fn check_order(&self) -> Result<(), String> {
        for (u, v) in self.dag.edges() {
            if v >= u {
                return Err(format!(
                    "condensation edge {u} → {v} violates reverse-topo order"
                ));
            }
        }
        Ok(())
    }

    /// Reachable component set of `c` (including `c`) as a bit matrix row —
    /// the ground-truth helper differential tests diff the bit-parallel
    /// summary sweep against.
    pub fn comp_reachability(&self) -> Vec<crate::BitSet> {
        let mut reach: Vec<crate::BitSet> = Vec::with_capacity(self.comp_count);
        for c in 0..self.comp_count {
            let mut set = crate::BitSet::new(self.comp_count);
            set.insert(c);
            for &s in self.dag.succs(c) {
                debug_assert!((s as usize) < c);
                let prior = reach[s as usize].clone();
                set.union_with(&prior);
            }
            reach.push(set);
        }
        reach
    }
}

/// Iterative Tarjan over a CSR graph; returns `(component_of_node,
/// component_count)` with components numbered in reverse topological order.
fn tarjan(graph: &Csr) -> (Vec<u32>, usize) {
    const UNVISITED: u32 = u32::MAX;
    let n = graph.node_count();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = crate::BitSet::new(n);
    let mut stack: Vec<u32> = Vec::new();
    let mut comp = vec![UNVISITED; n];
    let mut next_index = 0u32;
    let mut comp_count = 0u32;
    // Call-stack frames: (node, next successor position).
    let mut frames: Vec<(u32, u32)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root as u32, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack.insert(root);

        while let Some(&mut (u, ref mut i)) = frames.last_mut() {
            let u = u as usize;
            let succs = graph.succs(u);
            if (*i as usize) < succs.len() {
                let v = succs[*i as usize] as usize;
                *i += 1;
                if index[v] == UNVISITED {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    on_stack.insert(v);
                    frames.push((v as u32, 0));
                } else if on_stack.contains(v) {
                    lowlink[u] = lowlink[u].min(index[v]);
                }
            } else {
                if lowlink[u] == index[u] {
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack.remove(w as usize);
                        comp[w as usize] = comp_count;
                        if w as usize == u {
                            break;
                        }
                    }
                    comp_count += 1;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[u]);
                }
            }
        }
    }
    (comp, comp_count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn csr(n: usize, edges: &[(u32, u32)]) -> Csr {
        Csr::from_edges(n, edges)
    }

    #[test]
    fn cycle_collapses() {
        // 0 → 1 → 2 → 0, 2 → 3
        let g = csr(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = Condensation::build(&g);
        assert_eq!(c.comp_count(), 2);
        assert_eq!(c.comp_of(0), c.comp_of(1));
        assert_eq!(c.comp_of(1), c.comp_of(2));
        assert_ne!(c.comp_of(0), c.comp_of(3));
        // The sink {3} gets the smaller id.
        assert!(c.comp_of(3) < c.comp_of(0));
        c.check_order().unwrap();
        assert_eq!(c.members(c.comp_of(3)), &[3]);
        let mut cyc = c.members(c.comp_of(0)).to_vec();
        cyc.sort_unstable();
        assert_eq!(cyc, vec![0, 1, 2]);
        assert!(c.is_cyclic(c.comp_of(0), &g));
        assert!(!c.is_cyclic(c.comp_of(3), &g));
    }

    #[test]
    fn agrees_with_digraph_sccs() {
        // Same topology through both SCC implementations.
        let edges = [(0u32, 1u32), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4), (5, 0)];
        let g = csr(7, &edges);
        let mut dg = DiGraph::with_nodes(7);
        for &(u, v) in &edges {
            dg.add_edge(u as usize, v as usize);
        }
        let c = Condensation::build(&g);
        let (comp, count) = dg.sccs();
        assert_eq!(c.comp_count(), count);
        for a in 0..7 {
            for b in 0..7 {
                assert_eq!(
                    c.comp_of(a) == c.comp_of(b),
                    comp[a] == comp[b],
                    "partition mismatch at {a}, {b}"
                );
            }
        }
    }

    #[test]
    fn self_loop_is_cyclic_single() {
        let g = csr(2, &[(0, 0), (0, 1)]);
        let c = Condensation::build(&g);
        assert_eq!(c.comp_count(), 2);
        assert!(c.is_cyclic(c.comp_of(0), &g));
        assert!(!c.is_cyclic(c.comp_of(1), &g));
    }

    #[test]
    fn comp_reachability_matches_node_reachability() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4), (5, 3)];
        let g = csr(6, &edges);
        let mut dg = DiGraph::with_nodes(6);
        for &(u, v) in &edges {
            dg.add_edge(u as usize, v as usize);
        }
        let c = Condensation::build(&g);
        let reach = c.comp_reachability();
        for u in 0..6 {
            let direct = dg.reachable_from(u);
            for v in 0..6 {
                assert_eq!(
                    reach[c.comp_of(u)].contains(c.comp_of(v)),
                    direct.contains(v),
                    "reachability mismatch {u} → {v}"
                );
            }
        }
    }

    #[test]
    fn dag_is_deduplicated() {
        // Two parallel original edges between the same components.
        let g = csr(4, &[(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)]);
        let c = Condensation::build(&g);
        assert_eq!(c.comp_count(), 3);
        let top = c.comp_of(0);
        assert_eq!(c.dag().succs(top).len(), 1, "parallel edges collapse");
        c.check_order().unwrap();
    }

    #[test]
    fn from_comp_of_round_trips_and_rejects_malformed() {
        let g = csr(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let built = Condensation::build(&g);
        let rebuilt = Condensation::from_comp_of(&g, built.comp_of_slice().to_vec()).unwrap();
        assert_eq!(rebuilt.comp_count(), built.comp_count());
        assert_eq!(rebuilt.comp_of_slice(), built.comp_of_slice());
        for c in 0..built.comp_count() {
            assert_eq!(rebuilt.members(c), built.members(c));
            assert_eq!(rebuilt.dag().succs(c), built.dag().succs(c));
        }
        // Malformed assignments are structured errors, never panics.
        assert!(
            Condensation::from_comp_of(&g, vec![0, 0, 0]).is_err(),
            "length mismatch"
        );
        assert!(
            Condensation::from_comp_of(&g, vec![0, 0, 0, 2]).is_err(),
            "uninhabited component id"
        );
        assert!(
            Condensation::from_comp_of(&g, vec![0, 0, 0, 1]).is_err(),
            "violates reverse-topological order: the sink must get the smaller id"
        );
    }

    #[test]
    fn empty_and_edgeless() {
        let c = Condensation::build(&csr(0, &[]));
        assert_eq!(c.comp_count(), 0);
        let c = Condensation::build(&csr(3, &[]));
        assert_eq!(c.comp_count(), 3);
        c.check_order().unwrap();
    }
}
