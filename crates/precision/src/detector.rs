//! The degradation detector: where did the subtransitive answer
//! plausibly over-approximate?
//!
//! The paper's linearity comes from the ≈₁/≈₂ congruences (Section 6):
//! datatype-typed positions collapse to class nodes, so flow through a
//! data structure is merged across every construction of the datatype.
//! That merging — plus the `Forget` policy's `TopFun` sink — is the
//! *only* place the graph construction loses precision relative to the
//! `Exact` policy, which the differential suite pins against standard
//! cubic CFA. Reachability over the graph itself is exact.
//!
//! The detector exploits that: at freeze time it scores every
//! condensation component with a **suspicion index** — a saturating
//! per-cone aggregate of
//!
//! - **merge nodes** reachable from the component (`DataClass`, `Slot`,
//!   `DeConClass`, `TopFun`): the congruence participants, weighted
//!   heaviest because they are the precision loss;
//! - **multi-abstraction SCCs**: a cycle carrying several labels answers
//!   every member with the whole union;
//! - **high-fan-in `dom`/`ran` nodes**: many call sites feeding one
//!   operator chain — the classic monovariant join point.
//!
//! The load-bearing invariant is one-directional: **suspicion 0 means
//! the query's forward cone contains no merge node at all**, so every
//! path the engine can follow exists identically under the `Exact`
//! policy and the answer is certifiably equal to full cubic CFA — no
//! escalation can shrink it. Non-zero suspicion is only a heuristic
//! ranking of where escalation is worth spending budget; it never
//! asserts imprecision.
//!
//! The sweep mirrors the engine's summary sweep: component ids are in
//! reverse topological order (DAG edges go to smaller ids), so one pass
//! over `0..comp_count` sees every successor finished — `O(N + E)`.

use stcfa_core::{Analysis, NodeId, NodeKind, QueryEngine};
use stcfa_lambda::ExprId;

/// Weight of one congruence/merge node in a cone (dominant term; any
/// non-zero suspicion that matters for soundness comes from these).
const MERGE_WEIGHT: u32 = 16;
/// Weight per extra abstraction label in a single SCC.
const SCC_WEIGHT: u32 = 4;
/// Weight of a `dom`/`ran` node with more than one predecessor.
const FAN_WEIGHT: u32 = 1;

/// Per-component suspicion scores for one frozen engine, cheap to store
/// with the snapshot (`4 * comp_count` bytes) and `O(1)` to consult per
/// query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuspicionIndex {
    per_comp: Vec<u32>,
}

impl SuspicionIndex {
    /// Scores every component of `engine`'s condensation. `analysis`
    /// must be the analysis `engine` was frozen from (the node table is
    /// consulted for node kinds).
    pub fn build(analysis: &Analysis, engine: &QueryEngine) -> SuspicionIndex {
        let cond = engine.condensation();
        let cc = cond.comp_count();
        let n = engine.csr().node_count();
        let nodes = analysis.nodes();
        assert_eq!(
            nodes.len(),
            n,
            "SuspicionIndex::build needs the analysis the engine was frozen \
             from (node tables differ); disk-warmed linked engines must \
             rehydrate persisted scores via `from_raw` instead",
        );
        let mut in_degrees = vec![0u32; n];
        for &t in engine.csr().targets() {
            in_degrees[t as usize] += 1;
        }
        let mut own = vec![0u32; cc];
        let mut labelled = vec![0u32; cc];
        for (i, &in_degree) in in_degrees.iter().enumerate() {
            let id = NodeId::from_index(i);
            let c = cond.comp_of(i);
            let w = match nodes.kind(id) {
                NodeKind::DataClass(_)
                | NodeKind::Slot(..)
                | NodeKind::DeConClass { .. }
                | NodeKind::TopFun => MERGE_WEIGHT,
                NodeKind::Dom(_) | NodeKind::Ran(_) if in_degree > 1 => FAN_WEIGHT,
                _ => 0,
            };
            own[c] = own[c].saturating_add(w);
            if engine.own_label(id).is_some() {
                labelled[c] += 1;
            }
        }
        for (o, &l) in own.iter_mut().zip(&labelled) {
            if l > 1 {
                *o = o.saturating_add(SCC_WEIGHT * (l - 1));
            }
        }
        // Cone aggregate: own score plus the worst successor cone. Using
        // `max` over successors (not a sum) keeps scores bounded on
        // diamond-shaped DAGs while preserving the invariant that a
        // component scores 0 iff nothing suspicious is reachable.
        let mut per_comp = vec![0u32; cc];
        for c in 0..cc {
            let mut worst = 0u32;
            for &s in cond.dag().succs(c) {
                worst = worst.max(per_comp[s as usize]);
            }
            per_comp[c] = own[c].saturating_add(worst);
        }
        SuspicionIndex { per_comp }
    }

    /// Rehydrates an index persisted with a snapshot.
    pub fn from_raw(per_comp: Vec<u32>) -> SuspicionIndex {
        SuspicionIndex { per_comp }
    }

    /// The raw per-component scores (persistence image).
    pub fn as_slice(&self) -> &[u32] {
        &self.per_comp
    }

    /// Number of scored components (must equal the engine's
    /// `comp_count` to be usable with it).
    pub fn comp_count(&self) -> usize {
        self.per_comp.len()
    }

    /// The suspicion of `node`'s forward cone.
    pub fn of_node(&self, engine: &QueryEngine, node: NodeId) -> u32 {
        self.per_comp[engine.condensation().comp_of(node.index())]
    }

    /// The suspicion of expression `e`'s answer.
    pub fn of_expr(&self, engine: &QueryEngine, e: ExprId) -> u32 {
        self.of_node(engine, engine.node_of_expr(e))
    }

    /// Whether every component scores 0 — the whole snapshot's answers
    /// are certifiably exact and nothing can be refined.
    pub fn all_exact(&self) -> bool {
        self.per_comp.iter().all(|&s| s == 0)
    }

    /// How many components carry non-zero suspicion.
    pub fn suspicious_comps(&self) -> usize {
        self.per_comp.iter().filter(|&&s| s != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_lambda::Program;

    fn built(src: &str) -> (Program, Analysis, QueryEngine) {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        let e = QueryEngine::freeze(&a);
        (p, a, e)
    }

    #[test]
    fn pure_lambda_programs_are_suspicion_free() {
        // No datatypes, no records: nothing merges under ≈₁, every
        // answer is exact — including through higher-order flow.
        let (p, a, e) = built("(fn x => x x) (fn y => y)");
        let idx = SuspicionIndex::build(&a, &e);
        assert_eq!(idx.of_expr(&e, p.root()), 0);
    }

    #[test]
    fn datatype_flow_raises_suspicion_at_the_reader() {
        let src = "\
            datatype wrap = W of (int -> int);\n\
            case W(fn x => x) of W(f) => f";
        let (p, a, e) = built(src);
        let idx = SuspicionIndex::build(&a, &e);
        // The case result reads through the constructor slot: its cone
        // contains the ≈₁ class node.
        assert!(idx.of_expr(&e, p.root()) >= MERGE_WEIGHT);
        assert!(!idx.all_exact());
    }

    #[test]
    fn roundtrips_through_raw_scores() {
        let (_, a, e) = built("let val f = fn x => x in f f end");
        let idx = SuspicionIndex::build(&a, &e);
        let again = SuspicionIndex::from_raw(idx.as_slice().to_vec());
        assert_eq!(idx, again);
        assert_eq!(again.comp_count(), e.comp_count());
    }
}
