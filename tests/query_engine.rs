//! Differential properties of the frozen [`QueryEngine`]: on randomly
//! generated well-typed programs it must agree *exactly* with
//!
//! 1. the per-query BFS reference methods on [`Analysis`] (the trusted
//!    slow path the engine replaces),
//! 2. the standard cubic CFA ([`Cfa0`]) under the `Exact` datatype policy
//!    (Propositions 1–2 compose with the engine's summary sweep),
//! 3. a quadratic [`DiGraph::transitive_closure`] oracle over the frozen
//!    graph itself (the SCC-condensed bit-parallel sweep is just packed
//!    reachability).
//!
//! Shrunk failures persist to `tests/devkit-regressions.txt`.

use stcfa::cfa0::Cfa0;
use stcfa::core::{Analysis, PolyAnalysis, QueryEngine};
use stcfa::graph::DiGraph;
use stcfa::lambda::Program;
use stcfa::workloads::cubic;
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

fn program_for(seed: u64, target_size: usize) -> Program {
    generate(&SynthConfig {
        seed,
        target_size,
        max_type_depth: 2,
        effect_prob: 0.05,
        max_tuple_width: 3,
        // Non-recursive datatype: the Exact policy terminates, so full
        // differential equality against the cubic CFA applies.
        datatypes: true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oracle 1: the engine reproduces every BFS reference method bit for
    /// bit — forward, membership, inverse, and all-sets.
    #[test]
    fn engine_equals_bfs_reference(seed in any::<u64>()) {
        let p = program_for(seed, 160);
        let a = Analysis::run(&p).expect("generated programs are bounded-type");
        let q = QueryEngine::freeze(&a);
        for e in p.exprs() {
            prop_assert_eq!(q.labels_of(e), a.labels_of(e), "at {:?} (seed {})", e, seed);
        }
        for v in p.vars() {
            prop_assert_eq!(q.labels_of_binder(v), a.labels_of_binder(v), "seed {}", seed);
        }
        for l in p.all_labels() {
            prop_assert_eq!(q.exprs_with_label(l), a.exprs_with_label(l), "seed {}", seed);
            for e in p.exprs().step_by(5) {
                prop_assert_eq!(q.label_reaches(e, l), a.label_reaches(e, l));
            }
        }
        prop_assert_eq!(q.all_label_sets(), a.all_label_sets(&p), "seed {}", seed);
        for app in p.app_sites() {
            prop_assert_eq!(q.call_targets(&p, app), a.call_targets(&p, app));
        }
    }

    /// Oracle 2: under the Exact policy the engine's label sets coincide
    /// with the standard cubic CFA's everywhere.
    #[test]
    fn engine_equals_standard_cfa(seed in any::<u64>()) {
        let p = program_for(seed, 160);
        let a = Analysis::run_with(
            &p,
            stcfa::core::AnalysisOptions {
                policy: stcfa::core::DatatypePolicy::Exact,
                max_nodes: None,
            },
        )
        .expect("generated programs are bounded-type");
        let q = QueryEngine::freeze(&a);
        let cfa = Cfa0::analyze(&p);
        for e in p.exprs() {
            prop_assert_eq!(q.labels_of(e), cfa.labels(&p, e), "at {:?} (seed {})", e, seed);
        }
        for v in p.vars() {
            prop_assert_eq!(q.labels_of_binder(v), cfa.var_labels(&p, v), "seed {}", seed);
        }
    }

    /// Oracle 3: the summary sweep is packed reachability — on the frozen
    /// graph itself, `labels_of` must equal what the quadratic
    /// transitive-closure oracle reads off the same node. Small programs:
    /// the oracle materializes the full closure.
    #[test]
    fn engine_equals_transitive_closure_oracle(seed in any::<u64>()) {
        let p = program_for(seed, 60);
        let a = Analysis::run(&p).expect("bounded");
        let q = QueryEngine::freeze(&a);
        let csr = q.csr();
        let mut g = DiGraph::with_nodes(csr.node_count());
        for (u, v) in csr.edges() {
            g.add_edge(u as usize, v as usize);
        }
        let closure = g.transitive_closure();
        for e in p.exprs() {
            let node = a.node_of_expr(e);
            let mut expected: Vec<_> = (0..csr.node_count())
                .filter(|&m| closure[node.index()].contains(m))
                .filter_map(|m| a.label_of_node(stcfa::core::NodeId::from_index(m)))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(
                q.labels_of(e), expected,
                "closure oracle mismatch at {:?} (seed {})", e, seed
            );
        }
    }
}

/// Satellite regression: `PolyAnalysis::exprs_with_label` once rebuilt the
/// occurrence map and re-walked shared predecessors per carrier; the fixed
/// single-pass version must still be the exact transpose of `labels_of` on
/// the paper's Section 10 cubic-benchmark family.
#[test]
fn poly_inverse_is_transpose_on_cubic_family() {
    for n in [2usize, 4, 8] {
        let p = cubic::program(n);
        let poly = PolyAnalysis::run(&p).expect("cubic programs are bounded");
        for l in p.all_labels() {
            let exprs = poly.exprs_with_label(&p, l);
            // Sorted and deduplicated output.
            let mut sorted = exprs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(exprs, sorted, "unsorted inverse at {l:?}, n={n}");
            for e in p.exprs() {
                assert_eq!(
                    exprs.binary_search(&e).is_ok(),
                    poly.labels_of(e).contains(&l),
                    "transpose mismatch at {e:?} / {l:?}, n={n}"
                );
            }
        }
    }
}

/// Pin the inverse query's answer sizes on the cubic family: each of the
/// `2n` abstractions flows to a stable set of occurrences, and the engine
/// agrees with the analysis exactly.
#[test]
fn inverse_query_pinned_on_cubic_family() {
    for n in [2usize, 4, 8] {
        let p = cubic::program(n);
        let a = Analysis::run(&p).unwrap();
        let q = QueryEngine::freeze(&a);
        assert_eq!(p.label_count(), 2 * n + 2, "2 shared + 2 per copy");
        let sizes: Vec<usize> = p
            .all_labels()
            .map(|l| q.exprs_with_label(l).len())
            .collect();
        for (l, &size) in p.all_labels().zip(&sizes) {
            assert_eq!(size, a.exprs_with_label(l).len(), "at {l:?}, n={n}");
            assert!(
                size > 0,
                "every cubic abstraction is used somewhere ({l:?}, n={n})"
            );
        }
        // The copies are symmetric: after the two shared functions
        // (`fs`, `bs`), each copy contributes one `fᵢ` and one `bᵢ` whose
        // answer sizes are identical across copies.
        let per_copy: Vec<&[usize]> = sizes[2..].chunks(2).collect();
        for (i, copy) in per_copy.iter().enumerate() {
            assert_eq!(
                *copy, per_copy[0],
                "copy {i} flow shape diverged at n={n}: {sizes:?}"
            );
        }
    }
}
