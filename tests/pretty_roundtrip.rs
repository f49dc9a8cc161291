//! Pretty-printer round-trip gate: `parse(pretty(p))` must reproduce the
//! program up to alpha-renaming, with identical label structure.
//!
//! The optimizer's `--emit` output and the daemon's `"emit":true` field
//! are both `Program::to_source` text, so this property is what makes an
//! emitted program a faithful artifact: re-parsing it yields the same
//! occurrence arena (sizes, label count, per-abstraction subtree shape)
//! and printing again is a fixed point (the printed form is a normal
//! form, which is the working alpha-equivalence witness given the
//! printer's deterministic binder renaming).

use stcfa::lambda::{ExprId, Program};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

fn subtree_size(p: &Program, e: ExprId) -> usize {
    let mut n = 1;
    p.for_each_child(e, |c| n += subtree_size(p, c));
    n
}

fn assert_round_trips(name: &str, p: &Program) {
    let printed = p.to_source();
    let q = Program::parse(&printed)
        .unwrap_or_else(|e| panic!("{name}: emitted source fails to re-parse: {e}\n{printed}"));
    let reprinted = q.to_source();
    assert_eq!(
        printed, reprinted,
        "{name}: printed form is not a normal form"
    );
    assert_eq!(
        p.size(),
        q.size(),
        "{name}: round trip changed the arena size"
    );
    assert_eq!(
        p.label_count(),
        q.label_count(),
        "{name}: round trip changed the abstraction count"
    );
    for (l1, l2) in p.all_labels().zip(q.all_labels()) {
        assert_eq!(
            subtree_size(p, p.lam_of_label(l1)),
            subtree_size(&q, q.lam_of_label(l2)),
            "{name}: abstraction {l1:?} changed shape across the round trip"
        );
    }
}

#[test]
fn corpus_round_trips() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("corpus directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "ml") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).unwrap();
            let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_round_trips(&name, &p);
            checked += 1;
        }
    }
    assert!(checked >= 5, "corpus should not shrink silently");
}

/// Shapes the parser accepts close to its nesting limit whose
/// defensively parenthesized print nests past it: each must print flat
/// and round-trip. A debug build needs a big stack at these depths.
#[test]
fn deep_shapes_round_trip() {
    let shapes = [
        (
            "990 projections",
            format!("fun f x = {}x", "#1 ".repeat(990)),
        ),
        (
            "700 cases nested in last arms",
            format!(
                "datatype t = C of int;\nfun g z = {}y",
                "case z of C(y) => ".repeat(700)
            ),
        ),
        (
            "50 vals over 990 nots",
            format!("{}{}true", "val x = 1;\n".repeat(50), "not ".repeat(990)),
        ),
    ];
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            for (name, src) in shapes {
                let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_round_trips(name, &p);
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_programs_round_trip(seed in any::<u64>()) {
        let p = generate(&SynthConfig {
            seed,
            target_size: 200,
            max_type_depth: 2,
            effect_prob: 0.1,
            max_tuple_width: 3,
            datatypes: true,
        });
        let printed = p.to_source();
        let q = Program::parse(&printed);
        prop_assert!(q.is_ok(), "seed {}: emitted source fails to re-parse: {:?}", seed, q.err());
        let q = q.unwrap();
        prop_assert_eq!(&printed, &q.to_source(), "seed {}: not a normal form", seed);
        prop_assert_eq!(p.size(), q.size(), "seed {}: arena size changed", seed);
        prop_assert_eq!(p.label_count(), q.label_count(), "seed {}: label count changed", seed);
        for (l1, l2) in p.all_labels().zip(q.all_labels()) {
            prop_assert_eq!(
                subtree_size(&p, p.lam_of_label(l1)),
                subtree_size(&q, q.lam_of_label(l2)),
                "seed {}: abstraction shape changed", seed
            );
        }
    }
}
