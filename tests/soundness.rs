//! Dynamic soundness: whatever actually happens when a program runs must
//! have been predicted by every static analysis.
//!
//! The evaluator records, for every application that fires, the label of
//! the applied closure at the operator occurrence — the definition of CFA
//! soundness specialized to call-by-value executions (which are a subset
//! of the arbitrary-order β-reductions the paper quantifies over).
//!
//! Each property lives in a named `check_*` function taking the generator
//! seed, so the randomized suite and the pinned regression cases below run
//! the exact same bodies.

use stcfa::apps::effects;
use stcfa::cfa0::Cfa0;
use stcfa::core::{Analysis, AnalysisOptions, DatatypePolicy, PolyAnalysis, QueryEngine};
use stcfa::lambda::eval::{eval, EvalOptions};
use stcfa::unify::UnifyCfa;
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

fn program_for(seed: u64) -> stcfa::lambda::Program {
    generate(&SynthConfig {
        seed,
        target_size: 140,
        max_type_depth: 2,
        effect_prob: 0.15,
        max_tuple_width: 3,
        datatypes: true,
    })
}

fn check_every_dynamic_call_is_predicted(seed: u64) -> TestCaseResult {
    let p = program_for(seed);
    let out = eval(
        &p,
        EvalOptions {
            fuel: 2_000_000,
            inputs: vec![],
            max_depth: None,
        },
    )
    .expect("generated programs terminate");

    let cfa = Cfa0::analyze(&p);
    let sub = Analysis::run(&p).expect("bounded");
    let poly = PolyAnalysis::run(&p).expect("bounded");
    let uni = UnifyCfa::analyze(&p);

    for (func_occ, label) in &out.trace.calls {
        prop_assert!(
            cfa.labels(&p, *func_occ).contains(label),
            "cubic CFA missed dynamic call of {:?} at {:?} (seed {})",
            label,
            func_occ,
            seed
        );
        prop_assert!(
            sub.labels_of(*func_occ).contains(label),
            "subtransitive missed dynamic call of {:?} at {:?} (seed {})",
            label,
            func_occ,
            seed
        );
        prop_assert!(
            poly.labels_of(*func_occ).contains(label),
            "polyvariant missed dynamic call of {:?} at {:?} (seed {})",
            label,
            func_occ,
            seed
        );
        prop_assert!(
            uni.labels(*func_occ).contains(label),
            "unification missed dynamic call of {:?} at {:?} (seed {})",
            label,
            func_occ,
            seed
        );
    }

    // The final value, if a closure, must be predicted at the root.
    if let Some(l) = out.value.label() {
        prop_assert!(sub.labels_of(p.root()).contains(&l));
        prop_assert!(poly.labels_of(p.root()).contains(&l));
    }
    Ok(())
}

fn check_every_dynamic_effect_is_predicted(seed: u64) -> TestCaseResult {
    let p = program_for(seed);
    let out = eval(
        &p,
        EvalOptions {
            fuel: 2_000_000,
            inputs: vec![],
            max_depth: None,
        },
    )
    .expect("terminates");
    let sub = Analysis::run(&p).expect("bounded");
    let eff = effects(&p, &sub);
    for at in &out.trace.effects {
        prop_assert!(
            eff.is_effectful(*at),
            "static effects analysis missed runtime effect at {:?} (seed {})",
            at,
            seed
        );
    }
    // Purity claims must also hold up: a program whose root is not
    // flagged may not print.
    if !eff.is_effectful(p.root()) {
        prop_assert!(
            out.outputs.is_empty(),
            "unflagged program printed (seed {seed})"
        );
    }
    Ok(())
}

fn check_klimited_matches_truncation(seed: u64) -> TestCaseResult {
    let p = program_for(seed);
    let sub = Analysis::run(&p).expect("bounded");
    for k in 1..=3usize {
        let kl = stcfa::apps::KLimited::run(&sub, k);
        for e in p.exprs() {
            let full = sub.labels_of(e);
            let got = kl.of_expr(&sub, e);
            if full.len() <= k {
                prop_assert_eq!(got.as_small(), Some(full.as_slice()));
            } else {
                prop_assert!(got.is_many());
            }
        }
    }
    Ok(())
}

/// The called-once sweep over the frozen condensation against the
/// query-per-site reference, under every datatype policy. A program whose
/// closure passes the default node budget under a policy is skipped there.
fn check_called_once_matches_reference(seed: u64) -> TestCaseResult {
    let p = program_for(seed);
    for policy in [
        DatatypePolicy::Congruence1,
        DatatypePolicy::Congruence2,
        DatatypePolicy::Exact,
        DatatypePolicy::Forget,
    ] {
        let options = AnalysisOptions {
            policy,
            max_nodes: None,
        };
        let Ok(sub) = Analysis::run_with(&p, options) else {
            continue;
        };
        let fast = stcfa::apps::CalledOnce::run(&p, &QueryEngine::freeze(&sub));
        let slow = stcfa::apps::CalledOnce::via_queries(&p, &sub);
        for l in p.all_labels() {
            prop_assert_eq!(
                fast.of(l),
                slow.of(l),
                "label {:?} under {:?} (seed {})",
                l,
                policy,
                seed
            );
        }
    }
    Ok(())
}

/// The reachability-aware analysis must mark every occurrence the
/// evaluator actually touched as live, predict every fired call, and
/// never exceed the standard analysis's sets.
fn check_liveness_is_sound_and_precise(seed: u64) -> TestCaseResult {
    let p = program_for(seed);
    let out = eval(
        &p,
        EvalOptions {
            fuel: 2_000_000,
            inputs: vec![],
            max_depth: None,
        },
    )
    .expect("terminates");
    let live = stcfa::cfa0::LiveCfa0::analyze(&p);
    let full = Cfa0::analyze(&p);
    for e in &out.trace.evaluated {
        prop_assert!(
            live.is_live(*e),
            "evaluated occurrence {:?} not marked live (seed {})",
            e,
            seed
        );
    }
    for (func_occ, label) in &out.trace.calls {
        prop_assert!(
            live.labels(&p, *func_occ).contains(label),
            "live analysis missed dynamic call of {:?} (seed {})",
            label,
            seed
        );
    }
    for e in p.exprs() {
        let l = live.labels(&p, e);
        let f = full.labels(&p, e);
        for lab in &l {
            prop_assert!(f.contains(lab), "live invented {:?} (seed {})", lab, seed);
        }
    }
    Ok(())
}

fn check_effects_colouring_matches_reference(seed: u64) -> TestCaseResult {
    let p = program_for(seed);
    // Exact datatype policy so the graph's precision matches the cubic
    // reference's — only then is per-occurrence *equality* the right
    // property. (Under ≈₁ the colouring soundly over-approximates when
    // effectful closures are stored in datatypes; that direction is
    // covered by `every_dynamic_effect_is_predicted`.)
    let sub = Analysis::run_with(
        &p,
        AnalysisOptions {
            policy: DatatypePolicy::Exact,
            max_nodes: None,
        },
    )
    .expect("bounded");
    let fast = effects(&p, &sub);
    let cfa = Cfa0::analyze(&p);
    let slow = stcfa::apps::effects_via_cfa0(&p, &cfa);
    for e in p.exprs() {
        prop_assert_eq!(
            fast.is_effectful(e),
            slow.is_effectful(e),
            "at {:?} (seed {})",
            e,
            seed
        );
    }
    Ok(())
}

/// Under the default ≈₁ congruence the colouring may only err on the
/// safe side relative to the exact reference.
fn check_effects_colouring_is_sound_under_congruence(seed: u64) -> TestCaseResult {
    let p = program_for(seed);
    let sub = Analysis::run(&p).expect("bounded");
    let fast = effects(&p, &sub);
    let cfa = Cfa0::analyze(&p);
    let slow = stcfa::apps::effects_via_cfa0(&p, &cfa);
    for e in p.exprs() {
        if slow.is_effectful(e) {
            prop_assert!(
                fast.is_effectful(e),
                "colouring under ≈₁ missed an effect at {:?} (seed {})",
                e,
                seed
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_dynamic_call_is_predicted(seed in any::<u64>()) {
        check_every_dynamic_call_is_predicted(seed)?;
    }

    #[test]
    fn every_dynamic_effect_is_predicted(seed in any::<u64>()) {
        check_every_dynamic_effect_is_predicted(seed)?;
    }

    #[test]
    fn klimited_matches_truncation(seed in any::<u64>()) {
        check_klimited_matches_truncation(seed)?;
    }

    #[test]
    fn called_once_matches_reference(seed in any::<u64>()) {
        check_called_once_matches_reference(seed)?;
    }

    #[test]
    fn liveness_is_sound_and_precise(seed in any::<u64>()) {
        check_liveness_is_sound_and_precise(seed)?;
    }

    #[test]
    fn effects_colouring_matches_reference(seed in any::<u64>()) {
        check_effects_colouring_matches_reference(seed)?;
    }

    #[test]
    fn effects_colouring_is_sound_under_congruence(seed in any::<u64>()) {
        check_effects_colouring_is_sound_under_congruence(seed)?;
    }
}

/// Historical proptest shrink result (from the deleted
/// `tests/soundness.proptest-regressions`, entry `2ea654d1…`): generator
/// seed `719479625630613312` once broke this suite. Pinned as an explicit
/// always-run case so the failure keeps being exercised forever, across
/// test-harness migrations.
#[test]
fn regression_seed_719479625630613312() {
    const SEED: u64 = 719479625630613312;
    check_every_dynamic_call_is_predicted(SEED).unwrap();
    check_every_dynamic_effect_is_predicted(SEED).unwrap();
    check_klimited_matches_truncation(SEED).unwrap();
    check_called_once_matches_reference(SEED).unwrap();
    check_liveness_is_sound_and_precise(SEED).unwrap();
    check_effects_colouring_matches_reference(SEED).unwrap();
    check_effects_colouring_is_sound_under_congruence(SEED).unwrap();
}
