//! Differential soundness of the oracle-confirmed rules against the
//! standard cubic CFA — the oracle the paper proves the subtransitive
//! analysis equivalent to (Propositions 1–2).
//!
//! Every `STCFA001` (flow-dead application) and `STCFA006` (stuck
//! application) diagnostic must have an exactly empty operator set. The
//! interesting direction is policy robustness: under the `Forget`
//! datatype policy the engine *under*-approximates, so an empty label set
//! no longer implies exact-empty — the lint layer's lazy oracle
//! cross-check is what keeps the rule sound there, and this suite is the
//! regression net over that cross-check.
//!
//! The rule-engine lints get the same treatment over the corpus: every
//! `STCFA007` operator really reaches both an effectful and a pure
//! abstraction under the exact analysis, and every `STCFA008`
//! application really has the singleton exact target it claims.

use stcfa::apps::effects;
use stcfa::cfa0::Cfa0;
use stcfa::core::{Analysis, AnalysisOptions, DatatypePolicy, QueryEngine};
use stcfa::lambda::{ExprKind, Label, Program};
use stcfa::lint::{lint, LintOptions, RuleCode};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

fn program_for(seed: u64) -> Program {
    generate(&SynthConfig {
        seed,
        target_size: 140,
        max_type_depth: 2,
        effect_prob: 0.15,
        max_tuple_width: 3,
        datatypes: true,
    })
}

fn assert_flow_dead_confirmed(p: &Program, policy: DatatypePolicy) -> TestCaseResult {
    // ≈₂ can legitimately exceed the close-phase node budget on synthetic
    // recursive datatypes; there is no finished graph to lint then.
    let Ok(a) = Analysis::run_with(
        p,
        AnalysisOptions {
            policy,
            max_nodes: None,
        },
    ) else {
        return Ok(());
    };
    let engine = QueryEngine::freeze(&a);
    let diags = lint(p, &a, &engine, &LintOptions::default());
    let cfa = Cfa0::analyze(p);
    for d in &diags {
        if !matches!(
            d.code,
            RuleCode::FlowDeadApplication | RuleCode::StuckApplication
        ) {
            continue;
        }
        let ExprKind::App { func, .. } = p.kind(d.expr) else {
            return Err(TestCaseError::fail(format!(
                "{} fired at non-application {:?}",
                d.code, d.expr
            )));
        };
        let oracle = cfa.labels(p, *func);
        prop_assert!(
            oracle.is_empty(),
            "{} at {:?} disputed by cubic CFA (policy {:?}): oracle says {:?}",
            d.code,
            d.expr,
            policy,
            oracle
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flow_dead_diagnostics_confirmed_by_cubic_cfa(seed in any::<u64>()) {
        let p = program_for(seed);
        assert_flow_dead_confirmed(&p, DatatypePolicy::Congruence1)?;
        assert_flow_dead_confirmed(&p, DatatypePolicy::Congruence2)?;
        assert_flow_dead_confirmed(&p, DatatypePolicy::Forget)?;
    }
}

/// The corpus programs, parsed, with their file names, in name order.
fn corpus() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus is populated");
    files
        .into_iter()
        .map(|file| {
            let name = file.display().to_string();
            let src = std::fs::read_to_string(&file).expect("readable");
            let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, p)
        })
        .collect()
}

/// The corpus files, under every datatype policy the CLI exposes — the
/// deterministic counterpart of the property above.
#[test]
fn corpus_flow_dead_diagnostics_confirmed() {
    for (name, p) in corpus() {
        for policy in [
            DatatypePolicy::Congruence1,
            DatatypePolicy::Congruence2,
            DatatypePolicy::Forget,
        ] {
            assert_flow_dead_confirmed(&p, policy).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn corpus_new_lints_are_oracle_sound() {
    let (mut mixed, mut redundant) = (0usize, 0usize);
    for (name, program) in corpus() {
        let analysis = Analysis::run(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        let engine = QueryEngine::freeze(&analysis);
        let diags = lint(&program, &analysis, &engine, &LintOptions::default());
        let cfa = Cfa0::analyze(&program);
        let eff = effects(&program, &analysis);
        let body_effectful = |l: Label| match program.kind(program.lam_of_label(l)) {
            ExprKind::Lam { body, .. } => eff.is_effectful(*body),
            _ => false,
        };
        for d in &diags {
            match d.code {
                RuleCode::TaintedEffectfulFlow => {
                    mixed += 1;
                    let ExprKind::App { func, .. } = program.kind(d.expr) else {
                        panic!("{name}: STCFA007 must sit at an application");
                    };
                    let exact = cfa.labels(&program, *func);
                    assert!(
                        exact.iter().any(|&l| body_effectful(l))
                            && exact.iter().any(|&l| !body_effectful(l)),
                        "{name}: STCFA007 at {:?} is not exactly mixed",
                        d.expr
                    );
                }
                RuleCode::DominatedRedundantApplication => {
                    redundant += 1;
                    let ExprKind::App { func, .. } = program.kind(d.expr) else {
                        panic!("{name}: STCFA008 must sit at an application");
                    };
                    let exact = cfa.labels(&program, *func);
                    let approx = engine.labels_of(*func);
                    assert_eq!(
                        approx.len(),
                        1,
                        "{name}: STCFA008 requires a singleton engine target"
                    );
                    assert_eq!(
                        exact, approx,
                        "{name}: STCFA008 target disagrees with the oracle"
                    );
                }
                _ => {}
            }
        }
    }
    // A rule that went silent on the corpus would make its half of this
    // gate vacuous.
    assert!(mixed > 0, "STCFA007 never fired on the corpus");
    assert!(redundant > 0, "STCFA008 never fired on the corpus");
}
