//! Differential gates for the adaptive precision scheduler
//! (`crates/precision`, docs/PRECISION.md).
//!
//! Over the corpus and proptest-synthesized programs, every graded
//! answer must relate to its neighbours exactly as the tier semantics
//! claim:
//!
//! - **monotone**: the scheduled answer is a subset of (or equal to)
//!   the Tier-0 subtransitive answer — escalation only ever shrinks;
//! - **sound**: the full cubic CFA answer is a subset of the scheduled
//!   answer — escalation never drops a real flow;
//! - **exact means exact**: a `PrecisionClass::Exact` grade (including
//!   every suspicion-0 certificate) coincides with full `Cfa0`;
//! - **refined means refined**: a `Refined` grade is strictly smaller
//!   than Tier 0 and still contains the cubic answer;
//! - **deterministic**: two independently built scheduler+engine pairs
//!   produce byte-identical graded transcripts;
//! - **`Forget` certifies nothing**: the policy cuts flow, so Tier 0 is
//!   no upper bound there and no answer is graded `exact`.

use stcfa::cfa0::Cfa0;
use stcfa::core::{Analysis, AnalysisOptions, DatatypePolicy, QueryEngine};
use stcfa::lambda::{ExprId, ExprKind, Label, Program};
use stcfa::precision::{PrecisionClass, PrecisionScheduler, SuspicionIndex, Tier};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).expect("readable"),
            )
        })
        .collect()
}

fn subset(sub: &[Label], sup: &[Label]) -> bool {
    sub.iter().all(|l| sup.contains(l))
}

/// The query sites the scheduler is exercised at: the program root plus
/// the operator of every application (the `--call-sites` surface).
fn sites(p: &Program) -> Vec<ExprId> {
    let mut out = vec![p.root()];
    for app in p.app_sites() {
        if let ExprKind::App { func, .. } = p.kind(app) {
            out.push(*func);
        }
    }
    out
}

/// Runs the scheduler over every site of `p` and checks the tier
/// semantics against Tier 0 and the full cubic oracle. Returns a
/// transcript line per site for the determinism check.
fn check_grades(name: &str, p: &Program, policy: DatatypePolicy) -> String {
    let a = Analysis::run_with(
        p,
        AnalysisOptions {
            policy,
            max_nodes: None,
        },
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    let engine = QueryEngine::freeze(&a);
    let sched = PrecisionScheduler::new(
        SuspicionIndex::build(&a, &engine),
        policy,
        PrecisionScheduler::DEFAULT_BUDGET,
    );
    let cfa = Cfa0::analyze(p);
    let mut transcript = String::new();
    for e in sites(p) {
        let t0 = engine.labels_of(e);
        let (ans, info) = sched.labels_of(p, &engine, e);
        assert!(
            subset(&ans, &t0),
            "{name} @ {e:?}: scheduled answer is not a subset of Tier 0 \
             ({ans:?} vs {t0:?})"
        );
        let oracle = cfa.labels(p, e);
        if policy != DatatypePolicy::Forget {
            // Under merging policies the congruences only ever ADD flow,
            // so Tier 0 over-approximates the cubic oracle.
            assert!(
                subset(&oracle, &t0),
                "{name} @ {e:?}: Tier 0 is not an upper bound of cubic \
                 ({t0:?} vs {oracle:?})"
            );
            if info.suspicion == 0 {
                assert_eq!(
                    t0, oracle,
                    "{name} @ {e:?}: suspicion-0 certificate is wrong"
                );
            }
            if info.tier == Tier::Cone {
                // The cone ran: the answer was intersected with (hence
                // confirmed against) the cubic oracle at this site.
                assert!(
                    subset(&ans, &oracle),
                    "{name} @ {e:?}: cone-confirmed answer exceeds cubic \
                     ({ans:?} vs {oracle:?})"
                );
            }
            match info.class {
                PrecisionClass::Exact => assert_eq!(
                    ans, oracle,
                    "{name} @ {e:?}: graded exact but differs from cubic"
                ),
                PrecisionClass::Refined => assert!(
                    ans.len() < t0.len(),
                    "{name} @ {e:?}: graded refined but did not shrink"
                ),
                PrecisionClass::Approx => {}
            }
        } else {
            assert_eq!(
                info.tier,
                Tier::Sub,
                "{name} @ {e:?}: Forget must never escalate"
            );
            assert_eq!(ans, t0, "{name} @ {e:?}: Forget must answer at Tier 0");
            assert_ne!(
                info.class,
                PrecisionClass::Exact,
                "{name} @ {e:?}: Forget cuts flow, so no grade is exact \
                 (suspicion {}, cubic {oracle:?})",
                info.suspicion
            );
        }
        use std::fmt::Write as _;
        let _ = writeln!(
            transcript,
            "{name}@{}: {:?} [{} t{} s{}]",
            e.index(),
            ans.iter().map(|l| l.index()).collect::<Vec<_>>(),
            info.class.as_str(),
            info.tier.level(),
            info.suspicion
        );
    }
    transcript
}

#[test]
fn corpus_grades_are_sound_and_deterministic() {
    let mut refined_somewhere = false;
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let first = check_grades(&name, &p, DatatypePolicy::Congruence1);
        let second = check_grades(&name, &p, DatatypePolicy::Congruence1);
        assert_eq!(
            first, second,
            "{name}: graded transcript is not deterministic"
        );
        refined_somewhere |= first.contains("[refined");
    }
    // The acceptance bar: at the default budget, at least one corpus
    // query site demonstrably refines.
    assert!(
        refined_somewhere,
        "no corpus query site refined at the default budget"
    );
}

#[test]
fn corpus_grades_hold_under_every_policy() {
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for policy in [
            DatatypePolicy::Congruence2,
            DatatypePolicy::Exact,
            DatatypePolicy::Forget,
        ] {
            check_grades(&name, &p, policy);
        }
    }
}

/// `Forget` cuts the flow through the datatype: the operator of
/// `(#1 r) 3` has an empty Tier-0 set and a cone that scores 0, while
/// cubic 0-CFA resolves it to `λy`. Neither fact may certify it.
#[test]
fn forget_grades_a_cut_flow_approx() {
    let src = "datatype box = B of ((int -> int) * int);\n\
               case B((fn y => y, 1)) of B(r) => (#1 r) 3";
    let p = Program::parse(src).unwrap();
    check_grades("cut flow", &p, DatatypePolicy::Forget);
    let a = Analysis::run_with(
        &p,
        AnalysisOptions {
            policy: DatatypePolicy::Forget,
            max_nodes: None,
        },
    )
    .unwrap();
    let engine = QueryEngine::freeze(&a);
    let index = SuspicionIndex::build(&a, &engine);
    let cfa = Cfa0::analyze(&p);
    let cut = sites(&p)
        .into_iter()
        .find(|&f| engine.labels_of(f).is_empty() && !cfa.labels(&p, f).is_empty())
        .expect("the case lost its point: no operator's flow is cut under Forget");
    assert_eq!(index.of_expr(&engine, cut), 0);
    let sched = PrecisionScheduler::new(
        index,
        DatatypePolicy::Forget,
        PrecisionScheduler::DEFAULT_BUDGET,
    );
    let (_, info) = sched.labels_of(&p, &engine, cut);
    assert_eq!(info.class, PrecisionClass::Approx);
}

#[test]
fn zero_budget_never_runs_the_cubic_tier() {
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let a = Analysis::run(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        let engine = QueryEngine::freeze(&a);
        let sched = PrecisionScheduler::new(
            SuspicionIndex::build(&a, &engine),
            DatatypePolicy::Congruence1,
            0,
        );
        for e in sites(&p) {
            let (ans, info) = sched.labels_of(&p, &engine, e);
            assert_ne!(
                info.tier,
                Tier::Cone,
                "{name} @ {e:?}: cone tier ran with a zero budget"
            );
            assert!(
                subset(&ans, &engine.labels_of(e)),
                "{name} @ {e:?}: budget-starved answer exceeds Tier 0"
            );
        }
        assert_eq!(sched.stats().cone_runs, 0, "{name}: budget was not honored");
    }
}

/// The scheduler must answer every tier on the caller's thread: on a
/// single-CPU host (this project's reference box) spawning workers per
/// escalation would oversubscribe the core and destroy the latency the
/// tiering exists to protect. `/proc/self/status` is authoritative on
/// Linux; elsewhere the check degrades to running the workload.
#[test]
fn scheduler_spawns_no_threads() {
    fn thread_count() -> Option<usize> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
    }
    let before = thread_count();
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_grades(&name, &p, DatatypePolicy::Congruence1);
    }
    let after = thread_count();
    assert_eq!(
        before, after,
        "escalation must not change the process thread count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn synthesized_grades_are_sound_and_deterministic(seed in any::<u64>()) {
        let p = generate(&SynthConfig {
            seed,
            target_size: 160,
            max_type_depth: 2,
            effect_prob: 0.05,
            max_tuple_width: 3,
            datatypes: true,
        });
        let name = format!("seed {seed}");
        let first = check_grades(&name, &p, DatatypePolicy::Congruence1);
        let second = check_grades(&name, &p, DatatypePolicy::Congruence1);
        prop_assert_eq!(first, second, "seed {}: transcript not deterministic", seed);
    }
}
