//! Corpus-wide differential suite for the flow-directed optimizer.
//!
//! Three properties, checked on every corpus program under **every**
//! pass combination and on a pool of generated well-typed programs:
//!
//! - **agreement** — the optimized program and the original evaluate to
//!   structurally equal results with identical outputs (or the original
//!   exhausts its fuel/depth budget, which licenses anything);
//! - **monotone findings** — re-analyzing the optimized program yields
//!   no new warning- or error-severity `STCFA001`–`STCFA008` findings
//!   per code: the optimizer must consume problems, never manufacture
//!   them. Info-severity advisories (`STCFA003` called-once, `STCFA008`
//!   dominated-redundant) are exempt by design: eliding a dead call site
//!   legitimately *creates* inlining opportunities at the surviving
//!   sites (`dead_code.ml` demonstrates this — removing `(spin 0) 3`
//!   leaves `spin` called from exactly one place). `STCFA002`
//!   never-invoked is bounded by the original's *live* never-invoked
//!   count instead (see [`live_never_invoked`]), for the same reason:
//!   deleting dead code can delete an abstraction's only call sites;
//! - **shrinkage** — no rewrite ever grows the program, and at least one
//!   corpus program gets strictly smaller under the default pipeline.
//!
//! Thread sensitivity rides on `STCFA_QUERY_THREADS` (ci runs the suite
//! at 1, 2, and 8): evidence batching must not change any decision.

use stcfa::cfa0::LiveCfa0;
use stcfa::core::{Analysis, QueryEngine};
use stcfa::lambda::eval::EvalOptions;
use stcfa::lambda::{ExprKind, Program};
use stcfa::lint::evidence::is_machinery;
use stcfa::lint::{lint, LintOptions, RuleCode, Severity};
use stcfa::opt::{optimize, oracle, OptOptions, Pass, PassSet};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

fn threads() -> usize {
    std::env::var("STCFA_QUERY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("corpus directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "ml") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    assert!(out.len() >= 5, "corpus should not shrink silently");
    out.sort();
    out
}

fn eval_options() -> EvalOptions {
    EvalOptions {
        fuel: 5_000_000,
        inputs: vec![],
        max_depth: Some(100_000),
    }
}

fn opt_options(passes: PassSet) -> OptOptions {
    OptOptions {
        passes,
        threads: threads(),
        ..OptOptions::default()
    }
}

/// Per-code finding counts from a fresh analysis of `p`.
fn finding_counts(p: &Program) -> [usize; 8] {
    let a = Analysis::run(p).expect("analyzes");
    let e = QueryEngine::freeze(&a);
    let diags = lint(p, &a, &e, &LintOptions { threads: threads() });
    let mut out = [0usize; 8];
    for d in diags {
        let i = RuleCode::all()
            .iter()
            .position(|c| *c == d.code)
            .expect("known code");
        out[i] += 1;
    }
    out
}

/// The original program's live never-invoked count: abstractions that
/// are not desugaring machinery, do not escape to the program result,
/// and have no call site that [`LiveCfa0`] marks live.
///
/// `STCFA002` reads call sites off the engine, which under the default
/// policy over-approximates the cubic analysis and counts call sites in
/// dead code too, so this count is at least the original's `STCFA002`
/// count. Optimizing deletes dead code: prune-params can
/// replace an argument `fn x => …` that flows only into an unused
/// parameter with `()`, and with it the only (dead) call sites of the
/// abstractions its body applied. Those become true never-invoked
/// findings, so the optimized program's `STCFA002` count is bounded by
/// this count, not by the original's `STCFA002` count.
fn live_never_invoked(p: &Program) -> usize {
    let a = Analysis::run(p).expect("analyzes");
    let escaping = QueryEngine::freeze(&a).labels_of(p.root());
    let live = LiveCfa0::analyze(p);
    let mut invoked = vec![false; p.label_count()];
    for e in p.exprs().filter(|&e| live.is_live(e)) {
        if let ExprKind::App { func, .. } = p.kind(e) {
            for l in live.labels(p, *func) {
                invoked[l.index()] = true;
            }
        }
    }
    p.all_labels()
        .filter(|&l| {
            let lam = p.lam_of_label(l);
            !is_machinery(p, lam) && escaping.binary_search(&l).is_err() && !invoked[l.index()]
        })
        .count()
}

/// What the monotone-findings property compares an optimized program
/// against: the original's per-code finding counts and its live
/// never-invoked count.
struct Baseline {
    counts: [usize; 8],
    live_never_invoked: usize,
}

impl Baseline {
    fn of(p: &Program) -> Baseline {
        Baseline {
            counts: finding_counts(p),
            live_never_invoked: live_never_invoked(p),
        }
    }

    /// The monotone-findings property: no warning- or error-severity
    /// code gains findings, except that `STCFA002` may rise up to the
    /// live never-invoked count.
    fn check(&self, optimized: &Program) -> Result<(), String> {
        let after = finding_counts(optimized);
        for (i, code) in RuleCode::all().iter().enumerate() {
            if code.severity() == Severity::Info {
                continue; // advisories may be created by dead-code removal
            }
            let bound = match code {
                RuleCode::NeverInvokedAbstraction => self.live_never_invoked,
                _ => self.counts[i],
            };
            if after[i] > bound {
                return Err(format!(
                    "optimization created new {code} findings ({} -> {}, bound {bound})",
                    self.counts[i], after[i]
                ));
            }
        }
        Ok(())
    }
}

/// All 16 subsets of the four passes.
fn all_pass_sets() -> Vec<PassSet> {
    let all = Pass::all();
    (0u32..16)
        .map(|mask| {
            all.iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .fold(PassSet::empty(), |s, (_, &p)| s.with(p))
        })
        .collect()
}

#[test]
fn corpus_agrees_under_every_pass_combination() {
    let eval_opts = eval_options();
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let baseline = Baseline::of(&p);
        for passes in all_pass_sets() {
            let out = optimize(&p, &opt_options(passes))
                .unwrap_or_else(|e| panic!("{name} ({passes:?}): {e}"));
            oracle::check(&p, &out.program, &eval_opts)
                .unwrap_or_else(|e| panic!("{name} ({passes:?}): oracle disagreement: {e}"));
            assert!(
                out.program.size() <= p.size(),
                "{name} ({passes:?}): optimization grew the program"
            );
            baseline
                .check(&out.program)
                .unwrap_or_else(|e| panic!("{name} ({passes:?}): {e}"));
        }
    }
}

#[test]
fn default_pipeline_shrinks_dead_code() {
    let mut any_shrank = false;
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap();
        let out = optimize(&p, &opt_options(PassSet::all())).unwrap();
        if out.program.size() < p.size() {
            any_shrank = true;
        }
        if name == "dead_code.ml" {
            assert!(
                out.program.size() < p.size(),
                "dead_code.ml must shrink under the default pipeline"
            );
        }
    }
    assert!(any_shrank, "no corpus program shrank under default passes");
}

#[test]
fn optimizing_twice_is_idempotent() {
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap();
        let once = optimize(&p, &opt_options(PassSet::all())).unwrap();
        let twice = optimize(&once.program, &opt_options(PassSet::all())).unwrap();
        assert_eq!(
            twice.report.performed_total(),
            0,
            "{name}: second run still rewrites"
        );
        assert_eq!(twice.program.size(), once.program.size());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn synth_programs_agree_after_optimization(seed in any::<u64>()) {
        let p = generate(&SynthConfig {
            seed,
            target_size: 200,
            max_type_depth: 2,
            effect_prob: 0.1,
            max_tuple_width: 3,
            datatypes: true,
        });
        let baseline = Baseline::of(&p);
        let out = optimize(&p, &opt_options(PassSet::all())).expect("optimizes");
        let verdict = oracle::check(&p, &out.program, &eval_options());
        prop_assert!(verdict.is_ok(), "seed {}: oracle disagreement: {:?}", seed, verdict);
        prop_assert!(out.program.size() <= p.size(), "seed {}: program grew", seed);
        let monotone = baseline.check(&out.program);
        prop_assert!(monotone.is_ok(), "seed {}: {:?}", seed, monotone);
    }
}
