//! Lint determinism properties: the finding set must be stable under
//! alpha-renaming of the input program (binders are identities, so
//! renaming must not move, add, or drop any diagnostic).

use stcfa::core::{Analysis, QueryEngine};
use stcfa::lambda::Program;
use stcfa::lint::{lint, Diagnostic, LintOptions};
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

fn lint_of(p: &Program) -> Vec<Diagnostic> {
    let a = Analysis::run(p).expect("synth programs analyze");
    let engine = QueryEngine::freeze(&a);
    lint(p, &a, &engine, &LintOptions::default())
}

/// The alpha-stable fingerprint of one diagnostic: everything except the
/// message text (messages embed binder names, which renaming changes).
fn fingerprint(d: &Diagnostic) -> (&'static str, &'static str, usize) {
    (d.code.as_str(), d.severity.as_str(), d.expr.index())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn diagnostics_stable_under_alpha_renaming(seed in any::<u64>()) {
        let p = program_for(seed);
        // Keep desugaring machinery (`$…`) and intentional-unused (`_…`)
        // prefixes so the rename is semantics- and exemption-preserving.
        let q = p.rename_binders(|name, i| {
            if name.starts_with('$') {
                name.to_owned()
            } else {
                format!("{name}_r{i}")
            }
        });
        let dp = lint_of(&p);
        let dq = lint_of(&q);
        let fp: Vec<_> = dp.iter().map(fingerprint).collect();
        let fq: Vec<_> = dq.iter().map(fingerprint).collect();
        prop_assert_eq!(fp, fq, "alpha-renaming changed the findings (seed {})", seed);
    }
}

/// A parsed program's diagnostics all carry spans, which the renderers
/// embed as line:col positions.
#[test]
fn parsed_program_reports_are_thread_stable() {
    let src = "fun ghost x = x;\n\
               fun konst a b = a;\n\
               fun apply f v = f v;\n\
               let val box = (1, 2) in\n\
               let val dead = #1 box in\n\
               (apply (fn u => u + 1) (konst 1 2)) + dead 9 end end";
    let p = Program::parse(src).expect("parses");
    let base = lint_of(&p);
    assert!(!base.is_empty(), "fixture should produce diagnostics");
    assert!(
        base.iter().all(|d| d.span.is_some()),
        "parsed programs carry spans"
    );
}
