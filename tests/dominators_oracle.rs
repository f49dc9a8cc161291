//! The shipped rule analyses against their specifications.
//!
//! Each analysis in `rules::analyses` is computed without evaluating
//! its rule program, and the program is its specification:
//!
//! - `rules::dominators` computes the call graph's immediate-dominator
//!   tree (Cooper–Harvey–Kennedy); `dominators_program()` is the
//!   stratified Datalog that `stcfa lint --explain STCFA008` prints.
//!   On every node pair the tree's `dominates` must be the program's
//!   `dom` relation, and STCFA008's tree sweep (`dominated_redundant`)
//!   must return exactly what the all-pairs witness filter over the
//!   program's relation returns.
//! - `tainted_exprs` and `expr_is_tainted` read label rows against a
//!   source mask; they must equal `taint_program()`'s `treach` over
//!   occurrence nodes, for four source sets: the effectful-bodied
//!   labels (the default), every label, none, and a seeded subset.
//! - `mixed_purity` reads each operator's label row against the
//!   effectful and pure masks; it must equal `mixed_purity_program()`'s
//!   report relation.
//!
//! The programs run through the rule engine's generic `Evaluator`.
//! Inputs: the corpus under every datatype policy (c1, c2, exact,
//! forget), synthesized programs over a range of seeds and sizes, and
//! 32-module × 12-declaration workspaces linked through `Workspace`
//! (the shape of the benchmark's edit sessions). The generated
//! workspaces have no effectful label, so the default source set alone
//! would prove nothing there.

use stcfa::core::{Analysis, AnalysisOptions, DatatypePolicy, QueryEngine};
use stcfa::graph::BitSet;
use stcfa::lambda::{ExprId, ExprKind, Label, Program};
use stcfa::rules::analyses::{dominators_program, mixed_purity_program, taint_program};
use stcfa::rules::{
    dominated_redundant, dominators, expr_is_tainted, mixed_purity, tainted_exprs,
    DominatedRedundant, Evaluator, ExtDb,
};
use stcfa::session::Workspace;
use stcfa::workloads::modules::{module_sources, ModulesConfig};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

/// The specification evaluated: per call-graph node, whether the entry
/// reaches it and the set of its dominators.
struct Spec {
    reach: BitSet,
    doms: Vec<BitSet>,
}

impl Spec {
    fn evaluate(db: &ExtDb<'_>) -> Spec {
        let (p, reach_rel, dom_rel) = dominators_program();
        let mut ev = Evaluator::new(&p, db).expect("program is well-formed");
        ev.run();
        let n = db.program().label_count() + 1;
        let mut reach = BitSet::new(n);
        for x in ev.unary(reach_rel) {
            reach.insert(x as usize);
        }
        let mut doms = vec![BitSet::new(n); n];
        for (node, d) in ev.pairs(dom_rel) {
            doms[node as usize].insert(d as usize);
        }
        Spec { reach, doms }
    }

    fn strictly_dominates(&self, d: usize, n: usize) -> bool {
        d != n && self.doms[n].contains(d)
    }
}

/// STCFA008's witness search as it was specified before the tree: for
/// every application with a singleton target and a reachable encloser,
/// the smallest other same-target application whose encloser strictly
/// dominates its own, by filtering every pair.
fn all_pairs_witnesses(db: &ExtDb<'_>, spec: &Spec) -> Vec<DominatedRedundant> {
    let program = db.program();
    let cg = db.callgraph();
    let mut by_target: Vec<Vec<(ExprId, ExprId, usize)>> = vec![Vec::new(); program.label_count()];
    for &app in db.app_sites() {
        let ExprKind::App { func, .. } = program.kind(app) else {
            continue;
        };
        if let [only] = db.engine().labels_of(*func)[..] {
            let enc = cg.encloser_of(app);
            if spec.reach.contains(enc) {
                by_target[only.index()].push((app, *func, enc));
            }
        }
    }
    let mut out = Vec::new();
    for (target, apps) in by_target.iter().enumerate() {
        for &(app, func, enc) in apps {
            let witness = apps
                .iter()
                .filter(|&&(other, _, oenc)| other != app && spec.strictly_dominates(oenc, enc))
                .map(|&(other, _, _)| other)
                .min();
            if let Some(by_app) = witness {
                out.push(DominatedRedundant {
                    app,
                    func,
                    target: stcfa::lambda::Label::from_index(target),
                    by_app,
                });
            }
        }
    }
    out.sort_by_key(|r| r.app);
    out
}

/// The taint functions against `taint_program()` under four source sets,
/// and `mixed_purity` against `mixed_purity_program()`. Returns the
/// number of mixed-purity candidates.
fn check_label_reads(db: &ExtDb<'_>, subset_seed: u64) -> Result<usize, TestCaseError> {
    let program = db.program();
    let engine = db.engine();
    let labels: Vec<Label> = program.all_labels().collect();
    let mut rng = Rng::seed_from_u64(subset_seed);
    let source_sets: [(&str, Vec<Label>); 4] = [
        (
            "effectful",
            labels
                .iter()
                .copied()
                .filter(|&l| db.label_is_effectful(l))
                .collect(),
        ),
        ("all", labels.clone()),
        ("no", Vec::new()),
        (
            "subset",
            labels
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.3))
                .collect(),
        ),
    ];
    let (taint, src_label, treach) = taint_program();
    for (name, sources) in &source_sets {
        let mut ev = Evaluator::new(&taint, db).expect("program is well-formed");
        for l in sources {
            ev.seed(src_label, &[l.index() as u32]);
        }
        ev.run();
        let want: Vec<ExprId> = program
            .exprs()
            .filter(|&e| ev.contains(treach, &[engine.node_of_expr(e).index() as u32]))
            .collect();
        prop_assert_eq!(
            tainted_exprs(db, sources),
            want.clone(),
            "tainted_exprs, {} sources",
            name
        );
        for e in program.exprs() {
            prop_assert_eq!(
                expr_is_tainted(db, sources, e),
                want.binary_search(&e).is_ok(),
                "expr_is_tainted({:?}), {} sources",
                e,
                name
            );
        }
    }
    let (mixed, report) = mixed_purity_program();
    let mut ev = Evaluator::new(&mixed, db).expect("program is well-formed");
    ev.run();
    let want: Vec<(ExprId, ExprId)> = ev
        .pairs(report)
        .into_iter()
        .map(|(a, f)| {
            (
                ExprId::from_index(a as usize),
                ExprId::from_index(f as usize),
            )
        })
        .collect();
    prop_assert_eq!(mixed_purity(db), want.clone());
    Ok(want.len())
}

/// Tree = program on every node pair, tree sweep = all-pairs filter,
/// and the label-row reads = their evaluated programs. Returns the
/// number of mixed-purity candidates.
fn check(
    program: &Program,
    analysis: &Analysis,
    engine: &QueryEngine,
    subset_seed: u64,
) -> Result<usize, TestCaseError> {
    let db = ExtDb::new(program, analysis, engine);
    let spec = Spec::evaluate(&db);
    let tree = dominators(&db);
    let n = program.label_count() + 1;
    prop_assert_eq!(tree.entry(), n - 1);
    for node in 0..n {
        prop_assert_eq!(
            tree.is_reachable(node),
            spec.reach.contains(node),
            "reach({})",
            node
        );
        for d in 0..n {
            prop_assert_eq!(
                tree.dominates(d, node),
                spec.doms[node].contains(d),
                "dominates({}, {})",
                d,
                node
            );
        }
        let listed: Vec<u32> = spec.doms[node].iter().map(|d| d as u32).collect();
        prop_assert_eq!(tree.doms_of(node), listed, "doms_of({})", node);
    }
    prop_assert_eq!(dominated_redundant(&db), all_pairs_witnesses(&db, &spec));
    check_label_reads(&db, subset_seed)
}

fn check_program(
    program: &Program,
    policy: DatatypePolicy,
    subset_seed: u64,
) -> Result<usize, TestCaseError> {
    let options = AnalysisOptions {
        policy,
        max_nodes: None,
    };
    let analysis = Analysis::run_with(program, options).expect("analysis within budget");
    let engine = QueryEngine::freeze(&analysis);
    check(program, &analysis, &engine, subset_seed)
}

fn synth(seed: u64, target_size: usize) -> Program {
    generate(&SynthConfig {
        seed,
        target_size,
        max_type_depth: 2,
        effect_prob: 0.15,
        max_tuple_width: 3,
        datatypes: true,
    })
}

#[test]
fn corpus_tree_matches_the_program() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus is populated");
    let policies = [
        DatatypePolicy::Congruence1,
        DatatypePolicy::Congruence2,
        DatatypePolicy::Exact,
        DatatypePolicy::Forget,
    ];
    let mut mixed = 0;
    for (i, file) in files.iter().enumerate() {
        let name = file.display().to_string();
        let src = std::fs::read_to_string(file).expect("readable");
        let program = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for policy in policies {
            mixed += check_program(&program, policy, i as u64)
                .unwrap_or_else(|e| panic!("{name} ({policy:?}): {e}"));
        }
    }
    assert!(mixed > 0, "the corpus has mixed-purity candidates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synthesized_tree_matches_the_program(seed in any::<u64>(), size in 20usize..400) {
        check_program(&synth(seed, size), DatatypePolicy::Congruence1, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The benchmark's edit-session shape: 32 modules of 12
    /// declarations, linked module by module.
    #[test]
    fn linked_workspace_tree_matches_the_program(seed in any::<u64>()) {
        let mut ws = Workspace::new(Default::default());
        let modules = module_sources(&ModulesConfig {
            seed,
            modules: 32,
            decls_per_module: 12,
            ..ModulesConfig::default()
        });
        for (name, source) in &modules {
            ws.upsert(name, source);
        }
        ws.link().expect("generated workspaces link");
        let snap = ws.freeze().expect("linked");
        let engine = snap.engine(&ws).expect("fresh snapshot");
        check(snap.program(), snap.analysis(), engine, seed)?;
    }
}
