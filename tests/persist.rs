//! Differential durability: a snapshot that goes through the persistent
//! tier (encode → disk → decode, or build → demote → warm restart via the
//! server cache) must answer every query *byte-identically* to the engine
//! it was built from — across the whole corpus, under every datatype
//! policy.

use stcfa::core::{Analysis, AnalysisOptions, DatatypePolicy, Query, QueryEngine};
use stcfa::lambda::Program;
use stcfa::persist::{decode, encode, SnapshotImage};
use stcfa::server::{SnapshotKey, SnapshotStore};
use stcfa_devkit::hash::Fnv1a;

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

/// Every query kind the batch API carries, over the whole program.
fn all_queries(p: &Program) -> Vec<Query> {
    let mut queries: Vec<Query> = p.exprs().map(Query::LabelsOf).collect();
    queries.extend(p.vars().map(Query::LabelsOfBinder));
    queries.extend(p.all_labels().map(Query::ExprsWithLabel));
    queries.extend(
        p.exprs()
            .step_by(3)
            .flat_map(|e| p.all_labels().map(move |l| Query::Member(e, l))),
    );
    queries
}

/// Cold and warm engines must agree on the full batch, and on the point
/// queries that bypass the batch API.
fn assert_identical(name: &str, p: &Program, cold: &QueryEngine, warm: &QueryEngine) {
    let queries = all_queries(p);
    assert_eq!(
        warm.batch(&queries),
        cold.batch(&queries),
        "{name}: warm batch diverged"
    );
    for app in p.app_sites() {
        assert_eq!(
            warm.call_targets(p, app),
            cold.call_targets(p, app),
            "{name}: call targets diverged"
        );
    }
    assert_eq!(
        warm.all_label_sets(),
        cold.all_label_sets(),
        "{name}: all-sets listing diverged"
    );
}

fn policies() -> [(DatatypePolicy, u64); 4] {
    [
        (DatatypePolicy::Congruence1, 0),
        (DatatypePolicy::Congruence2, 1),
        (DatatypePolicy::Exact, 2),
        (DatatypePolicy::Forget, 3),
    ]
}

/// Direct format round trip: encode the frozen engine, decode it, and
/// compare answers — every corpus file, every policy, from a swept and
/// from a demand-only engine (the image holds no summary rows either
/// way).
#[test]
fn decoded_corpus_snapshots_answer_identically() {
    for (name, src) in corpus() {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (policy, disc) in policies() {
            let a = Analysis::run_with(
                &p,
                AnalysisOptions {
                    policy,
                    max_nodes: None,
                },
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            for prepare in [false, true] {
                let cold = QueryEngine::freeze(&a);
                if prepare {
                    cold.prepare();
                }
                let bytes = encode(&SnapshotImage {
                    digest: Fnv1a::digest_parts(src.as_bytes(), &[disc, 0]),
                    policy: disc,
                    engine_disc: 0,
                    source: &src,
                    engine: &cold,
                    suspicion: None,
                    linked: false,
                });
                let warm = decode(&bytes)
                    .unwrap_or_else(|e| panic!("{name} (policy {disc}): decode failed: {e}"));
                assert_eq!(warm.source, src, "{name}: source did not round-trip");
                assert_identical(&name, &p, &cold, &warm.engine);
            }
        }
    }
}

/// The server's warm-restart path: build through a disk-backed store,
/// drop the store (the daemon "exits"), then open a fresh store over the
/// same directory — every corpus digest must load from disk (no rebuild)
/// and answer identically to the cold build.
#[test]
fn warm_restarted_store_answers_identically_across_corpus() {
    let dir =
        std::env::temp_dir().join(format!("stcfa-persist-test-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let corpus = corpus();
    let build = |src: &str| {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        let engine = QueryEngine::freeze(&a);
        engine.prepare();
        (p, a, engine)
    };

    // Cold pass: every build is a miss, every snapshot is persisted.
    let cold_store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
    let mut colds = Vec::new();
    for (name, src) in &corpus {
        let key = SnapshotKey::derive(src, 0, 0);
        let (snapshot, cached) = cold_store
            .get_or_build(key, src, {
                let src = src.clone();
                move || {
                    let (p, a, engine) = build(&src);
                    Ok(stcfa::server::Snapshot::built(
                        p,
                        a,
                        engine,
                        src,
                        0,
                        DatatypePolicy::default(),
                        0,
                        0,
                    ))
                }
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!cached, "{name}: first build must be a miss");
        colds.push((key, snapshot));
    }
    let cold_stats = cold_store.stats();
    assert_eq!(cold_stats.misses, corpus.len() as u64);
    assert_eq!(cold_stats.disk_writes, corpus.len() as u64);
    assert_eq!(cold_stats.disk_hits, 0);
    drop(cold_store);

    // Warm pass: a restarted daemon's store over the same directory
    // answers every digest from disk, without building.
    let warm_store = SnapshotStore::with_disk(usize::MAX, Some(dir.clone()));
    for ((name, src), (key, cold)) in corpus.iter().zip(&colds) {
        let (warm, cached) = warm_store
            .get_or_build(*key, src, || panic!("{name}: warm store rebuilt"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(cached, "{name}: warm load must report cached");
        // The load swept the engine once, as a build does.
        assert_eq!(warm.engine.query_stats().sweeps, 1, "{name}");
        assert_identical(name, &warm.program, &cold.engine, &warm.engine);
    }
    let warm_stats = warm_store.stats();
    assert_eq!(warm_stats.misses, 0, "warm store must not build");
    assert_eq!(warm_stats.disk_hits, corpus.len() as u64);
    assert_eq!(warm_stats.disk_corrupt, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
