//! Pins the analysis engine: one FNV-1a digest over everything the build
//! and close phases and the freeze produce for a fixed set of inputs.
//!
//! For every `corpus/*.ml` file, `life`, `lexgen` and twelve synthesized
//! programs (targets 500, 2000 and 8000, four seeds each), under all four
//! datatype policies, the digest absorbs:
//!
//! - every node's kind, in id order;
//! - every node's successors and predecessors, in insertion order;
//! - the [`AnalysisStats`] counters;
//! - the frozen engine's CSR offsets and targets, its node → component
//!   map and the condensed DAG;
//! - the `stcfa_persist::encode` image of the frozen engine, and the
//!   engine that image decodes back to.
//!
//! A run that exhausts its node budget absorbs the error and the partial
//! graph instead of the frozen engine. On top of that, every corpus file
//! is split at each top-level boundary, linked as a [`Workspace`], has its
//! middle module edited and is relinked, and the linked analysis and
//! engine go into the digest the same way.
//!
//! The node numbering, edge order and component numbering are what every
//! consumer and every persisted image sees. A storage change that only
//! makes the engine faster must leave the digest alone.

use stcfa::core::{Analysis, AnalysisOptions, AnalysisStats, DatatypePolicy, QueryEngine};
use stcfa::graph::Csr;
use stcfa::lambda::Program;
use stcfa::persist::{decode, encode, SnapshotImage};
use stcfa::session::{split, Workspace};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa::workloads::{lexgen, life};
use stcfa_devkit::hash::Fnv1a;

const PINNED: u64 = 0x8f6d_dd1d_40b0_fd68;

const POLICIES: [DatatypePolicy; 4] = [
    DatatypePolicy::Forget,
    DatatypePolicy::Congruence1,
    DatatypePolicy::Congruence2,
    DatatypePolicy::Exact,
];

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable"))
        })
        .collect();
    out.sort();
    assert!(out.len() >= 8, "corpus should not shrink silently");
    out
}

/// Every whole program the pin analyzes, with the source its persisted
/// image carries.
fn programs() -> Vec<(String, String, Program)> {
    let mut out: Vec<(String, String, Program)> = corpus()
        .into_iter()
        .map(|(name, source)| {
            let p = Program::parse(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, source, p)
        })
        .collect();
    out.push(("life".to_owned(), life::SOURCE.to_owned(), life::program()));
    out.push((
        "lexgen".to_owned(),
        lexgen::source(lexgen::DEFAULT_STATES),
        lexgen::program(),
    ));
    for target_size in [500, 2000, 8000] {
        for seed in 0..4u64 {
            let p = generate(&SynthConfig {
                seed,
                target_size,
                datatypes: seed % 2 == 0,
                ..SynthConfig::default()
            });
            out.push((format!("synth{target_size}.{seed}"), p.to_source(), p));
        }
    }
    out
}

fn absorb_str(h: &mut Fnv1a, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

fn absorb_u32s(h: &mut Fnv1a, xs: &[u32]) {
    h.write_u64(xs.len() as u64);
    for &x in xs {
        h.write_u64(u64::from(x));
    }
}

fn absorb_stats(h: &mut Fnv1a, s: &AnalysisStats) {
    for v in [
        s.build_nodes as u64,
        s.build_edges as u64,
        s.close_nodes as u64,
        s.close_edges as u64,
        s.edges_processed,
        s.demand_registrations,
        s.queries_answered,
        s.query_cache_hits,
        s.query_cache_misses,
    ] {
        h.write_u64(v);
    }
}

/// Node kinds in id order, then every node's adjacency in both
/// directions, then the counters.
fn absorb_graph(h: &mut Fnv1a, a: &Analysis) {
    h.write_u64(a.node_count() as u64);
    h.write_u64(a.edge_count() as u64);
    for n in a.nodes().ids() {
        absorb_str(h, &format!("{:?}", a.nodes().kind(n)));
        h.write_u64(a.nodes().base(n).index() as u64);
    }
    for n in a.nodes().ids() {
        absorb_u32s(h, a.succs(n));
        absorb_u32s(h, a.preds(n));
    }
    absorb_stats(h, &a.stats());
}

fn absorb_csr(h: &mut Fnv1a, csr: &Csr) {
    absorb_u32s(h, csr.offsets());
    absorb_u32s(h, csr.targets());
}

fn absorb_engine(h: &mut Fnv1a, q: &QueryEngine) {
    absorb_csr(h, q.csr());
    let cond = q.condensation();
    h.write_u64(cond.comp_count() as u64);
    absorb_u32s(h, cond.comp_of_slice());
    absorb_csr(h, cond.dag());
}

fn absorb_run(h: &mut Fnv1a, name: &str, source: &str, p: &Program, disc: u64) {
    let options = AnalysisOptions {
        policy: POLICIES[disc as usize],
        max_nodes: None,
    };
    absorb_str(h, name);
    h.write_u64(disc);
    let (analysis, err) = Analysis::run_partial(p, options);
    absorb_graph(h, &analysis);
    if let Some(err) = err {
        // A partial graph is not saturated; freezing it would trip the
        // debug-build audit, so the error stands in for the engine.
        absorb_str(h, &err.to_string());
        return;
    }
    let engine = QueryEngine::freeze(&analysis);
    absorb_engine(h, &engine);
    let image = encode(&SnapshotImage {
        digest: Fnv1a::digest_parts(source.as_bytes(), &[disc, 0]),
        policy: disc,
        engine_disc: 0,
        source,
        engine: &engine,
        suspicion: None,
        linked: false,
    });
    h.write_u64(image.len() as u64);
    h.write(&image);
    // The decode path reassembles the condensation from the stored
    // component map; it must land on the same engine.
    let decoded = decode(&image).unwrap_or_else(|e| panic!("{name}: {e}"));
    absorb_engine(h, &decoded.engine);
}

/// One corpus file split at every top-level boundary and linked, then
/// its middle module edited and the workspace relinked: the edit rewinds
/// the journaled graph to that module's checkpoint and replays the rest.
fn absorb_workspace(h: &mut Fnv1a, name: &str, source: &str) {
    let cuts = split::top_level_boundaries(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let modules: Vec<(String, String)> = split::split_at(source, &cuts)
        .into_iter()
        .enumerate()
        .map(|(i, f)| (format!("{name}.{i}"), f))
        .collect();
    let mut ws = Workspace::new(AnalysisOptions::default());
    for (module, text) in &modules {
        ws.upsert(module, text);
    }
    let absorb_linked = |h: &mut Fnv1a, ws: &mut Workspace| {
        let report = ws.link().unwrap_or_else(|e| panic!("{name}: {e}"));
        h.write_u64(report.relinked as u64);
        h.write_u64(report.reused as u64);
        let snapshot = ws.freeze().expect("linked");
        absorb_graph(h, snapshot.analysis());
        absorb_engine(h, snapshot.engine(ws).expect("fresh snapshot"));
    };
    absorb_str(h, name);
    h.write_u64(modules.len() as u64);
    absorb_linked(h, &mut ws);
    let (middle, text) = &modules[modules.len() / 2];
    assert!(ws.upsert(middle, &format!("fun pin_edit x = x;\n{text}")));
    absorb_linked(h, &mut ws);
}

fn engine_digest() -> u64 {
    let mut h = Fnv1a::new();
    for (name, source, p) in programs() {
        for disc in 0..POLICIES.len() as u64 {
            absorb_run(&mut h, &name, &source, &p, disc);
        }
    }
    for (name, source) in corpus() {
        absorb_workspace(&mut h, &name, &source);
    }
    h.finish()
}

#[test]
fn engine_output_is_pinned() {
    // The parser and the debug-build freeze audit are deep on `lexgen`.
    let digest = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(engine_digest)
        .expect("spawn")
        .join()
        .expect("digest thread");
    assert_eq!(
        digest, PINNED,
        "engine digest drifted: got {digest:#018x}; a build, close or freeze \
         change moved a node id, an edge, a component or an image byte"
    );
}
