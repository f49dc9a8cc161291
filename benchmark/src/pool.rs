//! The program pools the workloads draw from, and the in-process
//! reference answers every checked response is compared against.

use stcfa_core::{Analysis, AnalysisOptions, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Program};
use stcfa_precision::SuspicionIndex;
use stcfa_server::{Json, SnapshotKey};
use stcfa_workloads::synth::{generate, SynthConfig};

use crate::layers;

const CORPUS: [(&str, &str); 8] = [
    (
        "closures_in_lists",
        include_str!("../../corpus/closures_in_lists.ml"),
    ),
    ("dead_code", include_str!("../../corpus/dead_code.ml")),
    (
        "dispatch_table",
        include_str!("../../corpus/dispatch_table.ml"),
    ),
    ("effects", include_str!("../../corpus/effects.ml")),
    ("even_odd", include_str!("../../corpus/even_odd.ml")),
    ("higher_order", include_str!("../../corpus/higher_order.ml")),
    ("join_point", include_str!("../../corpus/join_point.ml")),
    (
        "paper_example",
        include_str!("../../corpus/paper_example.ml"),
    ),
];

/// One named program text.
#[derive(Clone, Debug)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// SplitMix64 finalizer over two words: derives independent generator
/// seeds from the run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn corpus_and_life() -> Vec<Source> {
    let mut pool: Vec<Source> = CORPUS
        .iter()
        .map(|(name, text)| Source {
            name: (*name).to_owned(),
            text: (*text).to_owned(),
        })
        .collect();
    pool.push(Source {
        name: "life".to_owned(),
        text: stcfa_workloads::life::SOURCE.to_owned(),
    });
    pool
}

/// A synth program of target size `size`, drawn from the seed. The
/// generator's size is approximate (up to ±20% across seeds at small
/// targets), so candidates are redrawn until one lies within 2% of the
/// typical size: seeds vary a program's shape, not how much work it is.
fn synth(seed: u64, size: usize) -> Source {
    let typical = size as f64 * 1.63;
    let off = |p: &Program| (p.size() as f64 / typical - 1.0).abs();
    let mut best: Option<Program> = None;
    for k in 0..1024u64 {
        let candidate = generate(&SynthConfig {
            seed: mix(seed, ((size as u64) << 16) | k),
            target_size: size,
            ..SynthConfig::default()
        });
        if best.as_ref().is_none_or(|b| off(&candidate) < off(b)) {
            best = Some(candidate);
        }
        if best.as_ref().is_some_and(|b| off(b) <= 0.02) {
            break;
        }
    }
    Source {
        name: format!("synth{size}"),
        text: best.expect("at least one candidate").to_source(),
    }
}

/// P, the shared pool: the corpus, `life`, `lexgen`, and synth programs
/// of target sizes 500, 2000 and 8000 drawn from the seed.
pub fn shared_pool(seed: u64) -> Vec<Source> {
    let mut pool = corpus_and_life();
    pool.push(Source {
        name: "lexgen".to_owned(),
        text: stcfa_workloads::lexgen::source(stcfa_workloads::lexgen::DEFAULT_STATES),
    });
    pool.extend([500, 2000, 8000].map(|size| synth(seed, size)));
    pool
}

/// The editor-save pool: the corpus, `life`, and synth 300/600.
pub fn save_pool(seed: u64) -> Vec<Source> {
    let mut pool = corpus_and_life();
    pool.extend([300, 600].map(|size| synth(seed, size)));
    pool
}

/// `source` made unique with a trailing comment: a never-seen digest
/// whose program is the unsalted one, expression for expression.
pub fn salted(source: &str, conn: usize, n: u64) -> String {
    format!("{source}{}", salt(conn, n))
}

fn salt(conn: usize, n: u64) -> String {
    format!("\n(* c{conn} r{n} *)")
}

/// One pool program, parsed, analyzed and frozen in process exactly as
/// the daemon builds it, with the answers checks compare against.
pub struct Reference {
    pub name: String,
    pub source: String,
    /// `source` as a quoted JSON string, escaped once so request lines
    /// are spliced rather than re-serialized per request.
    quoted: String,
    pub key: SnapshotKey,
    pub program: Program,
    pub analysis: Analysis,
    pub engine: QueryEngine,
    pub suspicion: SuspicionIndex,
    /// Every application site, the domain of `call-targets` draws.
    pub apps: Vec<ExprId>,
}

/// What the consumer ops (`lint`, `rule` taint, `opt`) answer on one
/// program: the save-lint references.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Consumers {
    pub diagnostics: usize,
    pub tainted: usize,
    pub opt_rounds: usize,
    pub opt_performed: usize,
}

impl Reference {
    /// Builds the reference for a pool program. The pools are fixed,
    /// known-good programs, so a failure here is a bug in the benchmark.
    pub fn build(source: &Source) -> Reference {
        let program = Program::parse(&source.text)
            .unwrap_or_else(|e| panic!("pool program {} does not parse: {e}", source.name));
        let analysis = Analysis::run_with(&program, AnalysisOptions::default())
            .unwrap_or_else(|e| panic!("pool program {} does not analyze: {e}", source.name));
        let engine = QueryEngine::freeze(&analysis);
        engine.prepare();
        let suspicion = SuspicionIndex::build(&analysis, &engine);
        let apps: Vec<ExprId> = program
            .exprs()
            .filter(|&e| matches!(program.kind(e), ExprKind::App { .. }))
            .collect();
        assert!(
            !apps.is_empty(),
            "pool program {} has no call site",
            source.name
        );
        Reference {
            name: source.name.clone(),
            quoted: Json::str(source.text.as_str()).to_line(),
            key: layers::snapshot_key(&source.text),
            source: source.text.clone(),
            program,
            analysis,
            engine,
            suspicion,
            apps,
        }
    }

    /// The counts an `analyze` response carries, in response order:
    /// exprs, labels, nodes, edges, comps.
    pub fn analyze_counts(&self) -> [u64; 5] {
        [
            self.program.size() as u64,
            self.engine.label_count() as u64,
            self.engine.node_count() as u64,
            self.engine.edge_count() as u64,
            self.engine.comp_count() as u64,
        ]
    }

    /// The `,"source":"…"` member for a request about this program,
    /// salted (see [`salted`]) when `salt_by` names a connection and
    /// request number.
    pub fn source_member(&self, salt_by: Option<(usize, u64)>) -> String {
        let mut member = String::with_capacity(self.quoted.len() + 32);
        member.push_str(",\"source\":");
        match salt_by {
            None => member.push_str(&self.quoted),
            Some((conn, n)) => {
                member.push_str(&self.quoted[..self.quoted.len() - 1]);
                let quoted_salt = Json::str(salt(conn, n)).to_line();
                member.push_str(&quoted_salt[1..]);
            }
        }
        member
    }

    /// The consumer answers, computed through the same calls the traced
    /// run times.
    pub fn consumers(&self) -> Consumers {
        let (opt_rounds, opt_performed) = layers::optimize(&self.program, &self.engine);
        Consumers {
            diagnostics: layers::lint(&self.program, &self.analysis, &self.engine, &self.suspicion),
            tainted: layers::taint(&self.program, &self.analysis, &self.engine),
            opt_rounds,
            opt_performed,
        }
    }
}
