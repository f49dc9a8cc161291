//! The traced run: per-layer numbers, measured from outside the crates.
//!
//! A pass replays the first [`REPLAY_OPS`] ops of the first segment's
//! stream (connection 0) in process, one at a time, against a daemon in
//! the workload's primed state. Each op is timed once through
//! `Server::handle_line`; its work is then redone as direct calls into
//! the public function of each layer it passes through, each call kept
//! as a span. The calls run after the request, not inside it, so a
//! layer span is a sibling of the `server.handle` span under the op's
//! root, and `server.self_us` is the handle time the layer calls do not
//! explain.
//!
//! Layers the workload's requests never reach are timed by a sweep that
//! puts each distinct program of the replay (and one seeded workspace
//! edit) through every layer, so every metric is a measurement in every
//! workload. A metric takes the on-path calls when there are any and the
//! sweep otherwise.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use stcfa_core::{Analysis, AnalysisOptions, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};
use stcfa_persist::SnapshotImage;
use stcfa_precision::SuspicionIndex;
use stcfa_server::{Json, Server, SnapshotKey, SnapshotStore};
use stcfa_session::{LinkReport, Workspace};

use crate::check::Checker;
use crate::layers;
use crate::pool::Reference;
use crate::segment::SegmentResult;
use crate::stats::median;
use crate::workload::{prime, workspace, Op, Shape, Stream, Workload, GRADED_PER_SAVE};

/// Ops replayed per pass.
pub const REPLAY_OPS: usize = 200;

/// Layers timed by span name; each reports `<name>_us`.
const TIMED: [&str; 16] = [
    "server.json_decode",
    "server.json_encode",
    "server.digest",
    "lambda.parse",
    "core.analyze",
    "core.freeze",
    "core.sweep",
    "core.query",
    "precision.suspicion",
    "precision.grade",
    "persist.load",
    "persist.decode",
    "session.relink",
    "lint.lint",
    "rules.taint",
    "opt.optimize",
];

/// Work counts; each must repeat exactly from pass to pass.
pub const COUNTS: [&str; 12] = [
    "lambda.exprs",
    "core.build_nodes",
    "core.close_nodes",
    "core.edges_processed",
    "precision.cone_runs",
    "precision.memo_hits",
    "persist.image_kb",
    "session.relinked",
    "lint.diagnostics",
    "opt.rounds",
    "opt.performed",
    "server.evictions",
];

/// Bytes parsed, kept to derive `lambda.parse_mb_s`.
const PARSE_BYTES: &str = "lambda.parse_bytes";

/// One call, as written to the trace file.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: usize,
}

/// What one op (or one sweep entry) spent per layer.
#[derive(Default)]
struct OpRecord {
    sweep: bool,
    handle_ns: u64,
    /// Layer calls directly under the op, summed per layer.
    top: BTreeMap<&'static str, u64>,
    /// Calls a top-level call contains, re-run on their own.
    nested: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, f64>,
}

impl OpRecord {
    fn time(&self, name: &str) -> Option<u64> {
        self.top
            .get(name)
            .or_else(|| self.nested.get(name))
            .copied()
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    records: Vec<OpRecord>,
    cur: OpRecord,
    root: usize,
    last_top: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            records: Vec::new(),
            cur: OpRecord::default(),
            root: 0,
            last_top: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn start_op(&mut self, sweep: bool) {
        self.root = self.spans.len();
        let t = self.now();
        self.spans.push(Span {
            name: if sweep { "sweep" } else { "op" },
            start_ns: t,
            end_ns: t,
            parent: None,
            op: self.records.len(),
        });
        self.cur = OpRecord {
            sweep,
            ..OpRecord::default()
        };
    }

    fn finish_op(&mut self) {
        self.spans[self.root].end_ns = self.now();
        self.records.push(std::mem::take(&mut self.cur));
    }

    fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.now();
        let r = black_box(f());
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op: self.records.len(),
        });
        (r, end_ns - start_ns)
    }

    /// Times one layer call made directly by the current op.
    fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.span(name, self.root, f);
        self.last_top = self.spans.len() - 1;
        *self.cur.top.entry(name).or_default() += ns;
        r
    }

    /// Times one call contained in the last top-level layer call.
    fn nested<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.span(name, self.last_top, f);
        *self.cur.nested.entry(name).or_default() += ns;
        r
    }

    fn handle(&mut self, server: &Server, line: &str) -> String {
        let (r, ns) = self.span("server.handle", self.root, || {
            server.handle_line(line, Instant::now())
        });
        self.cur.handle_ns += ns;
        r
    }

    fn count(&mut self, name: &'static str, value: f64) {
        *self.cur.counts.entry(name).or_default() += value;
    }

    fn decode(&mut self, line: &str) -> Json {
        self.layer("server.json_decode", || Json::parse(line))
            .expect("generated requests are JSON")
    }

    fn encode(&mut self, response: &str) {
        let value = Json::parse(response).expect("the daemon answers JSON");
        self.layer("server.json_encode", || value.to_line());
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::num(p as u64));
            out.push_str(
                &Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::num(s.start_ns)),
                    ("end_ns", Json::num(s.end_ns)),
                    ("parent", parent),
                    ("op", Json::num(s.op as u64)),
                ])
                .to_line(),
            );
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// A program built the way the daemon's `analyze` builds it.
struct Built {
    program: Program,
    analysis: Analysis,
    engine: QueryEngine,
    suspicion: SuspicionIndex,
}

fn build(t: &mut Tracer, source: &str) -> Built {
    let program = t.layer("lambda.parse", || Program::parse(source));
    let program = program.expect("benchmark sources parse");
    t.count("lambda.exprs", program.size() as f64);
    t.count(PARSE_BYTES, source.len() as f64);
    let analysis = t.layer("core.analyze", || {
        Analysis::run_with(&program, AnalysisOptions::default())
    });
    let analysis = analysis.expect("benchmark programs analyze");
    let stats = analysis.stats();
    t.count("core.build_nodes", stats.build_nodes as f64);
    t.count("core.close_nodes", stats.close_nodes as f64);
    t.count("core.edges_processed", stats.edges_processed as f64);
    let engine = t.layer("core.freeze", || QueryEngine::freeze(&analysis));
    t.layer("core.sweep", || engine.prepare());
    let suspicion = t.layer("precision.suspicion", || {
        SuspicionIndex::build(&analysis, &engine)
    });
    Built {
        program,
        analysis,
        engine,
        suspicion,
    }
}

/// A disk-tier load of `key` through a fresh store (decode, re-parse and
/// shape checks), with the decode and the parse re-run on their own.
fn disk_load(t: &mut Tracer, dir: &Path, key: SnapshotKey, source: &str) -> Result<(), String> {
    let loaded = t.layer("persist.load", || {
        SnapshotStore::with_disk(0, Some(dir.to_path_buf())).get_or_build(key, source, || {
            Err("the image is missing from the disk tier".to_owned())
        })
    });
    loaded?;
    t.nested("persist.decode", || stcfa_persist::load(dir, key.0))
        .map_err(|e| e.to_string())?;
    t.nested("lambda.parse", || Program::parse(source))
        .map_err(|e| e.to_string())?;
    t.count(PARSE_BYTES, source.len() as f64);
    Ok(())
}

fn grade(t: &mut Tracer, b: &Built, sites: &[ExprId]) {
    let (_, stats) = t.layer("precision.grade", || {
        layers::grade(&b.program, &b.engine, &b.suspicion, sites)
    });
    t.count("precision.cone_runs", stats.cone_runs as f64);
    t.count("precision.memo_hits", stats.memo_hits as f64);
}

fn lint(t: &mut Tracer, b: &Built) -> usize {
    let n = t.layer("lint.lint", || {
        layers::lint(&b.program, &b.analysis, &b.engine, &b.suspicion)
    });
    t.count("lint.diagnostics", n as f64);
    n
}

fn consumers(t: &mut Tracer, b: &Built) {
    t.layer("rules.taint", || {
        layers::taint(&b.program, &b.analysis, &b.engine)
    });
    let (rounds, performed) = t.layer("opt.optimize", || layers::optimize(&b.program, &b.engine));
    t.count("opt.rounds", rounds as f64);
    t.count("opt.performed", performed as f64);
}

/// The engine call a query request makes.
fn query(r: &Reference, request: &Json) -> usize {
    let field = |k: &str| request.get(k).and_then(Json::as_u64).map(|n| n as usize);
    let expr = || field("expr").map_or(r.program.root(), ExprId::from_index);
    let label = || Label::from_index(field("label").unwrap_or(0));
    match request.get("kind").and_then(Json::as_str) {
        Some("label-set") => r.engine.labels_of(expr()).len(),
        Some("call-targets") => {
            let site = ExprId::from_index(field("site").unwrap_or(0));
            r.engine
                .call_targets(&r.program, site)
                .map_or(0, |l| l.len())
        }
        Some("occurrences") => r.engine.exprs_with_label(label()).len(),
        _ => usize::from(r.engine.label_reaches(expr(), label())),
    }
}

fn result_of(response: &str) -> Json {
    Json::parse(response)
        .ok()
        .and_then(|v| v.get("result").cloned())
        .unwrap_or(Json::Null)
}

/// The in-process twin of one `edit-session` connection's workspace.
struct Mirror {
    ws: Workspace,
    built: Built,
    report: LinkReport,
    /// Label count at the trailing value by a whole-program analysis of
    /// the concatenated modules, once per edit.
    whole: Option<usize>,
}

impl Mirror {
    fn freeze(t: &mut Tracer, ws: &Workspace) -> (Built, LinkReport) {
        let linked = t.layer("core.freeze", || ws.freeze());
        let (program, analysis, engine, report) =
            linked.expect("the workspace is linked").into_parts();
        t.layer("core.sweep", || engine.prepare());
        let suspicion = t.layer("precision.suspicion", || {
            SuspicionIndex::build(&analysis, &engine)
        });
        let built = Built {
            program,
            analysis,
            engine,
            suspicion,
        };
        (built, report)
    }

    fn open(t: &mut Tracer, modules: &[(String, String)]) -> Mirror {
        let mut ws = Workspace::new(AnalysisOptions::default());
        for (name, source) in modules {
            ws.upsert(name, source);
        }
        ws.link().expect("seeded workspaces link");
        let (built, report) = Mirror::freeze(t, &ws);
        Mirror {
            ws,
            built,
            report,
            whole: None,
        }
    }

    fn source(&self) -> String {
        self.ws.modules().iter().map(|m| m.source()).collect()
    }

    /// Redoes one session op and compares the daemon's answer.
    fn step(&mut self, t: &mut Tracer, request: &Json, response: &str) -> Result<(), String> {
        let result = result_of(response);
        let num = |k: &str| result.get(k).and_then(Json::as_u64).map(|n| n as usize);
        match request.get("op").and_then(Json::as_str) {
            Some("session/update") => {
                let module = &request
                    .get("modules")
                    .and_then(Json::as_arr)
                    .expect("an upsert")[0];
                let name = module.get("name").and_then(Json::as_str).expect("a name");
                let source = module
                    .get("source")
                    .and_then(Json::as_str)
                    .expect("a source");
                let report = t.layer("session.relink", || {
                    self.ws.upsert(name, source);
                    self.ws.link()
                });
                let report = report.map_err(|e| format!("mirror relink: {e}"))?;
                t.count("session.relinked", report.relinked as f64);
                let (built, report) = Mirror::freeze(t, &self.ws);
                self.built = built;
                self.report = report;
                self.whole = None;
                let digest = format!("{:016x}", self.report.session_digest);
                if num("relinked") != Some(self.report.relinked)
                    || result.get("digest").and_then(Json::as_str) != Some(digest.as_str())
                {
                    return Err(format!(
                        "session/update disagrees with the mirror: {result:?}"
                    ));
                }
                Ok(())
            }
            Some("session/query") => {
                let value = self
                    .report
                    .default_value()
                    .ok_or("workspace has no value")?;
                let labels = t.layer("core.query", || self.built.engine.labels_of(value));
                let whole = match self.whole {
                    Some(n) => n,
                    None => {
                        let source = self.source();
                        let program = Program::parse(&source).map_err(|e| e.to_string())?;
                        let analysis = Analysis::run(&program).map_err(|e| e.to_string())?;
                        *self.whole.insert(analysis.labels_of(program.root()).len())
                    }
                };
                let got: Vec<u64> = result
                    .get("labels")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_u64).collect())
                    .unwrap_or_default();
                let want: Vec<u64> = labels.iter().map(|l| l.index() as u64).collect();
                if got != want || got.len() != whole {
                    return Err(format!(
                        "session/query: daemon {got:?}, mirror {want:?}, whole program {whole} labels"
                    ));
                }
                Ok(())
            }
            Some("session/lint") => {
                let n = lint(t, &self.built);
                if num("count") != Some(n) {
                    return Err(format!(
                        "session/lint: daemon {:?}, mirror {n}",
                        num("count")
                    ));
                }
                Ok(())
            }
            other => Err(format!("unexpected session op {other:?}")),
        }
    }
}

/// Everything one pass produced.
struct Pass {
    tracer: Tracer,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    errors: Vec<String>,
}

fn replay(
    workload: Workload,
    seed: u64,
    refs: &[Reference],
    checker: &Checker<'_>,
    dir: &Path,
) -> Result<Pass, String> {
    let server = Server::new(workload.server_options(dir));
    let mut stream = Stream::new(workload, seed, 0, 0, refs);
    prime(&server, refs, std::slice::from_mut(&mut stream), checker)?;
    let mut mirror = (workload == Workload::EditSession)
        .then(|| Mirror::open(&mut Tracer::new(), stream.modules()));
    let mut t = Tracer::new();
    let mut errors = Vec::new();
    let mut note = |r: Result<(), String>| {
        if let Err(e) = r {
            errors.push(e);
        }
    };
    let cache_dir = workload.server_options(dir).cache_dir;
    let mut touched = BTreeSet::new();
    let mut replayed = 0;
    while replayed < REPLAY_OPS {
        let op = stream.next_op();
        replayed += op.metric_ops();
        touched.extend(op.progs.iter().copied());
        match op.shape {
            Shape::Burst => {
                for i in 0..op.lines.len() {
                    t.start_op(false);
                    let response = t.handle(&server, &op.lines[i]);
                    note(checker.check(&op, i, &response));
                    let request = t.decode(&op.lines[i]);
                    if let Some(source) = request.get("source").and_then(Json::as_str) {
                        t.layer("server.digest", || layers::snapshot_key(source));
                    }
                    let r = &refs[op.progs[i]];
                    t.layer("core.query", || query(r, &request));
                    t.encode(&response);
                    t.finish_op();
                }
            }
            Shape::Save => {
                t.start_op(false);
                note(save(&mut t, &server, checker, &op));
                t.finish_op();
            }
            Shape::Single => {
                t.start_op(false);
                let before = server.store().stats();
                let response = t.handle(&server, &op.lines[0]);
                let after = server.store().stats();
                note(checker.check(&op, 0, &response));
                let request = t.decode(&op.lines[0]);
                if let Some(m) = &mut mirror {
                    note(m.step(&mut t, &request, &response));
                } else {
                    let source = request.get("source").and_then(Json::as_str);
                    let source = source.expect("analyze requests carry source");
                    let key = t.layer("server.digest", || layers::snapshot_key(source));
                    // Redo what the daemon did: a build on a miss, a
                    // disk-tier load on a disk hit, nothing more on a
                    // memory hit.
                    if after.misses > before.misses {
                        build(&mut t, source);
                    } else if let (true, Some(dir)) =
                        (after.disk_hits > before.disk_hits, &cache_dir)
                    {
                        note(disk_load(&mut t, dir, key, source));
                        let exprs = refs[op.progs[0]].program.size();
                        t.count("lambda.exprs", exprs as f64);
                        let image = dir.join(stcfa_persist::file_name(key.0));
                        let bytes = std::fs::metadata(image).map_or(0, |m| m.len());
                        t.count("persist.image_kb", bytes as f64 / 1024.0);
                    }
                }
                t.encode(&response);
                t.finish_op();
            }
        }
    }
    let attempted = replayed as u64;

    let sweep_dir = dir.join("sweep");
    let sources: Vec<String> = match &mirror {
        Some(m) => vec![m.source()],
        None => touched.iter().map(|&p| refs[p].source.clone()).collect(),
    };
    for source in &sources {
        note(sweep(&mut t, source, &sweep_dir));
    }
    session_probe(&mut t, seed);

    let stats = result_of(&server.handle_line(r#"{"id":0,"op":"stats"}"#, Instant::now()));
    server.handle_line(r#"{"id":1,"op":"shutdown"}"#, Instant::now());
    let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
    let count = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let lookups = count("hits") + count("misses") + count("disk_hits");
    let mut metrics = aggregate(&t.records)?;
    metrics.insert(
        "server.cache_hit_frac".into(),
        count("hits") / lookups.max(1.0),
    );
    metrics.insert("server.evictions".into(), count("evictions"));
    metrics.insert(
        "server.cache_mb".into(),
        count("bytes") / f64::from(1 << 20),
    );
    Ok(Pass {
        tracer: t,
        metrics,
        attempted,
        errors,
    })
}

/// One editor save: eight requests through the daemon, then the save's
/// work redone layer by layer.
fn save(t: &mut Tracer, server: &Server, checker: &Checker<'_>, op: &Op) -> Result<(), String> {
    let responses: Vec<String> = op.lines.iter().map(|l| t.handle(server, l)).collect();
    for (i, response) in responses.iter().enumerate() {
        checker.check(op, i, response)?;
    }
    let requests: Vec<Json> = op.lines.iter().map(|l| t.decode(l)).collect();
    let source = requests[0].get("source").and_then(Json::as_str);
    let source = source.expect("a save starts with an analyze");
    t.layer("server.digest", || layers::snapshot_key(source));
    let b = build(t, source);
    lint(t, &b);
    let sites: Vec<ExprId> = requests
        .iter()
        .filter_map(|r| r.get("site").and_then(Json::as_u64))
        .map(|s| ExprId::from_index(s as usize))
        .collect();
    grade(t, &b, &sites);
    consumers(t, &b);
    for response in &responses {
        t.encode(response);
    }
    Ok(())
}

/// Puts one program through every layer.
fn sweep(t: &mut Tracer, source: &str, dir: &Path) -> Result<(), String> {
    t.start_op(true);
    let key = t.layer("server.digest", || layers::snapshot_key(source));
    let b = build(t, source);
    t.layer("core.query", || b.engine.labels_of(b.program.root()));
    let sites: Vec<ExprId> = b
        .program
        .exprs()
        .filter(|&e| matches!(b.program.kind(e), ExprKind::App { .. }))
        .take(GRADED_PER_SAVE)
        .collect();
    grade(t, &b, &sites);
    let image = stcfa_persist::encode(&SnapshotImage {
        digest: key.0,
        policy: layers::policy().1,
        engine_disc: 0,
        source,
        engine: &b.engine,
        suspicion: Some(b.suspicion.as_slice()),
        linked: false,
    });
    stcfa_persist::save_atomic(dir, key.0, &image).map_err(|e| e.to_string())?;
    t.count("persist.image_kb", image.len() as f64 / 1024.0);
    let loaded = disk_load(t, dir, key, source);
    lint(t, &b);
    consumers(t, &b);
    t.finish_op();
    loaded
}

/// One edit and relink of the seeded workspace.
fn session_probe(t: &mut Tracer, seed: u64) {
    let modules = workspace(seed, 0);
    let mut ws = Workspace::new(AnalysisOptions::default());
    for (name, source) in &modules {
        ws.upsert(name, source);
    }
    ws.link().expect("seeded workspaces link");
    let (name, source) = &modules[modules.len() / 2];
    let edited = format!("fun edit0 x = x;\n{source}");
    t.start_op(true);
    let report = t.layer("session.relink", || {
        ws.upsert(name, &edited);
        ws.link()
    });
    let report = report.expect("an edited seeded workspace links");
    t.count("session.relinked", report.relinked as f64);
    t.finish_op();
}

/// Per-layer means of one pass: each layer over the ops whose requests
/// reach it, or over the sweep when none do. Means, not medians, because
/// they add up: the layer means of a workload account for its mean
/// request time, and so for its throughput.
fn aggregate(records: &[OpRecord]) -> Result<BTreeMap<String, f64>, String> {
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len() as f64;
    let pick = |f: &dyn Fn(&OpRecord) -> Option<f64>| -> Option<f64> {
        let on_path: Vec<f64> = records.iter().filter(|r| !r.sweep).filter_map(f).collect();
        let values = if on_path.is_empty() {
            records.iter().filter(|r| r.sweep).filter_map(f).collect()
        } else {
            on_path
        };
        (!values.is_empty()).then(|| mean(&values))
    };
    let mut out = BTreeMap::new();
    let mut put = |name: String, value: Option<f64>| match value {
        Some(v) => {
            out.insert(name, v);
            Ok(())
        }
        None => Err(format!("the traced run never measured {name}")),
    };
    for layer in TIMED {
        put(
            format!("{layer}_us"),
            pick(&|r| r.time(layer).map(|ns| ns as f64 / 1e3)),
        )?;
    }
    for count in COUNTS.iter().filter(|&&c| c != "server.evictions") {
        put((*count).to_owned(), pick(&|r| r.counts.get(count).copied()))?;
    }
    put(
        "lambda.parse_mb_s".to_owned(),
        pick(&|r| Some(r.counts.get(PARSE_BYTES)? / r.time("lambda.parse")? as f64 * 1e3)),
    )?;
    let ops: Vec<&OpRecord> = records.iter().filter(|r| !r.sweep).collect();
    let handle: f64 = ops.iter().map(|r| r.handle_ns as f64).sum();
    let layered: f64 = ops.iter().map(|r| r.top.values().sum::<u64>() as f64).sum();
    let n = ops.len().max(1) as f64;
    put("server.handle_us".to_owned(), Some(handle / n / 1e3))?;
    put(
        "server.self_us".to_owned(),
        Some((handle - layered) / n / 1e3),
    )?;
    put("trace.coverage".to_owned(), Some(layered / handle.max(1.0)))?;
    Ok(out)
}

/// What the traced run reports.
pub struct TraceOutcome {
    pub metrics: BTreeMap<String, f64>,
    /// Ops replayed, and those whose answers did not check out.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub passes: usize,
}

/// Runs traced passes until `deadline` (at least two, whose counts must
/// agree), writes the first pass's spans to `trace_file`, and reports
/// each per-layer mean as its median over passes. `segment` is a
/// measured segment of the same workload, for the metrics that need the
/// transport.
pub fn run(
    workload: Workload,
    seed: u64,
    segment: &SegmentResult,
    deadline: Instant,
    scratch: &Path,
    trace_file: &Path,
) -> Result<TraceOutcome, String> {
    let refs: Vec<Reference> = workload.pool(seed).iter().map(Reference::build).collect();
    let checker = Checker::new(workload, &refs);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || Instant::now() < deadline {
        let dir = scratch.join(format!("pass-{}", passes.len()));
        passes.push(replay(workload, seed, &refs, &checker, &dir)?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    passes[0]
        .tracer
        .write(trace_file)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    let failed = errors.len() as u64;
    let (first, second) = (&passes[0].metrics, &passes[1].metrics);
    for count in COUNTS {
        if first.get(count) != second.get(count) {
            errors.push(format!(
                "{count} differs between traced passes: {:?} then {:?}",
                first.get(count),
                second.get(count)
            ));
        }
    }
    let mut metrics = BTreeMap::new();
    for name in first.keys() {
        let value = if COUNTS.contains(&name.as_str()) {
            first[name]
        } else {
            median(&passes.iter().map(|p| p.metrics[name]).collect::<Vec<_>>())
        };
        metrics.insert(name.clone(), value);
    }
    let handle_us = metrics["server.handle_us"];
    metrics.insert("server.wait_us".into(), segment.mean_ms * 1e3 - handle_us);
    metrics.insert("server.shard_hit_frac".into(), segment.shard_hit_frac);
    metrics.insert(
        "server.rss_per_cache_mb".into(),
        segment.peak_rss_mb / segment.cache_mb.max(f64::MIN_POSITIVE),
    );
    Ok(TraceOutcome {
        metrics,
        attempted: passes.iter().map(|p| p.attempted).sum::<u64>(),
        failed,
        errors,
        passes: passes.len(),
    })
}
