//! The five workloads: daemon configuration, priming, and the seeded
//! per-connection request streams. The daemon only ever sees the lines
//! these streams generate.

use std::path::Path;
use std::time::Instant;

use stcfa_devkit::prng::Rng;
use stcfa_server::{Json, Server, ServerOptions};
use stcfa_workloads::modules::{module_sources, ModulesConfig};

use crate::check::{analyze_counts, Checker};
use crate::layers;
use crate::pool::{mix, salted, save_pool, shared_pool, Reference, Source};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdAnalyze,
    DiskWarm,
    WarmQuery,
    EditSession,
    SaveLint,
}

/// Requests pipelined per `warm-query` burst (the `stcfa soak` shape).
pub const BURST: usize = 16;
/// Graded `call-targets` queries per editor save.
pub const GRADED_PER_SAVE: usize = 4;
/// The `edit-session` workspace: modules × declarations per module.
const WORKSPACE_MODULES: usize = 32;
const WORKSPACE_DECLS: usize = 12;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdAnalyze,
        Workload::DiskWarm,
        Workload::WarmQuery,
        Workload::EditSession,
        Workload::SaveLint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAnalyze => "cold-analyze",
            Workload::DiskWarm => "disk-warm",
            Workload::WarmQuery => "warm-query",
            Workload::EditSession => "edit-session",
            Workload::SaveLint => "save-lint",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The daemon each workload runs against: two workers, and the cache
    /// tiers the workload is about. `scratch` holds the disk tier.
    pub fn server_options(self, scratch: &Path) -> ServerOptions {
        let base = ServerOptions {
            threads: layers::THREADS,
            ..ServerOptions::default()
        };
        match self {
            // A small memory tier reaches its eviction steady state early
            // in a segment, so the resident set does not grow with the
            // segment's throughput.
            Workload::ColdAnalyze | Workload::EditSession | Workload::SaveLint => ServerOptions {
                cache_capacity: 32 << 20,
                ..base
            },
            // Memory capacity 0 keeps only the last load resident, so
            // nearly every request decodes from disk.
            Workload::DiskWarm => ServerOptions {
                cache_capacity: 0,
                cache_dir: Some(scratch.join("cache")),
                ..base
            },
            Workload::WarmQuery => base,
        }
    }

    /// Client connections, one thread each: two, as the reference machine
    /// has two cores. `edit-session` has one editor: with two sessions,
    /// every session op serializes on the daemon's session registry
    /// (held through relink and freeze), and the tail became a lottery
    /// of collisions between the two editors' heaviest ops.
    pub fn clients(self) -> usize {
        match self {
            Workload::EditSession => 1,
            _ => 2,
        }
    }

    /// The programs the workload draws from (none for `edit-session`,
    /// whose programs are its workspaces).
    pub fn pool(self, seed: u64) -> Vec<Source> {
        match self {
            Workload::ColdAnalyze | Workload::DiskWarm | Workload::WarmQuery => shared_pool(seed),
            Workload::SaveLint => save_pool(seed),
            Workload::EditSession => Vec::new(),
        }
    }

    /// Whether an `analyze` of a pool program must report `cached`.
    pub fn expects_cached(self) -> bool {
        self == Workload::DiskWarm
    }
}

/// How an op's requests travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One request, one response: one op.
    Single,
    /// Every request written at once, then every response read; each
    /// response is an op, timed from the burst's start.
    Burst,
    /// An editor save: the first request, its response, then the rest
    /// pipelined; the whole save is one op.
    Save,
}

/// One unit of client work: request lines with consecutive ids, and the
/// pool program each request is about.
#[derive(Clone, Debug)]
pub struct Op {
    pub shape: Shape,
    pub version: u64,
    pub first_id: u64,
    pub lines: Vec<String>,
    pub progs: Vec<usize>,
}

impl Op {
    /// Ops this unit counts as in the metrics.
    pub fn metric_ops(&self) -> usize {
        match self.shape {
            Shape::Burst => self.lines.len(),
            Shape::Single | Shape::Save => 1,
        }
    }

    /// The canonical prefix of a successful response to request `i`.
    pub fn ok_prefix(&self, i: usize) -> String {
        format!(
            "{{\"v\":{},\"id\":{},\"ok\":true,",
            self.version,
            self.first_id + i as u64
        )
    }
}

/// Appends a pre-escaped `source` member to a request object.
fn with_source(request: Json, member: &str) -> String {
    let mut line = request.to_line();
    line.pop();
    line.push_str(member);
    line.push('}');
    line
}

/// Brings a fresh daemon to the workload's primed state, in process and
/// through the protocol: every pool program analyzed, its counts and
/// handle cross-checked against the reference, and each stream's
/// session (if any) opened.
pub fn prime(
    server: &Server,
    refs: &[Reference],
    streams: &mut [Stream<'_>],
    checker: &Checker<'_>,
) -> Result<(), String> {
    for (i, r) in refs.iter().enumerate() {
        let line = with_source(
            Json::obj(vec![
                ("id", Json::num(i as u64)),
                ("op", Json::str("analyze")),
            ]),
            &r.source_member(None),
        );
        let response = Json::parse(&server.handle_line(&line, Instant::now()))
            .map_err(|e| format!("priming {}: {e}", r.name))?;
        let result = response.get("result").cloned().unwrap_or(Json::Null);
        let handle = result.get("snapshot").and_then(Json::as_str);
        if analyze_counts(&result) != r.analyze_counts() || handle != Some(r.key.hex().as_str()) {
            return Err(format!(
                "priming {}: daemon answered {response:?}, reference counts {:?}, handle {}",
                r.name,
                r.analyze_counts(),
                r.key.hex()
            ));
        }
    }
    for stream in streams {
        if let Some(open) = stream.open() {
            let response = server.handle_line(&open.lines[0], Instant::now());
            checker.check(&open, 0, &response)?;
        }
    }
    Ok(())
}

/// The seeded workspace connection `conn` edits.
pub fn workspace(seed: u64, conn: usize) -> Vec<(String, String)> {
    module_sources(&ModulesConfig {
        seed: mix(seed, 0x5e55_0000 + conn as u64),
        modules: WORKSPACE_MODULES,
        decls_per_module: WORKSPACE_DECLS,
        ..ModulesConfig::default()
    })
}

fn modules_json(modules: &[(String, String)]) -> Json {
    Json::Arr(
        modules
            .iter()
            .map(|(name, source)| {
                Json::obj(vec![
                    ("name", Json::str(name.as_str())),
                    ("source", Json::str(source.as_str())),
                ])
            })
            .collect(),
    )
}

/// One connection's request stream: a pure function of (workload, seed,
/// segment, connection) and the pool.
pub struct Stream<'a> {
    workload: Workload,
    rng: Rng,
    conn: usize,
    next_id: u64,
    refs: &'a [Reference],
    /// The current shuffled round: pool programs, or `edit-session` steps.
    deck: Vec<usize>,
    /// The `edit-session` workspace as generated.
    modules: Vec<(String, String)>,
    edits: u64,
}

impl<'a> Stream<'a> {
    pub fn new(
        workload: Workload,
        seed: u64,
        segment: usize,
        conn: usize,
        refs: &'a [Reference],
    ) -> Stream<'a> {
        let stream_seed = mix(
            mix(seed, workload as u64),
            ((segment as u64) << 16) | conn as u64,
        );
        let modules = if workload == Workload::EditSession {
            workspace(seed, conn)
        } else {
            Vec::new()
        };
        Stream {
            workload,
            rng: Rng::seed_from_u64(stream_seed),
            conn,
            next_id: 0,
            refs,
            deck: Vec::new(),
            modules,
            edits: 0,
        }
    }

    /// The session this connection edits.
    pub fn session(&self) -> String {
        format!("s{}", self.conn)
    }

    /// The workspace the session opens with.
    pub fn modules(&self) -> &[(String, String)] {
        &self.modules
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// The next pool program, dealt from a shuffled deck: every program
    /// once per round of `refs.len()` draws. Each program's share of the
    /// ops is then exact, so a segment's mix (and the work it measures)
    /// does not vary with the draw.
    fn pick(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = (0..self.refs.len()).collect();
            self.shuffle_deck();
        }
        self.deck.pop().expect("the deck was just refilled")
    }

    /// Fisher–Yates over the deck with the stream's generator.
    fn shuffle_deck(&mut self) {
        for i in (1..self.deck.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            self.deck.swap(i, j);
        }
    }

    /// The set-up request that precedes the load: the `edit-session`
    /// `session/open`.
    pub fn open(&mut self) -> Option<Op> {
        if self.workload != Workload::EditSession {
            return None;
        }
        let id = self.id();
        let line = Json::obj(vec![
            ("v", Json::num(2)),
            ("id", Json::num(id)),
            ("op", Json::str("session/open")),
            ("session", Json::str(self.session())),
            ("modules", modules_json(&self.modules)),
        ])
        .to_line();
        Some(Op {
            shape: Shape::Single,
            version: 2,
            first_id: id,
            lines: vec![line],
            progs: vec![0],
        })
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::ColdAnalyze | Workload::DiskWarm => {
                let prog = self.pick();
                let id = self.id();
                let salt = (self.workload == Workload::ColdAnalyze).then_some((self.conn, id));
                let line = with_source(
                    Json::obj(vec![("id", Json::num(id)), ("op", Json::str("analyze"))]),
                    &self.refs[prog].source_member(salt),
                );
                Op {
                    shape: Shape::Single,
                    version: 1,
                    first_id: id,
                    lines: vec![line],
                    progs: vec![prog],
                }
            }
            Workload::WarmQuery => self.query_burst(),
            Workload::EditSession => self.edit_step(),
            Workload::SaveLint => self.save(),
        }
    }

    fn query_burst(&mut self) -> Op {
        let first_id = self.next_id;
        let mut lines = Vec::with_capacity(BURST);
        let mut progs = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            let prog = self.pick();
            let refs = self.refs;
            let r = &refs[prog];
            let id = self.id();
            let inline = self.rng.below(4) == 0;
            let expr = Json::num(self.rng.below(r.program.size() as u64));
            let label = Json::num(self.rng.below(r.program.label_count() as u64));
            let mut request = vec![("id", Json::num(id)), ("op", Json::str("query"))];
            if inline {
                request.extend([("kind", Json::str("label-set")), ("expr", expr)]);
                lines.push(with_source(Json::obj(request), &r.source_member(None)));
            } else {
                request.push(("snapshot", Json::str(r.key.hex())));
                match self.rng.below(4) {
                    0 => request.extend([("kind", Json::str("label-set")), ("expr", expr)]),
                    1 => {
                        let site = r.apps[self.rng.below(r.apps.len() as u64) as usize];
                        request.extend([
                            ("kind", Json::str("call-targets")),
                            ("site", Json::num(site.index() as u64)),
                        ]);
                    }
                    2 => request.extend([("kind", Json::str("occurrences")), ("label", label)]),
                    _ => request.extend([
                        ("kind", Json::str("reachability")),
                        ("expr", expr),
                        ("label", label),
                    ]),
                }
                lines.push(Json::obj(request).to_line());
            }
            progs.push(prog);
        }
        Op {
            shape: Shape::Burst,
            version: 1,
            first_id,
            lines,
            progs,
        }
    }

    /// One step of the edit cycle. Each round of six steps is one
    /// update, four label-set queries and one whole-workspace lint, in
    /// shuffled order, so two connections never lock into the same
    /// phase.
    fn edit_step(&mut self) -> Op {
        if self.deck.is_empty() {
            self.deck = vec![0, 1, 1, 1, 1, 2];
            self.shuffle_deck();
        }
        let step = self.deck.pop().expect("the deck was just refilled");
        let id = self.id();
        let mut request = vec![
            ("v", Json::num(2)),
            ("id", Json::num(id)),
            ("session", Json::str(self.session())),
        ];
        match step {
            0 => {
                // The fresh prefix replaces the module's previous one, so
                // the workspace keeps its size however many edits a
                // segment makes.
                let m = self.rng.below(self.modules.len() as u64) as usize;
                self.edits += 1;
                let (name, source) = &self.modules[m];
                let edited = format!("fun edit{} x = x;\n{source}", self.edits);
                request.extend([
                    ("op", Json::str("session/update")),
                    ("modules", modules_json(&[(name.clone(), edited)])),
                ]);
            }
            2 => request.push(("op", Json::str("session/lint"))),
            _ => request.extend([
                ("op", Json::str("session/query")),
                ("kind", Json::str("label-set")),
            ]),
        }
        Op {
            shape: Shape::Single,
            version: 2,
            first_id: id,
            lines: vec![Json::obj(request).to_line()],
            progs: vec![0],
        }
    }

    /// An editor save: analyze a never-seen variant, then lint it, grade
    /// four call sites, taint it and optimize it.
    fn save(&mut self) -> Op {
        let prog = self.pick();
        let refs = self.refs;
        let r = &refs[prog];
        let first_id = self.next_id;
        let hex = layers::snapshot_key(&salted(&r.source, self.conn, first_id)).hex();
        let mut requests: Vec<Vec<(&str, Json)>> = vec![vec![("op", Json::str("lint"))]];
        for _ in 0..GRADED_PER_SAVE {
            let site = r.apps[self.rng.below(r.apps.len() as u64) as usize];
            requests.push(vec![
                ("op", Json::str("query")),
                ("kind", Json::str("call-targets")),
                ("site", Json::num(site.index() as u64)),
                ("precision", Json::Bool(true)),
            ]);
        }
        requests.push(vec![
            ("op", Json::str("rule")),
            ("name", Json::str("taint")),
        ]);
        requests.push(vec![("op", Json::str("opt"))]);

        let id = self.id();
        let mut lines = vec![with_source(
            Json::obj(vec![
                ("v", Json::num(2)),
                ("id", Json::num(id)),
                ("op", Json::str("analyze")),
            ]),
            &r.source_member(Some((self.conn, id))),
        )];
        for fields in requests {
            let mut request = vec![("v", Json::num(2)), ("id", Json::num(self.id()))];
            request.extend(fields);
            request.push(("snapshot", Json::str(hex.as_str())));
            lines.push(Json::obj(request).to_line());
        }
        Op {
            shape: Shape::Save,
            version: 2,
            first_id,
            progs: vec![prog; lines.len()],
            lines,
        }
    }
}
