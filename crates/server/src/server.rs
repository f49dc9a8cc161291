//! The daemon: request dispatch, the worker pipeline, and the two
//! transports (stdio and TCP).
//!
//! # Execution model
//!
//! One [`Server`] owns the [`SnapshotStore`] and the global counters. A
//! *pipeline* serves one byte stream: a detached reader thread tags each
//! line with a sequence number and its arrival [`Instant`] (the deadline
//! clock), `threads` scoped workers call [`Server::handle_line`]
//! concurrently, and a single writer emits responses **in request
//! order** — so a transcript's bytes are independent of the worker count.
//!
//! # Robustness invariants
//!
//! - A request never takes the daemon down: malformed JSON, parse and
//!   analysis failures, stale snapshot handles and blown deadlines all
//!   become structured error responses on the same connection.
//! - `shutdown` is graceful: every request enqueued before it is still
//!   answered (the single-writer ordering guarantees the shutdown
//!   response is the last line written), then the pipeline drains and the
//!   transport stops accepting input.
//! - Workers exit only under the queue lock with the queue empty, and the
//!   reader refuses to enqueue once shutdown is latched under that same
//!   lock — no request is ever silently dropped mid-drain.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stcfa_core::{Analysis, AnalysisOptions, DatatypePolicy, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};
use stcfa_lint::{lint_with_suspicion, Diagnostic, LintOptions};
use stcfa_opt::{optimize_with, OptOptions, Pass, PassSet};
use stcfa_rules::ExtDb;
use stcfa_session::{LinkError, LinkReport, Module, Workspace};

use crate::cache::{Invalidate, LookupError, Snapshot, SnapshotKey, SnapshotStore};
use crate::conn::{Conn, ConnLimits, Frame};
use crate::json::Json;
use crate::poll::{Acceptor, Backoff, Parker};
use crate::proto::{
    err_response, ok_response, parse_policy, policy_to_disc, Deadline, ErrorKind, RequestError,
    PROTOCOL_VERSION, PROTOCOL_VERSION_SESSION,
};
use crate::shard::{Completion, FleetStats, ShardPool, Task};

/// Configuration for one daemon.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads per pipeline (also the lint engine's batch width).
    pub threads: usize,
    /// Snapshot-store capacity in accounted bytes.
    pub cache_capacity: usize,
    /// Deadline applied to requests that carry none (`None` = unlimited).
    pub default_deadline_ms: Option<u64>,
    /// Directory for the persistent snapshot tier (`--cache-dir`).
    /// `None` = memory-only. With a directory, successful builds persist
    /// write-behind, misses consult disk before building, LRU eviction
    /// demotes instead of dropping, and a restarted daemon warms from
    /// whatever the previous run persisted.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Shard queue count for the TCP fleet transport (`--shards`);
    /// `0` = one shard per worker thread. Requests route to shards by
    /// snapshot digest, so shard count changes locality, never
    /// transcripts.
    pub shards: usize,
    /// Fleet-wide cap on dispatched-but-unanswered requests
    /// (`--max-inflight`). Admission past the cap is refused with the
    /// structured `overloaded` error instead of queueing without bound.
    pub max_inflight: usize,
    /// Per-connection cap on framed-but-unanswered requests
    /// (`--conn-inflight`). At the cap the fleet stops reading from the
    /// connection and lets TCP push back — no response is ever shed for
    /// staying under it.
    pub conn_inflight: usize,
    /// Per-snapshot escalation budget, in engine nodes, for the adaptive
    /// precision scheduler (`--precision-budget`). Each Tier-2 cone run
    /// charges its cone's node count; at zero remaining, graded answers
    /// degrade to the subtransitive tier with an honest `approx` class.
    pub precision_budget: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            threads: QueryEngine::default_threads(),
            cache_capacity: 256 << 20,
            default_deadline_ms: None,
            cache_dir: None,
            shards: 0,
            max_inflight: 1024,
            conn_inflight: 64,
            precision_budget: stcfa_precision::PrecisionScheduler::DEFAULT_BUDGET,
        }
    }
}

/// The long-running analysis daemon. See the [module docs](self).
pub struct Server {
    options: ServerOptions,
    store: SnapshotStore,
    /// Open multi-file sessions, by client-chosen id. Each entry pins
    /// its linked snapshot in the store for as long as it stays open.
    sessions: Mutex<HashMap<String, OpenSession>>,
    requests: AtomicU64,
    in_flight: AtomicU64,
    query_ns: AtomicU64,
    /// Latched by the `shutdown` op; transports poll it.
    stop: Arc<AtomicBool>,
    /// Fleet counters, registered by the TCP event-loop transport so
    /// the `stats` op can render them. `None` for stdio-only daemons.
    fleet: Mutex<Option<Arc<FleetStats>>>,
}

/// One open `session/*` session: the workspace (for incremental
/// re-links and name lookup), the store key its linked snapshot is
/// pinned under, and the snapshot + report queries answer from.
struct OpenSession {
    workspace: Workspace,
    key: SnapshotKey,
    snapshot: Arc<Snapshot>,
    report: LinkReport,
}

/// The engine discriminant for the monovariant subtransitive engine —
/// the only one served (the paper's bounded-type monovariant analysis is
/// what keeps per-request latency predictable). Part of the content
/// address.
const ENGINE_SUB: u64 = 0;

/// Stack size of every thread that handles requests. The parser bounds
/// source nesting ([`stcfa_lambda::parser::MAX_NESTING`]) and tree height
/// ([`stcfa_lambda::parser::MAX_HEIGHT`]), and with them the recursion of
/// every consumer. A request at those limits needs about 1.1 MiB of stack
/// in a release build and 8.6 MiB in a debug build (analyze, lint and
/// `opt --emit` on each nesting shape, x86-64), so 16 MiB covers both
/// profiles with room to spare. A thread commits only the stack pages it
/// touches, so a worker costs no more memory than on the default 2 MiB
/// stack until a request goes deep.
const WORKER_STACK: usize = 16 << 20;

/// Spawns a request-handling thread on `scope` with [`WORKER_STACK`].
fn spawn_worker<'scope, F>(scope: &'scope std::thread::Scope<'scope, '_>, f: F)
where
    F: FnOnce() + Send + 'scope,
{
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn_scoped(scope, f)
        .expect("spawn a request worker");
}

impl Server {
    /// A daemon with the given options and an empty snapshot store (which
    /// warms lazily from `cache_dir`, when one is configured).
    pub fn new(options: ServerOptions) -> Server {
        let store = SnapshotStore::with_disk(options.cache_capacity, options.cache_dir.clone());
        Server {
            options,
            store,
            sessions: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            query_ns: AtomicU64::new(0),
            stop: Arc::new(AtomicBool::new(false)),
            fleet: Mutex::new(None),
        }
    }

    /// The fleet counters, once a TCP event-loop transport has run (or
    /// is running) on this daemon. `None` under stdio.
    pub fn fleet_stats(&self) -> Option<Arc<FleetStats>> {
        self.fleet.lock().expect("fleet slot poisoned").clone()
    }

    /// The snapshot store (exposed for tests and benchmarks).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Whether `shutdown` has been requested.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    // --- request dispatch ---------------------------------------------------

    /// [`Server::handle_line`] under the pipeline's sequence gate:
    /// order-sensitive requests (the stateful `session/*` ops and
    /// `evict`, which observes session pins) wait until every earlier
    /// request in the stream has been answered, so their effects — and
    /// therefore the whole transcript — are independent of the worker
    /// count. Stateless requests run concurrently as before. Deadlock-
    /// free: the queue drains in sequence order, so the least in-flight
    /// sequence number never waits.
    fn handle_line_gated(&self, line: &str, received: Instant, gate: &SeqGate, seq: u64) -> String {
        if needs_order(line) {
            gate.wait_for_turn(seq);
        }
        let response = self.handle_line(line, received);
        gate.complete(seq);
        response
    }

    /// Handles one request line and returns the one response line (no
    /// trailing newline). `received` anchors the deadline clock; pass the
    /// instant the line was read. Never panics on untrusted input.
    pub fn handle_line(&self, line: &str, received: Instant) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let response = self.dispatch(line, received);
        self.query_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        response.to_line()
    }

    fn dispatch(&self, line: &str, received: Instant) -> Json {
        let request = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return err_response(
                    PROTOCOL_VERSION,
                    Json::Null,
                    &RequestError::new(ErrorKind::Proto, e.to_string()),
                )
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let version = match request.get("v") {
            None => PROTOCOL_VERSION,
            Some(v) => match v.as_u64() {
                Some(n) if n == PROTOCOL_VERSION || n == PROTOCOL_VERSION_SESSION => n,
                _ => {
                    return err_response(
                        PROTOCOL_VERSION,
                        id,
                        &RequestError::new(
                            ErrorKind::Proto,
                            format!(
                                "unsupported protocol version {} (this daemon speaks 1 and 2)",
                                v.to_line()
                            ),
                        ),
                    )
                }
            },
        };
        match self.dispatch_parsed(&request, received, version) {
            Ok(result) => ok_response(version, id, result),
            Err(e) => err_response(version, id, &e),
        }
    }

    fn dispatch_parsed(
        &self,
        request: &Json,
        received: Instant,
        version: u64,
    ) -> Result<Json, RequestError> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "missing required field `op`"))?;
        let deadline_ms = match request.get("deadline_ms") {
            None => self.options.default_deadline_ms,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                RequestError::new(
                    ErrorKind::Proto,
                    "`deadline_ms` must be a non-negative integer",
                )
            })?),
        };
        let deadline = Deadline::new(received, deadline_ms);
        deadline.check("request start")?;
        if op.starts_with("session/") && version != PROTOCOL_VERSION_SESSION {
            return Err(RequestError::new(
                ErrorKind::Proto,
                format!("`{op}` is a session op: it requires \"v\":2"),
            ));
        }
        match op {
            "analyze" => self.op_analyze(request, &deadline),
            "query" => self.op_query(request, &deadline, version),
            "lint" => self.op_lint(request, &deadline),
            "rule" => {
                if version != PROTOCOL_VERSION_SESSION {
                    return Err(RequestError::new(
                        ErrorKind::Proto,
                        "`rule` is a protocol-2 op: it requires \"v\":2",
                    ));
                }
                self.op_rule(request, &deadline)
            }
            "opt" => {
                if version != PROTOCOL_VERSION_SESSION {
                    return Err(RequestError::new(
                        ErrorKind::Proto,
                        "`opt` is a protocol-2 op: it requires \"v\":2",
                    ));
                }
                self.op_opt(request, &deadline)
            }
            "evict" => self.op_evict(request),
            "stats" => Ok(self.op_stats()),
            "session/open" => self.op_session_open(request, &deadline),
            "session/update" => self.op_session_update(request, &deadline),
            "session/query" => self.op_session_query(request, &deadline),
            "session/lint" => self.op_session_lint(request, &deadline),
            "session/close" => self.op_session_close(request),
            "shutdown" => {
                self.stop.store(true, Ordering::SeqCst);
                Ok(Json::obj(vec![("stopping", Json::Bool(true))]))
            }
            other => Err(RequestError::new(
                ErrorKind::Proto,
                format!(
                    "unknown op `{other}` (expected analyze|query|lint|rule|opt|evict|stats|shutdown \
                     or session/open|session/update|session/query|session/lint|session/close)"
                ),
            )),
        }
    }

    // --- snapshot resolution ------------------------------------------------

    /// Builds (or fetches) the snapshot for `source`: the content-addressed
    /// amortization point every expensive request goes through.
    fn analyze_source(
        &self,
        request: &Json,
        source: &str,
        deadline: &Deadline,
    ) -> Result<(Arc<Snapshot>, SnapshotKey, bool), RequestError> {
        let (policy, policy_disc) = policy_param(request)?;
        if let Some(engine) = request.get("engine").and_then(Json::as_str) {
            if engine != "sub" {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("unknown engine `{engine}` (this daemon serves `sub`)"),
                ));
            }
        }
        let key = SnapshotKey::derive(source, policy_disc, ENGINE_SUB);
        deadline.check("before build")?;
        let owned = source.to_owned();
        let (snapshot, cached) = self
            .store
            .get_or_build(key, source, move || {
                let started = Instant::now();
                let program = Program::parse(&owned).map_err(|e| format!("parse\u{0}{e}"))?;
                let analysis = Analysis::run_with(
                    &program,
                    AnalysisOptions {
                        policy,
                        max_nodes: None,
                    },
                )
                .map_err(|e| format!("analysis\u{0}{e}"))?;
                let engine = QueryEngine::freeze(&analysis);
                // Summarize eagerly: the snapshot is built once and read
                // many times, so pay the sweep inside the accounted build
                // (a disk load re-runs it; the rows are not persisted).
                engine.prepare();
                Ok(Snapshot::built(
                    program,
                    analysis,
                    engine,
                    owned,
                    started.elapsed().as_nanos() as u64,
                    policy,
                    policy_disc,
                    ENGINE_SUB,
                ))
            })
            .map_err(decode_build_err)?;
        // The build may have blown the budget even though the snapshot is
        // now cached (and stays warm for the next request).
        deadline.check("after build")?;
        Ok((snapshot, key, cached))
    }

    /// Resolves the snapshot a query/lint request names: an explicit
    /// `snapshot` digest, or inline `source` routed through the cache.
    fn resolve_snapshot(
        &self,
        request: &Json,
        deadline: &Deadline,
    ) -> Result<Arc<Snapshot>, RequestError> {
        if let Some(handle) = request.get("snapshot") {
            let hex = handle.as_str().ok_or_else(|| {
                RequestError::new(ErrorKind::Proto, "`snapshot` must be a hex digest string")
            })?;
            let key = SnapshotKey::from_hex(hex).ok_or_else(|| {
                RequestError::new(
                    ErrorKind::Proto,
                    format!("`snapshot` is not a 16-digit hex digest: `{hex}`"),
                )
            })?;
            return self.store.get(key).map_err(|e| match e {
                LookupError::Unknown => RequestError::new(
                    ErrorKind::UnknownSnapshot,
                    format!("snapshot {hex} was never analyzed by this daemon"),
                ),
                LookupError::Stale => RequestError::new(
                    ErrorKind::StaleSnapshot,
                    format!("snapshot {hex} was evicted or invalidated; re-analyze to refresh"),
                ),
            });
        }
        if let Some(source) = request.get("source").and_then(Json::as_str) {
            let (snapshot, _, _) = self.analyze_source(request, source, deadline)?;
            return Ok(snapshot);
        }
        Err(RequestError::new(
            ErrorKind::Proto,
            "request needs either a `snapshot` digest or inline `source`",
        ))
    }

    // --- ops ----------------------------------------------------------------

    fn op_analyze(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let source = request
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`analyze` needs `source`"))?;
        let (snapshot, key, cached) = self.analyze_source(request, source, deadline)?;
        Ok(Json::obj(vec![
            ("snapshot", Json::str(key.hex())),
            ("cached", Json::Bool(cached)),
            ("exprs", Json::num(snapshot.program.size() as u64)),
            ("labels", Json::num(snapshot.engine.label_count() as u64)),
            ("nodes", Json::num(snapshot.engine.node_count() as u64)),
            ("edges", Json::num(snapshot.engine.edge_count() as u64)),
            ("comps", Json::num(snapshot.engine.comp_count() as u64)),
        ]))
    }

    fn op_query(
        &self,
        request: &Json,
        deadline: &Deadline,
        version: u64,
    ) -> Result<Json, RequestError> {
        let kind = request
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`query` needs `kind`"))?
            .to_owned();
        let graded = precision_param(request, version)?;
        let snapshot = self.resolve_snapshot(request, deadline)?;
        deadline.check("before query")?;
        let program = &snapshot.program;
        let result = if graded {
            self.graded_query_result(&kind, request, &snapshot, || Ok(program.root()))?
        } else {
            query_result(&kind, request, program, &snapshot.engine, || {
                Ok(program.root())
            })?
        };
        deadline.check("after query")?;
        Ok(tag_kind(kind, result))
    }

    /// Answers a `"precision":true` query through the snapshot's tier
    /// scheduler: the label set is the best certified refinement and the
    /// response carries its [`PrecisionInfo`] grade.
    fn graded_query_result(
        &self,
        kind: &str,
        request: &Json,
        snapshot: &Snapshot,
        default_expr: impl FnOnce() -> Result<ExprId, RequestError>,
    ) -> Result<Json, RequestError> {
        let scheduler = snapshot.scheduler(self.options.precision_budget);
        let program = &snapshot.program;
        let (labels, info) = match kind {
            "label-set" => {
                let expr = match request.get("expr") {
                    None => default_expr()?,
                    Some(v) => expr_param(v, program, "expr")?,
                };
                scheduler.labels_of(program, &snapshot.engine, expr)
            }
            "call-targets" => {
                let site = expr_param(
                    request.get("site").ok_or_else(|| {
                        RequestError::new(ErrorKind::Proto, "`call-targets` needs `site`")
                    })?,
                    program,
                    "site",
                )?;
                scheduler
                    .call_targets(program, &snapshot.engine, site)
                    .ok_or_else(|| {
                        RequestError::new(
                            ErrorKind::Proto,
                            format!("expression {} is not an application site", site.index()),
                        )
                    })?
            }
            other => {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("`precision` grades label-set and call-targets queries, not `{other}`"),
                ))
            }
        };
        let Json::Obj(mut pairs) = labels_json(program, &labels) else {
            unreachable!("labels_json returns an object")
        };
        pairs.push(("precision".to_owned(), precision_json(info)));
        Ok(Json::Obj(pairs))
    }

    fn op_lint(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let snapshot = self.resolve_snapshot(request, deadline)?;
        deadline.check("before lint")?;
        let diags = self.lint_snapshot(&snapshot)?;
        deadline.check("after lint")?;
        Ok(diagnostics_json(&diags, None))
    }

    /// Runs the lint engine over a snapshot, dividing the thread budget
    /// across the workers currently serving requests: a burst of
    /// concurrent lints must not fan out to ~threads² OS threads.
    ///
    /// Disk-warmed snapshots rebuild their analysis lazily here; a
    /// rebuild failure (which cannot happen for a snapshot that was built
    /// by this daemon configuration) surfaces as a structured error.
    ///
    /// The detector index comes from the snapshot, never from the
    /// rebuilt analysis: a warm *linked* engine's node table is the
    /// product of incremental linking, which a fresh analysis of the
    /// replayed program does not reproduce, so only the persisted
    /// scores fit it (the rebuilt analysis is still fine for the
    /// program-keyed effects colouring the lint rules consult).
    fn lint_snapshot(&self, snapshot: &Snapshot) -> Result<Vec<Diagnostic>, RequestError> {
        let analysis = snapshot
            .try_analysis()
            .map_err(|e| RequestError::new(ErrorKind::Analysis, e.clone()))?;
        let active = (self.in_flight.load(Ordering::SeqCst) as usize).max(1);
        Ok(lint_with_suspicion(
            &snapshot.program,
            analysis,
            &snapshot.engine,
            &snapshot.suspicion,
            &LintOptions {
                threads: (self.options.threads / active).max(1),
            },
        ))
    }

    /// `rule` (protocol 2): evaluates a shipped rule program against a
    /// snapshot. `name` picks the program — `dominators` returns the
    /// call-graph dominator relation for every reachable node;
    /// `taint` closes the given source labels (default: every
    /// effectful-bodied abstraction) over the flow edges, for the whole
    /// program or, with `expr`, as one demand query that walks only the
    /// occurrence's BFS cone.
    fn op_rule(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let name = request
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`rule` needs `name`"))?
            .to_owned();
        let snapshot = self.resolve_snapshot(request, deadline)?;
        deadline.check("before rule")?;
        let analysis = snapshot
            .try_analysis()
            .map_err(|e| RequestError::new(ErrorKind::Analysis, e.clone()))?;
        let program = &snapshot.program;
        let db = ExtDb::new(program, analysis, &snapshot.engine);
        let result = match name.as_str() {
            "dominators" => {
                let dom = stcfa_rules::dominators(&db);
                let mut nodes = Vec::new();
                for n in 0..=dom.entry() {
                    if dom.is_reachable(n) {
                        let doms = dom
                            .doms_of(n)
                            .iter()
                            .map(|&d| Json::num(d as u64))
                            .collect();
                        nodes.push(Json::obj(vec![
                            ("node", Json::num(n as u64)),
                            ("doms", Json::Arr(doms)),
                        ]));
                    }
                }
                Json::obj(vec![
                    ("rule", Json::str("dominators")),
                    ("entry", Json::num(dom.entry() as u64)),
                    ("nodes", Json::Arr(nodes)),
                ])
            }
            "taint" => {
                let sources = taint_sources(request, program, &db)?;
                let src_json = Json::Arr(
                    sources
                        .iter()
                        .map(|l| Json::num(l.index() as u64))
                        .collect(),
                );
                match request.get("expr") {
                    Some(v) => {
                        let idx = v
                            .as_u64()
                            .filter(|&n| (n as usize) < program.size())
                            .ok_or_else(|| {
                                RequestError::new(
                                    ErrorKind::Proto,
                                    format!(
                                        "`expr` must be an occurrence index below {}",
                                        program.size()
                                    ),
                                )
                            })?;
                        let e = ExprId::from_index(idx as usize);
                        let tainted = stcfa_rules::expr_is_tainted(&db, &sources, e);
                        Json::obj(vec![
                            ("rule", Json::str("taint")),
                            ("sources", src_json),
                            ("expr", Json::num(idx)),
                            ("tainted", Json::Bool(tainted)),
                        ])
                    }
                    None => {
                        let tainted = stcfa_rules::tainted_exprs(&db, &sources)
                            .iter()
                            .map(|e| Json::num(e.index() as u64))
                            .collect();
                        Json::obj(vec![
                            ("rule", Json::str("taint")),
                            ("sources", src_json),
                            ("tainted", Json::Arr(tainted)),
                        ])
                    }
                }
            }
            other => {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("unknown rule `{other}` (expected dominators|taint)"),
                ))
            }
        };
        deadline.check("after rule")?;
        // Opt-in grade for the whole derivation: rules read the engine's
        // label sets as their EDB, so if no component of this snapshot
        // carries suspicion the engine equals full cubic CFA and every
        // derived fact is exact; otherwise the rule's answer inherits the
        // engine's (sound) over-approximation.
        if precision_param(request, PROTOCOL_VERSION_SESSION)? {
            let class = if snapshot.suspicion.all_exact() {
                stcfa_precision::PrecisionClass::Exact
            } else {
                stcfa_precision::PrecisionClass::Approx
            };
            let Json::Obj(mut pairs) = result else {
                unreachable!("rule results are objects")
            };
            pairs.push((
                "precision".to_owned(),
                Json::obj(vec![
                    ("class", Json::str(class.as_str())),
                    ("tier", Json::num(0)),
                    (
                        "suspicious_comps",
                        Json::num(snapshot.suspicion.suspicious_comps() as u64),
                    ),
                ]),
            ));
            return Ok(Json::Obj(pairs));
        }
        Ok(result)
    }

    /// `opt` (protocol 2): runs the flow-directed lowering pipeline
    /// (docs/OPT.md) against a snapshot and returns the decision report,
    /// with `"emit":true` adding the optimized program's source. Round 1
    /// reuses the snapshot's frozen engine; the result object is the
    /// CLI's `--report json` object, parsed — the two surfaces cannot
    /// drift apart.
    fn op_opt(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let mut options = OptOptions::default();
        if let Some(passes) = request.get("passes") {
            let Json::Arr(items) = passes else {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    "`passes` must be an array of pass names",
                ));
            };
            let mut set = PassSet::empty();
            for item in items {
                let name = item.as_str().ok_or_else(|| {
                    RequestError::new(ErrorKind::Proto, "`passes` must be an array of pass names")
                })?;
                let pass = Pass::from_name(name).ok_or_else(|| {
                    RequestError::new(ErrorKind::Proto, format!("unknown pass `{name}`"))
                })?;
                set = set.with(pass);
            }
            options.passes = set;
        }
        if let Some(v) = request.get("max_rounds") {
            options.max_rounds = v.as_u64().ok_or_else(|| {
                RequestError::new(
                    ErrorKind::Proto,
                    "`max_rounds` must be a non-negative integer",
                )
            })? as usize;
        }
        if let Some(v) = request.get("budget") {
            options.budget = v.as_u64().ok_or_else(|| {
                RequestError::new(ErrorKind::Proto, "`budget` must be a non-negative integer")
            })? as usize;
        }
        let emit = matches!(request.get("emit"), Some(Json::Bool(true)));
        let snapshot = self.resolve_snapshot(request, deadline)?;
        deadline.check("before opt")?;
        let active = (self.in_flight.load(Ordering::SeqCst) as usize).max(1);
        options.threads = (self.options.threads / active).max(1);
        let out = optimize_with(&snapshot.program, &snapshot.engine, &options)
            .map_err(|e| RequestError::new(ErrorKind::Analysis, e.to_string()))?;
        deadline.check("after opt")?;
        let Ok(Json::Obj(mut result)) = Json::parse(out.report.to_json().trim_end()) else {
            unreachable!("OptReport::to_json emits one JSON object")
        };
        result.push((
            "performed".to_owned(),
            Json::num(out.report.performed_total() as u64),
        ));
        if emit {
            result.push(("source".to_owned(), Json::str(out.program.to_source())));
        }
        Ok(Json::Obj(result))
    }

    fn op_evict(&self, request: &Json) -> Result<Json, RequestError> {
        let hex = request
            .get("snapshot")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`evict` needs `snapshot`"))?;
        let key = SnapshotKey::from_hex(hex).ok_or_else(|| {
            RequestError::new(
                ErrorKind::Proto,
                format!("`snapshot` is not a 16-digit hex digest: `{hex}`"),
            )
        })?;
        let evicted = match self.store.invalidate(key) {
            Invalidate::Evicted => true,
            Invalidate::Absent => false,
            Invalidate::Pinned => {
                return Err(RequestError::new(
                    ErrorKind::PinnedSnapshot,
                    format!(
                        "snapshot {hex} is pinned by an open session; \
                         close the session before evicting it"
                    ),
                ))
            }
        };
        Ok(Json::obj(vec![("evicted", Json::Bool(evicted))]))
    }

    fn op_stats(&self) -> Json {
        let store = self.store.stats();
        let mut analysis = stcfa_core::AnalysisStats::default();
        self.store
            .for_each_resident(|snapshot| analysis += snapshot.engine.stats());
        let sessions = self
            .sessions
            .lock()
            .expect("session registry poisoned")
            .len();
        let mut fields = vec![
            ("protocol", Json::num(PROTOCOL_VERSION_SESSION)),
            ("threads", Json::num(self.options.threads as u64)),
            ("sessions", Json::num(sessions as u64)),
            ("requests", Json::num(self.requests.load(Ordering::Relaxed))),
            // This request is itself in flight while counting.
            (
                "in_flight",
                Json::num(self.in_flight.load(Ordering::SeqCst)),
            ),
            ("query_ns", Json::num(self.query_ns.load(Ordering::Relaxed))),
            ("build_ns", Json::num(store.build_ns)),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::num(store.entries as u64)),
                    ("bytes", Json::num(store.bytes as u64)),
                    ("capacity_bytes", Json::num(store.capacity_bytes as u64)),
                    ("hits", Json::num(store.hits)),
                    ("misses", Json::num(store.misses)),
                    ("coalesced", Json::num(store.coalesced)),
                    ("evictions", Json::num(store.evictions)),
                    ("tombstones", Json::num(store.tombstones as u64)),
                    ("pinned", Json::num(store.pinned as u64)),
                    ("disk", Json::Bool(store.disk)),
                    ("disk_hits", Json::num(store.disk_hits)),
                    ("disk_writes", Json::num(store.disk_writes)),
                    ("disk_corrupt", Json::num(store.disk_corrupt)),
                ]),
            ),
            (
                "analysis",
                Json::obj(vec![
                    ("build_nodes", Json::num(analysis.build_nodes as u64)),
                    ("build_edges", Json::num(analysis.build_edges as u64)),
                    ("close_nodes", Json::num(analysis.close_nodes as u64)),
                    ("close_edges", Json::num(analysis.close_edges as u64)),
                    ("edges_processed", Json::num(analysis.edges_processed)),
                    (
                        "demand_registrations",
                        Json::num(analysis.demand_registrations),
                    ),
                    ("queries_answered", Json::num(analysis.queries_answered)),
                    ("query_cache_hits", Json::num(analysis.query_cache_hits)),
                    ("query_cache_misses", Json::num(analysis.query_cache_misses)),
                ]),
            ),
        ];
        if let Some(fleet) = self.fleet_stats() {
            fields.push(("fleet", fleet_stats_json(&fleet)));
        }
        Json::obj(fields)
    }

    // --- session ops --------------------------------------------------------

    /// Freezes the linked workspace into the store under `key` and pins
    /// it. The pin is taken in a retry loop: between the build and the
    /// pin another request can (in principle) evict the fresh entry, in
    /// which case the linked snapshot is simply re-frozen — the
    /// workspace's checkpoints make that cheap.
    fn cache_linked(
        &self,
        workspace: &Workspace,
        manifest: &str,
        key: SnapshotKey,
    ) -> Result<(Arc<Snapshot>, bool), RequestError> {
        loop {
            let (snapshot, cached) = self
                .store
                .get_or_build(key, manifest, || {
                    let started = Instant::now();
                    let linked = workspace.freeze().expect("caller links before caching");
                    let (program, analysis, engine, _report) = linked.into_parts();
                    engine.prepare();
                    let policy = workspace.options().policy;
                    Ok(Snapshot::linked(
                        program,
                        analysis,
                        engine,
                        manifest.to_owned(),
                        started.elapsed().as_nanos() as u64,
                        policy,
                        policy_to_disc(policy),
                    ))
                })
                .map_err(|e| RequestError::new(ErrorKind::Analysis, e))?;
            if self.store.pin(key) {
                return Ok((snapshot, cached));
            }
        }
    }

    fn op_session_open(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let id = session_param(request)?;
        {
            let sessions = self.sessions.lock().expect("session registry poisoned");
            if sessions.contains_key(&id) {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("session `{id}` is already open"),
                ));
            }
        }
        let modules = modules_param(request, "modules")?;
        if modules.is_empty() {
            return Err(RequestError::new(
                ErrorKind::Proto,
                "`session/open` needs at least one module",
            ));
        }
        let (policy, _) = policy_param(request)?;
        let mut workspace = Workspace::new(AnalysisOptions {
            policy,
            max_nodes: None,
        });
        let mut seen: HashSet<&str> = HashSet::new();
        for (name, source) in &modules {
            if !seen.insert(name.as_str()) {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("duplicate module name `{name}` in `modules`"),
                ));
            }
            workspace.upsert(name, source);
        }
        let report = workspace.link().map_err(link_err)?;
        deadline.check("after link")?;
        let key = SnapshotKey(report.session_digest);
        let manifest = session_manifest(&workspace);
        let (snapshot, cached) = self.cache_linked(&workspace, &manifest, key)?;
        let result = link_json(&id, key, cached, &report);
        let mut sessions = self.sessions.lock().expect("session registry poisoned");
        if sessions.contains_key(&id) {
            // Lost a race to a concurrent open of the same id.
            self.store.unpin(key);
            return Err(RequestError::new(
                ErrorKind::Proto,
                format!("session `{id}` is already open"),
            ));
        }
        sessions.insert(
            id,
            OpenSession {
                workspace,
                key,
                snapshot,
                report,
            },
        );
        Ok(result)
    }

    fn op_session_update(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let id = session_param(request)?;
        let upserts = match request.get("modules") {
            None => Vec::new(),
            Some(_) => modules_param(request, "modules")?,
        };
        let removes: Vec<String> = match request.get("remove") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| {
                    RequestError::new(
                        ErrorKind::Proto,
                        "`remove` must be an array of module names",
                    )
                })?
                .iter()
                .map(|n| {
                    n.as_str().map(str::to_owned).ok_or_else(|| {
                        RequestError::new(
                            ErrorKind::Proto,
                            "`remove` must be an array of module names",
                        )
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        if upserts.is_empty() && removes.is_empty() {
            return Err(RequestError::new(
                ErrorKind::Proto,
                "`session/update` needs `modules` (upserts) and/or `remove`",
            ));
        }
        let mut sessions = self.sessions.lock().expect("session registry poisoned");
        let entry = sessions.get_mut(&id).ok_or_else(|| unknown_session(&id))?;
        for name in &removes {
            if entry.workspace.module(name).is_none() {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("session `{id}` has no module named `{name}` to remove"),
                ));
            }
        }
        // The update is transactional: on a link failure the module list
        // (and, via re-link over the surviving linker marks, the linked
        // state) is restored, and the old pinned snapshot keeps serving.
        let saved: Vec<Module> = entry.workspace.modules().to_vec();
        for name in &removes {
            entry.workspace.remove(name);
        }
        for (name, source) in &upserts {
            entry.workspace.upsert(name, source);
        }
        let report = match entry.workspace.link() {
            Ok(report) => report,
            Err(e) => {
                entry.workspace.set_modules(saved);
                let relink = entry.workspace.link();
                debug_assert!(
                    relink.is_ok(),
                    "rollback re-links previously linked content"
                );
                return Err(link_err(e));
            }
        };
        deadline.check("after link")?;
        let key = SnapshotKey(report.session_digest);
        let manifest = session_manifest(&entry.workspace);
        let (snapshot, cached) = self.cache_linked(&entry.workspace, &manifest, key)?;
        self.store.unpin(entry.key);
        entry.key = key;
        entry.snapshot = snapshot;
        entry.report = report.clone();
        Ok(link_json(&id, key, cached, &report))
    }

    fn op_session_query(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let id = session_param(request)?;
        let kind = request
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`session/query` needs `kind`"))?
            .to_owned();
        // Session ops are gated to protocol 2 in dispatch, so the flag
        // is always admissible here.
        let graded = precision_param(request, PROTOCOL_VERSION_SESSION)?;
        let (snapshot, report, binder) = {
            let sessions = self.sessions.lock().expect("session registry poisoned");
            let entry = sessions.get(&id).ok_or_else(|| unknown_session(&id))?;
            let binder = request
                .get("name")
                .and_then(Json::as_str)
                .map(|n| (n.to_owned(), entry.workspace.lookup(n)));
            (Arc::clone(&entry.snapshot), entry.report.clone(), binder)
        };
        deadline.check("before query")?;
        let program = &snapshot.program;
        let engine = &snapshot.engine;
        let result = match binder {
            Some((name, var)) => {
                if kind != "label-set" {
                    return Err(RequestError::new(
                        ErrorKind::Proto,
                        "`name` applies only to `label-set` queries",
                    ));
                }
                if graded {
                    return Err(RequestError::new(
                        ErrorKind::Proto,
                        "`precision` grades expression queries; it does not combine with `name`",
                    ));
                }
                let var = var.ok_or_else(|| {
                    RequestError::new(
                        ErrorKind::Proto,
                        format!("session `{id}` has no top-level binding named `{name}`"),
                    )
                })?;
                labels_json(program, &engine.labels_of_binder(var))
            }
            None if graded => self.graded_query_result(&kind, request, &snapshot, || {
                report.default_value().ok_or_else(|| {
                    RequestError::new(
                        ErrorKind::Proto,
                        "session has no trailing value expression; pass `expr` or `name`",
                    )
                })
            })?,
            None => query_result(&kind, request, program, engine, || {
                report.default_value().ok_or_else(|| {
                    RequestError::new(
                        ErrorKind::Proto,
                        "session has no trailing value expression; pass `expr` or `name`",
                    )
                })
            })?,
        };
        deadline.check("after query")?;
        Ok(tag_kind(kind, result))
    }

    fn op_session_lint(&self, request: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let id = session_param(request)?;
        let (snapshot, report) = {
            let sessions = self.sessions.lock().expect("session registry poisoned");
            let entry = sessions.get(&id).ok_or_else(|| unknown_session(&id))?;
            (Arc::clone(&entry.snapshot), entry.report.clone())
        };
        deadline.check("before lint")?;
        let diags = self.lint_snapshot(&snapshot)?;
        deadline.check("after lint")?;
        Ok(diagnostics_json(&diags, Some(&report)))
    }

    fn op_session_close(&self, request: &Json) -> Result<Json, RequestError> {
        let id = session_param(request)?;
        let mut sessions = self.sessions.lock().expect("session registry poisoned");
        let entry = sessions.remove(&id).ok_or_else(|| unknown_session(&id))?;
        self.store.unpin(entry.key);
        Ok(Json::obj(vec![
            ("session", Json::str(id)),
            ("closed", Json::Bool(true)),
        ]))
    }

    // --- the pipeline -------------------------------------------------------

    /// Serves one line stream: requests from `reader`, responses to
    /// `writer`, with this server's worker count. Returns when the input
    /// ends or a `shutdown` request has drained. The reader runs on a
    /// detached thread so a `shutdown` can complete even while the input
    /// stream stays open (a blocked read never holds the drain hostage).
    pub fn serve<R, W>(&self, reader: R, mut writer: W) -> io::Result<()>
    where
        R: BufRead + Send + 'static,
        W: Write,
    {
        let shared = Arc::new(PipeShared::default());
        spawn_reader(reader, Arc::clone(&shared));
        let gate = SeqGate::default();
        let out = Mutex::new(OutState {
            next_seq: 0,
            ready: BTreeMap::new(),
            workers_active: self.options.threads.max(1),
        });
        let out_cv = Condvar::new();
        let mut io_result = Ok(());
        std::thread::scope(|scope| {
            for _ in 0..self.options.threads.max(1) {
                spawn_worker(scope, || {
                    loop {
                        let job = shared.next_job();
                        let Some(job) = job else { break };
                        let latch_shutdown = {
                            let response =
                                self.handle_line_gated(&job.line, job.received, &gate, job.seq);
                            let mut out = out.lock().expect("out lock poisoned");
                            out.ready.insert(job.seq, response);
                            out_cv.notify_all();
                            self.is_stopping()
                        };
                        if latch_shutdown {
                            // Latch under the queue lock so the reader
                            // cannot enqueue past the drain point.
                            shared.latch_stop();
                        }
                    }
                    let mut out = out.lock().expect("out lock poisoned");
                    out.workers_active -= 1;
                    out_cv.notify_all();
                });
            }
            // This thread is the writer: emit responses in sequence order.
            let mut writer_dead = false;
            let mut out_guard = out.lock().expect("out lock poisoned");
            loop {
                if writer_dead {
                    // Still-running workers keep inserting responses (with
                    // seq beyond the stalled next_seq); discard them every
                    // pass so the drain condition below stays reachable.
                    out_guard.ready.clear();
                } else {
                    while let Some(response) = {
                        let seq = out_guard.next_seq;
                        out_guard.ready.remove(&seq)
                    } {
                        out_guard.next_seq += 1;
                        drop(out_guard);
                        let w = writeln!(writer, "{response}").and_then(|()| writer.flush());
                        out_guard = out.lock().expect("out lock poisoned");
                        if let Err(e) = w {
                            // A vanished client is not a daemon failure,
                            // but stop writing and drain.
                            io_result = Err(e);
                            writer_dead = true;
                            out_guard.ready.clear();
                            break;
                        }
                    }
                }
                if out_guard.workers_active == 0 && out_guard.ready.is_empty() {
                    break;
                }
                let (guard, _) = out_cv
                    .wait_timeout(out_guard, Duration::from_millis(50))
                    .expect("out lock poisoned");
                out_guard = guard;
            }
        });
        io_result
    }

    /// Serves stdio: the `--stdio` transport.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.serve(BufReader::new(stdin), stdout.lock())
    }

    /// Binds `addr` and serves TCP connections on the nonblocking
    /// event-loop fleet until a `shutdown` request arrives on any of
    /// them; every request framed before the shutdown drains before the
    /// listener returns. Returns the bound local address via `on_bound`
    /// (useful with port 0).
    ///
    /// # Fleet architecture
    ///
    /// One thread (this one) runs the event loop: it drains the
    /// [`Acceptor`]'s blocking accept thread, pumps every connection's
    /// nonblocking reads/writes, applies admission control, and routes
    /// framed requests to a [`ShardPool`] of `threads` workers over
    /// `shards` digest-keyed queues. Workers compute; the loop owns all
    /// sockets and all ordering. Idle costs nothing: with no
    /// connections the loop parks forever (the acceptor wakes it), and
    /// with idle connections it parks on an escalating backoff capped
    /// at a few milliseconds — there is no fixed accept-poll sleep.
    ///
    /// # Ordering and backpressure
    ///
    /// Per-connection transcripts are byte-identical at any
    /// shard/worker count: responses enter the write buffer strictly in
    /// request order, and order-sensitive ops hold until every earlier
    /// request on their connection has been answered (see
    /// [`crate::conn`]). Past `conn_inflight` unanswered requests (or a
    /// slow reader's unflushed responses), the loop stops reading the
    /// connection and TCP pushes back. Past `max_inflight` dispatched
    /// requests fleet-wide, new requests are refused in transcript
    /// position with the structured `overloaded` error.
    pub fn serve_tcp(
        &self,
        addr: &str,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        let notify = Arc::new(Parker::new());
        let fleet = Arc::new(FleetStats::default());
        *self.fleet.lock().expect("fleet slot poisoned") = Some(Arc::clone(&fleet));
        let workers = self.options.threads.max(1);
        let shards = if self.options.shards == 0 {
            workers
        } else {
            self.options.shards
        };
        let pool = ShardPool::new(shards, workers, Arc::clone(&notify), Arc::clone(&fleet));
        let acceptor = Acceptor::spawn(listener, Arc::clone(&notify))?;
        std::thread::scope(|scope| {
            let pool_ref = &pool;
            for w in 0..pool.workers() {
                spawn_worker(scope, move || {
                    pool_ref.worker_loop(w, &|line, received| self.handle_line(line, received));
                });
            }
            self.event_loop(&acceptor, &pool, &notify, &fleet);
            pool.stop();
        });
        acceptor.shutdown();
        Ok(())
    }

    /// The fleet's event loop: runs until shutdown is latched and every
    /// framed request has been answered and flushed (or its connection
    /// died). Single-threaded by construction — it owns every socket,
    /// so framing, ordering, and admission need no locks.
    fn event_loop(
        &self,
        acceptor: &Acceptor,
        pool: &ShardPool,
        notify: &Arc<Parker>,
        fleet: &FleetStats,
    ) {
        let limits = ConnLimits {
            conn_inflight: self.options.conn_inflight,
            ..ConnLimits::default()
        };
        let max_inflight = self.options.max_inflight.max(1) as u64;
        let mut conns: BTreeMap<u64, Conn<TcpStream>> = BTreeMap::new();
        let mut next_conn_id = 0u64;
        let mut backoff = Backoff::new();
        let mut stopping = false;
        let mut drain_started: Option<Instant> = None;
        loop {
            let mut progress = false;

            // New connections. Once shutdown is latched, late arrivals
            // are refused (dropped) rather than half-served.
            for stream in acceptor.drain() {
                progress = true;
                if stopping {
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = next_conn_id;
                next_conn_id += 1;
                conns.insert(id, Conn::new(stream, id));
                fleet.connections.fetch_add(1, Ordering::Relaxed);
                fleet.connections_total.fetch_add(1, Ordering::Relaxed);
            }

            // Worker completions: advance each connection's ordered
            // writer; a completion can release a held order-sensitive
            // frame, which is admitted right here.
            for Completion {
                conn: id,
                seq,
                response,
            } in pool.drain_completions()
            {
                progress = true;
                if let Some(conn) = conns.get_mut(&id) {
                    let mut released = conn.complete(seq, response);
                    while let Some(frame) = released {
                        released = self.admit(conn, frame, pool, max_inflight, fleet);
                    }
                }
            }

            // Per-connection I/O: frame what arrived, admit it, flush
            // what is ready to leave.
            for conn in conns.values_mut() {
                if !stopping {
                    let pumped = conn.pump_read(&limits, needs_order);
                    progress |= pumped.progressed;
                    for frame in pumped.dispatch {
                        let mut released = self.admit(conn, frame, pool, max_inflight, fleet);
                        while let Some(next) = released {
                            released = self.admit(conn, next, pool, max_inflight, fleet);
                        }
                    }
                }
                progress |= conn.pump_write();
            }

            // Reap: closed-and-drained or broken connections free their
            // slot (never while a dispatched request could still post a
            // completion for them).
            let before = conns.len();
            conns.retain(|_, c| !c.reapable());
            if conns.len() != before {
                fleet
                    .connections
                    .fetch_sub((before - conns.len()) as u64, Ordering::Relaxed);
                progress = true;
            }

            if !stopping && self.is_stopping() {
                // Shutdown latched by some worker. Stop reading (lines
                // framed before this sweep still drain, matching the
                // stdio pipeline's guarantee) and stop admitting
                // connections.
                stopping = true;
                progress = true;
            }

            if stopping && pool.inflight() == 0 {
                let all_emitted = conns.values().all(|c| c.is_dead() || c.emit_done());
                if all_emitted {
                    if conns.values().all(|c| c.is_dead() || c.drained()) {
                        break;
                    }
                    // Everything is answered; only unflushed bytes to
                    // slow readers remain. Bounded grace, then cut.
                    let t = *drain_started.get_or_insert_with(Instant::now);
                    if t.elapsed() > Duration::from_secs(2) {
                        break;
                    }
                }
            }

            if progress {
                backoff.reset();
                continue;
            }
            // Nothing moved. Park: forever with no connections (the
            // acceptor or a completion wakes us), otherwise on the
            // escalating backoff — the cap bounds how late the loop can
            // notice bytes on an idle connection, the only signal
            // without a waker.
            if conns.is_empty() && !stopping {
                notify.wait(None);
                backoff.reset();
            } else {
                let cap = if stopping || conns.values().any(|c| c.wbuf_len() > 0) {
                    Duration::from_micros(500)
                } else {
                    Duration::from_millis(5)
                };
                if let Some(park) = backoff.next_park(cap) {
                    if notify.wait(Some(park)) {
                        backoff.reset();
                    }
                }
            }
        }
    }

    /// Admission control for one framed request: refuse it in
    /// transcript position when the fleet-wide in-flight cap is hit,
    /// otherwise route it to its shard. Returns the next held frame if
    /// a synthesized response released one.
    fn admit(
        &self,
        conn: &mut Conn<TcpStream>,
        frame: Frame,
        pool: &ShardPool,
        max_inflight: u64,
        fleet: &FleetStats,
    ) -> Option<Frame> {
        if conn.is_dead() {
            // The client is gone; executing would be pure waste. The
            // empty completion keeps the sequence accounting moving so
            // the slot can be reaped.
            return conn.complete(frame.seq, String::new());
        }
        if pool.inflight() >= max_inflight {
            fleet.overloaded_total.fetch_add(1, Ordering::Relaxed);
            self.requests.fetch_add(1, Ordering::Relaxed);
            let response = overloaded_response(&frame.line, max_inflight);
            return conn.complete(frame.seq, response);
        }
        let affinity = affinity_digest(&frame.line);
        pool.dispatch(Task {
            conn: conn.id,
            seq: frame.seq,
            line: frame.line,
            received: frame.received,
            affinity,
        });
        None
    }

    /// The pre-fleet transport: one blocking OS thread per connection,
    /// each running the stdio pipeline over the socket. Kept as the
    /// soak bench's baseline and behind `--transport threaded` for
    /// comparison; the accept path shares the fleet's [`Acceptor`], so
    /// even the legacy transport no longer sleep-polls.
    pub fn serve_tcp_threaded(
        &self,
        addr: &str,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        let notify = Arc::new(Parker::new());
        let acceptor = Acceptor::spawn(listener, Arc::clone(&notify))?;
        std::thread::scope(|scope| loop {
            if self.is_stopping() {
                break;
            }
            for stream in acceptor.drain() {
                let wake = Arc::clone(&notify);
                // The connection thread only writes responses; the
                // pipeline it runs spawns its own request workers.
                scope.spawn(move || {
                    let _ = self.serve_tcp_connection(stream);
                    // A finished connection may have latched shutdown:
                    // wake the accept loop so it notices.
                    wake.wake();
                });
            }
            notify.wait(None);
        });
        acceptor.shutdown();
        Ok(())
    }

    /// One TCP connection: same pipeline, with a read timeout so an idle
    /// connection notices a daemon-wide shutdown within ~50 ms.
    fn serve_tcp_connection(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let writer = stream.try_clone()?;
        let reader = TimeoutLineReader {
            inner: BufReader::new(stream),
            stop: Arc::clone(&self.stop),
        };
        self.serve(reader, writer)
    }
}

/// The `fleet` block of the `stats` response.
fn fleet_stats_json(fleet: &FleetStats) -> Json {
    Json::obj(vec![
        ("shards", Json::num(fleet.shards.load(Ordering::Relaxed))),
        ("workers", Json::num(fleet.workers.load(Ordering::Relaxed))),
        (
            "connections",
            Json::num(fleet.connections.load(Ordering::Relaxed)),
        ),
        (
            "connections_total",
            Json::num(fleet.connections_total.load(Ordering::Relaxed)),
        ),
        (
            "dispatched",
            Json::num(fleet.dispatched.load(Ordering::Relaxed)),
        ),
        (
            "shard_hits",
            Json::num(fleet.shard_hits.load(Ordering::Relaxed)),
        ),
        (
            "overloaded_total",
            Json::num(fleet.overloaded_total.load(Ordering::Relaxed)),
        ),
    ])
}

/// One stderr line summarizing a fleet's lifetime (the `--summary`
/// flag).
pub fn fleet_summary_line(fleet: &FleetStats) -> String {
    format!(
        "fleet summary: connections_total={} dispatched={} shard_hits={} overloaded_total={}",
        fleet.connections_total.load(Ordering::Relaxed),
        fleet.dispatched.load(Ordering::Relaxed),
        fleet.shard_hits.load(Ordering::Relaxed),
        fleet.overloaded_total.load(Ordering::Relaxed),
    )
}

/// The synthesized admission-rejection response, echoing the request's
/// `id` and protocol version so it sits in the transcript exactly where
/// the executed response would have.
fn overloaded_response(line: &str, max_inflight: u64) -> String {
    let (id, version) = match Json::parse(line) {
        Ok(request) => {
            let id = request.get("id").cloned().unwrap_or(Json::Null);
            let version = match request.get("v").and_then(Json::as_u64) {
                Some(v) if v == PROTOCOL_VERSION || v == PROTOCOL_VERSION_SESSION => v,
                Some(_) | None => PROTOCOL_VERSION,
            };
            (id, version)
        }
        Err(_) => (Json::Null, PROTOCOL_VERSION),
    };
    err_response(
        version,
        id,
        &RequestError::new(
            ErrorKind::Overloaded,
            format!("admission refused: {max_inflight} requests already in flight; retry after draining"),
        ),
    )
    .to_line()
}

// --- shard affinity -------------------------------------------------------

/// The routing digest for one request line: the snapshot content
/// address when one is named or derivable, a session-id hash for
/// `session/*` ops, `0` (round-robin) otherwise. This is a locality
/// *hint* — the scan is shallow and a wrong guess costs a cache-warm
/// shard, never correctness — but for well-formed requests it matches
/// [`SnapshotKey::derive`] exactly, so `analyze` and the `query`s that
/// follow it land on the same shard.
fn affinity_digest(line: &str) -> u64 {
    if let Some(raw) = raw_str_field(line, "snapshot") {
        if let Some(key) = SnapshotKey::from_hex(raw) {
            return key.0;
        }
    }
    if let Some(raw) = raw_str_field(line, "session") {
        return stcfa_devkit::hash::Fnv1a::digest_parts(raw.as_bytes(), &[u64::MAX]);
    }
    if let Some(raw) = raw_str_field(line, "source") {
        let source = unescape_json_span(raw);
        let policy = raw_str_field(line, "policy").unwrap_or("c1");
        if let Some((_, disc)) = crate::proto::parse_policy(policy) {
            return SnapshotKey::derive(&source, disc, ENGINE_SUB).0;
        }
    }
    0
}

/// Finds the raw (still-escaped) span of a string field in a JSON line:
/// `"name"` then `:` then a string literal. Shallow by design — a
/// matching key inside a nested string can fool it, which skews a
/// routing hint and nothing else.
fn raw_str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let bytes = line.as_bytes();
    let pat = format!("\"{name}\"");
    let mut from = 0;
    while let Some(rel) = line[from..].find(&pat) {
        let mut i = from + rel + pat.len();
        from = i;
        while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            continue;
        }
        i += 1;
        while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'"' {
            continue;
        }
        i += 1;
        let start = i;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(&line[start..i]),
                _ => i += 1,
            }
        }
        return None;
    }
    None
}

/// Unescapes a raw JSON string span (the bytes between the quotes) just
/// enough to reproduce what the real parser would hand the analyzer —
/// required for the affinity digest to agree with the content address
/// the worker derives.
fn unescape_json_span(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                match u32::from_str_radix(&hex, 16) {
                    Ok(hi @ 0xd800..=0xdbff) => {
                        // A surrogate pair: expect \uDCxx next.
                        let mut rest = chars.clone();
                        let lo = (rest.next() == Some('\\') && rest.next() == Some('u'))
                            .then(|| {
                                let hex: String = rest.by_ref().take(4).collect();
                                u32::from_str_radix(&hex, 16).ok()
                            })
                            .flatten();
                        match lo {
                            Some(lo @ 0xdc00..=0xdfff) => {
                                let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                                chars = rest;
                            }
                            _ => out.push('\u{fffd}'),
                        }
                    }
                    Ok(code) => out.push(char::from_u32(code).unwrap_or('\u{fffd}')),
                    Err(_) => out.push('\u{fffd}'),
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Decodes the NUL-prefixed error kind the build closure encodes (the
/// store transports build failures as plain strings).
fn decode_build_err(encoded: String) -> RequestError {
    match encoded.split_once('\u{0}') {
        Some(("parse", msg)) => RequestError::new(ErrorKind::Parse, msg),
        Some(("analysis", msg)) => RequestError::new(ErrorKind::Analysis, msg),
        _ => RequestError::new(ErrorKind::Analysis, encoded),
    }
}

/// Parses the optional `policy` field (default `c1`) into the core enum
/// and its stable content-address discriminant.
fn policy_param(request: &Json) -> Result<(DatatypePolicy, u64), RequestError> {
    let name = request.get("policy").and_then(Json::as_str).unwrap_or("c1");
    parse_policy(name).ok_or_else(|| {
        RequestError::new(
            ErrorKind::Proto,
            format!("unknown policy `{name}` (expected c1|c2|exact|forget)"),
        )
    })
}

/// The required `session` id of every `session/*` op.
fn session_param(request: &Json) -> Result<String, RequestError> {
    request
        .get("session")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| {
            RequestError::new(
                ErrorKind::Proto,
                "`session/*` ops need a string `session` id",
            )
        })
}

/// Parses a module array: `[{"name":…,"source":…}, …]`.
fn modules_param(request: &Json, field: &str) -> Result<Vec<(String, String)>, RequestError> {
    let arr = request.get(field).and_then(Json::as_arr).ok_or_else(|| {
        RequestError::new(
            ErrorKind::Proto,
            format!("`{field}` must be an array of {{name, source}} objects"),
        )
    })?;
    arr.iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str).ok_or_else(|| {
                RequestError::new(
                    ErrorKind::Proto,
                    format!("every `{field}` entry needs a string `name`"),
                )
            })?;
            let source = entry.get("source").and_then(Json::as_str).ok_or_else(|| {
                RequestError::new(
                    ErrorKind::Proto,
                    format!("every `{field}` entry needs a string `source`"),
                )
            })?;
            Ok((name.to_owned(), source.to_owned()))
        })
        .collect()
}

/// Reads the opt-in `"precision"` flag. Grading is a protocol-2
/// surface: requests without the flag (every protocol-1 transcript) are
/// answered byte-identically to a daemon without the scheduler.
fn precision_param(request: &Json, version: u64) -> Result<bool, RequestError> {
    match request.get("precision") {
        None => Ok(false),
        Some(Json::Bool(b)) => {
            if *b && version != PROTOCOL_VERSION_SESSION {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    "`precision` is a protocol-2 field: it requires \"v\":2",
                ));
            }
            Ok(*b)
        }
        Some(_) => Err(RequestError::new(
            ErrorKind::Proto,
            "`precision` must be a boolean",
        )),
    }
}

/// Renders one answer's precision grade.
fn precision_json(info: stcfa_precision::PrecisionInfo) -> Json {
    Json::obj(vec![
        ("class", Json::str(info.class.as_str())),
        ("tier", Json::num(info.tier.level() as u64)),
        ("suspicion", Json::num(info.suspicion as u64)),
    ])
}

/// The canonical text a linked snapshot's digest is collision-checked
/// against: the module names and sources in link order, separated by
/// control bytes no source can contain ambiguously.
fn session_manifest(workspace: &Workspace) -> String {
    let mut s = String::from("session\u{0}");
    for m in workspace.modules() {
        s.push_str(m.name());
        s.push('\u{1}');
        s.push_str(m.source());
        s.push('\u{2}');
    }
    s
}

/// Maps a link failure onto the protocol's structured error classes;
/// the message names the offending module.
fn link_err(e: LinkError) -> RequestError {
    let kind = match &e {
        LinkError::Parse { .. } => ErrorKind::Parse,
        LinkError::Analysis { .. } => ErrorKind::Analysis,
    };
    RequestError::new(kind, e.to_string())
}

fn unknown_session(id: &str) -> RequestError {
    RequestError::new(
        ErrorKind::UnknownSession,
        format!("no open session named `{id}`"),
    )
}

/// Renders a link report as the `session/open` / `session/update`
/// result object.
fn link_json(id: &str, key: SnapshotKey, cached: bool, report: &LinkReport) -> Json {
    let modules: Vec<Json> = report
        .modules
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name.clone())),
                ("digest", Json::str(format!("{:016x}", m.digest))),
                (
                    "imports",
                    Json::Arr(m.imports.iter().map(Json::str).collect()),
                ),
                ("reused", Json::Bool(m.reused)),
                ("generation", Json::num(m.generation)),
                ("exprs", Json::num(m.exprs as u64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("session", Json::str(id)),
        ("digest", Json::str(key.hex())),
        ("cached", Json::Bool(cached)),
        ("generation", Json::num(report.generation)),
        ("reused", Json::num(report.reused as u64)),
        ("relinked", Json::num(report.relinked as u64)),
        ("modules", Json::Arr(modules)),
        ("nodes", Json::num(report.nodes as u64)),
        ("edges", Json::num(report.edges as u64)),
        ("exprs", Json::num(report.exprs as u64)),
    ])
}

/// The query-kind dispatcher shared by `query` and `session/query`.
/// `default_expr` supplies the target when a `label-set` request names
/// no `expr` (the program root for v1, the session's trailing value for
/// v2).
fn query_result(
    kind: &str,
    request: &Json,
    program: &Program,
    engine: &QueryEngine,
    default_expr: impl FnOnce() -> Result<ExprId, RequestError>,
) -> Result<Json, RequestError> {
    Ok(match kind {
        "label-set" => {
            let expr = match request.get("expr") {
                None => default_expr()?,
                Some(v) => expr_param(v, program, "expr")?,
            };
            labels_json(program, &engine.labels_of(expr))
        }
        "call-targets" => {
            let site = expr_param(
                request.get("site").ok_or_else(|| {
                    RequestError::new(ErrorKind::Proto, "`call-targets` needs `site`")
                })?,
                program,
                "site",
            )?;
            let targets = engine.call_targets(program, site).ok_or_else(|| {
                RequestError::new(
                    ErrorKind::Proto,
                    format!("expression {} is not an application site", site.index()),
                )
            })?;
            labels_json(program, &targets)
        }
        "occurrences" => {
            let label = label_param(request, program)?;
            let exprs = engine.exprs_with_label(label);
            Json::obj(vec![
                ("count", Json::num(exprs.len() as u64)),
                (
                    "exprs",
                    Json::Arr(exprs.iter().map(|e| Json::num(e.index() as u64)).collect()),
                ),
            ])
        }
        "reachability" => {
            let expr = expr_param(
                request.get("expr").ok_or_else(|| {
                    RequestError::new(ErrorKind::Proto, "`reachability` needs `expr`")
                })?,
                program,
                "expr",
            )?;
            let label = label_param(request, program)?;
            Json::obj(vec![(
                "reaches",
                Json::Bool(engine.label_reaches(expr, label)),
            )])
        }
        other => {
            return Err(RequestError::new(
                ErrorKind::Proto,
                format!(
                    "unknown query kind `{other}` \
                     (expected label-set|call-targets|occurrences|reachability)"
                ),
            ))
        }
    })
}

/// Prepends the echoed query kind to a result object.
fn tag_kind(kind: String, result: Json) -> Json {
    let Json::Obj(mut pairs) = result else {
        unreachable!("results are objects")
    };
    pairs.insert(0, ("kind".to_owned(), Json::Str(kind)));
    Json::Obj(pairs)
}

/// Renders lint diagnostics; with a link report each diagnostic is
/// additionally attributed to the module owning its expression.
fn diagnostics_json(diags: &[Diagnostic], report: Option<&LinkReport>) -> Json {
    let items: Vec<Json> = diags
        .iter()
        .map(|d| {
            let span = match d.span {
                None => Json::Null,
                Some(s) => Json::obj(vec![
                    ("line", Json::num(s.start.line as u64)),
                    ("col", Json::num(s.start.col as u64)),
                    ("end_line", Json::num(s.end.line as u64)),
                    ("end_col", Json::num(s.end.col as u64)),
                ]),
            };
            let mut pairs = vec![
                ("code", Json::str(d.code.as_str())),
                ("severity", Json::str(d.severity.as_str())),
                ("confidence", Json::str(d.confidence.as_str())),
            ];
            if d.code.fixable() {
                pairs.push(("fixable", Json::Bool(true)));
            }
            pairs.extend([
                ("expr", Json::num(d.expr.index() as u64)),
                ("span", span),
                ("message", Json::str(d.message.clone())),
            ]);
            if let Some(report) = report {
                let module = match report.module_of_expr(d.expr) {
                    Some(name) => Json::str(name),
                    None => Json::Null,
                };
                pairs.push(("module", module));
            }
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("count", Json::num(items.len() as u64)),
        ("diagnostics", Json::Arr(items)),
    ])
}

/// Resolves the `sources` parameter of the taint rule: an explicit
/// array of label indices, or (by default) every effectful-bodied
/// abstraction in the program.
fn taint_sources(
    request: &Json,
    program: &Program,
    db: &ExtDb<'_>,
) -> Result<Vec<Label>, RequestError> {
    match request.get("sources") {
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let idx = item
                    .as_u64()
                    .filter(|&n| (n as usize) < program.label_count())
                    .ok_or_else(|| {
                        RequestError::new(
                            ErrorKind::Proto,
                            format!(
                                "`sources` entries must be label indices below {}",
                                program.label_count()
                            ),
                        )
                    })?;
                out.push(Label::from_index(idx as usize));
            }
            out.sort_unstable();
            out.dedup();
            Ok(out)
        }
        Some(_) => Err(RequestError::new(
            ErrorKind::Proto,
            "`sources` must be an array of label indices",
        )),
        None => {
            let eff = db.effects();
            Ok(program
                .all_labels()
                .filter(|&l| match program.kind(program.lam_of_label(l)) {
                    ExprKind::Lam { body, .. } => eff.is_effectful(*body),
                    _ => false,
                })
                .collect())
        }
    }
}

/// Validates an expression-index parameter against the program.
fn expr_param(v: &Json, program: &Program, field: &str) -> Result<ExprId, RequestError> {
    let index = v.as_u64().ok_or_else(|| {
        RequestError::new(
            ErrorKind::Proto,
            format!("`{field}` must be an expression index"),
        )
    })?;
    if (index as usize) >= program.size() {
        return Err(RequestError::new(
            ErrorKind::Proto,
            format!(
                "`{field}` {index} out of range (program has {} expressions)",
                program.size()
            ),
        ));
    }
    Ok(ExprId::from_index(index as usize))
}

/// Validates a label-index parameter against the program.
fn label_param(request: &Json, program: &Program) -> Result<Label, RequestError> {
    let index = request
        .get("label")
        .and_then(Json::as_u64)
        .ok_or_else(|| RequestError::new(ErrorKind::Proto, "request needs a `label` index"))?;
    if (index as usize) >= program.label_count() {
        return Err(RequestError::new(
            ErrorKind::Proto,
            format!(
                "`label` {index} out of range (program has {} labels)",
                program.label_count()
            ),
        ));
    }
    Ok(Label::from_index(index as usize))
}

/// Renders a label set as indices plus display names (`λx#0`, as the CLI
/// prints them).
fn labels_json(program: &Program, labels: &[Label]) -> Json {
    let names: Vec<Json> = labels
        .iter()
        .map(|&l| {
            let lam = program.lam_of_label(l);
            let ExprKind::Lam { param, .. } = program.kind(lam) else {
                unreachable!()
            };
            Json::str(format!("λ{}#{}", program.var_name(*param), l.index()))
        })
        .collect();
    Json::obj(vec![
        ("count", Json::num(labels.len() as u64)),
        (
            "labels",
            Json::Arr(labels.iter().map(|l| Json::num(l.index() as u64)).collect()),
        ),
        ("names", Json::Arr(names)),
    ])
}

// --- pipeline plumbing ------------------------------------------------------

struct Job {
    seq: u64,
    line: String,
    received: Instant,
}

#[derive(Default)]
struct PipeState {
    pending: VecDeque<Job>,
    input_done: bool,
    /// Latched after a shutdown response is enqueued: the reader stops
    /// accepting new requests, workers drain and exit.
    stopped: bool,
}

#[derive(Default)]
struct PipeShared {
    state: Mutex<PipeState>,
    work_cv: Condvar,
}

impl PipeShared {
    /// Enqueues a line unless the pipeline has latched shutdown; returns
    /// whether the reader should keep going.
    fn push(&self, seq: u64, line: String, received: Instant) -> bool {
        let mut state = self.state.lock().expect("pipe lock poisoned");
        if state.stopped {
            return false;
        }
        state.pending.push_back(Job {
            seq,
            line,
            received,
        });
        self.work_cv.notify_one();
        true
    }

    fn finish_input(&self) {
        let mut state = self.state.lock().expect("pipe lock poisoned");
        state.input_done = true;
        self.work_cv.notify_all();
    }

    fn latch_stop(&self) {
        let mut state = self.state.lock().expect("pipe lock poisoned");
        state.stopped = true;
        self.work_cv.notify_all();
    }

    /// The next job, or `None` when the pipeline is done (input ended or
    /// shutdown latched) **and** the queue is drained.
    fn next_job(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("pipe lock poisoned");
        loop {
            if let Some(job) = state.pending.pop_front() {
                return Some(job);
            }
            if state.input_done || state.stopped {
                return None;
            }
            let (guard, _) = self
                .work_cv
                .wait_timeout(state, Duration::from_millis(50))
                .expect("pipe lock poisoned");
            state = guard;
        }
    }
}

struct OutState {
    next_seq: u64,
    ready: BTreeMap<u64, String>,
    workers_active: usize,
}

/// Whether a request line must execute in stream order (see
/// [`Server::handle_line_gated`]). A conservative substring check: every
/// `session/*` op's line contains `"session/` and every `evict` op's
/// line contains `"evict"`, so there are no false negatives; a false
/// positive (the marker inside a source string) merely orders one extra
/// request, which is harmless.
fn needs_order(line: &str) -> bool {
    line.contains("\"session/") || line.contains("\"evict\"")
}

/// The pipeline's sequence gate: tracks which request sequence numbers
/// have been answered and lets an order-sensitive request wait until
/// everything before it has.
#[derive(Default)]
struct SeqGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// The first sequence number not yet completed.
    watermark: u64,
    /// Completed sequence numbers at or above the watermark.
    done: BTreeSet<u64>,
}

impl SeqGate {
    /// Blocks until every request before `seq` has completed.
    fn wait_for_turn(&self, seq: u64) {
        let mut state = self.state.lock().expect("seq gate poisoned");
        while state.watermark < seq {
            state = self.cv.wait(state).expect("seq gate poisoned");
        }
    }

    /// Marks `seq` complete and advances the watermark past every
    /// contiguously completed sequence number.
    fn complete(&self, seq: u64) {
        let mut state = self.state.lock().expect("seq gate poisoned");
        state.done.insert(seq);
        while state.done.contains(&state.watermark) {
            let w = state.watermark;
            state.done.remove(&w);
            state.watermark += 1;
        }
        self.cv.notify_all();
    }
}

/// Spawns the detached reader thread: lines in, jobs out. Detached on
/// purpose — see [`Server::serve`].
fn spawn_reader<R: BufRead + Send + 'static>(mut reader: R, shared: Arc<PipeShared>) {
    std::thread::spawn(move || {
        let mut seq = 0u64;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let received = Instant::now();
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue; // blank keep-alive lines get no response
                    }
                    if !shared.push(seq, trimmed.to_owned(), received) {
                        break;
                    }
                    seq += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        shared.finish_input();
    });
}

/// A line reader over a read-timeout TCP stream: `WouldBlock`/`TimedOut`
/// reads poll the daemon's stop flag instead of erroring out, so idle
/// connections participate in graceful shutdown.
struct TimeoutLineReader {
    inner: BufReader<TcpStream>,
    stop: Arc<AtomicBool>,
}

impl io::Read for TimeoutLineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.inner, buf)
    }
}

impl BufRead for TimeoutLineReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt)
    }

    fn read_line(&mut self, buf: &mut String) -> io::Result<usize> {
        loop {
            match self.inner.read_line(buf) {
                Ok(n) => return Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(0); // treat daemon shutdown as EOF
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerOptions {
            threads: 2,
            ..Default::default()
        })
    }

    fn call(server: &Server, line: &str) -> Json {
        Json::parse(&server.handle_line(line, Instant::now())).expect("response is valid JSON")
    }

    #[test]
    fn analyze_then_query_round_trip() {
        let s = server();
        let r = call(
            &s,
            r#"{"v":1,"id":1,"op":"analyze","source":"(fn x => x x) (fn y => y)"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(1));
        let digest = r
            .get("result")
            .and_then(|res| res.get("snapshot"))
            .and_then(Json::as_str)
            .expect("digest")
            .to_owned();
        let q = call(
            &s,
            &format!(r#"{{"op":"query","kind":"label-set","snapshot":"{digest}"}}"#),
        );
        let result = q.get("result").expect("ok");
        assert_eq!(result.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(
            result
                .get("names")
                .and_then(Json::as_arr)
                .and_then(|a| a[0].as_str()),
            Some("λy#1")
        );
    }

    #[test]
    fn opt_op_requires_protocol_two() {
        let s = server();
        let r = call(&s, r#"{"op":"opt","source":"(fn x => x) 1"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let msg = r
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("\"v\":2"), "{msg}");
    }

    #[test]
    fn opt_round_trip_reuses_snapshot() {
        let s = server();
        let r = call(
            &s,
            r#"{"v":1,"op":"analyze","source":"let val f = fn x => x + 1 in f 41 end"}"#,
        );
        let digest = r
            .get("result")
            .and_then(|res| res.get("snapshot"))
            .and_then(Json::as_str)
            .expect("digest")
            .to_owned();
        let o = call(
            &s,
            &format!(r#"{{"v":2,"op":"opt","snapshot":"{digest}","emit":true}}"#),
        );
        let result = o.get("result").unwrap_or_else(|| panic!("{o:?}"));
        assert!(result.get("performed").and_then(Json::as_u64) >= Some(1));
        let before = result.get("nodes_before").and_then(Json::as_u64).unwrap();
        let after = result.get("nodes_after").and_then(Json::as_u64).unwrap();
        assert!(after < before, "{o:?}");
        let source = result.get("source").and_then(Json::as_str).expect("emit");
        assert!(source.contains("41"), "{source}");
        assert!(!result
            .get("passes")
            .and_then(Json::as_arr)
            .expect("passes")
            .is_empty());
    }

    #[test]
    fn opt_rejects_unknown_pass() {
        let s = server();
        let r = call(
            &s,
            r#"{"v":2,"op":"opt","source":"1 + 1","passes":["fuse-loops"]}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let msg = r
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("unknown pass"), "{msg}");
    }

    #[test]
    fn rule_op_requires_protocol_two() {
        let s = server();
        let r = call(
            &s,
            r#"{"op":"rule","name":"dominators","source":"fun f x = x; f 1"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let msg = r
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("\"v\":2"), "{msg}");
    }

    #[test]
    fn rule_dominators_round_trip() {
        let s = server();
        let r = call(
            &s,
            r#"{"v":2,"op":"rule","name":"dominators","source":"fun f x = x; fun g y = f y; g 2"}"#,
        );
        let result = r.get("result").unwrap_or_else(|| panic!("{r:?}"));
        assert_eq!(
            result.get("rule").and_then(Json::as_str),
            Some("dominators")
        );
        let entry = result.get("entry").and_then(Json::as_u64).expect("entry");
        let nodes = result.get("nodes").and_then(Json::as_arr).expect("nodes");
        assert!(!nodes.is_empty());
        // The entry node is reachable and dominated only by itself.
        let entry_row = nodes
            .iter()
            .find(|n| n.get("node").and_then(Json::as_u64) == Some(entry))
            .expect("entry row");
        let doms = entry_row.get("doms").and_then(Json::as_arr).unwrap();
        assert_eq!(doms.len(), 1);
        // Every reachable node is dominated by the entry.
        for n in nodes {
            let doms = n.get("doms").and_then(Json::as_arr).unwrap();
            assert!(doms.iter().any(|d| d.as_u64() == Some(entry)), "{n:?}");
        }
    }

    #[test]
    fn rule_taint_full_and_demand_agree() {
        let s = server();
        let src = "fun apply f = fn y => f y; apply (fn n => print n) 7";
        let r = call(
            &s,
            &format!(r#"{{"v":2,"op":"rule","name":"taint","source":"{src}"}}"#),
        );
        let result = r.get("result").unwrap_or_else(|| panic!("{r:?}"));
        let tainted = result.get("tainted").and_then(Json::as_arr).expect("list");
        assert!(!tainted.is_empty(), "the printer flows somewhere");
        let first = tainted[0].as_u64().unwrap();
        let q = call(
            &s,
            &format!(r#"{{"v":2,"op":"rule","name":"taint","source":"{src}","expr":{first}}}"#),
        );
        let result = q.get("result").unwrap_or_else(|| panic!("{q:?}"));
        assert_eq!(result.get("tainted"), Some(&Json::Bool(true)));
        // Explicit empty sources taint nothing.
        let q = call(
            &s,
            &format!(r#"{{"v":2,"op":"rule","name":"taint","source":"{src}","sources":[]}}"#),
        );
        let result = q.get("result").unwrap();
        assert_eq!(
            result
                .get("tainted")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(0)
        );
    }

    #[test]
    fn rule_errors_are_structured() {
        let s = server();
        let msg = |r: &Json| {
            r.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .map(str::to_owned)
                .unwrap_or_else(|| panic!("{r:?}"))
        };
        let r = call(
            &s,
            r#"{"v":2,"op":"rule","name":"nosuch","source":"fun f x = x; f 1"}"#,
        );
        assert!(msg(&r).contains("dominators|taint"), "{r:?}");
        let r = call(&s, r#"{"v":2,"op":"rule","source":"fun f x = x; f 1"}"#);
        assert!(msg(&r).contains("needs `name`"), "{r:?}");
        let r = call(
            &s,
            r#"{"v":2,"op":"rule","name":"taint","sources":[9999],"source":"fun f x = x; f 1"}"#,
        );
        assert!(msg(&r).contains("label indices"), "{r:?}");
    }

    #[test]
    fn second_analyze_is_a_cache_hit() {
        let s = server();
        let line = r#"{"op":"analyze","source":"fun id x = x; id (fn u => u)"}"#;
        let first = call(&s, line);
        let second = call(&s, line);
        let cached = |r: &Json| {
            r.get("result")
                .and_then(|res| res.get("cached"))
                .and_then(Json::as_bool)
        };
        assert_eq!(cached(&first), Some(false));
        assert_eq!(cached(&second), Some(true));
        let stats = call(&s, r#"{"op":"stats"}"#);
        let cache = stats
            .get("result")
            .and_then(|r| r.get("cache"))
            .expect("cache stats");
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn structured_errors_cover_the_failure_modes() {
        let s = server();
        let kind = |r: &Json| {
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        assert_eq!(
            kind(&call(&s, "this is not json")).as_deref(),
            Some("proto")
        );
        assert_eq!(
            kind(&call(&s, r#"{"op":"analyze","source":"fn x =>"}"#)).as_deref(),
            Some("parse")
        );
        assert_eq!(
            kind(&call(
                &s,
                r#"{"op":"analyze","source":"(fn x => x x) (fn x => x x)"}"#
            ))
            .as_deref(),
            Some("analysis"),
            "omega has unbounded types: the close phase rejects it"
        );
        assert_eq!(
            kind(&call(
                &s,
                r#"{"op":"query","kind":"label-set","snapshot":"00000000deadbeef"}"#
            ))
            .as_deref(),
            Some("unknown-snapshot")
        );
        assert_eq!(
            kind(&call(&s, r#"{"v":3,"op":"stats"}"#)).as_deref(),
            Some("proto")
        );
        assert_eq!(
            kind(&call(&s, r#"{"op":"frobnicate"}"#)).as_deref(),
            Some("proto")
        );
        // Session ops demand v2 and a known session id.
        assert_eq!(
            kind(&call(&s, r#"{"op":"session/query","session":"s"}"#)).as_deref(),
            Some("proto"),
            "session ops without v:2 are protocol errors"
        );
        assert_eq!(
            kind(&call(
                &s,
                r#"{"v":2,"op":"session/query","session":"s","kind":"label-set"}"#
            ))
            .as_deref(),
            Some("unknown-session")
        );
    }

    #[test]
    fn deadline_zero_times_out_but_daemon_survives() {
        let s = server();
        let r = call(
            &s,
            r#"{"op":"analyze","source":"(fn x => x) (fn y => y)","deadline_ms":0}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("timeout")
        );
        // The daemon keeps serving afterwards.
        let ok = call(&s, r#"{"op":"analyze","source":"(fn x => x) (fn y => y)"}"#);
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn evicted_snapshot_is_reported_stale() {
        let s = server();
        let r = call(&s, r#"{"op":"analyze","source":"(fn a => a) (fn b => b)"}"#);
        let digest = r
            .get("result")
            .and_then(|res| res.get("snapshot"))
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let e = call(&s, &format!(r#"{{"op":"evict","snapshot":"{digest}"}}"#));
        assert_eq!(
            e.get("result").and_then(|res| res.get("evicted")),
            Some(&Json::Bool(true))
        );
        let q = call(
            &s,
            &format!(r#"{{"op":"query","kind":"label-set","snapshot":"{digest}"}}"#),
        );
        assert_eq!(
            q.get("error")
                .and_then(|err| err.get("kind"))
                .and_then(Json::as_str),
            Some("stale-snapshot")
        );
    }

    #[test]
    fn pipeline_orders_responses_and_drains_on_shutdown() {
        let s = server();
        let input = concat!(
            r#"{"id":0,"op":"analyze","source":"(fn x => x) (fn y => y)"}"#,
            "\n",
            r#"{"id":1,"op":"query","kind":"label-set","source":"(fn x => x) (fn y => y)"}"#,
            "\n",
            r#"{"id":2,"op":"shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        s.serve(io::Cursor::new(input.to_owned()), &mut out)
            .unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(
                line.get("id").and_then(Json::as_u64),
                Some(i as u64),
                "order"
            );
            assert_eq!(line.get("ok"), Some(&Json::Bool(true)));
        }
        assert!(s.is_stopping());
    }

    /// A writer whose client vanished: the first `allow` writes succeed,
    /// every later one reports a broken pipe.
    struct BrokenPipe {
        allow: usize,
    }

    impl Write for BrokenPipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.allow == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"));
            }
            self.allow -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_error_mid_burst_drains_instead_of_hanging() {
        let s = server();
        // More requests than workers, so responses keep arriving after
        // the write error; the drain must still terminate.
        let input: String = (0..8)
            .map(|i| format!(r#"{{"id":{i},"op":"analyze","source":"(fn x => x) (fn y => y)"}}"#))
            .map(|l| l + "\n")
            .collect();
        let err = s
            .serve(io::Cursor::new(input), BrokenPipe { allow: 1 })
            .expect_err("the write failure must surface");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn session_open_update_query_close_round_trip() {
        let s = server();
        let open = call(
            &s,
            r#"{"v":2,"id":1,"op":"session/open","session":"w","modules":[{"name":"util","source":"fun id x = x;"},{"name":"main","source":"id (fn u => u)"}]}"#,
        );
        assert_eq!(
            open.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            open.to_line()
        );
        assert_eq!(open.get("v").and_then(Json::as_u64), Some(2));
        let result = open.get("result").unwrap();
        let digest = result
            .get("digest")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        assert_eq!(result.get("relinked").and_then(Json::as_u64), Some(2));
        let modules = result.get("modules").and_then(Json::as_arr).unwrap();
        assert_eq!(
            modules[1].get("imports").and_then(Json::as_arr).unwrap()[0].as_str(),
            Some("util")
        );

        // Default query target: the trailing value of the last module.
        let q = call(
            &s,
            r#"{"v":2,"op":"session/query","session":"w","kind":"label-set"}"#,
        );
        let qr = q.get("result").unwrap();
        assert_eq!(
            qr.get("count").and_then(Json::as_u64),
            Some(1),
            "{}",
            q.to_line()
        );

        // Querying a top-level binder by name.
        let qn = call(
            &s,
            r#"{"v":2,"op":"session/query","session":"w","kind":"label-set","name":"id"}"#,
        );
        assert_eq!(qn.get("ok"), Some(&Json::Bool(true)), "{}", qn.to_line());

        // The pinned snapshot refuses eviction while the session is open.
        let ev = call(&s, &format!(r#"{{"op":"evict","snapshot":"{digest}"}}"#));
        assert_eq!(
            ev.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("pinned-snapshot")
        );

        // An update of the last module reuses the first one's checkpoint.
        let up = call(
            &s,
            r#"{"v":2,"op":"session/update","session":"w","modules":[{"name":"main","source":"id (fn v => v) "}]}"#,
        );
        let ur = up.get("result").unwrap();
        assert_eq!(
            ur.get("reused").and_then(Json::as_u64),
            Some(1),
            "{}",
            up.to_line()
        );
        assert_eq!(ur.get("relinked").and_then(Json::as_u64), Some(1));

        // Close releases the pin; the old digest was already unpinned by
        // the update, so both generations are now evictable.
        let close = call(&s, r#"{"v":2,"op":"session/close","session":"w"}"#);
        assert_eq!(
            close
                .get("result")
                .and_then(|r| r.get("closed"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let ev2 = call(&s, &format!(r#"{{"op":"evict","snapshot":"{digest}"}}"#));
        assert_eq!(ev2.get("ok"), Some(&Json::Bool(true)), "{}", ev2.to_line());
    }

    #[test]
    fn failed_session_update_rolls_back_and_keeps_serving() {
        let s = server();
        let open = call(
            &s,
            r#"{"v":2,"op":"session/open","session":"w","modules":[{"name":"a","source":"fun f x = x;"},{"name":"b","source":"f (fn u => u)"}]}"#,
        );
        assert_eq!(
            open.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            open.to_line()
        );
        let bad = call(
            &s,
            r#"{"v":2,"op":"session/update","session":"w","modules":[{"name":"b","source":"nosuchname 3"}]}"#,
        );
        assert_eq!(
            bad.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("parse")
        );
        assert!(
            bad.to_line().contains("module `b`"),
            "the error names the module: {}",
            bad.to_line()
        );
        // The session still answers from the pre-update snapshot.
        let q = call(
            &s,
            r#"{"v":2,"op":"session/query","session":"w","kind":"label-set","name":"f"}"#,
        );
        assert_eq!(q.get("ok"), Some(&Json::Bool(true)), "{}", q.to_line());
        // Stats count the open session and its pin.
        let stats = call(&s, r#"{"op":"stats"}"#);
        let result = stats.get("result").unwrap();
        assert_eq!(result.get("sessions").and_then(Json::as_u64), Some(1));
        let cache = result.get("cache").unwrap();
        assert_eq!(cache.get("pinned").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn session_transcripts_are_thread_count_independent() {
        let input = concat!(
            r#"{"v":2,"id":0,"op":"session/open","session":"w","modules":[{"name":"a","source":"fun f x = x;"},{"name":"b","source":"f (fn u => u)"}]}"#,
            "\n",
            r#"{"v":2,"id":1,"op":"session/query","session":"w","kind":"label-set"}"#,
            "\n",
            r#"{"v":2,"id":2,"op":"session/update","session":"w","modules":[{"name":"b","source":"f (fn v => v)"}]}"#,
            "\n",
            r#"{"v":2,"id":3,"op":"session/query","session":"w","kind":"label-set"}"#,
            "\n",
            r#"{"v":2,"id":4,"op":"session/lint","session":"w"}"#,
            "\n",
            r#"{"v":2,"id":5,"op":"session/close","session":"w"}"#,
            "\n",
            r#"{"id":6,"op":"shutdown"}"#,
            "\n",
        );
        let mut transcripts = Vec::new();
        for threads in [1, 2, 8] {
            let s = Server::new(ServerOptions {
                threads,
                ..Default::default()
            });
            let mut out = Vec::new();
            s.serve(io::Cursor::new(input.to_owned()), &mut out)
                .unwrap();
            transcripts.push(String::from_utf8(out).unwrap());
        }
        assert_eq!(transcripts[0], transcripts[1]);
        assert_eq!(transcripts[0], transcripts[2]);
        assert_eq!(transcripts[0].lines().count(), 7);
    }

    #[test]
    fn lint_reports_diagnostics_over_the_snapshot() {
        let s = server();
        let r = call(&s, r#"{"op":"lint","source":"fun ghost x = x;\n(1, 2) 3"}"#);
        let result = r.get("result").expect("ok response");
        assert!(result.get("count").and_then(Json::as_u64).unwrap() >= 2);
        let rendered = r.to_line();
        assert!(rendered.contains("STCFA002"), "{rendered}");
        assert!(rendered.contains("STCFA006"), "{rendered}");
    }
}
