//! The daemon: request dispatch, and the one event loop that serves
//! both transports (stdio and TCP).
//!
//! # Execution model
//!
//! One [`Server`] owns the [`SnapshotStore`] and the global counters. A
//! transport is one event loop over its connections plus a sharded pool
//! of `threads` workers. Under [`Server::serve_tcp`] an acceptor thread
//! hands the loop its connections; under [`Server::serve`] (`--stdio`)
//! the loop has one connection, whose input a detached reader thread
//! pumps from the byte stream and whose output is the writer. The loop
//! frames each line, stamps its arrival [`Instant`] (the deadline
//! clock), routes it in one scan ([`Route::of`]), admits it, and
//! dispatches it by its affinity digest to a shard; the workers answer
//! lines concurrently by the path [`Server::handle_line`] takes, reusing
//! the route's source key, and each connection emits its responses **in
//! request order** — so a transcript's bytes are independent of the
//! worker and shard counts.
//!
//! # Robustness invariants
//!
//! - A request never takes the daemon down: malformed JSON, parse and
//!   analysis failures, stale snapshot handles and blown deadlines all
//!   become structured error responses on the same connection.
//! - `shutdown` is graceful: once the loop sees the latch it stops
//!   reading, every request framed before then is still answered and
//!   flushed (the ordering guarantee makes the shutdown response the last
//!   line on its connection), and then the transport returns.
//! - Memory is bounded per connection: past `conn_inflight` unanswered
//!   requests (or a slow reader's unflushed responses) the loop stops
//!   reading, so the socket or pipe pushes back on the client; a line
//!   over the 32 MiB cap ends the connection's input; and past
//!   `max_inflight` requests in flight daemon-wide, new ones are refused
//!   with the structured `overloaded` error.
//! - Workers never wait on each other: an order-sensitive request is held
//!   in its connection until every earlier request there is answered,
//!   and only then dispatched.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stcfa_core::{Analysis, AnalysisOptions, DatatypePolicy, QueryEngine};
use stcfa_devkit::json::Json;
use stcfa_lambda::{ExprId, Label, Program};
use stcfa_lint::{lint_with_suspicion, Diagnostic, LintOptions};
use stcfa_opt::{optimize_with, OptOptions, Pass, PassSet};
use stcfa_rules::{rule_answer, ExtDb, RuleQuery};
use stcfa_session::{LinkError, LinkReport, Module, Workspace};

use crate::cache::{Invalidate, LookupError, Snapshot, SnapshotKey, SnapshotStore};
use crate::conn::{Conn, ConnLimits, Frame};
use crate::poll::{Acceptor, Backoff, Parker, Piped};
use crate::proto::{
    err_response, ok_response, parse_policy, Deadline, ErrorKind, RequestError, PROTOCOL_VERSION,
    PROTOCOL_VERSION_SESSION,
};
use crate::route::Route;
use crate::shard::{Completion, FleetStats, ShardPool, Task};

/// Configuration for one daemon.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Request worker threads. Defaults to the host's available
    /// parallelism, capped at 8.
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
    /// Shard queue count (`--shards`); `0` = one shard per worker
    /// thread. Requests route to shards by snapshot digest, so shard
    /// count changes locality, never transcripts.
    pub shards: usize,
    /// Fleet-wide cap on dispatched-but-unanswered requests
    /// (`--max-inflight`). Admission past the cap is refused with the
    /// structured `overloaded` error instead of queueing without bound.
    pub max_inflight: usize,
    /// Per-connection cap on framed-but-unanswered requests
    /// (`--conn-inflight`). At the cap the event loop stops reading from
    /// the connection and lets its socket or pipe push back — no response
    /// is ever shed for staying under it.
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
            threads: std::thread::available_parallelism().map_or(1, |p| p.get().min(8)),
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
    stop: AtomicBool,
    /// Fleet counters, registered by the running transport so the
    /// `stats` op can render them. `None` until a transport runs.
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
pub(crate) const ENGINE_SUB: u64 = 0;

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
            stop: AtomicBool::new(false),
            fleet: Mutex::new(None),
        }
    }

    /// The fleet counters, once a transport has run (or is running) on
    /// this daemon.
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

    /// Handles one request line and returns the one response line (no
    /// trailing newline). `received` anchors the deadline clock; pass the
    /// instant the line was read. Never panics on untrusted input. The
    /// line is routed by [`Route::of`], as the event loop routes it.
    pub fn handle_line(&self, line: &str, received: Instant) -> String {
        self.handle_routed(line, received, Route::of(line).source_key)
    }

    /// The worker entry: [`Server::handle_line`] for a line the event
    /// loop has routed already. `source_key` is its route's key for the
    /// line's inline source, which stands in for hashing the source
    /// again (see [`Server::analyze_source`]).
    fn handle_routed(
        &self,
        line: &str,
        received: Instant,
        source_key: Option<SnapshotKey>,
    ) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let response = self.dispatch(line, received, source_key);
        self.query_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        response.to_line()
    }

    fn dispatch(&self, line: &str, received: Instant, source_key: Option<SnapshotKey>) -> Json {
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
        match self.dispatch_parsed(&request, received, version, source_key) {
            Ok(result) => ok_response(version, id, result),
            Err(e) => err_response(version, id, &e),
        }
    }

    fn dispatch_parsed(
        &self,
        request: &Json,
        received: Instant,
        version: u64,
        source_key: Option<SnapshotKey>,
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
        let v2_family = match op {
            "rule" | "opt" => Some("protocol-2"),
            _ if op.starts_with("session/") => Some("session"),
            _ => None,
        };
        if let Some(family) = v2_family.filter(|_| version != PROTOCOL_VERSION_SESSION) {
            return Err(RequestError::new(
                ErrorKind::Proto,
                format!("`{op}` is a {family} op: it requires \"v\":2"),
            ));
        }
        match op {
            "analyze" => self.op_analyze(request, source_key, &deadline),
            "query" => self.op_query(request, source_key, &deadline, version),
            "lint" => self.op_lint(request, source_key, &deadline),
            "rule" => self.op_rule(request, source_key, &deadline),
            "opt" => self.op_opt(request, source_key, &deadline),
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
    ///
    /// `source_key` is the key the event loop's router computed from the
    /// request line; it is used instead of hashing `source` again. Every
    /// hit compares `source` with the cached snapshot's source (memory
    /// and coalesced hits in the store, disk loads against the persisted
    /// text), and the policy is compared below, so a hit under the key
    /// proves it. Only a build re-derives the key, before it stores
    /// anything under it.
    fn analyze_source(
        &self,
        request: &Json,
        source: &str,
        source_key: Option<SnapshotKey>,
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
        let key =
            source_key.unwrap_or_else(|| SnapshotKey::derive(source, policy_disc, ENGINE_SUB));
        deadline.check("before build")?;
        let owned = source.to_owned();
        let (snapshot, cached) = self
            .store
            .get_or_build(key, source, move || {
                let derived = SnapshotKey::derive(&owned, policy_disc, ENGINE_SUB);
                if derived != key {
                    return Err(key_mismatch(
                        key,
                        &format!("this source's key is {}", derived.hex()),
                    ));
                }
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
        if snapshot.policy() != policy {
            return Err(RequestError::new(
                ErrorKind::Analysis,
                key_mismatch(
                    key,
                    &format!("it names a {} snapshot", snapshot.policy().name()),
                ),
            ));
        }
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
        source_key: Option<SnapshotKey>,
        deadline: &Deadline,
    ) -> Result<Arc<Snapshot>, RequestError> {
        if let Some(handle) = request.get("snapshot") {
            let hex = handle.as_str().ok_or_else(|| {
                RequestError::new(ErrorKind::Proto, "`snapshot` must be a hex digest string")
            })?;
            return self.store.get(snapshot_key(hex)?).map_err(|e| match e {
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
            let (snapshot, _, _) = self.analyze_source(request, source, source_key, deadline)?;
            return Ok(snapshot);
        }
        Err(RequestError::new(
            ErrorKind::Proto,
            "request needs either a `snapshot` digest or inline `source`",
        ))
    }

    // --- ops ----------------------------------------------------------------

    fn op_analyze(
        &self,
        request: &Json,
        source_key: Option<SnapshotKey>,
        deadline: &Deadline,
    ) -> Result<Json, RequestError> {
        let source = request
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`analyze` needs `source`"))?;
        let (snapshot, key, cached) = self.analyze_source(request, source, source_key, deadline)?;
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
        source_key: Option<SnapshotKey>,
        deadline: &Deadline,
        version: u64,
    ) -> Result<Json, RequestError> {
        let kind = request
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`query` needs `kind`"))?
            .to_owned();
        let graded = precision_param(request, version)?;
        let snapshot = self.resolve_snapshot(request, source_key, deadline)?;
        deadline.check("before query")?;
        let root = snapshot.program.root();
        let result = self.query_result(&kind, request, &snapshot, graded, || Ok(root))?;
        deadline.check("after query")?;
        Ok(tag_kind(kind, result))
    }

    /// The query-kind dispatcher shared by `query` and `session/query`.
    /// `default_expr` supplies the target when a `label-set` request
    /// names no `expr` (the program root for v1, the session's trailing
    /// value for v2). A `graded` (`"precision":true`) label-set or
    /// call-targets query is answered through the snapshot's tier
    /// scheduler: the label set is the best certified refinement and the
    /// response carries its [`PrecisionInfo`] grade.
    fn query_result(
        &self,
        kind: &str,
        request: &Json,
        snapshot: &Snapshot,
        graded: bool,
        default_expr: impl FnOnce() -> Result<ExprId, RequestError>,
    ) -> Result<Json, RequestError> {
        let (program, engine) = (&snapshot.program, &snapshot.engine);
        Ok(match kind {
            "label-set" | "call-targets" => {
                // The occurrence asked about: a call-targets query's
                // `site`, or a label-set query's `expr` (else the default).
                let site = kind == "call-targets";
                let field = if site { "site" } else { "expr" };
                let at = match request.get(field) {
                    Some(v) => expr_param(v, program, field)?,
                    None if site => {
                        return Err(RequestError::new(
                            ErrorKind::Proto,
                            "`call-targets` needs `site`",
                        ))
                    }
                    None => default_expr()?,
                };
                let not_a_site = || {
                    RequestError::new(
                        ErrorKind::Proto,
                        format!("expression {} is not an application site", at.index()),
                    )
                };
                if graded {
                    let scheduler = snapshot.scheduler(self.options.precision_budget);
                    let (labels, info) = if site {
                        scheduler
                            .call_targets(program, engine, at)
                            .ok_or_else(not_a_site)?
                    } else {
                        scheduler.labels_of(program, engine, at)
                    };
                    let mut result = labels_json(program, &labels);
                    result.push("precision", precision_json(info));
                    result
                } else if site {
                    let targets = engine.call_targets(program, at).ok_or_else(not_a_site)?;
                    labels_json(program, &targets)
                } else {
                    labels_json(program, &engine.labels_of(at))
                }
            }
            other if graded => {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("`precision` grades label-set and call-targets queries, not `{other}`"),
                ))
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

    fn op_lint(
        &self,
        request: &Json,
        source_key: Option<SnapshotKey>,
        deadline: &Deadline,
    ) -> Result<Json, RequestError> {
        let snapshot = self.resolve_snapshot(request, source_key, deadline)?;
        deadline.check("before lint")?;
        let diags = self.lint_snapshot(&snapshot)?;
        deadline.check("after lint")?;
        Ok(lint_json(&diags, None))
    }

    /// Runs the lint engine over a snapshot on the calling worker.
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
        Ok(lint_with_suspicion(
            &snapshot.program,
            analysis,
            &snapshot.engine,
            &snapshot.suspicion,
            &LintOptions::default(),
        ))
    }

    /// `rule` (protocol 2): answers a shipped rule analysis against a
    /// snapshot. `name` picks the analysis — `dominators` returns the
    /// call-graph dominator relation (read off the call graph's
    /// dominator tree, which the program specifies) for every reachable
    /// node;
    /// `taint` returns the occurrences whose label set meets the given
    /// source labels (default: every effectful-bodied abstraction), for
    /// the whole program or, with `expr`, for that one occurrence.
    fn op_rule(
        &self,
        request: &Json,
        source_key: Option<SnapshotKey>,
        deadline: &Deadline,
    ) -> Result<Json, RequestError> {
        let name = request
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`rule` needs `name`"))?
            .to_owned();
        let snapshot = self.resolve_snapshot(request, source_key, deadline)?;
        deadline.check("before rule")?;
        let analysis = snapshot
            .try_analysis()
            .map_err(|e| RequestError::new(ErrorKind::Analysis, e.clone()))?;
        let program = &snapshot.program;
        let query = match name.as_str() {
            "dominators" => RuleQuery::Dominators,
            "taint" => RuleQuery::Taint {
                sources: taint_sources(request, program)?,
                expr: taint_expr(request, program)?,
            },
            other => {
                return Err(RequestError::new(
                    ErrorKind::Proto,
                    format!("unknown rule `{other}` (expected dominators|taint)"),
                ))
            }
        };
        let mut result = rule_answer(&ExtDb::new(program, analysis, &snapshot.engine), query);
        deadline.check("after rule")?;
        // Opt-in grade for the whole derivation: rules read the engine's
        // label sets as their EDB, so if no component of this snapshot
        // carries suspicion the engine equals full cubic CFA and every
        // derived fact is exact; otherwise the rule's answer inherits the
        // engine's (sound) over-approximation. `Forget` cuts flow, so
        // there no score certifies anything.
        if precision_param(request, PROTOCOL_VERSION_SESSION)? {
            let class =
                if snapshot.policy() != DatatypePolicy::Forget && snapshot.suspicion.all_exact() {
                    stcfa_precision::PrecisionClass::Exact
                } else {
                    stcfa_precision::PrecisionClass::Approx
                };
            result.push(
                "precision",
                Json::obj(vec![
                    ("class", Json::str(class.as_str())),
                    ("tier", Json::num(0)),
                    (
                        "suspicious_comps",
                        Json::num(snapshot.suspicion.suspicious_comps() as u64),
                    ),
                ]),
            );
        }
        Ok(result)
    }

    /// `opt` (protocol 2): runs the flow-directed lowering pipeline
    /// (docs/OPT.md) against a snapshot and returns the decision report,
    /// with `"emit":true` adding the optimized program's source. Round 1
    /// reuses the snapshot's frozen engine; the result object is
    /// [`OptReport::to_json`](stcfa_opt::OptReport::to_json), the object
    /// the CLI's `--report json` prints, plus `performed`.
    fn op_opt(
        &self,
        request: &Json,
        source_key: Option<SnapshotKey>,
        deadline: &Deadline,
    ) -> Result<Json, RequestError> {
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
        let snapshot = self.resolve_snapshot(request, source_key, deadline)?;
        deadline.check("before opt")?;
        let out = optimize_with(&snapshot.program, &snapshot.engine, &options)
            .map_err(|e| RequestError::new(ErrorKind::Analysis, e.to_string()))?;
        deadline.check("after opt")?;
        let mut result = out.report.to_json();
        result.push("performed", Json::num(out.report.performed_total() as u64));
        if emit {
            result.push("source", Json::str(out.program.to_source()));
        }
        Ok(result)
    }

    fn op_evict(&self, request: &Json) -> Result<Json, RequestError> {
        let hex = request
            .get("snapshot")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Proto, "`evict` needs `snapshot`"))?;
        let evicted = match self.store.invalidate(snapshot_key(hex)?) {
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
                        policy.disc(),
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
            None => self.query_result(&kind, request, &snapshot, graded, || {
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
        Ok(lint_json(&diags, Some(&report)))
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

    // --- transports ---------------------------------------------------------

    /// Serves one line stream as the single connection of an event loop
    /// (the `--stdio` transport): requests from `reader`, responses to
    /// `writer`. Returns when the input has ended and everything framed
    /// is answered, when a line over the 32 MiB cap has ended the input
    /// the same way, when `writer` fails, or when a `shutdown` has
    /// drained; the result is the first error `writer` reported. The
    /// reader runs on a detached thread so a `shutdown` can complete even
    /// while the input stream stays open (a blocked read never holds the
    /// drain hostage).
    pub fn serve<R, W>(&self, reader: R, writer: W) -> io::Result<()>
    where
        R: Read + Send + 'static,
        W: Write,
    {
        let notify = Arc::new(Parker::new());
        let mut write_error = None;
        let mut stdio = Some(Piped::spawn(
            reader,
            writer,
            Arc::clone(&notify),
            &mut write_error,
        ));
        self.run_fleet(&notify, false, move || stdio.take().into_iter().collect());
        write_error.map_or(Ok(()), Err)
    }

    /// Serves stdio: the `--stdio` transport.
    pub fn serve_stdio(&self) -> io::Result<()> {
        self.serve(io::stdin(), io::stdout().lock())
    }

    /// Binds `addr` and serves TCP connections until a `shutdown`
    /// request arrives on any of them; every request framed before the
    /// shutdown drains before the listener returns. Returns the bound
    /// local address via `on_bound` (useful with port 0).
    ///
    /// # Fleet architecture
    ///
    /// One thread (this one) runs the event loop: it drains the
    /// acceptor's blocking accept thread, pumps every connection's
    /// nonblocking reads/writes, applies admission control, and routes
    /// framed requests to a pool of `threads` workers over `shards`
    /// digest-keyed queues. Workers compute; the loop owns all
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
    /// request on their connection has been answered. Past
    /// `conn_inflight` unanswered requests (or a slow reader's unflushed
    /// responses), the loop stops reading the connection and TCP pushes
    /// back. Past `max_inflight` dispatched requests fleet-wide, new
    /// requests are refused in transcript position with the structured
    /// `overloaded` error. [`Server::serve`] runs the same loop over its
    /// one connection.
    pub fn serve_tcp(
        &self,
        addr: &str,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        let notify = Arc::new(Parker::new());
        let acceptor = Acceptor::spawn(listener, Arc::clone(&notify))?;
        self.run_fleet(&notify, true, || acceptor.drain());
        acceptor.shutdown();
        Ok(())
    }

    /// Runs a transport: the shard pool's workers on scoped threads and
    /// the event loop over the connections `accept` yields on this one.
    /// `notify` is the loop's parker, woken by whatever feeds `accept`.
    fn run_fleet<S: Read + Write>(
        &self,
        notify: &Arc<Parker>,
        listening: bool,
        accept: impl FnMut() -> Vec<S>,
    ) {
        let fleet = Arc::new(FleetStats::default());
        *self.fleet.lock().expect("fleet slot poisoned") = Some(Arc::clone(&fleet));
        let workers = self.options.threads.max(1);
        let shards = if self.options.shards == 0 {
            workers
        } else {
            self.options.shards
        };
        let pool = ShardPool::new(shards, workers, Arc::clone(notify), Arc::clone(&fleet));
        std::thread::scope(|scope| {
            let pool_ref = &pool;
            for w in 0..pool.workers() {
                spawn_worker(scope, move || {
                    pool_ref.worker_loop(w, &|task| {
                        self.handle_routed(&task.line, task.received, task.route.source_key)
                    });
                });
            }
            self.event_loop(accept, listening, &pool, notify, &fleet);
            pool.stop();
        });
    }

    /// The event loop: runs until shutdown is latched and every framed
    /// request has been answered and flushed (or its connection died),
    /// or, when not `listening` for more connections, until every
    /// connection has been reaped. Single-threaded by construction — it
    /// owns every connection, so framing, ordering, and admission need
    /// no locks.
    fn event_loop<S: Read + Write>(
        &self,
        mut accept: impl FnMut() -> Vec<S>,
        listening: bool,
        pool: &ShardPool,
        notify: &Parker,
        fleet: &FleetStats,
    ) {
        let limits = ConnLimits {
            conn_inflight: self.options.conn_inflight,
            ..ConnLimits::default()
        };
        let max_inflight = self.options.max_inflight.max(1) as u64;
        let mut conns: BTreeMap<u64, Conn<S>> = BTreeMap::new();
        let mut next_conn_id = 0u64;
        let mut backoff = Backoff::new();
        let mut stopping = false;
        let mut drain_started: Option<Instant> = None;
        loop {
            let mut progress = false;

            // New connections. Once shutdown is latched, late arrivals
            // are refused (dropped) rather than half-served.
            for stream in accept() {
                progress = true;
                if stopping {
                    continue;
                }
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
                    let pumped = conn.pump_read(&limits);
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
            if !listening && conns.is_empty() {
                // Nothing more can arrive and everything is answered.
                break;
            }

            if !stopping && self.is_stopping() {
                // Shutdown latched by some worker. Stop reading (lines
                // framed before this sweep still drain) and stop
                // admitting connections.
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
    fn admit<S: Read + Write>(
        &self,
        conn: &mut Conn<S>,
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
        pool.dispatch(Task {
            conn: conn.id,
            seq: frame.seq,
            line: frame.line,
            received: frame.received,
            route: frame.route,
        });
        None
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
        ("stolen", Json::num(fleet.stolen.load(Ordering::Relaxed))),
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
        "fleet summary: connections_total={} dispatched={} shard_hits={} stolen={} overloaded_total={}",
        fleet.connections_total.load(Ordering::Relaxed),
        fleet.dispatched.load(Ordering::Relaxed),
        fleet.shard_hits.load(Ordering::Relaxed),
        fleet.stolen.load(Ordering::Relaxed),
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

/// The refusal of a routed key that is not the request's snapshot key:
/// nothing is built or served under it. Encoded as a build error
/// ([`decode_build_err`] reports it as an `analysis` error, like a
/// digest collision).
fn key_mismatch(key: SnapshotKey, why: &str) -> String {
    format!(
        "snapshot key mismatch on {}: {why}; analysis refused so that no snapshot \
         is stored or served under a wrong handle",
        key.hex()
    )
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

/// Prepends the echoed query kind to a result object.
fn tag_kind(kind: String, result: Json) -> Json {
    let Json::Obj(mut pairs) = result else {
        unreachable!("results are objects")
    };
    pairs.insert(0, ("kind".to_owned(), Json::Str(kind)));
    Json::Obj(pairs)
}

/// The `lint` / `session/lint` result: one [`Diagnostic::to_json`]
/// object per diagnostic, to which a session appends the `module` that
/// owns the diagnostic's expression.
fn lint_json(diags: &[Diagnostic], report: Option<&LinkReport>) -> Json {
    let items: Vec<Json> = diags
        .iter()
        .map(|d| {
            let mut item = d.to_json();
            if let Some(report) = report {
                item.push(
                    "module",
                    report.module_of_expr(d.expr).map_or(Json::Null, Json::str),
                );
            }
            item
        })
        .collect();
    Json::obj(vec![
        ("count", Json::num(items.len() as u64)),
        ("diagnostics", Json::Arr(items)),
    ])
}

/// Resolves the `sources` parameter of the taint rule: an explicit
/// array of label indices, or `None` for the default (every
/// effectful-bodied abstraction).
fn taint_sources(request: &Json, program: &Program) -> Result<Option<Vec<Label>>, RequestError> {
    let Some(sources) = request.get("sources") else {
        return Ok(None);
    };
    let items = sources.as_arr().ok_or_else(|| {
        RequestError::new(
            ErrorKind::Proto,
            "`sources` must be an array of label indices",
        )
    })?;
    let labels = items.iter().map(|item| {
        item.as_u64()
            .filter(|&n| (n as usize) < program.label_count())
            .map(|n| Label::from_index(n as usize))
            .ok_or_else(|| {
                RequestError::new(
                    ErrorKind::Proto,
                    format!(
                        "`sources` entries must be label indices below {}",
                        program.label_count()
                    ),
                )
            })
    });
    labels.collect::<Result<_, _>>().map(Some)
}

/// Resolves the taint rule's optional `expr`: the one occurrence the
/// query asks about.
fn taint_expr(request: &Json, program: &Program) -> Result<Option<ExprId>, RequestError> {
    let Some(v) = request.get("expr") else {
        return Ok(None);
    };
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
    Ok(Some(ExprId::from_index(idx as usize)))
}

/// Parses a `snapshot` digest string.
fn snapshot_key(hex: &str) -> Result<SnapshotKey, RequestError> {
    SnapshotKey::from_hex(hex).ok_or_else(|| {
        RequestError::new(
            ErrorKind::Proto,
            format!("`snapshot` is not a 16-digit hex digest: `{hex}`"),
        )
    })
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
        .map(|&l| Json::str(program.label_name(l)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::MAX_LINE;

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
    fn rule_precision_certifies_nothing_under_forget() {
        // The program has no datatype, so no component carries
        // suspicion; that certifies the engine's answer under c1, but
        // `Forget` cuts flow, so there it stays approx.
        let s = server();
        let class = |policy: &str| {
            let r = call(
                &s,
                &format!(
                    r#"{{"v":2,"op":"rule","name":"dominators","policy":"{policy}","precision":true,"source":"fun f x = x; fun g y = f y; g 2"}}"#
                ),
            );
            r.get("result")
                .and_then(|res| res.get("precision"))
                .and_then(|p| p.get("class"))
                .and_then(Json::as_str)
                .map(str::to_owned)
                .unwrap_or_else(|| panic!("{r:?}"))
        };
        assert_eq!(class("c1"), "exact");
        assert_eq!(class("forget"), "approx");
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

    #[test]
    fn stdio_line_over_the_cap_ends_input() {
        // A line of exactly `MAX_LINE` bytes is framed (and refused as
        // bad JSON); one byte more ends the input, so the request after
        // it is never read.
        let stats = |id: u32| format!("{{\"id\":{id},\"op\":\"stats\"}}\n").into_bytes();
        let mut input = stats(1);
        input.resize(input.len() + MAX_LINE, b'x');
        input.push(b'\n');
        input.extend(stats(2));
        input.resize(input.len() + MAX_LINE + 1, b'x');
        input.push(b'\n');
        input.extend(stats(3));
        let mut out = Vec::new();
        server().serve(io::Cursor::new(input), &mut out).unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(lines[0].get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(lines[2].get("id").and_then(Json::as_u64), Some(2));
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

    /// What routing must give for a line the parser accepts: the order
    /// flag from `op`, and the affinity and source key from the first
    /// `snapshot`, `session`, `source` and `policy` members, read as the
    /// worker reads them.
    fn parsed_route(line: &str) -> Route {
        let request = Json::parse(line).expect("a valid request line");
        let field = |name| request.get(name).and_then(Json::as_str);
        let source_key = match (field("source"), policy_param(&request)) {
            (Some(source), Ok((_, disc))) => Some(SnapshotKey::derive(source, disc, ENGINE_SUB)),
            _ => None,
        };
        Route {
            ordered: field("op").is_some_and(|op| op == "evict" || op.starts_with("session/")),
            affinity: field("snapshot")
                .and_then(SnapshotKey::from_hex)
                .map(|key| key.0)
                .or_else(|| {
                    field("session").map(|id| {
                        stcfa_devkit::hash::Fnv1a::digest_parts(id.as_bytes(), &[u64::MAX])
                    })
                })
                .or(source_key.map(|key| key.0))
                .unwrap_or(0),
            source_key,
        }
    }

    #[test]
    fn route_is_the_snapshot_key_the_worker_derives() {
        // The route must decode every JSON string escape exactly as the
        // worker's parser does, and read the members the worker reads, or
        // an `analyze` and the queries after it land on different shards.
        let key = |source: &str, disc| Some(SnapshotKey::derive(source, disc, ENGINE_SUB));
        for policy in [r#""c1""#, r#""c2""#, r#""forget""#] {
            for source in [
                r#"let val s = \"q\" in s end"#,
                r#"fn x => x \\ y \/ z"#,
                r#"(fn x => x)\n\t(fn y => y)\r\b\f"#,
                r#"fun caf\u00e9 x = x; caf\u00E9 \ud83d\ude00 \u0001"#,
                "fun café x = x; café 😀",
            ] {
                let line = format!(r#"{{"op":"analyze","policy":{policy},"source":"{source}"}}"#);
                let route = Route::of(&line);
                assert_eq!(route, parsed_route(&line), "{line}");
                assert!(route.source_key.is_some() && !route.ordered, "{line}");
            }
        }
        let snapshot = SnapshotKey::derive("x", 0, ENGINE_SUB).hex();
        let cases = [
            // Decoys nested in another member's object or array, and the
            // same text inside string values: only top-level members count.
            (
                r#"{"op":"analyze","meta":{"source":"x"},"source":"y"}"#.to_owned(),
                key("y", 0),
            ),
            (
                r#"{"op":"analyze","list":["source",{"source":"x","op":"evict"}],"source":"y"}"#
                    .to_owned(),
                key("y", 0),
            ),
            (
                format!(r#"{{"op":"query","meta":{{"snapshot":"{snapshot}"}},"source":"y"}}"#),
                key("y", 0),
            ),
            (
                r#"{"op":"query","kind":"\"source\":\"x\"","source":"y"}"#.to_owned(),
                key("y", 0),
            ),
            (
                r#"{"op":"query","source":"(* \"op\":\"evict\",\"source\":\"x\" *) y"}"#.to_owned(),
                key(r#"(* "op":"evict","source":"x" *) y"#, 0),
            ),
            // Duplicate members: the first wins, as in `Json::get`.
            (
                r#"{"op":"analyze","source":"y","source":"x","policy":"c2","policy":"c1"}"#
                    .to_owned(),
                key("y", 1),
            ),
            (r#"{"source":7,"source":"x"}"#.to_owned(), None),
            // An escaped member name is the name it decodes to.
            (
                r#"{"op":"analyze","sour\u0063e":"y"}"#.to_owned(),
                key("y", 0),
            ),
            (
                r#"{"op":"analyze","po\u006cicy":"c2","source":"y"}"#.to_owned(),
                key("y", 1),
            ),
            // `policy` absent or not a string means c1; unknown, no key.
            (r#"{"op":"analyze","source":"y"}"#.to_owned(), key("y", 0)),
            (
                r#"{"op":"analyze","policy":["c2"],"source":"y"}"#.to_owned(),
                key("y", 0),
            ),
            (
                r#"{"op":"analyze","policy":null,"source":"y"}"#.to_owned(),
                key("y", 0),
            ),
            (
                r#"{"op":"analyze","policy":"c9","source":"y"}"#.to_owned(),
                None,
            ),
            (
                r#"{"op":"analyze","policy":"C1","source":"y"}"#.to_owned(),
                None,
            ),
        ];
        for (line, want) in &cases {
            let route = Route::of(line);
            assert_eq!(route, parsed_route(line), "{line}");
            assert_eq!(route.source_key, *want, "{line}");
            assert!(!route.ordered, "{line}");
        }
        // Affinity precedence: a valid handle, then the session, then the
        // source; nested copies of either never count.
        let line =
            format!(r#"{{"op":"query","session":"w","snapshot":"{snapshot}","source":"y"}}"#);
        assert_eq!(
            Route::of(&line).affinity,
            SnapshotKey::derive("x", 0, ENGINE_SUB).0
        );
        let line = r#"{"op":"query","snapshot":"zz","session":"w","source":"y"}"#;
        assert_eq!(Route::of(line), parsed_route(line));
        assert_ne!(Route::of(line).affinity, key("y", 0).unwrap().0);
        let line = r#"{"op":"query","meta":{"session":"w"},"source":"y"}"#;
        assert_eq!(Route::of(line).affinity, key("y", 0).unwrap().0);
        // A literal that does not decode gives no key and routes
        // round-robin; so does a line that is not an object.
        assert_eq!(
            Route::of(r#"{"op":"analyze","source":"\q"}"#),
            Route::default()
        );
        assert_eq!(Route::of(r#"["source","y"]"#), Route::default());
    }

    #[test]
    fn a_wrong_routed_key_is_refused_and_nothing_is_cached_under_it() {
        let s = server();
        let src = "(fn a => a) (fn b => b)";
        let line = format!(r#"{{"op":"analyze","source":"{src}"}}"#);
        let kind = |response: &str| {
            let r = Json::parse(response).expect("valid JSON");
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{response}");
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        // A miss under a wrong key: refused before the build, not stored.
        let wrong = SnapshotKey(0x0123_4567_89ab_cdef);
        let r = s.handle_routed(&line, Instant::now(), Some(wrong));
        assert_eq!(kind(&r).as_deref(), Some("analysis"));
        assert!(r.contains("snapshot key mismatch"), "{r}");
        assert!(
            s.store().get(wrong).is_err(),
            "nothing may be cached under it"
        );
        assert_eq!(s.store().stats().entries, 0);
        // The right route builds it.
        let c1 = call(&s, &line);
        assert_eq!(c1.get("ok"), Some(&Json::Bool(true)), "{c1:?}");
        // A hit under another configuration's key is refused too: the
        // source matches, the policy does not.
        let c2_line = format!(r#"{{"op":"analyze","policy":"c2","source":"{src}"}}"#);
        let c1_key = SnapshotKey::derive(src, 0, ENGINE_SUB);
        let r = s.handle_routed(&c2_line, Instant::now(), Some(c1_key));
        assert_eq!(kind(&r).as_deref(), Some("analysis"));
        // And a hit on another source's snapshot is the collision error.
        let other = format!(r#"{{"op":"analyze","source":"{src} "}}"#);
        let r = s.handle_routed(&other, Instant::now(), Some(c1_key));
        assert_eq!(kind(&r).as_deref(), Some("analysis"));
        assert_eq!(
            s.store().stats().entries,
            1,
            "only the correctly routed build"
        );
        let c2 = call(&s, &c2_line);
        assert_eq!(c2.get("ok"), Some(&Json::Bool(true)), "{c2:?}");
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
