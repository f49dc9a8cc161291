//! Command-line front end: run the paper's analyses on a source file.
//!
//! ```text
//! stcfa <FILE|-> [COMMANDS] [OPTIONS]
//!
//! COMMANDS (any combination; default: --summary)
//!   --summary          program and subtransitive-graph statistics
//!   --labels           L(root): the abstractions the program can evaluate to
//!   --call-sites       call targets at every application site
//!   --precision        grade --labels/--call-sites answers through the
//!                      adaptive precision scheduler (docs/PRECISION.md):
//!                      each set is annotated exact|refined|approx with the
//!                      tier that settled it; requires --analysis sub
//!   --precision-budget <n>  escalated-node cap for --precision
//!                      (default 65536)
//!   --effects          the may-have-side-effects report (paper §8)
//!   --k-limited <k>    call targets cut off at k with "many" (paper §9)
//!   --called-once      functions called from exactly one / no call site
//!   --types            type metrics: k_avg, k_max, order, arity (paper §4–5)
//!   --boundedness      direct vs McAllester (let-expanded) type bounds (§5)
//!   --eval             run the program under call-by-value
//!   --live             reachability report (dead λ-bodies and case arms)
//!   --witness          for each label in L(root): the graph path proving it
//!   --dot              emit the subtransitive graph in Graphviz syntax
//!
//! REPL MODE
//!   --repl             read fragments from stdin (one per line, `;;` to
//!                      submit multi-line input), analyzing incrementally
//!
//! LINT MODE
//!   stcfa lint <FILE|-> [--format text|json]
//!                      flow-powered diagnostics (STCFA001–STCFA008) over
//!                      the frozen query engine; see docs/LINT.md
//!   stcfa lint --explain <CODE>
//!                      print the declarative rule definition behind a
//!                      diagnostic code (see docs/RULES.md)
//!
//! OPT MODE
//!   stcfa opt <FILE|-> [--passes name,...] [--emit] [--report text|json]
//!             [--max-rounds <n>] [--budget <n>]
//!                      flow-directed lowering over the frozen query
//!                      engine: dead-app elision, called-once inlining,
//!                      useless-parameter pruning, direct-call facts;
//!                      --emit prints the optimized program (report to
//!                      stderr); see docs/OPT.md
//!
//! RULE MODE
//!   stcfa rule <FILE|-> --name dominators|taint [--sources l,l,...]
//!              [--expr <n>]
//!                      evaluate a shipped rule program (docs/RULES.md)
//!                      and print the JSON answer; `--expr` turns taint
//!                      into a single demand query
//!
//! SERVER MODE
//!   stcfa serve [--stdio | --addr HOST:PORT] [--threads <n>] [--shards <n>]
//!               [--cache-capacity <bytes[k|m|g]>] [--cache-dir <path>]
//!               [--deadline-ms <n>] [--max-inflight <n>] [--conn-inflight <n>]
//!               [--precision-budget <n>] [--summary]
//!                      long-running daemon speaking the line-delimited JSON
//!                      protocol of docs/SERVER.md, with a content-addressed
//!                      snapshot cache; --cache-dir adds a persistent disk
//!                      tier that survives daemon restarts (docs/PERSIST.md).
//!                      Stdio is one connection of the same event loop as
//!                      TCP, so the shard, admission and backpressure flags
//!                      mean the same on both; --summary prints one
//!                      `fleet summary: …` line on stderr at exit
//!   stcfa client --addr HOST:PORT [--request <json>]
//!                      forward stdin lines (or one --request) to a daemon
//!
//! SESSION MODE
//!   stcfa session [FILE...] [--module NAME=PATH]... [--split <n>]
//!                 [--policy ...] [--lint] [--emit-requests [--update-last]]
//!                      link the files as a multi-file analysis session
//!                      (each FILE is a module named by its stem; --split n
//!                      cuts a single file at top-level boundaries into n
//!                      modules) and print the link report; --lint adds
//!                      module-attributed diagnostics; --emit-requests
//!                      prints the equivalent protocol-v2 `session/*`
//!                      request lines instead (pipe into `stcfa serve
//!                      --stdio`); see docs/SESSIONS.md
//!
//! OPTIONS
//!   --analysis <sub|poly|hybrid|cfa0|sba|unify>   engine for label queries (default sub)
//!   --policy <c1|c2|exact|forget>                 datatype congruence (default c1)
//!   --max-nodes <n>                               close-phase node budget
//!   --fuel <n>                                    evaluation step budget (default 10^7)
//!   --version                                     print the version and exit
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure (I/O, parse, analysis), 2 usage
//! error (unknown flag/argument), 3 bad or missing flag value.

use std::io::Read as _;
use std::process::ExitCode;

use stcfa::apps::{effects, CallSites, CalledOnce, KLimited};
use stcfa::cfa0::Cfa0;
use stcfa::core::hybrid::HybridCfa;
use stcfa::core::{dot, Analysis, AnalysisOptions, DatatypePolicy, PolyAnalysis, QueryEngine};
use stcfa::lambda::eval::{eval, EvalOptions, Value};
use stcfa::lambda::{ExprId, ExprKind, Label, Program};
use stcfa::sba::Sba;
use stcfa::types::{TypeMetrics, TypedProgram};
use stcfa::unify::UnifyCfa;

/// CLI failures, classified so each class maps to a distinct exit code
/// (scripts can tell "you called me wrong" from "the input was bad").
enum CliError {
    /// Unknown flag/argument or missing positional: exit 2.
    Usage(String),
    /// A flag value that is missing or fails to parse: exit 3.
    BadValue(String),
    /// Everything downstream of a well-formed invocation: exit 1.
    Runtime(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Runtime(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Runtime(message.to_owned())
    }
}

struct Options {
    path: String,
    commands: Vec<Command>,
    engine: EngineKind,
    policy: DatatypePolicy,
    max_nodes: Option<usize>,
    fuel: u64,
    precision: bool,
    precision_budget: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Summary,
    Labels,
    CallSites,
    Effects,
    KLimited(usize),
    CalledOnce,
    Types,
    Boundedness,
    Eval,
    Live,
    Witness,
    Dot,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Sub,
    Poly,
    Hybrid,
    Cfa0,
    Sba,
    Unify,
}

/// Uniform label-query interface over the six engines. The subtransitive
/// variant freezes a [`QueryEngine`] so repeated `labels_of` queries (e.g.
/// `--call-sites`) hit the SCC summary cache instead of re-walking the
/// graph.
enum Engine {
    Sub(QueryEngine),
    Poly(PolyAnalysis),
    Hybrid(HybridCfa),
    Cfa0(Cfa0),
    Sba(Sba),
    Unify(UnifyCfa),
}

impl Engine {
    fn name(&self) -> &'static str {
        match self {
            Engine::Sub(..) => "subtransitive (linear)",
            Engine::Poly(_) => "polyvariant subtransitive",
            Engine::Hybrid(h) => {
                if h.is_linear() {
                    "hybrid → subtransitive"
                } else {
                    "hybrid → cubic fallback"
                }
            }
            Engine::Cfa0(_) => "standard 0-CFA (cubic)",
            Engine::Sba(_) => "set-based analysis",
            Engine::Unify(_) => "equality-based (unification)",
        }
    }

    fn labels_of(&self, program: &Program, e: ExprId) -> Vec<Label> {
        match self {
            Engine::Sub(q) => q.labels_of(e),
            Engine::Poly(a) => a.labels_of(e),
            Engine::Hybrid(h) => h.labels_of(program, e),
            Engine::Cfa0(c) => c.labels(program, e),
            Engine::Sba(s) => s.labels(program, e),
            Engine::Unify(u) => u.labels(e),
        }
    }
}

fn usage() -> &'static str {
    "usage: stcfa <FILE|-> [--summary|--labels|--call-sites|--effects|\
     --k-limited <k>|--called-once|--types|--boundedness|--eval|--live|--witness|--dot]*\n\
     \t[--analysis sub|poly|hybrid|cfa0|sba|unify] [--policy c1|c2|exact|forget]\n\
     \t[--max-nodes <n>] [--fuel <n>] [--precision [--precision-budget <n>]]\n\
     \tor: stcfa lint <FILE|-> [--format text|json] [--policy ...]\n\
     \tor: stcfa lint --explain <CODE>\n\
     \tor: stcfa opt <FILE|-> [--passes name,...] [--emit] [--report text|json] [--max-rounds <n>] [--budget <n>]\n\
     \tor: stcfa rule <FILE|-> --name dominators|taint [--sources l,l,...] [--expr <n>] [--policy ...]\n\
     \tor: stcfa serve [--stdio|--addr HOST:PORT] [--threads <n>] [--shards <n>] [--cache-capacity <bytes>] [--cache-dir <path>]\n\
     \t\t[--deadline-ms <n>] [--max-inflight <n>] [--conn-inflight <n>]\n\
     \t\t[--precision-budget <n>] [--summary]\n\
     \tor: stcfa client --addr HOST:PORT [--request <json>]\n\
     \tor: stcfa soak --addr HOST:PORT [--connections <n>] [--bursts <n>] [--burst <n>] [--source-file <path>] [--no-warm]\n\
     \tor: stcfa session [FILE...] [--module NAME=PATH]* [--split <n>] [--policy ...] [--lint] [--emit-requests [--update-last]]\n\
     \tor: stcfa --repl    (incremental session on stdin)\n\
     \tor: stcfa --version"
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut path = None;
    let mut commands = Vec::new();
    let mut engine = EngineKind::Sub;
    let mut policy = DatatypePolicy::Congruence1;
    let mut max_nodes = None;
    let mut fuel = 10_000_000u64;
    let mut precision = false;
    let mut precision_budget = stcfa::precision::PrecisionScheduler::DEFAULT_BUDGET;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--summary" => commands.push(Command::Summary),
            "--labels" => commands.push(Command::Labels),
            "--call-sites" => commands.push(Command::CallSites),
            "--effects" => commands.push(Command::Effects),
            "--called-once" => commands.push(Command::CalledOnce),
            "--types" => commands.push(Command::Types),
            "--boundedness" => commands.push(Command::Boundedness),
            "--eval" => commands.push(Command::Eval),
            "--live" => commands.push(Command::Live),
            "--witness" => commands.push(Command::Witness),
            "--dot" => commands.push(Command::Dot),
            "--k-limited" => {
                commands.push(Command::KLimited(flag_value(&mut it, "--k-limited")?));
            }
            "--analysis" => {
                engine = match it.next().map(String::as_str) {
                    Some("sub") => EngineKind::Sub,
                    Some("poly") => EngineKind::Poly,
                    Some("hybrid") => EngineKind::Hybrid,
                    Some("cfa0") => EngineKind::Cfa0,
                    Some("sba") => EngineKind::Sba,
                    Some("unify") => EngineKind::Unify,
                    other => return Err(CliError::BadValue(format!("unknown analysis {other:?}"))),
                };
            }
            "--policy" => policy = parse_policy_flag(it.next().map(String::as_str))?,
            "--max-nodes" => max_nodes = Some(flag_value(&mut it, "--max-nodes")?),
            "--fuel" => fuel = flag_value(&mut it, "--fuel")?,
            "--precision" => precision = true,
            "--precision-budget" => {
                precision_budget = flag_value(&mut it, "--precision-budget")?;
            }
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_owned());
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(usage().to_owned()))?;
    if commands.is_empty() {
        commands.push(Command::Summary);
    }
    if precision && engine != EngineKind::Sub {
        return Err(CliError::BadValue(
            "--precision grades the subtransitive engine's answers; \
             it requires --analysis sub"
                .to_owned(),
        ));
    }
    Ok(Options {
        path,
        commands,
        engine,
        policy,
        max_nodes,
        fuel,
        precision,
        precision_budget,
    })
}

/// Pulls and parses the value of `flag` from the argument iterator;
/// missing or malformed values are [`CliError::BadValue`] (exit 3).
fn flag_value<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    let raw = it
        .next()
        .ok_or_else(|| CliError::BadValue(format!("{flag} needs a value\n{}", usage())))?;
    raw.parse()
        .map_err(|e| CliError::BadValue(format!("{flag}: {e}\n{}", usage())))
}

/// The shared `--policy` flag.
fn parse_policy_flag(value: Option<&str>) -> Result<DatatypePolicy, CliError> {
    value
        .and_then(DatatypePolicy::from_name)
        .ok_or_else(|| CliError::BadValue(format!("unknown policy {value:?}")))
}

/// Parses a byte count with an optional `k`/`m`/`g` (binary) suffix, e.g.
/// `--cache-capacity 256m`.
fn parse_capacity(raw: &str) -> Result<usize, CliError> {
    let (digits, shift) = match raw.as_bytes().last() {
        Some(b'k' | b'K') => (&raw[..raw.len() - 1], 10),
        Some(b'm' | b'M') => (&raw[..raw.len() - 1], 20),
        Some(b'g' | b'G') => (&raw[..raw.len() - 1], 30),
        _ => (raw, 0),
    };
    let n: usize = digits
        .parse()
        .map_err(|e| CliError::BadValue(format!("--cache-capacity: {e}")))?;
    n.checked_shl(shift)
        .filter(|&v| shift == 0 || v >> shift == n)
        .ok_or_else(|| CliError::BadValue(format!("--cache-capacity: `{raw}` overflows")))
}

/// The `--precision` annotation: grade, answering tier, and detector score.
fn grade_str(info: stcfa::precision::PrecisionInfo) -> String {
    format!(
        "{}, tier {}, suspicion {}",
        info.class.as_str(),
        info.tier.level(),
        info.suspicion
    )
}

fn repl() -> Result<(), String> {
    use stcfa::core::incremental::IncrementalAnalysis;
    use stcfa::lambda::session::SessionProgram;

    let mut session = SessionProgram::new();
    let mut analysis = IncrementalAnalysis::new(Default::default());
    let mut buffer = String::new();
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        let n =
            std::io::BufRead::read_line(&mut stdin.lock(), &mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(()); // EOF
        }
        let trimmed = line.trim_end();
        // `;;` submits accumulated multi-line input; otherwise each
        // non-empty line is its own fragment.
        if let Some(head) = trimmed.strip_suffix(";;") {
            buffer.push_str(head);
        } else if !buffer.is_empty() {
            buffer.push_str(trimmed);
            buffer.push('\n');
            continue;
        } else {
            buffer.push_str(trimmed);
        }
        let source = std::mem::take(&mut buffer);
        if source.trim().is_empty() {
            continue;
        }
        match session.define(&source) {
            Err(e) => eprintln!("error: {e}"),
            Ok(fragment) => match analysis.update(&session) {
                Err(e) => eprintln!("analysis error: {e}"),
                Ok(delta) => {
                    for b in &fragment.bindings {
                        let n = analysis.labels_of_binder(session.program(), b.binder).len();
                        println!("{} : {} possible function(s)", b.name, n);
                    }
                    if let Some(v) = fragment.value {
                        let labels = analysis.labels_of(session.program(), v);
                        println!("value : {} possible function(s)", labels.len());
                    }
                    println!(
                        "[+{} nodes, +{} edges; total {}]",
                        delta.new_nodes,
                        delta.new_edges,
                        analysis.node_count()
                    );
                }
            },
        }
    }
}

/// Reads the program source from a path or stdin (`-`).
fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| e.to_string())?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

/// `stcfa lint <FILE|-> [--format text|json] [--policy ...] [--max-nodes n]`:
/// run the flow-powered diagnostics and print the report.
/// `stcfa lint --explain CODE` instead prints the declarative definition
/// behind one rule code and exits.
///
/// Always exits 0 when the program parses and analyzes; diagnostics are a
/// report, not a gate (pipe the JSON into a gate if you want one).
fn run_lint(args: &[String]) -> Result<(), CliError> {
    use stcfa::lint::{explain, lint, render_json, render_text, LintOptions};

    let mut path = None;
    let mut json = false;
    let mut policy = DatatypePolicy::Congruence1;
    let mut max_nodes = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--explain" => {
                let code = it.next().ok_or_else(|| {
                    CliError::BadValue("--explain needs a rule code (e.g. STCFA004)".to_owned())
                })?;
                let text = explain(code).ok_or_else(|| {
                    CliError::BadValue(format!(
                        "unknown rule code `{code}` (expected STCFA001–STCFA008)"
                    ))
                })?;
                print!("{text}");
                return Ok(());
            }
            "--format" => {
                json = match it.next().map(String::as_str) {
                    Some("json") => true,
                    Some("text") => false,
                    other => {
                        return Err(CliError::BadValue(format!("unknown lint format {other:?}")))
                    }
                };
            }
            "--policy" => policy = parse_policy_flag(it.next().map(String::as_str))?,
            "--max-nodes" => max_nodes = Some(flag_value(&mut it, "--max-nodes")?),
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_owned());
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(usage().to_owned()))?;
    let source = read_source(&path)?;
    let program = Program::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let analysis = Analysis::run_with(&program, AnalysisOptions { policy, max_nodes })
        .map_err(|e| e.to_string())?;
    let engine = QueryEngine::freeze(&analysis);
    let diags = lint(&program, &analysis, &engine, &LintOptions::default());
    if json {
        print!("{}", render_json(&diags));
    } else {
        // Prefix each line with the file so reports from several files
        // stay attributable.
        for line in render_text(&diags).lines() {
            println!("{path}:{line}");
        }
        if diags.is_empty() {
            eprintln!("{path}: no diagnostics");
        }
    }
    Ok(())
}

/// `stcfa opt <FILE|-> [--passes name,...] [--emit] [--report text|json]
/// [--max-rounds <n>] [--budget <n>]`: run the
/// flow-directed lowering pipeline (docs/OPT.md) and print the decision
/// report — or, with `--emit`, the optimized program itself (the report
/// then goes to stderr so stdout stays parseable).
fn run_opt(args: &[String]) -> Result<(), CliError> {
    use stcfa::opt::{optimize, OptOptions, Pass, PassSet};

    let mut path = None;
    let mut passes = PassSet::all();
    let mut emit = false;
    let mut json = false;
    let mut max_rounds = None;
    let mut budget = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--passes" => {
                let list = it.next().ok_or_else(|| {
                    CliError::BadValue(
                        "--passes needs a comma-separated pass list (e.g. dead-app,inline-once)"
                            .to_owned(),
                    )
                })?;
                let mut set = PassSet::empty();
                for name in list.split(',').filter(|n| !n.is_empty()) {
                    let pass = Pass::from_name(name).ok_or_else(|| {
                        CliError::BadValue(format!(
                            "unknown pass `{name}` (expected one of {})",
                            Pass::all().map(Pass::name).join(", ")
                        ))
                    })?;
                    set = set.with(pass);
                }
                passes = set;
            }
            "--emit" => emit = true,
            "--report" => {
                json = match it.next().map(String::as_str) {
                    Some("json") => true,
                    Some("text") => false,
                    other => {
                        return Err(CliError::BadValue(format!(
                            "unknown report format {other:?}"
                        )))
                    }
                };
            }
            "--max-rounds" => max_rounds = Some(flag_value::<usize>(&mut it, "--max-rounds")?),
            "--budget" => budget = Some(flag_value::<usize>(&mut it, "--budget")?),
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_owned());
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(usage().to_owned()))?;
    let source = read_source(&path)?;
    let program = Program::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let defaults = OptOptions::default();
    let options = OptOptions {
        passes,
        max_rounds: max_rounds.unwrap_or(defaults.max_rounds),
        budget: budget.unwrap_or(defaults.budget),
        ..defaults
    };
    let out = optimize(&program, &options).map_err(|e| e.to_string())?;
    let rendered = if json {
        out.report.to_json().to_line() + "\n"
    } else {
        out.report.to_text()
    };
    if emit {
        print!("{}", out.program.to_source());
        eprint!("{rendered}");
    } else {
        print!("{rendered}");
    }
    Ok(())
}

/// `stcfa rule <FILE|-> --name dominators|taint [--sources l,l,...]
/// [--expr n] [--policy ...]`: evaluate a shipped rule program over the
/// frozen engine and print the JSON answer — the CLI twin of the
/// protocol-2 `rule` op (docs/RULES.md).
fn run_rule(args: &[String]) -> Result<(), CliError> {
    use stcfa::rules::{rule_answer, ExtDb, RuleQuery};

    let mut path = None;
    let mut name = None;
    let mut sources: Option<Vec<usize>> = None;
    let mut expr = None;
    let mut policy = DatatypePolicy::Congruence1;
    let mut max_nodes = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--name" => {
                name = Some(
                    it.next()
                        .ok_or_else(|| CliError::BadValue("--name needs a rule name".to_owned()))?
                        .to_owned(),
                );
            }
            "--sources" => {
                let raw = it.next().ok_or_else(|| {
                    CliError::BadValue("--sources needs a comma-separated label list".to_owned())
                })?;
                let mut list = Vec::new();
                for part in raw.split(',').filter(|p| !p.is_empty()) {
                    list.push(part.parse::<usize>().map_err(|_| {
                        CliError::BadValue(format!("--sources: `{part}` is not a label index"))
                    })?);
                }
                sources = Some(list);
            }
            "--expr" => expr = Some(flag_value::<usize>(&mut it, "--expr")?),
            "--policy" => policy = parse_policy_flag(it.next().map(String::as_str))?,
            "--max-nodes" => max_nodes = Some(flag_value(&mut it, "--max-nodes")?),
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_owned());
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(usage().to_owned()))?;
    let name =
        name.ok_or_else(|| CliError::Usage("rule needs --name dominators|taint".to_owned()))?;
    let source = read_source(&path)?;
    let program = Program::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let analysis = Analysis::run_with(&program, AnalysisOptions { policy, max_nodes })
        .map_err(|e| e.to_string())?;
    let engine = QueryEngine::freeze(&analysis);
    let query = match name.as_str() {
        "dominators" => RuleQuery::Dominators,
        "taint" => {
            let label = |l: usize| {
                if l >= program.label_count() {
                    return Err(CliError::BadValue(format!(
                        "--sources: label {l} is out of range (program has {})",
                        program.label_count()
                    )));
                }
                Ok(Label::from_index(l))
            };
            let sources = sources
                .map(|list| list.into_iter().map(label).collect::<Result<_, _>>())
                .transpose()?;
            if let Some(n) = expr.filter(|&n| n >= program.size()) {
                return Err(CliError::BadValue(format!(
                    "--expr: {n} is out of range (program has {} occurrences)",
                    program.size()
                )));
            }
            RuleQuery::Taint {
                sources,
                expr: expr.map(ExprId::from_index),
            }
        }
        other => {
            return Err(CliError::BadValue(format!(
                "unknown rule `{other}` (expected dominators|taint)"
            )))
        }
    };
    let db = ExtDb::new(&program, &analysis, &engine);
    println!("{}", rule_answer(&db, query).to_line());
    Ok(())
}

/// `stcfa session [FILE...] [--module NAME=PATH]... [--split n] [--policy ...]
/// [--lint] [--emit-requests [--update-last]]`: link files as a multi-file
/// analysis session and report on the link graph, or emit the equivalent
/// protocol-v2 request lines for `stcfa serve --stdio`.
fn run_session(args: &[String]) -> Result<(), CliError> {
    use stcfa::lint::{lint, LintOptions};
    use stcfa::server::Json;
    use stcfa::session::{split, Workspace};

    let mut files: Vec<String> = Vec::new();
    let mut named: Vec<(String, String)> = Vec::new();
    let mut split_n: Option<usize> = None;
    let mut policy = DatatypePolicy::Congruence1;
    let mut do_lint = false;
    let mut emit_requests = false;
    let mut update_last = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--module" => {
                let raw = it.next().ok_or_else(|| {
                    CliError::BadValue(format!("--module needs NAME=PATH\n{}", usage()))
                })?;
                let (name, path) = raw.split_once('=').ok_or_else(|| {
                    CliError::BadValue(format!("--module expects NAME=PATH, got `{raw}`"))
                })?;
                named.push((name.to_owned(), path.to_owned()));
            }
            "--split" => split_n = Some(flag_value(&mut it, "--split")?),
            "--policy" => policy = parse_policy_flag(it.next().map(String::as_str))?,
            "--lint" => do_lint = true,
            "--emit-requests" => emit_requests = true,
            "--update-last" => update_last = true,
            other if !other.starts_with("--") => files.push(other.to_owned()),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    if update_last && !emit_requests {
        return Err(CliError::Usage(
            "--update-last only applies with --emit-requests".to_owned(),
        ));
    }

    // Assemble the module list: named --module pairs first (in flag
    // order), then positional files named by their stem; --split cuts a
    // single positional file at top-level boundaries instead.
    let stem = |path: &str| -> String {
        std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_owned())
    };
    let mut modules: Vec<(String, String)> = Vec::new();
    for (name, path) in &named {
        modules.push((name.clone(), read_source(path)?));
    }
    match split_n {
        Some(parts) => {
            if files.len() != 1 || !named.is_empty() {
                return Err(CliError::Usage(
                    "--split expects exactly one FILE and no --module flags".to_owned(),
                ));
            }
            let path = &files[0];
            let source = read_source(path)?;
            let pieces = split::split_even(&source, parts).map_err(CliError::Runtime)?;
            let base = stem(path);
            for (i, piece) in pieces.into_iter().enumerate() {
                modules.push((format!("{base}.{i}"), piece));
            }
        }
        None => {
            for path in &files {
                modules.push((stem(path), read_source(path)?));
            }
        }
    }
    if modules.is_empty() {
        return Err(CliError::Usage(format!(
            "session needs at least one module\n{}",
            usage()
        )));
    }

    if emit_requests {
        // The protocol-v2 conversation equivalent to this invocation,
        // one request per line (the ci.sh session smoke pipes this into
        // `stcfa serve --stdio` at several thread counts).
        let module_objs = |mods: &[(String, String)]| {
            Json::Arr(
                mods.iter()
                    .map(|(name, source)| {
                        Json::obj(vec![
                            ("name", Json::str(name.clone())),
                            ("source", Json::str(source.clone())),
                        ])
                    })
                    .collect(),
            )
        };
        let mut id = 0u64;
        let mut emit = |op: &str, extra: Vec<(&str, Json)>| {
            let mut pairs = vec![
                ("v", Json::num(2)),
                ("id", Json::num(id)),
                ("op", Json::str(op)),
            ];
            if op != "shutdown" {
                pairs.push(("session", Json::str("cli")));
            }
            pairs.extend(extra);
            println!("{}", Json::obj(pairs).to_line());
            id += 1;
        };
        emit(
            "session/open",
            vec![
                ("policy", Json::str(policy.name())),
                ("modules", module_objs(&modules)),
            ],
        );
        emit("session/query", vec![("kind", Json::str("label-set"))]);
        if update_last {
            // Re-upsert the last module with a trailing newline: a
            // content change that leaves the analysis identical, so the
            // update path (unpin old, pin new) is exercised end to end.
            let (name, source) = modules.last().expect("nonempty").clone();
            let edited = vec![(name, format!("{source}\n"))];
            emit("session/update", vec![("modules", module_objs(&edited))]);
            emit("session/query", vec![("kind", Json::str("label-set"))]);
        }
        emit("session/lint", vec![]);
        emit("session/close", vec![]);
        // Shutdown is v1; keep the whole transcript v2 for simplicity.
        emit("shutdown", vec![]);
        return Ok(());
    }

    let mut workspace = Workspace::new(AnalysisOptions {
        policy,
        max_nodes: None,
    });
    for (name, source) in &modules {
        if workspace.module(name).is_some() {
            return Err(CliError::Usage(format!("duplicate module name `{name}`")));
        }
        workspace.upsert(name, source);
    }
    let report = workspace.link().map_err(|e| e.to_string())?;
    println!(
        "session: {} modules, digest {:016x}",
        report.modules.len(),
        report.session_digest
    );
    for m in &report.modules {
        let imports = if m.imports.is_empty() {
            "-".to_owned()
        } else {
            m.imports.join(", ")
        };
        println!(
            "  {}: {} exprs, {} exports, imports: {imports}",
            m.name,
            m.exprs,
            m.exports.len()
        );
    }
    println!(
        "graph:   {} nodes, {} edges over {} exprs",
        report.nodes, report.edges, report.exprs
    );
    let snapshot = workspace.freeze().expect("just linked");
    if let Some(value) = report.default_value() {
        let engine = snapshot.engine(&workspace).expect("workspace unchanged");
        let labels = engine.labels_of(value);
        let names: Vec<String> = labels
            .iter()
            .map(|&l| snapshot.program().label_name(l))
            .collect();
        println!(
            "value:   {} ({{{}}}) in module {}",
            labels.len(),
            names.join(", "),
            report.module_of_expr(value).unwrap_or("?")
        );
    }
    if do_lint {
        let diags = lint(
            snapshot.program(),
            snapshot.analysis(),
            snapshot.engine(&workspace).expect("workspace unchanged"),
            &LintOptions::default(),
        );
        for d in &diags {
            let module = report.module_of_expr(d.expr).unwrap_or("?");
            match d.span {
                Some(s) => println!(
                    "{module}:{}:{}: {} [{}] {}",
                    s.start.line,
                    s.start.col,
                    d.severity.as_str(),
                    d.code.as_str(),
                    d.message
                ),
                None => println!(
                    "{module}: {} [{}] {}",
                    d.severity.as_str(),
                    d.code.as_str(),
                    d.message
                ),
            }
        }
        println!("lint:    {} diagnostic(s)", diags.len());
    }
    Ok(())
}

/// `stcfa serve [--stdio | --addr HOST:PORT] [--threads n] [--shards n]
/// [--cache-capacity bytes] [--cache-dir path] [--deadline-ms n]
/// [--max-inflight n] [--conn-inflight n] [--precision-budget n]
/// [--summary]`: run the analysis daemon. Defaults to the stdio transport
/// when no `--addr` is given; both transports honour every flag.
fn run_serve(args: &[String]) -> Result<(), CliError> {
    use stcfa::server::{fleet_summary_line, Server, ServerOptions};

    let mut addr = None;
    let mut stdio = false;
    let mut summary = false;
    let mut options = ServerOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => stdio = true,
            "--summary" => summary = true,
            "--shards" => options.shards = flag_value(&mut it, "--shards")?,
            "--max-inflight" => options.max_inflight = flag_value(&mut it, "--max-inflight")?,
            "--conn-inflight" => options.conn_inflight = flag_value(&mut it, "--conn-inflight")?,
            "--addr" => {
                addr = Some(
                    it.next()
                        .ok_or_else(|| {
                            CliError::BadValue(format!("--addr needs a value\n{}", usage()))
                        })?
                        .to_owned(),
                );
            }
            "--threads" => options.threads = flag_value(&mut it, "--threads")?,
            "--cache-capacity" => {
                let raw = it.next().ok_or_else(|| {
                    CliError::BadValue(format!("--cache-capacity needs a value\n{}", usage()))
                })?;
                options.cache_capacity = parse_capacity(raw)?;
            }
            "--deadline-ms" => {
                options.default_deadline_ms = Some(flag_value(&mut it, "--deadline-ms")?)
            }
            "--precision-budget" => {
                options.precision_budget = flag_value(&mut it, "--precision-budget")?
            }
            "--cache-dir" => {
                let raw = it.next().ok_or_else(|| {
                    CliError::BadValue(format!("--cache-dir needs a value\n{}", usage()))
                })?;
                std::fs::create_dir_all(raw).map_err(|e| {
                    CliError::Runtime(format!("--cache-dir {raw}: cannot create: {e}"))
                })?;
                options.cache_dir = Some(std::path::PathBuf::from(raw));
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    if stdio && addr.is_some() {
        return Err(CliError::Usage(
            "--stdio and --addr are mutually exclusive".to_owned(),
        ));
    }
    if options.threads == 0 {
        return Err(CliError::BadValue(
            "--threads must be at least 1".to_owned(),
        ));
    }
    if options.max_inflight == 0 {
        return Err(CliError::BadValue(
            "--max-inflight must be at least 1".to_owned(),
        ));
    }
    if options.conn_inflight == 0 {
        return Err(CliError::BadValue(
            "--conn-inflight must be at least 1".to_owned(),
        ));
    }
    let server = Server::new(options);
    let on_bound = |bound: std::net::SocketAddr| {
        // The smoke test (and humans using port 0) read the bound
        // address off stderr.
        eprintln!("stcfa-server listening on {bound}");
    };
    let result = match addr {
        None => server.serve_stdio(),
        Some(addr) => server.serve_tcp(&addr, on_bound),
    };
    if summary {
        if let Some(fleet) = server.fleet_stats() {
            eprintln!("{}", fleet_summary_line(&fleet));
        }
    }
    result.map_err(|e| CliError::Runtime(format!("serve: {e}")))
}

/// `stcfa soak --addr HOST:PORT [...]`: drive the shared many-connection
/// pipelined load generator against a running daemon and print one JSON
/// report line (CI's soak smoke parses it).
fn run_soak(args: &[String]) -> Result<(), CliError> {
    use stcfa::server::soak::{run_soak, SoakConfig};

    let mut config = SoakConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                config.addr = it
                    .next()
                    .ok_or_else(|| {
                        CliError::BadValue(format!("--addr needs a value\n{}", usage()))
                    })?
                    .to_owned();
            }
            "--connections" => config.connections = flag_value(&mut it, "--connections")?,
            "--bursts" => config.bursts = flag_value(&mut it, "--bursts")?,
            "--burst" => config.burst = flag_value(&mut it, "--burst")?,
            "--source-file" => {
                let path = it.next().ok_or_else(|| {
                    CliError::BadValue(format!("--source-file needs a value\n{}", usage()))
                })?;
                config.source = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("--source-file {path}: {e}")))?;
            }
            "--no-warm" => config.warm = false,
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    if config.addr.is_empty() {
        return Err(CliError::Usage("soak needs --addr HOST:PORT".to_owned()));
    }
    if config.connections == 0 || config.bursts == 0 || config.burst == 0 {
        return Err(CliError::BadValue(
            "--connections/--bursts/--burst must be at least 1".to_owned(),
        ));
    }
    let report = run_soak(&config);
    println!("{}", report.to_json_line());
    if report.failed_connections > 0 || report.reordered > 0 {
        return Err(CliError::Runtime(format!(
            "soak failed: {} hung/dead connections, {} reordered responses",
            report.failed_connections, report.reordered
        )));
    }
    Ok(())
}

/// `stcfa client --addr HOST:PORT [--request <json>]`: forward one request
/// (or every stdin line) to a daemon and print the response lines.
fn run_client(args: &[String]) -> Result<(), CliError> {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpStream;

    let mut addr = None;
    let mut request = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = Some(
                    it.next()
                        .ok_or_else(|| {
                            CliError::BadValue(format!("--addr needs a value\n{}", usage()))
                        })?
                        .to_owned(),
                );
            }
            "--request" => {
                request = Some(
                    it.next()
                        .ok_or_else(|| {
                            CliError::BadValue(format!("--request needs a value\n{}", usage()))
                        })?
                        .to_owned(),
                );
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    let addr = addr.ok_or_else(|| CliError::Usage("client needs --addr HOST:PORT".to_owned()))?;
    let stream =
        TcpStream::connect(&addr).map_err(|e| CliError::Runtime(format!("connect {addr}: {e}")))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| CliError::Runtime(e.to_string()))?,
    );
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> Result<(), CliError> {
        writeln!(writer, "{line}").map_err(|e| CliError::Runtime(format!("send: {e}")))?;
        let mut response = String::new();
        let n = reader
            .read_line(&mut response)
            .map_err(|e| CliError::Runtime(format!("recv: {e}")))?;
        if n == 0 {
            return Err(CliError::Runtime("daemon closed the connection".to_owned()));
        }
        print!("{response}");
        Ok(())
    };
    match request {
        Some(line) => roundtrip(&line),
        None => {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| CliError::Runtime(e.to_string()))?;
                if line.trim().is_empty() {
                    continue;
                }
                roundtrip(&line)?;
            }
            Ok(())
        }
    }
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(());
    }
    if args.iter().any(|a| a == "--version") {
        println!("stcfa {}", env!("CARGO_PKG_VERSION"));
        return Ok(());
    }
    if args.iter().any(|a| a == "--repl") {
        return Ok(repl()?);
    }
    match args.first().map(String::as_str) {
        Some("lint") => return run_lint(&args[1..]),
        Some("opt") => return run_opt(&args[1..]),
        Some("rule") => return run_rule(&args[1..]),
        Some("serve") => return run_serve(&args[1..]),
        Some("client") => return run_client(&args[1..]),
        Some("soak") => return run_soak(&args[1..]),
        Some("session") => return run_session(&args[1..]),
        _ => {}
    }
    let options = parse_args(&args)?;

    let source = read_source(&options.path)?;
    let program = Program::parse(&source).map_err(|e| e.to_string())?;

    let analysis_options = AnalysisOptions {
        policy: options.policy,
        max_nodes: options.max_nodes,
    };
    // Commands other than pure label queries run on the subtransitive graph.
    let needs_graph = options.commands.iter().any(|c| {
        matches!(
            c,
            Command::Summary
                | Command::Effects
                | Command::KLimited(_)
                | Command::CalledOnce
                | Command::Witness
                | Command::Dot
        )
    });
    let graph = if needs_graph {
        Some(Analysis::run_with(&program, analysis_options).map_err(|e| e.to_string())?)
    } else {
        None
    };

    let needs_engine = options
        .commands
        .iter()
        .any(|c| matches!(c, Command::Labels | Command::CallSites | Command::Summary));
    // `--precision` routes Sub-engine label queries through the tier
    // scheduler; the detector index is built once alongside the freeze.
    let mut scheduler = None;
    let engine = if !needs_engine {
        None
    } else {
        Some(match options.engine {
            EngineKind::Sub => {
                let a =
                    Analysis::run_with(&program, analysis_options).map_err(|e| e.to_string())?;
                let q = QueryEngine::freeze(&a);
                if options.precision {
                    let suspicion = stcfa::precision::SuspicionIndex::build(&a, &q);
                    scheduler = Some(stcfa::precision::PrecisionScheduler::new(
                        suspicion,
                        options.policy,
                        options.precision_budget,
                    ));
                }
                Engine::Sub(q)
            }
            EngineKind::Poly => Engine::Poly(
                PolyAnalysis::run_with(
                    &program,
                    stcfa::core::PolyOptions {
                        base: analysis_options,
                        ..Default::default()
                    },
                )
                .map_err(|e| e.to_string())?,
            ),
            EngineKind::Hybrid => Engine::Hybrid(HybridCfa::run(&program, analysis_options)),
            EngineKind::Cfa0 => Engine::Cfa0(Cfa0::analyze(&program)),
            EngineKind::Sba => Engine::Sba(Sba::analyze(&program)),
            EngineKind::Unify => Engine::Unify(UnifyCfa::analyze(&program)),
        })
    };

    for command in &options.commands {
        match command {
            Command::Summary => {
                let a = graph.as_ref().expect("graph built");
                let s = a.stats();
                println!(
                    "program: {} syntax nodes, {} abstractions, {} application sites",
                    program.size(),
                    program.label_count(),
                    program.app_sites().len()
                );
                println!(
                    "graph:   {} nodes ({} build + {} close), {} edges ({} build + {} close)",
                    s.nodes(),
                    s.build_nodes,
                    s.close_nodes,
                    s.edges(),
                    s.build_edges,
                    s.close_edges
                );
                let engine = engine.as_ref().expect("summary needs the engine");
                println!("engine:  {}", engine.name());
                if let Engine::Sub(q) = engine {
                    let qs = q.query_stats();
                    println!(
                        "queries: {} sccs over {} nodes; {} answered \
                         ({} cache hits, {} misses, {} sweep(s))",
                        q.comp_count(),
                        q.node_count(),
                        qs.queries,
                        qs.summary_hits + qs.demand_hits,
                        qs.demand_misses,
                        qs.sweeps
                    );
                }
            }
            Command::Labels => {
                let engine = engine.as_ref().expect("labels needs the engine");
                let (labels, grade) = match (&scheduler, engine) {
                    (Some(sched), Engine::Sub(q)) => {
                        let (labels, info) = sched.labels_of(&program, q, program.root());
                        (labels, format!("  [{}]", grade_str(info)))
                    }
                    _ => (engine.labels_of(&program, program.root()), String::new()),
                };
                if labels.is_empty() {
                    println!("L(root) = {{}} (the program's value is not a function){grade}");
                } else {
                    let names: Vec<String> =
                        labels.iter().map(|&l| program.label_name(l)).collect();
                    println!("L(root) = {{{}}}{grade}", names.join(", "));
                }
            }
            Command::CallSites => {
                let engine = engine.as_ref().expect("call-sites needs the engine");
                println!("call targets per application site ({}):", engine.name());
                for app in program.app_sites() {
                    let ExprKind::App { func, .. } = program.kind(app) else {
                        unreachable!()
                    };
                    let (labels, grade) = match (&scheduler, engine) {
                        (Some(sched), Engine::Sub(q)) => {
                            let (labels, info) = sched.labels_of(&program, q, *func);
                            (labels, format!("  [{}]", grade_str(info)))
                        }
                        _ => (engine.labels_of(&program, *func), String::new()),
                    };
                    let names: Vec<String> =
                        labels.iter().map(|&l| program.label_name(l)).collect();
                    println!("  site@{}: {{{}}}{grade}", app.index(), names.join(", "));
                }
            }
            Command::Effects => {
                let a = graph.as_ref().expect("graph built");
                let eff = effects(&program, a);
                println!(
                    "effects: {} of {} occurrences may have side effects",
                    eff.count(),
                    program.size()
                );
                println!(
                    "root {} effectful",
                    if eff.is_effectful(program.root()) {
                        "IS"
                    } else {
                        "is NOT"
                    }
                );
            }
            Command::KLimited(k) => {
                let a = graph.as_ref().expect("graph built");
                let kl = KLimited::run(a, *k);
                println!("{k}-limited call targets:");
                for app in program.app_sites() {
                    let set = kl.call_targets(&program, a, app).expect("app site");
                    match set.as_small() {
                        Some(ls) => {
                            let names: Vec<String> =
                                ls.iter().map(|&l| program.label_name(l)).collect();
                            println!("  site@{}: {{{}}}", app.index(), names.join(", "));
                        }
                        None => println!("  site@{}: many", app.index()),
                    }
                }
            }
            Command::CalledOnce => {
                let a = graph.as_ref().expect("graph built");
                let co = CalledOnce::run(&program, a);
                for l in program.all_labels() {
                    let verdict = match co.of(l) {
                        CallSites::None => "never called".to_owned(),
                        CallSites::One(site) => format!("called once (site@{})", site.index()),
                        CallSites::Many => "called from several sites".to_owned(),
                    };
                    println!("  {}: {verdict}", program.label_name(l));
                }
            }
            Command::Types => {
                let typed = TypedProgram::infer(&program).map_err(|e| e.to_string())?;
                let m = TypeMetrics::compute(&program, &typed);
                println!(
                    "types: k_avg = {:.2}, k_max = {}, max order = {}, max arity = {} \
                     (bounded-type class P_{})",
                    m.avg_size, m.max_size, m.max_order, m.max_arity, m.max_size
                );
                // List the top-level binding chain with inferred types.
                let mut cursor = program.root();
                while let ExprKind::Let { binder, body, .. }
                | ExprKind::LetRec { binder, body, .. } = program.kind(cursor)
                {
                    let name = program.var_name(*binder);
                    if !name.starts_with('$') {
                        println!("  {name} : {}", typed.binder_ty(*binder).display(&program));
                    }
                    cursor = *body;
                }
            }
            Command::Boundedness => {
                let b = stcfa::boundedness::measure(&program, 4).map_err(|e| e.to_string())?;
                println!(
                    "boundedness: direct k_max = {} (k_avg {:.2}); after {} let-expansion \
                     round(s): k_max = {} (k_avg {:.2})",
                    b.direct.max_size,
                    b.direct.avg_size,
                    b.rounds,
                    b.mcallester.max_size,
                    b.mcallester.avg_size
                );
                if b.mcallester.max_size > b.direct.max_size {
                    println!(
                        "note: nested polymorphic instantiations deepen the induced \
                         monotypes (paper §5 / McAllester's measure)"
                    );
                }
            }
            Command::Eval => {
                let out = eval(
                    &program,
                    EvalOptions {
                        fuel: options.fuel,
                        inputs: vec![],
                        max_depth: None,
                    },
                )
                .map_err(|e| e.to_string())?;
                for n in &out.outputs {
                    println!("{n}");
                }
                match out.value {
                    Value::Int(n) => println!("=> {n}"),
                    Value::Bool(b) => println!("=> {b}"),
                    Value::Unit => println!("=> ()"),
                    Value::Closure(_) => println!("=> <function>"),
                    Value::Record(_) => println!("=> <record>"),
                    Value::Con { .. } => println!("=> <constructor>"),
                }
            }
            Command::Live => {
                let live = stcfa::cfa0::LiveCfa0::analyze(&program);
                let alive = live.live_exprs().len();
                println!(
                    "liveness: {alive} of {} occurrences reachable ({} dead)",
                    program.size(),
                    program.size() - alive
                );
                let dead_bodies = program
                    .exprs()
                    .filter(|&e| {
                        matches!(program.kind(e), ExprKind::Lam { body, .. } if !live.is_live(*body))
                    })
                    .count();
                println!("functions whose body is never executed: {dead_bodies}");
            }
            Command::Witness => {
                let a = graph.as_ref().expect("graph built");
                let labels = a.labels_of(program.root());
                if labels.is_empty() {
                    println!("L(root) is empty: no witness paths");
                }
                for l in labels {
                    let path = a
                        .witness_path(program.root(), l)
                        .expect("label is in L(root)");
                    println!(
                        "witness for {} ∈ L(root), {} steps:",
                        program.label_name(l),
                        path.len() - 1
                    );
                    for (i, &n) in path.iter().enumerate() {
                        let arrow = if i == 0 { "  " } else { "→ " };
                        println!("  {arrow}{}", dot::describe(a, &program, n));
                    }
                }
            }
            Command::Dot => {
                let a = graph.as_ref().expect("graph built");
                print!("{}", dot::render(a, &program));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(message)) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
        Err(CliError::BadValue(message)) => {
            eprintln!("{message}");
            ExitCode::from(3)
        }
    }
}
