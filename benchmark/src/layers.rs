//! The public calls the daemon's ops make into each crate, one function
//! per consumer layer. The reference answers and the traced run both go
//! through these, so a check and a timing cannot disagree about what a
//! layer computes.

use stcfa_core::{Analysis, DatatypePolicy, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};
use stcfa_lint::{lint_with_suspicion, LintOptions};
use stcfa_opt::{optimize_with, OptOptions};
use stcfa_precision::{PrecisionScheduler, SchedulerStats, SuspicionIndex};
use stcfa_rules::{tainted_exprs, ExtDb};
use stcfa_server::proto::parse_policy;
use stcfa_server::SnapshotKey;

/// The daemon's worker count. Lint and opt divide it by the requests in
/// flight; the traced replay runs one request at a time, so it passes
/// the whole budget, as the daemon does there.
pub const THREADS: usize = 2;

/// The datatype policy every request runs under (the protocol default).
pub fn policy() -> (DatatypePolicy, u64) {
    parse_policy("c1").expect("c1 is the protocol's default policy")
}

/// The content address the daemon derives for `source`. The daemon
/// serves one engine, whose discriminant is 0; priming compares this key
/// with the handle the daemon returns, so a drift fails the run.
pub fn snapshot_key(source: &str) -> SnapshotKey {
    SnapshotKey::derive(source, policy().1, 0)
}

/// `lint` and `session/lint`: the diagnostic count.
pub fn lint(
    program: &Program,
    analysis: &Analysis,
    engine: &QueryEngine,
    suspicion: &SuspicionIndex,
) -> usize {
    lint_with_suspicion(
        program,
        analysis,
        engine,
        suspicion,
        &LintOptions { threads: THREADS },
    )
    .len()
}

/// `rule` taint with the default sources (every abstraction whose body
/// is effectful): the tainted-expression count.
pub fn taint(program: &Program, analysis: &Analysis, engine: &QueryEngine) -> usize {
    let db = ExtDb::new(program, analysis, engine);
    let effects = db.effects();
    let sources: Vec<Label> = program
        .all_labels()
        .filter(|&l| match program.kind(program.lam_of_label(l)) {
            ExprKind::Lam { body, .. } => effects.is_effectful(*body),
            _ => false,
        })
        .collect();
    tainted_exprs(&db, &sources).len()
}

/// `opt` with every pass: (rounds, rewrites performed).
pub fn optimize(program: &Program, engine: &QueryEngine) -> (usize, usize) {
    let out = optimize_with(
        program,
        engine,
        &OptOptions {
            threads: THREADS,
            ..OptOptions::default()
        },
    )
    .expect("benchmark programs optimize");
    (out.report.rounds, out.report.performed_total())
}

/// Graded `call-targets` at each site on a fresh scheduler, as the
/// daemon grades a never-seen snapshot: the label sets and the
/// scheduler's counters.
pub fn grade(
    program: &Program,
    engine: &QueryEngine,
    suspicion: &SuspicionIndex,
    sites: &[ExprId],
) -> (Vec<Vec<Label>>, SchedulerStats) {
    let scheduler = PrecisionScheduler::new(
        suspicion.clone(),
        policy().0,
        PrecisionScheduler::DEFAULT_BUDGET,
    );
    let labels = sites
        .iter()
        .map(|&site| {
            scheduler
                .call_targets(program, engine, site)
                .expect("graded sites are applications")
                .0
        })
        .collect();
    (labels, scheduler.stats())
}
