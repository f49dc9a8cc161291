//! The tier scheduler: answer every query at the cheapest tier that
//! can certify it.
//!
//! | Tier | Engine | Cost | When |
//! |------|--------|------|------|
//! | 0 | subtransitive `QueryEngine` | `O(E·L/64)` amortized | always — the baseline answer and the sound upper bound |
//! | 1 | `PolyAnalysis` summaries | linear, built once per snapshot | suspicion > 0 |
//! | 2 | `Cfa0` restricted to the demand cone | cubic in the *cone* | suspicion > 0 and budget remains — the confirmation step |
//!
//! Every answer is the Tier-0 set intersected with whatever the higher
//! tiers proved. Each tier is an independently sound may-flow
//! over-approximation of the *dynamic* flows (Tier 1's polyvariance can
//! refine past monovariant 0CFA; Tier 2's cone computes exactly the
//! 0CFA fixpoint at the query), so the intersection is sound too, and
//! the published set only ever shrinks. The precision grade is:
//!
//! - `exact` — certified no looser than full cubic CFA: either the
//!   detector's suspicion is 0 (no congruence merge reachable, so the
//!   linear answer *is* the exact answer), or Tier 2 ran and confirmed
//!   the unshrunk Tier-0 set. Never under `Forget`, which cuts flow: a
//!   zero score or an empty set proves nothing there;
//! - `refined` — escalation strictly shrank the Tier-0 set; whenever
//!   the budget allowed, the set was also confirmed against (and
//!   intersected with) the cubic oracle on the query's cone;
//! - `approx` — sound but unconfirmed: escalation was skipped (budget
//!   exhausted, `Forget` policy) or did not shrink the set.
//!
//! Escalation results are memoized per query site, so repeated queries
//! never re-pay cubic cost, and charged against a per-snapshot node
//! budget (`--precision-budget`): each Tier-2 run spends its cone's
//! engine-node count; once the budget is gone the scheduler degrades
//! to Tier 0 with an honest `approx` grade.
//!
//! **Single-CPU discipline:** the scheduler never spawns threads. All
//! tiers run on the caller's thread, as every `QueryEngine` query does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use stcfa_cfa0::Cfa0;
use stcfa_core::{AnalysisOptions, DatatypePolicy, PolyAnalysis, PolyOptions, QueryEngine};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};

use crate::cone::demand_cone;
use crate::detector::SuspicionIndex;

/// Which tier produced an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Subtransitive engine (always consulted).
    Sub,
    /// Polyvariant summaries.
    Poly,
    /// Cone-restricted cubic CFA.
    Cone,
}

impl Tier {
    /// The numeric tier used on the wire.
    pub fn level(self) -> u8 {
        match self {
            Tier::Sub => 0,
            Tier::Poly => 1,
            Tier::Cone => 2,
        }
    }
}

/// How trustworthy the returned set is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecisionClass {
    /// Certified equal to the full cubic answer.
    Exact,
    /// Strictly smaller than Tier 0 (and still sound).
    Refined,
    /// Sound over-approximation, not confirmed.
    Approx,
}

impl PrecisionClass {
    /// The lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            PrecisionClass::Exact => "exact",
            PrecisionClass::Refined => "refined",
            PrecisionClass::Approx => "approx",
        }
    }
}

/// Per-answer provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrecisionInfo {
    /// The grade of the returned set.
    pub class: PrecisionClass,
    /// The tier that produced (or confirmed) it.
    pub tier: Tier,
    /// The detector's suspicion score at the query site.
    pub suspicion: u32,
}

/// Aggregate scheduler counters (monotone; read for stats surfaces).
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    /// Queries answered (memo hits included).
    pub queries: u64,
    /// Memoized escalations served without recomputation.
    pub memo_hits: u64,
    /// Tier-1 escalations run.
    pub poly_runs: u64,
    /// Tier-2 cone runs.
    pub cone_runs: u64,
    /// Queries where a higher tier strictly shrank the answer.
    pub refined: u64,
    /// Engine nodes charged against the budget so far.
    pub budget_spent: usize,
}

/// The per-snapshot scheduler: suspicion index, escalation memo, lazy
/// polyvariant analysis, and the node budget.
pub struct PrecisionScheduler {
    suspicion: SuspicionIndex,
    policy: DatatypePolicy,
    budget: usize,
    spent: AtomicUsize,
    /// `Ok(analysis)` once built; `Err(())` if the polyvariant run
    /// failed (node budget) — Tier 1 is then permanently skipped.
    poly: OnceLock<Result<PolyAnalysis, ()>>,
    memo: Mutex<HashMap<u32, (Vec<Label>, PrecisionInfo)>>,
    queries: AtomicU64,
    memo_hits: AtomicU64,
    poly_runs: AtomicU64,
    cone_runs: AtomicU64,
    refined: AtomicU64,
}

impl std::fmt::Debug for PrecisionScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecisionScheduler")
            .field("policy", &self.policy)
            .field("budget", &self.budget)
            .field("spent", &self.spent.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl PrecisionScheduler {
    /// Default per-snapshot escalation budget, in engine nodes.
    pub const DEFAULT_BUDGET: usize = 65_536;

    /// Builds a scheduler over a frozen snapshot's suspicion index.
    pub fn new(
        suspicion: SuspicionIndex,
        policy: DatatypePolicy,
        budget: usize,
    ) -> PrecisionScheduler {
        PrecisionScheduler {
            suspicion,
            policy,
            budget,
            spent: AtomicUsize::new(0),
            poly: OnceLock::new(),
            memo: Mutex::new(HashMap::new()),
            queries: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            poly_runs: AtomicU64::new(0),
            cone_runs: AtomicU64::new(0),
            refined: AtomicU64::new(0),
        }
    }

    /// The detector's index this scheduler consults.
    pub fn suspicion(&self) -> &SuspicionIndex {
        &self.suspicion
    }

    /// The configured budget, in engine nodes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Counters so far.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queries: self.queries.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            poly_runs: self.poly_runs.load(Ordering::Relaxed),
            cone_runs: self.cone_runs.load(Ordering::Relaxed),
            refined: self.refined.load(Ordering::Relaxed),
            budget_spent: self.spent.load(Ordering::Relaxed),
        }
    }

    /// `L(e)` at the cheapest certifying tier.
    pub fn labels_of(
        &self,
        program: &Program,
        engine: &QueryEngine,
        e: ExprId,
    ) -> (Vec<Label>, PrecisionInfo) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let t0 = engine.labels_of(e);
        let suspicion = self.suspicion.of_expr(engine, e);
        if self.policy == DatatypePolicy::Forget {
            // `Forget` cuts flow instead of merging: Tier 0 is no upper
            // bound, so neither a zero score nor an empty set certifies
            // anything, and escalation cannot either (the cone
            // construction's premise fails too).
            return (
                t0,
                PrecisionInfo {
                    class: PrecisionClass::Approx,
                    tier: Tier::Sub,
                    suspicion,
                },
            );
        }
        if suspicion == 0 || t0.is_empty() {
            // No congruence merge in the cone (the linear answer is the
            // exact answer), or nothing left to shrink: an empty sound
            // upper bound proves the exact set is empty too.
            return (
                t0,
                PrecisionInfo {
                    class: PrecisionClass::Exact,
                    tier: Tier::Sub,
                    suspicion,
                },
            );
        }
        if let Some(hit) = self.memo.lock().expect("memo poisoned").get(&key(e)) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        // Tier 1: polyvariant summaries (linear; built once, shared).
        let t0_len = t0.len();
        let mut best = t0;
        let mut tier = Tier::Sub;
        if let Ok(poly) = self.poly_analysis(program) {
            let t1 = intersect_sorted(&best, &poly.labels_of(e));
            if t1.len() < best.len() {
                best = t1;
                tier = Tier::Poly;
            }
        }

        // Tier 2: cone-restricted cubic, budget permitting. This runs
        // even when Tier 1 already refined — the cubic cone is the
        // confirmation step. Every refined answer is intersected with
        // the 0CFA oracle on the query's slice (both analyses are sound
        // may-flow over-approximations, so so is their intersection),
        // and an unshrunk answer gains an exactness certificate.
        let mut confirmed_exact = false;
        let cone = demand_cone(program, engine, &[engine.node_of_expr(e).index()]);
        if self.charge(cone.node_count) {
            self.cone_runs.fetch_add(1, Ordering::Relaxed);
            let cfa = Cfa0::analyze_within(program, &cone.exprs);
            best = intersect_sorted(&best, &cfa.labels(program, e));
            tier = Tier::Cone;
            confirmed_exact = true;
        }

        let class = if best.len() < t0_len {
            self.refined.fetch_add(1, Ordering::Relaxed);
            PrecisionClass::Refined
        } else if confirmed_exact {
            PrecisionClass::Exact
        } else {
            PrecisionClass::Approx
        };
        let info = PrecisionInfo {
            class,
            tier,
            suspicion,
        };
        // Memoize settled outcomes only: a budget-starved `approx` may
        // improve if the same site is asked again after cheaper queries
        // freed nothing — but a *later* larger budget never exists per
        // snapshot, so deny-by-budget is settled too once Tier 1 ran.
        self.memo
            .lock()
            .expect("memo poisoned")
            .insert(key(e), (best.clone(), info));
        (best, info)
    }

    /// Call targets of application `app` (`L` of its operator), graded.
    /// `None` when `app` is not an application.
    pub fn call_targets(
        &self,
        program: &Program,
        engine: &QueryEngine,
        app: ExprId,
    ) -> Option<(Vec<Label>, PrecisionInfo)> {
        match program.kind(app) {
            ExprKind::App { func, .. } => Some(self.labels_of(program, engine, *func)),
            _ => None,
        }
    }

    /// The polyvariant analysis, built on first use (on the caller's
    /// thread — no spawning).
    fn poly_analysis(&self, program: &Program) -> Result<&PolyAnalysis, ()> {
        self.poly
            .get_or_init(|| {
                self.poly_runs.fetch_add(1, Ordering::Relaxed);
                let options = PolyOptions {
                    base: AnalysisOptions {
                        policy: self.policy,
                        max_nodes: None,
                    },
                    ..PolyOptions::default()
                };
                PolyAnalysis::run_with(program, options).map_err(|_| ())
            })
            .as_ref()
            .map_err(|_| ())
    }

    /// Tries to charge `nodes` against the budget; `false` leaves the
    /// budget untouched and the caller un-escalated.
    fn charge(&self, nodes: usize) -> bool {
        let mut cur = self.spent.load(Ordering::Relaxed);
        loop {
            if cur + nodes > self.budget {
                return false;
            }
            match self.spent.compare_exchange_weak(
                cur,
                cur + nodes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }
}

fn key(e: ExprId) -> u32 {
    e.index() as u32
}

/// Intersection of two sorted label vectors (kept sorted).
fn intersect_sorted(a: &[Label], b: &[Label]) -> Vec<Label> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_core::Analysis;

    fn scheduler_for(src: &str) -> (Program, QueryEngine, PrecisionScheduler) {
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        let e = QueryEngine::freeze(&a);
        let s = PrecisionScheduler::new(
            SuspicionIndex::build(&a, &e),
            a.policy(),
            PrecisionScheduler::DEFAULT_BUDGET,
        );
        (p, e, s)
    }

    #[test]
    fn suspicion_free_queries_are_exact_at_tier_zero() {
        let (p, e, s) = scheduler_for("(fn x => x x) (fn y => y)");
        let (labels, info) = s.labels_of(&p, &e, p.root());
        assert_eq!(labels, e.labels_of(p.root()));
        assert_eq!(info.class, PrecisionClass::Exact);
        assert_eq!(info.tier, Tier::Sub);
        assert_eq!(s.stats().cone_runs, 0, "no escalation should have run");
    }

    #[test]
    fn datatype_merges_escalate_and_refine() {
        // Two single-constructor datatypes: ≈₁ keeps them in separate
        // classes, but wrapping two *different* functions in the same
        // datatype merges them — the case result over-approximates and
        // the cubic cone separates the arms again.
        let src = "\
            datatype w = A of (int -> int) | B of (int -> int);\n\
            case A(fn x => x) of A(f) => f | B(g) => g";
        let (p, e, s) = scheduler_for(src);
        let (labels, info) = s.labels_of(&p, &e, p.root());
        let t0 = e.labels_of(p.root());
        assert!(info.suspicion > 0);
        assert!(labels.len() <= t0.len());
        // Whatever the grade, the answer must stay sound: the true
        // result (the one constructed function) must be present.
        let full = Cfa0::analyze(&p);
        for l in full.labels(&p, p.root()) {
            assert!(labels.contains(&l), "escalation dropped true label {l:?}");
        }
    }

    #[test]
    fn memoized_escalations_do_not_repay_cubic_cost() {
        let src = "\
            datatype wrap = W of (int -> int);\n\
            case W(fn x => x) of W(f) => f";
        let (p, e, s) = scheduler_for(src);
        let first = s.labels_of(&p, &e, p.root());
        let runs = s.stats().cone_runs;
        let second = s.labels_of(&p, &e, p.root());
        assert_eq!(first, second);
        assert_eq!(s.stats().cone_runs, runs, "second query re-ran the cone");
        assert_eq!(s.stats().memo_hits, 1);
    }

    #[test]
    fn exhausted_budget_degrades_to_an_honest_approx() {
        let src = "\
            datatype wrap = W of (int -> int);\n\
            case W(fn x => x) of W(f) => f";
        let p = Program::parse(src).unwrap();
        let a = Analysis::run(&p).unwrap();
        let e = QueryEngine::freeze(&a);
        let s = PrecisionScheduler::new(SuspicionIndex::build(&a, &e), a.policy(), 0);
        let (labels, info) = s.labels_of(&p, &e, p.root());
        assert_eq!(labels, e.labels_of(p.root()));
        assert_ne!(info.tier, Tier::Cone);
        assert_eq!(s.stats().cone_runs, 0);
        assert_eq!(s.stats().budget_spent, 0);
    }

    #[test]
    fn call_targets_follow_the_operator_site() {
        let (p, e, s) = scheduler_for("(fn x => x) 1");
        let (targets, info) = s.call_targets(&p, &e, p.root()).unwrap();
        assert_eq!(targets.len(), 1);
        assert_eq!(info.class, PrecisionClass::Exact);
        assert!(s
            .call_targets(&p, &e, targets_lam(&p, targets[0]))
            .is_none());
    }

    fn targets_lam(p: &Program, l: Label) -> ExprId {
        p.lam_of_label(l)
    }
}
