//! The correctness gate: a response is compared in full against the
//! in-process reference for its pool program.

use stcfa_lambda::{ExprId, Label};
use stcfa_server::Json;

use crate::pool::{Consumers, Reference};
use crate::workload::{Op, Workload};

pub struct Checker<'a> {
    workload: Workload,
    refs: &'a [Reference],
    /// Consumer answers per pool program (`save-lint` only).
    consumers: Vec<Consumers>,
}

fn num(v: &Json, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response lacks integer `{field}`"))
}

fn indices(v: &Json, field: &str) -> Result<Vec<u64>, String> {
    v.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("response lacks array `{field}`"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| format!("`{field}` holds a non-index"))
        })
        .collect()
}

fn label_indices(labels: &[Label]) -> Vec<u64> {
    labels.iter().map(|l| l.index() as u64).collect()
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: daemon answered {got:?}, reference {want:?}"
        ))
    }
}

impl<'a> Checker<'a> {
    pub fn new(workload: Workload, refs: &'a [Reference]) -> Checker<'a> {
        let consumers = if workload == Workload::SaveLint {
            refs.iter().map(Reference::consumers).collect()
        } else {
            Vec::new()
        };
        Checker {
            workload,
            refs,
            consumers,
        }
    }

    /// Checks the response to request `i` of `op`: status and id always,
    /// and the answer itself for every op that names a pool program.
    pub fn check(&self, op: &Op, i: usize, response: &str) -> Result<(), String> {
        status(op, i, response)?;
        if self.workload == Workload::EditSession {
            // Session answers are checked against a whole-program
            // analysis in the traced run.
            return Ok(());
        }
        let request = Json::parse(&op.lines[i]).map_err(|e| format!("request: {e}"))?;
        let response = Json::parse(response).map_err(|e| format!("response: {e}"))?;
        let result = response
            .get("result")
            .ok_or("ok response without `result`")?;
        self.check_result(&request, result, op.progs[i])
            .map_err(|e| format!("request {}: {e}", op.first_id + i as u64))
    }

    fn check_result(&self, request: &Json, result: &Json, prog: usize) -> Result<(), String> {
        let r = &self.refs[prog];
        let expr = |field: &str| -> Result<ExprId, String> {
            Ok(ExprId::from_index(num(request, field)? as usize))
        };
        let label =
            || -> Result<Label, String> { Ok(Label::from_index(num(request, "label")? as usize)) };
        match request.get("op").and_then(Json::as_str) {
            Some("analyze") => {
                expect_eq("analyze counts", analyze_counts(result), r.analyze_counts())?;
                expect_eq(
                    "cached",
                    result.get("cached").and_then(Json::as_bool),
                    Some(self.workload.expects_cached()),
                )
            }
            Some("query") => {
                let kind = request.get("kind").and_then(Json::as_str);
                let graded = request.get("precision").is_some();
                match kind {
                    Some("label-set") => {
                        let e = match request.get("expr") {
                            Some(_) => expr("expr")?,
                            None => r.program.root(),
                        };
                        expect_eq(
                            "label-set",
                            indices(result, "labels")?,
                            label_indices(&r.engine.labels_of(e)),
                        )
                    }
                    Some("call-targets") => {
                        let tier0 = r
                            .engine
                            .call_targets(&r.program, expr("site")?)
                            .ok_or("call-targets site is not an application")?;
                        let got = indices(result, "labels")?;
                        let tier0 = label_indices(&tier0);
                        if graded {
                            match got.iter().find(|l| !tier0.contains(l)) {
                                Some(l) => Err(format!("graded label {l} is not in Tier 0")),
                                None => Ok(()),
                            }
                        } else {
                            expect_eq("call-targets", got, tier0)
                        }
                    }
                    Some("occurrences") => expect_eq(
                        "occurrences",
                        indices(result, "exprs")?,
                        r.engine
                            .exprs_with_label(label()?)
                            .iter()
                            .map(|e| e.index() as u64)
                            .collect(),
                    ),
                    Some("reachability") => expect_eq(
                        "reachability",
                        result.get("reaches").and_then(Json::as_bool),
                        Some(r.engine.label_reaches(expr("expr")?, label()?)),
                    ),
                    other => Err(format!("unexpected query kind {other:?}")),
                }
            }
            Some("lint") => expect_eq(
                "lint diagnostics",
                num(result, "count")? as usize,
                self.consumers[prog].diagnostics,
            ),
            Some("rule") => expect_eq(
                "tainted expressions",
                indices(result, "tainted")?.len(),
                self.consumers[prog].tainted,
            ),
            Some("opt") => expect_eq(
                "opt (rounds, performed)",
                (
                    num(result, "rounds")? as usize,
                    num(result, "performed")? as usize,
                ),
                (
                    self.consumers[prog].opt_rounds,
                    self.consumers[prog].opt_performed,
                ),
            ),
            other => Err(format!("unexpected op {other:?}")),
        }
    }
}

/// The counts an `analyze` result carries, in the order of
/// [`Reference::analyze_counts`]; a missing count reads as `u64::MAX`.
pub fn analyze_counts(result: &Json) -> [u64; 5] {
    ["exprs", "labels", "nodes", "edges", "comps"]
        .map(|k| result.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX))
}

/// Checks that the response to request `i` of `op` succeeded and carries
/// that request's id: the check every response gets.
pub fn status(op: &Op, i: usize, response: &str) -> Result<(), String> {
    if response.starts_with(&op.ok_prefix(i)) {
        Ok(())
    } else {
        Err(format!(
            "request {} failed or came out of order: {}",
            op.first_id + i as u64,
            truncate(response)
        ))
    }
}

/// A response cut to a readable length for error messages.
pub fn truncate(line: &str) -> String {
    match line.char_indices().nth(200) {
        Some((at, _)) => format!("{}…", &line[..at]),
        None => line.to_owned(),
    }
}
