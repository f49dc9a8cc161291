//! Diagnostic renderers: human-readable text and machine-readable JSON.
//!
//! Both renderers are pure functions of the diagnostic list, so output is
//! byte-identical whenever the diagnostics are — the determinism tests
//! compare rendered bytes across thread counts.

use std::fmt::Write as _;

use stcfa_devkit::json::Json;

use crate::diag::Diagnostic;

/// Renders one line per diagnostic:
///
/// ```text
/// 3:12: warning[STCFA004]: parameter `b` is never used
/// ```
///
/// Diagnostics without a span (builder-constructed programs) render the
/// occurrence id in place of `line:col`.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        match d.span {
            Some(s) => {
                let _ = write!(out, "{}:{}", s.start.line, s.start.col);
            }
            None => {
                let _ = write!(out, "e{}", d.expr.index());
            }
        }
        let _ = writeln!(out, ": {}[{}]: {}", d.severity, d.code, d.message);
    }
    out
}

impl Diagnostic {
    /// The diagnostic as one JSON object, in stable key order:
    ///
    /// ```json
    /// {"code":"STCFA004","severity":"warning","confidence":"proven","fixable":true,"expr":7,"span":{"line":3,"col":12,"end_line":3,"end_col":13},"message":"parameter `b` is never used"}
    /// ```
    ///
    /// `span` is `null` when the program carries no source positions.
    /// `confidence` is `"proven"` when the finding holds under full cubic
    /// CFA (oracle-confirmed, syntactic, or certified by the degradation
    /// detector) and `"likely"` otherwise — see
    /// [`Confidence`](crate::diag::Confidence). `fixable` appears (always
    /// `true`) exactly on the findings a `stcfa opt` pass can act on — see
    /// [`RuleCode::fixable`](crate::diag::RuleCode::fixable). The daemon's
    /// `lint` answers carry these objects, with a `module` field appended
    /// in sessions.
    pub fn to_json(&self) -> Json {
        let span = match self.span {
            None => Json::Null,
            Some(s) => Json::obj(vec![
                ("line", Json::num(s.start.line.into())),
                ("col", Json::num(s.start.col.into())),
                ("end_line", Json::num(s.end.line.into())),
                ("end_col", Json::num(s.end.col.into())),
            ]),
        };
        let mut pairs = vec![
            ("code", Json::str(self.code.as_str())),
            ("severity", Json::str(self.severity.as_str())),
            ("confidence", Json::str(self.confidence.as_str())),
        ];
        if self.code.fixable() {
            pairs.push(("fixable", Json::Bool(true)));
        }
        pairs.extend([
            ("expr", Json::num(self.expr.index() as u64)),
            ("span", span),
            ("message", Json::str(self.message.as_str())),
        ]);
        Json::obj(pairs)
    }
}

/// Renders the diagnostics as a JSON array of [`Diagnostic::to_json`]
/// objects, one per line, terminated by a newline:
///
/// ```json
/// [
///   {"code":"STCFA004","severity":"warning",…,"message":"parameter `b` is never used"}
/// ]
/// ```
pub fn render_json(diags: &[Diagnostic]) -> String {
    Json::Arr(diags.iter().map(Diagnostic::to_json).collect()).to_rows() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{RuleCode, Severity};
    use stcfa_lambda::ExprId;

    fn sample(span: Option<stcfa_lambda::Span>) -> Diagnostic {
        Diagnostic {
            code: RuleCode::UselessParameter,
            severity: Severity::Warning,
            confidence: crate::diag::Confidence::Proven,
            expr: ExprId::from_index(7),
            span,
            message: "parameter `b` is never used".to_string(),
        }
    }

    #[test]
    fn text_renders_position_or_expr_id() {
        let p = stcfa_lambda::Program::parse("fun konst a b = a; konst 1 2").unwrap();
        let lam = p
            .exprs()
            .find(|&e| matches!(p.kind(e), stcfa_lambda::ExprKind::Lam { .. }))
            .unwrap();
        let with_span = sample(p.span(lam));
        let text = render_text(&[with_span]);
        assert!(text.contains("warning[STCFA004]"), "{text}");
        assert!(text.starts_with(|c: char| c.is_ascii_digit()), "{text}");
        let text = render_text(&[sample(None)]);
        assert!(text.starts_with("e7: "), "{text}");
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut d = sample(None);
        d.message = "tricky \"quote\" and \\ backslash\nnewline".to_string();
        let json = render_json(&[d]);
        assert!(json.contains(r#"\"quote\""#), "{json}");
        assert!(json.contains(r#"\\ backslash\nnewline"#), "{json}");
        assert!(json.contains("\"span\":null"), "{json}");
        assert!(
            json.contains(
                "\"severity\":\"warning\",\"confidence\":\"proven\",\"fixable\":true,\"expr\":7"
            ),
            "{json}"
        );
        assert!(json.ends_with("]\n"), "{json}");
        assert_eq!(render_json(&[]), "[]\n");
    }
}
