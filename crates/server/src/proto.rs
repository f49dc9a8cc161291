//! The versioned, line-delimited request/response protocol.
//!
//! One request per line, one response line per request, always in request
//! order. Every request is a JSON object:
//!
//! ```text
//! {"v":1,"id":7,"op":"analyze","source":"fun id x = x;","policy":"c1"}
//! ```
//!
//! - `v` (optional) — protocol version. Version 1 carries the stateless
//!   ops; version 2 adds the stateful `session/*` ops (which *require*
//!   `"v":2`). Any other version is rejected with a `proto` error.
//! - `id` (optional) — any JSON value; echoed verbatim in the response.
//! - `op` (required) — one of `analyze`, `query`, `lint`, `evict`,
//!   `stats`, `shutdown` (v1), or `rule`, `opt`, `session/open`,
//!   `session/update`, `session/query`, `session/lint`, `session/close`
//!   (v2).
//! - `deadline_ms` (optional) — per-request deadline, measured from the
//!   moment the daemon read the line. A request that exceeds it is
//!   answered with a structured `timeout` error; the daemon keeps
//!   serving.
//!
//! Responses are `{"v":V,"id":…,"ok":true,"result":{…}}` on success and
//! `{"v":V,"id":…,"ok":false,"error":{"kind":…,"message":…}}` on failure,
//! where `V` echoes the version the request was handled under — v1
//! transcripts are byte-for-byte what they were before v2 existed.
//! Errors never terminate the connection or the daemon; `shutdown` is the
//! only way to stop it from the protocol. See `docs/SERVER.md` and
//! `docs/SESSIONS.md` for the full op reference.

use std::time::{Duration, Instant};

use stcfa_core::DatatypePolicy;
use stcfa_devkit::json::Json;

/// The baseline protocol version (stateless ops).
pub const PROTOCOL_VERSION: u64 = 1;

/// The session protocol version: adds the stateful `session/*` ops.
pub const PROTOCOL_VERSION_SESSION: u64 = 2;

/// Structured error classes. The string form is part of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, unknown op/field values, bad parameters.
    Proto,
    /// The submitted source failed to parse.
    Parse,
    /// The analysis refused the program (e.g. node-budget exceeded on an
    /// unbounded-type program).
    Analysis,
    /// A snapshot digest this store has never seen.
    UnknownSnapshot,
    /// A snapshot digest that was cached once and has since been evicted
    /// or invalidated.
    StaleSnapshot,
    /// The request exceeded its `deadline_ms`.
    Timeout,
    /// The digest is pinned by an open session: `evict` refuses to
    /// tombstone it out from under the session.
    PinnedSnapshot,
    /// A `session/*` op named a session id that is not open.
    UnknownSession,
    /// Admission control shed the request: the fleet's global in-flight
    /// cap was reached. The request was *not* executed; the client may
    /// retry after draining its pipeline. Transcript position is
    /// preserved — the rejection is the response for that line.
    Overloaded,
}

impl ErrorKind {
    /// The wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Proto => "proto",
            ErrorKind::Parse => "parse",
            ErrorKind::Analysis => "analysis",
            ErrorKind::UnknownSnapshot => "unknown-snapshot",
            ErrorKind::StaleSnapshot => "stale-snapshot",
            ErrorKind::Timeout => "timeout",
            ErrorKind::PinnedSnapshot => "pinned-snapshot",
            ErrorKind::UnknownSession => "unknown-session",
            ErrorKind::Overloaded => "overloaded",
        }
    }
}

/// A request failure: kind plus human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// The structured class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    /// Shorthand constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> RequestError {
        RequestError {
            kind,
            message: message.into(),
        }
    }
}

/// The per-request deadline clock: started when the daemon read the
/// request line, checked at the request's work checkpoints.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    started: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    /// A deadline of `budget_ms` milliseconds starting at `started`
    /// (`None` = unlimited).
    pub fn new(started: Instant, budget_ms: Option<u64>) -> Deadline {
        Deadline {
            started,
            budget: budget_ms.map(Duration::from_millis),
        }
    }

    /// Errors with [`ErrorKind::Timeout`] if the budget is spent. Call at
    /// every checkpoint that precedes or follows substantial work.
    pub fn check(&self, at: &str) -> Result<(), RequestError> {
        match self.budget {
            Some(budget) if self.started.elapsed() > budget => Err(RequestError::new(
                ErrorKind::Timeout,
                format!(
                    "deadline of {} ms exceeded ({} ms elapsed, at {at})",
                    budget.as_millis(),
                    self.started.elapsed().as_millis()
                ),
            )),
            _ => Ok(()),
        }
    }
}

/// Maps the wire policy name to the core enum and its stable key
/// discriminant (part of the content address), both read from the
/// policy table on [`DatatypePolicy`].
pub fn parse_policy(name: &str) -> Option<(DatatypePolicy, u64)> {
    DatatypePolicy::from_name(name).map(|policy| (policy, policy.disc()))
}

/// Builds the success response line for `id`, under protocol version
/// `v` (the version the request was handled under).
pub fn ok_response(v: u64, id: Json, result: Json) -> Json {
    Json::obj(vec![
        ("v", Json::num(v)),
        ("id", id),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
}

/// Builds the failure response line for `id` under protocol version `v`.
pub fn err_response(v: u64, id: Json, error: &RequestError) -> Json {
    Json::obj(vec![
        ("v", Json::num(v)),
        ("id", id),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("kind", Json::str(error.kind.as_str())),
                ("message", Json::str(error.message.clone())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_zero_times_out_immediately() {
        let d = Deadline::new(Instant::now() - Duration::from_millis(1), Some(0));
        let err = d.check("start").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Timeout);
        assert!(err.message.contains("deadline of 0 ms"), "{}", err.message);
    }

    #[test]
    fn unlimited_deadline_never_fires() {
        let d = Deadline::new(Instant::now() - Duration::from_secs(3600), None);
        assert!(d.check("anywhere").is_ok());
    }

    #[test]
    fn response_shapes_are_canonical() {
        let ok = ok_response(
            PROTOCOL_VERSION,
            Json::num(3),
            Json::obj(vec![("x", Json::num(1))]),
        );
        assert_eq!(ok.to_line(), r#"{"v":1,"id":3,"ok":true,"result":{"x":1}}"#);
        let err = err_response(
            PROTOCOL_VERSION,
            Json::Null,
            &RequestError::new(ErrorKind::Timeout, "late"),
        );
        assert_eq!(
            err.to_line(),
            r#"{"v":1,"id":null,"ok":false,"error":{"kind":"timeout","message":"late"}}"#
        );
        let v2 = ok_response(
            PROTOCOL_VERSION_SESSION,
            Json::num(4),
            Json::obj(vec![("closed", Json::Bool(true))]),
        );
        assert_eq!(
            v2.to_line(),
            r#"{"v":2,"id":4,"ok":true,"result":{"closed":true}}"#
        );
    }

    #[test]
    fn new_error_kinds_have_stable_wire_forms() {
        assert_eq!(ErrorKind::PinnedSnapshot.as_str(), "pinned-snapshot");
        assert_eq!(ErrorKind::UnknownSession.as_str(), "unknown-session");
    }

    #[test]
    fn policy_names_map_to_stable_discriminants() {
        assert_eq!(parse_policy("c1").unwrap().1, 0);
        assert_eq!(parse_policy("c2").unwrap().1, 1);
        assert_eq!(parse_policy("exact").unwrap().1, 2);
        assert_eq!(parse_policy("forget").unwrap().1, 3);
        assert!(parse_policy("c3").is_none());
        // The persisted discriminants invert exactly.
        for name in ["c1", "c2", "exact", "forget"] {
            let (policy, disc) = parse_policy(name).unwrap();
            assert_eq!(DatatypePolicy::from_disc(disc), Some(policy), "{name}");
            assert_eq!((policy.name(), policy.disc()), (name, disc));
        }
        assert_eq!(DatatypePolicy::from_disc(4), None);
    }
}
