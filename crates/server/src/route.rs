//! The event loop's one pass over a request line: how to dispatch it.
//!
//! The loop runs on a single thread for every connection, so what it
//! reads of a line is paid once per request on the daemon's one serial
//! path. [`Route::of`] walks the line's top-level members once
//! ([`stcfa_devkit::json::members`]: string values skipped eight bytes
//! per step, nested values by a bracket count) and takes from the first
//! member of each name — the one [`Json::get`](stcfa_devkit::json::Json::get)
//! returns — everything dispatch needs:
//!
//! - whether the line must run in stream order (its `op` is `evict` or a
//!   `session/*` op);
//! - the shard affinity: a valid `snapshot` handle, else a hash of the
//!   `session` id, else the key of the inline `source`;
//! - that source key itself, computed by decoding the literal straight
//!   into the hash, so a worker that finds the snapshot cached never
//!   hashes the source again.
//!
//! The key has to be exact, not a hint: it is what keeps an inline-source
//! `analyze` on the same shard queue as the `snapshot` queries pipelined
//! behind it, so they cannot overtake it. A line that `Json::parse`
//! rejects may route anywhere, since it is answered with an error on any
//! shard.

use std::borrow::Cow;

use stcfa_devkit::hash::Fnv1a;
use stcfa_devkit::json::{members, RawStr};

use crate::cache::SnapshotKey;
use crate::proto::parse_policy;
use crate::server::ENGINE_SUB;

/// How one request line is dispatched, read from the line in one scan by
/// [`Route::of`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Route {
    /// The line must execute in stream order: its `op` is `evict`, which
    /// observes session pins, or a stateful `session/*` op.
    pub ordered: bool,
    /// The shard routing digest: the snapshot handle, the session-id hash
    /// or the source key, in that precedence; `0` (round-robin) when the
    /// line has none.
    pub affinity: u64,
    /// The snapshot key of the line's inline `source` under its `policy`
    /// (`c1` when absent or not a string), exactly as the worker would
    /// derive it; `None` without a string `source` or with an unknown
    /// policy.
    pub source_key: Option<SnapshotKey>,
}

impl Route {
    /// Routes one request line in a single scan. Allocates nothing but
    /// the decoded text of an escaped member name or short value, never
    /// panics, and takes time linear in the line, JSON or not.
    pub fn of(line: &str) -> Route {
        // The first member of each name, and its string literal if the
        // value is a string.
        let mut op = None;
        let mut snapshot = None;
        let mut session = None;
        let mut source = None;
        let mut policy = None;
        for (name, value) in members(line) {
            let Some(name) = name.decode() else { break };
            let slot = match &*name {
                "op" => &mut op,
                "snapshot" => &mut snapshot,
                "session" => &mut session,
                "source" => &mut source,
                "policy" => &mut policy,
                _ => continue,
            };
            slot.get_or_insert(value);
        }
        let ordered = decoded(op).is_some_and(|op| op == "evict" || op.starts_with("session/"));
        let policy_disc = match policy.flatten() {
            None => parse_policy("c1").map(|(_, disc)| disc),
            Some(name) => name
                .decode()
                .and_then(|name| parse_policy(&name))
                .map(|(_, disc)| disc),
        };
        let source_key = source
            .flatten()
            .zip(policy_disc)
            .and_then(|(source, disc)| SnapshotKey::derive_literal(source, disc, ENGINE_SUB));
        let affinity = decoded(snapshot)
            .and_then(|hex| SnapshotKey::from_hex(&hex))
            .map(|key| key.0)
            .or_else(|| decoded(session).map(|id| Fnv1a::digest_parts(id.as_bytes(), &[u64::MAX])))
            .or(source_key.map(|key| key.0))
            .unwrap_or(0);
        Route {
            ordered,
            affinity,
            source_key,
        }
    }
}

/// The decoded text of a member's value, when it is a string that
/// decodes.
fn decoded(member: Option<Option<RawStr<'_>>>) -> Option<Cow<'_, str>> {
    member.flatten().and_then(|value| value.decode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_marker_inside_a_source_does_not_order_the_line() {
        let line = r#"{"op":"query","kind":"label-set","source":"(* \"session/x\" *) fn x => x"}"#;
        assert!(!Route::of(line).ordered);
        let line = r#"{"op":"query","source":"(* \"evict\" *) 1","meta":{"op":"evict"}}"#;
        assert!(!Route::of(line).ordered);
        for op in [
            "evict",
            "session/open",
            "session/anything",
            "sessio\\u006e/close",
        ] {
            let line = format!(r#"{{"id":1,"op":"{op}","session":"w"}}"#);
            assert!(Route::of(&line).ordered, "{line}");
        }
        for op in ["evicted", "session", "sessions/open", "query"] {
            let line = format!(r#"{{"op":"{op}"}}"#);
            assert!(!Route::of(&line).ordered, "{line}");
        }
    }

    #[test]
    fn pathological_lines_route_in_linear_time_without_recursion() {
        // Deep nesting, long escape runs and unterminated literals: each
        // must come back at once, with no stack growth per level.
        let deep = format!(r#"{{"a":{}"#, "[".repeat(1 << 20));
        assert_eq!(Route::of(&deep), Route::default());
        let nested = format!(
            r#"{{"a":{}1{},"op":"evict"}}"#,
            "[".repeat(1 << 20),
            "]".repeat(1 << 20)
        );
        assert!(Route::of(&nested).ordered);
        let escapes = format!(r#"{{"source":"{}","op":"evict"}}"#, "\\\"".repeat(1 << 20));
        let route = Route::of(&escapes);
        assert!(route.ordered);
        assert_eq!(
            route.source_key,
            Some(SnapshotKey::derive(&"\"".repeat(1 << 20), 0, ENGINE_SUB))
        );
        for cut in [
            "{\"source\":\"abc",
            "{\"source\":\"abc\\",
            "{\"op\"",
            "{",
            "",
            "\"x\"",
        ] {
            assert_eq!(Route::of(cut), Route::default(), "{cut:?}");
        }
    }
}
