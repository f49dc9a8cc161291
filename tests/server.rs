//! End-to-end tests of `stcfa serve` / `stcfa client`: the daemon is
//! exercised as a child process over its real transports.

use std::io::{BufRead, BufReader, Read as _, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

fn stcfa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stcfa"))
}

/// A `stcfa serve --stdio` child with line-oriented request/response
/// helpers. Dropping it without `shutdown` kills the child.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(threads: usize) -> Daemon {
        Daemon::spawn_with(threads, &[])
    }

    /// Like [`Daemon::spawn`] with extra `serve` flags (`--cache-dir …`).
    fn spawn_with(threads: usize, extra: &[&str]) -> Daemon {
        let mut child = stcfa()
            .args(["serve", "--stdio", "--threads", &threads.to_string()])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    /// Pipelines `input` down stdin and reads one response per line
    /// (see [`pipeline`]).
    fn pipelined(&mut self, input: &str, read_delay: Duration) -> Vec<String> {
        pipeline(
            self.stdin.as_mut().unwrap(),
            &mut self.stdout,
            input,
            read_delay,
        )
    }

    /// One sequential round-trip: send the line, read the one response.
    fn roundtrip(&mut self, request: &str) -> String {
        let stdin = self.stdin.as_mut().unwrap();
        writeln!(stdin, "{request}").unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).unwrap();
        assert!(n > 0, "daemon closed its stdout mid-conversation");
        line.trim_end().to_owned()
    }

    /// Sends `shutdown`, expects the confirmation, and waits for a clean
    /// exit.
    fn shutdown(self) {
        self.shutdown_stderr();
    }

    /// [`Daemon::shutdown`], returning everything the daemon wrote to
    /// stderr (the `cache-corrupt` log lines).
    fn shutdown_stderr(mut self) -> String {
        let bye = self.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains(r#""stopping":true"#), "{bye}");
        drop(self.stdin.take());
        let mut err = String::new();
        self.child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut err)
            .unwrap();
        let status = self.child.wait().unwrap();
        assert!(status.success(), "daemon exited {status}");
        err
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

const SRC: &str = "(fn x => x) (fn y => y)";

fn analyze(src: &str) -> String {
    format!(r#"{{"op":"analyze","source":"{src}"}}"#)
}

/// Pulls `"field":<value up to the next comma/brace>` out of a response
/// line — enough structure inspection for these tests without a parser.
fn field<'a>(line: &'a str, name: &str) -> &'a str {
    let pat = format!(r#""{name}":"#);
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + pat.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .scan(0i32, |depth, (i, c)| {
            match c {
                '{' | '[' => *depth += 1,
                '}' | ']' if *depth == 0 => return Some(Some(i)),
                '}' | ']' => *depth -= 1,
                ',' if *depth == 0 => return Some(Some(i)),
                _ => {}
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn full_round_trip_over_stdio() {
    let mut d = Daemon::spawn(2);
    let a = d.roundtrip(&analyze(SRC));
    assert_eq!(field(&a, "ok"), "true", "{a}");
    assert_eq!(field(&a, "cached"), "false", "{a}");
    let digest = field(&a, "snapshot").trim_matches('"').to_owned();
    assert_eq!(digest.len(), 16, "{a}");

    let q = d.roundtrip(&format!(
        r#"{{"op":"query","kind":"label-set","snapshot":"{digest}"}}"#
    ));
    assert_eq!(field(&q, "count"), "1", "{q}");
    assert!(q.contains("λy#1"), "{q}");

    let ct = d.roundtrip(&format!(
        r#"{{"op":"query","kind":"call-targets","snapshot":"{digest}","site":4}}"#
    ));
    assert_eq!(field(&ct, "ok"), "true", "{ct}");

    let lint = d.roundtrip(&format!(r#"{{"op":"lint","snapshot":"{digest}"}}"#));
    assert_eq!(field(&lint, "ok"), "true", "{lint}");

    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "ok"), "true", "{stats}");
    assert_eq!(field(&stats, "entries"), "1", "{stats}");
    d.shutdown();
}

#[test]
fn warm_cache_never_rebuilds() {
    let mut d = Daemon::spawn(2);
    let first = d.roundtrip(&analyze(SRC));
    assert_eq!(field(&first, "cached"), "false", "{first}");
    // The same source again — and a query that names it inline — must both
    // be servable without a rebuild.
    let second = d.roundtrip(&analyze(SRC));
    assert_eq!(field(&second, "cached"), "true", "{second}");
    let q = d.roundtrip(&format!(
        r#"{{"op":"query","kind":"label-set","source":"{SRC}"}}"#
    ));
    assert_eq!(field(&q, "ok"), "true", "{q}");
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "misses"), "1", "one build total: {stats}");
    assert_eq!(field(&stats, "hits"), "2", "{stats}");
    d.shutdown();
}

#[test]
fn responses_are_byte_identical_across_thread_counts() {
    // The same conversation, replayed sequentially against daemons with
    // different worker counts, must produce byte-identical transcripts
    // (`stats` is excluded: its timing counters are wall-clock).
    let conversation = [
        analyze(SRC),
        analyze("fun id x = x; id (fn u => u)"),
        analyze(SRC), // warm: cached:true, deterministic in sequential replay
        format!(r#"{{"id":7,"op":"query","kind":"label-set","source":"{SRC}"}}"#),
        format!(r#"{{"id":8,"op":"query","kind":"occurrences","source":"{SRC}","label":1}}"#),
        format!(
            r#"{{"id":9,"op":"query","kind":"reachability","source":"{SRC}","expr":0,"label":1}}"#
        ),
        format!(r#"{{"id":10,"op":"lint","source":"{SRC}"}}"#),
        r#"{"id":11,"op":"frobnicate"}"#.to_owned(),
        r#"not json at all"#.to_owned(),
    ];
    let mut transcripts = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut d = Daemon::spawn(threads);
        let transcript: Vec<String> = conversation.iter().map(|req| d.roundtrip(req)).collect();
        d.shutdown();
        transcripts.push((threads, transcript));
    }
    let (_, reference) = &transcripts[0];
    for (threads, transcript) in &transcripts[1..] {
        assert_eq!(
            transcript, reference,
            "transcript diverged at --threads {threads}"
        );
    }
}

#[test]
fn deadline_exceeded_is_structured_and_daemon_survives() {
    let mut d = Daemon::spawn(1);
    let late = d.roundtrip(&format!(
        r#"{{"op":"analyze","source":"{SRC}","deadline_ms":0}}"#
    ));
    assert_eq!(field(&late, "ok"), "false", "{late}");
    assert_eq!(field(&late, "kind"), r#""timeout""#, "{late}");
    assert!(late.contains("deadline of 0 ms exceeded"), "{late}");
    // The daemon keeps serving: same request without the deadline is fine.
    let ok = d.roundtrip(&analyze(SRC));
    assert_eq!(field(&ok, "ok"), "true", "{ok}");
    d.shutdown();
}

#[test]
fn request_errors_never_kill_the_daemon() {
    let mut d = Daemon::spawn(2);
    for (request, kind) in [
        ("{ not json", r#""proto""#),
        (r#"{"op":"analyze","source":"fn x =>"}"#, r#""parse""#),
        (
            r#"{"op":"analyze","source":"(fn x => x x) (fn x => x x)"}"#,
            r#""analysis""#,
        ),
        (
            r#"{"op":"query","kind":"label-set","snapshot":"0123456789abcdef"}"#,
            r#""unknown-snapshot""#,
        ),
        (r#"{"v":99,"op":"stats"}"#, r#""proto""#),
    ] {
        let r = d.roundtrip(request);
        assert_eq!(field(&r, "ok"), "false", "{r}");
        assert_eq!(field(&r, "kind"), kind, "{r}");
    }
    let ok = d.roundtrip(&analyze(SRC));
    assert_eq!(field(&ok, "ok"), "true", "{ok}");
    d.shutdown();
}

/// Source nested past the parser's limit is a structured `parse` error,
/// never a dead daemon: every open connection and session survives it.
#[test]
fn deeply_nested_source_is_a_parse_error_and_the_daemon_survives() {
    for depth in [2_000usize, 100_000] {
        let source = format!("{}fn x => x{}", "(".repeat(depth), ")".repeat(depth));
        let input = format!(
            "{{\"id\":1,\"op\":\"analyze\",\"source\":\"{source}\"}}\n{}\n",
            r#"{"id":2,"op":"stats"}"#
        );
        let mut child = stcfa()
            .args(["serve", "--stdio", "--threads", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let mut output = String::new();
        child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut output)
            .unwrap();
        let status = child.wait().unwrap();
        assert!(status.success(), "depth {depth}: daemon exited {status}");
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 2, "depth {depth}: {output}");
        assert_eq!(field(lines[0], "ok"), "false", "{}", lines[0]);
        assert_eq!(field(lines[0], "kind"), r#""parse""#, "{}", lines[0]);
        assert!(
            lines[0].contains("nests deeper than the limit"),
            "{}",
            lines[0]
        );
        assert_eq!(field(lines[1], "ok"), "true", "{}", lines[1]);
        assert!(lines[1].contains(r#""analysis":{"#), "{}", lines[1]);
    }
}

/// Source at the parser's limits runs `analyze`, `lint` and `opt --emit`
/// on a daemon worker, in the shapes that cost the most stack per level:
/// the worker's stack covers the deepest input the parser accepts, in
/// this (debug) build as in a release build.
#[test]
fn source_at_the_nesting_limits_runs_on_a_daemon_worker() {
    use stcfa::lambda::parser::{MAX_HEIGHT, MAX_NESTING};
    let nots = |n: usize| format!("{}true", "not ".repeat(n));
    let shapes = [
        (
            "let",
            format!(
                "{}x{}",
                "let val x = 1 in ".repeat(MAX_NESTING - 2),
                " end".repeat(MAX_NESTING - 2)
            ),
        ),
        (
            "record",
            format!(
                "{}1{}",
                "(1, ".repeat(MAX_NESTING / 2 - 1),
                ")".repeat(MAX_NESTING / 2 - 1)
            ),
        ),
        ("not", nots(MAX_NESTING - 2)),
        (
            "if",
            format!("{}1", "if true then 1 else ".repeat(MAX_NESTING - 2)),
        ),
        // A declaration chain over a `not` chain at the nesting limit.
        (
            "vals+not",
            format!(
                "{}{}",
                "val x = 1; ".repeat(MAX_HEIGHT - MAX_NESTING + 1),
                nots(MAX_NESTING - 2)
            ),
        ),
    ];
    let mut d = Daemon::spawn(2);
    for (shape, source) in shapes {
        for request in [
            format!(r#"{{"op":"analyze","source":"{source}"}}"#),
            format!(r#"{{"op":"lint","source":"{source}"}}"#),
            format!(r#"{{"v":2,"op":"opt","source":"{source}","emit":true}}"#),
        ] {
            let response = d.roundtrip(&request);
            assert_eq!(
                field(&response, "ok"),
                "true",
                "{shape}: {}",
                &response[..response.len().min(200)]
            );
        }
    }
    d.shutdown();
}

#[test]
fn invalidated_snapshot_is_stale_until_reanalyzed() {
    let mut d = Daemon::spawn(2);
    let a = d.roundtrip(&analyze(SRC));
    let digest = field(&a, "snapshot").trim_matches('"').to_owned();
    let e = d.roundtrip(&format!(r#"{{"op":"evict","snapshot":"{digest}"}}"#));
    assert_eq!(field(&e, "evicted"), "true", "{e}");
    let stale = d.roundtrip(&format!(
        r#"{{"op":"query","kind":"label-set","snapshot":"{digest}"}}"#
    ));
    assert_eq!(field(&stale, "kind"), r#""stale-snapshot""#, "{stale}");
    // Re-analyzing the same content re-validates the same digest.
    let again = d.roundtrip(&analyze(SRC));
    assert_eq!(
        field(&again, "snapshot").trim_matches('"'),
        digest,
        "{again}"
    );
    assert_eq!(
        field(&again, "cached"),
        "false",
        "rebuilt after invalidation: {again}"
    );
    let fresh = d.roundtrip(&format!(
        r#"{{"op":"query","kind":"label-set","snapshot":"{digest}"}}"#
    ));
    assert_eq!(field(&fresh, "ok"), "true", "{fresh}");
    d.shutdown();
}

#[test]
fn tcp_transport_and_client_helper() {
    let mut server = stcfa()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The daemon announces the bound address on stderr.
    let mut stderr = BufReader::new(server.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line.trim().rsplit(' ').next().unwrap().to_owned();
    assert!(addr.contains(':'), "no address in {line:?}");

    let client = |request: &str| -> String {
        let out = stcfa()
            .args(["client", "--addr", &addr, "--request", request])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap().trim_end().to_owned()
    };
    let a = client(&analyze(SRC));
    assert_eq!(field(&a, "ok"), "true", "{a}");
    let digest = field(&a, "snapshot").trim_matches('"').to_owned();
    // A second connection hits the same daemon-wide cache.
    let b = client(&analyze(SRC));
    assert_eq!(field(&b, "cached"), "true", "{b}");
    let q = client(&format!(
        r#"{{"op":"query","kind":"label-set","snapshot":"{digest}"}}"#
    ));
    assert_eq!(field(&q, "ok"), "true", "{q}");
    let bye = client(r#"{"op":"shutdown"}"#);
    assert!(bye.contains(r#""stopping":true"#), "{bye}");
    let status = server.wait().unwrap();
    assert!(status.success(), "daemon exited {status}");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
}

#[test]
fn session_flow_over_stdio() {
    let mut d = Daemon::spawn(2);
    let open = d.roundtrip(
        r#"{"v":2,"id":1,"op":"session/open","session":"s1","modules":[{"name":"util","source":"fun id x = x;"},{"name":"main","source":"id (fn u => u)"}]}"#,
    );
    assert_eq!(field(&open, "ok"), "true", "{open}");
    assert_eq!(field(&open, "v"), "2", "{open}");
    assert_eq!(field(&open, "relinked"), "2", "{open}");
    let digest = field(&open, "digest").trim_matches('"').to_owned();
    assert_eq!(digest.len(), 16, "{open}");

    let q = d.roundtrip(r#"{"v":2,"id":2,"op":"session/query","session":"s1","kind":"label-set"}"#);
    assert_eq!(field(&q, "count"), "1", "{q}");

    // The open session pins its linked snapshot: `evict` must refuse
    // with the structured kind, and the session must keep serving.
    let pinned = d.roundtrip(&format!(
        r#"{{"v":2,"id":3,"op":"evict","snapshot":"{digest}"}}"#
    ));
    assert_eq!(field(&pinned, "ok"), "false", "{pinned}");
    assert_eq!(field(&pinned, "kind"), r#""pinned-snapshot""#, "{pinned}");

    // The stats report covers the session/pinning fields (the cache
    // byte budget, tombstone count, and open-session pin count).
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "protocol"), "2", "{stats}");
    assert_eq!(field(&stats, "sessions"), "1", "{stats}");
    assert_eq!(field(&stats, "pinned"), "1", "{stats}");
    assert_eq!(field(&stats, "tombstones"), "0", "{stats}");
    assert!(
        field(&stats, "capacity_bytes").parse::<u64>().unwrap() > 0,
        "{stats}"
    );

    // Hot reload: updating one module reuses the other verbatim — same
    // per-module generation — and re-pins under the new digest.
    let update = d.roundtrip(
        r#"{"v":2,"id":4,"op":"session/update","session":"s1","modules":[{"name":"main","source":"id (fn v => v)"}]}"#,
    );
    assert_eq!(field(&update, "ok"), "true", "{update}");
    assert_eq!(field(&update, "reused"), "1", "{update}");
    assert_eq!(field(&update, "relinked"), "1", "{update}");
    let new_digest = field(&update, "digest").trim_matches('"').to_owned();
    assert_ne!(new_digest, digest, "{update}");
    let (open_mods, update_mods) = (field(&open, "modules"), field(&update, "modules"));
    assert_eq!(
        field(update_mods, "generation"),
        field(open_mods, "generation"),
        "unchanged `util` must keep its generation: {update}"
    );
    assert_eq!(field(update_mods, "reused"), "true", "{update}");

    let q2 =
        d.roundtrip(r#"{"v":2,"id":5,"op":"session/query","session":"s1","kind":"label-set"}"#);
    assert_eq!(field(&q2, "count"), "1", "{q2}");

    // The superseded snapshot is unpinned — evicting it now succeeds
    // and leaves a tombstone.
    let gone = d.roundtrip(&format!(r#"{{"op":"evict","snapshot":"{digest}"}}"#));
    assert_eq!(field(&gone, "evicted"), "true", "{gone}");
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "tombstones"), "1", "{stats}");
    assert_eq!(field(&stats, "pinned"), "1", "{stats}");

    // Closing unpins; the linked snapshot then evicts like any other.
    let close = d.roundtrip(r#"{"v":2,"op":"session/close","session":"s1"}"#);
    assert_eq!(field(&close, "closed"), "true", "{close}");
    let evict = d.roundtrip(&format!(r#"{{"op":"evict","snapshot":"{new_digest}"}}"#));
    assert_eq!(field(&evict, "evicted"), "true", "{evict}");
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "sessions"), "0", "{stats}");
    assert_eq!(field(&stats, "pinned"), "0", "{stats}");
    d.shutdown();
}

#[test]
fn session_transcripts_are_byte_identical_across_thread_counts() {
    // The whole v2 conversation is piped in one write and stdin closed —
    // the pipelined path, where worker scheduling could reorder effects —
    // and the transcript must still be byte-identical at every worker
    // count (session ops are sequenced by the server's order gate).
    let input = session_batch();
    let mut transcripts = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut child = stcfa()
            .args(["serve", "--stdio", "--threads", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let mut output = String::new();
        child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut output)
            .unwrap();
        assert!(child.wait().unwrap().success());
        assert_eq!(output.lines().count(), 10, "--threads {threads}: {output}");
        assert!(
            output.contains(r#""kind":"unknown-session""#),
            "--threads {threads}: {output}"
        );
        transcripts.push((threads, output));
    }
    let (_, reference) = &transcripts[0];
    for (threads, transcript) in &transcripts[1..] {
        assert_eq!(
            transcript, reference,
            "session transcript diverged at --threads {threads}"
        );
    }
}

/// A scratch cache directory, cleared at the start of the test that owns
/// it (not at the end: failures leave the evidence on disk).
fn cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stcfa-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The read-side conversation replayed against cold and warm daemons: all
/// four query kinds plus a lint, with fixed ids so the transcripts are
/// comparable byte for byte.
fn query_conversation() -> Vec<String> {
    vec![
        format!(r#"{{"id":1,"op":"query","kind":"label-set","source":"{SRC}"}}"#),
        format!(r#"{{"id":2,"op":"query","kind":"occurrences","source":"{SRC}","label":1}}"#),
        format!(
            r#"{{"id":3,"op":"query","kind":"reachability","source":"{SRC}","expr":0,"label":1}}"#
        ),
        format!(r#"{{"id":4,"op":"query","kind":"call-targets","source":"{SRC}","site":4}}"#),
        format!(r#"{{"id":5,"op":"lint","source":"{SRC}"}}"#),
    ]
}

#[test]
fn restarted_daemon_warms_from_disk_with_identical_answers() {
    let dir = cache_dir("restart");
    let flags = ["--cache-dir", dir.to_str().unwrap()];

    // Cold daemon: builds once, persists, answers the conversation.
    let mut cold = Daemon::spawn_with(2, &flags);
    let a = cold.roundtrip(&analyze(SRC));
    assert_eq!(field(&a, "cached"), "false", "{a}");
    let digest = field(&a, "snapshot").trim_matches('"').to_owned();
    let cold_lines: Vec<String> = query_conversation()
        .iter()
        .map(|req| cold.roundtrip(req))
        .collect();
    let stats = cold.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "misses"), "1", "{stats}");
    assert_eq!(field(&stats, "disk"), "true", "{stats}");
    assert_eq!(field(&stats, "disk_writes"), "1", "{stats}");
    assert_eq!(field(&stats, "disk_hits"), "0", "{stats}");
    cold.shutdown();
    assert!(
        dir.join(format!("{digest}.stcfa")).is_file(),
        "snapshot not persisted under {digest}"
    );

    // Restarted daemon: the same analyze is answered from disk — no
    // build — and the whole conversation is byte-identical.
    let mut warm = Daemon::spawn_with(2, &flags);
    let b = warm.roundtrip(&analyze(SRC));
    assert_eq!(field(&b, "cached"), "true", "warm restart rebuilt: {b}");
    assert_eq!(field(&b, "snapshot").trim_matches('"'), digest, "{b}");
    let warm_lines: Vec<String> = query_conversation()
        .iter()
        .map(|req| warm.roundtrip(req))
        .collect();
    assert_eq!(warm_lines, cold_lines, "warm answers diverged from cold");
    let stats = warm.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "misses"), "0", "warm daemon built: {stats}");
    assert_eq!(field(&stats, "disk_hits"), "1", "{stats}");
    assert_eq!(field(&stats, "disk_corrupt"), "0", "{stats}");
    warm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_session_warms_from_disk_without_relinking_the_engine() {
    let dir = cache_dir("session-restart");
    let flags = ["--cache-dir", dir.to_str().unwrap()];
    let open = r#"{"v":2,"id":1,"op":"session/open","session":"s","modules":[{"name":"util","source":"fun id x = x;"},{"name":"main","source":"id (fn u => u)"}]}"#;
    let queries = [
        r#"{"v":2,"id":2,"op":"session/query","session":"s","kind":"label-set"}"#,
        r#"{"v":2,"id":3,"op":"session/query","session":"s","kind":"label-set","precision":true}"#,
        r#"{"v":2,"id":4,"op":"session/lint","session":"s"}"#,
    ];

    // First daemon generation: links, persists the linked snapshot, and
    // answers the conversation.
    let mut cold = Daemon::spawn_with(2, &flags);
    let a = cold.roundtrip(open);
    assert_eq!(field(&a, "ok"), "true", "{a}");
    assert_eq!(field(&a, "cached"), "false", "{a}");
    let digest = field(&a, "digest").trim_matches('"').to_owned();
    let cold_lines: Vec<String> = queries.iter().map(|req| cold.roundtrip(req)).collect();
    let stats = cold.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "misses"), "1", "{stats}");
    assert_eq!(field(&stats, "disk_writes"), "1", "{stats}");
    cold.shutdown();
    assert!(
        dir.join(format!("{digest}.stcfa")).is_file(),
        "linked snapshot not persisted under {digest}"
    );

    // Restarted daemon: `session/open` on the same workspace digest must
    // warm-load the engine from disk — zero rebuilds — and the whole
    // conversation (precision grades included) is byte-identical.
    let mut warm = Daemon::spawn_with(2, &flags);
    let b = warm.roundtrip(open);
    assert_eq!(field(&b, "cached"), "true", "warm reopen rebuilt: {b}");
    assert_eq!(field(&b, "digest").trim_matches('"'), digest, "{b}");
    let warm_lines: Vec<String> = queries.iter().map(|req| warm.roundtrip(req)).collect();
    assert_eq!(warm_lines, cold_lines, "warm answers diverged from cold");
    let stats = warm.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "misses"), "0", "warm daemon rebuilt: {stats}");
    assert_eq!(field(&stats, "disk_hits"), "1", "{stats}");
    assert_eq!(field(&stats, "disk_corrupt"), "0", "{stats}");

    // The warm session stays live: an update relinks only the edited
    // module, proving the reopened workspace is fully functional.
    let update = warm.roundtrip(
        r#"{"v":2,"id":9,"op":"session/update","session":"s","modules":[{"name":"main","source":"id (fn v => v)"}]}"#,
    );
    assert_eq!(field(&update, "ok"), "true", "{update}");
    assert_eq!(field(&update, "reused"), "1", "{update}");
    assert_eq!(field(&update, "relinked"), "1", "{update}");
    warm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_files_rebuild_cleanly_end_to_end() {
    let dir = cache_dir("corrupt");
    let flags = ["--cache-dir", dir.to_str().unwrap()];
    const OTHER: &str = "fun id x = x; id (fn u => u)";

    // Seed the tier with two digests and record the reference answer.
    let mut seed = Daemon::spawn_with(2, &flags);
    let a = seed.roundtrip(&analyze(SRC));
    let digest = field(&a, "snapshot").trim_matches('"').to_owned();
    let b = seed.roundtrip(&analyze(OTHER));
    let other_digest = field(&b, "snapshot").trim_matches('"').to_owned();
    let reference: Vec<String> = query_conversation()
        .iter()
        .map(|req| seed.roundtrip(req))
        .collect();
    seed.shutdown();
    let path = dir.join(format!("{digest}.stcfa"));
    let pristine = std::fs::read(&path).unwrap();

    type Corrupt = fn(&std::path::Path, &[u8], &std::path::Path);
    let corruptions: [(&str, Corrupt); 5] = [
        ("truncation", |p, bytes, _| {
            std::fs::write(p, &bytes[..bytes.len() / 2]).unwrap()
        }),
        ("bit-flip", |p, bytes, _| {
            let mut evil = bytes.to_vec();
            let mid = evil.len() / 2;
            evil[mid] ^= 0x10;
            std::fs::write(p, evil).unwrap();
        }),
        ("version-skew", |p, bytes, _| {
            let mut evil = bytes.to_vec();
            evil[8..12].copy_from_slice(&99u32.to_le_bytes());
            std::fs::write(p, evil).unwrap();
        }),
        ("zero-length", |p, _, _| std::fs::write(p, b"").unwrap()),
        // A self-consistent file copied over the wrong address.
        ("digest-mismatch", |p, _, other| {
            std::fs::copy(other, p).unwrap();
        }),
    ];

    for (name, corrupt) in corruptions {
        corrupt(&path, &pristine, &dir.join(format!("{other_digest}.stcfa")));
        let mut d = Daemon::spawn_with(2, &flags);
        // The corrupt file is detected, deleted, and rebuilt from source —
        // a structured fallback, not an error, not a wrong answer.
        let r = d.roundtrip(&analyze(SRC));
        assert_eq!(field(&r, "ok"), "true", "{name}: {r}");
        assert_eq!(
            field(&r, "cached"),
            "false",
            "{name} served corrupt data: {r}"
        );
        let answers: Vec<String> = query_conversation()
            .iter()
            .map(|req| d.roundtrip(req))
            .collect();
        assert_eq!(answers, reference, "{name}: answers diverged after rebuild");
        let stats = d.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(field(&stats, "disk_corrupt"), "1", "{name}: {stats}");
        assert_eq!(field(&stats, "misses"), "1", "{name}: {stats}");
        // The daemon keeps serving, and the rebuild re-persisted a good
        // copy (write-behind replacement).
        let again = d.roundtrip(&analyze(SRC));
        assert_eq!(field(&again, "cached"), "true", "{name}: {again}");
        let err = d.shutdown_stderr();
        assert!(
            err.contains(&format!("cache-corrupt digest={digest}")),
            "{name}: no structured log in {err:?}"
        );
        assert!(err.contains("action=rebuild"), "{name}: {err:?}");
        let healed = std::fs::read(&path).unwrap();
        assert_eq!(healed, pristine, "{name}: rebuild did not re-persist");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_pipeline_preserves_request_order() {
    // Not sequential round-trips: pipe a whole batch at once and close
    // stdin. Responses must come back in request order and all be served.
    let input = ordered_batch();
    for threads in [1usize, 8] {
        let mut child = stcfa()
            .args(["serve", "--stdio", "--threads", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let mut output = String::new();
        child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut output)
            .unwrap();
        assert!(child.wait().unwrap().success());
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 32, "--threads {threads}: {output}");
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(
                field(line, "id"),
                i.to_string(),
                "--threads {threads}: {line}"
            );
            assert_eq!(field(line, "ok"), "true", "--threads {threads}: {line}");
        }
    }
}

// --- the TCP fleet -------------------------------------------------------
//
// Everything below drives the nonblocking event-loop transport as a child
// process over real sockets: transcript invariance across shard/worker
// geometry, connection-level fault injection (mid-burst disconnect,
// half-written line, slow reader, overload shedding), the persist tier
// under concurrent connections, and the idle-CPU guarantee.

use std::net::TcpStream;
use std::process::ChildStderr;
use std::time::Duration;

/// A `stcfa serve --addr 127.0.0.1:0` child; the bound address is read
/// off stderr. Dropping it without `shutdown` kills the child.
struct TcpDaemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

impl TcpDaemon {
    fn spawn(extra: &[&str]) -> TcpDaemon {
        let mut child = stcfa()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr = line.trim().rsplit(' ').next().unwrap().to_owned();
        assert!(addr.contains(':'), "no bound address in {line:?}");
        TcpDaemon {
            child,
            stderr,
            addr,
        }
    }

    /// A fresh client connection with a hang-proof read timeout.
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        stream
    }

    /// One request, one response, over a throwaway connection.
    fn roundtrip(&self, request: &str) -> String {
        let stream = self.connect();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{request}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "daemon closed the connection on {request}");
        line.trim_end().to_owned()
    }

    /// Sends `shutdown` and waits for a clean daemon exit.
    fn shutdown(mut self) {
        let bye = self.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains(r#""stopping":true"#), "{bye}");
        let status = self.child.wait().unwrap();
        assert!(status.success(), "daemon exited {status}");
        let mut rest = String::new();
        self.stderr.read_to_string(&mut rest).unwrap();
    }
}

impl Drop for TcpDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pipelines `input` (N newline-terminated requests) down one
/// connection, then reads exactly N response lines (see [`pipeline`]).
fn pipelined_transcript(d: &TcpDaemon, input: &str, read_delay: Duration) -> Vec<String> {
    let stream = d.connect();
    let mut writer = stream.try_clone().unwrap();
    pipeline(&mut writer, &mut BufReader::new(stream), input, read_delay)
}

/// Writes `input` (N newline-terminated requests) in one go, then reads
/// exactly N response lines — pausing `read_delay` between lines to
/// emulate a slow client reader.
fn pipeline(
    writer: &mut impl Write,
    reader: &mut impl BufRead,
    input: &str,
    read_delay: Duration,
) -> Vec<String> {
    writer.write_all(input.as_bytes()).unwrap();
    writer.flush().unwrap();
    let expected = input.lines().count();
    let mut out = Vec::with_capacity(expected);
    let mut line = String::new();
    for i in 0..expected {
        if !read_delay.is_zero() {
            std::thread::sleep(read_delay);
        }
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed after {i} of {expected} responses");
        out.push(line.trim_end().to_owned());
    }
    out
}

/// A 32-request ordered batch of inline-source queries.
fn ordered_batch() -> String {
    let mut input = String::new();
    for i in 0..32 {
        input.push_str(&format!(
            r#"{{"id":{i},"op":"query","kind":"label-set","source":"{SRC}"}}"#
        ));
        input.push('\n');
    }
    input
}

/// A v2 session conversation with an `analyze`, a `lint`, an `opt` and
/// an unknown session mixed in.
fn session_batch() -> String {
    let mut input = String::new();
    for (i, req) in [
        r#""op":"session/open","session":"w","modules":[{"name":"a","source":"fun f x = x;"},{"name":"b","source":"val p = f (fn u => u);"},{"name":"c","source":"p"}]"#.to_owned(),
        r#""op":"session/query","session":"w","kind":"label-set""#.to_owned(),
        format!(r#""op":"analyze","source":"{SRC}""#),
        format!(r#""op":"lint","source":"{SRC}""#),
        format!(r#""op":"opt","source":"{SRC}""#),
        r#""op":"session/update","session":"w","modules":[{"name":"c","source":"f p"}]"#.to_owned(),
        r#""op":"session/query","session":"w","kind":"label-set""#.to_owned(),
        r#""op":"session/lint","session":"w""#.to_owned(),
        r#""op":"session/query","session":"nosuch","kind":"label-set""#.to_owned(),
        r#""op":"session/close","session":"w""#.to_owned(),
    ]
    .iter()
    .enumerate()
    {
        input.push_str(&format!(r#"{{"v":2,"id":{i},{req}}}"#));
        input.push('\n');
    }
    input
}

#[test]
fn fleet_transcripts_are_byte_identical_across_shards_and_threads() {
    // The ordered 32-query batch and the session e2e conversation, each
    // pipelined down one connection, at every shard × worker geometry and
    // over both transports. The transcripts must be byte-identical
    // everywhere: dispatch geometry and transport are never observable.
    let batch = ordered_batch();
    let sessions = session_batch();
    let mut batch_ref: Option<Vec<String>> = None;
    let mut session_ref: Option<Vec<String>> = None;
    for shards in [1usize, 2, 8] {
        for threads in [1usize, 2, 8] {
            let (shards_arg, threads_arg) = (shards.to_string(), threads.to_string());
            let d = TcpDaemon::spawn(&["--shards", &shards_arg, "--threads", &threads_arg]);
            let got = pipelined_transcript(&d, &batch, Duration::ZERO);
            for (i, line) in got.iter().enumerate() {
                assert_eq!(
                    field(line, "id"),
                    i.to_string(),
                    "s{shards} t{threads}: {line}"
                );
            }
            match &batch_ref {
                None => batch_ref = Some(got),
                Some(reference) => assert_eq!(
                    &got, reference,
                    "batch transcript diverged at --shards {shards} --threads {threads}"
                ),
            }
            let got = pipelined_transcript(&d, &sessions, Duration::ZERO);
            assert!(
                got.iter()
                    .any(|l| l.contains(r#""kind":"unknown-session""#)),
                "s{shards} t{threads}: {got:?}"
            );
            match &session_ref {
                None => session_ref = Some(got),
                Some(reference) => assert_eq!(
                    &got, reference,
                    "session transcript diverged at --shards {shards} --threads {threads}"
                ),
            }
            d.shutdown();

            // The same conversations piped into `serve --stdio`.
            let mut d = Daemon::spawn_with(threads, &["--shards", &shards_arg]);
            assert_eq!(
                Some(d.pipelined(&batch, Duration::ZERO)),
                batch_ref,
                "stdio batch diverged at --shards {shards} --threads {threads}"
            );
            assert_eq!(
                Some(d.pipelined(&sessions, Duration::ZERO)),
                session_ref,
                "stdio session transcript diverged at --shards {shards} --threads {threads}"
            );
            d.shutdown();
        }
    }

    // A deliberately slow client reader (slow enough to trip the write
    // path into backpressure pacing) must see the exact same bytes.
    for (shards, threads) in [(1usize, 1usize), (8, 8)] {
        let d = TcpDaemon::spawn(&[
            "--shards",
            &shards.to_string(),
            "--threads",
            &threads.to_string(),
        ]);
        let got = pipelined_transcript(&d, &batch, Duration::from_millis(10));
        assert_eq!(
            Some(&got),
            batch_ref.as_ref(),
            "slow reader changed the transcript at --shards {shards} --threads {threads}"
        );
        let got = pipelined_transcript(&d, &sessions, Duration::from_millis(10));
        assert_eq!(
            Some(&got),
            session_ref.as_ref(),
            "slow session reader diverged at --shards {shards} --threads {threads}"
        );
        d.shutdown();
    }
}

#[test]
fn invalid_utf8_gets_the_same_answers_over_stdio_and_tcp() {
    // A `\xff` inside a source string: both transports decode the line
    // lossily, answer it with a structured parse error naming U+FFFD, and
    // go on to answer the requests after it.
    let input: &[u8] = b"{\"v\":1,\"id\":1,\"op\":\"analyze\",\"source\":\"fun f x = x; f \xff 1\"}\n\
        {\"v\":1,\"id\":2,\"op\":\"analyze\",\"source\":\"fun f x = x; f 1\"}\n\
        {\"v\":1,\"id\":3,\"op\":\"query\",\"kind\":\"label-set\",\"source\":\"fun f x = x; f (fn y => y)\"}\n";

    let mut child = stcfa()
        .args(["serve", "--stdio", "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(input).unwrap();
    let mut over_stdio = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut over_stdio)
        .unwrap();
    assert!(child.wait().unwrap().success());

    let d = TcpDaemon::spawn(&["--threads", "2"]);
    let stream = d.connect();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(input).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut over_tcp = String::new();
    for _ in 0..3 {
        let n = reader.read_line(&mut over_tcp).unwrap();
        assert!(n > 0, "connection closed early: {over_tcp}");
    }
    d.shutdown();

    assert_eq!(over_stdio, over_tcp);
    let lines: Vec<&str> = over_stdio.lines().collect();
    assert_eq!(lines.len(), 3, "{over_stdio}");
    assert_eq!(field(lines[0], "ok"), "false", "{}", lines[0]);
    assert!(
        lines[0].contains(r#""kind":"parse""#)
            && lines[0].contains("unexpected character `\u{FFFD}`"),
        "{}",
        lines[0]
    );
    for line in &lines[1..] {
        assert_eq!(field(line, "ok"), "true", "{line}");
    }
}

/// Polls the `stats` op until `pred` holds (the event loop reaps
/// asynchronously) — bounded, never a spin-forever.
fn wait_for_stats(d: &TcpDaemon, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = d.roundtrip(r#"{"op":"stats"}"#);
        if pred(&stats) {
            return stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn mid_burst_disconnect_frees_the_slot_and_daemon_keeps_serving() {
    let d = TcpDaemon::spawn(&["--threads", "2"]);
    for round in 0..3 {
        let stream = d.connect();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // A 16-request burst; read two responses; vanish mid-burst.
        writer.write_all(ordered_batch().as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        for _ in 0..2 {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "round {round}");
        }
        drop(reader);
        drop(writer);
        // The slot must come back: only the stats probe's own
        // connection remains. (The probe is a throwaway connection per
        // call, so `connections` counts exactly it.)
        wait_for_stats(&d, "disconnect reap", |stats| {
            field(field(stats, "fleet"), "connections") == "1"
        });
    }
    // And the daemon is still fully functional.
    let ok = d.roundtrip(&analyze(SRC));
    assert_eq!(field(&ok, "ok"), "true", "{ok}");
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    let fleet = field(&stats, "fleet");
    assert!(
        field(fleet, "connections_total").parse::<u64>().unwrap() >= 4,
        "{stats}"
    );
    d.shutdown();
}

#[test]
fn half_written_lines_never_hang_and_complete_incrementally() {
    let d = TcpDaemon::spawn(&["--threads", "1"]);

    // A line completed across two writes with a pause in between must
    // be framed incrementally and answered once whole.
    let stream = d.connect();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let request = analyze(SRC);
    let (head, tail) = request.split_at(request.len() / 2);
    writer.write_all(head.as_bytes()).unwrap();
    writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    writer.write_all(tail.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    assert_eq!(field(&line, "ok"), "true", "{line}");

    // A half-written line followed by a disconnect gets no response, no
    // leaked slot, and must not take the daemon down.
    let stream = d.connect();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(br#"{"op":"analyze","sour"#).unwrap();
    writer.flush().unwrap();
    drop(writer);
    drop(stream);
    wait_for_stats(&d, "half-line reap", |stats| {
        // Both probe-and-first connections drain to exactly the probe.
        field(field(stats, "fleet"), "connections") <= "2"
    });
    let ok = d.roundtrip(&analyze(SRC));
    assert_eq!(field(&ok, "ok"), "true", "{ok}");
    d.shutdown();
}

/// A pipelined burst of 24 `analyze` requests over distinct sources, so
/// no request coalesces with another.
fn distinct_builds() -> String {
    let mut input = String::new();
    for i in 0..24 {
        let mut source = String::from("(fn x => x)");
        for k in 0..=i {
            source = format!("(fn v{k} => v{k}) ({source})");
        }
        input.push_str(&format!(
            r#"{{"id":{i},"op":"analyze","source":"{source}"}}"#
        ));
        input.push('\n');
    }
    input
}

/// Checks the transcript of [`distinct_builds`] against one worker and
/// an admission cap of 1: every response is in transcript position,
/// each either served or shed with the structured `overloaded` error,
/// and at least one of each. Returns the shed count.
fn shed_in_transcript_order(transcript: &[String]) -> u64 {
    let mut shed = 0;
    let mut served = 0;
    for (i, line) in transcript.iter().enumerate() {
        assert_eq!(field(line, "id"), i.to_string(), "{line}");
        if line.contains(r#""kind":"overloaded""#) {
            assert_eq!(field(line, "ok"), "false", "{line}");
            assert!(line.contains("retry"), "{line}");
            shed += 1;
        } else {
            assert_eq!(field(line, "ok"), "true", "{line}");
            served += 1;
        }
    }
    assert!(served >= 1, "the first request must always be admitted");
    assert!(
        shed >= 1,
        "a 24-deep pipelined burst against --max-inflight 1 shed nothing"
    );
    shed
}

#[test]
fn overload_sheds_requests_in_transcript_order_and_recovers() {
    // One worker, admission cap 1: a pipelined burst of *distinct*
    // expensive builds must shed most requests with the structured
    // `overloaded` error — in transcript position, ids still in order —
    // and serve normally once the pipeline drains.
    let d = TcpDaemon::spawn(&["--threads", "1", "--max-inflight", "1"]);
    let transcript = pipelined_transcript(&d, &distinct_builds(), Duration::ZERO);
    let shed = shed_in_transcript_order(&transcript);
    // Shedding is observable and the daemon recovers completely.
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    let fleet = field(&stats, "fleet");
    assert_eq!(
        field(fleet, "overloaded_total").parse::<u64>().unwrap(),
        shed,
        "{stats}"
    );
    let ok = d.roundtrip(&analyze(SRC));
    assert_eq!(
        field(&ok, "ok"),
        "true",
        "post-overload request failed: {ok}"
    );
    d.shutdown();
}

#[test]
fn stdio_overload_sheds_requests_in_transcript_order_and_recovers() {
    // The same admission cap holds on stdio, the fleet's one piped
    // connection.
    let mut d = Daemon::spawn_with(1, &["--max-inflight", "1"]);
    let transcript = d.pipelined(&distinct_builds(), Duration::ZERO);
    let shed = shed_in_transcript_order(&transcript);
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    let fleet = field(&stats, "fleet");
    assert_eq!(
        field(fleet, "overloaded_total").parse::<u64>().unwrap(),
        shed,
        "{stats}"
    );
    let ok = d.roundtrip(&analyze(SRC));
    assert_eq!(
        field(&ok, "ok"),
        "true",
        "post-overload request failed: {ok}"
    );
    d.shutdown();
}

/// Checks a slow reader's transcript of [`ordered_batch`]: all 32
/// responses, in order, with nothing shed.
fn all_served_in_order(transcript: &[String]) {
    assert_eq!(transcript.len(), 32);
    for (i, line) in transcript.iter().enumerate() {
        assert_eq!(field(line, "id"), i.to_string(), "{line}");
        assert_eq!(field(line, "ok"), "true", "{line}");
        assert!(
            !line.contains("overloaded"),
            "backpressure must shed nothing: {line}"
        );
    }
}

#[test]
fn slow_reader_backpressure_delivers_everything_in_order() {
    // conn-inflight 4 forces the daemon to stop reading the burst until
    // answers drain; a client that only reads slowly must still get all
    // 32 responses, in order, with nothing shed.
    let d = TcpDaemon::spawn(&["--threads", "2", "--conn-inflight", "4"]);
    let transcript = pipelined_transcript(&d, &ordered_batch(), Duration::from_millis(5));
    all_served_in_order(&transcript);
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    let fleet = field(&stats, "fleet");
    assert_eq!(field(fleet, "overloaded_total"), "0", "{stats}");
    d.shutdown();
}

#[test]
fn stdio_slow_reader_backpressure_delivers_everything_in_order() {
    // The same cap on stdio: the daemon stops draining stdin, and the
    // pipe pushes back instead of the input piling up in memory.
    let mut d = Daemon::spawn_with(2, &["--conn-inflight", "4"]);
    let transcript = d.pipelined(&ordered_batch(), Duration::from_millis(5));
    all_served_in_order(&transcript);
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    let fleet = field(&stats, "fleet");
    assert_eq!(field(fleet, "overloaded_total"), "0", "{stats}");
    d.shutdown();
}

#[test]
fn fleet_stats_expose_shards_connections_and_affinity_hits() {
    let d = TcpDaemon::spawn(&["--shards", "4", "--threads", "2"]);
    let stream = d.connect();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut send = |req: &str| -> String {
        writeln!(writer, "{req}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        line.trim_end().to_owned()
    };
    let a = send(&analyze(SRC));
    let digest = field(&a, "snapshot").trim_matches('"').to_owned();
    for _ in 0..10 {
        let q = send(&format!(
            r#"{{"op":"query","kind":"label-set","snapshot":"{digest}"}}"#
        ));
        assert_eq!(field(&q, "ok"), "true", "{q}");
    }
    let stats = send(r#"{"op":"stats"}"#);
    let fleet = field(&stats, "fleet");
    assert_eq!(field(fleet, "shards"), "4", "{stats}");
    assert_eq!(field(fleet, "workers"), "2", "{stats}");
    assert_eq!(field(fleet, "connections"), "1", "{stats}");
    assert_eq!(
        field(fleet, "shard_hits"),
        "10",
        "every digest-addressed query must ride the analyze's shard: {stats}"
    );
    let dispatched = field(fleet, "dispatched").parse::<u64>().unwrap();
    assert!(dispatched >= 12, "{stats}");
    assert!(
        field(fleet, "stolen").parse::<u64>().unwrap() <= dispatched,
        "{stats}"
    );
    assert_eq!(field(fleet, "overloaded_total"), "0", "{stats}");
    d.shutdown();

    // One shard, two workers: the second worker owns no shard, so every
    // task it runs is stolen, and a pipelined burst of distinct builds
    // keeps the owner busy while the rest wait on its queue.
    let d = TcpDaemon::spawn(&["--shards", "1", "--threads", "2"]);
    let nested = format!("{}1{}", "f (".repeat(100), ")".repeat(100));
    let burst: String = (0..16)
        .map(|i| analyze(&format!("fun f x = x + {i}; {nested}")) + "\n")
        .collect();
    let transcript = pipelined_transcript(&d, &burst, Duration::ZERO);
    assert!(
        transcript.iter().all(|line| field(line, "ok") == "true"),
        "{transcript:?}"
    );
    let stats = d.roundtrip(r#"{"op":"stats"}"#);
    let fleet = field(&stats, "fleet");
    assert!(
        field(fleet, "stolen").parse::<u64>().unwrap() > 0,
        "the ownerless worker took nothing from the busy owner's queue: {stats}"
    );
    d.shutdown();
}

#[test]
fn persist_tier_serves_concurrent_connections_with_zero_misses() {
    let dir = cache_dir("fleet-persist");
    let flags = ["--cache-dir", dir.to_str().unwrap(), "--threads", "2"];

    // First daemon builds once and persists.
    let seed = TcpDaemon::spawn(&flags);
    let a = seed.roundtrip(&analyze(SRC));
    assert_eq!(field(&a, "cached"), "false", "{a}");
    let digest = field(&a, "snapshot").trim_matches('"').to_owned();
    seed.shutdown();
    assert!(dir.join(format!("{digest}.stcfa")).is_file());

    // Restarted daemon: 8 concurrent connections race the same analyze
    // + query. The single disk load must satisfy all of them — zero
    // misses (builds), exactly one disk hit.
    let warm = TcpDaemon::spawn(&flags);
    std::thread::scope(|scope| {
        let warm = &warm;
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let stream = warm.connect();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    writeln!(writer, "{}", analyze(SRC)).unwrap();
                    writeln!(
                        writer,
                        r#"{{"op":"query","kind":"label-set","source":"{SRC}"}}"#
                    )
                    .unwrap();
                    writer.flush().unwrap();
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0);
                    assert_eq!(
                        field(&line, "cached"),
                        "true",
                        "disk-warm analyze rebuilt: {line}"
                    );
                    line.clear();
                    assert!(reader.read_line(&mut line).unwrap() > 0);
                    assert_eq!(field(&line, "ok"), "true", "{line}");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let stats = warm.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "misses"), "0", "warm fleet built: {stats}");
    assert_eq!(field(&stats, "disk_hits"), "1", "{stats}");
    assert_eq!(field(&stats, "disk_corrupt"), "0", "{stats}");
    warm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads a process's cumulative CPU (utime + stime) in clock ticks from
/// /proc — the idle-cost probe.
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // Field 2 (comm) may contain spaces; parse from after the ')'.
    let rest = stat.rsplit(')').next().unwrap();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; after
    // stripping "pid (comm)" they are at offsets 11 and 12.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn idle_fleet_burns_no_cpu() {
    // The old transport woke every 20 ms to poll accept(2). The fleet
    // parks: an idle daemon — even with an idle connection open — must
    // accumulate (almost) no CPU time. Stdio is a connection of the same
    // loop: a daemon whose stdin stays open with nothing sent is idle too.
    let d = TcpDaemon::spawn(&["--threads", "2"]);
    let stdio = Daemon::spawn(2);
    let pids = [("tcp", d.child.id()), ("stdio", stdio.child.id())];
    let _idle_conn = d.connect();
    // Settle (lazy init, the connection's admission), then measure.
    std::thread::sleep(Duration::from_millis(300));
    let before = pids.map(|(_, pid)| cpu_ticks(pid));
    std::thread::sleep(Duration::from_millis(2000));
    for ((transport, pid), before) in pids.into_iter().zip(before) {
        let ticks = cpu_ticks(pid) - before;
        // 2 s idle at 100 Hz ticks: a spinning loop would burn ~200
        // ticks, a 20 ms poll a handful. Budget 10 ticks (≤ 5% of one
        // core) so the assertion stays robust under CI noise while still
        // catching any return of a poll loop.
        assert!(
            ticks <= 10,
            "idle {transport} daemon burned {ticks} ticks over 2 s (not flat)"
        );
    }
    d.shutdown();
    stdio.shutdown();
}

/// The daemon's line cap (docs/SERVER.md): a request line may carry at
/// most this many bytes before its newline.
const MAX_LINE: usize = 32 << 20;

/// Writes `stats`, a line of exactly [`MAX_LINE`] bytes, `stats`, a line
/// of `MAX_LINE + 1` bytes and `stats` on a thread of its own, stopping
/// at the first failed write: the daemon stops reading at the cap.
fn write_over_the_cap(mut w: impl Write + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let piece = vec![b'x'; 1 << 20];
        let stats = |id: u32| format!("{{\"id\":{id},\"op\":\"stats\"}}\n");
        let mut send = || -> std::io::Result<()> {
            w.write_all(stats(1).as_bytes())?;
            for extra in [0, 1] {
                for _ in 0..MAX_LINE / piece.len() {
                    w.write_all(&piece)?;
                }
                w.write_all(&piece[..extra])?;
                w.write_all(b"\n")?;
                w.write_all(stats(2 + extra as u32).as_bytes())?;
            }
            w.flush()
        };
        let _ = send();
    })
}

/// The three answers the line-cap conversation must get: `stats` 1, a
/// `proto` error for the line at the cap, `stats` 2 — and nothing for
/// what follows the line over it.
fn assert_cap_answers(transport: &str, answers: &[String]) {
    assert_eq!(answers.len(), 3, "{transport}: {answers:?}");
    assert_eq!(field(&answers[0], "id"), "1", "{transport}");
    assert_eq!(field(&answers[0], "ok"), "true", "{transport}");
    assert_eq!(field(&answers[1], "ok"), "false", "{transport}");
    assert_eq!(field(&answers[1], "kind"), r#""proto""#, "{transport}");
    assert_eq!(field(&answers[2], "id"), "2", "{transport}");
    assert_eq!(field(&answers[2], "ok"), "true", "{transport}");
}

#[test]
fn oversized_lines_get_the_same_answers_over_stdio_and_tcp() {
    // Over stdio the daemon answers what was framed before the line over
    // the cap, then ends the input and exits.
    let mut child = stcfa()
        .args(["serve", "--stdio", "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let writer = write_over_the_cap(child.stdin.take().unwrap());
    let mut output = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut output)
        .unwrap();
    assert!(child.wait().unwrap().success());
    writer.join().unwrap();
    let answers: Vec<String> = output.lines().map(str::to_owned).collect();
    assert_cap_answers("stdio", &answers);

    // Over TCP the same answers arrive, then the connection closes. The
    // daemon closes with input still unread, so the client may read a
    // reset instead of end of stream.
    let d = TcpDaemon::spawn(&["--threads", "2"]);
    let stream = d.connect();
    let sink = stream.try_clone().unwrap();
    sink.set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let writer = write_over_the_cap(sink);
    let mut reader = BufReader::new(stream);
    let mut answers = Vec::new();
    let mut line = String::new();
    while let Ok(n) = reader.read_line(&mut line) {
        if n == 0 {
            break;
        }
        answers.push(line.trim_end().to_owned());
        line.clear();
    }
    writer.join().unwrap();
    assert_cap_answers("tcp", &answers);
    d.shutdown();
}

#[test]
fn pipelined_queries_behind_an_inline_analyze_never_overtake_it() {
    // An inline-source `analyze`, then 16 queries naming the handle it
    // will return, pipelined down one connection. The analyze routes by
    // its source's key and the queries by the handle, which is the same
    // key, so they queue on the analyze's shard behind it and find the
    // snapshot built. Routing the analyze anywhere else lets a query
    // overtake it and fail with `unknown-snapshot`.
    let handle = SnapshotKey::derive(SRC, 0, 0).hex();
    let mut input = format!(r#"{{"id":0,"op":"analyze","source":"{SRC}"}}"#);
    input.push('\n');
    for i in 1..=16 {
        input.push_str(&format!(
            r#"{{"id":{i},"op":"query","kind":"label-set","snapshot":"{handle}"}}"#
        ));
        input.push('\n');
    }
    let mut reference: Option<Vec<String>> = None;
    for shards in [1usize, 8] {
        for threads in [1usize, 8] {
            let (shards_arg, threads_arg) = (shards.to_string(), threads.to_string());
            let d = TcpDaemon::spawn(&["--shards", &shards_arg, "--threads", &threads_arg]);
            let over_tcp = pipelined_transcript(&d, &input, Duration::ZERO);
            d.shutdown();
            let mut d = Daemon::spawn_with(threads, &["--shards", &shards_arg]);
            let over_stdio = d.pipelined(&input, Duration::ZERO);
            d.shutdown();
            for (transport, transcript) in [("tcp", over_tcp), ("stdio", over_stdio)] {
                for line in &transcript {
                    assert_eq!(
                        field(line, "ok"),
                        "true",
                        "{transport} s{shards} t{threads}: {line}"
                    );
                }
                match &reference {
                    None => reference = Some(transcript),
                    Some(reference) => assert_eq!(
                        &transcript, reference,
                        "{transport} transcript diverged at --shards {shards} --threads {threads}"
                    ),
                }
            }
        }
    }
    let reference = reference.expect("a transcript");
    assert_eq!(field(&reference[0], "snapshot"), format!("\"{handle}\""));
}

// --- the router, as properties ---------------------------------------------
//
// `Route::of` reads a request line once on the event loop. For every line
// the parser accepts it must agree with the parsed request: the order
// flag with `op`, and the affinity and source key with the first
// `snapshot`, `session`, `source` and `policy` members, read the way the
// worker reads them. On any other line it must merely return.

use stcfa::server::proto::parse_policy;
use stcfa::server::{Json, Route, SnapshotKey};
use stcfa_devkit::hash::Fnv1a;
use stcfa_devkit::prelude::*;

/// What routing must give for a parsed request.
fn parsed_route(request: &Json) -> Route {
    let field = |name| request.get(name).and_then(Json::as_str);
    let disc = parse_policy(field("policy").unwrap_or("c1")).map(|(_, disc)| disc);
    let source_key = field("source")
        .zip(disc)
        .map(|(source, disc)| SnapshotKey::derive(source, disc, 0));
    Route {
        ordered: field("op").is_some_and(|op| op == "evict" || op.starts_with("session/")),
        affinity: field("snapshot")
            .and_then(SnapshotKey::from_hex)
            .map(|key| key.0)
            .or_else(|| field("session").map(|id| Fnv1a::digest_parts(id.as_bytes(), &[u64::MAX])))
            .or(source_key.map(|key| key.0))
            .unwrap_or(0),
        source_key,
    }
}

/// The corpus programs, the source text requests are cut from.
fn corpus_sources() -> &'static [String] {
    static SOURCES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    SOURCES.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
        let mut sources: Vec<String> = std::fs::read_dir(dir)
            .expect("the corpus directory")
            .map(|entry| std::fs::read_to_string(entry.expect("a corpus entry").path()))
            .collect::<Result<_, _>>()
            .expect("readable corpus files");
        sources.sort();
        sources
    })
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// Whitespace the parser skips between tokens.
fn ws(rng: &mut Rng) -> &'static str {
    pick(rng, &["", "", "", " ", "  ", "\t", "\n", "\r\n "])
}

/// A JSON literal for `text`, each character written at random as
/// itself (where JSON allows), as a short escape, or as a `\u` escape in
/// either case of hex digit (a surrogate pair beyond the BMP).
fn literal(rng: &mut Rng, text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let plain_ok = c >= ' ' && c != '"' && c != '\\';
        match rng.below(8) {
            0 | 1 => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let hex = format!("\\u{unit:04x}");
                    out.push_str(&if rng.gen_bool(0.5) {
                        hex.to_uppercase().replace("\\U", "\\u")
                    } else {
                        hex
                    });
                }
            }
            _ if plain_ok => out.push(c),
            _ => out.push_str(
                short
                    .map_or_else(|| format!("\\u{:04x}", c as u32), str::to_owned)
                    .as_str(),
            ),
        }
    }
    out.push('"');
    out
}

/// A slice of a corpus program, sometimes with characters JSON must
/// escape or that lie beyond the BMP mixed in.
fn source_text(rng: &mut Rng) -> String {
    let sources = corpus_sources();
    let text = &sources[rng.below(sources.len() as u64) as usize];
    let chars: Vec<char> = text.chars().collect();
    let start = rng.below(chars.len() as u64) as usize;
    let len = rng.below(400) as usize;
    let mut out: String = chars[start..(start + len).min(chars.len())]
        .iter()
        .collect();
    if rng.gen_bool(0.3) {
        let at = rng.below(out.chars().count() as u64 + 1) as usize;
        let extra = pick(
            rng,
            &[
                "\"session/x\"",
                "\"evict\"",
                "é",
                "😀",
                "\u{1}",
                "\\",
                "\"source\":\"x\"",
            ],
        );
        let at = out.char_indices().nth(at).map_or(out.len(), |(i, _)| i);
        out.insert_str(at, extra);
    }
    out
}

/// A nested value that may hide decoy routing members.
fn decoy(rng: &mut Rng, depth: u32) -> String {
    match rng.below(if depth >= 3 { 3 } else { 6 }) {
        0 => pick(rng, &["1", "-2.5e3", "true", "false", "null", "0"]).to_owned(),
        1 => {
            let text = pick(
                rng,
                &[
                    "evict",
                    "session/open",
                    "c2",
                    "x",
                    "\"source\":\"y\"",
                    "0123456789abcdef",
                ],
            );
            literal(rng, text)
        }
        2 => {
            let text = source_text(rng);
            literal(rng, &text)
        }
        3 => {
            let items: Vec<String> = (0..rng.below(4)).map(|_| decoy(rng, depth + 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let members: Vec<String> = (0..rng.below(4))
                .map(|_| {
                    let name = pick(rng, &["op", "source", "snapshot", "session", "policy", "a"]);
                    format!("{}:{}", literal(rng, name), decoy(rng, depth + 1))
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

/// One top-level routing member's value: usually a string of the right
/// kind, sometimes something the worker would refuse.
fn routing_value(rng: &mut Rng, name: &str) -> String {
    if rng.gen_bool(0.1) {
        return decoy(rng, 1);
    }
    let text = match name {
        "op" => pick(
            rng,
            &[
                "analyze",
                "query",
                "lint",
                "opt",
                "rule",
                "stats",
                "evict",
                "shutdown",
                "session/open",
                "session/update",
                "session/query",
                "session/lint",
                "session/close",
                "session/",
                "session",
                "evicted",
                "sessions/open",
                "Evict",
            ],
        )
        .to_owned(),
        "source" => source_text(rng),
        "policy" => pick(rng, &["c1", "c2", "exact", "forget", "c9", "C1", ""]).to_owned(),
        "snapshot" => match rng.below(3) {
            0 => SnapshotKey(rng.next_u64()).hex(),
            1 => SnapshotKey::derive(&source_text(rng), 0, 0).hex(),
            _ => pick(rng, &["zz", "0123456789abcde", "0123456789ABCDEF", ""]).to_owned(),
        },
        _ => pick(rng, &["w", "editor-1", "é", "", "session/x"]).to_owned(),
    };
    literal(rng, &text)
}

/// A request object: routing members (some duplicated), ids, kinds and
/// decoys, in shuffled order with random whitespace.
fn request_line(rng: &mut Rng) -> String {
    let mut members = Vec::new();
    for (name, p) in [
        ("op", 0.9),
        ("source", 0.7),
        ("policy", 0.4),
        ("snapshot", 0.3),
        ("session", 0.3),
    ] {
        for _ in 0..(rng.gen_bool(p) as u32 + rng.gen_bool(0.15) as u32) {
            members.push((name, routing_value(rng, name)));
        }
    }
    for _ in 0..rng.below(4) {
        let name = pick(
            rng,
            &["id", "kind", "meta", "modules", "expr", "deadline_ms", "v"],
        );
        members.push((name, decoy(rng, 0)));
    }
    for i in (1..members.len()).rev() {
        members.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut line = format!("{}{{", ws(rng));
    for (i, (name, value)) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{}{}{}:{}{}{}",
            ws(rng),
            literal(rng, name),
            ws(rng),
            ws(rng),
            value,
            ws(rng)
        ));
    }
    line.push_str(&format!("{}}}{}", ws(rng), ws(rng)));
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The router agrees with the parsed request on every generated line.
    #[test]
    fn router_agrees_with_the_parsed_request(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let line = request_line(&mut rng);
        let request = Json::parse(&line)
            .unwrap_or_else(|e| panic!("generated an invalid line ({e}): {line}"));
        prop_assert_eq!(Route::of(&line), parsed_route(&request), "{}", line);
    }

    /// Truncated and mutated lines never panic the router, and any that
    /// still parse are routed exactly.
    #[test]
    fn router_survives_truncated_and_mutated_lines(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut line = request_line(&mut rng);
        for _ in 0..rng.below(4) + 1 {
            let boundaries: Vec<usize> = line
                .char_indices()
                .map(|(i, _)| i)
                .chain([line.len()])
                .collect();
            let at = boundaries[rng.below(boundaries.len() as u64) as usize];
            match rng.below(4) {
                0 => line.truncate(at),
                1 => {
                    let end = boundaries
                        .iter()
                        .copied()
                        .find(|&b| b > at)
                        .unwrap_or(line.len());
                    line.replace_range(at..end, "");
                }
                _ => line.insert_str(
                    at,
                    pick(&mut rng, &["\"", "\\", "{", "}", "[", "]", ":", ",", "\\u", "0", "é", "😀", "\u{1}", " "]),
                ),
            }
        }
        let route = Route::of(&line);
        if let Ok(request) = Json::parse(&line) {
            prop_assert_eq!(route, parsed_route(&request), "{}", line);
        }
    }
}
