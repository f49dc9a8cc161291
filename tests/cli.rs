//! End-to-end tests of the `stcfa` command-line tool.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn stcfa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stcfa"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("stcfa_cli_test_{name}.ml"));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn summary_and_labels() {
    let f = write_temp("summary", "(fn x => x x) (fn y => y)");
    let out = stcfa()
        .arg(&f)
        .args(["--summary", "--labels"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 abstractions"), "{stdout}");
    assert!(stdout.contains("L(root) = {λy#1}"), "{stdout}");
}

#[test]
fn call_sites_under_each_engine() {
    let f = write_temp(
        "engines",
        "fun id x = x; val a = id (fn u => u); val b = id (fn v => v); a",
    );
    for engine in ["sub", "poly", "hybrid", "cfa0", "sba", "unify"] {
        let out = stcfa()
            .arg(&f)
            .args(["--call-sites", "--analysis", engine])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "engine {engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("site@"), "engine {engine}: {stdout}");
    }
}

#[test]
fn effects_eval_and_types() {
    let f = write_temp("effects", "val u = print 42; 7");
    let out = stcfa()
        .arg(&f)
        .args(["--effects", "--types", "--eval"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("root IS effectful"), "{stdout}");
    assert!(stdout.contains("k_avg"), "{stdout}");
    assert!(stdout.contains("42"), "{stdout}"); // printed by eval
    assert!(stdout.contains("=> 7"), "{stdout}");
}

#[test]
fn inline_pipeline_from_stdin() {
    let mut child = stcfa()
        .args(["opt", "-", "--passes", "inline-once", "--emit"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"let val f = fn x => x + 1 in f 41 end")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("round 1 inline-once: 1 performed"),
        "{stderr}"
    );
    // The inlined function's binding is gone with its only call.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("41"), "{stdout}");
    assert!(!stdout.contains("fn "), "{stdout}");
}

#[test]
fn dot_output_is_wellformed() {
    let f = write_temp("dot", "(fn x => x) (fn y => y)");
    let out = stcfa().arg(&f).arg("--dot").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("digraph subtransitive {"));
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn k_limited_reports_many() {
    let f = write_temp(
        "klim",
        "fun id x = x;\n\
         val a = id (fn p => p); val b = id (fn q => q); val c = id (fn r => r);\n\
         a 0",
    );
    let out = stcfa().arg(&f).args(["--k-limited", "2"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("many"), "{stdout}");
}

#[test]
fn called_once_report() {
    let f = write_temp("conce", "(fn x => x + 1) 2");
    let out = stcfa().arg(&f).arg("--called-once").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("called once"), "{stdout}");
}

#[test]
fn parse_errors_are_reported_with_position() {
    let f = write_temp("bad", "fn x =>");
    let out = stcfa().arg(&f).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = stcfa().args(["foo.ml", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn witness_paths() {
    let f = write_temp("witness", "(fn x => x x) (fn y => y)");
    let out = stcfa().arg(&f).arg("--witness").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("witness for λy#1 ∈ L(root)"), "{stdout}");
    assert!(stdout.contains("dom(dom(λx#0))"), "{stdout}");
}

#[test]
fn live_report() {
    let f = write_temp("live", "let val dead = fn x => (fn y => y) 1 in 2 end");
    let out = stcfa().arg(&f).arg("--live").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("4 dead"), "{stdout}");
    assert!(stdout.contains("never executed: 2"), "{stdout}");
}

#[test]
fn repl_mode_analyzes_incrementally() {
    let mut child = stcfa()
        .arg("--repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"fun id x = x;\nval a = id (fn u => u);\na\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("id : 1 possible function(s)"), "{stdout}");
    assert!(
        stdout.contains("value : 1 possible function(s)"),
        "{stdout}"
    );
    // Errors don't kill the session.
    let mut child2 = stcfa()
        .arg("--repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child2
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"nonsense !!\nval ok = 1;\n")
        .unwrap();
    let out2 = child2.wait_with_output().unwrap();
    assert!(out2.status.success());
    let stderr2 = String::from_utf8(out2.stderr).unwrap();
    assert!(stderr2.contains("error"), "{stderr2}");
    let stdout2 = String::from_utf8(out2.stdout).unwrap();
    assert!(stdout2.contains("ok : 0 possible function(s)"), "{stdout2}");
}

#[test]
fn untyped_program_reports_budget_error() {
    let f = write_temp("omega", "(fn x => x x) (fn x => x x)");
    let out = stcfa().arg(&f).arg("--summary").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("node budget"), "{stderr}");
    // But the hybrid engine answers.
    let out2 = stcfa()
        .arg(&f)
        .args(["--labels", "--analysis", "hybrid"])
        .output()
        .unwrap();
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
}

#[test]
fn lint_text_reports_positions_and_codes() {
    let f = write_temp(
        "lint_text",
        "fun ghost x = x;\nfun konst a b = a;\nkonst 1 2",
    );
    let out = stcfa().args(["lint"]).arg(&f).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("warning[STCFA002]"), "{stdout}");
    assert!(stdout.contains("warning[STCFA004]"), "{stdout}");
    // Every line carries file:line:col.
    for line in stdout.lines() {
        assert!(line.contains(".ml:"), "{line}");
    }
}

#[test]
fn lint_json_is_machine_readable_and_thread_stable() {
    let f = write_temp(
        "lint_json",
        "fun ghost x = x;\nlet val r = (1, 2) in let val f = #1 r in f 9 end end",
    );
    let mut reports = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = stcfa()
            .args(["lint"])
            .arg(&f)
            .args(["--format", "json", "--threads", threads])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        reports.push(String::from_utf8(out.stdout).unwrap());
    }
    assert_eq!(reports[0], reports[1], "1 vs 2 threads");
    assert_eq!(reports[0], reports[2], "1 vs 8 threads");
    let json = &reports[0];
    assert!(json.starts_with('['), "{json}");
    assert!(json.contains("\"code\":\"STCFA001\""), "{json}");
    assert!(json.contains("\"code\":\"STCFA002\""), "{json}");
    assert!(json.contains("\"span\":{\"line\":"), "{json}");
}

#[test]
fn lint_reads_stdin() {
    let mut child = stcfa()
        .args(["lint", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"(1, 2) 3")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[STCFA006]"), "{stdout}");
}

#[test]
fn lint_explain_prints_rule_definitions() {
    let out = stcfa()
        .args(["lint", "--explain", "STCFA007"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("STCFA007"), "{stdout}");
    assert!(stdout.contains(":-"), "declarative clauses: {stdout}");
    assert!(stdout.contains(".edb effectful_label"), "{stdout}");
    // Matching is case-insensitive.
    let out = stcfa()
        .args(["lint", "--explain", "stcfa004"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // Unknown codes exit 3 (bad flag value).
    let out = stcfa()
        .args(["lint", "--explain", "STCFA999"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown rule code"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn lint_reports_the_rule_backed_codes() {
    let f = write_temp(
        "lint_rules",
        "fun pick b = if b then (fn x => print x) else (fn y => y);\n\
         fun f x = x; fun g y = f y; val a = f 1; val c = (pick true) 5; g 2",
    );
    let out = stcfa().args(["lint"]).arg(&f).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("warning[STCFA007]"), "{stdout}");
    assert!(stdout.contains("info[STCFA008]"), "{stdout}");
}

#[test]
fn rule_dominators_and_taint_answer_json() {
    let f = write_temp("rule_dom", "fun f x = x; fun g y = f y; val a = f 1; g 2");
    let out = stcfa()
        .args(["rule"])
        .arg(&f)
        .args(["--name", "dominators"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"rule\":\"dominators\""), "{stdout}");
    assert!(stdout.contains("\"entry\":"), "{stdout}");

    let f = write_temp(
        "rule_taint",
        "fun apply f = fn y => f y; apply (fn n => print n) 7",
    );
    let out = stcfa()
        .args(["rule"])
        .arg(&f)
        .args(["--name", "taint"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"rule\":\"taint\""), "{stdout}");
    assert!(stdout.contains("\"tainted\":["), "{stdout}");

    // Demand mode answers one occurrence; empty sources taint nothing.
    let out = stcfa()
        .args(["rule"])
        .arg(&f)
        .args(["--name", "taint", "--expr", "0", "--sources", ""])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"tainted\":false"), "{stdout}");

    // Unknown rule names exit 3.
    let out = stcfa()
        .args(["rule"])
        .arg(&f)
        .args(["--name", "nosuch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

/// Each CLI JSON report and its daemon op are one renderer: over the
/// corpus, the daemon's `lint` diagnostics, its `opt` result minus
/// `performed`, and its `rule` answers equal what `stcfa lint --format
/// json`, `stcfa opt --report json` and `stcfa rule` print.
#[test]
fn cli_and_daemon_agree_over_the_corpus() {
    use stcfa::server::{Json, Server, ServerOptions};

    let server = Server::new(ServerOptions {
        threads: 1,
        ..Default::default()
    });
    let ask = |request: Vec<(&str, Json)>| -> Json {
        let line = server.handle_line(&Json::obj(request).to_line(), std::time::Instant::now());
        let response = Json::parse(&line).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{line}");
        response.get("result").unwrap().clone()
    };
    let cli = |args: &[&str]| -> Json {
        let out = stcfa().args(args).output().unwrap();
        assert!(out.status.success(), "stcfa {args:?} failed");
        Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap()
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files = 0;
    let paths = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    for path in paths.filter(|p| p.extension().is_some_and(|e| e == "ml")) {
        files += 1;
        let file = path.to_str().unwrap();
        let source = Json::str(std::fs::read_to_string(&path).unwrap());

        let lint = ask(vec![("op", Json::str("lint")), ("source", source.clone())]);
        let printed = cli(&["lint", file, "--format", "json", "--threads", "1"]);
        assert_eq!(lint.get("diagnostics"), Some(&printed), "{file}: lint");

        let Json::Obj(mut opt) = ask(vec![
            ("v", Json::num(2)),
            ("op", Json::str("opt")),
            ("source", source.clone()),
        ]) else {
            panic!("{file}: opt result is not an object")
        };
        opt.retain(|(key, _)| key != "performed");
        let printed = cli(&["opt", file, "--report", "json", "--threads", "1"]);
        assert_eq!(Json::Obj(opt), printed, "{file}: opt");

        for name in ["dominators", "taint"] {
            let answer = ask(vec![
                ("v", Json::num(2)),
                ("op", Json::str("rule")),
                ("name", Json::str(name)),
                ("source", source.clone()),
            ]);
            assert_eq!(
                answer,
                cli(&["rule", file, "--name", name]),
                "{file}: {name}"
            );
        }
    }
    assert!(files >= 5, "corpus should not shrink silently");
}
