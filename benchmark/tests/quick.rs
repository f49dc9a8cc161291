//! Drives the whole harness end to end in `--quick` mode — one short
//! segment per workload, then the traced run — and checks that each run
//! is correct and reports exactly the metrics BENCHMARK.json declares.

use std::path::Path;
use std::process::Command;

use stcfa_server::Json;

const DEFINITION: &str = include_str!("../../BENCHMARK.json");

fn names(group: &str) -> Vec<String> {
    Json::parse(DEFINITION)
        .expect("BENCHMARK.json parses")
        .get(group)
        .and_then(Json::as_arr)
        .expect("group present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

/// Runs the benchmark and returns its last output line, parsed.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    Json::parse(stdout.lines().last().unwrap_or_default()).expect("a JSON result line")
}

fn metric_names(result: &Json) -> Vec<String> {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{result:?}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics in {result:?}");
    };
    for (name, m) in metrics {
        assert!(
            matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{name} is not a number"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn quick_runs_are_correct_and_report_every_declared_metric() {
    let workloads = names("workloads");
    for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(&["--quick", "--seed", "5", "--trace", trace]);
        let want: Vec<String> = workloads
            .iter()
            .flat_map(|w| names(group).into_iter().map(move |m| format!("{w}/{m}")))
            .collect();
        assert_eq!(metric_names(&result), want, "--trace {trace}");
    }

    // One workload reports bare metric names.
    let single = run(&["--quick", "--workload", "warm-query", "--seed", "5"]);
    assert_eq!(metric_names(&single), names("end_to_end"));

    // Every workload's results are in the results file, and a run
    // compared with itself changes nothing.
    let results = Path::new(env!("CARGO_BIN_EXE_benchmark"))
        .parent()
        .and_then(Path::parent)
        .expect("a target directory")
        .join("benchmark/results.json");
    let results = results.to_str().expect("a UTF-8 path");
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--compare", results, results])
        .output()
        .expect("compare starts");
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).expect("UTF-8 output");
    let rows: Vec<&str> = table.lines().skip(1).collect();
    assert_eq!(rows.len(), workloads.len() * names("end_to_end").len());
    assert!(rows.iter().all(|r| r.ends_with(" unchanged")), "{table}");
}
