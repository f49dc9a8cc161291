//! `benchmark` — the repository benchmark: seeded closed-loop workloads
//! against the analysis daemon over loopback TCP, end-to-end metrics per
//! workload, and an outside-in traced run for per-layer metrics. See
//! README.md for the workloads, the metrics and how to read a trace.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark --compare OLD.json NEW.json
//! ```

mod check;
mod layers;
mod pool;
mod segment;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use stcfa_server::Json;

use crate::segment::{Plan, SegmentResult};
use crate::stats::{verdict, Summary};
use crate::workload::Workload;

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       benchmark --compare OLD.json NEW.json";

/// The benchmark's definition: metric names, units, directions, bounds.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// Measured segments per workload, each in a fresh process: a process
/// keeps whatever scheduling and memory layout it started with, so the
/// run takes the median over many short ones.
const SEGMENTS: usize = 8;
/// Warm-up at the head of each segment, capped at a fifth of it.
const WARMUP_S: f64 = 0.5;
/// The fewest ops a segment records: its p99 then has ten samples beyond
/// it. A segment's measured window stretches until it has them.
const MIN_SEGMENT_OPS: usize = 1000;
/// `--seconds` when none is given (the definition's `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
/// One `--quick` segment per workload, of this length.
const QUICK_SECONDS: f64 = 0.5;

/// End-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit).
const PER_LAYER: [(&str, &str); 37] = [
    ("server.handle_us", "us"),
    ("server.self_us", "us"),
    ("server.wait_us", "us"),
    ("server.json_decode_us", "us"),
    ("server.json_encode_us", "us"),
    ("server.digest_us", "us"),
    ("server.cache_hit_frac", "frac"),
    ("server.shard_hit_frac", "frac"),
    ("server.evictions", "count"),
    ("server.cache_mb", "MiB"),
    ("server.rss_per_cache_mb", "ratio"),
    ("lambda.parse_us", "us"),
    ("lambda.parse_mb_s", "MB/s"),
    ("lambda.exprs", "count"),
    ("core.analyze_us", "us"),
    ("core.build_nodes", "count"),
    ("core.close_nodes", "count"),
    ("core.edges_processed", "count"),
    ("core.freeze_us", "us"),
    ("core.sweep_us", "us"),
    ("core.query_us", "us"),
    ("precision.suspicion_us", "us"),
    ("precision.grade_us", "us"),
    ("precision.cone_runs", "count"),
    ("precision.memo_hits", "count"),
    ("persist.load_us", "us"),
    ("persist.decode_us", "us"),
    ("persist.image_kb", "KiB"),
    ("session.relink_us", "us"),
    ("session.relinked", "count"),
    ("lint.lint_us", "us"),
    ("lint.diagnostics", "count"),
    ("rules.taint_us", "us"),
    ("opt.optimize_us", "us"),
    ("opt.rounds", "count"),
    ("opt.performed", "count"),
    ("trace.coverage", "ratio"),
];

struct Config {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

enum Mode {
    Run(Config),
    Segment(Plan),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut seconds, mut trace, mut quick) = (1u64, None, false, false);
    let (mut segment, mut index, mut warmup_ms, mut measure_ms) = (false, 0usize, 0u64, 0u64);
    let mut min_ops = 0usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads
                    .push(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("--seconds: bad duration `{v}`"))?,
                );
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            "--compare" => {
                let old = PathBuf::from(value()?);
                let new = PathBuf::from(value()?);
                return Ok(Mode::Compare(old, new));
            }
            "--segment" => segment = true,
            "--index" => index = number(value()?)? as usize,
            "--warmup-ms" => warmup_ms = number(value()?)?,
            "--measure-ms" => measure_ms = number(value()?)?,
            "--min-ops" => min_ops = number(value()?)? as usize,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if segment {
        let workload = *workloads.first().ok_or("--segment needs --workload")?;
        return Ok(Mode::Segment(Plan {
            workload,
            seed,
            index,
            warmup: Duration::from_millis(warmup_ms),
            measure: Duration::from_millis(measure_ms),
            min_ops,
        }));
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    let default = if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    Ok(Mode::Run(Config {
        workloads,
        seed,
        seconds: seconds.unwrap_or(default),
        trace,
        quick,
    }))
}

/// `target/benchmark` (or `$CARGO_TARGET_DIR/benchmark`): next to the
/// executable's profile directory, so nothing is written outside the
/// build's target directory.
fn bench_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// A per-process scratch directory, removed on drop (so on panic too).
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = bench_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Mode::Run(config)) => run(&config).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            2
        }),
        Ok(Mode::Segment(plan)) => segment_child(plan),
        Ok(Mode::Compare(old, new)) => compare(&old, &new).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            2
        }),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// The `--segment` child: runs one segment and prints its result as the
/// last line of standard output.
fn segment_child(plan: Plan) -> i32 {
    let outcome = Scratch::new().and_then(|scratch| segment::run(plan, &scratch.0));
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json().to_line());
            0
        }
        Err(e) => {
            eprintln!(
                "benchmark: {} segment {}: {e}",
                plan.workload.name(),
                plan.index
            );
            1
        }
    }
}

/// Runs one segment in a fresh child process and waits for it.
fn spawn_segment(plan: Plan) -> Result<SegmentResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let ms = |d: Duration| d.as_millis().to_string();
    let out = Command::new(exe)
        .args(["--segment", "--workload", plan.workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--index", &plan.index.to_string()])
        .args(["--warmup-ms", &ms(plan.warmup)])
        .args(["--measure-ms", &ms(plan.measure)])
        .args(["--min-ops", &plan.min_ops.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a segment: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{} segment {} exited with {}",
            plan.workload.name(),
            plan.index,
            out.status
        ));
    }
    Json::parse(last)
        .ok()
        .as_ref()
        .and_then(SegmentResult::from_json)
        .ok_or_else(|| format!("unreadable segment result: {last}"))
}

/// Segments that recorded too few ops for their p99, as failures.
fn op_floor_failures(workload: Workload, segments: &[SegmentResult], floor: usize) -> Vec<String> {
    segments
        .iter()
        .enumerate()
        .filter(|(_, s)| (s.ops as usize) < floor)
        .map(|(i, s)| {
            format!(
                "{} segment {i} recorded {} ops; p99 needs at least {floor}",
                workload.name(),
                s.ops
            )
        })
        .collect()
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    /// Ops that failed: an error response, a wrong id, a dead connection
    /// or a wrong answer.
    failed: u64,
    /// What went wrong, including checks that fail the run without
    /// failing an op (the op floor, counts that drift between passes).
    errors: Vec<String>,
    /// (workload, metric, value, unit)
    metrics: Vec<(Workload, &'static str, f64, &'static str)>,
}

fn run(config: &Config) -> Result<i32, String> {
    let scratch = Scratch::new()?;
    let segments = if config.quick { 1 } else { SEGMENTS };
    let floor = if config.quick { 1 } else { MIN_SEGMENT_OPS };
    let per_segment = config.seconds / segments as f64;
    let warmup = WARMUP_S.min(per_segment / 5.0);
    let plan = |workload, index| Plan {
        workload,
        seed: config.seed,
        index,
        warmup: Duration::from_secs_f64(warmup),
        measure: Duration::from_secs_f64(per_segment - warmup),
        min_ops: floor,
    };
    let mut report = Report::default();
    let mut entries: Vec<(Workload, &str, Json)> = Vec::new();

    if config.trace {
        for &w in &config.workloads {
            let started = Instant::now();
            let segment = spawn_segment(plan(w, 0))?;
            report.attempted += segment.attempted;
            report.failed += segment.failed;
            report.errors.extend(segment.errors.iter().cloned());
            let trace_file = bench_dir().join(format!("trace-{}.jsonl", w.name()));
            let deadline = started + Duration::from_secs_f64(config.seconds);
            let outcome = trace::run(w, config.seed, &segment, deadline, &scratch.0, &trace_file)?;
            report.attempted += outcome.attempted;
            report.failed += outcome.failed;
            report.errors.extend(outcome.errors);
            eprintln!(
                "{}: {} traced passes, spans in {}",
                w.name(),
                outcome.passes,
                trace_file.display()
            );
            let mut layer = Vec::new();
            for (name, unit) in PER_LAYER {
                let value = *outcome
                    .metrics
                    .get(name)
                    .ok_or(format!("the traced run produced no {name}"))?;
                println!("{} {name} {value} {unit}", w.name());
                report.metrics.push((w, name, value, unit));
                layer.push((name, Json::Num(value)));
            }
            entries.push((w, "per_layer", Json::obj(layer)));
        }
    } else {
        // Segments interleave round-robin across workloads, so a slow
        // spell on a shared machine lands on every workload alike.
        let mut results: Vec<Vec<SegmentResult>> = vec![Vec::new(); config.workloads.len()];
        for index in 0..segments {
            for (k, &w) in config.workloads.iter().enumerate() {
                results[k].push(spawn_segment(plan(w, index))?);
            }
        }
        for (&w, segs) in config.workloads.iter().zip(&results) {
            for s in segs {
                report.attempted += s.attempted;
                report.failed += s.failed;
                report.errors.extend(s.errors.iter().cloned());
            }
            report.errors.extend(op_floor_failures(w, segs, floor));
            let ops: Vec<String> = segs.iter().map(|s| s.ops.to_string()).collect();
            let mut e2e = Vec::new();
            for (name, unit) in END_TO_END {
                let pick: fn(&SegmentResult) -> f64 = match name {
                    "ops_per_s" => |s| s.ops_per_s,
                    "p50_ms" => |s| s.p50_ms,
                    "p99_ms" => |s| s.p99_ms,
                    "peak_rss_mb" => |s| s.peak_rss_mb,
                    _ => |s| s.setup_s,
                };
                let summary = Summary::of(&segs.iter().map(pick).collect::<Vec<_>>());
                println!(
                    "{} {name} {} {unit} (q1 {:.4}, q3 {:.4}; ops per segment {})",
                    w.name(),
                    summary.median,
                    summary.q1,
                    summary.q3,
                    ops.join(" ")
                );
                report.metrics.push((w, name, summary.median, unit));
                e2e.push((name, summary_json(&summary, unit)));
            }
            entries.push((w, "end_to_end", Json::obj(e2e)));
        }
    }
    drop(scratch);
    save_results(&bench_dir().join("results.json"), config.seed, &entries)?;
    for e in &report.errors {
        eprintln!("benchmark: FAILED: {e}");
    }
    let correct = report.failed == 0 && report.errors.is_empty();
    let single = config.workloads.len() == 1;
    let metrics = report
        .metrics
        .iter()
        .map(|&(w, name, value, unit)| {
            let key = if single {
                name.to_owned()
            } else {
                format!("{}/{name}", w.name())
            };
            (
                key,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(report.attempted.max(1))),
            ("failed", Json::num(report.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    );
    Ok(if correct { 0 } else { 1 })
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj(vec![
        ("unit", Json::str(unit)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        (
            "values",
            Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// Merges this run's per-workload entries into the results file, so runs
/// of single workloads add up to one file `--compare` can read.
fn save_results(path: &Path, seed: u64, entries: &[(Workload, &str, Json)]) -> Result<(), String> {
    let mut all = match std::fs::read_to_string(path).ok().map(|s| Json::parse(&s)) {
        Some(Ok(Json::Obj(pairs))) => pairs,
        _ => Vec::new(),
    };
    for (w, group, value) in entries {
        let name = w.name().to_owned();
        let slot = match all.iter().position(|(k, _)| *k == name) {
            Some(i) => i,
            None => {
                all.push((name, Json::Obj(Vec::new())));
                all.len() - 1
            }
        };
        let Json::Obj(fields) = &mut all[slot].1 else {
            all[slot].1 = Json::Obj(Vec::new());
            continue;
        };
        fields.retain(|(k, _)| k != group && k != "seed");
        fields.push(("seed".to_owned(), Json::num(seed)));
        fields.push(((*group).to_owned(), value.clone()));
    }
    let text = Json::Obj(all).to_line() + "\n";
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// (better-is-higher, bound) per end-to-end metric, from the definition.
fn bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let definition = Json::parse(DEFINITION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = definition
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric lacks a name")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => *b,
                _ => return Err(format!("{name} lacks a bound")),
            };
            Ok((name.to_owned(), (higher, bound)))
        })
        .collect()
}

/// `--compare OLD NEW`: each workload × end-to-end metric with both
/// medians and quartiles and a verdict against the definition's bound.
/// Exits 1 when any metric regressed.
fn compare(old: &Path, new: &Path) -> Result<i32, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (old, new) = (read(old)?, read(new)?);
    let bounds = bounds()?;
    let summary = |results: &Json, w: Workload, metric: &str| -> Option<Summary> {
        let values: Vec<f64> = results
            .get(w.name())?
            .get("end_to_end")?
            .get(metric)?
            .get("values")?
            .as_arr()?
            .iter()
            .filter_map(|v| match v {
                Json::Num(x) => Some(*x),
                _ => None,
            })
            .collect();
        (!values.is_empty()).then(|| Summary::of(&values))
    };
    let mut regressed = false;
    println!("workload metric old_median [q1 q3] new_median [q1 q3] unit verdict");
    for w in Workload::ALL {
        for (name, unit) in END_TO_END {
            let (Some(o), Some(n)) = (summary(&old, w, name), summary(&new, w, name)) else {
                continue;
            };
            let (higher, bound) = *bounds.get(name).ok_or(format!("no bound for {name}"))?;
            let v = verdict(&o, &n, higher, bound);
            regressed |= v == stats::Verdict::Regressed;
            println!(
                "{} {name} {:.4} [{:.4} {:.4}] {:.4} [{:.4} {:.4}] {unit} {}",
                w.name(),
                o.median,
                o.q1,
                o.q3,
                n.median,
                n.q1,
                n.q3,
                v.as_str()
            );
        }
    }
    Ok(i32::from(regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{salted, shared_pool, Reference};
    use crate::workload::Stream;
    use stcfa_lambda::Program;
    use stcfa_server::soak::percentile;

    fn names(definition: &Json, group: &str) -> Vec<(String, String)> {
        definition
            .get(group)
            .and_then(Json::as_arr)
            .expect("group present")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn the_definition_declares_exactly_the_metrics_the_harness_reports() {
        let definition = Json::parse(DEFINITION).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&definition, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&definition, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = definition
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(bounds().expect("bounds").len(), END_TO_END.len());
    }

    #[test]
    fn a_seeds_request_stream_is_byte_identical_across_runs() {
        let refs: Vec<Reference> = shared_pool(7).iter().map(Reference::build).collect();
        for w in Workload::ALL {
            let lines = |segment| {
                let mut s = Stream::new(w, 7, segment, 1, &refs);
                let mut out: Vec<String> = s.open().map(|o| o.lines).unwrap_or_default();
                for _ in 0..60 {
                    out.extend(s.next_op().lines);
                }
                out
            };
            assert_eq!(lines(0), lines(0), "{} stream drifted", w.name());
            assert_ne!(lines(0), lines(1), "{} segments share a stream", w.name());
        }
    }

    #[test]
    fn salted_sources_parse_to_the_unsalted_program() {
        for source in shared_pool(3) {
            let plain = Program::parse(&source.text).expect("pool parses");
            let salted = Program::parse(&salted(&source.text, 1, 42)).expect("salted parses");
            assert_eq!(plain.size(), salted.size(), "{}", source.name);
            assert_eq!(plain.label_count(), salted.label_count(), "{}", source.name);
        }
        // The request line carries exactly the salted text.
        let r = Reference::build(&shared_pool(3)[0]);
        let line = format!("{{\"op\":\"analyze\"{}}}", r.source_member(Some((1, 42))));
        let parsed = Json::parse(&line).expect("spliced line is JSON");
        assert_eq!(
            parsed.get("source").and_then(Json::as_str),
            Some(salted(&r.source, 1, 42).as_str())
        );
    }

    #[test]
    fn the_op_floor_leaves_ten_samples_beyond_nearest_rank_p99() {
        for n in [
            MIN_SEGMENT_OPS,
            MIN_SEGMENT_OPS + 1,
            2 * MIN_SEGMENT_OPS - 1,
        ] {
            let sorted: Vec<u64> = (1..=n as u64).collect();
            let p99 = percentile(&sorted, 99.0);
            assert!(sorted.iter().filter(|&&x| x > p99).count() >= 10, "n = {n}");
        }
        let seg = |ops| SegmentResult {
            ops,
            ..SegmentResult::default()
        };
        let segments = [seg(1500), seg(999), seg(1000)];
        let failures = op_floor_failures(Workload::SaveLint, &segments, MIN_SEGMENT_OPS);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("segment 1 recorded 999 ops"));
    }

    #[test]
    fn segment_results_round_trip_through_the_child_protocol() {
        let result = SegmentResult {
            attempted: 1300,
            failed: 2,
            ops_per_s: 411.25,
            mean_ms: 1.5,
            p50_ms: 1.0625,
            p99_ms: 9.5,
            setup_s: 0.125,
            peak_rss_mb: 88.5,
            shard_hit_frac: 0.5,
            cache_mb: 3.75,
            ops: 1234,
            errors: vec!["boom".to_owned()],
        };
        let line = result.to_json().to_line();
        let back = SegmentResult::from_json(&Json::parse(&line).expect("JSON"));
        assert_eq!(back, Some(result));
    }
}
