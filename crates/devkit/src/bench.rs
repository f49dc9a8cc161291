//! A criterion-shaped benchmark harness implementing the EXPERIMENTS.md
//! methodology: a warmup pass, then *fastest of N* timed runs (the paper:
//! "timings … represent the fastest of 10 runs"), with optional
//! machine-independent work counters riding along.
//!
//! Two front doors:
//!
//! - the [`criterion_group!`]/[`criterion_main!`] macros plus
//!   [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`] and [`Bencher`],
//!   a drop-in subset of the criterion API for the `harness = false`
//!   bench binaries. Each binary prints a summary table and writes
//!   machine-readable `BENCH_<binary>.json` at the workspace root;
//! - [`Report`], a plain recorder for non-bench binaries (the `tables`
//!   experiment driver) that want to emit the same JSON format.
//!
//! The JSON schema is one object `{"harness", "binary", "records": [...]}`
//! where each record carries `group`, `name`, `min_ns`, `median_ns`,
//! `mean_ns`, `samples`, and a `counters` object. Times are integer
//! nanoseconds so downstream tooling needs no float parsing. The file is
//! written by [`crate::json`] in canonical compact form with one record
//! per line ([`Json::to_rows`]).

use std::fmt::Display;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;

/// One measurement: timing statistics plus work counters.
#[derive(Clone, Debug)]
pub struct Record {
    /// Benchmark group (criterion group name, or experiment id).
    pub group: String,
    /// Benchmark name within the group (function/param, or a label).
    pub name: String,
    /// Fastest observed time, in nanoseconds (`None` for counter-only
    /// records).
    pub min_ns: Option<u128>,
    /// Median observed time, in nanoseconds.
    pub median_ns: Option<u128>,
    /// Mean observed time, in nanoseconds.
    pub mean_ns: Option<u128>,
    /// Number of timed runs the statistics summarize.
    pub samples: u32,
    /// Machine-independent work counters (name, value).
    pub counters: Vec<(String, u64)>,
}

/// The report file: one header object whose `records` array holds one
/// record per line ([`Json::to_rows`]).
fn records_to_json(harness: &str, binary: &str, records: &[Record]) -> String {
    let report = Json::obj(vec![
        ("harness", Json::str(harness)),
        ("binary", Json::str(binary)),
        (
            "records",
            Json::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ]);
    report.to_rows() + "\n"
}

/// Walks up from a crate's manifest dir to the workspace root (the first
/// ancestor containing a `Cargo.lock` or `.git`), so every binary writes
/// its `BENCH_*.json` to the same place regardless of invocation cwd.
pub fn workspace_root(manifest_dir: &str) -> PathBuf {
    let start = Path::new(manifest_dir);
    for dir in start.ancestors() {
        if dir.join("Cargo.lock").exists() || dir.join(".git").exists() {
            return dir.to_path_buf();
        }
    }
    start.to_path_buf()
}

fn fmt_ns(ns: u128) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

// ---------------------------------------------------------------------------
// Criterion-compatible surface
// ---------------------------------------------------------------------------

/// Identifies a benchmark within a group as `function/parameter` — the
/// subset of criterion's `BenchmarkId` the workspace uses.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id shown as `function/parameter`.
    pub fn new(function: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }
}

/// Times one closure: warmup, then `samples` timed runs.
pub struct Bencher {
    samples: u32,
    times: Vec<u128>,
}

impl Bencher {
    /// Runs `f` once untimed (warmup), then `samples` timed runs.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        black_box(f());
        self.times.clear();
        self.times.reserve(self.samples as usize);
        for _ in 0..self.samples {
            let t = Instant::now();
            black_box(f());
            self.times.push(t.elapsed().as_nanos());
        }
    }
}

/// A named group of benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u32,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed runs feed each measurement (default 10, the
    /// paper's methodology).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n as u32;
        self
    }

    fn record(&mut self, name: String, times: &[u128]) {
        assert!(!times.is_empty(), "Bencher::iter was never called");
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let rec = Record {
            group: self.name.clone(),
            name,
            min_ns: Some(sorted[0]),
            median_ns: Some(sorted[sorted.len() / 2]),
            mean_ns: Some(sorted.iter().sum::<u128>() / sorted.len() as u128),
            samples: times.len() as u32,
            counters: Vec::new(),
        };
        println!(
            "{:<40} fastest {:>12}  median {:>12}  ({} runs)",
            format!("{}/{}", rec.group, rec.name),
            fmt_ns(rec.min_ns.unwrap()),
            fmt_ns(rec.median_ns.unwrap()),
            rec.samples,
        );
        self.criterion.records.push(rec);
    }

    /// Benchmarks `f` with access to `input` (criterion's shape; the
    /// reference keeps setup out of the timed closure).
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher {
            samples: self.sample_size,
            times: Vec::new(),
        };
        f(&mut b, input);
        let times = std::mem::take(&mut b.times);
        self.record(id.id, &times);
        self
    }

    /// Benchmarks a closure with no external input.
    pub fn bench_function(
        &mut self,
        name: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher {
            samples: self.sample_size,
            times: Vec::new(),
        };
        f(&mut b);
        let times = std::mem::take(&mut b.times);
        self.record(name.to_string(), &times);
        self
    }

    /// Attaches a machine-independent work counter to the most recently
    /// recorded measurement (e.g. soak percentiles or request totals that
    /// a wall-clock min/median can't carry).
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        let rec = self
            .criterion
            .records
            .last_mut()
            .expect("counter() before any measurement was recorded");
        rec.counters.push((name.to_owned(), value));
        self
    }

    /// Ends the group (statistics were recorded as benches ran).
    pub fn finish(self) {}
}

/// Collects measurements for one bench binary and writes the JSON report.
pub struct Criterion {
    binary: String,
    out_path: PathBuf,
    records: Vec<Record>,
}

impl Criterion {
    /// A harness for the named binary; the report lands at
    /// `<workspace root>/BENCH_<binary>.json`. Use via [`criterion_main!`],
    /// which passes the Cargo-provided names.
    pub fn new(binary: &str, manifest_dir: &str) -> Criterion {
        let out_path = workspace_root(manifest_dir).join(format!("BENCH_{binary}.json"));
        Criterion {
            binary: binary.to_owned(),
            out_path,
            records: Vec::new(),
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        let name = name.to_string();
        println!("\n== group {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 10,
        }
    }

    /// Writes the JSON report; called by [`criterion_main!`] after all
    /// groups run.
    pub fn finalize(&self) {
        let json = records_to_json("stcfa-devkit", &self.binary, &self.records);
        match fs::write(&self.out_path, json) {
            Ok(()) => println!(
                "\n{} measurement(s) written to {}",
                self.records.len(),
                self.out_path.display()
            ),
            Err(e) => eprintln!("failed to write {}: {e}", self.out_path.display()),
        }
    }
}

/// Bundles benchmark functions into a group runner, criterion-style:
/// `criterion_group!(benches, bench_a, bench_b);`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::bench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for a bench binary: runs the groups, prints the
/// summary, writes `BENCH_<binary>.json` at the workspace root.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::new(
                env!("CARGO_CRATE_NAME"),
                env!("CARGO_MANIFEST_DIR"),
            );
            $($group(&mut c);)+
            c.finalize();
        }
    };
}

// ---------------------------------------------------------------------------
// Report: the same JSON from non-bench drivers (the `tables` binary)
// ---------------------------------------------------------------------------

/// A plain recorder producing the harness's JSON format from ordinary
/// code — the `tables` experiment driver uses it to publish per-experiment
/// times and work counters alongside its human-readable tables.
#[derive(Debug, Default)]
pub struct Report {
    records: Vec<Record>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a timed measurement (`fastest of N` upstream; pass the
    /// duration actually selected and how many runs produced it).
    pub fn time(
        &mut self,
        group: &str,
        name: impl Display,
        fastest: std::time::Duration,
        samples: u32,
    ) -> &mut Record {
        self.records.push(Record {
            group: group.to_owned(),
            name: name.to_string(),
            min_ns: Some(fastest.as_nanos()),
            median_ns: None,
            mean_ns: None,
            samples,
            counters: Vec::new(),
        });
        self.records.last_mut().expect("just pushed")
    }

    /// Records a counter-only measurement (no wall-clock component).
    pub fn counters(&mut self, group: &str, name: impl Display, counters: &[(&str, u64)]) {
        self.records.push(Record {
            group: group.to_owned(),
            name: name.to_string(),
            min_ns: None,
            median_ns: None,
            mean_ns: None,
            samples: 0,
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Number of records accumulated so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the report (`binary` names the producer).
    pub fn to_json(&self, binary: &str) -> String {
        records_to_json("stcfa-devkit", binary, &self.records)
    }

    /// Writes the report to `path`.
    pub fn write_json(&self, binary: &str, path: &Path) -> std::io::Result<()> {
        fs::write(path, self.to_json(binary))
    }
}

impl Record {
    /// Attaches a work counter to a timed record (builder-style).
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Record {
        self.counters.push((name.to_owned(), value));
        self
    }

    /// The record's JSON object: `group`, `name`, the three times
    /// (`null` when absent), `samples` and the `counters` object.
    fn to_json(&self) -> Json {
        let ns = |v: Option<u128>| v.map_or(Json::Null, |n| Json::Num(n as f64));
        Json::obj(vec![
            ("group", Json::str(self.group.as_str())),
            ("name", Json::str(self.name.as_str())),
            ("min_ns", ns(self.min_ns)),
            ("median_ns", ns(self.median_ns)),
            ("mean_ns", ns(self.mean_ns)),
            ("samples", Json::num(u64::from(self.samples))),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bencher_collects_fastest_of_n() {
        let mut c = Criterion::new("selftest", env!("CARGO_MANIFEST_DIR"));
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(5);
            let mut runs = 0u32;
            g.bench_function("spin", |b| {
                b.iter(|| {
                    runs += 1;
                    std::thread::sleep(Duration::from_micros(100));
                })
            });
            // warmup + 5 samples
            assert_eq!(runs, 6);
            g.finish();
        }
        assert_eq!(c.records.len(), 1);
        let r = &c.records[0];
        assert_eq!(r.samples, 5);
        assert!(r.min_ns.unwrap() >= 100_000, "sleep under-measured");
        assert!(r.min_ns <= r.median_ns);
    }

    #[test]
    fn group_counters_attach_to_the_last_record() {
        let mut c = Criterion::new("selftest", env!("CARGO_MANIFEST_DIR"));
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(1);
            g.bench_function("first", |b| b.iter(|| 1 + 1));
            g.bench_function("second", |b| b.iter(|| 2 + 2));
            g.counter("p99_ns", 1234).counter("requests", 2048);
            g.finish();
        }
        assert!(c.records[0].counters.is_empty());
        assert_eq!(
            c.records[1].counters,
            vec![("p99_ns".to_owned(), 1234), ("requests".to_owned(), 2048)]
        );
        let json = records_to_json("stcfa-devkit", "selftest", &c.records);
        assert!(json.contains("\"counters\":{\"p99_ns\":1234,\"requests\":2048}"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut rep = Report::new();
        rep.time("E1", "weird \"name\"\n", Duration::from_nanos(1234), 10)
            .counter("work", 42);
        rep.counters("E2", "only-counters", &[("nodes", 7)]);
        let json = rep.to_json("tables");
        assert!(json.contains("\"min_ns\":1234"));
        assert!(json.contains("\\\"name\\\"\\n"));
        assert!(json.contains("\"work\":42"));
        assert!(json.contains("\"min_ns\":null"));
        // One header line, one line per record, one closing line.
        assert_eq!(json.lines().count(), 4, "{json}");
        assert!(
            json.starts_with("{\"harness\":\"stcfa-devkit\",\"binary\":\"tables\",\"records\":[\n")
        );
        let parsed = Json::parse(&json).expect("the report is one JSON document");
        assert_eq!(
            parsed.get("records").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn benchmark_id_formats_function_slash_param() {
        assert_eq!(BenchmarkId::new("sba_total", 64).id, "sba_total/64");
    }

    #[test]
    fn workspace_root_finds_repo() {
        let root = workspace_root(env!("CARGO_MANIFEST_DIR"));
        assert!(root.join("Cargo.toml").exists());
        assert!(!root.ends_with("devkit"), "should walk above the crate");
    }
}
