//! Snapshot of the lint report over the checked-in corpus: a pinned
//! digest of the machine-readable JSON output for every `corpus/*.ml`
//! file. Any rule change — new findings, reworded messages, span shifts —
//! must show up here as a reviewed digest change, never silently.
//! (`scripts/ci.sh` re-computes the same digest through the CLI.)

use stcfa::core::{Analysis, QueryEngine};
use stcfa::lambda::Program;
use stcfa::lint::{lint, render_json, LintOptions};

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    files.sort();
    files
}

fn report_for(file: &std::path::Path) -> String {
    let src = std::fs::read_to_string(file).expect("readable");
    let p = Program::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let a = Analysis::run(&p).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let engine = QueryEngine::freeze(&a);
    render_json(&lint(&p, &a, &engine, &LintOptions::default()))
}

fn corpus_digest() -> u64 {
    let mut bytes = Vec::new();
    for file in corpus_files() {
        let name = file
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(report_for(&file).as_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn corpus_lint_report_is_pinned() {
    let got = corpus_digest();
    let want: u64 = 0xaf1d_294b_46e8_5d4f;
    assert_eq!(
        got, want,
        "corpus lint report shifted: digest {got:#018x}, pinned {want:#018x}. \
         If the rule change is intentional, re-pin via `cargo test --test \
         lint_snapshot -- --ignored --nocapture` and review the new report."
    );
}

/// Print-on-demand helper for re-pinning: `cargo test --test lint_snapshot
/// -- --ignored --nocapture` prints the per-file reports and the combined
/// digest.
#[test]
#[ignore = "utility for regenerating the pinned digest above"]
fn print_current_reports() {
    for file in corpus_files() {
        println!("=== {}", file.display());
        print!("{}", report_for(&file));
    }
    println!("combined digest: {:#018x}", corpus_digest());
}
