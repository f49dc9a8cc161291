//! Source at the parser's nesting limit runs through every consumer.
//!
//! The parser bounds its own recursion by
//! [`MAX_NESTING`](stcfa::lambda::parser::MAX_NESTING) and the height of
//! the tree it builds by [`MAX_HEIGHT`](stcfa::lambda::parser::MAX_HEIGHT).
//! Everything it accepts must then analyze, freeze, lint, optimize and
//! print without a consumer tripping over the depth. Each shape below is
//! the deepest instance of its kind that parses (one more level does
//! not), so every recursive walker meets the limits in each node kind
//! that can reach them, alone and stacked under a declaration chain.
//!
//! The walkers run here on a thread sized for debug-build frames. That
//! input at the limit fits a 2 MiB thread in a release build is checked
//! by ci.sh's deep-nesting smoke.

use stcfa::core::{Analysis, AnalysisError, QueryEngine};
use stcfa::lambda::parser::{MAX_HEIGHT, MAX_NESTING};
use stcfa::lambda::Program;
use stcfa::lint::{lint, LintOptions};
use stcfa::opt::{optimize, OptError, OptOptions};

/// The source of one nesting shape at `n` levels.
type Shape = fn(usize) -> String;

/// Every nesting shape, by name.
fn shapes() -> Vec<(&'static str, Shape)> {
    vec![
        ("fn", |n| format!("{}x", "fn x => ".repeat(n))),
        ("let", |n| {
            format!("{}x{}", "let val x = 1 in ".repeat(n), " end".repeat(n))
        }),
        ("val", |n| format!("{}x", "val x = 1;\n".repeat(n))),
        ("fun", |n| format!("{}f", "fun f x = x;\n".repeat(n))),
        ("curried", |n| {
            let params: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            format!("fun f {} = x0;\nf", params.join(" "))
        }),
        // A typed spine: n arguments to an n-parameter function.
        ("spine", |n| {
            let params: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            format!("fun f {} = x0;\nf{}", params.join(" "), " 1".repeat(n))
        }),
        ("nested-app", |n| {
            format!("fun f x = x;\n{}1{}", "f (".repeat(n), ")".repeat(n))
        }),
        ("sum", |n| format!("1{}", " + 1".repeat(n))),
        ("if", |n| format!("{}1", "if true then 1 else ".repeat(n))),
        ("case", |n| {
            format!(
                "datatype t = A | B;\n{}1",
                "case A of B => 2 | A => ".repeat(n)
            )
        }),
        ("record", |n| {
            format!("{}1{}", "(1, ".repeat(n), ")".repeat(n))
        }),
        ("not", |n| format!("{}true", "not ".repeat(n))),
        ("parens", |n| {
            format!("{}fn x => x{}", "(".repeat(n), ")".repeat(n))
        }),
        // Recursion under loops: the deepest recursive shapes, each at
        // the parser's limit, below the longest declaration chain that
        // keeps the tree within its height limit.
        ("vals+not", |n| {
            format!(
                "{}{}true",
                "val x = 1;\n".repeat(n),
                "not ".repeat(MAX_NESTING - 2)
            )
        }),
        ("vals+fn", |n| {
            format!(
                "{}{}x",
                "val x = 1;\n".repeat(n),
                "fn x => ".repeat(MAX_NESTING - 2)
            )
        }),
        ("vals+if", |n| {
            format!(
                "{}{}1",
                "val x = 1;\n".repeat(n),
                "if true then 1 else ".repeat(MAX_NESTING - 2)
            )
        }),
        ("vals+record", |n| {
            let k = MAX_NESTING / 2 - 1;
            format!(
                "{}{}1{}",
                "val x = 1;\n".repeat(n),
                "(1, ".repeat(k),
                ")".repeat(k)
            )
        }),
    ]
}

/// The largest `n` whose source parses, by bisection: every shape parses
/// at `n = 1` and none at `n = MAX_HEIGHT + 1`, and the first `n` that
/// does not parse is refused by one of the two limits.
fn deepest(shape: Shape) -> (usize, Program) {
    let (mut lo, mut hi) = (1, MAX_HEIGHT + 1);
    assert!(Program::parse(&shape(hi)).is_err());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if Program::parse(&shape(mid)).is_ok() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let err = Program::parse(&shape(hi)).unwrap_err();
    let limits = [MAX_NESTING, MAX_HEIGHT].map(|l| format!("limit of {l} levels"));
    assert!(limits.iter().any(|l| err.message.contains(l)), "{err}");
    (
        lo,
        Program::parse(&shape(lo)).expect("the deepest instance parses"),
    )
}

fn run_consumers(name: &str, program: &Program) {
    assert!(!program.to_source().is_empty(), "{name}");
    let analysis = match Analysis::run(program) {
        Ok(analysis) => analysis,
        Err(AnalysisError::BudgetExceeded { .. }) => {
            // A spine this long needs a type as large as itself, outside
            // the bounded-type class the linear analysis is for: it
            // refuses with its structured budget error, and so does the
            // optimizer, which analyzes first.
            assert_eq!(name, "spine", "only the spine may exceed the budget");
            let refused = optimize(program, &OptOptions::default());
            assert!(matches!(refused, Err(OptError::Analysis(_))), "{name}");
            return;
        }
    };
    let engine = QueryEngine::freeze(&analysis);
    engine.prepare();
    let labels = engine.labels_of(program.root());
    assert_eq!(labels, analysis.labels_of(program.root()), "{name}");
    lint(program, &analysis, &engine, &LintOptions::default());
    let optimized =
        optimize(program, &OptOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
    // `opt --emit` prints the result. The printed form is not re-parsed:
    // it can nest deeper than its source did (the printer parenthesizes
    // prefix operators and writes declaration chains as nested `let`s).
    assert!(!optimized.program.to_source().is_empty(), "{name}");
}

#[test]
fn source_at_the_nesting_limit_runs_every_consumer() {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            for (name, shape) in shapes() {
                let (n, program) = deepest(shape);
                assert!(n >= MAX_NESTING / 2 - 2, "{name}: only {n} levels parse");
                run_consumers(name, &program);
            }
        })
        .expect("spawn")
        .join()
        .expect("consumer thread");
}
