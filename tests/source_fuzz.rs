//! Source-text fuzzing of the front end, in process.
//!
//! Each case draws one source text: token soup over the lexer's whole
//! alphabet (every keyword and delimiter, identifiers, comments, and
//! integers at 2³¹, 2³², `i64::MAX` and one past it), or a corpus
//! program mutated by truncation, deletion or duplication of a span,
//! byte flips (non-ASCII included) and wrapping just inside or just past
//! the parser's nesting limits. On every input:
//!
//! - `parse` does not panic;
//! - a program it accepts passes `validate`, and its `to_source`
//!   re-parses to a program of the same size and label count;
//! - a refusal's position lies within the source;
//! - when `lex` refuses the source, `parse` returns that same error.
//!
//! Each case runs on a thread with the daemon workers' 16 MiB stack,
//! which a debug build needs at the limits, and a panic on that thread
//! fails the case rather than the run.

use stcfa::lambda::lexer::lex;
use stcfa::lambda::parser::{ParseError, MAX_HEIGHT, MAX_NESTING};
use stcfa::lambda::validate::validate;
use stcfa::lambda::Program;
use stcfa_devkit::prelude::*;

/// The stack the daemon gives each request worker.
const WORKER_STACK: usize = 16 << 20;

const CORPUS: [&str; 9] = [
    include_str!("../corpus/closures_in_lists.ml"),
    include_str!("../corpus/dead_code.ml"),
    include_str!("../corpus/dispatch_table.ml"),
    include_str!("../corpus/effects.ml"),
    include_str!("../corpus/even_odd.ml"),
    include_str!("../corpus/higher_order.ml"),
    include_str!("../corpus/join_point.ml"),
    include_str!("../corpus/paper_example.ml"),
    stcfa::workloads::life::SOURCE,
];

/// Every keyword and delimiter, a few names, and comments.
const WORDS: &[&str] = &[
    "fn", "fun", "val", "rec", "let", "in", "end", "if", "then", "else", "case", "of", "datatype",
    "true", "false", "not", "print", "readint", "div", "and", "int", "bool", "unit", "=>", "->",
    "=", "(", ")", ",", "|", "#", "*", "+", "-", "<", "<=", ";", "_", "x", "y", "f", "x'", "_y",
    "T", "A", "B", "(* c *)", "-- c\n", "\n",
];

/// Integers at and past the widths the front end converts to.
const INTS: &[&str] = &[
    "0",
    "1",
    "3",
    "2147483648",
    "4294967295",
    "4294967296",
    "4294967297",
    "9223372036854775807",
    "9223372036854775808",
];

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

fn soup(rng: &mut Rng) -> String {
    let n = 1 + rng.below(40) as usize;
    let mut out = String::new();
    if rng.gen_bool(0.3) {
        out.push_str("datatype t = A | B of int;\n");
    }
    for _ in 0..n {
        let word = if rng.gen_bool(0.2) {
            pick(rng, INTS)
        } else {
            pick(rng, WORDS)
        };
        out.push_str(word);
        out.push(' ');
    }
    out
}

/// A projection whose field index is one of [`INTS`].
fn projection(rng: &mut Rng) -> String {
    let index = pick(rng, INTS);
    match rng.below(3) {
        0 => format!("#{index} (1, 2)"),
        1 => format!("val p = (1, true);\n#{index} p"),
        _ => format!("fn e => #{index} e"),
    }
}

/// Source nested to within a few levels of a limit, on either side.
fn wrapped(rng: &mut Rng) -> String {
    let near = |rng: &mut Rng, limit: usize| limit + rng.below(6) as usize - 3;
    match rng.below(5) {
        0 => {
            let n = near(rng, MAX_NESTING / 2);
            format!("{}1{}", "(".repeat(n), ")".repeat(n))
        }
        1 => format!("{}true", "not ".repeat(near(rng, MAX_NESTING))),
        2 => format!("{}x", "fn x => ".repeat(near(rng, MAX_NESTING))),
        3 => format!("{}x", "val x = 1;\n".repeat(near(rng, MAX_HEIGHT))),
        _ => {
            let n = near(rng, MAX_NESTING);
            format!("{}x{}", "let val x = 1 in ".repeat(n), " end".repeat(n))
        }
    }
}

/// A corpus program with one to three mutations.
fn mutated(rng: &mut Rng) -> String {
    let mut bytes = CORPUS[rng.below(CORPUS.len() as u64) as usize]
        .as_bytes()
        .to_vec();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len() as u64;
        if len == 0 {
            break;
        }
        let at = rng.below(len) as usize;
        let span = 1 + rng.below(40) as usize;
        let end = (at + span).min(bytes.len());
        match rng.below(5) {
            0 => bytes.truncate(at),
            1 => {
                bytes.drain(at..end);
            }
            2 => {
                let copy = bytes[at..end].to_vec();
                let to = rng.below(len) as usize;
                bytes.splice(to..to, copy);
            }
            3 => bytes[at] = rng.below(256) as u8,
            _ => {
                bytes.splice(at..at, "é".bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn source(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    match rng.below(8) {
        0..=2 => soup(&mut rng),
        3 => projection(&mut rng),
        4 => wrapped(&mut rng),
        _ => mutated(&mut rng),
    }
}

/// The four requirements on one source text.
fn check(source: &str) -> Result<(), String> {
    let lexed = lex(source).map(|tokens| tokens.len());
    match Program::parse(source) {
        Ok(program) => {
            if let Err(e) = lexed {
                return Err(format!("lex refused ({e}) but parse accepted"));
            }
            validate(&program).map_err(|e| format!("accepted program is invalid: {e}"))?;
            let printed = program.to_source();
            let again = Program::parse(&printed)
                .map_err(|e| format!("printed program does not re-parse: {e}\n{printed}"))?;
            if (again.size(), again.label_count()) != (program.size(), program.label_count()) {
                return Err(format!(
                    "re-parse changed size {} -> {} or labels {} -> {}\n{printed}",
                    program.size(),
                    again.size(),
                    program.label_count(),
                    again.label_count()
                ));
            }
            Ok(())
        }
        Err(e) => {
            if e.pos.offset > source.len() {
                return Err(format!("error past the end of the source: {e}"));
            }
            if let Err(lex_error) = lexed {
                let want = ParseError::from(lex_error);
                if e != want {
                    return Err(format!("lex refused with `{want}`, parse with `{e}`"));
                }
            }
            Ok(())
        }
    }
}

/// [`check`] on a thread with a worker's stack; a panic is a failure.
fn check_on_worker(source: String) -> Result<(), String> {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(move || check(&source))
        .expect("spawn")
        .join()
        .unwrap_or_else(|_| Err("the front end panicked".to_owned()))
}

#[test]
fn field_indices_past_u32_are_refused_at_the_integer() {
    for (src, at) in [("#4294967296 e", 1), ("#4294967297 e", 1)] {
        let err = Program::parse(src).expect_err(src);
        assert_eq!(err.pos.offset, at, "{src}: {err}");
        assert!(err.message.contains("field index"), "{src}: {err}");
    }
    check_on_worker("#4294967295 (1, 2)".to_owned()).expect("the largest index parses");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn front_end_survives_any_source(seed in any::<u64>()) {
        let src = source(seed);
        let verdict = check_on_worker(src.clone());
        prop_assert!(verdict.is_ok(), "seed {}: {}\nsource: {:?}", seed, verdict.unwrap_err(), src);
    }
}
