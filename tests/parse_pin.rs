//! Pins the front end: one FNV-1a digest over everything the lexer and
//! parser produce for a fixed set of inputs.
//!
//! For every `corpus/*.ml` file, `life`, `lexgen` and 16 synthesized
//! programs, the digest absorbs the token stream (kind and span), every
//! parsed expression's kind and span (offset, line, column of both
//! ends), the binder names, the label → abstraction map and the
//! datatype environment. For every corpus file cut at every 37th byte it
//! absorbs the `Display` of the lex and parse errors the prefix yields.
//!
//! A lexer or parser change that moves any node, span, name or error
//! message shows up here as a digest change, never silently. Changes
//! that only make the front end faster must leave the digest alone.

use stcfa::lambda::lexer::lex;
use stcfa::lambda::{Program, Span};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa::workloads::{lexgen, life};
use stcfa_devkit::hash::Fnv1a;

const PINNED: u64 = 0x57eb_a36c_5c19_14ec;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable"))
        })
        .collect();
    out.sort();
    assert!(out.len() >= 8, "corpus should not shrink silently");
    out
}

/// Every program the pin parses whole: the corpus, `life`, `lexgen` and
/// 16 synthesized programs printed back to surface syntax.
fn programs() -> Vec<(String, String)> {
    let mut out = corpus();
    out.push(("life".to_owned(), life::SOURCE.to_owned()));
    out.push(("lexgen".to_owned(), lexgen::source(lexgen::DEFAULT_STATES)));
    for seed in 0..16u64 {
        let program = generate(&SynthConfig {
            seed,
            target_size: 300 + 50 * seed as usize,
            datatypes: seed % 2 == 0,
            ..SynthConfig::default()
        });
        out.push((format!("synth{seed}"), program.to_source()));
    }
    out
}

fn absorb_str(h: &mut Fnv1a, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

fn absorb_span(h: &mut Fnv1a, span: Option<Span>) {
    match span {
        None => h.write_u64(u64::MAX),
        Some(s) => {
            for pos in [s.start, s.end] {
                h.write_u64(pos.offset as u64);
                h.write_u64(u64::from(pos.line));
                h.write_u64(u64::from(pos.col));
            }
        }
    }
}

fn absorb_program(h: &mut Fnv1a, name: &str, source: &str) {
    absorb_str(h, name);
    let tokens = lex(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    h.write_u64(tokens.len() as u64);
    for (tok, span) in &tokens {
        absorb_str(h, &tok.to_string());
        absorb_span(h, Some(*span));
    }
    let p = Program::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    h.write_u64(p.size() as u64);
    h.write_u64(p.root().index() as u64);
    for e in p.exprs() {
        absorb_str(h, &format!("{:?}", p.kind(e)));
        absorb_span(h, p.span(e));
    }
    h.write_u64(p.var_count() as u64);
    for v in p.vars() {
        absorb_str(h, p.var_name(v));
    }
    h.write_u64(p.label_count() as u64);
    for l in p.all_labels() {
        h.write_u64(p.lam_of_label(l).index() as u64);
    }
    let env = p.data_env();
    let names = p.interner();
    for d in env.datas() {
        let info = env.data(d);
        absorb_str(h, names.resolve(info.name));
        absorb_str(h, &format!("{:?}", info.cons));
    }
    for c in env.cons() {
        let info = env.con(c);
        absorb_str(h, names.resolve(info.name));
        absorb_str(h, &format!("{:?} {:?}", info.data, info.arg_tys));
    }
}

/// Every 37th-byte prefix of every corpus file: the lex error and the
/// parse error (or the parsed size) each prefix yields.
fn absorb_prefix_errors(h: &mut Fnv1a, name: &str, source: &str) {
    absorb_str(h, name);
    for cut in (0..=source.len()).step_by(37) {
        if !source.is_char_boundary(cut) {
            continue;
        }
        let prefix = &source[..cut];
        h.write_u64(cut as u64);
        match lex(prefix) {
            Ok(tokens) => h.write_u64(tokens.len() as u64),
            Err(e) => absorb_str(h, &e.to_string()),
        }
        match Program::parse(prefix) {
            Ok(p) => h.write_u64(p.size() as u64),
            Err(e) => absorb_str(h, &e.to_string()),
        }
    }
}

fn front_end_digest() -> u64 {
    let mut h = Fnv1a::new();
    for (name, source) in programs() {
        absorb_program(&mut h, &name, &source);
    }
    for (name, source) in corpus() {
        absorb_prefix_errors(&mut h, &name, &source);
    }
    h.finish()
}

#[test]
fn front_end_output_is_pinned() {
    // The recursive-descent parser is deep on `lexgen` in debug builds.
    let digest = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(front_end_digest)
        .expect("spawn")
        .join()
        .expect("digest thread");
    assert_eq!(
        digest, PINNED,
        "front-end digest drifted: got {digest:#018x}; a lexer or parser \
         change moved a node, span, name or error message"
    );
}
