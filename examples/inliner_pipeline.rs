//! A miniature compiler pass built on the paper's linear-time analyses:
//! inline every call site whose target is *called exactly once* (the
//! called-once analysis of Sections 8–9, read off the frozen query
//! engine) with the optimizer's `inline-once` pass, then verify that
//! observable behaviour is unchanged.
//!
//! Run with: `cargo run --example inliner_pipeline`

use stcfa::lambda::eval::{eval, EvalOptions};
use stcfa::lambda::Program;
use stcfa::opt::{optimize, OptOptions, Pass, PassSet};

fn main() {
    let source = "\
        fun square n = n * n;\n\
        fun cube n = n * square n;\n\
        let val step = fn x => cube x + 1 in\n\
          print (step 3)\n\
        end";
    let program = Program::parse(source).expect("parses");
    println!("before:\n{}\n", program.to_source());

    let reference = eval(&program, EvalOptions::default()).expect("terminates");

    let options = OptOptions {
        passes: PassSet::only(Pass::InlineOnce),
        ..OptOptions::default()
    };
    let optimized = optimize(&program, &options).expect("bounded-type program");
    let report = &optimized.report;
    for pass in &report.passes {
        println!(
            "round {}: inlined {} called-once target(s)",
            pass.round, pass.performed
        );
    }

    // The pass must preserve observable behaviour.
    let now = eval(&optimized.program, EvalOptions::default()).expect("terminates");
    assert_eq!(
        now.outputs, reference.outputs,
        "inlining changed the output!"
    );

    println!(
        "\nafter {} rounds:\n{}",
        report.rounds,
        optimized.program.to_source()
    );
    println!(
        "\napplication sites: {} (was {})",
        optimized.program.app_sites().len(),
        program.app_sites().len()
    );
    println!(
        "nodes: {} (was {}); abstractions: {} (was {})",
        report.nodes_after, report.nodes_before, report.labels_after, report.labels_before
    );
    println!("printed output unchanged: {:?}", reference.outputs);
}
