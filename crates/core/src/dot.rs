//! Graphviz (DOT) export of the subtransitive control-flow graph, for
//! inspection and documentation. Abstractions are drawn as boxes, operator
//! nodes (`dom`/`ran`/`proj`/de-constructors) as ellipses, class nodes as
//! diamonds.

use std::fmt::Write as _;

use stcfa_lambda::{ExprKind, Program};

use crate::analysis::Analysis;
use crate::node::{NodeId, NodeKind};

/// A short human-readable description of a node.
pub fn describe(analysis: &Analysis, program: &Program, n: NodeId) -> String {
    match analysis.nodes().kind(n) {
        NodeKind::Expr(e) => match program.kind(e) {
            ExprKind::Lam { label, .. } => program.label_name(*label),
            ExprKind::App { .. } => format!("app@{}", e.index()),
            ExprKind::Record(_) => format!("record@{}", e.index()),
            ExprKind::Con { con, .. } => format!(
                "{}@{}",
                program
                    .interner()
                    .resolve(program.data_env().con(*con).name),
                e.index()
            ),
            ExprKind::Lit(l) => format!("{l:?}@{}", e.index()),
            other => {
                let mut name = format!("{other:?}");
                name.truncate(name.find([' ', '{']).unwrap_or(name.len()));
                format!("{}@{}", name.to_lowercase(), e.index())
            }
        },
        NodeKind::Binder(v) => format!("var {}", program.var_name(v)),
        NodeKind::Dom(p) => format!("dom({})", describe(analysis, program, p)),
        NodeKind::Ran(p) => format!("ran({})", describe(analysis, program, p)),
        NodeKind::Proj(j, p) => format!("proj{}({})", j + 1, describe(analysis, program, p)),
        NodeKind::DeCon { con, index, of } => format!(
            "{}⁻¹[{}]({})",
            program.interner().resolve(program.data_env().con(con).name),
            index,
            describe(analysis, program, of)
        ),
        NodeKind::DataClass(d) => format!(
            "class {}",
            program.interner().resolve(program.data_env().data(d).name)
        ),
        NodeKind::Slot(c, i) => format!(
            "slot {}[{}]",
            program.interner().resolve(program.data_env().con(c).name),
            i
        ),
        NodeKind::DeConClass { data, base } => format!(
            "chains {}@{}",
            program
                .interner()
                .resolve(program.data_env().data(data).name),
            base.index()
        ),
        NodeKind::TopFun => "⊤fun".into(),
    }
}

/// Renders the whole graph in DOT syntax.
pub fn render(analysis: &Analysis, program: &Program) -> String {
    let mut out = String::from("digraph subtransitive {\n  rankdir=LR;\n  node [fontsize=10];\n");
    for i in 0..analysis.node_count() {
        let n = NodeId::from_index(i);
        let shape = match analysis.nodes().kind(n) {
            NodeKind::Expr(e) if matches!(program.kind(e), ExprKind::Lam { .. }) => "box",
            NodeKind::Expr(_) | NodeKind::Binder(_) => "plaintext",
            NodeKind::DataClass(_)
            | NodeKind::Slot(..)
            | NodeKind::DeConClass { .. }
            | NodeKind::TopFun => "diamond",
            _ => "ellipse",
        };
        let label = describe(analysis, program, n).replace('"', "'");
        writeln!(out, "  n{i} [label=\"{label}\", shape={shape}];").unwrap();
    }
    for i in 0..analysis.node_count() {
        for &s in analysis.succs(NodeId::from_index(i)) {
            writeln!(out, "  n{i} -> n{s};").unwrap();
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_worked_example() {
        let p = Program::parse("(fn x => x x) (fn y => y)").unwrap();
        let a = Analysis::run(&p).unwrap();
        let dot = render(&a, &p);
        assert!(dot.starts_with("digraph subtransitive {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("λx#0"));
        assert!(dot.contains("dom(λx#0)"));
        assert!(dot.contains("->"));
        // One node statement per graph node.
        let node_lines = dot.lines().filter(|l| l.contains("[label=")).count();
        assert_eq!(node_lines, a.node_count());
    }

    #[test]
    fn describes_class_nodes() {
        let p = Program::parse(
            "datatype flist = FNil | FCons of (int -> int) * flist;\n\
             case FCons(fn a => a, FNil) of FCons(f, t) => f | FNil => fn z => z",
        )
        .unwrap();
        let a = Analysis::run(&p).unwrap();
        let dot = render(&a, &p);
        assert!(dot.contains("class flist") || dot.contains("slot FCons"));
    }
}
