//! Pretty-printer: renders AST nodes back to canonical Verilog text.
//!
//! Instrumentation passes build ASTs and use this printer to emit the
//! instrumented design; the output always re-parses to a structurally
//! identical AST (a property test in this crate enforces it).

// Every unwrap in this file is a `write!` into a `String`; `fmt::Write`
// for `String` is infallible, so none of them can fire.
#![allow(clippy::unwrap_used)]

use crate::ast::*;
use std::fmt::Write;

/// Prints a whole source file.
pub fn print(file: &SourceFile) -> String {
    let mut out = String::new();
    for (i, m) in file.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_module_into(m, &mut out);
    }
    out
}

/// Prints a single module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    print_module_into(m, &mut out);
    out
}

fn print_module_into(m: &Module, out: &mut String) {
    write!(out, "module {}", m.name).unwrap();
    if !m.params.is_empty() {
        out.push_str(" #(\n");
        for (i, p) in m.params.iter().enumerate() {
            let sep = if i + 1 == m.params.len() { "" } else { "," };
            writeln!(out, "  parameter {}{} = {}{}", range_str(&p.range), p.name, print_expr(&p.value), sep)
                .unwrap();
        }
        out.push(')');
    }
    if !m.ports.is_empty() {
        out.push_str(" (\n");
        for (i, port) in m.ports.iter().enumerate() {
            let sep = if i + 1 == m.ports.len() { "" } else { "," };
            let kind = match port.net.kind {
                NetKind::Reg => "reg ",
                NetKind::Wire => "",
            };
            let signed = if port.net.signed { "signed " } else { "" };
            writeln!(
                out,
                "  {} {}{}{}{}{}",
                port.dir.as_str(),
                kind,
                signed,
                range_str(&port.net.range),
                port.net.name,
                sep
            )
            .unwrap();
        }
        out.push(')');
    }
    out.push_str(";\n");
    for item in &m.items {
        print_item(item, out, 1);
    }
    out.push_str("endmodule\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn range_str(range: &Option<(Expr, Expr)>) -> String {
    match range {
        None => String::new(),
        Some((msb, lsb)) => format!("[{}:{}] ", print_expr(msb), print_expr(lsb)),
    }
}

fn print_item(item: &Item, out: &mut String, level: usize) {
    indent(out, level);
    match item {
        Item::Net(n) => {
            let kind = match n.kind {
                NetKind::Wire => "wire",
                NetKind::Reg => "reg",
            };
            let signed = if n.signed { " signed" } else { "" };
            let mem = match &n.mem_dim {
                None => String::new(),
                Some((lo, hi)) => format!(" [{}:{}]", print_expr(lo), print_expr(hi)),
            };
            let range = range_str(&n.range);
            writeln!(out, "{kind}{signed} {range}{}{mem};", n.name).unwrap();
        }
        Item::Param(p) => {
            writeln!(out, "parameter {}{} = {};", range_str(&p.range), p.name, print_expr(&p.value)).unwrap();
        }
        Item::Localparam(p) => {
            writeln!(out, "localparam {}{} = {};", range_str(&p.range), p.name, print_expr(&p.value)).unwrap();
        }
        Item::Assign { lhs, rhs, .. } => {
            writeln!(out, "assign {} = {};", print_lvalue(lhs), print_expr(rhs)).unwrap();
        }
        Item::Always { event, body, .. } => {
            match event {
                EventControl::Comb => out.push_str("always @(*) "),
                EventControl::Edges(edges) => {
                    let list = edges
                        .iter()
                        .map(|e| {
                            format!(
                                "{} {}",
                                if e.posedge { "posedge" } else { "negedge" },
                                e.signal
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(" or ");
                    write!(out, "always @({list}) ").unwrap();
                }
            }
            print_stmt(body, out, level, false);
        }
        Item::Instance(inst) => {
            write!(out, "{}", inst.module).unwrap();
            if !inst.params.is_empty() {
                let ps = inst
                    .params
                    .iter()
                    .map(|(n, e)| format!(".{n}({})", print_expr(e)))
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(out, " #({ps})").unwrap();
            }
            let cs = inst
                .conns
                .iter()
                .map(|(n, e)| match e {
                    Some(e) => format!(".{n}({})", print_expr(e)),
                    None => format!(".{n}()"),
                })
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(out, " {} ({cs});", inst.name).unwrap();
        }
    }
}

fn print_stmt(stmt: &Stmt, out: &mut String, level: usize, do_indent: bool) {
    if do_indent {
        indent(out, level);
    }
    match stmt {
        Stmt::Block(stmts) => {
            out.push_str("begin\n");
            for s in stmts {
                print_stmt(s, out, level + 1, true);
            }
            indent(out, level);
            out.push_str("end\n");
        }
        Stmt::If { cond, then, els } => {
            write!(out, "if ({}) ", print_expr(cond)).unwrap();
            print_stmt(then, out, level, false);
            if let Some(els) = els {
                indent(out, level);
                out.push_str("else ");
                print_stmt(els, out, level, false);
            }
        }
        Stmt::Case {
            kind,
            expr,
            arms,
            default,
            ..
        } => {
            let kw = match kind {
                CaseKind::Case => "case",
                CaseKind::Casez => "casez",
            };
            writeln!(out, "{kw} ({})", print_expr(expr)).unwrap();
            for arm in arms {
                indent(out, level + 1);
                let labels = arm
                    .labels
                    .iter()
                    .map(print_expr)
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(out, "{labels}: ").unwrap();
                print_stmt(&arm.body, out, level + 1, false);
            }
            if let Some(d) = default {
                indent(out, level + 1);
                out.push_str("default: ");
                print_stmt(d, out, level + 1, false);
            }
            indent(out, level);
            out.push_str("endcase\n");
        }
        Stmt::Assign {
            lhs,
            nonblocking,
            rhs,
            ..
        } => {
            let op = if *nonblocking { "<=" } else { "=" };
            writeln!(out, "{} {op} {};", print_lvalue(lhs), print_expr(rhs)).unwrap();
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            write!(
                out,
                "for ({var} = {}; {}; {var} = {}) ",
                print_expr(init),
                print_expr(cond),
                print_expr(step)
            )
            .unwrap();
            print_stmt(body, out, level, false);
        }
        Stmt::Display { format, args, .. } => {
            let escaped = format.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            write!(out, "$display(\"{escaped}\"").unwrap();
            for a in args {
                write!(out, ", {}", print_expr(a)).unwrap();
            }
            out.push_str(");\n");
        }
        Stmt::Finish => out.push_str("$finish;\n"),
        Stmt::Empty => out.push_str(";\n"),
    }
}

/// Prints an lvalue.
pub fn print_lvalue(lv: &LValue) -> String {
    match lv {
        LValue::Id(n) => n.clone(),
        LValue::Index(n, i) => format!("{n}[{}]", print_expr(i)),
        LValue::Range(n, msb, lsb) => {
            format!("{n}[{}:{}]", print_expr(msb), print_expr(lsb))
        }
        LValue::Concat(parts) => {
            let inner = parts
                .iter()
                .map(print_lvalue)
                .collect::<Vec<_>>()
                .join(", ");
            format!("{{{inner}}}")
        }
    }
}

/// Prints an expression with full parenthesization of nested operators,
/// so precedence never changes on re-parse.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Literal { value, signed } => {
            if *signed && value.width() == 32 {
                value.to_dec_string()
            } else {
                let s = if *signed { "s" } else { "" };
                format!("{}'{s}h{}", value.width(), value.to_hex_string())
            }
        }
        Expr::Ident(n) => n.clone(),
        Expr::Unary(op, inner) => format!("{}{}", op.as_str(), atom(inner)),
        Expr::Binary(op, l, r) => {
            format!("{} {} {}", atom(l), op.as_str(), atom(r))
        }
        Expr::Ternary(c, t, f) => {
            format!("{} ? {} : {}", atom(c), atom(t), atom(f))
        }
        Expr::Index(n, i) => format!("{n}[{}]", print_expr(i)),
        Expr::Range(n, msb, lsb) => format!("{n}[{}:{}]", print_expr(msb), print_expr(lsb)),
        Expr::Concat(parts) => {
            let inner = parts.iter().map(print_expr).collect::<Vec<_>>().join(", ");
            format!("{{{inner}}}")
        }
        Expr::Repeat(n, body) => format!("{{{}{{{}}}}}", print_expr(n), print_expr(body)),
        Expr::WidthCast(w, inner) => format!("{w}'({})", print_expr(inner)),
        Expr::SignCast(signed, inner) => format!(
            "{}({})",
            if *signed { "$signed" } else { "$unsigned" },
            print_expr(inner)
        ),
    }
}

/// Prints a subexpression, parenthesizing anything that is not atomic.
fn atom(e: &Expr) -> String {
    match e {
        Expr::Literal { .. }
        | Expr::Ident(_)
        | Expr::Index(_, _)
        | Expr::Range(_, _, _)
        | Expr::Concat(_)
        | Expr::Repeat(_, _)
        | Expr::WidthCast(_, _)
        | Expr::SignCast(_, _) => print_expr(e),
        _ => format!("({})", print_expr(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    #[test]
    fn print_expr_parenthesizes() {
        let e = parse_expr("a + b * c").unwrap();
        assert_eq!(print_expr(&e), "a + (b * c)");
        let e2 = parse_expr(&print_expr(&e)).unwrap();
        assert_eq!(print_expr(&e2), "a + (b * c)");
    }

    #[test]
    fn roundtrip_module() {
        let src = r#"module fifo #(parameter W = 8, parameter D = 4) (
            input clk, input rst, input wr, input [7:0] din,
            output reg [7:0] dout, output full);
          reg [1:0] wptr;
          reg [7:0] mem [0:3];
          localparam EMPTY = 2'd0;
          assign full = wptr == 2'd3;
          always @(posedge clk) begin
            if (rst) wptr <= 2'd0;
            else if (wr && !full) begin
              mem[wptr] <= din;
              wptr <= wptr + 2'd1;
              $display("wrote %h at %d", din, wptr);
            end
          end
        endmodule"#;
        let ast1 = parse(src).unwrap();
        let printed1 = print(&ast1);
        let ast2 = parse(&printed1).unwrap();
        let printed2 = print(&ast2);
        assert_eq!(printed1, printed2, "printer must be a fixpoint");
        assert_eq!(ast1.modules[0].items.len(), ast2.modules[0].items.len());
    }

    #[test]
    fn roundtrip_instance_and_for() {
        let src = "module top(input clk);
            wire [7:0] q;
            integer i;
            reg [7:0] acc;
            sub #(.N(4)) s0 (.clk(clk), .q(q), .nc());
            always @(*) begin
              acc = 8'd0;
              for (i = 0; i < 4; i = i + 1) acc = acc + q;
            end
          endmodule";
        let ast1 = parse(src).unwrap();
        let printed = print(&ast1);
        let ast2 = parse(&printed).unwrap();
        assert_eq!(print(&ast2), printed);
    }

    #[test]
    fn literal_printing() {
        assert_eq!(print_expr(&Expr::sized(8, 255)), "8'hff");
        assert_eq!(print_expr(&Expr::number(42)), "42");
        let e = parse_expr("64'hdead_beef_cafe_f00d").unwrap();
        assert_eq!(print_expr(&e), "64'hdeadbeefcafef00d");
        // A signed based literal keeps its `s`; a signed 32-bit one prints
        // as the decimal that parses back to it.
        for (src, printed) in [("8'sd3", "8'sh03"), ("'sh7f", "127"), ("'hff", "32'h000000ff")] {
            let e = parse_expr(src).unwrap();
            assert_eq!(print_expr(&e), printed, "{src}");
            assert_eq!(parse_expr(printed).unwrap(), e, "{src}");
        }
    }

    #[test]
    fn display_string_escaping() {
        let s = Stmt::Display {
            format: "a\"b\nc".into(),
            args: vec![],
            span: crate::span::Span::synthetic(),
            tag: None,
        };
        let mut out = String::new();
        print_stmt(&s, &mut out, 0, false);
        assert_eq!(out, "$display(\"a\\\"b\\nc\");\n");
    }
}
