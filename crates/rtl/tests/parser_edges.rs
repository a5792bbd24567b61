//! Parser edge cases beyond the unit tests: error reporting, tricky token
//! sequences, and multi-module files.

use hwdbg_rtl::{parse, parse_expr, print, print_expr, CaseKind, Expr, Item, Stmt};

#[test]
fn multi_module_file_order_preserved() {
    let f = parse(
        "module a(input x); endmodule
         module b(input y); endmodule
         module c(input z); endmodule",
    )
    .unwrap();
    let names: Vec<_> = f.modules.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, vec!["a", "b", "c"]);
    assert!(f.module("b").is_some());
    assert!(f.module("d").is_none());
}

#[test]
fn casez_parses_and_prints() {
    let src = "module m(input clk, input [3:0] s, output reg q);
        always @(posedge clk)
            casez (s)
                4'd1: q <= 1'b1;
                default: q <= 1'b0;
            endcase
    endmodule";
    let f = parse(src).unwrap();
    let Item::Always { body, .. } = &f.modules[0].items[0] else {
        panic!()
    };
    assert!(matches!(
        body,
        Stmt::Case {
            kind: CaseKind::Casez,
            ..
        }
    ));
    assert!(print(&f).contains("casez"));
}

#[test]
fn deeply_nested_expression() {
    let mut src = String::from("a");
    for _ in 0..40 {
        src = format!("({src} + 1)");
    }
    let e = parse_expr(&src).unwrap();
    assert_eq!(parse_expr(&print_expr(&e)).unwrap(), e);
}

#[test]
fn comments_between_any_tokens() {
    let src = "module /*x*/ m (input /*y*/ clk); // trailing
        reg /* multi
        line */ q;
        always @(posedge clk) q <= /*v*/ ~q;
    endmodule";
    assert!(parse(src).is_ok());
}

#[test]
fn error_spans_point_into_source() {
    let src = "module m(input clk);\n  wire w = ;\nendmodule";
    let err = parse(src).unwrap_err();
    let rendered = err.render(src);
    assert!(rendered.contains("line 2"), "{rendered}");
}

#[test]
fn reserved_words_rejected_as_identifiers() {
    assert!(parse("module module(input clk); endmodule").is_err());
    assert!(parse_expr("case + 1").is_err());
}

#[test]
fn unary_chains_and_reductions() {
    let e = parse_expr("~^x").unwrap();
    assert!(matches!(e, Expr::Unary(hwdbg_rtl::UnaryOp::RedXnor, _)));
    let e = parse_expr("!!x").unwrap();
    assert_eq!(print_expr(&e), "!(!x)");
    let e = parse_expr("&b | ^c").unwrap();
    assert!(matches!(e, Expr::Binary(hwdbg_rtl::BinaryOp::Or, _, _)));
}

#[test]
fn shift_tower_is_left_associative() {
    let e = parse_expr("a << 1 << 2").unwrap();
    assert_eq!(print_expr(&e), "(a << 1) << 2");
}

#[test]
fn ternary_is_right_associative() {
    let e = parse_expr("a ? b : c ? d : e").unwrap();
    assert_eq!(print_expr(&e), "a ? b : (c ? d : e)");
}

#[test]
fn empty_port_list_and_body() {
    let f = parse("module m(); endmodule module n; endmodule").unwrap();
    assert_eq!(f.modules.len(), 2);
    assert!(f.modules[0].ports.is_empty());
}

#[test]
fn signed_decls_roundtrip() {
    let src = "module m(input clk, input signed [7:0] a);
        reg signed [15:0] acc;
        always @(posedge clk) acc <= acc + a;
    endmodule";
    let f = parse(src).unwrap();
    assert!(f.modules[0].nets().find(|n| n.name == "acc").unwrap().signed);
    let printed = print(&f);
    assert!(printed.contains("reg signed"));
    assert_eq!(print(&parse(&printed).unwrap()), printed);
}

#[test]
fn display_with_no_args() {
    let src = r#"module m(input clk);
        always @(posedge clk) $display("tick");
    endmodule"#;
    assert!(parse(src).is_ok());
}

#[test]
fn instance_without_params_or_conns() {
    let src = "module m(input clk); sub s0 (); endmodule";
    let f = parse(src).unwrap();
    let Item::Instance(i) = &f.modules[0].items[0] else {
        panic!()
    };
    assert!(i.conns.is_empty());
    assert!(i.params.is_empty());
}

// ---------------------------------------------------------------------------
// Negative cases: malformed source must surface as typed, spanned
// diagnostics (hwdbg-diag E0101), never as panics.
// ---------------------------------------------------------------------------

#[test]
fn parse_error_converts_to_spanned_diagnostic() {
    let src = "module m(input clk);\n  assign x = ;\nendmodule";
    let err = parse(src).unwrap_err();
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::ParseFailed);
    assert_eq!(diag.code.as_str(), "E0101");
    assert!(diag.span.is_some(), "parse errors must carry their span");
}

#[test]
fn parse_error_renders_with_source_excerpt() {
    let src = "module m(input clk);\n  wire [3:0 a;\nendmodule";
    let err = parse(src).unwrap_err();
    let diag: hwdbg_diag::HwdbgError = err.into();
    let rendered = diag.render(Some(src));
    assert!(rendered.contains("E0101"), "{rendered}");
    assert!(
        rendered.contains("wire [3:0 a;"),
        "rendered diagnostic must excerpt the offending line: {rendered}"
    );
}

#[test]
fn truncated_module_is_a_typed_error() {
    for src in [
        "module m(input clk);",
        "module m(input clk); always @(posedge clk)",
        "module",
        "module m(input clk); assign = 1; endmodule",
        "module m(input [7:0); endmodule",
    ] {
        let err = parse(src).unwrap_err();
        let diag: hwdbg_diag::HwdbgError = err.into();
        assert_eq!(diag.code, hwdbg_diag::ErrorCode::ParseFailed, "src: {src}");
    }
}

#[test]
fn garbage_expression_is_a_typed_error() {
    for src in ["a +", "(a", "a ? b", "[3:0]", "&&& q"] {
        let err = parse_expr(src).unwrap_err();
        let diag: hwdbg_diag::HwdbgError = err.into();
        assert_eq!(diag.code, hwdbg_diag::ErrorCode::ParseFailed, "src: {src}");
    }
}

#[test]
fn string_literals_keep_utf8_and_print_parse_is_a_fixpoint() {
    let src = "module m(input clk, input [3:0] c);
        always @(posedge clk) $display(\"café %d \\\"€\\\" \\é\", c);
    endmodule";
    let f = parse(src).unwrap();
    let Item::Always { body, .. } = &f.modules[0].items[0] else {
        panic!()
    };
    let Stmt::Display { format, .. } = body else {
        panic!("{body:?}")
    };
    assert_eq!(format, "café %d \"€\" é");
    let printed = print(&f);
    assert!(printed.contains("$display(\"café %d \\\"€\\\" é\", c);"), "{printed}");
    assert_eq!(print(&parse(&printed).unwrap()), printed);
}

#[test]
fn non_ascii_outside_a_string_is_named_whole() {
    for (src, ch) in [("a é b", "é"), ("a + € ", "€"), ("x = 𝔵;", "𝔵")] {
        let err = parse_expr(src).unwrap_err();
        let start = src.find(ch).unwrap();
        assert_eq!(err.message, format!("unexpected character `{ch}`"), "src: {src}");
        assert_eq!((err.span.start, err.span.end), (start, start + ch.len()), "src: {src}");
        assert_eq!(&src[err.span.start..err.span.end], ch);
    }
}

// ---------------------------------------------------------------------------
// Exact diagnostics: the message and byte span of each parser error,
// across every dispatch site (module item, statement, `$display` format,
// primary expression, system task and function names).
// ---------------------------------------------------------------------------

/// `(source, is a whole file, message, span start, span end)`.
const MALFORMED: &[(&str, bool, &str, usize, usize)] = &[
    ("module m; 42; endmodule", true, "expected module item, found number `42`", 10, 12),
    ("module m; \"text\"; endmodule", true, "expected module item, found string literal", 10, 16),
    ("module m; $display(\"x\"); endmodule", true, "expected module item, found `$display`", 10, 18),
    ("module m; always @(*) endmodule", true, "expected statement, found keyword `endmodule`", 22, 31),
    ("module m; always @(*) 5; endmodule", true, "expected statement, found number `5`", 22, 23),
    ("module m; always @(*) $display(x); endmodule", true, "expected format string, found identifier `x`", 31, 32),
    ("module m; always @(*) $display(8'd3, x); endmodule", true, "expected format string, found number `8'd3`", 31, 35),
    ("module m; always @(*) $display; endmodule", true, "expected `(`, found `;`", 30, 31),
    ("module m; always @(*) $monitor(x); endmodule", true, "unsupported system task `$monitor`", 30, 31),
    ("module m; always @(*) $fatal; endmodule", true, "unsupported system task `$fatal`", 28, 29),
    ("module m; always @(*) for (i = 0; i < 4; j = j + 1) x = 1; endmodule", true, "for-loop step must assign the loop variable", 43, 44),
    ("module m; reg [7:0] mem [0:3], other; endmodule", true, "memory declarations must declare one name each", 29, 30),
    ("module m(input clk); always @(clk) x = 1; endmodule", true, "expected `posedge`, `negedge`, or `*` in sensitivity list", 30, 33),
    ("a + )", false, "expected expression, found `)`", 4, 5),
    ("a + begin", false, "expected expression, found keyword `begin`", 4, 9),
    ("{a, }", false, "expected expression, found `}`", 4, 5),
    ("$clog2(8)", false, "unsupported system function `$clog2`", 6, 7),
    ("$time", false, "unsupported system function `$time`", 5, 5),
    ("99999999999'(a)", false, "bad cast width", 15, 15),
    ("0'(a)", false, "cast width must be positive", 5, 5),
    ("x[3:]", false, "expected expression, found `]`", 4, 5),
    ("\"str\"", false, "expected expression, found string literal", 0, 5),
];

#[test]
fn malformed_inputs_pin_message_and_span() {
    for &(src, file, message, start, end) in MALFORMED {
        let err = if file {
            parse(src).map(|_| ()).unwrap_err()
        } else {
            parse_expr(src).map(|_| ()).unwrap_err()
        };
        assert_eq!(
            (err.message.as_str(), err.span.start, err.span.end),
            (message, start, end),
            "src: {src}"
        );
    }
}
