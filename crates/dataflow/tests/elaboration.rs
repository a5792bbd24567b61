//! Elaboration integration tests: deeper hierarchies, parameterized
//! instantiation chains, and the analysis invariants the tools rely on.

use hwdbg_dataflow::{
    elaborate, eval_const, DataflowError, DepKind, NoBlackboxes, PropGraph, SigKind,
};
use hwdbg_rtl::{parse, LValue, Stmt};

#[test]
fn parameter_overrides_chain_through_levels() {
    // Parameters computed from parameters, overridden per instance.
    let src = "
    module leaf #(parameter W = 2)(input [W-1:0] i, output [W-1:0] o);
        assign o = ~i;
    endmodule
    module mid #(parameter N = 4, parameter HALF = N / 2)(
        input [N-1:0] x, output [N-1:0] y);
        wire [HALF-1:0] lo;
        wire [HALF-1:0] hi;
        leaf #(.W(HALF)) l0 (.i(x[HALF-1:0]), .o(lo));
        leaf #(.W(HALF)) l1 (.i(x[N-1:HALF]), .o(hi));
        assign y = {hi, lo};
    endmodule
    module top(input [7:0] a, output [7:0] b);
        mid #(.N(8)) m0 (.x(a), .y(b));
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "top", &NoBlackboxes).unwrap();
    assert_eq!(d.signal("m0__l0__i").unwrap().width, 4);
    assert_eq!(d.signal("m0__l1__o").unwrap().width, 4);
    // HALF folded to 4 inside mid.
    assert_eq!(
        eval_const(
            &hwdbg_rtl::parse_expr("m0__HALF").unwrap_or(hwdbg_rtl::Expr::number(0)),
            &d.consts
        )
        .map(|b| b.to_u64())
        .unwrap_or(4),
        4
    );
}

#[test]
fn same_module_instantiated_twice_gets_distinct_names() {
    let src = "
    module stage(input clk, input [3:0] d, output reg [3:0] q);
        always @(posedge clk) q <= d;
    endmodule
    module top(input clk, input [3:0] a, output [3:0] z);
        wire [3:0] mid;
        stage s0 (.clk(clk), .d(a), .q(mid));
        stage s1 (.clk(clk), .d(mid), .q(z));
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "top", &NoBlackboxes).unwrap();
    assert!(d.signal("s0__q").is_some());
    assert!(d.signal("s1__q").is_some());
    assert_eq!(d.procs.len(), 2);
}

#[test]
fn duplicate_instance_names_rejected() {
    let src = "
    module leaf(input i, output o); assign o = i; endmodule
    module top(input a, output b, output c);
        leaf u (.i(a), .o(b));
        leaf u (.i(a), .o(c));
    endmodule";
    let err = elaborate(&parse(src).unwrap(), "top", &NoBlackboxes).unwrap_err();
    assert!(matches!(err.root(), DataflowError::DuplicateName(_)));
}

#[test]
fn output_port_concat_connection() {
    let src = "
    module pair(output [1:0] o); assign o = 2'b10; endmodule
    module top(output hi, output lo);
        pair p0 (.o({hi, lo}));
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "top", &NoBlackboxes).unwrap();
    assert_eq!(d.signal("hi").unwrap().kind, SigKind::Output);
}

#[test]
fn width_expressions_from_clog2_style_params() {
    let src = "
    module m #(parameter DEPTH = 24, parameter AW = 5)(
        input clk, input [AW-1:0] a, input [7:0] d);
        reg [7:0] mem [0:DEPTH-1];
        always @(posedge clk) mem[a] <= d;
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
    assert_eq!(d.signal("mem").unwrap().mem_depth, Some(24));
    assert_eq!(d.signal("a").unwrap().width, 5);
}

#[test]
fn propagation_survives_flattening() {
    let src = "
    module stage(input clk, input [7:0] d, input en, output reg [7:0] q);
        always @(posedge clk) if (en) q <= d;
    endmodule
    module top(input clk, input [7:0] x, input go, output [7:0] y);
        wire [7:0] mid;
        stage a (.clk(clk), .d(x), .en(go), .q(mid));
        stage b (.clk(clk), .d(mid), .en(go), .q(y));
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "top", &NoBlackboxes).unwrap();
    let g = PropGraph::build(&d, &NoBlackboxes).unwrap();
    let slice = g.back_slice("y", 3, &[DepKind::Data]);
    assert!(slice.contains_key("x"), "{slice:?}");
    assert_eq!(slice["a__q"], 1);
    assert_eq!(slice["x"], 2);
    // Control flows through `go` at each stage.
    let both = g.back_slice("y", 3, &[DepKind::Data, DepKind::Control]);
    assert!(both.contains_key("go"));
}

#[test]
fn expr_width_agrees_with_declared_signals() {
    let src = "module m(input [7:0] a, input [15:0] b, output [15:0] q);
        assign q = a + b;
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
    let e = hwdbg_rtl::parse_expr("a + b").unwrap();
    assert_eq!(d.expr_width(&e), Some(16));
    let e = hwdbg_rtl::parse_expr("a == b").unwrap();
    assert_eq!(d.expr_width(&e), Some(1));
    let e = hwdbg_rtl::parse_expr("{a, b}").unwrap();
    assert_eq!(d.expr_width(&e), Some(24));
    let e = hwdbg_rtl::parse_expr("ghost + 1").unwrap();
    assert_eq!(d.expr_width(&e), None);
}

#[test]
fn top_module_ports_keep_unprefixed_names() {
    let src = "module top(input clk, input [3:0] din, output reg [3:0] dout);
        always @(posedge clk) dout <= din;
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "top", &NoBlackboxes).unwrap();
    for name in ["clk", "din", "dout"] {
        assert!(d.signal(name).is_some(), "{name}");
    }
}

// ---------------------------------------------------------------------------
// Malformed designs: spanned, typed diagnostics instead of panics.
// ---------------------------------------------------------------------------

#[test]
fn duplicate_whole_signal_driver_rejected_with_span() {
    let src = "
    module m(input a, input b, output w);
        assign w = a;
        assign w = b;
    endmodule";
    let err = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap_err();
    assert!(
        matches!(err.root(), DataflowError::DuplicateDriver(n) if n == "w"),
        "{err:?}"
    );
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::DuplicateDriver);
    assert_eq!(diag.signals, vec!["w".to_string()]);
}

#[test]
fn partial_writes_from_distinct_drivers_stay_legal() {
    // Slice-wise multi-drive is how SignalCat assembles its payload wires;
    // it must NOT be flagged as a duplicate driver.
    let src = "
    module m(input a, input b, output [1:0] w);
        assign w[0] = a;
        assign w[1] = b;
    endmodule";
    assert!(elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).is_ok());
}

#[test]
fn zero_width_slice_rejected_with_span() {
    let src = "
    module m(input [7:0] a, output w);
        assign w = a[3:5];
    endmodule";
    let err = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap_err();
    assert!(
        matches!(err.root(), DataflowError::BadRange(_)),
        "{err:?}"
    );
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::BadRange);
}

#[test]
fn oversized_repeat_rejected_not_oom() {
    let src = "
    module m(input a, output w);
        assign w = |{1048577{a}};
    endmodule";
    let err = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap_err();
    assert!(
        matches!(err.root(), DataflowError::BadRange(_)),
        "{err:?}"
    );
}

#[test]
fn undriven_signal_lint_carries_decl_span() {
    let src = "
    module m(input clk, output reg q);
        wire ghost;
        always @(posedge clk) q <= ~q;
    endmodule";
    let d = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
    let lints = d.lints();
    let warn = lints
        .iter()
        .find(|w| w.signals.contains(&"ghost".to_string()))
        .expect("undriven `ghost` must be linted");
    assert_eq!(warn.code, hwdbg_diag::ErrorCode::UndrivenSignal);
    assert_eq!(warn.severity, hwdbg_diag::Severity::Warning);
    assert!(warn.span.is_some(), "lint must point at the declaration");
}

/// A one-IP library: a FIFO with an 8-bit `data` input and `q` output.
struct FifoLib(hwdbg_dataflow::BlackboxSpec);

impl FifoLib {
    fn new() -> Self {
        use hwdbg_dataflow::{BbDir, BbPort, BlackboxSpec, WidthSpec};
        let port = |name: &str, dir, is_clock| BbPort {
            name: name.into(),
            dir,
            width: WidthSpec::Const(if name == "clock" { 1 } else { 8 }),
            is_clock,
        };
        FifoLib(BlackboxSpec {
            name: "scfifo".into(),
            ports: vec![
                port("clock", BbDir::Input, true),
                port("data", BbDir::Input, false),
                port("q", BbDir::Output, false),
            ],
            relations: Vec::new(),
        })
    }
}

impl hwdbg_dataflow::BlackboxLib for FifoLib {
    fn spec(&self, module: &str) -> Option<&hwdbg_dataflow::BlackboxSpec> {
        (module == self.0.name).then_some(&self.0)
    }
}

#[test]
fn reversed_select_in_blackbox_connection_rejected_with_span() {
    for (conns, shown) in [
        (".data(d[0:7]), .q(w)", "part select `d[0:7]`"),
        (".data(d), .q(w[0:7])", "part select `w[0:7]`"),
    ] {
        let src = format!(
            "module m(input clk, input [7:0] d, output [7:0] w);
    scfifo f (.clock(clk), {conns});
endmodule"
        );
        let err = elaborate(&parse(&src).unwrap(), "m", &FifoLib::new()).unwrap_err();
        assert!(
            matches!(err.root(), DataflowError::BadRange(msg) if msg.contains(shown)),
            "{conns}: {err:?}"
        );
        let inst = src.find("scfifo").unwrap();
        assert_eq!(err.span().map(|s| s.start), Some(inst), "{conns}");
        let diag: hwdbg_diag::HwdbgError = err.into();
        assert_eq!(diag.code, hwdbg_diag::ErrorCode::BadRange);
    }
    // In-order bounds stay legal, and the lvalue width of a reversed
    // select is unknown rather than a wrapped-around number.
    let ok = "module m(input clk, input [7:0] d, output [7:0] w);
    scfifo f (.clock(clk), .data(d[7:0]), .q(w[7:0]));
endmodule";
    let d = elaborate(&parse(ok).unwrap(), "m", &FifoLib::new()).unwrap();
    let reversed = hwdbg_rtl::LValue::Range("w".into(), hwdbg_rtl::Expr::number(0), hwdbg_rtl::Expr::number(7));
    assert_eq!(d.lvalue_width(&reversed), None);
    let forward = hwdbg_rtl::LValue::Range("w".into(), hwdbg_rtl::Expr::number(7), hwdbg_rtl::Expr::number(0));
    assert_eq!(d.lvalue_width(&forward), Some(8));
}

/// Elaborates `src` and checks that it fails with E0215 on `P`, at the
/// span that starts with `at`.
fn assert_parameter_write_rejected(src: &str, lib: &dyn hwdbg_dataflow::BlackboxLib, at: &str) {
    let err = elaborate(&parse(src).unwrap(), "m", lib).unwrap_err();
    assert!(
        matches!(err.root(), DataflowError::ConstantWrite(n) if n == "P"),
        "{src}: {err:?}"
    );
    assert_eq!(err.span().map(|s| s.start), src.find(at), "{src}");
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::ConstantWrite);
    assert_eq!(diag.code.as_str(), "E0215");
    assert_eq!(diag.signals, vec!["P".to_string()]);
}

#[test]
fn parameter_write_in_assign_rejected_with_span() {
    let src = "module m(input [3:0] d, output [3:0] q);
    parameter P = 4'd3;
    assign P = d;
    assign q = d + P;
endmodule";
    assert_parameter_write_rejected(src, &NoBlackboxes, "assign P");
}

#[test]
fn parameter_write_in_always_rejected_with_span() {
    for (kind, body, at) in [
        (
            "localparam",
            "always @(posedge clk) begin q <= d; P <= d; end",
            "P <= d",
        ),
        (
            "parameter",
            "always @(*) begin q = d; if (d[0]) P = d; end",
            "P = d",
        ),
    ] {
        let src = format!(
            "module m(input clk, input [3:0] d, output reg [3:0] q);
    {kind} P = 4'd3;
    {body}
endmodule"
        );
        assert_parameter_write_rejected(&src, &NoBlackboxes, at);
    }
}

#[test]
fn parameter_in_blackbox_output_rejected_with_span() {
    let src = "module m(input clk, input [7:0] d, output [7:0] w);
    localparam P = 8'd3;
    scfifo f (.clock(clk), .data(d), .q(P));
    assign w = d;
endmodule";
    assert_parameter_write_rejected(src, &FifoLib::new(), "scfifo");
}

#[test]
fn unknown_names_still_win_by_name_order_and_reads_of_parameters_stay_legal() {
    // `P` is read, not written: legal. `ghost` (read) sorts before `zz`
    // (written), so it is the one reported, without a span.
    let ok = "module m(input [3:0] d, output [3:0] q);
    localparam P = 4'd3;
    assign q = d + P;
endmodule";
    assert!(elaborate(&parse(ok).unwrap(), "m", &NoBlackboxes).is_ok());
    let bad = "module m(input [3:0] d, output [3:0] q);
    assign zz = d;
    assign q = ghost;
endmodule";
    let err = elaborate(&parse(bad).unwrap(), "m", &NoBlackboxes).unwrap_err();
    assert_eq!(err, DataflowError::UnknownSignal("ghost".into()));
    // An undeclared written name alone is reported at its assignment.
    let write = "module m(input [3:0] d, output [3:0] q);
    assign zz = d;
    assign q = d;
endmodule";
    let err = elaborate(&parse(write).unwrap(), "m", &NoBlackboxes).unwrap_err();
    assert!(
        matches!(err.root(), DataflowError::UnknownSignal(n) if n == "zz"),
        "{err:?}"
    );
    assert_eq!(err.span().map(|s| s.start), write.find("assign zz"));
}

/// Elaborates `src` and checks that it fails with E0201 naming `name`, at
/// an in-bounds span that starts where `at` does.
fn assert_not_constant(src: &str, name: &str, at: &str) {
    let err = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap_err();
    assert!(
        matches!(err.root(), DataflowError::NotConstant(n)
            | DataflowError::NonConstantSelect { reads: n, .. } if n == name),
        "{src}: {err:?}"
    );
    let span = err.span().unwrap_or_else(|| panic!("{src}: no span on {err:?}"));
    assert!(span.start < span.end && span.end <= src.len(), "{src}: {span:?}");
    assert_eq!(Some(span.start), src.find(at), "{src}");
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code.as_str(), "E0201");
}

/// IEEE 1364-2005 requires constant part-select bounds (§5.2.1) and
/// replication counts (§5.1.14). `resolve` refuses the rest with a spanned
/// E0201, so every select and replication has one static width.
#[test]
fn non_constant_selects_and_counts_rejected_with_span() {
    assert_not_constant(
        "module m(input [3:0] a, input [15:0] x, output [7:0] y);
    assign y = x[a+7:a];
endmodule",
        "a",
        "assign y",
    );
    assert_not_constant(
        "module m(input clk, input [15:0] x, output reg [3:0] y);
    integer i;
    always @(posedge clk)
        for (i = 0; i < 2; i = i + 1) y <= x[i*4+3:i*4];
endmodule",
        "i",
        "y <= x",
    );
    assert_not_constant(
        "module m(input clk, input [3:0] x, output reg [15:0] y);
    integer i;
    always @(posedge clk)
        for (i = 0; i < 4; i = i + 1) y[i*4+3:i*4] <= x;
endmodule",
        "i",
        "y[i*4+3",
    );
    // A select whose bounds are themselves selects of a signal names it.
    assert_not_constant(
        "module m(input s, input [3:0] a, input [3:0] x, output [3:0] y);
    assign y = s ? a[x[1:0]+1:x[1:0]] : 4'h0;
endmodule",
        "x",
        "assign y",
    );
    assert_not_constant(
        "module m(input [1:0] n, input x, output [3:0] y);
    assign y = {n{x}};
endmodule",
        "n",
        "assign y",
    );
    assert_not_constant(
        "module m(input clk, input [1:0] n, input [7:0] x);
    always @(posedge clk) $display(\"%h\", x[n+1:n]);
endmodule",
        "n",
        "$display",
    );
    // A condition has no span of its own: the error points at its block.
    assert_not_constant(
        "module m(input clk, input [1:0] n, input [7:0] x, output reg q);
    always @(posedge clk) if (x[n+1:n] == 2'd1) q <= 1'b1;
endmodule",
        "n",
        "always",
    );
    // A select's message names the selected signal and the indexed form.
    let src = "module m(input [3:0] a, input [15:0] x, output [7:0] y);
    assign y = x[a+7:a];
endmodule";
    let err = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap_err();
    assert!(err.to_string().contains("`x[base +: width]`"), "{err}");
}

/// Selects of parameters are constant expressions (IEEE 1364-2005
/// §5.2.1), so they may bound a part select or count a replication.
#[test]
fn parameter_selects_are_constant_bounds_and_counts() {
    let src = "module m(input [15:0] x, output [6:0] y, output [7:0] z, output q);
    localparam P = 8'h26;
    assign y = x[P[3:0]:0];
    assign z = {P[1:0]{x[3:0]}};
    assign q = x[P[7:4] + 1];
endmodule";
    let d = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
    let rhs = |target: &str| {
        d.combs
            .iter()
            .find_map(|c| match &c.body {
                Stmt::Assign { lhs: LValue::Id(n), rhs, .. } if n == target => Some(rhs.clone()),
                _ => None,
            })
            .unwrap()
    };
    assert_eq!(d.width_of(&rhs("y")), Ok(7));
    assert_eq!(d.width_of(&rhs("z")), Ok(8));
    assert_eq!(d.width_of(&rhs("q")), Ok(1));
}
