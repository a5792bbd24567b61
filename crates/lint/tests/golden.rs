//! Golden diagnostics: one minimal Verilog reproducer per L-code, asserting
//! the code, a span that points into the offending construct, and a
//! rendered excerpt that shows the right source line.

use hwdbg_dataflow::{Design, NoBlackboxes};
use hwdbg_diag::HwdbgError;
use hwdbg_lint::{Level, LintConfig, LintSink, LintPass};
use hwdbg_obs::{SimCounters, StageTimer};

fn design(src: &str, top: &str) -> Design {
    let file = hwdbg_rtl::parse(src).expect("repro parses");
    hwdbg_dataflow::elaborate(&file, top, &NoBlackboxes).expect("repro elaborates")
}

/// Runs all passes with defaults and returns the findings.
fn lint(src: &str, top: &str) -> (Vec<HwdbgError>, String) {
    let d = design(src, top);
    (hwdbg_lint::run_default(&d), src.to_owned())
}

/// Asserts exactly one finding with `code`, whose span covers `at` and
/// whose rendered excerpt contains `excerpt`.
fn assert_golden(findings: &[HwdbgError], src: &str, code: &str, at: &str, excerpt: &str) {
    let matching: Vec<_> = findings
        .iter()
        .filter(|f| f.code.as_str() == code)
        .collect();
    assert_eq!(
        matching.len(),
        1,
        "expected exactly one {code}, got: {:?}",
        findings
            .iter()
            .map(|f| (f.code.as_str(), f.message.as_str()))
            .collect::<Vec<_>>()
    );
    let f = matching[0];
    let span = f.span.unwrap_or_else(|| panic!("{code} finding has no span"));
    let pos = src.find(at).expect("anchor text exists in repro");
    assert!(
        span.start <= pos && pos < span.end.max(span.start + 1),
        "{code}: span {span:?} does not cover `{at}` at byte {pos}"
    );
    let rendered = f.render(Some(src));
    assert!(
        rendered.contains(excerpt),
        "{code}: rendered diagnostic lacks `{excerpt}`:\n{rendered}"
    );
}

#[test]
fn l0101_incomplete_case() {
    let (f, src) = lint(
        "module t(input [1:0] s, input [7:0] a, output reg [7:0] y);\n\
         always @(*) begin\n\
         \x20 case (s)\n\
         \x20   2'd0: y = a;\n\
         \x20   2'd1: y = ~a;\n\
         \x20 endcase\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0101", "case (s)", "case (s)");
}

#[test]
fn l0102_blocking_in_seq() {
    let (f, src) = lint(
        "module t(input clk, input [7:0] d, output [7:0] y);\n\
         reg [7:0] r;\n\
         assign y = r + 8'd1;\n\
         always @(posedge clk) begin\n\
         \x20 r = d;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0102", "r = d;", "r = d;");
}

/// The signals of every `L0102` finding, in report order.
fn blocking_in_seq_signals(src: &str) -> Vec<String> {
    let file = hwdbg_rtl::parse(src).expect("repro parses");
    let d = hwdbg_dataflow::elaborate(&file, "t", &hwdbg_ip::StdIpLib::new())
        .expect("repro elaborates");
    hwdbg_lint::run_default(&d)
        .into_iter()
        .filter(|f| f.code.as_str() == "L0102")
        .flat_map(|f| f.signals)
        .collect()
}

#[test]
fn l0102_needs_a_reader_outside_the_block() {
    // Read only by the process that writes it: no race, no finding.
    let own = "module t(input clk, input [7:0] d, output reg [7:0] y);\n\
               reg [7:0] r;\n\
               always @(posedge clk) begin\n\
               \x20 r = d;\n\
               \x20 y <= r;\n\
               end\nendmodule\n";
    assert!(blocking_in_seq_signals(own).is_empty());

    // The writer reading its own target does not hide a later reader.
    let own_and_other = "module t(input clk, input [7:0] d, output reg [7:0] y);\n\
                         reg [7:0] r;\n\
                         always @(posedge clk) r = r ^ d;\n\
                         always @(posedge clk) y <= r;\n\
                         endmodule\n";
    assert_eq!(blocking_in_seq_signals(own_and_other), ["r"]);

    // Each kind of outside reader makes the same write a finding.
    let readers = [
        (
            "another process",
            "output reg [7:0] y);\n reg [7:0] r;\n always @(posedge clk) y <= r;",
        ),
        (
            "a comb driver",
            "output [7:0] y);\n reg [7:0] r;\n assign y = r;",
        ),
        (
            "a blackbox input",
            "output [7:0] y);\n reg [7:0] r;\n assign y = d;\n \
             trace_buffer #(.WIDTH(8), .DEPTH(4)) tb (.clock(clk), .enable(1'b1), .din(r));",
        ),
        ("an output port", "output reg [7:0] r);"),
    ];
    for (reader, decls) in readers {
        let src = format!(
            "module t(input clk, input [7:0] d, {decls}\n\
             always @(posedge clk) begin\n\
             \x20 r = d;\n\
             end\nendmodule\n"
        );
        assert_eq!(blocking_in_seq_signals(&src), ["r"], "read by {reader}");
    }
}

#[test]
fn l0102_flags_both_processes_of_a_mutual_read() {
    let src = "module t(input clk, input [7:0] d, output [7:0] y);\n\
               reg [7:0] a;\n\
               reg [7:0] b;\n\
               assign y = d;\n\
               always @(posedge clk) a = b ^ d;\n\
               always @(posedge clk) b = a;\n\
               endmodule\n";
    assert_eq!(blocking_in_seq_signals(src), ["a", "b"]);
}

#[test]
fn l0103_nonblocking_in_comb() {
    let (f, src) = lint(
        "module t(input [7:0] d, output reg [7:0] y);\n\
         always @(*) begin\n\
         \x20 y <= d;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0103", "y <= d;", "y <= d;");
}

#[test]
fn l0104_multi_proc_write() {
    let (f, src) = lint(
        "module t(input clk, input [7:0] a, input [7:0] b, output [7:0] y);\n\
         reg [7:0] r;\n\
         assign y = r;\n\
         always @(posedge clk) r <= a;\n\
         always @(posedge clk) r <= b;\n\
         endmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0104", "r;", "reg [7:0] r;");
}

/// The L0104 findings on a two-process design whose second process
/// writes `second`, with messages.
fn multi_proc_writes(second: &str) -> Vec<String> {
    let src = format!(
        "module t(input clk, input a, input b, input [1:0] i, output [3:0] y);\n\
         reg [3:0] q;\n\
         assign y = q;\n\
         always @(posedge clk) q[0] <= a;\n\
         always @(posedge clk) {second}\n\
         endmodule\n"
    );
    let (f, _) = lint(&src, "t");
    f.iter()
        .filter(|f| f.code.as_str() == "L0104")
        .map(|f| f.message.clone())
        .collect()
}

#[test]
fn l0104_needs_writes_that_can_overlap() {
    // Disjoint constant bits and ranges are separate drivers.
    assert!(multi_proc_writes("q[1] <= b;").is_empty());
    assert!(multi_proc_writes("q[3:1] <= {a, b, a};").is_empty());
    assert!(multi_proc_writes("{q[2], q[1]} <= {a, b};").is_empty());
    // A shared bit, an overlapping range, a whole write or a variable
    // index can each hit the bit the first process writes.
    for overlapping in [
        "q[0] <= b;",
        "q[1:0] <= {a, b};",
        "q <= 4'd0;",
        "q[i] <= b;",
    ] {
        let found = multi_proc_writes(overlapping);
        assert_eq!(found.len(), 1, "`{overlapping}`: {found:?}");
        assert!(found[0].contains("written by 2 separate"), "{found:?}");
    }
}

#[test]
fn l0201_comb_loop() {
    let (f, src) = lint(
        "module t(input [7:0] d, output [7:0] y);\n\
         wire [7:0] a;\n\
         wire [7:0] b;\n\
         assign a = b ^ d;\n\
         assign b = a + 8'd1;\n\
         assign y = a;\n\
         endmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0201", "a;", "wire [7:0] a;");
    assert!(f[0].signals.contains(&"a".to_owned()) && f[0].signals.contains(&"b".to_owned()));
}

/// A comb block's `for` variable is a procedural temporary: reading it
/// closes no loop when that block alone writes it. Two blocks sharing the
/// variable do loop, in the simulator as here.
#[test]
fn l0201_spares_a_comb_loop_variable() {
    let (f, _) = lint(
        "module t(input [1:0] d, output reg [1:0] q);\n\
         integer i;\n\
         always @(*) for (i = 0; i < 2; i = i + 1) q[i] = d[i];\n\
         endmodule\n",
        "t",
    );
    assert!(f.iter().all(|f| f.code.as_str() != "L0201"), "{f:?}");
    let (f, src) = lint(
        "module t(input [3:0] d, output reg [1:0] q, output reg [3:0] p);\n\
         integer i;\n\
         always @(*) for (i = 0; i < 2; i = i + 1) q[i] = d[i];\n\
         always @(*) for (i = 0; i < 4; i = i + 1) p[i] = d[3 - i];\n\
         endmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0201", "i;", "integer i;");
}

#[test]
fn l0202_width_truncation() {
    let (f, src) = lint(
        "module t(input clk, input [63:0] w, output reg [63:0] y);\n\
         reg [31:0] tmp;\n\
         always @(posedge clk) begin\n\
         \x20 tmp <= w ^ 64'd5;\n\
         \x20 y <= {32'd0, tmp};\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0202", "tmp <= w ^ 64'd5;", "tmp <= w ^ 64'd5;");
}

/// Shared FSM skeleton: localparams + case-based transitions.
const FSM_UNREACHABLE: &str = "module t(input clk, input rst, input go, output reg [1:0] s);\n\
    localparam A = 2'd0;\n\
    localparam B = 2'd1;\n\
    localparam C = 2'd2;\n\
    always @(posedge clk) begin\n\
    \x20 if (rst) s <= A;\n\
    \x20 else case (s)\n\
    \x20   A: if (go) s <= B;\n\
    \x20   B: if (go) s <= A;\n\
    \x20   C: s <= A;\n\
    \x20 endcase\n\
    end\nendmodule\n";

#[test]
fn l0301_unreachable_state() {
    let (f, src) = lint(FSM_UNREACHABLE, "t");
    assert_golden(&f, &src, "L0301", "case (s)", "case (s)");
}

const FSM_TRAP: &str = "module t(input clk, input rst, input go, output reg [1:0] s);\n\
    localparam A = 2'd0;\n\
    localparam B = 2'd1;\n\
    localparam DONE = 2'd2;\n\
    always @(posedge clk) begin\n\
    \x20 if (rst) s <= A;\n\
    \x20 else case (s)\n\
    \x20   A: if (go) s <= B;\n\
    \x20   B: if (go) s <= DONE;\n\
    \x20   DONE: s <= DONE;\n\
    \x20 endcase\n\
    end\nendmodule\n";

#[test]
fn l0302_trap_state_is_opt_in() {
    // Default level is Allow: silent.
    let (f, _) = lint(FSM_TRAP, "t");
    assert!(f.iter().all(|e| e.code.as_str() != "L0302"));

    // Enabled via config, the trap is reported.
    let d = design(FSM_TRAP, "t");
    let mut cfg = LintConfig::new();
    cfg.set("L0302", Level::Warn);
    let mut timer = StageTimer::new();
    let mut counters = SimCounters::default();
    let f = hwdbg_lint::run_all(&d, &cfg, &mut timer, &mut counters);
    assert_golden(&f, FSM_TRAP, "L0302", "case (s)", "case (s)");
    assert!(f[0].message.contains("DONE"), "should name the trap state");
}

#[test]
fn l0303_undeclared_state() {
    let (f, src) = lint(
        "module t(input clk, input rst, input go, output reg [1:0] s);\n\
         localparam A = 2'd0;\n\
         localparam B = 2'd1;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) s <= A;\n\
         \x20 else case (s)\n\
         \x20   A: if (go) s <= B;\n\
         \x20   B: if (go) s <= 2'd3;\n\
         \x20 endcase\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0303", "case (s)", "case (s)");
}

#[test]
fn l0301_case_in_comb_block_with_clocked_writes() {
    // Two-process style: the clocked process assigns the state register,
    // a combinational block dispatches on it. Arm `C` is never entered.
    let (f, src) = lint(
        "module t(input clk, input rst, input go, output reg [1:0] s, output reg [7:0] y);\n\
         localparam A = 2'd0;\n\
         localparam B = 2'd1;\n\
         localparam C = 2'd2;\n\
         always @(*) begin\n\
         \x20 case (s)\n\
         \x20   A: y = 8'd1;\n\
         \x20   B: y = 8'd2;\n\
         \x20   C: y = 8'd3;\n\
         \x20   default: y = 8'd0;\n\
         \x20 endcase\n\
         end\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) s <= A;\n\
         \x20 else if (go) s <= B;\n\
         \x20 else if (s == B) s <= A;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0301", "case (s)", "case (s)");
}

#[test]
fn fsm_findings_stay_with_their_own_fsm() {
    // Two FSMs with the same encodings: each finding names its own
    // register and its own `case`, and the trap state's name comes from
    // its own localparams (`WR_DONE`, not `RD_DONE`, which sorts first).
    let src = "module t(input clk, input rst, input go, output reg [1:0] rd_state, output reg [1:0] wr_state);\n\
               localparam RD_IDLE = 2'd0;\n\
               localparam RD_BUSY = 2'd1;\n\
               localparam RD_DONE = 2'd2;\n\
               localparam WR_IDLE = 2'd0;\n\
               localparam WR_BUSY = 2'd1;\n\
               localparam WR_DONE = 2'd2;\n\
               always @(posedge clk) begin\n\
               \x20 if (rst) rd_state <= RD_IDLE;\n\
               \x20 else case (rd_state)\n\
               \x20   RD_IDLE: if (go) rd_state <= RD_BUSY;\n\
               \x20   RD_BUSY: if (go) rd_state <= 2'd3;\n\
               \x20 endcase\n\
               end\n\
               always @(posedge clk) begin\n\
               \x20 if (rst) wr_state <= WR_IDLE;\n\
               \x20 else case (wr_state)\n\
               \x20   WR_IDLE: if (go) wr_state <= WR_BUSY;\n\
               \x20   WR_BUSY: if (go) wr_state <= WR_DONE;\n\
               \x20   WR_DONE: wr_state <= WR_DONE;\n\
               \x20 endcase\n\
               end\nendmodule\n";
    let d = design(src, "t");
    let mut cfg = LintConfig::new();
    cfg.set("L0302", Level::Warn);
    let mut timer = StageTimer::new();
    let mut counters = SimCounters::default();
    let f = hwdbg_lint::run_all(&d, &cfg, &mut timer, &mut counters);
    assert_golden(&f, src, "L0302", "case (wr_state)", "case (wr_state)");
    assert_golden(&f, src, "L0303", "case (rd_state)", "case (rd_state)");
    assert!(f.iter().all(|e| e.code.as_str() != "L0301"));
    let by_code = |code: &str| f.iter().find(|e| e.code.as_str() == code).unwrap();
    assert_eq!(by_code("L0302").signals, ["wr_state"]);
    assert!(by_code("L0302").message.contains("`WR_DONE` (2)"));
    assert_eq!(by_code("L0303").signals, ["rd_state"]);
    assert!(by_code("L0303").message.contains("encoding 3"));
}

#[test]
fn l0401_dead_write() {
    let (f, src) = lint(
        "module t(input clk, input [7:0] d, output reg [7:0] y);\n\
         always @(posedge clk) begin\n\
         \x20 y <= d;\n\
         \x20 y <= 8'd0;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0401", "y <= d;", "y <= d;");
}

/// A write in the `default` arm dies when an unconditional write follows.
#[test]
fn l0401_dead_write_in_default() {
    let (f, src) = lint(
        "module t(input clk, input [1:0] s, input [7:0] a, input [7:0] d,\n\
         \x20         output reg [7:0] y, output reg [7:0] z);\n\
         always @(posedge clk) begin\n\
         \x20 case (s)\n\
         \x20   2'd0: z <= a;\n\
         \x20   default: y <= d;\n\
         \x20 endcase\n\
         \x20 y <= 8'd0;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0401", "y <= d;", "y <= d;");
}

/// Writes in different arms of one `case` never overwrite each other.
#[test]
fn l0401_writes_in_different_arms_are_live() {
    let (f, _) = lint(
        "module t(input clk, input [1:0] s, input [7:0] d, output reg [7:0] y);\n\
         always @(posedge clk) begin\n\
         \x20 case (s)\n\
         \x20   2'd0: y <= d;\n\
         \x20   2'd1: y <= 8'd0;\n\
         \x20 endcase\n\
         end\nendmodule\n",
        "t",
    );
    assert!(
        f.iter().all(|e| e.code.as_str() != "L0401"),
        "{:?}",
        f.iter().map(|e| &e.message).collect::<Vec<_>>()
    );
}

#[test]
fn l0402_never_read() {
    let (f, src) = lint(
        "module t(input clk, input [7:0] d, output reg [7:0] y);\n\
         reg [7:0] stash;\n\
         always @(posedge clk) begin\n\
         \x20 stash <= d;\n\
         \x20 y <= d + 8'd1;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0402", "stash;", "stash");
}

#[test]
fn l0403_input_ignored() {
    let (f, src) = lint(
        "module t(input clk, input [7:0] d, input dbg, output reg [7:0] y);\n\
         always @(posedge clk) begin\n\
         \x20 y <= d;\n\
         \x20 $display(\"dbg=%b\", dbg);\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0403", "dbg", "dbg");
}

#[test]
fn l0404_sticky_flag() {
    let (f, src) = lint(
        "module t(input clk, input rst, input [8:0] d, input dv, output reg [7:0] y);\n\
         reg bad;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) bad <= 1'b0;\n\
         \x20 else begin\n\
         \x20   if (dv && d[8]) bad <= 1'b1;\n\
         \x20   if (dv && !bad) y <= d[7:0];\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0404", "bad <= 1'b1;", "bad <= 1'b1;");
}

#[test]
fn l0405_incomplete_reinit() {
    let (f, src) = lint(
        "module t(input clk, input rst, input start, input [7:0] w, input wv,\n\
         \x20        output reg [7:0] acc);\n\
         reg [7:0] mix;\n\
         reg [3:0] n;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   acc <= 8'd0;\n\
         \x20   mix <= 8'd7;\n\
         \x20   n <= 4'd0;\n\
         \x20 end else if (start) begin\n\
         \x20   acc <= 8'd0;\n\
         \x20   n <= 4'd0;\n\
         \x20 end else if (wv) begin\n\
         \x20   acc <= acc + w;\n\
         \x20   mix <= mix ^ w;\n\
         \x20   n <= n + 4'd1;\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert!(
        f.iter()
            .any(|e| e.code.as_str() == "L0405" && e.signals.contains(&"mix".to_owned())),
        "expected L0405 naming `mix`, got {:?}",
        f.iter().map(|e| e.code.as_str()).collect::<Vec<_>>()
    );
    let finding = f.iter().find(|e| e.code.as_str() == "L0405").expect("found above");
    let span = finding.span.expect("has span");
    let pos = src.find("end else if (start)").expect("re-init branch");
    assert!(span.start >= pos, "span should anchor in the re-init branch");
}

#[test]
fn l0501_mem_index_range() {
    let (f, src) = lint(
        "module t(input clk, input rst, input [7:0] d, input dv, output reg [7:0] y);\n\
         reg [7:0] buf0 [0:9];\n\
         reg [3:0] i;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) i <= 4'd0;\n\
         \x20 else if (dv) begin\n\
         \x20   buf0[i] <= d;\n\
         \x20   if (i == 4'd11) i <= 4'd0;\n\
         \x20   else i <= i + 4'd1;\n\
         \x20   y <= buf0[0];\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0501", "buf0", "buf0");
}

#[test]
fn l0601_valid_waits_ready() {
    let (f, src) = lint(
        "module t(input clk, input rst, input req, input bready, output reg bvalid);\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) bvalid <= 1'b0;\n\
         \x20 else if (req && bready && !bvalid) bvalid <= 1'b1;\n\
         \x20 else if (bvalid && bready) bvalid <= 1'b0;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0601", "bvalid <= 1'b1;", "bvalid <= 1'b1;");
}

#[test]
fn l0602_handshake_deadlock() {
    let (f, src) = lint(
        "module t(input clk, input rst, output reg a_rdy, output reg b_rdy);\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   a_rdy <= 1'b0;\n\
         \x20   b_rdy <= 1'b0;\n\
         \x20 end else begin\n\
         \x20   if (b_rdy) a_rdy <= 1'b1;\n\
         \x20   if (a_rdy) b_rdy <= 1'b1;\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0602", "a_rdy <= 1'b1;", "a_rdy <= 1'b1;");
}

#[test]
fn l0502_truncated_shift() {
    let (f, src) = lint(
        "module t(input clk, input [11:0] a, input [11:0] b, output reg [15:0] y);\n\
         wire [23:0] prod;\n\
         assign prod = a * b;\n\
         always @(posedge clk) y <= 16'(prod) >> 4;\n\
         endmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0502", "y <= 16'(prod) >> 4", "16'(prod) >> 4");

    // Shift-then-cast keeps the high bits: silent.
    let (f, _) = lint(
        "module t(input clk, input [11:0] a, input [11:0] b, output reg [15:0] y);\n\
         wire [23:0] prod;\n\
         assign prod = a * b;\n\
         always @(posedge clk) y <= 16'(prod >> 4);\n\
         endmodule\n",
        "t",
    );
    assert!(f.is_empty(), "cast-after-shift must be clean: {f:?}");
}

#[test]
fn l0603_unqualified_advance() {
    let (f, src) = lint(
        "module t(input clk, input rst, input en, input [7:0] d, input m_ready,\n\
         \x20        output reg m_valid, output reg [7:0] m_data);\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   m_valid <= 1'b0;\n\
         \x20   m_data <= 8'd0;\n\
         \x20 end else begin\n\
         \x20   m_valid <= en;\n\
         \x20   m_data <= d;\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0603", "m_data <= d;", "m_data <= d;");

    // Qualifying the advance on `!valid || ready` is the fixed shape.
    let (f, _) = lint(
        "module t(input clk, input rst, input en, input [7:0] d, input m_ready,\n\
         \x20        output reg m_valid, output reg [7:0] m_data);\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   m_valid <= 1'b0;\n\
         \x20   m_data <= 8'd0;\n\
         \x20 end else if (!m_valid || m_ready) begin\n\
         \x20   m_valid <= en;\n\
         \x20   m_data <= d;\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert!(f.is_empty(), "qualified advance must be clean: {f:?}");
}

#[test]
fn l0604_constant_backpressure() {
    let (f, src) = lint(
        "module t(input clk, input rst, input up_valid, input [7:0] up_data,\n\
         \x20        output up_stall, output reg [7:0] acc);\n\
         assign up_stall = 1'b0;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) acc <= 8'd0;\n\
         \x20 else if (up_valid) acc <= acc + up_data;\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0604", "assign up_stall", "up_stall = 1'b0");

    // Backpressure derived from real state is dynamic: silent.
    let (f, _) = lint(
        "module t(input clk, input rst, input up_valid, input [7:0] up_data,\n\
         \x20        output up_stall, output reg [7:0] acc, output reg busy_r);\n\
         assign up_stall = busy_r;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   acc <= 8'd0;\n\
         \x20   busy_r <= 1'b0;\n\
         \x20 end else begin\n\
         \x20   busy_r <= up_valid;\n\
         \x20   if (up_valid) acc <= acc + up_data;\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert!(f.is_empty(), "registered backpressure must be clean: {f:?}");
}

#[test]
fn l0605_occupancy_overflow() {
    let (f, src) = lint(
        "module t(input clk, input rst, input wr_en, input [7:0] din,\n\
         \x20        input rd_en, output reg [7:0] dout);\n\
         reg [7:0] mem [0:15];\n\
         reg [4:0] wr_ptr;\n\
         reg [4:0] rd_ptr;\n\
         wire full;\n\
         assign full = (wr_ptr - rd_ptr) > 5'd16;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   wr_ptr <= 5'd0;\n\
         \x20   rd_ptr <= 5'd0;\n\
         \x20 end else begin\n\
         \x20   if (wr_en && !full) begin\n\
         \x20     mem[wr_ptr[3:0]] <= din;\n\
         \x20     wr_ptr <= wr_ptr + 5'd1;\n\
         \x20   end\n\
         \x20   if (rd_en) begin\n\
         \x20     dout <= mem[rd_ptr[3:0]];\n\
         \x20     rd_ptr <= rd_ptr + 5'd1;\n\
         \x20   end\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    // The span points at the off-by-one *definition*, not the write site.
    assert_golden(&f, &src, "L0605", "assign full", "> 5'd16");
}

#[test]
fn l0606_occupancy_margin() {
    let (f, src) = lint(
        "module t(input clk, input rst, input s_valid, input [7:0] s_data,\n\
         \x20        input m_ready, output reg s_ready, output reg [7:0] m_data);\n\
         reg [7:0] mem [0:15];\n\
         reg [4:0] wr_ptr;\n\
         reg [4:0] rd_ptr;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   wr_ptr <= 5'd0;\n\
         \x20   rd_ptr <= 5'd0;\n\
         \x20   s_ready <= 1'b0;\n\
         \x20 end else begin\n\
         \x20   s_ready <= (wr_ptr - rd_ptr) < 5'd16;\n\
         \x20   if (s_valid && s_ready) begin\n\
         \x20     mem[wr_ptr[3:0]] <= s_data;\n\
         \x20     wr_ptr <= wr_ptr + 5'd1;\n\
         \x20   end\n\
         \x20   if (m_ready) begin\n\
         \x20     m_data <= mem[rd_ptr[3:0]];\n\
         \x20     rd_ptr <= rd_ptr + 5'd1;\n\
         \x20   end\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    // The flag is one cycle stale but its threshold leaves zero margin.
    assert_golden(&f, &src, "L0606", "s_ready <= (wr_ptr - rd_ptr) < 5'd16", "< 5'd16");
}

#[test]
fn occupancy_is_silent_on_correct_skid_buffer() {
    // A margin-aware skid-buffer FIFO: the registered ready threshold
    // (count < 13) absorbs one stale cycle *and* one in-flight skid word
    // (13 + 1 + 1 + 1 = 16 <= depth 16). The occupancy pass must stay
    // silent — this is the fixed C4 shape.
    let (f, _) = lint(
        "module t(input clk, input rst, input s_valid, input [7:0] s_data,\n\
         \x20        input m_ready, output s_ready, output reg [7:0] m_data);\n\
         reg [7:0] mem [0:15];\n\
         reg [4:0] wr_ptr;\n\
         reg [4:0] rd_ptr;\n\
         reg [7:0] s_reg;\n\
         reg s_reg_v;\n\
         reg s_ready_r;\n\
         wire [4:0] count;\n\
         assign count = wr_ptr - rd_ptr;\n\
         assign s_ready = s_ready_r;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) begin\n\
         \x20   wr_ptr <= 5'd0;\n\
         \x20   rd_ptr <= 5'd0;\n\
         \x20   s_reg_v <= 1'b0;\n\
         \x20   s_ready_r <= 1'b0;\n\
         \x20 end else begin\n\
         \x20   s_ready_r <= count < 5'd13;\n\
         \x20   if (s_reg_v && count < 5'd16) begin\n\
         \x20     mem[wr_ptr[3:0]] <= s_reg;\n\
         \x20     wr_ptr <= wr_ptr + 5'd1;\n\
         \x20     s_reg_v <= 1'b0;\n\
         \x20   end\n\
         \x20   if (s_valid && s_ready_r) begin\n\
         \x20     s_reg <= s_data;\n\
         \x20     s_reg_v <= 1'b1;\n\
         \x20   end\n\
         \x20   if (m_ready) begin\n\
         \x20     m_data <= mem[rd_ptr[3:0]];\n\
         \x20     rd_ptr <= rd_ptr + 5'd1;\n\
         \x20   end\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    let occupancy: Vec<_> = f
        .iter()
        .filter(|e| matches!(e.code.as_str(), "L0605" | "L0606"))
        .collect();
    assert!(
        occupancy.is_empty(),
        "correct skid buffer must not trip the occupancy pass: {occupancy:?}"
    );
}

#[test]
fn sink_is_reexported_for_custom_passes() {
    // The public surface for third-party passes: implement LintPass, run
    // against a sink.
    struct Noop;
    impl LintPass for Noop {
        fn id(&self) -> &'static str {
            "noop"
        }
        fn codes(&self) -> &'static [hwdbg_diag::ErrorCode] {
            &[]
        }
        fn run(&self, _: &Design, _: &mut LintSink<'_>) {}
    }
    let d = design("module t(input clk, output reg y); always @(posedge clk) y <= 1'b1; endmodule\n", "t");
    let cfg = LintConfig::new();
    let mut sink = LintSink::new(&cfg);
    Noop.run(&d, &mut sink);
    assert!(sink.findings().is_empty());
}

/// A write through a concatenation addresses the memory like a plain one:
/// `{buf0[i], flag} <= …` is checked against `buf0`'s depth too.
#[test]
fn l0501_sees_indexed_parts_of_a_concatenation() {
    let (f, src) = lint(
        "module t(input clk, input rst, input [7:0] d, input dv, output reg [7:0] y,\n\
         \x20        output reg flag);\n\
         reg [7:0] buf0 [0:9];\n\
         reg [3:0] i;\n\
         always @(posedge clk) begin\n\
         \x20 if (rst) i <= 4'd0;\n\
         \x20 else if (dv) begin\n\
         \x20   {buf0[i], flag} <= {d, 1'b1};\n\
         \x20   i <= i + 4'd1;\n\
         \x20   y <= buf0[0];\n\
         \x20 end\n\
         end\nendmodule\n",
        "t",
    );
    assert_golden(&f, &src, "L0501", "i <= i + 4'd1", "i <= i + 4'd1");
}

/// Every statement kind nested in every other: a `case` in a `for` in an
/// `else`, a `case` in a `case` arm, and selects and memory reads in loop
/// headers and `case` labels. Pins every finding of the passes that walk
/// procedural code (`incomplete-case`, `fsm-structure`,
/// `mem-index-range`, `liveness` among them) as `code@line:col message`.
#[test]
fn nested_statements_are_all_visited() {
    let src = "module t(input clk, input rst, input go, input [1:0] sel, input [7:0] d,\n\
        \x20        input dbg, input [1:0] lim, output reg [7:0] y, output reg [7:0] z,\n\
        \x20        output reg [1:0] s);\n\
        localparam A = 2'd0;\n\
        localparam B = 2'd1;\n\
        localparam C = 2'd2;\n\
        reg [7:0] mem [0:9];\n\
        reg [7:0] lut [0:3];\n\
        reg [3:0] wp;\n\
        reg [3:0] rp;\n\
        reg [2:0] k3;\n\
        reg [7:0] stash;\n\
        integer i;\n\
        integer j;\n\
        always @(posedge clk) begin\n\
        \x20 if (rst) begin\n\
        \x20   s <= A;\n\
        \x20   wp <= 4'd0;\n\
        \x20   rp <= 4'd0;\n\
        \x20   k3 <= 3'd0;\n\
        \x20 end else begin\n\
        \x20   for (i = 0; i < lim[1:0] + mem[rp]; i = i + 1)\n\
        \x20     case (s)\n\
        \x20       A: if (go) s <= B;\n\
        \x20       B: case (sel)\n\
        \x20            2'd0: begin\n\
        \x20              mem[wp] <= d;\n\
        \x20              wp <= wp + 4'd1;\n\
        \x20            end\n\
        \x20            lut[k3]: $display(\"dbg=%b\", dbg);\n\
        \x20            default: s <= A;\n\
        \x20          endcase\n\
        \x20       C: s <= A;\n\
        \x20     endcase\n\
        \x20   rp <= rp + 4'd1;\n\
        \x20   k3 <= k3 + 3'd1;\n\
        \x20   stash <= d;\n\
        \x20   y <= mem[4'd12];\n\
        \x20 end\n\
        end\n\
        always @(*) begin\n\
        \x20 z = 8'd0;\n\
        \x20 if (go) z = d;\n\
        \x20 else for (j = 0; j < 2; j = j + 1)\n\
        \x20   case (sel)\n\
        \x20     2'd0: z = lut[j];\n\
        \x20     2'd1: case (d[1:0])\n\
        \x20             2'd0: z = 8'd1;\n\
        \x20           endcase\n\
        \x20   endcase\n\
        end\n\
        endmodule\n";
    let d = design(src, "t");
    let mut cfg = LintConfig::new();
    cfg.set("L0302", Level::Warn);
    let mut timer = StageTimer::new();
    let mut counters = SimCounters::default();
    let got: Vec<String> = hwdbg_lint::run_all(&d, &cfg, &mut timer, &mut counters)
        .iter()
        .map(|f| {
            let at = f.span.map_or("-".to_owned(), |s| {
                let line = src[..s.start].matches('\n').count() + 1;
                let col = s.start - src[..s.start].rfind('\n').map_or(0, |n| n + 1) + 1;
                format!("{line}:{col}")
            });
            format!("{}@{at} {} [{}]", f.code.as_str(), f.message, f.signals.join(","))
        })
        .collect();
    let want = [
        "L0403@2:16 input `dbg` only reaches $display statements; no logic consumes it [dbg]",
        "L0501@7:11 constant index 12 is out of range for `mem` (valid indices 0..=9) [mem]",
        "L0402@12:11 `stash` is never read; every value written to it is lost [stash]",
        "L0301@23:7 FSM `s`: state 2 has a case arm but no assignment ever enters it; the arm \
         is unreachable [s]",
        "L0501@28:16 index `wp` can reach 15 but `mem` only has 10 entries (valid indices \
         0..=9); out-of-range accesses are silently dropped [mem,wp]",
        "L0501@35:5 index `rp` can reach 15 but `mem` only has 10 entries (valid indices \
         0..=9); out-of-range accesses are silently dropped [mem,rp]",
        "L0501@36:5 index `k3` can reach 7 but `lut` only has 4 entries (valid indices \
         0..=3); out-of-range accesses are silently dropped [lut,k3]",
        "L0101@45:5 combinational case over `sel` has no default and covers 2 of 4 selector \
         values; unmatched selectors infer a latch []",
        "L0101@47:13 combinational case over `d[1:0]` has no default and covers 1 of 4 \
         selector values; unmatched selectors infer a latch []",
    ];
    assert_eq!(got, want, "{got:#?}");
}
