//! End-to-end simulator tests over small designs.

use hwdbg_bits::Bits;
use hwdbg_dataflow::{elaborate, NoBlackboxes};
use hwdbg_rtl::parse;
use hwdbg_sim::{NoModels, RegInit, SimConfig, SimError, Simulator};

fn sim(src: &str, top: &str) -> Simulator {
    let design = elaborate(&parse(src).unwrap(), top, &NoBlackboxes).unwrap();
    Simulator::new(design, &NoModels, SimConfig::default()).unwrap()
}

#[test]
fn counter_counts() {
    let mut s = sim(
        "module m(input clk, input rst, output reg [7:0] q);
            always @(posedge clk) begin
                if (rst) q <= 8'd0;
                else q <= q + 8'd1;
            end
         endmodule",
        "m",
    );
    s.poke_u64("rst", 1).unwrap();
    s.step("clk").unwrap();
    s.poke_u64("rst", 0).unwrap();
    s.run("clk", 5).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 5);
}

#[test]
fn nonblocking_swap() {
    // The classic: nonblocking assignments swap; blocking would not.
    let mut s = sim(
        "module m(input clk, input load, output reg [3:0] a, output reg [3:0] b);
            always @(posedge clk) begin
                if (load) begin
                    a <= 4'd1;
                    b <= 4'd2;
                end else begin
                    a <= b;
                    b <= a;
                end
            end
         endmodule",
        "m",
    );
    s.poke_u64("load", 1).unwrap();
    s.step("clk").unwrap();
    s.poke_u64("load", 0).unwrap();
    s.step("clk").unwrap();
    assert_eq!(s.peek("a").unwrap().to_u64(), 2);
    assert_eq!(s.peek("b").unwrap().to_u64(), 1);
    s.step("clk").unwrap();
    assert_eq!(s.peek("a").unwrap().to_u64(), 1);
    assert_eq!(s.peek("b").unwrap().to_u64(), 2);
}

#[test]
fn blocking_in_clocked_block_is_sequential() {
    let mut s = sim(
        "module m(input clk, output reg [3:0] y);
            reg [3:0] t;
            always @(posedge clk) begin
                t = 4'd3;
                y <= t + 4'd1;
            end
         endmodule",
        "m",
    );
    s.step("clk").unwrap();
    assert_eq!(s.peek("y").unwrap().to_u64(), 4);
}

#[test]
fn comb_chain_settles() {
    let mut s = sim(
        "module m(input [3:0] a, output [3:0] d);
            wire [3:0] b;
            wire [3:0] c;
            assign b = a + 4'd1;
            assign c = b + 4'd1;
            assign d = c + 4'd1;
         endmodule",
        "m",
    );
    s.poke_u64("a", 2).unwrap();
    s.settle().unwrap();
    assert_eq!(s.peek("d").unwrap().to_u64(), 5);
}

#[test]
fn comb_loop_detected() {
    let mut s = sim(
        "module m(input a, output x);
            wire y;
            assign x = y ^ a;
            assign y = ~x;
         endmodule",
        "m",
    );
    // x = ~x ^ a oscillates for a = 0.
    s.poke_u64("a", 0).unwrap();
    match s.settle() {
        Err(SimError::CombLoop { unstable }) => {
            // The diagnostic names the signals still changing in the final
            // settle window — both nets of the cycle oscillate here.
            assert!(
                unstable.contains(&"x".to_string()) || unstable.contains(&"y".to_string()),
                "unstable set should name the loop: {unstable:?}"
            );
        }
        other => panic!("expected CombLoop, got {other:?}"),
    }
}

#[test]
fn always_comb_block_with_case() {
    let mut s = sim(
        "module m(input [1:0] sel, input [7:0] a, input [7:0] b, output reg [7:0] y);
            always @(*) begin
                case (sel)
                    2'd0: y = a;
                    2'd1: y = b;
                    default: y = 8'hFF;
                endcase
            end
         endmodule",
        "m",
    );
    s.poke_u64("a", 10).unwrap();
    s.poke_u64("b", 20).unwrap();
    s.poke_u64("sel", 1).unwrap();
    s.settle().unwrap();
    assert_eq!(s.peek("y").unwrap().to_u64(), 20);
    s.poke_u64("sel", 3).unwrap();
    s.settle().unwrap();
    assert_eq!(s.peek("y").unwrap().to_u64(), 0xFF);
}

#[test]
fn memory_write_read() {
    let mut s = sim(
        "module m(input clk, input we, input [3:0] wa, input [3:0] ra,
                  input [7:0] din, output [7:0] dout);
            reg [7:0] mem [0:15];
            assign dout = mem[ra];
            always @(posedge clk) if (we) mem[wa] <= din;
         endmodule",
        "m",
    );
    s.poke_u64("we", 1).unwrap();
    s.poke_u64("wa", 7).unwrap();
    s.poke_u64("din", 0xAB).unwrap();
    s.step("clk").unwrap();
    s.poke_u64("we", 0).unwrap();
    s.poke_u64("ra", 7).unwrap();
    s.settle().unwrap();
    assert_eq!(s.peek("dout").unwrap().to_u64(), 0xAB);
}

#[test]
fn buffer_overflow_semantics_pow2() {
    // Power-of-two memory: overflowing index truncates to a wrong slot
    // (paper §3.2.1 outcome 1).
    let mut s = sim(
        "module m(input clk, input [4:0] wa, input [7:0] din);
            reg [7:0] mem [0:7];
            always @(posedge clk) mem[wa] <= din;
         endmodule",
        "m",
    );
    s.poke_u64("wa", 9).unwrap(); // 9 & 7 = 1
    s.poke_u64("din", 0x55).unwrap();
    s.step("clk").unwrap();
    assert_eq!(s.peek_mem("mem", 1).unwrap().to_u64(), 0x55);
    assert_eq!(s.peek_mem("mem", 9).unwrap().to_u64(), 0);
}

#[test]
fn buffer_overflow_semantics_non_pow2() {
    // Non-power-of-two: out-of-range write is dropped (outcome 2).
    let mut s = sim(
        "module m(input clk, input [4:0] wa, input [7:0] din);
            reg [7:0] mem [0:9];
            always @(posedge clk) mem[wa] <= din;
         endmodule",
        "m",
    );
    s.poke_u64("wa", 12).unwrap();
    s.poke_u64("din", 0x77).unwrap();
    s.step("clk").unwrap();
    for i in 0..10 {
        assert_eq!(s.peek_mem("mem", i).unwrap().to_u64(), 0, "slot {i}");
    }
}

#[test]
fn display_capture_and_finish() {
    let mut s = sim(
        r#"module m(input clk, output reg [3:0] n);
            always @(posedge clk) begin
                n <= n + 4'd1;
                $display("n=%0d", n);
                if (n == 4'd2) $finish;
            end
         endmodule"#,
        "m",
    );
    s.run("clk", 100).unwrap();
    assert!(s.finished());
    let msgs: Vec<_> = s.logs().iter().map(|l| l.message.clone()).collect();
    assert_eq!(msgs, vec!["n=0", "n=1", "n=2"]);
    assert_eq!(s.cycle("clk"), 3);
}

#[test]
fn display_text_keeps_non_ascii_characters() {
    let mut s = sim(
        r#"module m(input clk, output reg [3:0] c);
            always @(posedge clk) begin
                c <= c + 4'd1;
                $display("café %d → \é", c);
            end
         endmodule"#,
        "m",
    );
    s.run("clk", 2).unwrap();
    let msgs: Vec<_> = s.logs().iter().map(|l| l.message.clone()).collect();
    assert_eq!(msgs, vec!["café  0 → é", "café  1 → é"]);
}

#[test]
fn watchdog_detects_stuck() {
    let mut s = sim(
        "module m(input clk, output reg done);
            always @(posedge clk) done <= done; // never completes
         endmodule",
        "m",
    );
    let err = s
        .run_until("clk", 50, |s| s.peek("done").unwrap().to_bool())
        .unwrap_err();
    assert!(matches!(err, SimError::Watchdog { cycles: 50 }));
}

#[test]
fn run_until_succeeds() {
    let mut s = sim(
        "module m(input clk, output reg [3:0] q, output done);
            assign done = q == 4'd9;
            always @(posedge clk) q <= q + 4'd1;
         endmodule",
        "m",
    );
    let n = s
        .run_until("clk", 100, |s| s.peek("done").unwrap().to_bool())
        .unwrap();
    assert_eq!(n, 9);
}

#[test]
fn random_init_exposes_missing_reset() {
    // Failure-to-update pattern from §3.2.5: output_counter is never reset.
    let src = "module m(input clk, input rst,
                        output reg [7:0] input_counter, output reg [7:0] output_counter);
        always @(posedge clk) begin
            input_counter <= input_counter + 8'd1;
            output_counter <= output_counter + 8'd1;
            if (rst) input_counter <= 8'd0;
        end
     endmodule";
    let design = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
    let mut s = Simulator::new(
        design,
        &NoModels,
        SimConfig {
            init: RegInit::Random(7),
            ..SimConfig::default()
        },
    )
    .unwrap();
    s.poke_u64("rst", 1).unwrap();
    s.step("clk").unwrap();
    s.poke_u64("rst", 0).unwrap();
    s.run("clk", 3).unwrap();
    assert_eq!(s.peek("input_counter").unwrap().to_u64(), 3);
    // With seed 7 the uninitialized register is nonzero, so the counters
    // disagree — the bug's symptom.
    assert_ne!(
        s.peek("output_counter").unwrap().to_u64(),
        s.peek("input_counter").unwrap().to_u64()
    );
}

#[test]
fn dynamic_bit_write_out_of_range_ignored() {
    let mut s = sim(
        "module m(input clk, input [3:0] idx, input v);
            reg [7:0] bits;
            always @(posedge clk) bits[idx] <= v;
         endmodule",
        "m",
    );
    s.poke_u64("idx", 12).unwrap();
    s.poke_u64("v", 1).unwrap();
    s.step("clk").unwrap();
    assert_eq!(s.peek("bits").unwrap().to_u64(), 0);
    s.poke_u64("idx", 3).unwrap();
    s.step("clk").unwrap();
    assert_eq!(s.peek("bits").unwrap().to_u64(), 8);
}

#[test]
fn part_select_and_concat_lhs() {
    let mut s = sim(
        "module m(input clk, input [7:0] d, output reg [15:0] w, output reg [3:0] hi, output reg [3:0] lo);
            always @(posedge clk) begin
                w[7:0] <= d;
                w[15:8] <= 8'hA5;
                {hi, lo} <= d;
            end
         endmodule",
        "m",
    );
    s.poke_u64("d", 0x3C).unwrap();
    s.step("clk").unwrap();
    assert_eq!(s.peek("w").unwrap().to_u64(), 0xA53C);
    assert_eq!(s.peek("hi").unwrap().to_u64(), 0x3);
    assert_eq!(s.peek("lo").unwrap().to_u64(), 0xC);
}

#[test]
fn for_loop_executes() {
    let mut s = sim(
        "module m(input clk, output reg [7:0] sum);
            integer i;
            always @(posedge clk) begin
                sum = 8'd0;
                for (i = 0; i < 5; i = i + 1) sum = sum + 8'd2;
            end
         endmodule",
        "m",
    );
    s.step("clk").unwrap();
    assert_eq!(s.peek("sum").unwrap().to_u64(), 10);
}

#[test]
fn hierarchical_design_simulates() {
    let mut s = sim(
        "module stage(input clk, input [7:0] d, output reg [7:0] q);
            always @(posedge clk) q <= d + 8'd1;
         endmodule
         module top(input clk, input [7:0] d, output [7:0] q);
            wire [7:0] mid;
            stage s1 (.clk(clk), .d(d), .q(mid));
            stage s2 (.clk(clk), .d(mid), .q(q));
         endmodule",
        "top",
    );
    s.poke_u64("d", 10).unwrap();
    s.run("clk", 3).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 12);
}

#[test]
fn two_clock_domains() {
    let mut s = sim(
        "module m(input clka, input clkb, output reg [3:0] ca, output reg [3:0] cb);
            always @(posedge clka) ca <= ca + 4'd1;
            always @(posedge clkb) cb <= cb + 4'd1;
         endmodule",
        "m",
    );
    s.step("clka").unwrap();
    s.step("clka").unwrap();
    s.step("clkb").unwrap();
    assert_eq!(s.peek("ca").unwrap().to_u64(), 2);
    assert_eq!(s.peek("cb").unwrap().to_u64(), 1);
}

#[test]
fn signed_comparison() {
    let mut s = sim(
        "module m(input clk, input signed [7:0] a, input signed [7:0] b, output reg lt);
            always @(posedge clk) lt <= a < b;
         endmodule",
        "m",
    );
    s.poke("a", Bits::from_u64(8, 0xFE)).unwrap(); // -2
    s.poke_u64("b", 1).unwrap();
    s.step("clk").unwrap();
    assert!(s.peek("lt").unwrap().to_bool());
}

#[test]
fn width_cast_truncates_like_the_paper() {
    // §3.2.2: left <= 42'(right) >> 6 loses bits [47:42].
    let mut s = sim(
        "module m(input clk, input [63:0] right, output reg [41:0] left);
            always @(posedge clk) left <= 42'(right) >> 6;
         endmodule",
        "m",
    );
    // Meaningful data in bits [47:6].
    let val = 0xFFF0_0000_0040u64; // bits 46..43 set plus bit 6
    s.poke("right", Bits::from_u64(64, val)).unwrap();
    s.step("clk").unwrap();
    let got = s.peek("left").unwrap().to_u64();
    let correct = (val & ((1u64 << 48) - 1)) >> 6;
    assert_ne!(got, correct, "truncation must corrupt the value");
    let truncated = (val & ((1u64 << 42) - 1)) >> 6;
    assert_eq!(got, truncated);
}

#[test]
fn checkpoint_and_restore_rewind_time() {
    let mut s = sim(
        "module m(input clk, output reg [7:0] q);
            always @(posedge clk) begin
                q <= q + 8'd1;
                $display(\"q=%0d\", q);
            end
         endmodule",
        "m",
    );
    s.run("clk", 5).unwrap();
    let cp = s.checkpoint().unwrap();
    let logs_at_cp = s.logs().len();
    s.run("clk", 5).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 10);
    s.restore(&cp).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 5);
    assert_eq!(s.cycle("clk"), 5);
    assert_eq!(s.logs().len(), logs_at_cp);
    // Re-execution after restore is deterministic.
    s.run("clk", 5).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 10);
}

#[test]
fn vcd_attachment_captures_waveform() {
    use std::sync::{Arc, Mutex};

    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let mut s = sim(
        "module m(input clk, output reg [3:0] q);
            always @(posedge clk) q <= q + 4'd1;
         endmodule",
        "m",
    );
    s.attach_vcd(buf.clone()).unwrap();
    s.run("clk", 4).unwrap();
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(text.contains("$enddefinitions"));
    assert!(text.contains("#1"));
    assert!(text.contains("b0011"), "{text}");
}

#[test]
fn for_loop_cap_is_an_error() {
    let mut s = sim(
        "module m(input clk, output reg [7:0] x);
            integer i;
            always @(posedge clk) begin
                for (i = 0; i < 200000; i = i + 1) x = x + 8'd1;
            end
         endmodule",
        "m",
    );
    assert!(matches!(s.step("clk"), Err(SimError::LoopCap(_))));
}

#[test]
fn log_capacity_drops_oldest() {
    use hwdbg_sim::SimConfig;
    let design = elaborate(
        &parse(
            r#"module m(input clk, output reg [7:0] n);
                always @(posedge clk) begin
                    n <= n + 8'd1;
                    $display("n=%0d", n);
                end
             endmodule"#,
        )
        .unwrap(),
        "m",
        &NoBlackboxes,
    )
    .unwrap();
    let mut s = Simulator::new(
        design,
        &NoModels,
        SimConfig {
            log_capacity: 3,
            ..SimConfig::default()
        },
    )
    .unwrap();
    s.run("clk", 10).unwrap();
    assert_eq!(s.logs().len(), 3);
    assert_eq!(s.dropped_logs(), 7);
    assert_eq!(s.logs()[0].message, "n=7");

    // A long run keeps only the newest `log_capacity` records, in order.
    let design = elaborate(
        &parse(
            r#"module m(input clk, output reg [31:0] n);
                always @(posedge clk) begin
                    n <= n + 32'd1;
                    $display("n=%0d", n);
                end
             endmodule"#,
        )
        .unwrap(),
        "m",
        &NoBlackboxes,
    )
    .unwrap();
    let config = SimConfig {
        log_capacity: 1_000,
        init: RegInit::Zero,
        ..SimConfig::default()
    };
    let mut s = Simulator::new(design, &NoModels, config.clone()).unwrap();
    let messages =
        |s: &Simulator| -> Vec<String> { s.logs().iter().map(|r| r.message.clone()).collect() };
    let expect =
        |from: u32, to: u32| -> Vec<String> { (from..to).map(|n| format!("n={n}")).collect() };
    s.run("clk", 100_000).unwrap();
    assert_eq!(s.dropped_logs(), 99_000);
    assert_eq!(messages(&s), expect(99_000, 100_000));

    // Restore discards records emitted after the checkpoint and keeps
    // those still retained from before it.
    let cp = s.checkpoint().unwrap();
    s.run("clk", 500).unwrap();
    assert_eq!(messages(&s), expect(99_500, 100_500));
    s.restore(&cp).unwrap();
    assert_eq!(s.dropped_logs(), 99_500);
    assert_eq!(messages(&s), expect(99_500, 100_000));

    // Every record present at the checkpoint was evicted since: the log
    // restores empty, and the dropped count is the checkpoint's total.
    s.run("clk", 1_500).unwrap();
    s.restore(&cp).unwrap();
    assert_eq!(s.dropped_logs(), 100_000);
    assert!(s.logs().is_empty());
    s.run("clk", 3).unwrap();
    assert_eq!(messages(&s), expect(100_000, 100_003));

    s.reset(&NoModels, config).unwrap();
    assert_eq!(s.dropped_logs(), 0);
    assert!(s.logs().is_empty());
    s.run("clk", 2).unwrap();
    assert_eq!(messages(&s), expect(0, 2));
}

/// `$display` field widths come from RTL source: an unbounded one used to
/// pad every record to its width (20 MB per record for `%20000000d`). The
/// design is now refused at compile time, under every backend, before any
/// cycle runs — while ordinary widths render as before.
#[test]
fn display_field_width_is_bounded_at_compile_time() {
    use hwdbg_sim::Backend;
    let design_with = |fmt: &str| {
        let src = format!(
            "module m(input clk, input [7:0] a);
                always @(posedge clk) $display(\"{fmt}\", a, a, a);
             endmodule"
        );
        elaborate(&parse(&src).unwrap(), "m", &NoBlackboxes).unwrap()
    };
    for backend in [Backend::Tree, Backend::Levelized] {
        let config = SimConfig::default().with_backend(backend);
        for (fmt, width) in [
            ("v=%20000000d", "20000000"),
            ("v=%2000000000d", "2000000000"),
            ("%0d %99999999999999999999999h", "99999999999999999999999"),
        ] {
            let err = Simulator::new(design_with(fmt), &NoModels, config.clone()).unwrap_err();
            assert_eq!(
                err,
                SimError::FieldWidth {
                    format: fmt.to_owned(),
                    width: width.to_owned(),
                }
            );
            let diag = hwdbg_diag::HwdbgError::from(err);
            assert_eq!(diag.code.as_str(), "E0409");
            assert!(diag.message.contains(fmt), "{}", diag.message);
        }
        let mut s = Simulator::new(design_with("[%0d|%5d|%05t]"), &NoModels, config).unwrap();
        s.poke_u64("a", 42).unwrap();
        s.step("clk").unwrap();
        assert_eq!(s.logs()[0].message, "[42|   42|00042]");
    }
}

/// A `$display` of `n` arguments holds `n` registers at once. One
/// bytecode program addresses 65,535, so a display of 70,000 arguments is
/// refused at compile time with a typed error, under every backend, while
/// one of exactly 65,535 compiles and runs.
#[test]
fn display_arguments_beyond_one_programs_registers_are_refused() {
    use hwdbg_sim::Backend;
    let design_with = |n: usize| {
        let src = format!(
            "module m(input clk, input [3:0] a);
                always @(posedge clk) $display(\"{}\", {});
             endmodule",
            "%h".repeat(n),
            vec!["a"; n].join(", ")
        );
        elaborate(&parse(&src).unwrap(), "m", &NoBlackboxes).unwrap()
    };
    let (too_many, most) = (design_with(70_000), design_with(65_535));
    for backend in [Backend::Tree, Backend::Levelized] {
        let config = SimConfig::default().with_backend(backend);
        let err = Simulator::new(too_many.clone(), &NoModels, config.clone()).unwrap_err();
        assert_eq!(err, SimError::UnitTooLarge { resource: "65535 registers" });
        let diag = hwdbg_diag::HwdbgError::from(err);
        assert_eq!(diag.code.as_str(), "E0410");
        let mut s = Simulator::new(most.clone(), &NoModels, config).unwrap();
        s.poke_u64("a", 0xc).unwrap();
        s.step("clk").unwrap();
        assert_eq!(s.logs()[0].message, "c".repeat(65_535));
    }
}

/// Selects of a parameter are constant (IEEE 1364-2005 §5.2.1): they bound
/// a part select and count a replication, and a bit of a parameter may
/// take a variable index.
#[test]
fn parameter_selects_simulate() {
    use hwdbg_sim::Backend;
    let src = "module m(input [15:0] x, output [6:0] y, output [7:0] z, output q, output r);
        localparam P = 8'h26;
        assign y = x[P[3:0]:0];
        assign z = {P[1:0]{x[3:0]}};
        assign q = x[P[7:4] + 1];
        assign r = P[x[2:0]];
     endmodule";
    let design = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
    for backend in [Backend::Tree, Backend::Levelized] {
        let config = SimConfig::default().with_backend(backend);
        let mut s = Simulator::new(design.clone(), &NoModels, config).unwrap();
        let mut read = |x: u64| {
            s.poke_u64("x", x).unwrap();
            s.settle().unwrap();
            ["y", "z", "q", "r"].map(|n| s.peek(n).unwrap().to_u64())
        };
        assert_eq!(read(0x26ae), [0x2e, 0xee, 1, 0], "{backend:?}");
        assert_eq!(read(0x3a05), [0x05, 0x55, 0, 1], "{backend:?}");
    }
}

/// A concat's parts are dead once pushed, so an rvalue or lvalue concat of
/// more one-bit parts than a program has registers still compiles, and
/// both backends agree on it.
#[test]
fn concats_of_more_parts_than_registers_compile() {
    use hwdbg_sim::Backend;
    const N: u32 = 70_000;
    let rvalue: Vec<String> = (0..N).map(|i| format!("x[{i}]")).collect();
    let lvalue: Vec<String> = (0..N).map(|i| format!("z[{i}:{i}]")).collect();
    let src = format!(
        "module m(input [{top}:0] x, output [{top}:0] y, output [{top}:0] z);
            assign y = {{{}}};
            assign {{{}}} = x;
         endmodule",
        rvalue.join(", "),
        lvalue.join(", "),
        top = N - 1
    );
    let design = elaborate(&parse(&src).unwrap(), "m", &NoBlackboxes).unwrap();
    let mut x = Bits::zero(N);
    for i in (0..N).step_by(7) {
        x.set_bit(i, true);
    }
    let mut reversed = Bits::zero(N);
    for i in 0..N {
        reversed.set_bit(N - 1 - i, x.bit(i));
    }
    for backend in [Backend::Tree, Backend::Levelized] {
        let config = SimConfig::default().with_backend(backend);
        let mut s = Simulator::new(design.clone(), &NoModels, config).unwrap();
        let (lowered, total) = s.compiled_design().lowering_coverage();
        assert_eq!(lowered, total);
        s.poke("x", x.clone()).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap(), &reversed, "{backend:?}");
        assert_eq!(s.peek("z").unwrap(), &reversed, "{backend:?}");
    }
}

#[test]
fn poke_and_peek_unknown_signal_error() {
    let mut s = sim(
        "module m(input clk, output reg q);
            always @(posedge clk) q <= ~q;
         endmodule",
        "m",
    );
    assert!(matches!(
        s.poke_u64("ghost", 1),
        Err(SimError::UnknownSignal(_))
    ));
    assert!(matches!(s.peek("ghost"), Err(SimError::UnknownSignal(_))));
    assert!(s.peek_mem("q", 0).is_err(), "q is not a memory");
}

#[test]
fn restore_unpins_forces_applied_after_checkpoint() {
    // Regression: `Checkpoint` used to omit the force map, so a stuck-at
    // applied after the checkpoint kept pinning the signal after rewind.
    let mut s = sim(
        "module m(input clk, output reg [7:0] q);
            always @(posedge clk) q <= q + 8'd1;
         endmodule",
        "m",
    );
    s.run("clk", 3).unwrap();
    let cp = s.checkpoint().unwrap();
    s.force("q", Bits::from_u64(8, 0xAA)).unwrap();
    s.run("clk", 2).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 0xAA, "pinned while forced");
    s.restore(&cp).unwrap();
    assert!(
        s.forced_signals().is_empty(),
        "restore must rewind the force set"
    );
    assert_eq!(s.peek("q").unwrap().to_u64(), 3);
    s.run("clk", 2).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 5, "q must advance, not stay pinned");
}

#[test]
fn checkpoint_preserves_forces_active_at_capture() {
    // The dual direction: a force active when the checkpoint was taken
    // must still be active after restore.
    let mut s = sim(
        "module m(input clk, output reg [7:0] q);
            always @(posedge clk) q <= q + 8'd1;
         endmodule",
        "m",
    );
    s.force("q", Bits::from_u64(8, 7)).unwrap();
    s.run("clk", 2).unwrap();
    let cp = s.checkpoint().unwrap();
    s.release("q").unwrap();
    s.run("clk", 2).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 9);
    s.restore(&cp).unwrap();
    assert_eq!(s.forced_signals(), vec!["q".to_string()]);
    s.run("clk", 2).unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 7, "restored force still pins");
}

#[test]
fn force_on_promoted_signal_demotes_its_region() {
    // Under the levelized backend the a→b→q chain fuses into one region
    // with `a` and `b` promoted to pinned registers — which normally skip
    // the force map entirely. A force on a promoted signal must demote
    // the region to its per-unit programs (which honor forces) and a
    // release must restore the fused fast path, with correct values
    // throughout.
    let mut s = sim(
        "module m(input clk, input [7:0] d, output [7:0] q);
            wire [7:0] a; assign a = d + 8'd1;
            wire [7:0] b; assign b = a + 8'd1;
            assign q = b + 8'd1;
         endmodule",
        "m",
    );
    let (regions, _, fused) = s.compiled_design().region_stats();
    assert!(regions >= 1 && fused >= 2, "chain must fuse with a/b promoted");
    s.poke_u64("d", 10).unwrap();
    s.settle().unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 13);
    s.force("a", Bits::from_u64(8, 0x40)).unwrap();
    s.poke_u64("d", 20).unwrap();
    s.settle().unwrap();
    assert_eq!(s.peek("a").unwrap().to_u64(), 0x40, "force must pin a");
    assert_eq!(
        s.peek("q").unwrap().to_u64(),
        0x42,
        "downstream of a forced promoted signal must see the forced value"
    );
    s.release("a").unwrap();
    s.settle().unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 23, "release must recompute the chain");
}

#[test]
fn run_until_reports_early_finish() {
    // Regression: `$finish` before the condition used to return Ok, so a
    // watchdog for the "Stuck" symptom silently passed on premature
    // termination.
    let mut s = sim(
        "module m(input clk, output reg [3:0] n, output done);
            assign done = n == 4'd9;
            always @(posedge clk) begin
                n <= n + 4'd1;
                if (n == 4'd2) $finish;
            end
         endmodule",
        "m",
    );
    let err = s
        .run_until("clk", 50, |s| s.peek("done").unwrap().to_bool())
        .unwrap_err();
    assert!(
        matches!(err, SimError::EarlyFinish { cycles: 3 }),
        "expected EarlyFinish after 3 cycles, got {err:?}"
    );
    // And it maps to the stable diagnostic code.
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code.as_str(), "E0406");
}

#[test]
fn metrics_counters_track_hot_path() {
    let src = "module m(input clk, input rst, output reg [7:0] q, output [7:0] y);
            assign y = q ^ 8'h5A;
            always @(posedge clk) begin
                if (rst) q <= 8'd0;
                else q <= q + 8'd1;
            end
         endmodule";
    let design = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
    let mut s = Simulator::new(
        design,
        &NoModels,
        SimConfig::default().with_metrics(true),
    )
    .unwrap();
    s.poke_u64("rst", 0).unwrap();
    s.run("clk", 10).unwrap();
    s.force("q", Bits::from_u64(8, 3)).unwrap();
    s.run("clk", 2).unwrap();
    let c = *s.counters().expect("metrics enabled");
    assert_eq!(c.steps, 12);
    assert!(c.settles >= 24, "two settles per step: {c:?}");
    assert!(c.full_settles >= 1, "initial settle is a full pass: {c:?}");
    assert!(c.units_executed > 0, "{c:?}");
    assert!(c.worklist_pushes > 0, "{c:?}");
    assert_eq!(c.proc_runs, 12);
    assert!(c.nb_commits >= 12, "{c:?}");
    assert!(c.pokes > 0, "{c:?}");
    assert!(c.force_hits > 0, "forced q swallows clocked writes: {c:?}");
    s.reset_counters();
    assert_eq!(*s.counters().unwrap(), Default::default());

    // Metrics off (the default): no registry is allocated at all.
    let mut off = sim(src, "m");
    off.run("clk", 2).unwrap();
    assert!(off.counters().is_none());
}

#[test]
fn step_after_finish_is_a_no_op() {
    let mut s = sim(
        "module m(input clk, output reg [3:0] n);
            always @(posedge clk) begin
                n <= n + 4'd1;
                if (n == 4'd1) $finish;
            end
         endmodule",
        "m",
    );
    s.run("clk", 10).unwrap();
    let n = s.peek("n").unwrap().to_u64();
    s.step("clk").unwrap();
    assert_eq!(s.peek("n").unwrap().to_u64(), n, "frozen after $finish");
}

#[test]
fn stimulus_plan_pokes_through_interned_ids() {
    let mut s = sim(
        "module m(input clk, input [7:0] d, input en, output reg [7:0] q);
            always @(posedge clk) if (en) q <= d;
         endmodule",
        "m",
    );
    let plan = s.stimulus_plan(&["d", "en"]).unwrap();
    let (d, en) = (plan.id(0), plan.id(1));
    s.poke_id(d, &Bits::from_u64(8, 0x5A)).unwrap();
    s.poke_id_u64(en, 1);
    s.step("clk").unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 0x5A);
    // Interned pokes behave exactly like named ones: gated off, q holds.
    s.poke_id_u64(en, 0);
    s.poke_id_u64(d, 0x77);
    s.step("clk").unwrap();
    assert_eq!(s.peek("q").unwrap().to_u64(), 0x5A);
}

#[test]
fn interned_poke_rejects_width_mismatch_and_mems() {
    let mut s = sim(
        "module m(input clk, input [7:0] d, input [1:0] wa, output reg [7:0] q);
            reg [7:0] ram [0:3];
            always @(posedge clk) begin
                ram[wa] <= d;
                q <= ram[0];
            end
         endmodule",
        "m",
    );
    let d = s.stimulus_plan(&["d"]).unwrap().id(0);
    assert!(matches!(
        s.poke_id(d, &Bits::from_u64(4, 1)),
        Err(SimError::WidthMismatch { expected: 8, got: 4, .. })
    ));
    // Memories have no scalar slot: both the plan and the poke refuse them.
    assert!(s.stimulus_plan(&["ram"]).is_err());
    assert!(s.stimulus_plan(&["nope"]).is_err());
}

// ---------------------------------------------------------------------------
// Clock plans: what `step(name)` does for each kind of name.
// ---------------------------------------------------------------------------

/// A design with two processes on `clk`, one on its alias `clk2`, one on
/// both (it must run once per edge), and a FIFO whose clock port is fed by
/// the alias.
const CLOCK_PLAN_SRC: &str = "module m(input clk, input d, input [7:0] din,
        output [7:0] fq, output fempty, output [1:0] fused);
    wire clk2;
    assign clk2 = clk;
    reg [7:0] cnt;
    reg [7:0] q2;
    reg [7:0] mem [0:3];
    always @(posedge clk) cnt <= cnt + 8'd1;
    always @(posedge clk2) q2 <= din ^ {7'd0, d};
    always @(posedge clk) mem[cnt[1:0]] <= din;
    reg [7:0] both;
    always @(posedge clk or posedge clk2) both <= both + cnt;
    scfifo #(.WIDTH(8), .DEPTH(4)) f (.clock(clk2), .data(din), .wrreq(1'b1),
        .rdreq(1'b0), .q(fq), .empty(fempty), .usedw(fused));
endmodule";

/// Steps `clock` three times on a fresh engine and summarizes the cycle
/// counters, processes run, FIFO state and every signal.
fn clock_plan_run(clock: &str) -> String {
    let design = elaborate(
        &parse(CLOCK_PLAN_SRC).unwrap(),
        "m",
        &hwdbg_ip::StdIpLib::new(),
    )
    .unwrap();
    let config = SimConfig::default().with_metrics(true);
    let mut sim = Simulator::new(design, &hwdbg_ip::StdModels, config).unwrap();
    for i in 0..3u64 {
        sim.poke_u64("din", 0x10 + i).unwrap();
        sim.step(clock).unwrap();
    }
    let c = sim.counters().unwrap();
    let mut out = format!(
        "cycle={} clk={} procs={} steps={} pokes={} |",
        sim.cycle(clock),
        sim.cycle("clk"),
        c.proc_runs,
        c.steps,
        c.pokes
    );
    for (name, v) in sim.state().iter_values() {
        out.push_str(&format!(" {name}={}", v.to_hex_string()));
    }
    let mem: Vec<String> = (0..4)
        .map(|i| sim.peek_mem("mem", i).unwrap().to_hex_string())
        .collect();
    out.push_str(&format!(" mem={}", mem.join(",")));
    out
}

#[test]
fn clock_plans_follow_aliases_and_leave_other_names_inert() {
    for (clock, want) in CLOCK_PLAN_WANT {
        assert_eq!(clock_plan_run(clock), *want, "step({clock:?})");
    }
}

/// What the per-scalar plan builder produced; the per-root builder must
/// match it exactly.
const CLOCK_PLAN_WANT: &[(&str, &str)] = &[
    ("clk", "cycle=3 clk=3 procs=12 steps=3 pokes=8 | both=03 clk=1 clk2=1 cnt=03 d=0 din=12 fempty=0 fq=10 fused=3 q2=12 mem=10,11,12,00"),
    ("clk2", "cycle=3 clk=0 procs=12 steps=3 pokes=6 | both=03 clk=0 clk2=0 cnt=03 d=0 din=12 fempty=0 fq=10 fused=3 q2=12 mem=10,11,12,00"),
    ("d", "cycle=3 clk=0 procs=0 steps=3 pokes=8 | both=00 clk=0 clk2=0 cnt=00 d=1 din=12 fempty=1 fq=00 fused=0 q2=00 mem=00,00,00,00"),
    ("din", "cycle=3 clk=0 procs=0 steps=3 pokes=9 | both=00 clk=0 clk2=0 cnt=00 d=0 din=01 fempty=1 fq=00 fused=0 q2=00 mem=00,00,00,00"),
    ("mem", "cycle=3 clk=0 procs=0 steps=3 pokes=3 | both=00 clk=0 clk2=0 cnt=00 d=0 din=12 fempty=1 fq=00 fused=0 q2=00 mem=00,00,00,00"),
    ("nosuch", "cycle=3 clk=0 procs=0 steps=3 pokes=3 | both=00 clk=0 clk2=0 cnt=00 d=0 din=12 fempty=1 fq=00 fused=0 q2=00 mem=00,00,00,00"),
];
