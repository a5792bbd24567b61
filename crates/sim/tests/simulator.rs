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
    for backend in [Backend::Tree, Backend::Bytecode, Backend::Levelized] {
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
