//! Edge-case coverage for the tools: trigger windows, explicit clocks,
//! multi-clock instrumentation, and configuration errors.

use hwdbg_dataflow::{elaborate, resolve, PropGraph};
use hwdbg_ip::{StdIpLib, StdModels};
use hwdbg_rtl::parse_expr;
use hwdbg_sim::{SimConfig, Simulator};
use hwdbg_tools::losscheck::LossCheckConfig;
use hwdbg_tools::signalcat::SignalCatConfig;
use hwdbg_tools::statmon::Event;
use hwdbg_tools::{DependencyMonitor, FsmMonitor, LossCheck, SignalCat, StatisticsMonitor, ToolError};

fn design(src: &str, top: &str) -> hwdbg_dataflow::Design {
    elaborate(&hwdbg_rtl::parse(src).unwrap(), top, &StdIpLib::new()).unwrap()
}

fn sim_of(d: hwdbg_dataflow::Design) -> Simulator {
    Simulator::new(d, &StdModels, SimConfig::default()).unwrap()
}

const COUNTER: &str = r#"module m(input clk, input go, output reg [7:0] n, output reg alarm);
    always @(posedge clk) begin
        alarm <= 1'b0;
        if (go) begin
            n <= n + 8'd1;
            $display("n=%0d", n);
            if (n == 8'd5) begin
                alarm <= 1'b1;
                $display("alarm fired");
            end
        end
    end
endmodule"#;

#[test]
fn signalcat_post_trigger_window_limits_capture() {
    let lib = StdIpLib::new();
    let d = design(COUNTER, "m");
    let cfg = SignalCatConfig {
        buffer_depth: 64,
        post_trigger: 2,
        trigger: Some(parse_expr("alarm").unwrap()),
    };
    let info = SignalCat::instrument(&d, &cfg).unwrap();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    sim.poke_u64("go", 1).unwrap();
    sim.run("clk", 30).unwrap();
    let rec = SignalCat::reconstruct(&info, &sim);
    // Recording stopped two cycles after the alarm; the counter kept going
    // but nothing past the window was captured.
    let last = rec.iter().last().unwrap();
    assert!(last.cycle <= 10, "{rec:?}");
    assert!(rec.iter().any(|r| r.message() == "alarm fired"));
    assert!(rec.len() < 20, "window must bound the capture: {}", rec.len());
}

#[test]
fn statmon_explicit_clock_and_multibit_event() {
    // Two clock domains; the event is sampled on the named clock, and a
    // multi-bit event expression is reduced to truthiness.
    let src = "module m(input clka, input clkb, input [3:0] v);
        reg [7:0] t;
        always @(posedge clka) t <= t + 8'd1;
        reg [7:0] u;
        always @(posedge clkb) u <= u + 8'd1;
    endmodule";
    let d = design(src, "m");
    let events = vec![Event::new("nonzero", parse_expr("v").unwrap())];
    let info = StatisticsMonitor::instrument(&d, &events, Some("clkb")).unwrap();
    let lib = StdIpLib::new();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    sim.poke_u64("v", 3).unwrap();
    // Events tick on clkb only.
    for _ in 0..4 {
        sim.step("clka").unwrap();
    }
    for _ in 0..3 {
        sim.step("clkb").unwrap();
    }
    let counts = StatisticsMonitor::counts(&info, &sim);
    assert_eq!(counts["nonzero"], 3);
}

#[test]
fn losscheck_rejects_sink_equal_source_adjacent() {
    // Direct input→output with no intermediate register: nothing to track.
    let src = "module m(input clk, input [7:0] d, input v, output reg [7:0] q);
        always @(posedge clk) if (v) q <= d;
    endmodule";
    let d = design(src, "m");
    let g = PropGraph::build(&d, &StdIpLib::new()).unwrap();
    let cfg = LossCheckConfig {
        source: "d".into(),
        sink: "q".into(),
        source_valid: "v".into(),
    };
    assert!(matches!(
        LossCheck::instrument(&d, &g, &cfg),
        Err(ToolError::NothingToInstrument(_))
    ));
}

#[test]
fn losscheck_through_scfifo_ip_model() {
    // The propagation path runs through a closed-source FIFO: the IP model
    // supplies the relations, and the staging register after the FIFO is
    // tracked.
    let src = "module m(input clk, input [7:0] din, input din_valid,
                        input pop, input fwd, output reg [7:0] out);
        wire [7:0] head;
        wire empty;
        reg [7:0] stage;
        scfifo #(.WIDTH(8), .DEPTH(8)) f0 (.clock(clk), .data(din),
            .wrreq(din_valid), .rdreq(pop), .q(head), .empty(empty));
        always @(posedge clk) begin
            if (pop) stage <= head;
            if (fwd) out <= stage;
        end
    endmodule";
    let lib = StdIpLib::new();
    let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &lib).unwrap();
    let g = PropGraph::build(&d, &lib).unwrap();
    let cfg = LossCheckConfig {
        source: "din".into(),
        sink: "out".into(),
        source_valid: "din_valid".into(),
    };
    let info = LossCheck::instrument(&d, &g, &cfg).unwrap();
    assert!(info.tracked.contains(&"stage".to_string()), "{info:?}");
    // Overwrite `stage` twice without forwarding: loss detected.
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    sim.poke_u64("din_valid", 1).unwrap();
    for v in [1u64, 2] {
        sim.poke_u64("din", v).unwrap();
        sim.step("clk").unwrap();
    }
    sim.poke_u64("din_valid", 0).unwrap();
    sim.poke_u64("pop", 1).unwrap();
    sim.step("clk").unwrap(); // stage <= 1
    sim.step("clk").unwrap(); // stage <= 2 (1 never forwarded: loss)
    sim.poke_u64("pop", 0).unwrap();
    for _ in 0..3 {
        sim.step("clk").unwrap();
    }
    assert!(LossCheck::reports(sim.logs()).contains("stage"), "{:?}", sim.logs());
}

#[test]
fn signalcat_two_clock_domains_get_two_buffers() {
    let src = r#"module m(input clka, input clkb, input [3:0] x);
        reg [3:0] p;
        reg [3:0] q;
        always @(posedge clka) begin
            p <= x;
            $display("A %0d", x);
        end
        always @(posedge clkb) begin
            q <= x;
            $display("B %0d", x);
        end
    endmodule"#;
    let d = design(src, "m");
    let info = SignalCat::instrument(&d, &SignalCatConfig::default()).unwrap();
    assert_eq!(info.buffers.len(), 2);
    let lib = StdIpLib::new();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    sim.poke_u64("x", 7).unwrap();
    sim.step("clka").unwrap();
    sim.step("clka").unwrap();
    sim.step("clkb").unwrap();
    let rec = SignalCat::reconstruct(&info, &sim);
    let a = rec.iter().filter(|r| r.message().starts_with("A ")).count();
    let b = rec.iter().filter(|r| r.message().starts_with("B ")).count();
    assert_eq!((a, b), (2, 1), "{rec:?}");
}

// ---------------------------------------------------------------------------
// Typed-diagnostic coverage: every tool misconfiguration maps to a specific
// HwdbgError code via `From<ToolError>`, and degraded runs are marked.
// ---------------------------------------------------------------------------

#[test]
fn losscheck_unknown_source_is_e0207() {
    let lib = StdIpLib::new();
    let d = design(COUNTER, "m");
    let g = PropGraph::build(&d, &lib).unwrap();
    let cfg = LossCheckConfig {
        source: "no_such_source".into(),
        sink: "n".into(),
        source_valid: "go".into(),
    };
    let err = LossCheck::instrument(&d, &g, &cfg).unwrap_err();
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::UnknownSignal);
    assert_eq!(diag.code.as_str(), "E0207");
    assert_eq!(diag.signals, vec!["no_such_source".to_string()]);
}

#[test]
fn statmon_on_clockless_design_is_e0501() {
    let d = design(
        "module m(input a, input b, output w); assign w = a & b; endmodule",
        "m",
    );
    let events = vec![Event::new("ev", parse_expr("w").unwrap())];
    let err = StatisticsMonitor::instrument(&d, &events, None).unwrap_err();
    assert!(matches!(err, ToolError::NoClock));
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::NoClock);
    assert_eq!(diag.code.as_str(), "E0501");
}

#[test]
fn signalcat_without_displays_is_e0502() {
    let d = design(
        "module m(input clk, output reg q); always @(posedge clk) q <= ~q; endmodule",
        "m",
    );
    let err = SignalCat::instrument(&d, &SignalCatConfig::default()).unwrap_err();
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::NothingToInstrument);
    assert_eq!(diag.code.as_str(), "E0502");
}

#[test]
fn depmon_unknown_target_is_e0207() {
    use hwdbg_dataflow::DepKind;
    use hwdbg_tools::DependencyMonitor;
    let lib = StdIpLib::new();
    let d = design(COUNTER, "m");
    let g = PropGraph::build(&d, &lib).unwrap();
    let err =
        DependencyMonitor::analyze(&d, &g, "ghost", 2, &[DepKind::Data]).unwrap_err();
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg_diag::ErrorCode::UnknownSignal);
    assert_eq!(diag.signals, vec!["ghost".to_string()]);
}

#[test]
fn rendered_tool_diagnostic_names_the_signal() {
    let lib = StdIpLib::new();
    let d = design(COUNTER, "m");
    let g = PropGraph::build(&d, &lib).unwrap();
    let cfg = LossCheckConfig {
        source: "phantom".into(),
        sink: "n".into(),
        source_valid: "go".into(),
    };
    let diag: hwdbg_diag::HwdbgError =
        LossCheck::instrument(&d, &g, &cfg).unwrap_err().into();
    let rendered = diag.render(None);
    assert!(rendered.contains("E0207"), "{rendered}");
    assert!(rendered.contains("phantom"), "{rendered}");
}

#[test]
fn signalcat_wrap_is_marked_degraded() {
    let lib = StdIpLib::new();
    let d = design(COUNTER, "m");
    // Depth 4 with a free-running counter: the ring is guaranteed to wrap.
    let cfg = SignalCatConfig {
        buffer_depth: 4,
        ..Default::default()
    };
    let info = SignalCat::instrument(&d, &cfg).unwrap();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    sim.poke_u64("go", 1).unwrap();
    sim.run("clk", 40).unwrap();
    let checked = SignalCat::reconstruct_checked(&info, &sim);
    assert!(!checked.is_clean(), "a wrapped ring must be marked degraded");
    assert!(!checked.value.is_empty(), "degraded output is still output");
    let w = &checked.diags[0];
    assert_eq!(w.code, hwdbg_diag::ErrorCode::DegradedOutput);
    assert_eq!(w.severity, hwdbg_diag::Severity::Warning);
    assert!(w.message.contains("wrapped"), "{}", w.message);
}

#[test]
fn signalcat_unwrapped_run_is_clean() {
    let lib = StdIpLib::new();
    let d = design(COUNTER, "m");
    let info = SignalCat::instrument(&d, &SignalCatConfig::default()).unwrap();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    sim.poke_u64("go", 1).unwrap();
    sim.run("clk", 10).unwrap();
    let checked = SignalCat::reconstruct_checked(&info, &sim);
    assert!(checked.is_clean(), "{:?}", checked.diags);
}

#[test]
fn fsm_trace_marks_forced_unlabeled_state_degraded() {
    use hwdbg_tools::FsmMonitor;
    let lib = StdIpLib::new();
    // A two-state FSM with named states; force it into encoding 3, which
    // no localparam names.
    let src = r#"module m(input clk, input go);
        localparam IDLE = 2'd0;
        localparam BUSY = 2'd1;
        reg [1:0] state;
        always @(posedge clk) begin
            case (state)
                IDLE: if (go) state <= BUSY;
                BUSY: if (!go) state <= IDLE;
                default: state <= IDLE;
            endcase
        end
    endmodule"#;
    let d = design(src, "m");
    let info = FsmMonitor::new().instrument(&d).unwrap();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    sim.poke_u64("go", 1).unwrap();
    sim.step("clk").unwrap();
    sim.force("state", hwdbg_bits::Bits::from_u64(2, 3)).unwrap();
    sim.step("clk").unwrap();
    sim.release("state").unwrap();
    sim.step("clk").unwrap();
    let checked = FsmMonitor::trace_checked(&info, &sim);
    assert!(
        !checked.is_clean(),
        "entering an unlabeled state must be flagged: {:?}",
        checked.value
    );
    let w = &checked.diags[0];
    assert_eq!(w.code, hwdbg_diag::ErrorCode::DegradedOutput);
    assert!(w.message.contains("unlabeled state 3"), "{}", w.message);
    assert_eq!(w.signals, vec!["state".to_string()]);
}

/// A design's own `$display`s are not tool records, whatever their text:
/// LossCheck, FSM Monitor and Dependency Monitor read only the records of
/// the `$display`s they added themselves.
#[test]
fn monitors_ignore_a_designs_own_displays() {
    let src = r#"module m(input clk, input go, output reg [1:0] state, output reg [7:0] x);
        localparam IDLE = 2'd0;
        localparam RUN = 2'd1;
        localparam DONE = 2'd2;
        always @(posedge clk) begin
            case (state)
                IDLE: if (go) state <= RUN;
                RUN: state <= DONE;
                DONE: state <= IDLE;
            endcase
            x <= x + 8'd1;
            $display("LOSSCHECK r");
            $display("FSMMON state %0d %0d", x, x + 8'd1);
            $display("DEPMON x %0d", x);
        end
    endmodule"#;
    let d = design(src, "m");
    let mut sim = sim_of(d.clone());
    sim.run("clk", 6).unwrap();
    assert_eq!(sim.logs().len(), 18, "the design's displays run");
    assert!(LossCheck::reports(sim.logs()).is_empty());
    assert!(DependencyMonitor::trace(&sim).is_empty());

    // With `go` low the state never changes, so FSM Monitor has nothing to
    // report either.
    let info = FsmMonitor::new().instrument(&d).unwrap();
    assert!(info.fsms.iter().any(|f| f.signal == "state"));
    let mut sim = sim_of(resolve(info.module.clone(), &StdIpLib::new()).unwrap());
    sim.run("clk", 6).unwrap();
    assert!(FsmMonitor::trace(&info, &sim).is_empty());
}
