//! The parser's nesting limit keeps every later stage on the stack.
//!
//! Each stage after the parser walks the tree recursively, so source that
//! nests too deeply used to abort the whole process with a stack overflow
//! (which `catch_unwind` cannot catch). `hwdbg_rtl::parser::MAX_NESTING`
//! bounds the nesting instead, and these tests hold it to its promise:
//!
//! - for every shape of nesting, the deepest design the parser accepts
//!   runs parse → elaborate → lint → compile → simulate → synth → all
//!   five tools on a thread with a 2 MiB stack;
//! - one level more fails with a spanned E0102, as do the inputs that
//!   used to abort (10,000 nested parentheses, a 100,000-long `~~…~a`
//!   and a 5,000-arm `else if` chain).

use hwdbg::dataflow::{elaborate, resolve, DepKind, Design, PropGraph};
use hwdbg::diag::{ErrorCode, HwdbgError};
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::rtl::parser::MAX_NESTING;
use hwdbg::obs::SimCounters;
use hwdbg::rtl::{parse, parse_expr, print_module, Module};
use hwdbg::sim::{SimConfig, Simulator};
use hwdbg::tools::losscheck::LossCheckConfig;
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::statmon::Event;
use hwdbg::tools::{DependencyMonitor, FsmMonitor, LossCheck, SignalCat, StatisticsMonitor};

/// The stack each design must fit in: the default for a spawned thread,
/// which is where campaign workers run. The promise holds for optimized
/// builds, and CI runs this test with `--release`. An unoptimized build
/// spends 7–13× as much stack per level (on x86-64 it overflows 2 MiB
/// at 111–257 levels, depending on the shape, where an optimized build
/// reaches 784–2,322), so there the thread gets 4× the stack.
const STACK: usize = if cfg!(debug_assertions) { 8 << 20 } else { 2 << 20 };

/// A module around one deeply nested fragment: `items` must drive the
/// 8-bit `y` from the input `a`. The rest gives every tool something to
/// instrument: a `$display`, a three-state FSM, and a loss path from `a`
/// through `s` to `q`, qualified by `v`.
fn design(items: &str) -> String {
    format!(
        "module deep(input clk, input rst, input v, input [7:0] a,
                     output reg [7:0] q, output [7:0] y);
  localparam IDLE = 2'd0;
  localparam BUSY = 2'd1;
  localparam DONE = 2'd2;
  reg [1:0] st;
  reg [7:0] s;
{items}
  always @(posedge clk) begin
    if (rst) begin
      s <= 8'd0;
      q <= 8'd0;
      st <= IDLE;
    end else begin
      if (v) s <= y;
      q <= s;
      case (st)
        IDLE: if (v) st <= BUSY;
        BUSY: st <= DONE;
        default: st <= IDLE;
      endcase
      $display(\"q=%d st=%d\", q, st);
    end
  end
endmodule
"
    )
}

/// A nesting shape: its name and the design that nests `k` levels of it.
type Shape = (&'static str, fn(usize) -> String);

const SHAPES: [Shape; 7] = [
    ("parentheses", |k| {
        design(&format!("  assign y = {}a{};", "(".repeat(k), ")".repeat(k)))
    }),
    ("unary chain", |k| design(&format!("  assign y = {}a;", "~".repeat(k)))),
    ("binary chain", |k| design(&format!("  assign y = a{};", " ^ a".repeat(k)))),
    ("ternary chain", |k| {
        let arms: String = (0..k).map(|i| format!("a[{}] ? a : ", i % 8)).collect();
        design(&format!("  assign y = {arms}8'd0;"))
    }),
    ("concatenation", |k| {
        design(&format!("  assign y = {}a{};", "{".repeat(k), "}".repeat(k)))
    }),
    ("else-if chain", |k| {
        let mut items = String::from("  reg [7:0] r;\n  assign y = r;\n  always @(*)\n    ");
        for i in 0..k {
            items.push_str(&format!("if (a == 8'd{}) r = 8'd{};\n    else ", i % 256, i % 7));
        }
        items.push_str("r = a;");
        design(&items)
    }),
    ("begin blocks", |k| {
        design(&format!(
            "  reg [7:0] r;\n  assign y = r;\n  always @(*) {}r = a;{}",
            "begin ".repeat(k),
            " end".repeat(k)
        ))
    }),
];

/// The deepest `k` of a shape that parses.
fn deepest(shape: fn(usize) -> String) -> usize {
    let mut k = MAX_NESTING;
    while parse(&shape(k)).is_err() {
        k -= 1;
    }
    k
}

/// Runs the whole flow on `src`, panicking on any stage that fails
/// where it should not.
fn run_everything(src: &str) {
    let lib = StdIpLib::new();
    let file = parse(src).unwrap();
    let design = elaborate(&file, "deep", &lib).unwrap();
    let _ = print_module(&design.module());
    let _ = hwdbg::lint::run_default(&design);
    let _ = hwdbg::synth::estimate(&design);
    let _ = hwdbg::synth::estimate_timing(&design);
    let run = |d: Design| {
        let mut sim = Simulator::new(d, &StdModels, SimConfig::default()).unwrap();
        sim.poke_u64("rst", 1).unwrap();
        sim.step("clk").unwrap();
        sim.poke_u64("rst", 0).unwrap();
        sim.poke_u64("v", 1).unwrap();
        sim.poke_u64("a", 0x5a).unwrap();
        sim.run("clk", 8).unwrap();
        sim
    };
    assert!(!run(design.clone()).logs().is_empty());
    // Each tool's instrumented module, resolved and simulated.
    let run_instrumented = |m: Module| run(resolve(m, &lib).unwrap());

    let mut counters = SimCounters::default();
    let info = SignalCat::instrument(&design, &SignalCatConfig::default()).unwrap();
    SignalCat::observe(&info, &run_instrumented(info.module.clone()), &mut counters);
    let info = FsmMonitor::new().instrument(&design).unwrap();
    FsmMonitor::observe(&info, &run_instrumented(info.module.clone()), &mut counters);
    let graph = PropGraph::build(&design, &lib).unwrap();
    let deps = [DepKind::Data, DepKind::Control];
    let chain = DependencyMonitor::analyze(&design, &graph, "q", 2, &deps).unwrap();
    let info = DependencyMonitor::instrument(&design, &chain).unwrap();
    DependencyMonitor::observe(&run_instrumented(info.module.clone()), &mut counters);
    let cfg = LossCheckConfig {
        source: "a".into(),
        sink: "q".into(),
        source_valid: "v".into(),
    };
    let info = LossCheck::instrument(&design, &graph, &cfg).unwrap();
    LossCheck::observe(run_instrumented(info.module.clone()).logs(), &mut counters);
    let events = vec![Event::new("valid", parse_expr("v").unwrap())];
    let info = StatisticsMonitor::instrument(&design, &events, None).unwrap();
    StatisticsMonitor::observe(&info, &run_instrumented(info.module.clone()), &mut counters);
}

/// Runs `f` on a fresh thread with a [`STACK`]-byte stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn a_design_at_the_limit_runs_everything_on_a_2_mib_stack() {
    for (name, shape) in SHAPES {
        on_small_stack(move || {
            let k = deepest(shape);
            assert!(k + 3 >= MAX_NESTING, "{name}: only {k} levels parse");
            run_everything(&shape(k));
        });
    }
}

/// Asserts `src` fails to parse with E0102 at a span inside the source.
fn assert_too_deep(name: &str, src: &str) {
    let err = parse(src).unwrap_err();
    assert!(err.span.start < err.span.end && err.span.end <= src.len(), "{name}: {err:?}");
    let diag: HwdbgError = err.into();
    assert_eq!(diag.code, ErrorCode::NestingTooDeep, "{name}");
    assert_eq!(diag.code.as_str(), "E0102");
    assert_eq!(diag.message, format!("nesting deeper than {MAX_NESTING} levels"), "{name}");
}

#[test]
fn one_level_more_is_a_spanned_e0102() {
    for (name, shape) in SHAPES {
        on_small_stack(move || assert_too_deep(name, &shape(deepest(shape) + 1)));
    }
}

#[test]
fn inputs_that_used_to_overflow_the_stack_are_refused() {
    let cases = [
        ("10,000 parentheses", SHAPES[0].1(10_000)),
        ("100,000-long unary chain", SHAPES[1].1(100_000)),
        ("5,000-arm else-if chain", SHAPES[5].1(5_000)),
    ];
    for (name, src) in cases {
        on_small_stack(move || assert_too_deep(name, &src));
    }
}
