//! Benchmarks over the full pipeline: parsing, elaboration, simulation,
//! analysis, and instrumentation — plus the ablations called out in
//! DESIGN.md §6 (trigger encoding sweep, comb-scheduling cost).
//!
//! Uses the registry-free harness in `hwdbg_bench::harness` (see there for
//! why criterion is not an option in this build environment). Run with
//! `cargo bench -p hwdbg-bench`; for the machine-readable simulation suite
//! use the `perfsuite` binary instead.

use hwdbg_bench::harness::bench;
use hwdbg_dataflow::{elaborate, PropGraph};
use hwdbg_ip::{StdIpLib, StdModels};
use hwdbg_sim::{SimConfig, Simulator};
use hwdbg_testbed::{buggy_design, metadata, BugId};
use hwdbg_tools::losscheck::LossCheckConfig;
use hwdbg_tools::signalcat::SignalCatConfig;
use hwdbg_tools::{FsmMonitor, LossCheck, SignalCat};

/// Elaborated design for an n-deep chain of `+1` comb stages.
fn comb_chain(n: usize) -> hwdbg_dataflow::Design {
    let mut src = String::from("module m(input clk, input [31:0] d, output [31:0] q);\n");
    for i in 0..n {
        let prev = if i == 0 { "d".into() } else { format!("w{}", i - 1) };
        src.push_str(&format!("wire [31:0] w{i}; assign w{i} = {prev} + 32'd1;\n"));
    }
    src.push_str(&format!("assign q = w{};\nendmodule", n - 1));
    elaborate(
        &hwdbg_rtl::parse(&src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap()
}

fn bench_frontend() {
    let src = metadata(BugId::D2).source;
    bench("parse_grayscale", || hwdbg_rtl::parse(std::hint::black_box(src)).unwrap());
    let file = hwdbg_rtl::parse(src).unwrap();
    let lib = StdIpLib::new();
    bench("elaborate_grayscale", || {
        elaborate(std::hint::black_box(&file), "grayscale", &lib).unwrap()
    });
    bench("print_grayscale", || hwdbg_rtl::print(std::hint::black_box(&file)));
}

fn bench_simulation() {
    let design = buggy_design(BugId::D2).unwrap();
    bench("sim_grayscale_100_cycles", || {
        let mut sim = Simulator::new(design.clone(), &StdModels, SimConfig::default()).unwrap();
        sim.poke_u64("pix_in_valid", 1).unwrap();
        for i in 0..100u64 {
            sim.poke_u64("pix_in", i).unwrap();
            sim.step("clk").unwrap();
        }
        sim.cycle("clk")
    });

    // Ablation: cost of the settle fixpoint as comb chain length grows.
    for n in [4usize, 16, 64, 256] {
        let design = comb_chain(n);
        bench(&format!("sim_comb_chain/{n}"), || {
            let mut sim =
                Simulator::new(design.clone(), &hwdbg_sim::NoModels, SimConfig::default())
                    .unwrap();
            sim.poke_u64("d", 7).unwrap();
            sim.settle().unwrap();
            sim.peek("q").unwrap().to_u64()
        });
    }
}

fn bench_analyses() {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D2).unwrap();
    // The builder itself: `PropGraph::build` on a design whose local
    // graph is already memoized would time only the blackbox extension.
    bench("propgraph_grayscale", || {
        PropGraph::build_local(std::hint::black_box(&design))
    });
    bench("fsm_detect_grayscale", || {
        FsmMonitor::detect(std::hint::black_box(&design))
    });
    let graph = PropGraph::build(&design, &lib).unwrap();
    bench("back_slice_pix_out", || {
        graph.back_slice("pix_out", 4, &[hwdbg_dataflow::DepKind::Data])
    });
    bench("resource_estimate_grayscale", || {
        hwdbg_synth::estimate(std::hint::black_box(&design))
    });
    bench("timing_estimate_grayscale", || {
        hwdbg_synth::estimate_timing(std::hint::black_box(&design))
    });
}

fn bench_instrumentation() {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D2).unwrap();
    let graph = PropGraph::build(&design, &lib).unwrap();
    let cfg = LossCheckConfig {
        source: "pix_in".into(),
        sink: "pix_out".into(),
        source_valid: "pix_in_valid".into(),
    };
    bench("losscheck_instrument_grayscale", || {
        LossCheck::instrument(&design, &graph, &cfg).unwrap()
    });

    // Ablation: SignalCat trigger-encoding cost vs. number of $display
    // statements (the OR-reduced 1-bit-per-statement encoding of §4.1).
    for stmts in [2usize, 8, 32] {
        let mut src = String::from("module m(input clk, input [7:0] d);\nreg [7:0] acc;\n");
        src.push_str("always @(posedge clk) begin\nacc <= acc + d;\n");
        for i in 0..stmts {
            src.push_str(&format!("if (acc == 8'd{i}) $display(\"hit {i} %0d\", d);\n"));
        }
        src.push_str("end\nendmodule");
        let d = elaborate(&hwdbg_rtl::parse(&src).unwrap(), "m", &lib).unwrap();
        bench(&format!("signalcat_trigger/{stmts}"), || {
            SignalCat::instrument(&d, &SignalCatConfig::default()).unwrap()
        });
    }
}

fn main() {
    bench_frontend();
    bench_simulation();
    bench_analyses();
    bench_instrumentation();
}
