//! Quickstart: parse a design, simulate it, and get the same log from a
//! native simulation and from SignalCat's on-FPGA recording buffer.
//!
//! Run with `cargo run --example quickstart`.

use hwdbg::dataflow::{elaborate, resolve};
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::sim::{SimConfig, Simulator};
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::SignalCat;

const DESIGN: &str = r#"
// A tiny credit-based producer: emits a word and logs every grant.
module producer(input clk, input rst, input grant, output reg [7:0] word);
  always @(posedge clk) begin
    if (rst) begin
      word <= 8'd0;
    end else if (grant) begin
      word <= word + 8'd1;
      $display("granted, next word = %0d", word + 8'd1);
    end
  end
endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = StdIpLib::new();
    let file = hwdbg::rtl::parse(DESIGN)?;
    let design = elaborate(&file, "producer", &lib)?;

    // --- Simulation with native $display -------------------------------
    let mut sim = Simulator::new(design.clone(), &StdModels, SimConfig::default())?;
    sim.poke_u64("rst", 1)?;
    sim.step("clk")?;
    sim.poke_u64("rst", 0)?;
    for cycle in 0..8u64 {
        sim.poke_u64("grant", (cycle % 2 == 0) as u64)?;
        sim.step("clk")?;
    }
    println!("native simulation log:");
    for rec in sim.logs() {
        println!("  {rec}");
    }

    // --- The same design, SignalCat-instrumented for deployment --------
    let instrumented = SignalCat::instrument(&design, &SignalCatConfig::default())?;
    println!(
        "\nSignalCat generated {} lines of recording logic; instrumented Verilog:",
        instrumented.generated_lines
    );
    for line in hwdbg::rtl::print_module(&instrumented.module)
        .lines()
        .filter(|l| l.contains("__sc_") || l.contains("trace_buffer"))
        .take(6)
    {
        println!("  {}", line.trim());
    }

    let deployed = resolve(instrumented.module.clone(), &lib)?;
    let mut fpga = Simulator::new(deployed, &StdModels, SimConfig::default())?;
    fpga.poke_u64("rst", 1)?;
    fpga.step("clk")?;
    fpga.poke_u64("rst", 0)?;
    for cycle in 0..8u64 {
        fpga.poke_u64("grant", (cycle % 2 == 0) as u64)?;
        fpga.step("clk")?;
    }
    assert!(fpga.logs().is_empty(), "displays are stripped on-FPGA");
    let reconstructed = SignalCat::reconstruct(&instrumented, &fpga);
    println!("\nreconstructed from the on-chip trace buffer:");
    for rec in &reconstructed {
        println!("  {rec}");
    }

    // Each record is its `$display`'s site, cycle and argument values.
    let values = |log: &hwdbg::sim::Log| -> Vec<_> {
        log.iter().map(|r| (r.site, r.cycle, r.args().collect::<Vec<_>>())).collect()
    };
    assert_eq!(values(sim.logs()), values(&reconstructed), "unified logging: same records");
    println!("\nnative and reconstructed logs are identical.");
    Ok(())
}
