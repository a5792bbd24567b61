//! Pins what the synthesis model reports.
//!
//! For every testbed design (buggy and fixed), the modules SignalCat
//! (default configuration) and FSM Monitor instrument them into, and a
//! hand-written combinational ring, each line of
//! `fixtures/synth_golden.txt` holds the `ResourceReport` of
//! `hwdbg_synth::estimate` and the `TimingReport` of
//! `hwdbg_synth::estimate_timing`: the critical logic levels and the bits
//! of the Fmax value, so a change in the last digit shows up.
//!
//! The ring is cyclic, so the timing relaxation runs all |combs|+1 passes
//! and reports whatever depths that many passes reach. A change to the
//! relaxation's order or pass count shows up there.

use hwdbg::dataflow::{elaborate, resolve, Design, NoBlackboxes};
use hwdbg::ip::StdIpLib;
use hwdbg::rtl::{parse, Module};
use hwdbg::synth::{estimate, estimate_timing};
use hwdbg::testbed::{buggy_design, fixed_design, BugId};
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::{FsmMonitor, SignalCat};

const GOLDEN: &str = include_str!("fixtures/synth_golden.txt");

/// Three `assign`s and an `always @(*)` that feed each other, read by a
/// register and an output.
const RING: &str = "module ring(input clk, input [15:0] d, output [15:0] y,
                                output reg [15:0] q);
    wire [15:0] a, b, c;
    reg [15:0] e;
    assign a = b + d;
    assign b = c ^ 16'h5a5a;
    assign c = (a * 16'd3) >> e[3:0];
    always @(*) begin
        if (a[0]) e = c - 16'd1;
        else e = {c[7:0], c[15:8]};
    end
    assign y = e & a;
    always @(posedge clk) q <= e + b;
endmodule";

/// One golden line for a resolved design.
fn line(name: &str, d: &Design) -> String {
    let r = estimate(d);
    let t = estimate_timing(d);
    format!(
        "{name} regs={} logic={} bram={} levels={} fmax={:016x}",
        r.registers,
        r.logic_cells,
        r.bram_bits,
        t.critical_levels,
        t.fmax_mhz.to_bits()
    )
}

/// The line for a tool's instrumented module, re-resolved as the tools'
/// users do.
fn instrumented_line(name: &str, module: Option<Module>) -> String {
    let Some(module) = module else {
        return format!("{name} none");
    };
    match resolve(module, &StdIpLib::new()) {
        Ok(d) => line(name, &d),
        Err(e) => format!("{name} resolve-error({e})"),
    }
}

fn lines(variant: &str, id: BugId, d: &Design) -> Vec<String> {
    let signalcat = SignalCat::instrument(d, &SignalCatConfig::default())
        .ok()
        .map(|info| info.module);
    let fsm = FsmMonitor::new().instrument(d).ok().map(|info| info.module);
    vec![
        line(&format!("{id}-{variant}"), d),
        instrumented_line(&format!("{id}-{variant}/signalcat"), signalcat),
        instrumented_line(&format!("{id}-{variant}/fsm"), fsm),
    ]
}

#[test]
fn synth_reports_match_golden() {
    let mut got = Vec::new();
    for id in BugId::ALL {
        got.extend(lines("buggy", id, &buggy_design(id).unwrap()));
        got.extend(lines("fixed", id, &fixed_design(id).unwrap()));
    }
    let ring = elaborate(&parse(RING).unwrap(), "ring", &NoBlackboxes).unwrap();
    got.push(line("ring", &ring));
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(got, want, "synth reports drifted:\n{}", got.join("\n"));
}
