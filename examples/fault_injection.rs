//! Fault injection against a live debugging session: perturb the Grayscale
//! accelerator (bug D2) mid-simulation with each fault class and show that
//! every tool keeps producing output — degraded and *marked* as degraded,
//! but never a panic. This is the robustness story of §2: deployed
//! hardware misbehaves in unanticipated ways, and the debugging
//! infrastructure has to survive the very failures it exists to observe.
//!
//! Run with `cargo run --example fault_injection`.

use hwdbg::dataflow::resolve;
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::sim::{FaultPlan, SimConfig, SimError, Simulator};
use hwdbg::testbed::faults::all_plans;
use hwdbg::testbed::{buggy_design, BugId};
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::{FsmMonitor, SignalCat};

/// Drives the D2 grayscale pixel stream (the same stimulus as its testbed
/// workload) while injecting the plan's faults cycle by cycle.
fn drive_pixels(sim: &mut Simulator, plan: &FaultPlan) -> Result<(), SimError> {
    let faults = plan.bind(sim.design());
    sim.poke_u64("rst", 1)?;
    faults.step(sim, "clk")?;
    sim.poke_u64("rst", 0)?;
    sim.poke_u64("start", 1)?;
    faults.step(sim, "clk")?;
    sim.poke_u64("start", 0)?;
    for i in 0..24u64 {
        sim.poke_u64("pix_in", (i << 16) | ((i * 3) << 8) | ((i * 7) % 256))?;
        sim.poke_u64("pix_in_valid", 1)?;
        faults.step(sim, "clk")?;
        sim.poke_u64("pix_in_valid", 0)?;
        sim.poke_u64("host_rd", 1)?;
        faults.step(sim, "clk")?;
        sim.poke_u64("host_rd", 0)?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D2)?;
    let clock = design
        .clocks()
        .into_iter()
        .next()
        .unwrap_or_else(|| "clk".into());

    println!("fault plans derived from the D2 design:");
    let mut plans = all_plans(&design, 0xC0FFEE);
    // Plus a targeted corruption: pin the write FSM to encoding 3, which
    // none of its localparams name — the monitor must flag this.
    plans.push((
        "state-corrupt",
        FaultPlan::new().stuck_at("wr_state", hwdbg::bits::Bits::from_u64(2, 3), 10, Some(30)),
    ));
    for (class, plan) in &plans {
        for f in &plan.faults {
            println!("  [{class:<14}] {f}");
        }
    }

    // Instrument once: SignalCat over the design's $display statements and
    // the FSM monitor over its detected state machines.
    let sc = SignalCat::instrument(&design, &SignalCatConfig::default())?;
    let with_sc = resolve(sc.module.clone(), &lib)?;
    let fsm = FsmMonitor::new().instrument(&design)?;
    let with_fsm = resolve(fsm.module.clone(), &lib)?;

    for (class, plan) in &plans {
        println!("\n=== injecting: {class} ===");

        // SignalCat under faults: the log survives, and a wrapped or
        // truncated buffer is flagged rather than silently incomplete.
        let mut sim = Simulator::new(with_sc.clone(), &StdModels, SimConfig::default())?;
        match drive_pixels(&mut sim, plan) {
            Ok(()) => {
                let checked = SignalCat::reconstruct_checked(&sc, &sim);
                println!(
                    "[signalcat] {} cycles, {} records reconstructed{}",
                    sim.cycle(&clock),
                    checked.value.len(),
                    if checked.is_clean() { "" } else { " (DEGRADED)" }
                );
                for warn in &checked.diags {
                    println!("[signalcat]   {}", warn.render(None));
                }
            }
            Err(e) => {
                let diag: hwdbg::diag::HwdbgError = e.into();
                println!("[signalcat] typed error: {}", diag.render(None));
            }
        }

        // FSM monitor under faults: forcing the state register off its
        // encoding shows up as an "unlabeled state" degradation warning.
        let mut sim = Simulator::new(with_fsm.clone(), &StdModels, SimConfig::default())?;
        match drive_pixels(&mut sim, plan) {
            Ok(()) => {
                let checked = FsmMonitor::trace_checked(&fsm, &sim);
                println!(
                    "[fsm-mon  ] {} transitions observed{}",
                    checked.value.len(),
                    if checked.is_clean() { "" } else { " (DEGRADED)" }
                );
                for warn in &checked.diags {
                    println!("[fsm-mon  ]   {}", warn.render(None));
                }
            }
            Err(e) => {
                let diag: hwdbg::diag::HwdbgError = e.into();
                println!("[fsm-mon  ] typed error: {}", diag.render(None));
            }
        }
    }

    println!("\nevery fault class ran to completion: no panics, degraded output marked.");
    Ok(())
}
