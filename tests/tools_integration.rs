//! End-to-end tool runs against the testbed designs: each tool is applied
//! the way a developer would use it during a debugging session.

use hwdbg::dataflow::{resolve, DepKind, PropGraph};
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::rtl::parse_expr;
use hwdbg::bits::Bits;
use hwdbg::sim::{Log, RegInit, SimConfig, Simulator};
use hwdbg::testbed::{buggy_design, fixed_design, workloads, BugId};
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::statmon::Event;
use hwdbg::tools::{DependencyMonitor, FsmMonitor, SignalCat, StatisticsMonitor};

fn sim_of(design: hwdbg::dataflow::Design) -> Simulator {
    Simulator::new(design, &StdModels, SimConfig::default()).unwrap()
}

/// Each record of `log` as `(site, cycle, arguments)`.
fn values(log: &Log) -> Vec<(u32, u64, Vec<Bits>)> {
    log.iter().map(|r| (r.site, r.cycle, r.args().collect())).collect()
}

/// Each record's rendered text.
fn messages(log: &Log) -> Vec<String> {
    log.iter().map(|r| r.message()).collect()
}

/// SignalCat's unified-logging contract on a real design: the
/// reconstructed on-FPGA log equals the native simulation log.
#[test]
fn signalcat_unifies_simulation_and_deployment_on_grayscale() {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D2).unwrap();

    let mut native = sim_of(design.clone());
    let _ = workloads::run(BugId::D2, &mut native).unwrap();
    assert!(!native.logs().is_empty());

    let info = SignalCat::instrument(&design, &SignalCatConfig::default()).unwrap();
    let mut deployed = sim_of(resolve(info.module.clone(), &lib).unwrap());
    let _ = workloads::run(BugId::D2, &mut deployed).unwrap();
    assert!(deployed.logs().is_empty(), "displays must be stripped");
    let rec = SignalCat::reconstruct(&info, &deployed);
    assert_eq!(values(&rec), values(native.logs()));
    assert_eq!(messages(&rec), messages(native.logs()));
}

/// The same contract on every testbed variant with a clocked `$display`,
/// at zero and at random init: driven by the same workload, the deployed
/// design rebuilds the native records as `(site, cycle, arguments)`,
/// unless SignalCat marks the log degraded.
#[test]
fn signalcat_unifies_simulation_and_deployment_on_every_variant() {
    let lib = StdIpLib::new();
    let mut compared = 0;
    for id in BugId::ALL {
        for (variant, design) in [("buggy", buggy_design(id)), ("fixed", fixed_design(id))] {
            let design = design.unwrap();
            let Ok(info) = SignalCat::instrument(&design, &SignalCatConfig::default()) else {
                continue;
            };
            let deployed_design = resolve(info.module.clone(), &lib).unwrap();
            for init in [RegInit::Zero, RegInit::Random(0x5CA7)] {
                let config = SimConfig { init, ..SimConfig::default() };
                let mut native = Simulator::new(design.clone(), &StdModels, config.clone()).unwrap();
                let _ = workloads::run(id, &mut native);
                let mut deployed =
                    Simulator::new(deployed_design.clone(), &StdModels, config).unwrap();
                let _ = workloads::run(id, &mut deployed);
                let rebuilt = SignalCat::reconstruct_checked(&info, &deployed);
                if rebuilt.is_clean() {
                    let at = format!("{id} {variant} {init:?}");
                    assert_eq!(values(&rebuilt.value), values(native.logs()), "{at}");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 0, "no variant was compared");
}

/// SignalCat keeps each `$display` argument's sign: `%d` of a signed
/// argument prints two's complement in the reconstructed log as it does in
/// simulation (§4.1), on a probe design and on the typing fixture.
#[test]
fn signalcat_reconstructs_signed_arguments() {
    let probe = "module top(input clk, output reg signed [7:0] s);
                   always @(posedge clk) begin
                     s <= 8'hfd;
                     $display(\"s=%0d neg=%0d\", s, $signed(8'hf9));
                   end
                 endmodule";
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/signed_typing.v");
    let fixture = std::fs::read_to_string(fixture).unwrap();
    let lib = StdIpLib::new();
    for (src, top, cycles) in [(probe, "top", 4), (fixture.as_str(), "signed_typing", 16)] {
        let file = hwdbg::rtl::parse(src).unwrap();
        let design = hwdbg::dataflow::elaborate(&file, top, &lib).unwrap();
        let mut native = sim_of(design.clone());
        native.run("clk", cycles).unwrap();
        let native_msgs = messages(native.logs());
        assert!(native_msgs.iter().any(|m| m.contains("=-")), "{top}: no negative %d");

        let info = SignalCat::instrument(&design, &SignalCatConfig::default()).unwrap();
        let mut deployed = sim_of(resolve(info.module.clone(), &lib).unwrap());
        deployed.run("clk", cycles).unwrap();
        let rec = SignalCat::reconstruct(&info, &deployed);
        assert_eq!(values(&rec), values(native.logs()), "{top}");
        assert_eq!(messages(&rec), native_msgs, "{top}");
    }
}

/// FSM Monitor on the case study: the hang leaves the read FSM in
/// RD_FINISH and the write FSM in WR_DATA (§6.3).
#[test]
fn fsm_monitor_shows_grayscale_stuck_states() {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D2).unwrap();
    let info = FsmMonitor::new().instrument(&design).unwrap();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    let _ = workloads::run(BugId::D2, &mut sim).unwrap();
    let trace = FsmMonitor::trace(&info, &sim);
    let last = |sig: &str| {
        trace.iter().rfind(|t| t.signal == sig)
            .map(|t| t.to_name.clone())
            .unwrap_or_default()
    };
    assert_eq!(last("rd_state"), "RD_FINISH");
    assert_eq!(last("wr_state"), "WR_DATA");
}

/// Statistics Monitor exposes the loss as an input/output count mismatch.
#[test]
fn statistics_monitor_counts_expose_d2_loss() {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D2).unwrap();
    let events = vec![
        Event::new("inp", parse_expr("pix_in_valid").unwrap()),
        Event::new("out", parse_expr("pix_out_valid").unwrap()),
    ];
    let info = StatisticsMonitor::instrument(&design, &events, None).unwrap();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    let _ = workloads::run(BugId::D2, &mut sim).unwrap();
    let counts = StatisticsMonitor::counts(&info, &sim);
    assert_eq!(counts["inp"], 24);
    assert!(counts["out"] < counts["inp"]);
}

/// Dependency Monitor traces an incorrect digest back through the SHA512
/// round pipeline to the truncated temporary.
#[test]
fn dependency_monitor_reaches_the_truncated_register_in_d5() {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D5).unwrap();
    let graph = PropGraph::build(&design, &lib).unwrap();
    let chain = DependencyMonitor::analyze(
        &design,
        &graph,
        "digest",
        3,
        &[DepKind::Data, DepKind::Control],
    )
    .unwrap();
    assert!(
        chain.deps.contains_key("t1"),
        "the buggy 32-bit t1 must appear in digest's dependency chain: {:?}",
        chain.deps
    );
    let info = DependencyMonitor::instrument(&design, &chain).unwrap();
    let mut sim = sim_of(resolve(info.module.clone(), &lib).unwrap());
    let _ = workloads::run(BugId::D5, &mut sim).unwrap();
    let updates = DependencyMonitor::trace(&sim);
    assert!(
        updates.iter().any(|u| u.signal == "t1"),
        "updates to t1 must be logged: {updates:?}"
    );
}

/// The tools run on instrumented designs without changing the observable
/// bug: the symptom still reproduces after instrumentation.
#[test]
fn instrumentation_preserves_the_bug() {
    let lib = StdIpLib::new();
    for id in [BugId::D2, BugId::C1, BugId::D9] {
        let design = buggy_design(id).unwrap();
        let Ok(info) = SignalCat::instrument(&design, &SignalCatConfig::default()) else {
            continue;
        };
        let mut sim = sim_of(resolve(info.module, &lib).unwrap());
        let outcome = workloads::run(id, &mut sim).unwrap();
        assert!(
            matches!(outcome, hwdbg::testbed::Outcome::Fail { .. }),
            "{id}: instrumentation must not mask the bug"
        );
    }
}

/// Tool composition: FSM Monitor's trace instrumentation is itself built
/// from `$display`s, so SignalCat can compile it for deployment and the
/// transition trace reconstructs identically from the trace buffer —
/// exactly how §4.2 says FSM Monitor "uses SignalCat to support both
/// simulation and on-FPGA scenarios".
#[test]
fn fsm_monitor_composes_with_signalcat() {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D9).unwrap();

    // FSM instrumentation, run natively.
    let fsm_info = FsmMonitor::new().instrument(&design).unwrap();
    let fsm_design = resolve(fsm_info.module.clone(), &lib).unwrap();
    let mut native = sim_of(fsm_design.clone());
    let _ = workloads::run(BugId::D9, &mut native).unwrap();
    let native_trace = FsmMonitor::trace(&fsm_info, &native);
    assert!(!native_trace.is_empty());

    // The FSM-instrumented design compiled for deployment by SignalCat.
    let sc_info = SignalCat::instrument(&fsm_design, &SignalCatConfig::default()).unwrap();
    let mut deployed = sim_of(resolve(sc_info.module.clone(), &lib).unwrap());
    let _ = workloads::run(BugId::D9, &mut deployed).unwrap();
    let reconstructed = SignalCat::reconstruct(&sc_info, &deployed);
    let deployed_trace = FsmMonitor::reconstruct(&fsm_info, &reconstructed);
    assert_eq!(deployed_trace, native_trace);
}

/// Checkpointing composes with the testbed: rewind a buggy run and
/// re-observe the same symptom deterministically.
#[test]
fn checkpoint_restore_replays_a_buggy_run() {
    let design = buggy_design(BugId::C1).unwrap();
    let mut sim = sim_of(design);
    sim.poke_u64("rst", 1).unwrap();
    sim.step("clk").unwrap();
    sim.poke_u64("rst", 0).unwrap();
    sim.poke_u64("go", 1).unwrap();
    sim.step("clk").unwrap();
    sim.poke_u64("go", 0).unwrap();
    let cp = sim.checkpoint().unwrap();
    sim.run("clk", 50).unwrap();
    let stuck_state = sim.peek("state_dbg").unwrap().to_u64();
    sim.restore(&cp).unwrap();
    sim.run("clk", 50).unwrap();
    assert_eq!(sim.peek("state_dbg").unwrap().to_u64(), stuck_state);
    assert_eq!(stuck_state, 1, "still deadlocked in WAIT");
}

/// §4.3's partial-assignment splitting: per-byte provenance of the SDSPI
/// response exposes the endianness bug directly — the low byte of `resp`
/// is sourced from the high byte of the shift register.
#[test]
fn partial_assignment_splitting_exposes_d9_endianness() {
    let design = buggy_design(BugId::D9).unwrap();
    let parts = DependencyMonitor::partial_assignments(&design, "resp");
    assert_eq!(parts.len(), 2, "{parts:?}");
    assert_eq!((parts[0].lo, parts[0].hi), (0, 7));
    assert_eq!((parts[1].lo, parts[1].hi), (8, 15));
    // Both ranges draw from `shift`; the *fixed* design has the same
    // shape, so the analysis output a developer compares is the printed
    // source expression per range — from the buggy design,
    // resp[7:0] <= shift[15:8] (swapped).
    assert_eq!(parts[0].srcs, vec!["shift".to_string()]);
    let buggy_src = hwdbg::testbed::metadata(BugId::D9).source;
    assert!(buggy_src.contains("resp[7:0] <= shift[15:8]"));
}
