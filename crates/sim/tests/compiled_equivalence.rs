//! Differential proof that the dependency-driven scheduler is observably
//! identical to full-pass settling.
//!
//! Both [`SettleMode`]s execute the same compiled schedule, so any
//! divergence here isolates a scheduling bug: a driver that should have
//! re-run and didn't (stale read-set), a missed poke/tick wake-up, or an
//! ordering difference that leaks through multiply-driven signals. Every
//! bug in the testbed runs its full workload under both modes and must
//! produce byte-identical `$display` logs, signal/memory state, and VCD
//! waveforms.

use hwdbg_ip::StdModels;
use hwdbg_sim::{RegInit, SettleMode, SimConfig, Simulator};
use hwdbg_testbed::{buggy_design, workloads, BugId};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` sink the test can read back after the simulator takes
/// ownership of it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn config(mode: SettleMode, init: RegInit) -> SimConfig {
    SimConfig {
        init,
        settle_mode: mode,
        ..SimConfig::default()
    }
}

/// Runs one bug's workload under a settle mode, returning the VCD bytes
/// and the simulator for state inspection.
fn run_mode(id: BugId, mode: SettleMode, init: RegInit) -> (Vec<u8>, Simulator, String) {
    let design = buggy_design(id).unwrap();
    let mut sim = Simulator::new(design, &StdModels, config(mode, init)).unwrap();
    let vcd = SharedBuf::default();
    sim.attach_vcd(vcd.clone()).unwrap();
    let outcome = workloads::run(id, &mut sim).unwrap();
    let bytes = vcd.0.lock().unwrap().clone();
    (bytes, sim, format!("{outcome:?}"))
}

fn assert_equivalent(id: BugId, init: RegInit) {
    let (vcd_e, sim_e, out_e) = run_mode(id, SettleMode::EventDriven, init);
    let (vcd_f, sim_f, out_f) = run_mode(id, SettleMode::FullPass, init);

    assert_eq!(out_e, out_f, "{id}: workload outcome diverged");
    assert_eq!(sim_e.logs(), sim_f.logs(), "{id}: $display logs diverged");
    assert_eq!(
        sim_e.dropped_logs(),
        sim_f.dropped_logs(),
        "{id}: dropped-log count diverged"
    );
    assert_eq!(
        sim_e.finished(),
        sim_f.finished(),
        "{id}: $finish state diverged"
    );

    // Every scalar signal, by name, must peek identically…
    for (name, value) in sim_e.state().iter_values() {
        assert_eq!(
            Some(value),
            sim_f.state().get(name),
            "{id}: signal `{name}` diverged"
        );
    }
    // …and every memory, element for element.
    for (name, info) in &sim_e.design().signals {
        if info.mem_depth.is_some() {
            assert_eq!(
                sim_e.state().mem(name),
                sim_f.state().mem(name),
                "{id}: memory `{name}` diverged"
            );
        }
    }

    assert_eq!(vcd_e, vcd_f, "{id}: VCD waveforms diverged");
}

#[test]
fn all_bugs_zero_init() {
    for id in BugId::ALL {
        assert_equivalent(id, RegInit::Zero);
    }
}

#[test]
fn all_bugs_random_init() {
    // Random register images exercise paths a zeroed design never takes
    // (missing-reset bugs, X-ish FSM states).
    for id in BugId::ALL {
        assert_equivalent(id, RegInit::Random(0xD1FF_2026));
    }
}

#[test]
fn checkpoint_restore_stays_equivalent() {
    // After a restore the event-driven scheduler must rebuild its dirty
    // sets from scratch; replaying the same stimulus under both modes must
    // still agree.
    let design = buggy_design(BugId::D2).unwrap();
    let run = |mode| {
        let mut sim = Simulator::new(
            design.clone(),
            &StdModels,
            config(mode, RegInit::Zero),
        )
        .unwrap();
        sim.poke_u64("pix_in_valid", 1).unwrap();
        sim.poke_u64("pix_in", 17).unwrap();
        sim.run("clk", 20).unwrap();
        let cp = sim.checkpoint().unwrap();
        sim.poke_u64("pix_in", 99).unwrap();
        sim.run("clk", 30).unwrap();
        sim.restore(&cp).unwrap();
        sim.poke_u64("pix_in", 42).unwrap();
        sim.run("clk", 10).unwrap();
        let state: Vec<(String, String)> = sim
            .state()
            .iter_values()
            .map(|(n, v)| (n.to_owned(), v.to_bin_string()))
            .collect();
        (state, sim.logs().clone())
    };
    assert_eq!(run(SettleMode::EventDriven), run(SettleMode::FullPass));
}
