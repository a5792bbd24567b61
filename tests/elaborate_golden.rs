//! Pins what elaboration and compilation produce.
//!
//! For every testbed design (buggy and fixed), and for the modules SignalCat
//! (default configuration) and FSM Monitor instrument them into, each line
//! of `fixtures/elaborate_golden.txt` holds FNV-1a digests of:
//!
//! - the printed flat module;
//! - every signal's name, width, kind, signedness and memory depth;
//! - each driver's read and write sets, in declaration order;
//! - every blackbox's module, name, parameters, connections, port widths
//!   and clock ports;
//! - the compiled schedule's `lowering_coverage()` and `region_stats()`;
//! - every signal value and memory word after the bug's workload, with
//!   the workload's outcome and `$display` log.
//!
//! Any change to the parser, `resolve`, the signal table or
//! `CompiledDesign::new` that alters a design, a schedule or a simulated
//! result shows up here.

use hwdbg::dataflow::{resolve, Design, SigId};
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::rtl::{print_expr, print_lvalue, print_module, Module};
use hwdbg::sim::{CompiledDesign, SimConfig, Simulator};
use hwdbg::testbed::{buggy_design, fixed_design, workloads, BugId};
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::{FsmMonitor, SignalCat};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("fixtures/elaborate_golden.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `text`.
fn fnv(text: &str) -> String {
    let mut h = FNV_OFFSET;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    format!("{h:016x}")
}

fn signals(d: &Design) -> String {
    let mut out = String::new();
    for (key, s) in &d.signals {
        let _ = writeln!(
            out,
            "{key} {} {} {:?} {} {:?}",
            s.name, s.width, s.kind, s.signed, s.mem_depth
        );
    }
    // The table must list the same names, in the same (ID) order.
    for (id, name) in d.table.iter() {
        let _ = writeln!(out, "#{} {name}", id.index());
    }
    out
}

fn drivers(d: &Design) -> String {
    // The sets print as the name sets they were before they held IDs.
    let names =
        |ids: &[SigId]| -> BTreeSet<&str> { ids.iter().map(|&id| d.table.name(id)).collect() };
    let mut out = String::new();
    for c in &d.combs {
        let _ = writeln!(out, "comb r={:?} w={:?}", names(&c.reads), names(&c.writes));
    }
    for p in &d.procs {
        let edges: Vec<String> = p
            .edges
            .iter()
            .map(|e| format!("{}{}", if e.posedge { "+" } else { "-" }, e.signal))
            .collect();
        let _ = writeln!(
            out,
            "proc {edges:?} r={:?} w={:?}",
            names(&p.reads),
            names(&p.writes)
        );
    }
    out
}

fn blackboxes(d: &Design) -> String {
    let mut out = String::new();
    for bb in &d.blackboxes {
        let _ = writeln!(out, "{} {}", bb.module, bb.name);
        for (k, v) in &bb.params {
            let _ = writeln!(out, " param {k}={}", v.to_hex_string());
        }
        for (k, e) in &bb.in_conns {
            let _ = writeln!(out, " in {k}={}", print_expr(e));
        }
        for (k, lv) in &bb.out_conns {
            let _ = writeln!(out, " out {k}={}", print_lvalue(lv));
        }
        let _ = writeln!(out, " widths {:?} clocks {:?}", bb.port_widths, bb.clock_ports);
    }
    out
}

/// Runs `id`'s workload on a fresh engine over `shared` and digests the
/// outcome, the log and the final state.
fn workload(id: BugId, shared: &Arc<CompiledDesign>) -> String {
    let mut sim = match Simulator::from_compiled(Arc::clone(shared), &StdModels, SimConfig::default())
    {
        Ok(sim) => sim,
        Err(e) => return format!("build-error({e})"),
    };
    let outcome = format!("{:?}", workloads::run(id, &mut sim));
    let mut log = String::new();
    for rec in sim.logs() {
        let _ = writeln!(log, "{} {} {}", rec.time, rec.cycle, rec.message);
    }
    let d = sim.design();
    let mut state = String::new();
    for (name, s) in &d.signals {
        match s.mem_depth {
            None => {
                let v = sim.peek(name).map(|b| b.to_hex_string());
                let _ = writeln!(state, "{name}={v:?}");
            }
            Some(depth) => {
                let _ = write!(state, "{name}[]=");
                for i in 0..depth {
                    let v = sim.peek_mem(name, i).map(|b| b.to_hex_string());
                    let _ = write!(state, "{v:?},");
                }
                state.push('\n');
            }
        }
    }
    format!(
        "outcome={} logs={}/{} cycles={} state={}",
        fnv(&outcome),
        fnv(&log),
        sim.logs().len(),
        sim.cycle("clk"),
        fnv(&state)
    )
}

/// One golden line for a resolved design.
fn line(name: &str, id: BugId, d: Design) -> String {
    let mut out = format!(
        "{name} flat={} sigs={}/{} drivers={}/{}+{} bb={}/{}",
        fnv(&print_module(&d.module())),
        fnv(&signals(&d)),
        d.signals.len(),
        fnv(&drivers(&d)),
        d.combs.len(),
        d.procs.len(),
        fnv(&blackboxes(&d)),
        d.blackboxes.len(),
    );
    match CompiledDesign::new(d) {
        Ok(compiled) => {
            let (lowered, total) = compiled.lowering_coverage();
            let (regions, max_level, fused) = compiled.region_stats();
            let shared = Arc::new(compiled);
            let _ = write!(
                out,
                " lowered={lowered}/{total} regions={regions}/{max_level}/{fused} {}",
                workload(id, &shared)
            );
        }
        Err(e) => {
            let _ = write!(out, " compile-error({e})");
        }
    }
    out
}

/// The line for a tool's instrumented module, re-resolved as the tools'
/// users do.
fn instrumented_line(name: &str, id: BugId, module: Option<Module>) -> String {
    let Some(module) = module else {
        return format!("{name} none");
    };
    match resolve(module, &StdIpLib::new()) {
        Ok(d) => line(name, id, d),
        Err(e) => format!("{name} resolve-error({e})"),
    }
}

fn lines(variant: &str, id: BugId, d: Design) -> Vec<String> {
    let signalcat = SignalCat::instrument(&d, &SignalCatConfig::default())
        .ok()
        .map(|info| info.module);
    let fsm = FsmMonitor::new().instrument(&d).ok().map(|info| info.module);
    vec![
        line(&format!("{id}-{variant}"), id, d),
        instrumented_line(&format!("{id}-{variant}/signalcat"), id, signalcat),
        instrumented_line(&format!("{id}-{variant}/fsm"), id, fsm),
    ]
}

#[test]
fn elaborated_designs_match_golden() {
    let mut got = Vec::new();
    for id in BugId::ALL {
        got.extend(lines("buggy", id, buggy_design(id).unwrap()));
        got.extend(lines("fixed", id, fixed_design(id).unwrap()));
    }
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(got, want, "elaboration drifted:\n{}", got.join("\n"));
}
