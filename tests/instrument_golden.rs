//! Pins the instrumented Verilog the tools emit.
//!
//! Every testbed design (buggy and fixed) must print the same instrumented
//! module as the digests in `fixtures/instrument_golden.txt`: SignalCat
//! (default configuration) and FSM Monitor on all of them, LossCheck and
//! Statistics Monitor on the variants whose bug has a LossCheck setup.
//! SignalCat's discovered path constraints are pinned separately, so a
//! change to the condition a `$display` is recorded under shows up even
//! where the module text hides it.

use hwdbg::dataflow::{Design, PropGraph};
use hwdbg::ip::StdIpLib;
use hwdbg::rtl::{parse_expr, print_expr, print_module, Module};
use hwdbg::testbed::{buggy_design, fixed_design, metadata, BugId};
use hwdbg::tools::losscheck::LossCheckConfig;
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::statmon::Event;
use hwdbg::tools::{FsmMonitor, LossCheck, SignalCat, StatisticsMonitor};

const GOLDEN: &str = include_str!("fixtures/instrument_golden.txt");

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

/// The digest of an instrumented module, or `none` when the tool declined.
fn module_digest<E>(module: Result<Module, E>) -> String {
    module.map_or_else(|_| "none".to_owned(), |m| fnv(&print_module(&m)))
}

/// One golden line for a design.
fn line(name: &str, id: BugId, d: &Design) -> String {
    let signalcat = module_digest(
        SignalCat::instrument(d, &SignalCatConfig::default()).map(|info| info.module),
    );
    let stmts = SignalCat::discover(d);
    let constraints: String = stmts
        .iter()
        .map(|s| format!("{} {} {}\n", s.clock, s.format, print_expr(&s.constraint)))
        .collect();
    let fsm = module_digest(FsmMonitor::new().instrument(d).map(|info| info.module));
    let mut out = format!(
        "{name} signalcat={signalcat} constraints={}/{} fsm={fsm}",
        fnv(&constraints),
        stmts.len()
    );
    if let Some(loss) = metadata(id).loss {
        let graph = PropGraph::build(d, &StdIpLib::new()).unwrap();
        let cfg = LossCheckConfig {
            source: loss.source.to_owned(),
            sink: loss.sink.to_owned(),
            source_valid: loss.valid.to_owned(),
        };
        let losscheck =
            module_digest(LossCheck::instrument(d, &graph, &cfg).map(|info| info.module));
        let events = vec![Event::new("valid", parse_expr(loss.valid).unwrap())];
        let statmon =
            module_digest(StatisticsMonitor::instrument(d, &events, None).map(|info| info.module));
        out.push_str(&format!(" losscheck={losscheck} statmon={statmon}"));
    }
    out
}

#[test]
fn instrumented_modules_match_golden() {
    let mut got = Vec::new();
    for id in BugId::ALL {
        got.push(line(&format!("{id}-buggy"), id, &buggy_design(id).unwrap()));
        got.push(line(&format!("{id}-fixed"), id, &fixed_design(id).unwrap()));
    }
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(got, want, "instrumented output drifted:\n{}", got.join("\n"));
}
