//! Behavioral blackbox IP models and their static dependency descriptions.
//!
//! The paper's testbed uses three closed-source IPs — `altsyncram`,
//! `scfifo`, and `dcfifo` — for which the authors wrote behavioral models
//! and *IP dependency models* so Dependency Monitor and LossCheck can trace
//! through them (§5). This crate provides the same for our designs, plus
//! the [`TraceBuffer`] recording IP that SignalCat instantiates in place of
//! Intel SignalTap / Xilinx ILA.
//!
//! [`StdIpLib`] is the static side (port directions, widths, dependency
//! relations) consumed by elaboration and the analyses; [`StdModels`] is the
//! runtime side consumed by the simulator.
//!
//! # Examples
//!
//! ```
//! use hwdbg_ip::{StdIpLib, StdModels};
//! use hwdbg_dataflow::elaborate;
//! use hwdbg_sim::{Simulator, SimConfig};
//!
//! let src = "module m(input clk, input [7:0] d, input push, input pop,
//!                     output [7:0] head, output empty, output full);
//!     scfifo #(.WIDTH(8), .DEPTH(4)) f0 (.clock(clk), .data(d), .wrreq(push),
//!                                        .rdreq(pop), .q(head), .empty(empty), .full(full));
//! endmodule";
//! let design = elaborate(&hwdbg_rtl::parse(src)?, "m", &StdIpLib::new())?;
//! let mut sim = Simulator::new(design, &StdModels, SimConfig::default())?;
//! sim.poke_u64("push", 1)?;
//! sim.poke_u64("d", 42)?;
//! sim.step("clk")?;
//! sim.poke_u64("push", 0)?;
//! sim.settle()?;
//! assert_eq!(sim.peek("head")?.to_u64(), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod fifo;
mod ram;
mod trace;

pub use fifo::{Dcfifo, Scfifo};
pub use ram::Altsyncram;
pub use trace::{TraceBuffer, TraceEntry};

use hwdbg_dataflow::{BbDir, BbInst, BbPort, BlackboxLib, BlackboxSpec, IpRelation, WidthSpec};
use hwdbg_sim::{Blackbox, BlackboxFactory};
use std::collections::BTreeMap;

/// Name of the recording IP module SignalCat instantiates.
pub const TRACE_BUFFER_MODULE: &str = "trace_buffer";

fn port(name: &str, dir: BbDir, width: WidthSpec, is_clock: bool) -> BbPort {
    BbPort {
        name: name.into(),
        dir,
        width,
        is_clock,
    }
}

fn rel(src: &str, dst: &str, cond: Option<&str>, latency: u32) -> IpRelation {
    IpRelation {
        src: src.into(),
        dst: dst.into(),
        cond: cond.map(Into::into),
        latency,
    }
}

fn scfifo_spec() -> BlackboxSpec {
    use BbDir::*;
    let w = || WidthSpec::Param("WIDTH".into());
    BlackboxSpec {
        name: "scfifo".into(),
        ports: vec![
            port("clock", Input, WidthSpec::Const(1), true),
            port("data", Input, w(), false),
            port("wrreq", Input, WidthSpec::Const(1), false),
            port("rdreq", Input, WidthSpec::Const(1), false),
            port("sclr", Input, WidthSpec::Const(1), false),
            port("aclr", Input, WidthSpec::Const(1), false),
            port("q", Output, w(), false),
            port("empty", Output, WidthSpec::Const(1), false),
            port("full", Output, WidthSpec::Const(1), false),
            port("usedw", Output, WidthSpec::Clog2Param("DEPTH".into()), false),
        ],
        relations: vec![
            rel("data", "q", Some("wrreq"), 1),
            rel("wrreq", "empty", None, 1),
            rel("wrreq", "full", None, 1),
            rel("wrreq", "usedw", None, 1),
            rel("rdreq", "q", None, 1),
            rel("rdreq", "empty", None, 1),
            rel("rdreq", "full", None, 1),
            rel("rdreq", "usedw", None, 1),
        ],
    }
}

fn dcfifo_spec() -> BlackboxSpec {
    use BbDir::*;
    let w = || WidthSpec::Param("WIDTH".into());
    BlackboxSpec {
        name: "dcfifo".into(),
        ports: vec![
            port("wrclk", Input, WidthSpec::Const(1), true),
            port("rdclk", Input, WidthSpec::Const(1), true),
            port("data", Input, w(), false),
            port("wrreq", Input, WidthSpec::Const(1), false),
            port("rdreq", Input, WidthSpec::Const(1), false),
            port("q", Output, w(), false),
            port("rdempty", Output, WidthSpec::Const(1), false),
            port("wrfull", Output, WidthSpec::Const(1), false),
            port("wrusedw", Output, WidthSpec::Clog2Param("DEPTH".into()), false),
        ],
        relations: vec![
            rel("data", "q", Some("wrreq"), 1),
            rel("wrreq", "rdempty", None, 1),
            rel("wrreq", "wrfull", None, 1),
            rel("rdreq", "q", None, 1),
            rel("rdreq", "rdempty", None, 1),
            rel("rdreq", "wrfull", None, 1),
        ],
    }
}

fn altsyncram_spec() -> BlackboxSpec {
    use BbDir::*;
    BlackboxSpec {
        name: "altsyncram".into(),
        ports: vec![
            port("clock0", Input, WidthSpec::Const(1), true),
            port("data", Input, WidthSpec::Param("WIDTH".into()), false),
            port("wraddress", Input, WidthSpec::Clog2Param("DEPTH".into()), false),
            port("wren", Input, WidthSpec::Const(1), false),
            port("rdaddress", Input, WidthSpec::Clog2Param("DEPTH".into()), false),
            port("q", Output, WidthSpec::Param("WIDTH".into()), false),
        ],
        relations: vec![
            rel("data", "q", Some("wren"), 1),
            rel("wraddress", "q", Some("wren"), 1),
            rel("rdaddress", "q", None, 1),
        ],
    }
}

fn trace_buffer_spec() -> BlackboxSpec {
    use BbDir::*;
    BlackboxSpec {
        name: TRACE_BUFFER_MODULE.into(),
        ports: vec![
            port("clock", Input, WidthSpec::Const(1), true),
            port("enable", Input, WidthSpec::Const(1), false),
            port("din", Input, WidthSpec::Param("WIDTH".into()), false),
            port("trigger", Input, WidthSpec::Const(1), false),
            port("full", Output, WidthSpec::Const(1), false),
            port("count", Output, WidthSpec::Const(32), false),
        ],
        // The trace buffer never feeds back into the design; no relations.
        relations: vec![],
    }
}

/// The standard IP library: static specs for `scfifo`, `dcfifo`,
/// `altsyncram`, and `trace_buffer`.
#[derive(Debug, Clone)]
pub struct StdIpLib {
    specs: BTreeMap<String, BlackboxSpec>,
}

impl StdIpLib {
    /// Builds the library.
    pub fn new() -> Self {
        let mut specs = BTreeMap::new();
        for s in [
            scfifo_spec(),
            dcfifo_spec(),
            altsyncram_spec(),
            trace_buffer_spec(),
        ] {
            specs.insert(s.name.clone(), s);
        }
        StdIpLib { specs }
    }
}

impl Default for StdIpLib {
    fn default() -> Self {
        Self::new()
    }
}

impl BlackboxLib for StdIpLib {
    fn spec(&self, module: &str) -> Option<&BlackboxSpec> {
        self.specs.get(module)
    }
}

/// The standard behavioral-model factory matching [`StdIpLib`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StdModels;

impl BlackboxFactory for StdModels {
    fn create(&self, inst: &BbInst) -> Option<Box<dyn Blackbox + Send>> {
        match inst.module.as_str() {
            "scfifo" => Some(Box::new(Scfifo::new(&inst.params))),
            "dcfifo" => Some(Box::new(Dcfifo::new(&inst.params))),
            "altsyncram" => Some(Box::new(Altsyncram::new(&inst.params))),
            TRACE_BUFFER_MODULE => Some(Box::new(TraceBuffer::new(&inst.params))),
            _ => None,
        }
    }
}

/// The value `model` drives on output `port` with no inputs connected.
#[cfg(test)]
fn output(model: &mut dyn Blackbox, port: &str) -> hwdbg_bits::Bits {
    let mut v = hwdbg_bits::Bits::default();
    assert!(model.eval_port(port, &BTreeMap::new(), &mut v), "no output `{port}`");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::elaborate;
    use hwdbg_sim::{SimConfig, Simulator};

    #[test]
    fn lib_has_all_specs() {
        let lib = StdIpLib::new();
        for m in ["scfifo", "dcfifo", "altsyncram", "trace_buffer"] {
            assert!(lib.spec(m).is_some(), "{m}");
        }
        assert!(lib.spec("mystery").is_none());
    }

    #[test]
    fn fifo_in_design_end_to_end() {
        let src = "module m(input clk, input [7:0] d, input push, input pop,
                            output [7:0] head, output empty, output full);
            scfifo #(.WIDTH(8), .DEPTH(4)) f0 (.clock(clk), .data(d), .wrreq(push),
                                               .rdreq(pop), .q(head), .empty(empty), .full(full));
        endmodule";
        let design =
            elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &StdIpLib::new()).unwrap();
        let mut sim = Simulator::new(design, &StdModels, SimConfig::default()).unwrap();
        sim.poke_u64("push", 1).unwrap();
        for v in [10u64, 20, 30] {
            sim.poke_u64("d", v).unwrap();
            sim.step("clk").unwrap();
        }
        sim.poke_u64("push", 0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek("head").unwrap().to_u64(), 10);
        assert!(!sim.peek("empty").unwrap().to_bool());
        sim.poke_u64("pop", 1).unwrap();
        sim.step("clk").unwrap();
        assert_eq!(sim.peek("head").unwrap().to_u64(), 20);
    }

    #[test]
    fn fifo_relations_traverse_ip() {
        use hwdbg_dataflow::{DepKind, PropGraph};
        let src = "module m(input clk, input [7:0] din, input push, input pop,
                            output reg [7:0] out);
            wire [7:0] head;
            scfifo #(.WIDTH(8), .DEPTH(4)) f0 (.clock(clk), .data(din), .wrreq(push),
                                               .rdreq(pop), .q(head));
            always @(posedge clk) out <= head;
        endmodule";
        let lib = StdIpLib::new();
        let design = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &lib).unwrap();
        let g = PropGraph::build(&design, &lib).unwrap();
        let slice = g.back_slice("out", 3, &[DepKind::Data]);
        assert!(slice.contains_key("din"), "{slice:?}");
        let seq = g.propagation_sequence("din", "out");
        assert!(seq.contains("head"));
    }
}
