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

/// Declares an IP's ports once, in position order. `$port` gets one
/// variant per port, whose discriminant is the port's position, the index
/// the simulator passes to the model; `NAMES` is the model's port list and
/// `spec_ports` the spec's, so the two cannot disagree.
macro_rules! ip_ports {
    ($(#[$doc:meta])* $port:ident {
        $($var:ident = $name:literal $dir:ident $width:expr $(, $clock:ident)?;)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum $port {
            $($var),*
        }

        impl $port {
            /// Port names in position order: the model's port list.
            pub(crate) const NAMES: &'static [&'static str] = &[$($name),*];

            /// The port at position `i`.
            pub(crate) fn at(i: usize) -> Option<Self> {
                [$($port::$var),*].get(i).copied()
            }

            /// The spec's ports, in position order.
            pub(crate) fn spec_ports() -> Vec<hwdbg_dataflow::BbPort> {
                use hwdbg_dataflow::{BbDir::*, WidthSpec::*};
                vec![$(hwdbg_dataflow::BbPort {
                    name: $name.into(),
                    dir: $dir,
                    width: $width,
                    is_clock: ip_ports!(@clock $($clock)?),
                }),*]
            }
        }

        impl From<$port> for usize {
            fn from(p: $port) -> usize {
                p as usize
            }
        }
    };
    (@clock clock) => { true };
    (@clock) => { false };
}

/// A `Clone` model's [`Blackbox`] downcast and checkpoint methods: the
/// snapshot is a clone of the whole model.
macro_rules! clone_state {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
            Some(Box::new(self.clone()))
        }

        fn restore(&mut self, state: &dyn std::any::Any) -> bool {
            state.downcast_ref::<Self>().map(|st| *self = st.clone()).is_some()
        }
    };
}

mod fifo;
mod ram;
mod trace;

pub use fifo::{Dcfifo, Scfifo};
pub use ram::Altsyncram;
pub use trace::{TraceBuffer, TraceEntry};

use fifo::{DcfifoPort, ScfifoPort};
use hwdbg_bits::Bits;
use hwdbg_dataflow::{BbInst, BlackboxLib, BlackboxSpec, IpRelation};
use hwdbg_sim::{Blackbox, BlackboxFactory};
use ram::AltsyncramPort;
use std::collections::BTreeMap;
use trace::TracePort;

/// Input `port` of a port-indexed input slice, as a condition; false when
/// the slice has no such position.
fn bit(inputs: &[Bits], port: impl Into<usize>) -> bool {
    inputs.get(port.into()).is_some_and(Bits::to_bool)
}

/// Input `port` of a port-indexed input slice, cut or zero-extended to
/// `width` bits.
fn word(inputs: &[Bits], port: impl Into<usize>, width: u32) -> Bits {
    inputs
        .get(port.into())
        .map_or_else(|| Bits::zero(width), |b| b.resize(width))
}

/// Name of the recording IP module SignalCat instantiates.
pub const TRACE_BUFFER_MODULE: &str = "trace_buffer";

/// Dependency relations of a registered output: `src` reaches each of
/// `dsts` one cycle later, gated by input `cond` when there is one.
fn registered(src: &str, dsts: &[&str], cond: Option<&str>) -> Vec<IpRelation> {
    dsts.iter()
        .map(|dst| IpRelation {
            src: src.into(),
            dst: (*dst).into(),
            cond: cond.map(Into::into),
            latency: 1,
        })
        .collect()
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
        // A FIFO: `data` reaches `q` when written; both requests reach
        // the status outputs, and a read reaches `q` too.
        let fifo = |status: &[&str]| {
            let mut rels = registered("data", &["q"], Some("wrreq"));
            rels.extend(registered("wrreq", status, None));
            rels.extend(registered("rdreq", &[&["q"], status].concat(), None));
            rels
        };
        let mut ram = registered("data", &["q"], Some("wren"));
        ram.extend(registered("wraddress", &["q"], Some("wren")));
        ram.extend(registered("rdaddress", &["q"], None));
        let specs = [
            ("scfifo", ScfifoPort::spec_ports(), fifo(&["empty", "full", "usedw"])),
            ("dcfifo", DcfifoPort::spec_ports(), fifo(&["rdempty", "wrfull"])),
            ("altsyncram", AltsyncramPort::spec_ports(), ram),
            // The trace buffer never feeds back into the design.
            (TRACE_BUFFER_MODULE, TracePort::spec_ports(), Vec::new()),
        ];
        let specs = specs
            .into_iter()
            .map(|(name, ports, relations)| {
                let spec = BlackboxSpec { name: name.into(), ports, relations };
                (spec.name.clone(), spec)
            })
            .collect();
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

/// The value `model` drives on the output at position `port`.
#[cfg(test)]
fn output(model: &dyn Blackbox, port: impl Into<usize>) -> Bits {
    let port = port.into();
    let mut v = Bits::default();
    assert!(model.eval_port(port, &mut v), "no output at position {port}");
    v
}

/// A port-indexed input slice of `n` ports with `set` driven and every
/// other port zero.
#[cfg(test)]
fn inputs<P: Into<usize>>(n: usize, set: impl IntoIterator<Item = (P, u64)>) -> Vec<Bits> {
    let mut v = vec![Bits::zero(1); n];
    for (p, x) in set {
        v[p.into()] = Bits::from_u64(64, x);
    }
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
