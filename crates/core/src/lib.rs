//! The FPGA bug-localization toolkit of the paper: SignalCat, FSM Monitor,
//! Dependency Monitor, Statistics Monitor, and LossCheck.
//!
//! Every tool is a hybrid static/dynamic analysis implemented as a pass
//! over the flat module AST (the same architecture as the paper's
//! Pyverilog passes):
//!
//! * the **static** half inspects the design (path constraints, FSM
//!   heuristics, dependency chains, propagation relations) and splices new
//!   declarations, wires, and clocked logic into the module;
//! * the **dynamic** half runs the instrumented design — in simulation or
//!   "on FPGA" (the [`TraceBuffer`](hwdbg_ip::TraceBuffer) recording IP) —
//!   and reconstructs human-readable logs afterwards.
//!
//! Because instrumentation is real Verilog handed back to the elaborator,
//! the resource and timing cost measured by `hwdbg-synth` is the cost a
//! real deployment would pay — which is what the paper's Figures 2 and 3
//! report.
//!
//! # Examples
//!
//! ```
//! use hwdbg_tools::fsm::FsmMonitor;
//! use hwdbg_dataflow::{elaborate, NoBlackboxes};
//!
//! let design = elaborate(
//!     &hwdbg_rtl::parse(
//!         "module m(input clk, input go, input done);
//!            localparam IDLE = 2'd0; localparam WORK = 2'd1; localparam FIN = 2'd2;
//!            reg [1:0] state;
//!            always @(posedge clk)
//!              case (state)
//!                IDLE: if (go) state <= WORK;
//!                WORK: if (done) state <= FIN;
//!                FIN: state <= IDLE;
//!                default: state <= IDLE;
//!              endcase
//!          endmodule",
//!     )?,
//!     "m",
//!     &NoBlackboxes,
//! )?;
//! let fsms = FsmMonitor::detect(&design);
//! assert_eq!(fsms.len(), 1);
//! assert_eq!(fsms[0].signal, "state");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod depmon;
pub mod fsm;
pub mod losscheck;
pub mod signalcat;
pub mod statmon;

pub use depmon::{DependencyMonitor, PartialAssign};
pub use fsm::{FsmDetectConfig, FsmMonitor};
pub use losscheck::LossCheck;
pub use signalcat::SignalCat;
pub use statmon::StatisticsMonitor;

use hwdbg_dataflow::Design;
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced by the debugging tools.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ToolError {
    /// A named signal does not exist in the design.
    UnknownSignal(String),
    /// The design has no clocked logic to attach instrumentation to.
    NoClock,
    /// The analysis found nothing to instrument.
    NothingToInstrument(String),
    /// Re-elaborating the instrumented module failed (a tool bug).
    Elaboration(String),
    /// No propagation path exists between the given source and sink.
    NoPath {
        /// Configured source register.
        source: String,
        /// Configured sink register.
        sink: String,
    },
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            ToolError::NoClock => write!(f, "design has no clocked process"),
            ToolError::NothingToInstrument(what) => {
                write!(f, "nothing to instrument: {what}")
            }
            ToolError::Elaboration(e) => write!(f, "instrumented design failed to elaborate: {e}"),
            ToolError::NoPath { source, sink } => {
                write!(f, "no propagation path from `{source}` to `{sink}`")
            }
        }
    }
}

impl std::error::Error for ToolError {}

impl From<ToolError> for hwdbg_diag::HwdbgError {
    fn from(e: ToolError) -> Self {
        use hwdbg_diag::{ErrorCode, HwdbgError};
        let message = e.to_string();
        let (code, signals): (ErrorCode, Vec<String>) = match &e {
            ToolError::UnknownSignal(n) => (ErrorCode::UnknownSignal, vec![n.clone()]),
            ToolError::NoClock => (ErrorCode::NoClock, vec![]),
            ToolError::NothingToInstrument(_) => (ErrorCode::NothingToInstrument, vec![]),
            ToolError::Elaboration(_) => (ErrorCode::ToolElaboration, vec![]),
            ToolError::NoPath { source, sink } => {
                (ErrorCode::NoPath, vec![source.clone(), sink.clone()])
            }
        };
        HwdbgError::new(code, message).with_signals(signals)
    }
}

/// The clock of every clocked register, and the design's primary clock.
#[derive(Debug, Clone)]
pub struct ClockMap<'d> {
    design: &'d Design,
    /// Per signal ID: the clock of the last posedge process writing it.
    clocks: Vec<Option<&'d str>>,
    primary: Option<&'d str>,
}

impl<'d> ClockMap<'d> {
    /// The clock of the last posedge process that writes `name`.
    pub fn clock_of(&self, name: &str) -> Option<&'d str> {
        self.design.sig_id(name).and_then(|id| self.clocks[id.index()])
    }

    /// The primary clock: the one whose posedge processes write the most
    /// registers (the last in name order on a tie).
    pub fn primary(&self) -> Option<&'d str> {
        self.primary
    }

    /// The clock to sample `name` on: its own, or else the primary clock.
    ///
    /// # Errors
    ///
    /// [`ToolError::NoClock`] when the design has no posedge process.
    pub fn clock_for(&self, name: &str) -> Result<String, ToolError> {
        self.clock_of(name)
            .or(self.primary)
            .map(str::to_owned)
            .ok_or(ToolError::NoClock)
    }
}

/// Maps every clocked register to the clock that writes it, and finds the
/// design's primary clock (the one driving the most registers).
pub fn clock_map(design: &Design) -> ClockMap<'_> {
    let mut clocks = vec![None; design.table.len()];
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &design.procs {
        let Some(edge) = p.edges.iter().find(|e| e.posedge) else {
            continue;
        };
        if p.writes.is_empty() {
            continue;
        }
        for w in p.writes.iter() {
            clocks[w.index()] = Some(edge.signal.as_str());
        }
        *counts.entry(&edge.signal).or_insert(0) += p.writes.len();
    }
    let primary = counts
        .into_iter()
        .max_by_key(|(_, c)| *c)
        .map(|(clk, _)| clk);
    ClockMap {
        design,
        clocks,
        primary,
    }
}

/// Reduces an expression to one bit (Verilog truthiness) if needed.
pub(crate) fn to_bool(e: hwdbg_rtl::Expr, design: &Design) -> hwdbg_rtl::Expr {
    match design.expr_width(&e) {
        Some(1) => e,
        _ => hwdbg_rtl::Expr::Unary(hwdbg_rtl::UnaryOp::RedOr, Box::new(e)),
    }
}

/// Counts the lines of Verilog a set of generated items prints to —
/// the "lines of analysis code the developer did not have to write"
/// metric from §6.3 of the paper.
pub fn generated_lines(items: &[hwdbg_rtl::Item]) -> usize {
    let module = hwdbg_rtl::Module {
        name: "__generated".into(),
        params: vec![],
        ports: vec![],
        items: items.to_vec(),
        span: hwdbg_rtl::Span::synthetic(),
    };
    let printed = hwdbg_rtl::print_module(&module);
    // Subtract the header and endmodule lines.
    printed.lines().count().saturating_sub(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, NoBlackboxes};

    #[test]
    fn clock_map_finds_primary() {
        let design = elaborate(
            &hwdbg_rtl::parse(
                "module m(input clk, input clk2);
                    reg a;
                    reg b;
                    reg c;
                    always @(posedge clk) begin a <= 1'b1; b <= 1'b0; end
                    always @(posedge clk2) c <= 1'b1;
                 endmodule",
            )
            .unwrap(),
            "m",
            &NoBlackboxes,
        )
        .unwrap();
        let clocks = clock_map(&design);
        assert_eq!(clocks.clock_of("a"), Some("clk"));
        assert_eq!(clocks.clock_of("c"), Some("clk2"));
        assert_eq!(clocks.clock_of("clk"), None);
        assert_eq!(clocks.primary(), Some("clk"));
    }

    #[test]
    fn generated_lines_counts_body() {
        use hwdbg_rtl::{Item, NetDecl, NetKind};
        let items = vec![
            Item::Net(NetDecl::scalar(NetKind::Wire, "a")),
            Item::Net(NetDecl::vector(NetKind::Reg, "b", 8)),
        ];
        assert_eq!(generated_lines(&items), 2);
    }
}
