//! Cycle-accurate simulator for elaborated RTL designs.
//!
//! This crate plays Verilator's role in the paper: it executes the flat
//! [`Design`](hwdbg_dataflow::Design) produced by `hwdbg-dataflow` with
//! two-phase synchronous semantics (combinational settle, clocked processes
//! reading pre-edge state, nonblocking commit), captures `$display` output
//! as structured [`LogRecord`]s, detects infinite stalls via a watchdog,
//! and can dump VCD waveforms.
//!
//! Unit bodies compile to a `CStmt`/`CExpr` tree and then, every one of
//! them, to bytecode; fused acyclic regions run as straight-line programs
//! under one levelized event-driven scheduler ([`Backend::Levelized`], the
//! default).
//! The tree-walker is the reference evaluator ([`Backend::Tree`]) and
//! [`SettleMode::FullPass`] the reference scheduler; the differential
//! suites hold the production path to both.
//!
//! Blackbox IPs (FIFOs, RAMs, the SignalCat trace buffer) plug in through
//! the [`Blackbox`] / [`BlackboxFactory`] traits; `hwdbg-ip` provides the
//! standard library of models.
//!
//! # Examples
//!
//! ```
//! use hwdbg_sim::{Simulator, SimConfig, NoModels};
//! use hwdbg_dataflow::{elaborate, NoBlackboxes};
//!
//! let file = hwdbg_rtl::parse(
//!     "module counter(input clk, output reg [7:0] q);
//!        always @(posedge clk) q <= q + 8'd1;
//!      endmodule",
//! )?;
//! let design = elaborate(&file, "counter", &NoBlackboxes)?;
//! let mut sim = Simulator::new(design, &NoModels, SimConfig::default())?;
//! sim.run("clk", 10)?;
//! assert_eq!(sim.peek("q")?.to_u64(), 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod bytecode;
mod compile;
mod engine;
mod eval;
pub mod fault;
pub mod format;
mod sched;
mod state;
pub mod vcd;

pub use engine::{
    Backend, CompiledDesign, Checkpoint, SettleMode, SimConfig, Simulator, StimulusPlan,
    DEADLINE_CHECK_MASK,
};
pub use fault::{run_with_faults, step_with_faults, Fault, FaultKind, FaultPlan};
pub use eval::{effective_mem_addr, expr_width};
pub use state::{RegInit, SimState};
pub use vcd::VcdWriter;

use hwdbg_bits::Bits;
use hwdbg_dataflow::BbInst;
use std::collections::BTreeMap;
use std::fmt;

/// One captured `$display` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Global step counter when the record was produced.
    pub time: u64,
    /// Cycle number of the clock whose edge produced it.
    pub cycle: u64,
    /// The rendered message.
    pub message: String,
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>6}] {}", self.cycle, self.message)
    }
}

/// A behavioral model of a blackbox IP instance.
pub trait Blackbox {
    /// Evaluates the combinational output `port`, a function of internal
    /// state and current inputs, into `out`, reusing its storage; returns
    /// false when the model does not drive the port. Called once per
    /// connected output port per settle, so it must be idempotent for a
    /// given input map and should not allocate.
    fn eval_port(&mut self, port: &str, inputs: &BTreeMap<String, Bits>, out: &mut Bits) -> bool;

    /// State update on a rising edge of the clock connected to `clock_port`,
    /// observing the pre-edge `inputs`.
    fn tick(&mut self, clock_port: &str, inputs: &BTreeMap<String, Bits>);

    /// Downcast hook so post-run tooling (e.g. SignalCat's log
    /// reconstruction) can read captured state out of a model.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Captures the model's internal state for checkpointing. Models that
    /// do not support checkpointing return `None` (the default), which
    /// makes [`Simulator::checkpoint`] fail rather than silently produce
    /// a partial snapshot. The payload is `Send` so checkpoints can move
    /// between campaign worker threads with the simulators they rewind.
    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        None
    }

    /// Restores state captured by [`snapshot`](Self::snapshot). Returns
    /// false when the payload is not recognized.
    fn restore(&mut self, _state: &dyn std::any::Any) -> bool {
        false
    }
}

/// Creates behavioral models for blackbox instances. Models are `Send`
/// so a simulator (and everything it owns) can run on a worker thread.
pub trait BlackboxFactory {
    /// Returns a model for `inst`, or `None` if the IP is unknown.
    fn create(&self, inst: &BbInst) -> Option<Box<dyn Blackbox + Send>>;
}

/// A factory with no models (pure-RTL designs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoModels;

impl BlackboxFactory for NoModels {
    fn create(&self, _inst: &BbInst) -> Option<Box<dyn Blackbox + Send>> {
        None
    }
}

/// Errors produced by simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Reference to a signal the design does not declare.
    UnknownSignal(String),
    /// A part-select or replication whose bounds are not constant.
    NonConstSelect,
    /// A part-select whose constant bounds are reversed (`[lsb:msb]` with
    /// `lsb > msb`). Distinct from [`SimError::NonConstSelect`]: the
    /// bounds *are* constant, they are just in the wrong order.
    ReversedRange {
        /// The (smaller) value written in the msb position.
        msb: u64,
        /// The (larger) value written in the lsb position.
        lsb: u64,
    },
    /// Combinational logic failed to reach a fixpoint.
    CombLoop {
        /// Signals still changing value in the final settle iterations —
        /// the cycle to break is among these.
        unstable: Vec<String>,
    },
    /// A procedural `for` loop ran more than 65,536 iterations.
    LoopCap(String),
    /// `run_until` hit its cycle budget — the design appears stuck.
    Watchdog {
        /// How many cycles were executed before giving up.
        cycles: u64,
    },
    /// The design executed `$finish` before the `run_until` condition ever
    /// held — the testbench terminated early rather than reaching the
    /// awaited state.
    EarlyFinish {
        /// How many cycles were executed before `$finish`.
        cycles: u64,
    },
    /// The wall-clock deadline ([`SimConfig::deadline`]) expired before
    /// the run finished. This is the cooperative per-job watchdog campaign
    /// runners use to surface hung jobs as `timed-out` records instead of
    /// wedging a worker forever; checked once per step and periodically
    /// inside long combinational settles.
    DeadlineExceeded {
        /// Global step count when the deadline fired.
        steps: u64,
    },
    /// A blackbox instance has no behavioral model.
    NoModel(String),
    /// A poke or connection whose value width does not match the signal.
    WidthMismatch {
        /// The signal being written.
        signal: String,
        /// The signal's declared width.
        expected: u32,
        /// The width actually supplied.
        got: u32,
    },
    /// Strict-mode out-of-bounds memory or bit access.
    OutOfBounds {
        /// The memory or vector signal accessed.
        signal: String,
        /// The offending index.
        index: u64,
        /// The legal depth (memories) or width (vectors).
        depth: u64,
    },
    /// A `$display` directive requests a field width above
    /// [`format::MAX_FIELD_WIDTH`] (or one too large to parse). Raised when
    /// the design compiles, before any cycle runs.
    FieldWidth {
        /// The whole format string.
        format: String,
        /// The offending width, as written.
        width: String,
    },
    /// A unit body needs more than one bytecode program can address:
    /// more than 65,535 registers, `$display` statements or wide
    /// constants, or a value wider than `u32::MAX` bits. Raised when the
    /// design compiles, before any cycle runs.
    UnitTooLarge {
        /// What the body needs more than, e.g. `"65535 registers"`.
        resource: &'static str,
    },
    /// A fault plan names an impossible target (unknown signal, bit out of
    /// range, value wider than the signal).
    BadFault(String),
    /// An internal invariant broke; a bug in the simulator, not the design.
    Internal(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            SimError::NonConstSelect => write!(f, "non-constant select bounds"),
            SimError::ReversedRange { msb, lsb } => write!(
                f,
                "reversed part-select bounds [{msb}:{lsb}] (msb < lsb)"
            ),
            SimError::CombLoop { unstable } => {
                write!(f, "combinational loop: settle did not converge")?;
                if !unstable.is_empty() {
                    write!(f, " (unstable: {})", unstable.join(", "))?;
                }
                Ok(())
            }
            SimError::LoopCap(v) => write!(f, "for-loop over `{v}` exceeded iteration cap"),
            SimError::Watchdog { cycles } => {
                write!(f, "watchdog: design stuck after {cycles} cycles")
            }
            SimError::EarlyFinish { cycles } => write!(
                f,
                "$finish after {cycles} cycles before the awaited condition held"
            ),
            SimError::DeadlineExceeded { steps } => write!(
                f,
                "wall-clock deadline exceeded after {steps} steps"
            ),
            SimError::NoModel(m) => write!(f, "no behavioral model for blackbox `{m}`"),
            SimError::WidthMismatch {
                signal,
                expected,
                got,
            } => write!(
                f,
                "width mismatch on `{signal}`: expected {expected} bits, got {got}"
            ),
            SimError::OutOfBounds {
                signal,
                index,
                depth,
            } => write!(
                f,
                "out-of-bounds access to `{signal}`: index {index}, depth {depth}"
            ),
            SimError::FieldWidth { format, width } => write!(
                f,
                "$display format {format:?} requests field width {width}, above the limit of {}",
                format::MAX_FIELD_WIDTH
            ),
            SimError::UnitTooLarge { resource } => write!(
                f,
                "a unit body needs more than {resource}, the limit of one bytecode program"
            ),
            SimError::BadFault(m) => write!(f, "invalid fault: {m}"),
            SimError::Internal(m) => write!(f, "internal simulator error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for hwdbg_diag::HwdbgError {
    fn from(e: SimError) -> Self {
        use hwdbg_diag::{ErrorCode, HwdbgError};
        let message = e.to_string();
        let (code, signals): (ErrorCode, Vec<String>) = match &e {
            SimError::UnknownSignal(n) => (ErrorCode::UnknownSignal, vec![n.clone()]),
            SimError::NonConstSelect => (ErrorCode::NonConstSelect, vec![]),
            SimError::ReversedRange { .. } => (ErrorCode::ReversedRange, vec![]),
            SimError::CombLoop { unstable } => (ErrorCode::CombLoop, unstable.clone()),
            SimError::LoopCap(v) => (ErrorCode::LoopCap, vec![v.clone()]),
            SimError::Watchdog { .. } => (ErrorCode::Watchdog, vec![]),
            SimError::EarlyFinish { .. } => (ErrorCode::EarlyFinish, vec![]),
            SimError::DeadlineExceeded { .. } => (ErrorCode::DeadlineExceeded, vec![]),
            SimError::NoModel(m) => (ErrorCode::NoModel, vec![m.clone()]),
            SimError::WidthMismatch { signal, .. } => {
                (ErrorCode::WidthMismatch, vec![signal.clone()])
            }
            SimError::OutOfBounds { signal, .. } => {
                (ErrorCode::OutOfBounds, vec![signal.clone()])
            }
            SimError::FieldWidth { .. } => (ErrorCode::FieldWidth, vec![]),
            SimError::UnitTooLarge { .. } => (ErrorCode::UnitTooLarge, vec![]),
            SimError::BadFault(_) => (ErrorCode::BadFaultPlan, vec![]),
            SimError::Internal(_) => (ErrorCode::Internal, vec![]),
        };
        HwdbgError::new(code, message).with_signals(signals)
    }
}
