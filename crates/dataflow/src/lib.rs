//! Elaboration and dataflow analysis for RTL designs.
//!
//! This crate turns a parsed multi-module design into the flat, analyzed
//! [`Design`] form that the simulator, the resource estimator, and the
//! debugging tools all consume:
//!
//! 1. [`flatten()`] inlines the module hierarchy (the role Verilator's inline
//!    expansion plays in the paper), folding parameters and keeping
//!    localparams so state names survive for the FSM monitor;
//! 2. [`resolve`] classifies every signal (input/output/comb/reg/memory),
//!    partitions drivers into combinational and clocked, and checks the
//!    design for conflicting or dangling drivers;
//! 3. [`PropGraph`] extracts the propagation-relation table `X ⇝σ Y` that
//!    powers Dependency Monitor and LossCheck (§4.5.1 of the paper),
//!    traversing closed-source IPs through [`BlackboxSpec`] models.
//!
//! # Examples
//!
//! ```
//! use hwdbg_dataflow::{elaborate, NoBlackboxes, PropGraph, DepKind};
//!
//! let file = hwdbg_rtl::parse(
//!     "module m(input clk, input d, output reg q);
//!        always @(posedge clk) q <= d;
//!      endmodule",
//! )?;
//! let design = elaborate(&file, "m", &NoBlackboxes)?;
//! let graph = PropGraph::build(&design, &NoBlackboxes)?;
//! let slice = graph.back_slice("q", 1, &[DepKind::Data]);
//! assert!(slice.contains_key("d"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod blackbox;
pub mod consteval;
pub mod design;
pub mod flatten;
pub mod guard;
pub mod index;
pub mod intern;
pub mod prop;
pub mod rewrite;
pub mod scc;
pub mod ty;

pub use blackbox::{BbDir, BbPort, BlackboxLib, BlackboxSpec, IpRelation, NoBlackboxes, WidthSpec, clog2};
pub use consteval::{
    apply_binary_into, apply_binary_signed_into, eval_const, eval_typed, range_width,
    shift_amount, signed_magnitudes, sized_param, ConstEnv,
};
pub use design::{
    elaborate, resolve, BbInst, ClockedProc, CombDriver, Design, SigInfo, SigKind, Signals, Site,
};
pub use index::DesignIndex;
pub use intern::{SigId, SignalTable};
pub use flatten::{expr_to_lvalue, flatten};
pub use guard::{cond_leaves, CondLeaf};
pub use prop::{BuildStats, DepKind, PropGraph, Relation};
pub use rewrite::{rewrite_expr, rewrite_lvalue, rewrite_stmt, Repl};
pub use scc::tarjan_scc;
pub use ty::{lvalue_width, ty, Scope, Ty, WidthError};

use std::fmt;

/// Errors produced by elaboration and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataflowError {
    /// An expression required at compile time references a runtime signal.
    NotConstant(String),
    /// A part-select bound of `select` reads the signal `reads` (E0201,
    /// like [`NotConstant`](Self::NotConstant)).
    NonConstantSelect {
        /// The selected signal.
        select: String,
        /// The name the bound reads.
        reads: String,
    },
    /// A `[msb:lsb]` range with `lsb > msb`, or a memory not based at 0.
    BadRange(String),
    /// Instantiated module is neither RTL source nor a known blackbox.
    UnknownModule(String),
    /// A connection names a port the module does not have.
    UnknownPort(String, String),
    /// A parameter override names an unknown parameter.
    UnknownParam(String, String),
    /// Two declarations share a flat name.
    DuplicateName(String),
    /// An expression references an undeclared signal.
    UnknownSignal(String),
    /// An assignment or an instance output writes a parameter.
    ConstantWrite(String),
    /// An input port was left unconnected.
    UnconnectedInput(String, String),
    /// An output port is connected to a non-lvalue expression.
    BadOutputConnection(String, String),
    /// A signal is driven both combinationally and under a clock.
    ConflictingDrivers(String),
    /// A signal has more than one combinational driver.
    DuplicateDriver(String),
    /// Selecting into something that is not a signal (e.g. a parameter).
    BadSelect(String),
    /// Instantiation recursion exceeded the depth limit.
    RecursionLimit(String),
    /// A construct outside the supported subset.
    Unsupported(String),
    /// An inner error with source-span context attached.
    WithSpan(Box<DataflowError>, hwdbg_rtl::Span),
}

impl DataflowError {
    /// Attaches a source span (no-op if one is already attached).
    #[must_use]
    pub fn at(self, span: hwdbg_rtl::Span) -> DataflowError {
        match self {
            DataflowError::WithSpan(..) => self,
            other => DataflowError::WithSpan(Box::new(other), span),
        }
    }

    /// The underlying error, with any span wrapper peeled off.
    pub fn root(&self) -> &DataflowError {
        match self {
            DataflowError::WithSpan(inner, _) => inner.root(),
            other => other,
        }
    }

    /// The attached source span, if any.
    pub fn span(&self) -> Option<hwdbg_rtl::Span> {
        match self {
            DataflowError::WithSpan(_, span) => Some(*span),
            _ => None,
        }
    }
}

impl From<DataflowError> for hwdbg_diag::HwdbgError {
    fn from(e: DataflowError) -> Self {
        use hwdbg_diag::{ErrorCode, HwdbgError};
        let span = e.span();
        let message = e.to_string();
        let (code, signals): (ErrorCode, Vec<String>) = match e.root() {
            DataflowError::NotConstant(n) | DataflowError::NonConstantSelect { reads: n, .. } => {
                (ErrorCode::NotConstant, vec![n.clone()])
            }
            DataflowError::BadRange(_) => (ErrorCode::BadRange, vec![]),
            DataflowError::UnknownModule(_) => (ErrorCode::UnknownModule, vec![]),
            DataflowError::UnknownPort(_, p) => (ErrorCode::UnknownPort, vec![p.clone()]),
            DataflowError::UnknownParam(_, p) => (ErrorCode::UnknownParam, vec![p.clone()]),
            DataflowError::DuplicateName(n) => (ErrorCode::DuplicateName, vec![n.clone()]),
            DataflowError::UnknownSignal(n) => (ErrorCode::UnknownSignal, vec![n.clone()]),
            DataflowError::ConstantWrite(n) => (ErrorCode::ConstantWrite, vec![n.clone()]),
            DataflowError::UnconnectedInput(_, p) => {
                (ErrorCode::UnconnectedInput, vec![p.clone()])
            }
            DataflowError::BadOutputConnection(_, p) => {
                (ErrorCode::BadOutputConnection, vec![p.clone()])
            }
            DataflowError::ConflictingDrivers(n) => {
                (ErrorCode::ConflictingDrivers, vec![n.clone()])
            }
            DataflowError::DuplicateDriver(n) => (ErrorCode::DuplicateDriver, vec![n.clone()]),
            DataflowError::BadSelect(n) => (ErrorCode::BadRange, vec![n.clone()]),
            DataflowError::RecursionLimit(_) => (ErrorCode::RecursionLimit, vec![]),
            DataflowError::Unsupported(_) => (ErrorCode::Unsupported, vec![]),
            DataflowError::WithSpan(..) => (ErrorCode::Internal, vec![]),
        };
        let mut diag = HwdbgError::new(code, message).with_signals(signals);
        if let Some(span) = span {
            diag = diag.with_span(span);
        }
        diag
    }
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use DataflowError::*;
        match self {
            NotConstant(n) => write!(f, "expression is not constant: `{n}`"),
            NonConstantSelect { select, reads } => write!(
                f,
                "part select of `{select}` has a bound that reads `{reads}`: the bounds must be \
                 constant (a variable-position slice is the indexed part-select \
                 `{select}[base +: width]`, which is not supported yet)"
            ),
            BadRange(r) => write!(f, "invalid range {r}"),
            UnknownModule(m) => write!(f, "unknown module `{m}`"),
            UnknownPort(m, p) => write!(f, "module `{m}` has no port `{p}`"),
            UnknownParam(m, p) => write!(f, "module `{m}` has no parameter `{p}`"),
            DuplicateName(n) => write!(f, "duplicate declaration of `{n}`"),
            UnknownSignal(n) => write!(f, "reference to undeclared signal `{n}`"),
            ConstantWrite(n) => write!(f, "`{n}` is a parameter and cannot be assigned"),
            UnconnectedInput(i, p) => write!(f, "instance `{i}` leaves input `{p}` unconnected"),
            BadOutputConnection(i, p) => {
                write!(f, "instance `{i}` output `{p}` is not connected to an lvalue")
            }
            ConflictingDrivers(n) => {
                write!(f, "signal `{n}` is driven both combinationally and under a clock")
            }
            DuplicateDriver(n) => {
                write!(f, "signal `{n}` has more than one combinational driver")
            }
            BadSelect(n) => write!(f, "cannot select into non-signal `{n}`"),
            RecursionLimit(m) => write!(f, "instantiation recursion limit reached in `{m}`"),
            Unsupported(what) => write!(f, "unsupported construct: {what}"),
            WithSpan(inner, _) => inner.fmt(f),
        }
    }
}

impl std::error::Error for DataflowError {}
