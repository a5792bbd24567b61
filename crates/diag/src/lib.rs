//! Typed diagnostics for the whole `hwdbg` pipeline.
//!
//! The paper's premise is that hardware bugs manifest as hangs, data loss,
//! and silent corruption. A debugger that *itself* aborts on a malformed
//! design is no better than the buggy RTL it inspects, so every stage of
//! the pipeline — `parse → elaborate → compile → simulate → analyze` —
//! reports failures as an [`HwdbgError`]: a stable [`ErrorCode`], a
//! [`Severity`], an optional source [`Span`], and the names of the signals
//! involved. Each crate's native error type (`ParseError`,
//! `DataflowError`, `SimError`, `ToolError`) converts into `HwdbgError`
//! via `From`, so callers can collapse any stage failure into one
//! renderable diagnostic.
//!
//! # Examples
//!
//! ```
//! use hwdbg_diag::{ErrorCode, HwdbgError, Severity};
//!
//! let err = HwdbgError::new(ErrorCode::CombLoop, "settle did not converge")
//!     .with_signal("ack")
//!     .with_signal("req")
//!     .with_path("handshake.v");
//! assert_eq!(err.code.as_str(), "E0402");
//! assert_eq!(err.severity, Severity::Error);
//! let rendered = err.render(None);
//! assert!(rendered.contains("E0402"));
//! assert!(rendered.contains("`ack`"));
//! ```

#![warn(missing_docs)]

use hwdbg_rtl::{ParseError, Span};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note attached to otherwise-valid output.
    Note,
    /// The pipeline continued but its output is degraded (e.g. a tool
    /// report reconstructed from a partially corrupt trace buffer).
    Warning,
    /// The stage failed; no output was produced.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes, grouped by pipeline stage:
///
/// * `E01xx` — lexing/parsing
/// * `E02xx` — elaboration (flatten/consteval/resolve)
/// * `E03xx` — simulator compilation
/// * `E04xx` — simulation runtime guards
/// * `E05xx` — analysis tools
/// * `E06xx` — fault injection / testbed harness
/// * `E07xx` — I/O and environment
/// * `E08xx` — campaign orchestration (specs, journals, baselines)
///
/// Static-analysis (lint) findings use a parallel `L`-code range, grouped
/// by the bug-study taxonomy the passes are keyed to:
///
/// * `L01xx` — simulation/synthesis mismatch (latches, assignment races)
/// * `L02xx` — structural defects (combinational loops, width truncation)
/// * `L03xx` — FSM structural defects
/// * `L04xx` — static data loss (the compile-time shadow of LossCheck)
/// * `L05xx` — value-range defects (memory index overflow)
/// * `L06xx` — handshake/protocol defects
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ErrorCode {
    // E01xx: parse.
    /// Source text failed to lex/parse.
    ParseFailed,
    /// Source nests expressions or statements deeper than the parser's
    /// limit (`hwdbg_rtl::parser::MAX_NESTING`).
    NestingTooDeep,
    // E02xx: elaboration.
    /// A compile-time expression references a runtime value.
    NotConstant,
    /// Invalid `[msb:lsb]` range (descending, zero-width, or bad memory base).
    BadRange,
    /// Instantiated module is neither RTL source nor a known blackbox.
    UnknownModule,
    /// Connection names a port the module does not have.
    UnknownPort,
    /// Parameter override names an unknown parameter.
    UnknownParam,
    /// Two declarations share one flat name.
    DuplicateName,
    /// Reference to an undeclared signal.
    UnknownSignal,
    /// An instance input was left unconnected.
    UnconnectedInput,
    /// An instance output is connected to a non-lvalue.
    BadOutputConnection,
    /// A signal is driven both combinationally and under a clock.
    ConflictingDrivers,
    /// A signal has more than one combinational driver.
    DuplicateDriver,
    /// A declared signal is never driven.
    UndrivenSignal,
    /// Instantiation recursion exceeded the depth limit.
    RecursionLimit,
    /// Construct outside the supported Verilog subset.
    Unsupported,
    /// An assignment or an instance output writes a parameter.
    ConstantWrite,
    // E03xx: simulator compilation.
    /// A blackbox instance has no behavioral model.
    NoModel,
    /// A connection's width disagrees with the port/signal width.
    WidthMismatch,
    // E04xx: simulation runtime.
    /// Reserved: non-constant select bounds or replication count. Nothing
    /// raises it, because `resolve` refuses these (E0201); the code stays
    /// assigned so it is never reused.
    NonConstSelect,
    /// Combinational logic failed to reach a fixpoint.
    CombLoop,
    /// A procedural `for` loop exceeded its iteration cap.
    LoopCap,
    /// The design appears stuck (watchdog expired).
    Watchdog,
    /// A memory access was out of bounds (strict-bounds mode).
    OutOfBounds,
    /// `$finish` executed before the awaited condition held.
    EarlyFinish,
    /// The wall-clock deadline expired before the run finished (the
    /// cooperative per-job watchdog of campaign runs).
    DeadlineExceeded,
    /// A part-select whose constant bounds are reversed (`msb < lsb`).
    ReversedRange,
    /// A `$display` directive requests an unbounded field width.
    FieldWidth,
    /// A unit body needs more registers, `$display` statements or wide
    /// constants than one bytecode program can address.
    UnitTooLarge,
    // E05xx: tools.
    /// The design has no clocked logic to instrument.
    NoClock,
    /// The analysis found nothing to instrument.
    NothingToInstrument,
    /// Re-elaborating an instrumented module failed (a tool bug).
    ToolElaboration,
    /// No propagation path between the configured source and sink.
    NoPath,
    /// Tool output was produced but is degraded (marked, not fatal).
    DegradedOutput,
    // E06xx: fault injection.
    /// A fault plan names a signal the design does not have.
    BadFaultTarget,
    /// A fault plan is self-contradictory (overlapping forces, zero window).
    BadFaultPlan,
    // E07xx: environment.
    /// Filesystem or other I/O failure.
    Io,
    /// Anything that escaped classification.
    Internal,
    // E08xx: campaign orchestration.
    /// A campaign job-matrix spec is malformed.
    CampaignSpec,
    /// A campaign design failed to load, elaborate, or compile.
    CampaignDesign,
    /// A campaign worker died beyond what recovery could absorb.
    CampaignWorker,
    /// A resume journal does not match the campaign being resumed.
    JournalMismatch,
    /// A resume journal is unreadable or structurally corrupt.
    JournalCorrupt,
    /// Campaign verdicts drifted from the `--baseline` report.
    BaselineDrift,
    // L01xx: sim/synth mismatch.
    /// A `case` in a combinational block does not cover every path
    /// (missing `default` / partial writes): latch inference.
    LintIncompleteCase,
    /// Blocking assignment in a sequential block to a signal other
    /// processes read: evaluation-order-dependent behavior.
    LintBlockingInSeq,
    /// Nonblocking assignment in a combinational block.
    LintNonblockingInComb,
    /// The same signal is written by more than one clocked process.
    LintMultiProcWrite,
    // L02xx: structure.
    /// Combinational drivers form a cycle (static SCC).
    LintCombLoop,
    /// An assignment silently drops driven high bits.
    LintWidthTruncation,
    // L03xx: FSM structure.
    /// A declared FSM state is never entered.
    LintUnreachableState,
    /// An FSM state has no outgoing transition (trap state).
    LintTrapState,
    /// An FSM transition targets an encoding with no declared state.
    LintUndeclaredState,
    // L04xx: static data loss.
    /// A write is unconditionally overwritten later in the same process
    /// before any reader can observe it.
    LintDeadWrite,
    /// An internal signal is written but never read.
    LintNeverRead,
    /// An input is observed only by `$display`, never by logic.
    LintInputIgnored,
    /// A one-bit flag is set and read but never cleared outside reset.
    LintStickyFlag,
    /// A re-initialization branch misses one register of a reset group.
    LintIncompleteReinit,
    // L05xx: value ranges.
    /// A register-indexed memory access can exceed the memory depth.
    LintMemIndexRange,
    /// A value is width-cast *before* a right shift, discarding the
    /// significant high bits the shift was meant to bring down
    /// (`W'(x) >> k` where `x` is wider than `W`).
    LintTruncatedShift,
    // L06xx: handshake protocol.
    /// A response `valid` is only asserted when `ready` is already high
    /// (the AXI "valid must not wait for ready" rule).
    LintValidWaitsReady,
    /// Handshake flags form a circular set-dependency with no seed:
    /// structural deadlock.
    LintHandshakeDeadlock,
    /// Stream payload registers advance without their valid/ready
    /// qualification (AXI-stream stability violation).
    LintUnqualifiedAdvance,
    /// A backpressure output (ready/stall) is tied to a constant that
    /// permanently admits the upstream stream.
    LintConstantBackpressure,
    /// A FIFO full/ready occupancy threshold admits one write more than
    /// the memory holds.
    LintOccupancyOverflow,
    /// A FIFO admission threshold leaves no margin for the skid register
    /// and/or the registered (one-cycle-stale) ready it is observed
    /// through.
    LintOccupancyMargin,
}

impl ErrorCode {
    /// The stable `EXXYY` code string.
    pub fn as_str(self) -> &'static str {
        use ErrorCode::*;
        match self {
            ParseFailed => "E0101",
            NestingTooDeep => "E0102",
            NotConstant => "E0201",
            BadRange => "E0202",
            UnknownModule => "E0203",
            UnknownPort => "E0204",
            UnknownParam => "E0205",
            DuplicateName => "E0206",
            UnknownSignal => "E0207",
            UnconnectedInput => "E0208",
            BadOutputConnection => "E0209",
            ConflictingDrivers => "E0210",
            DuplicateDriver => "E0211",
            UndrivenSignal => "E0212",
            RecursionLimit => "E0213",
            Unsupported => "E0214",
            ConstantWrite => "E0215",
            NoModel => "E0301",
            WidthMismatch => "E0302",
            NonConstSelect => "E0401",
            CombLoop => "E0402",
            LoopCap => "E0403",
            Watchdog => "E0404",
            OutOfBounds => "E0405",
            EarlyFinish => "E0406",
            DeadlineExceeded => "E0407",
            ReversedRange => "E0408",
            FieldWidth => "E0409",
            UnitTooLarge => "E0410",
            NoClock => "E0501",
            NothingToInstrument => "E0502",
            ToolElaboration => "E0503",
            NoPath => "E0504",
            DegradedOutput => "E0505",
            BadFaultTarget => "E0601",
            BadFaultPlan => "E0602",
            Io => "E0701",
            Internal => "E0799",
            CampaignSpec => "E0801",
            CampaignDesign => "E0802",
            CampaignWorker => "E0803",
            JournalMismatch => "E0804",
            JournalCorrupt => "E0805",
            BaselineDrift => "E0806",
            LintIncompleteCase => "L0101",
            LintBlockingInSeq => "L0102",
            LintNonblockingInComb => "L0103",
            LintMultiProcWrite => "L0104",
            LintCombLoop => "L0201",
            LintWidthTruncation => "L0202",
            LintUnreachableState => "L0301",
            LintTrapState => "L0302",
            LintUndeclaredState => "L0303",
            LintDeadWrite => "L0401",
            LintNeverRead => "L0402",
            LintInputIgnored => "L0403",
            LintStickyFlag => "L0404",
            LintIncompleteReinit => "L0405",
            LintMemIndexRange => "L0501",
            LintTruncatedShift => "L0502",
            LintValidWaitsReady => "L0601",
            LintHandshakeDeadlock => "L0602",
            LintUnqualifiedAdvance => "L0603",
            LintConstantBackpressure => "L0604",
            LintOccupancyOverflow => "L0605",
            LintOccupancyMargin => "L0606",
        }
    }

    /// True for static-analysis (lint) codes — the `LXXYY` range.
    pub fn is_lint(self) -> bool {
        self.as_str().starts_with('L')
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One pipeline diagnostic: a typed, renderable error or warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwdbgError {
    /// Stable code identifying the failure class.
    pub code: ErrorCode,
    /// Error vs. degraded-output warning.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Byte span into the design source, when known.
    pub span: Option<Span>,
    /// Signals involved (e.g. the unstable set of a comb loop).
    pub signals: Vec<String>,
    /// Design path (file name or synthetic identifier), when known.
    pub path: Option<String>,
}

impl HwdbgError {
    /// Creates an error-severity diagnostic.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        HwdbgError {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: None,
            signals: Vec::new(),
            path: None,
        }
    }

    /// Creates a warning-severity diagnostic (degraded output).
    pub fn warning(code: ErrorCode, message: impl Into<String>) -> Self {
        HwdbgError {
            severity: Severity::Warning,
            ..HwdbgError::new(code, message)
        }
    }

    /// Attaches a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Adds an involved signal name.
    #[must_use]
    pub fn with_signal(mut self, signal: impl Into<String>) -> Self {
        self.signals.push(signal.into());
        self
    }

    /// Adds several involved signal names.
    #[must_use]
    pub fn with_signals<I, S>(mut self, signals: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.signals.extend(signals.into_iter().map(Into::into));
        self
    }

    /// Attaches the design path (file name) the diagnostic refers to.
    #[must_use]
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Renders the diagnostic in a rustc-like format. When `source` is
    /// given and the diagnostic has a span, the offending line is excerpted
    /// with a caret.
    pub fn render(&self, source: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        match (self.span, source) {
            (Some(span), Some(src)) => {
                let (line, col) = span.line_col(src);
                let loc = self.path.as_deref().unwrap_or("<design>");
                out.push_str(&format!("\n  --> {loc}:{line}:{col}"));
                if let Some(text) = src.lines().nth(line - 1) {
                    out.push_str(&format!(
                        "\n   |\n   | {text}\n   | {}^",
                        " ".repeat(col.saturating_sub(1))
                    ));
                }
            }
            (Some(span), None) => {
                let loc = self.path.as_deref().unwrap_or("<design>");
                out.push_str(&format!("\n  --> {loc} (bytes {}..{})", span.start, span.end));
            }
            (None, _) => {
                if let Some(p) = &self.path {
                    out.push_str(&format!("\n  --> {p}"));
                }
            }
        }
        if !self.signals.is_empty() {
            let list: Vec<String> = self.signals.iter().map(|s| format!("`{s}`")).collect();
            out.push_str(&format!("\n  = signals: {}", list.join(", ")));
        }
        out
    }
}

impl fmt::Display for HwdbgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.signals.is_empty() {
            let list: Vec<String> = self.signals.iter().map(|s| format!("`{s}`")).collect();
            write!(f, " ({})", list.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for HwdbgError {}

impl From<ParseError> for HwdbgError {
    fn from(e: ParseError) -> Self {
        let code = if e.too_deep {
            ErrorCode::NestingTooDeep
        } else {
            ErrorCode::ParseFailed
        };
        HwdbgError::new(code, e.message).with_span(e.span)
    }
}

impl From<std::io::Error> for HwdbgError {
    fn from(e: std::io::Error) -> Self {
        HwdbgError::new(ErrorCode::Io, e.to_string())
    }
}

/// A value that may be accompanied by non-fatal diagnostics.
///
/// Tools use this to return a *degraded-but-valid* report instead of
/// aborting when a run was perturbed (fault injection, truncated buffers):
/// the report is in `value`, and every deviation from a clean run is a
/// [`Severity::Warning`] entry in `diags`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked<T> {
    /// The (possibly degraded) result.
    pub value: T,
    /// Warnings describing how the result deviates from a clean run.
    pub diags: Vec<HwdbgError>,
}

impl<T> Checked<T> {
    /// Wraps a clean value with no diagnostics.
    pub fn clean(value: T) -> Self {
        Checked {
            value,
            diags: Vec::new(),
        }
    }

    /// True when the value carries no degradation warnings.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Marks the value degraded with a warning diagnostic.
    #[must_use]
    pub fn degraded(mut self, warning: HwdbgError) -> Self {
        self.diags.push(warning);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        use ErrorCode::*;
        let all = [
            ParseFailed, NestingTooDeep, NotConstant, BadRange, UnknownModule, UnknownPort,
            UnknownParam, DuplicateName, UnknownSignal, UnconnectedInput,
            BadOutputConnection, ConflictingDrivers, DuplicateDriver,
            UndrivenSignal, RecursionLimit, Unsupported, ConstantWrite, NoModel,
            WidthMismatch, NonConstSelect, CombLoop, LoopCap, Watchdog,
            OutOfBounds, EarlyFinish, DeadlineExceeded, ReversedRange, FieldWidth,
            UnitTooLarge, NoClock,
            NothingToInstrument, ToolElaboration,
            NoPath, DegradedOutput, BadFaultTarget, BadFaultPlan, Io,
            Internal, CampaignSpec, CampaignDesign, CampaignWorker,
            JournalMismatch, JournalCorrupt, BaselineDrift,
            LintIncompleteCase, LintBlockingInSeq, LintNonblockingInComb,
            LintMultiProcWrite, LintCombLoop, LintWidthTruncation,
            LintUnreachableState, LintTrapState, LintUndeclaredState,
            LintDeadWrite, LintNeverRead, LintInputIgnored, LintStickyFlag,
            LintIncompleteReinit, LintMemIndexRange, LintTruncatedShift,
            LintValidWaitsReady, LintHandshakeDeadlock, LintUnqualifiedAdvance,
            LintConstantBackpressure, LintOccupancyOverflow, LintOccupancyMargin,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        codes.sort_unstable();
        let n = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate error codes");
        for c in &codes {
            assert!(
                (c.starts_with('E') || c.starts_with('L')) && c.len() == 5,
                "{c}"
            );
        }
    }

    #[test]
    fn lint_codes_are_marked_lint() {
        assert!(ErrorCode::LintMemIndexRange.is_lint());
        assert!(ErrorCode::LintHandshakeDeadlock.is_lint());
        assert!(!ErrorCode::CombLoop.is_lint());
    }

    #[test]
    fn render_with_source_excerpt() {
        let src = "module m;\nwire x\nendmodule";
        let err = HwdbgError::new(ErrorCode::ParseFailed, "expected `;`")
            .with_span(Span::new(15, 16))
            .with_path("m.v");
        let r = err.render(Some(src));
        assert!(r.contains("error[E0101]"), "{r}");
        assert!(r.contains("m.v:2:6"), "{r}");
        assert!(r.contains("wire x"), "{r}");
    }

    #[test]
    fn parse_error_converts() {
        let err = hwdbg_rtl::parse("module oops").unwrap_err();
        let diag: HwdbgError = err.into();
        assert_eq!(diag.code, ErrorCode::ParseFailed);
        assert!(diag.span.is_some());
    }

    #[test]
    fn checked_marks_degradation() {
        let c = Checked::clean(vec![1, 2, 3]);
        assert!(c.is_clean());
        let c = c.degraded(HwdbgError::warning(
            ErrorCode::DegradedOutput,
            "buffer truncated",
        ));
        assert!(!c.is_clean());
        assert_eq!(c.diags[0].severity, Severity::Warning);
    }
}
