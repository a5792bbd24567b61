//! Bug-study-driven static analysis over elaborated designs.
//!
//! The ASPLOS'22 debugging study (PAPER.md) catalogues the bug classes that
//! dominate FPGA bring-up: misused language semantics, logic-design mistakes
//! in FSMs and handshakes, silent signal loss, and out-of-range indexing.
//! Most of those classes leave a *static* fingerprint in the RTL — the bug is
//! visible in the elaborated netlist before a single cycle is simulated.
//! This crate turns each fingerprint into a [`LintPass`] that runs over a
//! flat [`Design`] and emits stable `L`-coded [`HwdbgError`] diagnostics
//! with source spans, so the CLI can point at the buggy construct directly.
//!
//! # Architecture
//!
//! - [`LintPass`] — one analysis: an `id`, the codes it may emit, and a
//!   `run` over the design. Passes are pure: all state lives in the sink.
//! - [`LintSink`] — collects findings, applying per-code severity levels
//!   from a [`LintConfig`] (`Allow` drops, `Warn` keeps, `Deny` escalates
//!   to [`Severity::Error`]).
//! - [`registry`] — the built-in pass set, keyed to the study's Table 1
//!   subclasses. [`run_all`] drives every pass under a
//!   [`StageTimer`]/[`SimCounters`] pair so lint cost shows up in the same
//!   observability surface as simulation stages.
//!
//! Passes visit procedural code with [`hwdbg_dataflow::guard::walk`], the
//! walker `resolve`, the `PropGraph` builder and the debugging tools
//! share: it hands every statement the `if`/`case`/`for` guards that
//! dominate it, and [`hwdbg_dataflow::guard::leaves`] splits a path into
//! conjunct leaves. A pass reaches a statement's expressions through
//! [`hwdbg_rtl::Stmt::visit_exprs`], an assignment target's through
//! [`hwdbg_rtl::LValue::visit_exprs`] and
//! [`hwdbg_rtl::LValue::visit_targets`], and subexpressions through
//! [`hwdbg_rtl::Expr::visit`]; no pass keeps a recursive walker of its
//! own. [`analysis`] interprets the leaves (reset tests, wrap bounds,
//! handshake qualifiers) and extracts constant bounds.

pub mod analysis;
mod explain;
mod passes;

pub use explain::{all_explanations, explain, LintExplanation};
pub use passes::fsm::FsmLintPass;
pub use passes::handshake::HandshakePass;
pub use passes::loss::{DeadWritePass, LivenessPass, ReinitPass, StickyFlagPass};
pub use passes::range::MemIndexPass;
pub use passes::structure::{CombLoopPass, WidthTruncationPass};
pub use passes::style::{AssignStylePass, IncompleteCasePass, MultiProcWritePass};
pub use passes::taint::{BackpressurePass, OccupancyPass, PrecisionPass, QualificationPass};

use hwdbg_dataflow::Design;
use hwdbg_diag::{ErrorCode, HwdbgError, Severity};
use hwdbg_obs::{SimCounters, StageTimer};
use std::collections::BTreeMap;

/// Reporting level for a lint code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Drop findings with this code entirely.
    Allow,
    /// Report as a warning (the default for most codes).
    Warn,
    /// Report as an error; the CLI exits nonzero.
    Deny,
}

impl Level {
    /// Parses a CLI-style level name.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "allow" => Some(Level::Allow),
            "warn" => Some(Level::Warn),
            "deny" => Some(Level::Deny),
            _ => None,
        }
    }
}

/// The built-in level of a lint code before any [`LintConfig`] override.
///
/// Everything defaults to [`Level::Warn`] except `L0302` (FSM trap state):
/// terminal hold states are a common *intentional* idiom ("run to
/// completion, wait for reset"), so it must be opted into.
pub fn default_level(code: ErrorCode) -> Level {
    match code {
        ErrorCode::LintTrapState => Level::Allow,
        _ => Level::Warn,
    }
}

/// Per-run lint configuration: severity overrides by code string.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: BTreeMap<String, Level>,
}

impl LintConfig {
    /// An empty configuration (built-in defaults apply).
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Overrides the level for one code (e.g. `"L0302"`).
    pub fn set(&mut self, code: &str, level: Level) -> &mut LintConfig {
        self.overrides.insert(code.to_owned(), level);
        self
    }

    /// The effective level for a code.
    pub fn level_for(&self, code: ErrorCode) -> Level {
        self.overrides
            .get(code.as_str())
            .copied()
            .unwrap_or_else(|| default_level(code))
    }
}

/// Collects the findings of one pass, applying configured levels.
pub struct LintSink<'c> {
    config: &'c LintConfig,
    findings: Vec<HwdbgError>,
    /// Findings emitted before allow-filtering (for `SimCounters`).
    emitted: u64,
}

impl<'c> LintSink<'c> {
    /// A sink over the given configuration.
    pub fn new(config: &'c LintConfig) -> LintSink<'c> {
        LintSink {
            config,
            findings: Vec::new(),
            emitted: 0,
        }
    }

    /// Records a finding. The error's severity is rewritten from the
    /// configured level of its code; `Allow`ed findings are dropped (but
    /// still counted as emitted).
    pub fn emit(&mut self, mut err: HwdbgError) {
        self.emitted += 1;
        match self.config.level_for(err.code) {
            Level::Allow => {}
            Level::Warn => {
                err.severity = Severity::Warning;
                self.findings.push(err);
            }
            Level::Deny => {
                err.severity = Severity::Error;
                self.findings.push(err);
            }
        }
    }

    /// Findings kept so far.
    pub fn findings(&self) -> &[HwdbgError] {
        &self.findings
    }

    fn into_parts(self) -> (Vec<HwdbgError>, u64) {
        (self.findings, self.emitted)
    }
}

/// One static analysis over an elaborated design.
pub trait LintPass {
    /// Stable kebab-case pass name (used as the stage-timer label).
    fn id(&self) -> &'static str;
    /// The diagnostic codes this pass may emit.
    fn codes(&self) -> &'static [ErrorCode];
    /// Runs the analysis, emitting findings into the sink.
    fn run(&self, design: &Design, sink: &mut LintSink<'_>);
}

/// The built-in pass set, in execution order.
pub fn registry() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(IncompleteCasePass),
        Box::new(AssignStylePass),
        Box::new(MultiProcWritePass),
        Box::new(CombLoopPass),
        Box::new(WidthTruncationPass),
        Box::new(FsmLintPass),
        Box::new(HandshakePass),
        Box::new(DeadWritePass),
        Box::new(LivenessPass),
        Box::new(StickyFlagPass),
        Box::new(ReinitPass),
        Box::new(MemIndexPass),
        Box::new(QualificationPass),
        Box::new(BackpressurePass),
        Box::new(OccupancyPass),
        Box::new(PrecisionPass),
    ]
}

/// Runs every registered pass over `design`, timing each pass as a stage
/// and counting passes/findings in `counters`.
///
/// Findings are sorted errors-first, then by source position.
pub fn run_all(
    design: &Design,
    config: &LintConfig,
    timer: &mut StageTimer,
    counters: &mut SimCounters,
) -> Vec<HwdbgError> {
    let mut all = Vec::new();
    for pass in registry() {
        let mut sink = LintSink::new(config);
        timer.time(pass.id(), || pass.run(design, &mut sink));
        let (findings, emitted) = sink.into_parts();
        counters.lint_passes += 1;
        counters.lint_findings += emitted;
        all.extend(findings);
    }
    all.sort_by_key(|e| {
        (
            e.severity != Severity::Error,
            e.span.map_or(u32::MAX as usize, |s| s.start),
            e.code.as_str(),
        )
    });
    all
}

/// Runs every pass with default configuration and throwaway observability —
/// the convenience entry point for tests and batch tooling.
pub fn run_default(design: &Design) -> Vec<HwdbgError> {
    let mut timer = StageTimer::new();
    let mut counters = SimCounters::default();
    run_all(design, &LintConfig::new(), &mut timer, &mut counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_levels_apply() {
        let mut cfg = LintConfig::new();
        assert_eq!(cfg.level_for(ErrorCode::LintCombLoop), Level::Warn);
        assert_eq!(cfg.level_for(ErrorCode::LintTrapState), Level::Allow);
        cfg.set("L0201", Level::Deny).set("L0302", Level::Warn);
        assert_eq!(cfg.level_for(ErrorCode::LintCombLoop), Level::Deny);
        assert_eq!(cfg.level_for(ErrorCode::LintTrapState), Level::Warn);
    }

    #[test]
    fn sink_filters_and_escalates() {
        let mut cfg = LintConfig::new();
        cfg.set("L0201", Level::Deny).set("L0202", Level::Allow);
        let mut sink = LintSink::new(&cfg);
        sink.emit(HwdbgError::warning(ErrorCode::LintCombLoop, "loop"));
        sink.emit(HwdbgError::warning(ErrorCode::LintWidthTruncation, "trunc"));
        let (findings, emitted) = sink.into_parts();
        assert_eq!(emitted, 2);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Error);
    }

    #[test]
    fn registry_ids_and_codes_are_unique() {
        let passes = registry();
        assert!(passes.len() >= 7, "the study needs at least 7 passes");
        let mut ids: Vec<_> = passes.iter().map(|p| p.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), passes.len(), "duplicate pass id");
        let mut codes: Vec<_> = passes.iter().flat_map(|p| p.codes()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(
            codes.len(),
            passes.iter().map(|p| p.codes().len()).sum::<usize>(),
            "a code is claimed by two passes"
        );
        for c in codes {
            assert!(c.is_lint(), "{} is not an L-code", c.as_str());
        }
    }
}
