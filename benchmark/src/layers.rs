//! The benchmark's calls into the layers. Every call a workload makes into
//! a layer's public functions goes through here and runs inside a span
//! named after the layer (the crate) and the function, so the traced
//! binary can break a workload's wall time down by layer.

use crate::trace::Tracer;
use crate::BoxError;
use hwdbg_dataflow::{flatten, resolve, Design, PropGraph};
use hwdbg_diag::HwdbgError;
use hwdbg_ip::{StdIpLib, StdModels};
use hwdbg_lint::{registry, LintConfig, LintSink};
use hwdbg_obs::SimCounters;
use hwdbg_rtl::{Module, SourceFile};
use hwdbg_sim::{CompiledDesign, SimConfig, SimError, Simulator};
use std::cell::RefCell;
use std::sync::Arc;

/// Layer names, as used in span and metric names.
pub const RTL: &str = "rtl";
/// Elaboration and static analysis substrate (`hwdbg-dataflow`).
pub const DATAFLOW: &str = "dataflow";
/// Compilation and simulation (`hwdbg-sim`).
pub const SIM: &str = "sim";
/// The five debugging tools (`hwdbg-tools`).
pub const TOOLS: &str = "tools";
/// Static lint passes (`hwdbg-lint`).
pub const LINT: &str = "lint";
/// Resource and timing estimates (`hwdbg-synth`).
pub const SYNTH: &str = "synth";
/// The parallel campaign runner (`hwdbg-campaign`).
pub const CAMPAIGN: &str = "campaign";
/// The testbed's push-button workloads (`hwdbg-testbed`).
pub const TESTBED: &str = "testbed";

/// Span-wrapped access to every layer, plus the counters of the engines
/// the workload built (collected only when tracing).
pub struct Ctx<'t> {
    /// The run's tracer (disabled in the end-to-end binary).
    pub tr: &'t Tracer,
    lib: StdIpLib,
    counters: RefCell<SimCounters>,
}

impl<'t> Ctx<'t> {
    /// A context recording into `tr`.
    pub fn new(tr: &'t Tracer) -> Ctx<'t> {
        Ctx {
            tr,
            lib: StdIpLib::new(),
            counters: RefCell::new(SimCounters::default()),
        }
    }

    /// `hwdbg_rtl::parse`.
    pub fn parse(&self, src: &str) -> Result<SourceFile, BoxError> {
        self.tr.note("rtl.parse_bytes", src.len() as f64);
        Ok(self.tr.span(RTL, "parse", || hwdbg_rtl::parse(src))?)
    }

    /// `hwdbg_dataflow::flatten` then `resolve`.
    pub fn elaborate(&self, file: &SourceFile, top: &str) -> Result<Design, BoxError> {
        let flat = self
            .tr
            .span(DATAFLOW, "flatten", || flatten(file, top, &self.lib))?;
        self.resolve(flat)
    }

    /// `hwdbg_dataflow::resolve` (also how tools re-resolve the modules
    /// they instrument).
    pub fn resolve(&self, module: Module) -> Result<Design, BoxError> {
        Ok(self
            .tr
            .span(DATAFLOW, "resolve", || resolve(module, &self.lib))?)
    }

    /// `hwdbg_dataflow::resolve` of a copy of `module`: how tools hand an
    /// instrumented module they keep using back to the elaborator.
    pub fn resolve_copy(&self, module: &Module) -> Result<Design, BoxError> {
        Ok(self
            .tr
            .span(DATAFLOW, "resolve", || resolve(module.clone(), &self.lib))?)
    }

    /// Drops `value` inside a span of the layer that owns its type, so
    /// freeing a large design or engine counts against that layer.
    pub fn free<T>(&self, layer: &'static str, value: T) {
        self.tr.span(layer, "free", || drop(value));
    }

    /// `PropGraph::build`.
    pub fn propgraph(&self, design: &Design) -> Result<PropGraph, BoxError> {
        let graph = self.tr.span(DATAFLOW, "propgraph", || {
            PropGraph::build(design, &self.lib)
        })?;
        self.tr
            .note("dataflow.relations", graph.stats().relations as f64);
        Ok(graph)
    }

    /// `CompiledDesign::new`.
    pub fn compile(&self, design: Design) -> Result<Arc<CompiledDesign>, BoxError> {
        Ok(Arc::new(
            self.tr
                .span(SIM, "compile", || CompiledDesign::new(design))?,
        ))
    }

    /// `Simulator::from_compiled` with the standard IP models. Counters
    /// are switched on when tracing.
    pub fn build(
        &self,
        shared: &Arc<CompiledDesign>,
        config: SimConfig,
    ) -> Result<Simulator, BoxError> {
        let config = config.with_metrics(self.tr.enabled());
        Ok(self.tr.span(SIM, "build", || {
            Simulator::from_compiled(Arc::clone(shared), &StdModels, config)
        })?)
    }

    /// Steps `clock` `n` times, calling `stim` before each edge. Oracle
    /// runs get their own span name so the per-step cost reflects the
    /// production backend only.
    pub fn steps(
        &self,
        sim: &mut Simulator,
        clock: &str,
        n: u64,
        oracle: bool,
        mut stim: impl FnMut(&mut Simulator),
    ) -> Result<(), SimError> {
        let name = if oracle { "step_oracle" } else { "step" };
        // `$display` records printed so far, including those the log's
        // capacity already evicted.
        let displays = |s: &Simulator| s.logs().len() as u64 + s.dropped_logs();
        let before = displays(sim);
        let allocs = hwdbg_obs::thread_allocs();
        let r = self.tr.span(SIM, name, || {
            for _ in 0..n {
                stim(sim);
                sim.step(clock)?;
            }
            Ok(())
        });
        if !oracle {
            self.tr.note("sim.cycles", n as f64);
            self.tr.note(
                "sim.step_allocs",
                (hwdbg_obs::thread_allocs() - allocs) as f64,
            );
            self.tr
                .note("sim.displays", (displays(sim) - before) as f64);
        }
        r
    }

    /// Every registered lint pass, one by one, each in its own span.
    pub fn lint(&self, design: &Design) -> Vec<HwdbgError> {
        let config = LintConfig::new();
        let mut findings = Vec::new();
        for pass in registry() {
            let mut sink = LintSink::new(&config);
            self.tr
                .span(LINT, pass.id(), || pass.run(design, &mut sink));
            findings.extend_from_slice(sink.findings());
        }
        self.tr.note("lint.runs", 1.0);
        self.tr.note("lint.findings", findings.len() as f64);
        findings
    }

    /// `hwdbg_synth::estimate` and `estimate_timing`.
    pub fn synth(
        &self,
        design: &Design,
    ) -> (hwdbg_synth::ResourceReport, hwdbg_synth::TimingReport) {
        let res = self
            .tr
            .span(SYNTH, "estimate", || hwdbg_synth::estimate(design));
        let timing = self
            .tr
            .span(SYNTH, "timing", || hwdbg_synth::estimate_timing(design));
        (res, timing)
    }

    /// Folds a finished engine's counters into the run's totals.
    pub fn absorb(&self, sim: &Simulator) {
        if let Some(c) = sim.counters() {
            self.counters.borrow_mut().merge(c);
        }
    }

    /// Folds counters gathered elsewhere (a campaign report) into the
    /// run's totals.
    pub fn absorb_counters(&self, c: &SimCounters) {
        self.counters.borrow_mut().merge(c);
    }

    /// The merged counters of every engine absorbed so far.
    pub fn counters(&self) -> SimCounters {
        *self.counters.borrow()
    }
}
