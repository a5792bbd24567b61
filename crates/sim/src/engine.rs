//! The cycle-accurate simulation engine.
//!
//! The engine is compile-then-run: [`Simulator::new`] lowers the elaborated
//! design into the interned, pre-resolved schedule of [`crate::compile`],
//! and the per-cycle hot path executes only that form — no name lookups, no
//! AST cloning. Combinational settling is dependency-driven by default (see
//! [`SettleMode`]): after the initial full evaluation, only drivers whose
//! read-set intersects the signals written since their last run are
//! re-executed.
//!
//! There is one event-driven scheduler, the levelized node worklist of
//! [`crate::sched`], and one reference evaluator, the `CExpr` tree-walker.
//! [`Backend::Tree`] runs the tree-walker on the same node schedule with
//! every fused region demoted to per-unit execution; [`SettleMode::FullPass`]
//! is the scheduling oracle. `Tree` + `FullPass` therefore shares neither
//! the evaluator nor the scheduler with the production path.

use crate::bytecode::{self, lower_unit, BcProgram, NO_PROMOTION};
use crate::compile::{eval_into, CExec, CNbWrite, Compiled, EvalScratch, Flow, LogSink};
use crate::sched::{build_schedule, Schedule};
use crate::state::{mem_slots, RegInit, SimState};
use crate::{Blackbox, BlackboxFactory, LogRecord, SimError};
use hwdbg_bits::Bits;
use hwdbg_dataflow::{Design, SigId};
use hwdbg_obs::SimCounters;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Combinational settling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleMode {
    /// Dependency-driven work-list: after the first full pass, a driver
    /// re-runs only when a signal in its static read-set changed. This is
    /// the production scheduler.
    #[default]
    EventDriven,
    /// Re-run every combinational driver and blackbox each iteration until
    /// a fixpoint, like the original interpreter. Kept for differential
    /// testing (`compiled_equivalence.rs`) and as a debugging fallback.
    FullPass,
}

/// Execution backend for compiled unit bodies.
///
/// Both backends run the same levelized node schedule and are observably
/// identical (the differential suite in
/// `crates/sim/tests/backend_differential.rs` holds them to byte-identical
/// verdicts, logs, and waveforms); they differ only in how a unit body
/// executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Walk the `CStmt`/`CExpr` tree directly. The reference evaluator:
    /// every fused region stays demoted, so its members run one unit at a
    /// time, in rank order, exactly as a force-demoted region runs under
    /// [`Backend::Levelized`].
    Tree,
    /// Bytecode execution under the levelized static schedule (see
    /// DESIGN.md §7, "Static scheduling and region fusion"): acyclic comb
    /// regions run as fused straight-line programs in topological rank
    /// order — no worklist inside a region,
    /// region-internal signals promoted to registers — while cyclic
    /// regions and the remaining units pop from the worklist one at a time,
    /// each on its per-unit program. Every unit body lowers, so the
    /// tree-walker never runs here. This is the production backend.
    #[default]
    Levelized,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Register/memory initialization policy.
    pub init: RegInit,
    /// Maximum settle iterations before declaring a combinational loop.
    /// In [`SettleMode::EventDriven`] the work-list is bounded by
    /// `max_comb_iters × number of drivers` unit executions, the same
    /// budget a full pass would spend.
    pub max_comb_iters: usize,
    /// Maximum `$display` records retained (oldest dropped beyond this).
    pub log_capacity: usize,
    /// Combinational scheduling strategy.
    pub settle_mode: SettleMode,
    /// Unit-body execution backend (levelized bytecode by default; see
    /// [`Backend`]).
    pub backend: Backend,
    /// When true, out-of-bounds memory and bit writes raise
    /// [`SimError::OutOfBounds`] instead of being silently dropped.
    /// Off by default: the drop semantics are the paper's §3.2.1
    /// outcome 2, which several testbed bugs rely on reproducing.
    pub strict_bounds: bool,
    /// When true, the simulator maintains a [`SimCounters`] registry of
    /// hot-path event counts, readable via [`Simulator::counters`]. Off by
    /// default: the disabled path pays one branch per settle/step, the
    /// same pattern the `forces` map uses.
    pub metrics: bool,
    /// Wall-clock deadline for the whole run. `None` (the default) pays
    /// one branch per check site — the same one-branch-when-disabled
    /// pattern as `forces` — and never calls the clock. When set, the
    /// deadline is checked cooperatively once per [`Simulator::step`] and
    /// every [`DEADLINE_CHECK_MASK`]+1 unit executions inside a settle, so
    /// even a livelocked combinational loop with an enormous
    /// `max_comb_iters` budget surfaces as
    /// [`SimError::DeadlineExceeded`] instead of wedging the thread.
    pub deadline: Option<std::time::Instant>,
}

/// A settle checks the deadline whenever its unit-execution count crosses a
/// multiple of `DEADLINE_CHECK_MASK + 1`: every 1024 unit executions, a few
/// microseconds of work even in debug builds, so deadline precision stays
/// far below any sane budget.
pub const DEADLINE_CHECK_MASK: u64 = 0x3FF;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            init: RegInit::Zero,
            max_comb_iters: 100,
            log_capacity: 1_000_000,
            settle_mode: SettleMode::EventDriven,
            backend: Backend::default(),
            strict_bounds: false,
            metrics: false,
            deadline: None,
        }
    }
}

impl SimConfig {
    /// Builder-style setter for [`SimConfig::backend`].
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style toggle for [`SimConfig::metrics`].
    #[must_use]
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Builder-style setter for [`SimConfig::deadline`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline to `budget` from now — the per-job wall-clock
    /// watchdog campaign runners configure via `--job-timeout`.
    #[must_use]
    pub fn with_timeout(mut self, budget: std::time::Duration) -> Self {
        self.deadline = std::time::Instant::now().checked_add(budget);
        self
    }
}

/// Pre-resolved stepping info for one clock: what a rising edge of any
/// signal in one alias class runs. Built once per clock root at compile
/// time (see [`CompiledDesign`]).
#[derive(Debug, Default)]
struct ClockPlan {
    /// Indices of clocked processes triggered by this clock.
    procs: Vec<usize>,
    /// `(blackbox index, clock port)` pairs ticked by this clock.
    ticks: Vec<(usize, String)>,
}

/// A design compiled once into the immutable schedule the hot path
/// executes: the elaborated [`Design`], the interned unit schedule with
/// its per-signal reader/writer tables, and the pre-resolved per-clock
/// stepping plans.
///
/// A `CompiledDesign` is `Send + Sync` and carries no mutable state, so a
/// single `Arc<CompiledDesign>` can back any number of [`Simulator`]s —
/// including simulators running concurrently on worker threads. Compiling
/// is the expensive part of [`Simulator::new`]; campaign runners compile
/// once and spin up cheap per-job engines with
/// [`Simulator::from_compiled`].
pub struct CompiledDesign {
    design: Design,
    compiled: Compiled,
    /// Widest scalar/memory-element width, for pre-sizing scratch pools.
    max_width: u32,
    /// Per comb unit: its lowered bytecode, which [`Backend::Levelized`]
    /// runs whenever the unit runs outside a fused region.
    comb_progs: Vec<BcProgram>,
    /// Per clocked process: its lowered bytecode.
    proc_progs: Vec<BcProgram>,
    /// The levelized static schedule (fused regions + node maps).
    sched: Schedule,
    /// Register-file sizes needed by the largest lowered program, per-unit
    /// or fused region, for pre-sizing each simulator's [`EvalScratch`]
    /// once at build time.
    n_narrow: usize,
    n_wide: usize,
    /// Stepping plans by name, for the scalars whose alias root clocks a
    /// process or a blackbox: the name's ID and its root's plan, which
    /// every alias of the root shares.
    plans: BTreeMap<String, (SigId, Arc<ClockPlan>)>,
    /// Plan for every other name: no processes, no ticks.
    empty_plan: Arc<ClockPlan>,
}

impl std::fmt::Debug for CompiledDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledDesign")
            .field("design", &self.design.name)
            .field("units", &self.compiled.n_units())
            .finish()
    }
}

impl CompiledDesign {
    /// Compiles `design` into the immutable, shareable schedule.
    ///
    /// # Errors
    ///
    /// Fails if the design references signals that cannot be resolved at
    /// compile time, if a `$display` requests a field width above the
    /// limit ([`SimError::FieldWidth`]), or if a unit body needs more than
    /// one bytecode program can address ([`SimError::UnitTooLarge`]).
    pub fn new(design: Design) -> Result<Self, SimError> {
        // Layout (signal IDs, memory slots) is a pure function of the
        // design, so per-job states built later line up exactly.
        let compiled = Compiled::build(&design, &mem_slots(&design))?;
        let max_width = design.signals.values().map(|s| s.width).max().unwrap_or(1);
        // Static width tables for bytecode lowering: one entry per signal
        // ID (memories hold their 1-bit placeholder slot width, matching
        // what `get_id` returns for them) and one per memory slot
        // (element width; what `read_mem_slot_into` yields in range).
        // `design.signals` iterates in name order, which is ID order.
        let mut sig_width = vec![1u32; design.table.len()];
        let mut mem_width = Vec::new();
        for (id, sig) in design.signals.values().enumerate() {
            sig_width[id] = if sig.mem_depth.is_some() { 1 } else { sig.width };
            if let Some(depth) = sig.mem_depth {
                // A zero-depth memory reads back 1-bit zeros.
                mem_width.push(if depth == 0 { 1 } else { sig.width });
            }
        }
        let mut comb_progs = Vec::with_capacity(compiled.combs.len());
        for comb in &compiled.combs {
            comb_progs.push(lower_unit(&comb.body, &sig_width, &mem_width)?);
        }
        let mut proc_progs = Vec::with_capacity(compiled.procs.len());
        for proc in &compiled.procs {
            proc_progs.push(lower_unit(&proc.body, &sig_width, &mem_width)?);
        }
        let sched = build_schedule(&compiled, &comb_progs, &sig_width, &mem_width);
        let (mut n_narrow, mut n_wide) = (0, 0);
        let unit_progs = comb_progs.iter().chain(&proc_progs);
        for prog in unit_progs.chain(sched.regions.iter().map(|r| &r.prog)) {
            n_narrow = n_narrow.max(prog.n_narrow);
            n_wide = n_wide.max(prog.n_wide);
        }
        let plans = clock_plans(&design, &compiled);
        Ok(CompiledDesign {
            design,
            compiled,
            max_width,
            comb_progs,
            proc_progs,
            sched,
            n_narrow,
            n_wide,
            plans,
            empty_plan: Arc::default(),
        })
    }

    /// The elaborated design this schedule was compiled from.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// `(lowered, total)` unit-body counts over the comb units and clocked
    /// processes. Every body lowers to bytecode (a design that cannot fails
    /// [`CompiledDesign::new`]), so the two are always equal; `hwdbg sim
    /// --json` and the benchmark report the pair.
    pub fn lowering_coverage(&self) -> (usize, usize) {
        let total = self.comb_progs.len() + self.proc_progs.len();
        (total, total)
    }

    /// Levelized-schedule shape: `(regions, max_level, fused_signals)` —
    /// how many acyclic regions fused, the deepest topological level, and
    /// how many signals were promoted to registers. Surfaced by
    /// `hwdbg profile` / `hwdbg sim --json` so scheduling regressions are
    /// visible rather than silent.
    pub fn region_stats(&self) -> (usize, u32, usize) {
        (
            self.sched.regions.len(),
            self.sched.max_level,
            self.sched.fused_signals(),
        )
    }

    /// The pre-resolved stepping plan for `clock`, with the ID that the
    /// step toggles: the plan's own for a clock-carrying name, the empty
    /// plan with the name's ID for any other declared scalar, and the
    /// empty plan with no ID for memories and undeclared names.
    fn clock_plan(&self, clock: &str) -> (Option<SigId>, Arc<ClockPlan>) {
        if let Some((id, plan)) = self.plans.get(clock) {
            return (Some(*id), Arc::clone(plan));
        }
        let id = self
            .design
            .signals
            .get(clock)
            .filter(|s| s.mem_depth.is_none())
            .and_then(|_| self.design.sig_id(clock));
        (id, Arc::clone(&self.empty_plan))
    }
}

/// Builds the stepping plans in time linear in the design: one plan per
/// alias root, from a single pass over the processes' edge roots and the
/// blackboxes' clock ports, then a name entry for each scalar whose root
/// has a plan. A process or clock port joins a root's plan once however
/// many of its signals share that root; plans list processes and ticks in
/// index order.
fn clock_plans(design: &Design, compiled: &Compiled) -> BTreeMap<String, (SigId, Arc<ClockPlan>)> {
    let mut by_root: BTreeMap<SigId, ClockPlan> = BTreeMap::new();
    for (pi, p) in compiled.procs.iter().enumerate() {
        for (k, &root) in p.edge_roots.iter().enumerate() {
            if !p.edge_roots[..k].contains(&root) {
                by_root.entry(root).or_default().procs.push(pi);
            }
        }
    }
    for (bi, bb) in compiled.bbs.iter().enumerate() {
        for (port, roots) in &bb.clock_conns {
            for (k, &root) in roots.iter().enumerate() {
                if !roots[..k].contains(&root) {
                    by_root.entry(root).or_default().ticks.push((bi, port.clone()));
                }
            }
        }
    }
    let by_root: BTreeMap<SigId, Arc<ClockPlan>> =
        by_root.into_iter().map(|(root, plan)| (root, Arc::new(plan))).collect();
    let mut plans = BTreeMap::new();
    if by_root.is_empty() {
        return plans;
    }
    // `design.signals` iterates in name order, which is ID order.
    for (id, (name, sig)) in design.signals.iter().enumerate() {
        if sig.mem_depth.is_some() {
            continue;
        }
        let id = SigId::from_index(id);
        if let Some(plan) = by_root.get(&compiled.alias_root(id)) {
            plans.insert(name.clone(), (id, Arc::clone(plan)));
        }
    }
    plans
}

/// A cycle-accurate simulator for an elaborated [`Design`].
///
/// Semantics follow the two-phase synchronous model: combinational logic
/// settles to a fixpoint between clock edges, `always @(posedge clk)`
/// processes read pre-edge values, and nonblocking assignments commit after
/// every process has run.
pub struct Simulator {
    /// The immutable compiled schedule, shareable across simulators (and
    /// threads — see [`CompiledDesign`]).
    shared: Arc<CompiledDesign>,
    state: SimState,
    config: SimConfig,
    blackboxes: Vec<Box<dyn Blackbox + Send>>,
    /// Captured `$display` records; the visible log is
    /// `logs[log_start..]`. Evicting the oldest record advances
    /// `log_start`, and the dead prefix is compacted away once it reaches
    /// `log_capacity`, so eviction costs O(1) amortized.
    logs: Vec<LogRecord>,
    log_start: usize,
    dropped_logs: u64,
    time: u64,
    cycles: BTreeMap<String, u64>,
    finished: bool,
    vcd: Option<crate::vcd::VcdWriter<Box<dyn std::io::Write + Send>>>,
    /// Signals written since the last settle (pokes, clocked-process writes,
    /// nonblocking commits). Consumed to seed the settle work-list.
    dirty_sigs: Vec<SigId>,
    /// Settle-unit indices made dirty directly (poked driven signals,
    /// ticked blackboxes whose outputs may change without an input edge).
    dirty_units: Vec<u32>,
    /// Run every unit on the next settle (initial state, after restore).
    force_full: bool,
    /// Scratch for unit execution (reused to avoid per-run allocation).
    changed_scratch: Vec<SigId>,
    /// Reusable `Bits` temporaries + resolved-write buffer for evaluation.
    scratch: EvalScratch,
    /// Settle work-list: the ordered set of queued unit (or levelized
    /// node) indices, popped lowest first to match full-pass sweep order.
    worklist: Worklist,
    /// Nonblocking-write queue reused across steps.
    nb_scratch: Vec<CNbWrite>,
    /// `$display` staging, render buffer, and recycled message buffers.
    log_sink: LogSink,
    /// Per blackbox: its input port map, keys prebuilt at compile time and
    /// values refreshed in place before each eval/tick.
    bb_input_scratch: Vec<BTreeMap<String, Bits>>,
    /// Signals pinned by [`Simulator::force`]: drivers and pokes cannot
    /// change them until released. Empty in fault-free runs, so the hot
    /// path pays one `is_empty` check.
    forces: BTreeMap<SigId, Bits>,
    /// Per fused region: number of active forces pinning one of its
    /// promoted signals, plus one standing demotion under
    /// [`Backend::Tree`]. Non-zero demotes the region to per-unit
    /// execution (whose stores honor the force map); zero in fault-free
    /// levelized runs, so the fused path pays one load.
    region_demoted: Vec<u32>,
    /// Hot-path event counters, allocated only when [`SimConfig::metrics`]
    /// is set. `None` keeps the disabled path to one branch per site.
    counters: Option<Box<SimCounters>>,
}

/// A batch of stimulus signals resolved to interned IDs once, via
/// [`Simulator::stimulus_plan`]. Workload hot loops poke through the
/// plan's IDs instead of repeating a name lookup every cycle.
#[derive(Debug, Clone)]
pub struct StimulusPlan {
    ids: Vec<SigId>,
}

impl StimulusPlan {
    /// The interned ID of the `i`-th name given to
    /// [`Simulator::stimulus_plan`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range — plans are indexed by the same
    /// positions the caller built them with.
    pub fn id(&self, i: usize) -> SigId {
        self.ids[i]
    }

    /// All interned IDs, positionally matched to the resolved names.
    pub fn ids(&self) -> &[SigId] {
        &self.ids
    }
}

/// A full simulation snapshot produced by [`Simulator::checkpoint`].
pub struct Checkpoint {
    state: SimState,
    time: u64,
    cycles: BTreeMap<String, u64>,
    finished: bool,
    /// Records emitted up to the checkpoint: dropped plus visible.
    logs_total: u64,
    bb_states: Vec<Box<dyn std::any::Any + Send>>,
    /// Active [`Simulator::force`] pins at capture time. Restoring puts the
    /// pin set back exactly: forces applied after the checkpoint (e.g. a
    /// fault plan's stuck-at) must not survive a rewind.
    forces: BTreeMap<SigId, Bits>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("time", &self.time)
            .field("finished", &self.finished)
            .finish()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("design", &self.shared.design.name)
            .field("time", &self.time)
            .field("finished", &self.finished)
            .finish()
    }
}

impl Simulator {
    /// Builds a simulator; `factory` supplies behavioral models for each
    /// blackbox instance of the design. Compiles the design's drivers,
    /// processes, and blackbox connections into the interned schedule that
    /// the hot path executes.
    ///
    /// # Errors
    ///
    /// Fails if a blackbox instance has no model in `factory`, or if the
    /// design references signals that cannot be resolved at compile time.
    pub fn new(
        design: Design,
        factory: &dyn BlackboxFactory,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let shared = Arc::new(CompiledDesign::new(design)?);
        Simulator::from_compiled(shared, factory, config)
    }

    /// Builds a simulator over an already-compiled design. This is the
    /// cheap path: no elaboration or schedule construction happens here,
    /// only per-engine mutable state (value store, scratch pools, blackbox
    /// models). Campaign runners share one `Arc<CompiledDesign>` across
    /// every job — and every worker thread — and call this per job.
    ///
    /// # Errors
    ///
    /// Fails if a blackbox instance has no model in `factory`.
    pub fn from_compiled(
        shared: Arc<CompiledDesign>,
        factory: &dyn BlackboxFactory,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let design = &shared.design;
        let mut blackboxes = Vec::with_capacity(design.blackboxes.len());
        for bb in &design.blackboxes {
            let model = factory
                .create(bb)
                .ok_or_else(|| SimError::NoModel(bb.module.clone()))?;
            blackboxes.push(model);
        }
        let state = SimState::new(design, config.init);
        let config_metrics = config.metrics;
        let mut scratch = EvalScratch::with_max_width(shared.max_width);
        scratch.size_registers(shared.n_narrow, shared.n_wide, shared.max_width);
        let demoted = standing_demotion(config.backend);
        let n_units = shared.compiled.n_units();
        let n_regions = shared.sched.regions.len();
        let n_sigs = design.table.len();
        let bb_input_scratch = shared
            .compiled
            .bbs
            .iter()
            .map(|bb| {
                bb.ins
                    .iter()
                    .map(|(port, w, _)| (port.clone(), Bits::zero(*w)))
                    .collect()
            })
            .collect();
        Ok(Simulator {
            shared,
            state,
            config,
            blackboxes,
            logs: Vec::new(),
            log_start: 0,
            dropped_logs: 0,
            time: 0,
            cycles: BTreeMap::new(),
            finished: false,
            vcd: None,
            // Dirty sets are pre-sized so first-cycle pushes do not
            // allocate; duplicates can exceed these caps, but growth is
            // one-time and amortized.
            dirty_sigs: Vec::with_capacity(n_sigs),
            dirty_units: Vec::with_capacity(n_units),
            force_full: true,
            changed_scratch: Vec::with_capacity(n_sigs),
            scratch,
            worklist: Worklist::new(n_units),
            nb_scratch: Vec::with_capacity(16),
            log_sink: LogSink::default(),
            bb_input_scratch,
            forces: BTreeMap::new(),
            region_demoted: vec![demoted; n_regions],
            counters: if config_metrics {
                Some(Box::default())
            } else {
                None
            },
        })
    }

    /// The elaborated design under simulation.
    pub fn design(&self) -> &Design {
        &self.shared.design
    }

    /// The shared compiled schedule backing this simulator. Clone the
    /// `Arc` to build sibling simulators with
    /// [`from_compiled`](Self::from_compiled).
    pub fn compiled_design(&self) -> &Arc<CompiledDesign> {
        &self.shared
    }

    /// Access a blackbox model by flat instance name (e.g. to read a trace
    /// buffer's captured entries after a run).
    pub fn blackbox(&self, name: &str) -> Option<&dyn Blackbox> {
        self.shared.design
            .blackboxes
            .iter()
            .position(|b| b.name == name)
            .map(|i| self.blackboxes[i].as_ref() as &dyn Blackbox)
    }

    /// Names of all blackbox instances of a given IP module.
    pub fn blackbox_instances(&self, module: &str) -> Vec<String> {
        self.shared.design
            .blackboxes
            .iter()
            .filter(|b| b.module == module)
            .map(|b| b.name.clone())
            .collect()
    }

    /// Direct access to simulation state (for checkpoint-style tooling).
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// True once `$finish` has executed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Number of completed posedges of `clock`.
    pub fn cycle(&self, clock: &str) -> u64 {
        self.cycles.get(clock).copied().unwrap_or(0)
    }

    /// Captured `$display` records.
    pub fn logs(&self) -> &[LogRecord] {
        &self.logs[self.log_start..]
    }

    /// How many log records were dropped due to `log_capacity`.
    pub fn dropped_logs(&self) -> u64 {
        self.dropped_logs
    }

    /// Hot-path event counters; `None` unless [`SimConfig::metrics`] was
    /// set when the simulator was built.
    pub fn counters(&self) -> Option<&SimCounters> {
        self.counters.as_deref()
    }

    /// Zeroes the counters (e.g. to measure only a window of interest).
    /// No-op when metrics are disabled.
    pub fn reset_counters(&mut self) {
        if let Some(c) = &mut self.counters {
            **c = SimCounters::default();
        }
    }

    /// One fault-plan transition (force/flip/release/random poke) was
    /// applied; called by [`crate::fault`].
    pub(crate) fn count_fault_event(&mut self) {
        if let Some(c) = &mut self.counters {
            c.fault_events += 1;
        }
    }

    /// Sets a signal's value (normally a top-level input). The value's
    /// width must match the signal's declared width; a mismatch would
    /// silently corrupt every downstream expression width, so it is a
    /// typed error instead. Writes to [`force`](Self::force)d signals are
    /// discarded.
    ///
    /// # Errors
    ///
    /// Fails for unknown signals and width mismatches.
    pub fn poke(&mut self, name: &str, value: Bits) -> Result<(), SimError> {
        let sig = self
            .shared
            .design
            .signals
            .get(name)
            .filter(|s| s.mem_depth.is_none())
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))?;
        if value.width() != sig.width {
            return Err(SimError::WidthMismatch {
                signal: name.to_owned(),
                expected: sig.width,
                got: value.width(),
            });
        }
        let id = self
            .shared
            .design
            .sig_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))?;
        self.apply_poke(id, &value);
        Ok(())
    }

    /// Interned [`poke`](Self::poke): same semantics, no name lookup. Pair
    /// with [`stimulus_plan`](Self::stimulus_plan) to resolve the names
    /// once and drive the hot loop entirely through [`SigId`]s.
    ///
    /// # Errors
    ///
    /// Fails on width mismatches and on memory signals (a memory has no
    /// scalar slot to poke).
    pub fn poke_id(&mut self, id: SigId, value: &Bits) -> Result<(), SimError> {
        if self.state.mem_slot_of(id).is_some() {
            return Err(SimError::UnknownSignal(
                self.shared.design.table.name(id).to_owned(),
            ));
        }
        let expected = self.state.get_id(id).width();
        if value.width() != expected {
            return Err(SimError::WidthMismatch {
                signal: self.shared.design.table.name(id).to_owned(),
                expected,
                got: value.width(),
            });
        }
        self.apply_poke(id, value);
        Ok(())
    }

    /// Interned [`poke_u64`](Self::poke_u64): the value is truncated to
    /// the signal's width and lands directly in the dense state slot —
    /// allocation-free at any width, with no name lookup.
    pub fn poke_id_u64(&mut self, id: SigId, value: u64) {
        if !self.forces.is_empty() && self.forces.contains_key(&id) {
            if let Some(c) = &mut self.counters {
                c.force_hits += 1;
            }
            return;
        }
        if self.state.set_id_u64(id, value) {
            if let Some(c) = &mut self.counters {
                c.pokes += 1;
            }
            self.dirty_sigs.push(id);
            self.dirty_units
                .extend_from_slice(&self.shared.compiled.writers[id.index()]);
        }
    }

    /// Resolves a batch of stimulus signals to interned IDs, validating
    /// each name once. The returned plan's IDs are positionally matched to
    /// `names`, for use with [`poke_id`](Self::poke_id) /
    /// [`poke_id_u64`](Self::poke_id_u64) in per-cycle loops.
    ///
    /// # Errors
    ///
    /// Fails if any name is unknown or refers to a memory.
    pub fn stimulus_plan(&self, names: &[&str]) -> Result<StimulusPlan, SimError> {
        let ids = names
            .iter()
            .map(|name| {
                self.shared.design
                    .signals
                    .get(*name)
                    .filter(|s| s.mem_depth.is_none())
                    .and_then(|_| self.shared.design.sig_id(name))
                    .ok_or_else(|| SimError::UnknownSignal((*name).to_owned()))
            })
            .collect::<Result<Vec<SigId>, SimError>>()?;
        Ok(StimulusPlan { ids })
    }

    /// Interned poke: marks readers dirty, and — because a full pass would
    /// re-derive a driven signal from its driver — also re-schedules any
    /// unit that writes the signal. Forced signals swallow the write.
    fn apply_poke(&mut self, id: SigId, value: &Bits) {
        if !self.forces.is_empty() && self.forces.contains_key(&id) {
            if let Some(c) = &mut self.counters {
                c.force_hits += 1;
            }
            return;
        }
        if self.state.set_id(id, value) {
            if let Some(c) = &mut self.counters {
                c.pokes += 1;
            }
            self.dirty_sigs.push(id);
            self.dirty_units
                .extend_from_slice(&self.shared.compiled.writers[id.index()]);
        }
    }

    /// Pins a signal to `value`: drivers, clocked processes, and pokes can
    /// no longer change it until [`release`](Self::release). This is the
    /// fault-injection primitive (stuck-at faults, forced resets, dropped
    /// handshakes); see [`crate::fault`].
    ///
    /// # Errors
    ///
    /// Fails for unknown signals and width mismatches.
    pub fn force(&mut self, name: &str, value: Bits) -> Result<(), SimError> {
        let sig = self
            .shared
            .design
            .signals
            .get(name)
            .filter(|s| s.mem_depth.is_none())
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))?;
        if value.width() != sig.width {
            return Err(SimError::WidthMismatch {
                signal: name.to_owned(),
                expected: sig.width,
                got: value.width(),
            });
        }
        let id = self
            .shared
            .design
            .sig_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))?;
        // Apply the pinned value first (while not yet forced), then pin.
        self.apply_poke(id, &value);
        if self.forces.insert(id, value).is_none() {
            // Pinning a register-promoted signal demotes its fused region
            // to per-unit execution, whose stores honor the force map.
            let rid = self.shared.sched.promoted_region[id.index()];
            if rid != NO_PROMOTION {
                self.region_demoted[rid as usize] += 1;
            }
        }
        Ok(())
    }

    /// Releases a [`force`](Self::force), letting the signal's normal
    /// drivers take over again on the next settle. Releasing a signal
    /// that is not forced is a no-op.
    ///
    /// # Errors
    ///
    /// Fails for unknown signals.
    pub fn release(&mut self, name: &str) -> Result<(), SimError> {
        let id = self
            .shared
            .design
            .sig_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))?;
        if self.forces.remove(&id).is_some() {
            let rid = self.shared.sched.promoted_region[id.index()];
            if rid != NO_PROMOTION {
                self.region_demoted[rid as usize] -= 1;
            }
            // Re-run the drivers of the released signal so it recomputes,
            // and its readers so the recomputed value propagates.
            self.dirty_sigs.push(id);
            self.dirty_units
                .extend_from_slice(&self.shared.compiled.writers[id.index()]);
        }
        Ok(())
    }

    /// Names of currently forced signals.
    pub fn forced_signals(&self) -> Vec<String> {
        self.forces
            .keys()
            .map(|id| self.shared.design.table.name(*id).to_owned())
            .collect()
    }

    /// Convenience: poke from a `u64`, truncated to the signal's width.
    /// Allocation-free at any width — the value lands directly in the
    /// dense state slot, so stimulus loops over wide buses stay on the
    /// zero-allocation path.
    ///
    /// # Errors
    ///
    /// Fails for unknown signals.
    pub fn poke_u64(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let id = self
            .shared
            .design
            .signals
            .get(name)
            .filter(|s| s.mem_depth.is_none())
            .and_then(|_| self.shared.design.sig_id(name))
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))?;
        if !self.forces.is_empty() && self.forces.contains_key(&id) {
            if let Some(c) = &mut self.counters {
                c.force_hits += 1;
            }
            return Ok(());
        }
        if self.state.set_id_u64(id, value) {
            if let Some(c) = &mut self.counters {
                c.pokes += 1;
            }
            self.dirty_sigs.push(id);
            self.dirty_units
                .extend_from_slice(&self.shared.compiled.writers[id.index()]);
        }
        Ok(())
    }

    /// Reads a signal's current value.
    ///
    /// # Errors
    ///
    /// Fails for unknown signals.
    pub fn peek(&self, name: &str) -> Result<&Bits, SimError> {
        self.state
            .get(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))
    }

    /// Reads a memory element.
    ///
    /// # Errors
    ///
    /// Fails if `name` is not a memory.
    pub fn peek_mem(&self, name: &str, idx: u64) -> Result<Bits, SimError> {
        let sig = self
            .shared
            .design
            .signals
            .get(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))?;
        if sig.mem_depth.is_none() {
            return Err(SimError::UnknownSignal(format!("{name} is not a memory")));
        }
        Ok(self.state.read_mem(name, idx))
    }

    /// Runs one settle unit (comb driver or blackbox), appending the IDs of
    /// signals whose value changed to `self.changed_scratch`.
    fn run_unit(&mut self, unit: u32) -> Result<(), SimError> {
        let n_combs = self.shared.compiled.combs.len();
        let u = unit as usize;
        if u < n_combs {
            let mut exec = CExec {
                state: &mut self.state,
                scratch: &mut self.scratch,
                nb: None,
                logs: None,
                changed: &mut self.changed_scratch,
                forced: forced_view(&self.forces),
                strict_bounds: self.config.strict_bounds,
                counters: self.counters.as_deref_mut(),
            };
            // Worklist units (and demoted regions, and the FullPass sweep)
            // run their per-unit programs.
            match self.config.backend {
                Backend::Tree => exec.stmt(&self.shared.compiled.combs[u].body)?,
                Backend::Levelized => bytecode::run(&self.shared.comb_progs[u], &mut exec)?,
            };
        } else {
            let bi = u - n_combs;
            self.refresh_bb_inputs(bi)?;
            let bb = &self.shared.compiled.bbs[bi];
            for (port, lv) in &bb.outs {
                let mut v = self.scratch.take();
                let produced = self.blackboxes[bi].eval_port(
                    port,
                    &self.bb_input_scratch[bi],
                    &mut v,
                );
                if produced {
                    let mut exec = CExec {
                        state: &mut self.state,
                        scratch: &mut self.scratch,
                        nb: None,
                        logs: None,
                        changed: &mut self.changed_scratch,
                        forced: forced_view(&self.forces),
                        strict_bounds: self.config.strict_bounds,
                        counters: self.counters.as_deref_mut(),
                    };
                    exec.write(lv, v)?;
                } else {
                    self.scratch.put(v);
                }
            }
        }
        Ok(())
    }

    /// Re-evaluates a blackbox's input connections into its prebuilt port
    /// map, in place. `ins` and the map iterate in the same (sorted port
    /// name) order, so the two zip up.
    fn refresh_bb_inputs(&mut self, bi: usize) -> Result<(), SimError> {
        let bb = &self.shared.compiled.bbs[bi];
        let inputs = &mut self.bb_input_scratch[bi];
        debug_assert_eq!(inputs.len(), bb.ins.len());
        for ((port, w, ce), (key, slot)) in bb.ins.iter().zip(inputs.iter_mut()) {
            debug_assert_eq!(port, key);
            let _ = key;
            eval_into(&self.state, &mut self.scratch, ce, slot)?;
            slot.resize_in_place(*w);
        }
        Ok(())
    }

    /// One cooperative deadline probe: an error once the wall clock has
    /// passed [`SimConfig::deadline`], `Ok` otherwise — and always `Ok`,
    /// without touching the clock, when no deadline is configured.
    #[inline]
    fn check_deadline(&self) -> Result<(), SimError> {
        match self.config.deadline {
            Some(d) if std::time::Instant::now() >= d => {
                Err(SimError::DeadlineExceeded { steps: self.time })
            }
            _ => Ok(()),
        }
    }

    /// Settles combinational logic (and blackbox outputs) to a fixpoint.
    ///
    /// # Errors
    ///
    /// [`SimError::CombLoop`] if no fixpoint is reached within the
    /// configured iteration budget.
    pub fn settle(&mut self) -> Result<(), SimError> {
        match self.config.settle_mode {
            // FullPass sweeps per-unit regardless of backend, so its
            // differential semantics are untouched by region fusion.
            SettleMode::FullPass => self.settle_full(),
            SettleMode::EventDriven => self.settle_levelized(),
        }
    }

    /// Interpreter-equivalent full-pass fixpoint: every unit, every
    /// iteration, in declaration order.
    fn settle_full(&mut self) -> Result<(), SimError> {
        let n_units = self.shared.compiled.n_units() as u32;
        let mut iters = 0u64;
        for _ in 0..self.config.max_comb_iters {
            iters += 1;
            if self.config.deadline.is_some() {
                self.check_deadline()?;
            }
            self.changed_scratch.clear();
            for u in 0..n_units {
                self.run_unit(u)?;
            }
            if self.changed_scratch.is_empty() {
                self.dirty_sigs.clear();
                self.dirty_units.clear();
                self.force_full = false;
                if let Some(c) = &mut self.counters {
                    c.settles += 1;
                    c.full_settles += iters;
                    c.units_executed += iters * u64::from(n_units);
                }
                return Ok(());
            }
        }
        // The signals that changed during the final iteration are exactly
        // those still oscillating — name them in the diagnostic.
        let unstable: BTreeSet<SigId> = self.changed_scratch.iter().copied().collect();
        Err(self.comb_loop_error(unstable))
    }

    /// Maps an unstable ID set to a sorted-name [`SimError::CombLoop`].
    fn comb_loop_error(&self, unstable: BTreeSet<SigId>) -> SimError {
        SimError::CombLoop {
            unstable: unstable
                .into_iter()
                .map(|id| self.shared.design.table.name(id).to_owned())
                .collect(),
        }
    }

    /// Two-tier levelized settling (see [`crate::sched`]): the worklist
    /// ranges over *nodes* — fused acyclic regions first, then fallback
    /// units, popped lowest first. A dirty region executes in topological
    /// rank order (one pass is its fixpoint, so its own writes never
    /// requeue it); cyclic SCCs, un-lowerable units, and blackboxes pop
    /// one unit at a time and are requeued whenever a signal they read
    /// changes. The budget counts *unit* executions (a region pop charges
    /// its member count), so `max_comb_iters × n_units` bounds the work
    /// exactly as it bounds a full pass, and combinational loops are still
    /// caught.
    fn settle_levelized(&mut self) -> Result<(), SimError> {
        let shared = Arc::clone(&self.shared);
        let sched = &shared.sched;
        let n_units = shared.compiled.n_units() as u32;
        let n_regions = sched.regions.len() as u32;
        let n_nodes = sched.n_nodes() as u32;
        self.worklist.clear();
        let mut pushes = 0u64;
        let was_full = self.force_full;
        if self.force_full {
            for nd in 0..n_nodes {
                self.worklist.insert(nd);
            }
            pushes += u64::from(n_nodes);
        } else {
            let dirty = std::mem::take(&mut self.dirty_sigs);
            for &id in &dirty {
                let readers = &sched.node_readers[id.index()];
                pushes += readers.len() as u64;
                for &nd in readers {
                    self.worklist.insert(nd);
                }
            }
            self.dirty_sigs = dirty;
            pushes += self.dirty_units.len() as u64;
            let units = std::mem::take(&mut self.dirty_units);
            for &u in &units {
                self.worklist.insert(sched.unit_node[u as usize]);
            }
            self.dirty_units = units;
        }
        self.dirty_sigs.clear();
        self.dirty_units.clear();
        self.force_full = false;

        let budget = (self.config.max_comb_iters as u64)
            .saturating_mul(u64::from(n_units.max(1)));
        // Once the run count enters the final full-pass-equivalent window,
        // start recording which signals are still flipping so the eventual
        // CombLoop error can name the oscillating set.
        let tail_start = budget.saturating_sub(u64::from(n_units.max(1)));
        let mut unstable: BTreeSet<SigId> = BTreeSet::new();
        let mut runs = 0u64;
        let mut region_pops = 0u64;
        while let Some(nd) = self.worklist.pop() {
            let is_region = nd < n_regions;
            let prev_runs = runs;
            runs += if is_region {
                sched.regions[nd as usize].members.len() as u64
            } else {
                1
            };
            if runs > budget {
                return Err(self.comb_loop_error(unstable));
            }
            // The disabled path pays the `is_some` load only. A region pop
            // advances `runs` by its member count, so probe whenever the
            // count crosses a multiple of `DEADLINE_CHECK_MASK + 1`.
            if self.config.deadline.is_some()
                && (prev_runs & !DEADLINE_CHECK_MASK) != (runs & !DEADLINE_CHECK_MASK)
            {
                self.check_deadline()?;
            }
            self.changed_scratch.clear();
            if is_region {
                region_pops += 1;
                // In the tail window a region runs unit by unit, as a
                // demoted one does: the fused write-back of a promoted
                // signal records no change, and the report must name it.
                if runs > tail_start {
                    self.run_members(nd as usize, sched)?;
                } else {
                    self.run_region(nd as usize, sched)?;
                }
            } else {
                self.run_unit(sched.node_unit[(nd - n_regions) as usize])?;
            }
            if runs > tail_start {
                unstable.extend(self.changed_scratch.iter().copied());
            }
            let changed = std::mem::take(&mut self.changed_scratch);
            for &id in &changed {
                let readers = &sched.node_readers[id.index()];
                pushes += readers.len() as u64;
                for &rn in readers {
                    // A region's pass is its fixpoint: its own outputs
                    // never re-dirty it.
                    if is_region && rn == nd {
                        continue;
                    }
                    self.worklist.insert(rn);
                }
            }
            self.changed_scratch = changed;
        }
        if let Some(c) = &mut self.counters {
            c.settles += 1;
            c.units_executed += runs;
            c.worklist_pushes += pushes;
            c.regions_executed += region_pops;
            c.region_skips += u64::from(n_regions).saturating_sub(region_pops);
            if was_full {
                c.full_settles += 1;
            }
        }
        Ok(())
    }

    /// Executes one fused region: the straight-line program when clean, or
    /// [`run_members`](Self::run_members) when the region is demoted (a
    /// force pins one of its promoted signals, or the backend is
    /// [`Backend::Tree`]).
    fn run_region(&mut self, r: usize, sched: &Schedule) -> Result<(), SimError> {
        if self.region_demoted[r] == 0 {
            let mut exec = CExec {
                state: &mut self.state,
                scratch: &mut self.scratch,
                nb: None,
                logs: None,
                changed: &mut self.changed_scratch,
                forced: forced_view(&self.forces),
                strict_bounds: self.config.strict_bounds,
                counters: self.counters.as_deref_mut(),
            };
            // Fused programs contain no `Finish` (excluded at build time).
            crate::bytecode::run(&sched.regions[r].prog, &mut exec)?;
            Ok(())
        } else {
            self.run_members(r, sched)
        }
    }

    /// Runs a region's members one unit at a time, in rank order. Per-unit
    /// stores honor the force map and record every change; one ordered
    /// pass still reaches the region's fixpoint.
    fn run_members(&mut self, r: usize, sched: &Schedule) -> Result<(), SimError> {
        for &u in &sched.regions[r].members {
            self.run_unit(u)?;
        }
        Ok(())
    }

    /// Recomputes `region_demoted` from the backend's standing demotion and
    /// the force map (after a wholesale force replacement: checkpoint
    /// restore or engine reset).
    fn recount_region_demotions(&mut self) {
        self.region_demoted.fill(standing_demotion(self.config.backend));
        if self.forces.is_empty() {
            return;
        }
        for id in self.forces.keys() {
            let rid = self.shared.sched.promoted_region[id.index()];
            if rid != NO_PROMOTION {
                self.region_demoted[rid as usize] += 1;
            }
        }
    }

    /// Advances one full cycle of `clock`: settle, rising edge (clocked
    /// processes + blackbox ticks + nonblocking commit), settle again.
    ///
    /// # Errors
    ///
    /// Propagates settle/evaluation errors. Does nothing after `$finish`.
    pub fn step(&mut self, clock: &str) -> Result<(), SimError> {
        if self.finished {
            return Ok(());
        }
        if self.config.deadline.is_some() {
            self.check_deadline()?;
        }
        let (clock_id, plan) = self.shared.clock_plan(clock);
        if let Some(cid) = clock_id {
            self.poke_id_u64(cid, 0);
        }
        self.settle()?;

        // Snapshot blackbox inputs at the pre-edge instant, refreshing the
        // prebuilt port maps in place. Nothing between here and the ticks
        // touches the maps (clocked processes run through `CExec` only).
        for bi in 0..self.shared.compiled.bbs.len() {
            self.refresh_bb_inputs(bi)?;
        }

        if let Some(cid) = clock_id {
            self.poke_id_u64(cid, 1);
        }
        let cycle = match self.cycles.get_mut(clock) {
            Some(c) => {
                *c += 1;
                *c
            }
            None => {
                self.cycles.insert(clock.to_owned(), 1);
                1
            }
        };

        let mut nb = std::mem::take(&mut self.nb_scratch);
        debug_assert!(nb.is_empty() && self.log_sink.staged.is_empty());
        self.log_sink.time = self.time;
        self.log_sink.cycle = cycle;
        let mut finished = false;
        for &pi in &plan.procs {
            let mut exec = CExec {
                state: &mut self.state,
                scratch: &mut self.scratch,
                nb: Some(&mut nb),
                logs: Some(&mut self.log_sink),
                changed: &mut self.dirty_sigs,
                forced: forced_view(&self.forces),
                strict_bounds: self.config.strict_bounds,
                counters: self.counters.as_deref_mut(),
            };
            let flow = match self.config.backend {
                Backend::Tree => exec.stmt(&self.shared.compiled.procs[pi].body)?,
                Backend::Levelized => bytecode::run(&self.shared.proc_progs[pi], &mut exec)?,
            };
            if flow == Flow::Finished {
                finished = true;
            }
        }

        // Tick blackboxes clocked by this signal, with pre-edge inputs.
        // A ticked model's outputs may change with no input edge, so its
        // unit is re-scheduled explicitly.
        let n_combs = self.shared.compiled.combs.len() as u32;
        for (bi, port) in &plan.ticks {
            self.blackboxes[*bi].tick(port, &self.bb_input_scratch[*bi]);
            self.dirty_units.push(n_combs + *bi as u32);
        }

        // Commit nonblocking writes in program order.
        let nb_len = nb.len() as u64;
        {
            let mut exec = CExec {
                state: &mut self.state,
                scratch: &mut self.scratch,
                nb: None,
                logs: None,
                changed: &mut self.dirty_sigs,
                forced: forced_view(&self.forces),
                strict_bounds: self.config.strict_bounds,
                counters: self.counters.as_deref_mut(),
            };
            for w in nb.drain(..) {
                exec.commit(w);
            }
        }
        self.nb_scratch = nb;

        let mut staged = std::mem::take(&mut self.log_sink.staged);
        for rec in staged.drain(..) {
            self.push_log(rec);
        }
        self.log_sink.staged = staged;
        if finished {
            self.finished = true;
        }
        if let Some(c) = &mut self.counters {
            c.steps += 1;
            c.proc_runs += plan.procs.len() as u64;
            c.nb_commits += nb_len;
        }
        self.time += 1;
        self.settle()?;
        if let Some(vcd) = &mut self.vcd {
            // Waveform capture is best-effort; an I/O error stops sampling.
            if vcd.sample(self.time, &self.state).is_err() {
                self.vcd = None;
            }
        }
        Ok(())
    }

    /// Appends one `$display` record, evicting the oldest visible record
    /// once `log_capacity` are retained. Compaction hands the evicted
    /// records' message buffers back to the log sink for reuse.
    fn push_log(&mut self, rec: LogRecord) {
        let cap = self.config.log_capacity;
        if self.logs.len() - self.log_start >= cap {
            self.dropped_logs += 1;
            if cap == 0 {
                return;
            }
            self.log_start += 1;
            if self.log_start >= cap {
                for old in self.logs.drain(..self.log_start) {
                    self.log_sink.recycle(old.message, cap);
                }
                self.log_start = 0;
            }
        }
        self.logs.push(rec);
    }

    /// Runs `n` cycles of `clock` (stops early at `$finish`).
    ///
    /// # Errors
    ///
    /// Propagates [`step`](Self::step) errors.
    pub fn run(&mut self, clock: &str, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            if self.finished {
                break;
            }
            self.step(clock)?;
        }
        Ok(())
    }

    /// Captures a full checkpoint of the simulation: signal values,
    /// memories, log position, cycle counters, and blackbox state. This is
    /// the checkpoint-based functionality the paper's §7 names as a
    /// natural extension of the debugging infrastructure.
    ///
    /// # Errors
    ///
    /// [`SimError::NoModel`] if a blackbox model does not support
    /// snapshotting.
    pub fn checkpoint(&self) -> Result<Checkpoint, SimError> {
        let mut bb_states = Vec::new();
        for (i, bb) in self.blackboxes.iter().enumerate() {
            match bb.snapshot() {
                Some(st) => bb_states.push(st),
                None => {
                    return Err(SimError::NoModel(
                        self.shared.design.blackboxes[i].module.clone(),
                    ))
                }
            }
        }
        Ok(Checkpoint {
            state: self.state.clone(),
            time: self.time,
            cycles: self.cycles.clone(),
            finished: self.finished,
            logs_total: self.dropped_logs + self.logs().len() as u64,
            bb_states,
            forces: self.forces.clone(),
        })
    }

    /// Rewinds the simulation to a previously captured checkpoint.
    /// Log records emitted after the checkpoint are discarded.
    ///
    /// # Errors
    ///
    /// [`SimError::NoModel`] if a blackbox refuses the snapshot payload
    /// (checkpoint from a different simulator).
    pub fn restore(&mut self, cp: &Checkpoint) -> Result<(), SimError> {
        if cp.bb_states.len() != self.blackboxes.len() {
            return Err(SimError::NoModel("checkpoint shape mismatch".into()));
        }
        for (i, bb) in self.blackboxes.iter_mut().enumerate() {
            if !bb.restore(cp.bb_states[i].as_ref()) {
                return Err(SimError::NoModel(
                    self.shared.design.blackboxes[i].module.clone(),
                ));
            }
        }
        self.state = cp.state.clone();
        self.time = cp.time;
        self.cycles = cp.cycles.clone();
        self.finished = cp.finished;
        // Keep the records that existed at the checkpoint and are still
        // retained; any evicted since then stay counted as dropped.
        let kept = cp.logs_total.saturating_sub(self.dropped_logs) as usize;
        let visible = kept.min(self.logs().len());
        self.logs.truncate(self.log_start + visible);
        self.dropped_logs = self.dropped_logs.min(cp.logs_total);
        // Force pins are simulation state too: a stuck-at applied after the
        // checkpoint would otherwise keep pinning the signal after rewind.
        self.forces = cp.forces.clone();
        self.recount_region_demotions();
        // The whole value store was replaced: rebuild from scratch on the
        // next settle rather than trusting stale dirty sets.
        self.dirty_sigs.clear();
        self.dirty_units.clear();
        self.force_full = true;
        Ok(())
    }

    /// Returns this simulator to the state a fresh
    /// [`from_compiled`](Self::from_compiled) with `config` would produce,
    /// without rebuilding the value store or scratch pools. Blackbox
    /// models are recreated from `factory`, signal/memory values are
    /// re-initialized per `config.init` (consuming the deterministic
    /// init RNG in exactly `SimState::new`'s order, so randomized runs
    /// are byte-identical to a rebuilt engine), and logs, time, cycle
    /// counts, forces, and dirty sets are cleared. Campaign workers pool
    /// one engine per (worker, design) and reset it between jobs instead
    /// of paying per-job construction.
    ///
    /// # Errors
    ///
    /// Same failure mode as [`from_compiled`](Self::from_compiled): a
    /// missing blackbox model.
    pub fn reset(
        &mut self,
        factory: &dyn BlackboxFactory,
        config: SimConfig,
    ) -> Result<(), SimError> {
        let shared = Arc::clone(&self.shared);
        let design = &shared.design;
        let mut blackboxes = Vec::with_capacity(design.blackboxes.len());
        for bb in &design.blackboxes {
            let model = factory
                .create(bb)
                .ok_or_else(|| SimError::NoModel(bb.module.clone()))?;
            blackboxes.push(model);
        }
        self.blackboxes = blackboxes;
        self.state.reset(design, config.init);
        self.scratch.size_registers(shared.n_narrow, shared.n_wide, shared.max_width);
        self.counters = if config.metrics {
            Some(Box::default())
        } else {
            None
        };
        self.config = config;
        self.logs.clear();
        self.log_start = 0;
        self.log_sink.staged.clear();
        self.nb_scratch.clear();
        self.dropped_logs = 0;
        self.time = 0;
        self.cycles.clear();
        self.finished = false;
        self.vcd = None;
        self.dirty_sigs.clear();
        self.dirty_units.clear();
        self.changed_scratch.clear();
        self.forces.clear();
        self.recount_region_demotions();
        self.force_full = true;
        Ok(())
    }

    /// Attaches a VCD waveform writer; every subsequent [`step`](Self::step)
    /// appends a sample of all scalar signals.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the VCD header.
    pub fn attach_vcd<W: std::io::Write + Send + 'static>(
        &mut self,
        sink: W,
    ) -> std::io::Result<()> {
        let writer = crate::vcd::VcdWriter::new(
            Box::new(sink) as Box<dyn std::io::Write + Send>,
            &self.shared.design,
        )?;
        self.vcd = Some(writer);
        Ok(())
    }

    /// Steps `clock` until `cond` holds, up to `max_cycles`.
    /// Returns the number of cycles stepped.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] on timeout — the "Stuck" symptom of the
    /// paper's bug study. [`SimError::EarlyFinish`] if the design executed
    /// `$finish` while `cond` still did not hold: success used to be
    /// reported here, masking testbenches that terminated before reaching
    /// the awaited condition.
    pub fn run_until(
        &mut self,
        clock: &str,
        max_cycles: u64,
        mut cond: impl FnMut(&Simulator) -> bool,
    ) -> Result<u64, SimError> {
        for i in 0..max_cycles {
            if cond(self) {
                return Ok(i);
            }
            if self.finished {
                return Err(SimError::EarlyFinish { cycles: i });
            }
            self.step(clock)?;
        }
        if cond(self) {
            return Ok(max_cycles);
        }
        if self.finished {
            return Err(SimError::EarlyFinish { cycles: max_cycles });
        }
        Err(SimError::Watchdog {
            cycles: max_cycles,
        })
    }
}

/// An ordered set of unit (or node) indices: a bitset plus a cursor at
/// the lowest word that may hold a member. [`pop`](Self::pop) takes the
/// lowest member, so a settle pops in exactly the order a min-heap with
/// dedup flags would, without the heap's sift costs.
struct Worklist {
    words: Vec<u64>,
    /// Every word below this index is zero.
    low: usize,
}

impl Worklist {
    /// An empty set over indices `0..n`.
    fn new(n: usize) -> Self {
        let words = vec![0; n.div_ceil(64)];
        let low = words.len();
        Worklist { words, low }
    }

    fn clear(&mut self) {
        self.words[self.low..].fill(0);
        self.low = self.words.len();
    }

    /// Adds `i`; a member already queued stays queued once.
    #[inline]
    fn insert(&mut self, i: u32) {
        let w = (i / 64) as usize;
        self.words[w] |= 1 << (i % 64);
        self.low = self.low.min(w);
    }

    /// Removes and returns the lowest member.
    #[inline]
    fn pop(&mut self) -> Option<u32> {
        while let Some(word) = self.words.get_mut(self.low) {
            if *word != 0 {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                return Some(self.low as u32 * 64 + bit);
            }
            self.low += 1;
        }
        None
    }
}

/// Demotions every fused region carries regardless of forces: one under
/// [`Backend::Tree`], whose members then run on the tree-walker.
fn standing_demotion(backend: Backend) -> u32 {
    u32::from(backend == Backend::Tree)
}

/// `None` when no faults are active, so the hot path stays branch-cheap.
fn forced_view(forces: &BTreeMap<SigId, Bits>) -> Option<&BTreeMap<SigId, Bits>> {
    if forces.is_empty() {
        None
    } else {
        Some(forces)
    }
}

// `Simulator: Send` holds by construction (no `Rc`, no `RefCell`, `Send`
// blackbox models, `Send` VCD sinks), and `CompiledDesign` is additionally
// `Sync` so one `Arc` can back simulators on many threads. Campaign
// sharding depends on both; a field change that silently loses either
// fails to compile here.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Simulator>();
    assert_send_sync::<CompiledDesign>();
    assert_send_sync::<SimConfig>();
    assert_send::<Checkpoint>();
};
