//! FSM Monitor: static detection and runtime tracing of finite state
//! machines (§4.2).
//!
//! Detection uses the paper's heuristics: an FSM variable is a clocked
//! register that (1) is only ever assigned constant values (literals or
//! localparams), (2) is assigned conditionally, (3) appears in the
//! conditions steering those assignments (typically as a case selector),
//! (4) never has arithmetic applied to it, and (5) is never bit-selected.
//! Heuristics can miss FSMs (e.g. counter-encoded states) and the paper
//! reports 0 false positives / 5 false negatives over 32 FSMs; the
//! [`FsmMonitor`] API lets a developer patch either mistake by adding or
//! removing signals.

use crate::{clock_map, generated_lines, ToolError};
use hwdbg_bits::Bits;
use hwdbg_dataflow::guard::{self, Guard};
use hwdbg_dataflow::{Design, SigKind};
use hwdbg_rtl::{Expr, Item, LValue, Module, NetDecl, NetKind, Span, Stmt};
use hwdbg_sim::{LogRecord, Simulator};
use std::collections::{BTreeMap, BTreeSet};

/// A detected finite state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmInfo {
    /// The state register's flat name.
    pub signal: String,
    /// Register width.
    pub width: u32,
    /// Known state encodings → recovered names (from localparams).
    pub states: BTreeMap<u64, String>,
}

impl FsmInfo {
    /// Human-readable name of a state value.
    pub fn state_name(&self, value: u64) -> String {
        self.states
            .get(&value)
            .cloned()
            .unwrap_or_else(|| format!("{value}"))
    }
}

/// One observed state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmTransition {
    /// State register name.
    pub signal: String,
    /// Cycle at which the new state became visible.
    pub cycle: u64,
    /// Previous state value.
    pub from: u64,
    /// New state value.
    pub to: u64,
    /// Previous state name (localparam if recovered).
    pub from_name: String,
    /// New state name.
    pub to_name: String,
}

/// Result of FSM instrumentation.
#[derive(Debug, Clone)]
pub struct FsmInstrumented {
    /// The instrumented module.
    pub module: Module,
    /// The monitored FSMs.
    pub fsms: Vec<FsmInfo>,
    /// Lines of Verilog generated.
    pub generated_lines: usize,
}

/// Strictness knobs for the §4.2 detection heuristics.
///
/// The defaults reproduce the paper's operating point (0 false positives,
/// a handful of false negatives on encodings like one-hot rings). Relaxing
/// a rule widens recall at the cost of precision — the classic tradeoff
/// the paper notes vendor synthesizers resolve with more sophisticated
/// detection.
#[derive(Debug, Clone)]
pub struct FsmDetectConfig {
    /// Rule 1: every assignment must be a constant (or a self-hold).
    pub require_constant_assignments: bool,
    /// Rule 4: arithmetic on the variable disqualifies it (counters).
    pub reject_arithmetic: bool,
    /// Rule 5: bit selects of the variable disqualify it (one-hot rings
    /// slip through when this is relaxed — along with shift registers).
    pub reject_bit_select: bool,
    /// Minimum register width (1-bit flags are rarely FSMs of interest).
    pub min_width: u32,
}

impl Default for FsmDetectConfig {
    fn default() -> Self {
        FsmDetectConfig {
            require_constant_assignments: true,
            reject_arithmetic: true,
            reject_bit_select: true,
            min_width: 2,
        }
    }
}

/// The FSM Monitor tool.
#[derive(Debug, Clone, Default)]
pub struct FsmMonitor {
    extra: BTreeSet<String>,
    filtered: BTreeSet<String>,
}

impl FsmMonitor {
    /// Creates a monitor with no manual patches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state register the heuristics missed (developer patch).
    pub fn add_signal(&mut self, name: impl Into<String>) -> &mut Self {
        self.extra.insert(name.into());
        self
    }

    /// Filters out a detected register that is not an FSM of interest.
    pub fn filter_signal(&mut self, name: impl Into<String>) -> &mut Self {
        self.filtered.insert(name.into());
        self
    }

    /// Runs the static detection heuristics with the default strictness.
    pub fn detect(design: &Design) -> Vec<FsmInfo> {
        Self::detect_with_config(design, &FsmDetectConfig::default())
    }

    /// Runs detection with explicit heuristic strictness — the ablation
    /// knob of DESIGN.md §6: relaxing a rule trades false negatives for
    /// false positives.
    pub fn detect_with_config(design: &Design, cfg: &FsmDetectConfig) -> Vec<FsmInfo> {
        let mut facts: BTreeMap<String, SignalFacts> = BTreeMap::new();
        let procs = design.procs.iter().map(|p| (&p.body, true));
        for (body, clocked) in procs.chain(design.combs.iter().map(|c| (&c.body, false))) {
            guard::walk(body, &mut Vec::new(), &mut |path, stmt| {
                note_stmt(path, stmt, design, &mut facts, clocked);
            });
        }

        let consts = ConstIndex::new(design);
        let mut out = Vec::new();
        for (name, f) in &facts {
            let Some(sig) = design.signals.get(name) else {
                continue;
            };
            let is_fsm = sig.kind == SigKind::Reg
                && sig.mem_depth.is_none()
                && sig.width >= cfg.min_width
                && f.clocked_assigns > 0
                && (f.nonconst_assigns == 0 || !cfg.require_constant_assignments)
                && f.conditional_assigns > 0
                && f.in_conditions
                && !(f.arithmetic && cfg.reject_arithmetic)
                && !(f.bit_selected && cfg.reject_bit_select)
                && (f.const_values.len() >= 2 || !cfg.require_constant_assignments);
            if is_fsm {
                out.push(FsmInfo {
                    signal: name.clone(),
                    width: sig.width,
                    states: consts.state_names(sig.width, &f.const_values, name),
                });
            }
        }
        out
    }

    /// Detection plus this monitor's manual adds/filters.
    pub fn detect_with_patches(&self, design: &Design) -> Vec<FsmInfo> {
        let mut fsms: Vec<FsmInfo> = Self::detect(design)
            .into_iter()
            .filter(|f| !self.filtered.contains(&f.signal))
            .collect();
        let consts = ConstIndex::new(design);
        for name in &self.extra {
            if fsms.iter().any(|f| &f.signal == name) {
                continue;
            }
            if let Some(sig) = design.signals.get(name) {
                fsms.push(FsmInfo {
                    signal: name.clone(),
                    width: sig.width,
                    states: consts.state_names(sig.width, &BTreeSet::new(), name),
                });
            }
        }
        fsms
    }

    /// Instruments the design to log every state transition of the
    /// detected (plus patched) FSMs.
    ///
    /// # Errors
    ///
    /// [`ToolError::NothingToInstrument`] when no FSM is found, and
    /// [`ToolError::NoClock`] when a monitored register has no clock.
    pub fn instrument(&self, design: &Design) -> Result<FsmInstrumented, ToolError> {
        let fsms = self.detect_with_patches(design);
        if fsms.is_empty() {
            return Err(ToolError::NothingToInstrument("no FSM detected".into()));
        }
        let (clocks, primary) = clock_map(design);
        let mut module = design.flat.clone();
        let mut new_items = Vec::new();
        for fsm in &fsms {
            let clock = clocks
                .get(&fsm.signal)
                .cloned()
                .or_else(|| primary.clone())
                .ok_or(ToolError::NoClock)?;
            let prev = format!("__fsmmon_prev_{}", fsm.signal);
            new_items.push(Item::Net(NetDecl::vector(
                NetKind::Reg,
                prev.clone(),
                fsm.width,
            )));
            // always @(posedge clk) begin
            //   __fsmmon_prev <= state;
            //   if (__fsmmon_prev != state)
            //     $display("FSMMON <name> %0d %0d", __fsmmon_prev, state);
            // end
            let body = Stmt::Block(vec![
                Stmt::nonblocking(LValue::Id(prev.clone()), Expr::ident(fsm.signal.clone())),
                Stmt::if_then(
                    Expr::Binary(
                        hwdbg_rtl::BinaryOp::Ne,
                        Box::new(Expr::ident(prev.clone())),
                        Box::new(Expr::ident(fsm.signal.clone())),
                    ),
                    Stmt::Display {
                        format: format!("FSMMON {} %0d %0d", fsm.signal),
                        args: vec![Expr::ident(prev.clone()), Expr::ident(fsm.signal.clone())],
                        span: Span::synthetic(),
                    },
                ),
            ]);
            new_items.push(Item::Always {
                event: hwdbg_rtl::EventControl::Edges(vec![hwdbg_rtl::Edge {
                    posedge: true,
                    signal: clock,
                }]),
                body,
                span: Span::synthetic(),
            });
        }
        let lines = generated_lines(&new_items);
        module.items.extend(new_items);
        Ok(FsmInstrumented {
            module,
            fsms,
            generated_lines: lines,
        })
    }

    /// Reconstructs the state-transition trace from a simulation of the
    /// instrumented design (or from SignalCat-reconstructed records).
    pub fn reconstruct(info: &FsmInstrumented, logs: &[LogRecord]) -> Vec<FsmTransition> {
        let mut out = Vec::new();
        for rec in logs {
            let Some(rest) = rec.message.strip_prefix("FSMMON ") else {
                continue;
            };
            let mut parts = rest.split_whitespace();
            let (Some(sig), Some(from), Some(to)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let (Ok(from), Ok(to)) = (from.parse::<u64>(), to.parse::<u64>()) else {
                continue;
            };
            let Some(fsm) = info.fsms.iter().find(|f| f.signal == sig) else {
                continue;
            };
            out.push(FsmTransition {
                signal: sig.to_owned(),
                cycle: rec.cycle,
                from,
                to,
                from_name: fsm.state_name(from),
                to_name: fsm.state_name(to),
            });
        }
        out
    }

    /// Convenience: reconstruct directly from a simulator's captured logs.
    pub fn trace(info: &FsmInstrumented, sim: &Simulator) -> Vec<FsmTransition> {
        Self::reconstruct(info, sim.logs())
    }

    /// Like [`FsmMonitor::trace`], but marks the trace *degraded* when an
    /// FSM with labeled states was observed entering a value none of its
    /// `localparam`s name — the signature of a perturbed or corrupted
    /// state register (stuck-at/bit-flip faults land here). One warning
    /// is emitted per distinct (register, unlabeled state) pair.
    pub fn trace_checked(
        info: &FsmInstrumented,
        sim: &Simulator,
    ) -> hwdbg_diag::Checked<Vec<FsmTransition>> {
        use hwdbg_diag::{Checked, ErrorCode, HwdbgError};
        use std::collections::BTreeSet;
        let transitions = Self::trace(info, sim);
        let mut checked = Checked::clean(Vec::new());
        let mut flagged: BTreeSet<(String, u64)> = BTreeSet::new();
        for t in &transitions {
            let Some(fsm) = info.fsms.iter().find(|f| f.signal == t.signal) else {
                continue;
            };
            if fsm.states.is_empty() || fsm.states.contains_key(&t.to) {
                continue;
            }
            if flagged.insert((t.signal.clone(), t.to)) {
                checked = checked.degraded(
                    HwdbgError::warning(
                        ErrorCode::DegradedOutput,
                        format!(
                            "FSM `{}` entered unlabeled state {} at cycle {}; the \
                             register may be corrupted or forced",
                            t.signal, t.to, t.cycle
                        ),
                    )
                    .with_signal(&t.signal),
                );
            }
        }
        checked.value = transitions;
        checked
    }

    /// Accumulates the number of observed state transitions into the
    /// observability registry.
    pub fn observe(
        info: &FsmInstrumented,
        sim: &Simulator,
        counters: &mut hwdbg_obs::SimCounters,
    ) {
        counters.fsm_transitions += Self::trace(info, sim).len() as u64;
    }
}

/// Facts accumulated about each assigned signal during the scan.
#[derive(Debug, Default)]
struct SignalFacts {
    clocked_assigns: usize,
    conditional_assigns: usize,
    nonconst_assigns: usize,
    const_values: BTreeSet<u64>,
    in_conditions: bool,
    arithmetic: bool,
    bit_selected: bool,
}

/// Whether an expression is constant with respect to the design's
/// parameters, and its value if so.
fn const_value(e: &Expr, design: &Design) -> Option<Bits> {
    hwdbg_dataflow::eval_const(e, &design.consts).ok()
}

/// `state <= state` (hold) and ternaries over constants also count as
/// constant-only assignments for the purpose of rule (1).
fn rhs_const_values(e: &Expr, lhs: &str, design: &Design, vals: &mut BTreeSet<u64>) -> bool {
    if let Expr::Ident(n) = e {
        if n == lhs {
            return true; // self-hold
        }
    }
    if let Expr::Ternary(_, t, f) = e {
        return rhs_const_values(t, lhs, design, vals) && rhs_const_values(f, lhs, design, vals);
    }
    match const_value(e, design) {
        Some(v) => {
            vals.insert(v.to_u64());
            true
        }
        None => false,
    }
}

fn note_condition_idents(e: &Expr, facts: &mut BTreeMap<String, SignalFacts>) {
    for n in e.idents() {
        facts.entry(n.to_owned()).or_default().in_conditions = true;
    }
}

fn note_expr_usage(e: &Expr, facts: &mut BTreeMap<String, SignalFacts>) {
    match e {
        Expr::Binary(op, l, r) => {
            if matches!(
                op,
                hwdbg_rtl::BinaryOp::Add
                    | hwdbg_rtl::BinaryOp::Sub
                    | hwdbg_rtl::BinaryOp::Mul
                    | hwdbg_rtl::BinaryOp::Div
                    | hwdbg_rtl::BinaryOp::Mod
            ) {
                for n in l.idents().into_iter().chain(r.idents()) {
                    facts.entry(n.to_owned()).or_default().arithmetic = true;
                }
            }
            note_expr_usage(l, facts);
            note_expr_usage(r, facts);
        }
        Expr::Index(n, i) => {
            facts.entry(n.clone()).or_default().bit_selected = true;
            note_expr_usage(i, facts);
        }
        Expr::Range(n, a, b) => {
            facts.entry(n.clone()).or_default().bit_selected = true;
            note_expr_usage(a, facts);
            note_expr_usage(b, facts);
        }
        Expr::Unary(_, inner) | Expr::WidthCast(_, inner) | Expr::SignCast(_, inner) => {
            note_expr_usage(inner, facts)
        }
        Expr::Ternary(c, t, f) => {
            note_expr_usage(c, facts);
            note_expr_usage(t, facts);
            note_expr_usage(f, facts);
        }
        Expr::Concat(parts) => {
            for p in parts {
                note_expr_usage(p, facts);
            }
        }
        Expr::Repeat(a, b) => {
            note_expr_usage(a, facts);
            note_expr_usage(b, facts);
        }
        Expr::Literal { .. } | Expr::Ident(_) => {}
    }
}

/// Records the facts one statement contributes on its own, under `path`;
/// nested statements are the walker's. An assignment is conditional when
/// an `if` or `case` guards it (a `for` loop alone does not).
fn note_stmt(
    path: &[Guard<'_>],
    stmt: &Stmt,
    design: &Design,
    facts: &mut BTreeMap<String, SignalFacts>,
    clocked: bool,
) {
    match stmt {
        Stmt::If { cond, .. } => {
            note_condition_idents(cond, facts);
            note_expr_usage(cond, facts);
        }
        Stmt::Case { expr, arms, .. } => {
            note_condition_idents(expr, facts);
            note_expr_usage(expr, facts);
            for l in arms.iter().flat_map(|arm| &arm.labels) {
                note_expr_usage(l, facts);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            note_expr_usage(rhs, facts);
            match lhs {
                LValue::Id(name) => {
                    let mut vals = BTreeSet::new();
                    let all_const = rhs_const_values(rhs, name, design, &mut vals);
                    let f = facts.entry(name.clone()).or_default();
                    if clocked {
                        f.clocked_assigns += 1;
                    }
                    if path.iter().any(|g| !matches!(g, Guard::Loop(_))) {
                        f.conditional_assigns += 1;
                    }
                    if all_const {
                        f.const_values.extend(vals);
                    } else {
                        f.nonconst_assigns += 1;
                    }
                }
                LValue::Index(name, _) | LValue::Range(name, _, _) => {
                    facts.entry(name.clone()).or_default().bit_selected = true;
                }
                LValue::Concat(_) => {
                    for n in lhs.target_names() {
                        facts.entry(n.to_owned()).or_default().bit_selected = true;
                    }
                }
            }
        }
        Stmt::Block(_) | Stmt::For { .. } | Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => {}
    }
}

/// The design's constants grouped by value, each group in
/// `design.consts` (name) order. Built once per detection, so recovering
/// the state names of an FSM looks up its values instead of scanning every
/// constant.
struct ConstIndex<'d> {
    by_value: BTreeMap<u64, Vec<(&'d str, &'d Bits)>>,
}

impl<'d> ConstIndex<'d> {
    fn new(design: &'d Design) -> Self {
        let mut by_value: BTreeMap<u64, Vec<(&str, &Bits)>> = BTreeMap::new();
        for (name, v) in &design.consts {
            by_value.entry(v.to_u64()).or_default().push((name, v));
        }
        ConstIndex { by_value }
    }

    /// Maps constant state values back to localparam names of matching
    /// value (every constant that fits `width` when `values` is empty). On
    /// collisions (two localparams with the same value), prefers the name
    /// sharing the longest case-insensitive prefix with the FSM signal's
    /// name, then the shorter name, then the first in name order, so
    /// `wr_state` resolves 1 to `WR_DATA` rather than `RD_DATA`.
    fn state_names(
        &self,
        width: u32,
        values: &BTreeSet<u64>,
        signal: &str,
    ) -> BTreeMap<u64, String> {
        let rank = |name: &str| {
            let affinity = name
                .bytes()
                .zip(signal.bytes())
                .take_while(|(x, y)| x.eq_ignore_ascii_case(y))
                .count();
            (affinity, std::cmp::Reverse(name.len()))
        };
        let mut out = BTreeMap::new();
        let mut name_group = |val: u64, group: &[(&str, &Bits)]| {
            let mut best: Option<&str> = None;
            for &(name, v) in group {
                if v.resize(width.max(1)).to_u64() == val
                    && best.is_none_or(|cur| rank(name) > rank(cur))
                {
                    best = Some(name);
                }
            }
            if let Some(name) = best {
                out.insert(val, name.to_owned());
            }
        };
        if values.is_empty() {
            for (&val, group) in &self.by_value {
                name_group(val, group);
            }
        } else {
            for &val in values {
                if let Some(group) = self.by_value.get(&val) {
                    name_group(val, group);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, NoBlackboxes};
    use hwdbg_sim::{NoModels, SimConfig};

    const FSM_SRC: &str = "module m(input clk, input request_valid, input work_done);
        localparam IDLE = 2'd0;
        localparam WORK = 2'd1;
        localparam FINISH = 2'd2;
        reg [1:0] state;
        reg [7:0] counter;
        always @(posedge clk) begin
            case (state)
                IDLE: if (request_valid) state <= WORK;
                WORK: if (work_done) state <= FINISH;
                FINISH: state <= IDLE;
                default: state <= IDLE;
            endcase
            counter <= counter + 8'd1;
        end
    endmodule";

    fn design() -> Design {
        elaborate(&hwdbg_rtl::parse(FSM_SRC).unwrap(), "m", &NoBlackboxes).unwrap()
    }

    #[test]
    fn detects_paper_listing1_fsm() {
        let fsms = FsmMonitor::detect(&design());
        assert_eq!(fsms.len(), 1);
        let f = &fsms[0];
        assert_eq!(f.signal, "state");
        assert_eq!(f.state_name(0), "IDLE");
        assert_eq!(f.state_name(1), "WORK");
        assert_eq!(f.state_name(2), "FINISH");
    }

    #[test]
    fn counter_is_not_an_fsm() {
        let fsms = FsmMonitor::detect(&design());
        assert!(!fsms.iter().any(|f| f.signal == "counter"));
    }

    #[test]
    fn counter_encoded_fsm_is_a_false_negative_until_patched() {
        // `phase <= phase + 1` — a real FSM the heuristics miss (arith).
        let src = "module m(input clk, input go, output reg [1:0] phase);
            always @(posedge clk) if (go) phase <= phase + 2'd1;
        endmodule";
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
        assert!(FsmMonitor::detect(&d).is_empty());
        let mut mon = FsmMonitor::new();
        mon.add_signal("phase");
        let patched = mon.detect_with_patches(&d);
        assert_eq!(patched.len(), 1);
        assert_eq!(patched[0].signal, "phase");
    }

    #[test]
    fn one_bit_flag_is_not_an_fsm() {
        let src = "module m(input clk, input set, input clr, output reg flag, output reg [3:0] q);
            always @(posedge clk) begin
                if (set) flag <= 1'b1;
                else if (clr) flag <= 1'b0;
                if (flag) q <= 4'd1;
            end
        endmodule";
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
        assert!(FsmMonitor::detect(&d).is_empty());
    }

    #[test]
    fn instrument_and_trace_transitions() {
        let d = design();
        let info = FsmMonitor::new().instrument(&d).unwrap();
        assert!(info.generated_lines >= 4);
        let d2 = hwdbg_dataflow::resolve(info.module.clone(), &NoBlackboxes).unwrap();
        let mut sim = hwdbg_sim::Simulator::new(d2, &NoModels, SimConfig::default()).unwrap();
        sim.poke_u64("request_valid", 1).unwrap();
        sim.step("clk").unwrap(); // IDLE -> WORK
        sim.poke_u64("request_valid", 0).unwrap();
        sim.step("clk").unwrap(); // transition visible to monitor
        sim.poke_u64("work_done", 1).unwrap();
        sim.step("clk").unwrap(); // WORK -> FINISH
        sim.poke_u64("work_done", 0).unwrap();
        sim.step("clk").unwrap(); // FINISH -> IDLE
        sim.step("clk").unwrap();
        sim.step("clk").unwrap();
        let trace = FsmMonitor::trace(&info, &sim);
        let names: Vec<_> = trace
            .iter()
            .map(|t| format!("{}->{}", t.from_name, t.to_name))
            .collect();
        assert_eq!(
            names,
            vec!["IDLE->WORK", "WORK->FINISH", "FINISH->IDLE"],
            "{trace:?}"
        );
    }

    #[test]
    fn relaxed_heuristics_trade_fn_for_fp() {
        // A one-hot ring FSM: missed by default (rules 1 and 5), found when
        // both are relaxed — along with any shift register, the FP risk.
        let src = "module m(input clk, input adv, output reg [3:0] phase, output reg hit);
            always @(posedge clk) begin
                if (adv) phase <= {phase[2:0], phase[3]};
                if (phase[2]) hit <= 1'b1;
            end
        endmodule";
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
        assert!(FsmMonitor::detect(&d).is_empty());
        let relaxed = FsmDetectConfig {
            require_constant_assignments: false,
            reject_bit_select: false,
            ..FsmDetectConfig::default()
        };
        let found = FsmMonitor::detect_with_config(&d, &relaxed);
        assert!(found.iter().any(|f| f.signal == "phase"), "{found:?}");
    }

    #[test]
    fn state_names_prefer_shared_prefix_then_shorter_name() {
        // Both instances declare the same localparams, so after flattening
        // every state value has candidates from `rd__` and `wr__`, and
        // value 2 has two names per instance (`STEP_DONE` sorts first).
        let src = "module fsm(input clk, input go, output reg [1:0] state);
            localparam IDLE = 2'd0;
            localparam RUN = 2'd1;
            localparam STEP_DONE = 2'd2;
            localparam STOP = 2'd2;
            always @(posedge clk)
                case (state)
                    IDLE: if (go) state <= RUN;
                    RUN: if (go) state <= STOP;
                    default: state <= IDLE;
                endcase
        endmodule
        module top(input clk, input go, output [1:0] a, output [1:0] b);
            fsm rd (.clk(clk), .go(go), .state(a));
            fsm wr (.clk(clk), .go(go), .state(b));
        endmodule";
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "top", &NoBlackboxes).unwrap();
        let fsms = FsmMonitor::detect(&d);
        let names = |signal: &str| -> Vec<String> {
            let f = fsms.iter().find(|f| f.signal == signal).unwrap();
            (0..3).map(|v| f.state_name(v)).collect()
        };
        // The longest shared prefix wins, ignoring case: `wr__STOP` beats
        // `rd__STOP` for `wr__state` although it sorts later. Among equal
        // prefixes (`STOP` and `STEP_DONE` both share `__st`), the shorter
        // name wins.
        assert_eq!(names("rd__state"), ["rd__IDLE", "rd__RUN", "rd__STOP"]);
        assert_eq!(names("wr__state"), ["wr__IDLE", "wr__RUN", "wr__STOP"]);
    }

    #[test]
    fn filter_signal_removes_detection() {
        let d = design();
        let mut mon = FsmMonitor::new();
        mon.filter_signal("state");
        assert!(mon.detect_with_patches(&d).is_empty());
    }
}
