//! Dependency Monitor: provenance tracking for a variable (§4.3).
//!
//! Given a variable `v` and a window of `k` cycles, the static half walks
//! the propagation-relation table backwards to find every register that can
//! influence `v` within `k` cycles (combinational hops are free, clocked
//! hops cost one cycle, and blackbox IPs are traversed through their IP
//! models). The dynamic half logs every update to each register in the
//! chain so a developer can trace an incorrect output back to its origin.
//!
//! A partially assigned variable is split by bit range
//! ([`DependencyMonitor::partial_assignments`]). Each range carries the
//! path condition of its assignment from the shared guard walker
//! ([`hwdbg_dataflow::guard`]), so it reads exactly as the condition of
//! the propagation relations the same assignment yields.

use crate::{clock_map, generated_lines, ToolError};
use hwdbg_dataflow::{eval_const, guard, Design, DepKind, PropGraph};
use hwdbg_rtl::{Expr, Item, LValue, Module, NetDecl, NetKind, Span, Stmt};
use hwdbg_sim::{LogRecord, Simulator};
use std::collections::BTreeMap;

/// The dependency chain of a variable.
#[derive(Debug, Clone)]
pub struct DepChain {
    /// The variable under investigation.
    pub target: String,
    /// Cycle window used.
    pub k: u32,
    /// Every signal that can influence the target within `k` cycles,
    /// mapped to its minimum cycle distance.
    pub deps: BTreeMap<String, u32>,
}

impl DepChain {
    /// The clocked registers in the chain (the ones worth logging).
    pub fn registers<'d>(&self, design: &'d Design) -> Vec<&'d hwdbg_dataflow::SigInfo> {
        self.deps
            .keys()
            .filter_map(|n| design.signals.get(n))
            .filter(|s| s.is_state() && s.mem_depth.is_none())
            .collect()
    }
}

/// One observed register update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepUpdate {
    /// Register name.
    pub signal: String,
    /// Cycle at which the new value became visible.
    pub cycle: u64,
    /// New value (decimal).
    pub value: u64,
}

/// Result of Dependency Monitor instrumentation.
#[derive(Debug, Clone)]
pub struct DepInstrumented {
    /// The instrumented module.
    pub module: Module,
    /// The analyzed chain.
    pub chain: DepChain,
    /// Registers actually instrumented.
    pub monitored: Vec<String>,
    /// Lines of Verilog generated.
    pub generated_lines: usize,
}

/// One partial (bit-range) assignment to a variable — §4.3's
/// "logically splitting a partially assigned variable".
#[derive(Debug, Clone)]
pub struct PartialAssign {
    /// Low bit of the assigned range.
    pub lo: u32,
    /// High bit of the assigned range.
    pub hi: u32,
    /// Signals whose values feed this range.
    pub srcs: Vec<String>,
    /// Path condition of the assignment, rendered by [`guard::cond`] as
    /// for every other tool: the enclosing `if` conditions, and for a
    /// `case` arm every earlier arm negated followed by its own match (a
    /// `default` negates every arm). It prints exactly as the condition of
    /// the [`PropGraph`] relations the same assignment produces.
    pub cond: Expr,
}

/// The Dependency Monitor tool.
#[derive(Debug, Clone, Copy, Default)]
pub struct DependencyMonitor;

impl DependencyMonitor {
    /// Computes the dependency chain of `target` within `k` cycles.
    /// `kinds` selects data and/or control dependencies (the paper's
    /// default analyzes both).
    ///
    /// # Errors
    ///
    /// [`ToolError::UnknownSignal`] if `target` does not exist.
    pub fn analyze(
        design: &Design,
        graph: &PropGraph,
        target: &str,
        k: u32,
        kinds: &[DepKind],
    ) -> Result<DepChain, ToolError> {
        if !design.signals.contains_key(target) {
            return Err(ToolError::UnknownSignal(target.to_owned()));
        }
        Ok(DepChain {
            target: target.to_owned(),
            k,
            deps: graph.back_slice(target, k, kinds),
        })
    }

    /// Instruments the design to log every update to the chain's
    /// registers (memories are tracked at whole-array granularity by the
    /// underlying analysis but not logged, matching §4.3's special-cased
    /// variable-indexed arrays).
    ///
    /// # Errors
    ///
    /// [`ToolError::NothingToInstrument`] when the chain has no registers.
    pub fn instrument(design: &Design, chain: &DepChain) -> Result<DepInstrumented, ToolError> {
        let regs = chain.registers(design);
        if regs.is_empty() {
            return Err(ToolError::NothingToInstrument(format!(
                "no registers within {} cycles of `{}`",
                chain.k, chain.target
            )));
        }
        let (clocks, primary) = clock_map(design);
        let mut module = design.flat.clone();
        let mut new_items = Vec::new();
        let mut monitored = Vec::new();
        for sig in regs {
            let clock = clocks
                .get(&sig.name)
                .cloned()
                .or_else(|| primary.clone())
                .ok_or(ToolError::NoClock)?;
            let prev = format!("__depmon_prev_{}", sig.name);
            new_items.push(Item::Net(NetDecl::vector(
                NetKind::Reg,
                prev.clone(),
                sig.width,
            )));
            let body = Stmt::Block(vec![
                Stmt::nonblocking(LValue::Id(prev.clone()), Expr::ident(sig.name.clone())),
                Stmt::if_then(
                    Expr::Binary(
                        hwdbg_rtl::BinaryOp::Ne,
                        Box::new(Expr::ident(prev.clone())),
                        Box::new(Expr::ident(sig.name.clone())),
                    ),
                    Stmt::Display {
                        format: format!("DEPMON {} %0d", sig.name),
                        args: vec![Expr::ident(sig.name.clone())],
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
            monitored.push(sig.name.clone());
        }
        let lines = generated_lines(&new_items);
        module.items.extend(new_items);
        Ok(DepInstrumented {
            module,
            chain: chain.clone(),
            monitored,
            generated_lines: lines,
        })
    }

    /// Splits a partially assigned variable into its per-range
    /// provenance (§4.3): every `signal[hi:lo] <= rhs` in the design,
    /// with the bit range, the contributing source signals, and the path
    /// condition. An empty result means the variable is only ever
    /// assigned whole.
    ///
    /// Byte-level provenance is what surfaces layout bugs: for the
    /// endianness mismatch of §3.2.4, the low byte of the response is
    /// sourced from the *high* byte of the shift register.
    pub fn partial_assignments(design: &Design, signal: &str) -> Vec<PartialAssign> {
        let mut out = Vec::new();
        let bodies = design.procs.iter().map(|p| &p.body);
        for body in bodies.chain(design.combs.iter().map(|c| &c.body)) {
            guard::walk(body, &mut Vec::new(), &mut |path, stmt| {
                let Stmt::Assign {
                    lhs: LValue::Range(name, msb, lsb),
                    rhs,
                    ..
                } = stmt
                else {
                    return;
                };
                if name != signal {
                    return;
                }
                let bound = |e| eval_const(e, &design.consts).map(|b| b.to_u64() as u32);
                if let (Ok(hi), Ok(lo)) = (bound(msb), bound(lsb)) {
                    out.push(PartialAssign {
                        lo,
                        hi,
                        srcs: rhs.idents().into_iter().map(str::to_owned).collect(),
                        cond: guard::cond(path),
                    });
                }
            });
        }
        out.sort_by_key(|pa| pa.lo);
        out
    }

    /// Parses the update trace out of captured logs.
    pub fn reconstruct(logs: &[LogRecord]) -> Vec<DepUpdate> {
        let mut out = Vec::new();
        for rec in logs {
            let Some(rest) = rec.message.strip_prefix("DEPMON ") else {
                continue;
            };
            let mut parts = rest.split_whitespace();
            let (Some(sig), Some(val)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Ok(value) = val.parse::<u64>() else {
                continue;
            };
            out.push(DepUpdate {
                signal: sig.to_owned(),
                cycle: rec.cycle,
                value,
            });
        }
        out
    }

    /// Convenience: reconstruct directly from a simulator.
    pub fn trace(sim: &Simulator) -> Vec<DepUpdate> {
        Self::reconstruct(sim.logs())
    }

    /// Accumulates the number of observed dependency-chain updates into
    /// the observability registry.
    pub fn observe(sim: &Simulator, counters: &mut hwdbg_obs::SimCounters) {
        counters.dep_updates += Self::trace(sim).len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, NoBlackboxes};
    use hwdbg_rtl::print_expr;
    use hwdbg_sim::{NoModels, SimConfig};

    const SRC: &str = "module m(input clk, input [7:0] d, input en, output reg [7:0] out);
        reg [7:0] stage1;
        reg [7:0] stage2;
        reg [7:0] unrelated;
        wire [7:0] bump;
        assign bump = stage1 + 8'd1;
        always @(posedge clk) begin
            if (en) stage1 <= d;
            stage2 <= bump;
            out <= stage2;
            unrelated <= unrelated + 8'd1;
        end
    endmodule";

    fn setup() -> (Design, PropGraph) {
        let d = elaborate(&hwdbg_rtl::parse(SRC).unwrap(), "m", &NoBlackboxes).unwrap();
        let g = PropGraph::build(&d, &NoBlackboxes).unwrap();
        (d, g)
    }

    #[test]
    fn chain_respects_cycle_window() {
        let (d, g) = setup();
        let chain2 =
            DependencyMonitor::analyze(&d, &g, "out", 2, &[DepKind::Data]).unwrap();
        assert!(chain2.deps.contains_key("stage1"));
        assert!(!chain2.deps.contains_key("d"), "{:?}", chain2.deps);
        let chain3 =
            DependencyMonitor::analyze(&d, &g, "out", 3, &[DepKind::Data]).unwrap();
        assert!(chain3.deps.contains_key("d"));
        assert!(!chain3.deps.contains_key("unrelated"));
    }

    #[test]
    fn control_deps_included_when_asked() {
        let (d, g) = setup();
        let data_only =
            DependencyMonitor::analyze(&d, &g, "out", 3, &[DepKind::Data]).unwrap();
        assert!(!data_only.deps.contains_key("en"));
        let both = DependencyMonitor::analyze(
            &d,
            &g,
            "out",
            3,
            &[DepKind::Data, DepKind::Control],
        )
        .unwrap();
        assert!(both.deps.contains_key("en"));
    }

    #[test]
    fn instrument_logs_chain_updates_only() {
        let (d, g) = setup();
        let chain =
            DependencyMonitor::analyze(&d, &g, "out", 3, &[DepKind::Data]).unwrap();
        let info = DependencyMonitor::instrument(&d, &chain).unwrap();
        assert!(info.monitored.contains(&"stage1".to_string()));
        assert!(!info.monitored.contains(&"unrelated".to_string()));
        let d2 = hwdbg_dataflow::resolve(info.module.clone(), &NoBlackboxes).unwrap();
        let mut sim = hwdbg_sim::Simulator::new(d2, &NoModels, SimConfig::default()).unwrap();
        sim.poke_u64("en", 1).unwrap();
        sim.poke_u64("d", 9).unwrap();
        sim.run("clk", 5).unwrap();
        let updates = DependencyMonitor::trace(&sim);
        assert!(updates.iter().any(|u| u.signal == "stage1" && u.value == 9));
        assert!(updates.iter().any(|u| u.signal == "out" && u.value == 10));
        assert!(!updates.iter().any(|u| u.signal == "unrelated"));
    }

    /// A range assigned in a later `case` arm or the `default` holds under
    /// every earlier arm negated, exactly as its propagation relations do.
    #[test]
    fn partial_conditions_match_the_relation_conditions() {
        let src = "module m(input clk, input en, input [1:0] s, input [7:0] b, input [7:0] c,
                            output reg [15:0] r);
            always @(posedge clk)
                if (en) case (s)
                    2'd0: r <= 16'd0;
                    2'd1: r[7:0] <= b;
                    default: r[15:8] <= c;
                endcase
        endmodule";
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
        let g = PropGraph::build(&d, &NoBlackboxes).unwrap();
        let parts = DependencyMonitor::partial_assignments(&d, "r");
        let got: Vec<_> = parts
            .iter()
            .map(|pa| (pa.lo, pa.hi, print_expr(&pa.cond)))
            .collect();
        assert_eq!(
            got,
            [
                (0, 7, "(en && (!(s == 2'h0))) && (s == 2'h1)".to_owned()),
                (8, 15, "(en && (!(s == 2'h0))) && (!(s == 2'h1))".to_owned()),
            ]
        );
        for pa in &parts {
            let [src] = &pa.srcs[..] else {
                panic!("one source per range: {:?}", pa.srcs);
            };
            let rel = g
                .incoming("r")
                .find(|r| r.kind == DepKind::Data && g.name(r.src) == src)
                .unwrap();
            assert_eq!(print_expr(&pa.cond), print_expr(&rel.cond), "{src}");
        }
    }

    #[test]
    fn unknown_target_rejected() {
        let (d, g) = setup();
        assert!(matches!(
            DependencyMonitor::analyze(&d, &g, "ghost", 2, &[DepKind::Data]),
            Err(ToolError::UnknownSignal(_))
        ));
    }
}
