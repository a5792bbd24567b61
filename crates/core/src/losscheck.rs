//! LossCheck: precise data-loss localization (§4.5).
//!
//! Given a `Source` register, a `Sink` register, and the Source's valid
//! signal, LossCheck statically finds every register on a data-propagation
//! path Source → Sink and instruments each register `R` with shadow state:
//!
//! * `A(R)` — R was assigned this cycle (OR of incoming relation
//!   conditions);
//! * `V(R)` — R was assigned a *valid* value (incoming condition AND the
//!   producing register currently holds source-derived valid data, tracked
//!   by an auxiliary holding register `H(R)`);
//! * `P(R)` — R's value propagated onward (OR of outgoing conditions);
//! * `N(R)` — "needs propagation", Eq. 1:
//!   `N_k = V_{k-1} ∨ (N_{k-1} ∧ ¬P_{k-1})`.
//!
//! Potential loss fires per Eq. 2: `A ∧ ¬P ∧ N` — a register carrying
//! unpropagated valid data got overwritten. Intentional drops are filtered
//! by running the design's passing test case first (§4.5.3): registers
//! that also fire there are suppressed, which reproduces both the paper's
//! D1 false positive and its D11 false negative.

use crate::{clock_map, generated_lines, ToolError};
use hwdbg_dataflow::guard::{self, Guard};
use hwdbg_dataflow::{Design, DepKind, PropGraph, SigKind};
use hwdbg_rtl::{BinaryOp, Expr, Item, LValue, Module, NetDecl, NetKind, Span, Stmt, UnaryOp};
use hwdbg_sim::LogRecord;
use std::collections::BTreeSet;

/// LossCheck configuration: where data enters, where it must come out,
/// and which signal qualifies the source data as valid.
#[derive(Debug, Clone)]
pub struct LossCheckConfig {
    /// Source register/input (flat name).
    pub source: String,
    /// Sink register/output (flat name).
    pub sink: String,
    /// Valid signal accompanying the source (§2.3 valid interface).
    pub source_valid: String,
}

/// Result of LossCheck instrumentation.
#[derive(Debug, Clone)]
pub struct LossCheckInstrumented {
    /// The instrumented module.
    pub module: Module,
    /// Registers being checked for loss.
    pub tracked: Vec<String>,
    /// The full propagation sequence Source → Sink.
    pub sequence: Vec<String>,
    /// Lines of Verilog generated (paper: 522–19,462 for its designs).
    pub generated_lines: usize,
    /// The configuration used.
    pub config: LossCheckConfig,
}

/// The LossCheck tool.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossCheck;

impl LossCheck {
    /// Instruments `design` with loss-detection shadow logic for every
    /// register on a propagation path from the configured source to sink.
    ///
    /// # Errors
    ///
    /// * [`ToolError::UnknownSignal`] for unknown source/sink/valid names;
    /// * [`ToolError::NoPath`] when no data path connects source to sink;
    /// * [`ToolError::NothingToInstrument`] when the path contains no
    ///   intermediate register to check.
    pub fn instrument(
        design: &Design,
        graph: &PropGraph,
        cfg: &LossCheckConfig,
    ) -> Result<LossCheckInstrumented, ToolError> {
        for name in [&cfg.source, &cfg.sink, &cfg.source_valid] {
            if !design.signals.contains_key(name) {
                return Err(ToolError::UnknownSignal(name.clone()));
            }
        }
        let seq = graph.propagation_sequence(&cfg.source, &cfg.sink);
        if !seq.contains(&cfg.sink) || !seq.contains(&cfg.source) {
            return Err(ToolError::NoPath {
                source: cfg.source.clone(),
                sink: cfg.sink.clone(),
            });
        }
        // Track every state-holding element strictly between source and
        // sink (the endpoints themselves are where data is defined to
        // arrive/depart, not where it can be lost).
        let tracked: Vec<String> = seq
            .iter()
            .filter(|n| **n != cfg.source && **n != cfg.sink)
            .filter(|n| design.signals.get(*n).is_some_and(|s| s.is_state()))
            .cloned()
            .collect();
        if tracked.is_empty() {
            return Err(ToolError::NothingToInstrument(format!(
                "no intermediate registers between `{}` and `{}`",
                cfg.source, cfg.sink
            )));
        }

        let (clocks, primary) = clock_map(design);
        let mut module = design.flat.clone();
        let mut new_items: Vec<Item> = Vec::new();

        // Combinational validity wires for non-register members of the
        // sequence (wires forward validity in the same cycle).
        let comb_members: Vec<String> = seq
            .iter()
            .filter(|n| {
                design
                    .signals
                    .get(*n)
                    .is_some_and(|s| matches!(s.kind, SigKind::Comb | SigKind::Output))
                    && **n != cfg.source
                    && !tracked.contains(n)
            })
            .cloned()
            .collect();
        let validity_of = |src: &str| -> Option<Expr> {
            if src == cfg.source {
                Some(Expr::ident(cfg.source_valid.clone()))
            } else if tracked.contains(&src.to_owned()) {
                Some(Expr::ident(h_reg(src)))
            } else if comb_members.contains(&src.to_owned()) {
                Some(Expr::ident(h_wire(src)))
            } else {
                None // not derived from the source: invalid
            }
        };
        // Outputs of stateful blackbox IPs (FIFOs, RAMs) *hold* validity:
        // once source-derived valid data has entered the IP, its output is
        // treated as valid-carrying from then on (sticky), matching the
        // one-cycle-latency port relations of the IP models.
        let bb_driven: std::collections::BTreeSet<String> = design
            .blackboxes
            .iter()
            .flat_map(|b| b.out_conns.values())
            .flat_map(|lv| lv.target_names().into_iter().map(str::to_owned))
            .collect();
        for w in &comb_members {
            let terms = graph
                .incoming(w)
                .filter(|r| r.kind == DepKind::Data)
                .filter_map(|r| {
                    validity_of(graph.name(r.src)).map(|h| {
                        Expr::Binary(
                            BinaryOp::LogAnd,
                            Box::new(to_bool(r.cond.as_ref().clone(), design)),
                            Box::new(h),
                        )
                    })
                })
                .collect::<Vec<_>>();
            if bb_driven.contains(w) {
                let clock = primary.clone().ok_or(ToolError::NoClock)?;
                new_items.push(Item::Net(NetDecl::scalar(NetKind::Reg, h_wire(w))));
                new_items.push(Item::Always {
                    event: hwdbg_rtl::EventControl::Edges(vec![hwdbg_rtl::Edge {
                        posedge: true,
                        signal: clock,
                    }]),
                    body: Stmt::nonblocking(
                        LValue::Id(h_wire(w)),
                        Expr::or(Expr::any(terms), Expr::ident(h_wire(w))),
                    ),
                    span: Span::synthetic(),
                });
            } else {
                new_items.push(Item::Net(NetDecl::scalar(NetKind::Wire, h_wire(w))));
                new_items.push(Item::Assign {
                    lhs: LValue::Id(h_wire(w)),
                    rhs: Expr::any(terms),
                    span: Span::synthetic(),
                });
            }
        }

        // Memories are tracked with per-slot shadow bits (see
        // `instrument_memory`); plain registers with the scalar shadow
        // logic below.
        let (mem_tracked, reg_tracked): (Vec<String>, Vec<String>) = tracked
            .iter()
            .cloned()
            .partition(|n| design.signals.get(n).is_some_and(|s| s.mem_depth.is_some()));
        for m in &mem_tracked {
            let clock = clocks
                .get(m)
                .cloned()
                .or_else(|| primary.clone())
                .ok_or(ToolError::NoClock)?;
            instrument_memory(design, m, &clock, &validity_of, &mut new_items);
        }

        // Shadow logic per tracked register, mirroring the generated code
        // in §4.5.2 of the paper.
        for r in &reg_tracked {
            let clock = clocks
                .get(r)
                .cloned()
                .or_else(|| primary.clone())
                .ok_or(ToolError::NoClock)?;

            let a_now: Vec<Expr> = graph
                .incoming(r)
                .filter(|rel| rel.kind == DepKind::Data)
                .map(|rel| to_bool(rel.cond.as_ref().clone(), design))
                .collect();
            let v_now: Vec<Expr> = graph
                .incoming(r)
                .filter(|rel| rel.kind == DepKind::Data)
                .filter_map(|rel| {
                    validity_of(graph.name(rel.src)).map(|h| {
                        Expr::Binary(
                            BinaryOp::LogAnd,
                            Box::new(to_bool(rel.cond.as_ref().clone(), design)),
                            Box::new(h),
                        )
                    })
                })
                .collect();
            let p_now: Vec<Expr> = graph
                .outgoing(r)
                .filter(|rel| rel.kind == DepKind::Data)
                .map(|rel| to_bool(rel.cond.as_ref().clone(), design))
                .collect();

            for (name, expr) in [
                (aw(r), Expr::any(a_now)),
                (vw(r), Expr::any(v_now)),
                (pw(r), Expr::any(p_now)),
            ] {
                new_items.push(Item::Net(NetDecl::scalar(NetKind::Wire, name.clone())));
                new_items.push(Item::Assign {
                    lhs: LValue::Id(name),
                    rhs: expr,
                    span: Span::synthetic(),
                });
            }
            for name in [nr(r), h_reg(r)] {
                new_items.push(Item::Net(NetDecl::scalar(NetKind::Reg, name)));
            }

            // The paper's listing registers A/V/P before checking, which
            // delays the whole pipeline by a cycle and misses an overwrite
            // landing one cycle after the valid assignment. We evaluate
            // Eqs. 1–2 with the current-cycle status wires instead:
            //
            // always @(posedge clk) begin
            //   __lc_H_r <= __lc_a_r ? __lc_v_r : __lc_H_r;
            //   __lc_N_r <= __lc_v_r | (__lc_N_r & ~__lc_p_r);      // Eq. 1
            //   if (__lc_a_r & ~__lc_p_r & __lc_N_r)                // Eq. 2
            //     $display("LOSSCHECK r");
            // end
            let body = Stmt::Block(vec![
                Stmt::nonblocking(
                    LValue::Id(h_reg(r)),
                    Expr::Ternary(
                        Box::new(Expr::ident(aw(r))),
                        Box::new(Expr::ident(vw(r))),
                        Box::new(Expr::ident(h_reg(r))),
                    ),
                ),
                Stmt::nonblocking(
                    LValue::Id(nr(r)),
                    Expr::or(
                        Expr::ident(vw(r)),
                        Expr::and(Expr::ident(nr(r)), Expr::not(Expr::ident(pw(r)))),
                    ),
                ),
                Stmt::if_then(
                    Expr::and(
                        Expr::ident(aw(r)),
                        Expr::and(Expr::not(Expr::ident(pw(r))), Expr::ident(nr(r))),
                    ),
                    Stmt::Display {
                        format: format!("LOSSCHECK {r}"),
                        args: vec![],
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
        Ok(LossCheckInstrumented {
            module,
            tracked,
            sequence: seq.into_iter().collect(),
            generated_lines: lines,
            config: cfg.clone(),
        })
    }

    /// Registers flagged as potential loss sites in a run's logs.
    pub fn reports(logs: &[LogRecord]) -> BTreeSet<String> {
        logs.iter()
            .filter_map(|l| l.message.strip_prefix("LOSSCHECK "))
            .map(|s| s.trim().to_owned())
            .collect()
    }

    /// Accumulates the number of shadow-state loss reports fired during a
    /// run into the observability registry. Unlike [`LossCheck::reports`]
    /// this counts every firing, not the deduplicated register set.
    pub fn observe(logs: &[LogRecord], counters: &mut hwdbg_obs::SimCounters) {
        counters.shadow_updates += logs
            .iter()
            .filter(|l| l.message.starts_with("LOSSCHECK "))
            .count() as u64;
    }

    /// Ground-truth filtering (§4.5.3): suppress registers that also fire
    /// on the design's passing test case — those are intentional drops.
    pub fn filter(
        buggy_reports: &BTreeSet<String>,
        ground_truth_reports: &BTreeSet<String>,
    ) -> BTreeSet<String> {
        buggy_reports
            .difference(ground_truth_reports)
            .cloned()
            .collect()
    }
}

/// Per-memory LossCheck instrumentation. A memory gets a
/// needs-propagation bit per slot plus an explicit bounds check, the
/// AddressSanitizer-style analogue the paper's §7 cites as inspiration:
///
/// * a write whose raw index is `>= depth` is a buffer overflow — the data
///   is dropped (non-power-of-two memories) or lands on a wrong slot
///   (power-of-two truncation), both §3.2.1 outcomes — and is reported;
/// * a write landing on a slot whose shadow bit says "holds unread valid
///   data" is an overwrite loss (Eq. 2 at slot granularity);
/// * reads clear the slot's shadow bit (propagation).
fn instrument_memory(
    design: &Design,
    mem: &str,
    clock: &str,
    validity_of: &dyn Fn(&str) -> Option<Expr>,
    new_items: &mut Vec<Item>,
) {
    let Some(sig) = design.signals.get(mem) else {
        return;
    };
    let Some(depth) = sig.mem_depth else { return };
    let addr_bits = hwdbg_dataflow::clog2(depth);
    let mask = Expr::sized(addr_bits.max(1), (1u64 << addr_bits.min(63)) - 1);
    let ports = scan_memory_ports(design, mem);

    let nvec = format!("__lc_Nv_{mem}");
    new_items.push(Item::Net(NetDecl::vector(
        NetKind::Reg,
        nvec.clone(),
        depth as u32,
    )));
    new_items.push(Item::Net(NetDecl::scalar(NetKind::Reg, h_reg(mem))));

    let masked = |idx: &Expr| Expr::and(idx.clone(), mask.clone());
    let mut stmts: Vec<Stmt> = Vec::new();
    for (cond, idx) in &ports.reads {
        stmts.push(Stmt::if_then(
            to_bool(cond.clone(), design),
            Stmt::nonblocking(
                LValue::Index(nvec.clone(), masked(idx)),
                Expr::sized(1, 0),
            ),
        ));
    }
    for w in &ports.writes {
        let wvalid = {
            let terms: Vec<Expr> = w
                .srcs
                .iter()
                .filter_map(|s| validity_of(s))
                .collect();
            Expr::any(terms)
        };
        let body = Stmt::Block(vec![
            Stmt::If {
                cond: Expr::Binary(
                    BinaryOp::Ge,
                    Box::new(w.idx.clone()),
                    Box::new(Expr::number(depth)),
                ),
                then: Box::new(Stmt::Display {
                    // Out-of-range writes are tagged so ground-truth
                    // filtering can distinguish a genuine overflow from a
                    // legitimate slot update at the same memory.
                    format: format!("LOSSCHECK {mem}!oob"),
                    args: vec![],
                    span: Span::synthetic(),
                }),
                els: Some(Box::new(Stmt::if_then(
                    Expr::and(
                        Expr::Index(nvec.clone(), Box::new(masked(&w.idx))),
                        wvalid.clone(),
                    ),
                    Stmt::Display {
                        format: format!("LOSSCHECK {mem}"),
                        args: vec![],
                        span: Span::synthetic(),
                    },
                ))),
            },
            Stmt::nonblocking(LValue::Index(nvec.clone(), masked(&w.idx)), wvalid.clone()),
            Stmt::nonblocking(
                LValue::Id(h_reg(mem)),
                Expr::Ternary(
                    Box::new(wvalid),
                    Box::new(Expr::sized(1, 1)),
                    Box::new(Expr::ident(h_reg(mem))),
                ),
            ),
        ]);
        stmts.push(Stmt::if_then(to_bool(w.cond.clone(), design), body));
    }
    new_items.push(Item::Always {
        event: hwdbg_rtl::EventControl::Edges(vec![hwdbg_rtl::Edge {
            posedge: true,
            signal: clock.to_owned(),
        }]),
        body: Stmt::Block(stmts),
        span: Span::synthetic(),
    });
}

/// A memory write port discovered in the AST.
struct MemWrite {
    cond: Expr,
    idx: Expr,
    srcs: Vec<String>,
}

/// Read/write ports of a memory, with their path conditions.
struct MemPorts {
    writes: Vec<MemWrite>,
    reads: Vec<(Expr, Expr)>,
}

/// Scans the design for writes `mem[idx] <= rhs` and reads `mem[idx]`.
fn scan_memory_ports(design: &Design, mem: &str) -> MemPorts {
    let mut ports = MemPorts {
        writes: Vec::new(),
        reads: Vec::new(),
    };
    for p in &design.procs {
        guard::walk(&p.body, &mut Vec::new(), &mut |path, stmt| {
            scan_stmt_ports(path, stmt, mem, &mut ports);
        });
    }
    // Combinational reads (e.g. `assign head = mem[rd_ptr];`) observe a
    // slot continuously without consuming it; treating them as propagation
    // would clear the needs-propagation bit every cycle and mask real
    // overwrites, so only clocked reads count as consumption.
    ports
}

/// Records the memory reads and writes one statement makes on its own,
/// under the condition of `path`; nested statements are the walker's.
fn scan_stmt_ports(path: &[Guard<'_>], stmt: &Stmt, mem: &str, ports: &mut MemPorts) {
    match stmt {
        Stmt::If { cond, .. } => scan_expr_reads(cond, path, mem, ports),
        Stmt::Case { expr, .. } => scan_expr_reads(expr, path, mem, ports),
        Stmt::Assign { lhs, rhs, .. } => {
            scan_expr_reads(rhs, path, mem, ports);
            if let LValue::Index(name, idx) = lhs {
                if name == mem {
                    ports.writes.push(MemWrite {
                        cond: guard::cond(path),
                        idx: idx.clone(),
                        srcs: rhs.idents().into_iter().map(|s| s.to_owned()).collect(),
                    });
                }
            }
        }
        Stmt::Display { args, .. } => {
            for a in args {
                scan_expr_reads(a, path, mem, ports);
            }
        }
        Stmt::Block(_) | Stmt::For { .. } | Stmt::Finish | Stmt::Empty => {}
    }
}

fn scan_expr_reads(e: &Expr, path: &[Guard<'_>], mem: &str, ports: &mut MemPorts) {
    match e {
        Expr::Index(name, idx) if name == mem => {
            ports.reads.push((guard::cond(path), (**idx).clone()));
            scan_expr_reads(idx, path, mem, ports);
        }
        Expr::Index(_, idx) => scan_expr_reads(idx, path, mem, ports),
        Expr::Unary(_, i) | Expr::WidthCast(_, i) | Expr::SignCast(_, i) => {
            scan_expr_reads(i, path, mem, ports)
        }
        Expr::Binary(_, a, b) | Expr::Repeat(a, b) => {
            scan_expr_reads(a, path, mem, ports);
            scan_expr_reads(b, path, mem, ports);
        }
        Expr::Ternary(c, t, f) => {
            scan_expr_reads(c, path, mem, ports);
            scan_expr_reads(t, path, mem, ports);
            scan_expr_reads(f, path, mem, ports);
        }
        Expr::Range(_, a, b) => {
            scan_expr_reads(a, path, mem, ports);
            scan_expr_reads(b, path, mem, ports);
        }
        Expr::Concat(parts) => {
            for p in parts {
                scan_expr_reads(p, path, mem, ports);
            }
        }
        Expr::Literal { .. } | Expr::Ident(_) => {}
    }
}

fn aw(r: &str) -> String {
    format!("__lc_a_{r}")
}
fn vw(r: &str) -> String {
    format!("__lc_v_{r}")
}
fn pw(r: &str) -> String {
    format!("__lc_p_{r}")
}
fn nr(r: &str) -> String {
    format!("__lc_N_{r}")
}
fn h_reg(r: &str) -> String {
    format!("__lc_H_{r}")
}
fn h_wire(r: &str) -> String {
    format!("__lc_hw_{r}")
}

fn to_bool(e: Expr, design: &Design) -> Expr {
    match design.expr_width(&e) {
        Some(1) => e,
        _ => Expr::Unary(UnaryOp::RedOr, Box::new(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, NoBlackboxes};
    use hwdbg_sim::{NoModels, SimConfig, Simulator};

    /// The paper's running example (§4.5.1): b's value can be lost when
    /// cond_a shadows cond_b.
    const PAPER_SRC: &str = "module m(input clk, input cond_a, input cond_b,
                input [7:0] a, input [7:0] in, input in_valid,
                output reg [7:0] out);
        reg [7:0] b;
        always @(posedge clk) begin
            if (cond_a) out <= a;
            else if (cond_b) out <= b;
            if (in_valid) b <= in;
        end
    endmodule";

    fn setup(src: &str) -> (Design, PropGraph) {
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
        let g = PropGraph::build(&d, &NoBlackboxes).unwrap();
        (d, g)
    }

    fn instrumented_sim(info: &LossCheckInstrumented) -> Simulator {
        let d = hwdbg_dataflow::resolve(info.module.clone(), &NoBlackboxes).unwrap();
        Simulator::new(d, &NoModels, SimConfig::default()).unwrap()
    }

    fn cfg() -> LossCheckConfig {
        LossCheckConfig {
            source: "in".into(),
            sink: "out".into(),
            source_valid: "in_valid".into(),
        }
    }

    #[test]
    fn tracks_the_intermediate_register() {
        let (d, g) = setup(PAPER_SRC);
        let info = LossCheck::instrument(&d, &g, &cfg()).unwrap();
        assert_eq!(info.tracked, vec!["b".to_string()]);
        assert!(info.generated_lines >= 12, "{}", info.generated_lines);
    }

    #[test]
    fn detects_loss_when_b_is_overwritten_unread() {
        let (d, g) = setup(PAPER_SRC);
        let info = LossCheck::instrument(&d, &g, &cfg()).unwrap();
        let mut sim = instrumented_sim(&info);
        // Valid data enters b, cond_a keeps shadowing cond_b, then b is
        // overwritten: loss.
        sim.poke_u64("in_valid", 1).unwrap();
        sim.poke_u64("in", 11).unwrap();
        sim.poke_u64("cond_a", 1).unwrap();
        sim.step("clk").unwrap();
        sim.poke_u64("in", 22).unwrap(); // overwrites b while N is set
        for _ in 0..4 {
            sim.step("clk").unwrap();
        }
        let reports = LossCheck::reports(sim.logs());
        assert!(reports.contains("b"), "{:?}", sim.logs());
    }

    #[test]
    fn no_loss_when_data_is_consumed() {
        let (d, g) = setup(PAPER_SRC);
        let info = LossCheck::instrument(&d, &g, &cfg()).unwrap();
        let mut sim = instrumented_sim(&info);
        // One valid datum enters b, then cond_b forwards it to out before
        // anything overwrites b: no loss.
        sim.poke_u64("in_valid", 1).unwrap();
        sim.poke_u64("in", 11).unwrap();
        sim.step("clk").unwrap();
        sim.poke_u64("in_valid", 0).unwrap();
        sim.poke_u64("cond_b", 1).unwrap();
        sim.step("clk").unwrap();
        sim.poke_u64("cond_b", 0).unwrap();
        sim.poke_u64("in_valid", 1).unwrap();
        sim.poke_u64("in", 33).unwrap();
        sim.step("clk").unwrap();
        sim.poke_u64("in_valid", 0).unwrap();
        for _ in 0..4 {
            sim.step("clk").unwrap();
        }
        assert_eq!(sim.peek("out").unwrap().to_u64(), 11);
        let reports = LossCheck::reports(sim.logs());
        assert!(reports.is_empty(), "{:?}", sim.logs());
    }

    #[test]
    fn filtering_suppresses_intentional_drops() {
        let mut buggy = BTreeSet::new();
        buggy.insert("real_loss".to_string());
        buggy.insert("checksum_drop".to_string());
        let mut ground = BTreeSet::new();
        ground.insert("checksum_drop".to_string());
        let filtered = LossCheck::filter(&buggy, &ground);
        assert_eq!(filtered.len(), 1);
        assert!(filtered.contains("real_loss"));
    }

    #[test]
    fn rejects_unknown_and_disconnected() {
        let (d, g) = setup(PAPER_SRC);
        let bad = LossCheckConfig {
            source: "ghost".into(),
            ..cfg()
        };
        assert!(matches!(
            LossCheck::instrument(&d, &g, &bad),
            Err(ToolError::UnknownSignal(_))
        ));
        let no_path = LossCheckConfig {
            source: "out".into(),
            sink: "in".into(),
            source_valid: "in_valid".into(),
        };
        assert!(matches!(
            LossCheck::instrument(&d, &g, &no_path),
            Err(ToolError::NoPath { .. }) | Err(ToolError::NothingToInstrument(_))
        ));
    }

    #[test]
    fn memory_overflow_write_is_reported() {
        // A ring buffer whose pointer wraps at 16 instead of 12: writes at
        // 12..15 overflow the non-power-of-two memory (paper §3.2.1).
        let src = "module m(input clk, input [7:0] in, input in_valid,
                            input rd_en, input [3:0] rd_ptr, output reg [7:0] out);
            reg [7:0] buf0 [0:11];
            reg [3:0] wr_ptr;
            always @(posedge clk) begin
                if (in_valid) begin
                    buf0[wr_ptr] <= in;
                    wr_ptr <= wr_ptr + 4'd1;
                end
                if (rd_en) out <= buf0[rd_ptr];
            end
        endmodule";
        let (d, g) = setup(src);
        let info = LossCheck::instrument(&d, &g, &cfg()).unwrap();
        assert!(info.tracked.contains(&"buf0".to_string()));
        let mut sim = instrumented_sim(&info);
        sim.poke_u64("in_valid", 1).unwrap();
        for i in 0..12 {
            sim.poke_u64("in", i).unwrap();
            // Drain as we go so no overwrite loss occurs in range.
            sim.poke_u64("rd_en", 1).unwrap();
            sim.poke_u64("rd_ptr", i).unwrap();
            sim.step("clk").unwrap();
        }
        assert!(
            LossCheck::reports(sim.logs()).is_empty(),
            "in-range writes must not fire: {:?}",
            sim.logs()
        );
        // The 13th write goes to index 12: overflow (tagged `!oob`).
        sim.poke_u64("in", 99).unwrap();
        sim.step("clk").unwrap();
        assert!(LossCheck::reports(sim.logs()).contains("buf0!oob"));
    }

    #[test]
    fn memory_overwrite_of_unread_slot_is_reported() {
        let src = "module m(input clk, input [7:0] in, input in_valid,
                            input [1:0] wa, input rd_en, input [1:0] rd_ptr,
                            output reg [7:0] out);
            reg [7:0] buf0 [0:3];
            always @(posedge clk) begin
                if (in_valid) buf0[wa] <= in;
                if (rd_en) out <= buf0[rd_ptr];
            end
        endmodule";
        let (d, g) = setup(src);
        let info = LossCheck::instrument(&d, &g, &cfg()).unwrap();
        let mut sim = instrumented_sim(&info);
        // Write slot 2 with valid data, never read it, write slot 2 again.
        sim.poke_u64("in_valid", 1).unwrap();
        sim.poke_u64("wa", 2).unwrap();
        sim.poke_u64("in", 7).unwrap();
        sim.step("clk").unwrap();
        assert!(LossCheck::reports(sim.logs()).is_empty());
        sim.poke_u64("in", 8).unwrap();
        sim.step("clk").unwrap();
        assert!(LossCheck::reports(sim.logs()).contains("buf0"));
    }

    #[test]
    fn validity_flows_through_comb_wires() {
        let src = "module m(input clk, input [7:0] in, input in_valid,
                            input take, input use_it, output reg [7:0] out);
            reg [7:0] b;
            wire [7:0] shaped;
            assign shaped = in + 8'd1;
            always @(posedge clk) begin
                if (take) b <= shaped;
                if (use_it) out <= b;
            end
        endmodule";
        let (d, g) = setup(src);
        let info = LossCheck::instrument(&d, &g, &cfg()).unwrap();
        let mut sim = instrumented_sim(&info);
        // Valid datum lands in b through the comb wire; overwrite it
        // before use_it: loss at b.
        sim.poke_u64("in_valid", 1).unwrap();
        sim.poke_u64("take", 1).unwrap();
        sim.poke_u64("in", 5).unwrap();
        sim.step("clk").unwrap();
        sim.poke_u64("in", 6).unwrap();
        for _ in 0..4 {
            sim.step("clk").unwrap();
        }
        assert!(LossCheck::reports(sim.logs()).contains("b"));
    }
}
