//! Resource estimation: registers, logic cells, and block RAM bits.
//!
//! This is the stand-in for running Quartus/Vivado (which we cannot ship).
//! The model is deliberately simple and fully documented so the *shape*
//! claims of the paper's Figures 2–3 — BRAM grows linearly with recording
//! buffer depth while register/logic overhead stays flat and small — follow
//! from first principles rather than curve fitting:
//!
//! * **registers** — one flip-flop per bit of every clocked register;
//!   memories below [`BRAM_DEPTH_THRESHOLD`] are distributed (register/LUT
//!   RAM) and also count here.
//! * **bram_bits** — `width × depth` for every deeper memory, and for the
//!   storage inside FIFO/RAM/trace-buffer IP instances.
//! * **logic_cells** — a width-weighted count of operator nodes
//!   (see [`expr_cost`]), plus one mux strip per conditionally assigned
//!   signal, approximating LUT packing.

use crate::platform::Platform;
use hwdbg_dataflow::Design;
use hwdbg_rtl::{BinaryOp, Expr, LValue, Stmt, UnaryOp};
use std::ops::Sub;

/// Memories at least this deep map to block RAM; shallower ones stay in
/// logic (matching what synthesizers do with small register files).
pub const BRAM_DEPTH_THRESHOLD: u64 = 16;

/// Estimated resource usage of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceReport {
    /// Flip-flop count.
    pub registers: u64,
    /// Logic cell (ALM/LUT) count.
    pub logic_cells: u64,
    /// Block RAM bits.
    pub bram_bits: u64,
}

impl ResourceReport {
    /// Overhead of `self` relative to platform capacity, in percent,
    /// as `(registers %, logic %, bram %)`.
    pub fn normalized(&self, platform: Platform) -> (f64, f64, f64) {
        (
            100.0 * self.registers as f64 / platform.registers() as f64,
            100.0 * self.logic_cells as f64 / platform.logic_cells() as f64,
            100.0 * self.bram_bits as f64 / platform.bram_bits() as f64,
        )
    }
}

impl Sub for ResourceReport {
    type Output = ResourceReport;

    /// Saturating difference: instrumented − baseline = overhead.
    fn sub(self, rhs: ResourceReport) -> ResourceReport {
        ResourceReport {
            registers: self.registers.saturating_sub(rhs.registers),
            logic_cells: self.logic_cells.saturating_sub(rhs.logic_cells),
            bram_bits: self.bram_bits.saturating_sub(rhs.bram_bits),
        }
    }
}

/// Estimates the resources of an elaborated design.
pub fn estimate(design: &Design) -> ResourceReport {
    let mut r = ResourceReport::default();

    for sig in design.signals.values() {
        if !sig.is_state() {
            continue;
        }
        match sig.mem_depth {
            Some(depth) if depth >= BRAM_DEPTH_THRESHOLD => {
                r.bram_bits += u64::from(sig.width) * depth;
            }
            Some(depth) => {
                r.registers += u64::from(sig.width) * depth;
            }
            None => {
                r.registers += u64::from(sig.width);
            }
        }
    }

    for bb in &design.blackboxes {
        let width = bb.params.get("WIDTH").map_or(8, |b| b.to_u64());
        let depth = bb
            .params
            .get("DEPTH")
            .or_else(|| bb.params.get("NUMWORDS"))
            .map_or(16, |b| b.to_u64());
        r.bram_bits += width * depth;
        // Control state of the IP (pointers, counters): ~2·clog2(depth)+8.
        r.registers += 2 * u64::from(hwdbg_dataflow::clog2(depth)) + 8;
        r.logic_cells += u64::from(hwdbg_dataflow::clog2(depth)) * 4 + 8;
    }

    for c in &design.combs {
        r.logic_cells += stmt_cost(&c.body, design, false);
    }
    for p in &design.procs {
        r.logic_cells += stmt_cost(&p.body, design, false);
    }

    r
}

/// Logic cost of a statement tree; `conditional` is true once the
/// statement sits under an `if`/`case`, adding a mux strip per assignment.
fn stmt_cost(stmt: &Stmt, design: &Design, conditional: bool) -> u64 {
    match stmt {
        Stmt::Block(stmts) => stmts
            .iter()
            .map(|s| stmt_cost(s, design, conditional))
            .sum(),
        Stmt::If { cond, then, els } => {
            expr_cost(cond, design)
                + stmt_cost(then, design, true)
                + els.as_ref().map_or(0, |e| stmt_cost(e, design, true))
        }
        Stmt::Case {
            expr,
            arms,
            default,
            ..
        } => {
            let sel_w = u64::from(design.expr_width(expr).unwrap_or(1));
            let mut cost = expr_cost(expr, design);
            for arm in arms {
                // One equality comparator per label.
                cost += arm.labels.len() as u64 * sel_w.div_ceil(4).max(1);
                cost += stmt_cost(&arm.body, design, true);
            }
            if let Some(d) = default {
                cost += stmt_cost(d, design, true);
            }
            cost
        }
        Stmt::Assign { lhs, rhs, .. } => {
            let mut cost = expr_cost(rhs, design);
            if conditional {
                // Enable mux in front of the register/wire.
                cost += u64::from(design.lvalue_width(lhs).unwrap_or(1)).div_ceil(2);
            }
            // Dynamic-index writes need an address decoder.
            if let LValue::Index(_, idx) = lhs {
                cost += expr_cost(idx, design)
                    + u64::from(design.expr_width(idx).unwrap_or(1));
            }
            cost
        }
        Stmt::For { cond, step, body, .. } => {
            // Unrolled in hardware; approximate with 4 iterations' worth.
            4 * (expr_cost(cond, design)
                + expr_cost(step, design)
                + stmt_cost(body, design, true))
        }
        // `$display` itself synthesizes to nothing; SignalCat replaces it
        // with trace-buffer plumbing that is counted as real logic.
        Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => 0,
    }
}

/// Logic cost of an expression, in logic cells.
///
/// Cost table (w = operand width): add/sub `w`, mul `w²/4`, div/mod `w²`,
/// bitwise `⌈w/2⌉`, equality `⌈w/4⌉`, relational `⌈w/2⌉`, logical ops 1,
/// reductions `⌈w/4⌉`, constant shifts 0, variable shifts `w`,
/// mux (ternary) `⌈w/2⌉ + cond`.
pub fn expr_cost(expr: &Expr, design: &Design) -> u64 {
    let w = |e: &Expr| u64::from(design.expr_width(e).unwrap_or(1));
    match expr {
        Expr::Literal { .. } | Expr::Ident(_) => 0,
        Expr::Unary(op, inner) => {
            let inner_cost = expr_cost(inner, design);
            let width = w(inner);
            inner_cost
                + match op {
                    UnaryOp::Not => 0, // folds into downstream LUTs
                    UnaryOp::Neg => width,
                    UnaryOp::LogNot => 1,
                    _ => width.div_ceil(4).max(1),
                }
        }
        Expr::Binary(op, l, r) => {
            let width = w(l).max(w(r));
            let own = match op {
                BinaryOp::Add | BinaryOp::Sub => width,
                BinaryOp::Mul => (width * width).div_ceil(4),
                BinaryOp::Div | BinaryOp::Mod => width * width,
                BinaryOp::And | BinaryOp::Or | BinaryOp::Xor | BinaryOp::Xnor => {
                    width.div_ceil(2)
                }
                BinaryOp::Eq | BinaryOp::Ne => width.div_ceil(4).max(1),
                BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
                    width.div_ceil(2).max(1)
                }
                BinaryOp::LogAnd | BinaryOp::LogOr => 1,
                BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => {
                    if matches!(**r, Expr::Literal { .. }) {
                        0 // constant shift is wiring
                    } else {
                        width
                    }
                }
            };
            own + expr_cost(l, design) + expr_cost(r, design)
        }
        Expr::Ternary(c, t, f) => {
            w(t).max(w(f)).div_ceil(2)
                + expr_cost(c, design)
                + expr_cost(t, design)
                + expr_cost(f, design)
        }
        Expr::Index(n, idx) => {
            let is_mem = design.signal(n).is_some_and(|s| s.mem_depth.is_some());
            let own = if matches!(**idx, Expr::Literal { .. }) {
                0
            } else if is_mem {
                u64::from(design.expr_width(idx).unwrap_or(1)) // address decode
            } else {
                u64::from(design.signal(n).map_or(1, |s| s.width)).div_ceil(4)
            };
            own + expr_cost(idx, design)
        }
        Expr::Range(_, _, _) => 0, // constant select is wiring
        Expr::Concat(parts) => parts.iter().map(|p| expr_cost(p, design)).sum(),
        Expr::Repeat(_, body) => expr_cost(body, design),
        Expr::WidthCast(_, inner) | Expr::SignCast(_, inner) => expr_cost(inner, design),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, NoBlackboxes};
    use hwdbg_rtl::parse;

    fn d(src: &str) -> Design {
        elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap()
    }

    #[test]
    fn registers_count_flop_bits() {
        let design = d("module m(input clk, output reg [7:0] a);
            reg [3:0] b;
            always @(posedge clk) begin a <= a + 8'd1; b <= b + 4'd1; end
        endmodule");
        let r = estimate(&design);
        assert_eq!(r.registers, 12);
    }

    #[test]
    fn deep_memory_is_bram_shallow_is_registers() {
        let deep = d("module m(input clk, input [7:0] x, input [9:0] a);
            reg [7:0] mem [0:1023];
            always @(posedge clk) mem[a] <= x;
        endmodule");
        assert_eq!(estimate(&deep).bram_bits, 8 * 1024);
        let shallow = d("module m(input clk, input [7:0] x, input [1:0] a);
            reg [7:0] mem [0:3];
            always @(posedge clk) mem[a] <= x;
        endmodule");
        assert_eq!(estimate(&shallow).bram_bits, 0);
        assert_eq!(estimate(&shallow).registers, 32);
    }

    #[test]
    fn bram_scales_linearly_with_trace_buffer_depth() {
        let make = |depth: u32| {
            let src = format!(
                "module m(input clk, input e, input [31:0] x);
                    trace_buffer #(.WIDTH(32), .DEPTH({depth})) tb
                        (.clock(clk), .enable(e), .din(x));
                 endmodule"
            );
            let lib = hwdbg_ip_spec_stub();
            estimate(&elaborate(&parse(&src).unwrap(), "m", &lib).unwrap())
        };
        let r1 = make(1024);
        let r2 = make(2048);
        let r4 = make(4096);
        assert_eq!(r2.bram_bits - r1.bram_bits, 32 * 1024);
        assert_eq!(r4.bram_bits - r2.bram_bits, 32 * 2048);
        // Register/logic cost does not depend on depth beyond clog2 growth.
        assert!(r4.registers - r1.registers <= 8);
    }

    /// A minimal trace_buffer spec so this crate's tests don't depend on
    /// hwdbg-ip (which depends on the simulator).
    fn hwdbg_ip_spec_stub() -> impl hwdbg_dataflow::BlackboxLib {
        use hwdbg_dataflow::*;
        struct Stub(BlackboxSpec);
        impl BlackboxLib for Stub {
            fn spec(&self, module: &str) -> Option<&BlackboxSpec> {
                (module == "trace_buffer").then_some(&self.0)
            }
        }
        Stub(BlackboxSpec {
            name: "trace_buffer".into(),
            ports: vec![
                BbPort {
                    name: "clock".into(),
                    dir: BbDir::Input,
                    width: WidthSpec::Const(1),
                    is_clock: true,
                },
                BbPort {
                    name: "enable".into(),
                    dir: BbDir::Input,
                    width: WidthSpec::Const(1),
                    is_clock: false,
                },
                BbPort {
                    name: "din".into(),
                    dir: BbDir::Input,
                    width: WidthSpec::Param("WIDTH".into()),
                    is_clock: false,
                },
            ],
            relations: vec![],
        })
    }

    #[test]
    fn wider_adders_cost_more() {
        let narrow = d("module m(input [3:0] a, input [3:0] b, output [3:0] s);
            assign s = a + b; endmodule");
        let wide = d("module m(input [31:0] a, input [31:0] b, output [31:0] s);
            assign s = a + b; endmodule");
        assert!(estimate(&wide).logic_cells > estimate(&narrow).logic_cells);
    }

    #[test]
    fn normalization_percentages() {
        let r = ResourceReport {
            registers: 17_088,
            logic_cells: 4_272,
            bram_bits: 555_622,
        };
        let (regs, logic, bram) = r.normalized(Platform::IntelHarp);
        assert!((regs - 1.0).abs() < 0.01, "{regs}");
        assert!((logic - 1.0).abs() < 0.01, "{logic}");
        assert!((bram - 1.0).abs() < 0.01, "{bram}");
    }

    #[test]
    fn overhead_subtraction_saturates() {
        let a = ResourceReport {
            registers: 10,
            logic_cells: 5,
            bram_bits: 0,
        };
        let b = ResourceReport {
            registers: 4,
            logic_cells: 9,
            bram_bits: 0,
        };
        let d = a - b;
        assert_eq!(d.registers, 6);
        assert_eq!(d.logic_cells, 0);
    }
}
