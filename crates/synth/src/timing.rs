//! Static timing model: combinational logic levels → achievable frequency.
//!
//! The paper reports that 18 of the 20 instrumented designs still meet
//! their target clock and that Optimus drops from 400 MHz to 200 MHz. We
//! reproduce that claim with a logic-level model: every signal gets a
//! combinational *depth* (levels of logic between it and the nearest
//! register/input), the design's critical path is the deepest register-to-
//! register path, and achievable frequency follows a per-level delay
//! budget.

use hwdbg_dataflow::{Design, SigId, SigKind};
use hwdbg_rtl::{BinaryOp, Expr, Stmt, UnaryOp};

/// Fixed overhead per path (clock-to-out + setup + routing), nanoseconds.
pub const FIXED_NS: f64 = 0.4;
/// Delay per logic level, nanoseconds.
pub const LEVEL_NS: f64 = 0.3;

/// Result of timing estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Depth (logic levels) of the critical combinational path.
    pub critical_levels: u32,
    /// Estimated achievable clock frequency in MHz.
    pub fmax_mhz: f64,
}

impl TimingReport {
    /// True if the design can run at `target_mhz`.
    pub fn meets(&self, target_mhz: f64) -> bool {
        self.fmax_mhz + 1e-9 >= target_mhz
    }
}

/// Estimates the critical combinational depth and Fmax of a design.
pub fn estimate_timing(design: &Design) -> TimingReport {
    // Depth of each signal by ID. Registers, inputs, undriven signals and
    // blackbox outputs (which behave like registered outputs) launch at
    // depth 0, and so does every signal no driver has reached yet.
    let mut depth = vec![0u32; design.table.len()];
    let max_depth =
        |depth: &[u32], ids: &[SigId]| ids.iter().map(|id| depth[id.index()]).max().unwrap_or(0);

    // Relax combinational drivers until stable (acyclic in a settling
    // design, so at most |combs| passes). A body's own depth does not
    // change between passes.
    let body_depths: Vec<u32> = design
        .combs
        .iter()
        .map(|c| stmt_depth(&c.body, design))
        .collect();
    for _ in 0..=design.combs.len() {
        let mut changed = false;
        for (c, body_depth) in design.combs.iter().zip(&body_depths) {
            let out_depth = max_depth(&depth, &c.reads) + body_depth;
            for w in c.writes.iter() {
                let cur = &mut depth[w.index()];
                if out_depth > *cur {
                    *cur = out_depth;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Paths end at clocked-process inputs and blackbox inputs.
    let mut critical: u32 = 0;
    for p in &design.procs {
        critical = critical.max(max_depth(&depth, &p.reads) + stmt_depth(&p.body, design));
    }
    for bb in &design.blackboxes {
        for e in bb.in_conns.values() {
            let mut in_depth = 0;
            e.visit_idents(&mut |n| {
                if let Some(id) = design.sig_id(n) {
                    in_depth = in_depth.max(depth[id.index()]);
                }
            });
            critical = critical.max(in_depth + expr_depth(e, design));
        }
    }
    // Pure comb paths to outputs also count.
    for (sig, &d) in design.signals.values().zip(&depth) {
        if sig.kind == SigKind::Output || sig.kind == SigKind::Comb {
            critical = critical.max(d);
        }
    }

    let period_ns = FIXED_NS + LEVEL_NS * f64::from(critical);
    TimingReport {
        critical_levels: critical,
        fmax_mhz: 1000.0 / period_ns,
    }
}

/// Depth contributed by a statement tree: condition depth stacks on top of
/// the deepest contained expression (the mux select path).
fn stmt_depth(stmt: &Stmt, design: &Design) -> u32 {
    match stmt {
        Stmt::Block(stmts) => stmts.iter().map(|s| stmt_depth(s, design)).max().unwrap_or(0),
        Stmt::If { cond, then, els } => {
            let branches = stmt_depth(then, design)
                .max(els.as_ref().map_or(0, |e| stmt_depth(e, design)));
            expr_depth(cond, design).max(branches) + 1 // mux level
        }
        Stmt::Case {
            expr,
            arms,
            default,
            ..
        } => {
            let mut inner = default.as_ref().map_or(0, |d| stmt_depth(d, design));
            for arm in arms {
                inner = inner.max(stmt_depth(&arm.body, design));
            }
            expr_depth(expr, design).max(inner) + 2 // compare + mux
        }
        Stmt::Assign { rhs, .. } => expr_depth(rhs, design),
        Stmt::For { body, .. } => 2 * stmt_depth(body, design).max(1),
        Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => 0,
    }
}

/// Logic levels of an expression tree.
///
/// Levels per node: carry-chain arithmetic `1 + ⌈log2 w / 8⌉` (fast carry),
/// multiply 4, divide 8, compare 1–2, bitwise/logical 1, variable shift
/// `⌈log2 w⌉ / 2`, mux 1, wiring (selects/concats/casts) 0.
pub fn expr_depth(expr: &Expr, design: &Design) -> u32 {
    let w = |e: &Expr| design.expr_width(e).unwrap_or(1);
    match expr {
        Expr::Literal { .. } | Expr::Ident(_) => 0,
        Expr::Unary(op, inner) => {
            expr_depth(inner, design)
                + match op {
                    UnaryOp::Not => 0,
                    UnaryOp::Neg => 1 + log2_ceil(w(inner)) / 8,
                    UnaryOp::LogNot => 1,
                    _ => (log2_ceil(w(inner)) / 2).max(1), // reduction tree
                }
        }
        Expr::Binary(op, l, r) => {
            let width = w(l).max(w(r));
            let own = match op {
                BinaryOp::Add | BinaryOp::Sub => 1 + log2_ceil(width) / 8,
                BinaryOp::Mul => 4,
                BinaryOp::Div | BinaryOp::Mod => 8,
                BinaryOp::Eq | BinaryOp::Ne => (log2_ceil(width) / 2).max(1),
                BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
                    1 + log2_ceil(width) / 8
                }
                BinaryOp::LogAnd | BinaryOp::LogOr => 1,
                BinaryOp::And | BinaryOp::Or | BinaryOp::Xor | BinaryOp::Xnor => 1,
                BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => {
                    if matches!(**r, Expr::Literal { .. }) {
                        0
                    } else {
                        (log2_ceil(width) / 2).max(1)
                    }
                }
            };
            own + expr_depth(l, design).max(expr_depth(r, design))
        }
        Expr::Ternary(c, t, f) => {
            1 + expr_depth(c, design)
                .max(expr_depth(t, design))
                .max(expr_depth(f, design))
        }
        Expr::Index(_, idx) => {
            if matches!(**idx, Expr::Literal { .. }) {
                expr_depth(idx, design)
            } else {
                1 + expr_depth(idx, design) // decode mux
            }
        }
        Expr::Range(_, _, _) => 0,
        Expr::Concat(parts) => parts.iter().map(|p| expr_depth(p, design)).max().unwrap_or(0),
        Expr::Repeat(_, body) => expr_depth(body, design),
        Expr::WidthCast(_, inner) | Expr::SignCast(_, inner) => expr_depth(inner, design),
    }
}

fn log2_ceil(w: u32) -> u32 {
    hwdbg_dataflow::clog2(u64::from(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, NoBlackboxes};
    use hwdbg_rtl::parse;

    fn t(src: &str) -> TimingReport {
        estimate_timing(&elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap())
    }

    #[test]
    fn registered_pipeline_is_fast() {
        let r = t("module m(input clk, input [7:0] d, output reg [7:0] q);
            reg [7:0] s;
            always @(posedge clk) begin s <= d + 8'd1; q <= s + 8'd1; end
        endmodule");
        assert!(r.critical_levels <= 2, "{r:?}");
        assert!(r.meets(400.0), "{r:?}");
    }

    #[test]
    fn long_comb_chain_is_slow() {
        let mut src = String::from("module m(input clk, input [31:0] d, output reg [31:0] q);\n");
        for i in 0..12 {
            let prev = if i == 0 { "d".into() } else { format!("w{}", i - 1) };
            src.push_str(&format!("wire [31:0] w{i}; assign w{i} = {prev} * 32'd3 + 32'd1;\n"));
        }
        src.push_str("always @(posedge clk) q <= w11;\nendmodule");
        let r = t(&src);
        assert!(r.critical_levels > 30, "{r:?}");
        assert!(!r.meets(200.0), "{r:?}");
    }

    #[test]
    fn deeper_conditions_slow_the_clock() {
        let shallow = t("module m(input clk, input a, output reg q);
            always @(posedge clk) if (a) q <= 1'b1;
        endmodule");
        let deep = t("module m(input clk, input [63:0] a, input [63:0] b, output reg q);
            always @(posedge clk) if ((a * b) > 64'd100) q <= 1'b1;
        endmodule");
        assert!(deep.critical_levels > shallow.critical_levels);
        assert!(deep.fmax_mhz < shallow.fmax_mhz);
    }
}
