//! Structural lints: combinational cycles and silent width truncation.

use crate::analysis::significant_bits;
use crate::{LintPass, LintSink};
use hwdbg_dataflow::{guard, tarjan_scc, Design};
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{print_lvalue, BinaryOp, Expr, Stmt, UnaryOp};
use std::collections::{BTreeMap, BTreeSet};

/// `L0201`: a cycle among combinational drivers. The simulator's settling
/// loop will hit its iteration cap at runtime; hardware oscillates or
/// settles to a timing-dependent value. Finding the strongly connected
/// components statically names every signal on the cycle.
pub struct CombLoopPass;

impl LintPass for CombLoopPass {
    fn id(&self) -> &'static str {
        "comb-loop"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintCombLoop]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        // Nodes: comb-written signals. Edge w -> r when w's driver reads r
        // and r is itself comb-written (registers and inputs break cycles).
        let mut comb_written: BTreeSet<&str> = BTreeSet::new();
        for comb in &design.combs {
            comb_written.extend(comb.writes.iter().map(String::as_str));
        }
        let nodes: Vec<&str> = comb_written.iter().copied().collect();
        let index: BTreeMap<&str, usize> =
            nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        for comb in &design.combs {
            for w in &comb.writes {
                let Some(&wi) = index.get(w.as_str()) else {
                    continue;
                };
                for r in &comb.reads {
                    if let Some(&ri) = index.get(r.as_str()) {
                        adj[wi].insert(ri);
                    }
                }
            }
        }
        for scc in tarjan_scc(&adj) {
            let cyclic = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
            if !cyclic {
                continue;
            }
            let names: Vec<&str> = scc.iter().map(|&i| nodes[i]).collect();
            let mut err = HwdbgError::warning(
                ErrorCode::LintCombLoop,
                format!(
                    "combinational loop through {}: each driver reads another's \
                     output, so the logic never settles",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_signals(names.iter().copied());
            if let Some(decl) = names.first().and_then(|n| design.flat.net(n)) {
                err = err.with_span(decl.span);
            }
            sink.emit(err);
        }
    }
}

/// `L0202`: an assignment whose right-hand side carries more significant
/// bits than the target holds. Verilog truncates silently; the paper's
/// bit-truncation bugs (e.g. a 64-bit intermediate stored in a 32-bit
/// temporary) corrupt data with no simulation-time signal.
///
/// The *effective* width refines the declared width: unsized literals and
/// parameter references count only their significant bits, comparisons are
/// one bit, and shifts keep the left operand's width — so idiomatic code
/// like `ptr <= ptr + 1` stays clean.
pub struct WidthTruncationPass;

impl LintPass for WidthTruncationPass {
    fn id(&self) -> &'static str {
        "width-truncation"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintWidthTruncation]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let bodies = design
            .procs
            .iter()
            .map(|p| &p.body)
            .chain(design.combs.iter().map(|c| &c.body));
        for body in bodies {
            let mut guards = Vec::new();
            guard::walk(body, &mut guards, &mut |_, stmt| {
                let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                    return;
                };
                let Some(lw) = design.lvalue_width(lhs) else {
                    return;
                };
                // Signed arithmetic sign-extends rather than truncating
                // value bits; stay silent there.
                if lhs
                    .target_names()
                    .iter()
                    .chain(rhs.idents().iter())
                    .any(|n| design.signals.get(*n).is_some_and(|s| s.signed))
                {
                    return;
                }
                let Some(rw) = eff_width(design, rhs) else {
                    return;
                };
                if rw > lw {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintWidthTruncation,
                            format!(
                                "right-hand side carries {rw} significant bits but \
                                 `{}` holds {lw}; the top {} bits are silently dropped",
                                print_lvalue(lhs),
                                rw - lw
                            ),
                        )
                        .with_span(*span),
                    );
                }
            });
        }
    }
}

/// Effective (value-carrying) width of an expression, or `None` when it
/// cannot be determined.
fn eff_width(design: &Design, e: &Expr) -> Option<u32> {
    match e {
        Expr::Literal { value, sized } => Some(if *sized {
            value.width()
        } else {
            significant_bits(value)
        }),
        Expr::Ident(n) => design
            .signals
            .get(n)
            .map(|s| s.width)
            .or_else(|| design.consts.get(n).map(significant_bits)),
        Expr::Unary(op, inner) => match op {
            UnaryOp::Not | UnaryOp::Neg => eff_width(design, inner),
            _ => Some(1),
        },
        Expr::Binary(op, a, b) => {
            if op.is_boolean() {
                Some(1)
            } else {
                match op {
                    BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => eff_width(design, a),
                    _ => Some(eff_width(design, a)?.max(eff_width(design, b)?)),
                }
            }
        }
        Expr::Ternary(_, t, f) => Some(eff_width(design, t)?.max(eff_width(design, f)?)),
        Expr::SignCast(_, inner) => eff_width(design, inner),
        // Concats, repeats, selects, and casts are exact-width constructs;
        // the design's width rules are already the effective width.
        _ => design.expr_width(e),
    }
}
