//! Language-semantics lints: the paper's "misused language feature" class.
//!
//! These bugs come from Verilog's permissive scheduling rules: a `case`
//! without a default infers a latch, a blocking assignment in a clocked
//! block races with other processes, and two processes writing one signal
//! is last-writer-wins nondeterminism in synthesis.

use crate::analysis;
use crate::{LintPass, LintSink};
use hwdbg_dataflow::{guard, Design};
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{print_expr, LValue, Stmt};
use std::collections::BTreeSet;

/// `L0101`: a combinational `case` with no `default` that does not cover
/// every selector value. The unmatched selectors keep the previous value —
/// an inferred latch in synthesis, and a common source of X-propagation
/// mismatches between simulation and hardware.
pub struct IncompleteCasePass;

impl LintPass for IncompleteCasePass {
    fn id(&self) -> &'static str {
        "incomplete-case"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintIncompleteCase]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        for comb in &design.combs {
            guard::walk(&comb.body, &mut Vec::new(), &mut |_, stmt| {
                let Stmt::Case {
                    expr,
                    arms,
                    default: None,
                    span,
                    ..
                } = stmt
                else {
                    return;
                };
                // No default: prove full coverage or flag.
                let Some(width) = design.expr_width(expr) else {
                    return;
                };
                if width > 16 {
                    return;
                }
                let mut covered = BTreeSet::new();
                for label in arms.iter().flat_map(|arm| &arm.labels) {
                    match analysis::const_value(label, design) {
                        Some(v) if v.width() <= 64 => {
                            covered.insert(v.resize(width.max(1)).to_u64());
                        }
                        // A label we cannot evaluate: assume coverage
                        // rather than guess.
                        _ => return,
                    }
                }
                let needed = 1u128 << width;
                if (covered.len() as u128) < needed {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintIncompleteCase,
                            format!(
                                "combinational case over `{}` has no default and covers \
                                 {} of {} selector values; unmatched selectors infer a latch",
                                print_expr(expr),
                                covered.len(),
                                needed
                            ),
                        )
                        .with_span(*span),
                    );
                }
            });
        }
    }
}

/// `L0102`/`L0103`: assignment-operator misuse. Blocking assignments in a
/// clocked block are flagged when the written signal is visible outside the
/// block (another process, a combinational driver, a blackbox, or a port) —
/// that is where the evaluation-order race actually bites. Nonblocking
/// assignments in combinational logic delay the update by a delta cycle and
/// are flagged unconditionally.
pub struct AssignStylePass;

impl LintPass for AssignStylePass {
    fn id(&self) -> &'static str {
        "assign-style"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[
            ErrorCode::LintBlockingInSeq,
            ErrorCode::LintNonblockingInComb,
        ]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let index = design.index();
        for (i, proc) in design.procs.iter().enumerate() {
            // Visible outside process `i`: read by a comb driver, a
            // blackbox input or another clocked process, or an output port.
            let external = |s: &str| {
                design.sig_id(s).is_some_and(|id| {
                    let f = index.facts(id);
                    let readers = index.clocked_readers.get(id);
                    f.comb_read || f.bb_read || f.output || readers.iter().any(|&p| p as usize != i)
                })
            };
            let mut guards = Vec::new();
            guard::walk(&proc.body, &mut guards, &mut |_, stmt| {
                let Stmt::Assign {
                    lhs,
                    nonblocking: false,
                    span,
                    ..
                } = stmt
                else {
                    return;
                };
                for target in lhs.target_names() {
                    if external(target) {
                        sink.emit(
                            HwdbgError::warning(
                                ErrorCode::LintBlockingInSeq,
                                format!(
                                    "blocking assignment to `{target}` in a clocked block, \
                                     but `{target}` is read outside this block; evaluation \
                                     order decides whether readers see the old or new value"
                                ),
                            )
                            .with_span(*span)
                            .with_signal(target),
                        );
                    }
                }
            });
        }
        for comb in &design.combs {
            let mut guards = Vec::new();
            guard::walk(&comb.body, &mut guards, &mut |_, stmt| {
                let Stmt::Assign {
                    lhs,
                    nonblocking: true,
                    span,
                    ..
                } = stmt
                else {
                    return;
                };
                let target = lhs.target_names().first().copied().unwrap_or("?").to_owned();
                sink.emit(
                    HwdbgError::warning(
                        ErrorCode::LintNonblockingInComb,
                        format!(
                            "nonblocking assignment to `{target}` in a combinational \
                             block delays the update by a delta cycle"
                        ),
                    )
                    .with_span(*span)
                    .with_signal(target),
                );
            });
        }
    }
}

/// `L0104`: one signal written by two or more clocked processes where
/// the writes can overlap: a whole write, a variable index, or constant
/// selects that share a bit (or memory word). Simulation picks an
/// evaluation order; synthesis tools either reject the design or silently
/// keep one driver. Processes writing disjoint constant selects of one
/// vector are separate drivers of separate bits and stay silent.
pub struct MultiProcWritePass;

impl LintPass for MultiProcWritePass {
    fn id(&self) -> &'static str {
        "multi-proc-write"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintMultiProcWrite]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let index = design.index();
        for (id, name) in design.table.iter() {
            let procs = index.clocked_writers.get(id);
            if procs.len() < 2 {
                continue;
            }
            // Per writer process, the elements (bits, or memory words) each
            // of its writes to `name` covers, as `lo..=hi`: all of them for
            // a whole write or a variable index.
            let extents: Vec<Vec<(u64, u64)>> = procs
                .iter()
                .map(|&p| {
                    let mut out = Vec::new();
                    let body = &design.procs[p as usize].body;
                    guard::walk(body, &mut Vec::new(), &mut |_, stmt| {
                        if let Stmt::Assign { lhs, .. } = stmt {
                            lhs.visit_targets(&mut |n, part| {
                                if n == name {
                                    out.push(extent(part, design));
                                }
                            });
                        }
                    });
                    out
                })
                .collect();
            let overlaps = |a: &[(u64, u64)], b: &[(u64, u64)]| {
                a.iter().any(|x| b.iter().any(|y| x.0 <= y.1 && y.0 <= x.1))
            };
            let racing = (0..procs.len())
                .filter(|&a| (0..procs.len()).any(|b| a != b && overlaps(&extents[a], &extents[b])))
                .count();
            if racing < 2 {
                continue;
            }
            sink.emit(
                HwdbgError::warning(
                    ErrorCode::LintMultiProcWrite,
                    format!(
                        "`{name}` is written by {racing} separate always blocks; \
                         the last writer wins and the winner depends on scheduling order"
                    ),
                )
                .with_signal(name)
                .with_span(design.decl(id).span),
            );
        }
    }
}

fn extent(part: &LValue, design: &Design) -> (u64, u64) {
    let at = |e| analysis::const_u64(e, design);
    let (msb, lsb) = match part {
        LValue::Index(_, i) => (at(i), at(i)),
        LValue::Range(_, msb, lsb) => (at(msb), at(lsb)),
        LValue::Id(_) | LValue::Concat(_) => (None, None),
    };
    match (msb, lsb) {
        (Some(m), Some(l)) => (m.min(l), m.max(l)),
        _ => (0, u64::MAX),
    }
}
