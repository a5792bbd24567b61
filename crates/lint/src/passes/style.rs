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
use hwdbg_rtl::{print_expr, Dir, Stmt};
use std::collections::{BTreeMap, BTreeSet};

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
        // Per signal: read outside every clocked process (by a comb
        // driver, a blackbox input or as an output port).
        let mut non_proc = vec![false; design.table.len()];
        let mut mark = |name: &str| {
            if let Some(id) = design.sig_id(name) {
                non_proc[id.index()] = true;
            }
        };
        for port in design.ports().iter().filter(|p| p.dir == Dir::Output) {
            mark(&port.net.name);
        }
        for bb in &design.blackboxes {
            for conn in bb.in_conns.values() {
                conn.visit_idents(&mut mark);
            }
        }
        for comb in &design.combs {
            for r in comb.reads.iter() {
                non_proc[r.index()] = true;
            }
        }
        // Per signal, the first two clocked processes that read it: enough
        // to tell whether some process other than `i` is a reader.
        let mut proc_readers: Vec<Option<(usize, Option<usize>)>> = vec![None; design.table.len()];
        for (i, proc) in design.procs.iter().enumerate() {
            for r in proc.reads.iter() {
                match &mut proc_readers[r.index()] {
                    Some((_, second)) => {
                        second.get_or_insert(i);
                    }
                    first => *first = Some((i, None)),
                }
            }
        }

        for (i, proc) in design.procs.iter().enumerate() {
            // Visible outside process `i`.
            let external = |s: &str| {
                design.sig_id(s).is_some_and(|id| {
                    non_proc[id.index()]
                        || proc_readers[id.index()]
                            .is_some_and(|(first, second)| first != i || second.is_some())
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

/// `L0104`: one signal whole-written by two or more clocked processes.
/// Simulation picks an evaluation order; synthesis tools either reject the
/// design or silently keep one driver.
pub struct MultiProcWritePass;

impl LintPass for MultiProcWritePass {
    fn id(&self) -> &'static str {
        "multi-proc-write"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintMultiProcWrite]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        // Signal -> set of clocked-process indices that assign it. Walk the
        // bodies (rather than using `proc.writes`) so `for` loop variables,
        // which are process-local, never collide across processes.
        let mut writers: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
        for (i, proc) in design.procs.iter().enumerate() {
            let mut guards = Vec::new();
            guard::walk(&proc.body, &mut guards, &mut |_, stmt| {
                if let Stmt::Assign { lhs, .. } = stmt {
                    for target in lhs.target_names() {
                        if design.sig_id(target).is_some() {
                            writers.entry(target).or_default().insert(i);
                        }
                    }
                }
            });
        }
        for (name, procs) in writers {
            if procs.len() < 2 {
                continue;
            }
            let mut err = HwdbgError::warning(
                ErrorCode::LintMultiProcWrite,
                format!(
                    "`{name}` is written by {} separate always blocks; the last \
                     writer wins and the winner depends on scheduling order",
                    procs.len()
                ),
            )
            .with_signal(name);
            if let Some(id) = design.sig_id(name) {
                err = err.with_span(design.decl(id).span);
            }
            sink.emit(err);
        }
    }
}
