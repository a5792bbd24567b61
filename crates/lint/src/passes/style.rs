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
use hwdbg_rtl::{print_expr, Stmt};
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
            scan_cases(design, &comb.body, sink);
        }
    }
}

fn scan_cases(design: &Design, stmt: &Stmt, sink: &mut LintSink<'_>) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                scan_cases(design, s, sink);
            }
        }
        Stmt::If { then, els, .. } => {
            scan_cases(design, then, sink);
            if let Some(e) = els {
                scan_cases(design, e, sink);
            }
        }
        Stmt::For { body, .. } => scan_cases(design, body, sink),
        Stmt::Case {
            expr,
            arms,
            default,
            span,
            ..
        } => {
            for arm in arms {
                scan_cases(design, &arm.body, sink);
            }
            if let Some(d) = default {
                scan_cases(design, d, sink);
                return;
            }
            // No default: prove full coverage or flag.
            let Some(width) = design.expr_width(expr) else {
                return;
            };
            if width > 16 {
                return;
            }
            let mut covered = BTreeSet::new();
            for arm in arms {
                for label in &arm.labels {
                    match analysis::const_value(label, design) {
                        Some(v) if v.width() <= 64 => {
                            covered.insert(v.resize(width.max(1)).to_u64());
                        }
                        // A label we cannot evaluate: assume coverage
                        // rather than guess.
                        _ => return,
                    }
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
        }
        _ => {}
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
        // Readers outside every clocked process: comb drivers, blackbox
        // inputs and output ports.
        let outputs = analysis::output_ports(design);
        let mut non_proc: BTreeSet<&str> = outputs.iter().map(String::as_str).collect();
        for comb in &design.combs {
            non_proc.extend(comb.reads.iter().map(String::as_str));
        }
        for bb in &design.blackboxes {
            for conn in bb.in_conns.values() {
                non_proc.extend(conn.idents());
            }
        }
        // Per signal, the first two clocked processes that read it: enough
        // to tell whether some process other than `i` is a reader.
        let mut proc_readers: BTreeMap<&str, (usize, Option<usize>)> = BTreeMap::new();
        for (i, proc) in design.procs.iter().enumerate() {
            for r in &proc.reads {
                proc_readers
                    .entry(r.as_str())
                    .and_modify(|(_, second)| {
                        second.get_or_insert(i);
                    })
                    .or_insert((i, None));
            }
        }

        for (i, proc) in design.procs.iter().enumerate() {
            // Visible outside process `i`.
            let external = |s: &str| {
                non_proc.contains(s)
                    || proc_readers
                        .get(s)
                        .is_some_and(|&(first, second)| first != i || second.is_some())
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
                        if design.signals.contains_key(target) {
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
            if let Some(decl) = design.flat.net(name) {
                err = err.with_span(decl.span);
            }
            sink.emit(err);
        }
    }
}
