//! FSM structural lints over the state machines recovered by
//! [`FsmMonitor`]: unreachable states, trap states, and transitions to
//! encodings no one declared.

use crate::analysis;
use crate::{LintPass, LintSink};
use hwdbg_dataflow::guard::{self, Guard};
use hwdbg_dataflow::Design;
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{CaseArm, Expr, Span, Stmt};
use hwdbg_tools::FsmMonitor;
use std::collections::{BTreeMap, BTreeSet};

/// Which case arm (over the state register) encloses an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ArmCtx {
    /// Not inside any `case (state)` — executes in every state.
    Outside,
    /// Inside an explicit arm with these label values.
    Arm(BTreeSet<u64>),
    /// Inside the `default` arm.
    Default,
}

/// One whole constant assignment to the state register.
#[derive(Debug)]
struct Site {
    value: u64,
    in_reset: bool,
    arm: ArmCtx,
}

/// `L0301`/`L0302`/`L0303`: structural checks on each recovered FSM.
///
/// - A case arm whose state value is never assigned is dead control flow
///   (`L0301`) — often a symptom of a forgotten transition.
/// - A reachable state with no outgoing transition (`L0302`) can only be
///   left through reset. Terminal "done" states are a legitimate idiom, so
///   this code defaults to `Allow` and must be opted into.
/// - An assigned encoding that no localparam names and no arm handles
///   (`L0303`) is a transition into undeclared state space.
pub struct FsmLintPass;

impl LintPass for FsmLintPass {
    fn id(&self) -> &'static str {
        "fsm-structure"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[
            ErrorCode::LintUnreachableState,
            ErrorCode::LintTrapState,
            ErrorCode::LintUndeclaredState,
        ]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let resets = analysis::reset_inputs(design);

        // Index the design once. Per identifier: the bodies (clocked
        // processes, then comb drivers) holding a `case` over it, and the
        // clocked processes assigning it, each in design order. A per-FSM
        // scan then visits only those bodies.
        let bodies: Vec<&Stmt> = design
            .procs
            .iter()
            .map(|p| &p.body)
            .chain(design.combs.iter().map(|c| &c.body))
            .collect();
        let mut case_bodies: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (b, &body) in bodies.iter().enumerate() {
            for_each_case(body, &mut |selector, _, _, _| {
                if let Expr::Ident(n) = selector {
                    push_once(case_bodies.entry(n).or_default(), b);
                }
            });
        }
        let mut writers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, proc) in design.procs.iter().enumerate() {
            guard::walk(&proc.body, &mut Vec::new(), &mut |_, stmt| {
                if let Stmt::Assign { lhs, .. } = stmt {
                    for target in lhs.target_names() {
                        push_once(writers.entry(target).or_default(), i);
                    }
                }
            });
        }

        for fsm in FsmMonitor::detect(design) {
            if fsm.width > 64 {
                continue;
            }
            let state = fsm.signal.as_str();

            // Every `case (state)` in the design: union of arm label
            // values, whether any has a default, and an anchoring span.
            let mut arm_union: BTreeSet<u64> = BTreeSet::new();
            let mut has_default = false;
            let mut case_span: Option<Span> = None;
            for &b in indexed(&case_bodies, state) {
                for_each_case(bodies[b], &mut |selector, arms, default, span| {
                    if !matches!(selector, Expr::Ident(n) if n == state) {
                        return;
                    }
                    for label in arms.iter().flat_map(|arm| &arm.labels) {
                        if let Some(v) = analysis::const_value(label, design) {
                            if v.width() <= 64 {
                                arm_union.insert(v.resize(fsm.width).to_u64());
                            }
                        }
                    }
                    has_default |= default;
                    case_span.get_or_insert(span);
                });
            }
            let Some(case_span) = case_span else {
                // No case dispatch over this register: the transition
                // structure is not explicit enough to reason about.
                continue;
            };

            // Every whole assignment to the state register.
            let mut sites: Vec<Site> = Vec::new();
            let mut analyzable = true;
            for &i in indexed(&writers, state) {
                let mut guards = Vec::new();
                guard::walk(&design.procs[i].body, &mut guards, &mut |guards, stmt| {
                    let Stmt::Assign { lhs, rhs, .. } = stmt else {
                        return;
                    };
                    if !lhs.target_names().contains(&state) {
                        return;
                    }
                    if !matches!(lhs, hwdbg_rtl::LValue::Id(_)) {
                        analyzable = false;
                        return;
                    }
                    // `state <= state` is a hold, not a transition.
                    if matches!(rhs, Expr::Ident(n) if n == state) {
                        return;
                    }
                    match analysis::const_value(rhs, design) {
                        Some(v) if v.width() <= 64 => sites.push(Site {
                            value: v.resize(fsm.width).to_u64(),
                            in_reset: analysis::in_reset(guards, &resets),
                            arm: arm_ctx(guards, state, fsm.width, design),
                        }),
                        // A computed next-state (two-process style): too
                        // dynamic for structural checks.
                        _ => analyzable = false,
                    }
                });
            }
            if !analyzable {
                continue;
            }
            let assigned: BTreeSet<u64> = sites.iter().map(|s| s.value).collect();

            for &v in &arm_union {
                if !assigned.contains(&v) {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintUnreachableState,
                            format!(
                                "FSM `{state}`: state {} has a case arm but no \
                                 assignment ever enters it; the arm is unreachable",
                                state_name(&fsm.states, v)
                            ),
                        )
                        .with_span(case_span)
                        .with_signal(state),
                    );
                }
            }

            for &v in &assigned {
                let covered = arm_union.contains(&v) || has_default;
                if !covered {
                    continue;
                }
                let has_exit = sites.iter().any(|s| {
                    s.value != v
                        && !s.in_reset
                        && match &s.arm {
                            ArmCtx::Outside => true,
                            ArmCtx::Arm(labels) => labels.contains(&v),
                            ArmCtx::Default => !arm_union.contains(&v),
                        }
                });
                if !has_exit {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintTrapState,
                            format!(
                                "FSM `{state}`: state {} has no outgoing transition; \
                                 once entered, only reset leaves it",
                                state_name(&fsm.states, v)
                            ),
                        )
                        .with_span(case_span)
                        .with_signal(state),
                    );
                }
            }

            for &v in &assigned {
                if !fsm.states.contains_key(&v) && !arm_union.contains(&v) && !has_default {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintUndeclaredState,
                            format!(
                                "FSM `{state}` is assigned encoding {v}, which no \
                                 localparam names and no case arm handles"
                            ),
                        )
                        .with_span(case_span)
                        .with_signal(state),
                    );
                }
            }
        }
    }
}

fn state_name(states: &BTreeMap<u64, String>, v: u64) -> String {
    match states.get(&v) {
        Some(n) => format!("`{n}` ({v})"),
        None => format!("{v}"),
    }
}

/// The design-order positions indexed under `name`.
fn indexed<'m>(index: &'m BTreeMap<&str, Vec<usize>>, name: &str) -> &'m [usize] {
    index.get(name).map_or(&[], Vec::as_slice)
}

/// Appends `i` unless it is already the last entry (indices arrive in
/// order, so this keeps each list free of duplicates).
fn push_once(list: &mut Vec<usize>, i: usize) {
    if list.last() != Some(&i) {
        list.push(i);
    }
}

/// Calls `f(selector, arms, has_default, span)` on every `case` in `stmt`,
/// each case before the cases nested in its arms.
fn for_each_case<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr, &'a [CaseArm], bool, Span)) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                for_each_case(s, f);
            }
        }
        Stmt::If { then, els, .. } => {
            for_each_case(then, f);
            if let Some(e) = els {
                for_each_case(e, f);
            }
        }
        Stmt::For { body, .. } => for_each_case(body, f),
        Stmt::Case {
            expr,
            arms,
            default,
            span,
            ..
        } => {
            f(expr, arms, default.is_some(), *span);
            for arm in arms {
                for_each_case(&arm.body, f);
            }
            if let Some(d) = default {
                for_each_case(d, f);
            }
        }
        _ => {}
    }
}

/// The innermost case-arm context over the state register in a guard stack.
fn arm_ctx(guards: &[Guard<'_>], state: &str, width: u32, design: &Design) -> ArmCtx {
    for g in guards.iter().rev() {
        match *g {
            Guard::Arm {
                subject: Expr::Ident(n),
                arms,
                index,
            } if n == state => {
                let values = arms[index]
                    .labels
                    .iter()
                    .filter_map(|l| analysis::const_value(l, design))
                    .filter(|v| v.width() <= 64)
                    .map(|v| v.resize(width).to_u64())
                    .collect();
                return ArmCtx::Arm(values);
            }
            Guard::Default {
                subject: Expr::Ident(n),
                ..
            } if n == state => {
                return ArmCtx::Default;
            }
            _ => {}
        }
    }
    ArmCtx::Outside
}
