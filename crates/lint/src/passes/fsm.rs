//! FSM structural lints over the state machines recovered by
//! [`FsmMonitor`]: unreachable states, trap states, and transitions to
//! encodings no one declared.

use crate::analysis;
use crate::{LintPass, LintSink};
use hwdbg_dataflow::guard::{self, Guard};
use hwdbg_dataflow::{eval_typed, Design};
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{Expr, Span, Stmt};
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
        let resets = analysis::Resets::of(design);
        let index = design.index();
        let bodies: Vec<&Stmt> = design.bodies().collect();

        for fsm in FsmMonitor::detect(design) {
            if fsm.width > 64 {
                continue;
            }
            let state = fsm.signal.as_str();
            let Some(id) = design.sig_id(state) else {
                continue;
            };

            // Every `case (state)` in the design: union of arm label
            // values, whether any has a default, and an anchoring span.
            let mut arm_union: BTreeSet<u64> = BTreeSet::new();
            let mut has_default = false;
            let mut case_span: Option<Span> = None;
            for &b in index.case_bodies.get(id) {
                guard::walk(bodies[b as usize], &mut Vec::new(), &mut |_, stmt| {
                    let Stmt::Case {
                        expr: Expr::Ident(n),
                        arms,
                        default,
                        span,
                        ..
                    } = stmt
                    else {
                        return;
                    };
                    if n != state {
                        return;
                    }
                    for label in arms.iter().flat_map(|arm| &arm.labels) {
                        if let Some(v) = analysis::const_value(label, design) {
                            if v.width() <= 64 {
                                arm_union.insert(v.resize(fsm.width).to_u64());
                            }
                        }
                    }
                    has_default |= default.is_some();
                    case_span.get_or_insert(*span);
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
            for &p in index.clocked_writers.get(id) {
                let (body, mut guards) = (&design.procs[p as usize].body, Vec::new());
                guard::walk(body, &mut guards, &mut |guards, stmt| {
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
                    match eval_typed(rhs, &design.consts).ok() {
                        Some((v, ty)) if v.width() <= 64 => sites.push(Site {
                            value: ty.fit(&v, fsm.width).to_u64(),
                            in_reset: resets.in_reset(guards),
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
