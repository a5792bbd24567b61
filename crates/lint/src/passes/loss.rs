//! Signal-loss lints: the paper's LossCheck class, applied statically.
//!
//! A value is "lost" when a write can never be observed: overwritten on the
//! same path before the flop updates, stored in a register nothing reads,
//! dropped because a sticky error flag gates the datapath shut, or thrown
//! away because a re-init branch forgot one register.

use crate::analysis::{self, ident_leaf, leaf_key};
use crate::{LintPass, LintSink};
use hwdbg_bits::Bits;
use hwdbg_dataflow::guard::{self, Guard};
use hwdbg_dataflow::Design;
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{LValue, Span, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// Path identity of one statement: flattened `if`/`for` leaves plus
/// case-arm markers. `a ⊆ b` means the statement with key `a` executes
/// whenever the one with key `b` does (conservatively, over syntactic
/// guards).
fn guard_keys(guards: &[Guard<'_>]) -> BTreeSet<String> {
    let mut keys: BTreeSet<String> = guard::leaves(guards).iter().map(leaf_key).collect();
    for g in guards {
        if matches!(g, Guard::Arm { .. } | Guard::Default { .. }) {
            keys.insert(analysis::path_key(std::slice::from_ref(g)));
        }
    }
    keys
}

/// `L0401`: a nonblocking whole-register write that a later write in the
/// same block overwrites on every path where the first executes. The first
/// write can never reach the flop.
pub struct DeadWritePass;

impl LintPass for DeadWritePass {
    fn id(&self) -> &'static str {
        "dead-write"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintDeadWrite]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        for proc in &design.procs {
            // (signal, guard keys, span, rhs reads signal) in source order.
            let mut writes: Vec<(&str, BTreeSet<String>, Span, bool)> = Vec::new();
            let mut guards = Vec::new();
            guard::walk(&proc.body, &mut guards, &mut |guards, stmt| {
                let Stmt::Assign {
                    lhs: LValue::Id(name),
                    nonblocking: true,
                    rhs,
                    span,
                } = stmt
                else {
                    return;
                };
                writes.push((
                    name,
                    guard_keys(guards),
                    *span,
                    rhs.idents().contains(&name.as_str()),
                ));
            });
            for (i, (name, keys_i, span_i, _)) in writes.iter().enumerate() {
                let dead = writes.iter().skip(i + 1).any(|(n2, keys_j, _, self_ref)| {
                    n2 == name && !self_ref && keys_j.is_subset(keys_i)
                });
                if dead {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintDeadWrite,
                            format!(
                                "nonblocking write to `{name}` is dead: a later write \
                                 in the same block executes on every path this one \
                                 does and overwrites it before the flop updates"
                            ),
                        )
                        .with_span(*span_i)
                        .with_signal(*name),
                    );
                }
            }
        }
    }
}

/// `L0402`/`L0403`: liveness of values. An internal signal nothing reads
/// (`L0402`) loses every value written to it; an input that only reaches
/// `$display` statements (`L0403`) is debug-observed but functionally
/// ignored — usually a wiring mistake.
pub struct LivenessPass;

impl LintPass for LivenessPass {
    fn id(&self) -> &'static str {
        "liveness"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintNeverRead, ErrorCode::LintInputIgnored]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let inputs = analysis::input_ports(design);
        let outputs = analysis::output_ports(design);
        let mut logic: BTreeSet<&str> = BTreeSet::new();
        let mut display: BTreeSet<&str> = BTreeSet::new();
        for body in design
            .procs
            .iter()
            .map(|p| &p.body)
            .chain(design.combs.iter().map(|c| &c.body))
        {
            scan_reads(body, &mut logic, &mut display);
        }
        for proc in &design.procs {
            logic.extend(proc.edges.iter().map(|e| e.signal.as_str()));
        }
        for bb in &design.blackboxes {
            for conn in bb.in_conns.values() {
                logic.extend(conn.idents());
            }
            // Index expressions inside out-connection lvalues are reads.
            for lv in bb.out_conns.values() {
                scan_lvalue_reads(lv, &mut logic);
            }
        }

        for name in design.signals.keys() {
            let name = name.as_str();
            if logic.contains(name) || display.contains(name) {
                continue;
            }
            if inputs.contains(name) || outputs.contains(name) {
                continue;
            }
            let mut err = HwdbgError::warning(
                ErrorCode::LintNeverRead,
                format!("`{name}` is never read; every value written to it is lost"),
            )
            .with_signal(name);
            if let Some(decl) = design.flat.net(name) {
                err = err.with_span(decl.span);
            }
            sink.emit(err);
        }
        for name in &inputs {
            let name = name.as_str();
            if display.contains(name) && !logic.contains(name) {
                let mut err = HwdbgError::warning(
                    ErrorCode::LintInputIgnored,
                    format!(
                        "input `{name}` only reaches $display statements; no logic \
                         consumes it"
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
}

fn scan_reads<'a>(stmt: &'a Stmt, logic: &mut BTreeSet<&'a str>, display: &mut BTreeSet<&'a str>) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                scan_reads(s, logic, display);
            }
        }
        Stmt::If { cond, then, els } => {
            logic.extend(cond.idents());
            scan_reads(then, logic, display);
            if let Some(e) = els {
                scan_reads(e, logic, display);
            }
        }
        Stmt::Case {
            expr,
            arms,
            default,
            ..
        } => {
            logic.extend(expr.idents());
            for arm in arms {
                for l in &arm.labels {
                    logic.extend(l.idents());
                }
                scan_reads(&arm.body, logic, display);
            }
            if let Some(d) = default {
                scan_reads(d, logic, display);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            logic.extend(init.idents());
            logic.extend(cond.idents());
            logic.extend(step.idents());
            scan_reads(body, logic, display);
        }
        Stmt::Assign { lhs, rhs, .. } => {
            logic.extend(rhs.idents());
            scan_lvalue_reads(lhs, logic);
        }
        Stmt::Display { args, .. } => {
            for a in args {
                display.extend(a.idents());
            }
        }
        Stmt::Finish | Stmt::Empty => {}
    }
}

/// Index/range expressions inside an lvalue are reads (the base is a write).
fn scan_lvalue_reads<'a>(lv: &'a LValue, logic: &mut BTreeSet<&'a str>) {
    match lv {
        LValue::Id(_) => {}
        LValue::Index(_, i) => logic.extend(i.idents()),
        LValue::Range(_, a, b) => {
            logic.extend(a.idents());
            logic.extend(b.idents());
        }
        LValue::Concat(parts) => {
            for p in parts {
                scan_lvalue_reads(p, logic);
            }
        }
    }
}

/// `L0404`: a sticky error/drop flag. A one-bit internal register that
/// resets to 0, is set to 1 somewhere, is never cleared outside reset, and
/// whose negation gates non-constant (datapath) writes: a single trigger
/// blocks traffic until the next reset — the paper's "filter stuck after
/// one malformed packet" class.
pub struct StickyFlagPass;

impl LintPass for StickyFlagPass {
    fn id(&self) -> &'static str {
        "sticky-flag"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintStickyFlag]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let outputs = analysis::output_ports(design);
        let resets = analysis::reset_inputs(design);
        struct FlagInfo {
            first_set: Option<Span>,
            reset_clears: bool,
            disqualified: bool,
        }
        let mut flags: BTreeMap<&str, FlagInfo> = BTreeMap::new();
        let mut gated: BTreeSet<String> = BTreeSet::new();
        for proc in &design.procs {
            let mut guards = Vec::new();
            guard::walk(&proc.body, &mut guards, &mut |guards, stmt| {
                let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                    return;
                };
                let rhs_const = analysis::const_value(rhs, design);
                // Non-constant writes gated by a negated flag mark that
                // flag as traffic-blocking.
                if rhs_const.is_none() {
                    for c in guard::leaves(guards) {
                        if let Some((n, false)) = ident_leaf(&c) {
                            gated.insert(n.to_owned());
                        }
                    }
                }
                for name in lhs.target_names() {
                    let eligible = design.signals.get(name).is_some_and(|s| {
                        s.width == 1 && s.mem_depth.is_none() && s.is_state()
                    }) && !outputs.contains(name);
                    if !eligible {
                        continue;
                    }
                    let info = flags.entry(name).or_insert(FlagInfo {
                        first_set: None,
                        reset_clears: false,
                        disqualified: false,
                    });
                    if !matches!(lhs, LValue::Id(_)) {
                        info.disqualified = true;
                        continue;
                    }
                    let in_reset = analysis::in_reset(guards, &resets);
                    match rhs_const.as_ref().map(|v| !v.is_zero()) {
                        Some(true) if !in_reset => {
                            info.first_set.get_or_insert(*span);
                        }
                        Some(false) if in_reset => info.reset_clears = true,
                        // Cleared or recomputed outside reset, or set
                        // from reset: not sticky.
                        _ => info.disqualified = true,
                    }
                }
            });
        }
        for (name, info) in flags {
            let (Some(span), true, false) = (info.first_set, info.reset_clears, info.disqualified)
            else {
                continue;
            };
            if !gated.contains(name) {
                continue;
            }
            sink.emit(
                HwdbgError::warning(
                    ErrorCode::LintStickyFlag,
                    format!(
                        "flag `{name}` is sticky: set here, cleared only by reset, \
                         and `!{name}` gates datapath writes — one trigger blocks \
                         traffic until reset"
                    ),
                )
                .with_span(span)
                .with_signal(name),
            );
        }
    }
}

/// `L0405`: an incomplete re-initialization branch. When a non-reset path
/// rewrites all-but-one of the registers the reset block initializes, each
/// to its exact reset value, the one register left out (and holding
/// residue from the previous run — it feeds back into itself) is almost
/// certainly a forgotten `x <= RESET_VALUE`.
pub struct ReinitPass;

impl LintPass for ReinitPass {
    fn id(&self) -> &'static str {
        "incomplete-reinit"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintIncompleteReinit]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let resets = analysis::reset_inputs(design);
        for proc in &design.procs {
            // Registers the reset branch initializes, with their values.
            let mut reset_map: BTreeMap<&str, Bits> = BTreeMap::new();
            // Registers with a self-referential write in this process.
            let mut self_ref: BTreeSet<&str> = BTreeSet::new();
            // Non-reset paths: constant re-init members and all writes.
            struct Group<'a> {
                consts: Vec<(&'a str, Bits, Span)>,
                written: BTreeSet<&'a str>,
            }
            let mut groups: BTreeMap<String, Group<'_>> = BTreeMap::new();

            let mut guards = Vec::new();
            guard::walk(&proc.body, &mut guards, &mut |guards, stmt| {
                let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                    return;
                };
                if let LValue::Id(name) = lhs {
                    if rhs.idents().contains(&name.as_str()) {
                        self_ref.insert(name);
                    }
                }
                let in_reset = analysis::in_reset(guards, &resets);
                let cval = analysis::const_value(rhs, design).and_then(|v| {
                    let w = match lhs {
                        LValue::Id(n) => design.signals.get(n)?.width,
                        _ => return None,
                    };
                    Some(v.resize(w))
                });
                if in_reset {
                    // Only direct `if (rst)` members define the reset
                    // contract (deeper conditionals are not the plain
                    // init-everything block).
                    let direct = guards.len() == 1;
                    if let (LValue::Id(name), Some(v), true) = (lhs, cval, direct) {
                        reset_map.insert(name, v);
                    }
                    return;
                }
                let group = groups
                    .entry(analysis::path_key(guards))
                    .or_insert_with(|| Group {
                        consts: Vec::new(),
                        written: BTreeSet::new(),
                    });
                for t in lhs.target_names() {
                    group.written.insert(t);
                }
                if let (LValue::Id(name), Some(v)) = (lhs, cval) {
                    group.consts.push((name, v, *span));
                }
            });

            if reset_map.len() < 2 {
                continue;
            }
            for group in groups.values() {
                let members: Vec<&(&str, Bits, Span)> = group
                    .consts
                    .iter()
                    .filter(|(n, _, _)| reset_map.contains_key(n))
                    .collect();
                if members.len() < 2 {
                    continue;
                }
                if !members.iter().all(|(n, v, _)| reset_map.get(n) == Some(v)) {
                    continue;
                }
                let missing: Vec<&str> = reset_map
                    .keys()
                    .filter(|n| !group.written.contains(*n))
                    .copied()
                    .collect();
                let [lone] = missing[..] else { continue };
                if !self_ref.contains(lone) {
                    continue;
                }
                let names: Vec<String> =
                    members.iter().map(|(n, _, _)| format!("`{n}`")).collect();
                sink.emit(
                    HwdbgError::warning(
                        ErrorCode::LintIncompleteReinit,
                        format!(
                            "this branch re-initializes {} to their reset values but \
                             not `{lone}`; `{lone}` carries the previous run's value \
                             into the next",
                            names.join(", ")
                        ),
                    )
                    .with_span(members[0].2)
                    .with_signal(lone),
                );
            }
        }
    }
}
