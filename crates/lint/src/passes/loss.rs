//! Signal-loss lints: the paper's LossCheck class, applied statically.
//!
//! A value is "lost" when a write can never be observed: overwritten on the
//! same path before the flop updates, stored in a register nothing reads,
//! dropped because a sticky error flag gates the datapath shut, or thrown
//! away because a re-init branch forgot one register.

use crate::analysis::{self, ident_leaf, leaf_key, FlagWrite};
use crate::{LintPass, LintSink};
use hwdbg_bits::Bits;
use hwdbg_dataflow::guard::{self, Guard};
use hwdbg_dataflow::{eval_typed, Design, SigId};
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
        let index = design.index();
        // Per signal: read by logic, read by a `$display`.
        let n = design.table.len();
        let (mut logic, mut display) = (vec![false; n], vec![false; n]);
        let mark = |set: &mut [bool], name: &str| {
            if let Some(id) = design.sig_id(name) {
                set[id.index()] = true;
            }
        };
        for body in design.bodies() {
            guard::walk(body, &mut Vec::new(), &mut |_, stmt| {
                let reads = match stmt {
                    Stmt::Display { .. } => &mut display,
                    _ => &mut logic,
                };
                stmt.visit_exprs(&mut |e| e.visit_idents(&mut |r| mark(reads, r)));
                // Index expressions inside an lvalue are reads (the base
                // is a write).
                if let Stmt::Assign { lhs, .. } = stmt {
                    lhs.visit_exprs(&mut |e| e.visit_idents(&mut |r| mark(&mut logic, r)));
                }
            });
        }
        for proc in &design.procs {
            proc.edges.iter().for_each(|e| mark(&mut logic, &e.signal));
        }
        for bb in &design.blackboxes {
            // Index expressions inside out-connection lvalues are reads.
            for lv in bb.out_conns.values() {
                lv.visit_exprs(&mut |e| e.visit_idents(&mut |r| mark(&mut logic, r)));
            }
        }

        let logic = |id: SigId| logic[id.index()] || index.facts(id).bb_read;
        for (id, name) in design.table.iter() {
            if logic(id) || display[id.index()] {
                continue;
            }
            let f = index.facts(id);
            if f.input || f.output {
                continue;
            }
            sink.emit(
                HwdbgError::warning(
                    ErrorCode::LintNeverRead,
                    format!("`{name}` is never read; every value written to it is lost"),
                )
                .with_signal(name)
                .with_span(design.decl(id).span),
            );
        }
        for (id, name) in design.table.iter() {
            if index.facts(id).input && display[id.index()] && !logic(id) {
                sink.emit(
                    HwdbgError::warning(
                        ErrorCode::LintInputIgnored,
                        format!(
                            "input `{name}` only reaches $display statements; no logic \
                             consumes it"
                        ),
                    )
                    .with_signal(name)
                    .with_span(design.decl(id).span),
                );
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
        let index = design.index();
        // Non-constant writes gated by a negated flag mark that flag as
        // traffic-blocking.
        let mut gated = vec![false; design.table.len()];
        for proc in &design.procs {
            guard::walk(&proc.body, &mut Vec::new(), &mut |guards, stmt| {
                let Stmt::Assign { rhs, .. } = stmt else {
                    return;
                };
                if analysis::const_value(rhs, design).is_some() {
                    return;
                }
                for c in guard::leaves(guards) {
                    if let Some(id) = ident_leaf(&c)
                        .filter(|&(_, positive)| !positive)
                        .and_then(|(n, _)| design.sig_id(n))
                    {
                        gated[id.index()] = true;
                    }
                }
            });
        }
        // Sticky: set outside reset, cleared by reset, and written no
        // other way (cleared or recomputed outside reset, or set from
        // reset, is not sticky).
        let set = |w: &FlagWrite| w.value == Some(true) && !w.in_reset;
        let clear = |w: &FlagWrite| w.value == Some(false) && w.in_reset;
        for (id, writes) in analysis::flag_writes(design, &analysis::Resets::of(design)) {
            if index.facts(id).output || !gated[id.index()] {
                continue;
            }
            let Some(span) = writes.iter().find(|w| set(w)).map(|w| w.span) else {
                continue;
            };
            if !writes.iter().any(clear) || !writes.iter().all(|w| set(w) || clear(w)) {
                continue;
            }
            let name = design.table.name(id);
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
        let resets = analysis::Resets::of(design);
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
                let in_reset = resets.in_reset(guards);
                let cval = eval_typed(rhs, &design.consts).ok().and_then(|(v, ty)| {
                    let w = match lhs {
                        LValue::Id(n) => design.signal(n)?.width,
                        _ => return None,
                    };
                    Some(ty.fit(&v, w))
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
