//! `L0501`: static index-range analysis — the paper's buffer-overflow
//! class, where an index register can run past the end of a memory (or a
//! bit-vector) and the out-of-range accesses are silently dropped.

use crate::analysis::{self, wrap_bound};
use crate::{LintPass, LintSink};
use hwdbg_dataflow::guard::{self, Guard};
use hwdbg_dataflow::{Design, SigKind};
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{BinaryOp, Expr, LValue, Span, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// The statically provable maximum of an index register.
struct IdxBound {
    max: u64,
    /// Span of the assignment that makes the register unbounded (an
    /// unguarded increment), when one exists — the best place to point.
    unbounded_at: Option<Span>,
}

/// Checks every `mem[r]` / `vec[r]` access where `r` is a plain register:
/// the register's reachable maximum is derived inductively from its
/// assignments (constants contribute their value; `r <= r + 1` guarded by
/// a wrap test `r == K` / `r != K` / `r < K` contributes `K`; anything
/// else contributes `2^w - 1`) and compared against the addressed range.
pub struct MemIndexPass;

impl LintPass for MemIndexPass {
    fn id(&self) -> &'static str {
        "mem-index-range"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintMemIndexRange]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let bounds = index_bounds(design);

        // Every identifier-indexed access in the design, plus constant
        // indices for a cheap exact check.
        let mut ident_accesses: BTreeSet<(&str, &str)> = BTreeSet::new();
        let mut const_accesses: BTreeSet<(&str, u64)> = BTreeSet::new();
        for body in design
            .procs
            .iter()
            .map(|p| &p.body)
            .chain(design.combs.iter().map(|c| &c.body))
        {
            scan_accesses(design, body, &mut ident_accesses, &mut const_accesses);
        }

        for (mem, idx) in ident_accesses {
            let Some(limit) = addr_limit(design, mem) else {
                continue;
            };
            let Some(bound) = bounds.get(idx) else {
                continue;
            };
            if bound.max <= limit {
                continue;
            }
            let what = if design.signals.get(mem).is_some_and(|s| s.mem_depth.is_some()) {
                "entries"
            } else {
                "bits"
            };
            let mut err = HwdbgError::warning(
                ErrorCode::LintMemIndexRange,
                format!(
                    "index `{idx}` can reach {} but `{mem}` only has {} {what} \
                     (valid indices 0..={limit}); out-of-range accesses are \
                     silently dropped",
                    bound.max,
                    limit + 1
                ),
            )
            .with_signal(mem)
            .with_signal(idx);
            // Point at the unguarded increment when the register is
            // unbounded (the missing wrap is the bug); otherwise at the
            // too-small declaration.
            if let Some(span) = bound
                .unbounded_at
                .or_else(|| design.flat.net(mem).map(|d| d.span))
            {
                err = err.with_span(span);
            }
            sink.emit(err);
        }
        for (mem, idx) in const_accesses {
            let Some(limit) = addr_limit(design, mem) else {
                continue;
            };
            if idx <= limit {
                continue;
            }
            let mut err = HwdbgError::warning(
                ErrorCode::LintMemIndexRange,
                format!(
                    "constant index {idx} is out of range for `{mem}` \
                     (valid indices 0..={limit})"
                ),
            )
            .with_signal(mem);
            if let Some(decl) = design.flat.net(mem) {
                err = err.with_span(decl.span);
            }
            sink.emit(err);
        }
    }
}

/// Valid-index limit of an addressable signal: `depth - 1` for memories,
/// `width - 1` for multi-bit vectors.
fn addr_limit(design: &Design, name: &str) -> Option<u64> {
    let sig = design.signals.get(name)?;
    match sig.mem_depth {
        Some(depth) => Some(depth.saturating_sub(1)),
        None if sig.width > 1 => Some(u64::from(sig.width) - 1),
        None => None,
    }
}

/// Derives the reachable maximum of every plain unsigned index register.
fn index_bounds(design: &Design) -> BTreeMap<&str, IdxBound> {
    let mut bounds: BTreeMap<&str, IdxBound> = BTreeMap::new();
    for proc in &design.procs {
        let mut guards = Vec::new();
        guard::walk(&proc.body, &mut guards, &mut |guards, stmt| {
            let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                return;
            };
            for name in lhs.target_names() {
                let Some(sig) = design.signals.get(name) else {
                    continue;
                };
                if sig.kind != SigKind::Reg
                    || sig.signed
                    || sig.mem_depth.is_some()
                    || sig.width > 32
                {
                    continue;
                }
                let ceiling = (1u64 << sig.width) - 1;
                let (value, bounded) = match contribution(design, name, lhs, rhs, guards) {
                    Contribution::Hold => continue,
                    Contribution::Const(v) => (v.min(ceiling), true),
                    Contribution::BoundedInc(k) => (k.min(ceiling), true),
                    Contribution::Unbounded => (ceiling, false),
                };
                let entry = bounds.entry(name).or_insert(IdxBound {
                    max: 0,
                    unbounded_at: None,
                });
                if value >= entry.max {
                    entry.max = value;
                    if !bounded {
                        entry.unbounded_at.get_or_insert(*span);
                    }
                }
            }
        });
    }
    bounds
}

enum Contribution {
    /// `r <= r` — no new value.
    Hold,
    /// A constant assignment.
    Const(u64),
    /// `r <= r + 1` under a wrap guard proving the result stays `<= K`.
    BoundedInc(u64),
    /// Anything else: assume the full range.
    Unbounded,
}

fn contribution(
    design: &Design,
    name: &str,
    lhs: &LValue,
    rhs: &Expr,
    guards: &[Guard<'_>],
) -> Contribution {
    if !matches!(lhs, LValue::Id(_)) {
        // A partial write scrambles the value unpredictably.
        return Contribution::Unbounded;
    }
    if matches!(rhs, Expr::Ident(n) if n == name) {
        return Contribution::Hold;
    }
    if let Some(v) = analysis::const_value(rhs, design) {
        if v.width() <= 64 {
            return Contribution::Const(v.to_u64());
        }
        return Contribution::Unbounded;
    }
    // `r <= r + 1` (either operand order).
    let is_inc_by_one = matches!(rhs, Expr::Binary(BinaryOp::Add, a, b)
        if (matches!(&**a, Expr::Ident(n) if n == name)
                && analysis::const_value(b, design).is_some_and(|v| v.width() <= 64 && v.to_u64() == 1))
            || (matches!(&**b, Expr::Ident(n) if n == name)
                && analysis::const_value(a, design).is_some_and(|v| v.width() <= 64 && v.to_u64() == 1)));
    if is_inc_by_one {
        for c in guard::leaves(guards) {
            if let Some((n, k)) = wrap_bound(&c, design) {
                if n == name {
                    return Contribution::BoundedInc(k);
                }
            }
        }
    }
    Contribution::Unbounded
}

/// Collects `base[index]` accesses from expressions and lvalues, splitting
/// identifier indices from constant ones. `$display` arguments are skipped
/// — debug reads are not datapath accesses.
fn scan_accesses<'a>(
    design: &Design,
    stmt: &'a Stmt,
    idents: &mut BTreeSet<(&'a str, &'a str)>,
    consts: &mut BTreeSet<(&'a str, u64)>,
) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                scan_accesses(design, s, idents, consts);
            }
        }
        Stmt::If { cond, then, els } => {
            scan_expr(design, cond, idents, consts);
            scan_accesses(design, then, idents, consts);
            if let Some(e) = els {
                scan_accesses(design, e, idents, consts);
            }
        }
        Stmt::Case {
            expr,
            arms,
            default,
            ..
        } => {
            scan_expr(design, expr, idents, consts);
            for arm in arms {
                for l in &arm.labels {
                    scan_expr(design, l, idents, consts);
                }
                scan_accesses(design, &arm.body, idents, consts);
            }
            if let Some(d) = default {
                scan_accesses(design, d, idents, consts);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            scan_expr(design, init, idents, consts);
            scan_expr(design, cond, idents, consts);
            scan_expr(design, step, idents, consts);
            scan_accesses(design, body, idents, consts);
        }
        Stmt::Assign { lhs, rhs, .. } => {
            scan_expr(design, rhs, idents, consts);
            if let LValue::Index(base, idx) = lhs {
                note_index(design, base, idx, idents, consts);
            }
        }
        Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => {}
    }
}

fn scan_expr<'a>(
    design: &Design,
    e: &'a Expr,
    idents: &mut BTreeSet<(&'a str, &'a str)>,
    consts: &mut BTreeSet<(&'a str, u64)>,
) {
    visit_indices(e, &mut |base, idx| note_index(design, base, idx, idents, consts));
}

fn note_index<'a>(
    design: &Design,
    base: &'a str,
    idx: &'a Expr,
    idents: &mut BTreeSet<(&'a str, &'a str)>,
    consts: &mut BTreeSet<(&'a str, u64)>,
) {
    match idx {
        Expr::Ident(n) => {
            idents.insert((base, n));
        }
        _ => {
            if let Some(v) = analysis::const_value(idx, design) {
                if v.width() <= 64 {
                    consts.insert((base, v.to_u64()));
                }
            }
        }
    }
}

fn visit_indices<'a>(e: &'a Expr, f: &mut impl FnMut(&'a str, &'a Expr)) {
    match e {
        Expr::Index(base, idx) => {
            f(base, idx);
            visit_indices(idx, f);
        }
        Expr::Unary(_, a) | Expr::WidthCast(_, a) | Expr::SignCast(_, a) => visit_indices(a, f),
        Expr::Binary(_, a, b) | Expr::Repeat(a, b) => {
            visit_indices(a, f);
            visit_indices(b, f);
        }
        Expr::Ternary(c, t, el) => {
            visit_indices(c, f);
            visit_indices(t, f);
            visit_indices(el, f);
        }
        Expr::Range(_, a, b) => {
            visit_indices(a, f);
            visit_indices(b, f);
        }
        Expr::Concat(parts) => {
            for p in parts {
                visit_indices(p, f);
            }
        }
        Expr::Literal { .. } | Expr::Ident(_) => {}
    }
}
