//! Guard-path helpers for lint passes.
//!
//! Passes visit procedural code with [`guard::walk`], which hands each
//! statement the `if`/`case`/`for` guards that dominate it, and decompose
//! a path into conjunct leaves with [`guard::leaves`] — the individual
//! boolean facts that must hold on it. The helpers here interpret those
//! leaves, so passes can ask questions like "is this write under a positive
//! reset?" or "does this set-site wait for `ready`?" without
//! re-implementing boolean reasoning.

use hwdbg_bits::Bits;
use hwdbg_dataflow::guard::{self, CondLeaf, Guard};
use hwdbg_dataflow::{eval_const, Design, SigId, SigKind};
use hwdbg_rtl::{print_expr, BinaryOp, Expr, LValue, Span, Stmt, UnaryOp};
use std::collections::{BTreeMap, BTreeSet};

/// The leaf's plain identifier name, if it is a bare signal test.
pub fn ident_leaf<'a>(c: &CondLeaf<'a>) -> Option<(&'a str, bool)> {
    match c.expr {
        Expr::Ident(n) => Some((n, c.positive)),
        _ => None,
    }
}

/// Decomposes a leaf that proves an inductive wrap bound for a counter
/// incremented by one: returns `(register, K)` such that whenever the
/// leaf holds, `register + 1 <= K`.
///
/// Recognized shapes: the `else` of `if (r == K)` (and `r != K`), and the
/// `then` of `if (r < K)`, with `K` constant under the design's parameters.
pub fn wrap_bound<'a>(c: &CondLeaf<'a>, design: &Design) -> Option<(&'a str, u64)> {
    let Expr::Binary(op, a, b) = c.expr else {
        return None;
    };
    match op {
        BinaryOp::Eq | BinaryOp::Ne => {
            let (name, k) = match (&**a, &**b) {
                (Expr::Ident(n), rhs) => (n.as_str(), const_u64(rhs, design)?),
                (lhs, Expr::Ident(n)) => (n.as_str(), const_u64(lhs, design)?),
                _ => return None,
            };
            // `r != K` on the path (either `if (r != K)` taken, or the
            // `else` of `if (r == K)`): r < K inductively, so r+1 <= K.
            let holds_ne = (*op == BinaryOp::Ne) == c.positive;
            holds_ne.then_some((name, k))
        }
        BinaryOp::Lt => {
            if let (Expr::Ident(n), rhs) = (&**a, &**b) {
                // `if (r < K)`: r <= K-1 here, so r+1 <= K.
                (c.positive).then_some((n.as_str(), const_u64(rhs, design)?))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Evaluates an expression to a constant of at most 64 bits.
pub fn const_u64(e: &Expr, design: &Design) -> Option<u64> {
    const_value(e, design)
        .filter(|v| v.width() <= 64)
        .map(|v| v.to_u64())
}

/// Evaluates an expression to a constant under the design's parameters.
pub fn const_value(e: &Expr, design: &Design) -> Option<Bits> {
    eval_const(e, &design.consts).ok()
}

/// A stable textual key identifying one guard path, including case-arm
/// identity — two assignments share a key iff they execute under the same
/// syntactic guards. A `for` guard reads like a taken `if`.
pub fn path_key(guards: &[Guard<'_>]) -> String {
    let mut parts = Vec::with_capacity(guards.len());
    for g in guards {
        match *g {
            Guard::If(cond, positive) => {
                let sign = if positive { '+' } else { '-' };
                parts.push(format!("{sign}({})", print_expr(cond)));
            }
            Guard::Loop(cond) => parts.push(format!("+({})", print_expr(cond))),
            Guard::Arm {
                subject,
                arms,
                index,
            } => {
                let labels: Vec<String> = arms[index].labels.iter().map(print_expr).collect();
                parts.push(format!("arm({}:{})", print_expr(subject), labels.join(",")));
            }
            Guard::Default { subject, .. } => {
                parts.push(format!("def({})", print_expr(subject)));
            }
        }
    }
    parts.join("&")
}

/// A stable key for one leaf (expression text plus polarity), used for
/// subset comparisons between paths.
pub fn leaf_key(c: &CondLeaf<'_>) -> String {
    let sign = if c.positive { '+' } else { '-' };
    format!("{sign}({})", print_expr(c.expr))
}

/// The reset-style top-level inputs of a design: inputs whose lowercase
/// name contains `rst` or `reset`.
pub struct Resets<'d> {
    design: &'d Design,
    ids: Vec<SigId>,
}

impl<'d> Resets<'d> {
    /// Finds the reset inputs among the design's input ports.
    pub fn of(design: &'d Design) -> Resets<'d> {
        let index = design.index();
        let ids = design
            .table
            .iter()
            .filter(|&(id, name)| {
                let n = name.to_lowercase();
                index.facts(id).input && (n.contains("rst") || n.contains("reset"))
            })
            .map(|(id, _)| id)
            .collect();
        Resets { design, ids }
    }

    /// True when `name` is a reset input.
    pub fn contains(&self, name: &str) -> bool {
        self.design
            .sig_id(name)
            .is_some_and(|id| self.ids.contains(&id))
    }

    /// True when the path's leaves include a positive bare test of a reset
    /// input — i.e. the statement is part of reset initialization.
    pub fn in_reset(&self, guards: &[Guard<'_>]) -> bool {
        guard::leaves(guards)
            .iter()
            .filter_map(ident_leaf)
            .any(|(n, positive)| positive && self.contains(n))
    }
}

/// One write of a flag: a one-bit, non-memory state register.
pub struct FlagWrite {
    /// The bit written, when the write is whole and constant.
    pub value: Option<bool>,
    /// True under a positive reset test ([`Resets::in_reset`]).
    pub in_reset: bool,
    /// The assignment.
    pub span: Span,
    /// The signals the path tests positively, as bare identifiers.
    pub positive_deps: BTreeSet<SigId>,
}

/// Every write of every flag, by flag, in design order: the shape of a
/// hand-rolled control, handshake or error flag.
pub fn flag_writes(design: &Design, resets: &Resets<'_>) -> BTreeMap<SigId, Vec<FlagWrite>> {
    let mut out: BTreeMap<SigId, Vec<FlagWrite>> = BTreeMap::new();
    for proc in &design.procs {
        guard::walk(&proc.body, &mut Vec::new(), &mut |guards, stmt| {
            let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                return;
            };
            for name in lhs.target_names() {
                let Some(id) = design.sig_id(name).filter(|&id| {
                    let s = &design.signals[id];
                    s.width == 1 && s.mem_depth.is_none() && s.is_state()
                }) else {
                    continue;
                };
                let whole = matches!(lhs, LValue::Id(_));
                out.entry(id).or_default().push(FlagWrite {
                    value: const_value(rhs, design)
                        .filter(|_| whole)
                        .map(|v| !v.is_zero()),
                    in_reset: resets.in_reset(guards),
                    span: *span,
                    positive_deps: guard::leaves(guards)
                        .iter()
                        .filter_map(ident_leaf)
                        .filter_map(|(n, positive)| positive.then(|| design.sig_id(n)).flatten())
                        .collect(),
                });
            }
        });
    }
    out
}

/// A registered valid/ready stream endpoint this design *produces*: the
/// valid is driven by local state while ready comes back from outside.
#[derive(Debug, Clone)]
pub struct StreamPair {
    /// The locally-registered valid flag (e.g. `tvalid`, `m_valid`).
    pub valid: SigId,
    /// The matching ready input (e.g. `tready`, `m_ready`).
    pub ready: SigId,
    /// Registered payload signals of the stream (`tdata`, `m_last`, …).
    pub payloads: Vec<SigId>,
}

/// Payload-name suffixes of an AXI-Stream-style channel.
const PAYLOAD_SUFFIXES: [&str; 6] = ["data", "last", "keep", "strb", "user", "id"];

/// Finds every produced stream: a `*valid` register whose `*ready`
/// counterpart is an input port, together with the registered payload
/// signals sharing the prefix. Combinationally-driven valids (FIFO
/// occupancy flags) are not producers in the stability sense and are
/// excluded.
pub fn stream_pairs(design: &Design) -> Vec<StreamPair> {
    let index = design.index();
    let reg = |name: &str| {
        design
            .sig_id(name)
            .filter(|&id| design.signals[id].kind == SigKind::Reg)
    };
    let mut out = Vec::new();
    for (valid, name) in design.table.iter() {
        let Some(stem) = name.strip_suffix("valid") else {
            continue;
        };
        if design.signals[valid].kind != SigKind::Reg {
            continue;
        }
        let Some(ready) = design
            .sig_id(&format!("{stem}ready"))
            .filter(|&id| index.facts(id).input)
        else {
            continue;
        };
        let mut payloads: Vec<SigId> = PAYLOAD_SUFFIXES
            .iter()
            .filter_map(|s| reg(&format!("{stem}{s}")))
            .collect();
        let bare = stem.trim_end_matches('_');
        if !bare.is_empty() {
            payloads.extend(reg(bare));
        }
        if !payloads.is_empty() {
            out.push(StreamPair {
                valid,
                ready,
                payloads,
            });
        }
    }
    out
}

/// True when a propagation-condition leaf qualifies a payload advance
/// against the `valid`/`ready` handshake: a positive `ready` test, a
/// negative `valid` test (slot empty), or the idiomatic composite
/// `!valid || ready` kept opaque as a positive disjunction.
pub fn qualifies_advance(leaf: &CondLeaf<'_>, valid: &str, ready: &str) -> bool {
    match leaf.expr {
        Expr::Ident(n) if leaf.positive && n == ready => true,
        Expr::Ident(n) if !leaf.positive && n == valid => true,
        Expr::Binary(BinaryOp::LogOr, a, b) if leaf.positive => {
            let is_not_valid = |e: &Expr| {
                matches!(e, Expr::Unary(UnaryOp::LogNot | UnaryOp::Not, inner)
                    if matches!(&**inner, Expr::Ident(n) if n == valid))
            };
            let is_ready = |e: &Expr| matches!(e, Expr::Ident(n) if n == ready);
            (is_not_valid(a) && is_ready(b)) || (is_ready(a) && is_not_valid(b))
        }
        _ => false,
    }
}

/// Largest count for which `count OP k` holds with the given polarity, or
/// `None` when the comparison does not bound the count from above. This is
/// the interval-abstraction step of the occupancy pass: an admission
/// guard `G` admits a write whenever `G` holds, so the worst-case
/// occupancy at the write is this bound.
pub fn cmp_bound(op: BinaryOp, k: u64, positive: bool) -> Option<u64> {
    if positive {
        match op {
            BinaryOp::Lt => k.checked_sub(1),
            BinaryOp::Le => Some(k),
            _ => None,
        }
    } else {
        match op {
            BinaryOp::Gt => Some(k),
            BinaryOp::Ge => k.checked_sub(1),
            _ => None,
        }
    }
}

/// The right-hand side and span of the continuous assignment `assign
/// name = rhs;` (the last, if several): one level of combinational
/// aliasing (`full`, `count`, …) to expand when interpreting guards.
pub fn comb_alias<'d>(design: &'d Design, name: &str) -> Option<(&'d Expr, Span)> {
    let writers = &design.index().comb_writers;
    let mut drivers = writers.get(design.sig_id(name)?).iter().rev();
    drivers.find_map(|&c| match &design.combs[c as usize].body {
        Stmt::Assign {
            lhs: LValue::Id(w),
            rhs,
            span,
            ..
        } if w == name => Some((rhs, *span)),
        _ => None,
    })
}

/// Number of bits needed to represent `v` (at least 1).
pub fn significant_bits(v: &Bits) -> u32 {
    for i in (0..v.width()).rev() {
        if v.bit(i) {
            return i + 1;
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significant_bits_scans_from_msb() {
        assert_eq!(significant_bits(&Bits::from_u64(32, 0)), 1);
        assert_eq!(significant_bits(&Bits::from_u64(32, 1)), 1);
        assert_eq!(significant_bits(&Bits::from_u64(32, 12)), 4);
        assert_eq!(significant_bits(&Bits::from_u64(64, u64::MAX)), 64);
    }
}
