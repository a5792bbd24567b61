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
use hwdbg_dataflow::{eval_const, Design, SigKind};
use hwdbg_rtl::{print_expr, BinaryOp, Dir, Expr, LValue, Span, Stmt, UnaryOp};
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

fn const_u64(e: &Expr, design: &Design) -> Option<u64> {
    let v = eval_const(e, &design.consts).ok()?;
    if v.width() <= 64 {
        Some(v.to_u64())
    } else {
        None
    }
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

/// Names of reset-style top-level inputs (lowercase name contains `rst` or
/// `reset`).
pub fn reset_inputs(design: &Design) -> BTreeSet<String> {
    design
        .flat
        .ports
        .iter()
        .filter(|p| p.dir == Dir::Input)
        .filter(|p| {
            let n = p.net.name.to_lowercase();
            n.contains("rst") || n.contains("reset")
        })
        .map(|p| p.net.name.clone())
        .collect()
}

/// True when the path's leaves include a positive bare test of a reset
/// input — i.e. the statement is part of reset initialization.
pub fn in_reset(guards: &[Guard<'_>], resets: &BTreeSet<String>) -> bool {
    guard::leaves(guards)
        .iter()
        .filter_map(ident_leaf)
        .any(|(n, positive)| positive && resets.contains(n))
}

/// Output-port names of the flat module. Clock-written outputs are
/// classified [`SigKind::Reg`](hwdbg_dataflow::SigKind) in
/// [`Design::signals`], so port direction must come from the module AST.
pub fn output_ports(design: &Design) -> BTreeSet<String> {
    design
        .flat
        .ports
        .iter()
        .filter(|p| p.dir == Dir::Output)
        .map(|p| p.net.name.clone())
        .collect()
}

/// Input-port names of the flat module.
pub fn input_ports(design: &Design) -> BTreeSet<String> {
    design
        .flat
        .ports
        .iter()
        .filter(|p| p.dir == Dir::Input)
        .map(|p| p.net.name.clone())
        .collect()
}

/// A registered valid/ready stream endpoint this design *produces*: the
/// valid is driven by local state while ready comes back from outside.
#[derive(Debug, Clone)]
pub struct StreamPair {
    /// The locally-registered valid flag (e.g. `tvalid`, `m_valid`).
    pub valid: String,
    /// The matching ready input (e.g. `tready`, `m_ready`).
    pub ready: String,
    /// Registered payload signals of the stream (`tdata`, `m_last`, …).
    pub payloads: Vec<String>,
}

/// Payload-name suffixes of an AXI-Stream-style channel.
const PAYLOAD_SUFFIXES: [&str; 6] = ["data", "last", "keep", "strb", "user", "id"];

/// Finds every produced stream: a `*valid` register whose `*ready`
/// counterpart is an input port, together with the registered payload
/// signals sharing the prefix. Combinationally-driven valids (FIFO
/// occupancy flags) are not producers in the stability sense and are
/// excluded.
pub fn stream_pairs(design: &Design) -> Vec<StreamPair> {
    let inputs = input_ports(design);
    let mut out = Vec::new();
    for (name, info) in &design.signals {
        if info.kind != SigKind::Reg || !name.ends_with("valid") {
            continue;
        }
        let stem = &name[..name.len() - "valid".len()];
        let ready = format!("{stem}ready");
        if !inputs.contains(&ready) {
            continue;
        }
        let mut payloads = Vec::new();
        let mut candidates: Vec<String> = PAYLOAD_SUFFIXES
            .iter()
            .map(|s| format!("{stem}{s}"))
            .collect();
        let bare = stem.trim_end_matches('_');
        if !bare.is_empty() {
            candidates.push(bare.to_owned());
        }
        for c in candidates {
            if design.signals.get(&c).is_some_and(|s| s.kind == SigKind::Reg) {
                payloads.push(c);
            }
        }
        if !payloads.is_empty() {
            out.push(StreamPair {
                valid: name.clone(),
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

/// Single-target continuous-assign drivers: `name -> (rhs, span)`. Used to
/// expand one level of combinational aliasing (`full`, `count`, …) when
/// interpreting guards.
pub fn comb_aliases(design: &Design) -> BTreeMap<&str, (&Expr, Span)> {
    let mut out = BTreeMap::new();
    for c in &design.combs {
        if let Stmt::Assign {
            lhs: LValue::Id(n),
            rhs,
            span,
            ..
        } = &c.body
        {
            out.insert(n.as_str(), (rhs, *span));
        }
    }
    out
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
