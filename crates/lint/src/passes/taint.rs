//! Dataflow-taint lints over the propagation-relation table.
//!
//! These passes consume [`PropGraph`] (the paper's §4.5.1 `X ⇝σ Y` table)
//! instead of re-walking the AST: each relation carries the exact path
//! condition under which a value moves, so handshake qualification,
//! backpressure reachability, and occupancy admission all become questions
//! about relation conditions and graph closures.
//!
//! - [`QualificationPass`] (`L0603`): payload registers of a produced
//!   valid/ready stream must only advance under their handshake — the
//!   AXI-Stream stability rule (study subclass S2, protocol violation).
//! - [`BackpressurePass`] (`L0604`): a ready/stall/busy output with an
//!   empty backward closure is tied off; if the constant *admits* the
//!   upstream stream, the producer can never be throttled (subclass C2,
//!   producer-consumer mismatch).
//! - [`OccupancyPass`] (`L0605`/`L0606`): abstract interpretation of
//!   wrap-free FIFO pointer counts: the admission guard bounds occupancy
//!   at each write, and the bound plus skid/staleness margin must stay
//!   within the memory depth (subclasses D4 buffer overflow and C4
//!   signal asynchrony).
//! - [`PrecisionPass`] (`L0502`): width-interval propagation through
//!   casts and shifts — `W'(x) >> k` discards the high bits the shift was
//!   meant to keep (subclass D6, bit truncation).

use crate::analysis::{
    self, cmp_bound, comb_aliases, const_value, in_reset, qualifies_advance, reset_inputs,
    stream_pairs,
};
use crate::{LintPass, LintSink};
use hwdbg_dataflow::guard::{self, cond_leaves, CondLeaf};
use hwdbg_dataflow::{DepKind, Design, PropGraph, SigKind};
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{BinaryOp, Dir, Expr, Span, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// `L0603`: a stream payload register advances without its valid/ready
/// qualification.
///
/// For every produced stream (registered `*valid` with an external
/// `*ready`), each latency-1 data relation into a payload register must be
/// conditioned on the handshake: a positive `ready`, a negative `valid`
/// (slot known empty), or the composite `!valid || ready`. An advance
/// relation with none of these can replace a word the consumer has not
/// taken — the §3.3 protocol-violation fingerprint.
pub struct QualificationPass;

impl LintPass for QualificationPass {
    fn id(&self) -> &'static str {
        "qual-taint"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintUnqualifiedAdvance]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let graph = design.local_graph();
        for pair in stream_pairs(design) {
            for payload in &pair.payloads {
                let Some(pid) = graph.id(payload) else {
                    continue;
                };
                let mut flagged = false;
                for rel in graph.incoming_ids(pid) {
                    if flagged
                        || rel.kind != DepKind::Data
                        || rel.latency != 1
                        || rel.src == rel.dst
                    {
                        continue;
                    }
                    let qualified = cond_leaves(&rel.cond)
                        .iter()
                        .any(|l| qualifies_advance(l, &pair.valid, &pair.ready));
                    if qualified {
                        continue;
                    }
                    flagged = true;
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintUnqualifiedAdvance,
                            format!(
                                "stream payload `{payload}` advances without its \
                                 handshake: the assignment is not conditioned on \
                                 `{ready}` (or `!{valid}`), so a stalled word is \
                                 overwritten while `{valid}` is high",
                                ready = pair.ready,
                                valid = pair.valid,
                            ),
                        )
                        .with_span(rel.span)
                        .with_signals([
                            payload.as_str(),
                            pair.valid.as_str(),
                            pair.ready.as_str(),
                        ]),
                    );
                }
            }
        }
    }
}

/// `L0604`: a backpressure output is tied to a constant that permanently
/// admits the upstream stream.
///
/// For each 1-bit `*ready`/`*stall`/`*busy` output port with a sibling
/// `*valid` input that actually feeds design state, the backward closure
/// of the output over the propagation graph is computed. An empty closure
/// (no input, no register — nothing can ever change the value) combined
/// with a constant driver of *permissive* polarity (ready high, stall/busy
/// low) means the producer can never be throttled: the study's §3.3.2
/// bounded-buffer race.
pub struct BackpressurePass;

/// Suffixes of backpressure outputs, with the constant value (as a bool)
/// that *blocks* the stream; the opposite polarity is permissive.
const BACKPRESSURE_SUFFIXES: [(&str, bool); 3] =
    [("ready", false), ("stall", true), ("busy", true)];

impl LintPass for BackpressurePass {
    fn id(&self) -> &'static str {
        "backpressure"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintConstantBackpressure]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let graph = design.local_graph();
        let aliases = comb_aliases(design);
        let inputs = analysis::input_ports(design);
        // Signals a blackbox instance drives: their fan-in is invisible to
        // the local graph, so anything they reach must be skipped.
        let bb_driven: BTreeSet<String> = design
            .blackboxes
            .iter()
            .flat_map(|b| b.out_conns.values())
            .flat_map(|lv| lv.target_names().into_iter().map(str::to_owned))
            .collect();
        for port in &design.flat.ports {
            if port.dir != Dir::Output {
                continue;
            }
            let name = port.net.name.as_str();
            let Some(&(suf, blocking)) = BACKPRESSURE_SUFFIXES
                .iter()
                .find(|(suf, _)| name.ends_with(suf))
            else {
                continue;
            };
            let info = design.signals.get(name);
            if info.is_none_or(|s| {
                s.width != 1 || !matches!(s.kind, SigKind::Comb | SigKind::Output)
            }) {
                continue;
            }
            // The stream being admitted: a sibling valid *input* that
            // feeds local state (the design really consumes the stream).
            let stem = &name[..name.len() - suf.len()];
            let valid = [format!("{stem}valid"), format!("{stem}_valid")]
                .into_iter()
                .find(|v| inputs.contains(v));
            let Some(valid) = valid else {
                continue;
            };
            let consumed = graph.id(&valid).is_some_and(|vid| {
                graph.outgoing_ids(vid).any(|r| {
                    design
                        .signals
                        .get(graph.name(r.dst))
                        .is_some_and(|s| s.kind == SigKind::Reg)
                })
            });
            if !consumed {
                continue;
            }
            let Some(out_id) = graph.id(name) else {
                continue;
            };
            let closure = graph.backward_closure(out_id, &[DepKind::Data, DepKind::Control]);
            let dynamic = closure.iter().any(|&id| {
                let n = graph.name(id);
                inputs.contains(n)
                    || bb_driven.contains(n)
                    || design
                        .signals
                        .get(n)
                        .is_some_and(|s| s.kind == SigKind::Reg)
            });
            if dynamic {
                continue;
            }
            // Constant-tied: confirm the polarity from the driver itself.
            let Some(&(rhs, span)) = aliases.get(name) else {
                continue;
            };
            let Some(v) = const_value(rhs, design) else {
                continue;
            };
            if (v.to_u64() != 0) == blocking {
                continue; // tied off in the *blocking* direction: no overrun
            }
            sink.emit(
                HwdbgError::warning(
                    ErrorCode::LintConstantBackpressure,
                    format!(
                        "backpressure output `{name}` is tied to a constant that \
                         always admits the `{valid}` stream; the producer can \
                         never be throttled, so a slow consumer overruns its \
                         buffer"
                    ),
                )
                .with_span(span)
                .with_signals([name, valid.as_str()]),
            );
        }
    }
}

/// One detected FIFO counting scheme: `wr - rd` occupancy (wrap-free,
/// pointers one bit wider than the index) against a declared memory.
struct Fifo {
    mem: String,
    depth: u64,
}

/// An admission fact extracted from one guard conjunct: writes are only
/// admitted while the occupancy count is at most `bound`, observed
/// `staleness` cycles ago, with the bound's definition at `span`.
struct Admission {
    fifo: Fifo,
    bound: u64,
    staleness: u64,
    span: Span,
}

/// `L0605`/`L0606`: abstract interpretation of FIFO occupancy.
///
/// The pass recognizes the wrap-free counting idiom — `wr_ptr - rd_ptr`
/// compared against a constant, pointers one bit wider than the memory
/// index — and computes, for every write that enters the FIFO, the
/// worst-case occupancy the admission guard permits:
///
/// ```text
/// occupancy_after = bound + staleness + skid + 1
/// ```
///
/// where `bound` is the largest count satisfying the guard (interval
/// abstraction of the comparison), `staleness` is 1 when the guard is
/// observed through a registered flag (one more write can slip in),
/// and `skid` is 1 when the write lands in a staging register that
/// drains into the RAM (one more word in flight). If the result exceeds
/// the memory depth, the oldest unread slot is overwritten. A direct
/// off-by-one full test raises `L0605` (subclass D4); a margin eaten by
/// skid/staleness raises `L0606` (subclass C4). Writes with no
/// recognizable admission guard are skipped — intentional drop-on-full
/// designs stay silent.
pub struct OccupancyPass;

impl LintPass for OccupancyPass {
    fn id(&self) -> &'static str {
        "occupancy"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[
            ErrorCode::LintOccupancyOverflow,
            ErrorCode::LintOccupancyMargin,
        ]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let graph = design.local_graph();
        let aliases = comb_aliases(design);
        let resets = reset_inputs(design);
        let flag_updates = registered_flag_updates(design, &resets);
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for proc in &design.procs {
            let mut guards = Vec::new();
            guard::walk(&proc.body, &mut guards, &mut |guards, stmt| {
                let Stmt::Assign { lhs, span, .. } = stmt else {
                    return;
                };
                if in_reset(guards, &resets) {
                    return;
                }
                for dst in lhs.target_names() {
                    let Some((mem, skid)) = entry_point(design, graph, dst) else {
                        continue;
                    };
                    let mut worst: Option<Admission> = None;
                    for c in &guard::leaves(guards) {
                        let Some(adm) =
                            classify_admission(design, graph, &aliases, &flag_updates, c, *span)
                        else {
                            continue;
                        };
                        if adm.fifo.mem != mem {
                            continue;
                        }
                        let better = worst
                            .as_ref()
                            .is_none_or(|w| adm.bound + adm.staleness < w.bound + w.staleness);
                        if better {
                            worst = Some(adm);
                        }
                    }
                    // No admission guard: the write is either always
                    // allowed by design (drop handled elsewhere) or beyond
                    // the abstraction — stay silent.
                    let Some(adm) = worst else {
                        continue;
                    };
                    let after = adm.bound + adm.staleness + skid + 1;
                    if after <= adm.fifo.depth {
                        continue;
                    }
                    let code = if adm.staleness + skid == 0 {
                        ErrorCode::LintOccupancyOverflow
                    } else {
                        ErrorCode::LintOccupancyMargin
                    };
                    if !seen.insert((adm.span.start, adm.span.end)) {
                        continue;
                    }
                    let msg = if code == ErrorCode::LintOccupancyOverflow {
                        format!(
                            "writes into `{mem}` (depth {}) are admitted while \
                             occupancy can already be {}; the admitted write makes \
                             it {after} — the full test is off by one",
                            adm.fifo.depth, adm.bound
                        )
                    } else {
                        format!(
                            "the admission threshold for `{mem}` (depth {}) leaves \
                             no margin: occupancy can be {} when tested, plus {} \
                             stale cycle(s) and {} in-flight skid word(s) makes \
                             {after} after the admitted write",
                            adm.fifo.depth, adm.bound, adm.staleness, skid
                        )
                    };
                    sink.emit(
                        HwdbgError::warning(code, msg)
                            .with_span(adm.span)
                            .with_signal(mem.as_str()),
                    );
                }
            });
        }
    }
}

/// If `dst` is where words enter a FIFO, the memory name and the extra
/// skid occupancy: writing the memory itself is skid 0; writing a staging
/// register that data-feeds a memory is skid 1.
fn entry_point(design: &Design, graph: &PropGraph, dst: &str) -> Option<(String, u64)> {
    let info = design.signals.get(dst)?;
    if info.mem_depth.is_some() {
        return Some((dst.to_owned(), 0));
    }
    if info.kind != SigKind::Reg {
        return None;
    }
    let id = graph.id(dst)?;
    for rel in graph.outgoing_ids(id) {
        if rel.kind != DepKind::Data || rel.latency != 1 {
            continue;
        }
        let mem = graph.name(rel.dst);
        if design
            .signals
            .get(mem)
            .is_some_and(|s| s.mem_depth.is_some())
        {
            return Some((mem.to_owned(), 1));
        }
    }
    None
}

/// Decomposes `expr` (after one level of comb aliasing) as a pointer-count
/// comparison `(wr - rd) OP k`, validating the wrap-free FIFO shape:
/// equal-width pointer registers one bit wider than the index of a memory
/// `wr` steers and `rd` reads.
fn count_compare<'a>(
    design: &Design,
    graph: &PropGraph,
    aliases: &BTreeMap<&str, (&'a Expr, Span)>,
    expr: &'a Expr,
) -> Option<(Fifo, BinaryOp, u64)> {
    let expand = |e: &'a Expr| -> &'a Expr {
        match e {
            Expr::Ident(n) => aliases.get(n.as_str()).map_or(e, |&(rhs, _)| rhs),
            other => other,
        }
    };
    let Expr::Binary(op, lhs, rhs) = expand(expr) else {
        return None;
    };
    if !matches!(op, BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge) {
        return None;
    }
    let k = const_value(rhs, design)?;
    if k.width() > 64 {
        return None;
    }
    let k = k.to_u64();
    let Expr::Binary(BinaryOp::Sub, a, b) = expand(lhs) else {
        return None;
    };
    let (Expr::Ident(wr), Expr::Ident(rd)) = (&**a, &**b) else {
        return None;
    };
    let wi = design.signals.get(wr)?;
    let ri = design.signals.get(rd)?;
    if wi.kind != SigKind::Reg || ri.kind != SigKind::Reg || wi.width != ri.width {
        return None;
    }
    if wi.width < 2 || wi.width > 63 {
        return None;
    }
    let depth_from_width = 1u64 << (wi.width - 1);
    // Find the memory the pointers manage: `wr` steers a write into it
    // (control edge) and `rd` co-sources its read.
    let wr_id = graph.id(wr)?;
    let rd_id = graph.id(rd)?;
    for rel in graph.outgoing_ids(wr_id) {
        if rel.kind != DepKind::Control {
            continue;
        }
        let mem = graph.name(rel.dst);
        let Some(depth) = design.signals.get(mem).and_then(|s| s.mem_depth) else {
            continue;
        };
        if depth != depth_from_width {
            continue;
        }
        let reads = graph
            .outgoing_ids(rd_id)
            .filter(|r| r.kind == DepKind::Data)
            .any(|r| {
                graph
                    .incoming_ids(r.dst)
                    .any(|m| m.kind == DepKind::Data && graph.name(m.src) == mem)
            });
        if reads {
            return Some((
                Fifo {
                    mem: mem.to_owned(),
                    depth,
                },
                *op,
                k,
            ));
        }
    }
    None
}

/// Registered admission flags: registers whose only non-reset update is an
/// unconditional (modulo reset) `flag <= <expr>`, mapped to that update's
/// right-hand side and span. Observing occupancy through such a flag adds
/// one cycle of staleness.
fn registered_flag_updates<'a>(
    design: &'a Design,
    resets: &BTreeSet<String>,
) -> BTreeMap<&'a str, (&'a Expr, Span)> {
    let mut sites: BTreeMap<&str, Vec<(&Expr, Span, bool)>> = BTreeMap::new();
    for proc in &design.procs {
        let mut guards = Vec::new();
        guard::walk(&proc.body, &mut guards, &mut |guards, stmt| {
            let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                return;
            };
            if in_reset(guards, resets) {
                return;
            }
            // Unconditional outside reset: every conjunct is a reset test.
            let plain = guard::leaves(guards)
                .iter()
                .all(|c| matches!(c.expr, Expr::Ident(n) if resets.contains(n)));
            for dst in lhs.target_names() {
                sites.entry(dst).or_default().push((rhs, *span, plain));
            }
        });
    }
    let mut out = BTreeMap::new();
    for (dst, s) in sites {
        if let [(rhs, span, true)] = s.as_slice() {
            if design
                .signals
                .get(dst)
                .is_some_and(|i| i.kind == SigKind::Reg && i.width == 1)
            {
                out.insert(dst, (*rhs, *span));
            }
        }
    }
    out
}

/// Classifies one guard conjunct as an occupancy admission: either a
/// direct count comparison (possibly through a comb alias) or a
/// registered flag holding one. Returns the worst-case admitted bound,
/// the staleness, and the span of the *definition* the off-by-one lives
/// at.
fn classify_admission(
    design: &Design,
    graph: &PropGraph,
    aliases: &BTreeMap<&str, (&Expr, Span)>,
    flags: &BTreeMap<&str, (&Expr, Span)>,
    c: &CondLeaf<'_>,
    site_span: Span,
) -> Option<Admission> {
    // Direct comparison, or one comb-alias hop: staleness 0. The span
    // points at the alias definition when there is one.
    if let Some((fifo, op, k)) = count_compare(design, graph, aliases, c.expr) {
        let span = match c.expr {
            Expr::Ident(n) => aliases.get(n.as_str()).map_or(site_span, |&(_, s)| s),
            _ => site_span,
        };
        let bound = cmp_bound(op, k, c.positive)?;
        return Some(Admission {
            fifo,
            bound,
            staleness: 0,
            span,
        });
    }
    // A registered flag: one cycle stale.
    if let Expr::Ident(n) = c.expr {
        if let Some(&(rhs, span)) = flags.get(n.as_str()) {
            let (fifo, op, k) = count_compare(design, graph, aliases, rhs)?;
            let bound = cmp_bound(op, k, c.positive)?;
            return Some(Admission {
                fifo,
                bound,
                staleness: 1,
                span,
            });
        }
    }
    None
}

/// `L0502`: truncation before shift.
///
/// `W'(x) >> k` with `x` wider than `W` cuts off the bits `[.. : W]`
/// before the shift brings them down — the paper's §3.2.2 example
/// `left <= 42'(right) >> 6`. The correct order is `W'(x >> k)`. The pass
/// propagates declared widths (the interval abstraction's width
/// component) through every assignment expression of the design.
pub struct PrecisionPass;

impl LintPass for PrecisionPass {
    fn id(&self) -> &'static str {
        "precision-shift"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintTruncatedShift]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let bodies = design
            .procs
            .iter()
            .map(|p| &p.body)
            .chain(design.combs.iter().map(|c| &c.body));
        for body in bodies {
            let mut guards = Vec::new();
            guard::walk(body, &mut guards, &mut |_, stmt| {
                let Stmt::Assign { rhs, span, .. } = stmt else {
                    return;
                };
                check_expr(design, rhs, *span, sink);
            });
        }
    }
}

fn check_expr(design: &Design, e: &Expr, span: Span, sink: &mut LintSink<'_>) {
    if let Expr::Binary(BinaryOp::Shr | BinaryOp::AShr, lhs, amt) = e {
        if let Expr::WidthCast(w, inner) = &**lhs {
            let shift = const_value(amt, design).map_or(0, |v| v.to_u64());
            let inner_w = design.expr_width(inner);
            if shift > 0 && inner_w.is_some_and(|iw| iw > *w) {
                let iw = inner_w.unwrap_or(*w);
                sink.emit(
                    HwdbgError::warning(
                        ErrorCode::LintTruncatedShift,
                        format!(
                            "`{w}'(…)` truncates a {iw}-bit value before `>> \
                             {shift}`, discarding bits [{}:{w}] the shift would \
                             have kept; shift first: `{w}'(x >> {shift})`",
                            iw - 1
                        ),
                    )
                    .with_span(span),
                );
            }
        }
    }
    for sub in subexprs(e) {
        check_expr(design, sub, span, sink);
    }
}

/// Immediate subexpressions of `e`, for recursive descent.
fn subexprs(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Literal { .. } | Expr::Ident(_) => vec![],
        Expr::Unary(_, a) => vec![a],
        Expr::Binary(_, a, b) => vec![a, b],
        Expr::Ternary(c, t, f) => vec![c, t, f],
        Expr::Index(_, i) => vec![i],
        Expr::Range(_, a, b) => vec![a, b],
        Expr::Concat(parts) => parts.iter().collect(),
        Expr::Repeat(n, x) => vec![n, x],
        Expr::WidthCast(_, a) | Expr::SignCast(_, a) => vec![a],
    }
}
