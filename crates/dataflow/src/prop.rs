//! Propagation relations and dependency graphs.
//!
//! This module implements the paper's core static analysis (§4.5.1): a
//! table of *propagation relations* `X ⇝σ Y`, meaning the value of `X` at
//! cycle `k` influences `Y` at cycle `k + latency` when the condition `σ`
//! holds at cycle `k`. Dependency Monitor consumes the same table for
//! k-cycle backward slicing, LossCheck uses it to synthesize shadow
//! logic, and the lint taint passes interpret it abstractly at compile
//! time.
//!
//! A design walks its RTL for the table once: [`Design::local_graph`]
//! runs [`PropGraph::build_local`] on first use and every later caller
//! (the taint lints among them) reads that one graph. [`PropGraph::build`]
//! extends a copy of it with the blackbox model edges instead of walking
//! the RTL again.
//!
//! Relations are keyed by interned [`SigId`]s resolved through the
//! design's own [`SignalTable`], which the graph shares rather than
//! copies, so construction cannot widen the namespace. The builder visits
//! assignments with the shared [`guard::walk`], and a relation's condition
//! is [`guard::cond`] of the assignment's path, the same rendering
//! SignalCat, LossCheck and Dependency Monitor use. Condition expressions
//! are shared via [`Arc`]: the builder keeps one frame per guard of the
//! current path, carried over from one assignment to the next while the
//! paths share a prefix, and materializes each frame's condition once for
//! every assignment under it, so building the table allocates per guard,
//! not per edge or per assignment. [`BuildStats`] records the sharing.

use crate::blackbox::BlackboxLib;
use crate::design::Design;
use crate::guard::{self, Guard};
use crate::intern::{SigId, SignalTable};
use crate::DataflowError;
use hwdbg_rtl::{Expr, LValue, Span, Stmt};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Whether an edge is a data flow or a control influence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// `src` appears on the right-hand side of the assignment to `dst`.
    Data,
    /// `src` appears in the path condition (or index) guarding the
    /// assignment to `dst`.
    Control,
}

/// One propagation relation `src ⇝cond dst`.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The influencing signal (resolve via [`PropGraph::name`]).
    pub src: SigId,
    /// The influenced signal.
    pub dst: SigId,
    /// Condition under which the propagation happens (`1'b1` if always).
    /// Shared between every relation extracted under the same guard path.
    pub cond: Arc<Expr>,
    /// Data or control dependency.
    pub kind: DepKind,
    /// Cycles of delay: 1 for clocked assignments, 0 for combinational.
    pub latency: u32,
    /// The assignment that produced the relation ([`Span::synthetic`] for
    /// blackbox model edges, which have no source).
    pub span: Span,
}

/// Allocation counters from [`PropGraph`] construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Total relations extracted.
    pub relations: usize,
    /// Condition expressions actually allocated. Every assignment under
    /// the same guard path shares one; only a ternary right-hand side and
    /// a blackbox model edge allocate their own, and only when they yield
    /// a relation, so this never exceeds `relations`.
    pub distinct_conds: usize,
    /// Signals in the table — the design's own, shared rather than copied.
    pub signals: usize,
}

/// Relation indices grouped by one endpoint signal, in compressed form:
/// the bucket of signal `s` is `rels[offsets[s]..offsets[s + 1]]`, in
/// relation order.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    offsets: Vec<u32>,
    rels: Vec<u32>,
}

impl Adjacency {
    /// Groups `relations` by `key` with one counting pass and one fill
    /// pass: two allocations, whatever the signal count.
    fn new(signals: usize, relations: &[Relation], key: fn(&Relation) -> SigId) -> Adjacency {
        let mut offsets = vec![0u32; signals + 1];
        for r in relations {
            offsets[key(r).index() + 1] += 1;
        }
        for s in 0..signals {
            offsets[s + 1] += offsets[s];
        }
        let mut rels = vec![0u32; relations.len()];
        for (i, r) in relations.iter().enumerate() {
            let next = &mut offsets[key(r).index()];
            rels[*next as usize] = i as u32;
            *next += 1;
        }
        // The fill advanced each bucket's start to its end, which is the
        // next bucket's start: shifting right by one restores the starts.
        offsets.copy_within(0..signals, 1);
        offsets[0] = 0;
        Adjacency { offsets, rels }
    }

    fn get(&self, s: SigId) -> &[u32] {
        match (self.offsets.get(s.index()), self.offsets.get(s.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.rels[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// The full propagation-relation table of a design.
#[derive(Debug, Clone, Default)]
pub struct PropGraph {
    /// All relations, in extraction order.
    pub relations: Vec<Relation>,
    /// Interned signal names, shared with the design.
    table: Arc<SignalTable>,
    /// Relation indices grouped by destination signal.
    by_dst: Adjacency,
    /// Relation indices grouped by source signal.
    by_src: Adjacency,
    stats: BuildStats,
}

impl PropGraph {
    /// Builds the table from a resolved design: the design's
    /// [`local_graph`](Design::local_graph), in the same order, followed
    /// by the relations blackbox instances contribute through their IP
    /// models (§5 of the paper). The RTL is not walked again.
    ///
    /// # Errors
    ///
    /// Fails if a blackbox instance references an IP the library does not
    /// know (cannot happen for designs elaborated with the same library).
    pub fn build(design: &Design, lib: &dyn BlackboxLib) -> Result<PropGraph, DataflowError> {
        let local = design.local_graph();
        let table = &design.table;
        let mut relations = local.relations.clone();
        let mut conds = local.stats.distinct_conds;
        for bb in &design.blackboxes {
            let spec = lib
                .spec(&bb.module)
                .ok_or_else(|| DataflowError::UnknownModule(bb.module.clone()))?;
            for rel in &spec.relations {
                let Some(src_expr) = bb.in_conns.get(&rel.src) else {
                    continue;
                };
                let Some(dst_lv) = bb.out_conns.get(&rel.dst) else {
                    continue;
                };
                let mut srcs = Vec::new();
                src_expr.visit_idents(&mut |s| srcs.extend(table.id(s)));
                let mut dsts = Vec::new();
                visit_targets(dst_lv, &mut |d| dsts.extend(table.id(d)));
                if srcs.is_empty() || dsts.is_empty() {
                    continue;
                }
                let cond = rel
                    .cond
                    .as_ref()
                    .and_then(|cp| bb.in_conns.get(cp))
                    .cloned()
                    .unwrap_or_else(|| Expr::sized(1, 1));
                let cond = Arc::new(cond);
                conds += 1;
                for &src in &srcs {
                    for &dst in &dsts {
                        relations.push(Relation {
                            src,
                            dst,
                            cond: Arc::clone(&cond),
                            kind: DepKind::Data,
                            latency: rel.latency,
                            span: Span::synthetic(),
                        });
                    }
                }
            }
        }
        Ok(PropGraph::index(Arc::clone(table), relations, conds))
    }

    /// Builds the table from the design's own RTL only, skipping blackbox
    /// model edges: one walk over every process. Infallible, since it
    /// needs no [`BlackboxLib`].
    ///
    /// Each call walks the RTL from scratch; analyses read
    /// [`Design::local_graph`] instead, which runs this once per design.
    pub fn build_local(design: &Design) -> PropGraph {
        let mut b = Builder::new(&design.table);
        for c in &design.combs {
            b.process(&c.body, 0);
        }
        for p in &design.procs {
            b.process(&p.body, 1);
        }
        PropGraph::index(Arc::clone(&design.table), b.relations, b.conds_allocated)
    }

    /// Wraps extracted relations with their per-signal indexes.
    fn index(
        table: Arc<SignalTable>,
        relations: Vec<Relation>,
        distinct_conds: usize,
    ) -> PropGraph {
        let stats = BuildStats {
            relations: relations.len(),
            distinct_conds,
            signals: table.len(),
        };
        debug_assert!(stats.distinct_conds <= stats.relations.max(1));
        PropGraph {
            by_dst: Adjacency::new(table.len(), &relations, |r| r.dst),
            by_src: Adjacency::new(table.len(), &relations, |r| r.src),
            relations,
            table,
            stats,
        }
    }

    /// The interned signal namespace the relation IDs resolve in.
    pub fn table(&self) -> &SignalTable {
        &self.table
    }

    /// Looks up a signal name's ID (`None` for constants and unknowns).
    #[inline]
    pub fn id(&self, name: &str) -> Option<SigId> {
        self.table.id(name)
    }

    /// The name behind a relation endpoint.
    #[inline]
    pub fn name(&self, id: SigId) -> &str {
        self.table.name(id)
    }

    /// Allocation counters recorded during construction.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Relations whose destination is `dst`, via the per-signal index.
    pub fn incoming_ids(&self, dst: SigId) -> impl Iterator<Item = &Relation> + '_ {
        self.by_dst
            .get(dst)
            .iter()
            .map(|&i| &self.relations[i as usize])
    }

    /// Relations whose source is `src`, via the per-signal index.
    pub fn outgoing_ids(&self, src: SigId) -> impl Iterator<Item = &Relation> + '_ {
        self.by_src
            .get(src)
            .iter()
            .map(|&i| &self.relations[i as usize])
    }

    /// Relations whose destination is `dst` (name-based convenience).
    pub fn incoming<'a>(&'a self, dst: &str) -> impl Iterator<Item = &'a Relation> + 'a {
        self.id(dst)
            .into_iter()
            .flat_map(|id| self.incoming_ids(id))
    }

    /// Relations whose source is `src` (name-based convenience).
    pub fn outgoing<'a>(&'a self, src: &str) -> impl Iterator<Item = &'a Relation> + 'a {
        self.id(src)
            .into_iter()
            .flat_map(|id| self.outgoing_ids(id))
    }

    /// Backward slice: all signals that can influence `target` within `k`
    /// cycles, mapped to their minimum cycle distance. Includes `target`
    /// itself at distance 0. `kinds` filters which dependency kinds to
    /// follow.
    pub fn back_slice(
        &self,
        target: &str,
        k: u32,
        kinds: &[DepKind],
    ) -> BTreeMap<String, u32> {
        let mut out = BTreeMap::new();
        out.insert(target.to_owned(), 0);
        let Some(t) = self.id(target) else {
            return out;
        };
        let mut dist: BTreeMap<SigId, u32> = BTreeMap::new();
        dist.insert(t, 0);
        let mut queue: VecDeque<SigId> = VecDeque::new();
        queue.push_back(t);
        while let Some(cur) = queue.pop_front() {
            let d = dist.get(&cur).copied().unwrap_or(0);
            for rel in self.incoming_ids(cur) {
                if !kinds.contains(&rel.kind) {
                    continue;
                }
                let nd = d + rel.latency;
                if nd > k {
                    continue;
                }
                let better = dist.get(&rel.src).is_none_or(|&old| nd < old);
                if better {
                    dist.insert(rel.src, nd);
                    queue.push_back(rel.src);
                }
            }
        }
        for (id, d) in dist {
            out.insert(self.name(id).to_owned(), d);
        }
        out
    }

    /// Signals reachable from `src` along relations the `follow` predicate
    /// admits (unbounded, forward direction), including `src`. This is the
    /// guarded-reachability query the taint passes build on: the predicate
    /// typically inspects `cond` (via [`cond_leaves`](guard::cond_leaves))
    /// and `kind`.
    pub fn guarded_reachable(
        &self,
        src: SigId,
        follow: &dyn Fn(&Relation) -> bool,
    ) -> BTreeSet<SigId> {
        let mut seen = BTreeSet::new();
        seen.insert(src);
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(cur) = queue.pop_front() {
            for rel in self.outgoing_ids(cur) {
                if follow(rel) && seen.insert(rel.dst) {
                    queue.push_back(rel.dst);
                }
            }
        }
        seen
    }

    /// Everything that can influence `from` along the given dependency
    /// kinds, unbounded — the transitive-fanin cone. Includes `from`.
    pub fn backward_closure(&self, from: SigId, kinds: &[DepKind]) -> BTreeSet<SigId> {
        let mut seen = BTreeSet::new();
        seen.insert(from);
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for rel in self.incoming_ids(cur) {
                if kinds.contains(&rel.kind) && seen.insert(rel.src) {
                    queue.push_back(rel.src);
                }
            }
        }
        seen
    }

    /// Signals reachable forward from `src` along data relations
    /// (unbounded), including `src`.
    pub fn forward_reachable(&self, src: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        out.insert(src.to_owned());
        if let Some(id) = self.id(src) {
            for r in self.guarded_reachable(id, &|rel| rel.kind == DepKind::Data) {
                out.insert(self.name(r).to_owned());
            }
        }
        out
    }

    /// Signals that lie on some data-propagation path from `source` to
    /// `sink` (inclusive): the intersection of forward reachability from
    /// the source and backward reachability from the sink.
    pub fn propagation_sequence(&self, source: &str, sink: &str) -> BTreeSet<String> {
        let fwd = self.forward_reachable(source);
        let mut back = BTreeSet::new();
        back.insert(sink.to_owned());
        if let Some(id) = self.id(sink) {
            for r in self.backward_closure(id, &[DepKind::Data]) {
                back.insert(self.name(r).to_owned());
            }
        }
        fwd.intersection(&back).cloned().collect()
    }
}

/// One depth of the guard path, with the conjunction and the sorted,
/// unique control signals of the path up to and including it. Both are
/// built on first use and then shared by every assignment at this depth.
struct Frame<'d> {
    /// `None` for the root (the empty path).
    guard: Option<Guard<'d>>,
    /// Signals the guard reads, unsorted: a case arm's are its subject's
    /// and those of every label up to its own, since it holds under every
    /// earlier arm negated.
    reads: Vec<SigId>,
    cond: Option<Arc<Expr>>,
    ctrl: Option<Rc<[SigId]>>,
}

impl<'d> Frame<'d> {
    fn new(guard: Guard<'d>, table: &SignalTable) -> Frame<'d> {
        let mut reads = Vec::new();
        let mut read = |e: &Expr| e.visit_idents(&mut |n| reads.extend(table.id(n)));
        match guard {
            Guard::If(c, _) | Guard::Loop(c) => read(c),
            Guard::Arm {
                subject,
                arms,
                index,
            } => {
                read(subject);
                arms[..=index].iter().flat_map(|a| &a.labels).for_each(read);
            }
            Guard::Default { subject, arms } => {
                read(subject);
                arms.iter().flat_map(|a| &a.labels).for_each(read);
            }
        }
        Frame {
            guard: Some(guard),
            reads,
            cond: None,
            ctrl: None,
        }
    }

    /// Moves a case-arm frame on to a later arm (or the `default`) of the
    /// same `case`, scanning only the labels it has not read yet, so a
    /// `case` costs time linear in its labels. False, and unchanged, if
    /// `next` is not a later guard of the same `case`.
    fn advance(&mut self, next: Guard<'d>, table: &SignalTable) -> bool {
        let Some(Guard::Arm { arms, index, .. }) = self.guard else {
            return false;
        };
        let upto = match next {
            Guard::Arm { arms: n, index: k, .. } if std::ptr::eq(arms, n) && k > index => k + 1,
            Guard::Default { arms: n, .. } if std::ptr::eq(arms, n) => arms.len(),
            _ => return false,
        };
        for label in arms[index + 1..upto].iter().flat_map(|a| &a.labels) {
            label.visit_idents(&mut |s| self.reads.extend(table.id(s)));
        }
        self.guard = Some(next);
        self.cond = None;
        self.ctrl = None;
        true
    }
}

/// The same guard of the same AST node.
fn same(a: Guard<'_>, b: Guard<'_>) -> bool {
    match (a, b) {
        (Guard::If(x, p), Guard::If(y, q)) => std::ptr::eq(x, y) && p == q,
        (Guard::Arm { arms: x, index: i, .. }, Guard::Arm { arms: y, index: j, .. }) => {
            std::ptr::eq(x, y) && i == j
        }
        (Guard::Default { arms: x, .. }, Guard::Default { arms: y, .. }) => std::ptr::eq(x, y),
        _ => false,
    }
}

/// The guard path of the assignment being visited, outermost first,
/// holding only the guards that add to its condition: a `for` guard and the
/// `default` of an arm-less `case` add nothing, so they share the
/// enclosing depth's caches.
struct Path<'d> {
    /// Never empty: `frames[0]` is the root.
    frames: Vec<Frame<'d>>,
}

impl<'d> Path<'d> {
    fn new() -> Path<'d> {
        Path {
            frames: vec![Frame {
                guard: None,
                reads: Vec::new(),
                cond: None,
                ctrl: Some(Rc::from([])),
            }],
        }
    }

    /// Moves to the walker's `path`, keeping the frames (and their caches)
    /// of the prefix it shares with the previous assignment's.
    fn sync(&mut self, path: &[Guard<'d>], table: &SignalTable) {
        let mut depth = 0;
        for &g in path.iter().filter(|g| adds_to_cond(g)) {
            depth += 1;
            let Some(frame) = self.frames.get_mut(depth) else {
                self.frames.push(Frame::new(g, table));
                continue;
            };
            if frame.guard.is_some_and(|f| same(f, g)) {
                continue;
            }
            let advanced = frame.advance(g, table);
            self.frames.truncate(depth + usize::from(advanced));
            if !advanced {
                self.frames.push(Frame::new(g, table));
            }
        }
        self.frames.truncate(depth + 1);
    }

    /// The path's guards, outermost first.
    fn guards(&self) -> impl Iterator<Item = Guard<'d>> + '_ {
        self.frames.iter().filter_map(|f| f.guard)
    }

    /// The path's condition, allocated once per depth (`allocated` counts
    /// it).
    fn cond(&mut self, allocated: &mut usize) -> Arc<Expr> {
        let top = self.frames.len() - 1;
        if let Some(c) = &self.frames[top].cond {
            return Arc::clone(c);
        }
        *allocated += 1;
        let c = Arc::new(guard::cond(&self.guards().collect::<Vec<_>>()));
        self.frames[top].cond = Some(Arc::clone(&c));
        c
    }

    /// The signals the path's guards read, sorted and unique: each depth
    /// extends its parent's set, so a guard is scanned once however many
    /// assignments sit under it.
    fn ctrl(&mut self) -> Rc<[SigId]> {
        let top = self.frames.len() - 1;
        let known = self.frames.iter().rposition(|f| f.ctrl.is_some());
        for i in known.map_or(1, |k| k + 1)..=top {
            let mut ids = self.frames[i - 1]
                .ctrl
                .as_deref()
                .map(<[SigId]>::to_vec)
                .unwrap_or_default();
            ids.extend_from_slice(&self.frames[i].reads);
            ids.sort_unstable();
            ids.dedup();
            self.frames[i].ctrl = Some(ids.into());
        }
        self.frames[top]
            .ctrl
            .clone()
            .unwrap_or_else(|| Rc::from([]))
    }
}

/// Whether a guard adds a conjunct to [`guard::cond`].
fn adds_to_cond(g: &Guard<'_>) -> bool {
    match g {
        Guard::Loop(_) => false,
        Guard::Default { arms, .. } => !arms.is_empty(),
        Guard::If(..) | Guard::Arm { .. } => true,
    }
}

/// Construction state: the relations so far, the guard path, and buffers
/// reused across assignments.
struct Builder<'d> {
    table: &'d SignalTable,
    relations: Vec<Relation>,
    conds_allocated: usize,
    path: Path<'d>,
    /// Destinations of the current assignment.
    dsts: Vec<SigId>,
    /// Signals in the current assignment's LHS indexes.
    lhs_ctrl: Vec<SigId>,
    /// Data sources of the current right-hand-side case.
    data: Vec<SigId>,
    /// Control sources of the current case, when they extend the path's.
    case_ctrl: Vec<SigId>,
}

impl<'d> Builder<'d> {
    fn new(table: &'d SignalTable) -> Builder<'d> {
        Builder {
            table,
            relations: Vec::new(),
            conds_allocated: 0,
            path: Path::new(),
            dsts: Vec::new(),
            lhs_ctrl: Vec::new(),
            data: Vec::new(),
            case_ctrl: Vec::new(),
        }
    }

    /// Extracts the relations of every assignment in one process body.
    fn process(&mut self, body: &'d Stmt, latency: u32) {
        guard::walk(body, &mut Vec::new(), &mut |path, stmt| {
            if let Stmt::Assign { lhs, rhs, span, .. } = stmt {
                self.path.sync(path, self.table);
                self.emit_assign(lhs, rhs, latency, *span);
            }
        });
    }

    fn emit_assign(&mut self, lhs: &'d LValue, rhs: &'d Expr, latency: u32, span: Span) {
        let table = self.table;
        self.dsts.clear();
        visit_targets(lhs, &mut |d| self.dsts.extend(table.id(d)));
        if self.dsts.is_empty() {
            return;
        }
        // Index expressions on the LHS are control: they steer where data
        // lands.
        self.lhs_ctrl.clear();
        visit_index_idents(lhs, &mut |n| self.lhs_ctrl.extend(table.id(n)));
        self.emit_cases(rhs, &mut Vec::new(), latency, span);
    }

    /// Splits a right-hand side into cases by decomposing ternaries, per
    /// the paper's running example where `out <= cond_a ? a : b` yields
    /// `a ⇝cond_a out` and `b ⇝¬cond_a out`; `arms` holds the ternary
    /// conditions above `rhs`, outermost first.
    fn emit_cases(&mut self, rhs: &'d Expr, arms: &mut Vec<Guard<'d>>, latency: u32, span: Span) {
        if let Expr::Ternary(c, t, f) = rhs {
            for (branch, taken) in [(t, true), (f, false)] {
                arms.push(Guard::If(c, taken));
                self.emit_cases(branch, arms, latency, span);
                arms.pop();
            }
            return;
        }
        let table = self.table;
        let path_ctrl = self.path.ctrl();
        let ctrl: &[SigId] = if self.lhs_ctrl.is_empty() && arms.is_empty() {
            &path_ctrl
        } else {
            self.case_ctrl.clear();
            self.case_ctrl.extend_from_slice(&path_ctrl);
            self.case_ctrl.extend_from_slice(&self.lhs_ctrl);
            for g in arms.iter() {
                if let Guard::If(c, _) = g {
                    c.visit_idents(&mut |n| self.case_ctrl.extend(table.id(n)));
                }
            }
            self.case_ctrl.sort_unstable();
            self.case_ctrl.dedup();
            &self.case_ctrl
        };
        self.data.clear();
        rhs.visit_idents(&mut |n| self.data.extend(table.id(n)));
        // Only cases that produce edges get a condition, so
        // `distinct_conds <= relations` holds by construction.
        if self.data.is_empty() && ctrl.is_empty() {
            return;
        }
        let cond = if arms.is_empty() {
            self.path.cond(&mut self.conds_allocated)
        } else {
            self.conds_allocated += 1;
            let full: Vec<Guard<'d>> = self.path.guards().chain(arms.iter().copied()).collect();
            Arc::new(guard::cond(&full))
        };
        for &dst in &self.dsts {
            for &src in &self.data {
                self.relations.push(Relation {
                    src,
                    dst,
                    cond: Arc::clone(&cond),
                    kind: DepKind::Data,
                    latency,
                    span,
                });
            }
            for &src in ctrl {
                self.relations.push(Relation {
                    src,
                    dst,
                    cond: Arc::clone(&cond),
                    kind: DepKind::Control,
                    latency,
                    span,
                });
            }
        }
    }
}

/// Calls `f` on every net an lvalue writes, in
/// [`LValue::target_names`] order.
fn visit_targets<'a>(lv: &'a LValue, f: &mut impl FnMut(&'a str)) {
    match lv {
        LValue::Id(n) | LValue::Index(n, _) | LValue::Range(n, _, _) => f(n),
        LValue::Concat(parts) => {
            for p in parts {
                visit_targets(p, f);
            }
        }
    }
}

/// Calls `f` on every name read by an lvalue's index or part-select
/// bounds.
fn visit_index_idents<'a>(lv: &'a LValue, f: &mut impl FnMut(&'a str)) {
    match lv {
        LValue::Id(_) => {}
        LValue::Index(_, i) => i.visit_idents(f),
        LValue::Range(_, a, b) => {
            a.visit_idents(f);
            b.visit_idents(f);
        }
        LValue::Concat(parts) => {
            for p in parts {
                visit_index_idents(p, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::NoBlackboxes;
    use crate::design::elaborate;
    use hwdbg_rtl::{parse, print_expr};

    fn graph(src: &str, top: &str) -> (Design, PropGraph) {
        let d = elaborate(&parse(src).unwrap(), top, &NoBlackboxes).unwrap();
        let g = PropGraph::build(&d, &NoBlackboxes).unwrap();
        (d, g)
    }

    /// The paper's §4.5.1 running example must produce exactly its table.
    #[test]
    fn paper_running_example_table() {
        let src = "module m(input clk, input cond_a, input cond_b,
                            input [7:0] a, input [7:0] in, input in_valid,
                            output reg [7:0] out);
            reg [7:0] b;
            always @(posedge clk) begin
                if (cond_a) out <= a;
                else if (cond_b) out <= b;
                if (in_valid) b <= in;
            end
        endmodule";
        let (_, g) = graph(src, "m");
        let data: Vec<_> = g
            .relations
            .iter()
            .filter(|r| r.kind == DepKind::Data)
            .map(|r| {
                (
                    g.name(r.src).to_owned(),
                    g.name(r.dst).to_owned(),
                    print_expr(&r.cond),
                )
            })
            .collect();
        assert!(data.contains(&("a".into(), "out".into(), "cond_a".into())), "{data:?}");
        assert!(
            data.contains(&(
                "b".into(),
                "out".into(),
                "(!cond_a) && cond_b".into()
            )),
            "{data:?}"
        );
        assert!(
            data.contains(&("in".into(), "b".into(), "in_valid".into())),
            "{data:?}"
        );
        // All clocked: latency 1.
        assert!(g.relations.iter().all(|r| r.latency == 1));
    }

    #[test]
    fn ternary_rhs_decomposed() {
        let src = "module m(input s, input a, input b, output y);
            assign y = s ? a : b;
        endmodule";
        let (_, g) = graph(src, "m");
        let conds: Vec<_> = g
            .relations
            .iter()
            .filter(|r| r.kind == DepKind::Data)
            .map(|r| (g.name(r.src).to_owned(), print_expr(&r.cond)))
            .collect();
        assert!(conds.contains(&("a".into(), "s".into())));
        assert!(conds.contains(&("b".into(), "!s".into())));
        assert!(g.relations.iter().all(|r| r.latency == 0));
    }

    #[test]
    fn case_conditions_and_control() {
        let src = "module m(input clk, input [1:0] sel, input [3:0] a, output reg [3:0] y);
            always @(posedge clk)
                case (sel)
                    2'd0: y <= a;
                    default: y <= 4'd0;
                endcase
        endmodule";
        let (_, g) = graph(src, "m");
        let ctrl: Vec<_> = g
            .relations
            .iter()
            .filter(|r| r.kind == DepKind::Control)
            .map(|r| (g.name(r.src).to_owned(), g.name(r.dst).to_owned()))
            .collect();
        assert!(ctrl.contains(&("sel".into(), "y".into())), "{ctrl:?}");
    }

    #[test]
    fn back_slice_counts_cycles() {
        let src = "module m(input clk, input [7:0] d, output [7:0] q);
            reg [7:0] s1;
            reg [7:0] s2;
            wire [7:0] w;
            assign w = s1 + 8'd1;
            assign q = s2;
            always @(posedge clk) begin
                s1 <= d;
                s2 <= w;
            end
        endmodule";
        let (_, g) = graph(src, "m");
        let slice = g.back_slice("q", 2, &[DepKind::Data]);
        assert_eq!(slice.get("q"), Some(&0));
        assert_eq!(slice.get("s2"), Some(&0)); // comb assign, latency 0
        assert_eq!(slice.get("w"), Some(&1));
        assert_eq!(slice.get("s1"), Some(&1));
        assert_eq!(slice.get("d"), Some(&2));
        let slice1 = g.back_slice("q", 1, &[DepKind::Data]);
        assert!(!slice1.contains_key("d"));
    }

    #[test]
    fn propagation_sequence_between() {
        let src = "module m(input clk, input [7:0] din, input v, output reg [7:0] dout);
            reg [7:0] b;
            reg [7:0] unrelated;
            always @(posedge clk) begin
                if (v) b <= din;
                dout <= b;
                unrelated <= dout;
            end
        endmodule";
        let (_, g) = graph(src, "m");
        let seq = g.propagation_sequence("din", "dout");
        assert!(seq.contains("din"));
        assert!(seq.contains("b"));
        assert!(seq.contains("dout"));
        assert!(!seq.contains("unrelated"));
    }

    #[test]
    fn lhs_index_is_control() {
        let src = "module m(input clk, input [3:0] wa, input [7:0] d);
            reg [7:0] mem [0:15];
            always @(posedge clk) mem[wa] <= d;
        endmodule";
        let (_, g) = graph(src, "m");
        let wa = g.id("wa").unwrap();
        let mem = g.id("mem").unwrap();
        let d = g.id("d").unwrap();
        assert!(g
            .relations
            .iter()
            .any(|r| r.src == wa && r.dst == mem && r.kind == DepKind::Control));
        assert!(g
            .relations
            .iter()
            .any(|r| r.src == d && r.dst == mem && r.kind == DepKind::Data));
        // The per-signal indexes agree with the flat scan.
        assert_eq!(g.incoming_ids(mem).count(), g.incoming("mem").count());
        assert_eq!(g.outgoing_ids(wa).count(), g.outgoing("wa").count());
    }

    #[test]
    fn guard_paths_share_conds_and_the_table() {
        let src = "module m(input clk, input en, input s, input [7:0] a, input [7:0] b,
                            output reg [7:0] x, output reg [7:0] y, output reg [7:0] z);
            always @(posedge clk) if (en) begin
                x <= a + b;
                y <= a - b;
                z <= s ? a : b;
            end
        endmodule";
        let (d, g) = graph(src, "m");
        let stats = g.stats();
        // `x <= a + b` under `en` is 2 data + 1 control edges, likewise
        // `y`; each arm of `z`'s ternary is 1 data + 2 control edges.
        // 12 relations on 3 allocations: one for the `en` path, which `x`
        // and `y` share, and one per ternary arm.
        assert_eq!(stats.relations, 12);
        assert_eq!(stats.distinct_conds, 3);
        assert_eq!(stats.signals, d.table.len());
        let first = &g.relations[0];
        let x = g.id("x").unwrap();
        let y = g.id("y").unwrap();
        assert!(g
            .relations
            .iter()
            .filter(|r| r.dst == x || r.dst == y)
            .all(|r| Arc::ptr_eq(&r.cond, &first.cond)));
        // The graph resolves names through the design's own table.
        assert!(std::ptr::eq(g.table(), &*d.table));
        // Every RTL relation carries a real source span.
        assert!(g.relations.iter().all(|r| r.span != Span::synthetic()));
    }

    #[test]
    fn case_arms_hold_under_every_earlier_arm_negated() {
        let src = "module m(input clk, input [1:0] sel, input [3:0] a, input [3:0] b,
                            output reg [3:0] y);
            always @(posedge clk)
                case (sel)
                    2'd0: y <= a;
                    2'd1, 2'd2: y <= b;
                    default: y <= 4'd0;
                endcase
        endmodule";
        let (_, g) = graph(src, "m");
        let conds: Vec<_> = g
            .relations
            .iter()
            .filter(|r| r.kind == DepKind::Control)
            .map(|r| print_expr(&r.cond))
            .collect();
        assert_eq!(
            conds,
            [
                "sel == 2'h0",
                "(!(sel == 2'h0)) && ((sel == 2'h1) | (sel == 2'h2))",
                "(!(sel == 2'h0)) && (!((sel == 2'h1) | (sel == 2'h2)))",
            ],
        );
    }

    #[test]
    fn adjacency_keeps_relation_order() {
        let src = "module m(input clk, input [7:0] a, input [7:0] b, input c,
                            output reg [7:0] p, output reg [7:0] q);
            always @(posedge clk) begin
                p <= a;
                q <= b;
                if (c) p <= b;
                q <= a;
            end
        endmodule";
        let (_, g) = graph(src, "m");
        for id in (0..g.table().len()).map(SigId::from_index) {
            let by_scan: Vec<_> = g
                .relations
                .iter()
                .filter(|r| r.dst == id)
                .map(|r| r as *const Relation)
                .collect();
            let by_index: Vec<_> = g.incoming_ids(id).map(|r| r as *const Relation).collect();
            assert_eq!(by_scan, by_index, "incoming {}", g.name(id));
            let by_scan: Vec<_> = g
                .relations
                .iter()
                .filter(|r| r.src == id)
                .map(|r| r as *const Relation)
                .collect();
            let by_index: Vec<_> = g.outgoing_ids(id).map(|r| r as *const Relation).collect();
            assert_eq!(by_scan, by_index, "outgoing {}", g.name(id));
        }
        // Out-of-range IDs (another design's) have no relations.
        assert_eq!(g.incoming_ids(SigId::from_index(1 << 20)).count(), 0);
        let empty = PropGraph::default();
        assert_eq!(empty.outgoing_ids(SigId::from_index(0)).count(), 0);
    }

    #[test]
    fn build_local_skips_blackboxes_only() {
        let src = "module m(input clk, input [7:0] d, output reg [7:0] q);
            always @(posedge clk) q <= d;
        endmodule";
        let d = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
        let g = PropGraph::build_local(&d);
        assert_eq!(g.relations.len(), 1);
        assert!(g.back_slice("q", 1, &[DepKind::Data]).contains_key("d"));
    }
}
