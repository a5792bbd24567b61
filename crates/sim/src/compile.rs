//! Compile-then-run support: the one-time translation of an elaborated
//! [`Design`] into an interned, pre-resolved form the simulator executes.
//!
//! The seed interpreter walked the RTL AST directly, performing a
//! `BTreeMap<String, _>` lookup (and a `String` clone on every error path)
//! for each signal reference, re-deriving static facts (widths, signedness,
//! memory-ness) on every evaluation. [`Compiled::build`] does all of that
//! exactly once at [`Simulator::new`](crate::Simulator::new) time:
//!
//! * every `Expr::Ident` / `LValue` becomes a dense [`SigId`] (or an inline
//!   constant, for parameters),
//! * ternary result widths, operator signedness, memory slots/depths, and
//!   concat split widths are precomputed,
//! * each combinational driver and blackbox instance becomes a schedulable
//!   *unit* with a static read-set (empty for a blackbox, whose outputs are
//!   registered), from which the per-signal `readers` / `writers` tables
//!   that power dependency-driven settling are built.
//!
//! Execution semantics ([`CExec`]) are byte-for-byte those of the seed
//! interpreter; `crates/sim/tests/compiled_equivalence.rs` holds the
//! differential proof against full-pass settling.

use crate::eval::{binary_into, effective_mem_addr};
use crate::state::{SimState, NOT_A_MEM};
use crate::{Log, SimError};
use hwdbg_bits::Bits;
use hwdbg_dataflow::{Design, Scope, SigId, SigInfo, Ty};
use hwdbg_rtl::{BinaryOp, Expr, LValue, Stmt, UnaryOp};
use std::cell::Cell;

/// A compiled expression: all names resolved, all static facts inlined.
/// Every node records the width its type gives it ([`CExpr::width`]), so
/// the bytecode lowering reads widths instead of re-deriving them.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    /// A literal or folded parameter value.
    Const(Bits),
    /// An interned scalar signal read.
    Sig { id: SigId, width: u32 },
    Unary { op: UnaryOp, width: u32, inner: Box<CExpr> },
    Binary {
        op: BinaryOp,
        /// The operator evaluates signed ([`Ty::signed_op`]).
        signed: bool,
        width: u32,
        a: Box<CExpr>,
        b: Box<CExpr>,
    },
    Ternary { cond: Box<CExpr>, t: Box<CExpr>, f: Box<CExpr>, width: u32 },
    /// Single-bit select of a scalar signal `sig_width` bits wide.
    BitIndex { sig: SigId, sig_width: u32, idx: Box<CExpr> },
    /// Memory element read (slot pre-resolved).
    MemIndex { slot: u32, width: u32, idx: Box<CExpr> },
    /// Part select `[lo +: width]` of a scalar signal. `resolve` proves
    /// every bound constant, so the shape is fixed at compile time (a
    /// select of a parameter folds to a [`CExpr::Const`]).
    RangeSig { sig: SigId, lo: u32, width: u32 },
    Concat { width: u32, parts: Vec<CExpr> },
    /// `{count{body}}`; `resolve` proves the count constant and nonzero.
    Repeat { count: u32, width: u32, body: Box<CExpr> },
    /// A width cast (`W'(expr)`), or a signed right-hand side extended to
    /// its assignment's width (`signed`).
    Resize { width: u32, signed: bool, inner: Box<CExpr> },
}

impl CExpr {
    /// The static width of this node's value.
    pub(crate) fn width(&self) -> u32 {
        match self {
            CExpr::Const(v) => v.width(),
            CExpr::BitIndex { .. } => 1,
            CExpr::Sig { width, .. }
            | CExpr::Unary { width, .. }
            | CExpr::Binary { width, .. }
            | CExpr::Ternary { width, .. }
            | CExpr::MemIndex { width, .. }
            | CExpr::RangeSig { width, .. }
            | CExpr::Concat { width, .. }
            | CExpr::Repeat { width, .. }
            | CExpr::Resize { width, .. } => *width,
        }
    }
}

/// A compiled assignment destination.
#[derive(Debug, Clone)]
pub(crate) enum CLValue {
    /// Whole scalar signal.
    Sig { id: SigId, width: u32 },
    /// One bit of a scalar signal.
    BitIndex {
        id: SigId,
        width: u32,
        idx: Box<CExpr>,
    },
    /// One memory element.
    MemIndex {
        id: SigId,
        slot: u32,
        depth: u64,
        width: u32,
        idx: Box<CExpr>,
    },
    /// Part select `[lo +: width]`.
    Range { id: SigId, lo: u32, width: u32 },
    /// Concatenation target, MSB-first. Nested concatenations are
    /// flattened at compile time, so no part is itself a `Concat`.
    Concat { parts: Vec<CLValue>, total: u32 },
}

impl CLValue {
    /// The static width this destination takes.
    pub(crate) fn width(&self) -> u32 {
        match self {
            CLValue::Sig { width, .. }
            | CLValue::MemIndex { width, .. }
            | CLValue::Range { width, .. } => *width,
            CLValue::BitIndex { .. } => 1,
            CLValue::Concat { total, .. } => *total,
        }
    }
}

/// A compiled statement tree.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Block(Vec<CStmt>),
    If {
        cond: CExpr,
        then: Box<CStmt>,
        els: Option<Box<CStmt>>,
    },
    Case {
        sel: CExpr,
        arms: Vec<CCaseArm>,
        default: Option<Box<CStmt>>,
    },
    Assign {
        lhs: CLValue,
        nonblocking: bool,
        rhs: CExpr,
    },
    For {
        var: SigId,
        var_width: u32,
        init: CExpr,
        cond: CExpr,
        step: CExpr,
        body: Box<CStmt>,
    },
    /// A clocked `$display`: its site number and its arguments.
    Display { site: u32, args: Vec<CExpr> },
    Finish,
    Empty,
}

/// One arm of a compiled `case`.
#[derive(Debug, Clone)]
pub(crate) struct CCaseArm {
    pub labels: Vec<CExpr>,
    pub body: CStmt,
}

/// One schedulable combinational driver.
#[derive(Debug, Clone)]
pub(crate) struct CombUnit {
    pub body: CStmt,
}

/// One schedulable blackbox instance: its compiled connections, in the
/// port-name order of [`BbInst`](hwdbg_dataflow::BbInst). Each simulator
/// maps them to its model's port positions when it is built.
#[derive(Debug, Clone)]
pub(crate) struct BbUnit {
    /// Per input connection: the port's resolved width and the compiled
    /// connection expression, read once per edge of the model's clocks.
    pub ins: Vec<(u32, CExpr)>,
    /// Per output connection: the compiled destination.
    pub outs: Vec<CLValue>,
    /// Per clock port (`BbInst::clock_ports` order): alias-rooted IDs of
    /// the signals feeding it.
    pub clock_roots: Vec<Vec<SigId>>,
}

/// One compiled clocked process.
#[derive(Debug, Clone)]
pub(crate) struct ProcUnit {
    pub body: CStmt,
    /// Alias-rooted IDs of the sensitivity-list signals.
    pub edge_roots: Vec<SigId>,
}

/// The full compiled schedule of a design.
///
/// Unit indices: `0..combs.len()` are combinational drivers,
/// `combs.len()..combs.len()+bbs.len()` are blackbox instances.
#[derive(Debug, Clone)]
pub(crate) struct Compiled {
    pub combs: Vec<CombUnit>,
    pub bbs: Vec<BbUnit>,
    pub procs: Vec<ProcUnit>,
    /// Per signal ID: unit indices whose read-set contains it. Only comb
    /// units read: a blackbox unit's read-set is empty.
    pub readers: Vec<Vec<u32>>,
    /// Per signal ID: unit indices that (may) write it. Used so poking a
    /// comb-driven signal re-runs its driver, as a full pass would.
    pub writers: Vec<Vec<u32>>,
    /// Identity-assign alias links (`assign dst = src;`): `dst → src`.
    pub aliases: Vec<Option<SigId>>,
}

impl Compiled {
    /// Total number of schedulable settle units.
    pub fn n_units(&self) -> usize {
        self.combs.len() + self.bbs.len()
    }

    /// Resolves a signal through identity-assign aliases to its root.
    pub fn alias_root(&self, id: SigId) -> SigId {
        alias_root(&self.aliases, id)
    }

    /// Compiles `design` against its memory layout `mem_slot` (see
    /// [`crate::state::mem_slots`]).
    pub fn build(design: &Design, mem_slot: &[u32]) -> Result<Compiled, SimError> {
        let cc = Ctx { design, mem_slot, next_site: Cell::new(None) };
        let n_sigs = design.table.len();

        // Identity-assign aliases, mirroring the interpreter's clock-root
        // resolution for flattened clock names.
        let mut aliases: Vec<Option<SigId>> = vec![None; n_sigs];
        for comb in &design.combs {
            if let Stmt::Assign {
                lhs: LValue::Id(dst),
                rhs: Expr::Ident(src),
                nonblocking: false,
                ..
            } = &comb.body
            {
                if let (Some(d), Some(s)) = (design.sig_id(dst), design.sig_id(src)) {
                    aliases[d.index()] = Some(s);
                }
            }
        }
        let root = |id| alias_root(&aliases, id);

        let mut combs = Vec::with_capacity(design.combs.len());
        for comb in &design.combs {
            combs.push(CombUnit {
                body: cc.stmt(&comb.body)?,
            });
        }
        let mut bbs = Vec::with_capacity(design.blackboxes.len());
        for inst in &design.blackboxes {
            let mut ins = Vec::with_capacity(inst.in_conns.len());
            for (port, e) in &inst.in_conns {
                let w = inst.port_widths.get(port).copied().unwrap_or(1);
                ins.push((w, cc.expr(e)?));
            }
            let outs = inst
                .out_conns
                .values()
                .map(|lv| cc.lvalue(lv))
                .collect::<Result<_, _>>()?;
            let clock_roots = inst
                .clock_ports
                .iter()
                .map(|cp| {
                    inst.in_conns.get(cp).map_or_else(Vec::new, |e| {
                        e.idents()
                            .iter()
                            .filter_map(|n| design.sig_id(n))
                            .map(root)
                            .collect()
                    })
                })
                .collect();
            bbs.push(BbUnit {
                ins,
                outs,
                clock_roots,
            });
        }

        // Sites number the processes' `$display`s in the order compiled.
        cc.next_site.set(Some(0));
        let mut procs = Vec::with_capacity(design.procs.len());
        for proc in &design.procs {
            let edge_roots = proc
                .edges
                .iter()
                .filter_map(|e| design.sig_id(&e.signal))
                .map(root)
                .collect();
            procs.push(ProcUnit {
                body: cc.stmt(&proc.body)?,
                edge_roots,
            });
        }
        if cc.next_site.get() != Some(design.sites().len() as u32) {
            return Err(SimError::Internal("`$display` sites out of step with the design".into()));
        }
        let mut compiled = Compiled {
            combs,
            bbs,
            procs,
            readers: Vec::new(),
            writers: Vec::new(),
            aliases,
        };

        // Dependency tables: which units read / write each signal. Read and
        // write sets come from elaboration and are conservative (they cover
        // every branch), so dependency-driven settling can never miss work.
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n_sigs];
        let mut writers: Vec<Vec<u32>> = vec![Vec::new(); n_sigs];
        for (ci, comb) in design.combs.iter().enumerate() {
            for r in comb.reads.iter() {
                readers[r.index()].push(ci as u32);
            }
            for w in comb.writes.iter() {
                writers[w.index()].push(ci as u32);
            }
        }
        // A blackbox unit reads nothing: its outputs are registered, so it
        // runs after its own tick, never on an input change.
        let n_combs = design.combs.len();
        for (bi, inst) in design.blackboxes.iter().enumerate() {
            let unit = (n_combs + bi) as u32;
            for lv in inst.out_conns.values() {
                for n in lv.target_names() {
                    if let Some(id) = design.sig_id(n) {
                        if !writers[id.index()].contains(&unit) {
                            writers[id.index()].push(unit);
                        }
                    }
                }
            }
        }
        compiled.readers = readers;
        compiled.writers = writers;
        Ok(compiled)
    }
}

/// Follows `id` through the identity-assign links `aliases` to its root.
fn alias_root(aliases: &[Option<SigId>], mut id: SigId) -> SigId {
    let mut hops = 0;
    while let Some(next) = aliases[id.index()] {
        id = next;
        hops += 1;
        if hops > aliases.len() {
            break; // alias cycle: give up, treat as its own root
        }
    }
    id
}

/// Compilation context.
struct Ctx<'a> {
    design: &'a Design,
    /// Per signal ID: its memory slot, or [`NOT_A_MEM`].
    mem_slot: &'a [u32],
    /// The site of the next `$display` compiled in a clocked process;
    /// `None` in combinational logic, where a `$display` never prints.
    next_site: Cell<Option<u32>>,
}

impl<'a> Ctx<'a> {
    /// The memory slot of `id`, if it is a memory.
    fn mem_slot_of(&self, id: SigId) -> Option<u32> {
        match self.mem_slot[id.index()] {
            NOT_A_MEM => None,
            slot => Some(slot),
        }
    }

    /// A declared signal's ID and static info, from one name lookup.
    fn signal(&self, name: &str) -> Option<(SigId, &'a SigInfo)> {
        let id = self.design.sig_id(name)?;
        Some((id, &self.design.signals[id]))
    }

    fn sig(&self, name: &str) -> Result<SigId, SimError> {
        self.design
            .sig_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_owned()))
    }

    fn expr(&self, e: &Expr) -> Result<CExpr, SimError> {
        Ok(self.typed(e)?.0)
    }

    /// Compiles `e` with its type, taken from the combinators of
    /// [`hwdbg_dataflow::ty()`] bottom-up in the same pass.
    fn typed(&self, e: &Expr) -> Result<(CExpr, Ty), SimError> {
        Ok(match e {
            Expr::Literal { value, signed } => {
                (CExpr::Const(value.clone()), Ty::literal(value, *signed))
            }
            Expr::Ident(n) => {
                if let Some((id, sig)) = self.signal(n) {
                    if sig.mem_depth.is_some() {
                        // Whole-memory reads were a runtime error in the
                        // interpreter; reject them at compile time.
                        return Err(SimError::UnknownSignal(n.clone()));
                    }
                    (CExpr::Sig { id, width: sig.width }, sig.ty())
                } else if let Some(c) = self.design.consts.get(n) {
                    (CExpr::Const(c.clone()), Ty::param(c))
                } else {
                    return Err(SimError::UnknownSignal(n.clone()));
                }
            }
            Expr::Unary(op, inner) => {
                let (inner, t) = self.typed(inner)?;
                let ty = Ty::unary(*op, t);
                (CExpr::Unary { op: *op, width: ty.width, inner: Box::new(inner) }, ty)
            }
            Expr::Binary(op, l, r) => {
                let ((a, ta), (b, tb)) = (self.typed(l)?, self.typed(r)?);
                let (signed, ty) = (Ty::signed_op(*op, ta, tb), Ty::binary(*op, ta, tb));
                // `>>>` of an unsigned operand shifts in zeros like `>>`.
                let op = match op {
                    BinaryOp::AShr if !signed => BinaryOp::Shr,
                    op => *op,
                };
                let (a, b) = (Box::new(a), Box::new(b));
                (CExpr::Binary { op, signed, width: ty.width, a, b }, ty)
            }
            Expr::Ternary(c, t, f) => {
                let cond = Box::new(self.expr(c)?);
                let ((t, tt), (f, tf)) = (self.typed(t)?, self.typed(f)?);
                let ty = Ty::ternary(tt, tf);
                // Two signed arms sign-extend the narrower one (§5.5).
                let arm = |c, t: Ty| match ty.signed && t.sign_extends_to(ty.width) {
                    true => Box::new(CExpr::Resize { width: ty.width, signed: true, inner: Box::new(c) }),
                    false => Box::new(c),
                };
                let (t, f) = (arm(t, tt), arm(f, tf));
                (CExpr::Ternary { cond, t, f, width: ty.width }, ty)
            }
            Expr::Index(n, idx) => {
                let (idx, ti) = self.typed(idx)?;
                let idx = Box::new(idx);
                let Some((id, sig)) = self.signal(n) else {
                    let c = self
                        .design
                        .consts
                        .get(n)
                        .ok_or_else(|| SimError::UnknownSignal(n.clone()))?;
                    // A bit of a parameter: `(P >> idx)` cut to one bit.
                    let (a, t) = (Box::new(CExpr::Const(c.clone())), Ty::param(c));
                    let width = Ty::binary(BinaryOp::Shr, t, ti).width;
                    let shr = CExpr::Binary { op: BinaryOp::Shr, signed: false, width, a, b: idx };
                    let cut = CExpr::Resize { width: 1, signed: false, inner: Box::new(shr) };
                    return Ok((cut, Ty::BIT));
                };
                let ty = sig.element_ty();
                let c = match sig.mem_depth {
                    Some(_) => {
                        let slot = self.mem_slot_of(id).ok_or_else(|| {
                            SimError::Internal(format!("memory `{n}` has no backing slot"))
                        })?;
                        CExpr::MemIndex { slot, width: ty.width, idx }
                    }
                    None => CExpr::BitIndex { sig: id, sig_width: sig.width, idx },
                };
                (c, ty)
            }
            Expr::Range(n, msb, lsb) => {
                let (lo, ty) = self.bounds(msb, lsb)?;
                let c = if let Some((id, sig)) = self.signal(n) {
                    if sig.mem_depth.is_some() {
                        return Err(SimError::UnknownSignal(n.clone()));
                    }
                    CExpr::RangeSig { sig: id, lo, width: ty.width }
                } else if let Some(c) = self.design.consts.get(n) {
                    CExpr::Const(c.slice(lo, ty.width))
                } else {
                    return Err(SimError::UnknownSignal(n.clone()));
                };
                (c, ty)
            }
            Expr::Concat(parts) => {
                if parts.is_empty() {
                    return Err(SimError::Internal("empty concatenation".into()));
                }
                let (mut cparts, mut ty) = (Vec::with_capacity(parts.len()), Ty::unsigned(0));
                for p in parts {
                    let (c, t) = self.typed(p)?;
                    ty = ty.concat(t)?;
                    cparts.push(c);
                }
                (CExpr::Concat { width: ty.width, parts: cparts }, ty)
            }
            Expr::Repeat(n, body) => {
                let count = self.design.constant(n)?;
                let (body, t) = self.typed(body)?;
                let ty = Ty::repeat(count, t)?;
                let body = Box::new(body);
                (CExpr::Repeat { count: count as u32, width: ty.width, body }, ty)
            }
            Expr::WidthCast(w, inner) => {
                let inner = Box::new(self.expr(inner)?);
                (CExpr::Resize { width: *w, signed: false, inner }, Ty::unsigned(*w))
            }
            // Signedness is resolved statically (on Binary), so the cast
            // itself is a no-op at runtime.
            Expr::SignCast(signed, inner) => {
                let (c, t) = self.typed(inner)?;
                (c, Ty::sign_cast(*signed, t))
            }
        })
    }

    /// Compiles `e` as the right-hand side of an assignment to `width`
    /// bits: a signed value narrower than the target sign-extends to it
    /// ([`Ty::sign_extends_to`]); the store zero-extends or truncates the
    /// rest.
    fn assigned(&self, e: &Expr, width: u32) -> Result<CExpr, SimError> {
        let (c, ty) = self.typed(e)?;
        Ok(match ty.sign_extends_to(width) {
            true => CExpr::Resize { width, signed: true, inner: Box::new(c) },
            false => c,
        })
    }

    fn lvalue(&self, lv: &LValue) -> Result<CLValue, SimError> {
        Ok(match lv {
            LValue::Id(n) => {
                let (id, sig) = self
                    .signal(n)
                    .ok_or_else(|| SimError::UnknownSignal(n.clone()))?;
                if sig.mem_depth.is_some() {
                    return Err(SimError::UnknownSignal(format!(
                        "cannot assign whole memory `{n}`"
                    )));
                }
                CLValue::Sig {
                    id,
                    width: sig.width,
                }
            }
            LValue::Index(n, idx) => {
                let (id, sig) = self
                    .signal(n)
                    .ok_or_else(|| SimError::UnknownSignal(n.clone()))?;
                let idx = Box::new(self.expr(idx)?);
                if let Some(depth) = sig.mem_depth {
                    CLValue::MemIndex {
                        id,
                        slot: self.mem_slot_of(id).ok_or_else(|| {
                            SimError::Internal(format!("memory `{n}` has no backing slot"))
                        })?,
                        depth,
                        width: sig.element_ty().width,
                        idx,
                    }
                } else {
                    CLValue::BitIndex {
                        id,
                        width: sig.width,
                        idx,
                    }
                }
            }
            LValue::Range(n, msb, lsb) => {
                let (lo, ty) = self.bounds(msb, lsb)?;
                CLValue::Range {
                    id: self.sig(n)?,
                    lo,
                    width: ty.width,
                }
            }
            LValue::Concat(parts) => {
                let mut flat = Vec::with_capacity(parts.len());
                let mut total = Ty::unsigned(0);
                for p in parts {
                    let part = self.lvalue(p)?;
                    total = total.concat(Ty::unsigned(part.width()))?;
                    match part {
                        CLValue::Concat { parts, .. } => flat.extend(parts),
                        part => flat.push(part),
                    }
                }
                CLValue::Concat {
                    total: total.width,
                    parts: flat,
                }
            }
        })
    }

    /// A part select's `[msb:lsb]`, which `resolve` has proven constant:
    /// its `lo` and its type.
    fn bounds(&self, msb: &Expr, lsb: &Expr) -> Result<(u32, Ty), SimError> {
        let (m, l) = (self.design.constant(msb)?, self.design.constant(lsb)?);
        Ok((l as u32, Ty::range(m, l)?))
    }

    fn stmt(&self, s: &Stmt) -> Result<CStmt, SimError> {
        Ok(match s {
            Stmt::Block(stmts) => CStmt::Block(
                stmts
                    .iter()
                    .map(|st| self.stmt(st))
                    .collect::<Result<_, _>>()?,
            ),
            Stmt::If { cond, then, els } => CStmt::If {
                cond: self.expr(cond)?,
                then: Box::new(self.stmt(then)?),
                els: match els {
                    Some(e) => Some(Box::new(self.stmt(e)?)),
                    None => None,
                },
            },
            Stmt::Case {
                expr,
                arms,
                default,
                ..
            } => CStmt::Case {
                sel: self.expr(expr)?,
                arms: arms
                    .iter()
                    .map(|arm| {
                        Ok(CCaseArm {
                            labels: arm
                                .labels
                                .iter()
                                .map(|l| self.expr(l))
                                .collect::<Result<_, _>>()?,
                            body: self.stmt(&arm.body)?,
                        })
                    })
                    .collect::<Result<Vec<_>, SimError>>()?,
                default: match default {
                    Some(d) => Some(Box::new(self.stmt(d)?)),
                    None => None,
                },
            },
            Stmt::Assign {
                lhs,
                nonblocking,
                rhs,
                ..
            } => {
                let lhs = self.lvalue(lhs)?;
                CStmt::Assign {
                    rhs: self.assigned(rhs, lhs.width())?,
                    lhs,
                    nonblocking: *nonblocking,
                }
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let (id, sig) = self
                    .signal(var)
                    .ok_or_else(|| SimError::UnknownSignal(var.clone()))?;
                CStmt::For {
                    var: id,
                    var_width: sig.width,
                    init: self.assigned(init, sig.width)?,
                    cond: self.expr(cond)?,
                    step: self.assigned(step, sig.width)?,
                    body: Box::new(self.stmt(body)?),
                }
            }
            Stmt::Display { format, args, .. } => {
                crate::format::check_field_widths(format)?;
                let Some(site) = self.next_site.get() else {
                    return Ok(CStmt::Empty);
                };
                self.next_site.set(Some(site + 1));
                debug_assert_eq!(self.design.sites()[site as usize].format, *format);
                let args = args.iter().map(|a| self.expr(a)).collect::<Result<_, _>>()?;
                CStmt::Display { site, args }
            }
            Stmt::Finish => CStmt::Finish,
            Stmt::Empty => CStmt::Empty,
        })
    }
}

/// Reusable evaluation storage: a pool of `Bits` temporaries plus the
/// resolved-write buffer for blocking assignments. One per simulator,
/// allocated at compile time; in steady state every temporary an
/// expression needs comes from here, so evaluation never allocates for
/// `<= 64`-bit values (and, once the pool entries have spilled to the
/// design's maximum width, not for wide values either).
pub(crate) struct EvalScratch {
    pool: Vec<Bits>,
    /// Resolved-write buffer reused across blocking assignments.
    writes: Vec<CNbWrite>,
    /// Narrow (≤ 64-bit) register file for the bytecode backend. Values
    /// are canonical: bits above a register's static width are zero.
    pub(crate) nregs: Vec<u64>,
    /// Wide (> 64-bit) register file for the bytecode backend, pre-spilled
    /// to the design's maximum width so steady state never allocates.
    pub(crate) wregs: Vec<Bits>,
}

/// Pool entries kept alive; extras returned beyond this are dropped.
const POOL_CAP: usize = 64;

impl EvalScratch {
    /// A pool pre-sized to `max_width` so even wide designs reach
    /// steady-state without allocating. Every retainable entry (the full
    /// `POOL_CAP`) is pre-spilled to the design's maximum write width at
    /// compile time: a half-filled pool used to leave the remaining
    /// entries to spill lazily during warmup, which showed up as one-time
    /// allocations on the first settles.
    pub fn with_max_width(max_width: u32) -> Self {
        let w = max_width.max(1);
        EvalScratch {
            pool: (0..POOL_CAP).map(|_| Bits::zero(w)).collect(),
            writes: Vec::with_capacity(16),
            nregs: Vec::new(),
            wregs: Vec::new(),
        }
    }

    /// An empty pool (cold paths; temporaries start 1-bit and grow).
    pub fn empty() -> Self {
        EvalScratch {
            pool: Vec::new(),
            writes: Vec::new(),
            nregs: Vec::new(),
            wregs: Vec::new(),
        }
    }

    /// Sizes the bytecode register files to the compiled programs' maxima.
    /// Wide registers are pre-spilled to `max_width` up front, preserving
    /// the zero-allocations-per-cycle invariant under the bytecode backend.
    pub(crate) fn size_registers(&mut self, n_narrow: usize, n_wide: usize, max_width: u32) {
        self.nregs = vec![0; n_narrow];
        let w = max_width.max(65); // force the spilled representation
        self.wregs = (0..n_wide).map(|_| Bits::zero(w)).collect();
    }

    #[inline]
    pub(crate) fn take(&mut self) -> Bits {
        // `Bits::default()` is an inline 1-bit zero: refilling an exhausted
        // pool costs nothing.
        self.pool.pop().unwrap_or_default()
    }

    #[inline]
    pub(crate) fn put(&mut self, b: Bits) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(b);
        }
    }
}

/// Evaluates a compiled expression against simulation state (cold-path
/// convenience wrapper over [`eval_into`]).
pub(crate) fn eval(state: &SimState, e: &CExpr) -> Result<Bits, SimError> {
    let mut scratch = EvalScratch::empty();
    let mut out = Bits::default();
    eval_into(state, &mut scratch, e, &mut out)?;
    Ok(out)
}

/// Evaluates a sub-expression that is consumed as a `u64` (an index).
#[inline]
fn eval_u64(state: &SimState, scratch: &mut EvalScratch, e: &CExpr) -> Result<u64, SimError> {
    let mut t = scratch.take();
    let res = eval_into(state, scratch, e, &mut t);
    let v = t.to_u64();
    scratch.put(t);
    res.map(|()| v)
}

/// Evaluates a compiled expression into `out`, reusing its storage.
///
/// Temporaries for sub-expressions come from `scratch` and are returned to
/// it on success; error paths may leak pool entries back to the allocator,
/// which is fine — errors abort the run.
pub(crate) fn eval_into(
    state: &SimState,
    scratch: &mut EvalScratch,
    e: &CExpr,
    out: &mut Bits,
) -> Result<(), SimError> {
    match e {
        CExpr::Const(v) => out.assign_from(v),
        CExpr::Sig { id, .. } => out.assign_from(state.get_id(*id)),
        CExpr::Unary { op, inner, .. } => match op {
            UnaryOp::Not => {
                eval_into(state, scratch, inner, out)?;
                out.not_in_place();
            }
            UnaryOp::Neg => {
                eval_into(state, scratch, inner, out)?;
                out.neg_in_place();
            }
            UnaryOp::LogNot
            | UnaryOp::RedAnd
            | UnaryOp::RedOr
            | UnaryOp::RedXor
            | UnaryOp::RedXnor => {
                let mut t = scratch.take();
                eval_into(state, scratch, inner, &mut t)?;
                out.set_bool(match op {
                    UnaryOp::LogNot => t.is_zero(),
                    UnaryOp::RedAnd => t.reduce_and(),
                    UnaryOp::RedOr => t.reduce_or(),
                    UnaryOp::RedXor => t.reduce_xor(),
                    _ => !t.reduce_xor(),
                });
                scratch.put(t);
            }
        },
        CExpr::Binary { op, signed, a, b, .. } => {
            let mut x = scratch.take();
            let mut y = scratch.take();
            eval_into(state, scratch, a, &mut x)?;
            eval_into(state, scratch, b, &mut y)?;
            binary_into(scratch, *op, *signed, &mut x, &mut y, out);
            scratch.put(y);
            scratch.put(x);
        }
        CExpr::Ternary { cond, t, f, width } => {
            let mut c = scratch.take();
            eval_into(state, scratch, cond, &mut c)?;
            let take_then = c.to_bool();
            scratch.put(c);
            eval_into(state, scratch, if take_then { t } else { f }, out)?;
            out.resize_in_place(*width);
        }
        CExpr::BitIndex { sig, sig_width, idx } => {
            let i = eval_u64(state, scratch, idx)?;
            let v = state.get_id(*sig);
            out.set_bool(i < u64::from(*sig_width) && v.bit(i as u32));
        }
        CExpr::MemIndex { slot, idx, .. } => {
            let i = eval_u64(state, scratch, idx)?;
            state.read_mem_slot_into(*slot, i, out);
        }
        CExpr::RangeSig { sig, lo, width } => {
            state.get_id(*sig).slice_into(*lo, *width, out);
        }
        CExpr::Concat { parts, .. } => {
            let mut t = scratch.take();
            for (i, p) in parts.iter().enumerate() {
                eval_into(state, scratch, p, &mut t)?;
                if i == 0 {
                    out.assign_from(&t);
                } else {
                    out.push_low(&t);
                }
            }
            scratch.put(t);
        }
        CExpr::Repeat { count, body, .. } => {
            let mut t = scratch.take();
            eval_into(state, scratch, body, &mut t)?;
            t.repeat_into(*count, out);
            scratch.put(t);
        }
        CExpr::Resize { width, signed, inner } => {
            eval_into(state, scratch, inner, out)?;
            if *signed {
                out.resize_signed_in_place(*width);
            } else {
                out.resize_in_place(*width);
            }
        }
    }
    Ok(())
}

/// Where a clocked step's `$display` records go, with the step and cycle
/// they are stamped with.
pub(crate) struct LogSink<'a> {
    pub log: &'a mut Log,
    pub time: u64,
    pub cycle: u64,
}

/// A deferred (nonblocking) write, resolved to a concrete target at the
/// time the assignment executed.
#[derive(Debug, Clone)]
pub(crate) enum CNbWrite {
    /// Whole signal.
    Sig(SigId, Bits),
    /// Whole signal from a narrow value, already masked to the store
    /// width (the bytecode backend's `u64` path: no pooled `Bits`).
    SigN(SigId, u64),
    /// Bit range `[lo +: width]` of a signal.
    Slice(SigId, u32, Bits),
    /// One memory element.
    Mem {
        id: SigId,
        slot: u32,
        addr: u64,
        value: Bits,
    },
}

/// Control flow result of executing statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Continue,
    Finished,
}

/// Iterations one procedural `for` loop may run before it raises
/// [`SimError::LoopCap`].
pub(crate) const FOR_CAP: u64 = 65_536;

/// One statement-execution context (a settle unit run or one clocked
/// process). Signals whose stored value actually changed are appended to
/// `changed`, which drives the dirty-set scheduler.
pub(crate) struct CExec<'a> {
    pub state: &'a mut SimState,
    /// Reusable temporaries + resolved-write buffer (owned by the
    /// simulator, threaded through every unit run).
    pub scratch: &'a mut EvalScratch,
    /// `Some` in clocked context: nonblocking writes defer here.
    pub nb: Option<&'a mut Vec<CNbWrite>>,
    /// `Some` in clocked context: `$display` records go here.
    pub logs: Option<LogSink<'a>>,
    pub changed: &'a mut Vec<SigId>,
    /// Fault-injection pins: writes to these signals are discarded.
    /// `None` (fault-free) keeps the hot path to a single branch.
    pub forced: Option<&'a std::collections::BTreeMap<SigId, Bits>>,
    /// Turn silently-dropped out-of-bounds writes into typed errors.
    pub strict_bounds: bool,
    /// Hot-path metrics sink; `None` (metrics off) costs nothing here
    /// because counter bumps live on paths already gated by `forced`.
    pub counters: Option<&'a mut hwdbg_obs::SimCounters>,
}

impl CExec<'_> {
    pub fn stmt(&mut self, stmt: &CStmt) -> Result<Flow, SimError> {
        match stmt {
            CStmt::Block(stmts) => {
                for s in stmts {
                    if self.stmt(s)? == Flow::Finished {
                        return Ok(Flow::Finished);
                    }
                }
                Ok(Flow::Continue)
            }
            CStmt::If { cond, then, els } => {
                let mut c = self.scratch.take();
                eval_into(self.state, self.scratch, cond, &mut c)?;
                let taken = c.to_bool();
                self.scratch.put(c);
                if taken {
                    self.stmt(then)
                } else if let Some(e) = els {
                    self.stmt(e)
                } else {
                    Ok(Flow::Continue)
                }
            }
            CStmt::Case { sel, arms, default } => {
                let mut sv = self.scratch.take();
                eval_into(self.state, self.scratch, sel, &mut sv)?;
                let mut lv = self.scratch.take();
                let mut target: Option<&CStmt> = None;
                'arms: for arm in arms {
                    for l in &arm.labels {
                        eval_into(self.state, self.scratch, l, &mut lv)?;
                        // Zero-extended equality at the common width.
                        if sv.eq_zero_ext(&lv) {
                            target = Some(&arm.body);
                            break 'arms;
                        }
                    }
                }
                self.scratch.put(lv);
                self.scratch.put(sv);
                match (target, default) {
                    (Some(body), _) => self.stmt(body),
                    (None, Some(d)) => self.stmt(d),
                    (None, None) => Ok(Flow::Continue),
                }
            }
            CStmt::Assign {
                lhs,
                nonblocking,
                rhs,
            } => {
                let mut v = self.scratch.take();
                eval_into(self.state, self.scratch, rhs, &mut v)?;
                if *nonblocking && self.nb.is_some() {
                    self.write_nb(lhs, v)?;
                } else {
                    self.write(lhs, v)?;
                }
                Ok(Flow::Continue)
            }
            CStmt::For {
                var,
                var_width,
                init,
                cond,
                step,
                body,
            } => {
                let mut old = self.scratch.take();
                let mark = self.loop_begin(*var, &mut old);
                let mut v = self.scratch.take();
                eval_into(self.state, self.scratch, init, &mut v)?;
                v.resize_in_place(*var_width);
                self.set_sig(*var, &v);
                let mut iters = 0u64;
                loop {
                    eval_into(self.state, self.scratch, cond, &mut v)?;
                    if !v.to_bool() {
                        break;
                    }
                    if self.stmt(body)? == Flow::Finished {
                        self.scratch.put(v);
                        self.scratch.put(old);
                        return Ok(Flow::Finished);
                    }
                    eval_into(self.state, self.scratch, step, &mut v)?;
                    v.resize_in_place(*var_width);
                    self.set_sig(*var, &v);
                    iters += 1;
                    if iters > FOR_CAP {
                        let name = self.state.table().name(*var).to_owned();
                        return Err(SimError::LoopCap(name));
                    }
                }
                self.loop_end(*var, mark, &old);
                self.scratch.put(v);
                self.scratch.put(old);
                Ok(Flow::Continue)
            }
            CStmt::Display { site, args } => {
                if let Some(sink) = &mut self.logs {
                    let mut vals = Vec::new();
                    for a in args {
                        vals.push(eval(self.state, a)?);
                    }
                    sink.log.push(*site, sink.time, sink.cycle, vals.iter().map(Bits::limbs));
                }
                Ok(Flow::Continue)
            }
            CStmt::Finish => Ok(Flow::Finished),
            CStmt::Empty => Ok(Flow::Continue),
        }
    }

    /// Starts a `for` loop over `var`: saves its value into `old` and
    /// returns where the loop's change records begin, for
    /// [`loop_end`](Self::loop_end).
    pub fn loop_begin(&self, var: SigId, old: &mut Bits) -> usize {
        old.assign_from(self.state.get_id(var));
        self.changed.len()
    }

    /// Ends a `for` loop over `var` begun at change record `mark`. A loop
    /// variable is a procedural temporary: its intermediate values are not
    /// changes, only a difference between its values before and after the
    /// loop is. So when it ends where it began, the loop's records of it
    /// are dropped, and a comb block's loop does not wake its own block.
    pub fn loop_end(&mut self, var: SigId, mark: usize, old: &Bits) {
        if self.state.get_id(var) == old {
            let mut kept = mark;
            for k in mark..self.changed.len() {
                if self.changed[k] != var {
                    self.changed[kept] = self.changed[k];
                    kept += 1;
                }
            }
            self.changed.truncate(kept);
        }
    }

    /// Whether `id` is fault-pinned, counting the discarded write as a
    /// force hit when it is.
    #[inline]
    pub fn pinned(&mut self, id: SigId) -> bool {
        let Some(f) = self.forced else {
            return false;
        };
        if !f.contains_key(&id) {
            return false;
        }
        if let Some(c) = self.counters.as_deref_mut() {
            c.force_hits += 1;
        }
        true
    }

    /// Sets a scalar, recording the change for the scheduler. Writes to
    /// forced (fault-pinned) signals are discarded.
    fn set_sig(&mut self, id: SigId, value: &Bits) {
        if self.pinned(id) {
            return;
        }
        if self.state.set_id(id, value) {
            self.changed.push(id);
        }
    }

    /// Immediate (blocking) write. All targets are resolved (lvalue index
    /// expressions evaluated) before any commit mutates state, matching the
    /// nonblocking path's ordering for concat lvalues.
    pub fn write(&mut self, lhs: &CLValue, value: Bits) -> Result<(), SimError> {
        let mut writes = std::mem::take(&mut self.scratch.writes);
        debug_assert!(writes.is_empty());
        let res = self.resolve(lhs, value, &mut writes);
        if res.is_ok() {
            for w in writes.drain(..) {
                self.commit(w);
            }
        } else {
            writes.clear(); // error: nothing committed (cold path)
        }
        self.scratch.writes = writes;
        res
    }

    /// Applies one resolved write, tracking value changes. The carried
    /// value returns to the scratch pool.
    pub fn commit(&mut self, w: CNbWrite) {
        match w {
            CNbWrite::Sig(id, v) => {
                self.set_sig(id, &v);
                self.scratch.put(v);
            }
            CNbWrite::SigN(id, v) => {
                if !self.pinned(id) && self.state.set_id_u64(id, v) {
                    self.changed.push(id);
                }
            }
            CNbWrite::Slice(id, lo, v) => {
                if !self.pinned(id) && self.state.splice_id(id, lo, &v) {
                    self.changed.push(id);
                }
                self.scratch.put(v);
            }
            CNbWrite::Mem {
                id,
                slot,
                addr,
                value,
            } => {
                if self.state.write_mem_slot(slot, addr, &value) {
                    self.changed.push(id);
                }
                self.scratch.put(value);
            }
        }
    }

    /// Deferred (nonblocking) write. Outside a clocked context (no `nb`
    /// sink) the write degrades to blocking, matching how a combinational
    /// `<=` behaves in the interpreter.
    fn write_nb(&mut self, lhs: &CLValue, value: Bits) -> Result<(), SimError> {
        if self.nb.is_none() {
            return self.write(lhs, value);
        }
        let mut writes = std::mem::take(&mut self.scratch.writes);
        debug_assert!(writes.is_empty());
        let res = self.resolve(lhs, value, &mut writes);
        match (self.nb.as_mut(), res.is_ok()) {
            (Some(nb), true) => nb.append(&mut writes),
            _ => writes.clear(),
        }
        self.scratch.writes = writes;
        res
    }

    /// Resolves an lvalue + value into concrete write operations, applying
    /// the paper's overflow semantics; dropped writes push nothing.
    fn resolve(
        &mut self,
        lhs: &CLValue,
        mut value: Bits,
        out: &mut Vec<CNbWrite>,
    ) -> Result<(), SimError> {
        match lhs {
            CLValue::Sig { id, width } => {
                value.resize_in_place(*width);
                out.push(CNbWrite::Sig(*id, value));
            }
            CLValue::BitIndex { id, width, idx } => {
                let i = eval_u64(self.state, self.scratch, idx)?;
                if i < u64::from(*width) {
                    value.resize_in_place(1);
                    out.push(CNbWrite::Slice(*id, i as u32, value));
                } else if self.strict_bounds {
                    return Err(SimError::OutOfBounds {
                        signal: self.state.table().name(*id).to_owned(),
                        index: i,
                        depth: u64::from(*width),
                    });
                } else {
                    self.scratch.put(value); // out-of-range bit write ignored
                }
            }
            CLValue::MemIndex {
                id,
                slot,
                depth,
                width,
                idx,
            } => {
                let i = eval_u64(self.state, self.scratch, idx)?;
                // A None address is a dropped write: paper §3.2.1 outcome 2.
                match effective_mem_addr(i, *depth) {
                    Some(addr) => {
                        value.resize_in_place(*width);
                        out.push(CNbWrite::Mem {
                            id: *id,
                            slot: *slot,
                            addr,
                            value,
                        });
                    }
                    None if self.strict_bounds => {
                        return Err(SimError::OutOfBounds {
                            signal: self.state.table().name(*id).to_owned(),
                            index: i,
                            depth: *depth,
                        });
                    }
                    None => self.scratch.put(value),
                }
            }
            CLValue::Range { id, lo, width } => {
                value.resize_in_place(*width);
                out.push(CNbWrite::Slice(*id, *lo, value));
            }
            CLValue::Concat { parts, total } => {
                // First part is most significant.
                value.resize_in_place(*total);
                let mut hi = *total;
                for p in parts {
                    let w = p.width();
                    let mut part_val = self.scratch.take();
                    value.slice_into(hi - w, w, &mut part_val);
                    hi -= w;
                    self.resolve(p, part_val, out)?;
                }
                self.scratch.put(value);
            }
        }
        Ok(())
    }
}
