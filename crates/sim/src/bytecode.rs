//! Bytecode: flat register-machine programs lowered from the compiled
//! schedule, the unit-body evaluator of [`Backend::Levelized`]
//! (`crate::Backend::Levelized`).
//!
//! The tree-walker in [`crate::compile`] pays a match dispatch and a `Box`
//! pointer chase per AST node on every settle. This module lowers each
//! comb unit / clocked process **once**, at [`CompiledDesign`]
//! (`crate::CompiledDesign`) build time, into a flat `Vec<Op>` whose
//! operands are pre-resolved register indices and [`SigId`] state slots,
//! then executes it with a single dispatch loop.
//!
//! Two register files live in the per-simulator [`EvalScratch`]:
//!
//! * **narrow** (`u64`): every value whose static width is ≤ 64 bits —
//!   the dominant path. Values are *canonical* (bits above the static
//!   width are zero), so comparisons and stores need no re-masking.
//! * **wide** ([`Bits`], pre-spilled to the design max width): the spill
//!   path for ≥ 65-bit values, which reuses the exact `*_into` limb ops
//!   the tree-walker calls — bit-identical by construction.
//!
//! Register allocation is a watermark over the files: each statement's
//! temporaries are released when it completes; within an expression a
//! narrow op's destination takes the lowest of its operands' registers
//! ([`Lower::dst_n`]) and a wide op releases its operands' registers once
//! it has read them ([`Lower::expr_w`]); a concat lvalue releases each
//! part's value once stored. Program register counts stay proportional to
//! the deepest expression, not the unit or the expression size, except
//! for values that are live together: one register per `$display`
//! argument and per indexed part of a concat lvalue. Superops fuse
//! the hot shapes: constant-bound slices ([`Op::SliceSig`]), two-part
//! concats ([`Op::Concat2`]), eager muxes ([`Op::Mux`]), compare+branch
//! ([`Op::JCmpF`], [`Op::JImmEq`]), and add/sub with the result mask
//! baked in.
//!
//! Lowering is **total**: `resolve` proves every part-select bound and
//! replication count constant, and compilation gives every select and
//! replication one static width and flattens nested concat lvalues, so
//! every unit body lowers. The one failure left is capacity: a unit that
//! needs more than 65,535 registers, `$display` statements or wide
//! constants fails [`CompiledDesign::new`](crate::CompiledDesign::new)
//! with [`SimError::UnitTooLarge`]. The tree-walker ([`CExec::stmt`]) is
//! only the reference evaluator of `Backend::Tree`; the differential suite
//! (`crates/sim/tests/backend_differential.rs`) holds this module
//! byte-identical to it.

use crate::compile::{CCaseArm, CExec, CExpr, CLValue, CNbWrite, CStmt, EvalScratch, Flow};
use crate::eval::{apply_binary_signed_into, effective_mem_addr};
use crate::state::SimState;
use crate::format::Arg;
use crate::SimError;
use hwdbg_bits::{fixed, Bits};
use hwdbg_dataflow::{apply_binary_into, SigId};
use hwdbg_rtl::{BinaryOp, UnaryOp};

/// A value source: a narrow (`u64`) or wide ([`Bits`]) register index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    N(u16),
    W(u16),
}

/// Comparison kind for the fused narrow compare ops.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CmpKind {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpKind {
    fn of(op: BinaryOp) -> Option<CmpKind> {
        Some(match op {
            BinaryOp::Lt => CmpKind::Lt,
            BinaryOp::Le => CmpKind::Le,
            BinaryOp::Gt => CmpKind::Gt,
            BinaryOp::Ge => CmpKind::Ge,
            BinaryOp::Eq => CmpKind::Eq,
            BinaryOp::Ne => CmpKind::Ne,
            _ => return None,
        })
    }
}

/// One register-machine instruction. All operands are pre-resolved at
/// lowering time; the interpreter never inspects widths or reprs on the
/// narrow path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    // ---- narrow loads ----
    /// `n[dst] = imm`.
    LdConst { dst: u16, imm: u64 },
    /// `n[dst] = state[sig]` (slot width ≤ 64, canonical).
    LdSig { dst: u16, sig: SigId },
    /// `n[dst] = i < width && state[sig].bit(i)` where `i = n[idx]`.
    LdBitIdx { dst: u16, sig: SigId, width: u32, idx: u16 },
    /// `n[dst] = mem[slot][n[idx]]` (≤ 64-bit elements; OOR reads zero).
    LdMem { dst: u16, slot: u32, idx: u16 },
    /// Constant-bound slice of a (possibly wide) state signal:
    /// `n[dst] = (state[sig] >> lo) & mask`.
    SliceSig { dst: u16, sig: SigId, lo: u32, mask: u64 },
    /// Constant-bound slice of a narrow register (`lo < 64`).
    SliceReg { dst: u16, src: u16, lo: u32, mask: u64 },
    /// Constant-bound narrow slice of a wide register.
    SliceWideReg { dst: u16, src: u16, lo: u32, mask: u64 },
    // ---- narrow ALU (canonical in, canonical out) ----
    Add { dst: u16, a: u16, b: u16, mask: u64 },
    Sub { dst: u16, a: u16, b: u16, mask: u64 },
    Mul { dst: u16, a: u16, b: u16, mask: u64 },
    /// Unsigned division; division by zero yields 0 (tree semantics).
    Div { dst: u16, a: u16, b: u16 },
    Mod { dst: u16, a: u16, b: u16 },
    And { dst: u16, a: u16, b: u16 },
    Or { dst: u16, a: u16, b: u16 },
    Xor { dst: u16, a: u16, b: u16 },
    Xnor { dst: u16, a: u16, b: u16, mask: u64 },
    Not { dst: u16, src: u16, mask: u64 },
    Neg { dst: u16, src: u16, mask: u64 },
    LogNot { dst: u16, src: u16 },
    RedAnd { dst: u16, src: u16, mask: u64 },
    RedOr { dst: u16, src: u16 },
    RedXor { dst: u16, src: u16 },
    RedXnor { dst: u16, src: u16 },
    /// Sign-extend from a narrower width then re-truncate:
    /// `n[dst] = (((n[src] << shift) as i64 >> shift) as u64) & mask`.
    Sext { dst: u16, src: u16, shift: u32, mask: u64 },
    /// Unsigned comparison of canonical values.
    Cmp { dst: u16, a: u16, b: u16, kind: CmpKind },
    /// Signed comparison: each operand sign-extended by its own shift.
    Scmp { dst: u16, a: u16, b: u16, sa: u32, sb: u32, kind: CmpKind },
    LogAnd { dst: u16, a: u16, b: u16 },
    LogOr { dst: u16, a: u16, b: u16 },
    /// `n[dst] = n[a] << n[amt]` at result width `w` (≥ w shifts to 0).
    Shl { dst: u16, a: u16, amt: u16, w: u32 },
    Shr { dst: u16, a: u16, amt: u16, w: u32 },
    /// Arithmetic shift right at width `w` (sign bit is bit `w-1`).
    AShr { dst: u16, a: u16, amt: u16, w: u32 },
    /// Eager mux: `n[dst] = (n[cond] != 0 ? n[t] : n[f]) & mask`.
    Mux { dst: u16, cond: u16, t: u16, f: u16, mask: u64 },
    /// Two-part concat: `n[dst] = (n[hi] << lo_w) | n[lo]`.
    Concat2 { dst: u16, hi: u16, lo: u16, lo_w: u32 },
    /// `{n{v}}` replication, total ≤ 64 bits.
    RepeatN { dst: u16, src: u16, src_w: u32, n: u32 },
    /// Resize/move: `n[dst] = n[src] & mask`.
    MaskTo { dst: u16, src: u16, mask: u64 },
    /// Truncate a wide register into a narrow one.
    NarrowFromWide { dst: u16, src: u16, mask: u64 },
    // ---- wide ops (Bits registers; reuse the tree-walker's limb ops) ----
    /// `w[dst] = consts[cidx]`.
    WLdConst { dst: u16, cidx: u16 },
    WLdSig { dst: u16, sig: SigId },
    WLdMem { dst: u16, slot: u32, idx: u16 },
    /// Zero-extend a narrow register into a wide one at width `w`.
    Widen { dst: u16, src: u16, w: u32 },
    /// `w[dst] = w[src]` resized to `w` (zero-extend / truncate).
    WResizeFrom { dst: u16, src: u16, w: u32 },
    /// Full binary dispatch at the operands' natural widths — exactly the
    /// tree-walker's `CExpr::Binary` arm, including the pooled-buffer
    /// `divmod_into` path for > 128-bit `/` and `%`.
    WBin { dst: u16, a: u16, b: u16, op: BinaryOp, signed: bool },
    /// Fixed-limb unrolled wide binary ([`hwdbg_bits::fixed`]): unsigned
    /// add/sub/and/or/xor over equal-width operands of exactly `limbs`
    /// (2 or 4) limbs, skipping the generic limb loop.
    WBinF { dst: u16, a: u16, b: u16, op: BinaryOp, limbs: u8 },
    /// Boolean-result binary over wide operands; result lands narrow.
    WCmp { dst: u16, a: u16, b: u16, op: BinaryOp, signed: bool },
    /// Fixed-limb unsigned wide compare; result lands narrow.
    WCmpF { dst: u16, a: u16, b: u16, kind: CmpKind, limbs: u8 },
    WNot { dst: u16, src: u16 },
    WNeg { dst: u16, src: u16 },
    /// Reduction / logical-not over a wide register; result lands narrow.
    WReduce { dst: u16, src: u16, op: UnaryOp },
    /// Truthiness of a wide register into a narrow one.
    WTest { dst: u16, src: u16 },
    /// Constant-bound wide slice of a state signal.
    WSliceSig { dst: u16, sig: SigId, lo: u32, w: u32 },
    /// Constant-bound wide slice of a wide register.
    WSliceReg { dst: u16, src: u16, lo: u32, w: u32 },
    /// Concat append: `w[dst] = {w[dst], n[src] at width w}`.
    WPushN { dst: u16, src: u16, w: u32 },
    /// Concat append: `w[dst] = {w[dst], w[src]}`.
    WPushW { dst: u16, src: u16 },
    WRepeat { dst: u16, src: u16, n: u32 },
    WMov { dst: u16, src: u16 },
    // ---- control flow ----
    Jmp { target: u32 },
    /// Jump when `n[src] == 0`.
    Jz { src: u16, target: u32 },
    Jnz { src: u16, target: u32 },
    /// Fused `if (a ==/!= b)`: jump to `target` when the condition is
    /// FALSE (`eq` records whether the source op was `==`).
    JCmpF { a: u16, b: u16, eq: bool, target: u32 },
    /// Case dispatch against a constant label: jump when equal.
    JImmEq { src: u16, imm: u64, target: u32 },
    /// Case dispatch against a computed label: jump when equal.
    JEq { a: u16, b: u16, target: u32 },
    // ---- stores ----
    /// Hot path: blocking whole-signal store of a narrow value (the slot
    /// itself may be wide; `update_u64` zero-fills the upper limbs).
    StSigN { sig: SigId, src: u16 },
    /// Blind flush of a pinned (promoted) register to its signal slot: no
    /// force check, no compare, no changed-list push. Only emitted inside
    /// fused region programs, where the promoted signal's readers are all
    /// in-region and a force on the signal demotes the whole region.
    StFlushN { sig: SigId, src: u16 },
    /// General whole-signal store (wide value and/or nonblocking).
    StSig { sig: SigId, w: u32, src: Src, nb: bool },
    /// Single-bit store; OOB drops (or errors under strict bounds).
    StBit { sig: SigId, width: u32, idx: u16, src: u16, nb: bool },
    /// Constant-bound part-select store.
    StSlice { sig: SigId, lo: u32, w: u32, src: Src, nb: bool },
    /// Memory-element store through the §3.2.1 effective-address rule.
    StMem { sig: SigId, slot: u32, depth: u64, width: u32, idx: u16, src: Src, nb: bool },
    /// Strict-bounds pre-check for concat-lvalue parts: raises the same
    /// error resolve would, *before* any part commits.
    CkBit { sig: SigId, width: u32, idx: u16 },
    CkMem { sig: SigId, depth: u64, idx: u16 },
    // ---- statements ----
    /// `for`-loop iteration guard: `++n[ctr] > FOR_CAP` raises `LoopCap`.
    IncCheckCap { ctr: u16, var: SigId },
    /// `$display` via `displays[spec]` (no-op when logging is off).
    Display { spec: u16 },
    Finish,
}

/// A lowered `$display`: the format string plus each argument's register,
/// natural width, and declared signedness.
#[derive(Debug, Clone)]
pub(crate) struct DisplaySpec {
    pub format: String,
    pub args: Vec<(Src, u32, bool)>,
}

/// One unit's lowered program plus its register-file requirements.
#[derive(Debug)]
pub(crate) struct BcProgram {
    pub ops: Vec<Op>,
    pub displays: Vec<DisplaySpec>,
    pub wconsts: Vec<Bits>,
    pub n_narrow: usize,
    pub n_wide: usize,
}

impl BcProgram {
    /// Whether the program can raise `Flow::Finished`. Units that can
    /// finish are excluded from region fusion so `$finish` ordering stays
    /// identical to per-unit dispatch.
    pub(crate) fn has_finish(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, Op::Finish))
    }
}

/// Fixed-limb kernel eligibility: unsigned, equal operand widths, and a
/// limb count with an unrolled kernel (2 = 65..=128 bits, 4 = 193..=256).
/// Equal static widths also guarantee the generic path's in-place operand
/// resize is a no-op, so the kernels see canonical operands.
#[inline]
fn fixed_limbs(signed: bool, aw: u32, bw: u32) -> Option<u8> {
    if signed || aw != bw || aw <= 64 {
        return None;
    }
    match aw.div_ceil(64) {
        2 => Some(2),
        4 => Some(4),
        _ => None,
    }
}

#[inline]
fn mask_of(w: u32) -> u64 {
    debug_assert!((1..=64).contains(&w));
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Sign-extends the low `64 - shift` bits of `v` across the full u64.
#[inline]
fn sext64(v: u64, shift: u32) -> i64 {
    ((v << shift) as i64) >> shift
}

/// Extracts up to 64 bits at bit offset `lo` from a limb slice, masking to
/// the slice width. Bits beyond the source read as zero (limbs are
/// canonical, so the final partial limb's high bits are already zero).
#[inline]
fn extract64(limbs: &[u64], lo: u32, mask: u64) -> u64 {
    let li = (lo / 64) as usize;
    let off = lo % 64;
    let lo64 = limbs.get(li).copied().unwrap_or(0);
    let v = if off == 0 {
        lo64
    } else {
        let hi64 = limbs.get(li + 1).copied().unwrap_or(0);
        (lo64 >> off) | (hi64 << (64 - off))
    };
    v & mask
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// The result of lowering: the only errors are [`SimError::UnitTooLarge`]
/// and internal invariants that compilation guarantees.
type Lowered<T> = Result<T, SimError>;

fn too_large(resource: &'static str) -> SimError {
    SimError::UnitTooLarge { resource }
}

fn too_wide() -> SimError {
    too_large("4294967295 bits in one value")
}

/// A shape compilation never produces reached the lowering.
fn unlowerable(what: &str) -> SimError {
    SimError::Internal(format!("bytecode lowering met {what}"))
}

/// Lowers one unit body. `sig_width` is indexed by `SigId`, `mem_width`
/// by memory slot.
pub(crate) fn lower_unit(
    body: &CStmt,
    sig_width: &[u32],
    mem_width: &[u32],
) -> Lowered<BcProgram> {
    let mut l = Lower {
        sig_width,
        mem_width,
        promoted: &[],
        ops: Vec::new(),
        displays: Vec::new(),
        wconsts: Vec::new(),
        next_n: 0,
        max_n: 0,
        next_w: 0,
        max_w: 0,
    };
    l.stmt(body)?;
    Ok(BcProgram {
        ops: l.ops,
        displays: l.displays,
        wconsts: l.wconsts,
        n_narrow: l.max_n as usize,
        n_wide: l.max_w as usize,
    })
}

/// Sentinel for "not promoted" in a promotion map.
pub(crate) const NO_PROMOTION: u32 = u32::MAX;

/// Lowers the member bodies of one fused acyclic region into a single
/// straight-line program, in topological rank order. `promoted` maps a
/// signal index to a pinned narrow register (or [`NO_PROMOTION`]); the
/// first `n_promoted` narrow registers are reserved for those pins and
/// survive across member bodies — each promoted signal is written by an
/// unconditional plain assignment in an earlier-ranked member than any
/// reader, so no seeding from state is needed. Fails when the region as a
/// whole exceeds a program's capacity; the caller then runs the members'
/// per-unit programs instead.
pub(crate) fn lower_region(
    bodies: &[&CStmt],
    n_promoted: usize,
    promoted: &[u32],
    sig_width: &[u32],
    mem_width: &[u32],
) -> Lowered<BcProgram> {
    let n_promoted = u16::try_from(n_promoted).map_err(|_| too_large("65535 registers"))?;
    let mut l = Lower {
        sig_width,
        mem_width,
        promoted,
        ops: Vec::new(),
        displays: Vec::new(),
        wconsts: Vec::new(),
        next_n: n_promoted,
        max_n: n_promoted,
        next_w: 0,
        max_w: 0,
    };
    for body in bodies {
        l.stmt(body)?;
    }
    Ok(BcProgram {
        ops: l.ops,
        displays: l.displays,
        wconsts: l.wconsts,
        n_narrow: l.max_n as usize,
        n_wide: l.max_w as usize,
    })
}

struct Lower<'a> {
    sig_width: &'a [u32],
    mem_width: &'a [u32],
    /// Signal index → pinned narrow register, [`NO_PROMOTION`] otherwise.
    /// Empty for per-unit lowering.
    promoted: &'a [u32],
    ops: Vec<Op>,
    displays: Vec<DisplaySpec>,
    wconsts: Vec<Bits>,
    next_n: u16,
    max_n: u16,
    next_w: u16,
    max_w: u16,
}

impl Lower<'_> {
    /// The pinned narrow register holding `id`'s value, if promoted.
    fn promoted_reg(&self, id: SigId) -> Option<u16> {
        match self.promoted.get(id.index()) {
            Some(&r) if r != NO_PROMOTION => Some(r as u16),
            _ => None,
        }
    }

    fn alloc_n(&mut self) -> Lowered<u16> {
        if self.next_n == u16::MAX {
            return Err(too_large("65535 registers"));
        }
        let r = self.next_n;
        self.next_n += 1;
        self.max_n = self.max_n.max(self.next_n);
        Ok(r)
    }

    fn alloc_w(&mut self) -> Lowered<u16> {
        if self.next_w == u16::MAX {
            return Err(too_large("65535 registers"));
        }
        let r = self.next_w;
        self.next_w += 1;
        self.max_w = self.max_w.max(self.next_w);
        Ok(r)
    }

    /// Both watermarks, to [`release`](Lower::release) back to once the
    /// registers allocated after them are dead.
    fn marks(&self) -> (u16, u16) {
        (self.next_n, self.next_w)
    }

    fn release(&mut self, (n, w): (u16, u16)) {
        self.next_n = n;
        self.next_w = w;
    }

    /// The index the next wide constant takes.
    fn wconst_index(&self) -> Lowered<u16> {
        u16::try_from(self.wconsts.len()).map_err(|_| too_large("65535 wide constants"))
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Points the jump at `at` to the current end of the program.
    fn patch(&mut self, at: usize) {
        let t = self.here();
        self.patch_to(at, t);
    }

    fn patch_to(&mut self, at: usize, t: u32) {
        match &mut self.ops[at] {
            Op::Jmp { target }
            | Op::Jz { target, .. }
            | Op::Jnz { target, .. }
            | Op::JCmpF { target, .. }
            | Op::JImmEq { target, .. }
            | Op::JEq { target, .. } => *target = t,
            _ => unreachable!("patch target is not a jump"),
        }
    }

    /// Static result width of `e`, mirroring the tree-walker's *dynamic*
    /// widths exactly. Fails only for a width beyond `u32`.
    fn width_of(&self, e: &CExpr) -> Lowered<u32> {
        Ok(match e {
            CExpr::Const(v) => v.width(),
            CExpr::Sig(id) => self.sig_width[id.index()],
            CExpr::Unary(op, inner) => match op {
                UnaryOp::Not | UnaryOp::Neg => self.width_of(inner)?,
                _ => 1,
            },
            CExpr::Binary { op, signed, a, b } => {
                if op.is_boolean() {
                    1
                } else if matches!(op, BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr)
                    && !*signed
                {
                    // Unsigned shifts keep the left operand's width; the
                    // signed path extends both operands to the common
                    // width first, so the result is `max` there.
                    self.width_of(a)?
                } else {
                    self.width_of(a)?.max(self.width_of(b)?)
                }
            }
            CExpr::Ternary { width, .. } => *width,
            CExpr::BitIndex { .. } => 1,
            CExpr::MemIndex { slot, .. } => self.mem_width[*slot as usize],
            CExpr::RangeSig { width, .. } => *width,
            CExpr::Concat(parts) => {
                let mut sum = 0u32;
                for p in parts {
                    sum = sum.checked_add(self.width_of(p)?).ok_or_else(too_wide)?;
                }
                sum
            }
            CExpr::Repeat { count, body } => {
                count.checked_mul(self.width_of(body)?).ok_or_else(too_wide)?
            }
            CExpr::Resize(w, _) => *w,
        })
    }

    /// Lowers `e` into a register of the class its static width demands.
    fn expr(&mut self, e: &CExpr) -> Lowered<Src> {
        let w = self.width_of(e)?;
        if w <= 64 {
            self.expr_n(e, w).map(Src::N)
        } else {
            self.expr_w(e, w).map(Src::W)
        }
    }

    /// Lowers `e` into a wide register at its natural width `w` (narrow
    /// values are zero-extended in — `resize_in_place` semantics).
    fn wide_reg(&mut self, e: &CExpr, w: u32) -> Lowered<u16> {
        if w <= 64 {
            let r = self.expr_n(e, w)?;
            let d = self.alloc_w()?;
            self.emit(Op::Widen { dst: d, src: r, w });
            Ok(d)
        } else {
            self.expr_w(e, w)
        }
    }

    /// Lowers `e` and leaves its low 64 bits in a narrow register (index /
    /// shift-amount consumption: `Bits::to_u64` semantics).
    fn u64_reg(&mut self, e: &CExpr) -> Lowered<u16> {
        let w = self.width_of(e)?;
        if w <= 64 {
            self.expr_n(e, w)
        } else {
            let mark = self.next_n;
            let s = self.expr_w(e, w)?;
            let d = self.dst_n(mark)?;
            self.emit(Op::NarrowFromWide { dst: d, src: s, mask: u64::MAX });
            Ok(d)
        }
    }

    /// Lowers `e` into a narrow register whose truthiness equals
    /// `Bits::to_bool` of the tree-walker's value.
    fn truth_reg(&mut self, e: &CExpr) -> Lowered<u16> {
        let w = self.width_of(e)?;
        if w <= 64 {
            self.expr_n(e, w)
        } else {
            let mark = self.next_n;
            let s = self.expr_w(e, w)?;
            let d = self.dst_n(mark)?;
            self.emit(Op::WTest { dst: d, src: s });
            Ok(d)
        }
    }

    /// Emits a sign-extension from `from_w` up to `to_w` (both ≤ 64);
    /// identity widths are skipped.
    fn sext_to(&mut self, r: u16, from_w: u32, to_w: u32) -> Lowered<u16> {
        if from_w == to_w {
            return Ok(r);
        }
        let d = self.alloc_n()?;
        self.emit(Op::Sext {
            dst: d,
            src: r,
            shift: 64 - from_w,
            mask: mask_of(to_w),
        });
        Ok(d)
    }

    /// The destination of an expression's final op. The temporaries the
    /// expression allocated from `mark` up are dead once that op has read
    /// them, so the destination takes the lowest of them: register use
    /// grows with an expression's depth, not its size. A narrow op reads
    /// every source before it writes, so the destination may alias one.
    fn dst_n(&mut self, mark: u16) -> Lowered<u16> {
        self.next_n = mark;
        self.alloc_n()
    }

    /// Lowers a narrow-width (≤ 64) expression; `w` is `width_of(e)`. The
    /// result register stays allocated; every other narrow register the
    /// expression used is released by the op that consumes the result
    /// (see [`Lower::dst_n`]).
    fn expr_n(&mut self, e: &CExpr, w: u32) -> Lowered<u16> {
        // A wide register a narrow expression uses is read by one of its
        // own ops, so it is dead once the expression is lowered.
        let mark_w = self.next_w;
        let r = self.expr_n_ops(e, w)?;
        self.next_w = mark_w;
        Ok(r)
    }

    fn expr_n_ops(&mut self, e: &CExpr, w: u32) -> Lowered<u16> {
        debug_assert_eq!(self.width_of(e), Ok(w));
        let mark = self.next_n;
        match e {
            CExpr::Const(v) => {
                let d = self.alloc_n()?;
                self.emit(Op::LdConst { dst: d, imm: v.to_u64() });
                Ok(d)
            }
            CExpr::Sig(id) => {
                // Promoted signals live in a pinned register; the read is
                // free (the register always holds the flushed value).
                if let Some(p) = self.promoted_reg(*id) {
                    return Ok(p);
                }
                let d = self.alloc_n()?;
                self.emit(Op::LdSig { dst: d, sig: *id });
                Ok(d)
            }
            CExpr::Unary(op, inner) => match op {
                UnaryOp::Not | UnaryOp::Neg => {
                    let r = self.expr_n(inner, w)?;
                    let d = self.dst_n(mark)?;
                    let m = mask_of(w);
                    self.emit(if matches!(op, UnaryOp::Not) {
                        Op::Not { dst: d, src: r, mask: m }
                    } else {
                        Op::Neg { dst: d, src: r, mask: m }
                    });
                    Ok(d)
                }
                _ => {
                    let iw = self.width_of(inner)?;
                    if iw <= 64 {
                        let r = self.expr_n(inner, iw)?;
                        let d = self.dst_n(mark)?;
                        self.emit(match op {
                            UnaryOp::LogNot => Op::LogNot { dst: d, src: r },
                            UnaryOp::RedAnd => Op::RedAnd { dst: d, src: r, mask: mask_of(iw) },
                            UnaryOp::RedOr => Op::RedOr { dst: d, src: r },
                            UnaryOp::RedXor => Op::RedXor { dst: d, src: r },
                            _ => Op::RedXnor { dst: d, src: r },
                        });
                        Ok(d)
                    } else {
                        let r = self.expr_w(inner, iw)?;
                        let d = self.dst_n(mark)?;
                        self.emit(Op::WReduce { dst: d, src: r, op: *op });
                        Ok(d)
                    }
                }
            },
            CExpr::Binary { op, signed, a, b } => self.binary_n(*op, *signed, a, b, w),
            CExpr::Ternary { cond, t, f, width } => {
                let tw = self.width_of(t)?;
                let fw = self.width_of(f)?;
                let c = self.truth_reg(cond)?;
                if tw <= 64 && fw <= 64 {
                    // All-narrow: evaluate both arms eagerly (expression
                    // ops are pure and infallible) and fuse into a mux.
                    let rt = self.expr_n(t, tw)?;
                    let rf = self.expr_n(f, fw)?;
                    let d = self.dst_n(mark)?;
                    self.emit(Op::Mux {
                        dst: d,
                        cond: c,
                        t: rt,
                        f: rf,
                        mask: mask_of(*width),
                    });
                    Ok(d)
                } else {
                    // A wide arm: branch, then truncate into the narrow
                    // result register (the taken branch resizes to
                    // `width`, tree semantics).
                    let d = self.alloc_n()?;
                    let jz = self.emit(Op::Jz { src: c, target: u32::MAX });
                    self.arm_into_n(t, tw, d, *width)?;
                    self.next_n = d + 1; // only one arm runs
                    let jend = self.emit(Op::Jmp { target: u32::MAX });
                    self.patch(jz);
                    self.arm_into_n(f, fw, d, *width)?;
                    self.patch(jend);
                    Ok(d)
                }
            }
            CExpr::BitIndex { sig, width, idx } => {
                let i = self.u64_reg(idx)?;
                let d = self.dst_n(mark)?;
                self.emit(Op::LdBitIdx { dst: d, sig: *sig, width: *width, idx: i });
                Ok(d)
            }
            CExpr::MemIndex { slot, idx } => {
                let i = self.u64_reg(idx)?;
                let d = self.dst_n(mark)?;
                self.emit(Op::LdMem { dst: d, slot: *slot, idx: i });
                Ok(d)
            }
            CExpr::RangeSig { sig, lo, .. } => {
                let d = self.alloc_n()?;
                self.emit(Op::SliceSig {
                    dst: d,
                    sig: *sig,
                    lo: *lo,
                    mask: mask_of(w),
                });
                Ok(d)
            }
            CExpr::Concat(parts) => {
                let mut it = parts.iter();
                let first = it.next().ok_or_else(|| unlowerable("an empty concat"))?;
                let fw = self.width_of(first)?;
                let mut acc = self.expr_n(first, fw)?;
                for p in it {
                    let pw = self.width_of(p)?;
                    let rp = self.expr_n(p, pw)?;
                    let d = self.dst_n(mark)?;
                    self.emit(Op::Concat2 { dst: d, hi: acc, lo: rp, lo_w: pw });
                    acc = d;
                }
                Ok(acc)
            }
            CExpr::Repeat { count, body } => {
                let bw = self.width_of(body)?;
                let r = self.expr_n(body, bw)?;
                let d = self.dst_n(mark)?;
                self.emit(Op::RepeatN { dst: d, src: r, src_w: bw, n: *count });
                Ok(d)
            }
            CExpr::Resize(_, inner) => {
                let iw = self.width_of(inner)?;
                if iw <= 64 {
                    let r = self.expr_n(inner, iw)?;
                    if iw == w {
                        return Ok(r);
                    }
                    let d = self.dst_n(mark)?;
                    self.emit(Op::MaskTo { dst: d, src: r, mask: mask_of(w) });
                    Ok(d)
                } else {
                    let r = self.expr_w(inner, iw)?;
                    let d = self.dst_n(mark)?;
                    self.emit(Op::NarrowFromWide { dst: d, src: r, mask: mask_of(w) });
                    Ok(d)
                }
            }
        }
    }

    /// Lowers a ternary arm into an already-allocated narrow destination,
    /// truncating from the arm's natural width to the ternary width.
    fn arm_into_n(&mut self, arm: &CExpr, aw: u32, dst: u16, w: u32) -> Lowered<()> {
        if aw <= 64 {
            let r = self.expr_n(arm, aw)?;
            self.emit(Op::MaskTo { dst, src: r, mask: mask_of(w) });
        } else {
            let r = self.expr_w(arm, aw)?;
            self.emit(Op::NarrowFromWide { dst, src: r, mask: mask_of(w) });
        }
        Ok(())
    }

    /// Narrow binary operators, mirroring `apply_binary_into` /
    /// `apply_binary_signed_into` over canonical u64 values.
    fn binary_n(
        &mut self,
        op: BinaryOp,
        signed: bool,
        a: &CExpr,
        b: &CExpr,
        w: u32,
    ) -> Lowered<u16> {
        use BinaryOp::*;
        let mark = self.next_n;
        let aw = self.width_of(a)?;
        let bw = self.width_of(b)?;
        if op.is_boolean() {
            if aw > 64 || bw > 64 {
                let wa = self.wide_reg(a, aw)?;
                let wb = self.wide_reg(b, bw)?;
                let d = self.dst_n(mark)?;
                // Equal-width unsigned comparisons (including Eq/Ne, whose
                // zero-extending semantics coincide at equal widths) take
                // the fixed-limb kernel; LogAnd/LogOr and signed/mixed
                // widths keep the generic dispatch.
                match (fixed_limbs(signed, aw, bw), CmpKind::of(op)) {
                    (Some(limbs), Some(kind)) => {
                        self.emit(Op::WCmpF { dst: d, a: wa, b: wb, kind, limbs });
                    }
                    _ => {
                        self.emit(Op::WCmp { dst: d, a: wa, b: wb, op, signed });
                    }
                }
                return Ok(d);
            }
            let ra = self.expr_n(a, aw)?;
            let rb = self.expr_n(b, bw)?;
            let d = self.dst_n(mark)?;
            match op {
                LogAnd => {
                    // Truthiness is sign-extension-invariant.
                    self.emit(Op::LogAnd { dst: d, a: ra, b: rb });
                }
                LogOr => {
                    self.emit(Op::LogOr { dst: d, a: ra, b: rb });
                }
                _ => {
                    let kind = CmpKind::of(op).ok_or_else(|| unlowerable("a boolean operator"))?;
                    if signed {
                        self.emit(Op::Scmp {
                            dst: d,
                            a: ra,
                            b: rb,
                            sa: 64 - aw,
                            sb: 64 - bw,
                            kind,
                        });
                    } else {
                        self.emit(Op::Cmp { dst: d, a: ra, b: rb, kind });
                    }
                }
            }
            return Ok(d);
        }
        // Non-boolean narrow result (w ≤ 64 means both operand widths that
        // feed the result are ≤ 64: unsigned shifts use only `aw`, all
        // other ops have w = max(aw, bw)).
        if matches!(op, Shl | Shr | AShr) && !signed {
            debug_assert_eq!(w, aw);
            let ra = self.expr_n(a, aw)?;
            let amt = self.u64_reg(b)?;
            let d = self.dst_n(mark)?;
            self.emit(match op {
                Shl => Op::Shl { dst: d, a: ra, amt, w },
                Shr => Op::Shr { dst: d, a: ra, amt, w },
                _ => Op::AShr { dst: d, a: ra, amt, w },
            });
            return Ok(d);
        }
        let ra = self.expr_n(a, aw)?;
        if signed && matches!(op, AShr) {
            // Signed `>>>`: the amount reads the *unextended* right
            // operand; the left operand sign-extends to the common width.
            let amt = self.u64_reg(b)?;
            let xa = self.sext_to(ra, aw, w)?;
            let d = self.dst_n(mark)?;
            self.emit(Op::AShr { dst: d, a: xa, amt, w });
            return Ok(d);
        }
        let rb = self.expr_n(b, bw)?;
        let (xa, xb) = if signed {
            (self.sext_to(ra, aw, w)?, self.sext_to(rb, bw, w)?)
        } else {
            (ra, rb)
        };
        let d = self.dst_n(mark)?;
        let m = mask_of(w);
        self.emit(match op {
            Add => Op::Add { dst: d, a: xa, b: xb, mask: m },
            Sub => Op::Sub { dst: d, a: xa, b: xb, mask: m },
            Mul => Op::Mul { dst: d, a: xa, b: xb, mask: m },
            Div => Op::Div { dst: d, a: xa, b: xb },
            Mod => Op::Mod { dst: d, a: xa, b: xb },
            And => Op::And { dst: d, a: xa, b: xb },
            Or => Op::Or { dst: d, a: xa, b: xb },
            Xor => Op::Xor { dst: d, a: xa, b: xb },
            Xnor => Op::Xnor { dst: d, a: xa, b: xb, mask: m },
            // Signed shifts go through the `_` arm of
            // `apply_binary_signed_into`: both operands sign-extended to
            // `w`, then a plain shift whose amount reads the *extended*
            // right operand.
            Shl => Op::Shl { dst: d, a: xa, amt: xb, w },
            Shr => Op::Shr { dst: d, a: xa, amt: xb, w },
            _ => return Err(unlowerable("a narrow operator")),
        });
        Ok(d)
    }

    /// Lowers a wide-width (> 64) expression; `w` is `width_of(e)`. The
    /// destination is allocated before the operands, as a wide op may not
    /// write a register it reads, and only it stays allocated: the
    /// operands are dead once the op has run, so wide register use, like
    /// narrow, grows with depth, not size.
    fn expr_w(&mut self, e: &CExpr, w: u32) -> Lowered<u16> {
        debug_assert_eq!(self.width_of(e), Ok(w));
        let d = self.alloc_w()?;
        let marks = self.marks();
        self.wide_into(e, w, d)?;
        self.release(marks);
        Ok(d)
    }

    fn wide_into(&mut self, e: &CExpr, w: u32, d: u16) -> Lowered<()> {
        match e {
            CExpr::Const(v) => {
                let cidx = self.wconst_index()?;
                self.wconsts.push(v.clone());
                self.emit(Op::WLdConst { dst: d, cidx });
            }
            CExpr::Sig(id) => {
                self.emit(Op::WLdSig { dst: d, sig: *id });
            }
            CExpr::Unary(op, inner) => {
                // Only Not/Neg can be wide; reductions land narrow.
                let r = self.expr_w(inner, w)?;
                self.emit(if matches!(op, UnaryOp::Not) {
                    Op::WNot { dst: d, src: r }
                } else {
                    Op::WNeg { dst: d, src: r }
                });
            }
            CExpr::Binary { op, signed, a, b } => {
                let aw = self.width_of(a)?;
                let bw = self.width_of(b)?;
                let wa = self.wide_reg(a, aw)?;
                let wb = self.wide_reg(b, bw)?;
                let fixed = matches!(
                    op,
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::And | BinaryOp::Or | BinaryOp::Xor
                )
                .then(|| fixed_limbs(*signed, aw, bw))
                .flatten();
                if let Some(limbs) = fixed {
                    self.emit(Op::WBinF { dst: d, a: wa, b: wb, op: *op, limbs });
                } else {
                    self.emit(Op::WBin { dst: d, a: wa, b: wb, op: *op, signed: *signed });
                }
            }
            CExpr::Ternary { cond, t, f, width } => {
                let tw = self.width_of(t)?;
                let fw = self.width_of(f)?;
                let c = self.truth_reg(cond)?;
                let jz = self.emit(Op::Jz { src: c, target: u32::MAX });
                let marks = self.marks();
                self.arm_into_w(t, tw, d, *width)?;
                self.release(marks);
                let jend = self.emit(Op::Jmp { target: u32::MAX });
                self.patch(jz);
                self.arm_into_w(f, fw, d, *width)?;
                self.patch(jend);
            }
            CExpr::MemIndex { slot, idx } => {
                let i = self.u64_reg(idx)?;
                self.emit(Op::WLdMem { dst: d, slot: *slot, idx: i });
            }
            CExpr::RangeSig { sig, lo, .. } => {
                self.emit(Op::WSliceSig { dst: d, sig: *sig, lo: *lo, w });
            }
            CExpr::Concat(parts) => {
                // Compilation refuses an empty concat. Each part's
                // registers are dead once it is pushed.
                for (i, p) in parts.iter().enumerate() {
                    let pw = self.width_of(p)?;
                    let marks = self.marks();
                    let src = self.expr(p)?;
                    self.emit(match (src, i) {
                        (Src::N(r), 0) => Op::Widen { dst: d, src: r, w: pw },
                        (Src::W(r), 0) => Op::WMov { dst: d, src: r },
                        (Src::N(r), _) => Op::WPushN { dst: d, src: r, w: pw },
                        (Src::W(r), _) => Op::WPushW { dst: d, src: r },
                    });
                    self.release(marks);
                }
            }
            CExpr::Repeat { count, body } => {
                let bw = self.width_of(body)?;
                let r = self.wide_reg(body, bw)?;
                self.emit(Op::WRepeat { dst: d, src: r, n: *count });
            }
            CExpr::Resize(_, inner) => {
                let src = self.expr(inner)?;
                self.emit(match src {
                    Src::N(r) => Op::Widen { dst: d, src: r, w },
                    Src::W(r) => Op::WResizeFrom { dst: d, src: r, w },
                });
            }
            // Width-1 constructs can never be wide.
            CExpr::BitIndex { .. } => return Err(unlowerable("a wide bit select")),
        }
        Ok(())
    }

    /// Lowers a ternary arm into an already-allocated wide destination at
    /// the ternary width `w` (resize semantics of the taken branch).
    fn arm_into_w(&mut self, arm: &CExpr, aw: u32, dst: u16, w: u32) -> Lowered<()> {
        if aw <= 64 {
            let r = self.expr_n(arm, aw)?;
            // set_u64 at `w` zero-extends, exactly resize_in_place(w) of
            // a ≤64-bit value.
            self.emit(Op::Widen { dst, src: r, w });
        } else {
            let r = self.expr_w(arm, aw)?;
            self.emit(Op::WResizeFrom { dst, src: r, w });
        }
        Ok(())
    }

    /// Lowers one statement; register watermarks reset afterwards so each
    /// statement's temporaries are reused by the next.
    fn stmt(&mut self, s: &CStmt) -> Lowered<()> {
        let marks = self.marks();
        self.stmt_inner(s)?;
        self.release(marks);
        Ok(())
    }

    fn stmt_inner(&mut self, s: &CStmt) -> Lowered<()> {
        match s {
            CStmt::Block(stmts) => {
                for st in stmts {
                    self.stmt(st)?;
                }
                Ok(())
            }
            CStmt::If { cond, then, els } => {
                // Fuse `if (a == b)` / `if (a != b)` over narrow unsigned
                // operands into a single compare-and-branch.
                let jfalse = if let CExpr::Binary { op, signed: false, a, b } = cond {
                    let (aw, bw) = (self.width_of(a)?, self.width_of(b)?);
                    if matches!(op, BinaryOp::Eq | BinaryOp::Ne) && aw <= 64 && bw <= 64 {
                        let ra = self.expr_n(a, aw)?;
                        let rb = self.expr_n(b, bw)?;
                        self.emit(Op::JCmpF {
                            a: ra,
                            b: rb,
                            eq: matches!(op, BinaryOp::Eq),
                            target: u32::MAX,
                        })
                    } else {
                        let c = self.truth_reg(cond)?;
                        self.emit(Op::Jz { src: c, target: u32::MAX })
                    }
                } else {
                    let c = self.truth_reg(cond)?;
                    self.emit(Op::Jz { src: c, target: u32::MAX })
                };
                self.stmt(then)?;
                if let Some(e) = els {
                    let jend = self.emit(Op::Jmp { target: u32::MAX });
                    self.patch(jfalse);
                    self.stmt(e)?;
                    self.patch(jend);
                } else {
                    self.patch(jfalse);
                }
                Ok(())
            }
            CStmt::Case { sel, arms, default } => self.case(sel, arms, default.as_deref()),
            CStmt::Assign { lhs, nonblocking, rhs } => self.store(lhs, rhs, *nonblocking),
            CStmt::For { var, var_width, init, cond, step, body } => {
                self.assign_loop_var(*var, *var_width, init)?;
                let ctr = self.alloc_n()?;
                self.emit(Op::LdConst { dst: ctr, imm: 0 });
                let head = self.here();
                let marks = self.marks();
                let c = self.truth_reg(cond)?;
                let jend = self.emit(Op::Jz { src: c, target: u32::MAX });
                self.release(marks);
                self.stmt(body)?;
                self.assign_loop_var(*var, *var_width, step)?;
                self.emit(Op::IncCheckCap { ctr, var: *var });
                self.emit(Op::Jmp { target: head });
                self.patch(jend);
                Ok(())
            }
            CStmt::Display { format, args, signs } => {
                // Argument registers are evaluated unconditionally (pure,
                // infallible); the Display op itself is a no-op when the
                // unit runs without a log sink.
                let mut spec_args = Vec::with_capacity(args.len());
                for (i, a) in args.iter().enumerate() {
                    let w = self.width_of(a)?;
                    let src = self.expr(a)?;
                    let signed = signs.get(i).copied().unwrap_or(false);
                    spec_args.push((src, w, signed));
                }
                let spec = u16::try_from(self.displays.len())
                    .map_err(|_| too_large("65535 `$display` statements"))?;
                self.displays.push(DisplaySpec {
                    format: format.clone(),
                    args: spec_args,
                });
                self.emit(Op::Display { spec });
                Ok(())
            }
            CStmt::Finish => {
                self.emit(Op::Finish);
                Ok(())
            }
            CStmt::Empty => Ok(()),
        }
    }

    /// `for`-loop variable assignment: a blocking whole-signal store whose
    /// temporaries are released at once (a wide variable stores through
    /// [`Op::StSig`]).
    fn assign_loop_var(&mut self, var: SigId, width: u32, e: &CExpr) -> Lowered<()> {
        let marks = self.marks();
        self.store(&CLValue::Sig { id: var, width }, e, false)?;
        self.release(marks);
        Ok(())
    }

    fn case(&mut self, sel: &CExpr, arms: &[CCaseArm], default: Option<&CStmt>) -> Lowered<()> {
        let sel_w = self.width_of(sel)?;
        let all_narrow = sel_w <= 64
            && arms.iter().all(|arm| {
                arm.labels
                    .iter()
                    .all(|l| matches!(self.width_of(l), Ok(w) if w <= 64))
            });
        // Dispatch chain: per arm, per label (in order — first match
        // wins, preserving the tree-walker's lazy label evaluation order
        // for the side-effect-free label expressions), a jump to the arm
        // body; fall-through goes to the default (or the end).
        let mut arm_holes: Vec<Vec<usize>> = Vec::with_capacity(arms.len());
        if all_narrow {
            let sreg = self.expr_n(sel, sel_w)?;
            for arm in arms {
                let mut holes = Vec::with_capacity(arm.labels.len());
                for label in &arm.labels {
                    // Comparison is eq_zero_ext: u64 equality of
                    // canonical values regardless of width.
                    if let CExpr::Const(v) = label {
                        holes.push(self.emit(Op::JImmEq {
                            src: sreg,
                            imm: v.to_u64(),
                            target: u32::MAX,
                        }));
                    } else {
                        let marks = self.marks();
                        let lw = self.width_of(label)?;
                        let lr = self.expr_n(label, lw)?;
                        holes.push(self.emit(Op::JEq {
                            a: sreg,
                            b: lr,
                            target: u32::MAX,
                        }));
                        self.release(marks);
                    }
                }
                arm_holes.push(holes);
            }
        } else {
            let ws = self.wide_reg(sel, sel_w)?;
            for arm in arms {
                let mut holes = Vec::with_capacity(arm.labels.len());
                for label in &arm.labels {
                    let marks = self.marks();
                    let lw = self.width_of(label)?;
                    let wl = self.wide_reg(label, lw)?;
                    let t = self.alloc_n()?;
                    // Eq is non-mutating (eq_zero_ext), so the sel
                    // register survives across labels.
                    self.emit(Op::WCmp {
                        dst: t,
                        a: ws,
                        b: wl,
                        op: BinaryOp::Eq,
                        signed: false,
                    });
                    holes.push(self.emit(Op::Jnz { src: t, target: u32::MAX }));
                    self.release(marks);
                }
                arm_holes.push(holes);
            }
        }
        let jdefault = self.emit(Op::Jmp { target: u32::MAX });
        let mut end_holes = Vec::with_capacity(arms.len());
        for (arm, holes) in arms.iter().zip(arm_holes) {
            let at = self.here();
            for h in holes {
                self.patch_to(h, at);
            }
            self.stmt(&arm.body)?;
            end_holes.push(self.emit(Op::Jmp { target: u32::MAX }));
        }
        self.patch(jdefault);
        if let Some(d) = default {
            self.stmt(d)?;
        }
        for h in end_holes {
            self.patch(h);
        }
        Ok(())
    }

    /// Lowers one assignment. The rhs evaluates first (tree order), then
    /// index expressions, then bounds checks, then the commit — identical
    /// observable ordering to resolve-all-then-commit since expression
    /// evaluation is pure.
    fn store(&mut self, lhs: &CLValue, rhs: &CExpr, nb: bool) -> Lowered<()> {
        match lhs {
            CLValue::Sig { id, width } => {
                // Promoted target: land the truncated value in the pinned
                // register, then blind-flush it to state (no compare, no
                // changed-list push — intra-region readers use the
                // register; partial-access reads and VCD see the flush).
                if !nb {
                    if let Some(p) = self.promoted_reg(*id) {
                        let m = mask_of(*width);
                        match self.expr(rhs)? {
                            Src::N(r) => {
                                self.emit(Op::MaskTo { dst: p, src: r, mask: m });
                            }
                            Src::W(r) => {
                                self.emit(Op::NarrowFromWide { dst: p, src: r, mask: m });
                            }
                        }
                        self.emit(Op::StFlushN { sig: *id, src: p });
                        return Ok(());
                    }
                }
                let val = self.expr(rhs)?;
                match val {
                    Src::N(r) if !nb => {
                        self.emit(Op::StSigN { sig: *id, src: r });
                    }
                    _ => {
                        self.emit(Op::StSig { sig: *id, w: *width, src: val, nb });
                    }
                }
                Ok(())
            }
            CLValue::BitIndex { id, width, idx } => {
                let src = self.rhs_low64(rhs)?;
                let i = self.u64_reg(idx)?;
                self.emit(Op::StBit { sig: *id, width: *width, idx: i, src, nb });
                Ok(())
            }
            CLValue::MemIndex { id, slot, depth, width, idx } => {
                let val = self.expr(rhs)?;
                let i = self.u64_reg(idx)?;
                self.emit(Op::StMem {
                    sig: *id,
                    slot: *slot,
                    depth: *depth,
                    width: *width,
                    idx: i,
                    src: val,
                    nb,
                });
                Ok(())
            }
            CLValue::Range { id, lo, width } => {
                let val = self.expr(rhs)?;
                self.emit(Op::StSlice { sig: *id, lo: *lo, w: *width, src: val, nb });
                Ok(())
            }
            CLValue::Concat { parts, total } => self.store_concat(parts, *total, rhs, nb),
        }
    }

    /// The rhs reduced to its low 64 bits (single-bit targets; the store
    /// op masks to one bit).
    fn rhs_low64(&mut self, rhs: &CExpr) -> Lowered<u16> {
        match self.expr(rhs)? {
            Src::N(r) => Ok(r),
            Src::W(r) => {
                let d = self.alloc_n()?;
                self.emit(Op::NarrowFromWide { dst: d, src: r, mask: u64::MAX });
                Ok(d)
            }
        }
    }

    fn store_concat(
        &mut self,
        parts: &[CLValue],
        total: u32,
        rhs: &CExpr,
        nb: bool,
    ) -> Lowered<()> {
        // Pre-plan each part (compilation flattened nested concats).
        enum Plan {
            Sig { id: SigId, width: u32 },
            Bit { id: SigId, width: u32, idx: u16 },
            Mem { id: SigId, slot: u32, depth: u64, width: u32, idx: u16 },
            Slice { id: SigId, lo: u32, w: u32 },
        }
        // Rhs first (tree order), resized to the concat total.
        let rw = self.width_of(rhs)?;
        let rt = if total <= 64 {
            match self.expr(rhs)? {
                Src::N(r) => {
                    if rw == total {
                        Src::N(r)
                    } else {
                        let d = self.alloc_n()?;
                        self.emit(Op::MaskTo { dst: d, src: r, mask: mask_of(total) });
                        Src::N(d)
                    }
                }
                Src::W(r) => {
                    let d = self.alloc_n()?;
                    self.emit(Op::NarrowFromWide { dst: d, src: r, mask: mask_of(total) });
                    Src::N(d)
                }
            }
        } else {
            match self.expr(rhs)? {
                Src::N(r) => {
                    let d = self.alloc_w()?;
                    self.emit(Op::Widen { dst: d, src: r, w: total });
                    Src::W(d)
                }
                Src::W(r) => {
                    if rw == total {
                        Src::W(r)
                    } else {
                        let d = self.alloc_w()?;
                        self.emit(Op::WResizeFrom { dst: d, src: r, w: total });
                        Src::W(d)
                    }
                }
            }
        };
        // Index expressions evaluate MSB-first (tree resolve order; pure,
        // so interleaving with the slicing below is unobservable).
        let mut plans = Vec::with_capacity(parts.len());
        for part in parts {
            plans.push(match part {
                CLValue::Sig { id, width } => Plan::Sig { id: *id, width: *width },
                CLValue::BitIndex { id, width, idx } => {
                    let i = self.u64_reg(idx)?;
                    Plan::Bit { id: *id, width: *width, idx: i }
                }
                CLValue::MemIndex { id, slot, depth, width, idx } => {
                    let i = self.u64_reg(idx)?;
                    Plan::Mem {
                        id: *id,
                        slot: *slot,
                        depth: *depth,
                        width: *width,
                        idx: i,
                    }
                }
                CLValue::Range { id, lo, width } => Plan::Slice { id: *id, lo: *lo, w: *width },
                CLValue::Concat { .. } => return Err(unlowerable("a nested concat lvalue")),
            });
        }
        // Strict-bounds pre-checks in MSB-first part order: resolve
        // raises before anything commits, and the first violating part
        // (MSB-most) names the error.
        for plan in &plans {
            match plan {
                Plan::Bit { id, width, idx } => {
                    self.emit(Op::CkBit { sig: *id, width: *width, idx: *idx });
                }
                Plan::Mem { id, depth, idx, .. } => {
                    self.emit(Op::CkMem { sig: *id, depth: *depth, idx: *idx });
                }
                _ => {}
            }
        }
        // Slice each part's bits out of the resized rhs and store,
        // MSB-first.
        let mut hi = total;
        for (plan, pw) in plans.iter().zip(parts.iter().map(CLValue::width)) {
            hi -= pw;
            // A part's value register is dead once the part is stored.
            let marks = self.marks();
            let part_val: Src = if pw <= 64 {
                let d = self.alloc_n()?;
                match rt {
                    Src::N(r) => {
                        self.emit(Op::SliceReg { dst: d, src: r, lo: hi, mask: mask_of(pw) });
                    }
                    Src::W(r) => {
                        self.emit(Op::SliceWideReg {
                            dst: d,
                            src: r,
                            lo: hi,
                            mask: mask_of(pw),
                        });
                    }
                }
                Src::N(d)
            } else {
                let d = self.alloc_w()?;
                match rt {
                    // A > 64-bit part can only come from a wide rhs.
                    Src::N(_) => return Err(unlowerable("a wide part of a narrow value")),
                    Src::W(r) => {
                        self.emit(Op::WSliceReg { dst: d, src: r, lo: hi, w: pw });
                    }
                }
                Src::W(d)
            };
            match *plan {
                Plan::Sig { id, width } => match part_val {
                    Src::N(r) if !nb => {
                        self.emit(Op::StSigN { sig: id, src: r });
                    }
                    _ => {
                        self.emit(Op::StSig { sig: id, w: width, src: part_val, nb });
                    }
                },
                Plan::Bit { id, width, idx } => {
                    let src = match part_val {
                        Src::N(r) => r,
                        Src::W(_) => return Err(unlowerable("a wide bit part")),
                    };
                    self.emit(Op::StBit { sig: id, width, idx, src, nb });
                }
                Plan::Mem { id, slot, depth, width, idx } => {
                    self.emit(Op::StMem {
                        sig: id,
                        slot,
                        depth,
                        width,
                        idx,
                        src: part_val,
                        nb,
                    });
                }
                Plan::Slice { id, lo, w } => {
                    self.emit(Op::StSlice { sig: id, lo, w, src: part_val, nb });
                }
            }
            self.release(marks);
        }
        Ok(())
    }
}


// ---------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------

#[inline]
fn nr(exec: &CExec<'_>, i: u16) -> u64 {
    exec.scratch.nregs[i as usize]
}

#[inline]
fn set_nr(exec: &mut CExec<'_>, i: u16, v: u64) {
    exec.scratch.nregs[i as usize] = v;
}

#[inline]
fn take_w(exec: &mut CExec<'_>, i: u16) -> Bits {
    std::mem::take(&mut exec.scratch.wregs[i as usize])
}

#[inline]
fn put_w(exec: &mut CExec<'_>, i: u16, b: Bits) {
    exec.scratch.wregs[i as usize] = b;
}

/// Routes a resolved write to the nonblocking queue (clocked context with
/// `nb` set) or commits it immediately — `write_nb`'s degrade-to-blocking
/// semantics.
#[inline]
fn sink_write(exec: &mut CExec<'_>, nb: bool, w: CNbWrite) {
    if nb {
        if let Some(q) = exec.nb.as_mut() {
            q.push(w);
            return;
        }
    }
    exec.commit(w);
}

/// The tree-walker's `CExpr::Binary` evaluation over already-loaded wide
/// operands, including the pooled-buffer wide-divide path. Operands are
/// scratch (resized in place), matching `eval_into`.
fn wide_binary(
    scratch: &mut EvalScratch,
    op: BinaryOp,
    signed: bool,
    x: &mut Bits,
    y: &mut Bits,
    out: &mut Bits,
) {
    if matches!(op, BinaryOp::Div | BinaryOp::Mod) && x.width().max(y.width()) > 128 {
        let w = x.width().max(y.width());
        if signed {
            x.resize_signed_in_place(w);
            y.resize_signed_in_place(w);
        } else {
            x.resize_in_place(w);
            y.resize_in_place(w);
        }
        let mut spare = scratch.take();
        if matches!(op, BinaryOp::Div) {
            x.divmod_into(y, out, &mut spare);
        } else {
            x.divmod_into(y, &mut spare, out);
        }
        scratch.put(spare);
    } else if signed {
        apply_binary_signed_into(op, x, y, out);
    } else {
        apply_binary_into(op, x, y, out);
    }
}

/// Dispatch to the fixed-limb unrolled kernels ([`hwdbg_bits::fixed`]).
/// Lowering guarantees equal unsigned operand widths of exactly `limbs`
/// (2 or 4) limbs and `op` ∈ {Add, Sub, And, Or, Xor}.
fn fixed_binary(op: BinaryOp, limbs: u8, a: &Bits, b: &Bits, out: &mut Bits) {
    macro_rules! dispatch {
        ($kernel:ident) => {
            if limbs == 2 {
                fixed::$kernel::<2>(a, b, out)
            } else {
                fixed::$kernel::<4>(a, b, out)
            }
        };
    }
    match op {
        BinaryOp::Add => dispatch!(add_into),
        BinaryOp::Sub => dispatch!(sub_into),
        BinaryOp::And => dispatch!(and_into),
        BinaryOp::Or => dispatch!(or_into),
        BinaryOp::Xor => dispatch!(xor_into),
        _ => unreachable!("fixed_binary op outside the unrolled set"),
    }
}

#[inline]
fn cmp_u(a: u64, b: u64, kind: CmpKind) -> bool {
    match kind {
        CmpKind::Lt => a < b,
        CmpKind::Le => a <= b,
        CmpKind::Gt => a > b,
        CmpKind::Ge => a >= b,
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
    }
}

#[inline]
fn cmp_i(a: i64, b: i64, kind: CmpKind) -> bool {
    match kind {
        CmpKind::Lt => a < b,
        CmpKind::Le => a <= b,
        CmpKind::Gt => a > b,
        CmpKind::Ge => a >= b,
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
    }
}

fn oob(state: &SimState, sig: SigId, index: u64, depth: u64) -> SimError {
    SimError::OutOfBounds {
        signal: state.table().name(sig).to_owned(),
        index,
        depth,
    }
}

/// Executes one lowered program against the unit-execution context.
///
/// Only two errors are reachable — `LoopCap` and strict-bounds
/// `OutOfBounds` — the same two the tree-walker raises.
pub(crate) fn run(prog: &BcProgram, exec: &mut CExec<'_>) -> Result<Flow, SimError> {
    let mut pc = 0usize;
    let ops = &prog.ops[..];
    while let Some(op) = ops.get(pc) {
        pc += 1;
        match *op {
            // ---- narrow loads ----
            Op::LdConst { dst, imm } => set_nr(exec, dst, imm),
            Op::LdSig { dst, sig } => {
                let v = exec.state.get_id(sig).to_u64();
                set_nr(exec, dst, v);
            }
            Op::LdBitIdx { dst, sig, width, idx } => {
                let i = nr(exec, idx);
                let v = exec.state.get_id(sig);
                let bit = i < u64::from(width) && v.bit(i as u32);
                set_nr(exec, dst, u64::from(bit));
            }
            Op::LdMem { dst, slot, idx } => {
                let i = nr(exec, idx);
                let v = exec.state.read_mem_slot_u64(slot, i);
                set_nr(exec, dst, v);
            }
            Op::SliceSig { dst, sig, lo, mask } => {
                let v = extract64(exec.state.get_id(sig).limbs(), lo, mask);
                set_nr(exec, dst, v);
            }
            Op::SliceReg { dst, src, lo, mask } => {
                let v = if lo >= 64 { 0 } else { (nr(exec, src) >> lo) & mask };
                set_nr(exec, dst, v);
            }
            Op::SliceWideReg { dst, src, lo, mask } => {
                let v = extract64(exec.scratch.wregs[src as usize].limbs(), lo, mask);
                set_nr(exec, dst, v);
            }
            // ---- narrow ALU ----
            Op::Add { dst, a, b, mask } => {
                let v = nr(exec, a).wrapping_add(nr(exec, b)) & mask;
                set_nr(exec, dst, v);
            }
            Op::Sub { dst, a, b, mask } => {
                let v = nr(exec, a).wrapping_sub(nr(exec, b)) & mask;
                set_nr(exec, dst, v);
            }
            Op::Mul { dst, a, b, mask } => {
                let v = nr(exec, a).wrapping_mul(nr(exec, b)) & mask;
                set_nr(exec, dst, v);
            }
            Op::Div { dst, a, b } => {
                let d = nr(exec, b);
                let v = nr(exec, a).checked_div(d).unwrap_or(0);
                set_nr(exec, dst, v);
            }
            Op::Mod { dst, a, b } => {
                let d = nr(exec, b);
                let v = nr(exec, a).checked_rem(d).unwrap_or(0);
                set_nr(exec, dst, v);
            }
            Op::And { dst, a, b } => {
                let v = nr(exec, a) & nr(exec, b);
                set_nr(exec, dst, v);
            }
            Op::Or { dst, a, b } => {
                let v = nr(exec, a) | nr(exec, b);
                set_nr(exec, dst, v);
            }
            Op::Xor { dst, a, b } => {
                let v = nr(exec, a) ^ nr(exec, b);
                set_nr(exec, dst, v);
            }
            Op::Xnor { dst, a, b, mask } => {
                let v = !(nr(exec, a) ^ nr(exec, b)) & mask;
                set_nr(exec, dst, v);
            }
            Op::Not { dst, src, mask } => {
                let v = !nr(exec, src) & mask;
                set_nr(exec, dst, v);
            }
            Op::Neg { dst, src, mask } => {
                let v = nr(exec, src).wrapping_neg() & mask;
                set_nr(exec, dst, v);
            }
            Op::LogNot { dst, src } => {
                let v = u64::from(nr(exec, src) == 0);
                set_nr(exec, dst, v);
            }
            Op::RedAnd { dst, src, mask } => {
                let v = u64::from(nr(exec, src) == mask);
                set_nr(exec, dst, v);
            }
            Op::RedOr { dst, src } => {
                let v = u64::from(nr(exec, src) != 0);
                set_nr(exec, dst, v);
            }
            Op::RedXor { dst, src } => {
                let v = u64::from(nr(exec, src).count_ones() & 1 == 1);
                set_nr(exec, dst, v);
            }
            Op::RedXnor { dst, src } => {
                let v = u64::from(nr(exec, src).count_ones() & 1 == 0);
                set_nr(exec, dst, v);
            }
            Op::Sext { dst, src, shift, mask } => {
                let v = sext64(nr(exec, src), shift) as u64 & mask;
                set_nr(exec, dst, v);
            }
            Op::Cmp { dst, a, b, kind } => {
                let v = u64::from(cmp_u(nr(exec, a), nr(exec, b), kind));
                set_nr(exec, dst, v);
            }
            Op::Scmp { dst, a, b, sa, sb, kind } => {
                let x = sext64(nr(exec, a), sa);
                let y = sext64(nr(exec, b), sb);
                set_nr(exec, dst, u64::from(cmp_i(x, y, kind)));
            }
            Op::LogAnd { dst, a, b } => {
                let v = u64::from(nr(exec, a) != 0 && nr(exec, b) != 0);
                set_nr(exec, dst, v);
            }
            Op::LogOr { dst, a, b } => {
                let v = u64::from(nr(exec, a) != 0 || nr(exec, b) != 0);
                set_nr(exec, dst, v);
            }
            Op::Shl { dst, a, amt, w } => {
                let n = nr(exec, amt);
                let v = if n >= u64::from(w) {
                    0
                } else {
                    (nr(exec, a) << n) & mask_of(w)
                };
                set_nr(exec, dst, v);
            }
            Op::Shr { dst, a, amt, w } => {
                let n = nr(exec, amt);
                let v = if n >= u64::from(w) { 0 } else { nr(exec, a) >> n };
                set_nr(exec, dst, v);
            }
            Op::AShr { dst, a, amt, w } => {
                // Sign-extend at `w`, shift arithmetically (≥ 63 saturates
                // to the sign fill), re-truncate.
                let n = nr(exec, amt).min(63) as u32;
                let ia = sext64(nr(exec, a), 64 - w);
                set_nr(exec, dst, (ia >> n) as u64 & mask_of(w));
            }
            Op::Mux { dst, cond, t, f, mask } => {
                let v = if nr(exec, cond) != 0 { nr(exec, t) } else { nr(exec, f) };
                set_nr(exec, dst, v & mask);
            }
            Op::Concat2 { dst, hi, lo, lo_w } => {
                let v = (nr(exec, hi) << lo_w) | nr(exec, lo);
                set_nr(exec, dst, v);
            }
            Op::RepeatN { dst, src, src_w, n } => {
                let r = nr(exec, src);
                let mut acc = r;
                for _ in 1..n {
                    acc = (acc << src_w) | r;
                }
                set_nr(exec, dst, acc);
            }
            Op::MaskTo { dst, src, mask } => {
                let v = nr(exec, src) & mask;
                set_nr(exec, dst, v);
            }
            Op::NarrowFromWide { dst, src, mask } => {
                let v = exec.scratch.wregs[src as usize].to_u64() & mask;
                set_nr(exec, dst, v);
            }
            // ---- wide ops ----
            Op::WLdConst { dst, cidx } => {
                let mut d = take_w(exec, dst);
                d.assign_from(&prog.wconsts[cidx as usize]);
                put_w(exec, dst, d);
            }
            Op::WLdSig { dst, sig } => {
                let mut d = take_w(exec, dst);
                d.assign_from(exec.state.get_id(sig));
                put_w(exec, dst, d);
            }
            Op::WLdMem { dst, slot, idx } => {
                let i = nr(exec, idx);
                let mut d = take_w(exec, dst);
                exec.state.read_mem_slot_into(slot, i, &mut d);
                put_w(exec, dst, d);
            }
            Op::Widen { dst, src, w } => {
                let v = nr(exec, src);
                let mut d = take_w(exec, dst);
                d.set_u64(w, v);
                put_w(exec, dst, d);
            }
            Op::WResizeFrom { dst, src, w } => {
                let s = take_w(exec, src);
                let mut d = take_w(exec, dst);
                d.assign_resized(&s, w);
                put_w(exec, dst, d);
                put_w(exec, src, s);
            }
            Op::WBin { dst, a, b, op, signed } => {
                let mut x = take_w(exec, a);
                let mut y = take_w(exec, b);
                let mut out = take_w(exec, dst);
                wide_binary(exec.scratch, op, signed, &mut x, &mut y, &mut out);
                put_w(exec, dst, out);
                put_w(exec, b, y);
                put_w(exec, a, x);
            }
            Op::WCmp { dst, a, b, op, signed } => {
                let mut x = take_w(exec, a);
                let mut y = take_w(exec, b);
                let mut t = exec.scratch.take();
                wide_binary(exec.scratch, op, signed, &mut x, &mut y, &mut t);
                let v = t.to_u64();
                exec.scratch.put(t);
                put_w(exec, b, y);
                put_w(exec, a, x);
                set_nr(exec, dst, v);
            }
            Op::WBinF { dst, a, b, op, limbs } => {
                let x = take_w(exec, a);
                let y = take_w(exec, b);
                let mut out = take_w(exec, dst);
                fixed_binary(op, limbs, &x, &y, &mut out);
                put_w(exec, dst, out);
                put_w(exec, b, y);
                put_w(exec, a, x);
            }
            Op::WCmpF { dst, a, b, kind, limbs } => {
                let ord = {
                    let x = &exec.scratch.wregs[a as usize];
                    let y = &exec.scratch.wregs[b as usize];
                    if limbs == 2 {
                        fixed::cmp_unsigned::<2>(x, y)
                    } else {
                        fixed::cmp_unsigned::<4>(x, y)
                    }
                };
                let v = match kind {
                    CmpKind::Lt => ord.is_lt(),
                    CmpKind::Le => ord.is_le(),
                    CmpKind::Gt => ord.is_gt(),
                    CmpKind::Ge => ord.is_ge(),
                    CmpKind::Eq => ord.is_eq(),
                    CmpKind::Ne => ord.is_ne(),
                };
                set_nr(exec, dst, v as u64);
            }
            Op::WNot { dst, src } => {
                let s = take_w(exec, src);
                let mut d = take_w(exec, dst);
                d.assign_from(&s);
                d.not_in_place();
                put_w(exec, dst, d);
                put_w(exec, src, s);
            }
            Op::WNeg { dst, src } => {
                let s = take_w(exec, src);
                let mut d = take_w(exec, dst);
                d.assign_from(&s);
                d.neg_in_place();
                put_w(exec, dst, d);
                put_w(exec, src, s);
            }
            Op::WReduce { dst, src, op } => {
                let v = &exec.scratch.wregs[src as usize];
                let b = match op {
                    UnaryOp::LogNot => v.is_zero(),
                    UnaryOp::RedAnd => v.reduce_and(),
                    UnaryOp::RedOr => v.reduce_or(),
                    UnaryOp::RedXor => v.reduce_xor(),
                    _ => !v.reduce_xor(),
                };
                set_nr(exec, dst, u64::from(b));
            }
            Op::WTest { dst, src } => {
                let b = exec.scratch.wregs[src as usize].to_bool();
                set_nr(exec, dst, u64::from(b));
            }
            Op::WSliceSig { dst, sig, lo, w } => {
                let mut d = take_w(exec, dst);
                exec.state.get_id(sig).slice_into(lo, w, &mut d);
                put_w(exec, dst, d);
            }
            Op::WSliceReg { dst, src, lo, w } => {
                let s = take_w(exec, src);
                let mut d = take_w(exec, dst);
                s.slice_into(lo, w, &mut d);
                put_w(exec, dst, d);
                put_w(exec, src, s);
            }
            Op::WPushN { dst, src, w } => {
                let v = nr(exec, src);
                let mut t = exec.scratch.take();
                t.set_u64(w, v);
                let mut d = take_w(exec, dst);
                d.push_low(&t);
                put_w(exec, dst, d);
                exec.scratch.put(t);
            }
            Op::WPushW { dst, src } => {
                let s = take_w(exec, src);
                let mut d = take_w(exec, dst);
                d.push_low(&s);
                put_w(exec, dst, d);
                put_w(exec, src, s);
            }
            Op::WRepeat { dst, src, n } => {
                let s = take_w(exec, src);
                let mut d = take_w(exec, dst);
                s.repeat_into(n, &mut d);
                put_w(exec, dst, d);
                put_w(exec, src, s);
            }
            Op::WMov { dst, src } => {
                let s = take_w(exec, src);
                let mut d = take_w(exec, dst);
                d.assign_from(&s);
                put_w(exec, dst, d);
                put_w(exec, src, s);
            }
            // ---- control flow ----
            Op::Jmp { target } => pc = target as usize,
            Op::Jz { src, target } => {
                if nr(exec, src) == 0 {
                    pc = target as usize;
                }
            }
            Op::Jnz { src, target } => {
                if nr(exec, src) != 0 {
                    pc = target as usize;
                }
            }
            Op::JCmpF { a, b, eq, target } => {
                if (nr(exec, a) == nr(exec, b)) != eq {
                    pc = target as usize;
                }
            }
            Op::JImmEq { src, imm, target } => {
                if nr(exec, src) == imm {
                    pc = target as usize;
                }
            }
            Op::JEq { a, b, target } => {
                if nr(exec, a) == nr(exec, b) {
                    pc = target as usize;
                }
            }
            // ---- stores ----
            Op::StSigN { sig, src } => {
                if exec.pinned(sig) {
                    continue;
                }
                let v = nr(exec, src);
                if exec.state.set_id_u64(sig, v) {
                    exec.changed.push(sig);
                }
            }
            Op::StFlushN { sig, src } => {
                exec.state.store_id_u64(sig, nr(exec, src));
            }
            Op::StSig { sig, w, src, nb } => match src {
                Src::N(r) => {
                    // Wider stores zero-extend the `u64`, like `set_u64`.
                    let v = if w >= 64 { nr(exec, r) } else { nr(exec, r) & mask_of(w) };
                    sink_write(exec, nb, CNbWrite::SigN(sig, v));
                }
                Src::W(r) => {
                    let mut t = exec.scratch.take();
                    let s = take_w(exec, r);
                    t.assign_resized(&s, w);
                    put_w(exec, r, s);
                    sink_write(exec, nb, CNbWrite::Sig(sig, t));
                }
            },
            Op::StBit { sig, width, idx, src, nb } => {
                let i = nr(exec, idx);
                if i < u64::from(width) {
                    let v = nr(exec, src);
                    let mut t = exec.scratch.take();
                    t.set_u64(1, v);
                    sink_write(exec, nb, CNbWrite::Slice(sig, i as u32, t));
                } else if exec.strict_bounds {
                    return Err(oob(exec.state, sig, i, u64::from(width)));
                }
            }
            Op::StSlice { sig, lo, w, src, nb } => {
                let mut t = exec.scratch.take();
                match src {
                    Src::N(r) => t.set_u64(w, nr(exec, r)),
                    Src::W(r) => {
                        let s = take_w(exec, r);
                        t.assign_resized(&s, w);
                        put_w(exec, r, s);
                    }
                }
                sink_write(exec, nb, CNbWrite::Slice(sig, lo, t));
            }
            Op::StMem { sig, slot, depth, width, idx, src, nb } => {
                let i = nr(exec, idx);
                match effective_mem_addr(i, depth) {
                    Some(addr) => {
                        let mut t = exec.scratch.take();
                        match src {
                            Src::N(r) => t.set_u64(width, nr(exec, r)),
                            Src::W(r) => {
                                let s = take_w(exec, r);
                                t.assign_resized(&s, width);
                                put_w(exec, r, s);
                            }
                        }
                        sink_write(
                            exec,
                            nb,
                            CNbWrite::Mem { id: sig, slot, addr, value: t },
                        );
                    }
                    None if exec.strict_bounds => {
                        return Err(oob(exec.state, sig, i, depth));
                    }
                    None => {}
                }
            }
            Op::CkBit { sig, width, idx } => {
                if exec.strict_bounds {
                    let i = nr(exec, idx);
                    if i >= u64::from(width) {
                        return Err(oob(exec.state, sig, i, u64::from(width)));
                    }
                }
            }
            Op::CkMem { sig, depth, idx } => {
                if exec.strict_bounds {
                    let i = nr(exec, idx);
                    if effective_mem_addr(i, depth).is_none() {
                        return Err(oob(exec.state, sig, i, depth));
                    }
                }
            }
            // ---- statements ----
            Op::IncCheckCap { ctr, var } => {
                let c = nr(exec, ctr) + 1;
                set_nr(exec, ctr, c);
                if c > crate::compile::FOR_CAP {
                    let name = exec.state.table().name(var).to_owned();
                    return Err(SimError::LoopCap(name));
                }
            }
            Op::Display { spec } => {
                if let Some(sink) = exec.logs.as_deref_mut() {
                    let spec = &prog.displays[spec as usize];
                    let (nregs, wregs) = (&exec.scratch.nregs, &exec.scratch.wregs);
                    sink.stage_rendered(
                        &spec.format,
                        spec.args.iter().map(|&(src, w, signed)| {
                            let arg = match src {
                                Src::N(r) => Arg::Narrow(nregs[r as usize], w),
                                Src::W(r) => Arg::Wide(&wregs[r as usize]),
                            };
                            (arg, signed)
                        }),
                    );
                }
            }
            Op::Finish => return Ok(Flow::Finished),
        }
    }
    Ok(Flow::Continue)
}
