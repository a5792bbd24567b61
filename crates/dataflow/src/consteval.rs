//! Constant evaluation of AST expressions over a parameter environment.
//!
//! Used to resolve parameter values, net widths, memory depths, replication
//! counts, and case labels at elaboration time.

use crate::ty::Ty;
use crate::DataflowError;
use hwdbg_bits::Bits;
use hwdbg_rtl::{BinaryOp, Expr, UnaryOp};
use std::collections::BTreeMap;

/// A compile-time environment: parameter/localparam name → value.
pub type ConstEnv = BTreeMap<String, Bits>;

/// Evaluates `expr` to a constant.
///
/// Operators take the types [`crate::ty()`] gives them, as in the
/// simulator, so a constant folds to the value the same expression
/// simulates to.
///
/// # Errors
///
/// Returns [`DataflowError::NotConstant`] if the expression references a
/// name outside `env` (a select of a signal names the signal), and
/// [`DataflowError::BadRange`] for a reversed or oversized select of a
/// parameter.
pub fn eval_const(expr: &Expr, env: &ConstEnv) -> Result<Bits, DataflowError> {
    eval_typed(expr, env).map(|(v, _)| v)
}

/// [`eval_const`] with the value's type, whose width is the value's.
///
/// # Errors
///
/// As [`eval_const`].
pub fn eval_typed(expr: &Expr, env: &ConstEnv) -> Result<(Bits, Ty), DataflowError> {
    Ok(match expr {
        Expr::Literal { value, signed } => (value.clone(), Ty::literal(value, *signed)),
        Expr::Ident(name) => {
            let v = env
                .get(name)
                .ok_or_else(|| DataflowError::NotConstant(name.clone()))?;
            (v.clone(), Ty::param(v))
        }
        Expr::Unary(op, inner) => {
            let (v, t) = eval_typed(inner, env)?;
            let v = match op {
                UnaryOp::Not => !&v,
                UnaryOp::LogNot => Bits::from_bool(v.is_zero()),
                UnaryOp::Neg => v.neg(),
                UnaryOp::RedAnd => Bits::from_bool(v.reduce_and()),
                UnaryOp::RedOr => Bits::from_bool(v.reduce_or()),
                UnaryOp::RedXor => Bits::from_bool(v.reduce_xor()),
                UnaryOp::RedXnor => Bits::from_bool(!v.reduce_xor()),
            };
            (v, Ty::unary(*op, t))
        }
        Expr::Binary(op, l, r) => {
            let (mut a, ta) = eval_typed(l, env)?;
            let (mut b, tb) = eval_typed(r, env)?;
            let mut out = Bits::default();
            if Ty::signed_op(*op, ta, tb) {
                apply_binary_signed_into(*op, &mut a, &mut b, &mut out);
            } else {
                let op = match op {
                    BinaryOp::AShr => BinaryOp::Shr,
                    op => *op,
                };
                apply_binary_into(op, &mut a, &mut b, &mut out);
            }
            (out, Ty::binary(*op, ta, tb))
        }
        Expr::Ternary(c, t, f) => {
            // Both arms are evaluated so the result carries the ternary's
            // width, as in the simulator.
            let cond = eval_const(c, env)?;
            let (tv, tt) = eval_typed(t, env)?;
            let (fv, tf) = eval_typed(f, env)?;
            let ty = Ty::ternary(tt, tf);
            let v = if cond.to_bool() { tv } else { fv };
            (v.resize(ty.width), ty)
        }
        Expr::WidthCast(w, inner) => (eval_const(inner, env)?.resize(*w), Ty::unsigned(*w)),
        Expr::SignCast(signed, inner) => {
            let (v, t) = eval_typed(inner, env)?;
            (v, Ty::sign_cast(*signed, t))
        }
        Expr::Concat(parts) => {
            let (mut acc, mut ty) = (None::<Bits>, Ty::unsigned(0));
            for p in parts {
                let (v, t) = eval_typed(p, env)?;
                ty = ty.concat(t).map_err(|_| {
                    DataflowError::BadRange(format!("a concatenation over {} bits", u32::MAX))
                })?;
                acc = Some(match acc {
                    None => v,
                    Some(hi) => hi.concat(&v),
                });
            }
            let v = acc.ok_or_else(|| DataflowError::NotConstant("empty concat".into()))?;
            (v, ty)
        }
        Expr::Repeat(n, body) => {
            let count = eval_const(n, env)?.to_u64();
            if count == 0 {
                return Err(DataflowError::NotConstant("zero replication".into()));
            }
            let (body, t) = eval_typed(body, env)?;
            let ty = Ty::repeat(count, t).ok().filter(|t| t.width <= MAX_WIDTH).ok_or_else(|| {
                let total = count.saturating_mul(u64::from(t.width));
                DataflowError::BadRange(format!(
                    "replication produces {total} bits (limit {MAX_WIDTH})"
                ))
            })?;
            (body.repeat(count as u32), ty)
        }
        // A select of a parameter is constant (IEEE 1364-2005 §5.2.1);
        // one of a signal names it, the part that varies.
        Expr::Index(n, idx) => {
            let v = env.get(n).ok_or_else(|| DataflowError::NotConstant(n.clone()))?;
            (v.slice(shift_amount(&eval_const(idx, env)?), 1), Ty::BIT)
        }
        Expr::Range(n, msb, lsb) => {
            let v = env.get(n).ok_or_else(|| DataflowError::NotConstant(n.clone()))?;
            let (m, l) = (eval_const(msb, env)?.to_u64(), eval_const(lsb, env)?.to_u64());
            let ty = Ty::range(m, l)
                .ok()
                .filter(|t| t.width <= MAX_WIDTH)
                .ok_or_else(|| DataflowError::BadRange(format!("`{n}[{m}:{l}]`")))?;
            let v = v.slice(l.min(u64::from(u32::MAX)) as u32, ty.width);
            (v, ty)
        }
    })
}

/// Fits a parameter's folded value `v`, of type `ty`, to its declared
/// `range` (folded in `env`) by the assignment rule of [`Ty::fit`]: a
/// signed value sign-extends. Without a range the value is kept.
///
/// # Errors
///
/// As [`range_width`].
pub fn sized_param(
    v: Bits,
    ty: Ty,
    range: &Option<(Expr, Expr)>,
    env: &ConstEnv,
) -> Result<Bits, DataflowError> {
    Ok(match range {
        None => v,
        Some(_) => ty.fit(&v, range_width(range, env)?),
    })
}

/// Applies a binary operator with Verilog width-extension semantics,
/// writing the result into `out` and reusing its storage: operands are
/// zero-extended to the wider of the two, comparisons and logical
/// operators produce one bit, shifts keep the left operand's width. The
/// operands are *scratch*: they may be width-extended in
/// place (which is why they are `&mut`), so callers must not rely on their
/// widths afterwards. This is the simulator's hot-path entry point — for
/// `<= 64`-bit operands nothing here allocates.
pub fn apply_binary_into(op: BinaryOp, a: &mut Bits, b: &mut Bits, out: &mut Bits) {
    use BinaryOp::*;
    // Shifts keep the left operand's width and read `b` as a plain
    // amount; logical ops only need truthiness. Neither widens.
    match op {
        Shl => return a.shl_into(shift_amount(b), out),
        Shr => return a.shr_into(shift_amount(b), out),
        AShr => return a.shr_arith_into(shift_amount(b), out),
        LogAnd => return out.set_bool(a.to_bool() && b.to_bool()),
        LogOr => return out.set_bool(a.to_bool() || b.to_bool()),
        Eq => return out.set_bool(a.eq_zero_ext(b)),
        Ne => return out.set_bool(!a.eq_zero_ext(b)),
        _ => {}
    }
    let w = a.width().max(b.width());
    a.resize_in_place(w);
    b.resize_in_place(w);
    match op {
        Add => a.add_into(b, out),
        Sub => a.sub_into(b, out),
        Mul => a.mul_into(b, out),
        Div => a.div_into(b, out),
        Mod => a.rem_into(b, out),
        Lt => out.set_bool(a.cmp_unsigned(b).is_lt()),
        Le => out.set_bool(a.cmp_unsigned(b).is_le()),
        Gt => out.set_bool(a.cmp_unsigned(b).is_gt()),
        Ge => out.set_bool(a.cmp_unsigned(b).is_ge()),
        And => a.and_into(b, out),
        Or => a.or_into(b, out),
        Xor => a.xor_into(b, out),
        Xnor => {
            a.xor_into(b, out);
            out.not_in_place();
        }
        Shl | Shr | AShr | LogAnd | LogOr | Eq | Ne => unreachable!("handled above"),
    }
}

/// Signed variant of [`apply_binary_into`]: comparisons compare in two's
/// complement, operands sign-extend, `/` and `%` divide two's-complement
/// values (see [`signed_magnitudes`]), and `>>>` shifts arithmetically. For
/// a shift, "signed" means its left operand is: the result keeps that
/// operand's width and the right operand is an unsigned amount (IEEE
/// 1364-2005 §5.1.12, Table 5-22). The operands are scratch, as for
/// [`apply_binary_into`]: they are sign-extended in place to the common
/// width.
pub fn apply_binary_signed_into(op: BinaryOp, a: &mut Bits, b: &mut Bits, out: &mut Bits) {
    use BinaryOp::*;
    let w = a.width().max(b.width());
    match op {
        AShr => a.shr_arith_into(shift_amount(b), out),
        Shl | Shr => apply_binary_into(op, a, b, out),
        Lt | Le | Gt | Ge => {
            a.resize_signed_in_place(w);
            b.resize_signed_in_place(w);
            let ord = a.cmp_signed(b);
            out.set_bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                _ => ord.is_ge(),
            });
        }
        Div | Mod => {
            let negate = signed_magnitudes(op, a, b);
            apply_binary_into(op, a, b, out);
            if negate {
                out.neg_in_place();
            }
        }
        // Add/sub/mul/logic are bit-identical for signed and unsigned, but
        // operands sign-extend to the common width first.
        _ => {
            a.resize_signed_in_place(w);
            b.resize_signed_in_place(w);
            apply_binary_into(op, a, b, out);
        }
    }
}

/// Prepares a signed `/` or `%` for an unsigned divider: sign-extends both
/// operands in place to their common width and replaces each by its
/// magnitude. Returns whether the divider's result must be negated: the
/// quotient when exactly one operand is negative (it truncates toward
/// zero), the remainder when the dividend is (it takes the dividend's
/// sign), IEEE 1364-2005 §5.1.5. Division by zero still yields zero, as
/// unsigned division does (the two-state convention of
/// [`Bits::div`](hwdbg_bits::Bits::div)); the most negative quotient
/// of `-2^(w-1) / -1` wraps to itself.
pub fn signed_magnitudes(op: BinaryOp, a: &mut Bits, b: &mut Bits) -> bool {
    let w = a.width().max(b.width());
    a.resize_signed_in_place(w);
    b.resize_signed_in_place(w);
    let (neg_a, neg_b) = (a.bit(w - 1), b.bit(w - 1));
    if neg_a {
        a.neg_in_place();
    }
    if neg_b {
        b.neg_in_place();
    }
    match op {
        BinaryOp::Div => neg_a != neg_b,
        _ => neg_a,
    }
}

/// Clamps a shift amount to something sane (a shift by ≥ width clears the
/// value anyway; `Bits::shl`/`shr` handle that).
pub fn shift_amount(b: &Bits) -> u32 {
    b.to_u64().min(u32::MAX as u64) as u32
}

/// Widest signal the toolchain accepts (1 Mibit). A `[msb:lsb]` range
/// beyond this is almost always a malformed design — e.g. a negative
/// parameter wrapping to 2^32-1 — and would otherwise turn into an
/// allocation-size abort deep in the simulator.
pub const MAX_WIDTH: u32 = 1 << 20;

/// Evaluates a `[msb:lsb]` range to a width, requiring `msb >= lsb`.
///
/// # Errors
///
/// Propagates [`DataflowError::NotConstant`] and rejects descending
/// ranges, zero-width slices, and widths above [`MAX_WIDTH`].
pub fn range_width(range: &Option<(Expr, Expr)>, env: &ConstEnv) -> Result<u32, DataflowError> {
    match range {
        None => Ok(1),
        Some((msb, lsb)) => {
            let m = eval_const(msb, env)?.to_u64();
            let l = eval_const(lsb, env)?.to_u64();
            if l > m {
                return Err(DataflowError::BadRange(format!("[{m}:{l}]")));
            }
            let w = m - l + 1;
            if w > u64::from(MAX_WIDTH) {
                return Err(DataflowError::BadRange(format!(
                    "[{m}:{l}] is {w} bits wide (limit {MAX_WIDTH})"
                )));
            }
            Ok(w as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_rtl::parse_expr;

    fn env(pairs: &[(&str, u64)]) -> ConstEnv {
        pairs
            .iter()
            .map(|(n, v)| (n.to_string(), Bits::from_u64(32, *v)))
            .collect()
    }

    #[test]
    fn arithmetic_with_params() {
        let e = parse_expr("W * 2 + 1").unwrap();
        assert_eq!(eval_const(&e, &env(&[("W", 8)])).unwrap().to_u64(), 17);
    }

    #[test]
    fn ternary_selects() {
        let e = parse_expr("W > 4 ? 10 : 20").unwrap();
        assert_eq!(eval_const(&e, &env(&[("W", 8)])).unwrap().to_u64(), 10);
        assert_eq!(eval_const(&e, &env(&[("W", 2)])).unwrap().to_u64(), 20);
    }

    #[test]
    fn unknown_ident_errors() {
        let e = parse_expr("MISSING + 1").unwrap();
        assert!(matches!(
            eval_const(&e, &env(&[])),
            Err(DataflowError::NotConstant(_))
        ));
    }

    #[test]
    fn selects_of_parameters_fold() {
        let p = env(&[("P", 0b1011_0110)]);
        let e = parse_expr("P[5:2]").unwrap();
        assert_eq!(eval_const(&e, &p).unwrap(), Bits::from_u64(4, 0b1101));
        let e = parse_expr("P[P[1:0] + 2]").unwrap();
        assert_eq!(eval_const(&e, &p).unwrap(), Bits::from_u64(1, 1));
        // Bits past the parameter's width read as zero.
        let e = parse_expr("P[40:31]").unwrap();
        assert_eq!(eval_const(&e, &p).unwrap(), Bits::from_u64(10, 0));
        let e = parse_expr("P[0:3]").unwrap();
        assert!(matches!(eval_const(&e, &p), Err(DataflowError::BadRange(_))));
        // A select of a signal names the signal.
        let e = parse_expr("P[x[1:0]]").unwrap();
        assert_eq!(eval_const(&e, &p), Err(DataflowError::NotConstant("x".into())));
    }

    #[test]
    fn concat_and_repeat() {
        let e = parse_expr("{2'b10, 2'b01}").unwrap();
        assert_eq!(eval_const(&e, &env(&[])).unwrap().to_u64(), 0b1001);
        let e = parse_expr("{3{2'b01}}").unwrap();
        assert_eq!(eval_const(&e, &env(&[])).unwrap().to_u64(), 0b010101);
    }

    #[test]
    fn range_width_checks() {
        let r = Some((
            parse_expr("W - 1").unwrap(),
            parse_expr("0").unwrap(),
        ));
        assert_eq!(range_width(&r, &env(&[("W", 8)])).unwrap(), 8);
        assert_eq!(range_width(&None, &env(&[])).unwrap(), 1);
        let bad = Some((parse_expr("0").unwrap(), parse_expr("7").unwrap()));
        assert!(range_width(&bad, &env(&[])).is_err());
    }

    #[test]
    fn signedness_follows_the_simulator() {
        let fold = |src: &str| eval_const(&parse_expr(src).unwrap(), &env(&[("P", 4)])).unwrap();
        // `>>>` of an unsigned operand shifts in zeros; of a signed one,
        // copies of the sign bit.
        assert_eq!(fold("8'hf0 >>> 2"), Bits::from_u64(8, 0x3c));
        assert_eq!(fold("$signed(8'hf0) >>> 2"), Bits::from_u64(8, 0xfc));
        // Unsized decimals are signed, so is their negation; a comparison
        // of two signed operands is signed.
        assert_eq!(fold("(-4 < 0) ? 8'd1 : 8'd2"), Bits::from_u64(8, 1));
        assert_eq!(fold("-4 < 8'd0"), Bits::from_u64(1, 0));
        // A parameter name is unsigned, as in the simulator.
        assert_eq!(fold("(P - 5) < 0"), Bits::from_u64(1, 0));
        assert_eq!(fold("$signed(P - 5) < 0"), Bits::from_u64(1, 1));
        assert_eq!(fold("$unsigned(-4) < 0"), Bits::from_u64(1, 0));
        // Signed operands sign-extend to the common width.
        assert_eq!(fold("$signed(4'hf) + $signed(8'd0)"), Bits::from_u64(8, 0xff));
        assert_eq!(fold("4'hf + 8'd0"), Bits::from_u64(8, 0x0f));
    }

    #[test]
    fn width_extension_rules() {
        let fold = |src: &str| eval_const(&parse_expr(src).unwrap(), &env(&[])).unwrap();
        // 4'hF + 8'h01 extends to 8 bits: 0x10, no wrap at 4 bits.
        assert_eq!(fold("4'hf + 8'h01"), Bits::from_u64(8, 0x10));
        // Comparison yields one bit.
        assert_eq!(fold("4'hf < 8'h01").width(), 1);
        // Shift keeps left width.
        assert_eq!(fold("4'hf << 8'h01").width(), 4);
    }
}
