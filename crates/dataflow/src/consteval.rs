//! Constant evaluation of AST expressions over a parameter environment.
//!
//! Used to resolve parameter values, net widths, memory depths, replication
//! counts, and case labels at elaboration time.

use crate::DataflowError;
use hwdbg_bits::Bits;
use hwdbg_rtl::{BinaryOp, Expr, UnaryOp};
use std::collections::BTreeMap;

/// A compile-time environment: parameter/localparam name → value.
pub type ConstEnv = BTreeMap<String, Bits>;

/// Evaluates `expr` to a constant.
///
/// # Errors
///
/// Returns [`DataflowError::NotConstant`] if the expression references a
/// name outside `env` (a select of a signal names the signal), and
/// [`DataflowError::BadRange`] for a reversed or oversized select of a
/// parameter.
pub fn eval_const(expr: &Expr, env: &ConstEnv) -> Result<Bits, DataflowError> {
    match expr {
        Expr::Literal { value, .. } => Ok(value.clone()),
        Expr::Ident(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| DataflowError::NotConstant(name.clone())),
        Expr::Unary(op, inner) => {
            let v = eval_const(inner, env)?;
            Ok(match op {
                UnaryOp::Not => !&v,
                UnaryOp::LogNot => Bits::from_bool(v.is_zero()),
                UnaryOp::Neg => v.neg(),
                UnaryOp::RedAnd => Bits::from_bool(v.reduce_and()),
                UnaryOp::RedOr => Bits::from_bool(v.reduce_or()),
                UnaryOp::RedXor => Bits::from_bool(v.reduce_xor()),
                UnaryOp::RedXnor => Bits::from_bool(!v.reduce_xor()),
            })
        }
        Expr::Binary(op, l, r) => {
            let a = eval_const(l, env)?;
            let b = eval_const(r, env)?;
            Ok(apply_binary(*op, &a, &b))
        }
        Expr::Ternary(c, t, f) => {
            // Both arms are evaluated so the result carries the unified
            // width max(|t|, |f|), matching the simulator's semantics.
            let cond = eval_const(c, env)?;
            let tv = eval_const(t, env)?;
            let fv = eval_const(f, env)?;
            let w = tv.width().max(fv.width());
            Ok(if cond.to_bool() { tv.resize(w) } else { fv.resize(w) })
        }
        Expr::WidthCast(w, inner) => Ok(eval_const(inner, env)?.resize(*w)),
        Expr::SignCast(_, inner) => eval_const(inner, env),
        Expr::Concat(parts) => {
            let mut acc: Option<Bits> = None;
            for p in parts {
                let v = eval_const(p, env)?;
                acc = Some(match acc {
                    None => v,
                    Some(hi) => hi.concat(&v),
                });
            }
            acc.ok_or_else(|| DataflowError::NotConstant("empty concat".into()))
        }
        Expr::Repeat(n, body) => {
            let count = eval_const(n, env)?.to_u64();
            if count == 0 {
                return Err(DataflowError::NotConstant("zero replication".into()));
            }
            let body = eval_const(body, env)?;
            let total = count.saturating_mul(u64::from(body.width()));
            if total > u64::from(MAX_WIDTH) {
                return Err(DataflowError::BadRange(format!(
                    "replication produces {total} bits (limit {MAX_WIDTH})"
                )));
            }
            Ok(body.repeat(count as u32))
        }
        // A select of a parameter is constant (IEEE 1364-2005 §5.2.1);
        // one of a signal names it, the part that varies.
        Expr::Index(n, idx) => {
            let v = env.get(n).ok_or_else(|| DataflowError::NotConstant(n.clone()))?;
            Ok(v.slice(shift_amount(&eval_const(idx, env)?), 1))
        }
        Expr::Range(n, msb, lsb) => {
            let v = env.get(n).ok_or_else(|| DataflowError::NotConstant(n.clone()))?;
            let (m, l) = (eval_const(msb, env)?.to_u64(), eval_const(lsb, env)?.to_u64());
            if l > m || m - l >= u64::from(MAX_WIDTH) {
                return Err(DataflowError::BadRange(format!("`{n}[{m}:{l}]`")));
            }
            Ok(v.slice(l.min(u64::from(u32::MAX)) as u32, (m - l + 1) as u32))
        }
    }
}

/// Applies a binary operator with Verilog width-extension semantics:
/// operands are zero-extended to the wider of the two, comparisons and
/// logical operators produce one bit, shifts keep the left operand's width.
pub fn apply_binary(op: BinaryOp, a: &Bits, b: &Bits) -> Bits {
    let mut x = a.clone();
    let mut y = b.clone();
    let mut out = Bits::default();
    apply_binary_into(op, &mut x, &mut y, &mut out);
    out
}

/// In-place [`apply_binary`]: writes the result into `out`, reusing its
/// storage. The operands are *scratch*: they may be width-extended in
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
    fn width_extension_rules() {
        // 4'hF + 8'h01 extends to 8 bits: 0x10, no wrap at 4 bits.
        let a = Bits::from_u64(4, 0xF);
        let b = Bits::from_u64(8, 1);
        assert_eq!(apply_binary(BinaryOp::Add, &a, &b).to_u64(), 0x10);
        // Comparison yields one bit.
        assert_eq!(apply_binary(BinaryOp::Lt, &a, &b).width(), 1);
        // Shift keeps left width.
        assert_eq!(apply_binary(BinaryOp::Shl, &a, &b).width(), 4);
    }
}
