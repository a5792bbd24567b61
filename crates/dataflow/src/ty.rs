//! The typing rule: the width and sign of every expression, decided here.
//!
//! Operands are self-determined: a node's type follows from its operands'
//! types alone, and no context width flows down into them (a documented
//! deviation from IEEE 1364-2005 §5.4.1). The one context is an
//! assignment: a signed right-hand side narrower than its target
//! sign-extends to it, any other zero-extends or truncates (§5.5,
//! [`Ty::fit`]).
//!
//! Each layer calls the combinators ([`Ty::literal`], [`Ty::unary`],
//! [`Ty::binary`], ...) inside the recursion it already makes; code that
//! needs only a type calls [`ty()`], their bottom-up fold over a [`Scope`].

use crate::consteval::{eval_const, ConstEnv};
use crate::design::SigInfo;
use hwdbg_bits::Bits;
use hwdbg_rtl::{BinaryOp, Expr, LValue, UnaryOp};

/// Why an expression or lvalue has no type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WidthError {
    /// A name that is neither a signal nor a constant of the scope.
    UnknownName(String),
    /// A part-select bound or replication count that is not constant.
    NonConstBound,
    /// A part-select whose constant bounds are reversed (`lsb > msb`).
    ReversedRange {
        /// The value written in the msb position.
        msb: u64,
        /// The (larger) value written in the lsb position.
        lsb: u64,
    },
    /// A concatenation or replication wider than `u32::MAX` bits.
    TooWide,
}

/// An expression's static type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ty {
    /// Width in bits.
    pub width: u32,
    /// Two's complement.
    pub signed: bool,
}

impl Ty {
    /// One unsigned bit: comparisons, logical and reduction operators and
    /// bit selects.
    pub const BIT: Ty = Ty::unsigned(1);

    /// An unsigned value of `width` bits: selects, concatenations,
    /// replications and width casts.
    pub const fn unsigned(width: u32) -> Ty {
        Ty { width, signed: false }
    }

    /// A literal: its written width (32 when unsized), signed when the
    /// parser says so: an unsized decimal or an `s` literal (§3.5.1).
    pub fn literal(value: &Bits, signed: bool) -> Ty {
        Ty { width: value.width(), signed }
    }

    /// A parameter read by name: unsigned, at its value's width.
    pub fn param(value: &Bits) -> Ty {
        Ty::unsigned(value.width())
    }

    /// `~a` and `-a` keep their operand's type; `!` and the reductions
    /// give one bit.
    pub fn unary(op: UnaryOp, a: Ty) -> Ty {
        match op {
            UnaryOp::Not | UnaryOp::Neg => a,
            _ => Ty::BIT,
        }
    }

    /// Whether `op` evaluates signed: when both operands are, or, for a
    /// shift, its left operand (the amount is unsigned, and `>>>` of an
    /// unsigned operand shifts in zeros, §5.1.12). Signed operands
    /// sign-extend to their common width.
    pub fn signed_op(op: BinaryOp, a: Ty, b: Ty) -> bool {
        a.signed && (b.signed || is_shift(op))
    }

    /// A binary result: comparisons and logical operators give one bit, a
    /// shift keeps its left operand's width, the rest take the wider
    /// operand's; signed when [`signed_op`](Self::signed_op) is.
    pub fn binary(op: BinaryOp, a: Ty, b: Ty) -> Ty {
        if op.is_boolean() {
            return Ty::BIT;
        }
        let width = if is_shift(op) { a.width } else { a.width.max(b.width) };
        Ty { width, signed: Ty::signed_op(op, a, b) }
    }

    /// `c ? t : f`: the wider arm's width, signed when both arms are.
    pub fn ternary(t: Ty, f: Ty) -> Ty {
        Ty { width: t.width.max(f.width), signed: t.signed && f.signed }
    }

    /// The part select `[msb:lsb]`: `msb - lsb + 1` bits.
    ///
    /// # Errors
    ///
    /// [`WidthError::ReversedRange`] when `lsb > msb`, and
    /// [`WidthError::TooWide`] beyond `u32::MAX` bits.
    pub fn range(msb: u64, lsb: u64) -> Result<Ty, WidthError> {
        if lsb > msb {
            return Err(WidthError::ReversedRange { msb, lsb });
        }
        u32::try_from(msb - lsb + 1).map(Ty::unsigned).map_err(|_| WidthError::TooWide)
    }

    /// `{self, lo}`: the sum of the widths. A longer concatenation folds
    /// its parts from the left, starting at `Ty::unsigned(0)`.
    ///
    /// # Errors
    ///
    /// [`WidthError::TooWide`] beyond `u32::MAX` bits.
    pub fn concat(self, lo: Ty) -> Result<Ty, WidthError> {
        self.width.checked_add(lo.width).map(Ty::unsigned).ok_or(WidthError::TooWide)
    }

    /// `{count{body}}`: `count` times the body's width.
    ///
    /// # Errors
    ///
    /// [`WidthError::TooWide`] beyond `u32::MAX` bits.
    pub fn repeat(count: u64, body: Ty) -> Result<Ty, WidthError> {
        let width = count.checked_mul(u64::from(body.width)).ok_or(WidthError::TooWide)?;
        u32::try_from(width).map(Ty::unsigned).map_err(|_| WidthError::TooWide)
    }

    /// `$signed(a)` / `$unsigned(a)`: `a`'s width with the given sign.
    pub fn sign_cast(signed: bool, a: Ty) -> Ty {
        Ty { width: a.width, signed }
    }

    /// Whether storing a value of this type into `width` bits copies its
    /// sign bit: it is signed and narrower than the target.
    pub fn sign_extends_to(self, width: u32) -> bool {
        self.signed && self.width < width
    }

    /// Stores `v`, a value of this type, into `width` bits.
    pub fn fit(self, v: &Bits, width: u32) -> Bits {
        match self.sign_extends_to(width) {
            true => v.resize_signed(width),
            false => v.resize(width),
        }
    }
}

fn is_shift(op: BinaryOp) -> bool {
    matches!(op, BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr)
}

impl SigInfo {
    /// This signal read whole: its declared width and sign.
    pub fn ty(&self) -> Ty {
        Ty { width: self.width, signed: self.signed }
    }

    /// `name[i]`: one element of a memory, else one bit.
    pub fn element_ty(&self) -> Ty {
        Ty::unsigned(if self.mem_depth.is_some() { self.width } else { 1 })
    }
}

/// What [`ty()`] needs to know about the names an expression reads. A
/// name the scope does not hold is a [`WidthError::UnknownName`], and a
/// bound that is not constant a [`WidthError::NonConstBound`].
pub trait Scope {
    /// A literal's type; [`Ty::literal`] unless the scope measures
    /// something else.
    fn literal(&self, value: &Bits, signed: bool) -> Ty {
        Ty::literal(value, signed)
    }
    /// The type of `name` read whole.
    fn name(&self, name: &str) -> Result<Ty, WidthError>;
    /// The type of `name[i]`.
    fn element(&self, name: &str) -> Result<Ty, WidthError>;
    /// The value of a part-select bound or replication count.
    fn constant(&self, e: &Expr) -> Result<u64, WidthError>;
    /// The scope concatenation parts and replication bodies are typed in,
    /// where every name and literal has its exact width.
    fn exact(&self) -> &dyn Scope;
}

/// The parameters of a [`ConstEnv`] are its names.
impl Scope for ConstEnv {
    fn name(&self, name: &str) -> Result<Ty, WidthError> {
        self.get(name).map(Ty::param).ok_or_else(|| WidthError::UnknownName(name.to_owned()))
    }

    fn element(&self, name: &str) -> Result<Ty, WidthError> {
        self.name(name).map(|_| Ty::BIT)
    }

    fn constant(&self, e: &Expr) -> Result<u64, WidthError> {
        eval_const(e, self).map(|v| v.to_u64()).map_err(|_| WidthError::NonConstBound)
    }

    fn exact(&self) -> &dyn Scope {
        self
    }
}

/// The type of `e` in `scope`: the combinators folded bottom-up. A
/// ternary's condition and a select's index do not shape the result and
/// are not typed.
///
/// # Errors
///
/// The first unknown name, non-constant or reversed bound, or overwide
/// concatenation, in evaluation order.
pub fn ty<S: Scope + ?Sized>(e: &Expr, scope: &S) -> Result<Ty, WidthError> {
    Ok(match e {
        Expr::Literal { value, signed } => scope.literal(value, *signed),
        Expr::Ident(n) => scope.name(n)?,
        Expr::Unary(op, a) => Ty::unary(*op, ty(a, scope)?),
        Expr::Binary(op, a, b) => Ty::binary(*op, ty(a, scope)?, ty(b, scope)?),
        Expr::Ternary(_, t, f) => Ty::ternary(ty(t, scope)?, ty(f, scope)?),
        Expr::Index(n, _) => scope.element(n)?,
        Expr::Range(_, msb, lsb) => Ty::range(scope.constant(msb)?, scope.constant(lsb)?)?,
        Expr::Concat(parts) => {
            let mut acc = Ty::unsigned(0);
            for p in parts {
                acc = acc.concat(ty(p, scope.exact())?)?;
            }
            acc
        }
        Expr::Repeat(n, body) => Ty::repeat(scope.constant(n)?, ty(body, scope.exact())?)?,
        Expr::WidthCast(w, _) => Ty::unsigned(*w),
        Expr::SignCast(signed, a) => Ty::sign_cast(*signed, ty(a, scope)?),
    })
}

/// The width an lvalue takes, by the rules of [`ty()`]: a name, an element
/// or bit, a part select, or a concatenation's parts summed.
///
/// # Errors
///
/// As [`ty()`].
pub fn lvalue_width<S: Scope + ?Sized>(lv: &LValue, scope: &S) -> Result<u32, WidthError> {
    Ok(match lv {
        LValue::Id(n) => scope.name(n)?.width,
        LValue::Index(n, _) => scope.element(n)?.width,
        LValue::Range(_, msb, lsb) => Ty::range(scope.constant(msb)?, scope.constant(lsb)?)?.width,
        LValue::Concat(parts) => {
            let mut acc = Ty::unsigned(0);
            for p in parts {
                acc = acc.concat(Ty::unsigned(lvalue_width(p, scope)?))?;
            }
            acc.width
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_rtl::parse_expr;

    fn env() -> ConstEnv {
        [("P", Bits::from_u64(8, 0x26))].into_iter().map(|(n, v)| (n.to_owned(), v)).collect()
    }

    fn typed(src: &str) -> Ty {
        ty(&parse_expr(src).unwrap(), &env()).unwrap()
    }

    const fn signed(width: u32) -> Ty {
        Ty { width, signed: true }
    }

    #[test]
    fn combinators_over_every_node_kind() {
        let cases = [
            ("3", signed(32)),
            ("8'sd3", signed(8)),
            ("8'd3", Ty::unsigned(8)),
            ("'hff", Ty::unsigned(32)),
            ("P", Ty::unsigned(8)),
            ("-8'sd3", signed(8)),
            ("~P", Ty::unsigned(8)),
            ("&8'sd3", Ty::BIT),
            ("8'sd3 + 4'sd1", signed(8)),
            ("8'sd3 + 4'd1", Ty::unsigned(8)),
            ("4'sd3 >>> P", signed(4)),
            ("P >>> 4'sd3", Ty::unsigned(8)),
            ("8'sd3 < 8'sd4", Ty::BIT),
            ("P ? 8'sd1 : 4'sd1", signed(8)),
            ("P ? 8'sd1 : 4'd1", Ty::unsigned(8)),
            ("P[2]", Ty::BIT),
            ("P[5:2]", Ty::unsigned(4)),
            ("{8'sd1, 4'sd1}", Ty::unsigned(12)),
            ("{3{4'sd1}}", Ty::unsigned(12)),
            ("16'(8'sd1)", Ty::unsigned(16)),
            ("$signed(P)", signed(8)),
            ("$unsigned(-1)", Ty::unsigned(32)),
        ];
        for (src, want) in cases {
            assert_eq!(typed(src), want, "{src}");
        }
    }

    #[test]
    fn errors_name_the_first_fault() {
        let err = |src: &str| ty(&parse_expr(src).unwrap(), &env()).unwrap_err();
        assert_eq!(err("P + x"), WidthError::UnknownName("x".into()));
        assert_eq!(err("P[0:3]"), WidthError::ReversedRange { msb: 0, lsb: 3 });
        assert_eq!(err("P[x:0]"), WidthError::NonConstBound);
        let wide = "{1048576{{1048576{1'b1}}}}";
        assert_eq!(err(wide), WidthError::TooWide);
    }

    #[test]
    fn assignment_extends_by_the_value_sign() {
        let v = Bits::from_u64(8, 0xf9);
        assert_eq!(signed(8).fit(&v, 16), Bits::from_u64(16, 0xfff9));
        assert_eq!(Ty::unsigned(8).fit(&v, 16), Bits::from_u64(16, 0x00f9));
        assert_eq!(signed(8).fit(&v, 4), Bits::from_u64(4, 0x9));
    }
}
