//! The static width rule, signed binary operators, and the paper's
//! memory-address truncation, shared by the compiler and bytecode.

use crate::SimError;
use hwdbg_bits::Bits;
use hwdbg_dataflow::{clog2, Design, WidthError};
use hwdbg_rtl::{BinaryOp, Expr};

/// Computes the static width of an expression in the context of `design`:
/// [`Design::width_of`] with its failure reason mapped to a [`SimError`].
///
/// # Errors
///
/// Fails on references to unknown signals, non-constant range bounds or
/// replication counts, and reversed part-select bounds.
pub fn expr_width(expr: &Expr, design: &Design) -> Result<u32, SimError> {
    design.width_of(expr).map_err(|e| match e {
        WidthError::UnknownName(n) => SimError::UnknownSignal(n),
        WidthError::NonConstBound => SimError::NonConstSelect,
        WidthError::ReversedRange { msb, lsb } => SimError::ReversedRange { msb, lsb },
    })
}

/// Signed variant of the binary-operator semantics: comparisons compare in
/// two's complement, `>>>` shifts arithmetically, operands sign-extend.
/// Like [`hwdbg_dataflow::apply_binary_into`], the operands are scratch:
/// they are sign-extended in place to the common width.
pub(crate) fn apply_binary_signed_into(op: BinaryOp, a: &mut Bits, b: &mut Bits, out: &mut Bits) {
    use BinaryOp::*;
    let w = a.width().max(b.width());
    match op {
        AShr => {
            // The shift amount reads the *unextended* right operand.
            let n = hwdbg_dataflow::shift_amount(b);
            a.resize_signed_in_place(w);
            a.shr_arith_into(n, out);
        }
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
        // Add/sub/mul/logic are bit-identical for signed and unsigned, but
        // operands sign-extend to the common width first.
        _ => {
            a.resize_signed_in_place(w);
            b.resize_signed_in_place(w);
            hwdbg_dataflow::apply_binary_into(op, a, b, out);
        }
    }
}

/// Effective memory write address per the paper's buffer-overflow semantics
/// (§3.2.1): the index is truncated to `clog2(depth)` address bits; if the
/// truncated address still exceeds the depth (non-power-of-two memories),
/// the write is dropped. Returns `None` when the write must be ignored.
pub fn effective_mem_addr(idx: u64, depth: u64) -> Option<u64> {
    let addr_bits = clog2(depth);
    let eff = if addr_bits >= 64 {
        idx
    } else {
        idx & ((1u64 << addr_bits) - 1)
    };
    (eff < depth).then_some(eff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_addr_truncation_pow2() {
        // Depth 8 (power of two): index 9 truncates to 1 — wrong slot, but
        // the write lands (outcome 1 in the paper).
        assert_eq!(effective_mem_addr(9, 8), Some(1));
        assert_eq!(effective_mem_addr(7, 8), Some(7));
    }

    #[test]
    fn mem_addr_dropped_non_pow2() {
        // Depth 10: 4 address bits; index 12 stays 12 >= 10 — dropped
        // (outcome 2 in the paper).
        assert_eq!(effective_mem_addr(12, 10), None);
        assert_eq!(effective_mem_addr(17, 10), Some(1)); // 17 & 0xF = 1
        assert_eq!(effective_mem_addr(9, 10), Some(9));
    }
}
