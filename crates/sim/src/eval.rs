//! Binary operators over evaluated operands and the paper's
//! memory-address truncation, shared by the compiler and bytecode.

use crate::compile::EvalScratch;
use hwdbg_bits::Bits;
use hwdbg_dataflow::clog2;
use hwdbg_rtl::BinaryOp;

/// `CExpr::Binary` over evaluated operands, for the tree-walker and the
/// bytecode's wide ops alike. Wide `/`/`%` go through `divmod_into` with a
/// pooled buffer for the half discarded: `div_into`/`rem_into` would
/// allocate their scratch per evaluation above 128 bits; signed ones divide
/// magnitudes as [`apply_binary_signed_into`](hwdbg_dataflow::apply_binary_signed_into)
/// does. The operands are scratch (resized in place).
pub(crate) fn binary_into(
    scratch: &mut EvalScratch,
    op: BinaryOp,
    signed: bool,
    x: &mut Bits,
    y: &mut Bits,
    out: &mut Bits,
) {
    if matches!(op, BinaryOp::Div | BinaryOp::Mod) && x.width().max(y.width()) > 128 {
        let negate = signed && hwdbg_dataflow::signed_magnitudes(op, x, y);
        let w = x.width().max(y.width());
        x.resize_in_place(w);
        y.resize_in_place(w);
        let mut spare = scratch.take();
        if matches!(op, BinaryOp::Div) {
            x.divmod_into(y, out, &mut spare);
        } else {
            x.divmod_into(y, &mut spare, out);
        }
        scratch.put(spare);
        if negate {
            out.neg_in_place();
        }
    } else if signed {
        hwdbg_dataflow::apply_binary_signed_into(op, x, y, out);
    } else {
        hwdbg_dataflow::apply_binary_into(op, x, y, out);
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
