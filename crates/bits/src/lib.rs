//! Arbitrary-width two-state bit vectors.
//!
//! [`Bits`] is the value type used throughout `hwdbg` for RTL constants,
//! simulation state, and analysis results. It models Verilog's two-state
//! (0/1) value semantics the way Verilator does: there is no `x`/`z`;
//! uninitialized state is supplied by the simulator's init policy instead.
//!
//! A `Bits` has a fixed `width` (at least 1) and stores its payload in
//! little-endian `u64` limbs. All bits above `width` are kept at zero
//! (a crate invariant maintained by every operation).
//!
//! # Representation
//!
//! Values of `width <= 64` — virtually every RTL signal in practice — are
//! stored *inline* as a single `u64`, with no heap allocation. Wider values
//! spill to a limb vector. The representation is intentionally lazy in one
//! direction: a heap-backed value that is narrowed (e.g. a reused scratch
//! buffer) may stay heap-backed rather than churn its allocation, so
//! equality and hashing are defined over `(width, limbs)` and never over
//! the storage kind. Constructors always produce the inline form when the
//! width permits.
//!
//! The in-place API (`assign_from`, `resize_in_place`, the `*_into`
//! operations in [`ops`](self)) writes results into caller-owned storage
//! and is what the simulator's hot path uses to run allocation-free.
//!
//! # Examples
//!
//! ```
//! use hwdbg_bits::Bits;
//!
//! let a = Bits::from_u64(8, 0xF0);
//! let b = Bits::from_u64(8, 0x0F);
//! assert_eq!((&a | &b).to_u64(), 0xFF);
//! assert_eq!(a.add(&b).to_u64(), 0xFF);
//! assert_eq!(Bits::parse_literal("8'hff").unwrap().to_u64(), 0xFF);
//! ```

#![warn(missing_docs)]

pub mod fixed;
mod literal;
mod ops;
pub mod prng;

pub use literal::LiteralError;
pub use prng::SplitMix64;

use std::fmt;
use std::hash::{Hash, Hasher};

/// Storage for the limb payload: one inline limb for narrow values, a heap
/// vector for wide ones. `Inline` is only legal for `width <= 64`;
/// `Spilled` is legal at any width (see the module docs on laziness).
#[derive(Clone)]
enum Repr {
    Inline(u64),
    Spilled(Vec<u64>),
}

/// A fixed-width, two-state bit vector.
///
/// Widths are at least 1. Arithmetic wraps modulo `2^width`, matching
/// synthesizable Verilog semantics for unsigned operands.
#[derive(Clone)]
pub struct Bits {
    width: u32,
    repr: Repr,
}

#[inline]
fn limbs_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

impl Bits {
    /// Bit mask covering a width of 1..=64 bits.
    #[inline]
    fn mask(width: u32) -> u64 {
        debug_assert!((1..=64).contains(&width));
        if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// Inline constructor for `width <= 64`; masks `raw` to `width`.
    #[inline]
    fn small(width: u32, raw: u64) -> Self {
        debug_assert!((1..=64).contains(&width));
        Bits {
            width,
            repr: Repr::Inline(raw & Self::mask(width)),
        }
    }

    /// Creates an all-zero vector of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn zero(width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            Bits::small(width, 0)
        } else {
            Bits {
                width,
                repr: Repr::Spilled(vec![0; limbs_for(width)]),
            }
        }
    }

    /// Creates an all-ones vector of `width` bits.
    pub fn ones(width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::small(width, u64::MAX);
        }
        let mut b = Bits {
            width,
            repr: Repr::Spilled(vec![u64::MAX; limbs_for(width)]),
        };
        b.mask_top();
        b
    }

    /// Creates a vector holding `value` truncated to `width` bits.
    pub fn from_u64(width: u32, value: u64) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::small(width, value);
        }
        let mut b = Bits::zero(width);
        b.limbs_mut()[0] = value;
        b
    }

    /// Creates a vector holding `value` truncated to `width` bits.
    pub fn from_u128(width: u32, value: u128) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::small(width, value as u64);
        }
        let mut b = Bits::zero(width);
        {
            let limbs = b.limbs_mut();
            limbs[0] = value as u64;
            if limbs.len() > 1 {
                limbs[1] = (value >> 64) as u64;
            }
        }
        b.mask_top();
        b
    }

    /// Creates a 1-bit vector from a boolean.
    pub fn from_bool(v: bool) -> Self {
        Bits::small(1, v as u64)
    }

    /// The width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Raw little-endian limbs (bits above `width` are zero).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(v) => std::slice::from_ref(v),
            Repr::Spilled(v) => v,
        }
    }

    /// Mutable view of the limbs; callers must re-establish the masked-top
    /// invariant before the borrow ends.
    #[inline]
    fn limbs_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(v) => std::slice::from_mut(v),
            Repr::Spilled(v) => v,
        }
    }

    /// The lowest limb without branching on representation.
    #[inline]
    pub(crate) fn limb0(&self) -> u64 {
        match &self.repr {
            Repr::Inline(v) => *v,
            Repr::Spilled(v) => v[0],
        }
    }

    /// True iff the value is stored inline (no heap allocation backs it).
    ///
    /// Diagnostic/testing aid; semantics never depend on the storage kind.
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Returns a copy forced onto the spilled (heap-backed) representation
    /// even when the value fits inline. Differential tests use this to run
    /// every operation over both representations; production code never
    /// needs it.
    #[must_use]
    pub fn spilled(&self) -> Bits {
        Bits {
            width: self.width,
            repr: Repr::Spilled(self.limbs().to_vec()),
        }
    }

    /// Re-dimensions `self` to an all-zero value of `width` bits, reusing
    /// existing heap storage where possible. The previous value is lost.
    fn reshape(&mut self, width: u32) {
        debug_assert!(width > 0, "Bits width must be at least 1");
        self.width = width;
        if width <= 64 {
            match &mut self.repr {
                Repr::Inline(v) => *v = 0,
                Repr::Spilled(v) => {
                    v.truncate(1);
                    v[0] = 0;
                }
            }
        } else {
            let n = limbs_for(width);
            match &mut self.repr {
                Repr::Inline(_) => self.repr = Repr::Spilled(vec![0; n]),
                Repr::Spilled(v) => {
                    v.clear();
                    v.resize(n, 0);
                }
            }
        }
    }

    /// Stores a narrow value (`width <= 64`), masking `raw`, reusing any
    /// existing heap storage.
    #[inline]
    pub(crate) fn store_small(&mut self, width: u32, raw: u64) {
        debug_assert!((1..=64).contains(&width));
        self.width = width;
        let m = raw & Self::mask(width);
        match &mut self.repr {
            Repr::Inline(v) => *v = m,
            Repr::Spilled(v) => {
                v.truncate(1);
                v[0] = m;
            }
        }
    }

    /// Stores a `<= 128`-bit value (`64 < width <= 128`), masking to
    /// `width`, reusing existing heap storage.
    #[inline]
    pub(crate) fn store_u128(&mut self, width: u32, raw: u128) {
        debug_assert!((65..=128).contains(&width));
        self.reshape(width);
        let limbs = self.limbs_mut();
        limbs[0] = raw as u64;
        limbs[1] = (raw >> 64) as u64;
        self.mask_top();
    }

    /// Becomes an all-zero value of `width` bits (in place, storage reused).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn set_zero(&mut self, width: u32) {
        assert!(width > 0, "Bits width must be at least 1");
        self.reshape(width);
    }

    /// Becomes `value` truncated to `width` bits (in place).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn set_u64(&mut self, width: u32, value: u64) {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            self.store_small(width, value);
        } else {
            self.reshape(width);
            self.limbs_mut()[0] = value;
        }
    }

    /// Becomes the 1-bit value `v` (in place).
    pub fn set_bool(&mut self, v: bool) {
        self.store_small(1, v as u64);
    }

    /// Sets the value to `value` truncated to the *current* width, keeping
    /// both width and storage; returns true if the stored value changed.
    ///
    /// Never allocates regardless of width — this is the poke-an-integer
    /// hot path, where constructing a temporary wide `Bits` would cost a
    /// heap allocation per call.
    pub fn update_u64(&mut self, value: u64) -> bool {
        let m = if self.width >= 64 {
            value
        } else {
            value & Self::mask(self.width)
        };
        match &mut self.repr {
            Repr::Inline(v) => {
                if *v == m {
                    return false;
                }
                *v = m;
            }
            Repr::Spilled(v) => {
                if v[0] == m && v[1..].iter().all(|&l| l == 0) {
                    return false;
                }
                v[1..].fill(0);
                v[0] = m;
            }
        }
        true
    }

    /// Becomes a copy of `src` (width and value), reusing storage; only
    /// allocates when growing a wide value past existing capacity.
    pub fn assign_from(&mut self, src: &Bits) {
        self.assign_resized(src, src.width);
    }

    /// Becomes `src.resize(width)` without the intermediate allocation.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn assign_resized(&mut self, src: &Bits, width: u32) {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            self.store_small(width, src.limb0());
            return;
        }
        let n = limbs_for(width);
        self.width = width;
        let s = src.limbs();
        let k = n.min(s.len());
        match &mut self.repr {
            Repr::Inline(_) => {
                let mut v = vec![0u64; n];
                v[..k].copy_from_slice(&s[..k]);
                self.repr = Repr::Spilled(v);
            }
            Repr::Spilled(v) => {
                v.clear();
                v.resize(n, 0);
                v[..k].copy_from_slice(&s[..k]);
            }
        }
        self.mask_top();
    }

    /// Zeroes any bits above `width` in the top limb.
    pub(crate) fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let limbs = self.limbs_mut();
            let last = limbs.len() - 1;
            limbs[last] &= (1u64 << rem) - 1;
        }
    }

    /// Returns bit `i` (false if `i >= width`).
    pub fn bit(&self, i: u32) -> bool {
        if i >= self.width {
            return false;
        }
        (self.limbs()[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`. Out-of-range indices are ignored, mirroring the
    /// hardware behaviour of writes past a vector's end.
    pub fn set_bit(&mut self, i: u32, v: bool) {
        if i >= self.width {
            return;
        }
        let limb = &mut self.limbs_mut()[(i / 64) as usize];
        if v {
            *limb |= 1 << (i % 64);
        } else {
            *limb &= !(1 << (i % 64));
        }
    }

    /// True iff every bit is zero.
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Inline(v) => *v == 0,
            Repr::Spilled(v) => v.iter().all(|&l| l == 0),
        }
    }

    /// The value truncated to 64 bits.
    #[inline]
    pub fn to_u64(&self) -> u64 {
        self.limb0()
    }

    /// The value truncated to 128 bits.
    pub fn to_u128(&self) -> u128 {
        let l = self.limbs();
        let lo = l[0] as u128;
        let hi = if l.len() > 1 { l[1] as u128 } else { 0 };
        (hi << 64) | lo
    }

    /// The value as `bool`: true iff nonzero (Verilog truthiness).
    pub fn to_bool(&self) -> bool {
        !self.is_zero()
    }

    /// Returns a copy resized to `width`, zero-extending or truncating.
    pub fn resize(&self, width: u32) -> Bits {
        let mut out = Bits::default();
        out.assign_resized(self, width);
        out
    }

    /// Resizes in place, zero-extending or truncating, reusing storage.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn resize_in_place(&mut self, width: u32) {
        assert!(width > 0, "Bits width must be at least 1");
        if width == self.width {
            return;
        }
        if width <= 64 {
            let v = self.limb0() & Self::mask(width);
            self.store_small(width, v);
        } else if width < self.width {
            // Shrinking a wide value: stay spilled, drop surplus limbs.
            self.width = width;
            let n = limbs_for(width);
            if let Repr::Spilled(v) = &mut self.repr {
                v.truncate(n);
            }
            self.mask_top();
        } else {
            // Growing past 64 bits: the one place widening can allocate.
            let n = limbs_for(width);
            self.width = width;
            match &mut self.repr {
                Repr::Inline(v0) => {
                    let lo = *v0;
                    let mut v = vec![0u64; n];
                    v[0] = lo;
                    self.repr = Repr::Spilled(v);
                }
                Repr::Spilled(v) => v.resize(n, 0),
            }
        }
    }

    /// Returns a copy resized to `width`, sign-extending from the current
    /// top bit when growing.
    pub fn resize_signed(&self, width: u32) -> Bits {
        let mut out = self.resize(width);
        if width > self.width && self.bit(self.width - 1) {
            out.fill_ones(self.width, width);
        }
        out
    }

    /// Resizes in place with sign extension when growing.
    pub fn resize_signed_in_place(&mut self, width: u32) {
        let old = self.width;
        let negative = width > old && self.bit(old - 1);
        self.resize_in_place(width);
        if negative {
            self.fill_ones(old, width);
        }
    }

    /// Sets bits `[from, to)` to one, word-wise. Bounds are clamped to the
    /// current width by the limb loop.
    fn fill_ones(&mut self, from: u32, to: u32) {
        if from >= to {
            return;
        }
        let first = (from / 64) as usize;
        let limbs = self.limbs_mut();
        for (i, limb) in limbs.iter_mut().enumerate().skip(first) {
            let base = i as u32 * 64;
            if base >= to {
                break;
            }
            let lo = from.saturating_sub(base).min(64);
            let hi = (to - base).min(64);
            if lo >= hi {
                continue;
            }
            let m = if hi - lo == 64 {
                u64::MAX
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            *limb |= m;
        }
        self.mask_top();
    }

    /// Extracts `width` bits starting at bit `lo` (bits past the end read
    /// as zero).
    pub fn slice(&self, lo: u32, width: u32) -> Bits {
        let mut out = Bits::default();
        self.slice_into(lo, width, &mut out);
        out
    }

    /// In-place [`slice`](Bits::slice): writes `self[lo +: width]` into
    /// `out`, reusing its storage. A zero `width` yields a 1-bit zero,
    /// matching `slice`.
    pub fn slice_into(&self, lo: u32, width: u32, out: &mut Bits) {
        if width == 0 {
            out.set_zero(1);
            return;
        }
        out.reshape(width);
        let limb_off = (lo / 64) as usize;
        let bit_off = lo % 64;
        let src = self.limbs();
        let dst = out.limbs_mut();
        for (i, d) in dst.iter_mut().enumerate() {
            let lo_limb = src.get(limb_off + i).copied().unwrap_or(0);
            *d = if bit_off == 0 {
                lo_limb
            } else {
                let hi_limb = src.get(limb_off + i + 1).copied().unwrap_or(0);
                (lo_limb >> bit_off) | (hi_limb << (64 - bit_off))
            };
        }
        out.mask_top();
    }

    /// Writes `value` into bits `[lo +: value.width]` of `self`; bits past
    /// the end of `self` are dropped.
    pub fn splice(&mut self, lo: u32, value: &Bits) {
        if lo >= self.width {
            return;
        }
        if self.width <= 64 {
            let n = value.width.min(self.width - lo);
            let m = Self::mask(n) << lo;
            let w = self.width;
            let merged = (self.limb0() & !m) | ((value.limb0() << lo) & m);
            self.store_small(w, merged);
            return;
        }
        for i in 0..value.width {
            self.set_bit(lo + i, value.bit(i));
        }
    }

    /// True iff `splice(lo, value)` would leave `self` unchanged: the
    /// in-range window already equals `value` (out-of-range bits of `value`
    /// are ignored, as `splice` drops them).
    pub fn slice_eq(&self, lo: u32, value: &Bits) -> bool {
        if lo >= self.width {
            return true;
        }
        for i in 0..value.width {
            let pos = lo + i;
            if pos >= self.width {
                break;
            }
            if self.bit(pos) != value.bit(i) {
                return false;
            }
        }
        true
    }

    /// True iff `self == src.resize(self.width)`, without allocating.
    pub fn eq_truncated(&self, src: &Bits) -> bool {
        if self.width <= 64 {
            return self.limb0() == src.limb0() & Self::mask(self.width);
        }
        let a = self.limbs();
        let s = src.limbs();
        let rem = self.width % 64;
        for (i, &av) in a.iter().enumerate() {
            let mut sv = s.get(i).copied().unwrap_or(0);
            if i == a.len() - 1 && rem != 0 {
                sv &= (1u64 << rem) - 1;
            }
            if av != sv {
                return false;
            }
        }
        true
    }

    /// Equality after zero-extending both operands to the wider width,
    /// without allocating.
    pub fn eq_zero_ext(&self, other: &Bits) -> bool {
        let a = self.limbs();
        let b = other.limbs();
        let n = a.len().max(b.len());
        (0..n).all(|i| a.get(i).copied().unwrap_or(0) == b.get(i).copied().unwrap_or(0))
    }

    /// Concatenates `{ self, low }` — `self` occupies the high bits, as in
    /// a Verilog concatenation written `{self, low}`.
    pub fn concat(&self, low: &Bits) -> Bits {
        let mut out = self.clone();
        out.push_low(low);
        out
    }

    /// In-place concatenation step: `self` becomes `{ self, low }`. Used to
    /// fold a Verilog concatenation left-to-right without temporaries.
    pub fn push_low(&mut self, low: &Bits) {
        let lw = low.width;
        self.resize_in_place(self.width + lw);
        self.shl_in_place(lw);
        if self.width <= 64 {
            let w = self.width;
            let v = self.limb0() | low.limb0();
            self.store_small(w, v);
        } else {
            let src = low.limbs();
            let dst = self.limbs_mut();
            for (d, s) in dst.iter_mut().zip(src) {
                *d |= s;
            }
        }
    }

    /// Repeats the vector `n` times (Verilog replication `{n{v}}`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn repeat(&self, n: u32) -> Bits {
        let mut out = Bits::default();
        self.repeat_into(n, &mut out);
        out
    }

    /// In-place [`repeat`](Bits::repeat), reusing `out`'s storage.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn repeat_into(&self, n: u32, out: &mut Bits) {
        assert!(n > 0, "replication count must be positive");
        out.set_zero(self.width * n);
        for k in 0..n {
            out.splice(k * self.width, self);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.limbs().iter().map(|l| l.count_ones()).sum()
    }

    /// Divides in place by a small divisor, returning the remainder.
    /// Used by decimal formatting.
    fn divmod_small(&mut self, div: u64) -> u64 {
        debug_assert!(div != 0);
        let mut rem: u128 = 0;
        for limb in self.limbs_mut().iter_mut().rev() {
            let cur = (rem << 64) | (*limb as u128);
            *limb = (cur / div as u128) as u64;
            rem = cur % div as u128;
        }
        rem as u64
    }

    /// Formats as an unsigned decimal string.
    pub fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut tmp = self.clone();
        let mut digits = Vec::new();
        while !tmp.is_zero() {
            digits.push(b'0' + tmp.divmod_small(10) as u8);
        }
        digits.reverse();
        digits.into_iter().map(char::from).collect()
    }

    /// Formats as lowercase hex, `ceil(width/4)` digits, no prefix.
    pub fn to_hex_string(&self) -> String {
        let digits = self.width.div_ceil(4) as usize;
        let mut s = String::with_capacity(digits);
        for d in (0..digits).rev() {
            // Nibbles are 4-aligned, so none straddles a 64-bit limb.
            let bit = d as u32 * 4;
            let limb = self.limbs().get((bit / 64) as usize).copied().unwrap_or(0);
            let nib = limb >> (bit % 64);
            s.push(char::from(b"0123456789abcdef"[(nib & 0xF) as usize]));
        }
        s
    }

    /// Formats as binary, exactly `width` digits, no prefix.
    pub fn to_bin_string(&self) -> String {
        (0..self.width)
            .rev()
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect()
    }
}

impl PartialEq for Bits {
    /// Value equality over `(width, limbs)`; independent of whether either
    /// side is inline or spilled.
    fn eq(&self, other: &Self) -> bool {
        if self.width != other.width {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a == b,
            _ => self.limbs() == other.limbs(),
        }
    }
}

impl Eq for Bits {}

impl Hash for Bits {
    /// Hashes `(width, limbs)` so inline and spilled forms of the same
    /// value hash identically (required by the `Eq` impl).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.limbs().hash(state);
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{}", self.width, self.to_hex_string())
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dec_string())
    }
}

impl fmt::LowerHex for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex_string())
    }
}

impl fmt::Binary for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bin_string())
    }
}

impl Default for Bits {
    /// A single zero bit (inline; `Bits::default()` never allocates).
    fn default() -> Self {
        Bits::small(1, 0)
    }
}

impl From<bool> for Bits {
    fn from(v: bool) -> Self {
        Bits::from_bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_ones() {
        let z = Bits::zero(65);
        assert!(z.is_zero());
        assert_eq!(z.width(), 65);
        let o = Bits::ones(65);
        assert_eq!(o.count_ones(), 65);
        assert!(o.bit(64));
        assert!(!o.bit(65));
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        let _ = Bits::zero(0);
    }

    #[test]
    fn from_u64_truncates() {
        let b = Bits::from_u64(4, 0xFF);
        assert_eq!(b.to_u64(), 0xF);
    }

    #[test]
    fn from_u128_roundtrip() {
        let v = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210u128;
        let b = Bits::from_u128(128, v);
        assert_eq!(b.to_u128(), v);
    }

    #[test]
    fn narrow_values_are_inline() {
        assert!(Bits::zero(1).is_inline());
        assert!(Bits::zero(64).is_inline());
        assert!(!Bits::zero(65).is_inline());
        assert!(Bits::from_u64(32, 7).is_inline());
        assert!(Bits::default().is_inline());
    }

    #[test]
    fn inline_and_spilled_compare_equal() {
        let a = Bits::from_u64(32, 0xDEAD);
        let b = a.spilled();
        assert!(!b.is_inline());
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Bits| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn bit_get_set() {
        let mut b = Bits::zero(70);
        b.set_bit(69, true);
        assert!(b.bit(69));
        b.set_bit(69, false);
        assert!(b.is_zero());
        b.set_bit(200, true); // ignored
        assert!(b.is_zero());
    }

    #[test]
    fn slice_and_splice() {
        let b = Bits::from_u64(16, 0xABCD);
        assert_eq!(b.slice(4, 8).to_u64(), 0xBC);
        assert_eq!(b.slice(12, 8).to_u64(), 0x0A); // reads past end as zero
        let mut c = Bits::zero(16);
        c.splice(8, &Bits::from_u64(8, 0xAB));
        assert_eq!(c.to_u64(), 0xAB00);
    }

    #[test]
    fn slice_eq_matches_splice() {
        let mut b = Bits::from_u64(16, 0xABCD);
        assert!(b.slice_eq(4, &Bits::from_u64(8, 0xBC)));
        assert!(!b.slice_eq(4, &Bits::from_u64(8, 0xBD)));
        // Out-of-range window bits are ignored, like splice drops them.
        assert!(b.slice_eq(12, &Bits::from_u64(8, 0x0A)));
        b.splice(12, &Bits::from_u64(8, 0x0A));
        assert_eq!(b.to_u64(), 0xABCD);
    }

    #[test]
    fn concat_and_repeat() {
        let hi = Bits::from_u64(4, 0xA);
        let lo = Bits::from_u64(4, 0x5);
        assert_eq!(hi.concat(&lo).to_u64(), 0xA5);
        assert_eq!(Bits::from_u64(2, 0b10).repeat(3).to_u64(), 0b101010);
    }

    #[test]
    fn push_low_across_limb_boundary() {
        let mut acc = Bits::from_u64(40, 0xAB_CDEF_0123);
        acc.push_low(&Bits::from_u64(40, 0x45_6789_ABCD));
        assert_eq!(acc.width(), 80);
        assert_eq!(acc.to_u128(), (0xAB_CDEF_0123u128 << 40) | 0x45_6789_ABCD);
    }

    #[test]
    fn resize_signed_extends() {
        let b = Bits::from_u64(4, 0b1000);
        assert_eq!(b.resize_signed(8).to_u64(), 0xF8);
        assert_eq!(b.resize(8).to_u64(), 0x08);
        assert_eq!(Bits::from_u64(4, 0b0100).resize_signed(8).to_u64(), 0x04);
    }

    #[test]
    fn resize_in_place_round_trip() {
        let mut b = Bits::from_u64(32, 0xDEAD_BEEF);
        b.resize_in_place(128);
        assert_eq!(b.to_u128(), 0xDEAD_BEEF);
        b.set_bit(100, true);
        b.resize_in_place(32);
        assert_eq!(b.to_u64(), 0xDEAD_BEEF);
        assert_eq!(b.width(), 32);
        // Narrowed wide storage may stay spilled; value semantics identical.
        assert_eq!(b, Bits::from_u64(32, 0xDEAD_BEEF));
        b.resize_in_place(16);
        assert_eq!(b.to_u64(), 0xBEEF);
    }

    #[test]
    fn resize_signed_in_place_wide() {
        let mut b = Bits::from_u64(8, 0x80);
        b.resize_signed_in_place(200);
        assert_eq!(b.count_ones(), 193);
        assert!(b.bit(199));
        let mut p = Bits::from_u64(8, 0x7F);
        p.resize_signed_in_place(200);
        assert_eq!(p.to_u64(), 0x7F);
        assert_eq!(p.count_ones(), 7);
    }

    #[test]
    fn assign_resized_matches_resize() {
        let src = Bits::from_u128(100, 0xFFFF_FFFF_FFFF_FFFF_FFFFu128);
        for w in [1u32, 16, 63, 64, 65, 100, 128, 192] {
            let mut dst = Bits::default();
            dst.assign_resized(&src, w);
            assert_eq!(dst, src.resize(w), "width {w}");
        }
    }

    #[test]
    fn dec_string_multi_limb() {
        let b = Bits::from_u128(128, 340_282_366_920_938_463_463_374_607_431_768_211_455u128);
        assert_eq!(b.to_dec_string(), "340282366920938463463374607431768211455");
        assert_eq!(Bits::zero(8).to_dec_string(), "0");
    }

    #[test]
    fn hex_bin_strings() {
        let b = Bits::from_u64(12, 0xabc);
        assert_eq!(b.to_hex_string(), "abc");
        assert_eq!(b.to_bin_string(), "101010111100");
        assert_eq!(format!("{b:?}"), "12'habc");
        // Nibbles straddling the 64-bit limb boundary.
        let wide = Bits::from_u128(68, 0xF_0123_4567_89AB_CDEFu128);
        assert_eq!(wide.to_hex_string(), "f0123456789abcdef");
    }
}
