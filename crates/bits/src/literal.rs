//! Parsing of Verilog-style numeric literals into [`Bits`].
//!
//! Supported forms (underscores allowed between digits):
//!
//! * plain decimal: `42` — 32 bits wide, per the Verilog default
//! * based, unsized: `'hFF`, `'b1010`, `'d9`, `'o17` — 32 bits wide
//! * based, sized: `8'hFF`, `12'o777`, `1'b1`, `64'd18446744073709551615`
//! * either based form signed: `8'sd3`, `'sh7f` (the sign is the parser's
//!   to record; the bits are the same)

use crate::Bits;
use std::fmt;

/// Error produced when a numeric literal cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralError {
    text: String,
    reason: &'static str,
}

impl fmt::Display for LiteralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid numeric literal `{}`: {}", self.text, self.reason)
    }
}

impl std::error::Error for LiteralError {}

fn err(text: &str, reason: &'static str) -> LiteralError {
    LiteralError {
        text: text.to_owned(),
        reason,
    }
}

impl Bits {
    /// Parses a Verilog numeric literal such as `8'hFF` or `42`.
    ///
    /// # Errors
    ///
    /// Returns [`LiteralError`] for malformed text, a zero width, digits
    /// invalid for the base, or a value that does not fit the given width.
    pub fn parse_literal(text: &str) -> Result<Bits, LiteralError> {
        let cleaned: String = text.chars().filter(|&c| c != '_').collect();
        let s = cleaned.as_str();
        let Some(tick) = s.find('\'') else {
            // Plain decimal, default 32 bits.
            return from_digits(text, 32, 10, s, true);
        };
        let (width_part, rest) = s.split_at(tick);
        let rest = &rest[1..];
        let width: u32 = if width_part.is_empty() {
            32
        } else {
            width_part
                .parse()
                .map_err(|_| err(text, "bad width prefix"))?
        };
        if width == 0 {
            return Err(err(text, "zero width"));
        }
        // A signed literal (`8'sd3`) has the same bits as an unsigned one;
        // the parser records the sign.
        let rest = rest.strip_prefix(['s', 'S']).unwrap_or(rest);
        let mut chars = rest.chars();
        let base_ch = chars
            .next()
            .ok_or_else(|| err(text, "missing base character"))?;
        let base = match base_ch.to_ascii_lowercase() {
            'b' => 2,
            'o' => 8,
            'd' => 10,
            'h' => 16,
            _ => return Err(err(text, "unknown base character")),
        };
        let digits = chars.as_str();
        if digits.is_empty() {
            return Err(err(text, "missing digits"));
        }
        from_digits(text, width, base, digits, width_part.is_empty())
    }
}

fn from_digits(
    orig: &str,
    width: u32,
    base: u64,
    digits: &str,
    unsized_literal: bool,
) -> Result<Bits, LiteralError> {
    // Narrow fast path: accumulate in a u128 (same modulus as the Bits
    // accumulator below — `width + 64` headroom bits) without allocating.
    if width <= 64 {
        let head = width + 64;
        let modulus_mask = if head == 128 {
            u128::MAX
        } else {
            (1u128 << head) - 1
        };
        let mut acc: u128 = 0;
        for ch in digits.chars() {
            let d = ch
                .to_digit(36)
                .filter(|&d| (d as u64) < base)
                .ok_or_else(|| err(orig, "digit invalid for base"))?;
            acc = (acc.wrapping_mul(base as u128).wrapping_add(d as u128)) & modulus_mask;
        }
        if !unsized_literal && acc >> width != 0 {
            return Err(err(orig, "value does not fit in the given width"));
        }
        return Ok(Bits::from_u128(width, acc));
    }
    let mut acc = Bits::zero(width.max(1) + 64); // headroom to detect overflow
    let base_b = Bits::from_u64(acc.width(), base);
    for ch in digits.chars() {
        let d = ch
            .to_digit(36)
            .filter(|&d| (d as u64) < base)
            .ok_or_else(|| err(orig, "digit invalid for base"))?;
        acc = acc.mul(&base_b).add(&Bits::from_u64(acc.width(), d as u64));
    }
    let out = acc.resize(width);
    // A sized literal whose value does not fit is almost always a typo; the
    // paper's bit-truncation subclass is about *assignments*, not literals,
    // so we reject rather than silently truncate. Unsized literals truncate
    // to 32 bits like Verilog does.
    if !unsized_literal && out.resize(acc.width()) != acc {
        return Err(err(orig, "value does not fit in the given width"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_decimal() {
        let b = Bits::parse_literal("42").unwrap();
        assert_eq!(b.width(), 32);
        assert_eq!(b.to_u64(), 42);
    }

    #[test]
    fn sized_hex() {
        let b = Bits::parse_literal("8'hFF").unwrap();
        assert_eq!(b.width(), 8);
        assert_eq!(b.to_u64(), 0xFF);
    }

    #[test]
    fn signed_base_keeps_the_bits() {
        assert_eq!(Bits::parse_literal("8'shF9").unwrap(), Bits::from_u64(8, 0xf9));
        assert_eq!(Bits::parse_literal("'Sd3").unwrap(), Bits::from_u64(32, 3));
        assert!(Bits::parse_literal("8's").is_err());
    }

    #[test]
    fn sized_binary_octal() {
        assert_eq!(Bits::parse_literal("4'b1010").unwrap().to_u64(), 10);
        assert_eq!(Bits::parse_literal("6'o77").unwrap().to_u64(), 0o77);
    }

    #[test]
    fn underscores_ignored() {
        assert_eq!(
            Bits::parse_literal("16'hAB_CD").unwrap().to_u64(),
            0xABCD
        );
    }

    #[test]
    fn unsized_based() {
        let b = Bits::parse_literal("'h10").unwrap();
        assert_eq!(b.width(), 32);
        assert_eq!(b.to_u64(), 16);
    }

    #[test]
    fn wide_decimal() {
        let b = Bits::parse_literal("64'd18446744073709551615").unwrap();
        assert_eq!(b.to_u64(), u64::MAX);
    }

    #[test]
    fn overflow_rejected() {
        assert!(Bits::parse_literal("4'hFF").is_err());
        assert!(Bits::parse_literal("1'd2").is_err());
    }

    #[test]
    fn malformed_rejected() {
        assert!(Bits::parse_literal("8'q12").is_err());
        assert!(Bits::parse_literal("8'").is_err());
        assert!(Bits::parse_literal("0'd1").is_err());
        assert!(Bits::parse_literal("8'b012").is_err());
        assert!(Bits::parse_literal("abc").is_err());
    }
}
