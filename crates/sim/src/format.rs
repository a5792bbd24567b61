//! `$display` format rendering.
//!
//! Supports the directives the paper's designs use: `%d`, `%0d`, `%h`/`%x`,
//! `%b`, `%c`, `%t`, `%%`, with optional width and zero-pad flags. Unknown
//! directives are emitted literally. `%d` honours declared signedness when
//! the caller supplies per-argument sign flags ([`render_signed`]).
//!
//! [`render_signed`] is the one renderer: the simulator records a
//! `$display` as its argument values and renders it only when the record
//! is read ([`LogRecord::message`](crate::LogRecord::message)). A design
//! whose field widths exceed [`MAX_FIELD_WIDTH`] is refused when it
//! compiles, which bounds what a record can pad to.

use crate::SimError;
use hwdbg_bits::Bits;

/// The widest field a directive may request (`%1024d`). Widths come from
/// RTL source, so without a bound one `$display` could ask for gigabytes
/// of padding per record.
pub const MAX_FIELD_WIDTH: usize = 1024;

/// Checks every directive's field width in `fmt` against
/// [`MAX_FIELD_WIDTH`]: [`SimError::FieldWidth`] names the first one that
/// is too large or does not fit a `usize`.
pub(crate) fn check_field_widths(fmt: &str) -> Result<(), SimError> {
    for piece in Pieces(fmt) {
        if let Piece::Directive { width, .. } = piece {
            match width.parse::<usize>() {
                Err(_) if width.is_empty() => {}
                Ok(w) if w <= MAX_FIELD_WIDTH => {}
                _ => {
                    return Err(SimError::FieldWidth {
                        format: fmt.to_owned(),
                        width: width.to_owned(),
                    })
                }
            }
        }
    }
    Ok(())
}

/// One lexical piece of a format string: what [`render_signed`] renders
/// and `check_field_widths` bounds.
enum Piece<'f> {
    /// Text copied through unchanged.
    Literal(&'f str),
    /// `%%`.
    Percent,
    /// `%` + zero flags + width digits + the directive character (`None`
    /// when the format ends first).
    Directive {
        zero_pad: bool,
        width: &'f str,
        kind: Option<char>,
    },
}

/// Iterator over the [`Piece`]s of a format string.
struct Pieces<'f>(&'f str);

impl<'f> Iterator for Pieces<'f> {
    type Item = Piece<'f>;

    fn next(&mut self) -> Option<Piece<'f>> {
        let rest = self.0;
        if rest.is_empty() {
            return None;
        }
        match rest.find('%') {
            Some(0) => {}
            Some(i) => {
                self.0 = &rest[i..];
                return Some(Piece::Literal(&rest[..i]));
            }
            None => {
                self.0 = "";
                return Some(Piece::Literal(rest));
            }
        }
        let b = rest.as_bytes();
        if b.get(1) == Some(&b'%') {
            self.0 = &rest[2..];
            return Some(Piece::Percent);
        }
        // Every leading `0` is a zero flag; the digits after it are the width.
        let mut i = 1;
        while b.get(i) == Some(&b'0') {
            i += 1;
        }
        let zero_pad = i > 1;
        let digits = i;
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        let width = &rest[digits..i];
        let kind = rest[i..].chars().next();
        self.0 = &rest[i + kind.map_or(0, char::len_utf8)..];
        Some(Piece::Directive {
            zero_pad,
            width,
            kind,
        })
    }
}

/// Renders `fmt` with `args` substituted for format directives.
///
/// `signs[i]` marks argument `i` as declared-signed: `%d` then prints the
/// two's-complement value (a leading `-` and the magnitude) when the sign
/// bit is set. Missing entries default to unsigned, so `&[]` renders
/// every argument unsigned. Base directives (`%h`, `%b`) always print the raw bit
/// pattern, like real simulators.
pub fn render_signed(fmt: &str, args: &[Bits], signs: &[bool]) -> String {
    let mut out = String::new();
    let mut next_arg = 0usize;
    for piece in Pieces(fmt) {
        let (zero_pad, width, kind) = match piece {
            Piece::Literal(s) => {
                out.push_str(s);
                continue;
            }
            Piece::Percent => {
                out.push('%');
                continue;
            }
            Piece::Directive {
                zero_pad,
                width,
                kind,
            } => (zero_pad, width, kind),
        };
        let Some(kind) = kind else {
            out.push('%');
            break;
        };
        let lower = kind.to_ascii_lowercase();
        let arg = match lower {
            'd' | 'h' | 'x' | 'b' | 'c' | 't' => args.get(next_arg),
            _ => None,
        };
        let Some(v) = arg else {
            out.push('%');
            out.push(kind);
            continue;
        };
        let signed = signs.get(next_arg).copied().unwrap_or(false);
        next_arg += 1;
        let width: usize = width.parse().unwrap_or(0);
        let text = match lower {
            'd' => {
                let s = dec_string(v, signed);
                pad(&s, default_dec_width(v.width(), width, zero_pad), zero_pad)
            }
            'h' | 'x' => pad(&v.to_hex_string(), width, zero_pad),
            'b' => pad(&v.to_bin_string(), width, zero_pad),
            // `%c`: the low byte(s) as a character; width ignored.
            'c' => char::from_u32(v.to_u64() as u32).unwrap_or('?').to_string(),
            _ => pad(&v.to_dec_string(), width, zero_pad),
        };
        out.push_str(&text);
    }
    out
}

/// The decimal rendering of `v`: two's-complement (sign bit set means a
/// leading `-` and the negated magnitude) when `signed`, plain otherwise.
fn dec_string(v: &Bits, signed: bool) -> String {
    if signed && v.bit(v.width() - 1) {
        format!("-{}", v.neg().to_dec_string())
    } else {
        v.to_dec_string()
    }
}

/// Verilog pads plain `%d` to the decimal width of an argument of `bits`
/// bits; `%0d` suppresses padding. An explicit width wins.
fn default_dec_width(bits: u32, explicit: usize, zero_pad: bool) -> usize {
    if explicit > 0 {
        return explicit;
    }
    if zero_pad {
        return 0; // %0d
    }
    // ceil(width * log10(2)) like real simulators do.
    ((f64::from(bits) * std::f64::consts::LOG10_2).ceil() as usize).max(1)
}

fn pad(s: &str, width: usize, zero_pad: bool) -> String {
    if s.len() >= width {
        return s.to_owned();
    }
    let fill = if zero_pad { '0' } else { ' ' };
    let mut out = String::new();
    for _ in 0..(width - s.len()) {
        out.push(fill);
    }
    out.push_str(s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(w: u32, v: u64) -> Bits {
        Bits::from_u64(w, v)
    }

    #[test]
    fn decimal_default_padding() {
        assert_eq!(render_signed("%d", &[b(8, 5)], &[]), "  5");
        assert_eq!(render_signed("%0d", &[b(8, 5)], &[]), "5");
        assert_eq!(render_signed("%5d", &[b(8, 5)], &[]), "    5");
    }

    #[test]
    fn hex_and_binary() {
        assert_eq!(render_signed("%h", &[b(16, 0xAB)], &[]), "00ab");
        assert_eq!(render_signed("%b", &[b(4, 0b101)], &[]), "0101");
        assert_eq!(render_signed("x=%x!", &[b(8, 0xF)], &[]), "x=0f!");
    }

    #[test]
    fn multiple_args_and_escape() {
        assert_eq!(
            render_signed("a=%0d b=%h 100%%", &[b(8, 3), b(8, 0x7F)], &[]),
            "a=3 b=7f 100%"
        );
    }

    #[test]
    fn missing_args_left_literal() {
        assert_eq!(render_signed("v=%d", &[], &[]), "v=%d");
    }

    #[test]
    fn unknown_directive_literal() {
        assert_eq!(render_signed("%q", &[b(4, 1)], &[]), "%q");
    }

    #[test]
    fn signed_decimal_prints_twos_complement() {
        // 8-bit 0xFF declared signed is -1; 0x80 is the most negative.
        assert_eq!(render_signed("%0d", &[b(8, 0xFF)], &[true]), "-1");
        assert_eq!(render_signed("%0d", &[b(8, 0x80)], &[true]), "-128");
        // Sign bit clear renders like unsigned.
        assert_eq!(render_signed("%0d", &[b(8, 5)], &[true]), "5");
        // Unsigned flag (or a missing entry) keeps the raw value.
        assert_eq!(render_signed("%0d", &[b(8, 0xFF)], &[false]), "255");
        assert_eq!(render_signed("%0d", &[b(8, 0xFF)], &[]), "255");
        // Base directives always print the bit pattern.
        assert_eq!(render_signed("%h", &[b(8, 0xFF)], &[true]), "ff");
        // Wide signed values work through the limb path too.
        let wide = Bits::from_u64(65, 1).neg();
        assert_eq!(render_signed("%0d", &[wide], &[true]), "-1");
    }

    #[test]
    fn field_widths_are_bounded() {
        let refused = |fmt: &str, width: &str| SimError::FieldWidth {
            format: fmt.to_owned(),
            width: width.to_owned(),
        };
        let fmt = "v=%20000000d";
        assert_eq!(check_field_widths(fmt), Err(refused(fmt, "20000000")));
        // Too large for `usize`: refused rather than read as width 0.
        let huge = "%99999999999999999999999d";
        assert_eq!(check_field_widths(huge), Err(refused(huge, "99999999999999999999999")));
        assert!(check_field_widths("%1025h").is_err());
        // Zero flags are not part of the width.
        assert!(check_field_widths("%0001024d %1024b").is_ok());
        for ok in ["%0d", "%5d", "%05t", "%d %h %% %q %", "plain", ""] {
            assert!(check_field_widths(ok).is_ok(), "{ok}");
        }
    }

    /// Every directive and flag shape, with an 8-bit and a 70-bit
    /// argument read signed and unsigned, and with arguments missing.
    #[test]
    fn directives_render_every_flag_shape() {
        let narrow = Bits::from_u64(8, 0xf9);
        let wide = Bits::from_u64(70, 0x1234_5678_9abc_def0).neg();
        let cases = [
            ("%d", [" -7", "249", "  -1311768467463790320"]),
            ("%0d", ["-7", "249", "-1311768467463790320"]),
            ("%5d", ["   -7", "  249", "-1311768467463790320"]),
            ("%05d", ["000-7", "00249", "-1311768467463790320"]),
            ("%h", ["f9", "f9", "3fedcba98765432110"]),
            ("%x", ["f9", "f9", "3fedcba98765432110"]),
            ("%b", ["11111001", "11111001", "1111111110110111001011101010011000011101100101010000110010000100010000"]),
            ("%c", ["ù", "ù", "?"]),
            ("%t", ["249", "249", "1179279852249947513104"]),
            ("%5t", ["  249", "  249", "1179279852249947513104"]),
            ("%%", ["%", "%", "%"]),
            ("%D|%H|%X|%B|%T", [" -7|3fedcba98765432110|%X|%B|%T", "249|3fedcba98765432110|%X|%B|%T", "  -1311768467463790320|%H|%X|%B|%T"]),
            ("a=%d b=%0h c=%b!", ["a= -7 b=3fedcba98765432110 c=%b!", "a=249 b=3fedcba98765432110 c=%b!", "a=  -1311768467463790320 b=%h c=%b!"]),
            ("%3h %08b %25d", [" f9 1111111110110111001011101010011000011101100101010000110010000100010000 %d", " f9 1111111110110111001011101010011000011101100101010000110010000100010000 %d", "3fedcba98765432110 %b %d"]),
            ("%q%d", ["%q -7", "%q249", "%q  -1311768467463790320"]),
            ("%5q", ["%q", "%q", "%q"]),
            ("%d %d %d", [" -7   -1311768467463790320 %d", "249 1179279852249947513104 %d", "  -1311768467463790320 %d %d"]),
            ("tail %", ["tail %", "tail %", "tail %"]),
            ("tail %05", ["tail %", "tail %", "tail %"]),
            ("é%dé", ["é -7é", "é249é", "é  -1311768467463790320é"]),
        ];
        for (fmt, [signed, unsigned, wide_only]) in cases {
            let both = [narrow.clone(), wide.clone()];
            assert_eq!(render_signed(fmt, &both, &[true, true]), signed, "{fmt:?} signed");
            assert_eq!(render_signed(fmt, &both, &[false, false]), unsigned, "{fmt:?}");
            let one = [wide.clone()];
            assert_eq!(render_signed(fmt, &one, &[true]), wide_only, "{fmt:?} one arg");
        }
    }

    #[test]
    fn time_directive_honours_width_flags() {
        assert_eq!(render_signed("%5t", &[b(32, 42)], &[]), "   42");
        assert_eq!(render_signed("%05t", &[b(32, 42)], &[]), "00042");
        assert_eq!(render_signed("%t", &[b(32, 42)], &[]), "42");
        assert_eq!(render_signed("%0t", &[b(32, 42)], &[]), "42");
    }
}
