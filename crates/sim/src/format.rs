//! `$display` format rendering.
//!
//! Supports the directives the paper's designs use: `%d`, `%0d`, `%h`/`%x`,
//! `%b`, `%c`, `%t`, `%%`, with optional width and zero-pad flags. Unknown
//! directives are emitted literally. `%d` honours declared signedness when
//! the caller supplies per-argument sign flags ([`render_signed`]).
//!
//! Two renderers share these semantics. [`render_signed`] is the reference:
//! it takes owned [`Bits`] and builds the text from per-directive strings.
//! The crate-internal `Renderer` is the production path: it reads borrowed
//! arguments (a narrow value is a `u64` plus its width) and writes every
//! digit straight into one reusable buffer, so a steady-state `$display`
//! allocates nothing. A design whose field widths exceed
//! [`MAX_FIELD_WIDTH`] is refused when it compiles, which bounds what
//! either renderer can pad to.

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

/// One lexical piece of a format string, split exactly the way
/// [`render_signed`] reads it.
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

/// A borrowed `$display` argument for [`Renderer::render`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arg<'a> {
    /// A value of 1..=64 bits: its bits (zero above the width) and width.
    Narrow(u64, u32),
    /// A value of any width.
    Wide(&'a Bits),
}

impl Arg<'_> {
    fn width(self) -> u32 {
        match self {
            Arg::Narrow(_, w) => w,
            Arg::Wide(b) => b.width(),
        }
    }

    fn low_u64(self) -> u64 {
        match self {
            Arg::Narrow(v, _) => v,
            Arg::Wide(b) => b.to_u64(),
        }
    }

    fn bit(self, i: u32) -> bool {
        match self {
            Arg::Narrow(v, _) => i < 64 && (v >> i) & 1 == 1,
            Arg::Wide(b) => b.bit(i),
        }
    }
}

/// `10^19`, the largest power of ten that fits a `u64`: wide decimals
/// are converted one 19-digit chunk at a time.
const CHUNK: u64 = 10_000_000_000_000_000_000;
const CHUNK_DIGITS: usize = 19;

/// The in-place `$display` renderer: a text buffer plus limb scratch for
/// wide decimal conversion, all reused across calls. Output is
/// byte-identical to [`render_signed`].
#[derive(Debug, Default)]
pub(crate) struct Renderer {
    text: String,
    /// A wide decimal operand, divided down in place.
    limbs: Vec<u64>,
    /// Base-`10^19` digits of a wide decimal, least significant first.
    chunks: Vec<u64>,
}

impl Renderer {
    /// Renders `fmt` with `args` (each with its declared signedness, as
    /// in [`render_signed`]) and returns the text, valid until the next
    /// call. Allocates only while the buffers grow to their steady size.
    pub(crate) fn render<'a>(
        &mut self,
        fmt: &str,
        args: impl IntoIterator<Item = (Arg<'a>, bool)>,
    ) -> &str {
        self.text.clear();
        let mut args = args.into_iter();
        for piece in Pieces(fmt) {
            let (zero_pad, width, kind) = match piece {
                Piece::Literal(s) => {
                    self.text.push_str(s);
                    continue;
                }
                Piece::Percent => {
                    self.text.push('%');
                    continue;
                }
                Piece::Directive {
                    zero_pad,
                    width,
                    kind,
                } => (zero_pad, width, kind),
            };
            let Some(kind) = kind else {
                self.text.push('%');
                break;
            };
            let lower = kind.to_ascii_lowercase();
            let arg = match lower {
                'd' | 'h' | 'x' | 'b' | 'c' | 't' => args.next(),
                _ => None,
            };
            let Some((arg, signed)) = arg else {
                self.text.push('%');
                self.text.push(kind);
                continue;
            };
            let width: usize = width.parse().unwrap_or(0);
            let fill = if zero_pad { '0' } else { ' ' };
            match lower {
                'd' => {
                    let w = default_dec_width(arg.width(), width, zero_pad);
                    let negative = signed && arg.bit(arg.width() - 1);
                    self.push_dec(arg, negative, w, fill);
                }
                't' => self.push_dec(arg, false, width, fill),
                'h' | 'x' => {
                    let digits = arg.width().div_ceil(4) as usize;
                    push_fill(&mut self.text, fill, width.saturating_sub(digits));
                    for d in (0..digits).rev() {
                        // Nibbles are 4-aligned, so none straddles a limb.
                        let bit = d as u32 * 4;
                        let nib = match arg {
                            Arg::Narrow(v, _) => v.checked_shr(bit).unwrap_or(0),
                            Arg::Wide(b) => {
                                let limb = b.limbs().get((bit / 64) as usize);
                                limb.copied().unwrap_or(0) >> (bit % 64)
                            }
                        };
                        self.text
                            .push(char::from(b"0123456789abcdef"[(nib & 0xF) as usize]));
                    }
                }
                'b' => {
                    let digits = arg.width();
                    push_fill(&mut self.text, fill, width.saturating_sub(digits as usize));
                    for i in (0..digits).rev() {
                        self.text.push(if arg.bit(i) { '1' } else { '0' });
                    }
                }
                _ => {
                    // `%c`: the low byte(s) as a character; width ignored.
                    self.text
                        .push(char::from_u32(arg.low_u64() as u32).unwrap_or('?'));
                }
            }
        }
        &self.text
    }

    /// Appends the decimal rendering of `arg` (its two's-complement
    /// negation behind a `-` when `negative`), left-padded with `fill` to
    /// `width` characters.
    fn push_dec(&mut self, arg: Arg<'_>, negative: bool, width: usize, fill: char) {
        let sign = usize::from(negative);
        let b = match arg {
            Arg::Wide(b) if b.width() > 64 => b,
            _ => {
                let (v, w) = (arg.low_u64(), arg.width());
                let mag = if negative { v.wrapping_neg() & mask(w) } else { v };
                push_fill(&mut self.text, fill, width.saturating_sub(sign + dec_len(mag)));
                if negative {
                    self.text.push('-');
                }
                push_u64(&mut self.text, mag, 0);
                return;
            }
        };
        let w = b.width();
        let n = (w as usize).div_ceil(64);
        self.limbs.clear();
        self.limbs.extend_from_slice(&b.limbs()[..n.min(b.limbs().len())]);
        self.limbs.resize(n, 0);
        if negative {
            // Two's complement at `w` bits: invert, add one, mask the top.
            let mut carry = true;
            for l in &mut self.limbs {
                let (sum, c) = (!*l).overflowing_add(u64::from(carry));
                *l = sum;
                carry = c;
            }
            if let Some(top) = self.limbs.last_mut() {
                *top &= mask(w - 64 * (n as u32 - 1));
            }
        }
        // Repeated division by 10^19 yields base-10^19 digits.
        self.chunks.clear();
        let mut len = n;
        while len > 0 && self.limbs[len - 1] == 0 {
            len -= 1;
        }
        while len > 0 {
            let mut rem = 0u128;
            for l in self.limbs[..len].iter_mut().rev() {
                let cur = (rem << 64) | u128::from(*l);
                *l = (cur / u128::from(CHUNK)) as u64;
                rem = cur % u128::from(CHUNK);
            }
            self.chunks.push(rem as u64);
            while len > 0 && self.limbs[len - 1] == 0 {
                len -= 1;
            }
        }
        let top = self.chunks.last().copied().unwrap_or(0);
        let digits = dec_len(top) + CHUNK_DIGITS * self.chunks.len().saturating_sub(1);
        push_fill(&mut self.text, fill, width.saturating_sub(sign + digits));
        if negative {
            self.text.push('-');
        }
        push_u64(&mut self.text, top, 0);
        for &c in self.chunks.iter().rev().skip(1) {
            push_u64(&mut self.text, c, CHUNK_DIGITS);
        }
    }
}

/// Bit mask covering a width of 1..=64 bits.
fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Decimal digit count of `v` (1 for zero).
fn dec_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

/// Appends `v` in decimal, zero-extended to at least `min_digits`.
fn push_u64(out: &mut String, mut v: u64, min_digits: usize) {
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    i = i.min(buf.len() - min_digits.min(buf.len()));
    for &d in &buf[i..] {
        out.push(char::from(d));
    }
}

fn push_fill(out: &mut String, fill: char, n: usize) {
    for _ in 0..n {
        out.push(fill);
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
    let mut chars = fmt.chars().peekable();
    let mut next_arg = 0usize;
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            out.push('%');
            continue;
        }
        // Optional zero flag and width digits.
        let mut zero_pad = false;
        let mut width = String::new();
        while let Some(&d) = chars.peek() {
            if d == '0' && width.is_empty() {
                zero_pad = true;
                chars.next();
            } else if d.is_ascii_digit() {
                width.push(d);
                chars.next();
            } else {
                break;
            }
        }
        let width: usize = width.parse().unwrap_or(0);
        let Some(kind) = chars.next() else {
            out.push('%');
            break;
        };
        let arg = args.get(next_arg);
        let rendered = match (kind.to_ascii_lowercase(), arg) {
            ('d', Some(v)) => {
                let signed = signs.get(next_arg).copied().unwrap_or(false);
                next_arg += 1;
                let s = dec_string(v, signed);
                pad(&s, default_dec_width(v.width(), width, zero_pad), zero_pad)
            }
            ('h' | 'x', Some(v)) => {
                next_arg += 1;
                pad(&v.to_hex_string(), width, zero_pad)
            }
            ('b', Some(v)) => {
                next_arg += 1;
                pad(&v.to_bin_string(), width, zero_pad)
            }
            ('c', Some(v)) => {
                next_arg += 1;
                char::from_u32(v.to_u64() as u32)
                    .unwrap_or('?')
                    .to_string()
            }
            ('t', Some(v)) => {
                next_arg += 1;
                pad(&v.to_dec_string(), width, zero_pad)
            }
            (_, _) => {
                out.push('%');
                out.push(kind);
                continue;
            }
        };
        out.push_str(&rendered);
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

    /// Every directive, every flag shape, signed and unsigned, against the
    /// reference renderer — narrow values through both argument forms.
    #[test]
    fn renderer_matches_reference() {
        let mut rng = hwdbg_bits::SplitMix64::new(0x5eed);
        let widths: Vec<u32> = (1..=64).chain([65, 127, 128, 200]).collect();
        let formats = [
            "%d", "%0d", "%5d", "%05d", "%h", "%x", "%b", "%c", "%t", "%5t", "%%",
            "%D|%H|%X|%B|%T", "a=%d b=%0h c=%b!", "%3h %08b %25d", "%q%d", "%5q",
            "%d %d %d", "tail %", "tail %05", "é%dé",
        ];
        let mut r = Renderer::default();
        for &w in &widths {
            let mut sign = Bits::zero(w);
            sign.set_bit(w - 1, true);
            let mut values = vec![Bits::zero(w), Bits::ones(w), sign];
            for _ in 0..8 {
                let mut v = Bits::zero(w);
                for i in 0..w {
                    v.set_bit(i, rng.next_bool());
                }
                values.push(v);
            }
            for v in &values {
                for signed in [false, true] {
                    for fmt in formats {
                        // Missing arguments: one value for a multi-argument
                        // format, and none at all.
                        for n in [0, 1, 2] {
                            let args: Vec<Bits> = std::iter::repeat_n(v.clone(), n).collect();
                            let signs = vec![signed; n];
                            let want = render_signed(fmt, &args, &signs);
                            let got = r.render(fmt, args.iter().map(|b| (Arg::Wide(b), signed)));
                            assert_eq!(got, want, "fmt {fmt:?} w {w} v {v:?} signed {signed}");
                            if w <= 64 {
                                let narrow = args.iter().map(|b| (Arg::Narrow(b.to_u64(), w), signed));
                                assert_eq!(r.render(fmt, narrow), want, "narrow {fmt:?} w {w}");
                            }
                        }
                    }
                }
            }
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
