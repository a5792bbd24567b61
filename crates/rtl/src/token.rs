//! Lexer for the synthesizable Verilog subset.

use crate::span::{ParseError, Span};

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier such as `counter` or an escaped name.
    Ident(String),
    /// A system task/function name including the `$`, e.g. `$display`.
    SysName(String),
    /// A numeric literal in its original spelling, e.g. `8'hFF` or `42`.
    Number(String),
    /// A string literal without the surrounding quotes.
    Str(String),
    /// A keyword such as `module` or `always`.
    Keyword(Keyword),
    /// Punctuation or an operator, e.g. `<=` or `(`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// Reserved words recognized by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Parameter,
    Localparam,
    Assign,
    Always,
    Posedge,
    Negedge,
    Or,
    If,
    Else,
    Case,
    Casez,
    Endcase,
    Default,
    Begin,
    End,
    For,
    Signed,
    Initial,
    Genvar,
    Generate,
    Endgenerate,
    Function,
    Endfunction,
}

impl Keyword {
    /// The textual spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Module => "module",
            Endmodule => "endmodule",
            Input => "input",
            Output => "output",
            Inout => "inout",
            Wire => "wire",
            Reg => "reg",
            Integer => "integer",
            Parameter => "parameter",
            Localparam => "localparam",
            Assign => "assign",
            Always => "always",
            Posedge => "posedge",
            Negedge => "negedge",
            Or => "or",
            If => "if",
            Else => "else",
            Case => "case",
            Casez => "casez",
            Endcase => "endcase",
            Default => "default",
            Begin => "begin",
            End => "end",
            For => "for",
            Signed => "signed",
            Initial => "initial",
            Genvar => "genvar",
            Generate => "generate",
            Endgenerate => "endgenerate",
            Function => "function",
            Endfunction => "endfunction",
        }
    }

    fn lookup(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "module" => Module,
            "endmodule" => Endmodule,
            "input" => Input,
            "output" => Output,
            "inout" => Inout,
            "wire" => Wire,
            "reg" => Reg,
            "integer" => Integer,
            "parameter" => Parameter,
            "localparam" => Localparam,
            "assign" => Assign,
            "always" => Always,
            "posedge" => Posedge,
            "negedge" => Negedge,
            "or" => Or,
            "if" => If,
            "else" => Else,
            "case" => Case,
            "casez" => Casez,
            "endcase" => Endcase,
            "default" => Default,
            "begin" => Begin,
            "end" => End,
            "for" => For,
            "signed" => Signed,
            "initial" => Initial,
            "genvar" => Genvar,
            "generate" => Generate,
            "endgenerate" => Endgenerate,
            "function" => Function,
            "endfunction" => Endfunction,
            _ => return None,
        })
    }
}

/// A token paired with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind/payload.
    pub tok: Tok,
    /// Location in the source text.
    pub span: Span,
}

/// The punctuation and operators that start with byte `first`, longest
/// first so greedy matching works; empty for a byte no token starts with.
fn puncts(first: u8) -> &'static [&'static str] {
    match first {
        b'<' => &["<<<", "<=", "<<", "<"],
        b'>' => &[">>>", ">=", ">>", ">"],
        b'=' => &["===", "==", "="],
        b'!' => &["!==", "!=", "!"],
        b'&' => &["&&", "&"],
        b'|' => &["||", "|"],
        b'~' => &["~^", "~"],
        b'^' => &["^~", "^"],
        b'+' => &["+:", "+"],
        b'-' => &["-:", "-"],
        b'(' => &["("],
        b')' => &[")"],
        b'[' => &["["],
        b']' => &["]"],
        b'{' => &["{"],
        b'}' => &["}"],
        b';' => &[";"],
        b',' => &[","],
        b'.' => &["."],
        b':' => &[":"],
        b'?' => &["?"],
        b'*' => &["*"],
        b'/' => &["/"],
        b'%' => &["%"],
        b'#' => &["#"],
        b'@' => &["@"],
        b'\'' => &["'"],
        _ => &[],
    }
}

/// Tokenizes `source`, returning the token stream terminated by [`Tok::Eof`].
///
/// # Errors
///
/// Returns a [`ParseError`] on unterminated comments/strings or characters
/// outside the language.
pub fn lex(source: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(ParseError::new(
                            "unterminated block comment",
                            Span::new(start, bytes.len()),
                        ));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
        }
        // Compiler directives like `timescale — skip to end of line.
        if c == '`' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // String literal. Its text is copied as UTF-8: only the ASCII `"`
        // and `\` end a run of plain characters, so every run is whole.
        if c == '"' {
            let start = i;
            i += 1;
            let mut s = String::new();
            let mut run = i;
            loop {
                if i >= bytes.len() {
                    return Err(ParseError::new(
                        "unterminated string literal",
                        Span::new(start, bytes.len()),
                    ));
                }
                match bytes[i] {
                    b'"' => {
                        s.push_str(&source[run..i]);
                        i += 1;
                        break;
                    }
                    b'\\' if i + 1 < bytes.len() => {
                        s.push_str(&source[run..i]);
                        let esc = source[i + 1..].chars().next().unwrap_or('\\');
                        s.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                        i += 1 + esc.len_utf8();
                        run = i;
                    }
                    _ => i += 1,
                }
            }
            toks.push(Token {
                tok: Tok::Str(s),
                span: Span::new(start, i),
            });
            continue;
        }
        // Number (possibly based: `8'hFF`, `'b1010`, signed `8'sd3`). A `'`
        // NOT followed by a base character (after an optional `s`) is left
        // as punctuation so width casts like `42'(expr)` lex as
        // Number("42"), Punct("'"), Punct("(").
        let is_base = |j: usize| {
            matches!(bytes.get(j).map(u8::to_ascii_lowercase), Some(b'b' | b'o' | b'd' | b'h'))
        };
        let signed_at = |j: usize| usize::from(matches!(bytes.get(j), Some(b's' | b'S')));
        let is_based_tick = |j: usize| -> bool {
            bytes.get(j) == Some(&b'\'') && is_base(j + 1 + signed_at(j + 1))
        };
        if c.is_ascii_digit() || is_based_tick(i) {
            let start = i;
            let mut text = String::new();
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                text.push(bytes[i] as char);
                i += 1;
            }
            // Optional based part. Allow whitespace between size and base.
            let mut j = i;
            while j < bytes.len() && (bytes[j] as char).is_ascii_whitespace() {
                j += 1;
            }
            if is_based_tick(j) {
                i = j + 1;
                text.push('\'');
                for _ in 0..=signed_at(i) {
                    text.push(bytes[i] as char);
                    i += 1;
                }
                let mut any_digit = false;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    text.push(bytes[i] as char);
                    i += 1;
                    any_digit = true;
                }
                if !any_digit {
                    return Err(ParseError::new(
                        "missing digits after base character",
                        Span::new(start, i),
                    ));
                }
            }
            toks.push(Token {
                tok: Tok::Number(text),
                span: Span::new(start, i),
            });
            continue;
        }
        // Identifier / keyword / system name
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let start = i;
            let is_sys = c == '$';
            i += 1;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
            {
                i += 1;
            }
            let text = &source[start..i];
            let tok = if is_sys {
                Tok::SysName(text.to_owned())
            } else if let Some(kw) = Keyword::lookup(text) {
                Tok::Keyword(kw)
            } else {
                Tok::Ident(text.to_owned())
            };
            toks.push(Token {
                tok,
                span: Span::new(start, i),
            });
            continue;
        }
        // Punctuation
        let rest = &bytes[i..];
        let Some(p) = puncts(bytes[i]).iter().find(|p| rest.starts_with(p.as_bytes())) else {
            // Name the whole character: `i` is on a character boundary,
            // since everything before it lexed as ASCII tokens, comments
            // or strings.
            let ch = source.get(i..).and_then(|r| r.chars().next()).unwrap_or(c);
            return Err(ParseError::new(
                format!("unexpected character `{ch}`"),
                Span::new(i, i + ch.len_utf8()),
            ));
        };
        toks.push(Token {
            tok: Tok::Punct(p),
            span: Span::new(i, i + p.len()),
        });
        i += p.len();
    }
    toks.push(Token {
        tok: Tok::Eof,
        span: Span::new(bytes.len(), bytes.len()),
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lex_module_header() {
        let toks = kinds("module m(input clk);endmodule");
        assert_eq!(toks[0], Tok::Keyword(Keyword::Module));
        assert_eq!(toks[1], Tok::Ident("m".into()));
        assert_eq!(toks[2], Tok::Punct("("));
        assert_eq!(toks[3], Tok::Keyword(Keyword::Input));
    }

    #[test]
    fn lex_based_number() {
        assert_eq!(kinds("8'hFF")[0], Tok::Number("8'hFF".into()));
        assert_eq!(kinds("'b1010")[0], Tok::Number("'b1010".into()));
        assert_eq!(kinds("4 'd9")[0], Tok::Number("4'd9".into()));
        assert_eq!(kinds("12_3")[0], Tok::Number("12_3".into()));
        assert_eq!(kinds("8'sd3")[0], Tok::Number("8'sd3".into()));
        assert_eq!(kinds("4 'Sb1010")[0], Tok::Number("4'Sb1010".into()));
        // `s` alone is no base: `'` stays punctuation.
        assert_eq!(kinds("8's")[1], Tok::Punct("'"));
    }

    #[test]
    fn lex_operators_longest_match() {
        assert_eq!(kinds("a <= b")[1], Tok::Punct("<="));
        assert_eq!(kinds("a >>> 2")[1], Tok::Punct(">>>"));
        assert_eq!(kinds("a ~^ b")[1], Tok::Punct("~^"));
        assert_eq!(kinds("a < = b")[1], Tok::Punct("<"));
    }

    #[test]
    fn lex_comments_skipped() {
        let toks = kinds("a // line\n/* block\nmore */ b");
        assert_eq!(toks[0], Tok::Ident("a".into()));
        assert_eq!(toks[1], Tok::Ident("b".into()));
    }

    #[test]
    fn lex_string_escapes() {
        assert_eq!(
            kinds("\"hi\\nthere\"")[0],
            Tok::Str("hi\nthere".into())
        );
    }

    #[test]
    fn lex_sysname() {
        assert_eq!(kinds("$display")[0], Tok::SysName("$display".into()));
    }

    #[test]
    fn lex_directive_skipped() {
        let toks = kinds("`timescale 1ns/1ps\nmodule");
        assert_eq!(toks[0], Tok::Keyword(Keyword::Module));
    }

    #[test]
    fn lex_errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
    }

    #[test]
    fn lex_width_cast_shape() {
        // `8'q0` is not a based literal: `'` stays punctuation.
        let toks = kinds("8'q0");
        assert_eq!(toks[0], Tok::Number("8".into()));
        assert_eq!(toks[1], Tok::Punct("'"));
        // Width-cast shape.
        let toks = kinds("42'(right)");
        assert_eq!(toks[0], Tok::Number("42".into()));
        assert_eq!(toks[1], Tok::Punct("'"));
        assert_eq!(toks[2], Tok::Punct("("));
    }
}
