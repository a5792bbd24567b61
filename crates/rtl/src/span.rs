//! Byte-offset source spans and human-readable diagnostics.

use std::fmt;

/// A half-open byte range into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-length span used for synthesized (tool-generated) nodes.
    pub fn synthetic() -> Self {
        Span { start: 0, end: 0 }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Computes the 1-based `(line, column)` of the span start in `source`.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in source.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// An error produced by the lexer or parser, with location info.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
    /// Whether the source nests deeper than
    /// [`MAX_NESTING`](crate::parser::MAX_NESTING) (E0102) rather than
    /// breaking the grammar (E0101).
    pub too_deep: bool,
}

impl ParseError {
    /// Creates a new parse error.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
            too_deep: false,
        }
    }

    /// Renders the error with line/column and a source excerpt.
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.span.line_col(source);
        let line_text = source.lines().nth(line - 1).unwrap_or("");
        format!(
            "parse error at line {line}, column {col}: {}\n  {line_text}\n  {}^",
            self.message,
            " ".repeat(col.saturating_sub(1))
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at bytes {}..{}: {}",
            self.span.start, self.span.end, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_basic() {
        let src = "abc\ndef\nghi";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(5, 6).line_col(src), (2, 2));
        assert_eq!(Span::new(10, 11).line_col(src), (3, 3));
    }

    #[test]
    fn merge_spans() {
        assert_eq!(Span::new(3, 5).merge(Span::new(1, 4)), Span::new(1, 5));
    }

    #[test]
    fn render_points_at_column() {
        let src = "module m;\nwire x\nendmodule";
        let err = ParseError::new("expected `;`", Span::new(15, 16));
        let rendered = err.render(src);
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("wire x"), "{rendered}");
    }
}
