//! Recursive-descent parser for the synthesizable Verilog subset.

use crate::ast::*;
use crate::span::{ParseError, Span};
use crate::token::{lex, Keyword as K, Tok, Token};
use hwdbg_bits::Bits;

/// The deepest nesting the parser accepts. Along any path down from a
/// module item, each of these is one level: a statement, an expression in
/// an operand or bracket position (a parenthesized one included), a unary
/// operator, and a binary operator in a chain (it pushes its left operand
/// one level down). Deeper source fails with E0102 at the token that
/// crosses the limit.
///
/// Every later stage walks the tree recursively, so this limit also
/// bounds their stack use. It was chosen by measurement: in an optimized
/// x86-64 build, the flow from parse through lint, compile, simulation
/// and all five tools first overflows a 2 MiB thread stack (the default
/// for a spawned thread) at 784 nested `begin` blocks, 1,314 `else if`
/// arms, 1,497 parentheses and 2,322 unary operators. 256 leaves at
/// least 3× of that headroom, and `tests/nesting_limit.rs` runs a design
/// at the limit in every shape on such a thread.
pub const MAX_NESTING: usize = 256;

/// Parses a source file containing one or more modules.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its source span.
pub fn parse(source: &str) -> Result<SourceFile, ParseError> {
    let mut p = Parser::new(lex(source)?);
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    Ok(SourceFile { modules })
}

/// Parses a single expression (used by tool configuration strings).
///
/// # Errors
///
/// Returns an error if the text is not a complete expression.
pub fn parse_expr(source: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(lex(source)?);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Nesting levels open at the current token (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    /// Consumes the current token and returns it. The token is moved out
    /// of the stream, not copied: the parser never backtracks, so nothing
    /// reads a consumed token again. The final `Eof` stays in place, and
    /// consuming it returns another `Eof`.
    fn bump(&mut self) -> Token {
        let span = self.toks[self.pos].span;
        if self.pos + 1 < self.toks.len() {
            let tok = std::mem::replace(&mut self.toks[self.pos].tok, Tok::Eof);
            self.pos += 1;
            Token { tok, span }
        } else {
            Token { tok: Tok::Eof, span }
        }
    }

    /// Consumes the current token and moves out its text: the name of an
    /// identifier or system task, a number's spelling, a string's
    /// contents. Callers check the token kind first; any other kind
    /// yields an empty string.
    fn bump_text(&mut self) -> String {
        match self.bump().tok {
            Tok::Ident(s) | Tok::SysName(s) | Tok::Number(s) | Tok::Str(s) => s,
            Tok::Keyword(_) | Tok::Punct(_) | Tok::Eof => String::new(),
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(msg, self.span()))
    }

    /// Opens one nesting level, or fails with E0102 at the current token
    /// if that would exceed [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError {
                too_deep: true,
                ..ParseError::new(
                    format!("nesting deeper than {MAX_NESTING} levels"),
                    self.span(),
                )
            });
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level down.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.descend()?;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<Span, ParseError> {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            Ok(self.bump().span)
        } else {
            self.err(format!("expected `{p}`, found {}", describe(self.peek())))
        }
    }

    fn eat_kw(&mut self, k: K) -> bool {
        if matches!(self.peek(), Tok::Keyword(q) if *q == k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, k: K) -> Result<Span, ParseError> {
        if matches!(self.peek(), Tok::Keyword(q) if *q == k) {
            Ok(self.bump().span)
        } else {
            self.err(format!(
                "expected `{}`, found {}",
                k.as_str(),
                describe(self.peek())
            ))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(_) => Ok(self.bump_text()),
            other => self.err(format!("expected identifier, found {}", describe(other))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            self.err(format!("unexpected {}", describe(self.peek())))
        }
    }

    // ---- modules -----------------------------------------------------

    fn module(&mut self) -> Result<Module, ParseError> {
        let start = self.expect_kw(K::Module)?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.eat_kw(K::Parameter);
                params.push(self.param_binding()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let mut ports = Vec::new();
        if self.eat_punct("(") {
            if !matches!(self.peek(), Tok::Punct(")")) {
                let mut last_dir = Dir::Input;
                let mut last_kind = NetKind::Wire;
                let mut last_signed = false;
                let mut last_range: Option<(Expr, Expr)> = None;
                loop {
                    let dir = match self.peek() {
                        Tok::Keyword(K::Input) => {
                            self.bump();
                            Some(Dir::Input)
                        }
                        Tok::Keyword(K::Output) => {
                            self.bump();
                            Some(Dir::Output)
                        }
                        Tok::Keyword(K::Inout) => {
                            self.bump();
                            Some(Dir::Inout)
                        }
                        _ => None,
                    };
                    if let Some(d) = dir {
                        last_dir = d;
                        last_kind = if self.eat_kw(K::Reg) {
                            NetKind::Reg
                        } else {
                            self.eat_kw(K::Wire);
                            NetKind::Wire
                        };
                        last_signed = self.eat_kw(K::Signed);
                        last_range = self.opt_range()?;
                    }
                    let span = self.span();
                    let pname = self.ident()?;
                    ports.push(Port {
                        dir: last_dir,
                        net: NetDecl {
                            kind: last_kind,
                            signed: last_signed,
                            range: last_range.clone(),
                            name: pname,
                            mem_dim: None,
                            span,
                        },
                    });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;
        let mut items = Vec::new();
        while !self.eat_kw(K::Endmodule) {
            if self.at_eof() {
                return self.err("unexpected end of input inside module");
            }
            items.push(self.item()?);
        }
        Ok(Module {
            name,
            params,
            ports,
            items,
            span: start,
        })
    }

    fn param_binding(&mut self) -> Result<Param, ParseError> {
        let span = self.span();
        let range = self.opt_range()?;
        let name = self.ident()?;
        self.expect_punct("=")?;
        let value = self.expr()?;
        Ok(Param {
            name,
            value,
            range,
            span,
        })
    }

    fn opt_range(&mut self) -> Result<Option<(Expr, Expr)>, ParseError> {
        if self.eat_punct("[") {
            let msb = self.expr()?;
            self.expect_punct(":")?;
            let lsb = self.expr()?;
            self.expect_punct("]")?;
            Ok(Some((msb, lsb)))
        } else {
            Ok(None)
        }
    }

    // ---- items -------------------------------------------------------

    fn item(&mut self) -> Result<Item, ParseError> {
        match self.peek() {
            Tok::Keyword(K::Wire) | Tok::Keyword(K::Reg) | Tok::Keyword(K::Integer) => {
                self.net_item()
            }
            Tok::Keyword(K::Parameter) => {
                self.bump();
                let p = self.param_binding()?;
                self.expect_punct(";")?;
                Ok(Item::Param(p))
            }
            Tok::Keyword(K::Localparam) => {
                self.bump();
                let p = self.param_binding()?;
                self.expect_punct(";")?;
                Ok(Item::Localparam(p))
            }
            Tok::Keyword(K::Assign) => {
                let span = self.bump().span;
                let lhs = self.lvalue()?;
                self.expect_punct("=")?;
                let rhs = self.expr()?;
                self.expect_punct(";")?;
                Ok(Item::Assign { lhs, rhs, span })
            }
            Tok::Keyword(K::Always) => {
                let span = self.bump().span;
                self.expect_punct("@")?;
                let event = self.event_control()?;
                let body = self.stmt()?;
                Ok(Item::Always { event, body, span })
            }
            Tok::Ident(_) => self.instance(),
            other => self.err(format!("expected module item, found {}", describe(other))),
        }
    }

    fn net_item(&mut self) -> Result<Item, ParseError> {
        // `integer x;` is sugar for a signed 32-bit reg.
        if self.eat_kw(K::Integer) {
            let span = self.span();
            let name = self.ident()?;
            self.expect_punct(";")?;
            return Ok(Item::Net(NetDecl {
                kind: NetKind::Reg,
                signed: true,
                range: Some((Expr::number(31), Expr::number(0))),
                name,
                mem_dim: None,
                span,
            }));
        }
        let kind = if self.eat_kw(K::Reg) {
            NetKind::Reg
        } else {
            self.expect_kw(K::Wire)?;
            NetKind::Wire
        };
        let signed = self.eat_kw(K::Signed);
        let range = self.opt_range()?;
        let span = self.span();
        let name = self.ident()?;
        let mem_dim = if self.eat_punct("[") {
            let lo = self.expr()?;
            self.expect_punct(":")?;
            let hi = self.expr()?;
            self.expect_punct("]")?;
            Some((lo, hi))
        } else {
            None
        };
        // Multiple declarators share one statement: split into extra items
        // is awkward from a single return, so we only allow one name per
        // declaration when a memory dimension is present.
        if matches!(self.peek(), Tok::Punct(",")) {
            if mem_dim.is_some() {
                return self.err("memory declarations must declare one name each");
            }
            // Desugar `wire a, b;` by rewriting the token stream is not
            // possible here; instead we return the first and let the caller
            // loop — so we implement the loop inline via a Concat-like item.
            // Simpler: collect all names now and emit a Net for the first,
            // pushing the rest back as pending items.
            let mut extra = Vec::new();
            while self.eat_punct(",") {
                let sp = self.span();
                let n = self.ident()?;
                extra.push(NetDecl {
                    kind,
                    signed,
                    range: range.clone(),
                    name: n,
                    mem_dim: None,
                    span: sp,
                });
            }
            self.expect_punct(";")?;
            // Splice the extra declarations into the token-free pending list
            // by storing them for the caller; we model this with a small
            // queue inside the parser.
            let first = NetDecl {
                kind,
                signed,
                range,
                name,
                mem_dim: None,
                span,
            };
            self.pending_nets(extra);
            return Ok(Item::Net(first));
        }
        self.expect_punct(";")?;
        Ok(Item::Net(NetDecl {
            kind,
            signed,
            range,
            name,
            mem_dim,
            span,
        }))
    }

    fn pending_nets(&mut self, extra: Vec<NetDecl>) {
        // Re-inject synthetic tokens equivalent to the remaining
        // declarations so the main loop picks them up naturally.
        let mut synth = Vec::new();
        for d in extra {
            synth.push(Token {
                tok: Tok::Keyword(match d.kind {
                    NetKind::Wire => K::Wire,
                    NetKind::Reg => K::Reg,
                }),
                span: d.span,
            });
            if d.signed {
                synth.push(Token {
                    tok: Tok::Keyword(K::Signed),
                    span: d.span,
                });
            }
            if let Some((msb, lsb)) = &d.range {
                synth.push(Token {
                    tok: Tok::Punct("["),
                    span: d.span,
                });
                synth.extend(expr_tokens(msb, d.span));
                synth.push(Token {
                    tok: Tok::Punct(":"),
                    span: d.span,
                });
                synth.extend(expr_tokens(lsb, d.span));
                synth.push(Token {
                    tok: Tok::Punct("]"),
                    span: d.span,
                });
            }
            synth.push(Token {
                tok: Tok::Ident(d.name),
                span: d.span,
            });
            synth.push(Token {
                tok: Tok::Punct(";"),
                span: d.span,
            });
        }
        self.toks.splice(self.pos..self.pos, synth);
    }

    fn instance(&mut self) -> Result<Item, ParseError> {
        let span = self.span();
        let module = self.ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_punct(".")?;
                let name = self.ident()?;
                self.expect_punct("(")?;
                let value = self.expr()?;
                self.expect_punct(")")?;
                params.push((name, value));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut conns = Vec::new();
        if !matches!(self.peek(), Tok::Punct(")")) {
            loop {
                self.expect_punct(".")?;
                let port = self.ident()?;
                self.expect_punct("(")?;
                let expr = if matches!(self.peek(), Tok::Punct(")")) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(")")?;
                conns.push((port, expr));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        Ok(Item::Instance(Instance {
            module,
            name,
            params,
            conns,
            span,
        }))
    }

    fn event_control(&mut self) -> Result<EventControl, ParseError> {
        if self.eat_punct("*") {
            return Ok(EventControl::Comb);
        }
        self.expect_punct("(")?;
        if self.eat_punct("*") {
            self.expect_punct(")")?;
            return Ok(EventControl::Comb);
        }
        let mut edges = Vec::new();
        loop {
            let posedge = if self.eat_kw(K::Posedge) {
                true
            } else if self.eat_kw(K::Negedge) {
                false
            } else {
                return self.err("expected `posedge`, `negedge`, or `*` in sensitivity list");
            };
            let signal = self.ident()?;
            edges.push(Edge { posedge, signal });
            if self.eat_kw(K::Or) || self.eat_punct(",") {
                continue;
            }
            break;
        }
        self.expect_punct(")")?;
        Ok(EventControl::Edges(edges))
    }

    // ---- statements ----------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Tok::Keyword(K::Begin) => {
                self.bump();
                // optional block label `begin : name`
                if self.eat_punct(":") {
                    self.ident()?;
                }
                let mut stmts = Vec::new();
                while !self.eat_kw(K::End) {
                    if self.at_eof() {
                        return self.err("unexpected end of input inside `begin` block");
                    }
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Tok::Keyword(K::If) => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat_kw(K::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::Keyword(K::Case) | Tok::Keyword(K::Casez) => {
                let span = self.span();
                let kind = if self.eat_kw(K::Case) {
                    CaseKind::Case
                } else {
                    self.expect_kw(K::Casez)?;
                    CaseKind::Casez
                };
                self.expect_punct("(")?;
                let expr = self.expr()?;
                self.expect_punct(")")?;
                let mut arms = Vec::new();
                let mut default = None;
                while !self.eat_kw(K::Endcase) {
                    if self.at_eof() {
                        return self.err("unexpected end of input inside `case`");
                    }
                    if self.eat_kw(K::Default) {
                        self.eat_punct(":");
                        default = Some(Box::new(self.stmt()?));
                        continue;
                    }
                    let mut labels = vec![self.expr()?];
                    while self.eat_punct(",") {
                        labels.push(self.expr()?);
                    }
                    self.expect_punct(":")?;
                    let body = self.stmt()?;
                    arms.push(CaseArm { labels, body });
                }
                Ok(Stmt::Case {
                    kind,
                    expr,
                    arms,
                    default,
                    span,
                })
            }
            Tok::Keyword(K::For) => {
                self.bump();
                self.expect_punct("(")?;
                let var = self.ident()?;
                self.expect_punct("=")?;
                let init = self.expr()?;
                self.expect_punct(";")?;
                let cond = self.expr()?;
                self.expect_punct(";")?;
                let var2 = self.ident()?;
                if var2 != var {
                    return self.err("for-loop step must assign the loop variable");
                }
                self.expect_punct("=")?;
                let step = self.expr()?;
                self.expect_punct(")")?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    var,
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::SysName(_) => {
                let span = self.span();
                let name = self.bump_text();
                match name.as_str() {
                    "$display" | "$write" => {
                        self.expect_punct("(")?;
                        let format = match self.peek() {
                            Tok::Str(_) => self.bump_text(),
                            other => {
                                return self.err(format!(
                                    "expected format string, found {}",
                                    describe(other)
                                ))
                            }
                        };
                        let mut args = Vec::new();
                        while self.eat_punct(",") {
                            args.push(self.expr()?);
                        }
                        self.expect_punct(")")?;
                        self.expect_punct(";")?;
                        Ok(Stmt::Display { format, args, span })
                    }
                    "$finish" | "$stop" => {
                        if self.eat_punct("(") {
                            if !matches!(self.peek(), Tok::Punct(")")) {
                                self.expr()?;
                            }
                            self.expect_punct(")")?;
                        }
                        self.expect_punct(";")?;
                        Ok(Stmt::Finish)
                    }
                    other => self.err(format!("unsupported system task `{other}`")),
                }
            }
            Tok::Punct(";") => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::Ident(_) | Tok::Punct("{") => {
                let span = self.span();
                let lhs = self.lvalue()?;
                let nonblocking = if self.eat_punct("<=") {
                    true
                } else {
                    self.expect_punct("=")?;
                    false
                };
                let rhs = self.expr()?;
                self.expect_punct(";")?;
                Ok(Stmt::Assign {
                    lhs,
                    nonblocking,
                    rhs,
                    span,
                })
            }
            other => self.err(format!("expected statement, found {}", describe(other))),
        }
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        if self.eat_punct("{") {
            let mut parts = vec![self.nested(Self::lvalue)?];
            while self.eat_punct(",") {
                parts.push(self.nested(Self::lvalue)?);
            }
            self.expect_punct("}")?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.ident()?;
        if self.eat_punct("[") {
            let first = self.expr()?;
            if self.eat_punct(":") {
                let lsb = self.expr()?;
                self.expect_punct("]")?;
                return Ok(LValue::Range(name, first, lsb));
            }
            self.expect_punct("]")?;
            return Ok(LValue::Index(name, first));
        }
        Ok(LValue::Id(name))
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::expr_inner)
    }

    fn expr_inner(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let t = self.expr()?;
            self.expect_punct(":")?;
            let f = self.expr()?;
            return Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)));
        }
        Ok(cond)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.peek_binop() {
            if prec < min_prec {
                break;
            }
            // A chain `a + b + c` nests leftwards: each operator is a level.
            self.descend()?;
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn peek_binop(&self) -> Option<(BinaryOp, u8)> {
        let p = match self.peek() {
            Tok::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            "||" => (BinaryOp::LogOr, 1),
            "&&" => (BinaryOp::LogAnd, 2),
            "|" => (BinaryOp::Or, 3),
            "^" => (BinaryOp::Xor, 4),
            "~^" | "^~" => (BinaryOp::Xnor, 4),
            "&" => (BinaryOp::And, 5),
            "==" => (BinaryOp::Eq, 6),
            "!=" => (BinaryOp::Ne, 6),
            "<" => (BinaryOp::Lt, 7),
            "<=" => (BinaryOp::Le, 7),
            ">" => (BinaryOp::Gt, 7),
            ">=" => (BinaryOp::Ge, 7),
            "<<" => (BinaryOp::Shl, 8),
            ">>" => (BinaryOp::Shr, 8),
            ">>>" => (BinaryOp::AShr, 8),
            "+" => (BinaryOp::Add, 9),
            "-" => (BinaryOp::Sub, 9),
            "*" => (BinaryOp::Mul, 10),
            "/" => (BinaryOp::Div, 10),
            "%" => (BinaryOp::Mod, 10),
            _ => return None,
        })
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Tok::Punct("~") => Some(UnaryOp::Not),
            Tok::Punct("!") => Some(UnaryOp::LogNot),
            Tok::Punct("-") => Some(UnaryOp::Neg),
            Tok::Punct("&") => Some(UnaryOp::RedAnd),
            Tok::Punct("|") => Some(UnaryOp::RedOr),
            Tok::Punct("^") => Some(UnaryOp::RedXor),
            Tok::Punct("~^") | Tok::Punct("^~") => Some(UnaryOp::RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Unary(op, Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Number(_) => {
                let text = self.bump_text();
                // Width cast `W'(expr)` — the lexer leaves `W` bare when `'`
                // is followed by `(`.
                if matches!(self.peek(), Tok::Punct("'")) && matches!(self.peek2(), Tok::Punct("("))
                {
                    self.bump(); // '
                    self.bump(); // (
                    let inner = self.expr()?;
                    self.expect_punct(")")?;
                    let width: u32 = text
                        .parse()
                        .map_err(|_| ParseError::new("bad cast width", self.span()))?;
                    if width == 0 {
                        return self.err("cast width must be positive");
                    }
                    return Ok(Expr::WidthCast(width, Box::new(inner)));
                }
                let value = Bits::parse_literal(&text)
                    .map_err(|e| ParseError::new(e.to_string(), self.span()))?;
                // Unsized decimals are signed; a based literal only with
                // an `s` (IEEE 1364-2005 §3.5.1).
                let signed = match text.split_once('\'') {
                    None => true,
                    Some((_, base)) => base.starts_with(['s', 'S']),
                };
                Ok(Expr::Literal { value, signed })
            }
            Tok::Ident(_) => {
                let name = self.bump_text();
                if self.eat_punct("[") {
                    let first = self.expr()?;
                    if self.eat_punct(":") {
                        let lsb = self.expr()?;
                        self.expect_punct("]")?;
                        return Ok(Expr::Range(name, Box::new(first), Box::new(lsb)));
                    }
                    self.expect_punct("]")?;
                    return Ok(Expr::Index(name, Box::new(first)));
                }
                Ok(Expr::Ident(name))
            }
            Tok::SysName(_) => {
                let sys = self.bump_text();
                match sys.as_str() {
                    "$signed" | "$unsigned" => {
                        self.expect_punct("(")?;
                        let e = self.expr()?;
                        self.expect_punct(")")?;
                        Ok(Expr::SignCast(sys == "$signed", Box::new(e)))
                    }
                    other => self.err(format!("unsupported system function `{other}`")),
                }
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("{") => {
                self.bump();
                let first = self.expr()?;
                // Replication `{n{expr}}`.
                if self.eat_punct("{") {
                    let body = self.expr()?;
                    self.expect_punct("}")?;
                    self.expect_punct("}")?;
                    return Ok(Expr::Repeat(Box::new(first), Box::new(body)));
                }
                let mut parts = vec![first];
                while self.eat_punct(",") {
                    parts.push(self.expr()?);
                }
                self.expect_punct("}")?;
                Ok(Expr::Concat(parts))
            }
            other => self.err(format!("expected expression, found {}", describe(other))),
        }
    }
}

fn describe(t: &Tok) -> String {
    match t {
        Tok::Ident(n) => format!("identifier `{n}`"),
        Tok::SysName(n) => format!("`{n}`"),
        Tok::Number(n) => format!("number `{n}`"),
        Tok::Str(_) => "string literal".into(),
        Tok::Keyword(k) => format!("keyword `{}`", k.as_str()),
        Tok::Punct(p) => format!("`{p}`"),
        Tok::Eof => "end of input".into(),
    }
}

/// Renders an already-parsed expression back into tokens for the
/// multi-declarator desugaring path. Only literals and identifiers appear in
/// declaration ranges in practice; other shapes fall back to a parenthesized
/// reprint via the pretty-printer.
fn expr_tokens(e: &Expr, span: Span) -> Vec<Token> {
    let text = crate::printer::print_expr(e);
    // Lexing a printed expression cannot fail: the printer emits only tokens
    // the lexer accepts.
    #[allow(clippy::expect_used)]
    let mut toks = lex(&text).expect("printed expression must re-lex");
    toks.pop(); // drop EOF
    for t in &mut toks {
        t.span = span;
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_module() {
        let f = parse("module m(input clk, output reg [7:0] q); endmodule").unwrap();
        assert_eq!(f.modules.len(), 1);
        let m = &f.modules[0];
        assert_eq!(m.name, "m");
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.ports[1].net.kind, NetKind::Reg);
    }

    #[test]
    fn parse_port_direction_carryover() {
        let f = parse("module m(input a, b, output c); endmodule").unwrap();
        let m = &f.modules[0];
        assert_eq!(m.ports[1].dir, Dir::Input);
        assert_eq!(m.ports[2].dir, Dir::Output);
    }

    #[test]
    fn parse_params_and_localparam() {
        let src = "module m #(parameter W = 8, parameter D = 16)(input clk);
            localparam IDLE = 2'd0;
            endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        assert_eq!(m.params.len(), 2);
        assert!(m.param("IDLE").is_some());
    }

    #[test]
    fn parse_multi_declarator() {
        let src = "module m; wire [3:0] a, b, c; reg x, y; endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        let nets: Vec<_> = m.nets().map(|n| n.name.clone()).collect();
        assert_eq!(nets, vec!["a", "b", "c", "x", "y"]);
        assert!(m.nets().find(|n| n.name == "b").unwrap().range.is_some());
        assert!(m.nets().find(|n| n.name == "y").unwrap().range.is_none());
    }

    #[test]
    fn parse_memory_decl() {
        let src = "module m; reg [7:0] mem [0:255]; endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        assert!(m.nets().find(|n| n.name == "mem").unwrap().mem_dim.is_some());
    }

    #[test]
    fn parse_always_and_case() {
        let src = "module m(input clk);
            reg [1:0] state;
            always @(posedge clk) begin
              case (state)
                2'd0: state <= 2'd1;
                2'd1, 2'd2: state <= 2'd0;
                default: state <= 2'd0;
              endcase
            end
            endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        let Item::Always { event, body, .. } = &m.items[1] else {
            panic!("expected always");
        };
        assert_eq!(
            event,
            &EventControl::Edges(vec![Edge {
                posedge: true,
                signal: "clk".into()
            }])
        );
        let Stmt::Block(stmts) = body else {
            panic!("expected block")
        };
        let Stmt::Case { arms, default, .. } = &stmts[0] else {
            panic!("expected case")
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].labels.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn parse_expressions_precedence() {
        let e = parse_expr("a + b * c").unwrap();
        assert_eq!(
            e,
            Expr::add(
                Expr::ident("a"),
                Expr::Binary(
                    BinaryOp::Mul,
                    Box::new(Expr::ident("b")),
                    Box::new(Expr::ident("c"))
                )
            )
        );
        let e = parse_expr("a == b && c || d").unwrap();
        let Expr::Binary(BinaryOp::LogOr, _, _) = e else {
            panic!("|| should be outermost: {e:?}");
        };
    }

    #[test]
    fn parse_ternary_and_concat() {
        let e = parse_expr("sel ? {a, 2'b01} : {4{b}}").unwrap();
        let Expr::Ternary(_, t, f) = e else {
            panic!()
        };
        assert!(matches!(*t, Expr::Concat(_)));
        assert!(matches!(*f, Expr::Repeat(_, _)));
    }

    #[test]
    fn parse_width_cast() {
        let e = parse_expr("42'(right) >> 6").unwrap();
        let Expr::Binary(BinaryOp::Shr, l, _) = e else {
            panic!()
        };
        assert_eq!(*l, Expr::WidthCast(42, Box::new(Expr::ident("right"))));
    }

    #[test]
    fn parse_le_vs_nonblocking() {
        // `<=` is less-equal inside expressions...
        let e = parse_expr("a <= b").unwrap();
        assert!(matches!(e, Expr::Binary(BinaryOp::Le, _, _)));
        // ...and nonblocking assignment in statement position.
        let src = "module m(input clk); reg x;
            always @(posedge clk) x <= 1'b1;
            endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        let Item::Always { body, .. } = &m.items[1] else {
            panic!()
        };
        assert!(matches!(
            body,
            Stmt::Assign {
                nonblocking: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_display_and_finish() {
        let src = r#"module m(input clk);
            always @(posedge clk) begin
              $display("x=%d y=%h", x, y);
              $finish;
            end
            endmodule"#;
        let m = parse(src).unwrap().modules.remove(0);
        let Item::Always { body, .. } = &m.items[0] else {
            panic!()
        };
        let Stmt::Block(stmts) = body else { panic!() };
        assert!(matches!(&stmts[0], Stmt::Display { args, .. } if args.len() == 2));
        assert!(matches!(&stmts[1], Stmt::Finish));
    }

    #[test]
    fn parse_instance() {
        let src = "module top(input clk);
            wire [7:0] q;
            fifo #(.DEPTH(16), .W(8)) f0 (.clk(clk), .din(8'h00), .dout(q), .full());
            endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        let Item::Instance(inst) = &m.items[1] else {
            panic!()
        };
        assert_eq!(inst.module, "fifo");
        assert_eq!(inst.params.len(), 2);
        assert_eq!(inst.conns.len(), 4);
        assert!(inst.conns[3].1.is_none());
    }

    #[test]
    fn parse_for_loop() {
        let src = "module m(input clk);
            reg [7:0] acc;
            integer i;
            always @(posedge clk) begin
              for (i = 0; i < 4; i = i + 1) acc = acc + 1;
            end
            endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        let Item::Always { body, .. } = &m.items[2] else {
            panic!()
        };
        let Stmt::Block(stmts) = body else { panic!() };
        assert!(matches!(&stmts[0], Stmt::For { .. }));
    }

    #[test]
    fn parse_errors_have_spans() {
        let err = parse("module m(input clk) endmodule").unwrap_err();
        assert!(err.span.start > 0);
        assert!(parse("module m; garbage!!! endmodule").is_err());
        assert!(parse("module m; wire w endmodule").is_err());
    }

    #[test]
    fn parse_multiple_edges() {
        let src = "module m(input clk, input rst_n); reg q;
            always @(posedge clk or negedge rst_n) q <= 1'b0;
            endmodule";
        let m = parse(src).unwrap().modules.remove(0);
        let Item::Always { event, .. } = &m.items[1] else {
            panic!()
        };
        let EventControl::Edges(edges) = event else {
            panic!()
        };
        assert_eq!(edges.len(), 2);
        assert!(!edges[1].posedge);
    }
}
