//! Abstract syntax tree for the synthesizable Verilog subset.
//!
//! The AST is the exchange format between the parser, the elaborator, and
//! the instrumentation passes of the debugging tools: tools read designs as
//! ASTs, splice in new declarations/statements, and print the result back to
//! Verilog text (mirroring the paper's Pyverilog-pass architecture).

use crate::span::Span;
use hwdbg_bits::Bits;

/// A parsed source file: one or more module definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceFile {
    /// Modules in source order.
    pub modules: Vec<Module>,
}

impl SourceFile {
    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// A `module ... endmodule` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Header parameters (`#(parameter W = 8, ...)`).
    pub params: Vec<Param>,
    /// ANSI-style port list.
    pub ports: Vec<Port>,
    /// Body items in source order.
    pub items: Vec<Item>,
    /// Source location of the header.
    pub span: Span,
}

impl Module {
    /// Iterates over all net declarations, both ports and body items.
    pub fn nets(&self) -> impl Iterator<Item = &NetDecl> {
        self.ports
            .iter()
            .map(|p| &p.net)
            .chain(self.items.iter().filter_map(|i| match i {
                Item::Net(n) => Some(n),
                _ => None,
            }))
    }

    /// Looks up a parameter or localparam by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name).or_else(|| {
            self.items.iter().find_map(|i| match i {
                Item::Param(p) | Item::Localparam(p) if p.name == name => Some(p),
                _ => None,
            })
        })
    }
}

/// A `parameter` or `localparam` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Default / bound value.
    pub value: Expr,
    /// Declared width range, if any (`parameter [3:0] S = ...`).
    pub range: Option<(Expr, Expr)>,
    /// Source location.
    pub span: Span,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout`
    Inout,
}

impl Dir {
    /// Textual keyword for the direction.
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::Input => "input",
            Dir::Output => "output",
            Dir::Inout => "inout",
        }
    }
}

/// A module port: direction plus its net declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Direction.
    pub dir: Dir,
    /// Underlying net (name, width, reg-ness).
    pub net: NetDecl,
}

/// Net kind: `wire` or `reg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Driven by `assign` or by an instance output.
    Wire,
    /// Assigned in procedural blocks; holds state across cycles when
    /// assigned under a clock edge.
    Reg,
}

/// A single net (wire/reg) declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDecl {
    /// `wire` or `reg`.
    pub kind: NetKind,
    /// Declared `signed`.
    pub signed: bool,
    /// Packed range `[msb:lsb]`, if any; `None` means a 1-bit scalar.
    pub range: Option<(Expr, Expr)>,
    /// Net name.
    pub name: String,
    /// Unpacked (memory) dimension `[lo:hi]`, if any.
    pub mem_dim: Option<(Expr, Expr)>,
    /// Source location.
    pub span: Span,
}

impl NetDecl {
    /// A 1-bit scalar declaration.
    pub fn scalar(kind: NetKind, name: impl Into<String>) -> Self {
        NetDecl {
            kind,
            signed: false,
            range: None,
            name: name.into(),
            mem_dim: None,
            span: Span::synthetic(),
        }
    }

    /// A `[width-1:0]` vector declaration.
    pub fn vector(kind: NetKind, name: impl Into<String>, width: u32) -> Self {
        NetDecl {
            kind,
            signed: false,
            range: Some((Expr::number(width as u64 - 1), Expr::number(0))),
            name: name.into(),
            mem_dim: None,
            span: Span::synthetic(),
        }
    }
}

/// A module body item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A net declaration.
    Net(NetDecl),
    /// A `parameter` in the body.
    Param(Param),
    /// A `localparam`.
    Localparam(Param),
    /// A continuous assignment `assign lhs = rhs;`.
    Assign {
        /// Left-hand side.
        lhs: LValue,
        /// Right-hand side expression.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// An `always` block.
    Always {
        /// Sensitivity: clock edges or combinational.
        event: EventControl,
        /// The body statement (usually a `begin` block).
        body: Stmt,
        /// Source location.
        span: Span,
    },
    /// A module instantiation.
    Instance(Instance),
}

/// A module instantiation with named connections.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Name of the instantiated module (or blackbox IP).
    pub module: String,
    /// Instance name.
    pub name: String,
    /// Parameter overrides `#(.N(8))`.
    pub params: Vec<(String, Expr)>,
    /// Port connections `.port(expr)`; `None` expression means unconnected.
    pub conns: Vec<(String, Option<Expr>)>,
    /// Source location.
    pub span: Span,
}

/// Sensitivity control of an `always` block.
#[derive(Debug, Clone, PartialEq)]
pub enum EventControl {
    /// One or more clock edges: `@(posedge clk)` / `@(posedge a or negedge b)`.
    Edges(Vec<Edge>),
    /// Combinational: `@*` or `@(*)`.
    Comb,
}

/// A single edge term in a sensitivity list.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Rising or falling.
    pub posedge: bool,
    /// The triggering signal name.
    pub signal: String,
}

/// Kind of case statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Exact match.
    Case,
    /// `casez` — `?`/`z` bits are treated as wildcards (we support only
    /// literal labels, so this degrades to exact matching of the given bits).
    Casez,
}

/// Procedural statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `begin ... end`.
    Block(Vec<Stmt>),
    /// `if (cond) then else els`.
    If {
        /// Condition expression (truthy if nonzero).
        cond: Expr,
        /// Taken branch.
        then: Box<Stmt>,
        /// Else branch, if present.
        els: Option<Box<Stmt>>,
    },
    /// `case (expr) ... endcase`.
    Case {
        /// Case flavor.
        kind: CaseKind,
        /// Selector expression.
        expr: Expr,
        /// Arms, excluding `default`.
        arms: Vec<CaseArm>,
        /// `default:` body, if present.
        default: Option<Box<Stmt>>,
        /// Source location of the `case` keyword (anchors lint
        /// diagnostics such as missing-default warnings).
        span: Span,
    },
    /// A blocking (`=`) or nonblocking (`<=`) assignment.
    Assign {
        /// Destination.
        lhs: LValue,
        /// True for nonblocking `<=`.
        nonblocking: bool,
        /// Source expression.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// A bounded `for` loop (unrolled at elaboration).
    For {
        /// Loop variable name.
        var: String,
        /// Initial value.
        init: Expr,
        /// Continuation condition.
        cond: Expr,
        /// Step assignment RHS (`var = step`).
        step: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `$display(fmt, args...)`.
    Display {
        /// Format string.
        format: String,
        /// Arguments substituted into `%d`/`%h`/`%b` holes.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// `$finish;` — stops simulation.
    Finish,
    /// An empty statement (`;`).
    Empty,
}

impl Stmt {
    /// Builds a nonblocking assignment `lhs <= rhs;`.
    pub fn nonblocking(lhs: LValue, rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs,
            nonblocking: true,
            rhs,
            span: Span::synthetic(),
        }
    }

    /// Builds a blocking assignment `lhs = rhs;`.
    pub fn blocking(lhs: LValue, rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs,
            nonblocking: false,
            rhs,
            span: Span::synthetic(),
        }
    }

    /// Builds `if (cond) then` with no else.
    pub fn if_then(cond: Expr, then: Stmt) -> Stmt {
        Stmt::If {
            cond,
            then: Box::new(then),
            els: None,
        }
    }

    /// Calls `f` on each expression this statement evaluates itself, in
    /// source order: an `if` condition, a `case` subject and then every
    /// label, a `for` loop's init, condition and step, an assignment's
    /// right-hand side (its target's indices are
    /// [`LValue::visit_exprs`]'), and `$display` arguments. Nested
    /// statements are not entered: pair this with a statement walker
    /// (`hwdbg_dataflow::guard::walk`), and [`Expr::visit`] for the
    /// subexpressions.
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Stmt::If { cond, .. } => f(cond),
            Stmt::Case { expr, arms, .. } => {
                f(expr);
                arms.iter().flat_map(|arm| &arm.labels).for_each(f);
            }
            Stmt::For {
                init, cond, step, ..
            } => {
                f(init);
                f(cond);
                f(step);
            }
            Stmt::Assign { rhs, .. } => f(rhs),
            Stmt::Display { args, .. } => args.iter().for_each(f),
            Stmt::Block(_) | Stmt::Finish | Stmt::Empty => {}
        }
    }
}

/// One arm of a `case` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Match labels (comma-separated constants).
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
}

/// Assignment destination.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Whole net: `x`.
    Id(String),
    /// Bit or memory element: `x[i]`.
    Index(String, Expr),
    /// Constant part select: `x[msb:lsb]`.
    Range(String, Expr, Expr),
    /// Concatenation target: `{a, b} = ...`.
    Concat(Vec<LValue>),
}

impl LValue {
    /// Names of all nets written by this lvalue.
    pub fn target_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_targets(&mut |n, _| out.push(n));
        out
    }

    /// Calls `f(name, part)` on every net this lvalue writes, in the order
    /// of [`target_names`](Self::target_names), without collecting them.
    /// `part` is the `Id`, `Index` or `Range` that writes `name`: a
    /// concatenation is flattened, so `part` is never a `Concat`.
    pub fn visit_targets<'a>(&'a self, f: &mut impl FnMut(&'a str, &'a LValue)) {
        match self {
            LValue::Id(n) | LValue::Index(n, _) | LValue::Range(n, _, _) => f(n, self),
            LValue::Concat(parts) => {
                for p in parts {
                    p.visit_targets(f);
                }
            }
        }
    }

    /// Calls `f` on each index and part-select bound of this lvalue, those
    /// inside a concatenation included, in source order: the expressions
    /// a write evaluates to find where it lands.
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.visit_targets(&mut |_, part| match part {
            LValue::Index(_, i) => f(i),
            LValue::Range(_, msb, lsb) => {
                f(msb);
                f(lsb);
            }
            LValue::Id(_) | LValue::Concat(_) => {}
        });
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    /// Bitwise not `~`.
    Not,
    /// Logical not `!`.
    LogNot,
    /// Arithmetic negation `-`.
    Neg,
    /// Reduction AND `&`.
    RedAnd,
    /// Reduction OR `|`.
    RedOr,
    /// Reduction XOR `^`.
    RedXor,
    /// Reduction XNOR `~^`.
    RedXnor,
}

impl UnaryOp {
    /// Operator spelling.
    pub fn as_str(self) -> &'static str {
        use UnaryOp::*;
        match self {
            Not => "~",
            LogNot => "!",
            Neg => "-",
            RedAnd => "&",
            RedOr => "|",
            RedXor => "^",
            RedXnor => "~^",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Shl,
    Shr,
    AShr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LogAnd,
    LogOr,
    And,
    Or,
    Xor,
    Xnor,
}

impl BinaryOp {
    /// Operator spelling.
    pub fn as_str(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Shl => "<<",
            Shr => ">>",
            AShr => ">>>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            LogAnd => "&&",
            LogOr => "||",
            And => "&",
            Or => "|",
            Xor => "^",
            Xnor => "~^",
        }
    }

    /// True for comparison/logical operators whose result is 1 bit.
    pub fn is_boolean(self) -> bool {
        use BinaryOp::*;
        matches!(self, Lt | Le | Gt | Ge | Eq | Ne | LogAnd | LogOr)
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal: an unsized decimal (`42`, 32 bits) or a based
    /// literal (`8'hFF`, `'b1010`, `8'sd3`).
    Literal {
        /// The constant value (its `width()` is authoritative).
        value: Bits,
        /// Signed: an unsized decimal, or a based literal written with
        /// `s` (IEEE 1364-2005 §3.5.1).
        signed: bool,
    },
    /// A net, parameter, or genvar reference.
    Ident(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Conditional `cond ? t : f`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Bit select or memory read: `x[i]`.
    Index(String, Box<Expr>),
    /// Constant part select: `x[msb:lsb]`.
    Range(String, Box<Expr>, Box<Expr>),
    /// Concatenation `{a, b, ...}` (first element = most significant).
    Concat(Vec<Expr>),
    /// Replication `{n{expr}}`.
    Repeat(Box<Expr>, Box<Expr>),
    /// Width cast `W'(expr)` (SystemVerilog-style, used by the paper's
    /// bit-truncation examples).
    WidthCast(u32, Box<Expr>),
    /// `$signed(expr)` / `$unsigned(expr)`.
    SignCast(bool, Box<Expr>),
}

impl Expr {
    /// An unsized decimal literal (32-bit, like a bare `42`).
    pub fn number(v: u64) -> Expr {
        Expr::Literal {
            value: Bits::from_u64(32, v),
            signed: true,
        }
    }

    /// An unsigned literal of explicit width.
    pub fn sized(width: u32, v: u64) -> Expr {
        Expr::Literal {
            value: Bits::from_u64(width, v),
            signed: false,
        }
    }

    /// An identifier reference.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// `a & b` (bitwise).
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinaryOp::And, Box::new(a), Box::new(b))
    }

    /// `a | b` (bitwise).
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinaryOp::Or, Box::new(a), Box::new(b))
    }

    /// `~a`.
    #[allow(clippy::should_implement_trait)] // constructor for an AST node, not std::ops
    pub fn not(a: Expr) -> Expr {
        Expr::Unary(UnaryOp::Not, Box::new(a))
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinaryOp::Eq, Box::new(a), Box::new(b))
    }

    /// `a + b`.
    #[allow(clippy::should_implement_trait)] // constructor for an AST node, not std::ops
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinaryOp::Add, Box::new(a), Box::new(b))
    }

    /// Folds a list of expressions with `|`, or `1'b0` when empty.
    pub fn any(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::sized(1, 0),
            Some(first) => it.fold(first, Self::or),
        }
    }

    /// All identifier names read by this expression (including index bases).
    pub fn idents(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_idents(&mut |n| out.push(n));
        out
    }

    /// Calls `f` on every identifier name this expression reads, in the
    /// same order (and with the same repeats) as [`idents`](Self::idents),
    /// without collecting them: the allocation-free form for callers that
    /// resolve or count names as they go. A select's base comes before the
    /// names in its index or bounds.
    pub fn visit_idents<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        self.visit(&mut |e| match e {
            Expr::Ident(n) | Expr::Index(n, _) | Expr::Range(n, _, _) => f(n),
            _ => {}
        });
    }

    /// Calls `f` on this expression and every subexpression in it, in
    /// pre-order: a node before its operands, operands left to right (a
    /// replication's count before its body, a select's index or bounds
    /// after the select).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal { .. } | Expr::Ident(_) => {}
            Expr::Unary(_, e) | Expr::WidthCast(_, e) | Expr::SignCast(_, e) | Expr::Index(_, e) => {
                e.visit(f)
            }
            Expr::Binary(_, a, b) | Expr::Repeat(a, b) | Expr::Range(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Ternary(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    p.visit(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::and(Expr::ident("a"), Expr::not(Expr::ident("b")));
        assert_eq!(e.idents(), vec!["a", "b"]);
    }

    #[test]
    fn any_of_empty_is_zero() {
        assert_eq!(Expr::any([]), Expr::sized(1, 0));
    }

    #[test]
    fn lvalue_targets() {
        let lv = LValue::Concat(vec![
            LValue::Id("a".into()),
            LValue::Index("b".into(), Expr::number(3)),
        ]);
        assert_eq!(lv.target_names(), vec!["a", "b"]);
    }

    #[test]
    fn net_decl_helpers() {
        let v = NetDecl::vector(NetKind::Reg, "x", 8);
        assert_eq!(
            v.range,
            Some((Expr::number(7), Expr::number(0)))
        );
    }

    #[test]
    fn idents_cover_all_nodes() {
        let e = Expr::Ternary(
            Box::new(Expr::ident("c")),
            Box::new(Expr::Index("m".into(), Box::new(Expr::ident("i")))),
            Box::new(Expr::Concat(vec![
                Expr::ident("x"),
                Expr::Repeat(Box::new(Expr::number(2)), Box::new(Expr::ident("y"))),
            ])),
        );
        assert_eq!(e.idents(), vec!["c", "m", "i", "x", "y"]);
    }

    /// Every `Expr` variant once.
    const ALL_KINDS: &str = "c ? ~a[i] + m[3:j] : {{2{$signed(8'(b))}}, x, 4'd9}";

    /// One label per node, without its operands.
    fn kind(e: &Expr) -> String {
        match e {
            Expr::Literal { value, .. } => format!("lit {}", value.to_u64()),
            Expr::Ident(n) => n.clone(),
            Expr::Unary(op, _) => op.as_str().to_owned(),
            Expr::Binary(op, _, _) => op.as_str().to_owned(),
            Expr::Ternary(..) => "?:".to_owned(),
            Expr::Index(n, _) => format!("{n}[]"),
            Expr::Range(n, _, _) => format!("{n}[:]"),
            Expr::Concat(parts) => format!("{{{}}}", parts.len()),
            Expr::Repeat(..) => "{{}}".to_owned(),
            Expr::WidthCast(w, _) => format!("{w}'()"),
            Expr::SignCast(signed, _) => format!("signed={signed}"),
        }
    }

    #[test]
    fn visit_is_pre_order_over_every_variant() {
        let e = crate::parse_expr(ALL_KINDS).unwrap();
        let mut seen = Vec::new();
        e.visit(&mut |sub| seen.push(kind(sub)));
        let want = [
            "?:", "c", "+", "~", "a[]", "i", "m[:]", "lit 3", "j", "{3}", "{{}}", "lit 2",
            "signed=true", "8'()", "b", "x", "lit 9",
        ];
        assert_eq!(seen, want);
    }

    #[test]
    fn visit_idents_puts_a_select_base_before_its_index() {
        let e = crate::parse_expr(ALL_KINDS).unwrap();
        assert_eq!(e.idents(), ["c", "a", "i", "m", "j", "b", "x"]);
        let e = crate::parse_expr("m[m[i]] + m[i:i]").unwrap();
        assert_eq!(e.idents(), ["m", "m", "i", "m", "i", "i"]);
    }

    /// The statements of an `always` block holding `body`.
    fn stmts(body: &str) -> Vec<Stmt> {
        let src = format!(
            "module m(input clk, input en, input [1:0] s, input [7:0] a, input [7:0] b,
                      output reg [7:0] q, output reg [7:0] r, output reg [7:0] t);
                integer i;
                always @(posedge clk) begin {body} end
            endmodule"
        );
        let file = crate::parse(&src).unwrap();
        match file.modules[0].items.last() {
            Some(Item::Always {
                body: Stmt::Block(stmts),
                ..
            }) => stmts.clone(),
            other => panic!("no always block: {other:?}"),
        }
    }

    #[test]
    fn stmt_visit_exprs_sees_only_the_node_itself() {
        let cases: [(&str, &[&str]); 8] = [
            ("if (en) q <= a + b; else q <= b;", &["en"]),
            (
                "case (s) 2'd0, 2'd1: q <= a; 2'd2: case (en) 1'b1: q <= b; endcase \
                 default: q <= b; endcase",
                &["s", "2'h0", "2'h1", "2'h2"],
            ),
            ("for (i = 0; i < 8; i = i + 1) q[i] <= a[i];", &["0", "i < 8", "i + 1"]),
            ("q[s] <= a + b;", &["a + b"]),
            ("$display(\"%d %d\", a, b[s]);", &["a", "b[s]"]),
            ("begin q <= a; end", &[]),
            ("$finish;", &[]),
            (";", &[]),
        ];
        for (body, want) in cases {
            let stmts = stmts(body);
            let mut seen = Vec::new();
            stmts[0].visit_exprs(&mut |e| seen.push(crate::print_expr(e)));
            assert_eq!(seen, want, "{body}");
        }
    }

    #[test]
    fn lvalue_visit_exprs_and_targets_flatten_concatenations() {
        let cases: [(&str, &[&str], &[&str]); 4] = [
            ("q <= a;", &[], &["q Id"]),
            ("q[s] <= a;", &["s"], &["q Index"]),
            ("q[s + 1:s] <= a;", &["s + 1", "s"], &["q Range"]),
            (
                "{q[s], r, t[3:s]} <= {a, b};",
                &["s", "3", "s"],
                &["q Index", "r Id", "t Range"],
            ),
        ];
        for (body, exprs, targets) in cases {
            let Stmt::Assign { lhs, .. } = &stmts(body)[0] else {
                panic!("{body}: not an assignment");
            };
            let mut seen = Vec::new();
            lhs.visit_exprs(&mut |e| seen.push(crate::print_expr(e)));
            assert_eq!(seen, exprs, "{body}");
            let mut seen = Vec::new();
            lhs.visit_targets(&mut |n, part| {
                let kind = match part {
                    LValue::Id(_) => "Id",
                    LValue::Index(..) => "Index",
                    LValue::Range(..) => "Range",
                    LValue::Concat(_) => "Concat",
                };
                seen.push(format!("{n} {kind}"));
            });
            assert_eq!(seen, targets, "{body}");
        }
    }
}
