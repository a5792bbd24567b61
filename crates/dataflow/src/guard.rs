//! Guard paths: under which condition does a statement run?
//!
//! Every statement-level analysis asks the RTL that one question. SignalCat
//! records each `$display` under its path constraint (§4.1 of the paper),
//! Dependency Monitor splits partial assignments by path (§4.3), LossCheck's
//! relations `X ⇝σ Y` carry the path as `σ` (§4.5.1), and the lint passes
//! reason about the facts a path proves. This module answers it once:
//!
//! - [`Guard`] is one nesting level on the path from a process body to a
//!   statement: an `if` branch, a `case` arm, a `default`, or a `for` body;
//! - [`walk`] visits every statement in pre-order with the guards that
//!   dominate it;
//! - [`cond`] renders a path as the condition expression a relation or a
//!   recording enable carries;
//! - [`leaves`] decomposes a path into the atomic facts that must hold on
//!   it ([`CondLeaf`]), and [`cond_leaves`] does the same for one
//!   condition expression.
//!
//! A `for` guard ([`Guard::Loop`]) counts in [`leaves`] but not in [`cond`]:
//! elaboration unrolls loops, so no relation or recording enable carries
//! the loop condition, while a lint may still use the fact that it holds
//! inside the body.

use hwdbg_rtl::{BinaryOp, CaseArm, Expr, Stmt, UnaryOp};

/// One guard on the path from a process body to a statement, borrowed from
/// the AST.
#[derive(Debug, Clone, Copy)]
pub enum Guard<'a> {
    /// An `if` condition: `true` in the `then` branch, `false` in the
    /// `else` branch.
    If(&'a Expr, bool),
    /// Arm `index` of a `case` over `subject`: the subject matched one of
    /// `arms[index]`'s labels and none of an earlier arm's.
    Arm {
        /// The case selector.
        subject: &'a Expr,
        /// Every explicit arm of the `case`, in source order.
        arms: &'a [CaseArm],
        /// The arm the statement sits in.
        index: usize,
    },
    /// The `default` of a `case` over `subject`: no arm matched.
    Default {
        /// The case selector.
        subject: &'a Expr,
        /// Every explicit arm of the `case`, in source order.
        arms: &'a [CaseArm],
    },
    /// The continuation condition of an enclosing `for` loop.
    Loop(&'a Expr),
}

impl Guard<'_> {
    /// Calls `f` on each conjunct this guard adds to [`cond`], in order:
    /// an arm's negated priors come before its own match.
    fn for_each_term(self, f: &mut impl FnMut(Expr)) {
        let not = |e| Expr::Unary(UnaryOp::LogNot, Box::new(e));
        match self {
            Guard::If(c, true) => f(c.clone()),
            Guard::If(c, false) => f(not(c.clone())),
            Guard::Arm {
                subject,
                arms,
                index,
            } => {
                for arm in &arms[..index] {
                    f(not(arm_match(subject, arm)));
                }
                f(arm_match(subject, &arms[index]));
            }
            Guard::Default { subject, arms } => {
                for arm in arms {
                    f(not(arm_match(subject, arm)));
                }
            }
            Guard::Loop(_) => {}
        }
    }
}

/// `subject == l0 | subject == l1 | …` over one arm's labels.
fn arm_match(subject: &Expr, arm: &CaseArm) -> Expr {
    Expr::any(arm.labels.iter().map(|l| Expr::eq(subject.clone(), l.clone())))
}

/// Calls `f(path, stmt)` on `stmt` and every statement nested in it, in
/// pre-order, where `path` holds the guards that dominate the statement,
/// outermost first. An `if` or `case` node itself sees the path outside it
/// (its condition is evaluated there); its branches see one more guard.
/// `for` bodies carry [`Guard::Loop`]. `path` is restored on return.
pub fn walk<'a, F>(stmt: &'a Stmt, path: &mut Vec<Guard<'a>>, f: &mut F)
where
    F: FnMut(&[Guard<'a>], &'a Stmt),
{
    f(path, stmt);
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                walk(s, path, f);
            }
        }
        Stmt::If { cond, then, els } => {
            descend(Guard::If(cond, true), then, path, f);
            if let Some(els) = els {
                descend(Guard::If(cond, false), els, path, f);
            }
        }
        Stmt::Case {
            expr,
            arms,
            default,
            ..
        } => {
            for (index, arm) in arms.iter().enumerate() {
                let guard = Guard::Arm {
                    subject: expr,
                    arms,
                    index,
                };
                descend(guard, &arm.body, path, f);
            }
            if let Some(d) = default {
                descend(Guard::Default { subject: expr, arms }, d, path, f);
            }
        }
        Stmt::For { cond, body, .. } => descend(Guard::Loop(cond), body, path, f),
        Stmt::Assign { .. } | Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => {}
    }
}

/// Walks `body` one guard deeper.
fn descend<'a, F>(guard: Guard<'a>, body: &'a Stmt, path: &mut Vec<Guard<'a>>, f: &mut F)
where
    F: FnMut(&[Guard<'a>], &'a Stmt),
{
    path.push(guard);
    walk(body, path, f);
    path.pop();
}

/// The condition under which a statement on `path` runs: the left fold
/// with `&&` of every guard's conjuncts. Arm *k* contributes
/// `!a0 && … && !a(k-1) && ak`, a `default` every arm negated, and a
/// [`Guard::Loop`] nothing. An empty path is `1'b1`.
pub fn cond(path: &[Guard<'_>]) -> Expr {
    let mut acc: Option<Expr> = None;
    for &g in path {
        g.for_each_term(&mut |t| {
            acc = Some(match acc.take() {
                None => t,
                Some(a) => Expr::Binary(BinaryOp::LogAnd, Box::new(a), Box::new(t)),
            });
        });
    }
    acc.unwrap_or_else(|| Expr::sized(1, 1))
}

/// One normalized conjunct of a condition.
///
/// [`cond_leaves`] and [`leaves`] split positive conjunctions and strip
/// negations; disjunctions and comparisons stay opaque, so each leaf is an
/// atomic fact that must hold (`positive`) or must not (`!positive`).
#[derive(Debug, Clone, Copy)]
pub struct CondLeaf<'a> {
    /// The atomic expression (negations peeled off).
    pub expr: &'a Expr,
    /// Polarity after peeling: `false` means the leaf is negated.
    pub positive: bool,
}

/// Normalizes a condition into conjunct leaves: top-level `&&` chains are
/// split, `!`/`~` flip polarity, everything else (disjunctions,
/// comparisons, bare signals) is one leaf.
pub fn cond_leaves(e: &Expr) -> Vec<CondLeaf<'_>> {
    let mut out = Vec::new();
    collect_leaves(e, true, &mut out);
    out
}

/// The leaves of a path's [`Guard::If`] and [`Guard::Loop`] conditions, in
/// path order: `if (a && !b)` contributes `(a, +)` and `(b, -)`, its `else`
/// the single opaque leaf `(a && !b, -)`. Case guards contribute nothing;
/// compare arm identity on the guards themselves.
pub fn leaves<'a>(path: &[Guard<'a>]) -> Vec<CondLeaf<'a>> {
    let mut out = Vec::new();
    for g in path {
        match *g {
            Guard::If(c, positive) => collect_leaves(c, positive, &mut out),
            Guard::Loop(c) => collect_leaves(c, true, &mut out),
            Guard::Arm { .. } | Guard::Default { .. } => {}
        }
    }
    out
}

fn collect_leaves<'a>(e: &'a Expr, positive: bool, out: &mut Vec<CondLeaf<'a>>) {
    match e {
        Expr::Binary(BinaryOp::LogAnd, a, b) if positive => {
            collect_leaves(a, true, out);
            collect_leaves(b, true, out);
        }
        Expr::Unary(UnaryOp::LogNot | UnaryOp::Not, inner) => {
            collect_leaves(inner, !positive, out);
        }
        other => out.push(CondLeaf { expr: other, positive }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_rtl::{parse, print_expr, print_lvalue, Item};

    /// Every assignment of the module's first `always` body, as
    /// `(lhs, cond, leaves)` with the condition and leaves printed.
    fn paths(body: &str) -> Vec<(String, String, Vec<String>)> {
        let src = format!(
            "module m(input clk, input en, input go, input [1:0] s, input [7:0] b,
                      input [7:0] c, output reg [15:0] r);
                integer i;
                always @(posedge clk) {body}
            endmodule"
        );
        let file = parse(&src).unwrap();
        let Some(Item::Always { body, .. }) = file.modules[0]
            .items
            .iter()
            .find(|i| matches!(i, Item::Always { .. }))
        else {
            panic!("no always block");
        };
        let mut out = Vec::new();
        walk(body, &mut Vec::new(), &mut |path, stmt| {
            if let Stmt::Assign { lhs, .. } = stmt {
                let leaves = leaves(path)
                    .iter()
                    .map(|l| format!("{}{}", if l.positive { '+' } else { '-' }, print_expr(l.expr)))
                    .collect();
                out.push((print_lvalue(lhs), print_expr(&cond(path)), leaves));
            }
        });
        out
    }

    fn row(lhs: &str, cond: &str, leaves: &[&str]) -> (String, String, Vec<String>) {
        (
            lhs.to_owned(),
            cond.to_owned(),
            leaves.iter().map(|l| (*l).to_owned()).collect(),
        )
    }

    #[test]
    fn if_else_paths() {
        assert_eq!(
            paths("begin r <= 0; if (en && !go) r <= b; else r <= c; end"),
            [
                row("r", "1'h1", &[]),
                row("r", "en && (!go)", &["+en", "-go"]),
                // A negated conjunction stays one opaque leaf.
                row("r", "!(en && (!go))", &["-en && (!go)"]),
            ]
        );
    }

    #[test]
    fn case_in_if_with_default() {
        let got = paths(
            "if (en) case (s)
                 2'd0: r <= 0;
                 2'd1: r[7:0] <= b;
                 default: r[15:8] <= c;
             endcase",
        );
        assert_eq!(
            got,
            [
                row("r", "en && (s == 2'h0)", &["+en"]),
                row("r[7:0]", "(en && (!(s == 2'h0))) && (s == 2'h1)", &["+en"]),
                row(
                    "r[15:8]",
                    "(en && (!(s == 2'h0))) && (!(s == 2'h1))",
                    &["+en"]
                ),
            ]
        );
    }

    #[test]
    fn loop_counts_in_leaves_not_in_cond() {
        assert_eq!(
            paths("if (go) for (i = 0; i < 2; i = i + 1) r[i] <= b[i];"),
            [row("r[i]", "go", &["+go", "+i < 2"])]
        );
    }

    #[test]
    fn walk_visits_every_statement_in_pre_order_with_the_outer_path() {
        let src = "module m(input clk, input a, input [1:0] s, output reg q);
            always @(posedge clk) begin
                if (a) case (s) 2'd0: q <= 0; default: q <= 1; endcase
            end
        endmodule";
        let file = parse(src).unwrap();
        let Some(Item::Always { body, .. }) = file.modules[0].items.last() else {
            panic!("no always block");
        };
        let mut seen = Vec::new();
        walk(body, &mut Vec::new(), &mut |path, stmt| {
            let kind = match stmt {
                Stmt::Block(_) => "block",
                Stmt::If { .. } => "if",
                Stmt::Case { .. } => "case",
                Stmt::Assign { .. } => "assign",
                _ => "other",
            };
            seen.push((kind, path.len(), print_expr(&cond(path))));
        });
        let want = [
            ("block", 0, "1'h1"),
            ("if", 0, "1'h1"),
            ("case", 1, "a"),
            ("assign", 2, "a && (s == 2'h0)"),
            ("assign", 2, "a && (!(s == 2'h0))"),
        ];
        let want: Vec<_> = want
            .iter()
            .map(|&(k, d, c)| (k, d, c.to_owned()))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn cond_leaves_normalize_polarity() {
        let e = hwdbg_rtl::parse_expr("a && !b && (c || d)").unwrap();
        let got: Vec<_> = cond_leaves(&e)
            .iter()
            .map(|l| (print_expr(l.expr), l.positive))
            .collect();
        assert_eq!(
            got,
            [
                ("a".to_owned(), true),
                ("b".to_owned(), false),
                ("c || d".to_owned(), true),
            ]
        );
        let e = hwdbg_rtl::parse_expr("!!x").unwrap();
        assert!(matches!(cond_leaves(&e)[..], [CondLeaf { positive: true, .. }]));
    }
}
