//! Identifier rewriting over AST fragments.
//!
//! Flattening renames child-instance signals (`fifo0__wptr`) and substitutes
//! parameters with their bound constants; the instrumentation passes in
//! `hwdbg-tools` reuse the same machinery.

use crate::{eval_const, ConstEnv, DataflowError};
use hwdbg_rtl::{BinaryOp, CaseArm, Expr, LValue, Stmt};

/// What an identifier rewrites to.
#[derive(Debug, Clone)]
pub enum Repl {
    /// Keep as a (possibly renamed) identifier.
    Name(String),
    /// Substitute an arbitrary expression (e.g. a folded parameter value).
    Expr(Expr),
}

/// Rewrites every identifier in `expr` according to `f`.
///
/// # Errors
///
/// Fails if a select of a parameter has non-constant or reversed part-select
/// bounds.
pub fn rewrite_expr(
    expr: &Expr,
    f: &dyn Fn(&str) -> Repl,
) -> Result<Expr, DataflowError> {
    Ok(match expr {
        Expr::Literal { .. } => expr.clone(),
        Expr::Ident(n) => match f(n) {
            Repl::Name(n2) => Expr::Ident(n2),
            Repl::Expr(e) => e,
        },
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(rewrite_expr(e, f)?)),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(rewrite_expr(a, f)?),
            Box::new(rewrite_expr(b, f)?),
        ),
        Expr::Ternary(c, t, e) => Expr::Ternary(
            Box::new(rewrite_expr(c, f)?),
            Box::new(rewrite_expr(t, f)?),
            Box::new(rewrite_expr(e, f)?),
        ),
        Expr::Index(n, i) => {
            let i = Box::new(rewrite_expr(i, f)?);
            match f(n) {
                Repl::Name(n) => Expr::Index(n, i),
                Repl::Expr(e) => fold_select(n, e, Expr::Index(n.to_owned(), i))?,
            }
        }
        Expr::Range(n, a, b) => {
            let (a, b) = (Box::new(rewrite_expr(a, f)?), Box::new(rewrite_expr(b, f)?));
            match f(n) {
                Repl::Name(n) => Expr::Range(n, a, b),
                Repl::Expr(e) => fold_select(n, e, Expr::Range(n.to_owned(), a, b))?,
            }
        }
        Expr::Concat(parts) => Expr::Concat(
            parts
                .iter()
                .map(|p| rewrite_expr(p, f))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Repeat(n, b) => Expr::Repeat(
            Box::new(rewrite_expr(n, f)?),
            Box::new(rewrite_expr(b, f)?),
        ),
        Expr::WidthCast(w, e) => Expr::WidthCast(*w, Box::new(rewrite_expr(e, f)?)),
        Expr::SignCast(s, e) => Expr::SignCast(*s, Box::new(rewrite_expr(e, f)?)),
    })
}

/// A select of parameter `n`, whose value is the constant expression
/// `value`, as a literal: a constant select of a parameter is a constant
/// (IEEE 1364-2005 §5.2.1), folded as [`eval_const`] folds one of a
/// `localparam`. A bit-select at a varying index becomes `(value >> idx)`
/// cut to one bit.
fn fold_select(n: &str, value: Expr, select: Expr) -> Result<Expr, DataflowError> {
    let env = ConstEnv::from([(n.to_owned(), eval_const(&value, &ConstEnv::new())?)]);
    match (eval_const(&select, &env), select) {
        (Ok(v), _) => Ok(Expr::Literal { value: v, signed: false }),
        (Err(DataflowError::NotConstant(_)), Expr::Index(_, idx)) => Ok(Expr::WidthCast(
            1,
            Box::new(Expr::Binary(BinaryOp::Shr, Box::new(value), idx)),
        )),
        (Err(e), _) => Err(e),
    }
}

fn base_name(n: &str, f: &dyn Fn(&str) -> Repl) -> Result<String, DataflowError> {
    match f(n) {
        Repl::Name(n2) => Ok(n2),
        Repl::Expr(_) => Err(DataflowError::BadSelect(n.to_owned())),
    }
}

/// Rewrites an lvalue's target names.
///
/// # Errors
///
/// Fails if a target name maps to a non-name expression.
pub fn rewrite_lvalue(
    lv: &LValue,
    f: &dyn Fn(&str) -> Repl,
) -> Result<LValue, DataflowError> {
    Ok(match lv {
        LValue::Id(n) => LValue::Id(base_name(n, f)?),
        LValue::Index(n, i) => LValue::Index(base_name(n, f)?, rewrite_expr(i, f)?),
        LValue::Range(n, a, b) => {
            LValue::Range(base_name(n, f)?, rewrite_expr(a, f)?, rewrite_expr(b, f)?)
        }
        LValue::Concat(parts) => LValue::Concat(
            parts
                .iter()
                .map(|p| rewrite_lvalue(p, f))
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// Rewrites every identifier in a statement tree.
///
/// # Errors
///
/// Propagates the errors of [`rewrite_expr`] / [`rewrite_lvalue`].
pub fn rewrite_stmt(stmt: &Stmt, f: &dyn Fn(&str) -> Repl) -> Result<Stmt, DataflowError> {
    Ok(match stmt {
        Stmt::Block(stmts) => Stmt::Block(
            stmts
                .iter()
                .map(|s| rewrite_stmt(s, f))
                .collect::<Result<_, _>>()?,
        ),
        Stmt::If { cond, then, els } => Stmt::If {
            cond: rewrite_expr(cond, f)?,
            then: Box::new(rewrite_stmt(then, f)?),
            els: match els {
                Some(e) => Some(Box::new(rewrite_stmt(e, f)?)),
                None => None,
            },
        },
        Stmt::Case {
            kind,
            expr,
            arms,
            default,
            span,
        } => Stmt::Case {
            kind: *kind,
            expr: rewrite_expr(expr, f)?,
            span: *span,
            arms: arms
                .iter()
                .map(|arm| {
                    Ok(CaseArm {
                        labels: arm
                            .labels
                            .iter()
                            .map(|l| rewrite_expr(l, f))
                            .collect::<Result<_, _>>()?,
                        body: rewrite_stmt(&arm.body, f)?,
                    })
                })
                .collect::<Result<Vec<_>, DataflowError>>()?,
            default: match default {
                Some(d) => Some(Box::new(rewrite_stmt(d, f)?)),
                None => None,
            },
        },
        Stmt::Assign {
            lhs,
            nonblocking,
            rhs,
            span,
        } => Stmt::Assign {
            lhs: rewrite_lvalue(lhs, f)?,
            nonblocking: *nonblocking,
            rhs: rewrite_expr(rhs, f)?,
            span: *span,
        },
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => Stmt::For {
            var: base_name(var, f)?,
            init: rewrite_expr(init, f)?,
            cond: rewrite_expr(cond, f)?,
            step: rewrite_expr(step, f)?,
            body: Box::new(rewrite_stmt(body, f)?),
        },
        Stmt::Display { format, args, span, tag } => Stmt::Display {
            format: format.clone(),
            args: args
                .iter()
                .map(|a| rewrite_expr(a, f))
                .collect::<Result<_, _>>()?,
            span: *span,
            tag: tag.clone(),
        },
        Stmt::Finish => Stmt::Finish,
        Stmt::Empty => Stmt::Empty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_rtl::{parse_expr, print_expr};

    #[test]
    fn rename_and_substitute() {
        let e = parse_expr("W + counter[i]").unwrap();
        let out = rewrite_expr(&e, &|n| match n {
            "W" => Repl::Expr(Expr::sized(32, 8)),
            other => Repl::Name(format!("u0__{other}")),
        })
        .unwrap();
        assert_eq!(print_expr(&out), "32'h00000008 + u0__counter[u0__i]");
    }

    #[test]
    fn selects_of_a_parameter_fold() {
        let p = |n: &str| match n {
            "P" => Repl::Expr(Expr::sized(8, 0x26)),
            other => Repl::Name(other.to_owned()),
        };
        let fold = |src: &str| rewrite_expr(&parse_expr(src).unwrap(), &p).map(|e| print_expr(&e));
        assert_eq!(fold("P[5:1]").unwrap(), "5'h13");
        assert_eq!(fold("P[2]").unwrap(), "1'h1");
        assert_eq!(fold("x[P[3:0]:0]").unwrap(), "x[4'h6:0]");
        assert!(fold("P[k]").unwrap().contains(">>"), "a varying bit-select shifts");
        assert!(fold("P[1:5]").is_err(), "reversed bounds");
        assert!(fold("P[k:0]").is_err(), "varying part-select bounds");
    }
}
