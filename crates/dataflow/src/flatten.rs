//! Hierarchy flattening: inline every RTL instance into a single module.
//!
//! The paper runs its analyses after Verilator's inline expansion produces
//! one flat module; this pass plays that role. Child signals are renamed
//! `inst__signal`, parameters are folded to constants, localparams are kept
//! (renamed) so the FSM monitor can still recover state names, and blackbox
//! IP instances are preserved as instances.

use crate::blackbox::BlackboxLib;
use crate::consteval::{eval_const, eval_typed, sized_param, ConstEnv};
use crate::rewrite::{rewrite_expr, rewrite_lvalue, rewrite_stmt, Repl};
use crate::DataflowError;
use hwdbg_bits::Bits;
use hwdbg_rtl::{
    Dir, Expr, Instance, Item, LValue, Module, NetDecl, Param, SourceFile,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

const MAX_DEPTH: usize = 64;

/// Flattens the hierarchy rooted at `top` into a single module.
///
/// # Errors
///
/// Fails on unknown modules (neither RTL nor blackbox), unconnected or
/// non-lvalue-connected ports, non-constant parameters, or excessive
/// recursion depth.
pub fn flatten(
    file: &SourceFile,
    top: &str,
    lib: &dyn BlackboxLib,
) -> Result<Module, DataflowError> {
    let top_mod = file
        .module(top)
        .ok_or_else(|| DataflowError::UnknownModule(top.to_owned()))?;
    let mut ctx = Flattener {
        file,
        lib,
        out_items: Vec::new(),
        used_names: HashSet::new(),
    };
    // Top parameters keep their default values and are preserved as
    // localparams of the flat module.
    let mut env = ConstEnv::new();
    for p in &top_mod.params {
        let v = eval_const(&p.value, &env).map_err(|e| e.at(p.span))?;
        env.insert(p.name.clone(), v);
    }
    let ports = top_mod
        .ports
        .iter()
        .map(|port| {
            let net = NetDecl {
                kind: port.net.kind,
                signed: port.net.signed,
                range: fold_range(&port.net.range, &env).map_err(|e| e.at(port.net.span))?,
                name: port.net.name.clone(),
                mem_dim: port.net.mem_dim.clone(),
                span: port.net.span,
            };
            Ok(hwdbg_rtl::Port {
                dir: port.dir,
                net,
            })
        })
        .collect::<Result<Vec<_>, DataflowError>>()?;
    for port in &ports {
        ctx.used_names.insert(port.net.name.as_str().into());
    }
    for p in &top_mod.params {
        ctx.out_items.push(Item::Localparam(Param {
            name: p.name.clone(),
            value: const_expr(&env[&p.name]),
            range: None,
            span: p.span,
        }));
        ctx.used_names.insert(p.name.as_str().into());
    }
    ctx.inline(top_mod, Scope::new(top_mod, String::new(), env), 0)?;
    Ok(Module {
        name: top_mod.name.clone(),
        params: Vec::new(),
        ports,
        items: ctx.out_items,
        span: top_mod.span,
    })
}

/// A folded parameter value as a literal: unsigned, as a parameter name
/// reads ([`Ty::param`](crate::Ty::param)).
fn const_expr(v: &Bits) -> Expr {
    Expr::Literal {
        value: v.clone(),
        signed: false,
    }
}

fn fold_range(
    range: &Option<(Expr, Expr)>,
    env: &ConstEnv,
) -> Result<Option<(Expr, Expr)>, DataflowError> {
    match range {
        None => Ok(None),
        Some((msb, lsb)) => Ok(Some((
            const_expr(&eval_const(msb, env)?),
            const_expr(&eval_const(lsb, env)?),
        ))),
    }
}

/// How a name declared in a module reads in the flat module.
enum Local {
    /// A net, localparam or body parameter: its prefixed name.
    Flat(Rc<str>),
    /// A header parameter: its folded value.
    Const(Bits),
}

/// The rename table and constants of one module instance, built once
/// when the instance is entered.
struct Scope<'m> {
    /// `inst__` for each instance on the path from the top.
    prefix: String,
    /// Every name the module declares. Each prefixed name is formatted
    /// once, here, shared with `used_names`, and copied into the
    /// declaration and every reference.
    names: HashMap<&'m str, Local>,
    /// Parameters and the localparams folded so far, by their own names.
    env: ConstEnv,
    /// `env` plus each key under its prefixed name: the environment for
    /// constant expressions after renaming, which may name a localparam
    /// of this scope by its flat name.
    merged: ConstEnv,
}

impl<'m> Scope<'m> {
    /// The scope of `module` under `prefix`, where `env` binds each of
    /// the module's header parameters.
    fn new(module: &'m Module, prefix: String, env: ConstEnv) -> Self {
        let mut names =
            HashMap::with_capacity(module.ports.len() + module.items.len() + module.params.len());
        let locals = module.nets().map(|n| &n.name).chain(module.items.iter().filter_map(
            |item| match item {
                Item::Localparam(p) | Item::Param(p) => Some(&p.name),
                _ => None,
            },
        ));
        let mut flat = prefix.clone();
        for name in locals {
            flat.truncate(prefix.len());
            flat.push_str(name);
            names.insert(name.as_str(), Local::Flat(Rc::from(flat.as_str())));
        }
        // A header parameter reads as its value, even where a local
        // declaration shares its name.
        for p in &module.params {
            names.insert(p.name.as_str(), Local::Const(env[&p.name].clone()));
        }
        let mut scope = Scope {
            prefix,
            names,
            env: ConstEnv::new(),
            merged: ConstEnv::new(),
        };
        for (name, v) in env {
            scope.bind(name, v);
        }
        scope
    }

    /// Binds a parameter or localparam of this scope to its value.
    fn bind(&mut self, name: String, v: Bits) {
        self.merged.insert(name.clone(), v.clone());
        if !self.prefix.is_empty() {
            self.merged.insert(format!("{}{name}", self.prefix), v.clone());
        }
        self.env.insert(name, v);
    }

    /// The flat name of a declaration in this scope.
    fn flat(&self, name: &str) -> Rc<str> {
        match self.names.get(name) {
            Some(Local::Flat(flat)) => Rc::clone(flat),
            _ => format!("{}{name}", self.prefix).into(),
        }
    }

    /// What a reference to `name` in this scope rewrites to.
    fn rename(&self, name: &str) -> Repl {
        match self.names.get(name) {
            Some(Local::Flat(flat)) => Repl::Name(flat.to_string()),
            Some(Local::Const(v)) => Repl::Expr(const_expr(v)),
            // Unknown here (e.g. a tool-introduced global); leave as is.
            None => Repl::Name(name.to_owned()),
        }
    }
}

struct Flattener<'a> {
    file: &'a SourceFile,
    lib: &'a dyn BlackboxLib,
    out_items: Vec<Item>,
    /// Every flat name declared so far, to refuse duplicates.
    used_names: HashSet<Rc<str>>,
}

impl<'a> Flattener<'a> {
    /// Inlines `module`'s body into the output under `scope`, folding its
    /// localparams into the scope as they are declared.
    fn inline(
        &mut self,
        module: &Module,
        mut scope: Scope<'_>,
        depth: usize,
    ) -> Result<(), DataflowError> {
        if depth > MAX_DEPTH {
            return Err(DataflowError::RecursionLimit(module.name.clone()));
        }
        for item in &module.items {
            match item {
                Item::Param(p) | Item::Localparam(p) => {
                    let v = (|| {
                        let value = rewrite_expr(&p.value, &|n| scope.rename(n))?;
                        let (v, t) = eval_typed(&value, &scope.merged)?;
                        sized_param(v, t, &p.range, &scope.env)
                    })()
                    .map_err(|e| e.at(p.span))?;
                    scope.bind(p.name.clone(), v.clone());
                    let flat_name = scope.flat(&p.name);
                    if self.used_names.insert(Rc::clone(&flat_name)) {
                        self.out_items.push(Item::Localparam(Param {
                            name: flat_name.to_string(),
                            value: const_expr(&v),
                            range: None,
                            span: p.span,
                        }));
                    }
                }
                Item::Net(n) => {
                    let fold_bound = |e: &Expr| -> Result<Expr, DataflowError> {
                        let v = eval_const(&rewrite_expr(e, &|x| scope.rename(x))?, &scope.merged);
                        Ok(const_expr(&v.map_err(|e| e.at(n.span))?))
                    };
                    let flat_name = scope.flat(&n.name);
                    let flat = NetDecl {
                        kind: n.kind,
                        signed: n.signed,
                        range: fold_range(&n.range, &scope.merged).map_err(|e| e.at(n.span))?,
                        name: flat_name.to_string(),
                        mem_dim: match &n.mem_dim {
                            None => None,
                            Some((lo, hi)) => Some((fold_bound(lo)?, fold_bound(hi)?)),
                        },
                        span: n.span,
                    };
                    if !self.used_names.insert(flat_name) {
                        return Err(DataflowError::DuplicateName(flat.name).at(n.span));
                    }
                    self.out_items.push(Item::Net(flat));
                }
                Item::Assign { lhs, rhs, span } => {
                    let rename = |n: &str| scope.rename(n);
                    self.out_items.push(Item::Assign {
                        lhs: rewrite_lvalue(lhs, &rename).map_err(|e| e.at(*span))?,
                        rhs: rewrite_expr(rhs, &rename).map_err(|e| e.at(*span))?,
                        span: *span,
                    });
                }
                Item::Always { event, body, span } => {
                    let event = match event {
                        hwdbg_rtl::EventControl::Comb => hwdbg_rtl::EventControl::Comb,
                        hwdbg_rtl::EventControl::Edges(edges) => hwdbg_rtl::EventControl::Edges(
                            edges
                                .iter()
                                .map(|e| hwdbg_rtl::Edge {
                                    posedge: e.posedge,
                                    signal: match scope.rename(&e.signal) {
                                        Repl::Name(n) => n,
                                        Repl::Expr(_) => e.signal.clone(),
                                    },
                                })
                                .collect(),
                        ),
                    };
                    self.out_items.push(Item::Always {
                        event,
                        body: rewrite_stmt(body, &|n| scope.rename(n))?,
                        span: *span,
                    });
                }
                Item::Instance(inst) => {
                    self.inline_instance(inst, &scope, depth)
                        .map_err(|e| e.at(inst.span))?;
                }
            }
        }
        Ok(())
    }

    fn inline_instance(
        &mut self,
        inst: &Instance,
        scope: &Scope<'_>,
        depth: usize,
    ) -> Result<(), DataflowError> {
        let rename = |n: &str| scope.rename(n);
        // Evaluate parameter overrides in the parent scope.
        let mut overrides = BTreeMap::new();
        for (name, value) in &inst.params {
            let folded = eval_typed(&rewrite_expr(value, &rename)?, &scope.merged)?;
            overrides.insert(name.clone(), folded);
        }
        if let Some(child) = self.file.module(&inst.module) {
            // RTL child: bind parameters (override or default), then recurse.
            let mut child_env = ConstEnv::new();
            for p in &child.params {
                let (v, t) = match overrides.remove(&p.name) {
                    Some(folded) => folded,
                    None => eval_typed(&p.value, &child_env)?,
                };
                let v = sized_param(v, t, &p.range, &child_env)?;
                child_env.insert(p.name.clone(), v);
            }
            if let Some((name, _)) = overrides.into_iter().next() {
                return Err(DataflowError::UnknownParam(inst.module.clone(), name));
            }
            let child_scope =
                Scope::new(child, format!("{}{}__", scope.prefix, inst.name), child_env);
            // Declare nets for the child's ports and wire them up.
            for port in &child.ports {
                let flat = child_scope.flat(&port.net.name);
                let decl = NetDecl {
                    kind: port.net.kind,
                    signed: port.net.signed,
                    range: fold_range(&port.net.range, &child_scope.env)?,
                    name: flat.to_string(),
                    mem_dim: None,
                    span: port.net.span,
                };
                if !self.used_names.insert(Rc::clone(&flat)) {
                    return Err(DataflowError::DuplicateName(decl.name));
                }
                self.out_items.push(Item::Net(decl));
                let conn = inst
                    .conns
                    .iter()
                    .find(|(n, _)| n == &port.net.name)
                    .and_then(|(_, e)| e.as_ref());
                match (port.dir, conn) {
                    (Dir::Input, Some(e)) => {
                        self.out_items.push(Item::Assign {
                            lhs: LValue::Id(flat.to_string()),
                            rhs: rewrite_expr(e, &rename)?,
                            span: inst.span,
                        });
                    }
                    (Dir::Input, None) => {
                        return Err(DataflowError::UnconnectedInput(
                            inst.name.clone(),
                            port.net.name.clone(),
                        ));
                    }
                    (Dir::Output, Some(e)) => {
                        let target = expr_to_lvalue(&rewrite_expr(e, &rename)?).ok_or_else(
                            || {
                                DataflowError::BadOutputConnection(
                                    inst.name.clone(),
                                    port.net.name.clone(),
                                )
                            },
                        )?;
                        self.out_items.push(Item::Assign {
                            lhs: target,
                            rhs: Expr::Ident(flat.to_string()),
                            span: inst.span,
                        });
                    }
                    (Dir::Output, None) => {} // unconnected output: fine
                    (Dir::Inout, _) => {
                        return Err(DataflowError::Unsupported(
                            "inout ports cannot be flattened".into(),
                        ));
                    }
                }
            }
            // Unknown connection names are configuration bugs; catch them.
            for (n, _) in &inst.conns {
                if !child.ports.iter().any(|p| &p.net.name == n) {
                    return Err(DataflowError::UnknownPort(inst.module.clone(), n.clone()));
                }
            }
            self.inline(child, child_scope, depth + 1)
        } else if let Some(spec) = self.lib.spec(&inst.module) {
            // Blackbox: keep the instance, with folded params and rewritten
            // connection expressions.
            for (n, _) in &inst.conns {
                if spec.port(n).is_none() {
                    return Err(DataflowError::UnknownPort(inst.module.clone(), n.clone()));
                }
            }
            let inst_name = format!("{}{}", scope.prefix, inst.name);
            if !self.used_names.insert(format!("{inst_name}!inst").into()) {
                return Err(DataflowError::DuplicateName(inst_name));
            }
            self.out_items.push(Item::Instance(Instance {
                module: inst.module.clone(),
                name: inst_name,
                params: inst
                    .params
                    .iter()
                    .map(|(n, _)| {
                        let (v, _) = overrides.get(n).ok_or_else(|| {
                            DataflowError::UnknownParam(inst.module.clone(), n.clone())
                        })?;
                        Ok((n.clone(), const_expr(v)))
                    })
                    .collect::<Result<Vec<_>, DataflowError>>()?,
                conns: inst
                    .conns
                    .iter()
                    .map(|(n, e)| {
                        Ok((
                            n.clone(),
                            match e {
                                Some(e) => Some(rewrite_expr(e, &rename)?),
                                None => None,
                            },
                        ))
                    })
                    .collect::<Result<Vec<_>, DataflowError>>()?,
                span: inst.span,
            }));
            Ok(())
        } else {
            Err(DataflowError::UnknownModule(inst.module.clone()))
        }
    }
}

/// Converts a connection expression into an lvalue, if it has lvalue shape.
pub fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Ident(n) => Some(LValue::Id(n.clone())),
        Expr::Index(n, i) => Some(LValue::Index(n.clone(), (**i).clone())),
        Expr::Range(n, a, b) => Some(LValue::Range(n.clone(), (**a).clone(), (**b).clone())),
        Expr::Concat(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.push(expr_to_lvalue(p)?);
            }
            Some(LValue::Concat(out))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::NoBlackboxes;
    use hwdbg_rtl::parse;

    #[test]
    fn flatten_single_module_is_identity_shaped() {
        let src = "module top(input clk, output reg [7:0] q);
            localparam STEP = 8'd3;
            always @(posedge clk) q <= q + STEP;
        endmodule";
        let f = parse(src).unwrap();
        let flat = flatten(&f, "top", &NoBlackboxes).unwrap();
        assert_eq!(flat.ports.len(), 2);
        assert!(flat.param("STEP").is_some());
    }

    #[test]
    fn flatten_inlines_child_with_params() {
        let src = "
        module adder #(parameter W = 4)(input [W-1:0] a, input [W-1:0] b, output [W-1:0] s);
            assign s = a + b;
        endmodule
        module top(input [7:0] x, output [7:0] y);
            adder #(.W(8)) u0 (.a(x), .b(8'd1), .s(y));
        endmodule";
        let f = parse(src).unwrap();
        let flat = flatten(&f, "top", &NoBlackboxes).unwrap();
        let names: Vec<_> = flat.nets().map(|n| n.name.clone()).collect();
        assert!(names.contains(&"u0__a".to_string()), "{names:?}");
        assert!(names.contains(&"u0__s".to_string()));
        // The child's W-1 range folded to 7.
        let a = flat.nets().find(|n| n.name == "u0__a").unwrap();
        let Some((msb, _)) = &a.range else { panic!() };
        assert_eq!(hwdbg_rtl::print_expr(msb), "32'h00000007");
    }

    #[test]
    fn flatten_two_levels() {
        let src = "
        module leaf(input i, output o);
            assign o = ~i;
        endmodule
        module mid(input i, output o);
            leaf l0 (.i(i), .o(o));
        endmodule
        module top(input a, output b);
            mid m0 (.i(a), .o(b));
        endmodule";
        let f = parse(src).unwrap();
        let flat = flatten(&f, "top", &NoBlackboxes).unwrap();
        let names: Vec<_> = flat.nets().map(|n| n.name.clone()).collect();
        assert!(names.contains(&"m0__l0__i".to_string()), "{names:?}");
    }

    #[test]
    fn unconnected_input_rejected() {
        let src = "
        module leaf(input i, output o); assign o = i; endmodule
        module top(output b);
            leaf l0 (.o(b));
        endmodule";
        let f = parse(src).unwrap();
        let err = flatten(&f, "top", &NoBlackboxes).unwrap_err();
        assert!(matches!(err.root(), DataflowError::UnconnectedInput(_, _)));
        assert!(err.span().is_some(), "instance errors carry a span");
    }

    #[test]
    fn unknown_module_rejected() {
        let src = "module top(input a); mystery m0 (.x(a)); endmodule";
        let f = parse(src).unwrap();
        assert!(matches!(
            flatten(&f, "top", &NoBlackboxes).unwrap_err().root(),
            DataflowError::UnknownModule(_)
        ));
    }

    #[test]
    fn unknown_port_rejected() {
        let src = "
        module leaf(input i, output o); assign o = i; endmodule
        module top(input a, output b);
            leaf l0 (.i(a), .o(b), .bogus(a));
        endmodule";
        let f = parse(src).unwrap();
        assert!(matches!(
            flatten(&f, "top", &NoBlackboxes).unwrap_err().root(),
            DataflowError::UnknownPort(_, _)
        ));
    }

    #[test]
    fn localparam_names_survive_with_prefix() {
        let src = "
        module child(input clk, output reg s);
            localparam IDLE = 1'd0;
            always @(posedge clk) s <= IDLE;
        endmodule
        module top(input clk, output w);
            child c0 (.clk(clk), .s(w));
        endmodule";
        let f = parse(src).unwrap();
        let flat = flatten(&f, "top", &NoBlackboxes).unwrap();
        assert!(flat.param("c0__IDLE").is_some());
        let printed = hwdbg_rtl::print_module(&flat);
        assert!(printed.contains("c0__s <= c0__IDLE"), "{printed}");
    }
}
