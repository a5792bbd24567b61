//! Randomized property tests on the core substrates: `Bits` arithmetic
//! against a `u128` reference model, parser/printer round-tripping over
//! generated expressions and modules, const-eval/simulator agreement, and
//! the typing rule against an independent oracle.
//!
//! Cases are driven by the in-tree [`SplitMix64`] generator with fixed
//! seeds, so every run checks the same (large) sample deterministically —
//! the offline build has no proptest, and shrinking matters less than
//! reproducibility here: a failure prints the seed/iteration inputs.

use hwdbg::bits::{Bits, SplitMix64};
use hwdbg::rtl::Expr;

const CASES: u64 = 512;

fn mask(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

// ---- Bits vs. u128 reference model ---------------------------------------

#[test]
fn add_sub_match_u128() {
    let mut rng = SplitMix64::new(0xB175_0001);
    for _ in 0..CASES {
        let (a, b) = (rng.next_u128(), rng.next_u128());
        let width = rng.range(1, 128) as u32;
        let x = Bits::from_u128(width, a);
        let y = Bits::from_u128(width, b);
        assert_eq!(
            x.add(&y).to_u128(),
            a.wrapping_add(b) & mask(width),
            "add a={a:#x} b={b:#x} width={width}"
        );
        assert_eq!(
            x.sub(&y).to_u128(),
            a.wrapping_sub(b) & mask(width),
            "sub a={a:#x} b={b:#x} width={width}"
        );
    }
}

#[test]
fn mul_matches_u128() {
    let mut rng = SplitMix64::new(0xB175_0002);
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let width = rng.range(1, 64) as u32;
        let x = Bits::from_u128(width, a as u128);
        let y = Bits::from_u128(width, b as u128);
        let expect =
            (a as u128 & mask(width)).wrapping_mul(b as u128 & mask(width)) & mask(width);
        assert_eq!(x.mul(&y).to_u128(), expect, "a={a:#x} b={b:#x} width={width}");
    }
}

#[test]
fn div_rem_match_u128() {
    let mut rng = SplitMix64::new(0xB175_0003);
    for i in 0..CASES {
        let width = rng.range(1, 128) as u32;
        let am = rng.next_u128() & mask(width);
        // Exercise the divide-by-zero convention on a slice of the cases.
        let bm = if i % 8 == 0 { 0 } else { rng.next_u128() & mask(width) };
        let x = Bits::from_u128(width, am);
        let y = Bits::from_u128(width, bm);
        match (am.checked_div(bm), am.checked_rem(bm)) {
            // Hardware convention: division by zero yields zero.
            (None, None) => {
                assert!(x.div(&y).is_zero(), "a={am:#x} width={width}");
                assert!(x.rem(&y).is_zero(), "a={am:#x} width={width}");
            }
            (Some(q), Some(r)) => {
                assert_eq!(x.div(&y).to_u128(), q, "a={am:#x} b={bm:#x} width={width}");
                assert_eq!(x.rem(&y).to_u128(), r, "a={am:#x} b={bm:#x} width={width}");
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn shifts_match_u128() {
    let mut rng = SplitMix64::new(0xB175_0004);
    for _ in 0..CASES {
        let a = rng.next_u128();
        let sh = rng.below(140) as u32;
        let width = rng.range(1, 128) as u32;
        let x = Bits::from_u128(width, a);
        let expect = if sh >= width {
            0
        } else {
            ((a & mask(width)) << sh) & mask(width)
        };
        assert_eq!(x.shl(sh).to_u128(), expect, "shl a={a:#x} sh={sh} width={width}");
        let expect_r = if sh >= 128 { 0 } else { (a & mask(width)) >> sh };
        assert_eq!(x.shr(sh).to_u128(), expect_r, "shr a={a:#x} sh={sh} width={width}");
    }
}

#[test]
fn concat_slice_roundtrip() {
    let mut rng = SplitMix64::new(0xB175_0005);
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let wa = rng.range(1, 64) as u32;
        let wb = rng.range(1, 64) as u32;
        let hi = Bits::from_u64(wa, a);
        let lo = Bits::from_u64(wb, b);
        let cat = hi.concat(&lo);
        assert_eq!(cat.width(), wa + wb);
        assert_eq!(cat.slice(0, wb), lo, "a={a:#x} b={b:#x} wa={wa} wb={wb}");
        assert_eq!(cat.slice(wb, wa), hi, "a={a:#x} b={b:#x} wa={wa} wb={wb}");
    }
}

#[test]
fn dec_string_matches_u128() {
    let mut rng = SplitMix64::new(0xB175_0006);
    for _ in 0..CASES {
        let a = rng.next_u128();
        let width = rng.range(1, 128) as u32;
        let x = Bits::from_u128(width, a);
        assert_eq!(x.to_dec_string(), format!("{}", a & mask(width)));
    }
}

#[test]
fn literal_roundtrip() {
    let mut rng = SplitMix64::new(0xB175_0007);
    for _ in 0..CASES {
        let width = rng.range(1, 64) as u32;
        let v = rng.next_u64() & mask(width) as u64;
        let text = format!("{width}'h{v:x}");
        let parsed = Bits::parse_literal(&text).unwrap();
        assert_eq!(parsed.to_u64(), v, "text={text}");
        assert_eq!(parsed.width(), width, "text={text}");
    }
}

// ---- Random expression generator -----------------------------------------

/// Produces a random well-formed expression over a small identifier
/// alphabet, with bounded recursion depth: every operator, unsized
/// decimals and signed based literals, and sign casts, so the typing rule
/// meets every node kind.
fn arb_expr(rng: &mut SplitMix64, depth: u32) -> String {
    const IDENTS: [&str; 4] = ["a", "b", "c", "sel"];
    const BINOPS: [&str; 18] = [
        "+", "-", "*", "/", "%", "&", "|", "^", "==", "!=", "<", ">", ">=", "&&", "||", "<<",
        ">>", ">>>",
    ];
    if depth == 0 || rng.below(4) == 0 {
        // Leaf: identifier, sized (possibly signed) or unsized literal.
        if rng.next_bool() {
            return IDENTS[rng.below(IDENTS.len() as u64) as usize].to_owned();
        }
        let w = rng.range(1, 16);
        let v = rng.below(200) & ((1 << w) - 1);
        return match rng.below(3) {
            0 => format!("{w}'h{v:x}"),
            1 => format!("{w}'sh{v:x}"),
            _ => format!("{v}"),
        };
    }
    match rng.below(9) {
        0 => {
            let l = arb_expr(rng, depth - 1);
            let r = arb_expr(rng, depth - 1);
            let op = BINOPS[rng.below(BINOPS.len() as u64) as usize];
            format!("({l}) {op} ({r})")
        }
        1 => format!("~({})", arb_expr(rng, depth - 1)),
        2 => format!("!({})", arb_expr(rng, depth - 1)),
        3 => {
            let c = arb_expr(rng, depth - 1);
            let t = arb_expr(rng, depth - 1);
            let f = arb_expr(rng, depth - 1);
            format!("({c}) ? ({t}) : ({f})")
        }
        4 => {
            let l = arb_expr(rng, depth - 1);
            let r = arb_expr(rng, depth - 1);
            format!("{{({l}), ({r})}}")
        }
        5 => {
            let n = rng.range(1, 5);
            format!("{{{n}{{({})}}}}", arb_expr(rng, depth - 1))
        }
        6 => format!("-({})", arb_expr(rng, depth - 1)),
        7 => format!("$signed({})", arb_expr(rng, depth - 1)),
        _ => format!("$unsigned({})", arb_expr(rng, depth - 1)),
    }
}

// ---- Independent typing oracle --------------------------------------------

/// A name as the typing oracle sees it.
#[derive(Debug, Clone, Copy)]
struct Decl {
    width: u32,
    signed: bool,
    memory: bool,
}

/// A parameter: unsigned at its value's width.
fn param(width: u32) -> Decl {
    Decl { width, signed: false, memory: false }
}

/// The `(width, signed)` README's "Supported Verilog subset" gives `e`,
/// written from that paragraph alone: it reads the AST and calls nothing
/// in `hwdbg-dataflow` or `hwdbg-sim`, so it is a second implementation of
/// `hwdbg_dataflow::ty` rather than a copy. `decl` gives a name's
/// declaration and `fold` a constant bound or count; `None` when either
/// does not know.
fn oracle_ty(
    e: &Expr,
    decl: &dyn Fn(&str) -> Option<Decl>,
    fold: &dyn Fn(&Expr) -> Option<u64>,
) -> Option<(u32, bool)> {
    use hwdbg::rtl::{BinaryOp as B, UnaryOp as U};
    let t = |x: &Expr| oracle_ty(x, decl, fold);
    Some(match e {
        // Unsized decimals and `s` literals are signed, at their written
        // width (32 when unsized).
        Expr::Literal { value, signed } => (value.width(), *signed),
        Expr::Ident(n) => decl(n).map(|d| (d.width, d.signed))?,
        Expr::Unary(U::Not | U::Neg, a) => t(a)?,
        Expr::Unary(..) => (1, false),
        Expr::Binary(op, a, b) => {
            let ((aw, sa), (bw, sb)) = (t(a)?, t(b)?);
            match op {
                B::Lt | B::Le | B::Gt | B::Ge | B::Eq | B::Ne | B::LogAnd | B::LogOr => (1, false),
                B::Shl | B::Shr | B::AShr => (aw, sa),
                _ => (aw.max(bw), sa && sb),
            }
        }
        Expr::Ternary(_, x, y) => {
            let ((xw, sx), (yw, sy)) = (t(x)?, t(y)?);
            (xw.max(yw), sx && sy)
        }
        Expr::Index(n, _) => {
            let d = decl(n)?;
            (if d.memory { d.width } else { 1 }, false)
        }
        Expr::Range(_, m, l) => (u32::try_from(fold(m)?.checked_sub(fold(l)?)? + 1).ok()?, false),
        Expr::Concat(parts) => (parts.iter().map(|p| Some(t(p)?.0)).sum::<Option<u32>>()?, false),
        Expr::Repeat(n, body) => (u32::try_from(fold(n)?).ok()?.checked_mul(t(body)?.0)?, false),
        Expr::WidthCast(w, _) => (*w, false),
        Expr::SignCast(signed, a) => (t(a)?.0, *signed),
    })
}

/// Folds a bound or count the way the testbed writes them: literals and
/// parameters under `+ - * /`.
fn fold_bound(e: &Expr, params: &dyn Fn(&str) -> Option<u64>) -> Option<u64> {
    use hwdbg::rtl::BinaryOp as B;
    match e {
        Expr::Literal { value, .. } => Some(value.to_u64()),
        Expr::Ident(n) => params(n),
        Expr::Binary(op, a, b) => {
            let (a, b) = (fold_bound(a, params)?, fold_bound(b, params)?);
            match op {
                B::Add => a.checked_add(b),
                B::Sub => a.checked_sub(b),
                B::Mul => a.checked_mul(b),
                B::Div => a.checked_div(b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The generated expressions' names, as parameters: `(name, width, value)`.
const NAMES: [(&str, u32, u64); 4] = [("a", 8, 0x5A), ("b", 8, 0x33), ("c", 8, 0x0F), ("sel", 1, 1)];

fn names_decl(n: &str) -> Option<Decl> {
    NAMES.iter().find(|p| p.0 == n).map(|p| param(p.1))
}

fn literal_fold(e: &Expr) -> Option<u64> {
    fold_bound(e, &|_| None)
}

/// The oracle agrees with `ty` on generated expressions, over parameters
/// and over a design that declares one of the names signed.
#[test]
fn typing_oracle_matches_ty() {
    let env: hwdbg::dataflow::ConstEnv = NAMES
        .iter()
        .map(|&(n, w, v)| (n.to_string(), Bits::from_u64(w, v)))
        .collect();
    let src = "module m(input [7:0] a, input signed [7:0] b, input [7:0] c, input sel);
               endmodule";
    let design = hwdbg::dataflow::elaborate(
        &hwdbg::rtl::parse(src).unwrap(),
        "m",
        &hwdbg::dataflow::NoBlackboxes,
    )
    .unwrap();
    let design_decl = |n: &str| {
        let d = names_decl(n)?;
        Some(Decl { signed: n == "b", ..d })
    };
    let mut rng = SplitMix64::new(0xE10A_0004);
    for _ in 0..2048 {
        let e = arb_expr(&mut rng, 4);
        let expr = hwdbg::rtl::parse_expr(&e).unwrap();
        let want = oracle_ty(&expr, &names_decl, &literal_fold).unwrap();
        let got = hwdbg::dataflow::ty(&expr, &env).unwrap();
        assert_eq!((got.width, got.signed), want, "over parameters: {e}");
        let want = oracle_ty(&expr, &design_decl, &literal_fold).unwrap();
        let got = hwdbg::dataflow::ty(&expr, &design).unwrap();
        assert_eq!((got.width, got.signed), want, "over the design: {e}");
    }
}

/// The oracle agrees with `ty` on every assignment's right-hand side
/// (`assign`, `=` and `<=`) in the 40 testbed variants and the
/// `fixtures/*.v` designs (top module: the file's last).
#[test]
fn typing_oracle_matches_ty_on_the_corpus() {
    use hwdbg::testbed::{buggy_design, fixed_design, BugId};
    let mut designs = Vec::new();
    for id in BugId::ALL {
        designs.push((format!("{id}-buggy"), buggy_design(id).unwrap()));
        designs.push((format!("{id}-fixed"), fixed_design(id).unwrap()));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "v") {
            let file = hwdbg::rtl::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let top = file.modules.last().unwrap().name.clone();
            let lib = hwdbg::ip::StdIpLib::new();
            let design = hwdbg::dataflow::elaborate(&file, &top, &lib).unwrap();
            designs.push((path.display().to_string(), design));
        }
    }
    let mut checked = 0;
    for (name, design) in &designs {
        let params = |n: &str| design.consts.get(n).map(Bits::to_u64);
        let decl = |n: &str| match (design.signal(n), design.consts.get(n)) {
            (Some(s), _) => Some(Decl {
                width: s.width,
                signed: s.signed,
                memory: s.mem_depth.is_some(),
            }),
            (None, Some(c)) => Some(param(c.width())),
            (None, None) => None,
        };
        let mut rhss = Vec::new();
        for body in design.bodies() {
            assigned(body, &mut rhss);
        }
        for rhs in rhss {
            let src = hwdbg::rtl::print_expr(rhs);
            let want = oracle_ty(rhs, &decl, &|e| fold_bound(e, &params));
            let want = want.unwrap_or_else(|| panic!("{name}: the oracle cannot type {src}"));
            let got = hwdbg::dataflow::ty(rhs, design).unwrap();
            assert_eq!((got.width, got.signed), want, "{name}: {src}");
            checked += 1;
        }
    }
    assert!(checked > 600, "only {checked} right-hand sides");
}

/// Every assignment's right-hand side in `s`: `assign`, `=` and `<=`.
fn assigned<'a>(s: &'a hwdbg::rtl::Stmt, out: &mut Vec<&'a Expr>) {
    use hwdbg::rtl::Stmt;
    match s {
        Stmt::Assign { rhs, .. } => out.push(rhs),
        Stmt::Block(stmts) => stmts.iter().for_each(|s| assigned(s, out)),
        Stmt::If { then, els, .. } => {
            assigned(then, out);
            els.iter().for_each(|e| assigned(e, out));
        }
        Stmt::Case { arms, default, .. } => {
            arms.iter().for_each(|arm| assigned(&arm.body, out));
            default.iter().for_each(|d| assigned(d, out));
        }
        Stmt::For { body, .. } => assigned(body, out),
        Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => {}
    }
}

// ---- Parser / printer round-trip -----------------------------------------

/// print(parse(e)) is a fixpoint: re-parsing the printed text yields a
/// structurally identical AST.
#[test]
fn expr_print_parse_fixpoint() {
    let mut rng = SplitMix64::new(0xE10A_0001);
    for _ in 0..128 {
        let src = arb_expr(&mut rng, 4);
        let ast1 = hwdbg::rtl::parse_expr(&src).unwrap();
        let printed1 = hwdbg::rtl::print_expr(&ast1);
        let ast2 = hwdbg::rtl::parse_expr(&printed1).unwrap();
        assert_eq!(ast1, ast2, "src: {src}\nprinted: {printed1}");
    }
}

/// Random always-block bodies survive a module-level round trip.
#[test]
fn module_print_parse_fixpoint() {
    let mut rng = SplitMix64::new(0xE10A_0002);
    for _ in 0..64 {
        let e1 = arb_expr(&mut rng, 3);
        let e2 = arb_expr(&mut rng, 3);
        let src = format!(
            "module m(input clk, input [7:0] a, input [7:0] b, input [7:0] c, input sel,
                      output reg [15:0] q);
               always @(posedge clk) begin
                 if ({e1}) q <= {e2};
                 else q <= q + 16'd1;
               end
             endmodule"
        );
        let ast1 = hwdbg::rtl::parse(&src).unwrap();
        let printed = hwdbg::rtl::print(&ast1);
        let ast2 = hwdbg::rtl::parse(&printed).unwrap();
        assert_eq!(hwdbg::rtl::print(&ast2), printed, "e1: {e1}\ne2: {e2}");
    }
}

/// Constant folding agrees with the simulator: evaluating an expression
/// over constants gives the same value through `eval_const` and through a
/// simulated continuous assignment.
#[test]
fn const_eval_matches_simulation() {
    let mut rng = SplitMix64::new(0xE10A_0003);
    for _ in 0..128 {
        let e = arb_expr(&mut rng, 4);
        // Bind the free identifiers to fixed constants, at the module's
        // port widths.
        let env: hwdbg::dataflow::ConstEnv = NAMES
            .iter()
            .map(|&(n, w, v)| (n.to_string(), Bits::from_u64(w, v)))
            .collect();
        let expr = hwdbg::rtl::parse_expr(&e).unwrap();
        let Ok(folded) = hwdbg::dataflow::eval_const(&expr, &env) else {
            continue; // e.g. zero replication count
        };
        // The assignment into 64 bits extends by the oracle's sign.
        let (width, signed) = oracle_ty(&expr, &names_decl, &literal_fold).unwrap();
        assert_eq!(folded.width(), width, "expr: {e}");
        let want = if signed { folded.resize_signed(64) } else { folded.resize(64) };

        let src = format!(
            "module m(input [7:0] a, input [7:0] b, input [7:0] c, input sel,
                      output [63:0] q);
               assign q = {e};
             endmodule"
        );
        let design = hwdbg::dataflow::elaborate(
            &hwdbg::rtl::parse(&src).unwrap(),
            "m",
            &hwdbg::dataflow::NoBlackboxes,
        )
        .unwrap();
        let mut sim = hwdbg::sim::Simulator::new(
            design,
            &hwdbg::sim::NoModels,
            hwdbg::sim::SimConfig::default(),
        )
        .unwrap();
        sim.poke_u64("a", 0x5A).unwrap();
        sim.poke_u64("b", 0x33).unwrap();
        sim.poke_u64("c", 0x0F).unwrap();
        sim.poke_u64("sel", 1).unwrap();
        sim.settle().unwrap();
        let got = sim.peek("q").unwrap().to_u64();
        assert_eq!(got, want.to_u64(), "expr: {e}");
    }
}
