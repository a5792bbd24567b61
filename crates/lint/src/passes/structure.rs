//! Structural lints: combinational cycles and silent width truncation.

use crate::analysis::significant_bits;
use crate::{LintPass, LintSink};
use hwdbg_bits::Bits;
use hwdbg_dataflow::{guard, tarjan_scc, ty, Design, Scope, Ty, WidthError};
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{print_lvalue, Expr, Stmt};

/// `L0201`: a cycle among combinational drivers. The simulator's settling
/// loop will hit its iteration cap at runtime; hardware oscillates or
/// settles to a timing-dependent value. Finding the strongly connected
/// components statically names every signal on the cycle.
pub struct CombLoopPass;

impl LintPass for CombLoopPass {
    fn id(&self) -> &'static str {
        "comb-loop"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintCombLoop]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        // Nodes: comb-written signals, in ID (name) order. Edge w -> r when
        // w's driver reads r and r is itself comb-written (registers and
        // inputs break cycles).
        let index = design.index();
        const NONE: usize = usize::MAX;
        let mut node = vec![NONE; design.table.len()];
        let mut nodes = Vec::new();
        for (id, _) in design.table.iter() {
            if !index.comb_writers.get(id).is_empty() {
                node[id.index()] = nodes.len();
                nodes.push(id);
            }
        }
        // A driver's `for` variable that no other comb driver writes is a
        // procedural temporary: the loop sets it before reading it and
        // ends on the same value each run, so reading it closes no loop.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut temporaries = Vec::new();
        for comb in &design.combs {
            temporaries.clear();
            guard::walk(&comb.body, &mut Vec::new(), &mut |_, s| {
                if let Stmt::For { var, .. } = s {
                    temporaries.extend(design.sig_id(var));
                }
            });
            temporaries.retain(|&t| index.comb_writers.get(t).len() == 1);
            for w in comb.writes.iter() {
                let wi = node[w.index()];
                for r in comb.reads.iter() {
                    let ri = node[r.index()];
                    if ri != NONE && !temporaries.contains(r) {
                        adj[wi].push(ri);
                    }
                }
            }
        }
        for next in &mut adj {
            next.sort_unstable();
            next.dedup();
        }
        for scc in tarjan_scc(&adj) {
            let cyclic = scc.len() > 1 || adj[scc[0]].binary_search(&scc[0]).is_ok();
            if !cyclic {
                continue;
            }
            let names: Vec<&str> = scc.iter().map(|&i| design.table.name(nodes[i])).collect();
            let err = HwdbgError::warning(
                ErrorCode::LintCombLoop,
                format!(
                    "combinational loop through {}: each driver reads another's \
                     output, so the logic never settles",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_signals(names.iter().copied())
            .with_span(design.decl(nodes[scc[0]]).span);
            sink.emit(err);
        }
    }
}

/// `L0202`: an assignment whose right-hand side carries more significant
/// bits than the target holds. Verilog truncates silently; the paper's
/// bit-truncation bugs (e.g. a 64-bit intermediate stored in a 32-bit
/// temporary) corrupt data with no simulation-time signal.
///
/// The *effective* width refines the declared width: unsized literals and
/// parameter references count only their significant bits, comparisons are
/// one bit, and shifts keep the left operand's width — so idiomatic code
/// like `ptr <= ptr + 1` stays clean.
pub struct WidthTruncationPass;

impl LintPass for WidthTruncationPass {
    fn id(&self) -> &'static str {
        "width-truncation"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[ErrorCode::LintWidthTruncation]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        for body in design.bodies() {
            let mut guards = Vec::new();
            guard::walk(body, &mut guards, &mut |_, stmt| {
                let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                    return;
                };
                let Some(lw) = design.lvalue_width(lhs) else {
                    return;
                };
                // Signed arithmetic sign-extends rather than truncating
                // value bits; stay silent there.
                if lhs
                    .target_names()
                    .iter()
                    .chain(rhs.idents().iter())
                    .any(|n| design.signal(n).is_some_and(|s| s.signed))
                {
                    return;
                }
                let Some(rw) = eff_width(design, rhs) else {
                    return;
                };
                if rw > lw {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintWidthTruncation,
                            format!(
                                "right-hand side carries {rw} significant bits but \
                                 `{}` holds {lw}; the top {} bits are silently dropped",
                                print_lvalue(lhs),
                                rw - lw
                            ),
                        )
                        .with_span(*span),
                    );
                }
            });
        }
    }
}

/// Effective (value-carrying) width of an expression, or `None` when it
/// cannot be determined: its type's width, with unsized decimals and
/// parameters counting only their significant bits.
fn eff_width(design: &Design, e: &Expr) -> Option<u32> {
    ty(e, &Significant(design)).ok().map(|t| t.width)
}

/// A design's names, with signed literals (the unsized decimals) and
/// parameters measured by their significant bits. Concatenation parts
/// keep their exact widths.
struct Significant<'a>(&'a Design);

impl Scope for Significant<'_> {
    fn literal(&self, value: &Bits, signed: bool) -> Ty {
        let exact = Ty::literal(value, signed);
        match signed {
            true => Ty { width: significant_bits(value), ..exact },
            false => exact,
        }
    }

    fn name(&self, name: &str) -> Result<Ty, WidthError> {
        if let Some(sig) = self.0.signal(name) {
            return Ok(sig.ty());
        }
        let c = self.0.consts.get(name).ok_or_else(|| WidthError::UnknownName(name.to_owned()))?;
        Ok(Ty { width: significant_bits(c), ..Ty::param(c) })
    }

    fn element(&self, name: &str) -> Result<Ty, WidthError> {
        self.0.element(name)
    }

    fn constant(&self, e: &Expr) -> Result<u64, WidthError> {
        self.0.constant(e)
    }

    fn exact(&self) -> &dyn Scope {
        self.0
    }
}
