//! SignalCat: unified logging for simulation and on-FPGA debugging (§4.1).
//!
//! SignalCat discovers `$display` statements in the clocked logic of a
//! design, extracts each statement's *path constraint* (the conditions
//! under which it executes), and replaces the statements with synthesizable
//! recording logic: one [`TraceBuffer`] instance per
//! clock domain whose `din` carries all statement arguments plus a 1-bit
//! encoded path constraint per statement, and whose `enable` is the OR of
//! the constraints. After execution, [`SignalCat::reconstruct`] turns the
//! captured entries back into the records the `$display`s would have made:
//! the same [`Log`] of sites and argument values in simulation and
//! deployment.

use crate::{generated_lines, to_bool, ToolError};
use hwdbg_bits::Bits;
use hwdbg_dataflow::{guard, Design, Site, Ty};
use hwdbg_ip::TraceBuffer;
use hwdbg_rtl::{
    CaseArm, Expr, Instance, Item, LValue, Module, NetDecl, NetKind, Span, Stmt,
};
use hwdbg_sim::{Log, Simulator};
use std::collections::BTreeSet;
use std::sync::Arc;

/// SignalCat configuration.
#[derive(Debug, Clone)]
pub struct SignalCatConfig {
    /// Entries per recording buffer (the paper's evaluation sweeps
    /// 1K–8K; default 8,192 per §6.1).
    pub buffer_depth: u64,
    /// If nonzero, recording stops this many cycles after `trigger`
    /// (capture-around-event, §4.1). Zero records continuously.
    pub post_trigger: u64,
    /// Optional trigger expression (parsed against the flat module's
    /// signal names), e.g. an assertion signal.
    pub trigger: Option<Expr>,
}

impl Default for SignalCatConfig {
    fn default() -> Self {
        SignalCatConfig {
            buffer_depth: 8192,
            post_trigger: 0,
            trigger: None,
        }
    }
}

/// A discovered `$display` statement with its static metadata.
#[derive(Debug, Clone)]
pub struct DisplayStmt {
    /// Index within the instrumentation (bit position of its constraint).
    pub id: usize,
    /// The statement's site number in the design ([`Design::sites`]).
    pub site: u32,
    /// Format string.
    pub format: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
    /// Each argument's type: the width it is recorded at, and the sign
    /// `%d` renders it with.
    pub arg_tys: Vec<Ty>,
    /// Path constraint: true in exactly the cycles the statement executes.
    pub constraint: Expr,
    /// Clock of the process containing the statement.
    pub clock: String,
    /// A variable that an argument or the constraint reads and that a
    /// blocking assignment earlier in the same process writes. Its wire
    /// carries the value from before the process ran, so the record is
    /// rebuilt with that value: one cycle late.
    pub late_read: Option<String>,
}

/// One recording buffer (per clock domain).
#[derive(Debug, Clone)]
pub struct BufferInfo {
    /// Clock signal name.
    pub clock: String,
    /// Instance name of the `trace_buffer`.
    pub inst: String,
    /// IDs of the statements it records (bit `k` of the payload's low
    /// bits is statement `stmt_ids[k]`'s constraint).
    pub stmt_ids: Vec<usize>,
    /// Total payload width.
    pub payload_width: u32,
}

/// Result of SignalCat instrumentation.
#[derive(Debug, Clone)]
pub struct SignalCatInstrumented {
    /// The instrumented flat module (displays replaced by recording logic).
    pub module: Module,
    /// Discovered statements.
    pub statements: Vec<DisplayStmt>,
    /// Recording buffers, one per clock domain.
    pub buffers: Vec<BufferInfo>,
    /// Lines of Verilog the tool generated (§6.3 metric).
    pub generated_lines: usize,
    /// The original design's `$display` sites, which rebuilt records name.
    pub sites: Arc<[Site]>,
}

/// The SignalCat tool (stateless; methods are associated functions).
#[derive(Debug, Clone, Copy, Default)]
pub struct SignalCat;

impl SignalCat {
    /// Discovers the `$display` statements of a design's rising-edge
    /// processes without instrumenting: statement metadata including path
    /// constraints. Walking the processes in order counts the sites the
    /// way [`Design::sites`] numbers them.
    pub fn discover(design: &Design) -> Vec<DisplayStmt> {
        let mut stmts = Vec::new();
        let mut next_site = 0u32;
        for p in &design.procs {
            let edge = p.edges.iter().find(|e| e.posedge);
            let mut blocking = BTreeSet::new();
            guard::walk(&p.body, &mut Vec::new(), &mut |path, stmt| match stmt {
                Stmt::Assign { lhs, nonblocking: false, .. } => {
                    lhs.visit_targets(&mut |n, _| {
                        blocking.insert(n);
                    });
                }
                Stmt::For { var, .. } => {
                    blocking.insert(var.as_str());
                }
                Stmt::Display { format, args, .. } => {
                    let site = next_site;
                    next_site += 1;
                    let Some(edge) = edge else {
                        return;
                    };
                    let constraint = guard::cond(path);
                    let late_read = args
                        .iter()
                        .chain([&constraint])
                        .flat_map(Expr::idents)
                        .find(|n| blocking.contains(n))
                        .map(str::to_owned);
                    stmts.push(DisplayStmt {
                        id: stmts.len(),
                        site,
                        format: format.clone(),
                        arg_tys: design.sites()[site as usize].tys.to_vec(),
                        args: args.clone(),
                        constraint,
                        clock: edge.signal.clone(),
                        late_read,
                    });
                }
                _ => {}
            });
        }
        stmts
    }

    /// Instruments `design`: strips `$display`s from clocked logic and
    /// splices in constraint wires, argument wires, payload assembly, and
    /// one `trace_buffer` instance per clock domain.
    ///
    /// # Errors
    ///
    /// [`ToolError::NothingToInstrument`] if the design has no `$display`
    /// statements under a clock.
    pub fn instrument(
        design: &Design,
        cfg: &SignalCatConfig,
    ) -> Result<SignalCatInstrumented, ToolError> {
        let statements = Self::discover(design);
        if statements.is_empty() {
            return Err(ToolError::NothingToInstrument(
                "no $display statements in clocked logic".into(),
            ));
        }
        let mut module = design.module();
        strip_displays(&mut module);

        let mut new_items: Vec<Item> = Vec::new();
        // Constraint and argument wires.
        for s in &statements {
            new_items.push(Item::Net(NetDecl::scalar(
                NetKind::Wire,
                cond_wire(s.id),
            )));
            new_items.push(Item::Assign {
                lhs: LValue::Id(cond_wire(s.id)),
                rhs: to_bool(s.constraint.clone(), design),
                span: Span::synthetic(),
            });
            for (j, (arg, t)) in s.args.iter().zip(&s.arg_tys).enumerate() {
                new_items.push(Item::Net(NetDecl::vector(
                    NetKind::Wire,
                    arg_wire(s.id, j),
                    t.width,
                )));
                new_items.push(Item::Assign {
                    lhs: LValue::Id(arg_wire(s.id, j)),
                    rhs: arg.clone(),
                    span: Span::synthetic(),
                });
            }
        }

        // Group statements by clock; one buffer per clock.
        let mut buffers: Vec<BufferInfo> = Vec::new();
        let mut clocks: Vec<String> = statements.iter().map(|s| s.clock.clone()).collect();
        clocks.sort();
        clocks.dedup();
        for (k, clock) in clocks.iter().enumerate() {
            let stmt_ids: Vec<usize> = statements
                .iter()
                .filter(|s| &s.clock == clock)
                .map(|s| s.id)
                .collect();
            let n_conds = stmt_ids.len() as u32;
            let mut payload_width = n_conds;
            for &id in &stmt_ids {
                payload_width += statements[id].arg_tys.iter().map(|t| t.width).sum::<u32>();
            }
            let din = format!("__sc_din_{k}");
            let en = format!("__sc_en_{k}");
            new_items.push(Item::Net(NetDecl::vector(
                NetKind::Wire,
                din.clone(),
                payload_width.max(1),
            )));
            new_items.push(Item::Net(NetDecl::scalar(NetKind::Wire, en.clone())));
            // enable = OR of constraints.
            new_items.push(Item::Assign {
                lhs: LValue::Id(en.clone()),
                rhs: Expr::any(stmt_ids.iter().map(|&id| Expr::ident(cond_wire(id)))),
                span: Span::synthetic(),
            });
            // Payload layout: constraint bits in the low `n_conds` bits
            // (bit k = stmt_ids[k]), arguments packed above in order.
            for (bit, &id) in stmt_ids.iter().enumerate() {
                new_items.push(Item::Assign {
                    lhs: LValue::Index(din.clone(), Expr::number(bit as u64)),
                    rhs: Expr::ident(cond_wire(id)),
                    span: Span::synthetic(),
                });
            }
            let mut lo = n_conds;
            for &id in &stmt_ids {
                for (j, w) in statements[id].arg_tys.iter().map(|t| t.width).enumerate() {
                    if w == 0 {
                        continue;
                    }
                    new_items.push(Item::Assign {
                        lhs: LValue::Range(
                            din.clone(),
                            Expr::number(u64::from(lo + w - 1)),
                            Expr::number(u64::from(lo)),
                        ),
                        rhs: Expr::ident(arg_wire(id, j)),
                        span: Span::synthetic(),
                    });
                    lo += w;
                }
            }
            let inst = format!("__sc_buf_{k}");
            let mut conns = vec![
                ("clock".to_string(), Some(Expr::ident(clock.clone()))),
                ("enable".to_string(), Some(Expr::ident(en))),
                ("din".to_string(), Some(Expr::ident(din))),
            ];
            if let Some(trig) = &cfg.trigger {
                conns.push(("trigger".to_string(), Some(trig.clone())));
            }
            new_items.push(Item::Instance(Instance {
                module: hwdbg_ip::TRACE_BUFFER_MODULE.into(),
                name: inst.clone(),
                params: vec![
                    ("WIDTH".into(), Expr::number(u64::from(payload_width.max(1)))),
                    ("DEPTH".into(), Expr::number(cfg.buffer_depth)),
                    ("POST".into(), Expr::number(cfg.post_trigger)),
                ],
                conns,
                span: Span::synthetic(),
            }));
            buffers.push(BufferInfo {
                clock: clock.clone(),
                inst,
                stmt_ids,
                payload_width: payload_width.max(1),
            });
        }

        let lines = generated_lines(&new_items);
        module.items.extend(new_items);
        Ok(SignalCatInstrumented {
            module,
            statements,
            buffers,
            generated_lines: lines,
            sites: Arc::clone(design.sites()),
        })
    }

    /// Reconstructs the log from the recording buffers of a finished
    /// simulation of the instrumented design: one record per captured
    /// statement, named by its site in the original design and stamped
    /// with its cycle, oldest first. Its records equal, as `(site, cycle,
    /// arguments)`, the ones the original `$display` statements make.
    pub fn reconstruct(info: &SignalCatInstrumented, sim: &Simulator) -> Log {
        let mut found: Vec<(u64, u32, Vec<Bits>)> = Vec::new();
        for buf in &info.buffers {
            let Some(bb) = sim.blackbox(&buf.inst) else {
                continue;
            };
            let Some(tb) = bb.as_any().downcast_ref::<TraceBuffer>() else {
                continue;
            };
            for entry in tb.entries() {
                // Arguments are packed above the constraint bits in
                // stmt_ids order; walk the layout in lockstep.
                let mut lo = buf.stmt_ids.len() as u32;
                for (bit, &id) in buf.stmt_ids.iter().enumerate() {
                    let s = &info.statements[id];
                    let start = lo;
                    lo += s.arg_tys.iter().map(|t| t.width).sum::<u32>();
                    if !entry.data.bit(bit as u32) {
                        continue;
                    }
                    let mut alo = start;
                    let args = s.arg_tys.iter().map(|t| {
                        alo += t.width;
                        entry.data.slice(alo - t.width, t.width)
                    });
                    found.push((entry.cycle, s.site, args.collect()));
                }
            }
        }
        found.sort_by_key(|r| r.0);
        let mut log = Log::new(Arc::clone(&info.sites), usize::MAX);
        for (cycle, site, args) in &found {
            log.push(*site, *cycle, *cycle, args.iter().map(Bits::limbs));
        }
        log
    }

    /// Like [`SignalCat::reconstruct`], but marks the result *degraded*
    /// when the reconstructed log is a provably incomplete or shifted view
    /// of the run: a ring buffer wrapped (oldest records overwritten), a
    /// buffer instance is missing from the simulation entirely, or a
    /// statement reads a variable written by a blocking assignment earlier
    /// in its process ([`DisplayStmt::late_read`]). The log itself is
    /// still returned — degraded output beats no output when debugging
    /// deployed hardware (§2).
    pub fn reconstruct_checked(
        info: &SignalCatInstrumented,
        sim: &Simulator,
    ) -> hwdbg_diag::Checked<Log> {
        use hwdbg_diag::{Checked, ErrorCode, HwdbgError};
        let mut checked = Checked::clean(Self::reconstruct(info, sim));
        for s in &info.statements {
            let Some(var) = &s.late_read else {
                continue;
            };
            checked = checked.degraded(
                HwdbgError::warning(
                    ErrorCode::DegradedOutput,
                    format!(
                        "`$display(\"{}\")` (site {}) reads `{var}`, which a blocking \
                         assignment earlier in its process writes; its records carry \
                         the value from before the process ran, one cycle late",
                        s.format, s.site
                    ),
                )
                .with_signal(var),
            );
        }
        for buf in &info.buffers {
            let tb = sim
                .blackbox(&buf.inst)
                .and_then(|bb| bb.as_any().downcast_ref::<TraceBuffer>());
            match tb {
                None => {
                    checked = checked.degraded(
                        HwdbgError::warning(
                            ErrorCode::DegradedOutput,
                            format!(
                                "recording buffer `{}` (clock `{}`) is absent from the \
                                 simulation; its records are missing from the log",
                                buf.inst, buf.clock
                            ),
                        )
                        .with_signal(&buf.clock),
                    );
                }
                Some(tb) if tb.overwritten() > 0 => {
                    checked = checked.degraded(
                        HwdbgError::warning(
                            ErrorCode::DegradedOutput,
                            format!(
                                "recording buffer `{}` wrapped: the {} oldest records \
                                 were overwritten",
                                buf.inst,
                                tb.overwritten()
                            ),
                        )
                        .with_signal(&buf.clock),
                    );
                }
                Some(_) => {}
            }
        }
        checked
    }

    /// Accumulates recording-buffer occupancy into the observability
    /// registry: captured entries and ring-wrap overwrites per buffer.
    pub fn observe(
        info: &SignalCatInstrumented,
        sim: &Simulator,
        counters: &mut hwdbg_obs::SimCounters,
    ) {
        for buf in &info.buffers {
            let Some(tb) = sim
                .blackbox(&buf.inst)
                .and_then(|bb| bb.as_any().downcast_ref::<TraceBuffer>())
            else {
                continue;
            };
            counters.trace_entries += tb.len() as u64;
            counters.trace_wraps += tb.overwritten();
        }
    }
}

fn cond_wire(id: usize) -> String {
    format!("__sc_c{id}")
}

fn arg_wire(id: usize, j: usize) -> String {
    format!("__sc_a{id}_{j}")
}

/// Removes `$display` statements from the clocked logic of a module.
fn strip_displays(module: &mut Module) {
    for item in &mut module.items {
        if let Item::Always { event, body, .. } = item {
            if matches!(event, hwdbg_rtl::EventControl::Edges(_)) {
                strip_stmt(body);
            }
        }
    }
}

fn strip_stmt(stmt: &mut Stmt) {
    match stmt {
        Stmt::Display { .. } => *stmt = Stmt::Empty,
        Stmt::Block(stmts) => {
            for s in stmts.iter_mut() {
                strip_stmt(s);
            }
        }
        Stmt::If { then, els, .. } => {
            strip_stmt(then);
            if let Some(e) = els {
                strip_stmt(e);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for CaseArm { body, .. } in arms.iter_mut() {
                strip_stmt(body);
            }
            if let Some(d) = default {
                strip_stmt(d);
            }
        }
        Stmt::For { body, .. } => strip_stmt(body),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::elaborate;
    use hwdbg_ip::{StdIpLib, StdModels};
    use hwdbg_sim::{SimConfig, Simulator};

    const SRC: &str = r#"module m(input clk, input [7:0] d, input v, output reg [7:0] acc);
        always @(posedge clk) begin
            if (v) begin
                acc <= acc + d;
                $display("accept d=%0d acc=%0d", d, acc);
            end else begin
                $display("idle");
            end
        end
    endmodule"#;

    fn design() -> hwdbg_dataflow::Design {
        elaborate(&hwdbg_rtl::parse(SRC).unwrap(), "m", &StdIpLib::new()).unwrap()
    }

    #[test]
    fn discover_constraints() {
        let stmts = SignalCat::discover(&design());
        assert_eq!(stmts.len(), 2);
        assert_eq!(hwdbg_rtl::print_expr(&stmts[0].constraint), "v");
        assert_eq!(hwdbg_rtl::print_expr(&stmts[1].constraint), "!v");
        assert_eq!(stmts[0].arg_tys, vec![Ty::unsigned(8); 2]);
        assert_eq!(stmts[0].clock, "clk");
    }

    #[test]
    fn reconstruction_matches_native_simulation() {
        let lib = StdIpLib::new();
        // Native run: displays execute in the simulator.
        let d1 = design();
        let mut native = Simulator::new(d1, &StdModels, SimConfig::default()).unwrap();
        drive(&mut native);
        assert!(!native.logs().is_empty());

        // Instrumented run: displays stripped, trace buffer records.
        let info = SignalCat::instrument(&design(), &SignalCatConfig::default()).unwrap();
        assert!(info.generated_lines > 0);
        let d2 = hwdbg_dataflow::resolve(info.module.clone(), &lib).unwrap();
        let mut instr = Simulator::new(d2, &StdModels, SimConfig::default()).unwrap();
        drive(&mut instr);
        assert!(instr.logs().is_empty(), "displays must be stripped");
        let rec = SignalCat::reconstruct(&info, &instr);
        assert_eq!(values(&rec), values(native.logs()));
        let text = |log: &Log| log.iter().map(|r| r.message()).collect::<Vec<_>>();
        assert_eq!(text(&rec), text(native.logs()));
    }

    /// Each record as `(site, cycle, arguments)`.
    fn values(log: &Log) -> Vec<(u32, u64, Vec<Bits>)> {
        log.iter().map(|r| (r.site, r.cycle, r.args().collect())).collect()
    }

    /// A `$display` that reads what a blocking assignment earlier in its
    /// process wrote is recorded a cycle late; the log says so.
    #[test]
    fn a_late_read_marks_the_log_degraded() {
        let src = "module m(input clk, input [3:0] n, output reg [7:0] bl);
            always @(posedge clk) begin
                bl = $signed(4'hc) + n;
                $display(\"%h\", bl);
            end
        endmodule";
        let lib = StdIpLib::new();
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &lib).unwrap();
        let info = SignalCat::instrument(&d, &SignalCatConfig::default()).unwrap();
        let d2 = hwdbg_dataflow::resolve(info.module.clone(), &lib).unwrap();
        let mut sim = Simulator::new(d2, &StdModels, SimConfig::default()).unwrap();
        sim.poke_u64("n", 1).unwrap();
        sim.run("clk", 3).unwrap();
        let checked = SignalCat::reconstruct_checked(&info, &sim);
        assert!(!checked.is_clean());
        let w = &checked.diags[0];
        assert!(w.message.contains("reads `bl`"), "{}", w.message);
        assert!(w.message.contains("site 0"), "{}", w.message);
    }

    fn drive(sim: &mut Simulator) {
        for (v, d) in [(1u64, 5u64), (0, 0), (1, 7), (1, 2), (0, 0)] {
            sim.poke_u64("v", v).unwrap();
            sim.poke_u64("d", d).unwrap();
            sim.step("clk").unwrap();
        }
    }

    #[test]
    fn buffer_depth_bounds_capture() {
        let lib = StdIpLib::new();
        let cfg = SignalCatConfig {
            buffer_depth: 2,
            ..Default::default()
        };
        let info = SignalCat::instrument(&design(), &cfg).unwrap();
        let d2 = hwdbg_dataflow::resolve(info.module.clone(), &lib).unwrap();
        let mut sim = Simulator::new(d2, &StdModels, SimConfig::default()).unwrap();
        sim.poke_u64("v", 1).unwrap();
        for i in 0..5 {
            sim.poke_u64("d", i).unwrap();
            sim.step("clk").unwrap();
        }
        let rec = SignalCat::reconstruct(&info, &sim);
        assert_eq!(rec.len(), 2, "ring keeps only the last DEPTH entries");
        assert!(rec.get(1).unwrap().message().contains("d=4"));
    }

    #[test]
    fn observe_reports_buffer_occupancy() {
        let lib = StdIpLib::new();
        let info = SignalCat::instrument(&design(), &SignalCatConfig::default()).unwrap();
        let d2 = hwdbg_dataflow::resolve(info.module.clone(), &lib).unwrap();
        let mut sim = Simulator::new(d2, &StdModels, SimConfig::default()).unwrap();
        drive(&mut sim);
        let mut c = hwdbg_obs::SimCounters::default();
        SignalCat::observe(&info, &sim, &mut c);
        assert_eq!(c.trace_entries, 5, "one record per driven cycle");
        assert_eq!(c.trace_wraps, 0);
    }

    #[test]
    fn no_displays_is_an_error() {
        let src = "module m(input clk, output reg q);
            always @(posedge clk) q <= ~q;
        endmodule";
        let d = elaborate(&hwdbg_rtl::parse(src).unwrap(), "m", &StdIpLib::new()).unwrap();
        assert!(matches!(
            SignalCat::instrument(&d, &SignalCatConfig::default()),
            Err(ToolError::NothingToInstrument(_))
        ));
    }
}
