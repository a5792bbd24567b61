//! Statistics Monitor: event counters for bug localization (§4.4).
//!
//! The developer names single-bit events of interest (a valid strobe, an
//! interrupt, a drop condition). The monitor splices a 32-bit counter per
//! event into the design plus logging on every change, so statistical
//! anomalies — e.g. fewer valid outputs than valid inputs, the signature
//! of data loss — can be read off directly.

use crate::{clock_map, generated_lines, ToolError};
use hwdbg_dataflow::Design;
use hwdbg_rtl::{Expr, Item, LValue, Module, NetDecl, NetKind, Span, Stmt, UnaryOp};
use hwdbg_sim::Simulator;
use std::collections::BTreeMap;

/// One monitored event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Short name used in counter signals and log lines.
    pub name: String,
    /// The event expression (counted on cycles where it is truthy).
    pub expr: Expr,
}

impl Event {
    /// Creates an event from a name and an expression over flat signal
    /// names, e.g. `Event::new("in_valid", parse_expr("in_valid")?)`.
    pub fn new(name: impl Into<String>, expr: Expr) -> Self {
        Event {
            name: name.into(),
            expr,
        }
    }
}

/// Result of Statistics Monitor instrumentation.
#[derive(Debug, Clone)]
pub struct StatInstrumented {
    /// The instrumented module.
    pub module: Module,
    /// Monitored events in order.
    pub events: Vec<Event>,
    /// Lines of Verilog generated.
    pub generated_lines: usize,
}

/// The Statistics Monitor tool.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatisticsMonitor;

impl StatisticsMonitor {
    /// Counter signal name for an event.
    pub fn counter_name(event: &str) -> String {
        format!("__stat_cnt_{event}")
    }

    /// Instruments the design with one counter per event. Events are
    /// sampled on the design's primary clock unless `clock` is given.
    ///
    /// # Errors
    ///
    /// Fails when `events` is empty, the design has no clock, or an event
    /// expression references unknown signals.
    pub fn instrument(
        design: &Design,
        events: &[Event],
        clock: Option<&str>,
    ) -> Result<StatInstrumented, ToolError> {
        if events.is_empty() {
            return Err(ToolError::NothingToInstrument("no events given".into()));
        }
        let clock = match clock {
            Some(c) => c.to_owned(),
            None => clock_map(design).primary().ok_or(ToolError::NoClock)?.to_owned(),
        };
        for ev in events {
            for n in ev.expr.idents() {
                if design.sig_id(n).is_none() && !design.consts.contains_key(n) {
                    return Err(ToolError::UnknownSignal(n.to_owned()));
                }
            }
        }

        let mut module = design.module();
        let mut new_items = Vec::new();
        for ev in events {
            let cnt = Self::counter_name(&ev.name);
            new_items.push(Item::Net(NetDecl::vector(NetKind::Reg, cnt.clone(), 32)));
            let truthy = match design.expr_width(&ev.expr) {
                Some(1) => ev.expr.clone(),
                _ => Expr::Unary(UnaryOp::RedOr, Box::new(ev.expr.clone())),
            };
            let body = Stmt::if_then(
                truthy,
                Stmt::Block(vec![
                    Stmt::nonblocking(
                        LValue::Id(cnt.clone()),
                        Expr::add(Expr::ident(cnt.clone()), Expr::sized(32, 1)),
                    ),
                    Stmt::Display {
                        format: format!("STATMON {} %0d", ev.name),
                        args: vec![Expr::add(Expr::ident(cnt.clone()), Expr::sized(32, 1))],
                        span: Span::synthetic(),
                    },
                ]),
            );
            new_items.push(Item::Always {
                event: hwdbg_rtl::EventControl::Edges(vec![hwdbg_rtl::Edge {
                    posedge: true,
                    signal: clock.clone(),
                }]),
                body,
                span: Span::synthetic(),
            });
        }
        let lines = generated_lines(&new_items);
        module.items.extend(new_items);
        Ok(StatInstrumented {
            module,
            events: events.to_vec(),
            generated_lines: lines,
        })
    }

    /// Reads the final counter values out of a finished simulation.
    pub fn counts(info: &StatInstrumented, sim: &Simulator) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for ev in &info.events {
            if let Ok(v) = sim.peek(&Self::counter_name(&ev.name)) {
                out.insert(ev.name.clone(), v.to_u64());
            }
        }
        out
    }

    /// Accumulates the total number of counted statistic events into the
    /// observability registry.
    pub fn observe(
        info: &StatInstrumented,
        sim: &Simulator,
        counters: &mut hwdbg_obs::SimCounters,
    ) {
        counters.stat_events += Self::counts(info, sim).values().sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, NoBlackboxes};
    use hwdbg_rtl::parse_expr;
    use hwdbg_sim::{NoModels, SimConfig};

    const SRC: &str = "module m(input clk, input in_valid, output reg out_valid,
                               output reg [7:0] held);
        // A lossy stage: drops the input when already holding one.
        reg busy;
        always @(posedge clk) begin
            out_valid <= 1'b0;
            if (in_valid && !busy) begin
                busy <= 1'b1;
            end else if (busy) begin
                out_valid <= 1'b1;
                busy <= 1'b0;
            end
        end
    endmodule";

    #[test]
    fn counters_reveal_data_loss() {
        let d = elaborate(&hwdbg_rtl::parse(SRC).unwrap(), "m", &NoBlackboxes).unwrap();
        let events = vec![
            Event::new("in", parse_expr("in_valid").unwrap()),
            Event::new("out", parse_expr("out_valid").unwrap()),
        ];
        let info = StatisticsMonitor::instrument(&d, &events, None).unwrap();
        assert!(info.generated_lines >= 4);
        let d2 = hwdbg_dataflow::resolve(info.module.clone(), &NoBlackboxes).unwrap();
        let mut sim = hwdbg_sim::Simulator::new(d2, &NoModels, SimConfig::default()).unwrap();
        // Send 10 back-to-back inputs: every second one is dropped.
        sim.poke_u64("in_valid", 1).unwrap();
        for _ in 0..10 {
            sim.step("clk").unwrap();
        }
        sim.poke_u64("in_valid", 0).unwrap();
        for _ in 0..4 {
            sim.step("clk").unwrap();
        }
        let counts = StatisticsMonitor::counts(&info, &sim);
        assert_eq!(counts["in"], 10);
        assert!(
            counts["out"] < counts["in"],
            "statistics must expose the loss: {counts:?}"
        );
        // The change log is also present.
        assert!(sim
            .logs()
            .iter()
            .any(|l| l.message.starts_with("STATMON in ")));
    }

    #[test]
    fn unknown_event_signal_rejected() {
        let d = elaborate(&hwdbg_rtl::parse(SRC).unwrap(), "m", &NoBlackboxes).unwrap();
        let events = vec![Event::new("bad", parse_expr("ghost").unwrap())];
        assert!(matches!(
            StatisticsMonitor::instrument(&d, &events, None),
            Err(ToolError::UnknownSignal(_))
        ));
    }

    #[test]
    fn empty_events_rejected() {
        let d = elaborate(&hwdbg_rtl::parse(SRC).unwrap(), "m", &NoBlackboxes).unwrap();
        assert!(matches!(
            StatisticsMonitor::instrument(&d, &[], None),
            Err(ToolError::NothingToInstrument(_))
        ));
    }
}
