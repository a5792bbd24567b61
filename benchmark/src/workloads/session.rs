//! `debug_session`: the push-button debug loop of `hwdbg profile`, run
//! through the public APIs on every testbed design, buggy and fixed.
//!
//! The designs are small, so per-design costs dominate and steady-state
//! simulation is negligible: parsing and elaboration, lint, tool
//! instrumentation, re-resolving each instrumented module, engine
//! construction and the testbed workload drive. This is the wait the
//! paper's user sits through.

use super::{timed, Params, Round, Run, Sizes};
use crate::layers::{Ctx, DATAFLOW, RTL, SIM, TESTBED, TOOLS};
use crate::trace::BENCH;
use crate::BoxError;
use hwdbg_bits::SplitMix64;
use hwdbg_obs::SimCounters;
use hwdbg_sim::{CompiledDesign, SimConfig, Simulator};
use hwdbg_testbed::lint_expect::expected_lints;
use hwdbg_testbed::{metadata, workloads, BugId, LossSpec, Outcome, Symptom};
use hwdbg_tools::losscheck::LossCheckConfig;
use hwdbg_tools::signalcat::SignalCatConfig;
use hwdbg_tools::statmon::Event;
use hwdbg_tools::{DependencyMonitor, FsmMonitor, LossCheck, SignalCat, StatisticsMonitor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Cycles LossCheck and the Statistics Monitor free-run (`hwdbg profile`'s
/// default).
const TOOL_CYCLES: u64 = 200;

/// Passes over all designs per round: 400 sessions, so a round's 95th
/// percentile has 20 sessions beyond it.
const PASSES_PER_ROUND: usize = 10;

/// The clock every testbed design uses.
const CLOCK: &str = "clk";

/// One design the loop debugs.
struct Entry {
    id: BugId,
    fixed: bool,
    source: String,
    top: &'static str,
    loss: Option<LossSpec>,
    symptoms: &'static [Symptom],
}

fn entries(smoke: bool) -> Vec<Entry> {
    let ids: &[BugId] = if smoke {
        &[BugId::D2, BugId::C1]
    } else {
        &BugId::ALL
    };
    let mut out = Vec::with_capacity(ids.len() * 2);
    for &id in ids {
        let meta = metadata(id);
        for fixed in [false, true] {
            out.push(Entry {
                id,
                fixed,
                source: if fixed {
                    meta.fixed_source()
                } else {
                    meta.source.to_owned()
                },
                top: meta.top,
                loss: meta.loss,
                symptoms: meta.symptoms,
            });
        }
    }
    out
}

/// What one session concluded.
struct Verdict {
    outcome: Outcome,
    lint_codes: Vec<&'static str>,
}

/// Runs the testbed workload for `id` on `sim`.
fn drive(ctx: &Ctx<'_>, id: BugId, sim: &mut Simulator) -> Result<Outcome, hwdbg_sim::SimError> {
    ctx.tr.span(TESTBED, "workload", || workloads::run(id, sim))
}

/// Re-resolves an instrumented module, compiles it and builds its engine.
fn instrumented(ctx: &Ctx<'_>, module: &hwdbg_rtl::Module) -> Result<Simulator, BoxError> {
    let design = ctx.resolve_copy(module)?;
    let shared = ctx.compile(design)?;
    ctx.build(&shared, SimConfig::default())
}

/// One debug session on one design.
fn session(ctx: &Ctx<'_>, e: &Entry) -> Result<Verdict, BoxError> {
    ctx.tr.span(BENCH, "session", || {
        let file = ctx.parse(&e.source)?;
        let design = ctx.elaborate(&file, e.top)?;
        ctx.free(RTL, file);
        let mut lint_codes: Vec<&'static str> =
            ctx.lint(&design).iter().map(|f| f.code.as_str()).collect();
        lint_codes.sort_unstable();
        lint_codes.dedup();

        // The tools need the design afterwards; the copy is part of the
        // compile cost, as in `Simulator::new(design.clone(), ..)`.
        let shared = ctx
            .tr
            .span(SIM, "compile", || CompiledDesign::new(design.clone()))?;
        let mut sim = ctx.build(&Arc::new(shared), SimConfig::default())?;
        let outcome = drive(ctx, e.id, &mut sim)?;
        let mut counters = SimCounters::default();
        ctx.tr.span(TOOLS, "depmon.observe", || {
            DependencyMonitor::observe(&sim, &mut counters)
        });
        ctx.absorb(&sim);
        ctx.free(SIM, sim);

        let mut errors = 0u32;
        match ctx.tr.span(TOOLS, "signalcat.instrument", || {
            SignalCat::instrument(&design, &SignalCatConfig::default())
        }) {
            Ok(info) => {
                let mut s = instrumented(ctx, &info.module)?;
                if drive(ctx, e.id, &mut s).is_err() {
                    errors += 1;
                }
                black_box(ctx.tr.span(TOOLS, "signalcat.reconstruct", || {
                    SignalCat::reconstruct(&info, &s)
                }));
                ctx.absorb(&s);
                ctx.free(SIM, s);
                ctx.free(TOOLS, info);
            }
            Err(_) => errors += 1,
        }

        black_box(
            ctx.tr
                .span(TOOLS, "fsm.detect", || FsmMonitor::detect(&design)),
        );
        match ctx.tr.span(TOOLS, "fsm.instrument", || {
            FsmMonitor::new().instrument(&design)
        }) {
            Ok(info) => {
                let mut s = instrumented(ctx, &info.module)?;
                if drive(ctx, e.id, &mut s).is_err() {
                    errors += 1;
                }
                black_box(
                    ctx.tr
                        .span(TOOLS, "fsm.trace", || FsmMonitor::trace(&info, &s)),
                );
                ctx.absorb(&s);
                ctx.free(SIM, s);
                ctx.free(TOOLS, info);
            }
            Err(_) => errors += 1,
        }

        if let Some(loss) = &e.loss {
            let graph = ctx.propgraph(&design)?;
            let cfg = LossCheckConfig {
                source: loss.source.to_owned(),
                sink: loss.sink.to_owned(),
                source_valid: loss.valid.to_owned(),
            };
            match ctx.tr.span(TOOLS, "losscheck.instrument", || {
                LossCheck::instrument(&design, &graph, &cfg)
            }) {
                Ok(info) => {
                    let mut s = instrumented(ctx, &info.module)?;
                    ctx.steps(&mut s, CLOCK, TOOL_CYCLES, false, |_| {})?;
                    black_box(
                        ctx.tr
                            .span(TOOLS, "losscheck.reports", || LossCheck::reports(s.logs())),
                    );
                    ctx.absorb(&s);
                    ctx.free(SIM, s);
                    ctx.free(TOOLS, info);
                }
                Err(_) => errors += 1,
            }

            let expr = ctx
                .tr
                .span(RTL, "parse_expr", || hwdbg_rtl::parse_expr(loss.valid))?;
            let events = [Event::new("valid", expr)];
            match ctx.tr.span(TOOLS, "statmon.instrument", || {
                StatisticsMonitor::instrument(&design, &events, None)
            }) {
                Ok(info) => {
                    let mut s = instrumented(ctx, &info.module)?;
                    ctx.steps(&mut s, CLOCK, TOOL_CYCLES, false, |_| {})?;
                    black_box(ctx.tr.span(TOOLS, "statmon.counts", || {
                        StatisticsMonitor::counts(&info, &s)
                    }));
                    ctx.absorb(&s);
                    ctx.free(SIM, s);
                    ctx.free(TOOLS, info);
                }
                Err(_) => errors += 1,
            }
            ctx.free(DATAFLOW, graph);
        }
        ctx.free(DATAFLOW, design);
        ctx.tr.note("tools.errors", f64::from(errors));
        Ok(Verdict {
            outcome,
            lint_codes,
        })
    })
}

/// Checks a session against the testbed's ground truth: a buggy design
/// shows one of its documented symptoms and exactly its expected lint
/// codes; a fixed design passes and lints clean.
fn verify(e: &Entry, v: &Verdict) -> Result<(), String> {
    let variant = if e.fixed { "fixed" } else { "buggy" };
    let verdict_ok = match &v.outcome {
        Outcome::Pass => e.fixed,
        Outcome::Fail { symptom, .. } => !e.fixed && e.symptoms.contains(symptom),
    };
    if !verdict_ok {
        return Err(format!(
            "{} {variant}: unexpected verdict {:?}",
            e.id, v.outcome
        ));
    }
    let want: &[&str] = if e.fixed { &[] } else { expected_lints(e.id) };
    if v.lint_codes != want {
        return Err(format!(
            "{} {variant}: lint codes {:?}, expected {want:?}",
            e.id, v.lint_codes
        ));
    }
    Ok(())
}

/// `debug_session`: passes over all designs, each in a fresh seeded order,
/// until the measured time is used up.
pub fn run(ctx: &Ctx<'_>, p: &Params) -> Result<Run, BoxError> {
    let designs = entries(p.smoke);
    let mut run = Run::default();
    let sizes = super::setup(
        &mut run,
        p,
        || {
            let mut sizes = Sizes::default();
            for e in &designs {
                let file = ctx.parse(&e.source)?;
                let design = ctx.elaborate(&file, e.top)?;
                let shared = ctx.compile(design)?;
                ctx.build(&shared, SimConfig::default())?;
                sizes.add(&shared);
            }
            Ok(sizes)
        },
        drop,
    )?;
    run.extra.extend(sizes.extras());

    let passes = if p.smoke { 1 } else { PASSES_PER_ROUND };
    let mut rng = SplitMix64::new(p.seed);
    let mut order: Vec<usize> = (0..designs.len()).collect();
    let start = Instant::now();
    while run.rounds.is_empty() || start.elapsed().as_secs_f64() < p.seconds {
        let round = Instant::now();
        let mut op_ms = Vec::with_capacity(passes * order.len());
        for _ in 0..passes {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for &i in &order {
                let e = &designs[i];
                let (verdict, t) = timed(|| session(ctx, e));
                op_ms.push(t * 1e3);
                let checked = verdict
                    .map_err(|err| format!("{} session failed: {err}", e.id))
                    .and_then(|v| verify(e, &v));
                run.check(checked.is_ok(), || checked.err().unwrap_or_default());
            }
        }
        run.rounds.push(Round::new(
            op_ms.len() as u64,
            round.elapsed().as_secs_f64(),
            &op_ms,
        ));
    }
    Ok(run)
}
