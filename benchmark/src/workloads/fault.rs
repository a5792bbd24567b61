//! `fault_campaign`: a journaled fault-injection campaign over the testbed.
//!
//! It uses the simulator differently from the other workloads: fault plans
//! `force` signals, which demotes fused regions to per-unit programs, and
//! the campaign pools engines and `reset`s one per job instead of stepping
//! one warm engine. Every retired job is also appended to a journal, so
//! file writes run beside the simulation.

use super::{timed, Params, Round, Run, Sizes};
use crate::layers::{Ctx, CAMPAIGN};
use crate::BoxError;
use hwdbg_bits::SplitMix64;
use hwdbg_campaign::journal::JournalWriter;
use hwdbg_campaign::{Campaign, Drive, Job, ModelSet, RunOptions, Stim, StimValue, Verdict};
use hwdbg_dataflow::SigKind;
use hwdbg_sim::{FaultPlan, RegInit};
use hwdbg_testbed::{faults, metadata, BugId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Campaign worker threads.
const WORKERS: usize = 2;

/// Passes measured at least.
const MIN_PASSES: usize = 2;

struct Sizing {
    bugs: &'static [BugId],
    random_seeds: usize,
    cycles: u64,
}

fn sizing(smoke: bool) -> Sizing {
    if smoke {
        Sizing {
            bugs: &[BugId::D2, BugId::C1],
            random_seeds: 1,
            cycles: 50,
        }
    } else {
        Sizing {
            bugs: &BugId::ALL,
            random_seeds: 7,
            cycles: 200,
        }
    }
}

/// Builds the job matrix: every bug × (`none` + each fault class) × (zero
/// init + the random inits), design-major. Jobs drive `Counter` stimulus
/// on each design's own inputs (all but its clocks and reset); without
/// stimulus most designs would execute no units at all.
fn build(ctx: &Ctx<'_>, sz: &Sizing, seed: u64) -> Result<(Campaign, Sizes), BoxError> {
    let mut rng = SplitMix64::new(seed);
    let plan_seed = rng.next_u64();
    let mut inits = vec![("zero".to_owned(), RegInit::Zero)];
    for _ in 0..sz.random_seeds {
        let s = rng.next_u64();
        inits.push((s.to_string(), RegInit::Random(s)));
    }
    let mut jobs = Vec::new();
    let mut sizes = Sizes::default();
    for &id in sz.bugs {
        let meta = metadata(id);
        let file = ctx.parse(meta.source)?;
        let design = ctx.elaborate(&file, meta.top)?;
        let (clock, stim, plans) = ctx.tr.span(CAMPAIGN, "build", || {
            let clocks = design.clocks();
            let clock = clocks
                .iter()
                .next()
                .cloned()
                .unwrap_or_else(|| "clk".into());
            let stim: Vec<Stim> = design
                .signals
                .values()
                .filter(|s| {
                    s.kind == SigKind::Input && s.name != "rst" && !clocks.contains(&s.name)
                })
                .map(|s| Stim {
                    name: s.name.clone(),
                    value: StimValue::Counter,
                })
                .collect();
            let mut plans: Vec<(&str, Option<FaultPlan>)> = vec![("none", None)];
            for class in faults::FAULT_CLASSES {
                let plan = faults::build_plan(&design, class, plan_seed)
                    .ok_or_else(|| format!("{id}: no `{class}` fault plan"))?;
                plans.push((class, Some(plan)));
            }
            Ok::<_, String>((clock, stim, plans))
        })?;
        let shared = ctx.compile(design)?;
        sizes.add(&shared);
        ctx.tr.span(CAMPAIGN, "build", || {
            for (fault, plan) in &plans {
                for (label, init) in &inits {
                    jobs.push(Job {
                        design: id.to_string(),
                        fault: (*fault).to_owned(),
                        seed: label.clone(),
                        shared: Arc::clone(&shared),
                        init: *init,
                        plan: plan.clone(),
                        drive: Drive::FreeRun {
                            clock: clock.clone(),
                            cycles: sz.cycles,
                            stim: stim.clone(),
                        },
                        models: ModelSet::std(),
                    });
                }
            }
        });
    }
    let campaign = Campaign {
        name: "fault-campaign".into(),
        jobs,
    };
    Ok((campaign, sizes))
}

/// `fault_campaign`: the whole matrix, pass after pass, on two workers
/// with a journal, each pass checked against an untimed serial run.
pub fn run(ctx: &Ctx<'_>, p: &Params) -> Result<Run, BoxError> {
    let sz = sizing(p.smoke);
    let mut run = Run::default();
    let (campaign, sizes) = super::setup(&mut run, p, || build(ctx, &sz, p.seed), drop)?;
    run.extra.extend(sizes.extras());

    let serial = ctx
        .tr
        .span(CAMPAIGN, "run_serial", || campaign.run_serial())?;
    let want = serial.results_json();
    let unsettled =
        |r: &hwdbg_campaign::CampaignReport| r.count(Verdict::Crashed) + r.count(Verdict::TimedOut);
    run.check(unsettled(&serial) == 0, || {
        "the serial reference run crashed or timed out".into()
    });

    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    let journal = dir.join("fault_campaign.journal");
    let tr = ctx.tr;
    let (mut steals, mut busy, mut pool_wall, mut steps) =
        (0u64, Duration::ZERO, Duration::ZERO, 0u64);
    let start = Instant::now();
    while run.rounds.len() < MIN_PASSES || start.elapsed().as_secs_f64() < p.seconds {
        let append_failed = AtomicBool::new(false);
        let (report, t) = timed(|| -> Result<_, BoxError> {
            let writer = tr.span(CAMPAIGN, "journal_create", || {
                JournalWriter::create(&journal, &campaign)
            })?;
            let writer = Mutex::new(writer);
            let report = tr.span(CAMPAIGN, "run", || {
                let parent = tr.current();
                campaign.run_with(WORKERS, RunOptions::default(), &BTreeMap::new(), |i, r| {
                    let t0 = Instant::now();
                    let ok = writer
                        .lock()
                        .map(|mut w| w.append(i, r).is_ok())
                        .unwrap_or(false);
                    if !ok {
                        append_failed.store(true, Ordering::Relaxed);
                    }
                    tr.record(CAMPAIGN, "journal_append", t0, parent);
                })
            })?;
            let mut writer = writer.into_inner().map_err(|_| "journal lock poisoned")?;
            tr.span(CAMPAIGN, "journal_sync", || writer.sync())?;
            Ok(report)
        });
        let report = report?;
        let jobs = report.records.len() as u64;
        let job_ms: Vec<f64> = report
            .job_wall
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        run.rounds.push(Round::new(jobs, t, &job_ms));
        run.attempted += jobs;
        run.failed += unsettled(&report) as u64;
        let got = tr.span(CAMPAIGN, "results_json", || report.results_json());
        run.check(got == want, || {
            "campaign results differ from the serial run".into()
        });
        run.check(!append_failed.load(Ordering::Relaxed), || {
            "a journal append failed".into()
        });
        steals += report.steals;
        busy += report.job_wall.iter().sum::<Duration>();
        pool_wall += report.wall * report.workers as u32;
        steps += report.merged.steps;
        ctx.absorb_counters(&report.merged);
    }

    let passes = run.rounds.len() as f64;
    run.extra
        .push(("campaign.steals".into(), steals as f64 / passes));
    run.extra.push((
        "campaign.worker_busy_frac".into(),
        busy.as_secs_f64() / pool_wall.as_secs_f64(),
    ));
    // The campaign steps its engines out of the benchmark's sight: per
    // step cost here is job wall time per simulated cycle.
    run.extra.push((
        "sim.step_ns".into(),
        busy.as_nanos() as f64 / steps.max(1) as f64,
    ));
    if tr.enabled() {
        let appends = tr
            .snapshot()
            .totals()
            .get("campaign.journal_append")
            .map_or(0, |t| t.inclusive);
        run.extra.push((
            "campaign.journal_append_frac".into(),
            appends as f64 / busy.as_nanos() as f64,
        ));
    }
    Ok(run)
}
