//! Campaign jobs: one simulation each, verdict + counters out.

use crate::report::{CampaignReport, JobRecord};
use crate::runner::{panic_message, run_sharded};
use crate::CampaignError;
use hwdbg_ip::StdModels;
use hwdbg_obs::SimCounters;
use hwdbg_sim::{
    run_with_faults, BlackboxFactory, CompiledDesign, FaultPlan, RegInit, SimConfig, SimError,
    Simulator,
};
use hwdbg_testbed::{workloads, BugId, Outcome};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-worker engine pool: one warm [`Simulator`] per compiled design,
    /// keyed by the `Arc<CompiledDesign>` allocation address. A pooled
    /// simulator holds its own clone of that `Arc`, so the allocation (and
    /// therefore the key) cannot be reused by a different design while the
    /// entry exists. Jobs *take* the engine out, [`Simulator::reset`] it to
    /// the job's config, run, and put it back; a panicking job simply drops
    /// the engine (it is out of the pool for the duration), so crashed
    /// state never leaks into a later job.
    static ENGINE_POOL: RefCell<BTreeMap<usize, Simulator>> = const { RefCell::new(BTreeMap::new()) };
}

/// A warm engine for `job`: pooled and reset when this thread has run the
/// design before, freshly compiled otherwise. `reset` reproduces
/// construction byte-for-byte (same RNG draw order for random init), so
/// pooled and cold runs yield identical records.
fn pooled_simulator(job: &Job, config: SimConfig) -> Result<Simulator, SimError> {
    let key = Arc::as_ptr(&job.shared) as usize;
    if let Some(mut sim) = ENGINE_POOL.with(|p| p.borrow_mut().remove(&key)) {
        sim.reset(job.models.factory(), config)?;
        return Ok(sim);
    }
    Simulator::from_compiled(Arc::clone(&job.shared), job.models.factory(), config)
}

/// Returns a finished job's engine to this worker's pool. Safe even after
/// a typed simulator error — the next take resets it wholesale.
fn return_simulator(job: &Job, sim: Simulator) {
    let key = Arc::as_ptr(&job.shared) as usize;
    ENGINE_POOL.with(|p| {
        p.borrow_mut().insert(key, sim);
    });
}

/// How a job drives its simulator.
#[derive(Debug, Clone)]
pub enum Drive {
    /// Run the bug's testbed workload (pass/fail verdict). Faults do not
    /// compose with workload drives — the workload owns the clocking.
    Workload(BugId),
    /// Free-run `cycles` edges of `clock`, optionally poking stimulus
    /// before every edge and applying the job's fault plan.
    FreeRun {
        /// The clock signal to step.
        clock: String,
        /// How many cycles to run.
        cycles: u64,
        /// Per-cycle stimulus pokes (resolved to interned IDs once).
        stim: Vec<Stim>,
    },
}

/// One per-cycle stimulus assignment.
#[derive(Debug, Clone)]
pub struct Stim {
    /// Target signal name.
    pub name: String,
    /// Value driven before each edge.
    pub value: StimValue,
}

/// The value a [`Stim`] drives.
#[derive(Debug, Clone, Copy)]
pub enum StimValue {
    /// The same constant every cycle.
    Const(u64),
    /// The current cycle index (0, 1, 2, ...) — a free counter pattern.
    Counter,
}

/// The blackbox model factory a job's simulator is built with. Shared by
/// `Arc` so jobs stay cheap to clone and `Send + Sync`; defaults to the
/// standard IP library. Campaigns that exercise crash isolation inject a
/// deliberately panicking model through [`ModelSet::custom`].
#[derive(Clone)]
pub struct ModelSet(Arc<dyn BlackboxFactory + Send + Sync>);

impl ModelSet {
    /// The standard IP model library (`hwdbg-ip`).
    pub fn std() -> Self {
        ModelSet(Arc::new(StdModels))
    }

    /// A custom factory — e.g. a fault-injection wrapper around the
    /// standard models.
    pub fn custom(factory: Arc<dyn BlackboxFactory + Send + Sync>) -> Self {
        ModelSet(factory)
    }

    pub(crate) fn factory(&self) -> &dyn BlackboxFactory {
        &*self.0
    }
}

impl Default for ModelSet {
    fn default() -> Self {
        ModelSet::std()
    }
}

impl std::fmt::Debug for ModelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ModelSet(..)")
    }
}

/// One simulation job: which compiled design, which initialization,
/// which fault plan, and how to drive it. Jobs are `Send + Sync` (the
/// compiled design is shared by `Arc`) so the pool can hand them to any
/// worker.
#[derive(Debug, Clone)]
pub struct Job {
    /// Design label in the report (bug ID or file stem).
    pub design: String,
    /// Fault label in the report (`none`, a fault class, or a spec label).
    pub fault: String,
    /// Seed label in the report (`zero` or the numeric seed).
    pub seed: String,
    /// The shared compiled design.
    pub shared: Arc<CompiledDesign>,
    /// Register/memory initialization for this job.
    pub init: RegInit,
    /// Fault plan injected while the job runs (free-run drives only).
    pub plan: Option<FaultPlan>,
    /// How the simulator is driven.
    pub drive: Drive,
    /// Blackbox models the simulator is built with.
    pub models: ModelSet,
}

/// What a finished job reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Workload drive: the design behaved correctly.
    Pass,
    /// Workload drive: the design misbehaved (the bug reproduced).
    Fail,
    /// Free-run drive: the run completed, faults and all.
    Completed,
    /// The simulator returned a typed error (never a panic).
    Error,
    /// The job body panicked; the panic was caught, the worker survived,
    /// and the payload is in the record's `detail`.
    Crashed,
    /// The job's wall-clock budget ([`RunOptions::job_timeout`]) expired
    /// before it finished — a hung or livelocked design.
    TimedOut,
}

impl Verdict {
    /// Stable lowercase name used in report JSON.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Completed => "completed",
            Verdict::Error => "error",
            Verdict::Crashed => "crashed",
            Verdict::TimedOut => "timed-out",
        }
    }

    /// Inverse of [`name`](Self::name), used when replaying journals.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "pass" => Some(Verdict::Pass),
            "fail" => Some(Verdict::Fail),
            "completed" => Some(Verdict::Completed),
            "error" => Some(Verdict::Error),
            "crashed" => Some(Verdict::Crashed),
            "timed-out" => Some(Verdict::TimedOut),
            _ => None,
        }
    }
}

/// Fault-tolerance knobs for a campaign run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Per-job wall-clock budget. When set, each simulator is armed with
    /// a cooperative deadline ([`SimConfig::with_timeout`]) and a job
    /// that exceeds it becomes a [`Verdict::TimedOut`] record instead of
    /// wedging its worker. `None` (the default) runs unbounded, exactly
    /// like the pre-watchdog engine.
    ///
    /// Timed-out records are the one place wall clocks leak into the
    /// results section: their `cycles` and counters depend on how far the
    /// job got before the deadline, so they vary run to run. Pass/fail/
    /// completed/error/crashed records stay fully deterministic.
    pub job_timeout: Option<Duration>,
    /// How many times a crashed or timed-out job is rerun before its
    /// outcome is accepted. Retries target transient classes (scheduler
    /// jitter pushing a job over its deadline); a deterministic panic
    /// crashes identically every attempt and the final record reports
    /// how many retries were burned.
    pub retries: u32,
}

/// A named batch of jobs ready to run.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Report name (spec `name` line, or the client's).
    pub name: String,
    /// The expanded job matrix, in deterministic spec order.
    pub jobs: Vec<Job>,
}

impl Campaign {
    /// Runs the campaign on `workers` threads with work stealing and
    /// aggregates one report. The deterministic section of the report
    /// ([`CampaignReport::results_json`]) is byte-identical for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Never errors in practice: job panics become [`Verdict::Crashed`]
    /// records, simulator errors become [`Verdict::Error`] records, and
    /// dead workers are recovered by the coordinator. The `Result` is
    /// kept for the richer entry points ([`run_with`](Self::run_with))
    /// that validate resume state.
    pub fn run(&self, workers: usize) -> Result<CampaignReport, CampaignError> {
        self.run_with(workers, RunOptions::default(), &BTreeMap::new(), |_, _| {})
    }

    /// The full-control entry point: fault-tolerance options, previously
    /// completed records to skip (resume), and a `retire` hook that fires
    /// once per freshly-run job as it completes — in scheduling order,
    /// not input order — for streaming consumers (journal, `--out`).
    ///
    /// `completed` maps job indices to records replayed from a journal;
    /// those jobs are not rerun and their records are spliced into the
    /// report at their original positions, so a resumed run's
    /// [`CampaignReport::results_json`] is byte-identical to an
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] when `completed` references a job index
    /// outside this campaign (a journal/spec mismatch).
    pub fn run_with(
        &self,
        workers: usize,
        opts: RunOptions,
        completed: &BTreeMap<usize, JobRecord>,
        retire: impl Fn(usize, &JobRecord) + Sync,
    ) -> Result<CampaignReport, CampaignError> {
        if let Some(&bad) = completed.keys().find(|&&i| i >= self.jobs.len()) {
            return Err(CampaignError::Journal(format!(
                "journal references job {bad} but the campaign has only {} jobs",
                self.jobs.len()
            )));
        }
        let todo: Vec<usize> = (0..self.jobs.len())
            .filter(|i| !completed.contains_key(i))
            .collect();
        let out = run_sharded(
            &todo,
            workers,
            |_, &gi| run_job(&self.jobs[gi], &opts),
            |_, &gi, msg| crashed_record(&self.jobs[gi], msg, 0),
            |li, r| retire(todo[li], r),
        );
        // Splice fresh results and replayed records back into input-job
        // order — the determinism boundary for resumed runs.
        let mut records: Vec<Option<JobRecord>> = vec![None; self.jobs.len()];
        let mut job_wall = vec![Duration::ZERO; self.jobs.len()];
        for ((gi, r), d) in todo.iter().zip(out.results).zip(out.job_wall) {
            records[*gi] = Some(r);
            job_wall[*gi] = d;
        }
        for (gi, r) in completed {
            records[*gi] = Some(r.clone());
        }
        let records: Vec<JobRecord> = records.into_iter().flatten().collect();
        debug_assert_eq!(records.len(), self.jobs.len());
        Ok(CampaignReport::new(
            self.name.clone(),
            records,
            workers.clamp(1, self.jobs.len().max(1)),
            out.wall,
            out.steals,
            job_wall,
            out.worker_deaths,
        ))
    }

    /// The legacy serial loop: same jobs, same aggregation, no queue and
    /// no threads. Exists as the reference implementation the determinism
    /// suite compares the pool against.
    pub fn run_serial(&self) -> Result<CampaignReport, CampaignError> {
        let opts = RunOptions::default();
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(self.jobs.len());
        let mut job_wall = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let j0 = Instant::now();
            results.push(run_job(job, &opts));
            job_wall.push(j0.elapsed());
        }
        Ok(CampaignReport::new(
            self.name.clone(),
            results,
            1,
            t0.elapsed(),
            0,
            job_wall,
            0,
        ))
    }
}

/// A record for a job whose body panicked: the payload lands in `detail`
/// and the crash shows up in the counter plane.
fn crashed_record(job: &Job, message: String, retries: u32) -> JobRecord {
    let counters = SimCounters {
        jobs_crashed: 1,
        jobs_retried: u64::from(retries),
        ..SimCounters::default()
    };
    JobRecord {
        design: job.design.clone(),
        fault: job.fault.clone(),
        seed: job.seed.clone(),
        verdict: Verdict::Crashed,
        detail: message,
        cycles: 0,
        counters,
        retries,
    }
}

/// Executes one job to a record, with panic isolation and bounded retry.
/// Infallible by construction: simulator errors are [`Verdict::Error`],
/// panics are [`Verdict::Crashed`], expired deadlines are
/// [`Verdict::TimedOut`] — never an abort, never a lost report.
pub(crate) fn run_job(job: &Job, opts: &RunOptions) -> JobRecord {
    let mut attempt = 0u32;
    loop {
        let mut record = match catch_unwind(AssertUnwindSafe(|| run_job_once(job, opts))) {
            Ok(r) => r,
            Err(payload) => crashed_record(job, panic_message(payload.as_ref()), attempt),
        };
        let transient = matches!(record.verdict, Verdict::Crashed | Verdict::TimedOut);
        if transient && attempt < opts.retries {
            attempt += 1;
            continue;
        }
        record.retries = attempt;
        record.counters.jobs_retried = u64::from(attempt);
        return record;
    }
}

/// One attempt at a job. Every simulator error is a typed
/// [`Verdict::Error`] outcome, mirroring the legacy fault suite's
/// "completes or typed error, never a panic" contract; panics escape to
/// the retry loop in [`run_job`].
fn run_job_once(job: &Job, opts: &RunOptions) -> JobRecord {
    let mut config = SimConfig {
        init: job.init,
        ..SimConfig::default()
    }
    .with_metrics(true);
    if let Some(budget) = opts.job_timeout {
        config = config.with_timeout(budget);
    }
    let record = |verdict: Verdict, detail: String, cycles: u64, counters: SimCounters| JobRecord {
        design: job.design.clone(),
        fault: job.fault.clone(),
        seed: job.seed.clone(),
        verdict,
        detail,
        cycles,
        counters,
        retries: 0,
    };
    let mut sim = match pooled_simulator(job, config) {
        Ok(s) => s,
        Err(e) => return record(Verdict::Error, e.to_string(), 0, SimCounters::default()),
    };
    let classify = |e: SimError| match e {
        SimError::DeadlineExceeded { .. } => (Verdict::TimedOut, e.to_string()),
        other => (Verdict::Error, other.to_string()),
    };
    let (verdict, detail, cycles) = match &job.drive {
        Drive::Workload(id) => match workloads::run(*id, &mut sim) {
            Ok(Outcome::Pass) => (Verdict::Pass, String::new(), steps_of(&sim)),
            Ok(Outcome::Fail { symptom, detail }) => (
                Verdict::Fail,
                format!("{symptom:?}: {detail}"),
                steps_of(&sim),
            ),
            Err(e) => {
                let (v, d) = classify(e);
                (v, d, steps_of(&sim))
            }
        },
        Drive::FreeRun {
            clock,
            cycles,
            stim,
        } => match free_run(&mut sim, clock, *cycles, stim, job.plan.as_ref()) {
            Ok(ran) => (Verdict::Completed, String::new(), ran),
            Err(e) => {
                let (v, d) = classify(e);
                (v, d, sim.cycle(clock))
            }
        },
    };
    let mut counters = sim.counters().copied().unwrap_or_default();
    if verdict == Verdict::TimedOut {
        counters.jobs_timed_out = 1;
    }
    return_simulator(job, sim);
    record(verdict, detail, cycles, counters)
}

/// Total steps the simulator took (the workload picks its own clock, so
/// report the step counter rather than guessing a clock name).
fn steps_of(sim: &Simulator) -> u64 {
    sim.counters().map(|c| c.steps).unwrap_or_default()
}

fn free_run(
    sim: &mut Simulator,
    clock: &str,
    cycles: u64,
    stim: &[Stim],
    plan: Option<&FaultPlan>,
) -> Result<u64, SimError> {
    if stim.is_empty() {
        // No stimulus: identical call shape to the legacy fault suite.
        return match plan {
            Some(p) => run_with_faults(sim, clock, cycles, p),
            None => {
                sim.run(clock, cycles)?;
                Ok(sim.cycle(clock))
            }
        };
    }
    let names: Vec<&str> = stim.iter().map(|s| s.name.as_str()).collect();
    let splan = sim.stimulus_plan(&names)?;
    let bound = plan.map(|p| p.bind(sim.design()));
    let mut ran = 0;
    for cycle in 0..cycles {
        if sim.finished() {
            break;
        }
        for (i, s) in stim.iter().enumerate() {
            let v = match s.value {
                StimValue::Const(c) => c,
                StimValue::Counter => cycle,
            };
            sim.poke_id_u64(splan.id(i), v);
        }
        match &bound {
            Some(b) => b.step(sim, clock)?,
            None => sim.step(clock)?,
        }
        ran += 1;
    }
    Ok(ran)
}
