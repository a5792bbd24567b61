//! The four closed-loop workloads. Each runs one operation at a time
//! (the fault campaign runs its jobs on two workers), times its set-up and
//! every operation, and checks every output against a reference.

mod fault;
mod session;
mod soc;

use crate::layers::Ctx;
use crate::trace::BENCH;
use crate::BoxError;
use hwdbg_sim::{CompiledDesign, Simulator};
use std::time::Instant;

/// Workload names, in the order the all-workloads mode runs them.
pub const NAMES: [&str; 4] = ["soc_soak", "soc_cold", "debug_session", "fault_campaign"];

/// Set-up is timed at least this many times, and for at least
/// [`SETUP_TIMED_S`]; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Timed set-up repetitions go on until this much time has passed, so a
/// set-up of a few milliseconds is a median of hundreds.
const SETUP_TIMED_S: f64 = 0.5;

/// Untimed set-up repetitions run for at least this long first. A fresh
/// process on an idle host starts on cold caches and a slow clock, which
/// would otherwise swamp set-ups that take a few milliseconds.
const SETUP_WARMUP_S: f64 = 0.2;

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Tiny sizes, for the smoke test.
    pub smoke: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// The measured phase, round by round.
    pub rounds: Vec<Round>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed and checks that did not match.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Per-layer values only the workload can compute.
    pub extra: Vec<(String, f64)>,
}

/// A batch of operations measured together. Throughput and latency are
/// taken per round and reported as medians over rounds, so a burst of
/// interference on the host moves one round, not the result, and memory
/// held for samples does not grow with the length of the run.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Operations completed.
    pub ops: u64,
    /// Wall time of the round, s.
    pub secs: f64,
    /// Median operation latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile operation latency, ms.
    pub p95_ms: f64,
}

impl Round {
    /// A round of `ops` operations in `secs`, with per-operation latency
    /// samples `op_ms`.
    pub fn new(ops: u64, secs: f64, op_ms: &[f64]) -> Round {
        Round {
            ops,
            secs,
            p50_ms: crate::stats::quantile(op_ms, 0.5),
            p95_ms: crate::stats::quantile(op_ms, 0.95),
        }
    }
}

/// Size of the designs a workload compiles in one set-up, summed.
#[derive(Debug, Default)]
struct Sizes {
    signals: usize,
    units: usize,
    lowered: usize,
    lowerable: usize,
    regions: usize,
    max_level: u32,
}

impl Sizes {
    fn add(&mut self, shared: &CompiledDesign) {
        let d = shared.design();
        let (lowered, total) = shared.lowering_coverage();
        let (regions, max_level, _) = shared.region_stats();
        self.signals += d.signals.len();
        self.units += d.combs.len() + d.procs.len();
        self.lowered += lowered;
        self.lowerable += total;
        self.regions += regions;
        self.max_level = self.max_level.max(max_level);
    }

    fn extras(&self) -> Vec<(String, f64)> {
        vec![
            ("dataflow.signals".into(), self.signals as f64),
            ("dataflow.units".into(), self.units as f64),
            (
                "sim.lowered_frac".into(),
                self.lowered as f64 / self.lowerable.max(1) as f64,
            ),
            ("sim.regions".into(), self.regions as f64),
            ("sim.max_level".into(), f64::from(self.max_level)),
        ]
    }
}

impl Run {
    /// Each round's `field`.
    pub fn per_round(&self, field: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(field).collect()
    }

    /// Operations completed in the measured phase.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Counts one check, recording `problem` when it failed.
    pub(crate) fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// Unknown workload names, and failures that stop a workload before it
/// can measure anything (a design that no longer elaborates).
pub fn run(name: &str, ctx: &Ctx<'_>, p: &Params) -> Result<Run, BoxError> {
    let mut run = ctx.tr.span(BENCH, "workload", || match name {
        "soc_soak" => soc::soak(ctx, p),
        "soc_cold" => soc::cold(ctx, p),
        "debug_session" => session::run(ctx, p),
        "fault_campaign" => fault::run(ctx, p),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )
        .into()),
    })?;
    // Outside the workload's span: the probe is not part of its wall time.
    if name == "soc_cold" && ctx.tr.enabled() {
        run.extra.extend(soc::scale_exponents(ctx, p)?);
    }
    Ok(run)
}

/// Runs `build` until [`SETUP_WARMUP_S`] have passed, then times at
/// least [`SETUP_REPS`] more runs, for at least [`SETUP_TIMED_S`], into
/// `run.setup_s` and returns the last result; `discard` frees every other
/// one. Smoke runs skip the time minimums.
fn setup<T>(
    run: &mut Run,
    p: &Params,
    mut build: impl FnMut() -> Result<T, BoxError>,
    mut discard: impl FnMut(T),
) -> Result<T, BoxError> {
    let (warmup_s, timed_s) = if p.smoke {
        (0.0, 0.0)
    } else {
        (SETUP_WARMUP_S, SETUP_TIMED_S)
    };
    let warmup = Instant::now();
    while warmup.elapsed().as_secs_f64() < warmup_s {
        discard(build()?);
    }
    let mut last = None;
    let timed_start = Instant::now();
    while run.setup_s.len() < SETUP_REPS || timed_start.elapsed().as_secs_f64() < timed_s {
        let (built, t) = timed(&mut build);
        run.setup_s.push(t);
        if let Some(previous) = last.replace(built?) {
            discard(previous);
        }
    }
    last.ok_or_else(|| "no set-up ran".into())
}

/// Wall time of `f`, in seconds, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// FNV-1a over every signal value and memory word of a simulation, in
/// signal-name order: two engines agree on this digest only if their
/// whole state agrees.
fn state_digest(sim: &Simulator) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let state = sim.state();
    for (name, sig) in &sim.design().signals {
        let words = if sig.mem_depth.is_some() {
            state.mem(name).unwrap_or(&[])
        } else {
            state.get(name).map(std::slice::from_ref).unwrap_or(&[])
        };
        for word in words {
            for limb in word.limbs() {
                for byte in limb.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}
