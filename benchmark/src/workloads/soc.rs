//! The two generated-SoC workloads.
//!
//! `soc_soak` compiles one 100-tile SoC and steps it under seeded random
//! stimulus: settle/step, fused regions, bytecode and `$display` logging
//! do the work, the front end and lint stay idle. `soc_cold` takes a
//! 400-tile SoC through the whole cold path (parse, elaborate, compile,
//! all lint passes, `PropGraph`, synth estimates, 200 cycles) with almost
//! no simulation, so front-end layers that grow faster than linearly show
//! up.

use super::{state_digest, timed, Params, Round, Run, Sizes};
use crate::layers::{Ctx, DATAFLOW, LINT, RTL, SIM};
use crate::scaled::{self, CLOCK};
use crate::trace::{Recording, Tracer, BENCH};
use crate::BoxError;
use hwdbg_bits::SplitMix64;
use hwdbg_dataflow::SigId;
use hwdbg_sim::{Backend, CompiledDesign, SimConfig, SimError, Simulator};
use std::sync::Arc;
use std::time::Instant;

/// `$display` records an engine keeps. The 100-tile SoC prints about 48
/// records per cycle, and the simulator evicts its oldest record with
/// `Vec::remove(0)`: with the default capacity of a million, the log is
/// full after about 21,000 cycles and every later record shifts a million
/// entries, which is all the soak would then measure.
const LOG_CAPACITY: usize = 64;

/// Rounds measured at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

/// Cold checks per scaling-probe pass.
const PROBE_CHECKS: usize = 3;

/// Salt separating the stimulus stream from the generator's use of the
/// same seed.
const STIM_SALT: u64 = 0x57_1A_57_1A;

struct Sizing {
    soak_tiles: usize,
    cold_tiles: usize,
    /// The smaller size the cold path is compared against for scaling.
    scale_tiles: usize,
    warmup: u64,
    /// Soak cycles per latency sample.
    window: u64,
    /// Soak windows per round; 200 leave 10 samples beyond a round's 95th
    /// percentile.
    windows: usize,
    /// Cold checks per round.
    checks: usize,
    cold_cycles: u64,
}

fn sizing(smoke: bool) -> Sizing {
    if smoke {
        Sizing {
            soak_tiles: 4,
            cold_tiles: 8,
            scale_tiles: 2,
            warmup: 100,
            window: 50,
            windows: 5,
            checks: 1,
            cold_cycles: 20,
        }
    } else {
        Sizing {
            soak_tiles: 100,
            cold_tiles: 400,
            scale_tiles: 100,
            warmup: 2_000,
            window: 100,
            windows: 200,
            checks: 4,
            cold_cycles: 200,
        }
    }
}

fn config(backend: Backend) -> SimConfig {
    SimConfig {
        log_capacity: LOG_CAPACITY,
        ..SimConfig::default()
    }
    .with_backend(backend)
}

/// Seeded random stimulus on the SoC's two stimulus words.
struct Stim {
    rst: SigId,
    lo: SigId,
    hi: SigId,
    rng: SplitMix64,
}

impl Stim {
    fn new(sim: &Simulator, seed: u64) -> Result<Stim, SimError> {
        let [lo, hi] = scaled::STIM;
        let plan = sim.stimulus_plan(&[scaled::RESET, lo, hi])?;
        Ok(Stim {
            rst: plan.id(0),
            lo: plan.id(1),
            hi: plan.id(2),
            rng: SplitMix64::new(seed ^ STIM_SALT),
        })
    }

    /// Two cycles with reset high.
    fn reset(&self, ctx: &Ctx<'_>, sim: &mut Simulator, oracle: bool) -> Result<(), SimError> {
        sim.poke_id_u64(self.rst, 1);
        ctx.steps(sim, CLOCK, 2, oracle, |_| {})?;
        sim.poke_id_u64(self.rst, 0);
        Ok(())
    }

    fn run(
        &mut self,
        ctx: &Ctx<'_>,
        sim: &mut Simulator,
        n: u64,
        oracle: bool,
    ) -> Result<(), SimError> {
        let (lo, hi, rng) = (self.lo, self.hi, &mut self.rng);
        ctx.steps(sim, CLOCK, n, oracle, |s| {
            s.poke_id_u64(lo, rng.next_u64());
            s.poke_id_u64(hi, rng.next_u64());
        })
    }
}

/// Generates, parses, elaborates and compiles a SoC and builds its engine.
fn build(
    ctx: &Ctx<'_>,
    tiles: usize,
    seed: u64,
) -> Result<(Arc<CompiledDesign>, Simulator), BoxError> {
    let src = ctx
        .tr
        .span(BENCH, "generate", || scaled::generate(tiles, seed))?;
    let file = ctx.parse(&src)?;
    let design = ctx.elaborate(&file, scaled::TOP)?;
    ctx.free(RTL, file);
    let shared = ctx.compile(design)?;
    let sim = ctx.build(&shared, config(Backend::Levelized))?;
    Ok((shared, sim))
}

/// Times set-up of a SoC of `tiles` tiles and keeps the last engine.
fn setup(
    ctx: &Ctx<'_>,
    run: &mut Run,
    p: &Params,
    tiles: usize,
) -> Result<(Arc<CompiledDesign>, Simulator), BoxError> {
    let (shared, sim) = super::setup(run, p, || build(ctx, tiles, p.seed), |b| ctx.free(SIM, b))?;
    let mut sizes = Sizes::default();
    sizes.add(&shared);
    run.extra.extend(sizes.extras());
    Ok((shared, sim))
}

/// State digest of an untimed tree-walker run: reset, then `cycles` of
/// the same stimulus. The levelized backend must land on the same state.
fn reference_digest(
    ctx: &Ctx<'_>,
    shared: &Arc<CompiledDesign>,
    seed: u64,
    cycles: u64,
) -> Result<u64, BoxError> {
    ctx.tr.span(BENCH, "reference", || {
        let mut tree = ctx.build(shared, config(Backend::Tree))?;
        let mut stim = Stim::new(&tree, seed)?;
        stim.reset(ctx, &mut tree, true)?;
        stim.run(ctx, &mut tree, cycles, true)?;
        let digest = state_digest(&tree);
        ctx.free(SIM, tree);
        Ok(digest)
    })
}

/// `soc_soak`: one compiled SoC stepped window after window.
pub fn soak(ctx: &Ctx<'_>, p: &Params) -> Result<Run, BoxError> {
    let sz = sizing(p.smoke);
    let mut run = Run::default();
    let (shared, mut sim) = setup(ctx, &mut run, p, sz.soak_tiles)?;

    let mut stim = Stim::new(&sim, p.seed)?;
    stim.reset(ctx, &mut sim, false)?;
    stim.run(ctx, &mut sim, sz.warmup, false)?;
    let got = state_digest(&sim);
    let want = reference_digest(ctx, &shared, p.seed, sz.warmup)?;
    run.check(got == want, || {
        format!(
            "levelized digest {got:016x} != tree digest {want:016x} after {} cycles",
            sz.warmup
        )
    });

    // One operation is one simulated cycle; latency is sampled per window.
    let start = Instant::now();
    'measure: while run.rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < p.seconds {
        let (mut secs, mut op_ms) = (0.0, Vec::with_capacity(sz.windows));
        for _ in 0..sz.windows {
            let (stepped, t) = timed(|| stim.run(ctx, &mut sim, sz.window, false));
            run.attempted += sz.window;
            if let Err(e) = stepped {
                run.failed += 1;
                run.problems.push(format!("soak window failed: {e}"));
                break 'measure;
            }
            secs += t;
            op_ms.push(t * 1e3 / sz.window as f64);
        }
        run.rounds
            .push(Round::new(sz.window * sz.windows as u64, secs, &op_ms));
    }
    ctx.absorb(&sim);
    Ok(run)
}

/// One pass over the whole cold path. Returns the final state digest and
/// the number of lint findings.
fn cold_check(ctx: &Ctx<'_>, src: &str, seed: u64, cycles: u64) -> Result<(u64, usize), BoxError> {
    ctx.tr.span(BENCH, "cold_check", || {
        let file = ctx.parse(src)?;
        let design = ctx.elaborate(&file, scaled::TOP)?;
        ctx.free(RTL, file);
        let shared = ctx.compile(design)?;
        let findings = ctx.lint(shared.design()).len();
        ctx.free(DATAFLOW, ctx.propgraph(shared.design())?);
        std::hint::black_box(ctx.synth(shared.design()));
        let mut sim = ctx.build(&shared, config(Backend::Levelized))?;
        let mut stim = Stim::new(&sim, seed)?;
        stim.reset(ctx, &mut sim, false)?;
        stim.run(ctx, &mut sim, cycles, false)?;
        ctx.absorb(&sim);
        let digest = state_digest(&sim);
        ctx.free(SIM, (sim, shared));
        Ok((digest, findings))
    })
}

/// `soc_cold`: the whole cold path on a large SoC, again and again.
pub fn cold(ctx: &Ctx<'_>, p: &Params) -> Result<Run, BoxError> {
    let sz = sizing(p.smoke);
    let mut run = Run::default();
    let (shared, _) = setup(ctx, &mut run, p, sz.cold_tiles)?;
    let want = reference_digest(ctx, &shared, p.seed, sz.cold_cycles)?;
    ctx.free(SIM, shared);
    let src = scaled::generate(sz.cold_tiles, p.seed)?;

    let mut first_findings = None;
    let start = Instant::now();
    while run.rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < p.seconds {
        let (mut secs, mut op_ms) = (0.0, Vec::with_capacity(sz.checks));
        for _ in 0..sz.checks {
            let (checked, t) = timed(|| cold_check(ctx, &src, p.seed, sz.cold_cycles));
            secs += t;
            op_ms.push(t * 1e3);
            match checked {
                Ok((digest, findings)) => {
                    let expect = *first_findings.get_or_insert(findings);
                    run.check(digest == want && findings == expect, || {
                        format!(
                            "cold check: digest {digest:016x} (tree {want:016x}), \
                             {findings} lint findings (first check {expect})"
                        )
                    });
                }
                Err(e) => run.check(false, || format!("cold check failed: {e}")),
            }
        }
        run.rounds.push(Round::new(sz.checks as u64, secs, &op_ms));
    }
    Ok(run)
}

/// Per-layer cost per cold check in a recording.
fn per_check(rec: &Recording) -> Vec<(String, f64)> {
    let (totals, checks) = rec.totals_under(BENCH, "cold_check");
    let checks = checks.max(1) as f64;
    let mut keys: Vec<String> = crate::SCALED_LAYERS
        .iter()
        .map(|l| (*l).to_owned())
        .collect();
    keys.extend(
        hwdbg_lint::registry()
            .iter()
            .map(|pass| format!("{LINT}.{}", pass.id())),
    );
    keys.into_iter()
        .map(|k| {
            let ns = totals.get(&k).map_or(0, |t| t.self_ns);
            (k, ns as f64 / checks)
        })
        .collect()
}

/// Log-log slope of each layer's (and each lint pass's) self time per
/// cold check, from the smaller SoC to the measured one.
pub fn scale_exponents(ctx: &Ctx<'_>, p: &Params) -> Result<Vec<(String, f64)>, BoxError> {
    let sz = sizing(p.smoke);
    let probe = Tracer::on();
    let pctx = Ctx::new(&probe);
    let src = scaled::generate(sz.scale_tiles, p.seed)?;
    for _ in 0..PROBE_CHECKS {
        cold_check(&pctx, &src, p.seed, sz.cold_cycles)?;
    }
    let small = per_check(&probe.snapshot());
    let big = per_check(&ctx.tr.snapshot());
    let ratio = (sz.cold_tiles as f64 / sz.scale_tiles as f64).ln();
    Ok(small
        .into_iter()
        .zip(big)
        .map(|((key, s), (_, b))| {
            let exp = if s > 0.0 && b > 0.0 {
                (b / s).ln() / ratio
            } else {
                0.0
            };
            (format!("{key}.scale_exp"), exp)
        })
        .collect())
}
