//! End-to-end benchmark of hwdbg's debug flows, with per-layer traces.
//!
//! Two binaries share this code. `benchmark` runs a workload with tracing
//! off and the system allocator and prints the end-to-end metrics;
//! `benchmark-trace` runs the same workload with every call into a layer
//! wrapped in a span, simulator counters on and allocations counted, and
//! prints the per-layer metrics plus a Chrome trace file. `BENCHMARK.json`
//! at the repository root names the workloads and metrics; both binaries
//! refuse to run if it disagrees with the metrics they compute.
//!
//! ```text
//! benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! benchmark [--seed S] [--seconds T] [--smoke] [--out FILE]   # every workload once
//! benchmark compare A B                                       # each a results file or directory
//! ```
//!
//! Files a run leaves behind (Chrome traces, the campaign journal) go to
//! `bench-trace/` under `$CARGO_TARGET_DIR`, or under `target/` when it is
//! unset.

pub mod json;
mod layers;
mod scaled;
mod stats;
mod trace;
mod workloads;

use layers::{Ctx, CAMPAIGN, DATAFLOW, LINT, RTL, SIM, SYNTH, TOOLS};
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::{Recording, Tracer, BENCH};
use workloads::{Params, Run};

/// Error type of everything that can stop a run.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// The benchmark definition: workloads, metrics, units and bounds.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

/// A workload fails its trace when layer self times leave more than this
/// share of its wall time to the benchmark's own code.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// End-to-end metrics with their units. Every workload reports all of
/// them; an operation is one simulated cycle (`soc_soak`), one cold check
/// (`soc_cold`), one debug session (`debug_session`) or one campaign job
/// (`fault_campaign`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Layers that get a self-time share.
const LAYERS: [&str; 7] = [RTL, DATAFLOW, SIM, TOOLS, LINT, SYNTH, CAMPAIGN];

/// Layers whose growth from the small to the large SoC is reported.
pub(crate) const SCALED_LAYERS: [&str; 5] = [RTL, DATAFLOW, SIM, LINT, SYNTH];

/// Per-layer metrics with their units, in report order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let passes: Vec<&str> = hwdbg_lint::registry().iter().map(|p| p.id()).collect();
    let mut m: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|l| (format!("{l}.self_pct"), "%"))
        .collect();
    let fixed: [(&str, &'static str); 35] = [
        ("rtl.parse_ms", "ms"),
        ("rtl.parse_mb_per_s", "MB/s"),
        ("dataflow.flatten_ms", "ms"),
        ("dataflow.resolve_ms", "ms"),
        ("dataflow.signals", "count"),
        ("dataflow.units", "count"),
        ("dataflow.propgraph_pct", "%"),
        ("dataflow.relations", "count"),
        ("sim.compile_ms", "ms"),
        ("sim.lowered_frac", "frac"),
        ("sim.regions", "count"),
        ("sim.max_level", "count"),
        ("sim.build_pct", "%"),
        ("sim.step_pct", "%"),
        ("sim.step_ns", "ns"),
        ("sim.units_per_step", "count"),
        ("sim.region_skip_frac", "frac"),
        ("sim.allocs_per_step", "count"),
        ("sim.displays_per_step", "count"),
        ("sim.force_hits_per_step", "count"),
        ("sim.fault_events", "count"),
        ("tools.signalcat.instrument_pct", "%"),
        ("tools.signalcat.reconstruct_pct", "%"),
        ("tools.fsm.detect_pct", "%"),
        ("tools.fsm.instrument_pct", "%"),
        ("tools.depmon.observe_pct", "%"),
        ("tools.losscheck.instrument_pct", "%"),
        ("tools.statmon.instrument_pct", "%"),
        ("tools.errors", "count"),
        ("testbed.workload_pct", "%"),
        ("lint.findings", "count"),
        ("synth.estimate_pct", "%"),
        ("synth.timing_pct", "%"),
        ("campaign.build_pct", "%"),
        ("campaign.steals", "count"),
    ];
    m.extend(fixed.iter().map(|(n, u)| ((*n).to_owned(), *u)));
    m.extend(passes.iter().map(|p| (format!("lint.{p}_pct"), "%")));
    for (n, u) in [
        ("campaign.worker_busy_frac", "frac"),
        ("campaign.journal_append_frac", "frac"),
        ("campaign.jobs_crashed", "count"),
        ("campaign.jobs_timed_out", "count"),
        ("trace.unattributed_pct", "%"),
        ("trace.overhead_pct", "%"),
    ] {
        m.push((n.to_owned(), u));
    }
    m.extend(
        SCALED_LAYERS
            .iter()
            .map(|l| (format!("{l}.scale_exp"), "exp")),
    );
    m.extend(
        passes
            .iter()
            .map(|p| (format!("lint.{p}.scale_exp"), "exp")),
    );
    m
}

/// Command-line options.
#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

/// Where a run writes its files: `bench-trace/` under the Cargo target
/// directory.
pub(crate) fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench-trace")
}

fn parse_opts(args: &[String]) -> Result<Opts, BoxError> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse()?,
            "--seconds" => o.seconds = Some(value.parse()?),
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}").into()),
        }
    }
    if let Some(s) = o.seconds {
        if !(s.is_finite() && s >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
    }
    Ok(o)
}

/// Entry point of both binaries; `traced` selects the per-layer binary.
pub fn main(traced: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = checked_spec().and_then(|spec| {
        if args.first().map(String::as_str) == Some("compare") {
            return compare(&spec, &args[1..]);
        }
        let mut opts = parse_opts(&args)?;
        if opts.trace.is_some_and(|t| t != traced) {
            let bin = if traced {
                "benchmark"
            } else {
                "benchmark-trace"
            };
            return Err(
                format!("this binary runs --trace {}; use `{bin}`", u8::from(traced)).into(),
            );
        }
        if opts.seconds.is_none() && !opts.smoke {
            opts.seconds = spec.get("run_seconds").and_then(json::Value::num);
        }
        match &opts.workload {
            Some(w) => run_one(w, &opts, traced),
            None => run_all(&opts, traced),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `(name, unit)` of each entry listed under `key` in a spec.
fn spec_entries(spec: &json::Value, key: &str) -> Vec<(String, String)> {
    let field = |m: &json::Value, k| {
        m.get(k)
            .and_then(json::Value::str)
            .unwrap_or_default()
            .to_owned()
    };
    spec.get(key)
        .map(|v| {
            v.arr()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        })
        .unwrap_or_default()
}

/// The parsed `SPEC`. Refuses to run when it and this code disagree on
/// the workloads, the metrics or their units.
fn checked_spec() -> Result<json::Value, BoxError> {
    let spec = json::parse(SPEC)?;
    let owned = |(n, u): (&str, &str)| (n.to_owned(), u.to_owned());
    let ours: [(&str, Vec<(String, String)>); 3] = [
        (
            "workloads",
            workloads::NAMES.iter().map(|w| owned((w, ""))).collect(),
        ),
        ("end_to_end", END_TO_END.iter().map(|&m| owned(m)).collect()),
        (
            "per_layer",
            per_layer_metrics()
                .into_iter()
                .map(|(n, u)| (n, u.to_owned()))
                .collect(),
        ),
    ];
    for (key, ours) in ours {
        let theirs: Vec<(String, String)> = spec_entries(&spec, key);
        if theirs != ours {
            return Err(format!(
                "BENCHMARK.json `{key}` lists {theirs:?}, the benchmark computes {ours:?}"
            )
            .into());
        }
    }
    Ok(spec)
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn end_to_end(run: &Run) -> Result<Vec<Summary>, BoxError> {
    let out = vec![
        Summary::median_of(&run.setup_s),
        Summary::median_of(&run.per_round(|r| r.ops as f64 / r.secs)),
        Summary::median_of(&run.per_round(|r| r.p50_ms)),
        Summary::median_of(&run.per_round(|r| r.p95_ms)),
        Summary::single(peak_rss_mib()?),
    ];
    if let Some(bad) = out
        .iter()
        .zip(END_TO_END)
        .find(|(s, _)| !(s.value.is_finite() && s.value > 0.0))
    {
        return Err(format!(
            "{} measured {}; the run measured nothing",
            bad.1 .0, bad.0.value
        )
        .into());
    }
    Ok(out)
}

/// Per-layer metrics of a traced run. `overhead_pct` compares its
/// operation latency with an untraced run's.
fn per_layer(
    rec: &Recording,
    ctx: &Ctx<'_>,
    run: &Run,
    overhead_pct: f64,
) -> Result<BTreeMap<String, f64>, BoxError> {
    let totals = rec.totals();
    let wall = rec.wall() as f64;
    let c = ctx.counters();
    let total = |k: &str| totals.get(k).copied().unwrap_or_default();
    let noted = |k: &str| rec.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pct = |k: &str| ratio(total(k).self_ns as f64 * 100.0, wall);
    let mean_ms = |k: &str| ratio(total(k).inclusive as f64 / 1e6, total(k).calls as f64);
    let ops = run.ops() as f64;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for l in LAYERS {
        m.insert(format!("{l}.self_pct"), pct(l));
    }
    for pass in hwdbg_lint::registry() {
        m.insert(
            format!("lint.{}_pct", pass.id()),
            pct(&format!("lint.{}", pass.id())),
        );
    }
    for key in [
        "dataflow.propgraph",
        "sim.build",
        "sim.step",
        "tools.signalcat.instrument",
        "tools.signalcat.reconstruct",
        "tools.fsm.detect",
        "tools.fsm.instrument",
        "tools.depmon.observe",
        "tools.losscheck.instrument",
        "tools.statmon.instrument",
        "testbed.workload",
        "synth.estimate",
        "synth.timing",
        "campaign.build",
    ] {
        m.insert(format!("{key}_pct"), pct(key));
    }
    let values = [
        ("rtl.parse_ms", mean_ms("rtl.parse")),
        (
            "rtl.parse_mb_per_s",
            ratio(
                noted("rtl.parse_bytes") / 1e6,
                total("rtl.parse").inclusive as f64 / 1e9,
            ),
        ),
        ("dataflow.flatten_ms", mean_ms("dataflow.flatten")),
        ("dataflow.resolve_ms", mean_ms("dataflow.resolve")),
        (
            "dataflow.relations",
            ratio(
                noted("dataflow.relations"),
                total("dataflow.propgraph").calls as f64,
            ),
        ),
        ("sim.compile_ms", mean_ms("sim.compile")),
        (
            "sim.step_ns",
            ratio(total("sim.step").inclusive as f64, noted("sim.cycles")),
        ),
        (
            "sim.units_per_step",
            ratio(c.units_executed as f64, c.steps as f64),
        ),
        (
            "sim.region_skip_frac",
            ratio(
                c.region_skips as f64,
                (c.regions_executed + c.region_skips) as f64,
            ),
        ),
        (
            "sim.allocs_per_step",
            ratio(noted("sim.step_allocs"), noted("sim.cycles")),
        ),
        (
            "sim.displays_per_step",
            ratio(noted("sim.displays"), noted("sim.cycles")),
        ),
        (
            "sim.force_hits_per_step",
            ratio(c.force_hits as f64, c.steps as f64),
        ),
        ("sim.fault_events", ratio(c.fault_events as f64, ops)),
        ("tools.errors", ratio(noted("tools.errors"), ops)),
        (
            "lint.findings",
            ratio(noted("lint.findings"), noted("lint.runs")),
        ),
        ("campaign.jobs_crashed", c.jobs_crashed as f64),
        ("campaign.jobs_timed_out", c.jobs_timed_out as f64),
        ("trace.unattributed_pct", pct(BENCH)),
        ("trace.overhead_pct", overhead_pct),
    ];
    m.extend(values.iter().map(|(k, v)| ((*k).to_owned(), *v)));
    m.extend(run.extra.iter().cloned());

    let names = per_layer_metrics();
    if let Some(stray) = m.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(
            format!("computed per-layer metric `{stray}` is missing from the metric list").into(),
        );
    }
    // A layer the workload never calls reads 0.
    for (n, _) in names {
        let v = m.entry(n).or_insert(0.0);
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    Ok(m)
}

/// Runs one workload in this process and prints its metrics, the last
/// line being the JSON result. Returns whether every output was correct.
fn run_one(workload: &str, opts: &Opts, traced: bool) -> Result<bool, BoxError> {
    let params = Params {
        seed: opts.seed,
        seconds: opts.seconds.unwrap_or(0.0),
        smoke: opts.smoke,
    };
    let tr = if traced { Tracer::on() } else { Tracer::off() };
    let ctx = Ctx::new(&tr);
    let mut run = workloads::run(workload, &ctx, &params)?;

    let rows: Vec<(String, &str, Summary)> = if traced {
        let rec = tr.snapshot();
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.json"));
        std::fs::write(&path, rec.chrome_json(workload))?;
        println!(
            "trace: {} spans written to {}",
            rec.spans.len(),
            path.display()
        );
        print_self_times(&rec);

        // A shorter untraced run of the same workload in this process:
        // the latency difference is what tracing costs.
        let plain = workloads::run(
            workload,
            &Ctx::new(&Tracer::off()),
            &Params {
                seconds: params.seconds / 4.0,
                ..params.clone()
            },
        )?;
        run.attempted += plain.attempted;
        run.failed += plain.failed;
        run.problems.extend(plain.problems.iter().cloned());
        let p50 = |r: &Run| median(&r.per_round(|round| round.p50_ms));
        let overhead = (p50(&run) / p50(&plain) - 1.0) * 100.0;

        let layer = per_layer(&rec, &ctx, &run, overhead)?;
        // Smoke sizes are too small for the benchmark's own code to vanish.
        let unattributed = layer["trace.unattributed_pct"];
        if !params.smoke {
            run.check(unattributed <= MAX_UNATTRIBUTED_PCT, || {
                format!(
                    "layer self times leave {unattributed:.2}% of the wall time unattributed \
                     (limit {MAX_UNATTRIBUTED_PCT}%)"
                )
            });
        }
        per_layer_metrics()
            .into_iter()
            .map(|(n, u)| {
                let v = Summary::single(layer[&n]);
                (n, u, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&run)?)
            .map(|((n, u), v)| ((*n).to_owned(), *u, v))
            .collect()
    };

    println!(
        "workload {workload}: seed {}, {} attempted, {} failed",
        opts.seed, run.attempted, run.failed
    );
    println!(
        "{:<34} {:>6} {:>16} {:>14} {:>14} {:>8}",
        "metric", "unit", "value", "p25", "p75", "n"
    );
    for (n, u, s) in &rows {
        println!(
            "{n:<34} {u:>6} {:>16.6} {:>14.6} {:>14.6} {:>8}",
            s.value, s.p25, s.p75, s.n
        );
    }
    for p in &run.problems {
        eprintln!("FAILED: {p}");
    }
    let correct = run.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted.max(1),
        run.failed
    );
    for (i, (n, u, s)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
            s.value
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

/// The per-layer self-time table of a trace.
fn print_self_times(rec: &Recording) {
    let wall = rec.wall() as f64;
    let totals = rec.totals();
    println!(
        "{:<40} {:>10} {:>12} {:>8}",
        "self time", "calls", "ms", "%"
    );
    let mut rows: Vec<_> = totals.iter().filter(|(k, _)| k.contains('.')).collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (k, t) in rows {
        println!(
            "{k:<40} {:>10} {:>12.3} {:>8.3}",
            t.calls,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 * 100.0 / wall
        );
    }
}

/// One child run's result.
struct ChildRun {
    workload: String,
    seed: u64,
    result: json::Value,
}

/// Runs every workload once with `opts.seed`, each in its own child
/// process (so its peak RSS is its own), and prints every metric.
fn run_all(opts: &Opts, traced: bool) -> Result<bool, BoxError> {
    let exe = std::env::current_exe()?;
    let mut children = Vec::new();
    // Each run as saved by `--out`, with the child's result line verbatim.
    let mut saved = Vec::new();
    let mut ok = true;
    let seed = opts.seed;
    for w in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
        if let Some(s) = opts.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        match json::parse(last) {
            Ok(result) if out.status.success() => {
                saved.push(format!(
                    "{{\"workload\": \"{w}\", \"seed\": {seed}, \"result\": {last}}}"
                ));
                children.push(ChildRun {
                    workload: w.to_owned(),
                    seed,
                    result,
                });
            }
            _ => {
                eprintln!("{w} (seed {seed}) failed with {}:\n{stdout}", out.status);
                ok = false;
            }
        }
    }

    let names: Vec<(String, &str)> = if traced {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };
    println!(
        "{:<16} {:<34} {:>6} {:>16}",
        "workload", "metric", "unit", "value"
    );
    for w in workloads::NAMES {
        for (n, u) in &names {
            for v in metric_values(&children, w, n) {
                println!("{w:<16} {n:<34} {u:>6} {v:>16.6}");
            }
        }
    }
    if let Some(path) = &opts.out {
        std::fs::write(
            path,
            format!("{{\"runs\": [\n  {}\n]}}\n", saved.join(",\n  ")),
        )?;
    }
    let incorrect = children
        .iter()
        .any(|c| c.result.get("correct") != Some(&json::Value::Bool(true)));
    Ok(ok && !incorrect)
}

fn metric_values(runs: &[ChildRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|c| c.workload == workload)
        .filter_map(|c| c.result.get("metrics")?.get(metric)?.get("value")?.num())
        .collect()
}

/// The runs saved by `--out`: one file, or every `.json` file of a
/// directory in name order.
fn load_runs(path: &str) -> Result<Vec<ChildRun>, BoxError> {
    let path = std::path::Path::new(path);
    let mut files = vec![path.to_path_buf()];
    if path.is_dir() {
        files = std::fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<Vec<_>, _>>()?;
        files.retain(|f| f.extension().is_some_and(|x| x == "json"));
        files.sort();
    }
    let mut runs = Vec::new();
    for file in files {
        let doc = json::parse(&std::fs::read_to_string(&file)?)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        for r in doc.get("runs").map(json::Value::arr).unwrap_or_default() {
            let run = (|| {
                Some(ChildRun {
                    workload: r.get("workload")?.str()?.to_owned(),
                    seed: r.get("seed")?.num()? as u64,
                    result: r.get("result")?.clone(),
                })
            })()
            .ok_or_else(|| format!("{}: malformed run", file.display()))?;
            runs.push(run);
        }
    }
    Ok(runs)
}

/// `compare A B` (each a file or a directory of files): each (workload, end-to-end metric) pair's
/// median in B against A, judged by the metric's bound in `SPEC`. B fails
/// when any pair is worse than its bound, a pair is missing, or any run
/// of B was incorrect. Runs pair up in file order; B shows a gain on a
/// pair only when it wins at least 9 of at least 10 paired runs and its
/// median moved by more than A's interquartile range.
fn compare(spec: &json::Value, args: &[String]) -> Result<bool, BoxError> {
    let [a, b] = args else {
        return Err(
            "usage: benchmark compare A B (each a results file or a directory of them)".into(),
        );
    };
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut ok = true;
    for r in &runs_b {
        if r.result.get("correct") != Some(&json::Value::Bool(true)) {
            println!("{} seed {} in {b} was not correct", r.workload, r.seed);
            ok = false;
        }
    }
    println!(
        "{:<16} {:<14} {:>6} {:>14} {:>14} {:>9} {:>7} {:>12} {:>7}  verdict",
        "workload", "metric", "unit", "median A", "median B", "change", "bound", "IQR A", "B wins"
    );
    for w in workloads::NAMES {
        for m in spec
            .get("end_to_end")
            .map(json::Value::arr)
            .unwrap_or_default()
        {
            let name = m.get("name").and_then(json::Value::str).unwrap_or_default();
            let unit = m.get("unit").and_then(json::Value::str).unwrap_or_default();
            let lower = m.get("better").and_then(json::Value::str) == Some("lower");
            let bound = m.get("bound").and_then(json::Value::num).unwrap_or(0.0);
            let (va, vb) = (
                metric_values(&runs_a, w, name),
                metric_values(&runs_b, w, name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{w:<16} {name:<14} {unit:>6} {:>14} {:>14} {:>9} {:>6.1}% {:>12} {:>7}  MISSING", "-", "-", "-", bound * 100.0, "-", "-");
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let worse = if lower { change } else { -change };
            let iqr_a = stats::quantile(&va, 0.75) - stats::quantile(&va, 0.25);
            let pairs = va.len().min(vb.len());
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(a, b)| if lower { b < a } else { b > a })
                .count();
            let verdict = if worse > bound {
                "WORSE"
            } else if pairs >= 10
                && wins * 10 >= pairs * 9
                && worse < 0.0
                && (mb - ma).abs() > iqr_a
            {
                "GAIN"
            } else {
                "ok"
            };
            ok &= worse <= bound;
            println!(
                "{w:<16} {name:<14} {unit:>6} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.1}% {iqr_a:>12.6} {:>7}  {verdict}",
                change * 100.0,
                bound * 100.0,
                format!("{wins}/{pairs}"),
            );
        }
    }
    Ok(ok)
}
