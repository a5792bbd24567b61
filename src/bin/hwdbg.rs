//! `hwdbg` — command-line front end for the toolkit.
//!
//! ```text
//! hwdbg parse <file.v> [--top NAME]                 check + print the flat module
//! hwdbg sim <file.v> [--top NAME] [--cycles N] [--clock clk] [--vcd out.vcd]
//!           [--backend tree|levelized] [--json]
//!                                                   pick the execution backend
//! hwdbg fsm <file.v> [--top NAME]                   detect FSMs (§4.2 heuristics)
//! hwdbg deps <file.v> --var SIGNAL [--cycles K]     dependency chain (§4.3)
//! hwdbg signalcat <file.v> [--top NAME] [--depth N] emit instrumented Verilog (§4.1)
//! hwdbg losscheck <file.v> --source S --sink K --valid V
//!                                                   emit instrumented Verilog (§4.5)
//! hwdbg resources <file.v> [--top NAME] [--platform harp|kc705]
//! hwdbg testbed [BUG_ID|all]                        reproduce testbed bugs (§6.1)
//! hwdbg faults <file.v> --plan PLAN [--cycles N] [--clock CLK] [--top NAME]
//!                                                   inject faults mid-simulation
//! hwdbg profile <file.v|BUG_ID> [--cycles N] [--clock CLK] [--json]
//!                                                   stage timings + hot-path counters
//! hwdbg lint <file.v|BUG_ID> [--json] [--deny IDS] [--allow IDS] [--warn IDS]
//!            [--explain LXXXX]                      static bug-pattern analysis (§6)
//! hwdbg campaign <spec|fault-matrix|seed-sweep> [--jobs N] [--json] [--out FILE]
//!                [--job-timeout SECS] [--retries N] [--journal FILE]
//!                [--resume FILE] [--baseline FILE]
//!                                                   fault-tolerant simulation fleet
//! ```
//!
//! All errors surface as rendered [`hwdbg::diag::HwdbgError`] diagnostics
//! (stable `EXXYY` codes, source excerpts for spanned errors) rather than
//! panics or bare `Debug` dumps.

use hwdbg::dataflow::{elaborate, flatten, resolve, DepKind, Design, PropGraph};
use hwdbg::diag::HwdbgError;
use hwdbg::diag::Severity;
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::lint::{Level, LintConfig};
use hwdbg::obs::{counters_json, json_escape, render_human, stages_json, SimCounters, StageTimer};
use hwdbg::sim::{run_with_faults, Backend, FaultPlan, SimConfig, Simulator};
use hwdbg::synth::{estimate, estimate_timing, Platform};
use hwdbg::testbed::{metadata, reproduce, BugId};
use hwdbg::tools::losscheck::LossCheckConfig;
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::statmon::Event;
use hwdbg::tools::{
    clock_map, DependencyMonitor, FsmMonitor, LossCheck, SignalCat, StatisticsMonitor,
};
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

/// Writes to stdout through [`stdout`], failing the enclosing command on
/// a write error.
macro_rules! out {
    ($($arg:tt)*) => { stdout(format_args!($($arg)*))? };
}

/// [`out!`] plus a newline.
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => {{ out!($($arg)*); out!("\n") }};
}

/// The one writer of the CLI's stdout. When the reader closes the pipe
/// (`hwdbg … | head`), the rest of the output is dropped quietly and the
/// command runs on, so its exit status still reports its own result;
/// any other write error fails the command.
fn stdout(args: std::fmt::Arguments<'_>) -> std::io::Result<()> {
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hwdbg: {e}");
            ExitCode::FAILURE
        }
    }
}

type Anyhow = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), Anyhow> {
    let Some(cmd) = args.first() else {
        return print_usage();
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "parse" => cmd_parse(rest),
        "sim" => cmd_sim(rest),
        "fsm" => cmd_fsm(rest),
        "deps" => cmd_deps(rest),
        "signalcat" => cmd_signalcat(rest),
        "losscheck" => cmd_losscheck(rest),
        "resources" => cmd_resources(rest),
        "testbed" => cmd_testbed(rest),
        "faults" => cmd_faults(rest),
        "profile" => cmd_profile(rest),
        "lint" => cmd_lint(rest),
        "campaign" => cmd_campaign(rest),
        "--help" | "-h" | "help" => print_usage(),
        other => Err(format!("unknown command `{other}` (try `hwdbg help`)").into()),
    }
}

fn print_usage() -> Result<(), Anyhow> {
    outln!(
        "hwdbg — software-style bug localization for reconfigurable hardware\n\n\
         usage:\n  \
         hwdbg parse <file.v> [--top NAME]\n  \
         hwdbg sim <file.v> [--top NAME] [--cycles N] [--clock CLK] [--vcd OUT] [--backend tree|levelized] [--json]\n  \
         hwdbg fsm <file.v> [--top NAME]\n  \
         hwdbg deps <file.v> --var SIGNAL [--cycles K] [--top NAME]\n  \
         hwdbg signalcat <file.v> [--top NAME] [--depth N]\n  \
         hwdbg losscheck <file.v> --source S --sink K --valid V [--top NAME]\n  \
         hwdbg resources <file.v> [--top NAME] [--platform harp|kc705]\n  \
         hwdbg testbed [BUG_ID|all]\n  \
         hwdbg faults <file.v> --plan PLAN [--cycles N] [--clock CLK] [--top NAME]\n  \
         hwdbg profile <file.v|BUG_ID> [--top NAME] [--cycles N] [--clock CLK] [--json]\n  \
         hwdbg lint <file.v|BUG_ID> [--top NAME] [--json] [--deny IDS] [--allow IDS] [--warn IDS] [--explain LXXXX]\n  \
         hwdbg campaign <spec|fault-matrix|seed-sweep> [--jobs N] [--json] [--out FILE] [--seeds N]\n           \
         [--job-timeout SECS] [--retries N] [--journal FILE] [--resume FILE] [--baseline FILE]"
    );
    Ok(())
}

/// Minimal flag parser: positional file plus `--key value` options.
struct Opts {
    file: Option<String>,
    flags: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, Anyhow> {
        let mut file = None;
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.push((key.to_owned(), value.clone()));
            } else if file.is_none() {
                file = Some(a.clone());
            } else {
                return Err(format!("unexpected argument `{a}`").into());
            }
        }
        Ok(Opts { file, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn file(&self) -> Result<&str, Anyhow> {
        self.file.as_deref().ok_or_else(|| "missing <file.v>".into())
    }
}

/// Renders a typed diagnostic against the source it points into — the
/// `error[EXXYY]` header plus a `--> path:line:col` excerpt for spanned
/// errors — and boxes it for the CLI error path.
fn rendered(diag: HwdbgError, src: &str, path: &str) -> Anyhow {
    diag.with_path(path).render(Some(src)).into()
}

fn load(opts: &Opts) -> Result<Design, Anyhow> {
    let path = opts.file()?;
    let src = std::fs::read_to_string(path)?;
    let file = hwdbg::rtl::parse(&src).map_err(|e| rendered(e.into(), &src, path))?;
    let top = match opts.get("top") {
        Some(t) => t.to_owned(),
        None => {
            file.modules
                .last()
                .ok_or("file contains no modules")?
                .name
                .clone()
        }
    };
    let design = elaborate(&file, &top, &StdIpLib::new())
        .map_err(|e| rendered(e.into(), &src, path))?;
    for warn in design.lints() {
        eprintln!("{}", warn.with_path(path).render(Some(&src)));
    }
    Ok(design)
}

fn cmd_parse(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse(args)?;
    let design = load(&opts)?;
    outln!("{}", hwdbg::rtl::print_module(&design.module()));
    eprintln!(
        "ok: {} signals, {} comb drivers, {} clocked processes, {} blackboxes",
        design.signals.len(),
        design.combs.len(),
        design.procs.len(),
        design.blackboxes.len()
    );
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), Anyhow> {
    let json = args.iter().any(|a| a == "--json");
    let filtered: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--json")
        .cloned()
        .collect();
    let opts = Opts::parse(&filtered)?;
    let design = load(&opts)?;
    let clock = opts.get("clock").unwrap_or("clk").to_owned();
    let cycles: u64 = opts.get("cycles").unwrap_or("100").parse()?;
    let backend_name = opts.get("backend").unwrap_or("levelized").to_owned();
    let backend = match backend_name.as_str() {
        "levelized" => Backend::Levelized,
        "tree" => Backend::Tree,
        other => return Err(format!("unknown backend `{other}` (tree|levelized)").into()),
    };
    let mut sim = Simulator::new(
        design,
        &StdModels,
        SimConfig::default().with_backend(backend),
    )?;
    if let Some(vcd_path) = opts.get("vcd") {
        sim.attach_vcd(std::fs::File::create(vcd_path)?)?;
    }
    sim.run(&clock, cycles)?;
    let (lowered, total) = sim.compiled_design().lowering_coverage();
    let (regions, max_level, fused_signals) = sim.compiled_design().region_stats();
    if json {
        let logs: Vec<String> = sim
            .logs()
            .iter()
            .map(|r| format!("\"{}\"", json_escape(&r.to_string())))
            .collect();
        outln!(
            "{{\"clock\": \"{}\", \"cycles\": {}, \"finished\": {}, \
             \"backend\": \"{}\", \"lowered_units\": {lowered}, \"total_units\": {total}, \
             \"regions\": {regions}, \"max_level\": {max_level}, \
             \"fused_signals\": {fused_signals}, \"logs\": [{}]}}",
            json_escape(&clock),
            sim.cycle(&clock),
            sim.finished(),
            json_escape(&backend_name),
            logs.join(", "),
        );
        return Ok(());
    }
    for rec in sim.logs() {
        outln!("{rec}");
    }
    eprintln!(
        "ran {} cycles of `{clock}`; {} log records{}",
        sim.cycle(&clock),
        sim.logs().len(),
        if sim.finished() { "; $finish reached" } else { "" }
    );
    eprintln!(
        "backend {backend_name}: {lowered}/{total} units lowered; \
         {regions} fused regions (max level {max_level}, {fused_signals} promoted signals)"
    );
    Ok(())
}

fn cmd_fsm(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse(args)?;
    let design = load(&opts)?;
    let fsms = FsmMonitor::detect(&design);
    if fsms.is_empty() {
        outln!("no FSMs detected");
        return Ok(());
    }
    for f in fsms {
        let states: Vec<String> = f
            .states
            .iter()
            .map(|(v, n)| format!("{n}={v}"))
            .collect();
        outln!("{} ({} bits): {}", f.signal, f.width, states.join(", "));
    }
    Ok(())
}

fn cmd_deps(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse(args)?;
    let design = load(&opts)?;
    let var = opts.get("var").ok_or("missing --var SIGNAL")?;
    let k: u32 = opts.get("cycles").unwrap_or("3").parse()?;
    let graph = PropGraph::build(&design, &StdIpLib::new())?;
    let chain = DependencyMonitor::analyze(
        &design,
        &graph,
        var,
        k,
        &[DepKind::Data, DepKind::Control],
    )?;
    outln!("dependencies of `{var}` within {k} cycles:");
    for (sig, dist) in &chain.deps {
        if sig != var {
            outln!("  {dist} cycle(s): {sig}");
        }
    }
    Ok(())
}

fn cmd_signalcat(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse(args)?;
    let design = load(&opts)?;
    let cfg = SignalCatConfig {
        buffer_depth: opts.get("depth").unwrap_or("8192").parse()?,
        ..Default::default()
    };
    let info = SignalCat::instrument(&design, &cfg)?;
    outln!("{}", hwdbg::rtl::print_module(&info.module));
    eprintln!(
        "instrumented {} $display statement(s); generated {} lines",
        info.statements.len(),
        info.generated_lines
    );
    Ok(())
}

fn cmd_losscheck(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse(args)?;
    let design = load(&opts)?;
    let cfg = LossCheckConfig {
        source: opts.get("source").ok_or("missing --source")?.to_owned(),
        sink: opts.get("sink").ok_or("missing --sink")?.to_owned(),
        source_valid: opts.get("valid").ok_or("missing --valid")?.to_owned(),
    };
    let graph = PropGraph::build(&design, &StdIpLib::new())?;
    let info = LossCheck::instrument(&design, &graph, &cfg)?;
    outln!("{}", hwdbg::rtl::print_module(&info.module));
    eprintln!(
        "tracking {:?} on the {} -> {} path; generated {} lines",
        info.tracked, cfg.source, cfg.sink, info.generated_lines
    );
    Ok(())
}

fn cmd_resources(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse(args)?;
    let design = load(&opts)?;
    let platform = match opts.get("platform").unwrap_or("harp") {
        "harp" => Platform::IntelHarp,
        "kc705" => Platform::XilinxKc705,
        other => return Err(format!("unknown platform `{other}`").into()),
    };
    let r = estimate(&design);
    let t = estimate_timing(&design);
    let (regs, logic, bram) = r.normalized(platform);
    outln!("platform: {platform}");
    outln!("registers : {:>10}  ({regs:.4}%)", r.registers);
    outln!("logic     : {:>10}  ({logic:.4}%)", r.logic_cells);
    outln!("bram bits : {:>10}  ({bram:.4}%)", r.bram_bits);
    outln!(
        "timing    : {} logic levels, Fmax ≈ {:.0} MHz",
        t.critical_levels,
        t.fmax_mhz
    );
    Ok(())
}

fn cmd_testbed(args: &[String]) -> Result<(), Anyhow> {
    let which = args.first().map(String::as_str).unwrap_or("all");
    let ids: Vec<BugId> = if which == "all" {
        BugId::ALL.to_vec()
    } else {
        let found = BugId::ALL
            .into_iter()
            .find(|id| id.to_string().eq_ignore_ascii_case(which));
        vec![found.ok_or_else(|| format!("unknown bug id `{which}`"))?]
    };
    let mut failures = 0;
    for id in ids {
        let r = reproduce(id)?;
        let ok = r.symptom_observed && r.fixed_passes;
        failures += (!ok) as usize;
        outln!(
            "{id:<4} {} symptom={} | {}",
            if ok { "ok  " } else { "FAIL" },
            r.symptom.map_or("-".into(), |s| s.to_string()),
            r.detail
        );
    }
    if failures > 0 {
        return Err(format!("{failures} bug(s) failed to reproduce").into());
    }
    Ok(())
}

/// `hwdbg profile`: run the whole pipeline — parse, elaborate (flatten +
/// resolve), compile, simulate, analyze — with per-stage wall-clock spans
/// and the simulator's hot-path counters enabled, then report both.
///
/// The target is either a Verilog file or a testbed bug id (`d2`, `c1`,
/// ...). Analysis sub-spans run each paper tool that applies to the design
/// and fold its tool-side counters into the same registry; tools that do
/// not apply (no `$display`s, no FSM, no loss spec) are skipped silently —
/// profiling reports what ran, it does not fail on what cannot.
fn cmd_profile(args: &[String]) -> Result<(), Anyhow> {
    let json = args.iter().any(|a| a == "--json");
    let filtered: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--json")
        .cloned()
        .collect();
    let opts = Opts::parse(&filtered)?;
    let target = opts.file()?;

    // Testbed bug id or path on disk.
    let bug = BugId::ALL
        .into_iter()
        .find(|id| id.to_string().eq_ignore_ascii_case(target));
    let (label, src, top, loss) = match bug {
        Some(id) => {
            let meta = metadata(id);
            (
                format!("testbed:{id}"),
                meta.source.to_owned(),
                Some(meta.top.to_owned()),
                meta.loss,
            )
        }
        None => (
            target.to_owned(),
            std::fs::read_to_string(target)?,
            opts.get("top").map(str::to_owned),
            None,
        ),
    };

    let lib = StdIpLib::new();
    let mut timer = StageTimer::new();
    let file = timer
        .time("parse", || hwdbg::rtl::parse(&src))
        .map_err(|e| rendered(e.into(), &src, &label))?;
    let top = match top {
        Some(t) => t,
        None => {
            file.modules
                .last()
                .ok_or("file contains no modules")?
                .name
                .clone()
        }
    };
    timer.start("elaborate");
    let design = timer
        .time("flatten", || flatten(&file, &top, &lib))
        .and_then(|flat| timer.time("resolve", || resolve(flat, &lib)));
    timer.finish();
    let design = design.map_err(|e| rendered(e.into(), &src, &label))?;

    let clock = match opts.get("clock") {
        Some(c) => c.to_owned(),
        None => clock_map(&design).primary().unwrap_or("clk").to_owned(),
    };
    let cycles: u64 = opts.get("cycles").unwrap_or("200").parse()?;

    let mut sim = timer.time("compile", || {
        Simulator::new(
            design.clone(),
            &StdModels,
            SimConfig::default().with_metrics(true),
        )
    })?;
    // Testbed bugs run their push-button workload (the profile then covers
    // a representative stimulus, and a symptom is an outcome, not a crash);
    // plain files free-run the clock.
    let outcome = match bug {
        Some(id) => match timer.time("simulate", || hwdbg::testbed::workloads::run(id, &mut sim))
        {
            Ok(hwdbg::testbed::Outcome::Pass) => "pass".to_owned(),
            Ok(hwdbg::testbed::Outcome::Fail { symptom, .. }) => format!("fail ({symptom})"),
            Err(e) => format!("error ({e})"),
        },
        None => {
            timer.time("simulate", || sim.run(&clock, cycles))?;
            if sim.finished() {
                "$finish".to_owned()
            } else {
                "ran".to_owned()
            }
        }
    };
    let mut counters = sim.counters().copied().unwrap_or_default();
    // Analysis re-simulations use the same stimulus as the profiled run.
    let drive = |s: &mut Simulator| -> bool {
        match bug {
            Some(id) => hwdbg::testbed::workloads::run(id, s).is_ok(),
            None => s.run(&clock, cycles).is_ok(),
        }
    };

    // LossCheck and the statistics monitor free-run the clock instead.
    let free_run = |s: &mut Simulator| s.run(&clock, cycles).is_ok();

    timer.start("analyze");
    timer.time("signalcat", || {
        let Ok(info) = SignalCat::instrument(&design, &SignalCatConfig::default()) else {
            return;
        };
        if let Some(s) = resimulate(&info.module, &lib, drive) {
            SignalCat::observe(&info, &s, &mut counters);
        }
    });
    timer.time("fsm", || {
        let Ok(info) = FsmMonitor::new().instrument(&design) else {
            return;
        };
        if let Some(s) = resimulate(&info.module, &lib, drive) {
            FsmMonitor::observe(&info, &s, &mut counters);
        }
    });
    timer.time("depmon", || DependencyMonitor::observe(&sim, &mut counters));
    if let Some(loss) = &loss {
        timer.time("losscheck", || {
            let cfg = LossCheckConfig {
                source: loss.source.to_owned(),
                sink: loss.sink.to_owned(),
                source_valid: loss.valid.to_owned(),
            };
            let Ok(graph) = PropGraph::build(&design, &lib) else {
                return;
            };
            let Ok(info) = LossCheck::instrument(&design, &graph, &cfg) else {
                return;
            };
            if let Some(s) = resimulate(&info.module, &lib, free_run) {
                LossCheck::observe(s.logs(), &mut counters);
            }
        });
        timer.time("statmon", || {
            let Ok(expr) = hwdbg::rtl::parse_expr(loss.valid) else {
                return;
            };
            let events = vec![Event::new("valid", expr)];
            let Ok(info) = StatisticsMonitor::instrument(&design, &events, None) else {
                return;
            };
            if let Some(s) = resimulate(&info.module, &lib, free_run) {
                StatisticsMonitor::observe(&info, &s, &mut counters);
            }
        });
    }
    timer.finish();

    let (lowered, total) = sim.compiled_design().lowering_coverage();
    let (regions, max_level, fused_signals) = sim.compiled_design().region_stats();
    if json {
        outln!(
            "{{\"design\": \"{}\", \"clock\": \"{}\", \"cycles\": {cycles}, \
             \"outcome\": \"{}\", \"lowered_units\": {lowered}, \"total_units\": {total}, \
             \"regions\": {regions}, \"max_level\": {max_level}, \
             \"fused_signals\": {fused_signals}, \"stages\": {}, \"counters\": {}}}",
            json_escape(&label),
            json_escape(&clock),
            json_escape(&outcome),
            stages_json(&timer),
            counters_json(&counters),
        );
    } else {
        outln!("profile of {label} — clock `{clock}`, outcome: {outcome}");
        outln!(
            "schedule: {lowered}/{total} units lowered; {regions} fused regions \
             (max level {max_level}, {fused_signals} promoted signals)"
        );
        outln!("{}", render_human(&timer, &counters));
    }
    Ok(())
}

/// Resolves an instrumented module, compiles it and drives it with `run`:
/// the shared tail of `hwdbg profile`'s analysis stages. `None` when any
/// step fails, so the stage is skipped.
fn resimulate(
    module: &hwdbg::rtl::Module,
    lib: &StdIpLib,
    run: impl FnOnce(&mut Simulator) -> bool,
) -> Option<Simulator> {
    let design = resolve(module.clone(), lib).ok()?;
    let mut sim = Simulator::new(design, &StdModels, SimConfig::default()).ok()?;
    run(&mut sim).then_some(sim)
}

/// `hwdbg lint`: run the static bug-pattern passes over an elaborated
/// design and render every finding against its source. The target is
/// either a Verilog file or a testbed bug id (`d1`, `c3`, ...).
///
/// `--deny`/`--allow`/`--warn` take comma-separated L-codes and override
/// the built-in levels; any deny-level finding makes the command exit
/// nonzero, so `--deny L0501` turns a lint into a CI gate.
fn cmd_lint(args: &[String]) -> Result<(), Anyhow> {
    let json = args.iter().any(|a| a == "--json");
    let filtered: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--json")
        .cloned()
        .collect();
    let opts = Opts::parse(&filtered)?;
    // `--explain LXXXX` needs no design: resolve the code and exit.
    if let Some(code) = opts.get("explain") {
        return explain_code(code, json);
    }
    let target = opts.file()?;

    // Testbed bug id or path on disk.
    let bug = BugId::ALL
        .into_iter()
        .find(|id| id.to_string().eq_ignore_ascii_case(target));
    let (label, src, top) = match bug {
        Some(id) => {
            let meta = metadata(id);
            (
                format!("testbed:{id}"),
                meta.source.to_owned(),
                Some(meta.top.to_owned()),
            )
        }
        None => (
            target.to_owned(),
            std::fs::read_to_string(target)?,
            opts.get("top").map(str::to_owned),
        ),
    };

    let mut cfg = LintConfig::new();
    for (flag, level) in [
        ("allow", Level::Allow),
        ("warn", Level::Warn),
        ("deny", Level::Deny),
    ] {
        if let Some(list) = opts.get(flag) {
            for code in list.split(',').map(str::trim).filter(|c| !c.is_empty()) {
                cfg.set(code, level);
            }
        }
    }

    let mut timer = StageTimer::new();
    let file = timer
        .time("parse", || hwdbg::rtl::parse(&src))
        .map_err(|e| rendered(e.into(), &src, &label))?;
    let top = match top {
        Some(t) => t,
        None => {
            file.modules
                .last()
                .ok_or("file contains no modules")?
                .name
                .clone()
        }
    };
    let design = timer
        .time("elaborate", || elaborate(&file, &top, &StdIpLib::new()))
        .map_err(|e| rendered(e.into(), &src, &label))?;

    let mut counters = SimCounters::default();
    timer.start("lint");
    let findings = hwdbg::lint::run_all(&design, &cfg, &mut timer, &mut counters);
    timer.finish();
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();

    if json {
        let items: Vec<String> = findings
            .iter()
            .map(|f| {
                let span = f
                    .span
                    .map_or("null".to_owned(), |s| format!("[{}, {}]", s.start, s.end));
                let signals: Vec<String> = f
                    .signals
                    .iter()
                    .map(|s| format!("\"{}\"", json_escape(s)))
                    .collect();
                format!(
                    "{{\"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\", \
                     \"span\": {span}, \"signals\": [{}]}}",
                    f.code.as_str(),
                    f.severity,
                    json_escape(&f.message),
                    signals.join(", ")
                )
            })
            .collect();
        outln!(
            "{{\"design\": \"{}\", \"top\": \"{}\", \"errors\": {errors}, \
             \"findings\": [{}], \"stages\": {}, \"counters\": {}}}",
            json_escape(&label),
            json_escape(&top),
            items.join(", "),
            stages_json(&timer),
            counters_json(&counters),
        );
    } else {
        for f in &findings {
            outln!("{}", f.clone().with_path(&label).render(Some(&src)));
        }
        eprintln!(
            "{label}: {} finding(s) ({errors} error(s)) from {} pass(es)",
            findings.len(),
            counters.lint_passes
        );
    }
    if errors > 0 {
        return Err(format!("{errors} deny-level finding(s)").into());
    }
    Ok(())
}

/// `hwdbg lint --explain LXXXX`: print what a code fingerprints, the
/// Table 1 subclass it targets, and a minimal triggering example.
fn explain_code(code: &str, json: bool) -> Result<(), Anyhow> {
    let Some(e) = hwdbg::lint::explain(code) else {
        return Err(format!(
            "unknown lint code `{code}` (codes look like L0501; \
             see `hwdbg lint` findings for the full set)"
        )
        .into());
    };
    if json {
        outln!(
            "{{\"code\": \"{}\", \"subclass\": \"{}\", \"summary\": \"{}\", \
             \"example\": \"{}\"}}",
            e.code,
            json_escape(e.subclass),
            json_escape(e.summary),
            json_escape(e.example),
        );
    } else {
        outln!("{} — Table 1 subclass: {}", e.code, e.subclass);
        outln!();
        outln!("{}", e.summary);
        outln!();
        outln!("example:");
        for line in e.example.lines() {
            outln!("    {line}");
        }
    }
    Ok(())
}

fn cmd_faults(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse(args)?;
    let design = load(&opts)?;
    let plan_path = opts.get("plan").ok_or("missing --plan PLAN")?;
    let plan_src = std::fs::read_to_string(plan_path)?;
    let plan = FaultPlan::parse(&plan_src)
        .map_err(|e| rendered(e.into(), &plan_src, plan_path))?;
    plan.validate(&design)
        .map_err(|e| rendered(e.into(), &plan_src, plan_path))?;
    let clock = opts.get("clock").unwrap_or("clk").to_owned();
    let cycles: u64 = opts.get("cycles").unwrap_or("100").parse()?;

    eprintln!("injecting {} fault(s):", plan.faults.len());
    for f in &plan.faults {
        eprintln!("  {f}");
    }
    let mut sim = Simulator::new(design, &StdModels, SimConfig::default())?;
    match run_with_faults(&mut sim, &clock, cycles, &plan) {
        Ok(ran) => {
            for rec in sim.logs() {
                outln!("{rec}");
            }
            let forced = sim.forced_signals();
            eprintln!(
                "ran {ran} cycles of `{clock}` under faults; {} log records{}{}",
                sim.logs().len(),
                if sim.finished() { "; $finish reached" } else { "" },
                if forced.is_empty() {
                    String::new()
                } else {
                    format!("; still forced at exit: {}", forced.join(", "))
                }
            );
            Ok(())
        }
        // A typed simulation error under faults is a *finding*, not a
        // crash: render it with its code and the signals involved.
        Err(e) => {
            let diag: HwdbgError = e.into();
            Err(diag.render(None).into())
        }
    }
}

/// `hwdbg campaign` — run a job matrix across worker threads and print
/// one aggregated report.
///
/// The target is a builtin campaign (`fault-matrix`, `seed-sweep`) or a
/// spec file in the job-matrix grammar (see `hwdbg-campaign` docs and
/// README). `--jobs N` picks the worker count (default: available
/// parallelism); `--json` prints the full machine-readable report (the
/// `results` section of which is byte-identical for any `--jobs` value);
/// `--out FILE` streams the JSON report to a file as jobs retire.
///
/// Fault tolerance: `--job-timeout SECS` arms a per-job wall-clock
/// watchdog (hung jobs become `timed-out` records); `--retries N` reruns
/// crashed/timed-out jobs up to N times; `--journal FILE` appends each
/// retired record to a crash-safe JSONL journal; `--resume FILE` replays
/// a journal from a killed run and executes only the remainder (the
/// final results section is byte-identical to an uninterrupted run);
/// `--baseline FILE` diffs this run's verdicts against a prior report
/// and exits nonzero on drift.
fn cmd_campaign(args: &[String]) -> Result<(), Anyhow> {
    use hwdbg::campaign::journal::{self, JournalWriter, StreamingReport};
    use hwdbg::campaign::{baseline, CampaignError, JobRecord, RunOptions};
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::sync::Mutex;

    // CampaignError carries a stable E08xx code; render it like every
    // other diagnostic instead of Debug-dumping.
    fn rendered_campaign(e: CampaignError) -> Anyhow {
        let diag: HwdbgError = e.into();
        diag.render(None).into()
    }
    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    let json = args.iter().any(|a| a == "--json");
    let filtered: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--json")
        .cloned()
        .collect();
    let opts = Opts::parse(&filtered)?;
    let target = opts.file.as_deref().ok_or(
        "missing campaign target: a spec file, `fault-matrix`, or `seed-sweep`",
    )?;
    let jobs: usize = match opts.get("jobs") {
        Some(n) => n.parse()?,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut run_opts = RunOptions::default();
    if let Some(t) = opts.get("job-timeout") {
        let secs: f64 = t.parse()?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("--job-timeout must be a positive number of seconds, got `{t}`").into());
        }
        run_opts.job_timeout = Some(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(r) = opts.get("retries") {
        run_opts.retries = r.parse()?;
    }
    let campaign = match target {
        "fault-matrix" => hwdbg::campaign::clients::fault_matrix()?,
        "seed-sweep" => {
            let seeds: u64 = opts.get("seeds").unwrap_or("4").parse()?;
            hwdbg::campaign::clients::seed_sweep(seeds)?
        }
        path => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))?;
            hwdbg::campaign::CampaignSpec::parse(&src)?.build()?
        }
    };

    // Journal: `--resume` replays + appends to an existing journal;
    // `--journal` starts a fresh one.
    let mut completed: BTreeMap<usize, JobRecord> = BTreeMap::new();
    let mut writer: Option<JournalWriter> = None;
    if let Some(rp) = opts.get("resume") {
        let state = journal::load(Path::new(rp)).map_err(rendered_campaign)?;
        journal::validate(&state, &campaign).map_err(rendered_campaign)?;
        if state.torn_tail {
            eprintln!("{rp}: torn final line (crash damage); that job will rerun");
        }
        eprintln!(
            "resuming {rp}: {} of {} jobs already journaled",
            state.completed.len(),
            campaign.jobs.len()
        );
        completed = state.completed;
        writer = Some(JournalWriter::resume(Path::new(rp))?);
    } else if let Some(jp) = opts.get("journal") {
        writer = Some(JournalWriter::create(Path::new(jp), &campaign)?);
    }

    // `--out` streams the report as jobs retire; replayed records land
    // in the stream up front so a resumed file is complete too.
    let mut stream: Option<StreamingReport> = None;
    if let Some(out) = opts.get("out") {
        let mut s = StreamingReport::create(Path::new(out), &campaign.name, campaign.jobs.len())?;
        for (i, r) in &completed {
            s.push(*i, r)?;
        }
        stream = Some(s);
    }

    let writer = Mutex::new(writer);
    let stream = Mutex::new(stream);
    let retire = |i: usize, r: &JobRecord| {
        // On I/O failure, warn once and stop writing — a full disk must
        // not take down the campaign itself.
        let mut w = lock(&writer);
        if let Some(jw) = w.as_mut() {
            if let Err(e) = jw.append(i, r) {
                eprintln!("journal write failed, disabling journal: {e}");
                *w = None;
            }
        }
        drop(w);
        let mut s = lock(&stream);
        if let Some(sr) = s.as_mut() {
            if let Err(e) = sr.push(i, r) {
                eprintln!("--out stream write failed, disabling: {e}");
                *s = None;
            }
        }
    };
    let mut report = campaign
        .run_with(jobs, run_opts, &completed, retire)
        .map_err(rendered_campaign)?;

    if let Some(mut jw) = lock(&writer).take() {
        jw.sync()?;
        report.journal_flushes = jw.flushes();
    }
    if let Some(sr) = lock(&stream).take() {
        sr.finish(&report)?;
    }

    if json {
        outln!("{}", report.to_json());
    } else {
        out!("{}", report.render_human());
    }

    // `--baseline`: typed verdict drift is a failure the exit code must
    // carry, with the per-job table on stderr.
    if let Some(bp) = opts.get("baseline") {
        let text = std::fs::read_to_string(bp).map_err(|e| format!("{bp}: {e}"))?;
        let base = baseline::parse_baseline(&text).map_err(rendered_campaign)?;
        let d = baseline::diff(&report.records, &base);
        if !d.is_clean() {
            eprintln!("{}", d.render_table());
            return Err(rendered_campaign(CampaignError::Baseline(format!(
                "{} verdict(s) drifted from baseline {bp}",
                d.drifted.len()
            ))));
        }
        if !d.missing.is_empty() || !d.added.is_empty() {
            eprint!("{}", d.render_table());
        }
        eprintln!("baseline {bp}: no verdict drift");
    }
    Ok(())
}
