//! Observability layer: pipeline stage timing and hot-path counters.
//!
//! The paper's premise is that hardware debugging fails for lack of
//! visibility into execution — and the same holds for the debugging
//! toolchain itself. This crate is the low-overhead telemetry layer every
//! other crate reports into:
//!
//! * [`StageTimer`] — nestable wall-clock spans over the pipeline stages
//!   (parse → elaborate → flatten → compile → simulate → analyze), the
//!   software analogue of a pipeline stage monitor;
//! * [`SimCounters`] — a plain-`u64` registry of hot-path event counters
//!   (settle iterations, unit executions, work-list pushes, nonblocking
//!   commits, force hits, …) that the simulator bumps behind a single
//!   branch when enabled and skips entirely when disabled;
//! * JSON and rustc-style human renderers, so the same data feeds
//!   `hwdbg profile`, `perfsuite`/`BENCH_sim.json`, and eyeballs.
//!
//! Nothing here depends on the rest of the workspace, so any crate can
//! report into it without dependency cycles.
//!
//! # Examples
//!
//! ```
//! use hwdbg_obs::{SimCounters, StageTimer};
//!
//! let mut timer = StageTimer::new();
//! timer.start("elaborate");
//! timer.start("flatten"); // nested under elaborate
//! timer.finish();
//! timer.finish();
//!
//! let mut c = SimCounters::default();
//! c.steps += 42;
//! assert!(hwdbg_obs::render_human(&timer, &c).contains("flatten"));
//! assert!(hwdbg_obs::counters_json(&c).contains("\"steps\": 42"));
//! ```

#![warn(missing_docs)]

pub mod alloc_counter;

pub use alloc_counter::{thread_allocs, thread_live_bytes, CountingAlloc};

use std::time::{Duration, Instant};

/// One completed (or still-open) pipeline stage span.
#[derive(Debug, Clone)]
pub struct StageSpan {
    /// Stage name, e.g. `parse` or `simulate`.
    pub name: String,
    /// Nesting depth (0 = top-level stage).
    pub depth: usize,
    /// Wall-clock duration. Zero while the span is still open.
    pub elapsed: Duration,
}

/// A nestable wall-clock timer over pipeline stages.
///
/// Spans are recorded in start order; [`StageTimer::start`] opens a span
/// nested under the innermost open one, [`StageTimer::finish`] closes the
/// innermost open span. Unbalanced `finish` calls are ignored rather than
/// panicking — a profiler must never take down the run it is observing.
#[derive(Debug, Clone, Default)]
pub struct StageTimer {
    spans: Vec<StageSpan>,
    /// Open spans: index into `spans` and the instant the span started.
    stack: Vec<(usize, Instant)>,
}

impl StageTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        StageTimer::default()
    }

    /// Opens a span named `name`, nested under the innermost open span.
    pub fn start(&mut self, name: &str) {
        let depth = self.stack.len();
        self.spans.push(StageSpan {
            name: name.to_owned(),
            depth,
            elapsed: Duration::ZERO,
        });
        self.stack.push((self.spans.len() - 1, Instant::now()));
    }

    /// Closes the innermost open span. A `finish` with no open span is a
    /// no-op.
    pub fn finish(&mut self) {
        if let Some((idx, started)) = self.stack.pop() {
            if let Some(span) = self.spans.get_mut(idx) {
                span.elapsed = started.elapsed();
            }
        }
    }

    /// Times one closure as a span: `start`, run, `finish`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.start(name);
        let r = f();
        self.finish();
        r
    }

    /// Recorded spans in start order.
    pub fn spans(&self) -> &[StageSpan] {
        &self.spans
    }

    /// Sum of the top-level (depth 0) span durations.
    pub fn total(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.elapsed)
            .sum()
    }
}

/// The hot-path counter registry: one plain `u64` per event class.
///
/// The simulator holds these behind an `Option`, so the disabled path pays
/// exactly one branch per instrumentation site (the same pattern its
/// `forces` map uses); enabled, every bump is a single integer add.
/// The first block is filled by the simulator hot path, the second by the
/// debugging tools' dynamic halves (see each tool's `observe`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    // --- simulator hot path ---
    /// Clock edges stepped ([`step`]: settle, edge, commit, settle).
    ///
    /// [`step`]: https://docs.rs/hwdbg-sim
    pub steps: u64,
    /// Combinational settles executed (two per step, plus explicit calls).
    pub settles: u64,
    /// Settles that ran the *entire* unit set: full-pass iterations, plus
    /// event-driven settles seeded from scratch (initial state, restores).
    pub full_settles: u64,
    /// Individual settle-unit executions (comb drivers + blackbox evals).
    pub units_executed: u64,
    /// Unit indices offered to the event-driven work-list (pre-dedup).
    pub worklist_pushes: u64,
    /// Fused-region executions under the levelized backend (each runs all
    /// of its member units straight-line, no worklist).
    pub regions_executed: u64,
    /// Regions left untouched by a levelized settle because none of their
    /// external inputs changed (per settle: total regions − executed).
    pub region_skips: u64,
    /// Clocked-process executions at posedges.
    pub proc_runs: u64,
    /// Nonblocking writes committed after clock edges.
    pub nb_commits: u64,
    /// Writes swallowed because the target signal was force-pinned.
    pub force_hits: u64,
    /// Fault-plan transitions applied (forces, releases, bit flips).
    pub fault_events: u64,
    /// Pokes that actually changed a signal's stored value.
    pub pokes: u64,
    // --- tool dynamic halves ---
    /// Trace-buffer entries held at observation time (occupancy).
    pub trace_entries: u64,
    /// Trace-buffer entries lost to ring wrap-around.
    pub trace_wraps: u64,
    /// FSM state transitions reconstructed by the FSM Monitor.
    pub fsm_transitions: u64,
    /// Dependency-chain updates reconstructed by the Dependency Monitor.
    pub dep_updates: u64,
    /// Event occurrences totalled by the Statistics Monitor.
    pub stat_events: u64,
    /// LossCheck shadow-state updates observed (LOSSCHECK records).
    pub shadow_updates: u64,
    // --- static analysis (lint) ---
    /// Lint passes executed over an elaborated design.
    pub lint_passes: u64,
    /// Lint findings emitted (all severities, before allow-filtering).
    pub lint_findings: u64,
    // --- campaign fault tolerance ---
    /// Jobs whose final attempt panicked (isolated to a `crashed` record).
    pub jobs_crashed: u64,
    /// Jobs whose final attempt blew its wall-clock deadline.
    pub jobs_timed_out: u64,
    /// Extra attempts consumed by bounded retries of transient failures.
    pub jobs_retried: u64,
    /// Batched fsyncs performed by the campaign journal writer.
    pub journal_flushes: u64,
}

impl SimCounters {
    /// Every counter as `(name, value)` pairs, in declaration order. The
    /// single source of truth for both renderers.
    pub fn pairs(&self) -> [(&'static str, u64); 24] {
        [
            ("steps", self.steps),
            ("settles", self.settles),
            ("full_settles", self.full_settles),
            ("units_executed", self.units_executed),
            ("worklist_pushes", self.worklist_pushes),
            ("regions_executed", self.regions_executed),
            ("region_skips", self.region_skips),
            ("proc_runs", self.proc_runs),
            ("nb_commits", self.nb_commits),
            ("force_hits", self.force_hits),
            ("fault_events", self.fault_events),
            ("pokes", self.pokes),
            ("trace_entries", self.trace_entries),
            ("trace_wraps", self.trace_wraps),
            ("fsm_transitions", self.fsm_transitions),
            ("dep_updates", self.dep_updates),
            ("stat_events", self.stat_events),
            ("shadow_updates", self.shadow_updates),
            ("lint_passes", self.lint_passes),
            ("lint_findings", self.lint_findings),
            ("jobs_crashed", self.jobs_crashed),
            ("jobs_timed_out", self.jobs_timed_out),
            ("jobs_retried", self.jobs_retried),
            ("journal_flushes", self.journal_flushes),
        ]
    }

    /// Sets a counter by its [`pairs`](Self::pairs) name; returns false
    /// for unknown names. This is the inverse of the JSON renderer, used
    /// by the campaign journal loader to round-trip records exactly.
    pub fn set(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "steps" => &mut self.steps,
            "settles" => &mut self.settles,
            "full_settles" => &mut self.full_settles,
            "units_executed" => &mut self.units_executed,
            "worklist_pushes" => &mut self.worklist_pushes,
            "regions_executed" => &mut self.regions_executed,
            "region_skips" => &mut self.region_skips,
            "proc_runs" => &mut self.proc_runs,
            "nb_commits" => &mut self.nb_commits,
            "force_hits" => &mut self.force_hits,
            "fault_events" => &mut self.fault_events,
            "pokes" => &mut self.pokes,
            "trace_entries" => &mut self.trace_entries,
            "trace_wraps" => &mut self.trace_wraps,
            "fsm_transitions" => &mut self.fsm_transitions,
            "dep_updates" => &mut self.dep_updates,
            "stat_events" => &mut self.stat_events,
            "shadow_updates" => &mut self.shadow_updates,
            "lint_passes" => &mut self.lint_passes,
            "lint_findings" => &mut self.lint_findings,
            "jobs_crashed" => &mut self.jobs_crashed,
            "jobs_timed_out" => &mut self.jobs_timed_out,
            "jobs_retried" => &mut self.jobs_retried,
            "journal_flushes" => &mut self.journal_flushes,
            _ => return false,
        };
        *slot = value;
        true
    }

    /// Adds every counter of `other` into `self` (merging per-run
    /// telemetry from several simulators into one report).
    pub fn merge(&mut self, other: &SimCounters) {
        let SimCounters {
            steps,
            settles,
            full_settles,
            units_executed,
            worklist_pushes,
            regions_executed,
            region_skips,
            proc_runs,
            nb_commits,
            force_hits,
            fault_events,
            pokes,
            trace_entries,
            trace_wraps,
            fsm_transitions,
            dep_updates,
            stat_events,
            shadow_updates,
            lint_passes,
            lint_findings,
            jobs_crashed,
            jobs_timed_out,
            jobs_retried,
            journal_flushes,
        } = other;
        self.steps += steps;
        self.settles += settles;
        self.full_settles += full_settles;
        self.units_executed += units_executed;
        self.worklist_pushes += worklist_pushes;
        self.regions_executed += regions_executed;
        self.region_skips += region_skips;
        self.proc_runs += proc_runs;
        self.nb_commits += nb_commits;
        self.force_hits += force_hits;
        self.fault_events += fault_events;
        self.pokes += pokes;
        self.trace_entries += trace_entries;
        self.trace_wraps += trace_wraps;
        self.fsm_transitions += fsm_transitions;
        self.dep_updates += dep_updates;
        self.stat_events += stat_events;
        self.shadow_updates += shadow_updates;
        self.lint_passes += lint_passes;
        self.lint_findings += lint_findings;
        self.jobs_crashed += jobs_crashed;
        self.jobs_timed_out += jobs_timed_out;
        self.jobs_retried += jobs_retried;
        self.journal_flushes += journal_flushes;
    }

    /// Sums many counter sets into one — the campaign aggregation path,
    /// where every job reports its own [`SimCounters`] and the fleet
    /// report carries the total.
    pub fn merge_all<'a>(sets: impl IntoIterator<Item = &'a SimCounters>) -> SimCounters {
        let mut out = SimCounters::default();
        for s in sets {
            out.merge(s);
        }
        out
    }
}

/// Milliseconds with enough precision for sub-millisecond stages.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Minimal JSON string escaping for hand-rolled JSON renderers (this
/// crate's and those of downstream reporters like the CLI and perfsuite).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the stage spans as a JSON array:
/// `[{"stage": "parse", "depth": 0, "ms": 0.12}, …]`.
pub fn stages_json(timer: &StageTimer) -> String {
    let mut out = String::from("[");
    for (i, s) in timer.spans().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"stage\": \"{}\", \"depth\": {}, \"ms\": {:.4}}}",
            json_escape(&s.name),
            s.depth,
            ms(s.elapsed)
        ));
    }
    out.push(']');
    out
}

/// Renders the counters as a JSON object: `{"steps": 42, …}`.
/// Every counter appears, including zeros, so the schema is stable.
pub fn counters_json(c: &SimCounters) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in c.pairs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {v}"));
    }
    out.push('}');
    out
}

/// Renders a rustc-style human report: an indented stage-timing block
/// (`time: 12.345ms  stage`) followed by a dot-ruled counter table.
pub fn render_human(timer: &StageTimer, c: &SimCounters) -> String {
    let mut out = String::new();
    if !timer.spans().is_empty() {
        out.push_str("stage timings:\n");
        for s in timer.spans() {
            out.push_str(&format!(
                "  time: {:>10.3}ms  {}{}\n",
                ms(s.elapsed),
                "  ".repeat(s.depth),
                s.name
            ));
        }
        out.push_str(&format!(
            "  time: {:>10.3}ms  total\n",
            ms(timer.total())
        ));
    }
    out.push_str("hot-path counters:\n");
    let width = c
        .pairs()
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0);
    for (name, v) in c.pairs() {
        out.push_str(&format!(
            "  {name} {} {v}\n",
            ".".repeat(width + 3 - name.len())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut t = StageTimer::new();
        t.start("elaborate");
        t.start("flatten");
        t.finish();
        t.start("resolve");
        t.finish();
        t.finish();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name.as_str(), spans[0].depth), ("elaborate", 0));
        assert_eq!((spans[1].name.as_str(), spans[1].depth), ("flatten", 1));
        assert_eq!((spans[2].name.as_str(), spans[2].depth), ("resolve", 1));
        // The parent span covers its children.
        assert!(spans[0].elapsed >= spans[1].elapsed + spans[2].elapsed);
        assert_eq!(t.total(), spans[0].elapsed);
    }

    #[test]
    fn unbalanced_finish_is_ignored() {
        let mut t = StageTimer::new();
        t.finish();
        t.start("a");
        t.finish();
        t.finish();
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn time_closure_returns_value() {
        let mut t = StageTimer::new();
        let v = t.time("work", || 7u32);
        assert_eq!(v, 7);
        assert_eq!(t.spans()[0].name, "work");
    }

    #[test]
    fn counters_merge_and_render() {
        let mut a = SimCounters {
            steps: 2,
            trace_wraps: 1,
            ..SimCounters::default()
        };
        let b = SimCounters {
            steps: 3,
            shadow_updates: 5,
            ..SimCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.steps, 5);
        assert_eq!(a.shadow_updates, 5);
        assert_eq!(a.trace_wraps, 1);
        let json = counters_json(&a);
        assert!(json.contains("\"steps\": 5"));
        assert!(json.contains("\"shadow_updates\": 5"));
        // Stable schema: all 22 counters present even when zero.
        assert_eq!(json.matches(':').count(), 24);
    }

    #[test]
    fn set_by_name_round_trips_every_pair() {
        let mut c = SimCounters::default();
        for (i, (name, _)) in SimCounters::default().pairs().iter().enumerate() {
            assert!(c.set(name, i as u64 + 1), "unknown counter {name}");
        }
        for (i, (name, v)) in c.pairs().iter().enumerate() {
            assert_eq!(*v, i as u64 + 1, "{name} did not round-trip");
        }
        assert!(!c.set("no_such_counter", 1));
    }

    #[test]
    fn stages_json_shape() {
        let mut t = StageTimer::new();
        t.start("parse");
        t.finish();
        let json = stages_json(&t);
        assert!(json.starts_with('['));
        assert!(json.contains("\"stage\": \"parse\""));
        assert!(json.contains("\"depth\": 0"));
    }

    #[test]
    fn human_report_lists_every_counter() {
        let t = StageTimer::new();
        let c = SimCounters::default();
        let text = render_human(&t, &c);
        for (name, _) in c.pairs() {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
