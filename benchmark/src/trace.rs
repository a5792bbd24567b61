//! In-memory span recorder for the traced benchmark binary.
//!
//! A span is one call from the benchmark into a layer's public function:
//! layer, name, start, end, parent and thread. Spans nest through a stack
//! on the driving thread; spans recorded on worker threads (the campaign's
//! retire hook) name their parent explicitly. Nothing is written until the
//! run ends. A disabled tracer records nothing and costs one branch per
//! call, which is what the end-to-end binary runs with.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The layer of spans that are the benchmark's own code. Their self time
/// is the unattributed share of the run.
pub const BENCH: &str = "bench";

/// Spans written to the Chrome trace file at most; aggregates use all.
const EXPORT_CAP: usize = 100_000;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (crate) the call went into, or [`BENCH`].
    pub layer: &'static str,
    /// Function or pass name within the layer.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Recording thread (0 is the driving thread).
    pub tid: u32,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Named quantities noted alongside spans (bytes parsed, cycles run).
    counts: BTreeMap<&'static str, f64>,
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    state: Option<Mutex<State>>,
}

/// The lock is held only to push or pop one span, never while a span's
/// closure runs, so the state is whole even if a holder panicked.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: Some(Mutex::new(State::default())),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span nested under the current one.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.state else {
            return f();
        };
        let id = {
            let mut s = lock(state);
            let id = s.spans.len();
            let parent = s.stack.last().copied();
            let start = self.now();
            s.spans.push(Span {
                layer,
                name,
                start,
                end: 0,
                parent,
                tid: 0,
            });
            s.stack.push(id);
            id
        };
        let r = f();
        let end = self.now();
        let mut s = lock(state);
        s.spans[id].end = end;
        s.stack.pop();
        r
    }

    /// The innermost open span on the driving thread, as a parent for
    /// spans recorded on other threads.
    pub fn current(&self) -> Option<usize> {
        self.state
            .as_ref()
            .and_then(|s| lock(s).stack.last().copied())
    }

    /// Records a span that ran on the calling thread between `start` and
    /// now, under an explicit `parent`.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
    ) {
        let Some(state) = &self.state else {
            return;
        };
        let start = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let end = self.now();
        let tid = thread_id();
        lock(state).spans.push(Span {
            layer,
            name,
            start,
            end,
            parent,
            tid,
        });
    }

    /// Adds `amount` to the named quantity.
    pub fn note(&self, key: &'static str, amount: f64) {
        if let Some(state) = &self.state {
            *lock(state).counts.entry(key).or_insert(0.0) += amount;
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Recording {
        match &self.state {
            Some(state) => {
                let s = lock(state);
                Recording {
                    spans: s.spans.clone(),
                    counts: s.counts.clone(),
                }
            }
            None => Recording::default(),
        }
    }
}

/// A finished trace.
#[derive(Debug, Default, Clone)]
pub struct Recording {
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Noted quantities.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Per-name totals of a recording.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Calls.
    pub calls: u64,
    /// Summed span durations, ns.
    pub inclusive: u64,
    /// Summed self time on the driving thread (duration minus time
    /// covered by children), ns. Self times of the driving thread's spans
    /// add up to its wall time.
    pub self_ns: u64,
}

impl Recording {
    /// Self time of every span: its duration minus the time its children
    /// on the same thread cover. Spans on other threads run concurrently
    /// with their parent, so they do not reduce its self time.
    pub fn self_times(&self) -> Vec<u64> {
        let mut selfs: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end.saturating_sub(s.start))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent.filter(|&p| self.spans[p].tid == s.tid) {
                selfs[p] = selfs[p].saturating_sub(s.end.saturating_sub(s.start));
            }
        }
        selfs
    }

    /// Totals keyed by `layer` and by `layer.name`.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        self.aggregate(&vec![true; self.spans.len()])
    }

    /// Totals over the spans named `layer.name` and everything under them,
    /// with the number of such spans.
    pub fn totals_under(&self, layer: &str, name: &str) -> (BTreeMap<String, Totals>, u64) {
        // Parents are recorded before their children, so one pass suffices.
        let mut scoped = vec![false; self.spans.len()];
        let mut roots = 0;
        for (i, s) in self.spans.iter().enumerate() {
            let root = s.layer == layer && s.name == name;
            roots += u64::from(root);
            scoped[i] = root || s.parent.is_some_and(|p| scoped[p]);
        }
        (self.aggregate(&scoped), roots)
    }

    fn aggregate(&self, keep: &[bool]) -> BTreeMap<String, Totals> {
        let selfs = self.self_times();
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for ((s, own), _) in self.spans.iter().zip(selfs).zip(keep).filter(|(_, k)| **k) {
            for key in [s.layer.to_owned(), format!("{}.{}", s.layer, s.name)] {
                let t = out.entry(key).or_default();
                t.calls += 1;
                t.inclusive += s.end.saturating_sub(s.start);
                if s.tid == 0 {
                    t.self_ns += own;
                }
            }
        }
        out
    }

    /// Duration of the outermost span, ns.
    pub fn wall(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.tid == 0)
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// The trace as Chrome trace-event JSON (opens in Perfetto).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let n = self.spans.len().min(EXPORT_CAP);
        for (i, s) in self.spans.iter().take(n).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\": \"{}.{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"workload\": \"{workload}\"}}}}{}",
                s.layer,
                s.name,
                s.layer,
                s.tid,
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                if i + 1 < n { "," } else { "" },
            );
        }
        let _ = writeln!(
            out,
            "], \"otherData\": {{\"workload\": \"{workload}\", \"spans\": {}, \"exported\": {n}}}}}",
            self.spans.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let span = |layer, start, end, parent, tid| Span {
            layer,
            name: "x",
            start,
            end,
            parent,
            tid,
        };
        let rec = Recording {
            spans: vec![
                span(BENCH, 0, 100, None, 0),
                span("a", 10, 40, Some(0), 0),
                span("b", 15, 25, Some(1), 0),
                // Two worker-thread spans running beside their parent.
                span("c", 50, 80, Some(1), 1),
                span("c", 60, 90, Some(1), 2),
                span("a", 90, 95, Some(0), 0),
            ],
            counts: BTreeMap::new(),
        };
        assert_eq!(rec.self_times(), vec![65, 20, 10, 30, 30, 5]);
        let t = rec.totals();
        assert_eq!(t["a"].calls, 2);
        assert_eq!(t["a"].self_ns, 25);
        assert_eq!(t["c.x"].inclusive, 60);
        assert_eq!(
            t["c"].self_ns, 0,
            "worker spans are not on the driving thread's timeline"
        );
        let layers: u64 = [BENCH, "a", "b", "c"].iter().map(|l| t[*l].self_ns).sum();
        assert_eq!(layers, rec.wall());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::off();
        assert_eq!(tr.span("a", "x", || 7), 7);
        tr.note("k", 1.0);
        assert!(tr.snapshot().spans.is_empty());
        assert!(tr.snapshot().counts.is_empty());
    }

    #[test]
    fn spans_nest_on_the_driving_thread() {
        let tr = Tracer::on();
        tr.span(BENCH, "root", || {
            tr.span("a", "x", || assert_eq!(tr.current(), Some(1)))
        });
        let rec = tr.snapshot();
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[1].end >= rec.spans[1].start);
    }
}
