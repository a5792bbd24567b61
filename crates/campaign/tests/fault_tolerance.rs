//! Fault-tolerance acceptance suite: panic isolation, watchdog
//! deadlines, bounded retry, and crash-safe journal resume.
//!
//! The scenarios mirror real fleet failures: a buggy behavioral model
//! that panics mid-job, a livelocked design that never finishes, and a
//! campaign process killed mid-run whose journal is resumed. In every
//! case the report must complete — the full fault matrix plus the
//! injected disasters — and a resumed run must reproduce the
//! uninterrupted run's results section byte for byte.

use hwdbg_bits::Bits;
use hwdbg_campaign::journal::{self, JournalWriter, StreamingReport};
use hwdbg_campaign::{
    clients, Campaign, CampaignError, Drive, Job, JobRecord, ModelSet, RunOptions, Verdict,
};
use hwdbg_dataflow::{elaborate, BbInst, NoBlackboxes};
use hwdbg_ip::{StdIpLib, StdModels};
use hwdbg_sim::{Blackbox, BlackboxFactory, CompiledDesign, RegInit};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

// -------------------------------------------------------------------
// Injected disasters
// -------------------------------------------------------------------

/// A behavioral model that panics on its `fuse`-th clock tick —
/// simulating a buggy third-party IP model crashing mid-campaign. It
/// names the ports of the standard model it replaces.
struct PanicBomb {
    ports: &'static [&'static str],
    ticks: u64,
    fuse: u64,
}

impl Blackbox for PanicBomb {
    fn ports(&self) -> &'static [&'static str] {
        self.ports
    }

    fn eval_port(&self, _port: usize, _out: &mut Bits) -> bool {
        false
    }

    fn tick(&mut self, _clock_port: usize, _inputs: &[Bits]) {
        self.ticks += 1;
        assert!(self.ticks < self.fuse, "injected model crash at tick {}", self.ticks);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Standard models everywhere except `scfifo`, which gets the bomb.
struct BombModels {
    fuse: u64,
}

impl BlackboxFactory for BombModels {
    fn create(&self, inst: &BbInst) -> Option<Box<dyn Blackbox + Send>> {
        if inst.module == "scfifo" {
            Some(Box::new(PanicBomb {
                ports: StdModels.create(inst)?.ports(),
                ticks: 0,
                fuse: self.fuse,
            }))
        } else {
            StdModels.create(inst)
        }
    }
}

/// A job whose scfifo model detonates after `fuse` ticks.
fn bomb_job(fuse: u64) -> Job {
    let src = "module bombtop(input clk, input [7:0] d, input push, input pop,
                 output [7:0] head, output empty, output full);
                 scfifo #(.WIDTH(8), .DEPTH(4)) f0 (.clock(clk), .data(d), .wrreq(push),
                   .rdreq(pop), .q(head), .empty(empty), .full(full));
               endmodule";
    let file = hwdbg_rtl::parse(src).expect("bomb design parses");
    let design = elaborate(&file, "bombtop", &StdIpLib::new()).expect("bomb design elaborates");
    Job {
        design: "bomb".into(),
        fault: "model-panic".into(),
        seed: "zero".into(),
        shared: Arc::new(CompiledDesign::new(design).expect("bomb design compiles")),
        init: RegInit::Zero,
        plan: None,
        drive: Drive::FreeRun {
            clock: "clk".into(),
            cycles: 50,
            stim: Vec::new(),
        },
        models: ModelSet::custom(Arc::new(BombModels { fuse })),
    }
}

/// A job that free-runs effectively forever: only the wall-clock
/// watchdog can end it.
fn hung_job() -> Job {
    let src = "module spin(input clk, output reg [15:0] q);
                 always @(posedge clk) q <= q + 16'd1;
               endmodule";
    let file = hwdbg_rtl::parse(src).expect("spin design parses");
    let design = elaborate(&file, "spin", &NoBlackboxes).expect("spin design elaborates");
    Job {
        design: "spin".into(),
        fault: "livelock".into(),
        seed: "zero".into(),
        shared: Arc::new(CompiledDesign::new(design).expect("spin design compiles")),
        init: RegInit::Zero,
        plan: None,
        drive: Drive::FreeRun {
            clock: "clk".into(),
            cycles: u64::MAX,
            stim: Vec::new(),
        },
        models: ModelSet::std(),
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hwdbg_ft_{}_{tag}", std::process::id()))
}

// -------------------------------------------------------------------
// Acceptance: the full matrix plus injected disasters completes
// -------------------------------------------------------------------

#[test]
fn matrix_with_injected_panic_and_hang_completes() {
    let mut campaign = clients::fault_matrix().expect("matrix builds");
    let matrix_jobs = campaign.jobs.len();
    campaign.jobs.push(bomb_job(5));
    campaign.jobs.push(hung_job());
    let opts = RunOptions {
        job_timeout: Some(Duration::from_secs(2)),
        retries: 0,
    };
    let report = campaign
        .run_with(4, opts, &BTreeMap::new(), |_, _| {})
        .expect("campaign completes despite disasters");
    assert_eq!(report.records.len(), matrix_jobs + 2);

    // Exactly one crash: the bomb. The pool survived it.
    assert_eq!(report.count(Verdict::Crashed), 1);
    let crashed = &report.records[matrix_jobs];
    assert_eq!(crashed.design, "bomb");
    assert_eq!(crashed.verdict, Verdict::Crashed);
    assert!(
        crashed.detail.contains("injected model crash"),
        "panic payload lost: {:?}",
        crashed.detail
    );
    assert_eq!(crashed.counters.jobs_crashed, 1);

    // Exactly one timeout: the spinner.
    assert_eq!(report.count(Verdict::TimedOut), 1);
    let hung = &report.records[matrix_jobs + 1];
    assert_eq!(hung.design, "spin");
    assert_eq!(hung.verdict, Verdict::TimedOut);
    assert!(
        hung.detail.contains("deadline exceeded"),
        "unexpected detail: {:?}",
        hung.detail
    );
    assert_eq!(hung.counters.jobs_timed_out, 1);
    // It made real progress before the watchdog fired.
    assert!(hung.cycles > 0);

    // Every matrix job still produced its normal record.
    let normal = report.count(Verdict::Pass)
        + report.count(Verdict::Fail)
        + report.count(Verdict::Completed)
        + report.count(Verdict::Error);
    assert_eq!(normal, matrix_jobs);
    assert_eq!(report.worker_deaths, 0);

    // The human rendering surfaces the new verdict classes.
    let human = report.render_human();
    assert!(human.contains("1 crashed"), "{human}");
    assert!(human.contains("1 timed-out"), "{human}");
}

#[test]
fn deterministic_crash_burns_all_retries() {
    let campaign = Campaign {
        name: "bomb-only".into(),
        jobs: vec![bomb_job(3)],
    };
    let opts = RunOptions {
        job_timeout: None,
        retries: 2,
    };
    let report = campaign
        .run_with(1, opts, &BTreeMap::new(), |_, _| {})
        .expect("runs");
    let rec = &report.records[0];
    assert_eq!(rec.verdict, Verdict::Crashed);
    assert_eq!(rec.retries, 2, "both retries burned on a deterministic panic");
    assert_eq!(rec.counters.jobs_retried, 2);
    assert_eq!(rec.counters.jobs_crashed, 1);
    assert_eq!(report.merged.jobs_retried, 2);
}

// -------------------------------------------------------------------
// Journal: kill mid-campaign, resume, byte-identical results
// -------------------------------------------------------------------

/// A small all-deterministic campaign (no timeouts, no panics): the
/// first six bugs' fault-matrix rows.
fn mini_matrix() -> Campaign {
    let full = clients::fault_matrix().expect("matrix builds");
    Campaign {
        name: "fault-matrix".into(),
        jobs: full.jobs.into_iter().take(24).collect(),
    }
}

#[test]
fn killed_campaign_resumes_to_byte_identical_results() {
    let campaign = mini_matrix();

    // Reference: uninterrupted serial run.
    let reference = campaign
        .run_with(1, RunOptions::default(), &BTreeMap::new(), |_, _| {})
        .expect("reference run")
        .results_json();

    // Journaled parallel run (records retire in scheduling order).
    let path = temp_path("resume.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &campaign).expect("journal creates"));
    campaign
        .run_with(8, RunOptions::default(), &BTreeMap::new(), |i, r| {
            writer
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .append(i, r)
                .expect("journal append");
        })
        .expect("journaled run");
    writer
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .sync()
        .expect("journal sync");

    // "kill -9": keep the header + 10 records, then a torn partial line
    // exactly as a mid-write crash leaves it.
    let text = std::fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + campaign.jobs.len());
    lines.truncate(1 + 10);
    let mut truncated = lines.join("\n");
    truncated.push_str("\n{\"job\": 3, \"record\": {\"design\": \"D1\", \"fau");
    std::fs::write(&path, truncated).expect("truncate journal");

    // Resume: replay the journal, rerun the remainder on a different
    // worker count than the reference.
    let state = journal::load(&path).expect("journal loads despite torn tail");
    assert!(state.torn_tail, "torn final line must be flagged");
    assert_eq!(state.completed.len(), 10);
    journal::validate(&state, &campaign).expect("journal matches campaign");
    let resumed = campaign
        .run_with(8, RunOptions::default(), &state.completed, |_, _| {})
        .expect("resumed run");

    assert_eq!(
        resumed.results_json(),
        reference,
        "resumed results must be byte-identical to an uninterrupted run"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_for_a_different_campaign_is_refused() {
    let mini = mini_matrix();
    let path = temp_path("mismatch.jsonl");
    JournalWriter::create(&path, &mini).expect("journal creates");
    let state = journal::load(&path).expect("journal loads");

    // Same file, different campaign: job count and spec hash disagree.
    let other = clients::seed_sweep(2).expect("sweep builds");
    let err = journal::validate(&state, &other).expect_err("must refuse");
    assert!(matches!(err, CampaignError::Journal(_)), "{err:?}");

    // And a same-name campaign with a mutated matrix is also refused.
    let mut mutated = mini_matrix();
    mutated.jobs[0].fault = "renamed".into();
    let err = journal::validate(&state, &mutated).expect_err("must refuse");
    let msg = err.to_string();
    assert!(msg.contains("spec hash"), "{msg}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_out_of_range_job_indices() {
    let campaign = mini_matrix();
    let mut completed = BTreeMap::new();
    completed.insert(
        campaign.jobs.len() + 7,
        JobRecord {
            design: "x".into(),
            fault: "x".into(),
            seed: "x".into(),
            verdict: Verdict::Completed,
            detail: String::new(),
            cycles: 0,
            counters: Default::default(),
            retries: 0,
        },
    );
    let err = campaign
        .run_with(1, RunOptions::default(), &completed, |_, _| {})
        .expect_err("must refuse");
    assert!(matches!(err, CampaignError::Journal(_)), "{err:?}");
}

// -------------------------------------------------------------------
// Streaming --out writer
// -------------------------------------------------------------------

#[test]
fn streamed_report_is_byte_identical_to_to_json() {
    let campaign = mini_matrix();
    let path = temp_path("stream.json");
    let stream = Mutex::new(
        StreamingReport::create(&path, &campaign.name, campaign.jobs.len()).expect("stream creates"),
    );
    let report = campaign
        .run_with(4, RunOptions::default(), &BTreeMap::new(), |i, r| {
            stream
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(i, r)
                .expect("stream push");
        })
        .expect("streamed run");
    stream
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .finish(&report)
        .expect("stream finish");
    let streamed = std::fs::read_to_string(&path).expect("read streamed report");
    assert_eq!(streamed, report.to_json());
    std::fs::remove_file(&path).ok();
}
