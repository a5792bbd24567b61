//! Pins `hwdbg profile <bug> --json` for all 20 testbed bugs.
//!
//! Each line of `fixtures/profile_golden.txt` is one bug's JSON object with
//! every stage's `ms` field taken out: the outcome, the schedule shape, the
//! stage list and all 24 counters (`fsm_transitions`, `dep_updates`,
//! `stat_events`, `shadow_updates`, `trace_entries`, ...) must stay the
//! same. The counters are what the tools read back out of their
//! instrumented runs, so a change to how a tool finds its own records shows
//! up here.

use hwdbg::testbed::BugId;
use std::process::Command;

const GOLDEN: &str = include_str!("fixtures/profile_golden.txt");

/// `json` without its timing fields: every `, "ms": <number>`.
fn without_ms(json: &str) -> String {
    const KEY: &str = ", \"ms\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        let tail = &rest[at + KEY.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

fn profile(id: BugId) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hwdbg"))
        .args(["profile", &id.to_string().to_lowercase(), "--json"])
        .output()
        .expect("hwdbg runs");
    assert!(
        out.status.success(),
        "profile {id}: exit {:?}, stderr {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    without_ms(String::from_utf8_lossy(&out.stdout).trim_end())
}

#[test]
fn profile_json_matches_golden_for_every_bug() {
    let got: Vec<String> = BugId::ALL.into_iter().map(profile).collect();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(got.len(), want.len(), "one golden line per bug");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
}

#[test]
fn timing_fields_are_the_only_ones_removed() {
    let json = r#"{"stages": [{"stage": "parse", "depth": 0, "ms": 0.1705}, {"stage": "x", "depth": 1, "ms": 12}], "n": 3}"#;
    assert_eq!(
        without_ms(json),
        r#"{"stages": [{"stage": "parse", "depth": 0}, {"stage": "x", "depth": 1}], "n": 3}"#
    );
}
