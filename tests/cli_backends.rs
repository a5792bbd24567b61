//! `hwdbg sim` end to end under each `--backend`: each `$display` fixture
//! must print its golden text byte for byte whichever backend runs it, a
//! backend name the simulator does not have must be refused, and every
//! unit body of the fixtures must lower to bytecode.

use std::path::Path;
use std::process::{Command, Output};

/// The golden fixtures and the cycles each runs for.
const FIXTURES: [(&str, &str); 2] = [("display_directives", "24"), ("lowering_shapes", "16")];

fn sim(fixture: &str, cycles: &str, extra: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    Command::new(env!("CARGO_BIN_EXE_hwdbg"))
        .arg("sim")
        .arg(root.join(format!("tests/fixtures/{fixture}.v")))
        .args(["--cycles", cycles])
        .args(extra)
        .output()
        .expect("hwdbg runs")
}

#[test]
fn display_golden_matches_under_every_backend() {
    for (fixture, cycles) in FIXTURES {
        let golden = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("tests/fixtures/{fixture}.golden")),
        )
        .expect("golden file reads");
        for extra in [&[][..], &["--backend", "tree"], &["--backend", "levelized"]] {
            let out = sim(fixture, cycles, extra);
            assert!(
                out.status.success(),
                "{fixture} {extra:?}: exit {:?}, stderr {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                String::from_utf8_lossy(&out.stdout) == golden,
                "{fixture} {extra:?}: stdout differs from {fixture}.golden"
            );
        }
    }
}

/// The value of the integer field `key` in `hwdbg sim --json` output.
fn json_field(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("no `{key}` in {json}"));
    let digits = json[at + key.len() + 4..].split(|c: char| !c.is_ascii_digit()).next();
    digits.and_then(|d| d.parse().ok()).unwrap_or_else(|| panic!("`{key}` is not a number"))
}

#[test]
fn every_unit_of_the_fixtures_lowers() {
    for (fixture, _) in FIXTURES {
        let out = sim(fixture, "1", &["--json"]);
        assert!(out.status.success(), "{fixture}: exit {:?}", out.status);
        let json = String::from_utf8_lossy(&out.stdout);
        let total = json_field(&json, "total_units");
        assert!(total > 0, "{fixture}: no units");
        assert_eq!(json_field(&json, "lowered_units"), total, "{fixture}: {json}");
    }
}

#[test]
fn unknown_backend_is_refused() {
    let out = sim("display_directives", "24", &["--backend", "bytecode"]);
    assert!(!out.status.success(), "--backend bytecode must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown backend `bytecode` (tree|levelized)"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no cycle may run");
}
