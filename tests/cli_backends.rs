//! `hwdbg sim` end to end under each `--backend`: the `$display` fixture
//! must print its golden text byte for byte whichever backend runs it, and
//! a backend name the simulator does not have must be refused.

use std::path::Path;
use std::process::{Command, Output};

fn sim(extra: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    Command::new(env!("CARGO_BIN_EXE_hwdbg"))
        .arg("sim")
        .arg(root.join("tests/fixtures/display_directives.v"))
        .args(["--cycles", "24"])
        .args(extra)
        .output()
        .expect("hwdbg runs")
}

#[test]
fn display_golden_matches_under_every_backend() {
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/display_directives.golden"),
    )
    .expect("golden file reads");
    for extra in [&[][..], &["--backend", "tree"], &["--backend", "levelized"]] {
        let out = sim(extra);
        assert!(
            out.status.success(),
            "{extra:?}: exit {:?}, stderr {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout) == golden,
            "{extra:?}: stdout differs from display_directives.golden"
        );
    }
}

#[test]
fn unknown_backend_is_refused() {
    let out = sim(&["--backend", "bytecode"]);
    assert!(!out.status.success(), "--backend bytecode must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown backend `bytecode` (tree|levelized)"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no cycle may run");
}
