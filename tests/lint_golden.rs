//! Pins every lint finding on the corpus.
//!
//! For each testbed design (buggy and fixed) and each `fixtures/*.v` file
//! (top module: the file's last), `fixtures/lint_golden.txt` holds a
//! `# name` header followed by every finding of `run_default`, in the
//! order it returns them: code, severity, span, signals and message. Any
//! change to a pass, to the facts the passes share, or to the order they
//! report in shows up here.

use hwdbg::dataflow::{elaborate, Design};
use hwdbg::ip::StdIpLib;
use hwdbg::testbed::{buggy_design, fixed_design, BugId};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = include_str!("fixtures/lint_golden.txt");

fn findings(out: &mut String, name: &str, design: &Design) {
    let _ = writeln!(out, "# {name}");
    for f in hwdbg::lint::run_default(design) {
        let span = f
            .span
            .map_or("-".to_owned(), |s| format!("{}..{}", s.start, s.end));
        let _ = writeln!(
            out,
            "{} {} {span} {:?} {:?}",
            f.code.as_str(),
            f.severity,
            f.signals,
            f.message
        );
    }
}

#[test]
fn lint_findings_match_golden() {
    let mut got = String::new();
    for id in BugId::ALL {
        findings(&mut got, &format!("{id}-buggy"), &buggy_design(id).unwrap());
        findings(&mut got, &format!("{id}-fixed"), &fixed_design(id).unwrap());
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let file = hwdbg::rtl::parse(&src).unwrap();
        let top = file.modules.last().unwrap().name.clone();
        let design = elaborate(&file, &top, &StdIpLib::new()).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        findings(&mut got, &name, &design);
    }
    assert!(
        got == GOLDEN,
        "lint findings drifted from fixtures/lint_golden.txt; now:\n{got}"
    );
}
