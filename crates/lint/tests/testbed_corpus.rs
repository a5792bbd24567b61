//! Lint effectiveness over the 20-bug testbed: every buggy design must
//! produce exactly its snapshot of L-codes, and every fixed design must be
//! completely clean — the zero-false-positive contract that makes the
//! warnings trustworthy.

use hwdbg_testbed::lint_expect::expected_lints;
use hwdbg_testbed::{buggy_design, fixed_design, BugId};

fn codes(design: &hwdbg_dataflow::Design) -> Vec<String> {
    let mut codes: Vec<String> = hwdbg_lint::run_default(design)
        .iter()
        .map(|e| e.code.as_str().to_owned())
        .collect();
    codes.sort();
    codes.dedup();
    codes
}

#[test]
fn buggy_designs_match_snapshot() {
    for id in BugId::ALL {
        let design = buggy_design(id).expect("buggy design elaborates");
        let got = codes(&design);
        let want: Vec<String> = expected_lints(id).iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(
            got, want,
            "{id}: lint codes drifted from the checked-in snapshot"
        );
    }
}

#[test]
fn fixed_designs_are_clean() {
    for id in BugId::ALL {
        let design = fixed_design(id).expect("fixed design elaborates");
        let findings = hwdbg_lint::run_default(&design);
        assert!(
            findings.is_empty(),
            "{id}: fixed design must be lint-clean, got: {}",
            findings
                .iter()
                .map(|e| format!("{} {}", e.code.as_str(), e.message))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

#[test]
fn findings_carry_spans_into_the_source() {
    // Every finding on a buggy design must anchor a span inside the file.
    for id in BugId::ALL {
        if expected_lints(id).is_empty() {
            continue;
        }
        let meta = hwdbg_testbed::metadata(id);
        let design = buggy_design(id).expect("buggy design elaborates");
        for finding in hwdbg_lint::run_default(&design) {
            let span = finding
                .span
                .unwrap_or_else(|| panic!("{id}: finding {} has no span", finding.code.as_str()));
            assert!(
                span.start < meta.source.len() && span.end <= meta.source.len(),
                "{id}: span {span:?} falls outside the source"
            );
            // Rendering with the source must produce a caret excerpt.
            let rendered = finding.render(Some(meta.source));
            assert!(
                rendered.contains('^'),
                "{id}: rendered finding lacks a source excerpt:\n{rendered}"
            );
        }
    }
}

/// Every finding of `passes` run in the given order on `design`, as
/// sorted debug strings.
fn findings_in_order<'a>(
    design: &hwdbg_dataflow::Design,
    passes: impl Iterator<Item = &'a Box<dyn hwdbg_lint::LintPass>>,
) -> Vec<String> {
    let config = hwdbg_lint::LintConfig::new();
    let mut out = Vec::new();
    for pass in passes {
        let mut sink = hwdbg_lint::LintSink::new(&config);
        pass.run(design, &mut sink);
        out.extend(sink.findings().iter().map(|f| format!("{f:?}")));
    }
    out.sort();
    out
}

#[test]
fn findings_do_not_depend_on_pass_order() {
    // The taint passes share the design's memoized propagation graph;
    // whichever pass builds it first, every pass must see the same graph.
    let registry = hwdbg_lint::registry();
    for id in BugId::ALL {
        for (variant, elaborate) in [
            ("buggy", buggy_design as fn(BugId) -> _),
            ("fixed", fixed_design),
        ] {
            let forward = elaborate(id).expect("design elaborates");
            let reverse = elaborate(id).expect("design elaborates");
            assert_eq!(
                findings_in_order(&forward, registry.iter()),
                findings_in_order(&reverse, registry.iter().rev()),
                "{id} {variant}: findings depend on pass order"
            );
        }
    }
}
