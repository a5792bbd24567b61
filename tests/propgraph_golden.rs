//! Pins the §4.5.1 propagation-relation tables and the sharing contract of
//! the graph memoized on each design.
//!
//! Every testbed design (buggy and fixed), plus one design that routes data
//! through each IP model, must print the same relation table, in the same
//! order, as the digests in `fixtures/propgraph_golden.txt`. The design's
//! memoized local graph must be built once and shared by clones, and the
//! library graph must extend it rather than rebuild it.

use hwdbg::dataflow::{elaborate, Design, PropGraph};
use hwdbg::ip::StdIpLib;
use hwdbg::rtl::{parse, print_expr, Span};
use hwdbg::testbed::{buggy_design, fixed_design, BugId};
use std::sync::Arc;

const GOLDEN: &str = include_str!("fixtures/propgraph_golden.txt");

/// Instantiates `scfifo`, `dcfifo` and `altsyncram` with expression-valued
/// ports, so the library graph has model edges the local graph lacks.
const IP_MODELS: &str = include_str!("fixtures/ip_models.v");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over the printed relation table, with the relation count.
fn digest(g: &PropGraph) -> String {
    let mut h = FNV_OFFSET;
    for r in &g.relations {
        let line = format!(
            "{} {} {:?} {} {}..{} {}\n",
            g.name(r.src),
            g.name(r.dst),
            r.kind,
            r.latency,
            r.span.start,
            r.span.end,
            print_expr(&r.cond)
        );
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    format!("{h:016x}/{}", g.relations.len())
}

fn designs() -> Vec<(String, Design)> {
    let mut out = Vec::new();
    for id in BugId::ALL {
        out.push((format!("{id}-buggy"), buggy_design(id).unwrap()));
        out.push((format!("{id}-fixed"), fixed_design(id).unwrap()));
    }
    let file = parse(IP_MODELS).unwrap();
    let ip = elaborate(&file, "ip_models", &StdIpLib::new()).unwrap();
    out.push(("ip-models".to_owned(), ip));
    out
}

#[test]
fn relation_tables_match_golden() {
    let lib = StdIpLib::new();
    let got: Vec<String> = designs()
        .iter()
        .map(|(name, d)| {
            let full = PropGraph::build(d, &lib).unwrap();
            format!(
                "{name} local={} full={}",
                digest(d.local_graph()),
                digest(&full)
            )
        })
        .collect();
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(got, want, "relation tables drifted:\n{}", got.join("\n"));
}

#[test]
fn local_graph_is_built_once_and_extended_by_the_library_graph() {
    let lib = StdIpLib::new();
    for (name, d) in designs() {
        let local = d.local_graph();
        assert!(std::ptr::eq(local, d.local_graph()), "{name}: rebuilt");
        let copy = d.clone();
        assert!(
            std::ptr::eq(local, copy.local_graph()),
            "{name}: a clone rebuilt the graph"
        );
        let full = PropGraph::build(&d, &lib).unwrap();
        assert!(full.relations.len() >= local.relations.len(), "{name}");
        let (prefix, extra) = full.relations.split_at(local.relations.len());
        for (a, b) in local.relations.iter().zip(prefix) {
            assert!(
                a.src == b.src
                    && a.dst == b.dst
                    && a.kind == b.kind
                    && a.latency == b.latency
                    && a.span == b.span
                    && Arc::ptr_eq(&a.cond, &b.cond),
                "{name}: the library graph does not start with the local one"
            );
        }
        assert!(
            extra.iter().all(|r| r.span == Span::synthetic()),
            "{name}: a model edge carries a source span"
        );
        if name == "ip-models" {
            assert!(!extra.is_empty(), "the IP models contributed no edges");
        }
    }
}
