//! Allocation and memory gate for the cold path from source to runnable
//! engine.
//!
//! Parsing, flattening, resolving and compiling are deterministic, and so
//! are the number of heap allocations they make and the bytes a resolved
//! design holds. This binary installs the counting global allocator and
//! totals, over the 40 testbed designs (buggy and fixed):
//!
//! - the allocations of `hwdbg_rtl::parse`, `hwdbg_dataflow::flatten`,
//!   `hwdbg_dataflow::resolve` and `CompiledDesign::new`;
//! - the bytes each `Design` holds once `flatten` and `resolve` are done.
//!
//! Each total must stay within 10% of the count recorded when the gate
//! was set, and below the count of the code before the phase's last
//! rewrite:
//!
//! - parse: the first-byte lexer, which copies each string literal in
//!   one piece;
//! - flatten: one rename table per instance, built once;
//! - resolve and the held bytes: bodies stored once and `SigId`
//!   read/write sets;
//! - compile: constant select shapes (each part select holds its `lo`
//!   and width instead of two boxed bound expressions).
//!
//! A failure means an allocation or a copy crept back into one of these
//! phases; unlike a timing gate, this one has no noise.

use hwdbg_obs::{thread_allocs, thread_live_bytes, CountingAlloc};
use hwdbg_sim::CompiledDesign;
use hwdbg_testbed::{metadata, BugId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per phase: its name, the total before its last rewrite, and the total
/// when this gate was set.
const PHASES: [(&str, u64, u64); 4] = [
    ("parse", 7_252, 7_050),
    ("flatten", 6_232, 5_450),
    ("resolve", 5_964, 2_395),
    ("compile", 3_938, 3_810),
];

/// Bytes the 40 resolved designs hold: the total before bodies were
/// stored once, and the total when this gate was set.
const RETAINED: (i64, i64) = (1_152_336, 772_393);

/// Allocations made by `f`, with its result.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocs();
    let r = f();
    (r, thread_allocs() - before)
}

#[test]
fn front_end_allocations_stay_below_the_gate() {
    let lib = hwdbg_ip::StdIpLib::new();
    let mut totals = [0u64; 4];
    let mut retained = 0i64;
    for id in BugId::ALL {
        let meta = metadata(id);
        for src in [meta.source.to_owned(), meta.fixed_source()] {
            let (file, n) = counted(|| hwdbg_rtl::parse(&src));
            totals[0] += n;
            let file = file.unwrap();
            let live = thread_live_bytes();
            let (flat, n) = counted(|| hwdbg_dataflow::flatten(&file, meta.top, &lib));
            totals[1] += n;
            let (design, n) = counted(|| hwdbg_dataflow::resolve(flat.unwrap(), &lib));
            totals[2] += n;
            let design = design.unwrap();
            retained += thread_live_bytes() - live;
            let (compiled, n) = counted(|| CompiledDesign::new(design));
            totals[3] += n;
            drop(compiled.unwrap());
        }
    }
    println!(
        "allocations: parse {} flatten {} resolve {} compile {}",
        totals[0], totals[1], totals[2], totals[3]
    );
    println!("bytes held by the resolved designs: {retained}");
    for ((phase, before, gate), got) in PHASES.iter().zip(totals) {
        let limit = gate + gate / 10;
        assert!(
            got <= limit,
            "{phase}: {got} allocations over the 40 testbed designs, above the gate \
             ({gate} + 10% = {limit})"
        );
        assert!(
            got < *before,
            "{phase}: {got} allocations, not below the {before} made before the rewrite"
        );
    }
    let (before, gate) = RETAINED;
    let limit = gate + gate / 10;
    assert!(
        retained <= limit,
        "the 40 resolved designs hold {retained} bytes, above the gate ({gate} + 10% = {limit})"
    );
    assert!(
        retained < before,
        "the 40 resolved designs hold {retained} bytes, not below the {before} held before \
         the rewrite"
    );
}
