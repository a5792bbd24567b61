//! Allocation gate for the cold path from source to runnable engine.
//!
//! Parsing, resolving and compiling are deterministic, and so is the
//! number of heap allocations they make. This binary installs the
//! counting global allocator and totals the allocations of
//! `hwdbg_rtl::parse`, `hwdbg_dataflow::resolve` and
//! `CompiledDesign::new` over the 40 testbed designs (buggy and fixed).
//! Each total must stay within 10% of the count recorded when the gate
//! was set, and below the count of the code before the cold-path rewrite
//! (linear-time clock plans, borrowed-name resolve, one-copy signal
//! table, move-only parser). A failure means an allocation crept back
//! into one of these phases; unlike a timing gate, this one has no noise.

use hwdbg_obs::{thread_allocs, CountingAlloc};
use hwdbg_sim::CompiledDesign;
use hwdbg_testbed::{metadata, BugId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per phase: its name, the total before the cold-path rewrite, and the
/// total when this gate was set.
const PHASES: [(&str, u64, u64); 3] = [
    ("parse", 13_762, 7_252),
    ("resolve", 9_666, 5_964),
    ("compile", 4_886, 3_938),
];

/// Allocations made by `f`, with its result.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocs();
    let r = f();
    (r, thread_allocs() - before)
}

#[test]
fn front_end_allocations_stay_below_the_gate() {
    let lib = hwdbg_ip::StdIpLib::new();
    let mut totals = [0u64; 3];
    for id in BugId::ALL {
        let meta = metadata(id);
        for src in [meta.source.to_owned(), meta.fixed_source()] {
            let (file, n) = counted(|| hwdbg_rtl::parse(&src));
            totals[0] += n;
            let flat = hwdbg_dataflow::flatten(&file.unwrap(), meta.top, &lib).unwrap();
            let (design, n) = counted(|| hwdbg_dataflow::resolve(flat, &lib));
            totals[1] += n;
            let design = design.unwrap();
            let (compiled, n) = counted(|| CompiledDesign::new(design));
            totals[2] += n;
            drop(compiled.unwrap());
        }
    }
    println!("allocations: parse {} resolve {} compile {}", totals[0], totals[1], totals[2]);
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
}
