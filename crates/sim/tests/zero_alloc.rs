//! Zero-allocation regression tests for the simulator hot path.
//!
//! The value plane is built so that steady-state simulation — poke,
//! settle, step — makes *zero* heap allocations per cycle: `Bits` values
//! up to 64 bits are inline, eval writes into pooled scratch buffers, and
//! commits overwrite dense state slots instead of cloning. These tests
//! install a counting global allocator, warm each workload up until every
//! internal buffer has reached steady capacity, then assert that a long
//! measured window allocates nothing at all.
//!
//! A failure here means a `clone()`, `to_vec()`, `format!`, or growing
//! collection crept back into the per-cycle path. Find it with
//! `ltrace`-style bisection: shrink the measured window and diff
//! [`thread_allocs`] around individual calls.

use hwdbg_obs::{thread_allocs, CountingAlloc};
use hwdbg_sim::{SimConfig, Simulator};
use hwdbg_testbed::{buggy_design, BugId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The perfsuite grayscale workload: 24-bit pixels through the D2 pipeline
/// with its FIFO/RAM blackbox-free datapath. Exercises clocked processes,
/// memories, and non-blocking commit every cycle.
#[test]
fn grayscale_steady_state_allocates_nothing() {
    let design = buggy_design(BugId::D2).unwrap();
    let mut sim = Simulator::new(design, &hwdbg_ip::StdModels, SimConfig::default()).unwrap();
    sim.poke_u64("pix_in_valid", 1).unwrap();
    // Warmup: fill the scratch pool, worklist, and per-cycle buffers to
    // their steady-state capacities.
    for i in 0..200u64 {
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    let before = thread_allocs();
    for i in 200..1200u64 {
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "grayscale steady state allocated {allocs} times over 1000 cycles"
    );
}

/// Wide datapaths: a 192-bit add/xor/shift/sub ALU. The values are
/// spilled (heap-backed), but every slot and scratch buffer is allocated
/// at compile time and reused, and `poke_u64` writes straight into the
/// dense state slot — so settling stays allocation-free past 64 bits.
#[test]
fn wide_alu_settle_allocates_nothing() {
    let src = "module m(input clk, input [191:0] a, input [191:0] b, output [191:0] q);
                 wire [191:0] s; assign s = a + b;
                 wire [191:0] x; assign x = s ^ a;
                 wire [191:0] sh; assign sh = x >> 5;
                 wire [191:0] d; assign d = sh - b;
                 assign q = d;
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, SimConfig::default()).unwrap();
    sim.poke_u64("b", 0x0BAD_F00D).unwrap();
    for t in 0..16u64 {
        sim.poke_u64("a", 0x00C0_FFEE ^ (t & 1)).unwrap();
        sim.settle().unwrap();
    }
    let before = thread_allocs();
    for t in 0..1000u64 {
        sim.poke_u64("a", 0x00C0_FFEE ^ (t & 1)).unwrap();
        sim.settle().unwrap();
        std::hint::black_box(sim.peek("q").unwrap());
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "wide-ALU settle allocated {allocs} times over 1000 settles"
    );
}

/// Wide division: a 192-bit `/` and `%` re-settled every cycle. Above 128
/// bits these run the restoring divider, which historically allocated
/// quotient/remainder temporaries per evaluation; `Bits::divmod_into`
/// shifts and subtracts directly in pooled scratch, so even the wide
/// divide path stays allocation-free in steady state.
#[test]
fn wide_divide_settle_allocates_nothing() {
    let src = "module m(input clk, input [191:0] a, input [191:0] b,
                        output [191:0] q, output [191:0] r);
                 assign q = a / b;
                 assign r = a % b;
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, SimConfig::default()).unwrap();
    sim.poke_u64("b", 0x1234_5678).unwrap();
    for t in 0..16u64 {
        sim.poke_u64("a", 0xDEAD_BEEF_CAFE ^ (t & 1)).unwrap();
        sim.settle().unwrap();
    }
    let before = thread_allocs();
    for t in 0..1000u64 {
        sim.poke_u64("a", 0xDEAD_BEEF_CAFE ^ (t & 1)).unwrap();
        sim.settle().unwrap();
        std::hint::black_box(sim.peek("q").unwrap());
        std::hint::black_box(sim.peek("r").unwrap());
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "wide-divide settle allocated {allocs} times over 1000 settles"
    );
}

/// The comb-chain settle ablation: 256 chained 32-bit adders re-settled
/// with a toggling input. Exercises the event-driven settle worklist and
/// combinational eval with zero clocked state.
#[test]
fn comb_chain_settle_allocates_nothing() {
    let mut src = String::from("module m(input clk, input [31:0] d, output [31:0] q);\n");
    for i in 0..256 {
        let prev = if i == 0 {
            "d".to_string()
        } else {
            format!("w{}", i - 1)
        };
        src.push_str(&format!("wire [31:0] w{i}; assign w{i} = {prev} + 32'd1;\n"));
    }
    src.push_str("assign q = w255;\nendmodule");
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(&src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, SimConfig::default()).unwrap();
    for t in 0..16u64 {
        sim.poke_u64("d", 7 + (t & 1)).unwrap();
        sim.settle().unwrap();
    }
    let before = thread_allocs();
    for t in 0..1000u64 {
        sim.poke_u64("d", 7 + (t & 1)).unwrap();
        sim.settle().unwrap();
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "comb-chain settle allocated {allocs} times over 1000 settles"
    );
}

/// Satellite of the pre-spilled scratch pool: with every pooled buffer
/// allocated to the design's maximum write width at compile time, the
/// *first* settle after construction — historically the warmup that grew
/// the pool — allocates nothing either. No warmup loop here on purpose.
#[test]
fn first_settle_after_build_allocates_nothing() {
    let src = "module m(input clk, input [191:0] a, input [191:0] b, output [191:0] q);
                 wire [191:0] s; assign s = a + b;
                 wire [191:0] x; assign x = s ^ a;
                 wire [191:0] d; assign d = x - b;
                 assign q = d;
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, SimConfig::default()).unwrap();
    let before = thread_allocs();
    sim.poke_u64("a", 0x00C0_FFEE).unwrap();
    sim.poke_u64("b", 0x0BAD_F00D).unwrap();
    sim.settle().unwrap();
    std::hint::black_box(sim.peek("q").unwrap());
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "first settle after construction allocated {allocs} times"
    );
}

/// Watchdog-armed campaign jobs: the same grayscale steady state with a
/// wall-clock deadline set. `Instant::now()` reads the vDSO clock and the
/// probe is a branch plus a comparison — arming the per-job watchdog must
/// not cost an allocation per cycle.
#[test]
fn deadline_enabled_steady_state_allocates_nothing() {
    let design = buggy_design(BugId::D2).unwrap();
    let config = SimConfig::default().with_timeout(std::time::Duration::from_secs(3600));
    let mut sim = Simulator::new(design, &hwdbg_ip::StdModels, config).unwrap();
    sim.poke_u64("pix_in_valid", 1).unwrap();
    for i in 0..200u64 {
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    let before = thread_allocs();
    for i in 200..1200u64 {
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "deadline-armed steady state allocated {allocs} times over 1000 cycles"
    );
}

/// The campaign-engine configuration: many simulators built from one
/// shared `Arc<CompiledDesign>` via `Simulator::from_compiled`. The
/// shared compile artifact must not reintroduce per-cycle allocations —
/// this is the same steady-state invariant as above, on the shared path.
#[test]
fn shared_compiled_design_steady_state_allocates_nothing() {
    use std::sync::Arc;
    let design = buggy_design(BugId::D2).unwrap();
    let shared = Arc::new(hwdbg_sim::CompiledDesign::new(design).unwrap());
    let mut sim = Simulator::from_compiled(
        Arc::clone(&shared),
        &hwdbg_ip::StdModels,
        SimConfig::default(),
    )
    .unwrap();
    sim.poke_u64("pix_in_valid", 1).unwrap();
    for i in 0..200u64 {
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    let before = thread_allocs();
    for i in 200..1200u64 {
        sim.poke_u64("pix_in", i).unwrap();
        sim.step("clk").unwrap();
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "shared-design steady state allocated {allocs} times over 1000 cycles"
    );
}

/// Every execution backend, explicitly: the bytecode interpreter's
/// register files (narrow `u64`s and pre-spilled wide `Bits`) are sized
/// once at build time, its `$display` path is only reached when a log
/// sink is attached, wide-register moves recycle the same heap buffers,
/// and the levelized dispatcher's node worklist and region programs are
/// all compile-time artifacts — so per-cycle allocations stay at zero under
/// either backend, including the tree-walker running every region unit by
/// unit. (The other tests in this file run the default backend; this one
/// pins both down even if the default changes.)
#[test]
fn all_backends_steady_state_allocate_nothing() {
    use hwdbg_sim::Backend;
    for backend in [Backend::Tree, Backend::Levelized] {
        let design = buggy_design(BugId::D2).unwrap();
        let config = SimConfig::default().with_backend(backend);
        let mut sim = Simulator::new(design, &hwdbg_ip::StdModels, config).unwrap();
        sim.poke_u64("pix_in_valid", 1).unwrap();
        for i in 0..200u64 {
            sim.poke_u64("pix_in", i).unwrap();
            sim.step("clk").unwrap();
        }
        let before = thread_allocs();
        for i in 200..1200u64 {
            sim.poke_u64("pix_in", i).unwrap();
            sim.step("clk").unwrap();
        }
        let allocs = thread_allocs() - before;
        assert_eq!(
            allocs, 0,
            "{backend:?} steady state allocated {allocs} times over 1000 cycles"
        );
    }
}

/// The fused-region fast path: the 256-stage comb chain under the
/// levelized backend, with the schedule asserted non-trivial (one region,
/// promoted internal links) so an accidentally-empty schedule cannot pass
/// by falling back to the worklist. Region programs, pinned registers,
/// and the node worklist bitset are all sized at compile time; running a region is a
/// single straight-line interpreter pass with blind flushes — nothing in
/// it may allocate.
#[test]
fn levelized_fused_region_settle_allocates_nothing() {
    let mut src = String::from("module m(input clk, input [31:0] d, output [31:0] q);\n");
    for i in 0..256 {
        let prev = if i == 0 {
            "d".to_string()
        } else {
            format!("w{}", i - 1)
        };
        src.push_str(&format!("wire [31:0] w{i}; assign w{i} = {prev} + 32'd1;\n"));
    }
    src.push_str("assign q = w255;\nendmodule");
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(&src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let config = SimConfig::default().with_backend(hwdbg_sim::Backend::Levelized);
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, config).unwrap();
    let (regions, max_level, fused) = sim.compiled_design().region_stats();
    assert_eq!(regions, 1, "chain must fuse into one region");
    assert!(max_level >= 255, "chain must levelize deep, got {max_level}");
    assert!(fused >= 255, "chain links must be promoted, got {fused}");
    for t in 0..16u64 {
        sim.poke_u64("d", 7 + (t & 1)).unwrap();
        sim.settle().unwrap();
    }
    let before = thread_allocs();
    for t in 0..1000u64 {
        sim.poke_u64("d", 7 + (t & 1)).unwrap();
        sim.settle().unwrap();
        std::hint::black_box(sim.peek("q").unwrap());
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "levelized fused settle allocated {allocs} times over 1000 settles"
    );
}

/// The per-unit bytecode spill path: a 192-bit mixed ALU (adds, xors,
/// shifts, a mux, and a 384-bit replication) re-settled every cycle by the
/// full-pass scheduler, which runs every unit on its own lowered program.
/// Wide registers are pre-spilled at build time and `std::mem::take`-cycled
/// by the interpreter; `store_small` keeps their heap capacity, so not even
/// the narrow-in-wide transitions allocate.
#[test]
fn bytecode_wide_settle_allocates_nothing() {
    let src = "module m(input clk, input [191:0] a, input [191:0] b, output [191:0] q);
                 wire [191:0] s; assign s = a + b;
                 wire [191:0] x; assign x = s ^ a;
                 wire [383:0] r; assign r = {2{x}};
                 wire [191:0] m2; assign m2 = (a < b) ? r[383:192] : (s >> 3);
                 assign q = m2 - b;
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let config = SimConfig {
        settle_mode: hwdbg_sim::SettleMode::FullPass,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, config).unwrap();
    let (lowered, total) = sim.compiled_design().lowering_coverage();
    assert_eq!(lowered, total, "wide ALU must lower fully");
    sim.poke_u64("b", 0x0BAD_F00D).unwrap();
    for t in 0..16u64 {
        sim.poke_u64("a", 0x00C0_FFEE ^ (t & 1)).unwrap();
        sim.settle().unwrap();
    }
    let before = thread_allocs();
    for t in 0..1000u64 {
        sim.poke_u64("a", 0x00C0_FFEE ^ (t & 1)).unwrap();
        sim.settle().unwrap();
        std::hint::black_box(sim.peek("q").unwrap());
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "bytecode wide settle allocated {allocs} times over 1000 settles"
    );
}

/// `$display` on every cycle into a small log: narrow and wide, signed and
/// unsigned arguments through every directive. The production backend
/// renders each record in place into one reusable buffer and copies it
/// into an exact-length message; once the log has compacted, new records
/// reuse the evicted records' message buffers, so a full log allocates
/// nothing. Field widths are fixed so every message has the same length.
#[test]
fn display_heavy_full_log_allocates_nothing() {
    let src = "module m(input clk, input [15:0] d, output reg [15:0] n,
                        output reg [95:0] acc, output reg signed [7:0] s);
                 always @(posedge clk) begin
                   n <= n + 16'd1;
                   acc <= {acc[79:0], d} ^ {d, 80'd12345};
                   s <= s - 8'd3;
                   $display(\"n=%d d=%h acc=%d/%h s=%4d %b %c %5t %%\",
                            n, d, acc, acc, s, d[3:0], 8'd65, n);
                 end
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let config = SimConfig {
        log_capacity: 64,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(design, &hwdbg_sim::NoModels, config).unwrap();
    let (lowered, total) = sim.compiled_design().lowering_coverage();
    assert_eq!(lowered, total, "the display process must lower");
    // Warmup: past the first compaction (2 × capacity records), so
    // the message pool is stocked.
    for t in 0..200u64 {
        sim.poke_u64("d", t.wrapping_mul(0x9E37)).unwrap();
        sim.step("clk").unwrap();
    }
    let before = thread_allocs();
    for t in 200..1200u64 {
        sim.poke_u64("d", t.wrapping_mul(0x9E37)).unwrap();
        sim.step("clk").unwrap();
    }
    let allocs = thread_allocs() - before;
    assert_eq!(sim.logs().len(), 64);
    assert_eq!(sim.dropped_logs(), 1200 - 64);
    assert_eq!(
        allocs, 0,
        "display-heavy steady state allocated {allocs} times over 1000 cycles"
    );
}
