//! Differential proof that the production simulator is observably
//! identical to an independent reference.
//!
//! The reference leg runs the `CStmt`/`CExpr` tree-walker under the
//! full-pass scheduler ([`Backend::Tree`] + [`SettleMode::FullPass`]): it
//! shares neither the evaluator nor the scheduler with production, which
//! lowers unit bodies to bytecode and settles on the levelized node
//! worklist with acyclic comb regions fused into straight-line programs
//! and promoted registers ([`Backend::Levelized`]). A third leg, the
//! tree-walker on the levelized scheduler with every region unfused,
//! splits a divergence into an evaluator bug or a scheduling bug. Any
//! divergence isolates a lowering or scheduling bug: a mis-masked narrow
//! operation, a width table that disagrees with the tree-walker's dynamic
//! widths, a branch that skipped a store, a wide/narrow boundary case at
//! 63/64/65 bits, or a fused region whose rank order disagrees with the
//! full-pass fixpoint. Every bug in the testbed runs its full workload
//! under every leg and must produce byte-identical `$display` logs,
//! signal/memory state, and VCD waveforms; a seeded width sweep then
//! drives a mixed-operator design at widths straddling the inline/spilled
//! `Bits` boundary, and dedicated designs prove cyclic SCCs route to the
//! worklist fallback and either converge or report `CombLoop` identically.

use hwdbg_bits::SplitMix64;
use hwdbg_ip::StdModels;
use hwdbg_sim::{Backend, RegInit, SettleMode, SimConfig, Simulator};
use hwdbg_testbed::{buggy_design, workloads, BugId};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` sink the test can read back after the simulator takes
/// ownership of it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An execution configuration: unit-body backend plus settle scheduler.
type Leg = (Backend, SettleMode);

/// The independent reference: tree-walker, full-pass scheduler.
const REFERENCE: Leg = (Backend::Tree, SettleMode::FullPass);

/// The production path, the default configuration.
const PRODUCTION: Leg = (Backend::Levelized, SettleMode::EventDriven);

/// The legs held to [`REFERENCE`]: production, and the tree-walker on the
/// production scheduler.
const CHECKED: [Leg; 2] = [(Backend::Tree, SettleMode::EventDriven), PRODUCTION];

fn config((backend, settle_mode): Leg, init: RegInit) -> SimConfig {
    SimConfig {
        init,
        backend,
        settle_mode,
        ..SimConfig::default()
    }
}

/// Runs one bug's workload under a leg, returning the VCD bytes, the
/// simulator for state inspection, and the workload verdict.
fn run_leg(id: BugId, leg: Leg, init: RegInit) -> (Vec<u8>, Simulator, String) {
    let design = buggy_design(id).unwrap();
    let mut sim = Simulator::new(design, &StdModels, config(leg, init)).unwrap();
    let vcd = SharedBuf::default();
    sim.attach_vcd(vcd.clone()).unwrap();
    let outcome = workloads::run(id, &mut sim).unwrap();
    let bytes = vcd.0.lock().unwrap().clone();
    (bytes, sim, format!("{outcome:?}"))
}

fn assert_equivalent(id: BugId, init: RegInit) {
    let (vcd_t, sim_t, out_t) = run_leg(id, REFERENCE, init);
    for leg in CHECKED {
        let (vcd_b, sim_b, out_b) = run_leg(id, leg, init);

        assert_eq!(out_b, out_t, "{id}/{leg:?}: workload outcome diverged");
        assert_eq!(
            sim_b.logs(),
            sim_t.logs(),
            "{id}/{leg:?}: $display logs diverged"
        );
        assert_eq!(
            sim_b.dropped_logs(),
            sim_t.dropped_logs(),
            "{id}/{leg:?}: dropped-log count diverged"
        );
        assert_eq!(
            sim_b.finished(),
            sim_t.finished(),
            "{id}/{leg:?}: $finish state diverged"
        );

        // Every scalar signal, by name, must peek identically…
        for (name, value) in sim_b.state().iter_values() {
            assert_eq!(
                Some(value),
                sim_t.state().get(name),
                "{id}/{leg:?}: signal `{name}` diverged"
            );
        }
        // …and every memory, element for element.
        for (name, info) in &sim_b.design().signals {
            if info.mem_depth.is_some() {
                assert_eq!(
                    sim_b.state().mem(name),
                    sim_t.state().mem(name),
                    "{id}/{leg:?}: memory `{name}` diverged"
                );
            }
        }

        assert_eq!(vcd_b, vcd_t, "{id}/{leg:?}: VCD waveforms diverged");
    }
}

#[test]
fn all_bugs_zero_init() {
    for id in BugId::ALL {
        assert_equivalent(id, RegInit::Zero);
    }
}

#[test]
fn all_bugs_random_init() {
    // Random register images exercise paths a zeroed design never takes
    // (missing-reset bugs, X-ish FSM states).
    for id in BugId::ALL {
        assert_equivalent(id, RegInit::Random(0xB17E_C0DE));
    }
}

/// A mixed-operator design at width `w`: arithmetic, comparisons (signed
/// and unsigned), shifts (including `>>>`), reductions, mux, replication
/// crossing `2w` bits, and a clocked accumulator pair (one signed). For
/// `w >= 4` it adds part-selects, a concat, a memory, a `for` loop, and a
/// `case` over blocking temporaries.
fn sweep_src(w: u32) -> String {
    let mut s = format!(
        "module m(input clk, input [{top}:0] a, input [{top}:0] b, output reg [{top}:0] q);
           reg [{top}:0] acc;
           reg signed [{top}:0] sacc;
           wire [{top}:0] sum; assign sum = a + b;
           wire [{top}:0] dif; assign dif = a - b;
           wire [{top}:0] pro; assign pro = a * b;
           wire [{top}:0] quo; assign quo = a / b;
           wire [{top}:0] rem; assign rem = a % b;
           wire [{top}:0] sh1; assign sh1 = a << 1;
           wire [{top}:0] sh2; assign sh2 = a >> 1;
           wire [{top}:0] sh3; assign sh3 = $signed(a) >>> 2;
           wire cmp1; assign cmp1 = a < b;
           wire cmp2; assign cmp2 = $signed(a) < $signed(b);
           wire red; assign red = (^a) ^ (|b) ^ (&a) ^ (!b);
           wire [{top}:0] mux; assign mux = cmp1 ? sum : (dif ^ sh3);
           wire [{rtop}:0] rep; assign rep = {{2{{a}}}};
           wire [{top}:0] fold; assign fold = rep[{rtop}:{w}] ^ (~pro) ^ (-quo);
",
        top = w - 1,
        rtop = 2 * w - 1,
        w = w,
    );
    if w >= 4 {
        let h = w / 2;
        s.push_str(&format!(
            "  wire [{htop}:0] lo; assign lo = a[{htop}:0];
               wire [{top}:0] cat; assign cat = {{lo, b[{bh}:0]}};
               reg [{top}:0] mem [0:7];
               integer i;
               reg [{top}:0] tmp;
               always @(posedge clk) begin
                 mem[b[2:0]] <= cat ^ mux;
                 tmp = fold;
                 for (i = 0; i < 4; i = i + 1) tmp = tmp + sum;
                 case (b[1:0])
                   2'd0: acc <= tmp;
                   2'd1: acc <= tmp ^ mem[a[2:0]];
                   default: acc <= tmp + rem;
                 endcase
               end
",
            htop = h - 1,
            bh = w - h - 1,
            top = w - 1,
        ));
    } else {
        s.push_str("  always @(posedge clk) acc <= (acc ^ fold) + sum;\n");
    }
    s.push_str(&format!(
        "  always @(posedge clk) begin
             sacc <= sacc - $signed(mux);
             if (a == b) q <= ~acc;
             else q <= acc ^ mux ^ {{{w}{{red}}}} ^ {{{w}{{cmp2}}}};
             $display(\"a=%d sacc=%d red=%b\", a, sacc, red);
           end
         endmodule",
        w = w,
    ));
    s
}

fn run_sweep(w: u32, leg: Leg) -> (Vec<(String, String)>, Vec<String>) {
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(&sweep_src(w)).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let mut sim = Simulator::new(
        design,
        &hwdbg_sim::NoModels,
        config(leg, RegInit::Random(0x5EED ^ u64::from(w))),
    )
    .unwrap();
    if leg == PRODUCTION {
        // The sweep exists to exercise the lowered programs: prove the
        // lowering engaged rather than silently falling back everywhere.
        let (lowered, total) = sim.compiled_design().lowering_coverage();
        assert_eq!(lowered, total, "width {w}: {lowered}/{total} units lowered");
    }
    let mut rng = SplitMix64::new(0xD1FF_5EED ^ u64::from(w));
    for _ in 0..64 {
        sim.poke_u64("a", rng.next_u64()).unwrap();
        sim.poke_u64("b", rng.next_u64()).unwrap();
        sim.step("clk").unwrap();
    }
    let state = sim
        .state()
        .iter_values()
        .map(|(n, v)| (n.to_owned(), v.to_bin_string()))
        .collect();
    let logs = sim.logs().iter().map(|l| l.to_string()).collect();
    (state, logs)
}

#[test]
fn seeded_width_sweep_matches_tree() {
    // Widths straddling every interesting boundary: the 1-bit edge, the
    // 63/64/65 inline-vs-spilled `Bits` crossover (and 31/32/33 for the
    // 2w-bit replication wire), and multi-limb widths.
    for w in [1u32, 2, 3, 7, 8, 31, 32, 33, 63, 64, 65, 96, 127, 128, 160] {
        let reference = run_sweep(w, REFERENCE);
        for leg in CHECKED {
            let other = run_sweep(w, leg);
            assert_eq!(other.0, reference.0, "width {w}/{leg:?}: state diverged");
            assert_eq!(other.1, reference.1, "width {w}/{leg:?}: logs diverged");
        }
    }
}

/// A design mixing a fused acyclic chain with a convergent cyclic SCC (a
/// latch-shaped cross-coupled pair). The chain must form a region with a
/// promoted internal signal, the SCC must stay on the worklist fallback,
/// and every leg must agree with the reference on every observable.
#[test]
fn mixed_region_and_scc_fallback_match() {
    let src = "module m(input clk, input [7:0] d, input en, output [7:0] q);
                 wire [7:0] c1; assign c1 = d + 8'd3;
                 wire [7:0] c2; assign c2 = c1 ^ 8'h0F;
                 wire [7:0] la; wire [7:0] lb;
                 assign la = en ? c2 : lb;
                 assign lb = la;
                 assign q = lb;
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let run = |leg| {
        let mut sim = Simulator::new(
            design.clone(),
            &hwdbg_sim::NoModels,
            config(leg, RegInit::Zero),
        )
        .unwrap();
        if leg == PRODUCTION {
            // The latch pair (la/lb) must be excluded from fusion; the
            // d→c1→c2 chain and the q tail must be fused with at least
            // c1 promoted to a region register.
            let (regions, _, fused) = sim.compiled_design().region_stats();
            assert!(regions >= 1, "expected a fused region, got none");
            assert!(fused >= 1, "expected a promoted signal, got none");
        }
        let mut trace = Vec::new();
        for (cycle, (d, en)) in
            [(7u64, 1u64), (7, 0), (200, 0), (200, 1), (13, 1), (13, 0)].iter().enumerate()
        {
            sim.poke_u64("d", *d).unwrap();
            sim.poke_u64("en", *en).unwrap();
            sim.settle().unwrap();
            trace.push((cycle, sim.peek("q").unwrap().to_u64()));
            sim.step("clk").unwrap();
        }
        let state: Vec<(String, String)> = sim
            .state()
            .iter_values()
            .map(|(n, v)| (n.to_owned(), v.to_bin_string()))
            .collect();
        (trace, state)
    };
    let reference = run(REFERENCE);
    // The latch must actually latch: q holds c2's value after en drops.
    assert_eq!(reference.0[0].1, (7 + 3) ^ 0x0F);
    assert_eq!(reference.0[2].1, (7 + 3) ^ 0x0F, "latch failed to hold while en=0");
    for leg in CHECKED {
        let other = run(leg);
        assert_eq!(other.0, reference.0, "{leg:?}: q trace diverged");
        assert_eq!(other.1, reference.1, "{leg:?}: state diverged");
    }
}

/// An oscillating combinational loop must fail settle with the same
/// `CombLoop { unstable }` report — same signal names, same order — under
/// both backends and both schedulers. `x` flips every pass, and so does
/// `q = x ^ d` (5 ↔ a); `q` is promoted into a fused region, whose
/// straight-line write-back records no change, so the levelized scheduler
/// runs regions unit by unit in its final window to name `q` as well.
#[test]
fn comb_loop_reports_identically() {
    let src = "module m(input clk, input [3:0] d, output [3:0] q);
                 wire [3:0] x; assign x = ~x;
                 assign q = x ^ d;
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let run = |leg| {
        let mut sim = Simulator::new(
            design.clone(),
            &hwdbg_sim::NoModels,
            config(leg, RegInit::Zero),
        )
        .unwrap();
        sim.poke_u64("d", 5).unwrap();
        sim.settle().unwrap_err()
    };
    let reference = run(REFERENCE);
    assert_eq!(
        reference,
        hwdbg_sim::SimError::CombLoop {
            unstable: vec!["q".into(), "x".into()]
        }
    );
    for leg in [(Backend::Levelized, SettleMode::FullPass), CHECKED[0], CHECKED[1]] {
        assert_eq!(run(leg), reference, "{leg:?}: CombLoop report diverged");
    }
}

/// `strict_bounds` turns an out-of-range memory write and an out-of-range
/// bit write into the same typed `OutOfBounds` error under every leg; the
/// default drops both writes, leaving the memory and the vector untouched.
/// The memory has a non-power-of-two depth, so the truncated address still
/// misses it (a power-of-two memory wraps instead, §3.2.1 outcome 1).
#[test]
fn strict_bounds_reports_identically_and_default_drops() {
    let src = "module m(input clk, input [2:0] wa, input [3:0] bi, input [7:0] d);
                 reg [7:0] mem [0:4];
                 reg [7:0] v;
                 always @(posedge clk) begin
                   mem[wa] <= d;
                   v[bi] <= 1'b1;
                 end
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let run = |leg, strict_bounds, wa, bi| {
        let config = SimConfig {
            strict_bounds,
            ..config(leg, RegInit::Zero)
        };
        let mut sim = Simulator::new(design.clone(), &hwdbg_sim::NoModels, config).unwrap();
        sim.poke_u64("wa", wa).unwrap();
        sim.poke_u64("bi", bi).unwrap();
        sim.poke_u64("d", 0xa5).unwrap();
        let result = sim.step("clk");
        (result, sim)
    };
    let legs = [REFERENCE, (Backend::Levelized, SettleMode::FullPass), CHECKED[0], CHECKED[1]];
    let oob = |signal: &str, index, depth| {
        Err(hwdbg_sim::SimError::OutOfBounds {
            signal: signal.into(),
            index,
            depth,
        })
    };
    for leg in legs {
        assert_eq!(run(leg, true, 6, 2).0, oob("mem", 6, 5), "{leg:?}: memory write");
        assert_eq!(run(leg, true, 1, 9).0, oob("v", 9, 8), "{leg:?}: bit write");
        let (result, sim) = run(leg, false, 6, 9);
        assert_eq!(result, Ok(()), "{leg:?}");
        let zero = hwdbg_bits::Bits::zero(8);
        assert_eq!(sim.state().mem("mem"), Some(&vec![zero.clone(); 5][..]), "{leg:?}");
        assert_eq!(sim.state().get("v"), Some(&zero), "{leg:?}");
    }
}

/// Regression: `$display("%d")` of a `reg signed` renders
/// two's-complement negatives — identically under production and the
/// reference. An 8-bit signed counter stepping down from zero used to
/// print `255` instead of `-1`.
#[test]
fn signed_display_renders_negative_under_both_backends() {
    let src = "module m(input clk);
                 reg signed [7:0] c;
                 always @(posedge clk) begin
                   $display(\"c=%0d u=%h\", c, c);
                   c <= c - 8'd1;
                 end
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let run = |leg| {
        let mut sim = Simulator::new(
            design.clone(),
            &hwdbg_sim::NoModels,
            config(leg, RegInit::Zero),
        )
        .unwrap();
        sim.run("clk", 3).unwrap();
        sim.logs()
            .iter()
            .map(|l| l.message.clone())
            .collect::<Vec<_>>()
    };
    let production = run(PRODUCTION);
    assert_eq!(
        production,
        vec!["c=0 u=00", "c=-1 u=ff", "c=-2 u=fe"],
        "signed %d must render two's complement"
    );
    assert_eq!(production, run(REFERENCE), "backends diverged");
}

/// Regression: reversed constant part-select bounds are a typed
/// `ReversedRange` error (E0408).
#[test]
fn reversed_range_is_typed_error() {
    let src = "module m(input clk, input [7:0] a, output [7:0] q);
                 assign q = a;
               endmodule";
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let expr = hwdbg_rtl::Expr::Range(
        "a".into(),
        Box::new(hwdbg_rtl::Expr::number(0)),
        Box::new(hwdbg_rtl::Expr::number(7)),
    );
    let err = hwdbg_sim::SimError::from(hwdbg_dataflow::ty(&expr, &design).unwrap_err());
    assert_eq!(
        err,
        hwdbg_sim::SimError::ReversedRange { msb: 0, lsb: 7 },
        "reversed bounds must be the typed error"
    );
    let diag: hwdbg_diag::HwdbgError = err.into();
    assert_eq!(diag.code.as_str(), "E0408");
}

/// Every backend × settle-mode pairing: the reference first.
const ALL_LEGS: [Leg; 4] = [
    REFERENCE,
    (Backend::Levelized, SettleMode::FullPass),
    CHECKED[0],
    CHECKED[1],
];

/// Elaborates a single-module test design `m`, asserting that every unit
/// body lowers to bytecode.
fn lowered_design(src: &str) -> hwdbg_dataflow::Design {
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "m",
        &hwdbg_dataflow::NoBlackboxes,
    )
    .unwrap();
    let compiled = hwdbg_sim::CompiledDesign::new(design.clone()).unwrap();
    let (lowered, total) = compiled.lowering_coverage();
    assert_eq!(lowered, total, "{lowered}/{total} units lowered");
    design
}

/// Every scalar signal's value as a binary string, by name.
fn state_of(sim: &Simulator) -> Vec<(String, String)> {
    sim.state()
        .iter_values()
        .map(|(n, v)| (n.to_owned(), v.to_bin_string()))
        .collect()
}

/// A blocking nested concat lvalue, `{{a, b}, c} = …`, in a comb block
/// that fuses into a region with its promoted source `t`: compilation
/// flattens the target MSB-first, and every leg matches the reference.
#[test]
fn nested_concat_lvalue_in_a_fused_region_matches() {
    let design = lowered_design(
        "module m(input clk, input [7:0] d, output [7:0] q);
           wire [7:0] t; assign t = d + 8'd3;
           reg [2:0] a; reg [4:0] b; reg [3:0] c;
           always @(*) {{a, b}, c} = {t, t[7:4] ^ d[3:0]};
           assign q = {a, b} ^ {c, c};
         endmodule",
    );
    let run = |leg: Leg| {
        let config = config(leg, RegInit::Zero);
        let mut sim = Simulator::new(design.clone(), &hwdbg_sim::NoModels, config).unwrap();
        if leg == PRODUCTION {
            let (regions, _, fused) = sim.compiled_design().region_stats();
            assert!(regions >= 1 && fused >= 1, "the concat unit must fuse with `t`");
        }
        let mut rng = SplitMix64::new(0xC0_CA7);
        let mut trace = Vec::new();
        for _ in 0..32 {
            sim.poke_u64("d", rng.next_u64() & 0xff).unwrap();
            sim.settle().unwrap();
            trace.push(sim.peek("q").unwrap().to_u64());
            sim.step("clk").unwrap();
        }
        (trace, state_of(&sim))
    };
    let reference = run(REFERENCE);
    for leg in ALL_LEGS {
        assert_eq!(run(leg), reference, "{leg:?}");
    }
}

/// A nonblocking nested concat lvalue with a bit part and a memory part:
/// under `strict_bounds` the MSB-most out-of-range part names the error
/// and nothing commits; by default out-of-range parts drop and the rest
/// commit. Every leg matches the reference.
#[test]
fn nested_concat_lvalue_in_a_clocked_process_matches() {
    let design = lowered_design(
        "module m(input clk, input [7:0] d, input [3:0] i, input [3:0] j);
           reg [7:0] v; reg [3:0] w; reg [7:0] mem [0:4];
           always @(posedge clk) {{v[i], w}, {mem[j], v[1:0]}} <= {d, ~d, d};
         endmodule",
    );
    let run = |leg, strict_bounds, i, j| {
        let config = SimConfig {
            strict_bounds,
            ..config(leg, RegInit::Zero)
        };
        let mut sim = Simulator::new(design.clone(), &hwdbg_sim::NoModels, config).unwrap();
        sim.poke_u64("d", 0xb6).unwrap();
        sim.poke_u64("i", i).unwrap();
        sim.poke_u64("j", j).unwrap();
        let result = sim.step("clk");
        let mem = sim.state().mem("mem").map(<[_]>::to_vec);
        (result, state_of(&sim), mem)
    };
    let oob = |signal: &str, index, depth| {
        Err(hwdbg_sim::SimError::OutOfBounds {
            signal: signal.into(),
            index,
            depth,
        })
    };
    let reference: Vec<_> = [(true, 9, 6), (true, 2, 6), (false, 9, 6), (false, 2, 3)]
        .iter()
        .map(|&(strict, i, j)| run(REFERENCE, strict, i, j))
        .collect();
    assert_eq!(reference[0].0, oob("v", 9, 8), "MSB-first: `v[i]` is checked first");
    assert_eq!(reference[1].0, oob("mem", 6, 5));
    assert_eq!(reference[2].0, Ok(()));
    for leg in ALL_LEGS {
        for (k, &(strict, i, j)) in
            [(true, 9, 6), (true, 2, 6), (false, 9, 6), (false, 2, 3)].iter().enumerate()
        {
            assert_eq!(run(leg, strict, i, j), reference[k], "{leg:?} strict={strict} i={i} j={j}");
        }
    }
}

/// A `for` loop over a 128-bit variable whose range crosses 2^64 lowers
/// through the wide store, and every leg matches the reference.
#[test]
fn wide_loop_variable_matches() {
    let design = lowered_design(
        "module m(input clk, input [127:0] start, output reg [127:0] acc);
           reg [127:0] i;
           always @(posedge clk) begin
             acc = 128'd0;
             for (i = start; i < start + 128'd5; i = i + 128'd1)
               acc = acc ^ (i << 3) ^ {64'd0, i[127:64]};
           end
         endmodule",
    );
    let run = |leg| {
        let config = config(leg, RegInit::Zero);
        let mut sim = Simulator::new(design.clone(), &hwdbg_sim::NoModels, config).unwrap();
        let mut trace = Vec::new();
        for start in [0u128, (1 << 64) - 3, u128::MAX - 9, 7 << 70] {
            sim.poke("start", hwdbg_bits::Bits::from_u128(128, start)).unwrap();
            sim.step("clk").unwrap();
            trace.push(state_of(&sim));
        }
        trace
    };
    let reference = run(REFERENCE);
    let i = |k: usize| reference[k].iter().find(|(n, _)| n == "i").map(|(_, v)| v.clone());
    assert_eq!(
        i(1),
        Some(format!("{:0128b}", (1u128 << 64) + 2)),
        "the loop must run past 2^64"
    );
    for leg in ALL_LEGS {
        assert_eq!(run(leg), reference, "{leg:?}");
    }
}

/// Every standard blackbox model (`tests/fixtures/ip_sim.v`: show-ahead
/// and normal-mode `scfifo`, `dcfifo` on an aliased read clock,
/// `altsyncram`, `trace_buffer`) under every leg, at zero and random
/// init: `$display` logs, signal state and VCD match the reference.
#[test]
fn ip_models_match() {
    let src = include_str!("../../../tests/fixtures/ip_sim.v");
    let design = hwdbg_dataflow::elaborate(
        &hwdbg_rtl::parse(src).unwrap(),
        "ip_sim",
        &hwdbg_ip::StdIpLib::new(),
    )
    .unwrap();
    assert_eq!(design.blackboxes.len(), 5);
    for init in [RegInit::Zero, RegInit::Random(0x1B_5EED)] {
        let run = |leg| {
            let mut sim = Simulator::new(design.clone(), &StdModels, config(leg, init)).unwrap();
            let vcd = SharedBuf::default();
            sim.attach_vcd(vcd.clone()).unwrap();
            sim.run("clk", 48).unwrap();
            let logs: Vec<String> = sim.logs().iter().map(|r| r.to_string()).collect();
            let bytes = vcd.0.lock().unwrap().clone();
            (logs, state_of(&sim), bytes)
        };
        let reference = run(REFERENCE);
        assert_eq!(reference.0.len(), 96, "{init:?}: two records per cycle");
        for leg in ALL_LEGS {
            assert!(run(leg) == reference, "{init:?}/{leg:?}: diverged from the reference");
        }
    }
}

/// Shifts follow IEEE 1364-2005 §5.1.12 and Table 5-22: the result keeps
/// the left operand's width, the right operand is an unsigned amount, and
/// only a signed left operand makes `>>>` fill with its sign. Narrow and
/// wide (above 64 bits) operands, under every leg.
#[test]
fn shifts_keep_the_left_operand_width_and_sign() {
    let design = lowered_design(
        "module m(input clk, input [7:0] u, input [3:0] k);
           wire signed [3:0] a; assign a = 4'he;
           wire signed [7:0] b; assign b = 8'h01;
           wire signed [7:0] nb; assign nb = 8'hfe;
           wire signed [99:0] w; assign w = {4'h9, 96'd0};
           wire [27:0] c; assign c = {24'd0, {a >>> b}};
           wire [3:0] l; assign l = a << b;
           wire [3:0] r; assign r = a >> b;
           wire [7:0] v; assign v = u >>> 2'd2;
           wire [7:0] s; assign s = $signed(u) >>> k;
           wire [7:0] t; assign t = $signed(u) >>> nb;
           wire [99:0] x; assign x = w >>> k;
           wire [99:0] y; assign y = w >> k;
         endmodule",
    );
    let run = |leg| {
        let config = config(leg, RegInit::Zero);
        let mut sim = Simulator::new(design.clone(), &hwdbg_sim::NoModels, config).unwrap();
        let mut trace = Vec::new();
        for (u, k) in [(0xf0u64, 2u64), (0x81, 1), (0x7f, 3)] {
            sim.poke_u64("u", u).unwrap();
            sim.poke_u64("k", k).unwrap();
            sim.settle().unwrap();
            trace.push(state_of(&sim));
        }
        trace
    };
    let reference = run(REFERENCE);
    let get = |n: &str| {
        let (_, v) = reference[0].iter().find(|(name, _)| name == n).unwrap();
        u128::from_str_radix(v, 2).unwrap()
    };
    assert_eq!(get("c"), 0xf, "a >>> b keeps a's 4 bits");
    assert_eq!(get("l"), 0xc);
    assert_eq!(get("r"), 0x7);
    assert_eq!(get("v"), 0x3c, "an unsigned >>> shifts in zeros");
    assert_eq!(get("s"), 0xfc, "a signed >>> shifts in the sign");
    assert_eq!(get("t"), 0xff, "a negative amount is a large unsigned one");
    assert_eq!(get("x"), 0xe4 << 92, "wide signed >>>");
    assert_eq!(get("y"), 0x24 << 92, "wide >>");
    for leg in ALL_LEGS {
        assert_eq!(run(leg), reference, "{leg:?}");
    }
}

/// Signed `/` and `%` follow IEEE 1364-2005 §5.1.5: the quotient truncates
/// toward zero and the remainder takes the dividend's sign; division by
/// zero yields zero. Narrow (8, 64), wide (65, 128) and divider-path (129)
/// widths, folded as `localparam`s and simulated as `assign`s under every
/// leg.
#[test]
fn signed_division_truncates_toward_zero() {
    const WIDTHS: [u32; 5] = [8, 64, 65, 128, 129];
    const CASES: [(i64, i64); 8] = [
        (-7, 2),
        (7, -2),
        (-7, -2),
        (7, 2),
        (-1, 2),
        (-9, 4),
        (9, -4),
        (-7, 0),
    ];
    // `v` at width `w`, two's complement.
    let bits = |w: u32, v: i64| {
        let m = hwdbg_bits::Bits::from_u64(w, v.unsigned_abs());
        if v < 0 {
            m.neg()
        } else {
            m
        }
    };
    let cases = |w: u32| {
        let mut cases = CASES.to_vec();
        if w <= 64 {
            // The most negative value over -1 wraps to itself.
            cases.push((i64::MIN >> (64 - w), -1));
        }
        cases
    };
    let mut src = String::from("module m(input clk");
    for w in WIDTHS {
        src += &format!(", input [{0}:0] x{w}, input [{0}:0] y{w}", w - 1);
    }
    src += ");\n";
    for w in WIDTHS {
        src += &format!(
            "  wire [{0}:0] q{w}; assign q{w} = $signed(x{w}) / $signed(y{w});\n  \
             wire [{0}:0] r{w}; assign r{w} = $signed(x{w}) % $signed(y{w});\n",
            w - 1
        );
        for (k, (x, y)) in cases(w).into_iter().enumerate() {
            let (x, y) = (bits(w, x).to_bin_string(), bits(w, y).to_bin_string());
            src += &format!(
                "  localparam [{0}:0] Q{w}_{k} = $signed({w}'b{x}) / $signed({w}'b{y});\n  \
                 localparam [{0}:0] R{w}_{k} = $signed({w}'b{x}) % $signed({w}'b{y});\n",
                w - 1
            );
        }
    }
    src += "endmodule\n";
    let design = lowered_design(&src);
    let expected = |w: u32, (x, y): (i64, i64)| match y {
        0 => (bits(w, 0), bits(w, 0)),
        _ => (bits(w, x.wrapping_div(y)), bits(w, x.wrapping_rem(y))),
    };
    for w in WIDTHS {
        for (k, case) in cases(w).into_iter().enumerate() {
            let (q, r) = expected(w, case);
            assert_eq!(design.consts[&format!("Q{w}_{k}")], q, "{w}: {case:?} /");
            assert_eq!(design.consts[&format!("R{w}_{k}")], r, "{w}: {case:?} %");
        }
    }
    for leg in ALL_LEGS {
        let config = config(leg, RegInit::Zero);
        let mut sim = Simulator::new(design.clone(), &hwdbg_sim::NoModels, config).unwrap();
        for w in WIDTHS {
            for case in cases(w) {
                sim.poke(&format!("x{w}"), bits(w, case.0)).unwrap();
                sim.poke(&format!("y{w}"), bits(w, case.1)).unwrap();
                sim.settle().unwrap();
                let (q, r) = expected(w, case);
                let got = |name: &str| sim.peek(&format!("{name}{w}")).unwrap().clone();
                assert_eq!(got("q"), q, "{leg:?} {w}: {case:?} /");
                assert_eq!(got("r"), r, "{leg:?} {w}: {case:?} %");
            }
        }
    }
}
