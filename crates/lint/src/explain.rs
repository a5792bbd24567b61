//! Human-readable explanations for every stable `L`-code.
//!
//! `hwdbg lint --explain LXXXX` resolves a code to a [`LintExplanation`]:
//! a one-paragraph description of the fingerprint, the Table 1 bug subclass
//! it targets (from the ASPLOS'22 study taxonomy), and a minimal Verilog
//! fragment that triggers the finding. The table is the single source of
//! truth for both the plain-text and `--json` forms of the subflag.

/// Everything the CLI prints for `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct LintExplanation {
    /// The stable diagnostic code, e.g. `"L0604"`.
    pub code: &'static str,
    /// One-paragraph description of what the code fingerprints and why it
    /// matters for hardware bring-up.
    pub summary: &'static str,
    /// The Table 1 subclass (study taxonomy) this code targets.
    pub subclass: &'static str,
    /// A minimal self-contained Verilog fragment that triggers the finding.
    pub example: &'static str,
}

/// Looks up the explanation for a code string (e.g. `"L0502"`).
pub fn explain(code: &str) -> Option<&'static LintExplanation> {
    EXPLANATIONS.iter().find(|e| e.code == code)
}

/// All registered explanations, in code order.
pub fn all_explanations() -> &'static [LintExplanation] {
    EXPLANATIONS
}

static EXPLANATIONS: &[LintExplanation] = &[
    LintExplanation {
        code: "L0101",
        summary: "A `case` statement inside a combinational process covers only \
some selector values and has no `default` arm. Synthesis infers a latch to \
hold the old value on the uncovered paths, which simulates differently from \
hardware and retains stale data.",
        subclass: "Incomplete Implementation",
        example: "always @* begin\n  case (sel)\n    2'd0: y = a;\n    2'd1: y = b;\n  endcase // no default: latch inferred\nend",
    },
    LintExplanation {
        code: "L0102",
        summary: "A clocked (sequential) process uses a blocking assignment \
(`=`) to a signal that is read outside the process: by another process, a \
combinational driver, a blackbox input, or an output port. Whether those \
readers see the old or the new value depends on evaluation order, which \
diverges between simulators and synthesized hardware.",
        subclass: "Erroneous Expression",
        example: "always @(posedge clk) begin\n  a = in;   // blocking in sequential process\nend\nalways @(posedge clk) b <= a; // old or new a?",
    },
    LintExplanation {
        code: "L0103",
        summary: "A combinational process uses a nonblocking assignment \
(`<=`). The scheduled update lands after the process re-evaluates, producing \
delta-cycle races and mismatches between RTL and gate-level simulation.",
        subclass: "Erroneous Expression",
        example: "always @* begin\n  y <= a & b; // nonblocking in combinational process\nend",
    },
    LintExplanation {
        code: "L0104",
        summary: "Two `always` processes write overlapping bits of one register. \
The processes race: simulation picks an evaluation order, hardware shorts two \
drivers together, and the observed value depends on neither.",
        subclass: "Signal Asynchrony",
        example: "always @(posedge clk) r <= a;\nalways @(posedge clk) r <= b; // second driver",
    },
    LintExplanation {
        code: "L0201",
        summary: "Combinational assignments form a cycle: a signal depends on \
itself through other combinational logic with no register on the path. The \
netlist oscillates or settles unpredictably, and the simulator cannot \
levelize the design.",
        subclass: "Deadlock",
        example: "assign a = b | start;\nassign b = a & enable; // a -> b -> a, no register",
    },
    LintExplanation {
        code: "L0202",
        summary: "An assignment's right-hand side produces more significant \
bits than the destination can hold, so the top bits are silently dropped. \
Sums and products that overflow the target width corrupt data without any \
simulation-time warning.",
        subclass: "Bit Truncation",
        example: "reg [7:0] sum;\nalways @(posedge clk)\n  sum <= a + b; // a,b are [7:0]: carry bit lost",
    },
    LintExplanation {
        code: "L0301",
        summary: "A declared FSM state is never entered from any reachable \
state: no transition leads to it from the reset state. The logic in that arm \
is dead, which usually means a transition was forgotten or its guard can \
never hold.",
        subclass: "Incomplete Implementation",
        example: "localparam IDLE=0, RUN=1, DONE=2;\n// transitions: IDLE->RUN, RUN->IDLE; DONE is never entered",
    },
    LintExplanation {
        code: "L0302",
        summary: "An FSM state has no outgoing transition to any other state: \
once entered, the machine stays there until reset. Terminal hold states are \
sometimes intentional, so this code defaults to `allow` and must be opted \
into with `--deny` or `--warn`.",
        subclass: "Deadlock",
        example: "DONE: state <= DONE; // no way out except reset",
    },
    LintExplanation {
        code: "L0303",
        summary: "An FSM state register is compared against or assigned a \
value that matches no declared state constant. Typos in state encodings \
silently create transitions into limbo values that no arm handles.",
        subclass: "Erroneous Expression",
        example: "localparam IDLE=2'd0, RUN=2'd1;\nstate <= 2'd3; // not a declared state",
    },
    LintExplanation {
        code: "L0401",
        summary: "Every write to a register is unconditionally overwritten by \
a later write in the same process before any cycle boundary, so the first \
write can never be observed. The shadowed update is almost always a logic \
error.",
        subclass: "Failure-to-Update",
        example: "always @(posedge clk) begin\n  r <= a;\n  r <= b; // unconditionally shadows the first write\nend",
    },
    LintExplanation {
        code: "L0402",
        summary: "A register is written but its value is never read by any \
expression, output, or memory address in the design. The computation feeding \
it is dead — typically a consumer hookup that was never completed, leaving \
the producer and consumer clocking different signals.",
        subclass: "Signal Asynchrony",
        example: "reg [7:0] checksum;\nalways @(posedge clk) checksum <= checksum + in;\n// no expression ever reads checksum",
    },
    LintExplanation {
        code: "L0403",
        summary: "An input port is consumed only by `$display`/debug \
statements (or nothing at all): no datapath or control logic depends on it. \
The module advertises an interface it does not honour, so upstream producers \
are silently ignored.",
        subclass: "Incomplete Implementation",
        example: "input wire [7:0] cfg;\n// cfg appears only in: $display(\"cfg=%h\", cfg);",
    },
    LintExplanation {
        code: "L0404",
        summary: "A flag register can be set but never cleared outside reset: \
every non-reset write drives it to the same sticky value. Status and error \
flags that cannot be acknowledged wedge the surrounding handshake logic.",
        subclass: "Failure-to-Update",
        example: "always @(posedge clk)\n  if (rst) err <= 1'b0;\n  else if (bad) err <= 1'b1; // no path back to 0",
    },
    LintExplanation {
        code: "L0405",
        summary: "A restart/soft-clear path reinitialises only a subset of the \
registers that the full reset path initialises. State that survives the \
partial reinit leaks across runs and corrupts the next transaction.",
        subclass: "Failure-to-Update",
        example: "if (rst) begin cnt <= 0; acc <= 0; end\nelse if (restart) begin cnt <= 0; end // acc not reinitialised",
    },
    LintExplanation {
        code: "L0501",
        summary: "A memory is indexed by an expression whose range provably \
exceeds the memory depth, or by a counter that wraps past the last entry. \
Out-of-range writes corrupt unrelated rows; out-of-range reads return \
garbage that propagates silently.",
        subclass: "Buffer Overflow",
        example: "reg [7:0] mem [0:15];\nwire [4:0] idx; // 0..31 against 16 entries\nassign q = mem[idx];",
    },
    LintExplanation {
        code: "L0502",
        summary: "A value is width-cast *before* a right shift instead of \
after, so the high product bits are discarded and the shift then pulls in \
zeros: `16'(prod) >> 4` keeps bits [15:0] then shifts, where the intent \
`16'(prod >> 4)` keeps bits [19:4]. The result is off by a power of two for \
any operand large enough to use the upper bits.",
        subclass: "Bit Truncation",
        example: "wire [23:0] prod = a * b;\nassign y = 16'(prod) >> 4; // should be 16'(prod >> 4)",
    },
    LintExplanation {
        code: "L0601",
        summary: "A producer gates `valid` on the consumer's `ready` in the \
same cycle. AXI-Stream requires `valid` to be asserted independently of \
`ready`; coupling them can deadlock against a consumer that waits for \
`valid` before raising `ready`.",
        subclass: "Protocol Violation",
        example: "assign m_valid = have_data && m_ready; // valid must not wait for ready",
    },
    LintExplanation {
        code: "L0602",
        summary: "Two handshake signals each combinationally depend on the \
other (e.g. `ready` derived from `valid` which is derived from `ready`), so \
neither side can make the first move. The interface wedges with both sides \
waiting.",
        subclass: "Deadlock",
        example: "assign a_ready = b_valid;\nassign b_valid = a_ready; // mutual combinational wait",
    },
    LintExplanation {
        code: "L0603",
        summary: "A stream payload register (`tdata`, `tlast`, ...) advances \
on a path whose guard never checks the handshake: the data can change while \
`valid` is high and `ready` is low, violating the AXI-Stream stability rule \
and dropping beats under backpressure. Every latency-1 update of a payload \
must be qualified by `ready` (or by `!valid || ready`).",
        subclass: "Protocol Violation",
        example: "always @(posedge clk) begin\n  tvalid <= 1'b1;\n  tdata  <= next;  // advances even when tvalid && !tready\nend",
    },
    LintExplanation {
        code: "L0604",
        summary: "A backpressure output (`*_ready`, `*_stall`, `*_busy`) is \
tied to a constant that always admits traffic, while the corresponding \
stream is actually consumed by registered logic. The producer is told \
\"always ready\", so any real stall on the consumer side silently drops \
in-flight beats.",
        subclass: "Producer-Consumer Mismatch",
        example: "assign up_stall = 1'b0; // claims never-stalled\n// but up_valid/up_data feed registers that can back up",
    },
    LintExplanation {
        code: "L0605",
        summary: "A FIFO admission guard compares occupancy against a bound \
that exceeds the storage depth: for a 16-deep memory, `(wr - rd) > 16` still \
admits a write at occupancy 16, so the 17th element overwrites live data. \
The fill check must reject at `>= depth`.",
        subclass: "Buffer Overflow",
        example: "reg [7:0] mem [0:15];\nassign full = (wr_ptr - rd_ptr) > 5'd16; // admits 17th write",
    },
    LintExplanation {
        code: "L0606",
        summary: "A FIFO admission decision is made through a registered \
flag (or into a skid register), adding cycles of staleness between the \
occupancy snapshot and the write it admits — but the threshold leaves no \
margin for those in-flight beats. Under full-rate input the buffer overruns \
by exactly the unaccounted slots; the threshold must be lowered by the \
pipeline depth.",
        subclass: "Signal Asynchrony",
        example: "always @(posedge clk)\n  s_ready_r <= count < 5'd16; // 1-cycle-stale, plus a skid stage:\n// needs margin, e.g. count < 5'd14",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn every_registered_code_is_explained() {
        for pass in registry() {
            for code in pass.codes() {
                let e = explain(code.as_str());
                assert!(e.is_some(), "no explanation for {}", code.as_str());
            }
        }
    }

    #[test]
    fn explanations_are_well_formed_and_sorted() {
        let all = all_explanations();
        for pair in all.windows(2) {
            assert!(pair[0].code < pair[1].code, "table not in code order");
        }
        for e in all {
            assert!(e.code.starts_with('L') && e.code.len() == 5, "{}", e.code);
            assert!(!e.summary.is_empty() && !e.subclass.is_empty());
            assert!(!e.example.is_empty());
        }
    }

    #[test]
    fn unknown_code_is_none() {
        assert!(explain("L9999").is_none());
        assert!(explain("E0101").is_none());
        assert!(explain("l0101").is_none());
    }
}
