//! Per-bug workloads: the "push-button" testbenches that exhibit each
//! bug's symptom on the buggy design and pass on the fixed design.
//!
//! A workload plays the role of the host software, the DMA engine, or the
//! AXI master/consumer around the design under test — including the
//! "external monitor" (FPGA shell / protocol checker) that produces the
//! `Ext.` symptom in Table 2.
//!
//! Per-cycle stimulus loops resolve their signal names once through
//! [`Simulator::stimulus_plan`] and poke through interned IDs
//! ([`Simulator::poke_id_u64`]), keeping the drive side of each workload
//! on the simulator's zero-allocation hot path.

use crate::{BugId, Outcome, Symptom};
use hwdbg_sim::{SimError, Simulator};

/// Runs the workload for `id` against a simulator of the (buggy or fixed)
/// design and reports the outcome.
///
/// # Errors
///
/// Propagates simulator errors (the workload treats watchdog timeouts as
/// the `Stuck` symptom, not as errors).
pub fn run(id: BugId, sim: &mut Simulator) -> Result<Outcome, SimError> {
    match id {
        BugId::D1 => d1_rsd(sim),
        BugId::D2 => d2_grayscale(sim),
        BugId::D3 => d3_optimus(sim),
        BugId::D4 => d4_frame_fifo(sim),
        BugId::D5 => d5_sha512(sim),
        BugId::D6 => d6_fft(sim),
        BugId::D7 => d7_fadd(sim),
        BugId::D8 => d8_switch(sim),
        BugId::D9 => d9_sdspi(sim),
        BugId::D10 => d10_sha512(sim),
        BugId::D11 => d11_frame_fifo(sim),
        BugId::D12 => d12_frame_fifo(sim),
        BugId::D13 => d13_frame_len(sim),
        BugId::C1 => c1_sdspi(sim),
        BugId::C2 => c2_optimus(sim),
        BugId::C3 => c3_sdspi(sim),
        BugId::C4 => c4_axis_fifo(sim),
        BugId::S1 => s1_axil(sim),
        BugId::S2 => s2_axis_demo(sim),
        BugId::S3 => s3_adapter(sim),
    }
}

/// The ground-truth (passing) workload used for LossCheck's
/// false-positive filtering (§4.5.3), for the bugs that have one.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_ground_truth(id: BugId, sim: &mut Simulator) -> Result<Outcome, SimError> {
    match id {
        BugId::D1 => d1_ground_truth(sim),
        BugId::D2 => d2_ground_truth(sim),
        BugId::D3 => d3_ground_truth(sim),
        BugId::D4 => d4_ground_truth(sim),
        BugId::D11 => d11_ground_truth(sim),
        BugId::C2 => c2_ground_truth(sim),
        BugId::C4 => c4_ground_truth(sim),
        other => run(other, sim),
    }
}

fn fail(symptom: Symptom, detail: impl Into<String>) -> Outcome {
    Outcome::Fail {
        symptom,
        detail: detail.into(),
    }
}

fn reset(sim: &mut Simulator) -> Result<(), SimError> {
    if sim.design().sig_id("rst").is_some() {
        sim.poke_u64("rst", 1)?;
        sim.step("clk")?;
        sim.step("clk")?;
        sim.poke_u64("rst", 0)?;
    }
    Ok(())
}

// ---- D1: RSD buffer overflow -------------------------------------------

fn d1_send_block(sim: &mut Simulator, symbols: &[u64], corrupt_at: &[usize]) -> Result<(), SimError> {
    let plan = sim.stimulus_plan(&["din", "din_valid"])?;
    let (din, din_valid) = (plan.id(0), plan.id(1));
    for (i, &s) in symbols.iter().enumerate() {
        let corrupt = if corrupt_at.contains(&i) { 1 << 8 } else { 0 };
        sim.poke_id_u64(din, s | corrupt);
        sim.poke_id_u64(din_valid, 1);
        sim.step("clk")?;
    }
    sim.poke_id_u64(din_valid, 0);
    sim.step("clk")?; // flush the hold stage
    sim.step("clk")?;
    Ok(())
}

fn d1_read(sim: &mut Simulator, n: usize) -> Result<Vec<u64>, SimError> {
    let mut out = Vec::new();
    sim.poke_u64("rd_en", 1)?;
    for _ in 0..n {
        sim.step("clk")?;
        if sim.peek("dout_valid")?.to_bool() {
            out.push(sim.peek("dout")?.to_u64());
        }
    }
    sim.poke_u64("rd_en", 0)?;
    Ok(out)
}

fn d1_rsd(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    let symbols: Vec<u64> = (1..=12).collect();
    // One corrupt symbol mid-stream (intentionally discarded by the design).
    let mut stream = symbols.clone();
    stream.insert(4, 0xEE);
    d1_send_block(sim, &stream, &[4])?;
    if !sim.peek("block_done")?.to_bool() {
        return Ok(fail(Symptom::Stuck, "block never completed"));
    }
    let got = d1_read(sim, 12)?;
    if got != symbols {
        return Ok(fail(
            Symptom::DataLoss,
            format!("block readback mismatch: {got:?}"),
        ));
    }
    Ok(Outcome::Pass)
}

fn d1_ground_truth(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    // A partial block of 10 clean symbols: passes even on the buggy design.
    let symbols: Vec<u64> = (20..30).collect();
    d1_send_block(sim, &symbols, &[])?;
    let got = d1_read(sim, 10)?;
    if got != symbols {
        return Ok(fail(Symptom::DataLoss, format!("partial block mismatch: {got:?}")));
    }
    Ok(Outcome::Pass)
}

// ---- D2: Grayscale buffer overflow --------------------------------------

fn gray_of(pix: u64) -> u64 {
    let r = (pix >> 16) & 0xFF;
    let g = (pix >> 8) & 0xFF;
    let b = pix & 0xFF;
    ((r >> 2) + (g >> 1) + (b >> 2)) & 0xFF
}

fn d2_run(sim: &mut Simulator, n: usize, require_done: bool) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("start", 1)?;
    sim.step("clk")?;
    sim.poke_u64("start", 0)?;
    let pixels: Vec<u64> = (0..n as u64).map(|i| (i << 16) | ((i * 3) << 8) | ((i * 7) % 256)).collect();
    let plan = sim.stimulus_plan(&["pix_in", "pix_in_valid", "host_rd"])?;
    let (pix_in, pix_in_valid, host_rd) = (plan.id(0), plan.id(1), plan.id(2));
    let mut got = Vec::new();
    for &p in &pixels {
        sim.poke_id_u64(pix_in, p);
        sim.poke_id_u64(pix_in_valid, 1);
        sim.step("clk")?;
        sim.poke_id_u64(pix_in_valid, 0);
        sim.poke_id_u64(host_rd, 1);
        sim.step("clk")?;
        sim.poke_id_u64(host_rd, 0);
        if sim.peek("pix_out_valid")?.to_bool() {
            got.push(sim.peek("pix_out")?.to_u64());
        }
        sim.step("clk")?;
        if sim.peek("pix_out_valid")?.to_bool() {
            got.push(sim.peek("pix_out")?.to_u64());
        }
    }
    // Drain the remainder.
    for _ in 0..4 * n {
        if got.len() >= n {
            break;
        }
        sim.poke_id_u64(host_rd, 1);
        sim.step("clk")?;
        sim.poke_id_u64(host_rd, 0);
        if sim.peek("pix_out_valid")?.to_bool() {
            got.push(sim.peek("pix_out")?.to_u64());
        }
        sim.step("clk")?;
        if sim.peek("pix_out_valid")?.to_bool() {
            got.push(sim.peek("pix_out")?.to_u64());
        }
    }
    let expected: Vec<u64> = pixels.iter().map(|&p| gray_of(p)).collect();
    if got.len() < n {
        let rd = sim.peek("rd_state_dbg")?.to_u64();
        let wr = sim.peek("wr_state_dbg")?.to_u64();
        return Ok(fail(
            Symptom::Stuck,
            format!(
                "accelerator hung: {} of {} pixels returned (read FSM state {rd}, write FSM state {wr})",
                got.len(),
                n
            ),
        ));
    }
    if require_done && !sim.peek("done")?.to_bool() {
        return Ok(fail(Symptom::Stuck, "done never asserted"));
    }
    if got != expected {
        return Ok(fail(Symptom::IncorrectOutput, format!("gray mismatch: {got:?}")));
    }
    Ok(Outcome::Pass)
}

fn d2_grayscale(sim: &mut Simulator) -> Result<Outcome, SimError> {
    d2_run(sim, 24, true)
}

fn d2_ground_truth(sim: &mut Simulator) -> Result<Outcome, SimError> {
    // 11 pixels stay below the 12-entry line buffer: passes on the buggy
    // design and exercises the intentional `out_hold` prefetch overwrites.
    d2_run(sim, 11, false)
}

// ---- D3: Optimus mailbox overflow ---------------------------------------

fn d3_optimus(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    let plan = sim.stimulus_plan(&["vm_id", "offset", "wdata", "wr_valid", "rd_valid"])?;
    let (vm_id, offset, wdata) = (plan.id(0), plan.id(1), plan.id(2));
    let (wr_valid, rd_valid) = (plan.id(3), plan.id(4));
    let mut expected = Vec::new();
    for vm in 0..2u64 {
        for off in 0..6u64 {
            let val = 0x100 * (vm + 1) + off;
            sim.poke_id_u64(vm_id, vm);
            sim.poke_id_u64(offset, off);
            sim.poke_id_u64(wdata, val);
            sim.poke_id_u64(wr_valid, 1);
            sim.step("clk")?;
            sim.poke_id_u64(wr_valid, 0);
            expected.push(val);
        }
    }
    let mut got = Vec::new();
    for vm in 0..2u64 {
        for off in 0..6u64 {
            sim.poke_id_u64(vm_id, vm);
            sim.poke_id_u64(offset, off);
            sim.poke_id_u64(rd_valid, 1);
            sim.step("clk")?;
            sim.poke_id_u64(rd_valid, 0);
            if sim.peek("rdata_valid")?.to_bool() {
                got.push(sim.peek("rdata")?.to_u64());
            } else {
                return Ok(fail(Symptom::ExternalError, "shell: MMIO read timed out"));
            }
        }
    }
    if got != expected {
        return Ok(fail(
            Symptom::DataLoss,
            format!("vm mailboxes corrupted: got {got:x?}"),
        ));
    }
    Ok(Outcome::Pass)
}

fn d3_ground_truth(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    // VM0 only; includes a legitimate slot update (write twice, read once),
    // which is an *intentional* overwrite at `mbox`.
    sim.poke_u64("vm_id", 0)?;
    for (off, val) in [(0u64, 0xA0u64), (0, 0xA1), (1, 0xB0)] {
        sim.poke_u64("offset", off)?;
        sim.poke_u64("wdata", val)?;
        sim.poke_u64("wr_valid", 1)?;
        sim.step("clk")?;
        sim.poke_u64("wr_valid", 0)?;
    }
    for (off, want) in [(0u64, 0xA1u64), (1, 0xB0)] {
        sim.poke_u64("offset", off)?;
        sim.poke_u64("rd_valid", 1)?;
        sim.step("clk")?;
        sim.poke_u64("rd_valid", 0)?;
        if sim.peek("rdata")?.to_u64() != want {
            return Ok(fail(Symptom::IncorrectOutput, "vm0 slot readback wrong"));
        }
    }
    Ok(Outcome::Pass)
}

// ---- D4: frame FIFO off-by-one full check --------------------------------

fn d4_frame_fifo(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("m_ready", 0)?;
    let plan = sim.stimulus_plan(&["s_data", "s_valid"])?;
    let (s_data, s_valid) = (plan.id(0), plan.id(1));
    let mut accepted = Vec::new();
    for w in 1..=17u64 {
        sim.poke_id_u64(s_data, w);
        sim.poke_id_u64(s_valid, 1);
        sim.settle()?;
        let full = sim.peek("full")?.to_bool();
        sim.step("clk")?;
        if !full {
            accepted.push(w);
        }
    }
    sim.poke_id_u64(s_valid, 0);
    sim.poke_u64("m_ready", 1)?;
    let mut got = Vec::new();
    for _ in 0..40 {
        sim.settle()?;
        if sim.peek("m_valid")?.to_bool() {
            got.push(sim.peek("m_data")?.to_u64());
        }
        sim.step("clk")?;
        if got.len() >= accepted.len() {
            break;
        }
    }
    if got != accepted {
        return Ok(fail(
            Symptom::DataLoss,
            format!("accepted {accepted:?} but drained {got:?}"),
        ));
    }
    Ok(Outcome::Pass)
}

fn d4_ground_truth(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    // Light load: 8 words in, 8 out — passes on the buggy design.
    sim.poke_u64("m_ready", 0)?;
    for w in 1..=8u64 {
        sim.poke_u64("s_data", w)?;
        sim.poke_u64("s_valid", 1)?;
        sim.step("clk")?;
    }
    sim.poke_u64("s_valid", 0)?;
    sim.poke_u64("m_ready", 1)?;
    let mut got = Vec::new();
    for _ in 0..20 {
        sim.settle()?;
        if sim.peek("m_valid")?.to_bool() {
            got.push(sim.peek("m_data")?.to_u64());
        }
        sim.step("clk")?;
    }
    if got != (1..=8).collect::<Vec<_>>() {
        return Ok(fail(Symptom::DataLoss, format!("drained {got:?}")));
    }
    Ok(Outcome::Pass)
}

// ---- D5/D10: SHA512 -----------------------------------------------------

/// Reference model of the fixed SHA-512-style round function.
fn sha_model(words: &[u64], rounds: usize) -> u64 {
    let mut a = 0x6a09e667f3bcc908u64;
    let mut b = 0xbb67ae8584caa73bu64;
    for (i, &w) in words.iter().enumerate().take(rounds) {
        let old_a = a;
        let old_b = b;
        a = old_a.wrapping_add(w ^ old_b);
        b = old_b ^ (old_a >> 7);
        if i == rounds - 1 {
            // digest computed from pre-edge values on the final round
            return old_a.wrapping_add(w ^ old_b) ^ (old_b ^ (old_a >> 7));
        }
    }
    a ^ b
}

fn d5_sha512(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    let words: Vec<u64> = (0..16).map(|i| 0x0123_4567_89AB_CDEFu64.rotate_left(i * 3)).collect();
    for &w in &words {
        sim.poke("w", hwdbg_bits::Bits::from_u64(64, w))?;
        sim.poke_u64("w_valid", 1)?;
        sim.step("clk")?;
    }
    sim.poke_u64("w_valid", 0)?;
    sim.step("clk")?;
    if !sim.peek("done")?.to_bool() {
        return Ok(fail(Symptom::Stuck, "digest never completed"));
    }
    let got = sim.peek("digest")?.to_u64();
    let expect = sha_model(&words, 16);
    if got != expect {
        return Ok(fail(
            Symptom::IncorrectOutput,
            format!("digest {got:016x} != {expect:016x}"),
        ));
    }
    Ok(Outcome::Pass)
}

fn d10_sha512(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    for msg in 0..2u64 {
        sim.poke_u64("start", 1)?;
        sim.step("clk")?;
        sim.poke_u64("start", 0)?;
        let words: Vec<u64> = (0..8).map(|i| ((msg + 1) * 0x1111_2222_3333_4444u64) ^ i).collect();
        for &w in &words {
            sim.poke("w", hwdbg_bits::Bits::from_u64(64, w))?;
            sim.poke_u64("w_valid", 1)?;
            sim.step("clk")?;
        }
        sim.poke_u64("w_valid", 0)?;
        sim.step("clk")?;
        let got = sim.peek("digest")?.to_u64();
        let mut a = 0x6a09e667f3bcc908u64;
        let mut b = 0xbb67ae8584caa73bu64;
        let mut expect = 0;
        for &w in &words {
            let (oa, ob) = (a, b);
            a = oa.wrapping_add(w ^ ob);
            b = ob ^ (oa >> 7);
            expect = a ^ b; // digest mixes the post-round values
        }
        if got != expect {
            return Ok(fail(
                Symptom::IncorrectOutput,
                format!("message {msg} digest {got:016x} != {expect:016x}"),
            ));
        }
    }
    Ok(Outcome::Pass)
}

// ---- D6: FFT truncation --------------------------------------------------

fn d6_fft(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    let vectors = [(0x0100u64, 0x1234u64, 0x56u64), (0x0040, 0x2000, 0x33), (0x7fff, 0x0fff, 0x11)];
    for (ar, br, tw) in vectors {
        sim.poke_u64("ar", ar)?;
        sim.poke_u64("br", br)?;
        sim.poke_u64("twiddle", tw)?;
        sim.poke_u64("in_valid", 1)?;
        sim.step("clk")?;
        sim.poke_u64("in_valid", 0)?;
        sim.step("clk")?;
        if !sim.peek("out_valid")?.to_bool() {
            return Ok(fail(Symptom::Stuck, "butterfly produced no output"));
        }
        let got = sim.peek("yr")?.to_u64();
        let prod = br * tw;
        let expect = (ar + ((prod >> 4) & 0xFFFF)) & 0xFFFF;
        if got != expect {
            return Ok(fail(
                Symptom::IncorrectOutput,
                format!("yr {got:04x} != {expect:04x} for prod {prod:06x}"),
            ));
        }
        sim.step("clk")?;
    }
    Ok(Outcome::Pass)
}

// ---- D7: FADD misindexing -------------------------------------------------

fn d7_fadd(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    let vectors: [(f32, f32); 4] = [(1.5, 2.25), (3.0, 3.0), (4.5, 0.5), (10.0, 6.0)];
    for (a, b) in vectors {
        sim.poke_u64("a", f32::to_bits(a) as u64)?;
        sim.poke_u64("b", f32::to_bits(b) as u64)?;
        sim.poke_u64("in_valid", 1)?;
        sim.step("clk")?;
        sim.poke_u64("in_valid", 0)?;
        sim.step("clk")?;
        if !sim.peek("out_valid")?.to_bool() {
            return Ok(fail(Symptom::Stuck, "adder produced no output"));
        }
        let got = f32::from_bits(sim.peek("sum")?.to_u64() as u32);
        if got != a + b {
            return Ok(fail(
                Symptom::IncorrectOutput,
                format!("{a} + {b} = {got}, expected {}", a + b),
            ));
        }
        sim.step("clk")?;
    }
    Ok(Outcome::Pass)
}

// ---- D8: stream switch misindexing ---------------------------------------

fn d8_switch(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    // (header, expected port): bit 7 selects, bit 5 set as a decoy.
    let frames = [(0x80u64, 1u64), (0x20, 0), (0xA0, 1), (0x00, 0)];
    for (hdr, port) in frames {
        let words = [hdr, 0x11, 0x12];
        for (i, &w) in words.iter().enumerate() {
            sim.poke_u64("s_data", w)?;
            sim.poke_u64("s_valid", 1)?;
            sim.poke_u64("s_last", (i == words.len() - 1) as u64)?;
            sim.step("clk")?;
            let m0 = sim.peek("m0_valid")?.to_bool();
            let m1 = sim.peek("m1_valid")?.to_bool();
            let went = if m1 { 1 } else if m0 { 0 } else { 2 };
            if went != port {
                return Ok(fail(
                    Symptom::IncorrectOutput,
                    format!("frame with header {hdr:02x} routed to port {went}, expected {port}"),
                ));
            }
        }
        sim.poke_u64("s_valid", 0)?;
        sim.poke_u64("s_last", 0)?;
        sim.step("clk")?;
    }
    Ok(Outcome::Pass)
}

// ---- D9: SDSPI endianness --------------------------------------------------

fn d9_sdspi(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    let resp: u64 = 0xA55A;
    sim.poke_u64("go", 1)?;
    sim.step("clk")?;
    sim.poke_u64("go", 0)?;
    for bit in (0..16).rev() {
        sim.poke_u64("miso", (resp >> bit) & 1)?;
        sim.step("clk")?;
    }
    sim.step("clk")?; // DONE state
    if !sim.peek("resp_valid")?.to_bool() {
        return Ok(fail(Symptom::Stuck, "no response"));
    }
    let got = sim.peek("resp")?.to_u64();
    if got != resp {
        return Ok(fail(
            Symptom::IncorrectOutput,
            format!("response {got:04x} != {resp:04x}"),
        ));
    }
    Ok(Outcome::Pass)
}

// ---- D11/D12: frame FIFO failure-to-update --------------------------------

fn d11_push_frame(sim: &mut Simulator, base: u64, len: usize) -> Result<(), SimError> {
    let plan = sim.stimulus_plan(&["s_data", "s_valid", "s_last"])?;
    let (s_data, s_valid, s_last) = (plan.id(0), plan.id(1), plan.id(2));
    for i in 0..len {
        sim.poke_id_u64(s_data, base + i as u64);
        sim.poke_id_u64(s_valid, 1);
        sim.poke_id_u64(s_last, (i == len - 1) as u64);
        sim.step("clk")?;
    }
    sim.poke_id_u64(s_valid, 0);
    sim.poke_id_u64(s_last, 0);
    sim.step("clk")?; // flush in_reg
    Ok(())
}

fn d11_drain(sim: &mut Simulator, max: usize) -> Result<Vec<u64>, SimError> {
    let mut got = Vec::new();
    sim.poke_u64("m_ready", 1)?;
    for _ in 0..max {
        sim.settle()?;
        if sim.peek("m_valid")?.to_bool() {
            got.push(sim.peek("m_data")?.to_u64());
        }
        sim.step("clk")?;
    }
    sim.poke_u64("m_ready", 0)?;
    Ok(got)
}

fn d11_frame_fifo(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("m_ready", 0)?;
    // Five 4-word frames: the fifth overflows mid-frame and is dropped
    // (intentional), leaving `drop` latched in the buggy design.
    for f in 0..5u64 {
        d11_push_frame(sim, 0x10 * (f + 1), 4)?;
    }
    let first = d11_drain(sim, 24)?;
    if first.len() != 16 {
        return Ok(fail(
            Symptom::DataLoss,
            format!("expected 16 committed words, drained {}", first.len()),
        ));
    }
    // FIFO now empty: two more frames must pass through.
    d11_push_frame(sim, 0xA0, 4)?;
    d11_push_frame(sim, 0xB0, 4)?;
    let second = d11_drain(sim, 24)?;
    let expect: Vec<u64> = (0..4).map(|i| 0xA0 + i).chain((0..4).map(|i| 0xB0 + i)).collect();
    if second != expect {
        return Ok(fail(
            Symptom::DataLoss,
            format!("post-drop frames lost: drained {second:x?}"),
        ));
    }
    Ok(Outcome::Pass)
}

fn d11_ground_truth(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("m_ready", 0)?;
    // Overfill to exercise the legitimate drop-on-full path, then stop.
    for f in 0..5u64 {
        d11_push_frame(sim, 0x10 * (f + 1), 4)?;
    }
    let got = d11_drain(sim, 24)?;
    if got.len() != 16 {
        return Ok(fail(Symptom::DataLoss, "committed frames corrupted"));
    }
    Ok(Outcome::Pass)
}

fn d12_frame_fifo(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("m_ready", 1)?;
    let plan = sim.stimulus_plan(&["s_data", "s_valid", "s_last"])?;
    let (s_data, s_valid, s_last) = (plan.id(0), plan.id(1), plan.id(2));
    let mut got = Vec::new();
    for f in 0..2u64 {
        for i in 0..4u64 {
            sim.poke_id_u64(s_data, 0x10 * (f + 1) + i);
            sim.poke_id_u64(s_valid, 1);
            sim.poke_id_u64(s_last, (i == 3) as u64);
            sim.step("clk")?;
            if sim.peek("m_valid")?.to_bool() {
                got.push((sim.peek("m_data")?.to_u64(), sim.peek("m_last")?.to_bool()));
            }
        }
    }
    sim.poke_id_u64(s_valid, 0);
    sim.poke_id_u64(s_last, 0);
    for _ in 0..12 {
        sim.step("clk")?;
        if sim.peek("m_valid")?.to_bool() {
            got.push((sim.peek("m_data")?.to_u64(), sim.peek("m_last")?.to_bool()));
        }
    }
    let lasts: Vec<bool> = got.iter().map(|(_, l)| *l).collect();
    let expect: Vec<bool> = (0..got.len()).map(|i| i % 4 == 3).collect();
    if lasts != expect {
        return Ok(fail(
            Symptom::IncorrectOutput,
            format!("frame boundaries wrong: {lasts:?}"),
        ));
    }
    Ok(Outcome::Pass)
}

// ---- D13: frame length ------------------------------------------------------

fn d13_frame_len(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    let plan = sim.stimulus_plan(&["s_data", "s_valid", "s_sop", "s_eop"])?;
    let (s_data, s_valid) = (plan.id(0), plan.id(1));
    let (s_sop, s_eop) = (plan.id(2), plan.id(3));
    let mut got = Vec::new();
    for len in [3u64, 2, 5] {
        for i in 0..len {
            sim.poke_id_u64(s_data, i);
            sim.poke_id_u64(s_valid, 1);
            sim.poke_id_u64(s_sop, (i == 0) as u64);
            sim.poke_id_u64(s_eop, (i == len - 1) as u64);
            sim.step("clk")?;
            if sim.peek("len_valid")?.to_bool() {
                got.push(sim.peek("len")?.to_u64());
            }
        }
        sim.poke_id_u64(s_valid, 0);
        sim.poke_id_u64(s_sop, 0);
        sim.poke_id_u64(s_eop, 0);
        sim.step("clk")?;
        if sim.peek("len_valid")?.to_bool() {
            got.push(sim.peek("len")?.to_u64());
        }
    }
    if got != vec![3, 2, 5] {
        return Ok(fail(
            Symptom::IncorrectOutput,
            format!("frame lengths {got:?}, expected [3, 2, 5]"),
        ));
    }
    Ok(Outcome::Pass)
}

// ---- C1: SDSPI deadlock ------------------------------------------------------

fn c1_sdspi(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("go", 1)?;
    sim.step("clk")?;
    sim.poke_u64("go", 0)?;
    match sim.run_until("clk", 100, |s| {
        s.peek("done").is_ok_and(|v| v.to_bool())
    }) {
        Ok(_) => Ok(Outcome::Pass),
        Err(SimError::Watchdog { cycles }) => {
            let st = sim.peek("state_dbg")?.to_u64();
            Ok(fail(
                Symptom::Stuck,
                format!("transfer never completed after {cycles} cycles (FSM state {st})"),
            ))
        }
        Err(e) => Err(e),
    }
}

// ---- C2: Optimus producer-consumer ------------------------------------------

fn c2_optimus(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("resp_ready", 1)?;
    let plan = sim.stimulus_plan(&["vm0_valid", "vm0_resp", "vm1_valid", "vm1_resp"])?;
    let (vm0_valid, vm0_resp) = (plan.id(0), plan.id(1));
    let (vm1_valid, vm1_resp) = (plan.id(2), plan.id(3));
    let vm1_at = [5u64, 15];
    for cycle in 0..30u64 {
        sim.settle()?;
        let stall = sim.peek("vm0_stall")?.to_bool();
        sim.poke_id_u64(vm0_valid, (!stall) as u64);
        sim.poke_id_u64(vm0_resp, 0x100 + cycle);
        let vm1 = vm1_at.contains(&cycle);
        sim.poke_id_u64(vm1_valid, vm1 as u64);
        if vm1 {
            sim.poke_id_u64(vm1_resp, 0xAA00 + cycle);
        }
        sim.step("clk")?;
    }
    sim.poke_id_u64(vm0_valid, 0);
    sim.poke_id_u64(vm1_valid, 0);
    for _ in 0..6 {
        sim.step("clk")?;
    }
    let vm1_sent = sim.peek("vm1_sent")?.to_u64();
    if vm1_sent != vm1_at.len() as u64 {
        return Ok(fail(
            Symptom::DataLoss,
            format!(
                "guest 1 received {vm1_sent} of {} responses (vm0_sent={})",
                vm1_at.len(),
                sim.peek("vm0_sent")?.to_u64()
            ),
        ));
    }
    Ok(Outcome::Pass)
}

fn c2_ground_truth(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("resp_ready", 1)?;
    // VM0-only light traffic: passes on the buggy design.
    for cycle in 0..10u64 {
        sim.poke_u64("vm0_valid", (cycle % 2 == 0) as u64)?;
        sim.poke_u64("vm0_resp", 0x100 + cycle)?;
        sim.step("clk")?;
    }
    sim.poke_u64("vm0_valid", 0)?;
    for _ in 0..4 {
        sim.step("clk")?;
    }
    if sim.peek("vm0_sent")?.to_u64() != 5 {
        return Ok(fail(Symptom::DataLoss, "vm0 responses lost"));
    }
    Ok(Outcome::Pass)
}

// ---- C3: SDSPI asynchrony -----------------------------------------------------

fn c3_sdspi(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    for data in [5u64, 9] {
        sim.poke_u64("input_data", data)?;
        sim.poke_u64("request", 1)?;
        sim.step("clk")?;
        sim.poke_u64("request", 0)?;
        // Sample the response at the first cycle valid is seen.
        let mut sampled = None;
        for _ in 0..6 {
            if sim.peek("final_response_valid")?.to_bool() {
                sampled = Some(sim.peek("final_response")?.to_u64());
                break;
            }
            sim.step("clk")?;
        }
        let Some(got) = sampled else {
            return Ok(fail(Symptom::Stuck, "response valid never asserted"));
        };
        if got != data + 1 {
            return Ok(fail(
                Symptom::IncorrectOutput,
                format!("sampled response {got} for request {data}, expected {}", data + 1),
            ));
        }
        for _ in 0..3 {
            sim.step("clk")?;
        }
    }
    Ok(Outcome::Pass)
}

// ---- C4: AXI-Stream FIFO skid overwrite ----------------------------------------

fn c4_run(sim: &mut Simulator, pushes: usize) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("m_ready", 0)?;
    sim.step("clk")?; // let s_ready_r rise
    let plan = sim.stimulus_plan(&["s_data", "s_valid"])?;
    let (s_data, s_valid) = (plan.id(0), plan.id(1));
    let mut accepted = Vec::new();
    let mut w = 1u64;
    for _ in 0..pushes {
        sim.settle()?;
        if sim.peek("s_ready")?.to_bool() {
            sim.poke_id_u64(s_data, w);
            sim.poke_id_u64(s_valid, 1);
            accepted.push(w);
            w += 1;
        } else {
            sim.poke_id_u64(s_valid, 0);
        }
        sim.step("clk")?;
    }
    sim.poke_id_u64(s_valid, 0);
    sim.step("clk")?;
    sim.step("clk")?;
    sim.poke_u64("m_ready", 1)?;
    let mut got = Vec::new();
    for _ in 0..pushes + 8 {
        sim.step("clk")?;
        if sim.peek("m_valid")?.to_bool() {
            got.push(sim.peek("m_data")?.to_u64());
        }
    }
    if got != accepted {
        return Ok(fail(
            Symptom::DataLoss,
            format!("accepted {} words, delivered {} ({got:x?})", accepted.len(), got.len()),
        ));
    }
    Ok(Outcome::Pass)
}

fn c4_axis_fifo(sim: &mut Simulator) -> Result<Outcome, SimError> {
    c4_run(sim, 24)
}

fn c4_ground_truth(sim: &mut Simulator) -> Result<Outcome, SimError> {
    // Light load (never fills the RAM): passes on the buggy design.
    c4_run(sim, 8)
}

// ---- S1: AXI-Lite protocol violation --------------------------------------------

fn s1_axil(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    // A legal master: presents AW and W, raises BREADY only after BVALID.
    sim.poke_u64("awvalid", 1)?;
    sim.poke_u64("awaddr", 3)?;
    sim.poke_u64("wvalid", 1)?;
    sim.poke_u64("wdata", 0xCAFE_F00D)?;
    sim.poke_u64("bready", 0)?;
    let mut stalled = 0;
    for _ in 0..20 {
        sim.settle()?;
        if sim.peek("bvalid")?.to_bool() {
            sim.poke_u64("bready", 1)?;
            sim.step("clk")?;
            break;
        }
        stalled += 1;
        sim.step("clk")?;
    }
    if stalled >= 20 {
        return Ok(fail(
            Symptom::ExternalError,
            "protocol monitor: BVALID depends on BREADY (write channel stalled)",
        ));
    }
    sim.poke_u64("awvalid", 0)?;
    sim.poke_u64("wvalid", 0)?;
    sim.poke_u64("bready", 0)?;
    sim.step("clk")?;
    // Read back.
    sim.poke_u64("arvalid", 1)?;
    sim.poke_u64("araddr", 3)?;
    sim.step("clk")?;
    sim.poke_u64("arvalid", 0)?;
    if !sim.peek("rvalid")?.to_bool() {
        return Ok(fail(Symptom::Stuck, "read never completed"));
    }
    if sim.peek("rdata")?.to_u64() != 0xCAFE_F00D {
        return Ok(fail(Symptom::IncorrectOutput, "readback mismatch"));
    }
    Ok(Outcome::Pass)
}

// ---- S2: AXI-Stream protocol violation -------------------------------------------

fn s2_axis_demo(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    sim.poke_u64("start", 1)?;
    sim.poke_u64("tready", 1)?;
    sim.step("clk")?;
    sim.poke_u64("start", 0)?;
    let tready = sim.stimulus_plan(&["tready"])?.id(0);
    let mut got = Vec::new();
    let mut violation = None;
    let mut prev_stalled: Option<u64> = None;
    for cycle in 0..40u64 {
        // Backpressure during cycles 3..=5.
        let ready = !(3..=5).contains(&cycle);
        sim.poke_id_u64(tready, ready as u64);
        sim.settle()?;
        let tvalid = sim.peek("tvalid")?.to_bool();
        let tdata = sim.peek("tdata")?.to_u64();
        if tvalid && ready {
            got.push(tdata);
        }
        // Protocol monitor: while TVALID && !TREADY, TDATA must hold.
        if let Some(stalled_data) = prev_stalled {
            if tvalid && stalled_data != tdata {
                violation = Some(format!(
                    "protocol monitor: TDATA changed {stalled_data}->{tdata} during backpressure"
                ));
            }
            if !tvalid {
                violation =
                    Some("protocol monitor: TVALID dropped without handshake".to_owned());
            }
        }
        prev_stalled = (tvalid && !ready).then_some(tdata);
        sim.step("clk")?;
        if got.len() >= 8 {
            break;
        }
    }
    if let Some(v) = violation {
        return Ok(fail(Symptom::ExternalError, v));
    }
    let expect: Vec<u64> = (1..=8).collect();
    if got != expect {
        return Ok(fail(Symptom::DataLoss, format!("received {got:?}")));
    }
    Ok(Outcome::Pass)
}

// ---- S3: width adapter incomplete implementation ----------------------------------

fn s3_adapter(sim: &mut Simulator) -> Result<Outcome, SimError> {
    reset(sim)?;
    // Frame of 3 bytes: 0x11 0x22 0x33 → beats (0x2211, keep 11),
    // (0x0033, keep 01, last).
    let beats = [(0x2211u64, 0b11u64, 0u64), (0x0033, 0b01, 1)];
    let mut got = Vec::new();
    for (data, keep, last) in beats {
        sim.poke_u64("s_data", data)?;
        sim.poke_u64("s_keep", keep)?;
        sim.poke_u64("s_last", last)?;
        sim.poke_u64("s_valid", 1)?;
        sim.step("clk")?;
        if sim.peek("m_valid")?.to_bool() {
            got.push((sim.peek("m_data")?.to_u64(), sim.peek("m_last")?.to_bool()));
        }
        sim.poke_u64("s_valid", 0)?;
        sim.step("clk")?;
        if sim.peek("m_valid")?.to_bool() {
            got.push((sim.peek("m_data")?.to_u64(), sim.peek("m_last")?.to_bool()));
        }
    }
    for _ in 0..4 {
        sim.step("clk")?;
        if sim.peek("m_valid")?.to_bool() {
            got.push((sim.peek("m_data")?.to_u64(), sim.peek("m_last")?.to_bool()));
        }
    }
    let expect = vec![(0x11u64, false), (0x22, false), (0x33, true)];
    if got != expect {
        return Ok(fail(
            Symptom::IncorrectOutput,
            format!("odd-length frame mangled: {got:x?}"),
        ));
    }
    Ok(Outcome::Pass)
}
