//! Behavioral models of the Intel-style FIFO IPs: `scfifo` (single clock)
//! and `dcfifo` (dual clock).

use crate::{bit, word};
use hwdbg_bits::Bits;
use hwdbg_dataflow::clog2;
use hwdbg_sim::Blackbox;
use std::collections::{BTreeMap, VecDeque};

ip_ports! {
    /// `scfifo`'s ports.
    ScfifoPort {
        Clock = "clock" Input Const(1), clock;
        Data = "data" Input Param("WIDTH".into());
        Wrreq = "wrreq" Input Const(1);
        Rdreq = "rdreq" Input Const(1);
        Sclr = "sclr" Input Const(1);
        Aclr = "aclr" Input Const(1);
        Q = "q" Output Param("WIDTH".into());
        Empty = "empty" Output Const(1);
        Full = "full" Output Const(1);
        Usedw = "usedw" Output Clog2Param("DEPTH".into());
    }
}

ip_ports! {
    /// `dcfifo`'s ports.
    DcfifoPort {
        Wrclk = "wrclk" Input Const(1), clock;
        Rdclk = "rdclk" Input Const(1), clock;
        Data = "data" Input Param("WIDTH".into());
        Wrreq = "wrreq" Input Const(1);
        Rdreq = "rdreq" Input Const(1);
        Q = "q" Output Param("WIDTH".into());
        Rdempty = "rdempty" Output Const(1);
        Wrfull = "wrfull" Output Const(1);
        Wrusedw = "wrusedw" Output Clog2Param("DEPTH".into());
    }
}

/// Single-clock FIFO (`scfifo`).
///
/// Show-ahead mode (`SHOWAHEAD = 1`, the testbed default): `q` presents the
/// head element while `rdreq` acts as an acknowledge. Normal mode
/// (`SHOWAHEAD = 0`): `rdreq` pops into a registered `q` one cycle later.
#[derive(Debug, Clone)]
pub struct Scfifo {
    width: u32,
    depth: u64,
    showahead: bool,
    queue: VecDeque<Bits>,
    q_reg: Bits,
}

impl Scfifo {
    /// Creates the model from instance parameters `WIDTH`, `DEPTH`,
    /// `SHOWAHEAD` (default 1).
    pub fn new(params: &BTreeMap<String, Bits>) -> Self {
        let width = params.get("WIDTH").map_or(8, |b| b.to_u64() as u32).max(1);
        let depth = params.get("DEPTH").map_or(16, |b| b.to_u64()).max(1);
        let showahead = params.get("SHOWAHEAD").is_none_or(Bits::to_bool);
        Scfifo {
            width,
            depth,
            showahead,
            queue: VecDeque::new(),
            q_reg: Bits::zero(width),
        }
    }

    /// Current occupancy (for assertions in tests).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl Blackbox for Scfifo {
    fn ports(&self) -> &'static [&'static str] {
        ScfifoPort::NAMES
    }

    fn eval_port(&self, port: usize, out: &mut Bits) -> bool {
        match ScfifoPort::at(port) {
            Some(ScfifoPort::Empty) => out.set_bool(self.queue.is_empty()),
            Some(ScfifoPort::Full) => out.set_bool(self.queue.len() as u64 >= self.depth),
            Some(ScfifoPort::Usedw) => {
                out.set_u64(clog2(self.depth) + 1, self.queue.len() as u64)
            }
            Some(ScfifoPort::Q) if self.showahead => match self.queue.front() {
                Some(head) => out.assign_from(head),
                None => out.set_zero(self.width),
            },
            Some(ScfifoPort::Q) => out.assign_from(&self.q_reg),
            _ => return false,
        }
        true
    }

    fn tick(&mut self, _clock_port: usize, inputs: &[Bits]) {
        if bit(inputs, ScfifoPort::Sclr) || bit(inputs, ScfifoPort::Aclr) {
            self.queue.clear();
            self.q_reg = Bits::zero(self.width);
            return;
        }
        if bit(inputs, ScfifoPort::Rdreq) {
            if let Some(head) = self.queue.pop_front() {
                self.q_reg = head;
            }
        }
        if bit(inputs, ScfifoPort::Wrreq) && (self.queue.len() as u64) < self.depth {
            self.queue.push_back(word(inputs, ScfifoPort::Data, self.width));
        }
    }

    clone_state!();
}

/// Dual-clock FIFO (`dcfifo`): writes on `wrclk`, reads on `rdclk`.
/// Show-ahead read interface like [`Scfifo`]. Clock-domain-crossing
/// metastability is not modeled (the paper's bugs are functional).
#[derive(Debug, Clone)]
pub struct Dcfifo {
    width: u32,
    depth: u64,
    queue: VecDeque<Bits>,
}

impl Dcfifo {
    /// Creates the model from `WIDTH` and `DEPTH`.
    pub fn new(params: &BTreeMap<String, Bits>) -> Self {
        let width = params.get("WIDTH").map_or(8, |b| b.to_u64() as u32).max(1);
        let depth = params.get("DEPTH").map_or(16, |b| b.to_u64()).max(1);
        Dcfifo {
            width,
            depth,
            queue: VecDeque::new(),
        }
    }
}

impl Blackbox for Dcfifo {
    fn ports(&self) -> &'static [&'static str] {
        DcfifoPort::NAMES
    }

    fn eval_port(&self, port: usize, out: &mut Bits) -> bool {
        match DcfifoPort::at(port) {
            Some(DcfifoPort::Rdempty) => out.set_bool(self.queue.is_empty()),
            Some(DcfifoPort::Wrfull) => out.set_bool(self.queue.len() as u64 >= self.depth),
            Some(DcfifoPort::Wrusedw) => {
                out.set_u64(clog2(self.depth) + 1, self.queue.len() as u64)
            }
            Some(DcfifoPort::Q) => match self.queue.front() {
                Some(head) => out.assign_from(head),
                None => out.set_zero(self.width),
            },
            _ => return false,
        }
        true
    }

    fn tick(&mut self, clock_port: usize, inputs: &[Bits]) {
        match DcfifoPort::at(clock_port) {
            Some(DcfifoPort::Wrclk)
                if bit(inputs, DcfifoPort::Wrreq) && (self.queue.len() as u64) < self.depth =>
            {
                self.queue.push_back(word(inputs, DcfifoPort::Data, self.width));
            }
            Some(DcfifoPort::Rdclk) if bit(inputs, DcfifoPort::Rdreq) => {
                self.queue.pop_front();
            }
            _ => {}
        }
    }

    clone_state!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inputs, output};
    use ScfifoPort as S;

    fn params(width: u64, depth: u64) -> BTreeMap<String, Bits> {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, width));
        p.insert("DEPTH".into(), Bits::from_u64(32, depth));
        p
    }

    fn wr(v: u64) -> Vec<Bits> {
        inputs(S::NAMES.len(), [(S::Wrreq, 1), (S::Data, v)])
    }

    fn rd() -> Vec<Bits> {
        inputs(S::NAMES.len(), [(S::Rdreq, 1)])
    }

    fn tick(f: &mut Scfifo, inputs: &[Bits]) {
        f.tick(S::Clock.into(), inputs);
    }

    #[test]
    fn scfifo_showahead_order() {
        let mut f = Scfifo::new(&params(8, 4));
        tick(&mut f, &wr(1));
        tick(&mut f, &wr(2));
        assert_eq!(output(&f, S::Q).to_u64(), 1);
        assert!(!output(&f, S::Empty).to_bool());
        tick(&mut f, &rd());
        assert_eq!(output(&f, S::Q).to_u64(), 2);
        tick(&mut f, &rd());
        assert!(output(&f, S::Empty).to_bool());
    }

    #[test]
    fn scfifo_full_drops_writes() {
        let mut f = Scfifo::new(&params(8, 2));
        for v in 1..=5 {
            tick(&mut f, &wr(v));
        }
        assert_eq!(f.len(), 2);
        assert!(output(&f, S::Full).to_bool());
        assert_eq!(output(&f, S::Usedw).to_u64(), 2);
    }

    #[test]
    fn scfifo_simultaneous_rd_wr_when_full() {
        let mut f = Scfifo::new(&params(8, 2));
        tick(&mut f, &wr(1));
        tick(&mut f, &wr(2));
        // Read frees a slot in the same cycle the write lands.
        tick(&mut f, &inputs(S::NAMES.len(), [(S::Wrreq, 1), (S::Data, 3), (S::Rdreq, 1)]));
        assert_eq!(f.len(), 2);
        assert_eq!(output(&f, S::Q).to_u64(), 2);
    }

    #[test]
    fn scfifo_normal_mode_registers_q() {
        let mut p = params(8, 4);
        p.insert("SHOWAHEAD".into(), Bits::from_u64(1, 0));
        let mut f = Scfifo::new(&p);
        tick(&mut f, &wr(7));
        assert_eq!(output(&f, S::Q).to_u64(), 0); // not popped yet
        tick(&mut f, &rd());
        assert_eq!(output(&f, S::Q).to_u64(), 7);
    }

    #[test]
    fn scfifo_sclr_clears() {
        let mut f = Scfifo::new(&params(8, 4));
        tick(&mut f, &wr(1));
        tick(&mut f, &inputs(S::NAMES.len(), [(S::Sclr, 1)]));
        assert!(f.is_empty());
    }

    #[test]
    fn dcfifo_two_domains() {
        use DcfifoPort as D;
        let mut f = Dcfifo::new(&params(16, 4));
        f.tick(D::Wrclk.into(), &inputs(D::NAMES.len(), [(D::Wrreq, 1), (D::Data, 0xBEEF)]));
        assert!(!output(&f, D::Rdempty).to_bool());
        assert_eq!(output(&f, D::Q).to_u64(), 0xBEEF);
        f.tick(D::Rdclk.into(), &inputs(D::NAMES.len(), [(D::Rdreq, 1)]));
        assert!(output(&f, D::Rdempty).to_bool());
    }

    #[test]
    fn a_short_input_slice_reads_zero() {
        let mut f = Scfifo::new(&params(8, 4));
        tick(&mut f, &[]);
        assert!(f.is_empty());
    }
}
