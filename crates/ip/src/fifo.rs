//! Behavioral models of the Intel-style FIFO IPs: `scfifo` (single clock)
//! and `dcfifo` (dual clock).

use hwdbg_bits::Bits;
use hwdbg_dataflow::clog2;
use hwdbg_sim::Blackbox;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

fn input(inputs: &BTreeMap<String, Bits>, name: &str) -> Bits {
    inputs.get(name).cloned().unwrap_or_else(|| Bits::zero(1))
}

fn input_bool(inputs: &BTreeMap<String, Bits>, name: &str) -> bool {
    inputs.get(name).is_some_and(Bits::to_bool)
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
    fn eval_port(&mut self, port: &str, _inputs: &BTreeMap<String, Bits>, out: &mut Bits) -> bool {
        match port {
            "empty" => out.set_bool(self.queue.is_empty()),
            "full" => out.set_bool(self.queue.len() as u64 >= self.depth),
            "usedw" => out.set_u64(clog2(self.depth) + 1, self.queue.len() as u64),
            "q" if self.showahead => match self.queue.front() {
                Some(head) => out.assign_from(head),
                None => out.set_zero(self.width),
            },
            "q" => out.assign_from(&self.q_reg),
            _ => return false,
        }
        true
    }

    fn tick(&mut self, _clock_port: &str, inputs: &BTreeMap<String, Bits>) {
        if input_bool(inputs, "sclr") || input_bool(inputs, "aclr") {
            self.queue.clear();
            self.q_reg = Bits::zero(self.width);
            return;
        }
        let rd = input_bool(inputs, "rdreq");
        let wr = input_bool(inputs, "wrreq");
        if rd {
            if let Some(head) = self.queue.pop_front() {
                self.q_reg = head;
            }
        }
        if wr && (self.queue.len() as u64) < self.depth {
            self.queue.push_back(input(inputs, "data").resize(self.width));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn snapshot(&self) -> Option<Box<dyn Any + Send>> {
        Some(Box::new(self.clone()))
    }

    fn restore(&mut self, state: &dyn Any) -> bool {
        match state.downcast_ref::<Self>() {
            Some(st) => {
                *self = st.clone();
                true
            }
            None => false,
        }
    }
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
    fn eval_port(&mut self, port: &str, _inputs: &BTreeMap<String, Bits>, out: &mut Bits) -> bool {
        match port {
            "rdempty" => out.set_bool(self.queue.is_empty()),
            "wrfull" => out.set_bool(self.queue.len() as u64 >= self.depth),
            "wrusedw" => out.set_u64(clog2(self.depth) + 1, self.queue.len() as u64),
            "q" => match self.queue.front() {
                Some(head) => out.assign_from(head),
                None => out.set_zero(self.width),
            },
            _ => return false,
        }
        true
    }

    fn tick(&mut self, clock_port: &str, inputs: &BTreeMap<String, Bits>) {
        match clock_port {
            "wrclk" if input_bool(inputs, "wrreq") && (self.queue.len() as u64) < self.depth => {
                self.queue.push_back(input(inputs, "data").resize(self.width));
            }
            "rdclk" if input_bool(inputs, "rdreq") => {
                self.queue.pop_front();
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn snapshot(&self) -> Option<Box<dyn Any + Send>> {
        Some(Box::new(self.clone()))
    }

    fn restore(&mut self, state: &dyn Any) -> bool {
        match state.downcast_ref::<Self>() {
            Some(st) => {
                *self = st.clone();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output;

    fn params(width: u64, depth: u64) -> BTreeMap<String, Bits> {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, width));
        p.insert("DEPTH".into(), Bits::from_u64(32, depth));
        p
    }

    fn wr(v: u64) -> BTreeMap<String, Bits> {
        let mut m = BTreeMap::new();
        m.insert("wrreq".into(), Bits::from_bool(true));
        m.insert("data".into(), Bits::from_u64(8, v));
        m
    }

    fn rd() -> BTreeMap<String, Bits> {
        let mut m = BTreeMap::new();
        m.insert("rdreq".into(), Bits::from_bool(true));
        m
    }

    #[test]
    fn scfifo_showahead_order() {
        let mut f = Scfifo::new(&params(8, 4));
        f.tick("clock", &wr(1));
        f.tick("clock", &wr(2));
        assert_eq!(output(&mut f, "q").to_u64(), 1);
        assert!(!output(&mut f, "empty").to_bool());
        f.tick("clock", &rd());
        assert_eq!(output(&mut f, "q").to_u64(), 2);
        f.tick("clock", &rd());
        assert!(output(&mut f, "empty").to_bool());
    }

    #[test]
    fn scfifo_full_drops_writes() {
        let mut f = Scfifo::new(&params(8, 2));
        for v in 1..=5 {
            f.tick("clock", &wr(v));
        }
        assert_eq!(f.len(), 2);
        assert!(output(&mut f, "full").to_bool());
        assert_eq!(output(&mut f, "usedw").to_u64(), 2);
    }

    #[test]
    fn scfifo_simultaneous_rd_wr_when_full() {
        let mut f = Scfifo::new(&params(8, 2));
        f.tick("clock", &wr(1));
        f.tick("clock", &wr(2));
        // Read frees a slot in the same cycle the write lands.
        let mut both = wr(3);
        both.insert("rdreq".into(), Bits::from_bool(true));
        f.tick("clock", &both);
        assert_eq!(f.len(), 2);
        assert_eq!(output(&mut f, "q").to_u64(), 2);
    }

    #[test]
    fn scfifo_normal_mode_registers_q() {
        let mut p = params(8, 4);
        p.insert("SHOWAHEAD".into(), Bits::from_u64(1, 0));
        let mut f = Scfifo::new(&p);
        f.tick("clock", &wr(7));
        assert_eq!(output(&mut f, "q").to_u64(), 0); // not popped yet
        f.tick("clock", &rd());
        assert_eq!(output(&mut f, "q").to_u64(), 7);
    }

    #[test]
    fn scfifo_sclr_clears() {
        let mut f = Scfifo::new(&params(8, 4));
        f.tick("clock", &wr(1));
        let mut clr = BTreeMap::new();
        clr.insert("sclr".into(), Bits::from_bool(true));
        f.tick("clock", &clr);
        assert!(f.is_empty());
    }

    #[test]
    fn dcfifo_two_domains() {
        let mut f = Dcfifo::new(&params(16, 4));
        let mut w = BTreeMap::new();
        w.insert("wrreq".into(), Bits::from_bool(true));
        w.insert("data".into(), Bits::from_u64(16, 0xBEEF));
        f.tick("wrclk", &w);
        assert!(!output(&mut f, "rdempty").to_bool());
        assert_eq!(output(&mut f, "q").to_u64(), 0xBEEF);
        let mut r = BTreeMap::new();
        r.insert("rdreq".into(), Bits::from_bool(true));
        f.tick("rdclk", &r);
        assert!(output(&mut f, "rdempty").to_bool());
    }
}
