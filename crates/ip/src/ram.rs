//! Behavioral model of `altsyncram` in simple dual-port mode
//! (one write port, one registered read port).

use crate::{bit, word};
use hwdbg_bits::Bits;
use hwdbg_sim::Blackbox;
use std::collections::BTreeMap;

ip_ports! {
    /// `altsyncram`'s ports.
    AltsyncramPort {
        Clock0 = "clock0" Input Const(1), clock;
        Data = "data" Input Param("WIDTH".into());
        Wraddress = "wraddress" Input Clog2Param("DEPTH".into());
        Wren = "wren" Input Const(1);
        Rdaddress = "rdaddress" Input Clog2Param("DEPTH".into());
        Q = "q" Output Param("WIDTH".into());
    }
}

/// Simple dual-port block RAM: synchronous write, registered synchronous
/// read (`q` updates one cycle after `rdaddress`, old-data behavior on
/// read-during-write).
#[derive(Debug, Clone)]
pub struct Altsyncram {
    width: u32,
    mem: Vec<Bits>,
    q_reg: Bits,
}

impl Altsyncram {
    /// Creates the model from `WIDTH` and `DEPTH` (a.k.a. `NUMWORDS`).
    pub fn new(params: &BTreeMap<String, Bits>) -> Self {
        let width = params.get("WIDTH").map_or(8, |b| b.to_u64() as u32).max(1);
        let depth = params
            .get("DEPTH")
            .or_else(|| params.get("NUMWORDS"))
            .map_or(256, |b| b.to_u64())
            .max(1);
        Altsyncram {
            width,
            mem: vec![Bits::zero(width); depth as usize],
            q_reg: Bits::zero(width),
        }
    }

    /// Direct read for testbench assertions.
    pub fn word(&self, addr: u64) -> Option<&Bits> {
        self.mem.get(addr as usize)
    }
}

impl Blackbox for Altsyncram {
    fn ports(&self) -> &'static [&'static str] {
        AltsyncramPort::NAMES
    }

    fn eval_port(&self, port: usize, out: &mut Bits) -> bool {
        match AltsyncramPort::at(port) {
            Some(AltsyncramPort::Q) => {
                out.assign_from(&self.q_reg);
                true
            }
            _ => false,
        }
    }

    fn tick(&mut self, _clock_port: usize, inputs: &[Bits]) {
        let rdaddr = word(inputs, AltsyncramPort::Rdaddress, 64).to_u64();
        // Old-data read-during-write: capture before the write lands.
        self.q_reg = self
            .mem
            .get(rdaddr as usize)
            .cloned()
            .unwrap_or_else(|| Bits::zero(self.width));
        if bit(inputs, AltsyncramPort::Wren) {
            let wraddr = word(inputs, AltsyncramPort::Wraddress, 64).to_u64();
            if let Some(slot) = self.mem.get_mut(wraddr as usize) {
                *slot = word(inputs, AltsyncramPort::Data, self.width);
            }
        }
    }

    clone_state!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inputs, output};
    use AltsyncramPort as P;

    fn ram(width: u64, depth: u64) -> Altsyncram {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, width));
        p.insert("DEPTH".into(), Bits::from_u64(32, depth));
        Altsyncram::new(&p)
    }

    #[test]
    fn write_then_read() {
        let mut ram = ram(16, 8);
        let w = inputs(P::NAMES.len(), [(P::Wren, 1), (P::Wraddress, 5), (P::Data, 0xCAFE)]);
        ram.tick(P::Clock0.into(), &w);
        ram.tick(P::Clock0.into(), &inputs(P::NAMES.len(), [(P::Rdaddress, 5)]));
        assert_eq!(output(&ram, P::Q).to_u64(), 0xCAFE);
    }

    #[test]
    fn read_during_write_returns_old_data() {
        let mut ram = ram(8, 4);
        let rw = inputs(P::NAMES.len(), [
            (P::Wren, 1),
            (P::Wraddress, 1),
            (P::Rdaddress, 1),
            (P::Data, 0x42),
        ]);
        ram.tick(P::Clock0.into(), &rw);
        assert_eq!(output(&ram, P::Q).to_u64(), 0); // old data
        ram.tick(P::Clock0.into(), &rw);
        assert_eq!(output(&ram, P::Q).to_u64(), 0x42);
    }

    #[test]
    fn out_of_range_write_ignored() {
        let mut ram = ram(8, 4);
        let w = inputs(P::NAMES.len(), [(P::Wren, 1), (P::Wraddress, 200), (P::Data, 0xFF)]);
        ram.tick(P::Clock0.into(), &w);
        for a in 0..4 {
            assert!(ram.word(a).unwrap().is_zero());
        }
    }
}
