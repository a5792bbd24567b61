//! Behavioral model of `altsyncram` in simple dual-port mode
//! (one write port, one registered read port).

use hwdbg_bits::Bits;
use hwdbg_sim::Blackbox;
use std::any::Any;
use std::collections::BTreeMap;

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
    fn eval_port(&mut self, port: &str, _inputs: &BTreeMap<String, Bits>, out: &mut Bits) -> bool {
        match port {
            "q" => {
                out.assign_from(&self.q_reg);
                true
            }
            _ => false,
        }
    }

    fn tick(&mut self, _clock_port: &str, inputs: &BTreeMap<String, Bits>) {
        let rdaddr = inputs.get("rdaddress").map_or(0, |b| b.to_u64());
        // Old-data read-during-write: capture before the write lands.
        self.q_reg = self
            .mem
            .get(rdaddr as usize)
            .cloned()
            .unwrap_or_else(|| Bits::zero(self.width));
        if inputs.get("wren").is_some_and(Bits::to_bool) {
            let wraddr = inputs.get("wraddress").map_or(0, |b| b.to_u64());
            if let Some(slot) = self.mem.get_mut(wraddr as usize) {
                *slot = inputs
                    .get("data")
                    .cloned()
                    .unwrap_or_else(|| Bits::zero(self.width))
                    .resize(self.width);
            }
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

    #[test]
    fn write_then_read() {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, 16));
        p.insert("DEPTH".into(), Bits::from_u64(32, 8));
        let mut ram = Altsyncram::new(&p);
        let mut w = BTreeMap::new();
        w.insert("wren".into(), Bits::from_bool(true));
        w.insert("wraddress".into(), Bits::from_u64(3, 5));
        w.insert("data".into(), Bits::from_u64(16, 0xCAFE));
        ram.tick("clock0", &w);
        let mut r = BTreeMap::new();
        r.insert("rdaddress".into(), Bits::from_u64(3, 5));
        ram.tick("clock0", &r);
        assert_eq!(output(&mut ram, "q").to_u64(), 0xCAFE);
    }

    #[test]
    fn read_during_write_returns_old_data() {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, 8));
        p.insert("DEPTH".into(), Bits::from_u64(32, 4));
        let mut ram = Altsyncram::new(&p);
        let mut rw = BTreeMap::new();
        rw.insert("wren".into(), Bits::from_bool(true));
        rw.insert("wraddress".into(), Bits::from_u64(2, 1));
        rw.insert("rdaddress".into(), Bits::from_u64(2, 1));
        rw.insert("data".into(), Bits::from_u64(8, 0x42));
        ram.tick("clock0", &rw);
        assert_eq!(output(&mut ram, "q").to_u64(), 0); // old data
        ram.tick("clock0", &rw);
        assert_eq!(output(&mut ram, "q").to_u64(), 0x42);
    }

    #[test]
    fn out_of_range_write_ignored() {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, 8));
        p.insert("DEPTH".into(), Bits::from_u64(32, 4));
        let mut ram = Altsyncram::new(&p);
        let mut w = BTreeMap::new();
        w.insert("wren".into(), Bits::from_bool(true));
        w.insert("wraddress".into(), Bits::from_u64(8, 200));
        w.insert("data".into(), Bits::from_u64(8, 0xFF));
        ram.tick("clock0", &w);
        for a in 0..4 {
            assert!(ram.word(a).unwrap().is_zero());
        }
    }
}
