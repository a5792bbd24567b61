//! The recording IP used by SignalCat: a bounded on-chip capture buffer
//! with trigger control, standing in for Intel SignalTap / Xilinx ILA.

use crate::{bit, word};
use hwdbg_bits::Bits;
use hwdbg_sim::Blackbox;
use std::collections::{BTreeMap, VecDeque};

ip_ports! {
    /// `trace_buffer`'s ports.
    TracePort {
        Clock = "clock" Input Const(1), clock;
        Enable = "enable" Input Const(1);
        Din = "din" Input Param("WIDTH".into());
        Trigger = "trigger" Input Const(1);
        Full = "full" Output Const(1);
        Count = "count" Output Const(32);
    }
}

/// One captured entry: the cycle it was recorded and the payload word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Local cycle counter of the trace buffer (counts its clock edges).
    pub cycle: u64,
    /// Captured `din` word.
    pub data: Bits,
}

/// A ring-buffer recording IP.
///
/// Parameters:
/// * `WIDTH` — payload width of `din`;
/// * `DEPTH` — number of entries the on-chip buffer holds (the paper's
///   evaluation sweeps this from 1K to 8K, Figure 2);
/// * `POST`  — when nonzero, recording stops `POST` cycles after the
///   `trigger` input pulses, which is how a developer captures a window
///   *around* an event (§4.1).
///
/// Ports: `clock`, `enable` (capture `din` this cycle), `din`, `trigger`,
/// and outputs `full` / `count`.
///
/// When the ring is full the oldest entry is overwritten, matching the
/// vendor IPs' circular capture mode.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    width: u32,
    depth: usize,
    post: u64,
    entries: VecDeque<TraceEntry>,
    cycle: u64,
    countdown: Option<u64>,
    stopped: bool,
    overwritten: u64,
}

impl TraceBuffer {
    /// Creates the model from instance parameters.
    pub fn new(params: &BTreeMap<String, Bits>) -> Self {
        let width = params.get("WIDTH").map_or(32, |b| b.to_u64() as u32).max(1);
        let depth = params.get("DEPTH").map_or(8192, |b| b.to_u64()).max(1) as usize;
        let post = params.get("POST").map_or(0, |b| b.to_u64());
        TraceBuffer {
            width,
            depth,
            post,
            entries: VecDeque::new(),
            cycle: 0,
            countdown: None,
            stopped: false,
            overwritten: 0,
        }
    }

    /// Captured entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries were overwritten after the ring filled up.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// True once the post-trigger window has closed.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Payload width.
    pub fn width(&self) -> u32 {
        self.width
    }
}

impl Blackbox for TraceBuffer {
    fn ports(&self) -> &'static [&'static str] {
        TracePort::NAMES
    }

    fn eval_port(&self, port: usize, out: &mut Bits) -> bool {
        match TracePort::at(port) {
            Some(TracePort::Full) => out.set_bool(self.entries.len() >= self.depth),
            Some(TracePort::Count) => out.set_u64(32, self.entries.len() as u64),
            _ => return false,
        }
        true
    }

    fn tick(&mut self, _clock_port: usize, inputs: &[Bits]) {
        self.cycle += 1;
        if self.stopped {
            return;
        }
        // Count down the post-trigger window; the capture below still runs
        // on the cycle the window closes, so exactly `post` cycles after the
        // trigger are retained.
        if let Some(cd) = &mut self.countdown {
            *cd -= 1;
        }
        if bit(inputs, TracePort::Enable) {
            if self.entries.len() >= self.depth {
                self.entries.pop_front();
                self.overwritten += 1;
            }
            self.entries.push_back(TraceEntry {
                cycle: self.cycle,
                data: word(inputs, TracePort::Din, self.width),
            });
        }
        if self.post > 0 && self.countdown.is_none() && bit(inputs, TracePort::Trigger) {
            self.countdown = Some(self.post);
        }
        if self.countdown == Some(0) {
            self.stopped = true;
        }
    }

    clone_state!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use TracePort as P;

    fn params(width: u64, depth: u64, post: u64) -> BTreeMap<String, Bits> {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, width));
        p.insert("DEPTH".into(), Bits::from_u64(32, depth));
        p.insert("POST".into(), Bits::from_u64(32, post));
        p
    }

    fn capture(v: u64) -> Vec<Bits> {
        inputs(P::NAMES.len(), [(P::Enable, 1), (P::Din, v)])
    }

    fn tick(t: &mut TraceBuffer, inputs: &[Bits]) {
        t.tick(P::Clock.into(), inputs);
    }

    #[test]
    fn records_when_enabled() {
        let mut t = TraceBuffer::new(&params(16, 8, 0));
        tick(&mut t, &[]);
        tick(&mut t, &capture(0xA));
        tick(&mut t, &[]);
        tick(&mut t, &capture(0xB));
        let got: Vec<_> = t.entries().map(|e| (e.cycle, e.data.to_u64())).collect();
        assert_eq!(got, vec![(2, 0xA), (4, 0xB)]);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = TraceBuffer::new(&params(16, 2, 0));
        for v in 1..=4 {
            tick(&mut t, &capture(v));
        }
        let got: Vec<_> = t.entries().map(|e| e.data.to_u64()).collect();
        assert_eq!(got, vec![3, 4]);
        assert_eq!(t.overwritten(), 2);
    }

    #[test]
    fn post_trigger_window() {
        let mut t = TraceBuffer::new(&params(16, 16, 2));
        tick(&mut t, &capture(1));
        tick(&mut t, &inputs(P::NAMES.len(), [(P::Enable, 1), (P::Din, 2), (P::Trigger, 1)]));
        tick(&mut t, &capture(3));
        tick(&mut t, &capture(4));
        assert!(t.stopped());
        tick(&mut t, &capture(5)); // ignored
        let got: Vec<_> = t.entries().map(|e| e.data.to_u64()).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
    }
}
