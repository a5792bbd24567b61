//! The recording IP used by SignalCat: a bounded on-chip capture buffer
//! with trigger control, standing in for Intel SignalTap / Xilinx ILA.

use hwdbg_bits::Bits;
use hwdbg_sim::Blackbox;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

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
    fn eval_port(&mut self, port: &str, _inputs: &BTreeMap<String, Bits>, out: &mut Bits) -> bool {
        match port {
            "full" => out.set_bool(self.entries.len() >= self.depth),
            "count" => out.set_u64(32, self.entries.len() as u64),
            _ => return false,
        }
        true
    }

    fn tick(&mut self, _clock_port: &str, inputs: &BTreeMap<String, Bits>) {
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
        if inputs.get("enable").is_some_and(Bits::to_bool) {
            if self.entries.len() >= self.depth {
                self.entries.pop_front();
                self.overwritten += 1;
            }
            self.entries.push_back(TraceEntry {
                cycle: self.cycle,
                data: inputs
                    .get("din")
                    .cloned()
                    .unwrap_or_else(|| Bits::zero(self.width))
                    .resize(self.width),
            });
        }
        if self.post > 0
            && self.countdown.is_none()
            && inputs.get("trigger").is_some_and(Bits::to_bool)
        {
            self.countdown = Some(self.post);
        }
        if self.countdown == Some(0) {
            self.stopped = true;
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

    fn params(width: u64, depth: u64, post: u64) -> BTreeMap<String, Bits> {
        let mut p = BTreeMap::new();
        p.insert("WIDTH".into(), Bits::from_u64(32, width));
        p.insert("DEPTH".into(), Bits::from_u64(32, depth));
        p.insert("POST".into(), Bits::from_u64(32, post));
        p
    }

    fn capture(v: u64) -> BTreeMap<String, Bits> {
        let mut m = BTreeMap::new();
        m.insert("enable".into(), Bits::from_bool(true));
        m.insert("din".into(), Bits::from_u64(16, v));
        m
    }

    #[test]
    fn records_when_enabled() {
        let mut t = TraceBuffer::new(&params(16, 8, 0));
        t.tick("clock", &BTreeMap::new());
        t.tick("clock", &capture(0xA));
        t.tick("clock", &BTreeMap::new());
        t.tick("clock", &capture(0xB));
        let got: Vec<_> = t.entries().map(|e| (e.cycle, e.data.to_u64())).collect();
        assert_eq!(got, vec![(2, 0xA), (4, 0xB)]);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = TraceBuffer::new(&params(16, 2, 0));
        for v in 1..=4 {
            t.tick("clock", &capture(v));
        }
        let got: Vec<_> = t.entries().map(|e| e.data.to_u64()).collect();
        assert_eq!(got, vec![3, 4]);
        assert_eq!(t.overwritten(), 2);
    }

    #[test]
    fn post_trigger_window() {
        let mut t = TraceBuffer::new(&params(16, 16, 2));
        t.tick("clock", &capture(1));
        let mut trig = capture(2);
        trig.insert("trigger".into(), Bits::from_bool(true));
        t.tick("clock", &trig);
        t.tick("clock", &capture(3));
        t.tick("clock", &capture(4));
        assert!(t.stopped());
        t.tick("clock", &capture(5)); // ignored
        let got: Vec<_> = t.entries().map(|e| e.data.to_u64()).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
    }
}
