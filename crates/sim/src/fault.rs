//! Fault injection: perturbing a running simulation the way real
//! reconfigurable hardware misbehaves.
//!
//! The paper's bug study (§3) catalogs failures whose *symptoms* appear far
//! from their causes: corrupted datapaths, dropped handshakes, registers
//! stuck after reset. This module reproduces those perturbations on demand
//! so the debugging tools can be exercised against designs that are
//! misbehaving *mid-run*, not just designs with static source-level bugs:
//!
//! * [`FaultKind::StuckAt`] — a signal pinned to a constant (stuck-at
//!   fault, or a net shorted by a routing defect);
//! * [`FaultKind::BitFlip`] — a one-shot single-event upset in a register;
//! * [`FaultKind::HandshakeDrop`] — a valid/ready wire forced low for a
//!   window, dropping or delaying transfers on an interface;
//! * [`FaultKind::ForceRandom`] — a signal re-forced to pseudo-random
//!   values each cycle, the two-state stand-in for an X-driven net (e.g. a
//!   flop that missed reset).
//!
//! A [`FaultPlan`] is a list of [`Fault`]s with activation windows in
//! cycles. [`FaultPlan::bind`] resolves the targets to IDs once, and
//! [`BoundFaults::step`] applies due transitions before each clock edge;
//! [`run_with_faults`] drives a whole run. Plans can be written in a
//! small text grammar (see [`FaultPlan::parse`]) so the CLI can load them
//! from a file.

use crate::{SimError, Simulator};
use hwdbg_bits::Bits;
use hwdbg_dataflow::{Design, SigId};

/// What a fault does to its target signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Pin the signal to a constant for the window (value resized to the
    /// signal's width).
    StuckAt(Bits),
    /// Invert one bit of the signal's current value, once, at the start
    /// cycle. Persistent on registers; transient on driven wires (the
    /// driver recomputes them, exactly as real logic would).
    BitFlip {
        /// Which bit to invert.
        bit: u32,
    },
    /// Force the signal low for the window — models a dropped or delayed
    /// valid/ready handshake.
    HandshakeDrop,
    /// Re-force a pseudo-random value (seeded, deterministic) every cycle
    /// of the window — the two-state analogue of an X-driven net.
    ForceRandom {
        /// PRNG seed; the same seed reproduces the same value sequence.
        seed: u64,
    },
}

/// One fault: a target signal, a kind, and an activation window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Flat name of the target signal.
    pub signal: String,
    /// The perturbation applied.
    pub kind: FaultKind,
    /// Cycle (completed posedges of the stepped clock) at which the fault
    /// activates.
    pub from: u64,
    /// Cycle at which a windowed fault releases (exclusive). `None` keeps
    /// it active for the rest of the run. Ignored by [`FaultKind::BitFlip`].
    pub until: Option<u64>,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let window = match self.until {
            Some(u) => format!("@ {}..{}", self.from, u),
            None => format!("@ {}..", self.from),
        };
        match &self.kind {
            FaultKind::StuckAt(v) => {
                write!(f, "stuck {} {} {}", self.signal, v.to_u64(), window)
            }
            FaultKind::BitFlip { bit } => {
                write!(f, "flip {} {} @ {}", self.signal, bit, self.from)
            }
            FaultKind::HandshakeDrop => write!(f, "drop {} {}", self.signal, window),
            FaultKind::ForceRandom { seed } => {
                write!(f, "rand {} {} {}", self.signal, seed, window)
            }
        }
    }
}

/// An ordered set of faults to inject over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, applied in order each cycle.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a stuck-at fault active for `[from, until)`.
    #[must_use]
    pub fn stuck_at(mut self, signal: &str, value: Bits, from: u64, until: Option<u64>) -> Self {
        self.faults.push(Fault {
            signal: signal.to_owned(),
            kind: FaultKind::StuckAt(value),
            from,
            until,
        });
        self
    }

    /// Adds a one-shot bit flip at `cycle`.
    #[must_use]
    pub fn bit_flip(mut self, signal: &str, bit: u32, cycle: u64) -> Self {
        self.faults.push(Fault {
            signal: signal.to_owned(),
            kind: FaultKind::BitFlip { bit },
            from: cycle,
            until: None,
        });
        self
    }

    /// Adds a handshake-drop fault active for `[from, until)`.
    #[must_use]
    pub fn handshake_drop(mut self, signal: &str, from: u64, until: Option<u64>) -> Self {
        self.faults.push(Fault {
            signal: signal.to_owned(),
            kind: FaultKind::HandshakeDrop,
            from,
            until,
        });
        self
    }

    /// Adds a forced-random (X-like) fault active for `[from, until)`.
    #[must_use]
    pub fn force_random(mut self, signal: &str, seed: u64, from: u64, until: Option<u64>) -> Self {
        self.faults.push(Fault {
            signal: signal.to_owned(),
            kind: FaultKind::ForceRandom { seed },
            from,
            until,
        });
        self
    }

    /// Parses the textual plan grammar, one fault per line:
    ///
    /// ```text
    /// # comments and blank lines are skipped
    /// stuck <signal> <value> @ <from>[..<until>]
    /// flip  <signal> <bit>   @ <cycle>
    /// drop  <signal>         @ <from>[..<until>]
    /// rand  <signal> <seed>  @ <from>[..<until>]
    /// ```
    ///
    /// Values accept decimal or `0x` hexadecimal.
    ///
    /// # Errors
    ///
    /// [`SimError::BadFault`] naming the offending line on any syntax
    /// error.
    pub fn parse(text: &str) -> Result<FaultPlan, SimError> {
        let mut plan = FaultPlan::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| {
                SimError::BadFault(format!("line {}: {what}: `{line}`", lineno + 1))
            };
            let (head, window) = line
                .split_once('@')
                .ok_or_else(|| bad("missing `@ <cycle>` clause"))?;
            let mut fields = head.split_whitespace();
            let verb = fields.next().ok_or_else(|| bad("missing fault kind"))?;
            let signal = fields
                .next()
                .ok_or_else(|| bad("missing target signal"))?
                .to_owned();
            let arg = fields.next();
            if fields.next().is_some() {
                return Err(bad("too many fields"));
            }
            let (from, until) = parse_window(window.trim()).ok_or_else(|| bad("bad window"))?;
            let num = |s: Option<&str>, what: &str| -> Result<u64, SimError> {
                parse_u64(s.ok_or_else(|| bad(what))?).ok_or_else(|| bad(what))
            };
            let fault = match verb {
                "stuck" => Fault {
                    signal,
                    kind: FaultKind::StuckAt(Bits::from_u64(64, num(arg, "bad value")?)),
                    from,
                    until,
                },
                "flip" => Fault {
                    signal,
                    kind: FaultKind::BitFlip {
                        bit: num(arg, "bad bit index")? as u32,
                    },
                    from,
                    until: None,
                },
                "drop" => {
                    if arg.is_some() {
                        return Err(bad("drop takes no value"));
                    }
                    Fault {
                        signal,
                        kind: FaultKind::HandshakeDrop,
                        from,
                        until,
                    }
                }
                "rand" => Fault {
                    signal,
                    kind: FaultKind::ForceRandom {
                        seed: num(arg, "bad seed")?,
                    },
                    from,
                    until,
                },
                _ => return Err(bad("unknown fault kind")),
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }

    /// Checks every fault against a design: targets must be declared
    /// scalar signals, bit indices in range.
    ///
    /// # Errors
    ///
    /// [`SimError::BadFault`] describing the first impossible fault.
    pub fn validate(&self, design: &Design) -> Result<(), SimError> {
        for f in &self.faults {
            let Some(sig) = design.signal(&f.signal) else {
                return Err(SimError::BadFault(format!(
                    "target `{}` is not a signal of `{}`",
                    f.signal, design.name
                )));
            };
            if sig.mem_depth.is_some() {
                return Err(SimError::BadFault(format!(
                    "target `{}` is a memory; fault injection targets scalars",
                    f.signal
                )));
            }
            if let FaultKind::BitFlip { bit } = f.kind {
                if bit >= sig.width {
                    return Err(SimError::BadFault(format!(
                        "bit {bit} out of range for `{}` ({} bits)",
                        f.signal, sig.width
                    )));
                }
            }
            if let Some(until) = f.until {
                if until <= f.from {
                    return Err(SimError::BadFault(format!(
                        "empty window {}..{until} on `{}`",
                        f.from, f.signal
                    )));
                }
            }
        }
        Ok(())
    }
}

/// `<from>`, `<from>..`, or `<from>..<until>`.
fn parse_window(s: &str) -> Option<(u64, Option<u64>)> {
    match s.split_once("..") {
        None => Some((parse_u64(s)?, None)),
        Some((a, "")) => Some((parse_u64(a)?, None)),
        Some((a, b)) => Some((parse_u64(a)?, Some(parse_u64(b)?))),
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Deterministic value stream for [`FaultKind::ForceRandom`].
fn scramble(seed: u64, cycle: u64) -> u64 {
    let mut x =
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if x == 0 {
        x = 0x2545_F491_4F6C_DD1D;
    }
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl FaultPlan {
    /// Resolves each fault's target against `design` once: its ID and
    /// width, for [`BoundFaults::step`] to apply without a name lookup.
    pub fn bind(&self, design: &Design) -> BoundFaults<'_> {
        let targets = self
            .faults
            .iter()
            .map(|f| {
                let id = design.sig_id(&f.signal)?;
                let sig = &design.signals[id];
                sig.mem_depth.is_none().then_some((id, sig.width))
            })
            .collect();
        BoundFaults {
            plan: self,
            targets,
        }
    }
}

/// A [`FaultPlan`] bound to one design by [`FaultPlan::bind`]: per fault,
/// the target's ID and width, or `None` when it is not a scalar signal.
#[derive(Debug, Clone)]
pub struct BoundFaults<'p> {
    plan: &'p FaultPlan,
    targets: Vec<Option<(SigId, u32)>>,
}

impl BoundFaults<'_> {
    /// Applies the plan's transitions due at the simulator's current cycle
    /// of `clock`, then advances one cycle. The simulator must run the
    /// design the plan was bound to.
    ///
    /// # Errors
    ///
    /// [`SimError::BadFault`] for impossible targets (surface them early
    /// with [`FaultPlan::validate`]); otherwise propagates
    /// [`Simulator::step`] errors.
    pub fn step(&self, sim: &mut Simulator, clock: &str) -> Result<(), SimError> {
        let now = sim.cycle(clock);
        for (f, target) in self.plan.faults.iter().zip(&self.targets) {
            let &Some((id, width)) = target else {
                return Err(SimError::BadFault(format!(
                    "target `{}` is not a scalar signal",
                    f.signal
                )));
            };
            match &f.kind {
                FaultKind::StuckAt(v) => {
                    if now == f.from {
                        sim.force_id(id, v.resize(width))?;
                        sim.count_fault_event();
                    }
                    if f.until == Some(now) {
                        sim.release_id(id);
                        sim.count_fault_event();
                    }
                }
                FaultKind::BitFlip { bit } => {
                    if now == f.from && *bit < width {
                        let mut v = sim.state().get_id(id).clone();
                        let old = v.bit(*bit);
                        v.splice(*bit, &Bits::from_bool(!old));
                        sim.poke_id(id, &v)?;
                        sim.count_fault_event();
                    }
                }
                FaultKind::HandshakeDrop => {
                    if now == f.from {
                        sim.force_id(id, Bits::from_u64(width, 0))?;
                        sim.count_fault_event();
                    }
                    if f.until == Some(now) {
                        sim.release_id(id);
                        sim.count_fault_event();
                    }
                }
                FaultKind::ForceRandom { seed } => {
                    let active = now >= f.from && f.until.is_none_or(|u| now < u);
                    if active {
                        let v = Bits::from_u64(width.min(64), scramble(*seed, now)).resize(width);
                        // Re-force each cycle: the value must change while
                        // pinned, so release the old pin first.
                        sim.release_id(id);
                        sim.force_id(id, v)?;
                        sim.count_fault_event();
                    } else if f.until == Some(now) {
                        sim.release_id(id);
                        sim.count_fault_event();
                    }
                }
            }
        }
        sim.step(clock)
    }
}

/// Applies the plan's transitions due at the simulator's current cycle of
/// `clock`, then advances one cycle: [`FaultPlan::bind`] followed by
/// [`BoundFaults::step`]. A loop should bind once instead.
///
/// # Errors
///
/// As [`BoundFaults::step`].
pub fn step_with_faults(
    sim: &mut Simulator,
    clock: &str,
    plan: &FaultPlan,
) -> Result<(), SimError> {
    plan.bind(sim.design()).step(sim, clock)
}

/// Runs `n` cycles of `clock`, injecting `plan`, whose targets it binds
/// once. Stops early at `$finish`. Returns the number of cycles actually
/// stepped.
///
/// # Errors
///
/// Propagates [`BoundFaults::step`] errors.
pub fn run_with_faults(
    sim: &mut Simulator,
    clock: &str,
    n: u64,
    plan: &FaultPlan,
) -> Result<u64, SimError> {
    let bound = plan.bind(sim.design());
    let mut stepped = 0;
    for _ in 0..n {
        if sim.finished() {
            break;
        }
        bound.step(sim, clock)?;
        stepped += 1;
    }
    Ok(stepped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_each_kind() {
        let plan = FaultPlan::parse(
            "# a comment\n\
             stuck top_v 1 @ 3..9\n\
             flip q 2 @ 5\n\
             drop s_valid @ 4..\n\
             rand d 0xBEEF @ 0..2\n",
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(
            plan.faults[0].kind,
            FaultKind::StuckAt(Bits::from_u64(64, 1))
        );
        assert_eq!(plan.faults[0].until, Some(9));
        assert_eq!(plan.faults[1].kind, FaultKind::BitFlip { bit: 2 });
        assert_eq!(plan.faults[2].kind, FaultKind::HandshakeDrop);
        assert_eq!(plan.faults[2].until, None);
        assert_eq!(
            plan.faults[3].kind,
            FaultKind::ForceRandom { seed: 0xBEEF }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "stuck x 1",          // no window
            "wobble x @ 1",       // unknown verb
            "flip x @ 1",         // missing bit
            "drop x 1 @ 2",       // drop takes no value
            "stuck x y @ 1",      // non-numeric value
            "stuck x 1 2 3 @ 1",  // too many fields
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(err, SimError::BadFault(_)),
                "`{bad}` should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn scramble_is_deterministic() {
        assert_eq!(scramble(7, 3), scramble(7, 3));
        assert_ne!(scramble(7, 3), scramble(7, 4));
    }
}
