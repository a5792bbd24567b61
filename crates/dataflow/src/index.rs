//! Who drives and who reads each signal, by [`SigId`]: the structural
//! facts analyses of a resolved design share. [`Design::index`] builds a
//! [`DesignIndex`] on first use and memoizes it, as
//! [`Design::local_graph`] does the propagation graph. It owns ID data
//! only: per-signal flags and per-signal lists of driver positions.

use crate::design::Design;
use crate::guard;
use crate::intern::SigId;
use hwdbg_rtl::{Dir, Expr, Stmt};

/// One list of positions per signal, packed: signal `i`'s list is
/// `items[starts[i]..starts[i + 1]]`, ascending and without repeats.
#[derive(Debug, Clone)]
pub struct Lists {
    starts: Box<[u32]>,
    items: Box<[u32]>,
}

impl Lists {
    /// Groups `(signal, position)` pairs by signal.
    fn new(signals: usize, mut pairs: Vec<(SigId, u32)>) -> Lists {
        pairs.sort_unstable();
        pairs.dedup();
        let mut starts = vec![0u32; signals + 1];
        for &(s, _) in &pairs {
            starts[s.index() + 1] += 1;
        }
        for i in 0..signals {
            starts[i + 1] += starts[i];
        }
        let items = pairs.into_iter().map(|(_, p)| p).collect();
        Lists {
            starts: starts.into(),
            items,
        }
    }

    /// The list of signal `id`.
    pub fn get(&self, id: SigId) -> &[u32] {
        &self.items[self.starts[id.index()] as usize..self.starts[id.index() + 1] as usize]
    }
}

/// How one signal meets the ports and blackboxes, and whether a comb
/// driver reads it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SigFacts {
    /// A top-level input port.
    pub input: bool,
    /// A top-level output port. Clock-written outputs are
    /// [`SigKind::Reg`](crate::SigKind), so the kind does not tell.
    pub output: bool,
    /// Read by a combinational driver.
    pub comb_read: bool,
    /// Read by a blackbox input connection.
    pub bb_read: bool,
    /// Driven by a blackbox output connection, so its fan-in is invisible
    /// to the design's own RTL.
    pub bb_driven: bool,
}

/// The per-signal structural facts of one [`Design`]; see the
/// [module docs](self). Positions index `design.procs` or `design.combs`,
/// in declaration order.
#[derive(Debug, Clone)]
pub struct DesignIndex {
    facts: Box<[SigFacts]>,
    /// The clocked processes that assign the signal. A `for` header's
    /// init and step are not assignments here: a loop variable counts as
    /// written only where the loop body assigns it.
    pub clocked_writers: Lists,
    /// The clocked processes that read the signal
    /// ([`ClockedProc::reads`](crate::ClockedProc::reads)).
    pub clocked_readers: Lists,
    /// The comb drivers that write the signal
    /// ([`CombDriver::writes`](crate::CombDriver::writes)).
    pub comb_writers: Lists,
    /// The driver bodies holding a `case` over the signal: clocked
    /// processes, then comb driver `j` as position `procs.len() + j`.
    pub case_bodies: Lists,
}

impl DesignIndex {
    /// Indexes `design`: its ports, blackbox connections and drivers' read
    /// and write sets, and one walk over every driver body.
    pub(crate) fn build(design: &Design) -> DesignIndex {
        let n = design.table.len();
        let id = |name: &str| design.table.id(name);
        let mut facts = vec![SigFacts::default(); n];
        for port in design.ports() {
            if let Some(s) = id(&port.net.name) {
                facts[s.index()].input |= port.dir == Dir::Input;
                facts[s.index()].output |= port.dir == Dir::Output;
            }
        }
        for bb in &design.blackboxes {
            for conn in bb.in_conns.values() {
                conn.visit_idents(&mut |r| {
                    id(r).iter().for_each(|s| facts[s.index()].bb_read = true)
                });
            }
            for lv in bb.out_conns.values() {
                lv.visit_targets(&mut |w, _| {
                    id(w).iter().for_each(|s| facts[s.index()].bb_driven = true)
                });
            }
        }

        let (mut writers, mut readers, mut comb_writers, mut cases) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let procs = design.procs.len();
        for (b, body) in design.bodies().enumerate() {
            let b = b as u32;
            guard::walk(body, &mut Vec::new(), &mut |_, stmt| match stmt {
                Stmt::Assign { lhs, .. } if (b as usize) < procs => {
                    lhs.visit_targets(&mut |w, _| writers.extend(id(w).map(|s| (s, b))));
                }
                Stmt::Case {
                    expr: Expr::Ident(subject),
                    ..
                } => {
                    cases.extend(id(subject).map(|s| (s, b)));
                }
                _ => {}
            });
        }
        for (p, proc) in design.procs.iter().enumerate() {
            readers.extend(proc.reads.iter().map(|&r| (r, p as u32)));
        }
        for (c, comb) in design.combs.iter().enumerate() {
            comb.reads
                .iter()
                .for_each(|r| facts[r.index()].comb_read = true);
            comb_writers.extend(comb.writes.iter().map(|&w| (w, c as u32)));
        }
        DesignIndex {
            facts: facts.into(),
            clocked_writers: Lists::new(n, writers),
            clocked_readers: Lists::new(n, readers),
            comb_writers: Lists::new(n, comb_writers),
            case_bodies: Lists::new(n, cases),
        }
    }

    /// The signal's port and blackbox facts.
    pub fn facts(&self, id: SigId) -> SigFacts {
        self.facts[id.index()]
    }
}
