//! Resolution of a flat module into a [`Design`]: the analyzed form shared
//! by the simulator, the resource estimator, and the debugging tools.

use crate::blackbox::{BbDir, BlackboxLib};
use crate::consteval::{eval_const, range_width, ConstEnv};
use crate::flatten::{expr_to_lvalue, flatten};
use crate::guard;
use crate::intern::{SigId, SignalTable};
use crate::prop::PropGraph;
use crate::DataflowError;
use hwdbg_bits::Bits;
use hwdbg_rtl::{
    Dir, Edge, EventControl, Expr, Item, LValue, Module, NetDecl, Port, SourceFile, Span, Stmt,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Why [`Design::width_of`] could not compute an expression's width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WidthError {
    /// A name that is neither a signal nor a constant of the design.
    UnknownName(String),
    /// A part-select bound or replication count that is not constant.
    NonConstBound,
    /// A part-select whose constant bounds are reversed (`lsb > msb`).
    ReversedRange {
        /// The value written in the msb position.
        msb: u64,
        /// The (larger) value written in the lsb position.
        lsb: u64,
    },
}

/// Role of a signal in the resolved design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// Top-level input (driven by the testbench).
    Input,
    /// Top-level output.
    Output,
    /// Internal signal driven combinationally (by `assign`, an `always @(*)`
    /// block, or a blackbox output).
    Comb,
    /// A state register: written under a clock edge.
    Reg,
    /// Declared but never driven (kept for diagnostics).
    Undriven,
}

/// Static information about one signal.
#[derive(Debug, Clone)]
pub struct SigInfo {
    /// Flat (hierarchical) name.
    pub name: String,
    /// Bit width of one element.
    pub width: u32,
    /// Resolved role.
    pub kind: SigKind,
    /// Declared `signed`.
    pub signed: bool,
    /// `Some(depth)` for memories (`reg [w-1:0] m [0:depth-1]`).
    pub mem_depth: Option<u64>,
}

impl SigInfo {
    /// True if this signal holds clocked state (register or memory written
    /// under a clock).
    pub fn is_state(&self) -> bool {
        self.kind == SigKind::Reg
    }
}

/// A combinational driver: one `assign` or one `always @(*)` block.
#[derive(Debug, Clone)]
pub struct CombDriver {
    /// Statements (a single assignment for `assign` items).
    pub body: Stmt,
    /// Signals read, sorted and without repeats.
    pub reads: Box<[SigId]>,
    /// Signals written, sorted and without repeats.
    pub writes: Box<[SigId]>,
}

/// A clocked process: one `always @(posedge …)` block.
#[derive(Debug, Clone)]
pub struct ClockedProc {
    /// Sensitivity edges.
    pub edges: Vec<Edge>,
    /// Body statement.
    pub body: Stmt,
    /// Signals read, sorted and without repeats (the edge signals are
    /// not reads).
    pub reads: Box<[SigId]>,
    /// Signals written, sorted and without repeats.
    pub writes: Box<[SigId]>,
}

/// A blackbox IP instance in the resolved design.
#[derive(Debug, Clone)]
pub struct BbInst {
    /// IP module name (e.g. `scfifo`).
    pub module: String,
    /// Flat instance name.
    pub name: String,
    /// Folded parameter values.
    pub params: BTreeMap<String, Bits>,
    /// Input port → connected expression.
    pub in_conns: BTreeMap<String, Expr>,
    /// Output port → driven lvalue.
    pub out_conns: BTreeMap<String, LValue>,
    /// Resolved width of each connected port.
    pub port_widths: BTreeMap<String, u32>,
    /// Ports that are clocks (posedge of the connected signal ticks the
    /// behavioral model).
    pub clock_ports: Vec<String>,
}

/// Where one item of the flat module went: the drivers own their bodies,
/// and [`Design::module`] puts the items back in this order.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The next item the design keeps as is (net, parameter, instance).
    Kept,
    /// An `assign`: the next combinational driver.
    Assign,
    /// An `always @(*)` with this span: the next combinational driver.
    Comb(Span),
    /// A clocked `always` with this span: the next clocked process.
    Proc(Span),
}

/// A fully resolved flat design.
///
/// [`resolve`] is the only constructor, and nothing mutates a `Design`
/// after it: the analyses memoized on it (see
/// [`local_graph`](Design::local_graph)) rely on that.
///
/// Each driver body is stored once, in its [`CombDriver`] or
/// [`ClockedProc`]; [`module`](Design::module) rebuilds the flat module
/// for the tools that instrument it.
#[derive(Debug, Clone)]
pub struct Design {
    /// Top module name.
    pub name: String,
    /// The flat module without its `assign` and `always` items.
    flat: Module,
    /// Every item of the flat module, in source order.
    layout: Box<[Slot]>,
    /// Per signal: the position of its declaration among `flat`'s ports
    /// followed by its items.
    decls: Box<[u32]>,
    /// All signals by flat name.
    pub signals: BTreeMap<String, SigInfo>,
    /// Dense [`SigId`] interner over the same signals (sorted-name order),
    /// shared with the propagation graphs and simulator states built from
    /// this design.
    pub table: Arc<SignalTable>,
    /// Parameter/localparam constants by name.
    pub consts: ConstEnv,
    /// Combinational drivers in declaration order.
    pub combs: Vec<CombDriver>,
    /// Clocked processes in declaration order.
    pub procs: Vec<ClockedProc>,
    /// Blackbox instances.
    pub blackboxes: Vec<BbInst>,
    /// [`local_graph`](Design::local_graph)'s memo; a clone shares it.
    local_graph: OnceLock<Arc<PropGraph>>,
}

impl Design {
    /// Looks up a signal.
    pub fn signal(&self, name: &str) -> Option<&SigInfo> {
        self.signals.get(name)
    }

    /// Looks up a signal's dense ID.
    pub fn sig_id(&self, name: &str) -> Option<SigId> {
        self.table.id(name)
    }

    /// The propagation-relation table of this design's own RTL (no
    /// blackbox model edges), built by [`PropGraph::build_local`] the first
    /// time anything asks for it and shared by every later caller: the
    /// taint lints, [`PropGraph::build`], and clones of this design made
    /// after the first call.
    ///
    /// The memo is never invalidated. That is sound only because a
    /// `Design` is not mutated after [`resolve`] returns it; code that
    /// needs a different design re-resolves a module instead.
    pub fn local_graph(&self) -> &PropGraph {
        self.local_graph
            .get_or_init(|| Arc::new(PropGraph::build_local(self)))
    }

    /// Static info for an interned signal.
    pub fn sig_info(&self, id: SigId) -> &SigInfo {
        &self.signals[self.table.name(id)]
    }

    /// The top module's ports, in declaration order.
    pub fn ports(&self) -> &[Port] {
        &self.flat.ports
    }

    /// The declaration of a signal: its port's net or its net item.
    pub fn decl(&self, id: SigId) -> &NetDecl {
        let at = self.decls[id.index()] as usize;
        match self.flat.ports.get(at) {
            Some(port) => &port.net,
            None => match &self.flat.items[at - self.flat.ports.len()] {
                Item::Net(n) => n,
                _ => unreachable!("a signal is declared by a port or a net item"),
            },
        }
    }

    /// The flat module this design was resolved from, rebuilt from the
    /// drivers and the kept items in source order: what the tools
    /// instrument and re-elaborate, and what `print_module` prints.
    pub fn module(&self) -> Module {
        let (mut kept, mut combs, mut procs) =
            (self.flat.items.iter(), self.combs.iter(), self.procs.iter());
        let mut items = Vec::with_capacity(self.layout.len());
        for slot in self.layout.iter() {
            let item = match *slot {
                Slot::Kept => kept.next().cloned(),
                Slot::Assign => combs.next().and_then(|c| match &c.body {
                    Stmt::Assign { lhs, rhs, span, .. } => Some(Item::Assign {
                        lhs: lhs.clone(),
                        rhs: rhs.clone(),
                        span: *span,
                    }),
                    _ => None,
                }),
                Slot::Comb(span) => combs.next().map(|c| Item::Always {
                    event: EventControl::Comb,
                    body: c.body.clone(),
                    span,
                }),
                Slot::Proc(span) => procs.next().map(|p| Item::Always {
                    event: EventControl::Edges(p.edges.clone()),
                    body: p.body.clone(),
                    span,
                }),
            };
            items.extend(item);
        }
        Module {
            name: self.flat.name.clone(),
            params: self.flat.params.clone(),
            ports: self.flat.ports.clone(),
            items,
            span: self.flat.span,
        }
    }

    /// Iterates over state-holding signals (registers and clocked memories).
    pub fn state_signals(&self) -> impl Iterator<Item = &SigInfo> {
        self.signals.values().filter(|s| s.is_state())
    }

    /// Computes the static width of an expression in this design, following
    /// Verilog's pragmatic rules: binary arithmetic/bitwise take the wider
    /// operand, comparisons and logical operators are 1 bit, shifts keep the
    /// left width. Returns `None` for unknown names or non-constant or
    /// reversed bounds; [`width_of`](Self::width_of) says which.
    pub fn expr_width(&self, e: &Expr) -> Option<u32> {
        self.width_of(e).ok()
    }

    /// [`expr_width`](Self::expr_width) with the reason it failed.
    /// [`resolve`] refuses non-constant and reversed bounds and counts, so
    /// on any expression of the design's own drivers this is the one
    /// static width.
    ///
    /// # Errors
    ///
    /// The first unknown name, non-constant bound or replication count, or
    /// reversed part-select met in evaluation order.
    pub fn width_of(&self, e: &Expr) -> Result<u32, WidthError> {
        use hwdbg_rtl::{BinaryOp, UnaryOp};
        let constant = |b: &Expr| {
            eval_const(b, &self.consts)
                .map(|v| v.to_u64())
                .map_err(|_| WidthError::NonConstBound)
        };
        Ok(match e {
            Expr::Literal { value, .. } => value.width(),
            Expr::Ident(n) => {
                if let Some(sig) = self.signals.get(n) {
                    sig.width
                } else if let Some(c) = self.consts.get(n) {
                    c.width()
                } else {
                    return Err(WidthError::UnknownName(n.clone()));
                }
            }
            Expr::Unary(op, inner) => match op {
                UnaryOp::Not | UnaryOp::Neg => self.width_of(inner)?,
                _ => 1,
            },
            Expr::Binary(op, l, r) => {
                if op.is_boolean() {
                    1
                } else if matches!(op, BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr) {
                    self.width_of(l)?
                } else {
                    self.width_of(l)?.max(self.width_of(r)?)
                }
            }
            Expr::Ternary(_, t, f) => self.width_of(t)?.max(self.width_of(f)?),
            Expr::Index(n, _) => match self.signals.get(n) {
                Some(sig) if sig.mem_depth.is_some() => sig.width,
                Some(_) => 1,
                None if self.consts.contains_key(n) => 1,
                None => return Err(WidthError::UnknownName(n.clone())),
            },
            Expr::Range(_, msb, lsb) => {
                let m = constant(msb)?;
                let l = constant(lsb)?;
                if l > m {
                    return Err(WidthError::ReversedRange { msb: m, lsb: l });
                }
                (m - l + 1) as u32
            }
            Expr::Concat(parts) => {
                let mut sum = 0;
                for p in parts {
                    sum += self.width_of(p)?;
                }
                sum
            }
            Expr::Repeat(n, body) => constant(n)? as u32 * self.width_of(body)?,
            Expr::WidthCast(w, _) => *w,
            Expr::SignCast(_, inner) => self.width_of(inner)?,
        })
    }

    /// Width of an lvalue (sum of part widths for concatenations); `None`
    /// for unknown names and for non-constant or reversed part-select
    /// bounds.
    pub fn lvalue_width(&self, lv: &LValue) -> Option<u32> {
        Some(match lv {
            LValue::Id(n) => self.signals.get(n)?.width,
            LValue::Index(n, _) => {
                let sig = self.signals.get(n)?;
                if sig.mem_depth.is_some() {
                    sig.width
                } else {
                    1
                }
            }
            LValue::Range(_, msb, lsb) => {
                let m = eval_const(msb, &self.consts).ok()?.to_u64();
                let l = eval_const(lsb, &self.consts).ok()?.to_u64();
                if l > m {
                    return None;
                }
                (m - l + 1) as u32
            }
            LValue::Concat(parts) => {
                let mut sum = 0;
                for p in parts {
                    sum += self.lvalue_width(p)?;
                }
                sum
            }
        })
    }

    /// Non-fatal diagnostics about the resolved design: currently, a
    /// warning for every declared-but-undriven signal (a frequent symptom
    /// of a mistyped name that Verilog's implicit-net rules hide). Each
    /// warning carries the declaration span so callers can excerpt the
    /// design source.
    pub fn lints(&self) -> Vec<hwdbg_diag::HwdbgError> {
        use hwdbg_diag::{ErrorCode, HwdbgError};
        let mut out = Vec::new();
        // `signals` iterates in name order, which is ID order.
        for (i, sig) in self.signals.values().enumerate() {
            if sig.kind != SigKind::Undriven {
                continue;
            }
            let decl = self.decl(SigId::from_index(i));
            out.push(
                HwdbgError::warning(
                    ErrorCode::UndrivenSignal,
                    format!("signal `{}` is declared but never driven", sig.name),
                )
                .with_signal(&sig.name)
                .with_span(decl.span),
            );
        }
        out
    }

    /// All distinct clock signal names (from process sensitivity lists and
    /// blackbox clock ports).
    pub fn clocks(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for p in &self.procs {
            for e in &p.edges {
                out.insert(e.signal.clone());
            }
        }
        for bb in &self.blackboxes {
            for cp in &bb.clock_ports {
                if let Some(Expr::Ident(n)) = bb.in_conns.get(cp) {
                    out.insert(n.clone());
                }
            }
        }
        out
    }
}

/// Flattens and resolves `top` in one step.
///
/// # Errors
///
/// Propagates flattening errors and [`resolve`] errors.
pub fn elaborate(
    file: &SourceFile,
    top: &str,
    lib: &dyn BlackboxLib,
) -> Result<Design, DataflowError> {
    let flat = flatten(file, top, lib)?;
    resolve(flat, lib)
}

/// Deepest memory the toolchain accepts (16 Mi entries). Malformed depth
/// expressions otherwise turn into multi-gigabyte allocations when
/// simulation state is built.
pub const MAX_MEM_DEPTH: u64 = 1 << 24;

/// Resolves an already-flat module into a [`Design`].
///
/// # Errors
///
/// Fails on duplicate/unknown signals, writes to parameters, non-constant
/// widths, part-select bounds or replication counts, reversed or oversized
/// selects, signals driven both combinationally and under a clock, signals
/// with more than one combinational driver, or unknown blackbox ports.
/// Errors carry the source span of the offending item where one is known.
pub fn resolve(flat: Module, lib: &dyn BlackboxLib) -> Result<Design, DataflowError> {
    let mut consts = ConstEnv::new();
    for item in &flat.items {
        if let Item::Param(p) | Item::Localparam(p) = item {
            let mut v = eval_const(&p.value, &consts)?;
            if p.range.is_some() {
                v = v.resize(range_width(&p.range, &consts)?);
            }
            consts.insert(p.name.clone(), v);
        }
    }

    let mut signals: BTreeMap<String, SigInfo> = BTreeMap::new();
    let mut declare = |name: &str,
                       width: u32,
                       kind: SigKind,
                       signed: bool,
                       mem_depth: Option<u64>|
     -> Result<(), DataflowError> {
        if signals
            .insert(
                name.to_owned(),
                SigInfo {
                    name: name.to_owned(),
                    width,
                    kind,
                    signed,
                    mem_depth,
                },
            )
            .is_some()
        {
            return Err(DataflowError::DuplicateName(name.to_owned()));
        }
        Ok(())
    };

    // Each declaration's position among the ports followed by the items
    // the design keeps (every item but `assign` and `always`).
    let mut positions: Vec<(&str, u32)> = Vec::new();
    for (i, port) in flat.ports.iter().enumerate() {
        let width = range_width(&port.net.range, &consts)?;
        let kind = match port.dir {
            Dir::Input => SigKind::Input,
            Dir::Output => SigKind::Output,
            Dir::Inout => {
                return Err(DataflowError::Unsupported("inout ports".into()));
            }
        };
        declare(&port.net.name, width, kind, port.net.signed, None)?;
        positions.push((&port.net.name, i as u32));
    }
    let mut kept_len = 0;
    for item in &flat.items {
        if let Item::Net(n) = item {
            let width = range_width(&n.range, &consts).map_err(|e| e.at(n.span))?;
            let mem_depth = match &n.mem_dim {
                None => None,
                Some((lo, hi)) => {
                    let lo_v = eval_const(lo, &consts).map_err(|e| e.at(n.span))?.to_u64();
                    let hi_v = eval_const(hi, &consts).map_err(|e| e.at(n.span))?.to_u64();
                    if lo_v != 0 || hi_v < lo_v {
                        return Err(
                            DataflowError::BadRange(format!("[{lo_v}:{hi_v}]")).at(n.span)
                        );
                    }
                    if hi_v >= MAX_MEM_DEPTH {
                        return Err(DataflowError::BadRange(format!(
                            "memory `{}` has {} entries (limit {MAX_MEM_DEPTH})",
                            n.name,
                            hi_v + 1
                        ))
                        .at(n.span));
                    }
                    Some(hi_v + 1)
                }
            };
            declare(&n.name, width, SigKind::Undriven, n.signed, mem_depth)
                .map_err(|e| e.at(n.span))?;
            positions.push((&n.name, (flat.ports.len() + kept_len) as u32));
        }
        if !matches!(item, Item::Assign { .. } | Item::Always { .. }) {
            kept_len += 1;
        }
    }

    // The namespace is final once every declaration is in: the rest of
    // resolution looks names up by ID.
    let table = Arc::new(SignalTable::new(signals.keys().map(String::as_str)));
    let mut decls = vec![0; table.len()].into_boxed_slice();
    for (name, at) in positions {
        if let Some(id) = table.id(name) {
            decls[id.index()] = at;
        }
    }

    // Partition items into drivers, moving each body into its driver,
    // and build every driver's read and write sets as its names are
    // checked.
    let Module {
        name,
        params,
        ports,
        items,
        span,
    } = flat;
    let mut kept = Vec::with_capacity(kept_len);
    let mut layout = Vec::with_capacity(items.len());
    let mut combs = Vec::new();
    let mut procs = Vec::new();
    let mut blackboxes = Vec::new();
    let mut scan = Scan::new(&table, &consts);
    // The first part select or replication that is not constant, is
    // reversed or is too wide; reported after the name checks below.
    let mut bad_select = None;
    for item in items {
        match item {
            Item::Net(_) | Item::Param(_) | Item::Localparam(_) => {
                kept.push(item);
                layout.push(Slot::Kept);
            }
            Item::Assign { lhs, rhs, span } => {
                let body = Stmt::Assign {
                    lhs,
                    nonblocking: false,
                    rhs,
                    span,
                };
                scan.stmt(&body, span);
                bad_select = bad_select.or_else(|| check_selects(&body, span, &consts).err());
                let (reads, writes) = scan.end_driver(false);
                combs.push(CombDriver {
                    body,
                    reads,
                    writes,
                });
                layout.push(Slot::Assign);
            }
            Item::Always { event, body, span } => {
                scan.stmt(&body, span);
                bad_select = bad_select.or_else(|| check_selects(&body, span, &consts).err());
                match event {
                    EventControl::Comb => {
                        let (reads, writes) = scan.end_driver(false);
                        combs.push(CombDriver {
                            body,
                            reads,
                            writes,
                        });
                        layout.push(Slot::Comb(span));
                    }
                    EventControl::Edges(edges) => {
                        for e in &edges {
                            scan.check_read(&e.signal);
                        }
                        let (reads, writes) = scan.end_driver(true);
                        procs.push(ClockedProc {
                            edges,
                            body,
                            reads,
                            writes,
                        });
                        layout.push(Slot::Proc(span));
                    }
                }
            }
            Item::Instance(inst) => {
                let bb = resolve_instance(&inst, lib, &consts).map_err(|e| e.at(inst.span))?;
                for e in bb.in_conns.values() {
                    scan.expr(e);
                }
                for lv in bb.out_conns.values() {
                    scan.lvalue(lv, true, inst.span);
                }
                bad_select = bad_select.or_else(|| {
                    let mut outs = bb.out_conns.values();
                    check_exprs(bb.in_conns.values(), &consts)
                        .and_then(|()| outs.try_for_each(|lv| check_lvalue_selects(lv, &consts)))
                        .err()
                        .map(|e| e.at(inst.span))
                });
                scan.end_driver(false);
                blackboxes.push(bb);
                kept.push(Item::Instance(inst));
                layout.push(Slot::Kept);
            }
        }
    }

    // Classify drivers and detect conflicts. A signal *whole-written* by
    // one combinational driver and also written by any other comb driver
    // has no well-defined settled value (execution order decides), so it
    // is rejected rather than left to oscillate. Distinct drivers that
    // each write disjoint slices of one signal (SignalCat's generated
    // concat wires, bit-sliced buses) remain legal. A written name that
    // is not a signal keeps its tally too, so a conflict on it is still
    // reported ahead of the bad name itself.
    let Scan {
        writes,
        undeclared,
        bad,
        ..
    } = scan;
    if let Some(name) = first_written(&table, &writes, &undeclared, |w| w.comb > 1 && w.whole) {
        return Err(DataflowError::DuplicateDriver(name.to_owned()));
    }
    if let Some(name) = first_written(&table, &writes, &undeclared, |w| w.comb > 0 && w.clocked) {
        return Err(DataflowError::ConflictingDrivers(name.to_owned()));
    }
    // `signals` iterates in name order, which is ID order.
    for (info, w) in signals.values_mut().zip(&writes) {
        if w.clocked {
            info.kind = SigKind::Reg;
        } else if w.comb > 0 && info.kind != SigKind::Output {
            info.kind = SigKind::Comb;
        }
    }
    // A written bad name carries its assignment's or instance's span.
    if let Some((name, write)) = bad {
        let err = if write.is_some() && consts.contains_key(&name) {
            DataflowError::ConstantWrite(name)
        } else {
            DataflowError::UnknownSignal(name)
        };
        return Err(match write {
            Some(span) => err.at(span),
            None => err,
        });
    }

    if let Some(err) = bad_select {
        return Err(err);
    }

    Ok(Design {
        name: name.clone(),
        flat: Module {
            name,
            params,
            ports,
            items: kept,
            span,
        },
        layout: layout.into_boxed_slice(),
        decls,
        signals,
        table,
        consts,
        combs,
        procs,
        blackboxes,
        local_graph: OnceLock::new(),
    })
}

/// Resolves one blackbox instance against its library spec.
fn resolve_instance(
    inst: &hwdbg_rtl::Instance,
    lib: &dyn BlackboxLib,
    consts: &ConstEnv,
) -> Result<BbInst, DataflowError> {
    let spec = lib
        .spec(&inst.module)
        .ok_or_else(|| DataflowError::UnknownModule(inst.module.clone()))?;
    let mut params = BTreeMap::new();
    for (n, e) in &inst.params {
        params.insert(n.clone(), eval_const(e, consts)?);
    }
    let mut in_conns = BTreeMap::new();
    let mut out_conns = BTreeMap::new();
    let mut port_widths = BTreeMap::new();
    for (pname, conn) in &inst.conns {
        let port = spec
            .port(pname)
            .ok_or_else(|| DataflowError::UnknownPort(inst.module.clone(), pname.clone()))?;
        let Some(conn) = conn else { continue };
        let width = port
            .width
            .resolve(&params)
            .ok_or_else(|| DataflowError::UnknownParam(inst.module.clone(), pname.clone()))?;
        port_widths.insert(pname.clone(), width);
        match port.dir {
            BbDir::Input => {
                in_conns.insert(pname.clone(), conn.clone());
            }
            BbDir::Output => {
                let lv = expr_to_lvalue(conn).ok_or_else(|| {
                    DataflowError::BadOutputConnection(inst.name.clone(), pname.clone())
                })?;
                out_conns.insert(pname.clone(), lv);
            }
        }
    }
    let clock_ports = spec
        .ports
        .iter()
        .filter(|p| p.is_clock)
        .map(|p| p.name.clone())
        .collect();
    Ok(BbInst {
        module: inst.module.clone(),
        name: inst.name.clone(),
        params,
        in_conns,
        out_conns,
        port_widths,
        clock_ports,
    })
}

/// Validates every part select and replication in a driver body, through
/// [`guard::walk`]: bounds and counts must be constant (E0201, IEEE
/// 1364-2005 §5.2.1 and §5.1.14), so every select and replication has one
/// static width. Reversed selects (`a[3:5]`) and zero or oversized widths
/// are rejected too. An error in an assignment or a `$display` carries
/// that statement's span; one in a condition or a loop header carries
/// `item_span`, the enclosing `always` block's.
fn check_selects(body: &Stmt, item_span: Span, consts: &ConstEnv) -> Result<(), DataflowError> {
    let mut result = Ok(());
    guard::walk(body, &mut Vec::new(), &mut |_, stmt| {
        if result.is_err() {
            return;
        }
        result = match stmt {
            Stmt::Assign { lhs, rhs, span, .. } => check_lvalue_selects(lhs, consts)
                .and_then(|()| check_expr_selects(rhs, consts))
                .map_err(|e| e.at(*span)),
            Stmt::Display { args, span, .. } => check_exprs(args, consts).map_err(|e| e.at(*span)),
            Stmt::If { cond, .. } => check_expr_selects(cond, consts),
            Stmt::Case { expr, arms, .. } => {
                let labels = arms.iter().flat_map(|arm| &arm.labels);
                check_exprs(std::iter::once(expr).chain(labels), consts)
            }
            Stmt::For { init, cond, step, .. } => check_exprs([init, cond, step], consts),
            Stmt::Block(_) | Stmt::Finish | Stmt::Empty => Ok(()),
        }
        .map_err(|e| e.at(item_span));
    });
    result
}

fn check_exprs<'e>(
    es: impl IntoIterator<Item = &'e Expr>,
    consts: &ConstEnv,
) -> Result<(), DataflowError> {
    es.into_iter().try_for_each(|e| check_expr_selects(e, consts))
}

fn check_range_bounds(
    name: &str,
    msb: &Expr,
    lsb: &Expr,
    consts: &ConstEnv,
) -> Result<(), DataflowError> {
    let bound = |e: &Expr| {
        eval_const(e, consts).map(|v| v.to_u64()).map_err(|e| match e {
            DataflowError::NotConstant(reads) => DataflowError::NonConstantSelect {
                select: name.to_owned(),
                reads,
            },
            other => other,
        })
    };
    let (m, l) = (bound(msb)?, bound(lsb)?);
    if l > m {
        return Err(DataflowError::BadRange(format!(
            "part select `{name}[{m}:{l}]` has its bounds reversed (zero-width slice)"
        )));
    }
    if m - l + 1 > u64::from(crate::consteval::MAX_WIDTH) {
        return Err(DataflowError::BadRange(format!(
            "part select `{name}[{m}:{l}]` is wider than the {} bit limit",
            crate::consteval::MAX_WIDTH
        )));
    }
    Ok(())
}

fn check_expr_selects(e: &Expr, consts: &ConstEnv) -> Result<(), DataflowError> {
    match e {
        Expr::Literal { .. } | Expr::Ident(_) => {}
        Expr::Unary(_, inner) | Expr::SignCast(_, inner) | Expr::WidthCast(_, inner) => {
            check_expr_selects(inner, consts)?;
        }
        Expr::Binary(_, l, r) => {
            check_expr_selects(l, consts)?;
            check_expr_selects(r, consts)?;
        }
        Expr::Ternary(c, t, f) => {
            check_expr_selects(c, consts)?;
            check_expr_selects(t, consts)?;
            check_expr_selects(f, consts)?;
        }
        Expr::Index(_, idx) => check_expr_selects(idx, consts)?,
        Expr::Range(n, msb, lsb) => check_range_bounds(n, msb, lsb, consts)?,
        Expr::Concat(parts) => {
            for p in parts {
                check_expr_selects(p, consts)?;
            }
        }
        Expr::Repeat(n, body) => {
            let c = eval_const(n, consts)?.to_u64();
            if c == 0 {
                return Err(DataflowError::BadRange("replication count of zero".to_owned()));
            }
            if c > u64::from(crate::consteval::MAX_WIDTH) {
                return Err(DataflowError::BadRange(format!(
                    "replication count {c} exceeds the {} bit limit",
                    crate::consteval::MAX_WIDTH
                )));
            }
            check_expr_selects(body, consts)?;
        }
    }
    Ok(())
}

fn check_lvalue_selects(lv: &LValue, consts: &ConstEnv) -> Result<(), DataflowError> {
    match lv {
        LValue::Id(_) => Ok(()),
        LValue::Index(_, idx) => check_expr_selects(idx, consts),
        LValue::Range(n, msb, lsb) => check_range_bounds(n, msb, lsb, consts),
        LValue::Concat(parts) => {
            for p in parts {
                check_lvalue_selects(p, consts)?;
            }
            Ok(())
        }
    }
}

/// How one signal is written, tallied over every driver of the design.
#[derive(Debug, Clone, Copy, Default)]
struct Writes {
    /// Comb drivers (assign / always@* / blackbox instance) writing it.
    comb: usize,
    /// Whether one of those writes covers the whole signal.
    whole: bool,
    /// Whether a clocked process writes it.
    clocked: bool,
}

impl Writes {
    /// Counts one driver's writes of the signal; `whole` marks a driver
    /// that writes all of it.
    fn add(&mut self, clocked: bool, whole: bool) {
        if clocked {
            self.clocked = true;
        } else {
            self.comb += 1;
            self.whole |= whole;
        }
    }
}

/// Resolves the names of one driver at a time into its read and write
/// sets, checks them, and tallies how every signal is written.
///
/// A read must name a signal or a constant, a write a signal. The first
/// bad name in name order is kept for the error.
struct Scan<'r> {
    table: &'r SignalTable,
    consts: &'r ConstEnv,
    /// Per signal: how the drivers scanned so far write it.
    writes: Vec<Writes>,
    /// The same tally for written names that are not signals.
    undeclared: BTreeMap<String, Writes>,
    /// The first bad name, with the span of the assignment or instance
    /// that writes it if it is written.
    bad: Option<(String, Option<Span>)>,
    /// The current driver's reads.
    reads: Vec<SigId>,
    /// The current driver's writes, each marked if it covers the whole
    /// signal; a signal may repeat.
    targets: Vec<(SigId, bool)>,
    /// The current driver's writes to names that are not signals.
    other_targets: Vec<(String, bool)>,
}

impl<'r> Scan<'r> {
    fn new(table: &'r SignalTable, consts: &'r ConstEnv) -> Self {
        Scan {
            table,
            consts,
            writes: vec![Writes::default(); table.len()],
            undeclared: BTreeMap::new(),
            bad: None,
            reads: Vec::new(),
            targets: Vec::new(),
            other_targets: Vec::new(),
        }
    }

    /// Notes `name` as bad unless a smaller bad name is already known.
    fn note_bad(&mut self, name: &str, write: Option<Span>) {
        if self.bad.as_ref().is_some_and(|(b, _)| b.as_str() <= name) {
            return;
        }
        self.bad = Some((name.to_owned(), write));
    }

    /// The ID of a read name; `None` for a constant or a bad name.
    fn check_read(&mut self, name: &str) -> Option<SigId> {
        let id = self.table.id(name);
        if id.is_none() && !self.consts.contains_key(name) {
            self.note_bad(name, None);
        }
        id
    }

    fn read(&mut self, name: &str) {
        if let Some(id) = self.check_read(name) {
            self.reads.push(id);
        }
    }

    fn write(&mut self, name: &str, whole: bool, span: Span) {
        match self.table.id(name) {
            Some(id) => self.targets.push((id, whole)),
            None => {
                self.other_targets.push((name.to_owned(), whole));
                self.note_bad(name, Some(span));
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        e.visit_idents(&mut |n| self.read(n));
    }

    /// Scans `lv`'s targets and index expressions; `whole` marks a
    /// target that is a plain identifier (possibly inside a
    /// concatenation).
    fn lvalue(&mut self, lv: &LValue, whole: bool, span: Span) {
        match lv {
            LValue::Id(n) => self.write(n, whole, span),
            LValue::Index(n, i) => {
                self.write(n, false, span);
                self.expr(i);
            }
            LValue::Range(n, msb, lsb) => {
                self.write(n, false, span);
                self.expr(msb);
                self.expr(lsb);
            }
            LValue::Concat(parts) => {
                for p in parts {
                    self.lvalue(p, whole, span);
                }
            }
        }
    }

    /// Scans a statement tree; `span` is the enclosing item's, for
    /// writes outside an assignment (`for` loop variables).
    fn stmt(&mut self, stmt: &Stmt, span: Span) {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s, span);
                }
            }
            Stmt::If { cond, then, els } => {
                self.expr(cond);
                self.stmt(then, span);
                if let Some(e) = els {
                    self.stmt(e, span);
                }
            }
            Stmt::Case {
                expr,
                arms,
                default,
                ..
            } => {
                self.expr(expr);
                for arm in arms {
                    for l in &arm.labels {
                        self.expr(l);
                    }
                    self.stmt(&arm.body, span);
                }
                if let Some(d) = default {
                    self.stmt(d, span);
                }
            }
            Stmt::Assign { lhs, rhs, span, .. } => {
                self.expr(rhs);
                self.lvalue(lhs, true, *span);
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                // Loop variables are procedural temporaries; two loops
                // sharing an index name are not conflicting drivers of it.
                self.write(var, false, span);
                self.expr(init);
                self.expr(cond);
                self.expr(step);
                self.stmt(body, span);
            }
            Stmt::Display { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            Stmt::Finish | Stmt::Empty => {}
        }
    }

    /// Ends the current driver: tallies its writes (once per name however
    /// often it writes it) and returns its read and write sets.
    fn end_driver(&mut self, clocked: bool) -> (Box<[SigId]>, Box<[SigId]>) {
        self.reads.sort_unstable();
        self.reads.dedup();
        merge_repeats(&mut self.targets);
        merge_repeats(&mut self.other_targets);
        for &(id, whole) in &self.targets {
            self.writes[id.index()].add(clocked, whole);
        }
        for (name, whole) in self.other_targets.drain(..) {
            self.undeclared.entry(name).or_default().add(clocked, whole);
        }
        let reads = Box::from(&self.reads[..]);
        let writes = self.targets.iter().map(|&(id, _)| id).collect();
        self.reads.clear();
        self.targets.clear();
        (reads, writes)
    }
}

/// Sorts a driver's write targets and merges the repeats of each name;
/// the merged target is whole if any repeat was.
fn merge_repeats<K: Ord>(targets: &mut Vec<(K, bool)>) {
    targets.sort_unstable();
    targets.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        kept.1 |= same && next.1;
        same
    });
}

/// The first written name, in name order, whose tally satisfies `pred`.
fn first_written<'a>(
    table: &'a SignalTable,
    writes: &[Writes],
    undeclared: &'a BTreeMap<String, Writes>,
    pred: impl Fn(&Writes) -> bool,
) -> Option<&'a str> {
    let declared = writes
        .iter()
        .position(&pred)
        .map(|i| table.name(SigId::from_index(i)));
    let other = undeclared
        .iter()
        .find(|(_, w)| pred(w))
        .map(|(n, _)| n.as_str());
    declared.into_iter().chain(other).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::NoBlackboxes;
    use hwdbg_rtl::parse;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse(src).unwrap(), top, &NoBlackboxes).unwrap()
    }

    #[test]
    fn classify_signals() {
        let d = design(
            "module m(input clk, input d, output q);
                reg state;
                wire next;
                assign next = ~state;
                assign q = state;
                always @(posedge clk) state <= next & d;
             endmodule",
            "m",
        );
        assert_eq!(d.signal("state").unwrap().kind, SigKind::Reg);
        assert_eq!(d.signal("next").unwrap().kind, SigKind::Comb);
        assert_eq!(d.signal("clk").unwrap().kind, SigKind::Input);
        assert_eq!(d.signal("q").unwrap().kind, SigKind::Output);
        assert_eq!(d.combs.len(), 2);
        assert_eq!(d.procs.len(), 1);
        assert_eq!(d.clocks().len(), 1);
    }

    #[test]
    fn memory_depth_resolved() {
        let d = design(
            "module m(input clk, input [7:0] din, input [3:0] wa);
                reg [7:0] mem [0:9];
                always @(posedge clk) mem[wa] <= din;
             endmodule",
            "m",
        );
        let mem = d.signal("mem").unwrap();
        assert_eq!(mem.mem_depth, Some(10));
        assert_eq!(mem.width, 8);
        assert!(mem.is_state());
    }

    #[test]
    fn conflicting_drivers_rejected() {
        let src = "module m(input clk, input a);
            reg x;
            assign x = a;
            always @(posedge clk) x <= a;
         endmodule";
        // `assign` to a reg is already odd; the conflict check catches it.
        let err = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap_err();
        assert!(matches!(err, DataflowError::ConflictingDrivers(_)));
    }

    #[test]
    fn unknown_signal_rejected() {
        let src = "module m(input clk);
            reg x;
            always @(posedge clk) x <= ghost;
         endmodule";
        let err = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap_err();
        assert!(matches!(err, DataflowError::UnknownSignal(n) if n == "ghost"));
    }

    #[test]
    fn reads_writes_cover_statements() {
        let d = design(
            "module m(input clk, input [1:0] sel, input [7:0] a, output reg [7:0] y);
                always @(posedge clk) begin
                    case (sel)
                        2'd0: y <= a;
                        default: y <= 8'd0;
                    endcase
                end
             endmodule",
            "m",
        );
        let p = &d.procs[0];
        let names =
            |ids: &[SigId]| -> Vec<&str> { ids.iter().map(|&id| d.table.name(id)).collect() };
        assert_eq!(names(&p.reads), ["a", "sel"]);
        assert_eq!(names(&p.writes), ["y"]);
    }

    #[test]
    fn hierarchical_design_resolves() {
        let d = design(
            "module count #(parameter W = 4)(input clk, output reg [W-1:0] q);
                always @(posedge clk) q <= q + 1'b1;
             endmodule
             module top(input clk, output [7:0] v);
                count #(.W(8)) c0 (.clk(clk), .q(v));
             endmodule",
            "top",
        );
        assert_eq!(d.signal("c0__q").unwrap().width, 8);
        assert_eq!(d.signal("c0__q").unwrap().kind, SigKind::Reg);
    }
}
