//! Resolution of a flat module into a [`Design`]: the analyzed form shared
//! by the simulator, the resource estimator, and the debugging tools.

use crate::blackbox::{BbDir, BlackboxLib};
use crate::consteval::{eval_const, eval_typed, range_width, sized_param, ConstEnv};
use crate::flatten::{expr_to_lvalue, flatten};
use crate::guard;
use crate::index::DesignIndex;
use crate::intern::{SigId, SignalTable};
use crate::prop::PropGraph;
use crate::ty::{lvalue_width, ty, Scope, Ty, WidthError};
use crate::DataflowError;
use hwdbg_bits::Bits;
use hwdbg_rtl::{
    Dir, Edge, EventControl, Expr, Item, LValue, Module, NetDecl, Port, SourceFile, Span, Stmt,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

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

/// Every signal's [`SigInfo`], indexed by its [`SigId`]: the `i`-th entry
/// is the signal with ID `SigId::from_index(i)`. Names are looked up
/// through the design's [`SignalTable`]; see [`Design::signal`].
#[derive(Debug, Clone, Default)]
pub struct Signals(Box<[SigInfo]>);

impl Signals {
    /// Number of signals.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the design has no signals.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every signal's info, in ID order.
    pub fn values(&self) -> std::slice::Iter<'_, SigInfo> {
        self.0.iter()
    }
}

impl std::ops::Index<SigId> for Signals {
    type Output = SigInfo;

    fn index(&self, id: SigId) -> &SigInfo {
        &self.0[id.index()]
    }
}

/// `(name, info)` pairs in ID order, which is name order.
impl<'a> IntoIterator for &'a Signals {
    type Item = (&'a str, &'a SigInfo);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, SigInfo>, fn(&SigInfo) -> (&str, &SigInfo)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|s| (s.name.as_str(), s))
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
/// [`local_graph`](Design::local_graph) and [`index`](Design::index))
/// rely on that.
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
    /// Per signal ID: the position of its declaration among `flat`'s
    /// ports followed by its items.
    decls: Box<[u32]>,
    /// Every signal's static info, by ID.
    pub signals: Signals,
    /// The design's one name index: flat name ⇄ [`SigId`] (IDs in
    /// sorted-name order), shared with the propagation graphs and
    /// simulator states built from this design.
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
    /// [`index`](Design::index)'s memo; a clone shares it.
    index: OnceLock<Arc<DesignIndex>>,
}

impl Design {
    /// Looks up a signal.
    pub fn signal(&self, name: &str) -> Option<&SigInfo> {
        Some(&self.signals[self.table.id(name)?])
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

    /// Who drives and reads each signal, by ID: port directions, clocked
    /// writers and readers, comb writers, `case` subjects and blackbox
    /// connections. Built on first use and memoized like
    /// [`local_graph`](Self::local_graph), under the same no-mutation rule.
    pub fn index(&self) -> &DesignIndex {
        self.index
            .get_or_init(|| Arc::new(DesignIndex::build(self)))
    }

    /// Every driver body: the clocked processes', then the comb drivers',
    /// each in declaration order.
    pub fn bodies(&self) -> impl Iterator<Item = &Stmt> {
        let procs = self.procs.iter().map(|p| &p.body);
        procs.chain(self.combs.iter().map(|c| &c.body))
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

    /// The width of an expression in this design, by [`ty()`](crate::ty());
    /// `None` for unknown names and for non-constant or reversed bounds.
    /// [`resolve`] refuses those, so on any expression of the design's own
    /// drivers this is the one static width.
    pub fn expr_width(&self, e: &Expr) -> Option<u32> {
        ty(e, self).ok().map(|t| t.width)
    }

    /// Width of an lvalue ([`lvalue_width`]); `None` for unknown names and
    /// for non-constant or reversed part-select bounds.
    pub fn lvalue_width(&self, lv: &LValue) -> Option<u32> {
        lvalue_width(lv, self).ok()
    }

    /// Non-fatal diagnostics about the resolved design: currently, a
    /// warning for every declared-but-undriven signal (a frequent symptom
    /// of a mistyped name that Verilog's implicit-net rules hide). Each
    /// warning carries the declaration span so callers can excerpt the
    /// design source.
    pub fn lints(&self) -> Vec<hwdbg_diag::HwdbgError> {
        use hwdbg_diag::{ErrorCode, HwdbgError};
        let mut out = Vec::new();
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

/// A design's names are its signals, then its constants.
impl Scope for Design {
    fn name(&self, name: &str) -> Result<Ty, WidthError> {
        self.signal(name).map_or_else(|| self.consts.name(name), |sig| Ok(sig.ty()))
    }

    fn element(&self, name: &str) -> Result<Ty, WidthError> {
        self.signal(name).map_or_else(|| self.consts.element(name), |sig| Ok(sig.element_ty()))
    }

    fn constant(&self, e: &Expr) -> Result<u64, WidthError> {
        self.consts.constant(e)
    }

    fn exact(&self) -> &dyn Scope {
        self
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
            let (v, t) = eval_typed(&p.value, &consts)?;
            let v = sized_param(v, t, &p.range, &consts)?;
            consts.insert(p.name.clone(), v);
        }
    }

    // Every port and net, in declaration order, with its position among
    // the ports followed by the items the design keeps (every item but
    // `assign` and `always`). Collecting stops at the first declaration
    // that fails, which is reported unless an earlier one repeats a name.
    let kept = flat
        .items
        .iter()
        .filter(|i| !matches!(i, Item::Assign { .. } | Item::Always { .. }));
    let kept_len = kept.clone().count();
    let nets = kept.map(|item| match item {
        Item::Net(n) => Some((n, None)),
        _ => None,
    });
    let decls = flat
        .ports
        .iter()
        .map(|p| Some((&p.net, Some(p.dir))))
        .chain(nets)
        .enumerate()
        .filter_map(|(at, d)| Some((at as u32, d?)));
    let mut declared = Vec::with_capacity(flat.ports.len() + kept_len);
    let mut failed = None;
    for (at, (net, dir)) in decls {
        match declare(net, dir, &consts) {
            Ok(sig) => declared.push((sig, at, net)),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }

    // IDs follow name order: sort once, and refuse the first declaration,
    // in declaration order, that repeats an earlier one's name.
    declared.sort_unstable_by(|a, b| a.0.name.cmp(&b.0.name).then(a.1.cmp(&b.1)));
    let repeat = declared
        .windows(2)
        .filter(|w| w[0].0.name == w[1].0.name)
        .map(|w| &w[1])
        .min_by_key(|d| d.1);
    if let Some((sig, at, net)) = repeat {
        let err = DataflowError::DuplicateName(sig.name.clone());
        return Err(if *at as usize >= flat.ports.len() {
            err.at(net.span)
        } else {
            err
        });
    }
    if let Some(err) = failed {
        return Err(err);
    }
    let decls: Box<[u32]> = declared.iter().map(|d| d.1).collect();
    let mut infos: Vec<SigInfo> = declared.into_iter().map(|d| d.0).collect();

    // The namespace is final once every declaration is in: the rest of
    // resolution looks names up by ID.
    let table = Arc::new(SignalTable::new(infos.iter().map(|s| s.name.as_str())));

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
                scan.body(&body, span);
                let (reads, writes) = scan.end_driver(false);
                combs.push(CombDriver {
                    body,
                    reads,
                    writes,
                });
                layout.push(Slot::Assign);
            }
            Item::Always { event, body, span } => {
                scan.body(&body, span);
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
                    scan.expr(e, inst.span);
                }
                for lv in bb.out_conns.values() {
                    scan.lvalue(lv, inst.span);
                }
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
        bad_select,
        ..
    } = scan;
    if let Some(name) = first_written(&table, &writes, &undeclared, |w| w.comb > 1 && w.whole) {
        return Err(DataflowError::DuplicateDriver(name.to_owned()));
    }
    if let Some(name) = first_written(&table, &writes, &undeclared, |w| w.comb > 0 && w.clocked) {
        return Err(DataflowError::ConflictingDrivers(name.to_owned()));
    }
    for (info, w) in infos.iter_mut().zip(&writes) {
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
        signals: Signals(infos.into_boxed_slice()),
        table,
        consts,
        combs,
        procs,
        blackboxes,
        local_graph: OnceLock::new(),
        index: OnceLock::new(),
    })
}

/// The [`SigInfo`] a port (with its `dir`) or a net declares, before its
/// drivers classify it; a net's error carries its span.
fn declare(net: &NetDecl, dir: Option<Dir>, consts: &ConstEnv) -> Result<SigInfo, DataflowError> {
    let at = |e: DataflowError| if dir.is_some() { e } else { e.at(net.span) };
    let width = range_width(&net.range, consts).map_err(at)?;
    let kind = match dir {
        None => SigKind::Undriven,
        Some(Dir::Input) => SigKind::Input,
        Some(Dir::Output) => SigKind::Output,
        Some(Dir::Inout) => return Err(DataflowError::Unsupported("inout ports".into())),
    };
    let mem_depth = match (&net.mem_dim, dir) {
        (Some((lo, hi)), None) => {
            let lo_v = eval_const(lo, consts).map_err(at)?.to_u64();
            let hi_v = eval_const(hi, consts).map_err(at)?.to_u64();
            if lo_v != 0 || hi_v < lo_v {
                return Err(at(DataflowError::BadRange(format!("[{lo_v}:{hi_v}]"))));
            }
            if hi_v >= MAX_MEM_DEPTH {
                return Err(at(DataflowError::BadRange(format!(
                    "memory `{}` has {} entries (limit {MAX_MEM_DEPTH})",
                    net.name,
                    hi_v + 1
                ))));
            }
            Some(hi_v + 1)
        }
        _ => None,
    };
    Ok(SigInfo {
        name: net.name.clone(),
        width,
        kind,
        signed: net.signed,
        mem_depth,
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

/// Checks a part select's bounds: they must be constant (E0201, IEEE
/// 1364-2005 §5.2.1), so the select has one static width, in order and
/// no wider than [`MAX_WIDTH`](crate::consteval::MAX_WIDTH).
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

/// Checks a replication count: it must be constant (E0201, IEEE
/// 1364-2005 §5.1.14), nonzero and no larger than
/// [`MAX_WIDTH`](crate::consteval::MAX_WIDTH).
fn check_repeat(count: &Expr, consts: &ConstEnv) -> Result<(), DataflowError> {
    let c = eval_const(count, consts)?.to_u64();
    if c == 0 {
        return Err(DataflowError::BadRange("replication count of zero".to_owned()));
    }
    if c > u64::from(crate::consteval::MAX_WIDTH) {
        return Err(DataflowError::BadRange(format!(
            "replication count {c} exceeds the {} bit limit",
            crate::consteval::MAX_WIDTH
        )));
    }
    Ok(())
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
/// sets, checks them and the driver's selects, and tallies how every
/// signal is written.
///
/// A read must name a signal or a constant, a write a signal. The first
/// bad name in name order is kept for the error. Every part select and
/// replication must be constant, in order and not too wide; the first
/// that is not, in driver order, is kept too.
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
    /// The first bad select or replication, with its statement's span.
    bad_select: Option<DataflowError>,
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
            bad_select: None,
            reads: Vec::new(),
            targets: Vec::new(),
            other_targets: Vec::new(),
        }
    }

    /// Notes `name` as bad unless a smaller bad name is already known.
    /// The bad name keeps the span of its first write, even when a read
    /// of it was met first.
    fn note_bad(&mut self, name: &str, write: Option<Span>) {
        match &mut self.bad {
            Some((b, span)) if b.as_str() == name => {
                if span.is_none() {
                    *span = write;
                }
            }
            Some((b, _)) if b.as_str() < name => {}
            _ => self.bad = Some((name.to_owned(), write)),
        }
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

    /// Runs a select check unless an earlier one failed, and keeps its
    /// failure at `span`.
    fn check_select(
        &mut self,
        span: Span,
        check: impl FnOnce(&ConstEnv) -> Result<(), DataflowError>,
    ) {
        if self.bad_select.is_none() {
            self.bad_select = check(self.consts).err().map(|e| e.at(span));
        }
    }

    /// Resolves the names `e` reads and checks its selects and
    /// replications; a bad one is reported at `span`.
    fn expr(&mut self, e: &Expr, span: Span) {
        e.visit(&mut |sub| match sub {
            Expr::Ident(n) | Expr::Index(n, _) => self.read(n),
            Expr::Range(n, msb, lsb) => {
                self.read(n);
                self.check_select(span, |c| check_range_bounds(n, msb, lsb, c));
            }
            Expr::Repeat(count, _) => self.check_select(span, |c| check_repeat(count, c)),
            _ => {}
        });
    }

    /// Resolves `lv`'s targets and the names its indices read, and checks
    /// its selects. A target that is a plain identifier (possibly inside
    /// a concatenation) is written whole.
    fn lvalue(&mut self, lv: &LValue, span: Span) {
        lv.visit_targets(&mut |n, part| {
            self.write(n, matches!(part, LValue::Id(_)), span);
            if let LValue::Range(n, msb, lsb) = part {
                self.check_select(span, |c| check_range_bounds(n, msb, lsb, c));
            }
            part.visit_exprs(&mut |e| self.expr(e, span));
        });
    }

    /// Scans one driver body in a single [`guard::walk`]. `item_span` is
    /// the enclosing item's: it anchors the writes of `for` loop
    /// variables, and a bad select in a condition or a loop header; one in
    /// an assignment or a `$display` carries that statement's span.
    fn body(&mut self, body: &Stmt, item_span: Span) {
        guard::walk(body, &mut Vec::new(), &mut |_, stmt| match stmt {
            Stmt::Assign { lhs, rhs, span, .. } => {
                // Names resolve value first, but a bad select in the
                // target is reported before one in the value.
                let earlier = self.bad_select.take();
                self.expr(rhs, *span);
                let in_rhs = self.bad_select.take();
                self.lvalue(lhs, *span);
                self.bad_select = earlier.or(self.bad_select.take()).or(in_rhs);
            }
            _ => {
                // Loop variables are procedural temporaries; two loops
                // sharing an index name are not conflicting drivers of it.
                if let Stmt::For { var, .. } = stmt {
                    self.write(var, false, item_span);
                }
                let span = match stmt {
                    Stmt::Display { span, .. } => *span,
                    _ => item_span,
                };
                stmt.visit_exprs(&mut |e| self.expr(e, span));
            }
        });
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
