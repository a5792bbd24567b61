//! Levelized static scheduling for the settle loop.
//!
//! At compile time the combinational dependency graph is partitioned into
//! **acyclic regions**: Tarjan SCC finds the cyclic components, every unit
//! outside one is topologically levelized, and the weakly-connected
//! components of the remaining acyclic subgraph become regions. Each
//! region's member bodies are fused into one straight-line [`BcProgram`]
//! in rank order — no worklist, no per-unit dispatch — and signals that
//! are written by exactly one member (via an unconditional plain assign)
//! and read only inside the region are *promoted* to pinned bytecode
//! registers: reads cost nothing, writes skip change detection and only
//! blind-flush the slot so external observers (VCD, `peek`, partial-bit
//! reads) stay coherent.
//!
//! Cyclic SCCs, self-looping units, units that can `$finish`, regions where
//! promotion found no eligible signal (fusion without promotion trades away
//! change-detection early-outs for nothing), regions too large for one
//! program, and all blackboxes stay on the worklist, each unit on its own
//! per-unit program; the engine's settle loop dispatches over **nodes**
//! (regions first, then fallback units) so both tiers share one budget,
//! one deadline probe, and one convergence argument. See DESIGN.md §7,
//! "Static scheduling and region fusion".

use crate::bytecode::{lower_region, BcProgram, NO_PROMOTION};
use crate::compile::{CLValue, CStmt, Compiled};
use hwdbg_dataflow::{tarjan_scc as tarjan, Design, SigId};

/// One fused acyclic region.
#[derive(Debug)]
pub(crate) struct Region {
    /// The members' bodies lowered as one program, in rank order.
    pub prog: BcProgram,
    /// Member comb-unit indices, sorted by (level, unit id) — a
    /// topological order of the intra-region dependencies.
    pub members: Vec<u32>,
    /// Signals promoted to pinned registers (pin i ↔ `promoted[i]`).
    pub promoted: Vec<SigId>,
}

/// The static schedule: fused regions plus the node-space maps the
/// engine's two-tier dispatcher runs over. Node ids `0..regions.len()`
/// are regions; the rest are fallback units.
#[derive(Debug)]
pub(crate) struct Schedule {
    pub regions: Vec<Region>,
    /// Unit index → node id.
    pub unit_node: Vec<u32>,
    /// `node_unit[node - regions.len()]` → fallback unit index.
    pub node_unit: Vec<u32>,
    /// Signal index → deduped reader node ids.
    pub node_readers: Vec<Vec<u32>>,
    /// Signal index → region id whose pinned register holds it, or
    /// [`NO_PROMOTION`]. A force on such a signal demotes the region.
    pub promoted_region: Vec<u32>,
    /// Deepest level in the acyclic subgraph (0 when nothing fused).
    pub max_level: u32,
}

impl Schedule {
    pub fn n_nodes(&self) -> usize {
        self.regions.len() + self.node_unit.len()
    }

    /// Total signals promoted out of `SimState` slots.
    pub fn fused_signals(&self) -> usize {
        self.regions.iter().map(|r| r.promoted.len()).sum()
    }
}

/// If `body` is (a block of blocks around) a single unconditional
/// blocking whole-signal assign, the target signal. This is the shape a
/// comb driver must have for its output to be register-promotable: the
/// write always happens, exactly once, before any higher-ranked reader.
fn plain_assign_target(body: &CStmt) -> Option<SigId> {
    let mut s = body;
    loop {
        match s {
            CStmt::Block(inner) if inner.len() == 1 => s = &inner[0],
            CStmt::Assign { lhs: CLValue::Sig { id, .. }, nonblocking: false, .. } => {
                return Some(*id);
            }
            _ => return None,
        }
    }
}

/// Builds the static schedule for `compiled`, the compiled form of
/// `design`. `comb_progs` holds the per-unit lowered programs (index =
/// comb unit).
pub(crate) fn build_schedule(
    design: &Design,
    compiled: &Compiled,
    comb_progs: &[BcProgram],
) -> Schedule {
    let n_combs = compiled.combs.len();
    let n_units = compiled.n_units();
    let n_sigs = compiled.readers.len();

    // Comb-only dependency graph: writer → reader per shared signal, as
    // sorted, deduplicated successor lists (`readers`/`writers` entries
    // for comb units may repeat). Self-edges are tracked separately.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_combs];
    let mut self_loop = vec![false; n_combs];
    for s in 0..n_sigs {
        for &w in &compiled.writers[s] {
            let w = w as usize;
            if w >= n_combs {
                continue;
            }
            for &r in &compiled.readers[s] {
                let r = r as usize;
                if w == r {
                    self_loop[w] = true;
                } else {
                    adj[w].push(r);
                }
            }
        }
    }
    for next in &mut adj {
        next.sort_unstable();
        next.dedup();
    }

    // A unit is fusable iff it sits outside every cycle and its program
    // cannot `$finish`.
    let mut fusable = vec![false; n_combs];
    for comp in tarjan(&adj) {
        if comp.len() > 1 {
            continue;
        }
        let u = comp[0];
        fusable[u] = !self_loop[u] && !comb_progs[u].has_finish();
    }
    // A multi-driven signal's final value depends on writer execution
    // order; fused rank order can differ from the worklist's unit-index
    // pop order, so every comb writer of such a signal stays on the
    // fallback (which pops in exactly the worklist's order).
    for ws in &compiled.writers {
        if ws.iter().any(|&w| w != ws[0]) {
            for &w in ws {
                if (w as usize) < n_combs {
                    fusable[w as usize] = false;
                }
            }
        }
    }

    // Longest-path levels over the fusable subgraph (acyclic by
    // construction), via Kahn's algorithm.
    let mut level = vec![0u32; n_combs];
    let mut indeg = vec![0usize; n_combs];
    for u in 0..n_combs {
        if !fusable[u] {
            continue;
        }
        for &v in &adj[u] {
            if fusable[v] {
                indeg[v] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n_combs).filter(|&u| fusable[u] && indeg[u] == 0).collect();
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        for &v in &adj[u] {
            if !fusable[v] {
                continue;
            }
            level[v] = level[v].max(level[u] + 1);
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    let max_level = (0..n_combs).filter(|&u| fusable[u]).map(|u| level[u]).max().unwrap_or(0);

    // Regions = weakly-connected components of the fusable subgraph.
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n_combs];
    for (u, next) in adj.iter().enumerate() {
        for &v in next {
            radj[v].push(u);
        }
    }
    let mut region_of = vec![usize::MAX; n_combs];
    let mut proto_regions: Vec<Vec<u32>> = Vec::new();
    for start in 0..n_combs {
        if !fusable[start] || region_of[start] != usize::MAX {
            continue;
        }
        let rid = proto_regions.len();
        let mut members = Vec::new();
        let mut bfs = vec![start];
        region_of[start] = rid;
        while let Some(u) = bfs.pop() {
            members.push(u as u32);
            for &v in adj[u].iter().chain(&radj[u]) {
                if fusable[v] && region_of[v] == usize::MAX {
                    region_of[v] = rid;
                    bfs.push(v);
                }
            }
        }
        members.sort_unstable_by_key(|&u| (level[u as usize], u));
        proto_regions.push(members);
    }

    // Register promotion: a signal moves into a pinned register iff it is
    // ≤ 64 bits, written by exactly one unit — an unconditional plain
    // whole-signal assign inside a region — and every reader is a comb
    // member of that same region. (Memories and concat/slice targets
    // never match the plain-assign shape; clocked processes read flushed
    // state, so they impose no constraint.)
    let mut promoted_region = vec![NO_PROMOTION; n_sigs];
    let mut region_promoted: Vec<Vec<SigId>> = vec![Vec::new(); proto_regions.len()];
    let mut scratch: Vec<u32> = Vec::new();
    let dedup = |v: &[u32], scratch: &mut Vec<u32>| {
        scratch.clear();
        scratch.extend_from_slice(v);
        scratch.sort_unstable();
        scratch.dedup();
    };
    for (s, sig_readers) in compiled.readers.iter().enumerate() {
        if design.signals[SigId::from_index(s)].width > 64 {
            continue;
        }
        dedup(&compiled.writers[s], &mut scratch);
        let &[u] = scratch.as_slice() else { continue };
        let u = u as usize;
        if u >= n_combs || !fusable[u] {
            continue;
        }
        if plain_assign_target(&compiled.combs[u].body) != Some(SigId::from_index(s)) {
            continue;
        }
        let rid = region_of[u];
        dedup(sig_readers, &mut scratch);
        let internal = scratch
            .iter()
            .all(|&r| fusable[r as usize] && region_of[r as usize] == rid);
        if !internal {
            continue;
        }
        // Pins must fit u16 registers with room left for temporaries.
        if region_promoted[rid].len() >= 4096 {
            continue;
        }
        promoted_region[s] = rid as u32;
        region_promoted[rid].push(SigId::from_index(s));
    }

    // Fuse each region; a region that fails to lower as a whole (register
    // or constant-table pressure) demotes all its members to the worklist
    // fallback and releases its promotions. Fusion is also a trade: it
    // removes per-unit dispatch and (via promotion) state traffic, but
    // gives up the worklist's intra-region change-detection early-out — a
    // fused region always runs every member. When promotion found nothing
    // (e.g. every signal is wider than 64 bits), the trade is a pure loss,
    // so zero-promotion regions stay on the fallback.
    let mut regions: Vec<Region> = Vec::new();
    let mut kept_rid = vec![usize::MAX; proto_regions.len()];
    let mut promo_map = vec![NO_PROMOTION; n_sigs];
    for (rid, members) in proto_regions.iter().enumerate() {
        let promoted = &region_promoted[rid];
        if promoted.is_empty() {
            for &u in members {
                fusable[u as usize] = false;
            }
            continue;
        }
        for (pin, sig) in promoted.iter().enumerate() {
            promo_map[sig.index()] = pin as u32;
        }
        let bodies: Vec<&CStmt> =
            members.iter().map(|&u| &compiled.combs[u as usize].body).collect();
        let prog = lower_region(&bodies, promoted.len(), &promo_map);
        for sig in promoted {
            promo_map[sig.index()] = NO_PROMOTION;
        }
        match prog {
            Ok(prog) => {
                kept_rid[rid] = regions.len();
                regions.push(Region {
                    prog,
                    members: members.clone(),
                    promoted: promoted.clone(),
                });
            }
            Err(_) => {
                for &u in members {
                    fusable[u as usize] = false;
                }
                for sig in promoted {
                    promoted_region[sig.index()] = NO_PROMOTION;
                }
            }
        }
    }
    // Rewrite promoted_region from proto ids to kept ids.
    for slot in &mut promoted_region {
        if *slot != NO_PROMOTION {
            *slot = kept_rid[*slot as usize] as u32;
        }
    }

    // Node numbering: regions first, then every fallback unit (non-fused
    // combs and all blackboxes) in unit order.
    let n_regions = regions.len();
    let mut unit_node = vec![0u32; n_units];
    let mut node_unit = Vec::new();
    for u in 0..n_units {
        if u < n_combs && fusable[u] {
            unit_node[u] = kept_rid[region_of[u]] as u32;
        } else {
            unit_node[u] = (n_regions + node_unit.len()) as u32;
            node_unit.push(u as u32);
        }
    }

    // Signal → reader nodes, deduped (a region appears once however many
    // members read the signal).
    let mut node_readers: Vec<Vec<u32>> = vec![Vec::new(); n_sigs];
    for (slot, sig_readers) in node_readers.iter_mut().zip(&compiled.readers) {
        dedup(sig_readers, &mut scratch);
        let mut nodes: Vec<u32> =
            scratch.iter().map(|&u| unit_node[u as usize]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        *slot = nodes;
    }

    Schedule { regions, unit_node, node_unit, node_readers, promoted_region, max_level }
}
