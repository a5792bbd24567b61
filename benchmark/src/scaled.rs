//! Seeded generator of scaled SoC designs built from the testbed modules.
//!
//! A design of `n` tiles instantiates the distinct testbed modules
//! round-robin, in an order drawn from the seed. Tiles are chained: tile
//! `i` drives its non-clock, non-reset inputs from slices of
//! `stim ^ (digest_{i-1} << 1)`, and XOR-folds all of its outputs into the
//! 64-bit `digest_i`. The chain keeps every tile live (the top output is
//! the last digest), and the units, signals and regions grow linearly in
//! `n`, which is what lets the benchmark sweep one design size against
//! another and read off how each layer scales.

use hwdbg_bits::SplitMix64;
use hwdbg_dataflow::{range_width, ConstEnv};
use hwdbg_rtl::Dir;
use hwdbg_testbed::{metadata, BugId};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The top module's name.
pub const TOP: &str = "soc";

/// The top module's clock input.
pub const CLOCK: &str = "clk";

/// The top module's reset input (active high, like every testbed module).
pub const RESET: &str = "rst";

/// The two 64-bit stimulus inputs the benchmark drives every cycle.
pub const STIM: [&str; 2] = ["stim_lo", "stim_hi"];

/// One testbed module a tile can instantiate.
#[derive(Debug, Clone)]
struct TileKind {
    name: String,
    source: &'static str,
    /// Non-clock, non-reset inputs with their widths, in port order.
    inputs: Vec<(String, u32)>,
    /// Outputs with their widths, in port order.
    outputs: Vec<(String, u32)>,
}

/// The distinct testbed modules, in testbed order, parsed once.
fn tile_kinds() -> Result<&'static [TileKind], String> {
    static KINDS: OnceLock<Result<Vec<TileKind>, String>> = OnceLock::new();
    KINDS
        .get_or_init(|| {
            let mut seen = BTreeSet::new();
            let mut kinds = Vec::new();
            for id in BugId::ALL {
                let meta = metadata(id);
                if !seen.insert(meta.top) {
                    continue;
                }
                kinds.push(tile_kind(meta.top, meta.source)?);
            }
            Ok(kinds)
        })
        .as_deref()
        .map_err(Clone::clone)
}

fn tile_kind(top: &str, source: &'static str) -> Result<TileKind, String> {
    let file = hwdbg_rtl::parse(source).map_err(|e| format!("{top}: {e}"))?;
    let module = file
        .module(top)
        .ok_or_else(|| format!("{top}: module not found in its source"))?;
    let env = ConstEnv::new();
    let mut kind = TileKind {
        name: top.to_owned(),
        source,
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    for port in &module.ports {
        let name = port.net.name.clone();
        let width = range_width(&port.net.range, &env).map_err(|e| format!("{top}.{name}: {e}"))?;
        match port.dir {
            Dir::Input if name == CLOCK || name == RESET => {}
            Dir::Input => kind.inputs.push((name, width)),
            Dir::Output => kind.outputs.push((name, width)),
            Dir::Inout => return Err(format!("{top}.{name}: inout ports are not tiled")),
        }
    }
    Ok(kind)
}

/// Verilog source of a seeded SoC of `tiles` tiles (at least 1). The same
/// `(tiles, seed)` always yields the same text.
///
/// # Errors
///
/// Fails if a testbed source no longer parses, or if a testbed module's
/// inputs no longer fit the 128 stimulus bits.
pub fn generate(tiles: usize, seed: u64) -> Result<String, String> {
    let kinds = tile_kinds()?;
    let tiles = tiles.max(1);
    let mut order: Vec<usize> = (0..kinds.len()).collect();
    let mut rng = SplitMix64::new(seed ^ 0x5CA1_ED50_C000_0001);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let kind_of = |tile: usize| &kinds[order[tile % order.len()]];

    let mut out = String::new();
    let mut emitted = BTreeSet::new();
    for t in 0..tiles {
        let k = kind_of(t);
        if emitted.insert(&k.name) {
            out.push_str(k.source);
            out.push('\n');
        }
    }

    let [lo, hi] = STIM;
    let _ = writeln!(
        out,
        "module {TOP} (\n  input {CLOCK},\n  input {RESET},\n  input [63:0] {lo},\n  \
         input [63:0] {hi},\n  output [63:0] digest\n);"
    );
    for t in 0..tiles {
        let k = kind_of(t);
        let _ = writeln!(out, "  // tile {t}: {}", k.name);
        let _ = writeln!(out, "  wire [63:0] x{t};");
        if t == 0 {
            let _ = writeln!(out, "  assign x0 = {lo};");
        } else {
            let _ = writeln!(out, "  assign x{t} = {lo} ^ (d{} << 1);", t - 1);
        }
        for (port, w) in &k.outputs {
            let _ = writeln!(out, "  wire [{}:0] t{t}_{port};", w - 1);
        }
        let mut conns = vec![format!(".{CLOCK}({CLOCK})"), format!(".{RESET}({RESET})")];
        // Inputs take consecutive slices of x, then of the high stimulus
        // word once x is used up; no slice straddles the two.
        let (mut lo_bit, mut hi_bit) = (0u32, 0u32);
        for (port, w) in &k.inputs {
            let (base, at) = if lo_bit + w <= 64 {
                (format!("x{t}"), &mut lo_bit)
            } else if hi_bit + w <= 64 {
                (hi.to_owned(), &mut hi_bit)
            } else {
                return Err(format!("{}: inputs exceed the 128 stimulus bits", k.name));
            };
            let slice = if *w == 1 {
                format!("{base}[{}]", *at)
            } else {
                format!("{base}[{}:{}]", *at + w - 1, *at)
            };
            *at += w;
            conns.push(format!(".{port}({slice})"));
        }
        for (port, _) in &k.outputs {
            conns.push(format!(".{port}(t{t}_{port})"));
        }
        let _ = writeln!(out, "  {} t{t} ({});", k.name, conns.join(", "));

        // XOR-fold the concatenated outputs into 64 bits.
        let width: u32 = k.outputs.iter().map(|(_, w)| w).sum();
        let cat: Vec<String> = k
            .outputs
            .iter()
            .rev()
            .map(|(p, _)| format!("t{t}_{p}"))
            .collect();
        let _ = writeln!(out, "  wire [{}:0] o{t};", width - 1);
        let _ = writeln!(out, "  assign o{t} = {{{}}};", cat.join(", "));
        let chunks: Vec<String> = (0..width.div_ceil(64))
            .map(|c| {
                let top_bit = (c * 64 + 63).min(width - 1);
                format!("o{t}[{top_bit}:{}]", c * 64)
            })
            .collect();
        let _ = writeln!(out, "  wire [63:0] d{t};");
        let _ = writeln!(out, "  assign d{t} = {};", chunks.join(" ^ "));
    }
    let _ = writeln!(out, "  assign digest = d{};\nendmodule", tiles - 1);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdbg_dataflow::{elaborate, Design};
    use hwdbg_ip::StdIpLib;
    use hwdbg_sim::CompiledDesign;

    fn design(tiles: usize, seed: u64) -> Design {
        let src = generate(tiles, seed).unwrap();
        let file = hwdbg_rtl::parse(&src).unwrap();
        elaborate(&file, TOP, &StdIpLib::new()).unwrap()
    }

    fn units(d: &Design) -> usize {
        d.combs.len() + d.procs.len()
    }

    #[test]
    fn same_seed_same_text() {
        assert_eq!(generate(30, 7).unwrap(), generate(30, 7).unwrap());
        assert_ne!(generate(30, 7).unwrap(), generate(30, 8).unwrap());
    }

    #[test]
    fn design_elaborates_and_lowers_fully() {
        let compiled = CompiledDesign::new(design(25, 3)).unwrap();
        let (lowered, total) = compiled.lowering_coverage();
        assert!(total > 0);
        assert_eq!(lowered, total, "every unit must lower to bytecode");
    }

    #[test]
    fn units_grow_linearly_in_tiles() {
        // Whole rounds of the module cycle make the growth exactly linear.
        let m = tile_kinds().unwrap().len();
        let (a, b, c) = (design(m, 1), design(2 * m, 1), design(3 * m, 1));
        assert_eq!(units(&c) - units(&b), units(&b) - units(&a));
        assert_eq!(
            c.signals.len() - b.signals.len(),
            b.signals.len() - a.signals.len()
        );
    }
}
