//! Handshake-protocol lints: the paper's §3.3.1 circular-dependency
//! deadlocks, both the AXI-specific "VALID waits for READY" rule violation
//! and the general mutual-wait cycle between ready/valid flags.

use crate::analysis::{self, ident_leaf};
use crate::{LintPass, LintSink};
use hwdbg_dataflow::guard;
use hwdbg_dataflow::Design;
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_rtl::{LValue, Span, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// One constant assignment site of a one-bit control flag.
struct ConstSite {
    value_is_one: bool,
    in_reset: bool,
    span: Span,
    /// Positive bare-identifier conjuncts guarding the site.
    positive_deps: BTreeSet<String>,
}

/// A one-bit register whose every whole write is a constant — the shape of
/// a hand-rolled control/handshake flag.
struct Flag {
    sites: Vec<ConstSite>,
}

impl Flag {
    fn set_sites(&self) -> impl Iterator<Item = &ConstSite> {
        self.sites.iter().filter(|s| s.value_is_one && !s.in_reset)
    }

    fn reset_sets_one(&self) -> bool {
        self.sites.iter().any(|s| s.value_is_one && s.in_reset)
    }
}

/// `L0601`/`L0602`: handshake deadlocks.
///
/// - `L0601`: an AXI response VALID (`*bvalid`/`*rvalid`) asserted only
///   when its READY is already high. AXI §A3.3.1 forbids a producer from
///   waiting for READY — against a compliant consumer that waits for VALID,
///   the channel deadlocks.
/// - `L0602`: a cycle of constant-driven flags where each is only set once
///   another is set, none is seeded by reset, and no input-driven path
///   breaks the cycle: no member can ever become 1.
pub struct HandshakePass;

impl LintPass for HandshakePass {
    fn id(&self) -> &'static str {
        "handshake"
    }

    fn codes(&self) -> &'static [ErrorCode] {
        &[
            ErrorCode::LintValidWaitsReady,
            ErrorCode::LintHandshakeDeadlock,
        ]
    }

    fn run(&self, design: &Design, sink: &mut LintSink<'_>) {
        let flags = collect_flags(design);

        // --- L0601: AXI VALID waiting for READY -------------------------
        for (name, flag) in &flags {
            let Some(ready) = axi_ready_counterpart(name) else {
                continue;
            };
            if design.sig_id(&ready).is_none() {
                continue;
            }
            for site in flag.set_sites() {
                if site.positive_deps.contains(&ready) {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintValidWaitsReady,
                            format!(
                                "`{name}` is only asserted once `{ready}` is already \
                                 high; AXI forbids a producer from waiting for READY, \
                                 and a consumer that waits for VALID deadlocks here"
                            ),
                        )
                        .with_span(site.span)
                        .with_signal(name)
                        .with_signal(&ready),
                    );
                }
            }
        }

        // --- L0602: mutual-wait cycles ----------------------------------
        // A flag escapes (can eventually become 1) if reset seeds it, or
        // some set-site's flag dependencies are all escaping (sites with
        // no flag dependency escape via inputs/data). Iterate to fixpoint.
        let mut escaped: BTreeSet<&str> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (name, flag) in &flags {
                if escaped.contains(name.as_str()) {
                    continue;
                }
                let escapes = flag.reset_sets_one()
                    || flag.set_sites().any(|site| {
                        site.positive_deps
                            .iter()
                            .filter(|d| flags.contains_key(*d))
                            .all(|d| escaped.contains(d.as_str()))
                    });
                if escapes {
                    escaped.insert(name);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let stuck: Vec<&str> = flags
            .iter()
            .filter(|(n, f)| !escaped.contains(n.as_str()) && f.set_sites().next().is_some())
            .map(|(n, _)| n.as_str())
            .collect();
        // Report each mutual-wait group once: the cycle members are the
        // stuck flags that appear in another stuck flag's dependencies.
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for &name in &stuck {
            if reported.contains(name) {
                continue;
            }
            // Collect the dependency closure of `name` within the stuck set.
            let mut group: BTreeSet<&str> = BTreeSet::new();
            let mut work = vec![name];
            while let Some(n) = work.pop() {
                if !group.insert(n) {
                    continue;
                }
                if let Some(flag) = flags.get(n) {
                    for site in flag.set_sites() {
                        for d in &site.positive_deps {
                            if stuck.contains(&d.as_str()) {
                                if let Some((k, _)) = flags.get_key_value(d.as_str()) {
                                    work.push(k);
                                }
                            }
                        }
                    }
                }
            }
            reported.extend(group.iter().copied());
            let names: Vec<String> = group.iter().map(|n| format!("`{n}`")).collect();
            let first = group.iter().next().copied().unwrap_or(name);
            let span = flags
                .get(first)
                .and_then(|f| f.set_sites().next())
                .map(|s| s.span);
            let mut err = HwdbgError::warning(
                ErrorCode::LintHandshakeDeadlock,
                format!(
                    "handshake deadlock: {} wait for each other to be set, all \
                     reset to 0, and no other path sets them; none can ever assert",
                    names.join(" and ")
                ),
            )
            .with_signals(group.iter().copied());
            if let Some(span) = span {
                err = err.with_span(span);
            }
            sink.emit(err);
        }
    }
}

/// Collects every one-bit register whose whole writes are all constants.
fn collect_flags(design: &Design) -> BTreeMap<String, Flag> {
    let resets = analysis::reset_inputs(design);
    let mut flags: BTreeMap<String, Flag> = BTreeMap::new();
    let mut disqualified: BTreeSet<String> = BTreeSet::new();
    for proc in &design.procs {
        let mut guards = Vec::new();
        guard::walk(&proc.body, &mut guards, &mut |guards, stmt| {
            let Stmt::Assign { lhs, rhs, span, .. } = stmt else {
                return;
            };
            for name in lhs.target_names() {
                let eligible = design
                    .signal(name)
                    .is_some_and(|s| s.width == 1 && s.mem_depth.is_none() && s.is_state());
                if !eligible {
                    continue;
                }
                let whole = matches!(lhs, LValue::Id(_));
                let cval = analysis::const_value(rhs, design);
                match (whole, cval) {
                    (true, Some(v)) => {
                        let positive_deps = guard::leaves(guards)
                            .iter()
                            .filter_map(ident_leaf)
                            .filter(|(_, positive)| *positive)
                            .map(|(n, _)| n.to_owned())
                            .collect();
                        flags.entry(name.to_owned()).or_insert(Flag { sites: Vec::new() }).sites.push(
                            ConstSite {
                                value_is_one: !v.is_zero(),
                                in_reset: analysis::in_reset(guards, &resets),
                                span: *span,
                                positive_deps,
                            },
                        );
                    }
                    _ => {
                        disqualified.insert(name.to_owned());
                    }
                }
            }
        });
    }
    for name in disqualified {
        flags.remove(&name);
    }
    flags
}

/// For an AXI response VALID name, the READY it must not wait for.
fn axi_ready_counterpart(valid: &str) -> Option<String> {
    for (suffix, ready_suffix) in [("bvalid", "bready"), ("rvalid", "rready")] {
        if let Some(prefix) = valid.strip_suffix(suffix) {
            return Some(format!("{prefix}{ready_suffix}"));
        }
    }
    None
}
