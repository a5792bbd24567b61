//! Handshake-protocol lints: the paper's §3.3.1 circular-dependency
//! deadlocks, both the AXI-specific "VALID waits for READY" rule violation
//! and the general mutual-wait cycle between ready/valid flags.

use crate::analysis::{flag_writes, FlagWrite, Resets};
use crate::{LintPass, LintSink};
use hwdbg_dataflow::{Design, SigId};
use hwdbg_diag::{ErrorCode, HwdbgError};
use std::collections::BTreeSet;

/// The writes that set a flag outside reset.
fn set_sites(writes: &[FlagWrite]) -> impl Iterator<Item = &FlagWrite> {
    writes
        .iter()
        .filter(|s| s.value == Some(true) && !s.in_reset)
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
        // Flags whose every write is whole and constant.
        let mut flags = flag_writes(design, &Resets::of(design));
        flags.retain(|_, writes| writes.iter().all(|w| w.value.is_some()));

        // --- L0601: AXI VALID waiting for READY -------------------------
        for (&id, flag) in &flags {
            let name = design.table.name(id);
            let Some(ready_id) = axi_ready_counterpart(design, name) else {
                continue;
            };
            let ready = design.table.name(ready_id);
            for site in set_sites(flag) {
                if site.positive_deps.contains(&ready_id) {
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
                        .with_signal(ready),
                    );
                }
            }
        }

        // --- L0602: mutual-wait cycles ----------------------------------
        // A flag escapes (can eventually become 1) if reset seeds it, or
        // some set-site's flag dependencies are all escaping (sites with
        // no flag dependency escape via inputs/data). Iterate to fixpoint.
        let mut escaped: BTreeSet<SigId> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (&id, flag) in &flags {
                if escaped.contains(&id) {
                    continue;
                }
                let escapes = flag.iter().any(|s| s.value == Some(true) && s.in_reset)
                    || set_sites(flag).any(|site| {
                        site.positive_deps
                            .iter()
                            .filter(|d| flags.contains_key(*d))
                            .all(|d| escaped.contains(d))
                    });
                if escapes {
                    escaped.insert(id);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let stuck: Vec<SigId> = flags
            .iter()
            .filter(|(id, f)| !escaped.contains(*id) && set_sites(f).next().is_some())
            .map(|(&id, _)| id)
            .collect();
        // Report each mutual-wait group once: the cycle members are the
        // stuck flags that appear in another stuck flag's dependencies.
        let mut reported: BTreeSet<SigId> = BTreeSet::new();
        for &id in &stuck {
            if reported.contains(&id) {
                continue;
            }
            // Collect the dependency closure of `id` within the stuck set.
            let mut group: BTreeSet<SigId> = BTreeSet::new();
            let mut work = vec![id];
            while let Some(n) = work.pop() {
                if !group.insert(n) {
                    continue;
                }
                for site in set_sites(&flags[&n]) {
                    work.extend(site.positive_deps.iter().filter(|d| stuck.contains(d)));
                }
            }
            reported.extend(group.iter().copied());
            let names: Vec<&str> = group.iter().map(|&g| design.table.name(g)).collect();
            let quoted: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
            let span = group
                .first()
                .and_then(|g| set_sites(&flags[g]).next())
                .map(|s| s.span);
            let mut err = HwdbgError::warning(
                ErrorCode::LintHandshakeDeadlock,
                format!(
                    "handshake deadlock: {} wait for each other to be set, all \
                     reset to 0, and no other path sets them; none can ever assert",
                    quoted.join(" and ")
                ),
            )
            .with_signals(names);
            if let Some(span) = span {
                err = err.with_span(span);
            }
            sink.emit(err);
        }
    }
}

/// For an AXI response VALID name, the READY signal it must not wait for.
fn axi_ready_counterpart(design: &Design, valid: &str) -> Option<SigId> {
    for (suffix, ready_suffix) in [("bvalid", "bready"), ("rvalid", "rready")] {
        if let Some(prefix) = valid.strip_suffix(suffix) {
            return design.sig_id(&format!("{prefix}{ready_suffix}"));
        }
    }
    None
}
