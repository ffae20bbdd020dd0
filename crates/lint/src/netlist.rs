//! Netlist lints (`SC020`–`SC030`): structural checks over sequential
//! circuits — latch wiring, dead/hidden state, floating inputs, constant
//! outputs, name hygiene and `name[i]` word widths — plus the mapping
//! from BLIF import errors into the diagnostic format.

use crate::codes::*;
use crate::diag::{Diagnostics, LintConfig, Location};
use simcov_netlist::{BlifError, Netlist, NodeKind, SignalId};
use std::collections::BTreeMap;

/// Marks every signal in the combinational fan-in cone of `root` in
/// `seen` (cones stop at latch outputs: a latch boundary separates
/// clock cycles).
fn mark_cone(n: &Netlist, root: SignalId, seen: &mut [bool]) {
    let mut stack = vec![root];
    while let Some(s) = stack.pop() {
        let idx = s.index();
        if idx >= seen.len() || seen[idx] {
            continue;
        }
        seen[idx] = true;
        stack.extend(n.fanin(s));
    }
}

/// The union of the primary outputs' fan-in cones.
fn output_cone(n: &Netlist) -> Vec<bool> {
    let mut seen = vec![false; n.num_nodes()];
    for &(_, s) in n.outputs() {
        mark_cone(n, s, &mut seen);
    }
    seen
}

/// `signal_of_latch[l] = Some(sig)` where `sig` is the `LatchOut` node of
/// latch `l`, if one was ever created.
fn latch_out_signals(n: &Netlist) -> Vec<Option<SignalId>> {
    let mut sigs = vec![None; n.num_latches()];
    for idx in 0..n.num_nodes() {
        if let Some(NodeKind::LatchOut(l)) = n.node_at(idx) {
            // Hash-consing guarantees at most one LatchOut node per latch,
            // but tolerate duplicates by keeping the first.
            let slot = &mut sigs[l.index()];
            if slot.is_none() {
                *slot = n.signal_at(idx);
            }
        }
    }
    sigs
}

/// SC020: a latch with no next-state function (mirrors
/// [`Netlist::check`], with a structured location).
fn latch_without_next(n: &Netlist, out: &mut Diagnostics) {
    for l in n.latches().iter().filter(|l| l.next.is_none()) {
        out.emit(
            &SC020_LATCH_NO_NEXT,
            Location::Latch {
                name: l.name.clone(),
            },
            "no next-state function assigned; the latch holds its initial \
             value forever",
        );
    }
}

/// SC021: structural problems found by [`Netlist::check`] other than
/// missing next functions (dangling signal references).
fn dangling_signals(n: &Netlist, out: &mut Diagnostics) {
    for problem in n.check() {
        if problem.contains("dangling") {
            out.emit(&SC021_DANGLING_SIGNAL, Location::Model, problem);
        }
    }
}

/// Liveness fixpoint: a latch is *live* iff its output signal is in a
/// primary output cone, or in the next-state cone of a live latch.
/// Self-refresh (feeding only its own next function) does not count.
fn live_latches(n: &Netlist) -> Vec<bool> {
    let sigs = latch_out_signals(n);
    let out_cone = output_cone(n);
    let next_cones: Vec<Option<Vec<bool>>> = n
        .latches()
        .iter()
        .map(|l| {
            l.next.map(|nx| {
                let mut seen = vec![false; n.num_nodes()];
                mark_cone(n, nx, &mut seen);
                seen
            })
        })
        .collect();
    let in_cone = |cone: &[bool], sig: Option<SignalId>| sig.is_some_and(|s| cone[s.index()]);
    let mut live: Vec<bool> = sigs.iter().map(|&s| in_cone(&out_cone, s)).collect();
    loop {
        let mut changed = false;
        for l in 0..n.num_latches() {
            if live[l] {
                continue;
            }
            let feeds_live = (0..n.num_latches()).any(|m| {
                m != l
                    && live[m]
                    && next_cones[m]
                        .as_deref()
                        .is_some_and(|c| in_cone(c, sigs[l]))
            });
            if feeds_live {
                live[l] = true;
                changed = true;
            }
        }
        if !changed {
            return live;
        }
    }
}

/// SC022: a latch that feeds neither a primary output nor any live latch.
fn dead_latches(n: &Netlist, out: &mut Diagnostics) {
    let live = live_latches(n);
    for (l, latch) in n.latches().iter().enumerate() {
        if !live[l] {
            out.emit(
                &SC022_DEAD_LATCH,
                Location::Latch {
                    name: latch.name.clone(),
                },
                "latch value influences no primary output, directly or through \
                 other live latches; candidate for removal by abstraction",
            );
        }
    }
}

/// SC027: a live latch whose current value is in no primary output cone —
/// it steers future state but cannot be compared this cycle, the exact
/// shape Requirement 5 exists to repair.
fn hidden_latches(n: &Netlist, out: &mut Diagnostics) {
    let sigs = latch_out_signals(n);
    let out_cone = output_cone(n);
    let live = live_latches(n);
    for (l, latch) in n.latches().iter().enumerate() {
        let directly_observable = sigs[l].is_some_and(|s| out_cone[s.index()]);
        if live[l] && !directly_observable {
            out.emit_with_notes(
                &SC027_HIDDEN_LATCH,
                Location::Latch {
                    name: latch.name.clone(),
                },
                "latch steers future state but appears in no primary output \
                 cone; a transfer error here is invisible until it propagates",
                vec![
                    "Requirement 5: export the latch as an observability output \
                     so tours can compare interaction state directly"
                        .to_string(),
                ],
            );
        }
    }
}

/// SC023: a primary input that reaches no output cone and no latch
/// next-state cone — it constrains nothing.
fn floating_inputs(n: &Netlist, out: &mut Diagnostics) {
    let mut used = output_cone(n);
    for l in n.latches() {
        if let Some(nx) = l.next {
            mark_cone(n, nx, &mut used);
        }
    }
    let mut input_sigs: Vec<Option<usize>> = vec![None; n.num_inputs()];
    for idx in 0..n.num_nodes() {
        if let Some(NodeKind::Input(i)) = n.node_at(idx) {
            input_sigs[i.index()] = Some(idx);
        }
    }
    for (i, name) in n.input_names().enumerate() {
        let floating = match input_sigs[i] {
            Some(idx) => !used[idx],
            None => true,
        };
        if floating {
            out.emit(
                &SC023_FLOATING_INPUT,
                Location::InputPort {
                    name: name.to_string(),
                },
                "input affects no output and no latch; expanded test vectors \
                 cannot be constrained by it",
            );
        }
    }
}

/// SC024: a primary output whose cone contains no input and no latch —
/// it is structurally constant and can never distinguish anything.
fn constant_outputs(n: &Netlist, out: &mut Diagnostics) {
    for (name, sig) in n.outputs() {
        let mut cone = vec![false; n.num_nodes()];
        mark_cone(n, *sig, &mut cone);
        let has_source = (0..n.num_nodes()).any(|idx| {
            cone[idx]
                && matches!(
                    n.node_at(idx),
                    Some(NodeKind::Input(_)) | Some(NodeKind::LatchOut(_))
                )
        });
        if !has_source {
            out.emit(
                &SC024_CONSTANT_OUTPUT,
                Location::OutputPort { name: name.clone() },
                "output depends on no input or latch (structurally constant), \
                 so it contributes nothing to Requirement 3",
            );
        }
    }
}

/// SC025: duplicate names among the union of inputs, outputs and latches.
fn duplicate_names(n: &Netlist, out: &mut Diagnostics) {
    let mut seen: BTreeMap<&str, &'static str> = BTreeMap::new();
    let mut names: Vec<(&str, &'static str)> = Vec::new();
    for name in n.input_names() {
        names.push((name, "input"));
    }
    for (name, _) in n.outputs() {
        names.push((name, "output"));
    }
    for l in n.latches() {
        names.push((&l.name, "latch"));
    }
    for (name, kind) in names {
        if let Some(prev) = seen.insert(name, kind) {
            out.emit(
                &SC025_DUPLICATE_NAME,
                Location::Signal {
                    name: name.to_string(),
                },
                format!(
                    "name used by both a {prev} and a {kind}; by-name \
                     observability checks become ambiguous"
                ),
            );
        }
    }
}

/// Splits `"op[2]"` into `("op", 2)`; `None` for non-indexed names.
fn split_indexed(name: &str) -> Option<(&str, u32)> {
    let open = name.rfind('[')?;
    let inner = name.get(open + 1..name.len() - 1)?;
    if !name.ends_with(']') || inner.is_empty() {
        return None;
    }
    Some((&name[..open], inner.parse().ok()?))
}

/// SC026: `name[i]` bit families whose indices are not exactly
/// `0..width` — a gap or duplicate means a partially wired word.
fn word_width_gaps(n: &Netlist, out: &mut Diagnostics) {
    let mut families: BTreeMap<(&'static str, String), Vec<u32>> = BTreeMap::new();
    for name in n.input_names() {
        if let Some((base, idx)) = split_indexed(name) {
            families
                .entry(("input", base.to_string()))
                .or_default()
                .push(idx);
        }
    }
    for (name, _) in n.outputs() {
        if let Some((base, idx)) = split_indexed(name) {
            families
                .entry(("output", base.to_string()))
                .or_default()
                .push(idx);
        }
    }
    for l in n.latches() {
        if let Some((base, idx)) = split_indexed(&l.name) {
            families
                .entry(("latch", base.to_string()))
                .or_default()
                .push(idx);
        }
    }
    for ((kind, base), mut indices) in families {
        indices.sort_unstable();
        let contiguous = indices
            .iter()
            .enumerate()
            .all(|(i, &idx)| idx as usize == i);
        if !contiguous {
            let got: Vec<String> = indices.iter().map(u32::to_string).collect();
            out.emit(
                &SC026_WORD_WIDTH_GAP,
                Location::Signal {
                    name: format!("{base}[*]"),
                },
                format!(
                    "{kind} word `{base}` has bit indices [{}], expected \
                     contiguous 0..{}",
                    got.join(", "),
                    indices.len()
                ),
            );
        }
    }
}

/// Runs every netlist check over `n` under `config`, in code order,
/// returning the deny-first sorted findings.
pub fn lint_netlist(n: &Netlist, config: &LintConfig) -> Diagnostics {
    let mut out = Diagnostics::new(config.clone());
    latch_without_next(n, &mut out);
    dangling_signals(n, &mut out);
    dead_latches(n, &mut out);
    floating_inputs(n, &mut out);
    constant_outputs(n, &mut out);
    duplicate_names(n, &mut out);
    word_width_gaps(n, &mut out);
    hidden_latches(n, &mut out);
    out.sort_by_severity();
    out
}

/// SC028/SC029/SC030: maps a BLIF import failure into the diagnostic
/// format, so `simcov lint` reports parse-level problems with the same
/// codes and severities as structural ones.
pub fn lint_blif_error(e: &BlifError, out: &mut Diagnostics) {
    match e {
        BlifError::CombinationalCycle(net) => out.emit(
            &SC028_COMBINATIONAL_CYCLE,
            Location::Signal { name: net.clone() },
            "combinational logic through this net forms a cycle not broken by a latch",
        ),
        BlifError::UndefinedNet(net) => out.emit(
            &SC029_UNDEFINED_NET,
            Location::Signal { name: net.clone() },
            "net is referenced but never driven by an input, latch or cover",
        ),
        BlifError::MissingModel => out.emit(
            &SC030_MALFORMED_MODEL_FILE,
            Location::Model,
            "file contains no `.model` declaration",
        ),
        BlifError::Syntax { line, what } => out.emit(
            &SC030_MALFORMED_MODEL_FILE,
            Location::Model,
            format!("syntax error at line {line}: {what}"),
        ),
        BlifError::Unsupported { line, what } => out.emit(
            &SC030_MALFORMED_MODEL_FILE,
            Location::Model,
            format!("unsupported construct at line {line}: {what}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One input, one observable latch, one output: fully clean.
    fn clean_netlist() -> Netlist {
        let mut n = Netlist::new();
        let d = n.add_input("d");
        let q = n.add_latch("q", false);
        n.set_latch_next(q, d);
        let qo = n.latch_output(q);
        n.add_output("q_out", qo);
        n
    }

    #[test]
    fn clean_netlist_is_clean() {
        let d = lint_netlist(&clean_netlist(), &LintConfig::new());
        assert!(d.items().is_empty(), "{}", d.render_text());
    }

    #[test]
    fn latch_without_next_denied() {
        let mut n = clean_netlist();
        n.add_latch("stuck", true);
        let d = lint_netlist(&n, &LintConfig::new());
        assert_eq!(d.with_code("SC020").count(), 1);
        assert!(d.has_denials());
        assert!(d.render_text().contains("latch `stuck`"));
        // The dangling latch is also dead (feeds nothing).
        assert!(d.has_code("SC022"));
    }

    #[test]
    fn dead_latch_detected_through_self_loop() {
        let mut n = clean_netlist();
        // A latch that only refreshes itself is dead despite having fanout.
        let idle = n.add_latch("idle", false);
        let idle_o = n.latch_output(idle);
        n.set_latch_next(idle, idle_o);
        let d = lint_netlist(&n, &LintConfig::new());
        let dead: Vec<_> = d.with_code("SC022").collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("influences no primary output"));
    }

    #[test]
    fn latch_feeding_live_latch_is_live() {
        let mut n = Netlist::new();
        let d_in = n.add_input("d");
        let a = n.add_latch("a", false);
        let b = n.add_latch("b", false);
        n.set_latch_next(a, d_in);
        let ao = n.latch_output(a);
        n.set_latch_next(b, ao);
        let bo = n.latch_output(b);
        n.add_output("o", bo);
        // `a` is not in any output cone but feeds live `b`: live, yet hidden.
        let diags = lint_netlist(&n, &LintConfig::new());
        assert!(!diags.has_code("SC022"));
        let hidden: Vec<_> = diags.with_code("SC027").collect();
        assert_eq!(hidden.len(), 1);
        assert!(matches!(
            &hidden[0].location,
            Location::Latch { name } if name == "a"
        ));
    }

    #[test]
    fn floating_input_warned() {
        let mut n = clean_netlist();
        n.add_input("unused");
        let d = lint_netlist(&n, &LintConfig::new());
        let f: Vec<_> = d.with_code("SC023").collect();
        assert_eq!(f.len(), 1);
        assert!(matches!(
            &f[0].location,
            Location::InputPort { name } if name == "unused"
        ));
    }

    #[test]
    fn constant_output_warned() {
        let mut n = clean_netlist();
        let one = n.constant(true);
        let zero = n.constant(false);
        let c = n.and(one, zero);
        n.add_output("tied", c);
        let d = lint_netlist(&n, &LintConfig::new());
        let f: Vec<_> = d.with_code("SC024").collect();
        assert_eq!(f.len(), 1);
        assert!(matches!(
            &f[0].location,
            Location::OutputPort { name } if name == "tied"
        ));
    }

    #[test]
    fn duplicate_names_warned() {
        let mut n = clean_netlist();
        let x = n.add_input("q"); // collides with the latch name
        let _ = x;
        let d = lint_netlist(&n, &LintConfig::new());
        assert_eq!(d.with_code("SC025").count(), 1);
    }

    #[test]
    fn word_gap_warned_and_contiguous_accepted() {
        let mut n = Netlist::new();
        let b0 = n.add_input("op[0]");
        let b2 = n.add_input("op[2]"); // op[1] missing
        let ok0 = n.add_input("rs[0]");
        let ok1 = n.add_input("rs[1]");
        let a = n.or(b0, b2);
        let b = n.or(ok0, ok1);
        let both = n.or(a, b);
        n.add_output("o", both);
        let d = lint_netlist(&n, &LintConfig::new());
        let f: Vec<_> = d.with_code("SC026").collect();
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("op"));
        assert!(f[0].message.contains("[0, 2]"));
    }

    #[test]
    fn split_indexed_parses() {
        assert_eq!(split_indexed("op[2]"), Some(("op", 2)));
        assert_eq!(split_indexed("plain"), None);
        assert_eq!(split_indexed("x[]"), None);
        assert_eq!(split_indexed("x[a]"), None);
        assert_eq!(split_indexed("a[1][2]"), Some(("a[1]", 2)));
    }

    #[test]
    fn blif_errors_map_to_codes() {
        let mut d = Diagnostics::with_defaults();
        lint_blif_error(&BlifError::MissingModel, &mut d);
        lint_blif_error(&BlifError::UndefinedNet("n1".into()), &mut d);
        lint_blif_error(&BlifError::CombinationalCycle("loop".into()), &mut d);
        lint_blif_error(
            &BlifError::Syntax {
                line: 3,
                what: "bad cover".into(),
            },
            &mut d,
        );
        lint_blif_error(
            &BlifError::Unsupported {
                line: 9,
                what: ".subckt".into(),
            },
            &mut d,
        );
        assert_eq!(d.with_code("SC028").count(), 1);
        assert_eq!(d.with_code("SC029").count(), 1);
        assert_eq!(d.with_code("SC030").count(), 3);
        assert_eq!(d.deny_count(), 5);
    }
}
