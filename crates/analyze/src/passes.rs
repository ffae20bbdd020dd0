//! `SC05x` lint checks over a completed collapse analysis.
//!
//! The analysis itself never fails on a degenerate fault universe — it
//! just produces a weaker (or misleadingly strong) partition. These
//! checks surface the conditions a campaign author should know about
//! through the standard `simcov-lint` pipeline, with the same severity
//! policy, text/JSON rendering and CI-gating story as the model and
//! netlist families:
//!
//! * `SC050` — a cell's transfer-fault bisimulation exceeded the node
//!   budget, so its faults stay singletons (collapse-blocking
//!   ambiguity: raise `max_nodes_per_cell` or shrink the model);
//! * `SC051` — a class of no-op faults: the patched machine *is* the
//!   golden machine, so the faults are undetectable by construction and
//!   inflate escape counts;
//! * `SC052` — faults on unreachable states: never excited, never
//!   detected — dead weight in the fault universe.

use crate::collapse::CollapseAnalysis;
use simcov_core::error_model::{Fault, FaultKind};
use simcov_core::ClassKind;
use simcov_fsm::ExplicitMealy;
use simcov_lint::codes::{
    SC050_COLLAPSE_AMBIGUITY, SC051_INEFFECTIVE_FAULT_CLASS, SC052_UNREACHABLE_FAULT_CLASS,
};
use simcov_lint::{Diagnostics, LintConfig, Location};

/// What the `SC05x` checks lint: a machine, its fault universe and the
/// collapse analysis computed over them.
pub struct AnalyzeTarget<'a> {
    /// The golden machine the analysis ran over.
    pub machine: &'a ExplicitMealy,
    /// The fault universe, in certificate order.
    pub faults: &'a [Fault],
    /// The completed analysis.
    pub analysis: &'a CollapseAnalysis,
}

/// SC050: cells whose bisimulation exceeded the node budget.
fn collapse_ambiguity(t: &AnalyzeTarget<'_>, out: &mut Diagnostics) {
    for &(s, i) in &t.analysis.ambiguous_cells {
        let stuck = t
            .faults
            .iter()
            .filter(|f| {
                f.state == s
                    && f.input == i
                    && matches!(f.kind, FaultKind::Transfer { .. })
                    && f.is_effective(t.machine)
            })
            .count();
        out.emit(
            &SC050_COLLAPSE_AMBIGUITY,
            Location::Transition {
                state: t.machine.state_label(s).to_string(),
                input: t.machine.input_label(i).to_string(),
            },
            format!(
                "transfer-fault bisimulation exceeded the node budget; \
                 {stuck} fault(s) stay singletons"
            ),
        );
    }
}

/// SC051: classes of no-op faults.
fn ineffective_fault_classes(t: &AnalyzeTarget<'_>, out: &mut Diagnostics) {
    let cert = &t.analysis.certificate;
    for (c, &kind) in cert.kinds().iter().enumerate() {
        if kind != ClassKind::Ineffective {
            continue;
        }
        let members = cert.members(c as u32);
        let f = &t.faults[members[0] as usize];
        out.emit(
            &SC051_INEFFECTIVE_FAULT_CLASS,
            Location::Transition {
                state: t.machine.state_label(f.state).to_string(),
                input: t.machine.input_label(f.input).to_string(),
            },
            format!(
                "{} no-op fault(s) at this cell: the patched machine equals \
                 the golden machine, so no test set can detect them",
                members.len()
            ),
        );
    }
}

/// SC052: the global class of faults on unreachable states.
fn unreachable_fault_classes(t: &AnalyzeTarget<'_>, out: &mut Diagnostics) {
    let cert = &t.analysis.certificate;
    let Some(c) = cert
        .kinds()
        .iter()
        .position(|&k| k == ClassKind::Unreachable)
    else {
        return;
    };
    let members = cert.members(c as u32);
    let mut states: Vec<&str> = Vec::new();
    for &idx in members {
        let label = t.machine.state_label(t.faults[idx as usize].state);
        if !states.contains(&label) {
            states.push(label);
        }
    }
    let mut listed: Vec<String> = states.iter().take(4).map(|s| format!("`{s}`")).collect();
    if states.len() > 4 {
        listed.push(format!("... {} more", states.len() - 4));
    }
    out.emit_with_notes(
        &SC052_UNREACHABLE_FAULT_CLASS,
        Location::Model,
        format!(
            "{} fault(s) target unreachable states and can never be \
             excited, detected or masked",
            members.len()
        ),
        vec![format!("states: {}", listed.join(", "))],
    );
}

/// Runs every `SC05x` check over `target` under `config`, in code order,
/// returning the deny-first sorted findings.
pub fn lint_analysis(target: &AnalyzeTarget<'_>, config: &LintConfig) -> Diagnostics {
    let mut out = Diagnostics::new(config.clone());
    collapse_ambiguity(target, &mut out);
    ineffective_fault_classes(target, &mut out);
    unreachable_fault_classes(target, &mut out);
    out.sort_by_severity();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::{analyze_collapse, AnalyzeOptions};
    use simcov_fsm::{InputSym, MealyBuilder, OutputSym, StateId};

    /// Reset `a` with a self-loop cell, plus two unreachable states.
    fn fixture() -> (ExplicitMealy, Vec<Fault>) {
        let mut b = MealyBuilder::new();
        let a = b.add_state("a");
        let bb = b.add_state("b");
        let u1 = b.add_state("u1");
        let u2 = b.add_state("u2");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let o0 = b.add_output("o0");
        let o1 = b.add_output("o1");
        b.add_transition(a, x, bb, o0);
        b.add_transition(a, y, a, o0);
        b.add_transition(bb, x, a, o1);
        b.add_transition(bb, y, bb, o0);
        b.add_transition(u1, x, a, o0);
        b.add_transition(u1, y, u1, o1);
        b.add_transition(u2, x, a, o0);
        b.add_transition(u2, y, u2, o1);
        let m = b.build(a).unwrap();
        let faults = vec![
            // Effective transfers at (a, x): targets u1 / u2 / a.
            Fault {
                state: a,
                input: x,
                kind: FaultKind::Transfer { new_next: u1 },
            },
            Fault {
                state: a,
                input: x,
                kind: FaultKind::Transfer { new_next: u2 },
            },
            Fault {
                state: a,
                input: x,
                kind: FaultKind::Transfer { new_next: a },
            },
            // No-op at (a, y).
            Fault {
                state: a,
                input: y,
                kind: FaultKind::Transfer { new_next: a },
            },
            // On unreachable states.
            Fault {
                state: u1,
                input: x,
                kind: FaultKind::Output {
                    new_output: OutputSym(1),
                },
            },
            Fault {
                state: u2,
                input: y,
                kind: FaultKind::Transfer { new_next: a },
            },
        ];
        (m, faults)
    }

    #[test]
    fn passes_fire_on_each_degenerate_condition() {
        let (m, faults) = fixture();
        let opts = AnalyzeOptions {
            max_nodes_per_cell: 1, // force SC050 on (a, x)
        };
        let analysis = analyze_collapse(&m, &faults, &opts).unwrap();
        let target = AnalyzeTarget {
            machine: &m,
            faults: &faults,
            analysis: &analysis,
        };
        let report = lint_analysis(&target, &LintConfig::new());
        assert!(report.has_code("SC050"));
        assert!(report.has_code("SC051"));
        assert!(report.has_code("SC052"));
        assert!(!report.has_denials(), "all SC05x default to warn");
        let sc050 = report.with_code("SC050").next().unwrap();
        assert!(sc050.message.contains("3 fault(s)"), "{}", sc050.message);
        let sc052 = report.with_code("SC052").next().unwrap();
        assert!(sc052.notes[0].contains("`u1`"), "{:?}", sc052.notes);
        assert!(sc052.notes[0].contains("`u2`"), "{:?}", sc052.notes);
    }

    #[test]
    fn clean_universe_yields_no_findings() {
        let (m, _) = fixture();
        // Only effective faults on reachable states, generous budget.
        let faults = vec![
            Fault {
                state: StateId(0),
                input: InputSym(0),
                kind: FaultKind::Output {
                    new_output: OutputSym(1),
                },
            },
            Fault {
                state: StateId(1),
                input: InputSym(0),
                kind: FaultKind::Transfer {
                    new_next: StateId(1),
                },
            },
        ];
        let analysis = analyze_collapse(&m, &faults, &AnalyzeOptions::default()).unwrap();
        let target = AnalyzeTarget {
            machine: &m,
            faults: &faults,
            analysis: &analysis,
        };
        let report = lint_analysis(&target, &LintConfig::new());
        assert!(report.items().is_empty(), "{}", report.render_text());
    }

    #[test]
    fn every_finding_carries_a_registered_sc05x_code() {
        let (m, faults) = fixture();
        let opts = AnalyzeOptions {
            max_nodes_per_cell: 0, // every cell with transfer faults: SC050
        };
        let analysis = analyze_collapse(&m, &faults, &opts).unwrap();
        let target = AnalyzeTarget {
            machine: &m,
            faults: &faults,
            analysis: &analysis,
        };
        let report = lint_analysis(&target, &LintConfig::new());
        let mut fired: Vec<&str> = report.items().iter().map(|d| d.code.code).collect();
        fired.dedup();
        assert_eq!(fired, ["SC050", "SC051", "SC052"]);
        for d in report.items() {
            let code = d.code.code;
            let registered = simcov_lint::find_code(code);
            assert!(
                registered.is_some_and(|r| std::ptr::eq(r, d.code)),
                "{code} must be the registered static"
            );
            assert!(("SC050"..="SC052").contains(&code), "{code} is not SC05x");
        }
    }
}
