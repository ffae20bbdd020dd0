//! Abstraction lints (`SC040`–`SC042`): checks over a quotient map
//! applied to a concrete machine — width sanity, transition preservation
//! (the property that makes ∀k-distinguishability inherit downward,
//! Sec 6.2), and the paper's over-abstraction measure (Requirement 1
//! breaking under the map, Sec 6.3).

use crate::codes::*;
use crate::diag::{Diagnostics, LintConfig, Location};
use simcov_abstraction::{build_quotient, Quotient, QuotientError};
use simcov_core::check_req1_uniform_outputs;
use simcov_fsm::ExplicitMealy;

/// What the abstraction lints run over: a concrete machine and a proposed
/// quotient map.
pub struct QuotientTarget<'a> {
    /// The concrete machine.
    pub concrete: &'a ExplicitMealy,
    /// The candidate abstraction map.
    pub quotient: &'a Quotient,
}

/// Conflict witnesses rendered per abstract class before collapsing.
const MAX_CONFLICT_WITNESSES: usize = 4;

/// Runs the abstraction lints over `target` under `config`.
///
/// The three checks share one `build_quotient` call (the conflicts it
/// collects *are* the lint findings), so they run inline here rather
/// than as one function per code:
///
/// * **SC040** — the class vectors do not fit the machine; nothing else
///   can run, so this is the only finding when it fires.
/// * **SC041** — transition conflicts: two concrete transitions in the
///   same abstract `(state, input)` class disagree on the abstract next
///   state, so the map is not a homomorphism and Theorem 1 results do
///   not transfer.
/// * **SC042** — output conflicts: the abstract machine's outputs are
///   nondeterministic, i.e. Requirement 1 (uniform output errors) breaks
///   under the map — the paper's tell-tale of having abstracted too much.
pub fn lint_quotient(target: &QuotientTarget<'_>, config: &LintConfig) -> Diagnostics {
    let mut out = Diagnostics::new(config.clone());
    let result = match build_quotient(target.concrete, target.quotient) {
        Ok(r) => r,
        Err(QuotientError::WidthMismatch { which }) => {
            out.emit(
                &SC040_QUOTIENT_WIDTH_MISMATCH,
                Location::Model,
                format!(
                    "{which} class vector length does not match the machine \
                     ({} states, {} inputs, {} outputs)",
                    target.concrete.num_states(),
                    target.concrete.num_inputs(),
                    target.concrete.num_outputs()
                ),
            );
            return out;
        }
    };
    let m = target.concrete;
    let total_t = result.transition_conflicts.len();
    for c in result
        .transition_conflicts
        .iter()
        .take(MAX_CONFLICT_WITNESSES)
    {
        let (s1, i1, n1) = c.first;
        let (s2, i2, n2) = c.second;
        out.emit_with_notes(
            &SC041_NON_HOMOMORPHIC_MAP,
            Location::AbstractClass { class: c.abs_state },
            format!(
                "transitions `{}` --{}--> and `{}` --{}--> land in different \
                 abstract states A{n1} vs A{n2}",
                m.state_label(s1),
                m.input_label(i1),
                m.state_label(s2),
                m.input_label(i2)
            ),
            vec![format!(
                "{total_t} transition conflict{} in total under abstract input \
                 class I{}; the map does not preserve the transition relation \
                 (Sec 6.2), so abstract-level tours prove nothing concrete",
                if total_t == 1 { "" } else { "s" },
                c.abs_input
            )],
        );
    }
    // Req 1 under the quotient: the dedicated checker and the builder's
    // output conflicts agree; use the checker so the lint wraps the same
    // entry point the validation pipeline does.
    // Width mismatch is impossible here: `build_quotient` above already
    // validated the dimensions, so only output conflicts can surface.
    if let Err(simcov_core::Req1Violation::OutputConflicts(conflicts)) =
        check_req1_uniform_outputs(m, target.quotient)
    {
        let total_o = conflicts.len();
        for c in conflicts.iter().take(MAX_CONFLICT_WITNESSES) {
            let (s1, i1, o1) = c.first;
            let (s2, i2, o2) = c.second;
            out.emit_with_notes(
                &SC042_OVER_ABSTRACTION,
                Location::AbstractClass { class: c.abs_state },
                format!(
                    "`{}` --{}--> emits O{o1} but `{}` --{}--> emits O{o2} in the \
                     same abstract (state, input) class",
                    m.state_label(s1),
                    m.input_label(i1),
                    m.state_label(s2),
                    m.input_label(i2)
                ),
                vec![format!(
                    "{total_o} output conflict{} in total; Requirement 1 breaks \
                     under this map — the paper's measure of over-abstraction \
                     (Sec 6.3). Refine the output classes or split abstract \
                     state A{}",
                    if total_o == 1 { "" } else { "s" },
                    c.abs_state
                )],
            );
        }
    }
    out.sort_by_severity();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_fsm::MealyBuilder;

    /// Mod-4 counter: output is the low bit of the state.
    fn counter4() -> ExplicitMealy {
        let mut b = MealyBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_state(format!("s{i}"))).collect();
        let tick = b.add_input("tick");
        let lo = b.add_output("lo");
        let hi = b.add_output("hi");
        for i in 0..4 {
            let out = if i % 2 == 0 { lo } else { hi };
            b.add_transition(s[i], tick, s[(i + 1) % 4], out);
        }
        b.build(s[0]).unwrap()
    }

    #[test]
    fn identity_quotient_is_clean() {
        let m = counter4();
        let q = Quotient::identity(&m);
        let d = lint_quotient(
            &QuotientTarget {
                concrete: &m,
                quotient: &q,
            },
            &LintConfig::new(),
        );
        assert!(d.items().is_empty(), "{}", d.render_text());
    }

    #[test]
    fn parity_quotient_is_homomorphic() {
        let m = counter4();
        // Merge states by parity: {s0,s2} -> A0, {s1,s3} -> A1. Successors
        // and outputs agree within each class, so the map is clean.
        let q = Quotient {
            state_class: vec![0, 1, 0, 1],
            input_class: vec![0],
            output_class: vec![0, 1],
        };
        let d = lint_quotient(
            &QuotientTarget {
                concrete: &m,
                quotient: &q,
            },
            &LintConfig::new(),
        );
        assert!(d.items().is_empty(), "{}", d.render_text());
    }

    #[test]
    fn width_mismatch_denied_alone() {
        let m = counter4();
        let q = Quotient {
            state_class: vec![0, 0], // wrong length
            input_class: vec![0],
            output_class: vec![0, 0],
        };
        let d = lint_quotient(
            &QuotientTarget {
                concrete: &m,
                quotient: &q,
            },
            &LintConfig::new(),
        );
        assert_eq!(d.items().len(), 1);
        assert!(d.has_code("SC040"));
        assert!(d.has_denials());
    }

    #[test]
    fn collapsing_all_states_breaks_homomorphism_and_req1() {
        let m = counter4();
        // One abstract state, outputs kept distinct: successors still agree
        // (A0 -> A0) but outputs within the merged (state, input) class
        // differ, so Req 1 breaks (over-abstraction) without a transition
        // conflict.
        let q = Quotient {
            state_class: vec![0, 0, 0, 0],
            input_class: vec![0],
            output_class: vec![0, 1],
        };
        let d = lint_quotient(
            &QuotientTarget {
                concrete: &m,
                quotient: &q,
            },
            &LintConfig::new(),
        );
        assert!(!d.has_code("SC041"));
        assert!(d.has_code("SC042"));
        assert!(!d.has_denials(), "over-abstraction is a warning");
        let f: Vec<_> = d.with_code("SC042").collect();
        assert!(f[0].notes[0].contains("Sec 6.3"));
    }

    #[test]
    fn bad_state_merge_is_non_homomorphic() {
        let m = counter4();
        // Merge s0 with s1 but keep s2, s3 separate: successors of the
        // merged class diverge (s0 -> s1=A0, s1 -> s2=A1).
        let q = Quotient {
            state_class: vec![0, 0, 1, 2],
            input_class: vec![0],
            output_class: vec![0, 0],
        };
        let d = lint_quotient(
            &QuotientTarget {
                concrete: &m,
                quotient: &q,
            },
            &LintConfig::new(),
        );
        assert!(d.has_code("SC041"));
        assert!(d.has_denials());
        let f: Vec<_> = d.with_code("SC041").collect();
        assert!(matches!(
            f[0].location,
            Location::AbstractClass { class: 0 }
        ));
    }

    #[test]
    fn witnesses_capped_but_total_reported() {
        // 12-state counter fully collapsed with distinct outputs: many
        // output conflicts, only MAX_CONFLICT_WITNESSES rendered.
        let mut b = MealyBuilder::new();
        let s: Vec<_> = (0..12).map(|i| b.add_state(format!("s{i}"))).collect();
        let tick = b.add_input("tick");
        let outs: Vec<_> = (0..12).map(|i| b.add_output(format!("o{i}"))).collect();
        for i in 0..12 {
            b.add_transition(s[i], tick, s[(i + 1) % 12], outs[i]);
        }
        let m = b.build(s[0]).unwrap();
        let q = Quotient {
            state_class: vec![0; 12],
            input_class: vec![0],
            output_class: (0..12).collect(),
        };
        let d = lint_quotient(
            &QuotientTarget {
                concrete: &m,
                quotient: &q,
            },
            &LintConfig::new(),
        );
        let f: Vec<_> = d.with_code("SC042").collect();
        assert_eq!(f.len(), MAX_CONFLICT_WITNESSES);
        assert!(f[0].notes[0].contains("conflicts in total"));
    }
}
