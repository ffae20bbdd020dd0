//! Model lints (`SC001`–`SC008`): static checks over explicit Mealy
//! machines — reachability, completeness, strong connectivity, and the
//! paper's Requirements 2, 3 and 5 plus ∀k-distinguishability, wrapping
//! the executable checkers of `simcov_core::requirements` into the
//! unified diagnostic format.

use crate::codes::*;
use crate::diag::{Diagnostics, LintConfig, Location};
use simcov_core::{check_req2_bounded_processing, check_req3_unique_outputs};
use simcov_fsm::{BuildError, ExplicitMealy};

/// What the model checks run over: the machine plus the optional context
/// the requirement checkers need (which outputs mean "processing has not
/// completed", which state names must be observable, and the `k` for the
/// distinguishability analysis).
pub struct ModelTarget<'a> {
    /// The machine under lint.
    pub machine: &'a ExplicitMealy,
    /// `stalled[o]` marks output symbol `o` as a stalled transition
    /// (Requirement 2). `None` skips SC005.
    pub stalled: Option<Vec<bool>>,
    /// Names of the interaction-state variables (Requirement 5).
    /// Empty skips SC007.
    pub interaction_state: Vec<String>,
    /// Names the model exposes for comparison (Requirement 5).
    pub observable: Vec<String>,
    /// Depth for the ∀k-distinguishability analysis; `0` skips SC008.
    pub k: usize,
}

impl<'a> ModelTarget<'a> {
    /// A target with no stall/observability context and `k = 1`.
    pub fn new(machine: &'a ExplicitMealy) -> Self {
        ModelTarget {
            machine,
            stalled: None,
            interaction_state: Vec::new(),
            observable: Vec::new(),
            k: 1,
        }
    }

    /// Marks every output symbol whose label equals one of `names` as a
    /// stalled transition (enables SC005).
    pub fn with_stall_output_labels(mut self, names: &[&str]) -> Self {
        let m = self.machine;
        self.stalled = Some(
            (0..m.num_outputs())
                .map(|o| names.contains(&m.output_label(simcov_fsm::OutputSym(o as u32))))
                .collect(),
        );
        self
    }
}

fn state_loc(m: &ExplicitMealy, s: simcov_fsm::StateId) -> Location {
    Location::State {
        id: s.0,
        label: m.state_label(s).to_string(),
    }
}

/// SC001: states never reached from reset.
fn unreachable_states(t: &ModelTarget<'_>, out: &mut Diagnostics) {
    let m = t.machine;
    let mut reachable = vec![false; m.num_states()];
    for s in m.reachable_states() {
        reachable[s.index()] = true;
    }
    for s in m.states().filter(|s| !reachable[s.index()]) {
        out.emit(
            &SC001_UNREACHABLE_STATE,
            state_loc(m, s),
            "state can never be reached from reset; a tour will not exercise it",
        );
    }
}

/// SC002: reachable `(state, input)` slots with no transition.
fn incomplete_alphabet(t: &ModelTarget<'_>, out: &mut Diagnostics) {
    let m = t.machine;
    for s in m.reachable_states() {
        for i in m.inputs() {
            if m.step(s, i).is_none() {
                out.emit(
                    &SC002_INCOMPLETE_ALPHABET,
                    Location::Transition {
                        state: m.state_label(s).to_string(),
                        input: m.input_label(i).to_string(),
                    },
                    "no transition defined; restrict the valid-input alphabet or \
                     complete the machine",
                );
            }
        }
    }
}

/// SC004: the reachable sub-graph is not strongly connected.
fn strongly_connected(t: &ModelTarget<'_>, out: &mut Diagnostics) {
    if !t.machine.is_strongly_connected() {
        out.emit(
            &SC004_NOT_STRONGLY_CONNECTED,
            Location::Model,
            "some reachable state cannot return to reset, so no single \
             transition tour covers every transition",
        );
    }
}

/// SC005 (Requirement 2): a cycle of stalled transitions means processing
/// is unbounded.
fn bounded_processing(t: &ModelTarget<'_>, out: &mut Diagnostics) {
    let Some(stalled) = &t.stalled else { return };
    let m = t.machine;
    if let Err(w) = check_req2_bounded_processing(m, |o| stalled[o.index()]) {
        let cycle: Vec<&str> = w.cycle.iter().map(|&s| m.state_label(s)).collect();
        out.emit(
            &SC005_INFINITE_STALL,
            state_loc(m, w.cycle[0]),
            format!(
                "stall cycle `{}` never completes processing (Requirement 2 \
                 needs a finite k)",
                cycle.join(" -> ")
            ),
        );
    }
}

/// SC006 (Requirement 3): distinct inputs with identical outputs.
///
/// One diagnostic per offending state (with a witness pair and the
/// collision count) rather than one per pair — large models otherwise
/// drown the report.
fn unique_outputs(t: &ModelTarget<'_>, out: &mut Diagnostics) {
    let m = t.machine;
    let Err(collisions) = check_req3_unique_outputs(m) else {
        return;
    };
    let mut by_state: Vec<(simcov_fsm::StateId, usize, String)> = Vec::new();
    for (s, i1, i2) in collisions {
        match by_state.last_mut() {
            Some((ls, n, _)) if *ls == s => *n += 1,
            _ => by_state.push((
                s,
                1,
                format!(
                    "inputs `{}` and `{}` both emit `{}`",
                    m.input_label(i1),
                    m.input_label(i2),
                    m.output_label(m.step(s, i1).expect("collision transition exists").1)
                ),
            )),
        }
    }
    for (s, n, witness) in by_state {
        out.emit_with_notes(
            &SC006_NON_UNIQUE_OUTPUTS,
            state_loc(m, s),
            format!(
                "{n} input pair{} share an output; e.g. {witness}",
                if n == 1 { "" } else { "s" }
            ),
            vec![
                "Requirement 3 is normally achieved by data selection during \
                 vector expansion, not by the abstract model itself"
                    .to_string(),
            ],
        );
    }
}

/// SC007 (Requirement 5): declared interaction state must be observable.
fn observable_interaction(t: &ModelTarget<'_>, out: &mut Diagnostics) {
    if t.interaction_state.is_empty() {
        return;
    }
    let interaction: Vec<&str> = t.interaction_state.iter().map(String::as_str).collect();
    let observable: Vec<&str> = t.observable.iter().map(String::as_str).collect();
    if let Err(missing) = simcov_core::check_req5_observable(&interaction, &observable) {
        for name in missing {
            out.emit(
                &SC007_UNOBSERVABLE_INTERACTION,
                Location::Signal { name: name.clone() },
                format!(
                    "interaction-state variable `{name}` is not among the {} \
                     observable signals",
                    observable.len()
                ),
            );
        }
    }
}

/// Witness pairs rendered before collapsing to a count.
const MAX_PAIR_WITNESSES: usize = 4;

/// SC008: ∀k-distinguishability with witness pairs (the hypothesis of
/// Theorem 1). Skipped when the machine is incomplete on its reachable
/// part — SC002 already denies, and the ∀ quantification is undefined.
fn forall_k_distinguishable(t: &ModelTarget<'_>, out: &mut Diagnostics) {
    let m = t.machine;
    if t.k == 0 || !m.is_complete_on_reachable() {
        return;
    }
    // One shared level chain: the pair-relation sweep runs once and
    // every witness (and any k ≤ t.k) is read off the memoized
    // levels, instead of re-traversing the machine per witness.
    let d = simcov_core::DistinguishLevels::build(m, t.k)
        .expect("completeness checked above")
        .analyze(t.k, MAX_PAIR_WITNESSES);
    if d.holds() {
        return;
    }
    let total = d.violations.len();
    for v in d.violations.iter().take(MAX_PAIR_WITNESSES) {
        let seq: Vec<&str> = v.witness.iter().map(|&i| m.input_label(i)).collect();
        out.emit_with_notes(
            &SC008_FORALL_K_FAILURE,
            Location::StatePair {
                s1: m.state_label(v.s1).to_string(),
                s2: m.state_label(v.s2).to_string(),
            },
            format!(
                "pair is not forall-{}-distinguishable: inputs [{}] keep all \
                 outputs equal",
                t.k,
                seq.join(", ")
            ),
            vec![format!(
                "{total} violating pair{} in total; a transfer error landing in \
                 either state can escape the tour (Theorem 1 hypothesis broken)",
                if total == 1 { "" } else { "s" }
            )],
        );
    }
}

/// Runs every model check over `target` under `config`, in code order,
/// returning the deny-first sorted findings.
pub fn lint_model(target: &ModelTarget<'_>, config: &LintConfig) -> Diagnostics {
    let mut out = Diagnostics::new(config.clone());
    unreachable_states(target, &mut out);
    incomplete_alphabet(target, &mut out);
    strongly_connected(target, &mut out);
    bounded_processing(target, &mut out);
    unique_outputs(target, &mut out);
    observable_interaction(target, &mut out);
    forall_k_distinguishable(target, &mut out);
    out.sort_by_severity();
    out
}

/// SC003: maps a [`BuildError`] from machine construction into the
/// diagnostic format — the lint-level answer to nondeterministic
/// transition definitions, which [`simcov_fsm::MealyBuilder`] rejects
/// before an [`ExplicitMealy`] can exist.
pub fn lint_build_error(e: &BuildError, out: &mut Diagnostics) {
    let (loc, msg) = match e {
        BuildError::Nondeterministic { state, input } => (
            Location::Transition {
                state: format!("#{}", state.0),
                input: format!("#{}", input.0),
            },
            "two conflicting transitions defined for the same (state, input)".to_string(),
        ),
        BuildError::BadReset(s) => (
            Location::State {
                id: s.0,
                label: format!("#{}", s.0),
            },
            "designated reset state does not exist".to_string(),
        ),
        BuildError::Empty => (Location::Model, "machine has no states".to_string()),
    };
    out.emit(&SC003_MALFORMED_MACHINE, loc, msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use simcov_fsm::{MealyBuilder, StateId};

    /// Two-state machine, complete, strongly connected, with per-state
    /// unique outputs and forall-1-distinguishable states: lint-clean.
    fn clean_machine() -> ExplicitMealy {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let o0 = b.add_output("o0");
        let o1 = b.add_output("o1");
        let o2 = b.add_output("o2");
        let o3 = b.add_output("o3");
        b.add_transition(s0, a, s1, o0);
        b.add_transition(s0, c, s0, o1);
        b.add_transition(s1, a, s0, o2);
        b.add_transition(s1, c, s1, o3);
        b.build(s0).unwrap()
    }

    #[test]
    fn clean_machine_is_clean() {
        let m = clean_machine();
        let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
        assert!(d.items().is_empty(), "{}", d.render_text());
    }

    #[test]
    fn unreachable_state_warned() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let dead = b.add_state("dead");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s0, o);
        b.add_transition(dead, i, s0, o);
        let m = b.build(s0).unwrap();
        let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
        assert!(d.has_code("SC001"));
        assert_eq!(d.with_code("SC001").count(), 1);
        assert_eq!(d.items()[0].severity, Severity::Warn);
    }

    #[test]
    fn incomplete_alphabet_denied_and_skips_forall_k() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let i = b.add_input("i");
        let j = b.add_input("j");
        let o = b.add_output("o");
        b.add_transition(s0, i, s1, o);
        b.add_transition(s1, i, s0, o);
        b.add_transition(s0, j, s0, o);
        // (s1, j) missing.
        let m = b.build(s0).unwrap();
        let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
        assert!(d.has_code("SC002"));
        assert!(d.has_denials());
        assert!(
            !d.has_code("SC008"),
            "forall-k must skip incomplete machines"
        );
    }

    #[test]
    fn sink_state_breaks_connectivity() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let sink = b.add_state("sink");
        let i = b.add_input("i");
        let o = b.add_output("o");
        let o2 = b.add_output("o2");
        b.add_transition(s0, i, sink, o);
        b.add_transition(sink, i, sink, o2);
        let m = b.build(s0).unwrap();
        let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
        assert!(d.has_code("SC004"));
    }

    #[test]
    fn stall_cycle_denied_only_with_stall_context() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let i = b.add_input("i");
        let stall = b.add_output("stall");
        b.add_transition(s0, i, s0, stall);
        let m = b.build(s0).unwrap();
        let quiet = lint_model(&ModelTarget::new(&m), &LintConfig::new());
        assert!(!quiet.has_code("SC005"));
        let t = ModelTarget::new(&m).with_stall_output_labels(&["stall"]);
        let d = lint_model(&t, &LintConfig::new());
        assert!(d.has_code("SC005"));
        assert!(d.items()[0].message.contains("s0"));
    }

    #[test]
    fn shared_outputs_warned_once_per_state() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let i1 = b.add_input("i1");
        let i2 = b.add_input("i2");
        let i3 = b.add_input("i3");
        let o = b.add_output("o");
        b.add_transition(s0, i1, s0, o);
        b.add_transition(s0, i2, s0, o);
        b.add_transition(s0, i3, s0, o);
        let m = b.build(s0).unwrap();
        let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
        // 3 colliding pairs collapse to one diagnostic on s0.
        assert_eq!(d.with_code("SC006").count(), 1);
        assert!(d
            .items()
            .iter()
            .any(|x| x.message.contains("3 input pairs")));
    }

    #[test]
    fn req5_names_checked_when_declared() {
        let m = clean_machine();
        let mut t = ModelTarget::new(&m);
        t.interaction_state = vec!["ex.dest".into(), "psw".into()];
        t.observable = vec!["psw".into()];
        let d = lint_model(&t, &LintConfig::new());
        assert_eq!(d.with_code("SC007").count(), 1);
        assert!(d.items().iter().any(|x| x.message.contains("ex.dest")));
    }

    #[test]
    fn forall_k_failure_carries_witness_pair() {
        // Identical outputs everywhere: no pair is distinguishable.
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s1, o);
        b.add_transition(s1, i, s0, o);
        let m = b.build(s0).unwrap();
        let d = lint_model(&ModelTarget::new(&m), &LintConfig::new());
        let f: Vec<_> = d.with_code("SC008").collect();
        assert_eq!(f.len(), 1);
        assert!(matches!(f[0].location, Location::StatePair { .. }));
        assert!(f[0].message.contains("forall-1"));
        // k = 0 disables the check.
        let mut t = ModelTarget::new(&m);
        t.k = 0;
        assert!(!lint_model(&t, &LintConfig::new()).has_code("SC008"));
    }

    #[test]
    fn build_errors_map_to_sc003() {
        let mut b = MealyBuilder::new();
        let s = b.add_state("s");
        let i = b.add_input("i");
        let o = b.add_output("o");
        let o2 = b.add_output("o2");
        b.add_transition(s, i, s, o);
        b.add_transition(s, i, s, o2);
        let err = b.build(s).unwrap_err();
        let mut d = Diagnostics::with_defaults();
        lint_build_error(&err, &mut d);
        lint_build_error(&BuildError::Empty, &mut d);
        lint_build_error(&BuildError::BadReset(StateId(7)), &mut d);
        assert_eq!(d.with_code("SC003").count(), 3);
        assert!(d.has_denials());
    }

    #[test]
    fn overrides_flip_severities() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let dead = b.add_state("dead");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s0, o);
        b.add_transition(dead, i, s0, o);
        let m = b.build(s0).unwrap();
        let deny = lint_model(&ModelTarget::new(&m), &LintConfig::new().deny("SC001"));
        assert!(deny.has_denials());
        let allow = lint_model(&ModelTarget::new(&m), &LintConfig::new().allow("SC001"));
        assert!(allow.items().is_empty());
        assert_eq!(allow.suppressed(), 1);
    }
}
