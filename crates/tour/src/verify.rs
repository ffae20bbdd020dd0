//! Coverage measurement: which transitions and states does a test
//! sequence exercise?

use simcov_fsm::{ExplicitMealy, InputSym};

/// Transition/state coverage achieved by an input sequence (from reset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Distinct `(state, input)` transitions exercised.
    pub transitions_covered: usize,
    /// Total transitions defined on the reachable part of the machine.
    pub transitions_total: usize,
    /// Distinct states visited (including the reset state).
    pub states_covered: usize,
    /// Total reachable states.
    pub states_total: usize,
    /// Length of the (possibly truncated) applied sequence.
    pub applied_length: usize,
}

impl CoverageReport {
    /// `true` if every reachable transition was exercised — the paper's
    /// transition-coverage criterion.
    pub fn all_transitions_covered(&self) -> bool {
        self.transitions_covered == self.transitions_total
    }

    /// `true` if every reachable state was visited — the weaker
    /// state-coverage criterion.
    pub fn all_states_covered(&self) -> bool {
        self.states_covered == self.states_total
    }

    /// Fraction of transitions covered in `[0, 1]`.
    pub fn transition_fraction(&self) -> f64 {
        if self.transitions_total == 0 {
            1.0
        } else {
            self.transitions_covered as f64 / self.transitions_total as f64
        }
    }

    /// Fraction of states covered in `[0, 1]`.
    pub fn state_fraction(&self) -> f64 {
        if self.states_total == 0 {
            1.0
        } else {
            self.states_covered as f64 / self.states_total as f64
        }
    }
}

impl std::fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} transitions, {}/{} states over {} vectors",
            self.transitions_covered,
            self.transitions_total,
            self.states_covered,
            self.states_total,
            self.applied_length
        )
    }
}

/// Measures the transition and state coverage of `inputs` applied from
/// the reset state of `m`. The walk stops at the first undefined
/// transition.
pub fn coverage(m: &ExplicitMealy, inputs: &[InputSym]) -> CoverageReport {
    coverage_set(m, std::iter::once(inputs))
}

/// Measures joint coverage of several sequences, each applied from reset.
pub fn coverage_set<'a, I>(m: &ExplicitMealy, sequences: I) -> CoverageReport
where
    I: IntoIterator<Item = &'a [InputSym]>,
{
    let reach = m.reachable_states();
    let ni = m.num_inputs();
    let transitions_total = reach
        .iter()
        .map(|&s| m.inputs().filter(|&i| m.step(s, i).is_some()).count())
        .sum();
    // Per-cell and per-state "seen" masks.
    let mut cells = vec![false; m.num_states() * ni];
    let mut states = vec![false; m.num_states()];
    states[m.reset().index()] = true;
    let mut report = CoverageReport {
        transitions_covered: 0,
        transitions_total,
        states_covered: 1,
        states_total: reach.len(),
        applied_length: 0,
    };
    for seq in sequences {
        let mut cur = m.reset();
        for &i in seq {
            let Some((next, _)) = m.step(cur, i) else {
                break;
            };
            let c = cur.index() * ni + i.index();
            if !cells[c] {
                cells[c] = true;
                report.transitions_covered += 1;
            }
            if !states[next.index()] {
                states[next.index()] = true;
                report.states_covered += 1;
            }
            report.applied_length += 1;
            cur = next;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_fsm::MealyBuilder;

    fn machine() -> ExplicitMealy {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s0, c, s0, o);
        b.add_transition(s1, a, s0, o);
        b.add_transition(s1, c, s1, o);
        b.build(s0).unwrap()
    }

    #[test]
    fn empty_sequence_covers_reset_only() {
        let m = machine();
        let r = coverage(&m, &[]);
        assert_eq!(r.transitions_covered, 0);
        assert_eq!(r.states_covered, 1);
        assert_eq!(r.applied_length, 0);
        assert!(!r.all_transitions_covered());
        assert!(!r.all_states_covered());
    }

    #[test]
    fn full_tour_covers_everything() {
        let m = machine();
        let a = m.input_by_label("a").unwrap();
        let c = m.input_by_label("c").unwrap();
        let r = coverage(&m, &[c, a, c, a]);
        assert!(r.all_transitions_covered());
        assert!(r.all_states_covered());
        assert!((r.transition_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_edges_counted_once() {
        let m = machine();
        let c = m.input_by_label("c").unwrap();
        let r = coverage(&m, &[c, c, c]);
        assert_eq!(r.transitions_covered, 1);
        assert_eq!(r.applied_length, 3);
    }

    #[test]
    fn multiple_sequences_reset_between() {
        let m = machine();
        let a = m.input_by_label("a").unwrap();
        let c = m.input_by_label("c").unwrap();
        // Each restarts at s0: covers (s0,a),(s1,c) then (s0,c).
        let s1: &[_] = &[a, c];
        let s2: &[_] = &[c];
        let r = coverage_set(&m, [s1, s2]);
        assert_eq!(r.transitions_covered, 3);
        assert_eq!(r.states_covered, 2);
    }

    #[test]
    fn fractions_on_empty_machine_edge_case() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let _ = b.add_input("i");
        let m = b.build(s0).unwrap();
        let r = coverage(&m, &[]);
        assert!((r.transition_fraction() - 1.0).abs() < 1e-12);
        assert!(r.all_states_covered());
    }
}
