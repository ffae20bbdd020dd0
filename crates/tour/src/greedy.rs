//! Greedy tours. The greedy transition tour is the targeted walk of
//! [`targeted_tour`](crate::targeted_tour) aimed at every reachable
//! transition, then a shortest path home to reset: the style of tour the
//! paper's SIS implementation produced, complete but non-optimal. The
//! greedy state tour walks to the nearest unvisited state until none is
//! left.

use crate::bias::cover_walk;
use crate::postman::{Tour, TourError};
use simcov_fsm::ExplicitMealy;

/// Generates a transition tour by repeatedly walking a shortest path to
/// the nearest state with an uncovered outgoing transition and taking it,
/// then walking a shortest path back to reset.
///
/// The result covers every reachable transition but is generally longer
/// than the Chinese-postman optimum of
/// [`transition_tour`](crate::transition_tour) — this mirrors the paper's
/// Section 7.2, which reports a tour of 1,069 M transitions over a
/// 123 M-transition model and notes "this is not an optimal tour".
///
/// # Errors
///
/// Same conditions as [`transition_tour`](crate::transition_tour).
pub fn greedy_transition_tour(m: &ExplicitMealy) -> Result<Tour, TourError> {
    let mut wanted = m.reachable_cells();
    let edges = wanted.iter().filter(|&&w| w).count();
    if edges == 0 {
        return Err(TourError::NoTransitions);
    }
    if !m.is_strongly_connected() {
        return Err(TourError::NotStronglyConnected);
    }
    let mut inputs = Vec::new();
    let mut remaining = edges;
    let end = cover_walk(m, m.reset(), &mut wanted, &mut remaining, &mut inputs);
    debug_assert_eq!(remaining, 0, "strong connectivity leaves no cell behind");
    // Close the circuit: walk back to the reset state so the tour, like
    // the Chinese-postman tour, can be extended cyclically.
    let home = m.bfs(end, |s| s == m.reset());
    inputs.extend(home.path(m.reset()).expect("strongly connected"));
    let duplicates = inputs.len() - edges;
    Ok(Tour { inputs, duplicates })
}

/// Generates a *state tour*: an input sequence visiting every reachable
/// state at least once (the weaker coverage measure the paper contrasts
/// with — state coverage does not exercise every transition).
///
/// # Errors
///
/// * [`TourError::NoTransitions`] if the machine has no edges.
/// * [`TourError::Trapped`] if the walk enters a region from which no
///   unvisited state is reachable. Unlike transition tours, state tours
///   do not require strong connectivity — a single one-way descent (a
///   dag-shaped machine) is fine — but *diverging* one-way branches
///   (e.g. two separate sink components) defeat any single walk; a
///   malformed model must report that, not panic.
pub fn state_tour(m: &ExplicitMealy) -> Result<Tour, TourError> {
    // Every reachable transition starts at reset or at a state reached
    // through one, so reset's row decides whether there are any.
    if m.inputs().all(|i| m.step(m.reset(), i).is_none()) {
        return Err(TourError::NoTransitions);
    }
    let total = m.reachable_states().len();
    let mut visited = vec![false; m.num_states()];
    visited[m.reset().index()] = true;
    let mut num_visited = 1;
    let mut inputs = Vec::new();
    let mut cur = m.reset();
    while num_visited < total {
        // Walk to the nearest unvisited state.
        let tree = m.bfs(cur, |s| !visited[s.index()]);
        let Some(goal) = tree.found() else {
            // Reachable-but-unvisitable states remain: the walk committed
            // to a one-way branch that cannot reach them.
            return Err(TourError::Trapped {
                visited: num_visited,
                total,
            });
        };
        for i in tree.path(goal).expect("the found state is reached") {
            inputs.push(i);
            cur = m.step(cur, i).expect("tree paths are defined").0;
            if !visited[cur.index()] {
                visited[cur.index()] = true;
                num_visited += 1;
            }
        }
    }
    Ok(Tour {
        inputs,
        duplicates: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition_tour;
    use crate::verify::coverage;
    use simcov_fsm::MealyBuilder;

    fn ring_with_chords(n: usize) -> ExplicitMealy {
        let mut b = MealyBuilder::new();
        let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
        let step = b.add_input("step");
        let jump = b.add_input("jump");
        let o = b.add_output("o");
        for i in 0..n {
            b.add_transition(states[i], step, states[(i + 1) % n], o);
            b.add_transition(states[i], jump, states[(i + n / 2) % n], o);
        }
        b.build(states[0]).unwrap()
    }

    #[test]
    fn greedy_covers_all_transitions() {
        let m = ring_with_chords(8);
        let tour = greedy_transition_tour(&m).unwrap();
        let rep = coverage(&m, &tour.inputs);
        assert!(rep.all_transitions_covered());
        assert_eq!(tour.len(), m.num_transitions() + tour.duplicates);
    }

    #[test]
    fn greedy_no_shorter_than_postman() {
        for n in [4, 6, 8, 10] {
            let m = ring_with_chords(n);
            let opt = transition_tour(&m).unwrap();
            let greedy = greedy_transition_tour(&m).unwrap();
            assert!(greedy.len() >= opt.len(), "n={n}");
        }
    }

    #[test]
    fn greedy_tour_is_a_circuit() {
        let m = ring_with_chords(7);
        let tour = greedy_transition_tour(&m).unwrap();
        let (states, _) = m.run(m.reset(), &tour.inputs);
        assert_eq!(*states.last().unwrap(), m.reset());
    }

    #[test]
    fn state_tour_visits_all_states() {
        let m = ring_with_chords(9);
        let tour = state_tour(&m).unwrap();
        let rep = coverage(&m, &tour.inputs);
        assert!(rep.all_states_covered());
    }

    #[test]
    fn state_tour_shorter_than_transition_tour() {
        let m = ring_with_chords(12);
        let st = state_tour(&m).unwrap();
        let tt = transition_tour(&m).unwrap();
        assert!(st.len() < tt.len());
    }

    #[test]
    fn state_tour_works_without_strong_connectivity() {
        // A dag-shaped machine: s0 -> s1 -> s2(sink).
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let a = b.add_input("a");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s1, a, s2, o);
        b.add_transition(s2, a, s2, o);
        let m = b.build(s0).unwrap();
        let tour = state_tour(&m).unwrap();
        assert!(coverage(&m, &tour.inputs).all_states_covered());
        assert!(greedy_transition_tour(&m).is_err());
    }

    #[test]
    fn state_tour_reports_trap_instead_of_panicking() {
        // Diverging one-way branches: root -> s1 and root -> s2, both
        // absorbing. After descending into either branch the other is
        // unreachable, so no single walk covers all three states.
        let mut b = MealyBuilder::new();
        let root = b.add_state("root");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let o = b.add_output("o");
        b.add_transition(root, a, s1, o);
        b.add_transition(root, c, s2, o);
        b.add_transition(s1, a, s1, o);
        b.add_transition(s1, c, s1, o);
        b.add_transition(s2, a, s2, o);
        b.add_transition(s2, c, s2, o);
        let m = b.build(root).unwrap();
        let err = state_tour(&m).unwrap_err();
        assert_eq!(
            err,
            TourError::Trapped {
                visited: 2,
                total: 3
            }
        );
        assert!(err.to_string().contains("one-way branch"), "{err}");
    }
}
