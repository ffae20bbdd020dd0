//! Bias-aware stimulus generation: the feedback half of the
//! coverage-directed closure loop.
//!
//! One-shot tours cover every transition blindly; the adaptive driver in
//! `simcov-core` instead harvests campaign telemetry (cold `(state,
//! input)` cells from the excitation index, cells of surviving faults)
//! and asks this module for stimulus aimed at exactly those cells:
//!
//! * [`targeted_tour`] — a deterministic greedy walk that covers a given
//!   *target* cell set and nothing more, restarting from reset when the
//!   walk strands itself (so non-strongly-connected machines degrade to
//!   a multi-sequence test set instead of an error). The same walk aimed
//!   at every reachable cell is the body of
//!   [`greedy_transition_tour`](crate::greedy_transition_tour);
//! * [`biased_random_test_set`] — constrained-random walks whose input
//!   choice is weighted toward target cells instead of uniform, the
//!   cold-region biasing of coverage-directed constrained-random
//!   verification.
//!
//! Both are pure functions of `(machine, targets, parameters, seed)`, so
//! the closure loop's round schedule is reproducible bit-for-bit.

use crate::random::TestSet;
use simcov_fsm::{ExplicitMealy, InputSym, StateId};
use simcov_prng::Prng;

/// Dense index of a `(state, input)` cell.
fn cell(m: &ExplicitMealy, s: StateId, i: InputSym) -> usize {
    s.0 as usize * m.num_inputs() + i.0 as usize
}

/// Generates a test set that traverses every *defined and reachable*
/// target cell at least once — a transition tour restricted to the
/// targets.
///
/// The walk starts at reset and greedily takes the nearest uncovered
/// target (smallest input symbol first when several leave the current
/// state, BFS over defined transitions otherwise). When no uncovered
/// target is reachable from the current state the sequence ends and a
/// fresh one starts from reset; targets unreachable from reset are
/// dropped silently (they cannot be excited by any resettable test).
/// Each finished sequence is extended by `propagate` seeded random
/// defined steps — the exposure window that lets a fault excited at the
/// tail still propagate to an output (the role `k` plays for cyclic
/// tour extension).
///
/// Undefined target cells are ignored. An empty target set yields an
/// empty test set.
pub fn targeted_tour(
    m: &ExplicitMealy,
    targets: &[(StateId, InputSym)],
    propagate: usize,
    seed: u64,
) -> TestSet {
    let ni = m.num_inputs();
    let ns = m.num_states();
    let mut wanted = vec![false; ns * ni];
    let mut remaining = 0usize;
    for &(s, i) in targets {
        let idx = cell(m, s, i);
        if m.step(s, i).is_some() && !wanted[idx] {
            wanted[idx] = true;
            remaining += 1;
        }
    }
    let mut rng = Prng::seed_from_u64(seed);
    let mut sequences: Vec<Vec<InputSym>> = Vec::new();
    while remaining > 0 {
        let mut seq: Vec<InputSym> = Vec::new();
        let before = remaining;
        let end = cover_walk(m, m.reset(), &mut wanted, &mut remaining, &mut seq);
        extend_random(m, &mut seq, end, propagate, &mut rng);
        if !seq.is_empty() {
            sequences.push(seq);
        }
        if remaining == before {
            // Everything still wanted is unreachable from reset.
            break;
        }
    }
    TestSet { sequences }
}

/// The greedy covering walk behind [`targeted_tour`] and
/// [`greedy_transition_tour`](crate::greedy_transition_tour). From
/// `from`, it takes the current state's smallest wanted input, or else
/// walks a shortest path to the nearest state that has one. Every wanted
/// cell it traverses is cleared and counted off `remaining`. The walk
/// ends where no wanted cell is reachable, and returns that state.
pub(crate) fn cover_walk(
    m: &ExplicitMealy,
    from: StateId,
    wanted: &mut [bool],
    remaining: &mut usize,
    seq: &mut Vec<InputSym>,
) -> StateId {
    let ni = m.num_inputs();
    let mut cur = from;
    loop {
        if let Some(i) = m.inputs().find(|&i| wanted[cell(m, cur, i)]) {
            cur = take(m, cur, i, wanted, remaining, seq);
            continue;
        }
        let tree = m.bfs(cur, |s| wanted[s.index() * ni..][..ni].contains(&true));
        let Some(goal) = tree.found() else {
            return cur;
        };
        // Cells traversed en route may themselves be wanted.
        for i in tree.path(goal).expect("the found state is reached") {
            cur = take(m, cur, i, wanted, remaining, seq);
        }
    }
}

/// Takes input `i` at `cur`, clearing its cell if wanted; returns the
/// next state.
fn take(
    m: &ExplicitMealy,
    cur: StateId,
    i: InputSym,
    wanted: &mut [bool],
    remaining: &mut usize,
    seq: &mut Vec<InputSym>,
) -> StateId {
    let c = cell(m, cur, i);
    if wanted[c] {
        wanted[c] = false;
        *remaining -= 1;
    }
    seq.push(i);
    m.step(cur, i).expect("walks follow defined transitions").0
}

/// Appends up to `steps` random defined steps to `seq`, walking from
/// `cur`.
fn extend_random(
    m: &ExplicitMealy,
    seq: &mut Vec<InputSym>,
    mut cur: StateId,
    steps: usize,
    rng: &mut Prng,
) {
    for _ in 0..steps {
        let defined: Vec<InputSym> = m.inputs().filter(|&i| m.step(cur, i).is_some()).collect();
        if defined.is_empty() {
            break;
        }
        let i = defined[rng.gen_range(0..defined.len())];
        seq.push(i);
        cur = m.step(cur, i).expect("chosen from defined inputs").0;
    }
}

/// Generates `num_sequences` constrained-random walks of up to `length`
/// steps, each from reset, deterministically from `seed`.
///
/// At every state the next input is drawn from the *defined* inputs with
/// weight `weight` for target cells and 1 otherwise — so the walk is
/// `weight`× likelier to enter a cold region when one borders the
/// current state, and behaves exactly like a defined-input uniform walk
/// when no target is local. `weight` is clamped to at least 1; an empty
/// target set therefore degenerates to an unbiased walk. A state with no
/// defined inputs truncates its sequence.
pub fn biased_random_test_set(
    m: &ExplicitMealy,
    targets: &[(StateId, InputSym)],
    num_sequences: usize,
    length: usize,
    weight: u32,
    seed: u64,
) -> TestSet {
    let ni = m.num_inputs();
    let mut hot = vec![false; m.num_states() * ni];
    for &(s, i) in targets {
        if m.step(s, i).is_some() {
            hot[cell(m, s, i)] = true;
        }
    }
    let weight = u64::from(weight.max(1));
    let mut rng = Prng::seed_from_u64(seed);
    let mut sequences = Vec::with_capacity(num_sequences);
    for _ in 0..num_sequences {
        let mut seq = Vec::with_capacity(length);
        let mut cur = m.reset();
        for _ in 0..length {
            let mut total = 0u64;
            for i in m.inputs() {
                if m.step(cur, i).is_some() {
                    total += if hot[cell(m, cur, i)] { weight } else { 1 };
                }
            }
            if total == 0 {
                break;
            }
            let mut pick = rng.gen_range(0..total);
            let mut chosen = None;
            for i in m.inputs() {
                if m.step(cur, i).is_none() {
                    continue;
                }
                let w = if hot[cell(m, cur, i)] { weight } else { 1 };
                if pick < w {
                    chosen = Some(i);
                    break;
                }
                pick -= w;
            }
            let i = chosen.expect("pick < total over the same weights");
            seq.push(i);
            cur = m.step(cur, i).expect("chosen from defined inputs").0;
        }
        sequences.push(seq);
    }
    TestSet { sequences }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::coverage_set;
    use simcov_fsm::MealyBuilder;

    fn ring(n: usize) -> ExplicitMealy {
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

    fn covers(m: &ExplicitMealy, ts: &TestSet, s: StateId, i: InputSym) -> bool {
        ts.sequences.iter().any(|seq| {
            let mut cur = m.reset();
            for &x in seq {
                if cur == s && x == i {
                    return true;
                }
                match m.step(cur, x) {
                    Some((n, _)) => cur = n,
                    None => return false,
                }
            }
            false
        })
    }

    #[test]
    fn targeted_tour_covers_exactly_the_requested_cells() {
        let m = ring(8);
        let step = m.input_by_label("step").unwrap();
        let jump = m.input_by_label("jump").unwrap();
        let targets = vec![(StateId(3), jump), (StateId(6), step), (StateId(1), jump)];
        let ts = targeted_tour(&m, &targets, 0, 0);
        for &(s, i) in &targets {
            assert!(covers(&m, &ts, s, i), "target ({s:?},{i:?}) uncovered");
        }
        // Restricted: far fewer steps than a full tour of 16 transitions
        // would need — the walk only detours for its targets.
        assert!(ts.total_vectors() < 16, "{}", ts.total_vectors());
    }

    #[test]
    fn targeted_tour_is_deterministic_and_propagate_extends() {
        let m = ring(6);
        let jump = m.input_by_label("jump").unwrap();
        let targets = vec![(StateId(2), jump), (StateId(5), jump)];
        let a = targeted_tour(&m, &targets, 3, 7);
        let b = targeted_tour(&m, &targets, 3, 7);
        assert_eq!(a, b);
        let bare = targeted_tour(&m, &targets, 0, 7);
        assert_eq!(
            a.total_vectors(),
            bare.total_vectors() + 3 * a.len(),
            "each sequence gains exactly `propagate` defined steps on a \
             complete machine"
        );
    }

    #[test]
    fn targeted_tour_ignores_undefined_and_empty_targets() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s1, a, s0, o);
        // (s0, c) and (s1, c) are undefined.
        let m = b.build(s0).unwrap();
        assert!(targeted_tour(&m, &[], 2, 0).is_empty());
        assert!(targeted_tour(&m, &[(StateId(0), c)], 2, 0).is_empty());
    }

    #[test]
    fn targeted_tour_restarts_from_reset_on_one_way_branches() {
        // root -> s1 (absorbing), root -> s2 (absorbing): no single walk
        // covers targets in both branches, but two sequences do.
        let mut b = MealyBuilder::new();
        let root = b.add_state("root");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let o = b.add_output("o");
        b.add_transition(root, a, s1, o);
        b.add_transition(root, c, s2, o);
        b.add_transition(s1, a, s1, o);
        b.add_transition(s2, a, s2, o);
        let m = b.build(root).unwrap();
        let targets = vec![(s1, a), (s2, a)];
        let ts = targeted_tour(&m, &targets, 0, 0);
        assert_eq!(ts.len(), 2, "{ts:?}");
        for &(s, i) in &targets {
            assert!(covers(&m, &ts, s, i));
        }
    }

    #[test]
    fn biased_walks_hit_targets_more_often_than_uniform() {
        let m = ring(16);
        let jump = m.input_by_label("jump").unwrap();
        let targets: Vec<_> = (0..16).map(|s| (StateId(s), jump)).collect();
        let hits = |w: u32| -> usize {
            let ts = biased_random_test_set(&m, &targets, 20, 50, w, 11);
            ts.sequences
                .iter()
                .map(|seq| seq.iter().filter(|&&i| i == jump).count())
                .sum()
        };
        // Uniform picks `jump` ~50% of the time; weight 16 pushes it to
        // 16/17 ≈ 94%, so demand at least a 1.5× lift.
        assert!(
            hits(16) * 2 > hits(1) * 3,
            "weight 16 should clearly lift the jump rate: {} vs {}",
            hits(16),
            hits(1)
        );
    }

    #[test]
    fn biased_walks_are_deterministic_and_weight_one_is_uniform_shape() {
        let m = ring(5);
        let step = m.input_by_label("step").unwrap();
        let targets = vec![(StateId(0), step)];
        let a = biased_random_test_set(&m, &targets, 4, 12, 8, 3);
        let b = biased_random_test_set(&m, &targets, 4, 12, 8, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.total_vectors(), 48, "complete machine never truncates");
        // Weight 0 clamps to 1 (unbiased): still well-formed.
        let c = biased_random_test_set(&m, &targets, 2, 9, 0, 3);
        assert_eq!(c.total_vectors(), 18);
    }

    #[test]
    fn biased_walks_follow_only_defined_transitions() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s0, c, s0, o);
        b.add_transition(s1, a, s0, o);
        // (s1, c) undefined: a uniform draw could pick it; the biased
        // walk never does.
        let m = b.build(s0).unwrap();
        let ts = biased_random_test_set(&m, &[(s0, c)], 8, 30, 4, 5);
        assert_eq!(ts.total_vectors(), 240);
        let rep = coverage_set(&m, ts.sequences.iter().map(Vec::as_slice));
        assert_eq!(rep.applied_length, 240, "no walk stepped off the machine");
    }
}
