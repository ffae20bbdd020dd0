//! UIO sequences and UIO-based transition checking.
//!
//! The paper's minimum-cost tour formulation comes from Aho, Dahbura, Lee
//! & Uyar's work on protocol conformance testing, where each transition
//! is verified by a **Unique Input/Output sequence**: an input sequence
//! whose output from the transition's destination state differs from its
//! output from *every* other state. A UIO confirms which state the
//! machine landed in — the ∃-flavoured cousin of the paper's
//! ∀k-distinguishability.
//!
//! [`uio_test_set`] builds the classic checking test set: for every
//! transition `(s, i)`, a sequence *reach-s · i · UIO(δ(s, i))*. It
//! detects transfer errors even on machines that fail the paper's ∀k
//! property — at the price of a much larger test set and a reset between
//! sequences.

use crate::random::TestSet;
use simcov_fsm::{ExplicitMealy, InputSym, StateId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Errors from UIO construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UioError {
    /// These states have no UIO sequence within the length bound.
    NoUio(Vec<StateId>),
    /// The machine has unreachable-from-reset states involved in
    /// requested checks.
    Unreachable(StateId),
}

impl std::fmt::Display for UioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UioError::NoUio(ss) => {
                write!(f, "{} states have no UIO within the length bound", ss.len())
            }
            UioError::Unreachable(s) => write!(f, "state {} unreachable from reset", s.0),
        }
    }
}

impl std::error::Error for UioError {}

/// Searches (breadth-first over sequences, with signature-based pruning)
/// for a shortest UIO sequence of `state`: an input sequence along which
/// `state`'s outputs differ from every other reachable state's outputs at
/// some position.
///
/// Returns `None` if no UIO of length ≤ `max_len` exists (some machines
/// have none at all). The search visits at most `max_nodes` frontier
/// entries before giving up, guarding the exponential worst case.
pub fn uio_sequence(
    m: &ExplicitMealy,
    state: StateId,
    max_len: usize,
    max_nodes: usize,
) -> Option<Vec<InputSym>> {
    let reach = m.reachable_states();
    // A frontier node: current position of the candidate state and the
    // surviving impostor pairs (impostor's current position). The
    // sequence so far is reconstructed via parent links.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Node {
        cur: StateId,
        impostors: Vec<StateId>,
    }
    let start = Node {
        cur: state,
        impostors: reach.iter().copied().filter(|&t| t != state).collect(),
    };
    if start.impostors.is_empty() {
        return Some(Vec::new());
    }
    let mut parents: Vec<(usize, InputSym)> = Vec::new();
    let mut nodes: Vec<Node> = vec![start.clone()];
    let mut seen: HashSet<Node> = HashSet::from([start]);
    let mut queue: VecDeque<(usize, usize)> = VecDeque::from([(0usize, 0usize)]); // (node idx, depth)
    let mut expansions = 0usize;
    while let Some((idx, depth)) = queue.pop_front() {
        if depth >= max_len {
            continue;
        }
        expansions += 1;
        if expansions > max_nodes {
            return None;
        }
        let node = nodes[idx].clone();
        for i in m.inputs() {
            let Some((next, out)) = m.step(node.cur, i) else {
                continue;
            };
            let mut impostors = Vec::new();
            for &t in &node.impostors {
                match m.step(t, i) {
                    Some((tn, to)) if to == out => impostors.push(tn),
                    // Different output: impostor eliminated.
                    Some(_) => {}
                    // Impostor cannot take this input: on a complete
                    // machine this does not occur; on partial machines
                    // treat as eliminated (observable divergence).
                    None => {}
                }
            }
            // Canonicalize impostor multiset for pruning.
            impostors.sort_unstable();
            impostors.dedup();
            let child = Node {
                cur: next,
                impostors,
            };
            if child.impostors.is_empty() {
                // Reconstruct the sequence.
                let mut seq = vec![i];
                let mut walk = idx;
                while walk != 0 {
                    let (p, inp) = parents[walk - 1];
                    seq.push(inp);
                    walk = p;
                }
                seq.reverse();
                return Some(seq);
            }
            if seen.insert(child.clone()) {
                nodes.push(child);
                parents.push((idx, i));
                queue.push_back((nodes.len() - 1, depth + 1));
            }
        }
    }
    None
}

/// Builds the UIO-based checking test set: one sequence per reachable
/// transition, each of the form *shortest-path-to-s · i · UIO(δ(s,i))*.
///
/// # Errors
///
/// [`UioError::NoUio`] listing the destination states that lack a UIO
/// within `max_uio_len`.
pub fn uio_test_set(m: &ExplicitMealy, max_uio_len: usize) -> Result<TestSet, UioError> {
    // Shortest input paths from reset to every reachable state.
    let access = m.bfs(m.reset(), |_| false);
    // UIOs per destination state, memoized.
    let mut uios: HashMap<StateId, Option<Vec<InputSym>>> = HashMap::new();
    let mut missing = Vec::new();
    let mut sequences = Vec::new();
    for &s in access.order() {
        let to_s = access.path(s).expect("reachable states are reached");
        for i in m.inputs() {
            let Some((next, _)) = m.step(s, i) else {
                continue;
            };
            let uio = uios
                .entry(next)
                .or_insert_with(|| uio_sequence(m, next, max_uio_len, 200_000));
            match uio {
                Some(u) => {
                    let mut seq = to_s.clone();
                    seq.push(i);
                    seq.extend(u.iter().copied());
                    sequences.push(seq);
                }
                None => {
                    if !missing.contains(&next) {
                        missing.push(next);
                    }
                }
            }
        }
    }
    if !missing.is_empty() {
        return Err(UioError::NoUio(missing));
    }
    Ok(TestSet { sequences })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_fsm::MealyBuilder;

    /// Machine where every state has a distinct self-loop output: UIO of
    /// length 1 everywhere.
    fn distinct_loops() -> ExplicitMealy {
        let mut b = MealyBuilder::new();
        let states: Vec<_> = (0..4).map(|i| b.add_state(format!("s{i}"))).collect();
        let step = b.add_input("step");
        let probe = b.add_input("probe");
        let o = b.add_output("common");
        let probes: Vec<_> = (0..4).map(|i| b.add_output(format!("p{i}"))).collect();
        for i in 0..4 {
            b.add_transition(states[i], step, states[(i + 1) % 4], o);
            b.add_transition(states[i], probe, states[i], probes[i]);
        }
        b.build(states[0]).unwrap()
    }

    #[test]
    fn uio_length_one_when_probe_exists() {
        let m = distinct_loops();
        for s in m.states() {
            let uio = uio_sequence(&m, s, 4, 100_000).expect("probe gives a UIO");
            assert_eq!(uio.len(), 1);
            assert_eq!(m.input_label(uio[0]), "probe");
        }
    }

    #[test]
    fn uio_is_actually_unique() {
        let m = distinct_loops();
        for s in m.reachable_states() {
            let uio = uio_sequence(&m, s, 4, 100_000).unwrap();
            let (_, mine) = m.run(s, &uio);
            for t in m.reachable_states() {
                if t != s {
                    let (_, theirs) = m.run(t, &uio);
                    assert_ne!(mine, theirs, "UIO of {s:?} must differ from {t:?}");
                }
            }
        }
    }

    #[test]
    fn uio_none_when_states_equivalent() {
        // Two states with identical rows: no UIO can exist.
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s1, a, s0, o);
        let m = b.build(s0).unwrap();
        assert_eq!(uio_sequence(&m, s0, 6, 100_000), None);
    }

    #[test]
    fn uio_test_set_covers_all_transitions_and_detects_transfers() {
        use crate::verify::coverage_set;
        let m = distinct_loops();
        let ts = uio_test_set(&m, 4).unwrap();
        assert_eq!(ts.len(), m.num_transitions());
        let seqs: Vec<&[InputSym]> = ts.sequences.iter().map(Vec::as_slice).collect();
        let cov = coverage_set(&m, seqs.iter().copied());
        assert!(cov.all_transitions_covered());
        // Every single transfer error changes some sequence's output
        // trace: the UIO at the end identifies the wrong destination.
        for s in m.reachable_states() {
            for i in m.inputs() {
                let (next, _) = m.step(s, i).unwrap();
                for t in m.reachable_states() {
                    if t == next {
                        continue;
                    }
                    let bad = m.with_redirected_transition(s, i, t);
                    let detected = ts
                        .sequences
                        .iter()
                        .any(|seq| m.output_trace(seq) != bad.output_trace(seq));
                    assert!(detected, "transfer ({s:?},{i:?})->{t:?} must be caught");
                }
            }
        }
    }

    #[test]
    fn uio_error_reported() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s1, a, s0, o);
        let m = b.build(s0).unwrap();
        let err = uio_test_set(&m, 5).unwrap_err();
        assert!(matches!(err, UioError::NoUio(_)));
        assert!(err.to_string().contains("no UIO"));
    }
}
