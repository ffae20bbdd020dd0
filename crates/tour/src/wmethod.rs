//! Chow's W-method: characterization sets and the `P·W` test suite.
//!
//! The third classic conformance-testing construction (after transition
//! tours and UIO sequences): a **characterization set** `W` is a set of
//! input sequences such that every pair of distinct states is
//! distinguished by at least one sequence in `W`. The W-method test suite
//! applies every sequence of the *transition cover* `P` (reach each
//! transition from reset) followed by every sequence of `W` — detecting
//! all output and transfer errors of any implementation with no more
//! states than the specification.
//!
//! Like UIO sequences, a characterization set exists iff the machine is
//! *reduced* (no output-equivalent states) — the same precondition the
//! paper's Requirement 5 establishes by making interaction state
//! observable.

use crate::random::TestSet;
use simcov_fsm::{ExplicitMealy, InputSym, StateId};
use std::collections::{HashMap, VecDeque};

/// Errors from W-method construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WMethodError {
    /// The machine is not reduced: these state pairs are output-equivalent
    /// under every input sequence, so no characterization set exists.
    NotReduced(Vec<(StateId, StateId)>),
    /// A reachable transition is undefined. The W-method compares the
    /// response of every state to every sequence in `W`, so it needs a
    /// completely specified machine.
    Incomplete {
        /// The reachable state with a missing transition.
        state: StateId,
        /// The input it does not define.
        input: InputSym,
    },
}

impl std::fmt::Display for WMethodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WMethodError::NotReduced(pairs) => write!(
                f,
                "machine is not reduced: {} output-equivalent state pairs",
                pairs.len()
            ),
            WMethodError::Incomplete { state, input } => write!(
                f,
                "machine is incomplete: state {} has no transition on input {} \
                 (the W-method requires a completely specified machine)",
                state.index(),
                input.index()
            ),
        }
    }
}

impl std::error::Error for WMethodError {}

/// Computes a characterization set for the reachable part of `m`: a set
/// of input sequences distinguishing every pair of distinct reachable
/// states.
///
/// Construction: one breadth-first search over the pair graph per
/// unordered pair of reachable states, each yielding a shortest
/// distinguishing sequence (so of length at most `n - 1`). Equal
/// sequences are merged, which leaves up to `n(n - 1)/2` of them.
///
/// # Errors
///
/// * [`WMethodError::NotReduced`] with the undistinguishable pairs.
/// * [`WMethodError::Incomplete`] if a reachable transition is undefined
///   (a malformed model must be reported, not panicked on).
pub fn characterization_set(m: &ExplicitMealy) -> Result<Vec<Vec<InputSym>>, WMethodError> {
    let reach = m.reachable_states();
    let n = reach.len();
    let ni = m.num_inputs();
    let mut idx_of = vec![usize::MAX; m.num_states()];
    for (i, &s) in reach.iter().enumerate() {
        idx_of[s.index()] = i;
    }
    // Tabulate the reachable transition relation up front; a missing
    // entry is a typed error instead of a panic deep inside the pair BFS.
    let mut table: Vec<(usize, u32)> = Vec::with_capacity(n * ni);
    for &s in &reach {
        for i in 0..ni {
            let input = InputSym(i as u32);
            let (nx, o) = m
                .step(s, input)
                .ok_or(WMethodError::Incomplete { state: s, input })?;
            table.push((idx_of[nx.index()], o.0));
        }
    }
    let step = |si: usize, i: usize| -> (usize, u32) { table[si * ni + i] };
    // For each unordered pair, find a shortest distinguishing sequence by
    // BFS over pair states. (O(n² · |I|) per BFS level; fine at the test
    // model sizes the explicit layer handles.)
    let mut dist_seq: HashMap<(usize, usize), Vec<InputSym>> = HashMap::new();
    let mut not_distinguishable = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if dist_seq.contains_key(&(a, b)) {
                continue;
            }
            // BFS over the pair graph from (a, b).
            let mut parent: HashMap<(usize, usize), ((usize, usize), InputSym)> = HashMap::new();
            let mut queue = VecDeque::from([(a, b)]);
            let mut found: Option<((usize, usize), InputSym)> = None;
            parent.insert((a, b), ((a, b), InputSym(0))); // sentinel
            'bfs: while let Some((x, y)) = queue.pop_front() {
                for i in 0..ni {
                    let (nx, ox) = step(x, i);
                    let (ny, oy) = step(y, i);
                    if ox != oy {
                        found = Some(((x, y), InputSym(i as u32)));
                        break 'bfs;
                    }
                    let key = if nx <= ny { (nx, ny) } else { (ny, nx) };
                    if nx != ny && !parent.contains_key(&key) {
                        parent.insert(key, ((x, y), InputSym(i as u32)));
                        queue.push_back(key);
                    }
                }
            }
            match found {
                None => not_distinguishable.push((reach[a], reach[b])),
                Some((last_pair, last_input)) => {
                    // Reconstruct the sequence back to (a, b).
                    let mut seq = vec![last_input];
                    let mut cur = last_pair;
                    while cur != (a, b) {
                        let (prev, inp) = parent[&cur];
                        seq.push(inp);
                        cur = prev;
                    }
                    seq.reverse();
                    dist_seq.insert((a, b), seq);
                }
            }
        }
    }
    if !not_distinguishable.is_empty() {
        return Err(WMethodError::NotReduced(not_distinguishable));
    }
    // Deduplicate: drop sequences that are prefixes of others (a longer
    // sequence distinguishes everything its prefix does not necessarily —
    // so keep exact set, only dedup equal sequences).
    let mut w: Vec<Vec<InputSym>> = dist_seq.into_values().collect();
    w.sort();
    w.dedup();
    Ok(w)
}

/// Builds the W-method test suite: for every reachable transition
/// `(s, i)` and every `w ∈ W`, the sequence
/// *shortest-path-to-s · i · w*.
///
/// # Errors
///
/// [`WMethodError::NotReduced`] if no characterization set exists.
pub fn w_method_test_set(m: &ExplicitMealy) -> Result<TestSet, WMethodError> {
    let w = characterization_set(m)?;
    // Shortest access paths.
    let access = m.bfs(m.reset(), |_| false);
    let mut sequences = Vec::new();
    for &s in access.order() {
        let to_s = access.path(s).expect("reachable states are reached");
        for i in m.inputs() {
            if m.step(s, i).is_none() {
                continue;
            }
            for wseq in &w {
                let mut seq = to_s.clone();
                seq.push(i);
                seq.extend(wseq.iter().copied());
                sequences.push(seq);
            }
        }
    }
    Ok(TestSet { sequences })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_fsm::MealyBuilder;

    fn probe_machine() -> ExplicitMealy {
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
    fn characterization_set_distinguishes_all_pairs() {
        let m = probe_machine();
        let w = characterization_set(&m).unwrap();
        assert!(!w.is_empty());
        for (ai, &a) in m.reachable_states().iter().enumerate() {
            for &b in m.reachable_states().iter().skip(ai + 1) {
                let distinguished = w.iter().any(|seq| m.run(a, seq).1 != m.run(b, seq).1);
                assert!(distinguished, "{a:?} vs {b:?}");
            }
        }
        // The probe input distinguishes everything in one step: W should
        // be small.
        assert!(w.len() <= 3, "{w:?}");
    }

    #[test]
    fn w_method_catches_all_single_faults() {
        let m = probe_machine();
        let ts = w_method_test_set(&m).unwrap();
        // Every transfer and output mutation changes some trace.
        for s in m.reachable_states() {
            for i in m.inputs() {
                let (next, out) = m.step(s, i).unwrap();
                for t in m.reachable_states() {
                    if t != next {
                        let bad = m.with_redirected_transition(s, i, t);
                        let caught = ts
                            .sequences
                            .iter()
                            .any(|seq| m.output_trace(seq) != bad.output_trace(seq));
                        assert!(caught, "transfer ({s:?},{i:?})->{t:?}");
                    }
                }
                for o in 0..m.num_outputs() as u32 {
                    if o != out.0 {
                        let bad = m.with_changed_output(s, i, simcov_fsm::OutputSym(o));
                        let caught = ts
                            .sequences
                            .iter()
                            .any(|seq| m.output_trace(seq) != bad.output_trace(seq));
                        assert!(caught, "output ({s:?},{i:?})->o{o}");
                    }
                }
            }
        }
    }

    #[test]
    fn unreduced_machine_rejected() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let o = b.add_output("o");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s1, a, s0, o);
        let m = b.build(s0).unwrap();
        let err = characterization_set(&m).unwrap_err();
        assert_eq!(err, WMethodError::NotReduced(vec![(s0, s1)]));
        assert!(w_method_test_set(&m).is_err());
    }

    #[test]
    fn incomplete_machine_rejected_not_panicked() {
        // s1 defines no transition on `b`: reachable and incomplete.
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let a = b.add_input("a");
        let bb = b.add_input("b");
        let o = b.add_output("o");
        let p = b.add_output("p");
        b.add_transition(s0, a, s1, o);
        b.add_transition(s0, bb, s0, p);
        b.add_transition(s1, a, s0, p);
        let m = b.build(s0).unwrap();
        let err = characterization_set(&m).unwrap_err();
        assert_eq!(
            err,
            WMethodError::Incomplete {
                state: s1,
                input: bb
            }
        );
        assert!(err.to_string().contains("incomplete"), "{err}");
        assert_eq!(w_method_test_set(&m).unwrap_err(), err);
    }

    #[test]
    fn deep_distinction_found() {
        // States distinguished only after 2 steps: W sequences of length 3.
        let mut b = MealyBuilder::new();
        let s: Vec<_> = (0..6).map(|i| b.add_state(format!("s{i}"))).collect();
        let a = b.add_input("a");
        let o = b.add_output("o");
        let x = b.add_output("x");
        // Chain 1: s0 -> s1 -> s2 -(x)-> s0; chain 2: s3 -> s4 -> s5 -(o)-> s3.
        b.add_transition(s[0], a, s[1], o);
        b.add_transition(s[1], a, s[2], o);
        b.add_transition(s[2], a, s[0], x);
        b.add_transition(s[3], a, s[4], o);
        b.add_transition(s[4], a, s[5], o);
        b.add_transition(s[5], a, s[3], o);
        // Bridge input to make both chains reachable.
        let j = b.add_input("j");
        for i in 0..6 {
            b.add_transition(s[i], j, s[(i + 3) % 6], o);
        }
        let m = b.build(s[0]).unwrap();
        let w = characterization_set(&m).unwrap();
        let max_len = w.iter().map(Vec::len).max().unwrap();
        assert!(max_len >= 3, "need depth-3 distinction: {w:?}");
    }
}
