//! The paper's error model (Definitions 1–4).
//!
//! Any functional error of a Mealy-machine implementation is modelled as
//! either an **output error** (Def 1: some transition emits the wrong
//! output) or a **transfer error** (Def 3: some transition goes to the
//! wrong state) — the FSM fault model of protocol conformance testing
//! (Dahbura, Sabnani & Uyar 1990). A transfer error is **masked** (Def 4)
//! when a later transfer error steers control back onto the correct state
//! sequence before any output difference is observed.

use simcov_fsm::{ExplicitMealy, InputSym, OutputSym, PatchedMealy, StateId};
use std::collections::{HashSet, VecDeque};

/// The two error kinds of the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Definition 1: the transition's output is wrong.
    Output {
        /// The (wrong) output the faulty implementation emits.
        new_output: OutputSym,
    },
    /// Definition 3: the transition's destination state is wrong.
    Transfer {
        /// The (wrong) destination state.
        new_next: StateId,
    },
}

/// A single injected error: one transition of the golden machine, mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Source state of the faulty transition.
    pub state: StateId,
    /// Input of the faulty transition.
    pub input: InputSym,
    /// What is wrong about it.
    pub kind: FaultKind,
}

impl Fault {
    /// Builds the faulty implementation: the golden machine with this one
    /// transition mutated.
    ///
    /// # Panics
    ///
    /// Panics if the transition `(state, input)` is undefined in `golden`.
    pub fn inject(&self, golden: &ExplicitMealy) -> ExplicitMealy {
        match self.kind {
            FaultKind::Output { new_output } => {
                golden.with_changed_output(self.state, self.input, new_output)
            }
            FaultKind::Transfer { new_next } => {
                golden.with_redirected_transition(self.state, self.input, new_next)
            }
        }
    }

    /// Builds the faulty implementation as a zero-clone overlay: the
    /// golden machine borrowed with this one transition replaced
    /// ([`PatchedMealy`]), stepped via
    /// [`step_patched`](PatchedMealy::step_patched).
    ///
    /// Observationally equivalent to [`inject`](Self::inject) — same
    /// transition function, same truncation behaviour — but allocation-
    /// free, which is what lets the differential campaign engine
    /// materialise one mutant per fault without copying the transition
    /// table (see [`crate::differential`]).
    ///
    /// # Panics
    ///
    /// Panics if the transition `(state, input)` is undefined in `golden`.
    pub fn patch<'a>(&self, golden: &'a ExplicitMealy) -> PatchedMealy<'a> {
        let (next, out) = golden
            .step(self.state, self.input)
            .expect("transition must be defined to be patched");
        match self.kind {
            FaultKind::Output { new_output } => {
                golden.patched(self.state, self.input, next, new_output)
            }
            FaultKind::Transfer { new_next } => {
                golden.patched(self.state, self.input, new_next, out)
            }
        }
    }

    /// `true` if injecting this fault actually changes the machine
    /// (redirecting to the original next state, or re-labelling with the
    /// original output, is a no-op).
    pub fn is_effective(&self, golden: &ExplicitMealy) -> bool {
        match (golden.step(self.state, self.input), self.kind) {
            (Some((n, _)), FaultKind::Transfer { new_next }) => n != new_next,
            (Some((_, o)), FaultKind::Output { new_output }) => o != new_output,
            (None, _) => false,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultKind::Output { new_output } => write!(
                f,
                "output error on (s{}, i{}) -> o{}",
                self.state.0, self.input.0, new_output.0
            ),
            FaultKind::Transfer { new_next } => write!(
                f,
                "transfer error on (s{}, i{}) -> s{}",
                self.state.0, self.input.0, new_next.0
            ),
        }
    }
}

/// `true` if *some* input sequence from reset exposes this fault — i.e.
/// the faulty machine is **not** observationally equivalent to the
/// golden one.
///
/// A pair of states of the golden × faulty product is *distinguishing*
/// when some input is defined on exactly one side (truncation asymmetry,
/// which [`detects`] reports) or on both with differing outputs. The
/// fault is detectable iff a distinguishing pair is reachable from
/// `(reset, reset)`; if none is, no test — of any length — can tell the
/// machines apart, the redundant-fault case of ATPG. The closure loop
/// ([`crate::adaptive`]) uses this to prune provably-undetectable
/// survivors from its targets instead of spending rounds on them.
///
/// The mutant differs from the golden machine in one cell `(s, i)`, so
/// the search needs only the part of the product after that cell's first
/// traversal, and it steps the mutant as a [`PatchedMealy`] overlay:
///
/// 1. Until the first excitation the two runs coincide, so the product
///    stays on its diagonal `(d, d)`, at the golden machine's reachable
///    states. If `s` is unreachable, the fault is never excited: it is
///    undetectable.
/// 2. Otherwise a shortest path reaches `s` without traversing `(s, i)`,
///    and the excitation step leaves `(s, s)` with the golden cell's
///    output and successor `δ(s, i)` and the patched cell's `δ′(s, i)`.
///    Differing outputs expose the fault there; equal successors make
///    the mutant the golden machine itself, so it is undetectable.
/// 3. Otherwise the search runs breadth-first from the excitation pair
///    `(δ(s, i), δ′(s, i))` and stops at the first distinguishing pair.
///    It does not expand a re-converged pair `(p, p)`: from the diagonal
///    both machines agree on every input, and the one cell where they
///    differ leads back to the excitation pair. Any distinguishing run
///    from reset leaves the diagonal for the last time through that cell,
///    so its suffix from there is a run of off-diagonal pairs that this
///    search follows.
///
/// Steps 1–3 decide exactly what a search over the whole product from
/// `(reset, reset)` decides.
///
/// # Panics
///
/// Panics if the transition `(fault.state, fault.input)` is undefined in
/// `golden`, as [`Fault::inject`] and [`Fault::patch`] do.
pub fn is_detectable(golden: &ExplicitMealy, fault: &Fault) -> bool {
    let faulty = fault.patch(golden);
    let (s, i) = (fault.state, fault.input);
    // Step 1: a cell the golden machine never reaches is never excited.
    if golden.bfs(golden.reset(), |d| d == s).found().is_none() {
        return false;
    }
    // Step 2: the excitation step, golden cell against patched cell.
    let (p, o) = golden.step(s, i).expect("`patch` checked the cell");
    let (q, fo) = faulty.step_patched(s, i).expect("`patch` set the cell");
    if o != fo {
        return true;
    }
    if p == q {
        return false;
    }
    // Step 3: off-diagonal pairs from the excitation pair.
    let mut seen = HashSet::from([(p, q)]);
    let mut queue = VecDeque::from([(p, q)]);
    while let Some((p, q)) = queue.pop_front() {
        for x in golden.inputs() {
            match (golden.step(p, x), faulty.step_patched(q, x)) {
                (None, None) => {}
                (Some((np, op)), Some((nq, oq))) if op == oq => {
                    if np != nq && seen.insert((np, nq)) {
                        queue.push_back((np, nq));
                    }
                }
                _ => return true,
            }
        }
    }
    false
}

/// Simulates `seq` from reset on both machines and returns the index of
/// the first differing output, if any — the moment the error is *exposed*.
///
/// Truncation asymmetry (one machine hitting an undefined transition
/// before the other) also counts as a detection at the shorter length.
pub fn detects(golden: &ExplicitMealy, faulty: &ExplicitMealy, seq: &[InputSym]) -> Option<usize> {
    let g = golden.output_trace(seq);
    let f = faulty.output_trace(seq);
    let common = g.len().min(f.len());
    for idx in 0..common {
        if g[idx] != f[idx] {
            return Some(idx);
        }
    }
    if g.len() != f.len() {
        return Some(common);
    }
    None
}

/// Runs `seq` on the *faulty* machine and returns the first index at which
/// the faulty transition `(fault.state, fault.input)` is traversed — the
/// moment the error is *excited*. (Excitation without exposure is exactly
/// the escape mode of Figure 2.)
pub fn excited_at(faulty: &ExplicitMealy, fault: &Fault, seq: &[InputSym]) -> Option<usize> {
    let mut cur = faulty.reset();
    for (idx, &i) in seq.iter().enumerate() {
        if cur == fault.state && i == fault.input {
            return Some(idx);
        }
        match faulty.step(cur, i) {
            Some((n, _)) => cur = n,
            None => return None,
        }
    }
    None
}

/// Masking analysis on one sequence (the observable symptom of
/// Definition 4): `true` if the golden and faulty state sequences diverge
/// at some step and *reconverge* to the same state at a later step without
/// any output difference in between. A masked excursion leaves no trace a
/// simulator could observe on this sequence.
pub fn is_masked_on(golden: &ExplicitMealy, faulty: &ExplicitMealy, seq: &[InputSym]) -> bool {
    let (gs, go) = golden.run(golden.reset(), seq);
    let (fs, fo) = faulty.run(faulty.reset(), seq);
    let common_states = gs.len().min(fs.len());
    let common_outs = go.len().min(fo.len());
    let mut diverged = false;
    for idx in 0..common_states {
        if idx < common_outs && go[idx] != fo[idx] {
            // Exposed before any reconvergence: not masked.
            return false;
        }
        if gs[idx] != fs[idx] {
            diverged = true;
        } else if diverged {
            // Reconverged with no output difference observed.
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::figure2;

    #[test]
    fn figure2_sequence_ac_misses_ab_exposes() {
        let (m, fault) = figure2();
        let faulty = fault.inject(&m);
        let a = m.input_by_label("a").unwrap();
        let b = m.input_by_label("b").unwrap();
        let c = m.input_by_label("c").unwrap();
        // <a, a, c>: transfer error excited but NOT exposed.
        assert_eq!(detects(&m, &faulty, &[a, a, c]), None);
        assert_eq!(excited_at(&faulty, &fault, &[a, a, c]), Some(1));
        // <a, a, b>: exposed at the b step.
        assert_eq!(detects(&m, &faulty, &[a, a, b]), Some(2));
    }

    #[test]
    fn inject_and_effectiveness() {
        let (m, fault) = figure2();
        assert!(fault.is_effective(&m));
        let same_dest = Fault {
            state: fault.state,
            input: fault.input,
            kind: FaultKind::Transfer {
                new_next: m.step(fault.state, fault.input).unwrap().0,
            },
        };
        assert!(!same_dest.is_effective(&m));
        let o = m.step(fault.state, fault.input).unwrap().1;
        let same_out = Fault {
            state: fault.state,
            input: fault.input,
            kind: FaultKind::Output { new_output: o },
        };
        assert!(!same_out.is_effective(&m));
    }

    #[test]
    fn output_error_detected_on_traversal() {
        let (m, _) = figure2();
        let a = m.input_by_label("a").unwrap();
        let f = Fault {
            state: m.reset(),
            input: a,
            kind: FaultKind::Output {
                new_output: simcov_fsm::OutputSym(1),
            },
        };
        let faulty = f.inject(&m);
        assert_eq!(detects(&m, &faulty, &[a]), Some(0));
        assert!(f.is_effective(&m));
    }

    #[test]
    fn masking_detected_on_reconvergent_path() {
        let (m, fault) = figure2();
        let faulty = fault.inject(&m);
        let a = m.input_by_label("a").unwrap();
        let c = m.input_by_label("c").unwrap();
        // <a, a, c>: 3' and 3 both go to 5 on c with equal outputs —
        // the excursion reconverges unobserved.
        assert!(is_masked_on(&m, &faulty, &[a, a, c]));
        // <a, a>: diverged but never reconverges within the sequence.
        assert!(!is_masked_on(&m, &faulty, &[a, a]));
    }

    #[test]
    fn masking_false_when_exposed_first() {
        let (m, fault) = figure2();
        let faulty = fault.inject(&m);
        let a = m.input_by_label("a").unwrap();
        let b = m.input_by_label("b").unwrap();
        // <a, a, b, a>: exposed at step 2, even though states reconverge
        // afterwards (both return to 1).
        assert!(!is_masked_on(&m, &faulty, &[a, a, b, a]));
    }

    #[test]
    fn patch_is_observationally_identical_to_inject() {
        let (m, fault) = figure2();
        let a = m.input_by_label("a").unwrap();
        for f in [
            fault,
            Fault {
                state: m.reset(),
                input: a,
                kind: FaultKind::Output {
                    new_output: simcov_fsm::OutputSym(1),
                },
            },
        ] {
            let cloned = f.inject(&m);
            let patched = f.patch(&m);
            for s in m.states() {
                for i in m.inputs() {
                    assert_eq!(patched.step_patched(s, i), cloned.step(s, i), "{f}");
                }
            }
        }
    }

    #[test]
    fn detectability_agrees_with_the_w_method_oracle() {
        use crate::faults::{enumerate_single_faults, simulate_fault, FaultSpace};
        // Independent oracle: on a *reduced* specification the W-method
        // suite detects every mutant with at most as many states as the
        // specification — which single-transition mutants are — unless
        // the mutant is observationally equivalent. So `is_detectable`
        // must agree with the suite's verdict exactly.
        let m = crate::models::traffic_light(true);
        let tests = simcov_tour::w_method_test_set(&m).expect("exposed traffic light is reduced");
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        for f in &faults {
            let out = simulate_fault(&m, f, &tests);
            assert_eq!(is_detectable(&m, f), out.detected.is_some(), "{f}");
        }
    }

    #[test]
    fn undetectable_verdicts_on_figure2_resist_heavy_random_testing() {
        use crate::faults::{enumerate_single_faults, simulate_fault, FaultSpace};
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let undetectable: Vec<_> = faults.iter().filter(|f| !is_detectable(&m, f)).collect();
        // Figure 2 keeps a bisimilar state pair (3 ≈ 3′ under input c's
        // closure), so some transfer mutants are equivalent machines.
        assert!(!undetectable.is_empty());
        let tests = simcov_tour::random_test_set(&m, 64, 64, 42);
        for f in undetectable {
            let out = simulate_fault(&m, f, &tests);
            assert_eq!(out.detected, None, "{f} was declared undetectable");
        }
    }

    #[test]
    fn display_formats() {
        let (m, fault) = figure2();
        assert!(fault.to_string().contains("transfer error"));
        let a = m.input_by_label("a").unwrap();
        let of = Fault {
            state: m.reset(),
            input: a,
            kind: FaultKind::Output {
                new_output: simcov_fsm::OutputSym(2),
            },
        };
        assert!(of.to_string().contains("output error"));
    }
}
