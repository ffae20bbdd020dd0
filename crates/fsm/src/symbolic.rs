//! Symbolic (BDD-based) Mealy machines and implicit reachability.
//!
//! The next-state and output functions come from [`lower_netlist`] (the
//! crate's one gate-to-BDD mapping) under this module's variable layout.
//!
//! Variable order: for latch `j`, the current-state variable sits at level
//! `2j` and the next-state variable at level `2j + 1` (interleaving keeps
//! the `y ⇔ f(x)` constraints narrow); primary input `k` sits at level
//! `2 · num_latches + k`.

use crate::image::ImageSchedule;
use crate::lower::{lower_netlist, NetlistBdds};
use simcov_bdd::{Bdd, BddManager, Var};
use simcov_netlist::Netlist;

/// Result of a reachability fixed-point computation.
#[derive(Debug, Clone, Copy)]
pub struct ReachResult {
    /// Characteristic function of the reachable state set (over the
    /// current-state variables).
    pub reached: Bdd,
    /// Number of image iterations to the fixed point (the sequential
    /// depth of the design plus one).
    pub iterations: usize,
}

/// A Mealy machine represented by BDD next-state and output functions,
/// built from a [`Netlist`].
///
/// # Example
///
/// ```
/// use simcov_netlist::Netlist;
/// use simcov_fsm::SymbolicFsm;
///
/// // A toggle flip-flop: one latch, no inputs, 2 reachable states.
/// let mut n = Netlist::new();
/// let q = n.add_latch("q", false);
/// let qo = n.latch_output(q);
/// let nq = n.not(qo);
/// n.set_latch_next(q, nq);
/// n.add_output("q", qo);
///
/// let mut fsm = SymbolicFsm::from_netlist(&n);
/// let r = fsm.reachable();
/// assert_eq!(fsm.count_states(r.reached), 2);
/// ```
pub struct SymbolicFsm {
    mgr: BddManager,
    num_latches: usize,
    num_inputs: usize,
    next_fns: Vec<Bdd>,
    output_fns: Vec<(String, Bdd)>,
    init: Bdd,
    valid: Bdd,
    input_names: Vec<String>,
    /// The `(y_j ⇔ f_j)` conjuncts and their early-quantification
    /// schedule, built on first use.
    schedule: Option<ImageSchedule>,
}

impl SymbolicFsm {
    /// Builds the symbolic machine of a netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::check`] (e.g. a latch without
    /// a next-state function).
    pub fn from_netlist(n: &Netlist) -> Self {
        let num_latches = n.num_latches();
        let num_inputs = n.num_inputs();
        let total_vars = (2 * num_latches + num_inputs) as u32;
        let mut mgr = BddManager::new(total_vars.max(1));
        let NetlistBdds { next, outputs } = lower_netlist(
            &mut mgr,
            n,
            |m, i| m.var((2 * num_latches + i.index()) as u32),
            |m, l| m.var(2 * l.index() as u32),
        );
        let output_fns: Vec<(String, Bdd)> = n
            .outputs()
            .iter()
            .map(|(name, _)| name.clone())
            .zip(outputs)
            .collect();
        // Initial state cube.
        let mut init = Bdd::TRUE;
        for (j, l) in n.latches().iter().enumerate() {
            let v = mgr.var(2 * j as u32);
            let lit = if l.init { v } else { mgr.not(v) };
            init = mgr.and(init, lit);
        }
        SymbolicFsm {
            mgr,
            num_latches,
            num_inputs,
            next_fns: next,
            output_fns,
            init,
            valid: Bdd::TRUE,
            input_names: n.input_names().map(str::to_string).collect(),
            schedule: None,
        }
    }

    /// The BDD manager (for building constraints over this machine's
    /// variables).
    pub fn mgr(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// Read-only access to the manager (counting, evaluation).
    pub fn mgr_ref(&self) -> &BddManager {
        &self.mgr
    }

    /// Current-state variable of latch `j`.
    pub fn state_var(&self, j: usize) -> Var {
        assert!(j < self.num_latches);
        Var(2 * j as u32)
    }

    /// Variable of primary input `k`.
    pub fn input_var(&self, k: usize) -> Var {
        assert!(k < self.num_inputs);
        Var((2 * self.num_latches + k) as u32)
    }

    /// Variable of the primary input with the given name.
    pub fn input_var_by_name(&self, name: &str) -> Option<Var> {
        self.input_names
            .iter()
            .position(|n| n == name)
            .map(|k| self.input_var(k))
    }

    /// The input names, cloned (useful when the borrow checker forbids
    /// holding a reference across `mgr()` calls).
    pub fn input_names_owned(&self) -> Vec<String> {
        self.input_names.clone()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The initial-state cube (over current-state variables).
    pub fn init(&self) -> Bdd {
        self.init
    }

    /// The valid-input constraint currently in force.
    pub fn valid_inputs(&self) -> Bdd {
        self.valid
    }

    /// Restricts the machine to input vectors satisfying `valid` — the
    /// paper's *input don't-cares* ("of the 2^25 possible input
    /// combinations, only 8228 are valid"). The constraint may mention
    /// input and current-state variables.
    pub fn set_valid_inputs(&mut self, valid: Bdd) {
        self.valid = valid;
    }

    /// The named output functions (over state and input vars).
    pub fn output_fns(&self) -> &[(String, Bdd)] {
        &self.output_fns
    }

    /// The image schedule, built on first use, and the manager it lives
    /// in.
    fn schedule(&mut self) -> (&ImageSchedule, &mut BddManager) {
        let (nl, ni) = (self.num_latches as u32, self.num_inputs as u32);
        let sched = self.schedule.get_or_insert_with(|| {
            let latches: Vec<(Var, Var)> = (0..nl).map(|j| (Var(2 * j), Var(2 * j + 1))).collect();
            let inputs: Vec<Var> = (0..ni).map(|k| Var(2 * nl + k)).collect();
            ImageSchedule::new(&mut self.mgr, &self.next_fns, &latches, &inputs)
        });
        (sched, &mut self.mgr)
    }

    /// The monolithic transition relation `T(x, i, y) = ∧_j (y_j ⇔ f_j)`,
    /// conjoined with the valid-input constraint. This is the object whose
    /// construction time Section 7.2 reports ("about 10 seconds on an
    /// UltraSparc").
    ///
    /// Conjuncts accumulate in reverse latch order, so the partial product
    /// picks up the deepest-levelled `y_j ⇔ f_j` parts first and each new
    /// conjunct's top variable sits above most of what has been built —
    /// measured fastest among the schedules tried on the DLX model
    /// (size-ordered and balanced-tree reductions both lost; the real cost
    /// lives in the BDD package's cache behaviour, not the schedule). The
    /// result is the same canonical BDD under any order.
    pub fn transition_relation(&mut self) -> Bdd {
        let valid = self.valid;
        let (sched, mgr) = self.schedule();
        sched.conjuncts().rev().fold(valid, |t, p| mgr.and(t, p))
    }

    /// Image of a state set under the transition relation, using
    /// partitioned conjunction with early quantification: `Img(S)(x) =
    /// (∃x, i . S ∧ valid ∧ T)[y → x]`.
    pub fn image(&mut self, from: Bdd) -> Bdd {
        let valid = self.valid;
        let (sched, mgr) = self.schedule();
        sched.image(mgr, from, valid)
    }

    /// Least fixed point of [`SymbolicFsm::image`] from the initial state:
    /// the reachable state set.
    pub fn reachable(&mut self) -> ReachResult {
        let (init, valid) = (self.init, self.valid);
        let (sched, mgr) = self.schedule();
        sched.reach(mgr, init, valid)
    }

    /// The current-state variables, in latch order.
    fn state_vars(&self) -> Vec<Var> {
        (0..self.num_latches).map(|j| self.state_var(j)).collect()
    }

    /// The input variables, in input order.
    fn input_vars(&self) -> Vec<Var> {
        (0..self.num_inputs).map(|k| self.input_var(k)).collect()
    }

    /// The variables of a `(state, input)` cell: the current-state
    /// variables, then the inputs.
    fn cell_vars(&self) -> Vec<Var> {
        [self.state_vars(), self.input_vars()].concat()
    }

    /// Exact number of states in `set`, counted over the current-state
    /// variables ([`BddManager::count_over`]: `u128::MAX` from 2^128 on).
    ///
    /// # Panics
    ///
    /// Panics if `set` depends on a variable other than the current-state
    /// variables.
    pub fn count_states(&self, set: Bdd) -> u128 {
        self.mgr.count_over(set, &self.state_vars())
    }

    /// Exact number of *transitions* leaving `reached`: pairs `(state,
    /// input)` with the state in `reached` and the input valid. This is
    /// the paper's transition count (each such pair is one edge of the
    /// state transition graph that a transition tour must visit). Counted
    /// over the state and input variables.
    pub fn count_transitions(&mut self, reached: Bdd) -> u128 {
        let both = self.mgr.and(reached, self.valid);
        self.mgr.count_over(both, &self.cell_vars())
    }

    /// Exact number of valid input vectors: assignments to the input
    /// variables that satisfy the valid-input constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint depends on a state variable.
    pub fn count_valid_inputs(&self) -> u128 {
        self.mgr.count_over(self.valid, &self.input_vars())
    }
}

/// Accumulates visited `(state, input)` pairs as a BDD — transition
/// coverage measurement on models whose transition count (hundreds of
/// millions here, as in the paper's Section 7.2) is far beyond explicit
/// tracking.
#[derive(Debug, Clone, Copy)]
pub struct CoverageAccumulator {
    visited: Bdd,
}

impl CoverageAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        CoverageAccumulator {
            visited: Bdd::FALSE,
        }
    }
}

impl Default for CoverageAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolicFsm {
    /// Records one simulation step's `(state, input)` pair into the
    /// accumulator.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn record_visit(&mut self, acc: &mut CoverageAccumulator, state: &[bool], inputs: &[bool]) {
        assert_eq!(state.len(), self.num_latches, "state width mismatch");
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        let mut cube = Bdd::TRUE;
        // Build bottom-up (reverse level order) so each conjunction is a
        // single mk_node.
        for (k, &bit) in inputs.iter().enumerate().rev() {
            let v = self.input_var(k);
            let x = self.mgr.var(v.0);
            let lit = if bit { x } else { self.mgr.not(x) };
            cube = self.mgr.and(lit, cube);
        }
        for (j, &bit) in state.iter().enumerate().rev() {
            let v = self.state_var(j);
            let x = self.mgr.var(v.0);
            let lit = if bit { x } else { self.mgr.not(x) };
            cube = self.mgr.and(lit, cube);
        }
        acc.visited = self.mgr.or(acc.visited, cube);
    }

    /// Number of distinct `(state, input)` transitions recorded, counted
    /// over the state and input variables.
    pub fn coverage_count(&self, acc: &CoverageAccumulator) -> u128 {
        self.mgr.count_over(acc.visited, &self.cell_vars())
    }
}

impl std::fmt::Debug for SymbolicFsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SymbolicFsm({} latches, {} inputs, {} outputs)",
            self.num_latches,
            self.num_inputs,
            self.output_fns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_netlist::Netlist;

    /// 3-bit binary counter with enable: 8 reachable states.
    fn counter3() -> Netlist {
        let mut n = Netlist::new();
        let en = n.add_input("en");
        let b: Vec<_> = (0..3)
            .map(|i| n.add_latch(format!("b{i}"), false))
            .collect();
        let o: Vec<_> = b.iter().map(|&l| n.latch_output(l)).collect();
        // carry chain
        let mut carry = en;
        for i in 0..3 {
            let nx = n.xor(o[i], carry);
            n.set_latch_next(b[i], nx);
            carry = n.and(carry, o[i]);
        }
        n.add_output("msb", o[2]);
        n
    }

    #[test]
    fn reachable_counts_full_counter() {
        let mut fsm = SymbolicFsm::from_netlist(&counter3());
        let r = fsm.reachable();
        assert_eq!(fsm.count_states(r.reached), 8);
        // Depth: 8 steps to see all states + 1 to observe the fixed point.
        assert!(r.iterations >= 8 && r.iterations <= 9, "{}", r.iterations);
    }

    #[test]
    fn reachable_restricted_by_stuck_enable() {
        let mut fsm = SymbolicFsm::from_netlist(&counter3());
        // Forbid en=1: counter can never move.
        let en = fsm.input_var_by_name("en").unwrap();
        let en_b = fsm.mgr().var(en.0);
        let not_en = fsm.mgr().not(en_b);
        fsm.set_valid_inputs(not_en);
        let r = fsm.reachable();
        assert_eq!(fsm.count_states(r.reached), 1);
        assert_eq!(fsm.count_valid_inputs(), 1);
    }

    #[test]
    fn count_transitions_counts_state_input_pairs() {
        let mut fsm = SymbolicFsm::from_netlist(&counter3());
        let r = fsm.reachable();
        // 8 states × 2 inputs.
        assert_eq!(fsm.count_transitions(r.reached), 16);
    }

    #[test]
    fn transition_relation_has_one_successor_per_cell() {
        let mut fsm = SymbolicFsm::from_netlist(&counter3());
        let t = fsm.transition_relation();
        // Each (x, i) pair has exactly one y: 8 × 2 = 16 satisfying
        // assignments over x, i, y.
        let all: Vec<Var> = (0..2 * 3 + 1).map(Var).collect();
        assert_eq!(fsm.mgr_ref().count_over(t, &all), 16);
    }

    #[test]
    fn image_of_init_is_successors() {
        let mut fsm = SymbolicFsm::from_netlist(&counter3());
        let init = fsm.init();
        let img = fsm.image(init);
        // From state 0: en=0 stays at 0, en=1 goes to 1 → {0, 1}.
        assert_eq!(fsm.count_states(img), 2);
    }

    #[test]
    fn init_cube_respects_init_values() {
        let mut n = Netlist::new();
        let a = n.add_latch("a", true);
        let b = n.add_latch("b", false);
        let ao = n.latch_output(a);
        let bo = n.latch_output(b);
        n.set_latch_next(a, ao);
        n.set_latch_next(b, bo);
        n.add_output("a", ao);
        n.add_output("b", bo);
        let mut fsm = SymbolicFsm::from_netlist(&n);
        let r = fsm.reachable();
        assert_eq!(fsm.count_states(r.reached), 1);
        // init: a=1, b=0
        let init = fsm.init();
        assert!(fsm.mgr_ref().eval(init, &[true, false, false, false]));
        assert!(!fsm.mgr_ref().eval(init, &[false, false, true, false]));
    }

    #[test]
    #[should_panic(expected = "which is not counted")]
    fn count_states_rejects_input_dependence() {
        let mut fsm = SymbolicFsm::from_netlist(&counter3());
        let en = fsm.input_var_by_name("en").unwrap();
        let en_b = fsm.mgr().var(en.0);
        fsm.count_states(en_b);
    }

    #[test]
    fn coverage_accumulator_counts_distinct_pairs() {
        let mut fsm = SymbolicFsm::from_netlist(&counter3());
        let mut acc = CoverageAccumulator::new();
        assert_eq!(fsm.coverage_count(&acc), 0);
        fsm.record_visit(&mut acc, &[false, false, false], &[true]);
        fsm.record_visit(&mut acc, &[false, false, false], &[false]);
        // Duplicate visit: count unchanged.
        fsm.record_visit(&mut acc, &[false, false, false], &[true]);
        assert_eq!(fsm.coverage_count(&acc), 2);
        fsm.record_visit(&mut acc, &[true, false, false], &[true]);
        assert_eq!(fsm.coverage_count(&acc), 3);
    }

    #[test]
    fn coverage_reaches_total_on_full_walk() {
        let n = counter3();
        let mut fsm = SymbolicFsm::from_netlist(&n);
        let r = fsm.reachable();
        let total = fsm.count_transitions(r.reached);
        let mut acc = CoverageAccumulator::new();
        // Walk every (state, input) pair explicitly.
        let mut states = vec![n.initial_state()];
        let mut seen = std::collections::HashSet::new();
        seen.insert(n.initial_state());
        while let Some(s) = states.pop() {
            for en in [false, true] {
                fsm.record_visit(&mut acc, &s, &[en]);
                let (nx, _) = n.step(&s, &[en]);
                if seen.insert(nx.clone()) {
                    states.push(nx);
                }
            }
        }
        assert_eq!(fsm.coverage_count(&acc), total);
    }

    #[test]
    fn output_fns_present() {
        let fsm = SymbolicFsm::from_netlist(&counter3());
        assert_eq!(fsm.output_fns().len(), 1);
        assert_eq!(fsm.output_fns()[0].0, "msb");
        assert_eq!(fsm.num_latches(), 3);
        assert_eq!(fsm.num_inputs(), 1);
    }

    /// `width` latches, latch `j` loading input `j`: every state is
    /// reachable, and every cell is a transition.
    fn bank(width: usize) -> Netlist {
        let mut n = Netlist::new();
        for j in 0..width {
            let i = n.add_input(format!("i{j}"));
            let q = n.add_latch(format!("q{j}"), false);
            n.set_latch_next(q, i);
        }
        n
    }

    /// Each count runs over the variables it counts, not over the whole
    /// machine: a 54-latch bank (2·54 + 54 = 162 variables) counts its
    /// 2^54 states and 2^108 transitions exactly, and a machine of 141
    /// variables with one reachable state counts it.
    #[test]
    fn counts_run_over_what_they_count() {
        let mut fsm = SymbolicFsm::from_netlist(&bank(54));
        let r = fsm.reachable();
        assert_eq!(fsm.count_states(r.reached), 1 << 54);
        assert_eq!(fsm.count_transitions(r.reached), 1 << 108);
        assert_eq!(fsm.count_valid_inputs(), 1 << 54);
        let mut acc = CoverageAccumulator::new();
        fsm.record_visit(&mut acc, &[true; 54], &[false; 54]);
        assert_eq!(fsm.coverage_count(&acc), 1);

        // 70 latches that hold their value, and one input.
        let mut n = Netlist::new();
        n.add_input("en");
        for i in 0..70 {
            let l = n.add_latch(format!("b{i}"), false);
            let o = n.latch_output(l);
            n.set_latch_next(l, o);
        }
        let mut fsm = SymbolicFsm::from_netlist(&n);
        let r = fsm.reachable();
        assert_eq!(fsm.count_states(r.reached), 1);
        assert_eq!(fsm.count_transitions(r.reached), 2);
        assert_eq!(fsm.count_valid_inputs(), 2);
    }

    #[test]
    fn counts_saturate_instead_of_overflowing() {
        // 130 latches and 130 inputs: 2^130 states and valid inputs and
        // 2^260 transitions do not fit in u128, so those counts saturate
        // rather than panicking or wrapping. The coverage count stays
        // exact.
        let mut fsm = SymbolicFsm::from_netlist(&bank(130));
        let r = fsm.reachable();
        assert_eq!(fsm.count_states(r.reached), u128::MAX);
        assert_eq!(fsm.count_transitions(r.reached), u128::MAX);
        assert_eq!(fsm.count_valid_inputs(), u128::MAX);
        let mut acc = CoverageAccumulator::new();
        assert_eq!(fsm.coverage_count(&acc), 0);
        fsm.record_visit(&mut acc, &[false; 130], &[true; 130]);
        assert_eq!(fsm.coverage_count(&acc), 1);
    }
}
