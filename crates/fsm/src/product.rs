//! Symbolic pair (product) machine: two copies of a design driven by the
//! same inputs — the machinery for checking ∀k-distinguishability
//! (Definition 5 of the paper) *implicitly*, on models whose pair space
//! is far beyond explicit enumeration.
//!
//! Variable order (interleaved for narrow equality relations): for latch
//! `j`, copy-A current state at level `4j`, copy-B current state at
//! `4j + 1`, copy-A next state at `4j + 2` (the image variables of
//! reachability); level `4j + 3` is unused. Shared primary input `k` is
//! at `4·L + k`. Each copy is one [`lower_netlist`] of the design under
//! its half of that layout; [`PairFsm::set_valid_inputs`] replaces both
//! copies' functions by their generalized cofactors by the valid inputs.
//!
//! The analysis iterates the *equal-output-reachable* pair relation
//! exactly like the explicit checker in `simcov-core`:
//!
//! ```text
//! E_0(x, x')  = true
//! E_t(x, x')  = ∃ i valid(i) . out(x, i) = out(x', i)
//!                              ∧ E_{t-1}(δ(x, i), δ(x', i))
//! ```
//!
//! Each step is one preimage: a simultaneous substitution
//! `xA := δA, xB := δB` of `E_{t-1}`, then one relational product over
//! the inputs. A pair of distinct reachable states in `E_k` violates
//! ∀k-distinguishability.

use crate::image::ImageSchedule;
use crate::lower::{constrain_to_care, lower_netlist};
use simcov_bdd::{Bdd, BddManager, Var};
use simcov_netlist::{InputId, Netlist};

/// Result of the symbolic ∀k-distinguishability analysis.
#[derive(Debug, Clone, Copy)]
pub struct PairAnalysisResult {
    /// The `k` that was analysed.
    pub k: usize,
    /// Number of unordered pairs of distinct reachable states violating
    /// ∀k-distinguishability, counted over both copies' state variables.
    /// Like every count here it is exact below 2^128 and `u128::MAX`
    /// from there on ([`BddManager::count_over`]).
    pub violating_pairs: u128,
    /// Number of reachable states (for context), counted over copy A's
    /// state variables; `2^L` without the reachability restriction.
    pub reachable_states: u128,
    /// `true` iff no violating pair exists — the hypothesis of Theorem 1.
    /// Read off the violating-pair BDD, so it is exact at any width.
    pub holds: bool,
    /// `true` if `E` reached a fixed point before `k` iterations (the
    /// result is then valid for every `k' ≥ k` as well).
    pub fixed_point: bool,
}

/// Result of preparing a transfer-fault detectability analysis:
/// everything that does not depend on which latch the fault flips, shared
/// across the per-latch queries of [`PairFsm::transfer_flip_detectable`].
///
/// Cloning the owning [`PairFsm`] *after* building the prep (both are
/// `Clone`) gives shard workers independent managers with identical handle
/// spaces, so the prep's BDD handles stay valid in every clone.
#[derive(Debug, Clone)]
pub struct TransferDetectPrep {
    /// Reachable states of the golden machine (over copy-A current-state
    /// variables).
    pub reached: Bdd,
    /// `reached ∧ valid`: the reachable `(state, input)` cells (over
    /// copy-A current-state + shared input variables).
    pub reachable_cells_set: Bdd,
    /// `E_k ∧ distinct`: pairs of distinct states from which some valid
    /// `k`-sequence keeps all outputs equal (over the current-state pair
    /// levels `4j` / `4j+1`).
    pub escape: Bdd,
    /// Whether the `E` iteration converged before `k` rounds (the
    /// per-latch results are then valid for every `k' ≥ k`).
    pub fixed_point: bool,
    /// The `k` that was prepared.
    pub k: usize,
    /// Number of reachable states, counted over copy A's state variables
    /// (`u128::MAX` from 2^128 on, as every count here).
    pub reachable_states: u128,
    /// Number of reachable `(state, input)` cells — the per-latch fault
    /// universe — counted over copy A's state and the input variables.
    pub reachable_cells: u128,
}

/// A symbolic pair machine over a netlist; see the module docs.
#[derive(Clone)]
pub struct PairFsm {
    mgr: BddManager,
    num_latches: usize,
    num_inputs: usize,
    input_names: Vec<String>,
    /// Both copies' functions as lowered from the netlist.
    lowered: PairFns,
    /// The functions every query uses: `lowered`, or its generalized
    /// cofactors by `valid` (see [`PairFsm::set_valid_inputs`]).
    fns: PairFns,
    valid: Bdd,
}

/// Next-state and output functions of both copies.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PairFns {
    /// Next-state functions of copy A (over A-state + input vars).
    next_a: Vec<Bdd>,
    /// Next-state functions of copy B.
    next_b: Vec<Bdd>,
    /// Output functions of both copies.
    out_a: Vec<Bdd>,
    out_b: Vec<Bdd>,
}

impl PairFns {
    /// Every function: both copies' next-state functions, then outputs.
    fn all_mut(&mut self) -> impl Iterator<Item = &mut Bdd> {
        [
            &mut self.next_a,
            &mut self.next_b,
            &mut self.out_a,
            &mut self.out_b,
        ]
        .into_iter()
        .flatten()
    }
}

impl PairFsm {
    /// Builds the pair machine of a netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::check`].
    pub fn from_netlist(n: &Netlist) -> Self {
        let nl = n.num_latches();
        let ni = n.num_inputs();
        let total = (4 * nl + ni) as u32;
        let mut mgr = BddManager::new(total.max(1));
        let input = |m: &mut BddManager, i: InputId| m.var((4 * nl + i.index()) as u32);
        let a = lower_netlist(&mut mgr, n, input, |m, l| m.var(4 * l.index() as u32));
        let b = lower_netlist(&mut mgr, n, input, |m, l| m.var(4 * l.index() as u32 + 1));
        let lowered = PairFns {
            next_a: a.next,
            next_b: b.next,
            out_a: a.outputs,
            out_b: b.outputs,
        };
        PairFsm {
            num_latches: nl,
            num_inputs: ni,
            input_names: n.input_names().map(str::to_string).collect(),
            fns: lowered.clone(),
            lowered,
            valid: Bdd::TRUE,
            mgr,
        }
    }

    /// The manager, for constraint construction.
    pub fn mgr(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// Read-only manager access (stats, counting).
    pub fn mgr_ref(&self) -> &BddManager {
        &self.mgr
    }

    /// Number of latches of one machine copy.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// The shared input variable `k`.
    pub fn input_var(&self, k: usize) -> Var {
        Var((4 * self.num_latches + k) as u32)
    }

    /// The shared input variable with the given name.
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

    /// Restricts the analysis to input vectors satisfying `valid` (over
    /// the shared input variables).
    ///
    /// Both copies' next-state and output functions are replaced by their
    /// generalized cofactors `f ↓ valid` (the crate's care-set rule),
    /// derived from the functions as lowered, so a later call starts
    /// afresh. This is exact: every query evaluates the functions only
    /// where `valid` holds (images conjoin `valid`, each `E` step
    /// conjoins a care set inside it, and flips are counted over
    /// `reached ∧ valid`), so every result is the same canonical BDD as
    /// without the cofactors. A constant `valid` keeps the lowered
    /// functions.
    pub fn set_valid_inputs(&mut self, valid: Bdd) {
        self.valid = valid;
        self.fns = self.lowered.clone();
        constrain_to_care(&mut self.mgr, self.fns.all_mut(), valid);
    }

    /// Runs the ∀k-distinguishability analysis.
    ///
    /// `init` gives the power-on latch values (used to restrict the pair
    /// space to *reachable* states of the machine). When
    /// `restrict_reachable` is `false`, all `2^L × 2^L` pairs are
    /// analysed instead (a stronger, state-space-wide property).
    ///
    /// With the restriction, copy A's reachable states are computed on a
    /// clone of the manager on a second thread while the `E` recursion
    /// runs on this one, as in [`PairFsm::transfer_detect_prep`]; the
    /// result does not depend on how the two interleave.
    pub fn forall_k(
        &mut self,
        init: &[bool],
        k: usize,
        restrict_reachable: bool,
    ) -> PairAnalysisResult {
        assert_eq!(init.len(), self.num_latches, "init width mismatch");
        let (bad, fixed_point, reached) = if restrict_reachable {
            self.reachable_violations(init, k)
        } else {
            let (bad, fixed_point) = self.equal_output_pairs(k);
            (bad, fixed_point, Bdd::TRUE)
        };
        let reachable_states = self.mgr.count_over(reached, &self.state_vars_a());
        let violating_pairs = match self.mgr.count_over(bad, &self.pair_vars()) {
            u128::MAX => u128::MAX,
            ordered => ordered / 2,
        };
        PairAnalysisResult {
            k,
            violating_pairs,
            reachable_states,
            holds: bad.is_false(),
            fixed_point,
        }
    }

    /// `E_k ∧ distinct` over pairs of reachable states, whether the `E`
    /// iteration converged before `k` rounds, and copy A's reachable
    /// states.
    fn reachable_violations(&mut self, init: &[bool], k: usize) -> (Bdd, bool, Bdd) {
        let ((bad, fixed_point), reached) =
            self.beside_reachable_a(init, |pf| pf.equal_output_pairs(k));
        let reached_b = self.rename_a_to_b(reached);
        let t = self.mgr.and(bad, reached);
        (self.mgr.and(t, reached_b), fixed_point, reached)
    }

    /// The `E_k ∧ distinct` relation and whether the iteration converged
    /// before `k` rounds.
    fn equal_output_pairs(&mut self, k: usize) -> (Bdd, bool) {
        let nl = self.num_latches;
        // valid(i) ∧ out(xA, i) = out(xB, i)
        let mut care = self.valid;
        for m in 0..self.fns.out_a.len() {
            let e = self.mgr.iff(self.fns.out_a[m], self.fns.out_b[m]);
            care = self.mgr.and(care, e);
        }
        let delta: Vec<(Var, Bdd)> = (0..nl)
            .flat_map(|j| {
                let x = 4 * j as u32;
                [
                    (Var(x), self.fns.next_a[j]),
                    (Var(x + 1), self.fns.next_b[j]),
                ]
            })
            .collect();
        let in_vars: Vec<Var> = (0..self.num_inputs).map(|i| self.input_var(i)).collect();
        let in_cube = self.mgr.cube_from_vars(&in_vars);
        let mut e = Bdd::TRUE;
        let mut fixed_point = false;
        for _ in 0..k {
            let succ = self.mgr.substitute(e, &delta);
            let new_e = self.mgr.and_exists(succ, care, in_cube);
            if new_e == e {
                fixed_point = true;
                break;
            }
            e = new_e;
        }
        let mut distinct = Bdd::FALSE;
        for j in 0..nl {
            let xa = self.mgr.var(4 * j as u32);
            let xb = self.mgr.var(4 * j as u32 + 1);
            let d = self.mgr.xor(xa, xb);
            distinct = self.mgr.or(distinct, d);
        }
        (self.mgr.and(e, distinct), fixed_point)
    }

    /// Runs `main` on this machine while copy A's reachable states from
    /// `init` are computed beside it, then returns both, the states as a
    /// handle of this machine's manager.
    ///
    /// The two share no intermediate result. The reachability runs on a
    /// clone of the manager taken on entry, on a scoped thread, and the
    /// set is copied back once both are done ([`BddManager::copy_from`],
    /// which adds the clone's operation counters to this manager's). Each
    /// manager runs the same operations however the threads interleave,
    /// so every handle, node count and counter is the same on every run.
    /// The clone, and the image schedule the reachability builds in it,
    /// die here.
    fn beside_reachable_a<T>(
        &mut self,
        init: &[bool],
        main: impl FnOnce(&mut Self) -> T,
    ) -> (T, Bdd) {
        let mut side = self.mgr.clone();
        let since = side.runtime_stats();
        let next_a = self.fns.next_a.clone();
        let (valid, num_inputs) = (self.valid, self.num_inputs);
        let (out, reached) = std::thread::scope(|s| {
            let reach = s.spawn(|| Self::reachable_a(&mut side, &next_a, valid, init, num_inputs));
            let out = main(self);
            let reached = reach
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (out, reached)
        });
        (out, self.mgr.copy_from(&side, reached, &since))
    }

    /// Reachable state set of copy A (over copy-A variables) in `mgr`,
    /// with next-state functions `next_a` under the input care set
    /// `valid`, and copy-A next-state slots (level `4j + 2`) as the image
    /// variables.
    fn reachable_a(
        mgr: &mut BddManager,
        next_a: &[Bdd],
        valid: Bdd,
        init: &[bool],
        num_inputs: usize,
    ) -> Bdd {
        let nl = init.len();
        let mut init_a = Bdd::TRUE;
        for (j, &v) in init.iter().enumerate() {
            let x = mgr.var(4 * j as u32);
            let lit = if v { x } else { mgr.not(x) };
            init_a = mgr.and(init_a, lit);
        }
        let latches: Vec<(Var, Var)> = (0..nl as u32)
            .map(|j| (Var(4 * j), Var(4 * j + 2)))
            .collect();
        let inputs: Vec<Var> = (0..num_inputs).map(|k| Var((4 * nl + k) as u32)).collect();
        let sched = ImageSchedule::new(mgr, next_a, &latches, &inputs);
        sched.reach(mgr, init_a, valid).reached
    }

    fn rename_a_to_b(&mut self, f: Bdd) -> Bdd {
        let map: Vec<(Var, Var)> = (0..self.num_latches)
            .map(|j| (Var(4 * j as u32), Var(4 * j as u32 + 1)))
            .collect();
        self.mgr.rename(f, &map)
    }

    /// Copy A's current-state variables (levels `4j`).
    fn state_vars_a(&self) -> Vec<Var> {
        (0..self.num_latches).map(|j| Var(4 * j as u32)).collect()
    }

    /// Both copies' current-state variables (levels `4j` and `4j + 1`).
    fn pair_vars(&self) -> Vec<Var> {
        (0..self.num_latches)
            .flat_map(|j| [Var(4 * j as u32), Var(4 * j as u32 + 1)])
            .collect()
    }

    /// The variables of a `(state, input)` cell: copy A's current-state
    /// variables and the shared inputs.
    fn cell_vars(&self) -> Vec<Var> {
        let inputs = (0..self.num_inputs).map(|k| self.input_var(k));
        self.state_vars_a().into_iter().chain(inputs).collect()
    }

    /// Prepares the flip-independent parts of a transfer-fault
    /// detectability analysis: golden reachability, the reachable-cell
    /// relation, and the `k`-step output-equality escape relation. See
    /// [`PairFsm::transfer_flip_detectable`].
    ///
    /// The escape relation and the reachability share no intermediate
    /// result, so they run at once on two managers: the reachability on
    /// a clone of this machine's manager, on a scoped thread, the `E`
    /// recursion on the manager itself. The reachable set is then copied
    /// back ([`BddManager::copy_from`]), and this manager's
    /// [`BddManager::runtime_stats`] then include the clone's operations.
    /// The split takes a second thread whatever thread budget the caller
    /// has, and the result, the node numbering and the counters do not
    /// depend on how the two threads interleave.
    ///
    /// Before returning it reclaims every node it made that its three
    /// result handles do not reach ([`BddManager::reclaim_since`]), so
    /// the per-flip clones copy a small store. Every handle taken before
    /// the call (the valid-input constraint, say) stays valid.
    pub fn transfer_detect_prep(&mut self, init: &[bool], k: usize) -> TransferDetectPrep {
        assert_eq!(init.len(), self.num_latches, "init width mismatch");
        let mark = self.mgr.num_nodes();
        let ((escape, fixed_point), reached) =
            self.beside_reachable_a(init, |pf| pf.equal_output_pairs(k));
        let cells = self.mgr.and(reached, self.valid);
        let mut roots = [reached, cells, escape];
        self.mgr.reclaim_since(mark, &mut roots);
        let [reached, reachable_cells_set, escape] = roots;
        TransferDetectPrep {
            reached,
            reachable_cells_set,
            escape,
            fixed_point,
            k,
            reachable_states: self.mgr.count_over(reached, &self.state_vars_a()),
            reachable_cells: self.mgr.count_over(reachable_cells_set, &self.cell_vars()),
        }
    }

    /// Number of reachable `(state, input)` cells at which a transfer
    /// fault flipping latch `flip` (Definition 3 of the paper: the stored
    /// next-state bit is inverted at that one cell) is *guaranteed* to be
    /// detected within `prep.k` further vectors — i.e. every valid
    /// `k`-long continuation drives the golden/faulty successor pair to an
    /// output difference.
    ///
    /// The count is implicit over all cells at once: the faulty successor
    /// is `δ(x, i) ⊕ e_flip`, so a cell escapes detection iff
    /// `E_k(δ(x, i), δ(x, i) ⊕ e_flip)`. Two substitutions give that set:
    /// copy B equated onto copy A with the flipped bit negated
    /// (`xB := xA ⊕ e_flip`), then the preimage under `δA`. The cells are
    /// never enumerated (here, hundreds of millions of them), and counted
    /// over copy A's state and the input variables.
    pub fn transfer_flip_detectable(&mut self, prep: &TransferDetectPrep, flip: usize) -> u128 {
        let nl = self.num_latches;
        assert!(flip < nl, "flip latch out of range");
        let onto_a: Vec<(Var, Bdd)> = (0..nl)
            .map(|j| {
                let xa = 4 * j as u32;
                let lit = if j == flip {
                    self.mgr.nvar(xa)
                } else {
                    self.mgr.var(xa)
                };
                (Var(xa + 1), lit)
            })
            .collect();
        let flipped = self.mgr.substitute(prep.escape, &onto_a);
        let delta_a: Vec<(Var, Bdd)> = (0..nl)
            .map(|j| (Var(4 * j as u32), self.fns.next_a[j]))
            .collect();
        let esc = self.mgr.substitute(flipped, &delta_a);
        let not_esc = self.mgr.not(esc);
        let detected = self.mgr.and(prep.reachable_cells_set, not_esc);
        self.mgr.count_over(detected, &self.cell_vars())
    }

    /// Extracts up to `limit` violating pairs as pairs of state
    /// bit-vectors, for cross-checking against the explicit analysis.
    /// Re-runs the analysis internals; intended for small models.
    pub fn violating_pair_examples(
        &mut self,
        init: &[bool],
        k: usize,
        limit: usize,
    ) -> Vec<(Vec<bool>, Vec<bool>)> {
        // Cheap approach: rerun and enumerate cubes of the bad set.
        let nl = self.num_latches;
        let (result_set, _, _) = self.reachable_violations(init, k);
        let vars = self.pair_vars();
        let mut out = Vec::new();
        for cube in self.mgr.cubes(result_set, &vars).take(limit) {
            let mut a = vec![false; nl];
            let mut b = vec![false; nl];
            for (v, val) in cube.literals {
                let level = v.0 as usize;
                if level.is_multiple_of(4) {
                    a[level / 4] = val;
                } else if level % 4 == 1 {
                    b[level / 4] = val;
                }
            }
            out.push((a, b));
        }
        out
    }
}

impl std::fmt::Debug for PairFsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PairFsm({} latches x2, {} shared inputs)",
            self.num_latches, self.num_inputs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_netlist, EnumerateOptions};
    use simcov_netlist::Netlist;

    /// A netlist with two latches whose states are distinguished only by
    /// a specific input: ∀1 fails, ∀k fails for all k (lookalike loop).
    fn lookalike() -> Netlist {
        let mut n = Netlist::new();
        let probe = n.add_input("probe");
        let q = n.add_latch("q", false);
        let qo = n.latch_output(q);
        n.set_latch_next(q, qo); // q holds forever
                                 // Output reveals q only when probe=1.
        let o = n.and(qo, probe);
        n.add_output("o", o);
        n
    }

    #[test]
    fn lookalike_pairs_found_but_unreachable() {
        // q=1 is unreachable from init q=0, so with the reachability
        // restriction there is no violating *pair of reachable states*.
        let n = lookalike();
        let mut pf = PairFsm::from_netlist(&n);
        let r = pf.forall_k(&[false], 3, true);
        assert!(r.holds);
        assert_eq!(r.reachable_states, 1);
        // Without the restriction the pair (0, 1) violates ∀k for every k
        // under sequences avoiding probe... actually probe=1 distinguishes,
        // probe=0 does not, so ∃ an all-equal sequence: violation.
        let r = pf.forall_k(&[false], 3, false);
        assert!(!r.holds);
        assert_eq!(r.violating_pairs, 1);
    }

    /// `width` latches, each loading its own input; latch `j` is exported
    /// as an output for `j >= hidden`.
    fn latch_bank(width: usize, hidden: usize) -> Netlist {
        let mut n = Netlist::new();
        for j in 0..width {
            let i = n.add_input(format!("i{j}"));
            let q = n.add_latch(format!("q{j}"), false);
            n.set_latch_next(q, i);
            if j >= hidden {
                let qo = n.latch_output(q);
                n.add_output(format!("o{j}"), qo);
            }
        }
        n
    }

    /// On 32 exported latches the pair machine has 4·32 + 32 = 160
    /// variables, yet each count runs over the variables it counts: 2^32
    /// states over 32, and the violating pairs over 64. ∀1 holds, with and
    /// without the reachability restriction, and the verdict is read off
    /// the BDD.
    #[test]
    fn forall_k_holds_on_a_model_too_wide_to_count() {
        let n = latch_bank(32, 0);
        let mut pf = PairFsm::from_netlist(&n);
        let r = pf.forall_k(&n.initial_state(), 1, true);
        assert!(r.holds);
        assert_eq!(r.violating_pairs, 0);
        assert_eq!(r.reachable_states, 1 << 32);
        let r = pf.forall_k(&n.initial_state(), 1, false);
        assert!(r.holds);
        assert_eq!(r.violating_pairs, 0);
        assert_eq!(r.reachable_states, 1 << 32);
        // Hide latch 0: each state and its latch-0 flip show the same
        // outputs, 2^32 ordered pairs and so 2^31 unordered ones.
        let n = latch_bank(32, 1);
        let r = PairFsm::from_netlist(&n).forall_k(&n.initial_state(), 1, true);
        assert!(!r.holds);
        assert_eq!(r.violating_pairs, 1 << 31);
    }

    /// The all-pairs state count saturates from 128 latches on instead of
    /// overflowing its shift.
    #[test]
    fn all_pairs_count_saturates_at_128_latches() {
        let n = latch_bank(128, 0);
        let r = PairFsm::from_netlist(&n).forall_k(&n.initial_state(), 1, false);
        assert!(r.holds);
        assert_eq!(r.reachable_states, u128::MAX);
    }

    /// The symbolic analysis agrees with the explicit checker on the
    /// reduced DLX models (both variants, several k).
    #[test]
    fn agrees_with_explicit_checker() {
        use simcov_netlist::transform::sweep;
        for observable in [false, true] {
            let mut n = Netlist::new();
            // Rebuild the reduced control inline to avoid a dlx dev-dep:
            // a small machine is enough — use a 3-latch shifter with a
            // partially hidden output.
            let a = n.add_input("a");
            let q0 = n.add_latch("q0", false);
            let q1 = n.add_latch("q1", false);
            let q2 = n.add_latch("q2", false);
            let o0 = n.latch_output(q0);
            let o1 = n.latch_output(q1);
            let o2 = n.latch_output(q2);
            n.set_latch_next(q0, a);
            n.set_latch_next(q1, o0);
            n.set_latch_next(q2, o1);
            n.add_output("tap", o2);
            if observable {
                n.add_output("mid", o1);
                n.add_output("front", o0);
            }
            let n = sweep(&n);
            let m = enumerate_netlist(&n, &EnumerateOptions::exhaustive(&n)).unwrap();
            for k in 1..=4 {
                let explicit = simcov_core_shim::forall_k_violations(&m, k);
                let mut pf = PairFsm::from_netlist(&n);
                let sym = pf.forall_k(&n.initial_state(), k, true);
                assert_eq!(
                    sym.violating_pairs, explicit as u128,
                    "observable={observable} k={k}"
                );
            }
        }
    }

    /// Minimal reimplementation of the explicit pair iteration (to avoid
    /// a circular dev-dependency on simcov-core).
    mod simcov_core_shim {
        use crate::explicit::ExplicitMealy;
        pub fn forall_k_violations(m: &ExplicitMealy, k: usize) -> usize {
            let reach = m.reachable_states();
            let n = reach.len();
            let ni = m.num_inputs();
            let mut idx = vec![usize::MAX; m.num_states()];
            for (i, &s) in reach.iter().enumerate() {
                idx[s.index()] = i;
            }
            let pair = |a: usize, b: usize| if a <= b { a * n + b } else { b * n + a };
            let mut e = vec![true; n * n];
            for _ in 0..k {
                let mut next = vec![false; n * n];
                for a in 0..n {
                    next[pair(a, a)] = true;
                    for b in (a + 1)..n {
                        for i in 0..ni {
                            let (na, oa) = m
                                .step(reach[a], crate::explicit::InputSym(i as u32))
                                .unwrap();
                            let (nb, ob) = m
                                .step(reach[b], crate::explicit::InputSym(i as u32))
                                .unwrap();
                            if oa == ob && e[pair(idx[na.index()], idx[nb.index()])] {
                                next[pair(a, b)] = true;
                                break;
                            }
                        }
                    }
                }
                e = next;
            }
            let mut count = 0;
            for a in 0..n {
                for b in (a + 1)..n {
                    if e[pair(a, b)] {
                        count += 1;
                    }
                }
            }
            count
        }
    }

    /// `transfer_flip_detectable` agrees with a brute-force walk of every
    /// `(state, input, flipped latch)` on a small machine, for several `k`.
    #[test]
    fn transfer_detectability_matches_explicit() {
        for observable in [false, true] {
            let mut n = Netlist::new();
            let a = n.add_input("a");
            let q0 = n.add_latch("q0", false);
            let q1 = n.add_latch("q1", false);
            let q2 = n.add_latch("q2", false);
            let o0 = n.latch_output(q0);
            let o1 = n.latch_output(q1);
            let o2 = n.latch_output(q2);
            n.set_latch_next(q0, a);
            n.set_latch_next(q1, o0);
            n.set_latch_next(q2, o1);
            n.add_output("tap", o2);
            if observable {
                n.add_output("front", o0);
            }
            let nl = 3usize;
            // Explicit escape relation over all 8x8 state pairs:
            // esc[t](a, b) = some t-long input sequence keeps outputs equal.
            let state =
                |bits: usize| -> Vec<bool> { (0..nl).map(|j| bits >> j & 1 == 1).collect() };
            let step = |bits: usize, i: bool| -> (usize, Vec<bool>) {
                let (nx, out) = n.step(&state(bits), &[i]);
                let mut v = 0usize;
                for (j, &b) in nx.iter().enumerate() {
                    v |= (b as usize) << j;
                }
                (v, out)
            };
            for k in 1..=3usize {
                let mut esc = vec![vec![true; 8]; 8];
                for _ in 0..k {
                    let mut next = vec![vec![false; 8]; 8];
                    #[allow(clippy::needless_range_loop)]
                    for sa in 0..8 {
                        for sb in 0..8 {
                            for i in [false, true] {
                                let (na, oa) = step(sa, i);
                                let (nb, ob) = step(sb, i);
                                if oa == ob && esc[na][nb] {
                                    next[sa][sb] = true;
                                    break;
                                }
                            }
                        }
                    }
                    esc = next;
                }
                // Reachable states by BFS.
                let mut reach = [false; 8];
                let mut work = vec![0usize];
                reach[0] = true;
                while let Some(s) = work.pop() {
                    for i in [false, true] {
                        let (nx, _) = step(s, i);
                        if !reach[nx] {
                            reach[nx] = true;
                            work.push(nx);
                        }
                    }
                }
                let mut pf = PairFsm::from_netlist(&n);
                let prep = pf.transfer_detect_prep(&n.initial_state(), k);
                let cells: usize = reach.iter().filter(|&&r| r).count() * 2;
                assert_eq!(prep.reachable_cells, cells as u128, "k={k}");
                for flip in 0..nl {
                    let mut expected = 0u128;
                    for (s, _) in reach.iter().enumerate().filter(|&(_, &r)| r) {
                        for i in [false, true] {
                            let (nx, _) = step(s, i);
                            let flipped = nx ^ (1 << flip);
                            if !esc[nx][flipped] {
                                expected += 1;
                            }
                        }
                    }
                    let got = pf.transfer_flip_detectable(&prep, flip);
                    assert_eq!(got, expected, "observable={observable} k={k} flip={flip}");
                }
            }
        }
    }

    /// Three latches fed through gates from three inputs, and one output
    /// that shows part of the state: a machine whose answers depend on
    /// which input vectors are valid.
    fn mixer() -> Netlist {
        let mut n = Netlist::new();
        let i: Vec<_> = (0..3).map(|k| n.add_input(format!("i{k}"))).collect();
        let q: Vec<_> = (0..3)
            .map(|j| n.add_latch(format!("q{j}"), false))
            .collect();
        let o: Vec<_> = q.iter().map(|&l| n.latch_output(l)).collect();
        let d0 = n.xor(i[0], o[2]);
        let t = n.and(o[0], i[1]);
        let d1 = n.or(t, i[2]);
        let t = n.and(i[0], i[2]);
        let d2 = n.xor(o[1], t);
        for (&l, d) in q.iter().zip([d0, d1, d2]) {
            n.set_latch_next(l, d);
        }
        let t = n.and(o[2], i[1]);
        let y = n.xor(t, o[0]);
        n.add_output("y", y);
        n
    }

    /// The OR of the minterms of the given input vectors (bit `k` of a
    /// code is input `k`).
    fn valid_vectors(pf: &mut PairFsm, codes: &[usize]) -> Bdd {
        let mut v = Bdd::FALSE;
        for &code in codes {
            let mut m = Bdd::TRUE;
            for k in 0..pf.num_inputs {
                let level = pf.input_var(k).0;
                let lit = if code >> k & 1 == 1 {
                    pf.mgr().var(level)
                } else {
                    pf.mgr().nvar(level)
                };
                m = pf.mgr().and(m, lit);
            }
            v = pf.mgr().or(v, m);
        }
        v
    }

    /// For k = 1..=3: the prep's counts and escape pairs, every flip's
    /// count, and `forall_k` with and without the reachability
    /// restriction.
    fn answers(pf: &mut PairFsm, init: &[bool]) -> Vec<u128> {
        let nl = pf.num_latches;
        let mut out = Vec::new();
        for k in 1..=3 {
            let prep = pf.transfer_detect_prep(init, k);
            out.extend([
                prep.reachable_states,
                prep.reachable_cells,
                prep.fixed_point.into(),
                pf.mgr.count_over(prep.escape, &pf.pair_vars()),
            ]);
            out.extend((0..nl).map(|flip| pf.transfer_flip_detectable(&prep, flip)));
            for restrict in [true, false] {
                let r = pf.forall_k(init, k, restrict);
                out.extend([
                    r.violating_pairs,
                    r.reachable_states,
                    r.holds.into(),
                    r.fixed_point.into(),
                ]);
            }
        }
        out
    }

    /// A second constraint replaces the first: the machine answers exactly
    /// like a fresh one given only the second. The two sets overlap
    /// without nesting, so cofactoring the first constraint's functions
    /// again would show on the vectors only the second allows.
    #[test]
    fn second_constraint_answers_like_a_fresh_machine() {
        let n = mixer();
        let init = n.initial_state();
        let (v1, v2) = ([0b110, 0b111], [0b001, 0b011, 0b100, 0b111]);
        let mut fresh = PairFsm::from_netlist(&n);
        let v = valid_vectors(&mut fresh, &v2);
        fresh.set_valid_inputs(v);
        let expected = answers(&mut fresh, &init);
        let mut pf = PairFsm::from_netlist(&n);
        let v = valid_vectors(&mut pf, &v1);
        pf.set_valid_inputs(v);
        assert_ne!(answers(&mut pf, &init), expected, "the constraints differ");
        let v = valid_vectors(&mut pf, &v2);
        pf.set_valid_inputs(v);
        assert_eq!(answers(&mut pf, &init), expected);
    }

    /// With no constraint or `TRUE`, the queries use the lowered functions
    /// themselves and setting the constraint makes no node and no
    /// operation, so unconstrained callers keep their BDD counters.
    /// `FALSE` never reaches `constrain` (which rejects an empty care set)
    /// and leaves no valid cell.
    #[test]
    fn constant_constraints_keep_the_lowered_functions() {
        let n = mixer();
        let init = n.initial_state();
        let mut pf = PairFsm::from_netlist(&n);
        assert_eq!(pf.fns, pf.lowered);
        let before = (pf.mgr.num_nodes(), pf.mgr.runtime_stats());
        pf.set_valid_inputs(Bdd::TRUE);
        assert_eq!(pf.fns, pf.lowered);
        assert_eq!((pf.mgr.num_nodes(), pf.mgr.runtime_stats()), before);
        let v = valid_vectors(&mut pf, &[0b011]);
        pf.set_valid_inputs(v);
        assert_ne!(pf.fns, pf.lowered);
        pf.set_valid_inputs(Bdd::TRUE);
        assert_eq!(pf.fns, pf.lowered);
        pf.set_valid_inputs(Bdd::FALSE);
        assert_eq!(pf.fns, pf.lowered);
        let prep = pf.transfer_detect_prep(&init, 2);
        assert_eq!((prep.reachable_states, prep.reachable_cells), (1, 0));
        for flip in 0..n.num_latches() {
            assert_eq!(pf.transfer_flip_detectable(&prep, flip), 0);
        }
        let r = pf.forall_k(&init, 2, false);
        assert!(r.holds && r.fixed_point);
        assert_eq!(r.violating_pairs, 0);
    }

    /// The prep's two halves run on two threads, yet two fresh machines
    /// under the same constraint end every prep with the same handles,
    /// counts, node store and operation counters: nothing depends on how
    /// the threads interleaved.
    #[test]
    fn transfer_prep_does_not_depend_on_thread_interleaving() {
        let n = mixer();
        let init = n.initial_state();
        let run = || {
            let mut pf = PairFsm::from_netlist(&n);
            let v = valid_vectors(&mut pf, &[0b001, 0b011, 0b100, 0b111]);
            pf.set_valid_inputs(v);
            (1..=3)
                .map(|k| {
                    let prep = pf.transfer_detect_prep(&init, k);
                    let handles = [prep.reached, prep.reachable_cells_set, prep.escape];
                    let counts = [prep.reachable_states, prep.reachable_cells];
                    let mgr = (pf.mgr.runtime_stats(), pf.mgr.num_nodes());
                    (handles, counts, prep.fixed_point, mgr)
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        assert!(first.iter().all(|(_, [states, _], ..)| *states > 1));
        assert_eq!(run(), first);
    }

    /// The prep survives cloning the pair machine: clones answer the same
    /// per-latch queries (the shard-worker pattern of the implicit
    /// campaign).
    #[test]
    fn transfer_prep_valid_in_clones() {
        let n = lookalike();
        let mut pf = PairFsm::from_netlist(&n);
        let prep = pf.transfer_detect_prep(&[false], 2);
        let direct = pf.transfer_flip_detectable(&prep, 0);
        let mut clone = pf.clone();
        assert_eq!(clone.transfer_flip_detectable(&prep, 0), direct);
    }

    #[test]
    fn violating_pair_examples_extracted() {
        // Make both q values reachable by driving q from an input.
        let mut n2 = Netlist::new();
        let probe = n2.add_input("probe");
        let set = n2.add_input("set");
        let q = n2.add_latch("q", false);
        let qo = n2.latch_output(q);
        let nx = n2.or(qo, set);
        n2.set_latch_next(q, nx);
        let o = n2.and(qo, probe);
        n2.add_output("o", o);
        let mut pf2 = PairFsm::from_netlist(&n2);
        let r = pf2.forall_k(&[false], 2, true);
        assert!(!r.holds);
        let pairs = pf2.violating_pair_examples(&[false], 2, 4);
        assert!(!pairs.is_empty());
        for (a, b) in pairs {
            assert_ne!(a, b);
        }
    }
}
