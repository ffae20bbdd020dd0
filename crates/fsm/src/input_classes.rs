//! Input don't-care equivalence: collapsing the valid input alphabet to
//! its behaviourally distinct classes.
//!
//! Section 7.2: *"Though there are 25 primary inputs in the model, not
//! all combinations are allowed... Taking input don't-cares into account
//! reduces the number of reachable states as well as the number of
//! transitions that need to be visited."* Beyond validity, many valid
//! vectors are *equivalent*: they drive every reachable state to the same
//! successor with the same outputs, so a tour needs only one
//! representative per class. This module computes those classes
//! symbolically:
//!
//! ```text
//! i ≡ i'  ⇔  ∀x ∈ R:  δ(x, i) = δ(x, i')  ∧  λ(x, i) = λ(x, i')
//! ```
//!
//! With the classes in hand, a model whose raw transition count is in the
//! hundreds of millions (1552 states × 184k valid vectors here) collapses
//! to an explicitly tractable quotient — which is how the full-scale
//! transition tour of the case study is generated.
//!
//! The two input copies `i` and `i'` are two [`lower_netlist`]s of the
//! design sharing the state variables. Each copy's δ and λ are cofactored
//! by that copy's own valid set (the crate's care-set rule) before
//! reachability and the difference relation are built. This is exact:
//! the cofactors agree with δ and λ on valid inputs, reachability only
//! takes valid inputs, and `D(i, i')` is only read on valid × valid
//! pairs.

use crate::image::ImageSchedule;
use crate::lower::{constrain_to_care, lower_netlist};
use simcov_bdd::{Bdd, BddManager, Var};
use simcov_netlist::{LatchId, Netlist};

/// The input equivalence classes of a netlist under a valid-input
/// constraint, restricted to a reachable state set.
#[derive(Debug)]
pub struct InputClasses {
    /// One representative vector per class (full input width).
    pub representatives: Vec<Vec<bool>>,
    /// The number of valid input vectors in each class (aligned with
    /// `representatives`).
    pub class_sizes: Vec<u128>,
}

impl InputClasses {
    /// Number of classes.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// `true` if there are no classes (unsatisfiable valid set).
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// Total valid vectors across all classes.
    pub fn total_valid(&self) -> u128 {
        self.class_sizes.iter().sum()
    }
}

/// Computes the input equivalence classes of `netlist`.
///
/// * `valid`: predicate over the input vector selecting legal stimuli
///   (evaluated symbolically via the builder closure, which receives the
///   manager and a variable lookup for input names);
/// * `reached`: optional restriction to a reachable state set expressed
///   over the same netlist (when `None`, equivalence is required over
///   *all* states — stronger, and cheaper to decide).
/// * `max_classes`: abort bound.
///
/// Returns `None` if the class count exceeds `max_classes`.
pub fn input_equivalence_classes(
    netlist: &Netlist,
    valid: impl FnOnce(&mut BddManager, &dyn Fn(&str) -> Var) -> Bdd,
    restrict_reachable: bool,
    max_classes: usize,
) -> Option<InputClasses> {
    let nl = netlist.num_latches();
    let ni = netlist.num_inputs();
    // Variable order: state x_j at level j (top), then inputs interleaved:
    // i_k at nl + 2k, i'_k at nl + 2k + 1.
    let total = (nl + 2 * ni) as u32;
    let mut mgr = BddManager::new(total.max(1));
    let latch = |m: &mut BddManager, l: LatchId| m.var(l.index() as u32);
    let mut a = lower_netlist(
        &mut mgr,
        netlist,
        |m, i| m.var((nl + 2 * i.index()) as u32),
        latch,
    );
    let mut b = lower_netlist(
        &mut mgr,
        netlist,
        |m, i| m.var((nl + 2 * i.index() + 1) as u32),
        latch,
    );
    let input_var = |name: &str| -> Var {
        let k = netlist
            .input_names()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown input `{name}`"));
        Var(nl as u32 + 2 * k as u32)
    };
    let valid_i = valid(&mut mgr, &input_var);
    // valid(i'): rename even input vars to odd.
    let map: Vec<(Var, Var)> = (0..ni)
        .map(|k| {
            (
                Var(nl as u32 + 2 * k as u32),
                Var(nl as u32 + 2 * k as u32 + 1),
            )
        })
        .collect();
    let valid_ip = mgr.rename(valid_i, &map);
    constrain_to_care(&mut mgr, a.next.iter_mut().chain(&mut a.outputs), valid_i);
    constrain_to_care(&mut mgr, b.next.iter_mut().chain(&mut b.outputs), valid_ip);

    // Reachable state set over the x variables, computed in this manager
    // with next-state variables appended below everything else.
    let reached = if restrict_reachable {
        Some(reachable_over(&mut mgr, netlist, &a.next, valid_i))
    } else {
        None
    };

    // Difference relation D(i, i') = ∃x∈R: some next or output differs.
    let mut diff = Bdd::FALSE;
    let x_vars: Vec<Var> = (0..nl as u32).map(Var).collect();
    let x_cube = mgr.cube_from_vars(&x_vars);
    let restrict = reached.unwrap_or(Bdd::TRUE);
    let add_term = |mgr: &mut BddManager, fa: Bdd, fb: Bdd, diff: &mut Bdd| {
        let d = mgr.xor(fa, fb);
        let dr = mgr.and_exists(d, restrict, x_cube);
        *diff = mgr.or(*diff, dr);
    };
    for (&fa, &fb) in a.next.iter().zip(&b.next) {
        add_term(&mut mgr, fa, fb, &mut diff);
    }
    for (&fa, &fb) in a.outputs.iter().zip(&b.outputs) {
        add_term(&mut mgr, fa, fb, &mut diff);
    }
    let ndiff = mgr.not(diff);
    let mut equiv = mgr.and(ndiff, valid_i);
    equiv = mgr.and(equiv, valid_ip);

    // Enumerate classes: peel one representative at a time.
    let i_vars: Vec<Var> = (0..ni).map(|k| Var(nl as u32 + 2 * k as u32)).collect();
    let back_map: Vec<(Var, Var)> = (0..ni)
        .map(|k| {
            (
                Var(nl as u32 + 2 * k as u32 + 1),
                Var(nl as u32 + 2 * k as u32),
            )
        })
        .collect();
    let mut remaining = valid_i;
    let mut representatives = Vec::new();
    let mut class_sizes = Vec::new();
    while !remaining.is_false() {
        if representatives.len() >= max_classes {
            return None;
        }
        let mt = mgr
            .pick_minterm(remaining, &i_vars)
            .expect("remaining satisfiable");
        let rep: Vec<bool> = (0..ni)
            .map(|k| mt.polarity(Var(nl as u32 + 2 * k as u32)).unwrap_or(false))
            .collect();
        // The class of `rep`: equiv with i fixed to rep, as a set over i'.
        let lits: Vec<(Var, bool)> = (0..ni)
            .map(|k| (Var(nl as u32 + 2 * k as u32), rep[k]))
            .collect();
        let class_ip = mgr.restrict(equiv, &lits);
        let class_i = mgr.rename(class_ip, &back_map);
        let size = mgr.count_over(class_i, &i_vars);
        debug_assert!(size >= 1);
        representatives.push(rep);
        class_sizes.push(size);
        let not_class = mgr.not(class_i);
        remaining = mgr.and(remaining, not_class);
    }
    Some(InputClasses {
        representatives,
        class_sizes,
    })
}

/// Reachability over the `x` variables of the dual-input manager: appends
/// next-state variables at the bottom of the order and returns the fixed
/// point over `x`, with copy `i`'s inputs quantified.
fn reachable_over(mgr: &mut BddManager, netlist: &Netlist, next_fns: &[Bdd], valid_i: Bdd) -> Bdd {
    let nl = netlist.num_latches() as u32;
    let y_base = mgr.add_vars(nl).0;
    let mut init = Bdd::TRUE;
    for (j, l) in netlist.latches().iter().enumerate() {
        let x = mgr.var(j as u32);
        let lit = if l.init { x } else { mgr.not(x) };
        init = mgr.and(init, lit);
    }
    let latches: Vec<(Var, Var)> = (0..nl).map(|j| (Var(j), Var(y_base + j))).collect();
    let inputs: Vec<Var> = (0..netlist.num_inputs() as u32)
        .map(|k| Var(nl + 2 * k))
        .collect();
    let sched = ImageSchedule::new(mgr, next_fns, &latches, &inputs);
    sched.reach(mgr, init, valid_i).reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_netlist::Netlist;

    /// A latch toggling on input `a`, with `b` completely ignored: the 4
    /// input vectors collapse to 2 classes (a=0, a=1).
    #[test]
    fn ignored_input_collapses() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let _b = n.add_input("b");
        let q = n.add_latch("q", false);
        let qo = n.latch_output(q);
        let nx = n.xor(qo, a);
        n.set_latch_next(q, nx);
        n.add_output("o", qo);
        let classes = input_equivalence_classes(&n, |_, _| Bdd::TRUE, true, 100).unwrap();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.total_valid(), 4);
        assert_eq!(classes.class_sizes, vec![2, 2]);
        // Representatives differ in `a`.
        assert_ne!(classes.representatives[0][0], classes.representatives[1][0]);
    }

    /// Inputs that differ only on unreachable states are equivalent when
    /// restricted to the reachable set, distinct otherwise.
    #[test]
    fn reachability_restriction_matters() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let q = n.add_latch("q", false);
        let p = n.add_latch("p", false);
        let qo = n.latch_output(q);
        let po = n.latch_output(p);
        // p is stuck at 0 (next = itself); q toggles on (a & p): since p
        // is always 0 on reachable states, `a` never matters.
        n.set_latch_next(p, po);
        let gate = n.and(a, po);
        let nx = n.xor(qo, gate);
        n.set_latch_next(q, nx);
        n.add_output("o", qo);
        let with_reach = input_equivalence_classes(&n, |_, _| Bdd::TRUE, true, 100).unwrap();
        assert_eq!(with_reach.len(), 1, "a is dead on reachable states");
        let without = input_equivalence_classes(&n, |_, _| Bdd::TRUE, false, 100).unwrap();
        assert_eq!(without.len(), 2, "a matters when p=1 states are included");
    }

    /// A class size counts the input variables only, however many state
    /// variables the manager holds: 120 latches and two copies of 4
    /// inputs (128 variables before reachability adds 120 more). Latch
    /// `j` loads input `j mod 4`, so every input vector is its own class.
    #[test]
    fn class_sizes_count_inputs_on_a_wide_model() {
        let mut n = Netlist::new();
        let inputs: Vec<_> = (0..4).map(|k| n.add_input(format!("i{k}"))).collect();
        for j in 0..120 {
            let q = n.add_latch(format!("q{j}"), false);
            n.set_latch_next(q, inputs[j % 4]);
        }
        for restrict_reachable in [true, false] {
            let classes =
                input_equivalence_classes(&n, |_, _| Bdd::TRUE, restrict_reachable, 100).unwrap();
            assert_eq!(classes.len(), 16);
            assert_eq!(classes.class_sizes, vec![1; 16]);
        }
    }

    /// The valid-input constraint shapes the classes and the totals.
    #[test]
    fn valid_constraint_respected() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.add_latch("q", false);
        let qo = n.latch_output(q);
        let t = n.xor(a, b);
        let nx = n.xor(qo, t);
        n.set_latch_next(q, nx);
        n.add_output("o", qo);
        // Valid: only a=1 vectors.
        let classes = input_equivalence_classes(
            &n,
            |mgr, lookup| {
                let va = lookup("a");
                mgr.var(va.0)
            },
            true,
            100,
        )
        .unwrap();
        // With a fixed to 1, behaviour depends on b alone: 2 classes of
        // size 1.
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.total_valid(), 2);
    }

    /// Class-count abort bound.
    #[test]
    fn max_classes_bound() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.add_latch("q", false);
        let t = n.and(a, b);
        let qo = n.latch_output(q);
        let nx = n.xor(qo, t);
        n.set_latch_next(q, nx);
        n.add_output("o", qo);
        n.add_output("oa", a);
        n.add_output("ob", b);
        // All 4 vectors distinct (outputs expose both inputs).
        assert!(input_equivalence_classes(&n, |_, _| Bdd::TRUE, true, 3).is_none());
        let c = input_equivalence_classes(&n, |_, _| Bdd::TRUE, true, 4).unwrap();
        assert_eq!(c.len(), 4);
    }
}
